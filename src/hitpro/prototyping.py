"""Sub-tracklet partitioning, the frame table, and per-camera prototypes.

Each tracklet is split into K contiguous sub-tracklets (the paper's fixed
temporal partition), and ``select_frames`` picks each one's encoder input.
Both depend only on the tracklet's length, K and ``seq_len``, so a run
builds them once, as a :class:`FrameTable`: one float64 row of frames per
sub-tracklet. Prototypes are built once per epoch from a frozen encoder by
encoding the table and taking, per tracklet, the (re-normalized) mean of its
sub-tracklet embeddings as its identity anchor; training batches are rows of
the same table. No clustering is involved anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamodel import Dataset, PrototypeStore, SubTracklet, TrainConfig, Tracklet
from .encoder import EncoderParams, encode_table
from .numerics import normalize_rows


def partition_tracklet(tracklet: Tracklet, k: int) -> list[SubTracklet]:
    """Split into min(k, L) contiguous covering slices.

    With r = L mod k_eff, the first r slices get one extra frame.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    length = tracklet.n_frames
    k_eff = min(k, length)
    base, extra = divmod(length, k_eff)
    subs = []
    start = 0
    for i in range(k_eff):
        size = base + (1 if i < extra else 0)
        subs.append(SubTracklet(parent=tracklet.tracklet_id, k=i, start=start, end=start + size))
        start += size
    return subs


@dataclass(frozen=True)
class FrameTable:
    """The encoder input of every sub-tracklet of a tracklet sequence.

    Tracklet ``i`` owns rows ``starts[i] : starts[i] + k_eff[i]`` of
    ``frames``, its ``partition_tracklet`` sub-tracklets in order, each row
    the sub-tracklet's ``select_frames``. Rows are float64, the dtype
    ``encode`` casts its input to, so encoding a slice of the table gives
    what encoding the selected frames gives.
    """

    frames: np.ndarray  # (n_rows, seq_len, d_in) float64
    starts: np.ndarray  # (n_tracklets,) first row of each tracklet
    k_eff: np.ndarray  # (n_tracklets,) sub-tracklets of each tracklet

    @property
    def owners(self) -> np.ndarray:
        """``(n_rows,)``: the tracklet index of each row."""
        return np.repeat(np.arange(len(self.k_eff)), self.k_eff)


def frame_table(tracklets, cfg: TrainConfig) -> FrameTable:
    """The :class:`FrameTable` of ``tracklets`` under ``cfg``'s K and
    ``seq_len``: :func:`table_of_rows` of their concatenated frames."""
    rows = np.concatenate([t.frames for t in tracklets]) if tracklets else None
    return table_of_rows(rows, [t.n_frames for t in tracklets], cfg)


def table_of_rows(rows, n_frames, cfg: TrainConfig) -> FrameTable:
    """The :class:`FrameTable` of tracklets whose frames lie back to back in
    ``rows``, ``n_frames[i]`` rows for tracklet ``i``, as in ``frames.f32``.

    Every sub-tracklet's bounds and ``select_frames`` indices are computed
    at once in integer arithmetic (the evenly spaced index by the same
    float64 operations as ``select_frames``), and one fancy index gathers
    every row from ``rows``.
    """
    seq_len = cfg.seq_len
    lengths = np.asarray(n_frames, dtype=np.intp)
    k_eff = np.minimum(lengths, cfg.n_subtracklets)
    starts = np.cumsum(k_eff) - k_eff
    if not len(lengths):
        return FrameTable(np.empty((0, seq_len, cfg.d_in)), starts, k_eff)
    owners = np.repeat(np.arange(len(k_eff)), k_eff)
    # partition_tracklet: the first L mod K_eff slices get one extra frame
    base, extra = np.divmod(lengths, k_eff)
    base, extra = base[owners], extra[owners]
    k = np.arange(len(owners)) - starts[owners]
    size = base + (k < extra)
    first = np.cumsum(lengths)[owners] - lengths[owners] + k * base + np.minimum(k, extra)
    # select_frames: evenly spaced when the slice is long enough, else cyclic
    j = np.arange(seq_len)
    spaced = (j * (size[:, None] - 1) / max(seq_len - 1, 1) + 0.5).astype(np.intp)
    picked = np.where(size[:, None] >= seq_len, spaced, j % size[:, None])
    frames = rows[first[:, None] + picked]
    return FrameTable(frames=frames.astype(np.float64), starts=starts, k_eff=k_eff)


def embed_table(params: EncoderParams, table: FrameTable) -> np.ndarray:
    """``(n_tracklets, d)``: each tracklet's normalized mean sub-tracklet
    embedding, the one recipe of prototype construction and test-time
    feature extraction.

    The rows go through :func:`encode_table`. Wave ``k`` of the mean adds
    every tracklet's ``k``-th sub-tracklet embedding, so each sum runs in
    sub-tracklet order, as a loop over one tracklet's would.
    """
    embeddings = encode_table(params, table.frames)
    total = np.zeros((len(table.k_eff), params.embed_dim))
    for k in range(int(table.k_eff.max(initial=0))):
        has_k = np.flatnonzero(table.k_eff > k)
        total[has_k] += embeddings[table.starts[has_k] + k]
    return normalize_rows(total / table.k_eff[:, None])


def tracklet_embedding(
    params: EncoderParams, tracklet: Tracklet, cfg: TrainConfig
) -> np.ndarray:
    """Normalized mean of the tracklet's sub-tracklet embeddings."""
    return embed_tracklets(params, [tracklet], cfg)[0]


def embed_tracklets(params: EncoderParams, tracklets, cfg: TrainConfig) -> np.ndarray:
    """``(n_tracklets, d)``: the :func:`tracklet_embedding` of each tracklet, in input order."""
    return embed_table(params, frame_table(tracklets, cfg))


def build_prototypes(
    params: EncoderParams, dataset: Dataset, cfg: TrainConfig, table: FrameTable | None = None
) -> PrototypeStore:
    """Encode every tracklet and group prototypes by (modality, camera).

    ``table`` is the dataset's frame table when the caller already has it.
    """
    if table is None:
        table = table_of_rows(dataset.frames, dataset.n_frames, cfg)
    return PrototypeStore.from_matrix(embed_table(params, table), dataset.tracklet_ids,
                                      dataset.modalities, dataset.camera_id.tolist())
