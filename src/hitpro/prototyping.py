"""Sub-tracklet partitioning and per-camera prototype construction.

Prototypes are built once per epoch from a frozen encoder: each tracklet is
split into K contiguous sub-tracklets, each sub-tracklet is encoded, and the
(re-normalized) mean becomes the tracklet's identity anchor. No clustering
is involved anywhere.
"""

from __future__ import annotations

import numpy as np

from .datamodel import Dataset, Prototype, PrototypeStore, SubTracklet, TrainConfig, Tracklet
from .encoder import EncoderParams, encode, select_frames
from .numerics import l2_normalize

# Sub-tracklets per encoder call when embedding many tracklets: large enough
# that per-call overhead is small, small enough that the forward activations
# of one chunk stay a few MB.
ENCODE_CHUNK = 64


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


def tracklet_embedding(
    params: EncoderParams, tracklet: Tracklet, cfg: TrainConfig
) -> np.ndarray:
    """Normalized mean of the tracklet's sub-tracklet embeddings.

    The single recipe shared by prototype construction and test-time
    feature extraction; :func:`embed_tracklets` applies it to many tracklets.
    """
    return embed_tracklets(params, [tracklet], cfg)[0]


def embed_tracklets(params: EncoderParams, tracklets, cfg: TrainConfig) -> list[np.ndarray]:
    """:func:`tracklet_embedding` of each tracklet, in input order.

    All sub-tracklets of all tracklets go through the encoder as stacks of
    ``ENCODE_CHUNK`` sub-tracklets, which bounds the forward activations held
    at once.
    """
    parts = [partition_tracklet(t, cfg.n_subtracklets) for t in tracklets]
    subs = [(t, sub) for t, part in zip(tracklets, parts) for sub in part]
    embeddings = np.empty((len(subs), cfg.embed_dim))
    for start in range(0, len(subs), ENCODE_CHUNK):
        chunk = subs[start : start + ENCODE_CHUNK]
        frames = np.stack([select_frames(sub.slice_frames(t), cfg.seq_len) for t, sub in chunk])
        embeddings[start : start + len(chunk)] = encode(params, frames)[0]
    vectors = []
    row = 0
    for part in parts:
        total = np.zeros(cfg.embed_dim)
        for emb in embeddings[row : row + len(part)]:
            total += emb
        vectors.append(l2_normalize(total / len(part)))
        row += len(part)
    return vectors


def build_prototypes(params: EncoderParams, dataset: Dataset, cfg: TrainConfig) -> PrototypeStore:
    """Encode every tracklet and group prototypes by (modality, camera)."""
    vectors = embed_tracklets(params, dataset.tracklets, cfg)
    return PrototypeStore([
        Prototype(t.tracklet_id, t.modality, t.camera_id, vec)
        for t, vec in zip(dataset.tracklets, vectors)
    ])
