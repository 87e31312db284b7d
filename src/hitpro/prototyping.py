"""Sub-tracklet partitioning and per-camera prototype construction.

Prototypes are built once per epoch from a frozen encoder: each tracklet is
split into K contiguous sub-tracklets, each sub-tracklet is encoded, and the
(re-normalized) mean becomes the tracklet's identity anchor. No clustering
is involved anywhere.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .datamodel import Dataset, Prototype, PrototypeStore, SubTracklet, TrainConfig, Tracklet
from .encoder import EncoderParams, encode, select_frames
from .numerics import l2_normalize


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
    feature extraction.
    """
    subs = partition_tracklet(tracklet, cfg.n_subtracklets)
    total = np.zeros(cfg.embed_dim)
    for sub in subs:
        frames = select_frames(sub.slice_frames(tracklet), cfg.seq_len)
        emb, _ = encode(params, frames)
        total += emb
    return l2_normalize(total / len(subs))


def embed_tracklets(
    params: EncoderParams, tracklets, cfg: TrainConfig, threads: int = 1
) -> list[np.ndarray]:
    """:func:`tracklet_embedding` of each tracklet, in input order.

    Embarrassingly parallel over tracklets; results are positioned by index,
    so any thread count yields identical output.
    """
    if threads > 1 and len(tracklets) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda t: tracklet_embedding(params, t, cfg), tracklets))
    return [tracklet_embedding(params, t, cfg) for t in tracklets]


def build_prototypes(
    params: EncoderParams, dataset: Dataset, cfg: TrainConfig, threads: int = 1
) -> PrototypeStore:
    """Encode every tracklet and group prototypes by (modality, camera)."""
    vectors = embed_tracklets(params, dataset.tracklets, cfg, threads)
    return PrototypeStore([
        Prototype(t.tracklet_id, t.modality, t.camera_id, vec)
        for t, vec in zip(dataset.tracklets, vectors)
    ])
