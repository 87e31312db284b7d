"""Training batch construction: C cameras x P tracklets x S sub-tracklets.

A batch is a set of frame-table rows (see :class:`~hitpro.prototyping.FrameTable`).
Small synthetic datasets may not contain C cameras or P tracklets per
camera; sampling then falls back to replacement instead of erroring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamodel import Dataset, Manifest, Modality, SubTracklet, TrainConfig

# One camera's tracklets, in dataset order: (first table row, K_eff) of each.
CameraRows = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class BatchSpec:
    modality: Modality
    entries: tuple[tuple[SubTracklet, str], ...]  # (sub-tracklet, source tracklet_id)

    def __len__(self) -> int:
        return len(self.entries)


def camera_rows(
    dataset: Manifest, modality: Modality, starts: np.ndarray, k_eff: np.ndarray
) -> list[CameraRows]:
    """The table rows of each camera of ``modality`` that holds tracklets, in
    camera order. ``starts`` and ``k_eff`` are indexed like the dataset's
    entries."""
    in_modality = dataset.is_vis == (modality is Modality.VIS)
    if not in_modality.any():
        raise ValueError(f"no tracklets in modality {modality.value}")
    cameras = sorted(set(dataset.camera_id[in_modality].tolist()))
    members = (np.flatnonzero(in_modality & (dataset.camera_id == cam)) for cam in cameras)
    return [(starts[idx], k_eff[idx]) for idx in members]


def sample_rows(cameras: list[CameraRows], cfg: TrainConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw one batch's ``C * P * S`` table rows; deterministic given the
    generator state.

    Cameras and tracklets are drawn without replacement where counts allow,
    with replacement otherwise; likewise sub-tracklet indices against K_eff.
    """
    cam_choice = rng.choice(
        len(cameras), size=cfg.batch_cameras, replace=len(cameras) < cfg.batch_cameras
    )
    rows = []
    for cam in cam_choice:
        starts, k_eff = cameras[cam]
        t_idx = rng.choice(
            len(starts), size=cfg.batch_tracklets, replace=len(starts) < cfg.batch_tracklets
        )
        for start, k in zip(starts[t_idx].tolist(), k_eff[t_idx].tolist()):
            rows.append(start + rng.choice(k, size=cfg.batch_subs, replace=k < cfg.batch_subs))
    return np.array(rows, dtype=np.intp).reshape(-1)


def sample_batch(
    dataset: Dataset,
    modality: Modality,
    partitions: dict[str, list[SubTracklet]],
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> BatchSpec:
    """:func:`sample_rows` over the sub-tracklets of ``partitions``, as
    ``(sub-tracklet, source tracklet_id)`` entries."""
    subs: list[tuple[SubTracklet, str]] = []
    starts = np.zeros(len(dataset.tracklet_ids), dtype=np.intp)
    k_eff = np.zeros(len(dataset.tracklet_ids), dtype=np.intp)
    for i in np.flatnonzero(dataset.is_vis == (modality is Modality.VIS)).tolist():
        tid = dataset.tracklet_ids[i]
        starts[i], k_eff[i] = len(subs), len(partitions[tid])
        subs.extend((sub, tid) for sub in partitions[tid])
    rows = sample_rows(camera_rows(dataset, modality, starts, k_eff), cfg, rng)
    return BatchSpec(modality=modality, entries=tuple(subs[r] for r in rows.tolist()))
