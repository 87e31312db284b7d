"""Hierarchical positive mining over a prototype store.

For each source prototype, the best-matching prototype of every other
camera (same modality) or every opposite-modality camera is a candidate;
candidates pass if their similarity clears an instance-adaptive threshold
that decays linearly over training, and survivors get temperature-softmax
weights. Exact search everywhere; store sizes are small by design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .datamodel import (
    Modality,
    PositiveKind,
    PrototypeStore,
    TrainConfig,
    WeightedPositiveSet,
)
from .numerics import row_norms, stable_softmax


def cosine_sim(a: np.ndarray, b: np.ndarray) -> float:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity undefined for zero-norm input")
    return float(a @ b) / (na * nb)


def rho_schedule(epoch: int, cfg: TrainConfig) -> float:
    """Linear decay from thresh_init at epoch 0 to thresh_final at total_epochs."""
    if not (0 <= epoch <= cfg.total_epochs):
        raise ValueError(f"epoch {epoch} outside [0, {cfg.total_epochs}]")
    if cfg.total_epochs == 0:
        return cfg.thresh_init
    return cfg.thresh_init + (cfg.thresh_final - cfg.thresh_init) * epoch / cfg.total_epochs


def soft_weights(sims, weight_temp: float) -> np.ndarray:
    """Temperature softmax over candidate similarities (max-subtracted)."""
    if len(sims) == 0:
        raise ValueError("soft_weights requires at least one similarity")
    if weight_temp <= 0:
        raise ValueError("weight_temp must be positive")
    return stable_softmax(np.asarray(sims, dtype=np.float64) / weight_temp)


@dataclass
class MiningRow:
    """Per-source diagnostics for one mining pass."""

    source: str
    s_max: Optional[float]  # None when there are no target cameras
    threshold: Optional[float]
    candidates: list[tuple[int, str, float]]  # (target camera, target id, sim)
    accepted: list[tuple[str, float, float]]  # (target id, sim, weight)


@dataclass
class MiningReport:
    """One mining pass over a (source modality, direction) family, as arrays.

    Row ``i`` is source ``sources[i]``, row ``source_rows[i]`` of the
    store's ``stacked``; column ``j`` is its best match in candidate camera
    ``cameras[i, j]``: tracklet ``targets[i, j]``, row ``target_rows[i, j]``
    of ``stacked``, at cosine ``sims[i, j]``, accepted where
    ``accepted[i, j]`` with weight ``weights[i, j]`` (0 elsewhere).
    ``thresholds[i]`` is the source's threshold, None when there is no
    candidate camera. Every source has the same number of candidate cameras.
    """

    source_modality: Modality
    kind: PositiveKind
    epoch: int
    sources: list[str]
    source_rows: np.ndarray  # (n,) int
    cameras: np.ndarray  # (n, c) int
    targets: np.ndarray  # (n, c) object: target tracklet ids
    target_rows: np.ndarray  # (n, c) int
    sims: np.ndarray  # (n, c) float64
    thresholds: list[Optional[float]]
    accepted: np.ndarray  # (n, c) bool
    weights: np.ndarray  # (n, c) float64

    @property
    def mean_positive_set_size(self) -> float:
        if not self.sources:
            return 0.0
        return int(self.accepted.sum()) / len(self.sources)

    def positive_sets(self) -> list[WeightedPositiveSet]:
        return [
            WeightedPositiveSet(source=row.source, kind=self.kind,
                                entries=tuple((tid, w) for tid, _, w in row.accepted))
            for row in self.rows
        ]

    @property
    def rows(self) -> list[MiningRow]:
        """Per-source diagnostics, built on each access; a row's accepted
        ``(target id, sim, weight)`` in camera order."""
        return [
            MiningRow(
                source=source,
                s_max=max(sims) if sims else None,
                threshold=threshold,
                candidates=list(zip(cams, targets, sims)),
                accepted=[(t, s, w) for t, s, w, a in zip(targets, sims, weights, accepted) if a],
            )
            for source, cams, targets, sims, weights, accepted, threshold in zip(
                self.sources, self.cameras.tolist(), self.targets.tolist(), self.sims.tolist(),
                self.weights.tolist(), self.accepted.tolist(), self.thresholds,
            )
        ]


def build_mining_report(
    store: PrototypeStore,
    source_modality: Modality,
    kind: PositiveKind,
    epoch: int,
    cfg: TrainConfig,
) -> MiningReport:
    """Mine one (source modality, direction) family.

    Exact flat inner-product search: each candidate camera's prototype
    matrix meets all rows of a source camera in one stacked matrix-vector
    product (per row the same BLAS call as ``mat @ src``), and a row-wise
    argmax keeps each row's best match, the first maximum winning ties.
    Thresholds and weights are then set for all sources at once.
    """
    rho = rho_schedule(epoch, cfg)
    target_modality = (
        source_modality if kind is PositiveKind.INTRA_MODAL else source_modality.other
    )
    targets = {}
    for cam in store.cameras(target_modality):
        mat = store.matrix(target_modality, cam)
        ids = np.array(store.ids(target_modality, cam), dtype=object)
        first = store.block_rows(target_modality, cam).start
        targets[cam] = (ids, first, mat, np.linalg.norm(mat, axis=1))

    intra = kind is PositiveKind.INTRA_MODAL
    source_cams = store.cameras(source_modality)
    sources = [tid for cam in source_cams for tid in store.ids(source_modality, cam)]
    n_candidates = max(len(targets) - 1, 0) if intra else len(targets)
    shape = (len(sources), n_candidates)
    source_rows = np.empty(len(sources), dtype=np.intp)
    cameras = np.empty(shape, dtype=np.int64)
    best_ids = np.empty(shape, dtype=object)
    target_rows = np.empty(shape, dtype=np.intp)
    sims = np.empty(shape)
    start = 0
    for source_camera in source_cams:
        block = store.block_rows(source_modality, source_camera)
        src = store.stacked[block]
        stop = start + len(src)
        source_rows[start:stop] = np.arange(block.start, block.stop)
        src_norms = row_norms(src)
        cams = [c for c in targets if not (intra and c == source_camera)]
        for j, cam in enumerate(cams):
            ids, first, mat, norms = targets[cam]
            cam_sims = (mat @ src[:, :, None])[:, :, 0] / (norms * src_norms)
            best = np.argmax(cam_sims, axis=1)  # first max wins: lowest index tie-break
            cameras[start:stop, j] = cam
            best_ids[start:stop, j] = ids[best]
            target_rows[start:stop, j] = first + best
            sims[start:stop, j] = cam_sims[np.arange(len(best)), best]
        start = stop

    accepted, thresholds, weights = _accept(sims, rho, cfg)
    return MiningReport(
        source_modality=source_modality, kind=kind, epoch=epoch,
        sources=sources, source_rows=source_rows,
        cameras=cameras, targets=best_ids, target_rows=target_rows, sims=sims,
        thresholds=thresholds, accepted=accepted, weights=weights,
    )


# the four families as (source modality, kind, key): ``metrics.json`` names
# each by its key, ``mining_report.json`` by its key and ``_modal``
FAMILIES = (
    (Modality.VIS, PositiveKind.INTRA_MODAL, "vis_intra"),
    (Modality.VIS, PositiveKind.CROSS_MODAL, "vis_cross"),
    (Modality.IR, PositiveKind.INTRA_MODAL, "ir_intra"),
    (Modality.IR, PositiveKind.CROSS_MODAL, "ir_cross"),
)


def mine_families(store: PrototypeStore, epoch: int, cfg: TrainConfig) -> dict[str, MiningReport]:
    """The report of each of ``FAMILIES`` at ``epoch``, under its key."""
    return {key: build_mining_report(store, modality, kind, epoch, cfg)
            for modality, kind, key in FAMILIES}


def _accept(sims: np.ndarray, rho: float, cfg: TrainConfig):
    """Threshold every source's candidates and weight the survivors:
    ``(accepted, thresholds, weights)``."""
    n, n_cand = sims.shape
    if n_cand == 0:
        return np.zeros((n, 0), dtype=bool), [None] * n, np.zeros((n, 0))
    if cfg.use_dts:
        s_max = sims.max(axis=1)
        threshold = rho * s_max
        # a non-positive best would invert the meaning of rho * s_max
        accepted = (sims >= threshold[:, None]) & (s_max > 0.0)[:, None]
        thresholds = threshold.tolist()
    else:
        accepted = sims >= cfg.fixed_threshold
        thresholds = [cfg.fixed_threshold] * n

    # sources with k survivors share one (n_k, k) softmax
    weights = np.zeros_like(sims)
    counts = accepted.sum(axis=1)
    for k in sorted(set(counts.tolist()) - {0}):
        rows = np.flatnonzero(counts == k)
        mask = accepted[rows]
        block = weights[rows]
        if cfg.use_swa:
            block[mask] = soft_weights(sims[rows][mask].reshape(-1, k), cfg.weight_temp).ravel()
        else:
            block[mask] = 1.0 / k
        weights[rows] = block
    return accepted, thresholds, weights


def mine_positive_sets(
    store: PrototypeStore,
    source_modality: Modality,
    kind: PositiveKind,
    epoch: int,
    cfg: TrainConfig,
) -> list[WeightedPositiveSet]:
    """Weighted positive sets for every source prototype, in store order."""
    return build_mining_report(store, source_modality, kind, epoch, cfg).positive_sets()
