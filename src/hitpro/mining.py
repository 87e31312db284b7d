"""Hierarchical positive mining over a prototype store.

For each source prototype, the best-matching prototype of every other
camera (same modality) or every opposite-modality camera is a candidate;
candidates pass if their similarity clears an instance-adaptive threshold
that decays linearly over training, and survivors get temperature-softmax
weights. Exact search everywhere; store sizes are small by design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .datamodel import (
    Modality,
    PositiveKind,
    PrototypeStore,
    TrainConfig,
    WeightedPositiveSet,
)
from .numerics import stable_softmax


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
    source_modality: Modality
    kind: PositiveKind
    epoch: int
    rows: list[MiningRow] = field(default_factory=list)

    @property
    def mean_positive_set_size(self) -> float:
        if not self.rows:
            return 0.0
        return sum(len(r.accepted) for r in self.rows) / len(self.rows)

    def positive_sets(self) -> list[WeightedPositiveSet]:
        return [
            WeightedPositiveSet(
                source=r.source,
                kind=self.kind,
                entries=tuple((tid, w) for tid, _, w in r.accepted),
            )
            for r in self.rows
        ]

    def to_json(self) -> dict:
        return {
            "source_modality": self.source_modality.value,
            "kind": self.kind.value,
            "epoch": self.epoch,
            "mean_positive_set_size": self.mean_positive_set_size,
            "rows": [
                {
                    "source": r.source,
                    "s_max": r.s_max,
                    "threshold": r.threshold,
                    "candidates": [
                        {"camera": c, "target": t, "sim": s} for c, t, s in r.candidates
                    ],
                    "accepted": [
                        {"target": t, "sim": s, "weight": w} for t, s, w in r.accepted
                    ],
                }
                for r in self.rows
            ],
        }


def build_mining_report(
    store: PrototypeStore,
    source_modality: Modality,
    kind: PositiveKind,
    epoch: int,
    cfg: TrainConfig,
) -> MiningReport:
    """Mine one (source modality, direction) family with full diagnostics.

    Each source row meets each target camera's prototype matrix in one
    matrix-vector product; row norms are taken once per camera.
    """
    report = MiningReport(source_modality=source_modality, kind=kind, epoch=epoch)
    rho = rho_schedule(epoch, cfg)
    target_modality = (
        source_modality if kind is PositiveKind.INTRA_MODAL else source_modality.other
    )
    targets = []
    for cam in store.cameras(target_modality):
        mat = store.matrix(target_modality, cam)
        targets.append((cam, store.ids(target_modality, cam), mat, np.linalg.norm(mat, axis=1)))
    for source_camera in store.cameras(source_modality):
        source_ids = store.ids(source_modality, source_camera)
        for source_id, src in zip(source_ids, store.matrix(source_modality, source_camera)):
            src_norm = float(np.linalg.norm(src))
            candidates: list[tuple[int, str, float]] = []
            for cam, ids, mat, norms in targets:
                if kind is PositiveKind.INTRA_MODAL and cam == source_camera:
                    continue
                sims = (mat @ src) / (norms * src_norm)
                best = int(np.argmax(sims))  # first max wins: lowest index tie-break
                candidates.append((cam, ids[best], float(sims[best])))
            report.rows.append(_mining_row(source_id, candidates, rho, cfg))
    return report


def _mining_row(source_id: str, candidates: list[tuple[int, str, float]],
                rho: float, cfg: TrainConfig) -> MiningRow:
    """Threshold one source's per-camera candidates and weight the survivors."""
    if not candidates:
        return MiningRow(source=source_id, s_max=None, threshold=None,
                         candidates=[], accepted=[])

    s_max = max(sim for _, _, sim in candidates)
    if cfg.use_dts:
        # a non-positive best would invert the meaning of rho * s_max
        threshold = rho * s_max
        if s_max > 0.0:
            survivors = [(tid, sim) for _, tid, sim in candidates if sim >= threshold]
        else:
            survivors = []
    else:
        threshold = cfg.fixed_threshold
        survivors = [(tid, sim) for _, tid, sim in candidates if sim >= threshold]

    accepted = []
    if survivors:
        if cfg.use_swa:
            weights = soft_weights([sim for _, sim in survivors], cfg.weight_temp)
        else:
            weights = np.full(len(survivors), 1.0 / len(survivors))
        accepted = [(tid, sim, float(w)) for (tid, sim), w in zip(survivors, weights)]
    return MiningRow(source=source_id, s_max=s_max, threshold=threshold,
                     candidates=candidates, accepted=accepted)


def mine_positive_sets(
    store: PrototypeStore,
    source_modality: Modality,
    kind: PositiveKind,
    epoch: int,
    cfg: TrainConfig,
) -> list[WeightedPositiveSet]:
    """Weighted positive sets for every source prototype, in store order."""
    return build_mining_report(store, source_modality, kind, epoch, cfg).positive_sets()
