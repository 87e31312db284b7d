"""Prototype-contrastive losses, epoch-gated scheduling, EMA prototype memory.

Prototypes are non-parametric memory: losses differentiate only with respect
to the batch embeddings, and the store evolves exclusively through the EMA
update after each optimizer step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamodel import PrototypeStore, TrainConfig, WeightedPositiveSet
from .numerics import l2_normalize, log_softmax, stable_softmax

# batch item: (embedding, source tracklet_id)
BatchItem = tuple[np.ndarray, str]


@dataclass
class LossBreakdown:
    l_ic: float
    l_imcc: float
    l_cm: float
    l_total: float
    active_imcc: bool
    active_cm: bool
    grads: list[np.ndarray]  # per batch embedding, vis entries then ir entries


def _weighted_alignment_loss(
    batch: list[BatchItem],
    store: PrototypeStore,
    positive_sets: dict[str, WeightedPositiveSet] | None,
    loss_temp: float,
) -> tuple[float, list[np.ndarray]]:
    """Weighted cross entropy toward each accepted target, softmax over the
    target's own camera; embeddings with empty sets contribute zero. With
    ``positive_sets=None`` the one target is the embedding's own prototype,
    at weight 1: the intra-camera loss. Mean over the batch."""
    total = 0.0
    grads = []
    inv_b = 1.0 / len(batch)
    for q, source_id in batch:
        grad = np.zeros_like(q)
        if positive_sets is None:
            entries = ((source_id, 1.0),)
        else:
            wps = positive_sets.get(source_id)
            entries = wps.entries if wps is not None else ()
        for target_id, weight in entries:
            try:
                modality, cam, pos = store.locate(target_id)
            except KeyError as exc:
                raise ValueError(
                    f"{source_id!r} aligns to missing prototype {target_id!r}"
                ) from exc
            mat = store.matrix(modality, cam)
            logits = (mat @ q) / loss_temp
            total += -weight * float(log_softmax(logits)[pos]) * inv_b
            probs = stable_softmax(logits)
            grad += weight * (probs @ mat - mat[pos]) / loss_temp * inv_b
        grads.append(grad)
    return total, grads


def loss_intra_camera(
    batch: list[BatchItem], store: PrototypeStore, loss_temp: float
) -> tuple[float, list[np.ndarray]]:
    """Softmax cross entropy of each embedding against its own camera's
    prototypes, positive at its own prototype; mean over the batch."""
    return _weighted_alignment_loss(batch, store, None, loss_temp)


def loss_imcc(
    batch: list[BatchItem],
    store: PrototypeStore,
    intra_sets: dict[str, WeightedPositiveSet],
    loss_temp: float,
) -> tuple[float, list[np.ndarray]]:
    """Alignment to mined same-modality cross-camera prototypes."""
    return _weighted_alignment_loss(batch, store, intra_sets, loss_temp)


def loss_cross_modal(
    batch: list[BatchItem],
    store: PrototypeStore,
    cross_sets: dict[str, WeightedPositiveSet],
    loss_temp: float,
) -> tuple[float, list[np.ndarray]]:
    """Alignment to mined opposite-modality prototypes."""
    return _weighted_alignment_loss(batch, store, cross_sets, loss_temp)


def total_loss(
    epoch: int,
    vis_batch: list[BatchItem],
    ir_batch: list[BatchItem],
    store: PrototypeStore,
    intra_sets: dict[str, WeightedPositiveSet],
    cross_sets: dict[str, WeightedPositiveSet],
    cfg: TrainConfig,
) -> LossBreakdown:
    """Sum each term over both modality batches, gated by epoch schedule.

    Inactive terms are skipped entirely, so values and gradients are
    bitwise identical to the intra-camera loss alone before the schedule
    admits the other terms.
    """
    active_imcc = cfg.use_imcc and (not cfg.use_hls or epoch >= cfg.intra_start_epoch)
    active_cm = cfg.use_cm and (not cfg.use_hls or epoch >= cfg.cross_start_epoch)

    batches = [b for b in (vis_batch, ir_batch) if b]
    values = []
    grads: list[np.ndarray] = []
    for positive_sets, active in ((None, True), (intra_sets, active_imcc), (cross_sets, active_cm)):
        value = 0.0
        if active:
            term_grads = []
            for batch in batches:
                v, g = _weighted_alignment_loss(batch, store, positive_sets, cfg.loss_temp)
                value += v
                term_grads.extend(g)
            grads = [a + b for a, b in zip(grads, term_grads)] if grads else term_grads
        values.append(value)

    l_ic, l_imcc, l_cm = values
    return LossBreakdown(
        l_ic=l_ic,
        l_imcc=l_imcc,
        l_cm=l_cm,
        l_total=l_ic + l_imcc + l_cm,
        active_imcc=active_imcc,
        active_cm=active_cm,
        grads=grads,
    )


def ema_update(
    store: PrototypeStore,
    batch: list[BatchItem],
    intra_sets: dict[str, WeightedPositiveSet],
    cross_sets: dict[str, WeightedPositiveSet],
    momentum: float,
) -> None:
    """p <- (1 - momentum) * p + momentum * q, then re-normalize.

    Each embedding updates its own prototype plus every accepted intra- and
    cross-modal target, in batch order, in place in the store's matrices.
    """
    for q, source_id in batch:
        targets = [source_id]
        for sets in (intra_sets, cross_sets):
            wps = sets.get(source_id)
            if wps is not None:
                targets.extend(wps.target_ids)
        for tid in targets:
            modality, cam, row = store.locate(tid)
            mat = store.matrix(modality, cam)
            mat[row] = l2_normalize((1.0 - momentum) * mat[row] + momentum * q)
