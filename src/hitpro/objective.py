"""Prototype-contrastive losses, epoch-gated scheduling, EMA prototype memory.

Prototypes are non-parametric memory: losses differentiate only with respect
to the batch embeddings, and the store evolves exclusively through the EMA
update after each optimizer step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamodel import PrototypeStore, TrainConfig, WeightedPositiveSet
from .numerics import log_softmax, stable_softmax

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
    grads: np.ndarray  # (B, d): one row per batch embedding, vis entries then ir entries


def _alignment_losses(
    batches: list[list[BatchItem]],
    store: PrototypeStore,
    terms: list[dict[str, WeightedPositiveSet] | None],
    loss_temp: float,
) -> list[tuple[list[float], np.ndarray]]:
    """Weighted cross entropy toward each accepted target, softmax over the
    target's own camera; embeddings with empty sets contribute zero. A term
    of ``None`` has one target, the embedding's own prototype, at weight 1:
    the intra-camera loss. Mean within each batch.

    Returns, per term, each batch's loss and a ``(B, d)`` gradient, one row
    per embedding of the concatenated batches. All entries aimed at one
    camera, whatever their term, share one stacked matrix-vector product
    ``mat @ Q[:, :, None]``, per entry the same BLAS call as ``mat @ q``.
    Each gradient row adds its term's entries in entry order and each
    batch's loss sums them in item order, so every term matches a loop
    over its entries bit for bit.
    """
    items = [item for batch in batches for item in batch]
    if not items:
        return [([0.0] * len(batches), np.zeros((0, 0))) for _ in terms]
    queries = np.stack([q for q, _ in items])
    inv_b = [1.0 / len(batch) for batch in batches for _ in batch]
    batch_of = [b for b, batch in enumerate(batches) for _ in batch]
    entry_item: list[int] = []
    entry_rank: list[int] = []
    entry_weight: list[float] = []
    term_ends: list[int] = []
    by_camera: dict[tuple, tuple[list[int], list[int]]] = {}  # -> (entries, rows)
    for positive_sets in terms:
        for i, (_, source_id) in enumerate(items):
            if positive_sets is None:
                entries = ((source_id, 1.0),)
            else:
                wps = positive_sets.get(source_id)
                entries = wps.entries if wps is not None else ()
            for rank, (target_id, weight) in enumerate(entries):
                try:
                    modality, cam, row = store.locate(target_id)
                except KeyError as exc:
                    raise ValueError(
                        f"{source_id!r} aligns to missing prototype {target_id!r}"
                    ) from exc
                members, rows = by_camera.setdefault((modality, cam), ([], []))
                members.append(len(entry_item))
                rows.append(row)
                entry_item.append(i)
                entry_rank.append(rank)
                entry_weight.append(weight)
        term_ends.append(len(entry_item))

    entry_items = np.array(entry_item, dtype=np.intp)
    weights = np.array(entry_weight, dtype=np.float64)
    scale = np.array(inv_b)[entry_items]
    values = np.empty(len(entry_item))
    contrib = np.empty((len(entry_item), queries.shape[1]))
    for key, (members, rows) in by_camera.items():
        mat = store.matrix(*key)
        w, s = weights[members], scale[members]
        logits = (mat @ queries[entry_items[members], :, None])[:, :, 0] / loss_temp
        values[members] = -w * log_softmax(logits)[np.arange(len(rows)), rows] * s
        pulled = (stable_softmax(logits)[:, None, :] @ mat)[:, 0, :]
        contrib[members] = w[:, None] * (pulled - mat[rows]) / loss_temp * s[:, None]

    results = []
    values_list = values.tolist()
    ranks = np.array(entry_rank, dtype=np.intp)
    start = 0
    for end in term_ends:
        grads = np.zeros_like(queries)
        term_ranks = ranks[start:end]
        for rank in range(int(term_ranks.max(initial=-1)) + 1):
            at_rank = start + np.flatnonzero(term_ranks == rank)  # one entry per item
            grads[entry_items[at_rank]] += contrib[at_rank]
        totals = [0.0] * len(batches)
        for i, value in zip(entry_item[start:end], values_list[start:end]):
            totals[batch_of[i]] += value
        results.append((totals, grads))
        start = end
    return results


def loss_intra_camera(
    batch: list[BatchItem], store: PrototypeStore, loss_temp: float
) -> tuple[float, np.ndarray]:
    """Softmax cross entropy of each embedding against its own camera's
    prototypes, positive at its own prototype; mean over the batch."""
    [(values, grads)] = _alignment_losses([batch], store, [None], loss_temp)
    return values[0], grads


def loss_imcc(
    batch: list[BatchItem],
    store: PrototypeStore,
    intra_sets: dict[str, WeightedPositiveSet],
    loss_temp: float,
) -> tuple[float, np.ndarray]:
    """Alignment to mined same-modality cross-camera prototypes."""
    [(values, grads)] = _alignment_losses([batch], store, [intra_sets], loss_temp)
    return values[0], grads


def loss_cross_modal(
    batch: list[BatchItem],
    store: PrototypeStore,
    cross_sets: dict[str, WeightedPositiveSet],
    loss_temp: float,
) -> tuple[float, np.ndarray]:
    """Alignment to mined opposite-modality prototypes."""
    [(values, grads)] = _alignment_losses([batch], store, [cross_sets], loss_temp)
    return values[0], grads


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
    admits the other terms. The active terms share one pass over the
    target cameras.
    """
    active_imcc = cfg.use_imcc and (not cfg.use_hls or epoch >= cfg.intra_start_epoch)
    active_cm = cfg.use_cm and (not cfg.use_hls or epoch >= cfg.cross_start_epoch)

    batches = [b for b in (vis_batch, ir_batch) if b]
    actives = (True, active_imcc, active_cm)
    terms = [sets for sets, active in zip((None, intra_sets, cross_sets), actives) if active]
    losses = iter(_alignment_losses(batches, store, terms, cfg.loss_temp))
    values = []
    grads = None
    for active in actives:
        value = 0.0
        if active:
            batch_values, term_grads = next(losses)
            for v in batch_values:  # not sum(): its float summation varies by Python version
                value += v
            grads = term_grads if grads is None else grads + term_grads
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
    cross-modal target, in place in the store's matrices. A prototype hit
    several times blends its updates in batch order: wave ``k`` applies the
    ``k``-th update of every prototype in one vectorised step on the store's
    stacked matrix, so the rows of one step are distinct.
    """
    if not batch:
        return
    queries = np.stack([q for q, _ in batch])
    hits: dict[int, int] = {}
    waves: list[tuple[list[int], list[int]]] = []  # (store rows, batch items)
    for i, (_, source_id) in enumerate(batch):
        targets = [source_id]
        for sets in (intra_sets, cross_sets):
            wps = sets.get(source_id)
            if wps is not None:
                targets.extend(wps.target_ids)
        for tid in targets:
            row = store.position(tid)
            wave = hits.get(row, 0)
            hits[row] = wave + 1
            if wave == len(waves):
                waves.append(([], []))
            waves[wave][0].append(row)
            waves[wave][1].append(i)
    stacked = store.stacked
    for rows, members in waves:
        blended = (1.0 - momentum) * stacked[rows] + momentum * queries[members]
        # the dot np.linalg.norm takes, one row at a time
        norms = np.sqrt(blended[:, None, :] @ blended[:, :, None])[:, :, 0]
        if not norms.all():
            raise ValueError("cannot normalize a zero vector")
        stacked[rows] = blended / norms
