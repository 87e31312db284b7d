"""Prototype-contrastive losses, epoch-gated scheduling, EMA prototype memory.

Prototypes are non-parametric memory: losses differentiate only with respect
to the batch embeddings, and the store evolves exclusively through the EMA
update after each optimizer step.

Which prototype rows a batch's losses and EMA update touch depends only on
the batch's source tracklets and the epoch's positive sets, not on the
embeddings. :func:`plan_batches` therefore turns a whole epoch of sampled
batches into :class:`BatchPlan` index arrays at once, and each iteration's
:func:`batch_loss` and :func:`apply_ema` run only numeric kernels on them.
The per-batch functions (:func:`total_loss`, the ``loss_*`` terms and
:func:`ema_update`) plan their one batch the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .datamodel import PrototypeStore, TrainConfig, WeightedPositiveSet
from .numerics import normalize_rows, softmax_and_log

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


class Targets(NamedTuple):
    """Per source ``s``, its targets in entry order: rows
    ``rows[ptr[s]:ptr[s + 1]]`` of ``store.stacked`` and their weights."""

    ptr: np.ndarray
    rows: np.ndarray
    weights: np.ndarray


class CameraEntries(NamedTuple):
    """One batch's loss entries aimed at one camera, the block ``lo:hi`` of
    ``store.stacked``; one array element per entry."""

    lo: int
    hi: int
    items: np.ndarray  # the entry's batch embedding
    rows: np.ndarray  # its target's row in the camera block
    weights: np.ndarray
    scales: np.ndarray  # 1 / size of the entry's batch
    value_slots: np.ndarray  # into the flattened value buffer
    grad_slots: np.ndarray  # into the flattened gradient buffer


@dataclass(frozen=True)
class BatchPlan:
    """One iteration's loss entries and EMA waves.

    A loss entry is one (batch item, accepted target) pair of an active
    term. Its value goes to slot ``(term, batch, 1 + its place among the
    term's entries for that batch)`` of a zero ``value_shape`` buffer, and
    its gradient row to slot ``(term, 1 + rank in the item's positive set,
    item)`` of a zero ``grad_shape`` buffer. EMA wave ``k`` holds the
    ``k``-th blend of every prototype the batch updates, as ``(rows of
    store.stacked, items)``.
    """

    active: tuple[bool, bool, bool]  # intra-camera, cross-camera, cross-modality
    cameras: list[CameraEntries]
    value_shape: tuple[int, int, int]  # (terms, batches, longest run + 1)
    grad_shape: tuple[int, int, int]  # (terms, ranks + 1, items)
    waves: list[tuple[np.ndarray, np.ndarray]]


def loss_schedule(epoch: int, cfg: TrainConfig) -> tuple[bool, bool]:
    """Whether the cross-camera and the cross-modality term are active at
    ``epoch``; the intra-camera term always is."""
    return (
        cfg.use_imcc and (not cfg.use_hls or epoch >= cfg.intra_start_epoch),
        cfg.use_cm and (not cfg.use_hls or epoch >= cfg.cross_start_epoch),
    )


def positive_targets(
    store: PrototypeStore,
    source_ids: list[str],
    positive_sets: dict[str, WeightedPositiveSet] | None = None,
) -> Targets:
    """Each source's accepted targets. ``positive_sets`` None gives every
    source one target, its own prototype, at weight 1: the intra-camera
    loss's target. A target absent from the store raises ValueError."""
    ptr, rows, weights = [0], [], []
    for source_id in source_ids:
        if positive_sets is None:
            entries = ((source_id, 1.0),)
        else:
            wps = positive_sets.get(source_id)
            entries = wps.entries if wps is not None else ()
        for target_id, weight in entries:
            try:
                rows.append(store.position(target_id))
            except KeyError as exc:
                raise ValueError(
                    f"{source_id!r} aligns to missing prototype {target_id!r}"
                ) from exc
            weights.append(weight)
        ptr.append(len(rows))
    return Targets(np.array(ptr, dtype=np.intp), np.array(rows, dtype=np.intp),
                   np.array(weights, dtype=np.float64))


def _entries(terms: list[Targets], sources: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(term, item, rank, row, weight)`` of every entry of every item of
    the flat ``sources``, term by term, item by item, in entry order."""
    columns = [np.empty(0, dtype=np.intp)] * 4 + [np.empty(0)]
    for t, targets in enumerate(terms):
        first = targets.ptr[sources]
        counts = targets.ptr[sources + 1] - first
        item = np.repeat(np.arange(sources.size), counts)
        rank = np.arange(item.size) - (np.cumsum(counts) - counts)[item]
        at = first[item] + rank
        part = (np.full(item.size, t), item, rank, targets.rows[at], targets.weights[at])
        columns = [np.concatenate(pair) for pair in zip(columns, part)]
    return tuple(columns)


def _runs(key: np.ndarray) -> list[tuple[int, int]]:
    """``(start, stop)`` of each run of equal values in ``key``."""
    cuts = (np.flatnonzero(key[1:] != key[:-1]) + 1).tolist()
    return list(zip([0] + cuts, cuts + [key.size])) if key.size else []


def plan_batches(
    store: PrototypeStore,
    sources: np.ndarray,
    batch_sizes: list[int],
    loss_terms: list[Targets | None],
    ema_terms: list[Targets],
) -> list[BatchPlan]:
    """Plan ``len(sources)`` iterations at once.

    ``sources[i, j]`` is the source index (into the :class:`Targets`) of
    item ``j`` of iteration ``i``; the items are the batches of
    ``batch_sizes``, in order. ``loss_terms`` holds the intra-camera,
    cross-camera and cross-modality term's targets, None for an inactive
    term. ``ema_terms`` holds the targets each embedding blends into, in
    blend order.
    """
    n_iters, n_items = sources.shape
    flat = sources.reshape(-1)
    bounds = store.block_bounds
    n_batches = len(batch_sizes)
    cameras: list[list[CameraEntries]] = [[] for _ in range(n_iters)]
    waves: list[list[tuple[np.ndarray, np.ndarray]]] = [[] for _ in range(n_iters)]

    # loss entries in loop order: iteration, term, item, rank
    active = [targets for targets in loss_terms if targets is not None]
    term, owner, rank, target, weight = _entries(active, flat)
    order = np.argsort(owner // n_items * len(active) + term, kind="stable")
    term, owner, rank, target, weight = (a[order] for a in (term, owner, rank, target, weight))
    it, item = np.divmod(owner, n_items)
    batch = np.repeat(np.arange(n_batches), batch_sizes)[item]
    run = (it * len(active) + term) * n_batches + batch
    place = np.arange(run.size) - np.searchsorted(run, run)
    run_len = int(place.max(initial=-1)) + 1
    n_ranks = int(rank.max(initial=-1)) + 1
    value_slot = (term * n_batches + batch) * (run_len + 1) + place + 1
    grad_slot = (term * (n_ranks + 1) + rank + 1) * n_items + item
    scale = np.array([1.0 / n if n else 0.0 for n in batch_sizes])[batch]
    block = np.searchsorted(bounds, target, side="right") - 1
    row = target - bounds[block]
    order = np.lexsort((block, it))
    columns = [a[order] for a in (item, row, weight, scale, value_slot, grad_slot)]
    it, block = it[order], block[order]
    for a, b in _runs(it * len(bounds) + block):
        lo, hi = int(bounds[block[a]]), int(bounds[block[a] + 1])
        cameras[it[a]].append(CameraEntries(lo, hi, *(c[a:b] for c in columns)))

    # EMA blends in loop order: iteration, item, term, rank; wave k of an
    # iteration holds each prototype's k-th blend
    term, owner, _, target, _ = _entries(ema_terms, flat)
    order = np.argsort(owner * len(ema_terms) + term, kind="stable")
    owner, target = owner[order], target[order]
    it, item = np.divmod(owner, n_items)
    hits = it * len(store.stacked) + target
    by_hit = np.argsort(hits, kind="stable")
    wave = np.empty_like(hits)
    wave[by_hit] = np.arange(hits.size) - np.searchsorted(hits[by_hit], hits[by_hit])
    order = np.lexsort((wave, it))
    it, wave, target, item = it[order], wave[order], target[order], item[order]
    for a, b in _runs(it * (int(wave.max(initial=0)) + 1) + wave):
        waves[it[a]].append((target[a:b], item[a:b]))

    value_shape = (len(active), n_batches, run_len + 1)
    grad_shape = (len(active), n_ranks + 1, n_items)
    flags = tuple(targets is not None for targets in loss_terms)
    return [BatchPlan(flags, cameras[i], value_shape, grad_shape, waves[i])
            for i in range(n_iters)]


def batch_loss(
    queries: np.ndarray, store: PrototypeStore, plan: BatchPlan, loss_temp: float
) -> LossBreakdown:
    """The planned batch's active terms, each summed over the batches, and
    their summed ``(B, d)`` gradient; inactive terms are 0.

    Each term is a weighted cross entropy toward each accepted target, with
    the softmax over the target's own camera, averaged within each batch;
    items with empty positive sets contribute zero. All entries aimed at
    one camera share one stacked matrix-vector product ``mat @
    Q[:, :, None]``, per entry the same BLAS call as ``mat @ q``. Running
    sums along the buffers add each batch's values and each item's
    gradient rows in entry order from 0, so every term matches a loop over
    its entries bit for bit.
    """
    values = np.zeros(plan.value_shape)
    grads = np.zeros(plan.grad_shape + queries.shape[1:])
    flat_values = values.reshape(-1)
    flat_grads = grads.reshape(math.prod(plan.grad_shape), queries.shape[1])
    stacked = store.stacked
    for cam in plan.cameras:
        mat = stacked[cam.lo : cam.hi]
        logits = (mat @ queries[cam.items, :, None])[:, :, 0] / loss_temp
        probs, log_probs = softmax_and_log(logits)
        picked = log_probs[np.arange(len(cam.rows)), cam.rows]
        flat_values[cam.value_slots] = -cam.weights * picked * cam.scales
        pulled = (probs[:, None, :] @ mat)[:, 0, :]
        flat_grads[cam.grad_slots] = (
            cam.weights[:, None] * (pulled - mat[cam.rows]) / loss_temp * cam.scales[:, None]
        )
    term_values = iter(np.add.accumulate(values, axis=2)[:, :, -1].tolist())
    summed = grads[:, 0]
    for rank in range(1, plan.grad_shape[1]):  # a Python loop: accumulate on axis 1 is slow
        summed = summed + grads[:, rank]
    term_grads = iter(summed)

    losses = []
    total_grads = None
    for active in plan.active:
        value = 0.0
        if active:
            for v in next(term_values):  # not sum(): its float summation varies by Python version
                value += v
            g = next(term_grads)
            total_grads = g if total_grads is None else total_grads + g
        losses.append(value)
    l_ic, l_imcc, l_cm = losses
    return LossBreakdown(
        l_ic=l_ic,
        l_imcc=l_imcc,
        l_cm=l_cm,
        l_total=l_ic + l_imcc + l_cm,
        active_imcc=plan.active[1],
        active_cm=plan.active[2],
        grads=total_grads,
    )


def apply_ema(
    store: PrototypeStore, queries: np.ndarray, plan: BatchPlan, momentum: float
) -> None:
    """p <- (1 - momentum) * p + momentum * q, then re-normalize, for every
    planned blend, in place in the store's stacked matrix.

    Wave ``k`` applies the ``k``-th blend of every prototype in one
    vectorised step (its rows are distinct), so a prototype hit several
    times blends in batch order.
    """
    stacked = store.stacked
    for rows, items in plan.waves:
        stacked[rows] = normalize_rows((1.0 - momentum) * stacked[rows] + momentum * queries[items])


def _plan_one(
    store: PrototypeStore,
    batches: list[list[BatchItem]],
    loss_sets: dict[int, dict[str, WeightedPositiveSet] | None],
    ema_sets: tuple = (),
) -> tuple[np.ndarray, BatchPlan]:
    """Queries and the plan of one iteration of ``batches``. ``loss_sets``
    maps each active term (0 intra-camera, 1 cross-camera, 2
    cross-modality) to its positive sets, None for the intra-camera term."""
    items = [item for batch in batches for item in batch]
    ids = [source_id for _, source_id in items]
    queries = np.stack([q for q, _ in items]) if items else np.zeros((0, 0))
    loss_terms = [positive_targets(store, ids, loss_sets[t]) if t in loss_sets else None
                  for t in range(3)]
    ema_terms = [positive_targets(store, ids, sets) for sets in ema_sets]
    [plan] = plan_batches(store, np.arange(len(items))[None], [len(b) for b in batches],
                          loss_terms, ema_terms)
    return queries, plan


def _one_term(batch, store, term, positive_sets, loss_temp) -> tuple[float, np.ndarray]:
    queries, plan = _plan_one(store, [batch], {term: positive_sets})
    breakdown = batch_loss(queries, store, plan, loss_temp)
    return (breakdown.l_ic, breakdown.l_imcc, breakdown.l_cm)[term], breakdown.grads


def loss_intra_camera(
    batch: list[BatchItem], store: PrototypeStore, loss_temp: float
) -> tuple[float, np.ndarray]:
    """Softmax cross entropy of each embedding against its own camera's
    prototypes, positive at its own prototype; mean over the batch."""
    return _one_term(batch, store, 0, None, loss_temp)


def loss_imcc(
    batch: list[BatchItem],
    store: PrototypeStore,
    intra_sets: dict[str, WeightedPositiveSet],
    loss_temp: float,
) -> tuple[float, np.ndarray]:
    """Alignment to mined same-modality cross-camera prototypes."""
    return _one_term(batch, store, 1, intra_sets, loss_temp)


def loss_cross_modal(
    batch: list[BatchItem],
    store: PrototypeStore,
    cross_sets: dict[str, WeightedPositiveSet],
    loss_temp: float,
) -> tuple[float, np.ndarray]:
    """Alignment to mined opposite-modality prototypes."""
    return _one_term(batch, store, 2, cross_sets, loss_temp)


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
    active_imcc, active_cm = loss_schedule(epoch, cfg)
    loss_sets = {0: None}
    if active_imcc:
        loss_sets[1] = intra_sets
    if active_cm:
        loss_sets[2] = cross_sets
    queries, plan = _plan_one(store, [b for b in (vis_batch, ir_batch) if b], loss_sets)
    return batch_loss(queries, store, plan, cfg.loss_temp)


def ema_update(
    store: PrototypeStore,
    batch: list[BatchItem],
    intra_sets: dict[str, WeightedPositiveSet],
    cross_sets: dict[str, WeightedPositiveSet],
    momentum: float,
) -> None:
    """:func:`apply_ema` of one batch: each embedding updates its own
    prototype plus every accepted intra- and cross-modal target."""
    if not batch:
        return
    queries, plan = _plan_one(store, [batch], {}, (None, intra_sets, cross_sets))
    apply_ema(store, queries, plan, momentum)
