"""Training loop: per epoch, freeze the encoder, rebuild prototypes, mine
positives once, draw and plan the epoch's batches, then iterate them with
SGD and EMA memory updates. The frame table and the prototype store are
built once per run.

Each epoch overwrites every row of the store with the frozen encoder's
prototypes; nothing leaks across epochs except the encoder parameters.
Ground-truth labels never influence the optimization path; they feed
diagnostics only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .datamodel import Dataset, Modality, PrototypeStore, TrainConfig
from .encoder import EncoderParams, encode, encode_backward, encoder_init
from .evaluator import dataset_labels, mining_quality
from .mining import MiningReport, mine_families, rho_schedule
from .objective import Targets, apply_ema, batch_loss, loss_schedule, plan_batches
from .prototyping import build_prototypes, embed_table, table_of_rows
from .sampler import camera_rows, sample_rows


@dataclass
class OptState:
    """SGD-with-momentum buffers; shapes mirror the encoder parameters."""

    velocity: EncoderParams
    lr: float
    momentum: float = 0.9
    step: int = 0


def sgd_step(params: EncoderParams, grads: EncoderParams, opt: OptState) -> None:
    """v <- mu * v + g; theta <- theta - lr * v."""
    params.check_same_layout(grads)
    params.check_same_layout(opt.velocity)
    v = opt.velocity.flat
    v *= opt.momentum
    v += grads.flat
    params.flat -= opt.lr * v
    opt.step += 1


@dataclass
class TrainResult:
    params: EncoderParams
    store: PrototypeStore
    epochs: list[dict] = field(default_factory=list)


def mined_targets(reports: list[MiningReport], n_rows: int) -> Targets:
    """The accepted targets of every row of an ``n_rows`` store, indexed by
    store row, from reports whose sources are disjoint: per source, its
    accepted columns in camera order, the entry order of ``positive_sets``.
    """
    source, target, weight = [], [], []
    for report in reports:
        i, j = np.nonzero(report.accepted)  # row-major: camera order per source
        source.append(report.source_rows[i])
        target.append(report.target_rows[i, j])
        weight.append(report.weights[i, j])
    source = np.concatenate(source)
    order = np.argsort(source, kind="stable")
    counts = np.bincount(source, minlength=n_rows)
    ptr = np.concatenate(([0], np.cumsum(counts)))
    return Targets(ptr, np.concatenate(target)[order], np.concatenate(weight)[order])


def train(dataset: Dataset, cfg: TrainConfig) -> TrainResult:
    """Run the full schedule; deterministic given ``cfg.seed``. Raises on
    non-finite losses or gradients, naming epoch and iteration."""
    if dataset.is_vis.all() or not dataset.is_vis.any():
        raise ValueError("training requires tracklets in both modalities")

    params = encoder_init(
        d_in=dataset.d_in,
        embed_dim=cfg.embed_dim,
        ffn_dim=cfg.ffn_dim,
        pool_hidden_dim=cfg.pool_hidden_dim,
        n_tte_layers=cfg.n_tte_layers,
        seq_len=cfg.seq_len,
        seed=cfg.seed,
    )
    opt = OptState(velocity=params.zeros_like(), lr=cfg.lr, momentum=cfg.sgd_momentum)
    grads = params.zeros_like()
    gt = dataset_labels(dataset)
    epochs: list[dict] = []
    table = table_of_rows(dataset.frames, dataset.n_frames, cfg)
    cameras = [camera_rows(dataset, m, table.starts, table.k_eff)
               for m in (Modality.VIS, Modality.IR)]
    store = build_prototypes(params, dataset, cfg, table)
    # the one store's row of each tracklet and of each table row, and each
    # row's own prototype as its intra-camera target
    n = len(store)
    tracklet_rows = np.array([store.position(tid) for tid in dataset.tracklet_ids],
                             dtype=np.intp)
    store_rows = tracklet_rows[table.owners]
    own = Targets(np.arange(n + 1), np.arange(n), np.ones(n))

    for epoch in range(cfg.total_epochs):
        opt.lr = cfg.lr * cfg.lr_decay_factor ** (epoch // cfg.lr_decay_every)
        if epoch:
            store.stacked[tracklet_rows] = embed_table(params, table)
        reports = mine_families(store, epoch, cfg)
        intra = mined_targets([reports["vis_intra"], reports["ir_intra"]], len(store))
        cross = mined_targets([reports["vis_cross"], reports["ir_cross"]], len(store))

        # the epoch's batches (a VIS then an IR batch per iteration, as table
        # rows) and, from their sources' store rows, every iteration's plan
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 2, epoch)))
        batches = np.array(
            [sample_rows(rows, cfg, rng) for _ in range(cfg.iters_per_epoch) for rows in cameras],
            dtype=np.intp,
        ).reshape(cfg.iters_per_epoch, 2 * cfg.batch_size)
        active_imcc, active_cm = loss_schedule(epoch, cfg)
        plans = plan_batches(
            store, store_rows[batches], [cfg.batch_size, cfg.batch_size],
            [own, intra if active_imcc else None, cross if active_cm else None],
            [own, intra, cross],
        )

        sums = {"l_ic": 0.0, "l_imcc": 0.0, "l_cm": 0.0, "l_total": 0.0}
        for it, (rows, plan) in enumerate(zip(batches, plans)):
            embeddings, cache = encode(params, table.frames[rows])
            breakdown = batch_loss(embeddings, store, plan, cfg.loss_temp)
            if not math.isfinite(breakdown.l_total):
                raise RuntimeError(
                    f"non-finite loss {breakdown.l_total} at epoch {epoch} iteration {it}"
                )

            grads.flat.fill(0.0)
            encode_backward(params, cache, breakdown.grads, out=grads)
            if not np.isfinite(grads.flat).all():
                raise RuntimeError(f"non-finite gradient at epoch {epoch} iteration {it}")
            sgd_step(params, grads, opt)
            apply_ema(store, embeddings, plan, cfg.ema_momentum)
            for key in ("l_ic", "l_imcc", "l_cm", "l_total"):
                sums[key] += getattr(breakdown, key)

        n_it = max(cfg.iters_per_epoch, 1)
        record = {
            "epoch": epoch,
            "lr": opt.lr,
            "rho": rho_schedule(epoch, cfg),
            "mean_l_ic": sums["l_ic"] / n_it,
            "mean_l_imcc": sums["l_imcc"] / n_it,
            "mean_l_cm": sums["l_cm"] / n_it,
            "mean_l_total": sums["l_total"] / n_it,
            "positive_set_sizes": {
                key: report.mean_positive_set_size for key, report in reports.items()
            },
        }
        if gt is not None:
            record["mining"] = {}
            for key, report in reports.items():
                precision, recall = mining_quality(report, gt)
                record["mining"][key] = {"precision": precision, "recall": recall}
        epochs.append(record)

    return TrainResult(params=params, store=store, epochs=epochs)
