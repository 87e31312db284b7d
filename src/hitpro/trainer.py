"""Training loop: per epoch, freeze the encoder, rebuild prototypes, mine
positives once, then iterate batches with SGD and EMA memory updates.

Stores are rebuilt from scratch every epoch; nothing leaks across epochs
except the encoder parameters. Ground-truth labels never influence the
optimization path; they feed diagnostics only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .datamodel import Dataset, Modality, PositiveKind, PrototypeStore, TrainConfig
from .encoder import EncoderParams, encode, encode_backward, encoder_init, select_frames
from .evaluator import dataset_labels, mining_quality
from .mining import MiningReport, build_mining_report, rho_schedule
from .objective import ema_update, total_loss
from .prototyping import build_prototypes, partition_tracklet
from .sampler import sample_batch


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


_FAMILY_KEYS = (
    (Modality.VIS, PositiveKind.INTRA_MODAL, "vis_intra"),
    (Modality.IR, PositiveKind.INTRA_MODAL, "ir_intra"),
    (Modality.VIS, PositiveKind.CROSS_MODAL, "vis_cross"),
    (Modality.IR, PositiveKind.CROSS_MODAL, "ir_cross"),
)


def train(dataset: Dataset, cfg: TrainConfig) -> TrainResult:
    """Run the full schedule; deterministic given ``cfg.seed``. Raises on
    non-finite losses or gradients, naming epoch and iteration."""
    if not dataset.by_modality(Modality.VIS) or not dataset.by_modality(Modality.IR):
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
    gt = dataset_labels(dataset)
    epochs: list[dict] = []
    store = None

    for epoch in range(cfg.total_epochs):
        partitions = {
            t.tracklet_id: partition_tracklet(t, cfg.n_subtracklets) for t in dataset.tracklets
        }
        opt.lr = cfg.lr * cfg.lr_decay_factor ** (epoch // cfg.lr_decay_every)
        store = build_prototypes(params, dataset, cfg)

        reports: dict[str, MiningReport] = {}
        intra_sets = {}
        cross_sets = {}
        for modality, kind, key in _FAMILY_KEYS:
            report = build_mining_report(store, modality, kind, epoch, cfg)
            reports[key] = report
            dest = intra_sets if kind is PositiveKind.INTRA_MODAL else cross_sets
            for wps in report.positive_sets():
                dest[wps.source] = wps

        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 2, epoch)))
        sums = {"l_ic": 0.0, "l_imcc": 0.0, "l_cm": 0.0, "l_total": 0.0}
        for it in range(cfg.iters_per_epoch):
            vis_spec = sample_batch(dataset, Modality.VIS, partitions, cfg, rng)
            ir_spec = sample_batch(dataset, Modality.IR, partitions, cfg, rng)
            entries = vis_spec.entries + ir_spec.entries
            embeddings, cache = encode(params, np.stack([
                select_frames(sub.slice_frames(dataset.get(source_id)), cfg.seq_len)
                for sub, source_id in entries
            ]))
            items = [(emb, source_id) for emb, (_, source_id) in zip(embeddings, entries)]
            vis_items, ir_items = items[: len(vis_spec)], items[len(vis_spec) :]

            breakdown = total_loss(
                epoch, vis_items, ir_items, store, intra_sets, cross_sets, cfg
            )
            if not math.isfinite(breakdown.l_total):
                raise RuntimeError(
                    f"non-finite loss {breakdown.l_total} at epoch {epoch} iteration {it}"
                )

            grads = encode_backward(params, cache, breakdown.grads)
            if not np.isfinite(grads.flat).all():
                raise RuntimeError(f"non-finite gradient at epoch {epoch} iteration {it}")
            sgd_step(params, grads, opt)
            ema_update(store, items, intra_sets, cross_sets, cfg.ema_momentum)
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
                key: reports[key].mean_positive_set_size for _, _, key in _FAMILY_KEYS
            },
        }
        if gt is not None:
            record["mining"] = {}
            for _, _, key in _FAMILY_KEYS:
                precision, recall = mining_quality(reports[key], gt)
                record["mining"][key] = {"precision": precision, "recall": recall}
        epochs.append(record)

    if store is None:  # no epoch ran: the initial encoder's prototypes
        store = build_prototypes(params, dataset, cfg)
    return TrainResult(params=params, store=store, epochs=epochs)
