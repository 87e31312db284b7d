import math
from pathlib import Path

import numpy as np
import pytest

import hitpro.trainer as trainer_mod
from hitpro.datamodel import (
    Modality, PositiveKind, Prototype, PrototypeStore, TrainConfig, save_checkpoint,
)
from hitpro.encoder import encoder_init
from hitpro.mining import build_mining_report, mine_positive_sets
from hitpro.objective import LossBreakdown, plan_batches, positive_targets
from hitpro.synthgen import GenConfig, generate_dataset
from hitpro.trainer import OptState, TrainResult, sgd_step, train


def tiny_dataset(seed=0, noise=True):
    return generate_dataset(
        GenConfig(
            n_identities=6, cams_vis=2, cams_ir=2, d_in=6, d_latent=3,
            tracklets_per_identity_per_camera=1, frame_len_min=4, frame_len_max=8,
            camera_offset_scale=0.2 if noise else 0.0,
            modality_transform_scale=0.3 if noise else 0.0,
            frame_noise=0.1 if noise else 0.0,
            walk_step=0.05 if noise else 0.0,
            seed=seed,
        )
    )


def tiny_cfg(**kw):
    base = dict(
        d_in=6, embed_dim=8, ffn_dim=16, pool_hidden_dim=8, n_tte_layers=1,
        seq_len=3, n_subtracklets=2, total_epochs=2, iters_per_epoch=2,
        intra_start_epoch=1, cross_start_epoch=2, lr=0.01, seed=0,
        batch_cameras=2, batch_tracklets=2, batch_subs=2,
    )
    base.update(kw)
    return TrainConfig(**base)


def small_params(seed=0):
    return encoder_init(4, 8, 16, 8, n_tte_layers=0, seq_len=3, seed=seed)


def test_sgd_zero_grad_no_change():
    params = small_params()
    before = {n: a.copy() for n, a in params.named_arrays()}
    opt = OptState(velocity=params.zeros_like(), lr=0.1, momentum=0.9)
    sgd_step(params, params.zeros_like(), opt)
    for name, arr in params.named_arrays():
        np.testing.assert_array_equal(arr, before[name])


def test_sgd_no_momentum_is_plain_descent():
    params = small_params()
    before = params.copy()
    grads = params.zeros_like()
    for _, g in grads.named_arrays():
        g += 1.0
    opt = OptState(velocity=params.zeros_like(), lr=0.25, momentum=0.0)
    sgd_step(params, grads, opt)
    for (name, arr), (_, prev) in zip(params.named_arrays(), before.named_arrays()):
        np.testing.assert_allclose(arr, prev - 0.25 * 1.0, err_msg=name)


def test_sgd_momentum_two_step_unroll():
    # constant gradient, mu=0.9: decrements lr*g then 1.9*lr*g (2.9 total)
    params = small_params()
    before = params.copy()
    grads = params.zeros_like()
    for _, g in grads.named_arrays():
        g += 2.0
    opt = OptState(velocity=params.zeros_like(), lr=0.1, momentum=0.9)
    sgd_step(params, grads, opt)
    sgd_step(params, grads, opt)
    for (name, arr), (_, prev) in zip(params.named_arrays(), before.named_arrays()):
        np.testing.assert_allclose(arr, prev - 0.1 * 2.0 * 2.9, atol=1e-12, err_msg=name)
    assert opt.step == 2


def test_sgd_shape_mismatch_rejected():
    params = small_params()
    other = encoder_init(4, 8, 16, 8, n_tte_layers=1, seq_len=3, seed=0)
    opt = OptState(velocity=params.zeros_like(), lr=0.1)
    with pytest.raises(ValueError):
        sgd_step(params, other.zeros_like(), opt)


def test_zero_epochs_returns_initialized_state(tmp_path):
    ds = tiny_dataset()
    cfg = tiny_cfg(total_epochs=0, intra_start_epoch=0, cross_start_epoch=0)
    result = train(ds, cfg)
    assert result.epochs == []
    fresh = encoder_init(
        d_in=6, embed_dim=8, ffn_dim=16, pool_hidden_dim=8, n_tte_layers=1,
        seq_len=3, seed=cfg.seed,
    )
    for (name, arr), (_, init) in zip(result.params.named_arrays(), fresh.named_arrays()):
        np.testing.assert_array_equal(arr, init, err_msg=name)
    # checkpoint still serializable: store was built from the fresh encoder
    save_checkpoint(result.params, result.store, 0, tmp_path / "c.hpt")


def _checkpoint_bytes(result: TrainResult, cfg, path: Path) -> bytes:
    save_checkpoint(result.params, result.store, cfg.total_epochs, path)
    return path.read_bytes()


def test_same_seed_bitwise_identical(tmp_path):
    ds = tiny_dataset()
    cfg = tiny_cfg()
    a = _checkpoint_bytes(train(ds, cfg), cfg, tmp_path / "a.hpt")
    b = _checkpoint_bytes(train(ds, cfg), cfg, tmp_path / "b.hpt")
    assert a == b
    c = _checkpoint_bytes(train(ds, cfg.with_overrides(seed=1)), cfg, tmp_path / "c.hpt")
    assert a != c


def test_training_blind_to_labels(tmp_path):
    # stripping gt_identity must not change the optimization path at all
    ds = tiny_dataset()
    stripped = type(ds)(
        d_in=ds.d_in,
        n_cameras_vis=ds.n_cameras_vis,
        n_cameras_ir=ds.n_cameras_ir,
        tracklets=tuple(
            type(t)(
                tracklet_id=t.tracklet_id, modality=t.modality,
                camera_id=t.camera_id, frames=t.frames, gt_identity=None,
            )
            for t in ds.tracklets
        ),
    )
    cfg = tiny_cfg()
    labeled = train(ds, cfg)
    blind = train(stripped, cfg)
    a = _checkpoint_bytes(labeled, cfg, tmp_path / "a.hpt")
    b = _checkpoint_bytes(blind, cfg, tmp_path / "b.hpt")
    assert a == b
    assert "mining" in labeled.epochs[0]
    assert "mining" not in blind.epochs[0]


def test_core_modules_never_read_labels():
    # labels may flow only through evaluator (and synthgen, which writes them)
    import inspect

    import hitpro.encoder
    import hitpro.mining
    import hitpro.objective
    import hitpro.prototyping
    import hitpro.sampler
    import hitpro.trainer

    for module in (
        hitpro.encoder, hitpro.mining, hitpro.objective,
        hitpro.prototyping, hitpro.sampler, hitpro.trainer,
    ):
        assert "gt_identity" not in inspect.getsource(module), module.__name__


@pytest.mark.parametrize("total_epochs", [0, 1, 3])
def test_train_builds_one_store_per_run(monkeypatch, total_epochs):
    built = []
    fill = PrototypeStore._fill

    def counted(store, *args):
        built.append(store)
        fill(store, *args)

    monkeypatch.setattr(PrototypeStore, "_fill", counted)
    result = train(tiny_dataset(), tiny_cfg(total_epochs=total_epochs, cross_start_epoch=0,
                                            intra_start_epoch=0))
    assert len(built) == 1 and built[0] is result.store


def test_hls_logs_zero_before_activation():
    ds = tiny_dataset()
    cfg = tiny_cfg(total_epochs=3, intra_start_epoch=2, cross_start_epoch=3)
    result = train(ds, cfg)
    for record in result.epochs:
        if record["epoch"] < 2:
            assert record["mean_l_imcc"] == 0.0
            assert record["mean_l_cm"] == 0.0
    assert result.epochs[2]["mean_l_imcc"] > 0.0


def test_lr_decay_applied():
    ds = tiny_dataset()
    cfg = tiny_cfg(total_epochs=4, intra_start_epoch=0, cross_start_epoch=0,
                   lr=0.1, lr_decay_every=2, lr_decay_factor=0.1)
    result = train(ds, cfg)
    assert [r["lr"] for r in result.epochs] == pytest.approx([0.1, 0.1, 0.01, 0.01])


def test_missing_modality_rejected():
    ds = tiny_dataset()
    vis_only = type(ds)(
        d_in=ds.d_in, n_cameras_vis=ds.n_cameras_vis, n_cameras_ir=ds.n_cameras_ir,
        tracklets=tuple(t for t in ds.tracklets if t.modality is Modality.VIS),
    )
    with pytest.raises(ValueError, match="both modalities"):
        train(vis_only, tiny_cfg())


def test_nan_loss_aborts_with_location(monkeypatch):
    ds = tiny_dataset()
    cfg = tiny_cfg(total_epochs=1, intra_start_epoch=0, cross_start_epoch=0)

    def bad_batch_loss(queries, store, plan, loss_temp):
        return LossBreakdown(
            l_ic=math.nan, l_imcc=0.0, l_cm=0.0, l_total=math.nan,
            active_imcc=False, active_cm=False, grads=np.zeros_like(queries),
        )

    monkeypatch.setattr(trainer_mod, "batch_loss", bad_batch_loss)
    with pytest.raises(RuntimeError, match="epoch 0 iteration 0"):
        train(ds, cfg)


def test_nan_gradient_aborts_with_location(monkeypatch):
    ds = tiny_dataset()
    cfg = tiny_cfg(total_epochs=2, intra_start_epoch=0, cross_start_epoch=0)
    calls = []

    def nan_grad_batch_loss(queries, store, plan, loss_temp):
        grads = np.zeros((len(queries), cfg.embed_dim))
        if len(calls) == cfg.iters_per_epoch + 1:  # epoch 1, iteration 1
            grads[0, 0] = math.nan
        calls.append(plan)
        return LossBreakdown(
            l_ic=1.0, l_imcc=0.0, l_cm=0.0, l_total=1.0,
            active_imcc=False, active_cm=False, grads=grads,
        )

    monkeypatch.setattr(trainer_mod, "batch_loss", nan_grad_batch_loss)
    with pytest.raises(RuntimeError, match="non-finite gradient at epoch 1 iteration 1"):
        train(ds, cfg)


def test_zero_noise_mining_precision_every_epoch():
    ds = tiny_dataset(noise=False)
    cfg = tiny_cfg(total_epochs=2, intra_start_epoch=0, cross_start_epoch=1)
    result = train(ds, cfg)
    for record in result.epochs:
        for stats in record["mining"].values():
            assert stats["precision"] == 1.0


def _shuffled_store(rng, cams_vis, cams_ir, tie=False):
    """A random store whose camera blocks are laid out in a shuffled order,
    so that a family's sources are not a contiguous run of store rows;
    ``tie`` copies one VIS prototype into every other camera."""
    protos = []
    for modality, n_cams in ((Modality.VIS, cams_vis), (Modality.IR, cams_ir)):
        for cam in range(n_cams):
            for i in range(int(rng.integers(1, 5))):
                v = rng.normal(size=5)
                protos.append(Prototype(f"{modality.value}_{cam}_{i}", modality, cam,
                                        v / np.linalg.norm(v)))
    if tie:
        for p in protos[1:]:
            if p.camera_id != protos[0].camera_id or p.modality is not protos[0].modality:
                p.vector[...] = protos[0].vector
    order = rng.permutation(len(protos))
    return PrototypeStore([protos[i] for i in order])


@pytest.mark.parametrize("cams_vis, cams_ir, tie, overrides", [
    (3, 2, False, {}),
    (2, 3, True, {}),  # tied similarities: the first maximum wins
    (1, 1, False, {}),  # one camera per modality: no intra-modal candidate
    (3, 3, False, dict(use_dts=False, use_swa=False, fixed_threshold=0.0)),
    (2, 2, True, dict(use_dts=False, use_swa=False, fixed_threshold=0.3)),
])
@pytest.mark.parametrize("seed", range(4))
def test_mined_targets_equal_positive_targets_of_the_positive_sets(
        seed, cams_vis, cams_ir, tie, overrides):
    rng = np.random.default_rng(seed)
    store = _shuffled_store(rng, cams_vis, cams_ir, tie)
    cfg = tiny_cfg(**overrides)
    ids = sorted((p.tracklet_id for m in Modality for p in store.modality_prototypes(m)),
                 key=store.position)
    for kind in PositiveKind:
        reports = [build_mining_report(store, m, kind, 1, cfg) for m in Modality]
        sets = {wps.source: wps for report in reports for wps in report.positive_sets()}
        expected = positive_targets(store, ids, sets)
        got = trainer_mod.mined_targets(reports, len(store))
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
        if cams_vis == cams_ir == 1 and kind is PositiveKind.INTRA_MODAL:
            assert got.rows.size == 0


def test_train_plans_with_the_positive_targets_of_each_epoch(monkeypatch):
    # each epoch's plan gets the own-prototype, intra and cross targets that
    # positive_targets builds from the epoch's positive sets, by store row
    ds = tiny_dataset()
    cfg = tiny_cfg(total_epochs=3, intra_start_epoch=1, cross_start_epoch=2)
    seen = []

    def spy(store, sources, batch_sizes, loss_terms, ema_terms):
        epoch = len(seen)
        ids = sorted((t.tracklet_id for t in ds.tracklets), key=store.position)
        expected = [positive_targets(store, ids)]
        for kind in (PositiveKind.INTRA_MODAL, PositiveKind.CROSS_MODAL):
            expected.append(positive_targets(store, ids, {
                wps.source: wps for m in Modality
                for wps in mine_positive_sets(store, m, kind, epoch, cfg)}))
        for got, want in zip(ema_terms, expected, strict=True):
            for a, b in zip(got, want):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)
        active = [True, epoch >= cfg.intra_start_epoch, epoch >= cfg.cross_start_epoch]
        assert [t is not None for t in loss_terms] == active
        seen.append(epoch)
        return plan_batches(store, sources, batch_sizes, loss_terms, ema_terms)

    monkeypatch.setattr(trainer_mod, "plan_batches", spy)
    train(ds, cfg)
    assert seen == [0, 1, 2]
