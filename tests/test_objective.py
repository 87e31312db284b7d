import math

import numpy as np
import pytest

from hitpro.datamodel import (
    Modality,
    PositiveKind,
    Prototype,
    PrototypeStore,
    TrainConfig,
    WeightedPositiveSet,
)
from hitpro.mining import mine_positive_sets
from hitpro.objective import (
    ema_update,
    loss_cross_modal,
    loss_imcc,
    loss_intra_camera,
    total_loss,
)

from conftest import random_store
from oracles import naive_intra_camera_loss, naive_weighted_positive_loss


def cfg_with(**kw):
    base = dict(total_epochs=60, intra_start_epoch=5, cross_start_epoch=15)
    base.update(kw)
    return TrainConfig(**base)


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def test_intra_loss_singleton_camera_is_zero():
    store = PrototypeStore([Prototype("a", Modality.VIS, 0, unit([1.0, 0.0]))])
    value, grads = loss_intra_camera([(unit([0.6, 0.8]), "a")], store, 0.5)
    assert value == 0.0
    np.testing.assert_array_equal(grads[0], np.zeros(2))


def test_intra_loss_hand_value():
    # q=[1,0], own p=[1,0], other p=[0,1], tau=0.5 -> -log(e^2/(e^2+1)) = 0.1269
    store = PrototypeStore([
        Prototype("own", Modality.VIS, 0, np.array([1.0, 0.0])),
        Prototype("other", Modality.VIS, 0, np.array([0.0, 1.0])),
    ])
    value, _ = loss_intra_camera([(np.array([1.0, 0.0]), "own")], store, 0.5)
    assert value == pytest.approx(0.1269, abs=1e-4)


def _finite_diff_q(loss_fn, q, eps=1e-6):
    grad = np.zeros_like(q)
    for i in range(q.size):
        qp = q.copy(); qp[i] += eps
        qm = q.copy(); qm[i] -= eps
        grad[i] = (loss_fn(qp) - loss_fn(qm)) / (2 * eps)
    return grad


def test_intra_loss_gradient_matches_finite_difference():
    rng = np.random.default_rng(0)
    store, _ = random_store(rng, cams_vis=2, cams_ir=1, max_per_cam=3)
    source = store.modality_prototypes(Modality.VIS)[0].tracklet_id
    q = unit(rng.normal(size=6))
    value, grads = loss_intra_camera([(q, source)], store, 0.05)

    def f(qv):
        v, _ = loss_intra_camera([(qv, source)], store, 0.05)
        return v

    numeric = _finite_diff_q(f, q)
    denom = np.maximum(np.abs(grads[0]) + np.abs(numeric), 1e-8)
    assert np.max(np.abs(grads[0] - numeric) / denom) < 1e-6


def test_weighted_loss_empty_sets_zero():
    rng = np.random.default_rng(1)
    store, _ = random_store(rng)
    q = unit(rng.normal(size=6))
    source = store.modality_prototypes(Modality.VIS)[0].tracklet_id
    value, grads = loss_imcc([(q, source)], store, {}, 0.05)
    assert value == 0.0
    np.testing.assert_array_equal(grads[0], np.zeros(6))


def test_weighted_loss_singleton_target_camera_zero():
    store = PrototypeStore([
        Prototype("src", Modality.VIS, 0, unit([1.0, 0.0])),
        Prototype("tgt", Modality.VIS, 1, unit([0.8, 0.6])),
    ])
    sets = {"src": WeightedPositiveSet("src", PositiveKind.INTRA_MODAL, (("tgt", 1.0),))}
    value, grads = loss_imcc([(unit([1.0, 0.2]), "src")], store, sets, 0.05)
    assert value == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(grads[0], np.zeros(2), atol=1e-15)


def test_cross_modal_singleton_zero():
    store = PrototypeStore([
        Prototype("v", Modality.VIS, 0, unit([1.0, 0.0])),
        Prototype("r", Modality.IR, 0, unit([0.6, 0.8])),
    ])
    sets = {"v": WeightedPositiveSet("v", PositiveKind.CROSS_MODAL, (("r", 1.0),))}
    value, _ = loss_cross_modal([(unit([1.0, 0.0]), "v")], store, sets, 0.05)
    assert value == pytest.approx(0.0, abs=1e-15)


def _oracle_setup(rng, kind):
    store, groups = random_store(rng, cams_vis=3, cams_ir=2, max_per_cam=4)
    cfg = cfg_with(thresh_init=0.9, thresh_final=0.9)
    sets = {}
    for modality in (Modality.VIS, Modality.IR):
        for wps in mine_positive_sets(store, modality, kind, 0, cfg):
            if wps.entries:
                sets[wps.source] = wps
    proto_lookup = {
        p.tracklet_id: (p.modality, p.camera_id)
        for m in (Modality.VIS, Modality.IR)
        for p in store.modality_prototypes(m)
    }
    return store, groups, sets, proto_lookup


def _batch_from_store(rng, store, size):
    sources = store.modality_prototypes(Modality.VIS) + store.modality_prototypes(Modality.IR)
    chosen = rng.choice(len(sources), size=size, replace=True)
    batch = []
    for i in chosen:
        q = unit(rng.normal(size=sources[int(i)].vector.size))
        batch.append((q, sources[int(i)].tracklet_id))
    return batch


def test_intra_loss_matches_naive_oracle():
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        store, groups, _, _ = _oracle_setup(rng, PositiveKind.INTRA_MODAL)
        batch = _batch_from_store(rng, store, size=int(rng.integers(1, 9)))
        value, _ = loss_intra_camera(batch, store, 0.05)
        oracle_queries = [
            (q.tolist(), tid, store.get(tid).modality, store.get(tid).camera_id)
            for q, tid in batch
        ]
        expected = naive_intra_camera_loss(oracle_queries, groups, 0.05)
        assert value == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("kind,loss_fn", [
    (PositiveKind.INTRA_MODAL, loss_imcc),
    (PositiveKind.CROSS_MODAL, loss_cross_modal),
])
def test_weighted_losses_match_naive_oracle(kind, loss_fn):
    for seed in range(20):
        rng = np.random.default_rng(500 + seed)
        store, groups, sets, proto_lookup = _oracle_setup(rng, kind)
        batch = _batch_from_store(rng, store, size=int(rng.integers(1, 9)))
        value, _ = loss_fn(batch, store, sets, 0.05)
        oracle_queries = [
            (q.tolist(), tid, store.get(tid).modality, store.get(tid).camera_id)
            for q, tid in batch
        ]
        oracle_sets = {s: [(t, w) for t, w in wps.entries] for s, wps in sets.items()}
        expected = naive_weighted_positive_loss(
            oracle_queries, oracle_sets, groups, proto_lookup, 0.05
        )
        assert value == pytest.approx(expected, abs=1e-10)


def test_weighted_loss_gradients_match_finite_difference():
    rng = np.random.default_rng(11)
    store, _, sets, _ = _oracle_setup(rng, PositiveKind.CROSS_MODAL)
    source = next(iter(sets))
    q = unit(rng.normal(size=6))
    _, grads = loss_cross_modal([(q, source)], store, sets, 0.05)

    def f(qv):
        v, _ = loss_cross_modal([(qv, source)], store, sets, 0.05)
        return v

    numeric = _finite_diff_q(f, q)
    denom = np.maximum(np.abs(grads[0]) + np.abs(numeric), 1e-8)
    assert np.max(np.abs(grads[0] - numeric) / denom) < 1e-6


def test_stale_positive_set_raises():
    store = PrototypeStore([
        Prototype("src", Modality.VIS, 0, unit([1.0, 0.0])),
    ])
    sets = {"src": WeightedPositiveSet("src", PositiveKind.INTRA_MODAL, (("gone", 1.0),))}
    with pytest.raises(ValueError, match="missing"):
        loss_imcc([(unit([1.0, 0.0]), "src")], store, sets, 0.05)


def _total_loss_setup(seed=0):
    rng = np.random.default_rng(seed)
    store, _, _, _ = _oracle_setup(rng, PositiveKind.INTRA_MODAL)
    cfg = cfg_with(thresh_init=0.9, thresh_final=0.9)
    intra, cross = {}, {}
    for modality in (Modality.VIS, Modality.IR):
        for wps in mine_positive_sets(store, modality, PositiveKind.INTRA_MODAL, 0, cfg):
            intra[wps.source] = wps
        for wps in mine_positive_sets(store, modality, PositiveKind.CROSS_MODAL, 0, cfg):
            cross[wps.source] = wps
    vis = [
        (unit(rng.normal(size=6)), p.tracklet_id)
        for p in store.modality_prototypes(Modality.VIS)[:4]
    ]
    ir = [
        (unit(rng.normal(size=6)), p.tracklet_id)
        for p in store.modality_prototypes(Modality.IR)[:4]
    ]
    return store, cfg, intra, cross, vis, ir


def test_total_loss_gating_bitwise():
    store, cfg, intra, cross, vis, ir = _total_loss_setup()
    for epoch in (0, cfg.intra_start_epoch - 1):
        breakdown = total_loss(epoch, vis, ir, store, intra, cross, cfg)
        ic_value = 0.0
        ic_grads = []
        for batch in (vis, ir):
            v, g = loss_intra_camera(batch, store, cfg.loss_temp)
            ic_value += v
            ic_grads.extend(g)
        assert breakdown.l_total == ic_value  # bitwise: no extra terms added
        assert breakdown.l_imcc == 0.0 and breakdown.l_cm == 0.0
        for a, b in zip(breakdown.grads, ic_grads):
            np.testing.assert_array_equal(a, b)


def test_total_loss_schedule_progression():
    store, cfg, intra, cross, vis, ir = _total_loss_setup()
    mid = total_loss(cfg.intra_start_epoch, vis, ir, store, intra, cross, cfg)
    assert mid.active_imcc and not mid.active_cm
    assert mid.l_total == mid.l_ic + mid.l_imcc
    late = total_loss(cfg.cross_start_epoch, vis, ir, store, intra, cross, cfg)
    assert late.active_imcc and late.active_cm
    assert late.l_total == late.l_ic + late.l_imcc + late.l_cm


def test_total_loss_no_hls_all_active_from_zero():
    store, cfg, intra, cross, vis, ir = _total_loss_setup()
    cfg = cfg.with_overrides(use_hls=False)
    early = total_loss(0, vis, ir, store, intra, cross, cfg)
    assert early.active_imcc and early.active_cm


def test_total_loss_toggles_disable_terms():
    store, cfg, intra, cross, vis, ir = _total_loss_setup()
    cfg = cfg.with_overrides(use_imcc=False, use_cm=False)
    late = total_loss(cfg.cross_start_epoch, vis, ir, store, intra, cross, cfg)
    assert not late.active_imcc and not late.active_cm
    assert late.l_total == late.l_ic


def test_losses_nonnegative_and_finite():
    store, cfg, intra, cross, vis, ir = _total_loss_setup(seed=4)
    b = total_loss(20, vis, ir, store, intra, cross, cfg)
    for value in (b.l_ic, b.l_imcc, b.l_cm, b.l_total):
        assert value >= 0.0 and math.isfinite(value)


def test_ema_hand_value():
    store = PrototypeStore([Prototype("a", Modality.VIS, 0, np.array([1.0, 0.0]))])
    ema_update(store, [(np.array([0.0, 1.0]), "a")], {}, {}, momentum=0.2)
    np.testing.assert_allclose(store.get("a").vector, [0.9701, 0.2425], atol=1e-4)


def test_ema_fixed_point():
    p = unit([0.6, 0.8])
    store = PrototypeStore([Prototype("a", Modality.VIS, 0, p.copy())])
    ema_update(store, [(p.copy(), "a")], {}, {}, momentum=0.2)
    np.testing.assert_allclose(store.get("a").vector, p, atol=1e-12)


def test_ema_full_momentum_replaces():
    store = PrototypeStore([Prototype("a", Modality.VIS, 0, np.array([1.0, 0.0]))])
    q = np.array([0.0, 1.0])  # exactly unit: normalization is the identity
    ema_update(store, [(q, "a")], {}, {}, momentum=1.0)
    np.testing.assert_array_equal(store.get("a").vector, q)


def test_ema_updates_positive_targets_and_preserves_norm():
    rng = np.random.default_rng(21)
    store, _, _, _ = _oracle_setup(rng, PositiveKind.INTRA_MODAL)
    cfg = cfg_with(thresh_init=0.5, thresh_final=0.5)
    intra, cross = {}, {}
    for modality in (Modality.VIS, Modality.IR):
        for wps in mine_positive_sets(store, modality, PositiveKind.INTRA_MODAL, 0, cfg):
            intra[wps.source] = wps
        for wps in mine_positive_sets(store, modality, PositiveKind.CROSS_MODAL, 0, cfg):
            cross[wps.source] = wps
    source = store.modality_prototypes(Modality.VIS)[0].tracklet_id
    touched = {source}
    touched.update(intra[source].target_ids)
    touched.update(cross[source].target_ids)
    before = {tid: store.get(tid).vector.copy() for tid in touched}
    q = unit(rng.normal(size=6))
    ema_update(store, [(q, source)], intra, cross, momentum=0.2)
    for tid in touched:
        after = store.get(tid).vector
        assert abs(np.linalg.norm(after) - 1.0) < 1e-6
        assert not np.array_equal(after, before[tid])


def test_ema_writes_through_to_the_matrices_losses_and_mining_read():
    rng = np.random.default_rng(23)
    store, _ = random_store(rng, cams_vis=2, cams_ir=2, max_per_cam=3)
    source = store.modality_prototypes(Modality.VIS)[0].tracklet_id
    modality, cam, row = store.locate(source)
    q = unit(rng.normal(size=6))
    ema_update(store, [(q, source)], {}, {}, momentum=0.5)

    np.testing.assert_array_equal(store.matrix(modality, cam)[row], store.get(source).vector)
    # a store rebuilt from the updated vectors gives the same loss and mining
    rebuilt = PrototypeStore([
        Prototype(p.tracklet_id, p.modality, p.camera_id, p.vector.copy())
        for m in (Modality.VIS, Modality.IR)
        for p in store.modality_prototypes(m)
    ])
    assert (loss_intra_camera([(q, source)], store, 0.05)[0]
            == loss_intra_camera([(q, source)], rebuilt, 0.05)[0])
    cfg = cfg_with(thresh_init=0.5, thresh_final=0.5)
    assert (mine_positive_sets(store, Modality.VIS, PositiveKind.CROSS_MODAL, 0, cfg)
            == mine_positive_sets(rebuilt, Modality.VIS, PositiveKind.CROSS_MODAL, 0, cfg))


def test_prototype_assignment_changes_what_the_loss_reads():
    store = PrototypeStore([
        Prototype("own", Modality.VIS, 0, np.array([1.0, 0.0])),
        Prototype("other", Modality.VIS, 0, np.array([0.0, 1.0])),
    ])
    q = np.array([1.0, 0.0])
    before, _ = loss_intra_camera([(q, "own")], store, 0.5)
    store.get("other").vector[...] = np.array([1.0, 0.0])  # now tied with own
    after, _ = loss_intra_camera([(q, "own")], store, 0.5)
    assert before == pytest.approx(0.1269, abs=1e-4)
    assert after == pytest.approx(np.log(2.0), abs=1e-12)
