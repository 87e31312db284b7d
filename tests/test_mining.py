import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hitpro.datamodel import Modality, PositiveKind, Prototype, PrototypeStore, TrainConfig
from hitpro.mining import (
    build_mining_report,
    cosine_sim,
    mine_positive_sets,
    rho_schedule,
    soft_weights,
)

from conftest import random_store
from oracles import naive_mine


def cfg_with(**kw):
    base = dict(total_epochs=60, intra_start_epoch=5, cross_start_epoch=15)
    base.update(kw)
    return TrainConfig(**base)


def test_cosine_spot_values():
    assert cosine_sim(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(1.0)
    assert cosine_sim(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)
    assert cosine_sim(np.array([1.0, 2.0]), np.array([2.0, 1.0])) == pytest.approx(0.8)


def test_cosine_zero_norm_rejected():
    with pytest.raises(ValueError):
        cosine_sim(np.zeros(2), np.array([1.0, 0.0]))


def test_rho_schedule_endpoints():
    cfg = cfg_with()
    assert rho_schedule(0, cfg) == pytest.approx(0.99)
    assert rho_schedule(cfg.total_epochs, cfg) == pytest.approx(0.90)
    assert rho_schedule(30, cfg) == pytest.approx(0.945)
    with pytest.raises(ValueError):
        rho_schedule(-1, cfg)
    with pytest.raises(ValueError):
        rho_schedule(61, cfg)


def test_soft_weights_spot_values():
    np.testing.assert_allclose(soft_weights([0.5], 0.1), [1.0])
    np.testing.assert_allclose(soft_weights([0.4, 0.4], 0.1), [0.5, 0.5])
    np.testing.assert_allclose(
        soft_weights([0.9, 0.7], 0.1), [0.8808, 0.1192], atol=1e-4
    )
    with pytest.raises(ValueError):
        soft_weights([], 0.1)


def _hand_store():
    def proto(tid, modality, cam, vec):
        return Prototype(tracklet_id=tid, modality=modality, camera_id=cam,
                         vector=np.array(vec, dtype=np.float64))

    return PrototypeStore([
        proto("src", Modality.VIS, 0, [1.0, 0.0]),
        proto("b0", Modality.VIS, 1, [1.0, 0.0]),
        proto("b1", Modality.VIS, 1, [0.0, 1.0]),
        proto("c0", Modality.VIS, 2, [0.96, 0.28]),
    ])


def test_hand_example_tight_threshold():
    # e=0: rho=0.99, s_max=1.0 -> only the camera-1 duplicate is accepted
    store = _hand_store()
    cfg = cfg_with()
    sets = mine_positive_sets(store, Modality.VIS, PositiveKind.INTRA_MODAL, 0, cfg)
    by_source = {s.source: s for s in sets}
    assert by_source["src"].target_ids == ("b0",)
    assert by_source["src"].entries[0][1] == pytest.approx(1.0)


def test_hand_example_relaxed_threshold():
    # e=e_total: rho=0.90 -> both camera bests accepted, softmax weights
    store = _hand_store()
    cfg = cfg_with()
    sets = mine_positive_sets(store, Modality.VIS, PositiveKind.INTRA_MODAL,
                              cfg.total_epochs, cfg)
    by_source = {s.source: s for s in sets}
    assert by_source["src"].target_ids == ("b0", "c0")
    expected = np.exp(np.array([1.0, 0.96]) / 0.1)
    expected /= expected.sum()
    np.testing.assert_allclose(
        [w for _, w in by_source["src"].entries], expected, atol=1e-12
    )


def test_single_target_camera_always_accepted():
    rng = np.random.default_rng(5)
    store, _ = random_store(rng, cams_vis=2, cams_ir=1, max_per_cam=3)
    cfg = cfg_with()
    sets = mine_positive_sets(store, Modality.VIS, PositiveKind.INTRA_MODAL, 0, cfg)
    for s in sets:
        src = store.get(s.source)
        others = [p for p in store.modality_prototypes(Modality.VIS)
                  if p.camera_id != src.camera_id]
        best = max(cosine_sim(src.vector, p.vector) for p in others)
        if best > 0:
            assert len(s.entries) >= 1


def _store_to_sets_dict(sets):
    return {
        s.source: [(tid, w) for tid, w in s.entries] for s in sets
    }


@pytest.mark.parametrize("kind", [PositiveKind.INTRA_MODAL, PositiveKind.CROSS_MODAL])
@pytest.mark.parametrize("rho_target", [1.0, 0.95, 0.90])
def test_brute_force_equivalence(kind, rho_target):
    # fix rho exactly by collapsing the schedule to a constant
    cfg = cfg_with(thresh_init=rho_target, thresh_final=rho_target)
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        store, groups = random_store(rng, cams_vis=3, cams_ir=2, max_per_cam=4)
        for modality in (Modality.VIS, Modality.IR):
            mined = _store_to_sets_dict(
                mine_positive_sets(store, modality, kind, 0, cfg)
            )
            expected = naive_mine(
                groups, modality, kind is PositiveKind.CROSS_MODAL,
                rho_target, cfg.weight_temp,
            )
            assert set(mined) == set(expected)
            for src, entries in expected.items():
                assert [t for t, _ in mined[src]] == [t for t, _ in entries]
                np.testing.assert_allclose(
                    [w for _, w in mined[src]], [w for _, w in entries], atol=1e-12
                )


def test_threshold_monotonicity():
    rng = np.random.default_rng(77)
    store, _ = random_store(rng, cams_vis=3, cams_ir=3, max_per_cam=4)
    for kind in (PositiveKind.INTRA_MODAL, PositiveKind.CROSS_MODAL):
        previous = None
        for rho in (1.0, 0.97, 0.9, 0.5):
            cfg = cfg_with(thresh_init=rho, thresh_final=rho)
            current = {
                s.source: set(s.target_ids)
                for s in mine_positive_sets(store, Modality.VIS, kind, 0, cfg)
            }
            if previous is not None:
                for src, accepted in previous.items():
                    assert accepted <= current[src]
            previous = current


def test_rho_one_accepts_single_target():
    rng = np.random.default_rng(123)
    store, _ = random_store(rng, cams_vis=3, cams_ir=2, max_per_cam=4)
    cfg = cfg_with(thresh_init=1.0, thresh_final=1.0)
    sets = mine_positive_sets(store, Modality.VIS, PositiveKind.INTRA_MODAL, 0, cfg)
    for s in sets:
        src = store.get(s.source)
        others = [p for p in store.modality_prototypes(Modality.VIS)
                  if p.camera_id != src.camera_id]
        s_max = max(cosine_sim(src.vector, p.vector) for p in others)
        if s_max > 0:
            assert len(s.entries) == 1


def test_scale_invariance_of_acceptance():
    rng = np.random.default_rng(31)
    store, _ = random_store(rng, cams_vis=2, cams_ir=2, max_per_cam=3)
    cfg = cfg_with()
    before = {
        s.source: s.target_ids
        for s in mine_positive_sets(store, Modality.IR, PositiveKind.CROSS_MODAL, 10, cfg)
    }
    for p in store.modality_prototypes(Modality.VIS):
        p.vector[...] = p.vector * 7.5
    after = {
        s.source: s.target_ids
        for s in mine_positive_sets(store, Modality.IR, PositiveKind.CROSS_MODAL, 10, cfg)
    }
    assert before == after


def test_negative_smax_accepts_nothing():
    protos = [
        Prototype("a", Modality.VIS, 0, np.array([1.0, 0.0])),
        Prototype("b", Modality.VIS, 1, np.array([-1.0, 0.0])),
        Prototype("c", Modality.VIS, 1, np.array([-0.9, -0.43588989])),
    ]
    store = PrototypeStore(protos)
    sets = mine_positive_sets(store, Modality.VIS, PositiveKind.INTRA_MODAL, 0, cfg_with())
    assert all(len(s.entries) == 0 for s in sets if s.source == "a")


def test_fixed_threshold_mode():
    store = _hand_store()
    cfg = cfg_with(use_dts=False, fixed_threshold=0.95)
    sets = mine_positive_sets(store, Modality.VIS, PositiveKind.INTRA_MODAL, 0, cfg)
    by_source = {s.source: s for s in sets}
    assert by_source["src"].target_ids == ("b0", "c0")
    cfg = cfg_with(use_dts=False, fixed_threshold=0.97)
    sets = mine_positive_sets(store, Modality.VIS, PositiveKind.INTRA_MODAL, 0, cfg)
    by_source = {s.source: s for s in sets}
    assert by_source["src"].target_ids == ("b0",)


def test_uniform_weights_without_swa():
    store = _hand_store()
    cfg = cfg_with(use_swa=False)
    sets = mine_positive_sets(store, Modality.VIS, PositiveKind.INTRA_MODAL,
                              cfg.total_epochs, cfg)
    by_source = {s.source: s for s in sets}
    np.testing.assert_allclose([w for _, w in by_source["src"].entries], [0.5, 0.5])


def test_report_invariants():
    rng = np.random.default_rng(9)
    store, _ = random_store(rng)
    cfg = cfg_with()
    report = build_mining_report(store, Modality.VIS, PositiveKind.CROSS_MODAL, 3, cfg)
    for row in report.rows:
        accepted_ids = {t for t, _, _ in row.accepted}
        candidate_ids = {t for _, t, _ in row.candidates}
        assert accepted_ids <= candidate_ids
        for _, sim, _ in row.accepted:
            assert sim >= row.threshold
        if row.accepted:
            assert sum(w for _, _, w in row.accepted) == pytest.approx(1.0, abs=1e-6)
        cams = [c for c, _, _ in row.candidates]
        assert len(cams) == len(set(cams))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), rho=st.floats(0.5, 1.0))
def test_weights_sum_to_one_property(seed, rho):
    rng = np.random.default_rng(seed)
    store, _ = random_store(rng, cams_vis=2, cams_ir=2, max_per_cam=3)
    cfg = cfg_with(thresh_init=rho, thresh_final=rho)
    for kind in (PositiveKind.INTRA_MODAL, PositiveKind.CROSS_MODAL):
        for s in mine_positive_sets(store, Modality.VIS, kind, 0, cfg):
            if s.entries:
                assert sum(w for _, w in s.entries) == pytest.approx(1.0, abs=1e-6)
                assert all(0 < w <= 1 for _, w in s.entries)
