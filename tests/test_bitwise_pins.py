"""The stacked loss, EMA update, mining, training loop, dataset generator,
retrieval ranking and ``mining_report.json`` writer against the per-row loops
and dicts they replaced (``reference_loops``): equal to the last bit or
character, not within a tolerance."""

import json
from pathlib import Path

import numpy as np
import pytest

from hitpro.cli import _mining_report_text
from hitpro.datamodel import (
    Modality,
    PositiveKind,
    Prototype,
    PrototypeStore,
    TrainConfig,
    WeightedPositiveSet,
)
from hitpro.evaluator import _ROW_BLOCK, evaluate_retrieval, mining_quality
from hitpro.mining import build_mining_report
from hitpro.objective import ema_update, loss_cross_modal, loss_imcc, loss_intra_camera, total_loss
from hitpro.prototyping import frame_table, partition_tracklet
from hitpro.sampler import camera_rows, sample_batch, sample_rows
from hitpro.synthgen import GenConfig, generate_dataset
from hitpro.trainer import train

from conftest import random_store
from reference_loops import (
    loop_alignment_loss,
    loop_ema_update,
    loop_generate_dataset,
    loop_mining_payload,
    loop_mining_quality,
    loop_mining_rows,
    loop_ranking,
    loop_sample_batch,
    loop_total_loss,
    loop_train,
)

FAMILIES = [(m, k) for m in (Modality.VIS, Modality.IR) for k in PositiveKind]


def cfg_with(**kw):
    base = dict(total_epochs=4, intra_start_epoch=1, cross_start_epoch=2,
                thresh_init=0.9, thresh_final=0.5)
    base.update(kw)
    return TrainConfig(**base)


def mined_sets(store, cfg, epoch):
    intra, cross = {}, {}
    for modality, kind in FAMILIES:
        dest = intra if kind is PositiveKind.INTRA_MODAL else cross
        for wps in build_mining_report(store, modality, kind, epoch, cfg).positive_sets():
            dest[wps.source] = wps
    return intra, cross


def sampled_batch(rng, store, modality, n_sources, repeats, d):
    """``repeats`` embeddings per sampled source, like S sub-tracklets."""
    ids = [p.tracklet_id for p in store.modality_prototypes(modality)]
    picked = rng.choice(len(ids), size=n_sources, replace=len(ids) < n_sources)
    return [(rng.normal(size=d), ids[int(i)]) for i in picked for _ in range(repeats)]


STORE_SHAPES = [
    # (cams_vis, cams_ir, max_per_cam): several entries per item
    (3, 3, 5),
    # singleton cameras
    (2, 3, 1),
    # one camera per modality: every intra-modal positive set is empty
    (1, 1, 4),
    # many cross-modal cameras: positive sets of up to 9 entries
    (2, 9, 3),
]


@pytest.mark.parametrize("shape", STORE_SHAPES)
@pytest.mark.parametrize("seed", range(3))
def test_total_loss_matches_entry_loop(shape, seed):
    cams_vis, cams_ir, max_per_cam = shape
    rng = np.random.default_rng(seed)
    store, _ = random_store(rng, cams_vis=cams_vis, cams_ir=cams_ir,
                            max_per_cam=max_per_cam, d=6)
    for cfg in (cfg_with(), cfg_with(use_hls=False, use_dts=False, fixed_threshold=-1.0),
                cfg_with(use_swa=False, use_imcc=False)):
        for epoch in range(cfg.total_epochs):
            intra, cross = mined_sets(store, cfg, epoch)
            vis = sampled_batch(rng, store, Modality.VIS, 4, 2, 6)
            ir = sampled_batch(rng, store, Modality.IR, 3, 2, 6)  # another inv_b
            got = total_loss(epoch, vis, ir, store, intra, cross, cfg)
            l_ic, l_imcc, l_cm, l_total, grads = loop_total_loss(
                epoch, vis, ir, store, intra, cross, cfg
            )
            assert (got.l_ic, got.l_imcc, got.l_cm, got.l_total) == (l_ic, l_imcc, l_cm, l_total)
            assert np.array_equal(got.grads, np.stack(grads))


def test_loss_wrappers_match_entry_loop_with_empty_and_missing_sets():
    rng = np.random.default_rng(11)
    store, _ = random_store(rng, cams_vis=3, cams_ir=2, max_per_cam=4, d=6)
    cfg = cfg_with(thresh_init=0.5, thresh_final=0.5)
    intra, cross = mined_sets(store, cfg, 0)
    batch = sampled_batch(rng, store, Modality.VIS, 5, 2, 6)
    # one source with an explicitly empty set, one absent from the sets
    intra[batch[0][1]] = WeightedPositiveSet(batch[0][1], PositiveKind.INTRA_MODAL, ())
    cross.pop(batch[-1][1], None)
    for fn, sets in ((loss_imcc, intra), (loss_cross_modal, cross)):
        value, grads = fn(batch, store, sets, cfg.loss_temp)
        ref_value, ref_grads = loop_alignment_loss(batch, store, sets, cfg.loss_temp)
        assert value == ref_value
        assert np.array_equal(grads, np.stack(ref_grads))
    value, grads = loss_intra_camera(batch, store, cfg.loss_temp)
    ref_value, ref_grads = loop_alignment_loss(batch, store, None, cfg.loss_temp)
    assert value == ref_value
    assert np.array_equal(grads, np.stack(ref_grads))


@pytest.mark.parametrize("shape", STORE_SHAPES)
@pytest.mark.parametrize("seed", range(3))
def test_ema_update_matches_sequential_loop(shape, seed):
    cams_vis, cams_ir, max_per_cam = shape
    store, _ = random_store(np.random.default_rng(seed), cams_vis=cams_vis,
                            cams_ir=cams_ir, max_per_cam=max_per_cam, d=6)
    reference, _ = random_store(np.random.default_rng(seed), cams_vis=cams_vis,
                                cams_ir=cams_ir, max_per_cam=max_per_cam, d=6)
    rng = np.random.default_rng(100 + seed)
    cfg = cfg_with(thresh_init=0.3, thresh_final=0.3)
    max_hits = 0
    for _ in range(3):
        intra, cross = mined_sets(store, cfg, 0)
        # S=2 sub-tracklets per source, and low thresholds: sources share targets
        batch = (sampled_batch(rng, store, Modality.VIS, 4, 2, 6)
                 + sampled_batch(rng, store, Modality.IR, 4, 2, 6))
        hits = {}
        for _, source_id in batch:
            for tid in (source_id, *[t for sets in (intra, cross) if source_id in sets
                                     for t in sets[source_id].target_ids]):
                hits[tid] = hits.get(tid, 0) + 1
        max_hits = max(max_hits, *hits.values())
        ema_update(store, batch, intra, cross, momentum=0.3)
        loop_ema_update(reference, batch, intra, cross, momentum=0.3)
        for modality in Modality:
            for cam in store.cameras(modality):
                assert np.array_equal(store.matrix(modality, cam),
                                      reference.matrix(modality, cam))
    assert max_hits >= 3  # a prototype blended several times in one batch


def _tied_store():
    """Duplicate rows and equal cosines across cameras: argmax ties."""
    u = np.array([0.6, 0.8, 0.0])
    w = np.array([0.0, 0.6, 0.8])
    protos = [
        Prototype("v0", Modality.VIS, 0, u),
        Prototype("v1", Modality.VIS, 0, -u),  # every cosine <= 0
        Prototype("a0", Modality.VIS, 1, w),
        Prototype("a1", Modality.VIS, 1, u),
        Prototype("a2", Modality.VIS, 1, u),
        Prototype("b0", Modality.VIS, 2, u * 3.0),
        Prototype("b1", Modality.VIS, 2, w),
        Prototype("i0", Modality.IR, 0, w),
        Prototype("i1", Modality.IR, 0, w),
        Prototype("j0", Modality.IR, 1, u),
        Prototype("j1", Modality.IR, 1, -w),
    ]
    return PrototypeStore(protos)


MINING_CFGS = [
    cfg_with(),
    cfg_with(thresh_init=1.0, thresh_final=1.0),
    cfg_with(use_dts=False, fixed_threshold=0.6),
    cfg_with(use_dts=False, fixed_threshold=-1.0),
    cfg_with(use_swa=False),
    cfg_with(use_swa=False, use_dts=False, fixed_threshold=0.0),
]


def _check_report(store, modality, kind, epoch, cfg, gt):
    report = build_mining_report(store, modality, kind, epoch, cfg)
    rows = loop_mining_rows(store, modality, kind, epoch, cfg)
    assert report.rows == rows
    assert [(s.source, s.entries) for s in report.positive_sets()] == [
        (r.source, tuple((t, w) for t, _, w in r.accepted)) for r in rows
    ]
    expected_size = sum(len(r.accepted) for r in rows) / len(rows) if rows else 0.0
    assert report.mean_positive_set_size == expected_size
    assert mining_quality(report, gt) == loop_mining_quality(rows, gt)


@pytest.mark.parametrize("cfg", MINING_CFGS)
@pytest.mark.parametrize("shape", STORE_SHAPES)
def test_mining_matches_row_loop_on_random_stores(cfg, shape):
    cams_vis, cams_ir, max_per_cam = shape
    for seed in range(3):
        rng = np.random.default_rng(seed)
        store, _ = random_store(rng, cams_vis=cams_vis, cams_ir=cams_ir,
                                max_per_cam=max_per_cam, d=4)
        gt = {p.tracklet_id: int(rng.integers(0, 3))
              for m in Modality for p in store.modality_prototypes(m)}
        for epoch in (0, 2, cfg.total_epochs):
            for modality, kind in FAMILIES:
                _check_report(store, modality, kind, epoch, cfg, gt)


@pytest.mark.parametrize("cfg", MINING_CFGS)
def test_mining_matches_row_loop_on_ties_and_non_positive_best(cfg):
    store = _tied_store()
    gt = {tid: i % 2 for i, tid in enumerate(
        p.tracklet_id for m in Modality for p in store.modality_prototypes(m))}
    for modality, kind in FAMILIES:
        _check_report(store, modality, kind, 0, cfg, gt)
    rows = {r.source: r for r in
            build_mining_report(store, Modality.VIS, PositiveKind.INTRA_MODAL, 0, cfg).rows}
    assert [t for _, t, _ in rows["v0"].candidates] == ["a1", "b0"]  # first max wins
    if cfg.use_dts:
        assert rows["v1"].s_max <= 0 and rows["v1"].accepted == []


def _two_modality_dataset(cams_vis, cams_ir, n_identities, len_min, len_max, seed):
    return generate_dataset(GenConfig(
        n_identities=n_identities, cams_vis=cams_vis, cams_ir=cams_ir, d_in=5, d_latent=3,
        tracklets_per_identity_per_camera=1, frame_len_min=len_min, frame_len_max=len_max,
        camera_offset_scale=0.3, modality_transform_scale=0.3, frame_noise=0.2,
        walk_step=0.05, seed=seed,
    ))


def _train_cfg(**kw):
    base = dict(
        d_in=5, embed_dim=6, ffn_dim=8, pool_hidden_dim=4, n_tte_layers=1, seq_len=3,
        n_subtracklets=4, total_epochs=3, iters_per_epoch=3, intra_start_epoch=0,
        cross_start_epoch=0, lr=0.05, batch_cameras=2, batch_tracklets=2, batch_subs=3,
    )
    base.update(kw)
    return TrainConfig(**base)


TRAINING_CASES = [
    # uneven lengths, many shorter than K (sub-tracklet replacement), all
    # three loss terms from epoch 0
    ((2, 2, 5, 2, 9, 0), _train_cfg()),
    # one VIS camera (camera replacement), three identities against P = 4
    # (tracklet replacement), depth 2 and the ablated mining
    ((1, 3, 3, 3, 7, 1), _train_cfg(batch_tracklets=4, batch_subs=2, n_tte_layers=2,
                                    use_swa=False, use_dts=False, fixed_threshold=0.0)),
    # the loss schedule switching terms on mid-run, L < seq_len
    ((2, 2, 4, 1, 4, 2), _train_cfg(seq_len=5, n_subtracklets=2, intra_start_epoch=1,
                                    cross_start_epoch=2, batch_subs=1, seed=3)),
]


@pytest.mark.parametrize("data,cfg", TRAINING_CASES)
def test_train_matches_reference_training_loop(data, cfg):
    dataset = _two_modality_dataset(*data)
    result = train(dataset, cfg)
    params, store, epochs = loop_train(dataset, cfg)
    assert np.array_equal(result.params.flat, params.flat)
    assert np.array_equal(result.store.stacked, store.stacked)
    assert result.epochs == epochs
    assert all(r["mean_l_imcc"] > 0 and r["mean_l_cm"] > 0 for r in epochs[cfg.cross_start_epoch:])


@pytest.mark.parametrize("data,cfg", TRAINING_CASES)
def test_row_sampler_draws_the_reference_entries(data, cfg):
    dataset = _two_modality_dataset(*data)
    table = frame_table(dataset.tracklets, cfg)
    partitions = {t.tracklet_id: partition_tracklet(t, cfg.n_subtracklets)
                  for t in dataset.tracklets}
    by_row = [(sub, t.tracklet_id) for t in dataset.tracklets for sub in partitions[t.tracklet_id]]
    for modality in Modality:
        cameras = camera_rows(dataset, modality, table.starts, table.k_eff)
        rngs = [np.random.default_rng(7) for _ in range(3)]
        for _ in range(40):
            expected = loop_sample_batch(dataset, modality, partitions, cfg, rngs[0])
            rows = sample_rows(cameras, cfg, rngs[1])
            assert [by_row[r] for r in rows] == expected
            assert list(sample_batch(dataset, modality, partitions, cfg, rngs[2]).entries) == expected


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GEN_FIELDS = set(GenConfig.__dataclass_fields__)


def _config_gen(name, seed):
    cfg = json.loads((CONFIGS / name).read_text())
    return GenConfig(**{**{k: v for k, v in cfg.items() if k in GEN_FIELDS}, "seed": seed})


def _small_gen(**kw):
    base = dict(n_identities=4, cams_vis=2, cams_ir=2, d_in=6, d_latent=3,
                frame_len_min=2, frame_len_max=7, camera_offset_scale=0.4,
                modality_transform_scale=0.3, frame_noise=0.2, walk_step=0.3, seed=5)
    base.update(kw)
    return GenConfig(**base)


GEN_CASES = {
    # a walk bounded at 0: every step reflects to the center
    "walk_step_0": _small_gen(walk_step=0.0),
    # one frame per tracklet
    "one_frame": _small_gen(frame_len_min=1, frame_len_max=1),
    "two_reps": _small_gen(tracklets_per_identity_per_camera=2),
    "square_map": _small_gen(d_latent=6),
    "one_camera_each": _small_gen(cams_vis=1, cams_ir=1),
    "three_cameras_each": _small_gen(cams_vis=3, cams_ir=3, n_identities=3),
    # a long walk against a tight bound: many reflections
    "long_walks": _small_gen(frame_len_min=20, frame_len_max=40, walk_step=0.5),
    "zero_noise_json": _config_gen("zero_noise.json", 0),
    "noisy_benchmark_json_seed0": _config_gen("noisy_benchmark.json", 0),
    "noisy_benchmark_json_seed7": _config_gen("noisy_benchmark.json", 7),
}


@pytest.mark.parametrize("cfg", GEN_CASES.values(), ids=GEN_CASES.keys())
def test_generator_matches_frame_loop(cfg):
    dataset = generate_dataset(cfg)
    reference = loop_generate_dataset(cfg)
    assert (dataset.d_in, dataset.n_cameras_vis, dataset.n_cameras_ir) == (
        reference.d_in, reference.n_cameras_vis, reference.n_cameras_ir)
    assert len(dataset.tracklets) == len(reference.tracklets)
    for t, ref in zip(dataset.tracklets, reference.tracklets):
        assert (t.tracklet_id, t.modality, t.camera_id, t.gt_identity) == (
            ref.tracklet_id, ref.modality, ref.camera_id, ref.gt_identity)
        assert t.frames.dtype == ref.frames.dtype and t.frames.shape == ref.frames.shape
        assert t.frames.tobytes() == ref.frames.tobytes()


def _gallery(rng, n_query, n_gallery, n_ids, d, layout):
    g_ids = rng.integers(0, n_ids, size=n_gallery)
    q_ids = rng.choice(g_ids, size=n_query)
    vectors = rng.normal(size=(n_query + n_gallery, d))
    if layout != "distinct":  # few distinct directions: many equal similarities
        # signed_zero: entries -1, -0.0, 0.0 and 1, so many similarities are
        # exactly 0.0, which the loop's argsort of -sims sees as -0.0
        vectors = np.round(vectors * (0.7 if layout == "signed_zero" else 1.0))
        vectors[np.all(vectors == 0, axis=1), 0] = 1.0
    return (list(zip(vectors[:n_query], q_ids.tolist())),
            list(zip(vectors[n_query:], g_ids.tolist())))


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("layout", ["distinct", "tied", "signed_zero", "wide"])
def test_ranking_matches_query_loop(seed, layout):
    rng = np.random.default_rng(seed)
    if layout == "wide":  # 1-3 identities: a query's matches span several blocks
        n_query, n_gallery = int(rng.integers(2, 12)), int(rng.integers(300, 701))
        queries, gallery = _gallery(rng, n_query, n_gallery, int(rng.integers(1, 4)), 3, layout)
        max_rank = n_gallery + int(rng.integers(1, 25))
    else:
        n_query, n_gallery = (int(v) for v in rng.integers(1, 70, size=2))
        queries, gallery = _gallery(rng, n_query, n_gallery, int(rng.integers(1, 15)), 3, layout)
        max_rank = int(rng.integers(1, 25))
    result = evaluate_retrieval(queries, gallery, max_rank=max_rank)

    q_mat = np.stack([q for q, _ in queries])
    g_mat = np.stack([g for g, _ in gallery])
    sims = (q_mat / np.linalg.norm(q_mat, axis=1, keepdims=True)) @ (
        g_mat / np.linalg.norm(g_mat, axis=1, keepdims=True)).T
    q_ids, g_ids = np.array([i for _, i in queries]), np.array([i for _, i in gallery])
    if layout == "wide":  # some query's matches straddle a block boundary
        counts = (q_ids[:, None] == g_ids).sum(axis=1)
        ends = np.cumsum(counts)
        assert np.any((ends - counts) // _ROW_BLOCK < (ends - 1) // _ROW_BLOCK)
    if layout == "signed_zero":
        assert np.any(sims == 0.0)
    cmc, mean_ap = loop_ranking(sims, q_ids, g_ids, min(max_rank, n_gallery))
    assert result.cmc.tobytes() == cmc.tobytes()
    assert result.mean_ap == mean_ap


def _family_rows(store, cfg, epoch=0, gt=None):
    """``mining_report.json``'s text equals ``json.dumps`` of the dict payload;
    returns that payload's rows per family."""
    oracle = loop_mining_payload(store, epoch, cfg, gt)
    assert _mining_report_text(store, epoch, cfg, gt) == json.dumps(
        oracle, indent=2, sort_keys=True) + "\n"
    return {(m, k): oracle[f"{m.value.lower()}_{k.value.lower()}"]["rows"] for m, k in FAMILIES}


@pytest.mark.parametrize("cfg", MINING_CFGS)
@pytest.mark.parametrize("shape", STORE_SHAPES)
def test_mining_text_matches_dict_path_on_random_stores(cfg, shape):
    cams_vis, cams_ir, max_per_cam = shape
    for seed in range(3):
        store, _ = random_store(np.random.default_rng(seed), cams_vis=cams_vis,
                                cams_ir=cams_ir, max_per_cam=max_per_cam, d=4)
        # labels: every tracklet index i of a camera is identity i
        gt = {tid: int(tid.rsplit("_", 1)[1]) for m in Modality for cam in store.cameras(m)
              for tid in store.ids(m, cam)}
        for epoch in (0, 2, cfg.total_epochs):
            _family_rows(store, cfg, epoch, gt=gt if seed else None)


def test_mining_text_matches_dict_path_at_scale():
    # 3+3 cameras of 100 to 120 prototypes: every row template of an
    # accepted count from 0 to the candidate count is filled somewhere
    store, _ = random_store(np.random.default_rng(11), cams_vis=3, cams_ir=3, min_per_cam=100,
                            max_per_cam=120, d=16)
    gt = {tid: int(tid.rsplit("_", 1)[1]) % 40 for m in Modality for cam in store.cameras(m)
          for tid in store.ids(m, cam)}
    seen = {}
    for cfg in MINING_CFGS:
        for epoch in (0, cfg.total_epochs):
            for rows in _family_rows(store, cfg, epoch, gt).values():
                for r in rows:
                    seen.setdefault(len(r["candidates"]), set()).add(len(r["accepted"]))
    assert seen == {2: {0, 1, 2}, 3: {0, 1, 2, 3}}


@pytest.mark.parametrize("cfg", MINING_CFGS)
def test_mining_text_without_candidate_cameras(cfg):
    store, _ = random_store(np.random.default_rng(3), cams_vis=1, cams_ir=1)
    for (_, kind), rows in _family_rows(store, cfg).items():
        if kind is PositiveKind.INTRA_MODAL:
            assert rows and all(
                (r["candidates"], r["accepted"], r["s_max"], r["threshold"]) == ([], [], None, None)
                for r in rows)


@pytest.mark.parametrize("cfg", [
    cfg_with(),
    cfg_with(use_swa=False),
    cfg_with(use_dts=False, fixed_threshold=0.6),
    # a JSON integer threshold from a config file stays an integer
    cfg_with(use_dts=False, fixed_threshold=0, use_swa=False),
])
def test_mining_text_rows_with_and_without_accepted_pairs(cfg):
    rows = _family_rows(_tied_store(), cfg)[(Modality.VIS, PositiveKind.INTRA_MODAL)]
    by_source = {r["source"]: r for r in rows}
    assert by_source["v0"]["accepted"] and by_source["v1"]["accepted"] == []


def test_mining_text_of_nan_sims_from_a_zero_norm_row():
    u, w = np.array([0.6, 0.8, 0.0]), np.array([0.0, 0.6, 0.8])
    zero = np.zeros(3)
    store = PrototypeStore([
        Prototype("v0", Modality.VIS, 0, u),
        Prototype("v1", Modality.VIS, 0, zero),  # every sim of this source is NaN
        Prototype("a0", Modality.VIS, 1, w),
        Prototype("b0", Modality.VIS, 2, zero),  # NaN in the second candidate camera
        Prototype("b1", Modality.VIS, 2, u),
        Prototype("i0", Modality.IR, 0, zero),  # NaN in the first candidate camera
        Prototype("j0", Modality.IR, 1, u),
    ])
    for cfg in MINING_CFGS:
        with np.errstate(invalid="ignore", divide="ignore"):
            families = _family_rows(store, cfg)
        intra = {r["source"]: r for r in families[(Modality.VIS, PositiveKind.INTRA_MODAL)]}
        # Python max over the row: NaN only when the row starts with NaN
        assert np.isnan(intra["v1"]["s_max"]) and intra["v1"]["accepted"] == []
        assert np.isnan(intra["v0"]["candidates"][1]["sim"])
        assert intra["v0"]["s_max"] == intra["v0"]["candidates"][0]["sim"]
        cross = families[(Modality.VIS, PositiveKind.CROSS_MODAL)]
        assert np.isnan(cross[0]["s_max"]) and cross[0]["candidates"][1]["sim"] == 1.0


def test_mining_text_of_ids_that_need_escapes():
    ids = ['q"uote', "back\\slash", "caf\u00e9", "\u96ea", "tab\there", "\U0001f600"]
    rng = np.random.default_rng(5)
    store = PrototypeStore([
        Prototype(tid, modality, cam, rng.normal(size=4))
        for i, tid in enumerate(ids)
        for modality, cam in [((Modality.VIS, Modality.IR)[i % 2], i // 2 % 2)]
    ])
    for cfg in MINING_CFGS:
        families = _family_rows(store, cfg)
        sources = [r["source"] for rows in families.values() for r in rows]
        targets = {c["target"] for rows in families.values() for r in rows
                   for c in r["candidates"]}
        assert sorted(set(sources)) == sorted(ids) and targets <= set(ids)
