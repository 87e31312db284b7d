import tracemalloc

import numpy as np
import pytest

from hitpro.datamodel import Modality, PositiveKind, TrainConfig
from hitpro.encoder import encoder_init
from hitpro import evaluator
from hitpro.evaluator import (
    distance_distribution,
    embed_tracklet,
    evaluate_dataset,
    evaluate_retrieval,
    mining_quality,
)
from hitpro.mining import MiningReport, MiningRow, build_mining_report
from hitpro.prototyping import build_prototypes
from hitpro.synthgen import GenConfig, generate_dataset

from conftest import random_store
from oracles import naive_retrieval


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def small_setup(seed=0):
    ds = generate_dataset(
        GenConfig(
            n_identities=5, cams_vis=2, cams_ir=2, d_in=6, d_latent=3,
            frame_len_min=4, frame_len_max=8, camera_offset_scale=0.2,
            modality_transform_scale=0.3, frame_noise=0.1, walk_step=0.05,
            seed=seed,
        )
    )
    cfg = TrainConfig(
        d_in=6, embed_dim=8, ffn_dim=16, pool_hidden_dim=8, n_tte_layers=1,
        seq_len=3, n_subtracklets=2, total_epochs=1, iters_per_epoch=1,
        intra_start_epoch=0, cross_start_epoch=0, seed=seed,
    )
    params = encoder_init(
        d_in=6, embed_dim=8, ffn_dim=16, pool_hidden_dim=8, n_tte_layers=1,
        seq_len=3, seed=seed,
    )
    return ds, cfg, params


def test_embed_matches_prototype_recipe():
    ds, cfg, params = small_setup()
    store = build_prototypes(params, ds, cfg)
    for t in ds.tracklets:
        np.testing.assert_allclose(
            embed_tracklet(params, t, cfg), store.get(t.tracklet_id).vector,
            rtol=0, atol=1e-10,
        )


def test_embed_deterministic():
    ds, cfg, params = small_setup()
    t = ds.tracklets[0]
    np.testing.assert_array_equal(
        embed_tracklet(params, t, cfg), embed_tracklet(params, t, cfg)
    )


def test_retrieval_perfect_case():
    gallery = [(unit([1.0, 0.0]), 0), (unit([0.0, 1.0]), 1)]
    queries = [(unit([0.9, 0.1]), 0), (unit([0.1, 0.9]), 1)]
    res = evaluate_retrieval(queries, gallery, max_rank=2)
    assert res.cmc[0] == 1.0
    assert res.mean_ap == 1.0


def test_retrieval_hand_case():
    # 2 queries, one relevant each, found at ranks 1 and 2
    gallery = [(unit([1.0, 0.0]), 0), (unit([0.0, 1.0]), 1)]
    queries = [
        (unit([1.0, 0.1]), 0),   # rank 1 hit
        (unit([1.0, 0.05]), 1),  # closer to gallery 0: its hit lands at rank 2
    ]
    res = evaluate_retrieval(queries, gallery, max_rank=2)
    assert res.cmc[0] == pytest.approx(0.5)
    assert res.cmc[1] == pytest.approx(1.0)
    assert res.mean_ap == pytest.approx(0.75)


def test_retrieval_matches_naive_oracle():
    rng = np.random.default_rng(7)
    queries = [(unit(rng.normal(size=6)), int(rng.integers(0, 6))) for _ in range(5)]
    gallery = [(unit(rng.normal(size=6)), i % 6) for i in range(20)]
    res = evaluate_retrieval(queries, gallery, max_rank=10)
    q_mat = np.stack([q for q, _ in queries])
    g_mat = np.stack([g for g, _ in gallery])
    sims = (q_mat @ g_mat.T).tolist()
    cmc, mean_ap = naive_retrieval(
        sims, [i for _, i in queries], [i for _, i in gallery], max_rank=10
    )
    np.testing.assert_allclose(res.cmc, cmc, rtol=0, atol=1e-12)
    assert res.mean_ap == pytest.approx(mean_ap, abs=1e-12)


def test_cmc_monotone_and_map_bounded():
    rng = np.random.default_rng(3)
    queries = [(unit(rng.normal(size=4)), int(rng.integers(0, 4))) for _ in range(8)]
    gallery = [(unit(rng.normal(size=4)), i % 4) for i in range(16)]
    res = evaluate_retrieval(queries, gallery, max_rank=12)
    assert np.all(np.diff(res.cmc) >= 0)
    assert res.cmc[-1] <= 1.0
    assert 0.0 <= res.mean_ap <= res.cmc[-1]


def test_retrieval_scale_invariance():
    rng = np.random.default_rng(11)
    queries = [(unit(rng.normal(size=4)), int(rng.integers(0, 3))) for _ in range(6)]
    gallery = [(unit(rng.normal(size=4)), i % 3) for i in range(9)]
    a = evaluate_retrieval(queries, gallery, max_rank=5)
    scaled_q = [(q * 3.7, i) for q, i in queries]
    scaled_g = [(g * 0.2, i) for g, i in gallery]
    b = evaluate_retrieval(scaled_q, scaled_g, max_rank=5)
    np.testing.assert_array_equal(a.cmc, b.cmc)
    assert a.mean_ap == b.mean_ap


def test_retrieval_missing_identity_rejected():
    gallery = [(unit([1.0, 0.0]), 0)]
    queries = [(unit([1.0, 0.0]), 5)]
    with pytest.raises(ValueError, match="absent"):
        evaluate_retrieval(queries, gallery)


def test_tie_break_by_gallery_index():
    g = unit([1.0, 0.0])
    gallery = [(g.copy(), 0), (g.copy(), 1)]  # identical vectors: tie
    queries = [(g.copy(), 1)]
    res = evaluate_retrieval(queries, gallery, max_rank=2)
    # gallery 0 wins the tie, so the correct match sits at rank 2
    assert res.cmc[0] == 0.0
    assert res.cmc[1] == 1.0


def test_evaluate_dataset_both_directions():
    ds, cfg, params = small_setup()
    results = evaluate_dataset(params, ds, cfg, max_rank=5)
    assert set(results) == {"IR->VIS", "VIS->IR"}
    for res in results.values():
        assert res.n_query > 0 and res.n_gallery > 0
        assert np.all(np.diff(res.cmc) >= 0)


# vectors with no direction: a zero norm, an infinite norm, a NaN norm
UNRANKABLE = {"zero": [0.0, 0.0], "inf": [np.inf, 0.0], "nan": [np.nan, 1.0]}


@pytest.mark.parametrize("bad", UNRANKABLE.values(), ids=UNRANKABLE.keys())
@pytest.mark.parametrize("side", ["query", "gallery"])
def test_retrieval_rejects_unrankable_vector(side, bad):
    # unchecked, a zero or inf query lands its hit silently at rank 2
    vectors = {"query": [unit([1.0, 0.0]), unit([0.0, 1.0])],
               "gallery": [unit([1.0, 0.0]), unit([0.0, 1.0])]}
    vectors[side][1] = np.array(bad)
    with pytest.raises(ValueError, match=f"^{side} vector 1 has norm "):
        evaluate_retrieval(list(zip(vectors["query"], [0, 1])),
                           list(zip(vectors["gallery"], [0, 1])), max_rank=2)


@pytest.mark.parametrize("max_rank", [0, -3])
def test_retrieval_rejects_max_rank_below_one(max_rank):
    g = unit([1.0, 0.0])
    with pytest.raises(ValueError, match=f"^max_rank must be at least 1, got {max_rank}$"):
        evaluate_retrieval([(g, 0)], [(g, 0)], max_rank=max_rank)


def test_retrieval_peak_memory_below_three_similarity_matrices():
    # the wide_gallery benchmark's shape: 450 x 450 with 3 true matches per
    # query; only the matches are ranked, in (256, n_gallery) blocks
    rng = np.random.default_rng(0)
    ids = np.repeat(np.arange(150), 3)
    queries = list(zip(rng.normal(size=(450, 32)), rng.permutation(ids).tolist()))
    gallery = list(zip(rng.normal(size=(450, 32)), ids.tolist()))
    tracemalloc.start()
    try:
        evaluate_retrieval(queries, gallery)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 450 * 450 * 8


def test_distance_distribution_peak_memory_below_three_gram_blocks():
    # the wide_gallery benchmark's shape: 900 embeddings, 150 identities x 6;
    # a block's pairs are gathered, then its distances and masks dropped
    rng = np.random.default_rng(0)
    vectors, ids = rng.normal(size=(900, 32)), np.repeat(np.arange(150), 6)
    tracemalloc.start()
    try:
        distance_distribution(vectors, ids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 256 * 900 * 8  # three (256, 900) float64 Gram blocks


def _split(embeddings):
    return [e for e, _ in embeddings], [i for _, i in embeddings]


def test_distance_distribution_identical_embeddings():
    e = unit([1.0, 1.0, 1.0])
    assert 1.0 - float(np.dot(e, e)) < 0.0  # rounds below 0 before the clip
    embeddings = [(e.copy(), 0), (e.copy(), 0), (e.copy(), 1), (e.copy(), 1)]
    out = distance_distribution(*_split(embeddings))
    assert (out["n_positive_pairs"], out["n_negative_pairs"]) == (2, 4)
    assert out["positive_hist"].tolist() == [2] + [0] * 49
    assert out["negative_hist"].tolist() == [4] + [0] * 49
    assert out["positive_mean_distance"] == 0.0
    assert out["negative_mean_distance"] == 0.0


def test_distance_distribution_orthogonal_clusters():
    a, b = unit([1.0, 0.0]), unit([0.0, 1.0])
    embeddings = [(a.copy(), 0), (a.copy(), 0), (b.copy(), 1), (b.copy(), 1)]
    out = distance_distribution(*_split(embeddings))
    np.testing.assert_array_equal(out["bin_edges"], np.linspace(0.0, 2.0, 51))
    assert out["positive_hist"][0] == 2 and out["positive_hist"].sum() == 2
    assert out["negative_hist"][25] == 4 and out["negative_hist"].sum() == 4
    assert out["positive_mean_distance"] == 0.0
    assert out["negative_mean_distance"] == 1.0


def test_distance_distribution_mean_matches_enumeration():
    rng = np.random.default_rng(5)
    embeddings = [
        (unit(rng.normal(size=8) + 2.0 * np.eye(8)[i % 4]), i % 4) for i in range(100)
    ]
    out = distance_distribution(*_split(embeddings))
    mat = np.stack([e for e, _ in embeddings])
    ids = np.array([i for _, i in embeddings])
    sims = mat @ mat.T
    iu = np.triu_indices(len(ids), k=1)
    same = ids[iu[0]] == ids[iu[1]]
    assert out["n_positive_pairs"] == int(same.sum())
    assert out["n_negative_pairs"] == int((~same).sum())
    assert out["positive_mean_distance"] == pytest.approx(np.mean(1.0 - sims[iu][same]), rel=1e-12)
    assert out["negative_mean_distance"] == pytest.approx(np.mean(1.0 - sims[iu][~same]), rel=1e-12)


def test_distance_distribution_requires_both_kinds():
    e = unit([1.0, 0.0])
    with pytest.raises(ValueError, match="intra-class and one inter-class"):
        distance_distribution([e, e], [0, 0])
    with pytest.raises(ValueError, match="intra-class and one inter-class"):
        distance_distribution([e, e], [0, 1])


@pytest.mark.parametrize("bad", UNRANKABLE.values(), ids=UNRANKABLE.keys())
def test_distance_distribution_rejects_unrankable_vector(bad):
    # unchecked, the zero vector's pairs fall out of both histograms
    # (1 of 2 positive and 2 of 4 negative pairs) and the positive mean is NaN
    vectors = [[1.0, 0.0], bad, [0.0, 1.0], [1.0, 1.0]]
    with pytest.raises(ValueError, match="^embedding vector 1 has norm "):
        distance_distribution(vectors, [0, 0, 1, 1])


def test_mining_quality_all_correct():
    rng = np.random.default_rng(2)
    store, _ = random_store(rng, cams_vis=2, cams_ir=2, max_per_cam=2)
    cfg = TrainConfig(total_epochs=10, intra_start_epoch=0, cross_start_epoch=0)
    report = build_mining_report(store, Modality.VIS, PositiveKind.INTRA_MODAL, 0, cfg)
    gt = {}
    for m in (Modality.VIS, Modality.IR):
        for p in store.modality_prototypes(m):
            gt[p.tracklet_id] = 7  # single identity: every pair is correct
    precision, recall = mining_quality(report, gt)
    if any(r.accepted for r in report.rows):
        assert precision == 1.0
        assert 0.0 < recall <= 1.0


def _one_row_report(source, candidates, threshold, weights):
    """A one-source report; ``weights`` maps each accepted target to its weight."""
    return MiningReport(
        source_modality=Modality.VIS, kind=PositiveKind.INTRA_MODAL, epoch=0,
        sources=[source],
        source_rows=np.array([0]),
        cameras=np.array([[c for c, _, _ in candidates]]),
        targets=np.array([[t for _, t, _ in candidates]], dtype=object),
        target_rows=np.arange(1, 1 + len(candidates))[None],
        sims=np.array([[s for _, _, s in candidates]]),
        thresholds=[threshold],
        accepted=np.array([[t in weights for _, t, _ in candidates]]),
        weights=np.array([[weights.get(t, 0.0) for _, t, _ in candidates]]),
    )


def test_mining_quality_empty_accepted():
    report = _one_row_report("a", [(1, "b", 0.5)], 0.9, {})
    assert report.rows == [MiningRow(source="a", s_max=0.5, threshold=0.9,
                                     candidates=[(1, "b", 0.5)], accepted=[])]
    precision, recall = mining_quality(report, {"a": 0, "b": 0})
    assert precision is None
    assert recall == 0.0


def test_mining_quality_hand_counts():
    # six prototypes; source s0 accepts one true and one false target,
    # and skips a true candidate in a third camera
    report = _one_row_report(
        "s0", [(1, "t1", 0.9), (2, "t2", 0.7), (3, "t3", 0.5)], 0.6,
        {"t1": 0.6, "t2": 0.4},
    )
    assert report.rows == [MiningRow(
        source="s0", s_max=0.9, threshold=0.6,
        candidates=[(1, "t1", 0.9), (2, "t2", 0.7), (3, "t3", 0.5)],
        accepted=[("t1", 0.9, 0.6), ("t2", 0.7, 0.4)],
    )]
    gt = {"s0": 1, "t1": 1, "t2": 2, "t3": 1}
    precision, recall = mining_quality(report, gt)
    assert precision == pytest.approx(0.5)  # 1 of 2 accepted correct
    assert recall == pytest.approx(0.5)  # t1 accepted, t3 (true candidate) missed


def _pairwise_histograms(vectors, ids, n_bins=50):
    """Reference: every pair i < j in a Python loop, one ``np.dot`` each."""
    mat = np.stack(vectors).astype(np.float64)
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    dists = {True: [], False: []}
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            d = min(max(1.0 - float(np.dot(mat[i], mat[j])), 0.0), 2.0)
            dists[ids[i] == ids[j]].append(d)
    edges = np.linspace(0.0, 2.0, n_bins + 1)
    return {kind: (np.histogram(d, bins=edges)[0], len(d), float(np.mean(d)))
            for kind, d in dists.items()}


def _assert_matches_pair_loop(vectors, ids):
    out = distance_distribution(vectors, ids)
    ref = _pairwise_histograms(vectors, ids)
    for kind, name in ((True, "positive"), (False, "negative")):
        hist, count, mean = ref[kind]
        np.testing.assert_array_equal(out[f"{name}_hist"], hist)
        assert out[f"n_{name}_pairs"] == count == hist.sum()
        assert out[f"{name}_mean_distance"] == pytest.approx(mean, rel=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_distance_distribution_matches_enumerated_pairs(seed, monkeypatch):
    # blocks of 7 rows over 60-62 tracklets: several full blocks and a short one
    monkeypatch.setattr(evaluator, "_ROW_BLOCK", 7)
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 7, size=60 + seed)
    _assert_matches_pair_loop([rng.normal(size=5) for _ in labels], labels.tolist())


def test_distance_distribution_matches_enumerated_pairs_across_blocks():
    rng = np.random.default_rng(3)
    n = evaluator._ROW_BLOCK + 44  # one full block of the default size, then a short one
    labels = rng.integers(0, 40, size=n)
    _assert_matches_pair_loop([rng.normal(size=6) for _ in labels], labels.tolist())


def test_retrieval_ids_of_2_63_or_more_are_refused_not_merged():
    # np.array([2**63, 0]) is float64, where 2**63 and 2**63 + 1 are one
    # value: the query below had rank-1 1.0 with no true match in the gallery
    e0, e1, e2 = unit([1.0, 0.0]), unit([0.9, 0.1]), unit([0.0, 1.0])
    with pytest.raises(ValueError, match="^query identities must be integers within int64$"):
        evaluate_retrieval([(e0, 2**63 + 1)], [(e1, 2**63), (e2, 0)])
    with pytest.raises(ValueError, match="^gallery identities must be integers within int64$"):
        evaluate_retrieval([(e0, 0)], [(e1, 2**63), (e2, 0)])
    for bad in (1.5, "1", None):
        with pytest.raises(ValueError, match="query identities must be integers"):
            evaluate_retrieval([(e0, bad)], [(e1, 1)])
    res = evaluate_retrieval([(e0, 2**63 - 1)], [(e2, -2**63), (e1, 2**63 - 1)], max_rank=2)
    assert res.cmc.tolist() == [1.0, 1.0]


def test_retrieval_metrics_on_matrices_is_evaluate_retrieval():
    rng = np.random.default_rng(5)
    q_mat, g_mat = rng.normal(size=(7, 4)), rng.normal(size=(11, 4))
    q_ids, g_ids = rng.integers(0, 3, size=7), np.arange(11) % 3
    kept = q_mat.copy(), g_mat.copy()
    a = evaluator.retrieval_metrics(q_mat, q_ids, g_mat, g_ids, max_rank=6)
    b = evaluate_retrieval(list(zip(q_mat, q_ids.tolist())), list(zip(g_mat, g_ids.tolist())),
                           max_rank=6)
    assert a.cmc.tobytes() == b.cmc.tobytes() and a.mean_ap == b.mean_ap
    assert (a.n_query, a.n_gallery) == (7, 11)
    # the caller's matrices are not scaled in place
    assert q_mat.tobytes() == kept[0].tobytes() and g_mat.tobytes() == kept[1].tobytes()
