"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The noisy end-to-end
configuration (dataset noise scales, encoder size, learning rate, seeds) was
calibrated once and is frozen here.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import hitpro
from hitpro.cli import main as cli_main
from hitpro.datamodel import Modality, PositiveKind, Prototype, PrototypeStore, TrainConfig
from hitpro.encoder import encoder_init
from hitpro.evaluator import evaluate_dataset, evaluate_retrieval
from hitpro.gradcheck import run_gradcheck
from hitpro.mining import mine_positive_sets, rho_schedule, soft_weights
from hitpro.objective import ema_update, loss_cross_modal, loss_imcc, loss_intra_camera, total_loss
from hitpro.synthgen import GenConfig, generate_dataset
from hitpro.trainer import train

from conftest import random_store
from oracles import naive_intra_camera_loss, naive_mine, naive_weighted_positive_loss


def report(criterion: int, message: str) -> None:
    print(f"[acceptance] criterion {criterion}: PASS - {message}", flush=True)


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


# --------------------------------------------------------------------------
# frozen noisy end-to-end configuration (criteria 6 and 7)

NOISY_SEEDS = (0, 1, 2, 3, 4)
PRIMARY_SEED = 0


def noisy_gen_config(seed: int) -> GenConfig:
    return GenConfig(
        n_identities=50, cams_vis=2, cams_ir=2, d_in=24, d_latent=8,
        tracklets_per_identity_per_camera=1, frame_len_min=8, frame_len_max=16,
        camera_offset_scale=0.5, modality_transform_scale=0.35,
        frame_noise=0.3, walk_step=0.1, seed=seed,
    )


def noisy_train_config(seed: int, **overrides) -> TrainConfig:
    base = dict(
        d_in=24, embed_dim=32, ffn_dim=64, pool_hidden_dim=32, n_tte_layers=1,
        seq_len=6, n_subtracklets=4, loss_temp=0.05, weight_temp=0.1,
        thresh_init=0.99, thresh_final=0.90, ema_momentum=0.2,
        intra_start_epoch=5, cross_start_epoch=15, total_epochs=30,
        iters_per_epoch=50, batch_cameras=2, batch_tracklets=2, batch_subs=2,
        lr=0.005, sgd_momentum=0.9, lr_decay_every=20, lr_decay_factor=0.1,
        seed=seed,
    )
    base.update(overrides)
    return TrainConfig(**base)


def untrained_rank1(dataset, cfg) -> float:
    params = encoder_init(
        d_in=dataset.d_in, embed_dim=cfg.embed_dim, ffn_dim=cfg.ffn_dim,
        pool_hidden_dim=cfg.pool_hidden_dim, n_tte_layers=cfg.n_tte_layers,
        seq_len=cfg.seq_len, seed=cfg.seed,
    )
    return float(evaluate_dataset(params, dataset, cfg)["IR->VIS"].cmc[0])


def trained_rank1(dataset, cfg) -> float:
    result = train(dataset, cfg)
    return float(evaluate_dataset(result.params, dataset, cfg)["IR->VIS"].cmc[0])


ABLATIONS = (
    ("ic_only", {"use_imcc": False, "use_cm": False}),
    ("cm_only", {"use_imcc": False}),
    ("no_dts", {"use_dts": False, "fixed_threshold": 0.7}),
    ("no_swa", {"use_swa": False}),
)


def noisy_job(job):
    """One job of ``noisy_runs``: for ``(seed, None)`` the seed's untrained
    and trained rank-1, for ``(seed, overrides)`` the trained rank-1 of an
    ablation. Returns it with the job's own seconds, generation included."""
    seed, overrides = job
    t0 = time.perf_counter()
    dataset = generate_dataset(noisy_gen_config(seed))
    if overrides is None:
        cfg = noisy_train_config(seed)
        result = {"baseline": untrained_rank1(dataset, cfg), "full": trained_rank1(dataset, cfg)}
    else:
        result = trained_rank1(dataset, noisy_train_config(seed, **overrides))
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def noisy_runs():
    """Five seeded full runs plus the seed-0 ablations; shared by 6 and 7.

    The nine jobs run on two spawned processes, results in job order.
    ``elapsed_full_s`` is the sum of the five full runs' own times.
    """
    jobs = [(seed, None) for seed in NOISY_SEEDS]
    jobs += [(PRIMARY_SEED, overrides) for _, overrides in ABLATIONS]
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        done = pool.map_async(noisy_job, jobs, chunksize=1).get(timeout=1200)
    full, ablations = done[:len(NOISY_SEEDS)], done[len(NOISY_SEEDS):]
    return {
        "runs": {seed: result for seed, (result, _) in zip(NOISY_SEEDS, full)},
        "ablations": {name: result for (name, _), (result, _) in zip(ABLATIONS, ablations)},
        "elapsed_full_s": sum(seconds for _, seconds in full),
    }


# --------------------------------------------------------------------------
# criterion 1: gradient fidelity


def test_criterion_1_gradient_fidelity():
    result = run_gradcheck(seed=7)
    assert set(result["per_depth"]) == {0, 1, 2}
    assert result["elapsed_s"] < 30.0
    for depth, err in result["per_depth"].items():
        assert err < 1e-4, f"tte_layers={depth}: rel error {err}"
    report(1, f"max rel error {result['max_rel_error']:.2e} in {result['elapsed_s']:.1f}s")


# --------------------------------------------------------------------------
# criterion 2: loss oracles


def _random_loss_instance(rng):
    cams_vis = int(rng.integers(1, 4))
    cams_ir = int(rng.integers(1, 3))  # <= 5 cameras total
    store, groups = random_store(rng, cams_vis=cams_vis, cams_ir=cams_ir,
                                 max_per_cam=4, d=6)
    cfg = TrainConfig(total_epochs=10, intra_start_epoch=0, cross_start_epoch=0,
                      thresh_init=0.9, thresh_final=0.9)
    intra, cross = {}, {}
    for modality in (Modality.VIS, Modality.IR):
        for wps in mine_positive_sets(store, modality, PositiveKind.INTRA_MODAL, 0, cfg):
            intra[wps.source] = wps
        for wps in mine_positive_sets(store, modality, PositiveKind.CROSS_MODAL, 0, cfg):
            cross[wps.source] = wps
    sources = (store.modality_prototypes(Modality.VIS)
               + store.modality_prototypes(Modality.IR))
    batch = []
    for i in rng.choice(len(sources), size=int(rng.integers(1, 9)), replace=True):
        batch.append((unit(rng.normal(size=6)), sources[int(i)].tracklet_id))
    lookup = {p.tracklet_id: (p.modality, p.camera_id) for p in sources}
    oracle_queries = [
        (q.tolist(), tid, lookup[tid][0], lookup[tid][1]) for q, tid in batch
    ]
    return store, groups, intra, cross, batch, oracle_queries, lookup


def test_criterion_2_loss_oracles():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        store, groups, intra, cross, batch, oq, lookup = _random_loss_instance(rng)
        tau = 0.05

        got, _ = loss_intra_camera(batch, store, tau)
        want = naive_intra_camera_loss(oq, groups, tau)
        worst = max(worst, abs(got - want))
        assert abs(got - want) < 1e-10

        for loss_fn, sets in ((loss_imcc, intra), (loss_cross_modal, cross)):
            got, _ = loss_fn(batch, store, sets, tau)
            oracle_sets = {s: list(w.entries) for s, w in sets.items() if w.entries}
            want = naive_weighted_positive_loss(oq, oracle_sets, groups, lookup, tau)
            worst = max(worst, abs(got - want))
            assert abs(got - want) < 1e-10
    report(2, f"3 losses x 20 instances, worst abs deviation {worst:.1e}")


# --------------------------------------------------------------------------
# criterion 3: mining oracle


def test_criterion_3_mining_oracle():
    checked = 0
    for seed in range(50):
        rng = np.random.default_rng(2000 + seed)
        store, groups = random_store(
            rng, cams_vis=int(rng.integers(1, 5)), cams_ir=int(rng.integers(1, 5)),
            max_per_cam=6, d=6,
        )
        assert len(store) <= 50
        for kind in (PositiveKind.INTRA_MODAL, PositiveKind.CROSS_MODAL):
            per_rho_sets = {}
            for rho in (1.0, 0.95, 0.90):
                cfg = TrainConfig(total_epochs=10, intra_start_epoch=0,
                                  cross_start_epoch=0, thresh_init=rho,
                                  thresh_final=rho)
                for modality in (Modality.VIS, Modality.IR):
                    mined = {
                        s.source: list(s.entries)
                        for s in mine_positive_sets(store, modality, kind, 0, cfg)
                    }
                    expected = naive_mine(
                        groups, modality, kind is PositiveKind.CROSS_MODAL,
                        rho, cfg.weight_temp,
                    )
                    assert set(mined) == set(expected)
                    for src in expected:
                        assert [t for t, _ in mined[src]] == [t for t, _ in expected[src]]
                        np.testing.assert_allclose(
                            [w for _, w in mined[src]],
                            [w for _, w in expected[src]], atol=1e-12,
                        )
                    per_rho_sets.setdefault(modality, {})[rho] = {
                        src: {t for t, _ in entries} for src, entries in mined.items()
                    }
                    checked += 1
            # subset monotonicity in rho on every instance
            for modality, by_rho in per_rho_sets.items():
                for src in by_rho[1.0]:
                    assert by_rho[1.0][src] <= by_rho[0.95][src] <= by_rho[0.90][src]
    report(3, f"{checked} store/direction/rho combinations match brute force")


# --------------------------------------------------------------------------
# criterion 4: analytic spot values


def test_criterion_4_spot_values():
    cfg = TrainConfig(total_epochs=60)
    assert rho_schedule(0, cfg) == pytest.approx(0.99)
    assert rho_schedule(60, cfg) == pytest.approx(0.90)

    np.testing.assert_allclose(soft_weights([0.9, 0.7], 0.1), [0.8808, 0.1192], atol=1e-4)

    store = PrototypeStore([Prototype("a", Modality.VIS, 0, np.array([1.0, 0.0]))])
    ema_update(store, [(np.array([0.0, 1.0]), "a")], {}, {}, momentum=0.2)
    np.testing.assert_allclose(store.get("a").vector, [0.9701, 0.2425], atol=1e-4)

    gallery = [(unit([1.0, 0.0]), 0), (unit([0.0, 1.0]), 1)]
    queries = [(unit([1.0, 0.1]), 0), (unit([1.0, 0.05]), 1)]
    res = evaluate_retrieval(queries, gallery, max_rank=2)
    assert res.cmc[0] == 0.5
    assert res.cmc[1] == 1.0
    assert res.mean_ap == 0.75
    report(4, "rho endpoints, softmax weights, EMA blend, CMC/mAP hand case")


# --------------------------------------------------------------------------
# criterion 5: degenerate end-to-end


def test_criterion_5_degenerate_end_to_end():
    t0 = time.perf_counter()
    dataset = generate_dataset(
        GenConfig(
            n_identities=20, cams_vis=2, cams_ir=2, d_in=12, d_latent=8,
            tracklets_per_identity_per_camera=1, frame_len_min=6, frame_len_max=10,
            camera_offset_scale=0.0, modality_transform_scale=0.0,
            frame_noise=0.0, walk_step=0.0, seed=11,
        )
    )
    cfg = TrainConfig(
        d_in=12, embed_dim=16, ffn_dim=32, pool_hidden_dim=16, n_tte_layers=1,
        seq_len=6, n_subtracklets=4, total_epochs=4, iters_per_epoch=10,
        intra_start_epoch=1, cross_start_epoch=2, lr=0.005, seed=11,
    )
    result = train(dataset, cfg)
    for record in result.epochs:
        for family, stats in record["mining"].items():
            assert stats["precision"] == 1.0, (record["epoch"], family)
    retrieval = evaluate_dataset(result.params, dataset, cfg)
    assert retrieval["IR->VIS"].cmc[0] == 1.0
    assert retrieval["VIS->IR"].cmc[0] == 1.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(5, f"precision 1.0 every epoch, rank-1 = 1.0 both ways in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# criterion 6: noisy end-to-end


def test_criterion_6_noisy_end_to_end(noisy_runs):
    runs = noisy_runs["runs"]
    primary = runs[PRIMARY_SEED]
    assert primary["baseline"] <= 0.40, "frozen config must start hard"
    assert primary["full"] >= 0.80
    assert primary["full"] - primary["baseline"] >= 0.20
    n_good = sum(1 for r in runs.values() if r["full"] >= 0.80)
    assert n_good >= 4, {s: r["full"] for s, r in runs.items()}
    assert noisy_runs["elapsed_full_s"] < 600.0
    report(
        6,
        "baseline {:.2f} -> trained {:.2f}; {} of {} seeds >= 0.80 in {:.0f}s".format(
            primary["baseline"], primary["full"], n_good, len(runs),
            noisy_runs["elapsed_full_s"],
        ),
    )


# --------------------------------------------------------------------------
# criterion 7: ablation direction checks


def test_criterion_7_ablation_directions(noisy_runs):
    full = noisy_runs["runs"][PRIMARY_SEED]["full"]
    ab = noisy_runs["ablations"]
    assert ab["ic_only"] < full, (ab["ic_only"], full)
    assert ab["cm_only"] < full, (ab["cm_only"], full)
    assert ab["no_dts"] <= full + 0.02, (ab["no_dts"], full)
    assert ab["no_swa"] <= full + 0.02, (ab["no_swa"], full)
    report(
        7,
        "full {:.2f} > ic-only {:.2f}, > cm-without-imcc {:.2f}; "
        "no-dts {:.2f} and no-swa {:.2f} within tolerance".format(
            full, ab["ic_only"], ab["cm_only"], ab["no_dts"], ab["no_swa"],
        ),
    )


# --------------------------------------------------------------------------
# criterion 8: scheduling exactness


def test_criterion_8_scheduling_exactness():
    rng = np.random.default_rng(42)
    store, _ = random_store(rng, cams_vis=2, cams_ir=2, max_per_cam=3, d=6)
    cfg = TrainConfig(total_epochs=20, intra_start_epoch=5, cross_start_epoch=15,
                      thresh_init=0.9, thresh_final=0.9)
    intra, cross = {}, {}
    for modality in (Modality.VIS, Modality.IR):
        for wps in mine_positive_sets(store, modality, PositiveKind.INTRA_MODAL, 0, cfg):
            intra[wps.source] = wps
        for wps in mine_positive_sets(store, modality, PositiveKind.CROSS_MODAL, 0, cfg):
            cross[wps.source] = wps
    vis = [(unit(rng.normal(size=6)), p.tracklet_id)
           for p in store.modality_prototypes(Modality.VIS)[:3]]
    ir = [(unit(rng.normal(size=6)), p.tracklet_id)
          for p in store.modality_prototypes(Modality.IR)[:3]]

    for epoch in range(cfg.intra_start_epoch):
        breakdown = total_loss(epoch, vis, ir, store, intra, cross, cfg)
        ic_value = 0.0
        ic_grads = []
        for batch in (vis, ir):
            v, g = loss_intra_camera(batch, store, cfg.loss_temp)
            ic_value += v
            ic_grads.extend(g)
        assert breakdown.l_total == ic_value  # bitwise equality
        assert breakdown.l_imcc == 0.0 and breakdown.l_cm == 0.0
        for a, b in zip(breakdown.grads, ic_grads):
            np.testing.assert_array_equal(a, b)
    report(8, "epochs before the schedule gate are bitwise pure intra-camera")


# --------------------------------------------------------------------------
# criterion 9: determinism


DETERMINISM_CONFIG = dict(
    n_identities=10, cams_vis=2, cams_ir=2, d_in=10, d_latent=5,
    tracklets_per_identity_per_camera=1, frame_len_min=6, frame_len_max=9,
    camera_offset_scale=0.3, modality_transform_scale=0.3,
    frame_noise=0.2, walk_step=0.1,
    embed_dim=12, ffn_dim=24, pool_hidden_dim=12, n_tte_layers=1,
    seq_len=4, n_subtracklets=2, total_epochs=2, iters_per_epoch=4,
    intra_start_epoch=0, cross_start_epoch=1, lr=0.005, seed=21,
)


def test_criterion_9_determinism(tmp_path):
    config = DETERMINISM_CONFIG
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))

    for name in ("d1", "d2"):
        assert cli_main(["gen", "--config", str(cfg_path), "--out", str(tmp_path / name)]) == 0
    files1 = sorted((tmp_path / "d1").glob("*.f32"))
    for f1 in files1:
        assert f1.read_bytes() == (tmp_path / "d2" / f1.name).read_bytes()
    assert (tmp_path / "d1" / "manifest.json").read_bytes() == (
        tmp_path / "d2" / "manifest.json").read_bytes()

    for name, threads in (("r1", "1"), ("r2", "4")):
        assert cli_main([
            "train", "--config", str(cfg_path), "--data", str(tmp_path / "d1"),
            "--out", str(tmp_path / name), "--threads", threads,
        ]) == 0
    c1 = (tmp_path / "r1" / "checkpoint.hpt").read_bytes()
    c2 = (tmp_path / "r2" / "checkpoint.hpt").read_bytes()
    assert c1 == c2
    assert (tmp_path / "r1" / "metrics.json").read_bytes() == (
        tmp_path / "r2" / "metrics.json").read_bytes()

    for name, threads in (("e1", "2"), ("e2", "8")):
        assert cli_main([
            "eval", "--config", str(cfg_path), "--data", str(tmp_path / "d1"),
            "--checkpoint", str(tmp_path / "r1" / "checkpoint.hpt"),
            "--out", str(tmp_path / name), "--threads", threads,
            "--n-pairs", "1000",
        ]) == 0
    assert (tmp_path / "e1" / "report.json").read_bytes() == (
        tmp_path / "e2" / "report.json").read_bytes()
    report(9, "datasets, checkpoints and reports byte-identical across threads")


# train, then eval, in a fresh interpreter that imports hitpro from argv[1]
_TRAIN_EVAL_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from hitpro.cli import main
config, data, out = sys.argv[2:]
assert main(["train", "--config", config, "--data", data, "--out", out + "/run"]) == 0
assert main(["eval", "--config", config, "--data", data,
             "--checkpoint", out + "/run/checkpoint.hpt", "--out", out + "/eval"]) == 0
"""


def test_criterion_9_artifacts_byte_identical_across_blas_threads(tmp_path):
    # criterion 9's --threads never reaches BLAS; OPENBLAS_NUM_THREADS is
    # read once, when a process loads the library
    cfg_path, data = tmp_path / "cfg.json", tmp_path / "data"
    cfg_path.write_text(json.dumps(DETERMINISM_CONFIG))
    assert cli_main(["gen", "--config", str(cfg_path), "--out", str(data)]) == 0
    src = Path(hitpro.__file__).resolve().parent.parent
    artifacts = {}
    for threads in ("1", "2"):
        out = tmp_path / f"blas_{threads}"
        proc = subprocess.run(
            [sys.executable, "-c", _TRAIN_EVAL_CHILD, str(src), str(cfg_path), str(data), str(out)],
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads), capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        artifacts[threads] = [(out / path).read_bytes() for path in (
            "run/checkpoint.hpt", "run/metrics.json", "eval/report.json")]
    assert artifacts["1"] == artifacts["2"]
    report(9, "checkpoint, metrics and report byte-identical at 1 and 2 BLAS threads")
