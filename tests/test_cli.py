import json

import pytest

from hitpro.cli import main


def write_config(path, **kw):
    path.write_text(json.dumps(kw))
    return str(path)


ZERO_NOISE = dict(
    n_identities=8, cams_vis=2, cams_ir=2, d_in=8, d_latent=4,
    tracklets_per_identity_per_camera=1, frame_len_min=6, frame_len_max=8,
    camera_offset_scale=0.0, modality_transform_scale=0.0,
    frame_noise=0.0, walk_step=0.0,
    embed_dim=12, ffn_dim=24, pool_hidden_dim=12, n_tte_layers=1,
    seq_len=4, n_subtracklets=2, total_epochs=2, iters_per_epoch=3,
    intra_start_epoch=0, cross_start_epoch=1, lr=0.005, seed=5,
)


def test_unknown_subcommand_exit_1(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err


def test_missing_required_arg_exit_1(capsys):
    assert main(["train", "--out", "x"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err and "--data" in err


def test_gen_writes_dataset_and_config(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", **ZERO_NOISE)
    out = tmp_path / "data"
    assert main(["gen", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()
    effective = json.loads((out / "effective_config.json").read_text())
    assert effective["seed"] == 5
    assert effective["command"] == "gen"
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["tracklets"]) == 32


def test_gen_deterministic_bytes(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", **ZERO_NOISE)
    main(["gen", "--config", cfg, "--out", str(tmp_path / "a")])
    main(["gen", "--config", cfg, "--out", str(tmp_path / "b")])
    a = sorted((tmp_path / "a").glob("*.f32"))
    b = sorted((tmp_path / "b").glob("*.f32"))
    assert [p.name for p in a] == [p.name for p in b]
    for pa, pb in zip(a, b):
        assert pa.read_bytes() == pb.read_bytes()
    assert (tmp_path / "a" / "manifest.json").read_bytes() == (
        tmp_path / "b" / "manifest.json"
    ).read_bytes()


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", bogus_key=1)
    assert main(["gen", "--config", cfg, "--out", str(tmp_path / "d")]) == 2
    assert "bogus_key" in capsys.readouterr().err


def test_full_pipeline_zero_noise(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", **ZERO_NOISE)
    data = tmp_path / "data"
    run = tmp_path / "run"
    rep = tmp_path / "rep"
    mine_out = tmp_path / "mine"
    assert main(["gen", "--config", cfg, "--out", str(data)]) == 0
    assert main(["train", "--config", cfg, "--data", str(data), "--out", str(run)]) == 0
    assert (run / "checkpoint.hpt").exists()
    metrics = json.loads((run / "metrics.json").read_text())
    assert len(metrics["epochs"]) == 2
    assert main([
        "eval", "--config", cfg, "--data", str(data),
        "--checkpoint", str(run / "checkpoint.hpt"), "--out", str(rep),
        "--n-pairs", "500",
    ]) == 0
    report = json.loads((rep / "report.json").read_text())
    assert report["ir_to_vis"]["rank1"] == 1.0
    assert report["vis_to_ir"]["rank1"] == 1.0
    assert len(report["embeddings"]) == 32
    assert len(report["distance_distribution"]["positive_distances"]) == 500
    assert main([
        "mine", "--config", cfg, "--data", str(data),
        "--checkpoint", str(run / "checkpoint.hpt"), "--out", str(mine_out),
    ]) == 0
    mined = json.loads((mine_out / "mining_report.json").read_text())
    assert mined["vis_intra_modal"]["precision"] == 1.0
    assert mined["ir_cross_modal"]["precision"] == 1.0


def test_train_determinism_across_threads(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", **ZERO_NOISE)
    data = tmp_path / "data"
    main(["gen", "--config", cfg, "--out", str(data)])
    for label, threads in (("t1", "1"), ("t4", "4")):
        assert main([
            "train", "--config", cfg, "--data", str(data),
            "--out", str(tmp_path / label), "--threads", threads,
        ]) == 0
    assert (tmp_path / "t1" / "checkpoint.hpt").read_bytes() == (
        tmp_path / "t4" / "checkpoint.hpt"
    ).read_bytes()
    m1 = (tmp_path / "t1" / "metrics.json").read_bytes()
    m4 = (tmp_path / "t4" / "metrics.json").read_bytes()
    assert m1 == m4


def test_ablation_flags_recorded(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", **ZERO_NOISE)
    data = tmp_path / "data"
    main(["gen", "--config", cfg, "--out", str(data)])
    out = tmp_path / "ablate"
    assert main([
        "train", "--config", cfg, "--data", str(data), "--out", str(out),
        "--no-dts", "--no-swa", "--no-hls", "--no-imcc", "--no-cm",
        "--fixed-threshold", "0.5", "--tte-layers", "0", "--epochs", "1", "--iters", "2",
    ]) == 0
    effective = json.loads((out / "effective_config.json").read_text())
    assert effective["use_dts"] is False
    assert effective["use_swa"] is False
    assert effective["use_hls"] is False
    assert effective["use_imcc"] is False
    assert effective["use_cm"] is False
    assert effective["fixed_threshold"] == 0.5
    assert effective["n_tte_layers"] == 0
    assert effective["total_epochs"] == 1
    assert effective["iters_per_epoch"] == 2


def test_gradcheck_exit_codes(tmp_path, capsys):
    assert main(["gradcheck", "--seed", "7", "--out", str(tmp_path / "g")]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out
    report = json.loads((tmp_path / "g" / "gradcheck_report.json").read_text())
    assert report["max_rel_error"] < 1e-4
    assert (tmp_path / "g" / "effective_config.json").exists()


def test_thread_env_not_read(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "cfg.json", **ZERO_NOISE)
    monkeypatch.setenv("HITPRO_THREADS", "abc")
    out = tmp_path / "envtest"
    assert main(["gen", "--config", cfg, "--out", str(out)]) == 0
    effective = json.loads((out / "effective_config.json").read_text())
    assert "threads" not in effective


@pytest.mark.parametrize(
    "key, value", [("use_dts", "false"), ("use_swa", "no"), ("total_epochs", "2"),
                   ("total_epochs", 2.0), ("n_tte_layers", True), ("lr", True),
                   ("frame_noise", "0.1")],
)
def test_config_value_of_wrong_type_rejected(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path / "cfg.json", **{**ZERO_NOISE, key: value})
    data = tmp_path / "data"
    assert main(["gen", "--config", cfg, "--out", str(data)]) == 2
    assert key in capsys.readouterr().err
    assert not data.exists()


def test_config_number_types(tmp_path):
    # float fields (frame_noise, lr) take JSON integers
    cfg = write_config(tmp_path / "cfg.json", **{**ZERO_NOISE, "frame_noise": 0, "lr": 1})
    out = tmp_path / "d"
    assert main(["gen", "--config", cfg, "--out", str(out)]) == 0
    effective = json.loads((out / "effective_config.json").read_text())
    assert effective["frame_noise"] == 0 and effective["lr"] == 1


def test_config_file_not_an_object_rejected(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    assert main(["gen", "--config", str(path), "--out", str(tmp_path / "d")]) == 2
    assert "JSON object" in capsys.readouterr().err


def test_seed_override(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", **ZERO_NOISE)
    out = tmp_path / "s"
    assert main(["gen", "--config", cfg, "--out", str(out), "--seed", "99"]) == 0
    assert json.loads((out / "effective_config.json").read_text())["seed"] == 99
