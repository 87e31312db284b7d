import dataclasses
import json
import math
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hitpro
import hitpro.encoder as encoder_mod
import hitpro.trainer as trainer_mod
from hitpro import cli, datamodel, gradcheck
from hitpro.cli import _numpy_to_list, _write_json, main
from hitpro.datamodel import (
    Dataset, Modality, TrainConfig, load_checkpoint, load_dataset, read_manifest, save_dataset,
)
from hitpro.evaluator import dataset_labels
from hitpro.prototyping import embed_tracklets
from hitpro.synthgen import GenConfig

from conftest import spy_helper_slices
from reference_loops import loop_mining_payload


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
    for name in ("a", "b"):
        assert sorted(p.name for p in (tmp_path / name).iterdir()) == [
            "effective_config.json", "frames.f32", "manifest.json"]
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
    # 8 identities x 4 tracklets: 8 * C(4, 2) intra-class pairs of C(32, 2)
    dist = report["distance_distribution"]
    assert (dist["n_positive_pairs"], dist["n_negative_pairs"]) == (48, 448)
    assert sum(dist["positive_hist"]) == 48 and sum(dist["negative_hist"]) == 448
    manifest = json.loads((data / "manifest.json").read_text())
    assert report["embeddings"] == {
        "file": "embeddings.f32", "dtype": "<f4", "shape": [32, 12],
        "tracklet_ids": [e["tracklet_id"] for e in manifest["tracklets"]],
    }
    assert (rep / "embeddings.f32").stat().st_size == 4 * 32 * 12
    assert "n_pairs" not in json.loads((rep / "effective_config.json").read_text())
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


@pytest.mark.parametrize("config_seed", [None, 11])
def test_gradcheck_records_the_seed_it_ran(tmp_path, monkeypatch, config_seed):
    ran = []
    monkeypatch.setattr(gradcheck, "run_gradcheck", lambda seed: ran.append(seed) or {
        "per_depth": {0: 0.0}, "max_rel_error": 0.0, "elapsed_s": 0.0})
    extra = [] if config_seed is None else [
        "--config", write_config(tmp_path / "cfg.json", seed=config_seed)]
    assert main(["gradcheck", *extra, "--out", str(tmp_path / "g")]) == 0
    effective = json.loads((tmp_path / "g" / "effective_config.json").read_text())
    assert ran == [7] and effective["seed"] == 7


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


@pytest.mark.parametrize("verb", ["gen", "train"])
@pytest.mark.parametrize("text", [b'{"lr": }', b"\xff{}"], ids=["json", "utf-8"])
def test_malformed_config_file_named(tmp_path, capsys, verb, text):
    path = tmp_path / "cfg.json"
    path.write_bytes(text)
    out = tmp_path / "out"
    extra = ["--data", str(tmp_path / "data")] if verb == "train" else []
    assert main([verb, "--config", str(path), *extra, "--out", str(out)]) == 2
    assert f"error: malformed config file {path}: " in capsys.readouterr().err
    assert not out.exists()


def test_seed_override(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", **ZERO_NOISE)
    out = tmp_path / "s"
    assert main(["gen", "--config", cfg, "--out", str(out), "--seed", "99"]) == 0
    assert json.loads((out / "effective_config.json").read_text())["seed"] == 99


@pytest.fixture(scope="module")
def zero_noise_run(tmp_path_factory):
    """A generated and trained ZERO_NOISE run: (config, data dir, checkpoint)."""
    root = tmp_path_factory.mktemp("zero_noise_run")
    cfg = write_config(root / "cfg.json", **ZERO_NOISE)
    data, run = root / "data", root / "run"
    assert main(["gen", "--config", cfg, "--out", str(data)]) == 0
    assert main(["train", "--config", cfg, "--data", str(data), "--out", str(run)]) == 0
    return cfg, data, run / "checkpoint.hpt"


ZERO_NOISE_TRAIN = TrainConfig(
    **{k: v for k, v in ZERO_NOISE.items() if k in TrainConfig.__dataclass_fields__})


def _eval(zero_noise_run, out, *extra):
    cfg, data, checkpoint = zero_noise_run
    return main(["eval", "--config", cfg, "--data", str(data), "--checkpoint", str(checkpoint),
                 "--out", str(out), *extra])


def test_eval_embeddings_sidecar_is_embed_tracklets(zero_noise_run, tmp_path):
    _, data, checkpoint = zero_noise_run
    assert _eval(zero_noise_run, tmp_path / "e") == 0
    params, _, _ = load_checkpoint(checkpoint)
    expected = np.asarray(embed_tracklets(params, load_dataset(data).tracklets, ZERO_NOISE_TRAIN),
                          "<f4")
    assert (tmp_path / "e" / "embeddings.f32").read_bytes() == expected.tobytes()


def test_eval_outputs_byte_identical_and_n_pairs_ignored(zero_noise_run, tmp_path):
    assert _eval(zero_noise_run, tmp_path / "a") == 0
    assert _eval(zero_noise_run, tmp_path / "b", "--n-pairs", "7") == 0
    for name in ("report.json", "embeddings.f32"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("value", ["0", "-2", "two"])
def test_eval_max_rank_below_one_is_usage_error(tmp_path, capsys, value):
    assert main(["eval", "--data", str(tmp_path / "data"), "--checkpoint", "c.hpt",
                 "--out", str(tmp_path / "e"), "--max-rank", value]) == 1
    assert "--max-rank" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


_OTHER_DIMS = [("seq_len", 5), ("embed_dim", 64), ("ffn_dim", 7), ("pool_hidden_dim", 5),
               ("n_tte_layers", 2)]


# eval's cases keep the ids they had before mine made the same check
@pytest.mark.parametrize("verb, key, value", [
    *(pytest.param("eval", key, value, id=f"{key}-{value}") for key, value in _OTHER_DIMS),
    *(pytest.param("mine", key, value, id=f"mine-{key}-{value}") for key, value in _OTHER_DIMS),
])
def test_eval_encoder_dim_other_than_the_checkpoints_names_the_key(zero_noise_run, tmp_path,
                                                                     capsys, verb, key, value):
    _, data, checkpoint = zero_noise_run
    cfg = write_config(tmp_path / "cfg.json", **{**ZERO_NOISE, key: value})
    out = tmp_path / "e"
    assert main([verb, "--config", cfg, "--data", str(data), "--checkpoint", str(checkpoint),
                 "--out", str(out)]) == 2
    assert (f"error: {key} must be {ZERO_NOISE[key]}, the checkpoint's, got {value}"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("verb", ["eval", "mine"])
def test_encoder_dims_check_names_the_first_differing_key(zero_noise_run, tmp_path, capsys,
                                                          verb):
    # two dimensions differ: the message names the one that comes first in
    # encoder.DIMS, embed_dim, not n_tte_layers
    _, data, checkpoint = zero_noise_run
    cfg = write_config(tmp_path / "cfg.json", **{**ZERO_NOISE, "n_tte_layers": 2, "embed_dim": 64})
    out = tmp_path / "e"
    assert main([verb, "--config", cfg, "--data", str(data), "--checkpoint", str(checkpoint),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: embed_dim must be 12, the checkpoint's, got 64" in err
    assert "n_tte_layers" not in err
    assert not out.exists()


@pytest.mark.parametrize("verb", ["eval", "mine"])
def test_eval_dataset_d_in_other_than_the_checkpoints_names_the_key(zero_noise_run, tmp_path,
                                                                      capsys, verb):
    cfg, _, checkpoint = zero_noise_run
    other = write_config(tmp_path / "other.json", **{**ZERO_NOISE, "d_in": 6})
    data, out = tmp_path / "data", tmp_path / "e"
    assert main(["gen", "--config", other, "--out", str(data)]) == 0
    assert main([verb, "--config", cfg, "--data", str(data), "--checkpoint", str(checkpoint),
                 "--out", str(out)]) == 2
    assert "error: d_in must be 8, the checkpoint's, got 6" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb", ["eval", "mine"])
def test_eval_and_mine_record_the_datasets_d_in_not_the_configs(zero_noise_run, tmp_path, verb):
    # the config says 6; the dataset and the checkpoint are d_in 8
    _, data, checkpoint = zero_noise_run
    cfg = write_config(tmp_path / "cfg.json", **{**ZERO_NOISE, "d_in": 6})
    out = tmp_path / verb
    assert main([verb, "--config", cfg, "--data", str(data), "--checkpoint", str(checkpoint),
                 "--out", str(out)]) == 0
    assert json.loads((out / "effective_config.json").read_text())["d_in"] == 8


def test_eval_dataset_without_labels_creates_no_out(zero_noise_run, tmp_path, capsys):
    cfg, data, checkpoint = zero_noise_run
    unlabeled, out = tmp_path / "unlabeled", tmp_path / "e"
    unlabeled.mkdir()
    manifest = json.loads((data / "manifest.json").read_text())
    for entry in manifest["tracklets"]:
        del entry["gt_identity"]
    (unlabeled / "manifest.json").write_text(json.dumps(manifest))
    (unlabeled / "frames.f32").write_bytes((data / "frames.f32").read_bytes())
    assert main(["eval", "--config", cfg, "--data", str(unlabeled),
                 "--checkpoint", str(checkpoint), "--out", str(out)]) == 2
    assert "gt_identity" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("failure", ["vis_only", "ir_only", "nan_loss"])
def test_train_that_fails_creates_no_out(zero_noise_run, tmp_path, capsys, monkeypatch, failure):
    cfg, data, _ = zero_noise_run
    if failure == "nan_loss":
        batch_loss = trainer_mod.batch_loss

        def nan_loss(*args):
            return dataclasses.replace(batch_loss(*args), l_total=math.nan)

        monkeypatch.setattr(trainer_mod, "batch_loss", nan_loss)
        message = "error: non-finite loss nan at epoch 0 iteration 0"
    else:
        dataset, data = load_dataset(data), tmp_path / failure
        kept = dataset.by_modality(Modality.VIS if failure == "vis_only" else Modality.IR)
        save_dataset(Dataset(dataset.d_in, dataset.n_cameras_vis, dataset.n_cameras_ir, kept),
                     data)
        message = "error: training requires tracklets in both modalities"
    out = tmp_path / "r"
    assert main(["train", "--config", cfg, "--data", str(data), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb", ["eval", "train"])
def test_eval_and_train_build_no_tracklet_or_manifest_entry(zero_noise_run, tmp_path,
                                                             monkeypatch, verb):
    # both verbs go from the manifest's columns and the payload's rows to
    # matrices, and eval builds no prototype store either; the spies do see
    # the .tracklets views and load_checkpoint
    cfg, data, checkpoint = zero_noise_run
    built = []

    def spy(cls, method):
        original = getattr(cls, method)

        def recorded(self, *args, **kwargs):
            built.append(cls.__name__)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, method, recorded)

    spy(datamodel.Tracklet, "__post_init__")
    spy(datamodel.ManifestEntry, "__init__")
    spy(datamodel.PrototypeStore, "_fill")  # both constructors fill the store
    if verb == "eval":
        assert _eval(zero_noise_run, tmp_path / "e") == 0
        assert built == []
    else:
        assert main(["train", "--config", cfg, "--data", str(data),
                     "--out", str(tmp_path / "r")]) == 0
        assert set(built) == {"PrototypeStore"}
    load_dataset(data).tracklets
    read_manifest(data).tracklets
    load_checkpoint(checkpoint)
    assert {"Tracklet", "ManifestEntry", "PrototypeStore"} <= set(built)


@pytest.mark.parametrize("label", [2**63, 2**63 + 1])
def test_eval_rejects_a_label_of_2_63_or_more(zero_noise_run, tmp_path, capsys, label):
    # they do not fit int64, and mixed with small ids in one numpy array
    # 2**63 and 2**63 + 1 round to one float64 identity
    cfg, data, checkpoint = zero_noise_run
    bad, out = tmp_path / "bad", tmp_path / "e"
    bad.mkdir()
    manifest = json.loads((data / "manifest.json").read_text())
    first = next(i for i, e in enumerate(manifest["tracklets"]) if e["gt_identity"] == 0)
    for entry in manifest["tracklets"]:
        if entry["gt_identity"] == 0:
            entry["gt_identity"] = label + (entry["modality"] == "IR")
    (bad / "manifest.json").write_text(json.dumps(manifest))
    (bad / "frames.f32").write_bytes((data / "frames.f32").read_bytes())
    assert main(["eval", "--config", cfg, "--data", str(bad), "--checkpoint", str(checkpoint),
                 "--out", str(out)]) == 2
    assert f"error: entry {first} gt_identity must be below 2**63" in capsys.readouterr().err
    assert not out.exists()


def _damaged_checkpoint(checkpoint, out, section=None, row=None, value=None, mutate=None):
    """A copy of ``checkpoint`` with every float of row ``row`` of
    ``section`` set to ``value``, or with ``mutate(header)`` applied."""
    raw = bytearray(checkpoint.read_bytes())
    (header_len,) = struct.unpack("<I", raw[:4])
    header = json.loads(raw[4 : 4 + header_len])
    if mutate is not None:
        mutate(header)
        new_header = json.dumps(header, sort_keys=True).encode()
        raw = struct.pack("<I", len(new_header)) + new_header + raw[4 + header_len :]
    else:
        [sec] = [s for s in header["sections"] if s["name"] == section]
        width = sec["shape"][1]
        at = 4 + header_len + sec["offset"] + 4 * width * row
        raw[at : at + 4 * width] = np.full(width, value, dtype="<f4").tobytes()
    out.write_bytes(bytes(raw))
    return out


def _id_in_two_groups(header):
    groups = header["store_groups"]
    groups[1]["tracklet_ids"][0] = groups[0]["tracklet_ids"][0]


@pytest.mark.parametrize("damage, named", [
    (dict(section="store.VIS.1", row=2, value=0.0), "section 'store.VIS.1' row 2 has zero norm"),
    (dict(section="store.IR.0", row=0, value=np.nan), "section 'store.IR.0' holds non-finite"),
    (dict(mutate=_id_in_two_groups), "duplicate prototype for tracklet vis_c0_i0000_r0"),
], ids=["zero_norm_row", "nan", "id_in_two_groups"])
def test_eval_refuses_a_damaged_checkpoint_store(zero_noise_run, tmp_path, capsys, damage, named):
    # eval builds no store, but still checks every store section
    cfg, data, checkpoint = zero_noise_run
    bad, out = _damaged_checkpoint(checkpoint, tmp_path / "bad.hpt", **damage), tmp_path / "e"
    assert main(["eval", "--config", cfg, "--data", str(data), "--checkpoint", str(bad),
                 "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_mine_reads_labels_from_manifest_only(zero_noise_run, tmp_path):
    cfg, data, checkpoint = zero_noise_run
    manifest_only = tmp_path / "manifest_only"
    manifest_only.mkdir()
    (manifest_only / "manifest.json").write_bytes((data / "manifest.json").read_bytes())
    for name, src in (("full", data), ("manifest", manifest_only)):
        assert main(["mine", "--config", cfg, "--data", str(src), "--checkpoint", str(checkpoint),
                     "--out", str(tmp_path / name)]) == 0
    full = (tmp_path / "full" / "mining_report.json").read_bytes()
    assert (tmp_path / "manifest" / "mining_report.json").read_bytes() == full
    assert json.loads(full)["vis_intra_modal"]["precision"] == 1.0


def _mine(zero_noise_run, out, *extra):
    cfg, data, checkpoint = zero_noise_run
    return main(["mine", "--config", cfg, "--data", str(data), "--checkpoint", str(checkpoint),
                 "--out", str(out), *extra])


@pytest.mark.parametrize("epoch", [None, 0, 1])
def test_mine_writes_the_dict_payload_bytes(zero_noise_run, tmp_path, epoch):
    _, data, checkpoint = zero_noise_run
    extra = [] if epoch is None else ["--epoch", str(epoch)]
    assert _mine(zero_noise_run, tmp_path / "m", *extra) == 0
    _, store, saved_epoch = load_checkpoint(checkpoint)
    payload = loop_mining_payload(store, saved_epoch if epoch is None else epoch,
                                  ZERO_NOISE_TRAIN, dataset_labels(read_manifest(data)))
    _write_json(tmp_path / "oracle.json", payload)
    assert (tmp_path / "m" / "mining_report.json").read_bytes() == (
        tmp_path / "oracle.json").read_bytes()


@pytest.mark.parametrize("value", ["-1", "99"])
def test_mine_epoch_outside_schedule_writes_nothing(zero_noise_run, tmp_path, capsys, value):
    assert _mine(zero_noise_run, tmp_path / "m", "--epoch", value) == 2
    assert f"--epoch {value} outside [0, 2]" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def _rewrite_header(checkpoint, out, mutate):
    """Copy ``checkpoint`` to ``out`` with ``mutate(header)`` applied to its header."""
    raw = checkpoint.read_bytes()
    (header_len,) = struct.unpack("<I", raw[:4])
    header = json.loads(raw[4 : 4 + header_len])
    mutate(header)
    new_header = json.dumps(header, sort_keys=True).encode()
    out.write_bytes(struct.pack("<I", len(new_header)) + new_header + raw[4 + header_len :])
    return out


def test_mine_blames_a_negative_checkpoint_epoch_not_the_flag(zero_noise_run, tmp_path, capsys):
    cfg, data, checkpoint = zero_noise_run
    bad = _rewrite_header(checkpoint, tmp_path / "bad.hpt",
                          lambda header: header.update(epoch=-3))
    assert main(["mine", "--config", cfg, "--data", str(data), "--checkpoint",
                 str(bad), "--out", str(tmp_path / "m")]) == 2
    err = capsys.readouterr().err
    assert "epoch must be at least 0, got -3" in err and "--epoch" not in err
    assert not (tmp_path / "m").exists()


def test_mine_rejects_a_checkpoint_section_no_store_group_claims(zero_noise_run, tmp_path, capsys):
    cfg, data, checkpoint = zero_noise_run
    bad = _rewrite_header(checkpoint, tmp_path / "bad.hpt",
                          lambda header: header["store_groups"].pop())
    assert main(["mine", "--config", cfg, "--data", str(data), "--checkpoint",
                 str(bad), "--out", str(tmp_path / "m")]) == 2
    assert "sections ['store.IR.1'] belong to neither" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def test_mine_rejects_negative_frame_count(zero_noise_run, tmp_path, capsys):
    cfg, data, checkpoint = zero_noise_run
    bad = tmp_path / "bad"
    bad.mkdir()
    manifest = json.loads((data / "manifest.json").read_text())
    manifest["tracklets"][3]["n_frames"] = -1
    (bad / "manifest.json").write_text(json.dumps(manifest))
    assert main(["mine", "--config", cfg, "--data", str(bad), "--checkpoint", str(checkpoint),
                 "--out", str(tmp_path / "m")]) == 2
    assert "entry 3 n_frames must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "m" / "mining_report.json").exists()


def test_mine_rejects_negative_gt_identity(zero_noise_run, tmp_path, capsys):
    cfg, data, checkpoint = zero_noise_run
    bad = tmp_path / "bad"
    bad.mkdir()
    manifest = json.loads((data / "manifest.json").read_text())
    manifest["tracklets"][2]["gt_identity"] = -1
    (bad / "manifest.json").write_text(json.dumps(manifest))
    assert main(["mine", "--config", cfg, "--data", str(bad), "--checkpoint", str(checkpoint),
                 "--out", str(tmp_path / "m")]) == 2
    assert "entry 2 gt_identity must be at least 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def _json_dumps(payload):
    return json.dumps(payload, indent=2, sort_keys=True, default=_numpy_to_list)


def test_write_json_bytes(tmp_path):
    payload = {"per_depth": {2: 1e-9, 0: float("nan"), 1: -float("inf"), 3: float("inf")},
               "é": [np.arange(3), {}, [], (np.float32(0.5), None, True)]}
    _write_json(tmp_path / "x.json", payload)
    assert (tmp_path / "x.json").read_text(encoding="utf-8") == _json_dumps(payload) + "\n"


@pytest.mark.parametrize("key, value", [
    ("iters_per_epoch", -1), ("batch_cameras", 0), ("batch_tracklets", 0), ("batch_subs", 0),
    ("lr_decay_every", 0),
])
def test_train_rejects_loop_sizes_below_range(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path / "cfg.json", **{**ZERO_NOISE, key: value})
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--data", str(tmp_path / "data"),
                 "--out", str(out)]) == 2
    assert f"{key} must be >= " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("lr", -1.0), ("lr", float("nan")), ("lr_decay_factor", -1.0), ("sgd_momentum", -3.0),
    ("loss_temp", float("nan")), ("embed_dim", 0), ("seq_len", 0),
])
def test_train_rejects_values_out_of_range(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path / "cfg.json", **{**ZERO_NOISE, key: value})
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--data", str(tmp_path / "data"),
                 "--out", str(out)]) == 2
    assert f"error: {key} must be " in capsys.readouterr().err
    assert not out.exists()


def test_mine_names_a_checkpoint_tracklet_missing_from_the_manifest(
        zero_noise_run, tmp_path, capsys):
    cfg, data, checkpoint = zero_noise_run
    manifest = json.loads((data / "manifest.json").read_text())
    dropped = manifest["tracklets"].pop(5)["tracklet_id"]
    other = tmp_path / "other"
    other.mkdir()
    (other / "manifest.json").write_text(json.dumps(manifest))
    assert main(["mine", "--config", cfg, "--data", str(other), "--checkpoint", str(checkpoint),
                 "--out", str(tmp_path / "m")]) == 2
    assert f"no ground-truth identity for tracklet {dropped!r}" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def test_main_builds_the_parser_once(tmp_path):
    cli.build_parser.cache_clear()
    assert main(["frobnicate"]) == 1
    assert main(["gen", "--out", str(tmp_path / "d"), "--seed", "1"]) == 0
    assert cli.build_parser.cache_info().misses == 1


def test_every_json_artifact_is_json_dumps_of_its_content(zero_noise_run, tmp_path):
    cfg, data, checkpoint = zero_noise_run
    common = ["--config", cfg, "--out"]
    for verb, extra in (
        ("gen", []),
        ("train", ["--data", str(data)]),
        ("eval", ["--data", str(data), "--checkpoint", str(checkpoint)]),
        ("mine", ["--data", str(data), "--checkpoint", str(checkpoint)]),
        ("gradcheck", []),
    ):
        out = tmp_path / verb
        assert main([verb, *common, str(out), *extra]) == 0
        written = sorted(p.name for p in out.glob("*.json") if p.name != "manifest.json")
        assert written == sorted({
            "gen": ["effective_config.json"],
            "train": ["effective_config.json", "metrics.json"],
            "eval": ["effective_config.json", "report.json"],
            "mine": ["effective_config.json", "mining_report.json"],
            "gradcheck": ["effective_config.json", "gradcheck_report.json"],
        }[verb])
        for name in written:
            text = (out / name).read_text(encoding="utf-8")
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("key, value", [
    ("frame_noise", float("nan")), ("camera_offset_scale", float("inf")),
    ("modality_transform_scale", float("-inf")), ("walk_step", float("nan")),
    ("frame_len_min", 0), ("frame_len_max", 5), ("cams_ir", 0), ("seed", -1),
])
def test_gen_rejects_values_out_of_range(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path / "cfg.json", **{**ZERO_NOISE, key: value})
    out = tmp_path / "data"
    assert main(["gen", "--config", cfg, "--out", str(out)]) == 2
    assert f"error: {key} must be " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb", ["gen", "train", "gradcheck"])
def test_negative_seed_flag_rejected(tmp_path, capsys, verb):
    cfg = write_config(tmp_path / "cfg.json", **ZERO_NOISE)
    out = tmp_path / "out"
    extra = ["--data", str(tmp_path / "data")] if verb == "train" else []
    assert main([verb, "--config", cfg, *extra, "--out", str(out), "--seed", "-1"]) == 2
    assert "error: seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def _past_bound(kind: str, name: str, bound):
    """The value nearest ``bound`` that breaks the declared bound ``name``."""
    if name in ("gt", "lt"):
        return float(bound) if kind == "float" else bound
    outward = -1 if name == "ge" else 1
    return math.nextafter(bound, outward * math.inf) if kind == "float" else bound + outward


def _declared_rejections():
    """(verb, key, value) for each config field: a value just past each of
    its declared bounds, NaN and +-Infinity for a float, a JSON string, and
    a JSON boolean for a numeric field (a JSON integer for a boolean one)."""
    cases = []
    for verb, schema in (("gen", GenConfig), ("train", TrainConfig)):
        for field in dataclasses.fields(schema):
            values = [str(field.default), 1 if field.type == "bool" else True]
            values += [_past_bound(field.type, name, bound)
                       for name, bound in field.metadata.items()]
            if field.type == "float":
                values += [math.nan, math.inf, -math.inf]
            cases += [pytest.param(verb, field.name, v, id=f"{verb}-{field.name}-{v!r}")
                      for v in values]
    return cases


@pytest.mark.parametrize("verb, key, value", _declared_rejections())
def test_config_value_outside_its_declaration_rejected(tmp_path, capsys, verb, key, value):
    cfg = write_config(tmp_path / "cfg.json", **{**ZERO_NOISE, key: value})
    out = tmp_path / "out"
    extra = ["--data", str(tmp_path / "data")] if verb == "train" else []
    assert main([verb, "--config", cfg, *extra, "--out", str(out)]) == 2
    assert f"error: {key} must be " in capsys.readouterr().err
    assert not out.exists()


# two TTE layers on 16-frame sequences: each training batch's backward call
# (16 samples) is above the helper thread's work constant
DEEP = dict(
    ZERO_NOISE, camera_offset_scale=0.3, modality_transform_scale=0.3, frame_noise=0.2,
    walk_step=0.1, n_identities=6, frame_len_min=16, frame_len_max=20, embed_dim=64,
    ffn_dim=128, pool_hidden_dim=32, n_tte_layers=2, seq_len=16, total_epochs=2,
    iters_per_epoch=3, intra_start_epoch=0, cross_start_epoch=1,
)


def test_train_writes_the_same_bytes_with_and_without_the_helper_thread(tmp_path, monkeypatch):
    cfg = TrainConfig(**{k: v for k, v in DEEP.items() if k in TrainConfig.__dataclass_fields__})
    work = 2 * cfg.batch_size * cfg.seq_len * cfg.embed_dim * cfg.ffn_dim
    assert work >= encoder_mod.HELPER_MIN_WORK
    config = write_config(tmp_path / "cfg.json", **DEEP)
    data = tmp_path / "data"
    assert main(["gen", "--config", config, "--out", str(data)]) == 0
    monkeypatch.setattr(encoder_mod, "_cores", lambda: 2)
    helped = []  # per backward call, whether it went to the helper
    grad_helper = encoder_mod._grad_helper

    def spy(work):
        helper = grad_helper(work)
        helped.append(helper is not None)
        return helper

    monkeypatch.setattr(encoder_mod, "_grad_helper", spy)
    runs = {}
    for label, limit in (("off", 2**62), ("on", encoder_mod.HELPER_MIN_WORK)):
        monkeypatch.setattr(encoder_mod, "HELPER_MIN_WORK", limit)
        run = tmp_path / label
        assert main(["train", "--config", config, "--data", str(data), "--out", str(run)]) == 0
        runs[label] = [(run / name).read_bytes() for name in ("checkpoint.hpt", "metrics.json")]
    per_run = DEEP["total_epochs"] * DEEP["iters_per_epoch"]
    assert helped == [False] * per_run + [True] * per_run
    assert runs["on"] == runs["off"]


def test_eval_writes_the_same_bytes_with_and_without_the_helper_thread(tmp_path, monkeypatch):
    deep = dict(DEEP, n_identities=10)  # 80 sub-tracklets: two encode_table slices
    cfg = TrainConfig(**{k: v for k, v in deep.items() if k in TrainConfig.__dataclass_fields__})
    n_rows = deep["n_identities"] * (deep["cams_vis"] + deep["cams_ir"]) * cfg.n_subtracklets
    assert n_rows > encoder_mod.ENCODE_CHUNK
    work = encoder_mod.ENCODE_CHUNK * cfg.seq_len * cfg.embed_dim * cfg.ffn_dim
    assert work >= encoder_mod.HELPER_MIN_WORK
    config = write_config(tmp_path / "cfg.json", **deep)
    data, run = tmp_path / "data", tmp_path / "run"
    common = ["--config", config, "--data", str(data)]
    assert main(["gen", "--config", config, "--out", str(data)]) == 0
    assert main(["train", *common, "--out", str(run)]) == 0
    monkeypatch.setattr(encoder_mod, "_cores", lambda: 2)
    ran = spy_helper_slices(monkeypatch)  # per table slice, whether the helper took it
    reports = {}
    for label, limit in (("off", 2**62), ("on", encoder_mod.HELPER_MIN_WORK)):
        monkeypatch.setattr(encoder_mod, "HELPER_MIN_WORK", limit)
        out = tmp_path / label
        assert main(["eval", *common, "--checkpoint", str(run / "checkpoint.hpt"),
                     "--out", str(out)]) == 0
        reports[label] = [(out / name).read_bytes() for name in ("report.json", "embeddings.f32")]
        assert sorted(h for _, h in ran) == [False, label == "on"]  # the second slice
        ran.clear()
    assert reports["on"] == reports["off"]


_NO_THREADS_CHILD = """
import sys, threading
sys.path.insert(0, sys.argv[1])
import hitpro.cli
assert "concurrent.futures" not in sys.modules and "logging" not in sys.modules, sorted(sys.modules)
assert threading.active_count() == 1
assert hitpro.cli.main(["gen", "--config", sys.argv[2], "--out", sys.argv[3]]) == 0
assert threading.active_count() == 1
assert "concurrent.futures" not in sys.modules and "logging" not in sys.modules
loaded = sorted(m for m in sys.modules if m.startswith("hitpro"))
assert loaded == ["hitpro", "hitpro.cli", "hitpro.datamodel", "hitpro.synthgen"], loaded
"""


def test_import_and_gen_start_no_thread_and_load_no_pool(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", **ZERO_NOISE)
    src = Path(hitpro.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", _NO_THREADS_CHILD, str(src), cfg, str(tmp_path / "data")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "data" / "frames.f32").exists()


_IMPORT_GRAPH_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import hitpro
assert sorted(m for m in sys.modules if m.startswith("hitpro")) == ["hitpro"]
import hitpro.synthgen
loaded = sorted(m for m in sys.modules if m.startswith("hitpro"))
assert loaded == ["hitpro", "hitpro.datamodel", "hitpro.synthgen"], loaded
"""


def test_importing_a_module_loads_only_what_it_uses():
    src = Path(hitpro.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GRAPH_CHILD, str(src)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
