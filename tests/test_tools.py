"""The claim rule of ``tools/bench_pairs.py``: ``summarize`` on hand-built
pairs, and its working-tree export; and the path normalization, the verb
runs and the reversed dataset of ``tools/cmp_artifacts.py``."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from hitpro.cli import build_parser
from hitpro.datamodel import load_dataset, save_dataset
from hitpro.synthgen import GenConfig, generate_dataset


def _tool(name):
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parent.parent / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _tool("bench_pairs")
cmp_artifacts = _tool("cmp_artifacts")


def _pairs(name, parent, change, failed=((0, 0),) * 4):
    """One pair per value, each side a result object holding ``name`` and ``failed``."""
    return [
        {side: {"metrics": {name: {"value": value}}, "failed": fails}
         for side, value, fails in zip(("parent", "change"), values, fail_pair)}
        for values, fail_pair in zip(zip(parent, change), failed)
    ]


# parent quartiles (inclusive method) 1.75 and 3.25; per pair the change is
# better, tied, worse and better by more than the parent's IQR
PARENT = [1.0, 2.0, 3.0, 4.0]
CHANGE = [0.5, 2.0, 3.5, 1.0]


def test_medians_and_parent_iqr():
    s = bench_pairs.summarize(_pairs("t", PARENT, CHANGE), [{"name": "t", "better": "lower"}])
    assert s["t"]["pairs"] == 4
    assert s["t"]["parent_median"] == 2.5
    assert s["t"]["change_median"] == 1.5
    assert s["t"]["median_gain"] == 1.0
    assert s["t"]["parent_iqr"] == 1.5


def test_wins_count_strictly_better_pairs_and_ties_count_for_neither_side():
    s = bench_pairs.summarize(_pairs("t", PARENT, CHANGE), [{"name": "t", "better": "lower"}])["t"]
    assert (s["change_wins"], s["ties"], s["change_wins_by_more_than_parent_iqr"]) == (2, 1, 1)
    # sides swapped: the change wins only the pair the parent won, the tie stays a tie
    s = bench_pairs.summarize(_pairs("t", CHANGE, PARENT), [{"name": "t", "better": "lower"}])["t"]
    assert (s["change_wins"], s["ties"]) == (1, 1)


def test_a_higher_is_better_metric_flips_the_sign():
    s = bench_pairs.summarize(_pairs("r", PARENT, CHANGE), [{"name": "r", "better": "higher"}])
    r = s["r"]
    assert r["median_gain"] == -1.0
    assert (r["change_wins"], r["ties"], r["change_wins_by_more_than_parent_iqr"]) == (1, 1, 0)


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_equal_medians_give_a_zero_gain_not_a_negative_zero(better):
    s = bench_pairs.summarize(_pairs("m", PARENT, PARENT[::-1]), [{"name": "m", "better": better}])
    assert s["m"]["median_gain"] == 0.0
    assert math.copysign(1.0, s["m"]["median_gain"]) == 1.0


def test_failed_totals_per_side():
    pairs = _pairs("t", PARENT, CHANGE, failed=[(0, 0), (1, 0), (0, 4), (2, 0)])
    s = bench_pairs.summarize(pairs, [{"name": "t", "better": "lower"}])
    assert s["failed"] == {"parent": 3, "change": 4}
    pairs = _pairs("t", PARENT, CHANGE)
    assert bench_pairs.summarize(pairs, [])["failed"] == {"parent": 0, "change": 0}


def test_every_metric_gets_its_own_entry():
    pairs = _pairs("a", PARENT, CHANGE)
    for pair, extra in zip(pairs, [5.0, 6.0, 7.0, 8.0]):
        for side in ("parent", "change"):
            pair[side]["metrics"]["b"] = {"value": extra}
    s = bench_pairs.summarize(pairs, [{"name": "a", "better": "lower"},
                                      {"name": "b", "better": "higher"}])
    assert set(s) == {"a", "b", "failed"}
    assert s["b"]["ties"] == 4 and s["b"]["change_wins"] == 0 and s["b"]["parent_iqr"] == 1.5


def test_the_change_side_runs_from_a_copy_of_the_working_tree(tmp_path):
    root = tmp_path / "repo"  # no git here: the files were never committed
    files = {"src/hitpro/encoder.py": "x = 1\n", "perfbench/run.py": "y = 2\n"}
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    (root / "src/hitpro/__pycache__").mkdir()
    (root / "src/hitpro/__pycache__/encoder.cpython-311.pyc").write_bytes(b"stale")
    (root / "README.md").write_text("not benchmarked\n")
    dest = bench_pairs.export(None, tmp_path / "change", root)
    assert dest == tmp_path / "change"
    copied = {str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file()}
    assert copied == set(files)
    assert all((dest / name).read_text() == text for name, text in files.items())


def _side(root, config_text, stdout_text, payload=b"\x00\x01"):
    """One side's ``report`` outputs under ``root``, naming paths under it."""
    report = root / "wide" / "report"
    report.mkdir(parents=True)
    (report / "effective_config.json").write_text(config_text.format(root=root))
    (report / cmp_artifacts.STDOUT).write_text(stdout_text.format(root=root))
    (report / "embeddings.f32").write_bytes(payload)
    return root


def test_cmp_artifacts_replaces_each_sides_output_root(tmp_path):
    config = '{{\n  "data": "{root}/wide/data",\n  "out": "{root}/wide/report",\n  "seed": 0\n}}\n'
    stdout = "wrote mining report for epoch 2 to {root}/wide/mine/mining_report.json\n"
    sides = [_side(tmp_path / f"out{i}", config, stdout) for i in range(2)]
    for file in ("effective_config.json", cmp_artifacts.STDOUT, "embeddings.f32"):
        a, b = (cmp_artifacts.artifact(root, "wide", "report", file) for root in sides)
        assert a == b
    text = cmp_artifacts.artifact(sides[0], "wide", "report", "effective_config.json")
    assert b'"out": "<out>/wide/report"' in text and str(tmp_path).encode() not in text
    assert cmp_artifacts.normalized(b"<- " + str(sides[1]).encode() + b"/x", sides[1]) == (
        b"<- <out>/x")


def test_cmp_artifacts_still_sees_a_changed_value_or_payload(tmp_path):
    a = _side(tmp_path / "out0", '{{"seed": 0, "out": "{root}"}}', "rank1=0.5000\n")
    b = _side(tmp_path / "out1", '{{"seed": 1, "out": "{root}"}}', "rank1=0.5001\n", b"\x00\x02")
    for file in ("effective_config.json", cmp_artifacts.STDOUT, "embeddings.f32"):
        assert (cmp_artifacts.artifact(a, "wide", "report", file)
                != cmp_artifacts.artifact(b, "wide", "report", file))
    # binary artifacts are compared as written: never normalized
    assert "embeddings.f32" not in cmp_artifacts.NAMES_PATHS
    assert all(cmp_artifacts.STDOUT in files and "effective_config.json" in files
               for files in cmp_artifacts.ARTIFACTS.values())


def test_cmp_artifacts_reversed_dataset_keeps_each_tracklets_frames(tmp_path):
    dataset = generate_dataset(GenConfig(n_identities=3, cams_vis=2, cams_ir=2, d_in=5,
                                         d_latent=3, frame_len_min=2, frame_len_max=7, seed=1))
    save_dataset(dataset, tmp_path / "data")
    cmp_artifacts.reversed_dataset(tmp_path / "data", tmp_path / "reversed")
    back = load_dataset(tmp_path / "reversed")
    assert back.tracklet_ids == dataset.tracklet_ids[::-1]
    assert back.modalities[0] is dataset.modalities[-1]  # IR first
    assert back.tracklet_ids[0] != dataset.tracklet_ids[0]
    for t in dataset.tracklets:
        got = back.get(t.tracklet_id)
        assert (got.modality, got.camera_id, got.gt_identity) == (
            t.modality, t.camera_id, t.gt_identity)
        np.testing.assert_array_equal(got.frames, t.frames)


def test_cmp_artifacts_runs_each_verb_into_its_own_directory(tmp_path):
    config, out = tmp_path / "wide.json", tmp_path / "wide"
    runs = cmp_artifacts.verbs(config, out)
    assert [sub for sub, _ in runs] == list(cmp_artifacts.ARTIFACTS)
    args = {sub: build_parser().parse_args(argv) for sub, argv in runs}
    assert {sub: (a.command, a.out) for sub, a in args.items()} == {
        "data": ("gen", str(out / "data")), "run": ("train", str(out / "run")),
        "report": ("eval", str(out / "report")), "mine": ("mine", str(out / "mine")),
        "mine_epoch0": ("mine", str(out / "mine_epoch0"))}
    assert all(a.config == str(config) for a in args.values())
    # the checkpoint's epoch, and the start of the threshold schedule
    assert (args["mine"].epoch, args["mine_epoch0"].epoch) == (None, 0)
    assert args["mine"].checkpoint == args["mine_epoch0"].checkpoint == str(
        out / "run" / "checkpoint.hpt")
    assert sum(map(len, cmp_artifacts.ARTIFACTS.values())) == 18  # per config
