"""Byte-compare every hitpro artifact made by a git revision's ``src/`` and by
the working tree's.

Usage: python tools/cmp_artifacts.py [REV]   (REV defaults to HEAD)

``REV``'s ``src/`` is exported with ``git archive`` into a temporary
directory. Under each ``src/``, with one BLAS thread, ``gen``, ``train``,
``eval``, ``mine`` and ``mine --epoch 0`` run on ``configs/zero_noise.json``,
``configs/noisy_benchmark.json`` and the ``perfbench/workloads.py`` configs
at seed 0: ``mine`` mines at the checkpoint's epoch, at ``thresh_final``,
and ``mine --epoch 0`` at ``thresh_init``, so the reports of both ends of the
threshold schedule are compared. ``train``, ``eval`` and both ``mine`` runs
also run on one dataset that ``gen`` never writes: each side's
``noisy_benchmark`` dataset with its entries in reverse order
(``reversed_dataset``), so its IR cameras come first. Besides each verb's
files, its ``effective_config.json`` and the line it prints are compared,
with the side's output root in them replaced by ``<out>``. Prints one line
per artifact (104 in all) and exits 1 if any differs.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# per verb: its output directory and the files compared there; STDOUT is
# the line the verb printed
STDOUT = "stdout.txt"
ARTIFACTS = {
    "data": ("manifest.json", "frames.f32", "effective_config.json", STDOUT),
    "run": ("checkpoint.hpt", "metrics.json", "effective_config.json", STDOUT),
    "report": ("report.json", "embeddings.f32", "effective_config.json", STDOUT),
    "mine": ("mining_report.json", "effective_config.json", STDOUT),
    "mine_epoch0": ("mining_report.json", "effective_config.json", STDOUT),
}
# the noisy_benchmark dataset in reverse order, and the config it runs under
REVERSED, REVERSED_FROM = "noisy_benchmark_reversed", "noisy_benchmark"
# the files that name paths under the side's output root
NAMES_PATHS = ("effective_config.json", STDOUT)
# run hitpro's CLI from the src/ directory given as the first argument
CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); from hitpro.cli import main; "
         "sys.exit(main(sys.argv[2:]))")
ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")


def configs(out: Path) -> dict[str, Path]:
    """Name -> path of every config compared: the shipped ones and the
    benchmark workloads' at seed 0, written under ``out``."""
    found = {p.stem: p for p in (ROOT / "configs").glob("*.json")}
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    for name, workload in WORKLOADS.items():
        found[name] = out / f"{name}.json"
        found[name].write_text(json.dumps(workload.config(0)))
    return found


def reversed_dataset(data: Path, out: Path) -> None:
    """Write to ``out`` the dataset in ``data`` with its manifest entries,
    and each entry's ``frames.f32`` rows with it, in reverse order."""
    manifest = json.loads((data / "manifest.json").read_text(encoding="utf-8"))
    raw, row = (data / "frames.f32").read_bytes(), 4 * manifest["d_in"]
    blocks, start = [], 0
    for entry in manifest["tracklets"]:
        blocks.append(raw[start : start + row * entry["n_frames"]])
        start += row * entry["n_frames"]
    manifest["tracklets"].reverse()
    out.mkdir(parents=True)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    (out / "frames.f32").write_bytes(b"".join(reversed(blocks)))


def verbs(config: Path, out: Path) -> list[tuple[str, list[str]]]:
    """Per output directory of ``ARTIFACTS``, in order, the hitpro arguments
    that run one verb on ``config`` into it under ``out``."""
    data, run = out / "data", out / "run"
    common = ["--config", str(config), "--data", str(data)]
    mine = ["mine", *common, "--checkpoint", str(run / "checkpoint.hpt")]
    return [("data", ["gen", "--config", str(config), "--out", str(data)]),
            ("run", ["train", *common, "--out", str(run)]),
            ("report", ["eval", *common, "--checkpoint", str(run / "checkpoint.hpt"),
                        "--out", str(out / "report")]),
            ("mine", [*mine, "--out", str(out / "mine")]),
            ("mine_epoch0", [*mine, "--epoch", "0", "--out", str(out / "mine_epoch0")])]


def run_all(src: Path, config: Path, out: Path) -> None:
    """``verbs`` on ``config`` into ``out``, ``gen`` only unless ``out``
    already holds the data, each verb's stdout kept as ``STDOUT`` in its
    output directory."""
    for sub, argv in verbs(config, out):
        if sub == "data" and (out / "data").exists():
            continue
        proc = subprocess.run([sys.executable, "-c", CHILD, str(src), *argv], env=ENV,
                              check=True, stdout=subprocess.PIPE)
        (out / sub / STDOUT).write_bytes(proc.stdout)


def normalized(data: bytes, root: Path) -> bytes:
    """``data`` with every occurrence of the output root ``root`` replaced
    by ``<out>``, so the two sides' files can be compared byte for byte."""
    return data.replace(str(root).encode(), b"<out>")


def artifact(root: Path, name: str, sub: str, file: str) -> bytes:
    """The bytes of one artifact under the side's output root, normalized
    if the file names paths."""
    data = (root / name / sub / file).read_bytes()
    return normalized(data, root) if file in NAMES_PATHS else data


def main(argv: list[str]) -> int:
    rev = argv[0] if argv else "HEAD"
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        blob = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                              check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
            tar.extractall(tmp / "rev")
        sides = (tmp / "rev" / "src", ROOT / "src")
        found = configs(tmp)
        differ = False
        for name, config in [*found.items(), (REVERSED, found[REVERSED_FROM])]:
            for i, src in enumerate(sides):
                if name == REVERSED:
                    reversed_dataset(tmp / f"out{i}" / REVERSED_FROM / "data",
                                     tmp / f"out{i}" / name / "data")
                run_all(src, config, tmp / f"out{i}" / name)
            for sub, files in ARTIFACTS.items():
                if (name, sub) == (REVERSED, "data"):  # made here, not by gen
                    continue
                for file in files:
                    a, b = (artifact(tmp / f"out{i}", name, sub, file) for i in range(2))
                    same = a == b
                    differ |= not same
                    print(f"{'identical' if same else 'DIFFERS  '}  {name}/{sub}/{file}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
