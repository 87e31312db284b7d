"""Byte-compare every hitpro artifact made by a git revision's ``src/`` and by
the working tree's.

Usage: python tools/cmp_artifacts.py [REV]   (REV defaults to HEAD)

``REV``'s ``src/`` is exported with ``git archive`` into a temporary
directory. Under each ``src/``, with one BLAS thread, ``gen``, ``train``,
``eval`` and ``mine`` run on ``configs/zero_noise.json``,
``configs/noisy_benchmark.json`` and the ``perfbench/workloads.py`` configs
at seed 0. Prints one line per artifact and exits 1 if any differs.
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
ARTIFACTS = {
    "data": ("manifest.json", "frames.f32"),
    "run": ("checkpoint.hpt", "metrics.json"),
    "report": ("report.json", "embeddings.f32"),
    "mine": ("mining_report.json",),
}
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


def run_all(src: Path, config: Path, out: Path) -> None:
    """``gen``, ``train``, ``eval`` and ``mine`` on ``config`` into ``out``."""
    data, run = out / "data", out / "run"
    common = ["--config", str(config), "--data", str(data)]
    checkpoint = ["--checkpoint", str(run / "checkpoint.hpt")]
    for argv in (["gen", "--config", str(config), "--out", str(data)],
                 ["train", *common, "--out", str(run)],
                 ["eval", *common, *checkpoint, "--out", str(out / "report")],
                 ["mine", *common, *checkpoint, "--out", str(out / "mine")]):
        subprocess.run([sys.executable, "-c", CHILD, str(src), *argv], env=ENV, check=True,
                       stdout=subprocess.DEVNULL)


def main(argv: list[str]) -> int:
    rev = argv[0] if argv else "HEAD"
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        blob = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                              check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
            tar.extractall(tmp / "rev")
        sides = (tmp / "rev" / "src", ROOT / "src")
        differ = False
        for name, config in configs(tmp).items():
            for i, src in enumerate(sides):
                run_all(src, config, tmp / f"out{i}" / name)
            for sub, files in ARTIFACTS.items():
                for file in files:
                    a, b = (tmp / f"out{i}" / name / sub / file for i in range(2))
                    same = a.read_bytes() == b.read_bytes()
                    differ |= not same
                    print(f"{'identical' if same else 'DIFFERS  '}  {name}/{sub}/{file}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
