"""Alternating benchmark pairs: a git revision's tree against the working tree's.

Usage: python tools/bench_pairs.py REV --workload W --pairs N --seed S
           [--seconds T] [--json PATH]

``REV``'s ``src/`` and ``perfbench/`` are exported with ``git archive`` into
a temporary directory (the parent), and the working tree's are copied into
a sibling one (the change), so that both sides run from fresh copies. Pair
``i`` runs ``perfbench/run.py --workload W --seed S+i --trace 0`` once under
each tree, one after the other, the parent first in even pairs and the
change first in odd ones. ``--seconds`` defaults to ``BENCHMARK.json``'s
``run_seconds``.

For every end-to-end metric of ``BENCHMARK.json`` it prints both medians,
the median gain (positive = better, by the metric's ``better``), the
parent's IQR (75th - 25th percentile of its runs), the pairs the change won
(strictly better), and those it won by more than the parent's IQR; then the
total ``failed`` count of each side. A claimed gain holds when the change
wins at least 9 of 10 pairs and its median gain exceeds the parent's IQR.
``--json`` also writes every run's result object and the summary to PATH.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
EXPORTED = ("src", "perfbench")


def export(rev: str | None, dest: Path, root: Path = ROOT) -> Path:
    """Write ``src/`` and ``perfbench/`` of ``root`` into ``dest`` and return it:
    revision ``rev``'s with ``git archive``, or, for None, the working tree's
    files as they are, committed or not, without bytecode caches."""
    if rev is None:
        for name in EXPORTED:
            shutil.copytree(root / name, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        return dest
    blob = subprocess.run(["git", "-C", str(root), "archive", "--format=tar", rev, *EXPORTED],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest)
    return dest


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object (last stdout line) of one ``perfbench/run.py`` run under ``tree``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric: medians, gain, parent IQR and wins, as the claim rule reads them."""
    summary = {}
    for metric in metrics:
        name, sign = metric["name"], (1 if metric["better"] == "lower" else -1)
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        q1, _, q3 = statistics.quantiles(values["parent"], n=4, method="inclusive")
        gains = [sign * (a - b) for a, b in zip(values["parent"], values["change"])]
        median = {side: statistics.median(values[side]) for side in SIDES}
        summary[name] = {
            "pairs": len(pairs),
            "parent_median": median["parent"],
            "change_median": median["change"],
            "median_gain": sign * (median["parent"] - median["change"]) + 0.0,  # no -0.0
            "parent_iqr": q3 - q1,
            "change_wins": sum(g > 0 for g in gains),
            "change_wins_by_more_than_parent_iqr": sum(g > q3 - q1 for g in gains),
            "ties": sum(g == 0 for g in gains),
        }
    summary["failed"] = {side: sum(p[side]["failed"] for p in pairs) for side in SIDES}
    return summary


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (the parent's IQR needs two runs)")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    pairs = []
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": export(args.rev, Path(tmp) / "parent"),
                 "change": export(None, Path(tmp) / "change")}
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": args.seed + i, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], args.workload, args.seed + i, seconds)
            pairs.append(pair)
            print(f"pair {i + 1}/{args.pairs} seed {pair['seed']}: " + ", ".join(
                f"{side} {m}={pair[side]['metrics'][m]['value']:.4g}"
                for side in SIDES for m in ("eval_s", "train_s")), file=sys.stderr)
    summary = summarize(pairs, bench["end_to_end"])
    print(f"{args.workload}: {args.pairs} pairs against {args.rev}, seeds "
          f"{args.seed}-{args.seed + args.pairs - 1}")
    print(f"{'metric':14s} {'parent':>10s} {'change':>10s} {'gain':>8s} {'IQR':>10s} "
          f"{'wins':>6s} {'>IQR':>6s}")
    for metric in bench["end_to_end"]:
        s = summary[metric["name"]]
        gain = s["median_gain"] / s["parent_median"] if s["parent_median"] else 0.0
        print(f"{metric['name']:14s} {s['parent_median']:10.4g} {s['change_median']:10.4g} "
              f"{gain:+8.1%} {s['parent_iqr']:10.4g} {s['change_wins']:3d}/{s['pairs']:<2d} "
              f"{s['change_wins_by_more_than_parent_iqr']:3d}")
    print(f"failed: parent {summary['failed']['parent']}, change {summary['failed']['change']}")
    if args.json:
        args.json.write_text(json.dumps({"workload": args.workload, "rev": args.rev,
                                         "pairs": pairs, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
