"""hitpro benchmark: gen -> train -> eval -> mine on one workload, in-process.

Run from the repository root:

    python3 perfbench/run.py --workload noisy_train --seed 0 --seconds 30 --trace 0

The seed makes ``DATASETS`` datasets of the workload's shape (generator and
training seeds ``seed * DATASETS + i``), so that the retrieval figures are
means over several datasets rather than one dataset's luck.

``--trace 0`` measures the end-to-end metrics with tracing off. Set-up runs
``hitpro gen`` ``GENS_PER_DATASET`` times per dataset, each time in a fresh
interpreter writing into a fresh directory, and times process start to
dataset on disk. Then passes of ``train``, ``eval`` and ``mine`` run back to
back, cycling over the datasets, until ``--seconds`` is used up (every
dataset at least once).

The host this runs on is shared, and its speed swings by up to 1.7x from
one second to the next and between minutes as other tenants load it. A
short fixed reference load (``reference_s``) therefore runs after every
timed sample, and each sample's wall time is rescaled by how much slower
than ``REFERENCE_IDLE_S`` the reference ran, on average over its readings
within ``READING_WINDOW_S`` of the sample: ``wall * REFERENCE_IDLE_S /
reading``, the wall time the program takes on this host when it is not
slowed by other load. The reference is fixed benchmark code,
so a change to the program moves these times exactly as it moves the wall
time. A time metric is the mean over the datasets of each dataset's median
rescaled sample, so that every dataset weighs the same however often it
ran; the uncorrected medians are printed on stderr.

``--trace 1`` reports per-layer call counts and self times instead, on the
first dataset. It trains once untraced, then installs the tracer and runs
gen -> train -> eval -> mine twice; both traced passes must make identical
call counts. Span times are wall times as measured; ``trace.overhead_s`` is
the rescaled traced ``train`` time less the rescaled untraced one.

Every pass checks the program's outputs; the failed checks and verbs are
the result's ``failed`` count. Lines before the last one on stdout describe
the environment and each pass; the last line is the result object.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads, so that a workload's own
# threads (two on wide_gallery) are all the threads the process runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import hitpro  # noqa: E402
import hitpro.cli  # noqa: E402

if Path(hitpro.__file__).resolve().parent != SRC / "hitpro":
    raise SystemExit(f"hitpro was imported from {hitpro.__file__}, not from {SRC}")

LAYERS = (
    "synthgen", "datamodel", "encoder", "prototyping", "mining",
    "sampler", "objective", "trainer", "evaluator", "cli",
)
DATASETS = 4
GENS_PER_DATASET = 2
GEN_TIMEOUT_S = 120
# Per pass, each verb runs until it has taken this long (at least once), so
# the short verbs give enough samples for a steady median.
MIN_VERB_S = {"train": 0.0, "eval": 1.0, "mine": 0.5}
LOSS_KEYS = ("mean_l_ic", "mean_l_imcc", "mean_l_cm", "mean_l_total")
MINING_FAMILIES = ("vis_intra_modal", "vis_cross_modal", "ir_intra_modal", "ir_cross_modal")
# (span name, reported fields) for the traced run
TRACED_LAYERS = (
    ("encoder.encode", ("calls", "self_s")),
    ("encoder.encode_backward", ("calls", "self_s")),
    ("prototyping.build_prototypes", ("calls", "total_s", "self_s")),
    ("prototyping.tracklet_embedding", ("calls", "self_s")),
    ("mining.build_mining_report", ("calls", "self_s")),
    ("sampler.sample_batch", ("calls", "self_s")),
    ("objective.total_loss", ("calls", "total_s", "self_s")),
    ("objective.ema_update", ("calls", "self_s")),
    ("trainer.sgd_step", ("calls", "self_s")),
    ("trainer.train", ("self_s",)),
    ("evaluator.evaluate_retrieval", ("self_s",)),
    ("evaluator.distance_distribution", ("self_s",)),
    ("evaluator.mining_quality", ("self_s",)),
    ("synthgen.generate_dataset", ("self_s",)),
    ("datamodel.save_dataset", ("self_s",)),
    ("datamodel.load_dataset", ("self_s",)),
    ("datamodel.save_checkpoint", ("self_s",)),
    ("datamodel.load_checkpoint", ("self_s",)),
    ("cli.train", ("self_s",)),
    ("cli.eval", ("self_s",)),
    ("cli.mine", ("self_s",)),
)
# Seconds ``reference_s`` takes on an otherwise idle core of the 2-vCPU host
# the benchmark was tuned on; time metrics are wall times rescaled to it.
REFERENCE_IDLE_S = 0.020
# A sample is rescaled by the reference readings taken within this many
# seconds of it: enough readings to average out their own jitter, few enough
# to follow the host's slower swings.
READING_WINDOW_S = 3.0
# a fresh interpreter that imports hitpro from src/ and runs `hitpro gen`
GEN_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); from hitpro.cli import main; "
    "sys.exit(main(['gen', '--config', sys.argv[2], '--out', sys.argv[3]]))"
)


class Ops:
    """Counts verbs run and output checks made, and which of them failed."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(what)
            print(f"FAILED: {what}", file=sys.stderr)


class Pass:
    """Paths and hitpro argument lists of one gen -> train -> eval -> mine pass."""

    def __init__(self, work: Path, config: Path, threads: int, tag: str):
        self.data = work / "data"
        self.run = work / f"run-{tag}"
        self.report = work / f"report-{tag}"
        self.mine = work / f"mine-{tag}"
        common = ["--config", str(config)]
        checkpoint = str(self.run / "checkpoint.hpt")
        self.argv = {
            "gen": ["gen", *common, "--out", str(self.data)],
            "train": ["train", *common, "--data", str(self.data), "--out", str(self.run),
                      "--threads", str(threads)],
            "eval": ["eval", *common, "--data", str(self.data), "--checkpoint", checkpoint,
                     "--out", str(self.report), "--threads", str(threads)],
            "mine": ["mine", *common, "--data", str(self.data), "--checkpoint", checkpoint,
                     "--out", str(self.mine)],
        }

    def outputs(self) -> list[Path]:
        return [self.run / "metrics.json", self.report / "report.json",
                self.mine / "mining_report.json"]


def reference_s(_a=np.linspace(0.0, 1.0, 48 * 48).reshape(48, 48)) -> float:
    """Wall time of a fixed small load of numpy calls and Python bytecode,
    the mix hitpro runs, as a reading of the host's current speed."""
    start = time.perf_counter()
    total = 0.0
    for i in range(3000):
        total += float((_a @ _a)[i % 48, 0])
        for j in range(40):
            total += j * 0.5
    return time.perf_counter() - start


class Samples:
    """Wall-time samples tagged with the dataset they ran on, and readings
    of the reference load taken between them; see the module docstring."""

    def __init__(self):
        self._readings: list[tuple[float, float]] = []  # (midpoint, seconds)
        self._taken: dict[str, dict[int, list[tuple[float, float]]]] = {}
        self._read()

    def _read(self) -> None:
        start = time.perf_counter()
        seconds = reference_s()
        self._readings.append((start + seconds / 2, seconds))

    def add(self, name: str, dataset: int, seconds: float) -> None:
        """Record a sample that ended just now, and read the reference."""
        end = time.perf_counter()
        self._taken.setdefault(name, {}).setdefault(dataset, []).append((end - seconds, end))
        self._read()

    @property
    def last_reference(self) -> float:
        return self._readings[-1][1]

    def _rescaled(self, start: float, end: float) -> float:
        """A sample's wall time times REFERENCE_IDLE_S over the mean reference
        reading within READING_WINDOW_S of it."""
        near = [r for mid, r in self._readings
                if start - READING_WINDOW_S <= mid <= end + READING_WINDOW_S]
        return (end - start) * REFERENCE_IDLE_S / statistics.fmean(near)

    def median(self, name: str) -> float:
        """Mean over the datasets of the median rescaled sample, so that each
        dataset weighs the same however often it ran."""
        return statistics.fmean(
            statistics.median(self._rescaled(*sample) for sample in taken)
            for taken in self._taken[name].values()
        )

    def raw_median(self, name: str) -> tuple[float, int]:
        """Median of the wall times as measured, and the sample count."""
        taken = [end - start for per_dataset in self._taken[name].values()
                 for start, end in per_dataset]
        return statistics.median(taken), len(taken)


def run_verb(ops: Ops, argv: list[str]) -> float:
    """Wall time of one in-process hitpro command; its stdout goes to stderr."""
    start = time.perf_counter()
    with contextlib.redirect_stdout(sys.stderr):
        code = hitpro.cli.main(argv)  # looked up per call, so tracing applies
    elapsed = time.perf_counter() - start
    ops.check(code == 0, f"hitpro {argv[0]} exited {code}")
    return elapsed


def run_pass(ops: Ops, p: Pass, verbs: tuple[str, ...]) -> dict[str, float]:
    return {verb: run_verb(ops, p.argv[verb]) for verb in verbs}


def fingerprint(paths: list[Path]) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes() if path.exists() else b"<missing>")
    return digest.hexdigest()


def check_outputs(ops: Ops, cfg: dict, p: Pass) -> dict | None:
    """Check one pass's artifacts; return retrieval and mining figures."""
    try:
        metrics = json.loads((p.run / "metrics.json").read_text())
        report = json.loads((p.report / "report.json").read_text())
        mining = json.loads((p.mine / "mining_report.json").read_text())
    except (OSError, ValueError) as exc:
        ops.check(False, f"outputs unreadable: {exc}")
        return None

    epochs = metrics.get("epochs", [])
    ops.check(
        len(epochs) == cfg["total_epochs"]
        and all(math.isfinite(e[key]) for e in epochs for key in LOSS_KEYS),
        f"metrics.json: want {cfg['total_epochs']} epochs with finite losses",
    )
    per_id = cfg["tracklets_per_identity_per_camera"] * cfg["n_identities"]
    n_vis, n_ir = per_id * cfg["cams_vis"], per_id * cfg["cams_ir"]
    for key, n_query, n_gallery in (("ir_to_vis", n_ir, n_vis), ("vis_to_ir", n_vis, n_ir)):
        r = report[key]
        ops.check(
            all(0.0 <= v <= 1.0 for v in (*r["cmc"], r["map"])),
            f"report.json {key}: rank or mAP outside [0, 1]",
        )
        ops.check(
            (r["n_query"], r["n_gallery"]) == (n_query, n_gallery),
            f"report.json {key}: query/gallery sizes {r['n_query']}/{r['n_gallery']}, "
            f"want {n_query}/{n_gallery}",
        )
    ops.check(
        all(len(mining[f]["rows"]) == (n_vis if f.startswith("vis") else n_ir)
            for f in MINING_FAMILIES),
        "mining_report.json: want one row per source prototype in each family",
    )

    last = epochs[-1] if epochs else {}
    mining_pr = list(last.get("mining", {}).values())
    precisions = [m["precision"] for m in mining_pr if m["precision"] is not None]
    sizes = list(last.get("positive_set_sizes", {}).values())
    return {
        "rank1_ir_vis": report["ir_to_vis"]["rank1"],
        "map_ir_vis": report["ir_to_vis"]["map"],
        "rank1_vis_ir": report["vis_to_ir"]["rank1"],
        "map_vis_ir": report["vis_to_ir"]["map"],
        "mining.precision": statistics.fmean(precisions) if precisions else 0.0,
        "mining.recall": statistics.fmean(m["recall"] for m in mining_pr) if mining_pr else 0.0,
        "mining.positive_set_size": statistics.fmean(sizes) if sizes else 0.0,
    }


def untrained_rank1(ops: Ops, cfg: dict, work: Path, threads: int) -> float | None:
    """IR->VIS rank-1 of the initialised encoder on the same dataset."""
    config = work / "untrained.json"
    config.write_text(json.dumps(
        {**cfg, "total_epochs": 0, "intra_start_epoch": 0, "cross_start_epoch": 0}
    ))
    p = Pass(work, config, threads, "untrained")
    run_pass(ops, p, ("train", "eval"))
    try:
        return json.loads((p.report / "report.json").read_text())["ir_to_vis"]["rank1"]
    except (OSError, ValueError) as exc:
        ops.check(False, f"untrained report unreadable: {exc}")
        return None


def check_learns(ops: Ops, trained: float, untrained: float | None) -> None:
    if untrained is not None:
        ops.check(
            trained > untrained,
            f"trained IR->VIS rank-1 {trained} does not beat untrained {untrained}",
        )


def gen_seconds(ops: Ops, config: Path, data: Path) -> float:
    """Process start to dataset on disk, in a fresh interpreter writing into
    a fresh directory."""
    shutil.rmtree(data, ignore_errors=True)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", GEN_CHILD, str(SRC), str(config), str(data)],
        stdout=subprocess.DEVNULL,
    )
    # wait() with a timeout polls every 50 ms, which would round the time;
    # a timer kills a child that hangs instead.
    watchdog = threading.Timer(GEN_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - start
    ops.check(code == 0, f"hitpro gen exited {code}")
    return elapsed


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment(workload, seed: int, trace: bool) -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "hitpro_threads": workload.threads,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(ops: Ops, workload, datasets: list[tuple[dict, Path, Path]],
            seconds: float) -> dict:
    """End-to-end metrics, tracing off."""
    samples = Samples()
    for i, (_, config, work) in enumerate(datasets):
        for _ in range(GENS_PER_DATASET):
            samples.add("setup", i, gen_seconds(ops, config, work / "data"))
    untrained = [
        untrained_rank1(ops, cfg, work, workload.threads) if workload.check_learns else None
        for cfg, _, work in datasets
    ]

    passes = [Pass(work, config, workload.threads, "timed") for _, config, work in datasets]
    last: dict[str, float] = {}
    first_outputs: list[str] = []
    quality: list[dict] = []
    n_passes = 0
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        i = n_passes % len(datasets)
        p = passes[i]
        n_passes += 1
        for verb, min_s in MIN_VERB_S.items():
            spent = 0.0
            while spent == 0.0 or spent < min_s:
                last[verb] = run_verb(ops, p.argv[verb])
                samples.add(verb, i, last[verb])
                spent += last[verb]
        print(json.dumps({"pass": n_passes, "dataset": i, **last,
                          "reference_s": samples.last_reference}))
        outputs = fingerprint(p.outputs())
        if len(first_outputs) <= i:
            first_outputs.append(outputs)
            figures = check_outputs(ops, datasets[i][0], p)
            if figures is None:
                raise SystemExit(f"dataset {i} produced no readable outputs")
            quality.append(figures)
            if workload.check_learns:
                check_learns(ops, figures["rank1_ir_vis"], untrained[i])
        else:
            ops.check(outputs == first_outputs[i], f"outputs of dataset {i} differ between passes")
        now = time.perf_counter()
        if n_passes >= len(datasets) and now + (now - started) > deadline:
            break

    out = {}
    for name in ("setup", *MIN_VERB_S):
        out[f"{name}_s"] = metric(samples.median(name), "s")
        raw, n = samples.raw_median(name)
        print(f"{name}_s: {n} samples, uncorrected median {raw:.6g} s", file=sys.stderr)
    out["peak_rss_mb"] = metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    for key in ("rank1_ir_vis", "map_ir_vis", "rank1_vis_ir", "map_vis_ir"):
        out[key] = metric(statistics.fmean(q[key] for q in quality), "fraction")
    return out


def _span_name(name: str, args: tuple) -> str:
    """Name a ``cli.main`` span after its verb: ``cli.train``, ``cli.eval``..."""
    return f"cli.{args[0][0]}" if args and args[0] else name


def measure_traced(ops: Ops, workload, cfg: dict, config: Path, work: Path,
                   spans_out: Path) -> dict:
    """Per-layer metrics from two traced passes after one untraced training,
    all on one dataset."""
    train_samples = Samples()
    untraced = Pass(work, config, workload.threads, "untraced")
    train_samples.add("untraced", 0, run_pass(ops, untraced, ("gen", "train"))["train"])
    untrained = untrained_rank1(ops, cfg, work, workload.threads) if workload.check_learns else None

    tracer = Tracer("hitpro", LAYERS)
    summaries = []
    first_outputs = quality = None
    tracer.install({"cli.main": _span_name})
    try:
        for i in range(2):
            tracer.reset()
            p = Pass(work, config, workload.threads, f"traced{i}")
            times = run_pass(ops, p, ("gen", "train"))
            train_samples.add("traced", 0, times["train"])
            times |= run_pass(ops, p, ("eval", "mine"))
            print(json.dumps({"traced_pass": i + 1, **times}))
            summaries.append(tracer.summary())
            if i == 0:
                spans = tracer.spans
            outputs = fingerprint(p.outputs())
            if first_outputs is None:
                first_outputs, quality = outputs, check_outputs(ops, cfg, p)
            else:
                ops.check(outputs == first_outputs, "outputs differ between traced passes")
    finally:
        tracer.uninstall()

    ops.check(
        fingerprint([untraced.run / "metrics.json"]) == fingerprint([work / "run-traced0" / "metrics.json"]),
        "tracing changed metrics.json",
    )
    calls = [{name: s["calls"] for name, s in summary.items()} for summary in summaries]
    ops.check(calls[0] == calls[1], "traced passes made different call counts")
    if quality is None:
        raise SystemExit("no traced pass produced readable outputs")
    if workload.check_learns:
        check_learns(ops, quality["rank1_ir_vis"], untrained)

    spans_out.parent.mkdir(parents=True, exist_ok=True)
    with spans_out.open("w", encoding="utf-8") as fh:
        for span_id, name, thread, start, end, parent in spans:
            fh.write(json.dumps({"id": span_id, "name": name, "thread": thread,
                                 "start": start, "end": end, "parent": parent}) + "\n")

    summary = summaries[0]
    out = {}
    for name, fields in TRACED_LAYERS:
        entry = summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for field in fields:
            out[f"{name}.{field}"] = metric(entry[field], "count" if field == "calls" else "s")
    for key in ("mining.precision", "mining.recall"):
        out[key] = metric(quality[key], "fraction")
    out["mining.positive_set_size"] = metric(quality["mining.positive_set_size"], "count")
    out["trace.overhead_s"] = metric(
        train_samples.median("traced") - train_samples.median("untraced"), "s"
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="non-negative")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    spans_out = ROOT / ".perfbench_out" / f"spans-{workload.name}-seed{args.seed}.jsonl"
    print(json.dumps({"env": environment(workload, args.seed, bool(args.trace))}))
    ops = Ops()
    work.mkdir(parents=True)
    try:
        datasets = []
        for i in range(1 if args.trace else DATASETS):
            cfg = workload.config(args.seed * DATASETS + i)
            (work / f"d{i}").mkdir()
            config = work / f"d{i}" / "config.json"
            config.write_text(json.dumps(cfg))
            datasets.append((cfg, config, work / f"d{i}"))
        if args.trace:
            metrics = measure_traced(ops, workload, *datasets[0], spans_out)
        else:
            metrics = measure(ops, workload, datasets, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"{'ops_failed':40s} {len(ops.failed)}/{ops.attempted}", file=sys.stderr)
    print(json.dumps({
        "correct": not ops.failed,
        "attempted": ops.attempted,
        "failed": len(ops.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
