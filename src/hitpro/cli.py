"""Command-line entry point: gen / train / mine / eval / gradcheck.

All subcommands are config-file driven (one flat JSON holding generator and
training keys) with flag overrides, write an ``effective_config.json``
echoing every resolved value, and are deterministic under a fixed seed.

Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .datamodel import (
    TrainConfig,
    load_checkpoint,
    load_dataset,
    load_encoder,
    read_frames,
    read_manifest,
    save_checkpoint,
    save_dataset,
)
from .synthgen import GenConfig, generate_dataset

# Each verb imports the modules it runs when it runs, so `hitpro gen` loads
# no encoder, trainer or evaluator.
if TYPE_CHECKING:
    from .mining import MiningReport

_GEN_FIELDS = {f.name for f in dataclasses.fields(GenConfig)}
_TRAIN_FIELDS = {f.name for f in dataclasses.fields(TrainConfig)}


# the per-tracklet embeddings `hitpro eval` writes next to report.json
EMBEDDINGS_FILE = "embeddings.f32"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage problems to exit code 1
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _load_config_file(path: str | None) -> dict:
    """A config file's values, all under known keys; the configs' own
    constructors check each value against its field's declaration."""
    if path is None:
        return {}
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"malformed config file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError("a config file must hold one JSON object")
    unknown = set(raw) - _GEN_FIELDS - _TRAIN_FIELDS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return raw


def _resolve_configs(args) -> tuple[GenConfig, TrainConfig]:
    """Lay the CLI overrides (stored under their config keys) over the config file."""
    values = {
        **_load_config_file(getattr(args, "config", None)),
        **{k: v for k, v in vars(args).items() if k in _GEN_FIELDS | _TRAIN_FIELDS},
    }
    gen_cfg = GenConfig(**{k: v for k, v in values.items() if k in _GEN_FIELDS})
    train_cfg = TrainConfig(**{k: v for k, v in values.items() if k in _TRAIN_FIELDS})
    return gen_cfg, train_cfg


def _numpy_to_list(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _json_artifact(payload) -> str:
    """The text of every JSON file the verbs write."""
    return json.dumps(payload, indent=2, sort_keys=True, default=_numpy_to_list) + "\n"


def _write_json(path: Path, payload) -> None:
    path.write_text(_json_artifact(payload), encoding="utf-8")


def _texts(convert, values: list) -> np.ndarray:
    """``convert`` of each of ``values``, as an object array."""
    return np.fromiter(map(convert, values), dtype=object, count=len(values))


def _mining_rows_text(report: MiningReport) -> str:
    """A family's ``rows`` as ``mining_report.json`` holds them: per source
    its ``accepted`` pairs, ``candidates``, ``s_max`` (Python ``max`` over the
    row's sims, as ``MiningReport.rows`` takes it), ``source`` and
    ``threshold``.

    The family is one template, the row template of each row's accepted
    count joined, filled by one ``%`` from the report's arrays.
    """
    n, n_cand = report.sims.shape
    if n == 0:
        return "[]"
    row_in = "\n      "  # before each row's "{"
    key_in = row_in + "  "  # before a row's keys and its lists' "]"
    item_in = key_in + "  "  # before each candidate's or accepted pair's "{"
    field_in = item_in + "  "

    def listed(item: str, count: int) -> str:
        if not count:
            return "[]"
        return "[" + item_in + ("," + item_in).join([item] * count) + key_in + "]"

    pair = ("{" + field_in + '"sim": %s,' + field_in + '"target": %s,' + field_in
            + '"weight": %s' + item_in + "}")
    candidate = ("{" + field_in + '"camera": %s,' + field_in + '"sim": %s,' + field_in
                 + '"target": %s' + item_in + "}")
    tail = ("," + key_in + '"candidates": ' + listed(candidate, n_cand) + "," + key_in
            + '"s_max": %s,' + key_in + '"source": %s,' + key_in + '"threshold": %s'
            + row_in + "}")
    row_of_count = ["{" + key_in + '"accepted": ' + listed(pair, k) + tail
                    for k in range(n_cand + 1)]
    later_row_of_count = ["," + row_in + row for row in row_of_count]
    counts = report.accepted.sum(axis=1)
    # one join with the brackets in it: a concatenation would copy the text again
    template = "".join(["[" + row_in + row_of_count[counts[0]],
                        *map(later_row_of_count.__getitem__, counts[1:].tolist()), "\n    ]"])

    # per row: an accepted triple per candidate slot, of which the first
    # ``count`` are filled, a candidate triple per camera, and the row's
    # (s_max, source, threshold); the mask keeps the filled triples in order
    values = np.empty((n, 2 * n_cand + 1, 3), dtype=object)
    values[:, -1, 1] = _texts(encode_basestring_ascii, report.sources)
    if n_cand:
        thresholds = np.array(report.thresholds, dtype=np.float64)
        finite = all(np.isfinite(a).all() for a in (report.sims, report.weights, thresholds))
        # repr, the faster, is json's text for finite floats and an integer fixed_threshold
        number_text = repr if finite else json.dumps
        cameras, sims, targets = (
            _texts(convert, array.ravel().tolist()).reshape(n, n_cand)
            for convert, array in ((int.__repr__, report.cameras), (number_text, report.sims),
                                   (encode_basestring_ascii, report.targets)))
        candidates = values[:, n_cand:-1]
        candidates[..., 0], candidates[..., 1], candidates[..., 2] = cameras, sims, targets
        rows, cols = np.nonzero(report.accepted)  # row-major: camera order per row
        slots = (np.cumsum(report.accepted, axis=1) - 1)[rows, cols]
        values[rows, slots, 0], values[rows, slots, 1] = sims[rows, cols], targets[rows, cols]
        values[rows, slots, 2] = _texts(number_text, report.weights[rows, cols].tolist())
        # argmax takes the first maximum, as Python max does on finite sims;
        # a row holding NaN or inf keeps Python max
        s_max = sims[np.arange(n), report.sims.argmax(axis=1)]
        for i in np.flatnonzero(~np.isfinite(report.sims).all(axis=1)).tolist():
            s_max[i] = number_text(max(report.sims[i].tolist()))
        values[:, -1, 0] = s_max
        values[:, -1, 2] = _texts(number_text, report.thresholds)
    else:
        values[:, -1, 0] = values[:, -1, 2] = "null"
    filled = np.ones(values.shape[:2], dtype=bool)
    filled[:, :n_cand] = np.arange(n_cand) < counts[:, None]
    return template % tuple(values[filled].ravel().tolist())


# what json.dumps writes at each family's "rows" before the rows go in
_ROWS = "\0rows"


def _mining_report_text(store, epoch: int, cfg: TrainConfig, gt) -> str:
    """The text of ``mining_report.json`` at ``epoch``, with precision and
    recall unless ``gt`` is None: ``json.dumps`` writes every key but the
    ``rows``, and each family's ``_mining_rows_text`` replaces its placeholder.
    """
    from .evaluator import mining_quality
    from .mining import mine_families

    payload, rows = {"epoch": epoch}, {}
    for family, report in mine_families(store, epoch, cfg).items():
        key = f"{family}_modal"
        payload[key] = entry = {"source_modality": report.source_modality.value,
                                "kind": report.kind.value, "epoch": epoch, "rows": _ROWS,
                                "mean_positive_set_size": report.mean_positive_set_size}
        if gt is not None:
            entry["precision"], entry["recall"] = mining_quality(report, gt)
        rows[key] = _mining_rows_text(report)
    # only the skeleton is searched; sorted keys put the placeholders in key
    # order, and one join copies each family's rows text once
    parts = _json_artifact(payload).split(json.dumps(_ROWS))
    pieces = parts[:1]
    for key, part in zip(sorted(rows), parts[1:]):
        pieces += (rows[key], part)
    return "".join(pieces)


def _write_effective_config(out_dir: Path, gen_cfg, train_cfg, args) -> None:
    payload = {
        "command": args.command,
        **dataclasses.asdict(gen_cfg),
        **dataclasses.asdict(train_cfg),
    }
    for key in ("data", "checkpoint", "out", "max_rank", "epoch"):
        if getattr(args, key, None) is not None:
            payload[key] = str(getattr(args, key))
    _write_json(out_dir / "effective_config.json", payload)


def _check_encoder_dims(params, cfg: TrainConfig) -> None:
    """Raise unless ``cfg`` holds every dimension of the checkpoint's encoder."""
    for key, expected in params.dims().items():
        value = getattr(cfg, key)
        if value != expected:
            raise ValueError(f"{key} must be {expected}, the checkpoint's, got {value}")


def _cmd_gen(args) -> int:
    gen_cfg, train_cfg = _resolve_configs(args)
    out = Path(args.out)
    dataset = generate_dataset(gen_cfg)
    save_dataset(dataset, out)
    _write_effective_config(out, gen_cfg, train_cfg, args)
    print(f"wrote {len(dataset.tracklet_ids)} tracklets to {out}")
    return 0


def _cmd_train(args) -> int:
    from .trainer import train

    gen_cfg, cfg = _resolve_configs(args)
    dataset = load_dataset(args.data)
    cfg = cfg.with_overrides(d_in=dataset.d_in)
    result = train(dataset, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(result.params, result.store, cfg.total_epochs, out / "checkpoint.hpt")
    _write_json(out / "metrics.json", {"epochs": result.epochs})
    _write_effective_config(out, gen_cfg, cfg, args)
    if result.epochs:
        last = result.epochs[-1]
        print(
            f"trained {cfg.total_epochs} epochs; final mean loss "
            f"{last['mean_l_total']:.4f}"
        )
    else:
        print("trained 0 epochs; wrote initialized checkpoint")
    return 0


def _cmd_mine(args) -> int:
    from .evaluator import dataset_labels

    gen_cfg, cfg = _resolve_configs(args)
    params, store, saved_epoch = load_checkpoint(args.checkpoint)
    manifest = read_manifest(args.data)
    cfg = cfg.with_overrides(d_in=manifest.d_in)
    _check_encoder_dims(params, cfg)
    gt = dataset_labels(manifest)
    epoch = args.epoch if args.epoch is not None else min(saved_epoch, cfg.total_epochs)
    if not 0 <= epoch <= cfg.total_epochs:
        raise ValueError(f"--epoch {epoch} outside [0, {cfg.total_epochs}]")
    text = _mining_report_text(store, epoch, cfg, gt)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "mining_report.json").write_text(text, encoding="utf-8")
    _write_effective_config(out, gen_cfg, cfg, args)
    print(f"wrote mining report for epoch {epoch} to {out / 'mining_report.json'}")
    return 0


def _cmd_eval(args) -> int:
    from .evaluator import distance_distribution, evaluate_embeddings
    from .prototyping import embed_table, table_of_rows

    gen_cfg, cfg = _resolve_configs(args)
    # columns from disk to matrices: no Tracklet, no PrototypeStore
    params = load_encoder(args.checkpoint)
    manifest = read_manifest(args.data)
    frames = read_frames(manifest)  # load_dataset's checks, before the dims check
    cfg = cfg.with_overrides(d_in=manifest.d_in)
    _check_encoder_dims(params, cfg)
    vectors = embed_table(params, table_of_rows(frames, manifest.n_frames, cfg))
    del frames  # the all-pairs passes below need only the manifest
    results = evaluate_embeddings(manifest, vectors, max_rank=args.max_rank)
    # the layout of the dataset's frames.f32: little-endian float32, here
    # one row per tracklet in dataset order
    matrix = vectors.astype("<f4")
    payload = {
        "ir_to_vis": results["IR->VIS"].to_json(),
        "vis_to_ir": results["VIS->IR"].to_json(),
        "distance_distribution": distance_distribution(vectors, manifest.gt_identity),
        "embeddings": {
            "file": EMBEDDINGS_FILE,
            "dtype": "<f4",
            "shape": list(matrix.shape),
            "tracklet_ids": list(manifest.tracklet_ids),
        },
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / EMBEDDINGS_FILE).write_bytes(matrix.tobytes())
    _write_json(out / "report.json", payload)
    _write_effective_config(out, gen_cfg, cfg, args)
    print(
        "IR->VIS rank1={:.4f} map={:.4f} | VIS->IR rank1={:.4f} map={:.4f}".format(
            results["IR->VIS"].cmc[0],
            results["IR->VIS"].mean_ap,
            results["VIS->IR"].cmc[0],
            results["VIS->IR"].mean_ap,
        )
    )
    return 0


def _cmd_gradcheck(args) -> int:
    from .gradcheck import run_gradcheck

    gen_cfg, train_cfg = _resolve_configs(args)
    # the check runs its own seed, not the config's, and records the one it ran
    train_cfg = train_cfg.with_overrides(seed=getattr(args, "seed", 7))
    report = run_gradcheck(seed=train_cfg.seed)
    for depth, err in sorted(report["per_depth"].items()):
        print(f"tte_layers={depth}: max rel error {err:.3e}")
    print(f"max relative error: {report['max_rel_error']:.3e} "
          f"({report['elapsed_s']:.2f} s)")
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "gradcheck_report.json", report)
        _write_effective_config(out, gen_cfg, train_cfg, args)
    if report["max_rel_error"] >= 1e-4:
        raise RuntimeError(
            f"gradient check failed: max rel error {report['max_rel_error']:.3e}"
        )
    return 0


def _at_least_one(text: str) -> int:
    """An integer command-line value of 1 or more."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="hitpro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, data=False, checkpoint=False, out_required=True):
        p.add_argument("--config", help="flat JSON config file")
        p.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="override config seed")
        p.add_argument("--threads", type=int, help="accepted and ignored")
        if data:
            p.add_argument("--data", required=True, help="dataset dir or manifest.json")
        if checkpoint:
            p.add_argument("--checkpoint", required=True, help="checkpoint.hpt path")
        p.add_argument("--out", required=out_required, help="output directory")

    p_gen = sub.add_parser("gen", help="generate a synthetic dataset")
    add_common(p_gen)
    p_gen.set_defaults(func=_cmd_gen)

    # overrides store under their config key, and only when given
    p_train = sub.add_parser("train", help="run the training schedule")
    add_common(p_train, data=True)
    unset = argparse.SUPPRESS
    p_train.add_argument("--epochs", dest="total_epochs", type=int, default=unset,
                         metavar="N", help="override total epochs")
    p_train.add_argument("--iters", dest="iters_per_epoch", type=int, default=unset,
                         metavar="N", help="override iterations per epoch")
    p_train.add_argument("--no-dts", dest="use_dts", action="store_false", default=unset,
                         help="fixed threshold instead of dynamic")
    p_train.add_argument("--no-swa", dest="use_swa", action="store_false", default=unset,
                         help="uniform positive weights")
    p_train.add_argument("--no-hls", dest="use_hls", action="store_false", default=unset,
                         help="activate all losses from epoch 0")
    p_train.add_argument("--no-imcc", dest="use_imcc", action="store_false", default=unset,
                         help="disable cross-camera loss")
    p_train.add_argument("--no-cm", dest="use_cm", action="store_false", default=unset,
                         help="disable cross-modality loss")
    p_train.add_argument("--fixed-threshold", dest="fixed_threshold", type=float, default=unset,
                         metavar="H", help="threshold used with --no-dts")
    p_train.add_argument("--tte-layers", dest="n_tte_layers", type=int, default=unset,
                         metavar="N", help="temporal transformer depth")
    p_train.set_defaults(func=_cmd_train)

    p_mine = sub.add_parser("mine", help="dump a mining report for a checkpoint")
    add_common(p_mine, data=True, checkpoint=True)
    p_mine.add_argument("--epoch", type=int, help="epoch for the threshold schedule")
    p_mine.set_defaults(func=_cmd_mine)

    p_eval = sub.add_parser("eval", help="retrieval metrics and embedding report")
    add_common(p_eval, data=True, checkpoint=True)
    p_eval.add_argument("--max-rank", type=_at_least_one, default=20,
                        help="longest rank of the CMC curve (at least 1)")
    p_eval.add_argument("--n-pairs", type=int, help="accepted and ignored")
    p_eval.set_defaults(func=_cmd_eval)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    add_common(p_grad, out_required=False)
    p_grad.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
