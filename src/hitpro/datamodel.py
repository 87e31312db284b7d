"""Core domain types, dataset manifest/binary formats, checkpoint serialization.

On-disk formats:

* ``manifest.json``: one JSON document with a header (``d_in``,
  ``n_cameras_vis``, ``n_cameras_ir``) and a ``tracklets`` list of
  ``{tracklet_id, modality, camera_id, n_frames, gt_identity?}``; it names
  no file, and other keys are ignored. Undecodable bytes, wrong types, a
  ``d_in`` or ``n_frames`` below 1, a negative camera count or
  ``gt_identity``, any integer of 2**63 or more (or a total ``n_frames``
  that large), repeated ids and out-of-range cameras raise
  :class:`DatasetError`. It is read into int64 columns, not one object
  per entry.
* ``frames.f32``: every tracklet's ``n_frames x d_in`` frame rows,
  little-endian float32, row-major, back to back in manifest order; a
  tracklet's first row is the sum of ``n_frames`` before it, and the file
  size is exactly ``4 * d_in * sum(n_frames)`` bytes. It is read in one
  piece, and a loaded :class:`Dataset` holds it as one read-only matrix.
* ``checkpoint.hpt``: 4-byte little-endian header length, UTF-8 JSON header,
  then concatenated float32 blobs addressed by named sections.

Datasets and checkpoints are immutable after load and safe to share across
read-only workers.
"""

from __future__ import annotations

import enum
import json
import numbers
import operator
import struct
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

CHECKPOINT_FORMAT_VERSION = 1


class DatasetError(RuntimeError):
    """Malformed manifest or feature payload."""


class CheckpointError(RuntimeError):
    """Corrupt or incompatible checkpoint file."""


class Modality(enum.Enum):
    VIS = "VIS"
    IR = "IR"

    @property
    def other(self) -> "Modality":
        return Modality.IR if self is Modality.VIS else Modality.VIS


@dataclass(frozen=True)
class Tracklet:
    """A camera/modality-tagged sequence of frame feature vectors, as
    :class:`Dataset` takes and hands them out.

    ``gt_identity`` is evaluation-only ground truth; the training path never
    reads it (asserted by the label-blindness test).
    """

    tracklet_id: str
    modality: Modality
    camera_id: int
    frames: np.ndarray  # (L, d_in) float32
    gt_identity: Optional[int] = None

    def __post_init__(self):
        if self.frames.ndim != 2 or self.frames.shape[0] < 1:
            raise DatasetError(
                f"tracklet {self.tracklet_id}: frames must be a non-empty 2-D matrix"
            )

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


@dataclass(frozen=True)
class SubTracklet:
    """One of K contiguous, non-overlapping frame slices of a tracklet."""

    parent: str  # tracklet_id
    k: int
    start: int
    end: int  # half-open [start, end)

    def __post_init__(self):
        if self.end - self.start < 1:
            raise ValueError("sub-tracklet must contain at least one frame")

    def slice_frames(self, tracklet: Tracklet) -> np.ndarray:
        if tracklet.tracklet_id != self.parent:
            raise ValueError("sub-tracklet sliced against a foreign tracklet")
        return tracklet.frames[self.start : self.end]


@dataclass(frozen=True, eq=False)  # an array field: no field-wise ==
class Prototype:
    """Unit-norm identity anchor for one tracklet: its ``(d,)`` vector.

    One handed out by a :class:`PrototypeStore` holds a view of its row of
    the store's ``stacked`` matrix, so writing into ``vector[...]`` writes
    that row.
    """

    tracklet_id: str
    modality: Modality
    camera_id: int
    vector: np.ndarray  # (d,) float64


class PrototypeStore:
    """Prototypes as one ``(N, d)`` float64 matrix, ``stacked``, in blocks of
    rows per (modality, camera).

    The blocks come in one order, whoever builds the store: VIS cameras
    ascending, then IR cameras ascending. Each block keeps its tracklet ids
    in input order; row ``i`` of ``stacked`` is the prototype of the
    ``i``-th id. Losses, mining and the checkpoint read the camera blocks
    directly. The store is the one mutable training structure: EMA updates
    rewrite rows in place.
    """

    def __init__(self, prototypes: list[Prototype]):
        if len({p.vector.shape for p in prototypes}) > 1:
            raise ValueError("prototypes have mixed dimensions")
        self._fill(
            np.array([p.vector for p in prototypes]) if prototypes else np.empty((0, 0)),
            [p.tracklet_id for p in prototypes],
            [p.modality for p in prototypes],
            [p.camera_id for p in prototypes],
        )

    @classmethod
    def from_matrix(cls, matrix, ids, modalities, cameras) -> "PrototypeStore":
        """The store whose prototype of ``ids[i]``, in camera
        ``(modalities[i], cameras[i])``, is a copy of row ``i`` of the
        ``(n, d)`` ``matrix``."""
        store = cls.__new__(cls)
        store._fill(matrix, ids, modalities, cameras)
        return store

    def _fill(self, matrix, ids, modalities, cameras) -> None:
        if not (len(matrix) == len(ids) == len(modalities) == len(cameras)):
            raise ValueError("need one id, modality and camera per prototype row")
        members: dict[tuple[Modality, int], list[int]] = {}
        for i, key in enumerate(zip(modalities, cameras)):
            members.setdefault(key, []).append(i)
        # VIS cameras ascending, then IR cameras ascending
        members = {key: members[key]
                   for key in sorted(members, key=lambda key: (key[0] is Modality.IR, key[1]))}
        order = [i for rows in members.values() for i in rows]
        self._stacked = np.asarray(matrix, dtype=np.float64)[np.array(order, dtype=np.intp)]
        self._ids = [ids[i] for i in order]
        self._position: dict[str, int] = {}
        for row, tid in enumerate(self._ids):
            if self._position.setdefault(tid, row) != row:
                raise ValueError(f"duplicate prototype for tracklet {tid}")
        self._blocks = {key: b for b, key in enumerate(members)}
        self._bounds = np.cumsum([0, *map(len, members.values())], dtype=np.intp)

    @property
    def stacked(self) -> np.ndarray:
        """Every prototype as one live ``(N, d)`` matrix, camera blocks in order."""
        return self._stacked

    @property
    def block_bounds(self) -> np.ndarray:
        """Camera block ``b`` is rows ``bounds[b]:bounds[b + 1]`` of ``stacked``."""
        return self._bounds

    def block_rows(self, modality: Modality, camera_id: int) -> slice:
        """The camera's block of ``stacked``; empty for a camera without prototypes."""
        b = self._blocks.get((modality, camera_id))
        return slice(0, 0) if b is None else slice(*self._bounds[b : b + 2].tolist())

    def matrix(self, modality: Modality, camera_id: int) -> np.ndarray:
        """The camera's live ``(n_cam, d)`` prototype matrix, a view of ``stacked``."""
        return self._stacked[self.block_rows(modality, camera_id)]

    def position(self, tracklet_id: str) -> int:
        """Row of a tracklet's prototype in ``stacked``."""
        try:
            return self._position[tracklet_id]
        except KeyError:
            raise KeyError(f"no prototype for tracklet {tracklet_id!r}") from None

    def ids(self, modality: Modality, camera_id: int) -> list[str]:
        """Tracklet ids of the camera's matrix rows, in row order."""
        return self._ids[self.block_rows(modality, camera_id)]

    def locate(self, tracklet_id: str) -> tuple[Modality, int, int]:
        """``(modality, camera_id, row)`` of a tracklet's prototype."""
        position = self.position(tracklet_id)
        b = int(np.searchsorted(self._bounds, position, side="right")) - 1
        return (*list(self._blocks)[b], position - int(self._bounds[b]))

    def group(self, modality: Modality, camera_id: int) -> list[Prototype]:
        rows = self.block_rows(modality, camera_id)
        return [Prototype(self._ids[i], modality, camera_id, self._stacked[i])
                for i in range(rows.start, rows.stop)]

    def cameras(self, modality: Modality) -> list[int]:
        return [c for (m, c) in self._blocks if m is modality]

    def modality_prototypes(self, modality: Modality) -> list[Prototype]:
        return [p for cam in self.cameras(modality) for p in self.group(modality, cam)]

    def get(self, tracklet_id: str) -> Prototype:
        modality, camera_id, _ = self.locate(tracklet_id)
        return Prototype(tracklet_id, modality, camera_id,
                         self._stacked[self._position[tracklet_id]])

    def __len__(self) -> int:
        return len(self._ids)


class PositiveKind(enum.Enum):
    INTRA_MODAL = "INTRA_MODAL"
    CROSS_MODAL = "CROSS_MODAL"


@dataclass(frozen=True)
class WeightedPositiveSet:
    """Accepted target prototypes for one source prototype, with soft weights.

    At most one entry per target camera; weights sum to 1 when non-empty.
    """

    source: str  # source prototype's tracklet_id
    kind: PositiveKind
    entries: tuple[tuple[str, float], ...]  # (target tracklet_id, weight)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def target_ids(self) -> tuple[str, ...]:
        return tuple(t for t, _ in self.entries)


def setting(default, **bounds):
    """A config field's ``default`` and its bounds, any of ``ge``, ``gt``,
    ``le`` and ``lt``, for :func:`check_settings` to enforce."""
    return field(default=default, metadata=bounds)


# the values each declared field type admits, and how an error names them
_TYPES = {"bool": (bool, "a boolean"), "int": (numbers.Integral, "an integer"),
          "float": (numbers.Real, "a number")}
_BOUNDS = {"ge": ">=", "gt": ">", "le": "<=", "lt": "<"}  # each named as in ``operator``


def check_settings(schema, values: dict) -> None:
    """Hold each ``values[key]`` to the declaration of field ``key`` of the
    config dataclass ``schema``: its type (booleans in ``bool`` fields
    only), finite in a ``float`` field, and within its :func:`setting`
    bounds. A failure raises ``ValueError("<key> must be ...")``."""
    declared = {f.name: f for f in fields(schema)}
    for key, value in values.items():
        kind = declared[key].type
        admitted, noun = _TYPES[kind]
        if isinstance(value, bool) != (kind == "bool") or not isinstance(value, admitted):
            raise ValueError(f"{key} must be {noun}, got {value!r}")
        if kind == "float" and not abs(value) <= sys.float_info.max:
            raise ValueError(f"{key} must be finite, got {value!r}")
        for name, bound in declared[key].metadata.items():
            if not getattr(operator, name)(value, bound):
                raise ValueError(f"{key} must be {_BOUNDS[name]} {bound}, got {value!r}")


@dataclass(frozen=True)
class TrainConfig:
    """All optimization hyperparameters and ablation toggles.

    Defaults follow the reference training recipe; desk-scale runs override
    sizes and epochs.
    """

    # architecture
    d_in: int = setting(16, ge=1)
    embed_dim: int = setting(32, ge=1)
    ffn_dim: int = setting(64, ge=1)
    pool_hidden_dim: int = setting(32, ge=1)
    n_tte_layers: int = setting(2, ge=0, le=2)  # capped: a small hand-derived backward
    seq_len: int = setting(6, ge=1)
    # prototyping
    n_subtracklets: int = setting(4, ge=1)  # K
    # temperatures
    loss_temp: float = setting(0.05, gt=0)
    weight_temp: float = setting(0.1, gt=0)
    # dynamic threshold schedule
    thresh_init: float = setting(0.99, gt=0, le=1)
    thresh_final: float = setting(0.90, gt=0, le=1)
    # prototype memory
    ema_momentum: float = setting(0.2, gt=0, le=1)
    # loss scheduling
    intra_start_epoch: int = setting(5, ge=0)
    cross_start_epoch: int = setting(15, ge=0)
    total_epochs: int = setting(60, ge=0)
    iters_per_epoch: int = setting(300, ge=0)
    # batch shape C x P x S
    batch_cameras: int = setting(2, ge=1)
    batch_tracklets: int = setting(2, ge=1)
    batch_subs: int = setting(2, ge=1)
    # optimizer
    lr: float = setting(0.00035, gt=0)
    sgd_momentum: float = setting(0.9, ge=0, lt=1)
    lr_decay_every: int = setting(20, ge=1)
    lr_decay_factor: float = setting(0.1, gt=0)
    seed: int = setting(0, ge=0)
    # ablation toggles
    use_imcc: bool = True
    use_cm: bool = True
    use_hls: bool = True
    use_dts: bool = True
    fixed_threshold: float = 0.7  # used when use_dts is False
    use_swa: bool = True

    def __post_init__(self):
        check_settings(TrainConfig, vars(self))
        if self.thresh_final > self.thresh_init:
            raise ValueError("thresh_final must be <= thresh_init")
        if self.intra_start_epoch > self.cross_start_epoch:
            raise ValueError("intra_start_epoch must be <= cross_start_epoch")
        if self.cross_start_epoch > self.total_epochs:
            raise ValueError("cross_start_epoch must be <= total_epochs")

    @property
    def batch_size(self) -> int:
        return self.batch_cameras * self.batch_tracklets * self.batch_subs

    def with_overrides(self, **kwargs) -> "TrainConfig":
        return replace(self, **kwargs)


def _check_ids_and_cameras(ids, is_vis, cameras, n_cameras_vis: int, n_cameras_ir: int) -> None:
    """A repeated tracklet id, or a camera id outside its modality's range,
    raises :class:`DatasetError` naming the first such tracklet in order (a
    repeated id before its camera). ``ids`` is a sequence of strings,
    ``is_vis`` and ``cameras`` are columns: VIS (else IR) and camera id."""
    repeated = np.zeros(len(ids), dtype=bool)
    if len(set(ids)) < len(ids):
        first = dict(zip(reversed(ids), range(len(ids) - 1, -1, -1)))  # id -> its first index
        repeated = np.array([first[tid] != i for i, tid in enumerate(ids)])
    n_cams = np.where(is_vis, n_cameras_vis, n_cameras_ir)
    bad = np.flatnonzero(repeated | (cameras < 0) | (cameras >= n_cams))
    if bad.size:
        i = int(bad[0])
        if repeated[i]:
            raise DatasetError(f"duplicate tracklet_id {ids[i]!r}")
        raise DatasetError(
            f"tracklet {ids[i]}: camera_id {cameras[i]} out of range "
            f"for {'VIS' if is_vis[i] else 'IR'} ({n_cams[i]} cameras)"
        )


PAYLOAD_FILE = "frames.f32"


def _json_int(value, what: str, error: type[Exception], minimum: Optional[int] = None) -> int:
    """A JSON integer read from a file; floats, strings, booleans, values
    below ``minimum`` and values outside int64 raise ``error``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{what} must be an integer, got {value!r}")
    if value < (-2**63 if minimum is None else minimum):
        raise error(f"{what} must be at least {-2**63 if minimum is None else minimum}, "
                    f"got {value}")
    if value >= 2**63:
        raise error(f"{what} must be below 2**63, got {value}")
    return value


@dataclass(frozen=True)
class ManifestEntry:
    """One tracklet as ``manifest.json`` describes it; ``offset`` is the
    first of its ``n_frames`` rows in ``frames.f32``."""

    tracklet_id: str
    modality: Modality
    camera_id: int
    n_frames: int
    offset: int
    gt_identity: Optional[int] = None


@dataclass(frozen=True, eq=False)  # array fields: no field-wise ==
class Manifest:
    """A dataset's ``manifest.json``: the header values, the entries as
    read-only columns in file order, and the path of ``frames.f32``, which
    has not been read (None for a dataset built in process). Entry ``i`` is
    ``tracklet_ids[i]`` and row ``i`` of each column; ``gt_identity`` is -1
    where the entry has no label; ``offset`` is derived from ``n_frames``."""

    d_in: int
    n_cameras_vis: int
    n_cameras_ir: int
    tracklet_ids: tuple[str, ...]
    is_vis: np.ndarray  # (n,) bool: VIS, else IR
    camera_id: np.ndarray  # (n,) int64
    n_frames: np.ndarray  # (n,) int64
    offset: np.ndarray = field(init=False)  # (n,) int64
    gt_identity: np.ndarray  # (n,) int64
    payload: Optional[Path]

    def __post_init__(self):
        object.__setattr__(self, "offset", np.cumsum(self.n_frames) - self.n_frames)
        for column in (self.is_vis, self.camera_id, self.n_frames, self.offset, self.gt_identity):
            column.flags.writeable = False

    @property
    def modalities(self) -> list[Modality]:
        """Each entry's modality, in entry order."""
        return [Modality.VIS if vis else Modality.IR for vis in self.is_vis.tolist()]

    def _entries(self):
        """Each entry's ``(tracklet_id, modality, camera_id, n_frames,
        offset, gt_identity)`` as Python values, ``None`` for no label."""
        return zip(self.tracklet_ids, self.modalities, self.camera_id.tolist(),
                   self.n_frames.tolist(), self.offset.tolist(),
                   [None if gt < 0 else gt for gt in self.gt_identity.tolist()])

    @property
    def tracklets(self) -> tuple[ManifestEntry, ...]:
        """One :class:`ManifestEntry` per entry, in file order."""
        return tuple(ManifestEntry(*entry) for entry in self._entries())

    @property
    def has_labels(self) -> bool:
        return bool((self.gt_identity >= 0).all())

    def n_cameras(self, modality: Modality) -> int:
        return self.n_cameras_vis if modality is Modality.VIS else self.n_cameras_ir


# an entry's fields in the order they are checked, each with the test of
# its column: per entry, whether the JSON value is valid (a missing field
# reads as None)
_ENTRY_FIELDS = (
    ("tracklet_id", lambda col: [type(v) is str for v in col]),
    ("n_frames", lambda col: [type(v) is int and 1 <= v < 2**63 for v in col]),
    ("modality", lambda col: [v == "VIS" or v == "IR" for v in col]),
    ("camera_id", lambda col: [type(v) is int and -2**63 <= v < 2**63 for v in col]),
    ("gt_identity", lambda col: [v is None or type(v) is int and 0 <= v < 2**63 for v in col]),
)


def _field_error(entry, i: int, key: str) -> DatasetError:
    """The error of field ``key`` of manifest entry ``i``, whose column test
    failed: reading the field as the format requires raises it."""
    try:
        value = entry.get(key) if key == "gt_identity" else entry[key]
        if key == "tracklet_id":
            raise TypeError(f"tracklet_id must be a string, got {value!r}")
        if key == "modality":
            Modality(value)
        _json_int(value, f"entry {i} {key}", DatasetError,
                  {"n_frames": 1, "gt_identity": 0}.get(key))
    except (KeyError, TypeError, ValueError) as exc:
        return DatasetError(f"manifest entry {i} is malformed: {exc!r}")
    except DatasetError as exc:
        return exc


def _checked_manifest(manifest: dict, payload: Optional[Path]) -> Manifest:
    """The :class:`Manifest` of a manifest's header counts and ``tracklets``
    list, each value as ``manifest.json`` holds it, after every check of
    the format but the JSON document's own.

    The entries are checked as columns, one per field. A bad entry raises
    the :class:`DatasetError` of its first bad field, for the first bad
    entry in order; repeated ids and camera ranges are checked after every
    entry's fields.
    """
    d_in = _json_int(manifest["d_in"], "d_in", DatasetError, minimum=1)
    n_cameras_vis = _json_int(manifest["n_cameras_vis"], "n_cameras_vis", DatasetError, 0)
    n_cameras_ir = _json_int(manifest["n_cameras_ir"], "n_cameras_ir", DatasetError, 0)
    entries = manifest["tracklets"]
    rows = [e if type(e) is dict else {} for e in entries]
    columns = {key: [row.get(key) for row in rows] for key, _ in _ENTRY_FIELDS}
    valid = [ok(columns[key]) for key, ok in _ENTRY_FIELDS]
    if not all(map(all, valid)):
        bad = ~np.array(valid, dtype=bool)  # (field, entry)
        i = int(np.flatnonzero(bad.any(axis=0))[0])
        raise _field_error(entries[i], i, _ENTRY_FIELDS[int(np.flatnonzero(bad[:, i])[0])][0])
    n_rows = sum(columns["n_frames"])
    if n_rows >= 2**63:
        raise DatasetError(f"manifest implies {n_rows} frames; {PAYLOAD_FILE} "
                           "cannot hold 2**63 or more")
    ids = tuple(columns["tracklet_id"])
    is_vis = np.array([m == "VIS" for m in columns["modality"]], dtype=bool)
    camera_id = np.array(columns["camera_id"], dtype=np.int64)
    n_frames = np.array(columns["n_frames"], dtype=np.int64)
    gt_identity = np.array([-1 if v is None else v for v in columns["gt_identity"]],
                           dtype=np.int64)
    _check_ids_and_cameras(ids, is_vis, camera_id, n_cameras_vis, n_cameras_ir)
    return Manifest(d_in, n_cameras_vis, n_cameras_ir, ids, is_vis, camera_id, n_frames,
                    gt_identity, payload)


def _check_finite(rows: np.ndarray) -> None:
    """A NaN or infinite frame value raises :class:`DatasetError` naming its row."""
    if not np.isfinite(rows).all():
        row = int(np.flatnonzero(~np.isfinite(rows).all(axis=1))[0])
        raise DatasetError(f"payload {PAYLOAD_FILE} holds a non-finite value in frame row {row}")


@dataclass(frozen=True, eq=False, init=False)
class Dataset(Manifest):
    """The :class:`Manifest` columns plus ``frames``: every entry's frame
    rows back to back, as ``frames.f32`` holds them (entry ``i`` owns rows
    ``offset[i] : offset[i] + n_frames[i]``).

    ``Dataset(d_in=, n_cameras_vis=, n_cameras_ir=, tracklets=)`` holds
    :class:`Tracklet` objects to what their files would hold: the manifest
    values pass :func:`read_manifest`'s checks, and the frames, as float32,
    have ``d_in`` columns and are finite. ``tracklets``, ``group``, ``get``
    and ``by_modality`` build :class:`Tracklet` views of ``frames``.
    """

    frames: np.ndarray  # (sum(n_frames), d_in) float32, read-only

    def __init__(self, d_in: int, n_cameras_vis: int, n_cameras_ir: int, tracklets):
        tracklets = tuple(tracklets)
        manifest = _checked_manifest({
            "d_in": d_in, "n_cameras_vis": n_cameras_vis, "n_cameras_ir": n_cameras_ir,
            "tracklets": [{"tracklet_id": t.tracklet_id, "modality": t.modality.value,
                           "camera_id": t.camera_id, "n_frames": t.n_frames,
                           "gt_identity": t.gt_identity} for t in tracklets],
        }, None)
        for t in tracklets:
            if t.frames.shape[1] != d_in:
                raise DatasetError(
                    f"tracklet {t.tracklet_id}: feature dim {t.frames.shape[1]} != d_in {d_in}"
                )
        with np.errstate(over="ignore"):  # beyond float32 is inf, which fails below
            frames = np.concatenate([t.frames for t in tracklets] or [np.empty((0, d_in))],
                                    dtype="<f4")
        _check_finite(frames)
        frames.flags.writeable = False
        self.__dict__.update(vars(manifest), frames=frames)

    @classmethod
    def from_manifest(cls, manifest: Manifest, frames: np.ndarray) -> "Dataset":
        """The dataset of a checked manifest's columns and its read-only
        float32 frame rows; checks nothing more."""
        dataset = cls.__new__(cls)
        dataset.__dict__.update(vars(manifest), frames=frames)
        return dataset

    def _views(self, keep) -> list[Tracklet]:
        """A :class:`Tracklet` per entry that ``keep`` (one bool per entry)
        holds, in dataset order; its frames are a read-only view of ``frames``."""
        return [Tracklet(tid, modality, cam, self.frames[offset : offset + n], gt)
                for (tid, modality, cam, n, offset, gt), kept in zip(self._entries(), keep)
                if kept]

    @property
    def tracklets(self) -> tuple[Tracklet, ...]:
        return tuple(self._views([True] * len(self.tracklet_ids)))

    def by_modality(self, modality: Modality) -> list[Tracklet]:
        return self._views((self.is_vis == (modality is Modality.VIS)).tolist())

    def group(self, modality: Modality, camera_id: int) -> list[Tracklet]:
        """The camera's tracklets in dataset order."""
        keep = (self.is_vis == (modality is Modality.VIS)) & (self.camera_id == camera_id)
        return self._views(keep.tolist())

    def get(self, tracklet_id: str) -> Tracklet:
        found = self._views([tid == tracklet_id for tid in self.tracklet_ids])
        if not found:
            raise KeyError(tracklet_id)
        return found[0]


def save_dataset(dataset: Dataset, out_dir: str | Path) -> Path:
    """Write manifest.json plus the frames.f32 payload; returns manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dataset.frames.tofile(out / PAYLOAD_FILE)
    entries = [{"tracklet_id": tid, "modality": modality.value, "camera_id": cam, "n_frames": n,
                **({} if gt is None else {"gt_identity": gt})}
               for tid, modality, cam, n, _, gt in dataset._entries()]
    manifest = {"d_in": dataset.d_in, "n_cameras_vis": dataset.n_cameras_vis,
                "n_cameras_ir": dataset.n_cameras_ir, "tracklets": entries}
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return manifest_path


def read_manifest(manifest_path: str | Path) -> Manifest:
    """Parse a dataset's manifest (its directory or ``manifest.json``) and
    validate its encoding, types, counts, ids and camera ranges
    (:func:`_checked_manifest`)."""
    manifest_path = Path(manifest_path)
    if manifest_path.is_dir():
        manifest_path = manifest_path / "manifest.json"
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DatasetError(f"malformed manifest {manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DatasetError(f"manifest {manifest_path} is not a JSON object")
    for key in ("d_in", "n_cameras_vis", "n_cameras_ir", "tracklets"):
        if key not in manifest:
            raise DatasetError(f"manifest missing required key {key!r}")
    if not isinstance(manifest["tracklets"], list):
        raise DatasetError("manifest 'tracklets' is not a list")
    return _checked_manifest(manifest, manifest_path.parent / PAYLOAD_FILE)


def read_frames(manifest: Manifest) -> np.ndarray:
    """A dataset's ``frames.f32`` in one read, as a read-only ``(rows,
    d_in)`` float32 matrix. Its size must match the manifest's ``n_frames``
    and ``d_in``, and its values must all be finite."""
    d_in, n_rows = manifest.d_in, int(manifest.n_frames.sum())
    raw = manifest.payload.read_bytes()  # a missing payload raises FileNotFoundError
    expected = 4 * d_in * n_rows
    if len(raw) != expected:
        raise DatasetError(
            f"payload {PAYLOAD_FILE} holds {len(raw)} bytes, manifest implies {expected} "
            f"({n_rows} frames, d_in={d_in})"
        )
    rows = np.frombuffer(raw, dtype="<f4").reshape(n_rows, d_in)
    _check_finite(rows)
    return rows


def load_dataset(manifest_path: str | Path) -> Dataset:
    """Load a dataset: :func:`read_manifest`, then :func:`read_frames`,
    each check made once; builds no per-entry object."""
    manifest = read_manifest(manifest_path)
    return Dataset.from_manifest(manifest, read_frames(manifest))


def save_checkpoint(params, store: PrototypeStore, epoch: int, path: str | Path) -> None:
    """Serialize encoder parameters plus prototype store; float32 on disk.

    ``epoch`` must be at least 0, as :func:`load_checkpoint` requires;
    otherwise this raises ``ValueError`` before the file is opened.
    """
    epoch = _json_int(int(epoch), "epoch", ValueError, minimum=0)
    sections: list[dict] = []
    blobs: list[bytes] = []
    offset = 0

    def add(name: str, arr: np.ndarray):
        nonlocal offset
        data = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        sections.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blobs.append(data)
        offset += len(data)

    for name, arr in params.named_arrays():
        add(f"encoder.{name}", arr)

    store_meta = []
    for modality in (Modality.VIS, Modality.IR):
        for cam in store.cameras(modality):
            add(f"store.{modality.value}.{cam}", store.matrix(modality, cam))
            store_meta.append({"modality": modality.value, "camera_id": cam,
                               "tracklet_ids": store.ids(modality, cam)})

    header = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "epoch": epoch,
        "encoder": params.dims(),
        "sections": sections,
        "store_groups": store_meta,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for b in blobs:
            fh.write(b)


def load_checkpoint(path: str | Path):
    """Inverse of :func:`save_checkpoint`; returns ``(params, store, epoch)``.

    A malformed file raises :class:`CheckpointError`.
    """
    params, store_rows, epoch = _read_checkpoint(path)
    return params, PrototypeStore.from_matrix(*store_rows), epoch


def load_encoder(path: str | Path):
    """The encoder parameters of a checkpoint, after every check that
    :func:`load_checkpoint` makes on every section; builds no store."""
    return _read_checkpoint(path)[0]


def _read_checkpoint(path: str | Path):
    """``(params, (matrix, ids, modalities, cameras), epoch)`` of a
    checkpoint: the store as :meth:`PrototypeStore.from_matrix` takes it."""
    raw = Path(path).read_bytes()
    if len(raw) < 4:
        raise CheckpointError(f"corrupt checkpoint {path}: shorter than header length field")
    (header_len,) = struct.unpack("<I", raw[:4])
    if len(raw) < 4 + header_len:
        raise CheckpointError(f"corrupt checkpoint {path}: truncated header")
    try:
        header = json.loads(raw[4 : 4 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: bad header ({exc})") from exc
    version = header.get("format_version") if isinstance(header, dict) else None
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint {path}: format version {version} != {CHECKPOINT_FORMAT_VERSION}"
        )
    try:
        return _parse_checkpoint(header, raw[4 + header_len :])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc!r}") from exc


def _parse_checkpoint(header: dict, blob: bytes):
    from .encoder import EncoderParams  # deferred to avoid an import cycle

    arrays: dict[str, np.ndarray] = {}
    spans = []  # (name, start, end) of each section, in header order
    for sec in header["sections"]:
        name = sec["name"]
        if name in arrays:
            raise ValueError(f"section {name!r} is listed twice")
        shape = tuple(
            _json_int(n, f"section {name!r} shape entry", ValueError, 0) for n in sec["shape"]
        )
        count = int(np.prod(shape)) if shape else 1
        start = _json_int(sec["offset"], f"section {name!r} offset", ValueError, 0)
        end = start + 4 * count
        if end > len(blob):
            raise ValueError(f"truncated section {name}")
        arr = np.frombuffer(blob[start:end], dtype="<f4").reshape(shape)
        if not np.isfinite(arr).all():
            raise ValueError(f"section {name!r} holds non-finite values")
        arrays[name] = arr.astype(np.float64)
        spans.append((name, start, end))

    encoder_arrays = {
        name[len("encoder.") :]: arr for name, arr in arrays.items() if name.startswith("encoder.")
    }
    params = EncoderParams.from_named_arrays(header["encoder"], encoder_arrays)

    blocks, ids, modalities, cameras, names = [], [], [], [], set()
    for group in header["store_groups"]:
        modality = Modality(group["modality"])
        cam = _json_int(group["camera_id"], "store group camera_id", ValueError, 0)
        group_ids = group["tracklet_ids"]
        name = f"store.{modality.value}.{cam}"
        if name not in arrays:
            raise KeyError(f"missing store section {name!r}")
        if name in names:
            raise ValueError(f"store group of section {name!r} is listed twice")
        names.add(name)
        if not isinstance(group_ids, list) or not all(isinstance(t, str) for t in group_ids):
            raise ValueError(f"tracklet ids of section {name!r} must be a list of strings")
        mat = arrays[name]
        if mat.ndim != 2 or mat.shape[0] != len(group_ids):
            raise ValueError(
                f"{len(group_ids)} tracklet ids for section {name!r} of shape {mat.shape}"
            )
        # a zero row is finite, but every cosine against it is NaN
        zero_rows = np.flatnonzero(~mat.any(axis=1))
        if len(zero_rows):
            raise ValueError(f"section {name!r} row {zero_rows[0]} has zero norm")
        blocks.append(mat)
        ids.extend(group_ids)
        modalities.extend([modality] * len(group_ids))
        cameras.extend([cam] * len(group_ids))
    # a section nothing claims would be dropped without a word
    unclaimed = arrays.keys() - names - {f"encoder.{n}" for n, _ in params.named_arrays()}
    if unclaimed:
        raise ValueError(f"sections {sorted(unclaimed)} belong to neither the encoder "
                         "nor a store group")
    matrix = np.concatenate(blocks) if blocks else np.empty((0, 0))
    seen = set()  # a repeated id, which the store would refuse
    for tid in ids:
        if tid in seen:
            raise ValueError(f"duplicate prototype for tracklet {tid}")
        seen.add(tid)
    epoch = _json_int(header["epoch"], "epoch", ValueError, 0)
    # the sections lie back to back in header order from byte 0 and fill the
    # blob: no two share bytes and no byte goes unread
    at = 0
    for name, start, end in spans:
        if start != at:
            raise ValueError(f"section {name!r} starts at byte {start}, not {at}")
        at = end
    if at != len(blob):
        raise ValueError(f"{len(blob) - at} bytes follow the last section")
    return params, (matrix, ids, modalities, cameras), epoch
