"""Core domain types, dataset manifest/binary formats, checkpoint serialization.

On-disk formats:

* ``manifest.json``: one JSON document with a header (``d_in``,
  ``n_cameras_vis``, ``n_cameras_ir``) and a ``tracklets`` list of
  ``{tracklet_id, modality, camera_id, n_frames, gt_identity?}``; it names
  no file, and other keys are ignored. Undecodable bytes, wrong types, a
  ``d_in`` or ``n_frames`` below 1, repeated ids and out-of-range cameras
  raise :class:`DatasetError`.
* ``frames.f32``: every tracklet's ``n_frames x d_in`` frame rows,
  little-endian float32, row-major, back to back in manifest order; a
  tracklet's first row is the sum of ``n_frames`` before it, and the file
  size is exactly ``4 * d_in * sum(n_frames)`` bytes. It is read in one
  piece, and each loaded tracklet's frames are a read-only view of it.
* ``checkpoint.hpt``: 4-byte little-endian header length, UTF-8 JSON header,
  then concatenated float32 blobs addressed by named sections.

Datasets and checkpoints are immutable after load and safe to share across
read-only workers.
"""

from __future__ import annotations

import enum
import json
import math
import struct
from dataclasses import dataclass, replace
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
    """A camera/modality-tagged sequence of frame feature vectors.

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
        if self.gt_identity is not None and self.gt_identity < 0:
            raise DatasetError(f"tracklet {self.tracklet_id}: negative gt_identity")

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


class Prototype:
    """Unit-norm identity anchor for one tracklet.

    A prototype built directly owns a copy of its ``(d,)`` float64 vector. One
    handed out by a :class:`PrototypeStore` is a view of a row of the store's
    ``stacked`` matrix: reading ``vector`` reads that row, assigning it
    writes the row.
    """

    __slots__ = ("tracklet_id", "modality", "camera_id", "_matrix", "_row")

    def __init__(self, tracklet_id: str, modality: Modality, camera_id: int, vector):
        self.tracklet_id = tracklet_id
        self.modality = modality
        self.camera_id = camera_id
        self._matrix = np.array(vector, dtype=np.float64, ndmin=2)
        self._row = 0

    @property
    def vector(self) -> np.ndarray:
        return self._matrix[self._row]

    @vector.setter
    def vector(self, value) -> None:
        self._matrix[self._row] = value


class PrototypeStore:
    """Prototypes as one ``(N, d)`` float64 matrix, ``stacked``, in blocks of
    rows per (modality, camera).

    Each camera block keeps its tracklet ids in dataset order, stable for
    the epoch; row ``i`` of ``stacked`` is the prototype of the ``i``-th id.
    Losses, mining and the checkpoint read the camera blocks directly. The
    store is the one mutable training structure: EMA updates rewrite rows
    in place.
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
        ``(n, d)`` ``matrix``. Cameras keep their rows in input order."""
        store = cls.__new__(cls)
        store._fill(matrix, ids, modalities, cameras)
        return store

    def _fill(self, matrix, ids, modalities, cameras) -> None:
        if not (len(matrix) == len(ids) == len(modalities) == len(cameras)):
            raise ValueError("need one id, modality and camera per prototype row")
        members: dict[tuple[Modality, int], list[int]] = {}
        for i, key in enumerate(zip(modalities, cameras)):
            members.setdefault(key, []).append(i)
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

    def _view(self, modality: Modality, camera_id: int, position: int) -> Prototype:
        p = Prototype.__new__(Prototype)
        p.tracklet_id, p.modality, p.camera_id = self._ids[position], modality, camera_id
        p._matrix, p._row = self._stacked, position
        return p

    def group(self, modality: Modality, camera_id: int) -> list[Prototype]:
        rows = self.block_rows(modality, camera_id)
        return [self._view(modality, camera_id, i) for i in range(rows.start, rows.stop)]

    def cameras(self, modality: Modality) -> list[int]:
        return sorted(c for (m, c) in self._blocks if m is modality)

    def modality_prototypes(self, modality: Modality) -> list[Prototype]:
        return [p for cam in self.cameras(modality) for p in self.group(modality, cam)]

    def get(self, tracklet_id: str) -> Prototype:
        modality, camera_id, _ = self.locate(tracklet_id)
        return self._view(modality, camera_id, self._position[tracklet_id])

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, tracklet_id: str) -> bool:
        return tracklet_id in self._position


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


@dataclass(frozen=True)
class TrainConfig:
    """All optimization hyperparameters and ablation toggles.

    Defaults follow the reference training recipe; desk-scale runs override
    sizes and epochs.
    """

    # architecture
    d_in: int = 16
    embed_dim: int = 32
    ffn_dim: int = 64
    pool_hidden_dim: int = 32
    n_tte_layers: int = 2
    seq_len: int = 6
    # prototyping
    n_subtracklets: int = 4  # K
    # temperatures
    loss_temp: float = 0.05
    weight_temp: float = 0.1
    # dynamic threshold schedule
    thresh_init: float = 0.99
    thresh_final: float = 0.90
    # prototype memory
    ema_momentum: float = 0.2
    # loss scheduling
    intra_start_epoch: int = 5
    cross_start_epoch: int = 15
    total_epochs: int = 60
    iters_per_epoch: int = 300
    # batch shape C x P x S
    batch_cameras: int = 2
    batch_tracklets: int = 2
    batch_subs: int = 2
    # optimizer
    lr: float = 0.00035
    sgd_momentum: float = 0.9
    lr_decay_every: int = 20
    lr_decay_factor: float = 0.1
    seed: int = 0
    # ablation toggles
    use_imcc: bool = True
    use_cm: bool = True
    use_hls: bool = True
    use_dts: bool = True
    fixed_threshold: float = 0.7  # used when use_dts is False
    use_swa: bool = True

    def __post_init__(self):
        if not (0.0 < self.thresh_final <= self.thresh_init <= 1.0):
            raise ValueError("need 0 < thresh_final <= thresh_init <= 1")
        if not (0 <= self.intra_start_epoch <= self.cross_start_epoch <= self.total_epochs):
            raise ValueError("need 0 <= intra_start <= cross_start <= total_epochs")
        for key in ("loss_temp", "weight_temp", "lr", "lr_decay_factor"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{key} must be finite and > 0")
        if not (0.0 <= self.sgd_momentum < 1.0):
            raise ValueError("sgd_momentum must be in [0, 1)")
        if not math.isfinite(self.fixed_threshold):
            raise ValueError("fixed_threshold must be finite")
        if not (0.0 < self.ema_momentum <= 1.0):
            raise ValueError("ema_momentum must be in (0, 1]")
        if self.n_tte_layers not in (0, 1, 2):
            raise ValueError("n_tte_layers must be 0, 1 or 2")
        if self.iters_per_epoch < 0:
            raise ValueError("iters_per_epoch must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        for key in ("d_in", "embed_dim", "ffn_dim", "pool_hidden_dim", "seq_len", "n_subtracklets",
                    "batch_cameras", "batch_tracklets", "batch_subs", "lr_decay_every"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1")

    @property
    def batch_size(self) -> int:
        return self.batch_cameras * self.batch_tracklets * self.batch_subs

    def with_overrides(self, **kwargs) -> "TrainConfig":
        return replace(self, **kwargs)


def _index_tracklets(tracklets, n_cameras_vis: int, n_cameras_ir: int) -> dict:
    """``tracklet_id -> tracklet``; a repeated id, or a camera id outside its
    modality's range, raises :class:`DatasetError`."""
    by_id = {}
    for t in tracklets:
        if t.tracklet_id in by_id:
            raise DatasetError(f"duplicate tracklet_id {t.tracklet_id!r}")
        by_id[t.tracklet_id] = t
        n_cams = n_cameras_vis if t.modality is Modality.VIS else n_cameras_ir
        if not (0 <= t.camera_id < n_cams):
            raise DatasetError(
                f"tracklet {t.tracklet_id}: camera_id {t.camera_id} out of range "
                f"for {t.modality.value} ({n_cams} cameras)"
            )
    return by_id


@dataclass(frozen=True)
class Dataset:
    """Immutable collection of tracklets plus manifest header values."""

    d_in: int
    n_cameras_vis: int
    n_cameras_ir: int
    tracklets: tuple[Tracklet, ...]

    def __post_init__(self):
        by_id = _index_tracklets(self.tracklets, self.n_cameras_vis, self.n_cameras_ir)
        groups: dict[tuple[Modality, int], list[Tracklet]] = {}
        for t in self.tracklets:
            if t.frames.shape[1] != self.d_in:
                raise DatasetError(
                    f"tracklet {t.tracklet_id}: feature dim {t.frames.shape[1]} != d_in {self.d_in}"
                )
            groups.setdefault((t.modality, t.camera_id), []).append(t)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_groups", groups)

    def n_cameras(self, modality: Modality) -> int:
        return self.n_cameras_vis if modality is Modality.VIS else self.n_cameras_ir

    def by_modality(self, modality: Modality) -> list[Tracklet]:
        return [t for t in self.tracklets if t.modality is modality]

    def group(self, modality: Modality, camera_id: int) -> list[Tracklet]:
        """The camera's tracklets in dataset order."""
        return list(self._groups.get((modality, camera_id), ()))

    def get(self, tracklet_id: str) -> Tracklet:
        return self._by_id[tracklet_id]

    @property
    def has_labels(self) -> bool:
        return all(t.gt_identity is not None for t in self.tracklets)


PAYLOAD_FILE = "frames.f32"


def save_dataset(dataset: Dataset, out_dir: str | Path) -> Path:
    """Write manifest.json plus the frames.f32 payload; returns manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    with open(out / PAYLOAD_FILE, "wb") as fh:
        for t in dataset.tracklets:
            fh.write(np.ascontiguousarray(t.frames, dtype="<f4"))
            entry = {
                "tracklet_id": t.tracklet_id,
                "modality": t.modality.value,
                "camera_id": t.camera_id,
                "n_frames": t.n_frames,
            }
            if t.gt_identity is not None:
                entry["gt_identity"] = t.gt_identity
            entries.append(entry)
    manifest = {
        "d_in": dataset.d_in,
        "n_cameras_vis": dataset.n_cameras_vis,
        "n_cameras_ir": dataset.n_cameras_ir,
        "tracklets": entries,
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return manifest_path


def _json_int(value, what: str, error: type[Exception], minimum: Optional[int] = None) -> int:
    """A JSON integer read from a file; floats, strings, booleans and values
    below ``minimum`` raise ``error``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{what} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise error(f"{what} must be at least {minimum}, got {value}")
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


@dataclass(frozen=True)
class Manifest:
    """A parsed and validated ``manifest.json``: the header values, one
    entry per tracklet in file order, and the path of ``frames.f32``,
    which has not been read."""

    d_in: int
    n_cameras_vis: int
    n_cameras_ir: int
    tracklets: tuple[ManifestEntry, ...]
    payload: Path

    @property
    def has_labels(self) -> bool:
        return all(t.gt_identity is not None for t in self.tracklets)


def read_manifest(manifest_path: str | Path) -> Manifest:
    """Parse a dataset's manifest (its directory or ``manifest.json``) and
    validate its encoding, types, counts, ids and camera ranges."""
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
    d_in = _json_int(manifest["d_in"], "d_in", DatasetError, minimum=1)
    n_cameras_vis = _json_int(manifest["n_cameras_vis"], "n_cameras_vis", DatasetError)
    n_cameras_ir = _json_int(manifest["n_cameras_ir"], "n_cameras_ir", DatasetError)
    entries = []
    offset = 0
    for i, entry in enumerate(manifest["tracklets"]):
        try:
            tid = entry["tracklet_id"]
            if not isinstance(tid, str):
                raise TypeError(f"tracklet_id must be a string, got {tid!r}")
            n_frames = _json_int(entry["n_frames"], f"entry {i} n_frames", DatasetError,
                                 minimum=1)
            modality = Modality(entry["modality"])
            camera_id = _json_int(entry["camera_id"], f"entry {i} camera_id", DatasetError)
            gt_identity = entry.get("gt_identity")
            if gt_identity is not None:
                gt_identity = _json_int(gt_identity, f"entry {i} gt_identity", DatasetError)
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetError(f"manifest entry {i} is malformed: {exc!r}") from exc
        entries.append(ManifestEntry(tid, modality, camera_id, n_frames, offset, gt_identity))
        offset += n_frames
    _index_tracklets(entries, n_cameras_vis, n_cameras_ir)
    return Manifest(d_in, n_cameras_vis, n_cameras_ir, tuple(entries),
                    manifest_path.parent / PAYLOAD_FILE)


def load_dataset(manifest_path: str | Path) -> Dataset:
    """Load a dataset: :func:`read_manifest`, then ``frames.f32`` in one
    read, whose size must match the manifest's ``n_frames`` and ``d_in`` and
    whose values must all be finite. Each tracklet's frames are a read-only
    view of that one buffer."""
    manifest = read_manifest(manifest_path)
    d_in, n_rows = manifest.d_in, sum(e.n_frames for e in manifest.tracklets)
    raw = manifest.payload.read_bytes()  # a missing payload raises FileNotFoundError
    expected = 4 * d_in * n_rows
    if len(raw) != expected:
        raise DatasetError(
            f"payload {PAYLOAD_FILE} holds {len(raw)} bytes, manifest implies {expected} "
            f"({n_rows} frames, d_in={d_in})"
        )
    rows = np.frombuffer(raw, dtype="<f4").reshape(n_rows, d_in)
    if not np.isfinite(rows).all():
        row = int(np.flatnonzero(~np.isfinite(rows).all(axis=1))[0])
        raise DatasetError(f"payload {PAYLOAD_FILE} holds a non-finite value in frame row {row}")
    return Dataset(
        d_in=d_in,
        n_cameras_vis=manifest.n_cameras_vis,
        n_cameras_ir=manifest.n_cameras_ir,
        tracklets=tuple(
            Tracklet(
                tracklet_id=e.tracklet_id,
                modality=e.modality,
                camera_id=e.camera_id,
                frames=rows[e.offset : e.offset + e.n_frames],
                gt_identity=e.gt_identity,
            )
            for e in manifest.tracklets
        ),
    )


def save_checkpoint(params, store: PrototypeStore, epoch: int, path: str | Path) -> None:
    """Serialize encoder parameters plus prototype store; float32 on disk."""
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
        "epoch": int(epoch),
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
    for sec in header["sections"]:
        name = sec["name"]
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

    encoder_arrays = {
        name[len("encoder.") :]: arr for name, arr in arrays.items() if name.startswith("encoder.")
    }
    params = EncoderParams.from_named_arrays(header["encoder"], encoder_arrays)

    blocks, ids, modalities, cameras = [], [], [], []
    for group in header["store_groups"]:
        modality = Modality(group["modality"])
        cam = _json_int(group["camera_id"], "store group camera_id", ValueError)
        group_ids = group["tracklet_ids"]
        name = f"store.{modality.value}.{cam}"
        if name not in arrays:
            raise KeyError(f"missing store section {name!r}")
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
    matrix = np.concatenate(blocks) if blocks else np.empty((0, 0))
    store = PrototypeStore.from_matrix(matrix, ids, modalities, cameras)
    return params, store, _json_int(header["epoch"], "epoch", ValueError)
