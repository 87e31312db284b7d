import dataclasses
import importlib
import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hitpro.datamodel import (
    CheckpointError,
    Dataset,
    DatasetError,
    Modality,
    Prototype,
    PrototypeStore,
    SubTracklet,
    TrainConfig,
    Tracklet,
    load_checkpoint,
    load_dataset,
    load_encoder,
    read_frames,
    read_manifest,
    save_checkpoint,
    save_dataset,
)
from hitpro.encoder import encoder_init
from hitpro.evaluator import dataset_labels
from hitpro.synthgen import GenConfig

from conftest import assert_same_store
from reference_loops import loop_read_manifest


def make_tracklet(tid="t0", modality=Modality.VIS, cam=0, n_frames=4, d_in=3, gt=None, seed=0):
    frames = np.random.default_rng(seed).normal(size=(n_frames, d_in)).astype("<f4")
    return Tracklet(tracklet_id=tid, modality=modality, camera_id=cam, frames=frames,
                    gt_identity=gt)


def make_dataset(n=4, d_in=3):
    tracklets = []
    for i in range(n):
        modality = Modality.VIS if i % 2 == 0 else Modality.IR
        tracklets.append(
            make_tracklet(tid=f"t{i}", modality=modality, cam=i % 2, d_in=d_in, gt=i, seed=i)
        )
    return Dataset(d_in=d_in, n_cameras_vis=2, n_cameras_ir=2, tracklets=tuple(tracklets))


def test_empty_dataset_round_trip(tmp_path):
    ds = Dataset(d_in=5, n_cameras_vis=1, n_cameras_ir=1, tracklets=())
    manifest = save_dataset(ds, tmp_path)
    loaded = load_dataset(manifest)
    assert loaded.tracklets == ()
    assert loaded.d_in == 5


def test_round_trip_bit_identical(tmp_path):
    ds = make_dataset()
    save_dataset(ds, tmp_path)
    loaded = load_dataset(tmp_path)
    assert len(loaded.tracklets) == len(ds.tracklets)
    for orig, back in zip(ds.tracklets, loaded.tracklets):
        assert back.tracklet_id == orig.tracklet_id
        assert back.modality == orig.modality
        assert back.camera_id == orig.camera_id
        assert back.gt_identity == orig.gt_identity
        assert back.frames.tobytes() == orig.frames.tobytes()


def test_payload_size_rule(tmp_path):
    ds = Dataset(d_in=3, n_cameras_vis=1, n_cameras_ir=1, tracklets=(
        make_tracklet("a", n_frames=2, seed=1), make_tracklet("b", n_frames=5, seed=2),
        make_tracklet("c", modality=Modality.IR, n_frames=1, seed=3)))
    save_dataset(ds, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["frames.f32", "manifest.json"]
    payload = (tmp_path / "frames.f32").read_bytes()
    assert len(payload) == 4 * ds.d_in * (2 + 5 + 1)
    # every tracklet's rows, back to back in manifest order
    assert payload == b"".join(t.frames.astype("<f4").tobytes() for t in ds.tracklets)
    entries = json.loads((tmp_path / "manifest.json").read_text())["tracklets"]
    assert [e["n_frames"] for e in entries] == [2, 5, 1]
    assert all("feature_file" not in e for e in entries)


def test_loaded_frames_are_read_only_views_of_one_buffer(tmp_path):
    ds = make_dataset()
    save_dataset(ds, tmp_path)
    loaded = load_dataset(tmp_path)
    base = loaded.tracklets[0].frames.base
    for t in loaded.tracklets:
        assert t.frames.base is base
        assert not t.frames.flags.writeable


@pytest.mark.parametrize("change", [-4, -1, 1, 4, 12])
def test_truncated_or_extended_payload_rejected(tmp_path, change):
    ds = make_dataset()
    save_dataset(ds, tmp_path)
    payload = tmp_path / "frames.f32"
    raw = payload.read_bytes()
    expected = len(raw)
    payload.write_bytes(raw[:change] if change < 0 else raw + bytes(change))
    with pytest.raises(DatasetError, match="frames.f32") as exc:
        load_dataset(tmp_path)
    assert f"{expected + change} bytes" in str(exc.value)
    assert f"implies {expected}" in str(exc.value)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_payload_value_rejected(tmp_path, value):
    ds = make_dataset()
    save_dataset(ds, tmp_path)
    payload = tmp_path / "frames.f32"
    raw = bytearray(payload.read_bytes())
    raw[4 * 13 : 4 * 14] = struct.pack("<f", value)  # frame row 4, the second of "t1"
    payload.write_bytes(bytes(raw))
    with pytest.raises(DatasetError, match="frames.f32 holds a non-finite value in frame row 4"):
        load_dataset(tmp_path)


def test_dimension_mismatch_error(tmp_path):
    ds = make_dataset(n=1)
    save_dataset(ds, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["tracklets"][0]["n_frames"] = 6  # 6*3 floats != stored 4*3
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DatasetError, match="bytes"):
        load_dataset(tmp_path)


def test_missing_payload_error(tmp_path):
    ds = make_dataset(n=1)
    save_dataset(ds, tmp_path)
    (tmp_path / "frames.f32").unlink()
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path)


def test_duplicate_tracklet_id_rejected():
    t = make_tracklet()
    with pytest.raises(DatasetError, match="duplicate"):
        Dataset(d_in=3, n_cameras_vis=1, n_cameras_ir=1, tracklets=(t, t))


def test_camera_range_validation():
    t = make_tracklet(cam=5)
    with pytest.raises(DatasetError, match="camera_id"):
        Dataset(d_in=3, n_cameras_vis=2, n_cameras_ir=2, tracklets=(t,))


def _frames_of_t1(value, dtype):
    """make_dataset()'s "t1" frames as ``dtype``, frame 1 (dataset row 5) set to ``value``."""
    frames = make_dataset().tracklets[1].frames.astype(dtype)
    frames[1, 0] = value
    return frames


def _load_error(tmp_path, tracklets) -> str:
    """The DatasetError text of loading the files that hold ``tracklets``:
    the manifest values as JSON, the frames as float32."""
    entries = [{"tracklet_id": t.tracklet_id, "modality": t.modality.value,
                "camera_id": t.camera_id, "n_frames": t.n_frames, "gt_identity": t.gt_identity}
               for t in tracklets]
    (tmp_path / "manifest.json").write_text(json.dumps(
        {"d_in": 3, "n_cameras_vis": 2, "n_cameras_ir": 2, "tracklets": entries}))
    with np.errstate(over="ignore"):
        rows = np.concatenate([t.frames for t in tracklets]).astype("<f4")
    (tmp_path / "frames.f32").write_bytes(rows.tobytes())
    with pytest.raises(DatasetError) as exc:
        load_dataset(tmp_path)
    return str(exc.value)


# one value of tracklet "t1" that the files cannot hold, and the text of
# the DatasetError that loading such files gives
@pytest.mark.parametrize("key, value, text", [
    ("frames", _frames_of_t1(np.nan, "<f4"),
     "payload frames.f32 holds a non-finite value in frame row 5"),
    ("frames", _frames_of_t1(1e39, np.float64),
     "payload frames.f32 holds a non-finite value in frame row 5"),
    ("gt_identity", True, "entry 1 gt_identity must be an integer, got True"),
    ("gt_identity", 1.5, "entry 1 gt_identity must be an integer, got 1.5"),
    ("gt_identity", 2**63, f"entry 1 gt_identity must be below 2**63, got {2**63}"),
    ("tracklet_id", 5,
     "manifest entry 1 is malformed: TypeError('tracklet_id must be a string, got 5')"),
    ("camera_id", np.int64(1), "entry 1 camera_id must be an integer, got np.int64(1)"),
], ids=["nan_frame", "float32_overflow", "gt_true", "gt_float", "gt_2_63", "int_id",
        "numpy_camera"])
def test_dataset_built_in_process_is_held_to_the_file_format(tmp_path, key, value, text):
    tracklets = list(make_dataset().tracklets)
    tracklets[1] = dataclasses.replace(tracklets[1], **{key: value})
    with pytest.raises(DatasetError) as exc:
        Dataset(d_in=3, n_cameras_vis=2, n_cameras_ir=2, tracklets=tracklets)
    assert str(exc.value) == text
    assert not list(tmp_path.iterdir())
    if key != "camera_id":  # JSON holds no numpy integer
        assert _load_error(tmp_path, tracklets) == text


def test_dataset_built_in_process_holds_float32_columns():
    tracklets = [dataclasses.replace(t, frames=t.frames.astype(np.float64))
                 for t in make_dataset().tracklets]
    ds = Dataset(d_in=3, n_cameras_vis=2, n_cameras_ir=2, tracklets=tracklets)
    assert ds.frames.dtype == np.dtype("<f4") and not ds.frames.flags.writeable
    np.testing.assert_array_equal(ds.frames, np.concatenate([t.frames for t in tracklets]))
    assert ds.tracklet_ids == ("t0", "t1", "t2", "t3")
    assert ds.camera_id.tolist() == [0, 1, 0, 1] and ds.offset.tolist() == [0, 4, 8, 12]
    assert all(np.shares_memory(t.frames, ds.frames) for t in ds.tracklets)


def test_modality_keys_partition_dataset():
    ds = make_dataset(n=8)
    groups = [
        t.tracklet_id
        for m in (Modality.VIS, Modality.IR)
        for c in range(ds.n_cameras(m))
        for t in ds.group(m, c)
    ]
    assert sorted(groups) == sorted(t.tracklet_id for t in ds.tracklets)


def test_group_index_matches_tracklet_scan():
    ds = make_dataset(n=9)
    for m in (Modality.VIS, Modality.IR):
        for c in range(ds.n_cameras(m) + 1):  # one past the last camera: empty
            scan = [t for t in ds.tracklets if t.modality is m and t.camera_id == c]
            group = ds.group(m, c)
            assert [t.tracklet_id for t in group] == [t.tracklet_id for t in scan]
            group.append(None)  # a caller's list: the index is not touched
            assert len(ds.group(m, c)) == len(scan)


def test_subtracklet_validation():
    with pytest.raises(ValueError):
        SubTracklet(parent="t0", k=0, start=3, end=3)


def test_train_config_invariants():
    with pytest.raises(ValueError):
        TrainConfig(thresh_init=0.8, thresh_final=0.9)
    with pytest.raises(ValueError):
        TrainConfig(intra_start_epoch=10, cross_start_epoch=5)
    with pytest.raises(ValueError):
        TrainConfig(loss_temp=0.0)
    with pytest.raises(ValueError):
        TrainConfig(ema_momentum=0.0)
    with pytest.raises(ValueError):
        TrainConfig(n_subtracklets=0)


@pytest.mark.parametrize("key, value", [
    ("iters_per_epoch", -1), ("batch_cameras", 0), ("batch_tracklets", 0),
    ("batch_subs", -2), ("lr_decay_every", 0),
])
def test_train_config_rejects_loop_sizes_below_range(key, value):
    with pytest.raises(ValueError, match=key):
        TrainConfig(**{key: value})


def test_train_config_allows_zero_iterations():
    assert TrainConfig(iters_per_epoch=0).iters_per_epoch == 0


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("key, value", [
    ("lr", -1.0), ("lr", 0.0), ("lr", NAN), ("lr", INF),
    ("lr_decay_factor", -1.0), ("lr_decay_factor", 0.0), ("lr_decay_factor", NAN),
    ("sgd_momentum", -3.0), ("sgd_momentum", 1.0), ("sgd_momentum", NAN),
    ("loss_temp", NAN), ("loss_temp", 0.0), ("loss_temp", INF),
    ("weight_temp", NAN), ("weight_temp", -0.1), ("weight_temp", INF),
    ("fixed_threshold", NAN), ("fixed_threshold", INF), ("fixed_threshold", -INF),
    ("d_in", 0), ("embed_dim", 0), ("ffn_dim", 0), ("pool_hidden_dim", -1), ("seq_len", 0),
    ("n_subtracklets", 0), ("seed", -1),
])
def test_train_config_rejects_values_out_of_range(key, value):
    with pytest.raises(ValueError, match=key):
        TrainConfig(**{key: value})


@pytest.mark.parametrize("key, value", [
    ("sgd_momentum", 0.0), ("sgd_momentum", 0.999), ("fixed_threshold", -1.0),
    ("fixed_threshold", 0.0), ("lr", 1e-12), ("lr_decay_factor", 1.0), ("seq_len", 1),
])
def test_train_config_accepts_values_at_the_edges(key, value):
    assert getattr(TrainConfig(**{key: value}), key) == value


@pytest.mark.parametrize("build, key", [
    (lambda: TrainConfig(use_dts="no"), "use_dts"),
    (lambda: TrainConfig(use_swa=0), "use_swa"),
    (lambda: TrainConfig(iters_per_epoch=2.5), "iters_per_epoch"),
    (lambda: TrainConfig(embed_dim=True), "embed_dim"),
    (lambda: TrainConfig(lr="0.1"), "lr"),
    (lambda: GenConfig(n_identities=2.5), "n_identities"),
    (lambda: GenConfig(frame_noise=False), "frame_noise"),
], ids=["use_dts_str", "use_swa_int", "iters_float", "embed_dim_bool", "lr_str",
        "n_identities_float", "frame_noise_bool"])
def test_config_constructors_check_types(build, key):
    with pytest.raises(ValueError, match=f"^{key} must be "):
        build()


def test_shipped_and_workload_configs_load(monkeypatch):
    root = Path(__file__).resolve().parent.parent
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    workloads = importlib.import_module("workloads")
    configs = [json.loads(p.read_text()) for p in sorted((root / "configs").glob("*.json"))]
    configs += [w.config(0) for w in workloads.WORKLOADS.values()]
    assert len(configs) == 5
    for raw in configs:
        TrainConfig(**{k: v for k, v in raw.items() if k in TrainConfig.__dataclass_fields__})


def make_store(d=4, seed=0):
    rng = np.random.default_rng(seed)
    protos = []
    for modality in (Modality.VIS, Modality.IR):
        for cam in range(2):
            for i in range(3):
                v = rng.normal(size=d)
                protos.append(
                    Prototype(
                        tracklet_id=f"{modality.value}_{cam}_{i}",
                        modality=modality,
                        camera_id=cam,
                        vector=v / np.linalg.norm(v),
                    )
                )
    return PrototypeStore(protos)


def checkpoint_pair():
    params = encoder_init(
        d_in=4, embed_dim=8, ffn_dim=16, pool_hidden_dim=8, n_tte_layers=2,
        seq_len=3, seed=4,
    )
    return params, make_store(d=8)


def test_checkpoint_round_trip(tmp_path):
    params, store = checkpoint_pair()
    path = tmp_path / "checkpoint.hpt"
    save_checkpoint(params, store, epoch=17, path=path)
    loaded_params, loaded_store, epoch = load_checkpoint(path)

    assert epoch == 17
    for (name, orig), (_, back) in zip(params.named_arrays(), loaded_params.named_arrays()):
        np.testing.assert_array_equal(
            back, orig.astype("<f4").astype(np.float64), err_msg=name
        )
    assert len(loaded_store) == len(store)
    for modality in (Modality.VIS, Modality.IR):
        for cam in store.cameras(modality):
            orig_group = store.group(modality, cam)
            back_group = loaded_store.group(modality, cam)
            assert [p.tracklet_id for p in back_group] == [p.tracklet_id for p in orig_group]
            for o, b in zip(orig_group, back_group):
                np.testing.assert_array_equal(b.vector, o.vector.astype("<f4").astype(np.float64))

    # a second save of the loaded structures is byte-identical
    path2 = tmp_path / "again.hpt"
    save_checkpoint(loaded_params, loaded_store, epoch=17, path=path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_truncated(tmp_path):
    params, store = checkpoint_pair()
    path = tmp_path / "checkpoint.hpt"
    save_checkpoint(params, store, epoch=1, path=path)
    raw = path.read_bytes()
    (tmp_path / "cut.hpt").write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(tmp_path / "cut.hpt")


def test_checkpoint_version_mismatch(tmp_path):
    params, store = checkpoint_pair()
    path = tmp_path / "checkpoint.hpt"
    save_checkpoint(params, store, epoch=1, path=path)
    raw = path.read_bytes()
    (header_len,) = struct.unpack("<I", raw[:4])
    header = json.loads(raw[4 : 4 + header_len])
    header["format_version"] = 99
    new_header = json.dumps(header, sort_keys=True).encode()
    (tmp_path / "bad.hpt").write_bytes(
        struct.pack("<I", len(new_header)) + new_header + raw[4 + header_len :]
    )
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(tmp_path / "bad.hpt")


def test_checkpoint_garbage(tmp_path):
    (tmp_path / "junk.hpt").write_bytes(b"\x01")
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "junk.hpt")


def test_store_lookup_and_order():
    store = make_store()
    assert store.cameras(Modality.VIS) == [0, 1]
    group = store.group(Modality.VIS, 0)
    assert [p.tracklet_id for p in group] == ["VIS_0_0", "VIS_0_1", "VIS_0_2"]
    assert store.get("IR_1_2").camera_id == 1
    with pytest.raises(KeyError):
        store.get("nope")


def _rewrite_header(path, out, mutate):
    """Copy a checkpoint to ``out`` with ``mutate(header)`` applied to its header."""
    raw = path.read_bytes()
    (header_len,) = struct.unpack("<I", raw[:4])
    header = json.loads(raw[4 : 4 + header_len])
    mutate(header)
    new_header = json.dumps(header, sort_keys=True).encode()
    out.write_bytes(struct.pack("<I", len(new_header)) + new_header + raw[4 + header_len :])
    return out


def _saved_checkpoint(tmp_path):
    params, store = checkpoint_pair()
    path = tmp_path / "checkpoint.hpt"
    save_checkpoint(params, store, epoch=3, path=path)
    return path


def test_checkpoint_id_count_mismatch_rejected(tmp_path):
    path = _saved_checkpoint(tmp_path)

    def drop_id(header):
        header["store_groups"][0]["tracklet_ids"].pop()

    bad = _rewrite_header(path, tmp_path / "bad.hpt", drop_id)
    with pytest.raises(CheckpointError, match="tracklet ids"):
        load_checkpoint(bad)


@pytest.mark.parametrize("key", ["epoch", "sections", "store_groups", "encoder"])
def test_checkpoint_missing_header_key_rejected(tmp_path, key):
    path = _saved_checkpoint(tmp_path)
    bad = _rewrite_header(path, tmp_path / "bad.hpt", lambda h: h.pop(key))
    with pytest.raises(CheckpointError, match=key):
        load_checkpoint(bad)


@pytest.mark.parametrize("section", ["store.VIS.0", "encoder.proj"])
def test_checkpoint_missing_section_rejected(tmp_path, section):
    path = _saved_checkpoint(tmp_path)

    def drop_section(header):
        header["sections"] = [s for s in header["sections"] if s["name"] != section]

    bad = _rewrite_header(path, tmp_path / "bad.hpt", drop_section)
    with pytest.raises(CheckpointError, match="section"):
        load_checkpoint(bad)


def _drop_last_store_group(header):
    group = header["store_groups"].pop()
    return f"store.{group['modality']}.{group['camera_id']}"


def _add_unknown_encoder_section(header):
    header["sections"].append({"name": "encoder.extra", "shape": [1], "offset": 0})
    return "encoder.extra"


@pytest.mark.parametrize("mutate", [_drop_last_store_group, _add_unknown_encoder_section])
def test_checkpoint_section_nothing_claims_rejected(tmp_path, mutate):
    orphans = []
    bad = _rewrite_header(_saved_checkpoint(tmp_path), tmp_path / "bad.hpt",
                          lambda header: orphans.append(mutate(header)))
    for load in (load_checkpoint, load_encoder):
        with pytest.raises(CheckpointError, match=re.escape(f"sections {orphans} belong to "
                                                            "neither the encoder nor a store")):
            load(bad)


def _append_eight_bytes(path, out):
    out.write_bytes(path.read_bytes() + bytes(8))
    return "8 bytes follow the last section"


def _point_wk_at_wq(path, out):
    def wk_at_wq(header):
        sections = {s["name"]: s for s in header["sections"]}
        sections["encoder.layers.0.wk"]["offset"] = sections["encoder.layers.0.wq"]["offset"]

    _rewrite_header(path, out, wk_at_wq)
    return "section 'encoder.layers.0.wk' starts at byte "


# each loaded without error before the sections had to tile the blob: the
# second read wk as a copy of wq
@pytest.mark.parametrize("damage", [_append_eight_bytes, _point_wk_at_wq])
def test_checkpoint_sections_that_do_not_tile_the_blob_rejected(tmp_path, damage):
    bad = tmp_path / "bad.hpt"
    match = damage(_saved_checkpoint(tmp_path), bad)
    for load in (load_checkpoint, load_encoder):
        with pytest.raises(CheckpointError, match=re.escape(match)):
            load(bad)


def test_checkpoint_encoder_shape_mismatch_rejected(tmp_path):
    path = _saved_checkpoint(tmp_path)

    def flatten_proj(header):
        sec = next(s for s in header["sections"] if s["name"] == "encoder.proj")
        sec["shape"] = [int(np.prod(sec["shape"]))]

    bad = _rewrite_header(path, tmp_path / "bad.hpt", flatten_proj)
    with pytest.raises(CheckpointError, match="shape"):
        load_checkpoint(bad)


def test_checkpoint_round_trip_restores_camera_matrices(tmp_path):
    params, store = checkpoint_pair()
    save_checkpoint(params, store, epoch=2, path=tmp_path / "c.hpt")
    _, loaded, _ = load_checkpoint(tmp_path / "c.hpt")
    for modality in (Modality.VIS, Modality.IR):
        assert loaded.cameras(modality) == store.cameras(modality)
        for cam in store.cameras(modality):
            assert loaded.ids(modality, cam) == store.ids(modality, cam)
            mat = loaded.matrix(modality, cam)
            assert mat.dtype == np.float64 and mat.flags.c_contiguous
            np.testing.assert_array_equal(
                mat, store.matrix(modality, cam).astype("<f4").astype(np.float64)
            )


def test_checkpoint_store_equals_list_built_store(tmp_path):
    path = _saved_checkpoint(tmp_path)
    _, loaded, _ = load_checkpoint(path)
    listed = PrototypeStore([
        Prototype(tid, modality, cam, row)
        for modality in (Modality.VIS, Modality.IR) for cam in loaded.cameras(modality)
        for tid, row in zip(loaded.ids(modality, cam), loaded.matrix(modality, cam))
    ])
    assert_same_store(loaded, listed)


def test_store_from_matrix_equals_list_built_store():
    rng = np.random.default_rng(3)
    n = 23
    matrix = rng.normal(size=(n, 5))
    ids = [f"t{i}" for i in range(n)]
    modalities = [Modality.VIS if m else Modality.IR for m in rng.integers(0, 2, size=n)]
    cameras = rng.integers(0, 3, size=n).tolist()  # cameras interleaved in input order
    store = PrototypeStore.from_matrix(matrix, ids, modalities, cameras)
    listed = PrototypeStore([Prototype(*fields) for fields in zip(ids, modalities, cameras, matrix)])
    assert_same_store(store, listed)
    for i, tid in enumerate(ids):
        modality, cam, row = store.locate(tid)
        assert (modality, cam) == (modalities[i], cameras[i])
        assert store.ids(modality, cam) == [
            t for t, m, c in zip(ids, modalities, cameras) if (m, c) == (modality, cam)]
        assert np.array_equal(store.matrix(modality, cam)[row], matrix[i])
        assert np.array_equal(store.stacked[store.position(tid)], matrix[i])
    matrix[:] = 0.0  # the store owns a copy
    assert np.abs(store.stacked).min() > 0


def test_store_blocks_come_vis_then_ir_cameras_ascending():
    rng = np.random.default_rng(4)
    keys = [(Modality.IR, 2), (Modality.VIS, 1), (Modality.IR, 0), (Modality.VIS, 0)]
    picks = np.concatenate([np.arange(4), rng.integers(0, 4, size=16)])
    ids = [f"t{i}" for i in range(len(picks))]
    modalities, cameras = zip(*(keys[k] for k in picks))
    matrix = rng.normal(size=(len(ids), 3))
    for store in (PrototypeStore.from_matrix(matrix, ids, modalities, cameras),
                  PrototypeStore([Prototype(*f) for f in zip(ids, modalities, cameras, matrix)])):
        assert store.cameras(Modality.VIS) == [0, 1] and store.cameras(Modality.IR) == [0, 2]
        starts = [store.block_rows(m, c).start for m, c in
                  ((Modality.VIS, 0), (Modality.VIS, 1), (Modality.IR, 0), (Modality.IR, 2))]
        assert starts == store.block_bounds[:-1].tolist()
        for m, c in keys:  # each block's rows in input order
            assert store.ids(m, c) == [t for t, key in zip(ids, zip(modalities, cameras))
                                       if key == (m, c)]


def test_store_from_matrix_rejects_bad_input():
    with pytest.raises(ValueError, match="duplicate prototype"):
        PrototypeStore.from_matrix(np.ones((2, 3)), ["a", "a"], [Modality.VIS] * 2, [0, 1])
    with pytest.raises(ValueError, match="one id, modality and camera"):
        PrototypeStore.from_matrix(np.ones((2, 3)), ["a"], [Modality.VIS] * 2, [0, 1])


def test_store_rejects_mixed_dimensions_in_a_camera():
    with pytest.raises(ValueError, match="mixed dimensions"):
        PrototypeStore([
            Prototype("a", Modality.VIS, 0, np.ones(4)),
            Prototype("b", Modality.VIS, 0, np.ones(5)),
        ])


def test_store_rejects_mixed_dimensions_across_cameras():
    with pytest.raises(ValueError, match="mixed dimensions"):
        PrototypeStore([
            Prototype("a", Modality.VIS, 0, np.ones(4)),
            Prototype("b", Modality.IR, 0, np.ones(5)),
        ])


def test_camera_matrices_are_blocks_of_stacked():
    store = make_store()
    store.stacked[store.position("IR_1_2")] = 7.0
    _, cam, row = store.locate("IR_1_2")
    assert (store.matrix(Modality.IR, cam)[row] == 7.0).all()
    assert store.stacked.shape == (len(store), 4)
    for modality in (Modality.VIS, Modality.IR):
        for cam in store.cameras(modality):
            for row, tid in enumerate(store.ids(modality, cam)):
                np.testing.assert_array_equal(
                    store.stacked[store.position(tid)], store.matrix(modality, cam)[row]
                )
    with pytest.raises(KeyError, match="nope"):
        store.position("nope")


def test_prototype_vector_writes_through_to_camera_matrix():
    store = make_store()
    modality, cam, row = store.locate("IR_1_2")
    new = np.arange(4.0)
    store.get("IR_1_2").vector[...] = new
    np.testing.assert_array_equal(store.matrix(modality, cam)[row], new)
    for p in store.group(modality, cam):
        p.vector[...] = p.vector * 2.0
    np.testing.assert_array_equal(store.matrix(modality, cam)[row], 2.0 * new)
    np.testing.assert_array_equal(store.get("IR_1_2").vector, 2.0 * new)


def _manifest_with(tmp_path, mutate):
    ds = make_dataset(n=2)
    data = tmp_path / "data"
    save_dataset(ds, data)
    manifest = json.loads((data / "manifest.json").read_text())
    mutate(manifest["tracklets"][0])
    (data / "manifest.json").write_text(json.dumps(manifest))
    return data


def test_read_manifest_reads_no_payload(tmp_path):
    ds = Dataset(d_in=3, n_cameras_vis=2, n_cameras_ir=2, tracklets=tuple(
        make_tracklet(f"t{i}", Modality.VIS if i % 2 == 0 else Modality.IR, i % 2, n, gt=i, seed=i)
        for i, n in enumerate((4, 1, 6, 2))))
    save_dataset(ds, tmp_path)
    (tmp_path / "frames.f32").unlink()
    manifest = read_manifest(tmp_path / "manifest.json")
    assert (manifest.d_in, manifest.n_cameras_vis, manifest.n_cameras_ir) == (3, 2, 2)
    assert manifest.payload == tmp_path / "frames.f32"
    # each entry's first row is the running sum of n_frames before it
    assert [(e.tracklet_id, e.modality, e.camera_id, e.n_frames, e.offset, e.gt_identity)
            for e in manifest.tracklets] == [
        (t.tracklet_id, t.modality, t.camera_id, t.n_frames, offset, t.gt_identity)
        for t, offset in zip(ds.tracklets, (0, 4, 5, 11))]
    assert dataset_labels(manifest) == dataset_labels(ds) == {f"t{i}": i for i in range(4)}
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path)


@pytest.mark.parametrize(
    "mutate, match",
    [(lambda e: e.update(tracklet_id="t1"), "duplicate"),
     (lambda e: e.update(camera_id=2), "camera_id")],
    ids=["duplicate_id", "camera_out_of_range"],
)
def test_manifest_inconsistent_entries_rejected(tmp_path, mutate, match):
    data = _manifest_with(tmp_path, mutate)
    for payload in data.glob("*.f32"):
        payload.unlink()  # caught from the manifest alone
    with pytest.raises(DatasetError, match=match):
        read_manifest(data)


def test_stray_feature_file_is_never_opened(tmp_path, monkeypatch):
    outside = tmp_path / "outside.f32"
    outside.write_bytes(np.zeros((4, 3), dtype="<f4").tobytes())  # a well-sized payload
    opened = []
    read_bytes = Path.read_bytes
    monkeypatch.setattr(Path, "read_bytes", lambda self: opened.append(self) or read_bytes(self))
    expected = make_dataset(n=2).tracklets
    for target in (str(outside), "../outside.f32", str(tmp_path / "absent.f32")):
        data = _manifest_with(tmp_path, lambda e: e.update(feature_file=target))
        loaded = load_dataset(data)
        assert [t.frames.tobytes() for t in loaded.tracklets] == [
            t.frames.tobytes() for t in expected]
    assert opened and all(path.name == "frames.f32" and path.parent.name == "data"
                          for path in opened)


def test_manifest_undecodable_bytes_rejected(tmp_path):
    data = _manifest_with(tmp_path, lambda e: None)
    raw = bytearray((data / "manifest.json").read_bytes())
    raw[10] = 0xFF
    (data / "manifest.json").write_bytes(bytes(raw))
    for read in (read_manifest, load_dataset):
        with pytest.raises(DatasetError, match="malformed manifest"):
            read(data)


@pytest.mark.parametrize("value", [0, -1])
def test_manifest_non_positive_n_frames_rejected(tmp_path, value):
    data = _manifest_with(tmp_path, lambda e: e.update(n_frames=value))
    (data / "frames.f32").unlink()  # caught from the manifest alone
    with pytest.raises(DatasetError, match="n_frames must be at least 1"):
        read_manifest(data)


@pytest.mark.parametrize("value", [0, -3])
def test_manifest_non_positive_d_in_rejected(tmp_path, value):
    data = _manifest_with(tmp_path, lambda e: None)
    manifest = json.loads((data / "manifest.json").read_text())
    manifest["d_in"] = value
    (data / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DatasetError, match="d_in must be at least 1"):
        read_manifest(data)


@pytest.fixture(scope="module")
def fuzz_dataset_dir(tmp_path_factory):
    data = tmp_path_factory.mktemp("manifest_fuzz")
    save_dataset(make_dataset(), data)
    return data


@settings(max_examples=500, deadline=None)
@given(
    damage=st.one_of(
        st.tuples(st.just("truncate"), st.integers(0, 10**9), st.just(0)),
        st.tuples(st.just("xor"), st.integers(0, 10**9), st.integers(1, 255)),
    )
)
def test_damaged_manifest_loads_or_raises_dataset_error(fuzz_dataset_dir, damage):
    # any shorter prefix, or any one byte XORed with a nonzero mask, next to
    # the intact frames.f32
    data = fuzz_dataset_dir
    intact = (data / "manifest.json").read_bytes()
    raw = bytearray(intact)
    how, position, mask = damage
    if how == "truncate":
        raw = raw[: position % len(raw)]
    else:
        raw[position % len(raw)] ^= mask
    (data / "manifest.json").write_bytes(bytes(raw))
    try:
        load_dataset(data)
    except DatasetError:
        pass
    finally:
        (data / "manifest.json").write_bytes(intact)


@pytest.mark.parametrize(
    "field", ["tracklet_id", "modality", "camera_id", "n_frames"]
)
def test_manifest_entry_missing_field_rejected(tmp_path, field):
    data = _manifest_with(tmp_path, lambda e: e.pop(field))
    with pytest.raises(DatasetError, match=field):
        load_dataset(data)


def test_manifest_bad_modality_rejected(tmp_path):
    data = _manifest_with(tmp_path, lambda e: e.update(modality="UV"))
    with pytest.raises(DatasetError, match="UV"):
        load_dataset(data)


@pytest.mark.parametrize("value", ["x", 1.5, True, [1]])
def test_manifest_non_integer_gt_identity_rejected(tmp_path, value):
    data = _manifest_with(tmp_path, lambda e: e.update(gt_identity=value))
    with pytest.raises(DatasetError, match="gt_identity"):
        load_dataset(data)


def test_manifest_negative_gt_identity_rejected(tmp_path):
    data = _manifest_with(tmp_path, lambda e: e.update(gt_identity=-1))
    with pytest.raises(DatasetError, match="entry 0 gt_identity must be at least 0, got -1"):
        read_manifest(data)


@pytest.mark.parametrize("key", ["n_cameras_vis", "n_cameras_ir"])
def test_manifest_negative_camera_count_rejected(tmp_path, key):
    data = _manifest_with(tmp_path, lambda e: None)
    manifest = json.loads((data / "manifest.json").read_text())
    manifest[key] = -1
    (data / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DatasetError, match=f"{key} must be at least 0, got -1"):
        read_manifest(data)


@pytest.mark.parametrize("key", ["d_in", "n_cameras_vis", "n_cameras_ir"])
@pytest.mark.parametrize("value", ["3", 3.5, None])
def test_manifest_non_integer_header_rejected(tmp_path, key, value):
    data = _manifest_with(tmp_path, lambda e: None)
    manifest = json.loads((data / "manifest.json").read_text())
    manifest[key] = value
    (data / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DatasetError, match=key):
        load_dataset(data)


@pytest.mark.parametrize(
    "mutate",
    [lambda m: 5, lambda m: {**m, "tracklets": 5}, lambda m: {**m, "tracklets": [5]}],
    ids=["top_level_int", "tracklets_int", "entry_int"],
)
def test_manifest_wrong_shape_rejected(tmp_path, mutate):
    data = _manifest_with(tmp_path, lambda e: None)
    manifest = json.loads((data / "manifest.json").read_text())
    (data / "manifest.json").write_text(json.dumps(mutate(manifest)))
    with pytest.raises(DatasetError):
        load_dataset(data)


@pytest.mark.parametrize("value", [["x"], 5, None])
def test_manifest_non_string_tracklet_id_rejected(tmp_path, value):
    data = _manifest_with(tmp_path, lambda e: e.update(tracklet_id=value))
    with pytest.raises(DatasetError, match="tracklet_id"):
        load_dataset(data)


def _set_epoch(header, value):
    header["epoch"] = value


def _set_first_camera(header, value):
    header["store_groups"][0]["camera_id"] = value


@pytest.mark.parametrize("mutate", [_set_epoch, _set_first_camera])
@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_checkpoint_non_finite_header_number_rejected(tmp_path, mutate, value):
    path = _saved_checkpoint(tmp_path)
    bad = _rewrite_header(path, tmp_path / "bad.hpt", lambda h: mutate(h, value))
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)


def test_checkpoint_negative_camera_rejected(tmp_path):
    # the group and its section both renamed, so nothing else is missing
    path = _saved_checkpoint(tmp_path)

    def camera_minus_one(header):
        group = next(g for g in header["store_groups"]
                     if g["modality"] == "VIS" and g["camera_id"] == 1)
        group["camera_id"] = -1
        section = next(s for s in header["sections"] if s["name"] == "store.VIS.1")
        section["name"] = "store.VIS.-1"

    bad = _rewrite_header(path, tmp_path / "bad.hpt", camera_minus_one)
    with pytest.raises(CheckpointError, match="camera_id must be at least 0, got -1"):
        load_checkpoint(bad)


def test_checkpoint_section_listed_twice_rejected(tmp_path):
    path = _saved_checkpoint(tmp_path)

    def repeat_proj(header):
        proj = next(s for s in header["sections"] if s["name"] == "encoder.proj")
        header["sections"].append(dict(proj, offset=proj["offset"] + 4))  # one float later

    bad = _rewrite_header(path, tmp_path / "bad.hpt", repeat_proj)
    with pytest.raises(CheckpointError, match="section 'encoder.proj' is listed twice"):
        load_checkpoint(bad)


def _set_first_shape_entry(header, value):
    header["sections"][0]["shape"][0] = value


def _set_first_offset(header, value):
    header["sections"][0]["offset"] = value


@pytest.mark.parametrize(
    "mutate, value",
    [
        (_set_epoch, 2.9),
        (_set_epoch, "3"),
        (_set_epoch, True),
        (_set_first_camera, True),
        (_set_first_camera, "0"),
        (_set_first_camera, 0.0),
        (_set_first_shape_entry, True),
        (_set_first_offset, 0.0),
        (_set_first_offset, False),
    ],
    ids=["epoch_float", "epoch_str", "epoch_bool", "camera_bool", "camera_str",
         "camera_float", "shape_bool", "offset_float", "offset_bool"],
)
def test_checkpoint_non_integer_header_number_rejected(tmp_path, mutate, value):
    path = _saved_checkpoint(tmp_path)
    bad = _rewrite_header(path, tmp_path / "bad.hpt", lambda h: mutate(h, value))
    with pytest.raises(CheckpointError, match="must be an integer"):
        load_checkpoint(bad)


def test_checkpoint_negative_epoch_rejected(tmp_path):
    path = _saved_checkpoint(tmp_path)
    bad = _rewrite_header(path, tmp_path / "bad.hpt", lambda h: _set_epoch(h, -3))
    with pytest.raises(CheckpointError, match="epoch must be at least 0, got -3"):
        load_checkpoint(bad)


def test_save_checkpoint_rejects_a_negative_epoch_and_writes_nothing(tmp_path):
    params, store = checkpoint_pair()
    with pytest.raises(ValueError, match="epoch must be at least 0, got -3"):
        save_checkpoint(params, store, -3, tmp_path / "bad.hpt")
    assert not (tmp_path / "bad.hpt").exists()
    save_checkpoint(params, store, np.int64(0), tmp_path / "zero.hpt")
    assert load_checkpoint(tmp_path / "zero.hpt")[2] == 0


@pytest.mark.parametrize("key, value", [
    ("n_tte_layers", 1.0), ("n_tte_layers", 3), ("embed_dim", True), ("seq_len", 0),
    ("seq_len", "6"),
])
def test_checkpoint_bad_encoder_dimension_names_the_key(tmp_path, key, value):
    path = _saved_checkpoint(tmp_path)
    bad = _rewrite_header(path, tmp_path / "bad.hpt", lambda h: h["encoder"].update({key: value}))
    with pytest.raises(CheckpointError, match=f"{key} must be "):
        load_checkpoint(bad)


def test_checkpoint_negative_offset_rejected(tmp_path):
    # a negative offset of the last section still slices the right number
    # of bytes, from the wrong place
    path = _saved_checkpoint(tmp_path)

    def shift_last(header):
        last = header["sections"][-1]
        assert last["name"].startswith("store.IR.")
        last["offset"] = -(4 * int(np.prod(last["shape"])) + 4)

    bad = _rewrite_header(path, tmp_path / "bad.hpt", shift_last)
    with pytest.raises(CheckpointError, match="offset"):
        load_checkpoint(bad)


def test_checkpoint_negative_shape_entry_rejected(tmp_path):
    path = _saved_checkpoint(tmp_path)
    bad = _rewrite_header(path, tmp_path / "bad.hpt", lambda h: _set_first_shape_entry(h, -1))
    with pytest.raises(CheckpointError, match="shape"):
        load_checkpoint(bad)


@pytest.mark.parametrize("section", ["encoder.proj", "store.VIS.0"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_non_finite_weight_rejected(tmp_path, section, value):
    path = _saved_checkpoint(tmp_path)
    raw = bytearray(path.read_bytes())
    (header_len,) = struct.unpack("<I", raw[:4])
    header = json.loads(raw[4 : 4 + header_len])
    [offset] = [s["offset"] for s in header["sections"] if s["name"] == section]
    at = 4 + header_len + offset + 4  # the section's second float
    raw[at : at + 4] = np.array([value], dtype="<f4").tobytes()
    bad = tmp_path / "bad.hpt"
    bad.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match=section):
        load_checkpoint(bad)


@pytest.mark.parametrize("section, row", [("store.VIS.0", 0), ("store.IR.1", 2)])
def test_checkpoint_zero_norm_prototype_rejected(tmp_path, section, row):
    # finite, but every cosine against it is NaN
    path = _saved_checkpoint(tmp_path)
    raw = bytearray(path.read_bytes())
    (header_len,) = struct.unpack("<I", raw[:4])
    header = json.loads(raw[4 : 4 + header_len])
    [sec] = [s for s in header["sections"] if s["name"] == section]
    d = sec["shape"][1]
    at = 4 + header_len + sec["offset"] + 4 * d * row
    raw[at : at + 4 * d] = np.zeros(d, dtype="<f4").tobytes()
    bad = tmp_path / "bad.hpt"
    bad.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match=f"{section}' row {row} has zero norm"):
        load_checkpoint(bad)


def _set_first_ids(header, value):
    header["store_groups"][0]["tracklet_ids"] = value


@pytest.mark.parametrize("mutate", [
    # a string of one character per row would load as one id per character
    lambda h: _set_first_ids(h, "abc"),
    lambda h: h["store_groups"][0]["tracklet_ids"].__setitem__(1, 7),
    lambda h: h["store_groups"][0]["tracklet_ids"].__setitem__(1, None),
], ids=["string", "integer", "null"])
def test_checkpoint_non_string_tracklet_ids_rejected(tmp_path, mutate):
    path = _saved_checkpoint(tmp_path)
    bad = _rewrite_header(path, tmp_path / "bad.hpt", mutate)
    with pytest.raises(CheckpointError, match="store.VIS.0' must be a list of strings"):
        load_checkpoint(bad)


@pytest.fixture(scope="module")
def saved_checkpoint_bytes(tmp_path_factory):
    return _saved_checkpoint(tmp_path_factory.mktemp("fuzz")).read_bytes()


@settings(max_examples=500, deadline=None)
@given(
    damage=st.one_of(
        st.tuples(st.just("truncate"), st.integers(0, 10**9), st.just(0)),
        st.tuples(st.just("xor"), st.integers(0, 10**9), st.integers(1, 255)),
    )
)
def test_damaged_checkpoint_loads_or_raises_checkpoint_error(
    saved_checkpoint_bytes, tmp_path_factory, damage
):
    # any shorter prefix, or any one byte XORed with a nonzero mask
    raw = bytearray(saved_checkpoint_bytes)
    how, position, mask = damage
    if how == "truncate":
        raw = raw[: position % len(raw)]
    else:
        raw[position % len(raw)] ^= mask
    path = tmp_path_factory.getbasetemp() / "damaged.hpt"
    path.write_bytes(bytes(raw))
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass


# the int64 bound of every manifest integer, and its neighbours
HUGE = [2**63 - 1, 2**63, 2**63 + 1, 2**64, -2**63, -2**63 - 1]


@pytest.mark.parametrize("field", ["n_frames", "camera_id", "gt_identity"])
@pytest.mark.parametrize("value", [2**63, 2**63 + 1, 2**64])
def test_manifest_entry_integer_of_2_63_or_more_rejected(tmp_path, field, value):
    data = _manifest_with(tmp_path, lambda e: e.update({field: value}))
    with pytest.raises(DatasetError, match=rf"^entry 0 {field} must be below 2\*\*63, got {value}$"):
        read_manifest(data)


@pytest.mark.parametrize("key", ["d_in", "n_cameras_vis", "n_cameras_ir"])
def test_manifest_header_integer_of_2_63_or_more_rejected(tmp_path, key):
    data = _manifest_with(tmp_path, lambda e: None)
    manifest = json.loads((data / "manifest.json").read_text())
    manifest[key] = 2**63
    (data / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DatasetError, match=rf"^{key} must be below 2\*\*63, got {2**63}$"):
        read_manifest(data)


def test_manifest_camera_below_int64_rejected(tmp_path):
    data = _manifest_with(tmp_path, lambda e: e.update(camera_id=-2**63 - 1))
    with pytest.raises(DatasetError, match=f"entry 0 camera_id must be at least {-2**63}"):
        read_manifest(data)
    data = _manifest_with(tmp_path, lambda e: e.update(camera_id=-2**63))
    with pytest.raises(DatasetError, match=f"camera_id {-2**63} out of range"):
        read_manifest(data)


def test_manifest_total_frames_past_int64_rejected_not_wrapped(tmp_path):
    # each count fits int64, their sum does not: an int64 running sum would
    # wrap to a small offset
    ds = make_dataset(n=4)
    save_dataset(ds, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    for entry, n in zip(manifest["tracklets"], (2**62, 2**62, 2**62, 4)):
        entry["n_frames"] = n
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    total = 3 * 2**62 + 4
    for read in (read_manifest, load_dataset):
        with pytest.raises(DatasetError, match=f"manifest implies {total} frames; frames.f32"):
            read(tmp_path)


def test_manifest_columns_are_int64_and_entries_yield_python_values(tmp_path):
    ds = Dataset(d_in=3, n_cameras_vis=2, n_cameras_ir=2, tracklets=(
        make_tracklet("a", Modality.IR, 1, 2, gt=2**63 - 1),
        make_tracklet("b", Modality.VIS, 0, 3),
    ))
    save_dataset(ds, tmp_path)
    manifest = read_manifest(tmp_path)
    assert manifest.tracklet_ids == ("a", "b")
    assert manifest.is_vis.tolist() == [False, True]
    for column, values in ((manifest.camera_id, [1, 0]), (manifest.n_frames, [2, 3]),
                           (manifest.offset, [0, 2]), (manifest.gt_identity, [2**63 - 1, -1])):
        assert column.dtype == np.int64 and column.tolist() == values
        assert not column.flags.writeable
    assert not manifest.has_labels
    assert [type(v) for e in manifest.tracklets
            for v in (e.camera_id, e.n_frames, e.offset)] == [int] * 6
    assert [e.gt_identity for e in manifest.tracklets] == [2**63 - 1, None]


def test_read_frames_is_the_payload_as_one_read_only_matrix(tmp_path):
    ds = make_dataset(n=3)
    save_dataset(ds, tmp_path)
    rows = read_frames(read_manifest(tmp_path))
    assert rows.dtype == np.dtype("<f4") and not rows.flags.writeable
    np.testing.assert_array_equal(rows, np.concatenate([t.frames for t in ds.tracklets]))


# values a damaged manifest field may take: wrong types, nulls, huge ints,
# valid and invalid strings, and a repeat of another entry's id
_FIELD_VALUES = st.one_of(
    st.sampled_from([None, True, False, 1.5, 2.0, "x", "VIS", "IR", "UV", "t1", "t2",
                     [], [1], {}, {"a": 1}]),
    st.sampled_from(HUGE + [2**62]),
    st.integers(-3, 6),
)
_MANIFEST_DAMAGE = st.one_of(
    st.tuples(st.just("set"), st.integers(0, 3),
              st.sampled_from(["tracklet_id", "modality", "camera_id", "n_frames",
                               "gt_identity"]), _FIELD_VALUES),
    st.tuples(st.just("drop"), st.integers(0, 3),
              st.sampled_from(["tracklet_id", "modality", "camera_id", "n_frames",
                               "gt_identity"]), st.just(None)),
    st.tuples(st.just("entry"), st.integers(0, 3), st.just(None),
              st.sampled_from([None, 5, "t0", [], ["tracklet_id"], 2**63])),
    st.tuples(st.just("header"), st.just(0),
              st.sampled_from(["d_in", "n_cameras_vis", "n_cameras_ir"]), _FIELD_VALUES),
)


@pytest.fixture(scope="module")
def oracle_manifest(tmp_path_factory):
    data = tmp_path_factory.mktemp("manifest_oracle")
    save_dataset(make_dataset(), data)
    return data, json.loads((data / "manifest.json").read_text())


@settings(max_examples=400, deadline=None)
@given(damages=st.lists(_MANIFEST_DAMAGE, min_size=1, max_size=4))
@example(damages=[("set", 1, "camera_id", "x"), ("set", 1, "modality", "UV")])
@example(damages=[("set", 3, "gt_identity", -1), ("set", 1, "tracklet_id", 5)])
@example(damages=[("set", 0, "n_frames", 2**62), ("set", 2, "n_frames", 2**62)])
@example(damages=[("set", 2, "tracklet_id", "t1"), ("set", 3, "camera_id", 9)])
def test_columnar_manifest_reader_equals_the_entry_loop(oracle_manifest, damages):
    # the same entries, or the same DatasetError text: with two bad entries,
    # both name the lower one
    data, intact = oracle_manifest
    manifest = json.loads(json.dumps(intact))
    for how, index, key, value in damages:
        if how == "set":
            manifest["tracklets"][index][key] = value
        elif how == "drop":
            manifest["tracklets"][index].pop(key, None)
        elif how == "entry":
            manifest["tracklets"][index] = value
            break  # later damages would index into a non-object
        else:
            manifest[key] = value
    path = data / "damaged.json"
    path.write_text(json.dumps(manifest))
    outcomes = []
    for read in (read_manifest, loop_read_manifest):
        try:
            result = read(path)
        except DatasetError as exc:
            outcomes.append(("error", str(exc)))
        else:
            if read is read_manifest:
                result = (result.d_in, result.n_cameras_vis, result.n_cameras_ir,
                          result.tracklets, result.payload)
            outcomes.append(("manifest", result))
    assert outcomes[0] == outcomes[1]


def test_load_encoder_is_load_checkpoints_params(tmp_path):
    path = _saved_checkpoint(tmp_path)
    params, _, _ = load_checkpoint(path)
    encoder = load_encoder(path)
    assert encoder.dims() == params.dims()
    for (name, a), (other, b) in zip(encoder.named_arrays(), params.named_arrays()):
        assert name == other
        np.testing.assert_array_equal(a, b)


def _repeat_first_id_in_second_group(header):
    groups = header["store_groups"]
    groups[1]["tracklet_ids"][0] = groups[0]["tracklet_ids"][0]


def _list_first_group_twice(header):
    header["store_groups"].append(dict(header["store_groups"][0]))


@pytest.mark.parametrize("mutate, match", [
    (_repeat_first_id_in_second_group, "duplicate prototype for tracklet VIS_0_0"),
    (_list_first_group_twice, "store group of section 'store.VIS.0' is listed twice"),
], ids=["id_in_two_groups", "group_listed_twice"])
def test_checkpoint_store_groups_checked_without_building_the_store(tmp_path, mutate, match):
    bad = _rewrite_header(_saved_checkpoint(tmp_path), tmp_path / "bad.hpt", mutate)
    for load in (load_checkpoint, load_encoder):
        with pytest.raises(CheckpointError, match=match):
            load(bad)
