import threading

import numpy as np

import hitpro.encoder as encoder_mod
from hitpro.datamodel import Modality, Prototype, PrototypeStore


def random_store(rng, cams_vis=2, cams_ir=2, max_per_cam=4, d=6, min_per_cam=1):
    """Random unit-norm store, ``min_per_cam`` to ``max_per_cam`` prototypes
    per camera, plus the plain-dict mirror the oracles consume."""
    protos = []
    groups = {}
    for modality, n_cams in ((Modality.VIS, cams_vis), (Modality.IR, cams_ir)):
        for cam in range(n_cams):
            n = int(rng.integers(min_per_cam, max_per_cam + 1))
            group = []
            for i in range(n):
                v = rng.normal(size=d)
                v /= np.linalg.norm(v)
                tid = f"{modality.value}_{cam}_{i}"
                protos.append(
                    Prototype(tracklet_id=tid, modality=modality, camera_id=cam, vector=v)
                )
                group.append((tid, v.tolist()))
            groups[(modality, cam)] = group
    return PrototypeStore(protos), groups


def assert_same_store(store, reference):
    """``store`` holds ``reference``'s matrix, camera blocks, ids and rows."""
    assert store.stacked.dtype == reference.stacked.dtype == np.float64
    assert np.array_equal(store.stacked, reference.stacked)
    assert np.array_equal(store.block_bounds, reference.block_bounds)
    assert len(store) == len(reference)
    for modality in Modality:
        assert store.cameras(modality) == reference.cameras(modality)
        for cam in reference.cameras(modality):
            assert store.ids(modality, cam) == reference.ids(modality, cam)
            for tid in reference.ids(modality, cam):
                assert store.locate(tid) == reference.locate(tid)
                assert store.position(tid) == reference.position(tid)


def on_the_helper() -> bool:
    """Whether the calling thread is the encoder's helper thread."""
    return threading.current_thread().name.startswith("hitpro-encoder-helper")


def spy_helper_slices(monkeypatch):
    """Record ``(address, on_helper)`` for each slice that
    :func:`hitpro.encoder.encode_table` encodes from now on: the address of
    the slice's first frame, and whether the helper thread encoded it."""
    ran = []
    forward = encoder_mod._forward

    def spy(params, x):
        ran.append((x.ctypes.data, on_the_helper()))
        return forward(params, x)

    monkeypatch.setattr(encoder_mod, "_forward", spy)
    return ran
