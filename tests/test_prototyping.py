import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hitpro.datamodel import (
    Dataset, Modality, Prototype, PrototypeStore, TrainConfig, Tracklet, load_checkpoint,
    load_dataset, read_frames, read_manifest, save_checkpoint, save_dataset,
)
import hitpro.encoder as encoder_mod
from hitpro import prototyping
from hitpro.encoder import encode, encoder_init, select_frames
from hitpro.numerics import l2_normalize
from hitpro.prototyping import (
    build_prototypes,
    embed_tracklets,
    frame_table,
    partition_tracklet,
    table_of_rows,
    tracklet_embedding,
)

from conftest import assert_same_store, spy_helper_slices


def make_tracklet(n_frames, tid="t0", d_in=4, modality=Modality.VIS, cam=0, seed=0):
    frames = np.random.default_rng(seed).normal(size=(n_frames, d_in)).astype("<f4")
    return Tracklet(tracklet_id=tid, modality=modality, camera_id=cam, frames=frames)


@pytest.mark.parametrize(
    "length,k,sizes",
    [
        (12, 4, [3, 3, 3, 3]),
        (10, 4, [3, 3, 2, 2]),
        (3, 4, [1, 1, 1]),
        (1, 1, [1]),
        (7, 3, [3, 2, 2]),
    ],
)
def test_partition_sizes(length, k, sizes):
    subs = partition_tracklet(make_tracklet(length), k)
    assert [s.end - s.start for s in subs] == sizes
    # contiguous cover of [0, L)
    assert subs[0].start == 0
    assert subs[-1].end == length
    for a, b in zip(subs, subs[1:]):
        assert a.end == b.start
    assert [s.k for s in subs] == list(range(len(subs)))


def small_cfg(**kw):
    base = dict(
        d_in=4, embed_dim=8, ffn_dim=16, pool_hidden_dim=8, n_tte_layers=1,
        seq_len=3, n_subtracklets=2, total_epochs=1, iters_per_epoch=1,
        intra_start_epoch=0, cross_start_epoch=0, seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


def make_dataset(n_per_group=2, d_in=4):
    tracklets = []
    i = 0
    for modality in (Modality.VIS, Modality.IR):
        for cam in range(2):
            for _ in range(n_per_group):
                tracklets.append(
                    make_tracklet(6 + i % 3, tid=f"t{i}", d_in=d_in,
                                  modality=modality, cam=cam, seed=i)
                )
                i += 1
    return Dataset(d_in=d_in, n_cameras_vis=2, n_cameras_ir=2, tracklets=tuple(tracklets))


def params_for(cfg):
    return encoder_init(
        d_in=cfg.d_in, embed_dim=cfg.embed_dim, ffn_dim=cfg.ffn_dim,
        pool_hidden_dim=cfg.pool_hidden_dim, n_tte_layers=cfg.n_tte_layers,
        seq_len=cfg.seq_len, seed=cfg.seed,
    )


def test_store_counts_match_dataset():
    cfg = small_cfg()
    ds = make_dataset(n_per_group=3)
    store = build_prototypes(params_for(cfg), ds, cfg)
    assert len(store) == len(ds.tracklets)
    for modality in (Modality.VIS, Modality.IR):
        for cam in range(2):
            assert len(store.group(modality, cam)) == len(ds.group(modality, cam))
            # order stable: store order equals dataset order
            assert [p.tracklet_id for p in store.group(modality, cam)] == [
                t.tracklet_id for t in ds.group(modality, cam)
            ]


def test_prototypes_unit_norm():
    cfg = small_cfg()
    ds = make_dataset()
    store = build_prototypes(params_for(cfg), ds, cfg)
    for t in ds.tracklets:
        assert abs(np.linalg.norm(store.get(t.tracklet_id).vector) - 1.0) < 1e-6


def test_single_subtracklet_equals_embedding():
    cfg = small_cfg(n_subtracklets=1)
    ds = make_dataset()
    params = params_for(cfg)
    store = build_prototypes(params, ds, cfg)
    from hitpro.encoder import encode, select_frames

    t = ds.tracklets[0]
    emb, _ = encode(params, select_frames(t.frames, cfg.seq_len))
    np.testing.assert_allclose(store.get(t.tracklet_id).vector, emb, rtol=0, atol=1e-12)


def test_mean_then_normalize_hand_case():
    # embeddings [1,0] and [0,1] -> mean [0.5,0.5] -> normalized [0.7071, 0.7071]
    mean = (np.array([1.0, 0.0]) + np.array([0.0, 1.0])) / 2.0
    normalized = mean / np.linalg.norm(mean)
    np.testing.assert_allclose(normalized, [0.70710678, 0.70710678], atol=1e-6)
    # the same arithmetic drives tracklet_embedding: check against a direct
    # mean of sub-embeddings on a real instance
    cfg = small_cfg()
    ds = make_dataset()
    params = params_for(cfg)
    from hitpro.encoder import encode, select_frames

    t = ds.tracklets[1]
    subs = partition_tracklet(t, cfg.n_subtracklets)
    embs = [
        encode(params, select_frames(s.slice_frames(t), cfg.seq_len))[0] for s in subs
    ]
    expected = np.mean(embs, axis=0)
    expected /= np.linalg.norm(expected)
    np.testing.assert_allclose(
        tracklet_embedding(params, t, cfg), expected, rtol=0, atol=1e-12
    )


def test_build_deterministic_and_thread_invariant():
    cfg = small_cfg()
    ds = make_dataset(n_per_group=3)
    params = params_for(cfg)
    a = build_prototypes(params, ds, cfg)
    b = build_prototypes(params, ds, cfg)
    for t in ds.tracklets:
        np.testing.assert_array_equal(
            a.get(t.tracklet_id).vector, b.get(t.tracklet_id).vector
        )


def test_build_prototypes_equals_list_built_store():
    cfg = small_cfg()
    grouped = make_dataset(n_per_group=3)
    order = np.random.default_rng(1).permutation(len(grouped.tracklets))
    ds = Dataset(d_in=4, n_cameras_vis=2, n_cameras_ir=2,
                 tracklets=tuple(grouped.tracklets[i] for i in order))  # cameras interleaved
    params = params_for(cfg)
    listed = PrototypeStore([
        Prototype(t.tracklet_id, t.modality, t.camera_id, v)
        for t, v in zip(ds.tracklets, embed_tracklets(params, ds.tracklets, cfg))
    ])
    assert_same_store(build_prototypes(params, ds, cfg), listed)


def test_store_of_an_ir_first_dataset_equals_its_checkpoint_store(tmp_path):
    grouped = make_dataset(n_per_group=3)
    ds = Dataset(d_in=4, n_cameras_vis=2, n_cameras_ir=2,
                 tracklets=grouped.tracklets[::-1])  # IR camera 1 first
    cfg = small_cfg()
    params = params_for(cfg)
    store = build_prototypes(params, ds, cfg)
    store.stacked[...] = store.stacked.astype("<f4")  # the values a checkpoint holds
    save_checkpoint(params, store, 0, tmp_path / "checkpoint.hpt")
    _, loaded, _ = load_checkpoint(tmp_path / "checkpoint.hpt")
    assert_same_store(loaded, store)
    assert store.locate(store.ids(Modality.VIS, 0)[0]) == (Modality.VIS, 0, 0)


def _looped_tracklet_embedding(params, t, cfg):
    """One 2-D encoder call per sub-tracklet, summed in order."""
    total = np.zeros(cfg.embed_dim)
    subs = partition_tracklet(t, cfg.n_subtracklets)
    for sub in subs:
        total += encode(params, select_frames(sub.slice_frames(t), cfg.seq_len))[0]
    return l2_normalize(total / len(subs))


@pytest.mark.parametrize("chunk", [None, 5])
def test_embed_tracklets_across_chunks_matches_per_tracklet(monkeypatch, chunk):
    if chunk is not None:  # chunk boundaries inside a tracklet's sub-tracklets
        monkeypatch.setattr(encoder_mod, "ENCODE_CHUNK", chunk)
    cfg = small_cfg(n_subtracklets=3, n_tte_layers=2)
    ds = make_dataset(n_per_group=12)  # 48 tracklets, 144 sub-tracklets
    params = params_for(cfg)
    n_subs = sum(len(partition_tracklet(t, cfg.n_subtracklets)) for t in ds.tracklets)
    assert n_subs > 2 * encoder_mod.ENCODE_CHUNK
    vectors = embed_tracklets(params, ds.tracklets, cfg)
    assert len(vectors) == len(ds.tracklets)
    for t, vec in zip(ds.tracklets, vectors):
        np.testing.assert_array_equal(vec, tracklet_embedding(params, t, cfg))
        np.testing.assert_array_equal(vec, _looped_tracklet_embedding(params, t, cfg))


@pytest.mark.parametrize("n_layers", [1, 2])
# 5 and 6 slices, of which the caller keeps those of the first half of the
# rows: 10 of 24 rows, 18 of 36
@pytest.mark.parametrize("n_per_group, chunk, kept", [(2, 5, 2), (3, 6, 3)])
def test_embed_tracklets_on_the_helper_matches_per_tracklet(monkeypatch, n_layers, n_per_group,
                                                             chunk, kept):
    monkeypatch.setattr(encoder_mod, "ENCODE_CHUNK", chunk)
    monkeypatch.setattr(encoder_mod, "HELPER_MIN_WORK", 0)
    monkeypatch.setattr(encoder_mod, "_cores", lambda: 2)
    ran = spy_helper_slices(monkeypatch)
    cfg = small_cfg(n_subtracklets=3, n_tte_layers=n_layers)
    ds = make_dataset(n_per_group=n_per_group)  # 12 * n_per_group rows
    params = params_for(cfg)
    vectors = embed_tracklets(params, ds.tracklets, cfg)
    assert len(ran) == -(-12 * n_per_group // chunk)
    assert sum(not on_helper for _, on_helper in ran) == kept
    for t, vec in zip(ds.tracklets, vectors, strict=True):
        np.testing.assert_array_equal(vec, _looped_tracklet_embedding(params, t, cfg))


@pytest.mark.parametrize(
    "lengths,k,seq_len",
    [
        ([12, 10, 7], 4, 3),  # uneven partitions, L >= seq_len
        ([3, 2, 9], 4, 3),  # L < K: K_eff = L
        ([2, 5, 4], 2, 6),  # L < seq_len: frames repeat cyclically
        ([1, 6, 1], 3, 4),  # L == 1: one sub-tracklet of one frame
        ([9, 1, 4], 4, 1),  # seq_len == 1
    ],
)
def test_frame_table_rows_are_selected_partition_frames(lengths, k, seq_len):
    tracklets = [make_tracklet(n, tid=f"t{i}", seed=i) for i, n in enumerate(lengths)]
    cfg = small_cfg(n_subtracklets=k, seq_len=seq_len)
    table = prototyping.frame_table(tracklets, cfg)
    assert table.frames.dtype == np.float64
    assert table.frames.shape[1:] == (seq_len, 4)
    row = 0
    for i, t in enumerate(tracklets):
        subs = partition_tracklet(t, k)
        assert table.k_eff[i] == len(subs) == min(k, t.n_frames)
        assert table.starts[i] == row
        expected = np.stack([select_frames(s.slice_frames(t), seq_len) for s in subs])
        assert np.array_equal(table.frames[row : row + len(subs)], expected)
        row += len(subs)
    assert len(table.frames) == row
    assert table.owners.tolist() == [i for i, n in enumerate(table.k_eff) for _ in range(n)]


def test_frame_table_of_no_tracklets_is_empty():
    table = prototyping.frame_table([], small_cfg())
    assert table.frames.shape == (0, 3, 4)
    vectors = embed_tracklets(params_for(small_cfg()), [], small_cfg())
    assert vectors.dtype == np.float64 and vectors.shape == (0, 8)


def _looped_frame_table(tracklets, k, seq_len, d_in):
    """``(frames, k_eff)`` by one partition_tracklet and select_frames call each."""
    parts = [partition_tracklet(t, k) for t in tracklets]
    rows = [select_frames(sub.slice_frames(t), seq_len) for t, part in zip(tracklets, parts)
            for sub in part]
    frames = np.array(rows, dtype=np.float64) if rows else np.empty((0, seq_len, d_in))
    return frames, [len(part) for part in parts]


@settings(max_examples=150, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 40), max_size=8),
    k=st.integers(1, 8),
    seq_len=st.integers(1, 12),
    loaded=st.booleans(),
)
@example(lengths=[], k=4, seq_len=3, loaded=False)
@example(lengths=[], k=1, seq_len=1, loaded=True)
@example(lengths=[2, 1, 3], k=8, seq_len=12, loaded=False)  # L < K and L < seq_len
@example(lengths=[5, 40, 7, 1], k=6, seq_len=9, loaded=True)
def test_frame_table_equals_the_partition_and_select_loop(lengths, k, seq_len, loaded):
    tracklets = [make_tracklet(n, tid=f"t{i}", seed=i) for i, n in enumerate(lengths)]
    with tempfile.TemporaryDirectory() as tmp:
        if loaded:  # frames are views of the one frames.f32 buffer
            ds = Dataset(d_in=4, n_cameras_vis=1, n_cameras_ir=1, tracklets=tuple(tracklets))
            tracklets = list(load_dataset(save_dataset(ds, tmp)).tracklets)
            assert all(t.frames.base is not None for t in tracklets)
        table = prototyping.frame_table(tracklets, small_cfg(n_subtracklets=k, seq_len=seq_len))
        frames, k_eff = _looped_frame_table(tracklets, k, seq_len, 4)
    assert table.frames.dtype == np.float64
    assert table.frames.shape == frames.shape
    assert table.frames.tobytes() == frames.tobytes()
    assert table.k_eff.tolist() == k_eff
    assert table.starts.tolist() == (np.cumsum(k_eff) - k_eff).tolist()


def test_zero_mean_embedding_raises(monkeypatch):
    # two sub-tracklets whose embeddings cancel: the mean has no direction
    cfg = small_cfg(n_subtracklets=2)
    t = make_tracklet(6)

    def opposite_encode_table(params, frames):
        emb = np.zeros((len(frames), cfg.embed_dim))
        emb[:, 0] = [(-1.0) ** i for i in range(len(frames))]
        return emb

    monkeypatch.setattr(prototyping, "encode_table", opposite_encode_table)
    with pytest.raises(ValueError, match="zero vector"):
        embed_tracklets(params_for(cfg), [t], cfg)


def test_table_of_rows_on_the_payload_is_frame_table(tmp_path):
    # eval gathers straight from frames.f32; training from its tracklets
    ds, cfg = make_dataset(), small_cfg(n_subtracklets=3, seq_len=4)
    save_dataset(ds, tmp_path)
    manifest = read_manifest(tmp_path)
    direct = table_of_rows(read_frames(manifest), manifest.n_frames, cfg)
    table = frame_table(load_dataset(tmp_path).tracklets, cfg)
    for name in ("frames", "starts", "k_eff"):
        assert getattr(direct, name).dtype == getattr(table, name).dtype
        assert getattr(direct, name).tobytes() == getattr(table, name).tobytes()
