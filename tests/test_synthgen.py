import numpy as np
import pytest

from hitpro.datamodel import Modality
from hitpro.synthgen import GenConfig, generate_dataset

from oracles import naive_cosine


def zero_noise_cfg(**kw):
    base = dict(
        n_identities=5, cams_vis=2, cams_ir=2, d_in=8, d_latent=4,
        tracklets_per_identity_per_camera=1, frame_len_min=4, frame_len_max=6,
        camera_offset_scale=0.0, modality_transform_scale=0.0,
        frame_noise=0.0, walk_step=0.0, seed=3,
    )
    base.update(kw)
    return GenConfig(**base)


def test_zero_noise_degenerate():
    ds = generate_dataset(zero_noise_cfg())
    by_identity = {}
    for t in ds.tracklets:
        frames = t.frames.astype(np.float64)
        # every frame of a tracklet identical
        assert np.allclose(frames, frames[0], atol=1e-6)
        by_identity.setdefault(t.gt_identity, []).append(frames.mean(axis=0))
    for vecs in by_identity.values():
        for v in vecs[1:]:
            assert naive_cosine(vecs[0].tolist(), v.tolist()) == pytest.approx(1.0, abs=1e-6)


def test_tracklet_counts():
    cfg = GenConfig(
        n_identities=50, cams_vis=2, cams_ir=2, d_in=8, d_latent=4,
        tracklets_per_identity_per_camera=1, frame_len_min=4, frame_len_max=6,
        seed=0,
    )
    ds = generate_dataset(cfg)
    assert len(ds.by_modality(Modality.VIS)) == 100
    assert len(ds.by_modality(Modality.IR)) == 100


def test_seed_determinism():
    cfg = GenConfig(n_identities=4, cams_vis=1, cams_ir=1, d_in=6, d_latent=3, seed=9)
    a = generate_dataset(cfg)
    b = generate_dataset(cfg)
    assert [t.tracklet_id for t in a.tracklets] == [t.tracklet_id for t in b.tracklets]
    for ta, tb in zip(a.tracklets, b.tracklets):
        assert ta.frames.tobytes() == tb.frames.tobytes()
    c = generate_dataset(GenConfig(n_identities=4, cams_vis=1, cams_ir=1,
                                   d_in=6, d_latent=3, seed=10))
    assert any(
        ta.frames.tobytes() != tc.frames.tobytes() for ta, tc in zip(a.tracklets, c.tracklets)
    )


def test_frame_length_bounds():
    cfg = GenConfig(n_identities=10, cams_vis=2, cams_ir=2, d_in=6, d_latent=3,
                    frame_len_min=5, frame_len_max=9, seed=2)
    ds = generate_dataset(cfg)
    lengths = {t.n_frames for t in ds.tracklets}
    assert all(5 <= length <= 9 for length in lengths)
    assert len(lengths) > 1  # lengths actually vary


def test_gt_identity_always_set():
    ds = generate_dataset(zero_noise_cfg())
    assert ds.has_labels
    assert {t.gt_identity for t in ds.tracklets} == set(range(5))


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        zero_noise_cfg(frame_noise=-0.1)
    with pytest.raises(ValueError):
        zero_noise_cfg(d_latent=10, d_in=8)
    with pytest.raises(ValueError):
        zero_noise_cfg(frame_len_min=7, frame_len_max=6)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("key, value", [
    ("camera_offset_scale", NAN), ("camera_offset_scale", INF),
    ("modality_transform_scale", -INF), ("modality_transform_scale", -0.5),
    ("frame_noise", NAN), ("frame_noise", INF), ("walk_step", NAN), ("walk_step", INF),
    ("n_identities", 0), ("cams_vis", 0), ("cams_ir", -1),
    ("tracklets_per_identity_per_camera", 0), ("d_latent", 0), ("frame_len_min", 0),
    ("frame_len_max", 3), ("seed", -1),
])
def test_config_rejects_values_out_of_range_naming_the_key(key, value):
    with pytest.raises(ValueError, match=f"^{key} must be "):
        zero_noise_cfg(**{key: value})


@pytest.mark.parametrize("key, value", [
    ("frame_noise", 0.0), ("walk_step", 1e300), ("frame_len_max", 4), ("d_latent", 8),
    ("seed", 0), ("seed", 2**70),
])
def test_config_accepts_values_at_the_edges(key, value):
    assert getattr(zero_noise_cfg(**{key: value}), key) == value


def test_frames_overflowing_float32_rejected():
    with pytest.raises(ValueError, match="overflow float32"):
        generate_dataset(zero_noise_cfg(frame_noise=1e39))


def _raw_mean_cross_modal_rank1(ds):
    feats = np.stack([t.frames.astype(np.float64).mean(axis=0) for t in ds.tracklets])
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    ids = np.array([t.gt_identity for t in ds.tracklets])
    is_ir = np.array([t.modality is Modality.IR for t in ds.tracklets])
    sims = feats[is_ir] @ feats[~is_ir].T
    top = ids[~is_ir][np.argmax(sims, axis=1)]
    return float(np.mean(top == ids[is_ir]))


def test_rank1_decreases_with_modality_noise():
    # expectation over 20 seeds at three noise levels, frozen from calibration
    means = []
    for scale in (0.1, 0.4, 0.8):
        r1 = [
            _raw_mean_cross_modal_rank1(
                generate_dataset(
                    GenConfig(
                        n_identities=12, cams_vis=1, cams_ir=1, d_in=16, d_latent=6,
                        frame_len_min=6, frame_len_max=10, camera_offset_scale=0.3,
                        modality_transform_scale=scale, frame_noise=0.2,
                        walk_step=0.1, seed=100 + s,
                    )
                )
            )
            for s in range(20)
        ]
        means.append(float(np.mean(r1)))
    assert means[0] > means[1] > means[2]
