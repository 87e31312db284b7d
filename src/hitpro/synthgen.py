"""Ground-truthed synthetic cross-modal tracklet datasets.

Each identity owns a latent vector; cameras add latent-space offsets; each
modality observes the latent space through its own linear map (identity
blended with a random orthogonal basis, so the modality gap is tunable and
invertible). Frames add a bounded random walk plus i.i.d. noise. Everything
is a pure function of the config.

Each tracklet draws from its own RNG stream, seeded by (seed, tracklet
index): its length, then all of its walk steps, then all of its noise. The
reflected walk then runs in waves over the frame index, one elementwise
step for every tracklet at once, and each modality maps all of its frames
with one stacked matrix-vector product. Every frame has the bits of the
frame-by-frame loop kept in ``tests/reference_loops.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamodel import Dataset, Manifest, Modality, check_settings, setting


@dataclass(frozen=True)
class GenConfig:
    n_identities: int = setting(50, ge=1)
    cams_vis: int = setting(2, ge=1)
    cams_ir: int = setting(2, ge=1)
    d_in: int = setting(16, ge=1)
    d_latent: int = setting(6, ge=1)
    tracklets_per_identity_per_camera: int = setting(1, ge=1)
    frame_len_min: int = setting(8, ge=1)
    frame_len_max: int = setting(16, ge=1)
    camera_offset_scale: float = setting(0.3, ge=0)
    modality_transform_scale: float = setting(0.5, ge=0)
    frame_noise: float = setting(0.2, ge=0)
    walk_step: float = setting(0.1, ge=0)
    seed: int = setting(0, ge=0)

    def __post_init__(self):
        check_settings(GenConfig, vars(self))
        if self.d_latent > self.d_in:
            raise ValueError("d_latent must be <= d_in")
        if self.frame_len_max < self.frame_len_min:
            raise ValueError("frame_len_max must be >= frame_len_min")


def _modality_map(cfg: GenConfig, rng: np.random.Generator) -> np.ndarray:
    """(1 - scale) * identity-pad + scale * random orthonormal columns."""
    eye = np.zeros((cfg.d_in, cfg.d_latent))
    eye[: cfg.d_latent, : cfg.d_latent] = np.eye(cfg.d_latent)
    q, _ = np.linalg.qr(rng.normal(size=(cfg.d_in, cfg.d_latent)))
    s = cfg.modality_transform_scale
    return (1.0 - s) * eye + s * q


def _reflect(w: np.ndarray, bound: float) -> np.ndarray:
    if bound == 0.0:
        return w
    out = np.where(w > bound, 2.0 * bound - w, w)
    return np.where(out < -bound, -2.0 * bound - out, out)


def _tracklet_rng(cfg: GenConfig, tracklet_index: int) -> np.random.Generator:
    # stream derived from (seed, tracklet index): parallel-safe and stable
    return np.random.default_rng(np.random.SeedSequence((cfg.seed, 1, tracklet_index)))


def generate_dataset(cfg: GenConfig) -> Dataset:
    """Build the full dataset, its entries as columns and its frames as one
    read-only float32 matrix; deterministic given ``cfg.seed``."""
    global_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0)))

    latents = global_rng.normal(size=(cfg.n_identities, cfg.d_latent))
    cameras = [(modality, cam)
               for modality, n_cams in ((Modality.VIS, cfg.cams_vis), (Modality.IR, cfg.cams_ir))
               for cam in range(n_cams)]
    offsets = np.array([cfg.camera_offset_scale * global_rng.normal(size=cfg.d_latent)
                        for _ in cameras])
    maps = {
        Modality.VIS: _modality_map(cfg, global_rng),
        Modality.IR: _modality_map(cfg, global_rng),
    }

    # tracklet index = (identity * n_cameras + camera) * reps + rep
    reps = cfg.tracklets_per_identity_per_camera
    n = cfg.n_identities * len(cameras) * reps
    lengths = np.empty(n, dtype=np.int64)
    steps = np.zeros((n, cfg.frame_len_max, cfg.d_latent))
    noise = []
    for index in range(n):
        rng = _tracklet_rng(cfg, index)
        length = int(rng.integers(cfg.frame_len_min, cfg.frame_len_max + 1))
        lengths[index] = length
        steps[index, :length] = rng.normal(size=(length, cfg.d_latent))
        noise.append(rng.normal(size=(length, cfg.d_in)))
    identity_of = np.arange(n) // (len(cameras) * reps)
    camera_of = np.arange(n) // reps % len(cameras)

    # the walk of every tracklet, one frame index per wave; rows past a
    # tracklet's length are computed and dropped
    centers = latents[identity_of] + offsets[camera_of]
    bound = 3.0 * cfg.walk_step
    points = np.empty_like(steps)
    walk = np.zeros((n, cfg.d_latent))
    for t in range(cfg.frame_len_max):
        walk = _reflect(walk + cfg.walk_step * steps[:, t], bound)
        points[:, t] = centers + walk
    points = points[np.arange(cfg.frame_len_max) < lengths[:, None]]  # frame rows in order

    is_vis = camera_of < cfg.cams_vis
    vis_rows = np.repeat(is_vis, lengths)
    frames = np.empty((len(points), cfg.d_in))
    for modality, rows in ((Modality.VIS, vis_rows), (Modality.IR, ~vis_rows)):
        frames[rows] = (maps[modality] @ points[rows][:, :, None])[:, :, 0]
    frames += cfg.frame_noise * np.concatenate(noise)
    with np.errstate(over="ignore"):
        frames = frames.astype("<f4")
    if not np.isfinite(frames).all():
        raise ValueError("generated frames overflow float32; lower the noise and scale keys")
    frames.flags.writeable = False

    camera_id = np.where(is_vis, camera_of, camera_of - cfg.cams_vis)
    ids = tuple(f"{'vis' if vis else 'ir'}_c{cam}_i{identity:04d}_r{index % reps}"
                for index, (vis, cam, identity) in enumerate(
                    zip(is_vis.tolist(), camera_id.tolist(), identity_of.tolist())))
    manifest = Manifest(cfg.d_in, cfg.cams_vis, cfg.cams_ir, ids, is_vis, camera_id, lengths,
                        identity_of, None)
    return Dataset.from_manifest(manifest, frames)
