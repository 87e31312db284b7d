"""The benchmark's workloads: one flat hitpro config each, made from a seed.

Every workload starts from the frozen noisy benchmark recipe (the contents of
``configs/noisy_benchmark.json``, copied here so that the benchmark's inputs
change only when the benchmark does) and overrides what it stresses. The
seed feeds both the generator and the training ``seed``; the program sees
only the written config and the generated dataset.

Epoch counts are shorter than the frozen recipe's 30 so that several passes
fit in one measured run. The loss phase-in epochs shrink with them, keeping
the recipe's order: intra-camera loss first, then the cross-camera and
cross-modality losses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

NOISY_RECIPE = {
    "n_identities": 50,
    "cams_vis": 2,
    "cams_ir": 2,
    "d_in": 24,
    "d_latent": 8,
    "tracklets_per_identity_per_camera": 1,
    "frame_len_min": 8,
    "frame_len_max": 16,
    "camera_offset_scale": 0.5,
    "modality_transform_scale": 0.35,
    "frame_noise": 0.3,
    "walk_step": 0.1,
    "embed_dim": 32,
    "ffn_dim": 64,
    "pool_hidden_dim": 32,
    "n_tte_layers": 1,
    "seq_len": 6,
    "n_subtracklets": 4,
    "loss_temp": 0.05,
    "weight_temp": 0.1,
    "thresh_init": 0.99,
    "thresh_final": 0.9,
    "ema_momentum": 0.2,
    "intra_start_epoch": 5,
    "cross_start_epoch": 15,
    "total_epochs": 30,
    "iters_per_epoch": 50,
    "batch_cameras": 2,
    "batch_tracklets": 2,
    "batch_subs": 2,
    "lr": 0.005,
    "sgd_momentum": 0.9,
    "lr_decay_every": 20,
    "lr_decay_factor": 0.1,
    "seed": 0,
}


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int  # hitpro --threads for train and eval
    overrides: dict = field(default_factory=dict)
    # check that training beats the untrained encoder on this workload
    check_learns: bool = False

    def config(self, seed: int) -> dict:
        return {**NOISY_RECIPE, **self.overrides, "seed": seed}


WORKLOADS = {
    w.name: w
    for w in (
        # The frozen recipe, one thread: the per-iteration path (encode,
        # encode_backward, the losses) dominates and mining is small.
        Workload(
            name="noisy_train",
            threads=1,
            overrides={"total_epochs": 3, "intra_start_epoch": 1, "cross_start_epoch": 2},
            check_learns=True,
        ),
        # A 900-tracklet gallery on 3+3 cameras with few iterations: mining,
        # whose cost grows with the square of the gallery, dominates, then the
        # prototype build and eval. It is the one workload on the thread pool.
        # One sub-tracklet per tracklet keeps encoding below mining at a
        # gallery small enough for several passes per run, and milder camera,
        # modality and frame noise keep the retrieval figures of this short
        # training steady from seed to seed.
        Workload(
            name="wide_gallery",
            threads=2,
            overrides={
                "n_identities": 150,
                "cams_vis": 3,
                "cams_ir": 3,
                "n_subtracklets": 1,
                "camera_offset_scale": 0.25,
                "modality_transform_scale": 0.2,
                "frame_noise": 0.2,
                "total_epochs": 2,
                "iters_per_epoch": 10,
                "intra_start_epoch": 1,
                "cross_start_epoch": 1,
            },
        ),
        # Two wider TTE layers on 16-frame sequences, one thread: each encoder
        # call costs about 3x more than in noisy_train, so a per-call overhead
        # cut gains less and a layout that costs FLOPs or memory shows. It is
        # the one workload on the depth-2 path, the TrainConfig default. Two
        # long epochs rather than more short ones keep the backward pass, not
        # the per-epoch prototype builds, the largest layer.
        Workload(
            name="deep_encoder",
            threads=1,
            overrides={
                "n_tte_layers": 2,
                "embed_dim": 64,
                "ffn_dim": 128,
                "pool_hidden_dim": 64,
                "seq_len": 16,
                "n_subtracklets": 2,
                "frame_len_min": 16,
                "frame_len_max": 32,
                "batch_tracklets": 4,
                "total_epochs": 2,
                "iters_per_epoch": 50,
                "intra_start_epoch": 1,
                "cross_start_epoch": 1,
            },
        ),
    )
}
