"""Unsupervised cross-modal tracklet re-identification at desk scale.

The pipeline: encode tracklet frame sequences with a small temporal encoder,
build per-camera identity prototypes, mine cross-camera and cross-modality
positives under a decaying reliability threshold, and train with a
hierarchy of prototype-contrastive losses backed by an EMA prototype memory.
"""

from .datamodel import (
    CheckpointError,
    Dataset,
    DatasetError,
    Manifest,
    Modality,
    PositiveKind,
    Prototype,
    PrototypeStore,
    SubTracklet,
    Tracklet,
    TrainConfig,
    WeightedPositiveSet,
    load_checkpoint,
    load_dataset,
    read_manifest,
    save_checkpoint,
    save_dataset,
)
from .encoder import EncoderParams, NumericError, encode, encode_backward, encoder_init, select_frames
from .evaluator import (
    RetrievalResult,
    dataset_labels,
    distance_distribution,
    embed_tracklet,
    evaluate_dataset,
    evaluate_embeddings,
    evaluate_retrieval,
    mining_quality,
)
from .mining import MiningReport, build_mining_report, cosine_sim, mine_positive_sets, rho_schedule, soft_weights
from .objective import LossBreakdown, ema_update, loss_cross_modal, loss_imcc, loss_intra_camera, total_loss
from .prototyping import build_prototypes, embed_tracklets, partition_tracklet, tracklet_embedding
from .sampler import BatchSpec, sample_batch
from .synthgen import GenConfig, generate_dataset
from .trainer import OptState, TrainResult, sgd_step, train

__all__ = [
    "BatchSpec",
    "CheckpointError",
    "Dataset",
    "DatasetError",
    "EncoderParams",
    "GenConfig",
    "LossBreakdown",
    "Manifest",
    "MiningReport",
    "Modality",
    "NumericError",
    "OptState",
    "PositiveKind",
    "Prototype",
    "PrototypeStore",
    "RetrievalResult",
    "SubTracklet",
    "Tracklet",
    "TrainConfig",
    "TrainResult",
    "WeightedPositiveSet",
    "build_mining_report",
    "build_prototypes",
    "cosine_sim",
    "dataset_labels",
    "distance_distribution",
    "ema_update",
    "embed_tracklet",
    "embed_tracklets",
    "encode",
    "encode_backward",
    "encoder_init",
    "evaluate_dataset",
    "evaluate_embeddings",
    "evaluate_retrieval",
    "generate_dataset",
    "load_checkpoint",
    "load_dataset",
    "loss_cross_modal",
    "loss_imcc",
    "loss_intra_camera",
    "mine_positive_sets",
    "mining_quality",
    "partition_tracklet",
    "read_manifest",
    "rho_schedule",
    "sample_batch",
    "save_checkpoint",
    "save_dataset",
    "select_frames",
    "sgd_step",
    "soft_weights",
    "total_loss",
    "tracklet_embedding",
    "train",
]

__version__ = "0.1.0"
