"""Unsupervised cross-modal tracklet re-identification at desk scale.

The pipeline: encode tracklet frame sequences with a small temporal encoder,
build per-camera identity prototypes, mine cross-camera and cross-modality
positives under a decaying reliability threshold, and train with a
hierarchy of prototype-contrastive losses backed by an EMA prototype memory.
"""

__version__ = "0.1.0"
