"""Cross-modal retrieval metrics (CMC, mAP), distance, and mining diagnostics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .datamodel import Dataset, Modality, TrainConfig, Tracklet
from .encoder import EncoderParams
from .mining import MiningReport
from .prototyping import embed_tracklets, tracklet_embedding

# Sampled pairs per gather in distance_distribution; keeps the gathered
# embedding rows to a few MB whatever n_pairs is.
_PAIR_BLOCK = 1024


@dataclass
class RetrievalResult:
    direction: str  # "IR->VIS" or "VIS->IR"
    cmc: np.ndarray  # rank-k accuracies, k = 1..max_rank
    mean_ap: float
    n_query: int
    n_gallery: int

    def to_json(self) -> dict:
        return {
            "direction": self.direction,
            "cmc": [float(v) for v in self.cmc],
            "rank1": float(self.cmc[0]),
            "rank5": float(self.cmc[4]) if len(self.cmc) >= 5 else None,
            "rank10": float(self.cmc[9]) if len(self.cmc) >= 10 else None,
            "map": self.mean_ap,
            "n_query": self.n_query,
            "n_gallery": self.n_gallery,
        }


def embed_tracklet(params: EncoderParams, tracklet: Tracklet, cfg: TrainConfig) -> np.ndarray:
    """Test-time tracklet feature; same recipe as prototype construction."""
    return tracklet_embedding(params, tracklet, cfg)


def dataset_labels(dataset: Dataset) -> Optional[dict[str, int]]:
    """Tracklet id -> identity map, or None unless every tracklet is labeled.

    The single place the training loop obtains labels from, and only for
    diagnostics.
    """
    if not dataset.has_labels:
        return None
    return {t.tracklet_id: t.gt_identity for t in dataset.tracklets}


def evaluate_retrieval(
    queries: list[tuple[np.ndarray, int]],
    gallery: list[tuple[np.ndarray, int]],
    max_rank: int = 20,
) -> RetrievalResult:
    """Rank the gallery by cosine similarity per query; ties break by
    gallery index. Every query identity must occur in the gallery."""
    if not queries or not gallery:
        raise ValueError("queries and gallery must be non-empty")
    q_mat = np.stack([q for q, _ in queries]).astype(np.float64)
    g_mat = np.stack([g for g, _ in gallery]).astype(np.float64)
    q_ids = np.array([i for _, i in queries])
    g_ids = np.array([i for _, i in gallery])
    missing = set(q_ids.tolist()) - set(g_ids.tolist())
    if missing:
        raise ValueError(f"query identities absent from gallery: {sorted(missing)}")
    max_rank = min(max_rank, len(gallery))

    q_norm = q_mat / np.linalg.norm(q_mat, axis=1, keepdims=True)
    g_norm = g_mat / np.linalg.norm(g_mat, axis=1, keepdims=True)
    sims = q_norm @ g_norm.T

    cmc_hits = np.zeros(max_rank)
    aps = []
    for qi in range(len(queries)):
        order = np.argsort(-sims[qi], kind="stable")  # stable: index breaks ties
        matches = (g_ids[order] == q_ids[qi])
        first = int(np.argmax(matches))  # at least one match guaranteed
        if first < max_rank:
            cmc_hits[first:] += 1.0
        rel_cum = np.cumsum(matches)
        ranks = np.nonzero(matches)[0] + 1
        aps.append(float(np.mean(rel_cum[ranks - 1] / ranks)))
    return RetrievalResult(
        direction="",
        cmc=cmc_hits / len(queries),
        mean_ap=float(np.mean(aps)),
        n_query=len(queries),
        n_gallery=len(gallery),
    )


def evaluate_dataset(
    params: EncoderParams,
    dataset: Dataset,
    cfg: TrainConfig,
    max_rank: int = 20,
) -> dict[str, RetrievalResult]:
    """Both retrieval directions with labeled tracklet embeddings."""
    vectors = embed_tracklets(params, dataset.tracklets, cfg)
    return evaluate_embeddings(dataset, vectors, max_rank)


def evaluate_embeddings(
    dataset: Dataset, vectors: list[np.ndarray], max_rank: int = 20
) -> dict[str, RetrievalResult]:
    """Both retrieval directions from one embedding per tracklet, in dataset order."""
    if not dataset.has_labels:
        raise ValueError("retrieval evaluation requires gt_identity on every tracklet")
    embedded: dict[Modality, list[tuple[np.ndarray, int]]] = {m: [] for m in Modality}
    for t, v in zip(dataset.tracklets, vectors):
        embedded[t.modality].append((v, t.gt_identity))

    results = {}
    for direction, q_mod, g_mod in (
        ("IR->VIS", Modality.IR, Modality.VIS),
        ("VIS->IR", Modality.VIS, Modality.IR),
    ):
        res = evaluate_retrieval(embedded[q_mod], embedded[g_mod], max_rank)
        res.direction = direction
        results[direction] = res
    return results


def distance_distribution(
    embeddings: list[tuple[np.ndarray, int]],
    n_pairs: int,
    rng: np.random.Generator,
    n_bins: int = 50,
) -> dict:
    """Sample cosine distances (1 - cos) of intra- and inter-class pairs.

    Pairs are drawn uniformly with replacement from the pair sets, each
    enumerated in row-major (i, j), i < j order;
    histograms use fixed bins over [0, 2].
    """
    ids = np.array([identity for _, identity in embeddings])
    pairs = np.stack(np.triu_indices(len(embeddings), 1), axis=1)  # i < j, row-major
    same = ids[pairs[:, 0]] == ids[pairs[:, 1]]
    intra, inter = pairs[same], pairs[~same]
    if not len(intra) or not len(inter):
        raise ValueError("need at least one intra-class and one inter-class pair")

    mat = np.stack([e for e, _ in embeddings]).astype(np.float64)
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)

    def sample(candidates):
        picked = candidates[rng.integers(0, len(candidates), size=n_pairs)]
        cos = np.empty(n_pairs)
        for start in range(0, n_pairs, _PAIR_BLOCK):
            block = picked[start : start + _PAIR_BLOCK]
            cos[start : start + len(block)] = np.einsum(
                "ij,ij->i", mat[block[:, 0]], mat[block[:, 1]]
            )
        return 1.0 - cos

    pos = sample(intra)
    neg = sample(inter)
    edges = np.linspace(0.0, 2.0, n_bins + 1)
    return {
        "positive_distances": pos,
        "negative_distances": neg,
        "bin_edges": edges,
        "positive_hist": np.histogram(pos, bins=edges)[0],
        "negative_hist": np.histogram(neg, bins=edges)[0],
    }


def mining_quality(
    report: MiningReport, gt: dict[str, int]
) -> tuple[Optional[float], float]:
    """Precision of accepted pairs and recall against the true per-camera-best
    candidates. Precision is None when nothing was accepted; recall is 0 when
    no true candidate exists."""
    src = np.array([gt[s] for s in report.sources])
    true = np.array([gt[t] for t in report.targets.ravel()]).reshape(report.targets.shape)
    true = true == src[:, None]  # accepted targets are distinct candidates
    n_accepted = int(report.accepted.sum())
    n_true_accepted = int((true & report.accepted).sum())
    n_true_candidates = int(true.sum())
    precision = n_true_accepted / n_accepted if n_accepted else None
    recall = n_true_accepted / n_true_candidates if n_true_candidates else 0.0
    return precision, recall
