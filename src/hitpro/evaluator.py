"""Cross-modal retrieval metrics (CMC, mAP), distance, and mining diagnostics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .datamodel import Dataset, DatasetError, Manifest, TrainConfig
from .encoder import EncoderParams
from .mining import MiningReport
from .prototyping import embed_table, table_of_rows, tracklet_embedding

# Rows per block of the (256, n) temporaries in distance_distribution (Gram
# rows) and retrieval_metrics (ranked matches): a few MB even for a gallery
# of thousands.
_ROW_BLOCK = 256
N_BINS = 50  # fixed bins of distance_distribution's histograms over [0, 2]


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


# the test-time tracklet feature is the prototype recipe itself
embed_tracklet = tracklet_embedding


def dataset_labels(dataset: Manifest) -> Optional[dict[str, int]]:
    """Tracklet id -> identity map of a manifest or dataset, or None unless
    every tracklet is labeled.

    The single place the training loop and ``hitpro mine`` (which reads
    only the manifest) obtain labels from, and only for diagnostics.
    """
    if not dataset.has_labels:
        return None
    return dict(zip(dataset.tracklet_ids, dataset.gt_identity.tolist()))


def _unit_rows(mat: np.ndarray, side: str) -> np.ndarray:
    """Scale every row of float64 ``mat`` to unit length in place and return
    it. A row whose norm is 0 or not finite has no cosine similarity, so it
    raises ``ValueError`` naming ``side`` and the row."""
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    bad = np.flatnonzero(~(np.isfinite(norms[:, 0]) & (norms[:, 0] > 0)))
    if bad.size:
        raise ValueError(f"{side} vector {bad[0]} has norm {norms[bad[0], 0]}; "
                         "a zero or non-finite vector has no cosine similarity")
    mat /= norms
    return mat


def _int64_ids(ids: list, side: str) -> np.ndarray:
    """``ids`` as an int64 column; an id that is not an integer within int64
    raises ``ValueError``, since no wider or mixed array keeps ids exact."""
    try:
        column = np.array(ids, dtype=np.int64)
    except (OverflowError, TypeError, ValueError):
        column = None
    if column is None or column.tolist() != ids:
        raise ValueError(f"{side} identities must be integers within int64")
    return column


def evaluate_retrieval(
    queries: list[tuple[np.ndarray, int]],
    gallery: list[tuple[np.ndarray, int]],
    max_rank: int = 20,
) -> RetrievalResult:
    """:func:`retrieval_metrics` of ``(vector, identity)`` pairs; each
    identity must be an integer within int64."""
    return retrieval_metrics(
        np.array([q for q, _ in queries], dtype=np.float64),
        _int64_ids([i for _, i in queries], "query"),
        np.array([g for g, _ in gallery], dtype=np.float64),
        _int64_ids([i for _, i in gallery], "gallery"),
        max_rank,
    )


def retrieval_metrics(q_mat, q_ids, g_mat, g_ids, max_rank: int = 20) -> RetrievalResult:
    """Rank the gallery rows ``g_mat`` by cosine similarity to each query
    row of ``q_mat``; ties break by gallery index. ``q_ids`` and ``g_ids``
    are integer identity columns. Every query identity must occur in the
    gallery, and every vector needs a finite, nonzero norm.

    Only the true matches are ranked: match ``(i, j)`` sits at 0-based rank
    ``#{k : sims[i, k] > sims[i, j]} + #{k < j : sims[i, k] == sims[i, j]}``,
    its place under a stable sort of the row by descending similarity.
    """
    if not len(q_mat) or not len(g_mat):
        raise ValueError("queries and gallery must be non-empty")
    if max_rank < 1:
        raise ValueError(f"max_rank must be at least 1, got {max_rank}")
    q_ids, g_ids = np.asarray(q_ids), np.asarray(g_ids)
    n_query, n_gallery = len(q_mat), len(g_mat)
    # the gallery grouped by identity, each group in gallery order; query
    # i's true matches are by_id[lo[i]:lo[i] + counts[i]]
    by_id = np.argsort(g_ids, kind="stable")
    lo = np.searchsorted(g_ids[by_id], q_ids)
    counts = np.searchsorted(g_ids[by_id], q_ids, side="right") - lo
    if not counts.all():
        missing = sorted(set(q_ids[counts == 0].tolist()))
        raise ValueError(f"query identities absent from gallery: {missing}")
    max_rank = min(max_rank, n_gallery)

    # copies: _unit_rows scales in place
    sims = (_unit_rows(np.array(q_mat, dtype=np.float64), "query")
            @ _unit_rows(np.array(g_mat, dtype=np.float64), "gallery").T)
    starts = np.cumsum(counts) - counts
    rows = np.repeat(np.arange(n_query), counts)  # query by query
    cols = by_id[np.arange(len(rows)) + np.repeat(lo - starts, counts)]
    ranks = np.empty(len(rows), dtype=np.intp)
    g_index = np.arange(n_gallery)
    for a in range(0, len(rows), _ROW_BLOCK):  # (_ROW_BLOCK, n_gallery) temporaries
        r, c = rows[a:a + _ROW_BLOCK], cols[a:a + _ROW_BLOCK]
        block, s = sims[r], sims[r, c][:, None]
        ranks[a:a + _ROW_BLOCK] = (block > s).sum(axis=1) + (
            (block == s) & (g_index < c[:, None])).sum(axis=1)
    offset = rows * n_gallery
    ranks = np.sort(offset + ranks) - offset  # each query's matches in rank order
    cmc = np.cumsum(np.bincount(ranks[starts], minlength=max_rank)[:max_rank]) / n_query
    # the k-th match (from 0) in rank order is preceded by k matches
    precision = (np.arange(len(rows)) - np.repeat(starts, counts) + 1) / (ranks + 1)
    # average precisions grouped by match count: one (n_queries, count)
    # mean per count adds each query's values as a mean over them alone
    aps = np.empty(n_query)
    # not np.unique: on this input it imports numpy.ma, ~1 MB of peak RSS
    for count in sorted(set(counts.tolist())):
        same = np.flatnonzero(counts == count)
        aps[same] = np.mean(precision[starts[same, None] + np.arange(count)], axis=1)
    return RetrievalResult(
        direction="",
        cmc=cmc,
        mean_ap=float(np.mean(aps)),
        n_query=n_query,
        n_gallery=n_gallery,
    )


def evaluate_dataset(
    params: EncoderParams,
    dataset: Dataset,
    cfg: TrainConfig,
    max_rank: int = 20,
) -> dict[str, RetrievalResult]:
    """Both retrieval directions with labeled tracklet embeddings."""
    table = table_of_rows(dataset.frames, dataset.n_frames, cfg)
    return evaluate_embeddings(dataset, embed_table(params, table), max_rank)


def evaluate_embeddings(
    dataset: Manifest, vectors: np.ndarray, max_rank: int = 20
) -> dict[str, RetrievalResult]:
    """Both retrieval directions from one embedding per entry of a manifest
    or dataset, in entry order; a boolean mask over its VIS/IR column picks
    each side's rows of ``vectors``."""
    if not dataset.has_labels:
        raise ValueError("retrieval evaluation requires gt_identity on every tracklet")
    is_vis, identities = dataset.is_vis, dataset.gt_identity
    results = {}
    for direction, query in (("IR->VIS", ~is_vis), ("VIS->IR", is_vis)):
        res = retrieval_metrics(vectors[query], identities[query], vectors[~query],
                                identities[~query], max_rank)
        res.direction = direction
        results[direction] = res
    return results


def distance_distribution(vectors, identities) -> dict:
    """Exact histograms of the cosine distances (1 - cos) of every
    intra-class and every inter-class pair i < j.

    ``vectors`` is one embedding per row, ``identities`` their labels. Both
    histograms use ``N_BINS`` fixed bins over [0, 2]; distances are clipped
    to [0, 2] first, so one that rounds below 0 (identical vectors) still
    counts, and each histogram sums to its pair count. The pairs are visited
    in row blocks of the upper triangle of the Gram matrix: a block holds
    its ``(_ROW_BLOCK, n)`` distances, two masks and the gathered pairs, and
    only the gathered pairs are left when they are binned and summed.
    """
    ids = np.asarray(identities)
    n = len(ids)
    counts = np.unique(ids, return_counts=True)[1]
    n_positive = int((counts * (counts - 1) // 2).sum())
    n_negative = n * (n - 1) // 2 - n_positive
    if not n_positive or not n_negative:
        raise ValueError("need at least one intra-class and one inter-class pair")

    mat = _unit_rows(np.array(vectors, dtype=np.float64), "embedding")
    hists = np.zeros((2, N_BINS), dtype=np.int64)  # positive, negative
    sums = [0.0, 0.0]
    for a in range(0, n - 1, _ROW_BLOCK):
        b = min(a + _ROW_BLOCK, n)
        dist = mat[a:b] @ mat[a:].T  # entry (r, c) is pair (a + r, a + c)
        np.subtract(1.0, dist, out=dist)
        np.clip(dist, 0.0, 2.0, out=dist)
        upper = np.arange(a, n) > np.arange(a, b)[:, None]
        same = ids[a:b, None] == ids[a:]
        same &= upper  # the positive pairs
        upper ^= same  # the negative pairs
        pairs = (dist[same], dist[upper])
        del dist, same, upper
        for k, picked in enumerate(pairs):
            hists[k] += np.histogram(picked, bins=N_BINS, range=(0.0, 2.0))[0]
            sums[k] += float(picked.sum())
        del pairs, picked  # before the next block's product
    return {
        "bin_edges": np.linspace(0.0, 2.0, N_BINS + 1),
        "positive_hist": hists[0],
        "negative_hist": hists[1],
        "n_positive_pairs": n_positive,
        "n_negative_pairs": n_negative,
        "positive_mean_distance": sums[0] / n_positive,
        "negative_mean_distance": sums[1] / n_negative,
    }


def mining_quality(
    report: MiningReport, gt: dict[str, int]
) -> tuple[Optional[float], float]:
    """Precision of accepted pairs and recall against the true per-camera-best
    candidates. Precision is None when nothing was accepted; recall is 0 when
    no true candidate exists. A source or target without a label in ``gt``
    raises :class:`DatasetError`."""
    try:
        src = np.array([gt[s] for s in report.sources])
        true = np.array([gt[t] for t in report.targets.ravel()]).reshape(report.targets.shape)
    except KeyError as exc:
        raise DatasetError(f"no ground-truth identity for tracklet {exc.args[0]!r}") from None
    true = true == src[:, None]  # accepted targets are distinct candidates
    n_accepted = int(report.accepted.sum())
    n_true_accepted = int((true & report.accepted).sum())
    n_true_candidates = int(true.sum())
    precision = n_true_accepted / n_accepted if n_accepted else None
    recall = n_true_accepted / n_true_candidates if n_true_candidates else 0.0
    return precision, recall
