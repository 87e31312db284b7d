"""Small shared numeric helpers (last-axis softmax and log-softmax, row norms, L2 norm)."""

from __future__ import annotations

import numpy as np


def stable_softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis with max-subtraction; finite for any finite input."""
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def log_softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - np.max(x, axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def softmax_and_log(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(stable_softmax(x), log_softmax(x))``, bit for bit, sharing their
    steps; the ufunc reductions are the ones ``np.max`` and ``np.sum`` run."""
    shifted = x - np.maximum.reduce(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = np.add.reduce(e, axis=-1, keepdims=True)
    return e / total, shifted - np.log(total)


def row_norms(v: np.ndarray) -> np.ndarray:
    """``(n, 1)``: the L2 norm of each row of an ``(n, d)`` matrix, each the
    sqrt of the same dot ``np.linalg.norm`` takes of that row alone."""
    return np.sqrt(v[:, None, :] @ v[:, :, None])[:, 0]


def normalize_rows(v: np.ndarray) -> np.ndarray:
    """Each row of an ``(n, d)`` matrix over its :func:`row_norms`; raises on a zero row."""
    norms = row_norms(v)
    if not norms.all():
        raise ValueError("cannot normalize a zero vector")
    return v / norms


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """Normalize a vector to unit L2 norm. Raises on zero norm."""
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return v / n
