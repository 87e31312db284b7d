"""Small shared numeric helpers (stable softmax and log-softmax, L2 normalization)."""

from __future__ import annotations

import numpy as np


def stable_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax with max-subtraction; finite for any finite input."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def softmax_and_log(x: np.ndarray, axis: int = -1) -> tuple[np.ndarray, np.ndarray]:
    """``(stable_softmax(x), log_softmax(x))``, bit for bit, sharing their
    steps; the ufunc reductions are the ones ``np.max`` and ``np.sum`` run."""
    shifted = x - np.maximum.reduce(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    total = np.add.reduce(e, axis=axis, keepdims=True)
    return e / total, shifted - np.log(total)


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """Normalize a vector to unit L2 norm. Raises on zero norm."""
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return v / n
