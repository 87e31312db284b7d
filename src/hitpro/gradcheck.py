"""Central finite-difference verification of the hand-derived backward pass."""

from __future__ import annotations

import time

import numpy as np

from .encoder import EncoderParams, encode, encode_backward, encoder_init

# central-difference step, the toy encoder shape, and the TTE depths it is checked at
STEP = 1e-4
D_IN, EMBED_DIM, FFN_DIM, POOL_HIDDEN_DIM, SEQ_LEN = 4, 8, 16, 8, 3
DEPTHS = (0, 1, 2)


def _probe_value(params: EncoderParams, frames: np.ndarray, g: np.ndarray) -> float:
    embedding, _ = encode(params, frames)
    return float(np.vdot(g, embedding))


def finite_difference_grads(
    params: EncoderParams, frames: np.ndarray, g: np.ndarray
) -> EncoderParams:
    """Numeric gradient of ``g . encode(params, frames)`` per parameter; for a
    stack of N frame matrices, of the sum over the N samples.

    Perturbs each scalar in place by +-``STEP`` (restoring it afterwards) and
    accumulates centered differences in float64.
    """
    grads = params.zeros_like()
    flat = params.flat
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + STEP
        plus = _probe_value(params, frames, g)
        flat[i] = orig - STEP
        minus = _probe_value(params, frames, g)
        flat[i] = orig
        grads.flat[i] = (plus - minus) / (2.0 * STEP)
    return grads


def max_relative_error(analytic: EncoderParams, numeric: EncoderParams) -> float:
    worst = 0.0
    for (_, a), (_, n) in zip(analytic.named_arrays(), numeric.named_arrays()):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)) if a.size else 0.0)
    return worst


def run_gradcheck(seed: int = 7) -> dict:
    """Check every parameter gradient of the toy encoder at each of ``DEPTHS``.

    Returns per-depth max relative errors plus the overall worst case and
    wall time.
    """
    t0 = time.perf_counter()
    per_depth = {}
    for n_layers in DEPTHS:
        params = encoder_init(D_IN, EMBED_DIM, FFN_DIM, POOL_HIDDEN_DIM, n_layers, SEQ_LEN,
                              seed=seed + n_layers)
        rng = np.random.default_rng(seed * 1000 + n_layers)
        frames = rng.normal(size=(SEQ_LEN, D_IN))
        g = rng.normal(size=EMBED_DIM)
        _, cache = encode(params, frames)
        analytic = encode_backward(params, cache, g)
        numeric = finite_difference_grads(params, frames, g)
        per_depth[n_layers] = max_relative_error(analytic, numeric)
    return {
        "per_depth": per_depth,
        "max_rel_error": max(per_depth.values()),
        "elapsed_s": time.perf_counter() - t0,
    }
