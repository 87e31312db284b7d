"""Toy-scale temporal feature encoder with a hand-derived backward pass.

Pipeline: linear frame projection (+ learned additive position table),
``n_tte_layers`` post-norm transformer layers (single-head self-attention,
ReLU feed-forward, two layer norms), then attention pooling over time
(two-linear-layer ReLU score head + softmax) and L2 normalization.

:func:`encode` and :func:`encode_backward` run on a stack of N sub-tracklets
at once: every matmul is one stacked matmul over the N samples, and the
backward pass sums each parameter gradient over them. Each sample goes
through exactly the arithmetic of a one-sample call, and the sums over
samples run in stack order, so a stack gives bit for bit the embeddings and
summed gradients of a loop of single calls.

A large backward call (at least ``HELPER_MIN_WORK`` of ``N * seq_len *
embed_dim * ffn_dim``, in a process allowed two or more cores) queues its
weight-matrix gradients on one helper thread, started on first use, while
the calling thread carries the input gradient down the layers. The helper
runs the same products on the same arrays and sums them in the same order,
so it changes no bit of the result.

All arithmetic runs in float64 so analytic gradients can be checked against
central finite differences; parameters are serialized as float32.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .numerics import stable_softmax

LN_EPS = 1e-5
MAX_TTE_LAYERS = 2
_LAYER_FIELDS = (
    "wq", "wk", "wv", "wo", "wf1", "wf2", "ln1_gain", "ln1_bias", "ln2_gain", "ln2_bias",
)
# Least work ``N * seq_len * embed_dim * ffn_dim`` of a backward call that
# hands its weight gradients to the helper thread: below it the hand-off
# costs more than the second core saves (measured on a 2-vCPU host).
HELPER_MIN_WORK = 2**20
# samples per product the helper takes into its scratch buffer at once
_CHUNK = 8


class NumericError(RuntimeError):
    """Non-finite activation, tagged with the pipeline stage that produced it."""

    def __init__(self, stage: str):
        super().__init__(f"non-finite values in encoder stage '{stage}'")
        self.stage = stage


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


@dataclass
class TteLayerParams:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    wf1: np.ndarray
    wf2: np.ndarray
    ln1_gain: np.ndarray
    ln1_bias: np.ndarray
    ln2_gain: np.ndarray
    ln2_bias: np.ndarray


class EncoderParams:
    """All trainable tensors, as named views into one contiguous float64
    vector ``flat``; a new instance starts at zero.

    Views are written in place (``params.proj[...] = ...``, ``grads.wa1 +=
    ...``); whole-parameter arithmetic runs on ``flat``.
    """

    def __init__(
        self,
        d_in: int,
        embed_dim: int,
        ffn_dim: int,
        pool_hidden_dim: int,
        seq_len: int,
        n_tte_layers: int,
        flat: np.ndarray | None = None,
    ):
        if min(d_in, embed_dim, ffn_dim, pool_hidden_dim, seq_len) < 1:
            raise ValueError("all encoder dimensions must be >= 1")
        if not (0 <= n_tte_layers <= MAX_TTE_LAYERS):
            raise ValueError(f"n_tte_layers must be in [0, {MAX_TTE_LAYERS}]")
        self.d_in = d_in
        self.embed_dim = embed_dim
        self.ffn_dim = ffn_dim
        self.pool_hidden_dim = pool_hidden_dim
        self.seq_len = seq_len
        d, d_ff = embed_dim, ffn_dim
        layer_shapes = dict(
            wq=(d, d), wk=(d, d), wv=(d, d), wo=(d, d), wf1=(d, d_ff), wf2=(d_ff, d),
            ln1_gain=(d,), ln1_bias=(d,), ln2_gain=(d,), ln2_bias=(d,),
        )
        shapes = [("proj", (d_in, d)), ("pos", (seq_len, d))]
        for i in range(n_tte_layers):
            shapes += [(f"layers.{i}.{f}", layer_shapes[f]) for f in _LAYER_FIELDS]
        shapes += [("wa1", (d, pool_hidden_dim)), ("ba1", (pool_hidden_dim,)),
                   ("wa2", (pool_hidden_dim,))]
        size = sum(math.prod(shape) for _, shape in shapes)
        if flat is None:
            flat = np.zeros(size)
        elif flat.shape != (size,) or flat.dtype != np.float64:
            raise ValueError(f"flat buffer {flat.dtype}{flat.shape} != float64({size},)")
        self.flat = flat
        self._named: list[tuple[str, np.ndarray]] = []
        offset = 0
        for name, shape in shapes:
            n = math.prod(shape)
            self._named.append((name, flat[offset : offset + n].reshape(shape)))
            offset += n
        views = dict(self._named)
        self.proj = views["proj"]  # (d_in, embed_dim)
        self.pos = views["pos"]  # (seq_len, embed_dim)
        self.layers = [
            TteLayerParams(**{f: views[f"layers.{i}.{f}"] for f in _LAYER_FIELDS})
            for i in range(n_tte_layers)
        ]
        self.wa1 = views["wa1"]  # (embed_dim, pool_hidden_dim)
        self.ba1 = views["ba1"]  # (pool_hidden_dim,)
        self.wa2 = views["wa2"]  # (pool_hidden_dim,)

    @property
    def n_tte_layers(self) -> int:
        return len(self.layers)

    def dims(self) -> dict:
        return {
            "d_in": self.d_in,
            "embed_dim": self.embed_dim,
            "ffn_dim": self.ffn_dim,
            "pool_hidden_dim": self.pool_hidden_dim,
            "seq_len": self.seq_len,
            "n_tte_layers": self.n_tte_layers,
        }

    def named_arrays(self):
        """Deterministic (name, array) iteration over every parameter tensor,
        in ``flat`` order."""
        return iter(self._named)

    def n_parameters(self) -> int:
        return self.flat.size

    def zeros_like(self) -> "EncoderParams":
        return EncoderParams(**self.dims())

    def copy(self) -> "EncoderParams":
        return EncoderParams(**self.dims(), flat=self.flat.copy())

    def add_scaled(self, other: "EncoderParams", scale: float) -> None:
        """In-place ``self += scale * other`` over every tensor."""
        self.check_same_layout(other)
        self.flat += scale * other.flat

    def check_same_layout(self, other: "EncoderParams") -> None:
        if other.dims() != self.dims():
            raise ValueError(f"parameter layout mismatch: {other.dims()} vs {self.dims()}")

    @classmethod
    def from_named_arrays(cls, dims: dict, arrays: dict[str, np.ndarray]) -> "EncoderParams":
        params = cls(**dims)
        for name, arr in params.named_arrays():
            if name not in arrays:
                raise KeyError(f"missing encoder section {name!r}")
            src = arrays[name]
            if src.shape != arr.shape:
                raise ValueError(f"encoder section {name!r}: shape {src.shape} != {arr.shape}")
            arr[...] = src
        return params


def encoder_init(
    d_in: int,
    embed_dim: int,
    ffn_dim: int,
    pool_hidden_dim: int,
    n_tte_layers: int,
    seq_len: int,
    seed: int,
) -> EncoderParams:
    """Deterministic scaled-uniform init (weight matrices within
    +-sqrt(6/(fan_in+fan_out))); layer-norm gains start at 1, biases at 0.

    ``n_tte_layers`` is capped at 2 to keep the manual backward surface small.
    """
    params = EncoderParams(d_in, embed_dim, ffn_dim, pool_hidden_dim, seq_len, n_tte_layers)
    rng = np.random.default_rng(seed)
    # weight matrices draw in named_arrays order; zero start keeps a fresh
    # encoder permutation-symmetric over time (pos), and biases start at zero
    params.proj[...] = _xavier(rng, d_in, embed_dim, params.proj.shape)
    for layer in params.layers:
        for f in ("wq", "wk", "wv", "wo"):
            getattr(layer, f)[...] = _xavier(rng, embed_dim, embed_dim, (embed_dim, embed_dim))
        layer.wf1[...] = _xavier(rng, embed_dim, ffn_dim, layer.wf1.shape)
        layer.wf2[...] = _xavier(rng, ffn_dim, embed_dim, layer.wf2.shape)
        layer.ln1_gain[...] = 1.0
        layer.ln2_gain[...] = 1.0
    params.wa1[...] = _xavier(rng, embed_dim, pool_hidden_dim, params.wa1.shape)
    params.wa2[...] = _xavier(rng, pool_hidden_dim, 1, params.wa2.shape)
    return params


def select_frames(frames: np.ndarray, seq_len: int) -> np.ndarray:
    """Pick exactly ``seq_len`` frame rows from an (L, d_in) matrix.

    L >= seq_len: evenly spaced indices round(j*(L-1)/(seq_len-1)), half-up
    (index 0 when seq_len == 1). L < seq_len: cyclic repetition.
    """
    length = frames.shape[0]
    if length < 1:
        raise ValueError("empty frame matrix")
    if length >= seq_len:
        if seq_len == 1:
            idx = [0]
        else:
            idx = [int(j * (length - 1) / (seq_len - 1) + 0.5) for j in range(seq_len)]
    else:
        idx = [t % length for t in range(seq_len)]
    return frames[idx]


def _t(a: np.ndarray) -> np.ndarray:
    """Per-sample transpose of a stack of matrices."""
    return a.transpose(0, 2, 1)


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(N, k) x (N, k) -> (N, 1): per-sample dot products, each the same
    BLAS dot as ``a[n] @ b[n]``."""
    return (a[:, None, :] @ b[:, :, None])[:, 0]


def _mean_last(x: np.ndarray) -> np.ndarray:
    """``x.mean(axis=-1, keepdims=True)`` to the last bit, without its
    dispatch overhead."""
    return np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    mu = _mean_last(x)
    var = _mean_last((x - mu) ** 2)
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x - mu) * inv_std
    return gain * xhat + bias, xhat, inv_std


def _layer_norm_backward(dy, xhat, inv_std, gain):
    """Input gradient and the gain and bias gradients summed over time, then
    over samples."""
    dgain = (dy * xhat).sum(axis=1).sum(axis=0)
    dbias = dy.sum(axis=1).sum(axis=0)
    dxhat = dy * gain
    m1 = _mean_last(dxhat)
    m2 = _mean_last(dxhat * xhat)
    dx = inv_std * (dxhat - m1 - xhat * m2)
    return dx, dgain, dbias


@dataclass
class _LayerCache:
    h_in: np.ndarray
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    attn: np.ndarray  # row-softmax of scores
    u: np.ndarray  # attn @ v
    xhat1: np.ndarray
    inv_std1: np.ndarray
    h1: np.ndarray
    f1: np.ndarray  # pre-ReLU
    f1a: np.ndarray
    xhat2: np.ndarray
    inv_std2: np.ndarray


@dataclass
class ForwardCache:
    """Intermediate activations required for the exact backward pass, each
    stacked over the N samples of the forward call."""

    x: np.ndarray  # (N, seq_len, d_in)
    layer_caches: list[_LayerCache]
    h_last: np.ndarray
    z: np.ndarray  # pre-ReLU pooling scores
    za: np.ndarray
    alphas: np.ndarray  # (N, seq_len) frame weights
    pooled: np.ndarray
    pooled_norm: np.ndarray  # (N, 1)
    embedding: np.ndarray  # (N, embed_dim)
    single: bool  # the forward call took one (seq_len, d_in) matrix

    @property
    def alpha(self) -> np.ndarray:
        """Frame weights, shaped like the forward call's input: (seq_len,)
        for one matrix, (N, seq_len) for a stack."""
        return self.alphas[0] if self.single else self.alphas


def _check_finite(arr: np.ndarray, stage: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError(stage)


def encode(params: EncoderParams, frames: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Run the full pipeline on a (seq_len, d_in) frame matrix, or on a
    stack (N, seq_len, d_in) of them.

    Returns the unit-norm embedding, (embed_dim,) or (N, embed_dim), and the
    cache consumed by :func:`encode_backward`. A non-finite value in any
    sample raises :class:`NumericError` naming the stage.
    """
    x = np.asarray(frames, dtype=np.float64)
    single = x.ndim == 2
    if single:
        x = x[None]
    if x.ndim != 3 or x.shape[0] < 1 or x.shape[1:] != (params.seq_len, params.d_in):
        raise ValueError(f"frames shape {np.shape(frames)} != "
                         f"([N,] seq_len={params.seq_len}, d_in={params.d_in})")
    scale = 1.0 / math.sqrt(params.embed_dim)

    h = x @ params.proj + params.pos
    _check_finite(h, "projection")

    layer_caches: list[_LayerCache] = []
    for i, layer in enumerate(params.layers):
        h_in = h
        q = h_in @ layer.wq
        k = h_in @ layer.wk
        v = h_in @ layer.wv
        attn = stable_softmax((q @ _t(k)) * scale, axis=-1)
        u = attn @ v
        r1 = h_in + u @ layer.wo
        h1, xhat1, inv_std1 = _layer_norm(r1, layer.ln1_gain, layer.ln1_bias)
        f1 = h1 @ layer.wf1
        f1a = np.maximum(f1, 0.0)
        r2 = h1 + f1a @ layer.wf2
        h, xhat2, inv_std2 = _layer_norm(r2, layer.ln2_gain, layer.ln2_bias)
        _check_finite(h, f"tte_layer_{i}")
        layer_caches.append(
            _LayerCache(
                h_in=h_in, q=q, k=k, v=v, attn=attn, u=u,
                xhat1=xhat1, inv_std1=inv_std1, h1=h1, f1=f1, f1a=f1a,
                xhat2=xhat2, inv_std2=inv_std2,
            )
        )

    z = h @ params.wa1 + params.ba1
    za = np.maximum(z, 0.0)
    alphas = stable_softmax(za @ params.wa2)
    _check_finite(alphas, "frame_weighting")
    pooled = (alphas[:, None, :] @ h)[:, 0]
    # sqrt of the same dot np.linalg.norm takes of one vector
    pooled_norm = np.sqrt(_dot_rows(pooled, pooled))
    if np.any(pooled_norm == 0.0):
        raise NumericError("output_normalization")
    embedding = pooled / pooled_norm
    _check_finite(embedding, "embedding")

    cache = ForwardCache(
        x=x, layer_caches=layer_caches, h_last=h, z=z, za=za, alphas=alphas,
        pooled=pooled, pooled_norm=pooled_norm, embedding=embedding, single=single,
    )
    return (embedding[0] if single else embedding), cache


def encode_backward(
    params: EncoderParams,
    cache: ForwardCache,
    grad_embedding: np.ndarray,
    out: EncoderParams | None = None,
) -> EncoderParams:
    """Exact gradient of ``sum_n grad_embedding[n] . embedding[n]`` for every
    parameter; ``grad_embedding`` has the shape of the forward call's
    embedding output.

    The cache must come from a matching forward pass; inputs are constants.
    Each parameter gradient is taken per sample, then summed over the samples
    in stack order (``.sum(axis=0)`` adds the rows one after another).
    The gradients are added into ``out`` when given, which must be zero and
    laid out like ``params``, and returned; otherwise into a new instance.

    A call of at least ``HELPER_MIN_WORK`` work on a host with two or more
    cores hands its weight-matrix gradients to the helper thread and waits
    for them before it returns or raises.
    """
    if len(cache.layer_caches) != params.n_tte_layers:
        raise ValueError("forward cache does not match params (layer count)")
    g = np.asarray(grad_embedding, dtype=np.float64)
    if cache.single:
        g = g[None]
    if g.shape != cache.embedding.shape:
        expected = cache.embedding.shape[1:] if cache.single else cache.embedding.shape
        raise ValueError(f"grad_embedding shape {np.shape(grad_embedding)} != {expected}")
    if out is None:
        grads = params.zeros_like()
    else:
        params.check_same_layout(out)
        grads = out
    helper = _grad_helper(len(g) * params.seq_len * params.embed_dim * params.ffn_dim)
    if helper is None:
        _backward(params, cache, g, grads, _add_weight_grad)
    else:
        helper.run(lambda add_weight_grad: _backward(params, cache, g, grads, add_weight_grad))
    return grads


def _add_weight_grad(target: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """``target += sum_n a[n].T @ b[n]``, summed over samples in stack order."""
    target += (_t(a) @ b).sum(axis=0)


def _backward(params, cache, g, grads, add_weight_grad) -> None:
    """The backward pass of :func:`encode_backward`; every weight-matrix
    gradient goes through ``add_weight_grad(target, a, b)``, which adds
    ``sum_n a[n].T @ b[n]`` into ``target``. Nothing reads those gradients
    here, and ``a`` and ``b`` are not written after they are passed."""
    scale = 1.0 / math.sqrt(params.embed_dim)

    e = cache.embedding
    gf = (g - e * _dot_rows(g, e)) / cache.pooled_norm

    # pooled = alpha @ h_last
    h_last = cache.h_last
    alphas = cache.alphas
    dalpha = (h_last @ gf[:, :, None])[:, :, 0]
    dh = alphas[:, :, None] * gf[:, None, :]
    ds = alphas * (dalpha - _dot_rows(dalpha, alphas))
    grads.wa2 += (_t(cache.za) @ ds[:, :, None])[:, :, 0].sum(axis=0)
    dza = ds[:, :, None] * params.wa2
    dz = dza * (cache.z > 0.0)
    add_weight_grad(grads.wa1, h_last, dz)
    grads.ba1 += dz.sum(axis=1).sum(axis=0)
    dh = dh + dz @ params.wa1.T

    for layer, lc, glayer in zip(
        reversed(params.layers), reversed(cache.layer_caches), reversed(grads.layers)
    ):
        dr2, dg2, db2 = _layer_norm_backward(dh, lc.xhat2, lc.inv_std2, layer.ln2_gain)
        glayer.ln2_gain += dg2
        glayer.ln2_bias += db2
        add_weight_grad(glayer.wf2, lc.f1a, dr2)
        df1 = (dr2 @ layer.wf2.T) * (lc.f1 > 0.0)
        add_weight_grad(glayer.wf1, lc.h1, df1)
        dh1 = dr2 + df1 @ layer.wf1.T
        dr1, dg1, db1 = _layer_norm_backward(dh1, lc.xhat1, lc.inv_std1, layer.ln1_gain)
        glayer.ln1_gain += dg1
        glayer.ln1_bias += db1
        add_weight_grad(glayer.wo, lc.u, dr1)
        du = dr1 @ layer.wo.T
        dattn = du @ _t(lc.v)
        dv = _t(lc.attn) @ du
        dscores = lc.attn * (dattn - (dattn * lc.attn).sum(axis=-1, keepdims=True))
        dq = (dscores @ lc.k) * scale
        dk = (_t(dscores) @ lc.q) * scale
        add_weight_grad(glayer.wq, lc.h_in, dq)
        add_weight_grad(glayer.wk, lc.h_in, dk)
        add_weight_grad(glayer.wv, lc.h_in, dv)
        dh = dr1 + (dq @ layer.wq.T + dk @ layer.wk.T + dv @ layer.wv.T)

    add_weight_grad(grads.proj, cache.x, dh)
    grads.pos += dh.sum(axis=0)


class _GradHelper:
    """One daemon thread that runs :func:`_add_weight_grad` jobs for
    :meth:`run`.

    It takes the per-sample products ``_CHUNK`` samples at a time into one
    scratch buffer it owns and reuses, behind a carry row that holds the
    running total, and adds each chunk into the total with one
    ``np.add.reduce`` over axis 0. That adds the rows one after another, so
    the total has the bits of ``.sum(axis=0)`` over all the products. (numpy
    sums a column of one-element rows pairwise instead, but every weight
    matrix has ``embed_dim`` as one side, and at ``embed_dim == 1`` every
    gradient is zero.)
    """

    def __init__(self):
        # imported here, so that a process that never starts the helper
        # does not pay for it
        from queue import SimpleQueue

        self._new_queue = SimpleQueue
        self._jobs = SimpleQueue()
        self._scratch = np.empty(0)
        threading.Thread(target=self._serve, name="hitpro-encoder-grads", daemon=True).start()

    def run(self, body) -> None:
        """Call ``body(add_weight_grad)``, whose calls queue jobs for the
        thread, then wait for every queued job, so that none writes into its
        target after this returns or raises; re-raise the first job failure."""
        replies = self._new_queue()
        queued = 0

        def add_weight_grad(target: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
            nonlocal queued
            self._jobs.put((target, a, b, replies))
            queued += 1

        try:
            body(add_weight_grad)
        finally:
            failures = [replies.get() for _ in range(queued)]
        for failure in failures:
            if failure is not None:
                raise failure

    def _serve(self) -> None:
        while True:
            target, a, b, replies = self._jobs.get()
            try:
                self._add(target, a, b)
            except Exception as exc:  # noqa: BLE001 - re-raised in the caller
                replies.put(exc)
            else:
                replies.put(None)

    def _add(self, target: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
        d, k = target.shape
        size = d * k
        if self._scratch.size < (_CHUNK + 2) * size:
            self._scratch = np.empty((_CHUNK + 2) * size)
        total = self._scratch[:size].reshape(d, k)
        rows = self._scratch[size : (_CHUNK + 2) * size].reshape(_CHUNK + 1, d, k)
        for start in range(0, len(a), _CHUNK):
            m = min(_CHUNK, len(a) - start)
            np.matmul(_t(a[start : start + m]), b[start : start + m], out=rows[1 : m + 1])
            if start:
                rows[0] = total
            np.add.reduce(rows[(0 if start else 1) : m + 1], axis=0, out=total)
        target += total


_helper: _GradHelper | None = None
_helper_lock = threading.Lock()


def _forget_helper() -> None:
    """In a forked child: the parent's helper thread did not come along, so
    the next large call starts a new one."""
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def _cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _grad_helper(work: int) -> _GradHelper | None:
    """The helper, started on first use, for a backward call of ``work``
    when it gains from one; else None."""
    global _helper
    if work < HELPER_MIN_WORK or _cores() < 2:
        return None
    with _helper_lock:
        if _helper is None:
            _helper = _GradHelper()
    return _helper
