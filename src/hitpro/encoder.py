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

:func:`encode_table` is the forward-only path of prototype building and
test-time feature extraction: the same products in the same order, in
slices of ``ENCODE_CHUNK`` rows, keeping no cache.

A large backward call (at least ``HELPER_MIN_WORK`` of ``N * seq_len *
embed_dim * ffn_dim``, in a process allowed two or more cores) submits its
weight-matrix gradients to one helper thread, started on first use, while
the calling thread carries the input gradient down the layers. A table of
two or more slices that large hands the last half of its rows to the same
thread. The helper runs only functions the calling thread also runs, on the
same arrays (``_add_weight_grad`` for each weight gradient, ``_forward`` for
each slice), so it changes no bit of the result.

All arithmetic runs in float64 so analytic gradients can be checked against
central finite differences; parameters are serialized as float32.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .datamodel import TrainConfig, check_settings
from .numerics import row_norms, stable_softmax

LN_EPS = 1e-5
# Least work ``N * seq_len * embed_dim * ffn_dim`` of a backward call that
# hands its weight gradients to the helper thread: below it the hand-off
# costs more than the second core saves (measured on a 2-vCPU host).
HELPER_MIN_WORK = 2**20
# rows per forward call of encode_table: large enough that per-call overhead
# is small, small enough that one call's activations stay a few MB
ENCODE_CHUNK = 64


class NumericError(RuntimeError):
    """Non-finite activation, tagged with the pipeline stage that produced it."""

    def __init__(self, stage: str):
        super().__init__(f"non-finite values in encoder stage '{stage}'")
        self.stage = stage


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


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
        check_settings(TrainConfig, dict(d_in=d_in, embed_dim=embed_dim, ffn_dim=ffn_dim,
                                         pool_hidden_dim=pool_hidden_dim, seq_len=seq_len,
                                         n_tte_layers=n_tte_layers))
        self.d_in = d_in
        self.embed_dim = embed_dim
        self.ffn_dim = ffn_dim
        self.pool_hidden_dim = pool_hidden_dim
        self.seq_len = seq_len
        d, d_ff = embed_dim, ffn_dim
        # a TTE layer's tensors in flat (= checkpoint section) order; layers[i] views them
        layer_shapes = dict(
            wq=(d, d), wk=(d, d), wv=(d, d), wo=(d, d), wf1=(d, d_ff), wf2=(d_ff, d),
            ln1_gain=(d,), ln1_bias=(d,), ln2_gain=(d,), ln2_bias=(d,),
        )
        shapes = [("proj", (d_in, d)), ("pos", (seq_len, d))]
        for i in range(n_tte_layers):
            shapes += [(f"layers.{i}.{f}", shape) for f, shape in layer_shapes.items()]
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
            SimpleNamespace(**{f: views[f"layers.{i}.{f}"] for f in layer_shapes})
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

    Every dimension must lie within its :class:`TrainConfig` field's bounds.
    """
    params = EncoderParams(d_in, embed_dim, ffn_dim, pool_hidden_dim, seq_len, n_tte_layers)
    rng = np.random.default_rng(seed)
    # weight matrices draw in named_arrays order; zero start keeps a fresh
    # encoder permutation-symmetric over time (pos), and biases start at zero
    params.proj[...] = _xavier(rng, d_in, embed_dim, params.proj.shape)
    for layer in params.layers:
        for w in (layer.wq, layer.wk, layer.wv, layer.wo):
            w[...] = _xavier(rng, embed_dim, embed_dim, w.shape)
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
    f1a: np.ndarray  # ReLU of h1 @ wf1
    xhat2: np.ndarray
    inv_std2: np.ndarray


@dataclass
class ForwardCache:
    """Intermediate activations required for the exact backward pass, each
    stacked over the N samples of the forward call."""

    x: np.ndarray  # (N, seq_len, d_in)
    layer_caches: list[_LayerCache]
    h_last: np.ndarray
    za: np.ndarray  # ReLU of the pooling head's hidden layer
    alphas: np.ndarray  # (N, seq_len) frame weights
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


def _pool(params: EncoderParams, h: np.ndarray):
    """Attention pooling over time and L2 normalization of the last layer's
    ``(N, seq_len, embed_dim)`` output: ``(za, alphas, pooled_norm,
    embedding)``. Raises :class:`NumericError` at the last three stages."""
    za = h @ params.wa1 + params.ba1
    np.maximum(za, 0.0, out=za)
    alphas = stable_softmax(za @ params.wa2)
    _check_finite(alphas, "frame_weighting")
    pooled = (alphas[:, None, :] @ h)[:, 0]
    pooled_norm = row_norms(pooled)
    if np.any(pooled_norm == 0.0):
        raise NumericError("output_normalization")
    embedding = pooled / pooled_norm
    _check_finite(embedding, "embedding")
    return za, alphas, pooled_norm, embedding


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
        attn = stable_softmax((q @ _t(k)) * scale)
        u = attn @ v
        r1 = h_in + u @ layer.wo
        h1, xhat1, inv_std1 = _layer_norm(r1, layer.ln1_gain, layer.ln1_bias)
        f1a = h1 @ layer.wf1
        np.maximum(f1a, 0.0, out=f1a)
        r2 = h1 + f1a @ layer.wf2
        h, xhat2, inv_std2 = _layer_norm(r2, layer.ln2_gain, layer.ln2_bias)
        _check_finite(h, f"tte_layer_{i}")
        layer_caches.append(
            _LayerCache(
                h_in=h_in, q=q, k=k, v=v, attn=attn, u=u,
                xhat1=xhat1, inv_std1=inv_std1, h1=h1, f1a=f1a,
                xhat2=xhat2, inv_std2=inv_std2,
            )
        )

    za, alphas, pooled_norm, embedding = _pool(params, h)
    cache = ForwardCache(
        x=x, layer_caches=layer_caches, h_last=h, za=za, alphas=alphas,
        pooled_norm=pooled_norm, embedding=embedding, single=single,
    )
    return (embedding[0] if single else embedding), cache


def encode_table(params: EncoderParams, frames: np.ndarray) -> np.ndarray:
    """``(N, embed_dim)``: the embeddings :func:`encode` gives an ``(N,
    seq_len, d_in)`` stack, bit for bit, with no cache for a backward pass.

    The stack goes through in slices of ``ENCODE_CHUNK`` rows. When a slice's
    work ``ENCODE_CHUNK * seq_len * embed_dim * ffn_dim`` is at least
    ``HELPER_MIN_WORK``, the process may run on two or more cores and there
    are two slices or more, the helper thread encodes the last half of the
    rows while the caller encodes the first, each into its own rows of the
    result. A failure raises the first failing slice's error, in stack
    order, once no slice is running: the caller's come first.
    """
    x = np.asarray(frames, dtype=np.float64)
    if x.ndim != 3 or x.shape[1:] != (params.seq_len, params.d_in):
        raise ValueError(f"frames shape {np.shape(frames)} != "
                         f"(N, seq_len={params.seq_len}, d_in={params.d_in})")
    out = np.empty((len(x), params.embed_dim))

    def encode_rows(start: int) -> None:
        rows = slice(start, start + ENCODE_CHUNK)
        out[rows] = _forward(params, x[rows])

    starts = range(0, len(x), ENCODE_CHUNK)
    work = ENCODE_CHUNK * params.seq_len * params.embed_dim * params.ffn_dim
    helper = _grad_helper(work) if len(starts) >= 2 else None
    # the caller takes the whole slices nearest half the rows: half the
    # slices would give it 256 of 400 rows when the last slice is short
    split = len(starts) if helper is None else (len(x) + ENCODE_CHUNK) // (2 * ENCODE_CHUNK)
    futures = [helper.submit(encode_rows, start) for start in starts[split:]]
    try:
        for start in starts[:split]:
            encode_rows(start)
    finally:  # no slice may write into out after this returns or raises
        failures = [future.exception() for future in futures]
    _raise_first(failures)
    return out


def _forward(params: EncoderParams, x: np.ndarray) -> np.ndarray:
    """:func:`encode`'s products on a stack, in its order, keeping none
    beyond the next product that reads it: the ``(N, embed_dim)`` embeddings."""
    scale = 1.0 / math.sqrt(params.embed_dim)
    h = x @ params.proj + params.pos
    _check_finite(h, "projection")
    for i, layer in enumerate(params.layers):
        attn = stable_softmax((h @ layer.wq @ _t(h @ layer.wk)) * scale)
        r1 = h + attn @ (h @ layer.wv) @ layer.wo
        del h, attn
        h1 = _layer_norm(r1, layer.ln1_gain, layer.ln1_bias)[0]
        del r1
        f1 = h1 @ layer.wf1
        r2 = h1 + np.maximum(f1, 0.0, out=f1) @ layer.wf2
        del h1, f1
        h = _layer_norm(r2, layer.ln2_gain, layer.ln2_bias)[0]
        del r2
        _check_finite(h, f"tte_layer_{i}")
    return _pool(params, h)[-1]


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
        return grads
    futures = []
    try:
        _backward(params, cache, g, grads,
                  lambda *args: futures.append(helper.submit(_add_weight_grad, *args)))
    finally:  # no job may write into grads after this returns or raises
        failures = [future.exception() for future in futures]
    _raise_first(failures)
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
    dz = dza * (cache.za > 0.0)
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
        df1 = (dr2 @ layer.wf2.T) * (lc.f1a > 0.0)
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


def _raise_first(failures) -> None:
    """Raise the first exception of ``failures``, which holds None for none."""
    for failure in failures:
        if failure is not None:
            raise failure


_helper = None  # see _grad_helper
_helper_lock = threading.Lock()


def _forget_helper() -> None:
    """In a forked child: the parent's helper thread did not come along, and
    the child's copy of its executor would queue jobs that no thread serves,
    so the next large call starts a new one."""
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


def _grad_helper(work: int):
    """The helper, a one-thread ``concurrent.futures.ThreadPoolExecutor``
    started on first use, for a backward call or a table slice of ``work``
    when it gains from one; else None."""
    global _helper
    if work < HELPER_MIN_WORK or _cores() < 2:
        return None
    with _helper_lock:
        if _helper is None:
            # imported here, so that a process that never starts the helper
            # does not pay for it
            from concurrent.futures import ThreadPoolExecutor

            _helper = ThreadPoolExecutor(1, thread_name_prefix="hitpro-encoder-helper")
    return _helper
