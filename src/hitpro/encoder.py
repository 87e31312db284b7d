"""Toy-scale temporal feature encoder with a hand-derived backward pass.

Pipeline: linear frame projection (+ learned additive position table),
``n_tte_layers`` post-norm transformer layers (single-head self-attention,
ReLU feed-forward, two layer norms), then attention pooling over time
(two-linear-layer ReLU score head + softmax) and L2 normalization.

All arithmetic runs in float64 so analytic gradients can be checked against
central finite differences; parameters are serialized as float32.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import stable_softmax

LN_EPS = 1e-5
MAX_TTE_LAYERS = 2


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


@dataclass
class EncoderParams:
    """All trainable tensors; a plain container of float64 arrays."""

    d_in: int
    embed_dim: int
    ffn_dim: int
    pool_hidden_dim: int
    seq_len: int
    proj: np.ndarray  # (d_in, embed_dim)
    pos: np.ndarray  # (seq_len, embed_dim)
    layers: list[TteLayerParams]
    wa1: np.ndarray  # (embed_dim, pool_hidden_dim)
    ba1: np.ndarray  # (pool_hidden_dim,)
    wa2: np.ndarray  # (pool_hidden_dim,)

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
        """Deterministic (name, array) iteration over every parameter tensor."""
        yield "proj", self.proj
        yield "pos", self.pos
        for i, layer in enumerate(self.layers):
            for field in (
                "wq", "wk", "wv", "wo", "wf1", "wf2",
                "ln1_gain", "ln1_bias", "ln2_gain", "ln2_bias",
            ):
                yield f"layers.{i}.{field}", getattr(layer, field)
        yield "wa1", self.wa1
        yield "ba1", self.ba1
        yield "wa2", self.wa2

    def n_parameters(self) -> int:
        return sum(arr.size for _, arr in self.named_arrays())

    def zeros_like(self) -> "EncoderParams":
        return EncoderParams(
            d_in=self.d_in,
            embed_dim=self.embed_dim,
            ffn_dim=self.ffn_dim,
            pool_hidden_dim=self.pool_hidden_dim,
            seq_len=self.seq_len,
            proj=np.zeros_like(self.proj),
            pos=np.zeros_like(self.pos),
            layers=[
                TteLayerParams(**{
                    f: np.zeros_like(getattr(layer, f))
                    for f in (
                        "wq", "wk", "wv", "wo", "wf1", "wf2",
                        "ln1_gain", "ln1_bias", "ln2_gain", "ln2_bias",
                    )
                })
                for layer in self.layers
            ],
            wa1=np.zeros_like(self.wa1),
            ba1=np.zeros_like(self.ba1),
            wa2=np.zeros_like(self.wa2),
        )

    def copy(self) -> "EncoderParams":
        out = self.zeros_like()
        for (_, dst), (_, src) in zip(out.named_arrays(), self.named_arrays()):
            dst += src
        return out

    def add_scaled(self, other: "EncoderParams", scale: float) -> None:
        """In-place ``self += scale * other`` over every tensor."""
        for (_, dst), (_, src) in zip(self.named_arrays(), other.named_arrays()):
            dst += scale * src

    @classmethod
    def from_named_arrays(cls, dims: dict, arrays: dict[str, np.ndarray]) -> "EncoderParams":
        params = encoder_init(
            d_in=dims["d_in"],
            embed_dim=dims["embed_dim"],
            ffn_dim=dims["ffn_dim"],
            pool_hidden_dim=dims["pool_hidden_dim"],
            n_tte_layers=dims["n_tte_layers"],
            seq_len=dims["seq_len"],
            seed=0,
        )
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
    if min(d_in, embed_dim, ffn_dim, pool_hidden_dim, seq_len) < 1:
        raise ValueError("all encoder dimensions must be >= 1")
    if not (0 <= n_tte_layers <= MAX_TTE_LAYERS):
        raise ValueError(f"n_tte_layers must be in [0, {MAX_TTE_LAYERS}]")
    rng = np.random.default_rng(seed)
    proj = _xavier(rng, d_in, embed_dim, (d_in, embed_dim))
    # zero start keeps a fresh encoder permutation-symmetric over time
    pos = np.zeros((seq_len, embed_dim))
    layers = []
    for _ in range(n_tte_layers):
        layers.append(
            TteLayerParams(
                wq=_xavier(rng, embed_dim, embed_dim, (embed_dim, embed_dim)),
                wk=_xavier(rng, embed_dim, embed_dim, (embed_dim, embed_dim)),
                wv=_xavier(rng, embed_dim, embed_dim, (embed_dim, embed_dim)),
                wo=_xavier(rng, embed_dim, embed_dim, (embed_dim, embed_dim)),
                wf1=_xavier(rng, embed_dim, ffn_dim, (embed_dim, ffn_dim)),
                wf2=_xavier(rng, ffn_dim, embed_dim, (ffn_dim, embed_dim)),
                ln1_gain=np.ones(embed_dim),
                ln1_bias=np.zeros(embed_dim),
                ln2_gain=np.ones(embed_dim),
                ln2_bias=np.zeros(embed_dim),
            )
        )
    wa1 = _xavier(rng, embed_dim, pool_hidden_dim, (embed_dim, pool_hidden_dim))
    ba1 = np.zeros(pool_hidden_dim)
    wa2 = _xavier(rng, pool_hidden_dim, 1, (pool_hidden_dim,))
    return EncoderParams(
        d_in=d_in,
        embed_dim=embed_dim,
        ffn_dim=ffn_dim,
        pool_hidden_dim=pool_hidden_dim,
        seq_len=seq_len,
        proj=proj,
        pos=pos,
        layers=layers,
        wa1=wa1,
        ba1=ba1,
        wa2=wa2,
    )


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


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x - mu) * inv_std
    return gain * xhat + bias, xhat, inv_std


def _layer_norm_backward(dy, xhat, inv_std, gain):
    dgain = (dy * xhat).sum(axis=0)
    dbias = dy.sum(axis=0)
    dxhat = dy * gain
    m1 = dxhat.mean(axis=1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
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
    """Intermediate activations required for the exact backward pass."""

    x: np.ndarray
    layer_caches: list[_LayerCache]
    h_last: np.ndarray
    z: np.ndarray  # pre-ReLU pooling scores
    za: np.ndarray
    alpha: np.ndarray
    pooled: np.ndarray
    pooled_norm: float
    embedding: np.ndarray


def _check_finite(arr: np.ndarray, stage: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError(stage)


def encode(params: EncoderParams, frames: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Run the full pipeline on a (seq_len, d_in) frame matrix.

    Returns the unit-norm embedding and the cache consumed by
    :func:`encode_backward`.
    """
    if frames.shape != (params.seq_len, params.d_in):
        raise ValueError(
            f"frames shape {frames.shape} != (seq_len={params.seq_len}, d_in={params.d_in})"
        )
    x = np.asarray(frames, dtype=np.float64)
    scale = 1.0 / math.sqrt(params.embed_dim)

    h = x @ params.proj + params.pos
    _check_finite(h, "projection")

    layer_caches: list[_LayerCache] = []
    for i, layer in enumerate(params.layers):
        h_in = h
        q = h_in @ layer.wq
        k = h_in @ layer.wk
        v = h_in @ layer.wv
        attn = stable_softmax((q @ k.T) * scale, axis=1)
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
    alpha = stable_softmax(za @ params.wa2)
    _check_finite(alpha, "frame_weighting")
    pooled = alpha @ h
    pooled_norm = float(np.linalg.norm(pooled))
    if pooled_norm == 0.0:
        raise NumericError("output_normalization")
    embedding = pooled / pooled_norm
    _check_finite(embedding, "embedding")

    cache = ForwardCache(
        x=x, layer_caches=layer_caches, h_last=h, z=z, za=za, alpha=alpha,
        pooled=pooled, pooled_norm=pooled_norm, embedding=embedding,
    )
    return embedding, cache


def encode_backward(
    params: EncoderParams, cache: ForwardCache, grad_embedding: np.ndarray
) -> EncoderParams:
    """Exact gradient of ``grad_embedding . embedding`` for every parameter.

    The cache must come from a matching forward pass; inputs are constants.
    """
    if len(cache.layer_caches) != params.n_tte_layers:
        raise ValueError("forward cache does not match params (layer count)")
    g = np.asarray(grad_embedding, dtype=np.float64)
    if g.shape != (params.embed_dim,):
        raise ValueError(f"grad_embedding shape {g.shape} != ({params.embed_dim},)")
    grads = params.zeros_like()
    scale = 1.0 / math.sqrt(params.embed_dim)

    e = cache.embedding
    gf = (g - e * (g @ e)) / cache.pooled_norm

    # pooled = alpha @ h_last
    h_last = cache.h_last
    dalpha = h_last @ gf
    dh = np.outer(cache.alpha, gf)
    ds = cache.alpha * (dalpha - float(dalpha @ cache.alpha))
    grads.wa2 += cache.za.T @ ds
    dza = np.outer(ds, params.wa2)
    dz = dza * (cache.z > 0.0)
    grads.wa1 += h_last.T @ dz
    grads.ba1 += dz.sum(axis=0)
    dh += dz @ params.wa1.T

    for layer, lc, glayer in zip(
        reversed(params.layers), reversed(cache.layer_caches), reversed(grads.layers)
    ):
        dr2, dg2, db2 = _layer_norm_backward(dh, lc.xhat2, lc.inv_std2, layer.ln2_gain)
        glayer.ln2_gain += dg2
        glayer.ln2_bias += db2
        dh1 = dr2.copy()
        glayer.wf2 += lc.f1a.T @ dr2
        df1 = (dr2 @ layer.wf2.T) * (lc.f1 > 0.0)
        glayer.wf1 += lc.h1.T @ df1
        dh1 += df1 @ layer.wf1.T
        dr1, dg1, db1 = _layer_norm_backward(dh1, lc.xhat1, lc.inv_std1, layer.ln1_gain)
        glayer.ln1_gain += dg1
        glayer.ln1_bias += db1
        dh_in = dr1.copy()
        glayer.wo += lc.u.T @ dr1
        du = dr1 @ layer.wo.T
        dattn = du @ lc.v.T
        dv = lc.attn.T @ du
        dscores = lc.attn * (dattn - (dattn * lc.attn).sum(axis=1, keepdims=True))
        dq = (dscores @ lc.k) * scale
        dk = (dscores.T @ lc.q) * scale
        glayer.wq += lc.h_in.T @ dq
        glayer.wk += lc.h_in.T @ dk
        glayer.wv += lc.h_in.T @ dv
        dh_in += dq @ layer.wq.T + dk @ layer.wk.T + dv @ layer.wv.T
        dh = dh_in

    grads.proj += cache.x.T @ dh
    grads.pos += dh
    return grads
