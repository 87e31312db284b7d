import math
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import hitpro.encoder as encoder_mod
from hitpro.encoder import (
    NumericError,
    encode,
    encode_backward,
    encoder_init,
    select_frames,
)
from hitpro.gradcheck import finite_difference_grads, max_relative_error, run_gradcheck

from oracles import straightline_encode


def small_params(n_tte_layers=1, seed=3, seq_len=3):
    return encoder_init(
        d_in=4, embed_dim=8, ffn_dim=16, pool_hidden_dim=8,
        n_tte_layers=n_tte_layers, seq_len=seq_len, seed=seed,
    )


def test_init_deterministic():
    a = small_params(seed=11)
    b = small_params(seed=11)
    for (name_a, arr_a), (_, arr_b) in zip(a.named_arrays(), b.named_arrays()):
        np.testing.assert_array_equal(arr_a, arr_b, err_msg=name_a)
    c = small_params(seed=12)
    assert any(
        not np.array_equal(x, y)
        for (_, x), (_, y) in zip(a.named_arrays(), c.named_arrays())
    )


def test_init_ranges():
    p = small_params(n_tte_layers=2)
    bounds = {
        "proj": (4, 8), "wa1": (8, 8), "wa2": (8, 1),
        "wq": (8, 8), "wk": (8, 8), "wv": (8, 8), "wo": (8, 8),
        "wf1": (8, 16), "wf2": (16, 8),
    }
    for name, arr in p.named_arrays():
        leaf = name.split(".")[-1]
        if leaf in bounds:
            fan_in, fan_out = bounds[leaf]
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(arr) <= limit), name
        elif leaf.endswith("gain"):
            np.testing.assert_array_equal(arr, np.ones_like(arr))
        elif leaf.endswith("bias") or leaf in ("ba1", "pos"):
            np.testing.assert_array_equal(arr, np.zeros_like(arr))


def test_param_count_two_layers():
    d_in, d, d_ff, d_h, seq_len = 4, 8, 16, 8, 3
    p = encoder_init(d_in, d, d_ff, d_h, n_tte_layers=2, seq_len=seq_len, seed=0)
    # shape sum evaluated independently of named_arrays iteration
    per_layer = 4 * d * d + d * d_ff + d_ff * d + 4 * d
    expected = d_in * d + seq_len * d + 2 * per_layer + d * d_h + d_h + d_h
    assert p.n_parameters() == expected


def test_layer_cap_rejected():
    with pytest.raises(ValueError):
        encoder_init(4, 8, 16, 8, n_tte_layers=3, seq_len=3, seed=0)


def test_select_frames_identity():
    frames = np.arange(6 * 2, dtype=float).reshape(6, 2)
    np.testing.assert_array_equal(select_frames(frames, 6), frames)


def test_select_frames_cyclic():
    frames = np.arange(3 * 2, dtype=float).reshape(3, 2)
    out = select_frames(frames, 6)
    np.testing.assert_array_equal(out, frames[[0, 1, 2, 0, 1, 2]])


def test_select_frames_spacing():
    # expected indices from evaluating round(j*(L-1)/(S-1)) by hand
    frames = np.arange(11 * 2, dtype=float).reshape(11, 2)
    out = select_frames(frames, 6)
    np.testing.assert_array_equal(out, frames[[0, 2, 4, 6, 8, 10]])


def test_select_frames_single():
    frames = np.arange(5 * 2, dtype=float).reshape(5, 2)
    np.testing.assert_array_equal(select_frames(frames, 1), frames[[0]])


def test_identical_frames_uniform_alpha():
    p = small_params(n_tte_layers=1, seq_len=3)
    frames = np.tile(np.array([0.3, -1.2, 0.5, 2.0]), (3, 1))
    _, cache = encode(p, frames)
    np.testing.assert_array_equal(cache.alpha, np.full(3, 1.0 / 3.0))


def test_seq_len_one():
    p = encoder_init(4, 8, 16, 8, n_tte_layers=1, seq_len=1, seed=5)
    frames = np.array([[0.1, 0.2, -0.3, 0.4]])
    emb, cache = encode(p, frames)
    assert cache.alpha[0] == 1.0
    assert abs(np.linalg.norm(emb) - 1.0) < 1e-12


def test_forward_matches_straightline_oracle():
    p = small_params(n_tte_layers=1, seed=9)
    rng = np.random.default_rng(21)
    frames = rng.normal(size=(3, 4))
    emb, _ = encode(p, frames)
    oracle = straightline_encode(p, frames)
    np.testing.assert_allclose(emb, oracle, rtol=0, atol=1e-10)


def test_forward_oracle_no_layers():
    p = small_params(n_tte_layers=0, seed=17)
    rng = np.random.default_rng(4)
    frames = rng.normal(size=(3, 4))
    emb, _ = encode(p, frames)
    np.testing.assert_allclose(emb, straightline_encode(p, frames), rtol=0, atol=1e-10)


def test_permuting_identical_frames_invariant():
    p = small_params(n_tte_layers=2, seed=2)
    rng = np.random.default_rng(8)
    frames = rng.normal(size=(3, 4))
    frames[2] = frames[0]
    emb_a, _ = encode(p, frames)
    emb_b, _ = encode(p, frames[[2, 1, 0]])
    np.testing.assert_array_equal(emb_a, emb_b)


def test_nonfinite_input_names_stage():
    p = small_params()
    frames = np.zeros((3, 4))
    frames[1, 2] = np.inf
    with pytest.raises(NumericError) as err:
        encode(p, frames)
    assert err.value.stage == "projection"


def test_backward_zero_grad():
    p = small_params(n_tte_layers=2)
    _, cache = encode(p, np.random.default_rng(0).normal(size=(3, 4)))
    grads = encode_backward(p, cache, np.zeros(8))
    for name, arr in grads.named_arrays():
        np.testing.assert_array_equal(arr, np.zeros_like(arr), err_msg=name)


def test_backward_linear_in_grad():
    p = small_params(n_tte_layers=1)
    rng = np.random.default_rng(13)
    _, cache = encode(p, rng.normal(size=(3, 4)))
    g = rng.normal(size=8)
    g1 = encode_backward(p, cache, g)
    g2 = encode_backward(p, cache, 2.0 * g)
    for (name, a), (_, b) in zip(g1.named_arrays(), g2.named_arrays()):
        np.testing.assert_allclose(2.0 * a, b, rtol=0, atol=1e-14, err_msg=name)


@pytest.mark.parametrize("n_layers", [0, 1, 2])
def test_gradients_match_finite_differences(n_layers):
    p = small_params(n_tte_layers=n_layers, seed=7 + n_layers)
    rng = np.random.default_rng(100 + n_layers)
    frames = rng.normal(size=(3, 4))
    g = rng.normal(size=8)
    _, cache = encode(p, frames)
    analytic = encode_backward(p, cache, g)
    numeric = finite_difference_grads(p, frames, g)
    assert max_relative_error(analytic, numeric) < 1e-4


def test_run_gradcheck_smoke():
    report = run_gradcheck(seed=7)
    assert set(report["per_depth"]) == {0, 1, 2}
    assert report["max_rel_error"] < 1e-4


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_layers=st.integers(0, 2),
    seq_len=st.integers(1, 6),
)
def test_embedding_unit_norm_property(seed, n_layers, seq_len):
    p = encoder_init(4, 8, 16, 8, n_tte_layers=n_layers, seq_len=seq_len, seed=seed)
    frames = np.random.default_rng(seed).normal(size=(seq_len, 4))
    emb, cache = encode(p, frames)
    assert abs(np.linalg.norm(emb) - 1.0) < 1e-6
    assert abs(cache.alpha.sum() - 1.0) < 1e-9


def _loop_encode(p, frames, g):
    """Per-sample reference: one 2-D call each, gradients summed in order."""
    embs = []
    total = p.zeros_like()
    for sample, g_n in zip(frames, g):
        emb, cache = encode(p, sample)
        embs.append(emb)
        total.add_scaled(encode_backward(p, cache, g_n), 1.0)
    return np.stack(embs), total


@pytest.mark.parametrize("n_layers", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 5])
def test_batched_matches_per_sample_loop_bitwise(n_layers, n):
    p = small_params(n_tte_layers=n_layers, seed=30 + n_layers)
    rng = np.random.default_rng(40 + n)
    frames = rng.normal(size=(n, 3, 4))
    g = rng.normal(size=(n, 8))
    emb, cache = encode(p, frames)
    grads = encode_backward(p, cache, g)
    ref_emb, ref_grads = _loop_encode(p, frames, g)
    assert emb.shape == (n, 8)
    np.testing.assert_array_equal(emb, ref_emb)
    for (name, a), (_, b) in zip(grads.named_arrays(), ref_grads.named_arrays()):
        np.testing.assert_array_equal(a, b, err_msg=name)


@pytest.mark.parametrize("n_layers", [0, 1, 2])
def test_batched_gradients_match_finite_differences(n_layers):
    p = small_params(n_tte_layers=n_layers, seed=7 + n_layers)
    rng = np.random.default_rng(200 + n_layers)
    frames = rng.normal(size=(3, 3, 4))
    g = rng.normal(size=(3, 8))
    _, cache = encode(p, frames)
    analytic = encode_backward(p, cache, g)
    numeric = finite_difference_grads(p, frames, g)
    assert max_relative_error(analytic, numeric) < 1e-4


def test_batched_nonfinite_sample_names_stage():
    p = small_params(n_tte_layers=1)
    frames = np.random.default_rng(1).normal(size=(4, 3, 4))
    frames[2, 1, 0] = np.nan
    with pytest.raises(NumericError) as err:
        encode(p, frames)
    assert err.value.stage == "projection"
    # finite after the projection, overflowing in the attention scores
    frames = np.random.default_rng(2).normal(size=(4, 3, 4))
    frames[1] *= 1e200
    with pytest.raises(NumericError) as err, np.errstate(over="ignore", invalid="ignore"):
        encode(p, frames)
    assert err.value.stage == "tte_layer_0"


def test_batched_shape_checks():
    p = small_params()
    with pytest.raises(ValueError):
        encode(p, np.zeros((0, 3, 4)))
    with pytest.raises(ValueError):
        encode(p, np.zeros((2, 4, 4)))
    _, cache = encode(p, np.zeros((2, 3, 4)) + 0.5)
    with pytest.raises(ValueError):
        encode_backward(p, cache, np.zeros(8))
    _, cache = encode(p, np.zeros((3, 4)) + 0.5)
    with pytest.raises(ValueError):
        encode_backward(p, cache, np.zeros((1, 8)))


@pytest.mark.parametrize("n_layers", [0, 1, 2])
def test_backward_into_a_reused_buffer_matches_the_returning_form(n_layers):
    p = small_params(n_tte_layers=n_layers, seed=5)
    rng = np.random.default_rng(40 + n_layers)
    out = p.zeros_like()
    for n in (4, 1, 7):
        _, cache = encode(p, rng.normal(size=(n, 3, 4)))
        g = rng.normal(size=(n, 8))
        out.flat.fill(0.0)
        assert encode_backward(p, cache, g, out=out) is out
        assert out.flat.tobytes() == encode_backward(p, cache, g).flat.tobytes()
    with pytest.raises(ValueError, match="layout"):
        encode_backward(p, cache, g, out=small_params(n_tte_layers=(n_layers + 1) % 3))


def test_flat_buffer_backs_named_views():
    p = small_params(n_tte_layers=2)
    assert p.flat.flags.c_contiguous and p.flat.dtype == np.float64
    assert p.flat.size == p.n_parameters()
    offset = 0
    for name, arr in p.named_arrays():
        assert np.shares_memory(arr, p.flat), name
        np.testing.assert_array_equal(arr.reshape(-1), p.flat[offset : offset + arr.size])
        offset += arr.size
    assert offset == p.flat.size
    p.layers[1].wo[0, 0] = 42.0
    assert 42.0 in p.flat
    twin = p.copy()
    twin.add_scaled(p, -1.0)
    np.testing.assert_array_equal(twin.flat, np.zeros_like(twin.flat))
    assert not np.shares_memory(twin.flat, p.flat)
    with pytest.raises(ValueError):
        p.add_scaled(small_params(n_tte_layers=1), 1.0)


def _mean_layer_norm(x, gain, bias):
    """The layer norm written with ``np.mean``."""
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + encoder_mod.LN_EPS)
    xhat = (x - mu) * inv_std
    return gain * xhat + bias, xhat, inv_std


def _mean_layer_norm_backward(dy, xhat, inv_std, gain):
    dxhat = dy * gain
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return inv_std * (dxhat - m1 - xhat * m2)


@pytest.mark.parametrize("seed", range(4))
def test_layer_norm_reductions_match_np_mean_bitwise(seed):
    rng = np.random.default_rng(seed)
    for _ in range(50):
        n, t, d = (int(v) for v in rng.integers(1, 40, size=3))
        x = rng.normal(size=(n, t, d)) * rng.uniform(1e-3, 1e3)
        gain, bias = rng.normal(size=d), rng.normal(size=d)
        got = encoder_mod._layer_norm(x, gain, bias)
        for a, b in zip(got, _mean_layer_norm(x, gain, bias)):
            assert np.array_equal(a, b)
        dy = rng.normal(size=(n, t, d))
        dx, _, _ = encoder_mod._layer_norm_backward(dy, got[1], got[2], gain)
        assert np.array_equal(dx, _mean_layer_norm_backward(dy, got[1], got[2], gain))


def _force_helper(mp, on):
    """Hand every backward call to the helper thread (``on``) or to none,
    whatever the call's size and the host's core count."""
    mp.setattr(encoder_mod, "HELPER_MIN_WORK", 0 if on else 2**62)
    mp.setattr(encoder_mod, "_cores", lambda: 2)


def _backward_both_forms(p, cache, g):
    grads = encode_backward(p, cache, g)
    out = p.zeros_like()
    assert encode_backward(p, cache, g, out=out) is out
    return grads.flat.tobytes(), out.flat.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    n=st.sampled_from([1, 2, 7, 8, 9, 16, 17, 23, 40]) | st.integers(1, 40),
    n_layers=st.integers(0, 2),
    dims=st.tuples(*[st.integers(1, 12)] * 5),
    seed=st.integers(0, 10_000),
)
# two-element weight matrices, and sample counts on both sides of the
# helper's chunk
@example(n=17, n_layers=1, dims=(1, 2, 1, 1, 4), seed=5)
@example(n=8, n_layers=2, dims=(3, 4, 5, 2, 6), seed=6)
def test_helper_thread_gives_the_inline_bytes(n, n_layers, dims, seed):
    d_in, d, d_ff, d_h, seq_len = dims
    p = encoder_init(d_in, d, d_ff, d_h, n_tte_layers=n_layers, seq_len=seq_len, seed=seed)
    rng = np.random.default_rng(seed)
    try:
        _, cache = encode(p, rng.normal(size=(n, seq_len, d_in)))
    except NumericError:  # a one-wide layer norm zeroes every embedding
        reject()
    g = rng.normal(size=(n, d))
    with pytest.MonkeyPatch.context() as mp:
        _force_helper(mp, on=False)
        inline = _backward_both_forms(p, cache, g)
        _force_helper(mp, on=True)
        helped = _backward_both_forms(p, cache, g)
    assert encoder_mod._helper is not None
    assert inline[0] == inline[1]
    assert helped == inline


def test_helper_runs_only_for_large_calls_on_several_cores(monkeypatch):
    monkeypatch.setattr(encoder_mod, "_cores", lambda: 2)
    limit = encoder_mod.HELPER_MIN_WORK
    assert encoder_mod._grad_helper(limit - 1) is None
    assert encoder_mod._grad_helper(limit) is encoder_mod._grad_helper(10 * limit) is not None
    monkeypatch.setattr(encoder_mod, "_cores", lambda: 1)
    assert encoder_mod._grad_helper(10 * limit) is None


_HELPER_ADD = encoder_mod._GradHelper._add


def _slow_jobs(monkeypatch, fail_shape=None):
    """Make every helper job sleep first, and the jobs whose target has
    ``fail_shape`` raise instead of adding."""

    def slow_add(self, target, a, b):
        time.sleep(0.005)
        if target.shape == fail_shape:
            raise RuntimeError("job failed on purpose")
        _HELPER_ADD(self, target, a, b)

    monkeypatch.setattr(encoder_mod._GradHelper, "_add", slow_add)


def _unchanged_after_return(out):
    before = out.flat.tobytes()
    time.sleep(0.1)
    return out.flat.tobytes() == before


def test_helper_failure_reaches_the_caller_and_the_helper_serves_on(monkeypatch):
    _force_helper(monkeypatch, on=True)
    p = encoder_init(4, 8, 16, 6, n_tte_layers=2, seq_len=3, seed=1)
    rng = np.random.default_rng(2)
    _, cache = encode(p, rng.normal(size=(11, 3, 4)))
    g = rng.normal(size=(11, 8))
    expected = encode_backward(p, cache, g).flat.tobytes()

    _slow_jobs(monkeypatch, fail_shape=p.layers[0].wf1.shape)
    out = p.zeros_like()
    with pytest.raises(RuntimeError, match="job failed on purpose"):
        encode_backward(p, cache, g, out=out)
    assert _unchanged_after_return(out)

    _slow_jobs(monkeypatch)
    out = p.zeros_like()
    encode_backward(p, cache, g, out=out)
    assert _unchanged_after_return(out)
    assert out.flat.tobytes() == expected


def test_caller_failure_waits_for_the_queued_jobs(monkeypatch):
    _force_helper(monkeypatch, on=True)
    _slow_jobs(monkeypatch)
    p = small_params(n_tte_layers=1)
    rng = np.random.default_rng(3)
    _, cache = encode(p, rng.normal(size=(5, 3, 4)))

    def failing_layer_norm_backward(*args):
        raise ArithmeticError("caller failed on purpose")

    # the pooling head has queued the wa1 job by now
    monkeypatch.setattr(encoder_mod, "_layer_norm_backward", failing_layer_norm_backward)
    out = p.zeros_like()
    with pytest.raises(ArithmeticError, match="caller failed on purpose"):
        encode_backward(p, cache, rng.normal(size=(5, 8)), out=out)
    assert _unchanged_after_return(out)
    assert out.wa1.any()


@pytest.mark.parametrize("n_layers", [0, 1, 2])
def test_one_wide_embedding_has_zero_gradients(n_layers):
    # why the helper never meets a one-element weight matrix, whose column
    # numpy would sum pairwise: each has embed_dim as one side
    p = encoder_init(1, 1, 3, 2, n_tte_layers=n_layers, seq_len=4, seed=1)
    rng = np.random.default_rng(n_layers)
    if n_layers:
        with pytest.raises(NumericError):  # a one-wide layer norm zeroes h
            encode(p, rng.normal(size=(9, 4, 1)))
        return
    _, cache = encode(p, rng.normal(size=(9, 4, 1)))
    grads = encode_backward(p, cache, rng.normal(size=(9, 1)))
    assert not grads.flat.any()


def test_concurrent_callers_share_the_helper_and_get_their_own_bytes(monkeypatch):
    _force_helper(monkeypatch, on=True)
    made = []

    class CountedHelper(encoder_mod._GradHelper):
        def __init__(self):
            made.append(self)
            super().__init__()

    monkeypatch.setattr(encoder_mod, "_GradHelper", CountedHelper)
    monkeypatch.setattr(encoder_mod, "_helper", None)  # the callers race to start it
    rng = np.random.default_rng(9)
    cases = []
    for i in range(6):
        p = encoder_init(3, 6, 5, 4, n_tte_layers=i % 3, seq_len=3, seed=i)
        _, cache = encode(p, rng.normal(size=(5 + 3 * i, 3, 3)))
        cases.append((p, cache, rng.normal(size=(5 + 3 * i, 6))))
    expected = []
    for p, cache, g in cases:
        out = p.zeros_like()
        encoder_mod._backward(p, cache, g, out, encoder_mod._add_weight_grad)
        expected.append(out.flat.tobytes())
    assert made == []
    mismatches = []

    def call(i):
        for _ in range(20):
            if encode_backward(*cases[i]).flat.tobytes() != expected[i]:
                mismatches.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call, args=(i,)) for i in range(len(cases))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []
    assert len(made) == 1 and encoder_mod._helper is made[0]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_starts_its_own_helper(monkeypatch):
    _force_helper(monkeypatch, on=True)
    p = small_params(n_tte_layers=2)
    rng = np.random.default_rng(4)
    _, cache = encode(p, rng.normal(size=(9, 3, 4)))
    g = rng.normal(size=(9, 8))
    expected = encode_backward(p, cache, g).flat.tobytes()  # the parent's helper is running
    pid = os.fork()
    if pid == 0:  # the child: the parent's helper thread is not here
        os._exit(0 if encode_backward(p, cache, g).flat.tobytes() == expected else 1)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child hung waiting for a helper thread it does not have")
    assert os.waitstatus_to_exitcode(done[1]) == 0
