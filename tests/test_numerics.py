"""Numerics substrate: forward ops, exact backwards, MAC accounting."""

import contextvars
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchcert import numerics as nx
from patchcert.errors import DimensionError, ParameterError
from references import (
    cross_entropy_row,
    cross_entropy_row_backward,
    finite_difference_gradient,
    formula_softmax,
    matmul_reference,
    mean_layer_norm_bwd,
    mean_layer_norm_fwd,
)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


# ---------------------------------------------------------------------------
# matmul and MAC counting


def test_matmul_identity():
    eye = np.eye(2, dtype=np.float32)
    b = np.array([[5, 6], [7, 8]], dtype=np.float32)
    assert np.array_equal(nx.matmul(eye, b), b)


def test_matmul_small_case():
    a = np.array([[1.0, 2.0]], dtype=np.float32)
    b = np.array([[3.0], [4.0]], dtype=np.float32)
    assert nx.matmul(a, b)[0, 0] == pytest.approx(11.0)


def test_matmul_matches_triple_loop_reference():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 4)).astype(np.float32)
    b = rng.normal(size=(4, 2)).astype(np.float32)
    ref = matmul_reference(a, b)
    np.testing.assert_allclose(nx.matmul(a, b), ref, rtol=1e-5, atol=1e-6)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
        nx.matmul(np.zeros((2, 3), np.float32), np.zeros((2, 2), np.float32))


def test_mac_counter_counts_mkn_exactly():
    a = np.zeros((3, 4), np.float32)
    b = np.zeros((4, 5), np.float32)
    with nx.count_macs() as c:
        nx.matmul(a, b)
        assert c.total == 3 * 4 * 5
        nx.matmul(a, b)
    assert c.total == 2 * 3 * 4 * 5
    # no counter active outside the context
    nx.matmul(a, b)
    assert c.total == 2 * 3 * 4 * 5


def test_mac_counter_loses_no_add_across_threads():
    # more threads than CPUs share one counter, as the stack pool's jobs do
    # through a copied context, and switch as often as the interpreter allows:
    # each sees the counter and loses none of its adds
    a = np.zeros((3, 4), np.float32)
    b = np.zeros((4, 5), np.float32)

    def work():
        for _ in range(2000):
            nx.matmul(a, b)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with nx.count_macs() as c:
            threads = [threading.Thread(target=contextvars.copy_context().run, args=(work,))
                       for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert c.total == 8 * 2000 * 3 * 4 * 5


def test_matmul_rejects_stacked_operands():
    with pytest.raises(DimensionError, match="2-D"):
        nx.matmul(np.zeros((2, 3, 4), np.float32), np.zeros((2, 4, 5), np.float32))


def _head_views(rng, s, rows, inner, transposed):
    """(s, rows, inner) head views of an (rows, s*inner) array, or their transposes."""
    base = rng.normal(size=(inner, s * rows) if transposed else (rows, s * inner))
    base = base.astype(np.float32)
    if transposed:
        return base.reshape(inner, s, rows).transpose(1, 2, 0)
    return base.reshape(rows, s, inner).transpose(1, 0, 2)


@settings(deadline=None, max_examples=60)
@given(
    s=st.integers(1, 8), m=st.integers(1, 12), k=st.integers(1, 12), n=st.integers(1, 12),
    ta=st.booleans(), tb=st.booleans(), seed=st.integers(0, 2**16),
)
def test_matmul_stacked_equals_per_slice_matmul(s, m, k, n, ta, tb, seed):
    # a is a stack of strided head views, contiguous or transposed, as in the attention
    # backward; b is a like stack, or one 2-D weight (a transpose if tb) that every slice shares
    rng = np.random.default_rng(seed)
    a = _head_views(rng, s, m, k, ta)
    stack = _head_views(rng, s, k, n, tb)
    weight = rng.normal(size=(n, k) if tb else (k, n)).astype(np.float32)
    for b in (stack, weight.T if tb else weight):
        with nx.count_macs() as stacked_macs:
            out = nx.matmul_stacked(a, b)
        with nx.count_macs() as slice_macs:
            ref = np.stack([nx.matmul(a[i], b if b.ndim == 2 else b[i]) for i in range(s)])
        assert out.shape == (s, m, n)
        assert out.tobytes() == ref.tobytes()
        assert stacked_macs.total == slice_macs.total == s * m * k * n


@pytest.mark.parametrize(
    "a_shape,b_shape",
    [((2, 3, 4), (3, 4, 5)), ((2, 3, 4), (2, 5, 5)), ((3, 4), (4, 5)), ((2, 3, 4), (5, 5)),
     ((2, 3, 4), (4,))],
)
def test_matmul_stacked_rejects_mismatched_operands(a_shape, b_shape):
    with nx.count_macs() as c, pytest.raises(DimensionError):
        nx.matmul_stacked(np.zeros(a_shape, np.float32), np.zeros(b_shape, np.float32))
    assert c.total == 0


# ---------------------------------------------------------------------------
# softmax


def test_softmax_symmetry():
    out = nx.softmax_last_dim(np.zeros(3, np.float32))
    np.testing.assert_allclose(out, np.full(3, 1 / 3), atol=1e-7)


def test_softmax_stable_under_large_inputs():
    out = nx.softmax_last_dim(np.array([1000.0, 0.0], np.float32))
    np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-6)
    assert np.isfinite(out).all()


def test_softmax_matches_direct_formula():
    x = np.array([1.0, 2.0, 3.0], np.float32)
    e = np.exp(np.array([1.0, 2.0, 3.0], np.float64))
    np.testing.assert_allclose(nx.softmax_last_dim(x), e / e.sum(), atol=1e-6)


@settings(deadline=None, max_examples=60)
@given(
    st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False, width=32),
        min_size=1,
        max_size=12,
    )
)
def test_softmax_rows_sum_to_one(values):
    out = nx.softmax_last_dim(np.array(values, np.float32))
    assert np.isfinite(out).all()
    assert out.min() >= 0.0
    assert abs(out.sum() - 1.0) < 1e-6


def _score_stack(n, heads, class_only):
    """The (B, heads, rows, n) score shape of a stack of n-token sets: rows is n, or 1 in
    the class-only last layer; B fills the forward's row budget of 256."""
    return [max(1, 256 // (n + 1)), heads, 1 if class_only else n, n]


@settings(deadline=None, max_examples=120)
@given(
    shape=st.one_of(
        st.lists(st.integers(1, 40), min_size=1, max_size=4),
        st.builds(_score_stack, st.integers(2, 43), st.sampled_from([1, 2, 4]), st.booleans()),
    ),
    dtype=st.sampled_from([np.float32, np.float64]),
    log_scale=st.floats(-40, 37), blanked=st.floats(0, 0.9), nan_row=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_softmax_equals_the_formula_bit_for_bit(shape, dtype, log_scale, blanked, nan_row, seed):
    rng = np.random.default_rng(seed)
    x = np.clip(rng.normal(size=shape), -3, 3) * 10.0 ** log_scale
    x = x.astype(dtype)
    # blanked scores, as the masked-attention oracle writes them; column 0 stays finite
    x[..., 1:][rng.uniform(size=x[..., 1:].shape) < blanked] = -np.inf
    rows = x.reshape(-1, x.shape[-1])
    row = int(rng.integers(rows.shape[0]))
    if nan_row:
        rows[row, rng.integers(rows.shape[1])] = np.nan
    got, want = nx.softmax_last_dim(x), formula_softmax(x)
    assert got.dtype == want.dtype
    nan = np.isnan(want)
    # a row holding a NaN is NaN throughout, and every other row is bytewise the formula's
    assert np.array_equal(np.isnan(got), nan)
    assert nan.reshape(rows.shape)[row].all() == nan_row
    assert got[~nan].tobytes() == want[~nan].tobytes()


def test_softmax_rejects_empty_last_dim():
    with pytest.raises(ParameterError):
        nx.softmax_last_dim(np.zeros((2, 0), np.float32))


# ---------------------------------------------------------------------------
# layer norm


def test_layer_norm_constant_slice():
    x = np.full(4, 5.0, np.float32)
    out = nx.layer_norm_fwd(x, np.ones(4, np.float32), np.zeros(4, np.float32))[0]
    np.testing.assert_allclose(out, np.zeros(4), atol=1e-6)


def test_layer_norm_two_point_standardization():
    x = np.array([1.0, 3.0], np.float32)
    out = nx.layer_norm_fwd(x, np.ones(2, np.float32), np.zeros(2, np.float32))[0]
    np.testing.assert_allclose(out, [-1.0, 1.0], atol=1e-3)


def test_layer_norm_matches_float64_reference():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 8)).astype(np.float32)
    gamma = rng.normal(size=8).astype(np.float32)
    beta = rng.normal(size=8).astype(np.float32)
    x64 = x.astype(np.float64)
    mu = x64.mean(-1, keepdims=True)
    var = ((x64 - mu) ** 2).mean(-1, keepdims=True)
    ref = (x64 - mu) / np.sqrt(var + 1e-5) * gamma + beta
    np.testing.assert_allclose(nx.layer_norm_fwd(x, gamma, beta)[0], ref, atol=1e-5)


def test_layer_norm_normalizes_pre_affine():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 16)).astype(np.float32)
    out = nx.layer_norm_fwd(x, np.ones(16, np.float32), np.zeros(16, np.float32))[0]
    np.testing.assert_allclose(out.mean(-1), 0.0, atol=1e-5)
    np.testing.assert_allclose(out.var(-1), 1.0, atol=1e-3)


def test_layer_norm_rejects_empty_last_dim():
    with pytest.raises(ParameterError):
        nx.layer_norm_fwd(np.zeros((2, 0), np.float32), np.ones(0), np.zeros(0))


@settings(deadline=None, max_examples=60)
@given(
    lead=st.lists(st.integers(1, 9), min_size=1, max_size=2), d=st.integers(1, 300),
    dtype=st.sampled_from([np.float32, np.float64]), loc=st.floats(-100, 100),
    scale=st.floats(1e-3, 1e3), seed=st.integers(0, 2**16),
)
def test_layer_norm_equals_the_mean_formulation_bit_for_bit(lead, d, dtype, loc, scale, seed):
    rng = np.random.default_rng(seed)
    shape = (*lead, d)
    x = (loc + scale * rng.normal(size=shape)).astype(dtype)
    gamma, beta = rng.normal(size=d).astype(dtype), rng.normal(size=d).astype(dtype)
    dy = rng.normal(size=shape).astype(dtype)
    y, ctx = nx.layer_norm_fwd(x, gamma, beta)
    y_ref, ctx_ref = mean_layer_norm_fwd(x, gamma, beta)
    assert y.dtype == y_ref.dtype
    assert y.tobytes() == y_ref.tobytes()
    for got, want in zip(ctx, ctx_ref):
        assert got.tobytes() == want.tobytes()
    for got, want in zip(nx.layer_norm_bwd(ctx, dy), mean_layer_norm_bwd(ctx_ref, dy)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# gelu


def test_gelu_zero():
    assert nx.gelu(np.float32(0.0)) == 0.0


def test_gelu_asymptote():
    assert abs(float(nx.gelu(np.float32(10.0))) - 10.0) < 1e-4


def test_gelu_at_one_matches_formula():
    expected = 0.5 * 1.0 * (1.0 + math.tanh(math.sqrt(2.0 / math.pi) * (1.0 + 0.044715)))
    assert float(nx.gelu(np.float32(1.0))) == pytest.approx(expected, abs=1e-6)


def test_gelu_finite_on_extremes():
    x = np.array([-50.0, -1.0, 0.0, 1.0, 50.0], np.float32)
    assert np.isfinite(nx.gelu(x)).all()


def _formula_gelu(x):
    """The out-of-place formulas the in-place gelu and gelu_backward replaced."""
    c, a = math.sqrt(2.0 / math.pi), 0.044715
    u = c * (x + a * x * x * x)
    return 0.5 * x * (1.0 + np.tanh(u))


def _formula_gelu_backward(x, dy):
    c, a = math.sqrt(2.0 / math.pi), 0.044715
    t = np.tanh(c * (x + a * x * x * x))
    du = c * (1.0 + 3.0 * a * x * x)
    return dy * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)


_GELU_SPECIALS = [0.0, -0.0, 1e-45, -1e-45, 1e-38, 1e-20, -3.0, 3.0, 1e4, -1e4, 1e19, -1e19, 3e38]


@settings(deadline=None, max_examples=80)
@given(
    shape=st.lists(st.integers(1, 40), min_size=1, max_size=3),
    dtype=st.sampled_from([np.float32, np.float64]),
    log_scale=st.floats(-40, 38), seed=st.integers(0, 2**16),
)
def test_gelu_and_backward_equal_the_formulas_bit_for_bit(shape, dtype, log_scale, seed):
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore", invalid="ignore"):
        x = (rng.normal(size=shape) * 10.0 ** log_scale).astype(dtype)
        x.flat[: len(_GELU_SPECIALS)] = _GELU_SPECIALS[: x.size]
        dy = rng.normal(size=shape).astype(dtype)
        got, want = nx.gelu(x), _formula_gelu(x)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        got, want = nx.gelu_backward(x, dy), _formula_gelu_backward(x, dy)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# backward passes vs finite differences


def _rel_err(a, b, floor=1e-8):
    denom = max(np.abs(a).max(), np.abs(b).max(), floor)
    return np.abs(a - b).max() / denom


def test_identity_matmul_chain_passes_gradient_through():
    rng = np.random.default_rng(1)
    dy = rng.normal(size=(3, 3)).astype(np.float32)
    eye = np.eye(3, dtype=np.float32)
    # y = (x @ I) @ I  =>  dx = (dy @ I^T) @ I^T = dy
    dx = nx.matmul(nx.matmul(dy, eye.T), eye.T)
    np.testing.assert_array_equal(dx, dy)


def test_cross_entropy_gradient_closed_form():
    logits = np.array([[2.0, 1.0, 0.5]], np.float32)
    target = int(np.argmax(logits))
    (loss,), (grad,) = nx.cross_entropy(logits, [target])
    expected = nx.softmax_last_dim(logits[0]).copy()
    assert loss == pytest.approx(-math.log(expected[target]), rel=1e-6)
    expected[target] -= 1.0
    np.testing.assert_allclose(grad, expected, atol=1e-7)


def test_cross_entropy_matches_finite_differences():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(1, 6)).astype(np.float32)
    fd = finite_difference_gradient(lambda t: nx.cross_entropy(t, [3])[0][0], logits, h=1e-4)
    assert _rel_err(nx.cross_entropy(logits, [3])[1].astype(np.float64), fd) < 1e-3


@pytest.mark.parametrize("seed", range(6))
def test_stacked_cross_entropy_equals_the_per_row_pair_bytewise(seed):
    # one softmax per row gives the bits of the former loss and gradient calls on each row
    rng = np.random.default_rng(seed)
    shapes = [(1, 2), (1, 39), (64, 2), (7, 10)]  # then B in [1, 64] and k in [2, 39]
    shapes += [tuple(rng.integers([1, 2], [65, 40])) for _ in range(20)]
    for b, k in shapes:
        for scale in (1e-3, 1.0, 30.0, 1e3):
            logits = (rng.normal(size=(b, k)) * scale).astype(np.float32)
            targets = rng.integers(0, k, size=b)
            losses, grads = nx.cross_entropy(logits, targets)
            pairs = list(zip(logits, targets.tolist()))
            want = [cross_entropy_row(row, t) for row, t in pairs]
            want_grads = [cross_entropy_row_backward(row, t) for row, t in pairs]
            assert losses.dtype == grads.dtype == np.float32 and grads.shape == (b, k)
            assert losses.astype(np.float64).tobytes() == np.array(want).tobytes(), (b, k, scale)
            assert grads.tobytes() == np.stack(want_grads).tobytes(), (b, k, scale)


def test_cross_entropy_refuses_misshaped_stacks_and_targets_out_of_range():
    logits = np.zeros((3, 4), np.float32)
    for bad_logits, bad_targets in ((logits[0], [1]), (logits[None], [1, 2, 3]),
                                    (logits, [1, 2]), (logits, [[1, 2, 3]]), (logits, 1)):
        with pytest.raises(DimensionError):
            nx.cross_entropy(bad_logits, bad_targets)
    for targets in ([0, 4, 1], [-1, 0, 0]):
        with pytest.raises(ParameterError, match=r"outside \[0, 4\)"):
            nx.cross_entropy(logits, targets)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_layer_norm_backward_matches_fd(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 6)).astype(np.float32)
    gamma = rng.normal(size=6).astype(np.float32)
    beta = rng.normal(size=6).astype(np.float32)
    dy = rng.normal(size=(2, 6)).astype(np.float32)
    _, ctx = nx.layer_norm_fwd(x, gamma, beta)
    dx, dgamma, dbeta = nx.layer_norm_bwd(ctx, dy)

    def loss_x(t):
        return float((nx.layer_norm_fwd(t, gamma.astype(t.dtype), beta.astype(t.dtype))[0] * dy).sum())

    def loss_g(t):
        return float((nx.layer_norm_fwd(x.astype(np.float64), t, beta.astype(np.float64))[0] * dy).sum())

    def loss_b(t):
        return float((nx.layer_norm_fwd(x.astype(np.float64), gamma.astype(np.float64), t)[0] * dy).sum())

    assert _rel_err(dx.astype(np.float64), finite_difference_gradient(loss_x, x)) < 1e-3
    assert _rel_err(dgamma.astype(np.float64), finite_difference_gradient(loss_g, gamma)) < 1e-3
    assert _rel_err(dbeta.astype(np.float64), finite_difference_gradient(loss_b, beta)) < 1e-3


@pytest.mark.parametrize("seed", [0, 5])
def test_gelu_backward_matches_fd(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=12).astype(np.float32)
    dy = rng.normal(size=12).astype(np.float32)

    def loss(t):
        return float((nx.gelu(t) * dy).sum())

    fd = finite_difference_gradient(loss, x)
    assert _rel_err(nx.gelu_backward(x, dy).astype(np.float64), fd) < 1e-3


@pytest.mark.parametrize("seed", [0, 9])
def test_softmax_backward_matches_fd(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, 5)).astype(np.float32)
    dy = rng.normal(size=(3, 5)).astype(np.float32)
    y = nx.softmax_last_dim(x)

    def loss(t):
        return float((nx.softmax_last_dim(t) * dy).sum())

    fd = finite_difference_gradient(loss, x)
    assert _rel_err(nx.softmax_backward(y, dy).astype(np.float64), fd) < 1e-3


def test_matmul_backward_matches_fd():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(3, 4)).astype(np.float32)
    b = rng.normal(size=(4, 2)).astype(np.float32)
    dy = rng.normal(size=(3, 2)).astype(np.float32)
    da = nx.matmul(dy, b.T)
    db = nx.matmul(a.T, dy)

    fd_a = finite_difference_gradient(lambda t: float((t @ b * dy).sum()), a)
    fd_b = finite_difference_gradient(lambda t: float((a @ t * dy).sum()), b)
    assert _rel_err(da.astype(np.float64), fd_a) < 1e-3
    assert _rel_err(db.astype(np.float64), fd_b) < 1e-3


# ---------------------------------------------------------------------------
# finite differences


def test_fd_on_sum_of_squares():
    grad = finite_difference_gradient(
        lambda t: float((t * t).sum()), np.array([1.0, 2.0], np.float32), h=1e-4
    )
    np.testing.assert_allclose(grad, [2.0, 4.0], atol=1e-6)


def test_fd_constant_function_is_zero():
    grad = finite_difference_gradient(lambda t: 3.5, np.ones((2, 2), np.float32))
    assert np.array_equal(grad, np.zeros((2, 2)))


def test_fd_rejects_nonpositive_step():
    with pytest.raises(ParameterError):
        finite_difference_gradient(lambda t: 0.0, np.ones(2), h=0.0)


@pytest.mark.parametrize("bias_shape", [(7,), (1, 8), ()])
def test_bias_add_refuses_a_bias_that_is_not_the_last_dimension(bias_shape):
    x = np.zeros((4, 8), np.float32)
    with pytest.raises(DimensionError, match="does not match input"):
        nx.bias_add(x, np.ones(bias_shape, np.float32))
    assert not x.any()


def test_exported_ops_stay_float32_and_finite(rng):
    x = rng.normal(size=(4, 8)).astype(np.float32)
    w = rng.normal(size=(8, 8)).astype(np.float32)
    for out in (
        nx.matmul(x, w),
        nx.softmax_last_dim(x),
        nx.layer_norm_fwd(x, np.ones(8, np.float32), np.zeros(8, np.float32))[0],
        nx.gelu(x),
        nx.bias_add(x, np.ones(8, np.float32)),
    ):
        assert out.dtype == np.float32
        assert np.isfinite(out).all()
