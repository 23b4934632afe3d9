"""Dense numerical substrate for the encoder: forward ops, exact
backward passes and one cross-entropy op over a whole logit stack.

Tensors are plain numpy arrays: row-major storage, float32 for model
state and compute (reductions may accumulate wider). Every exported op
is a pure function of its inputs; the only side channel is the
multiply-accumulate counter installed by ``count_macs``. The GELU and
layer-norm constants are the numerics contract: vit's float64 reference
forward reads them too, and shares nothing else with this module.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import threading

import numpy as np

from .errors import DimensionError, ParameterError

__all__ = [
    "MacCounter",
    "count_macs",
    "matmul",
    "matmul_stacked",
    "bias_add",
    "softmax_last_dim",
    "softmax_backward",
    "layer_norm_fwd",
    "layer_norm_bwd",
    "gelu",
    "gelu_backward",
    "cross_entropy",
]

# tanh-approximation GELU constants; this exact form is the contract.
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
# added to the variance inside layer norm's square root
_LN_EPS = 1e-5


class MacCounter:
    """Multiply-accumulate tally: matmul(m*k by k*n) adds exactly m*k*n.

    Threads that share the counter (the stack pool of
    vit.per_ablation_predictions) add under a lock, so no add is lost.
    """

    def __init__(self) -> None:
        self.total = 0
        self._lock = threading.Lock()

    def add(self, n: int) -> None:
        with self._lock:
            self.total += n


_active_counter: contextvars.ContextVar[MacCounter | None] = contextvars.ContextVar(
    "patchcert_mac_counter", default=None
)


@contextlib.contextmanager
def count_macs():
    """Install a fresh MAC counter for the duration of the block; yields the counter."""
    counter = MacCounter()
    token = _active_counter.set(counter)
    try:
        yield counter
    finally:
        _active_counter.reset(token)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """2-D matrix product; increments the active MAC counter by m*k*n."""
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    counter = _active_counter.get()
    if counter is not None:
        counter.add(a.shape[0] * a.shape[1] * b.shape[1])
    return a @ b


def matmul_stacked(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Independent products (..., m, k) x (..., k, n): b has a's leading dims,
    or is one 2-D (k, n) weight that every (m, k) slice of a shares.

    One BLAS call per product, each computed as the 2-D call on that
    slice would be; increments the MAC counter by (products)*m*k*n.
    """
    if a.ndim < 3 or b.ndim < 2:
        raise DimensionError(
            f"matmul_stacked expects a stack and a matrix or stack, got {a.shape} and {b.shape}")
    if b.shape[:-2] not in ((), a.shape[:-2]) or a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul_stacked operands disagree: {a.shape} x {b.shape}")
    counter = _active_counter.get()
    if counter is not None:
        counter.add(math.prod(a.shape) * b.shape[-1])
    return a @ b


def bias_add(x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Add a length-d bias over the last dimension (the only broadcast), in place.

    x is overwritten and returned, so pass a fresh product; the sum is
    bitwise x + b, and a bias wider than x's dtype is refused.
    """
    if b.ndim != 1 or x.shape[-1] != b.shape[0]:
        raise DimensionError(f"bias shape {b.shape} does not match input {x.shape}")
    return np.add(x, b, out=x, casting="safe")


def softmax_last_dim(x: np.ndarray) -> np.ndarray:
    """Stable softmax along the last dimension (max-subtracted).

    numpy's per-row max is slow over many short rows, so the max
    reduces a contiguous copy whose leading axis is the last one, every
    row at once. A max is exact in any order up to the sign of a zero,
    which exp(x - max) cannot see. The sum and the division keep the
    original layout: their rounding depends on numpy's pairwise
    summation order.
    """
    if x.shape[-1] < 1:
        raise ParameterError("softmax needs a non-empty last dimension")
    top = np.maximum.reduce(np.ascontiguousarray(np.moveaxis(x, -1, 0)), axis=0)
    e = x - top[..., None]
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def softmax_backward(y: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """dx for y = softmax(x): y * (dy - sum(dy * y))."""
    inner = (dy * y).sum(axis=-1, keepdims=True)
    return y * (dy - inner)


def layer_norm_fwd(x, gamma, beta, record=True):
    """Normalize each length-d slice to mean 0 / variance 1, then affine.

    Returns (y, ctx) where ctx feeds layer_norm_bwd. record=False keeps
    no ctx (None) and writes the affine into the normalized buffer, with
    the same bits; a gamma wider than that buffer is refused.
    """
    if x.shape[-1] < 1:
        raise ParameterError("layer_norm needs a non-empty last dimension")
    d = x.shape[-1]
    # add.reduce then divide: the same correctly rounded mean as ndarray.mean, with less overhead
    mu = np.add.reduce(x, axis=-1, keepdims=True)
    mu /= d
    xc = x - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True)
    var /= d
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = xc
    xhat *= inv
    y = np.multiply(xhat, gamma, out=None if record else xhat, casting="safe")
    y += beta
    return y, ((xhat, inv, gamma) if record else None)


def layer_norm_bwd(ctx, dy):
    """Gradients (dx, dgamma, dbeta) for the stored layer_norm forward.

    dy may be the forward's rows in another shape, e.g. (B, n, d) for
    (B*n, d). dgamma and dbeta sum over the row axis (-2): one sum per
    set of a (B, n, d) stack, one over all rows of a 2-D dy.
    """
    xhat, inv, gamma = ctx
    xhat, inv = xhat.reshape(dy.shape), inv.reshape(*dy.shape[:-1], 1)
    dgamma = (dy * xhat).sum(axis=-2)
    dbeta = dy.sum(axis=-2)
    dxhat = dy * gamma
    d = dy.shape[-1]
    m1 = np.add.reduce(dxhat, axis=-1, keepdims=True)
    m1 /= d
    m2 = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True)
    m2 /= d
    dx = inv * (dxhat - m1 - xhat * m2)
    return dx, dgamma, dbeta


def gelu(x: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """GELU, tanh approximation: 0.5*x*(1+tanh(sqrt(2/pi)*(x+0.044715*x^3))).

    Evaluated in one scratch buffer, in the formula's operation order;
    overwrite=True writes the result into x's buffer, with the same bits.
    """
    t = _gelu_tanh(x)
    t += 1.0
    y = np.multiply(x, 0.5, out=x if overwrite else None)
    y *= t
    return y


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """tanh(sqrt(2/pi)*(x+0.044715*x^3)) in a fresh buffer, in that operation order."""
    t = np.asarray(x * _GELU_A)
    t *= x
    t *= x
    t += x
    t *= _GELU_C
    return np.tanh(t, out=t)


def gelu_backward(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """dx for the tanh-approximation GELU evaluated at x."""
    # dy * (0.5*(1+t) + 0.5*x*(1-t*t)*du) with du = C*(1+3A*x*x), in place
    t = _gelu_tanh(x)
    du = x * (3.0 * _GELU_A)
    du *= x
    du += 1.0
    du *= _GELU_C
    g = t * t
    np.subtract(1.0, g, out=g)
    g *= x * 0.5
    g *= du
    t += 1.0
    t *= 0.5
    t += g
    t *= dy
    return t


def cross_entropy(logits: np.ndarray, targets):
    """Losses -log softmax(logits)[target] (B,) and logit gradients (B, k) of a (B, k) stack.

    One max-shift, exp and row sum give both; the gradient is exp / sum, less 1 at the target.
    """
    targets, rows = np.asarray(targets), np.arange(len(logits))
    if logits.ndim != 2 or targets.shape != logits.shape[:1]:
        raise DimensionError(f"cross_entropy expects (B, k) logits and (B,) targets, "
                             f"got {logits.shape} and {targets.shape}")
    if targets.size and not 0 <= targets.min() <= targets.max() < logits.shape[1]:
        raise ParameterError(f"targets outside [0, {logits.shape[1]})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1)
    losses = np.log(total) - shifted[rows, targets]
    e /= total[:, None]
    e[rows, targets] -= 1.0
    return losses, e
