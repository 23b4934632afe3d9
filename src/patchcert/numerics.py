"""Dense numerical substrate for the encoder: forward ops, exact backward
passes, and a finite-difference oracle.

Tensors are plain numpy arrays: row-major storage, float32 for model
state and compute (reductions may accumulate wider). Every exported op
is a pure function of its inputs; the only side channel is the
multiply-accumulate counter, which is scoped per invocation context so
concurrent workers never corrupt each other's counts.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import threading

import numpy as np

from .errors import DimensionError, ParameterError, UsageError

__all__ = [
    "MacCounter",
    "count_macs",
    "matmul",
    "matmul_stacked",
    "matmul_reference",
    "bias_add",
    "softmax_last_dim",
    "softmax_backward",
    "layer_norm",
    "layer_norm_fwd",
    "layer_norm_bwd",
    "gelu",
    "gelu_backward",
    "cross_entropy",
    "cross_entropy_backward",
    "finite_difference_gradient",
]

# tanh-approximation GELU constants; this exact form is the contract.
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


class MacCounter:
    """Thread-safe multiply-accumulate tally.

    matmul(m*k by k*n) adds exactly m*k*n. Safe to share across worker
    threads; use one counter per context you want to measure.
    """

    def __init__(self) -> None:
        self.total = 0
        self._lock = threading.Lock()

    def add(self, n: int) -> None:
        with self._lock:
            self.total += n

    def reset(self) -> None:
        with self._lock:
            self.total = 0


_active_counter: contextvars.ContextVar[MacCounter | None] = contextvars.ContextVar(
    "patchcert_mac_counter", default=None
)


@contextlib.contextmanager
def count_macs(counter: MacCounter | None = None):
    """Install a MAC counter for the duration of the block.

    Yields the counter. Worker threads spawned inside the block must
    either copy the caller's context or install the counter themselves.
    """
    c = counter if counter is not None else MacCounter()
    token = _active_counter.set(c)
    try:
        yield c
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
    """s independent products (s, m, k) x (s, k, n); increments the MAC counter by s*m*k*n."""
    if a.ndim != 3 or b.ndim != 3:
        raise DimensionError(f"matmul_stacked expects 3-D operands, got {a.shape} and {b.shape}")
    if a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise DimensionError(f"matmul_stacked operands disagree: {a.shape} x {b.shape}")
    counter = _active_counter.get()
    if counter is not None:
        counter.add(a.shape[0] * a.shape[1] * a.shape[2] * b.shape[2])
    return a @ b


def matmul_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Naive triple loop with fixed row-major summation order.

    Independent oracle for matmul; float32 accumulation so the summation
    order is observable.
    """
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    m, k = a.shape
    n = b.shape[1]
    out = np.zeros((m, n), dtype=a.dtype)
    for i in range(m):
        for j in range(n):
            acc = a.dtype.type(0)
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def bias_add(x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Add a length-d bias over the last dimension (the only broadcast)."""
    if b.ndim != 1 or x.shape[-1] != b.shape[0]:
        raise DimensionError(f"bias shape {b.shape} does not match input {x.shape}")
    return x + b


def softmax_last_dim(x: np.ndarray) -> np.ndarray:
    """Stable softmax along the last dimension (max-subtracted)."""
    if x.shape[-1] < 1:
        raise ParameterError("softmax needs a non-empty last dimension")
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward(y: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """dx for y = softmax(x): y * (dy - sum(dy * y))."""
    if y is None:
        raise UsageError("softmax_backward called without the forward output")
    inner = (dy * y).sum(axis=-1, keepdims=True)
    return y * (dy - inner)


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Normalize each length-d slice to mean 0 / variance 1, then affine."""
    y, _ = layer_norm_fwd(x, gamma, beta, eps)
    return y


def layer_norm_fwd(x, gamma, beta, eps=1e-5):
    """Layer norm returning (y, ctx) where ctx feeds layer_norm_bwd."""
    if eps <= 0:
        raise ParameterError(f"layer_norm eps must be positive, got {eps}")
    if x.shape[-1] < 1:
        raise ParameterError("layer_norm needs a non-empty last dimension")
    d = x.shape[-1]
    # add.reduce then divide: the same correctly rounded mean as ndarray.mean, with less overhead
    mu = np.add.reduce(x, axis=-1, keepdims=True)
    mu /= d
    xc = x - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True)
    var /= d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return xhat * gamma + beta, (xhat, inv, gamma)


def layer_norm_bwd(ctx, dy):
    """Gradients (dx, dgamma, dbeta) for the stored layer_norm forward."""
    if ctx is None:
        raise UsageError("layer_norm_bwd called before layer_norm_fwd")
    xhat, inv, gamma = ctx
    lead = tuple(range(dy.ndim - 1))
    dgamma = (dy * xhat).sum(axis=lead)
    dbeta = dy.sum(axis=lead)
    dxhat = dy * gamma
    d = dy.shape[-1]
    m1 = np.add.reduce(dxhat, axis=-1, keepdims=True)
    m1 /= d
    m2 = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True)
    m2 /= d
    dx = inv * (dxhat - m1 - xhat * m2)
    return dx, dgamma, dbeta


def gelu(x: np.ndarray) -> np.ndarray:
    """GELU, tanh approximation: 0.5*x*(1+tanh(sqrt(2/pi)*(x+0.044715*x^3)))."""
    u = _GELU_C * (x + _GELU_A * x * x * x)
    return 0.5 * x * (1.0 + np.tanh(u))


def gelu_backward(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """dx for the tanh-approximation GELU evaluated at x."""
    if x is None:
        raise UsageError("gelu_backward called without the forward input")
    u = _GELU_C * (x + _GELU_A * x * x * x)
    t = np.tanh(u)
    du = _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)
    return dy * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)


def cross_entropy(logits: np.ndarray, target: int) -> float:
    """-log softmax(logits)[target] for a single length-k logit vector."""
    if logits.ndim != 1:
        raise DimensionError(f"cross_entropy expects a 1-D logit vector, got {logits.shape}")
    if not 0 <= target < logits.shape[0]:
        raise ParameterError(f"target {target} outside [0, {logits.shape[0]})")
    shifted = logits - logits.max()
    logz = np.log(np.exp(shifted).sum())
    return float(logz - shifted[target])

def cross_entropy_backward(logits: np.ndarray, target: int) -> np.ndarray:
    """dlogits = softmax(logits) - onehot(target)."""
    g = softmax_last_dim(logits).copy()
    g[target] -= 1.0
    return g


def finite_difference_gradient(f, x: np.ndarray, h: float = 1e-3) -> np.ndarray:
    """Central differences (f(x+h*e_i) - f(x-h*e_i)) / (2h), coordinatewise.

    Perturbations happen in float64 so the oracle is not limited by the
    storage precision of x; f decides its own evaluation precision.
    """
    if h <= 0:
        raise ParameterError(f"finite difference step must be positive, got {h}")
    base = np.array(x, dtype=np.float64)
    grad = np.zeros(base.shape, dtype=np.float64)
    flat = base.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(base)
        flat[i] = orig - h
        fm = f(base)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad
