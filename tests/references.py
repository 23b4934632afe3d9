"""Test-only reference implementations: a triple-loop matmul and a
central finite-difference gradient."""

import numpy as np

from patchcert.errors import DimensionError, ParameterError


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
