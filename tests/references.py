"""Test-only reference implementations: a triple-loop matmul, a per-head
attention product loop, the per-row cross-entropy pair, a central
finite-difference gradient and a pixel-space patch search; and a switch
that puts every smoothing pass on the stack pool."""

import contextlib
from unittest import mock

import numpy as np

from patchcert import certify, vit
from patchcert import numerics as nx
from patchcert.ablation import ablation_anchors, ablation_set
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


def matmul_per_head(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(B, heads, m, k) x (B, heads, k, n) as one 2-D nx.matmul per (set, head).

    The inference forward's attention loop: the oracle for the recorded
    forward's stacked attention products.
    """
    if a.ndim != 4 or a.shape[:2] != b.shape[:2]:
        raise DimensionError(
            f"matmul_per_head expects (B, heads, ...) stacks, got {a.shape} and {b.shape}")
    out = np.empty((*a.shape[:3], b.shape[3]), dtype=np.result_type(a, b))
    for s in range(a.shape[0]):
        for hd in range(a.shape[1]):
            out[s, hd] = nx.matmul(a[s, hd], b[s, hd])
    return out


def cross_entropy_row(logits: np.ndarray, target: int) -> float:
    """-log softmax(logits)[target] for a single length-k logit vector.

    With cross_entropy_row_backward, the per-row slow path of nx.cross_entropy.
    """
    if logits.ndim != 1:
        raise DimensionError(f"cross_entropy expects a 1-D logit vector, got {logits.shape}")
    if not 0 <= target < logits.shape[0]:
        raise ParameterError(f"target {target} outside [0, {logits.shape[0]})")
    shifted = logits - logits.max()
    logz = np.log(np.exp(shifted).sum())
    return float(logz - shifted[target])


def cross_entropy_row_backward(logits: np.ndarray, target: int) -> np.ndarray:
    """dlogits = softmax(logits) - onehot(target)."""
    g = nx.softmax_last_dim(logits)
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


def strongest_patches(x: np.ndarray, spec, model, m: int, rng, restarts: int = 3) -> list:
    """For every placement of an m*m patch on x, the contents that best attack the smoothed vote.

    Returns (top, left, patched image) per placement, row-major. Each
    placement's search takes the best of ``restarts`` random contents and
    all-0 and all-1 contents, then one greedy pass that sets each patch
    value to 0 or 1 where that helps. A candidate scores by the rival's
    lead over the clean smoothed prediction, then by the hit votes it
    moves; only the ablations that ``certify._axis_hits`` says the
    placement hits are re-classified, through ``ablation_set`` and
    ``ablation_logits``.
    """
    cfg = model.cfg
    anchors = ablation_anchors(cfg.h, cfg.w, spec)

    def classify(image, ids):
        zs = ablation_set(image, spec, [anchors[j] for j in ids])
        return np.array([int(np.argmax(vit.ablation_logits(z, model.params, cfg))) for z in zs])

    base = classify(x, range(len(anchors)))
    counts = np.bincount(base, minlength=cfg.k)
    top_class = int(np.argmax(counts))
    rowhit, colhit = certify._axis_hits(cfg.h, cfg.w, spec, m)
    found = []
    for top in range(cfg.h - m + 1):
        for left in range(cfg.w - m + 1):
            row = rowhit[:, top if spec.kind == "block" else 0]
            hit = np.nonzero(np.outer(row, colhit[:, left]).ravel())[0]

            def score(patch):
                image = x.copy()
                image[top : top + m, left : left + m] = patch
                votes = classify(image, hit)
                post = counts + np.bincount(votes, minlength=cfg.k)
                post -= np.bincount(base[hit], minlength=cfg.k)
                lead = max(post[r] - post[top_class] for r in range(cfg.k) if r != top_class)
                return (int(lead), int(np.count_nonzero(votes != base[hit])))

            shape = (m, m, cfg.c)
            starts = [np.zeros(shape), np.ones(shape)]
            starts += [rng.uniform(0, 1, size=shape) for _ in range(restarts)]
            best, patch = max(((score(p), p) for p in starts), key=lambda sp: sp[0])
            for i in np.ndindex(shape):
                for value in (0.0, 1.0):
                    trial = patch.copy()
                    trial[i] = value
                    trial_score = score(trial)
                    if trial_score > best:
                        best, patch = trial_score, trial
            image = x.copy()
            image[top : top + m, left : left + m] = patch
            found.append((top, left, image))
    return found


@contextlib.contextmanager
def forced_stack_pool():
    """per_ablation_predictions runs every config's stacks on a two-worker pool,
    whatever its rule and BLAS's thread count would choose."""
    with mock.patch.object(vit, "POOL_MACS_PER_CALL", 0), \
            mock.patch.object(vit, "_pool_workers", lambda: 2):
        yield
