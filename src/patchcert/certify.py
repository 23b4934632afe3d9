"""Vote aggregation, smoothed prediction, and patch certification.

A smoothed classifier predicts the most frequent class over an ablation
set and is certifiably robust when the top class leads the runner-up by
more than 2*Delta votes, where Delta is the maximum number of ablations
a single m*m patch can intersect. Only an exact Delta certifies, and
each is computed for a given image size:

* closed form, ``safe`` mode: per axis, the most retained intervals one
  window of m pixels meets, from prefix sums of the strided starts. An
  ablation keeps one interval per axis, so the ablations a placement
  hits are its row hits times its column hits, and Delta is the product
  of each axis's largest count;
* ``delta_oracle``: counts the ablations every placement hits from
  the per-axis window-hit tables, exact by construction;
* closed form, ``paper`` mode: the published formulas, for comparison
  only. They under-count when the stride does not divide the width (the
  strided start grid has one short wrap gap), so nothing certifies by them.

Votes are an int64 array of per-ablation predictions, counted into a
(k,) int64 array of per-class votes. Certification uses integer
arithmetic only and breaks argmax ties by lowest class index everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ablation import AblationSpec, axis_intervals
from .errors import BudgetError, EmptyVotesError, InputError, ParameterError

__all__ = [
    "Certificate",
    "FlipSearchResult",
    "aggregate_votes",
    "smoothed_predict",
    "delta_closed_form",
    "delta_oracle",
    "certify_votes",
    "adversarial_flip_search",
    "certified_accuracy",
]

ORACLE_BUDGET = 10**8


@dataclass(frozen=True)
class Certificate:
    predicted: int
    runner_up: int
    margin: int
    delta: int
    patch_m: int
    certified: bool
    delta_mode: str


@dataclass(frozen=True)
class FlipSearchResult:
    changed: bool
    worst_prediction: int
    placement: tuple
    post_counts: tuple
    advantage: int


def aggregate_votes(predictions, k: int) -> np.ndarray:
    """(k,) int64 array of per-class counts of an int64 array of predictions."""
    preds = np.asarray(predictions, dtype=np.int64)
    if preds.size and (preds.min() < 0 or preds.max() >= k):
        raise InputError(f"prediction outside [0, {k}) in vote aggregation")
    return np.bincount(preds, minlength=k)


def smoothed_predict(votes: np.ndarray) -> int:
    """Majority class of an int64 vote-count array; ties break to the lowest class index."""
    if not votes.any():
        raise EmptyVotesError("cannot predict from an empty vote aggregate")
    return int(np.argmax(votes))


def _check_placement(h: int, w: int, spec: AblationSpec, m) -> None:
    """Refuse a spec without ablations on an h*w image, then a patch side m without placements."""
    spec.validate_for(h, w)
    if type(m) is not int or not 1 <= m <= min(h, w):  # a bool or a float is no side
        raise ParameterError(f"patch side {m!r} admits no placement in {h}x{w}")


def delta_closed_form(spec: AblationSpec, m: int, mode: str, dims) -> int:
    """Certification threshold Delta of an m*m patch on a dims=(h, w) image.

    ``paper`` reproduces the published formulas; ``safe`` is the product,
    over the kind's axes, of the most retained intervals that one window
    of m pixels meets.
    """
    if mode not in ("safe", "paper"):
        raise ParameterError(f"unknown delta mode {mode!r}; use safe or paper")
    h, w = dims
    _check_placement(h, w, spec, m)
    if mode == "paper":
        d1 = m + spec.b - 1 if spec.s == 1 else math.ceil((m + spec.s - 1) / spec.s)
        return d1 if spec.kind == "column" else d1 * d1
    sizes = (w,) if spec.kind == "column" else (h, w)
    return math.prod(_most_window_hits(n, spec, m) for n in sizes)


def _most_window_hits(size: int, spec: AblationSpec, m: int) -> int:
    """Most retained intervals along one axis that a window [t, t+m) meets, in O(size) memory.

    The interval starting at a meets it iff a lies in the cyclic arc of
    min(b+m-1, size) positions ending at t+m-1, so each window's count is
    a difference of prefix sums of the start indicator, tiled twice for the wrap.
    """
    arc = min(spec.b + m - 1, size)
    starts = np.tile(np.arange(size) % spec.s == spec.offset, 2)
    pref = np.concatenate(([0], np.cumsum(starts)))
    return int((pref[size + m :] - pref[size + m - arc : 2 * size + 1 - arc]).max())


def _window_hits(axis: np.ndarray, m: int) -> np.ndarray:
    """(q, size-m+1) 0/1 float64: does the window [t, t+m) meet row j of ``axis_intervals``."""
    pref = np.zeros((axis.shape[0], axis.shape[1] + 1), dtype=np.int64)
    np.cumsum(axis, axis=1, out=pref[:, 1:])
    return (pref[:, m:] > pref[:, :-m]).astype(np.float64)


def _axis_hits(h: int, w: int, spec: AblationSpec, m: int):
    """Window hits R (row intervals, tops) and C (column intervals, w-m+1).

    Ablation (i, l), row-major in anchor order, keeps row interval i x
    column interval l, so a patch at (top, left) hits it iff R[i, top]
    and C[l, left]. A column keeps every row, so every top hits alike:
    R is [[1]], and top 0 stands for all of them.
    """
    _check_placement(h, w, spec, m)
    rows, tops = (len(range(spec.offset, h, spec.s)), h - m + 1) if spec.kind == "block" else (1, 1)
    cost = rows * (len(range(spec.offset, w, spec.s)) + tops) * (w - m + 1)
    if cost > ORACLE_BUDGET:  # the products of one _placement_hits, charged before any table
        raise BudgetError(f"counting placement hits costs {cost} products, past the "
                          f"budget of {ORACLE_BUDGET}; use the closed form instead")
    rowhit = _window_hits(axis_intervals(h, spec), m) if spec.kind == "block" else np.ones((1, 1))
    return rowhit, _window_hits(axis_intervals(w, spec), m)


def _placement_hits(rowhit: np.ndarray, colhit: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """(tops, w-m+1) int64: each placement's ablation hits, weighted, as R^T (W C).

    W is the per-ablation weight (small integers, anchor order) reshaped
    to (row intervals, column intervals). The products run in float64,
    which numpy sends to BLAS (int64 it does not); every partial sum is an
    integer far below 2**53, so the float result is exact.
    """
    return (rowhit.T @ (weight.reshape(len(rowhit), -1) @ colhit)).astype(np.int64)


def delta_oracle(h: int, w: int, spec: AblationSpec, m: int) -> int:
    """Exact Delta by counting, for every placement, the ablations it hits."""
    rowhit, colhit = _axis_hits(h, w, spec, m)
    return int(_placement_hits(rowhit, colhit, np.ones(len(rowhit) * len(colhit))).max())


def certify_votes(votes: np.ndarray, delta: int, m: int, delta_mode: str = "safe") -> Certificate:
    """Apply the 2*Delta margin test to an int64 vote-count array."""
    predicted = smoothed_predict(votes)
    if delta < 0:
        raise ParameterError(f"delta must be nonnegative, got {delta}")
    if len(votes) < 2:
        raise ParameterError("certification needs at least two classes")
    others = votes.copy()
    others[predicted] = -1
    runner_up = int(np.argmax(others))
    margin = int(votes[predicted] - votes[runner_up])
    return Certificate(
        predicted=predicted,
        runner_up=runner_up,
        margin=margin,
        delta=int(delta),
        patch_m=m,
        certified=bool(margin > 2 * delta),
        delta_mode=delta_mode,
    )


def adversarial_flip_search(
    per_ablation_predictions,
    spec: AblationSpec,
    h: int,
    w: int,
    m: int,
    true_class: int,
    k: int,
) -> FlipSearchResult:
    """Exhaustive worst-case adversary over placements and reassignments.

    For every patch placement the adversary may rewrite the predictions
    of every intersected ablation; moving them all onto a single rival
    class is optimal, so each (placement, rival) pair is scored and the
    most damaging one returned. A change of the smoothed prediction,
    including one forced through the lowest-index tie-break, counts as
    a successful attack. The attack targets the smoothed prediction, so
    true_class does not enter the search.
    """
    preds = np.asarray(per_ablation_predictions, dtype=np.int64)
    if preds.size == 0:
        raise InputError("need at least one per-ablation prediction")
    if k < 2:
        raise ParameterError("flip search needs at least two classes")
    base = aggregate_votes(preds, k)
    rowhit, colhit = _axis_hits(h, w, spec, m)
    if preds.size != len(rowhit) * len(colhit):
        raise InputError(f"{preds.size} predictions but the ablation set has "
                         f"{len(rowhit) * len(colhit)} members")
    g0 = smoothed_predict(base)
    keys = []  # (changed, advantage, -placement, -rival), maximised lexicographically
    for r in range(k):
        if r == g0:
            continue
        # Moving a hit ablation's vote to r gains r one vote on g0: two if
        # it voted g0, none if it voted r. After placement j, r leads g0 by
        # base[r] - base[g0] + gain[j] and takes the prediction iff that
        # lead is positive, or zero with r below g0 (ties go low).
        weight = 1.0 + (preds == g0) - (preds == r)
        gain = _placement_hits(rowhit, colhit, weight)
        j = int(np.argmax(gain))  # the largest lead, at the lowest placement index
        advantage = int(base[r] - base[g0] + gain.flat[j])
        keys.append((advantage + (r < g0) > 0, advantage, -j, -r))
    # Placement j may also hand the prediction to a class c other than r.
    # Then c beats g0 at j without r's gain, so the pair (c, j) flips with
    # a lead at least as large, and on an equal lead c < g0 < r: (c, j)
    # ranks above (r, j), and each rival's own lead decides the best pair.
    flips, advantage, j, r = max(keys)
    j, r = -j, -r
    top, left = divmod(j, w - m + 1)
    hit = np.bincount(preds, np.outer(rowhit[:, top], colhit[:, left]).ravel(), minlength=k)
    post = base - hit.astype(np.int64)
    post[r] += int(hit.sum())
    return FlipSearchResult(
        changed=flips,
        worst_prediction=smoothed_predict(post),
        placement=(top, left),
        post_counts=tuple(int(c) for c in post),
        advantage=advantage,
    )


def certified_accuracy(
    dataset,
    model,
    spec: AblationSpec,
    patch_sizes,
    delta_mode: str = "safe",
) -> dict:
    """Standard and certified accuracy of a smoothed model over a dataset.

    Returns the report record emitted by the CLI: one certified-accuracy
    entry per distinct requested patch size, in first-seen order, plus a
    per-image certificate list, whose runner-up and margin are the image's
    own: they come from its votes alone, whatever the patch size.

    Every Delta is exact. ``delta_mode`` says how it is counted, ``safe``
    (closed form) or ``oracle``; the two agree, and both stay because
    certbench passes both. ``paper`` under-counts and is refused.
    """
    from .vit import smoothed_vit_forward  # deferred: vit builds on this module

    if delta_mode not in ("safe", "oracle"):
        raise ParameterError(f"unknown delta mode {delta_mode!r}; use safe or oracle")
    images = dataset.images
    labels = dataset.labels
    n = len(labels)
    if n == 0:
        raise InputError("dataset is empty")
    h, w = model.cfg.h, model.cfg.w
    # every m is checked, also a repeat, which counts once
    deltas = {m: delta_oracle(h, w, spec, m) if delta_mode == "oracle"
              else delta_closed_form(spec, m, "safe", dims=(h, w)) for m in patch_sizes}
    if not deltas:
        raise ParameterError("need at least one patch size to certify against")
    patch_sizes = list(deltas)

    per_image = []
    n_correct = 0
    n_cert = {m: 0 for m in patch_sizes}
    for i in range(n):
        pred, v = smoothed_vit_forward(images[i], spec, model.params, model.cfg)
        correct = pred == int(labels[i])
        n_correct += correct
        certs = [certify_votes(v, deltas[m], m, delta_mode) for m in patch_sizes]
        for c in certs:
            if correct and c.certified:
                n_cert[c.patch_m] += 1
        per_image.append(
            {
                "index": i,
                "label": int(labels[i]),
                "predicted": pred,
                "runner_up": certs[0].runner_up,
                "margin": certs[0].margin,
                "certified": {str(c.patch_m): c.certified for c in certs},
            }
        )
    return {
        "spec": spec.to_dict(),
        "delta_mode": delta_mode,
        "standard_accuracy": n_correct / n,
        "certified": [
            {"m": m, "delta": deltas[m], "accuracy": n_cert[m] / n} for m in patch_sizes
        ],
        "per_image": per_image,
    }
