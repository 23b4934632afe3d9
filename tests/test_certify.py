"""Vote math, certification thresholds, and the exhaustive adversary."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from patchcert import certify, vit
from patchcert.ablation import AblationSpec, ablation_anchors, ablation_set
from patchcert.bench import smoothing_cost
from patchcert.certify import (
    FlipSearchResult,
    adversarial_flip_search,
    aggregate_votes,
    certified_accuracy,
    certify_votes,
    delta_closed_form,
    delta_oracle,
    smoothed_predict,
)
from patchcert.errors import BudgetError, EmptyVotesError, InputError, ParameterError
from patchcert.train import LabeledDataset
from patchcert.vit import Model, ViTConfig
from references import strongest_patches

TOY_CONFIG = ViTConfig(h=16, w=16, c=1, p=4, d=32, heads=4, layers=2, k=4)


# ---------------------------------------------------------------------------
# votes


def test_aggregate_votes_basic():
    v = aggregate_votes([0, 0, 1], k=2)
    assert v.tolist() == [2, 1] and v.dtype == np.int64


def test_aggregate_votes_empty_and_predict_error():
    v = aggregate_votes([], k=3)
    assert v.tolist() == [0, 0, 0] and v.dtype == np.int64
    with pytest.raises(EmptyVotesError):
        smoothed_predict(v)


def test_aggregate_votes_unanimous():
    v = aggregate_votes([3] * 224, k=10)
    assert v[3] == 224
    assert v.sum() == 224


def test_aggregate_votes_range_check():
    with pytest.raises(InputError):
        aggregate_votes([0, 2], k=2)


def test_smoothed_predict_tie_breaks_low():
    assert smoothed_predict(aggregate_votes([0] * 5 + [1] * 3, 2)) == 0
    assert smoothed_predict(aggregate_votes([0] * 4 + [1] * 4, 2)) == 0
    assert smoothed_predict(aggregate_votes([0] * 2 + [1] * 7 + [2], 3)) == 1


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=30), st.randoms())
def test_smoothed_predict_is_permutation_invariant(preds, pyrng):
    shuffled = list(preds)
    pyrng.shuffle(shuffled)
    a = smoothed_predict(aggregate_votes(preds, 4))
    b = smoothed_predict(aggregate_votes(shuffled, 4))
    assert a == b


# ---------------------------------------------------------------------------
# closed-form thresholds


def test_delta_column_unstrided_matches_paper_formula():
    spec = AblationSpec("column", b=19)
    assert delta_closed_form(spec, 32, "paper", dims=(224, 224)) == 50
    assert delta_closed_form(spec, 32, "safe", dims=(224, 224)) == 50


def test_delta_block_unstrided():
    spec = AblationSpec("block", b=75)
    assert delta_closed_form(spec, 32, "paper", dims=(224, 224)) == 106 * 106 == 11236
    assert delta_closed_form(spec, 32, "safe", dims=(224, 224)) == 11236


def test_delta_strided_literal_formulas():
    # the published strided formula, as written
    assert delta_closed_form(AblationSpec("column", 19, 10), 32, "paper", dims=(224, 224)) == 5
    assert delta_closed_form(AblationSpec("column", 19, 5), 32, "paper", dims=(224, 224)) == 8


def test_delta_strided_exact_counts_include_wrap_gap():
    # 224 % 5 == 4, so the strided start grid has a short wrap gap and the
    # exact count exceeds both literal formulas; the oracle is the referee.
    for s, expect in [(5, 11), (10, 6)]:
        spec = AblationSpec("column", 19, s)
        exact = delta_closed_form(spec, 32, "safe", dims=(224, 224))
        assert exact == delta_oracle(224, 224, spec, 32) == expect


def test_delta_oracle_small_cases():
    assert delta_oracle(8, 8, AblationSpec("column", b=3), 2) == 4  # m+b-1
    assert delta_oracle(12, 12, AblationSpec("column", b=3, s=2), 2) == 2
    for b in (1, 3, 8):
        assert delta_oracle(8, 8, AblationSpec("column", b=b), 8) == 8


def test_delta_oracle_wrap_gap_undercount_of_literal_formula():
    spec = AblationSpec("column", b=3, s=4)
    assert delta_oracle(10, 10, spec, 2) == 2
    assert delta_closed_form(spec, 2, "safe", dims=(10, 10)) == 2


def test_exact_safe_equals_oracle_on_mini_grid():
    for w in range(2, 25):
        for s in range(1, min(6, w + 1)):
            for b in range(1, w + 1):
                for m in range(1, min(6, w) + 1):
                    spec = AblationSpec("column", b=b, s=s)
                    exact = delta_closed_form(spec, m, "safe", dims=(16, w))
                    assert exact == delta_oracle(16, w, spec, m), (w, s, b, m)


def test_exact_safe_equals_oracle_blocks_mini_grid():
    for h, w in [(6, 6), (8, 10), (9, 7)]:
        for s in (1, 2, 3):
            for b in (1, 2, 3, 5):
                if b > min(h, w):
                    continue
                for m in (1, 2, 4):
                    if m > min(h, w):
                        continue
                    spec = AblationSpec("block", b=b, s=s)
                    exact = delta_closed_form(spec, m, "safe", dims=(h, w))
                    assert exact == delta_oracle(h, w, spec, m), (h, w, s, b, m)


def test_delta_oracle_budget_guard(monkeypatch):
    # 4000 x 4000 blocks of side 1 cost 2 * 4000**3 products per count;
    # the guard refuses them before it builds any table
    def no_table(*args):
        raise AssertionError("a hit table was built")

    monkeypatch.setattr(certify, "axis_intervals", no_table)
    with pytest.raises(BudgetError, match="128000000000 products"):
        delta_oracle(4000, 4000, AblationSpec("block", b=1), 1)
    with pytest.raises(BudgetError):
        adversarial_flip_search([0], AblationSpec("block", b=1), 4000, 4000, 1, 0, 2)


def test_delta_validation():
    with pytest.raises(ParameterError):
        delta_closed_form(AblationSpec("column", 3), 0, "safe", dims=(8, 8))
    with pytest.raises(ParameterError):
        delta_closed_form(AblationSpec("column", 3), 2, "exact", dims=(8, 8))
    with pytest.raises(ParameterError):
        delta_oracle(8, 8, AblationSpec("column", 3), 9)
    for m in (2.9, True):
        with pytest.raises(ParameterError, match="admits no placement"):
            delta_oracle(8, 8, AblationSpec("column", 3), m)
        with pytest.raises(ParameterError, match="admits no placement"):
            adversarial_flip_search([0] * 8, AblationSpec("column", 3), 8, 8, m, 0, 2)


@pytest.mark.parametrize("mode", ["safe", "paper"])
def test_delta_closed_form_rejects_a_patch_larger_than_the_image(mode):
    for kind in ("column", "block"):
        spec = AblationSpec(kind, 3)
        assert delta_closed_form(spec, 8, mode, dims=(8, 12)) > 0
        for m in (9, 13, 0, 2.9, True):  # a bool or a float is no patch side
            with pytest.raises(ParameterError, match="admits no placement"):
                delta_closed_form(spec, m, mode, dims=(8, 12))
    with pytest.raises(TypeError):
        delta_closed_form(AblationSpec("column", 3), 2, mode)  # no image, no threshold


@pytest.mark.parametrize("mode", ["safe", "paper"])
def test_delta_closed_form_rejects_a_block_offset_without_anchor_rows(mode):
    # offset 9 >= h = 6: the spec has no ablation, so no threshold is meaningful
    spec = AblationSpec("block", 6, 11, 9)
    with pytest.raises(ParameterError, match="no ablation anchor"):
        delta_closed_form(spec, 4, mode, dims=(6, 13))
    with pytest.raises(ParameterError, match="no ablation anchor"):
        delta_oracle(6, 13, spec, 4)


# ---------------------------------------------------------------------------
# certification


def test_certify_votes_inequality_is_strict():
    v = aggregate_votes([0] * 10 + [1] * 3, 2)
    assert certify_votes(v, delta=3, m=2).certified  # 10 > 3 + 6
    v = aggregate_votes([0] * 10 + [1] * 4, 2)
    assert not certify_votes(v, delta=3, m=2).certified  # 10 <= 4 + 6


def test_certify_votes_unanimous_imagenet_scale():
    v = aggregate_votes([0] * 224, 10)
    cert = certify_votes(v, delta=50, m=32)
    assert cert.certified and cert.margin == 224 and cert.runner_up == 1


def test_certify_votes_fields_and_errors():
    v = aggregate_votes([2, 2, 1], 4)
    cert = certify_votes(v, delta=0, m=1, delta_mode="oracle")
    assert cert.predicted == 2 and cert.runner_up == 1
    assert cert.margin == 1 and cert.delta_mode == "oracle"
    assert cert.certified == (v[2] > v[1] + 0)
    with pytest.raises(EmptyVotesError):
        certify_votes(np.zeros(2, np.int64), 1, 1)
    with pytest.raises(ParameterError):
        certify_votes(v, delta=-1, m=1)
    with pytest.raises(ParameterError, match="at least two classes"):
        certify_votes(np.array([3], np.int64), delta=0, m=1)


# ---------------------------------------------------------------------------
# adversarial flip search


def test_flip_search_margin_survives_attack():
    # 5 single-column ablations, all voting class 0; a 2x2 patch touches
    # at most 2 of them, leaving 3 votes to 2 after the worst reassignment.
    spec = AblationSpec("column", b=1)
    res = adversarial_flip_search([0] * 5, spec, h=5, w=5, m=2, true_class=0, k=2)
    assert not res.changed
    assert res.worst_prediction == 0
    assert res.post_counts == (3, 2)


def test_flip_search_finds_tie_break_flip():
    # rival class 0 sits below predicted class 1, so forcing a tie flips
    spec = AblationSpec("column", b=1)
    votes = [1, 1, 1, 0, 0]
    res = adversarial_flip_search(votes, spec, h=5, w=5, m=1, true_class=1, k=2)
    assert res.changed
    assert smoothed_predict(aggregate_votes(votes, 2)) == 1
    assert res.worst_prediction == 0
    assert res.post_counts == (3, 2)


def test_flip_search_rejects_oversized_patch():
    with pytest.raises(ParameterError):
        adversarial_flip_search([0, 1], AblationSpec("column", 1), 2, 2, m=3, true_class=0, k=2)


def test_flip_search_needs_predictions_and_two_classes():
    spec = AblationSpec("column", 1)
    with pytest.raises(InputError, match="at least one per-ablation prediction"):
        adversarial_flip_search([], spec, 4, 4, m=1, true_class=0, k=2)
    with pytest.raises(ParameterError, match="at least two classes"):
        adversarial_flip_search([0] * 4, spec, 4, 4, m=1, true_class=0, k=1)
    # a prediction at or past k names the two-class rule, not the vote range
    for k, pred in ((1, 1), (0, 0), (1, 3)):
        with pytest.raises(ParameterError, match="at least two classes"):
            adversarial_flip_search([pred] * 4, spec, 4, 4, m=1, true_class=0, k=k)


def test_flip_search_prediction_count_mismatch():
    with pytest.raises(InputError):
        adversarial_flip_search([0, 1], AblationSpec("column", 1), 4, 4, m=1, true_class=0, k=2)


def test_flip_search_soundness_against_oracle_delta():
    rng = np.random.default_rng(17)
    for _ in range(40):
        w = int(rng.integers(4, 13))
        h = int(rng.integers(4, 13))
        kind = rng.choice(["column", "block"])
        b = int(rng.integers(1, (w if kind == "column" else min(h, w)) + 1))
        s = int(rng.integers(1, 4))
        m = int(rng.integers(1, min(4, h, w) + 1))
        spec = AblationSpec(kind, b=b, s=s)
        q = len(ablation_anchors(h, w, spec))
        k = int(rng.integers(2, 5))
        favored = int(rng.integers(0, k))
        preds = np.where(
            rng.uniform(size=q) < 0.8, favored, rng.integers(0, k, size=q)
        ).astype(int)
        delta = delta_oracle(h, w, spec, m)
        cert = certify_votes(aggregate_votes(preds, k), delta, m)
        res = adversarial_flip_search(preds, spec, h, w, m, favored, k=k)
        if cert.certified:
            assert not res.changed, (h, w, kind, b, s, m, preds.tolist())


# The slow path the separable hit tables replace: a (ablations x placements)
# table built from the real masks, and a scan over every (placement, rival).


def _reference_intersection_matrix(h, w, spec, m):
    masks = np.stack([a.mask for a in ablation_set(np.zeros((h, w, 1)), spec)]).astype(np.int32)
    pref = np.zeros((masks.shape[0], h + 1, w + 1), dtype=np.int32)
    pref[:, 1:, 1:] = masks.cumsum(axis=1).cumsum(axis=2)
    window = pref[:, m:, m:] - pref[:, :-m, m:] - pref[:, m:, :-m] + pref[:, :-m, :-m]
    placements = [(t, l) for t in range(h - m + 1) for l in range(w - m + 1)]
    return (window > 0).reshape(masks.shape[0], -1), placements


def _reference_flip_search(preds, spec, h, w, m, k):
    hits, placements = _reference_intersection_matrix(h, w, spec, m)
    preds = np.asarray(preds, dtype=np.int64)
    base = np.bincount(preds, minlength=k).astype(np.int64)
    g0 = int(np.argmax(base))
    onehot = np.eye(k, dtype=np.int64)[preds]
    in_patch = hits.T.astype(np.int64) @ onehot
    sizes = hits.sum(axis=0).astype(np.int64)
    best = None
    for r in range(k):
        if r == g0:
            continue
        post = base[None, :] - in_patch
        post[:, r] += sizes
        pred_after = np.argmax(post, axis=1)
        adv = post[:, r] - post[:, g0]
        for j in range(len(placements)):
            changed = int(pred_after[j]) != g0
            key = (changed, int(adv[j]), -j, -r)
            if best is None or key > best[0]:
                best = (key, FlipSearchResult(
                    changed=changed, worst_prediction=int(pred_after[j]), placement=placements[j],
                    post_counts=tuple(int(c) for c in post[j]), advantage=int(adv[j]),
                ))
    return best[1]


def test_flip_search_near_tightness_constructive():
    # place every intersected ablation on the predicted class; with margin
    # <= 2*delta and a lower-index rival, the adversary must force a change
    h = w = 12
    spec = AblationSpec("column", b=3, s=1)
    m = 2
    delta = delta_oracle(h, w, spec, m)  # = 4
    q = len(ablation_anchors(h, w, spec))
    hits, _ = _reference_intersection_matrix(h, w, spec, m)
    counts = hits.sum(axis=0)
    j = int(np.argmax(counts))
    intersected = np.nonzero(hits[:, j])[0]
    assert counts[j] == delta
    preds = np.zeros(q, dtype=int)  # rival class 0 everywhere else
    preds[intersected] = 1
    extra = [i for i in range(q) if i not in set(intersected.tolist())]
    preds[extra[: delta + 1]] = 1  # predicted class 1 leads, margin <= 2*delta
    votes = aggregate_votes(preds, 2)
    assert smoothed_predict(votes) == 1
    margin = votes[1] - votes[0]
    assert 0 < margin <= 2 * delta
    res = adversarial_flip_search(preds, spec, h, w, m, true_class=1, k=2)
    assert res.changed and res.worst_prediction == 0


@st.composite
def _audit_case(draw):
    h = draw(st.integers(1, 12))
    w = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["column", "block"]))
    b = draw(st.integers(1, w if kind == "column" else min(h, w)))
    s = draw(st.integers(1, w))
    spec = AblationSpec(kind, b, s, draw(st.integers(0, s - 1)))
    m = draw(st.integers(1, min(h, w)))
    k = draw(st.integers(2, 8))
    # a block offset of h or more leaves no anchor row: no ablation
    q = 0 if kind == "block" and spec.offset >= h else len(ablation_anchors(h, w, spec))
    favored = draw(st.integers(0, k - 1))
    # skewed votes (one class dominates) or near-uniform ones, which tie often
    skew = draw(st.sampled_from([0.0, 0.5, 0.9]))
    vote = st.tuples(st.floats(0, 1), st.integers(0, k - 1))
    draws = draw(st.lists(vote, min_size=q, max_size=q))
    preds = [favored if u < skew else c for u, c in draws]
    return h, w, spec, m, k, preds


@settings(deadline=None, max_examples=150)
@given(_audit_case())
@example((6, 13, AblationSpec("block", 6, 11, 9), 4, 2, []))  # offset 9 >= h: no anchor row
def test_hit_tables_match_the_mask_reference(case):
    h, w, spec, m, k, preds = case
    if not preds:
        with pytest.raises(ParameterError):
            delta_oracle(h, w, spec, m)
        with pytest.raises(ParameterError):
            delta_closed_form(spec, m, "safe", dims=(h, w))
        with pytest.raises(ParameterError):
            adversarial_flip_search([0], spec, h, w, m, 0, k)
        return
    hits, _ = _reference_intersection_matrix(h, w, spec, m)
    assert delta_oracle(h, w, spec, m) == int(hits.sum(axis=0).max())
    assert delta_closed_form(spec, m, "safe", dims=(h, w)) == int(hits.sum(axis=0).max())
    found = adversarial_flip_search(preds, spec, h, w, m, preds[0], k)
    assert found == _reference_flip_search(preds, spec, h, w, m, k)
    assert type(found.changed) is bool
    assert all(type(v) is int for v in found.placement + found.post_counts)


@st.composite
def _tiny_case(draw):
    # few enough ablations (at most 7) and classes (at most 3) to enumerate every vote
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["column", "block"]))
    b = draw(st.integers(1, w if kind == "column" else min(h, w)))
    s = draw(st.integers(1, w))
    offset = draw(st.integers(0, (min(s, h) if kind == "block" else s) - 1))  # an anchor row
    spec = AblationSpec(kind, b, s, offset)
    q = len(ablation_anchors(h, w, spec))
    assume(q <= 7)
    m = draw(st.integers(1, min(h, w)))
    k = draw(st.integers(2, 3))
    # skewed votes: most of them on one class, so that a flip is not a foregone conclusion
    favored = draw(st.integers(0, k - 1))
    skew = draw(st.sampled_from([0.75, 0.9, 1.0]))
    draws = draw(st.lists(st.tuples(st.floats(0, 1), st.integers(0, k - 1)), min_size=q,
                          max_size=q))
    return h, w, spec, m, k, [favored if u < skew else c for u, c in draws]


@settings(deadline=None, max_examples=150)
@given(_tiny_case())
@example((6, 6, AblationSpec("column", 2, 1), 1, 2, [0] * 6))  # 6 to 0, two hit: holds
@example((6, 6, AblationSpec("column", 2, 1), 1, 2, [0, 0, 0, 1, 1, 1]))  # a tie: flips
def test_flip_search_flips_exactly_when_some_reassignment_of_the_hit_votes_does(case):
    # the search moves every hit ablation onto one rival; here every placement tries every
    # reassignment of its hit ablations' votes, read under smoothed_predict's tie rule
    h, w, spec, m, k, preds = case
    preds = np.asarray(preds, dtype=np.int64)
    base = aggregate_votes(preds, k)
    g0 = smoothed_predict(base)
    hits, _ = _reference_intersection_matrix(h, w, spec, m)
    flips = False
    for hit in {tuple(np.nonzero(placement)[0]) for placement in hits.T}:
        votes = np.array(list(itertools.product(range(k), repeat=len(hit))), dtype=np.int64)
        counts = (votes[..., None] == np.arange(k)).sum(axis=1)  # one row per reassignment
        post = base - aggregate_votes(preds[list(hit)], k) + counts
        flips |= any(smoothed_predict(row) != g0 for row in np.unique(post, axis=0))
    found = adversarial_flip_search(preds, spec, h, w, m, g0, k)
    assert found.changed == flips


@pytest.mark.parametrize("m", [16, 32, 64])
def test_delta_oracle_matches_the_mask_reference_at_imagenet_scale(m):
    spec = AblationSpec("column", 19, 10)
    hits, _ = _reference_intersection_matrix(224, 224, spec, m)
    assert delta_oracle(224, 224, spec, m) == int(hits.sum(axis=0).max())


_IMAGENET_VOTES = {
    "random-0": np.random.default_rng(0).integers(0, 4, 23).tolist(),
    "random-1": np.random.default_rng(1).integers(0, 4, 23).tolist(),
    # 17 to 5, and the six ablations around the short wrap gap (Delta = 6)
    # vote for the leader: the best attack ties, which flips only toward a lower class
    "tie-flips": [1] * 6 + [0] * 5 + [2] + [1] * 11,
    "tie-holds": [0] * 6 + [1] * 5 + [2] + [0] * 11,
}


@pytest.mark.parametrize("votes", _IMAGENET_VOTES)
def test_flip_search_matches_the_reference_at_imagenet_scale(votes):
    # the paper's ImageNet column setting: 23 ablations, 193 x 193 placements
    spec = AblationSpec("column", 19, 10)
    preds = _IMAGENET_VOTES[votes]
    assert len(preds) == len(ablation_anchors(224, 224, spec))
    found = adversarial_flip_search(preds, spec, 224, 224, 32, preds[0], 4)
    assert found == _reference_flip_search(preds, spec, 224, 224, 32, 4)
    if votes.startswith("tie"):
        assert found.advantage == 0 and found.changed == (votes == "tie-flips")


def test_oracle_and_flip_search_run_at_the_imagenet_block_setting():
    # 224 x 224 blocks of side 19: 50,176 ablations, 193 x 193 placements
    spec = AblationSpec("block", 19)
    assert delta_oracle(224, 224, spec, 32) == 2500  # (b + m - 1)**2
    assert delta_closed_form(spec, 32, "safe", dims=(224, 224)) == 2500
    found = adversarial_flip_search([0] * 224 * 224, spec, 224, 224, 32, 0, 2)
    assert found == FlipSearchResult(
        changed=False, worst_prediction=0, placement=(0, 0), post_counts=(47676, 2500),
        advantage=-45176,
    )


# ---------------------------------------------------------------------------
# the certificate's premise, through pixels: a patch changes only the
# ablations whose kept pixels it touches


@st.composite
def _paste_case(draw):
    p = draw(st.integers(1, 3))
    h, w = p * draw(st.integers(1, 4)), p * draw(st.integers(1, 4))
    cfg = ViTConfig(h=h, w=w, c=draw(st.sampled_from([1, 3])), p=p, d=4, heads=2,
                    layers=draw(st.integers(1, 2)), k=3)
    # mostly blocks: a column set's row mask keeps every row
    kind = draw(st.sampled_from(["block", "block", "column"]))
    s = draw(st.integers(1, w))
    offset = draw(st.integers(0, (s if kind == "column" else min(s, h)) - 1))
    b = draw(st.integers(1, w if kind == "column" else min(h, w)))
    m = draw(st.integers(1, min(h, w)))
    top, left = draw(st.integers(0, h - m)), draw(st.integers(0, w - m))
    content = draw(st.sampled_from(["random", "zero", "one", "copy"]))
    return cfg, AblationSpec(kind, b, s, offset), m, (top, left), content, draw(st.integers(0, 2**16))


@settings(deadline=None, max_examples=150)
@given(_paste_case())
def test_a_pasted_patch_leaves_every_ablation_it_does_not_hit_bitwise_unchanged(case):
    cfg, spec, m, (top, left), content, seed = case
    rng = np.random.default_rng(seed)
    model = Model.init(cfg, seed=seed)
    clean = rng.uniform(0, 1, size=(cfg.h, cfg.w, cfg.c)).astype(np.float32)
    patched = clean.copy()
    if content == "copy":
        src_top, src_left = rng.integers(0, cfg.h - m + 1), rng.integers(0, cfg.w - m + 1)
        patch = clean[src_top : src_top + m, src_left : src_left + m]
    else:
        patch = {"random": rng.uniform(0, 1, size=(m, m, cfg.c)), "zero": 0.0, "one": 1.0}[content]
    patched[top : top + m, left : left + m] = patch

    core, tokens = vit._encoder_core, smoothing_cost(cfg, spec)["tokens"]

    def logits(image):
        stacks = []

        def recorded(*args, **kwargs):
            stacks.append(core(*args, **kwargs))
            return stacks[-1]

        with mock.patch.object(vit, "_encoder_core", recorded):
            vit.per_ablation_predictions(image, spec, model.params, cfg)
        # stacks take the ablations of each token count in anchor order, counts ascending
        by_ablation = np.empty((len(tokens), cfg.k), np.float32)
        by_ablation[np.argsort(tokens, kind="stable")] = np.concatenate(stacks)
        return by_ablation

    before, after = logits(clean), logits(patched)
    rowhit, colhit = certify._axis_hits(cfg.h, cfg.w, spec, m)
    hit = np.outer(rowhit[:, top if spec.kind == "block" else 0], colhit[:, left]).ravel()
    for j in np.nonzero(hit == 0)[0]:
        assert before[j].tobytes() == after[j].tobytes(), f"ablation {j} changed"


# tiny 4x4-cell models whose blocks end inside a cell; the init is scaled up
# so that a patch can move the votes of the ablations it hits
PREMISE_CASES = [
    (ViTConfig(h=8, w=8, c=1, p=2, d=8, heads=2, layers=1, k=3), AblationSpec("block", 3, 2), 1),
    (ViTConfig(h=12, w=12, c=3, p=3, d=8, heads=2, layers=1, k=3), AblationSpec("block", 4, 3, 1), 2),
]


@pytest.mark.parametrize("cfg,spec,m", PREMISE_CASES, ids=["b3-s2-m1", "b4-s3-offset1-m2"])
def test_no_searched_patch_moves_a_certified_prediction_or_a_vote_it_does_not_hit(cfg, spec, m):
    rowhit, colhit = certify._axis_hits(cfg.h, cfg.w, spec, m)
    delta = delta_closed_form(spec, m, "safe", dims=(cfg.h, cfg.w))
    images = moved = 0
    for seed in range(40):
        model = Model.init(cfg, seed=seed)
        for name, value in model.params.items():
            if "ln" not in name:
                value *= 10.0
        x = np.random.default_rng(seed).uniform(0, 1, (cfg.h, cfg.w, cfg.c)).astype(np.float32)
        clean = vit.per_ablation_predictions(x, spec, model.params, cfg)
        cert = certify_votes(aggregate_votes(clean, cfg.k), delta, m)
        if not cert.certified:
            continue
        images += 1
        for top, left, patched in strongest_patches(x, spec, model, m, np.random.default_rng(seed)):
            after = vit.per_ablation_predictions(patched, spec, model.params, cfg)
            hit = np.outer(rowhit[:, top], colhit[:, left]).ravel() > 0
            assert np.array_equal(after[~hit], clean[~hit]), (seed, top, left)
            assert smoothed_predict(aggregate_votes(after, cfg.k)) == cert.predicted
            moved += np.count_nonzero(after[hit] != clean[hit])
        if images == 2:
            break
    assert images == 2 and moved > 0  # certified images, and a search that moves votes


# ---------------------------------------------------------------------------
# dataset-level certification


def _constant_model(target_class: int) -> Model:
    model = Model.init(TOY_CONFIG, seed=0)
    for key, value in model.params.items():
        model.params[key] = np.zeros_like(value)
    model.params["final_ln.gamma"] = np.ones_like(model.params["final_ln.gamma"])
    bias = np.zeros_like(model.params["head.bias"])
    bias[target_class] = 1.0
    model.params["head.bias"] = bias
    return model


def _single_image_dataset(label: int) -> LabeledDataset:
    rng = np.random.default_rng(5)
    images = rng.uniform(0, 1, size=(1, 16, 16, 1)).astype(np.float32)
    return LabeledDataset(
        images=images,
        labels=np.array([label], dtype=np.int64),
        splits=np.array(["test"], dtype=object),
        k=4,
    )


def test_certified_accuracy_all_votes_correct():
    report = certified_accuracy(
        _single_image_dataset(2), _constant_model(2), AblationSpec("column", 3), [2]
    )
    assert report["standard_accuracy"] == 1.0
    assert report["certified"][0]["accuracy"] == 1.0
    assert report["certified"][0]["delta"] == 4


def test_certified_accuracy_requires_correctness():
    report = certified_accuracy(
        _single_image_dataset(0), _constant_model(2), AblationSpec("column", 3), [2]
    )
    assert report["standard_accuracy"] == 0.0
    assert report["certified"][0]["accuracy"] == 0.0
    # the prediction itself is robust; only correctness fails
    assert report["per_image"][0]["certified"]["2"] is True


def test_certified_accuracy_images_are_independent():
    data = LabeledDataset(
        images=np.random.default_rng(9).uniform(0, 1, (4, 16, 16, 1)).astype(np.float32),
        labels=np.array([0, 1, 2, 3], dtype=np.int64),
        splits=np.array(["test"] * 4, dtype=object),
        k=4,
    )
    model = Model.init(TOY_CONFIG, seed=3)
    spec = AblationSpec("column", 3)
    whole = certified_accuracy(data, model, spec, [1, 2])
    for i in range(4):
        one = LabeledDataset(images=data.images[i : i + 1], labels=data.labels[i : i + 1],
                             splits=data.splits[i : i + 1], k=4)
        alone = certified_accuracy(one, model, spec, [1, 2])["per_image"][0]
        assert whole["per_image"][i] == dict(alone, index=i)


def test_certified_accuracy_empty_dataset_rejected():
    empty = LabeledDataset(
        images=np.zeros((0, 16, 16, 1), np.float32),
        labels=np.zeros(0, np.int64),
        splits=np.array([], dtype=object),
        k=4,
    )
    with pytest.raises(InputError):
        certified_accuracy(empty, _constant_model(0), AblationSpec("column", 3), [2])


def test_certified_accuracy_counts_a_repeated_patch_size_once():
    report = certified_accuracy(
        _single_image_dataset(2), _constant_model(2), AblationSpec("column", 3), [2, 1, 2]
    )
    assert [(e["m"], e["accuracy"]) for e in report["certified"]] == [(2, 1.0), (1, 1.0)]
    assert report["per_image"][0]["certified"] == {"2": True, "1": True}


def test_certified_accuracy_needs_a_patch_size():
    for sizes in ([], [2.9], [1, True]):  # a float or a bool is refused, not cast or merged
        with pytest.raises(ParameterError):
            certified_accuracy(
                _single_image_dataset(2), _constant_model(2), AblationSpec("column", 3), sizes)


def test_certified_accuracy_certifies_only_with_an_exact_delta(monkeypatch):
    data, model, spec = _single_image_dataset(2), _constant_model(2), AblationSpec("column", 3)
    safe = certified_accuracy(data, model, spec, [2, 5])
    oracle = certified_accuracy(data, model, spec, [2, 5], "oracle")
    assert oracle == dict(safe, delta_mode="oracle")
    # the published formula under-counts some strided sets: it never certifies
    with pytest.raises(ParameterError, match="'paper'"):
        certified_accuracy(data, model, spec, [2], "paper")
    monkeypatch.setattr(certify, "ORACLE_BUDGET", 1)
    with pytest.raises(BudgetError):
        certified_accuracy(data, model, spec, [2], "oracle")
