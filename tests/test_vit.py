"""The encoder: stacked smoothing engine vs per-ablation path vs masked oracle,
exact MACs, analytic gradients and training determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchcert import vit
from patchcert.ablation import AblationSpec, ablation_set
from patchcert.bench import smoothing_cost
from patchcert.numerics import count_macs, finite_difference_gradient
from patchcert.train import TrainConfig, make_stripe_dataset, train_epoch
from patchcert.vit import (
    Model,
    ViTConfig,
    ablation_logits,
    loss_and_gradients,
    masked_attention_oracle_forward,
    per_ablation_predictions,
)

ORACLE_TOLERANCE = 1e-5
TIE_TOLERANCE = 1e-5  # stacked and single-set products may round differently


def _image(cfg, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=(cfg.h, cfg.w, cfg.c)).astype(np.float32)


def _assert_argmax(preds, logits):
    """Each prediction is the argmax of its logits, up to near-ties."""
    assert len(preds) == len(logits)
    for pred, row in zip(preds, logits):
        if row.max() - np.partition(row, -2)[-2] > TIE_TOLERANCE:
            assert pred == int(np.argmax(row))
        else:
            assert row[pred] >= row.max() - TIE_TOLERANCE


@st.composite
def _case(draw):
    p = draw(st.sampled_from([2, 4]))
    h = p * draw(st.integers(2, 4))
    w = p * draw(st.integers(2, 4))
    cfg = ViTConfig(h=h, w=w, c=draw(st.sampled_from([1, 3])), p=p, d=8, heads=2, layers=1,
                    k=3, use_class_token=draw(st.booleans()))
    kind = draw(st.sampled_from(["column", "block"]))
    b = draw(st.integers(1, w if kind == "column" else min(h, w)))
    s = draw(st.integers(1, w))
    spec = AblationSpec(kind, b, s, draw(st.integers(0, s - 1)))
    return cfg, spec, draw(st.integers(0, 2**16))


@settings(deadline=None, max_examples=40)
@given(_case())
def test_stacked_engine_matches_per_ablation_path_and_oracle(case):
    cfg, spec, seed = case
    model = Model.init(cfg, seed=seed)
    x = _image(cfg, seed)
    logits = []
    for z in ablation_set(x, spec):
        fast = ablation_logits(z, model.params, cfg)
        slow = masked_attention_oracle_forward(z, model.params, cfg)
        assert np.max(np.abs(fast - slow)) <= ORACLE_TOLERANCE
        logits.append(fast)
    _assert_argmax(per_ablation_predictions(x, spec, model.params, cfg), logits)


def test_chunked_groups_match_the_per_ablation_path(monkeypatch):
    # 256 block ablations of 2x2 cells plus a class token: 1280 rows in one group
    cfg = ViTConfig(h=16, w=16, c=3, p=2, d=8, heads=2, layers=2, k=3)
    spec = AblationSpec("block", 3)
    tokens = smoothing_cost(cfg, spec)["tokens"]
    assert max(n * tokens.count(n) for n in set(tokens)) > vit.ROW_BUDGET
    model = Model.init(cfg, seed=4)
    x = _image(cfg, 4)
    preds = per_ablation_predictions(x, spec, model.params, cfg)
    _assert_argmax(preds, [ablation_logits(z, model.params, cfg) for z in ablation_set(x, spec)])
    for budget in (1, 7):
        monkeypatch.setattr(vit, "ROW_BUDGET", budget)
        assert per_ablation_predictions(x, spec, model.params, cfg) == preds


@pytest.mark.parametrize(
    "cfg,spec",
    [
        (ViTConfig(h=32, w=32, c=3, p=4, d=16, heads=2, layers=2, k=4), AblationSpec("block", 8)),
        (ViTConfig(h=16, w=24, c=1, p=4, d=8, heads=2, layers=1, k=3, use_class_token=False),
         AblationSpec("column", 5, 3, 1)),
        (ViTConfig(h=16, w=16, c=1, p=4, d=8, heads=4, layers=2, k=2), AblationSpec("block", 6, 5, 2)),
    ],
)
def test_engine_macs_equal_the_cost_model(cfg, spec):
    model = Model.init(cfg, seed=1)
    with count_macs() as counter:
        per_ablation_predictions(_image(cfg), spec, model.params, cfg)
    assert counter.total == smoothing_cost(cfg, spec)["macs_drop"]


@pytest.mark.parametrize("use_class_token", [True, False])
def test_gradients_match_finite_differences(use_class_token):
    cfg = ViTConfig(h=8, w=8, c=1, p=4, d=4, heads=2, layers=1, k=3, use_class_token=use_class_token)
    params = {k: v.astype(np.float64) for k, v in Model.init(cfg, seed=2).params.items()}
    rng = np.random.default_rng(2)
    for k, v in params.items():  # move off the initial zeros and ones
        v += rng.normal(0.0, 0.3, size=v.shape)
    z = ablation_set(_image(cfg, 2), AblationSpec("column", 3))[4]  # two of four cells survive
    label = 1
    _, grads = loss_and_gradients(z, label, params, cfg)
    for name, value in params.items():

        def loss_at(theta, name=name):
            return loss_and_gradients(z, label, dict(params, **{name: theta}), cfg)[0]

        numeric = finite_difference_gradient(loss_at, value, h=1e-5)
        np.testing.assert_allclose(grads[name], numeric, rtol=1e-4, atol=1e-7, err_msg=name)


def test_seeded_training_is_byte_identical():
    cfg = ViTConfig(h=8, w=8, c=1, p=2, d=8, heads=2, layers=1, k=2)
    data = make_stripe_dataset(24, 8, 8, 2, 0.2, seed=3)
    tcfg = TrainConfig(batch_size=8, b_train=3, kind="block", seed=5)
    runs = []
    for _ in range(2):
        model, state = Model.init(cfg, seed=5), None
        for _ in range(2):
            model, _, state = train_epoch(model, data, tcfg, state)
        runs.append(model.params)
    assert list(runs[0]) == list(runs[1])
    for name in runs[0]:
        assert runs[0][name].tobytes() == runs[1][name].tobytes(), name
