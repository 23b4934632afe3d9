"""The encoder: stacked smoothing engine vs per-ablation path vs the
independent float64 masked-attention oracle, exact MACs, analytic
gradients (batched training step vs the per-sample and per-head
references), training determinism and the checkpoint format."""

import contextlib
import inspect
import json
import math
import struct
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from patchcert import ablation, vit
from patchcert.ablation import (AblatedImage, AblationSpec, ablation_anchors, ablation_set,
                                block_ablation, column_ablation)
from patchcert.bench import CostModel, smoothing_cost
from patchcert import cli, train
from patchcert import numerics as nx
from patchcert.errors import DimensionError, FormatError, InputError, NonFiniteError, ParameterError
from patchcert.numerics import count_macs
from patchcert.train import OptState, TrainConfig, fit, make_stripe_dataset, train_epoch
from patchcert.vit import (
    Model,
    ViTConfig,
    ablation_logits,
    loss_and_gradients,
    load_checkpoint,
    masked_attention_oracle_forward,
    per_ablation_predictions,
    save_checkpoint,
)
from certbench import harness, tracing
from references import (ablated_cells_reference, finite_difference_gradient, forced_stack_pool,
                        formula_softmax, matmul_per_head, mean_layer_norm_fwd,
                        per_sample_loss_and_gradients, pixel_ablation)

ORACLE_TOLERANCE = 1e-5
FLOAT64_TOLERANCE = 1e-12  # both forwards in float64: only rounding may differ
TIE_TOLERANCE = 1e-5  # the class-row-only and every-row forwards may round differently


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
    cfg = ViTConfig(h=h, w=w, c=draw(st.sampled_from([1, 3])), p=p, d=8, heads=2, layers=1, k=3)
    kind = draw(st.sampled_from(["column", "block"]))
    b = draw(st.integers(1, w if kind == "column" else min(h, w)))
    s = draw(st.integers(1, w))
    # a block offset of h or more leaves no anchor row and is refused
    offset = draw(st.integers(0, (s if kind == "column" else min(s, h)) - 1))
    return cfg, AblationSpec(kind, b, s, offset), draw(st.integers(0, 2**16))


def test_a_block_offset_without_anchor_rows_is_refused():
    cfg = ViTConfig(h=4, w=8, c=1, p=2, d=8, heads=2, layers=1, k=3)
    spec = AblationSpec("block", 2, 8, 5)
    with pytest.raises(ParameterError, match="no ablation anchor"):
        per_ablation_predictions(_image(cfg, 0), spec, Model.init(cfg, seed=0).params, cfg)


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
    preds = per_ablation_predictions(x, spec, model.params, cfg)
    assert preds.tolist() == [int(np.argmax(row)) for row in logits]


@settings(deadline=None, max_examples=60)
@given(_case(), st.sampled_from([1, 7, 256]), st.floats(0.0, 0.5), st.booleans())
def test_engine_cells_equal_the_ablated_cells_bytewise(case, budget, zeros, pooled):
    # the cells each stack hands the encoder are, ablation by ablation, the
    # reduced cells of the ablated image, negative zeros included, in
    # whatever order the stacks run
    cfg, spec, seed = case
    x = _image(cfg, seed)
    x[np.random.default_rng(seed).uniform(size=x.shape) < zeros] = -0.0
    handed = []  # (cells, grid index) of every ablation, in the order the stacks ran
    lock = threading.Lock()

    def capture(cells, grid_idx, params, cfg):
        with lock:
            first = len(handed)
            handed.extend(zip(cells, grid_idx))
            return np.arange(first, len(handed))  # each ablation "predicts" its position

    params = Model.init(cfg, seed=seed).params
    with mock.patch.object(vit, "process_ablation", capture), \
            mock.patch.object(vit, "ROW_BUDGET", budget), \
            (forced_stack_pool() if pooled else contextlib.nullcontext()):
        position = per_ablation_predictions(x, spec, params, cfg)
    ablations = ablation_set(x, spec)
    assert sorted(position) == list(range(len(ablations)))
    for z, at in zip(ablations, position):
        want, want_idx = ablated_cells_reference(z, cfg)
        got, got_idx = handed[at]
        assert got_idx.tolist() == want_idx.tolist()
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("cfg", [ViTConfig(h=8, w=12, c=3, p=4, d=4, heads=1, layers=1, k=2),
                                 ViTConfig(h=9, w=6, c=1, p=3, d=4, heads=1, layers=1, k=2)],
                         ids=["c3", "c1"])
@pytest.mark.parametrize("kind", ["column", "block"])
def test_training_cells_equal_the_pixel_path_bytewise(monkeypatch, cfg, kind):
    # every anchor of the stride-1 set, for b from a single pixel to the whole image
    # (wrapped and single-cell ablations among them): the cells and grid indices a
    # training batch hands the encoder are the pixel ablation's, negative zeros included
    core, handed = vit._encoder_core, []

    def capture(cells, grid_idx, params, cfg, record=False):
        handed.append((cells.copy(), grid_idx.copy()))
        return core(cells, grid_idx, params, cfg, record)

    monkeypatch.setattr(vit, "_encoder_core", capture)
    params = Model.init(cfg, seed=0).params
    rng = np.random.default_rng(cfg.c)
    for b in sorted({1, 2, cfg.p + 1, cfg.w if kind == "column" else min(cfg.h, cfg.w)}):
        spec = AblationSpec(kind, b)
        size = len(ablation_anchors(cfg.h, cfg.w, spec))
        images = rng.uniform(size=(size, cfg.h, cfg.w, cfg.c)).astype(np.float32)
        images[rng.uniform(size=images.shape) < 0.2] = 0.0
        images[rng.uniform(size=images.shape) < 0.2] = -0.0
        anchors = rng.permutation(size)
        handed.clear()
        loss_and_gradients(images, spec, anchors, np.zeros(size, np.int64), params, cfg)
        want = {}  # the pixel path's cells, one group per token count, in batch order
        for x, anchor in zip(images, anchors):
            cells, grid_idx = ablated_cells_reference(pixel_ablation(x, spec, anchor), cfg)
            want.setdefault(grid_idx.size, []).append((cells, grid_idx))
        assert len(handed) == len(want)
        for (got, got_idx), group in zip(handed, want.values()):
            assert got_idx.tolist() == [grid_idx.tolist() for _, grid_idx in group]
            want_cells = np.stack([cells for cells, _ in group])
            assert got.dtype == want_cells.dtype and got.tobytes() == want_cells.tobytes()


def test_chunked_groups_match_the_per_ablation_path(monkeypatch):
    # 256 block ablations of 2x2 cells plus a class token: 1280 rows in one group
    cfg = ViTConfig(h=16, w=16, c=3, p=2, d=8, heads=2, layers=2, k=3)
    spec = AblationSpec("block", 3)
    tokens = smoothing_cost(cfg, spec)["tokens"]
    assert max(n * tokens.count(n) for n in set(tokens)) > vit.ROW_BUDGET
    model = Model.init(cfg, seed=4)
    x = _image(cfg, 4)
    ablations = ablation_set(x, spec)
    want = _ablation_logits_by_cells(ablations, model.params, cfg)
    preds = per_ablation_predictions(x, spec, model.params, cfg)
    assert preds.tolist() == [int(np.argmax(ablation_logits(z, model.params, cfg)))
                              for z in ablations]
    for budget in (1, 7, 256, vit.ROW_BUDGET):
        monkeypatch.setattr(vit, "ROW_BUDGET", budget)
        got_preds, got = _voting_logits(x, spec, model.params, cfg)
        assert np.array_equal(got_preds, preds)
        assert got == want


def _ablation_logits_by_cells(ablations, params, cfg):
    """Sorted (grid indices and cells an ablation keeps, its ablation_logits bytes) pairs."""
    keyed = []
    for z in ablations:
        cells, grid_idx = ablated_cells_reference(z, cfg)
        keyed.append(((grid_idx.tobytes(), cells.tobytes()),
                      ablation_logits(z, params, cfg).tobytes()))
    return sorted(keyed)


def _voting_logits(x, spec, params, cfg):
    """Predictions, and sorted (grid indices and cells an ablation keeps, the logits bytes
    it votes with) pairs, one per ablation of the set."""
    core, voted = vit._encoder_core, []

    def recording(cells, grid_idx, params, cfg):
        out = core(cells, grid_idx, params, cfg)
        voted.extend(((g.tobytes(), c.tobytes()), o.tobytes())
                     for g, c, o in zip(grid_idx, cells, out))
        return out

    with mock.patch.object(vit, "_encoder_core", recording):
        preds = per_ablation_predictions(x, spec, params, cfg)
    return preds, sorted(voted)


def _stack_logits(x, spec, params, cfg):
    """Predictions, the logits bytes of every stack keyed by its cells and grid indices,
    and the names of the threads that ran the stacks."""
    core, logits, threads = vit._encoder_core, {}, set()

    def recording(cells, grid_idx, params, cfg):
        out = core(cells, grid_idx, params, cfg)
        logits[cells.shape, cells.tobytes(), grid_idx.tobytes()] = out.tobytes()
        threads.add(threading.current_thread().name)
        return out

    with mock.patch.object(vit, "_encoder_core", recording):
        preds = per_ablation_predictions(x, spec, params, cfg)
    return preds, logits, threads


@settings(deadline=None, max_examples=40)
@given(_case(), st.sampled_from([1, 7, 256, vit.ROW_BUDGET]))
def test_the_stack_pool_computes_the_serial_loop_bitwise(case, budget):
    cfg, spec, seed = case
    params = Model.init(cfg, seed=seed).params
    x = _image(cfg, seed)
    with mock.patch.object(vit, "ROW_BUDGET", budget):
        with mock.patch.object(vit, "_pool_workers", lambda: 1):
            serial, serial_logits, serial_threads = _stack_logits(x, spec, params, cfg)
        with forced_stack_pool():
            pooled, pooled_logits, pooled_threads = _stack_logits(x, spec, params, cfg)
    assert pooled.dtype == np.int64 and pooled.tobytes() == serial.tobytes()
    assert pooled_logits == serial_logits
    assert serial_threads == {threading.current_thread().name}
    assert pooled_threads and all(t.startswith("patchcert-stack") for t in pooled_threads)


@pytest.mark.parametrize("error", [DimensionError, InputError])
def test_an_error_on_the_stack_pool_keeps_its_type_and_outlives_no_job(error):
    cfg = ViTConfig(h=16, w=16, c=3, p=2, d=8, heads=2, layers=1, k=3)
    params = Model.init(cfg, seed=2).params
    calls, running, lock = [0], [0], threading.Lock()

    def failing(cells, grid_idx, params, cfg):
        with lock:
            calls[0] += 1
            first = calls[0] == 1
            running[0] += 1
        try:
            if first:
                raise error("raised on a pool thread")
            time.sleep(0.002)
            return np.zeros(len(cells), dtype=np.int64)
        finally:
            with lock:
                running[0] -= 1

    with forced_stack_pool(), mock.patch.object(vit, "process_ablation", failing), \
            mock.patch.object(vit, "ROW_BUDGET", 7):
        with pytest.raises(error, match="raised on a pool thread"):
            per_ablation_predictions(_image(cfg, 2), AblationSpec("block", 3), params, cfg)
    assert running[0] == 0  # every job ended before the call raised


@pytest.mark.parametrize("pooled", [False, True], ids=["serial", "pool"])
@pytest.mark.parametrize("weights,message", [
    # NaN weights give NaN logits and set no floating-point flag
    ("nan", "gave non-finite logits"),
    # huge finite ones overflow, which can leave finite, constant logits behind
    ("huge", "failed: overflow encountered"),
])
def test_a_forward_that_is_not_finite_raises_instead_of_voting_class_0(pooled, weights, message):
    cfg = ViTConfig(h=16, w=16, c=3, p=4, d=8, heads=2, layers=1, k=3)
    params = Model.init(cfg, seed=5).params
    if weights == "nan":
        params["patch_embed.weight"] = np.full_like(params["patch_embed.weight"], np.nan)
    else:
        params = {k: v * np.float32(1e30) for k, v in params.items()}
    before = np.geterr()
    with forced_stack_pool() if pooled else mock.patch.object(vit, "_pool_workers", lambda: 1):
        with pytest.raises(NonFiniteError, match="stack of 8 ablations of 4 cells each " + message):
            per_ablation_predictions(_image(cfg, 5), AblationSpec("column", 3), params, cfg)
    assert np.geterr() == before


def test_cifar_like_stacks_start_no_pool_thread(monkeypatch):
    # two free CPUs, as with one BLAS thread on a 2-CPU machine: the rule alone
    # keeps CIFAR-like stacks on the calling thread and picks the pool for
    # ImageNet-like ones
    monkeypatch.setattr(vit, "_pool_workers", lambda: 2)
    cifar = ViTConfig(h=32, w=32, c=3, p=4, d=64, heads=4, layers=4, k=4)
    imagenet = ViTConfig(h=224, w=224, c=3, p=16, d=128, heads=4, layers=3, k=4)
    for spec in (AblationSpec("column", 19), AblationSpec("column", 19, 10)):
        assert vit._stack_pool(vit._stack_plan(imagenet, spec, vit.ROW_BUDGET)) is not None

    def refuse(*args):
        raise AssertionError("a CIFAR-like plan asked for the stack pool")

    monkeypatch.setattr(vit, "_executor", refuse)
    params = Model.init(cifar, seed=3).params
    for spec in (AblationSpec("block", 8), AblationSpec("column", 4)):
        _, _, threads = _stack_logits(_image(cifar, 3), spec, params, cifar)
        assert threads == {threading.current_thread().name}


@pytest.mark.parametrize("env,cpus,workers", [
    ({}, 2, 1),  # OpenBLAS starts a thread per CPU
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
    ({"OPENBLAS_NUM_THREADS": "2"}, 4, 2),
    ({"OMP_NUM_THREADS": "1"}, 4, 4),
    ({"GOTO_NUM_THREADS": "3", "OMP_NUM_THREADS": "1"}, 4, 1),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "2"}, 4, 2),
    ({"OPENBLAS_NUM_THREADS": "8"}, 2, 1),
    ({"OPENBLAS_NUM_THREADS": "one"}, 2, 1),
])
def test_the_pool_takes_the_cpus_blas_leaves_free(monkeypatch, env, cpus, workers):
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(vit.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert vit._pool_workers.__wrapped__() == workers


@pytest.mark.parametrize("spec", [AblationSpec("column", 3, 2, 1), AblationSpec("block", 5, 3, 2)])
def test_the_stack_plan_is_built_once_and_read_only(spec):
    cfg = ViTConfig(h=12, w=16, c=3, p=2, d=8, heads=2, layers=1, k=3)
    for budget in (7, 100):
        plan = vit._stack_plan(cfg, spec, budget)
        groups = {}  # token count -> the ids of its stacks, in plan order
        for stack in plan.stacks:
            assert (stack.row_key is None) == (spec.kind == "column")
            n = stack.grid_idx.shape[1]
            assert stack.ids.size == 1 or stack.ids.size * (n + 1) <= budget
            for a in (stack.ids, stack.grid_idx, stack.row_key, stack.col_key):
                if a is not None:
                    with pytest.raises(ValueError, match="read-only"):
                        a.flat[0] = 0
            groups.setdefault(n, []).append(stack.ids)
        assert [s.grid_idx.shape[1] for s in plan.stacks] == sorted(
            n for n, parts in groups.items() for _ in parts)  # each count's stacks together
        for n, parts in groups.items():
            # the count's ablations in anchor order, cut into the fewest stacks under
            # the budget, whose sizes differ by at most one
            ids = np.concatenate(parts)
            assert ids.tolist() == np.nonzero(plan.counts == n)[0].tolist()
            assert len(parts) == -(-ids.size // max(1, budget // (n + 1)))
            assert max(p.size for p in parts) - min(p.size for p in parts) <= 1
        assert sorted(groups) == np.unique(plan.counts).tolist()  # every ablation has a stack
    plan = vit._stack_plan(cfg, spec, 7)
    assert vit._stack_plan(ViTConfig(**vars(cfg)), AblationSpec(**spec.to_dict()), 7) is plan
    for a in (plan.counts, plan.alive, plan.row_masks, plan.col_masks):
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 0
    hits = vit._stack_plan.cache_info().hits
    with mock.patch.object(vit, "ROW_BUDGET", 7):
        per_ablation_predictions(_image(cfg), spec, Model.init(cfg).params, cfg)
    assert vit._stack_plan.cache_info().hits == hits + 1


# The tracemalloc peak of the serial call in the test below with the former
# inference forward, at 256 rows a stack (numpy 2.4): it kept each layer's
# activations and layer-norm ctx until the next layer replaced them, and the
# MLP hidden beside the GELU output.
FORMER_PEAK_AT_256_ROWS = 4_736_491  # bytes


def test_taller_stacks_peak_below_the_former_256_row_forward(monkeypatch):
    # inference frees each activation after its last reader, so one image's stacks of up
    # to ROW_BUDGET rows at the ImageNet-like config hold less than the former 256-row ones
    cfg = ViTConfig(h=224, w=224, c=3, p=16, d=128, heads=4, layers=3, k=4)
    spec = AblationSpec("column", 19)
    params, x = Model.init(cfg, seed=0).params, _image(cfg, 0)
    monkeypatch.setattr(vit, "_pool_workers", lambda: 1)  # one stack at a time
    per_ablation_predictions(x, spec, params, cfg)  # builds and caches the stack plan
    plan = vit._stack_plan(cfg, spec, vit.ROW_BUDGET)
    assert max(s.ids.size * (s.grid_idx.shape[1] + 1) for s in plan.stacks) > 256
    tracemalloc.start()
    try:
        per_ablation_predictions(x, spec, params, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= FORMER_PEAK_AT_256_ROWS, f"peak {peak} B"


# certbench's staging: each weight's stage, keyed as CostModel.breakdown keys it
_STAGE_OF = {name: harness.STAGE_KEYS[stage] for name, stage in tracing._WEIGHT_STAGES.items()}


@pytest.mark.parametrize(
    "cfg,spec",
    [
        (ViTConfig(h=32, w=32, c=3, p=4, d=16, heads=2, layers=2, k=4), AblationSpec("block", 8)),
        (ViTConfig(h=16, w=24, c=1, p=4, d=8, heads=2, layers=1, k=3),
         AblationSpec("column", 5, 3, 1)),
        (ViTConfig(h=16, w=16, c=1, p=4, d=8, heads=4, layers=2, k=2), AblationSpec("block", 6, 5, 2)),
    ],
)
def test_engine_macs_equal_the_cost_model(monkeypatch, cfg, spec):
    # stage every product, 2-D or stacked, by its right operand, as certbench
    # does: a weight's identity, or that of the array it views (a weight's
    # transpose), gives its stage, anything else is attention; on the
    # calling thread and on the stack pool alike
    model = Model.init(cfg, seed=1)
    stage_of = {id(model.params[name]): stage for name in model.params
                for suffix, stage in _STAGE_OF.items() if name.endswith(suffix)}
    cost = CostModel.for_config(cfg)
    tokens = smoothing_cost(cfg, spec)["tokens"]
    want = {stage: sum(cost.breakdown(n)[stage] for n in tokens)
            for stage in ["attention_quadratic", *set(_STAGE_OF.values())]}
    lock = threading.Lock()

    def staging(product):
        def staged_product(a, b):
            stage = stage_of.get(id(b)) or stage_of.get(id(b.base), "attention_quadratic")
            with lock:
                staged[stage] += a.size * b.shape[-1]
            return product(a, b)
        return staged_product

    for name in ("matmul", "matmul_stacked"):
        monkeypatch.setattr(nx, name, staging(getattr(nx, name)))
    for pool in (contextlib.nullcontext(), forced_stack_pool()):
        staged = dict.fromkeys(want, 0)
        with pool, count_macs() as counter:
            per_ablation_predictions(_image(cfg), spec, model.params, cfg)
        assert counter.total == smoothing_cost(cfg, spec)["macs_drop"]
        assert staged == want


@st.composite
def _cost_case(draw):
    p = draw(st.integers(1, 4))
    h, w = p * draw(st.integers(1, 5)), p * draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["column", "block"]))
    s = draw(st.integers(1, w))
    offset = draw(st.integers(0, (s if kind == "column" else min(s, h)) - 1))
    b = draw(st.integers(1, w if kind == "column" else min(h, w)))
    return ViTConfig(h=h, w=w, c=1, p=p, d=4, heads=1, layers=1, k=2), AblationSpec(kind, b, s, offset)


@settings(deadline=None, max_examples=150)
@given(_cost_case())
# strips that wrap past both edges, with a stride that does not divide either side
@example((ViTConfig(h=9, w=12, c=1, p=3, d=4, heads=1, layers=1, k=2), AblationSpec("block", 5, 5, 3)))
@example((ViTConfig(h=4, w=16, c=1, p=4, d=4, heads=1, layers=1, k=2), AblationSpec("column", 7, 6, 4)))
def test_cost_tokens_are_the_surviving_cells_of_every_ablation(case):
    # the reference: each ablation_set mask's cells that keep a pixel, plus the class token
    cfg, spec = case
    ablations = ablation_set(np.zeros((cfg.h, cfg.w, 1), np.float32), spec)
    want = [int(vit._surviving_cells(z, cfg).sum()) + 1 for z in ablations]
    cost = smoothing_cost(cfg, spec)
    assert cost["tokens"] == want
    model = CostModel.for_config(cfg)
    assert cost["macs_drop"] == sum(model.total(n) for n in want)


def test_gradients_match_finite_differences():
    cfg = ViTConfig(h=8, w=8, c=1, p=4, d=4, heads=2, layers=1, k=3)
    params = {k: v.astype(np.float64) for k, v in Model.init(cfg, seed=2).params.items()}
    rng = np.random.default_rng(2)
    for k, v in params.items():  # move off the initial zeros and ones
        v += rng.normal(0.0, 0.3, size=v.shape)
    x, spec = _image(cfg, 2), AblationSpec("column", 3)  # ablation 4 keeps two of four cells
    label = 1
    _, grads = loss_and_gradients([x], spec, [4], [label], params, cfg)
    for name, value in params.items():

        def loss_at(theta, name=name):
            return loss_and_gradients([x], spec, [4], [label], dict(params, **{name: theta}), cfg)[0]

        numeric = finite_difference_gradient(loss_at, value, h=1e-5)
        np.testing.assert_allclose(grads[name], numeric, rtol=1e-4, atol=1e-7, err_msg=name)


# The elementwise code _encoder_core ran before it summed
# biases, residuals and the layer-norm affine into fresh buffers: each op
# out of place, in the formula's order. Products and GELU are unchanged.
def _out_of_place_forward(patches, grid_idx, params, cfg, record=False, every_row=False):
    """Logits and recorded activations of the out-of-place forward.

    Like _encoder_core, the inference path (no record) runs the last
    layer past K and V on the class rows only, unless every_row, each
    set's class row as a product of its own; both paths read out each
    set alone, and record embeds each set alone.
    """
    bsz, n, pdim = patches.shape
    if record:
        t = nx.matmul_stacked(patches, params["patch_embed.weight"])
    else:
        t = nx.matmul(patches.reshape(bsz * n, pdim), params["patch_embed.weight"])
    t = t.reshape(bsz, n, cfg.d) + params["patch_embed.bias"] + params["pos_embed"][grid_idx]
    cls = (params["cls_token"] + params["cls_pos"]).astype(t.dtype)
    x = np.concatenate([np.broadcast_to(cls, (bsz, 1, cfg.d)), t], axis=1)
    n += 1
    x = x.reshape(bsz * n, cfg.d)
    acts = []

    def per_set(a, w):
        return nx.matmul_stacked(a[:, None], w)[:, 0]

    for i, lp in enumerate(vit._layer_views(params, cfg)):
        h1, (xhat1, *_) = mean_layer_norm_fwd(x, lp["ln1.gamma"], lp["ln1.beta"])
        kk = nx.matmul(h1, lp["attn.wk"]) + lp["attn.bk"]
        v = nx.matmul(h1, lp["attn.wv"]) + lp["attn.bv"]
        product = nx.matmul
        if not (record or every_row) and i == cfg.layers - 1:
            # the inference path's last layer: queries and everything after them on the class rows
            h1, x = (a.reshape(bsz, n, cfg.d)[:, 0] for a in (h1, x))
            product = per_set
        q = product(h1, lp["attn.wq"]) + lp["attn.bq"]
        q_h, v_h = (vit._by_head(a, bsz, cfg) for a in (q, v))
        k_t = np.ascontiguousarray(vit._by_head(kk, bsz, cfg).swapaxes(2, 3))
        scores = matmul_per_head(q_h, k_t)
        scores *= 1.0 / math.sqrt(cfg.head_dim)
        attn = formula_softmax(scores)
        o = np.empty_like(q)
        vit._by_head(o, bsz, cfg)[...] = matmul_per_head(attn, v_h)
        x_mid = x + (product(o, lp["attn.wo"]) + lp["attn.bo"])
        h2, (xhat2, *_) = mean_layer_norm_fwd(x_mid, lp["ln2.gamma"], lp["ln2.beta"])
        m1 = product(h2, lp["mlp.w1"]) + lp["mlp.b1"]
        act = nx.gelu(m1)
        x = x_mid + (product(act, lp["mlp.w2"]) + lp["mlp.b2"])
        acts += [xhat1, h1, q, kk, v, attn, o, xhat2, h2, m1, act]
    f, (xhatf, *_) = mean_layer_norm_fwd(x, params["final_ln.gamma"], params["final_ln.beta"])
    r = f.reshape(bsz, -1, cfg.d)[:, 0]
    return per_set(r, params["head.weight"]) + params["head.bias"], acts + [xhatf, f, r]


_BYTEWISE_CONFIGS = {
    "cifar": ViTConfig(h=32, w=32, c=3, p=4, d=64, heads=4, layers=4, k=10),
    "imagenet": ViTConfig(h=224, w=224, c=3, p=16, d=128, heads=4, layers=3, k=4),
}


def _assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("path", ["reduced", "record"])
@pytest.mark.parametrize("config", sorted(_BYTEWISE_CONFIGS))
@settings(deadline=None, max_examples=6)
@given(bsz=st.integers(1, 3), cells=st.integers(1, 64),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**16))
def test_forward_equals_the_out_of_place_forward_bit_for_bit(config, path, bsz, cells, dtype, seed):
    cfg = _BYTEWISE_CONFIGS[config]
    rng = np.random.default_rng(seed)
    # move every parameter off its initial value, so biases and affines act
    params = {name: (v + rng.normal(0.0, 0.1, v.shape)).astype(dtype)
              for name, v in Model.init(cfg, seed=seed).params.items()}
    n = min(cells, cfg.grid_tokens)
    grid_idx = np.stack([np.sort(rng.choice(cfg.grid_tokens, n, replace=False))
                         for _ in range(bsz)])
    patches = rng.uniform(0.0, 1.0, (bsz, n, cfg.p * cfg.p * cfg.c)).astype(np.float32)
    want, acts = _out_of_place_forward(patches, grid_idx, params, cfg, path == "record")
    if path == "record":
        logits, ctx = vit._encoder_core(patches, grid_idx, params, cfg, record=True)
        got = []
        for lc in ctx["layers"]:
            got += [lc["ln1"][0], lc["h1"], lc["q"], lc["k"], lc["v"], lc["attn"], lc["o"],
                    lc["ln2"][0], lc["h2"], lc["m1"], lc["act"]]
        for g, w in zip(got + [ctx["final_ln"][0], ctx["f"], ctx["r"]], acts, strict=True):
            _assert_same_bytes(g, w)
    else:
        logits = vit._encoder_core(patches, grid_idx, params, cfg)
    _assert_same_bytes(logits, want)


def _assert_voting_logits_are_the_ablation_logits(config, spec, budgets, seed):
    # the logits each stack votes with, ablation by ablation, serial and on the stack
    # pool, are bitwise the one-ablation forward's, at every row budget
    cfg = _BYTEWISE_CONFIGS[config]
    params = Model.init(cfg, seed=seed).params
    x = _image(cfg, seed)
    want = _ablation_logits_by_cells(ablation_set(x, spec), params, cfg)
    for budget in budgets:
        for pool in (mock.patch.object(vit, "_pool_workers", lambda: 1), forced_stack_pool()):
            with mock.patch.object(vit, "ROW_BUDGET", budget), pool:
                assert _voting_logits(x, spec, params, cfg)[1] == want


@pytest.mark.parametrize("budget", [7, vit.ROW_BUDGET])
@pytest.mark.parametrize("config,spec", [("cifar", AblationSpec("block", 8)),
                                         ("imagenet", AblationSpec("column", 19))],
                         ids=["cifar-block", "imagenet-column"])
def test_the_logits_that_vote_equal_the_ablation_logits(config, spec, budget):
    _assert_voting_logits_are_the_ablation_logits(config, spec, [budget], 21)


# strided sets, with and without an offset, column and block, at both north-star configs
@pytest.mark.parametrize("config,spec", [
    ("cifar", AblationSpec("column", 4, 2, 1)), ("cifar", AblationSpec("block", 5, 3, 1)),
    ("imagenet", AblationSpec("column", 19, 10)), ("imagenet", AblationSpec("block", 75, 25, 5)),
], ids=["cifar-column", "cifar-block", "imagenet-column", "imagenet-block"])
def test_an_ablations_logits_do_not_depend_on_the_row_budget(config, spec):
    _assert_voting_logits_are_the_ablation_logits(config, spec, [1, 7, vit.ROW_BUDGET, 4096], 22)


def _float64(params):
    return {name: v.astype(np.float64) for name, v in params.items()}


def _assert_float64_forward_equals_the_oracle(ablations, params, cfg):
    for z in ablations:
        oracle = masked_attention_oracle_forward(z, params, cfg)
        assert oracle.dtype == np.float64 and oracle.shape == (cfg.k,)
        assert np.max(np.abs(ablation_logits(z, params, cfg) - oracle)) <= FLOAT64_TOLERANCE


@settings(deadline=None, max_examples=40)
@given(_case())
def test_float64_forward_equals_the_oracle(case):
    # with float64 parameters and pixels, rounding cannot hide a modelling
    # difference between the reduced-token forward and the masked full grid
    cfg, spec, seed = case
    params = _float64(Model.init(cfg, seed=seed).params)
    ablations = ablation_set(_image(cfg, seed).astype(np.float64), spec)
    _assert_float64_forward_equals_the_oracle(ablations, params, cfg)


@pytest.mark.parametrize("config", sorted(_BYTEWISE_CONFIGS))
@settings(deadline=None, max_examples=4)
@given(kind=st.sampled_from(["column", "block"]), top=st.integers(0, 223),
       left=st.integers(0, 223), b=st.integers(1, 40), seed=st.integers(0, 2**16))
def test_float64_forward_equals_the_oracle_at_the_north_star_configs(config, kind, top, left, b,
                                                                     seed):
    cfg = _BYTEWISE_CONFIGS[config]
    rng = np.random.default_rng(seed)
    params = {name: v + rng.normal(0.0, 0.1, v.shape)
              for name, v in _float64(Model.init(cfg, seed=seed).params).items()}
    x = _image(cfg, seed).astype(np.float64)
    b = min(b, cfg.h)
    z = (column_ablation(x, left % cfg.w, b) if kind == "column"
         else block_ablation(x, top % cfg.h, left % cfg.w, b))
    _assert_float64_forward_equals_the_oracle([z], params, cfg)


def test_the_oracle_shares_no_code_with_the_production_forward(monkeypatch):
    cfg = ViTConfig(h=8, w=8, c=3, p=2, d=8, heads=2, layers=2, k=3)
    params = Model.init(cfg, seed=3).params
    z = column_ablation(_image(cfg, 3), 5, 3)
    want = masked_attention_oracle_forward(z, params, cfg)

    def refuse(*args, **kwargs):
        raise AssertionError("production code was called")

    monkeypatch.setattr(vit, "_encoder_core", refuse)
    for name, value in vars(nx).copy().items():
        if inspect.isfunction(value) and value.__module__ == nx.__name__:
            monkeypatch.setattr(nx, name, refuse)
    with pytest.raises(AssertionError, match="production code"):
        ablation_logits(z, params, cfg)
    got = masked_attention_oracle_forward(z, params, cfg)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


@settings(deadline=None, max_examples=40)
@given(p=st.sampled_from([2, 4]), grid=st.tuples(st.integers(1, 4), st.integers(1, 4)),
       c=st.sampled_from([1, 3]), d_heads=st.sampled_from([(8, 2), (16, 2), (16, 4)]),
       layers=st.integers(1, 3), k=st.integers(2, 5), bsz=st.integers(1, 4),
       cells=st.integers(1, 16), seed=st.integers(0, 2**16))
def test_class_row_only_last_layer_equals_every_row(p, grid, c, d_heads, layers, k, bsz, cells,
                                                    seed):
    cfg = ViTConfig(h=p * grid[0], w=p * grid[1], c=c, p=p, d=d_heads[0], heads=d_heads[1],
                    layers=layers, k=k)
    rng = np.random.default_rng(seed)
    params = {name: (v + rng.normal(0.0, 0.1, v.shape)).astype(np.float32)
              for name, v in Model.init(cfg, seed=seed).params.items()}
    n = min(cells, cfg.grid_tokens)
    grid_idx = np.stack([np.sort(rng.choice(cfg.grid_tokens, n, replace=False))
                         for _ in range(bsz)])
    patches = rng.uniform(0.0, 1.0, (bsz, n, p * p * c)).astype(np.float32)
    logits = vit._encoder_core(patches, grid_idx, params, cfg)
    want, _ = _out_of_place_forward(patches, grid_idx, params, cfg, every_row=True)
    assert logits.shape == want.shape == (bsz, k)
    assert np.max(np.abs(logits - want)) <= ORACLE_TOLERANCE
    _assert_argmax(np.argmax(logits, axis=1), want)


@settings(deadline=None, max_examples=40)
@given(grid=st.tuples(st.integers(1, 3), st.integers(1, 3)), heads=st.sampled_from([1, 2, 4]),
       dh=st.sampled_from([1, 2, 4]), layers=st.integers(1, 2), bsz=st.integers(1, 3),
       cells=st.integers(1, 9), dtype=st.sampled_from([np.float32, np.float64]),
       seed=st.integers(0, 2**16))
@example(grid=(2, 2), heads=4, dh=2, layers=2, bsz=1, cells=1, dtype=np.float32, seed=0)
@example(grid=(2, 2), heads=2, dh=4, layers=1, bsz=3, cells=1, dtype=np.float64, seed=1)
def test_recorded_attention_equals_the_per_head_loop(grid, heads, dh, layers, bsz, cells, dtype,
                                                     seed):
    # the recorded forward stacks each attention product over (set, head); the per-head loop
    # of 2-D nx.matmul calls must give the same bytes, and the same MAC count
    cfg = ViTConfig(h=2 * grid[0], w=2 * grid[1], c=1, p=2, d=heads * dh, heads=heads,
                    layers=layers, k=3)
    rng = np.random.default_rng(seed)
    params = {name: (v + rng.normal(0.0, 0.1, v.shape)).astype(dtype)
              for name, v in Model.init(cfg, seed=seed).params.items()}
    n = min(cells, cfg.grid_tokens)
    grid_idx = np.stack([np.sort(rng.choice(cfg.grid_tokens, n, replace=False))
                         for _ in range(bsz)])
    patches = rng.uniform(0.0, 1.0, (bsz, n, 4)).astype(np.float32)
    with count_macs() as macs:
        logits, ctx = vit._encoder_core(patches, grid_idx, params, cfg, record=True)
    stacked, loop_calls = nx.matmul_stacked, []

    def attention_by_loop(a, b):
        if a.ndim == 4:  # only the attention products are (set, head) stacks
            loop_calls.append(a.shape[:2])
            return matmul_per_head(a, b)
        return stacked(a, b)

    with mock.patch.object(nx, "matmul_stacked", attention_by_loop), count_macs() as loop_macs:
        want, want_ctx = vit._encoder_core(patches, grid_idx, params, cfg, record=True)
    assert loop_calls == [(bsz, heads)] * 2 * layers
    assert macs.total == loop_macs.total
    for lc, wc in zip(ctx["layers"], want_ctx["layers"], strict=True):
        _assert_same_bytes(lc["attn"], wc["attn"])
        _assert_same_bytes(lc["o"], wc["o"])
    _assert_same_bytes(logits, want)


# (spec, anchor) of three ablations of a 16x16 image with p=4, which keep 8, 1 and 4
# cells: the column b=4 from 2, the block b=4 at (0, 0) and the block b=5 at (1, 1)
_THREE_COUNTS = [(AblationSpec("column", 4), 2), (AblationSpec("block", 4), 0),
                 (AblationSpec("block", 5), 1 * 16 + 1)]


def test_only_inference_attention_runs_through_nx_matmul(monkeypatch):
    # certbench stages forward MACs from nx.matmul: a product whose right operand is a
    # parameter array is a weight product, any other is attention
    cfg = ViTConfig(h=16, w=16, c=3, p=4, d=16, heads=4, layers=3, k=5)
    params = Model.init(cfg, seed=15).params
    x = _image(cfg, 15)
    matmul, calls = nx.matmul, []

    def counting(a, b):
        calls.append((a.shape, b))
        return matmul(a, b)

    monkeypatch.setattr(nx, "matmul", counting)

    def is_param(b):
        return any(b is w for w in params.values())

    for label, (spec, anchor) in enumerate(_THREE_COUNTS):
        loss_and_gradients([x], spec, [anchor], [label], params, cfg)
    assert calls and all(is_param(b) for _, b in calls)

    calls.clear()
    sets = len(per_ablation_predictions(x, AblationSpec("block", 6, 3), params, cfg))
    attention = [shape for shape, b in calls if not is_param(b)]
    # sets x heads x (scores, weighted sum) in every layer; the last layer's query is the class row
    assert len(attention) == sets * cfg.heads * 2 * cfg.layers
    assert sum(rows == 1 for rows, _ in attention) == sets * cfg.heads * 2


def test_training_weight_products_take_the_parameters_themselves(monkeypatch):
    # every 2-D operand of a training nx.matmul_stacked is a parameter array, or its
    # transpose for an input gradient, so a product can be staged by its weight's identity;
    # the head's forward is a 2-D nx.matmul per set, so only the embedding's is stacked
    cfg = ViTConfig(h=16, w=16, c=3, p=4, d=16, heads=4, layers=2, k=5)
    params = Model.init(cfg, seed=16).params
    x = _image(cfg, 16)
    stacked, plain, transposed = nx.matmul_stacked, [], []

    def spying(a, b):
        if b.ndim == 2:
            name = next((n for n, w in params.items() if b is w or b.base is w), None)
            assert name, f"a 2-D operand {b.shape} that is no parameter"
            w = params[name]
            if b is w:
                plain.append(name)
            else:
                assert b.shape == w.shape[::-1] and b.strides == w.strides[::-1]
                transposed.append(name)
        return stacked(a, b)

    monkeypatch.setattr(nx, "matmul_stacked", spying)
    for label, (spec, anchor) in enumerate(_THREE_COUNTS):  # three recorded stacks
        loss_and_gradients([x], spec, [anchor], [label], params, cfg)
    layer_weights = [f"layers.{i}.{w}" for i in range(cfg.layers)
                     for w in ("mlp.w2", "mlp.w1", "attn.wo", "attn.wq", "attn.wk", "attn.wv")]
    assert plain == ["patch_embed.weight"] * 3
    assert sorted(transposed) == sorted((["head.weight"] + layer_weights) * 3)


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


_CIFAR = dict(h=32, w=32, c=3, p=4, d=64, layers=4, k=10)
_IMAGENET = dict(h=224, w=224, c=3, p=16, d=128, layers=3, k=10)


@pytest.mark.parametrize("heads", [2, 4, 8])
@pytest.mark.parametrize("dims,b_col,b_block", [(_CIFAR, 4, 8), (_IMAGENET, 19, 75)],
                         ids=["cifar", "imagenet"])
def test_batched_head_backward_equals_the_per_head_reference(dims, b_col, b_block, heads):
    cfg = ViTConfig(heads=heads, **dims)
    params = Model.init(cfg, seed=heads).params
    x = _image(cfg, heads)
    h, w = cfg.h, cfg.w
    column, block = AblationSpec("column", b_col), AblationSpec("block", b_block)
    samples = [  # an unwrapped and a wrapped ablation of each kind; a block anchor is top * w + left
        (column, 3), (column, w - 2), (block, 5 * w + 1), (block, (h - 3) * w + w - b_block // 2),
    ]
    for j, (spec, anchor) in enumerate(samples):
        with count_macs() as macs:
            loss, grads = loss_and_gradients([x], spec, [anchor], [j], params, cfg)
        with count_macs() as ref_macs:
            ref_loss, ref = per_sample_loss_and_gradients(pixel_ablation(x, spec, anchor), j,
                                                          params, cfg)
        assert macs.total == ref_macs.total
        assert loss == ref_loss
        assert list(grads) == list(params)
        for name, g in grads.items():
            assert g.dtype == ref[name].dtype and g.shape == ref[name].shape, name
            assert np.array_equal(g, ref[name]), name
            assert not np.shares_memory(g, params[name]), name
        assert not np.shares_memory(grads["cls_token"], grads["cls_pos"])


def _assert_batch_equals_per_sample_sum(images, spec, anchors, labels, params, cfg):
    """loss_and_gradients over a batch vs the per-sample path on pixel ablations, summed
    with acc += g."""
    with count_macs() as macs:
        loss, grads = loss_and_gradients(images, spec, anchors, labels, params, cfg)
    ablations = [pixel_ablation(x, spec, anchor) for x, anchor in zip(images, anchors)]
    with count_macs() as ref_macs:
        ref_loss = 0.0
        ref = {k: np.zeros_like(v) for k, v in params.items()}
        for z, label in zip(ablations, labels):
            sample_loss, g = per_sample_loss_and_gradients(z, label, params, cfg)
            ref_loss += sample_loss
            for k in ref:
                ref[k] += g[k]
    assert macs.total == ref_macs.total
    assert loss == ref_loss
    assert list(grads) == list(params)
    for name, g in grads.items():
        assert g.dtype == ref[name].dtype and g.shape == ref[name].shape, name
        assert g.tobytes() == ref[name].tobytes(), name
        assert not np.shares_memory(g, params[name]), name
    assert not np.shares_memory(grads["cls_token"], grads["cls_pos"])


def test_batched_step_equals_the_per_sample_sum():
    cfg = ViTConfig(h=16, w=16, c=3, p=4, d=16, heads=2, layers=2, k=5)
    params = Model.init(cfg, seed=11).params
    batches = {  # one call per spec; anchors, and the cells each ablation keeps
        AblationSpec("column", 4): [
            2,  # 8: straddles two cell columns
            14,  # 8: wrapped
            4,  # 4: one cell column
        ],
        AblationSpec("block", 4): [  # a block anchor is top * 16 + left
            0,  # 1: one cell, aligned
            14 * 16 + 14,  # 4: wrapped into all four corners
            2,  # 2: one cell row, two cell columns
            5 * 16 + 6,  # 4
        ],
        AblationSpec("block", 1): [5 * 16 + 6],  # 1: one cell, one pixel
        AblationSpec("block", 8): [2 * 16 + 3, 0],  # 9, and 4
        AblationSpec("column", 16): [0, 7],  # 16: nothing dropped
        AblationSpec("block", 5): [1 * 16 + 1],  # 4
    }
    for seed, (spec, anchors) in enumerate(batches.items()):
        images = [_image(cfg, 11 + 10 * seed + i) for i in range(len(anchors))]
        labels = [j % cfg.k for j in range(len(anchors))]
        _assert_batch_equals_per_sample_sum(images, spec, anchors, labels, params, cfg)
        for x, anchor, label in zip(images, anchors, labels):  # batches of one
            _assert_batch_equals_per_sample_sum([x], spec, [anchor], [label], params, cfg)
        if len(anchors) > 2:
            _assert_batch_equals_per_sample_sum(images[1::2], spec, anchors[1::2], labels[1::2],
                                                params, cfg)


def test_batched_step_equals_the_per_sample_sum_at_the_cifar_recipe():
    # a full batch of the CIFAR-like config's training ablations: column b=4 at random offsets
    cfg = ViTConfig(heads=4, **dict(_CIFAR, k=4))
    params = Model.init(cfg, seed=12).params
    data = make_stripe_dataset(32, cfg.h, cfg.w, cfg.k, 0.45, seed=12, channels=cfg.c)
    anchors = np.random.default_rng(12).integers(0, cfg.w, size=32)
    _assert_batch_equals_per_sample_sum(data.images, AblationSpec("column", 4), anchors,
                                        data.labels.tolist(), params, cfg)


def test_batched_step_sums_from_positive_zero(monkeypatch):
    # per-sample gradients of -0 sum to +0 from a zero-filled accumulator, as acc += g does
    cfg = ViTConfig(h=8, w=8, c=1, p=4, d=8, heads=2, layers=1, k=3)
    params = Model.init(cfg, seed=13).params
    per_set = vit._set_gradients

    def negative_zero_bias(*args):
        for name, stack in per_set(*args):
            yield name, np.full_like(stack, -0.0) if name == "head.bias" else stack

    monkeypatch.setattr(vit, "_set_gradients", negative_zero_bias)
    x = _image(cfg, 13)
    _, grads = loss_and_gradients([x, x], AblationSpec("column", 3), [0, 0], [1, 1], params, cfg)
    acc = np.zeros_like(params["head.bias"])
    acc += np.full_like(acc, -0.0)
    acc += np.full_like(acc, -0.0)
    assert grads["head.bias"].tobytes() == acc.tobytes() == np.zeros_like(acc).tobytes()


@settings(deadline=None, max_examples=25)
@given(_case(), st.integers(1, 6))
# two single-cell ablations share a stack, but each set's patch embedding stays a one-row product
@example((ViTConfig(h=4, w=4, c=1, p=2, d=8, heads=2, layers=1, k=3), AblationSpec("block", 2), 0), 3)
def test_batched_step_equals_the_per_sample_sum_on_random_batches(case, batch):
    cfg, spec, seed = case
    params = Model.init(cfg, seed=seed).params
    size = len(ablation_anchors(cfg.h, cfg.w, spec))
    assume(size)
    rng = np.random.default_rng(seed)
    anchors = rng.integers(0, size, size=batch)
    labels = rng.integers(0, cfg.k, size=batch).tolist()
    images = [_image(cfg, seed + i) for i in range(batch)]
    _assert_batch_equals_per_sample_sum(images, spec, anchors, labels, params, cfg)


def test_one_recorded_forward_per_token_count(monkeypatch):
    # single-cell ablations share one stack like any other token count
    cfg = ViTConfig(h=16, w=16, c=3, p=4, d=16, heads=2, layers=1, k=5)
    params = Model.init(cfg, seed=14).params
    spec = AblationSpec("block", 4)
    anchors = [  # top * 16 + left, and the cells each ablation keeps
        0,  # 1
        5 * 16 + 6,  # 4
        4 * 16 + 4,  # 1
        2,  # 2
        8 * 16,  # 1
        14 * 16 + 14,  # 4
        12 * 16 + 12,  # 1
    ]
    images = [_image(cfg, 14 + i) for i in range(len(anchors))]
    core, loss = vit._encoder_core, nx.cross_entropy
    stacks, loss_rows = [], []

    def counting_core(cells, grid_idx, params, cfg, record=False):
        stacks.append((grid_idx.shape[1], len(grid_idx), record))  # (cells, sets, record)
        return core(cells, grid_idx, params, cfg, record)

    def counting_loss(logits, targets):
        loss_rows.append(len(logits))
        return loss(logits, targets)

    monkeypatch.setattr(vit, "_encoder_core", counting_core)
    monkeypatch.setattr(nx, "cross_entropy", counting_loss)
    labels = [j % cfg.k for j in range(len(anchors))]
    loss_and_gradients(images, spec, anchors, labels, params, cfg)
    assert sorted(stacks) == [(1, 4, True), (2, 1, True), (4, 2, True)]
    assert sorted(loss_rows) == [1, 2, 4]  # one loss call per stack, over all its rows
    _assert_batch_equals_per_sample_sum(images, spec, anchors, labels, params, cfg)


def test_loss_and_gradients_rejects_mismatched_batches():
    cfg = ViTConfig(h=8, w=8, c=1, p=4, d=4, heads=2, layers=1, k=3)
    params = Model.init(cfg, seed=0).params
    x, spec = _image(cfg), AblationSpec("column", 3)
    for images, anchors, labels in (([x, x], [0, 0], [1]), ([x, x], [0], [1, 1]), ([], [], [])):
        with pytest.raises(ParameterError, match="equally many images, anchors and labels"):
            loss_and_gradients(images, spec, anchors, labels, params, cfg)
    for anchor in (-1, 8):
        with pytest.raises(ParameterError, match=r"anchors outside \[0, 8\)"):
            loss_and_gradients([x], spec, [anchor], [1], params, cfg)
    with pytest.raises(DimensionError, match=r"do not match config \(8, 8, 1\)"):
        loss_and_gradients([np.zeros((8, 12, 1), np.float32)], spec, [0], [1], params, cfg)


def test_train_epoch_equals_the_reference_update():
    cfg = ViTConfig(h=8, w=8, c=1, p=2, d=16, heads=4, layers=2, k=3)
    data = make_stripe_dataset(20, 8, 8, 3, 0.2, seed=6)
    tcfg = TrainConfig(batch_size=8, b_train=3, kind="block", seed=6, lr=0.05, weight_decay=1e-2)
    model = Model.init(cfg, seed=6)
    ref_params = {k: v.copy() for k, v in model.params.items()}
    ref_state = OptState.fresh(Model(cfg, ref_params), tcfg)
    state = None
    for _ in range(2):
        model, loss, state = train_epoch(model, data, tcfg, state)
        # the reference epoch: zero-filled batch sums, out-of-place update
        order = ref_state.rng.permutation(len(data))
        ref_loss = 0.0
        for start in range(0, len(order), tcfg.batch_size):
            idx = order[start : start + tcfg.batch_size]
            acc = {k: np.zeros_like(v) for k, v in ref_params.items()}
            for i in idx:  # the pixel ablation at a (top, left) drawn per sample
                top, left = (int(ref_state.rng.integers(0, size)) for size in (cfg.h, cfg.w))
                z = block_ablation(data.images[i], top, left, tcfg.b_train)
                label = int(data.labels[i])
                sample_loss, g = per_sample_loss_and_gradients(z, label, ref_params, cfg)
                ref_loss += sample_loss
                for k in acc:
                    acc[k] += g[k]
            for k, theta in ref_params.items():
                step = acc[k] * (1.0 / len(idx)) + tcfg.weight_decay * theta
                v = ref_state.velocity[k]
                v *= tcfg.momentum
                v += step
                theta -= tcfg.lr * v
        assert loss == ref_loss / len(data)
        for k in ref_params:
            assert model.params[k].tobytes() == ref_params[k].tobytes(), k
            assert state.velocity[k].tobytes() == ref_state.velocity[k].tobytes(), k


def test_a_pixel_outside_the_unit_interval_stops_training_before_any_step():
    cfg = ViTConfig(h=8, w=8, c=1, p=2, d=8, heads=2, layers=1, k=2)
    data = make_stripe_dataset(24, 8, 8, 2, 0.2, seed=3)
    tcfg = TrainConfig(batch_size=8, b_train=3, kind="column", seed=5)
    model = Model.init(cfg, seed=5)
    before = {k: v.copy() for k, v in model.params.items()}
    # the record the epoch reaches last, in its third batch
    last = OptState.fresh(model, tcfg).rng.permutation(len(data))[-1]
    data.images[last, 3, 4, 0] = 1.5
    with pytest.raises(ParameterError, match=r"pixel values must lie in \[0, 1\]"):
        train_epoch(model, data, tcfg)
    for name, value in model.params.items():
        assert value.tobytes() == before[name].tobytes(), name


def test_train_epoch_refuses_empty_data_by_name():
    cfg = ViTConfig(h=8, w=8, c=1, p=2, d=8, heads=2, layers=1, k=2)
    empty = make_stripe_dataset(0, 8, 8, 2, 0.2, seed=3)
    with pytest.raises(ParameterError, match="at least one training image"):
        train_epoch(Model.init(cfg, seed=5), empty, TrainConfig(b_train=3))


def test_training_builds_no_pixel_ablation(monkeypatch):
    # training and its validation read the stack plan; the pixel builders are
    # left for ablate, the logit gate and the oracle
    def refuse(*args):
        raise AssertionError("training built a pixel ablation")

    monkeypatch.setattr(ablation, "_ablated", refuse)
    cfg = ViTConfig(h=8, w=8, c=1, p=2, d=8, heads=2, layers=1, k=3)
    data = make_stripe_dataset(40, 8, 8, 3, 0.2, seed=9)
    for kind in ("column", "block"):
        tcfg = TrainConfig(epochs=2, batch_size=8, b_train=3, kind=kind, seed=9)
        train_epoch(Model.init(cfg, seed=9), data.subset("train"), tcfg)
        fit(Model.init(cfg, seed=9), data, tcfg)


def test_seeded_fit_is_byte_identical(tmp_path):
    cfg = ViTConfig(h=8, w=8, c=1, p=2, d=8, heads=2, layers=1, k=3)
    data = make_stripe_dataset(40, 8, 8, 3, 0.2, seed=7)
    tcfg = TrainConfig(epochs=3, batch_size=8, b_train=3, kind="column", seed=7, patience=3)
    runs = []
    for run in range(2):
        result = fit(Model.init(cfg, seed=7), data, tcfg)
        ckpt = tmp_path / f"fit{run}.svit"
        save_checkpoint(result["model"], ckpt)
        runs.append((ckpt.read_bytes(), result["log"]))
    assert runs[0] == runs[1]
    assert len(runs[0][1].splitlines()) == 3


def test_fit_stops_after_patience_epochs_without_improvement(monkeypatch):
    cfg = ViTConfig(h=8, w=8, c=1, p=2, d=8, heads=2, layers=1, k=3)
    data = make_stripe_dataset(40, 8, 8, 3, 0.2, seed=7)
    tcfg = TrainConfig(epochs=10, batch_size=8, b_train=3, kind="column", seed=7, patience=2)
    scores = [0.5, 0.7, 0.6, 0.6]  # best at epoch 1, then two epochs without improvement
    seen = []

    def scripted(model, val, b_eval, kind):
        assert (b_eval, kind) == (tcfg.b_train, tcfg.kind)
        seen.append({k: v.copy() for k, v in model.params.items()})
        return scores[len(seen) - 1]  # an IndexError if a fifth epoch ran

    monkeypatch.setattr(train, "_ablation_accuracy", scripted)
    result = fit(Model.init(cfg, seed=7), data, tcfg)
    assert len(seen) == 4
    assert result["best_epoch"] == 1 and result["val_history"] == scores
    for name, value in result["model"].params.items():
        assert value.tobytes() == seen[1][name].tobytes(), name
    assert any(seen[3][k].tobytes() != seen[1][k].tobytes() for k in seen[1])
    lines = [json.loads(line) for line in result["log"].splitlines()]
    assert [(line["epoch"], line["val_ablation_acc"]) for line in lines] == list(enumerate(scores))


def test_checkpoint_round_trips_every_parameter(tmp_path):
    cfg = ViTConfig(h=8, w=12, c=3, p=4, d=8, heads=2, layers=2, k=5)
    model = Model.init(cfg, seed=8)
    rng = np.random.default_rng(8)
    for v in model.params.values():  # every float32 bit pattern class, not just the init values
        v[...] = rng.normal(0.0, 10.0, size=v.shape)
    model.params["head.bias"][:3] = [-0.0, np.float32(1e-45), np.float32(3.4e38)]
    path = tmp_path / "m.svit"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.cfg == cfg
    assert list(loaded.params) == list(model.params)
    for name, value in model.params.items():
        assert loaded.params[name].dtype == np.float32
        assert loaded.params[name].shape == value.shape
        assert loaded.params[name].tobytes() == value.tobytes(), name


def _write_raw_checkpoint(path, config, params):
    """save_checkpoint's layout for any config dict and tensors."""
    manifest = [{"name": n, "shape": list(v.shape)} for n, v in params.items()]
    header = json.dumps({"config": config, "manifest": manifest}, sort_keys=True).encode("utf-8")
    tensors = b"".join(np.ascontiguousarray(v, dtype="<f4").tobytes() for v in params.values())
    path.write_bytes(vit.CHECKPOINT_MAGIC + struct.pack("<II", vit.CHECKPOINT_VERSION, len(header))
                     + header + tensors)


def test_config_has_no_readout_switch():
    dims = dict(h=8, w=8, c=1, p=4, d=4, heads=2, layers=1, k=3)
    for value in (True, False):
        with pytest.raises(TypeError):
            ViTConfig(**dims, use_class_token=value)
    assert ViTConfig(**dims).to_dict()["use_class_token"] is True


@pytest.mark.parametrize("value", [False, 1, "missing"])
def test_a_checkpoint_without_the_class_token_is_a_format_error(tmp_path, capsys, value):
    cfg = ViTConfig(h=8, w=8, c=1, p=4, d=4, heads=2, layers=1, k=3)
    model = Model.init(cfg, seed=10)
    good = tmp_path / "good.svit"
    _write_raw_checkpoint(good, cfg.to_dict(), model.params)
    save_checkpoint(model, tmp_path / "saved.svit")
    assert good.read_bytes() == (tmp_path / "saved.svit").read_bytes()
    # the layout a mean-pool model had: no class-token tensors, and the header says so
    config = {k: v for k, v in cfg.to_dict().items() if k != "use_class_token"}
    if value != "missing":
        config["use_class_token"] = value
    params = {k: v for k, v in model.params.items() if not k.startswith("cls_")}
    path = tmp_path / "meanpool.svit"
    _write_raw_checkpoint(path, config, params)
    with pytest.raises(FormatError, match="use_class_token"):
        load_checkpoint(path)
    assert cli.main(["certify", "--ckpt", str(path), "--out", str(tmp_path / "out")]) == 2
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["exit_code"] == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_tensor_is_a_format_error(tmp_path, capsys, bad):
    cfg = ViTConfig(h=8, w=8, c=1, p=4, d=4, heads=2, layers=1, k=3)
    for name in ("patch_embed.weight", "head.bias"):
        model = Model.init(cfg, seed=11)
        model.params[name].flat[1] = bad
        path = tmp_path / "bad.svit"
        save_checkpoint(model, path)
        with pytest.raises(FormatError, match=name.replace(".", r"\.")):
            load_checkpoint(path)
        assert cli.main(["certify", "--ckpt", str(path), "--out", str(tmp_path / "out")]) == 2
        assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["exit_code"] == 2
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name,shape", [
    ("pos_embed", (1, 4)),
    ("layers.0.mlp.w1", (4, 8)),
    ("layers.0.attn.bq", (5,)),
    ("patch_embed.weight", (4, 16)),
    ("head.bias", (1, 3)),
    ("cls_token", ()),
])
def test_a_mis_shaped_tensor_is_a_format_error(tmp_path, name, shape):
    cfg = ViTConfig(h=8, w=8, c=1, p=4, d=4, heads=2, layers=1, k=3)
    params = dict(Model.init(cfg, seed=12).params, **{name: np.zeros(shape, np.float32)})
    path = tmp_path / "bad.svit"
    _write_raw_checkpoint(path, cfg.to_dict(), params)
    with pytest.raises(FormatError, match=name.replace(".", r"\.")):
        load_checkpoint(path)


@pytest.mark.parametrize("entry", [{"name": "pos_embed"}, {"name": "pos_embed", "shape": 3}, "x"])
def test_an_unreadable_manifest_entry_is_a_format_error(tmp_path, entry):
    cfg = ViTConfig(h=8, w=8, c=1, p=4, d=4, heads=2, layers=1, k=3)
    path = tmp_path / "m.svit"
    save_checkpoint(Model.init(cfg, seed=12), path)
    blob = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12 : 12 + hlen])
    header["manifest"][2] = entry
    text = json.dumps(header).encode()
    path.write_bytes(blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + hlen :])
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_truncation_at_every_tensor_boundary_is_a_format_error(tmp_path, capsys):
    cfg = ViTConfig(h=8, w=8, c=1, p=4, d=4, heads=2, layers=1, k=2)
    path = tmp_path / "m.svit"
    save_checkpoint(Model.init(cfg, seed=9), path)
    blob = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", blob, 8)
    bounds = [12 + hlen]
    for entry in json.loads(blob[12 : 12 + hlen])["manifest"]:
        bounds.append(bounds[-1] + 4 * int(np.prod(entry["shape"])))
    assert bounds[-1] == len(blob)
    cut_path = tmp_path / "cut.svit"
    for end in [*bounds[:-1], *(b + 2 for b in bounds[:-1])]:
        cut_path.write_bytes(blob[:end])
        with pytest.raises(FormatError):
            load_checkpoint(cut_path)
        assert cli.main(["certify", "--ckpt", str(cut_path), "--out", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["exit_code"] == 2


def _one_draw_stripe_images(n, h, w, k, noise, seed, channels):
    """make_stripe_dataset's images as one full-shape noise draw made them, and the generator."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, k, size=n).astype(np.int64)
    base = train.stripe_base_levels(k)[labels].astype(np.float32)
    images = np.broadcast_to(base[:, None, None, None], (n, h, w, channels)).copy()
    if noise > 0:
        images += rng.uniform(-noise, noise, size=images.shape).astype(np.float32)
        np.clip(images, 0.0, 1.0, out=images)
    return labels, images, rng


@pytest.mark.parametrize("n,h,w,k,noise,seed,channels", [
    (24, 8, 8, 2, 0.2, 3, 1), (37, 5, 7, 4, 0.45, 9, 3), (6, 16, 16, 8, 0.1, 0, 3),
    (5, 4, 4, 3, 0.0, 1, 1), (0, 4, 4, 2, 0.2, 2, 1),
])
def test_stripe_noise_drawn_per_image_equals_one_draw(monkeypatch, n, h, w, k, noise, seed, channels):
    made = []
    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda s: made.append(real(s)) or made[-1])
    data = make_stripe_dataset(n, h, w, k, noise, seed, channels=channels)
    monkeypatch.undo()
    labels, images, rng = _one_draw_stripe_images(n, h, w, k, noise, seed, channels)
    assert data.labels.tobytes() == labels.tobytes()
    assert data.images.dtype == images.dtype and data.images.shape == images.shape
    assert data.images.tobytes() == images.tobytes()
    assert made[0].bit_generator.state == rng.bit_generator.state


def test_stripe_splits_are_the_integer_shares():
    # n = 90 kept 62 train records when the share was int(n * 0.70)
    for n in range(1001):
        splits = make_stripe_dataset(n, 1, 1, 2, 0.0, seed=0).splits.tolist()
        n_train, n_val = n * 70 // 100, n * 15 // 100
        assert splits == ["train"] * n_train + ["val"] * n_val + ["test"] * (n - n_train - n_val), n


def test_a_labeled_dataset_refuses_unequal_lengths_and_labels_out_of_range():
    images, splits = np.zeros((3, 4, 4, 1), np.float32), np.array(["test"] * 3, dtype=object)
    with pytest.raises(ParameterError, match="equal length"):
        train.LabeledDataset(images=images, labels=np.zeros(2, np.int64), splits=splits, k=2)
    for bad in (-1, 2):
        with pytest.raises(ParameterError, match=r"labels outside \[0, 2\)"):
            train.LabeledDataset(images=images, labels=np.array([0, bad, 1]), splits=splits, k=2)


def test_cost_model_refuses_a_stack_without_tokens():
    cfg = ViTConfig(h=8, w=8, c=1, p=4, d=4, heads=2, layers=1, k=2)
    with pytest.raises(ParameterError, match="token count must be >= 1"):
        CostModel.for_config(cfg).breakdown(0)


def test_forwards_refuse_a_misshaped_image_or_mask_and_an_empty_ablation():
    cfg = ViTConfig(h=8, w=8, c=1, p=4, d=4, heads=2, layers=1, k=2)
    params = Model.init(cfg).params
    x = _image(cfg)
    z = column_ablation(x, 0, 3)
    for forward in (ablation_logits, masked_attention_oracle_forward):
        with pytest.raises(DimensionError, match="ablated image shape"):
            forward(AblatedImage(np.zeros((8, 8, 3), np.float32), z.mask), params, cfg)
        with pytest.raises(DimensionError, match="mask shape"):
            forward(AblatedImage(z.pixels, z.mask[:4]), params, cfg)
        with pytest.raises(InputError, match="masks every token"):
            forward(AblatedImage(np.zeros_like(x), np.zeros_like(z.mask)), params, cfg)
    with pytest.raises(DimensionError, match="does not match config"):
        per_ablation_predictions(np.zeros((8, 12, 1), np.float32), AblationSpec("column", 3),
                                 params, cfg)


def test_train_config_rejects_an_unknown_kind():
    with pytest.raises(ParameterError, match="'diag'"):
        TrainConfig(kind="diag")


@pytest.mark.parametrize("field,value", [
    ("b_train", 2.0), ("b_train", True), ("epochs", True), ("batch_size", 2.5), ("seed", 1.5),
    ("seed", -1), ("patience", False),
])
def test_train_config_refuses_an_integer_field_that_is_no_valid_integer(field, value):
    with pytest.raises(ParameterError):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("field,value", [
    ("lr", True), ("momentum", False), ("weight_decay", True), ("lr", "0.1"), ("momentum", None),
    ("weight_decay", [0.1]),
])
def test_train_config_refuses_a_rate_that_is_no_number(field, value):
    with pytest.raises(ParameterError, match="must be numbers"):
        TrainConfig(**{field: value})
    assert getattr(TrainConfig(**{field: 0}), field) == 0  # an int is a number
