"""The encoder: stacked smoothing engine vs per-ablation path vs masked oracle,
exact MACs, analytic gradients (batched-head backward vs the per-head
reference), training determinism and the checkpoint format."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchcert import vit
from patchcert.ablation import AblationSpec, ablation_set, block_ablation, column_ablation
from patchcert.bench import smoothing_cost, wallclock_harness
from patchcert import cli, train
from patchcert import numerics as nx
from patchcert.errors import FormatError, ParameterError
from patchcert.numerics import count_macs, finite_difference_gradient
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


def _reference_loss_and_gradients(z_m, label, params, cfg):
    """The per-head backward loss_and_gradients replaced: one head at a time,
    every gradient accumulated into a zero-filled dict. (Layer norm's
    equality with its ndarray.mean formulation is checked in test_numerics.)"""
    patches, grid_idx = vit._reduced_cells(z_m, cfg)
    x = vit._embed(patches[None], grid_idx[None], params, cfg)
    logits, ctx = vit._encoder_core(x, params, cfg, record=True)
    logits = logits[0]
    loss = nx.cross_entropy(logits, label)
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    dlogits = nx.cross_entropy_backward(logits, label)
    grads["head.weight"] += nx.matmul(ctx["r"].T, dlogits[None, :])
    grads["head.bias"] += dlogits
    dr = nx.matmul(dlogits[None, :], params["head.weight"].T)
    df = np.zeros_like(ctx["f"])
    if cfg.use_class_token:
        df[0] = dr[0]
    else:
        df += dr / ctx["n"]
    dx, dgf, dbf = nx.layer_norm_bwd(ctx["final_ln"], df)
    grads["final_ln.gamma"] += dgf
    grads["final_ln.beta"] += dbf
    dh, scale = cfg.head_dim, ctx["scale"]
    layers = vit._layer_views(params, cfg)
    for i in reversed(range(cfg.layers)):
        lc, lp, pre = ctx["layers"][i], layers[i], f"layers.{i}."
        grads[pre + "mlp.w2"] += nx.matmul(lc["act"].T, dx)
        grads[pre + "mlp.b2"] += dx.sum(axis=0)
        dm1 = nx.gelu_backward(lc["m1"], nx.matmul(dx, lp["mlp.w2"].T))
        grads[pre + "mlp.w1"] += nx.matmul(lc["h2"].T, dm1)
        grads[pre + "mlp.b1"] += dm1.sum(axis=0)
        dx_mid, dg2, db2 = nx.layer_norm_bwd(lc["ln2"], nx.matmul(dm1, lp["mlp.w1"].T))
        grads[pre + "ln2.gamma"] += dg2
        grads[pre + "ln2.beta"] += db2
        dx = dx + dx_mid
        grads[pre + "attn.wo"] += nx.matmul(lc["o"].T, dx)
        grads[pre + "attn.bo"] += dx.sum(axis=0)
        do = nx.matmul(dx, lp["attn.wo"].T)
        dq, dk, dv = (np.empty_like(lc[t]) for t in ("q", "k", "v"))
        for hd in range(cfg.heads):
            sl = slice(hd * dh, (hd + 1) * dh)
            a, doh = lc["attn"][hd], do[:, sl]
            da = nx.matmul(doh, np.ascontiguousarray(lc["v"][:, sl].T))
            dv[:, sl] = nx.matmul(a.T, doh)
            ds = nx.softmax_backward(a, da)
            dq[:, sl] = nx.matmul(ds, lc["k"][:, sl]) * scale
            dk[:, sl] = nx.matmul(ds.T, lc["q"][:, sl]) * scale
        for name, g in (("q", dq), ("k", dk), ("v", dv)):
            grads[pre + "attn.w" + name] += nx.matmul(lc["h1"].T, g)
            grads[pre + "attn.b" + name] += g.sum(axis=0)
        dh1 = (nx.matmul(dq, lp["attn.wq"].T) + nx.matmul(dk, lp["attn.wk"].T)
               + nx.matmul(dv, lp["attn.wv"].T))
        dx_in, dg1, db1 = nx.layer_norm_bwd(lc["ln1"], dh1)
        grads[pre + "ln1.gamma"] += dg1
        grads[pre + "ln1.beta"] += db1
        dx = dx + dx_in
    row0 = 0
    if cfg.use_class_token:
        grads["cls_token"] += dx[0]
        grads["cls_pos"] += dx[0]
        row0 = 1
    dgrid = dx[row0:]
    grads["patch_embed.weight"] += nx.matmul(patches.T, dgrid)
    grads["patch_embed.bias"] += dgrid.sum(axis=0)
    np.add.at(grads["pos_embed"], grid_idx, dgrid)
    return loss, grads


_CIFAR = dict(h=32, w=32, c=3, p=4, d=64, layers=4, k=10)
_IMAGENET = dict(h=224, w=224, c=3, p=16, d=128, layers=3, k=10)


@pytest.mark.parametrize("use_class_token", [True, False])
@pytest.mark.parametrize("heads", [2, 4, 8])
@pytest.mark.parametrize("dims,b_col,b_block", [(_CIFAR, 4, 8), (_IMAGENET, 19, 75)],
                         ids=["cifar", "imagenet"])
def test_batched_head_backward_equals_the_per_head_reference(dims, b_col, b_block, heads,
                                                            use_class_token):
    cfg = ViTConfig(heads=heads, use_class_token=use_class_token, **dims)
    params = Model.init(cfg, seed=heads).params
    x = _image(cfg, heads)
    h, w = cfg.h, cfg.w
    ablations = [  # an unwrapped and a wrapped ablation of each kind
        column_ablation(x, 3, b_col), column_ablation(x, w - 2, b_col),
        block_ablation(x, 5, 1, b_block), block_ablation(x, h - 3, w - b_block // 2, b_block),
    ]
    for j, z in enumerate(ablations):
        with count_macs() as macs:
            loss, grads = loss_and_gradients(z, j, params, cfg)
        with count_macs() as ref_macs:
            ref_loss, ref = _reference_loss_and_gradients(z, j, params, cfg)
        assert macs.total == ref_macs.total
        assert loss == ref_loss
        assert list(grads) == list(params)
        for name, g in grads.items():
            assert g.dtype == ref[name].dtype and g.shape == ref[name].shape, name
            assert np.array_equal(g, ref[name]), name
            assert not np.shares_memory(g, params[name]), name
        if use_class_token:
            assert not np.shares_memory(grads["cls_token"], grads["cls_pos"])


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
            for i in idx:
                z = train._random_ablation(data.images[i], tcfg, ref_state.rng)
                label = int(data.labels[i])
                sample_loss, g = _reference_loss_and_gradients(z, label, ref_params, cfg)
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


def test_seeded_fit_is_byte_identical(tmp_path):
    cfg = ViTConfig(h=8, w=8, c=1, p=2, d=8, heads=2, layers=1, k=3)
    data = make_stripe_dataset(40, 8, 8, 3, 0.2, seed=7)
    tcfg = TrainConfig(epochs=3, batch_size=8, b_train=3, kind="column", seed=7, patience=3)
    runs = []
    for run in range(2):
        log = tmp_path / f"fit{run}.jsonl"
        result = fit(Model.init(cfg, seed=7), data, tcfg, log_path=log)
        ckpt = tmp_path / f"fit{run}.svit"
        save_checkpoint(result["model"], ckpt)
        runs.append((ckpt.read_bytes(), log.read_bytes(), result["log_lines"]))
    assert runs[0] == runs[1]
    assert len(runs[0][2]) == 3


@pytest.mark.parametrize("use_class_token", [True, False])
def test_checkpoint_round_trips_every_parameter(tmp_path, use_class_token):
    cfg = ViTConfig(h=8, w=12, c=3, p=4, d=8, heads=2, layers=2, k=5,
                    use_class_token=use_class_token)
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


def test_train_config_rejects_an_unknown_kind():
    with pytest.raises(ParameterError, match="'diag'"):
        TrainConfig(kind="diag")


def test_wallclock_harness_checks_its_inputs_and_times_both_paths():
    cfg = ViTConfig(h=8, w=8, c=1, p=4, d=8, heads=2, layers=1, k=3)
    model = Model.init(cfg, seed=0)
    batch = ablation_set(_image(cfg), AblationSpec("column", 3, 4))
    with pytest.raises(ParameterError, match="at least 3 trials"):
        wallclock_harness(model, batch, trials=2)
    with pytest.raises(ParameterError, match="nonempty"):
        wallclock_harness(model, [], trials=3)
    timing = wallclock_harness(model, batch, trials=3)
    assert timing["trials"] == 3 and timing["batch_size"] == len(batch)
    for key in ("time_drop_mean_s", "time_full_mean_s", "speedup"):
        assert timing[key] > 0
    assert timing["time_drop_std_s"] >= 0 and timing["time_full_std_s"] >= 0
