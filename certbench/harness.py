"""Workloads, the untimed prepare step, and the timed passes.

Every workload runs in one process and drives only public patchcert
entry points, called through their module attribute so that a traced
run sees them. A run is:

1. prepare (untimed, cached per source tree): train the workload's
   checkpoint with ``train_epoch`` on seeded stripe data;
2. set-up, repeated SETUP_REPEATS times: load the checkpoint, build the
   dataset from ``--seed`` and compute Delta for every patch size;
3. one untimed warm-up item, then the untraced timed pass, whose
   timings RefClock rescales to reference-machine seconds;
4. with ``--trace 1``, the same work again with tracing installed;
5. the correctness gate.

The work in a run is fixed by the seed and ``--seconds``: each workload
names the items per second it reaches on the 2-CPU reference machine
(``rate``), so a run there measures about ``--seconds``. Fixed work keeps
certified accuracy and training loss deterministic per seed.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import json
import math
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

import patchcert
from patchcert import bench as cost
from patchcert import certify, numerics, train, vit
from patchcert.ablation import AblationSpec, ablation_anchors
from patchcert.errors import DivergenceError
from patchcert.train import LabeledDataset, TrainConfig
from patchcert.vit import ViTConfig

from . import checks, tracing
from .refclock import RefClock

NOISE = 0.45
BATCH = 32
SETUP_REPEATS = 11
RECIPE_SEED = 0  # checkpoints are the same for every --seed
GATE_IMAGES = 2  # images whose votes the gate recomputes
GATE_ABLATIONS = 8  # ablations per gate image checked against the oracle
FINE_TUNE_LR = 0.002  # the train workload fine-tunes a trained checkpoint
CIFAR = ViTConfig(h=32, w=32, c=3, p=4, d=64, heads=4, layers=4, k=4)
IMAGENET = ViTConfig(h=224, w=224, c=3, p=16, d=128, heads=4, layers=3, k=4)
END_TO_END_UNITS = {
    "setup_s": "s",
    "images_per_s": "1/s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "certified_accuracy": "fraction",
    "train_loss": "nats",
}
PER_LAYER_UNITS = {
    "ablation.calls": "count",
    "ablation.busy_s": "s",
    "ablation.bytes_computed": "B",
    "vit.forwards": "count",
    "vit.busy_s": "s",
    "vit.forward_us_p50": "us",
    "vit.forward_us_p99": "us",
    "vit.tokens_mean": "tokens",
    "vit.macs": "MAC",
    "vit.macs_per_s": "MAC/s",
    "vit.macs.attention": "MAC",
    "vit.macs.projections": "MAC",
    "vit.macs.mlp": "MAC",
    "vit.macs.tokenization": "MAC",
    "vit.macs.head": "MAC",
    "numerics.matmul_calls": "count",
    "numerics.matmul_busy_s": "s",
    "numerics.macs_per_call": "MAC",
    "certify.votes_s": "s",
    "certify.delta_s": "s",
    "certify.flip_search_s": "s",
    "certify.flip_pairs": "count",
    "certify.certified_share": "fraction",
    "train.grad_s": "s",
    "train.ablation_s": "s",
    "train.update_s": "s",
    "train.macs_per_sample": "MAC",
    "train.steps": "count",
    "tracing.overhead_pct": "%",
    "tracing.spans": "count",
}
STAGE_KEYS = {
    "attention": "attention_quadratic",
    "projections": "projections_linear",
    "mlp": "mlp_linear",
    "tokenization": "tokenization",
    "head": "head",
}


@dataclass(frozen=True)
class Recipe:
    """How the prepare step trains a checkpoint: column ablations, fixed seed."""

    name: str
    cfg: ViTConfig
    b_train: int
    samples: int
    epochs: int


# Six CIFAR epochs leave votes skewed like a real model's: on block b=8
# some images certify and others fall short.
CIFAR_RECIPE = Recipe("cifar", CIFAR, b_train=4, samples=320, epochs=6)
IMAGENET_RECIPE = Recipe("imagenet", IMAGENET, b_train=19, samples=320, epochs=4)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "certify", "audit" or "train"
    recipe: Recipe
    spec: AblationSpec  # the certified family; for "train", of the held-out images
    patch_sizes: tuple
    delta_mode: str
    rate: float  # items/s on the reference machine (images, or training samples)
    audit_m: int = 0
    epoch_samples: int = 0
    eval_images: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cifar-block",
            "1024 forwards of 2-10 tokens per image: per-forward dispatch in vit/numerics dominates, ablation ~3%",
            "certify", CIFAR_RECIPE, AblationSpec("block", 8), (2, 4), "safe", rate=1.0,
        ),
        Workload(
            "imagenet-column",
            "224 forwards of 29-43 tokens per image; building 135 MB of full-size ablations is ~15% of image time",
            "certify", IMAGENET_RECIPE, AblationSpec("column", 19), (32,), "safe", rate=1.5,
        ),
        Workload(
            "imagenet-audit",
            "paper ImageNet setting (column b=19, s=10) with oracle Delta and a flip-search audit: certify dominates",
            "audit", IMAGENET_RECIPE, AblationSpec("column", 19, 10), (16, 32, 64), "oracle",
            rate=5.5, audit_m=32,
        ),
        Workload(
            "cifar-train",
            "train_epoch write path (forward, backward, momentum SGD), then certify held-out images",
            "train", CIFAR_RECIPE, AblationSpec("column", 4), (2,), "safe",
            rate=256.0, epoch_samples=512, eval_images=128,
        ),
    )
}


# ---------------------------------------------------------------------------
# prepare: cached checkpoints


def source_digest() -> str:
    """sha256 over the patchcert sources, so a cached checkpoint is per commit."""
    h = hashlib.sha256()
    for path in sorted(Path(patchcert.__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _train_checkpoint(recipe: Recipe, path: str) -> None:
    cfg = recipe.cfg
    model = vit.Model.init(cfg, RECIPE_SEED)
    data = train.make_stripe_dataset(recipe.samples, cfg.h, cfg.w, cfg.k, NOISE, RECIPE_SEED, channels=cfg.c)
    tcfg = TrainConfig(batch_size=BATCH, b_train=recipe.b_train, kind="column", seed=RECIPE_SEED)
    state = None
    for _ in range(recipe.epochs):
        model, loss, state = train.train_epoch(model, data, tcfg, state)
    target = Path(path)
    vit.save_checkpoint(model, target.with_suffix(".tmp"))
    os.replace(target.with_suffix(".tmp"), target)
    meta = target.with_suffix(".json")
    meta.with_suffix(".jtmp").write_text(json.dumps({"final_loss": loss}))
    os.replace(meta.with_suffix(".jtmp"), meta)


def checkpoint(recipe: Recipe, cache_dir: Path) -> tuple[Path, float]:
    """Path of the recipe's checkpoint and its final training loss.

    Trains in a child interpreter on a cache miss, so the training set
    does not count toward this process's peak memory. The child is a
    plain ``python -c`` waited for by ``subprocess.run``: a
    multiprocessing "spawn" child would also start a resource-tracker
    process that outlives this one.
    """
    key = hashlib.sha256(
        (json.dumps(asdict(recipe), sort_keys=True) + source_digest()).encode()
    ).hexdigest()[:16]
    path = cache_dir / f"{recipe.name}-{key}.svit"
    meta = path.with_suffix(".json")
    if not meta.exists():
        cache_dir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(patchcert.__file__).parent.parent), str(Path(__file__).parent.parent)]
            + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        ))
        code = ("import pickle, sys; from certbench import harness; "
                "harness._train_checkpoint(*pickle.load(sys.stdin.buffer))")
        proc = subprocess.run([sys.executable, "-c", code], input=pickle.dumps((recipe, str(path))),
                              env=env, stdout=subprocess.DEVNULL)
        if proc.returncode != 0 or not meta.exists():
            raise RuntimeError(f"training checkpoint {recipe.name} failed (exit {proc.returncode})")
    return path, json.loads(meta.read_text())["final_loss"]


# ---------------------------------------------------------------------------
# set-up


@dataclass
class Setup:
    model: vit.Model
    train_data: LabeledDataset | None  # "train" only
    images: LabeledDataset  # the certified images
    deltas: dict


def stripe_images(n: int, cfg: ViTConfig, seed: int, stream: int = 0) -> LabeledDataset:
    """n seeded stripe images with every class equally often (k divides n).

    Whether an image certifies depends mostly on its class, so balanced
    classes keep certified accuracy and loss steady from seed to seed
    while the pixels still change with it. The images follow
    ``train.make_stripe_dataset`` (class level plus bounded uniform noise,
    clipped to [0, 1]) but with the labels a shuffled balanced sequence,
    so building them is the same work for every seed.
    """
    if n % cfg.k:
        raise ValueError(f"{n} images cannot hold {cfg.k} classes equally often")
    rng = np.random.default_rng([seed, stream])
    labels = rng.permutation(np.repeat(np.arange(cfg.k, dtype=np.int64), n // cfg.k))
    base = train.stripe_base_levels(cfg.k)[labels].astype(np.float32)
    images = np.broadcast_to(base[:, None, None, None], (n, cfg.h, cfg.w, cfg.c)).copy()
    images += rng.uniform(-NOISE, NOISE, size=images.shape).astype(np.float32)
    np.clip(images, 0.0, 1.0, out=images)
    return LabeledDataset(images=images, labels=labels, splits=np.asarray(["test"] * n), k=cfg.k)


def delta_for(w: Workload, cfg: ViTConfig, m: int) -> int:
    if w.delta_mode == "oracle":
        return certify.delta_oracle(cfg.h, cfg.w, w.spec, m)
    return certify.delta_closed_form(w.spec, m, w.delta_mode, dims=(cfg.h, cfg.w))


def setup(w: Workload, ckpt: Path, seed: int, n_images: int) -> Setup:
    model = vit.load_checkpoint(ckpt)
    cfg = model.cfg
    train_data = stripe_images(w.epoch_samples, cfg, seed, stream=1) if w.kind == "train" else None
    images = stripe_images(n_images, cfg, seed)
    deltas = {m: delta_for(w, cfg, m) for m in w.patch_sizes}
    return Setup(model, train_data, images, deltas)


# ---------------------------------------------------------------------------
# timed work


def certify_image(w: Workload, st: Setup, model: vit.Model, i: int) -> dict:
    """Certify image i; the record carries its wall-clock seconds."""
    data = st.images
    cfg = model.cfg
    if w.kind == "audit":
        x, label = data.images[i], int(data.labels[i])
        t0 = time.perf_counter()
        preds = vit.per_ablation_predictions(x, w.spec, model.params, cfg)
        votes = certify.aggregate_votes(preds, cfg.k)
        certs = [certify.certify_votes(votes, st.deltas[m], m, w.delta_mode) for m in w.patch_sizes]
        flip = certify.adversarial_flip_search(preds, w.spec, cfg.h, cfg.w, w.audit_m, label, cfg.k)
        seconds = time.perf_counter() - t0
        return {
            "index": i, "label": label, "predicted": certs[0].predicted,
            "runner_up": certs[0].runner_up, "margin": certs[0].margin,
            "certified": {str(c.patch_m): c.certified for c in certs},
            "deltas": {c.patch_m: c.delta for c in certs},
            "attack_flips": flip.changed, "preds": preds, "seconds": seconds,
        }
    one = LabeledDataset(images=data.images[i : i + 1], labels=data.labels[i : i + 1],
                         splits=data.splits[i : i + 1], k=data.k)
    t0 = time.perf_counter()
    report = certify.certified_accuracy(one, model, w.spec, w.patch_sizes, w.delta_mode)
    seconds = time.perf_counter() - t0
    record = dict(report["per_image"][0], index=i, seconds=seconds)
    record["deltas"] = {e["m"]: e["delta"] for e in report["certified"]}
    return record


@dataclass
class Pass:
    """What one pass over the workload's items measured."""

    model: vit.Model
    records: list = field(default_factory=list)
    epoch_seconds: list = field(default_factory=list)
    losses: list = field(default_factory=list)
    image_macs: list = field(default_factory=list)
    steps: int = 0
    failed_steps: int = 0
    train_macs: int = 0

    def seconds(self) -> float:
        return sum(self.epoch_seconds) + sum(r["seconds"] for r in self.records)


def run_pass(w: Workload, st: Setup, epochs: int, seed: int, tracer: tracing.Tracer | None = None,
             clock: RefClock | None = None) -> Pass:
    """The timed work: training epochs (train only), then every image."""
    counting = numerics.count_macs if tracer else contextlib.nullcontext
    p = Pass(model=st.model.copy() if w.kind == "train" else st.model)
    model = p.model
    if tracer:
        tracer.watch_params(model.params)
    if w.kind == "train":
        tcfg = TrainConfig(batch_size=BATCH, b_train=w.recipe.b_train, kind="column",
                           lr=FINE_TUNE_LR, seed=seed)
        state = train.OptState.fresh(model, tcfg)
        steps = math.ceil(len(st.train_data) / BATCH)
        for e in range(epochs):
            if tracer:
                tracer.item = f"epoch:{e}"
            p.steps += steps
            t0 = time.perf_counter()
            with counting() as counter:
                try:
                    model, loss, state = train.train_epoch(model, st.train_data, tcfg, state)
                except DivergenceError as exc:  # the diverged step and the rest of its epoch
                    p.failed_steps += steps - (exc.batch_index or 0)
                    loss = float("nan")
                    state.epoch += 1
            p.epoch_seconds.append(time.perf_counter() - t0)
            p.losses.append(loss)
            if clock:
                clock.add("epoch", p.epoch_seconds[-1])
            if counter is not None:
                p.train_macs += counter.total
    for i in range(len(st.images)):
        if tracer:
            tracer.item = f"image:{i}"
        with counting() as counter:
            p.records.append(certify_image(w, st, model, i))
        if counter is not None:
            p.image_macs.append(counter.total)
        if clock:
            clock.add("image", p.records[-1]["seconds"])
    if clock:
        clock.flush()
    return p


# ---------------------------------------------------------------------------
# the run


def plan(w: Workload, seconds: int) -> tuple[int, int]:
    """(images, epochs) that take about ``seconds`` on the reference machine.

    Image counts are whole multiples of the class count k.
    """
    if w.kind == "train":
        return w.eval_images, max(2, round(seconds * w.rate / w.epoch_samples))
    k = w.recipe.cfg.k
    return k * max(1, math.ceil(seconds * w.rate / k)), 0


def _median(values) -> float:
    return float(statistics.median(values))


def _certified_accuracy(records, m: int) -> float:
    hits = sum(1 for r in records if r["predicted"] == r["label"] and r["certified"][str(m)])
    return hits / len(records)


def end_to_end(w: Workload, p: Pass, times: dict, ckpt_loss: float) -> dict:
    """End-to-end metrics from per-item seconds (``times`` maps item kind to them)."""
    per_image = _median(times["image"])
    if w.kind == "train":
        samples_per_s = w.epoch_samples / _median(times["epoch"])
        train_loss = sum(p.losses) / len(p.losses)
    else:  # a "sample" is one ablated image through the model
        samples_per_s = len(ablation_anchors(w.recipe.cfg.h, w.recipe.cfg.w, w.spec)) / per_image
        train_loss = ckpt_loss
    return {
        "setup_s": _median(times["setup"]),
        "images_per_s": 1.0 / per_image,
        "samples_per_s": samples_per_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "certified_accuracy": _certified_accuracy(p.records, max(w.patch_sizes)),
        "train_loss": train_loss,
    }


def analytic_macs(w: Workload) -> dict:
    """Per-image forward MACs by stage, from CostModel.breakdown."""
    cfg = w.recipe.cfg
    model = cost.CostModel.for_config(cfg)
    tokens = cost.smoothing_cost(cfg, w.spec)["tokens"]
    return {stage: sum(model.breakdown(n)[key] for n in tokens) for stage, key in STAGE_KEYS.items()}


def per_layer(w: Workload, traced: Pass, untraced: Pass, tracer: tracing.Tracer,
              gate: checks.Gate) -> dict:
    """Span-derived layer metrics plus the exact MAC check."""
    cfg = w.recipe.cfg
    summary = tracing.summarize(tracer.spans)
    metrics = summary["metrics"]
    analytic = analytic_macs(w)
    macs_drop = cost.smoothing_cost(cfg, w.spec)["macs_drop"]
    for rec, counted in zip(traced.records, traced.image_macs):
        item = f"image:{rec['index']}"
        staged = summary["stage_macs"].get(item, {})
        gate.check(counted == macs_drop and staged == analytic,
                   f"{item}: count_macs {counted} vs smoothing_cost {macs_drop}; "
                   f"stages {staged} vs CostModel {analytic}")
    cls = 1 if cfg.use_class_token else 0
    rows = summary["forward_rows"]
    metrics["vit.tokens_mean"] = (sum(rows) / len(rows) + cls) if rows else 0.0
    metrics["vit.macs"] = _median(traced.image_macs)
    for stage, value in analytic.items():
        metrics[f"vit.macs.{stage}"] = value
    largest = str(max(w.patch_sizes))
    metrics["certify.certified_share"] = sum(r["certified"][largest] for r in traced.records) / len(traced.records)
    samples = w.epoch_samples * len(traced.epoch_seconds)
    metrics["train.macs_per_sample"] = traced.train_macs / samples if samples else 0.0
    metrics["train.steps"] = math.ceil(w.epoch_samples / BATCH) * len(traced.epoch_seconds)
    metrics["tracing.overhead_pct"] = 100.0 * (traced.seconds() / untraced.seconds() - 1.0)
    return metrics


def run_gate(w: Workload, st: Setup, p: Pass, seed: int, gate: checks.Gate) -> None:
    cfg = p.model.cfg
    rng = np.random.default_rng([seed, 2])
    reported: dict = {}
    for r in p.records:
        for m, delta in r["deltas"].items():
            reported.setdefault(m, set()).add(delta)
    checks.check_deltas(gate, reported, cfg.h, cfg.w, w.spec)
    picks = rng.choice(len(p.records), size=min(GATE_IMAGES, len(p.records)), replace=False)
    for j in sorted(int(j) for j in picks):
        rec = p.records[j]
        x = st.images.images[rec["index"]]
        if w.kind == "audit":
            # cross-check the audit's own votes against certified_accuracy
            one = LabeledDataset(images=x[None], labels=st.images.labels[rec["index"] : rec["index"] + 1],
                                 splits=st.images.splits[:1], k=cfg.k)
            report = certify.certified_accuracy(one, p.model, w.spec, w.patch_sizes, w.delta_mode)
            gate.check(report["per_image"][0]["certified"] == rec["certified"],
                       f"image {rec['index']}: audit certificates differ from certified_accuracy")
            preds = rec["preds"]
        else:
            preds = vit.per_ablation_predictions(x, w.spec, p.model.params, cfg)
        checks.check_votes(gate, rec, preds, cfg.k)
        checks.check_no_flip(gate, rec, preds, w.spec, cfg.h, cfg.w, cfg.k)
        checks.check_logits(gate, x, w.spec, p.model, rng, GATE_ABLATIONS)
    if w.kind == "audit":
        for rec in p.records:
            if rec["certified"][str(w.audit_m)]:
                gate.check(not rec["attack_flips"],
                           f"image {rec['index']}: certified at m={w.audit_m} but the audit found a flip")
    for e, loss in enumerate(p.losses):
        gate.check(math.isfinite(loss), f"epoch {e}: non-finite training loss {loss}")


def run(w: Workload, seed: int, seconds: int, trace: bool, work_dir: Path) -> dict:
    """One benchmark run; returns the result record (metrics with units)."""
    phases = {}
    last = time.perf_counter()

    def phase(name):
        nonlocal last
        now = time.perf_counter()
        phases[name] = now - last
        last = now

    ckpt, ckpt_loss = checkpoint(w.recipe, work_dir / "cache")
    n_images, epochs = plan(w, seconds)
    phase("prepare")

    clock = RefClock()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        st = setup(w, ckpt, seed, n_images)
        clock.add("setup", time.perf_counter() - t0)
        clock.flush()
    certify_image(w, st, st.model, 0)  # warm-up, outside every timed region
    phase("setup_and_warmup")
    untraced = run_pass(w, st, epochs, seed, clock=clock)
    metrics, units = end_to_end(w, untraced, clock.normalized, ckpt_loss), END_TO_END_UNITS
    wall_clock = end_to_end(w, untraced, clock.raw, ckpt_loss)
    phase("untraced")

    gate = checks.Gate()
    spans_path = None
    if trace:
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            tracer.item = "setup"
            traced_st = setup(w, ckpt, seed, n_images)
            traced = run_pass(w, traced_st, epochs, seed, tracer)
        phase("traced")
        metrics, units = per_layer(w, traced, untraced, tracer, gate), PER_LAYER_UNITS
        out_dir = work_dir / "out"
        out_dir.mkdir(parents=True, exist_ok=True)
        spans_path = out_dir / f"{w.name}.spans.jsonl"
        tracer.write_jsonl(spans_path)
        del tracer
        phase("spans_written")

    run_gate(w, st, untraced, seed, gate)
    phase("gate")
    return {
        "correct": untraced.failed_steps + len(gate.failures) == 0,
        "attempted": len(untraced.records) + untraced.steps + gate.attempted,
        "failed": untraced.failed_steps + len(gate.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "failures": gate.failures,
        "phases_s": phases,
        "wall_clock_metrics": wall_clock,
        "ref_kernel_s": clock.kernel_runs,
        "records": [{k: v for k, v in r.items() if k != "preds"} for r in untraced.records],
        "spans": str(spans_path) if spans_path else None,
    }


# ---------------------------------------------------------------------------
# provenance


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _openblas() -> tuple[str | None, int | None]:
    """OpenBLAS build string and thread count, asked of the loaded library."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None, None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
            try:
                config = getattr(lib, f"{prefix}get_config{suffix}")
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
            except AttributeError:
                continue
            config.restype = ctypes.c_char_p
            threads.restype = ctypes.c_int
            return config().decode(), int(threads())
    return None, None


def provenance(w: Workload, seed: int, seconds: int, trace: bool, root: Path) -> dict:
    blas, blas_threads = _openblas()
    return {
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(),
        "workload": w.name,
        "workload_config_hash": hashlib.sha256(
            json.dumps(asdict(w), sort_keys=True).encode()
        ).hexdigest()[:16],
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "patchcert": patchcert.__version__,
        "openblas": blas,
        "blas_threads": blas_threads,
    }
