"""Span tracing installed from outside the program.

A traced run replaces public patchcert functions, under the module
attribute their callers look up, with wrappers that record one span per
call: id, name, start, end, parent span and the current item (an image
or sample id the benchmark sets). Spans stay in memory and are written
as JSONL when the run ends. Runs are single-threaded, so the span stack
needs no lock. The untraced run never enters ``installed``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time

import numpy as np

# (module, attribute callers look up, span name). A name wrapped in two
# modules (aggregate_votes is imported into vit) gets one wrapper in each.
TARGETS = (
    ("patchcert.vit", "load_checkpoint", "vit.load_checkpoint"),
    ("patchcert.vit", "ablation_set", "ablation.ablation_set"),
    ("patchcert.train", "column_ablation", "ablation.column_ablation"),
    ("patchcert.train", "block_ablation", "ablation.block_ablation"),
    ("patchcert.vit", "smoothed_vit_forward", "vit.smoothed_vit_forward"),
    ("patchcert.vit", "per_ablation_predictions", "vit.per_ablation_predictions"),
    ("patchcert.vit", "process_ablation", "vit.process_ablation"),
    ("patchcert.numerics", "matmul", "numerics.matmul"),
    ("patchcert.vit", "aggregate_votes", "certify.aggregate_votes"),
    ("patchcert.certify", "aggregate_votes", "certify.aggregate_votes"),
    ("patchcert.certify", "certify_votes", "certify.certify_votes"),
    ("patchcert.certify", "delta_closed_form", "certify.delta"),
    ("patchcert.certify", "delta_oracle", "certify.delta"),
    ("patchcert.certify", "adversarial_flip_search", "certify.flip_search"),
    ("patchcert.certify", "certified_accuracy", "certify.certified_accuracy"),
    ("patchcert.train", "train_epoch", "train.train_epoch"),
    ("patchcert.train", "loss_and_gradients", "train.loss_and_gradients"),
)

# Extra per-span values, stored as a tuple in this key order.
ATTR_KEYS = {
    "numerics.matmul": ("stage", "macs", "rows"),
    "ablation.ablation_set": ("bytes", "ablations"),
    "ablation.column_ablation": ("bytes", "ablations"),
    "ablation.block_ablation": ("bytes", "ablations"),
    "certify.flip_search": ("pairs",),
}

# Weight operand -> CostModel.breakdown stage; any other right-hand
# operand of a forward matmul is an attention product.
_WEIGHT_STAGES = {
    "patch_embed.weight": "tokenization",
    "attn.wq": "projections", "attn.wk": "projections",
    "attn.wv": "projections", "attn.wo": "projections",
    "mlp.w1": "mlp", "mlp.w2": "mlp",
    "head.weight": "head",
}


def _ablation_attrs(args, kwargs, out):
    built = out if isinstance(out, list) else [out]
    return (sum(z.pixels.nbytes + z.mask.nbytes for z in built), len(built))


def _flip_attrs_for(fn):
    sig = inspect.signature(fn)

    def attrs(args, kwargs, out):
        a = sig.bind(*args, **kwargs).arguments
        placements = (a["h"] - a["m"] + 1) * (a["w"] - a["m"] + 1)
        k = a.get("k") or len(out.post_counts)
        return (placements * (k - 1),)

    return attrs


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self) -> None:
        self.origin_ns = time.perf_counter_ns()
        self.spans: list[tuple] = []
        self.item = None
        self._stack: list[int] = []
        self._next_id = 0
        self._stage_of: dict[int, str] = {}
        self._watched: list = []

    def watch_params(self, params: dict) -> None:
        """Attribute matmuls against these weight arrays to their stage."""
        for name, arr in params.items():
            stage = _WEIGHT_STAGES.get(name) or _WEIGHT_STAGES.get(name.split(".", 2)[-1])
            if stage is not None:
                self._stage_of[id(arr)] = stage
                self._watched.append(arr)  # keeps ids from being reused

    def wrap(self, name: str, fn):
        if name == "numerics.matmul":
            return self._wrap_matmul(fn)
        attrs = None
        if name.startswith("ablation."):
            attrs = _ablation_attrs
        elif name == "certify.flip_search":
            attrs = _flip_attrs_for(fn)
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter_ns, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            extra = attrs(args, kwargs, out) if attrs else ()
            spans.append((sid, name, start, end, parent, tracer.item, extra))
            return out

        return traced

    def _wrap_matmul(self, fn):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter_ns, self
        stage_of = self._stage_of

        @functools.wraps(fn)
        def traced_matmul(a, b):
            sid = tracer._next_id
            tracer._next_id += 1
            start = clock()
            out = fn(a, b)
            end = clock()
            m, k = a.shape
            extra = (stage_of.get(id(b), "attention"), m * k * b.shape[1], m)
            spans.append((sid, "numerics.matmul", start, end,
                          stack[-1] if stack else None, tracer.item, extra))
            return out

        return traced_matmul

    def write_jsonl(self, path) -> None:
        """Write every span, in start order, as one JSON object per line.

        Times are nanoseconds since the tracer was created. Lines are
        formatted by hand: json.dumps per span takes seconds on a run
        with a million matmul spans.
        """
        t0 = self.origin_ns
        quoted: dict = {}

        def q(value):
            if value not in quoted:
                quoted[value] = json.dumps(value)
            return quoted[value]

        with open(path, "w") as fh:
            for sid, name, start, end, parent, item, extra in sorted(self.spans, key=lambda s: s[0]):
                attrs = "".join(f',"{k}":{q(v)}' for k, v in zip(ATTR_KEYS.get(name, ()), extra))
                fh.write(f'{{"id":{sid},"name":{q(name)},"start_ns":{start - t0},"end_ns":{end - t0},'
                         f'"parent":{"null" if parent is None else parent},"item":{q(item)}{attrs}}}\n')


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap every target for its traced wrapper; restore all on exit."""
    saved = []
    try:
        for module_name, attr, span_name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span_name, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def summarize(spans) -> dict:
    """Per-layer metrics that come from spans alone.

    Forward-pass matmuls are those whose parent is a process_ablation
    span; their MACs are also summed per item and stage for the exact
    MAC check.
    """
    names = {s[0]: s[1] for s in spans if s[1] != "numerics.matmul"}
    dur = {}
    child = {}
    for sid, name, start, end, parent, _, _ in spans:
        d = end - start
        dur.setdefault(name, []).append(d)
        if parent is not None:
            child[parent] = child.get(parent, 0) + d

    def busy(name):
        return sum(dur.get(name, ())) / 1e9

    forward_macs = 0
    forward_rows = []
    matmul_macs = 0
    stage_macs: dict = {}
    for sid, name, start, end, parent, item, extra in spans:
        if name != "numerics.matmul":
            continue
        stage, macs, rows = extra
        matmul_macs += macs
        if names.get(parent) == "vit.process_ablation":
            forward_macs += macs
            per_item = stage_macs.setdefault(item, {})
            per_item[stage] = per_item.get(stage, 0) + macs
            if stage == "tokenization":
                forward_rows.append(rows)

    ablation = [s for s in spans if s[1].startswith("ablation.")]
    in_train = {s[0] for s in spans if s[1] == "train.train_epoch"}
    forward_us = np.asarray(dur.get("vit.process_ablation", [0]), dtype=np.float64) / 1e3
    matmul_calls = len(dur.get("numerics.matmul", ()))
    vit_busy = busy("vit.process_ablation")
    update_ns = sum(s[3] - s[2] - child.get(s[0], 0) for s in spans if s[0] in in_train)
    return {
        "metrics": {
            "ablation.calls": len(ablation),
            "ablation.busy_s": sum(s[3] - s[2] for s in ablation) / 1e9,
            "ablation.bytes_computed": sum(s[6][0] for s in ablation),
            "vit.forwards": len(dur.get("vit.process_ablation", ())),
            "vit.busy_s": vit_busy,
            "vit.forward_us_p50": float(np.percentile(forward_us, 50)),
            "vit.forward_us_p99": float(np.percentile(forward_us, 99)),
            "vit.macs_per_s": forward_macs / vit_busy if vit_busy else 0.0,
            "numerics.matmul_calls": matmul_calls,
            "numerics.matmul_busy_s": busy("numerics.matmul"),
            "numerics.macs_per_call": matmul_macs / matmul_calls if matmul_calls else 0.0,
            "certify.votes_s": busy("certify.aggregate_votes") + busy("certify.certify_votes"),
            "certify.delta_s": busy("certify.delta"),
            "certify.flip_search_s": busy("certify.flip_search"),
            "certify.flip_pairs": sum(s[6][0] for s in spans if s[1] == "certify.flip_search"),
            "train.grad_s": busy("train.loss_and_gradients"),
            "train.ablation_s": sum(s[3] - s[2] for s in ablation if s[4] in in_train) / 1e9,
            "train.update_s": update_ns / 1e9,
            "tracing.spans": len(spans),
        },
        "forward_rows": forward_rows,
        "stage_macs": stage_macs,
    }
