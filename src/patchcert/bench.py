"""Analytic cost model and measurement harness for the encoder.

Costs are multiply-accumulates (one MAC = 1); elementwise work
(softmax, layer norm, GELU, residual adds) is excluded, which makes the
closed-form model exactly equal to the instrumented matmul counter.
Per layer with n tokens and width d: attention scores n^2*d, attention
weighted sum n^2*d, QKV projections 3*n*d^2, output projection n*d^2,
MLP 8*n*d^2. Tokenization projects only surviving grid patches and the
head reads out a single token.

Wall-clock numbers are machine-dependent; assertions against them
should stay directional (ordering and ratio bounds only).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .ablation import AblationSpec, ablation_anchors
from .errors import ParameterError
from .vit import Model, ViTConfig, _encoder_core, _full_grid_tokens, ablation_logits

__all__ = [
    "CostModel",
    "tokens_for_ablation",
    "smoothing_cost",
    "wallclock_harness",
]


@dataclass(frozen=True)
class CostModel:
    """Exact MAC counts of the reduced-token forward pass as a function of n."""

    d: int
    layers: int
    patch_dim: int  # p*p*c
    k: int
    use_class_token: bool = True

    @classmethod
    def for_config(cls, cfg: ViTConfig) -> "CostModel":
        return cls(
            d=cfg.d,
            layers=cfg.layers,
            patch_dim=cfg.p * cfg.p * cfg.c,
            k=cfg.k,
            use_class_token=cfg.use_class_token,
        )

    def breakdown(self, n: int) -> dict:
        if n < 1:
            raise ParameterError(f"token count must be >= 1, got {n}")
        d, L = self.d, self.layers
        grid = n - 1 if self.use_class_token else n
        attention = L * 2 * n * n * d
        projections = L * 4 * n * d * d
        mlp = L * 8 * n * d * d
        tokenization = grid * self.patch_dim * d
        head = d * self.k
        return {
            "n": n,
            "attention_quadratic": attention,
            "projections_linear": projections,
            "mlp_linear": mlp,
            "encoder": attention + projections + mlp,
            "tokenization": tokenization,
            "head": head,
            "total": attention + projections + mlp + tokenization + head,
        }

    def total(self, n: int) -> int:
        return self.breakdown(n)["total"]


def _axis_token_count(anchor: int, b: int, p: int, cells: int) -> int:
    """Grid cells along one axis touched by a wrapped strip of width b."""
    return min(math.ceil(((anchor % p) + b) / p), cells)


def tokens_for_ablation(cfg: ViTConfig, spec: AblationSpec, anchor) -> int:
    """Exact surviving token count (class token included) for one ablation."""
    spec.validate_for(cfg.h, cfg.w)
    cls = 1 if cfg.use_class_token else 0
    if spec.kind == "column":
        start = int(anchor)
        if not 0 <= start < cfg.w:
            raise ParameterError(f"column start {start} outside [0, {cfg.w})")
        cols = _axis_token_count(start, spec.b, cfg.p, cfg.grid_w)
        return cfg.grid_h * cols + cls
    top, left = (int(anchor[0]), int(anchor[1]))
    if not (0 <= top < cfg.h and 0 <= left < cfg.w):
        raise ParameterError(f"block anchor {(top, left)} outside {cfg.h}x{cfg.w}")
    rows = _axis_token_count(top, spec.b, cfg.p, cfg.grid_h)
    cols = _axis_token_count(left, spec.b, cfg.p, cfg.grid_w)
    return rows * cols + cls


def smoothing_cost(cfg: ViTConfig, spec: AblationSpec) -> dict:
    """Total MACs of one smoothed forward pass, with and without dropping.

    The no-drop path runs the full token grid for every ablation; the
    drop path sums per-ablation costs, which vary with how the retained
    strip aligns to the token grid.
    """
    anchors = ablation_anchors(cfg.h, cfg.w, spec)
    model = CostModel.for_config(cfg)
    tokens = [tokens_for_ablation(cfg, spec, a) for a in anchors]
    full_n = cfg.grid_tokens + (1 if cfg.use_class_token else 0)
    macs_drop = sum(model.total(n) for n in tokens)
    macs_full = len(anchors) * model.total(full_n)
    return {
        "ablations": len(anchors),
        "tokens": tokens,
        "macs_drop": macs_drop,
        "macs_full": macs_full,
        "mac_ratio": macs_drop / macs_full,
    }


def wallclock_harness(model: Model, batch, trials: int = 5) -> dict:
    """Time the reduced-token path against the full-token path.

    ``batch`` is a sequence of AblatedImage inputs built beforehand, so
    input construction is excluded from the timed region. Runs
    single-threaded; returns mean and stddev seconds per batch plus the
    multiplicative speedup of dropping tokens.
    """
    if trials < 3:
        raise ParameterError(f"need at least 3 trials, got {trials}")
    if not batch:
        raise ParameterError("need a nonempty ablation batch")
    params, cfg = model.params, model.cfg

    def run_drop():
        for z_m in batch:
            ablation_logits(z_m, params, cfg)

    def run_full():
        for z_m in batch:
            _encoder_core(_full_grid_tokens(z_m.pixels, params, cfg), params, cfg)

    run_drop()  # warm up caches and allocator before timing
    run_full()
    drop_times = []
    full_times = []
    for _ in range(trials):
        t0 = time.perf_counter()
        run_drop()
        t1 = time.perf_counter()
        run_full()
        t2 = time.perf_counter()
        drop_times.append(t1 - t0)
        full_times.append(t2 - t1)
    drop = np.asarray(drop_times)
    full = np.asarray(full_times)
    return {
        "trials": trials,
        "batch_size": len(batch),
        "time_drop_mean_s": float(drop.mean()),
        "time_drop_std_s": float(drop.std()),
        "time_full_mean_s": float(full.mean()),
        "time_full_std_s": float(full.std()),
        "speedup": float(full.mean() / drop.mean()),
    }
