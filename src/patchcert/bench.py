"""Analytic cost model of the encoder.

Costs are multiply-accumulates (one MAC = 1); elementwise work
(softmax, layer norm, GELU, residual adds) is excluded, which makes the
closed-form model exactly equal to the instrumented matmul counter.
Per layer with n tokens and width d: attention scores n^2*d, attention
weighted sum n^2*d, QKV projections 3*n*d^2, output projection n*d^2,
MLP 8*n*d^2, where n counts the class token. The last layer computes
only the class row past its keys and values, since only that row is
read out: K and V still cost 2*n*d^2, but Q and the output projection
d^2 each, the scores and the weighted sum n*d each, and the MLP 8*d^2.
Tokenization projects only the n-1 surviving grid patches, which
smoothing_cost reads from retained_axes as the forward does, and the
head reads out the class token. The model counts the inference forward;
training, which records activations, keeps every row of the last layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ablation import AblationSpec, retained_axes
from .errors import ParameterError
from .vit import ViTConfig

__all__ = [
    "CostModel",
    "smoothing_cost",
]


@dataclass(frozen=True)
class CostModel:
    """Exact MAC counts of the reduced-token forward pass as a function of n,
    the token count with the class token.

    With L layers: attention (L-1)*2n^2*d + 2n*d, projections
    (L-1)*4n*d^2 + (2n+2)*d^2, MLP (L-1)*8n*d^2 + 8d^2; the last layer
    runs Q, attention, the output projection and the MLP on the class
    row only.
    """

    d: int
    layers: int
    patch_dim: int  # p*p*c
    k: int

    @classmethod
    def for_config(cls, cfg: ViTConfig) -> "CostModel":
        return cls(d=cfg.d, layers=cfg.layers, patch_dim=cfg.p * cfg.p * cfg.c, k=cfg.k)

    def breakdown(self, n: int) -> dict:
        if n < 1:
            raise ParameterError(f"token count must be >= 1, got {n}")
        d, L = self.d, self.layers
        attention = (L - 1) * 2 * n * n * d + 2 * n * d
        projections = (L - 1) * 4 * n * d * d + (2 * n + 2) * d * d
        mlp = (L - 1) * 8 * n * d * d + 8 * d * d
        tokenization = (n - 1) * self.patch_dim * d
        head = d * self.k
        return {
            "attention_quadratic": attention,
            "projections_linear": projections,
            "mlp_linear": mlp,
            "tokenization": tokenization,
            "head": head,
            "total": attention + projections + mlp + tokenization + head,
        }

    def total(self, n: int) -> int:
        return self.breakdown(n)["total"]


def smoothing_cost(cfg: ViTConfig, spec: AblationSpec) -> dict:
    """Total MACs of one smoothed forward pass, with and without dropping.

    The no-drop path runs the full token grid for every ablation; the drop
    path sums per-ablation costs. Ablation j keeps the cells that both its
    row interval j // q_cols and its column interval j % q_cols of
    ``retained_axes`` touch, plus the class token.
    """
    touched = [a.reshape(len(a), -1, cfg.p).any(axis=2).sum(axis=1)  # grid cells per interval
               for a in retained_axes(cfg.h, cfg.w, spec)]
    tokens = (np.outer(*touched) + 1).ravel().tolist()
    model = CostModel.for_config(cfg)
    macs_drop = sum(model.total(n) for n in tokens)
    macs_full = len(tokens) * model.total(cfg.grid_tokens + 1)
    return {
        "tokens": tokens,
        "macs_drop": macs_drop,
        "macs_full": macs_full,
        "mac_ratio": macs_drop / macs_full,
    }
