"""Correctness gate, run outside every timed region.

Each check is one attempted operation; a check that does not hold is
one failed operation and keeps a line saying what disagreed.
"""

from __future__ import annotations

import numpy as np

from patchcert import ablation, certify, vit
from patchcert.errors import BudgetError

LOGIT_TOLERANCE = 1e-5


class Gate:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def check_deltas(gate: Gate, reported: dict, h: int, w: int, spec) -> None:
    """Every reported Delta equals delta_oracle where the oracle fits its budget.

    ``reported`` maps patch size m to the set of Delta values the run
    reported for it.
    """
    for m, values in sorted(reported.items()):
        try:
            exact = certify.delta_oracle(h, w, spec, m)
        except BudgetError:
            continue
        gate.check(values == {exact}, f"m={m}: reported delta {sorted(values)} != oracle {exact}")


def check_votes(gate: Gate, record: dict, preds, k: int) -> None:
    """Predicted class and margin equal aggregate_votes(per_ablation_predictions)."""
    cert = certify.certify_votes(certify.aggregate_votes(preds, k), 0, 1)
    gate.check(
        (record["predicted"], record["margin"]) == (cert.predicted, cert.margin),
        f"image {record['index']}: reported class/margin "
        f"{record['predicted']}/{record['margin']} != votes {cert.predicted}/{cert.margin}",
    )


def check_no_flip(gate: Gate, record: dict, preds, spec, h: int, w: int, k: int) -> None:
    """An image certified at m admits no prediction-changing patch at m."""
    for m, certified in record["certified"].items():
        if certified:
            found = certify.adversarial_flip_search(preds, spec, h, w, int(m), record["label"], k)
            gate.check(not found.changed,
                       f"image {record['index']}: certified at m={m} but a patch at "
                       f"{found.placement} flips it to {found.worst_prediction}")


def check_logits(gate: Gate, image, spec, model, rng: np.random.Generator, count: int) -> None:
    """Reduced-token logits match the masked-attention oracle on sampled ablations."""
    cfg = model.cfg
    for _ in range(count):
        if spec.kind == "column":
            z = ablation.column_ablation(image, int(rng.integers(cfg.w)), spec.b)
        else:
            z = ablation.block_ablation(image, int(rng.integers(cfg.h)), int(rng.integers(cfg.w)), spec.b)
        fast = vit.ablation_logits(z, model.params, cfg)
        slow = vit.masked_attention_oracle_forward(z, model.params, cfg)
        gap = float(np.max(np.abs(fast - slow)))
        gate.check(gap <= LOGIT_TOLERANCE and int(np.argmax(fast)) == int(np.argmax(slow)),
                   f"ablation logits differ from the oracle by {gap:.3g}")
