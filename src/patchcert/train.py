"""Training on randomly ablated images, plus the synthetic stripe task.

Each epoch checks every pixel, then draws one uniformly random anchor of
the stride-1 set AblationSpec(kind, b_train) for every training image
and updates once per batch with momentum SGD:
v <- momentum*v + g + weight_decay*theta, theta -= lr*v, where g is the
batch mean gradient. One ``loss_and_gradients`` call per batch gathers
the ablations' cells from the stack plan certification reads, runs them
as stacks of equal token count, and returns the same bits as summing
per-ablation gradients in batch order.
Training steps are single-threaded, and runs are bit-deterministic for a
given seed; validation classifies through per_ablation_predictions, whose
stacks may overlap on a thread pool with the same bits.

The stripe dataset paints every pixel with a class-specific base level
plus bounded uniform noise, so any single pixel column carries the full
label and column ablations stay classifiable by construction.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

# column_ablation and block_ablation are unused here, but certbench's traced run
# wraps them under the names train.column_ablation and train.block_ablation.
from .ablation import AblationSpec, block_ablation, column_ablation, validate_image  # noqa: F401
from .errors import DivergenceError, NonFiniteError, ParameterError
from .vit import Model, loss_and_gradients, per_ablation_predictions

__all__ = [
    "TrainConfig",
    "LabeledDataset",
    "OptState",
    "make_stripe_dataset",
    "train_epoch",
    "fit",
]

TRAIN_PERCENT, VAL_PERCENT = 70, 15  # the stripe data's train and val shares; the rest is test


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 5e-4
    b_train: int = 3
    kind: str = "column"
    seed: int = 0
    patience: int = 5

    def __post_init__(self):
        AblationSpec(self.kind, self.b_train)  # a known kind and an integer b_train >= 1
        counts = (self.epochs, self.batch_size, self.patience)
        if not all(type(v) is int for v in (*counts, self.seed)):  # not a bool, not a float
            raise ParameterError(f"epochs, batch size, patience and seed must be integers: {self}")
        if min(counts) < 1 or self.seed < 0:
            raise ParameterError(f"epochs, batch size and patience must be >= 1, seed >= 0: {self}")
        rates = (self.lr, self.momentum, self.weight_decay)
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in rates):
            raise ParameterError(f"lr, momentum and weight decay must be numbers, not bools: {self}")
        if not (0.0 <= self.lr < math.inf and 0.0 <= self.weight_decay < math.inf):
            raise ParameterError(
                f"lr and weight decay must be finite and nonnegative, got {self.lr} and "
                f"{self.weight_decay}")
        if not 0.0 <= self.momentum < 1.0:
            raise ParameterError(f"momentum must be in [0, 1), got {self.momentum}")


@dataclass(frozen=True)
class LabeledDataset:
    """Images with labels and disjoint train/val/test split tags."""

    images: np.ndarray  # (n, h, w, c) float32 in [0, 1]
    labels: np.ndarray  # (n,) int64 in [0, k)
    splits: np.ndarray  # (n,) strings from {train, val, test}
    k: int

    def __post_init__(self):
        if not (len(self.images) == len(self.labels) == len(self.splits)):
            raise ParameterError("images, labels and splits must have equal length")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.k):
            raise ParameterError(f"labels outside [0, {self.k})")

    def __len__(self) -> int:
        return len(self.labels)

    def subset(self, tag: str) -> "LabeledDataset":
        """The records tagged tag: the dataset itself when every record is, else a copy."""
        sel = self.splits == tag
        if sel.all():
            return self
        return LabeledDataset(
            images=self.images[sel], labels=self.labels[sel], splits=self.splits[sel], k=self.k
        )


def stripe_base_levels(k: int) -> np.ndarray:
    """k maximally separated levels in (0, 1): (2c+1)/(2k)."""
    return (2 * np.arange(k) + 1) / (2 * k)


def make_stripe_dataset(
    n: int, h: int, w: int, k: int, noise: float, seed: int, channels: int = 1
) -> LabeledDataset:
    """Constant-color images (per class) with bounded uniform pixel noise.

    Split tags are assigned deterministically: the first
    n * TRAIN_PERCENT // 100 train, the next n * VAL_PERCENT // 100 val,
    the rest test.
    """
    if k > 8 or k < 2:
        raise ParameterError(f"stripe dataset supports 2..8 classes, got {k}")
    if n < 0:
        raise ParameterError(f"stripe dataset needs a nonnegative image count, got {n}")
    if min(h, w) < 1:
        raise ParameterError(f"stripe images need a positive height and width, got {h}x{w}")
    if not 0.0 <= noise < 0.5:
        raise ParameterError(f"noise amplitude must be in [0, 0.5), got {noise}")
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, k, size=n).astype(np.int64)
    base = stripe_base_levels(k)[labels].astype(np.float32)
    images = np.repeat(base, h * w * channels).reshape(n, h, w, channels)
    if noise > 0:
        # one image at a time: the same draws as one full-shape call, but
        # the float64 scratch is one image, not the whole dataset
        for img in images:
            img += rng.uniform(-noise, noise, size=img.shape).astype(np.float32)
        np.clip(images, 0.0, 1.0, out=images)
    n_train = n * TRAIN_PERCENT // 100
    n_val = n * VAL_PERCENT // 100
    splits = np.array(["train"] * n_train + ["val"] * n_val + ["test"] * (n - n_train - n_val))
    return LabeledDataset(images=images, labels=labels, splits=splits, k=k)


@dataclass
class OptState:
    """Momentum buffers plus the epoch RNG; explicit so runs replay exactly."""

    velocity: dict
    rng: np.random.Generator
    epoch: int = 0

    @classmethod
    def fresh(cls, model: Model, cfg: TrainConfig) -> "OptState":
        seq = np.random.SeedSequence(cfg.seed)
        (epoch_seed,) = seq.spawn(1)
        return cls(
            velocity={k: np.zeros_like(v) for k, v in model.params.items()},
            rng=np.random.default_rng(epoch_seed),
        )


@np.errstate(all="ignore")  # no raw warning: a non-finite loss raises DivergenceError
def train_epoch(model: Model, data: LabeledDataset, cfg: TrainConfig, state: OptState | None = None):
    """One pass over the data with fresh random ablations, one gradient call per batch.

    Updates model.params in place and returns (model, epoch_loss, state),
    where epoch_loss is the mean per-sample loss. Empty data, or a pixel
    outside [0, 1], raises ParameterError before the first step; a batch
    whose loss is not finite raises DivergenceError.
    """
    if len(data) == 0:
        raise ParameterError("train_epoch needs at least one training image")
    # the images stacked as one tall image: one scan of every pixel before any step
    validate_image(data.images.reshape(-1, *data.images.shape[2:]))
    if state is None:
        state = OptState.fresh(model, cfg)
    rng = state.rng
    order = rng.permutation(len(data))
    spec = AblationSpec(cfg.kind, cfg.b_train)
    # a draw per sample and axis of the anchors, row-major (top, left) or a column's start
    grid = data.images.shape[2:3] if cfg.kind == "column" else data.images.shape[1:3]
    total_loss = 0.0
    for batch_index, start in enumerate(range(0, len(order), cfg.batch_size)):
        idx = order[start : start + cfg.batch_size]
        anchors = np.ravel_multi_index(rng.integers(0, grid, size=(len(idx), len(grid))).T, grid)
        batch_loss, grads = loss_and_gradients(
            data.images[idx], spec, anchors, data.labels[idx], model.params, model.cfg)
        if not np.isfinite(batch_loss):
            raise DivergenceError(
                f"non-finite loss in batch {batch_index}", batch_index=batch_index
            )
        inv = 1.0 / len(idx)
        for k, theta in model.params.items():
            # g = grads*inv + wd*theta; v = momentum*v + g; theta -= lr*v, in place
            g = grads[k]
            g *= inv
            g += cfg.weight_decay * theta
            v = state.velocity[k]
            v *= cfg.momentum
            v += g
            theta -= np.multiply(v, cfg.lr, out=g)
        total_loss += batch_loss
    state.epoch += 1
    return model, total_loss / len(data), state


def _ablation_accuracy(model: Model, data: LabeledDataset, b_eval: int, kind: str) -> float:
    """Fraction of correct single-ablation predictions over the stride-1 set."""
    spec = AblationSpec(kind, b_eval)
    correct = 0
    total = 0
    for x, label in zip(data.images, data.labels):
        preds = per_ablation_predictions(x, spec, model.params, model.cfg)
        correct += np.count_nonzero(preds == label)
        total += len(preds)
    return correct / total


def fit(model: Model, data: LabeledDataset, cfg: TrainConfig) -> dict:
    """Train with per-epoch validation and early stopping.

    Keeps the parameter snapshot of the best validation epoch and stops
    after ``patience`` epochs without improvement. Returns a record with the
    best model, the best epoch, the per-epoch validation history and the
    training log: one JSONL line per epoch, as text; fit writes no file.
    """
    train_split = data.subset("train")
    val_split = data.subset("val")
    if len(train_split) == 0 or len(val_split) == 0:
        raise ParameterError("fit needs nonempty train and val splits")
    state = OptState.fresh(model, cfg)
    history: list[float] = []
    log_lines: list[str] = []
    best_epoch = -1  # epoch 0 always sets best: there is at least one epoch
    for epoch in range(cfg.epochs):
        model, loss, state = train_epoch(model, train_split, cfg, state)
        try:
            val_acc = _ablation_accuracy(model, val_split, cfg.b_train, cfg.kind)
        except NonFiniteError as exc:  # finite losses, but a model that cannot classify
            raise DivergenceError(f"after epoch {epoch} the model cannot classify: {exc}") from exc
        history.append(val_acc)
        log_lines.append(json.dumps(
            {"epoch": epoch, "train_loss": round(loss, 6), "val_ablation_acc": val_acc, "lr": cfg.lr},
            sort_keys=True,
        ))
        if best_epoch < 0 or val_acc > history[best_epoch]:
            best_epoch, best = epoch, model.copy()
        if epoch - best_epoch >= cfg.patience:
            break
    model.params = best.params
    return {"model": model, "best_epoch": best_epoch, "val_history": history,
            "log": "\n".join(log_lines) + "\n"}
