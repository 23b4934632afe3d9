"""Certified patch robustness via derandomized smoothing of a
token-dropping vision transformer."""

__version__ = "0.1.0"

from .ablation import AblatedImage, AblationSpec, ablation_set, block_ablation, column_ablation
from .certify import (
    Certificate,
    VoteCounts,
    adversarial_flip_search,
    aggregate_votes,
    certified_accuracy,
    certify_votes,
    delta_closed_form,
    delta_oracle,
    smoothed_predict,
)
from .train import LabeledDataset, TrainConfig, fit, make_stripe_dataset
from .vit import (
    Model,
    ViTConfig,
    load_checkpoint,
    masked_attention_oracle_forward,
    process_ablation,
    save_checkpoint,
    smoothed_vit_forward,
)

__all__ = [
    "AblatedImage",
    "AblationSpec",
    "ablation_set",
    "block_ablation",
    "column_ablation",
    "Certificate",
    "VoteCounts",
    "adversarial_flip_search",
    "aggregate_votes",
    "certified_accuracy",
    "certify_votes",
    "delta_closed_form",
    "delta_oracle",
    "smoothed_predict",
    "LabeledDataset",
    "TrainConfig",
    "fit",
    "make_stripe_dataset",
    "Model",
    "ViTConfig",
    "load_checkpoint",
    "masked_attention_oracle_forward",
    "process_ablation",
    "save_checkpoint",
    "smoothed_vit_forward",
]
