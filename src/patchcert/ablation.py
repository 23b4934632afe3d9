"""Column and block image ablations with wrap-around and striding.

An ablation keeps a thin column (or square block) of the image and
zeroes everything else, recording which pixels survive in a binary
mask. Retained regions wrap around the image edges; masked pixels are
set to 0 in [0,1] pixel space, before any model-side processing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = [
    "AblationSpec",
    "AblatedImage",
    "validate_image",
    "column_ablation",
    "block_ablation",
    "ablation_set",
    "ablation_anchors",
    "retained_axes",
]

KINDS = ("column", "block")


def validate_image(x: np.ndarray) -> np.ndarray:
    """Check an h*w*c pixel grid: c in {1,3}, values in [0,1]."""
    x = np.asarray(x)
    if x.ndim != 3:
        raise ParameterError(f"image must be h*w*c, got shape {x.shape}")
    h, w, c = x.shape
    if h < 1 or w < 1 or c not in (1, 3):
        raise ParameterError(f"bad image dimensions {x.shape}; channels must be 1 or 3")
    if x.size and (float(x.min()) < 0.0 or float(x.max()) > 1.0):
        raise ParameterError("pixel values must lie in [0, 1]")
    return x


@dataclass(frozen=True)
class AblationSpec:
    """Ablation family: kind, retained size b, stride s, grid offset."""

    kind: str
    b: int
    s: int = 1
    offset: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown ablation kind {self.kind!r}")
        if self.b < 1:
            raise ParameterError(f"retained size b must be >= 1, got {self.b}")
        if self.s < 1:
            raise ParameterError(f"stride must be >= 1, got {self.s}")
        if not 0 <= self.offset < self.s:
            raise ParameterError(f"offset must satisfy 0 <= offset < stride, got {self.offset}")

    def validate_for(self, h: int, w: int) -> None:
        limit = w if self.kind == "column" else min(h, w)
        if self.b > limit:
            raise ParameterError(f"retained size b={self.b} exceeds image limit {limit}")
        if self.s > w:
            raise ParameterError(f"stride {self.s} exceeds image width {w}")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "b": self.b, "s": self.s, "offset": self.offset}


@dataclass(frozen=True)
class AblatedImage:
    """Pixel grid with everything outside the retained region zeroed.

    pixels matches the source shape; mask is h*w with 1 where retained.
    """

    pixels: np.ndarray
    mask: np.ndarray


def _wrapped_interval(start, length: int, size: int) -> np.ndarray:
    """Boolean indicator of {start, ..., start+length-1} mod size.

    ``start`` may be an array of starts; the result then has one row per
    start. Requires length <= size.
    """
    return (np.arange(size) - np.asarray(start)[..., None]) % size < length


def column_ablation(x: np.ndarray, start: int, b: int) -> AblatedImage:
    """Keep columns {start, ..., start+b-1} mod w; zero the rest."""
    x = validate_image(x)
    h, w, _ = x.shape
    if not 0 <= start < w:
        raise ParameterError(f"column start {start} outside [0, {w})")
    if not 1 <= b <= w:
        raise ParameterError(f"column width b={b} outside [1, {w}]")
    cols = _wrapped_interval(start, b, w)
    mask = np.repeat(cols[None, :], h, axis=0).astype(np.uint8)
    pixels = x * mask[:, :, None].astype(x.dtype)
    return AblatedImage(pixels=pixels, mask=mask)


def block_ablation(x: np.ndarray, top: int, left: int, b: int) -> AblatedImage:
    """Keep the b*b square anchored at (top, left), wrapping both ways."""
    x = validate_image(x)
    h, w, _ = x.shape
    if not 0 <= top < h:
        raise ParameterError(f"block top {top} outside [0, {h})")
    if not 0 <= left < w:
        raise ParameterError(f"block left {left} outside [0, {w})")
    if not 1 <= b <= min(h, w):
        raise ParameterError(f"block side b={b} outside [1, {min(h, w)}]")
    rows = _wrapped_interval(top, b, h)
    cols = _wrapped_interval(left, b, w)
    mask = np.logical_and(rows[:, None], cols[None, :]).astype(np.uint8)
    pixels = x * mask[:, :, None].astype(x.dtype)
    return AblatedImage(pixels=pixels, mask=mask)


def ablation_anchors(h: int, w: int, spec: AblationSpec) -> list:
    """Deterministic anchor sequence for the strided ablation set.

    Columns: ascending start positions. Blocks: row-major (top, left)
    pairs on the stride grid in both dimensions.
    """
    spec.validate_for(h, w)
    if spec.kind == "column":
        return list(range(spec.offset, w, spec.s))
    tops = range(spec.offset, h, spec.s)
    lefts = range(spec.offset, w, spec.s)
    return [(t, l) for t in tops for l in lefts]


def ablation_set(x: np.ndarray, spec: AblationSpec, anchors=None) -> list[AblatedImage]:
    """The ablations of x under spec at anchors (default: all of them, in anchor order)."""
    x = validate_image(x)
    h, w, _ = x.shape
    if anchors is None:
        anchors = ablation_anchors(h, w, spec)
    if spec.kind == "column":
        return [column_ablation(x, a, spec.b) for a in anchors]
    return [block_ablation(x, t, l, spec.b) for t, l in anchors]


def retained_axes(h: int, w: int, spec: AblationSpec) -> tuple[np.ndarray, np.ndarray]:
    """Retained rows (q, h) and columns (q, w) of every ablation, in anchor order.

    Each axis of an ablation keeps one wrapped interval, so ablation j
    keeps pixel (r, c) iff rows[j, r] and cols[j, c]: the same mask
    ablation_set builds, without building the ablated images.
    """
    anchors = np.asarray(ablation_anchors(h, w, spec), dtype=np.int64)
    if spec.kind == "column":
        return np.ones((anchors.size, h), dtype=bool), _wrapped_interval(anchors, spec.b, w)
    anchors = anchors.reshape(-1, 2)  # keeps two columns when the set is empty
    return _wrapped_interval(anchors[:, 0], spec.b, h), _wrapped_interval(anchors[:, 1], spec.b, w)
