"""Column and block image ablations with wrap-around and striding.

An ablation keeps a thin column (or square block) of the image and
zeroes everything else, recording which pixels survive in a binary
mask. Retained regions wrap around the image edges; masked pixels are
set to 0 in [0,1] pixel space, before any model-side processing.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

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
    "axis_intervals",
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
    # written so that NaN, which fails every comparison, is rejected too
    if x.size and not (float(x.min()) >= 0.0 and float(x.max()) <= 1.0):
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
        if not all(type(v) is int for v in (self.b, self.s, self.offset)):  # not a bool or a float
            raise ParameterError(f"b, stride and offset must be integers, got {self}")
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
        if self.kind == "block" and self.offset >= h:
            raise ParameterError(f"block offset {self.offset} leaves no ablation anchor in {h}x{w}")

    def to_dict(self) -> dict:
        return asdict(self)


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


def _ablated(x: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> AblatedImage:
    """x with every pixel outside the kept rows x cols zeroed, and its uint8 mask."""
    mask = np.logical_and(rows[:, None], cols[None, :]).astype(np.uint8)
    return AblatedImage(pixels=x * mask[:, :, None].astype(x.dtype), mask=mask)


def column_ablation(x: np.ndarray, start: int, b: int) -> AblatedImage:
    """Keep columns {start, ..., start+b-1} mod w; zero the rest."""
    x = validate_image(x)
    h, w, _ = x.shape
    if not 0 <= start < w:
        raise ParameterError(f"column start {start} outside [0, {w})")
    if not 1 <= b <= w:
        raise ParameterError(f"column width b={b} outside [1, {w}]")
    return _ablated(x, np.ones(h, dtype=bool), _wrapped_interval(start, b, w))


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
    return _ablated(x, _wrapped_interval(top, b, h), _wrapped_interval(left, b, w))


def ablation_anchors(h: int, w: int, spec: AblationSpec) -> list:
    """Deterministic anchor sequence for the strided ablation set.

    Columns: ascending start positions. Blocks: row-major (top, left)
    pairs on the stride grid in both dimensions.
    """
    spec.validate_for(h, w)
    tops, lefts = (range(spec.offset, size, spec.s) for size in (h, w))
    if spec.kind == "column":
        return list(lefts)
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


def axis_intervals(size: int, spec: AblationSpec) -> np.ndarray:
    """Retained interval (q1, size) of each strided start offset, offset+s, ... < size.

    One row per start along one image axis, in ascending start order;
    the spec must be valid for the image (``validate_for``).
    """
    return _wrapped_interval(np.arange(spec.offset, size, spec.s), spec.b, size)


def retained_axes(h: int, w: int, spec: AblationSpec) -> tuple[np.ndarray, np.ndarray]:
    """Retained row intervals (q_rows, h) and column intervals (q_cols, w) of the set.

    Each axis of an ablation keeps one wrapped interval from
    ``axis_intervals``, and ablations pair them row-major: ablation j,
    in anchor order, keeps pixel (r, c) iff rows[j // q_cols, r] and
    cols[j % q_cols, c], the mask ablation_set builds. A column set has
    one row interval, which keeps every row.
    """
    spec.validate_for(h, w)
    cols = axis_intervals(w, spec)
    if spec.kind == "column":
        return np.ones((1, h), dtype=bool), cols
    return axis_intervals(h, spec), cols
