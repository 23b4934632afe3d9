"""Ablation geometry: wrap-around, mask counts, strided sets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchcert.ablation import (
    AblationSpec,
    ablation_anchors,
    ablation_set,
    block_ablation,
    column_ablation,
    retained_axes,
    validate_image,
)
from patchcert.errors import ParameterError


def _image(h, w, c=1, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=(h, w, c)).astype(np.float32)


def test_column_wraps_around_right_edge():
    x = _image(4, 8)
    abl = column_ablation(x, start=6, b=4)
    retained = set(np.nonzero(abl.mask[0])[0])
    assert retained == {6, 7, 0, 1}
    assert abl.mask.sum() == 4 * 4


def test_full_width_column_keeps_everything():
    x = _image(5, 7)
    for start in range(7):
        abl = column_ablation(x, start, b=7)
        assert abl.mask.all()
        np.testing.assert_array_equal(abl.pixels, x)


def test_cifar_width_column_mask_count():
    x = _image(32, 32, c=3)
    abl = column_ablation(x, start=0, b=4)
    assert int(abl.mask.sum()) == 4 * 32


def test_block_corner_wrap():
    x = _image(8, 8)
    abl = block_ablation(x, top=7, left=7, b=2)
    cells = set(zip(*np.nonzero(abl.mask)))
    assert cells == {(7, 7), (7, 0), (0, 7), (0, 0)}


def test_block_full_image():
    x = _image(6, 6)
    abl = block_ablation(x, 3, 2, b=6)
    assert abl.mask.all()


def test_block_imagenet_scale_mask_count():
    x = np.zeros((224, 224, 1), np.float32)
    abl = block_ablation(x, top=100, left=200, b=75)
    assert int(abl.mask.sum()) == 75 * 75


def test_masked_pixels_are_zero_and_retained_exact():
    x = _image(8, 8, c=3, seed=3)
    abl = column_ablation(x, 5, 3)
    inside = abl.mask.astype(bool)
    np.testing.assert_array_equal(abl.pixels[inside], x[inside])
    assert (abl.pixels[~inside] == 0.0).all()


def test_column_set_sizes():
    x224 = np.zeros((4, 224, 1), np.float32)
    assert len(ablation_set(x224, AblationSpec("column", b=19))) == 224
    assert len(ablation_set(x224, AblationSpec("column", b=19, s=10))) == 23
    assert len(ablation_anchors(224, 224, AblationSpec("block", b=75))) == 224 * 224


def test_strided_set_respects_offset():
    anchors = ablation_anchors(4, 10, AblationSpec("column", b=2, s=3, offset=1))
    assert anchors == [1, 4, 7]


def test_block_set_row_major_order():
    anchors = ablation_anchors(4, 6, AblationSpec("block", b=2, s=2))
    assert anchors == [(0, 0), (0, 2), (0, 4), (2, 0), (2, 2), (2, 4)]


def test_ablation_set_deterministic():
    x = _image(8, 8, seed=1)
    spec = AblationSpec("column", b=3, s=2)
    a = ablation_set(x, spec)
    b = ablation_set(x, spec)
    assert len(a) == len(b)
    for u, v in zip(a, b):
        np.testing.assert_array_equal(u.pixels, v.pixels)
        np.testing.assert_array_equal(u.mask, v.mask)


def test_mask_counts_exhaustive_small_images():
    for h, w in [(1, 1), (2, 5), (7, 7), (16, 13), (16, 16)]:
        x = np.zeros((h, w, 1), np.float32)
        for b in range(1, w + 1):
            for start in range(w):
                assert column_ablation(x, start, b).mask.sum() == b * h
        for b in range(1, min(h, w) + 1):
            for top in range(h):
                for left in range(w):
                    assert block_ablation(x, top, left, b).mask.sum() == b * b


def test_stride1_column_set_covers_each_pixel_b_times():
    x = _image(6, 9, seed=2)
    for b in (1, 3, 9):
        total = sum(a.mask for a in ablation_set(x, AblationSpec("column", b=b)))
        assert (total == b).all()


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_column_mask_count_property(data):
    w = data.draw(st.integers(1, 24))
    start = data.draw(st.integers(0, w - 1))
    b = data.draw(st.integers(1, w))
    x = np.zeros((5, w, 1), np.float32)
    assert column_ablation(x, start, b).mask.sum() == 5 * b


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_retained_axes_match_ablation_set_masks(data):
    h = data.draw(st.integers(1, 12))
    w = data.draw(st.integers(1, 12))
    kind = data.draw(st.sampled_from(["column", "block"]))
    s = data.draw(st.integers(1, w))
    spec = AblationSpec(kind, data.draw(st.integers(1, w if kind == "column" else min(h, w))),
                        s, data.draw(st.integers(0, s - 1)))
    if kind == "block" and spec.offset >= h:
        # no anchor row: the spec is refused, not an empty set
        with pytest.raises(ParameterError, match="no ablation anchor"):
            retained_axes(h, w, spec)
        with pytest.raises(ParameterError, match="no ablation anchor"):
            ablation_set(np.zeros((h, w, 1), np.float32), spec)
        return
    rows, cols = retained_axes(h, w, spec)
    masks = [a.mask for a in ablation_set(np.zeros((h, w, 1), np.float32), spec)]
    assert rows.shape[1] == h and cols.shape[1] == w
    assert len(rows) * len(cols) == len(masks)
    if kind == "column":  # one row interval, which keeps every row
        assert len(rows) == 1 and rows.all()
    for j, mask in enumerate(masks):  # row intervals pair with column intervals row-major
        r, c = divmod(j, len(cols))
        np.testing.assert_array_equal(mask.astype(bool), rows[r][:, None] & cols[c][None, :])


def test_parameter_validation():
    x = _image(8, 8)
    with pytest.raises(ParameterError):
        column_ablation(x, start=8, b=2)
    with pytest.raises(ParameterError):
        column_ablation(x, start=0, b=9)
    with pytest.raises(ParameterError):
        block_ablation(x, top=-1, left=0, b=2)
    with pytest.raises(ParameterError, match="block left 8 outside"):
        block_ablation(x, top=0, left=8, b=2)
    for b in (0, 9):
        with pytest.raises(ParameterError, match=f"block side b={b} outside"):
            block_ablation(x, top=0, left=0, b=b)
    for shape in [(8, 8), (1, 8, 8, 1)]:
        with pytest.raises(ParameterError, match=r"image must be h\*w\*c"):
            validate_image(np.zeros(shape, np.float32))
    with pytest.raises(ParameterError):
        AblationSpec("row", b=2)
    with pytest.raises(ParameterError):
        AblationSpec("column", b=2, s=2, offset=2)
    with pytest.raises(ParameterError):
        AblationSpec("column", b=0)
    # a fractional strip would keep ceil(b) columns while the paper's Delta counts b
    for b, s, offset in [(2.5, 1, 0), (True, 1, 0), (2, 2.0, 0), (2, 2, False)]:
        with pytest.raises(ParameterError, match="integers"):
            AblationSpec("block", b, s, offset)
    with pytest.raises(ParameterError):
        ablation_set(x, AblationSpec("column", b=20))


def test_pixel_range_validation():
    bad = np.full((4, 4, 1), 1.5, np.float32)
    with pytest.raises(ParameterError):
        column_ablation(bad, 0, 2)


@pytest.mark.parametrize("fill", ["all", "one"])
def test_nan_pixels_are_rejected(fill):
    # NaN fails both x < 0 and x > 1, so the range check must be written to fail on it
    x = np.full((4, 4, 3), np.nan, np.float32) if fill == "all" else _image(4, 4, c=3)
    x[2, 1, 0] = np.nan
    with pytest.raises(ParameterError, match=r"\[0, 1\]"):
        validate_image(x)
    with pytest.raises(ParameterError):
        column_ablation(x, 0, 2)
    with pytest.raises(ParameterError):
        ablation_set(x, AblationSpec("block", 2))
    validate_image(np.nan_to_num(x))  # the same grid without NaN is valid
