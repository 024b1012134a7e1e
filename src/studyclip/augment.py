"""Image and text augmentations for second-view fallbacks.

Image pipeline, in order: random resized crop with area scale in
``CROP_SCALE_RANGE`` (scales above 1 crop the image as if padded by edge
replication), CLAHE with a given probability (``CLAHE_PROBABILITY`` in the
samplers), brightness multiply in ``BRIGHTNESS_RANGE``, contrast stretch about
the mean in ``CONTRAST_RANGE``; the result is clipped to [0, 1] and resized to
the given output size. The steps after the brightness multiply, and the
resize's blend, run in place, on arrays the pipeline allocated: it never
writes the image it was given.

CLAHE here is desk-scale: histogram equalization over a 2x2 tile grid with
the histogram clipped at 1% of the tile mass (excess redistributed uniformly)
and bilinear blending between tile mappings. A tile whose pixels all fall in
one histogram bin passes through unchanged, so constant images are exact
fixpoints.

Text augmentation swaps sentence order (seeded uniform permutation over
sentences split at ./?/! followed by whitespace or end of string).
"""

from __future__ import annotations

import functools
import re
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .sampling import Draws

CLAHE_BINS = 256
CLAHE_CLIP_FRACTION = 0.01
CLAHE_PROBABILITY = 0.5
CROP_SCALE_RANGE = (0.8, 1.1)
BRIGHTNESS_RANGE = (0.9, 1.1)
CONTRAST_RANGE = (0.8, 1.2)


class BadImage(ValueError):
    """Empty or degenerate pixel grid."""


# ----------------------------------------------------------------- primitives


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, marked read-only: a cached plan is shared by every call."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=64)
def _resize_plan(h: int, w: int, out_h: int, out_w: int):
    """Flat source indices of the four neighbours of each output pixel, and the four blend weights.

    All eight arrays have the output's shape, so the blend runs in place with no broadcast:
    64 KB a plan at 32x32, and at most 64 plans, which cover the crop sizes of a few input sizes.
    """
    ys = np.clip((np.arange(out_h) + 0.5) * h / out_h - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(out_w) + 0.5) * w / out_w - 0.5, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    rows0, rows1 = y0[:, None] * w, y1[:, None] * w
    weights = [np.broadcast_to(weight, (out_h, out_w)).copy() for weight in (wy, wx, 1 - wy, 1 - wx)]
    return _read_only(rows0 + x0, rows0 + x1, rows1 + x0, rows1 + x1, *weights)


def resize_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Center-aligned bilinear resize to a new float64 array; preserves constant images exactly.

    The blend, (top * (1 - wy) + bottom * wy) with each of top and bottom blended across by wx,
    runs in place on the gathered neighbours. Returns ``img`` itself, not a copy, when it already
    has the output size: every caller only reads the result.
    """
    h, w = img.shape
    if (h, w) == (out_h, out_w):
        return img
    i00, i01, i10, i11, wy, wx, vy, vx = _resize_plan(h, w, out_h, out_w)
    flat = np.asarray(img, dtype=np.float64).ravel()  # gathers of an int or bool grid could not blend in place
    # top and bot start as the left neighbours; right holds the top, then the bottom right neighbours
    top, bot, right = flat[i00], flat[i10], flat[i01]
    top *= vx
    right *= wx
    top += right
    bot *= vx
    right = flat.take(i11, out=right)
    right *= wx
    bot += right
    top *= vy
    bot *= wy
    top += bot
    return top


@functools.lru_cache(maxsize=64)
def _clahe_plan(h: int, w: int):
    """Each pixel's histogram offset, the tiles' histogram rows, their pixel counts (4, 1) and blend weights.

    The offset is the pixel's tile index times ``CLAHE_BINS``, so one ``np.bincount`` counts
    every tile. A grid of one row (column) has one tile along it, which both rows (columns)
    of the 2x2 grid share: the histogram rows pick each tile's counts. The four blend
    weights are the products of the row and column weights, in tile order.
    """
    row_splits = [(0, h // 2), (h // 2, h)] if h >= 2 else [(0, h), (0, h)]
    col_splits = [(0, w // 2), (w // 2, w)] if w >= 2 else [(0, w), (0, w)]
    row_tiles, col_tiles = min(h, 2), min(w, 2)
    row_of, col_of = np.arange(h) >= max(h // 2, 1), np.arange(w) >= max(w // 2, 1)
    offsets = (row_of[:, None] * col_tiles + col_of[None, :]) * CLAHE_BINS
    rows = np.array([min(r, row_tiles - 1) * col_tiles + min(c, col_tiles - 1) for r in range(2) for c in range(2)])
    sizes = np.array([[float((r1 - r0) * (c1 - c0))] for r0, r1 in row_splits for c0, c1 in col_splits])
    centers_r = [(r0 + r1 - 1) / 2.0 for r0, r1 in row_splits]
    centers_c = [(c0 + c1 - 1) / 2.0 for c0, c1 in col_splits]
    span_r = max(centers_r[1] - centers_r[0], 1e-12)
    span_c = max(centers_c[1] - centers_c[0], 1e-12)
    wr = np.clip((np.arange(h) - centers_r[0]) / span_r, 0.0, 1.0)[:, None]
    wc = np.clip((np.arange(w) - centers_c[0]) / span_c, 0.0, 1.0)[None, :]
    vr, vc = 1 - wr, 1 - wc
    return row_tiles * col_tiles, _read_only(offsets, rows, sizes, vr * vc, vr * wc, wr * vc, wr * wc)


def clahe(img: np.ndarray) -> np.ndarray:
    """Contrast-limited equalization over a 2x2 tile grid with bilinear blending.

    Intensities below 0 fall in the first histogram bin and those of 1 or more in the last.
    The (4, 256) histogram stage runs in place, a few numpy calls in all: each pays more
    in call overhead than in arithmetic on 1,024 values.
    """
    h, w = img.shape
    bins = np.clip(img * CLAHE_BINS, 0, CLAHE_BINS - 1).astype(int)
    tiles, (offsets, rows, n, *weights) = _clahe_plan(h, w)
    counts = np.bincount((bins + offsets).ravel(), minlength=tiles * CLAHE_BINS)
    hist = counts.reshape(tiles, CLAHE_BINS)[rows].astype(float)
    # a tile with one occupied bin, which then holds all its pixels, passes through
    equalized = np.maximum.reduce(hist, axis=1) < n[:, 0]
    if not equalized.any():
        return img.copy()
    limit = CLAHE_CLIP_FRACTION * n
    over = hist - limit
    excess = np.add.reduce(np.maximum(over, 0.0, out=over), axis=1, keepdims=True)
    np.minimum(hist, limit, out=hist)
    hist += excess / CLAHE_BINS
    mappings = np.add.accumulate(hist, axis=1)
    hist /= 2.0
    mappings -= hist  # mid-bin rule
    mappings /= n
    looked_up = mappings.take(bins, axis=1)  # (4, h, w): every tile's mapping at every pixel
    m = [looked_up[t] if equalized[t] else img for t in range(4)]
    return weights[0] * m[0] + weights[1] * m[1] + weights[2] * m[2] + weights[3] * m[3]


def _random_resized_crop(img: np.ndarray, rng: Draws) -> np.ndarray:
    h, w = img.shape
    scale = float(rng.uniform(*CROP_SCALE_RANGE))
    side = np.sqrt(scale)
    crop_h = max(1, int(round(h * side)))
    crop_w = max(1, int(round(w * side)))
    if crop_h > h or crop_w > w:
        # the crop of the image padded by edge replication, read with clipped indices: a row or
        # column past an edge repeats the edge, and no padded copy is built
        pad_h = max(0, crop_h - h)
        pad_w = max(0, crop_w - w)
        top = int(rng.integers(pad_h + 1))
        left = int(rng.integers(pad_w + 1))
        y0 = int(rng.integers(h + pad_h - crop_h + 1)) - top
        x0 = int(rng.integers(w + pad_w - crop_w + 1)) - left
        rows = np.clip(np.arange(y0, y0 + crop_h), 0, h - 1)
        cols = np.clip(np.arange(x0, x0 + crop_w), 0, w - 1)
        return img.take(rows, axis=0).take(cols, axis=1)
    # a slice: reading every crop through clipped indices kept the draws and bits but slowed the worker's produce
    # on paper_full in 6 of 6 alternating runs on a 2-CPU x86-64 VM (median 2.38 -> 2.92 ms per step)
    y0 = int(rng.integers(h - crop_h + 1))
    x0 = int(rng.integers(w - crop_w + 1))
    return img[y0 : y0 + crop_h, x0 : x0 + crop_w]


# ------------------------------------------------------------------- pipeline


def augment_image(img: np.ndarray, size: int, clahe_probability: float, rng: Draws) -> np.ndarray:
    """The pipeline of the module docstring, to a new (size, size) float64 array; ``img`` is only read.

    The brightness multiply allocates the array that the contrast stretch and the clip then
    write in place: the tail writes only arrays this function allocated.
    """
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2 or img.shape[0] < 1 or img.shape[1] < 1:
        raise BadImage(f"expected non-empty 2-d grid, got shape {img.shape}")
    if not np.isfinite(img).all():
        raise BadImage("image contains non-finite values")

    out = _random_resized_crop(img, rng)
    if rng.uniform() < clahe_probability:
        out = clahe(out)
    out = out * float(rng.uniform(*BRIGHTNESS_RANGE))
    mean = np.add.reduce(out, axis=None) / out.size  # np.mean's bits
    out -= mean
    out *= float(rng.uniform(*CONTRAST_RANGE))
    out += mean
    np.maximum(out, 0.0, out=out)
    np.minimum(out, 1.0, out=out)
    return resize_bilinear(out, size, size)


_SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+")


def split_sentences(text: str) -> list[str]:
    return [s for s in _SENTENCE_SPLIT.split(text.strip()) if s]


def augment_text(text: str, rng: Draws) -> str:
    if not text:
        raise ValueError("cannot augment empty text")
    sentences = split_sentences(text)
    if len(sentences) <= 1:
        return text
    order = rng.permutation(len(sentences))
    return " ".join(sentences[int(i)] for i in order)

