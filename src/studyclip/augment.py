"""Image and text augmentations for second-view fallbacks.

Image pipeline, in order: random resized crop with area scale in
``CROP_SCALE_RANGE`` (scales above 1 pad by edge replication before
cropping), CLAHE applied with a given probability, brightness multiply in
``BRIGHTNESS_RANGE``, contrast stretch about the mean in ``CONTRAST_RANGE``;
the result is clipped to [0, 1] and resized to the given output size.

CLAHE here is desk-scale: histogram equalization over a 2x2 tile grid with
the histogram clipped at 1% of the tile mass (excess redistributed uniformly)
and bilinear blending between tile mappings. A tile whose pixels all fall in
one histogram bin passes through unchanged, so constant images are exact
fixpoints.

Text augmentation swaps sentence order (seeded uniform permutation over
sentences split at ./?/! followed by whitespace or end of string). When a
back-translation command is given, the command runs instead: an executable
that reads text on stdin and writes the translation on stdout, invoked twice
with arguments ``forward`` then ``backward``.
"""

from __future__ import annotations

import re
import subprocess

import numpy as np

CLAHE_BINS = 256
CLAHE_CLIP_FRACTION = 0.01
CROP_SCALE_RANGE = (0.8, 1.1)
BRIGHTNESS_RANGE = (0.9, 1.1)
CONTRAST_RANGE = (0.8, 1.2)


class BadImage(ValueError):
    """Empty or degenerate pixel grid."""


# ----------------------------------------------------------------- primitives


def resize_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Center-aligned bilinear resize; preserves constant images exactly."""
    h, w = img.shape
    if (h, w) == (out_h, out_w):
        return img.copy()
    ys = np.clip((np.arange(out_h) + 0.5) * h / out_h - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(out_w) + 0.5) * w / out_w - 0.5, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    top = img[np.ix_(y0, x0)] * (1 - wx) + img[np.ix_(y0, x1)] * wx
    bot = img[np.ix_(y1, x0)] * (1 - wx) + img[np.ix_(y1, x1)] * wx
    return top * (1 - wy) + bot * wy


def _tile_mapping(tile: np.ndarray) -> np.ndarray | None:
    """Bin-to-value equalization mapping for one tile; None marks pass-through."""
    bins = np.minimum((tile * CLAHE_BINS).astype(int), CLAHE_BINS - 1)
    hist = np.bincount(bins.ravel(), minlength=CLAHE_BINS).astype(np.float64)
    if np.count_nonzero(hist) <= 1:
        return None
    n = float(tile.size)
    limit = CLAHE_CLIP_FRACTION * n
    excess = float(np.sum(np.maximum(hist - limit, 0.0)))
    hist = np.minimum(hist, limit) + excess / CLAHE_BINS
    cdf = np.cumsum(hist)
    return (cdf - hist / 2.0) / n  # mid-bin rule


def clahe(img: np.ndarray) -> np.ndarray:
    """Contrast-limited equalization over a 2x2 tile grid with bilinear blending."""
    h, w = img.shape
    bins = np.minimum((img * CLAHE_BINS).astype(int), CLAHE_BINS - 1)
    row_splits = [(0, h // 2), (h // 2, h)] if h >= 2 else [(0, h), (0, h)]
    col_splits = [(0, w // 2), (w // 2, w)] if w >= 2 else [(0, w), (0, w)]

    mapped = np.empty((2, 2, h, w))
    centers_r = np.empty(2)
    centers_c = np.empty(2)
    any_equalized = False
    for ti, (r0, r1) in enumerate(row_splits):
        centers_r[ti] = (r0 + r1 - 1) / 2.0
        for tj, (c0, c1) in enumerate(col_splits):
            centers_c[tj] = (c0 + c1 - 1) / 2.0
            mapping = _tile_mapping(img[r0:r1, c0:c1])
            any_equalized = any_equalized or mapping is not None
            mapped[ti, tj] = img if mapping is None else mapping[bins]
    if not any_equalized:
        return img.copy()

    span_r = max(centers_r[1] - centers_r[0], 1e-12)
    span_c = max(centers_c[1] - centers_c[0], 1e-12)
    wr = np.clip((np.arange(h) - centers_r[0]) / span_r, 0.0, 1.0)[:, None]
    wc = np.clip((np.arange(w) - centers_c[0]) / span_c, 0.0, 1.0)[None, :]
    return (
        (1 - wr) * (1 - wc) * mapped[0, 0]
        + (1 - wr) * wc * mapped[0, 1]
        + wr * (1 - wc) * mapped[1, 0]
        + wr * wc * mapped[1, 1]
    )


def _random_resized_crop(img: np.ndarray, rng) -> np.ndarray:
    h, w = img.shape
    scale = float(rng.uniform(*CROP_SCALE_RANGE))
    side = np.sqrt(scale)
    crop_h = max(1, int(round(h * side)))
    crop_w = max(1, int(round(w * side)))
    if crop_h > h or crop_w > w:
        pad_h = max(0, crop_h - h)
        pad_w = max(0, crop_w - w)
        top = int(rng.integers(pad_h + 1))
        left = int(rng.integers(pad_w + 1))
        img = np.pad(img, ((top, pad_h - top), (left, pad_w - left)), mode="edge")
        h, w = img.shape
    y0 = int(rng.integers(h - crop_h + 1))
    x0 = int(rng.integers(w - crop_w + 1))
    return img[y0 : y0 + crop_h, x0 : x0 + crop_w]


# ------------------------------------------------------------------- pipeline


def augment_image(img: np.ndarray, size: int, clahe_probability: float, rng: np.random.Generator) -> np.ndarray:
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2 or img.shape[0] < 1 or img.shape[1] < 1:
        raise BadImage(f"expected non-empty 2-d grid, got shape {img.shape}")
    if not np.all(np.isfinite(img)):
        raise BadImage("image contains non-finite values")

    out = _random_resized_crop(img, rng)
    if rng.uniform() < clahe_probability:
        out = clahe(out)
    out = out * float(rng.uniform(*BRIGHTNESS_RANGE))
    mean = float(np.mean(out))
    out = mean + float(rng.uniform(*CONTRAST_RANGE)) * (out - mean)
    out = np.clip(out, 0.0, 1.0)
    return resize_bilinear(out, size, size)


_SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+")


def split_sentences(text: str) -> list[str]:
    return [s for s in _SENTENCE_SPLIT.split(text.strip()) if s]


def augment_text(text: str, rng: np.random.Generator, backtranslation_command: str | None = None) -> str:
    if not text:
        raise ValueError("cannot augment empty text")
    if backtranslation_command:
        intermediate = _run_hook(backtranslation_command, "forward", text)
        return _run_hook(backtranslation_command, "backward", intermediate)
    sentences = split_sentences(text)
    if len(sentences) <= 1:
        return text
    order = rng.permutation(len(sentences))
    return " ".join(sentences[int(i)] for i in order)


def _run_hook(command: str, direction: str, text: str) -> str:
    proc = subprocess.run(
        [command, direction],
        input=text.encode("utf-8"),
        stdout=subprocess.PIPE,
        check=True,
    )
    return proc.stdout.decode("utf-8").strip()
