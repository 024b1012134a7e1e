"""Toy trainable encoders: global feature, linear projection, unit normalization.

Image path: one 3x3 stride-2 conv stage (k filters, bias, relu), global
average pooling, a two-layer perceptron (tanh hidden), then a bias-free
linear projection and row normalization. Text path: a batch's ``text_bag``
times the token embedding table (the mean pool over tokens), then the same
perceptron/projection/normalization stack.

The shared head owns the unit normalization and its backward pass. The
forward pass divides each projected row by its norm and raises
``CollapsedProjection``, naming the encoder, if a row is zero or not finite
(one relu filter that no patch of an image activates gives a zero row); its
cache holds the ``norms`` and the ``embedding`` it returned, and the backward
pass takes the gradient through the division with those, computing neither
again.
``losses`` takes the embeddings as they come and checks only their shape.

The conv stage rectifies before it pools: pooling an odd activation of
zero-mean structure would wash out to a constant, while pooled rectifier
responses measure how strongly each filter matches, wherever the match
occurs. Images are shifted by -0.5 on the way in: without that centering the
shared background level dominates every pooled feature and embeddings start
out collapsed.

The conv stage is one GEMM of (batch x positions, 10) patches by (10, k)
weights: the nine patch entries, and a constant 1 that carries the bias.
Average pooling is linear, so the filter and bias gradients need the relu's
slope, the mask z > 0, only through its moments: per image, the mean over
positions of the mask times each patch entry (and times the 1, which gives the
share of active positions), a (10, k) matrix. The forward pass computes them
as it goes, and the image cache holds the moments, not the patches or the
mask: the backward pass weighs each image's moments by its pooled-feature
gradient and sums over the batch, with no per-position array. The patches, the
GEMM, the relu, the pooling and the moments run over blocks of a few images,
each block's pre-activations within ``CONV_BLOCK_BYTES``, so their temporaries
scale with the block, not the batch, and stay in cache. A call makes the
strided view of the batch's windows and the block's patch buffer once, the
buffer's row of ones written once; each block writes its shifted windows into
the buffer. A forward-only encode (``with_grads=False``: validation and
evaluation) takes neither the mask nor the moments, so ``image_backward``
cannot run on its cache.

The text mean pool is one product with the (batch, vocab) bag matrix of
``text_bag``, whose row i weighs each token of sequence i by 1/len (a
repeated token adds up); ``encode_text_batch`` takes the bag, its cache holds
it, and the table gradient is its transpose times the pooled-feature
gradient. ``text_bag`` reads the ids out of the lists in one pass and fills
the bag with one ``np.bincount`` over row-offset ids, which sums each cell in
input order.

The encoders own the parameter names: ``img.*`` for the image path, ``txt.*``
for the text path. The init functions return those arrays as a dict, the
forward passes read them by name from any map that holds them (a trained
model's ``params``, ``log_tau`` and the other path's arrays included), and
the backward passes consume the forward cache and return one gradient per
name, keyed the same.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .losses import ShapeMismatch


class EmptySequence(ValueError):
    pass


class CollapsedProjection(FloatingPointError):
    """A projected row that is zero or not finite, so it has no direction; the message names the encoder."""


UNK_TOKEN = "<unk>"
_TOKEN = re.compile(r"[a-z0-9]+")


# -------------------------------------------------------------------- tokens


@dataclass
class Vocab:
    tokens: list[str]  # index 0 is the reserved UNK id
    index: dict[str, int] = field(init=False)

    def __post_init__(self):
        if not self.tokens or self.tokens[0] != UNK_TOKEN:
            raise ValueError(f"vocab must start with {UNK_TOKEN!r}")
        self.index = {tok: i for i, tok in enumerate(self.tokens)}

    def __len__(self) -> int:
        return len(self.tokens)


def words(text: str) -> list[str]:
    return _TOKEN.findall(text.lower())


def build_vocab(texts) -> Vocab:
    """Deterministic vocabulary ordered by descending count, then alphabetically."""
    counts: dict[str, int] = {}
    for text in texts:
        for w in words(text):
            counts[w] = counts.get(w, 0) + 1
    ordered = sorted(counts, key=lambda w: (-counts[w], w))
    return Vocab(tokens=[UNK_TOKEN] + ordered)


def tokenize(text: str, vocab: Vocab) -> list[int]:
    """Lowercase, punctuation to spaces, whitespace split, UNK fallback."""
    ids = [vocab.index.get(w, 0) for w in words(text)]
    return ids if ids else [0]


# ---------------------------------------------------------------- parameters


def _glorot(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def _init_head(rng: np.random.Generator, prefix: str, pooled_dim: int, cfg) -> dict[str, np.ndarray]:
    """The shared perceptron and projection of one path: Glorot-uniform weights, zero biases."""
    h, f, d = cfg.hidden_dim, cfg.feature_dim, cfg.embed_dim
    return {
        f"{prefix}.mlp_w1": _glorot(rng, (pooled_dim, h), pooled_dim, h),
        f"{prefix}.mlp_b1": np.zeros(h),
        f"{prefix}.mlp_w2": _glorot(rng, (h, f), h, f),
        f"{prefix}.mlp_b2": np.zeros(f),
        f"{prefix}.proj": _glorot(rng, (f, d), f, d),  # bias-free
    }


def init_image_params(seed_or_rng, cfg) -> dict[str, np.ndarray]:
    """The ``img.*`` arrays: Glorot-uniform filters, bias ``CONV_BIAS_INIT``, the head; sizes from a ``TrainConfig``."""
    rng = np.random.default_rng(seed_or_rng)  # a Generator comes back unchanged
    k = cfg.conv_filters
    conv = {"img.conv_w": _glorot(rng, (k, 3, 3), fan_in=9, fan_out=9 * k), "img.conv_b": np.full(k, CONV_BIAS_INIT)}
    return {**conv, **_init_head(rng, "img", k, cfg)}


def init_text_params(seed_or_rng, vocab_size: int, cfg) -> dict[str, np.ndarray]:
    """The ``txt.*`` arrays: a Glorot-uniform (vocab, token_dim) table, the head; sizes from a ``TrainConfig``."""
    rng = np.random.default_rng(seed_or_rng)
    e = cfg.token_dim
    return {"txt.emb": _glorot(rng, (vocab_size, e), vocab_size, e), **_init_head(rng, "txt", e, cfg)}


# -------------------------------------------------------------- shared stages


def _head_forward(params, prefix: str, pooled: np.ndarray):
    """pooled (B, in) -> perceptron -> projection -> normalized embedding, with the ``prefix`` path's head."""
    h_pre = pooled @ params[f"{prefix}.mlp_w1"] + params[f"{prefix}.mlp_b1"]
    h = np.tanh(h_pre)
    feature = h @ params[f"{prefix}.mlp_w2"] + params[f"{prefix}.mlp_b2"]
    projected = feature @ params[f"{prefix}.proj"]
    norms = np.sqrt(np.add.reduce(projected * projected, axis=1, keepdims=True))  # np.linalg.norm's bits
    # the minimum propagates a NaN norm, which fails its test; the initials let an empty batch pass
    low, high = np.minimum.reduce(norms, axis=None, initial=np.inf), np.maximum.reduce(norms, axis=None, initial=0.0)
    if not (low > 1e-12 and np.isfinite(high)):
        raise CollapsedProjection(f"{prefix} encoder: projection collapsed to a zero vector or is not finite")
    embedding = projected / norms
    cache = {"pooled": pooled, "h": h, "feature": feature, "projected": projected}
    cache.update(norms=norms, embedding=embedding)  # what the backward pass divides by, and its y
    return embedding, cache


def _head_backward(params, prefix: str, cache, d_emb: np.ndarray):
    """Returns (the head's gradients by name, gradient at pooled input)."""
    # back through y = x / |x| per row: dx = (g - y (y . g)) / |x|, with the forward pass's y and norms
    y, norms = cache["embedding"], cache["norms"]
    d_proj = (d_emb - y * np.sum(y * d_emb, axis=1, keepdims=True)) / norms
    d_feature = d_proj @ params[f"{prefix}.proj"].T
    d_h_pre = (1.0 - cache["h"] ** 2) * (d_feature @ params[f"{prefix}.mlp_w2"].T)
    grads = {
        f"{prefix}.proj": cache["feature"].T @ d_proj,
        f"{prefix}.mlp_w2": cache["h"].T @ d_feature,
        f"{prefix}.mlp_b2": d_feature.sum(axis=0),
        f"{prefix}.mlp_w1": cache["pooled"].T @ d_h_pre,
        f"{prefix}.mlp_b1": d_h_pre.sum(axis=0),
    }
    return grads, d_h_pre @ params[f"{prefix}.mlp_w1"].T


# ---------------------------------------------------------------- image path


IMAGE_SHIFT = 0.5
# Byte budget of one block's pre-activations: 4 images of 15x15 positions x 16 filters.
CONV_BLOCK_BYTES = 1 << 17
# Starting value of the conv bias. A flat mid-gray image shifts to 0, so its pre-activations equal the
# bias; at a zero bias relu, and with it the whole embedding, would be 0.
CONV_BIAS_INIT = 0.01


def _conv_weights(params) -> np.ndarray:
    """(10, k): the filters over the patch rows, then the bias."""
    conv_w = params["img.conv_w"]
    return np.vstack([conv_w.reshape(len(conv_w), 9).T, params["img.conv_b"]])


def encode_image_batch(params, imgs: np.ndarray, with_grads: bool = True):
    """Embeds (batch, H, W) images; without ``with_grads`` the cache holds nothing for ``image_backward``."""
    imgs = np.asarray(imgs, dtype=np.float64)
    if imgs.ndim != 3:
        raise ShapeMismatch(f"expected (batch, H, W), got {imgs.shape}")
    b, height, width = imgs.shape
    if height < 3 or width < 3:
        raise ShapeMismatch(f"images of shape {imgs.shape[1:]} too small for the conv stage")
    out_h, out_w = (height - 1) // 2, (width - 1) // 2  # 3x3 windows at stride 2
    positions = out_h * out_w
    s_b, s_h, s_w = imgs.strides
    # a view, (di, dj, image, i, j) -> imgs[image, 2i + di, 2j + dj]: one subtract writes a block's patch rows
    windows = as_strided(imgs, (3, 3, b, out_h, out_w), (s_h, s_w, s_b, 2 * s_h, 2 * s_w), writeable=False)
    w = _conv_weights(params)
    k = w.shape[1]
    ones = np.ones(positions)
    moments = np.empty((b, 10, k)) if with_grads else None
    pooled = np.empty((b, k))
    block = max(1, min(b, CONV_BLOCK_BYTES // (positions * k * 8)))
    # one block's patches, (10, block x positions), reused by every block: rows 0-8 the shifted windows,
    # row 9 ones, which carry the bias through the GEMM and give the share of active positions in the moments
    buffer = np.empty((10, block * positions))
    buffer[9] = 1.0
    patches = buffer[:9].reshape(3, 3, block, out_h, out_w)
    for start in range(0, b, block):
        stop = min(start + block, b)
        n = stop - start
        np.subtract(windows[:, :, start:stop], IMAGE_SHIFT, out=patches[:, :, :n])
        cols = buffer[:, : n * positions]  # column i x positions + p is position p of image start + i
        z = cols.T @ w
        mask = (z > 0.0).astype(np.float64) if with_grads else None  # relu's slope: 0 at z == 0
        np.maximum(z, 0.0, out=z)
        # average pooling as one vector-matrix product per image: far faster than a mean over axis 1
        pooled[start:stop] = ones @ z.reshape(n, positions, k)
        if with_grads:
            # per image, patches (10, positions) @ mask (positions, k)
            np.matmul(
                cols.reshape(10, n, positions).transpose(1, 0, 2),
                mask.reshape(n, positions, k),
                out=moments[start:stop],
            )
    pooled /= positions
    embedding, cache = _head_forward(params, "img", pooled)
    if with_grads:
        moments /= positions
        cache["moments"] = moments
    return embedding, cache


def image_backward(params, cache, d_emb: np.ndarray) -> dict[str, np.ndarray]:
    """Pooling is linear: each image's filter and bias gradient is its moments scaled by dL/dpooled."""
    grads, d_pooled = _head_backward(params, "img", cache, d_emb)
    d_w = np.einsum("bjk,bk->jk", cache["moments"], d_pooled)
    grads["img.conv_w"] = d_w[:9].T.reshape(-1, 3, 3)
    grads["img.conv_b"] = d_w[9]
    return grads


# ----------------------------------------------------------------- text path


def text_bag(id_seqs: list[list[int]], vocab_size: int) -> np.ndarray:
    """(B, vocab): row i weighs each token of sequence i by 1/len, so bag @ emb is its mean embedding."""
    if not id_seqs:
        raise EmptySequence("cannot bag an empty batch: no token id sequences")
    lengths = [len(seq) for seq in id_seqs]
    if 0 in lengths:
        raise EmptySequence("token id sequences must be non-empty")
    ids = np.fromiter(itertools.chain.from_iterable(id_seqs), np.intp, count=sum(lengths))
    if ids.min() < 0 or ids.max() >= vocab_size:
        raise IndexError(f"token ids must lie in [0, {vocab_size})")
    size = len(id_seqs) * vocab_size
    cells = np.repeat(np.arange(0, size, vocab_size), lengths)  # each token's row offset
    cells += ids
    weights = np.repeat(1.0 / np.array(lengths), lengths)
    return np.bincount(cells, weights, minlength=size).reshape(len(id_seqs), vocab_size)


def encode_text_batch(params, bag: np.ndarray):
    """Embeds a (batch, vocab) ``text_bag``."""
    emb = params["txt.emb"]
    if bag.ndim != 2 or bag.shape[1] != emb.shape[0]:
        raise ShapeMismatch(f"expected a (batch, {emb.shape[0]}) token bag, got {bag.shape}")
    embedding, cache = _head_forward(params, "txt", bag @ emb)
    cache["bag"] = bag
    return embedding, cache


def text_backward(params, cache, d_emb: np.ndarray) -> dict[str, np.ndarray]:
    grads, d_pooled = _head_backward(params, "txt", cache, d_emb)
    grads["txt.emb"] = cache["bag"].T @ d_pooled
    return grads
