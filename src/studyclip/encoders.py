"""Toy trainable encoders: global feature, linear projection, unit normalization.

Image path: one 3x3 stride-2 conv stage (k filters, bias, relu), global
average pooling, a two-layer perceptron (tanh hidden), then a bias-free
linear projection and row normalization. Text path: a batch's ``text_bag``
times the token embedding table (the mean pool over tokens), then the same
perceptron/projection/normalization stack.

The shared head owns the unit normalization and its backward pass. The
forward pass divides each projected row by its norm and raises if a
projection collapses to zero; the backward pass recomputes those norms from
the cached projection and takes the gradient through the division there.
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
positions of the mask times each patch entry (and times the 1, which gives
the share of active positions), a (10, k) matrix. The forward pass computes
them as it goes, and the image cache holds the moments, not the patches or
the mask: the backward pass weighs each image's moments by its pooled-feature
gradient and sums over the batch, with no per-position array. The patches,
the GEMM, the relu, the pooling and the moments run over blocks of a few
images, each block's pre-activations within ``CONV_BLOCK_BYTES``, so their
temporaries scale with the block, not the batch, and stay in cache. A
forward-only encode (``with_grads=False``: validation and evaluation) takes
neither the mask nor the moments, so ``image_backward`` cannot run on its
cache.

The text mean pool is one product with the (batch, vocab) bag matrix of
``text_bag``, whose row i weighs each token of sequence i by 1/len (a
repeated token adds up); ``encode_text_batch`` takes the bag, its cache holds
it, and the table gradient is its transpose times the pooled-feature
gradient.

Forward passes cache intermediates; backward functions consume the cache and
return gradients per parameter array. Parameters live in plain dataclasses
whose ``arrays()`` method names them; ``training`` holds them as views of one
flat vector.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .losses import ShapeMismatch


class EmptySequence(ValueError):
    pass


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


@dataclass
class ImageEncoderParams:
    conv_w: np.ndarray  # (k, 3, 3)
    conv_b: np.ndarray  # (k,)
    mlp_w1: np.ndarray  # (k, h)
    mlp_b1: np.ndarray  # (h,)
    mlp_w2: np.ndarray  # (h, f)
    mlp_b2: np.ndarray  # (f,)
    proj: np.ndarray  # (f, d), bias-free

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


@dataclass
class TextEncoderParams:
    emb: np.ndarray  # (vocab, e)
    mlp_w1: np.ndarray  # (e, h)
    mlp_b1: np.ndarray
    mlp_w2: np.ndarray  # (h, f)
    mlp_b2: np.ndarray
    proj: np.ndarray  # (f, d), bias-free

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


def _glorot(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def init_image_params(seed_or_rng, cfg) -> ImageEncoderParams:
    """Glorot-uniform weights, conv bias ``CONV_BIAS_INIT``, zero head biases; sizes from ``cfg``, a ``TrainConfig``."""
    rng = np.random.default_rng(seed_or_rng) if isinstance(seed_or_rng, int) else seed_or_rng
    k, h, f, d = cfg.conv_filters, cfg.hidden_dim, cfg.feature_dim, cfg.embed_dim
    return ImageEncoderParams(
        conv_w=_glorot(rng, (k, 3, 3), fan_in=9, fan_out=9 * k),
        conv_b=np.full(k, CONV_BIAS_INIT),
        mlp_w1=_glorot(rng, (k, h), k, h),
        mlp_b1=np.zeros(h),
        mlp_w2=_glorot(rng, (h, f), h, f),
        mlp_b2=np.zeros(f),
        proj=_glorot(rng, (f, d), f, d),
    )


def init_text_params(seed_or_rng, vocab_size: int, cfg) -> TextEncoderParams:
    """Glorot-uniform weights, zero biases; sizes from ``cfg``, a ``training.TrainConfig``."""
    rng = np.random.default_rng(seed_or_rng) if isinstance(seed_or_rng, int) else seed_or_rng
    e, h, f, d = cfg.token_dim, cfg.hidden_dim, cfg.feature_dim, cfg.embed_dim
    return TextEncoderParams(
        emb=_glorot(rng, (vocab_size, e), vocab_size, e),
        mlp_w1=_glorot(rng, (e, h), e, h),
        mlp_b1=np.zeros(h),
        mlp_w2=_glorot(rng, (h, f), h, f),
        mlp_b2=np.zeros(f),
        proj=_glorot(rng, (f, d), f, d),
    )


# -------------------------------------------------------------- shared stages


def _head_forward(params, pooled: np.ndarray):
    """pooled (B, in) -> perceptron -> projection -> normalized embedding."""
    h_pre = pooled @ params.mlp_w1 + params.mlp_b1
    h = np.tanh(h_pre)
    feature = h @ params.mlp_w2 + params.mlp_b2
    projected = feature @ params.proj
    norms = np.linalg.norm(projected, axis=1, keepdims=True)
    if np.any(norms <= 1e-12):
        raise FloatingPointError("projection collapsed to a zero vector")
    embedding = projected / norms
    cache = {"pooled": pooled, "h": h, "feature": feature, "projected": projected}
    return embedding, cache


def _head_backward(params, cache, d_emb: np.ndarray):
    """Returns (param grad dict for the head, gradient at pooled input)."""
    # back through y = x / |x| per row: dx = (g - y (y . g)) / |x|, with the forward pass's norms
    projected = cache["projected"]
    norms = np.linalg.norm(projected, axis=1, keepdims=True)
    y = projected / norms
    d_proj = (d_emb - y * np.sum(y * d_emb, axis=1, keepdims=True)) / norms
    d_feature = d_proj @ params.proj.T
    d_h_pre = (1.0 - cache["h"] ** 2) * (d_feature @ params.mlp_w2.T)
    grads = {
        "proj": cache["feature"].T @ d_proj,
        "mlp_w2": cache["h"].T @ d_feature,
        "mlp_b2": d_feature.sum(axis=0),
        "mlp_w1": cache["pooled"].T @ d_h_pre,
        "mlp_b1": d_h_pre.sum(axis=0),
    }
    return grads, d_h_pre @ params.mlp_w1.T


# ---------------------------------------------------------------- image path


def _conv_patches(imgs: np.ndarray) -> np.ndarray:
    """(10, batch x positions): rows 0-8 the 3x3 stride-2 patches of the shifted images, row 9 ones.

    Column b x positions + p is position p of image b. The row of ones carries
    the bias through the conv GEMM and gives the share of active positions
    with the moments.
    """
    b, height, width = imgs.shape
    out_h, out_w = (height - 1) // 2, (width - 1) // 2  # 3x3 windows at stride 2
    s_b, s_h, s_w = imgs.strides
    # a view, (di, dj, image, i, j) -> imgs[image, 2i + di, 2j + dj]: one subtract writes every patch row
    windows = as_strided(imgs, (3, 3, b, out_h, out_w), (s_h, s_w, s_b, 2 * s_h, 2 * s_w), writeable=False)
    cols = np.empty((10, b, out_h, out_w))
    np.subtract(windows, IMAGE_SHIFT, out=cols[:9].reshape(windows.shape))
    cols[9] = 1.0
    return cols.reshape(10, -1)


IMAGE_SHIFT = 0.5
# Byte budget of one block's pre-activations: 4 images of 15x15 positions x 16 filters.
CONV_BLOCK_BYTES = 1 << 17
# Starting value of the conv bias. A flat mid-gray image shifts to 0, so its pre-activations equal the
# bias; at a zero bias relu, and with it the whole embedding, would be 0.
CONV_BIAS_INIT = 0.01


def _conv_weights(params: ImageEncoderParams) -> np.ndarray:
    """(10, k): the filters over the patch rows, then the bias."""
    k = params.conv_w.shape[0]
    return np.vstack([params.conv_w.reshape(k, 9).T, params.conv_b])


def encode_image_batch(params: ImageEncoderParams, imgs: np.ndarray, with_grads: bool = True):
    """Embeds (batch, H, W) images; without ``with_grads`` the cache holds nothing for ``image_backward``."""
    imgs = np.asarray(imgs, dtype=np.float64)
    if imgs.ndim != 3:
        raise ShapeMismatch(f"expected (batch, H, W), got {imgs.shape}")
    b, height, width = imgs.shape
    if height < 3 or width < 3:
        raise ShapeMismatch(f"images of shape {imgs.shape[1:]} too small for the conv stage")
    positions = ((height - 1) // 2) * ((width - 1) // 2)
    w = _conv_weights(params)
    k = w.shape[1]
    ones = np.ones(positions)
    moments = np.empty((b, 10, k)) if with_grads else None
    pooled = np.empty((b, k))
    block = max(1, CONV_BLOCK_BYTES // (positions * k * 8))
    for start in range(0, b, block):
        stop = min(start + block, b)
        n = stop - start
        cols = _conv_patches(imgs[start:stop])
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
    embedding, cache = _head_forward(params, pooled)
    if with_grads:
        moments /= positions
        cache["moments"] = moments
    return embedding, cache


def image_backward(params: ImageEncoderParams, cache, d_emb: np.ndarray) -> dict[str, np.ndarray]:
    """Pooling is linear: each image's filter and bias gradient is its moments scaled by dL/dpooled."""
    grads, d_pooled = _head_backward(params, cache, d_emb)
    d_w = np.einsum("bjk,bk->jk", cache["moments"], d_pooled)
    grads["conv_w"] = d_w[:9].T.reshape(-1, 3, 3)
    grads["conv_b"] = d_w[9]
    return grads


# ----------------------------------------------------------------- text path


def text_bag(id_seqs: list[list[int]], vocab_size: int) -> np.ndarray:
    """(B, vocab): row i weighs each token of sequence i by 1/len, so bag @ emb is its mean embedding."""
    if not id_seqs:
        raise EmptySequence("cannot bag an empty batch: no token id sequences")
    lengths = np.array([len(seq) for seq in id_seqs])
    if np.any(lengths == 0):
        raise EmptySequence("token id sequences must be non-empty")
    ids = np.concatenate(id_seqs)
    if ids.min() < 0 or ids.max() >= vocab_size:
        raise IndexError(f"token ids must lie in [0, {vocab_size})")
    cells = np.repeat(np.arange(len(id_seqs)) * vocab_size, lengths) + ids
    weights = np.repeat(1.0 / lengths, lengths)
    return np.bincount(cells, weights, minlength=len(id_seqs) * vocab_size).reshape(len(id_seqs), vocab_size)


def encode_text_batch(params: TextEncoderParams, bag: np.ndarray):
    """Embeds a (batch, vocab) ``text_bag``."""
    if bag.ndim != 2 or bag.shape[1] != params.emb.shape[0]:
        raise ShapeMismatch(f"expected a (batch, {params.emb.shape[0]}) token bag, got {bag.shape}")
    embedding, cache = _head_forward(params, bag @ params.emb)
    cache["bag"] = bag
    return embedding, cache


def text_backward(params: TextEncoderParams, cache, d_emb: np.ndarray) -> dict[str, np.ndarray]:
    grads, d_pooled = _head_backward(params, cache, d_emb)
    grads["emb"] = cache["bag"].T @ d_pooled
    return grads
