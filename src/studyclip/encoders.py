"""Toy trainable encoders: global feature, linear projection, unit normalization.

Image path: one 3x3 stride-2 conv stage (k filters, bias, softplus), global
average pooling, a two-layer perceptron (tanh hidden), then a bias-free
linear projection and row normalization. Text path: token embedding table,
mean pool over tokens, the same perceptron/projection/normalization stack.

The conv stage rectifies: pooling an odd activation of zero-mean structure
would wash out to a constant, while pooled rectifier responses measure how
strongly each filter matches, wherever the match occurs. The rectifier is a
sharpened softplus (slope 8), close to relu at the signal scale yet smooth
everywhere, so finite-difference gradient checks stay tight. Images are
shifted by -0.5 on the way in: without that centering the shared background
level dominates every pooled feature and embeddings start out collapsed.

The conv stage is one GEMM of (batch x positions, 9) patches by (9, k)
filters. The rectifier takes one exp per element and gives both the
softplus, which is pooled straight away, and its slope (a sigmoid), which
the forward pass caches: the image cache holds the patches and the slope, so
the backward pass recomputes nothing. The temporaries scale with the batch,
so evaluation encodes large study sets in chunks (``evalrun.EVAL_CHUNK``).

Forward passes cache intermediates; backward functions consume the cache and
return gradients per parameter array. Parameters live in plain dataclasses
whose ``arrays()`` method exposes named live views for the optimizer and the
checkpoint container.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .losses import ShapeMismatch, l2_normalize_vjp


class EmptySequence(ValueError):
    pass


UNK_TOKEN = "<unk>"
_TOKEN_SPLIT = re.compile(r"[^a-z0-9]+")


@dataclass
class EncoderConfig:
    conv_filters: int = 16
    hidden_dim: int = 32
    feature_dim: int = 64
    token_dim: int = 24
    embed_dim: int = 64

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if value < 1:
                raise ValueError(f"{name} must be positive, got {value}")


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
    return [w for w in _TOKEN_SPLIT.split(text.lower()) if w]


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


def init_image_params(seed_or_rng, cfg: EncoderConfig) -> ImageEncoderParams:
    rng = np.random.default_rng(seed_or_rng) if isinstance(seed_or_rng, int) else seed_or_rng
    k, h, f, d = cfg.conv_filters, cfg.hidden_dim, cfg.feature_dim, cfg.embed_dim
    return ImageEncoderParams(
        conv_w=_glorot(rng, (k, 3, 3), fan_in=9, fan_out=9 * k),
        conv_b=np.zeros(k),
        mlp_w1=_glorot(rng, (k, h), k, h),
        mlp_b1=np.zeros(h),
        mlp_w2=_glorot(rng, (h, f), h, f),
        mlp_b2=np.zeros(f),
        proj=_glorot(rng, (f, d), f, d),
    )


def init_text_params(seed_or_rng, vocab_size: int, cfg: EncoderConfig) -> TextEncoderParams:
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
    d_proj = l2_normalize_vjp(cache["projected"], d_emb)
    grads = {
        "proj": cache["feature"].T @ d_proj,
        "mlp_b2": None,
        "mlp_w2": None,
        "mlp_b1": None,
        "mlp_w1": None,
    }
    d_feature = d_proj @ params.proj.T
    grads["mlp_w2"] = cache["h"].T @ d_feature
    grads["mlp_b2"] = d_feature.sum(axis=0)
    d_h = d_feature @ params.mlp_w2.T
    d_h_pre = (1.0 - cache["h"] ** 2) * d_h
    grads["mlp_w1"] = cache["pooled"].T @ d_h_pre
    grads["mlp_b1"] = d_h_pre.sum(axis=0)
    d_pooled = d_h_pre @ params.mlp_w1.T
    return grads, d_pooled


# ---------------------------------------------------------------- image path


def _conv_patches(imgs: np.ndarray):
    b, height, width = imgs.shape
    out_h = (height - 3) // 2 + 1
    out_w = (width - 3) // 2 + 1
    if out_h < 1 or out_w < 1:
        raise ShapeMismatch(f"images of shape {imgs.shape[1:]} too small for the conv stage")
    cols = np.empty((b, out_h, out_w, 9))
    idx = 0
    for di in range(3):
        for dj in range(3):
            cols[..., idx] = imgs[:, di : di + 2 * out_h - 1 : 2, dj : dj + 2 * out_w - 1 : 2]
            idx += 1
    return cols


RECTIFIER_SLOPE = 8.0
IMAGE_SHIFT = 0.5


def _rectify(z: np.ndarray) -> np.ndarray:
    """In place: z becomes softplus(z); returns the slope sigmoid(z).

    Both come from one exp(-|z|) per element: with a = exp(-|z|) and
    r = 1/(1+a) = sigmoid(|z|), softplus(z) = max(z, 0) + log(1+a) and
    sigmoid(z) = 0.5 + sign(z)(r - 0.5). Three arrays of z's size are live.
    """
    a = np.abs(z)
    np.negative(a, out=a)
    np.exp(a, out=a)
    r = a + 1.0
    np.log(r, out=a)
    np.reciprocal(r, out=r)
    r -= 0.5
    np.copysign(r, z, out=r)
    r += 0.5
    np.maximum(z, 0.0, out=z)
    z += a
    return r


def encode_image_batch(params: ImageEncoderParams, imgs: np.ndarray):
    imgs = np.asarray(imgs, dtype=np.float64)
    if imgs.ndim != 3:
        raise ShapeMismatch(f"expected (batch, H, W), got {imgs.shape}")
    cols = _conv_patches(imgs - IMAGE_SHIFT)
    b, out_h, out_w, _ = cols.shape
    cols = cols.reshape(-1, 9)
    k = params.conv_w.shape[0]
    # scaling by the slope (a power of two) is exact, so z is bitwise slope * pre-activation
    z = cols @ (params.conv_w.reshape(k, 9).T * RECTIFIER_SLOPE)
    z += params.conv_b * RECTIFIER_SLOPE
    slope = _rectify(z)
    positions = out_h * out_w
    # average pooling as one vector-matrix product per image: far faster than a mean over axis 1
    pooled = np.ones(positions) @ z.reshape(b, positions, k)
    pooled /= RECTIFIER_SLOPE * positions
    embedding, cache = _head_forward(params, pooled)
    cache.update({"cols": cols, "slope": slope})
    return embedding, cache


def image_backward(params: ImageEncoderParams, cache, d_emb: np.ndarray) -> dict[str, np.ndarray]:
    grads, d_pooled = _head_backward(params, cache, d_emb)
    slope = cache["slope"]
    b, k = d_pooled.shape
    positions = slope.shape[0] // b
    d_pre = slope.reshape(b, positions, k) * (d_pooled / positions)[:, None, :]
    d_pre = d_pre.reshape(-1, k)
    grads["conv_w"] = (d_pre.T @ cache["cols"]).reshape(k, 3, 3)
    grads["conv_b"] = d_pre.sum(axis=0)
    return grads


# ----------------------------------------------------------------- text path


def encode_text_batch(params: TextEncoderParams, id_seqs: list[list[int]]):
    if any(len(seq) == 0 for seq in id_seqs):
        raise EmptySequence("token id sequences must be non-empty")
    pooled = np.stack([params.emb[seq].mean(axis=0) for seq in id_seqs])
    embedding, cache = _head_forward(params, pooled)
    cache["id_seqs"] = id_seqs
    return embedding, cache


def text_backward(params: TextEncoderParams, cache, d_emb: np.ndarray) -> dict[str, np.ndarray]:
    grads, d_pooled = _head_backward(params, cache, d_emb)
    d_table = np.zeros_like(params.emb)
    for row, seq in zip(d_pooled, cache["id_seqs"]):
        np.add.at(d_table, seq, row / len(seq))
    grads["emb"] = d_table
    return grads
