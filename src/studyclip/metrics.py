"""Evaluation protocols: image-to-text retrieval, zero-shot classification.

Retrieval ranks the candidate texts per image by inner product and reports
recall at K plus RSUM, 100 * (R@1 + R@5 + R@10). A test set repeats its texts,
so they come as distinct rows plus each image's row index. Image i's rank is
the number of other rows scoring at least as high as its own row, in [0, m) for
m rows, so K is at most m. Ties count against the image, and rows repeated
without a row index are separate rows that count against each other. Where
texts repeat, this differs from index-based CLIP evaluation, which counts each
copy of the image's own text against it: here the copies are one row, a hit.
Images are ranked ``RANK_BLOCK`` at a time and the rule holds over the block
products ``image_embs[block] @ text_embs.T``: BLAS may round a block's product
unlike the same rows of the whole one. The inputs must be finite and small
enough that no similarity can overflow, so no NaN reaches the ranking. Binary
zero-shot scores each image by sim(image, positive prompt) - sim(image,
negative prompt) and reports the exact AUC: the share of positive-negative
pairs that the positive outscores, ties counted one half (the Mann-Whitney U
over the pair count). Multi-class zero-shot predicts the argmax over class
prompt embeddings (ties toward the lower class index) and reports accuracy.
Every score, embedding and multiclass similarity must be finite: a NaN would
read as a tie or a maximum.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .losses import ShapeMismatch


# Images ranked at a time: a block's similarities are RANK_BLOCK x m floats.
RANK_BLOCK = 256


class DegenerateLabels(ValueError):
    """Binary AUC needs at least one positive and one negative label."""


@dataclass
class RetrievalResult:
    recalls: dict[int, float]  # K -> fraction
    rsum: float
    ranks: np.ndarray  # 0-based rank of the paired text per image

    def __post_init__(self):
        ks = sorted(self.recalls)
        for lo, hi in zip(ks[:-1], ks[1:]):
            assert self.recalls[lo] <= self.recalls[hi] + 1e-12


def recall_at_k(
    image_embs: np.ndarray, text_embs: np.ndarray, ks=(1, 5, 10), text_rows: np.ndarray | None = None
) -> RetrievalResult:
    """Recall of the paired text among the top K candidate rows for each image.

    Image i's text is row ``text_rows[i]`` of ``text_embs`` (row i without
    ``text_rows``), ranked by the rule in the module docstring.
    """
    image_embs = np.asarray(image_embs, dtype=np.float64)
    text_embs = np.asarray(text_embs, dtype=np.float64)
    aligned = image_embs.shape[1:] == text_embs.shape[1:] and (
        text_rows is not None or len(image_embs) == len(text_embs)
    )
    if image_embs.ndim != 2 or text_embs.ndim != 2 or not aligned:
        raise ShapeMismatch(
            f"aligned embedding matrices required, got {image_embs.shape} and {text_embs.shape}"
        )
    n, d = image_embs.shape
    m = len(text_embs)
    if text_rows is None:
        text_rows = np.arange(n)
    text_rows = np.asarray(text_rows)
    if text_rows.shape != (n,) or not np.issubdtype(text_rows.dtype, np.integer):
        raise ShapeMismatch(
            f"text_rows must be one integer row index per image, {n} in all, "
            f"got {text_rows.dtype} {text_rows.shape}"
        )
    if n and (text_rows.min() < 0 or text_rows.max() >= m):
        raise ShapeMismatch(f"text_rows must lie in [0, {m}), got {text_rows.min()} to {text_rows.max()}")
    if not (np.isfinite(image_embs).all() and np.isfinite(text_embs).all()):
        raise ValueError("embeddings must be finite")
    # every partial sum of a similarity is at most d * max|image| * max|text|, the 2 covers rounding;
    # Python floats overflow to inf without a warning
    image_max, text_max = (max(float(x.max(initial=0.0)), -float(x.min(initial=0.0))) for x in (image_embs, text_embs))
    if not math.isfinite(image_max * text_max * (2.0 * d)):
        raise ValueError("similarities can overflow: embeddings too large")
    for k in ks:
        if not isinstance(k, numbers.Integral) or k < 1:
            raise ShapeMismatch(f"every K must be an integer >= 1, got K={k!r}")
        if k > m:
            raise ShapeMismatch(f"every K must be <= {m}, got K={k}")
    if not n:
        raise ShapeMismatch("no images to rank")
    ranks = np.empty(n, dtype=np.int64)
    block = min(RANK_BLOCK, n)
    scores = np.empty((block, m))  # a block's similarities
    at_least = np.empty((block, m), dtype=bool)  # rows scoring at least the pair, its own included
    for start in range(0, n, RANK_BLOCK):
        stop = min(start + RANK_BLOCK, n)
        sims = np.matmul(image_embs[start:stop], text_embs.T, out=scores[: stop - start])
        own = sims[np.arange(stop - start), text_rows[start:stop]][:, None]
        ranks[start:stop] = np.count_nonzero(np.greater_equal(sims, own, out=at_least[: stop - start]), axis=1) - 1
    recalls = {int(k): float(np.mean(ranks < k)) for k in ks}
    return RetrievalResult(recalls=recalls, rsum=100.0 * sum(recalls.values()), ranks=ranks)


def zero_shot_binary(
    image_embs: np.ndarray,
    pos_prompt_emb: np.ndarray,
    neg_prompt_emb: np.ndarray,
    labels: np.ndarray,
) -> float:
    """AUC of sim(image, pos) - sim(image, neg) via the exact pair count."""
    image_embs = np.asarray(image_embs, dtype=np.float64)
    pos_prompt_emb, neg_prompt_emb = np.asarray(pos_prompt_emb), np.asarray(neg_prompt_emb)
    for kind, emb in (("positive", pos_prompt_emb), ("negative", neg_prompt_emb)):
        if image_embs.ndim != 2 or emb.shape != image_embs.shape[1:]:
            raise ShapeMismatch(f"embedding dims differ: images {image_embs.shape} vs {kind} prompt {emb.shape}")
    scores = image_embs @ pos_prompt_emb - image_embs @ neg_prompt_emb
    return auc_exact(scores, labels)


def auc_exact(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUC: the share of (positive, negative) pairs the positive outscores, ties one half.

    Each positive counts the sorted negatives strictly below it and those at or
    below it; U, half the sum of both counts, is a sum of integers and halves,
    exact in float64.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or labels.shape != scores.shape:
        raise ShapeMismatch(f"{scores.shape} scores but labels of shape {labels.shape}")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    positive, negative = labels == 1, labels == 0
    n_pos, n_neg = np.count_nonzero(positive), np.count_nonzero(negative)
    if n_pos + n_neg != labels.size:
        other = np.unique(labels[~(positive | negative)])
        raise ShapeMismatch(f"labels must be 0 or 1, got {other.tolist()}")
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabels("need at least one positive and one negative label")
    negatives = np.sort(scores[negative])
    positives = np.sort(scores[positive])  # sorted keys: each search starts where the last one ended
    pairs = np.searchsorted(negatives, positives, "left").sum() + np.searchsorted(negatives, positives, "right").sum()
    return int(pairs) / 2.0 / (n_pos * n_neg)


def zero_shot_multiclass(
    image_embs: np.ndarray, class_prompt_embs: np.ndarray, labels: np.ndarray
) -> float:
    """Accuracy of the argmax over class prompt similarities."""
    image_embs = np.asarray(image_embs, dtype=np.float64)
    class_prompt_embs = np.asarray(class_prompt_embs, dtype=np.float64)
    labels = np.asarray(labels)
    if image_embs.ndim != 2 or class_prompt_embs.ndim != 2:
        raise ShapeMismatch(f"embedding matrices required, got {image_embs.shape} and {class_prompt_embs.shape}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ShapeMismatch(f"labels must be integer class indices, got dtype {labels.dtype}")
    k = class_prompt_embs.shape[0]
    if k < 2:
        raise ShapeMismatch("need at least two classes")
    if image_embs.shape[1] != class_prompt_embs.shape[1]:
        raise ShapeMismatch(
            f"embedding dims differ: {image_embs.shape[1]} vs {class_prompt_embs.shape[1]}"
        )
    if labels.shape != image_embs.shape[:1]:
        raise ShapeMismatch(f"{image_embs.shape[0]} images but labels of shape {labels.shape}")
    if np.any(labels < 0) or np.any(labels >= k):
        raise ShapeMismatch(f"labels must lie in [0, {k})")
    with np.errstate(over="ignore", invalid="ignore"):
        sims = image_embs @ class_prompt_embs.T
    if not np.isfinite(sims).all():  # a non-finite entry, or an overflow, makes some similarity non-finite
        raise ValueError("embeddings must be finite, with similarities that do not overflow")
    predictions = np.argmax(sims, axis=1)  # first max wins: lowest class index
    return float(np.mean(predictions == labels))


# ----------------------------------------------------------------- ablations


@dataclass
class AblationVariant:
    name: str
    overrides: dict = field(default_factory=dict)


DEFAULT_VARIANTS = [
    AblationVariant("clip_only", {"sampling_mode": "single", "augment": False,
                                  "lambda_icl": 0.0, "lambda_tcl": 0.0}),
    AblationVariant("study_sampling", {"sampling_mode": "study_single", "augment": False,
                                       "lambda_icl": 0.0, "lambda_tcl": 0.0}),
    AblationVariant("augmentations", {"sampling_mode": "study_single", "augment": True,
                                      "lambda_icl": 0.0, "lambda_tcl": 0.0}),
    AblationVariant("mvs", {"sampling_mode": "pairs", "augment": True,
                            "lambda_icl": 0.0, "lambda_tcl": 0.0}),
    AblationVariant("mvs_icl", {"sampling_mode": "pairs", "augment": True,
                                "lambda_icl": 1.0, "lambda_tcl": 0.0}),
    AblationVariant("full", {"sampling_mode": "pairs", "augment": True,
                             "lambda_icl": 1.0, "lambda_tcl": 0.5}),
]
