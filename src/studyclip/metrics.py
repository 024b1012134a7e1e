"""Evaluation protocols: image-to-text retrieval, zero-shot classification.

Retrieval ranks every candidate text per image by inner product (ties broken
toward the lower index) and reports recall at K plus RSUM, defined as
100 * (R@1 + R@5 + R@10). Binary zero-shot scores each image by
sim(image, positive prompt) - sim(image, negative prompt) and reports the
exact rank-based AUC with ties counted one half. Multi-class zero-shot
predicts the argmax over class prompt embeddings (ties toward the lower
class index) and reports accuracy with confusion counts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .losses import ShapeMismatch


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


@dataclass
class BinaryClsResult:
    auc: float
    scores: np.ndarray


@dataclass
class MultiClsResult:
    accuracy: float
    confusion: np.ndarray  # (k, k): true class x predicted class
    predictions: np.ndarray


def rsum_from_recalls(r1: float, r5: float, r10: float) -> float:
    return 100.0 * (r1 + r5 + r10)


def recall_at_k(image_embs: np.ndarray, text_embs: np.ndarray, ks=(1, 5, 10)) -> RetrievalResult:
    """Recall of the paired text among the top K candidates for each image."""
    image_embs = np.asarray(image_embs, dtype=np.float64)
    text_embs = np.asarray(text_embs, dtype=np.float64)
    if image_embs.ndim != 2 or text_embs.ndim != 2 or image_embs.shape != text_embs.shape:
        raise ShapeMismatch(
            f"aligned embedding matrices required, got {image_embs.shape} and {text_embs.shape}"
        )
    n = image_embs.shape[0]
    if any(k > n for k in ks):
        raise ShapeMismatch(f"every K must be <= {n}")
    sims = image_embs @ text_embs.T
    diag = sims[np.arange(n), np.arange(n)]
    # rank = number of strictly better candidates + equal candidates at lower index
    better = np.sum(sims > diag[:, None], axis=1)
    ties_before = np.tril(sims == diag[:, None], -1).sum(axis=1)
    ranks = better + ties_before
    recalls = {int(k): float(np.mean(ranks < k)) for k in ks}
    ordered = sorted(recalls)
    rsum = rsum_from_recalls(*(recalls.get(k, 0.0) for k in (1, 5, 10))) if set(ordered) >= {1, 5, 10} else 100.0 * sum(
        recalls.values()
    )
    return RetrievalResult(recalls=recalls, rsum=rsum, ranks=ranks)


def zero_shot_binary(
    image_embs: np.ndarray,
    pos_prompt_emb: np.ndarray,
    neg_prompt_emb: np.ndarray,
    labels: np.ndarray,
) -> BinaryClsResult:
    """AUC of sim(image, pos) - sim(image, neg) via the exact rank statistic."""
    image_embs = np.asarray(image_embs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    scores = image_embs @ np.asarray(pos_prompt_emb) - image_embs @ np.asarray(neg_prompt_emb)
    return BinaryClsResult(auc=auc_exact(scores, labels), scores=scores)


def auc_exact(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUC from mid-ranks; ties count one half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabels("need at least one positive and one negative label")
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    # 1-based mid-rank of each group of equal scores: its last rank minus half its width
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    rank_sum_pos = float(np.sum(ranks[labels == 1]))
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def zero_shot_multiclass(
    image_embs: np.ndarray, class_prompt_embs: np.ndarray, labels: np.ndarray
) -> MultiClsResult:
    """Argmax over class prompt similarities; accuracy plus confusion counts."""
    image_embs = np.asarray(image_embs, dtype=np.float64)
    class_prompt_embs = np.asarray(class_prompt_embs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    k = class_prompt_embs.shape[0]
    if k < 2:
        raise ShapeMismatch("need at least two classes")
    if image_embs.shape[1] != class_prompt_embs.shape[1]:
        raise ShapeMismatch(
            f"embedding dims differ: {image_embs.shape[1]} vs {class_prompt_embs.shape[1]}"
        )
    if np.any(labels < 0) or np.any(labels >= k):
        raise ShapeMismatch(f"labels must lie in [0, {k})")
    sims = image_embs @ class_prompt_embs.T
    predictions = np.argmax(sims, axis=1)  # first max wins: lowest class index
    confusion = np.zeros((k, k), dtype=np.int64)
    for truth, pred in zip(labels, predictions):
        confusion[truth, pred] += 1
    accuracy = float(np.trace(confusion) / confusion.sum())
    return MultiClsResult(accuracy=accuracy, confusion=confusion, predictions=predictions)


def class_prompt_embeddings(
    class_names: list[str],
    engine,
    encode_fn,
    rng: np.random.Generator,
    ensemble_size: int = 1,
) -> np.ndarray:
    """Per-class prompt embedding: mean of m rendered-prompt embeddings, renormalized."""
    rows = []
    for name in class_names:
        embs = []
        for _ in range(ensemble_size):
            embs.append(encode_fn(engine.render_prompt(name, "positive", rng)))
        mean = np.mean(embs, axis=0)
        rows.append(mean / np.linalg.norm(mean))
    return np.stack(rows)


# ------------------------------------------------------------ metric documents


def metrics_document(task: str, split: str, metrics: dict[str, float], seed: int, config_hash: str) -> str:
    """One JSON line per metric: task, split, metric, value, seed, config_hash."""
    lines = []
    for name in sorted(metrics):
        lines.append(
            json.dumps(
                {
                    "task": task,
                    "split": split,
                    "metric": name,
                    "value": metrics[name],
                    "seed": seed,
                    "config_hash": config_hash,
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + "\n"


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


def ablation_report(
    train_set,
    valid_set,
    test_set,
    base_config,
    variants: list[AblationVariant] | None = None,
    seeds: tuple[int, ...] = (0,),
    engine=None,
) -> list[dict]:
    """Train each variant per seed and tabulate ACC / R@K / RSUM rows."""
    from .evalrun import evaluate_model  # local import: avoids a cycle
    from .training import config_from_dict, train

    variants = DEFAULT_VARIANTS if variants is None else variants
    rows = []
    for variant in variants:
        for seed in seeds:
            raw = dict(base_config.to_dict())
            raw.update(variant.overrides)
            raw["seed"] = seed
            cfg = config_from_dict(raw)
            model, _ = train(train_set, valid_set, cfg, engine)
            measured = evaluate_model(model, test_set, engine)
            rows.append(
                {
                    "variant": variant.name,
                    "seed": seed,
                    "acc": measured["acc"],
                    "r_at_1": measured["r_at_1"],
                    "r_at_5": measured["r_at_5"],
                    "r_at_10": measured["r_at_10"],
                    "rsum": measured["rsum"],
                }
            )
    return rows


def format_ablation_table(rows: list[dict]) -> str:
    header = f"{'variant':<16} {'seed':>4} {'ACC':>7} {'R@1':>7} {'R@5':>7} {'R@10':>7} {'RSUM':>8}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['variant']:<16} {row['seed']:>4} {row['acc']:>7.3f} {row['r_at_1']:>7.3f} "
            f"{row['r_at_5']:>7.3f} {row['r_at_10']:>7.3f} {row['rsum']:>8.2f}"
        )
    return "\n".join(lines)
