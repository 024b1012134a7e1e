"""Apply a trained model to a study set and compute the evaluation metrics.

Evaluation is deterministic: the first image of each study (resized, never
augmented) stands for the study; the evaluation text is the findings section,
falling back to the impression, falling back to one prompt rendering of the
label record, seeded from (seed, study id) so every process renders the same.
Images are resized and encoded ``EVAL_CHUNK`` studies at a time, so memory
stays bounded for any test-set size.
"""

from __future__ import annotations

import numpy as np

from .augment import resize_bilinear
from .encoders import encode_image_batch, encode_text_batch, tokenize
from .metrics import (
    class_prompt_embeddings,
    recall_at_k,
    zero_shot_binary,
    zero_shot_multiclass,
)
from .prompts import PromptEngine
from .sampling import study_rng
from .studies import Study
from .training import TrainedModel


# Studies resized and encoded at a time: bounds the conv stage's temporaries,
# which grow with the batch, whatever the size of the test set.
EVAL_CHUNK = 128


def eval_image_embeddings(model: TrainedModel, studies: list[Study]) -> np.ndarray:
    size = model.config.image_size
    params = model.image_params()
    chunks = []
    for start in range(0, len(studies), EVAL_CHUNK):
        imgs = np.stack(
            [resize_bilinear(s.images[0].pixels, size, size) for s in studies[start : start + EVAL_CHUNK]]
        )
        chunks.append(encode_image_batch(params, imgs)[0])
    return np.concatenate(chunks)


def eval_text(study: Study, engine: PromptEngine, seed: int = 1234) -> str:
    if study.findings:
        return study.findings
    if study.impression:
        return study.impression
    return engine.build_study_text(study.labels, study_rng(seed, study.id))


def encode_texts(model: TrainedModel, texts: list[str]) -> np.ndarray:
    ids = [tokenize(t, model.vocab) for t in texts]
    emb, _ = encode_text_batch(model.text_params(), ids)
    return emb


def positive_classes(studies: list[Study]) -> list[str]:
    names = set()
    for study in studies:
        if study.labels:
            names.update(c for c, v in study.labels.items() if v == "positive")
    return sorted(names)


def multiclass_labels(studies: list[Study], class_names: list[str]) -> np.ndarray:
    index = {name: i for i, name in enumerate(class_names)}
    labels = []
    for study in studies:
        positives = [c for c, v in (study.labels or {}).items() if v == "positive"]
        if len(positives) != 1 or positives[0] not in index:
            raise ValueError(f"study {study.id!r} lacks exactly one known positive class")
        labels.append(index[positives[0]])
    return np.array(labels, dtype=np.int64)


def evaluate_model(
    model: TrainedModel,
    test_set: list[Study],
    engine: PromptEngine | None = None,
    prompt_ensemble: int = 1,
    prompt_seed: int = 99,
) -> dict[str, float]:
    """Zero-shot multiclass accuracy plus image-to-text retrieval metrics."""
    engine = engine or PromptEngine.default()
    image_embs = eval_image_embeddings(model, test_set)

    class_names = positive_classes(test_set)
    labels = multiclass_labels(test_set, class_names)
    prompt_rng = np.random.default_rng(prompt_seed)
    class_embs = class_prompt_embeddings(
        class_names,
        engine,
        lambda text: encode_texts(model, [text])[0],
        prompt_rng,
        ensemble_size=prompt_ensemble,
    )
    cls = zero_shot_multiclass(image_embs, class_embs, labels)

    texts = [eval_text(s, engine) for s in test_set]
    text_embs = encode_texts(model, texts)
    ks = tuple(k for k in (1, 5, 10) if k <= len(test_set))
    retrieval = recall_at_k(image_embs, text_embs, ks=ks)

    out = {
        "acc": cls.accuracy,
        "rsum": retrieval.rsum,
        "n_test": float(len(test_set)),
    }
    for k in (1, 5, 10):
        out[f"r_at_{k}"] = retrieval.recalls.get(k, float("nan"))
    return out


def evaluate_binary(
    model: TrainedModel,
    test_set: list[Study],
    class_name: str,
    engine: PromptEngine | None = None,
    prompt_style: str = "simple",
) -> dict[str, float]:
    """One-vs-rest zero-shot AUC using the fixed evaluation prompt pair."""
    engine = engine or PromptEngine.default()
    image_embs = eval_image_embeddings(model, test_set)
    pos_text, neg_text = engine.eval_prompt_pair(class_name, prompt_style)
    pos_emb, neg_emb = encode_texts(model, [pos_text, neg_text])
    labels = np.array(
        [1 if (s.labels or {}).get(class_name) == "positive" else 0 for s in test_set],
        dtype=np.int64,
    )
    result = zero_shot_binary(image_embs, pos_emb, neg_emb, labels)
    return {"auc": result.auc, "n_test": float(len(test_set))}
