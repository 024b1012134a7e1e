"""Apply a trained model to a study set and compute the evaluation metrics.

Evaluation is deterministic: the first image of each study (resized, never
augmented) stands for the study; the evaluation text is the findings section,
falling back to the impression, falling back to one prompt rendering of the
label record, seeded from (``EVAL_TEXT_SEED``, study id) so every process
renders the same.
Images are resized and encoded ``EVAL_CHUNK`` studies at a time. The encoder
bounds its own conv temporaries, patches included, by blocks of a few images,
so the chunk bounds only what a call holds for the whole chunk: the resized
stack and the encoder's cache (the conv moments and the head activations).
Memory stays bounded for any test-set size.

``evaluate_binary`` encodes the test images once for all its calls in one
evaluation. It keeps one shared entry, (fingerprint, embeddings), with
the array marked read-only, scores against it when the fingerprint matches,
and otherwise encodes and replaces it. The fingerprint is a SHA-256 over
everything the embeddings depend on: ``config.image_size``, each ``img.*``
parameter (name, dtype, shape, bytes, in sorted order) and each study's first
image (dtype, shape, bytes). It does not use ``id()``, since addresses are
reused once objects are freed, and the entry holds no reference to the model
or the studies. ``evaluate_model`` neither reads nor fills the entry, so a
caller that only runs it pays no hashing; it drops the entry, since it starts
a new evaluation. An evaluation, ``evaluate_model`` then ``evaluate_binary``
per class, so encodes twice, whether or not the same model and test set were
evaluated before. ``eval_image_embeddings`` itself shares nothing and returns
a fresh, writable array.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .augment import resize_bilinear
from .encoders import encode_image_batch, encode_text_batch, text_bag, tokenize
from .metrics import (
    DegenerateLabels,
    class_prompt_embeddings,
    recall_at_k,
    zero_shot_binary,
    zero_shot_multiclass,
)
from .prompts import PromptEngine
from .sampling import study_rng
from .studies import Study
from .training import TrainedModel


# Studies resized and encoded at a time: bounds the resized stack (8 KB per
# study at 32 px) and the encoder's cache (conv moments and head activations,
# about 2.7 KB per study at the default sizes), which grow with the batch,
# whatever the size of the test set.
EVAL_CHUNK = 128

EVAL_TEXT_SEED = 1234

# The test embeddings of the last evaluate_binary call: (fingerprint, read-only array).
_shared_embeddings: tuple[bytes, np.ndarray] | None = None


class LabelError(ValueError):
    """A test study without exactly one known positive class, named by its id."""

    def __init__(self, study_id: str):
        super().__init__(f"study {study_id!r} lacks exactly one known positive class")
        self.study_id = study_id


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


def _fingerprint(model: TrainedModel, studies: list[Study]) -> bytes:
    """SHA-256 of every input ``eval_image_embeddings`` reads."""
    digest = hashlib.sha256(f"image_size:{model.config.image_size};".encode())
    for name in sorted(k for k in model.params if k.startswith("img.")):
        arr = np.ascontiguousarray(model.params[name])
        digest.update(f"{name}:{arr.dtype.str}:{arr.shape};".encode())
        digest.update(arr)
    for study in studies:
        pixels = np.ascontiguousarray(study.images[0].pixels)
        digest.update(f"{pixels.dtype.str}:{pixels.shape};".encode())
        digest.update(pixels)
    return digest.digest()


def _shared_image_embeddings(model: TrainedModel, studies: list[Study]) -> np.ndarray:
    """The shared test embeddings when their fingerprint matches, else a new encoding that replaces them."""
    global _shared_embeddings
    fingerprint = _fingerprint(model, studies)
    if _shared_embeddings is None or _shared_embeddings[0] != fingerprint:
        image_embs = eval_image_embeddings(model, studies)
        image_embs.flags.writeable = False
        _shared_embeddings = (fingerprint, image_embs)
    return _shared_embeddings[1]


def eval_text(study: Study, engine: PromptEngine) -> str:
    if study.findings:
        return study.findings
    if study.impression:
        return study.impression
    return engine.build_study_text(study.labels, study_rng(EVAL_TEXT_SEED, study.id))


def encode_texts(model: TrainedModel, texts: list[str]) -> np.ndarray:
    ids = [tokenize(t, model.vocab) for t in texts]
    emb, _ = encode_text_batch(model.text_params(), text_bag(ids, len(model.vocab)))
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
            raise LabelError(study.id)
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
    global _shared_embeddings
    _shared_embeddings = None  # a new evaluation: evaluate_binary encodes afresh
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
    acc = zero_shot_multiclass(image_embs, class_embs, labels)

    texts = [eval_text(s, engine) for s in test_set]
    text_embs = encode_texts(model, texts)
    ks = tuple(k for k in (1, 5, 10) if k <= len(test_set))
    retrieval = recall_at_k(image_embs, text_embs, ks=ks)

    out = {
        "acc": acc,
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
    """One-vs-rest zero-shot AUC using the fixed evaluation prompt pair.

    Scores against the test embeddings an earlier call shared when their
    fingerprint matches, else encodes and shares them.
    """
    labels = np.array(
        [1 if (s.labels or {}).get(class_name) == "positive" else 0 for s in test_set],
        dtype=np.int64,
    )
    if labels.all() or not labels.any():
        kind = "negative" if labels.all() else "positive"
        raise DegenerateLabels(f"class {class_name!r} has no {kind} study among {len(test_set)} test studies")
    engine = engine or PromptEngine.default()
    image_embs = _shared_image_embeddings(model, test_set)
    pos_text, neg_text = engine.eval_prompt_pair(class_name, prompt_style)
    pos_emb, neg_emb = encode_texts(model, [pos_text, neg_text])
    return {"auc": zero_shot_binary(image_embs, pos_emb, neg_emb, labels), "n_test": float(len(test_set))}
