"""Apply a trained model to a study set and compute the evaluation metrics.

Evaluation is deterministic: the first image of each study (resized, never
augmented) stands for the study; the evaluation text is the findings section,
falling back to the impression, falling back to one prompt rendering of the
label record, seeded from (``EVAL_TEXT_SEED``, study id) so every process
renders the same. Each distinct text is tokenized, encoded and ranked once,
however many studies share it: a test set repeats its findings and
impressions. ``encode_texts`` returns the distinct rows and each text's row
index, and retrieval ranks each image's row among the distinct rows by the
rule in the ``metrics`` module docstring. Images are resized and encoded
``EVAL_CHUNK`` studies at a time, each chunk stacked into one buffer that
every chunk of the call reuses. Every encode here is forward-only
(``with_grads=False``): no backward follows, so the image encoder computes
neither the rectifier's mask nor the conv moments. The encoder bounds its own
conv temporaries, patches included, by blocks of a few images, so the chunk
bounds only what a call holds for the whole chunk: the resized stack and the
head activations of the encoder's cache. Memory stays bounded for any test-set
size.

An evaluation, ``evaluate_model`` then ``evaluate_binary`` per class, encodes
the test images once. ``evaluate_model`` always encodes afresh, even for a model
and test set it has seen, and publishes the array, marked read-only, as the one
shared entry; it never reuses the entry of an earlier call. ``evaluate_binary``
scores against the entry when it encodes the same inputs, and otherwise encodes
and replaces it. The entry's key is exact and needs no hashing:
``config.image_size``, the layout (name, dtype, shape) and a copy of the values
of the ``img.*`` parameters, and one weak reference per study to its first
image's pixel array. A ``StudyImage``'s pixels are immutable, so the same live
array object always holds the same values: the key matches when the sizes and
layouts agree, the parameter values are equal, and every reference is alive and
is that study's ``images[0].pixels``. A dead reference never matches, so a
reused address cannot alias. The entry holds no strong reference to the model,
the studies or their pixels. ``eval_image_embeddings`` itself shares nothing and
returns a fresh, writable array.
"""

from __future__ import annotations

import weakref

import numpy as np

from .augment import resize_bilinear
from .encoders import EmptySequence, encode_image_batch, encode_text_batch, text_bag, tokenize
from .metrics import (
    DegenerateLabels,
    recall_at_k,
    zero_shot_binary,
    zero_shot_multiclass,
)
from .prompts import PromptEngine
from .sampling import study_rng
from .studies import Study
from .training import TrainedModel


# Studies resized and encoded at a time: bounds the resized stack (8 KB per
# study at 32 px) and the encoder's head activations, which grow with the
# batch, whatever the size of the test set.
EVAL_CHUNK = 128

EVAL_TEXT_SEED = 1234
CLASS_PROMPT_SEED = 99  # seeds the one prompt rendered per class for multiclass zero-shot

# The test embeddings of the last evaluation and their key: (image size and img.* layout,
# img.* values, a weak reference per study's first-image pixels, read-only array).
_shared_embeddings: tuple[tuple, np.ndarray, list[weakref.ref], np.ndarray] | None = None


class LabelError(ValueError):
    """A test study without exactly one known positive class, named by its id."""

    def __init__(self, study_id: str):
        super().__init__(f"study {study_id!r} lacks exactly one known positive class")
        self.study_id = study_id


def eval_image_embeddings(model: TrainedModel, studies: list[Study]) -> np.ndarray:
    if not studies:
        raise EmptySequence("cannot embed an empty list of studies")
    size = model.config.image_size
    imgs = np.empty((min(EVAL_CHUNK, len(studies)), size, size))  # every chunk is stacked here
    chunks = []
    for start in range(0, len(studies), EVAL_CHUNK):
        chunk = studies[start : start + EVAL_CHUNK]
        np.stack([resize_bilinear(s.images[0].pixels, size, size) for s in chunk], out=imgs[: len(chunk)])
        chunks.append(encode_image_batch(model.params, imgs[: len(chunk)], with_grads=False)[0])
    return np.concatenate(chunks)


def _image_inputs(model: TrainedModel) -> tuple[tuple, np.ndarray]:
    """What ``eval_image_embeddings`` reads of the model: the image size and ``img.*`` layout, and their values."""
    params = {k: v for k, v in model.params.items() if k.startswith("img.")}
    names = sorted(params)
    layout = (model.config.image_size, tuple((k, params[k].dtype.str, params[k].shape) for k in names))
    return layout, np.concatenate([params[k].ravel() for k in names])


def _share(model: TrainedModel, studies: list[Study], image_embs: np.ndarray) -> np.ndarray:
    """Marks ``image_embs`` read-only and publishes it as the shared entry for these inputs."""
    global _shared_embeddings
    image_embs.flags.writeable = False
    _shared_embeddings = (*_image_inputs(model), [weakref.ref(s.images[0].pixels) for s in studies], image_embs)
    return image_embs


def _shared_image_embeddings(model: TrainedModel, studies: list[Study]) -> np.ndarray:
    """The shared test embeddings when they encode these inputs, else a new encoding that replaces them."""
    if _shared_embeddings is not None:
        layout, values, refs, image_embs = _shared_embeddings
        new_layout, new_values = _image_inputs(model)
        if (
            layout == new_layout
            and len(refs) == len(studies)
            and all(ref() is s.images[0].pixels for ref, s in zip(refs, studies))
            and np.array_equal(values, new_values)
        ):
            return image_embs
    return _share(model, studies, eval_image_embeddings(model, studies))


def eval_text(study: Study, engine: PromptEngine) -> str:
    if study.findings:
        return study.findings
    if study.impression:
        return study.impression
    return engine.build_study_text(study.labels, study_rng(EVAL_TEXT_SEED, study.id))


def encode_texts(model: TrainedModel, texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct texts' embeddings, in first-seen order, and each text's row in them.

    Each distinct text is tokenized and encoded once.
    """
    row = {text: i for i, text in enumerate(dict.fromkeys(texts))}
    ids = [tokenize(text, model.vocab) for text in row]
    emb, _ = encode_text_batch(model.params, text_bag(ids, len(model.vocab)))
    return emb, np.array([row[text] for text in texts], dtype=np.intp)


def positive_classes(studies: list[Study]) -> list[str]:
    names = set()
    for study in studies:
        if study.labels:
            names.update(c for c, v in study.labels.items() if v == "positive")
    return sorted(names)


def _classes_and_labels(studies: list[Study]) -> tuple[list[str], np.ndarray]:
    """``positive_classes`` and each study's index into them, from one walk over the labels.

    ``LabelError`` names the first study without exactly one positive class.
    """
    positives = []
    for study in studies:
        names = [c for c, v in (study.labels or {}).items() if v == "positive"]
        if len(names) != 1:
            raise LabelError(study.id)
        positives.append(names[0])
    class_names = sorted(set(positives))
    index = {name: i for i, name in enumerate(class_names)}
    return class_names, np.fromiter(map(index.__getitem__, positives), np.int64, count=len(positives))


def evaluate_model(model: TrainedModel, test_set: list[Study], engine: PromptEngine | None = None) -> dict[str, float]:
    """Zero-shot multiclass accuracy plus image-to-text retrieval metrics.

    Each class is represented by one positive prompt, rendered in class order
    from ``CLASS_PROMPT_SEED``; the prompts are encoded as one batch, like the
    retrieval texts. Encodes the test images and shares them with the
    ``evaluate_binary`` calls that follow.
    """
    if not test_set:
        raise EmptySequence("cannot evaluate an empty test set")
    engine = engine or PromptEngine.default()
    image_embs = _share(model, test_set, eval_image_embeddings(model, test_set))  # a new evaluation encodes afresh

    class_names, labels = _classes_and_labels(test_set)
    prompt_rng = np.random.default_rng(CLASS_PROMPT_SEED)
    class_embs, class_rows = encode_texts(
        model, [engine.render_prompt(name, "positive", prompt_rng) for name in class_names]
    )
    acc = zero_shot_multiclass(image_embs, class_embs[class_rows], labels)

    text_embs, text_rows = encode_texts(model, [eval_text(s, engine) for s in test_set])
    ks = tuple(k for k in (1, 5, 10) if k <= len(text_embs))
    retrieval = recall_at_k(image_embs, text_embs, ks=ks, text_rows=text_rows)

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
) -> dict[str, float]:
    """One-vs-rest zero-shot AUC using the fixed ``"simple"`` evaluation prompt pair.

    Scores against the shared test embeddings when they encode these inputs,
    else encodes and shares them.
    """
    if not test_set:
        raise EmptySequence("cannot evaluate an empty test set")
    labels = np.fromiter(
        ((s.labels or {}).get(class_name) == "positive" for s in test_set), np.int64, count=len(test_set)
    )
    if labels.all() or not labels.any():
        kind = "negative" if labels.all() else "positive"
        raise DegenerateLabels(f"class {class_name!r} has no {kind} study among {len(test_set)} test studies")
    engine = engine or PromptEngine.default()
    image_embs = _shared_image_embeddings(model, test_set)
    pos_text, neg_text = engine.eval_prompt_pair(class_name)
    emb, rows = encode_texts(model, [pos_text, neg_text])
    pos_emb, neg_emb = emb[rows]
    return {"auc": zero_shot_binary(image_embs, pos_emb, neg_emb, labels), "n_test": float(len(test_set))}
