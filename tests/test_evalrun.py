import dataclasses
import gc
import weakref

import numpy as np
import pytest

from blas_kernel import kernel_note
from studyclip import evalrun
from studyclip.encoders import EmptySequence, encode_text_batch, text_bag, tokenize
from studyclip.evalrun import (
    LabelError,
    encode_texts,
    eval_text,
    evaluate_binary,
    evaluate_model,
    positive_classes,
)
from studyclip.metrics import DegenerateLabels
from studyclip.prompts import PromptEngine
from studyclip.studies import Study, StudyImage
from studyclip.synth import SynthSpec, generate_split
from studyclip.training import TrainConfig, train


@pytest.fixture(scope="module")
def engine():
    return PromptEngine.default()


@pytest.fixture(scope="module")
def model_and_test(engine):
    spec = SynthSpec(train_studies=16, valid_studies=8, test_studies=30)
    train_set, valid_set, test_set = (
        generate_split(spec, split, count, 0, engine)
        for split, count in (("train", 16), ("valid", 8), ("test", 30))
    )
    cfg = TrainConfig(learning_rate=5e-3, epochs=1, batch_studies=8, early_stop_patience=1)
    model, _ = train(train_set, valid_set, cfg, engine)
    return model, test_set


@pytest.fixture(autouse=True)
def encodings(monkeypatch):
    """Starts every test with no shared entry; lists each ``eval_image_embeddings`` call."""
    monkeypatch.setattr(evalrun, "_shared_embeddings", None)
    calls = []
    original = evalrun.eval_image_embeddings

    def counting(model, studies):
        calls.append(len(studies))
        return original(model, studies)

    monkeypatch.setattr(evalrun, "eval_image_embeddings", counting)
    return calls


def fresh_auc(model, test_set, cls, engine):
    evalrun._shared_embeddings = None
    return evaluate_binary(model, test_set, cls, engine)["auc"]


def test_binary_after_model_matches_fresh_call_bit_for_bit(model_and_test, engine, encodings):
    model, test_set = model_and_test
    classes = positive_classes(test_set)
    assert len(classes) == 5
    evaluate_model(model, test_set, engine)
    shared = [evaluate_binary(model, test_set, c, engine)["auc"] for c in classes]
    assert encodings == [len(test_set)]
    fresh = [fresh_auc(model, test_set, c, engine) for c in classes]
    assert shared == fresh  # exact float equality
    assert all(0.0 <= auc <= 1.0 for auc in shared)


def test_one_encoding_per_evaluation(model_and_test, engine, encodings):
    model, test_set = model_and_test
    for repeat in range(1, 3):
        evaluate_model(model, test_set, engine)  # encodes afresh, even for the same model and test set
        for cls in positive_classes(test_set):
            evaluate_binary(model, test_set, cls, engine)
        assert encodings == [len(test_set)] * repeat


def test_model_fills_the_entry(model_and_test, engine, encodings):
    model, test_set = model_and_test
    evaluate_binary(model, test_set, "Edema", engine)
    before = evalrun._shared_embeddings[-1]
    evaluate_model(model, test_set, engine)
    *_, refs, shared = evalrun._shared_embeddings
    assert shared is not before and not shared.flags.writeable
    assert len(refs) == len(test_set) and all(ref() is s.images[0].pixels for ref, s in zip(refs, test_set))
    assert encodings == [len(test_set)] * 2
    evaluate_binary(model, test_set, "Cardiomegaly", engine)
    assert evalrun._shared_embeddings[-1] is shared and len(encodings) == 2


def test_standalone_binary_encodes_once_and_shares(model_and_test, engine, encodings):
    model, test_set = model_and_test
    first = evaluate_binary(model, test_set, "Edema", engine)
    assert first["n_test"] == len(test_set) and 0.0 <= first["auc"] <= 1.0
    evaluate_binary(model, test_set, "Cardiomegaly", engine)
    assert encodings == [len(test_set)]


def with_changed_pixel(test_set):
    study = test_set[3]
    pixels = study.images[0].pixels.copy()
    pixels[0, 0] += 1e-9
    image = dataclasses.replace(study.images[0], pixels=pixels)
    changed = dataclasses.replace(study, images=[image, *study.images[1:]])
    return [*test_set[:3], changed, *test_set[4:]]


@pytest.mark.parametrize("change", ["test_list", "conv_w_in_place", "one_pixel", "image_size"])
def test_changed_inputs_miss_and_re_encode(model_and_test, engine, encodings, change):
    model, test_set = model_and_test
    evaluate_binary(model, test_set, "Edema", engine)
    other_model, other_set = model, test_set
    if change == "test_list":
        other_set = test_set[::-1]
    elif change == "conv_w_in_place":
        other_model = dataclasses.replace(model, params={k: v.copy() for k, v in model.params.items()})
        evaluate_binary(other_model, test_set, "Edema", engine)
        other_model.params["img.conv_w"][0] += 1e-6  # same dict, same array object, new bytes
    elif change == "one_pixel":
        other_set = with_changed_pixel(test_set)
    else:
        other_model = dataclasses.replace(model, config=dataclasses.replace(model.config, image_size=24))
    before = len(encodings)
    auc = evaluate_binary(other_model, other_set, "Edema", engine)["auc"]
    assert len(encodings) == before + 1
    assert auc == fresh_auc(other_model, other_set, "Edema", engine)


def test_shared_array_is_read_only_and_direct_calls_are_writable(model_and_test, engine):
    model, test_set = model_and_test
    evaluate_binary(model, test_set, "Edema", engine)
    *_, shared = evalrun._shared_embeddings
    assert shared.shape[0] == len(test_set)
    with pytest.raises(ValueError, match="read-only"):
        shared[0, 0] = 0.0
    direct = evalrun.eval_image_embeddings(model, test_set)
    assert direct is not shared and direct.flags.writeable
    np.testing.assert_array_equal(direct, shared)


def rebuilt(test_set):
    """Equal studies whose first images are new objects with equal pixels."""
    return [
        dataclasses.replace(s, images=[StudyImage(s.images[0].pixels, s.images[0].view), *s.images[1:]])
        for s in test_set
    ]


@pytest.mark.parametrize("other", ["equal_copies", "other_studies"])
def test_binary_on_another_test_set_misses(model_and_test, engine, encodings, other):
    model, test_set = model_and_test
    evaluate_model(model, test_set, engine)
    if other == "equal_copies":
        other_set = rebuilt(test_set)
    else:
        other_set = generate_split(SynthSpec(test_studies=30), "test", 30, 1, engine)
    auc = evaluate_binary(model, other_set, "Edema", engine)["auc"]
    assert encodings == [len(test_set), len(other_set)]
    assert auc == fresh_auc(model, other_set, "Edema", engine)


def test_the_entry_keeps_no_study_pixels_or_model_alive(model_and_test, engine):
    model, test_set = model_and_test
    other_model = dataclasses.replace(model, params={k: v.copy() for k, v in model.params.items()})
    other_set = rebuilt(test_set)
    model_ref, study_refs = weakref.ref(other_model), [weakref.ref(s) for s in other_set]
    evaluate_model(other_model, other_set, engine)
    *_, pixel_refs, _ = evalrun._shared_embeddings
    assert all(ref() is not None for ref in pixel_refs)
    del other_model, other_set
    gc.collect()
    assert model_ref() is None
    assert all(ref() is None for ref in study_refs)
    assert all(ref() is None for ref in pixel_refs)


def test_a_callers_writable_pixels_mutated_later_still_give_a_fresh_auc(model_and_test, engine):
    model, test_set = model_and_test
    arrays = [s.images[0].pixels.copy() for s in test_set]
    own = [dataclasses.replace(s, images=[StudyImage(a, s.images[0].view)]) for s, a in zip(test_set, arrays)]
    evaluate_model(model, own, engine)
    for a in arrays:
        a[:] = 1.0 - a
    shared = evaluate_binary(model, own, "Edema", engine)["auc"]
    assert shared == fresh_auc(model, own, "Edema", engine)
    assert shared == fresh_auc(model, test_set, "Edema", engine)


def test_a_non_finite_parameter_raises_instead_of_scoring(model_and_test, engine):
    # NaN embeddings were never outranked: evaluate_model read RSUM 300 and evaluate_binary AUC 0.5
    model, test_set = model_and_test
    conv_w = model.params["img.conv_w"].copy()
    conv_w[0, 0, 0] = np.nan
    poisoned = dataclasses.replace(model, params={**model.params, "img.conv_w": conv_w})
    with pytest.raises(FloatingPointError, match="not finite"):
        evaluate_model(poisoned, test_set, engine)
    with pytest.raises(FloatingPointError, match="not finite"):
        evaluate_binary(poisoned, test_set, "Edema", engine)


# multiclass_labels is gone: _classes_and_labels, which evaluate_model calls, does its job, so its checks
# moved there and the expected labels are written out.
def test_classes_and_labels_names_the_study():
    studies = [
        Study(id="one", images=[StudyImage([[0.5]])], labels={"Edema": "positive"}),
        Study(id="two-positives", images=[StudyImage([[0.5]])], labels={"Edema": "positive", "Atelectasis": "positive"}),
    ]
    with pytest.raises(LabelError, match="two-positives") as err:
        evalrun._classes_and_labels(studies)
    assert isinstance(err.value, ValueError)
    assert err.value.study_id == "two-positives"


def test_evaluate_model_walks_the_labels_once_and_names_the_first_bad_study(model_and_test, engine):
    model, test_set = model_and_test
    names, labels = evalrun._classes_and_labels(test_set)
    assert names == positive_classes(test_set)
    want = [names.index(next(c for c, v in s.labels.items() if v == "positive")) for s in test_set]
    assert (labels.dtype, labels.tolist()) == (np.int64, want)
    two = {"Edema": "positive", "Atelectasis": "positive"}
    bad = [dataclasses.replace(test_set[i], id=f"bad-{i}", labels=lbl) for i, lbl in ((4, None), (7, two))]
    with pytest.raises(LabelError, match="bad-4"):
        evaluate_model(model, test_set[:4] + bad + test_set[4:], engine)
    with pytest.raises(LabelError, match="bad-7"):
        evaluate_model(model, test_set[:4] + bad[1:] + test_set[4:], engine)


def test_binary_on_degenerate_class_names_the_class(model_and_test, engine, encodings):
    model, test_set = model_and_test
    with pytest.raises(DegenerateLabels, match=r"'Pneumothorax' has no positive"):
        evaluate_binary(model, test_set, "Pneumothorax", engine)
    edema_only = [s for s in test_set if s.labels.get("Edema") == "positive"]
    assert edema_only
    with pytest.raises(DegenerateLabels, match=r"'Edema' has no negative"):
        evaluate_binary(model, edema_only, "Edema", engine)
    assert encodings == []  # the labels are checked before any encoding


def test_multiclass_on_one_class_names_the_class(model_and_test, engine, encodings):
    model, test_set = model_and_test
    edema_only = [s for s in test_set if s.labels.get("Edema") == "positive"]
    assert len(edema_only) >= 2
    with pytest.raises(DegenerateLabels, match=rf"'Edema' is the only positive class of {len(edema_only)} test studies"):
        evaluate_model(model, edema_only, engine)
    assert encodings == []  # the labels are checked before any encoding


def encode_every_text(model, texts):
    """One row per text, every text tokenized and encoded in one batch, repeats included."""
    return encode_text_batch(model.params, text_bag([tokenize(t, model.vocab) for t in texts], len(model.vocab)))[0]


def gathered(model, texts):
    """``encode_texts`` as one row per text: each text's distinct row."""
    emb, rows = encode_texts(model, texts)
    return emb[rows]


def test_encoding_each_distinct_text_once_keeps_every_row_bit_for_bit(model_and_test, engine, monkeypatch):
    model, test_set = model_and_test
    texts = [eval_text(s, engine) for s in test_set]
    texts += texts[:7]  # whatever the test set holds, some texts repeat
    tokenized = []

    def counting(text, vocab):
        tokenized.append(text)
        return tokenize(text, vocab)

    monkeypatch.setattr(evalrun, "tokenize", counting)
    for batch in (texts, texts[:1]):
        tokenized.clear()
        emb, rows = encode_texts(model, batch)
        assert tokenized == list(dict.fromkeys(batch))  # once per distinct text, in first-seen order
        assert len(emb) == len(tokenized) and [tokenized[r] for r in rows] == batch
        assert emb[rows].tobytes() == encode_every_text(model, batch).tobytes(), kernel_note()


def test_one_text_repeated_encodes_as_that_text_alone(model_and_test, engine):
    # one distinct text is a one-row batch, which numpy multiplies as a matrix-vector product
    model, test_set = model_and_test
    text = eval_text(test_set[0], engine)
    emb, rows = encode_texts(model, [text] * 3)
    assert emb.tobytes() == encode_texts(model, [text])[0].tobytes() and rows.tolist() == [0, 0, 0]
    assert gathered(model, [text] * 3).tobytes() == encode_every_text(model, [text]).tobytes() * 3


def test_class_rows_are_one_positive_prompt_per_class_encoded_in_one_batch(model_and_test, engine, monkeypatch):
    # ACC scores the batched bits retrieval reads, not those of each prompt encoded alone
    model, test_set = model_and_test
    scored = []
    original = evalrun.zero_shot_multiclass

    def capturing(image_embs, class_embs, labels):
        scored.append(class_embs)
        return original(image_embs, class_embs, labels)

    monkeypatch.setattr(evalrun, "zero_shot_multiclass", capturing)
    evaluate_model(model, test_set, engine)
    rng = np.random.default_rng(evalrun.CLASS_PROMPT_SEED)
    prompts = [engine.render_prompt(name, "positive", rng) for name in positive_classes(test_set)]
    assert len(scored) == 1 and len(prompts) == 5
    assert scored[0].tobytes() == gathered(model, prompts).tobytes()


def test_retrieval_ranks_the_distinct_rows_with_each_texts_row_index(model_and_test, engine, monkeypatch):
    # each distinct text is encoded and ranked once, and each text names its row: a copy of an image's text is
    # that image's own row, not a candidate against it.
    model, test_set = model_and_test
    test_set = test_set + test_set[:12]  # texts that repeat, whatever the test set holds
    scored = []
    original = evalrun.recall_at_k

    def capturing(image_embs, text_embs, ks, text_rows):
        scored.append((image_embs, text_embs, text_rows))
        return original(image_embs, text_embs, ks, text_rows)

    monkeypatch.setattr(evalrun, "recall_at_k", capturing)
    out = evaluate_model(model, test_set, engine)
    (image_embs, text_embs, text_rows), = scored
    texts = [eval_text(s, engine) for s in test_set]
    assert len(text_embs) == len(set(texts)) < len(texts)
    assert text_embs[text_rows].tobytes() == encode_every_text(model, texts).tobytes()
    assert out["rsum"] == original(image_embs, text_embs, text_rows=text_rows).rsum


def test_retrieval_ks_are_bounded_by_the_distinct_texts(model_and_test, engine):
    # 12 studies of two classes naming 3 distinct texts: a rank lies in [0, 3), so R@5 and R@10 are not reported
    model, test_set = model_and_test
    first = test_set[0]
    other = [s for s in test_set if s.labels != first.labels and eval_text(s, engine) != eval_text(first, engine)]
    studies = [first, *other[:2]] * 4
    assert len(set(eval_text(s, engine) for s in studies)) == 3
    out = evaluate_model(model, studies, engine)
    assert 0.0 <= out["r_at_1"] <= 1.0 and np.isnan(out["r_at_5"]) and np.isnan(out["r_at_10"])
    assert out["rsum"] == 100.0 * out["r_at_1"]


def test_an_empty_text_batch_raises_empty_sequence(model_and_test):
    model, _ = model_and_test
    with pytest.raises(EmptySequence, match="empty batch"):
        text_bag([], len(model.vocab))
    with pytest.raises(EmptySequence, match="empty batch"):
        encode_texts(model, [])


def test_an_empty_test_set_raises_empty_sequence_before_any_encoding(model_and_test, engine, encodings, monkeypatch):
    model, _ = model_and_test
    monkeypatch.setattr(evalrun, "encode_texts", lambda *args: pytest.fail("encoded a text"))
    with pytest.raises(EmptySequence, match="empty test set"):
        evaluate_model(model, [], engine)
    assert encodings == []


def test_embedding_no_studies_raises_empty_sequence(model_and_test):
    model, _ = model_and_test
    with pytest.raises(EmptySequence, match="cannot embed an empty list of studies"):
        evalrun.eval_image_embeddings(model, [])


def test_an_empty_binary_test_set_raises_empty_sequence_before_any_encoding(
    model_and_test, engine, encodings, monkeypatch
):
    model, _ = model_and_test
    monkeypatch.setattr(evalrun, "encode_texts", lambda *args: pytest.fail("encoded a text"))
    with pytest.raises(EmptySequence, match="empty test set"):
        evaluate_binary(model, [], "Edema", engine)
    assert encodings == []
