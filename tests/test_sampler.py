import collections
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from studyclip.augment import (
    BadImage,
    CLAHE_BINS,
    CLAHE_CLIP_FRACTION,
    ImageAugConfig,
    TextAugConfig,
    augment_image,
    augment_text,
    clahe,
    resize_bilinear,
    split_sentences,
)
from studyclip.prompts import PromptEngine
from studyclip.sampling import (
    SamplerConfig,
    SamplingError,
    make_batch,
    sample_images,
    sample_pair,
    sample_texts,
)
from studyclip.studies import (
    DataFormatError,
    Study,
    StudyImage,
    load_studies,
    read_pgm,
    save_studies,
    write_pgm,
)


@pytest.fixture(scope="module")
def engine():
    return PromptEngine.default()


def flat_image(value=0.5, size=16):
    return np.full((size, size), value)


def grid_image(size=16, seed=0):
    return np.random.default_rng(seed).uniform(0.0, 1.0, size=(size, size))


def make_study(study_id="s0", views=("PA",), findings=None, impression=None, labels=None, size=16):
    images = [StudyImage(grid_image(size, seed=i), view) for i, view in enumerate(views)]
    return Study(id=study_id, images=images, findings=findings, impression=impression, labels=labels)


# ------------------------------------------------------------------ image pick


def test_distinct_views_preferred(engine):
    study = make_study(views=("PA", "LATERAL", "LATERAL"), findings="F.")
    cfg = ImageAugConfig(output_size=8)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x1, x2, augmented = sample_images(study, cfg, rng)
        assert not augmented
        # PA pattern (seed 0) must pair with one of the lateral patterns
        pa = resize_bilinear(study.images[0].pixels, 8, 8)
        assert np.allclose(x1, pa) or np.allclose(x2, pa)
        assert not np.allclose(x1, x2)


def test_single_image_fallback_is_augmented(engine):
    study = make_study(views=("AP",), findings="F.")
    x1, x2, augmented = sample_images(study, ImageAugConfig(output_size=8), np.random.default_rng(0))
    assert augmented
    assert x1.shape == x2.shape == (8, 8)


def test_same_view_pair_uses_distinct_images(engine):
    study = make_study(views=("AP", "AP"), findings="F.")
    x1, x2, augmented = sample_images(study, ImageAugConfig(output_size=8), np.random.default_rng(1))
    assert not augmented
    assert not np.allclose(x1, x2)


# ------------------------------------------------------------------ text pick


def test_both_sections_fixed_order(engine):
    study = make_study(findings="F one.", impression="I two.")
    t1, t2, source = sample_texts(study, TextAugConfig(), np.random.default_rng(0), engine)
    assert (t1, t2, source) == ("F one.", "I two.", "sections")


def test_labels_give_two_prompt_renderings(engine):
    study = make_study(labels={"Cardiomegaly": "positive"})
    t1, t2, source = sample_texts(study, TextAugConfig(), np.random.default_rng(3), engine)
    assert source == "prompts"
    sentences = engine.prompt_set("Cardiomegaly", "positive").sentences
    assert t1 in sentences and t2 in sentences


def test_single_section_single_sentence_swap_is_identity(engine):
    study = make_study(findings="Only one sentence.")
    t1, t2, source = sample_texts(study, TextAugConfig(), np.random.default_rng(0), engine)
    assert source == "section_aug"
    assert t1 == t2 == "Only one sentence."


def test_negative_sample_count_forwarded(engine):
    labels = {"Pneumonia": "positive"}
    labels.update({c: "negative" for c in ("Edema", "Fracture", "Mass", "Hernia", "Nodule")})
    study = make_study(labels=labels)
    t1, _, _ = sample_texts(
        study, TextAugConfig(), np.random.default_rng(5), engine, negative_sample_count=3
    )
    assert sum(t1.count(p) for p in ".!?") == 4


# -------------------------------------------------------------- augment_image


def test_constant_image_fixpoint_up_to_brightness():
    cfg = ImageAugConfig(output_size=12, clahe_probability=1.0)
    for seed in range(30):
        out = augment_image(flat_image(0.5), cfg, np.random.default_rng(seed))
        assert out.shape == (12, 12)
        assert np.ptp(out) < 1e-12  # still spatially constant
        assert 0.45 - 1e-12 <= out[0, 0] <= 0.55 + 1e-12


def test_output_shape_contract():
    cfg = ImageAugConfig(output_size=9)
    for shape in [(5, 7), (16, 16), (3, 3)]:
        img = np.random.default_rng(1).uniform(size=shape)
        out = augment_image(img, cfg, np.random.default_rng(2))
        assert out.shape == (9, 9)


def test_augmented_range_stays_in_unit_interval():
    cfg = ImageAugConfig(output_size=16, clahe_probability=1.0)
    for seed in range(10):
        out = augment_image(grid_image(seed=seed), cfg, np.random.default_rng(seed))
        assert np.min(out) >= 0.0 and np.max(out) <= 1.0


def test_bad_image_rejected():
    with pytest.raises(BadImage):
        augment_image(np.empty((0, 4)), ImageAugConfig(), np.random.default_rng(0))
    with pytest.raises(BadImage):
        augment_image(np.ones((2, 2, 2)), ImageAugConfig(), np.random.default_rng(0))


def test_clahe_checker_matches_direct_histogram_oracle():
    # 8x8 two-level checkerboard: every 2x2-grid tile shares the global
    # histogram shape, so tiled-and-blended CLAHE must equal plain clipped
    # histogram equalization computed directly on the full grid.
    lo, hi = 0.3, 0.7
    img = np.fromfunction(lambda i, j: np.where((i + j) % 2 == 0, lo, hi), (8, 8))

    bins = np.minimum((img * CLAHE_BINS).astype(int), CLAHE_BINS - 1)
    hist = np.bincount(bins.ravel(), minlength=CLAHE_BINS).astype(float)
    limit = CLAHE_CLIP_FRACTION * img.size
    excess = np.sum(np.maximum(hist - limit, 0.0))
    hist = np.minimum(hist, limit) + excess / CLAHE_BINS
    cdf = np.cumsum(hist)
    mapping = (cdf - hist / 2.0) / img.size
    expected = mapping[bins]

    np.testing.assert_allclose(clahe(img), expected, atol=1e-12)


def test_clahe_constant_passthrough():
    np.testing.assert_array_equal(clahe(flat_image(0.37)), flat_image(0.37))


def test_resize_bilinear_constant_and_identity():
    img = grid_image(8, seed=3)
    np.testing.assert_array_equal(resize_bilinear(img, 8, 8), img)
    np.testing.assert_allclose(resize_bilinear(flat_image(0.25, 6), 11, 4), 0.25)


# --------------------------------------------------------------- augment_text


def test_sentence_swap_two_sentences():
    tcfg = TextAugConfig()
    outs = {augment_text("A. B.", tcfg, np.random.default_rng(s)) for s in range(10)}
    assert "B. A." in outs
    assert outs <= {"A. B.", "B. A."}


def test_single_sentence_unchanged():
    assert augment_text("A.", TextAugConfig(), np.random.default_rng(0)) == "A."


@given(
    st.lists(st.sampled_from(["Alpha one.", "Beta two.", "Gamma three.", "Delta four!"]),
             min_size=1, max_size=6),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_sentence_multiset_preserved(sentences, seed):
    text = " ".join(sentences)
    out = augment_text(text, TextAugConfig(), np.random.default_rng(seed))
    assert collections.Counter(split_sentences(out)) == collections.Counter(split_sentences(text))


def test_identity_mode():
    assert augment_text("A. B.", TextAugConfig(mode="identity"), np.random.default_rng(0)) == "A. B."


def test_backtranslation_hook_invoked_twice(tmp_path):
    hook = tmp_path / "hook.sh"
    hook.write_text('#!/bin/sh\nprintf \'%s [%s]\' "$(cat)" "$1"\n', encoding="utf-8")
    hook.chmod(hook.stat().st_mode | stat.S_IEXEC)
    tcfg = TextAugConfig(mode="external_backtranslation", backtranslation_command=str(hook))
    out = augment_text("Text here.", tcfg, np.random.default_rng(0))
    assert out == "Text here. [forward] [backward]"


def test_backtranslation_without_hook_falls_back_to_swap():
    tcfg = TextAugConfig(mode="external_backtranslation")
    outs = {augment_text("A. B.", tcfg, np.random.default_rng(s)) for s in range(10)}
    assert outs <= {"A. B.", "B. A."} and len(outs) == 2


# ------------------------------------------------------------------ make_batch


def studies_for_batch(n, size=12):
    studies = []
    for k in range(n):
        if k % 3 == 0:
            studies.append(make_study(f"s{k:04d}", ("PA", "LATERAL"), findings="F.", impression="I.", size=size))
        elif k % 3 == 1:
            studies.append(make_study(f"s{k:04d}", ("AP",), findings="One. Two.", size=size))
        else:
            studies.append(make_study(f"s{k:04d}", ("PA",), labels={"Pneumonia": "positive"}, size=size))
    return studies


def test_batch_of_128_studies_yields_256_pairs(engine):
    cfg = SamplerConfig(image_aug=ImageAugConfig(output_size=8))
    batch = make_batch(studies_for_batch(128), cfg, engine, seed=0)
    assert batch.n == 128
    assert batch.x1.shape == batch.x2.shape == (128, 8, 8)
    assert len(batch.t1) == len(batch.t2) == 128
    # n studies carry 2n image-text pairs in the multi-view sense
    assert 2 * batch.n == 256


def test_batch_of_one(engine):
    cfg = SamplerConfig(image_aug=ImageAugConfig(output_size=8))
    batch = make_batch(studies_for_batch(1), cfg, engine, seed=0)
    assert batch.n == 1


def test_batch_deterministic_under_seed(engine):
    cfg = SamplerConfig(image_aug=ImageAugConfig(output_size=8))
    studies = studies_for_batch(9)
    a = make_batch(studies, cfg, engine, seed=42)
    b = make_batch(studies, cfg, engine, seed=42)
    np.testing.assert_array_equal(a.x1, b.x1)
    np.testing.assert_array_equal(a.x2, b.x2)
    assert a.t1 == b.t1 and a.t2 == b.t2


def test_batch_independent_of_study_order(engine):
    # per-study sub-seeds come from (seed, id), not list position
    cfg = SamplerConfig(image_aug=ImageAugConfig(output_size=8))
    studies = studies_for_batch(6)
    fwd = make_batch(studies, cfg, engine, seed=7)
    rev = make_batch(studies[::-1], cfg, engine, seed=7)
    np.testing.assert_array_equal(fwd.x1, rev.x1[::-1])
    assert fwd.t1 == rev.t1[::-1]


@pytest.mark.parametrize("mode", ["study_single", "single"])
def test_single_modes_share_one_image_array(engine, mode):
    cfg = SamplerConfig(image_aug=ImageAugConfig(output_size=8), mode=mode)
    batch = make_batch(studies_for_batch(6), cfg, engine, seed=0)
    assert batch.x2 is batch.x1 and batch.x1.shape == (6, 8, 8)
    assert batch.t2 == batch.t1


@pytest.mark.parametrize("mode", ["pairs", "study_single", "single"])
def test_batch_error_carries_study_id(engine, mode):
    bad = Study(id="weird", images=[StudyImage(grid_image(8), "PA")], labels={"Zebra": "positive"})
    with pytest.raises(SamplingError, match="weird"):
        make_batch([bad], SamplerConfig(mode=mode), engine, seed=0)


def test_augmentation_fallback_flag_consistency(engine):
    cfg = SamplerConfig(image_aug=ImageAugConfig(output_size=8))
    for study in studies_for_batch(12):
        pair = sample_pair(study, cfg, engine, np.random.default_rng(0))
        assert pair.image2_augmented == (len(study.images) == 1)
        if study.sections and len(study.sections) == 1:
            assert pair.text_source == "section_aug"
        elif study.sections:
            assert pair.text_source == "sections"
        else:
            assert pair.text_source == "prompts"


# -------------------------------------------------------------- study records


def test_jsonl_pgm_round_trip(tmp_path, engine):
    studies = studies_for_batch(5)
    path = tmp_path / "train.jsonl"
    save_studies(path, studies)
    loaded = load_studies(path)
    assert [s.id for s in loaded] == [s.id for s in studies]
    for a, b in zip(loaded, studies):
        assert len(a.images) == len(b.images)
        for ia, ib in zip(a.images, b.images):
            assert ia.view == ib.view
            # graymap quantizes to 8 bits
            np.testing.assert_allclose(ia.pixels, ib.pixels, atol=1.0 / 255.0)
        assert a.findings == b.findings
        assert a.impression == b.impression
        assert a.labels == b.labels


def test_pgm_round_trip_exact_bytes(tmp_path):
    img = np.linspace(0.0, 1.0, 64).reshape(8, 8)
    p = tmp_path / "x.pgm"
    write_pgm(p, img)
    back = read_pgm(p)
    np.testing.assert_allclose(back, img, atol=1.0 / 255.0)
    write_pgm(tmp_path / "y.pgm", img)
    assert (tmp_path / "x.pgm").read_bytes() == (tmp_path / "y.pgm").read_bytes()


def test_ascii_pgm_supported(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_text("P2\n# comment\n2 2\n255\n0 128\n255 64\n", encoding="ascii")
    np.testing.assert_allclose(read_pgm(p), [[0, 128 / 255], [1.0, 64 / 255]])


def test_inline_pixel_records(tmp_path):
    path = tmp_path / "inline.jsonl"
    path.write_text(
        '{"id": "a", "images": [{"pixels": [[0.0, 1.0], [0.5, 0.25]], "view": "PA"}], "findings": "F."}\n',
        encoding="utf-8",
    )
    (study,) = load_studies(path)
    np.testing.assert_allclose(study.images[0].pixels, [[0.0, 1.0], [0.5, 0.25]])


def test_non_finite_pixels_rejected(tmp_path):
    # json.loads accepts NaN, so a record can carry it straight into the pixel grid
    path = tmp_path / "nan.jsonl"
    path.write_text(
        '{"id": "s1", "images": [{"view": "PA", "pixels": [[NaN, 0.5], [0.5, 0.5]]}], "findings": "Lungs are clear."}\n',
        encoding="utf-8",
    )
    with pytest.raises(DataFormatError, match="finite"):
        load_studies(path)


def test_study_invariants_enforced():
    with pytest.raises(DataFormatError):
        Study(id="x", images=[], findings="F.")
    with pytest.raises(DataFormatError):
        Study(id="x", images=[StudyImage(grid_image(4), "PA")])
    with pytest.raises(DataFormatError):
        Study(id="x", images=[StudyImage(grid_image(4), "PA")], labels={"Edema": "positve"})


def test_missing_dataset_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_studies(tmp_path / "nope.jsonl")
