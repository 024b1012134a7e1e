import collections
import contextlib
import copy
import dataclasses
import hashlib
import io
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from studyclip.augment import (
    BadImage,
    CLAHE_BINS,
    CLAHE_CLIP_FRACTION,
    augment_image,
    augment_text,
    clahe,
    resize_bilinear,
    split_sentences,
)
from studyclip import sampling
from studyclip.prompts import PromptEngine
from studyclip.sampling import (
    DRAW_BLOCK,
    SamplingError,
    make_batch,
    sample_images,
    sample_pair,
    sample_texts,
    study_rng,
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
from studyclip.synth import SynthSpec, generate_split
from studyclip.training import TrainConfig


@pytest.fixture(scope="module")
def engine():
    return PromptEngine.default()


def config(mode="pairs", **overrides) -> TrainConfig:
    """A sampler config at 8 px; the single modes train no ICL or TCL term."""
    lambdas = {} if mode == "pairs" else {"lambda_icl": 0.0, "lambda_tcl": 0.0}
    return TrainConfig(sampling_mode=mode, image_size=8, **lambdas, **overrides)


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
    cfg = config()
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
    x1, x2, augmented = sample_images(study, config(), np.random.default_rng(0))
    assert augmented
    assert x1.shape == x2.shape == (8, 8)


def test_same_view_pair_uses_distinct_images(engine):
    study = make_study(views=("AP", "AP"), findings="F.")
    x1, x2, augmented = sample_images(study, config(), np.random.default_rng(1))
    assert not augmented
    assert not np.allclose(x1, x2)


# ------------------------------------------------------------------ text pick


def test_both_sections_fixed_order(engine):
    study = make_study(findings="F one.", impression="I two.")
    t1, t2, source = sample_texts(study, TrainConfig(), np.random.default_rng(0), engine)
    assert (t1, t2, source) == ("F one.", "I two.", "sections")


def test_labels_give_two_prompt_renderings(engine):
    study = make_study(labels={"Cardiomegaly": "positive"})
    t1, t2, source = sample_texts(study, TrainConfig(), np.random.default_rng(3), engine)
    assert source == "prompts"
    sentences = engine.prompt_set("Cardiomegaly", "positive")
    assert t1 in sentences and t2 in sentences


def test_single_section_single_sentence_swap_is_identity(engine):
    study = make_study(findings="Only one sentence.")
    t1, t2, source = sample_texts(study, TrainConfig(), np.random.default_rng(0), engine)
    assert source == "section_aug"
    assert t1 == t2 == "Only one sentence."


def test_negative_sample_count_forwarded(engine):
    labels = {"Pneumonia": "positive"}
    labels.update({c: "negative" for c in ("Edema", "Fracture", "Mass", "Hernia", "Nodule")})
    study = make_study(labels=labels)
    t1, _, _ = sample_texts(study, TrainConfig(negative_sample_count=3), np.random.default_rng(5), engine)
    assert sum(t1.count(p) for p in ".!?") == 4


# -------------------------------------------------------------- augment_image


def test_constant_image_fixpoint_up_to_brightness():
    for seed in range(30):
        out = augment_image(flat_image(0.5), 12, 1.0, np.random.default_rng(seed))
        assert out.shape == (12, 12)
        assert np.ptp(out) < 1e-12  # still spatially constant
        assert 0.45 - 1e-12 <= out[0, 0] <= 0.55 + 1e-12


def test_output_shape_contract():
    for shape in [(5, 7), (16, 16), (3, 3)]:
        img = np.random.default_rng(1).uniform(size=shape)
        out = augment_image(img, 9, 0.5, np.random.default_rng(2))
        assert out.shape == (9, 9)


def test_augmented_range_stays_in_unit_interval():
    for seed in range(10):
        out = augment_image(grid_image(seed=seed), 16, 1.0, np.random.default_rng(seed))
        assert np.min(out) >= 0.0 and np.max(out) <= 1.0


def test_bad_image_rejected():
    with pytest.raises(BadImage):
        augment_image(np.empty((0, 4)), 32, 0.5, np.random.default_rng(0))
    with pytest.raises(BadImage):
        augment_image(np.ones((2, 2, 2)), 32, 0.5, np.random.default_rng(0))


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


def clahe_per_tile(img):
    """CLAHE with one histogram per tile of the 2x2 grid: the reference for the one-bincount path."""
    h, w = img.shape
    rows = [(0, h // 2), (h // 2, h)] if h >= 2 else [(0, h), (0, h)]
    cols = [(0, w // 2), (w // 2, w)] if w >= 2 else [(0, w), (0, w)]
    bins = np.clip((img * CLAHE_BINS).astype(int), 0, CLAHE_BINS - 1)  # out-of-range intensities: end bins
    hist = np.array([np.bincount(bins[r0:r1, c0:c1].ravel(), minlength=CLAHE_BINS) for r0, r1 in rows for c0, c1 in cols])
    hist = hist.astype(float)
    n = np.array([[float((r1 - r0) * (c1 - c0))] for r0, r1 in rows for c0, c1 in cols])
    equalized = np.count_nonzero(hist, axis=1) > 1
    if not equalized.any():
        return img.copy()
    limit = CLAHE_CLIP_FRACTION * n
    hist = np.minimum(hist, limit) + np.sum(np.maximum(hist - limit, 0.0), axis=1, keepdims=True) / CLAHE_BINS
    mappings = (np.cumsum(hist, axis=1) - hist / 2.0) / n
    m = [mappings[t][bins] if equalized[t] else img for t in range(4)]
    (a0, a1), (b0, b1) = [(r0 + r1 - 1) / 2.0 for r0, r1 in rows], [(c0 + c1 - 1) / 2.0 for c0, c1 in cols]
    wr = np.clip((np.arange(h) - a0) / max(a1 - a0, 1e-12), 0.0, 1.0)[:, None]
    wc = np.clip((np.arange(w) - b0) / max(b1 - b0, 1e-12), 0.0, 1.0)[None, :]
    vr, vc = 1 - wr, 1 - wc
    return vr * vc * m[0] + vr * wc * m[1] + wr * vc * m[2] + wr * wc * m[3]


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (2, 2), (3, 5), (26, 29), (33, 32)])
def test_clahe_matches_the_per_tile_reference_bit_for_bit(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    half_flat = rng.uniform(size=shape)
    half_flat[: shape[0] // 2] = 0.25  # the top tiles, where there are two rows of tiles, pass through
    levels = np.round(rng.uniform(size=shape) * 3) / 3
    images = [rng.uniform(size=shape), levels, half_flat, np.ones(shape), levels * 1.5 - 0.25]
    for img in images:
        assert clahe(img).tobytes() == clahe_per_tile(img).tobytes()


def test_clahe_constant_passthrough():
    np.testing.assert_array_equal(clahe(flat_image(0.37)), flat_image(0.37))


def test_resize_bilinear_constant_and_identity():
    img = grid_image(8, seed=3)
    np.testing.assert_array_equal(resize_bilinear(img, 8, 8), img)
    np.testing.assert_allclose(resize_bilinear(flat_image(0.25, 6), 11, 4), 0.25)


# --------------------------------------------------------------- augment_text


def test_sentence_swap_two_sentences():
    outs = {augment_text("A. B.", np.random.default_rng(s)) for s in range(10)}
    assert outs == {"A. B.", "B. A."}


def test_backtranslation_without_hook_falls_back_to_swap():
    # With no back-translation hook, text augmentation is the sentence swap:
    # each output is the sentence order of one permutation draw.
    for s in range(10):
        order = np.random.default_rng(s).permutation(2)
        expected = " ".join(["A.", "B."][int(i)] for i in order)
        assert augment_text("A. B.", np.random.default_rng(s)) == expected
    outs = {augment_text("A. B.", np.random.default_rng(s)) for s in range(10)}
    assert outs <= {"A. B.", "B. A."} and len(outs) == 2


def test_single_sentence_unchanged():
    assert augment_text("A.", np.random.default_rng(0)) == "A."


@given(
    st.lists(st.sampled_from(["Alpha one.", "Beta two.", "Gamma three.", "Delta four!"]),
             min_size=1, max_size=6),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_sentence_multiset_preserved(sentences, seed):
    text = " ".join(sentences)
    out = augment_text(text, np.random.default_rng(seed))
    assert collections.Counter(split_sentences(out)) == collections.Counter(split_sentences(text))


# ---------------------------------------------------------------- study draws


def test_study_draws_integers_stay_in_range_and_one_option_consumes_nothing():
    draws = study_rng(0, "s0")
    for n in range(1, 300):
        assert all(0 <= draws.integers(n) < n for _ in range(5))
    counts = collections.Counter(draws.integers(4) for _ in range(4000))
    assert sorted(counts) == [0, 1, 2, 3] and all(850 < c < 1150 for c in counts.values())
    top = study_rng(0, "s0")
    top.random = lambda: 1.0 - 2.0**-53  # the largest draw there is
    assert all(top.integers(n) == n - 1 for n in range(1, 5000))
    skipped, reference = study_rng(1, "s1"), study_rng(1, "s1")
    assert skipped.integers(1) == 0
    assert skipped.random() == reference.random()
    with pytest.raises(ValueError):
        draws.integers(0)


def test_study_draws_uniform_permutation_and_choice():
    draws = study_rng(2, "s2")
    assert all(0.5 <= draws.uniform(0.5, 1.5) < 1.5 for _ in range(200))
    for n in range(8):
        assert sorted(draws.permutation(n)) == list(range(n))
    assert len({tuple(draws.permutation(4)) for _ in range(200)}) == 24  # every order occurs
    for n, size in ((5, 2), (5, 5), (9, 3), (1, 1), (3, 0)):
        picked = draws.choice(n, size=size, replace=False)
        assert len(picked) == len(set(picked)) == size and set(picked) <= set(range(n))
    with pytest.raises(ValueError):
        draws.choice(3, size=4, replace=False)
    with pytest.raises(ValueError):
        draws.choice(3, size=2, replace=True)


def test_a_study_past_one_block_continues_deterministically():
    n = 3 * DRAW_BLOCK + 5
    long_a, long_b, other = study_rng(3, "long"), study_rng(3, "long"), study_rng(3, "other")
    a = [long_a.random() for _ in range(n)]
    b = []
    for _ in range(n):  # interleaved with another study's draws: no state is shared
        b.append(long_b.random())
        other.random()
    assert a == b
    assert len(set(a)) == n and all(0.0 <= u < 1.0 for u in a)
    assert a[:DRAW_BLOCK] != a[DRAW_BLOCK : 2 * DRAW_BLOCK]
    assert [study_rng(4, "long").random() for _ in range(3)] != a[:3]  # the seed keys the stream


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
    cfg = config()
    batch = make_batch(studies_for_batch(128), cfg, engine, seed=0)
    assert batch.n == 128
    assert batch.x1.shape == batch.x2.shape == (128, 8, 8)
    assert len(batch.t1) == len(batch.t2) == 128
    # n studies carry 2n image-text pairs in the multi-view sense
    assert 2 * batch.n == 256


def test_batch_of_one(engine):
    cfg = config()
    batch = make_batch(studies_for_batch(1), cfg, engine, seed=0)
    assert batch.n == 1


def test_batch_deterministic_under_seed(engine):
    cfg = config()
    studies = studies_for_batch(9)
    a = make_batch(studies, cfg, engine, seed=42)
    b = make_batch(studies, cfg, engine, seed=42)
    np.testing.assert_array_equal(a.x1, b.x1)
    np.testing.assert_array_equal(a.x2, b.x2)
    assert a.t1 == b.t1 and a.t2 == b.t2


def test_batch_independent_of_study_order(engine):
    # per-study sub-seeds come from (seed, id), not list position
    cfg = config()
    studies = studies_for_batch(6)
    fwd = make_batch(studies, cfg, engine, seed=7)
    rev = make_batch(studies[::-1], cfg, engine, seed=7)
    np.testing.assert_array_equal(fwd.x1, rev.x1[::-1])
    assert fwd.t1 == rev.t1[::-1]


@pytest.mark.parametrize("mode", ["study_single", "single"])
def test_single_modes_share_one_image_array(engine, mode):
    cfg = config(mode)
    batch = make_batch(studies_for_batch(6), cfg, engine, seed=0)
    assert batch.x2 is batch.x1 and batch.x1.shape == (6, 8, 8)
    assert batch.t2 == batch.t1


@pytest.mark.parametrize("mode", ["pairs", "study_single", "single"])
def test_batch_error_carries_study_id(engine, mode):
    bad = Study(id="weird", images=[StudyImage(grid_image(8), "PA")], labels={"Zebra": "positive"})
    with pytest.raises(SamplingError, match="weird"):
        make_batch([bad], config(mode), engine, seed=0)


def test_augmentation_fallback_flag_consistency(engine):
    cfg = config()
    for study in studies_for_batch(12):
        pair = sample_pair(study, cfg, engine, np.random.default_rng(0))
        assert pair.image2_augmented == (len(study.images) == 1)
        if study.sections and len(study.sections) == 1:
            assert pair.text_source == "section_aug"
        elif study.sections:
            assert pair.text_source == "sections"
        else:
            assert pair.text_source == "prompts"


def test_pairs_without_augmentation_repeat_the_first_view(engine, monkeypatch):
    def never(*args):
        raise AssertionError("augmentation ran with augment off")

    monkeypatch.setattr(sampling, "augment_image", never)
    monkeypatch.setattr(sampling, "augment_text", never)
    batch = make_batch(studies_for_batch(12), config(augment=False), engine, seed=0)
    for study, pair in zip(studies_for_batch(12), batch.pairs):
        assert not pair.image2_augmented
        if len(study.images) == 1:
            np.testing.assert_array_equal(pair.x2, pair.x1)
        if pair.text_source == "section_aug":
            assert pair.t2 == pair.t1 == "One. Two."


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


@pytest.mark.parametrize(
    "ids, message",
    [
        (["s0", "s1", "s0"], r"study id 's0' is repeated"),
        (["s0", "../s1"], r"study id '../s1' is not a plain file name"),
        (["s0", "a/b"], r"study id 'a/b' is not a plain file name"),
        (["s0", ".."], r"study id '..' is not a plain file name"),
        (["s0", "a\\b"], r"study id 'a\\\\b' is not a plain file name"),
    ],
    ids=["repeated", "parent", "slash", "dot-dot", "backslash"],
)
def test_save_studies_rejects_ids_that_would_clash_or_escape_before_writing(tmp_path, ids, message):
    studies = [make_study(study_id, findings="Lungs are clear.") for study_id in ids]
    with pytest.raises(DataFormatError, match=message):
        save_studies(tmp_path / "out" / "train.jsonl", studies)
    assert list(tmp_path.iterdir()) == []  # no file and no directory written


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


def test_16_bit_binary_pgm_reads_two_big_endian_bytes_per_pixel(tmp_path):
    p = tmp_path / "wide.pgm"
    pixels = np.array([[0, 65535], [32768, 1000]], dtype=">u2")
    p.write_bytes(b"P5\n2 2\n65535\n" + pixels.tobytes())
    np.testing.assert_array_equal(read_pgm(p), pixels / 65535.0)
    p.write_bytes(b"P5\n2 2\n65535\n" + pixels.tobytes()[:4])  # one byte per pixel: truncated
    with pytest.raises(DataFormatError, match="expected 8 pixel bytes, got 4"):
        read_pgm(p)


@pytest.mark.parametrize(
    "header, body, field",
    [
        (b"P5\n2 1\n0\n", b"\x00\x01", "maxval"),  # maxval 0 would divide by zero
        (b"P5\n2 1\n65536\n", b"\x00\x00\x00\x01", "maxval"),
        (b"P5\n2 1\nabc\n", b"\x00\x01", "maxval"),
        (b"P5\n0 1\n255\n", b"", "width"),
        (b"P5\n2 -1\n255\n", b"\x00\x01", "height"),
        (b"P5\n2.5 1\n255\n", b"\x00\x01", "width"),
        (b"P5\n2 1\n100\n", bytes([50, 200]), "pixel value 200 exceeds maxval 100"),
        (b"P2\n2 1\n100\n", b"50 101\n", "pixel value 101 exceeds maxval 100"),
        (b"P2\n2 1\n100\n", b"50 -1\n", "pixel values must be non-negative integers"),
    ],
    ids=["maxval_0", "maxval_65536", "maxval_text", "width_0", "height_negative", "width_fraction",
         "p5_pixel_above_maxval", "p2_pixel_above_maxval", "p2_pixel_negative"],
)
def test_invalid_pgm_header_or_pixel_names_the_file_and_field(tmp_path, header, body, field):
    p = tmp_path / "bad.pgm"
    p.write_bytes(header + body)
    with pytest.raises(DataFormatError, match=f"bad.pgm: graymap {field}"):
        read_pgm(p)


@pytest.mark.parametrize(
    "raw",
    [b"", b"P5", b"P5\n4 4\n", b"P2 2 1 # c"],
    ids=["empty", "magic_only", "trailing_whitespace", "trailing_comment"],
)
def test_a_header_that_ends_early_is_truncated(tmp_path, raw):
    p = tmp_path / "short.pgm"
    p.write_bytes(raw)
    with pytest.raises(DataFormatError, match="short.pgm: truncated graymap header"):
        read_pgm(p)


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


@pytest.mark.parametrize(
    "record, cause",
    [
        ("[1, 2]", "study record must be an object, got list"),
        ('{"id": "b", "images": ["b.pgm"], "findings": "F."}', "images must be a list of objects, got ['b.pgm']"),
        ('{"id": "b", "images": {"path": "b.pgm"}, "findings": "F."}', "images must be a list of objects, got {'path': 'b.pgm'}"),
        ('{"id": "b", "images": [{"pixels": [[0.5]]}], "findings": 5}', "findings must be str or None, got 5"),
        ('{"id": "b", "images": [{"pixels": [[0.5]]}], "labels": ["Edema"]}', "labels must be dict or None"),
        ('{"id": "b", "images": [{"pixels": [[0.5, 0.5], [0.5]]}], "findings": "F."}', "pixels must form a 2-d grid"),
        ('{"images": [{"pixels": [[0.5]]}], "findings": "F."}', "study record missing field 'id'"),
        ('{"id": "b", "images": [{"path": "absent.pgm"}], "findings": "F."}', "absent.pgm"),
    ],
    ids=["list_line", "image_str", "images_object", "findings_int", "labels_list", "ragged_pixels", "no_id",
         "missing_file"],
)
def test_a_malformed_record_raises_data_format_error_naming_the_file_and_line(tmp_path, record, cause):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "images": [{"pixels": [[0.5]]}], "findings": "F."}\n' + record + "\n")
    with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}:2: .*{re.escape(cause)}") as err:
        load_studies(path)
    assert err.value.__cause__ is not None


def test_study_invariants_enforced():
    for study_id in (None, 5, ""):
        with pytest.raises(DataFormatError, match=f"study id must be a non-empty str, got {study_id!r}"):
            Study(id=study_id, images=[StudyImage(grid_image(4), "PA")], findings="F.")
    with pytest.raises(DataFormatError):
        Study(id="x", images=[], findings="F.")
    with pytest.raises(DataFormatError):
        Study(id="x", images=[StudyImage(grid_image(4), "PA")])
    with pytest.raises(DataFormatError):
        Study(id="x", images=[StudyImage(grid_image(4), "PA")], labels={"Edema": "positve"})
    for blank in ("   ", "\n\t"):
        for section in ("findings", "impression"):
            with pytest.raises(DataFormatError, match="neither text sections nor labels"):
                Study(id="x", images=[StudyImage(grid_image(4), "PA")], **{section: blank})
    labelled = Study(id="x", images=[StudyImage(grid_image(4), "PA")], findings="   ", labels={"Edema": "positive"})
    assert labelled.findings is None and labelled.sections == []


def test_image_keeps_its_pixels_when_the_callers_array_changes():
    pixels = grid_image(4)
    image = StudyImage(pixels, "PA")
    before = pixels.copy()
    pixels[0, 0] = 1.0 - pixels[0, 0]
    np.testing.assert_array_equal(image.pixels, before)


def test_writing_into_image_pixels_raises():
    image = StudyImage(grid_image(4), "PA")
    with pytest.raises(ValueError, match="read-only"):
        image.pixels[0, 0] = 0.5


def test_image_pixels_cannot_be_made_writable():
    image = StudyImage(grid_image(4), "PA")
    with pytest.raises(ValueError):
        image.pixels.flags.writeable = True


def test_assigning_image_pixels_raises():
    image = StudyImage(grid_image(4), "PA")
    with pytest.raises(dataclasses.FrozenInstanceError):
        image.pixels = grid_image(4, seed=1)


def test_replace_builds_a_new_read_only_image():
    image = StudyImage(grid_image(4), "PA")
    other = dataclasses.replace(image, pixels=grid_image(4, seed=1))
    np.testing.assert_array_equal(other.pixels, grid_image(4, seed=1))
    assert other.view == "PA" and not other.pixels.flags.writeable
    np.testing.assert_array_equal(image.pixels, grid_image(4))


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda image: pickle.loads(pickle.dumps(image))])
def test_copies_of_an_image_are_read_only_too(clone):
    image = StudyImage(grid_image(4), "LATERAL")
    other = clone(image)
    np.testing.assert_array_equal(other.pixels, image.pixels)
    assert other.view == "LATERAL"
    with pytest.raises(ValueError):
        other.pixels.flags.writeable = True


def test_missing_dataset_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_studies(tmp_path / "nope.jsonl")


# --------------------------------------------------------------- golden batches

# Synthetic 24 px studies (single- and two-image, report-bearing and label-only; every third
# report keeps only its findings, for the section-augmentation path), assembled at 8 px.
GUARD_SPEC = SynthSpec(train_studies=30, image_size=24)
GUARD_CONFIGS = {
    "pairs": config(augment=True, clahe_probability=1.0),
    "study_single": config("study_single"),
    "single": config("single"),
}
# SHA-256 over the batches each mode assembles from the guard studies: the images' bytes, the
# texts and each study's provenance. Assembly is exact work, so a faster path keeps these bits.
GUARD_DIGESTS = {
    "pairs": "e4cd7c7c91fb82eefda97f88997e69941e165ac8573af728c38b92c9aaee10f3",
    "study_single": "a87a65105792e1087312441dbec8a9e06763633d78a8920fc3b58ab403e0661f",
    "single": "d72b01f8d2f7776acad0e1bab2837405180f4c715bda9440aa8b76042ccafd0c",
}


@pytest.fixture(scope="module")
def guard_studies(engine):
    studies = generate_split(GUARD_SPEC, "train", GUARD_SPEC.train_studies, 5, engine)
    reports = [s for s in studies if s.findings]
    assert len(reports) < len(studies) and any(len(s.images) == 1 for s in studies)
    for study in reports[::3]:
        study.impression = None
    return studies


@pytest.mark.parametrize("mode", list(GUARD_CONFIGS))
def test_assembled_batches_keep_their_golden_digest(mode, guard_studies, engine):
    digest = hashlib.sha256()
    for seed, start in ((0, 0), (1, 10), (2, 20)):
        batch = make_batch(guard_studies[start : start + 10], GUARD_CONFIGS[mode], engine, seed)
        digest.update(batch.x1.tobytes() + batch.x2.tobytes())
        for pair in batch.pairs:
            digest.update(f"{pair.t1}\0{pair.t2}\0{pair.text_source}\0{pair.image2_augmented}\0".encode())
    assert digest.hexdigest() == GUARD_DIGESTS[mode]


# Assembles pairs and study_single batches from synthetic studies (label-only ones render
# prompts, single-image ones augment a second view) and prints the SHA-256 of their bytes.
ASSEMBLY_SCRIPT = """
import hashlib
from studyclip.prompts import PromptEngine
from studyclip.sampling import make_batch
from studyclip.synth import SynthSpec, generate_split
from studyclip.training import TrainConfig
engine = PromptEngine.default()
studies = generate_split(SynthSpec(train_studies=30, image_size=24), "train", 30, 5, engine)
for cfg in (
    TrainConfig(sampling_mode="pairs", image_size=8, clahe_probability=1.0),
    TrainConfig(sampling_mode="study_single", image_size=8, lambda_icl=0.0, lambda_tcl=0.0),
):
    digest = hashlib.sha256()
    for seed, start in ((0, 0), (1, 10), (2, 20)):
        batch = make_batch(studies[start : start + 10], cfg, engine, seed)
        digest.update(batch.x1.tobytes() + batch.x2.tobytes() + "\\0".join(batch.t1 + batch.t2).encode())
    print(cfg.sampling_mode, digest.hexdigest())
"""


def test_batches_are_the_same_bytes_in_a_process_with_random_hash_seed():
    here = io.StringIO()
    with contextlib.redirect_stdout(here):
        exec(ASSEMBLY_SCRIPT, {})
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONHASHSEED": "random", "PYTHONPATH": str(src)}
    there = subprocess.run([sys.executable, "-c", ASSEMBLY_SCRIPT], env=env, capture_output=True, text=True, check=True)
    assert [line.split()[0] for line in here.getvalue().splitlines()] == ["pairs", "study_single"]
    assert there.stdout == here.getvalue()
