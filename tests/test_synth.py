import collections
import hashlib
import itertools
import math
import re

import numpy as np
import pytest

from studyclip import synth
from studyclip.prompts import PromptEngine
from studyclip.studies import load_studies
from studyclip.synth import (
    MARKERS,
    MIN_PATTERN_DISTANCE,
    SEVERITIES,
    TEXTURES,
    StudyLatent,
    SynthSpec,
    _split_counts,
    attribute_sentences,
    generate_dataset,
    generate_split,
    pattern_distances,
    render_image,
)

SPEC = SynthSpec(train_studies=13, valid_studies=7, test_studies=11, image_size=16)


@pytest.fixture(scope="module")
def engine():
    return PromptEngine.default()


def positive_class(study) -> str:
    (name,) = [c for c, v in study.labels.items() if v == "positive"]
    return name


@pytest.mark.parametrize("split, count", [("train", 13), ("valid", 7), ("test", 11)])
def test_split_has_count_studies_with_unique_ids_and_balanced_classes(engine, split, count):
    studies = generate_split(SPEC, split, count, 0, engine)
    assert [s.id for s in studies] == [f"{split}-{i:05d}" for i in range(count)]
    positives = [positive_class(s) for s in studies]
    assert [positives.count(c) for c in SPEC.class_names] == _split_counts(count, SPEC.class_count)


def test_split_counts_differ_by_at_most_one():
    for total in range(0, 23):
        counts = _split_counts(total, 5)
        assert sum(counts) == total and max(counts) - min(counts) <= 1
    assert _split_counts(13, 5) == [3, 3, 3, 2, 2]


@pytest.mark.parametrize("split", ["train", "valid", "test"])
def test_every_class_is_labelled_with_exactly_one_positive(engine, split):
    for study in generate_split(SPEC, split, 10, 1, engine):
        assert sorted(study.labels) == sorted(SPEC.class_names)
        assert sorted(study.labels.values()) == ["negative"] * (SPEC.class_count - 1) + ["positive"]


def test_every_study_owns_its_label_map(engine):
    # studies of one class share a label map's contents, but Study.labels is mutable
    first, second = generate_split(SPEC, "train", SPEC.class_count * 2, 0, engine)[:2]
    assert positive_class(first) == positive_class(second) and first.labels is not second.labels
    first.labels[positive_class(first)] = "uncertain"
    assert sorted(second.labels.values()) == ["negative"] * (SPEC.class_count - 1) + ["positive"]


def test_report_texts_are_class_renders_followed_by_the_attribute_sentences(engine):
    studies = [s for s in generate_split(SPEC, "train", 40, 3, engine) if s.findings is not None]
    assert len(studies) >= 10
    tails = {
        " ".join(attribute_sentences(StudyLatent(0, *attrs)))
        for attrs in itertools.product(range(len(SEVERITIES)), range(len(TEXTURES)), range(len(MARKERS)))
    }
    for study in studies:
        cls = positive_class(study)
        (tail,) = [t for t in tails if study.findings.endswith(" " + t)]
        assert study.impression.endswith(" " + tail)
        positives = engine.prompt_set(cls, "positive")
        assert study.findings[: -len(tail) - 1] in positives
        # the impression: a positive render of the class, then a negative render of another class
        head = study.impression[: -len(tail) - 1]
        others = set().union(*(engine.prompt_set(o, "negative") for o in SPEC.class_names if o != cls))
        assert any(head.startswith(p + " ") and head[len(p) + 1 :] in others for p in positives), study.id


def test_test_split_is_never_label_only(engine):
    spec = SynthSpec(label_only_fraction=1.0)
    assert all(s.findings is None and s.impression is None for s in generate_split(spec, "train", 10, 0, engine))
    for study in generate_split(spec, "test", 10, 0, engine):
        assert study.findings and study.impression


@pytest.mark.parametrize("fraction", [0.0, 0.5, 1.0])
def test_views_and_pixel_range(engine, fraction):
    spec = SynthSpec(multi_image_fraction=fraction, image_size=16)
    studies = generate_split(spec, "train", 20, 2, engine)
    for study in studies:
        views = [image.view for image in study.images]
        assert views == ["PA", "LATERAL"] or (len(views) == 1 and views[0] in ("PA", "AP"))
        for image in study.images:
            assert image.pixels.shape == (16, 16)
            assert 0.0 <= image.pixels.min() and image.pixels.max() <= 1.0
    multi = [len(s.images) == 2 for s in studies]
    if fraction in (0.0, 1.0):
        assert set(multi) == {bool(fraction)}
    else:
        assert set(multi) == {True, False}


@pytest.mark.parametrize(
    "overrides",
    [
        {"class_names": ["Edema"]},
        {"label_only_fraction": -0.1},
        {"label_only_fraction": 1.5},
        {"multi_image_fraction": 1.01},
        {"multi_image_fraction": math.nan},
        {"class_names": ["Edema", "Edema"]},  # a label map would keep one entry: no study labelled positive
    ],
)
def test_spec_rejects_invalid_fields(overrides):
    with pytest.raises(ValueError):
        SynthSpec(**overrides)


@pytest.mark.parametrize(
    "name, value",
    [
        ("noise_level", math.nan),
        ("noise_level", math.inf),
        ("noise_level", -0.1),
        ("image_size", 0),
        ("train_studies", -3),
        ("valid_studies", -1),
        ("test_studies", -1),
    ],
)
def test_spec_rejects_bad_numbers_naming_the_field(name, value):
    with pytest.raises(ValueError, match=name):
        SynthSpec(**{name: value})


@pytest.mark.parametrize("name", ["train_studies", "valid_studies", "test_studies", "image_size"])
@pytest.mark.parametrize("value", [2.5, True])
def test_spec_rejects_a_count_or_size_that_is_not_an_int_naming_the_field(name, value):
    # a float fails later, inside generate_split, without naming the field; True would count as 1
    with pytest.raises(ValueError, match=rf"{name} must be an int, got {value!r}"):
        SynthSpec(**{name: value})


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("noise_level", "0.1", "must be a finite real number"),
        ("noise_level", None, "must be a finite real number"),
        ("noise_level", True, "must be a finite real number"),
        ("label_only_fraction", True, "must be a finite real number"),
        ("multi_image_fraction", False, "must be a finite real number"),
        ("class_names", "ABC", "must be a list of non-empty strings"),  # would be classes A, B and C
        ("class_names", ("Edema", "Mass"), "must be a list of non-empty strings"),
        ("class_names", ["Edema", ""], "must be a list of non-empty strings"),
        ("class_names", ["Edema", 3], "must be a list of non-empty strings"),
    ],
)
def test_spec_rejects_a_field_of_the_wrong_type_naming_it(name, value, message):
    with pytest.raises(ValueError, match=f"{name} {message}"):
        SynthSpec(**{name: value})


def test_spec_accepts_any_finite_real_for_a_float_field():
    spec = SynthSpec(noise_level=0, label_only_fraction=np.float32(0.5))
    assert (spec.noise_level, spec.label_only_fraction) == (0, 0.5)


def test_spec_accepts_zero_noise_and_empty_splits(engine):
    spec = SynthSpec(train_studies=0, noise_level=0.0, image_size=1)
    assert generate_split(spec, "train", spec.train_studies, 0, engine) == []


def test_generate_split_rejects_an_unknown_split_naming_the_allowed_ones(engine):
    with pytest.raises(ValueError, match=r"split must be one of \['train', 'valid', 'test'\], got 'val'"):
        generate_split(SPEC, "val", 3, 0, engine)


@pytest.mark.parametrize("count", [-3, -7])
def test_generate_split_rejects_a_negative_count_naming_it(engine, count):
    with pytest.raises(ValueError, match=rf"count must be non-negative, got {count}"):
        generate_split(SPEC, "train", count, 0, engine)


@pytest.mark.parametrize("count", [True, False, 3.0, "3", None, np.int64(3)])
def test_generate_split_rejects_a_count_that_is_not_an_int_naming_it(engine, count):
    # True would build one study and a float fail inside range, naming neither
    with pytest.raises(ValueError, match=rf"count must be an int, got {re.escape(repr(count))}$"):
        generate_split(SPEC, "train", count, 0, engine)


@pytest.mark.parametrize("split, count", [("val", 3), ("train", -1), ("train", 2.0), ("test", True)])
def test_every_split_check_raises_before_any_study_is_built(engine, monkeypatch, split, count):
    class Rendered(Exception):
        pass

    def render(*args):
        calls.append(args)
        raise Rendered

    calls = []
    monkeypatch.setattr(synth, "render_image", render)
    with pytest.raises(ValueError):
        generate_split(SPEC, split, count, 0, engine)
    assert calls == []
    with pytest.raises(Rendered):  # the same patch does reach a valid call's first render
        generate_split(SPEC, "train", 1, 0, engine)
    assert len(calls) == 1


def test_generate_dataset_refuses_classes_closer_than_the_minimum(engine, tmp_path):
    spec = SynthSpec(image_size=1)  # every class signature is the same one pixel
    assert pattern_distances(spec) < MIN_PATTERN_DISTANCE
    with pytest.raises(ValueError, match="class signatures too close"):
        generate_dataset(spec, 0, tmp_path / "out", engine)
    assert not (tmp_path / "out").exists()


def test_generate_dataset_writes_the_three_splits(engine, tmp_path):
    spec = SynthSpec(train_studies=4, valid_studies=2, test_studies=3, image_size=8)
    paths = generate_dataset(spec, 0, tmp_path, engine)
    assert sorted(paths) == ["test", "train", "valid"]
    test = load_studies(paths["test"])
    want = generate_split(spec, "test", 3, 0, engine)
    assert [s.id for s in test] == [s.id for s in want]
    assert [s.findings for s in test] == [s.findings for s in want]
    for got, made in zip(test, want):
        # graymap files quantize the pixels
        for a, b in zip(got.images, made.images):
            assert np.abs(a.pixels - b.pixels).max() <= 0.5 / 255 + 1e-12


# SHA-256 over every id, view, pixel byte, section and label of the three splits
# of a small spec, at seeds 0 and 7 and image sizes 16 and 32. A change to the
# generator's rng stream or arithmetic moves it.
SPLITS_DIGEST = "8e1e4662b11823c0c2248d26068c38c769e2994e76f805ffcf441a6f6ab94e75"


def test_generated_splits_keep_their_golden_digest(engine):
    digest = hashlib.sha256()
    for size in (16, 32):
        spec = SynthSpec(train_studies=9, valid_studies=4, test_studies=6, image_size=size)
        for seed in (0, 7):
            for split, count in (("train", 9), ("valid", 4), ("test", 6)):
                for s in generate_split(spec, split, count, seed, engine):
                    views = [image.view for image in s.images]
                    digest.update(repr((s.id, views, s.findings, s.impression, sorted(s.labels.items()))).encode())
                    for image in s.images:
                        digest.update(image.pixels.tobytes())
    assert digest.hexdigest() == SPLITS_DIGEST


# SHA-256 over the unit patterns (every class stripe, texture and view phase, and the
# marker) at sizes 1 to 128 and class counts 2, 5 and 7. SPLITS_DIGEST reaches only
# sizes 16 and 32 and the default five classes.
PATTERNS_DIGEST = "4e155b3f615f44048f9977cac9c0f7109be41816b348db0797b244d9970133f7"


def test_unit_patterns_keep_their_golden_digest():
    digest = hashlib.sha256()
    for size in (1, 7, 16, 32, 128):
        for count in (2, 5, 7):
            for class_idx in range(count):
                for phase in synth.VIEW_PHASES.values():
                    digest.update(synth.class_pattern(class_idx, count, size, phase).tobytes())
        for phase in synth.VIEW_PHASES.values():
            digest.update(synth.texture_pattern(size, phase).tobytes())
        digest.update(synth.marker_pattern(size).tobytes())
    assert digest.hexdigest() == PATTERNS_DIGEST


@pytest.mark.parametrize("noise_level", [0.0, 0.03])
@pytest.mark.parametrize("size", [16, 32, 128])
def test_render_image_matches_the_written_out_reference_bit_for_bit(size, noise_level):
    spec = SynthSpec(image_size=size, noise_level=noise_level)
    rng, reference_rng = np.random.default_rng(3), np.random.default_rng(3)
    marker = synth.marker_pattern(size)
    for class_idx, (view, phase) in itertools.product(range(spec.class_count), synth.VIEW_PHASES.items()):
        stripes = synth.class_pattern(class_idx, spec.class_count, size, phase)
        rings = synth.texture_pattern(size, phase)
        for s, t, m in itertools.product(range(len(SEVERITIES)), range(len(TEXTURES)), range(len(MARKERS))):
            (_, a), (_, tex), (_, mark) = SEVERITIES[s], TEXTURES[t], MARKERS[m]
            want = 0.5 + a * stripes
            if tex:
                want = want + tex * rings
            if mark:
                want = want + mark * marker
            want = np.clip(want + reference_rng.normal(0.0, noise_level, (size, size)), 0.0, 1.0)
            got = render_image(StudyLatent(class_idx, s, t, m), spec, view, rng)
            assert got.dtype == np.float64 and got.shape == (size, size)
            assert got.tobytes() == want.tobytes(), (class_idx, view, s, t, m)


def test_rendered_images_share_no_memory_with_the_pattern_cache():
    spec = SynthSpec(image_size=16, noise_level=0.0)
    latent = StudyLatent(class_idx=2, severity_idx=1, texture_idx=1, marker_idx=1)
    rng = np.random.default_rng(0)
    first = render_image(latent, spec, "AP", rng)
    second = render_image(latent, spec, "AP", rng)
    assert first is not second and not np.shares_memory(first, second)
    assert first.flags.writeable and second.flags.writeable
    np.testing.assert_array_equal(first, second)
    cached = [
        synth._unit_pattern(synth.class_pattern, 2, spec.class_count, 16, synth.VIEW_PHASES["AP"]),
        synth._unit_pattern(synth.texture_pattern, 16, synth.VIEW_PHASES["AP"]),
        synth._unit_pattern(synth.marker_pattern, 16),
    ]
    for pattern in cached:
        assert not pattern.flags.writeable
        assert not np.shares_memory(first, pattern) and not np.shares_memory(second, pattern)
    want = second.copy()
    first[...] = -7.0  # a write into one render reaches neither the cache nor later renders
    np.testing.assert_array_equal(render_image(latent, spec, "AP", rng), want)


@pytest.mark.parametrize("table, index", [("SEVERITIES", 2), ("TEXTURES", 1), ("MARKERS", 1)])
def test_patched_amplitudes_reach_renders_from_a_used_cache(monkeypatch, table, index):
    spec = SynthSpec(image_size=16, noise_level=0.0)
    latent = StudyLatent(class_idx=0, severity_idx=2, texture_idx=1, marker_idx=1)
    rng = np.random.default_rng(0)
    before = render_image(latent, spec, "PA", rng)
    rows = list(getattr(synth, table))
    rows[index] = (rows[index][0], rows[index][1] / 2)
    monkeypatch.setattr(synth, table, rows)
    after = render_image(latent, spec, "PA", rng)
    assert not np.array_equal(before, after)
    synth._unit_pattern.cache_clear()
    np.testing.assert_array_equal(after, render_image(latent, spec, "PA", rng))


def test_generating_a_split_again_builds_no_unit_pattern(engine, monkeypatch):
    built = collections.Counter()
    for name in ("class_pattern", "texture_pattern", "marker_pattern"):

        def counting(*args, build=getattr(synth, name), name=name):
            built[name] += 1
            return build(*args)

        monkeypatch.setattr(synth, name, counting)
    synth._unit_pattern.cache_clear()
    first = generate_split(SPEC, "train", 13, 0, engine)
    phases = len(synth.VIEW_PHASES)  # each pattern is built at most once
    assert 0 < built["class_pattern"] <= SPEC.class_count * phases
    assert 0 < built["texture_pattern"] <= phases and built["marker_pattern"] == 1
    counts = dict(built)
    second = generate_split(SPEC, "train", 13, 0, engine)
    assert built == counts  # the second split reads every pattern from the cache
    for a, b in zip(first, second, strict=True):
        assert [image.pixels.tobytes() for image in a.images] == [image.pixels.tobytes() for image in b.images]
