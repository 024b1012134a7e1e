import math

import numpy as np
import pytest

from studyclip.prompts import PromptEngine
from studyclip.studies import load_studies
from studyclip.synth import SynthSpec, _split_counts, generate_dataset, generate_split, pattern_distances

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


def test_generate_dataset_refuses_classes_closer_than_the_minimum(engine, tmp_path):
    spec = SynthSpec(min_pattern_distance=pattern_distances(SynthSpec()) + 0.01)
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
