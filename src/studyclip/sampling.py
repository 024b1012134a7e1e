"""Study-level sampling: one batch path for every sampling mode.

Mode ``pairs`` gives two images and two texts per study, with fallbacks.
Images prefer two distinct view tags when the study has them, otherwise two
distinct images, otherwise an augmented copy of the single image. Texts use
(findings, impression) when both sections exist, a section plus its augmented
copy when only one does, and two prompt renderings of the label record for
label-only studies. Modes ``single`` and ``study_single`` give one image and
one text per study, placed in both view slots, for the single-pair baselines.
With ``augment`` off, the fallback second views of ``pairs`` use identity
augmentation parameters (no crop, CLAHE, brightness or contrast change, text
unchanged) and the single modes skip augmentation.

``assemble_batch`` is the one batch loop, for every mode: it derives each
study's sub-seed deterministically from (global seed, study id), so batches
are reproducible and order-independent workers could assemble them
concurrently, and it tags a per-study failure with the study id.
``make_batch`` picks the per-study sampler for the configured mode.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from .augment import ImageAugConfig, TextAugConfig, augment_image, augment_text, resize_bilinear
from .prompts import PromptEngine
from .studies import SampledPair, Study


class NoImages(ValueError):
    pass


class NoText(ValueError):
    pass


class SamplingError(RuntimeError):
    """Per-study failure inside batch assembly, tagged with the study id."""


SAMPLING_MODES = ("pairs", "study_single", "single")
# image augmentation parameters that leave the picture as it is
IDENTITY_IMAGE_AUG = {
    "crop_scale_range": (1.0, 1.0),
    "clahe_probability": 0.0,
    "brightness_range": (1.0, 1.0),
    "contrast_range": (1.0, 1.0),
}


@dataclass
class SamplerConfig:
    image_aug: ImageAugConfig = field(default_factory=ImageAugConfig)
    text_aug: TextAugConfig = field(default_factory=TextAugConfig)
    negative_sample_count: int | None = None  # binary-label prompt mode
    findings_first: bool = True  # assign findings to t1 (seeded swap when False)
    mode: str = "pairs"  # pairs | study_single | single
    augment: bool = True  # False: identity parameters for pairs, none for single modes

    def __post_init__(self):
        if self.mode not in SAMPLING_MODES:
            raise ValueError(f"unknown sampling mode {self.mode!r}")
        if not self.augment:
            self.image_aug = replace(self.image_aug, **IDENTITY_IMAGE_AUG)
            self.text_aug = TextAugConfig(mode="identity")


@dataclass
class StudyBatch:
    """Aligned per-study views: n studies yield 2n image-text pairs."""

    x1: np.ndarray  # (n, S, S)
    x2: np.ndarray
    t1: list[str]
    t2: list[str]
    pairs: list[SampledPair]

    @property
    def n(self) -> int:
        return len(self.t1)


def study_rng(global_seed: int, study_id: str) -> np.random.Generator:
    """Deterministic per-study generator derived from (global seed, study id)."""
    digest = hashlib.sha256(f"{global_seed}:{study_id}".encode("utf-8")).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def sample_images(study: Study, cfg: ImageAugConfig, rng: np.random.Generator):
    """Pick (x1, x2) per the distinct-view preference; returns (x1, x2, augmented)."""
    if not study.images:
        raise NoImages(f"study {study.id!r} has no images")
    size = cfg.output_size
    if len(study.images) == 1:
        base = study.images[0].pixels
        x1 = resize_bilinear(base, size, size)
        x2 = augment_image(base, cfg, rng)
        return x1, x2, True

    views = [img.view for img in study.images]
    unique_views = sorted(set(views))
    if len(unique_views) >= 2:
        order = rng.permutation(len(unique_views))
        va, vb = unique_views[int(order[0])], unique_views[int(order[1])]
        group_a = [i for i, v in enumerate(views) if v == va]
        group_b = [i for i, v in enumerate(views) if v == vb]
        ia = group_a[int(rng.integers(len(group_a)))]
        ib = group_b[int(rng.integers(len(group_b)))]
    else:
        pick = rng.choice(len(study.images), size=2, replace=False)
        ia, ib = int(pick[0]), int(pick[1])
    x1 = resize_bilinear(study.images[ia].pixels, size, size)
    x2 = resize_bilinear(study.images[ib].pixels, size, size)
    return x1, x2, False


def sample_texts(
    study: Study,
    tcfg: TextAugConfig,
    rng: np.random.Generator,
    engine: PromptEngine,
    negative_sample_count: int | None = None,
    findings_first: bool = True,
):
    """Pick (t1, t2) per the section/prompt rules; returns (t1, t2, source)."""
    sections = study.sections
    if not sections and study.labels is None:
        raise NoText(f"study {study.id!r} has neither text sections nor labels")
    if not sections:
        t1 = engine.build_study_text(study.labels, rng, negative_sample_count)
        t2 = engine.build_study_text(study.labels, rng, negative_sample_count)
        return t1, t2, "prompts"
    if len(sections) == 2:
        t1, t2 = sections
        if not findings_first and rng.integers(2) == 1:
            t1, t2 = t2, t1
        return t1, t2, "sections"
    t1 = sections[0]
    return t1, augment_text(t1, tcfg, rng), "section_aug"


def sample_pair(study: Study, cfg: SamplerConfig, engine: PromptEngine, rng) -> SampledPair:
    x1, x2, augmented = sample_images(study, cfg.image_aug, rng)
    t1, t2, source = sample_texts(
        study,
        cfg.text_aug,
        rng,
        engine,
        negative_sample_count=cfg.negative_sample_count,
        findings_first=cfg.findings_first,
    )
    return SampledPair(x1=x1, x2=x2, t1=t1, t2=t2, image2_augmented=augmented, text_source=source)


def sample_single(study: Study, cfg: SamplerConfig, engine: PromptEngine, rng) -> SampledPair:
    """One (image, text) per study, in both view slots, for the single-pair modes.

    mode 'single': first image and first section (or one prompt rendering).
    mode 'study_single': seeded random image and random section or prompt.
    With cfg.augment set, augmentation is applied on top.
    """
    if cfg.mode == "single":
        img = study.images[0].pixels
        text = study.sections[0] if study.sections else engine.build_study_text(
            study.labels, rng, cfg.negative_sample_count
        )
    else:
        img = study.images[int(rng.integers(len(study.images)))].pixels
        if study.sections:
            text = study.sections[int(rng.integers(len(study.sections)))]
        else:
            text = engine.build_study_text(study.labels, rng, cfg.negative_sample_count)
    size = cfg.image_aug.output_size
    img = resize_bilinear(img, size, size)
    if cfg.augment:
        img = augment_image(img, cfg.image_aug, rng)
        text = augment_text(text, cfg.text_aug, rng)
    return SampledPair(x1=img, x2=img, t1=text, t2=text, text_source="single")


def assemble_batch(
    studies: list[Study], sample, cfg: SamplerConfig, engine: PromptEngine, seed: int
) -> StudyBatch:
    """One ``sample(study, cfg, engine, rng)`` per study, each rng derived from (seed, study id)."""
    if not studies:
        raise ValueError("cannot assemble a batch from zero studies")
    pairs = []
    for study in studies:
        try:
            pairs.append(sample(study, cfg, engine, study_rng(seed, study.id)))
        except Exception as err:
            raise SamplingError(f"study {study.id!r}: {err}") from err
    x1 = np.stack([p.x1 for p in pairs])
    return StudyBatch(
        x1=x1,
        x2=np.stack([p.x2 for p in pairs]) if cfg.mode == "pairs" else x1,
        t1=[p.t1 for p in pairs],
        t2=[p.t2 for p in pairs],
        pairs=pairs,
    )


def make_batch(studies: list[Study], cfg: SamplerConfig, engine: PromptEngine, seed: int) -> StudyBatch:
    """The batch of cfg.mode: ``sample_pair`` per study for pairs, ``sample_single`` otherwise."""
    return assemble_batch(studies, sample_pair if cfg.mode == "pairs" else sample_single, cfg, engine, seed)
