"""Study-level sampling: one batch path for every sampling mode.

Mode ``pairs`` gives two images and two texts per study, with fallbacks.
Images prefer two distinct view tags when the study has them, otherwise two
distinct images, otherwise an augmented copy of the single image. Texts use
(findings, impression) when both sections exist, a section plus its augmented
copy when only one does, and two prompt renderings of the label record for
label-only studies. Modes ``single`` and ``study_single`` give one image and
one text per study, placed in both view slots, for the single-pair baselines.
With ``augment`` off, augmentation is skipped: a fallback second view of
``pairs`` is a copy of the first, and the single modes use the picked image
and text as they are.

Every sampler reads the one ``TrainConfig``: its sampling mode, ``augment``
and image size; CLAHE's probability is ``augment.CLAHE_PROBABILITY``.

A batch is its studies' ``SampledPair``s, in study order; training picks the
views a step encodes. ``assemble_batch`` is the one batch loop, for every mode:
it gives each study its own draws, ``study_rng(global seed, study id)``, so a
batch depends only on its studies and seed, not on the order or the process
that assembles it; it tags a per-study failure with the study id. So
``training.train`` assembles its training batches in a forked worker process,
beside the compute, bit for bit as the main process would, and its validation
batches in the main process. ``make_batch`` picks the per-study sampler for the
configured mode.

A study's draws (``StudyDraws``) are uniform doubles from a counter-based
stream, in the manner of Salmon et al. ("Parallel random numbers: as easy as
1, 2, 3", SC 2011): block i holds ``DRAW_BLOCK`` doubles made from SHAKE-256
of the key, the SHA-256 of (global seed, study id), and i. One hash fills a
block, so a study pays one SHA-256 and, for all but the longest prompt walks,
one block, where a numpy ``Generator`` costs about 20 µs to build and a few
µs per method call. The object offers only what the samplers, ``augment``
and the prompt walk call: ``random``, ``integers(n)`` as int(u * n) (n == 1
takes no draw, as numpy's does), ``uniform``, and ``permutation`` and
``choice`` without replacement by Fisher-Yates. The ``Draws`` protocol names
those five methods: the functions that draw take any ``Draws``, so a numpy
``Generator`` just as well, and the synthetic splits (``synth``) and the
evaluation's class prompts (``evalrun``) keep numpy streams.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol

import numpy as np

from .augment import CLAHE_PROBABILITY, augment_image, augment_text, resize_bilinear
from .prompts import PromptEngine
from .studies import Study

if TYPE_CHECKING:
    from .training import TrainConfig


class NoImages(ValueError):
    pass


class NoText(ValueError):
    pass


class SamplingError(RuntimeError):
    """Per-study failure inside batch assembly, tagged with the study id."""


SAMPLING_MODES = ("pairs", "study_single", "single")


@dataclass
class SampledPair:
    """One study's two images and two texts, with provenance flags."""

    x1: np.ndarray
    x2: np.ndarray
    t1: str
    t2: str
    image2_augmented: bool = False
    text_source: str = "sections"  # sections | section_aug | prompts | single

    def __post_init__(self):
        if self.x1.size == 0 or self.x2.size == 0 or not self.t1 or not self.t2:
            raise ValueError("sampled pair fields must be non-empty")


@dataclass
class StudyBatch:
    """The sampled pair of each study, in study order: n studies yield 2n image-text pairs."""

    pairs: list[SampledPair]

    @property
    def n(self) -> int:
        return len(self.pairs)


# Uniform doubles per block of a study's draws. A study of the default synthetic
# data takes a median 6 and a label-only one about 40, so most fit in one block;
# a study that needs more hashes its next block.
DRAW_BLOCK = 64


def _draw_block(key: bytes, counter: int) -> list[float]:
    """Block ``counter`` of the stream keyed by ``key``: the top 53 bits of each
    64-bit word of SHAKE-256(key, counter), scaled to [0, 1)."""
    stream = hashlib.shake_256(key + counter.to_bytes(8, "little")).digest(8 * DRAW_BLOCK)
    return ((np.frombuffer(stream, dtype="<u8") >> np.uint64(11)) * 2.0**-53).tolist()


class Draws(Protocol):
    """What the samplers, ``augment`` and the prompt walk draw from: a ``StudyDraws`` or a numpy ``Generator``."""

    def random(self) -> float: ...

    def integers(self, n: int) -> int: ...

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float: ...

    def permutation(self, n: int) -> Sequence[int]: ...

    def choice(self, n: int, size: int, replace: bool = False) -> Sequence[int]: ...


class StudyDraws:
    """One study's random draws, with the methods of ``np.random.Generator`` the samplers call.

    The draws are uniform doubles from a counter-based stream: block i is a
    function of the key and i alone, so refills are deterministic and no state
    is shared between two objects. Every method reads draws from the front of
    the stream, in call order.
    """

    def __init__(self, key: bytes):
        blocks = map(functools.partial(_draw_block, key), itertools.count())
        self.random = itertools.chain.from_iterable(blocks).__next__  # random(): the next draw, in [0, 1)

    def integers(self, n: int) -> int:
        """Uniform on [0, n) as int(u * n); n == 1 consumes no draw, as numpy's does."""
        if n == 1:
            return 0
        if n < 1:
            raise ValueError(f"integers needs n >= 1, got {n}")
        return int(self.random() * n)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return low + (high - low) * self.random()

    def permutation(self, n: int) -> list[int]:
        """A random order of range(n), by Fisher-Yates: n - 1 draws."""
        return self.choice(n, n)

    def choice(self, n: int, size: int, replace: bool = False) -> list[int]:
        """``size`` distinct values of range(n): the first ``size`` swaps of a Fisher-Yates shuffle."""
        if replace:
            raise ValueError("only draws without replacement are supported")
        if not 0 <= size <= n:
            raise ValueError(f"cannot take {size} distinct values of range({n})")
        pool = list(range(n))
        for i in range(size):
            j = i + self.integers(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:size]


def study_rng(global_seed: int, study_id: str) -> StudyDraws:
    """The draws of one study, keyed by the SHA-256 of (global seed, study id)."""
    return StudyDraws(hashlib.sha256(f"{global_seed}:{study_id}".encode("utf-8")).digest())


def sample_images(study: Study, cfg: TrainConfig, rng: Draws):
    """Pick (x1, x2) per the distinct-view preference; returns (x1, x2, augmented)."""
    size = cfg.image_size
    if len(study.images) == 1:
        base = study.images[0].pixels
        x1 = resize_bilinear(base, size, size)
        if not cfg.augment:
            return x1, x1, False
        return x1, augment_image(base, size, CLAHE_PROBABILITY, rng), True

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


def sample_texts(study: Study, cfg: TrainConfig, rng: Draws, engine: PromptEngine):
    """Pick (t1, t2) per the section/prompt rules; returns (t1, t2, source)."""
    sections = study.sections
    if not sections:
        t1 = engine.build_study_text(study.labels, rng)
        t2 = engine.build_study_text(study.labels, rng)
        return t1, t2, "prompts"
    if len(sections) == 2:
        return sections[0], sections[1], "sections"
    t1 = sections[0]
    t2 = augment_text(t1, rng) if cfg.augment else t1
    return t1, t2, "section_aug"


def sample_pair(study: Study, cfg: TrainConfig, engine: PromptEngine, rng) -> SampledPair:
    x1, x2, augmented = sample_images(study, cfg, rng)
    t1, t2, source = sample_texts(study, cfg, rng, engine)
    return SampledPair(x1=x1, x2=x2, t1=t1, t2=t2, image2_augmented=augmented, text_source=source)


def sample_single(study: Study, cfg: TrainConfig, engine: PromptEngine, rng) -> SampledPair:
    """One (image, text) per study, in both view slots, for the single-pair modes.

    mode 'single': first image and first section (or one prompt rendering).
    mode 'study_single': seeded random image and random section or prompt.
    With cfg.augment set, augmentation is applied on top.
    """
    if cfg.sampling_mode == "single":
        img = study.images[0].pixels
        text = study.sections[0] if study.sections else engine.build_study_text(study.labels, rng)
    else:
        img = study.images[int(rng.integers(len(study.images)))].pixels
        if study.sections:
            text = study.sections[int(rng.integers(len(study.sections)))]
        else:
            text = engine.build_study_text(study.labels, rng)
    size = cfg.image_size
    img = resize_bilinear(img, size, size)
    if cfg.augment:
        img = augment_image(img, size, CLAHE_PROBABILITY, rng)
        text = augment_text(text, rng)
    return SampledPair(x1=img, x2=img, t1=text, t2=text, text_source="single")


def assemble_batch(
    studies: list[Study], sample, cfg: TrainConfig, engine: PromptEngine, seed: int
) -> StudyBatch:
    """One ``sample(study, cfg, engine, rng)`` per study, each rng derived from (seed, study id)."""
    if not studies:
        raise ValueError("cannot assemble a batch from zero studies")
    pairs = []
    for study in studies:
        try:
            if not study.images:  # a Study's fields are mutable: one emptied since it was built fails before any draw
                raise NoImages(f"study {study.id!r} has no images")
            if not study.sections and study.labels is None:
                raise NoText(f"study {study.id!r} has neither text sections nor labels")
            pairs.append(sample(study, cfg, engine, study_rng(seed, study.id)))
        except Exception as err:
            raise SamplingError(f"study {study.id!r}: {err}") from err
    return StudyBatch(pairs)


def make_batch(studies: list[Study], cfg: TrainConfig, engine: PromptEngine, seed: int) -> StudyBatch:
    """The batch of cfg.sampling_mode: ``sample_pair`` per study for pairs, ``sample_single`` otherwise."""
    sample = sample_pair if cfg.sampling_mode == "pairs" else sample_single
    return assemble_batch(studies, sample, cfg, engine, seed)
