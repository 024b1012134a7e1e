"""Synthetic study generator: solvable-but-not-trivial contrastive data.

Each study carries one latent class plus three latent attributes (severity,
texture, marker). The image is a binary oriented stripe pattern whose
orientation encodes the class and amplitude encodes severity; a coarse texture
adds binary concentric rings, a marker a checkerboard, and Gaussian noise goes
on top; the noise level is the difficulty knob. Views of the same study differ
by a phase offset. Texts mention the class (through the prompt grammar) and the
attributes (through fixed sentence patterns), so exact-study retrieval is
learnable while within-class confusion remains.

``render_image`` reads each unit pattern (the ±1 class stripes of one view
phase, the radial texture of one phase, the checkerboard marker) through
``_unit_pattern``, a ``functools.lru_cache`` per process, bounded by its
``maxsize``: a process builds each pattern once, read-only, for every split.
The cache holds unit patterns only (19 for the default spec, 8 KB each at
32 px): ``render_image`` reads the amplitudes from ``SEVERITIES``, ``TEXTURES``
and ``MARKERS`` as it renders, so a caller that patches those tables (to vary
one attribute's salience, say) changes the pixels. Each image is its own noise
draw, to which ``render_image`` adds the base ``0.5 + a*P (+ t*T) (+ m*M)``,
then clips, both in place. Finished bases are not kept: a split of the default
spec meets most of its up to 180 (class, view, amplitudes) bases once or twice,
so a table of them saves little time, and at 128 px it would hold up to 24 MB.

Per study, the generator draws in a fixed order: the label-only flag (train
and valid only) and the multi-view flag, one ``rng.random()`` each; the view
of a single-view study; the three attributes; each image's noise; then the
report texts. Each class's label map is built once per split and every study
gets its own copy.

The default five classes mirror a 5-way evaluation subset; label-only studies
stand in for image-label data, report-bearing studies for image-text data.
Every study's label map names every class: its latent class positive, all
others negative.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .prompts import NoTemplateError, PromptEngine
from .studies import Study, StudyImage, save_split

DEFAULT_CLASSES = ["Atelectasis", "Cardiomegaly", "Consolidation", "Edema", "Pleural Effusion"]

SEVERITIES = [("minimal", 0.08), ("moderate", 0.22), ("severe", 0.36)]
TEXTURES = [("smooth", 0.0), ("coarse", 0.55)]  # ring amplitude
MARKERS = [(False, 0.0), (True, 0.14)]
VIEW_PHASES = {"PA": 0.0, "AP": math.pi / 3.0, "LATERAL": 2.0 * math.pi / 3.0}
_SPLITS = {"train": 0, "valid": 1, "test": 2}  # split name -> its stream's key
MIN_PATTERN_DISTANCE = 0.15  # least RMS distance between two class signatures that generate_dataset accepts


@dataclass
class SynthSpec:
    class_names: list[str] = field(default_factory=lambda: list(DEFAULT_CLASSES))
    train_studies: int = 200
    valid_studies: int = 40
    test_studies: int = 100
    image_size: int = 32
    noise_level: float = 0.03
    label_only_fraction: float = 0.4  # train/valid only; test is report-bearing
    multi_image_fraction: float = 0.5

    def __post_init__(self):
        if not isinstance(self.class_names, list) or not all(isinstance(n, str) and n for n in self.class_names):
            raise ValueError(f"class_names must be a list of non-empty strings, got {self.class_names!r}")
        if len(self.class_names) < 2:
            raise ValueError("need at least two classes")
        repeated = [name for k, name in enumerate(self.class_names) if name in self.class_names[:k]]
        if repeated:  # a study's label map would keep only one entry per name
            raise ValueError(f"class name {repeated[0]!r} is repeated")
        # a NaN fails every comparison, so a range check would pass it silently
        for name in ("noise_level", "label_only_fraction", "multi_image_fraction"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
        if self.noise_level < 0:
            raise ValueError(f"noise_level must be non-negative, got {self.noise_level}")
        for name in ("label_only_fraction", "multi_image_fraction"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)}")
        for name, least in (("train_studies", 0), ("valid_studies", 0), ("test_studies", 0), ("image_size", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")

    @property
    def class_count(self) -> int:
        return len(self.class_names)


def _grid(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices as a column and a row; they broadcast to the ``size`` x ``size`` grid."""
    index = np.arange(size)
    return index[:, None], index


def class_pattern(class_idx: int, class_count: int, size: int, phase: float = 0.0) -> np.ndarray:
    """Binary oriented stripes; orientation is the class signature.

    Square waves put an edge inside nearly every 3x3 patch, so one conv stage
    with global pooling sees a first-order, orientation-selective signal.
    """
    theta = math.pi * class_idx / class_count
    freq = 6.0
    i, j = _grid(size)
    axis = math.cos(theta) * i + math.sin(theta) * j
    return np.sign(np.sin(2.0 * math.pi * freq * axis / size + phase) + 1e-12)


def texture_pattern(size: int, phase: float = 0.0) -> np.ndarray:
    i, j = _grid(size)
    r = np.sqrt((i - size / 2.0) ** 2 + (j - size / 2.0) ** 2)
    return np.sign(np.sin(2.0 * math.pi * 10.0 * r / size + phase) + 1e-12)


def marker_pattern(size: int) -> np.ndarray:
    i, j = _grid(size)
    return np.where((i + j) % 2 == 0, 1.0, -1.0)


def pattern_distances(spec: SynthSpec) -> float:
    """Smallest pairwise RMS distance between class signatures."""
    patterns = [class_pattern(c, spec.class_count, spec.image_size) for c in range(spec.class_count)]
    worst = math.inf
    for a in range(len(patterns)):
        for b in range(a + 1, len(patterns)):
            dist = float(np.sqrt(np.mean((patterns[a] - patterns[b]) ** 2)))
            worst = min(worst, dist)
    return worst


@dataclass
class StudyLatent:
    class_idx: int
    severity_idx: int
    texture_idx: int
    marker_idx: int


@functools.lru_cache(maxsize=64)
def _unit_pattern(build, *args) -> np.ndarray:
    """``build(*args)``, read-only, since later calls share it; ``build`` is one of the ``*_pattern`` builders."""
    pattern = build(*args)
    pattern.flags.writeable = False
    return pattern


def render_image(latent: StudyLatent, spec: SynthSpec, view: str, rng: np.random.Generator) -> np.ndarray:
    """A fresh image: a noise draw from ``rng`` plus the base ``0.5 + a*P (+ t*T) (+ m*M)``, clipped to [0, 1].

    ``P``, ``T`` and ``M`` come from ``_unit_pattern``, a per-process cache bounded by its ``maxsize`` that
    holds unit patterns only: the amplitudes are read from ``SEVERITIES``, ``TEXTURES`` and ``MARKERS`` on
    each call, so patching those tables changes later renders. A zero texture or marker amplitude skips
    its term. The base is added to the noise draw and the sum clipped, both in place.
    """
    size = spec.image_size
    phase = VIEW_PHASES[view]
    _, amplitude = SEVERITIES[latent.severity_idx]
    _, tex_amp = TEXTURES[latent.texture_idx]
    _, marker_amp = MARKERS[latent.marker_idx]
    base = 0.5 + amplitude * _unit_pattern(class_pattern, latent.class_idx, spec.class_count, size, phase)
    if tex_amp:
        base += tex_amp * _unit_pattern(texture_pattern, size, phase)
    if marker_amp:
        base += marker_amp * _unit_pattern(marker_pattern, size)
    img = rng.normal(0.0, spec.noise_level, size=(size, size))
    img += base
    np.maximum(img, 0.0, out=img)
    return np.minimum(img, 1.0, out=img)


def attribute_sentences(latent: StudyLatent) -> list[str]:
    severity, _ = SEVERITIES[latent.severity_idx]
    texture, _ = TEXTURES[latent.texture_idx]
    marker, _ = MARKERS[latent.marker_idx]
    return [
        f"The extent is {severity}.",
        f"The pattern appears {texture}.",
        "A calibration grid is superimposed." if marker else "No calibration grid is seen.",
    ]


def study_texts(latent: StudyLatent, spec: SynthSpec, engine: PromptEngine, rng) -> tuple[str, str]:
    class_name = spec.class_names[latent.class_idx]
    attrs = attribute_sentences(latent)
    findings = " ".join([engine.render_prompt(class_name, "positive", rng)] + attrs)
    other = spec.class_names[int(rng.integers(spec.class_count - 1))]
    if other == class_name:
        other = spec.class_names[-1]
    impression = " ".join(
        [engine.render_prompt(class_name, "positive", rng)]
        + [engine.render_prompt(other, "negative", rng)]
        + attrs
    )
    return findings, impression


def _split_counts(total: int, classes: int) -> list[int]:
    base, extra = divmod(total, classes)
    return [base + (1 if c < extra else 0) for c in range(classes)]


def generate_split(
    spec: SynthSpec, split: str, count: int, seed: int, engine: PromptEngine
) -> list[Study]:
    if split not in _SPLITS:
        raise ValueError(f"split must be one of {list(_SPLITS)}, got {split!r}")
    if isinstance(count, bool) or not isinstance(count, int):  # True would build one study, a float fail in range
        raise ValueError(f"count must be an int, got {count!r}")
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    for name in spec.class_names:  # a report may affirm or negate any class, whatever the seed and count
        for value in ("positive", "negative"):
            if (name, value) not in engine.prompts:
                raise NoTemplateError(f"class {name!r} has no {value} prompt set")
    rng = np.random.default_rng(np.random.SeedSequence([seed, _SPLITS[split]]))
    studies = []
    for class_idx, n_class in enumerate(_split_counts(count, spec.class_count)):
        labels = {name: ("positive" if idx == class_idx else "negative") for idx, name in enumerate(spec.class_names)}
        for _ in range(n_class):
            # rng.uniform() with its defaults returns this same draw
            label_only = split != "test" and rng.random() < spec.label_only_fraction
            multi = rng.random() < spec.multi_image_fraction
            views = ["PA", "LATERAL"] if multi else [("PA", "AP")[int(rng.integers(2))]]
            latent = StudyLatent(
                class_idx=class_idx,
                severity_idx=int(rng.integers(len(SEVERITIES))),
                texture_idx=int(rng.integers(len(TEXTURES))),
                marker_idx=int(rng.integers(len(MARKERS))),
            )
            images = [StudyImage(render_image(latent, spec, view, rng), view) for view in views]
            findings = impression = None
            if not label_only:
                findings, impression = study_texts(latent, spec, engine, rng)
            studies.append(
                Study(
                    id=f"{split}-{len(studies):05d}",
                    images=images,
                    findings=findings,
                    impression=impression,
                    labels=dict(labels),  # Study.labels is mutable: every study owns its map
                )
            )
    return studies


def generate_dataset(
    spec: SynthSpec, seed: int, out_dir: str | Path, engine: PromptEngine | None = None
) -> dict[str, Path]:
    """Write the train, valid and test splits to ``out_dir/{split}.npz`` with ``save_split``; returns their paths."""
    engine = engine or PromptEngine.default()
    min_dist = pattern_distances(spec)
    if min_dist < MIN_PATTERN_DISTANCE:
        raise ValueError(f"class signatures too close: min RMS distance {min_dist:.3f} < {MIN_PATTERN_DISTANCE}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for split, count in (
        ("train", spec.train_studies),
        ("valid", spec.valid_studies),
        ("test", spec.test_studies),
    ):
        studies = generate_split(spec, split, count, seed, engine)
        path = out_dir / f"{split}.npz"
        save_split(path, studies)
        paths[split] = path
    return paths
