"""Synthetic study generator: solvable-but-not-trivial contrastive data.

Each study carries one latent class plus three latent attributes (severity,
texture, marker). The image is a binary oriented stripe pattern whose
orientation encodes the class, amplitude encodes severity, and stripe duty
cycle encodes texture (thin versus even stripes, same orientation), with an
optional checkerboard marker and Gaussian noise on top; the noise level is
the difficulty knob. Views of the same study differ by a phase offset. Texts
mention the class (through the prompt grammar) and the attributes (through
fixed sentence patterns), so exact-study retrieval is learnable while
within-class confusion remains.

The default five classes mirror a 5-way evaluation subset; label-only studies
stand in for image-label data, report-bearing studies for image-text data.
Every study's label map names every class: its latent class positive, all
others negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .prompts import PromptEngine
from .studies import Study, StudyImage, save_studies

DEFAULT_CLASSES = ["Atelectasis", "Cardiomegaly", "Consolidation", "Edema", "Pleural Effusion"]

SEVERITIES = [("minimal", 0.08), ("moderate", 0.22), ("severe", 0.36)]
TEXTURES = [("smooth", 0.0), ("coarse", 0.55)]  # stripe duty-cycle threshold
MARKERS = [(False, 0.0), (True, 0.14)]
VIEW_PHASES = {"PA": 0.0, "AP": math.pi / 3.0, "LATERAL": 2.0 * math.pi / 3.0}
_SPLITS = {"train": 0, "valid": 1, "test": 2}  # split name -> its stream's key


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
    min_pattern_distance: float = 0.15

    def __post_init__(self):
        if len(self.class_names) < 2:
            raise ValueError("need at least two classes")
        repeated = [name for k, name in enumerate(self.class_names) if name in self.class_names[:k]]
        if repeated:  # a study's label map would keep only one entry per name
            raise ValueError(f"class name {repeated[0]!r} is repeated")
        if not 0.0 <= self.label_only_fraction <= 1.0:
            raise ValueError("label_only_fraction must lie in [0, 1]")
        if not 0.0 <= self.multi_image_fraction <= 1.0:
            raise ValueError("multi_image_fraction must lie in [0, 1]")
        if not (math.isfinite(self.noise_level) and self.noise_level >= 0.0):
            raise ValueError(f"noise_level must be finite and non-negative, got {self.noise_level}")
        if self.image_size < 1:
            raise ValueError(f"image_size must be at least 1, got {self.image_size}")
        for name in ("train_studies", "valid_studies", "test_studies"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")

    @property
    def class_count(self) -> int:
        return len(self.class_names)


def class_pattern(class_idx: int, class_count: int, size: int, phase: float = 0.0) -> np.ndarray:
    """Binary oriented stripes; orientation is the class signature.

    Square waves put an edge inside nearly every 3x3 patch, so one conv stage
    with global pooling sees a first-order, orientation-selective signal.
    """
    theta = math.pi * class_idx / class_count
    freq = 6.0
    i, j = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    axis = math.cos(theta) * i + math.sin(theta) * j
    return np.sign(np.sin(2.0 * math.pi * freq * axis / size + phase) + 1e-12)


def texture_pattern(size: int, phase: float = 0.0) -> np.ndarray:
    i, j = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    r = np.sqrt((i - size / 2.0) ** 2 + (j - size / 2.0) ** 2)
    return np.sign(np.sin(2.0 * math.pi * 10.0 * r / size + phase) + 1e-12)


def marker_pattern(size: int) -> np.ndarray:
    i, j = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
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


def render_image(latent: StudyLatent, spec: SynthSpec, view: str, rng: np.random.Generator) -> np.ndarray:
    size = spec.image_size
    phase = VIEW_PHASES[view]
    _, amplitude = SEVERITIES[latent.severity_idx]
    _, tex_amp = TEXTURES[latent.texture_idx]
    _, marker_amp = MARKERS[latent.marker_idx]
    img = 0.5 + amplitude * class_pattern(latent.class_idx, spec.class_count, size, phase)
    if tex_amp:
        img = img + tex_amp * texture_pattern(size, phase)
    if marker_amp:
        img = img + marker_amp * marker_pattern(size)
    img = img + rng.normal(0.0, spec.noise_level, size=(size, size))
    return np.clip(img, 0.0, 1.0)


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


def study_labels(latent: StudyLatent, spec: SynthSpec) -> dict[str, str]:
    return {
        name: ("positive" if idx == latent.class_idx else "negative")
        for idx, name in enumerate(spec.class_names)
    }


def _split_counts(total: int, classes: int) -> list[int]:
    base, extra = divmod(total, classes)
    return [base + (1 if c < extra else 0) for c in range(classes)]


def generate_split(
    spec: SynthSpec, split: str, count: int, seed: int, engine: PromptEngine
) -> list[Study]:
    if split not in _SPLITS:
        raise ValueError(f"split must be one of {list(_SPLITS)}, got {split!r}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, _SPLITS[split]]))
    studies = []
    counts = _split_counts(count, spec.class_count)
    index = 0
    for class_idx, n_class in enumerate(counts):
        for _ in range(n_class):
            label_only = split != "test" and rng.uniform() < spec.label_only_fraction
            multi = rng.uniform() < spec.multi_image_fraction
            views = ["PA", "LATERAL"] if multi else [("PA", "AP")[int(rng.integers(2))]]
            latent = StudyLatent(
                class_idx=class_idx,
                severity_idx=int(rng.integers(len(SEVERITIES))),
                texture_idx=int(rng.integers(len(TEXTURES))),
                marker_idx=int(rng.integers(len(MARKERS))),
            )
            images = [StudyImage(render_image(latent, spec, view, rng), view) for view in views]
            findings = impression = None
            labels = study_labels(latent, spec)
            if not label_only:
                findings, impression = study_texts(latent, spec, engine, rng)
            studies.append(
                Study(
                    id=f"{split}-{index:05d}",
                    images=images,
                    findings=findings,
                    impression=impression,
                    labels=labels,
                )
            )
            index += 1
    return studies


def generate_dataset(
    spec: SynthSpec, seed: int, out_dir: str | Path, engine: PromptEngine | None = None
) -> dict[str, Path]:
    """Write train/valid/test JSONL splits plus graymap files; returns paths."""
    engine = engine or PromptEngine.default()
    min_dist = pattern_distances(spec)
    if min_dist < spec.min_pattern_distance:
        raise ValueError(
            f"class signatures too close: min RMS distance {min_dist:.3f} < {spec.min_pattern_distance}"
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for split, count in (
        ("train", spec.train_studies),
        ("valid", spec.valid_studies),
        ("test", spec.test_studies),
    ):
        studies = generate_split(spec, split, count, seed, engine)
        path = out_dir / f"{split}.jsonl"
        save_studies(path, studies, image_dir_name=f"images_{split}")
        paths[split] = path
    return paths
