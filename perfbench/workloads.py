"""The benchmark's workloads, kept as data.

Each workload names a ``SynthSpec`` (as keyword arguments), the
``TrainConfig`` overrides it trains with, an optional ablation variant from
``studyclip.metrics.DEFAULT_VARIANTS`` applied on top, and what its timed part
is: a full training run (``train``) or evaluation of a model trained during
set-up (``eval``). The workload seed feeds both split generation and
``TrainConfig.seed``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

# The default learning rate (5e-5) learns nothing on the synthetic task, so
# every workload trains at 5e-3. Patience >= epochs disables early stopping,
# which makes every training run do the same epochs and steps.
PAPER_CONFIG = {
    "learning_rate": 5e-3,
    "epochs": 15,
    "early_stop_patience": 15,
    "sampling_mode": "pairs",
    "augment": True,
    "lambda_icl": 1.0,
    "lambda_tcl": 0.5,
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: dict = field(default_factory=dict)
    config: dict = field(default_factory=lambda: dict(PAPER_CONFIG))
    variant: str | None = None
    timed: str = "train"  # train | eval


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper_full",
            "the paper's objective on the default synthetic spec: every training layer, as users run it",
        ),
        Workload(
            "clip_single",
            "single view, no augmentation, one loss pairing: the bypass for augment, prompt and loss changes",
            variant="clip_only",
        ),
        # Not gated in BENCHMARK.json: its evaluation rate runs in a fast or a
        # slow mode depending on the seed, which spreads it beyond the bound.
        Workload(
            "labels_hires",
            "label-only 128px studies: prompt rendering and augment-plus-resize dominate batch assembly",
            spec={"image_size": 128, "label_only_fraction": 1.0, "multi_image_fraction": 0.0},
        ),
        Workload(
            "eval_2k",
            "2,000 test studies scored by a model trained during set-up: forward-only encoders and metrics",
            spec={"test_studies": 2000},
            config={**PAPER_CONFIG, "epochs": 2, "early_stop_patience": 2},
            timed="eval",
        ),
    )
}

# A few-second version of every workload, for the smoke test.
TINY_SPEC = {"train_studies": 16, "valid_studies": 8, "test_studies": 10}
TINY_CONFIG = {"epochs": 2, "early_stop_patience": 2, "batch_studies": 8}


def tiny(workload: Workload) -> Workload:
    spec = {**workload.spec, **TINY_SPEC}
    if workload.timed == "eval":
        spec["test_studies"] = 40
    return replace(workload, spec=spec, config={**workload.config, **TINY_CONFIG})
