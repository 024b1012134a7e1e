"""Per-layer spans timed from outside the program.

The tracer replaces, for the duration of a ``with`` block, the names that one
``studyclip`` module calls in another with wrappers that record a span (name,
start, end, parent span) in memory. ``training`` and ``sampling`` import
functions by name, so each name is patched in the calling module's namespace;
``PromptEngine`` methods are patched on the class. Every original is restored
on exit. A target missing from the program (for instance after a refactor) is
reported as a warning and its metrics are left out; the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np


def _rows(counters, name, args, result):
    counters[f"{name}.rows"] += len(args[1])


def _sampled_batch(counters, name, args, result):
    counters["sampling.studies"] += len(result.pairs)
    for pair in result.pairs:
        counters[f"sampling.text_source.{pair.text_source}"] += 1
        counters["sampling.image2_augmented"] += int(pair.image2_augmented)


def _sampled_single(counters, name, args, result):
    counters["sampling.studies"] += 1


# metric name -> (call sites as "module:attribute", counter hook or None)
TARGETS = {
    "encoders.encode_image_batch": (("training:encode_image_batch", "evalrun:encode_image_batch"), _rows),
    "encoders.image_backward": (("training:image_backward",), None),
    "encoders.encode_text_batch": (("training:encode_text_batch", "evalrun:encode_text_batch"), _rows),
    "encoders.text_backward": (("training:text_backward",), None),
    "encoders.tokenize": (("training:tokenize", "evalrun:tokenize"), None),
    "augment.augment_image": (("sampling:augment_image", "training:augment_image"), None),
    "augment.clahe": (("augment:clahe",), None),
    "augment.resize_bilinear": (
        ("augment:resize_bilinear", "sampling:resize_bilinear", "evalrun:resize_bilinear"),
        None,
    ),
    "augment.augment_text": (("sampling:augment_text", "training:augment_text"), None),
    "prompts.render_prompt": (("prompts:PromptEngine.render_prompt",), None),
    "prompts.build_study_text": (("prompts:PromptEngine.build_study_text",), None),
    "sampling.make_batch": (("training:make_batch",), _sampled_batch),
    "sampling.sample_single": (("training:sample_single",), _sampled_single),
    "losses.objective": (("training:total_loss", "training:clip_loss"), None),
    "training.optim_step": (("training:optim_step",), None),
    "training.validation_loss": (("training:validation_loss",), None),
    "training.train": (("training:train",), None),
    "evalrun.eval_image_embeddings": (("evalrun:eval_image_embeddings",), None),
    "evalrun.encode_texts": (("evalrun:encode_texts",), None),
    "metrics.recall_at_k": (("evalrun:recall_at_k",), None),
    "metrics.zero_shot": (("evalrun:zero_shot_multiclass", "evalrun:zero_shot_binary"), None),
    "metrics.auc_exact": (("metrics:auc_exact",), None),
    "synth.generate_split": (("synth:generate_split",), None),
}

# The per-layer metrics a traced pass reports, by kind.
SELF_TIME = (
    "encoders.encode_image_batch", "encoders.image_backward", "encoders.encode_text_batch",
    "encoders.text_backward", "augment.augment_image", "augment.resize_bilinear",
    "augment.augment_text", "prompts.render_prompt", "sampling.make_batch", "sampling.sample_single",
    "losses.objective", "training.optim_step", "training.validation_loss",
    "evalrun.eval_image_embeddings", "evalrun.encode_texts", "metrics.recall_at_k",
    "metrics.zero_shot", "metrics.auc_exact", "synth.generate_split",
)
CALLS = (
    "encoders.tokenize", "augment.augment_image", "augment.clahe", "prompts.render_prompt",
    "prompts.build_study_text", "losses.objective", "training.validation_loss",
    "evalrun.eval_image_embeddings",
)
_SAMPLERS = ("sampling.make_batch", "sampling.sample_single")
# counter -> the targets whose hooks feed it
COUNTERS = {
    "encoders.encode_image_batch.rows": ("encoders.encode_image_batch",),
    "encoders.encode_text_batch.rows": ("encoders.encode_text_batch",),
    "sampling.studies": _SAMPLERS,
    "sampling.text_source.sections": _SAMPLERS,
    "sampling.text_source.section_aug": _SAMPLERS,
    "sampling.text_source.prompts": _SAMPLERS,
    "sampling.image2_augmented": _SAMPLERS,
}
# Spans called straight from a training step that assemble its batch.
ASSEMBLY = ("sampling.make_batch", "sampling.sample_single", "augment.augment_image", "augment.augment_text")


class Tracer:
    """Patches ``TARGETS`` while active and keeps their spans in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: Counter = Counter()
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for name, (sites, hook) in TARGETS.items():
                found = False
                for site in sites:
                    owner, attr = self._resolve(site)
                    if owner is None:
                        continue
                    original = owner.__dict__[attr]
                    self._restore.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(name, original, hook))
                    found = True
                if not found:
                    self.absent.add(name)
                    print(f"perfbench: warning: no call site of {name} found; its metrics are absent",
                          file=sys.stderr)
        except BaseException:
            self._unpatch()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._unpatch()

    def _unpatch(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _resolve(self, site: str):
        module_name, path = site.split(":")
        try:
            owner = importlib.import_module(f"studyclip.{module_name}")
        except ImportError:
            return None, None
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        if owner is None or attr not in getattr(owner, "__dict__", {}):
            return None, None
        return owner, attr

    def _wrap(self, name, fn, hook):
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, name, args, result)
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far, minus absent targets."""
        inclusive: dict[str, float] = defaultdict(float)
        child = [0.0] * len(self.spans)
        calls: Counter = Counter()
        for name, start, end, parent in self.spans:
            calls[name] += 1
            inclusive[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            self_time[name] += end - start - inner

        out: dict[str, float] = {}
        for name in SELF_TIME:
            if name not in self.absent:
                out[f"{name}.s"] = self_time[name]
        for name in CALLS:
            if name not in self.absent:
                out[f"{name}.calls"] = float(calls[name])
        for key, owners in COUNTERS.items():
            if any(owner not in self.absent for owner in owners):
                out[key] = float(self.counters[key])
        if "training.train" not in self.absent:
            out["training.train.self_s"] = self_time["training.train"]
            if "training.optim_step" not in self.absent:
                out.update(self._step_quantiles())
            out.update(self._wait_share(inclusive))
        return out

    def _step_quantiles(self) -> dict[str, float]:
        """Time between successive optimizer-step returns within each train call."""
        ends_by_train: dict[int, list[float]] = defaultdict(list)
        for name, _, end, parent in self.spans:
            if name == "training.optim_step":
                ends_by_train[parent].append(end)
        gaps = np.concatenate([np.diff(ends) for ends in ends_by_train.values()] or [np.empty(0)])
        if gaps.size == 0:
            return {}
        return {
            "training.step_ms.p50": 1e3 * float(np.percentile(gaps, 50)),
            "training.step_ms.p90": 1e3 * float(np.percentile(gaps, 90)),
        }

    def _wait_share(self, inclusive) -> dict[str, float]:
        """Share of training-step time (train minus validation) spent assembling batches."""
        train_ids = {i for i, span in enumerate(self.spans) if span[0] == "training.train"}
        assembly = sum(
            end - start
            for name, start, end, parent in self.spans
            if parent in train_ids and name in ASSEMBLY
        )
        steps = inclusive["training.train"] - inclusive["training.validation_loss"]
        if steps <= 0 or all(name in self.absent for name in ASSEMBLY):
            return {}
        return {"sampling.wait_share": assembly / steps}
