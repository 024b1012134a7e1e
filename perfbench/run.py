"""Synth -> train -> eval benchmark of studyclip.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_full --seed 0 --seconds 20 --trace 0

It imports ``studyclip`` from the checkout's ``src/`` and fails without a
result when that package is missing. With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and reports per-layer metrics. ``--workload all`` runs every workload
in its own process. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md
for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path
from types import SimpleNamespace

# BLAS on one thread. OpenBLAS worker threads keep spinning for about 0.13 s
# after each threaded call; in some processes, not others, this halved the
# speed of the main thread and of the calibration kernel, so runs of the same
# code fell into two modes. Set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from calibration import Clock  # noqa: E402
from workloads import WORKLOADS, Workload, tiny  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5  # set-ups per untraced run, at least; setup_s is their median
SETUP_SECONDS = 1.5  # ... and until this long has passed
EVAL_REPEATS = 5  # evaluations of each trained model on a training workload
RUN_LIMIT_S = 170.0  # a run, its fresh-process check included, ends before this
# timed end-to-end metric -> unit; a time is scaled by its factor, a rate divided by it
TIMED = {"setup_s": "s", "train_studies_per_s": "studies/s", "eval_studies_per_s": "studies/s"}
OUTCOME = ("param_sha256", "acc", "rsum", "auc_mean", "best_val_loss")
# quality result -> per-layer metric name and unit in a traced run
QUALITY_METRICS = {
    "acc": ("evalrun.acc", "share"),
    "rsum": ("evalrun.rsum", "%"),
    "auc_mean": ("evalrun.auc_mean", "AUC"),
    "best_val_loss": ("training.best_val_loss", "nats"),
}


def load_program() -> SimpleNamespace:
    """The studyclip modules from this checkout's src/, or exit with an error."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        modules = {
            name: importlib.import_module(f"studyclip.{name}")
            for name in ("evalrun", "metrics", "prompts", "synth", "training")
        }
    except ImportError as err:
        raise SystemExit(f"perfbench: cannot import studyclip from {src}: {err}") from None
    origin = Path(modules["training"].__file__).resolve().parent.parent
    if origin != src:
        raise SystemExit(f"perfbench: studyclip was imported from {origin}, not from {src}")
    return SimpleNamespace(**modules)


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var, "unset") for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


# ------------------------------------------------------------------ one pass


@dataclass
class SetUp:
    engine: object
    config: object
    train: list
    valid: list
    test: list
    classes: list[str]
    model: object = None  # trained during set-up on an eval workload


def train_config(lib, wl: Workload, seed: int):
    raw = dict(wl.config)
    if wl.variant:
        variants = {v.name: v for v in lib.metrics.DEFAULT_VARIANTS}
        raw.update(variants[wl.variant].overrides)
    raw["seed"] = seed
    return lib.training.config_from_dict(raw)


def set_up(lib, wl: Workload, seed: int) -> SetUp:
    """Grammar load and split generation."""
    engine = lib.prompts.PromptEngine.default()
    spec = lib.synth.SynthSpec(**wl.spec)
    splits = [
        lib.synth.generate_split(spec, split, count, seed, engine)
        for split, count in (("train", spec.train_studies), ("valid", spec.valid_studies), ("test", spec.test_studies))
    ]
    return SetUp(engine, train_config(lib, wl, seed), *splits, classes=lib.evalrun.positive_classes(splits[2]))


def planned_steps(s: SetUp) -> int:
    return s.config.epochs * math.ceil(len(s.train) / s.config.batch_studies)


def train_outcome(np, s: SetUp, model, log) -> dict:
    """Parameter hash and best validation loss; checks that no epoch was skipped."""
    steps, epochs = len(log.steps), len(log.epochs)
    if steps != planned_steps(s) or epochs != s.config.epochs + 1:
        raise AssertionError(f"training ran {steps} steps and {epochs} epoch records, "
                             f"expected {planned_steps(s)} and {s.config.epochs + 1}")
    digest = hashlib.sha256()
    for name in sorted(model.params):
        arr = np.ascontiguousarray(model.params[name])
        digest.update(f"{name}:{arr.dtype.str}:{arr.shape};".encode())
        digest.update(arr.tobytes())
    return {"param_sha256": digest.hexdigest(), "best_val_loss": min(e.val_loss for e in log.epochs)}


def evaluate(lib, np, s: SetUp, model, clock: Clock) -> tuple[dict, float, float]:
    """Zero-shot accuracy, RSUM and mean one-vs-rest AUC, with their raw and
    scaled wall time. Each call is scaled on its own: on 2,000 studies one
    evaluation takes seconds."""
    raw = scaled = 0.0

    def timed(fn, *args):
        nonlocal raw, scaled
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        raw += elapsed
        scaled += elapsed * clock.factor()
        return result

    res = timed(lib.evalrun.evaluate_model, model, s.test, s.engine)
    aucs = [timed(lib.evalrun.evaluate_binary, model, s.test, c, s.engine)["auc"] for c in s.classes]
    quality = {"acc": res["acc"], "rsum": res["rsum"], "auc_mean": float(np.mean(aucs))}
    if not (0.0 <= quality["acc"] <= 1.0 and 0.0 <= quality["rsum"] <= 300.0 and 0.0 <= quality["auc_mean"] <= 1.0):
        raise AssertionError(f"quality out of range: {quality}")
    return quality, raw, scaled


class Run:
    """Counts operations, collects timing samples, and checks every result
    against the first one: parameter hash and quality, bit for bit."""

    def __init__(self, lib, np, wl: Workload, seed: int, clock: Clock):
        self.lib, self.np, self.wl, self.seed, self.clock = lib, np, wl, seed, clock
        self.attempted = 0
        self.failed = 0
        self.reference: dict = {}
        self.problems: list[str] = []
        # metric -> [(raw wall-clock value, calibration factor)], see calibration.py
        self.samples: dict[str, list[tuple[float, float]]] = {name: [] for name in TIMED}
        self.epoch_marks: list[tuple[float, float, float]] | None = None  # a list inside epoch_clock

    def attempt(self, ops: int, fn, *args):
        """fn(*args), or None after counting the ops it stood for as failed."""
        self.attempted += ops
        try:
            return fn(*args)
        except Exception:
            self.failed += ops
            traceback.print_exc(file=sys.stderr)
            return None

    def check(self, label: str, values: dict) -> None:
        for key, value in values.items():
            if key not in self.reference:
                self.reference[key] = value
            elif value != self.reference[key]:
                self.problems.append(f"{label}: {key} = {value!r}, first result was {self.reference[key]!r}")

    def set_up(self) -> SetUp | None:
        """One set-up, counted as one operation; an eval workload also trains in it."""
        kernel_s = self.clock.total_s
        start = time.perf_counter()
        s = self.attempt(1, set_up, self.lib, self.wl, self.seed)
        if s is not None and self.wl.timed == "eval":
            s.model = self.train(s)
        elapsed = time.perf_counter() - start - (self.clock.total_s - kernel_s)
        self.samples["setup_s"].append((elapsed, self.clock.factor()))
        return s

    def train(self, s: SetUp):
        """One ``training.train`` call: train-rate samples, hash and best validation loss."""
        marks = self.epoch_marks
        if marks is not None:
            marks.clear()
        start = time.perf_counter()
        trained = self.attempt(planned_steps(s), self.lib.training.train, s.train, s.valid, s.config, s.engine)
        end = time.perf_counter()
        if trained is None:
            return None
        if marks is not None:
            samples = self.attempt(0, epoch_samples, s, marks, start, end)
            if samples is None:
                self.problems.append("train_studies_per_s could not be timed")
            else:
                self.samples["train_studies_per_s"] += samples
        outcome = self.attempt(0, train_outcome, self.np, s, *trained)
        if outcome is None:
            self.problems.append("training outcome check failed")
            return None
        self.check("training", outcome)
        return trained[0]

    def evaluate(self, s: SetUp, model) -> None:
        result = self.attempt(len(s.test), evaluate, self.lib, self.np, s, model, self.clock)
        if result is not None:
            quality, raw, scaled = result
            self.samples["eval_studies_per_s"].append((len(s.test) / raw, scaled / raw))
            self.check("evaluation", quality)

    def one_pass(self, s: SetUp, eval_repeats: int) -> None:
        """A training workload trains then evaluates; an eval workload evaluates."""
        model = s.model if self.wl.timed == "eval" else self.train(s)
        for _ in range(eval_repeats if model is not None else 0):
            self.evaluate(s, model)


def epoch_samples(s: SetUp, marks: list, start: float, end: float) -> list[tuple[float, float]]:
    """One train-rate sample per epoch, whose times add up to the whole ``train`` call.

    Successive marks bound an epoch: its training steps and its validation
    pass. The time outside every epoch (vocabulary and parameter set-up, the
    validation before the first epoch, and the return after the last) is
    spread evenly over the epochs. The calibration kernel, run at each mark,
    is left out. Each sample is (raw rate, factor), see ``Run.samples``.
    """
    epochs = s.config.epochs
    if len(marks) != epochs + 1:
        raise AssertionError(f"training.validation_loss returned {len(marks)} times, expected {epochs + 1}")
    (first, _, first_factor), (_, last, last_factor) = marks[0], marks[-1]
    outside_raw = (first - start) + (end - last)
    outside_scaled = (first - start) * first_factor + (end - last) * last_factor
    samples = []
    for (_, resumed, _), (returned, _, factor) in zip(marks, marks[1:]):
        raw = returned - resumed + outside_raw / epochs
        scaled = (returned - resumed) * factor + outside_scaled / epochs
        samples.append((len(s.train) / raw, scaled / raw))
    return samples


@contextlib.contextmanager
def epoch_clock(run: Run):
    """Marks each return of ``training.validation_loss`` for ``epoch_samples``.

    Each mark is (returned, resumed, factor of the time since the last mark);
    the calibration kernel runs between returned and resumed.
    """
    training = run.lib.training
    original = training.validation_loss  # no other clock: a rename must fail the run

    def marked(*args, **kwargs):
        result = original(*args, **kwargs)
        returned = time.perf_counter()
        factor = run.clock.factor()
        run.epoch_marks.append((returned, time.perf_counter(), factor))
        return result

    training.validation_loss = marked
    run.epoch_marks = []
    try:
        yield
    finally:
        training.validation_loss = original
        run.epoch_marks = None


def timed_loop(seconds: float, body) -> None:
    """Call body(i) until another call would likely overrun ``seconds``; at least twice."""
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        body(len(durations))
        durations.append(time.perf_counter() - t0)
        if len(durations) >= 2 and time.perf_counter() - start + statistics.median(durations) > seconds:
            return


# --------------------------------------------------------------- run modes


def measure(run: Run, seconds: float) -> dict:
    """Untraced run: the end-to-end metrics, each the median of its scaled samples."""
    s = None
    with epoch_clock(run):
        start = time.perf_counter()
        while len(run.samples["setup_s"]) < SETUP_REPEATS or time.perf_counter() - start < SETUP_SECONDS:
            s = run.set_up()
            if s is None:
                return {}
        repeats = 1 if run.wl.timed == "eval" else EVAL_REPEATS
        timed_loop(seconds, lambda _: run.one_pass(s, repeats))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("# samples calibration_kernel_s " + " ".join(f"{v:.4g}" for v in run.clock.kernel_s))
    out = {}
    for name, unit in TIMED.items():
        samples = run.samples[name]
        if not samples:
            return {}
        raw = [value for value, _ in samples]
        scaled = [value * factor if unit == "s" else value / factor for value, factor in samples]
        print(f"# samples {name} n={len(samples)} raw median {statistics.median(raw):.6g}; scaled "
              + " ".join(f"{v:.4g}" for v in scaled))
        out[name] = (statistics.median(scaled), unit)
    out["peak_rss_mb"] = (peak_rss_mb, "MB")
    return out


def measure_traced(run: Run, seconds: float) -> dict:
    """Traced run: untraced and traced passes in ABBA order, per-layer metrics.

    Per-layer times are raw wall time; ``trace.overhead`` compares scaled pass times.
    """
    from tracer import Tracer

    walls = {False: [], True: []}
    layers: list[dict] = []

    def one(i: int) -> None:
        traced = i % 4 in (1, 2)
        tracer = Tracer() if traced else contextlib.nullcontext()
        kernel_s = run.clock.total_s
        start = time.perf_counter()
        with tracer:
            s = run.set_up()
            if s is not None:
                run.one_pass(s, 1)
        elapsed = time.perf_counter() - start - (run.clock.total_s - kernel_s)
        walls[traced].append(elapsed * run.clock.factor())
        if traced:
            layers.append(tracer.metrics())

    timed_loop(seconds, one)
    out = {key: (statistics.median(m[key] for m in layers), layer_unit(key)) for key in layers[0]}
    out["trace.overhead"] = (statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0, "ratio")
    for key, (name, unit) in QUALITY_METRICS.items():
        if key in run.reference:
            out[name] = (run.reference[key], unit)
    return out


def layer_unit(key: str) -> str:
    if key.endswith((".s", ".self_s")):
        return "s"
    if key.startswith("training.step_ms"):
        return "ms"
    if key.endswith("wait_share"):
        return "share"
    if key.endswith(".rows"):
        return "rows"
    return "count"


def verify_in_fresh_process(run: Run, args, deadline: float) -> None:
    """A second process, with its own hash salt, must repeat the hash and quality."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--verify", "--workload", args.workload,
           "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    env = {**os.environ, "PYTHONHASHSEED": "random"}
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        run.problems.append("fresh process: timed out")
        return
    if proc.returncode != 0:
        run.problems.append(f"fresh process: exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return
    run.check("fresh process", json.loads(proc.stdout.strip().splitlines()[-1]))


def verify(run: Run) -> dict:
    """One set-up and pass, for the fresh-process check: hash and quality."""
    s = run.set_up()
    if s is not None:
        run.one_pass(s, 1)
    if run.failed or run.problems or set(run.reference) != set(OUTCOME):
        raise SystemExit(f"perfbench: verification pass failed: {run.problems}")
    return run.reference


def run_workload(args) -> int:
    started = time.perf_counter()
    lib = load_program()
    import numpy as np

    wl = WORKLOADS[args.workload]
    wl = tiny(wl) if args.tiny else wl
    run = Run(lib, np, wl, args.seed, Clock(enabled=not args.verify))
    if args.verify:
        print(json.dumps(verify(run)))
        return 0

    print("# env " + json.dumps(environment(np)))
    print("# workload " + json.dumps({"seed": args.seed, "trace": args.trace, **asdict(wl)}))
    metrics = measure_traced(run, args.seconds) if args.trace else measure(run, args.seconds)
    verify_in_fresh_process(run, args, started + RUN_LIMIT_S)
    if run.failed:
        run.problems.append(f"{run.failed} of {run.attempted} operations failed")
    if set(run.reference) != set(OUTCOME):
        run.problems.append(f"incomplete results: {sorted(run.reference)}")
    for problem in run.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    for key in OUTCOME:
        print(f"# {key} {run.reference.get(key)!r}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>14.6g} {unit}")
    correct = not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; their outputs, then one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print(f"## {name}")
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] &= proc.returncode == 0 and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="a few-second version of the workload")
    parser.add_argument("--verify", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
