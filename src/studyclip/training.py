"""Training loop: batches, table-driven objective, decoupled-decay adaptive updates.

``TrainConfig`` is the one settings object: the sampler reads its sampling
and augmentation fields, and with ``augment`` off no augmentation runs. It
checks every field against its declared type when it is built.

Each step assembles one batch in the configured sampling mode through the
sampler's batch loop and scores it with the loss table of
``TrainConfig.loss_table``: the paper's six pairings for ``pairs``, the
single (u1, v1) pairing for the single modes. A step reads only what its
encoders take, its ``_step_inputs``: for each view the table names, its
images, or its texts' (n, V) token bag (``encoders.text_bag``) over the
vocabulary of V tokens. Each named view is encoded once; the gradient of each
view is propagated back through its encoder, and parameter gradients
accumulate in the fixed view order v1, v2, u1, u2.

Training batches are assembled beside the compute, in one worker process. It
is forked with ``os.fork``, not spawned, so it reads the studies and the prompt
engine the main process already holds, with no pickling and no fresh import;
and it is no ``multiprocessing`` child, so ``train`` also runs inside a
daemonic process such as a ``multiprocessing`` pool worker. The worker always
leaves through ``os._exit``. ``train`` first draws the whole step schedule:
each step's study indices from the epoch permutations of ``seed + 1``, and
its sampling seed ``seed * 1_000_003 + step``. Every study draws from its own
``study_rng``, so a batch depends only on its indices and seed, and the
worker's batches are bit for bit those the main process would assemble. The
worker starts before the first validation pass, after the vocabulary is
built, and writes the step inputs of each step in order into a ring of
``SLOTS`` slots in one anonymous shared ``mmap``. A slot holds one fixed-size
float64 array per named view, tokenized and bagged with the vocabulary the
worker inherited at the fork: a batch of n studies at image size S fills
n x S x S of an image view and n x V of a text view. So the ring takes
``SLOTS`` x batch x 8 bytes times the sum over named views of S x S or V, and
its text part grows with the vocabulary, as the bags a step builds do. The
main process reads the inputs as read-only views of their slot, with no copy,
no unpickling and no tokenizing, and frees the slot once the step's loss and
gradients are computed; meanwhile the worker fills the other slots, up to
``SLOTS - 1`` steps ahead of the step being scored.
Assembly time varies from batch to batch (label-only studies render prompts,
single-image studies augment a second view), so the ring is deeper than the
two slots a lockstep needs: the worker banks batches during each validation
pass and on the cheap batches, and spends that lead on the slow ones.

Two semaphores count the filled and the free slots (``_wait_for_batch`` is
the main side's wait). Taking one whose slot is already filled needs no
system call, and the main process never blocks in a pipe read; pickling
whole batches through a pipe instead made every evaluation after a ``train``
call page-fault its heap back in. The worker runs on the CPUs the process
may use other than the one the main process last ran on before the fork
(where Linux says which). Left to the scheduler on a 2-CPU machine, the
worker, woken for each short single-view batch, at times shared the main
process's CPU while the other CPU stayed idle, and single-view training ran
about 5% slower than with assembly in the main process; kept off that CPU,
it ran about 35% faster. Slots signalled through a pipe had shown the same
loss.

A study that fails in the worker comes back through its slot, as a message
and the tail of its traceback: ``train`` raises ``SamplingError`` naming the
step and the study. A worker that dies makes ``train`` raise
``AssemblyError`` naming the step. Whenever ``train`` leaves, by return,
early stop or error, the worker is killed and reaped (``os.waitpid``). Where
``os.fork`` does not exist there is no worker: each step's inputs are
assembled in the main process, with the same bits.

The optimizer is AdamW (bias-corrected moments, weight decay applied straight
to the parameters) with a linear-warmup cosine-annealed learning rate. The
learnable log-temperature is updated like any other parameter but excluded
from weight decay and clamped after every step. Validation loss is evaluated
before the first epoch and after each one, on validation batches assembled
in the main process and turned into step inputs once per ``train`` call, with
a fixed sampling seed: each study draws from its own ``study_rng``, so every
epoch would assemble the same batches. The best-validation parameters are kept and
training stops after ``early_stop_patience`` epochs without improvement.

Everything is seeded: identical config and data give bit-identical parameters
and logs.
"""

from __future__ import annotations

import math
import mmap
import multiprocessing
import os
import signal
import traceback
from dataclasses import dataclass, field, fields

import numpy as np

from .encoders import (
    ImageEncoderParams,
    TextEncoderParams,
    Vocab,
    build_vocab,
    encode_image_batch,
    encode_text_batch,
    image_backward,
    init_image_params,
    init_text_params,
    text_backward,
    text_bag,
    tokenize,
)
from .losses import CLIP_TABLE, EmbeddingBatch, Pairing, ShapeMismatch, Temperature, paper_table, total_loss
from .prompts import PromptEngine
from .sampling import SAMPLING_MODES, SamplingError, StudyBatch, assemble_batch, make_batch, sample_single
from .studies import Study


class ConfigError(ValueError):
    pass


class NumericError(FloatingPointError):
    """A non-finite loss, or a non-finite gradient for the named parameter."""

    def __init__(self, step: int, value: float, param: str | None = None):
        what = f"gradient for {param}" if param else f"loss {value!r}"
        super().__init__(f"non-finite {what} at step {step}")
        self.step = step
        self.param = param


class AssemblyError(RuntimeError):
    """The batch assembly worker ended before it handed over the batch of a step."""

    def __init__(self, step: int, exitcode: int):
        super().__init__(f"batch assembly worker exited with code {exitcode} before step {step}")
        self.step = step
        self.exitcode = exitcode


@dataclass
class TrainConfig:
    learning_rate: float = 5e-5
    weight_decay: float = 1e-4
    epochs: int = 15
    warmup_epochs: int = 1
    batch_studies: int = 32
    lambda_icl: float = 1.0
    lambda_tcl: float = 0.5
    seed: int = 0
    early_stop_patience: int = 3
    grad_clip: float | None = None
    tau_init: float = 0.07
    # encoder dims
    image_size: int = 32
    conv_filters: int = 16
    hidden_dim: int = 32
    feature_dim: int = 64
    token_dim: int = 24
    embed_dim: int = 64
    # sampling
    sampling_mode: str = "pairs"  # pairs | study_single | single
    augment: bool = True
    clahe_probability: float = 0.5
    negative_sample_count: int | None = None
    backtranslation_command: str | None = None  # augment_text back-translates through it when set

    def __post_init__(self):
        for f in fields(self):
            value, kind = getattr(self, f.name), _field_kind(f)
            if value is None and f.type.endswith("| None"):
                continue
            allowed = (int, float) if kind is float else kind
            # bool is an int subclass: an int field takes no bool, and a bool field only a bool
            if isinstance(value, bool) != (kind is bool) or not isinstance(value, allowed):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        for name in ("learning_rate", "weight_decay", "warmup_epochs", "early_stop_patience", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)}")
        at_least_one = (
            "epochs", "batch_studies", "image_size", "conv_filters", "hidden_dim",
            "feature_dim", "token_dim", "embed_dim",
        )
        for name in at_least_one:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not self.tau_init > 0:
            raise ConfigError(f"tau_init must be positive, got {self.tau_init}")
        if self.warmup_epochs >= self.epochs:
            raise ConfigError("warmup_epochs must be smaller than epochs")
        if self.lambda_icl < 0 or self.lambda_tcl < 0:
            raise ConfigError("loss weights must be non-negative")
        if self.grad_clip is not None and not self.grad_clip > 0:
            raise ConfigError(f"grad_clip must be positive or None, got {self.grad_clip}")
        if self.sampling_mode not in SAMPLING_MODES:
            raise ConfigError(f"unknown sampling_mode {self.sampling_mode!r}")
        if self.sampling_mode != "pairs" and (self.lambda_icl > 0 or self.lambda_tcl > 0):
            raise ConfigError(
                f"sampling_mode {self.sampling_mode!r} trains only the (u1, v1) pairing: "
                "lambda_icl and lambda_tcl must be 0"
            )
        if not 0.0 <= self.clahe_probability <= 1.0:
            raise ConfigError(f"clahe_probability must lie in [0, 1], got {self.clahe_probability}")
        if self.negative_sample_count is not None and self.negative_sample_count < 0:
            raise ConfigError(
                f"negative_sample_count must be non-negative or None, got {self.negative_sample_count}"
            )

    def loss_table(self) -> tuple[Pairing, ...]:
        """The weighted view pairings of the objective for this sampling mode."""
        if self.sampling_mode == "pairs":
            return paper_table(self.lambda_icl, self.lambda_tcl)
        return CLIP_TABLE


def _field_kind(f) -> type:
    """The type a ``TrainConfig`` field declares, ``None`` aside."""
    return {"int": int, "float": float, "bool": bool, "str": str}[f.type.partition(" | ")[0]]


def config_from_dict(raw: dict) -> TrainConfig:
    known = {f.name: f for f in fields(TrainConfig)}
    kwargs = {}
    for key, value in raw.items():
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        kwargs[key] = _coerce(known[key], value)
    return TrainConfig(**kwargs)


def _coerce(f, value):
    """A string parsed as the field's declared type; "none" and "null" read as None."""
    if not isinstance(value, str):
        return value
    text = value.strip()
    if text.lower() in ("none", "null"):
        return None
    kind = _field_kind(f)
    if kind is bool:
        if text.lower() not in ("true", "false"):
            raise ConfigError(f"{f.name} expects true/false, got {text!r}")
        return text.lower() == "true"
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"cannot parse {f.name}={text!r}") from None


# ------------------------------------------------------------------- schedule


def lr_at(step: float, total_steps: int, warmup_steps: int, base_lr: float) -> float:
    """Linear warmup to base_lr, then cosine annealing to zero."""
    if step < 0 or step > total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    if warmup_steps > 0 and step < warmup_steps:
        return base_lr * step / warmup_steps
    span = max(total_steps - warmup_steps, 1)
    progress = (step - warmup_steps) / span
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


# ------------------------------------------------------------------ optimizer


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # AdamW moment decay rates and denominator guard
NO_DECAY = ("log_tau",)  # parameters exempt from weight decay


@dataclass
class OptimState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0


def optim_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: OptimState,
    lr: float,
    weight_decay: float,
) -> None:
    """One AdamW update in place: adaptive step plus decoupled decay, except for ``NO_DECAY``."""
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        g = np.asarray(g, dtype=np.float64)
        if g.shape != p.shape:
            raise ShapeMismatch(f"{name}: grad shape {g.shape} != param shape {p.shape}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        m_hat = m / (1.0 - BETA1**t)
        v_hat = v / (1.0 - BETA2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + EPS)
        if weight_decay > 0.0 and name not in NO_DECAY:
            p -= lr * weight_decay * p


# ------------------------------------------------------------------- logging


@dataclass
class StepRecord:
    step: int
    epoch: int
    mvs: float
    icl: float
    tcl: float
    total: float
    lr: float
    tau: float


@dataclass
class EpochRecord:
    epoch: int
    val_loss: float
    best: bool


@dataclass
class TrainLog:
    steps: list[StepRecord] = field(default_factory=list)
    epochs: list[EpochRecord] = field(default_factory=list)


# -------------------------------------------------------------------- trainer


def corpus_texts(studies: list[Study], engine: PromptEngine) -> list[str]:
    """Deterministic token corpus: report sections, prompt sets, eval prompts."""
    texts = []
    values_seen = set()
    for study in studies:
        texts.extend(study.sections)
        if study.labels:
            for cls, value in study.labels.items():
                if value in ("positive", "negative"):
                    values_seen.add((cls, value))
    for cls, value in sorted(values_seen):
        if (cls, value) in engine.prompts:
            texts.extend(sorted(engine.prompt_set(cls, value)))
    for cls in engine.classes:
        pos, neg = engine.eval_prompt_pair(cls, "simple")
        texts.extend([pos, neg])
    texts.extend(engine.eval_prompt_pair("Pneumonia", "rsna"))
    return texts


@dataclass
class TrainedModel:
    config: TrainConfig
    vocab: Vocab
    params: dict[str, np.ndarray]  # img.* / txt.* / log_tau

    def image_params(self) -> ImageEncoderParams:
        return ImageEncoderParams(**{k[4:]: v for k, v in self.params.items() if k.startswith("img.")})

    def text_params(self) -> TextEncoderParams:
        return TextEncoderParams(**{k[4:]: v for k, v in self.params.items() if k.startswith("txt.")})

    @property
    def log_tau(self) -> float:
        return float(self.params["log_tau"])


def _combined_params(img_params, txt_params, log_tau: float) -> dict[str, np.ndarray]:
    params: dict[str, np.ndarray] = {}
    for name, arr in img_params.arrays().items():
        params[f"img.{name}"] = arr
    for name, arr in txt_params.arrays().items():
        params[f"txt.{name}"] = arr
    params["log_tau"] = np.array(log_tau, dtype=np.float64)
    return params


# view name -> (StudyBatch field, parameter prefix), in gradient accumulation order
VIEWS = {"v1": ("x1", "img"), "v2": ("x2", "img"), "u1": ("t1", "txt"), "u2": ("t2", "txt")}


def _step_inputs(batch: StudyBatch, table: tuple[Pairing, ...], vocab: Vocab) -> dict[str, np.ndarray]:
    """What a step encodes: each view the table names, in ``VIEWS`` order, as its images or its texts' token bag."""
    named = {name for row in table for name in row[:2]}
    inputs = {}
    for name, (attr, prefix) in VIEWS.items():
        if name in named:
            view = getattr(batch, attr)
            inputs[name] = view if prefix == "img" else text_bag([tokenize(t, vocab) for t in view], len(vocab))
    return inputs


def _batch_loss(model: TrainedModel, inputs: dict[str, np.ndarray], table: tuple[Pairing, ...], with_grads: bool):
    """Forward (and optionally backward) for one step's ``_step_inputs``, encoding each view once."""
    img_p, txt_p = model.image_params(), model.text_params()
    views, caches = {}, {}
    for name, x in inputs.items():
        if VIEWS[name][1] == "img":
            emb, caches[name] = encode_image_batch(img_p, x)
            views[name] = EmbeddingBatch(emb, "image")
        else:
            emb, caches[name] = encode_text_batch(txt_p, x)
            views[name] = EmbeddingBatch(emb, "text")
    out = total_loss(views, Temperature(model.log_tau), table)
    if not with_grads:
        return out, None
    grads: dict[str, np.ndarray] = {}
    for name in views:
        prefix = VIEWS[name][1]
        if prefix == "img":
            view_grads = image_backward(img_p, caches[name], out.grad_views[name])
        else:
            view_grads = text_backward(txt_p, caches[name], out.grad_views[name])
        for param, g in view_grads.items():
            key = f"{prefix}.{param}"
            grads[key] = grads[key] + g if key in grads else g
    grads["log_tau"] = np.array(out.grad_log_tau)
    return out, grads


def _sample_batch(studies, cfg: TrainConfig, engine, seed: int):
    """The batch ``make_batch`` gives, with single modes sampled through this module's names.

    perfbench times the names ``training`` calls: passing ``sample_single`` from here keeps
    its per-study span ``sampling.sample_single``. Once the benchmark drops that span, call
    ``make_batch`` for every mode.
    """
    if cfg.sampling_mode == "pairs":
        return make_batch(studies, cfg, engine, seed)
    return assemble_batch(studies, sample_single, cfg, engine, seed)


def validation_batches(studies, cfg: TrainConfig, engine) -> list[StudyBatch]:
    """The validation set in batches of ``cfg.batch_studies``, sampled with a fixed seed.

    Every study draws from its own ``study_rng``, so these are the batches any
    epoch would assemble: ``train`` builds them once and scores them each epoch.
    """
    val_seed = cfg.seed + 7919  # fixed offset: same batches every epoch
    return [
        _sample_batch(studies[start : start + cfg.batch_studies], cfg, engine, val_seed)
        for start in range(0, len(studies), cfg.batch_studies)
    ]


def validation_loss(model: TrainedModel, inputs: list[dict[str, np.ndarray]], table: tuple[Pairing, ...]) -> float:
    """Mean batch loss over the ``_step_inputs`` of the validation batches.

    The mean is over batches, unweighted: a short last batch counts as much as
    a full one. Weighting by batch size would not make them comparable: an
    InfoNCE loss over n studies sits near log n at chance, so its scale depends
    on n. It would also change which epoch is best, and so the trained
    parameters.
    """
    return float(np.mean([_batch_loss(model, batch, table, False)[0].value for batch in inputs]))


# ------------------------------------------------------------ assembly worker

# Batches in the shared ring: one read by the step, up to SLOTS - 1 filled ahead by the worker.
# On paper_full (median train studies/s, seven seeds; three at depth 2) depth 3 gave 3,992,
# 4 gave 4,148, 6 gave 4,189 and 8 gave 4,168, against 3,649 at 2: 4 is the smallest depth
# within the run-to-run spread (~130) of the best. Each slot adds about 0.5 MB of touched pages.
SLOTS = 4
_ERROR_BYTES = 1 << 13  # room in a slot for a failure's message and its traceback's tail, half each
_POLL_S = 0.1  # a blocked wait checks this often that the other process is alive
_BATCH, _FAILED = 0, 1  # slot status


class _WorkerTraceback(Exception):
    """The traceback of a failure in the assembly worker, as text."""

    def __str__(self) -> str:
        return self.args[0]


class _BatchRing:
    """``SLOTS`` slots of step inputs in one anonymous shared mapping, and the semaphores counting them.

    A slot holds a header (status, studies, then a failure's message and traceback
    byte lengths), room for the failure's message and traceback, and one array per
    view the loss table names: (studies, size, size) images or a (studies, V) token bag.
    """

    def __init__(self, cfg: TrainConfig, studies: int, vocab_size: int, ctx):
        named = {name for row in cfg.loss_table() for name in row[:2]}
        shapes = {"img": (studies, cfg.image_size, cfg.image_size), "txt": (studies, vocab_size)}
        slot = np.dtype(
            [("header", np.int64, (4,)), ("error", np.uint8, (_ERROR_BYTES,))]
            + [(name, np.float64, shapes[prefix]) for name, (_, prefix) in VIEWS.items() if name in named],
            align=True,
        )
        self.slots = np.frombuffer(mmap.mmap(-1, SLOTS * slot.itemsize), dtype=slot)
        self.views = slot.names[2:]
        self.filled = ctx.Semaphore(0)
        self.free = ctx.Semaphore(SLOTS)

    def put(self, k: int, inputs: dict[str, np.ndarray]) -> None:
        n = len(inputs[self.views[0]])
        for name in self.views:
            self.slots[name][k, :n] = inputs[name]
        self.slots["header"][k] = (_BATCH, n, 0, 0)

    def put_error(self, k: int, err: Exception) -> None:
        message = str(err) if isinstance(err, SamplingError) else f"{type(err).__name__}: {err}"
        half = _ERROR_BYTES // 2
        message, tail = message.encode("utf-8")[:half], traceback.format_exc().encode("utf-8")[-half:]
        self.slots["error"][k, : len(message) + len(tail)] = np.frombuffer(message + tail, dtype=np.uint8)
        self.slots["header"][k] = (_FAILED, 0, len(message), len(tail))

    def get(self, k: int, step: int) -> dict[str, np.ndarray]:
        """The step inputs in slot k, as read-only views of the slot."""
        status, n, message_bytes, tail_bytes = self.slots["header"][k].tolist()
        if status == _FAILED:
            error = self.slots["error"][k, : message_bytes + tail_bytes].tobytes()
            message, tail = (part.decode("utf-8", "replace") for part in (error[:message_bytes], error[message_bytes:]))
            raise SamplingError(f"step {step}: {message}") from _WorkerTraceback(tail)
        inputs = {}
        for name in self.views:
            inputs[name] = self.slots[name][k, :n]
            inputs[name].flags.writeable = False
        return inputs


class _AssemblyWorker:
    """A forked process that writes the step inputs of each scheduled step, in order, into a ``_BatchRing``.

    Entering forks the worker; leaving kills it if it still runs, and reaps it. Where
    ``os.fork`` does not exist there is no worker and no ring: each step's inputs are
    assembled in the calling process.
    """

    def __init__(self, dataset: list[Study], cfg: TrainConfig, engine: PromptEngine, vocab: Vocab, chunks: list):
        self.dataset, self.cfg, self.engine, self.vocab, self.chunks = dataset, cfg, engine, vocab, chunks
        self.ring = None
        if hasattr(os, "fork"):
            studies = min(cfg.batch_studies, len(dataset))
            self.ring = _BatchRing(cfg, studies, len(vocab), multiprocessing.get_context("fork"))
        self.pid: int | None = None
        self.exitcode: int | None = None

    def inputs(self, step: int) -> dict[str, np.ndarray]:
        """The ``_step_inputs`` of ``step``, assembled in the calling process."""
        studies = [self.dataset[int(i)] for i in self.chunks[step]]
        batch = _sample_batch(studies, self.cfg, self.engine, seed=self.cfg.seed * 1_000_003 + step)
        return _step_inputs(batch, self.cfg.loss_table(), self.vocab)

    def poll(self) -> int | None:
        """The worker's exit code once it has ended, ``-signum`` if a signal ended it; else None."""
        if self.exitcode is None and self.pid is not None:
            pid, status = os.waitpid(self.pid, os.WNOHANG)
            if pid:
                self.exitcode = os.waitstatus_to_exitcode(status)
        return self.exitcode

    def release(self) -> None:
        """Frees the slot of the step just scored, for the worker to fill."""
        if self.ring is not None:
            self.ring.free.release()

    def _run(self, parent: int, parent_cpu: int | None) -> None:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the main process takes an interrupt and ends the worker
        others = set() if parent_cpu is None else os.sched_getaffinity(0) - {parent_cpu}
        if others:
            os.sched_setaffinity(0, others)  # off the main process's CPU: see the module docstring
        ring = self.ring
        for step in range(len(self.chunks)):
            while not ring.free.acquire(timeout=_POLL_S):
                if os.getppid() != parent:
                    return  # the main process is gone
            try:
                ring.put(step % SLOTS, self.inputs(step))
            except Exception as err:
                ring.put_error(step % SLOTS, err)
                ring.filled.release()
                return
            ring.filled.release()

    def __enter__(self) -> "_AssemblyWorker":
        if self.ring is not None:
            parent, parent_cpu = os.getpid(), _current_cpu()
            self.pid = os.fork()
            if self.pid == 0:  # the worker: it leaves through os._exit, never into the caller's frames
                code = 1
                try:
                    self._run(parent, parent_cpu)
                    code = 0
                except Exception:
                    traceback.print_exc()
                finally:
                    os._exit(code)
        return self

    def __exit__(self, *exc) -> None:
        if self.pid is not None and self.poll() is None:
            os.kill(self.pid, signal.SIGKILL)
            self.exitcode = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])


def _current_cpu() -> int | None:
    """The CPU this process last ran on, where the system says (Linux), else None."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    try:
        with open("/proc/self/stat") as stat:
            return int(stat.read().rsplit(")", 1)[1].split()[36])  # field 39, "processor"
    except (OSError, IndexError, ValueError):
        return None


def _wait_for_batch(worker: _AssemblyWorker, step: int) -> dict[str, np.ndarray]:
    """The step inputs of ``step``: waits until the worker has filled their slot, then reads it.

    The caller frees the slot (``worker.release``) once it is done with the inputs' views.
    Without a worker the inputs are assembled here.
    """
    ring = worker.ring
    if ring is None:
        return worker.inputs(step)
    while not ring.filled.acquire(timeout=_POLL_S):
        exitcode = worker.poll()
        if exitcode is not None and not ring.filled.acquire(block=False):
            raise AssemblyError(step, exitcode)
    return ring.get(step % SLOTS, step)


def _step_chunks(studies: int, cfg: TrainConfig) -> list[np.ndarray]:
    """The study indices of every step: each epoch's permutation, in batches of ``cfg.batch_studies``."""
    order_rng = np.random.default_rng(cfg.seed + 1)
    chunks = []
    for _ in range(cfg.epochs):
        order = order_rng.permutation(studies)
        chunks.extend(order[start : start + cfg.batch_studies] for start in range(0, studies, cfg.batch_studies))
    return chunks


def train(
    dataset: list[Study],
    val_dataset: list[Study],
    cfg: TrainConfig,
    engine: PromptEngine | None = None,
) -> tuple[TrainedModel, TrainLog]:
    if not dataset or not val_dataset:
        raise ValueError("train and validation datasets must be non-empty")
    engine = engine or PromptEngine.default()
    rng = np.random.default_rng(cfg.seed)
    vocab = build_vocab(corpus_texts(dataset, engine))
    img_params = init_image_params(rng, cfg)
    txt_params = init_text_params(rng, len(vocab), cfg)
    model = TrainedModel(
        config=cfg,
        vocab=vocab,
        params=_combined_params(img_params, txt_params, math.log(cfg.tau_init)),
    )

    steps_per_epoch = math.ceil(len(dataset) / cfg.batch_studies)
    total_steps = steps_per_epoch * cfg.epochs
    warmup_steps = steps_per_epoch * cfg.warmup_epochs
    state = OptimState()
    log = TrainLog()
    table = cfg.loss_table()

    with _AssemblyWorker(dataset, cfg, engine, vocab, _step_chunks(len(dataset), cfg)) as worker:
        val_inputs = [_step_inputs(batch, table, vocab) for batch in validation_batches(val_dataset, cfg, engine)]
        best_val = validation_loss(model, val_inputs, table)
        best_params = {k: v.copy() for k, v in model.params.items()}
        log.epochs.append(EpochRecord(epoch=0, val_loss=best_val, best=True))
        epochs_since_best = 0

        step = 0
        for epoch in range(1, cfg.epochs + 1):
            for _ in range(steps_per_epoch):
                inputs = _wait_for_batch(worker, step)
                out, grads = _batch_loss(model, inputs, table, with_grads=True)
                worker.release()  # the step is done with its slot
                if not math.isfinite(out.value):
                    raise NumericError(step=step, value=out.value)
                for name, g in grads.items():
                    if not np.isfinite(g).all():
                        raise NumericError(step=step, value=out.value, param=name)
                if cfg.grad_clip is not None:
                    norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
                    if norm > cfg.grad_clip:
                        scale = cfg.grad_clip / norm
                        grads = {k: g * scale for k, g in grads.items()}
                lr = lr_at(step, total_steps, warmup_steps, cfg.learning_rate)
                optim_step(model.params, grads, state, lr, cfg.weight_decay)
                model.params["log_tau"] = np.array(
                    Temperature(float(model.params["log_tau"])).clamped().log_tau
                )
                log.steps.append(
                    StepRecord(
                        step=step,
                        epoch=epoch,
                        mvs=out.components["mvs"],
                        icl=out.components.get("icl", 0.0),
                        tcl=out.components.get("tcl", 0.0),
                        total=out.value,
                        lr=lr,
                        tau=float(np.exp(model.params["log_tau"])),
                    )
                )
                step += 1

            val = validation_loss(model, val_inputs, table)
            improved = val < best_val
            if improved:
                best_val = val
                best_params = {k: v.copy() for k, v in model.params.items()}
                epochs_since_best = 0
            else:
                epochs_since_best += 1
            log.epochs.append(EpochRecord(epoch=epoch, val_loss=val, best=improved))
            if not improved and epochs_since_best >= cfg.early_stop_patience:
                break

    model.params = best_params
    return model, log
