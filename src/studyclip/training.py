"""Training loop: batches, table-driven objective, decoupled-decay adaptive updates.

``TrainConfig`` is the one settings object: the sampler reads its sampling
and augmentation fields, and with ``augment`` off no augmentation runs. It
checks every field against its declared type when it is built.

Each step assembles one batch in the configured sampling mode through the
sampler's batch loop and scores it with the loss table of
``TrainConfig.loss_table``: the paper's six pairings for ``pairs``, the single
(u1, v1) pairing for the single modes. A step reads only what its encoders
take, its ``_step_inputs``, built from the batch's sampled pairs: its k image
views as one (k*n, S, S) stack and its k text views as one (k*n, V) token bag
(``encoders.text_bag``) over the V tokens of the vocabulary, rows in view order
(v1, v2 and u1, u2); k is 2 for the paper's table and 1 for the single pairing.
Each modality is encoded once per step, and its view gradients go back through
one backward pass.

Training batches are assembled beside the compute, in the forked worker of
``assembly``. ``train`` first draws the whole step schedule (``_step_chunks``):
each step's study indices from the epoch permutations of ``seed + 1``, and its
sampling seed ``seed * 1_000_003 + step``. Every study draws from its own
``sampling.study_rng``, a counter-based stream keyed by (sampling seed, study
id), so a batch depends only on its indices and seed, and the worker's batches
are bit for bit those the main process would assemble. The worker starts
before the first validation pass and hands over each step's inputs, its text
views bagged with the vocabulary it inherited at the fork. On its first step
it tokenizes each distinct section text of the training set once, into a
table of token ids that every step looks its section texts up in; prompt
renderings and swapped sections are tokenized each time they are used. A
study that fails raises ``SamplingError`` naming the step and the study,
caused by the study's own exception, with a worker or without one.

The optimizer is AdamW (bias-corrected moments, weight decay applied straight
to the parameters). Its learning rate rises linearly over the first epoch,
when another follows, then anneals by a cosine to zero. The learnable
log-temperature is updated like any other parameter but excluded
from weight decay and clamped after every step. ``train`` lays every
parameter out in one contiguous float64 vector, with log(tau) in the last
slot, and ``model.params`` maps each name to a view of it. That map is the
only form of the parameters: the encoders read their ``img.*`` and ``txt.*``
arrays from it by name, and their backward passes return gradients under the
same names. A step checks each one's shape and joins them, log(tau)'s last,
in one ``np.concatenate`` in ``model.params`` order. ``np.isfinite`` checks
that vector (the failing parameter is looked up only when it fails), and
``optim_step`` updates parameters and the
flat moments in about a dozen whole-vector passes, in place, with the bits of
a per-parameter update: at this model size a step pays more in per-array call
overhead than in arithmetic. The best-validation snapshot is one vector copy,
and the returned model's ``params`` are views of that copy, which no later
step writes. Validation passes encode forward-only and compute only the loss
value (``_batch_loss`` without ``with_grads``). Validation loss is evaluated
before the first epoch and after each one, on validation batches assembled in
the main process and turned into step inputs once per ``train`` call, with a
fixed sampling seed: each study's draws depend only on that seed and its id,
so every epoch would assemble the same batches. The best-validation
parameters are kept and training stops after ``early_stop_patience`` epochs
without improvement.

Everything is seeded: identical config and data give bit-identical parameters
and logs on one BLAS kernel (under ``OPENBLAS_CORETYPE=Haswell`` on a
``SkylakeX`` CPU, the parameters differ in their last bits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .assembly import Worker
from .encoders import (
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
from .losses import CLIP_TABLE, Pairing, ShapeMismatch, paper_table, total_loss
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


@dataclass
class TrainConfig:
    learning_rate: float = 5e-5
    epochs: int = 15
    batch_studies: int = 32
    lambda_icl: float = 1.0
    lambda_tcl: float = 0.5
    seed: int = 0
    early_stop_patience: int = 3
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

    def __post_init__(self):
        for f in fields(self):
            value, kind = getattr(self, f.name), {"int": int, "float": float, "bool": bool, "str": str}[f.type]
            allowed = (int, float) if kind is float else kind
            # bool is an int subclass: an int field takes no bool, and a bool field only a bool
            if isinstance(value, bool) != (kind is bool) or not isinstance(value, allowed):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        for name in ("learning_rate", "early_stop_patience", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)}")
        smallest = {  # the conv stage's window is 3 x 3 pixels; a unit-norm embedding of 1 dim is only +-1
            "epochs": 1, "batch_studies": 1, "image_size": 3, "conv_filters": 1,
            "hidden_dim": 1, "feature_dim": 1, "token_dim": 1, "embed_dim": 2,
        }
        for name, least in smallest.items():
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be at least {least}, got {getattr(self, name)}")
        if self.lambda_icl < 0 or self.lambda_tcl < 0:
            raise ConfigError("loss weights must be non-negative")
        if self.sampling_mode not in SAMPLING_MODES:
            raise ConfigError(f"unknown sampling_mode {self.sampling_mode!r}")
        if self.sampling_mode != "pairs" and (self.lambda_icl > 0 or self.lambda_tcl > 0):
            raise ConfigError(
                f"sampling_mode {self.sampling_mode!r} trains only the (u1, v1) pairing: "
                "lambda_icl and lambda_tcl must be 0"
            )

    def loss_table(self) -> tuple[Pairing, ...]:
        """The weighted view pairings of the objective for this sampling mode."""
        if self.sampling_mode == "pairs":
            return paper_table(self.lambda_icl, self.lambda_tcl)
        return CLIP_TABLE


def config_from_dict(raw: dict) -> TrainConfig:
    """A ``TrainConfig`` from typed values: a string for a non-str field fails its type check."""
    known = {f.name for f in fields(TrainConfig)}
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
    return TrainConfig(**raw)


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
WEIGHT_DECAY = 1e-4
TAU_INIT = 0.07  # CLIP's initial softmax temperature
LOG_TAU_RANGE = (math.log(1e-3), math.log(10.0))  # log(tau) is clamped into this after every step


class OptimState:
    """AdamW state of one flat parameter vector: the moments m and v, the step count and two scratch vectors."""

    def __init__(self, size: int):
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.step = 0
        self._scratch = np.empty((2, size))


def optim_step(params: np.ndarray, grad: np.ndarray, state: OptimState, lr: float, weight_decay: float) -> None:
    """One AdamW update of the flat ``params`` in place: adaptive step plus decoupled decay.

    The last entry, log(tau), takes no weight decay. Every pass runs over the
    whole vector, in place or into the state's scratch, and rounds as the
    per-parameter update did: (1 - beta) * g, lr * m_hat / (sqrt(v_hat) + eps),
    then p - (lr * weight_decay) * p.
    """
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != params.shape:
        raise ShapeMismatch(f"grad shape {grad.shape} != param shape {params.shape}")
    state.step += 1
    t = state.step
    m, v, (a, b) = state.m, state.v, state._scratch
    m *= BETA1
    m += np.multiply(grad, 1.0 - BETA1, out=a)
    v *= BETA2
    np.multiply(grad, 1.0 - BETA2, out=a)
    a *= grad
    v += a
    np.divide(v, 1.0 - BETA2**t, out=a)  # v_hat
    np.sqrt(a, out=a)
    a += EPS
    np.divide(m, 1.0 - BETA1**t, out=b)  # m_hat
    b *= lr
    b /= a
    params -= b
    decayed = params[:-1]
    decayed -= np.multiply(decayed, lr * weight_decay, out=b[:-1])


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
    params: dict[str, np.ndarray]  # img.* / txt.* / log_tau, views of one flat vector with log_tau last

    @property
    def log_tau(self) -> float:
        return float(self.params["log_tau"])


def _param_views(flat: np.ndarray, like: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Views of consecutive segments of ``flat``, one per entry of ``like``, in order, with its names and shapes."""
    views, start = {}, 0
    for name, arr in like.items():
        views[name] = flat[start : start + arr.size].reshape(arr.shape)
        start += arr.size
    return views


def _views_per_modality(table: tuple[Pairing, ...]) -> int:
    """k, the views of each modality a step encodes: 2 when the table names v2 or u2, else 1 (v1 and u1)."""
    return 2 if {"v2", "u2"} & {name for row in table for name in row[:2]} else 1


def _step_inputs(
    batch: StudyBatch, k: int, vocab: Vocab, known: dict[str, list[int]] | None = None
) -> dict[str, np.ndarray]:
    """What a step encodes: ``img``, one stack of the pairs' v1 then their v2 images (v1 only when
    k = 1), and ``txt``, the token bag of the u1 then the u2 texts. A text in ``known``, a map of texts
    to their ``tokenize`` ids, takes its ids from there.
    """
    known = known or {}
    second = [(p.x2, p.t2) for p in batch.pairs] if k == 2 else []
    images, texts = zip(*[(p.x1, p.t1) for p in batch.pairs], *second)
    return {"img": np.stack(images), "txt": text_bag([known.get(t) or tokenize(t, vocab) for t in texts], len(vocab))}


def _batch_loss(
    model: TrainedModel, inputs: dict[str, np.ndarray], table: tuple[Pairing, ...], k: int, with_grads: bool
):
    """Forward (and optionally backward) for one step's ``_step_inputs``, with one encode per modality.

    The loss reads the k views of a modality as row slices of its embedding, and their gradients,
    joined in row order, go back through one backward pass. Returns the ``LossOutput`` and, with
    ``with_grads``, the flat gradient: the shape-checked gradients in ``model.params`` order, joined by one
    ``np.concatenate``; without it, a forward-only encode, a value-only loss and None.
    """
    img, img_cache = encode_image_batch(model.params, inputs["img"], with_grads)
    txt, txt_cache = encode_text_batch(model.params, inputs["txt"])
    n = len(img) // k
    views = {"v1": img, "u1": txt} if k == 1 else {"v1": img[:n], "v2": img[n:], "u1": txt[:n], "u2": txt[n:]}
    out = total_loss(views, model.log_tau, table, with_grads)
    if not with_grads:
        return out, None
    d_img, d_txt = out.grad_views["v1"], out.grad_views["u1"]
    if k == 2:
        d_img, d_txt = np.concatenate([d_img, out.grad_views["v2"]]), np.concatenate([d_txt, out.grad_views["u2"]])
    grads = {**image_backward(model.params, img_cache, d_img), **text_backward(model.params, txt_cache, d_txt)}
    grads["log_tau"] = out.grad_log_tau
    parts = []
    for name, param in model.params.items():
        g = np.asarray(grads[name])
        if g.shape != param.shape:
            raise ShapeMismatch(f"gradient for {name} has shape {g.shape}, its parameter {param.shape}")
        parts.append(g.ravel())
    return out, np.concatenate(parts)


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
    k = _views_per_modality(table)
    return float(np.mean([_batch_loss(model, batch, table, k, False)[0].value for batch in inputs]))


def _step_chunks(studies: int, cfg: TrainConfig) -> list[np.ndarray]:
    """The study indices of every step: each epoch's permutation, in batches of ``cfg.batch_studies``."""
    order_rng = np.random.default_rng(cfg.seed + 1)
    chunks = []
    for _ in range(cfg.epochs):
        order = order_rng.permutation(studies)
        chunks.extend(order[start : start + cfg.batch_studies] for start in range(0, studies, cfg.batch_studies))
    return chunks


def _step_worker(dataset: list[Study], cfg: TrainConfig, engine: PromptEngine, vocab: Vocab) -> Worker:
    """The assembly worker of a ``train`` call, producing the ``_step_inputs`` of every scheduled step.

    Its slots hold two fields, ``img`` and ``txt``, at k rows per study. The first step it produces
    builds the section token table, ``tokenize`` ids by distinct section text: in the worker, so the
    main process pays nothing for it. ``produce`` looks ``_sample_batch``, ``_step_inputs`` and
    ``tokenize`` up in this module when it runs.
    """
    chunks, k = _step_chunks(len(dataset), cfg), _views_per_modality(cfg.loss_table())
    sections: dict[str, list[int]] | None = None

    def produce(step: int) -> dict[str, np.ndarray]:
        nonlocal sections
        if sections is None:
            texts = dict.fromkeys(text for study in dataset for text in study.sections)
            sections = {text: tokenize(text, vocab) for text in texts}
        studies = [dataset[int(i)] for i in chunks[step]]
        try:
            batch = _sample_batch(studies, cfg, engine, seed=cfg.seed * 1_000_003 + step)
        except SamplingError as err:
            raise SamplingError(f"step {step}: {err}") from err.__cause__
        return _step_inputs(batch, k, vocab, sections)

    rows = [k * len(chunk) for chunk in chunks]
    layout = {"img": (max(rows), cfg.image_size, cfg.image_size), "txt": (max(rows), len(vocab))}
    return Worker(produce, rows, layout)


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
    params = {
        **init_image_params(rng, cfg),  # draws from rng before the text arrays do
        **init_text_params(rng, len(vocab), cfg),
        "log_tau": np.array(math.log(TAU_INIT)),
    }
    flat = np.concatenate([np.ravel(arr) for arr in params.values()])  # log_tau last
    model = TrainedModel(config=cfg, vocab=vocab, params=_param_views(flat, params))

    steps_per_epoch = math.ceil(len(dataset) / cfg.batch_studies)
    total_steps = steps_per_epoch * cfg.epochs
    warmup_steps = steps_per_epoch if cfg.epochs > 1 else 0
    state = OptimState(flat.size)
    log = TrainLog()
    table = cfg.loss_table()
    k = _views_per_modality(table)

    with _step_worker(dataset, cfg, engine, vocab) as worker:
        val_inputs = [_step_inputs(batch, k, vocab) for batch in validation_batches(val_dataset, cfg, engine)]
        best_val = validation_loss(model, val_inputs, table)
        best_flat = flat.copy()
        log.epochs.append(EpochRecord(epoch=0, val_loss=best_val, best=True))
        epochs_since_best = 0

        step = 0
        for epoch in range(1, cfg.epochs + 1):
            for _ in range(steps_per_epoch):
                inputs = worker.wait(step)
                out, grad = _batch_loss(model, inputs, table, k, with_grads=True)
                worker.release()  # the step is done with its slot
                if not math.isfinite(out.value):
                    raise NumericError(step=step, value=out.value)
                if not np.isfinite(grad).all():
                    name = next(n for n, g in _param_views(grad, model.params).items() if not np.isfinite(g).all())
                    raise NumericError(step=step, value=out.value, param=name)
                lr = lr_at(step, total_steps, warmup_steps, cfg.learning_rate)
                optim_step(flat, grad, state, lr, WEIGHT_DECAY)
                flat[-1] = min(max(flat[-1], LOG_TAU_RANGE[0]), LOG_TAU_RANGE[1])
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
                best_flat[...] = flat
                epochs_since_best = 0
            else:
                epochs_since_best += 1
            log.epochs.append(EpochRecord(epoch=epoch, val_loss=val, best=improved))
            if not improved and epochs_since_best >= cfg.early_stop_patience:
                break

    model.params = _param_views(best_flat, model.params)
    return model, log
