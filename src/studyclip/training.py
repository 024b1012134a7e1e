"""Training loop: batches, table-driven objective, decoupled-decay adaptive updates.

Each step assembles one batch in the configured sampling mode through the
sampler's batch loop and scores it with the loss table of
``TrainConfig.loss_table``: the paper's six pairings for ``pairs``, the
single (u1, v1) pairing for the single modes. Each view the table names is
encoded once; the gradient of each view is propagated back through its
encoder, and parameter gradients accumulate in the fixed view order v1, v2,
u1, u2.

The optimizer is AdamW (bias-corrected moments, weight decay applied straight
to the parameters) with a linear-warmup cosine-annealed learning rate. The
learnable log-temperature is updated like any other parameter but excluded
from weight decay and clamped after every step. Validation loss is evaluated
once per epoch with a fixed sampling seed; the best-validation parameters are
kept and training stops after ``early_stop_patience`` epochs without
improvement.

Everything is seeded: identical config and data give bit-identical parameters
and logs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .augment import ImageAugConfig, TextAugConfig
from .encoders import (
    EncoderConfig,
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
    tokenize,
)
from .losses import CLIP_TABLE, EmbeddingBatch, Pairing, ShapeMismatch, Temperature, paper_table, total_loss
from .prompts import PromptEngine
from .sampling import SAMPLING_MODES, SamplerConfig, assemble_batch, make_batch, sample_single
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
    findings_first: bool = True
    text_aug_mode: str = "sentence_swap"
    backtranslation_command: str | None = None

    def __post_init__(self):
        positive = (
            "learning_rate", "weight_decay", "epochs", "warmup_epochs", "batch_studies",
            "early_stop_patience", "tau_init", "image_size", "conv_filters", "hidden_dim",
            "feature_dim", "token_dim", "embed_dim",
        )
        for name in positive:
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.epochs < 1 or self.batch_studies < 1:
            raise ConfigError("epochs and batch_studies must be at least 1")
        if self.warmup_epochs >= self.epochs:
            raise ConfigError("warmup_epochs must be smaller than epochs")
        if self.lambda_icl < 0 or self.lambda_tcl < 0:
            raise ConfigError("loss weights must be non-negative")
        if self.sampling_mode not in SAMPLING_MODES:
            raise ConfigError(f"unknown sampling_mode {self.sampling_mode!r}")
        if self.sampling_mode != "pairs" and (self.lambda_icl > 0 or self.lambda_tcl > 0):
            raise ConfigError(
                f"sampling_mode {self.sampling_mode!r} trains only the (u1, v1) pairing: "
                "lambda_icl and lambda_tcl must be 0"
            )

    def encoder_config(self) -> EncoderConfig:
        return EncoderConfig(
            conv_filters=self.conv_filters,
            hidden_dim=self.hidden_dim,
            feature_dim=self.feature_dim,
            token_dim=self.token_dim,
            embed_dim=self.embed_dim,
        )

    def sampler_config(self) -> SamplerConfig:
        return SamplerConfig(
            image_aug=ImageAugConfig(
                clahe_probability=self.clahe_probability, output_size=self.image_size
            ),
            text_aug=TextAugConfig(
                mode=self.text_aug_mode, backtranslation_command=self.backtranslation_command
            ),
            negative_sample_count=self.negative_sample_count,
            findings_first=self.findings_first,
            mode=self.sampling_mode,
            augment=self.augment,
        )

    def loss_table(self) -> tuple[Pairing, ...]:
        """The weighted view pairings of the objective for this sampling mode."""
        if self.sampling_mode == "pairs":
            return paper_table(self.lambda_icl, self.lambda_tcl)
        return CLIP_TABLE

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def load_train_config(path: str | Path, overrides: dict | None = None) -> TrainConfig:
    """Config from JSON or key=value lines; explicit overrides win."""
    text = Path(path).read_text(encoding="utf-8").strip()
    raw: dict = {}
    if text.startswith("{"):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as err:
            raise ConfigError(f"{path}: invalid JSON ({err})") from None
    else:
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            raw[key] = value
    if overrides:
        raw.update(overrides)
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> TrainConfig:
    known = {f.name: f for f in fields(TrainConfig)}
    kwargs = {}
    for key, value in raw.items():
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        kwargs[key] = _coerce(key, value)
    try:
        return TrainConfig(**kwargs)
    except TypeError as err:
        raise ConfigError(str(err)) from None


def _coerce(key: str, value):
    if not isinstance(value, str):
        return value
    text = value.strip()
    if text.lower() in ("none", "null"):
        return None
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    defaults = TrainConfig()
    current = getattr(defaults, key)
    if isinstance(current, bool):
        raise ConfigError(f"{key} expects true/false, got {text!r}")
    try:
        if isinstance(current, int):
            return int(text)
        if isinstance(current, float) or key in ("grad_clip",):
            return float(text)
        if key == "negative_sample_count":
            return int(text)
    except ValueError:
        raise ConfigError(f"cannot parse {key}={text!r}") from None
    return text


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


@dataclass
class OptimState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def optim_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: OptimState,
    lr: float,
    weight_decay: float,
    no_decay: tuple[str, ...] = ("log_tau",),
) -> None:
    """One AdamW update in place: adaptive step plus decoupled decay."""
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
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        m_hat = m / (1.0 - state.beta1**t)
        v_hat = v / (1.0 - state.beta2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + state.eps)
        if weight_decay > 0.0 and name not in no_decay:
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

    def to_jsonl(self) -> str:
        lines = []
        for rec in self.epochs:
            lines.append(json.dumps({"kind": "epoch", **rec.__dict__}, sort_keys=True))
        for rec in self.steps:
            lines.append(json.dumps({"kind": "step", **rec.__dict__}, sort_keys=True))
        return "\n".join(lines) + "\n"


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
        if engine.has_prompt(cls, value):
            texts.extend(sorted(engine.prompt_set(cls, value).sentences))
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


def _batch_loss(model: TrainedModel, batch, table: tuple[Pairing, ...], with_grads: bool):
    """Forward (and optionally backward) for one batch, encoding each view the table names once."""
    img_p, txt_p = model.image_params(), model.text_params()
    named = {name for row in table for name in row[:2]}
    views, caches = {}, {}
    for name, (attr, prefix) in VIEWS.items():
        if name not in named:
            continue
        data = getattr(batch, attr)
        if prefix == "img":
            emb, caches[name] = encode_image_batch(img_p, data)
            views[name] = EmbeddingBatch(emb, "image")
        else:
            emb, caches[name] = encode_text_batch(txt_p, [tokenize(t, model.vocab) for t in data])
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


def _sample_batch(studies, sampler_cfg: SamplerConfig, engine, seed: int):
    """The batch ``make_batch`` gives, with single modes sampled through this module's names.

    perfbench times the names ``training`` calls: passing ``sample_single`` from here keeps
    its per-study span ``sampling.sample_single``. Once the benchmark drops that span, call
    ``make_batch`` for every mode.
    """
    if sampler_cfg.mode == "pairs":
        return make_batch(studies, sampler_cfg, engine, seed)
    return assemble_batch(studies, sample_single, sampler_cfg, engine, seed)


def validation_loss(model: TrainedModel, studies, cfg: TrainConfig, engine) -> float:
    """Mean batch loss over the validation set with a fixed sampling seed."""
    val_seed = cfg.seed + 7919  # fixed offset: same batches every epoch
    sampler_cfg, table = cfg.sampler_config(), cfg.loss_table()
    values = []
    for start in range(0, len(studies), cfg.batch_studies):
        batch = _sample_batch(studies[start : start + cfg.batch_studies], sampler_cfg, engine, val_seed)
        out, _ = _batch_loss(model, batch, table, with_grads=False)
        values.append(out.value)
    return float(np.mean(values))


def train(
    dataset: list[Study],
    val_dataset: list[Study],
    cfg: TrainConfig,
    engine: PromptEngine | None = None,
) -> tuple[TrainedModel, TrainLog]:
    if not dataset or not val_dataset:
        raise ValueError("train and validation datasets must be non-empty")
    engine = engine or PromptEngine.default()
    enc_cfg = cfg.encoder_config()
    rng = np.random.default_rng(cfg.seed)
    vocab = build_vocab(corpus_texts(dataset, engine))
    img_params = init_image_params(rng, enc_cfg)
    txt_params = init_text_params(rng, len(vocab), enc_cfg)
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
    sampler_cfg, table = cfg.sampler_config(), cfg.loss_table()

    best_val = validation_loss(model, val_dataset, cfg, engine)
    best_params = {k: v.copy() for k, v in model.params.items()}
    log.epochs.append(EpochRecord(epoch=0, val_loss=best_val, best=True))
    epochs_since_best = 0

    step = 0
    order_rng = np.random.default_rng(cfg.seed + 1)
    for epoch in range(1, cfg.epochs + 1):
        order = order_rng.permutation(len(dataset))
        for start in range(0, len(dataset), cfg.batch_studies):
            chunk = [dataset[int(i)] for i in order[start : start + cfg.batch_studies]]
            batch = _sample_batch(chunk, sampler_cfg, engine, seed=cfg.seed * 1_000_003 + step)
            out, grads = _batch_loss(model, batch, table, with_grads=True)
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

        val = validation_loss(model, val_dataset, cfg, engine)
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
