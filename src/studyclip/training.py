"""Training loop: batches, total objective, decoupled-decay adaptive updates.

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
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .augment import ImageAugConfig, TextAugConfig, augment_image, augment_text
from .encoders import (
    EncoderConfig,
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
from .losses import EmbeddingBatch, LossWeights, ShapeMismatch, Temperature, clip_loss, total_loss
from .prompts import PromptEngine
from .sampling import SamplerConfig, make_batch, sample_single, study_rng
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
        if self.sampling_mode not in ("pairs", "study_single", "single"):
            raise ConfigError(f"unknown sampling_mode {self.sampling_mode!r}")

    def encoder_config(self) -> EncoderConfig:
        return EncoderConfig(
            image_size=self.image_size,
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
        )

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

    def image_params(self):
        from .encoders import ImageEncoderParams

        return ImageEncoderParams(**{k[4:]: v for k, v in self.params.items() if k.startswith("img.")})

    def text_params(self):
        from .encoders import TextEncoderParams

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


def _batch_loss(model: TrainedModel, batch, cfg: TrainConfig, with_grads: bool):
    """Forward (and optionally backward) for one assembled batch."""
    img_p, txt_p = model.image_params(), model.text_params()
    vocab = model.vocab
    temp = Temperature(model.log_tau)

    if cfg.sampling_mode == "pairs":
        v1, c_v1 = encode_image_batch(img_p, batch.x1)
        v2, c_v2 = encode_image_batch(img_p, batch.x2)
        u1, c_u1 = encode_text_batch(txt_p, [tokenize(t, vocab) for t in batch.t1])
        u2, c_u2 = encode_text_batch(txt_p, [tokenize(t, vocab) for t in batch.t2])
        out = total_loss(
            EmbeddingBatch(u1, "text"),
            EmbeddingBatch(u2, "text"),
            EmbeddingBatch(v1, "image"),
            EmbeddingBatch(v2, "image"),
            temp,
            LossWeights(cfg.lambda_icl, cfg.lambda_tcl),
        )
        if not with_grads:
            return out, None
        du1, du2, dv1, dv2 = out.grad_inputs
        grads: dict[str, np.ndarray] = {}
        for name, g in image_backward(img_p, c_v1, dv1).items():
            grads[f"img.{name}"] = g
        for name, g in image_backward(img_p, c_v2, dv2).items():
            grads[f"img.{name}"] = grads[f"img.{name}"] + g
        for name, g in text_backward(txt_p, c_u1, du1).items():
            grads[f"txt.{name}"] = g
        for name, g in text_backward(txt_p, c_u2, du2).items():
            grads[f"txt.{name}"] = grads[f"txt.{name}"] + g
        grads["log_tau"] = np.array(out.grad_log_tau)
        return out, grads

    # single-pair variants: symmetric contrastive loss on (U1, V1) only
    v1, c_v1 = encode_image_batch(img_p, batch.x1)
    u1, c_u1 = encode_text_batch(txt_p, [tokenize(t, vocab) for t in batch.t1])
    out = clip_loss(EmbeddingBatch(u1, "text"), EmbeddingBatch(v1, "image"), temp)
    out.components = {"mvs": out.value, "icl": 0.0, "tcl": 0.0, "total": out.value}
    if not with_grads:
        return out, None
    du1, dv1 = out.grad_inputs
    grads = {}
    for name, g in image_backward(img_p, c_v1, dv1).items():
        grads[f"img.{name}"] = g
    for name, g in text_backward(txt_p, c_u1, du1).items():
        grads[f"txt.{name}"] = g
    grads["log_tau"] = np.array(out.grad_log_tau)
    return out, grads


def _assemble_batch(studies, cfg: TrainConfig, engine, seed: int):
    sampler_cfg = cfg.sampler_config()
    if cfg.sampling_mode == "pairs":
        if not cfg.augment:
            sampler_cfg = replace(
                sampler_cfg,
                image_aug=replace(sampler_cfg.image_aug, crop_scale_range=(1.0, 1.0), clahe_probability=0.0,
                                  brightness_range=(1.0, 1.0), contrast_range=(1.0, 1.0)),
                text_aug=TextAugConfig(mode="identity"),
            )
        return make_batch(studies, sampler_cfg, engine, seed)

    # reduced variants assemble a single view per study
    from .sampling import StudyBatch
    from .studies import SampledPair

    xs, ts, pairs = [], [], []
    for study in studies:
        rng = study_rng(seed, study.id)
        img, text = sample_single(study, sampler_cfg, engine, rng, cfg.sampling_mode)
        if cfg.augment:
            img = augment_image(img, sampler_cfg.image_aug, rng)
            text = augment_text(text, sampler_cfg.text_aug, rng)
        xs.append(img)
        ts.append(text)
        pairs.append(SampledPair(x1=img, x2=img, t1=text, t2=text, text_source="single"))
    stacked = np.stack(xs)
    return StudyBatch(x1=stacked, x2=stacked, t1=ts, t2=list(ts), pairs=pairs)


def validation_loss(model: TrainedModel, studies, cfg: TrainConfig, engine) -> float:
    """Mean batch loss over the validation set with a fixed sampling seed."""
    val_seed = cfg.seed + 7919  # fixed offset: same batches every epoch
    values = []
    for start in range(0, len(studies), cfg.batch_studies):
        chunk = studies[start : start + cfg.batch_studies]
        batch = _assemble_batch(chunk, cfg, engine, val_seed)
        out, _ = _batch_loss(model, batch, cfg, with_grads=False)
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
            batch = _assemble_batch(chunk, cfg, engine, seed=cfg.seed * 1_000_003 + step)
            out, grads = _batch_loss(model, batch, cfg, with_grads=True)
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
                    mvs=out.components.get("mvs", out.value),
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
