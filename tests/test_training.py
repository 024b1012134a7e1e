import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from studyclip import training
from studyclip.prompts import PromptEngine
from studyclip.synth import SynthSpec, generate_split
from studyclip.training import (
    ConfigError,
    NumericError,
    OptimState,
    TrainConfig,
    config_from_dict,
    lr_at,
    optim_step,
    train,
)

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def engine():
    return PromptEngine.default()


@pytest.fixture(scope="module")
def splits(engine):
    spec = SynthSpec(train_studies=10, valid_studies=5, test_studies=5)
    return generate_split(spec, "train", 10, 0, engine), generate_split(spec, "valid", 5, 0, engine)


def tiny_config(**overrides) -> TrainConfig:
    base = dict(learning_rate=5e-3, epochs=6, batch_studies=8, early_stop_patience=6)
    return TrainConfig(**{**base, **overrides})


def test_non_finite_gradient_names_step_and_parameter(splits, monkeypatch):
    original = training.image_backward

    def poisoned(params, cache, d_emb):
        grads = original(params, cache, d_emb)
        grads["conv_w"] = np.full_like(grads["conv_w"], np.inf)
        return grads

    monkeypatch.setattr(training, "image_backward", poisoned)
    with pytest.raises(NumericError, match=r"img\.conv_w at step 0") as err:
        train(*splits, tiny_config())
    assert err.value.step == 0
    assert err.value.param == "img.conv_w"


def test_early_stop_after_patience_epochs_without_improvement(splits, monkeypatch):
    monkeypatch.setattr(training, "validation_loss", lambda *args: 1.0)
    _, log = train(*splits, tiny_config(early_stop_patience=2))
    # the initial validation, then two epochs that do not improve on it
    assert [rec.epoch for rec in log.epochs] == [0, 1, 2]
    assert [rec.best for rec in log.epochs] == [True, False, False]
    assert len(log.steps) == 2 * 2  # 10 studies in batches of 8: 2 steps per epoch


def test_bool_config_rejects_non_bool_text():
    with pytest.raises(ConfigError, match="expects true/false"):
        config_from_dict({"augment": "yes"})
    assert config_from_dict({"augment": "false"}).augment is False


@pytest.mark.parametrize("mode", ["single", "study_single"])
def test_single_modes_reject_icl_and_tcl_weights(mode):
    for lambda_icl, lambda_tcl in ((1.0, 0.0), (0.0, 0.5)):
        with pytest.raises(ConfigError, match="lambda_icl and lambda_tcl must be 0"):
            TrainConfig(sampling_mode=mode, lambda_icl=lambda_icl, lambda_tcl=lambda_tcl)
    assert TrainConfig(sampling_mode=mode, lambda_icl=0.0, lambda_tcl=0.0).loss_table() == (("u1", "v1", 1.0, "mvs"),)


def test_adamw_two_steps_match_hand_arithmetic():
    lr, wd, b1, b2, eps = 0.1, 0.5, 0.9, 0.999, 1e-8
    params = {"w": np.array([1.0, -2.0]), "log_tau": np.array(0.25)}
    g1 = {"w": np.array([0.2, -0.4]), "log_tau": np.array(0.3)}
    g2 = {"w": np.array([0.1, 0.3]), "log_tau": np.array(-0.6)}
    state = OptimState()

    optim_step(params, g1, state, lr, wd)
    # bias correction makes the first step lr * g / (|g| + eps): a move of lr against the sign of g,
    # then decoupled decay scales w by (1 - lr * wd); log_tau is exempt from decay
    np.testing.assert_allclose(params["w"], [0.9 * 0.95, -1.9 * 0.95], rtol=1e-7)
    assert float(params["log_tau"]) == pytest.approx(0.15, rel=1e-7)

    optim_step(params, g2, state, lr, wd)

    def by_hand(p, ga, gb, decay):
        m, v = 0.0, 0.0
        for t, g in ((1, ga), (2, gb)):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            p -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
            p -= lr * decay * p
        return p

    want_w = [by_hand(p, a, b, wd) for p, a, b in zip([1.0, -2.0], [0.2, -0.4], [0.1, 0.3])]
    np.testing.assert_allclose(params["w"], want_w, rtol=1e-14)
    assert float(params["log_tau"]) == pytest.approx(by_hand(0.25, 0.3, -0.6, 0.0), rel=1e-14)
    assert state.step == 2


def test_lr_schedule_endpoints():
    total, warmup, base = 100, 10, 0.3
    assert lr_at(0, total, warmup, base) == 0.0
    assert lr_at(warmup, total, warmup, base) == base
    assert lr_at(total, total, warmup, base) == 0.0


EVAL_TEXT_SCRIPT = """
from studyclip.evalrun import eval_text
from studyclip.prompts import PromptEngine
from studyclip.studies import Study, StudyImage
study = Study(id="label-only-7", images=[StudyImage([[0.5]])], labels={"Edema": "positive", "Atelectasis": "negative"})
print(eval_text(study, PromptEngine.default()))
"""


def test_eval_text_of_label_only_study_is_the_same_in_every_process():
    texts = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(SRC)}
        done = subprocess.run(
            [sys.executable, "-c", EVAL_TEXT_SCRIPT], env=env, capture_output=True, text=True, check=True
        )
        texts.append(done.stdout)
    assert texts[0].strip()
    assert texts[0] == texts[1]
