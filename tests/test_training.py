import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from studyclip import training
from studyclip.prompts import PromptEngine
from studyclip.synth import SynthSpec, generate_split
from studyclip.training import ConfigError, NumericError, TrainConfig, config_from_dict, train

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
