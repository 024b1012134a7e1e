"""Tiny random specs and configs through the whole pipeline: every failure is typed and named.

Each example generates the three splits, saves and loads them, trains on the loaded train and
valid splits, and evaluates on the loaded test split. A failure must be an exception class the
package defines, whose message names a study, a step or epoch, a class, a split, a setting or an
encoder: the caller can then tell which input to mend.
"""

import importlib
import pkgutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import studyclip
from studyclip.evalrun import evaluate_binary, evaluate_model
from studyclip.prompts import NoTemplateError, PromptEngine
from studyclip.sampling import SAMPLING_MODES
from studyclip.studies import load_split, save_split
from studyclip.synth import SynthSpec, generate_split
from studyclip.training import TrainConfig, train
from study_records import exact_form

PROJECT_ERRORS = tuple(
    value
    for info in pkgutil.iter_modules(studyclip.__path__)
    for value in vars(importlib.import_module(f"studyclip.{info.name}")).values()
    if isinstance(value, type) and issubclass(value, Exception) and value.__module__.startswith("studyclip.")
)
# "No Finding" has no negative prompt form, so a spec naming it cannot build a report that negates it
CLASS_POOL = ["Atelectasis", "Cardiomegaly", "Consolidation", "Edema", "Emphysema", "Fracture", "Mass", "No Finding",
              "Nodule", "Pleural Effusion", "Pneumonia", "Pneumothorax"]
SPLITS = ("train", "valid", "test")


@pytest.fixture(scope="module")
def engine():
    return PromptEngine.default()


@st.composite
def cases(draw):
    counts = [draw(st.integers(0, 7)) for _ in SPLITS]
    spec = SynthSpec(
        class_names=draw(st.lists(st.sampled_from(CLASS_POOL), min_size=2, max_size=5, unique=True)),
        train_studies=counts[0],
        valid_studies=counts[1],
        test_studies=counts[2],
        image_size=draw(st.integers(3, 12)),
    )
    mode = draw(st.sampled_from(SAMPLING_MODES))
    cfg = TrainConfig(
        learning_rate=draw(st.sampled_from([0.0, 5e-3, 1.0])),
        epochs=draw(st.integers(1, 2)),
        batch_studies=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 9)),
        image_size=draw(st.integers(3, 12)),
        **{name: draw(st.integers(1, 3)) for name in ("conv_filters", "hidden_dim", "feature_dim", "token_dim")},
        embed_dim=draw(st.integers(2, 3)),
        sampling_mode=mode,
        augment=draw(st.booleans()),
        **({} if mode == "pairs" else {"lambda_icl": 0.0, "lambda_tcl": 0.0}),
    )
    return spec, cfg, draw(st.integers(0, 9)), draw(st.sampled_from(spec.class_names))


def names_in(spec: SynthSpec, cfg: TrainConfig, splits: dict) -> list[str]:
    """What a failure's message may name: a study, a step or epoch, a class, a split, a setting or an encoder."""
    ids = [study.id for split in splits.values() for study in split]
    splits_and_encoders = ["train set", "validation set", "test set", "img encoder", "txt encoder"]
    return [*ids, "step ", "epoch ", *spec.class_names, *splits_and_encoders, *vars(spec), *vars(cfg)]


@given(case=cases())
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
def test_every_pipeline_failure_is_a_project_error_naming_its_cause(engine, case):
    spec, cfg, seed, class_name = case
    splits = {}
    try:
        with tempfile.TemporaryDirectory() as directory:
            for split in SPLITS:
                made = generate_split(spec, split, getattr(spec, f"{split}_studies"), seed, engine)
                save_split(Path(directory) / f"{split}.npz", made)
                splits[split] = load_split(Path(directory) / f"{split}.npz")
                assert exact_form(splits[split]) == exact_form(made)
        model, _ = train(splits["train"], splits["valid"], cfg, engine)
        evaluate_model(model, splits["test"], engine)
        evaluate_binary(model, splits["test"], class_name, engine)
    except PROJECT_ERRORS as err:
        assert any(name in str(err) for name in names_in(spec, cfg, splits)), f"{type(err).__name__}: {err}"
        if isinstance(err, NoTemplateError):  # whether the grammar serves a spec depends on no count or seed
            with pytest.raises(NoTemplateError):
                generate_split(spec, "train", 0, seed, engine)
