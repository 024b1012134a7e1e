import collections
import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from studyclip import sampling, training
from studyclip.assembly import SLOTS, AssemblyError
from studyclip.encoders import build_vocab, text_bag, tokenize
from studyclip.evalrun import evaluate_model
from studyclip.metrics import DEFAULT_VARIANTS
from studyclip.prompts import PromptEngine
from studyclip.sampling import SamplingError, make_batch
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
    validation_batches,
    validation_loss,
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


def validation_inputs(studies, cfg, engine, vocab) -> list[dict]:
    return [training._step_inputs(batch, cfg.loss_table(), vocab) for batch in validation_batches(studies, cfg, engine)]


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


def test_a_nan_gradient_entry_raises_numeric_error_naming_its_parameter(splits, monkeypatch):
    original = training.text_backward

    def poisoned(params, cache, d_emb):
        grads = original(params, cache, d_emb)
        grads["emb"][3, 1] = np.nan  # one entry of one parameter
        return grads

    monkeypatch.setattr(training, "text_backward", poisoned)
    with pytest.raises(NumericError, match=r"gradient for txt\.emb at step 0") as err:
        train(*splits, tiny_config())
    assert (err.value.step, err.value.param) == (0, "txt.emb")


def test_returned_parameters_are_views_of_one_buffer_no_later_step_writes(engine, splits, monkeypatch):
    # epoch 1 is the best: epochs 2 and 3 train on, and the model returns epoch 1's parameters
    losses = iter([2.0, 1.0, 1.5, 1.5])
    snapshots, live = [], []
    original_step = training.optim_step

    def scoring(model, inputs, table):
        snapshots.append({name: value.tobytes() for name, value in model.params.items()})
        return next(losses)

    def stepping(params, *args):
        live.append(params)
        return original_step(params, *args)

    monkeypatch.setattr(training, "validation_loss", scoring)
    monkeypatch.setattr(training, "optim_step", stepping)
    model, log = train(*splits, tiny_config(epochs=3, early_stop_patience=3), engine)
    assert [rec.best for rec in log.epochs] == [True, True, False, False]
    flat = model.params["log_tau"].base
    assert flat.ndim == 1 and flat.size == sum(value.size for value in model.params.values())
    assert all(value.base is flat for value in model.params.values())
    assert np.shares_memory(model.params["log_tau"], flat[-1:])  # log_tau in the last slot
    assert {name: value.tobytes() for name, value in model.params.items()} == snapshots[1]
    (trained,) = {id(params): params for params in live}.values()  # every step updated one vector
    assert not np.shares_memory(trained, flat) and trained.tobytes() != flat.tobytes()


def test_early_stop_after_patience_epochs_without_improvement(splits, monkeypatch):
    monkeypatch.setattr(training, "validation_loss", lambda *args: 1.0)
    _, log = train(*splits, tiny_config(early_stop_patience=2))
    # the initial validation, then two epochs that do not improve on it
    assert [rec.epoch for rec in log.epochs] == [0, 1, 2]
    assert [rec.best for rec in log.epochs] == [True, False, False]
    assert len(log.steps) == 2 * 2  # 10 studies in batches of 8: 2 steps per epoch


def test_validation_loss_is_the_unweighted_mean_of_batch_losses(engine, splits, monkeypatch):
    cfg = tiny_config(epochs=1, warmup_epochs=0, batch_studies=32)
    model, _ = train(*splits, cfg, engine)
    valid = generate_split(SynthSpec(valid_studies=40), "valid", 40, 0, engine)
    batches = []
    original = training.total_loss

    def recording(views, log_tau, table, with_grads):
        out = original(views, log_tau, table, with_grads)
        batches.append((len(views["u1"]), out.value))
        return out

    monkeypatch.setattr(training, "total_loss", recording)
    loss = validation_loss(model, validation_inputs(valid, cfg, engine, model.vocab), cfg.loss_table())
    (n_a, a), (n_b, b) = batches
    assert (n_a, n_b) == (32, 8)
    assert loss == (a + b) / 2
    assert loss != pytest.approx((32 * a + 8 * b) / 40)


def test_train_assembles_the_validation_batches_once(engine, splits, monkeypatch, tmp_path):
    # the worker is a forked process: each make_batch call appends its process id to a file
    record = tmp_path / "assembled.txt"
    original = training.make_batch

    def counting(studies, *args):
        with open(record, "a") as out:
            out.write(f"{os.getpid()} {len(studies)}\n")
        return original(studies, *args)

    monkeypatch.setattr(training, "make_batch", counting)
    cfg = tiny_config(batch_studies=4)
    _, log = train(*splits, cfg, engine)
    sizes = collections.defaultdict(list)
    for line in record.read_text().splitlines():
        pid, size = map(int, line.split())
        sizes[pid].append(size)
    main = sizes.pop(os.getpid())
    (worker,) = sizes.values()
    assert len(log.epochs) == cfg.epochs + 1  # validated before the first epoch and after each
    assert main == [4, 1]  # the 5 validation studies, assembled once, in this process
    assert worker == [4, 4, 2] * cfg.epochs  # the 10 train studies: one batch per logged step
    assert len(worker) == len(log.steps)


def test_train_tokenizes_each_validation_text_once(engine, splits, monkeypatch, tmp_path):
    # the worker is a forked process: each tokenize call appends its process id and text to a file
    record = tmp_path / "tokenized.jsonl"
    original = training.tokenize

    def recording(text, vocab):
        with open(record, "a") as out:
            out.write(json.dumps([os.getpid(), text]) + "\n")
        return original(text, vocab)

    monkeypatch.setattr(training, "tokenize", recording)
    cfg = tiny_config()
    _, log = train(*splits, cfg, engine)
    texts = collections.defaultdict(list)
    for line in record.read_text().splitlines():
        pid, text = json.loads(line)
        texts[pid].append(text)
    main = texts.pop(os.getpid())
    (worker,) = texts.values()
    train_set, valid = splits
    assert len(log.epochs) == cfg.epochs + 1
    # this process: the two texts of each validation study, once in all
    assert main == [t for batch in validation_batches(valid, cfg, engine) for t in batch.t1 + batch.t2]
    # the worker: each text each time a step uses it
    used = collections.Counter(t for batch in expected_batches(train_set, cfg, engine) for t in batch.t1 + batch.t2)
    assert collections.Counter(worker) == used


def test_cached_validation_batches_score_as_batches_assembled_that_epoch(engine, splits, monkeypatch):
    cfg = tiny_config()
    valid = splits[1]
    scored = []
    original = training.validation_loss

    def checking(model, inputs, table):
        loss = original(model, inputs, table)
        scored.append((loss, original(model, validation_inputs(valid, cfg, engine, model.vocab), table)))
        return loss

    monkeypatch.setattr(training, "validation_loss", checking)
    _, log = train(*splits, cfg, engine)
    assert [cached for cached, _ in scored] == [rec.val_loss for rec in log.epochs]
    assert len({cached for cached, _ in scored}) == len(scored)  # the model moved every epoch
    for cached, fresh in scored:
        assert cached == fresh


def expected_batches(train_set, cfg, engine):
    """In-process ``make_batch`` for every step ``train`` schedules: epoch permutations of seed + 1."""
    order_rng = np.random.default_rng(cfg.seed + 1)
    batches = []
    for _ in range(cfg.epochs):
        order = order_rng.permutation(len(train_set))
        for start in range(0, len(train_set), cfg.batch_studies):
            chunk = [train_set[int(i)] for i in order[start : start + cfg.batch_studies]]
            batches.append(make_batch(chunk, cfg, engine, cfg.seed * 1_000_003 + len(batches)))
    return batches


def expected_inputs(train_set, cfg, engine, vocab) -> list[dict]:
    return [training._step_inputs(batch, cfg.loss_table(), vocab) for batch in expected_batches(train_set, cfg, engine)]


def input_contents(inputs) -> list:
    return [(name, x.dtype, x.shape, x.tobytes()) for name, x in inputs.items()]


def record_step_inputs(monkeypatch) -> list:
    """The contents and writeable flags of the inputs each training step scores, copied on arrival."""
    received = []
    original = training._batch_loss

    def recording(model, inputs, table, with_grads):
        if with_grads:
            received.append((input_contents(inputs), {x.flags.writeable for x in inputs.values()}))
        return original(model, inputs, table, with_grads)

    monkeypatch.setattr(training, "_batch_loss", recording)
    return received


@pytest.mark.parametrize("mode", ["pairs", "single"])
def test_step_inputs_are_the_named_views_images_and_token_bags(engine, splits, mode):
    lambdas = {} if mode == "pairs" else {"lambda_icl": 0.0, "lambda_tcl": 0.0}
    cfg = tiny_config(sampling_mode=mode, **lambdas)
    vocab = build_vocab(training.corpus_texts(splits[0], engine))
    batch = make_batch(splits[0][:4], cfg, engine, seed=3)
    inputs = training._step_inputs(batch, cfg.loss_table(), vocab)
    assert list(inputs) == (["v1", "v2", "u1", "u2"] if mode == "pairs" else ["v1", "u1"])
    for name, x in inputs.items():
        attr, prefix = training.VIEWS[name]
        if prefix == "img":
            assert x is getattr(batch, attr)
        else:
            assert x.shape == (4, len(vocab))
            np.testing.assert_array_equal(x, text_bag([tokenize(t, vocab) for t in getattr(batch, attr)], len(vocab)))


@pytest.mark.parametrize("augment", [True, False], ids=["augment", "plain"])
@pytest.mark.parametrize("mode", ["pairs", "study_single", "single"])
def test_worker_batches_equal_in_process_make_batch(engine, splits, monkeypatch, mode, augment):
    lambdas = {} if mode == "pairs" else {"lambda_icl": 0.0, "lambda_tcl": 0.0}
    cfg = tiny_config(epochs=2, early_stop_patience=2, sampling_mode=mode, augment=augment, **lambdas)
    received = record_step_inputs(monkeypatch)
    model, _ = train(*splits, cfg, engine)
    expected = expected_inputs(splits[0], cfg, engine, model.vocab)
    assert len(received) == len(expected) == 4
    for (contents, writeable), inputs in zip(received, expected):
        assert writeable == {False}  # read-only views of a shared slot: handed over by the worker
        assert contents == input_contents(inputs)


def test_a_study_with_long_findings_trains_through_the_ring(engine, splits, monkeypatch):
    # over 24 KiB of findings: a slot holds the texts' token bags, whose size does not grow with the text
    train_set, valid = splits
    index = next(i for i, study in enumerate(train_set) if study.findings)
    long_study = dataclasses.replace(train_set[index], findings="Heart size is normal. " * 1200)
    assert len(long_study.findings.encode("utf-8")) > 24 * 1024
    long_splits = (train_set[:index] + [long_study] + train_set[index + 1 :], valid)
    cfg = tiny_config(epochs=2, early_stop_patience=2)
    received = record_step_inputs(monkeypatch)
    model, _ = train(*long_splits, cfg, engine)
    expected = expected_inputs(long_splits[0], cfg, engine, model.vocab)
    assert [writeable for _, writeable in received] == [{False}] * len(expected)  # every batch from the ring
    assert [contents for contents, _ in received] == [input_contents(inputs) for inputs in expected]
    monkeypatch.delattr(os, "fork")
    reference, _ = train(*long_splits, cfg, engine)
    for name, value in reference.params.items():
        assert model.params[name].tobytes() == value.tobytes()


def test_a_slot_is_not_rewritten_while_its_step_reads_it(engine, splits, monkeypatch):
    # random delays on both sides: the worker runs ahead at times and lags at others
    main = os.getpid()
    delays = np.random.default_rng(0)
    original_make, original_loss = training.make_batch, training._batch_loss

    def slow_make(studies, *args):
        if os.getpid() != main:
            time.sleep(delays.uniform(0.0, 0.004))
        return original_make(studies, *args)

    snapshots = []

    def slow_loss(model, inputs, table, with_grads):
        if not with_grads:
            return original_loss(model, inputs, table, with_grads)
        before = input_contents(inputs)
        time.sleep(delays.uniform(0.0, 0.004))
        out = original_loss(model, inputs, table, with_grads)
        snapshots.append((before, input_contents(inputs)))
        return out

    monkeypatch.setattr(training, "make_batch", slow_make)
    monkeypatch.setattr(training, "_batch_loss", slow_loss)
    cfg = tiny_config(batch_studies=2, epochs=4, early_stop_patience=4)
    model, _ = train(*splits, cfg, engine)
    expected = expected_inputs(splits[0], cfg, engine, model.vocab)
    assert len(snapshots) == len(expected) == 20
    for (before, after), inputs in zip(snapshots, expected):
        assert before == after == input_contents(inputs)


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2, reason="needs 2 CPUs and affinity")
def test_the_worker_keeps_off_the_cpu_the_main_process_ran_on(engine, splits, monkeypatch, tmp_path):
    record = tmp_path / "affinity.txt"
    main = os.getpid()
    original = training.make_batch

    def recording(studies, *args):
        if os.getpid() != main:
            record.write_text(" ".join(map(str, sorted(os.sched_getaffinity(0)))))
        return original(studies, *args)

    monkeypatch.setattr(training, "make_batch", recording)
    allowed = os.sched_getaffinity(0)
    train(*splits, tiny_config(epochs=2, early_stop_patience=2), engine)
    worker = set(map(int, record.read_text().split()))
    assert worker < allowed and len(worker) == len(allowed) - 1
    assert os.sched_getaffinity(0) == allowed  # the main process keeps its own


@pytest.fixture
def deadline():
    """Turns a hang of more than 30 s into a failure."""

    def expire(signum, frame):
        raise TimeoutError("train did not return within 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def first_step_of(study: int, studies: int, cfg) -> int:
    return next(step for step, chunk in enumerate(training._step_chunks(studies, cfg)) if study in chunk)


def test_a_study_failing_in_the_worker_raises_sampling_error_naming_it(engine, splits, monkeypatch, deadline):
    # the study fails wherever it is sampled: the main process re-assembles the dead worker's step and
    # raises as the no-fork path does, with the study's own exception as the cause
    train_set = splits[0]
    cfg = tiny_config()
    bad = 3
    original = sampling.sample_images

    def failing(study, *args):
        if study.id == train_set[bad].id:
            raise ValueError("unreadable pixels")
        return original(study, *args)

    monkeypatch.setattr(sampling, "sample_images", failing)
    message = rf"^step {first_step_of(bad, len(train_set), cfg)}: study '{train_set[bad].id}': unreadable pixels$"
    with pytest.raises(SamplingError, match=message) as forked:
        train(*splits, cfg, engine)
    monkeypatch.delattr(os, "fork")
    with pytest.raises(SamplingError, match=message) as in_process:
        train(*splits, cfg, engine)
    for err in (forked, in_process):
        assert type(err.value.__cause__) is ValueError and str(err.value.__cause__) == "unreadable pixels"


def test_a_failure_only_in_the_worker_raises_assembly_error_naming_the_step(engine, splits, monkeypatch, deadline):
    train_set = splits[0]
    cfg = tiny_config()
    bad = 3
    main = os.getpid()
    original = sampling.sample_images

    def failing(study, *args):
        if os.getpid() != main and study.id == train_set[bad].id:
            raise ValueError("unreadable pixels")
        return original(study, *args)

    monkeypatch.setattr(sampling, "sample_images", failing)
    step = first_step_of(bad, len(train_set), cfg)
    with pytest.raises(AssemblyError, match=rf"exited with code 1 before step {step}$") as err:
        train(*splits, cfg, engine)
    assert (err.value.step, err.value.exitcode) == (step, 1)


def test_a_killed_worker_raises_assembly_error_naming_the_step(engine, splits, monkeypatch, deadline):
    main = os.getpid()
    calls = []
    original = training.make_batch

    def dying(studies, *args):
        if os.getpid() != main:
            calls.append(len(studies))
            if len(calls) == 3:  # steps 0 and 1 reach the ring; the worker dies assembling step 2
                os.kill(os.getpid(), signal.SIGKILL)
        return original(studies, *args)

    monkeypatch.setattr(training, "make_batch", dying)
    start = time.perf_counter()
    with pytest.raises(AssemblyError, match=r"exited with code -9 before step 2$") as err:
        train(*splits, tiny_config(), engine)
    assert time.perf_counter() - start < 5.0
    assert (err.value.step, err.value.exitcode) == (2, -signal.SIGKILL)


def open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts descriptors through /proc")
@pytest.mark.parametrize("ending", ["return", "early_stop", "numeric_error"])
def test_train_leaves_no_worker_and_no_descriptor_behind(engine, splits, monkeypatch, deadline, ending):
    train(*splits, tiny_config(epochs=2, early_stop_patience=2), engine)  # any lazy imports and set-up first
    before = open_descriptors()
    cfg = tiny_config()
    if ending == "early_stop":  # stops after epoch 1 of 6, with the worker waiting on a free slot
        monkeypatch.setattr(training, "validation_loss", lambda *args: 1.0)
        _, log = train(*splits, tiny_config(early_stop_patience=1), engine)
        assert len(log.epochs) == 2
    elif ending == "numeric_error":
        original = training.image_backward
        monkeypatch.setattr(training, "image_backward", lambda *args: {**original(*args), "conv_w": np.inf})
        # the caller holds the error, its traceback and so train's frame: the worker is closed all the same
        with pytest.raises(NumericError, match="at step 0") as held:
            train(*splits, cfg, engine)
    else:
        train(*splits, cfg, engine)
    assert multiprocessing.active_children() == []
    assert open_descriptors() == before
    if ending == "numeric_error":
        assert held.value.step == 0


@pytest.mark.parametrize("ending", ["return", "early_stop", "numeric_error"])
def test_train_reaps_its_worker(engine, splits, monkeypatch, tmp_path, deadline, ending):
    # the worker is forked with os.fork, so multiprocessing.active_children() does not see it
    record = tmp_path / "pids.txt"
    original = training.make_batch

    def recording(studies, *args):
        with open(record, "a") as out:
            out.write(f"{os.getpid()}\n")
        return original(studies, *args)

    monkeypatch.setattr(training, "make_batch", recording)
    if ending == "early_stop":
        monkeypatch.setattr(training, "validation_loss", lambda *args: 1.0)
        _, log = train(*splits, tiny_config(early_stop_patience=1), engine)
        assert len(log.epochs) == 2
    elif ending == "numeric_error":
        backward = training.image_backward
        monkeypatch.setattr(training, "image_backward", lambda *args: {**backward(*args), "conv_w": np.inf})
        with pytest.raises(NumericError, match="at step 0"):
            train(*splits, tiny_config(), engine)
    else:
        train(*splits, tiny_config(), engine)
    (pid,) = {int(line) for line in record.read_text().split()} - {os.getpid()}
    with pytest.raises(ChildProcessError):  # no child of this process has that pid: it was reaped
        os.waitpid(pid, os.WNOHANG)


def test_the_worker_runs_slots_minus_one_batches_ahead_of_a_stalled_step(engine, splits, monkeypatch, tmp_path, deadline):
    # each step's sampling seed is seed * 1_000_003 + step, so at seed 0 the worker's seed is its step
    record = tmp_path / "assembled.txt"
    main = os.getpid()
    original_make, original_loss = training.make_batch, training._batch_loss

    def recording(studies, cfg, engine, seed):
        if os.getpid() != main:
            with open(record, "a") as out:
                out.write(f"start {seed}\n")
        batch = original_make(studies, cfg, engine, seed)
        if os.getpid() != main:
            with open(record, "a") as out:
                out.write(f"done {seed}\n")
        return batch

    def assembled() -> list[tuple[str, int]]:
        return [(what, int(step)) for what, step in map(str.split, record.read_text().splitlines())]

    seen_while_stalled = []

    def stalling(model, inputs, table, with_grads):
        if with_grads and not seen_while_stalled:  # step 0: hold its slot until the worker is SLOTS - 1 ahead
            while not record.exists() or ("done", SLOTS - 1) not in assembled():
                time.sleep(0.01)
            time.sleep(0.2)  # room for a worker that wrongly ran further ahead
            seen_while_stalled.extend(assembled())
        return original_loss(model, inputs, table, with_grads)

    monkeypatch.setattr(training, "make_batch", recording)
    monkeypatch.setattr(training, "_batch_loss", stalling)
    cfg = tiny_config(batch_studies=2, early_stop_patience=6)
    _, log = train(*splits, cfg, engine)
    assert len(log.steps) == 30 > SLOTS
    assert max(step for _, step in seen_while_stalled) == SLOTS - 1
    # and every step was assembled once, in order
    assert [step for what, step in assembled() if what == "start"] == list(range(len(log.steps)))


def trained_parameter_bytes(splits, cfg) -> dict[str, bytes]:
    model, _ = train(*splits, cfg)
    return {name: value.tobytes() for name, value in model.params.items()}


def test_train_runs_inside_a_daemonic_pool_worker(splits, deadline):
    cfg = tiny_config(epochs=2, early_stop_patience=2)
    with multiprocessing.get_context("fork").Pool(1) as pool:  # its worker is daemonic
        in_pool = pool.apply(trained_parameter_bytes, (splits, cfg))
    assert in_pool == trained_parameter_bytes(splits, cfg)


def test_without_fork_each_batch_is_assembled_in_process_with_the_same_parameters(engine, splits, monkeypatch):
    cfg = tiny_config(epochs=2, early_stop_patience=2)
    reference, _ = train(*splits, cfg, engine)
    monkeypatch.delattr(os, "fork")
    received = record_step_inputs(monkeypatch)
    model, _ = train(*splits, cfg, engine)
    expected = expected_inputs(splits[0], cfg, engine, model.vocab)
    assert [writeable for _, writeable in received] == [{True}] * len(expected)  # not views of a shared slot
    assert [contents for contents, _ in received] == [input_contents(inputs) for inputs in expected]
    for name, value in reference.params.items():
        assert model.params[name].tobytes() == value.tobytes()


def test_learns_above_chance_on_a_tiny_spec(engine):
    # lr 5e-3: the default lr (5e-5) stays at chance on this task; at this seed RSUM reads 80,
    # chance itself, with lr 5e-5 or 0
    spec = SynthSpec(train_studies=48, valid_studies=16, test_studies=20)
    train_set, valid_set, test_set = (
        generate_split(spec, split, count, 0, engine) for split, count in (("train", 48), ("valid", 16), ("test", 20))
    )
    cfg = TrainConfig(learning_rate=5e-3, epochs=6, batch_studies=16, early_stop_patience=6)
    model, log = train(train_set, valid_set, cfg, engine)
    assert min(rec.val_loss for rec in log.epochs[1:]) < log.epochs[0].val_loss
    chance_rsum = 100.0 * (1 + 5 + 10) / len(test_set)
    assert evaluate_model(model, test_set, engine)["rsum"] > chance_rsum


def test_bool_config_rejects_non_bool_text():
    with pytest.raises(ConfigError, match="expects true/false"):
        config_from_dict({"augment": "yes"})
    assert config_from_dict({"augment": "false"}).augment is False


@pytest.mark.parametrize(
    "name, value, text",
    [
        ("learning_rate", math.nan, "nan"),
        ("lambda_icl", math.nan, "nan"),
        ("lambda_tcl", -math.inf, "-inf"),
        ("clahe_probability", math.nan, "NaN"),
    ],
)
def test_non_finite_float_fields_are_rejected(name, value, text):
    # NaN passes every "< 0" check; inf tau would train silently at the clamped temperature
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        TrainConfig(**{name: value})
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        config_from_dict({name: text})


@pytest.mark.parametrize(
    "name", ["image_size", "conv_filters", "hidden_dim", "feature_dim", "token_dim", "embed_dim"]
)
def test_zero_sizes_are_rejected(name):
    # the conv stage needs 3 x 3 pixels: a 2-pixel image would fail only in the first encode of train;
    # an embedding needs 2 dims, as TrainConfig says: a unit-norm embedding of 1 dim is only +-1
    least = {"image_size": 3, "embed_dim": 2}.get(name, 1)
    for value in {0, least - 1}:
        with pytest.raises(ConfigError, match=f"{name} must be at least {least}, got {value}"):
            TrainConfig(**{name: value})
    with pytest.raises(ConfigError, match=f"{name} must be at least {least}"):
        config_from_dict({name: "0"})
    assert getattr(config_from_dict({name: str(least)}), name) == least


@pytest.mark.parametrize("mode", ["single", "study_single"])
def test_single_modes_reject_icl_and_tcl_weights(mode):
    for lambda_icl, lambda_tcl in ((1.0, 0.0), (0.0, 0.5)):
        with pytest.raises(ConfigError, match="lambda_icl and lambda_tcl must be 0"):
            TrainConfig(sampling_mode=mode, lambda_icl=lambda_icl, lambda_tcl=lambda_tcl)
    assert TrainConfig(sampling_mode=mode, lambda_icl=0.0, lambda_tcl=0.0).loss_table() == (("u1", "v1", 1.0, "mvs"),)


@pytest.mark.parametrize(
    "name, value, text, message",
    [
        ("clahe_probability", 1.5, "1.5", "clahe_probability must lie in [0, 1], got 1.5"),
        ("text_aug_mode", "bogus", "bogus", "unknown config key 'text_aug_mode'"),
        ("negative_sample_count", -2, "-2", "negative_sample_count must be non-negative or None, got -2"),
    ],
)
def test_bad_sampler_settings_are_rejected_when_the_config_is_built(name, value, text, message):
    # a non-string value passes straight to the constructor
    with pytest.raises(ConfigError, match=re.escape(message)):
        config_from_dict({name: value})
    with pytest.raises(ConfigError, match=re.escape(message)):
        config_from_dict({name: text})
    assert config_from_dict({"negative_sample_count": "0"}).negative_sample_count == 0


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"batch_studies": 2.5}, "batch_studies must be int, got 2.5"),
        ({"epochs": True}, "epochs must be int, got True"),
        ({"negative_sample_count": 1.0}, "negative_sample_count must be int | None, got 1.0"),
        ({"learning_rate": False}, "learning_rate must be float, got False"),
        ({"augment": "yes"}, "augment must be bool, got 'yes'"),
        ({"augment": 1}, "augment must be bool, got 1"),
        ({"sampling_mode": None}, "sampling_mode must be str, got None"),
        ({"sampling_mode": 3}, "sampling_mode must be str, got 3"),
        ({"seed": -1}, "seed must be non-negative, got -1"),
    ],
)
def test_fields_are_checked_against_their_declared_types(overrides, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        TrainConfig(**overrides)


def test_float_fields_accept_ints_and_strings_parse_as_the_declared_type():
    assert TrainConfig(learning_rate=1, lambda_icl=2).lambda_icl == 2
    cfg = config_from_dict(
        {"sampling_mode": "single", "lambda_icl": "0", "lambda_tcl": "0", "negative_sample_count": "3", "seed": "4"}
    )
    assert cfg.sampling_mode == "single"
    assert cfg.lambda_icl == 0.0 and isinstance(cfg.lambda_icl, float)
    assert (cfg.negative_sample_count, cfg.seed) == (3, 4)
    assert config_from_dict({"negative_sample_count": "none"}).negative_sample_count is None
    with pytest.raises(ConfigError, match=re.escape("cannot parse batch_studies='2.5'")):
        config_from_dict({"batch_studies": "2.5"})
    with pytest.raises(ConfigError, match="epochs must be int, got None"):
        config_from_dict({"epochs": "null"})


def test_adamw_two_steps_match_hand_arithmetic():
    lr, wd, b1, b2, eps = 0.1, 0.5, 0.9, 0.999, 1e-8
    params = np.array([1.0, -2.0, 0.25])  # w, then log_tau in the last slot
    g1 = np.array([0.2, -0.4, 0.3])
    g2 = np.array([0.1, 0.3, -0.6])
    state = OptimState(params.size)

    optim_step(params, g1, state, lr, wd)
    # bias correction makes the first step lr * g / (|g| + eps): a move of lr against the sign of g,
    # then decoupled decay scales w by (1 - lr * wd); log_tau is exempt from decay
    np.testing.assert_allclose(params[:2], [0.9 * 0.95, -1.9 * 0.95], rtol=1e-7)
    assert float(params[2]) == pytest.approx(0.15, rel=1e-7)

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
    np.testing.assert_allclose(params[:2], want_w, rtol=1e-14)
    assert float(params[2]) == pytest.approx(by_hand(0.25, 0.3, -0.6, 0.0), rel=1e-14)
    assert state.step == 2


def test_log_tau_is_clamped_after_every_step(splits, monkeypatch):
    cfg = tiny_config(epochs=2, warmup_epochs=0)  # 2 steps per epoch
    # log(tau) stays in range without a push, and the clamp then leaves every parameter bit as it was
    in_range, _ = train(*splits, cfg)
    with monkeypatch.context() as m:
        m.setattr(training, "LOG_TAU_RANGE", (-math.inf, math.inf))
        unclamped, _ = train(*splits, cfg)
    assert np.concatenate([np.ravel(p) for p in in_range.params.values()]).tobytes() == (
        np.concatenate([np.ravel(p) for p in unclamped.params.values()]).tobytes()
    )

    original, pushes, seen = training.optim_step, [50.0, -50.0], []

    def pushing(params, grad, state, lr, weight_decay):
        seen.append(float(params[-1]))  # log(tau) as the clamp left the previous step
        original(params, grad, state, lr, weight_decay)
        if state.step <= len(pushes):
            params[-1] = pushes[state.step - 1]

    monkeypatch.setattr(training, "optim_step", pushing)
    _, log = train(*splits, cfg)
    assert seen[1:3] == [math.log(10.0), math.log(1e-3)]
    taus = [rec.tau for rec in log.steps]
    assert len(taus) == 4 and taus[:2] == [pytest.approx(10.0), pytest.approx(1e-3)]
    assert all(1e-3 * (1 - 1e-12) <= tau <= 10.0 * (1 + 1e-12) for tau in taus)


def test_lr_schedule_endpoints():
    total, warmup, base = 100, 10, 0.3
    assert lr_at(0, total, warmup, base) == 0.0
    assert lr_at(warmup, total, warmup, base) == base
    assert lr_at(total, total, warmup, base) == 0.0


@pytest.mark.parametrize("step", [-1, -0.5, 100.5, 101])
def test_lr_schedule_rejects_a_step_outside_the_schedule(step):
    with pytest.raises(ValueError, match=rf"step {step} outside \[0, 100\]"):
        lr_at(step, 100, 10, 0.3)


EVAL_TEXT_SCRIPT = """
from studyclip.evalrun import eval_text
from studyclip.prompts import PromptEngine
from studyclip.studies import Study, StudyImage
study = Study(id="label-only-7", images=[StudyImage([[0.5]])], labels={"Edema": "positive", "Atelectasis": "negative"})
print(eval_text(study, PromptEngine.default()))
"""


SYNTH_SPLIT_SCRIPT = """
import hashlib
from studyclip.prompts import PromptEngine
from studyclip.synth import SynthSpec, generate_split
spec = SynthSpec(train_studies=12, valid_studies=4, test_studies=4)
digest = hashlib.sha256()
for study in generate_split(spec, "train", 12, 3, PromptEngine.default()):
    print(study.id, study.findings, study.impression, study.labels)
    for image in study.images:
        digest.update(image.view.encode() + image.pixels.tobytes())
print(digest.hexdigest())
"""


def outputs_under_two_hash_seeds(script: str) -> list[str]:
    outputs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(SRC)}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        outputs.append(done.stdout)
    return outputs


def test_eval_text_of_label_only_study_is_the_same_in_every_process():
    texts = outputs_under_two_hash_seeds(EVAL_TEXT_SCRIPT)
    assert texts[0].strip()
    assert texts[0] == texts[1]


def test_synth_split_is_the_same_in_every_process():
    first, second = outputs_under_two_hash_seeds(SYNTH_SPLIT_SCRIPT)
    studies = first.splitlines()[:-1]
    # both label-only studies and report-bearing ones (texts rendered from prompts) occur
    assert {" None None " in line for line in studies} == {True, False}
    assert first == second


# SHA-256 of the parameters each DEFAULT_VARIANTS entry trains on GOLDEN_SPEC. A refactor keeps
# these bits; a change meant to alter the numbers updates this table and says why.
GOLDEN_SPEC = SynthSpec(train_studies=48, valid_studies=20, test_studies=20)
GOLDEN_DIGESTS = {
    "clip_only": "93a99260a9a61fbfdc47d90f2acfdc061a5dfac7f035122d3122a10503ecbc2c",
    "study_sampling": "d983a8ce10556402bcac68d16ba88f05447f036b1edfb4ce2b00a5deafa6b6be",
    "augmentations": "3af3daa4e713d7a26fcb2814e52771eaf1e317c4308a7746af823ce0622b0f4b",
    "mvs": "b39a4aa0ded89f904c4607543205f154e8b4bed4370b85f8afda19465ef4acde",
    "mvs_icl": "3405bc1fef78f58c64b4bdde6271815cdc28dcc66e5bd366713d60dbf631ea39",
    "full": "fcde478b53c93c9c2f25842245f7aa415fee57a6113454b2b712777c7f79803a",
}


@pytest.fixture(scope="module")
def golden_splits(engine):
    return [generate_split(GOLDEN_SPEC, split, count, 0, engine) for split, count in (("train", 48), ("valid", 20))]


@pytest.mark.parametrize("variant", DEFAULT_VARIANTS, ids=lambda v: v.name)
def test_variant_parameters_keep_their_golden_digest(variant, golden_splits, engine):
    cfg = config_from_dict({"learning_rate": 5e-3, "epochs": 3, "batch_studies": 16, "seed": 0, **variant.overrides})
    model, _ = train(*golden_splits, cfg, engine)
    digest = hashlib.sha256()
    for name in sorted(model.params):  # the digest the benchmark reports as param_sha256
        arr = np.ascontiguousarray(model.params[name])
        digest.update(f"{name}:{arr.dtype.str}:{arr.shape};".encode())
        digest.update(arr.tobytes())
    assert digest.hexdigest() == GOLDEN_DIGESTS[variant.name]
