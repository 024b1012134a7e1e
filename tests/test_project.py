import ast
import importlib
import importlib.util
import os
from pathlib import Path

import pytest

from studyclip import training
from studyclip.prompts import PromptEngine
from studyclip.synth import SynthSpec, generate_split

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
PACKAGE = ROOT / "src" / "studyclip"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_declared_entry_point_imports_and_is_callable():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    scripts = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"].get("scripts", {})
    for name, target in scripts.items():
        module_name, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module_name), attr)), name


def test_every_public_function_class_and_method_is_referenced():
    # a name counts as used when code names it; its definition and an import of it do not count
    referenced = set()
    for folder in ("src", "tests", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(parse(path)):
                if isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
    unreferenced = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            members = [m for m in node.body if isinstance(m, ast.FunctionDef)] if isinstance(node, ast.ClassDef) else []
            for definition in [node, *members]:
                if not definition.name.startswith("_") and definition.name not in referenced:
                    unreferenced.append(f"{path.stem}.{definition.name}")
    assert unreferenced == []


def test_every_config_field_is_read_outside_its_own_checks():
    # a setting that only TrainConfig.__post_init__ reads changes nothing the program does
    read, fields = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = parse(path)
        checks = set()
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name == "TrainConfig":
                fields = [m.target.id for m in node.body if isinstance(m, ast.AnnAssign)]
                post_init = [m for m in node.body if isinstance(m, ast.FunctionDef) and m.name == "__post_init__"]
                checks = {id(n) for m in post_init for n in ast.walk(m)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in checks:
                read.add(node.attr)
    assert fields, "no TrainConfig class found"
    assert [name for name in fields if name not in read] == []


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue  # its imports are the package's exports
        tree = parse(path)
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in names:
                        unused.append(f"{path.stem}: {bound}")
    assert unused == []


def test_every_call_site_the_benchmark_traces_exists():
    # the benchmark patches names one module calls in another; a refactor that drops one
    # leaves that name's per-layer metrics out of every run
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    with tracer.Tracer() as active:
        pass
    assert active.absent == set()


def test_the_traced_sampler_sees_one_batch_per_training_step_and_validation_batch(monkeypatch):
    # without os.fork every step is assembled in this process, through the names the tracer patches
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    engine = PromptEngine.default()
    synth = SynthSpec(image_size=16)
    train_set, valid = (generate_split(synth, split, count, 0, engine) for split, count in (("train", 10), ("valid", 5)))
    cfg = training.TrainConfig(epochs=2, batch_studies=4, early_stop_patience=2, image_size=16)
    monkeypatch.delattr(os, "fork")
    with tracer.Tracer() as active:
        _, log = training.train(train_set, valid, cfg, engine)
    assert len(log.steps) == 6
    batches = sum(name == "sampling.make_batch" for name, *_ in active.spans)
    assert batches == len(log.steps) + len(training.validation_batches(valid, cfg, engine)) == 8
