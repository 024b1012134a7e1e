import ast
import dataclasses
import importlib
import importlib.util
import os
import re
from pathlib import Path

import numpy as np
import pytest

import blas_kernel
from studyclip import training
from studyclip.metrics import DEFAULT_VARIANTS
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


def referenced_names() -> set[str]:
    """Every name the code reads; a definition of a name, an assignment to it and an import of it do not count."""
    referenced = set()
    for folder in ("src", "tests", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(parse(path)):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
    return referenced


def test_every_public_function_class_and_method_is_referenced():
    referenced = referenced_names()
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


def test_every_public_module_constant_and_type_alias_is_referenced():
    # a constant or alias that nothing reads is left over from code that is gone
    type_alias = getattr(ast, "TypeAlias", ())  # the ``type X = ...`` statement, from Python 3.12
    referenced = referenced_names()
    unreferenced = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in parse(path).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            elif isinstance(node, type_alias):
                targets = [node.name]
            else:
                continue
            for name in (n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)):
                if not name.startswith("_") and name not in referenced:
                    unreferenced.append(f"{path.stem}.{name}")
    assert unreferenced == []


def test_every_module_reference_in_the_package_text_resolves():
    # a double-backticked ``module.attr`` left naming a deleted function misleads every reader
    modules = {path.stem for path in PACKAGE.glob("*.py") if path.name != "__init__.py"}
    data_files = {path.name for path in (PACKAGE / "data").iterdir()}
    unresolved = []
    for path in sorted(PACKAGE.glob("*.py")):
        for module, attrs in re.findall(r"``(\w+)\.([\w.]+)``", path.read_text(encoding="utf-8")):
            if module not in modules or f"{module}.{attrs}" in data_files:
                continue
            target = importlib.import_module(f"studyclip.{module}")
            for attr in attrs.split("."):
                target = getattr(target, attr, None)
            if target is None:
                unresolved.append(f"{path.stem}: {module}.{attrs}")
    assert unresolved == []


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


# The encoder shapes stay settings though only tests change them: tier-1's central-difference
# gradient checks need encoders small enough to perturb every parameter.
MODEL_SHAPE_FIELDS = ("image_size", "conv_filters", "hidden_dim", "feature_dim", "token_dim", "embed_dim")


def dict_keys(node: ast.AST) -> set[str]:
    """The string keys of every dict literal in ``node``."""
    dicts = [d for d in ast.walk(node) if isinstance(d, ast.Dict)]
    return {key.value for d in dicts for key in d.keys if isinstance(key, ast.Constant)}


def test_every_config_field_is_set_by_a_caller_outside_the_tests():
    # a setting that only tests set takes one value in every run: it is a constant
    set_by = {key for variant in DEFAULT_VARIANTS for key in variant.overrides}
    for node in ast.walk(parse(ROOT / "perfbench" / "workloads.py")):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", "").endswith("_CONFIG") for t in node.targets):
            set_by |= dict_keys(node.value)
        elif isinstance(node, ast.keyword) and node.arg == "config":
            set_by |= dict_keys(node.value)
    for node in ast.walk(parse(ROOT / "perfbench" / "run.py")):  # raw["seed"] = seed
        stored = isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
        if stored and getattr(node.value, "id", "") == "raw":
            set_by.add(node.slice.value)
    fields = [f.name for f in dataclasses.fields(training.TrainConfig)]
    assert [name for name in fields if name not in set_by and name not in MODEL_SHAPE_FIELDS] == []


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


def test_no_module_imports_subprocess():
    # the program runs no other program: no setting or record names one to run
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "subprocess" for name in modules):
                importers.append(path.stem)
    assert importers == []


def test_every_np_load_refuses_pickled_objects():
    # unpickling runs code a file names: a study or split file is data and must stay data
    calls, unguarded = 0, []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(parse(path)):
            func = getattr(node, "func", None)
            if not (isinstance(func, ast.Attribute) and func.attr == "load" and getattr(func.value, "id", "") == "np"):
                continue
            calls += 1
            guard = [kw.value for kw in node.keywords if kw.arg == "allow_pickle"]
            if not (guard and isinstance(guard[0], ast.Constant) and guard[0].value is False):
                unguarded.append(f"{path.stem}:{node.lineno}")
    assert calls and unguarded == []


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


def test_the_blas_kernel_reads_unknown_where_numpy_bundles_no_openblas(monkeypatch, tmp_path):
    # pinned-value tests name the kernel in their messages: this must not fail where it cannot be read
    assert blas_kernel.openblas_kernel()  # the bundled library's kernel here, or "unknown"
    monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    assert blas_kernel.openblas_kernel.__wrapped__() == "unknown"
