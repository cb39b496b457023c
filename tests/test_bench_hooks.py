"""The benchmark's span tracer still finds every name it wraps.

bench/tracing.py replaces module attributes of the program (for example
training.forward_cache and predictors.hidden_prod) with timed wrappers.
A refactor that renames one of them, or stops calling through it, would
leave a traced benchmark run without that layer's figures; this test
makes that a tier-1 failure. It trains, which also validates, and then
ranks the test split serially, as the benchmark's ranking phase does.

The other tests here keep the program's module attributes honest the
other way round: a name a module imports and never uses is reported, and
so is a name a module's __all__ lists but does not define.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

from flaicf import evaluation, training
from flaicf.config import Design, ModelConfig, ModelKind, TrainConfig
from flaicf.data import split_per_user
from tests.conftest import random_dataset

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"
SPANS = (
    "predictors.forward_cache",
    "gradients.backward",
    "training.adagrad_step",
    "attention.hidden",
    "attention.item_softmax",
    "attention.row_softmax",
    "attention.col_softmax",
    "evaluation.score_chunk",
)
# the spans bench/run.py reads from its ranking phase
RANK_SPANS = ("evaluation.score_user", "evaluation.score_chunk", "evaluation.rank_items")


def test_traced_training_records_every_layer_span():
    spec = importlib.util.spec_from_file_location("flaicf_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    split = split_per_user(random_dataset(4, n_users=8, n_items=12, min_items=5), seed=2)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        for design in (Design.DESIGN1, Design.DESIGN2):
            cfg = ModelConfig(model_kind=ModelKind.FLA_NAIS, design=design, d=4)
            params, _ = training.train(ModelKind.FLA_NAIS, split, cfg, TrainConfig(epochs=1, seed=1))
        tracer.phase = "rank"
        evaluation.evaluate_model(params, cfg, split, on="test")
    finally:
        tracer.uninstall()
    missing = [name for name in SPANS if tracer.calls_of(name) == 0]
    missing += [f"rank:{name}" for name in RANK_SPANS if tracer.calls_of(name, "rank") == 0]
    assert not missing, f"spans never recorded: {missing}"


def unused_imports(source: str) -> list[str]:
    """Names a module's source imports but never reads, except those in __all__."""
    tree = ast.parse(source)
    imported, read, exported = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in read and name not in exported]


def test_no_module_imports_a_name_it_never_uses():
    sample = "import os\nfrom math import pi, tau\n__all__ = ['tau']\nprint(os.sep)\n"
    assert unused_imports(sample) == ["pi (line 2)"]
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "flaicf").glob("*.py"))
             if path.name != "__init__.py"}
    assert "predictors.py" in found
    assert not {name: names for name, names in found.items() if names}


def test_every_name_in_a_modules_all_resolves():
    missing, checked = {}, []
    for path in sorted((ROOT / "src" / "flaicf").glob("*.py")):
        name = "flaicf" if path.stem == "__init__" else f"flaicf.{path.stem}"
        module = importlib.import_module(name)
        if hasattr(module, "__all__"):
            checked.append(name)
            missing[name] = [n for n in module.__all__ if not hasattr(module, n)]
    assert {"flaicf", "flaicf.training"} <= set(checked)
    assert not {name: names for name, names in missing.items() if names}
