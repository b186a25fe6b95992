"""The benchmark's tracer and micro-benchmarks still reach the layers they name.

perfbench/ wraps homoforge functions by attribute name and imports them by
name, so a renamed or moved layer would otherwise leave its spans empty
without any error.
"""

import ast
import importlib
from pathlib import Path

import pytest

from homoforge.experiments import CampaignConfig, run_campaign

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SOURCES = Path(__file__).resolve().parent.parent / "src" / "homoforge"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing"), importlib.import_module("micro")


def test_trace_targets_are_own_attributes(perfbench):
    # Tracer.installed() saves and restores owner.__dict__[attr]
    tracing, _ = perfbench
    for owner, attr, _, _ in tracing.TARGETS:
        assert attr in owner.__dict__, (owner.__name__, attr)


def test_no_unused_imports(perfbench):
    # a module uses every name it imports, unless the tracer wraps that binding
    tracing, _ = perfbench
    wrapped = {(owner.__name__, attr) for owner, attr, _, _ in tracing.TARGETS}
    unused = []
    for path in sorted(SOURCES.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and not (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"
            ):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in used and (f"homoforge.{path.stem}", name) not in wrapped:
                        unused.append((path.name, node.lineno, name))
    assert unused == []


def test_no_dead_private_definitions():
    # a module-level _function, _Class or _CONSTANT (no dunder) in
    # src/homoforge is read there
    trees = [ast.parse(path.read_text()) for path in sorted(SOURCES.glob("*.py"))]
    defined = []
    for node in (node for tree in trees for node in tree.body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.extend(t.id for t in targets if isinstance(t, ast.Name))
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    private = [name for name in defined if name.startswith("_") and not name.startswith("__")]
    assert [name for name in private if name not in used] == []


def test_micro_benchmarks_run(perfbench, monkeypatch):
    _, micro = perfbench
    monkeypatch.setattr(micro, "PREFIX_N", 8)
    monkeypatch.setattr(micro, "PREFIX_FACES", 40)
    monkeypatch.setattr(micro, "SNF_N", 8)
    for fn in micro.benchmarks().values():
        fn()


@pytest.mark.parametrize(
    "kind, prime, span",
    [
        ("hitting_time", 2, "exact_linalg.snf.calls"),
        ("shadow_growth", 3, "homology.shadow.calls"),
    ],
)
def test_traced_campaign_fills_layer_spans(perfbench, kind, prime, span):
    tracing, _ = perfbench
    tracer = tracing.Tracer()
    with tracer.installed():
        run_campaign(
            CampaignConfig(kind=kind, n=8, trials=3, seed_base=0, primes=(prime,))
        )
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["experiments.trial.count"]["value"] == 3
    assert metrics[span]["value"] > 0
