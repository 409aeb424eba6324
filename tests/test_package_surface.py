"""Every public top-level function and class of the package, and every
public method and property of its classes, is used by the package itself,
so code that only tests call cannot accumulate.  Every package name the
benchmark's tracer wraps or imports, and every package function its
worker calls, resolves, so a rename fails here before it breaks a
benchmark run."""
from __future__ import annotations

import ast
import importlib
from collections import Counter
from pathlib import Path

import artifact


def _referenced_names(node: ast.AST) -> Counter[str]:
    names: Counter[str] = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name] += 1
    return names


def _public_definitions(module: ast.Module, path: Path):
    for stmt in module.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
            yield f"{path.name}:{stmt.name}", stmt
        if isinstance(stmt, ast.ClassDef):
            for member in stmt.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{path.name}:{stmt.name}.{member.name}", member


def test_every_public_definition_is_referenced_inside_the_package() -> None:
    definitions: list[tuple[str, ast.AST]] = []
    uses: Counter[str] = Counter()
    for path in sorted(Path(artifact.__file__).parent.rglob("*.py")):
        module = ast.parse(path.read_text(), filename=str(path))
        uses += _referenced_names(module)
        definitions.extend(_public_definitions(module, path))
    assert any("." in label for label, _ in definitions)

    # a reference from inside its own definition (recursion) does not count
    unused = sorted(
        label
        for label, own in definitions
        if uses[own.name] - _referenced_names(own)[own.name] == 0
    )
    assert unused == [], f"public definitions no package code references: {unused}"


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _benchmark_names() -> list[tuple[str, str]]:
    """(module, name) pairs the benchmark needs from the package, read
    without importing it: the tracer's TRACED table, the `from artifact...
    import name` statements of the tracer and the worker, and every
    `runner.*`, `config.*` or `cli.*` attribute the worker calls on the
    modules it imports with `from artifact import ...`."""
    names: list[tuple[str, str]] = []
    for path in (PERFBENCH / "tracer.py", PERFBENCH / "worker.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
            ):
                names.extend((module, func) for module, func, _ in ast.literal_eval(node.value))
            elif isinstance(node, ast.ImportFrom) and node.module == "artifact":
                for alias in node.names:
                    modules[alias.asname or alias.name] = f"artifact.{alias.name}"
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("artifact"):
                names.extend((node.module, alias.name) for alias in node.names)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in modules
            ):
                names.append((modules[node.func.value.id], node.func.attr))
    return names


def test_every_name_the_benchmark_tracer_wraps_resolves_on_the_package() -> None:
    names = _benchmark_names()
    assert ("artifact.detectability", "steady_tri") in names
    assert ("artifact.residuals", "word_dim") in names
    # the worker's set-ups and operations
    assert {
        ("artifact.runner", "prepare_modes"),
        ("artifact.runner", "gain_bank"),
        ("artifact.config", "load_config"),
        ("artifact.cli", "main"),
        ("artifact.scenarios", "scenario_path"),
    } <= set(names)
    missing = [
        f"{module}.{name}"
        for module, name in names
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == [], f"names perfbench/ needs but the package lacks: {missing}"
