"""Every public top-level function and class of the package, and every
public method and property of its classes, is used by the package itself,
so code that only tests call cannot accumulate."""
from __future__ import annotations

import ast
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
