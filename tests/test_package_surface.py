"""Every public top-level function and class of the package is used by
the package itself, so code that only tests call cannot accumulate."""
from __future__ import annotations

import ast
from pathlib import Path

import artifact

# Public API kept for callers outside the package: checking an externally
# produced (P, rho) convergence certificate.
ALLOWED_UNUSED = {"verify_certificate"}


def _referenced_names(node: ast.AST) -> set[str]:
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def test_every_public_definition_is_referenced_inside_the_package() -> None:
    definitions: list[tuple[str, str, ast.stmt]] = []
    statements: list[ast.stmt] = []
    for path in sorted(Path(artifact.__file__).parent.rglob("*.py")):
        module = ast.parse(path.read_text(), filename=str(path))
        statements.extend(module.body)
        for stmt in module.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                definitions.append((path.name, stmt.name, stmt))
    assert definitions

    # a reference from inside its own definition (recursion) does not count
    uses = [(stmt, _referenced_names(stmt)) for stmt in statements]
    unused = sorted(
        f"{module}:{name}"
        for module, name, own in definitions
        if name not in ALLOWED_UNUSED
        and not any(name in names for stmt, names in uses if stmt is not own)
    )
    assert unused == [], f"public definitions no package code references: {unused}"
