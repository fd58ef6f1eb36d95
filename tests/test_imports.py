"""Import hygiene of the rblkit modules (the package __init__ re-exports and
is left out): no module imports a private name of another rblkit module,
and none imports a name it never uses."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rblkit"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imports(tree):
    """(bound name, imported name, from an rblkit module, line) of each import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield bound, alias.name, alias.name.startswith("rblkit"), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            internal = node.level > 0 or (node.module or "").startswith("rblkit")
            for alias in node.names:
                yield alias.asname or alias.name, alias.name, internal, node.lineno


def test_every_module_is_checked():
    assert {"harness.py", "cli.py", "measurement.py", "estimators.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_imports_are_public_and_used(module):
    tree = ast.parse((PACKAGE / module).read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for bound, name, internal, line in imports(tree):
        assert not (internal and name.startswith("_")), f"{module}:{line} imports private {name}"
        assert bound in used, f"{module}:{line} imports {bound} and never uses it"
