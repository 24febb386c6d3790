"""Every exported name resolves, and the package exports what it imports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import kernelbridge

MODULES = sorted(
    f"kernelbridge.{info.name}" for info in pkgutil.iter_modules(kernelbridge.__path__)
)


@pytest.mark.parametrize("name", ["kernelbridge"] + MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []


def test_the_package_exports_exactly_what_it_imports():
    tree = ast.parse(Path(kernelbridge.__file__).read_text(encoding="utf-8"))
    defined = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            defined.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets if t.id != "__all__")
    assert set(kernelbridge.__all__) == defined
