"""Every exported name resolves, and the package exports what it imports."""

import ast
import importlib
import pkgutil
import re
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


README = Path(__file__).resolve().parents[1] / "README.md"

# Library entry points that the README names for direct use, and that no
# CLI command reaches. Each must exist, stay unreached from ``cli.main`` and
# be named in backticks in the README, so the list cannot go stale.
ENTRY_POINTS = {
    ("cli", "entrypoint"): "the `kernelbridge` console script and `python3 -m`",
    ("experiments", "variance_contraction_experiment"): "an acceptance experiment",
    ("reporting", "strip_wall_time"): "wall-time stripping of the library table",
    # Its identity is a Monte Carlo one, which the acceptance test checks;
    # verify --suite all is already bound by its random stream.
    ("spectral", "kl_sample"): "series sampling, a Monte Carlo identity no suite runs",
    ("gp", "posterior_mean"): "called in the README's Python session",
    ("spectral", "mercer_kernel_eval"): "kernel reconstruction; no spectral suite yet",
    ("spectral", "hs_inclusion_diagnostic"): "inclusion sum; no spectral suite yet",
}


def _module_graph():
    """Map each ``(module, top-level name)`` under ``src/`` to the
    ``(module, name)`` pairs its statement refers to, and each module to the
    origin of every name it imports from the package."""
    edges, origins = {}, {}
    for path in Path(kernelbridge.__file__).parent.glob("*.py"):
        module = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, modules = {}, set()
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if node.module is None:
                        modules.add(bound)
                    else:
                        imported[bound] = (node.module, alias.name)
        origins[module] = imported
        local = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                local[node.name] = node
            elif isinstance(node, ast.Assign):
                local.update((target.id, node) for target in node.targets)
        for name, node in local.items():
            refs = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    if sub.id in imported:
                        refs.add(imported[sub.id])
                    elif sub.id in local:
                        refs.add((module, sub.id))
                elif (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id in modules
                ):
                    refs.add((sub.value.id, sub.attr))
            edges[(module, name)] = refs
    return edges, origins


def _reached(edges, roots):
    seen, stack = set(), list(roots)
    while stack:
        key = stack.pop()
        if key not in seen:
            seen.add(key)
            stack.extend(edges.get(key, ()))
    return seen


def test_every_public_name_is_reached_from_the_cli_or_a_documented_entry_point():
    edges, origins = _module_graph()
    reached = _reached(edges, [("cli", "main"), *ENTRY_POINTS])
    unreached = []
    for name in ["kernelbridge"] + MODULES:
        module = importlib.import_module(name)
        stem = "__init__" if name == "kernelbridge" else name.split(".")[1]
        for exported in getattr(module, "__all__", []):
            key = origins[stem].get(exported, (stem, exported))
            if key not in reached and exported != "__version__":
                unreached.append(f"{name}.{exported}")
    assert unreached == []


def test_every_entry_point_exists_and_is_not_reached_from_the_cli():
    edges, _ = _module_graph()
    from_cli = _reached(edges, [("cli", "main")])
    assert [key for key in ENTRY_POINTS if key not in edges] == []
    assert [key for key in ENTRY_POINTS if key in from_cli] == []


def test_every_entry_point_is_named_in_the_readme():
    named = set(re.findall(r"`(?:[\w.]+\.)?(\w+)`", README.read_text("utf-8")))
    assert [f"{m}.{name}" for m, name in ENTRY_POINTS if name not in named] == []
