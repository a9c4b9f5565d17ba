"""The benchmark still finds every package name it uses.

``perfbench/tracing.py`` wraps package functions by name and records a
name it cannot find as missing instead of failing, so a refactor that
renames or drops one of them would silently lose a layer from every
traced benchmark run.  One test installs the tracer, restores the
originals at once, and requires that nothing was missing.  The other
reads the benchmark's sources and requires that every ``magnon_battery``
name they import or read as an attribute resolves on the package.
"""

import ast
import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_finds_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    restore()
    assert tracer.missing == []


def _package_names(source: str) -> set[str]:
    """Dotted magnon_battery names a module reads: imports and attribute chains."""
    aliases, names = {}, set()
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "magnon_battery":
                    names.add(alias.name)
                    aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "magnon_battery":
            for alias in node.names:
                names.add(f"{node.module}.{alias.name}")
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in aliases:
            names.add(".".join([aliases[node.id], *reversed(chain)]))
    return names


def test_benchmark_names_resolve():
    # the benchmark calls the package by these names; a missing one would
    # only show as failed benchmark operations
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        names |= _package_names(path.read_text())
    assert "magnon_battery.build_full_hamiltonian" in names
    missing = []
    for name in sorted(names):
        parts = name.split(".")
        try:
            value = importlib.import_module(parts[0])
            for part in parts[1:]:
                value = getattr(value, part)
        except AttributeError:
            missing.append(name)
    assert missing == []
