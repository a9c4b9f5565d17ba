"""The benchmark's span tracer still finds every name it wraps.

``perfbench/tracing.py`` wraps package functions by name and records a
name it cannot find as missing instead of failing, so a refactor that
renames or drops one of them would silently lose a layer from every
traced benchmark run.  This installs the tracer, restores the originals
at once, and requires that nothing was missing.
"""

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
