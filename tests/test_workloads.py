"""Every benchmark workload runs once at the smoke size and passes its oracle.

The workloads and oracles under ``perfbench/`` reach the package through
its public API and its CLI: the preset CSVs against a stored reference,
the uniform sweep against closed forms, a disordered trajectory against
Kronecker-product propagation, and a disordered build against label
checksums and entries derived label by label.  Each workload runs here
in-process, once, as ``perfbench/run.py --size smoke`` runs it, so that a
change the benchmark would reject shows up in the tier-1 tests.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
NAMES = ("presets", "sweep-uniform", "full-disordered", "build-disordered")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    return importlib.import_module("workloads")


def test_every_workload_is_covered(workloads):
    assert set(workloads.WORKLOADS) == set(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_workload_passes_its_oracle(workloads, tmp_path, name):
    workload = workloads.WORKLOADS[name](0, "smoke", tmp_path)
    workload.ready()
    payloads = workload.collect(workload.run_pass())
    failed = {op: value for op, value in payloads.items() if isinstance(value, Exception)}
    assert failed == {}
    ok, _ = workload.check(payloads)
    assert set(payloads) <= set(ok)
    assert [op for op, passed in ok.items() if not passed] == []
