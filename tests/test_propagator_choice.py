"""``evolve`` takes the cheaper propagator: which path it picks, what it logs, and that both paths agree."""

import logging

import numpy as np
import pytest

from magnon_battery import (
    SystemConfig,
    build_effective_hamiltonian,
    build_full_hamiltonian,
    charged_initial_state,
    charging_horizon,
    effective_couplings,
    enumerate_sector_basis,
    evolve,
    parse_config,
    run_experiment,
)
from magnon_battery import dynamics
from magnon_battery.hilbert import _sector

from helpers import dense_threshold, disordered

LOGGER = "magnon_battery.dynamics"


def _per_spin(n, m, model):
    """A disordered per-spin model and its default grid of 401 samples."""
    cfg = disordered(n, m, seed=1)
    if model == "effective":
        h = build_effective_hamiltonian(cfg)
    else:
        h = build_full_hamiltonian(cfg, enumerate_sector_basis(n, m, n, n))
    coupling = float(np.abs(effective_couplings(cfg).charger_battery).max())
    return h, np.linspace(0.0, charging_horizon(n, m, coupling), 401)


def _register(n, m):
    """The full N+M model on one register per side over t in [0, 2000]: a wide magnon ladder."""
    cfg = SystemConfig.dispersive(n, m, g_over_delta=0.01, j_over_delta=1e-4)
    return build_full_hamiltonian(cfg, _sector(cfg._classes, n, n, n)), np.linspace(0.0, 2000.0, 401)


@pytest.mark.parametrize(
    "build, dim, path",
    [
        (lambda: _per_spin(5, 5, "effective"), 252, "chebyshev"),
        (lambda: _per_spin(6, 6, "effective"), 924, "chebyshev"),
        (lambda: _per_spin(7, 3, "full"), 968, "chebyshev"),
        (lambda: _per_spin(4, 3, "full"), 99, "dense"),
        (lambda: _register(20, 10), 176, "dense"),
        (lambda: _register(30, 15), 376, "dense"),
        (lambda: _register(40, 20), 651, "dense"),
        (lambda: _per_spin(6, 6, "full"), 2510, "chebyshev"),  # above the dense path's cap
    ],
    ids=["effective-5+5", "effective-6+6", "full-7+3", "full-4+3", "register-20+10", "register-30+15",
         "register-40+20", "above-the-cap"],
)
def test_chooser_takes_the_cheaper_path(build, dim, path):
    # the fitted estimates put each regime on its side: per-spin effective
    # models and wide per-spin sectors on the Chebyshev walk, small sectors
    # and register models over long horizons (r path up to 40,935) dense
    h, times = build()
    assert h.dimension == dim
    plan = dynamics._choose(h.matrix, times, 1e-10, dynamics._spectral_bounds(h.matrix))
    assert ("dense" if plan is None else "chebyshev") == path


def test_presets_stay_dense_without_a_bessel_table(caplog, monkeypatch):
    # every trajectory of fig2..fig5 is cheaper dense, and the cheap dense
    # terms already tell: no step plan, so no Bessel table, is computed
    tables = []
    monkeypatch.setattr(dynamics, "_bessel", lambda x, order: tables.append(order))
    caplog.set_level(logging.DEBUG, logger=LOGGER)
    for preset in ("fig2", "fig3", "fig4", "fig5"):
        run_experiment(parse_config(preset))
    paths = [record.getMessage().split(":")[0] for record in caplog.records if record.name == LOGGER]
    assert paths == ["dense"] * 46
    assert tables == []


def test_choice_is_logged_and_leaves_the_csv_alone(caplog):
    # the package adds no handler; at DEBUG each call reports its path and
    # why, and a preset's CSV does not change by a byte
    assert not logging.getLogger(LOGGER).handlers and not logging.getLogger("magnon_battery").handlers
    quiet = run_experiment(parse_config("fig4"))
    caplog.set_level(logging.DEBUG, logger=LOGGER)
    assert run_experiment(parse_config("fig4")) == quiet
    assert len(caplog.records) == 20
    h, times = _per_spin(5, 5, "effective")
    caplog.clear()
    evolve(h, charged_initial_state(h.basis), times)
    (record,) = caplog.records
    message = record.getMessage()
    assert record.levelno == logging.DEBUG
    assert message.startswith("chebyshev: dim 252, nnz 6300, 401 samples, r*path ")
    assert "; dense " in message and "Chebyshev 1 moves of order" in message


_SWEEP = """\
[run]
mode = sweep-n

[system]
m_battery = 3
g_over_delta = 0.1
omega_over_delta = 10.0

[sweep]
models = effective
exchange = zero, sweet
n_min = 5
n_max = 7
"""


def test_sweep_metrics_agree_on_both_paths():
    # per-spin effective N = 5..7, M = 3 (dims 56, 84, 120) sit near the
    # crossover; the J = 0 rows have two equal peaks, so a path change must
    # move no metric beyond rounding, and no tau to the other peak
    spec = parse_config(_SWEEP)
    runs = []
    for threshold in (2048, 0):
        with dense_threshold(threshold):
            text = run_experiment(spec)
        runs.append([line.split(",") for line in text.splitlines() if not line.startswith("#")][1:])
    dense, chebyshev = runs
    assert len(dense) == len(chebyshev) == 6
    for want, got in zip(dense, chebyshev):
        assert got[:4] == want[:4]
        np.testing.assert_allclose(np.array(got[4:], float), np.array(want[4:], float), rtol=1e-9, atol=0.0)


def test_walk_out_of_reach_within_the_cap_means_dense(caplog, monkeypatch):
    # over 3e19 phases a step must cover eps r path, about 6,800 phases, or
    # the walk's times stand still, and a move holds 723: the walk is out of
    # reach.  A dense estimate far above the walk's floor makes the chooser
    # look for a step; within the cap it then goes dense
    h, _ = _per_spin(4, 3, "full")
    times = np.array([0.0, 1.0, 1e19])
    monkeypatch.setattr(dynamics, "_DENSE_COST", (1e30, 0.0, 0.0))
    caplog.set_level(logging.DEBUG, logger=LOGGER)
    plan = dynamics._choose(h.matrix, times, np.finfo(float).eps, dynamics._spectral_bounds(h.matrix))
    assert plan is None
    (record,) = caplog.records
    message = record.getMessage()
    assert message.startswith("dense: dim 99, nnz 1155, 3 samples, r*path ")
    assert message.endswith("Chebyshev out of reach, inf s")
    caplog.clear()
    traj = evolve(h, charged_initial_state(h.basis), times, tol=np.finfo(float).eps)
    assert caplog.records[0].getMessage().startswith("dense:")
    assert np.max(np.abs(traj.norm - 1.0)) <= 1e-12
