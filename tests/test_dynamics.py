import math

import numpy as np
import pytest

from magnon_battery import (
    SystemConfig,
    basis_state,
    battery_energy_full,
    build_effective_hamiltonian,
    build_full_hamiltonian,
    charged_initial_state,
    charging_horizon,
    charging_metrics,
    effective_couplings,
    enumerate_sector_basis,
    evolve,
)
from magnon_battery.dynamics import _SLICE_BYTES, Trajectory


@pytest.fixture
def one_to_one():
    cfg = SystemConfig.dispersive(1, 1, g_over_delta=0.1)
    h = build_effective_hamiltonian(cfg)
    return cfg, h, charged_initial_state(h.basis)


def test_energy_curve_one_to_one(one_to_one):
    _, h, psi0 = one_to_one
    times = np.linspace(0.0, 100.0 * math.pi, 501)
    traj = evolve(h, psi0, times)
    assert np.allclose(traj.energy, np.sin(0.01 * times) ** 2, atol=1e-12)
    assert np.allclose(traj.norm, 1.0, atol=1e-12)
    assert traj.power[0] == 0.0
    assert traj.magnon is None  # spin-only basis carries no mode
    assert traj.states is None


def test_keep_states(one_to_one):
    _, h, psi0 = one_to_one
    times = np.linspace(0.0, 10.0, 11)
    traj = evolve(h, psi0, times, keep_states=True)
    assert traj.states.shape == (11, h.dimension)
    assert np.allclose(np.abs(traj.states[0]) ** 2, np.abs(psi0.amplitudes) ** 2)


def test_magnon_column_present_for_full_model():
    cfg = SystemConfig.dispersive(1, 1, g_over_delta=0.1)
    basis = enumerate_sector_basis(1, 1, 1, 1)
    h = build_full_hamiltonian(cfg, basis)
    traj = evolve(h, charged_initial_state(basis), np.linspace(0.0, 50.0, 51))
    assert traj.magnon is not None
    assert np.all(traj.magnon >= 0.0)
    # dispersive regime: the mode is only virtually populated
    assert np.max(traj.magnon) < 0.05


def test_dense_and_ode_paths_agree(one_to_one):
    _, h, psi0 = one_to_one
    times = np.linspace(0.0, 200.0, 101)
    dense = evolve(h, psi0, times)
    ode = evolve(h, psi0, times, dense_threshold=0, tol=1e-12)
    assert np.max(np.abs(dense.energy - ode.energy)) < 1e-9
    assert np.max(np.abs(dense.norm - ode.norm)) < 1e-9


def test_paths_share_the_time_origin():
    # psi0 is the state at t = 0 on both paths, also on a grid that starts later
    cfg = SystemConfig.dispersive(2, 2, g_over_delta=0.3)
    basis = enumerate_sector_basis(2, 2, 2, 2)
    h = build_full_hamiltonian(cfg, basis)
    psi0 = charged_initial_state(basis)
    times = np.linspace(1.0, 5.0, 41)
    dense = evolve(h, psi0, times, keep_states=True)
    ode = evolve(h, psi0, times, dense_threshold=0, keep_states=True)
    assert np.max(np.abs(ode.energy - dense.energy)) <= 1e-8
    assert np.max(np.abs(ode.states - dense.states)) <= 1e-6


def _full_register(n):
    cfg = SystemConfig.dispersive(n, n, g_over_delta=0.1)
    basis = enumerate_sector_basis(n, n, n, n)
    coupling = effective_couplings(cfg).charger_battery[0, 0]
    return build_full_hamiltonian(cfg, basis), charged_initial_state(basis), coupling


def test_ode_path_honours_tol():
    # the sector carries a constant omega*N_exc; only a rotating frame
    # lets the integrator reach its tolerance against exact propagation
    h, psi0, coupling = _full_register(3)
    times = np.linspace(0.0, charging_horizon(3, 3, coupling), 401)
    dense = evolve(h, psi0, times)
    ode = evolve(h, psi0, times, dense_threshold=0, tol=1e-10)
    assert np.max(np.abs(ode.energy - dense.energy)) <= 1e-8
    assert np.max(np.abs(ode.norm - 1.0)) <= 1e-8
    assert np.max(np.abs(ode.magnon - dense.magnon)) <= 1e-8
    assert ode.states is None


def test_ode_path_lab_frame_states_across_slices():
    h, psi0, coupling = _full_register(3)
    samples = 2 * _SLICE_BYTES // (16 * h.dimension) + 101
    times = np.linspace(0.0, charging_horizon(3, 3, coupling), samples)
    assert samples * h.dimension * 16 > 2 * _SLICE_BYTES  # three slices at least
    dense = evolve(h, psi0, times, keep_states=True)
    ode = evolve(h, psi0, times, dense_threshold=0, keep_states=True)
    assert ode.states.shape == (samples, h.dimension)
    # lab-frame amplitudes, global phase included
    assert np.max(np.abs(ode.states - dense.states)) <= 1e-6
    assert np.max(np.abs(ode.energy - dense.energy)) <= 1e-8
    assert evolve(h, psi0, times, dense_threshold=0).states is None


def test_evolve_validation(one_to_one):
    _, h, psi0 = one_to_one
    good = np.linspace(0.0, 1.0, 5)
    with pytest.raises(TypeError, match="HamiltonianMatrix"):
        evolve(h.toarray(), psi0, good)
    with pytest.raises(ValueError, match="at least two"):
        evolve(h, psi0, [0.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        evolve(h, psi0, [0.0, 2.0, 1.0])
    from magnon_battery import StateVector

    big = enumerate_sector_basis(2, 1, 0, 2)
    other = basis_state(big, (1, 1, 0, 0))
    with pytest.raises(ValueError, match="dimension"):
        evolve(h, other, good)
    unnorm = StateVector(np.array([0.5, 0.0]), h.basis)
    with pytest.raises(ValueError, match="normalized"):
        evolve(h, unnorm, good)


def test_metrics_refinement_beats_grid():
    # coarse sampling of sin^2: the quadratic vertex lands much closer
    # to the true peak than the best grid point
    times = np.linspace(0.0, 4.0, 41)
    energy = np.sin(times) ** 2
    traj = Trajectory(
        times=times,
        energy=energy,
        power=np.where(times > 0, energy / np.maximum(times, 1e-300), 0.0),
        norm=np.ones_like(times),
    )
    metrics = charging_metrics(traj)
    assert abs(metrics.tau - math.pi / 2) < 1e-3
    assert abs(metrics.e_max - 1.0) < 1e-4
    assert not metrics.monotone
    assert metrics.p_max >= metrics.p_tau > 0.0


def test_metrics_monotone_flag():
    times = np.linspace(0.0, 1.0, 50)
    energy = times**2
    traj = Trajectory(
        times=times,
        energy=energy,
        power=np.where(times > 0, energy / np.maximum(times, 1e-300), 0.0),
        norm=np.ones_like(times),
    )
    metrics = charging_metrics(traj)
    assert metrics.monotone
    assert metrics.e_max == energy[-1]
    assert metrics.tau == times[-1]


def test_metrics_tie_breaks_to_earliest():
    times = np.arange(5.0)
    energy = np.array([0.0, 1.0, 0.0, 1.0, 0.0])  # two exactly equal peaks
    traj = Trajectory(
        times=times,
        energy=energy,
        power=np.where(times > 0, energy / np.maximum(times, 1e-300), 0.0),
        norm=np.ones_like(times),
    )
    metrics = charging_metrics(traj)
    assert metrics.tau == 1.0
    assert metrics.e_max == 1.0


def test_battery_energy_full_includes_exchange():
    cfg = SystemConfig(
        n_charger=1, m_battery=2, omega=3.0, omega_m=4.0,
        g_charger=(0.1,), g_battery=(0.1, 0.1), j_charger=0.0, j_battery=0.5,
    )
    basis = enumerate_sector_basis(1, 2, 1, 1)
    plus = (basis_state(basis, (0, 0, 1, 0)).amplitudes
            + basis_state(basis, (0, 0, 0, 1)).amplitudes) / math.sqrt(2)
    from magnon_battery import StateVector

    psi = StateVector(plus, basis)
    # one excited battery spin (omega) plus the symmetric exchange bonus
    assert battery_energy_full(psi, basis, cfg) == pytest.approx(3.0 + 0.5)
    bare = basis_state(basis, (0, 0, 1, 0))
    assert battery_energy_full(bare, basis, cfg) == pytest.approx(3.0)


def test_charging_horizon():
    assert charging_horizon(4, 1, -0.01) == pytest.approx(1.2 * math.pi / 0.02)
    assert charging_horizon(1, 9, 0.01, factor=2.0) == pytest.approx(2.0 * math.pi / 0.03)
    with pytest.raises(ValueError, match="zero coupling"):
        charging_horizon(1, 1, 0.0)


def test_energy_reported_in_splitting_units():
    # raw frequencies differ from 1; the energy column is still occupation
    cfg = SystemConfig.uniform(1, 1, g=0.05, omega=7.0, omega_m=7.5)
    g_eff = effective_couplings(cfg).uniform_value()
    h = build_effective_hamiltonian(cfg)
    times = np.linspace(0.0, math.pi / (2 * abs(g_eff)), 301)
    traj = evolve(h, charged_initial_state(h.basis), times)
    assert charging_metrics(traj).e_max == pytest.approx(1.0, abs=1e-6)
