"""Closed forms checked against direct propagation of the reduced models."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from magnon_battery import (
    SystemConfig,
    build_collective_hamiltonian,
    build_effective_hamiltonian,
    charged_initial_state,
    collective_charged_state,
    evolve,
)
from magnon_battery.analytic import (
    e_n_one,
    e_one_one,
    e_two_one,
    e_two_two,
    two_to_one_spectrum,
)

from helpers import state_n_one, state_two_one, state_two_two


def _propagate(h, t):
    """exp(-iHt) applied to the first basis vector."""
    psi0 = np.zeros(h.shape[0], dtype=complex)
    psi0[0] = 1.0
    return expm(-1j * h * t) @ psi0


def _two_one_matrix(g, j):
    return np.array([[0, g, g], [g, 0, g + j], [g, g + j, 0]], dtype=float)


def test_spectrum_levels():
    spec = two_to_one_spectrum(-0.01, 0.0)
    root = math.sqrt(0.01**2 + 8 * 0.01**2)
    assert spec.eps_plus == pytest.approx((-0.01 + root) / 2)
    assert spec.eps_minus == pytest.approx((-0.01 - root) / 2)
    # the bright levels are eigenvalues of the reduced matrix
    eig = np.linalg.eigvalsh(_two_one_matrix(-0.01, 0.0))
    for eps in (spec.eps_plus, spec.eps_minus):
        assert np.min(np.abs(eig - eps)) < 1e-12
    with pytest.raises(ValueError, match="no bright sector"):
        two_to_one_spectrum(0.0, 0.0)


def test_e_one_one_scalar_and_array():
    assert e_one_one(-0.01, math.pi / 0.02) == pytest.approx(1.0)
    t = np.linspace(0.0, 100.0, 7)
    curve = e_one_one(0.01, t, omega=2.0)
    assert curve.shape == (7,)
    assert curve[0] == 0.0
    assert np.all(curve <= 2.0)


def test_state_two_one_matches_propagation():
    # every sign combination of coupling and exchange
    for g, j in [(-0.01, 0.0), (-0.01, 0.01), (0.01, 0.03), (0.02, -0.05), (-0.015, -0.01)]:
        h = _two_one_matrix(g, j)
        for t in (0.0, 13.7, 180.0):
            exact = _propagate(h, t)
            assert np.max(np.abs(state_two_one(g, j, t) - exact)) < 1e-10


def test_e_two_one_matches_propagation():
    for g, j in [(-0.01, 0.0), (-0.01, 0.01), (0.01, 0.1)]:
        h = _two_one_matrix(g, j)
        times = np.linspace(0.0, 400.0, 41)
        battery = np.array([np.sum(np.abs(_propagate(h, t)[1:]) ** 2) for t in times])
        assert np.max(np.abs(e_two_one(g, j, times) - battery)) < 1e-10


def test_e_two_one_sweet_spot_full_transfer():
    g = -0.01
    tau = math.pi / (2 * math.sqrt(2) * abs(g))
    assert e_two_one(g, -g, tau) == pytest.approx(1.0)
    # without cancellation the transfer caps at 8/9, attained half-way
    # through the two-level beat
    spec = two_to_one_spectrum(g, 0.0)
    t_star = math.pi / (spec.eps_plus - spec.eps_minus)
    assert e_two_one(g, 0.0, t_star) == pytest.approx(8 / 9, abs=1e-12)
    assert np.max(e_two_one(g, 0.0, np.linspace(0.0, 1000.0, 20001))) <= 8 / 9 + 1e-12


def test_state_n_one_matches_effective_model():
    for n in (1, 2, 3, 5):
        cfg = SystemConfig.dispersive(n, 1, g_over_delta=0.1, j_over_delta=0.01)
        h = build_effective_hamiltonian(cfg)
        times = np.linspace(0.0, 250.0, 26)
        traj = evolve(h, charged_initial_state(h.basis), times, keep_states=True)
        for k, t in enumerate(times):
            assert np.max(np.abs(state_n_one(-0.01, n, t) - traj.states[k])) < 1e-10


def test_e_n_one_peak_time_scales_as_sqrt_n():
    for n in (1, 4, 9):
        tau = math.pi / (2 * math.sqrt(n) * 0.01)
        assert e_n_one(-0.01, n, tau) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="positive integer"):
        e_n_one(0.01, 0, 1.0)


def test_state_two_two_matches_collective_model():
    g = -0.01
    h = build_collective_hamiltonian(g, 2, 2)
    times = np.linspace(0.0, 300.0, 31)
    traj = evolve(h, collective_charged_state(h.basis), times, keep_states=True)
    for k, t in enumerate(times):
        assert np.max(np.abs(state_two_two(g, t) - traj.states[k])) < 1e-10


def test_e_two_two_full_transfer():
    g = -0.01
    tau = math.pi / (2 * math.sqrt(2) * abs(g))
    assert e_two_two(g, tau) == pytest.approx(2.0)
    times = np.linspace(0.0, 4 * tau, 801)
    state_energy = np.array(
        [np.abs(state_two_two(g, t)[1]) ** 2 + 2 * np.abs(state_two_two(g, t)[2]) ** 2
         for t in times]
    )
    assert np.max(np.abs(e_two_two(g, times) - state_energy)) < 1e-12


def test_omega_scales_energies():
    assert e_two_two(0.01, 10.0, omega=3.0) == pytest.approx(3.0 * e_two_two(0.01, 10.0))
    assert e_two_one(0.01, 0.0, 10.0, omega=3.0) == pytest.approx(3.0 * e_two_one(0.01, 0.0, 10.0))
