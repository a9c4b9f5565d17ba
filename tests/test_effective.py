"""Mode elimination against exact-diagonalization oracles."""

import dataclasses

import numpy as np
import pytest

from magnon_battery import (
    SystemConfig,
    build_effective_hamiltonian,
    build_full_hamiltonian,
    charged_initial_state,
    effective_couplings,
    enumerate_sector_basis,
    evolve,
    sweet_spot_j,
)

from helpers import second_order_coupling


def test_induced_coupling_values():
    cfg = SystemConfig.dispersive(2, 1, g_over_delta=0.1)
    couplings = effective_couplings(cfg)
    # mode above the spins: G = g^2/(omega - omega_m) = -g^2/delta
    assert couplings.charger_battery == pytest.approx(np.full((2, 1), -0.01))
    assert couplings.charger_charger[0, 1] == pytest.approx(-0.01)
    assert np.all(np.diag(couplings.charger_charger) == 0.0)
    assert couplings.uniform_value() == pytest.approx(-0.01)
    assert couplings.detuning == 1.0


def test_induced_coupling_sign_flips_below():
    cfg = SystemConfig.uniform(1, 1, g=0.2, omega=5.0, omega_m=4.0)
    assert effective_couplings(cfg).uniform_value() == pytest.approx(0.04)


def test_nonuniform_couplings():
    cfg = SystemConfig(
        n_charger=2, m_battery=1, omega=10.0, omega_m=11.0,
        g_charger=(0.1, 0.2), g_battery=(0.1,), j_charger=0.0, j_battery=0.0,
    )
    assert effective_couplings(cfg).charger_battery[1, 0] == pytest.approx(-0.02)
    # a few ulps apart is not uniform either: the same exact rule as is_uniform()
    close = dataclasses.replace(cfg, g_charger=(0.1, 0.1000000000000001))
    assert not close.is_uniform()
    for config in (cfg, close):
        couplings = effective_couplings(config)
        with pytest.raises(ValueError, match="not uniform"):
            couplings.uniform_value()
        with pytest.raises(ValueError, match="per pair"):
            sweet_spot_j(couplings)


def test_sweet_spot_value():
    cfg = SystemConfig.dispersive(3, 2, g_over_delta=0.1)
    assert sweet_spot_j(effective_couplings(cfg)) == pytest.approx(0.01)


def test_second_order_coupling_ladder_oracle():
    """Two degenerate levels talking through detuned intermediates.

    With identical couplings out of both low levels the second-order
    block is [[S, G], [G, S]], so exact diagonalization of the full
    4-level matrix splits the low doublet by 2|G| up to relative
    corrections of order (g/gap)^2.
    """
    rng = np.random.default_rng(7)
    for _ in range(5):
        gaps = rng.uniform(1.0, 3.0, 2)
        g = rng.uniform(0.005, 0.02, 2)
        energies = [0.0, 0.0, gaps[0], gaps[1]]
        h_int = np.zeros((4, 4))
        for w, gw in zip((2, 3), g):
            h_int[0, w] = h_int[w, 0] = gw
            h_int[1, w] = h_int[w, 1] = gw
        coupling = second_order_coupling(energies, h_int, 0, 1)
        expected = -(g[0] ** 2 / gaps[0] + g[1] ** 2 / gaps[1])
        assert coupling == pytest.approx(expected)
        eig = np.linalg.eigvalsh(np.diag(energies) + h_int)
        splitting = eig[1] - eig[0]
        ratio = max(g) / min(gaps)
        assert splitting == pytest.approx(2 * abs(coupling), rel=20 * ratio**2)


def test_second_order_coupling_errors():
    h_int = np.zeros((3, 3))
    h_int[0, 2] = h_int[2, 0] = 0.1
    h_int[1, 2] = h_int[2, 1] = 0.1
    with pytest.raises(ValueError, match="different"):
        second_order_coupling([0.0, 0.0, 1.0], h_int, 1, 1)
    with pytest.raises(ValueError, match="degenerate"):
        second_order_coupling([0.0, 0.0, 0.0], h_int, 0, 1)
    # a degenerate level nothing couples to is harmless
    h_int2 = np.zeros((4, 4))
    h_int2[0, 3] = h_int2[3, 0] = 0.1
    h_int2[1, 3] = h_int2[3, 1] = 0.1
    second_order_coupling([0.0, 0.0, 0.0, 1.0], h_int2, 0, 1)
    with pytest.raises(ValueError, match="shape"):
        second_order_coupling([0.0, 0.0], h_int, 0, 1)


def test_second_order_coupling_gives_induced_couplings():
    """Perturbation theory on the full model reproduces G of every spin pair.

    With J = 0 the one-excitation sector (cutoff 1) couples each single-spin
    state only to the one-magnon state, so the second-order coupling of two
    spins is g g' / (omega - omega_m), whatever the disorder.
    """
    rng = np.random.default_rng(5)
    n, m = 2, 3
    cfg = SystemConfig(
        n_charger=n, m_battery=m, omega=10.0, omega_m=11.0,
        g_charger=rng.uniform(0.05, 0.15, n), g_battery=rng.uniform(0.05, 0.15, m),
        j_charger=0.0, j_battery=0.0,
    )
    basis = enumerate_sector_basis(n, m, 1, 1)
    h = build_full_hamiltonian(cfg, basis).toarray()
    energies = np.diag(h).real
    h_int = h - np.diag(np.diag(h))
    # every label but the one-magnon state excites one spin, chargers first
    spins = [p for p, label in enumerate(basis.labels) if not label[n]]
    induced = np.array([
        [0.0 if p == q else second_order_coupling(energies, h_int, p, q) for q in spins]
        for p in spins
    ])
    assert not np.any(induced.imag)
    couplings = effective_couplings(cfg)
    for got, want in (
        (induced[:n, n:], couplings.charger_battery),
        (induced[:n, :n], couplings.charger_charger),
        (induced[n:, n:], couplings.battery_battery),
    ):
        np.testing.assert_allclose(got.real, want, rtol=1e-15, atol=0.0)


def test_effective_matrix_two_to_one():
    cfg = SystemConfig.dispersive(2, 1, g_over_delta=0.1, j_over_delta=0.03)
    h = build_effective_hamiltonian(cfg).toarray()
    g_eff = -0.01
    j = 0.03
    # basis order (|ee,g>, |eg,e>, |ge,e>)
    expected = np.array(
        [
            [0.0, g_eff, g_eff],
            [g_eff, 0.0, g_eff + j],
            [g_eff, g_eff + j, 0.0],
        ],
        dtype=complex,
    )
    assert np.allclose(h, expected, atol=1e-15)


def test_effective_default_sector():
    cfg = SystemConfig.dispersive(3, 2, g_over_delta=0.1)
    h = build_effective_hamiltonian(cfg)
    assert h.basis.n_excitations == 3
    assert h.basis.cutoff == 0
    # the model has no mode: a config's fock_cutoff is not checked against the basis
    truncated = build_effective_hamiltonian(dataclasses.replace(cfg, fock_cutoff=2))
    assert truncated.basis.cutoff == 0
    assert (truncated.matrix != h.matrix).nnz == 0


def test_dispersive_warning():
    noisy = SystemConfig.dispersive(1, 1, g_over_delta=0.5)
    with pytest.warns(UserWarning, match="not well controlled"):
        build_effective_hamiltonian(noisy)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_effective_hamiltonian(SystemConfig.dispersive(1, 1, g_over_delta=0.1))


def test_effective_tracks_full_model():
    """Deep in the dispersive regime the reduced model is quantitative."""
    cfg = SystemConfig.dispersive(2, 1, g_over_delta=0.02, j_over_delta=0.01)
    g_eff = effective_couplings(cfg).uniform_value()
    times = np.linspace(0.0, 0.25 * np.pi / abs(g_eff), 400)
    basis = enumerate_sector_basis(2, 1, 2, 2)
    full = evolve(build_full_hamiltonian(cfg, basis), charged_initial_state(basis), times)
    h_eff = build_effective_hamiltonian(cfg)
    eff = evolve(h_eff, charged_initial_state(h_eff.basis), times)
    assert np.max(np.abs(full.energy - eff.energy)) < 5e-3
