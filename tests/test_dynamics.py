import math
import tracemalloc

import numpy as np
import pytest

from magnon_battery import (
    StateVector,
    SystemConfig,
    basis_state,
    battery_energy_full,
    build_collective_hamiltonian,
    build_effective_hamiltonian,
    build_full_hamiltonian,
    charged_initial_state,
    charging_horizon,
    charging_metrics,
    effective_couplings,
    enumerate_sector_basis,
    evolve,
)
from magnon_battery import dynamics
from magnon_battery.dynamics import _SLICE_BYTES, Trajectory, _bessel
from magnon_battery.hilbert import HamiltonianMatrix, _sector

from helpers import count_products, dense_threshold


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
    with dense_threshold(2048):
        dense = evolve(h, psi0, times)
    with dense_threshold(0):
        ode = evolve(h, psi0, times, tol=1e-12)
    assert np.max(np.abs(dense.energy - ode.energy)) < 1e-9
    assert np.max(np.abs(dense.norm - ode.norm)) < 1e-9


def test_paths_share_the_time_origin():
    # psi0 is the state at t = 0 on both paths, also on a grid that starts later
    cfg = SystemConfig.dispersive(2, 2, g_over_delta=0.3)
    basis = enumerate_sector_basis(2, 2, 2, 2)
    h = build_full_hamiltonian(cfg, basis)
    psi0 = charged_initial_state(basis)
    times = np.linspace(1.0, 5.0, 41)
    with dense_threshold(2048):
        dense = evolve(h, psi0, times, keep_states=True)
    with dense_threshold(0):
        ode = evolve(h, psi0, times, keep_states=True)
    assert np.max(np.abs(ode.energy - dense.energy)) <= 1e-8
    assert np.max(np.abs(ode.states - dense.states)) <= 1e-6


def _full_register(n):
    cfg = SystemConfig.dispersive(n, n, g_over_delta=0.1)
    basis = enumerate_sector_basis(n, n, n, n)
    coupling = effective_couplings(cfg).charger_battery[0, 0]
    return build_full_hamiltonian(cfg, basis), charged_initial_state(basis), coupling


def test_ode_path_honours_tol():
    # the sector carries a constant omega*N_exc; the Chebyshev walk runs in
    # the frame rotating at the Gershgorin centre, which takes it out, and
    # meets its tolerance against exact propagation
    h, psi0, coupling = _full_register(3)
    times = np.linspace(0.0, charging_horizon(3, 3, coupling), 401)
    with dense_threshold(2048):
        dense = evolve(h, psi0, times)
    with dense_threshold(0):
        ode = evolve(h, psi0, times, tol=1e-10)
    assert np.max(np.abs(ode.energy - dense.energy)) <= 1e-8
    assert np.max(np.abs(ode.norm - 1.0)) <= 1e-8
    assert np.max(np.abs(ode.magnon - dense.magnon)) <= 1e-8
    assert ode.states is None


def test_ode_path_lab_frame_states_across_slices():
    # per spin 3+3 (dim 42) and 4+4 (dim 163): more samples than three blocks
    # of the dense path hold (24 bytes per entry in a block of _SLICE_BYTES);
    # the Chebyshev path hands them over in blocks of at most 724, in the
    # frame rotating at its centre, and evolve turns the kept ones back into
    # the lab frame
    for n in (3, 4):
        h, psi0, coupling = _full_register(n)
        samples = 2 * _SLICE_BYTES // (16 * h.dimension) + 101
        times = np.linspace(0.0, charging_horizon(n, n, coupling), samples)
        assert samples * h.dimension * 16 > 2 * _SLICE_BYTES  # over three dense blocks
        with dense_threshold(2048):
            dense = evolve(h, psi0, times, keep_states=True)
        with dense_threshold(0):
            ode = evolve(h, psi0, times, keep_states=True)
            assert evolve(h, psi0, times).states is None
        assert ode.states.shape == (samples, h.dimension)
        # lab-frame amplitudes, global phase included
        assert np.max(np.abs(ode.states - dense.states)) <= 1e-6
        assert np.max(np.abs(ode.energy - dense.energy)) <= 1e-8


def test_evolve_validation(one_to_one, monkeypatch):
    _, h, psi0 = one_to_one
    good = np.linspace(0.0, 1.0, 5)
    with pytest.raises(TypeError, match="HamiltonianMatrix"):
        evolve(h.toarray(), psi0, good)
    with pytest.raises(ValueError, match="at least two"):
        evolve(h, psi0, [0.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        evolve(h, psi0, [0.0, 2.0, 1.0])
    # a grid that is not finite is bad input on both paths, not a numerical failure
    for times in ([0.0, 1.0, math.nan], [0.0, math.inf], [-math.inf, 0.0]):
        for threshold in (2048, 0):
            with dense_threshold(threshold), pytest.raises(ValueError, match="finite"):
                evolve(h, psi0, times)
    from magnon_battery import StateVector

    big = enumerate_sector_basis(2, 1, 0, 2)
    other = basis_state(big, (1, 1, 0, 0))
    with pytest.raises(ValueError, match="dimension"):
        evolve(h, other, good)
    unnorm = StateVector(np.array([0.5, 0.0]), h.basis)
    with pytest.raises(ValueError, match="normalized"):
        evolve(h, unnorm, good)
    # a NaN norm is no norm: rejected on both paths, not propagated as NaN energies
    for threshold in (2048, 0):
        with dense_threshold(threshold), pytest.raises(ValueError, match="not normalized"):
            evolve(h, StateVector(np.array([math.nan, 0.0]), h.basis), good)
    # below float64 rounding a tol cannot be met: rejected on both paths
    for tol in (0.0, -1e-10, math.inf, math.nan, 1e-100, np.finfo(float).eps / 2):
        for threshold in (2048, 0):
            with dense_threshold(threshold), pytest.raises(ValueError, match="tol"):
                evolve(h, psi0, good, tol=tol)
    # over 1e300 phases a step that float64 times can still take is too
    # short to finish: refused at the default budget and at 16 vectors per step
    for budget in (_SLICE_BYTES, 256):
        monkeypatch.setattr(dynamics, "_SLICE_BYTES", budget)
        with dense_threshold(0), pytest.raises(FloatingPointError, match="out of reach"):
            evolve(h, psi0, [0.0, 1e300])
    monkeypatch.undo()
    unbounded = HamiltonianMatrix(np.diag([math.inf, 0.0]), h.basis)
    for threshold in (2048, 0):
        with dense_threshold(threshold), pytest.raises(ValueError, match="Gershgorin"):
            evolve(unbounded, psi0, good)


def test_evolve_rejects_a_state_of_another_basis():
    # same dim and occupation rows, but column 2 is the mode in one basis
    # and a battery spin in the other: (2 chargers, 1 battery) against (1, 2)
    b21, b12 = enumerate_sector_basis(2, 1, 1, 2), enumerate_sector_basis(1, 2, 1, 2)
    assert b21.dimension == b12.dimension == 6
    h = build_full_hamiltonian(SystemConfig.dispersive(2, 1, g_over_delta=0.1), b21)
    stranger = basis_state(b12, (1, 0, 1, 0))
    with pytest.raises(ValueError, match="basis"):
        evolve(h, stranger, np.linspace(0.0, 1.0, 5))
    # an equal basis built apart is the same basis
    twin = basis_state(enumerate_sector_basis(2, 1, 1, 2), (1, 0, 1, 0))
    assert evolve(h, twin, np.linspace(0.0, 1.0, 5)).norm[-1] == pytest.approx(1.0)


def test_bessel_matches_scipy():
    from scipy.special import jv

    x = np.concatenate([[1e-12, 1e-3, 0.5], np.linspace(0.0, 150.0, 601)])
    orders = np.arange(201)
    ours = _bessel(x, 200)[: orders.size]
    assert np.max(np.abs(ours - jv(orders[:, None], x[None, :]))) <= 1e-14
    # J_k(-x) = (-1)^k J_k(x)
    assert np.array_equal(_bessel(-x, 200)[: orders.size], ours * (-1.0) ** orders[:, None])


def _agrees_with_dense(h, psi0, times, bound=1e-9):
    with dense_threshold(2048):
        dense = evolve(h, psi0, times)
    with dense_threshold(0):
        cheb = evolve(h, psi0, times, tol=1e-10)
    assert np.max(np.abs(cheb.energy - dense.energy)) <= bound
    assert np.max(np.abs(cheb.norm - 1.0)) <= bound
    return dense, cheb


def test_dense_path_memory_is_free_of_the_grid_length():
    # the full 30+15 model on one register per side (dim 376): 4,001 samples
    # already span several blocks, so five times as many peak no higher
    # (apart from the observables themselves) under tracemalloc
    cfg = SystemConfig.dispersive(30, 15, g_over_delta=0.01, j_over_delta=1e-4)
    basis = _sector(cfg._classes, 30, 30, 30)
    h, psi0 = build_full_hamiltonian(cfg, basis), charged_initial_state(basis)
    assert h.dimension == 376 and 4001 * h.dimension * 24 > 2 * _SLICE_BYTES
    peaks = []
    for samples in (4001, 20001):
        tracemalloc.start()
        try:
            with dense_threshold(2048):
                evolve(h, psi0, np.linspace(0.0, 2000.0, samples))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0], [f"{peak / 2**20:.1f} MiB" for peak in peaks]


def test_chebyshev_holds_tol_on_registers():
    # the full 40+20 model on one register per side (dim 651): a wide magnon
    # ladder, Gershgorin half-width about 20, so thousands of products
    cfg = SystemConfig.dispersive(40, 20, g_over_delta=0.01, j_over_delta=1e-4)
    basis = _sector(cfg._classes, 40, 40, 40)
    h = build_full_hamiltonian(cfg, basis)
    assert h.dimension == 651
    dense, _ = _agrees_with_dense(h, charged_initial_state(basis), np.linspace(0.0, 400.0, 401))
    assert np.max(dense.energy) > 1.0  # charging is under way


def test_chebyshev_holds_tol_per_spin():
    h, psi0, coupling = _full_register(4)
    _agrees_with_dense(h, psi0, np.linspace(0.0, charging_horizon(4, 4, coupling), 401))


@pytest.mark.parametrize(
    "times",
    [np.array([0.0, 1.0, 3000.0, 3001.0]), np.linspace(-40.0, 40.0, 81)],
    ids=["beyond-one-step", "before-zero"],
)
def test_chebyshev_reaches_any_grid(times):
    # a sample thousands of phases away is reached through intermediate
    # anchors; a grid before t = 0 is reached backwards from psi0
    h, psi0, _ = _full_register(4)
    _agrees_with_dense(h, psi0, times)


@pytest.mark.parametrize("budget", [_SLICE_BYTES, 256], ids=["default-span", "span-16"])
@pytest.mark.parametrize(
    "times",
    [
        np.linspace(0.0, 30.0, 301),
        np.linspace(0.0, 30.0, 3001),
        np.array([0.0, 1.0, 300.0, 301.0]),
        np.linspace(-40.0, 40.0, 81),
        np.union1d(np.linspace(0.0, 20.0, 41), np.linspace(0.0, 0.01, 20)),
    ],
    ids=["uniform", "dense", "gap", "before-zero", "clustered"],
)
def test_chebyshev_state_error_within_tol(times, budget, monkeypatch):
    # tol bounds the distance from the exact state at every sample; 256 bytes
    # leave a move 16 vectors, as above 32,768 states, and on the dense and
    # clustered grids a step length holds more samples than one block may
    monkeypatch.setattr(dynamics, "_SLICE_BYTES", budget)
    h, psi0, _ = _full_register(3)
    with dense_threshold(2048):
        dense = evolve(h, psi0, times, keep_states=True)
    for tol in (1e-3, 1e-6, 1e-10):
        with dense_threshold(0):
            cheb = evolve(h, psi0, times, tol=tol, keep_states=True)
        assert np.max(np.linalg.norm(cheb.states - dense.states, axis=1)) <= tol


def test_chebyshev_step_is_free_of_the_grid(monkeypatch):
    # at the default budget a path of 120 fits one move, on a grid from 0
    # and on one before t = 0 alike; at 16 vectors per move, 20 samples
    # packed into [0, 0.01] cost no more products than the coarse grid
    # alone, and a grid of two far pairs computes Bessel values once for
    # the step choice and once per table of a move's samples
    h, psi0, _ = _full_register(3)
    products = count_products(monkeypatch, h.matrix)

    def cost(times):
        products[0] = 0
        with dense_threshold(0):
            evolve(h, psi0, times)
        return products[0]

    assert 0 < cost(np.linspace(-40.0, 40.0, 81)) == cost(np.linspace(0.0, 120.0, 121))
    monkeypatch.setattr(dynamics, "_SLICE_BYTES", 256)
    coarse = np.linspace(0.0, 20.0, 41)
    assert 0 < cost(np.union1d(coarse, np.linspace(0.0, 0.01, 20))) <= cost(coarse)
    calls = []

    def bessel(x, order):
        calls.append(x)
        return _bessel(x, order)

    monkeypatch.setattr(dynamics, "_bessel", bessel)
    gap = np.array([0.0, 1.0, 300.0, 301.0])
    with dense_threshold(0):
        evolve(h, psi0, gap)
    assert len(calls) <= gap.size + 1  # a block holds one sample at least


def test_chebyshev_complex_hamiltonian():
    # a diagonal gauge D H D^dag makes H complex with the same observables
    h, psi0, coupling = _full_register(3)
    gauge = np.exp(1j * np.linspace(0.0, 3.0, h.dimension))
    rotated = gauge[:, None] * h.toarray() * gauge.conj()[None, :]
    twisted = HamiltonianMatrix(0.5 * (rotated + rotated.conj().T), h.basis)
    assert np.any(twisted.matrix.data.imag)
    psi = StateVector(gauge * psi0.amplitudes, h.basis)
    times = np.linspace(0.0, charging_horizon(3, 3, coupling), 201)
    _, cheb = _agrees_with_dense(twisted, psi, times)
    plain = evolve(h, psi0, times)
    assert np.max(np.abs(cheb.energy - plain.energy)) <= 1e-9


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


def test_incompatible_basis_rejected():
    # a config fits no basis of other register sizes, and a basis of
    # symmetric registers only if it is uniform within each register
    disordered = SystemConfig(
        n_charger=2,
        m_battery=2,
        omega=10.0,
        omega_m=11.0,
        g_charger=(0.1, 0.12),
        g_battery=(0.1, 0.1),
        j_charger=0.0,
        j_battery=0.0,
    )
    symmetric = build_collective_hamiltonian(0.01, 2, 2).basis
    cases = (
        (enumerate_sector_basis(2, 3, 2, 2), "do not match"),
        (symmetric, "one column per register"),
    )
    for basis, message in cases:
        psi = StateVector(np.eye(basis.dimension)[0], basis)
        with pytest.raises(ValueError, match=message):
            build_full_hamiltonian(disordered, basis)
        with pytest.raises(ValueError, match=message):
            battery_energy_full(psi, basis, disordered)
    uniform = SystemConfig.dispersive(2, 2, g_over_delta=0.1)
    assert build_full_hamiltonian(uniform, symmetric).dimension == symmetric.dimension
    # (n_C, n_m, n_B) = (2, 0, 0): nothing stored in the battery
    psi = StateVector(np.eye(symmetric.dimension)[0], symmetric)
    assert battery_energy_full(psi, symmetric, uniform) == 0.0
