"""Sector matrices against operators built from Kronecker products.

Each model is written here as a sum of spin and Fock operators on the
tensor product of the N charger spins, the mode and the M battery spins,
in the order of a basis label, and then projected onto a basis through
each label's position in that product.  Nothing here goes through the
package's assembler, so every stored entry, explicit zero or not, is
checked against an independent derivation.
"""

import numpy as np
import pytest

from magnon_battery import (
    StateVector,
    SystemConfig,
    battery_energy_full,
    build_collective_hamiltonian,
    build_effective_hamiltonian,
    build_full_hamiltonian,
    enumerate_composite_basis,
    enumerate_sector_basis,
)

RAISE = np.array([[0.0, 0.0], [1.0, 0.0]])  # |1><0| on occupations (0, 1)


def _disordered(n=3, m=2, seed=7):
    rng = np.random.default_rng(seed)

    def exchange(size):
        upper = np.triu(rng.uniform(-0.02, 0.05, (size, size)), 1)
        return upper + upper.T

    return SystemConfig(
        n_charger=n,
        m_battery=m,
        omega=10.0,
        omega_m=11.0,
        g_charger=tuple(0.1 * (1.0 + 0.3 * rng.uniform(-1.0, 1.0, n))),
        g_battery=tuple(0.1 * (1.0 + 0.3 * rng.uniform(-1.0, 1.0, m))),
        j_charger=exchange(n),
        j_battery=exchange(m),
    )


class Space:
    """Tensor product of the charger spins, a mode with `cutoff` quanta, the battery spins."""

    def __init__(self, n, m, cutoff):
        self.n, self.m = n, m
        self.dims = (2,) * n + (cutoff + 1,) + (2,) * m
        self.charger = [self.site(RAISE, i) for i in range(n)]
        self.battery = [self.site(RAISE, n + 1 + k) for k in range(m)]
        self.a_dag = self.site(np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), -1), n)

    def site(self, op, where):
        out = np.ones((1, 1))
        for k, dim in enumerate(self.dims):
            out = np.kron(out, op if k == where else np.eye(dim))
        return out

    def project(self, op, labels):
        pos = np.ravel_multi_index(np.array(labels).T, self.dims)
        return op[np.ix_(pos, pos)]


def _flip_flop(ups, amplitude):
    """Sum of amplitude[i, j] sigma_j^+ sigma_i^- over i != j."""
    out = 0.0
    for i, up_i in enumerate(ups):
        for j, up_j in enumerate(ups):
            if i != j:
                out = out + amplitude[i, j] * up_j @ up_i.T
    return out


def _full_operator(cfg, cutoff):
    space = Space(cfg.n_charger, cfg.m_battery, cutoff)
    a_dag = space.a_dag
    h = cfg.omega_m * a_dag @ a_dag.T
    for g, up in zip(cfg.g_charger + cfg.g_battery, space.charger + space.battery):
        h = h + cfg.omega * up @ up.T + g * (up @ a_dag.T + a_dag @ up.T)
    h = h + _flip_flop(space.charger, cfg.j_charger) + _flip_flop(space.battery, cfg.j_battery)
    return space, h


def _effective_operator(cfg):
    space = Space(cfg.n_charger, cfg.m_battery, 0)
    g_c, g_b = np.array(cfg.g_charger), np.array(cfg.g_battery)
    induced = 1.0 / (cfg.omega - cfg.omega_m)
    h = _flip_flop(space.charger, induced * np.outer(g_c, g_c) + cfg.j_charger)
    h = h + _flip_flop(space.battery, induced * np.outer(g_b, g_b) + cfg.j_battery)
    for i, up_c in enumerate(space.charger):
        for k, up_b in enumerate(space.battery):
            h = h + induced * g_c[i] * g_b[k] * (up_c @ up_b.T + up_b @ up_c.T)
    return space, h


def _battery_operator(cfg, cutoff):
    space = Space(cfg.n_charger, cfg.m_battery, cutoff)
    h = sum(cfg.omega * up @ up.T for up in space.battery)
    return space, h + _flip_flop(space.battery, cfg.j_battery)


BASES = {
    "composite": lambda: enumerate_composite_basis(3, 2, 2),
    "cutoff-1 sector": lambda: enumerate_sector_basis(3, 2, 1, 3),
    "exact sector": lambda: enumerate_sector_basis(3, 2, 3, 3),
}


@pytest.mark.parametrize("kind", sorted(BASES))
def test_full_hamiltonian_matches_kronecker_operator(kind):
    cfg, basis = _disordered(), BASES[kind]()
    space, h = _full_operator(cfg, basis.cutoff)
    built = build_full_hamiltonian(cfg, basis).toarray()
    assert np.max(np.abs(built - space.project(h, basis.labels))) <= 1e-12


@pytest.mark.parametrize("kind", sorted(BASES))
def test_battery_energy_matches_kronecker_operator(kind):
    cfg, basis = _disordered(), BASES[kind]()
    rng = np.random.default_rng(11)
    amps = rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(basis.dimension)
    psi = StateVector(amps / np.linalg.norm(amps), basis)
    space, h = _battery_operator(cfg, basis.cutoff)
    want = np.vdot(psi.amplitudes, space.project(h, basis.labels) @ psi.amplitudes).real
    assert abs(battery_energy_full(psi, basis, cfg) - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("n_excitations", [1, 2, 3, 4])
def test_effective_hamiltonian_matches_kronecker_operator(n_excitations):
    cfg = _disordered()
    built = build_effective_hamiltonian(cfg, n_excitations)
    assert built.basis.labels == enumerate_sector_basis(3, 2, 0, n_excitations).labels
    space, h = _effective_operator(cfg)
    assert np.max(np.abs(built.toarray() - space.project(h, built.basis.labels))) <= 1e-12


def test_zero_amplitude_pairs_are_not_stored():
    # a charger that does not couple leaves zero charger-battery pairs;
    # they are dropped, the spin-mode hops of the full model are kept
    cfg = SystemConfig(
        n_charger=2,
        m_battery=2,
        omega=10.0,
        omega_m=11.0,
        g_charger=(0.0, 0.1),
        g_battery=(0.1, 0.1),
        j_charger=np.zeros((2, 2)),
        j_battery=np.zeros((2, 2)),
    )
    effective = build_effective_hamiltonian(cfg)
    space, h = _effective_operator(cfg)
    want = space.project(h, effective.basis.labels)
    assert np.max(np.abs(effective.toarray() - want)) <= 1e-12
    assert effective.nnz == 12
    basis = enumerate_sector_basis(2, 2, 1, 1)
    full = build_full_hamiltonian(cfg, basis)
    space, h = _full_operator(cfg, 1)
    assert np.max(np.abs(full.toarray() - space.project(h, basis.labels))) <= 1e-12
    # diagonal (5) plus every spin-mode pair (2 x 4), the g = 0 one included
    assert full.nnz == 13
    collective = build_collective_hamiltonian(0.0, 3, 2)
    assert collective.nnz == 0 and not collective.toarray().any()


def test_keys_beyond_63_bits():
    # 71 spins: the label keys outgrow int64, the one-excitation sector stays tiny
    cfg = SystemConfig.dispersive(1, 70, g_over_delta=0.1)
    h = build_effective_hamiltonian(cfg)
    coupling = 0.1**2 / (cfg.omega - cfg.omega_m)
    want = coupling * (np.ones((71, 71)) - np.eye(71))
    assert np.max(np.abs(h.toarray() - want)) <= 1e-15
    assert h.nnz == 71 * 70
