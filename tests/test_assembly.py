"""Sector matrices against operators built from Kronecker products.

Each model is written here as a sum of spin and Fock operators on the
tensor product of the N charger spins, the mode and the M battery spins,
in the order of a basis label, and then projected onto a basis through
each label's position in that product.  Nothing here goes through the
package's assembler, so every stored entry, explicit zero or not, is
checked against an independent derivation.  The symmetric-register
models (the collective model, the full model and the battery energy of
a register-uniform config) are checked in turn against the per-spin
models that these tests pin, through the Dicke embedding.  The models on
mixed symmetry classes are checked against the projected Kronecker
operators through an embedding built from the labels alone.
"""

import hashlib

import numpy as np
import pytest

from magnon_battery import (
    SectorBasis,
    StateVector,
    SystemConfig,
    basis_state,
    battery_energy_full,
    build_collective_hamiltonian,
    build_effective_hamiltonian,
    build_full_hamiltonian,
    charged_initial_state,
    dicke_embed,
    effective_couplings,
    enumerate_composite_basis,
    enumerate_sector_basis,
)
from magnon_battery import dynamics
from magnon_battery.hilbert import _sector

from helpers import class_isometry, disordered, per_side

RAISE = np.array([[0.0, 0.0], [1.0, 0.0]])  # |1><0| on occupations (0, 1)


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
    cfg, basis = disordered(), BASES[kind]()
    space, h = _full_operator(cfg, basis.cutoff)
    built = build_full_hamiltonian(cfg, basis).toarray()
    assert np.max(np.abs(built - space.project(h, basis.labels))) <= 1e-12


@pytest.mark.parametrize("kind", sorted(BASES))
def test_battery_energy_matches_kronecker_operator(kind):
    cfg, basis = disordered(), BASES[kind]()
    rng = np.random.default_rng(11)
    amps = rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(basis.dimension)
    psi = StateVector(amps / np.linalg.norm(amps), basis)
    space, h = _battery_operator(cfg, basis.cutoff)
    want = np.vdot(psi.amplitudes, space.project(h, basis.labels) @ psi.amplitudes).real
    assert abs(battery_energy_full(psi, basis, cfg) - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("n_excitations", [1, 2, 3, 4])
def test_effective_hamiltonian_matches_kronecker_operator(n_excitations):
    cfg = disordered()
    basis = enumerate_sector_basis(3, 2, 0, n_excitations)
    built = build_effective_hamiltonian(cfg, basis)
    assert built.basis is basis
    space, h = _effective_operator(cfg)
    assert np.max(np.abs(built.toarray() - space.project(h, built.basis.labels))) <= 1e-12


SIZES = [(n, m) for n in range(1, 10) for m in range(1, 11 - n)]


# the sweet spot J/delta = 0.01 runs under the ids "N-M"; other J add theirs
@pytest.mark.parametrize(
    "n, m, j_over_delta",
    [pytest.param(n, m, 0.01, id=f"{n}-{m}") for n, m in SIZES]
    + [pytest.param(n, m, j, id=f"{n}-{m}-{j}") for j in (0.0, 0.05) for n, m in SIZES],
)
def test_collective_is_effective_model_on_symmetric_registers(n, m, j_over_delta):
    # registers of capacity K = N and M: V^dag H_eff V over the embedded
    # Dicke states must be the effective model built on the registers, at
    # any J, and the sweet-spot reference model at J = -G (J/delta = 0.01)
    cfg = SystemConfig.dispersive(n, m, g_over_delta=0.1, j_over_delta=j_over_delta)
    registers = build_effective_hamiltonian(cfg, _sector(per_side(n, m), n, 0, n))
    per_spin = build_effective_hamiltonian(cfg)
    columns = [dicke_embed(basis_state(registers.basis, lab)) for lab in registers.basis.labels]
    assert all(col.basis.labels == per_spin.basis.labels for col in columns)
    v = np.array([col.amplitudes for col in columns]).T
    projected = v.conj().T @ per_spin.toarray() @ v
    assert np.max(np.abs(projected - registers.toarray())) <= 1e-12
    if j_over_delta == 0.01:
        coupling = effective_couplings(cfg).uniform_value()
        assert coupling == pytest.approx(-0.01, rel=1e-12)
        collective = build_collective_hamiltonian(coupling, n, m)
        assert collective.basis.labels == registers.basis.labels
        assert np.max(np.abs(projected - collective.toarray())) <= 1e-12


def _register_uniform(n, m, g_c, g_b, j_c, j_b):
    return SystemConfig(
        n_charger=n,
        m_battery=m,
        omega=10.0,
        omega_m=11.0,
        g_charger=g_c,
        g_battery=g_b,
        j_charger=j_c,
        j_battery=j_b,
    )


def _dicke_columns(basis):
    """V: the embedded Dicke states of a register basis, one per column."""
    columns = [dicke_embed(basis_state(basis, lab)) for lab in basis.labels]
    return columns[0].basis, np.array([col.amplitudes for col in columns]).T


# (g_C, g_B, J_C, J_B): uniform with J in {0, -G, 0.05} (G = -0.01), and
# registers that differ from each other but are uniform within themselves
REGISTER_COUPLINGS = (
    (0.1, 0.1, 0.0, 0.0),
    (0.1, 0.1, 0.01, 0.01),
    (0.1, 0.1, 0.05, 0.05),
    (0.1, 0.13, 0.02, -0.03),
)


@pytest.mark.parametrize(
    "n, m, cutoff",
    [(n, m, n) for n, m in SIZES]
    + [(3, 2, 1), (4, 3, 2), (6, 4, 0)],
)
def test_full_model_on_symmetric_registers(n, m, cutoff):
    # V^dag H_full V over the embedded Dicke states must be the full model
    # on the register sector, J n(K-n) diagonal included
    basis = _sector(per_side(n, m), n, cutoff, n)
    spins, v = _dicke_columns(basis)
    assert spins.labels == enumerate_sector_basis(n, m, cutoff, n).labels
    assert basis.dimension <= (n + 1) * (m + 1)
    for couplings in REGISTER_COUPLINGS:
        cfg = _register_uniform(n, m, *couplings)
        projected = v.conj().T @ build_full_hamiltonian(cfg, spins).toarray() @ v
        built = build_full_hamiltonian(cfg, basis).toarray()
        assert np.max(np.abs(projected - built)) <= 1e-12


@pytest.mark.parametrize("n, m, cutoff", [(2, 2, 2), (3, 3, 1), (2, 4, 2), (4, 3, 4)])
def test_battery_energy_on_symmetric_registers(n, m, cutoff):
    basis = _sector(per_side(n, m), n, cutoff, n)
    rng = np.random.default_rng(5)
    amps = rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(basis.dimension)
    psi = StateVector(amps / np.linalg.norm(amps), basis)
    spread = dicke_embed(psi)
    n_b = np.array([lab[2] for lab in basis.labels])
    for couplings in REGISTER_COUPLINGS:
        cfg = _register_uniform(n, m, *couplings)
        j_b = couplings[3]
        got = battery_energy_full(psi, basis, cfg)
        closed = np.abs(psi.amplitudes) ** 2 @ (cfg.omega * n_b + j_b * n_b * (m - n_b))
        assert got == pytest.approx(closed, rel=1e-12, abs=1e-12)
        assert got == pytest.approx(battery_energy_full(spread, spread.basis, cfg), rel=1e-12, abs=1e-12)


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
    # 71 spins: the label keys outgrow int64, the one-excitation sector stays
    # tiny; 46 spins: the keys fit int64, but their space is far too large
    # for a dense key table, so both find their targets by searchsorted
    for m, key_type in ((70, object), (45, np.int64)):
        cfg = SystemConfig.dispersive(1, m, g_over_delta=0.1)
        h = build_effective_hamiltonian(cfg)
        assert h.basis._keys.dtype == key_type
        coupling = 0.1**2 / (cfg.omega - cfg.omega_m)
        want = coupling * (np.ones((m + 1, m + 1)) - np.eye(m + 1))
        assert np.max(np.abs(h.toarray() - want)) <= 1e-15
        assert h.nnz == (m + 1) * m


def _reordered(basis, rows):
    """The basis of the given rows of basis's labels, in that order."""
    return SectorBasis(
        basis._classes, basis.n_charger, basis.cutoff, basis._occupations[rows], basis.n_excitations
    )


@pytest.mark.parametrize("kind", ["shuffled", "partial"])
def test_models_on_reordered_and_partial_bases(kind):
    # labels out of descending key order, and a basis that is not closed
    # under the hops, whose missing targets are dropped
    cfg, rng = disordered(), np.random.default_rng(5)
    for basis, (space, h) in (
        (enumerate_sector_basis(3, 2, 3, 3), _full_operator(cfg, 3)),
        (enumerate_sector_basis(3, 2, 0, 3), _effective_operator(cfg)),
    ):
        rows = rng.permutation(basis.dimension)
        if kind == "partial":
            rows = rows[: basis.dimension // 2]
        basis = _reordered(basis, rows)
        build = build_full_hamiltonian if basis.cutoff else build_effective_hamiltonian
        built = build(cfg, basis).toarray()
        assert np.max(np.abs(built - space.project(h, basis.labels))) <= 1e-12


# sha256 of dtype and bytes of indptr, indices and data, in that order
PINNED = {
    "full": "a6e2040eaf57adffccddb70647bcee02f4e04c8e70429baf566992615b75e89e",
    "effective": "f36a98aa6c8d1c7510a65faddf0c6c7b695b3f1c16f1fd718e45ab589c3fab15",
    "battery": "95fd988441e30c356ab346ffdac614fdd91c0727d444b3b4a8604f42d1f84de9",
    "register": "3f1a633dcb916a593a5633e2f295a1383c903cb121818f70eb5732532cb8b73b",
}


def _digest(matrix) -> str:
    digest = hashlib.sha256()
    for part in (matrix.indptr, matrix.indices, matrix.data):
        digest.update(part.dtype.str.encode() + part.tobytes())
    return digest.hexdigest()


def test_csr_arrays_are_pinned(monkeypatch):
    # the exact indptr, indices and data, dtypes included, of per-spin 4+4
    # builds and of a 20+10 register build: recorded from the COO assembler
    # that the move table replaced, which it reproduces bit for bit
    built = {}
    plain = dynamics._assemble

    def kept(*args):
        built["battery"] = plain(*args)
        return built["battery"]

    monkeypatch.setattr(dynamics, "_assemble", kept)
    cfg = disordered(4, 4, seed=0)
    basis = enumerate_sector_basis(4, 4, 4, 4)
    built["full"] = build_full_hamiltonian(cfg, basis).matrix
    built["effective"] = build_effective_hamiltonian(cfg).matrix
    battery_energy_full(charged_initial_state(basis), basis, cfg)
    cfg = SystemConfig.dispersive(20, 10, g_over_delta=0.1, j_over_delta=0.01)
    built["register"] = build_full_hamiltonian(cfg, _sector(cfg._classes, 20, 20, 20)).matrix
    assert {name: _digest(matrix) for name, matrix in built.items()} == PINNED


def _matrix(size, within, between, classes):
    """Symmetric J: `within` inside each class of spin numbers, `between` elsewhere."""
    j = np.full((size, size), between)
    for members in classes:
        j[np.ix_(members, members)] = within[members[0]]
    np.fill_diagonal(j, 0.0)
    return j


# (N, M, g_C, g_B, J_C, J_B) and the classes they fall into, spins numbered
# chargers first: a class that is not contiguous, a singleton beside a larger
# class, and classes whose inner J differs from the J between them
MIXED = {
    "non-contiguous": (
        3, 3, (0.1, 0.12, 0.1), 0.1,
        _matrix(3, {0: 0.03}, 0.01, [(0, 2)]), _matrix(3, {0: 0.02}, 0.01, [(0, 2)]),
        ((0, 2), (1,), (3, 5), (4,)),
    ),
    "singleton-beside-class": (
        4, 2, (0.1, 0.1, 0.1, 0.13), (0.09, 0.09),
        _matrix(4, {0: 0.03}, 0.01, [(0, 1, 2)]), -0.02,
        ((0, 1, 2), (3,), (4, 5)),
    ),
    "two-battery-classes": (
        2, 4, 0.1, (0.1, 0.13, 0.1, 0.13),
        0.02, _matrix(4, {0: 0.04, 1: -0.02}, 0.01, [(0, 2), (1, 3)]),
        ((0, 1), (2, 4), (3, 5)),
    ),
}


def _mixed(name):
    n, m, g_c, g_b, j_c, j_b, classes = MIXED[name]
    cfg = SystemConfig(
        n_charger=n, m_battery=m, omega=10.0, omega_m=11.0,
        g_charger=g_c, g_battery=g_b, j_charger=j_c, j_battery=j_b,
    )
    assert cfg._classes == classes
    return cfg, classes


@pytest.mark.parametrize("name", sorted(MIXED))
def test_models_on_mixed_classes_are_projected_per_spin_models(name):
    # V^dag H V over the symmetric states of each class must be the model
    # built on the class registers, and H V = V H_class (the class span is
    # closed): the full model at cutoff N and at cutoff 1, its battery
    # energy, and the effective model
    cfg, classes = _mixed(name)
    n, m = cfg.n_charger, cfg.m_battery
    rng = np.random.default_rng(11)
    for cutoff in (n, 1):
        basis = _sector(classes, n, cutoff, n)
        spins = enumerate_sector_basis(n, m, cutoff, n).labels
        v = class_isometry(classes, n, basis.labels, spins)
        assert np.max(np.abs(v.T @ v - np.eye(basis.dimension))) <= 1e-15
        assert basis.dimension < len(spins)
        space, h = _full_operator(cfg, cutoff)
        h = space.project(h, spins)
        built = build_full_hamiltonian(cfg, basis).toarray()
        assert np.max(np.abs(v.T @ h @ v - built)) <= 1e-12
        assert np.max(np.abs(h @ v - v @ built)) <= 1e-12
        amps = rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(basis.dimension)
        psi = StateVector(amps / np.linalg.norm(amps), basis)
        space, h_battery = _battery_operator(cfg, cutoff)
        spread = v @ psi.amplitudes
        want = np.vdot(spread, space.project(h_battery, spins) @ spread).real
        assert battery_energy_full(psi, basis, cfg) == pytest.approx(want, rel=1e-12, abs=1e-12)
    basis = _sector(classes, n, 0, n)
    effective = build_effective_hamiltonian(cfg)
    v = class_isometry(classes, n, basis.labels, effective.basis.labels)
    space, h = _effective_operator(cfg)
    h = space.project(h, effective.basis.labels)
    built = build_effective_hamiltonian(cfg, basis).toarray()
    assert np.max(np.abs(v.T @ h @ v - built)) <= 1e-12
    assert np.max(np.abs(h @ v - v @ built)) <= 1e-12


def test_register_across_two_classes_rejected():
    cfg, _ = _mixed("non-contiguous")
    # spins 0 and 1 differ in g: no symmetric register holds both
    basis = _sector(((0, 1), (2,), (3, 5), (4,)), 3, 3, 3)
    with pytest.raises(ValueError, match="couplings differ"):
        build_full_hamiltonian(cfg, basis)
    with pytest.raises(ValueError, match="couplings differ"):
        build_effective_hamiltonian(cfg, _sector(((0, 1), (2,), (3, 5), (4,)), 3, 0, 3))
    # a class split further is still exact: spin 2 alone beside spin 0
    finer = _sector(((0,), (1,), (2,), (3, 5), (4,)), 3, 3, 3)
    assert build_full_hamiltonian(cfg, finer).dimension > _sector(cfg._classes, 3, 3, 3).dimension
