import math

import numpy as np
import pytest

from magnon_battery import (
    SectorBasis,
    StateVector,
    SystemConfig,
    basis_state,
    build_collective_hamiltonian,
    build_effective_hamiltonian,
    charged_initial_state,
    collective_charged_state,
    dicke_embed,
    effective_couplings,
    enumerate_sector_basis,
    evolve,
)

from helpers import per_side


def test_dicke_basis_labels():
    # one column per register: (n_C, n_magnon, n_B), n_C descending
    basis = build_collective_hamiltonian(0.01, 2, 2).basis
    assert basis.labels == ((2, 0, 0), (1, 0, 1), (0, 0, 2))
    assert basis.n_excitations == 2
    assert basis.dimension == 3
    asym = build_collective_hamiltonian(0.01, 3, 1).basis
    assert asym.labels == ((3, 0, 0), (2, 0, 1))
    # at N = M = 1 the symmetric basis is the per-spin sector basis
    assert build_collective_hamiltonian(0.01, 1, 1).basis.labels == (
        enumerate_sector_basis(1, 1, 0, 1).labels
    )


def test_dicke_basis_errors():
    with pytest.raises(ValueError, match="positive"):
        build_collective_hamiltonian(0.01, 0, 1)
    # a register holds at most its own number of spins
    with pytest.raises(ValueError, match="occupation ranges"):
        SectorBasis(per_side(2, 2), 2, 0, ((3, 0, 0),), 3)
    # labels hold one column per register, plus the magnon
    with pytest.raises(ValueError, match="columns"):
        SectorBasis(per_side(2, 2), 2, 0, ((2, 0),), 2)


def test_collective_hamiltonian_two_to_two():
    # equally coupled three-level ladder: a rigid spin-1 rotation
    g = -0.01
    h = build_collective_hamiltonian(g, 2, 2).toarray()
    expected = 2 * g * np.array(
        [[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex
    )
    assert np.allclose(h, expected, atol=1e-15)


def test_collective_hamiltonian_n_to_one():
    # N=3, M=1 sector is two levels coupled at sqrt(3) g
    g = 0.02
    h = build_collective_hamiltonian(g, 3, 1).toarray()
    assert h.shape == (2, 2)
    assert h[0, 1] == pytest.approx(math.sqrt(3) * g)


def test_collective_charged_state():
    basis = build_collective_hamiltonian(0.01, 2, 2).basis
    psi = collective_charged_state(basis)
    assert psi.amplitudes[0] == 1.0
    # a sector of the symmetric registers that the charged state is not in
    other = SectorBasis(per_side(2, 2), 2, 0, ((1, 0, 0), (0, 0, 1)), 1)
    with pytest.raises(ValueError, match="outside this basis"):
        collective_charged_state(other)


def test_dicke_embed_binomial_weights():
    # two charger excitations out of three spread over C(3,2)=3 strings
    basis = build_collective_hamiltonian(0.01, 3, 1).basis
    embedded = dicke_embed(basis_state(basis, (2, 0, 1)))
    assert embedded.basis.n_excitations == 3
    nonzero = {
        label: amp
        for label, amp in zip(embedded.basis.labels, embedded.amplitudes)
        if amp != 0.0
    }
    assert len(nonzero) == 3
    for label, amp in nonzero.items():
        assert (sum(label[:3]), label[3], sum(label[4:])) == (2, 0, 1)
        assert amp == pytest.approx(1.0 / math.sqrt(3))


def test_dicke_embed_preserves_norm():
    rng = np.random.default_rng(3)
    for n, m in [(1, 1), (2, 2), (3, 2), (4, 3)]:
        basis = build_collective_hamiltonian(0.01, n, m).basis
        amps = rng.normal(size=basis.dimension) + 1j * rng.normal(size=basis.dimension)
        amps /= np.linalg.norm(amps)
        embedded = dicke_embed(StateVector(amps, basis))
        assert embedded.norm() == pytest.approx(1.0, abs=1e-12)


def test_dicke_embed_rejects_plain_basis():
    basis = enumerate_sector_basis(2, 1, 0, 2)
    with pytest.raises(TypeError, match="symmetric registers"):
        dicke_embed(basis_state(basis, (1, 1, 0, 0)))


def test_collective_matches_effective_at_sweet_spot():
    cfg = SystemConfig.dispersive(3, 2, g_over_delta=0.1, j_over_delta=0.01)
    g = effective_couplings(cfg).uniform_value()
    times = np.linspace(0.0, math.pi / abs(g), 200)
    h_col = build_collective_hamiltonian(g, 3, 2)
    col = evolve(h_col, collective_charged_state(h_col.basis), times)
    h_eff = build_effective_hamiltonian(cfg)
    eff = evolve(h_eff, charged_initial_state(h_eff.basis), times)
    assert np.max(np.abs(col.energy - eff.energy)) < 1e-10
