import math

import numpy as np
import pytest

from magnon_battery import (
    DickeBasis,
    StateVector,
    SystemConfig,
    build_collective_hamiltonian,
    build_effective_hamiltonian,
    charged_initial_state,
    collective_charged_state,
    dicke_embed,
    effective_couplings,
    evolve,
    ladder_matrices,
    ladder_matrix_element,
)


def test_ladder_matrix_element_values():
    assert ladder_matrix_element(0.5, -0.5, "+") == pytest.approx(1.0)
    assert ladder_matrix_element(0.5, 0.5, "+") == 0.0
    assert ladder_matrix_element(1.0, 0.0, "-") == pytest.approx(math.sqrt(2))
    assert ladder_matrix_element(1.5, 0.5, "+") == pytest.approx(math.sqrt(3))
    assert ladder_matrix_element(1.0, 1.0, -1) == pytest.approx(math.sqrt(2))


def test_ladder_matrix_element_errors():
    with pytest.raises(ValueError, match="exceeds"):
        ladder_matrix_element(0.5, 1.5, "+")
    with pytest.raises(ValueError, match="not integer or half-integer"):
        ladder_matrix_element(0.3, 0.0, "+")
    with pytest.raises(ValueError, match="not reachable"):
        ladder_matrix_element(1.0, 0.5, "+")
    with pytest.raises(ValueError, match="direction"):
        ladder_matrix_element(1.0, 0.0, "up")


def test_ladder_matrices_algebra():
    j = 1.5
    j_plus, j_minus, j_z = ladder_matrices(j)
    assert j_plus.shape == (4, 4)
    assert (j_plus.toarray() == j_minus.toarray().T).all()
    # [J+, J-] = 2 Jz and [Jz, J+] = J+
    comm = (j_plus @ j_minus - j_minus @ j_plus).toarray()
    assert np.allclose(comm, 2 * j_z.toarray())
    comm_z = (j_z @ j_plus - j_plus @ j_z).toarray()
    assert np.allclose(comm_z, j_plus.toarray())


def test_dicke_basis_labels():
    basis = DickeBasis(2, 2, 0.0)
    assert basis.labels == ((1.0, -1.0), (0.0, 0.0), (-1.0, 1.0))
    assert basis.j_charger == 1.0
    assert basis.dimension == 3
    asym = DickeBasis(3, 1, 1.0)
    assert asym.labels == ((1.5, -0.5), (0.5, 0.5))


def test_dicke_basis_errors():
    with pytest.raises(ValueError, match="empty sector"):
        DickeBasis(1, 1, 5.0)
    with pytest.raises(ValueError, match="half-integer"):
        DickeBasis(2, 2, 0.3)
    with pytest.raises(ValueError, match="positive"):
        DickeBasis(0, 1, 0.0)


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
    basis = DickeBasis(2, 2, 0.0)
    psi = collective_charged_state(basis)
    assert psi.amplitudes[0] == 1.0
    with pytest.raises(ValueError, match="outside this sector"):
        collective_charged_state(DickeBasis(2, 2, -1.0))


def test_dicke_embed_binomial_weights():
    # two charger excitations out of three spread over C(3,2)=3 strings
    basis = DickeBasis(3, 1, 1.0)
    amps = np.zeros(basis.dimension, dtype=complex)
    amps[basis.index[(0.5, 0.5)]] = 1.0
    embedded = dicke_embed(StateVector(amps, basis))
    assert embedded.basis.n_excitations == 3
    nonzero = {
        label: amp
        for label, amp in zip(embedded.basis.labels, embedded.amplitudes)
        if amp != 0.0
    }
    assert len(nonzero) == 3
    for label, amp in nonzero.items():
        c, nm, b = embedded.basis.split(label)
        assert (sum(c), nm, sum(b)) == (2, 0, 1)
        assert amp == pytest.approx(1.0 / math.sqrt(3))


def test_dicke_embed_preserves_norm():
    rng = np.random.default_rng(3)
    for n, m in [(1, 1), (2, 2), (3, 2), (4, 3)]:
        basis = DickeBasis(n, m, n / 2.0 - m / 2.0)
        amps = rng.normal(size=basis.dimension) + 1j * rng.normal(size=basis.dimension)
        amps /= np.linalg.norm(amps)
        embedded = dicke_embed(StateVector(amps, basis))
        assert embedded.norm() == pytest.approx(1.0, abs=1e-12)


def test_dicke_embed_rejects_plain_basis():
    from magnon_battery import enumerate_sector_basis, basis_state

    basis = enumerate_sector_basis(1, 1, 0, 1)
    with pytest.raises(TypeError, match="DickeBasis"):
        dicke_embed(basis_state(basis, (1, 0, 0)))


def test_collective_matches_effective_at_sweet_spot():
    cfg = SystemConfig.dispersive(3, 2, g_over_delta=0.1, j_over_delta=0.01)
    g = effective_couplings(cfg).uniform_value()
    times = np.linspace(0.0, math.pi / abs(g), 200)
    h_col = build_collective_hamiltonian(g, 3, 2)
    col = evolve(h_col, collective_charged_state(h_col.basis), times)
    h_eff = build_effective_hamiltonian(cfg)
    eff = evolve(h_eff, charged_initial_state(h_eff.basis), times)
    assert np.max(np.abs(col.energy - eff.energy)) < 1e-10
