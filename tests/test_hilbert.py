import io
import math

import numpy as np
import pytest
import scipy.sparse as sp

from magnon_battery import (
    HamiltonianMatrix,
    SectorBasis,
    StateVector,
    SystemConfig,
    basis_state,
    battery_occupation_operator,
    build_full_hamiltonian,
    charged_initial_state,
    dump_matrix,
    enumerate_composite_basis,
    enumerate_sector_basis,
    magnon_occupation_operator,
    total_excitation_operator,
)


def test_single_excitation_chain():
    basis = enumerate_sector_basis(1, 1, 1, 1)
    assert basis.labels == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert basis.dimension == 3


def test_two_excitations_with_cutoff():
    basis = enumerate_sector_basis(2, 1, 2, 2)
    assert basis.dimension == 7
    assert all(sum(lab) == 2 for lab in basis.labels)
    assert len(set(basis.labels)) == 7
    # the magnon slot actually reaches the cutoff
    assert (0, 0, 2, 0) in basis.index


def test_vacuum_sector():
    basis = enumerate_sector_basis(3, 2, 4, 0)
    assert basis.labels == ((0, 0, 0, 0, 0, 0),)


def test_sector_counts_match_combinatorics():
    # sum over charger count a and magnon count k of C(N,a) * C(M, n_exc-a-k)
    for n, m, cutoff, n_exc in [(2, 2, 2, 2), (3, 1, 1, 2), (2, 3, 0, 3), (4, 2, 3, 4)]:
        basis = enumerate_sector_basis(n, m, cutoff, n_exc)
        expected = sum(
            math.comb(n, a) * math.comb(m, n_exc - a - k)
            for a in range(n + 1)
            for k in range(cutoff + 1)
            if 0 <= n_exc - a - k <= m
        )
        assert basis.dimension == expected


def test_descending_lex_order():
    basis = enumerate_sector_basis(3, 2, 2, 3)
    assert basis.labels == tuple(sorted(basis.labels, reverse=True))
    assert basis.labels[0] == (1, 1, 1, 0, 0, 0)


def test_empty_sector_rejected():
    with pytest.raises(ValueError, match="empty sector"):
        enumerate_sector_basis(1, 1, 1, 4)
    with pytest.raises(ValueError, match="cutoff"):
        enumerate_sector_basis(1, 1, -1, 0)


def test_split_roundtrip():
    basis = enumerate_sector_basis(2, 3, 1, 2)
    for label in basis.labels:
        c, nm, b = basis.split(label)
        assert c + (nm,) + b == label


def test_composite_basis():
    basis = enumerate_composite_basis(2, 1, 2)
    assert basis.dimension == 4 * 3 * 2
    assert basis.n_excitations is None


def test_full_hamiltonian_one_to_one():
    cfg = SystemConfig.uniform(1, 1, g=0.3, omega=5.0, omega_m=6.0)
    basis = enumerate_sector_basis(1, 1, 1, 1)
    h = build_full_hamiltonian(cfg, basis).toarray()
    # order (|e,0,g>, |g,1,g>, |g,0,e>): spins at omega, magnon at omega_m,
    # both registers exchanging with the mode at g
    expected = np.array(
        [[5.0, 0.3, 0.0], [0.3, 6.0, 0.3], [0.0, 0.3, 5.0]], dtype=complex
    )
    assert np.array_equal(h, expected)


def test_bosonic_enhancement():
    # the two-magnon matrix element carries the sqrt(2) Fock factor
    cfg = SystemConfig.uniform(2, 1, g=0.5, omega=1.0, omega_m=3.0)
    basis = enumerate_sector_basis(2, 1, 2, 2)
    h = build_full_hamiltonian(cfg, basis)
    p = basis.index[(1, 0, 1, 0)]
    q = basis.index[(0, 0, 2, 0)]
    assert h.matrix[q, p] == pytest.approx(0.5 * math.sqrt(2))


def test_intra_register_exchange_terms():
    cfg = SystemConfig(
        n_charger=2, m_battery=1, omega=1.0, omega_m=2.0,
        g_charger=(0.0, 0.0), g_battery=(0.0,), j_charger=0.25, j_battery=0.0,
    )
    basis = enumerate_sector_basis(2, 1, 1, 1)
    h = build_full_hamiltonian(cfg, basis)
    p = basis.index[(1, 0, 0, 0)]
    q = basis.index[(0, 1, 0, 0)]
    assert h.matrix[q, p] == pytest.approx(0.25)
    assert h.matrix[p, q] == pytest.approx(0.25)


def test_hamiltonian_requires_hermitian():
    basis = enumerate_sector_basis(1, 1, 1, 1)
    bad = sp.csr_matrix(np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=complex))
    with pytest.raises(ValueError, match="Hermitian"):
        HamiltonianMatrix(bad, basis)


def test_config_basis_mismatch():
    cfg = SystemConfig.uniform(2, 1, g=0.1, omega=1.0, omega_m=2.0)
    with pytest.raises(ValueError, match="registers"):
        build_full_hamiltonian(cfg, enumerate_sector_basis(1, 1, 1, 1))
    cfg2 = SystemConfig.uniform(1, 1, g=0.1, omega=1.0, omega_m=2.0, fock_cutoff=3)
    with pytest.raises(ValueError, match="cutoff"):
        build_full_hamiltonian(cfg2, enumerate_sector_basis(1, 1, 1, 1))


def test_diagonal_operators():
    basis = enumerate_sector_basis(2, 2, 2, 2)
    n_b = battery_occupation_operator(basis).toarray()
    n_m = magnon_occupation_operator(basis).toarray()
    n_tot = total_excitation_operator(basis).toarray()
    for pos, label in enumerate(basis.labels):
        c, nm, b = basis.split(label)
        assert n_b[pos, pos] == sum(b)
        assert n_m[pos, pos] == nm
        assert n_tot[pos, pos] == 2


def test_basis_state_and_charged_state():
    basis = enumerate_sector_basis(2, 1, 2, 2)
    psi = basis_state(basis, (0, 1, 0, 1))
    assert psi.norm() == 1.0
    assert psi.amplitudes[basis.index[(0, 1, 0, 1)]] == 1.0
    charged = charged_initial_state(basis)
    # descending-lex order puts the fully charged string first
    assert charged.amplitudes[0] == 1.0
    with pytest.raises(ValueError, match="not in the basis"):
        basis_state(basis, (1, 1, 1, 1))
    wrong_sector = enumerate_sector_basis(2, 1, 2, 1)
    with pytest.raises(ValueError, match="n_excitations=2"):
        charged_initial_state(wrong_sector)


def test_state_vector_checks():
    basis = enumerate_sector_basis(1, 1, 1, 1)
    with pytest.raises(ValueError, match="does not match"):
        StateVector(np.zeros(2, dtype=complex), basis)
    psi = basis_state(basis, (1, 0, 0))
    assert not psi.amplitudes.flags.writeable


def test_dump_matrix_format():
    cfg = SystemConfig.uniform(1, 1, g=0.25, omega=1.0, omega_m=2.5)
    basis = enumerate_sector_basis(1, 1, 1, 1)
    h = build_full_hamiltonian(cfg, basis)
    buf = io.StringIO()
    dump_matrix(h, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == f"# dim=3 nnz={h.nnz}"
    assert lines[1] == "0 0 1.0 0.0"
    coords = [tuple(map(int, line.split()[:2])) for line in lines[1:]]
    assert coords == sorted(coords)
    # round-trip through repr keeps exact values
    entries = {
        (int(r), int(c)): complex(float(re), float(im))
        for r, c, re, im in (line.split() for line in lines[1:])
    }
    dense = h.toarray()
    for (r, c), v in entries.items():
        assert dense[r, c] == v


def test_dump_matrix_to_path(tmp_path):
    cfg = SystemConfig.uniform(1, 1, g=0.25, omega=1.0, omega_m=2.5)
    basis = enumerate_sector_basis(1, 1, 1, 1)
    h = build_full_hamiltonian(cfg, basis)
    target = tmp_path / "h.txt"
    dump_matrix(h, target)
    buf = io.StringIO()
    dump_matrix(h, buf)
    assert target.read_text() == buf.getvalue()


def test_labels_outside_occupation_ranges_rejected():
    with pytest.raises(ValueError, match="occupation ranges"):
        SectorBasis(1, 1, 1, ((0, 2, 0),), None)
    with pytest.raises(ValueError, match="occupation ranges"):
        SectorBasis(1, 1, 1, ((2, 0, 0),), None)
