import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from magnon_battery import (
    HamiltonianMatrix,
    SectorBasis,
    StateVector,
    SystemConfig,
    basis_state,
    build_collective_hamiltonian,
    build_effective_hamiltonian,
    build_full_hamiltonian,
    charged_initial_state,
    enumerate_composite_basis,
    enumerate_sector_basis,
    evolve,
    total_excitation_operator,
)
from magnon_battery.hilbert import _sector

from helpers import dense_threshold, disordered, per_side


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
    assert (0, 0, 2, 0) in basis.labels


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


def test_sector_labels_match_product_enumeration():
    # the walk is pruned by excitation count; the order must stay that of
    # filtering the full (charger, magnon, battery) product, per spin and
    # per register, and the composite basis is the whole product
    for n, m, cutoff in itertools.product(range(1, 6), range(1, 5), range(4)):
        spins = list(
            itertools.product(*[(1, 0)] * n, range(cutoff, -1, -1), *[(1, 0)] * m)
        )
        registers = list(
            itertools.product(range(n, -1, -1), range(cutoff, -1, -1), range(m, -1, -1))
        )
        assert enumerate_composite_basis(n, m, cutoff).labels == tuple(spins)
        for k in range(n + m + cutoff + 1):
            assert enumerate_sector_basis(n, m, cutoff, k).labels == tuple(
                label for label in spins if sum(label) == k
            )
            assert _sector(per_side(n, m), n, cutoff, k).labels == tuple(
                label for label in registers if sum(label) == k
            )
    # mixed class capacities, contiguous or not, e.g. [2, 1] + [cutoff] + [1, 2]
    mixed = [
        (3, ((0, 1), (2,), (3,), (4, 5))),
        (3, ((0, 2), (1,), (3, 5), (4,))),
        (4, ((0,), (1, 2, 3), (4, 6), (5,))),
        (2, ((0, 1), (2, 3, 4))),
    ]
    for (n, classes), cutoff in itertools.product(mixed, range(4)):
        sizes = [len(c) for c in classes]
        chargers = sum(max(c) < n for c in classes)
        sizes.insert(chargers, cutoff)
        product = list(itertools.product(*[range(k, -1, -1) for k in sizes]))
        assert _sector(classes, n, cutoff, None).labels == tuple(product)
        for k in range(sum(sizes) + 1):
            assert _sector(classes, n, cutoff, k).labels == tuple(
                label for label in product if sum(label) == k
            )


def test_classes_must_split_the_spins_by_side():
    labels = ((1, 0, 0),)
    for classes in (
        ((0,), (2,)),  # spin 1 is missing
        ((0, 1), (1,)),  # spin 1 twice
        ((1,), (0,)),  # the battery class comes first
        ((0, 1),),  # one class across both registers
    ):
        with pytest.raises(ValueError, match="split the spins"):
            SectorBasis(classes, 1, 0, labels, 1)
    # the width must be one column per class plus the magnon
    with pytest.raises(ValueError, match="columns"):
        SectorBasis(((0,), (1, 2)), 1, 0, ((1, 0, 0, 0),), 1)


def test_sparse_sector_of_a_long_charger():
    # 2^40 charger patterns, 71 labels: the cost must follow the labels
    t0 = time.perf_counter()
    basis = enumerate_sector_basis(40, 30, 1, 1)
    assert time.perf_counter() - t0 < 0.5
    assert basis.dimension == 71
    assert basis.labels[0] == (1,) + (0,) * 70
    assert basis.labels[-1] == (0,) * 70 + (1,)


def test_empty_sector_rejected():
    with pytest.raises(ValueError, match="empty sector"):
        enumerate_sector_basis(1, 1, 1, 4)
    with pytest.raises(ValueError, match="cutoff"):
        enumerate_sector_basis(1, 1, -1, 0)
    # the register sector shares the per-spin validation
    with pytest.raises(ValueError, match="empty sector"):
        _sector(per_side(1, 2), 1, 0, 5)
    with pytest.raises(ValueError, match="cutoff"):
        _sector(per_side(2, 2), 2, -1, 1)
    with pytest.raises(ValueError, match="n_excitations"):
        _sector(per_side(2, 2), 2, 1, -1)


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
    p = basis_state(basis, (1, 0, 1, 0)).amplitudes
    q = basis_state(basis, (0, 0, 2, 0)).amplitudes
    assert np.vdot(q, h.matrix @ p) == pytest.approx(0.5 * math.sqrt(2))


def test_intra_register_exchange_terms():
    cfg = SystemConfig(
        n_charger=2, m_battery=1, omega=1.0, omega_m=2.0,
        g_charger=(0.0, 0.0), g_battery=(0.0,), j_charger=0.25, j_battery=0.0,
    )
    basis = enumerate_sector_basis(2, 1, 1, 1)
    h = build_full_hamiltonian(cfg, basis)
    p = basis_state(basis, (1, 0, 0, 0)).amplitudes
    q = basis_state(basis, (0, 1, 0, 0)).amplitudes
    assert np.vdot(q, h.matrix @ p) == pytest.approx(0.25)
    assert np.vdot(p, h.matrix @ q) == pytest.approx(0.25)


def test_hamiltonian_requires_hermitian():
    basis = enumerate_sector_basis(1, 1, 1, 1)
    bad = sp.csr_matrix(np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=complex))
    with pytest.raises(ValueError, match="Hermitian"):
        HamiltonianMatrix(bad, basis)


def test_hermitian_check_ignores_explicit_zeros():
    # an explicit zero stored on one side of the diagonal only is kept
    basis = enumerate_sector_basis(1, 1, 1, 1)
    entries = (np.array([0.0, 1.0, 1j, -1j]), ([0, 0, 1, 2], [1, 0, 2, 1]))
    h = HamiltonianMatrix(sp.coo_matrix(entries, shape=(3, 3)), basis)
    assert h.nnz == 4 and h.matrix[0, 1] == 0.0


def test_hermitian_check_matches_elementwise_comparison():
    # the check accepts exactly the matrices whose elementwise comparison
    # with the conjugate transpose finds no difference
    basis = enumerate_sector_basis(1, 2, 1, 1)
    rng = np.random.default_rng(3)
    values = np.array([0.0, 1.0, -1.0, 2.5, 1j, -1j, 1 + 1j, np.inf, np.nan])
    accepted = 0
    for _ in range(400):
        k = rng.integers(0, 6)
        rows, cols = rng.integers(0, 4, k), rng.integers(0, 4, k)
        data = rng.choice(values, k)
        # mirror most entries, then store a few zeros and one stray value
        mirror = rng.random(k) < 0.9
        rows, cols = np.r_[rows, cols[mirror]], np.r_[cols, rows[mirror]]
        data = np.r_[data, data[mirror].conj()]
        extra = rng.integers(0, 3)
        rows, cols = np.r_[rows, rng.integers(0, 4, extra)], np.r_[cols, rng.integers(0, 4, extra)]
        data = np.r_[data, np.where(rng.random(extra) < 0.8, 0.0, rng.choice(values, extra))]
        csr = sp.csr_matrix(sp.coo_matrix((data, (rows, cols)), shape=(4, 4)), dtype=complex)
        csr.sum_duplicates()
        hermitian = (csr != csr.getH()).nnz == 0
        accepted += hermitian
        if hermitian:
            HamiltonianMatrix(csr, basis)
        else:
            with pytest.raises(ValueError, match="Hermitian"):
                HamiltonianMatrix(csr, basis)
    assert 100 < accepted < 300


def test_hermitian_check_matches_elementwise_comparison_on_real_matrices():
    # the real twin of the test above: for real data the check is a
    # symmetry check, and it accepts exactly the symmetric matrices
    basis = enumerate_sector_basis(1, 2, 1, 1)
    rng = np.random.default_rng(3)
    values = np.array([0.0, 1.0, -1.0, 2.5, np.inf, np.nan])
    accepted = 0
    for _ in range(400):
        k = rng.integers(0, 6)
        rows, cols = rng.integers(0, 4, k), rng.integers(0, 4, k)
        data = rng.choice(values, k)
        # mirror most entries, then store a few zeros and one stray value
        mirror = rng.random(k) < 0.9
        rows, cols = np.r_[rows, cols[mirror]], np.r_[cols, rows[mirror]]
        data = np.r_[data, data[mirror]]
        extra = rng.integers(0, 3)
        rows, cols = np.r_[rows, rng.integers(0, 4, extra)], np.r_[cols, rng.integers(0, 4, extra)]
        data = np.r_[data, np.where(rng.random(extra) < 0.8, 0.0, rng.choice(values, extra))]
        csr = sp.csr_matrix(sp.coo_matrix((data, (rows, cols)), shape=(4, 4)))
        csr.sum_duplicates()
        assert csr.dtype == np.float64
        symmetric = (csr != csr.T).nnz == 0
        accepted += symmetric
        if symmetric:
            assert HamiltonianMatrix(csr, basis).matrix.dtype == np.float64
        else:
            with pytest.raises(ValueError, match="Hermitian"):
                HamiltonianMatrix(csr, basis)
    assert 100 < accepted < 300
    bad = sp.csr_matrix(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="Hermitian"):
        HamiltonianMatrix(bad, enumerate_sector_basis(1, 1, 1, 1))


def test_builders_store_real_matrices():
    # every builder's Hamiltonian is real symmetric and kept as float64;
    # the dtype of any other input is promoted to at least float64
    cfg = disordered()
    basis = enumerate_sector_basis(3, 2, 3, 3)
    uniform = SystemConfig.uniform(
        3, 2, g=0.1, omega=10.0, omega_m=11.0, j_charger=0.02, j_battery=-0.01
    )
    built = (
        build_full_hamiltonian(cfg, basis),
        build_effective_hamiltonian(cfg),
        build_full_hamiltonian(uniform, _sector(per_side(3, 2), 3, 3, 3)),
        build_effective_hamiltonian(uniform, _sector(per_side(3, 2), 3, 0, 3)),
        build_collective_hamiltonian(0.01, 3, 2),
        total_excitation_operator(basis),
    )
    for h in built:
        assert h.matrix.dtype == np.float64
    small = enumerate_sector_basis(1, 1, 1, 1)
    ones = np.ones((3, 3))
    for given, kept in ((complex, np.complex128), (np.complex64, np.complex128), (int, np.float64)):
        assert HamiltonianMatrix(sp.csr_matrix(ones.astype(given)), small).matrix.dtype == kept


def test_unsorted_input_is_not_reordered_in_place():
    # a CSR input that is not canonical is copied before it is sorted, so
    # the caller's matrix keeps its own (unsorted) arrays and its values
    basis = enumerate_sector_basis(1, 1, 1, 1)
    for dtype in (float, np.float32, complex):
        data = np.array([2.0, 1.0, 3.0, 2.0, 3.0], dtype=dtype)
        indices, indptr = np.array([1, 0, 2, 0, 1]), np.array([0, 2, 4, 5])
        given = sp.csr_matrix((data, indices, indptr), shape=(3, 3))
        given.has_sorted_indices = False
        before = given.toarray()
        h = HamiltonianMatrix(given, basis)
        assert np.array_equal(h.toarray(), before)
        assert np.array_equal(given.toarray(), before)
        assert np.array_equal(given.indices, indices)


@pytest.mark.parametrize("threshold", [2048, 0])
def test_evolve_real_storage_is_bit_identical_to_complex(threshold):
    # evolve casts to complex itself, so the real-stored Hamiltonian gives
    # exactly the result of the same matrix stored as complex, on the dense
    # path and on the integrator path
    cfg = disordered()
    basis = enumerate_sector_basis(3, 2, 3, 3)
    real = build_full_hamiltonian(cfg, basis)
    cplx = HamiltonianMatrix(real.matrix.astype(complex), basis)
    assert real.matrix.dtype == np.float64 and cplx.matrix.dtype == np.complex128
    psi0 = charged_initial_state(basis)
    times = np.linspace(0.0, 40.0, 81)
    with dense_threshold(threshold):
        runs = [evolve(h, psi0, times, keep_states=True) for h in (real, cplx)]
    for name in ("energy", "power", "norm", "magnon", "states"):
        assert np.array_equal(getattr(runs[0], name), getattr(runs[1], name)), name


def test_full_build_peak_memory_per_entry():
    # tracemalloc counts numpy's allocations, so the peak per stored entry
    # does not depend on the machine: int32 indices, CSR rows written in
    # place in blocks of a few MiB, and no complex copy keep it near 26
    # bytes, 12 of them the CSR's own indices and values and most of the
    # rest the Hermitian check's transpose (60 with int64 parts, their
    # concatenation and complex storage)
    cfg = disordered(7, 7, seed=0)
    basis = enumerate_sector_basis(7, 7, 7, 7)
    tracemalloc.start()
    try:
        h = build_full_hamiltonian(cfg, basis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (h.dimension, h.nnz) == (9908, 335436)
    assert peak <= 40 * h.nnz, f"{peak / h.nnz:.1f} bytes per stored entry"


def test_effective_build_peak_memory_per_entry():
    # the same bound for the spin-only build (about 25 bytes per stored
    # entry); the basis is enumerated outside the trace
    cfg = disordered(7, 7, seed=0)
    basis = enumerate_sector_basis(7, 7, 0, 7)
    tracemalloc.start()
    try:
        h = build_effective_hamiltonian(cfg, basis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (h.dimension, h.nnz) == (3432, 168168)
    assert peak <= 40 * h.nnz, f"{peak / h.nnz:.1f} bytes per stored entry"


def test_config_basis_mismatch():
    cfg = SystemConfig.uniform(2, 1, g=0.1, omega=1.0, omega_m=2.0)
    with pytest.raises(ValueError, match="registers"):
        build_full_hamiltonian(cfg, enumerate_sector_basis(1, 1, 1, 1))
    cfg2 = SystemConfig.uniform(1, 1, g=0.1, omega=1.0, omega_m=2.0, fock_cutoff=3)
    with pytest.raises(ValueError, match="cutoff"):
        build_full_hamiltonian(cfg2, enumerate_sector_basis(1, 1, 1, 1))


def test_diagonal_operators():
    basis = enumerate_sector_basis(2, 2, 2, 2)
    n_tot = total_excitation_operator(basis).toarray()
    assert np.array_equal(n_tot, 2 * np.eye(basis.dimension))


def test_basis_state_and_charged_state():
    basis = enumerate_sector_basis(2, 1, 2, 2)
    psi = basis_state(basis, (0, 1, 0, 1))
    assert psi.norm() == 1.0
    assert psi.amplitudes[basis.labels.index((0, 1, 0, 1))] == 1.0
    charged = charged_initial_state(basis)
    # descending-lex order puts the fully charged string first
    assert charged.amplitudes[0] == 1.0
    with pytest.raises(ValueError, match="not in the basis"):
        basis_state(basis, (1, 1, 1, 1))
    # (0, 0, 1, 2) is out of range and has the key of (0, 0, 2, 0), which is in the basis
    for label in ((0, 0, 1, 2), (1, 1), (0, 0, -1, 3)):
        with pytest.raises(ValueError, match="not in the basis"):
            basis_state(basis, label)
    wrong_sector = enumerate_sector_basis(2, 1, 2, 1)
    with pytest.raises(ValueError, match="n_excitations=2"):
        charged_initial_state(wrong_sector)


def test_state_vector_checks():
    basis = enumerate_sector_basis(1, 1, 1, 1)
    with pytest.raises(ValueError, match="does not match"):
        StateVector(np.zeros(2, dtype=complex), basis)
    psi = basis_state(basis, (1, 0, 0))
    assert not psi.amplitudes.flags.writeable


def test_labels_outside_occupation_ranges_rejected():
    with pytest.raises(ValueError, match="occupation ranges"):
        SectorBasis(((0,), (1,)), 1, 1, ((0, 2, 0),), None)
    with pytest.raises(ValueError, match="occupation ranges"):
        SectorBasis(((0,), (1,)), 1, 1, ((2, 0, 0),), None)


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError, match="duplicate labels in basis"):
        SectorBasis(((0,), (1,), (2,)), 2, 1, ((1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0)), 1)
    with pytest.raises(ValueError, match="duplicate labels in basis"):
        SectorBasis(per_side(2, 1), 2, 1, ((1, 0, 0), (1, 0, 0)), 1)
    # (0, 2, 0) has the key of (1, 0, 0); the range check names it first
    with pytest.raises(ValueError, match="occupation ranges"):
        SectorBasis(((0,), (1,)), 1, 1, ((1, 0, 0), (0, 2, 0)), None)
