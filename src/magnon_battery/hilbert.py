"""Sector-restricted bases and sparse Hamiltonian assembly.

Basis labels are occupation tuples ``(c_1..c_N, n_magnon, b_1..b_M)``
with charger and battery bits in {0, 1} and the magnon number bounded
by a Fock cutoff.  The full Hamiltonian conserves the total excitation
number, so dynamics started from a product state stays inside one
sector; restricting the basis to that sector with cutoff equal to the
excitation number is exact, not a truncation.

Labels are ordered descending-lexicographically, which puts the fully
charged configuration ``(1,..,1, 0, 0,..,0)`` first and makes matrix
files reproducible byte for byte.

Each basis turns its labels once into an integer occupation array (one
row per label) and ranks every row by a mixed-radix key: base 2 for a
spin, base cutoff+1 for the magnon number.  A hop changes a key by a
fixed stride, so the targets of a whole term class are found with one
``searchsorted`` over the sorted keys, whatever the label order; targets
outside the basis (beyond a truncated cutoff, or in another sector) are
dropped.  The full model, the effective model and the battery energy
operator are all emitted by the one assembler ``_assemble`` from a
diagonal, per-spin mode couplings and a spin flip-flop matrix.  The diagonal and the
spin-mode hops are always stored, explicit zeros included; a flip-flop
pair is stored only where its amplitude is nonzero.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import block_diag

from .config import SystemConfig

__all__ = [
    "SectorBasis",
    "HamiltonianMatrix",
    "StateVector",
    "enumerate_sector_basis",
    "enumerate_composite_basis",
    "build_full_hamiltonian",
    "battery_occupation_operator",
    "magnon_occupation_operator",
    "total_excitation_operator",
    "basis_state",
    "charged_initial_state",
    "dump_matrix",
]

Label = tuple[int, ...]


class SectorBasis:
    """Ordered set of occupation tuples closed under the model Hamiltonian.

    ``n_excitations`` is the common excitation count of all labels, or
    ``None`` for a composite (multi-sector) basis used in conservation
    checks.
    """

    def __init__(
        self,
        n_charger: int,
        m_battery: int,
        cutoff: int,
        labels: tuple[Label, ...],
        n_excitations: int | None,
    ):
        self.n_charger = int(n_charger)
        self.m_battery = int(m_battery)
        self.cutoff = int(cutoff)
        self.n_excitations = n_excitations
        self.labels = tuple(labels)
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self.index) != len(self.labels):
            raise ValueError("duplicate labels in basis")
        radix = [2] * self.n_charger + [self.cutoff + 1] + [2] * self.m_battery
        occ = np.array(self.labels, dtype=np.int64).reshape(len(self.labels), len(radix))
        if np.any((occ < 0) | (occ >= np.array(radix))):
            raise ValueError("label outside the spin and magnon occupation ranges")
        self._occupations = occ
        # keys beyond 63 bits (N + M above ~60 spins) stay exact as Python ints
        key_type = np.int64 if math.prod(radix) < 2**63 else object
        strides = [math.prod(radix[k + 1 :]) for k in range(len(radix))]
        self._strides = np.array(strides, dtype=key_type)
        self._keys = occ @ self._strides
        self._order = np.argsort(self._keys)
        self._sorted_keys = self._keys[self._order]

    @property
    def dimension(self) -> int:
        return len(self.labels)

    def split(self, label: Label) -> tuple[tuple[int, ...], int, tuple[int, ...]]:
        """Split a label into (charger bits, magnon number, battery bits)."""
        n = self.n_charger
        return label[:n], label[n], label[n + 1:]

    def _counts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Excited chargers, magnon number and excited battery spins per label."""
        occ, n = self._occupations, self.n_charger
        return occ[:, :n].sum(axis=1), occ[:, n], occ[:, n + 1 :].sum(axis=1)

    def _positions(self, keys: np.ndarray) -> np.ndarray:
        """Basis positions of the labels with these keys, -1 where absent."""
        at = np.minimum(np.searchsorted(self._sorted_keys, keys), len(self.labels) - 1)
        return np.where(self._sorted_keys[at] == keys, self._order[at], -1)

    def __len__(self) -> int:
        return len(self.labels)

    def __repr__(self) -> str:
        sector = "all" if self.n_excitations is None else self.n_excitations
        return (
            f"SectorBasis(N={self.n_charger}, M={self.m_battery}, "
            f"cutoff={self.cutoff}, n_excitations={sector}, dim={self.dimension})"
        )


class HamiltonianMatrix:
    """Sparse Hermitian operator bound to the basis it acts on."""

    def __init__(self, matrix: sp.spmatrix, basis: SectorBasis):
        csr = sp.csr_matrix(matrix, dtype=complex)
        csr.sum_duplicates()
        csr.sort_indices()
        if csr.shape != (basis.dimension, basis.dimension):
            raise ValueError(
                f"matrix shape {csr.shape} does not match basis dimension {basis.dimension}"
            )
        if (csr != csr.getH()).nnz != 0:
            raise ValueError("matrix is not Hermitian")
        self.matrix = csr
        self.basis = basis

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()

    def expectation(self, amplitudes: np.ndarray) -> float:
        """Real expectation value on a state; Hermiticity is guaranteed."""
        psi = np.asarray(amplitudes, dtype=complex)
        return float(np.real(np.vdot(psi, self.matrix @ psi)))

    def __repr__(self) -> str:
        return f"HamiltonianMatrix(dim={self.dimension}, nnz={self.nnz})"


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over a basis."""

    amplitudes: np.ndarray
    basis: SectorBasis

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (self.basis.dimension,):
            raise ValueError(
                f"amplitude vector of length {amps.shape} does not match "
                f"basis dimension {self.basis.dimension}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def _battery_patterns(m_battery: int, count: int):
    """Battery bit tuples with a fixed excitation count, descending lex order."""
    for ones in itertools.combinations(range(m_battery), count):
        bits = [0] * m_battery
        for pos in ones:
            bits[pos] = 1
        yield tuple(bits)


def enumerate_sector_basis(
    n_charger: int, m_battery: int, cutoff: int, n_excitations: int
) -> SectorBasis:
    """All occupation tuples with the given total excitation number.

    Raises if the sector is empty (more excitations than the registers
    and the magnon ladder can hold).
    """
    if cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    if n_excitations < 0:
        raise ValueError("n_excitations must be non-negative")
    if n_excitations > n_charger + m_battery + cutoff:
        raise ValueError(
            f"empty sector: {n_excitations} excitations exceed capacity "
            f"{n_charger + m_battery + cutoff}"
        )
    labels = []
    for c_bits in itertools.product((1, 0), repeat=n_charger):
        remaining = n_excitations - sum(c_bits)
        if remaining < 0:
            continue
        for n_magnon in range(min(cutoff, remaining), -1, -1):
            b_count = remaining - n_magnon
            if b_count > m_battery:
                continue
            for b_bits in _battery_patterns(m_battery, b_count):
                labels.append(c_bits + (n_magnon,) + b_bits)
    return SectorBasis(n_charger, m_battery, cutoff, tuple(labels), n_excitations)


def enumerate_composite_basis(n_charger: int, m_battery: int, cutoff: int) -> SectorBasis:
    """Union of all excitation sectors up to the Fock cutoff.

    Exponentially large in N+M; intended for conservation checks on
    small registers, not for production sweeps.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    labels = []
    for c_bits in itertools.product((1, 0), repeat=n_charger):
        for n_magnon in range(cutoff, -1, -1):
            for b_bits in itertools.product((1, 0), repeat=m_battery):
                labels.append(c_bits + (n_magnon,) + b_bits)
    return SectorBasis(n_charger, m_battery, cutoff, tuple(labels), None)


def _check_compatible(config: SystemConfig, basis: SectorBasis):
    if (config.n_charger, config.m_battery) != (basis.n_charger, basis.m_battery):
        raise ValueError(
            f"config registers ({config.n_charger}, {config.m_battery}) do not match "
            f"basis registers ({basis.n_charger}, {basis.m_battery})"
        )
    if config.fock_cutoff is not None and config.fock_cutoff != basis.cutoff:
        raise ValueError(
            f"config fock_cutoff {config.fock_cutoff} does not match basis cutoff {basis.cutoff}"
        )


def _assemble(basis: SectorBasis, diagonal, couplings, flip_flop) -> sp.csr_matrix:
    """Real sparse matrix of an excitation-conserving Hamiltonian on the basis.

    Spins are numbered chargers first, then battery spins.  ``diagonal``
    holds one value per label, or is None for no diagonal.
    ``couplings[s]`` is spin s's exchange g_s with the mode, or None for
    no mode term; its hops carry the bosonic factor sqrt(n), n the larger
    magnon number of the pair.  ``flip_flop[s, t]`` is the amplitude that
    moves an excitation from spin s to spin t; pairs where it is zero are
    not stored.  Each hop is emitted with its transpose partner.
    """
    n, m = basis.n_charger, basis.m_battery
    occ, strides, keys = basis._occupations, basis._strides, basis._keys
    spin_cols = np.r_[0:n, n + 1 : n + 1 + m]
    excited = occ[:, spin_cols] == 1
    spin_strides = strides[spin_cols]
    rows, cols, vals = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)]

    def hop(p, q, forward, backward):
        rows.extend((q, p))
        cols.extend((p, q))
        vals.extend((forward, backward))

    def targets(p, shift):
        q = basis._positions(keys[p] + shift)
        hit = q >= 0
        return hit, q[hit]

    if diagonal is not None:
        every = np.arange(basis.dimension)
        rows.append(every)
        cols.append(every)
        vals.append(np.asarray(diagonal, dtype=float))
    if couplings is not None:
        # spin s lowers, the magnon raises
        p, s = np.nonzero(excited & (occ[:, n, None] < basis.cutoff))
        hit, q = targets(p, strides[n] - spin_strides[s])
        amp = np.asarray(couplings, dtype=float)[s[hit]] * np.sqrt(occ[q, n])
        hop(p[hit], q, amp, amp)
    a, b = np.nonzero(np.triu(flip_flop, 1))
    # the excitation moves from spin a to spin b
    p, k = np.nonzero(excited[:, a] & ~excited[:, b])
    hit, q = targets(p, spin_strides[b[k]] - spin_strides[a[k]])
    a, b = a[k[hit]], b[k[hit]]
    hop(p[hit], q, flip_flop[a, b], flip_flop[b, a])

    dim = basis.dimension
    matrix = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(dim, dim)
    )
    return matrix.tocsr()


def build_full_hamiltonian(config: SystemConfig, basis: SectorBasis) -> HamiltonianMatrix:
    """Assemble the full spin-magnon Hamiltonian on the given basis.

    Free part omega*(spin excitations) + omega_m*n_magnon, flip-flop
    exchange within each register, and spin-mode exchange with bosonic
    factors sqrt(n), sqrt(n+1).  Every off-diagonal term is emitted
    together with its conjugate partner, so the matrix is Hermitian by
    construction.
    """
    _check_compatible(config, basis)
    chargers, magnons, batteries = basis._counts()
    diagonal = config.omega * (chargers + batteries) + config.omega_m * magnons
    exchange = block_diag(config.j_charger, config.j_battery)
    matrix = _assemble(basis, diagonal, config.g_charger + config.g_battery, exchange)
    return HamiltonianMatrix(matrix, basis)


def _diagonal_operator(diag: np.ndarray, basis: SectorBasis) -> HamiltonianMatrix:
    return HamiltonianMatrix(sp.diags(diag.astype(complex), format="csr"), basis)


def battery_occupation_operator(basis: SectorBasis) -> HamiltonianMatrix:
    """Diagonal count of excited battery spins."""
    return _diagonal_operator(basis._counts()[2], basis)


def magnon_occupation_operator(basis: SectorBasis) -> HamiltonianMatrix:
    """Diagonal magnon number."""
    return _diagonal_operator(basis._counts()[1], basis)


def total_excitation_operator(basis: SectorBasis) -> HamiltonianMatrix:
    """Diagonal total excitation number (constant on a single sector)."""
    return _diagonal_operator(sum(basis._counts()), basis)


def basis_state(basis: SectorBasis, label: Label) -> StateVector:
    """Unit amplitude on one occupation tuple."""
    try:
        pos = basis.index[tuple(label)]
    except KeyError:
        raise ValueError(f"label {tuple(label)} is not in the basis") from None
    amps = np.zeros(basis.dimension, dtype=complex)
    amps[pos] = 1.0
    return StateVector(amps, basis)


def charged_initial_state(basis: SectorBasis) -> StateVector:
    """All chargers excited, magnon vacuum, battery in the ground state."""
    label = (1,) * basis.n_charger + (0,) + (0,) * basis.m_battery
    if tuple(label) not in basis.index:
        raise ValueError(
            "fully charged configuration is outside this basis; it requires "
            f"n_excitations={basis.n_charger}"
        )
    return basis_state(basis, label)


def dump_matrix(h: HamiltonianMatrix, path) -> None:
    """Write coordinate-format text: header, then 'row col re im' lines.

    Entries come out sorted by (row, col); floats use shortest
    round-trip formatting so the dump is deterministic.
    """
    coo = h.matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    lines = [f"# dim={h.dimension} nnz={h.nnz}"]
    for k in order:
        v = coo.data[k]
        # plain-float repr: numpy scalar reprs are not round-trip text
        lines.append(f"{coo.row[k]} {coo.col[k]} {float(v.real)!r} {float(v.imag)!r}")
    text = "\n".join(lines) + "\n"
    if hasattr(path, "write"):
        path.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
