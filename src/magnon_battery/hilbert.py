"""Sector-restricted bases and sparse Hamiltonian assembly.

A basis is a set of occupation labels over *registers*: one column per
charger register, one for the magnon number, one per battery register.
Each register is a class of spins, given explicitly as a tuple of spin
numbers (chargers 0..N-1, battery N..N+M-1); a class of K spins holds
0..K excitations in its symmetric states.  One class per spin gives the
per-spin labels ``(c_1..c_N, n_magnon, b_1..b_M)``, one per side the
Dicke labels ``(n_C, n_magnon, n_B)``, and any partition in between is
allowed.  The magnon number is bounded by a Fock cutoff.  Every model
here conserves the total excitation number, so dynamics started from a
product state stays inside one sector; restricting the basis to that
sector with cutoff equal to the excitation number is exact, not a
truncation.

``_layout`` gives the capacity of each column: the class sizes, with
the cutoff after the chargers.  One walk, ``_sector``, enumerates every
basis over that vector: it emits the occupation rows that fit inside
the capacities and sum to the excitation number (every row, for the
composite basis), ordered descending-lexicographically.  That order puts the fully charged
configuration first and makes every built matrix reproducible entry for
entry.

Each basis holds its labels as an integer occupation array (one row per
label) and ranks every row by a mixed-radix key, base K+1 per column.
Moving one excitation between two columns shifts a key by a fixed
amount, so a dense key -> position table (``searchsorted`` over the
sorted keys where the key space is too large for one) finds the targets
of every row, whatever the label order; targets outside the basis (a
truncated cutoff, another sector) are dropped.  The one assembler
``_assemble`` writes the full model, the effective model, the battery
energy operator and the collective model straight into CSR rows, from a
diagonal, per-register mode couplings and a register flip-flop matrix;
the rows are counted first, so the index and value arrays come from the
heap at their counted length, with no intermediate triplets.
Lowering a register that holds n of its K excitations carries the ladder
factor sqrt(n(K-n+1)), raising it sqrt((n+1)(K-n)); both are exactly 1
for a single spin.  The diagonal and the mode hops are always stored,
explicit zeros included; a flip-flop pair is stored only where its
amplitude is nonzero.  The diagonal of the flip-flop matrix is each
register's exchange J among its own spins: on the symmetric irrep,
sum_{i<j} (s+_i s-_j + h.c.) = S+S- - n, which adds J n(K-n) to the
diagonal (nothing for a single spin, where it is skipped).

Every amplitude is real, so the assembler emits float64 values and a
``HamiltonianMatrix`` stores the dtype it is given, promoted to at least
float64: real builds stay real (half the bytes of complex), and their
Hermitian check is a symmetry check.  Only the dense path of ``evolve``
makes a complex copy; the Chebyshev path applies the real matrix.

A config splits its spins into exact symmetry classes
(``SystemConfig._classes``).  The Hamiltonian and the charged initial
state are symmetric under permutations within each class, so each class
is an exact symmetric register (Shammah et al., PRA 98, 063815, 2018).
``_check_compatible`` accepts a basis whose registers each lie inside
one class of the config and reads the couplings off first members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .config import SystemConfig

__all__ = [
    "SectorBasis",
    "HamiltonianMatrix",
    "StateVector",
    "enumerate_sector_basis",
    "enumerate_composite_basis",
    "build_full_hamiltonian",
    "total_excitation_operator",
    "basis_state",
    "charged_initial_state",
]

Label = tuple[int, ...]


class SectorBasis:
    """Ordered set of occupation tuples closed under the model Hamiltonian.

    ``classes`` are the spin classes of the registers, charger classes
    first (see the module docstring).  ``n_excitations`` is the common
    excitation count of all labels, or ``None`` for a composite
    (multi-sector) basis used in conservation checks.  ``labels`` may be
    tuples or an integer array of one row per label (an int64 array is
    kept, not copied).  Only the array and its keys are stored: the
    ``labels`` tuples are rebuilt on each read, and lookups go by key.
    """

    def __init__(self, classes, n_charger: int, cutoff: int, labels, n_excitations: int | None):
        self.cutoff = int(cutoff)
        self.n_excitations = n_excitations
        capacity, self._mode = _layout(classes, n_charger, self.cutoff)
        self._classes = tuple(map(tuple, classes))
        self.n_charger = int(n_charger)
        self.m_battery = sum(map(len, self._classes)) - self.n_charger
        occ = np.asarray(labels, dtype=np.int64)
        width = occ.shape[1] if occ.ndim == 2 else len(capacity)
        if width != len(capacity):
            raise ValueError(
                f"labels have {width} columns; expected {len(capacity)}, "
                "one per register and one for the magnon"
            )
        occ = occ.reshape(len(occ), width)
        self._capacity = np.array(capacity)
        if np.any((occ < 0) | (occ > self._capacity)):
            raise ValueError("label outside the spin and magnon occupation ranges")
        self._occupations = occ
        radix = [k + 1 for k in capacity]
        # keys beyond 63 bits (N + M above ~60 spins) stay exact as Python ints
        key_type = np.int64 if math.prod(radix) < 2**63 else object
        strides = [math.prod(radix[k + 1 :]) for k in range(len(radix))]
        self._strides = np.array(strides, dtype=key_type)
        self._keys = occ @ self._strides
        self._order = np.argsort(self._keys)
        self._sorted_keys = self._keys[self._order]
        # in range, equal keys mean equal labels
        if np.any(self._sorted_keys[1:] == self._sorted_keys[:-1]):
            raise ValueError("duplicate labels in basis")

    @property
    def labels(self) -> tuple[Label, ...]:
        """The occupation tuples, in basis order (built on each call).

        Nothing in the package reads them; the benchmark's oracles and
        the tests do.
        """
        return tuple(zip(*self._occupations.T.tolist()))

    @property
    def dimension(self) -> int:
        return len(self._occupations)

    def _counts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Excited chargers, magnon number and excited battery spins per label."""
        occ, k = self._occupations, self._mode
        return occ[:, :k].sum(axis=1), occ[:, k], occ[:, k + 1 :].sum(axis=1)

    def _positions(self, keys: np.ndarray) -> np.ndarray:
        """Basis positions of the labels with these keys, -1 where absent."""
        at = np.minimum(np.searchsorted(self._sorted_keys, keys), len(self) - 1)
        return np.where(self._sorted_keys[at] == keys, self._order[at], -1)

    def _position(self, label) -> int:
        """Basis position of one label, -1 where absent."""
        row = np.asarray(label)
        if row.shape != self._capacity.shape or not len(self):
            return -1
        pos = int(self._positions(row @ self._strides))
        # a digit out of range can alias the key of another label
        return pos if pos >= 0 and np.array_equal(self._occupations[pos], row) else -1

    def _matches(self, other: "SectorBasis") -> bool:
        """Same labels in the same order, each column holding the same spins or the mode."""
        return self is other or (
            self._mode == other._mode
            and self._classes == other._classes
            and np.array_equal(self._occupations, other._occupations)
        )

    def __len__(self) -> int:
        return len(self._occupations)

    def __repr__(self) -> str:
        sector = "all" if self.n_excitations is None else self.n_excitations
        return (
            f"SectorBasis(N={self.n_charger}, M={self.m_battery}, "
            f"cutoff={self.cutoff}, n_excitations={sector}, dim={self.dimension})"
        )


class HamiltonianMatrix:
    """Sparse Hermitian operator bound to the basis it acts on.

    The CSR matrix keeps the dtype of its input, promoted to at least
    float64: the builders' real output stays real (a real Hermitian
    matrix is symmetric), a complex input stays complex.  A canonical
    CSR input is stored as given, not copied; any other is copied first,
    so the caller's matrix is never reordered in place.
    """

    def __init__(self, matrix: sp.spmatrix, basis: SectorBasis):
        csr = sp.csr_matrix(matrix)
        if not csr.has_canonical_format:
            csr = csr.copy()
            csr.sum_duplicates()
        csr = csr.astype(np.result_type(csr.dtype, np.float64), copy=False)
        if csr.shape != (basis.dimension, basis.dimension):
            raise ValueError(
                f"matrix shape {csr.shape} does not match basis dimension {basis.dimension}"
            )
        adjoint = csr.T.tocsr()  # canonical, like csr
        if csr.dtype.kind == "c":
            np.conjugate(adjoint.data, out=adjoint.data)
        # elementwise != ignores explicit zeros in either pattern and flags a NaN
        if not _same_entries(csr, adjoint) and (csr != adjoint).nnz:
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


def _same_entries(a: sp.csr_matrix, b: sp.csr_matrix) -> bool:
    """Equal canonical CSR arrays (a NaN entry is never equal)."""
    return (
        np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
    )


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


def _layout(classes, n_charger: int, cutoff: int) -> tuple[list[int], int]:
    """Capacity of each label column, and the magnon column: one register per class."""
    mode = sum(max(c) < n_charger for c in classes)
    spins = sorted(s for c in classes for s in c)
    if spins != list(range(len(spins))) or any(min(c) < n_charger for c in classes[mode:]):
        raise ValueError("classes must split the spins into charger, then battery classes")
    capacity = [len(c) for c in classes]
    capacity.insert(mode, cutoff)
    return capacity, mode


def _sector(classes, n_charger: int, cutoff: int, n_excitations: int | None) -> SectorBasis:
    """The labels that sum to n_excitations (every label if None), descending lex order.

    The walk fills one column at a time, highest occupation first, and
    keeps a prefix only while the columns after it can still bring its
    sum into range, so it never visits a prefix that cannot complete.
    Each step records the parent prefix of every new one; the rows are
    read back from the last column.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    if n_excitations is not None and n_excitations < 0:
        raise ValueError("n_excitations must be non-negative")
    capacity, _ = _layout(classes, n_charger, cutoff)
    room = sum(capacity)  # what the columns still to fill can hold
    low, high = (0, room) if n_excitations is None else (n_excitations, n_excitations)
    if low > room:
        raise ValueError(f"empty sector: {low} excitations exceed capacity {room}")
    used = np.zeros(1, dtype=np.int64)
    steps = []
    for k in capacity:
        room -= k
        values = np.arange(k, -1, -1)
        reach = used[:, None] + values
        parent, pick = np.nonzero((reach <= high) & (reach + room >= low))
        used = reach[parent, pick]
        steps.append((values[pick], parent))
    occ = np.empty((len(used), len(capacity)), dtype=np.int64)
    row = np.arange(len(used))
    for col in range(len(capacity) - 1, -1, -1):
        values, parent = steps.pop()  # freed as read
        occ[:, col] = values[row]
        row = parent[row]
    return SectorBasis(classes, n_charger, cutoff, occ, n_excitations)


def enumerate_sector_basis(
    n_charger: int, m_battery: int, cutoff: int, n_excitations: int
) -> SectorBasis:
    """All per-spin occupation tuples with the given total excitation number.

    Raises if the sector is empty (more excitations than the registers
    and the magnon ladder can hold).
    """
    spins = tuple((s,) for s in range(n_charger + m_battery))
    return _sector(spins, n_charger, cutoff, n_excitations)


def enumerate_composite_basis(n_charger: int, m_battery: int, cutoff: int) -> SectorBasis:
    """Union of all per-spin excitation sectors up to the Fock cutoff.

    Exponentially large in N+M; intended for conservation checks on
    small registers, not for production sweeps.
    """
    spins = tuple((s,) for s in range(n_charger + m_battery))
    return _sector(spins, n_charger, cutoff, None)


def _check_compatible(config: SystemConfig, basis: SectorBasis, mode: bool = True):
    """Mode couplings and flip-flop matrix of config over the registers of basis.

    Each register reads its g from its first spin, the J to another
    register from the two first spins, and its own J from a pair inside
    it (0 for a single spin).  Raises if the register sizes differ, if
    the cutoff differs (for a model with the mode; ``mode=False`` skips
    that check), or if a register joins spins of different symmetry
    classes of config.
    """
    if (config.n_charger, config.m_battery) != (basis.n_charger, basis.m_battery):
        raise ValueError(
            f"config registers ({config.n_charger}, {config.m_battery}) do not match "
            f"basis registers ({basis.n_charger}, {basis.m_battery})"
        )
    if mode and config.fock_cutoff is not None and config.fock_cutoff != basis.cutoff:
        raise ValueError(
            f"config fock_cutoff {config.fock_cutoff} does not match basis cutoff {basis.cutoff}"
        )
    classes = basis._classes
    own = {s: k for k, members in enumerate(config._classes) for s in members}
    if any(own[s] != own[c[0]] for c in classes for s in c):
        raise ValueError(
            "basis has one column per register, and a register joins spins whose couplings differ"
        )
    n, m = config.n_charger, config.m_battery
    exchange = np.zeros((n + m, n + m))
    exchange[:n, :n], exchange[n:, n:] = config.j_charger, config.j_battery
    first = [c[0] for c in classes]
    flip_flop = exchange[np.ix_(first, first)]
    np.fill_diagonal(flip_flop, [exchange[c[0], c[-1]] for c in classes])
    return np.array(config.g_charger + config.g_battery)[first], flip_flop


# (row, move) cells per block of the move table: a few MiB of temporaries
_BLOCK_CELLS = 2**17


def _assemble(basis: SectorBasis, diagonal, couplings, flip_flop) -> sp.csr_matrix:
    """Real sparse matrix of an excitation-conserving Hamiltonian on the basis.

    Registers are numbered chargers first, then battery registers.
    ``diagonal`` holds one value per label, or is None for no diagonal.
    ``couplings[s]`` is register s's exchange g_s with the mode, or None
    for no mode term; its hops carry the bosonic factor sqrt(n), n the
    larger magnon number of the pair.  ``flip_flop[s, t]`` is the
    amplitude that moves an excitation from register s to register t;
    pairs where it is zero are not stored.  ``flip_flop[s, s]`` is the
    exchange J among the spins of register s, which adds J n(K-n) to the
    diagonal.  Every hop also carries the ladder factors of the registers
    it lowers and raises, and is stored with its transpose partner.

    One table of moves holds every entry: the diagonal, or one excitation
    moved from label column x to y.  Sorted by key shift, largest first,
    a row's moves give its entries in CSR order on a basis in descending
    key order (others are sorted once); rows are written in place, block
    by block, into the two CSR arrays, taken from the heap once their
    length is counted.  A value is the amplitude times the magnon factor,
    then the ladder factors by ascending column.
    """
    k = basis._mode
    occ, capacity, keys = basis._occupations, basis._capacity, basis._keys
    dim, width = occ.shape
    regs = np.r_[0:k, k + 1 : width]
    single = capacity[regs].max(initial=0) <= 1  # every ladder factor is exactly 1
    own = np.diag(flip_flop)
    if not single and own.any():
        # sum_{i<j} J (s+_i s-_j + h.c.) = J (S+S- - n) = J n(K-n) on the irrep
        held = occ[:, regs]
        exchange = (held * (capacity[regs] - held)) @ own
        diagonal = exchange if diagonal is None else diagonal + exchange

    # move j takes a row to the label with one excitation moved from column
    # x[j] to column y[j]; its entry is the amplitude of the reverse move
    a, b = np.nonzero(np.triu(flip_flop, 1))
    x, y, amp = [regs[a], regs[b]], [regs[b], regs[a]], [flip_flop[b, a], flip_flop[a, b]]
    if couplings is not None:
        g, mode = np.asarray(couplings, dtype=float), np.full(len(regs), k)
        x, y, amp = x + [regs, mode], y + [mode, regs], amp + [g, g]
    if diagonal is not None:
        diagonal = np.asarray(diagonal, dtype=float)
        x, y, amp = x + [[width]], y + [[width]], amp + [[0.0]]
    x, y, amp = map(np.concatenate, (x, y, amp))
    strides = np.append(basis._strides, 0)
    order = np.argsort(strides[x] - strides[y])  # key shift, largest first
    x, y, amp, shift = x[order], y[order], amp[order], (strides[y] - strides[x])[order]

    # factor tables over one column's occupation before each move (1 where
    # a move has none): the magnon's sqrt(n), then ladders by ascending column
    n = np.arange(capacity.max(initial=0) + 1)
    moved = (x == k) | (y == k)
    slots = []
    if couplings is not None:
        slots.append((np.where(moved, k, 0), np.where(moved[:, None], np.sqrt(n + (y == k)[:, None]), 1.0)))
    if not single:  # a mode hop's register, or a flip-flop's lower then higher column
        for col in (np.where(moved, x + y - k, np.minimum(x, y)), np.where(moved, width, np.maximum(x, y))):
            on, col = col < width, np.where(col < width, col, 0)
            m = n + (col == y)[:, None]  # the larger occupation across the move
            rungs = np.sqrt(np.maximum(m * (capacity[col][:, None] - m + 1), 0))
            slots.append((col, np.where(on[:, None], rungs, 1.0)))
    if slots:  # the amplitude times the first factor
        slots[0] = (slots[0][0], amp[:, None] * slots[0][1])

    every = np.ones((dim, 1), bool)  # column `width`, the diagonal's, open in every row
    lower, upper = np.hstack([occ > 0, every]), np.hstack([occ < capacity, every])

    step = max(1, _BLOCK_CELLS // max(1, len(x)))  # rows per block
    hops = np.zeros((width + 1, width + 1))
    hops[x, y] = 1.0  # so lower @ hops * upper sums to the moves each row can make
    counts = [(lower[s : s + step] @ hops * upper[s : s + step]).sum(axis=1) for s in range(0, dim, step)]
    indptr = np.cumsum(np.concatenate([[0.0], *counts]))
    index = np.int32 if max(dim, indptr[-1]) < 2**31 else np.int64
    indptr = indptr.astype(index)
    find, space = basis._positions, math.prod((capacity + 1).tolist())
    if keys.dtype == np.int64 and space <= max(2**21, 2 * occ.size):  # a dense key table
        table = np.full(space, -1, index)
        table[keys] = np.arange(dim, dtype=index)
        find = table.__getitem__
    digits = occ.ravel()
    indices, data = np.empty(indptr[-1], index), np.empty(indptr[-1])
    for start in range(0, dim, step):
        mask = lower[start : start + step][:, x] & upper[start : start + step][:, y]
        r, j = np.divmod(np.flatnonzero(mask) + start * len(x), len(x))
        at = slice(indptr[start], indptr[start + len(mask)])
        indices[at] = find(keys[r] + shift[j])
        factors = [t.ravel()[j * t.shape[1] + digits[r * width + c[j]]] for c, t in slots]
        value = factors[0] if slots else amp[j]
        for factor in factors[1:]:
            value *= factor
        if diagonal is not None:
            on = x[j] == width
            value[on] = diagonal[r[on]]
        data[at] = value

    missing = indices < 0
    if missing.any():  # a basis that is not closed under the hops
        indptr -= np.r_[0, np.cumsum(missing)][indptr]
        indices, data = indices[~missing], data[~missing]
    csr = sp.csr_matrix((data, indices, indptr), shape=(dim, dim))
    csr.sort_indices()  # already sorted on a basis in descending key order
    return csr


def build_full_hamiltonian(config: SystemConfig, basis: SectorBasis) -> HamiltonianMatrix:
    """Assemble the full spin-magnon Hamiltonian on the given basis.

    Free part omega*(spin excitations) + omega_m*n_magnon, flip-flop
    exchange within each register, and spin-mode exchange with bosonic
    factors sqrt(n), sqrt(n+1).  Every off-diagonal term is emitted
    together with its conjugate partner, so the matrix is Hermitian by
    construction.  Each register of the basis must lie inside one
    symmetry class of the config.
    """
    couplings, exchange = _check_compatible(config, basis)
    chargers, magnons, batteries = basis._counts()
    diagonal = config.omega * (chargers + batteries) + config.omega_m * magnons
    matrix = _assemble(basis, diagonal, couplings, exchange)
    return HamiltonianMatrix(matrix, basis)


def total_excitation_operator(basis: SectorBasis) -> HamiltonianMatrix:
    """Diagonal total excitation number (constant on a single sector)."""
    total = sum(basis._counts()).astype(float)
    return HamiltonianMatrix(sp.diags(total, format="csr"), basis)


def basis_state(basis: SectorBasis, label: Label) -> StateVector:
    """Unit amplitude on one occupation tuple."""
    pos = basis._position(label)
    if pos < 0:
        raise ValueError(f"label {tuple(label)} is not in the basis")
    amps = np.zeros(basis.dimension, dtype=complex)
    amps[pos] = 1.0
    return StateVector(amps, basis)


def charged_initial_state(basis: SectorBasis) -> StateVector:
    """Charger registers filled to capacity, magnon vacuum, battery empty."""
    k = basis._mode
    label = tuple(basis._capacity[:k].tolist()) + (0,) * (len(basis._capacity) - k)
    if basis._position(label) < 0:
        raise ValueError(
            "fully charged configuration is outside this basis; it requires "
            f"n_excitations={basis.n_charger}"
        )
    return basis_state(basis, label)

