"""Collective angular-momentum picture of the sweet-spot dynamics.

At the sweet spot the effective Hamiltonian depends on the spins only
through the register raising and lowering sums, so a register of N
spins behaves as one angular momentum j = N/2 and the fully charged
initial state lives in the maximal-j (symmetric) irrep.  The conserved
quantity m_C + m_B cuts the problem down to min(N, M)+1 states, which
is what makes large-register sweeps cheap.

Only the symmetric sector is represented here; the model never leaves
it when started from a symmetric product state.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from .hilbert import HamiltonianMatrix, SectorBasis, StateVector, enumerate_sector_basis

__all__ = [
    "DickeBasis",
    "ladder_matrix_element",
    "ladder_matrices",
    "build_collective_hamiltonian",
    "collective_charged_state",
    "dicke_embed",
]


def _check_half_integer(value: float, name: str) -> float:
    doubled = round(2 * value)
    if abs(2 * value - doubled) > 1e-12:
        raise ValueError(f"{name}={value} is not integer or half-integer")
    return doubled / 2.0


class DickeBasis:
    """Labels (m_C, m_B) at fixed total m, ordered by m_C descending."""

    def __init__(self, n_charger: int, m_battery: int, total_m: float):
        if n_charger < 1 or m_battery < 1:
            raise ValueError("register sizes must be positive")
        self.n_charger = int(n_charger)
        self.m_battery = int(m_battery)
        self.total_m = _check_half_integer(total_m, "total_m")
        j_c, j_b = self.j_charger, self.j_battery
        top = min(j_c, self.total_m + j_b)
        bottom = max(-j_c, self.total_m - j_b)
        if top < bottom:
            raise ValueError(
                f"empty sector: no (m_C, m_B) pair with m_C+m_B={self.total_m} "
                f"for j_C={j_c}, j_B={j_b}"
            )
        count = round(top - bottom) + 1
        self.labels = tuple(
            (top - step, self.total_m - (top - step)) for step in range(count)
        )
        self.index = {lab: i for i, lab in enumerate(self.labels)}

    @property
    def j_charger(self) -> float:
        return self.n_charger / 2.0

    @property
    def j_battery(self) -> float:
        return self.m_battery / 2.0

    @property
    def dimension(self) -> int:
        return len(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __repr__(self) -> str:
        return (
            f"DickeBasis(N={self.n_charger}, M={self.m_battery}, "
            f"total_m={self.total_m}, dim={self.dimension})"
          )


def ladder_matrix_element(j: float, m: float, direction) -> float:
    """Matrix element sqrt((j +- m + 1)(j -+ m)) of a raising or lowering step.

    ``direction`` is "+"/"-" or +1/-1.  Zero at the top or bottom of the
    ladder; |m| beyond j is rejected.
    """
    j = _check_half_integer(j, "j")
    m = _check_half_integer(m, "m")
    if round(2 * (j - m)) % 2 != 0:
        raise ValueError(f"m={m} is not reachable on a j={j} ladder")
    if abs(m) > j:
        raise ValueError(f"|m|={abs(m)} exceeds j={j}")
    if direction in ("+", +1):
        product = (j + m + 1) * (j - m)
    elif direction in ("-", -1):
        product = (j - m + 1) * (j + m)
    else:
        raise ValueError(f"direction must be '+' or '-', got {direction!r}")
    return math.sqrt(product)


def ladder_matrices(j: float) -> tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]:
    """(J_plus, J_minus, J_z) on the m-descending basis of one register."""
    j = _check_half_integer(j, "j")
    dim = round(2 * j) + 1
    ms = [j - k for k in range(dim)]
    raise_elems = [ladder_matrix_element(j, m, "+") for m in ms[1:]]
    j_plus = sp.diags(raise_elems, 1, shape=(dim, dim), format="csr")
    j_z = sp.diags(ms, 0, format="csr")
    return j_plus, sp.csr_matrix(j_plus.T), j_z


def build_collective_hamiltonian(
    coupling: float,
    n_charger: int,
    m_battery: int,
    total_m: float | None = None,
) -> HamiltonianMatrix:
    """Sweet-spot exchange G (J-_C J+_B + J+_C J-_B) on a fixed-m sector.

    The caller is responsible for being at the sweet spot; away from it
    the intra-register terms do not reduce to this form.  ``total_m``
    defaults to the sector of the fully charged state, j_C - j_B.
    """
    if total_m is None:
        total_m = n_charger / 2.0 - m_battery / 2.0
    basis = DickeBasis(n_charger, m_battery, total_m)
    j_c, j_b = basis.j_charger, basis.j_battery
    m_c, m_b = np.array(basis.labels)[:-1].T
    # J-_C J+_B takes label p to p + 1
    lower_c = np.sqrt((j_c - m_c + 1) * (j_c + m_c))
    raise_b = np.sqrt((j_b + m_b + 1) * (j_b - m_b))
    elems = coupling * lower_c * raise_b
    matrix = sp.diags((elems, elems), (-1, 1), shape=(basis.dimension,) * 2, format="csr")
    return HamiltonianMatrix(matrix, basis)


def collective_charged_state(basis: DickeBasis) -> StateVector:
    """Charger ladder at its top, battery at its bottom."""
    label = (basis.j_charger, -basis.j_battery)
    if label not in basis.index:
        raise ValueError(
            f"fully charged label {label} is outside this sector "
            f"(total_m={basis.total_m})"
        )
    amps = np.zeros(basis.dimension, dtype=complex)
    amps[basis.index[label]] = 1.0
    return StateVector(amps, basis)  # type: ignore[arg-type]


def dicke_embed(state: StateVector) -> StateVector:
    """Expand symmetric collective amplitudes over computational spin states.

    Each |m_C, m_B> becomes the equal-weight superposition of all bit
    patterns with the matching excitation counts, weight 1/sqrt(C(N,n)).
    The result lives on the spin-only sector basis with the same total
    excitation number.
    """
    basis = state.basis
    if not isinstance(basis, DickeBasis):
        raise TypeError("dicke_embed expects amplitudes over a DickeBasis")
    n, m = basis.n_charger, basis.m_battery
    n_exc = round(basis.total_m + (n + m) / 2.0)
    target = enumerate_sector_basis(n, m, 0, n_exc)
    # one weight per (charger count, battery count); a count is m + j
    n_c, n_b = (np.array(basis.labels) + (n / 2.0, m / 2.0)).round().astype(int).T
    binom_c = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
    binom_b = np.array([math.comb(m, k) for k in range(m + 1)], dtype=float)
    weights = np.zeros((n + 1, m + 1), dtype=complex)
    weights[n_c, n_b] = state.amplitudes / np.sqrt(binom_c[n_c] * binom_b[n_b])
    chargers, _, batteries = target._counts()
    amps = weights[chargers, batteries]
    return StateVector(amps, target)
