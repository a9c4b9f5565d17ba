"""Collective angular-momentum picture of the charging dynamics.

A class of K spins with the same g and the same J to every other spin
(``SystemConfig._classes``) behaves as one angular momentum j = K/2,
and the fully charged initial state lives in its maximal-j (symmetric)
irrep.  That irrep is a register of capacity K in a ``SectorBasis``.
The collective model is the effective model on the class registers of
a config, at cutoff 0 and at any J: ``build_effective_hamiltonian(config,
basis)`` builds it, and the experiment modes run it that way.  A config
uniform within each register has one class per side, labels
``(n_C, 0, n_B)``, and the conserved n_C + n_B = N cuts the problem down
to min(N, M)+1 states, which is what makes large-register sweeps cheap.

``build_collective_hamiltonian`` is the sweet-spot reference on one
register per side: at J = -G the intra-register terms cancel and the
model is the bare flip-flop G (J-_C J+_B + J+_C J-_B), built here from G
alone.  The one assembler puts the ladder factors sqrt(n(K-n+1)) and
sqrt((n+1)(K-n)) on each charger-battery hop.  Tests and acceptance
checks compare the register models against it and against
``dicke_embed``, which expands amplitudes over one register per side
into the per-spin states.

Only the symmetric sector of each class is represented; the model never
leaves it when started from a symmetric product state.
"""

from __future__ import annotations

import math

import numpy as np

from .hilbert import (
    HamiltonianMatrix,
    StateVector,
    _assemble,
    _sector,
    charged_initial_state,
    enumerate_sector_basis,
)

__all__ = [
    "build_collective_hamiltonian",
    "collective_charged_state",
    "dicke_embed",
]

# the charged state of a symmetric basis, under the name the collective API uses
collective_charged_state = charged_initial_state


def build_collective_hamiltonian(
    coupling: float, n_charger: int, m_battery: int
) -> HamiltonianMatrix:
    """Sweet-spot exchange G (J-_C J+_B + J+_C J-_B) on the charged sector.

    The basis holds the labels (n_C, 0, n_B) with n_C + n_B = N, n_C
    descending.  The caller is responsible for being at the sweet spot;
    away from it the intra-register terms do not reduce to this form.
    """
    if n_charger < 1 or m_battery < 1:
        raise ValueError("register sizes must be positive")
    sides = (tuple(range(n_charger)), tuple(range(n_charger, n_charger + m_battery)))
    basis = _sector(sides, n_charger, 0, n_charger)
    exchange = np.array([[0.0, coupling], [coupling, 0.0]])
    return _assemble(basis, None, None, exchange)


def dicke_embed(state: StateVector) -> StateVector:
    """Expand symmetric-register amplitudes over computational spin states.

    Each |n_C, n_m, n_B> becomes the equal-weight superposition of all
    bit patterns with the matching excitation counts, weight
    1/sqrt(C(N,n_C) C(M,n_B)).  The result lives on the per-spin sector
    basis with the same cutoff and total excitation number.
    """
    basis = state.basis
    n, m, cutoff = basis.n_charger, basis.m_battery, basis.cutoff
    if [len(c) for c in basis._classes] != [n, m]:
        raise TypeError("dicke_embed expects amplitudes over symmetric registers, one per side")
    target = enumerate_sector_basis(n, m, cutoff, basis.n_excitations)
    n_c, n_m, n_b = basis._counts()
    binom_c = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
    binom_b = np.array([math.comb(m, k) for k in range(m + 1)], dtype=float)
    weights = np.zeros((n + 1, cutoff + 1, m + 1), dtype=complex)
    weights[n_c, n_m, n_b] = state.amplitudes / np.sqrt(binom_c[n_c] * binom_b[n_b])
    return StateVector(weights[target._counts()], target)
