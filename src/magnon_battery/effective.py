"""Dispersive effective model: magnon-induced spin-spin couplings.

Far off resonance the mode is only virtually populated and can be
eliminated at second order in g/detuning.  Each charger-battery pair
then talks directly with strength G_ik = g_i g_k / (omega - omega_m),
and each same-register pair picks up an induced coupling of the same
form on top of its direct exchange J.  With the mode above the spins
the induced coupling is negative, so choosing J = -G cancels the
intra-register terms entirely (the sweet spot).

One builder makes the model on any class layout of the full model's
registers: one register per spin, or one symmetric register per
symmetry class of the config (the collective model).  It reads the
same per-register couplings g and exchange as the full model
and hands the flip-flop matrix exchange + g g^T / (omega - omega_m) to
the one assembler, with no diagonal and no mode term.  The per-spin
matrices of ``effective_couplings`` come from the same expression.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .hilbert import (
    HamiltonianMatrix,
    SectorBasis,
    _assemble,
    _check_compatible,
    enumerate_sector_basis,
)

__all__ = [
    "EffectiveCouplings",
    "effective_couplings",
    "build_effective_hamiltonian",
    "sweet_spot_j",
]

# dispersive validity: warn when couplings are not small against the detuning
DEFAULT_WARN_RATIO = 0.2


@dataclass(frozen=True)
class EffectiveCouplings:
    """Induced coupling matrices and the detuning they came from."""

    charger_battery: np.ndarray  # N x M, pairs (i, k)
    charger_charger: np.ndarray  # N x N, zero diagonal
    battery_battery: np.ndarray  # M x M, zero diagonal
    detuning: float

    def uniform_value(self) -> float:
        """The single G of a uniform configuration.

        Every charger-battery pair must hold exactly the same float, with
        no tolerance, as in ``SystemConfig._classes``.  Otherwise this
        raises, and the message lists the pairs so the caller can pick
        per-pair values.
        """
        flat = self.charger_battery.ravel()
        if np.any(flat != flat[0]):
            raise ValueError(
                "couplings are not uniform; charger-battery values per pair: "
                + np.array2string(self.charger_battery, precision=6)
            )
        return float(flat[0])


def _pair_couplings(g, config: SystemConfig) -> np.ndarray:
    """G = g g' / (omega - omega_m) for every pair of the mode couplings g."""
    return np.outer(g, g) / (config.omega - config.omega_m)


def effective_couplings(config: SystemConfig) -> EffectiveCouplings:
    """Induced couplings for every spin pair, G = g g' / (omega - omega_m)."""
    induced = _pair_couplings(config.g_charger + config.g_battery, config)
    np.fill_diagonal(induced, 0.0)
    induced.setflags(write=False)
    n = config.n_charger
    return EffectiveCouplings(
        induced[:n, n:], induced[:n, :n], induced[n:, n:], detuning=config.detuning
    )


def _warn_if_not_dispersive(config: SystemConfig):
    biggest = max(
        max(abs(g) for g in config.g_charger + config.g_battery),
        float(np.max(np.abs(config.j_charger))) if config.n_charger > 1 else 0.0,
        float(np.max(np.abs(config.j_battery))) if config.m_battery > 1 else 0.0,
    )
    if biggest > DEFAULT_WARN_RATIO * abs(config.detuning):
        warnings.warn(
            f"couplings up to {biggest:g} against detuning {config.detuning:g}: "
            "the dispersive elimination is not well controlled here",
            stacklevel=3,
        )


def build_effective_hamiltonian(
    config: SystemConfig, basis: SectorBasis | None = None
) -> HamiltonianMatrix:
    """Spin-only Hamiltonian with the mode eliminated, on the registers of basis.

    Charger-battery pairs couple with G_ik; same-register pairs with
    G + J.  Free energies are dropped (they are constant within an
    excitation sector and only contribute a global phase).  The basis
    defaults to the per-spin sector reached from the fully charged
    initial state, N excitations and cutoff 0.  Each register of the
    basis must lie inside one symmetry class of the config.  The model
    has no mode, so ``config.fock_cutoff`` is not checked.
    """
    _warn_if_not_dispersive(config)
    if basis is None:
        basis = enumerate_sector_basis(config.n_charger, config.m_battery, 0, config.n_charger)
    g, exchange = _check_compatible(config, basis, mode=False)
    flip_flop = exchange + _pair_couplings(g, config)
    return HamiltonianMatrix(_assemble(basis, None, None, flip_flop), basis)


def sweet_spot_j(couplings: EffectiveCouplings) -> float:
    """Direct exchange J = -G that cancels the induced intra-register coupling.

    Only defined for uniform configurations; otherwise no single J
    works and ``uniform_value`` raises with the per-pair couplings.
    """
    return -couplings.uniform_value()
