"""Dispersive effective model: magnon-induced spin-spin couplings.

Far off resonance the mode is only virtually populated and can be
eliminated at second order in g/detuning.  Each charger-battery pair
then talks directly with strength G_ik = g_i g_k / (omega - omega_m),
and each same-register pair picks up an induced coupling of the same
form on top of its direct exchange J.  With the mode above the spins
the induced coupling is negative, so choosing J = -G cancels the
intra-register terms entirely (the sweet spot).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .hilbert import HamiltonianMatrix, _assemble, enumerate_sector_basis

__all__ = [
    "DegeneracyError",
    "EffectiveCouplings",
    "second_order_coupling",
    "effective_couplings",
    "build_effective_hamiltonian",
    "sweet_spot_j",
]

# dispersive validity: warn when couplings are not small against the detuning
DEFAULT_WARN_RATIO = 0.2


class DegeneracyError(ValueError):
    """An intermediate level is degenerate with the initial one."""


@dataclass(frozen=True)
class EffectiveCouplings:
    """Induced coupling matrices and the detuning they came from."""

    charger_battery: np.ndarray  # N x M, pairs (i, k)
    charger_charger: np.ndarray  # N x N, zero diagonal
    battery_battery: np.ndarray  # M x M, zero diagonal
    detuning: float

    def uniform_value(self) -> float:
        """The single G of a uniform configuration.

        Raises when the cross couplings differ from pair to pair; the
        message lists them so the caller can pick per-pair values.
        """
        flat = self.charger_battery.ravel()
        if not np.allclose(flat, flat[0], rtol=1e-12, atol=0.0):
            raise ValueError(
                "couplings are not uniform; per-pair charger-battery values: "
                + np.array2string(self.charger_battery, precision=6)
            )
        return float(flat[0])


def second_order_coupling(h0_energies, h_int, p: int, q: int) -> complex:
    """Effective coupling between levels p and q through virtual levels.

    Sums amplitude products <q|H_int|w><w|H_int|p> / (E_p - E_w) over
    every intermediate w except p and q.  Uniform shifts of the energy
    list cancel out.  A path through a level degenerate with p has no
    well-defined denominator and raises ``DegeneracyError``.
    """
    if p == q:
        raise ValueError("p and q must be different levels")
    energies = np.asarray(h0_energies, dtype=float)
    hi = h_int.toarray() if isinstance(h_int, HamiltonianMatrix) else np.asarray(h_int)
    if hi.shape != (energies.size, energies.size):
        raise ValueError("h_int shape does not match the energy list")
    into = hi[:, p]      # <w|H_int|p>
    outof = hi[q, :]     # <q|H_int|w>
    paths = outof * into
    scale = max(np.max(np.abs(energies)), 1.0)
    total = 0.0 + 0.0j
    for w in range(energies.size):
        if w == p or w == q or paths[w] == 0.0:
            continue
        gap = energies[p] - energies[w]
        if abs(gap) <= 1e-12 * scale:
            raise DegeneracyError(
                f"intermediate level {w} is degenerate with level {p} "
                f"(E={energies[w]!r}) on a path with nonzero amplitude"
            )
        total += paths[w] / gap
    return complex(total)


def effective_couplings(config: SystemConfig) -> EffectiveCouplings:
    """Induced couplings for every spin pair, G = g g' / (omega - omega_m)."""
    delta = config.detuning
    if delta == 0.0:
        raise ValueError("zero detuning: the dispersive expansion is undefined")
    g_c = np.asarray(config.g_charger)
    g_b = np.asarray(config.g_battery)
    cross = np.outer(g_c, g_b) / (-delta)
    intra_c = np.outer(g_c, g_c) / (-delta)
    intra_b = np.outer(g_b, g_b) / (-delta)
    np.fill_diagonal(intra_c, 0.0)
    np.fill_diagonal(intra_b, 0.0)
    for arr in (cross, intra_c, intra_b):
        arr.setflags(write=False)
    return EffectiveCouplings(cross, intra_c, intra_b, detuning=delta)


def _warn_if_not_dispersive(config: SystemConfig, warn_ratio: float):
    biggest = max(
        max(abs(g) for g in config.g_charger + config.g_battery),
        float(np.max(np.abs(config.j_charger))) if config.n_charger > 1 else 0.0,
        float(np.max(np.abs(config.j_battery))) if config.m_battery > 1 else 0.0,
    )
    if biggest > warn_ratio * abs(config.detuning):
        warnings.warn(
            f"couplings up to {biggest:g} against detuning {config.detuning:g}: "
            "the dispersive elimination is not well controlled here",
            stacklevel=3,
        )


def build_effective_hamiltonian(
    config: SystemConfig,
    n_excitations: int | None = None,
    *,
    warn_ratio: float = DEFAULT_WARN_RATIO,
) -> HamiltonianMatrix:
    """Spin-only Hamiltonian with the mode eliminated.

    Charger-battery pairs couple with G_ik; same-register pairs with
    G + J.  Free energies are dropped (they are constant within an
    excitation sector and only contribute a global phase).  The basis
    defaults to the sector reached from the fully charged initial
    state, n_excitations = N.
    """
    _warn_if_not_dispersive(config, warn_ratio)
    couplings = effective_couplings(config)
    if n_excitations is None:
        n_excitations = config.n_charger
    basis = enumerate_sector_basis(config.n_charger, config.m_battery, 0, n_excitations)
    exchange = np.block(
        [
            [couplings.charger_charger + config.j_charger, couplings.charger_battery],
            [couplings.charger_battery.T, couplings.battery_battery + config.j_battery],
        ]
    )
    return HamiltonianMatrix(_assemble(basis, None, None, exchange), basis)


def sweet_spot_j(couplings: EffectiveCouplings) -> float:
    """Direct exchange that cancels the induced intra-register coupling.

    Only defined for uniform configurations; otherwise no single J
    works and the error lists the per-pair cancellation targets.
    """
    flat = couplings.charger_battery.ravel()
    if not np.allclose(flat, flat[0], rtol=1e-12, atol=0.0):
        raise ValueError(
            "no single sweet spot for non-uniform couplings; cancel per pair "
            "with J = -G, targets: "
            + np.array2string(-couplings.charger_battery, precision=6)
        )
    return -float(flat[0])
