"""Physical parameters of the spin-magnon charging model.

A charger register of N spins and a battery register of M spins, all at
splitting ``omega``, exchange excitations through one bosonic mode at
``omega_m``.  Spins couple to the mode with strengths ``g_charger[i]`` /
``g_battery[k]`` and to each other within a register through symmetric
flip-flop matrices ``j_charger`` / ``j_battery``.  All couplings are
excitation-conserving (rotating-wave form), so the detuning
``omega_m - omega`` is the only frequency combination that matters for
in-sector dynamics.  ``SystemConfig._classes`` splits each register into
exact symmetry classes of spins, the registers of every class basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = ["SystemConfig"]


def _as_symmetric(matrix, size: int, name: str) -> np.ndarray:
    """Validate a symmetric coupling matrix; the diagonal is ignored (zeroed)."""
    arr = np.array(matrix, dtype=float)
    if arr.ndim == 0:
        # scalar shorthand: uniform off-diagonal coupling
        arr = np.full((size, size), float(arr))
    if arr.shape != (size, size):
        raise ValueError(f"{name} must be {size}x{size}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    if not np.array_equal(arr, arr.T):
        raise ValueError(f"{name} must be symmetric")
    np.fill_diagonal(arr, 0.0)
    arr.setflags(write=False)
    return arr


def _as_couplings(values, size: int, name: str) -> tuple[float, ...]:
    arr = np.array(values, dtype=float)
    if arr.ndim == 0:
        arr = np.full(size, float(arr))
    if arr.shape != (size,):
        raise ValueError(f"{name} must have length {size}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return tuple(float(v) for v in arr)


@dataclass(frozen=True)
class SystemConfig:
    """Immutable parameter set for the full spin-magnon Hamiltonian.

    ``fock_cutoff`` limits the magnon Fock ladder.  When ``None`` the
    basis construction uses the sector's total excitation number, which
    is exact for excitation-conserving dynamics.
    """

    n_charger: int
    m_battery: int
    omega: float
    omega_m: float
    g_charger: tuple[float, ...]
    g_battery: tuple[float, ...]
    j_charger: np.ndarray = field(repr=False)
    j_battery: np.ndarray = field(repr=False)
    fock_cutoff: int | None = None

    def __post_init__(self):
        if self.n_charger < 1 or int(self.n_charger) != self.n_charger:
            raise ValueError("n_charger must be a positive integer")
        if self.m_battery < 1 or int(self.m_battery) != self.m_battery:
            raise ValueError("m_battery must be a positive integer")
        for name in ("omega", "omega_m"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.omega == self.omega_m:
            raise ValueError("omega_m must differ from omega (zero detuning)")
        object.__setattr__(
            self, "g_charger", _as_couplings(self.g_charger, self.n_charger, "g_charger")
        )
        object.__setattr__(
            self, "g_battery", _as_couplings(self.g_battery, self.m_battery, "g_battery")
        )
        object.__setattr__(
            self, "j_charger", _as_symmetric(self.j_charger, self.n_charger, "j_charger")
        )
        object.__setattr__(
            self, "j_battery", _as_symmetric(self.j_battery, self.m_battery, "j_battery")
        )
        if self.fock_cutoff is not None:
            if self.fock_cutoff < 0 or int(self.fock_cutoff) != self.fock_cutoff:
                raise ValueError("fock_cutoff must be a non-negative integer")

    @property
    def detuning(self) -> float:
        """Signed detuning omega_m - omega."""
        return self.omega_m - self.omega

    @classmethod
    def uniform(
        cls,
        n_charger: int,
        m_battery: int,
        *,
        g: float,
        omega: float,
        omega_m: float,
        j_charger: float = 0.0,
        j_battery: float = 0.0,
        fock_cutoff: int | None = None,
    ) -> "SystemConfig":
        """All spins share one mode coupling g and per-register exchange J."""
        return cls(
            n_charger=n_charger,
            m_battery=m_battery,
            omega=omega,
            omega_m=omega_m,
            g_charger=(g,) * n_charger,
            g_battery=(g,) * m_battery,
            j_charger=j_charger,
            j_battery=j_battery,
            fock_cutoff=fock_cutoff,
        )

    @classmethod
    def dispersive(
        cls,
        n_charger: int,
        m_battery: int,
        *,
        g_over_delta: float,
        j_over_delta: float = 0.0,
        omega_over_delta: float = 10.0,
        delta: float = 1.0,
        fock_cutoff: int | None = None,
    ) -> "SystemConfig":
        """Uniform configuration expressed in units of the detuning.

        ``delta`` sets the raw scale; the mode sits above the spins,
        ``omega_m = omega + delta``, so the induced charger-battery
        coupling comes out negative.
        """
        if delta == 0 or not math.isfinite(delta):
            raise ValueError("delta must be finite and nonzero")
        omega = omega_over_delta * delta
        return cls.uniform(
            n_charger,
            m_battery,
            g=g_over_delta * delta,
            omega=omega,
            omega_m=omega + delta,
            j_charger=j_over_delta * delta,
            j_battery=j_over_delta * delta,
            fock_cutoff=fock_cutoff,
        )

    @cached_property
    def _classes(self) -> tuple[tuple[int, ...], ...]:
        """Exact symmetry classes of the spins (chargers 0..N-1, battery N..N+M-1).

        Two spins of one register share a class when they have exactly the
        same g and the same J to every other spin of it, with no tolerance.
        That is an equivalence, so each spin is compared with the first
        member of each class only; every pair inside a class has one J.
        This is the one symmetry rule of the package, worked out once per config.
        """
        classes, offset = [], 0
        for g, j in (self.g_charger, self.j_charger), (self.g_battery, self.j_battery):
            g, left = np.array(g), np.arange(len(g))
            while left.size:
                f = left[0]
                # the rows of s and f differ at s and f alone when J_sf != 0
                mismatched = (j[left] != j[f]).sum(axis=1) - 2 * (j[left, f] != 0)
                joins = (mismatched == 0) & (g[left] == g[f])
                classes.append(tuple((offset + left[joins]).tolist()))
                left = left[~joins]
            offset += len(g)
        return tuple(classes)

    def is_uniform(self) -> bool:
        """True when every spin has the same g and every pair the same J."""
        paired = min(self.n_charger, self.m_battery) > 1
        one_j = not paired or self.j_charger[0, -1] == self.j_battery[0, -1]
        return len(self._classes) == 2 and self.g_charger[0] == self.g_battery[0] and one_j
