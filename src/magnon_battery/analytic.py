"""Closed-form charging curves for the small effective models.

These are the oracles the numerical layers are tested against, and the
``analytic`` run mode prints them.  The matching state amplitudes,
which only tests read, live with the tests in ``tests/helpers.py``.
All formulas take the signed induced coupling G (negative in the
physical regime where the mode sits above the spins) and return
energies in units of omega.  Time arguments may be scalars or arrays.

Conventions:

* one-to-one:  E(t) = omega sin^2(|G| t), independent of J.
* two-to-one:  mixing angle theta from atan2(2 sqrt(2) G, G + J); the
  two bright levels sit at eps_pm = ((G+J) +- sqrt((G+J)^2 + 8 G^2))/2.
* N-to-one at the sweet spot:  E(t) = omega sin^2(sqrt(N) |G| t).
* two-to-two at the sweet spot: the collective sector is a three-level
  ladder with couplings (2G, 2G), an exact spin-1 rotation, so the
  transfer is complete: E(t) = 2 omega sin^2(sqrt(2) |G| t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TwoToOneSpectrum",
    "two_to_one_spectrum",
    "e_one_one",
    "e_two_one",
    "e_n_one",
    "e_two_two",
]


@dataclass(frozen=True)
class TwoToOneSpectrum:
    """Mixing angle and bright-level energies of the two-to-one model."""

    theta: float
    eps_plus: float
    eps_minus: float


def two_to_one_spectrum(coupling: float, exchange: float) -> TwoToOneSpectrum:
    """Diagonalize the bright sector of two chargers and one battery.

    The branch of the mixing angle is fixed with atan2 so that
    sin(2 theta) carries the sign of the coupling and cos(2 theta) the
    sign of coupling+exchange; that is the branch for which the
    time-evolved two-to-one state matches direct propagation for every
    sign combination.  Energy curves only involve sin^2(2 theta) and are
    branch-independent.
    """
    s = coupling + exchange
    if coupling == 0.0 and s == 0.0:
        raise ValueError("coupling and coupling+exchange both zero: no bright sector")
    theta = 0.5 * math.atan2(2.0 * math.sqrt(2.0) * coupling, s)
    root = math.sqrt(s * s + 8.0 * coupling * coupling)
    return TwoToOneSpectrum(theta=theta, eps_plus=(s + root) / 2.0, eps_minus=(s - root) / 2.0)


def e_one_one(coupling: float, times, omega: float = 1.0):
    """Single charger, single battery: omega sin^2(|G| t)."""
    t = np.asarray(times, dtype=float)
    out = omega * np.sin(abs(coupling) * t) ** 2
    return out if out.ndim else float(out)


def e_two_one(coupling: float, exchange: float, times, omega: float = 1.0):
    """Two chargers, one battery: omega sin^2(2 theta) (1 - cos((eps+ - eps-) t))/2."""
    spec = two_to_one_spectrum(coupling, exchange)
    t = np.asarray(times, dtype=float)
    amplitude = math.sin(2.0 * spec.theta) ** 2
    out = omega * amplitude * (1.0 - np.cos((spec.eps_plus - spec.eps_minus) * t)) / 2.0
    return out if out.ndim else float(out)


def e_n_one(coupling: float, n_charger: int, times, omega: float = 1.0):
    """N chargers, one battery at the sweet spot: omega sin^2(sqrt(N) |G| t)."""
    if n_charger < 1 or int(n_charger) != n_charger:
        raise ValueError("n_charger must be a positive integer")
    t = np.asarray(times, dtype=float)
    out = omega * np.sin(math.sqrt(n_charger) * abs(coupling) * t) ** 2
    return out if out.ndim else float(out)


def e_two_two(coupling: float, times, omega: float = 1.0):
    """Two chargers, two batteries at the sweet spot: 2 omega sin^2(sqrt(2) |G| t).

    Full transfer: the fixed-m collective sector is an equally-coupled
    three-level ladder, i.e. a rigid spin-1 rotation, which carries
    |m_C=1, m_B=-1> into |m_C=-1, m_B=1> completely.  Charging peaks at
    E = 2 omega when sqrt(2) |G| t = pi/2.
    """
    t = np.asarray(times, dtype=float)
    out = 2.0 * omega * np.sin(math.sqrt(2.0) * abs(coupling) * t) ** 2
    return out if out.ndim else float(out)

