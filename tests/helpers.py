"""Independent oracles that the tests compare the package against.

Nothing in the package calls these.  ``second_order_coupling`` derives
the induced coupling G = g g' / (omega - omega_m) from perturbation
theory on any matrix, without the dispersive formula; the ``state_*``
functions are the closed-form amplitudes of the analytic models, which
``evolve(keep_states=True)`` must reproduce.
"""

import math

import numpy as np

from magnon_battery import HamiltonianMatrix
from magnon_battery.analytic import two_to_one_spectrum


def second_order_coupling(h0_energies, h_int, p: int, q: int) -> complex:
    """Effective coupling between levels p and q through virtual levels.

    Sums amplitude products <q|H_int|w><w|H_int|p> / (E_p - E_w) over
    every intermediate w except p and q.  Uniform shifts of the energy
    list cancel out.  A path through a level degenerate with p has no
    well-defined denominator and raises ``ValueError``.
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
            raise ValueError(
                f"intermediate level {w} is degenerate with level {p} "
                f"(E={energies[w]!r}) on a path with nonzero amplitude"
            )
        total += paths[w] / gap
    return complex(total)


def state_two_one(coupling: float, exchange: float, t: float) -> np.ndarray:
    """Amplitudes on (|ee,g>, |eg,e>, |ge,e>) for the two-to-one model.

    The initial state |ee,g> splits over the two bright levels with
    weights cos^2(theta) and sin^2(theta); the battery components share
    the remaining weight symmetrically.
    """
    spec = two_to_one_spectrum(coupling, exchange)
    root = math.hypot(coupling + exchange, 2.0 * math.sqrt(2.0) * coupling)
    cos2t = (coupling + exchange) / root
    sin2t = 2.0 * math.sqrt(2.0) * coupling / root
    phase_p = np.exp(-1j * spec.eps_plus * t)
    phase_m = np.exp(-1j * spec.eps_minus * t)
    top = phase_p * (1.0 - cos2t) / 2.0 + phase_m * (1.0 + cos2t) / 2.0
    side = (phase_p - phase_m) * sin2t / (2.0 * math.sqrt(2.0))
    return np.array([top, side, side])


def state_n_one(coupling: float, n_charger: int, t: float) -> np.ndarray:
    """Sweet-spot N-to-one amplitudes.

    Index 0 is the fully charged configuration; indices 1..N are the
    battery-excited strings in descending-lexicographic basis order
    (they all carry the same amplitude by symmetry).
    """
    if n_charger < 1 or int(n_charger) != n_charger:
        raise ValueError("n_charger must be a positive integer")
    root_n = math.sqrt(n_charger)
    angle = root_n * coupling * t
    amps = np.empty(n_charger + 1, dtype=complex)
    amps[0] = math.cos(angle)
    amps[1:] = -1j * math.sin(angle) / root_n
    return amps


def state_two_two(coupling: float, t: float) -> np.ndarray:
    """Sweet-spot two-to-two amplitudes on (|1,-1>, |0,0>, |-1,1>).

    A spin-1 rotation by the angle 2 sqrt(2) G t:
    (cos^2, -i sin(2x)/sqrt(2), -sin^2) with x = sqrt(2) G t.
    """
    x = math.sqrt(2.0) * coupling * t
    return np.array(
        [
            math.cos(x) ** 2,
            -1j * math.sin(2.0 * x) / math.sqrt(2.0),
            -(math.sin(x) ** 2),
        ]
    )
