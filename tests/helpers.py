"""Independent oracles that the tests compare the package against.

Nothing in the package calls these.  ``second_order_coupling`` derives
the induced coupling G = g g' / (omega - omega_m) from perturbation
theory on any matrix, without the dispersive formula; the ``state_*``
functions are the closed-form amplitudes of the analytic models, which
``evolve(keep_states=True)`` must reproduce.  ``class_isometry`` embeds
symmetric class registers into per-spin states from the labels alone.
``per_side`` names the classes of one register per side, and
``disordered`` draws a config with per-spin couplings and exchange.
``dense_threshold`` pins ``evolve``'s chooser to one propagation path, and
``count_products`` counts the sparse products that a propagation makes.
"""

import contextlib
import math

import numpy as np

from magnon_battery import HamiltonianMatrix, SystemConfig, dynamics
from magnon_battery.analytic import two_to_one_spectrum


@contextlib.contextmanager
def dense_threshold(threshold: int):
    """Inside the block ``evolve``'s chooser diagonalises up to ``threshold`` states.

    The dense path's cap becomes ``threshold`` and its cost estimate 0,
    so 0 pins the Chebyshev path and ``dynamics.DENSE_THRESHOLD`` (2048)
    the dense path; the old values come back on leaving.
    """
    saved = dynamics.DENSE_THRESHOLD, dynamics._DENSE_COST
    dynamics.DENSE_THRESHOLD, dynamics._DENSE_COST = threshold, (0.0, 0.0, 0.0)
    try:
        yield
    finally:
        dynamics.DENSE_THRESHOLD, dynamics._DENSE_COST = saved


def count_products(monkeypatch, matrix) -> list[int]:
    """Count from now on every ``@`` product of a sparse matrix of ``matrix``'s class.

    Returns a one-item list that holds the running count.
    """
    cls = type(matrix)
    plain = cls.__matmul__
    count = [0]

    def counted(self, other):
        count[0] += 1
        return plain(self, other)

    monkeypatch.setattr(cls, "__matmul__", counted)
    return count


def per_side(n_charger: int, m_battery: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Spin classes of one symmetric register per side (the Dicke layout)."""
    return tuple(range(n_charger)), tuple(range(n_charger, n_charger + m_battery))


def disordered(n: int = 3, m: int = 2, seed: int = 7) -> SystemConfig:
    """Config with every g and every J drawn apart: one symmetry class per spin."""
    rng = np.random.default_rng(seed)

    def exchange(size):
        upper = np.triu(rng.uniform(-0.02, 0.05, (size, size)), 1)
        return upper + upper.T

    return SystemConfig(
        n_charger=n,
        m_battery=m,
        omega=10.0,
        omega_m=11.0,
        g_charger=tuple(0.1 * (1.0 + 0.3 * rng.uniform(-1.0, 1.0, n))),
        g_battery=tuple(0.1 * (1.0 + 0.3 * rng.uniform(-1.0, 1.0, m))),
        j_charger=exchange(n),
        j_battery=exchange(m),
    )


def class_isometry(classes, n_charger: int, class_labels, spin_labels) -> np.ndarray:
    """V: one row per spin label, one column per class label, each a symmetric state.

    ``classes`` are tuples of spin numbers (chargers 0..N-1, then the
    battery) in the column order of the class labels, whose magnon
    column follows the charger classes.  Spin labels hold one column per
    spin with the magnon after the chargers.  A column spreads equal
    weight over every spin label with its class counts and magnon number.
    """
    spins = np.array(spin_labels)
    bits = np.delete(spins, n_charger, axis=1)
    counts = np.stack([bits[:, list(c)].sum(axis=1) for c in classes], axis=1)
    chargers = sum(max(c) < n_charger for c in classes)
    own = np.insert(counts, chargers, spins[:, n_charger], axis=1)
    v = np.zeros((len(spins), len(class_labels)))
    for col, label in enumerate(class_labels):
        hit = np.all(own == label, axis=1)
        v[hit, col] = 1.0 / math.sqrt(hit.sum())
    return v


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
