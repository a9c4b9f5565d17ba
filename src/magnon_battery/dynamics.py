"""State propagation and charging metrics.

``evolve`` integrates the Schroedinger equation for any Hermitian
operator produced by this package and samples the battery observables
on a caller-supplied time grid.  Problems of at most ``dense_threshold``
states (default 2048) go through a full Hermitian eigendecomposition,
which makes the phase evolution exact; larger ones, such as the
per-spin effective sector of N = 10, M = 6 (dim 8,008) in a sweep, go
to an adaptive high-order Runge-Kutta integrator.  The integrator runs
in the frame rotating at the mean diagonal energy, so it does not
resolve the large constant phase of an excitation sector, and it walks
the grid in slices so that its memory does not grow with the number of
samples.  ``scipy.integrate`` is imported on first use, by this module's
``solve_ivp``: with ``scipy.optimize``, which it pulls in, it costs about
0.4 s of import, and the dense path never needs it.

The builders store real (float64) matrices.  ``evolve`` makes one
complex copy of the matrix per call and hands it to both paths.  The
dense eigendecomposition stays complex: a real one is about ten times
faster, but it returns other eigenvectors and rounds E(t) differently,
enough to move the earlier of two equal peaks of a trajectory, so it
waits for a tie rule in ``charging_metrics``.  The integrator's
right-hand side needs the complex copy too, since scipy would otherwise
cast a real matrix to complex on every product with the complex state.

Energies are reported as battery excitation numbers, i.e. in units of
the spin splitting omega; times and powers are in raw model units.
Dividing power by |G| converts to the conventional |G|*omega scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .hilbert import HamiltonianMatrix, SectorBasis, StateVector, _assemble, _check_compatible

__all__ = [
    "Trajectory",
    "ChargingMetrics",
    "evolve",
    "charging_metrics",
    "battery_energy_full",
    "charging_horizon",
]

DENSE_THRESHOLD = 2048

# amplitude rows (complex128, samples x dim) the integrator holds at once
_SLICE_BYTES = 8 * 2**20


@dataclass(frozen=True)
class Trajectory:
    """Sampled observables along one evolution.

    ``energy`` is the battery excitation number (energy over omega),
    ``power`` is energy/t with the t=0 sample fixed to 0, ``magnon`` is
    the mode occupation when the basis carries a mode, else None.
    ``states`` holds the sampled amplitude rows when requested.
    """

    times: np.ndarray
    energy: np.ndarray
    power: np.ndarray
    norm: np.ndarray
    magnon: np.ndarray | None = None
    states: np.ndarray | None = None


@dataclass(frozen=True)
class ChargingMetrics:
    """Peak stored energy and the power figures attached to it.

    ``monotone`` flags a trajectory whose maximum sits on the grid
    boundary (nothing charged, or the horizon was too short); the
    endpoint values are returned as-is in that case.
    """

    e_max: float
    tau: float
    p_tau: float
    p_max: float
    monotone: bool = False


def evolve(
    h: HamiltonianMatrix,
    psi0: StateVector,
    times,
    *,
    tol: float = 1e-10,
    dense_threshold: int = DENSE_THRESHOLD,
    keep_states: bool = False,
) -> Trajectory:
    """Propagate psi0 under h and sample observables on the grid."""
    if not isinstance(h, HamiltonianMatrix):
        raise TypeError("h must be a HamiltonianMatrix (Hermitian by construction)")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ValueError("times must be a 1-d grid with at least two samples")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    amps0 = psi0.amplitudes
    if amps0.shape != (h.dimension,):
        raise ValueError(
            f"state dimension {amps0.shape} does not match operator dimension {h.dimension}"
        )
    if abs(np.linalg.norm(amps0) - 1.0) > 1e-12:
        raise ValueError("psi0 is not normalized")

    _, magnons, batteries = h.basis._counts()
    battery = batteries.astype(float)
    magnon_diag = magnons.astype(float) if h.basis.cutoff else None
    matrix = h.matrix.astype(complex, copy=False)  # see the module docstring
    if h.dimension <= dense_threshold:
        w, v = np.linalg.eigh(matrix.toarray())
        coeff = v.conj().T @ amps0
        phases = np.exp(-1j * np.outer(times, w))
        states = (v @ (phases * coeff).T).T
        energy, norm, magnon = _observables(states, battery, magnon_diag)
    else:
        energy, norm, magnon, states = _integrate(
            matrix, amps0, times, tol, battery, magnon_diag, keep_states
        )
    power = np.zeros_like(energy)
    positive = times > 0
    power[positive] = energy[positive] / times[positive]
    return Trajectory(
        times=times,
        energy=energy,
        power=power,
        norm=norm,
        magnon=magnon,
        states=states if keep_states else None,
    )


def _observables(states: np.ndarray, battery: np.ndarray, magnon_diag: np.ndarray | None):
    """Battery energy, norm and magnon number of each amplitude row."""
    probs = np.abs(states) ** 2
    magnon = probs @ magnon_diag if magnon_diag is not None else None
    return probs @ battery, probs.sum(axis=1), magnon


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on the first call (one per
    module, so that each module's calls can be wrapped apart)."""
    from scipy import integrate

    return integrate.solve_ivp(*args, **kwargs)


def _integrate(matrix, amps0, times, tol, battery, magnon_diag, keep_states):
    """DOP853 in the frame rotating at c = trace(H)/dim, slice by slice.

    ``amps0`` is the state at t = 0, as on the dense path; a grid that
    starts elsewhere is first reached by one integration from 0.  The
    rotating-frame amplitudes differ from the lab-frame ones by the global
    phase exp(-i c t), which no observable sees; only kept states get it
    multiplied back.  Each ``solve_ivp`` call covers as many grid samples
    as fit in ``_SLICE_BYTES`` and starts from the last state of the
    previous one.
    """
    shift = float(matrix.diagonal().real.mean())

    def rhs(_t, y):
        return -1j * (matrix @ y - shift * y)

    def solve(t0, grid, y):
        sol = solve_ivp(
            rhs, (t0, grid[-1]), y, t_eval=grid, method="DOP853", rtol=tol, atol=tol
        )
        if not sol.success:
            raise RuntimeError(f"integration failed: {sol.message}")
        return sol.y.T

    step = max(1, _SLICE_BYTES // (16 * matrix.shape[0]))
    y = amps0.astype(complex)
    if times[0] != 0.0:
        y = solve(0.0, times[:1], y)[-1]
    blocks = [_observables(y[None, :], battery, magnon_diag)]
    kept = [y[None, :] * np.exp(-1j * shift * times[0])]
    for start in range(0, times.size - 1, step):
        grid = times[start + 1 : start + 1 + step]
        rows = solve(times[start], grid, y)
        y = rows[-1].copy()
        blocks.append(_observables(rows, battery, magnon_diag))
        if keep_states:
            kept.append(rows * np.exp(-1j * shift * grid)[:, None])
    energy, norm, magnon = (
        np.concatenate(parts) if parts[0] is not None else None for parts in zip(*blocks)
    )
    return energy, norm, magnon, np.concatenate(kept) if keep_states else None


def _refine_peak(x: np.ndarray, y: np.ndarray, i: int) -> tuple[float, float]:
    """Vertex of the parabola through the three samples bracketing i."""
    x0, x1, x2 = x[i - 1], x[i], x[i + 1]
    y0, y1, y2 = y[i - 1], y[i], y[i + 1]
    # divided differences, valid on non-uniform grids
    d01 = (y1 - y0) / (x1 - x0)
    d12 = (y2 - y1) / (x2 - x1)
    curv = (d12 - d01) / (x2 - x0)
    if curv >= 0:
        return float(x1), float(y1)
    xv = 0.5 * (x0 + x1 - d01 / curv)
    yv = y0 + d01 * (xv - x0) + curv * (xv - x0) * (xv - x1)
    if yv < y1:  # numerically flat peak: keep the grid sample
        return float(x1), float(y1)
    return float(xv), float(yv)


def charging_metrics(traj: Trajectory) -> ChargingMetrics:
    """Extract E_max, the charging time tau, and the power figures.

    The grid maximum is refined by quadratic interpolation through the
    three bracketing samples; ties resolve to the earliest time.  P_max
    is the largest average power over [0, tau], including the refined
    endpoint value.
    """
    energy = traj.energy
    times = traj.times
    i = int(np.argmax(energy))
    if i == 0 or i == energy.size - 1:
        # no interior maximum; report the endpoint with the flag up
        tau = float(times[-1])
        e_max = float(energy[-1])
        p_tau = e_max / tau if tau > 0 else 0.0
        p_max = float(np.max(traj.power)) if energy.size else 0.0
        return ChargingMetrics(e_max, tau, p_tau, max(p_max, p_tau), monotone=True)
    tau, e_max = _refine_peak(times, energy, i)
    p_tau = e_max / tau
    window = traj.power[: i + 1]
    k = int(np.argmax(window))
    if 0 < k < times.size - 1:
        _, p_grid = _refine_peak(times, traj.power, k)
    else:
        p_grid = float(window[k])
    return ChargingMetrics(e_max, tau, p_tau, max(p_grid, p_tau), monotone=False)


def battery_energy_full(psi: StateVector, basis: SectorBasis, config: SystemConfig) -> float:
    """Expectation of the complete battery Hamiltonian, J-term included.

    The default energy observable counts excited battery spins only;
    this diagnostic adds the intra-battery exchange expectation, which
    every closed-form result drops.  On a battery register of K spins
    holding n, its own exchange term is J n(K - n).
    """
    _, exchange = _check_compatible(config, basis)
    exchange[: basis._mode] = 0.0  # keep the battery registers' exchange only
    battery = config.omega * basis._counts()[2]
    h_battery = _assemble(basis, battery, None, exchange)
    amps = psi.amplitudes
    return float(np.vdot(amps, h_battery @ amps).real)


def charging_horizon(
    n_charger: int, m_battery: int, coupling: float, factor: float = 1.2
) -> float:
    """Grid horizon heuristic, factor * pi / (sqrt(max(N, M)) |G|)."""
    if coupling == 0:
        raise ValueError("zero coupling has no charging timescale")
    return factor * np.pi / (np.sqrt(max(n_charger, m_battery)) * abs(coupling))
