"""State propagation and charging metrics.

``evolve`` propagates the Schroedinger equation for any Hermitian
operator produced by this package and samples the battery observables
on a caller-supplied time grid.  Problems of at most ``dense_threshold``
states (default 2048) go through a full Hermitian eigendecomposition,
which makes the phase evolution exact; larger ones, such as the
per-spin full 6+6 sector (dim 2,510), go to a Chebyshev expansion of
exp(-iHt) (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967, 1984).  Its
truncation is set from ``tol`` by the Bessel coefficients, so ``tol``
bounds the error of the state on the whole grid; it walks the grid in
steps whose memory does not grow with the number of samples.  It needs
neither ``scipy.integrate`` nor ``scipy.special``: the Bessel values come
from Miller's backward recurrence.

The builders store real (float64) matrices.  The dense path makes one
complex copy of the matrix and keeps the eigendecomposition complex: a
real one is about ten times faster, but it returns other eigenvectors
and rounds E(t) differently, enough to move the earlier of two equal
peaks of a trajectory, so it waits for a tie rule in
``charging_metrics``.  The Chebyshev path needs no copy: it applies a
real matrix to the real and imaginary parts of the state as two real
CSR products.

Energies are reported as battery excitation numbers, i.e. in units of
the spin splitting omega; times and powers are in raw model units.
Dividing power by |G| converts to the conventional |G|*omega scale.
"""

from __future__ import annotations

import math
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

# bytes of one Chebyshev step's vectors, of its coefficients and of its
# sampled amplitude rows, each
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
    """Propagate psi0, the state at t = 0, under h and sample observables on the grid.

    Up to ``dense_threshold`` states the propagation is exact to rounding;
    above it, ``tol`` bounds the error of the state at every sample.
    """
    if not isinstance(h, HamiltonianMatrix):
        raise TypeError("h must be a HamiltonianMatrix (Hermitian by construction)")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ValueError("times must be a 1-d grid with at least two samples")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be finite and > 0")
    amps0 = psi0.amplitudes
    if amps0.shape != (h.dimension,):
        raise ValueError(
            f"state dimension {amps0.shape} does not match operator dimension {h.dimension}"
        )
    if not psi0.basis._matches(h.basis):
        raise ValueError("psi0 is a state of another basis than h's")
    if abs(np.linalg.norm(amps0) - 1.0) > 1e-12:
        raise ValueError("psi0 is not normalized")
    bounds = _spectral_bounds(h.matrix)

    _, magnons, batteries = h.basis._counts()
    battery = batteries.astype(float)
    magnon_diag = magnons.astype(float) if h.basis.cutoff else None
    if h.dimension <= dense_threshold:
        # complex eigh: see the module docstring
        w, v = np.linalg.eigh(h.matrix.astype(complex, copy=False).toarray())
        coeff = v.conj().T @ amps0
        phases = np.exp(-1j * np.outer(times, w))
        states = (v @ (phases * coeff).T).T
        energy, norm, magnon = _observables(np.abs(states) ** 2, battery, magnon_diag)
    else:
        energy, norm, magnon, states = _chebyshev(
            h.matrix, amps0, times, tol, bounds, battery, magnon_diag, keep_states
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


def _observables(probs: np.ndarray, battery: np.ndarray, magnon_diag: np.ndarray | None):
    """Battery energy, norm and magnon number of each row of probabilities."""
    magnon = probs @ magnon_diag if magnon_diag is not None else None
    return probs @ battery, probs.sum(axis=1), magnon


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on the first call.

    Nothing in this module calls it: ``evolve`` propagates by Chebyshev
    expansion.  The name stays because the benchmark's tracer wraps
    ``dynamics.solve_ivp`` and its name guard requires it to resolve; both
    go with the next change to the benchmark.
    """
    from scipy import integrate

    return integrate.solve_ivp(*args, **kwargs)


def _spectral_bounds(matrix) -> tuple[float, float]:
    """Centre and half-width of the Gershgorin interval, which holds the spectrum."""
    diag = matrix.diagonal().real
    with np.errstate(over="ignore", invalid="ignore"):  # an inf entry reads as a NaN bound
        # row sums of |h_ij|; an empty row reads the next row's first entry, so mask it
        sums = np.add.reduceat(np.append(np.abs(matrix.data), 0.0), matrix.indptr[:-1])
        radius = np.where(np.diff(matrix.indptr) > 0, sums, 0.0) - np.abs(diag)
        low, high = float(np.min(diag - radius)), float(np.max(diag + radius))
    if not (math.isfinite(low) and math.isfinite(high)):
        raise ValueError("the Gershgorin bound of h is not finite")
    return 0.5 * (high + low), 0.5 * (high - low)


def _bessel(x: np.ndarray, order: int) -> np.ndarray:
    """J_k(x) for k = 0 ... top, top > order, one column per argument.

    Miller's backward recurrence J_{k-1} = (2k/x) J_k - J_{k+1}, started
    far enough above ``order`` and max|x| that the rows up to ``order``
    are exact to rounding, and normalised by J_0 + 2 (J_2 + J_4 + ...) = 1.
    A column is rescaled before it can overflow.  J_k(-x) = (-1)^k J_k(x);
    arguments below 1e-150 count as 0.
    """
    x = np.asarray(x, dtype=float)
    size = np.abs(x)
    zero = size < 1e-150
    inverse = 2.0 / np.where(zero, 1.0, size)
    reach = float(size.max(initial=0.0))
    top = int(max(order, reach) + 30 + 8 * np.cbrt(reach))
    values = np.empty((top + 1, x.size))
    values[top] = 1e-300
    above = np.zeros(x.size)
    for k in range(top, 0, -1):
        values[k - 1] = (k * inverse) * values[k] - above
        above = values[k]
        if np.dot(values[k - 1], values[k - 1]) > 1e200:
            values[k - 1 :] /= np.maximum(np.abs(values[k - 1]), 1.0)
    values /= 2.0 * values[2::2].sum(axis=0) + values[0]
    values[:, zero] = 0.0
    values[0, zero] = 1.0
    values[1::2] *= np.where(x < 0, -1.0, 1.0)
    return values


def _chebyshev(matrix, amps0, times, tol, bounds, battery, magnon_diag, keep_states):
    """Chebyshev expansion of exp(-iHt) (Tal-Ezer & Kosloff 1984), step by step.

    With X = (H - c)/r, c and r from the Gershgorin interval, a step from
    the anchor state y at time t_a gives each sample t of the step as

        y(t) = sum_k (2 - delta_k0) J_k(r (t - t_a)) (-i)^k T_k(X) y,

    in the frame rotating at c.  The three-term recurrence builds the
    vectors (-i)^k T_k(X) y once per step, real and imaginary parts side
    by side, with two real CSR products per order; all samples of the
    step are then one real matrix product of the real weights with those
    vectors.  The order K of a step is the smallest whose Bessel tail
    2 sum_{k>K} |J_k| stays below the step's share of ``tol`` at every
    sample.  The shares are in proportion to the time each step covers,
    out of |t_0| + (t_end - t_0), so the state error is at most ``tol`` on
    the whole grid.  A step holds at most ``span`` vectors and ``span``
    samples, so that its vectors, its weights and its sampled rows each
    fit in ``_SLICE_BYTES`` (above 32,768 states, 16 vectors do not).

    ``amps0`` is the state at t = 0, as on the dense path: the first step
    starts there.  A sample too far from its anchor for one step is
    reached through intermediate anchors.  No observable sees the rotating
    frame's global phase; only kept states get exp(-i c t) multiplied back.
    """
    centre, half = bounds
    half = half or 1.0  # H = c: X = 0 at any scale
    dim = matrix.shape[0]
    real = matrix.real if matrix.dtype.kind == "c" else matrix
    imag = matrix.imag if matrix.dtype.kind == "c" and np.any(matrix.data.imag) else None

    def turn(vector, out, scale):
        """scale * (-i)(H - c) (p + iq), for the state held as [p, q], into out."""
        p, q = vector[:dim], vector[dim:]
        out[:dim] = real @ q
        out[dim:] = real @ p
        if imag is not None:  # -iH(p + iq) = (Aq + Bp) - i(Ap - Bq) for H = A + iB
            out[:dim] += imag @ p
            out[dim:] -= imag @ q
        out[:dim] -= centre * q
        out[dim:] -= centre * p
        out[:dim] *= scale
        out[dim:] *= -scale

    budget = _SLICE_BYTES // 16
    span = max(16, min(budget // dim, math.isqrt(budget)))
    path = abs(times[0]) + (times[-1] - times[0])

    def plan(anchor, targets):
        """Samples one step reaches, its order and the Bessel table."""
        tau = targets - anchor
        # span - 1 orders never reach a phase r|tau| of span or more
        tau = tau[: int(np.sum(np.maximum.accumulate(half * np.abs(tau)) < span))]
        if not tau.size:
            return 0, 0, None
        share = tol * np.maximum.accumulate(np.abs(tau)) / path
        # a guess at the orders the farthest sample needs: J_k(x) falls off on
        # the Airy scale (x/2)^(1/3) past k = x; too few only shorten the step
        phase = half * float(np.max(np.abs(tau)))
        depth = (1.5 * math.log(1.0 / max(share[-1], 1e-300))) ** (2 / 3)
        most = min(span - 1, int(phase + 10 + depth * np.cbrt(phase / 2 + 1)))
        table = _bessel(half * tau, most)
        # tail[K] = 2 sum_{k > K} |J_k|
        tail = 2.0 * np.cumsum(np.abs(table[:0:-1]), axis=0)[::-1]
        below = tail[: most + 1] <= share
        order = np.where(below.any(axis=0), below.argmax(axis=0), span)
        order = np.maximum.accumulate(order)
        reached = int(np.sum(order <= most))
        return reached, int(order[reached - 1]) if reached else 0, table

    def advance(state, order, table):
        """[Re | Im] of the amplitudes at the step's samples, one row each.

        Row k of ``vectors`` is (-i)^k T_k(X) y: v_{k+1} = v_{k-1} - 2i X v_k.
        """
        vectors = np.empty((order + 1, 2 * dim))
        vectors[0] = state
        for k in range(order):
            turn(vectors[k], vectors[k + 1], (2.0 if k else 1.0) / half)
            if k:
                vectors[k + 1] += vectors[k - 1]
        coeff = 2.0 * table[: order + 1].T
        coeff[:, 0] *= 0.5
        return coeff @ vectors

    # the diagonals of the observables, once for Re and once for Im
    doubled = [np.tile(d, 2) if d is not None else None for d in (battery, magnon_diag)]
    anchor, state = 0.0, np.concatenate([amps0.real, amps0.imag])
    blocks, kept = [], []
    done = 0
    while done < times.size:
        grid = times[done : done + span]
        reached, order, table = plan(anchor, grid)
        if not reached:  # the next sample is out of one step's reach: go part of the way
            target = grid[:1]
            while not reached:  # to a phase of 3/4 span, then by halves
                fraction = min(0.5, 0.75 * span / (half * abs(target[0] - anchor)))
                target = anchor + fraction * (target - anchor)
                reached, order, table = plan(anchor, target)
            anchor, state = float(target[0]), advance(state, order, table[:, :1])[0]
            continue
        grid = grid[:reached]
        rows = advance(state, order, table[:, :reached])
        if keep_states:
            kept.append((rows[:, :dim] + 1j * rows[:, dim:]) * np.exp(-1j * centre * grid)[:, None])
        anchor, state = float(grid[-1]), rows[-1].copy()
        blocks.append(_observables(np.square(rows, out=rows), *doubled))
        done += reached
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
