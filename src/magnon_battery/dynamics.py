"""State propagation and charging metrics.

``evolve`` propagates the Schroedinger equation for any Hermitian
operator produced by this package and samples the battery observables
on a caller-supplied time grid, on the cheaper of two propagators.  A
full Hermitian eigendecomposition makes the phase evolution exact to
rounding; it costs about dim^3 and holds dim x dim complex arrays, so it
runs up to ``DENSE_THRESHOLD`` states (2048) only.  A Chebyshev
expansion of exp(-iHt) (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967,
1984) costs about r path sparse products, r the Gershgorin half-width
of H: one step length and one order, set from ``tol`` by the Bessel
coefficients and free of the grid, make ``tol`` bound the state error on
the whole grid.  Miller's backward recurrence gives the Bessel values;
neither ``scipy.integrate`` nor ``scipy.special`` loads.

``_choose`` estimates both costs and takes the cheaper path; for the
walk it also sets the step, the order and the Bessel values of one step.
Neither wins everywhere: per-spin models of a few hundred states take
the walk (dim 924: 16 ms against 1.0 s dense); small models and register
models over long horizons, whose magnon ladder makes r path large, stay
dense.  Each call logs its choice at DEBUG on the
``magnon_battery.dynamics`` logger; the package adds no handler.

Both propagators yield the amplitudes of consecutive samples in blocks
whose amplitudes and probabilities fit in ``_SLICE_BYTES``; ``evolve``
alone turns a block into E, norm and n_magnon and keeps the states asked
for.  So, kept states aside, memory does not grow with the grid.

The builders store real (float64) matrices.  The dense path makes one
complex copy of the matrix and keeps the eigendecomposition complex: a
real one is about ten times faster, but it returns other eigenvectors
and rounds E(t) differently, enough to move the earlier of two equal
peaks of a trajectory, so it waits for a tie rule in
``charging_metrics``.  The Chebyshev path needs no copy: it holds a
state as interleaved (Re, Im) pairs, a real CSR product for each part.

Energies are reported as battery excitation numbers, i.e. in units of
the spin splitting omega; times and powers are in raw model units.
Dividing power by |G| converts to the conventional |G|*omega scale.
"""

from __future__ import annotations

import logging
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

# the dense path's size cap: its dim x dim complex matrix and eigenvectors
DENSE_THRESHOLD = 2048

# seconds per unit of each term of _choose's estimates: a least-squares
# fit (non-negative, in relative error) to two timing passes over 112
# evolve calls, each timed on both paths: the 46 preset trajectories, the
# 28 sweep-uniform points, and per-spin and register models up to dim 968.
# Host: a 2-core x86-64 VM, numpy 2.4.6 and scipy 1.17.1 on one OpenBLAS
# thread.  The rows and the fit are in BENCH_propagator_choice.json.
_DENSE_COST = (1.44e-09, 1.38e-10, 5.0e-08)  # dim^3, samples dim^2, samples dim
_CHEBYSHEV_COST = (1.4e-05, 8.6e-10, 1.83e-10, 1.27e-08)  # products, products nnz, samples order dim, samples rows

# how much cheaper the walk must be estimated to be taken: its loop holds
# the interpreter lock, so a [run] threads pool runs walks one at a time
# while dense calls overlap in LAPACK.  On two workers a dense call took a
# median 0.54 times its one-worker wall time and a walk 1.23 times (nine
# per-spin effective models, dims 56-462); the choice may not read the
# thread count, or a CSV would depend on it
_WALK_MARGIN = 2.3

_log = logging.getLogger(__name__)

# the smallest tol: a finer one is below float64 rounding.  Below about
# 1e-13, rounding in the Chebyshev recurrence, not truncation, bounds the
# error, and it grows with the path (per-spin 3+3 at tol = eps: 4.3e-14
# over t in [0, 3], 3.7e-13 over [0, 30]); the dense path is exact to
# rounding whatever tol is
_MIN_TOL = float(np.finfo(float).eps)

# bytes of one Chebyshev move's vectors, and of one sample block's
# amplitudes with their probabilities, each
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
    keep_states: bool = False,
) -> Trajectory:
    """Propagate psi0, the state at t = 0, under h and sample observables on the grid.

    It takes the cheaper propagator (see ``_choose``).  The dense path is
    exact to rounding, whatever ``tol`` is.  On the Chebyshev path, which
    every model above ``DENSE_THRESHOLD`` states takes, ``tol`` bounds the
    error of the state at every sample down to about 1e-13, where float64
    rounding in the recurrence takes over, more so on a longer path (see
    ``_MIN_TOL``).
    """
    if not isinstance(h, HamiltonianMatrix):
        raise TypeError("h must be a HamiltonianMatrix (Hermitian by construction)")
    times = _checked_grid(times)
    if not (math.isfinite(tol) and tol >= _MIN_TOL):
        raise ValueError(f"tol must be finite and >= {_MIN_TOL!r}")
    amps0 = psi0.amplitudes
    if amps0.shape != (h.dimension,):
        raise ValueError(f"state dimension {amps0.shape} does not match operator dimension {h.dimension}")
    if not psi0.basis._matches(h.basis):
        raise ValueError("psi0 is a state of another basis than h's")
    if not abs(np.linalg.norm(amps0) - 1.0) <= 1e-12:  # a NaN norm fails too
        raise ValueError("psi0 is not normalized")
    bounds = _spectral_bounds(h.matrix)
    plan = _choose(h.matrix, times, tol, bounds)
    if plan is None:
        blocks, centre = _dense(h.matrix, amps0, times), 0.0
    else:
        blocks, centre = _chebyshev(h.matrix, amps0, times, bounds, plan), bounds[0]

    # one observation loop; a block holds the next samples in the frame rotating at centre
    magnon_diag, battery = (counts.astype(float) for counts in h.basis._counts()[1:])
    energy, norm = np.empty(times.size), np.empty(times.size)
    magnon = np.empty(times.size) if h.basis.cutoff else None
    states = np.empty((times.size, h.dimension), dtype=complex) if keep_states else None
    done = 0
    for amps in blocks:
        rows = slice(done, done := done + len(amps))
        if keep_states:
            states[rows] = amps * np.exp(-1j * centre * times[rows])[:, None]
        probs = np.abs(amps)
        probs **= 2
        energy[rows], norm[rows] = probs @ battery, probs.sum(axis=1)
        if magnon is not None:
            magnon[rows] = probs @ magnon_diag
    return Trajectory(times, energy, _power(times, energy), norm, magnon, states)


def _checked_grid(times) -> np.ndarray:
    """A sample grid as a float array: 1-D, finite, strictly increasing, two samples or more."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ValueError("times must be a 1-D grid with at least two samples")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    return times


def _power(times: np.ndarray, energy: np.ndarray) -> np.ndarray:
    """Average charging power E/t, with P(0) = 0."""
    return np.divide(energy, times, out=np.zeros_like(energy), where=times > 0)


def _block_rows(dim: int) -> int:
    """Samples per block: a block's amplitudes and probabilities fit in ``_SLICE_BYTES``."""
    return max(1, _SLICE_BYTES // (24 * dim))


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on first call; unused here, the benchmark's tracer wraps it."""
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
    return 0.5 * (high + low), 0.5 * (high - low) or 1.0  # H = c: X = (H - c)/r is 0 at any r


def _is_complex(matrix) -> bool:
    """Whether H has an imaginary part: then a Chebyshev order takes four real CSR products, not two."""
    return matrix.dtype.kind == "c" and bool(np.any(matrix.data.imag))


def _choose(matrix, times: np.ndarray, tol: float, bounds: tuple[float, float]):
    """The cheaper propagator: None for dense, else the walk's step D, order K and J_k(rD).

    One D and one K serve the walk (Leforestier et al., J. Comput. Phys.
    94, 59, 1991), whose moves hold at most ``_span`` vectors each.  Of 64
    steps up to min(path, (span - 1)/r), denser near the top, with path =
    |t_0| + (t_end - t_0), D is the longest with D >= eps path (or the
    walk's times stand still) and a tail 2 sum_{k>K} |J_k(rD)| of at most
    tol D / (path + 2D) for some K in [rD - 1, span); K is the smallest.
    With none left the walk is out of reach: dense within
    ``DENSE_THRESHOLD`` states, ``FloatingPointError`` above it.

    The estimates use ``_DENSE_COST`` and ``_CHEBYSHEV_COST``, and the walk
    is taken where it is ``_WALK_MARGIN`` times cheaper.  D and K, and so a
    Bessel table, are computed only where dense costs more than the margin
    times the walk's floor: the longest step at the lowest order it allows,
    with no allowance for the tail.  The choice and both estimates are
    logged at DEBUG.
    """
    dim, nnz, samples, half = matrix.shape[0], matrix.nnz, times.size, bounds[1]
    path = abs(times[0]) + (times[-1] - times[0])
    a, b, e = _DENSE_COST
    dense = dim * (a * dim * dim + samples * (b * dim + e)) if dim <= DENSE_THRESHOLD else math.inf
    c, f, g, h = _CHEBYSHEV_COST
    products = (c + f * nnz) * (4 if _is_complex(matrix) else 2)  # per order

    def walk(step, order):
        """ceil(path/D) moves of order K, and a Bessel table for each sample."""
        return np.ceil(path / step) * order * products + samples * (g * order * dim + h * _rows(order, half * step))

    span = _span(dim)
    longest = min(path, (span - 1) / half)
    plan, chebyshev, why = None, walk(longest, max(math.ceil(half * longest) - 1, 0)), "floor"
    if dim > DENSE_THRESHOLD or dense > _WALK_MARGIN * chebyshev:
        steps = longest * np.linspace(1.0, 0.0, 64, endpoint=False) ** 1.5  # the longest first
        phases = half * steps
        table = _bessel(phases, 0)  # its rows run on to where |J_k| < 1e-17
        tail = 2.0 * np.cumsum(np.abs(table[:0:-1]), axis=0)[::-1][:span]
        orders = np.arange(len(tail))[:, None]  # tail[K] = 2 sum_{k>K} |J_k|
        fits = (tail <= tol * phases / (half * path + 2 * phases)) & (orders + 1 >= phases)
        fits &= phases >= _MIN_TOL * half * path  # the walk's times must advance
        if fits.any():
            best = int(np.argmax(fits.any(axis=0)))
            order = int(np.argmax(fits[:, best]))
            chebyshev = walk(steps[best], order)
            why = f"{math.ceil(path / steps[best])} moves of order {order},"
            if dense > _WALK_MARGIN * chebyshev:
                plan = float(steps[best]), order, table[: order + 1, best]
        elif dim > DENSE_THRESHOLD:
            raise FloatingPointError(f"tol = {tol!r} is out of reach in float64 over {half * path:.3g} phases")
        else:
            chebyshev, why = math.inf, "out of reach,"
    _log.debug("%s: dim %d, nnz %d, %d samples, r*path %.6g; dense %.3g s, Chebyshev %s %.3g s",
               "dense" if plan is None else "chebyshev", dim, nnz, samples, half * path, dense, why, chebyshev)
    return plan


def _span(dim: int) -> int:
    """Vectors of one Chebyshev move, and samples of one Bessel table: 16 to 724."""
    budget = _SLICE_BYTES // 16
    return max(16, min(budget // dim, math.isqrt(budget)))


def _rows(order: int, reach: float) -> int:
    """Rows of a Bessel table to ``order`` at arguments up to ``reach``: past both, to |J_k| < 1e-17."""
    return int(max(order, reach) + 30 + 8 * np.cbrt(reach)) + 1


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
    top = _rows(order, reach) - 1
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


def _dense(matrix, amps0, times):
    """Amplitude blocks from the eigendecomposition of the matrix (complex: see above)."""
    w, v = np.linalg.eigh(matrix.astype(complex, copy=False).toarray())
    coeff = v.conj().T @ amps0
    rows = _block_rows(len(w))
    for start in range(0, times.size, rows):
        phases = np.exp(-1j * np.outer(times[start : start + rows], w))
        yield (v @ (phases * coeff).T).T


def _chebyshev(matrix, amps0, times, bounds, plan):
    """Amplitude blocks from a Chebyshev expansion of exp(-iHt) (Tal-Ezer & Kosloff 1984).

    With X = (H - c)/r, c and r from the Gershgorin interval, the state a
    time tau after the anchor state y is

        y(t_a + tau) = sum_k (2 - delta_k0) J_k(r tau) (-i)^k T_k(X) y,

    in the frame rotating at c.  The recurrence builds the vectors
    (-i)^k T_k(X) y once per move as interleaved (Re, Im) pairs, two real
    CSR products per order; a block of samples, their real product with
    Bessel weights, reads as complex amplitudes without a copy.

    ``plan`` is ``_choose``'s step D, order K and J_k(rD).  Every move
    is the same: from the anchor, at t = 0 first, it gives the next
    samples within D of the anchor, one Bessel table per span of them, in
    blocks of at most ``_block_rows``, and then moves the state by exactly
    D, or by -D while the next sample lies more than D before the anchor,
    with the weights of J_k(rD) (J_k(-x) = (-1)^k J_k(x)): at most
    path/D + 2 moves.  Below its order a Bessel tail rises with the phase,
    so D bounds a move's error at each of its samples, and the shares sum
    to at most ``tol`` (rounding aside).
    """
    centre, half = bounds
    dim = matrix.shape[0]
    real = matrix.real if matrix.dtype.kind == "c" else matrix
    imag = matrix.imag if _is_complex(matrix) else None

    def turn(vector, out, scale):
        """scale * (-i)(H - c) (p + iq), for the state held as pairs (p, q), into out."""
        p, q, re, im = vector[0::2], vector[1::2], out[0::2], out[1::2]
        re[:] = real @ q
        np.multiply(p, centre, out=im)
        im -= real @ p
        if imag is not None:  # -iH(p + iq) = (Aq + Bp) - i(Ap - Bq) for H = A + iB
            re += imag @ p
            im += imag @ q
        re -= centre * q
        out *= scale

    step, order, column = plan
    span = _span(dim)
    double = np.where(np.arange(order + 1), 2.0, 1.0)  # the weights are (2 - delta_k0) J_k
    ahead = double * column
    behind = ahead * (-1.0) ** np.arange(order + 1)  # the move by -D

    anchor, done, rows = 0.0, 0, _block_rows(dim)
    vectors = np.empty((order + 1, 2 * dim))
    vectors[0].view(complex)[:] = amps0
    while True:
        # row k of vectors is (-i)^k T_k(X) y: v_{k+1} = v_{k-1} - 2i X v_k
        for k in range(order):
            turn(vectors[k], vectors[k + 1], (2.0 if k else 1.0) / half)
            if k:
                vectors[k + 1] += vectors[k - 1]
        back = times[done] < anchor - step  # a grid that starts before t = 0
        reach = done if back else int(np.searchsorted(times, anchor + step, "right"))
        for start in range(done, reach, span):
            grid = times[start : min(start + span, reach)]
            weights = double * _bessel(half * (grid - anchor), order)[: order + 1].T
            for part in range(0, len(grid), rows):
                yield (weights[part : part + rows] @ vectors).view(complex)
        if (done := reach) == times.size:
            return
        vectors[0] = (behind if back else ahead) @ vectors
        anchor += -step if back else step


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
        p_max = float(np.max(traj.power))
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
    return factor * math.pi / (math.sqrt(max(n_charger, m_battery)) * abs(coupling))
