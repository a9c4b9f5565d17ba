"""Noise-averaged charging of the one-to-one chain through a jittery mode.

The mediating mode frequency is shaken by a real Gaussian white noise
of strength gamma_noise.  Averaging the diffusion unraveling over noise
realizations and tracing out the mode leaves deterministic equations
for the coefficient functions of the single-excitation sector.  They
close into two coupled quadratic ODEs (solve_f12); their difference
obeys the scalar Riccati equation

    dℱ/dt = g^2 + λ ℱ + 2 ℱ^2,   ℱ(0) = 0,   λ = -gamma_noise/2 - i delta.

Its coefficients are constant, so ℱ = -u'/(2u) linearizes it:

    u'' - λ u' + 2 g^2 u = 0,   u(0) = 1,   u'(0) = 0,

and u(t) = exp(-2 I(t)), with I(t) the running integral of ℱ.  The
charger and battery amplitudes are

    a(t) = (u(t) + 1) / 2,   b(t) = (u(t) - 1) / 2,

so a - b = 1 exactly and the stored energy is E(t) = |b(t)|^2 * omega.
solve_calF evaluates this closed form; solve_f12 integrates the pair
numerically and is the independent cross-check of it.  The
double-excitation configuration never mixes in: the dynamics lives on
the three states {charger excited, battery excited, mode excited}.

The solver computes a and b as noise-averaged amplitudes, so the energy
it reports is |M[b]|^2 * omega, with M the average over noise
realizations.  The averaged population M[|b|^2], which obeys a Lindblad
dephasing of the mode at rate gamma_noise, is a different quantity;
whether the paper's stored energy is M[|b|^2] rather than |M[b]|^2 is
still open.  Frequency noise on the mode conserves the excitation
number, so 1 - |a|^2 - |b|^2 is not population lost to a ground state:
it is the mode's share of the averaged amplitude plus the part of the
ensemble that has lost phase with the noiseless evolution.

The integrator of solve_f12 and the root finder of the blow-up guard are
imported on first use: ``scipy.integrate`` and ``scipy.optimize`` cost
about 0.4 s of import, and solve_calF needs neither unless the quadratic
terms run away.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QsdParams",
    "FSolution",
    "RiccatiBlowupError",
    "solve_f12",
    "solve_calF",
]

DEFAULT_TOL = 1e-10

# multiple of |g| above which a coefficient is declared runaway
BLOWUP_FACTOR = 1e6

# candidate poles of ℱ checked per vectorised batch
_POLE_BATCH = 4096


class RiccatiBlowupError(RuntimeError):
    """A coefficient function escaped toward infinity."""


@dataclass(frozen=True)
class QsdParams:
    """Parameters of the noisy one-charger/one-battery chain.

    g couples each spin to the mode, omega is the spin splitting (and
    the energy unit of the battery), omega_m the mean mode frequency and
    gamma_noise the strength of the white frequency noise.
    """

    g: float
    omega: float
    omega_m: float
    gamma_noise: float

    def __post_init__(self) -> None:
        for name in ("g", "omega", "omega_m"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not (math.isfinite(self.gamma_noise) and self.gamma_noise >= 0.0):
            raise ValueError(f"gamma_noise must be finite and >= 0, got {self.gamma_noise!r}")

    @property
    def delta(self) -> float:
        """Mode frequency minus spin splitting."""
        return self.omega_m - self.omega


@dataclass(frozen=True)
class FSolution:
    """Reduced coefficient ℱ(t), its running integral, and the amplitudes.

    Invariants: calf[0] = 0, a - b = 1 identically, and |a|^2 + |b|^2
    never exceeds 1 beyond rounding.  a and b are the noise-averaged
    amplitudes, so energy holds |M[b]|^2 * omega (see the module
    docstring for the open M[|b|^2] question); the remainder
    1 - |a|^2 - |b|^2 is the mode's share and the dephased part of the
    ensemble, not ground-state population.
    """

    times: np.ndarray
    calf: np.ndarray
    integral: np.ndarray
    a: np.ndarray
    b: np.ndarray
    energy: np.ndarray

    def __post_init__(self) -> None:
        n = self.times.shape[0]
        for name in ("calf", "integral", "a", "b", "energy"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} must have shape ({n},)")
        for name in ("times", "calf", "integral", "a", "b", "energy"):
            getattr(self, name).setflags(write=False)


def _validated_grid(t_grid) -> np.ndarray:
    times = np.asarray(t_grid, dtype=float)
    if times.ndim != 1 or times.shape[0] < 2:
        raise ValueError("time grid must be 1-D with at least two points")
    if times[0] != 0.0:
        raise ValueError("time grid must start at 0 (coefficients vanish there)")
    if np.any(np.diff(times) <= 0.0):
        raise ValueError("time grid must be strictly increasing")
    return times


def _threshold(params: QsdParams) -> float:
    return BLOWUP_FACTOR * abs(params.g) if params.g != 0.0 else 1.0


def _blowup(threshold: float, t: float) -> RiccatiBlowupError:
    return RiccatiBlowupError(
        f"coefficient magnitude crossed {threshold:g} at t={t:.12g}; "
        "the quadratic terms run away for these parameters"
    )


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on the first call (one per
    module, so that each module's calls can be wrapped apart)."""
    from scipy import integrate

    return integrate.solve_ivp(*args, **kwargs)


def solve_f12(params: QsdParams, t_grid, tol: float = DEFAULT_TOL):
    """Integrate the coupled pair of coefficient ODEs on a time grid.

    dF1/dt = g^2 + (-i delta - gamma_noise/2) F1 + F1^2 + 3 F2^2
    dF2/dt =       (-i delta - gamma_noise/2) F2 - F1^2 + F2^2 + 4 F1 F2

    from F1(0) = F2(0) = 0 with an adaptive DOP853 integrator at relative
    and absolute tolerance tol.  Returns the pair (F1, F2) of complex
    arrays on the grid.  Raises RiccatiBlowupError when either
    coefficient reaches BLOWUP_FACTOR * |g|.
    """
    times = _validated_grid(t_grid)
    lam = complex(-0.5 * params.gamma_noise, -params.delta)
    gsq = params.g**2
    threshold = _threshold(params)

    def rhs(t, y):
        f1, f2 = y
        return [
            gsq + lam * f1 + f1 * f1 + 3.0 * f2 * f2,
            lam * f2 - f1 * f1 + f2 * f2 + 4.0 * f1 * f2,
        ]

    def escape(t, y):
        return threshold - max(abs(y[0]), abs(y[1]))

    escape.terminal = True

    sol = solve_ivp(
        rhs,
        (times[0], times[-1]),
        np.zeros(2, dtype=complex),
        method="DOP853",
        t_eval=times,
        rtol=tol,
        atol=tol,
        events=escape,
    )
    if sol.status == 1:
        raise _blowup(threshold, float(sol.t_events[0][0]))
    if not sol.success:
        raise RuntimeError(f"coefficient integration failed: {sol.message}")
    return sol.y[0].copy(), sol.y[1].copy()


def _roots(params: QsdParams) -> tuple[complex, complex]:
    """The root r_a of smaller modulus of r^2 - λ r + 2 g^2, and κ = r_a - r_b.

    r_b = (λ ± √(λ^2 - 8 g^2))/2 takes the sign that avoids cancellation
    and r_a = 2 g^2 / r_b, so both stay accurate for |λ| >> |g|; κ is the
    square root itself, so it stays accurate as the roots merge.  Since
    Re λ <= 0, the smaller root has the larger real part: Re κ >= 0.
    """
    lam = complex(-0.5 * params.gamma_noise, -params.delta)
    gsq = params.g**2
    root = cmath.sqrt(lam * lam - 8.0 * gsq)
    if (lam.conjugate() * root).real < 0.0:
        root = -root
    r_a = 2.0 * gsq / (0.5 * (lam + root)) if gsq != 0.0 else 0j
    return r_a, -root


def _decay(r_a: complex, kappa: complex, times):
    """e(t) = ∫_0^t exp(-κ s) ds and w(t) = exp(-r_a t) u(t) = 1 - r_a e(t)."""
    x = -kappa * times
    with np.errstate(divide="ignore", invalid="ignore"):
        e = times * np.where(x == 0.0, 1.0, np.expm1(x) / x)
    return e, 1.0 - r_a * e


def _blowup_time(gsq, r_a, kappa, threshold, t_end):
    """First t in [0, t_end] at which |ℱ| reaches threshold, or None.

    With ρ = r_a/r_b, u = exp(r_a t) (1 - ρ exp(-κ t)) / (1 - ρ) vanishes
    at the complex times τ_m = (log ρ - 2πim)/κ, and

        ℱ = -(r_a/2) (1 - exp(-κ t)) / (1 - ρ exp(-κ t)),

    so |ℱ| <= |r_a| / |1 - ρ exp(-κ t)| because Re κ >= 0.  As |r_a| <=
    √2 |g|, |ℱ| reaches the threshold only within η = 2|r_a|/(threshold |κ|)
    of a τ_m.  Those poles are taken in time order; the first whose peak
    on [0, t_end] reaches the threshold brackets the crossing for brentq.
    """
    if r_a == 0.0 or kappa == 0.0:
        return None  # u = 1, or u = exp(r t)(1 - r t) with r < 0 at the double root

    def excess(t):
        # |ℱ| - threshold times |w| > 0: the same sign, and finite at w = 0
        e, w = _decay(r_a, kappa, t)
        return np.abs(gsq * e) - threshold * np.abs(w)

    eta = 2.0 * abs(r_a) / (threshold * abs(kappa))
    scale = abs(kappa) ** 2
    anchor = cmath.log(r_a / (r_a - kappa)) * kappa.conjugate()
    # Re τ_m = (anchor.real - 2πm κ.imag)/scale, Im τ_m = (anchor.imag - 2πm κ.real)/scale
    lo, hi = -math.inf, math.inf
    for value, coef, low, high in (
        (anchor.imag, kappa.real, -eta * scale, eta * scale),
        (anchor.real, kappa.imag, -eta * scale, (t_end + eta) * scale),
    ):
        if coef != 0.0:
            ends = sorted(((value - high) / (2.0 * math.pi * coef),
                           (value - low) / (2.0 * math.pi * coef)))
            lo, hi = max(lo, ends[0]), min(hi, ends[1])
        elif not low <= value <= high:
            return None
    m_lo, m_hi = math.ceil(lo), math.floor(hi)
    # Re τ_m falls with m when κ.imag > 0
    first, step = (m_hi, -1) if kappa.imag > 0.0 else (m_lo, 1)
    count = m_hi - m_lo + 1
    for offset in range(0, count, _POLE_BATCH):
        m = first + step * np.arange(offset, min(count, offset + _POLE_BATCH), dtype=float)
        centre = (anchor.real - 2.0 * math.pi * m * kappa.imag) / scale
        peak = np.clip(centre, 0.0, t_end)
        hits = np.flatnonzero(excess(peak) >= 0.0)
        if hits.size:
            k = hits[0]
            start = max(0.0, centre[k] - 2.0 * eta)
            from scipy.optimize import brentq

            return brentq(lambda t: float(excess(t)), start, float(peak[k]))
    return None


def solve_calF(params: QsdParams, t_grid, tol: float = DEFAULT_TOL) -> FSolution:
    """Evaluate the closed form of the scalar Riccati reduction.

    The difference of the paired coefficients obeys

        dℱ/dt = g^2 + λ ℱ + 2 ℱ^2,  ℱ(0) = 0,  λ = -gamma_noise/2 - i delta,

    which ℱ = -u'/(2u) turns into u'' - λ u' + 2 g^2 u = 0 with u(0) = 1,
    u'(0) = 0.  With r_a, r_b the roots of r^2 - λ r + 2 g^2 (|r_a| <= |r_b|)
    and κ = r_a - r_b,

        u = exp(r_a t) (1 - r_a e(t)),   e(t) = (1 - exp(-κ t)) / κ,

    a form that stays accurate as the roots merge (e(t) = t at the double
    root delta = 0, gamma_noise = 4√2 |g|).  Then ℱ = g^2 e / (1 - r_a e),
    I = -(1/2) log u on the branch continuous from I(0) = 0, a = (u + 1)/2
    and b = (u - 1)/2.  The result is exact to rounding; tol is kept for
    the callers that pass it and does not affect it.

    Raises RiccatiBlowupError when |ℱ| reaches BLOWUP_FACTOR * |g|
    anywhere on [0, t_grid[-1]], between samples included: that is a
    near-zero of u.
    """
    times = _validated_grid(t_grid)
    gsq = params.g**2
    r_a, kappa = _roots(params)
    threshold = _threshold(params)
    t_blowup = _blowup_time(gsq, r_a, kappa, threshold, float(times[-1]))
    if t_blowup is not None:
        raise _blowup(threshold, t_blowup)

    e, w = _decay(r_a, kappa, times)
    calf = gsq * e / w
    # w = (1 - ρ exp(-κ t))/(1 - ρ) with |ρ| <= 1 and Re κ >= 0: numerator
    # and denominator keep positive real parts, so the principal log of w
    # is continuous in t
    integral = -0.5 * (r_a * times + np.log(w))
    calf[0] = integral[0] = 0.0
    u = np.exp(r_a * times) * w
    b = 0.5 * (u - 1.0)
    return FSolution(
        times=times.copy(),
        calf=calf,
        integral=integral,
        a=0.5 * (u + 1.0),
        b=b,
        energy=np.abs(b) ** 2 * params.omega,
    )
