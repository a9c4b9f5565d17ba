import math

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson

from magnon_battery import (
    FSolution,
    QsdParams,
    RiccatiBlowupError,
    solve_calF,
    solve_f12,
)


def _closed_form_decay(params, times):
    """Independent oracle: the Riccati equation linearizes.

    Substituting calF = -u'/(2u) turns the quadratic equation into
    u'' + (i*delta + gamma/2) u' + 2 g^2 u = 0 with u(0)=1, u'(0)=0,
    so exp(-2 I(t)) = u(t) in closed form.
    """
    lam = complex(0.5 * params.gamma_noise, params.delta)
    disc = np.sqrt(complex(lam * lam - 8.0 * params.g**2))
    mu_p = (-lam + disc) / 2.0
    mu_m = (-lam - disc) / 2.0
    t = np.asarray(times)
    u = (mu_p * np.exp(mu_m * t) - mu_m * np.exp(mu_p * t)) / (mu_p - mu_m)
    du = mu_p * mu_m * (np.exp(mu_m * t) - np.exp(mu_p * t)) / (mu_p - mu_m)
    return u, du


@pytest.fixture
def params():
    return QsdParams(g=0.1, omega=10.0, omega_m=11.0, gamma_noise=0.02)


def test_params_validation():
    with pytest.raises(ValueError, match="gamma_noise"):
        QsdParams(g=0.1, omega=1.0, omega_m=2.0, gamma_noise=-0.1)
    with pytest.raises(ValueError, match="finite"):
        QsdParams(g=math.inf, omega=1.0, omega_m=2.0, gamma_noise=0.0)
    p = QsdParams(g=0.1, omega=10.0, omega_m=11.0, gamma_noise=0.0)
    assert p.delta == 1.0


def test_grid_validation(params):
    with pytest.raises(ValueError, match="start at 0"):
        solve_calF(params, [1.0, 2.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        solve_calF(params, [0.0, 2.0, 1.0])
    with pytest.raises(ValueError, match="at least two"):
        solve_calF(params, [0.0])
    with pytest.raises(ValueError, match="1-D"):
        solve_calF(params, [[0.0, 1.0]])


def test_solution_invariants(params):
    times = np.linspace(0.0, 600.0, 1201)
    fsol = solve_calF(params, times)
    assert isinstance(fsol, FSolution)
    assert fsol.calf[0] == 0.0
    assert fsol.integral[0] == 0.0
    # the amplitude difference is pinned by construction
    assert np.max(np.abs(fsol.a - fsol.b - 1.0)) < 1e-12
    # the averaged spin amplitudes never exceed unit weight; the rest is
    # the mode's share or has dephased, the excitation number is conserved
    assert np.max(np.abs(fsol.a) ** 2 + np.abs(fsol.b) ** 2) < 1.0 + 1e-8
    assert np.max(fsol.energy) <= params.omega * (1.0 + 1e-8)
    assert not fsol.calf.flags.writeable


def test_calF_matches_linearized_closed_form():
    for gamma in (0.0, 0.02, 0.2):
        p = QsdParams(g=0.1, omega=10.0, omega_m=11.0, gamma_noise=gamma)
        times = np.linspace(0.0, 500.0, 1001)
        fsol = solve_calF(p, times, tol=1e-12)
        u, du = _closed_form_decay(p, times)
        assert np.max(np.abs(np.exp(-2.0 * fsol.integral) - u)) < 1e-8
        assert np.max(np.abs(fsol.calf[1:] + du[1:] / (2.0 * u[1:]))) < 1e-8
        assert np.max(np.abs(fsol.energy - np.abs((u - 1.0) / 2.0) ** 2 * p.omega)) < 1e-8


def test_pair_reduction_consistency(params):
    times = np.linspace(0.0, 400.0, 801)
    f1, f2 = solve_f12(params, times, tol=1e-12)
    fsol = solve_calF(params, times, tol=1e-12)
    assert f1[0] == f2[0] == 0.0
    assert np.max(np.abs((f1 - f2) - fsol.calf)) < 1e-9


def test_blowup_detected():
    # on resonance the quadratic term wins and calF has a finite-time
    # pole at t = pi/(2 sqrt(2) g); the guard must fire near it
    p = QsdParams(g=1.0, omega=1.0, omega_m=1.0 + 1e-9, gamma_noise=0.0)
    with pytest.raises(RiccatiBlowupError, match="runs? away|crossed"):
        solve_calF(p, np.linspace(0.0, 5.0, 501))
    with pytest.raises(RiccatiBlowupError):
        solve_f12(p, np.linspace(0.0, 5.0, 501))
    try:
        solve_calF(p, np.linspace(0.0, 5.0, 501))
    except RiccatiBlowupError as exc:
        reported = float(str(exc).split("t=")[1].split(";")[0])
        assert reported == pytest.approx(math.pi / (2 * math.sqrt(2)), rel=1e-3)


def test_blowup_between_coarse_samples():
    # on exact resonance u = cos(sqrt(2) g t); its first zero falls between
    # the samples t = 2 and t = 4, and the guard must still find it
    p = QsdParams(g=0.5, omega=1.0, omega_m=1.0, gamma_noise=0.0)
    pole = math.pi / (2 * math.sqrt(2) * p.g)
    assert 2.0 < pole < 4.0
    with pytest.raises(RiccatiBlowupError) as exc:
        solve_calF(p, np.linspace(0.0, 10.0, 6))
    reported = float(str(exc.value).split("t=")[1].split(";")[0])
    assert reported == pytest.approx(pole, rel=1e-6)
    # a grid that stops short of the pole is solved, not rejected
    fsol = solve_calF(p, np.linspace(0.0, pole - 1e-3, 6))
    assert np.all(np.isfinite(fsol.calf))


@pytest.mark.parametrize("offset", [0.0, 1e-6])
def test_double_root_matches_pair_integration(offset):
    # delta = 0 and gamma = 4 sqrt(2) g merge the two roots of the
    # linearized equation; the closed form must stay accurate there and
    # next to it.  For g = 0.15 the discriminant is exactly 0 in floats.
    g = 0.15
    assert complex(-2 * math.sqrt(2) * g, -0.0) ** 2 - 8.0 * g**2 == 0.0
    times = np.linspace(0.0, 300.0, 601)
    for delta, gamma in ((0.0, 4 * math.sqrt(2) * g + offset), (offset, 4 * math.sqrt(2) * g)):
        p = QsdParams(g=g, omega=10.0, omega_m=10.0 + delta, gamma_noise=gamma)
        f1, f2 = solve_f12(p, times, tol=1e-12)
        fsol = solve_calF(p, times)
        assert np.max(np.abs((f1 - f2) - fsol.calf)) < 1e-9


def test_integral_matches_quadrature_on_fig6_grid():
    # I(t) = ∫ calF on the branch continuous from 0: its imaginary part
    # passes pi, so a principal-branch log of u would jump by i*pi
    coarse = np.linspace(0.0, 800.0, 4001)
    fine = np.linspace(0.0, 800.0, 80001)
    for ratio in (0.0, 0.002, 0.02, 0.2):
        p = QsdParams(g=0.1, omega=10.0, omega_m=11.0, gamma_noise=ratio)
        fsol = solve_calF(p, coarse)
        quad = cumulative_simpson(solve_calF(p, fine).calf, x=fine, initial=0.0)[::20]
        assert np.max(np.abs(fsol.integral.imag)) > math.pi
        assert np.max(np.abs(fsol.integral - quad)) < 1e-8


def test_energy_scale_tracks_omega():
    times = np.linspace(0.0, 300.0, 601)
    low = solve_calF(QsdParams(g=0.1, omega=5.0, omega_m=6.0, gamma_noise=0.1), times)
    high = solve_calF(QsdParams(g=0.1, omega=10.0, omega_m=11.0, gamma_noise=0.1), times)
    # same detuning and coupling: identical occupation, rescaled energy
    assert np.allclose(low.energy / 5.0, high.energy / 10.0, atol=1e-10)
