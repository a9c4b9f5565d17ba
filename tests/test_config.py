import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from magnon_battery import HamiltonianMatrix, SystemConfig, enumerate_sector_basis


def test_scalar_shorthands_expand():
    cfg = SystemConfig(
        n_charger=2,
        m_battery=3,
        omega=10.0,
        omega_m=11.0,
        g_charger=0.1,
        g_battery=0.2,
        j_charger=0.05,
        j_battery=0.0,
    )
    assert cfg.g_charger == (0.1, 0.1)
    assert cfg.g_battery == (0.2, 0.2, 0.2)
    assert cfg.j_charger.shape == (2, 2)
    assert cfg.j_charger[0, 1] == 0.05
    # diagonal is meaningless for flip-flop exchange and gets zeroed
    assert np.all(np.diag(cfg.j_charger) == 0.0)
    assert np.all(cfg.j_battery == 0.0)


def test_explicit_arrays_kept():
    cfg = SystemConfig(
        n_charger=2,
        m_battery=1,
        omega=1.0,
        omega_m=2.0,
        g_charger=(0.1, 0.3),
        g_battery=(0.2,),
        j_charger=[[9.0, 0.4], [0.4, 9.0]],
        j_battery=0.0,
    )
    assert cfg.g_charger == (0.1, 0.3)
    assert cfg.j_charger[0, 1] == cfg.j_charger[1, 0] == 0.4
    assert cfg.j_charger[0, 0] == 0.0


def test_validation_errors():
    ok = dict(omega=1.0, omega_m=2.0, g_charger=0.1, g_battery=0.1,
              j_charger=0.0, j_battery=0.0)
    with pytest.raises(ValueError, match="n_charger"):
        SystemConfig(n_charger=0, m_battery=1, **ok)
    with pytest.raises(ValueError, match="m_battery"):
        SystemConfig(n_charger=1, m_battery=-2, **ok)
    with pytest.raises(ValueError, match="symmetric"):
        SystemConfig(n_charger=2, m_battery=1, omega=1.0, omega_m=2.0,
                     g_charger=0.1, g_battery=0.1,
                     j_charger=[[0.0, 0.1], [0.2, 0.0]], j_battery=0.0)
    with pytest.raises(ValueError, match="length 2"):
        SystemConfig(n_charger=2, m_battery=1, omega=1.0, omega_m=2.0,
                     g_charger=(0.1, 0.2, 0.3), g_battery=0.1,
                     j_charger=0.0, j_battery=0.0)
    with pytest.raises(ValueError, match="finite"):
        SystemConfig(n_charger=1, m_battery=1, omega=np.inf, omega_m=2.0,
                     g_charger=0.1, g_battery=0.1, j_charger=0.0, j_battery=0.0)
    with pytest.raises(ValueError, match="fock_cutoff"):
        SystemConfig(n_charger=1, m_battery=1, fock_cutoff=-1, **ok)


def test_api_input_errors():
    # a J of the wrong shape, a non-finite J or g, and a matrix of another
    # size than its basis are each refused with their own message
    ok = dict(n_charger=2, m_battery=1, omega=1.0, omega_m=2.0, g_battery=0.1, j_battery=0.0)
    with pytest.raises(ValueError, match=r"^j_charger must be 2x2, got shape \(3, 3\)$"):
        SystemConfig(g_charger=0.1, j_charger=np.zeros((3, 3)), **ok)
    with pytest.raises(ValueError, match=r"^j_charger contains non-finite entries$"):
        SystemConfig(g_charger=0.1, j_charger=[[0.0, np.nan], [np.nan, 0.0]], **ok)
    with pytest.raises(ValueError, match=r"^g_charger contains non-finite entries$"):
        SystemConfig(g_charger=(0.1, np.inf), j_charger=0.0, **ok)
    basis = enumerate_sector_basis(1, 1, 1, 1)
    with pytest.raises(ValueError, match=r"^matrix shape \(4, 4\) does not match basis dimension 3$"):
        HamiltonianMatrix(sp.identity(4, format="csr"), basis)


def test_zero_detuning_rejected():
    with pytest.raises(ValueError, match="detuning"):
        SystemConfig.uniform(1, 1, g=0.1, omega=5.0, omega_m=5.0)


def test_detuning_sign():
    cfg = SystemConfig.uniform(1, 1, g=0.1, omega=5.0, omega_m=4.0)
    assert cfg.detuning == -1.0


def test_dispersive_constructor():
    cfg = SystemConfig.dispersive(2, 1, g_over_delta=0.1, j_over_delta=0.01,
                                  omega_over_delta=10.0, delta=2.0)
    assert cfg.omega == 20.0
    assert cfg.omega_m == 22.0
    assert cfg.detuning == 2.0
    assert cfg.g_charger == (0.2, 0.2)
    assert cfg.j_charger[0, 1] == 0.02
    with pytest.raises(ValueError, match="delta"):
        SystemConfig.dispersive(1, 1, g_over_delta=0.1, delta=0.0)


def test_is_uniform():
    assert SystemConfig.dispersive(3, 2, g_over_delta=0.1).is_uniform()
    assert SystemConfig.dispersive(3, 2, g_over_delta=0.1, j_over_delta=0.05).is_uniform()
    lopsided = SystemConfig(
        n_charger=2, m_battery=1, omega=1.0, omega_m=2.0,
        g_charger=(0.1, 0.2), g_battery=0.1, j_charger=0.0, j_battery=0.0,
    )
    assert not lopsided.is_uniform()
    # exact equality: one ulp apart is not uniform
    assert not dataclasses.replace(lopsided, g_charger=(0.1, 0.1000000000000001)).is_uniform()
    assert dataclasses.replace(lopsided, g_charger=(0.1, 0.1)).is_uniform()
    # J must agree between the registers only where both have a pair
    single = SystemConfig.uniform(1, 3, g=0.1, omega=1.0, omega_m=2.0, j_battery=0.05)
    assert single.is_uniform()
    split = SystemConfig.uniform(2, 2, g=0.1, omega=1.0, omega_m=2.0, j_battery=0.05)
    assert not split.is_uniform()


def _pairwise_classes(g, j, offset):
    """Classes of the definition itself: s ~ f when g and every J_sk = J_fk, k != s, f."""
    same = [
        [g[s] == g[f] and all(j[s, k] == j[f, k] for k in range(len(g)) if k not in (s, f))
         for f in range(len(g))]
        for s in range(len(g))
    ]
    firsts = sorted({row.index(True) for row in same})
    return [tuple(offset + s for s in range(len(g)) if same[s].index(True) == f) for f in firsts]


def test_classes_follow_the_pairwise_rule():
    # registers drawn from a few class values, a ulp apart now and then,
    # with signed zeros: the partition is the equivalence of the definition
    rng = np.random.default_rng(4)
    mixed = 0
    for _ in range(300):
        n, m = rng.integers(1, 7, size=2)
        registers = []
        for size in (n, m):
            kind = rng.integers(0, 3, size)
            g = np.array([0.1, 0.12, 0.1])[kind]
            table = rng.choice([0.0, -0.0, 0.01, 0.03], size=(3, 3))
            table = np.where(np.arange(3)[:, None] <= np.arange(3), table, table.T)
            j = table[np.ix_(kind, kind)]
            if rng.random() < 0.3:
                s, t = rng.integers(0, size, 2)
                if s != t:
                    j[s, t] = j[t, s] = np.nextafter(j[s, t], 1.0)
            registers.append((g, j))
        (g_c, j_c), (g_b, j_b) = registers
        cfg = SystemConfig(
            n_charger=n, m_battery=m, omega=10.0, omega_m=11.0,
            g_charger=g_c, g_battery=g_b, j_charger=j_c, j_battery=j_b,
        )
        want = _pairwise_classes(cfg.g_charger, cfg.j_charger, 0)
        want += _pairwise_classes(cfg.g_battery, cfg.j_battery, n)
        assert cfg._classes == tuple(want)
        mixed += 2 < len(want) < n + m
    assert mixed > 100


def test_frozen():
    cfg = SystemConfig.dispersive(1, 1, g_over_delta=0.1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.omega = 3.0
    assert not cfg.j_charger.flags.writeable
