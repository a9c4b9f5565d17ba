import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from magnon_battery import (
    ConfigError,
    PRESETS,
    SystemConfig,
    build_full_hamiltonian,
    charged_initial_state,
    charging_horizon,
    charging_metrics,
    effective_couplings,
    enumerate_sector_basis,
    evolve,
    parse_config,
    run_experiment,
    sweep_metrics,
)
from magnon_battery import experiments
from magnon_battery.cli import main

SWEEP_HEADER = "model,N,M,J_over_delta,E_max_over_omega,tau_G,P_tau_over_Gomega,P_max_over_Gomega"

MINIMAL = """\
[run]
mode = simulate-effective
samples = 51

[system]
n_charger = 1
m_battery = 1
g_over_delta = 0.1
"""


def test_minimal_config_and_defaults():
    spec = parse_config(MINIMAL)
    assert spec.mode == "simulate-effective"
    assert spec.samples == 51
    assert spec.horizon is None
    assert spec.horizon_factor == 1.2
    assert spec.threads == 1
    assert spec.tol == 1e-10
    assert spec.system.n_charger == 1
    # delta defaults to 1, omega_over_delta to 10, mode above the spins
    assert spec.system.omega == 10.0
    assert spec.system.omega_m == 11.0
    assert spec.system.g_charger == (0.1,)


def test_mode_from_argument():
    text = MINIMAL.replace("mode = simulate-effective\n", "")
    spec = parse_config(text, mode="simulate-effective")
    assert spec.mode == "simulate-effective"
    with pytest.raises(ConfigError, match="mode required"):
        parse_config(text)
    with pytest.raises(ConfigError, match="command line says"):
        parse_config(MINIMAL, mode="simulate-full")
    # agreeing twice is fine
    parse_config(MINIMAL, mode="simulate-effective")
    with pytest.raises(ConfigError, match="unknown mode"):
        parse_config(text, mode="banana")
    # a hand-built spec is checked again where it runs
    spec = parse_config(MINIMAL)
    with pytest.raises(ConfigError, match="^unknown mode 'banana'$"):
        run_experiment(replace(spec, mode="banana"))
    with pytest.raises(ConfigError, match="^unknown model 'exact'$"):
        run_experiment(replace(spec, models=("exact",)))


def test_preset_expansion():
    spec = parse_config("fig2")
    assert spec.mode == "compare"
    assert spec.text == PRESETS["fig2"]
    assert spec.models == ("full", "effective")
    for name in PRESETS:
        parse_config(name)  # every preset must validate


def test_unknown_section_and_key_carry_line_numbers():
    bad_section = "[run]\nmode = analytic\n\n[sistem]\ng_over_delta = 0.1\n"
    with pytest.raises(ConfigError, match=r"line 4: unknown section \[sistem\]"):
        parse_config(bad_section)
    bad_key = "[run]\nmode = analytic\n\n[system]\nbogus_key = 1\ng_over_delta = 0.1\n"
    with pytest.raises(ConfigError, match=r"line 5: \[system\] bogus_key: unknown key"):
        parse_config(bad_key)


# the one-line form each equivalent layout must reproduce
GRAMMAR = """\
[run]
mode = simulate-full

[system]
n_charger = 2
g_over_delta = 0.1
j_charger_over_delta = 0 0.01; 0.01 0
"""


@pytest.mark.parametrize(
    "text, error",
    [
        (GRAMMAR + "g_over_delta = 0.2\n", r"line 8: \[system\] g_over_delta: repeated key \(first at line 6\)"),
        (GRAMMAR + "\n[run]\n", r"line 9: repeated section \[run\] \(first at line 1\)"),
        ("n_charger = 2\n" + GRAMMAR, r"line 1: key 'n_charger' comes before the first \[section\] header"),
        (GRAMMAR + "fock_cutoff: 2\n", r"line 8: expected \[section\] or key = value, got 'fock_cutoff: 2'"),
        (GRAMMAR.replace("mode = simulate-full", "mode = simulate-full\nverbose"), r"line 3: expected \[section\]"),
        # a blank line ends a continuation, so the second row stands alone
        (GRAMMAR.replace("0.01; 0.01 0", "0.01;\n\n    0.01 0"), r"line 9: expected \[section\] or key = value, got '0.01 0'"),
        (GRAMMAR.replace("0.01; 0.01 0", "0.01;\n    0.01 0  # second row"), None),
        (GRAMMAR.replace("g_over_delta = 0.1", "g_over_delta = 0.1  # the mode coupling"), None),
        (GRAMMAR.replace("[system]", "[ system ]"), None),
    ],
    ids=[
        "repeated-key", "repeated-section", "key-before-header", "colon-delimiter", "bare-word",
        "blank-ends-continuation", "continuation", "inline-comment", "spaced-header",
    ],
)
def test_reader_grammar(text, error):
    if error is not None:
        with pytest.raises(ConfigError, match=error):
            parse_config(text)
        return
    got, want = parse_config(text).system, parse_config(GRAMMAR).system
    for field in dataclasses.fields(SystemConfig):
        assert np.array_equal(getattr(got, field.name), getattr(want, field.name)), field.name


def test_import_does_not_load_configparser():
    code = "import sys, magnon_battery.cli; print('configparser' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_src_env(), timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


_COLD_START = """
import json, os, sys, threading
from concurrent.futures import ThreadPoolExecutor
import numpy as np
import magnon_battery as mb
from magnon_battery import dynamics
from magnon_battery.cli import main

lazy = ("scipy.integrate", "scipy.optimize", "scipy.special", "scipy.sparse.linalg")
codes = [main([preset, "--out", os.devnull]) for preset in ("fig2", "fig5", "fig6")]
loaded = [name for name in lazy if name in sys.modules]

config = mb.SystemConfig.dispersive(3, 2, g_over_delta=0.1, j_over_delta=0.01)
basis = mb.enumerate_sector_basis(3, 2, 3, 3)
h = mb.build_full_hamiltonian(config, basis)
psi0 = mb.charged_initial_state(basis)
times = np.linspace(0.0, 200.0, 201)
start = threading.Barrier(2)

def propagate(_):
    start.wait()  # both threads start together
    return mb.evolve(h, psi0, times).energy

dynamics._DENSE_COST = (0.0, 0.0, 0.0)  # the dense path, free up to DENSE_THRESHOLD states
dense = mb.evolve(h, psi0, times).energy
dynamics.DENSE_THRESHOLD = 0  # the Chebyshev path from here on
with ThreadPoolExecutor(max_workers=2) as pool:
    runs = list(pool.map(propagate, range(2)))
print(json.dumps({
    "codes": codes,
    "loaded": loaded,
    "integrate_loaded": "scipy.integrate" in sys.modules,
    "errors": [float(np.max(np.abs(run - dense))) for run in runs],
}))
"""


def test_cold_start_loads_only_what_a_run_uses():
    # the presets load no lazy scipy module, and no path of evolve loads the
    # integrator: the Chebyshev propagator, here run from two threads at
    # once, needs neither scipy.integrate nor scipy.special
    result = subprocess.run(
        [sys.executable, "-c", _COLD_START], capture_output=True, text=True, env=_src_env(), timeout=120
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0, 0]
    assert report["loaded"] == []
    assert not report["integrate_loaded"]
    assert len(report["errors"]) == 2
    assert max(report["errors"]) <= 1e-8


def test_default_section_rejected():
    with pytest.raises(ConfigError, match="DEFAULT"):
        parse_config("[DEFAULT]\nx = 1\n" + MINIMAL)


def test_unit_families_cannot_mix():
    text = MINIMAL + "omega = 3.0\n"
    with pytest.raises(ConfigError, match="cannot be mixed"):
        parse_config(text)


def test_raw_frequency_family():
    text = """\
[run]
mode = simulate-full

[system]
n_charger = 2
m_battery = 1
g = 0.05
omega = 7.0
omega_m = 7.5
j = 0.01
"""
    spec = parse_config(text)
    assert spec.system.omega_m == 7.5
    assert spec.system.detuning == 0.5
    assert spec.system.g_charger == (0.05, 0.05)
    assert spec.system.j_charger[0, 1] == 0.01
    missing = text.replace("omega_m = 7.5\n", "")
    with pytest.raises(ConfigError, match="omega and omega_m"):
        parse_config(missing)
    # the raw mode frequency may be 0, in [system] as in [noise]
    assert parse_config(text.replace("omega_m = 7.5", "omega_m = 0.0")).system.omega_m == 0.0


def test_coupling_required():
    text = "[run]\nmode = simulate-effective\n\n[system]\nn_charger = 1\nm_battery = 1\n"
    with pytest.raises(ConfigError, match="coupling required"):
        parse_config(text)


def test_per_spin_couplings_and_matrices():
    text = """\
[run]
mode = simulate-full

[system]
n_charger = 2
m_battery = 1
delta = 1.0
g_charger_over_delta = 0.1, 0.2
g_battery_over_delta = 0.15
j_charger_over_delta = 0 0.03; 0.03 0
"""
    spec = parse_config(text)
    assert spec.system.g_charger == (0.1, 0.2)
    assert spec.system.g_battery == (0.15,)
    assert spec.system.j_charger[0, 1] == 0.03


def test_matrix_shape_error():
    text = """\
[run]
mode = simulate-full

[system]
n_charger = 1
m_battery = 1
delta = 1.0
g_over_delta = 0.1
j_charger_over_delta = 0 1; 1 0
"""
    with pytest.raises(ConfigError, match=r"expected a 1x1 symmetric matrix"):
        parse_config(text)


def test_asymmetric_matrix_rejected():
    text = """\
[run]
mode = simulate-full

[system]
n_charger = 2
m_battery = 1
delta = 1.0
g_over_delta = 0.1
j_charger_over_delta = 0 0.1; 0.2 0
"""
    with pytest.raises(ConfigError, match="symmetric"):
        parse_config(text)


_INPUT = "[run]\nmode = simulate-full\n\n[system]\nn_charger = 2\ng_over_delta = 0.1\n"  # 6 lines
_NOISE = "[run]\nmode = qsd\n\n[noise]\ng_over_delta = 0.1\n"  # 5 lines


@pytest.mark.parametrize(
    "text, where, message",
    [
        (_INPUT + "delta = fast\n", "line 7: [system] delta", "cannot parse 'fast' as a number"),
        (_INPUT + "j_over_delta = inf\n", "line 7: [system] j_over_delta", "must be finite"),
        (
            _INPUT.replace("g_over_delta = 0.1", "g_charger_over_delta = 0.1 0.12\ng_battery_over_delta = 0.1"),
            "line 6: [system] g_charger_over_delta",
            "cannot parse '0.1 0.12' as a comma-separated number list",
        ),
        (
            _INPUT.replace("simulate-full", "sweep-nm") + "\n[sweep]\nratios = 1, 2.5\n",
            "line 9: [sweep] ratios",
            "entries must be integers",
        ),
        (
            _INPUT.replace("simulate-full", "sweep-nm") + "\n[sweep]\nratios = 0, 1\n",
            "line 9: [sweep] ratios",
            "entries must be >= 1",
        ),
        (
            _INPUT.replace("simulate-full", "compare") + "\n[sweep]\nmodels = full, exact\n",
            "line 9: [sweep] models",
            "unknown entry 'exact'; allowed: analytic, collective, effective, full",
        ),
        (_INPUT.replace("simulate-full", "compare") + "\n[sweep]\nmodels = ,\n", "line 9: [sweep] models", "list is empty"),
        (
            _INPUT.replace("simulate-full", "sweep-n") + "\n[sweep]\nexchange = zero, half\n",
            "line 9: [sweep] exchange",
            "unknown entry 'half'; allowed: sweet, zero",
        ),
        (_INPUT.replace("simulate-full", "sweep-n") + "\n[sweep]\nexchange = ,\n", "line 9: [sweep] exchange", "list is empty"),
        (
            _INPUT + "j_charger_over_delta = 0 0.1; 0.1 zero\n",
            "line 7: [system] j_charger_over_delta",
            "cannot parse '0 0.1; 0.1 zero' as a matrix (rows split by ';')",
        ),
        (
            _INPUT + "g_charger_over_delta = 0.1, 0.2, 0.3\n",
            "line 7: [system] g_charger_over_delta",
            "expected 2 entries, got 3 in '0.1, 0.2, 0.3'",
        ),
        (_NOISE.replace("g_over_delta", "gamma_over_delta"), "[noise]", "coupling required: set g_over_delta"),
        (
            _NOISE + "\n[sweep]\nj_values_over_delta = 0.01\n",
            "line 8: [sweep] j_values_over_delta",
            "needs a [system] section to supply delta",
        ),
        (
            _INPUT.replace("simulate-full", "simulate"),
            "line 2: [run] mode",
            f"unknown mode 'simulate'; known: {', '.join(experiments.MODES)}",
        ),
        (_NOISE.replace("qsd", "simulate-full"), None, "mode 'simulate-full' requires a [system] section"),
        (
            _INPUT.replace("g_over_delta", "g_charger_over_delta"),
            None,
            "[system]: both registers need couplings; set g_over_delta or both "
            "g_charger_over_delta and g_battery_over_delta",
        ),
        (_NOISE.replace("0.1", "1e300") + "delta = 1e10\n", None, "[noise]: g must be finite, got inf"),
        # a [sweep] key that sets J is refused by the modes that take J elsewhere
        (
            _INPUT.replace("simulate-full", "sweep-n") + "\n[sweep]\nj_values_over_delta = 0.5, 0.7\n",
            "line 9: [sweep] j_values_over_delta",
            "mode 'sweep-n' does not read it; only sweep-j and compare do",
        ),
        (
            _INPUT.replace("simulate-full", "sweep-nm") + "\n[sweep]\nj_values = 0.01\n",
            "line 9: [sweep] j_values",
            "mode 'sweep-nm' does not read it; only sweep-j and compare do",
        ),
        (
            _INPUT.replace("simulate-full", "compare") + "\n[sweep]\nexchange = zero\n",
            "line 9: [sweep] exchange",
            "mode 'compare' does not read it; only sweep-n and sweep-nm do",
        ),
        (
            _INPUT.replace("simulate-full", "sweep-j") + "\n[sweep]\nj_values_over_delta = 0.01\nexchange = sweet\n",
            "line 10: [sweep] exchange",
            "mode 'sweep-j' does not read it; only sweep-n and sweep-nm do",
        ),
        (
            _INPUT + "\n[sweep]\nexchange = zero\n",
            "line 9: [sweep] exchange",
            "mode 'simulate-full' does not read it; only sweep-n and sweep-nm do",
        ),
        (
            _NOISE + "\n[sweep]\nj_values = 0.01\n",
            "line 8: [sweep] j_values",
            "mode 'qsd' does not read it; only sweep-j and compare do",
        ),
    ],
    ids=[
        "number", "non-finite-number", "space-separated-list", "non-integer-entry", "small-entry",
        "unknown-model", "no-model", "unknown-exchange", "no-exchange", "matrix", "vector-length",
        "noise-without-g", "j-values-without-system", "unknown-run-mode", "system-mode-without-system",
        "one-register-coupled", "non-finite-noise-coupling", "sweep-n-j-values", "sweep-nm-j-values",
        "compare-exchange", "sweep-j-exchange", "trajectory-exchange", "qsd-j-values",
    ],
)
def test_config_input_errors(text, where, message):
    # each check of the config text names the key and its line where it has one
    with pytest.raises(ConfigError) as caught:
        parse_config(text)
    assert str(caught.value) == (message if where is None else f"{where}: {message}")


def test_bad_scalar_values():
    with pytest.raises(ConfigError, match="cannot parse 'soon' as an integer"):
        parse_config(MINIMAL.replace("samples = 51", "samples = soon"))
    with pytest.raises(ConfigError, match="must be >= 2"):
        parse_config(MINIMAL.replace("samples = 51", "samples = 1"))
    with pytest.raises(ConfigError, match="must be > 0"):
        parse_config(MINIMAL.replace("samples = 51", "tol = 0.0"))
    # a tol below float64 rounding cannot be met
    for tol in ("1e-100", "1e-16"):
        with pytest.raises(ConfigError, match=r"tol: must be >= 2\.220446049250313e-16"):
            parse_config(MINIMAL.replace("samples = 51", f"tol = {tol}"))
    with pytest.raises(ConfigError, match="must be nonzero"):
        parse_config(MINIMAL + "delta = 0.0\n")
    # the full-model sweep cap and its override key are gone
    with pytest.raises(ConfigError, match="allow_large: unknown key"):
        parse_config(MINIMAL.replace("samples = 51", "allow_large = true"))
    # number lists are checked entry by entry, like scalars
    sweep = "[run]\nmode = sweep-n\n\n[system]\ng_over_delta = 0.1\n\n[sweep]\n"
    with pytest.raises(ConfigError, match=r"line 8: \[sweep\] ratios: .*must be finite"):
        parse_config(sweep + "ratios = inf\n")
    noise = "[run]\nmode = qsd\n\n[noise]\ng_over_delta = 0.1\n"
    with pytest.raises(ConfigError, match=r"line 6: \[noise\] gamma_over_delta: .*must be finite"):
        parse_config(noise + "gamma_over_delta = 0.0, nan\n")
    compare = "[run]\nmode = compare\n\n[system]\ng_over_delta = 0.1\n\n[sweep]\n"
    with pytest.raises(ConfigError, match=r"line 8: \[sweep\] j_values_over_delta: .*finite"):
        parse_config(compare + "j_values_over_delta = 0.0, inf\n")
    # matrix entries too, with the key's line
    matrix = MINIMAL.replace("n_charger = 1", "n_charger = 2") + "j_charger_over_delta = 0 inf; inf 0\n"
    with pytest.raises(ConfigError, match=r"line 9: \[system\] j_charger_over_delta: entries must be finite"):
        parse_config(matrix)


def test_qsd_validation():
    good = """\
[run]
mode = qsd
samples = 21
horizon = 10.0

[noise]
g_over_delta = 0.1
gamma_over_delta = 0.0, 0.02
"""
    spec = parse_config(good)
    assert spec.noise.g == 0.1
    assert spec.gammas == (0.0, 0.02)
    with pytest.raises(ConfigError, match=r"requires a \[noise\] section"):
        parse_config("[run]\nmode = qsd\n")
    with pytest.raises(ConfigError, match=">= 0"):
        parse_config(good.replace("0.0, 0.02", "-0.1"))
    detuned = good.replace("g_over_delta = 0.1\n", "g = 0.1\nomega = 5.0\nomega_m = 5.0\n")
    detuned = detuned.replace("gamma_over_delta = 0.0, 0.02\n", "")
    with pytest.raises(ConfigError, match="detuned"):
        parse_config(detuned)
    with pytest.raises(ConfigError, match=r"line 8: \[noise\] gamma_over_delta: list is empty"):
        parse_config(good.replace("0.0, 0.02", ""))
    # a zero spin splitting is rejected in [noise] as in [system]
    flat = detuned.replace("omega = 5.0\nomega_m = 5.0", "omega = 0.0\nomega_m = 1.0")
    with pytest.raises(ConfigError, match=r"line 8: \[noise\] omega: must be nonzero"):
        parse_config(flat)


def test_sweep_validation():
    base = """\
[run]
mode = sweep-n

[system]
g_over_delta = 0.1

[sweep]
models = full
n_min = 1
n_max = 12
"""
    # full sweeps run on symmetric registers and are not capped
    parse_config(base)
    parse_config(base.replace("n_max = 12", "n_max = 40"))
    with pytest.raises(ConfigError, match="must be >= n_min"):
        parse_config(base.replace("n_min = 1", "n_min = 13"))
    # the collective model runs at any J, like every other model
    parse_config(
        base.replace("models = full", "models = collective\nexchange = zero")
        .replace("n_max = 12", "n_max = 4")
    )
    with pytest.raises(ConfigError, match="j_values"):
        parse_config("[run]\nmode = sweep-j\n\n[system]\ng_over_delta = 0.1\n")
    both = (
        "[run]\nmode = sweep-j\n\n[system]\ng_over_delta = 0.1\n\n"
        "[sweep]\nj_values_over_delta = 0.0\nj_values = 0.0\n"
    )
    with pytest.raises(ConfigError, match="not both"):
        parse_config(both)
    with pytest.raises(ConfigError, match=r"line 8: \[sweep\] j_values_over_delta: list is empty"):
        parse_config(both.replace("= 0.0\nj_values = 0.0\n", "=\n"))
    sweep_j = (
        "[run]\nmode = sweep-j\n\n[system]\nn_charger = 3\nm_battery = 2\ng_over_delta = 0.1\n\n"
        "[sweep]\nmodels = effective, collective\nj_values_over_delta = 0.0, -0.01, 0.02\n"
    )
    compare = (
        "[run]\nmode = compare\n\n[system]\nn_charger = 2\nm_battery = 2\ng_over_delta = 0.1\n\n"
        "[sweep]\nmodels = collective\nj_values_over_delta = 0.0, 0.05\n"
    )
    # points away from the sweet spot J/delta = 0.01 as well as at it
    for text in (
        sweep_j,
        sweep_j.replace("0.0, -0.01, 0.02", "0.01, 0.02"),
        compare,
        compare.replace("0.0, 0.05", "0.01, 0.05"),
        compare.replace("j_values_over_delta = 0.0, 0.05\n", ""),  # J from [system]: 0
    ):
        parse_config(text)
    parse_config(sweep_j.replace("0.0, -0.01, 0.02", "0.01"))
    parse_config(compare.replace("0.0, 0.05", "0.01"))
    parse_config(compare.replace("j_values_over_delta = 0.0, 0.05\n", "").replace(
        "g_over_delta = 0.1\n", "g_over_delta = 0.1\nj_over_delta = 0.01\n"))


def test_uniform_couplings_required_for_reduced_modes():
    text = """\
[run]
mode = analytic

[system]
n_charger = 2
m_battery = 1
delta = 1.0
g_charger_over_delta = 0.1, 0.2
g_battery_over_delta = 0.1
"""
    with pytest.raises(ConfigError, match="uniform"):
        parse_config(text)
    parse_config(text.replace("mode = analytic", "mode = simulate-full"))
    # uniform means exactly equal: couplings one ulp apart are not
    nearly = text.replace("0.1, 0.2", "0.1, 0.1000000000000001")
    with pytest.raises(ConfigError, match="requires uniform couplings"):
        parse_config(nearly)


_SYSTEM = "[system]\nn_charger = 2\nm_battery = 1\ng_over_delta = 0.1\n"

# mode -> (config body, CSV header, data rows)
_MODE_RUNS = {
    # [sweep] models is ignored: simulate-full runs the full model
    "simulate-full": (_SYSTEM + "\n[sweep]\nmodels = effective\n", "t,E_over_omega,P_over_Gomega,norm,n_magnon", 21),
    "simulate-effective": (_SYSTEM, "t,E_over_omega,P_over_Gomega,norm,n_magnon", 21),
    "collective": (_SYSTEM, "t,E_over_omega,P_over_Gomega,norm,n_magnon", 21),
    "analytic": (_SYSTEM, "t,E_over_omega,P_over_Gomega,norm,n_magnon", 21),
    "qsd": ("[noise]\ng_over_delta = 0.1\n", "t,Re_F,Im_F,E_over_omega", 21),
    "sweep-n": (_SYSTEM + "\n[sweep]\nn_max = 2\n", SWEEP_HEADER, 2),
    "sweep-nm": (_SYSTEM + "\n[sweep]\nratios = 1\nm_max = 1\n", SWEEP_HEADER, 1),
    "sweep-j": (
        _SYSTEM + "\n[sweep]\nmodels = effective, collective\nj_values_over_delta = 0.01\n",
        SWEEP_HEADER,
        2,
    ),
    "compare": (_SYSTEM, "model,j_over_delta,t,E_over_omega,P_over_Gomega", 42),
}


@pytest.mark.parametrize("mode", experiments.MODES)
def test_every_mode_runs_end_to_end(mode):
    body, header, n_rows = _MODE_RUNS[mode]
    text = f"[run]\nmode = {mode}\nsamples = 21\nhorizon = 50.0\n\n{body}"
    lines = [line for line in run_experiment(parse_config(text)).splitlines() if not line.startswith("#")]
    assert lines[0] == header
    assert len(lines) == 1 + n_rows
    if mode == "simulate-full":
        assert max(float(line.split(",")[4]) for line in lines[1:]) > 1e-4


def test_collective_mode_runs_the_config_exchange():
    # the collective mode is the effective model on the class sector of any
    # config, at the config's J
    for couplings in (
        "g_over_delta = 0.1",
        "g_charger_over_delta = 0.1, 0.12, 0.1\ng_battery_over_delta = 0.1",
    ):
        text = f"""\
[run]
mode = collective
samples = 201

[system]
n_charger = 3
m_battery = 2
{couplings}
j_over_delta = 0.05
"""
        collective = np.array(_table(run_experiment(parse_config(text))), dtype=float)
        effective = np.array(
            _table(run_experiment(parse_config(text.replace("collective", "simulate-effective")))),
            dtype=float,
        )
        assert np.array_equal(collective[:, 0], effective[:, 0])
        assert np.max(np.abs(collective[:, 1] - effective[:, 1])) <= 1e-10, couplings
        sweet = np.array(
            _table(run_experiment(parse_config(text.replace("0.05", "0.01")))), dtype=float
        )
        assert np.max(np.abs(sweet[:, 1] - collective[:, 1])) > 1e-3, couplings


def test_trajectory_csv_schema():
    text = run_experiment(parse_config(MINIMAL))
    lines = text.splitlines()
    assert lines[0].startswith("# magnon-battery ")
    assert lines[1] == "# mode = simulate-effective"
    assert lines[2] == "# config:"
    echo = [line for line in lines if line.startswith("#")]
    assert "# [system]" in echo
    header_idx = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    assert lines[header_idx] == "t,E_over_omega,P_over_Gomega,norm,n_magnon"
    data = lines[header_idx + 1:]
    assert len(data) == 51
    first = data[0].split(",")
    assert float(first[0]) == 0.0
    assert abs(float(first[1])) < 1e-12  # eigendecomposition residual at t=0
    assert float(first[2]) == 0.0  # power is pinned to zero at t=0
    # effective model carries no mode: the magnon column reads zero
    assert all(row.split(",")[4] == "0.0" for row in data)


def test_full_model_populates_magnon_column():
    text = run_experiment(parse_config(MINIMAL.replace("simulate-effective", "simulate-full")))
    rows = [line for line in text.splitlines() if not line.startswith("#")][1:]
    magnon = np.array([float(r.split(",")[4]) for r in rows])
    assert magnon.max() > 1e-4


def test_compare_schema_and_default_j():
    text = run_experiment(parse_config(
        MINIMAL.replace("simulate-effective", "compare")))
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    assert lines[0] == "model,j_over_delta,t,E_over_omega,P_over_Gomega"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 2 * 51  # (full, effective) x samples, J defaults to 0
    assert {r[0] for r in rows} == {"full", "effective"}
    assert {r[1] for r in rows} == {"0.0"}


def _table(text):
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return [line.split(",") for line in lines[1:]]


@pytest.mark.parametrize(
    "n, m, j, error",
    [
        (3, 1, 0.01, None),
        (2, 2, 0.01, None),
        (3, 1, 0.0, r"no closed form for n_charger=3 away from the sweet spot \(need exchange = 0\.01"),
        (2, 2, 0.0, r"the two-to-two closed form needs both registers at the sweet spot \(exchange = 0\.01"),
        (3, 2, 0.01, r"no closed form for n_charger=3, m_battery=2$"),
    ],
    ids=["3+1", "2+2", "3+1-at-J=0", "2+2-at-J=0", "3+2"],
)
def test_analytic_closed_forms_beyond_one_to_one(n, m, j, error):
    # at J = -G (j_over_delta = 0.01) the N->1 and 2->2 closed forms are the
    # effective model's E(t); away from it, or at another size, there is none
    text = f"""\
[run]
mode = compare

[system]
n_charger = {n}
m_battery = {m}
g_over_delta = 0.1
j_over_delta = {j}

[sweep]
models = analytic, effective
"""
    if error is not None:
        with pytest.raises(ConfigError, match=error):
            run_experiment(parse_config(text.replace("compare", "analytic")))
        return
    rows = _table(run_experiment(parse_config(text)))
    closed, model = (np.array([r[2:] for r in rows if r[0] == name], dtype=float) for name in ("analytic", "effective"))
    assert len(closed) == len(model) > 100
    assert np.max(np.abs(closed - model)) <= 1e-12


def _per_spin_full(config, times):
    n = config.n_charger
    basis = enumerate_sector_basis(n, config.m_battery, n, n)
    return evolve(build_full_hamiltonian(config, basis), charged_initial_state(basis), times)


def _record_dims(monkeypatch):
    dims = []

    def recording(h, *args, **kwargs):
        dims.append(h.dimension)
        return evolve(h, *args, **kwargs)

    monkeypatch.setattr(experiments, "evolve", recording)
    return dims


@pytest.mark.parametrize("n, m", [(2, 2), (3, 2), (4, 3)])
def test_full_runs_on_symmetric_registers(monkeypatch, n, m):
    # simulate-full and compare take the register sector for configs
    # uniform within each register; E(t) is the per-spin model's
    dims = _record_dims(monkeypatch)
    text = f"""\
[run]
mode = simulate-full
samples = 201

[system]
n_charger = {n}
m_battery = {m}
g_charger_over_delta = 0.1
g_battery_over_delta = 0.13
j_charger_over_delta = 0.02
j_battery_over_delta = -0.03
"""
    spec = parse_config(text)
    rows = np.array(_table(run_experiment(spec)), dtype=float)
    want = _per_spin_full(spec.system, rows[:, 0])
    assert np.max(np.abs(rows[:, 1] - want.energy)) <= 1e-10
    assert np.max(np.abs(rows[:, 3] - want.norm)) <= 1e-10
    assert np.max(np.abs(rows[:, 4] - want.magnon)) <= 1e-10
    compare = f"""\
[run]
mode = compare
samples = 201

[system]
n_charger = {n}
m_battery = {m}
g_over_delta = 0.1

[sweep]
models = full
j_values_over_delta = 0.0, 0.01, 0.05
"""
    spec = parse_config(compare)
    rows = _table(run_experiment(spec))
    for j in spec.j_values:
        block = np.array([r[2:4] for r in rows if float(r[1]) == j], dtype=float)
        config = replace(spec.system, j_charger=j, j_battery=j)
        want = _per_spin_full(config, block[:, 0])
        assert np.max(np.abs(block[:, 1] - want.energy)) <= 1e-10
    assert len(dims) == 4 and max(dims) <= (n + 1) * (m + 1)


def test_full_runs_on_mixed_classes(monkeypatch):
    # couplings equal only in part: the charger spins 0 and 2 form one class
    # (not contiguous), as do the battery spins 0 and 2; simulate-full runs
    # on the four class registers and matches the per-spin model
    dims = _record_dims(monkeypatch)
    text = """\
[run]
mode = simulate-full
samples = 201

[system]
n_charger = 3
m_battery = 3
g_charger_over_delta = 0.1, 0.12, 0.1
g_battery_over_delta = 0.1
j_charger_over_delta = 0 0.01 0.03; 0.01 0 0.01; 0.03 0.01 0
j_battery_over_delta = 0 0.01 0.02; 0.01 0 0.01; 0.02 0.01 0
"""
    spec = parse_config(text)
    assert spec.system._classes == ((0, 2), (1,), (3, 5), (4,))
    rows = np.array(_table(run_experiment(spec)), dtype=float)
    want = _per_spin_full(spec.system, rows[:, 0])
    assert np.max(np.abs(rows[:, 1] - want.energy)) <= 1e-10
    assert np.max(np.abs(rows[:, 3] - want.norm)) <= 1e-10
    assert np.max(np.abs(rows[:, 4] - want.magnon)) <= 1e-10
    assert len(dims) == 1 and dims[0] < enumerate_sector_basis(3, 3, 3, 3).dimension


def test_full_sweep_beyond_forty_spins(monkeypatch):
    # every sweep point is uniform, so N + M = 40 runs on symmetric registers
    dims = _record_dims(monkeypatch)

    def per_spin(*args):
        raise AssertionError("a uniform sweep point took the per-spin basis")

    monkeypatch.setattr(experiments, "enumerate_sector_basis", per_spin)
    text = """\
[run]
mode = sweep-n
samples = 401

[system]
m_battery = 3
g_over_delta = 0.1

[sweep]
models = full
exchange = zero, sweet
n_min = 37
n_max = 37
"""
    start = time.perf_counter()
    rows = sweep_metrics(parse_config(text))
    elapsed = time.perf_counter() - start
    assert elapsed <= 5.0, f"full 37+3 sweep took {elapsed:.2f} s"
    assert dims == [146, 146] and max(dims) <= 38 * 4
    assert all(0.0 < row.e_max <= 3.0 for row in rows)


def test_sweep_honours_fock_cutoff():
    text = """\
[run]
mode = sweep-n
samples = 401

[system]
m_battery = 1
g_over_delta = 0.1
fock_cutoff = 1

[sweep]
models = full
exchange = zero
n_min = 3
n_max = 3
"""
    spec = parse_config(text)
    (row,) = sweep_metrics(spec)
    (exact,) = sweep_metrics(replace(spec, system=replace(spec.system, fock_cutoff=None)))
    config = SystemConfig.dispersive(3, 1, g_over_delta=0.1, fock_cutoff=1)
    horizon = charging_horizon(3, 1, effective_couplings(config).uniform_value())
    basis = enumerate_sector_basis(3, 1, 1, 3)  # at most one magnon
    truncated = evolve(
        build_full_hamiltonian(config, basis), charged_initial_state(basis),
        np.linspace(0.0, horizon, spec.samples),
    )
    assert row.e_max == pytest.approx(charging_metrics(truncated).e_max, abs=1e-9)
    assert abs(row.e_max - exact.e_max) > 1e-5


def test_qsd_schema_gamma_column_only_when_swept():
    single = """\
[run]
mode = qsd
samples = 11
horizon = 5.0

[noise]
g_over_delta = 0.1
"""
    text = run_experiment(parse_config(single))
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    assert lines[0] == "t,Re_F,Im_F,E_over_omega"
    swept = single + "gamma_over_delta = 0.0, 0.02\n"
    text2 = run_experiment(parse_config(swept))
    lines2 = [line for line in text2.splitlines() if not line.startswith("#")]
    assert lines2[0] == "gamma_over_delta,t,Re_F,Im_F,E_over_omega"
    assert len(lines2) == 1 + 2 * 11


def test_sweep_rows_and_metrics():
    text = """\
[run]
mode = sweep-n
samples = 2001

[system]
g_over_delta = 0.1

[sweep]
models = effective
exchange = zero, sweet
n_min = 1
n_max = 3
"""
    spec = parse_config(text)
    rows = sweep_metrics(spec)
    assert [(r.model, r.n_charger) for r in rows] == [
        ("effective", 1), ("effective", 2), ("effective", 3),
        ("effective", 1), ("effective", 2), ("effective", 3),
    ]
    # the sweet-spot rows carry J = -G = g^2/|delta| up to rounding
    assert [r.j_over_delta for r in rows] == pytest.approx(
        [0.0, 0.0, 0.0, 0.01, 0.01, 0.01], abs=1e-15)
    by_key = {(r.n_charger, round(r.j_over_delta, 12)): r for r in rows}
    # uncancelled intra-register coupling caps the transfer at 4N/(N+1)^2
    for n in (1, 2, 3):
        assert by_key[(n, 0.0)].e_max == pytest.approx(4 * n / (n + 1) ** 2, abs=1e-4)
        assert by_key[(n, 0.01)].e_max == pytest.approx(1.0, abs=1e-6)
        assert by_key[(n, 0.01)].tau == pytest.approx(math.pi / (2 * math.sqrt(n)), abs=1e-4)
    csv = run_experiment(spec)
    lines = [line for line in csv.splitlines() if not line.startswith("#")]
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 1 + len(rows)


def test_sweep_nm_grid_order():
    text = """\
[run]
mode = sweep-nm
samples = 501

[system]
g_over_delta = 0.1

[sweep]
models = collective
ratios = 1, 2
m_max = 2
"""
    rows = sweep_metrics(parse_config(text))
    assert [(r.n_charger, r.m_battery) for r in rows] == [(1, 1), (2, 2), (2, 1), (4, 2)]
    # [sweep] exchange sets J: zero leaves the 2->1 induced coupling uncancelled
    zero = text.replace("models = collective", "models = effective\nexchange = zero")
    (row,) = sweep_metrics(parse_config(zero.replace("1, 2", "2").replace("m_max = 2", "m_max = 1")))
    assert (row.n_charger, row.m_battery, row.j_over_delta) == (2, 1, 0.0)
    assert row.e_max == pytest.approx(8 / 9, abs=1e-3)


def test_byte_identical_reruns_and_thread_independence():
    spec = parse_config(MINIMAL.replace("simulate-effective", "compare"))
    first = run_experiment(spec)
    second = run_experiment(spec)
    assert first == second
    import dataclasses

    threaded = dataclasses.replace(spec, threads=4)
    assert run_experiment(threaded) == first


def test_run_experiment_writes_file(tmp_path):
    target = tmp_path / "out.csv"
    text = run_experiment(parse_config(MINIMAL), out=str(target))
    assert target.read_text() == text


# ---------------------------------------------------------------------------
# command-line entry


def test_cli_preset_to_file(tmp_path, capsys):
    target = tmp_path / "fig2.csv"
    assert main(["fig2", "--out", str(target)]) == 0
    body = target.read_text()
    assert body.startswith("# magnon-battery ")
    assert "# mode = compare" in body
    assert capsys.readouterr().out == ""


def test_cli_stdout_when_no_out(tmp_path, capsys):
    path = tmp_path / "traj.ini"
    path.write_text(MINIMAL.replace("simulate-effective", "analytic"))
    assert main(["analytic", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# magnon-battery ")
    assert "t,E_over_omega" in out


def test_cli_config_errors_exit_1(tmp_path, capsys):
    assert main(["no-such-thing"]) == 1
    assert "unknown target" in capsys.readouterr().err
    assert main(["simulate-full"]) == 1
    assert "requires --config" in capsys.readouterr().err
    assert main(["fig2", "--config", "x.ini"]) == 1
    assert "does not take --config" in capsys.readouterr().err
    assert main(["simulate-full", "--config", str(tmp_path / "missing.ini")]) == 1
    assert "cannot read config" in capsys.readouterr().err
    assert main(["fig2", "--out", str(tmp_path / "no" / "such" / "fig2.csv")]) == 1
    assert "cannot write output" in capsys.readouterr().err
    bad = tmp_path / "bad.ini"
    bad.write_text("[system]\nnonsense = 1\n")
    assert main(["simulate-full", "--config", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err
    cfg = tmp_path / "ok.ini"
    cfg.write_text(MINIMAL)
    assert main(["simulate-effective", "--config", str(cfg), "--threads", "0"]) == 1
    assert "--threads" in capsys.readouterr().err
    assert main(["simulate-effective", "--config", str(cfg), "--tol", "-1"]) == 1
    assert "--tol" in capsys.readouterr().err
    # like [run] tol, the command-line tolerance must be finite
    assert main(["simulate-effective", "--config", str(cfg), "--tol", "inf"]) == 1
    assert "--tol must be finite" in capsys.readouterr().err
    # and no finer than float64 rounding
    assert main(["simulate-effective", "--config", str(cfg), "--tol", "1e-100"]) == 1
    assert "--tol must be finite and >= 2.220446049250313e-16" in capsys.readouterr().err


_WALK_SWEEP = """\
[run]
mode = sweep-n
{tol}
[system]
m_battery = 3
g_over_delta = 0.1
omega_over_delta = 10.0

[sweep]
models = effective
exchange = zero, sweet
n_min = 7
n_max = 7
"""


def test_cli_tol_is_the_run_tol(tmp_path):
    # the effective N = 7, M = 3 points (dim 120) take the Chebyshev walk,
    # whose step and order follow tol: --tol 1e-12 writes the body that
    # [run] tol = 1e-12 writes, and not the default tol's
    bodies = {}
    for name, tol, args in [("default", "", []), ("cli", "", ["--tol", "1e-12"]), ("run", "tol = 1e-12\n", [])]:
        path, out = tmp_path / f"{name}.ini", tmp_path / f"{name}.csv"
        path.write_text(_WALK_SWEEP.format(tol=tol))
        assert main(["sweep-n", "--config", str(path), "--out", str(out)] + args) == 0
        bodies[name] = _table(out.read_text())
    assert len(bodies["cli"]) == 2
    assert bodies["cli"] == bodies["run"] != bodies["default"]


@pytest.mark.parametrize(
    "mode, extra, key, line",
    [
        ("simulate-effective", "", "g_over_delta", 6),
        ("sweep-n", "\n[sweep]\nn_max = 2\n", "g_over_delta", 6),
        ("simulate-effective", "", "g_battery_over_delta", 7),
    ],
    ids=["simulate-effective", "sweep-n", "battery-register"],
)
def test_cli_zero_coupling_exits_1(tmp_path, capsys, mode, extra, key, line):
    # the coupling sets the default horizon and, set or not, the power unit
    for horizon in ("", "horizon = 1.0\n"):
        system = "g_over_delta = 0.0\n" if key == "g_over_delta" else "g_over_delta = 0.1\n" + key + " = 0.0\n"
        path = tmp_path / "zero.ini"
        path.write_text(f"[run]\nmode = {mode}\nsamples = 11\n{horizon}\n[system]\n{system}{extra}")
        assert main([mode, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"line {line + bool(horizon)}: [system] {key}: must be nonzero" in err, err


@pytest.mark.parametrize(
    "mode, section, key, line",
    [
        ("simulate-effective", "[system]\ng_over_delta = 1e-200\n", "g_over_delta", 6),
        ("simulate-effective", "[system]\ng_over_delta = 1e-160\n", "g_over_delta", 6),
        ("simulate-effective", "[system]\ng_over_delta = 0.1\ng_battery_over_delta = 1e-310\n",
         "g_battery_over_delta", 7),
        ("qsd", "[noise]\ng_over_delta = 1e-200\n", "g_over_delta", 6),
        ("qsd", "[noise]\ng = 1e-160\nomega = 10.0\nomega_m = 11.0\n", "g", 6),
        ("simulate-effective", "[system]\ng = 1e200\nomega = 10.0\nomega_m = 11.0\n", "g", 6),
        ("qsd", "[noise]\ng = 1e200\nomega = 10.0\nomega_m = 11.0\n", "g", 6),
    ],
    ids=[
        "system-zero", "system-subnormal", "battery-subnormal", "noise-zero", "noise-raw-subnormal",
        "system-raw-overflow", "noise-raw-overflow",
    ],
)
def test_cli_underflowing_coupling_exits_1(tmp_path, capsys, mode, section, key, line):
    # G = g g'/(omega - omega_m) that underflows to 0, or whose inverse
    # overflows, leaves no time or power unit: a config error at its line;
    # so does a G that overflows, without a numpy warning or a traceback
    name = section[1:].split("]")[0]
    path = tmp_path / "tiny.ini"
    path.write_text(f"[run]\nmode = {mode}\nsamples = 11\n\n{section}")
    assert main([mode, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"line {line}: [{name}] {key}: must be nonzero" in err, err


@pytest.mark.parametrize(
    "mode, run, section, key",
    [
        ("simulate-effective", "", "[system]\ng_over_delta = 1e-154\n", "horizon"),
        ("simulate-full", "", "[system]\nn_charger = 2\nm_battery = 1\ng_over_delta = 1e-154\n", "horizon"),
        ("sweep-n", "", "[system]\ng_over_delta = 1e-154\n\n[sweep]\nn_max = 2\n", "horizon"),
        ("simulate-effective", "horizon_factor = 1e308\n", "[system]\ng_over_delta = 0.1\n", "horizon_factor"),
        ("qsd", "", "[noise]\ng_over_delta = 1e-154\n", "horizon"),
        ("qsd", "horizon_factor = 1e308\n", "[noise]\ng_over_delta = 0.1\n", "horizon_factor"),
    ],
    ids=["effective", "full", "sweep-n", "factor", "qsd", "qsd-factor"],
)
def test_cli_overflowing_default_horizon_exits_1(tmp_path, capsys, mode, run, section, key):
    # |G| = 1e-308 has a finite inverse, but the default horizon, a multiple
    # of 1/|G|, overflows to a grid of NaNs: a config error that points to
    # [run] horizon, and a set horizon is the way out
    path = tmp_path / "far.ini"
    path.write_text(f"[run]\nmode = {mode}\nsamples = 11\n{run}\n{section}")
    assert main([mode, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"[run] {key}: the default horizon" in err and "set [run] horizon" in err, err
    if run:
        assert "line 4: [run] horizon_factor" in err, err
    path.write_text(f"[run]\nmode = {mode}\nsamples = 11\nhorizon = 1.0\n\n{section}")
    assert main([mode, "--config", str(path), "--out", str(tmp_path / "far.csv")]) == 0


@pytest.mark.parametrize(
    "mode", ["simulate-full", "simulate-effective", "collective", "analytic", "compare", "qsd"]
)
def test_default_horizon_is_horizon_factor_charging_periods(mode):
    # one rule for every mode: with [run] horizon unset the grid ends at
    # horizon_factor * pi / (sqrt(max(N, M)) |G|); qsd's chain has N = M = 1
    # and |G| = g^2/|delta|, and keeps its default factor of 2.5
    if mode == "qsd":
        section, period = "[noise]\ng_over_delta = 0.1\ndelta = 2.0\n", math.pi * 2.0 / 0.2**2
    else:
        section = "[system]\nn_charger = 2\nm_battery = 1\ng_over_delta = 0.1\ndelta = 2.0\n"
        period = math.pi * 2.0 / (math.sqrt(2) * 0.2**2)
    for run, factor in (("horizon_factor = 1.0\n", 1.0), ("", 2.5 if mode == "qsd" else 1.2)):
        text = run_experiment(parse_config(f"[run]\nmode = {mode}\nsamples = 11\n{run}\n{section}"))
        header = next(line for line in text.splitlines() if not line.startswith("#")).split(",")
        last = float(_table(text)[-1][header.index("t")])
        assert last == pytest.approx(factor * period, rel=1e-12), (run, last)


def test_noise_rate_scales_by_the_magnitude_of_delta():
    # delta -> -delta flips the sign of the mode detuning and of g; the
    # noise strength is a rate, so it stays positive and E(t) stays the same
    text = """\
[run]
mode = qsd
samples = 201
horizon = 300.0

[noise]
g_over_delta = 0.1
delta = {delta}
gamma_over_delta = 0.0, 0.02
"""
    up, down = (
        np.array(_table(run_experiment(parse_config(text.format(delta=d)))), dtype=float)
        for d in ("1.0", "-1.0")
    )
    assert np.array_equal(up[:, [0, 1, 2, 4]], down[:, [0, 1, 2, 4]])
    assert np.array_equal(up[:, 3], -down[:, 3])
    assert np.any(up[:, 3] != 0.0)


def test_cli_numerical_failure_exits_2(tmp_path, capsys):
    runaway = tmp_path / "runaway.ini"
    runaway.write_text(
        "[run]\nmode = qsd\nhorizon = 5.0\nsamples = 51\n\n"
        "[noise]\ng = 1.0\nomega = 1.0\nomega_m = 1.000001\n"
    )
    assert main(["qsd", "--config", str(runaway)]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "RiccatiBlowupError" in err


def test_cli_unreachable_horizon_exits_2(tmp_path, capsys):
    # a per-spin 6+6 sector (2,510 states) takes the Chebyshev path, and no
    # step that float64 times resolve crosses 1e300 in a finite walk
    spread = "0.10, 0.11, 0.12, 0.13, 0.14, 0.15"
    path = tmp_path / "huge.ini"
    path.write_text(
        "[run]\nmode = simulate-full\nsamples = 3\nhorizon = 1e300\n\n[system]\n"
        f"n_charger = 6\nm_battery = 6\ng_charger_over_delta = {spread}\ng_battery_over_delta = {spread}\n"
    )
    assert main(["simulate-full", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "numerical failure: FloatingPointError" in err
    assert "out of reach in float64" in err


@pytest.mark.parametrize("error", [TypeError, NotImplementedError, RecursionError])
def test_cli_bug_is_not_a_numerical_failure(monkeypatch, capsys, error):
    # the last two are RuntimeErrors, which are not numerical failures either
    import magnon_battery.cli as cli

    def broken(spec, out=None):
        raise error("unsupported operand")

    monkeypatch.setattr(cli, "run_experiment", broken)
    with pytest.raises(error, match="unsupported operand"):
        main(["fig2"])
    assert "numerical failure" not in capsys.readouterr().err


def _src_env() -> dict:
    """The environment with this checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_python_m_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "magnon_battery", "--help"],
        capture_output=True,
        text=True,
        env=_src_env(),
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert "magnon-battery" in result.stdout


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("magnon-battery ")
