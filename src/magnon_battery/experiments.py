"""Experiment orchestration: config parsing, presets, sweeps, CSV emission.

Configs are flat INI-style key-value text with one section per concern
([run], [system], [noise], [sweep]), read in one pass that keeps each
key's line, so every error names its line.  ``_units`` gives [system]
and [noise] one rule: frequencies in units of the detuning via
``*_over_delta`` keys (``delta`` setting the scale) or raw (``g``,
``omega``, ``omega_m``), never both in one section.  The charger-battery
coupling G must be nonzero with a finite 1/|G| (``_check_induced``),
since it sets every time and power unit.

Named presets expand to ordinary config texts, so a preset run and a
hand-written config follow the same code path and the CSV header can
echo the exact configuration either way.  Output is deterministic:
identical config text produces byte-identical CSV.

One run plan serves every mode.  ``_points`` lists the (model, J,
config) of each trajectory of compare and the sweeps, in grid order:
model, then J, then size.  Every time grid ends at ``_horizon``: [run]
horizon, else ``charging_horizon`` at the point's N and M and the
run's |G| (``_unit``), which for qsd is g^2/|delta| of the noisy chain
at N = M = 1.  Energy columns are in units of the spin splitting, power in
units of splitting x |G| and sweep times in units of 1/|G|.

Every mode is one row of the table ``_MODES``: its runner, its model (a
trajectory mode) or default models (a sweep or compare), whether it
needs couplings uniform over every spin (the closed forms, the sweeps
and compare, which read one induced coupling G or one J), the physics
section it reads and the [sweep] keys it reads; a config that sets any
other [sweep] key or physics section is refused, and so is a [system] J
where the [sweep] grid sets J.  The rows are the one list of the [sweep]
keys and of the models a [sweep] may name.  A runner returns the
CSV columns and a list of blocks; a block is a tuple of cells, a str
cell repeating down the block and an array cell giving one float per
row.  ``_csv_rows`` alone formats floats, as the repr of a Python float.

A trajectory model is a builder, a layout and a cutoff.  ``full`` is
the full model and ``collective`` the dispersive model at cutoff 0,
both on one symmetric register per symmetry class of the config
(``SystemConfig._classes``): one per side for a uniform config, one per
spin for a fully disordered one, and anything in between for partly
equal couplings.  ``effective`` is the dispersive model per spin.  Like
every model, each runs at the J it is given.
"""

from __future__ import annotations

import io
import math
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from importlib import metadata

import numpy as np

from .config import SystemConfig
from .dynamics import _MIN_TOL, Trajectory, _power, charging_horizon, charging_metrics, evolve
from .effective import build_effective_hamiltonian, effective_couplings
from .hilbert import (
    _sector,
    build_full_hamiltonian,
    charged_initial_state,
    enumerate_sector_basis,
)
from .analytic import e_n_one, e_one_one, e_two_one, e_two_two
from .qsd import QsdParams, solve_calF

__all__ = [
    "ConfigError",
    "ExperimentSpec",
    "SweepRow",
    "PRESETS",
    "parse_config",
    "run_experiment",
    "sweep_metrics",
]

try:
    TOOL_VERSION = metadata.version("magnon-battery")
except metadata.PackageNotFoundError:  # running from a bare checkout
    TOOL_VERSION = "0.0.0"

# the coupling keys of [system], each in both unit families (see _units)
_COUPLINGS = ("g", "g_charger", "g_battery", "j", "j_charger", "j_battery")

# the keys of each section; [sweep] follows after _MODES, whose rows name its keys
_KNOWN_KEYS = {
    "run": {
        "mode",
        "horizon",
        "horizon_factor",
        "samples",
        "out",
        "threads",
        "tol",
    },
    "system": {
        "n_charger",
        "m_battery",
        "fock_cutoff",
        "delta",
        "omega_over_delta",
        "omega",
        "omega_m",
        *(q + unit for q in _COUPLINGS for unit in ("", "_over_delta")),
    },
    "noise": {
        "delta",
        "g_over_delta",
        "omega_over_delta",
        "gamma_over_delta",
        "g",
        "omega",
        "omega_m",
        "gamma_noise",
    },
}

_RAW_FREQ_KEYS = {*_COUPLINGS, "omega", "omega_m", "gamma_noise"}
# a comment starts at '#' at the start of a line or after whitespace
_COMMENT = re.compile(r"(?:^|\s)#")


class ConfigError(ValueError):
    """Malformed, contradictory, or incomplete experiment configuration."""


@dataclass(frozen=True)
class ExperimentSpec:
    """A fully validated experiment: mode, physics, grid, and output plan."""

    mode: str
    text: str
    system: SystemConfig | None
    noise: QsdParams | None
    gammas: tuple[float, ...]
    horizon: float | None
    horizon_factor: float
    samples: int
    out: str | None
    threads: int
    tol: float
    models: tuple[str, ...]
    exchanges: tuple[str, ...]
    j_values: tuple[float, ...] | None
    n_range: tuple[int, int]
    ratios: tuple[int, ...]
    m_max: int


@dataclass(frozen=True)
class SweepRow:
    """One grid point of a metrics sweep.

    e_max is in units of the spin splitting, tau in units of the
    inverse induced coupling, p_tau and p_max in units of
    (splitting x induced coupling).
    """

    model: str
    n_charger: int
    m_battery: int
    j_over_delta: float
    e_max: float
    tau: float
    p_tau: float
    p_max: float


# ---------------------------------------------------------------------------
# presets


PRESETS: dict[str, str] = {
    # one-to-one charging over a full oscillation: exact model vs
    # mode-eliminated model
    "fig2": """\
[run]
mode = compare
samples = 2001
horizon_factor = 1.0

[system]
n_charger = 1
m_battery = 1
g_over_delta = 0.1
omega_over_delta = 10.0
delta = 1.0

[sweep]
models = full, effective
""",
    # two chargers, one battery: direct exchange from none to dominant
    "fig3": """\
[run]
mode = compare
samples = 2001
horizon = 500.0

[system]
n_charger = 2
m_battery = 1
g_over_delta = 0.1
omega_over_delta = 10.0
delta = 1.0

[sweep]
models = full, effective
j_values_over_delta = 0.0, 0.01, 0.1
""",
    # charger-count scan of single-battery metrics, with the induced
    # intra-register coupling either left alone or cancelled
    "fig4": """\
[run]
mode = sweep-n
samples = 4001

[system]
n_charger = 1
m_battery = 1
g_over_delta = 0.1
omega_over_delta = 10.0
delta = 1.0

[sweep]
models = effective
exchange = zero, sweet
n_min = 1
n_max = 10
""",
    # collective-spin scaling: charger/battery ratios over battery size;
    # the long horizon captures revival peaks, not just the first rise
    "fig5": """\
[run]
mode = sweep-nm
samples = 20001
horizon_factor = 20.0

[system]
g_over_delta = 0.1
omega_over_delta = 10.0
delta = 1.0

[sweep]
models = collective
exchange = sweet
ratios = 1, 2, 5
m_max = 6
""",
    # noisy-mode charging at several noise strengths
    "fig6": """\
[run]
mode = qsd
samples = 4001
horizon = 800.0

[noise]
g_over_delta = 0.1
omega_over_delta = 10.0
delta = 1.0
gamma_over_delta = 0.0, 0.002, 0.02, 0.2
""",
}


# ---------------------------------------------------------------------------
# config parsing


class _Section:
    """One config section: each key's value and line, typed access, line-numbered errors."""

    def __init__(self, name: str):
        self.name = name
        self.data: dict[str, str] = {}
        self.lines: dict[str, int] = {}

    def __contains__(self, key: str) -> bool:
        return key in self.data

    def fail(self, key: str, message: str):
        line = self.lines.get(key)
        where = f"line {line}: " if line else ""
        raise ConfigError(f"{where}[{self.name}] {key}: {message}")

    def missing(self, message: str):
        raise ConfigError(f"[{self.name}]: {message}")

    def get_str(self, key: str, default: str | None = None) -> str | None:
        return self.data.get(key, default)

    def get_float(self, key, default=None, *, positive=False, nonzero=False, minimum=-math.inf):
        if key not in self.data:
            return default
        raw = self.data[key]
        try:
            value = float(raw)
        except ValueError:
            self.fail(key, f"cannot parse {raw!r} as a number")
        if not math.isfinite(value):
            self.fail(key, "must be finite")
        if positive and not value > 0.0:
            self.fail(key, "must be > 0")
        if value < minimum:
            self.fail(key, f"must be >= {minimum!r}")
        if nonzero and value == 0.0:
            self.fail(key, "must be nonzero")
        return value

    def get_int(self, key, default=None, *, minimum=None):
        if key not in self.data:
            return default
        raw = self.data[key]
        try:
            value = int(raw)
        except ValueError:
            self.fail(key, f"cannot parse {raw!r} as an integer")
        if minimum is not None and value < minimum:
            self.fail(key, f"must be >= {minimum}")
        return value

    def get_float_list(self, key, default=None):
        if key not in self.data:
            return default
        parts = [p.strip() for p in self.data[key].split(",")]
        try:
            values = tuple(float(p) for p in parts if p)
        except ValueError:
            self.fail(key, f"cannot parse {self.data[key]!r} as a comma-separated number list")
        if not all(map(math.isfinite, values)):
            self.fail(key, "entries must be finite")
        if not values:
            self.fail(key, "list is empty")
        return values

    def get_int_list(self, key, default=None, *, minimum=None):
        values = self.get_float_list(key, None)
        if values is None:
            return default
        out = []
        for v in values:
            if v != int(v):
                self.fail(key, "entries must be integers")
            if minimum is not None and v < minimum:
                self.fail(key, f"entries must be >= {minimum}")
            out.append(int(v))
        return tuple(out)

    def get_str_list(self, key, allowed, default=None):
        if key not in self.data:
            return default
        parts = tuple(p.strip() for p in self.data[key].split(",") if p.strip())
        for p in parts:
            if p not in allowed:
                self.fail(key, f"unknown entry {p!r}; allowed: {', '.join(sorted(allowed))}")
        if not parts:
            self.fail(key, "list is empty")
        return parts

    def get_matrix(self, key, size: int, scale: float):
        """Scalar or ';'-row matrix value, scaled; validates the shape."""
        raw = self.data[key]
        if ";" not in raw and "," not in raw and len(raw.split()) == 1:
            return self.get_float(key) * scale
        rows = [r for r in raw.split(";") if r.strip()]
        try:
            matrix = [[float(x) for x in row.replace(",", " ").split()] for row in rows]
        except ValueError:
            self.fail(key, f"cannot parse {raw!r} as a matrix (rows split by ';')")
        if not all(math.isfinite(x) for row in matrix for x in row):
            self.fail(key, "entries must be finite")
        widths = {len(row) for row in matrix}
        if len(matrix) != size or widths != {size}:
            got = f"{len(matrix)}x{sorted(widths)}"
            self.fail(key, f"expected a {size}x{size} symmetric matrix, got shape {got}")
        return np.asarray(matrix) * scale

    def get_vector(self, key, size: int, scale: float):
        """Scalar or comma-separated list value, scaled; validates the length."""
        raw = self.data[key]
        values = self.get_float_list(key)
        if len(values) == 1:
            return values[0] * scale
        if len(values) != size:
            self.fail(key, f"expected {size} entries, got {len(values)} in {raw!r}")
        return tuple(v * scale for v in values)


def _read_sections(text: str) -> dict[str, _Section]:
    """Read config text in one pass into its known sections.

    ``=`` is the only delimiter and keys are case-sensitive.  ``;`` is no
    comment, as it separates matrix rows.  A line indented deeper than its
    key line continues that key's value; a blank or comment line ends it.
    """
    sections = {name: _Section(name) for name in _KNOWN_KEYS}
    headers: dict[str, int] = {}
    section = key = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            key = None
            continue
        indent = len(raw) - len(raw.lstrip())
        if key is not None and indent > key_indent:
            section.data[key] += "\n" + line
            continue
        where = f"line {lineno}: "
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in sections:
                known = ", ".join(f"[{s}]" for s in _KNOWN_KEYS)
                raise ConfigError(f"{where}unknown section [{name}]; known: {known}")
            if name in headers:
                raise ConfigError(f"{where}repeated section [{name}] (first at line {headers[name]})")
            headers[name], section, key = lineno, sections[name], None
            continue
        name, equals, value = line.partition("=")
        name = name.strip()
        if not (equals and name):
            raise ConfigError(f"{where}expected [section] or key = value, got {line!r}")
        if section is None:
            raise ConfigError(f"{where}key {name!r} comes before the first [section] header")
        if name in section:
            raise ConfigError(
                f"{where}[{section.name}] {name}: repeated key (first at line {section.lines[name]})"
            )
        section.data[name], section.lines[name] = value.strip(), lineno
        if name not in _KNOWN_KEYS[section.name]:
            section.fail(name, "unknown key")
        key, key_indent = name, indent
    return sections


def _units(section: _Section) -> tuple[float, str, float, float]:
    """(scale, key suffix, omega, omega_m) of the unit family a section uses.

    Delta-normalized keys end in ``_over_delta``, scale by ``delta`` and put
    the mode at omega_m = omega + delta.  Raw keys are the bare names, with
    scale 1 and omega, omega_m given outright.  Mixing the two is rejected.
    """
    normalized = sorted(k for k in section.data if k.endswith("_over_delta") or k == "delta")
    raw = sorted(k for k in section.data if k in _RAW_FREQ_KEYS)
    if normalized and raw:
        section.fail(
            raw[0],
            f"raw-frequency keys ({', '.join(raw)}) cannot be mixed with "
            f"delta-normalized keys ({', '.join(normalized)})",
        )
    if raw:
        omega = section.get_float("omega", None, nonzero=True)
        omega_m = section.get_float("omega_m", None)
        if omega is None or omega_m is None:
            section.missing("raw-frequency configs require omega and omega_m")
        return 1.0, "", omega, omega_m
    delta = section.get_float("delta", 1.0, nonzero=True)
    omega = section.get_float("omega_over_delta", 10.0, nonzero=True) * delta
    return delta, "_over_delta", omega, omega + delta


def _parse_system(section: _Section) -> SystemConfig | None:
    if not section.data:
        return None
    n = section.get_int("n_charger", 1, minimum=1)
    m = section.get_int("m_battery", 1, minimum=1)
    cutoff = section.get_int("fock_cutoff", None, minimum=0)
    scale, unit, omega, omega_m = _units(section)
    gk, gck, gbk, jk, jck, jbk = (q + unit for q in _COUPLINGS)
    if gk not in section and gck not in section:
        section.missing(f"coupling required: set {gk} (or {gck} / {gbk})")

    g_both = section.get_vector(gk, 1, scale) if gk in section else None
    g_charger = section.get_vector(gck, n, scale) if gck in section else g_both
    g_battery = section.get_vector(gbk, m, scale) if gbk in section else g_both
    if g_charger is None or g_battery is None:
        section.missing(f"both registers need couplings; set {gk} or both {gck} and {gbk}")
    # the weaker register limits the induced coupling
    weaker = min((np.max(np.abs(g_charger)), gck), (np.max(np.abs(g_battery)), gbk))[1]

    j_both = section.get_float(jk, 0.0) * scale or 0.0  # a signed zero reads as 0.0
    j_charger = section.get_matrix(jck, n, scale) if jck in section else j_both
    j_battery = section.get_matrix(jbk, m, scale) if jbk in section else j_both
    try:
        config = SystemConfig(
            n_charger=n,
            m_battery=m,
            omega=omega,
            omega_m=omega_m,
            g_charger=g_charger,
            g_battery=g_battery,
            j_charger=j_charger,
            j_battery=j_battery,
            fock_cutoff=cutoff,
        )
    except ValueError as exc:
        raise ConfigError(f"[{section.name}]: {exc}") from None
    with np.errstate(over="ignore"):  # an overflowing pair product reads inf, rejected below
        induced = _coupling_scale(config)
    _check_induced(section, weaker if weaker in section else gk, induced)
    return config


def _check_induced(section: _Section, key: str, induced: float) -> None:
    """The induced coupling |G| sets every time and power unit: |G| and 1/|G| must be finite."""
    if not (0.0 < induced < math.inf and math.isfinite(1.0 / induced)):
        section.fail(key, f"must be nonzero, with |G| and 1/|G| finite; induced |G| = {induced!r}")


def _parse_noise(section: _Section) -> tuple[QsdParams | None, tuple[float, ...]]:
    if not section.data:
        return None, ()
    scale, unit, omega, omega_m = _units(section)
    if "g" + unit not in section:
        section.missing(f"coupling required: set g{unit}")
    g = section.get_float("g" + unit) * scale
    # the raw noise strength is gamma_noise, not a bare gamma; a rate scales by |delta|
    gamma_key = "gamma_over_delta" if unit else "gamma_noise"
    gammas = tuple(x * abs(scale) for x in section.get_float_list(gamma_key, (0.0,)))
    if min(gammas) < 0.0:
        section.fail(gamma_key, "noise strengths must be >= 0")
    try:
        template = QsdParams(g=g, omega=omega, omega_m=omega_m, gamma_noise=0.0)
    except ValueError as exc:
        raise ConfigError(f"[{section.name}]: {exc}") from None
    if template.delta == 0.0:
        section.missing("the mode must be detuned (omega_m != omega)")
    _check_induced(section, "g" + unit, g * g / abs(template.delta))
    return template, gammas


def parse_config(text: str, mode: str | None = None) -> ExperimentSpec:
    """Validate config text (or a preset name) into an ExperimentSpec.

    The mode may come from the text ([run] mode = ...) or the argument;
    if both are present they must agree.  Unknown sections and keys are
    hard errors carrying the offending line number.
    """
    stripped = text.strip()
    if stripped in PRESETS:
        text = PRESETS[stripped]
    sections = _read_sections(text)
    run = sections["run"]

    text_mode = run.get_str("mode")
    if text_mode is not None and text_mode not in MODES:
        run.fail("mode", f"unknown mode {text_mode!r}; known: {', '.join(MODES)}")
    if mode is not None and mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; known: {', '.join(MODES)}")
    if mode is not None and text_mode is not None and mode != text_mode:
        run.fail("mode", f"config says {text_mode!r} but the command line says {mode!r}")
    mode = mode or text_mode
    if mode is None:
        raise ConfigError("mode required: pass it on the command line or set [run] mode")

    system = _parse_system(sections["system"])
    noise, gammas = _parse_noise(sections["noise"])

    sweep = sections["sweep"]
    models = sweep.get_str_list("models", _MODELS, _MODES[mode][1])
    exchanges = sweep.get_str_list("exchange", {"zero", "sweet"}, ("sweet",))
    n_min = sweep.get_int("n_min", 1, minimum=1)
    n_max = sweep.get_int("n_max", 10, minimum=1)
    if n_max < n_min:
        sweep.fail("n_max", f"must be >= n_min ({n_min})")
    ratios = sweep.get_int_list("ratios", (1, 2, 5), minimum=1)
    m_max = sweep.get_int("m_max", 6, minimum=1)
    j_norm = sweep.get_float_list("j_values_over_delta", None)
    j_raw = sweep.get_float_list("j_values", None)
    if j_norm is not None and j_raw is not None:
        sweep.fail("j_values", "give either j_values_over_delta or j_values, not both")
    j_values = j_raw
    if j_norm is not None:
        if system is None:
            sweep.fail("j_values_over_delta", "needs a [system] section to supply delta")
        j_values = tuple(x * system.detuning for x in j_norm)

    spec = ExperimentSpec(
        mode=mode,
        text=text,
        system=system,
        noise=noise,
        gammas=gammas,
        horizon=run.get_float("horizon", None, positive=True),
        horizon_factor=run.get_float("horizon_factor", 2.5 if mode == "qsd" else 1.2, positive=True),
        samples=run.get_int("samples", 1001, minimum=2),
        out=run.get_str("out"),
        threads=run.get_int("threads", 1, minimum=1),
        tol=run.get_float("tol", 1e-10, positive=True, minimum=_MIN_TOL),
        models=models,
        exchanges=exchanges,
        j_values=j_values,
        n_range=(n_min, n_max),
        ratios=ratios,
        m_max=m_max,
    )
    _validate_mode(spec, sections)
    return spec


def _validate_mode(spec: ExperimentSpec, sections: dict[str, _Section]) -> None:
    """The mode's own checks, then the refusal of every section, [sweep] key and [system] J it does not read."""
    _, _, uniform, physics, keys = _MODES[spec.mode]
    run, sweep = sections["run"], sections["sweep"]
    if "horizon" in run and "horizon_factor" in run:
        run.fail("horizon_factor", "give either horizon or horizon_factor, not both")
    if not sections[physics].data:
        raise ConfigError(f"mode {spec.mode!r} requires a [{physics}] section")
    if uniform and not spec.system.is_uniform():
        raise ConfigError(f"mode {spec.mode!r} requires uniform couplings")
    if spec.mode == "sweep-j" and spec.j_values is None:
        raise ConfigError("mode 'sweep-j' requires [sweep] j_values_over_delta or j_values")
    # a |G| with a finite inverse can still overflow the default horizon;
    # at N = M = 1 it is the longest over every point of the run
    if not math.isfinite(_horizon(spec)):
        key = "horizon_factor" if "horizon_factor" in run else "horizon"
        run.fail(key, "the default horizon, a multiple of 1/|G|, overflows; set [run] horizon")
    other = sections["noise" if physics == "system" else "system"]
    if other.data:
        other.missing(_unread(spec.mode, [m for m, (*_, section, _) in _MODES.items() if section == other.name]))
    for key in sweep.data:  # in file order, so the error names the first
        if key not in keys:
            sweep.fail(key, _unread(spec.mode, [m for m, (*_, read) in _MODES.items() if key in read]))
    if "exchange" in keys or spec.j_values is not None:  # the grid's J replaces every [system] J
        grid = "exchange" if "exchange" in keys else next(k for k in keys if k.startswith("j_") and k in sweep)
        system = sections["system"]
        for key in system.data:
            if key.removesuffix("_over_delta") in _COUPLINGS[3:]:
                system.fail(key, f"mode {spec.mode!r} takes J from [sweep] {grid}, not from [system]")


def _unread(mode: str, readers: list[str]) -> str:
    """Why mode refuses a section or key: 'only a does', 'only a and b do', 'only a, b and c do'."""
    *rest, last = readers
    names = f"{', '.join(rest)} and {last}" if rest else last
    return f"mode {mode!r} does not read it; only {names} {'do' if rest else 'does'}"


# ---------------------------------------------------------------------------
# engines


def _coupling_scale(config: SystemConfig) -> float:
    """|G| used for horizons and power units; the largest pair value."""
    return float(np.abs(effective_couplings(config).charger_battery).max())


def _induced(config: SystemConfig) -> float:
    """The induced coupling G of a uniform config."""
    return effective_couplings(config).uniform_value()


def _at_sweet_spot(j: float, g: float) -> bool:
    return abs(j + g) <= abs(g) * 1e-9


def _unit(spec: ExperimentSpec) -> float:
    """|G|, the unit of time and power: g^2/|delta| of qsd's chain, else the system's, which every point shares."""
    if spec.mode == "qsd":
        return spec.noise.g * spec.noise.g / abs(spec.noise.delta)
    return _coupling_scale(spec.system)


def _horizon(spec: ExperimentSpec, config: SystemConfig | None = None) -> float:
    """[run] horizon, else ``charging_horizon`` at config's N and M, or at N = M = 1 without one."""
    if spec.horizon is not None:
        return spec.horizon
    n, m = (config.n_charger, config.m_battery) if config else (1, 1)
    return charging_horizon(n, m, _unit(spec), factor=spec.horizon_factor)


def _points(spec: ExperimentSpec) -> list[tuple[str, float, SystemConfig]]:
    """(model, J, config) of every trajectory of compare or a sweep: model, then J, then size."""
    base = spec.system
    if "exchange" in _MODES[spec.mode][4]:
        exchanges = tuple(0.0 if name == "zero" else -_induced(base) for name in spec.exchanges)
    elif spec.j_values is not None:
        exchanges = spec.j_values
    else:  # the J of a uniform config: the charger's if it has a pair
        exchanges = (float(base.j_charger[0, -1] if base.n_charger >= 2 else base.j_battery[0, -1]),)
    sizes = {
        "sweep-n": [(n, base.m_battery) for n in range(spec.n_range[0], spec.n_range[1] + 1)],
        "sweep-nm": [(ratio * m, m) for ratio in spec.ratios for m in range(1, spec.m_max + 1)],
    }.get(spec.mode, [(base.n_charger, base.m_battery)])
    g_c, g_b = base.g_charger[0], base.g_battery[0]
    return [
        (model, j, replace(base, n_charger=n, m_battery=m, g_charger=g_c, g_battery=g_b, j_charger=j, j_battery=j))
        for model in spec.models for j in exchanges for n, m in sizes
    ]


def _analytic_energy(config: SystemConfig, times: np.ndarray) -> np.ndarray:
    """Dispatch to the applicable closed form, in splitting units; couplings are uniform."""
    g = _induced(config)
    n, m = config.n_charger, config.m_battery
    j_c, j_b = config.j_charger[0, -1], config.j_battery[0, -1]  # 0 for a single spin

    if (n, m) == (1, 1):
        return e_one_one(g, times)
    if (n, m) == (2, 1):
        return e_two_one(g, j_c, times)
    if m == 1:
        if not _at_sweet_spot(j_c, g):
            raise ConfigError(
                f"no closed form for n_charger={n} away from the sweet spot (need exchange = {-g!r})"
            )
        return e_n_one(g, n, times)
    if (n, m) == (2, 2):
        if not (_at_sweet_spot(j_c, g) and _at_sweet_spot(j_b, g)):
            raise ConfigError(
                f"the two-to-two closed form needs both registers at the sweet spot (exchange = {-g!r})"
            )
        return e_two_two(g, times)
    raise ConfigError(f"no closed form for n_charger={n}, m_battery={m}")


def _trajectory(model: str, config: SystemConfig, times: np.ndarray, tol: float) -> Trajectory:
    if model == "analytic":
        energy = np.asarray(_analytic_energy(config, times))
        return Trajectory(
            times=times, energy=energy, power=_power(times, energy), norm=np.ones_like(energy)
        )
    # a builder, a layout (one register per symmetry class, or per spin) and a cutoff
    n = config.n_charger
    if model == "full":
        build = build_full_hamiltonian
        cutoff = n if config.fock_cutoff is None else config.fock_cutoff
    elif model in ("effective", "collective"):
        build, cutoff = build_effective_hamiltonian, 0
    else:
        raise ConfigError(f"unknown model {model!r}")
    if model == "effective":  # per spin: fig4's J = 0 curves have two equal peaks
        basis = enumerate_sector_basis(n, config.m_battery, cutoff, n)
    else:
        basis = _sector(config._classes, n, cutoff, n)
    return evolve(build(config, basis), charged_initial_state(basis), times, tol=tol)


# ---------------------------------------------------------------------------
# runners: each returns (columns, blocks) for _csv_rows


def _fmt(x: float) -> str:
    return repr(float(x))


def _csv_rows(blocks) -> list[str]:
    """CSV rows of blocks of cells, floats in shortest round-trip form.

    A str cell repeats down its block; any other cell is an array of one
    value per row (a float, for a one-row block).
    """
    rows = []
    for block in blocks:
        height = max(np.size(cell) for cell in block if not isinstance(cell, str))
        columns = [
            [cell] * height if isinstance(cell, str) else map(repr, np.asarray(cell, float).ravel().tolist())
            for cell in block
        ]
        rows.extend(map(",".join, zip(*columns, strict=True)))
    return rows


def _map_ordered(fn, items, threads: int) -> list:
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _solve(spec: ExperimentSpec, model: str, config: SystemConfig) -> Trajectory:
    """The run's trajectory of one model and config, on the grid up to its horizon."""
    return _trajectory(model, config, np.linspace(0.0, _horizon(spec, config), spec.samples), spec.tol)


def _run_trajectory(spec: ExperimentSpec):
    traj = _solve(spec, spec.models[0], spec.system)
    magnon = traj.magnon if traj.magnon is not None else np.zeros_like(traj.energy)
    block = (traj.times, traj.energy, traj.power / _unit(spec), traj.norm, magnon)
    return ["t", "E_over_omega", "P_over_Gomega", "norm", "n_magnon"], [block]


def _run_compare(spec: ExperimentSpec):
    scale = _unit(spec)

    def one(point):
        model, j, config = point
        traj = _solve(spec, model, config)
        return (model, _fmt(j / config.detuning), traj.times, traj.energy, traj.power / scale)

    blocks = _map_ordered(one, _points(spec), spec.threads)
    return ["model", "j_over_delta", "t", "E_over_omega", "P_over_Gomega"], blocks


def _run_qsd(spec: ExperimentSpec):
    template = spec.noise
    times = np.linspace(0.0, _horizon(spec), spec.samples)

    def one(gamma):
        return solve_calF(replace(template, gamma_noise=gamma), times, spec.tol)

    solutions = _map_ordered(one, spec.gammas, spec.threads)
    columns = ["t", "Re_F", "Im_F", "E_over_omega"]
    blocks = [(f.times, f.calf.real, f.calf.imag, f.energy / template.omega) for f in solutions]
    if len(spec.gammas) > 1:
        columns = ["gamma_over_delta"] + columns
        blocks = [(_fmt(gamma / abs(template.delta)),) + b for gamma, b in zip(spec.gammas, blocks)]
    return columns, blocks


def sweep_metrics(spec: ExperimentSpec) -> list[SweepRow]:
    """Charging metrics over the sweep grid, in deterministic grid order."""
    scale = _unit(spec)

    def one(point):
        model, j, config = point
        traj = _solve(spec, model, config)
        metrics = charging_metrics(traj)
        return SweepRow(
            model, config.n_charger, config.m_battery, j / config.detuning, e_max=metrics.e_max,
            tau=metrics.tau * scale, p_tau=metrics.p_tau / scale, p_max=metrics.p_max / scale,
        )

    return _map_ordered(one, _points(spec), spec.threads)


def _run_sweep(spec: ExperimentSpec):
    blocks = [
        (r.model, str(r.n_charger), str(r.m_battery), r.j_over_delta, r.e_max, r.tau, r.p_tau, r.p_max)
        for r in sweep_metrics(spec)
    ]
    columns = [
        "model", "N", "M", "J_over_delta", "E_max_over_omega", "tau_G", "P_tau_over_Gomega", "P_max_over_Gomega"
    ]
    return columns, blocks


# mode -> (runner, its model or default models, needs uniform couplings, section read, [sweep] keys read)
_MODES = {
    "simulate-full": (_run_trajectory, ("full",), False, "system", ()),
    "simulate-effective": (_run_trajectory, ("effective",), False, "system", ()),
    "collective": (_run_trajectory, ("collective",), False, "system", ()),
    "analytic": (_run_trajectory, ("analytic",), True, "system", ()),
    "qsd": (_run_qsd, (), False, "noise", ()),
    "sweep-n": (_run_sweep, ("effective",), True, "system", ("models", "exchange", "n_min", "n_max")),
    "sweep-nm": (_run_sweep, ("collective",), True, "system", ("models", "exchange", "ratios", "m_max")),
    "sweep-j": (_run_sweep, ("effective",), True, "system", ("models", "j_values_over_delta", "j_values")),
    "compare": (_run_compare, ("full", "effective"), True, "system", ("models", "j_values_over_delta", "j_values")),
}
MODES = tuple(_MODES)
_KNOWN_KEYS["sweep"] = {key for *_, keys in _MODES.values() for key in keys}
_MODELS = {model for _, models, *_ in _MODES.values() for model in models}


def run_experiment(spec: ExperimentSpec, out: str | None = None) -> str:
    """Run the experiment and return the CSV text (writing it if out is set)."""
    if spec.mode not in _MODES:
        raise ConfigError(f"unknown mode {spec.mode!r}")
    columns, blocks = _MODES[spec.mode][0](spec)

    buffer = io.StringIO()
    buffer.write(f"# magnon-battery {TOOL_VERSION}\n")
    buffer.write(f"# mode = {spec.mode}\n")
    buffer.write("# config:\n")
    for line in spec.text.rstrip("\n").splitlines():
        buffer.write(f"# {line}\n" if line else "#\n")
    buffer.write(",".join(columns) + "\n")
    for row in _csv_rows(blocks):
        buffer.write(row + "\n")
    text = buffer.getvalue()

    target = out if out is not None else spec.out
    if target is not None:
        with open(target, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    return text
