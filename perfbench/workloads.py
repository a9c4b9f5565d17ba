"""The four benchmark workloads.

Each workload builds its inputs from the seed, then runs passes.  ``ready``
is the set-up a user pays on every run after ``import magnon_battery``
(parsing the configs, or constructing them through the API); ``run_pass``
is the timed region; ``collect`` turns a pass's raw result into one
payload (or exception) per operation, outside the timed region; ``check``
compares the payloads of the last pass with an oracle that does not share
the code path it checks.

The package is reached only through its public API and its CLI entry
point, looked up at call time so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import magnon_battery as mb
from magnon_battery import cli

PRESET_NAMES = ("fig2", "fig3", "fig4", "fig5", "fig6")

# nominal couplings in units of the detuning, and the relative disorder
G_OVER_DELTA = 0.1
J_OVER_DELTA = 0.01
OMEGA_OVER_DELTA = 10.0
SPREAD = 0.1

# per size: sweep N range top, disordered simulate-full register and
# samples, disordered build register
SIZES = {
    "full": {"sweep_n_max": 7, "run_register": (6, 6), "samples": 401, "build_register": (8, 8)},
    "smoke": {"sweep_n_max": 3, "run_register": (3, 3), "samples": 101, "build_register": (4, 4)},
}

REFERENCE = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Disorder:
    """Per-spin couplings and exchange matrices, in units of the detuning."""

    g_charger: np.ndarray
    g_battery: np.ndarray
    j_charger: np.ndarray
    j_battery: np.ndarray

    @classmethod
    def draw(cls, seed: int, n: int, m: int) -> "Disorder":
        """Uniform draws within +-SPREAD of the nominal g and J."""
        rng = np.random.default_rng(seed)

        def exchange(size):
            upper = np.triu(rng.uniform(-1.0, 1.0, (size, size)), 1)
            mat = J_OVER_DELTA * (1.0 + SPREAD * (upper + upper.T))
            np.fill_diagonal(mat, 0.0)
            return mat

        g_c = G_OVER_DELTA * (1.0 + SPREAD * rng.uniform(-1.0, 1.0, n))
        g_b = G_OVER_DELTA * (1.0 + SPREAD * rng.uniform(-1.0, 1.0, m))
        return cls(g_c, g_b, exchange(n), exchange(m))

    def config(self):
        """The same couplings as a SystemConfig (delta = 1)."""
        return mb.SystemConfig(
            n_charger=len(self.g_charger),
            m_battery=len(self.g_battery),
            omega=OMEGA_OVER_DELTA,
            omega_m=OMEGA_OVER_DELTA + 1.0,
            g_charger=self.g_charger,
            g_battery=self.g_battery,
            j_charger=self.j_charger,
            j_battery=self.j_battery,
        )


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def _floats(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def sha256(*chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk if isinstance(chunk, bytes) else np.ascontiguousarray(chunk).tobytes())
    return digest.hexdigest()


def table_lines(text: str) -> list[str]:
    """Lines of a CSV without its comment lines; the header comes first."""
    return [line for line in text.splitlines() if not line.startswith("#")]


def csv_body(text: str) -> np.ndarray:
    """Numeric rows of a CSV whose header and comment lines are skipped."""
    return np.loadtxt(io.StringIO("\n".join(table_lines(text)[1:])), delimiter=",", ndmin=2)


class Workload:
    """Base: a named set of inputs, run as repeated passes."""

    name = ""
    threads = 1

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.size = SIZES[size]
        self.size_name = size
        self.workdir = workdir

    def ready(self) -> None:
        """Parse or construct the inputs, as a user's run does first."""

    def run_pass(self):
        raise NotImplementedError

    def collect(self, raw) -> dict:
        return raw

    @staticmethod
    def digest(payload) -> str:
        return sha256(payload.encode())

    def check(self, payloads: dict) -> tuple[dict, dict]:
        raise NotImplementedError


class Presets(Workload):
    """fig2..fig6 through the CLI in one process, threads = 1."""

    name = "presets"

    def ready(self):
        for preset in PRESET_NAMES:
            mb.parse_config(preset)

    def _out(self, preset) -> Path:
        return self.workdir / f"{preset}.csv"

    def run_pass(self):
        return {
            preset: cli.main([preset, "--out", str(self._out(preset)), "--threads", "1"])
            for preset in PRESET_NAMES
        }

    def collect(self, raw):
        return {
            preset: RuntimeError(f"exit code {code}")
            if code != 0
            else self._out(preset).read_text(encoding="utf-8")
            for preset, code in raw.items()
        }

    def check(self, payloads):
        from oracles import check_presets

        return check_presets(payloads)


class SweepUniform(Workload):
    """sweep-n, models full and effective, J = 0 and J = -G, N = 1..7, M = 3."""

    name = "sweep-uniform"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.threads = min(2, cpu_count())
        self.text = (
            "[run]\n"
            "mode = sweep-n\n"
            f"threads = {self.threads}\n\n"
            "[system]\n"
            "m_battery = 3\n"
            f"g_over_delta = {G_OVER_DELTA!r}\n"
            f"omega_over_delta = {OMEGA_OVER_DELTA!r}\n\n"
            "[sweep]\n"
            "models = full, effective\n"
            "exchange = zero, sweet\n"
            "n_min = 1\n"
            f"n_max = {self.size['sweep_n_max']}\n"
        )
        self.config_path = workdir / "sweep-uniform.ini"
        self.config_path.write_text(self.text, encoding="utf-8")
        self.out = workdir / "sweep-uniform.csv"

    def ready(self):
        mb.parse_config(self.text, mode="sweep-n")

    def run_pass(self):
        return cli.main(["sweep-n", "--config", str(self.config_path), "--out", str(self.out)])

    def collect(self, raw):
        from oracles import sweep_reference

        expected = sweep_reference(self.size["sweep_n_max"])
        if raw != 0:
            return {key: RuntimeError(f"exit code {raw}") for key in expected}
        text = self.out.read_text(encoding="utf-8")
        rows = table_lines(text)[1:]
        got = {",".join(row.split(",")[:4]): row for row in rows}
        return {key: got.get(key, KeyError(f"no row for {key}")) for key in expected}

    def check(self, payloads):
        from oracles import check_sweep

        return check_sweep(payloads, self.size["sweep_n_max"])


class FullDisordered(Workload):
    """simulate-full of a disordered N+M register on the integrator path."""

    name = "full-disordered"
    # an eighth of the nominal charging period pi / (sqrt(max(N, M)) |G|);
    # fixed rather than scaled by the drawn couplings, so the integrator
    # does the same work for every seed
    period_fraction = 0.125

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        n, m = self.size["run_register"]
        self.disorder = Disorder.draw(seed, n, m)
        d = self.disorder
        induced = G_OVER_DELTA**2
        self.horizon = self.period_fraction * math.pi / (math.sqrt(max(n, m)) * induced)
        self.text = (
            "[run]\n"
            "mode = simulate-full\n"
            f"samples = {self.size['samples']}\n"
            f"horizon = {self.horizon!r}\n\n"
            "[system]\n"
            f"n_charger = {n}\n"
            f"m_battery = {m}\n"
            "delta = 1.0\n"
            f"omega_over_delta = {OMEGA_OVER_DELTA!r}\n"
            f"g_charger_over_delta = {_floats(d.g_charger)}\n"
            f"g_battery_over_delta = {_floats(d.g_battery)}\n"
            f"j_charger_over_delta = {'; '.join(_floats(row) for row in d.j_charger)}\n"
            f"j_battery_over_delta = {'; '.join(_floats(row) for row in d.j_battery)}\n"
        )
        self.config_path = workdir / "full-disordered.ini"
        self.config_path.write_text(self.text, encoding="utf-8")
        self.out = workdir / "full-disordered.csv"

    def ready(self):
        mb.parse_config(self.text, mode="simulate-full")

    def run_pass(self):
        return cli.main(["simulate-full", "--config", str(self.config_path), "--out", str(self.out)])

    def collect(self, raw):
        if raw != 0:
            return {"trajectory": RuntimeError(f"exit code {raw}")}
        return {"trajectory": self.out.read_text(encoding="utf-8")}

    def check(self, payloads):
        from oracles import check_trajectory

        return check_trajectory(payloads, self.disorder, self.horizon, self.size["samples"])


class BuildDisordered(Workload):
    """Disordered N+M register built through the API: full, energy, effective."""

    name = "build-disordered"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.disorder = Disorder.draw(seed, *self.size["build_register"])
        self.config = None

    def ready(self):
        self.config = self.disorder.config()

    def run_pass(self):
        config = self.config
        n = config.n_charger
        raw = {}
        try:
            basis = mb.enumerate_sector_basis(n, config.m_battery, n, n)
            raw["full"] = mb.build_full_hamiltonian(config, basis)
        except Exception as exc:  # recorded as a failed operation
            raw["full"] = exc
        try:
            psi = mb.StateVector(self.random_state(raw["full"].dimension), raw["full"].basis)
            raw["battery_energy"] = (psi, mb.battery_energy_full(psi, psi.basis, config))
        except Exception as exc:
            raw["battery_energy"] = exc
        try:
            raw["effective"] = mb.build_effective_hamiltonian(config)
        except Exception as exc:
            raw["effective"] = exc
        return raw

    def random_state(self, dim: int) -> np.ndarray:
        """Normalised complex amplitudes, the same for every pass of a seed."""
        rng = np.random.default_rng(self.seed)
        amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return amps / np.linalg.norm(amps)

    @staticmethod
    def digest(payload):
        if isinstance(payload, tuple):
            return sha256(repr(payload[1]).encode())
        csr = payload.matrix
        return sha256(csr.indptr, csr.indices, csr.data)

    def check(self, payloads):
        from oracles import check_build

        return check_build(payloads, self.disorder, self.size_name, self.seed)


WORKLOADS = {
    cls.name: cls for cls in (Presets, SweepUniform, FullDisordered, BuildDisordered)
}
