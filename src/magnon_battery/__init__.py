"""Charging dynamics of spin-register quantum batteries driven through a
bosonic mode.

N charger spins pump M battery spins via a single off-resonant mode
under an excitation-conserving coupling.  The package provides the
exact sector-restricted model, the dispersive mode-eliminated model,
the collective-spin reduction, closed-form small-register solutions, a
noise-averaged treatment of mode-frequency jitter, and a CSV-emitting
experiment runner (`magnon-battery` on the command line).
"""

from .collective import build_collective_hamiltonian, collective_charged_state, dicke_embed
from .config import SystemConfig
from .dynamics import (
    ChargingMetrics,
    Trajectory,
    battery_energy_full,
    charging_horizon,
    charging_metrics,
    evolve,
)
from .effective import (
    EffectiveCouplings,
    build_effective_hamiltonian,
    effective_couplings,
    sweet_spot_j,
)
from .experiments import (
    PRESETS,
    TOOL_VERSION as __version__,
    ConfigError,
    ExperimentSpec,
    SweepRow,
    parse_config,
    run_experiment,
    sweep_metrics,
)
from .hilbert import (
    HamiltonianMatrix,
    SectorBasis,
    StateVector,
    basis_state,
    build_full_hamiltonian,
    charged_initial_state,
    enumerate_composite_basis,
    enumerate_sector_basis,
    total_excitation_operator,
)
from .qsd import (
    FSolution,
    QsdParams,
    RiccatiBlowupError,
    solve_calF,
    solve_f12,
)
from . import analytic

__all__ = [
    "__version__",
    "analytic",
    "SystemConfig",
    "SectorBasis",
    "HamiltonianMatrix",
    "StateVector",
    "enumerate_sector_basis",
    "enumerate_composite_basis",
    "build_full_hamiltonian",
    "basis_state",
    "charged_initial_state",
    "total_excitation_operator",
    "EffectiveCouplings",
    "effective_couplings",
    "build_effective_hamiltonian",
    "sweet_spot_j",
    "build_collective_hamiltonian",
    "collective_charged_state",
    "dicke_embed",
    "Trajectory",
    "ChargingMetrics",
    "evolve",
    "charging_metrics",
    "battery_energy_full",
    "charging_horizon",
    "QsdParams",
    "FSolution",
    "RiccatiBlowupError",
    "solve_f12",
    "solve_calF",
    "ConfigError",
    "ExperimentSpec",
    "SweepRow",
    "PRESETS",
    "parse_config",
    "run_experiment",
    "sweep_metrics",
]
