"""Charging dynamics of spin-register quantum batteries driven through a
bosonic mode.

N charger spins pump M battery spins via a single off-resonant mode
under an excitation-conserving coupling.  The package provides the
exact sector-restricted model, the dispersive mode-eliminated model,
the collective-spin reduction, closed-form small-register solutions, a
noise-averaged treatment of mode-frequency jitter, and a CSV-emitting
experiment runner (`magnon-battery` on the command line).
"""

from importlib import metadata as _metadata

from .collective import (
    DickeBasis,
    build_collective_hamiltonian,
    collective_charged_state,
    dicke_embed,
    ladder_matrices,
    ladder_matrix_element,
)
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
    DegeneracyError,
    EffectiveCouplings,
    build_effective_hamiltonian,
    effective_couplings,
    second_order_coupling,
    sweet_spot_j,
)
from .experiments import (
    PRESETS,
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
    battery_occupation_operator,
    build_full_hamiltonian,
    charged_initial_state,
    dump_matrix,
    enumerate_composite_basis,
    enumerate_sector_basis,
    magnon_occupation_operator,
    total_excitation_operator,
)
from .qsd import (
    FSolution,
    QsdParams,
    RiccatiBlowupError,
    bath_correlation,
    ou_correlation,
    qsd_energy,
    solve_calF,
    solve_f12,
)
from . import analytic

try:
    __version__ = _metadata.version("magnon-battery")
except _metadata.PackageNotFoundError:  # bare checkout
    __version__ = "0.0.0"

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
    "battery_occupation_operator",
    "magnon_occupation_operator",
    "total_excitation_operator",
    "dump_matrix",
    "DegeneracyError",
    "EffectiveCouplings",
    "second_order_coupling",
    "effective_couplings",
    "build_effective_hamiltonian",
    "sweet_spot_j",
    "DickeBasis",
    "ladder_matrix_element",
    "ladder_matrices",
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
    "ou_correlation",
    "bath_correlation",
    "solve_f12",
    "solve_calF",
    "qsd_energy",
    "ConfigError",
    "ExperimentSpec",
    "SweepRow",
    "PRESETS",
    "parse_config",
    "run_experiment",
    "sweep_metrics",
]
