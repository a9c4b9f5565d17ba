"""Charging dynamics of spin-register quantum batteries driven through a
bosonic mode.

N charger spins pump M battery spins via a single off-resonant mode
under an excitation-conserving coupling.  The package provides the
exact sector-restricted model, the dispersive mode-eliminated model,
the collective-spin reduction, closed-form small-register solutions, a
noise-averaged treatment of mode-frequency jitter, and a CSV-emitting
experiment runner (`magnon-battery` on the command line).

A module's ``__all__`` is its public interface, and the package
re-exports it whole; the closed forms stay in ``analytic``.
"""

from . import analytic, collective, config, dynamics, effective, experiments, hilbert, qsd
from .collective import *
from .config import *
from .dynamics import *
from .effective import *
from .experiments import *
from .experiments import TOOL_VERSION as __version__
from .hilbert import *
from .qsd import *

__all__ = [
    "__version__",
    "analytic",
    *config.__all__,
    *hilbert.__all__,
    *effective.__all__,
    *collective.__all__,
    *dynamics.__all__,
    *qsd.__all__,
    *experiments.__all__,
]
