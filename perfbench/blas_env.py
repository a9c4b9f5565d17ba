"""Pin BLAS to one thread; call before numpy is first imported."""

import os


def pin_blas() -> None:
    """One BLAS thread per worker thread keeps the load at or below the core count.

    Child processes inherit the setting.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
