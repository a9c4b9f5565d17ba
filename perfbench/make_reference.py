#!/usr/bin/env python3
"""Regenerate the stored outputs in perfbench/reference/ from the current code.

    python3 perfbench/make_reference.py

The stored files are the oracle for the presets, the uniform sweep and the
structure of the disordered builds.  Regenerate them only in a change whose
purpose is to change those outputs, and say why in CHANGES.md.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from blas_env import pin_blas  # noqa: E402

# the same BLAS pinning as run.py, so stored and benchmarked outputs round alike
pin_blas()

import numpy as np  # noqa: E402

from magnon_battery import cli  # noqa: E402
from oracles import sampled_rows, split_cells, structure_digests, table_rows  # noqa: E402
from workloads import (  # noqa: E402
    PRESET_NAMES, REFERENCE, SIZES, BuildDisordered, SweepUniform, table_lines,
)


def main() -> None:
    workdir = HERE.parent / ".perfbench" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    REFERENCE.mkdir(exist_ok=True)
    try:
        arrays = {}
        for preset in PRESET_NAMES:
            out = workdir / f"{preset}.csv"
            if cli.main([preset, "--out", str(out), "--threads", "1"]) != 0:
                raise SystemExit(f"{preset} failed")
            header, rows = table_rows(out.read_text(encoding="utf-8"))
            keep = sampled_rows(len(rows))
            labels, values = split_cells([rows[i] for i in keep])
            arrays.update({
                f"{preset}_header": np.array(header),
                f"{preset}_rows": np.array(len(rows)),
                f"{preset}_index": keep,
                f"{preset}_labels": labels,
                f"{preset}_values": values,
            })
        np.savez_compressed(REFERENCE / "presets.npz", **arrays)

        sweep = SweepUniform(0, "full", workdir)
        if sweep.run_pass() != 0:
            raise SystemExit("sweep-uniform failed")
        table = table_lines(sweep.out.read_text(encoding="utf-8"))
        (REFERENCE / "sweep-uniform.csv").write_text("\n".join(table) + "\n", encoding="utf-8")

        digests = {}
        for size in SIZES:
            build = BuildDisordered(0, size, workdir)
            build.ready()
            digests[size] = structure_digests(build.run_pass())
        (REFERENCE / "build.json").write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
