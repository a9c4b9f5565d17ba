"""Command-line front end.

    magnon-battery <mode|preset> [--config PATH] [--out PATH]
                   [--threads K] [--tol X]

The positional target is either a run mode (which needs --config) or a
named preset (which is a canned config and takes no --config).  CSV
goes to --out, to the config's own [run] out path, or to stdout.

Exit codes: 0 success, 1 configuration problem (bad arguments, bad
config text, unreadable config, unwritable output), 2 numerical failure
(runaway coefficients, failed linear algebra, floating-point traps).
Any other exception is a bug and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

from numpy.linalg import LinAlgError

from .experiments import MODES, PRESETS, TOOL_VERSION, ConfigError, parse_config, run_experiment
from .qsd import RiccatiBlowupError

__all__ = ["main", "entrypoint"]

# any other RuntimeError, such as RecursionError or NotImplementedError, is a bug
_NUMERICAL_ERRORS = (RiccatiBlowupError, LinAlgError, FloatingPointError)


class _ArgumentError(Exception):
    """Argparse rejection, re-raised so we control the exit code."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ArgumentError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="magnon-battery",
        description=(
            "Charging simulations for spin registers coupled through a bosonic "
            "mode: exact-sector, mode-eliminated, collective-spin, closed-form, "
            "and noisy-mode runs, plus metric sweeps.  Output is CSV."
        ),
        epilog=(
            "modes: " + ", ".join(MODES) + ".  presets: " + ", ".join(sorted(PRESETS)) + "."
        ),
    )
    parser.add_argument("target", help="run mode or preset name")
    parser.add_argument("--config", help="config file path (required for modes, invalid for presets)")
    parser.add_argument("--out", help="CSV output path (default: config [run] out, else stdout)")
    parser.add_argument("--threads", type=int, help="worker threads for sweep grids")
    parser.add_argument("--tol", type=float, help="propagation tolerance override")
    parser.add_argument(
        "--version", action="version", version=f"magnon-battery {TOOL_VERSION}"
    )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.target in PRESETS:
            if args.config is not None:
                raise ConfigError(f"{args.target!r} is a preset and does not take --config")
            spec = parse_config(args.target)
        elif args.target in MODES:
            if args.config is None:
                raise ConfigError(f"mode {args.target!r} requires --config")
            try:
                with open(args.config, encoding="utf-8") as handle:
                    text = handle.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config {args.config!r}: {exc}") from None
            spec = parse_config(text, mode=args.target)
        else:
            raise ConfigError(
                f"unknown target {args.target!r}; modes: {', '.join(MODES)}; "
                f"presets: {', '.join(sorted(PRESETS))}"
            )
        overrides = {}
        if args.threads is not None:
            if args.threads < 1:
                raise ConfigError("--threads must be >= 1")
            overrides["threads"] = args.threads
        if args.tol is not None:
            if not (math.isfinite(args.tol) and args.tol > 0.0):
                raise ConfigError("--tol must be finite and > 0")
            overrides["tol"] = args.tol
        if overrides:
            spec = replace(spec, **overrides)
        try:
            csv_text = run_experiment(spec, out=args.out)
        except OSError as exc:
            raise ConfigError(f"cannot write output: {exc}") from None
    except _ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if args.out is None and spec.out is None:
        sys.stdout.write(csv_text)
    return 0


def entrypoint() -> None:
    sys.exit(main())
