"""Command-line interface: run scenarios, sweeps, and the builtin catalog.

Every Betti number reported is exact, over Q as over F_p.  Exit codes:
0 success, 2 bad input (parse/validation), 3 a verified inequality failed
(diagnostic dump on stderr), 4 resource caps exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    ActionInvalid,
    BoundViolation,
    GroupTooLarge,
    InvalidParameter,
    NeedsSubdivision,
    ResourceCapExceeded,
)
from .scenarios import (
    BUILTIN_NAMES,
    DEFAULT_FIELDS,
    Scenario,
    builtin,
    report_bytes,
    run_scenario,
    sweep,
)


def _emit(payload: dict, out_path: str | None) -> None:
    blob = report_bytes(payload)
    sys.stdout.write(blob.decode("utf-8"))
    if out_path:
        with open(out_path, "wb") as fh:
            fh.write(blob)


def _cmd_run(args) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise InvalidParameter(
                f"scenario file {args.file!r}: parse error at line {e.lineno}, column {e.colno}: {e.msg}"
            ) from None
        except UnicodeDecodeError as e:
            raise InvalidParameter(f"scenario file {args.file!r} is not UTF-8 text: {e.reason}") from None
        except RecursionError:
            raise InvalidParameter(f"scenario file {args.file!r} nests too deeply to parse") from None
    scenario = Scenario.from_json_dict(data)
    report = run_scenario(scenario, with_timings=args.timings, budget=args.budget)
    _emit(report, args.out)
    return 0


def _cmd_sweep(args) -> int:
    report = sweep(
        n_max=args.n_max,
        samples=args.samples,
        seed=args.seed,
        fields=args.fields,
        jobs=args.jobs,
        max_model_simplices=args.max_model_simplices,
    )
    _emit(report, args.out)
    return 0


def _cmd_builtin(args) -> int:
    scenario = builtin(args.name, *args.params)
    if args.emit_scenario:
        _emit(scenario.to_json_dict(), args.out)
        return 0
    report = run_scenario(scenario, with_timings=args.timings, budget=args.budget)
    _emit(report, args.out)
    return 0


def _int_at_least(least: int):
    """An argparse type: an integer >= least, or an error that argparse reports with the flag."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return parse


def _field_labels(text: str) -> tuple:
    """An argparse type: comma-separated field labels, none of them empty."""
    labels = tuple(text.split(","))
    if "" in labels:
        raise argparse.ArgumentTypeError(f"expected labels such as Q,Fp:2, got {text!r}")
    return labels


def _seconds(text: str) -> float:
    """An argparse type: a number of seconds >= 0; NaN is refused."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more seconds, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqh",
        description="Exact homology of sphere quotients with verified uniform bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("file")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--timings", action="store_true", help="include per-stage timings")
    p_run.add_argument("--budget", type=_seconds, default=None, help="wall-clock budget (s)")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="randomized abelian bound sweep")
    p_sweep.add_argument("--n-max", type=_int_at_least(1), default=4, dest="n_max")
    p_sweep.add_argument("--samples", type=_int_at_least(0), default=50)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument(
        "--fields", type=_field_labels, default=DEFAULT_FIELDS, help="comma-separated labels, e.g. Q,Fp:2"
    )
    p_sweep.add_argument(
        "--jobs", type=_int_at_least(1), default=1, help="worker processes, at most one per CPU and sample"
    )
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument(
        "--max-model-simplices",
        type=_int_at_least(2),
        default=200_000,
        dest="max_model_simplices",
        help="size guard for the scenario generator",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_builtin = sub.add_parser("builtin", help=f"catalog: {', '.join(BUILTIN_NAMES)}")
    p_builtin.add_argument("name")
    p_builtin.add_argument("params", nargs="*", type=int)
    p_builtin.add_argument("--emit-scenario", action="store_true", dest="emit_scenario")
    p_builtin.add_argument("--out", default=None)
    p_builtin.add_argument("--timings", action="store_true")
    p_builtin.add_argument("--budget", type=_seconds, default=None)
    p_builtin.set_defaults(func=_cmd_builtin)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BoundViolation as e:
        sys.stderr.write(f"inequality failure: {e}\n")
        sys.stderr.write(json.dumps(e.dump, sort_keys=True, indent=2) + "\n")
        return 3
    except (InvalidParameter, ActionInvalid, NeedsSubdivision, OSError) as e:
        sys.stderr.write(f"invalid input: {e}\n")
        return 2
    except (ResourceCapExceeded, GroupTooLarge) as e:
        sys.stderr.write(f"resource cap exceeded: {e}\n")
        return 4


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
