"""Command-line interface: run scenarios, sweeps, and the builtin catalog.

Every Betti number reported is exact, over Q as over F_p.  Exit codes:
0 success, 2 bad input (parse/validation), 3 a verified inequality failed
(diagnostic dump on stderr), 4 resource caps exceeded, 5 an engine fault:
an engine cross-check failed (the scenario run, if one, on stderr).

The CLI only parses: a flag becomes an int, a float or, for `--fields`, a
comma split.  The engine checks each value and names the field it refuses:
`sweep` its `jobs`, `sweep_scenarios` every other sweep input,
`run_scenario` the budget, `Scenario` and `build_model` a scenario file.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    ActionInvalid,
    BoundViolation,
    CorruptComplex,
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
    return _run_one(Scenario.from_json_dict(data), args)


def _run_one(scenario: Scenario, args) -> int:
    """Run one scenario and emit its report; an engine fault carries the scenario to `main`."""
    try:
        report = run_scenario(scenario, with_timings=args.timings, budget=args.budget)
    except CorruptComplex as e:
        e.dump = {"scenario": scenario.to_json_dict()}
        raise
    _emit(report, args.out)
    return 0


def _cmd_sweep(args) -> int:
    report = sweep(
        n_max=args.n_max,
        samples=args.samples,
        seed=args.seed,
        fields=tuple(args.fields.split(",")),
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
    return _run_one(scenario, args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqh",
        description="Exact homology of sphere quotients with verified uniform bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags of `run` and `builtin`, which both run one scenario (`_run_one`)
    run_flags = argparse.ArgumentParser(add_help=False)
    run_flags.add_argument("--out", default=None)
    run_flags.add_argument("--timings", action="store_true", help="include per-stage timings")
    run_flags.add_argument("--budget", type=float, default=None, help="wall-clock budget (s)")

    p_run = sub.add_parser("run", parents=[run_flags], help="run a scenario file")
    p_run.add_argument("file")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="randomized abelian bound sweep")
    p_sweep.add_argument("--n-max", type=int, default=4)
    p_sweep.add_argument("--samples", type=int, default=50)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--fields", default=",".join(DEFAULT_FIELDS), help="comma-separated labels, e.g. Q,Fp:2")
    p_sweep.add_argument("--jobs", type=int, default=1, help="worker processes, at most one per CPU and sample")
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--max-model-simplices", type=int, default=200_000, help="size guard for the scenario generator")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_builtin = sub.add_parser("builtin", parents=[run_flags], help=f"catalog: {', '.join(BUILTIN_NAMES)}")
    p_builtin.add_argument("name")
    p_builtin.add_argument("params", nargs="*", type=int)
    p_builtin.add_argument("--emit-scenario", action="store_true")
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
    except CorruptComplex as e:
        sys.stderr.write(f"engine fault: {e}\n")
        if e.dump:
            sys.stderr.write(json.dumps(e.dump, sort_keys=True, indent=2) + "\n")
        return 5


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
