"""Command line front end.

Subcommands mirror the library surface: ``validate``, ``analyze``,
``check``, ``construct``, ``enumerate2d`` and ``batch``.  All output is
JSON (or the polytope text format for the constructors) with stable key
and array order, so runs over the same input are byte-identical.
``validate``, ``analyze``, ``check`` and ``batch`` share one runner and
give only their record shapes (``check`` keeps the checks of one name
from ``analyze``'s record); it takes the polytopes one after another in
input order (``batch --jobs K`` is accepted and ignored).

Exit codes: 0 clean; 1 a polytope failed validation; 2 a theorem-level
check failed, which indicates a bug rather than mathematics; 3 the input
could not be parsed or read.  When several apply the most severe wins
(3, then 2, then 1).  Codes 2 and 1 are decided by ``exit_code`` alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Iterable, Sequence

from .bounds import BoundCheck, analyze
from .enum2d import enumerate_2d
from .formats import (
    FamilySpecError,
    ParseError,
    batch_json,
    construct,
    check_to_dict,
    parse_path,
    polytopes_to_text,
    report_to_dict,
    validation_to_dict,
)
from .polytope import FanoPolytope, validate_smooth_fano

PARSE_EXIT = 3
THEOREM_EXIT = 2
VALIDATION_EXIT = 1
JOBS_HELP = "accepted for compatibility; has no effect"


def exit_code(outcomes: Iterable[tuple[bool, Sequence[BoundCheck]]]) -> int:
    """2 on any theorem-level violation, else 1 on any invalid polytope, else 0,
    from each polytope's ``(valid, checks)``."""
    outcomes = list(outcomes)
    if any(c.is_theorem_violation for _, checks in outcomes for c in checks):
        return THEOREM_EXIT
    return 0 if all(valid for valid, _ in outcomes) else VALIDATION_EXIT


def _run(paths: list[str], out: str | None, evaluate, render) -> int:
    """Parse every input (a directory gives its ``*.poly`` files), ``evaluate``
    each polytope to ``(item, valid, checks)``, emit ``render(items)`` and
    return the exit code."""
    polytopes: list[FanoPolytope] = []
    failed = False
    for given in map(Path, paths):
        for path in sorted(given.glob("*.poly")) if given.is_dir() else [given]:
            try:
                polytopes.extend(parse_path(path))
            except (ParseError, OSError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                failed = True
    if failed:
        return PARSE_EXIT
    results = [evaluate(p) for p in polytopes]
    _emit(render([item for item, _, _ in results]) + "\n", out)
    return exit_code((valid, checks) for _, valid, checks in results)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _json(records: list) -> str:
    return json.dumps(records, sort_keys=True, indent=2)


def _analyzed(p: FanoPolytope):
    report = analyze(p)
    return report, report.valid, report.checks


def _cmd_validate(args: argparse.Namespace) -> int:
    def evaluate(p: FanoPolytope):
        report = validate_smooth_fano(p)
        return {"name": p.name, **validation_to_dict(report)}, report.passed, ()

    return _run(args.files, args.out, evaluate, _json)


def _cmd_analyze(args: argparse.Namespace) -> int:
    return _run(args.files, args.out, _analyzed, lambda rs: _json(list(map(report_to_dict, rs))))


_CHECK_NAMES = ("casagrande", "cfh", "strong", "weak")


def _cmd_check(args: argparse.Namespace) -> int:
    def evaluate(p: FanoPolytope):
        report = analyze(p)
        checks = tuple(c for c in report.checks if c.name == args.which)
        dicts = [check_to_dict(c) for c in checks]
        return {"name": p.name, "valid": report.valid, "checks": dicts}, report.valid, checks

    return _run(args.files, args.out, evaluate, _json)


def _cmd_construct(args: argparse.Namespace) -> int:
    try:
        polytope = construct(args.family)
    except FamilySpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_EXIT
    _emit(polytopes_to_text([polytope]), args.out)
    return 0


def _cmd_enumerate2d(args: argparse.Namespace) -> int:
    if args.box < 1:
        print(f"error: --box must be at least 1, got {args.box}", file=sys.stderr)
        return PARSE_EXIT
    classes = enumerate_2d(args.box)
    _emit(polytopes_to_text(list(classes)), args.out)
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    return _run(args.paths, args.out, _analyzed, batch_json)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fanorank",
        description="Analyze smooth toric Fano polytopes: primitive collections, "
        "minimal components, and Picard rank bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check the smooth Fano conditions")
    p_validate.add_argument("files", nargs="+")
    p_validate.add_argument("--out")
    p_validate.set_defaults(func=_cmd_validate)

    p_analyze = sub.add_parser("analyze", help="full per-polytope reports")
    p_analyze.add_argument("files", nargs="+")
    p_analyze.add_argument("--out")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_check = sub.add_parser("check", help="evaluate one family of bounds")
    p_check.add_argument("--which", required=True, choices=_CHECK_NAMES)
    p_check.add_argument("files", nargs="+")
    p_check.add_argument("--out")
    p_check.set_defaults(func=_cmd_check)

    p_construct = sub.add_parser("construct", help="build a named family member")
    p_construct.add_argument("--family", required=True)
    p_construct.add_argument("--out")
    p_construct.set_defaults(func=_cmd_construct)

    p_enum = sub.add_parser("enumerate2d", help="exhaustive 2D classification")
    p_enum.add_argument("--box", type=int, default=1)
    p_enum.add_argument("--out")
    p_enum.set_defaults(func=_cmd_enumerate2d)

    p_batch = sub.add_parser("batch", help="analyze files or directories of .poly files")
    p_batch.add_argument("paths", nargs="+")
    p_batch.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    p_batch.add_argument("--out")
    p_batch.set_defaults(func=_cmd_batch)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_EXIT


if __name__ == "__main__":
    sys.exit(main())
