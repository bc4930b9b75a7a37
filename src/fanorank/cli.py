"""Command line front end.

Subcommands mirror the library surface: ``validate``, ``analyze``,
``check``, ``construct``, ``enumerate2d`` and ``batch``.  All output is
JSON (or the polytope text format for the constructors) with stable key
and array order, so runs over the same input are byte-identical.
``batch`` still accepts ``--jobs K`` but ignores it: every command runs
the polytopes one after another in input order.

Exit codes: 0 clean; 1 a polytope failed validation; 2 a theorem-level
check failed, which indicates a bug rather than mathematics; 3 the input
could not be parsed or read.  When several apply the most severe wins
(3, then 2, then 1).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bounds import analyze, check_casagrande, check_cfh, check_strong, check_weak
from .enum2d import enumerate_2d
from .fan import Fan
from .formats import (
    FamilySpecError,
    ParseError,
    batch_exit_code,
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


def _gather_files(paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.glob("*.poly")))
        else:
            files.append(path)
    return files


def _parse_inputs(paths: list[str]) -> list[FanoPolytope] | None:
    polytopes: list[FanoPolytope] = []
    failed = False
    for path in _gather_files(paths):
        try:
            polytopes.extend(parse_path(path))
        except (ParseError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            failed = True
    return None if failed else polytopes


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_validate(args: argparse.Namespace) -> int:
    polytopes = _parse_inputs(args.files)
    if polytopes is None:
        return PARSE_EXIT
    records = []
    failed = False
    for p in polytopes:
        report = validate_smooth_fano(p)
        failed = failed or not report.passed
        record = {"name": p.name}
        record.update(validation_to_dict(report))
        records.append(record)
    _emit(json.dumps(records, sort_keys=True, indent=2) + "\n", args.out)
    return VALIDATION_EXIT if failed else 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    polytopes = _parse_inputs(args.files)
    if polytopes is None:
        return PARSE_EXIT
    reports = [analyze(p) for p in polytopes]
    _emit(
        json.dumps([report_to_dict(r) for r in reports], sort_keys=True, indent=2) + "\n",
        args.out,
    )
    return batch_exit_code(reports)


_CHECKERS = {
    "casagrande": lambda fan: (check_casagrande(fan),),
    "cfh": check_cfh,
    "strong": check_strong,
    "weak": check_weak,
}


def _cmd_check(args: argparse.Namespace) -> int:
    polytopes = _parse_inputs(args.files)
    if polytopes is None:
        return PARSE_EXIT
    records = []
    code = 0
    for p in polytopes:
        report = validate_smooth_fano(p)
        if not report.passed:
            records.append({"name": p.name, "valid": False, "checks": []})
            code = max(code, VALIDATION_EXIT)
            continue
        fan = Fan.from_polytope(p)
        checks = _CHECKERS[args.which](fan)
        if any(c.is_theorem_violation for c in checks):
            code = THEOREM_EXIT
        records.append(
            {"name": p.name, "valid": True, "checks": [check_to_dict(c) for c in checks]}
        )
    _emit(json.dumps(records, sort_keys=True, indent=2) + "\n", args.out)
    return code


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
    polytopes = _parse_inputs(args.paths)
    if polytopes is None:
        return PARSE_EXIT
    reports = [analyze(p) for p in polytopes]
    _emit(batch_json(reports) + "\n", args.out)
    return batch_exit_code(reports)


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
    p_check.add_argument("--which", required=True, choices=sorted(_CHECKERS))
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
