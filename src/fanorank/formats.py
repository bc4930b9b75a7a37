"""Polytope text format, family spec strings, and JSON report serialization.

The text format is line-based and hand-writable::

    # comment
    polytope <name>
    dim <n>
    v <n integers>
    ...
    end

``#`` starts a comment anywhere on a line, blank lines are ignored, and
names must be unique within a file.  Integers are ASCII decimal
numerals with an optional sign.  Family specs are the strings
accepted by ``construct``: ``simplex:<n>`` (``n`` an ASCII decimal
numeral), ``hexagon``, and ``product(<spec>,<spec>,...)`` nested freely.  Reports serialize to JSON
with sorted keys and deterministically ordered arrays so equal analyses
produce byte-identical output.
"""

from __future__ import annotations

import json
import re
from functools import reduce
from typing import Sequence

from .bounds import AnalysisReport, BoundCheck
from .polytope import FanoPolytope, ValidationReport, free_sum, hexagon, simplex


class ParseError(ValueError):
    """Malformed polytope file; carries the 1-based line number."""

    def __init__(self, message: str, source: str = "<string>", line: int = 0):
        super().__init__(f"{source}:{line}: {message}")
        self.source = source
        self.line = line


class ShapeError(ParseError):
    """A vertex row does not match the declared dimension."""


class FamilySpecError(ValueError):
    """Malformed family spec string."""


# -- polytope text format -----------------------------------------------------

# the numerals after a keyword; ``int`` alone would also take "1_0" and non-ASCII digits
_NUMERALS = re.compile(r"(?:\s+[+-]?[0-9]+)*")


def parse_polytopes(text: str, source: str = "<string>") -> list[FanoPolytope]:
    """Parse every block in a polytope file, in file order."""
    polytopes: list[FanoPolytope] = []
    names: set[str] = set()
    name: str | None = None
    dim: int | None = None
    verts: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        keyword = parts[0]
        if name is None:
            if keyword != "polytope":
                raise ParseError(f"expected 'polytope', got {keyword!r}", source, lineno)
            name = line[len("polytope") :].strip()
            if not name:
                raise ParseError("polytope block needs a name", source, lineno)
            if name in names:
                raise ParseError(f"duplicate polytope name {name!r}", source, lineno)
            names.add(name)
        elif dim is None:
            if keyword != "dim" or len(parts) != 2:
                raise ParseError("expected 'dim <n>'", source, lineno)
            if not _NUMERALS.fullmatch(line, len("dim")):
                raise ParseError(f"bad dimension {parts[1]!r}", source, lineno)
            dim = int(parts[1])
            if dim < 1:
                raise ParseError("dimension must be at least 1", source, lineno)
        elif keyword == "v":
            if not _NUMERALS.fullmatch(line, len("v")):
                raise ParseError(f"bad vertex line {line!r}", source, lineno)
            row = tuple(map(int, parts[1:]))
            if len(row) != dim:
                raise ShapeError(
                    f"vertex has {len(row)} coordinates, block dimension is {dim}",
                    source,
                    lineno,
                )
            verts.append(row)
        elif keyword == "end":
            if not verts:
                raise ParseError("polytope block has no vertices", source, lineno)
            polytopes.append(FanoPolytope(dim, tuple(verts), name))
            name, dim, verts = None, None, []
        else:
            raise ParseError(f"unexpected keyword {keyword!r}", source, lineno)
    if name is not None:
        raise ParseError(f"unterminated block {name!r}", source, 0)
    return polytopes


def parse_path(path) -> list[FanoPolytope]:
    with open(path, encoding="utf-8") as handle:
        return parse_polytopes(handle.read(), source=str(path))


def polytope_to_text(p: FanoPolytope, fallback_name: str = "unnamed") -> str:
    lines = [f"polytope {p.name or fallback_name}", f"dim {p.dim}"]
    lines.extend("v " + " ".join(str(x) for x in v) for v in p.vertices)
    lines.append("end")
    return "\n".join(lines) + "\n"


def polytopes_to_text(polytopes: Sequence[FanoPolytope]) -> str:
    blocks = [
        polytope_to_text(p, fallback_name=f"unnamed_{i + 1}")
        for i, p in enumerate(polytopes)
    ]
    return "\n".join(blocks)


# -- family specs --------------------------------------------------------------


def _parse_spec(text: str, pos: int) -> tuple[FanoPolytope, int]:
    """The polytope of the spec at ``pos``, named by its normalized spec,
    and the position after it."""
    while pos < len(text) and text[pos].isspace():
        pos += 1
    if text.startswith("product(", pos):
        pos += len("product(")
        factors = []
        while True:
            factor, pos = _parse_spec(text, pos)
            factors.append(factor)
            while pos < len(text) and text[pos].isspace():
                pos += 1
            if pos >= len(text):
                raise FamilySpecError("unclosed 'product('")
            if text[pos] == ",":
                pos += 1
                continue
            if text[pos] == ")":
                pos += 1
                break
            raise FamilySpecError(f"expected ',' or ')' at position {pos}")
        if len(factors) < 2:
            raise FamilySpecError("product needs at least two factors")
        built = reduce(free_sum, factors)
        name = "product(" + ",".join(f.name for f in factors) + ")"
        return FanoPolytope(built.dim, built.vertices, name), pos
    if text.startswith("simplex:", pos):
        pos += len("simplex:")
        start = pos
        while pos < len(text) and "0" <= text[pos] <= "9":
            pos += 1
        if start == pos:
            raise FamilySpecError("simplex needs a dimension, e.g. simplex:3")
        n = int(text[start:pos])
        if n < 1:
            raise FamilySpecError("simplex dimension must be at least 1")
        return simplex(n), pos
    if text.startswith("hexagon", pos):
        return hexagon(), pos + len("hexagon")
    raise FamilySpecError(f"unrecognized family spec at position {pos}: {text[pos:]!r}")


def construct(spec: str) -> FanoPolytope:
    """Build a polytope from a family spec string, named by the normalized spec."""
    polytope, pos = _parse_spec(spec, 0)
    while pos < len(spec) and spec[pos].isspace():
        pos += 1
    if pos != len(spec):
        raise FamilySpecError(f"trailing input after spec: {spec[pos:]!r}")
    return polytope


# -- JSON reports --------------------------------------------------------------


def validation_to_dict(v: ValidationReport) -> dict:
    return {
        "passed": v.passed,
        "failures": list(v.failures),
        "conditions": [
            {"condition": c.name, "passed": c.passed, "detail": c.detail}
            for c in v.conditions
        ],
    }


def check_to_dict(c: BoundCheck) -> dict:
    return {
        "name": c.name,
        "component": list(c.component.collection) if c.component else None,
        "bound": c.bound,
        "rho": c.rho,
        "satisfied": c.satisfied,
        "asserted_range": c.in_asserted_range,
    }


def report_to_dict(report: AnalysisReport) -> dict:
    return {
        "name": report.name,
        "dim": report.dim,
        "vertex_count": report.vertex_count,
        "picard_rank": report.picard_rank,
        "valid": report.valid,
        "validation": validation_to_dict(report.validation),
        "primitive_relations": [
            {
                "lhs": list(r.collection),
                "rhs": [[i, a] for i, a in r.rhs],
                "degree": r.degree,
            }
            for r in report.relations
        ],
        "minimal_components": [
            {"indices": list(c.collection), "degree": c.degree, "codegree": c.codegree}
            for c in report.components
        ],
        "checks": [check_to_dict(c) for c in report.checks],
    }


def report_json(report: AnalysisReport) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True, indent=2)


def batch_to_dict(reports: Sequence[AnalysisReport]) -> dict:
    """Aggregate record for a batch run: per-polytope reports plus summary counts."""
    theorem = conjecture = out_of_range = 0
    invalid = 0
    for rep in reports:
        if not rep.valid:
            invalid += 1
        for check in rep.checks:
            if check.is_theorem_violation:
                theorem += 1
            elif check.is_conjecture_violation:
                conjecture += 1
            elif check.satisfied is False and not check.in_asserted_range:
                out_of_range += 1
    return {
        "reports": [report_to_dict(r) for r in reports],
        "summary": {
            "polytopes": len(reports),
            "validation_failures": invalid,
            "theorem_violations": theorem,
            "conjecture_violations": conjecture,
            "out_of_range_failures": out_of_range,
        },
    }


def batch_json(reports: Sequence[AnalysisReport]) -> str:
    return json.dumps(batch_to_dict(reports), sort_keys=True, indent=2)

