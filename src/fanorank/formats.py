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
numeral), ``hexagon``, and ``product(<spec>,<spec>,...)``, nested up to
``MAX_SPEC_DEPTH`` (100) products deep.  A spec is sized before any
vertex is built, and one whose dimension times vertex count exceeds
``MAX_SPEC_ENTRIES`` (10,000,000; simplex:3000 has 9,003,000) is refused
with FamilySpecError, as is one nested deeper.  Reports serialize to JSON
with sorted keys and deterministically ordered arrays so equal analyses
produce byte-identical output.
"""

from __future__ import annotations

import json
import re
from functools import partial, reduce
from itertools import accumulate
from typing import Callable, Sequence

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
            name, opened = line[len("polytope") :].strip(), lineno
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
        raise ParseError(f"unterminated block {name!r}", source, opened)
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


# the most vertex entries (dimension x vertex count) a family spec may build:
# simplex:3000 has 9,003,000
MAX_SPEC_ENTRIES = 10_000_000
# the most products a family spec may nest, one inside the next: parsing and
# building each take a stack frame per level
MAX_SPEC_DEPTH = 100


def _parse_spec(text: str, pos: int) -> tuple[Callable[[], FanoPolytope], int, int, int]:
    """The spec at ``pos``, sized but not built: (builder of its polytope,
    its dimension, its vertex count, the position after it).  No vertex
    exists until the builder runs, and a numeral too long to be under
    ``MAX_SPEC_ENTRIES`` never reaches ``int``."""
    while pos < len(text) and text[pos].isspace():
        pos += 1
    if text.startswith("product(", pos):
        pos += len("product(")
        factors = []
        while True:
            *factor, pos = _parse_spec(text, pos)
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
        builders, dims, counts = zip(*factors)

        def build() -> FanoPolytope:
            parts = []
            for make in builders:  # a comprehension would add a frame per nesting level
                parts.append(make())
            built = reduce(free_sum, parts)
            name = "product(" + ",".join(f.name for f in parts) + ")"
            return FanoPolytope(built.dim, built.vertices, name)

        return build, sum(dims), sum(counts), pos
    if text.startswith("simplex:", pos):
        pos += len("simplex:")
        start = pos
        while pos < len(text) and "0" <= text[pos] <= "9":
            pos += 1
        if start == pos:
            raise FamilySpecError("simplex needs a dimension, e.g. simplex:3")
        digits = text[start:pos].lstrip("0")
        # a numeral longer than the limit's is a dimension above it, and n (n + 1) more so
        if len(digits) > len(str(MAX_SPEC_ENTRIES)):
            raise FamilySpecError(
                f"simplex dimension of {len(digits)} digits: over {MAX_SPEC_ENTRIES} vertex entries"
            )
        n = int(digits or "0")
        if n < 1:
            raise FamilySpecError("simplex dimension must be at least 1")
        return partial(simplex, n), n, n + 1, pos
    if text.startswith("hexagon", pos):
        return hexagon, 2, 6, pos + len("hexagon")
    raise FamilySpecError(f"unrecognized family spec at position {pos}: {text[pos:]!r}")


def construct(spec: str) -> FanoPolytope:
    """Build a polytope from a family spec string, named by the normalized spec.

    The spec is sized before anything is built: one of more than
    ``MAX_SPEC_ENTRIES`` vertex entries raises FamilySpecError, and so
    does one that opens more than ``MAX_SPEC_DEPTH`` parentheses at once,
    before it is parsed.
    """
    depth = max(accumulate((ch == "(") - (ch == ")") for ch in spec), default=0)
    if depth > MAX_SPEC_DEPTH:
        raise FamilySpecError(f"products nested {depth} deep: over {MAX_SPEC_DEPTH}")
    build, dim, count, pos = _parse_spec(spec, 0)
    while pos < len(spec) and spec[pos].isspace():
        pos += 1
    if pos != len(spec):
        raise FamilySpecError(f"trailing input after spec: {spec[pos:]!r}")
    if dim * count > MAX_SPEC_ENTRIES:
        raise FamilySpecError(
            f"spec of dimension {dim} with {count} vertices: "
            f"{dim * count} vertex entries, over {MAX_SPEC_ENTRIES}"
        )
    return build()


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

