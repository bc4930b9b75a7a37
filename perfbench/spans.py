"""Spans recorded from the benchmark's own files around calls into fanorank.

``install`` replaces the module attributes through which fanorank's layers
call each other with wrappers that record a span per call; ``uninstall``
puts the originals back.  Nothing in the library changes, and the
wrappers exist only in the process of a traced run.

A span is ``(id, name, start, end, parent, input_id, count)``.  Spans are
kept in memory and written out when the run ends.  A thread that opens
a span with no span of its own open (a ``--jobs`` worker inside
``fanorank batch``) takes the main thread's innermost open span as the
parent, so a layer's self time (its duration minus the time its
children cover) stays right when children overlap.
"""

from __future__ import annotations

import itertools
import json
import threading
from time import perf_counter

ID, NAME, START, END, PARENT, INPUT, COUNT = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[tuple[int, str | None]] = []
        self._local.stack = self._main_stack

    def _stack(self) -> list[tuple[int, str | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, input_id: str | None = None) -> "_Span":
        return _Span(self, name, input_id)

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span per call; ``count(result)`` sets its count."""
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name) as s:
                result = fn(*args, **kwargs)
                if count is not None:
                    s.count = count(result)
                return result

        return wrapper

    def write(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "input", "count")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "input_id", "count", "id", "parent", "start", "stack")

    def __init__(self, tracer: Tracer, name: str, input_id: str | None) -> None:
        self.tracer = tracer
        self.name = name
        self.input_id = input_id
        self.count = None

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        stack = tracer._stack()
        if stack:
            parent, inherited = stack[-1]
        else:
            try:
                parent, inherited = tracer._main_stack[-1]
            except IndexError:
                parent, inherited = None, None
        if self.input_id is None:
            self.input_id = inherited
        self.parent = parent
        self.id = next(tracer._ids)
        self.stack = stack
        stack.append((self.id, self.input_id))
        self.start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = perf_counter()
        self.stack.pop()
        self.tracer.spans.append(
            (self.id, self.name, self.start, end, self.parent, self.input_id, self.count)
        )


def _patch(patches: list, owner, attr: str, value) -> None:
    patches.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, value)


def install(lib, tracer: Tracer):
    """Wrap each layer's entry points in ``lib``; returns the undo list."""
    patches: list = []
    bounds, cli, enum2d, fan, mori, polytope = (
        lib.bounds, lib.cli, lib.enum2d, lib.fan, lib.mori, lib.polytope,
    )
    wrap = tracer.wrap

    analyze = bounds.analyze

    def traced_analyze(p):
        hull(tracer, lib, p)
        with tracer.span("bounds.analyze", p.name):
            return analyze(p)

    _patch(patches, bounds, "analyze", traced_analyze)
    _patch(patches, cli, "analyze", traced_analyze)

    validate = wrap("polytope.validate", bounds.validate_smooth_fano)
    _patch(patches, bounds, "validate_smooth_fano", validate)
    _patch(patches, enum2d, "validate_smooth_fano", validate)
    normal_form = polytope.FanoPolytope.normal_form

    def traced_normal_form(p):
        hull(tracer, lib, p)
        with tracer.span("polytope.normal_form"):
            return normal_form(p)

    _patch(patches, polytope.FanoPolytope, "normal_form", traced_normal_form)

    from_polytope = fan.Fan.__dict__["from_polytope"].__func__

    def traced_from_polytope(cls, p):
        result = from_polytope(cls, p)
        with tracer.span("fan.faces") as s:
            result.all_faces
            s.count = len(result.face_set)
        return result

    _patch(patches, fan.Fan, "from_polytope", classmethod(traced_from_polytope))
    _patch(
        patches,
        fan.Fan,
        "minimal_cone_containing",
        wrap("fan.locate", fan.Fan.minimal_cone_containing),
    )

    collections = wrap("mori.collections", mori.primitive_collections, count=len)
    _patch(patches, bounds, "primitive_collections", collections)
    _patch(patches, mori, "primitive_collections", collections)
    _patch(patches, bounds, "primitive_relation", wrap("mori.relations", bounds.primitive_relation))
    _patch(patches, bounds, "minimal_components", wrap("mori.components", bounds.minimal_components))
    for name in ("check_casagrande", "check_cfh", "check_strong", "check_weak"):
        _patch(patches, bounds, name, wrap("bounds.checks", getattr(bounds, name)))

    inverse = wrap("lattice.unimodular_inverse", fan.unimodular_inverse)
    _patch(patches, fan, "unimodular_inverse", inverse)
    _patch(patches, polytope, "unimodular_inverse", inverse)
    _patch(patches, polytope, "determinant", wrap("lattice.determinant", polytope.determinant))

    _patch(patches, cli, "parse_path", wrap("formats.parse", cli.parse_path))
    _patch(
        patches,
        cli,
        "batch_json",
        wrap("formats.json", cli.batch_json, count=lambda text: len(text.encode("utf-8"))),
    )
    _patch(patches, enum2d, "enumerate_2d", wrap("enum2d.enumerate", enum2d.enumerate_2d, count=len))
    return patches


def uninstall(patches: list) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def hull(tracer: Tracer, lib, p) -> None:
    """First access of ``face_lattice`` on a fresh polytope, as its own span.

    Later spans then see the hull cached.  A polytope whose hull is cached
    already (``enumerate_2d`` validates before it takes a normal form)
    records no span.  Invalid shapes raise from the property; the span
    still records the time the hull took to reject.
    """
    if "face_lattice" in p.__dict__:
        return
    with tracer.span("polytope.hull", p.name) as s:
        try:
            s.count = len(p.face_lattice.facets)
        except lib.polytope.NotFanoShapeError:
            s.count = 0


# -- per-layer metrics ---------------------------------------------------------------

# metric -> (span name, what to take): "total" sums durations, "self"
# subtracts the time children cover, "calls" counts spans and "count"
# sums their counts.
LAYER_METRICS = {
    "polytope.hull_s": ("polytope.hull", "total"),
    "polytope.facets": ("polytope.hull", "count"),
    "polytope.validate_s": ("polytope.validate", "total"),
    "polytope.normal_form_s": ("polytope.normal_form", "total"),
    "polytope.normal_form_calls": ("polytope.normal_form", "calls"),
    "fan.faces_s": ("fan.faces", "total"),
    "fan.faces": ("fan.faces", "count"),
    "fan.locate_s": ("fan.locate", "total"),
    "fan.locate_calls": ("fan.locate", "calls"),
    "mori.collections_s": ("mori.collections", "total"),
    "mori.collections_calls": ("mori.collections", "calls"),
    "mori.collections": ("mori.collections", "count"),
    "mori.relations_s": ("mori.relations", "self"),
    "mori.components_s": ("mori.components", "self"),
    "bounds.checks_s": ("bounds.checks", "total"),
    "bounds.analyze_self_s": ("bounds.analyze", "self"),
    "lattice.unimodular_inverse_calls": ("lattice.unimodular_inverse", "calls"),
    "lattice.unimodular_inverse_s": ("lattice.unimodular_inverse", "total"),
    "lattice.determinant_calls": ("lattice.determinant", "calls"),
    "lattice.determinant_s": ("lattice.determinant", "total"),
    "formats.parse_s": ("formats.parse", "total"),
    "formats.json_s": ("formats.json", "total"),
    "formats.json_bytes": ("formats.json", "count"),
    "cli.batch_self_s": ("cli.batch", "self"),
    "enum2d.enumerate_s": ("enum2d.enumerate", "total"),
    "enum2d.classes": ("enum2d.enumerate", "count"),
}


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the part of [start, end] that the union of intervals covers."""
    total = 0.0
    cursor = start
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, end)
        if b > a:
            total += b - a
            cursor = b
    return total


def layer_totals(spans: list[tuple]) -> dict[str, float]:
    """Every ``LAYER_METRICS`` entry over one pass's spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    acc = {"total": {}, "self": {}, "calls": {}, "count": {}}
    for s in spans:
        name = s[NAME]
        duration = s[END] - s[START]
        acc["total"][name] = acc["total"].get(name, 0.0) + duration
        own = duration - _covered(s[START], s[END], children.get(s[ID], []))
        acc["self"][name] = acc["self"].get(name, 0.0) + own
        acc["calls"][name] = acc["calls"].get(name, 0) + 1
        acc["count"][name] = acc["count"].get(name, 0) + (s[COUNT] or 0)
    return {metric: acc[kind].get(name, 0) for metric, (name, kind) in LAYER_METRICS.items()}
