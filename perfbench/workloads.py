"""The four benchmark workloads: their inputs, one pass of operations, and checks.

An operation is one call into fanorank whose latency the benchmark times;
its output is checked against ``oracle.py`` right after the timer stops.
Every operation builds fresh ``FanoPolytope`` objects, because the hull,
the face lattice and the face sets are cached properties and a reused
object would time a cache hit.

Each workload keeps ``COPIES`` seeded images of every input and each
operation on an input takes the next one, so one run averages over many
maps instead of depending on one map's luck.  The warm-up round of the
set-up runs each distinct operation once on the textbook coordinates, so
set-up time does not depend on the seed.  Within a pass the inputs repeat
in a fixed mix, chosen so that the median and the tail percentile fall
inside one input's band of latencies, never on the boundary between two
inputs, where the statistic would jump with the pass count.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs as gen
import oracle
import spans

COPIES = 24


@dataclass
class Slot:
    """One operation of a pass: ``run(copy)`` is timed, ``check`` is not."""

    label: str
    polytopes: int
    run: Callable
    check: Callable
    span: str = "op"


def _faces_seen(op_spans) -> int | None:
    if op_spans is None:
        return None
    return sum(s[spans.COUNT] or 0 for s in op_spans if s[spans.NAME] == "fan.faces")


def _analyze_slot(lib, inp: gen.Input, expect: oracle.Expect) -> Slot:
    def run(k):
        p = lib.polytope.FanoPolytope(inp.dim, inp.copies[k], inp.name)
        return p, lib.bounds.analyze(p)

    def check(k, out, op_spans):
        p, report = out
        return oracle.check_report(
            expect,
            oracle.plain_report(report),
            inp.copies[k],
            facets=len(p.face_lattice.facets),
            faces=_faces_seen(op_spans),
        )

    return Slot(inp.name, 1, run, check)


class Workload:
    name = ""
    # Fixed per workload: a percentile that leaves at least ten samples
    # beyond it in a baseline run.  Fixed, not derived from the sample
    # count, so a faster program that fits more passes does not move it
    # into another band.
    tail_percentile: float
    valid_analyses_per_pass = 0

    def __init__(self, lib, seed: int, workdir: Path) -> None:
        self.lib = lib
        self.rng = random.Random(f"{self.name}/{seed}")
        self.inputs: list[gen.Input] = []
        self.expects: dict[str, oracle.Expect] = {}
        self.plan: list[Slot] = []
        self.warmup: list[Slot] = []
        self.jobs_one: Slot | None = None

    def _add(self, name: str, factors: tuple[str, ...]) -> gen.Input:
        inp = gen.make_input(name, factors, self.rng, COPIES)
        self.inputs.append(inp)
        self.expects[name] = oracle.expect_product(name, factors)
        return inp

    def record(self) -> list[dict]:
        """Each distinct input's (dim, vertices, facets, faces)."""
        out = []
        for inp in self.inputs:
            e = self.expects[inp.name]
            out.append(
                {"name": e.name, "dim": e.dim, "vertices": e.vertex_count, "facets": e.facets, "faces": e.faces}
            )
        return out


class _AnalyzeMix(Workload):
    mix: tuple[tuple[tuple[str, ...], int], ...] = ()

    def __init__(self, lib, seed, workdir):
        super().__init__(lib, seed, workdir)
        for factors, repeat in self.mix:
            name = gen.product_name(factors)
            inp = self._add(name, factors)
            self.warmup.append(_analyze_slot(lib, inp.plain(), self.expects[name]))
            self.plan.extend([_analyze_slot(lib, inp, self.expects[name])] * repeat)
        self.valid_analyses_per_pass = len(self.plan)


class Extremal(_AnalyzeMix):
    name = "extremal"
    # Bands by latency: simplex:1 x hexagon^2 and simplex:6 x hexagon (of
    # similar cost) 0-67%, simplex:2 x hexagon^2 67-89%, hexagon^3 89-100%.
    # The median falls on the two small inputs and the tail on simplex:2 x
    # hexagon^2; hexagon^3 is too slow for ten samples beyond any
    # percentile in one run, so it shows in polytopes_per_s (close to half
    # of the pass time) and in the hull span.  simplex:6 x hexagon runs
    # once per pass, as its time goes mostly to locating cones, not to the
    # hull.
    mix = (
        (("hexagon", "hexagon", "hexagon"), 1),
        (("simplex:2", "hexagon", "hexagon"), 2),
        (("simplex:1", "hexagon", "hexagon"), 5),
        (("simplex:6", "hexagon"), 1),
    )
    tail_percentile = 75.0


class Wide(_AnalyzeMix):
    name = "wide"
    # Bands by latency: simplex:13 0-20%, simplex:6^2 20-60%, simplex:4^3
    # 60-100%, so the median falls on simplex:6^2 and the tail on the
    # hardest input.
    mix = (
        (("simplex:13",), 1),
        (("simplex:6", "simplex:6"), 2),
        (("simplex:4", "simplex:4", "simplex:4"), 2),
    )
    tail_percentile = 70.0


class Corpus(Workload):
    name = "corpus"
    # The two largest members are extremal's inputs.  With them one batch
    # call took about 2 s, 70% of it on hexagon^3, and the eight calls a run
    # could fit gave medians that spread by 13% to 17% between runs.
    left_out = ("product(hexagon,hexagon,hexagon)", "product(simplex:2,hexagon,hexagon)")
    tail_percentile = 70.0

    def __init__(self, lib, seed, workdir):
        super().__init__(lib, seed, workdir)
        self.inputs = gen.corpus_inputs(self.rng, COPIES, self.left_out)
        for inp in self.inputs:
            if inp.condition is None:
                self.expects[inp.name] = oracle.expect_product(inp.name, inp.factors)
            else:
                self.expects[inp.name] = oracle.expect_invalid(
                    inp.name, inp.dim, len(inp.copies[0]), inp.condition
                )
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        self.out = workdir / "batch.json"
        self.valid_analyses_per_pass = sum(1 for i in self.inputs if i.condition is None)
        files = self._write(self.inputs, "corpus")
        self.plan = [self._batch_slot(self.inputs, files, jobs=2)]
        self.jobs_one = self._batch_slot(self.inputs, files, jobs=1)
        plain = [inp.plain() for inp in self.inputs]
        self.warmup = [self._batch_slot(plain, self._write(plain, "plain"), jobs=2)]

    def _write(self, inputs: list[gen.Input], stem: str) -> list[Path]:
        """One ``.poly`` file per copy of ``inputs``."""
        files = []
        for k in range(len(inputs[0].copies)):
            path = self.workdir / f"{stem}-{k}.poly"
            path.write_text(gen.poly_text(inputs, k), encoding="utf-8")
            files.append(path)
        return files

    def _batch_slot(self, inputs: list[gen.Input], files: list[Path], jobs: int) -> Slot:
        expects = [self.expects[i.name] for i in inputs]
        faces = sum(e.faces for e in expects if e.condition is None)

        def run(k):
            return self.lib.cli.main(
                ["batch", str(files[k]), "--jobs", str(jobs), "--out", str(self.out)]
            )

        def check(k, code, op_spans):
            try:
                doc = json.loads(self.out.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                return [f"batch output unreadable: {exc!r}"]
            vertices = [i.copies[k] for i in inputs]
            problems = oracle.check_batch(expects, vertices, doc, code)
            seen = _faces_seen(op_spans)
            if seen is not None and seen != faces:
                problems.append(f"batch built {seen} faces, expected {faces}")
            return problems

        return Slot(f"corpus --jobs {jobs}", len(expects), run, check, span="cli.batch")


class Classify(Workload):
    name = "classify"
    # One enumerate_2d call and 22 normal forms per pass; the slowest
    # two (enumerate_2d and simplex:1 x hexagon^2, of similar cost) hold
    # the top 8.7% band.
    tail_percentile = 95.0
    max_dim = 5

    def __init__(self, lib, seed, workdir):
        super().__init__(lib, seed, workdir)
        self.source_forms: dict[str, tuple] = {}
        self.classes: dict[str, tuple] = {}
        enum_slot = Slot(
            "enumerate_2d(2)",
            5,
            lambda k: self.lib.enum2d.enumerate_2d(2),
            lambda k, out, op_spans: oracle.check_two_d_classes([c.vertices for c in out]),
        )
        self.plan = [enum_slot]
        self.warmup = [enum_slot]
        for name, factors in gen.corpus_members():
            if oracle.expect_product(name, factors).dim > self.max_dim:
                continue
            inp = self._add(name, factors)
            self.classes[name] = tuple(sorted(factors))
            self.warmup.append(self._source_slot(inp))
            self.plan.append(self._copy_slot(inp))

    def _source_slot(self, inp: gen.Input) -> Slot:
        """Normal form of the untransformed source: the class a copy must reach."""
        base = gen.free_sum(inp.factors)

        def run(k):
            return self.lib.polytope.FanoPolytope(inp.dim, base, inp.name).normal_form()

        def check(k, form, op_spans):
            self.source_forms[inp.name] = form
            problems = oracle.check_normal_form(self.expects[inp.name], form, form, base)
            if len(self.source_forms) == len(self.classes):
                problems += oracle.check_source_forms(self.classes, self.source_forms)
            return problems

        return Slot(inp.name, 1, run, check)

    def _copy_slot(self, inp: gen.Input) -> Slot:
        base = gen.free_sum(inp.factors)

        def run(k):
            p = self.lib.polytope.FanoPolytope(inp.dim, inp.copies[k], inp.name)
            return p, p.normal_form()

        def check(k, out, op_spans):
            p, form = out
            return oracle.check_normal_form(
                self.expects[inp.name],
                form,
                self.source_forms.get(inp.name),
                base,
                facets=len(p.face_lattice.facets),
            )

        return Slot(inp.name, 1, run, check)


WORKLOADS = {w.name: w for w in (Extremal, Wide, Corpus, Classify)}
