"""The public names and the attributes that the benchmark's traced run patches."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import fanorank

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
SRC = Path(__file__).resolve().parent.parent / "src"
LAYERS = ("bounds", "cli", "enum2d", "fan", "formats", "lattice", "mori", "polytope")


def test_every_exported_name_resolves():
    missing = [name for name in fanorank.__all__ if not hasattr(fanorank, name)]
    assert not missing
    assert len(set(fanorank.__all__)) == len(fanorank.__all__)


def test_traced_run_patches_and_restores_the_library():
    """``perfbench/spans.install`` finds every attribute it wraps, and
    ``uninstall`` puts each original back."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for layer in LAYERS:
        importlib.import_module(f"fanorank.{layer}")
    patches = spans.install(fanorank, spans.Tracer())
    try:
        assert patches
        assert all(owner.__dict__[attr] is not original for owner, attr, original in patches)
    finally:
        spans.uninstall(patches)
    assert all(owner.__dict__[attr] is original for owner, attr, original in patches)


# imports fanorank afresh, as the benchmark's set-up does (perfbench/run.py, load_library)
FRESH_IMPORTS = """
import gc, importlib, sys, weakref

def load():
    for name in [m for m in sys.modules if m == "fanorank" or m.startswith("fanorank.")]:
        del sys.modules[name]
    package = importlib.import_module("fanorank")
    for layer in {layers!r}:
        importlib.import_module("fanorank." + layer)
    return package

first = weakref.ref(load().polytope.FanoPolytope)
load()
gc.collect()
sys.exit("an old copy of fanorank is still alive" if first() is not None else 0)
"""


def test_fresh_imports_leave_no_old_copy_alive():
    """Once fanorank is imported afresh, nothing may keep the earlier copy
    alive: a cache outside the library that holds a library object, such as
    a ``typing`` alias naming a library class, would keep every old copy's
    classes and add to the benchmark's peak memory."""
    script = FRESH_IMPORTS.format(layers=LAYERS)
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
