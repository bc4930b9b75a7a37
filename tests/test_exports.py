"""The public names and the attributes that the benchmark's traced run patches."""

import importlib
import importlib.util
from pathlib import Path

import fanorank

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
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
