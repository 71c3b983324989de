"""The benchmark's per-layer tracer wraps functions at their call-site names
(``graphfuse.model.classify``, say). A rename in the package leaves its span
silently empty, because the tier-1 suite never runs ``perfbench/``; this
test resolves every target name the way ``Tracer.install`` does."""

import importlib.util
import operator
import pathlib
import sys
from importlib import import_module

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# kernels.segment_max was deleted from the package; its target is stale until
# the benchmark drops it, and then this set is empty
KNOWN_STALE = {"graphfuse.kernels.segment_max"}


def load_tracing(monkeypatch):
    """perfbench/tracing.py as a module, read without writing bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves(monkeypatch):
    unresolved = set()
    for module, attr, _, _ in load_tracing(monkeypatch).TARGETS:
        owner_path, _, leaf = attr.rpartition(".")
        try:
            owner = import_module(module)
            if owner_path:
                owner = operator.attrgetter(owner_path)(owner)
            getattr(owner, leaf)
        except (ImportError, AttributeError):
            unresolved.add(f"{module}.{attr}")
    assert unresolved == KNOWN_STALE
