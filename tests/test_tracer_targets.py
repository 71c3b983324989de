"""The benchmark's call sites into the package, checked in tier-1, which
never runs ``perfbench/``.

The per-layer tracer wraps functions at their call-site names
(``graphfuse.model.classify``, say); a rename in the package leaves its span
silently empty, so one test resolves every target name the way
``Tracer.install`` does. The workloads build their configs with
``ModelConfig(**preset)`` and ``TrainConfig(**train)`` and call the package
by keyword; one test runs those calls, so a change that breaks them fails
here rather than as a failed benchmark run."""

import contextlib
import importlib.util
import operator
import pathlib
import sys
from importlib import import_module

from graphfuse.evaluation import predict_corpus

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

# kernels.segment_max was deleted from the package; its target is stale until
# the benchmark drops it, and then this set is empty
KNOWN_STALE = {"graphfuse.kernels.segment_max"}


def load_perfbench(monkeypatch, name):
    """perfbench/<name>.py as a module, read without writing bytecode and
    registered in ``sys.modules`` only while the test runs (its dataclasses
    look their module up there)."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves(monkeypatch):
    unresolved = set()
    for module, attr, _, _ in load_perfbench(monkeypatch, "tracing").TARGETS:
        owner_path, _, leaf = attr.rpartition(".")
        try:
            owner = import_module(module)
            if owner_path:
                owner = operator.attrgetter(owner_path)(owner)
            getattr(owner, leaf)
        except (ImportError, AttributeError):
            unresolved.add(f"{module}.{attr}")
    assert unresolved == KNOWN_STALE


def test_every_workload_builds_a_model_and_predicts(monkeypatch):
    """Each workload's set-up, model and predict call, with the keywords
    ``bench.py`` passes, on the first four test sentences."""
    workloads = load_perfbench(monkeypatch, "workloads")
    for workload in workloads.WORKLOADS:
        prep = workloads.prepare(workload, 0,
                                 lambda name: contextlib.nullcontext())
        model = prep.new_model()
        test = prep.splits["test"][:4]
        preds = predict_corpus(model, test, batch_size=16,
                               max_len=model.config.max_len)
        assert [len(p) for p in preds] == [len(s.tokens) for s in test]
