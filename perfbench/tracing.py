"""Per-layer timing from outside the library.

A traced run replaces each public function at the name its caller looks
it up under (``graphfuse.model.gat_forward``, not ``graphfuse.gat``'s own
binding) with a wrapper that times the call, and restores the originals
afterwards. The benchmark's own calls into a layer (data generation,
checkpoint save and load) are timed with :meth:`Tracer.span` directly.

Backward time cannot be split by layer from outside the autodiff engine,
so ``tensor.backward`` is one number for the whole model.
"""

from __future__ import annotations

import functools
import operator
from contextlib import contextmanager
from importlib import import_module
from time import perf_counter


def _note_lengths(tracer, args, kwargs):
    batch = args[1] if len(args) > 1 else kwargs["batch"]
    tracer.lengths = batch.lengths


def _count_edges(tracer, args, kwargs):
    # a complete self-looped graph over n tokens has n*n edges
    tracer.count("gat.edges", sum(n * n for n in tracer.lengths))


# (module, attribute, span name, hook run before each call). A dotted
# attribute is a method looked up on its class.
TARGETS = (
    ("graphfuse.model", "TokenClassifier.forward", "model.fwd", _note_lengths),
    ("graphfuse.model", "encode", "encoder.fwd", None),
    ("graphfuse.model", "build_fully_connected", "graph.build", None),
    ("graphfuse.model", "gat_forward", "gat.fwd", _count_edges),
    ("graphfuse.kernels", "segment_max", "kernels.segment_max", None),
    ("graphfuse.model", "decode_refine", "decoder.fwd", None),
    ("graphfuse.model", "classify", "head.fwd", None),
    ("graphfuse.model", "masked_cross_entropy", "loss.fwd", None),
    ("graphfuse.tensor", "Tensor.backward", "tensor.backward", None),
    ("graphfuse.training", "make_batches", "data.make_batches", None),
    ("graphfuse.training", "clip_gradients", "training.clip", None),
    ("graphfuse.training", "adamw_step", "training.adamw", None),
    ("graphfuse.training", "evaluate", "training.valid_eval", None),
    ("graphfuse.evaluation", "make_batches", "data.make_batches", None),
    ("graphfuse.evaluation", "score", "metrics.score", None),
)
# calls inside these spans run the model in evaluation mode
EVAL_SCOPES = frozenset({"training.valid_eval"})

# Reported layers: (metric stem, phase, span name, mode). Mode "step" keeps
# only calls made in optimizer steps, "eval" only evaluation-mode calls, and
# None every call of the phase. Each stem reports <stem>_ms, <stem>_calls
# and <stem>_share (% of the phase's wall time), per cycle of its phase.
LAYERS = (
    ("synth.generate", "setup", "synth.generate", None),
    ("model.fwd_train", "train", "model.fwd", "step"),
    ("encoder.fwd_train", "train", "encoder.fwd", "step"),
    ("gat.fwd_train", "train", "gat.fwd", "step"),
    ("decoder.fwd_train", "train", "decoder.fwd", "step"),
    ("head.fwd", "train", "head.fwd", "step"),
    ("loss.fwd", "train", "loss.fwd", "step"),
    ("graph.build", "train", "graph.build", None),
    ("kernels.segment_max", "train", "kernels.segment_max", None),
    ("tensor.backward", "train", "tensor.backward", None),
    ("training.clip", "train", "training.clip", None),
    ("training.adamw", "train", "training.adamw", None),
    ("data.make_batches", "train", "data.make_batches", None),
    ("training.valid_eval", "train", "training.valid_eval", None),
    ("metrics.score", "train", "metrics.score", None),
    ("checkpoint.save", "train", "checkpoint.save", None),
    ("checkpoint.load", "predict", "checkpoint.load", None),
    ("data.make_batches_eval", "predict", "data.make_batches", None),
    ("model.fwd_eval", "predict", "model.fwd", None),
    ("encoder.fwd_eval", "predict", "encoder.fwd", None),
    ("gat.fwd_eval", "predict", "gat.fwd", None),
    ("decoder.fwd_eval", "predict", "decoder.fwd", None),
    ("head.fwd_eval", "predict", "head.fwd", None),
    ("graph.build_eval", "predict", "graph.build", None),
    ("kernels.segment_max_eval", "predict", "kernels.segment_max", None),
)
# (metric, phase, counter): counts without a time
COUNTS = (
    ("gat.edges", "train", "gat.edges"),
    ("gat.edges_eval", "predict", "gat.edges"),
)
PHASES = ("setup", "train", "predict")
# measured by the benchmark loop, not by the tracer; ``--all`` compares it
# with the untraced run's train_tok_s to give the tracing overhead
OVERHEAD = (
    ("trace.train_tok_s", "tok/s", "higher"),
)

# Which end-to-end metric each layer metric should move, the workload where
# it takes the largest share, and the one where it should stay flat.
# "shares" are the traced run's per-cycle shares of the phase wall time
# (seed 0, 40 s, 2 vCPUs, numpy 2.4 with OpenBLAS, numpy kernel backend);
# dominates_on is None where no workload gives the layer a large share.
MOVES = (
    {"layers": ["gat.fwd_train_ms", "gat.fwd_eval_ms", "kernels.segment_max_ms",
                "graph.build_ms", "gat.edges"],
     "moves": ["train_tok_s", "predict_tok_s", "peak_rss_mb"],
     "dominates_on": "relational-full", "flat_on": "copy-encoder (never called)",
     "shares": "relational-full: gat 23 % of train, 60 % of predict "
               "(segment_max 5 % / 13 % of that); copy-encoder: 0"},
    {"layers": ["decoder.fwd_train_ms", "decoder.fwd_eval_ms"],
     "moves": ["train_tok_s", "predict_tok_s"],
     "dominates_on": "relational-full", "flat_on": "copy-encoder (never called)",
     "shares": "relational-full: 15 % of train, 30 % of predict; "
               "copy-encoder: 0"},
    {"layers": ["tensor.backward_ms", "tensor.backward_calls"],
     "moves": ["train_tok_s"],
     "dominates_on": "relational-full",
     "flat_on": "predict_tok_s on every workload (predict runs no backward)",
     "shares": "relational-full: 52 % of train; copy-encoder: 34 % of train"},
    {"layers": ["training.adamw_ms", "training.clip_ms"],
     "moves": ["train_tok_s", "peak_rss_mb (moment buffers)"],
     "dominates_on": "copy-encoder (per-parameter Python overhead)",
     "flat_on": "relational-full",
     "shares": "copy-encoder: adamw 9 % + clip 3 % of train; "
               "relational-full: 1.2 % + 0.4 %"},
    {"layers": ["encoder.fwd_train_ms", "encoder.fwd_eval_ms", "head.fwd_ms",
                "loss.fwd_ms"],
     "moves": ["train_tok_s", "predict_tok_s"],
     "dominates_on": "copy-encoder", "flat_on": "relational-full",
     "shares": "copy-encoder: encoder 17 % + head 2 % + loss 8 % of train, "
               "encoder 24 % + head 6 % of predict; relational-full: about 1 %"},
    {"layers": ["data.make_batches_ms", "metrics.score_ms",
                "training.valid_eval_ms"],
     "moves": ["train_tok_s", "predict_tok_s"],
     "dominates_on": "copy-encoder", "flat_on": "relational-full",
     "shares": "copy-encoder: batching 14 % of train and 36 % of predict, "
               "score 5 %, validation 7 %; relational-full: batching under "
               "1 %, validation 4 % (mostly model forward)"},
    {"layers": ["checkpoint.save_ms", "checkpoint.load_ms"],
     "moves": ["train_tok_s (write)", "predict_tok_s (read)"],
     "dominates_on": None, "flat_on": "train_tok_s on every workload",
     "shares": "save under 1 % of train on both; load 4 % of predict on "
               "relational-full, 8 % on copy-encoder"},
    {"layers": ["synth.generate_ms"],
     "moves": ["setup_s"], "dominates_on": "copy-encoder", "flat_on": None,
     "shares": "copy-encoder: 40 % of set-up; relational-full: 24 %"},
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    out = []
    for phase in PHASES:
        out += [(f"{phase}.wall_ms", "ms", "lower"),
                (f"{phase}.other_ms", "ms", "lower"),
                (f"{phase}.other_share", "%", "lower")]
        for stem, ph, _, _ in LAYERS:
            if ph == phase:
                out += [(f"{stem}_ms", "ms", "lower"),
                        (f"{stem}_calls", "count", "lower"),
                        (f"{stem}_share", "%", "lower")]
        out += [(name, "count", "lower") for name, ph, _ in COUNTS if ph == phase]
    return out + list(OVERHEAD)


class Tracer:
    """Accumulates span times for one cycle of one phase at a time.

    Spans nest; the time covered by outermost spans is what the phase's
    ``other`` remainder is measured against.
    """

    def __init__(self):
        self.missing: list[str] = []
        self._originals: list[tuple[object, str, object]] = []
        self.begin("setup")

    def begin(self, phase: str) -> None:
        self.phase = phase
        self.totals: dict[tuple[str, str], list] = {}
        self.covered_ms = 0.0
        self.lengths: list[int] = []
        self._depth = 0
        self._eval = int(phase == "predict")

    @property
    def mode(self) -> str:
        return "eval" if self._eval else "step"

    def count(self, name: str, n: int) -> None:
        self.totals.setdefault((name, self.mode), [0.0, 0])[1] += n

    @contextmanager
    def span(self, name: str):
        mode = self.mode
        opens_eval = name in EVAL_SCOPES
        self._depth += 1
        self._eval += opens_eval
        t0 = perf_counter()
        try:
            yield
        finally:
            ms = (perf_counter() - t0) * 1e3
            self._depth -= 1
            self._eval -= opens_eval
            tot = self.totals.setdefault((name, mode), [0.0, 0])
            tot[0] += ms
            tot[1] += 1
            if not self._depth:
                self.covered_ms += ms

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        for module, attr, name, hook in TARGETS:
            owner_path, _, leaf = attr.rpartition(".")
            try:
                owner = import_module(module)
                if owner_path:
                    owner = operator.attrgetter(owner_path)(owner)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{attr}")
                continue
            self._originals.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name, hook))

    def uninstall(self) -> None:
        while self._originals:
            owner, leaf, original = self._originals.pop()
            setattr(owner, leaf, original)

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(self, args, kwargs)
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def _total(self, name: str, mode: str | None) -> tuple[float, int]:
        ms, calls = 0.0, 0
        for (span, span_mode), (t, n) in self.totals.items():
            if span == name and mode in (None, span_mode):
                ms += t
                calls += n
        return ms, calls

    def snapshot(self, wall_ms: float) -> dict[str, float]:
        """Layer metrics of the cycle that ``begin`` started."""
        phase = self.phase
        out = {f"{phase}.wall_ms": wall_ms,
               f"{phase}.other_ms": wall_ms - self.covered_ms,
               f"{phase}.other_share": 100.0 * (wall_ms - self.covered_ms) / wall_ms}
        for stem, ph, span, mode in LAYERS:
            if ph == phase:
                ms, calls = self._total(span, mode)
                out[f"{stem}_ms"] = ms
                out[f"{stem}_calls"] = calls
                out[f"{stem}_share"] = 100.0 * ms / wall_ms
        for name, ph, counter in COUNTS:
            if ph == phase:
                out[name] = self._total(counter, None)[1]
        return out
