"""Synthetic token-classification tasks.

Three generators with one knob set:

* ``copy`` — the label is a fixed function of the token itself. Any
  per-token model solves it; it anchors convergence tests.
* ``window`` — the label depends on the *previous* token (a sequential cue).
* ``relational-match`` — whether a token is labeled B-DUP or B-UNIQ depends
  on whether its twin occurs elsewhere in the sentence, at least ``MIN_GAP``
  tokens away. The cue is order-free and long-range: provably invisible to
  any fixed 5-token window, but trivially visible on a complete token graph.
  One deterministic key token per sentence (B-KEY) gives purely local models
  partial credit, so ablations separate cleanly instead of collapsing to 0.

Generation is a pure function of the TaskSpec: same spec, byte-identical
corpora. Splits are disjoint at the sentence level.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .data import Corpus, Sentence
from .errors import ConfigError
from .rng import RngState

KINDS = ("copy", "window", "relational-match")

# relational-match: the least distance between twins, and the number of
# probe and key token types
MIN_GAP = 20
N_PROBES = 10
N_KEYS = 4


@dataclass(frozen=True)
class TaskSpec:
    kind: str = "relational-match"
    vocab_size: int = 64
    len_min: int = 24
    len_max: int = 36
    seed: int = 0
    n_train: int = 500
    n_valid: int = 100
    n_test: int = 200

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"task kind must be one of {KINDS}, got {self.kind!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for key in ("n_train", "n_valid", "n_test"):
            if (value := getattr(self, key)) < 1:
                raise ConfigError(f"{key} must be >= 1, got {value}")
        if not 1 <= self.len_min <= self.len_max:
            raise ConfigError(f"bad length range [{self.len_min}, {self.len_max}]")
        if self.vocab_size < 4:
            raise ConfigError(f"vocab_size too small: {self.vocab_size}")
        if self.kind == "relational-match":
            if self.len_min < MIN_GAP + 2:
                raise ConfigError(
                    f"len_min {self.len_min} cannot host a duplicate pair "
                    f"{MIN_GAP} apart plus a key token")
            n_fillers = self.vocab_size - N_PROBES - N_KEYS
            if n_fillers < self.len_max:
                raise ConfigError(
                    f"need at least len_max={self.len_max} filler tokens for "
                    f"all-distinct fill, have {n_fillers}")


def copy_spec(seed: int = 0, **overrides) -> TaskSpec:
    base = TaskSpec(kind="copy", vocab_size=24, len_min=6, len_max=12,
                    seed=seed, n_train=300, n_valid=60, n_test=120)
    return replace(base, **overrides)


def window_spec(seed: int = 0, **overrides) -> TaskSpec:
    base = TaskSpec(kind="window", vocab_size=24, len_min=6, len_max=12,
                    seed=seed, n_train=300, n_valid=60, n_test=120)
    return replace(base, **overrides)


def relational_spec(seed: int = 0, **overrides) -> TaskSpec:
    return replace(TaskSpec(seed=seed), **overrides)


def copy_label(token: str) -> str:
    """Fixed token -> label rule for the copy task."""
    idx = int(token[1:])
    return ("O", "B-A", "B-B")[idx % 3]


def window_triggers(spec: TaskSpec) -> set[str]:
    """First quarter of the vocabulary triggers a B-W on the *next* token."""
    return {f"t{i:02d}" for i in range((spec.vocab_size + 3) // 4)}


def relational_vocab(spec: TaskSpec) -> tuple[list[str], list[str], list[str]]:
    probes = [f"p{i:02d}" for i in range(N_PROBES)]
    keys = [f"k{i}" for i in range(N_KEYS)]
    fillers = [f"f{i:02d}" for i in range(spec.vocab_size - N_PROBES - N_KEYS)]
    return probes, keys, fillers


def _gen_copy(spec: TaskSpec, rng: RngState) -> Sentence:
    n = int(rng.integers(spec.len_min, spec.len_max + 1))
    tokens = [f"t{int(i):02d}" for i in rng.integers(0, spec.vocab_size, (n,))]
    return Sentence(tokens, [copy_label(t) for t in tokens])


def _gen_window(spec: TaskSpec, rng: RngState) -> Sentence:
    n = int(rng.integers(spec.len_min, spec.len_max + 1))
    tokens = [f"t{int(i):02d}" for i in rng.integers(0, spec.vocab_size, (n,))]
    triggers = window_triggers(spec)
    labels = ["O"] + ["B-W" if tokens[i - 1] in triggers else "O"
                      for i in range(1, n)]
    return Sentence(tokens, labels)


def _gen_relational(spec: TaskSpec, rng: RngState) -> Sentence:
    probes, keys, fillers = relational_vocab(spec)
    n = int(rng.integers(spec.len_min, spec.len_max + 1))
    probe = probes[int(rng.integers(0, len(probes)))]
    key = keys[int(rng.integers(0, len(keys)))]
    duplicated = bool(rng.bernoulli(0.5))
    if duplicated:
        x1 = int(rng.integers(0, n - MIN_GAP))
        x2 = int(rng.integers(x1 + MIN_GAP, n))
        probe_positions = [x1, x2]
    else:
        probe_positions = [int(rng.integers(0, n))]
    free = [i for i in range(n) if i not in probe_positions]
    key_position = free[int(rng.integers(0, len(free)))]

    tokens = [""] * n
    labels = ["O"] * n
    probe_label = "B-DUP" if duplicated else "B-UNIQ"
    for pos in probe_positions:
        tokens[pos] = probe
        labels[pos] = probe_label
    tokens[key_position] = key
    labels[key_position] = "B-KEY"
    fill_slots = [i for i in range(n) if not tokens[i]]
    picks = rng.choice(len(fillers), size=len(fill_slots), replace=False)
    for slot, pick in zip(fill_slots, picks):
        tokens[slot] = fillers[int(pick)]
    return Sentence(tokens, labels)


_GENERATORS = {
    "copy": _gen_copy,
    "window": _gen_window,
    "relational-match": _gen_relational,
}


def generate(spec: TaskSpec) -> dict[str, Corpus]:
    """{train, valid, test} corpora, sentence-disjoint, a pure function of
    the TaskSpec."""
    spec.validate()
    rng = RngState(spec.seed)
    gen = _GENERATORS[spec.kind]
    seen: set[tuple[str, ...]] = set()
    splits: dict[str, Corpus] = {}
    for name, size in (("train", spec.n_train), ("valid", spec.n_valid),
                       ("test", spec.n_test)):
        sentences: Corpus = []
        guard = 0
        while len(sentences) < size:
            sent = gen(spec, rng)
            signature = tuple(sent.tokens)
            if signature in seen:
                guard += 1
                if guard > 200 * size:
                    raise ConfigError(
                        "vocabulary too small to generate disjoint splits")
                continue
            seen.add(signature)
            sentences.append(sent)
        splits[name] = sentences
    return splits
