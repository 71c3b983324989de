"""CoNLL ingest, vocabularies, and padded batch construction.

File format: two whitespace-delimited columns (token, BIO label), blank line
between sentences, UTF-8. The literal label ``-100`` is accepted on input and
carries the ignore convention through to the loss.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .errors import ConfigError, ContractError, ParseError
from .rng import RngState
from .tensor import IGNORE_INDEX

IGNORE_LABEL = "-100"
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

_LABEL_RE = re.compile(r"^(O|-100|[BI]-\S+)$")


@dataclass
class Sentence:
    tokens: list[str]
    labels: list[str]

    def __post_init__(self):
        if len(self.tokens) != len(self.labels):
            raise ContractError(
                f"{len(self.tokens)} tokens vs {len(self.labels)} labels")

    def __len__(self) -> int:
        return len(self.tokens)


Corpus = list[Sentence]


def parse_conll(text: str) -> Corpus:
    """Parse two-column CoNLL text into sentences.

    Raises ParseError (with the 1-based line number) on a line that does not
    split into exactly two fields or whose label is not O / B-T / I-T / -100.
    """
    sentences: Corpus = []
    tokens: list[str] = []
    labels: list[str] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            if tokens:
                sentences.append(Sentence(tokens, labels))
                tokens, labels = [], []
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(f"expected 'token label', got {len(fields)} "
                             f"fields in {raw!r}", line=lineno)
        token, label = fields
        if not _LABEL_RE.match(label):
            raise ParseError(f"label {label!r} is not O, B-TYPE, I-TYPE or "
                             f"{IGNORE_LABEL}", line=lineno)
        tokens.append(token)
        labels.append(label)
    if tokens:
        sentences.append(Sentence(tokens, labels))
    return sentences


def serialize_conll(corpus: Corpus) -> str:
    """Inverse of parse_conll on normalized files (single-space, one blank)."""
    blocks = ["\n".join(f"{t} {l}" for t, l in zip(s.tokens, s.labels))
              for s in corpus]
    return "\n\n".join(blocks) + "\n" if blocks else ""


def _ids_in_order(mapping, what: str, reserved: tuple[str, ...]) -> list[str]:
    """Invert a name -> id mapping whose ids are exactly 0..n-1.

    ``reserved`` names must hold the first ids, in order. Anything else,
    including a non-dict, a non-string name or a bool id, is a ConfigError.
    """
    if not isinstance(mapping, dict):
        raise ConfigError(f"{what} must be an object, got {type(mapping).__name__}")
    names: list[str | None] = [None] * len(mapping)
    for name, idx in mapping.items():
        if not isinstance(name, str) or type(idx) is not int \
                or not 0 <= idx < len(names) or names[idx] is not None:
            raise ConfigError(f"{what} must map names to the ids "
                              f"0..{len(names) - 1} once each; got {name!r}: {idx!r}")
        names[idx] = name
    if tuple(names[:len(reserved)]) != reserved:
        raise ConfigError(f"{what} must start with {list(reserved)}, "
                          f"got {names[:len(reserved)]}")
    return names


class LabelVocab:
    """Bijective label <-> id map. O is always id 0; -100 stays -100.

    Ids are assigned in sorted order after O so the mapping depends only on
    the label *set*, never on sentence order.
    """

    def __init__(self, labels: list[str]):
        ordered = ["O"] + sorted(l for l in set(labels) if l not in ("O", IGNORE_LABEL))
        self.id_to_label: list[str] = ordered
        self.label_to_id: dict[str, int] = {l: i for i, l in enumerate(ordered)}

    def __len__(self) -> int:
        return len(self.id_to_label)

    def encode_all(self, labels, count: int = -1) -> np.ndarray:
        """Ids of a label sequence as int64; the ignore label gives -100.

        ``count``, when known, sizes the array up front. Raises ContractError
        naming the first label outside the vocabulary.
        """
        lookup = {**self.label_to_id, IGNORE_LABEL: IGNORE_INDEX}
        try:
            return np.fromiter(map(lookup.__getitem__, labels), np.int64, count)
        except KeyError as exc:
            raise ContractError(f"unknown label {exc.args[0]!r}") from None

    @classmethod
    def from_mapping(cls, mapping) -> "LabelVocab":
        """Rebuild a vocabulary from its ``label_to_id`` (e.g. a checkpoint's).

        Raises ConfigError unless the ids are exactly 0..n-1 with O at id 0
        and every label is O, B-TYPE or I-TYPE (never the ignore label).
        """
        labels = _ids_in_order(mapping, "label vocabulary", ("O",))
        bad = [l for l in labels if l == IGNORE_LABEL or not _LABEL_RE.match(l)]
        if bad:
            raise ConfigError(f"label vocabulary holds {bad[0]!r}, which is "
                              f"not O, B-TYPE or I-TYPE")
        vocab = cls.__new__(cls)
        vocab.id_to_label = labels
        vocab.label_to_id = {l: i for i, l in enumerate(labels)}
        return vocab


def build_label_vocab(corpus: Corpus) -> LabelVocab:
    """Collect the label set of a corpus. Empty corpus is a config error."""
    if not corpus:
        raise ConfigError("cannot build a label vocabulary from an empty corpus")
    seen: list[str] = []
    for sent in corpus:
        seen.extend(sent.labels)
    return LabelVocab(seen)


class TokenVocab:
    """Token <-> id map built from the training split only.

    Id 0 is the padding token, id 1 the unknown token; everything else is
    assigned in sorted order for order independence. Unseen tokens encode
    to UNK rather than erroring.
    """

    def __init__(self, tokens: list[str]):
        uniq = sorted(set(tokens) - {PAD_TOKEN, UNK_TOKEN})
        self.id_to_token = [PAD_TOKEN, UNK_TOKEN] + uniq
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}

    def __len__(self) -> int:
        return len(self.id_to_token)

    @property
    def pad_id(self) -> int:
        return 0

    @property
    def unk_id(self) -> int:
        return 1

    def encode_all(self, tokens, count: int = -1) -> np.ndarray:
        """Ids of a token sequence as int64; unseen tokens give the UNK id.

        ``count``, when known, sizes the array up front.
        """
        return np.fromiter(map(self.token_to_id.get, tokens,
                               repeat(self.unk_id)), np.int64, count)

    @classmethod
    def from_mapping(cls, mapping) -> "TokenVocab":
        """Rebuild a vocabulary from its ``token_to_id`` (e.g. a checkpoint's).

        Raises ConfigError unless the ids are exactly 0..n-1 with the pad
        and unknown tokens at ids 0 and 1.
        """
        tokens = _ids_in_order(mapping, "token vocabulary", (PAD_TOKEN, UNK_TOKEN))
        vocab = cls.__new__(cls)
        vocab.id_to_token = tokens
        vocab.token_to_id = {t: i for i, t in enumerate(tokens)}
        return vocab


def build_token_vocab(corpus: Corpus) -> TokenVocab:
    if not corpus:
        raise ConfigError("cannot build a token vocabulary from an empty corpus")
    tokens: list[str] = []
    for sent in corpus:
        tokens.extend(sent.tokens)
    return TokenVocab(tokens)


@dataclass
class Batch:
    """Padded batch. ``lengths`` is the one record of where the pads are:
    row b holds ``lengths[b]`` real tokens, then pads (id 0, label -100)."""

    token_ids: np.ndarray       # (B, n_max) int64
    label_ids: np.ndarray       # (B, n_max) int64, -100 at pads
    lengths: list[int]          # B lengths, each in [0, n_max]

    def __post_init__(self):
        B, n = self.token_ids.shape
        if self.label_ids.shape != (B, n):
            raise ContractError(
                f"batch field shapes disagree: ids {self.token_ids.shape}, "
                f"labels {self.label_ids.shape}")
        if len(self.lengths) != B or not all(0 <= m <= n for m in self.lengths):
            raise ContractError(f"lengths {self.lengths} for {B} rows of "
                                f"{n} tokens: need one in [0, {n}] per row")


def make_batches(corpus: Corpus, batch_size: int, max_len: int,
                 token_vocab: TokenVocab, label_vocab: LabelVocab,
                 rng: RngState | None = None,
                 encode_labels: bool = True) -> list[Batch]:
    """Cut a corpus into padded batches.

    Sentences longer than max_len are truncated. The whole corpus is encoded
    in one pass into one padded matrix per field, and each batch takes its
    rows from those. When ``rng`` is given the sentence order is shuffled
    first; otherwise corpus order is kept. Each batch is padded to its own
    longest sentence. ``encode_labels=False`` leaves every label id at -100
    (prediction over unlabeled input).
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")
    lengths = np.minimum(np.fromiter((len(s.tokens) for s in corpus),
                                     np.int64, len(corpus)), max_len)
    mask = np.arange(lengths.max(initial=0)) < lengths[:, None]
    total = int(lengths.sum())
    token_ids = np.full(mask.shape, token_vocab.pad_id, dtype=np.int64)
    token_ids[mask] = token_vocab.encode_all(
        chain.from_iterable(s.tokens[:max_len] for s in corpus), total)
    label_ids = np.full(mask.shape, IGNORE_INDEX, dtype=np.int64)
    if encode_labels:
        label_ids[mask] = label_vocab.encode_all(
            chain.from_iterable(s.labels[:max_len] for s in corpus), total)
    order = (np.arange(len(corpus)) if rng is None
             else rng.permutation(len(corpus)))
    batches = []
    for start in range(0, len(corpus), batch_size):
        rows = order[start:start + batch_size]
        row_lengths = lengths[rows].tolist()
        n = max(row_lengths)
        batches.append(Batch(token_ids[rows, :n], label_ids[rows, :n],
                             row_lengths))
    return batches


def parse_predict_input(text: str) -> Corpus:
    """Lenient parse for prediction: one token per line, label optional.

    A present label column is ignored (it is usually O or a placeholder);
    blank lines separate sentences as usual.
    """
    sentences: Corpus = []
    tokens: list[str] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            if tokens:
                sentences.append(Sentence(tokens, ["O"] * len(tokens)))
                tokens = []
            continue
        fields = line.split()
        if len(fields) > 2:
            raise ParseError(f"expected 'token' or 'token label', got "
                             f"{len(fields)} fields in {raw!r}", line=lineno)
        tokens.append(fields[0])
    if tokens:
        sentences.append(Sentence(tokens, ["O"] * len(tokens)))
    return sentences
