"""Data-ingest tests: parsing, vocabularies, batching."""

import json

import numpy as np
import pytest

from graphfuse.data import (Batch, LabelVocab, Sentence, TokenVocab,
                            build_label_vocab, build_token_vocab,
                            make_batches, parse_conll, serialize_conll)
from graphfuse.errors import ConfigError, ContractError, ParseError
from graphfuse.rng import RngState
from graphfuse.synth import copy_spec, generate
from graphfuse.tensor import IGNORE_INDEX

from helpers import length_mask
from oracles import make_batches_reference

FIXTURE = """\
Hà_Nội B-LOC
là O
thủ_đô O

bệnh_nhân B-PATIENT_ID
số I-PATIENT_ID
91 I-PATIENT_ID

tôi O
ho B-SYMPTOM
"""


class TestParse:
    def test_single_token_sentence(self):
        corpus = parse_conll("Hà_Nội B-LOC\n")
        assert len(corpus) == 1
        assert corpus[0].tokens == ["Hà_Nội"]
        assert corpus[0].labels == ["B-LOC"]

    def test_empty_input(self):
        assert parse_conll("") == []
        assert parse_conll("\n\n\n") == []

    def test_fixture_round_trip(self):
        corpus = parse_conll(FIXTURE)
        assert [len(s) for s in corpus] == [3, 3, 2]
        assert serialize_conll(corpus) == FIXTURE

    def test_tab_separated_accepted(self):
        corpus = parse_conll("a\tB-X\nb\tO\n")
        assert corpus[0].labels == ["B-X", "O"]

    def test_ignore_label_accepted(self):
        corpus = parse_conll("sub O\nword -100\n")
        assert corpus[0].labels == ["O", "-100"]

    def test_field_count_error_carries_line_number(self):
        with pytest.raises(ParseError) as e:
            parse_conll("a O\nb\nc O\n")
        assert e.value.line == 2

    def test_bad_label_pattern(self):
        with pytest.raises(ParseError) as e:
            parse_conll("a O\nb X-LOC\n")
        assert e.value.line == 2

    def test_trailing_blank_lines_ignored(self):
        assert len(parse_conll("a O\n\n\n\n")) == 1

    def test_sentence_invariant(self):
        with pytest.raises(ContractError):
            Sentence(["a", "b"], ["O"])


class TestLabelVocab:
    def test_three_labels(self):
        corpus = parse_conll("a O\nb B-LOC\nc I-LOC\n")
        vocab = build_label_vocab(corpus)
        assert len(vocab) == 3
        assert vocab.encode_all(["O"]).tolist() == [0]

    def test_phoner_style_schema_size(self):
        # 10 entity types under BIO -> 20 labels plus O = 21
        types = ["PATIENT_ID", "PERSON_NAME", "AGE", "GENDER", "OCCUPATION",
                 "LOCATION", "ORGANIZATION", "SYMPTOM_AND_DISEASE",
                 "TRANSPORTATION", "DATE"]
        sents = [Sentence(["x", "y", "z"], [f"B-{t}", f"I-{t}", "O"])
                 for t in types]
        assert len(build_label_vocab(sents)) == 21

    def test_order_independence(self):
        corpus = parse_conll("a B-X\nb O\n\nc B-Y\nd I-Y\n")
        flipped = list(reversed(corpus))
        v1 = build_label_vocab(corpus)
        v2 = build_label_vocab(flipped)
        assert v1.label_to_id == v2.label_to_id

    def test_empty_corpus(self):
        with pytest.raises(ConfigError):
            build_label_vocab([])

    def test_ignore_label_never_real(self):
        corpus = parse_conll("a O\nb -100\n")
        vocab = build_label_vocab(corpus)
        assert "-100" not in vocab.label_to_id
        ids = vocab.encode_all(["-100", "O"])
        assert ids.dtype == np.int64
        assert ids.tolist() == [IGNORE_INDEX, 0]

    def test_unknown_label_rejected(self):
        vocab = build_label_vocab(parse_conll("a O\n"))
        with pytest.raises(ContractError, match="B-NOPE"):
            vocab.encode_all(["O", "B-NOPE"])

    def test_json_round_trip(self):
        vocab = build_label_vocab(parse_conll("a B-X\nb O\nc I-X\n"))
        again = LabelVocab.from_mapping(json.loads(json.dumps(vocab.label_to_id)))
        assert again.label_to_id == vocab.label_to_id
        assert again.id_to_label == vocab.id_to_label


class TestTokenVocab:
    def test_reserved_ids(self):
        vocab = build_token_vocab(parse_conll("b O\na O\n"))
        assert vocab.pad_id == 0 and vocab.unk_id == 1
        assert len(vocab) == 4

    def test_unknown_maps_to_unk(self):
        vocab = build_token_vocab(parse_conll("a O\n"))
        ids = vocab.encode_all(["a", "never-seen"])
        assert ids.dtype == np.int64
        assert ids.tolist() == [vocab.token_to_id["a"], vocab.unk_id]

    def test_json_round_trip(self):
        vocab = build_token_vocab(parse_conll("a O\nb O\n"))
        again = TokenVocab.from_mapping(json.loads(json.dumps(vocab.token_to_id)))
        assert again.token_to_id == vocab.token_to_id
        assert again.id_to_token == vocab.id_to_token


# tests/test_checkpoint.py covers a non-object, a reused id and an id past n
@pytest.mark.parametrize("cls, mapping", [
    (LabelVocab, {"B-X": 0, "O": 1}),                 # O holds id 0
    (TokenVocab, {"<unk>": 0, "<pad>": 1}),           # pad, unk hold ids 0, 1
    (TokenVocab, {"<pad>": 0}),
    (TokenVocab, {"<pad>": False, "<unk>": True}),    # bools are not ids
    (TokenVocab, {"<pad>": 0, "<unk>": 1, "a": -1}),
])
def test_from_mapping_rejects(cls, mapping):
    with pytest.raises(ConfigError):
        cls.from_mapping(mapping)


class TestMakeBatches:
    def _small(self):
        corpus = parse_conll(FIXTURE) + parse_conll("x O\n\ny O\nz B-LOC\n")
        tv = build_token_vocab(corpus)
        lv = build_label_vocab(corpus)
        return corpus, tv, lv

    def test_batch_count_and_sizes(self):
        corpus, tv, lv = self._small()
        batches = make_batches(corpus, 2, 128, tv, lv)
        assert [b.token_ids.shape[0] for b in batches] == [2, 2, 1]

    def test_truncation(self):
        corpus = [Sentence(["t"] * 200, ["O"] * 200)]
        tv = build_token_vocab(corpus)
        lv = build_label_vocab(corpus)
        (batch,) = make_batches(corpus, 16, 128, tv, lv)
        assert batch.lengths == [128]
        assert batch.token_ids.shape == (1, 128)

    def test_padding_carries_ignore_and_false_mask(self):
        corpus, tv, lv = self._small()
        for batch in make_batches(corpus, 3, 128, tv, lv):
            pad = ~length_mask(batch.lengths, batch.token_ids.shape[1])
            assert np.all(batch.label_ids[pad] == IGNORE_INDEX)
            assert np.all(batch.token_ids[pad] == tv.pad_id)
            for i, n in enumerate(batch.lengths):
                assert np.all(batch.label_ids[i, :n] != IGNORE_INDEX)

    def test_total_length_preserved(self):
        corpus, tv, lv = self._small()
        batches = make_batches(corpus, 2, 128, tv, lv)
        assert sum(sum(b.lengths) for b in batches) == sum(len(s) for s in corpus)

    def test_shuffle_reproducible(self):
        corpus, tv, lv = self._small()
        a = make_batches(corpus, 2, 128, tv, lv, rng=RngState(3))
        b = make_batches(corpus, 2, 128, tv, lv, rng=RngState(3))
        for x, y in zip(a, b):
            assert x.token_ids.tobytes() == y.token_ids.tobytes()

    def test_invalid_sizes(self):
        corpus, tv, lv = self._small()
        with pytest.raises(ConfigError):
            make_batches(corpus, 0, 128, tv, lv)
        with pytest.raises(ConfigError):
            make_batches(corpus, 2, 0, tv, lv)


def _batching_corpus(kind):
    """A corpus with unseen tokens, -100 labels and a zero-length sentence,
    or a slice of generated copy data; vocabularies see every label but
    only the first three sentences' tokens."""
    if kind == "empty":
        fixture = parse_conll(FIXTURE)
        return [], build_token_vocab(fixture), build_label_vocab(fixture)
    if kind == "copy":
        corpus = generate(copy_spec(seed=4))["train"][:300]
    else:
        corpus = parse_conll(FIXTURE + "\nx O\n\ny O\nz B-LOC\n\n"
                             "sub O\nword -100\nnew B-LOC\nthủ_đô O\n")
        corpus.insert(2, Sentence([], []))
    return corpus, build_token_vocab(corpus[:3]), build_label_vocab(corpus)


@pytest.mark.parametrize("kind, batch_size, max_len, seed, encode_labels", [
    ("small", 2, 128, None, True),     # in order, 7 rows: 2 does not divide
    ("small", 2, 128, 3, True),        # shuffled
    ("small", 3, 2, None, True),       # truncated below most lengths
    ("small", 3, 2, 5, True),
    ("small", 4, 128, None, False),    # unlabelled input
    ("small", 4, 128, 7, False),
    ("small", 1, 1, None, True),       # the empty sentence is a (1, 0) batch
    ("small", 50, 128, 1, True),       # one batch larger than the corpus
    ("empty", 4, 128, None, True),
    ("empty", 4, 128, 2, True),
    ("copy", 16, 16, 0, True),
    ("copy", 16, 7, 1, True),
    ("copy", 17, 7, None, False),
])
def test_make_batches_matches_reference(kind, batch_size, max_len, seed,
                                        encode_labels):
    corpus, tv, lv = _batching_corpus(kind)

    def run(fn):
        rng = None if seed is None else RngState(seed)
        return fn(corpus, batch_size, max_len, tv, lv, rng=rng,
                  encode_labels=encode_labels)

    got, want = run(make_batches), run(make_batches_reference)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for name in ("token_ids", "label_ids"):
            a, b = getattr(g, name), getattr(w, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name
        mask = length_mask(g.lengths, g.token_ids.shape[1])
        assert (mask.dtype, mask.shape) == (w.attention_mask.dtype,
                                            w.attention_mask.shape)
        assert mask.tobytes() == w.attention_mask.tobytes()
        assert g.lengths == w.lengths
        assert all(type(n) is int for n in g.lengths)


def test_make_batches_names_an_unknown_label():
    corpus = parse_conll("a O\nb B-LOC\n\nc B-NOPE\n")
    tv = build_token_vocab(corpus)
    lv = build_label_vocab(corpus[:1])
    with pytest.raises(ContractError, match="'B-NOPE'"):
        make_batches(corpus, 2, 128, tv, lv)


@pytest.mark.parametrize("lengths", [[3, 4], [-1, 2], [3], [3, 2, 1]])
def test_batch_needs_one_length_in_range_per_row(lengths):
    ids = np.zeros((2, 3), dtype=np.int64)
    with pytest.raises(ContractError, match="lengths"):
        Batch(token_ids=ids, label_ids=ids.copy(), lengths=lengths)
    # zero is a length: an empty sentence is a row of pads
    Batch(token_ids=ids, label_ids=ids.copy(), lengths=[0, 3])
