"""Synthetic task tests.

Every kind has its labels re-derived here from the defining rule, independent
of the generator's own labeling code.
"""

import numpy as np
import pytest

from graphfuse.data import serialize_conll
from graphfuse.errors import ConfigError
from graphfuse.synth import (
    KINDS,
    MIN_GAP,
    TaskSpec,
    copy_label,
    copy_spec,
    generate,
    relational_spec,
    window_spec,
)


def all_sentences(splits):
    return splits["train"] + splits["valid"] + splits["test"]


class TestSpecs:
    def test_kinds(self):
        assert set(KINDS) == {"copy", "window", "relational-match"}

    def test_validation(self):
        with pytest.raises(ConfigError):
            TaskSpec(kind="nope").validate()
        with pytest.raises(ConfigError):
            TaskSpec(len_min=10, len_max=5).validate()
        for key in ("n_train", "n_valid", "n_test"):
            with pytest.raises(ConfigError, match=f"^{key} must be >= 1, got 0$"):
                TaskSpec(**{key: 0}).validate()
        with pytest.raises(ConfigError):
            # too short for a guaranteed MIN_GAP placement
            TaskSpec(kind="relational-match", len_min=MIN_GAP + 1,
                     len_max=36).validate()

    def test_split_sizes(self):
        splits = generate(copy_spec(seed=5))
        assert len(splits["train"]) == 300
        assert len(splits["valid"]) == 60
        assert len(splits["test"]) == 120


class TestCopyTask:
    def test_labels_follow_rule(self):
        splits = generate(copy_spec(seed=1))
        for sent in all_sentences(splits):
            for tok, lab in zip(sent.tokens, sent.labels):
                assert lab == copy_label(tok)
                assert lab == ("O", "B-A", "B-B")[int(tok[1:]) % 3]

    def test_label_is_function_of_token_alone(self):
        # same token appearing in different sentences always gets one label
        splits = generate(copy_spec(seed=2))
        seen = {}
        for sent in all_sentences(splits):
            for tok, lab in zip(sent.tokens, sent.labels):
                assert seen.setdefault(tok, lab) == lab


class TestWindowTask:
    def test_labels_follow_rule(self):
        spec = window_spec(seed=3)
        splits = generate(spec)
        n_triggers = -(-spec.vocab_size // 4)  # ceil
        triggers = {f"t{i:02d}" for i in range(n_triggers)}
        for sent in all_sentences(splits):
            n = len(sent.tokens)
            for i in range(n):
                expect = "B-W" if i > 0 and sent.tokens[i - 1] in triggers \
                    else "O"
                assert sent.labels[i] == expect

    def test_some_positives_exist(self):
        splits = generate(window_spec(seed=4))
        assert any("B-W" in s.labels for s in splits["train"])


class TestRelationalTask:
    def test_labels_follow_rule(self):
        """Re-derive every label from the multiset-membership rule."""
        splits = generate(relational_spec(seed=6))
        for sent in all_sentences(splits):
            counts = {}
            for tok in sent.tokens:
                counts[tok] = counts.get(tok, 0) + 1
            for tok, lab in zip(sent.tokens, sent.labels):
                if tok.startswith("p"):
                    assert lab == ("B-DUP" if counts[tok] == 2 else "B-UNIQ")
                elif tok.startswith("k"):
                    assert lab == "B-KEY"
                else:
                    assert lab == "O"

    def test_duplicates_are_far_apart(self):
        spec = relational_spec(seed=7)
        splits = generate(spec)
        saw_dup = saw_uniq = False
        for sent in all_sentences(splits):
            probes = [i for i, t in enumerate(sent.tokens)
                      if t.startswith("p")]
            for i in probes:
                twins = [j for j in probes
                         if j != i and sent.tokens[j] == sent.tokens[i]]
                if twins:
                    saw_dup = True
                    assert len(twins) == 1
                    assert abs(twins[0] - i) >= MIN_GAP
                else:
                    saw_uniq = True
        assert saw_dup and saw_uniq

    def test_not_solvable_by_short_windows(self):
        """Two sentences agreeing on a 5-token window around a probe must
        sometimes disagree on that probe's label; otherwise a local model
        could solve the task."""
        splits = generate(relational_spec(seed=8))
        window_to_labels = {}
        for sent in all_sentences(splits):
            n = len(sent.tokens)
            for i, tok in enumerate(sent.tokens):
                if not tok.startswith("p"):
                    continue
                lo, hi = max(0, i - 2), min(n, i + 3)
                key = tuple(sent.tokens[lo:hi])
                window_to_labels.setdefault(key, set()).add(sent.labels[i])
        # fillers are sentence-unique so identical full windows across
        # sentences are rare; the probe token alone must be ambiguous
        probe_only = {}
        for sent in all_sentences(splits):
            for tok, lab in zip(sent.tokens, sent.labels):
                if tok.startswith("p"):
                    probe_only.setdefault(tok, set()).add(lab)
        assert any(len(v) == 2 for v in probe_only.values())

    def test_exactly_one_key_and_one_probe_group(self):
        splits = generate(relational_spec(seed=9))
        for sent in all_sentences(splits):
            keys = [t for t in sent.tokens if t.startswith("k")]
            probes = [t for t in sent.tokens if t.startswith("p")]
            assert len(keys) == 1
            assert len(set(probes)) == 1
            assert len(probes) in (1, 2)

    def test_fillers_distinct_within_sentence(self):
        splits = generate(relational_spec(seed=10))
        for sent in all_sentences(splits):
            fillers = [t for t in sent.tokens if t.startswith("f")]
            assert len(fillers) == len(set(fillers))


class TestDeterminism:
    @pytest.mark.parametrize("factory", [copy_spec, window_spec,
                                         relational_spec])
    def test_byte_identical_regeneration(self, factory):
        a = generate(factory(seed=11))
        b = generate(factory(seed=11))
        for split in ("train", "valid", "test"):
            assert serialize_conll(a[split]) == serialize_conll(b[split])

    def test_seed_changes_output(self):
        a = generate(copy_spec(seed=1))
        b = generate(copy_spec(seed=2))
        assert serialize_conll(a["train"]) != serialize_conll(b["train"])

    def test_splits_disjoint(self):
        splits = generate(relational_spec(seed=12))
        keys = {name: {tuple(s.tokens) for s in sents}
                for name, sents in splits.items()}
        assert not (keys["train"] & keys["valid"])
        assert not (keys["train"] & keys["test"])
        assert not (keys["valid"] & keys["test"])

    def test_lengths_in_range(self):
        spec = relational_spec(seed=13)
        for sent in all_sentences(generate(spec)):
            assert spec.len_min <= len(sent.tokens) <= spec.len_max
