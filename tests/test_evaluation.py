"""Evaluation pipeline tests: length-sorted batching, corpus order, threading,
truncation."""

import numpy as np
import pytest

from graphfuse import tensor as T
from graphfuse.data import (Sentence, build_label_vocab, build_token_vocab,
                            make_batches)
from graphfuse.errors import ConfigError
from graphfuse.evaluation import evaluate, predict_corpus
from graphfuse.model import ModelConfig, TokenClassifier
from graphfuse.rng import RngState
from graphfuse.synth import copy_spec, generate


def build_model(sents, variant="full"):
    token_vocab = build_token_vocab(sents)
    label_vocab = build_label_vocab(sents)
    config = ModelConfig(vocab_size=len(token_vocab),
                         n_labels=len(label_vocab),
                         d_emb=16, d=16, gat_hidden=16, gat_heads=2,
                         enc_heads=2, dec_heads=2, dropout=0.0, max_len=16,
                         variant=variant)
    return TokenClassifier(config, token_vocab, label_vocab, RngState(3))


@pytest.fixture(scope="module")
def setup():
    sents = generate(copy_spec(seed=20))["valid"][:20]
    return build_model(sents), sents


class TestPredictCorpus:
    def test_output_shape(self, setup):
        model, sents = setup
        preds = predict_corpus(model, sents, batch_size=4, max_len=16)
        assert len(preds) == len(sents)
        for sent, pred in zip(sents, preds):
            assert len(pred) == min(len(sent.tokens), 16)
            assert all(isinstance(lab, str) for lab in pred)

    def test_batch_size_invariance(self, setup):
        model, sents = setup
        a = predict_corpus(model, sents, batch_size=3, max_len=16)
        b = predict_corpus(model, sents, batch_size=20, max_len=16)
        assert a == b

    def test_thread_count_invariance(self, setup, monkeypatch):
        model, sents = setup
        monkeypatch.setenv("GRAPHFUSE_THREADS", "1")
        a = predict_corpus(model, sents, batch_size=4, max_len=16)
        for threads in ("2", "4"):
            monkeypatch.setenv("GRAPHFUSE_THREADS", threads)
            assert predict_corpus(model, sents, batch_size=4, max_len=16) == a

    def test_order_preserved_across_batches(self, setup):
        model, sents = setup
        preds = predict_corpus(model, sents, batch_size=7, max_len=16)
        # ragged lengths identify each sentence's slot
        for sent, pred in zip(sents, preds):
            assert len(pred) == min(len(sent.tokens), 16)

    def test_empty_sentence_predicts_nothing(self, setup):
        # a zero length is a row of pads in the batch of the shortest
        # sentences, and leaves the other rows' predictions as they were;
        # four empty sentences fill the first batch of three, n = 0 wide
        sents = setup[1][:4]
        empty = Sentence([], [])
        mixed = [sents[0], empty, *sents[1:]]
        for model in (build_model(setup[1], "gat"), setup[0]):
            preds = predict_corpus(model, mixed, batch_size=3, max_len=16)
            assert preds[1] == []
            want = predict_corpus(model, sents, batch_size=3, max_len=16)
            assert preds[:1] + preds[2:] == want
            preds = predict_corpus(model, [*mixed, empty, empty, empty],
                                   batch_size=3, max_len=16)
            assert preds == [want[0], [], *want[1:], [], [], []]

    @pytest.mark.parametrize("max_len", [16, 8])
    def test_sorted_batches_match_corpus_order(self, setup, max_len):
        model, sents = setup
        assert len({min(len(s), max_len) for s in sents}) > 1

        def logits_per_sentence(corpus):
            with T.no_grad():
                return [model.forward(b).data[i, :n]
                        for b in make_batches(corpus, 4, max_len,
                                              model.token_vocab,
                                              model.label_vocab)
                        for i, n in enumerate(b.lengths)]

        order = sorted(range(len(sents)),
                       key=lambda i: min(len(sents[i]), max_len))
        plain = logits_per_sentence(sents)
        by_length = logits_per_sentence([sents[i] for i in order])
        for rank, i in enumerate(order):
            np.testing.assert_allclose(by_length[rank], plain[i],
                                       rtol=0, atol=1e-12)
        id_to_label = model.label_vocab.id_to_label
        want = [[id_to_label[j] for j in np.argmax(x, axis=-1)] for x in plain]
        assert predict_corpus(model, sents, batch_size=4,
                              max_len=max_len) == want


class TestEvaluate:
    def test_report_fields(self, setup):
        model, sents = setup
        report = evaluate(model, sents, batch_size=4, max_len=16)
        assert report.n_sentences == len(sents)
        assert 0.0 <= report.micro["f1"] <= 1.0
        assert 0.0 <= report.token_accuracy <= 1.0

    def test_truncation_consistency(self, setup):
        model, sents = setup
        # max_len shorter than some sentences: gold must be truncated the
        # same way or score() would raise a length mismatch
        report = evaluate(model, sents, batch_size=4, max_len=8)
        assert report.n_sentences == len(sents)
        tails = [len(s) - 8 for s in sents if len(s) > 8]
        assert tails
        assert report.n_truncated_sentences == len(tails)
        assert report.n_unscored_tokens == sum(tails)
        full = evaluate(model, sents, batch_size=4, max_len=16)
        assert full.n_truncated_sentences == full.n_unscored_tokens == 0

    def test_zero_max_len_is_rejected(self, setup):
        model, sents = setup
        # 0 is a bad value, not "use the model's max_len"
        with pytest.raises(ConfigError, match="max_len"):
            predict_corpus(model, sents, batch_size=4, max_len=0)
        with pytest.raises(ConfigError, match="max_len"):
            evaluate(model, sents, batch_size=4, max_len=0)
