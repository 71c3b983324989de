"""Corpus-level prediction and scoring against a frozen model.

Sentences are stably sorted by truncated length before batching, so each
batch pads little; attention cost grows with the square of a batch's longest
sentence. Evaluation is read-only, so batches may be scored in parallel;
results are returned in corpus order, independent of thread count.
GRAPHFUSE_THREADS caps the pool (default 1). The pool helps only when BLAS
is pinned to one thread, at paper width, where numpy releases the GIL in
large products. Time of 2 threads over 1 for ``predict_corpus`` (batch 16,
best of 3 per side, median of 10 alternating pairs, 2 vCPUs, numpy 2.4 with
OpenBLAS 0.3.31) on 96 test sentences:

* ``full`` at ``phoner`` dims (d=256), relational-match data, BLAS pinned
  to 1 thread: 0.56 (171-290 ms against 302-346 ms), faster in 10 of 10;
* the same with BLAS at its default thread count: 1.02, faster in 5 of 10;
* BLAS pinned, ``relational`` preset (d=32), ``full``: 1.03, faster in 4
  of 10; ``copy`` preset, ``encoder``: 2.29, faster in 0 of 10.
Tokens past max_len get no prediction here; the ``predict`` and ``eval``
commands label them O or leave them unscored and say so in one stderr note.
``evaluate`` counts them in its report.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .data import Corpus, make_batches
from .errors import ConfigError
from .metrics import EvalReport, score
from .model import TokenClassifier


def thread_count() -> int:
    raw = os.environ.get("GRAPHFUSE_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        raise ConfigError(f"GRAPHFUSE_THREADS must be an integer, got {raw!r}")
    if threads < 1:
        raise ConfigError(f"GRAPHFUSE_THREADS must be >= 1, got {threads}")
    return threads


def truncation(corpus: Corpus, max_len: int) -> tuple[int, int]:
    """How many sentences exceed max_len, and how many tokens lie past it."""
    tails = [len(s) - max_len for s in corpus if len(s) > max_len]
    return len(tails), sum(tails)


def predict_corpus(model: TokenClassifier, corpus: Corpus, batch_size: int,
                   max_len: int) -> list[list[str]]:
    """Predicted label strings per sentence, in corpus order.

    Sentences beyond max_len are truncated exactly as in training. The
    length-sorted corpus is encoded in one make_batches pass, and argmax ids
    become label strings by indexing ``label_vocab.id_to_label``. Input
    labels are never read, so unlabeled corpora work.
    """
    lengths = np.minimum([len(s.tokens) for s in corpus], max_len)
    order = np.argsort(lengths, kind="stable").tolist()
    # a module-global lookup, so perfbench/tracing.py can wrap make_batches
    batches = make_batches([corpus[i] for i in order], batch_size, max_len,
                           model.token_vocab, model.label_vocab, rng=None,
                           encode_labels=False)
    n = thread_count()
    if n == 1 or len(batches) <= 1:
        id_rows = [model.predict_batch(b) for b in batches]
    else:
        with ThreadPoolExecutor(max_workers=n) as pool:
            id_rows = list(pool.map(model.predict_batch, batches))
    id_to_label = model.label_vocab.id_to_label.__getitem__
    out: list[list[str]] = [[] for _ in corpus]
    rows = (row for batch_rows in id_rows for row in batch_rows)
    for i, row in zip(order, rows):
        out[i] = list(map(id_to_label, row))
    return out


def evaluate(model: TokenClassifier, corpus: Corpus, batch_size: int,
             max_len: int) -> EvalReport:
    """Score model predictions against the corpus gold labels.

    Tokens past max_len are not scored; the report counts them and their
    sentences.
    """
    preds = predict_corpus(model, corpus, batch_size, max_len)
    golds = [s.labels[:max_len] for s in corpus]
    report = score(golds, preds)
    report.n_truncated_sentences, report.n_unscored_tokens = \
        truncation(corpus, max_len)
    return report
