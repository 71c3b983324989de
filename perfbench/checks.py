"""Correctness checks on every timed operation.

Each check returns a list of problems; an empty list means the output is
correct. :class:`Tally` turns them into the attempted/failed counts the
benchmark reports, so a wrong output is counted, never fatal.
"""

from __future__ import annotations

import math


def history_problems(history: list[dict], jsonl: str,
                     reference: str | None) -> list[str]:
    """Train losses finite, and the history byte-identical to the first run's."""
    problems = [f"epoch {row.get('epoch')}: non-finite train loss {row.get('train_loss')!r}"
                for row in history
                if not math.isfinite(row.get("train_loss", math.nan))]
    if reference is not None and jsonl != reference:
        problems.append("history.jsonl differs from the first run with the same seed")
    return problems


def prediction_problems(preds: list[list[str]], corpus, labels,
                        reference: list[list[str]] | None) -> list[str]:
    """One known label per input token, and equal to the reference run."""
    if len(preds) != len(corpus):
        return [f"{len(preds)} predictions for {len(corpus)} sentences"]
    problems = []
    for i, (pred, sent) in enumerate(zip(preds, corpus)):
        if len(pred) != len(sent):
            problems.append(f"sentence {i}: {len(pred)} labels for {len(sent)} tokens")
        unknown = sorted(set(pred) - labels)
        if unknown:
            problems.append(f"sentence {i}: labels {unknown} not in the label vocab")
    if reference is not None and preds != reference:
        problems.append("reloaded checkpoint predicts differently from the "
                        "in-memory model")
    return problems


class Tally:
    """Attempted and failed operations, with the first few problems kept."""

    KEEP = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, operation: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            room = self.KEEP - len(self.problems)
            self.problems += [f"{operation}: {p}" for p in problems[:max(room, 0)]]
        return not problems
