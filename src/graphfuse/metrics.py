"""Span extraction and micro/macro/per-entity P/R/F1 over BIO sequences.

Exact-match span scoring: a predicted span counts only when type AND both
boundaries agree with gold. Malformed BIO (an I-X with no open X span) is
repaired leniently as a span start. Positions whose *gold* label is the
literal "-100" are deleted from both sequences before extraction, mirroring
the subword-masking convention of the ingest side.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .data import IGNORE_LABEL as IGNORE
from .errors import ContractError


@dataclass(frozen=True, order=True)
class Span:
    entity_type: str
    start: int
    end: int  # inclusive

    def __post_init__(self):
        if self.start > self.end:
            raise ContractError(f"span start {self.start} > end {self.end}")


def extract_spans(labels: list[str]) -> set[Span]:
    """Spans of one BIO sequence under the lenient reading.

    B-T opens a span, contiguous I-T extends it, O (or the ignore marker, or
    a type change) closes it. An I-T without an open T span opens one.
    """
    spans: set[Span] = set()
    open_type: str | None = None
    open_start = 0
    for pos, label in enumerate(labels):
        if label == "O" or label == IGNORE:
            if open_type is not None:
                spans.add(Span(open_type, open_start, pos - 1))
                open_type = None
            continue
        prefix, _, etype = label.partition("-")
        starts_new = prefix == "B" or etype != open_type
        if starts_new:
            if open_type is not None:
                spans.add(Span(open_type, open_start, pos - 1))
            open_type, open_start = etype, pos
    if open_type is not None:
        spans.add(Span(open_type, open_start, len(labels) - 1))
    return spans


@dataclass
class EntityScore:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class EvalReport:
    per_entity: dict[str, EntityScore]
    micro: dict[str, float]   # precision / recall / f1
    macro: dict[str, float]
    token_accuracy: float
    n_sentences: int = 0
    n_gold_spans: int = 0
    n_truncated_sentences: int = 0  # sentences longer than max_len
    n_unscored_tokens: int = 0      # their tokens past max_len

    def to_json(self) -> str:
        payload = {
            "micro": self.micro,
            "macro": self.macro,
            "token_accuracy": self.token_accuracy,
            "n_sentences": self.n_sentences,
            "n_gold_spans": self.n_gold_spans,
            "n_truncated_sentences": self.n_truncated_sentences,
            "n_unscored_tokens": self.n_unscored_tokens,
            "per_entity": {
                name: {"precision": s.precision, "recall": s.recall,
                       "f1": s.f1, "support": s.support}
                for name, s in sorted(self.per_entity.items())
            },
        }
        return json.dumps(payload, indent=2, ensure_ascii=False)

    def to_text(self) -> str:
        """Aligned plain-text table, one row per entity type."""
        rows = [("entity", "precision", "recall", "f1", "support")]
        for name in sorted(self.per_entity):
            s = self.per_entity[name]
            rows.append((name, f"{s.precision:.4f}", f"{s.recall:.4f}",
                         f"{s.f1:.4f}", str(s.support)))
        rows.append(("micro", f"{self.micro['precision']:.4f}",
                     f"{self.micro['recall']:.4f}", f"{self.micro['f1']:.4f}",
                     str(self.n_gold_spans)))
        rows.append(("macro", f"{self.macro['precision']:.4f}",
                     f"{self.macro['recall']:.4f}", f"{self.macro['f1']:.4f}",
                     ""))
        widths = [max(len(r[c]) for r in rows) for c in range(5)]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                 for row in rows]
        lines.insert(1, "-" * len(lines[0]))
        lines.append(f"token accuracy: {self.token_accuracy:.4f}")
        return "\n".join(lines) + "\n"


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def score(gold: list[list[str]], pred: list[list[str]]) -> EvalReport:
    """Corpus-level exact-match span scores; gold "-100" positions dropped."""
    if len(gold) != len(pred):
        raise ContractError(f"{len(gold)} gold vs {len(pred)} predicted sentences")
    tp: dict[str, int] = {}
    fp: dict[str, int] = {}
    fn: dict[str, int] = {}
    tokens_right = 0
    tokens_total = 0
    n_gold_spans = 0
    for i, (g, p) in enumerate(zip(gold, pred)):
        if len(g) != len(p):
            raise ContractError(
                f"sentence {i}: {len(g)} gold vs {len(p)} predicted labels")
        keep = [j for j, lab in enumerate(g) if lab != IGNORE]
        g = [g[j] for j in keep]
        p = [p[j] for j in keep]
        tokens_total += len(g)
        tokens_right += sum(a == b for a, b in zip(g, p))
        gs = extract_spans(g)
        ps = extract_spans(p)
        n_gold_spans += len(gs)
        for span in ps:
            bucket = tp if span in gs else fp
            bucket[span.entity_type] = bucket.get(span.entity_type, 0) + 1
        for span in gs - ps:
            fn[span.entity_type] = fn.get(span.entity_type, 0) + 1

    types = sorted(set(tp) | set(fp) | set(fn))
    per_entity: dict[str, EntityScore] = {}
    for t in types:
        p_, r_, f_ = _prf(tp.get(t, 0), fp.get(t, 0), fn.get(t, 0))
        per_entity[t] = EntityScore(p_, r_, f_, tp.get(t, 0) + fn.get(t, 0))

    micro_p, micro_r, micro_f = _prf(sum(tp.values()), sum(fp.values()),
                                     sum(fn.values()))
    # macro averages over types present in gold (support > 0)
    present = [t for t in types if per_entity[t].support > 0]
    if present:
        macro = {
            "precision": sum(per_entity[t].precision for t in present) / len(present),
            "recall": sum(per_entity[t].recall for t in present) / len(present),
            "f1": sum(per_entity[t].f1 for t in present) / len(present),
        }
    else:
        macro = {"precision": 0.0, "recall": 0.0, "f1": 0.0}
    return EvalReport(
        per_entity=per_entity,
        micro={"precision": micro_p, "recall": micro_r, "f1": micro_f},
        macro=macro,
        token_accuracy=tokens_right / tokens_total if tokens_total else 0.0,
        n_sentences=len(gold),
        n_gold_spans=n_gold_spans,
    )
