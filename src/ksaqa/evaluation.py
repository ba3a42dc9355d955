"""Metrics over interpretation sets.

Per-question precision/recall/F1 against the plausible set, macro-averaged;
top-1 accuracy against the original single gold pair; the hit-any rate
(top-1 lands anywhere in the plausible set); a seeded random baseline; an
attention export; and a JSON Lines disagreement dump.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Rng
from .errors import ConfigError


def prf1(predicted: set, gold: set) -> tuple[float, float, float]:
    """Set precision/recall/F1; empty prediction scores (0, 0, 0)."""
    if not predicted:
        return (0.0, 0.0, 0.0)
    hit = len(predicted & gold)
    p = hit / len(predicted)
    r = hit / len(gold) if gold else 0.0
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return (p, r, f1)


@dataclass
class QuestionResult:
    question: str
    predicted: set
    gold_pairs: set
    gold_pair: tuple
    precision: float
    recall: float
    f1: float
    top1: tuple | None
    detection_failed: bool = False

    @property
    def top1_correct(self) -> bool:
        return self.top1 is not None and self.top1 == self.gold_pair

    @property
    def hit_any(self) -> bool:
        return self.top1 is not None and self.top1 in self.gold_pairs


@dataclass
class EvalReport:
    macro_precision: float
    macro_recall: float
    macro_f1: float
    top1_accuracy: float
    hit_any_rate: float
    question_count: int
    detection_failure_rate: float
    results: list = field(default_factory=list, repr=False)

    def to_dict(self) -> dict:
        return {
            "macro_precision": self.macro_precision,
            "macro_recall": self.macro_recall,
            "macro_f1": self.macro_f1,
            "top1_accuracy": self.top1_accuracy,
            "hit_any_rate": self.hit_any_rate,
            "question_count": self.question_count,
            "detection_failure_rate": self.detection_failure_rate,
        }

    def table(self) -> str:
        rows = [
            ("questions", f"{self.question_count}"),
            ("macro precision", f"{self.macro_precision:.4f}"),
            ("macro recall", f"{self.macro_recall:.4f}"),
            ("macro F1", f"{self.macro_f1:.4f}"),
            ("top-1 accuracy", f"{self.top1_accuracy:.4f}"),
            ("hit-any rate", f"{self.hit_any_rate:.4f}"),
            ("detection failures", f"{self.detection_failure_rate:.4f}"),
        ]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


def summarize(results: list[QuestionResult], total_questions: int | None = None,
              skip_detection_failures: bool = False) -> EvalReport:
    """Aggregate per-question results into the macro report."""
    n_all = total_questions if total_questions is not None else len(results)
    failures = sum(1 for r in results if r.detection_failed)
    failures += (n_all - len(results))   # questions that never produced a result
    scored = [r for r in results if not (skip_detection_failures and r.detection_failed)]
    n = len(scored)
    if n == 0:
        return EvalReport(0.0, 0.0, 0.0, 0.0, 0.0, 0,
                          failures / n_all if n_all else 0.0, results)
    return EvalReport(
        macro_precision=sum(r.precision for r in scored) / n,
        macro_recall=sum(r.recall for r in scored) / n,
        macro_f1=sum(r.f1 for r in scored) / n,
        top1_accuracy=sum(r.top1_correct for r in scored) / n,
        hit_any_rate=sum(r.hit_any for r in scored) / n,
        question_count=n,
        detection_failure_rate=failures / n_all if n_all else 0.0,
        results=results,
    )


def _score_question(model, kb, ex, fq_tokens, candidates, lam,
                    detection_failed: bool = False) -> QuestionResult:
    if detection_failed or not candidates:
        return QuestionResult(
            question=ex.record.text, predicted=set(), gold_pairs=set(ex.positives),
            gold_pair=ex.gold, precision=0.0, recall=0.0, f1=0.0,
            top1=None, detection_failed=True)
    scores = model.score_pairs(fq_tokens, candidates, kb)
    threshold = model.config.lam if lam is None else lam
    predicted = {s.pair for s in scores if s.probability > threshold}
    top1 = scores[0].pair if scores else None
    p, r, f1 = prf1(predicted, set(ex.positives))
    return QuestionResult(
        question=ex.record.text, predicted=predicted, gold_pairs=set(ex.positives),
        gold_pair=ex.gold, precision=p, recall=r, f1=f1, top1=top1)


def evaluate(examples, model, kb, aliases=None, tagger=None,
             gold_spans: bool = True, lam: float | None = None,
             skip_detection_failures: bool = False) -> EvalReport:
    """Score every labeled example; spans from gold formatting or the tagger.

    In tagger mode a question whose decoded span is empty, or whose mention
    matches no alias, is a detection failure: scored (0,0,0) by default or
    dropped from the averages under ``skip_detection_failures``.
    """
    if not gold_spans and (tagger is None or aliases is None):
        raise ConfigError("tagger-mode evaluation needs a tagger and an alias table")
    results = []
    for ex in examples:
        if gold_spans:
            results.append(_score_question(
                model, kb, ex, ex.formatted.tokens, ex.candidates, lam))
            continue
        from .tagger import predict_span
        sp = predict_span(tagger, ex.record.tokens)
        if sp.failed:
            results.append(_score_question(model, kb, ex, None, None, lam,
                                           detection_failed=True))
            continue
        candidates = aliases.entities_for_alias(sp.mention_text)
        results.append(_score_question(
            model, kb, ex, sp.formatted_tokens, candidates, lam,
            detection_failed=not candidates))
    return summarize(results, len(examples), skip_detection_failures)


def random_baseline(examples, kb, rng: Rng,
                    skip_detection_failures: bool = False) -> EvalReport:
    """Coin-flip multi-label predictions and a uniform top-1 pick.

    Candidate pairs are every (s, r) with s in the candidate set and r in
    R(s); each enters the predicted set with probability 0.5 and the top-1
    slot uniformly.
    """
    results = []
    for ex in examples:
        pairs = []
        for s in sorted(ex.candidates):
            si = kb.entity_id(s)
            if si < 0:
                continue
            pairs.extend((s, kb.relations[ri]) for ri in kb.subgraph_relations(si))
        predicted = {p for p in pairs if rng.random() < 0.5}
        top1 = pairs[int(rng.integers(0, len(pairs)))] if pairs else None
        p, r, f1 = prf1(predicted, set(ex.positives))
        results.append(QuestionResult(
            question=ex.record.text, predicted=predicted, gold_pairs=set(ex.positives),
            gold_pair=ex.gold, precision=p, recall=r, f1=f1, top1=top1))
    return summarize(results, len(examples), skip_detection_failures)


@dataclass
class AttentionMap:
    tokens: list[str]
    weights: np.ndarray
    subject: str

    def rows(self) -> list[tuple[str, float]]:
        return [(t, float(w)) for t, w in zip(self.tokens, self.weights)]

    def heatmap(self, width: int = 40) -> str:
        lines = []
        for tok, w in self.rows():
            bar = "#" * max(1, round(w * width)) if w > 0 else ""
            lines.append(f"{tok:<16} {w:.4f} {bar}")
        return "\n".join(lines)


def export_attention(model, fq_tokens: list[str], subject: str, kb,
                     path=None) -> AttentionMap:
    """Attention weights for one (question, subject); KSA variant only."""
    if model.config.variant != "KSA-BiGRU":
        raise ConfigError(f"variant {model.config.variant} produces no attention map")
    si = kb.entity_id(subject)
    rel_ids = kb.subgraph_relations(si) if si >= 0 else np.empty(0, dtype=np.int64)
    rows = np.array([model.rel_index[kb.relations[ri]] for ri in rel_ids], dtype=np.int64)
    _, alpha = model.encoder_output(fq_tokens, rows)
    amap = AttentionMap(tokens=list(fq_tokens), weights=alpha.data.copy(), subject=subject)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("token\tweight\n")
            for tok, w in amap.rows():
                fh.write(f"{tok}\t{w:.6f}\n")
    return amap


def diff_report(results: list[QuestionResult], path) -> int:
    """Write one JSON line per disagreeing question; returns the row count."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for r in results:
            over = sorted(r.predicted - r.gold_pairs)
            under = sorted(r.gold_pairs - r.predicted)
            if not over and not under:
                continue
            fh.write(json.dumps({
                "question": r.question,
                "gold": sorted(r.gold_pairs),
                "predicted": sorted(r.predicted),
                "over_predictions": over,
                "under_predictions": under,
                "detection_failed": r.detection_failed,
            }, ensure_ascii=False) + "\n")
            count += 1
    return count
