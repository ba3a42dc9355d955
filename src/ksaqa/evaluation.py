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

from .artifacts import save_text
from .autodiff import Rng
from .errors import ConfigError
from .tagger import predict_spans


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


def summarize(results: list[QuestionResult],
              skip_detection_failures: bool = False) -> EvalReport:
    """Aggregate per-question results into the macro report."""
    failures = sum(1 for r in results if r.detection_failed)
    failure_rate = failures / len(results) if results else 0.0
    scored = [r for r in results if not (skip_detection_failures and r.detection_failed)]
    n = len(scored)
    if n == 0:
        return EvalReport(0.0, 0.0, 0.0, 0.0, 0.0, 0, failure_rate, results)
    return EvalReport(
        macro_precision=sum(r.precision for r in scored) / n,
        macro_recall=sum(r.recall for r in scored) / n,
        macro_f1=sum(r.f1 for r in scored) / n,
        top1_accuracy=sum(r.top1_correct for r in scored) / n,
        hit_any_rate=sum(r.hit_any for r in scored) / n,
        question_count=n,
        detection_failure_rate=failure_rate,
        results=results,
    )


def _question_result(ex, predicted: set, top1, detection_failed: bool = False
                     ) -> QuestionResult:
    p, r, f1 = prf1(predicted, set(ex.positives))
    return QuestionResult(
        question=ex.record.text, predicted=predicted, gold_pairs=set(ex.positives),
        gold_pair=ex.gold, precision=p, recall=r, f1=f1, top1=top1,
        detection_failed=detection_failed)


def evaluate(examples, model, kb, aliases=None, tagger=None,
             gold_spans: bool = True, lam: float | None = None,
             skip_detection_failures: bool = False) -> EvalReport:
    """Score every labeled example; spans from gold formatting or the tagger.

    All questions are decoded (tagger mode) and scored in batches: see
    :meth:`KsaModel.score_questions`.  A question without candidate subjects
    is a detection failure: in tagger mode, one whose decoded span is empty
    or whose mention matches no alias.  It is scored (0,0,0) by default or
    dropped from the averages under ``skip_detection_failures``.
    """
    if not gold_spans and (tagger is None or aliases is None):
        raise ConfigError("tagger-mode evaluation needs a tagger and an alias table")
    if gold_spans:
        formatted = [ex.formatted for ex in examples]
        candidate_sets = [ex.candidates for ex in examples]
    else:
        formatted = predict_spans(tagger, [ex.record.tokens for ex in examples])
        candidate_sets = [aliases.entities_for_alias(fq.mention_text) if fq else set()
                          for fq in formatted]
    scores = model.score_questions([fq.tokens if fq else [] for fq in formatted],
                                   candidate_sets, kb)
    threshold = model.config.lam if lam is None else lam
    results = []
    for ex, ss, candidates in zip(examples, scores, candidate_sets):
        if not candidates:
            results.append(_question_result(ex, set(), None, detection_failed=True))
            continue
        predicted = {s.pair for s in ss if s.probability > threshold}
        results.append(_question_result(ex, predicted, ss[0].pair if ss else None))
    return summarize(results, skip_detection_failures)


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
            pairs.extend((s, kb.relations[ri]) for ri in kb.subgraph_relations(kb.entity_id(s)))
        predicted = {p for p in pairs if rng.random() < 0.5}
        top1 = pairs[int(rng.integers(0, len(pairs)))] if pairs else None
        results.append(_question_result(ex, predicted, top1))
    return summarize(results, skip_detection_failures)


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
    _, alpha = model.encoder_output([fq_tokens], [model.subject_rows(kb, subject)])
    amap = AttentionMap(tokens=list(fq_tokens), weights=alpha.data[0].copy(), subject=subject)
    if path is not None:
        save_text(path, "token\tweight\n" + "".join(f"{tok}\t{w:.6f}\n" for tok, w in amap.rows()))
    return amap


def diff_report(results: list[QuestionResult], path) -> int:
    """Write one JSON line per disagreeing question; returns the row count."""
    lines = []
    for r in results:
        over = sorted(r.predicted - r.gold_pairs)
        under = sorted(r.gold_pairs - r.predicted)
        if over or under:
            lines.append(json.dumps({
                "question": r.question,
                "gold": sorted(r.gold_pairs),
                "predicted": sorted(r.predicted),
                "over_predictions": over,
                "under_predictions": under,
                "detection_failed": r.detection_failed,
            }, ensure_ascii=False) + "\n")
    save_text(path, "".join(lines))
    return len(lines)
