"""Evaluator tests: prf1 closed forms, aggregation, baseline, exports."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from ksaqa.autodiff import Rng
from ksaqa.errors import ConfigError
from ksaqa.evaluation import (AttentionMap, EvalReport, QuestionResult,
                              diff_report, evaluate, export_attention, prf1,
                              random_baseline, summarize)
import ksaqa.model as model_mod
from ksaqa.model import KsaModel, ModelConfig
from ksaqa.tagger import (TaggerConfig, longest_run, span_to_formatted, tags_for_span,
                          train_tagger)

import crf_oracle
import per_subject_oracle

SMALL = dict(d_word=10, d_rel=8, d_hidden=6, attention_hidden=5,
             dropout=0.0, seed=3)


def _model(world, variant="KSA-BiGRU", **over):
    kb, vocab, _ = world
    return KsaModel(vocab, kb.relations, ModelConfig(variant=variant, **{**SMALL, **over}))


def _zeroed(model):
    for p in model.parameters():
        p.data = np.zeros_like(p.data)
    return model


# -- prf1 closed forms --------------------------------------------------------


@pytest.mark.parametrize("pred,gold,expect", [
    (set(), {("s", "r")}, (0.0, 0.0, 0.0)),                 # empty prediction
    ({("s", "r")}, {("s", "r")}, (1.0, 1.0, 1.0)),          # exact match
    ({("s", "a"), ("s", "b")}, {("s", "a")}, (0.5, 1.0, 2 / 3)),
    ({("s", "a")}, {("s", "a"), ("s", "b")}, (1.0, 0.5, 2 / 3)),
    ({("s", "a")}, {("s", "b")}, (0.0, 0.0, 0.0)),           # disjoint
    ({("s", "a"), ("s", "b")}, {("s", "b"), ("s", "c")}, (0.5, 0.5, 0.5)),
    ({("s", "a")}, set(), (0.0, 0.0, 0.0)),                  # empty gold
])
def test_prf1_closed_forms(pred, gold, expect):
    got = prf1(pred, gold)
    for g, e in zip(got, expect):
        assert abs(g - e) < 1e-15


def _result(p, r, f1, predicted=frozenset(), gold_pairs=frozenset({("s", "g")}),
            top1=None, failed=False, question="q"):
    return QuestionResult(question=question, predicted=set(predicted),
                          gold_pairs=set(gold_pairs), gold_pair=("s", "g"),
                          precision=p, recall=r, f1=f1, top1=top1,
                          detection_failed=failed)


def test_question_result_top1_properties():
    r = _result(1, 1, 1, top1=("s", "g"))
    assert r.top1_correct and r.hit_any
    r = _result(0, 0, 0, top1=("s", "other"), gold_pairs={("s", "g"), ("s", "other")})
    assert not r.top1_correct and r.hit_any
    assert not _result(0, 0, 0, top1=None).hit_any


# -- aggregation ----------------------------------------------------------------


def test_summarize_takes_plain_means():
    results = [_result(1.0, 0.5, 2 / 3, top1=("s", "g")),
               _result(0.0, 0.0, 0.0, top1=("s", "x")),
               _result(0.5, 1.0, 2 / 3, top1=("s", "g"))]
    rep = summarize(results)
    assert abs(rep.macro_precision - 0.5) < 1e-15
    assert abs(rep.macro_recall - 0.5) < 1e-15
    assert abs(rep.macro_f1 - (4 / 3) / 3) < 1e-15
    assert abs(rep.top1_accuracy - 2 / 3) < 1e-15
    assert abs(rep.hit_any_rate - 2 / 3) < 1e-15
    assert rep.question_count == 3
    assert rep.detection_failure_rate == 0.0


def test_summarize_detection_failure_policy():
    results = [_result(1.0, 1.0, 1.0, top1=("s", "g")),
               _result(0.0, 0.0, 0.0, failed=True)]
    scored = summarize(results)
    assert scored.question_count == 2
    assert abs(scored.macro_f1 - 0.5) < 1e-15
    assert scored.detection_failure_rate == 0.5
    skipped = summarize(results, skip_detection_failures=True)
    assert skipped.question_count == 1
    assert skipped.macro_f1 == 1.0
    assert skipped.detection_failure_rate == 0.5   # rate is unaffected by the policy


def test_summarize_empty_is_all_zero():
    rep = summarize([])
    assert rep.to_dict() == {
        "macro_precision": 0.0, "macro_recall": 0.0, "macro_f1": 0.0,
        "top1_accuracy": 0.0, "hit_any_rate": 0.0, "question_count": 0,
        "detection_failure_rate": 0.0,
    }


def test_report_table_and_dict_cover_every_metric():
    rep = summarize([_result(1.0, 1.0, 1.0, top1=("s", "g"))])
    table = rep.table()
    for label in ("questions", "macro precision", "macro recall", "macro F1",
                  "top-1 accuracy", "hit-any rate", "detection failures"):
        assert label in table
    assert "1.0000" in table
    assert set(rep.to_dict()) == {
        "macro_precision", "macro_recall", "macro_f1", "top1_accuracy",
        "hit_any_rate", "question_count", "detection_failure_rate"}


# -- evaluate -------------------------------------------------------------------


def test_evaluate_gold_spans_on_the_micro_world(world):
    kb, _, examples = world
    rep = evaluate(examples, _zeroed(_model(world)), kb)
    assert rep.question_count == len(examples)
    assert rep.detection_failure_rate == 0.0
    # a zeroed model scores everything at exactly 0.5: nothing clears lambda
    assert rep.macro_f1 == 0.0 and rep.macro_precision == 0.0
    # but top-1 still exists (ties broken by pair text), so hit-any can fire
    assert all(r.top1 is not None for r in rep.results)


def test_evaluate_low_lambda_predicts_every_pair(world):
    kb, _, examples = world
    rep = evaluate(examples, _zeroed(_model(world)), kb, lam=0.25)
    # every plausible pair is inside the candidate cross-product
    assert rep.macro_recall == 1.0
    assert all(r.predicted >= r.gold_pairs for r in rep.results)


def test_hit_any_dominates_top1(world):
    kb, _, examples = world
    for model in (_zeroed(_model(world)), _model(world, seed=9)):
        rep = evaluate(examples, model, kb)
        assert rep.hit_any_rate >= rep.top1_accuracy


@pytest.fixture(scope="module")
def tagger(world):
    """A tagger trained on the micro world's gold mentions."""
    _, vocab, examples = world
    pairs = [(ex.record.tokens, tags_for_span(len(ex.record.tokens), ex.formatted.mention_span))
             for ex in examples]
    return train_tagger(pairs, TaggerConfig(d_word=8, hidden=6, lr=0.05, epochs=15, seed=1),
                        vocab)[0]


def _one_question(model, kb, aliases, tagger, ex, gold_spans):
    """(predicted, top1, detection failed) of one question scored alone, as the
    per-question loop that batched evaluation replaced did it."""
    fq, candidates = ex.formatted, ex.candidates
    if not gold_spans:
        span = longest_run(crf_oracle.decode_alone(tagger, ex.record.tokens))
        fq = None if span is None else span_to_formatted(ex.record.tokens, span)
        candidates = aliases.entities_for_alias(fq.mention_text) if fq else set()
    if not candidates:
        return set(), None, True, []
    scores = per_subject_oracle.score_pairs(model, fq.tokens, candidates, kb)
    predicted = {s.pair for s in scores if s.probability > model.config.lam}
    return predicted, scores[0].pair if scores else None, False, scores


@pytest.mark.parametrize("budget", [1, 6, 4096])
@pytest.mark.parametrize("gold_spans", [True, False])
def test_batched_evaluate_equals_one_question_at_a_time(world, micro, tagger, monkeypatch,
                                                         budget, gold_spans):
    kb, vocab, examples = world
    aliases = micro[1]
    model = _model(world)
    # a question without candidates, and one whose only candidate has no facts
    examples = examples + [replace(examples[0], candidates=set()),
                           replace(examples[1], candidates={"unknown-guy"})]
    monkeypatch.setattr(model_mod, "PAIR_BUDGET", budget)
    scored = []
    for subset in (examples, examples[:1], examples[-2:-1], examples[-1:]):
        rep = evaluate(subset, model, kb, aliases=aliases, tagger=tagger, gold_spans=gold_spans)
        assert len(rep.results) == len(subset)
        for ex, got in zip(subset, rep.results):
            predicted, top1, failed, scores = _one_question(model, kb, aliases, tagger, ex,
                                                            gold_spans)
            assert (got.predicted, got.top1, got.detection_failed) == (predicted, top1, failed)
            assert (got.precision, got.recall, got.f1) == prf1(predicted, set(ex.positives))
            scored.append(bool(scores))
    assert sum(scored[:len(examples)]) >= len(examples) - 2


def test_evaluate_tagger_mode_requires_tagger_and_aliases(world):
    kb, _, examples = world
    with pytest.raises(ConfigError, match="tagger"):
        evaluate(examples, _model(world), kb, gold_spans=False)


# -- random baseline --------------------------------------------------------------


def test_random_baseline_is_seed_deterministic(world):
    kb, _, examples = world
    a = random_baseline(examples, kb, Rng(7))
    b = random_baseline(examples, kb, Rng(7))
    assert a.to_dict() == b.to_dict()
    assert a.to_dict() != random_baseline(examples, kb, Rng(8)).to_dict()


def test_random_baseline_recall_matches_coin_flips(world):
    """Each gold pair enters the prediction with p=1/2, so over N trials the
    mean recall is binomial: 0.5 within 3 sigma."""
    kb, _, examples = world
    trials = 200
    rng = Rng(123)
    recalls = [random_baseline(examples, kb, rng).macro_recall for _ in range(trials)]
    mean = sum(recalls) / trials
    # per-trial macro recall averages len(examples) coin flips
    sigma = 0.5 / math.sqrt(trials * len(examples))
    assert abs(mean - 0.5) < 3 * sigma


def test_random_baseline_top1_is_uniform(world):
    """hit-any fires when the uniform top-1 pick lands in SR(q)."""
    kb, _, examples = world
    expect = 0.0
    for ex in examples:
        pairs = []
        for s in sorted(ex.candidates):
            si = kb.entity_id(s)
            pairs.extend((s, kb.relations[ri]) for ri in kb.subgraph_relations(si))
        expect += len(set(pairs) & ex.positives) / len(pairs)
    expect /= len(examples)
    trials = 200
    rng = Rng(321)
    rate = sum(random_baseline(examples, kb, rng).hit_any_rate
               for _ in range(trials)) / trials
    sigma = 0.5 / math.sqrt(trials * len(examples))
    assert abs(rate - expect) < 3 * sigma


# -- attention export -------------------------------------------------------------


def test_export_attention_writes_normalized_weights(world, tmp_path):
    kb, _, _ = world
    model = _model(world)
    path = tmp_path / "attention.tsv"
    amap = export_attention(model, ["who", "wrote", "<e>"], "01", kb, path)
    assert amap.tokens == ["who", "wrote", "<e>"]
    assert amap.subject == "01"
    assert abs(float(amap.weights.sum()) - 1.0) < 1e-12
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "token\tweight"
    assert len(lines) == 4
    for line, (tok, w) in zip(lines[1:], amap.rows()):
        name, val = line.split("\t")
        assert name == tok
        assert abs(float(val) - w) < 1e-6


def test_export_attention_rejects_ablation_variants(world):
    kb, _, _ = world
    for variant in ("BiGRU", "KS-BiGRU"):
        with pytest.raises(ConfigError, match="attention"):
            export_attention(_model(world, variant=variant),
                             ["who", "wrote", "<e>"], "01", kb)


def test_export_attention_handles_unknown_subject(world):
    kb, _, _ = world
    amap = export_attention(_model(world), ["who", "wrote", "<e>"], "nobody", kb)
    assert abs(float(amap.weights.sum()) - 1.0) < 1e-12


def test_attention_heatmap_renders_one_row_per_token():
    amap = AttentionMap(tokens=["a", "b"], weights=np.array([0.75, 0.25]),
                        subject="s")
    lines = amap.heatmap(width=8).splitlines()
    assert len(lines) == 2
    assert lines[0].count("#") == 6 and lines[1].count("#") == 2
    assert "0.7500" in lines[0]


# -- diff report -------------------------------------------------------------------


def test_diff_report_writes_only_disagreements(tmp_path):
    results = [
        _result(1.0, 1.0, 1.0, predicted={("s", "g")}, top1=("s", "g")),
        _result(0.5, 1.0, 2 / 3, predicted={("s", "g"), ("s", "x")},
                question="over"),
        _result(0.0, 0.0, 0.0, failed=True, question="missed"),
    ]
    path = tmp_path / "diff.jsonl"
    count = diff_report(results, path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert count == 2 and len(rows) == 2
    assert rows[0]["question"] == "over"
    assert rows[0]["over_predictions"] == [["s", "x"]]
    assert rows[0]["under_predictions"] == []
    assert rows[1]["question"] == "missed"
    assert rows[1]["under_predictions"] == [["s", "g"]]
    assert rows[1]["detection_failed"] is True


def test_diff_report_empty_for_perfect_predictions(tmp_path):
    results = [_result(1.0, 1.0, 1.0, predicted={("s", "g")})]
    path = tmp_path / "diff.jsonl"
    assert diff_report(results, path) == 0
    assert path.read_text() == ""
