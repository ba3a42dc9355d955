"""Acceptance gate: nine criteria, one visible PASS/FAIL line each.

Each criterion test computes its measurement, prints a single
``criterion N: PASS/FAIL - detail`` line past the capture (so the line
shows up in plain pytest output), then asserts.  Tolerances are pinned
here and must not be loosened without a decisions-ledger entry.
"""

import itertools
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

import ksaqa.autodiff as ad
from ksaqa import cli
from ksaqa.autodiff import Parameter, Rng, Tape, grad_check
from ksaqa.dataset import build_vocabulary, format_question, parse_simplequestions
from ksaqa.evaluation import evaluate, prf1
from ksaqa.kb import ingest_aliases, ingest_triples
from ksaqa.kernels import crf, transe_ops
from ksaqa.model import (KsaModel, ModelConfig, build_training_items,
                         train_model, valid_macro_f1)
from ksaqa.relabel import (ambiguity_rate, build_pattern_index, negative_pool,
                           relabel_dataset)
from ksaqa.transe import TransEConfig, mean_tail_rank, train_transe

from corpus_util import (ambiguity_corpus, chain_kb, oracle_negative_pool,
                         oracle_pattern_index, oracle_plausible, random_instance)
from extra_ops import dropout, mul, sum_all


def _report(capsys, n, ok, detail):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(f"\n{line}", flush=True)
    assert ok, line


# -- shared synthetic instances (criteria 2 and 3) ----------------------------


@pytest.fixture(scope="module")
def synthetic():
    """(instances, build_seconds): 20 relabeled random worlds.

    Each instance is (world, kb, aliases, records, formatted, examples).
    """
    t0 = time.time()
    instances = []
    for seed in range(20):
        world = random_instance(seed)
        kb, aliases, records = world.build()
        formatted = [format_question(r, aliases) for r in records]
        index = build_pattern_index(records, formatted)
        examples, skipped = relabel_dataset(records, formatted, kb, aliases, index)
        assert skipped == sum(1 for f in formatted if f is None)
        instances.append((world, kb, aliases, records, formatted, examples))
    return instances, time.time() - t0


# -- criterion 1: gradient correctness ------------------------------------------


def _primitive_checks():
    """Max FD relative error across every differentiable primitive (h=1e-5)."""
    rng = np.random.default_rng(0)
    p = lambda n, *s: Parameter(n, rng.standard_normal(s) * 0.7)
    worst = 0.0

    def chk(f, tensors, h=1e-5):
        nonlocal worst
        worst = max(worst, grad_check(f, tensors, h=h))

    a, b = p("a", 3, 4), p("b", 3, 4)
    bias, vec = p("bias", 4), p("v", 3)
    chk(lambda t: sum_all(ad.add(t[0], t[1])), [a, b])
    chk(lambda t: sum_all(ad.add(t[0], t[1])), [a, bias])      # broadcast
    chk(lambda t: sum_all(mul(t[0], t[1])), [a, b])
    chk(lambda t: sum_all(ad.scale(t[0], -1.7)), [a])
    m34, m43 = p("m34", 3, 4), p("m43", 4, 3)
    chk(lambda t: sum_all(ad.matmul(t[0], t[1])), [m34, m43])
    chk(lambda t: sum_all(ad.matmul(t[0], t[1])), [vec, m34])
    chk(lambda t: sum_all(ad.concat([t[0], t[1]], axis=0)), [a, b])
    chk(lambda t: sum_all(ad.concat([t[0], t[1]], axis=1)), [a, b])
    idx = np.array([0, 2, 2])
    chk(lambda t: sum_all(t[0][idx]), [a])                      # fancy + dup
    chk(lambda t: sum_all(t[0][1]), [a])
    chk(lambda t: sum_all(ad.sigmoid(t[0])), [a])
    chk(lambda t: sum_all(ad.tanh(t[0])), [a])
    chk(lambda t: sum_all(mul(ad.softmax(t[0]), t[0])), [vec])
    chk(lambda t: sum_all(mul(ad.softmax(t[0]), t[0])), [a])        # per row
    keep = np.array([[True, False, True, False], [True, True, True, True],
                     [False, False, False, True]])
    chk(lambda t: sum_all(mul(ad.softmax(t[0], keep), t[0])), [a])  # masked
    s234, s245 = p("s234", 2, 3, 4), p("s245", 2, 4, 5)
    chk(lambda t: sum_all(ad.tanh(ad.matmul(t[0], t[1]))), [s234, s245])  # stacked
    chk(lambda t: sum_all(ad.tanh(ad.transpose(t[0], (1, 0, 2)))), [s234])
    chk(lambda t: sum_all(ad.tanh(ad.add(ad.reshape(t[0], (3, 1, 4)), t[1]))),
        [a, p("hw", 2, 4)])                                                # [3, 2, 4]
    chk(lambda t: sum_all(ad.embedding_lookup(t[0], idx)), [a])
    labels = np.array([1.0, 0.0, 1.0])
    chk(lambda t: ad.bce_with_logits_sum(t[0], labels), [vec])
    chk(lambda t: sum_all(dropout(t[0], 0.5, Rng(5))), [a])
    x, h0 = p("x", 4, 3), p("h0", 2)
    wx, wh, bg = p("wx", 3, 6), p("wh", 2, 6), p("bg", 6)
    chk(lambda t: sum_all(ad.gru_sequence(t[0], ad.Tensor(np.zeros(2)),
                                             t[1], t[2], t[3])),
        [x, wx, wh, bg], h=1e-4)
    hn = p("hn", 3, 2)                                                     # [n, H] state
    chk(lambda t: sum_all(ad.tanh(ad.gru_sequence(t[0], t[1], t[2], t[3], t[4]))),
        [x, hn, wx, wh, bg], h=1e-4)
    xn = p("xn", 4, 3, 3)                                           # a row per state, masked
    steps = np.arange(4)[:, None] < np.array([1, 4, 2])[None, :]
    for active in (steps, steps[::-1]):
        chk(lambda t: sum_all(ad.tanh(ad.gru_sequence(t[0], t[1], t[2], t[3], t[4],
                                                         active))),
            [xn, hn, wx, wh, bg], h=1e-4)
    for active in (None, steps):                                    # reverse, as bigru's
        chk(lambda t: sum_all(ad.tanh(ad.gru_sequence(t[0], t[1], t[2], t[3], t[4],
                                                         active, reverse=True))),
            [xn, hn, wx, wh, bg], h=1e-4)
    em, tr = p("em", 4, 2), p("tr", 2, 2)
    st, en = p("st", 2), p("en", 2)
    tags = np.array([0, 1, 1, 0])
    chk(lambda t: ad.crf_log_likelihood(t[0], t[1], t[2], t[3], tags),
        [em, tr, st, en])
    return worst


def _two_question_world():
    kb = ingest_triples([
        "www.freebase.com/m/a\twww.freebase.com/rel/p\twww.freebase.com/m/x\n",
        "www.freebase.com/m/a\twww.freebase.com/rel/q\twww.freebase.com/m/y\n",
        "www.freebase.com/m/b\twww.freebase.com/rel/s\twww.freebase.com/m/y\n",
        "www.freebase.com/m/b\twww.freebase.com/rel/p\twww.freebase.com/m/z\n",
    ])
    aliases = ingest_aliases([
        "www.freebase.com/m/a\talpha thing\n",
        "www.freebase.com/m/b\talpha thing\n",
    ])
    records = parse_simplequestions([
        "www.freebase.com/m/a\twww.freebase.com/rel/p\twww.freebase.com/m/x\twhat is alpha thing\n",
        "www.freebase.com/m/b\twww.freebase.com/rel/s\twww.freebase.com/m/y\twhere lives alpha thing\n",
    ])
    formatted = [format_question(r, aliases) for r in records]
    index = build_pattern_index(records, formatted)
    examples, skipped = relabel_dataset(records, formatted, kb, aliases, index)
    assert skipped == 0 and len(examples) == 2
    vocab = build_vocabulary([r.tokens for r in records]
                             + [f.tokens for f in formatted])
    return kb, vocab, examples


def test_criterion_1_gradient_correctness(capsys):
    t0 = time.time()
    prim_err = _primitive_checks()

    kb, vocab, examples = _two_question_world()
    cfg = ModelConfig(d_word=4, d_rel=3, d_hidden=3, attention_hidden=4,
                      dropout=0.0, seed=11)
    model = KsaModel(vocab, kb.relations, cfg)
    items = build_training_items(model, examples, kb, Rng(11))
    assert len({tuple(i[0]) for i in items}) == 2    # both questions in the batch
    params = model.parameters()

    # every parameter group participates in the graph
    with Tape():
        loss = model.loss(items)
        for p in params:
            p.grad = None
        ad.backward(loss)
    dead = [p.name for p in params if p.grad is None or not np.any(p.grad)]
    assert dead == [], f"parameter groups without gradient: {dead}"

    full_err = grad_check(lambda t: model.loss(items), params, h=3e-3)
    elapsed = time.time() - t0
    ok = prim_err < 1e-4 and full_err < 1e-4 and elapsed < 60.0
    _report(capsys, 1, ok,
            f"FD max rel err: primitives {prim_err:.2e}, full loss "
            f"{full_err:.2e} (h=3e-3, all {len(params)} groups), "
            f"tol 1e-4, {elapsed:.1f}s < 60s")


# -- criterion 2: relabeler oracle equivalence ------------------------------------


def test_criterion_2_relabeler_matches_brute_force(capsys, synthetic):
    instances, build_s = synthetic
    t0 = time.time()
    questions = 0
    for world, kb, aliases, records, formatted, examples in instances:
        oracle_index = oracle_pattern_index(records, formatted)
        it = iter(examples)
        oracle_ambiguous = 0
        formatable = 0
        for rec, fq in zip(records, formatted):
            if fq is None:
                continue
            formatable += 1
            ex = next(it)
            want = oracle_plausible(rec, fq, world, oracle_index)
            assert ex.positives == want, rec.text
            assert ex.ambiguous == (len(want) >= 2)
            oracle_ambiguous += len(want) >= 2
            for s in sorted({s for s, _ in ex.positives}):
                assert [kb.relations[r] for r in negative_pool(ex, s, kb)] == \
                    oracle_negative_pool(world, s, want)
            questions += 1
        assert ambiguity_rate(examples) == (
            oracle_ambiguous / formatable if formatable else 0.0)
    elapsed = build_s + (time.time() - t0)
    ok = elapsed < 30.0
    _report(capsys, 2, ok,
            f"plausible_set/is_ambiguous/ambiguity_rate/negative_pool match "
            f"enumeration on 20 instances ({questions} questions), "
            f"{elapsed:.1f}s < 30s")


# -- criterion 3: gold containment and hit-any dominance ---------------------------


def test_criterion_3_gold_containment_and_hit_any(capsys, synthetic, world):
    instances, _ = synthetic
    total = contained = 0
    for _, kb, aliases, records, formatted, examples in instances:
        for ex in examples:
            total += 1
            contained += ex.gold in ex.positives
    runs = []

    def run(examples, model, kb, tag):
        rep = evaluate(examples, model, kb)
        runs.append((tag, rep.hit_any_rate, rep.top1_accuracy))
        return rep.hit_any_rate >= rep.top1_accuracy

    kb_m, vocab_m, examples_m = world
    small = dict(d_word=10, d_rel=8, d_hidden=6, attention_hidden=5, dropout=0.0)
    dominated = True
    zero = KsaModel(vocab_m, kb_m.relations, ModelConfig(**small, seed=0))
    for p in zero.parameters():
        p.data = np.zeros_like(p.data)
    dominated &= run(examples_m, zero, kb_m, "micro/zeroed")
    for seed in (1, 9):
        dominated &= run(examples_m,
                         KsaModel(vocab_m, kb_m.relations,
                                  ModelConfig(**small, seed=seed)),
                         kb_m, f"micro/seed{seed}")
    for world_i, kb_i, aliases_i, records_i, formatted_i, examples_i in instances[:3]:
        vocab_i = build_vocabulary([r.tokens for r in records_i]
                                   + [f.tokens for f in formatted_i if f])
        model_i = KsaModel(vocab_i, kb_i.relations, ModelConfig(**small, seed=4))
        dominated &= run(examples_i, model_i, kb_i, "synthetic")
    ok = contained == total and total > 0 and dominated
    _report(capsys, 3, ok,
            f"gold pair in SR(q) for {contained}/{total} formatable questions "
            f"(100%); hit_any >= top1 on all {len(runs)} evaluation runs")


# -- criterion 4: CRF against enumeration ----------------------------------------


def _enumerate_crf(emis, trans, start, stop):
    m, k = emis.shape
    scores = []
    paths = list(itertools.product(range(k), repeat=m))
    for path in paths:
        s = start[path[0]] + emis[0, path[0]]
        for t in range(1, m):
            s += trans[path[t - 1], path[t]] + emis[t, path[t]]
        s += stop[path[-1]]
        scores.append(s)
    scores = np.array(scores)
    best = paths[int(np.argmax(scores))]
    logz = float(np.logaddexp.reduce(scores))
    return logz, np.array(best, dtype=np.int64)


def test_criterion_4_crf_matches_enumeration(capsys):
    rng = np.random.default_rng(42)
    worst = 0.0
    viterbi_exact = True
    for _ in range(200):
        m = int(rng.integers(1, 9))
        emis = rng.standard_normal((m, 2)) * 2.0
        trans = rng.standard_normal((2, 2))
        start = rng.standard_normal(2)
        stop = rng.standard_normal(2)
        logz, _ = crf.crf_logz(emis, trans, start, stop)
        want_logz, want_path = _enumerate_crf(emis, trans, start, stop)
        worst = max(worst, abs(logz - want_logz) / max(1.0, abs(want_logz)))
        got = crf.crf_viterbi(emis, trans, start, stop)
        viterbi_exact &= np.array_equal(got, want_path)
    ok = worst < 1e-8 and viterbi_exact
    _report(capsys, 4, ok,
            f"200 instances m<=8: logZ max rel err {worst:.2e} < 1e-8, "
            f"Viterbi exact: {viterbi_exact}")


# -- criterion 5: overfit capability and ablation ordering -------------------------


def test_criterion_5_overfit_and_ablation(capsys):
    t0 = time.time()
    kb, aliases, vocab, examples = ambiguity_corpus()

    def fit(variant):
        cfg = ModelConfig(variant=variant, d_word=32, d_rel=16, d_hidden=16,
                          attention_hidden=24, dropout=0.1, lr=0.01,
                          epochs=200, batch_size=64, seed=0)
        model = KsaModel(vocab, kb.relations, cfg)
        history = train_model(model, examples, kb, valid_examples=examples,
                              target_f1=0.95)
        return valid_macro_f1(model, examples, kb), len(history)

    ksa_f1, ksa_epochs = fit("KSA-BiGRU")
    elapsed_ksa = time.time() - t0
    bigru_f1, bigru_epochs = fit("BiGRU")
    ok = ksa_f1 >= 0.95 and ksa_epochs <= 200 and elapsed_ksa < 300.0 \
        and bigru_f1 < ksa_f1
    _report(capsys, 5, ok,
            f"50q/12rel/20ent corpus: KSA-BiGRU macro-F1 {ksa_f1:.4f} >= 0.95 "
            f"in {ksa_epochs} epochs ({elapsed_ksa:.1f}s < 300s); BiGRU "
            f"{bigru_f1:.4f} after {bigru_epochs} epochs (strictly lower)")


# -- criterion 6: metric exactness --------------------------------------------------


def test_criterion_6_metric_exactness(capsys, world):
    table = [
        (set(), {("s", "g")}, (0.0, 0.0, 0.0)),
        ({("s", "g")}, {("s", "g")}, (1.0, 1.0, 1.0)),
        ({("s", "a"), ("s", "g")}, {("s", "g")}, (0.5, 1.0, 2 / 3)),
        ({("s", "g")}, {("s", "g"), ("s", "b")}, (1.0, 0.5, 2 / 3)),
        ({("s", "a")}, {("s", "g")}, (0.0, 0.0, 0.0)),
        ({("s", "a"), ("s", "b")}, {("s", "b"), ("s", "c")}, (0.5, 0.5, 0.5)),
        ({("s", "a")}, set(), (0.0, 0.0, 0.0)),
    ]
    exact = all(prf1(pred, gold) == want for pred, gold, want in table)

    # strict lambda boundary: a zeroed model scores exactly 0.5 everywhere
    kb, vocab, _ = world
    model = KsaModel(vocab, kb.relations,
                     ModelConfig(d_word=10, d_rel=8, d_hidden=6,
                                 attention_hidden=5, dropout=0.0, lam=0.5))
    for p in model.parameters():
        p.data = np.zeros_like(p.data)
    scores = model.score_pairs(["who", "wrote", "<e>"], ["01"], kb)
    boundary = (all(s.probability == 0.5 for s in scores)
                and model.predict(["who", "wrote", "<e>"], ["01"], kb) == set())
    ok = exact and boundary
    _report(capsys, 6, ok,
            f"prf1 table of {len(table)} cases exact; tie at lambda=0.5 "
            f"excluded by the strict inequality")


# -- criterion 7: determinism and persistence ---------------------------------------


def test_criterion_7_determinism_and_persistence(capsys, world, tmp_path):
    kb, vocab, examples = world
    cfg = dict(d_word=10, d_rel=8, d_hidden=6, attention_hidden=5,
               dropout=0.0, lr=0.05, epochs=6, batch_size=8, seed=0)

    def train_once():
        model = KsaModel(vocab, kb.relations, ModelConfig(**cfg))
        history = train_model(model, examples, kb, valid_examples=examples)
        return model, json.dumps(history).encode()

    model, blob1 = train_once()
    _, blob2 = train_once()
    histories_identical = blob1 == blob2

    tokens, cands = ["who", "wrote", "<e>"], ["01", "02"]
    base = model.score_pairs(tokens, cands, kb)
    model.save(tmp_path / "m.ckpt")
    first = KsaModel.load(tmp_path / "m.ckpt", vocab, kb.relations)
    first.save(tmp_path / "m2.ckpt")
    second = KsaModel.load(tmp_path / "m2.ckpt", vocab, kb.relations)
    s1 = [(s.pair, s.probability) for s in first.score_pairs(tokens, cands, kb)]
    s2 = [(s.pair, s.probability) for s in second.score_pairs(tokens, cands, kb)]
    bit_exact = s1 == s2
    drift = max(abs(a.probability - b.probability)
                for a, b in zip(base, first.score_pairs(tokens, cands, kb)))
    ok = histories_identical and bit_exact and drift < 1e-6
    _report(capsys, 7, ok,
            f"seeded histories byte-identical: {histories_identical}; "
            f"round-trip score_pairs bit-exact on the stored f32 grid: "
            f"{bit_exact} (first-trip quantization {drift:.2e} < 1e-6)")


# -- criterion 8: TransE sanity -------------------------------------------------------


def test_criterion_8_transe_rank_and_norms(capsys):
    kb = chain_kb()
    assert kb.triple_count == 20
    emb, history = train_transe(
        kb, TransEConfig(dim=8, margin=1.0, norm="l2", lr=0.05,
                         epochs=200, batch_size=4, seed=0))
    rank = mean_tail_rank(kb, emb)
    norms_after = np.abs(np.linalg.norm(emb.entity, axis=1) - 1.0).max()

    # norms stay unit after EVERY kernel step, checked step-by-step
    rng = np.random.default_rng(0)
    ent = rng.standard_normal((kb.entity_count, 8))
    ent /= np.linalg.norm(ent, axis=1, keepdims=True)
    rel = rng.standard_normal((kb.relation_count, 8))
    rel /= np.linalg.norm(rel, axis=1, keepdims=True)
    hs, rs, ts = kb.triples()
    g = np.random.default_rng(1)
    stepwise = 0.0
    for _ in range(50):
        idx = g.integers(0, hs.size, 5)
        h, r, t = hs[idx], rs[idx], ts[idx]
        nh, nt = h.copy(), g.integers(0, kb.entity_count, 5)
        valid = np.ones(5, dtype=np.bool_)
        transe_ops.transe_batch(ent, rel, h, r, t, nh, nt, valid, True, 0.05, 1.0)
        touched = np.unique(np.concatenate([h, t, nt]))
        stepwise = max(stepwise,
                       np.abs(np.linalg.norm(ent[touched], axis=1) - 1.0).max())
    ok = rank <= 2.0 and norms_after < 1e-9 and stepwise < 1e-9
    _report(capsys, 8, ok,
            f"20-triple KB: mean tail rank {rank:.2f} <= 2.0; entity norms "
            f"1 +/- {max(norms_after, stepwise):.1e} after every step "
            f"(tol 1e-9); final margin loss {history[-1]:.3f}")


# -- criterion 9: paper-scale numbers are gated, documented, and checked on demand ----


FULL_TRIPLES = os.environ.get("KSAQA_FB2M_TRIPLES")
FULL_ALIASES = os.environ.get("KSAQA_FB2M_ALIASES")
FULL_SQ_DIR = os.environ.get("KSAQA_SQ_DIR")


def test_criterion_9_paper_scale_gate(capsys, micro_raw, tmp_path):
    # the reference targets live in documentation, not in CI assertions
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8") if readme.exists() else ""
    documented = all(num in text for num in
                     ("86.7", "84.8", "84.9", "73.1", "33.9", "95.5", "84.65"))

    # the --full gate is wired and rejects non-paper-scale counts
    gate = (cli.FULL_KB_COUNTS == (2_150_604, 6_701, 14_180_937)
            and cli.FULL_SPLIT_COUNTS == {"train": 75_910, "valid": 10_845,
                                          "test": 21_687})
    data = tmp_path / "data"
    data.mkdir()
    (data / "triples.txt").write_text("".join(micro_raw.triple_lines))
    (data / "aliases.txt").write_text("".join(micro_raw.alias_lines))
    rc = cli.main(["ingest-kb", "--triples", str(data / "triples.txt"),
                   "--aliases", str(data / "aliases.txt"),
                   "--workdir", str(tmp_path / "w"), "--full"])
    gate = gate and rc == 3

    checked = []
    if FULL_TRIPLES and FULL_ALIASES:
        with open(FULL_TRIPLES, encoding="utf-8") as fh:
            kb = ingest_triples(fh)
        counts = (kb.entity_count, kb.relation_count, kb.triple_count)
        checked.append(f"KB counts {counts}")
        assert counts == cli.FULL_KB_COUNTS
    if FULL_SQ_DIR:
        for split, want in cli.FULL_SPLIT_COUNTS.items():
            path = Path(FULL_SQ_DIR) / f"annotated_fb_data_{split}.txt"
            with open(path, encoding="utf-8") as fh:
                got = len(parse_simplequestions(fh, split))
            checked.append(f"{split} {got}")
            assert got == want
    supplied = "; full-data counts verified: " + ", ".join(checked) if checked \
        else "; full corpora not supplied (env unset), count check skipped"
    ok = documented and gate
    _report(capsys, 9, ok,
            f"reference targets documented: {documented}; --full flag wired "
            f"with exact paper-scale counts and rejects other data: {gate}"
            + supplied)
