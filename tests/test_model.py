"""Relation-predictor tests: closed forms, variant contract, loss oracle.

The zero-weight closed forms pin the architecture: a zeroed model must
produce u_KS = 0, probability 1/2 for every relation, and a summed BCE of
n*ln(2) over n scored rows.  The variant contract is behavioural: BiGRU
must be bit-for-bit blind to the subgraph while KS/KSA must not be.  The
batched scoring and training pass is checked against the per-subject pass
it replaced (``per_subject_oracle``).
"""

import gc
import math
import sys
import threading
import time
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ksaqa import autodiff as ad
import ksaqa.model as model_mod
from ksaqa.autodiff import Rng, Tape
from ksaqa.dataset import build_vocabulary
from ksaqa.errors import CheckpointError, ConfigError, ShapeError
from ksaqa.evaluation import export_attention
from ksaqa.model import (KsaModel, ModelConfig, VARIANTS, build_training_items,
                         train_model, valid_macro_f1)
from ksaqa.optim import Adam

import per_subject_oracle as oracle

SMALL = dict(d_word=10, d_rel=8, d_hidden=6, attention_hidden=5,
             dropout=0.0, lr=0.05, epochs=2, batch_size=8, seed=3)


def _model(world, variant="KSA-BiGRU", **over):
    kb, vocab, _ = world
    cfg = ModelConfig(variant=variant, **{**SMALL, **over})
    return KsaModel(vocab, kb.relations, cfg)


def _zeroed(model):
    for p in model.parameters():
        p.data = np.zeros_like(p.data)
    return model


# -- configuration ----------------------------------------------------------


def test_config_rejects_unknown_variant():
    with pytest.raises(ConfigError, match="variant"):
        ModelConfig(variant="GRU-KSA")


@pytest.mark.parametrize("lam", [0.0, 1.0, -0.2, 1.5])
def test_config_rejects_lambda_outside_open_interval(lam):
    with pytest.raises(ConfigError, match="lambda"):
        ModelConfig(lam=lam)


@pytest.mark.parametrize("field", ["d_word", "d_rel", "d_hidden",
                                   "attention_hidden", "batch_size"])
def test_config_rejects_nonpositive_dimensions(field):
    with pytest.raises(ConfigError, match=field):
        ModelConfig(**{field: 0})


# -- zero-weight closed forms -------------------------------------------------


def test_zero_weights_give_zero_subgraph_state(world):
    model = _zeroed(_model(world))
    u = model.encode_subgraph([np.array([0, 2, 4], dtype=np.int64)])
    assert u.data.shape == (1, SMALL["d_hidden"])
    assert np.all(u.data == 0.0)


def test_empty_subgraph_state_is_zero_without_zeroing(world):
    model = _model(world)
    assert np.all(model.encode_subgraph([np.array([], dtype=np.int64)]).data == 0.0)


def test_bigru_subgraph_state_is_always_zero(world):
    model = _model(world, variant="BiGRU")
    assert np.all(model.encode_subgraph([np.array([0, 1], dtype=np.int64)]).data == 0.0)


def test_encode_subgraph_rejects_out_of_range_rows(world):
    model = _model(world)
    nr = len(model.relations)
    with pytest.raises(ShapeError, match="out of range"):
        model.encode_subgraph([np.array([0]), np.array([nr], dtype=np.int64)])


@pytest.mark.parametrize("variant", VARIANTS)
def test_zero_weights_score_exactly_half(world, variant):
    model = _zeroed(_model(world, variant=variant))
    enc, _ = model.encoder_output([["who", "wrote", "<e>"]], [np.array([0, 1])])
    probs = ad.sigmoid(model.decode_logits(enc, [np.arange(len(model.relations))])).data
    assert probs.shape == (len(model.relations),)
    assert np.all(probs == 0.5)


def test_zero_weight_loss_is_n_ln2(world):
    model = _zeroed(_model(world))
    batch = [
        (["who", "wrote", "<e>"], np.array([0, 4]), np.array([0, 2, 3]),
         np.array([1.0, 0.0, 0.0])),
        (["where", "was", "<e>", "born"], np.array([2]), np.array([4, 1]),
         np.array([1.0, 0.0])),
    ]
    loss = model.loss(batch)
    assert abs(float(loss.data) - 5 * math.log(2.0)) < 1e-12


# -- attention ----------------------------------------------------------------


def _subject_states(model, *rows):
    """u_KS of each row list, stacked as [n, H]."""
    return model.encode_subgraph([np.array(r) for r in rows])


def test_attention_weights_sum_to_one(world):
    model = _model(world)
    hs, _ = model.encode_question([["who", "wrote", "<e>", "first"]])
    p, alpha = model.attend(hs, _subject_states(model, [0, 3], [2]), [4], np.zeros(2, int))
    assert alpha.data.shape == (2, 4)
    assert np.all(np.abs(alpha.data.sum(axis=1) - 1.0) < 1e-12)
    assert np.all(alpha.data > 0.0)
    assert p.data.shape == (2, 2 * SMALL["d_hidden"])


def test_attention_over_one_token_is_identity(world):
    model = _model(world)
    hs, _ = model.encode_question([["<e>"]])
    p, alpha = model.attend(hs, _subject_states(model, [1]), [1])
    assert alpha.data.shape == (1, 1)
    assert float(alpha.data[0, 0]) == 1.0
    np.testing.assert_array_equal(p.data[0], hs.data[0, 0])


@pytest.mark.parametrize("variant", ["BiGRU", "KS-BiGRU"])
def test_attend_requires_the_full_variant(world, variant):
    model = _model(world, variant=variant)
    hs, _ = model.encode_question([["who", "wrote", "<e>"]])
    with pytest.raises(ConfigError, match="attention"):
        model.attend(hs, ad.Tensor(np.zeros((1, SMALL["d_hidden"]))), [3])


# -- variant contract -----------------------------------------------------------


def test_bigru_is_blind_to_the_subgraph(world):
    model = _model(world, variant="BiGRU")
    tokens = ["who", "wrote", "<e>"]
    enc_a, alpha_a = model.encoder_output([tokens], [np.array([0, 1, 2])])
    enc_b, alpha_b = model.encoder_output([tokens], [np.array([4])])
    np.testing.assert_array_equal(enc_a.data, enc_b.data)
    assert alpha_a is None and alpha_b is None


@pytest.mark.parametrize("variant", ["KS-BiGRU", "KSA-BiGRU"])
def test_knowledge_variants_read_the_subgraph(world, variant):
    model = _model(world, variant=variant)
    tokens = ["who", "wrote", "<e>"]
    enc_a, _ = model.encoder_output([tokens], [np.array([0, 1, 2])])
    enc_b, _ = model.encoder_output([tokens], [np.array([4])])
    assert not np.array_equal(enc_a.data, enc_b.data)


def test_only_the_full_variant_returns_attention(world):
    tokens = ["who", "wrote", "<e>"]
    rows = [np.array([0, 1])]
    assert _model(world, variant="KS-BiGRU").encoder_output([tokens], rows)[1] is None
    alpha = _model(world, variant="KSA-BiGRU").encoder_output([tokens], rows)[1]
    assert alpha is not None and abs(float(alpha.data.sum()) - 1.0) < 1e-12


def test_parameter_counts_order_the_variants(world):
    n = {v: _model(world, variant=v).parameter_count() for v in VARIANTS}
    assert n["BiGRU"] < n["KS-BiGRU"] < n["KSA-BiGRU"]
    h, c = SMALL["d_hidden"], SMALL["attention_hidden"]
    assert n["KSA-BiGRU"] - n["KS-BiGRU"] == 3 * h * c + c + c


def test_shuffle_augment_permutes_only_in_training(world):
    model = _model(world, shuffle_augment=True)
    tokens, rows = [["who", "wrote", "<e>"]], np.array([0, 1, 2, 3], dtype=np.int64)
    perm = Rng(5).permutation(rows.size)
    assert not np.array_equal(perm, np.arange(rows.size))  # seed guard
    shuffled, _ = model.encoder_output(tokens, [rows], Rng(5))
    canonical, _ = model.encoder_output(tokens, [rows])
    reference, _ = model.encoder_output(tokens, [rows[perm]])
    assert not np.array_equal(shuffled.data, canonical.data)
    np.testing.assert_array_equal(shuffled.data, reference.data)


# -- loss oracle ----------------------------------------------------------------


def _bce_sum(logits, labels):
    l, y = np.asarray(logits, dtype=float), np.asarray(labels, dtype=float)
    return float(np.sum(np.maximum(l, 0.0) - l * y + np.log1p(np.exp(-np.abs(l)))))


@pytest.mark.parametrize("variant", VARIANTS)
def test_loss_matches_per_term_bce_oracle(world, variant):
    model = _model(world, variant=variant)
    batch = [
        (["who", "wrote", "<e>"], np.array([0, 4]), np.array([0, 2, 3]),
         np.array([1.0, 0.0, 0.0])),
        (["where", "was", "<e>", "born"], np.array([2]), np.array([4, 1]),
         np.array([1.0, 0.0])),
        (["which", "film", "stars", "<e>"], np.array([1, 3]), np.array([2]),
         np.array([1.0])),
    ]
    total = float(model.loss(batch).data)
    expect = 0.0
    for tokens, rel_rows, scored, labels in batch:
        enc, _ = model.encoder_output([tokens], [rel_rows])
        logits = model.decode_logits(enc, [scored]).data
        expect += _bce_sum(logits, labels)
    assert abs(total - expect) < 1e-10


def test_training_loss_outside_train_model_follows_its_rng(world):
    """An rng turns on dropout and the shuffle, drawn item by item in batch order."""
    model = _model(world, dropout=0.3, shuffle_augment=True)
    batch = [
        (["who", "wrote", "<e>"], np.array([0, 2, 4]), np.array([0, 2, 3]),
         np.array([1.0, 0.0, 0.0])),
        (["where", "was", "<e>", "born"], np.array([1, 2, 3]), np.array([4, 1]),
         np.array([1.0, 0.0])),
    ]
    total = float(model.loss(batch, Rng(4)).data)
    assert math.isfinite(total)
    assert total == float(model.loss(batch, Rng(4)).data)
    assert total != float(model.loss(batch).data)
    rng, expect = Rng(4), 0.0
    for tokens, rel_rows, scored, labels in batch:
        enc, _ = model.encoder_output([tokens], [rel_rows], rng)
        expect += _bce_sum(model.decode_logits(enc, [scored]).data, labels)
    assert abs(total - expect) < 1e-10


# -- batched pass vs the per-subject oracle --------------------------------------

# duplicates and unknown ids; "10" has one relation; "40" is known but has none
CANDIDATE_SETS = [["02", "01", "01", "unknown-guy", "40", "03", "04"], ["10"],
                  ["10", "01"], ["40", "unknown-guy"], []]
QUESTIONS = [["who", "wrote", "<e>"], ["<e>"]]


@pytest.mark.parametrize("variant", VARIANTS)
def test_batched_scores_equal_the_per_subject_oracle(world, variant):
    kb, _, _ = world
    model = _model(world, variant=variant)
    for tokens in QUESTIONS:
        for candidates in CANDIDATE_SETS:
            got = model.score_pairs(tokens, candidates, kb)
            want = oracle.score_pairs(model, tokens, candidates, kb)
            assert [s.pair for s in got] == [s.pair for s in want]
            for a, b in zip(got, want):
                assert abs(a.probability - b.probability) <= 1e-12


@pytest.mark.parametrize("budget", [1, 9, 4096])
@pytest.mark.parametrize("variant", VARIANTS)
def test_score_questions_equal_one_question_at_a_time(world, monkeypatch, variant, budget):
    """The whole grid above in one call, in chunks of at most ``budget`` pairs
    (1: a pass per question that has any), against ``score_pairs`` on each
    question and the per-subject oracle."""
    kb, _, _ = world
    model = _model(world, variant=variant)
    cases = [(tokens, candidates) for tokens in QUESTIONS for candidates in CANDIDATE_SETS]
    scored = [model.score_pairs(tokens, candidates, kb) for tokens, candidates in cases]
    passes = []
    encoder_output = model.encoder_output
    monkeypatch.setattr(model, "encoder_output",
                        lambda qs, *a, **kw: passes.append(len(qs)) or encoder_output(qs, *a, **kw))
    monkeypatch.setattr(model_mod, "PAIR_BUDGET", budget)
    got = model.score_questions([t for t, _ in cases], [c for _, c in cases], kb)
    with_pairs = sum(bool(want) for want in scored)
    assert sum(passes) == with_pairs
    assert len(passes) == {1: with_pairs, 4096: 1}.get(budget, len(passes))
    assert budget != 9 or 1 < len(passes) < with_pairs
    assert len(got) == len(cases)
    for (tokens, candidates), scores, alone in zip(cases, got, scored):
        for want in (alone, oracle.score_pairs(model, tokens, candidates, kb)):
            assert [s.pair for s in scores] == [s.pair for s in want]
            for a, b in zip(scores, want):
                assert abs(a.probability - b.probability) <= 1e-12


def _at_float32_max(params, seed):
    """Set every parameter to +-float32 max, signs drawn from ``seed``: the
    largest weights a finite checkpoint can hold."""
    rng = np.random.default_rng(seed)
    big = float(np.finfo(np.float32).max)
    for p in params:
        p.data[...] = np.where(rng.random(p.data.shape) < 0.5, -big, big)


@pytest.mark.parametrize("variant", VARIANTS)
def test_weights_at_float32_max_still_score_finite_probabilities(world, variant):
    """Inference scans no op output: every value it forms from finite
    weights, however large, stays finite, and each probability in [0, 1]."""
    kb, _, _ = world
    model = _model(world, variant=variant)
    _at_float32_max(model.parameters(), seed=4)
    cases = [(tokens, candidates) for tokens in QUESTIONS for candidates in CANDIDATE_SETS]
    with np.errstate(all="ignore"):
        got = model.score_questions([t for t, _ in cases], [c for _, c in cases], kb)
    probs = [s.probability for scores in got for s in scores]
    assert probs and all(0.0 <= p <= 1.0 for p in probs), probs


def test_exported_attention_equals_the_oracle_alpha(world):
    kb, _, _ = world
    model = _model(world)
    for tokens in QUESTIONS:
        for subject in ("01", "10", "40", "unknown-guy"):
            got = export_attention(model, tokens, subject, kb).weights
            _, want = oracle.encoder_output(model, tokens, model.subject_rows(kb, subject))
            assert got.shape == want.data.shape
            assert np.all(np.abs(got - want.data) <= 1e-12)


def _loss_and_grads(loss_fn, model, batch, rng):
    params = model.parameters()
    with Tape():
        loss = loss_fn(model, batch, rng)
        for p in params:
            p.grad = None
        ad.backward(loss)
    return float(loss.data), {p.name: p.grad for p in params}


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("seed", [None, 9])
def test_training_loss_and_gradients_equal_the_per_item_oracle(world, variant, seed):
    """With an rng (dropout 0.3, shuffle_augment) both draw item by item, alike."""
    kb, _, examples = world
    model = _model(world, variant=variant, dropout=0.3, shuffle_augment=True)
    batch = build_training_items(model, examples, kb, Rng(2))
    loss, grads = _loss_and_grads(KsaModel.loss, model, batch,
                                  None if seed is None else Rng(seed))
    want_loss, want_grads = _loss_and_grads(oracle.loss, model, batch,
                                            None if seed is None else Rng(seed))
    assert abs(loss - want_loss) <= 1e-12
    for name, g in grads.items():
        assert (g is None) == (want_grads[name] is None), name
        if g is not None:
            assert np.all(np.abs(g - want_grads[name]) <= 1e-12), name


# -- inference -------------------------------------------------------------------


def test_score_pairs_cover_candidate_subgraphs_in_order(world):
    kb, _, _ = world
    model = _zeroed(_model(world))
    scores = model.score_pairs(["who", "wrote", "<e>"],
                               ["02", "01", "01", "unknown-guy", "40"], kb)
    assert [s.pair for s in scores] == [
        ("01", "book/author/works_written"),
        ("01", "people/person/place_of_birth"),
        ("02", "book/author/works_written"),
        ("02", "film/actor/film"),
    ]
    assert all(s.probability == 0.5 for s in scores)


def test_score_pairs_sorted_by_descending_probability(world):
    kb, _, _ = world
    model = _model(world)
    scores = model.score_pairs(["who", "wrote", "<e>"], ["01", "02", "03", "04"], kb)
    probs = [s.probability for s in scores]
    assert probs == sorted(probs, reverse=True)
    assert len(scores) == 8  # four subjects x two relations each


def test_predict_threshold_is_strictly_greater(world):
    kb, _, _ = world
    model = _zeroed(_model(world))
    tokens = ["who", "wrote", "<e>"]
    assert model.predict(tokens, ["01"], kb) == set()          # config lam = 0.5
    assert model.predict(tokens, ["01"], kb, lam=0.5) == set()  # prob == lam excluded
    assert model.predict(tokens, ["01"], kb, lam=0.4) == {
        ("01", "book/author/works_written"),
        ("01", "people/person/place_of_birth"),
    }


def test_top1_returns_best_pair_or_none(world):
    kb, _, _ = world
    model = _model(world)
    scores = model.score_pairs(["who", "wrote", "<e>"], ["01", "02"], kb)
    assert model.top1(["who", "wrote", "<e>"], ["01", "02"], kb) == scores[0].pair
    assert model.top1(["who", "wrote", "<e>"], [], kb) is None
    assert model.top1(["who", "wrote", "<e>"], ["unknown-guy"], kb) is None


def test_encode_question_rejects_empty_input(world):
    with pytest.raises(ShapeError, match="empty"):
        _model(world).encode_question([])


# -- persistence --------------------------------------------------------------


@pytest.mark.parametrize("variant", VARIANTS)
def test_fresh_model_keeps_its_seeded_draw_order(world, variant):
    """The constructor's draws, replayed by hand in the order the seeded
    reruns and every trained checkpoint depend on."""
    kb, vocab, _ = world
    model = _model(world, variant)
    rng = Rng(SMALL["seed"])
    dw, dr, h, c = (SMALL[k] for k in ("d_word", "d_rel", "d_hidden", "attention_hidden"))
    nr = len(kb.relations)

    def gru(d_in):
        return [ad.init_weight(rng, d_in, 3 * h, (d_in, 3 * h)),
                ad.init_weight(rng, h, 3 * h, (h, 3 * h)), np.zeros(3 * h)]

    want = [ad.init_embedding(rng, (len(vocab), dw)), ad.init_embedding(rng, (nr + 1, dr))]
    want += gru(dw) + gru(dw) + gru(2 * h) + gru(2 * h)
    if variant != "BiGRU":
        want += gru(dr)
    if variant == "KSA-BiGRU":
        want += [ad.init_weight(rng, 3 * h, c, (3 * h, c)), ad.init_weight(rng, c, 1, (c,)),
                 np.zeros(c)]
    proj_in = 2 * h if variant == "BiGRU" else 3 * h
    want += [ad.init_weight(rng, proj_in, h, (proj_in, h)), np.zeros(h)]
    want += gru(dr) + [ad.init_weight(rng, h, nr, (h, nr)), np.zeros(nr)]
    got = [p.data for p in model.parameters()]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_checkpoint_round_trip_preserves_scores(world, tmp_path):
    kb, vocab, _ = world
    model = _model(world)
    before = model.score_pairs(["who", "wrote", "<e>"], ["01", "02"], kb)
    path = tmp_path / "model.ckpt"
    model.save(path)
    first = KsaModel.load(path, vocab, kb.relations)
    second = KsaModel.load(path, vocab, kb.relations)
    for field in ("variant", "d_word", "d_rel", "d_hidden", "attention_hidden",
                  "dropout", "lam", "negatives_per_positive"):
        assert getattr(first.config, field) == getattr(model.config, field)
    after = first.score_pairs(["who", "wrote", "<e>"], ["01", "02"], kb)
    assert [s.pair for s in after] == [s.pair for s in before]
    for a, b in zip(after, before):
        assert abs(a.probability - b.probability) < 1e-6
    again = second.score_pairs(["who", "wrote", "<e>"], ["01", "02"], kb)
    assert [(s.pair, s.probability) for s in again] \
        == [(s.pair, s.probability) for s in after]


@pytest.mark.parametrize("variant", VARIANTS)
def test_loaded_scores_are_bit_equal_to_a_float64_widened_load(world, tmp_path, variant):
    """A loaded model keeps its gathered tables float32; every score equals,
    bit for bit, that of the same load with each table widened to float64."""
    kb, vocab, _ = world
    model = _model(world, variant=variant)
    rng = np.random.default_rng(6)
    for p in model.parameters():     # off every init value, zero biases included
        p.data += rng.standard_normal(p.data.shape)
    model.save(tmp_path / "m.ckpt")
    loaded, widened = (KsaModel.load(tmp_path / "m.ckpt", vocab, kb.relations) for _ in "ab")
    assert {p.name for p in loaded.parameters() if p.data.dtype == np.float32} == {
        "ksa.word_emb", "ksa.rel_emb", "ksa.out.w"}
    for p in widened.parameters():
        p.data = p.data.astype(np.float64)
    cases = [(tokens, candidates) for tokens in QUESTIONS for candidates in CANDIDATE_SETS]
    got, want = (m.score_questions([t for t, _ in cases], [c for _, c in cases], kb)
                 for m in (loaded, widened))
    assert any(got)
    assert [[(s.pair, s.probability) for s in q] for q in got] == \
        [[(s.pair, s.probability) for s in q] for q in want]


def test_checkpoint_rejects_foreign_vocabulary(world, tmp_path):
    kb, vocab, _ = world
    model = _model(world)
    path = tmp_path / "model.ckpt"
    model.save(path)
    other = build_vocabulary([["entirely", "different", "words"]])
    with pytest.raises(CheckpointError, match="vocabulary"):
        KsaModel.load(path, other, kb.relations)
    with pytest.raises(CheckpointError, match="relation"):
        KsaModel.load(path, vocab, kb.relations[:-1])


# -- training -------------------------------------------------------------------


def test_training_items_pair_positives_with_sampled_negatives(world):
    kb, _, examples = world
    model = _model(world)
    items = build_training_items(model, examples, kb, Rng(11))
    assert items
    for tokens, rel_rows, scored, labels in items:
        assert "<e>" in tokens
        assert scored.shape == labels.shape and scored.size > 0
        positives = set(scored[labels == 1.0].tolist())
        negatives = set(scored[labels == 0.0].tolist())
        assert positives and not positives & negatives
        # negatives are drawn from the subject's own subgraph rows
        assert negatives <= set(rel_rows.tolist())
        # at most k negatives per positive
        assert len(negatives) <= model.config.negatives_per_positive * len(positives)


def test_training_items_are_deterministic_per_seed(world):
    kb, _, examples = world
    model = _model(world)
    a = build_training_items(model, examples, kb, Rng(11))
    b = build_training_items(model, examples, kb, Rng(11))
    assert len(a) == len(b)
    for (ta, ra, sa, la), (tb, rb, sb, lb) in zip(a, b):
        assert ta == tb
        np.testing.assert_array_equal(ra, rb)
        np.testing.assert_array_equal(sa, sb)
        np.testing.assert_array_equal(la, lb)


def test_training_is_deterministic_per_seed(world):
    kb, _, examples = world
    m1, m2 = _model(world), _model(world)
    h1 = train_model(m1, examples, kb, valid_examples=examples)
    h2 = train_model(m2, examples, kb, valid_examples=examples)
    assert h1 == h2
    for p, q in zip(m1.parameters(), m2.parameters()):
        np.testing.assert_array_equal(p.data, q.data)


def test_training_loss_decreases_on_the_micro_world(world):
    kb, _, examples = world
    model = _model(world, epochs=8)
    history = train_model(model, examples, kb)
    assert [h["epoch"] for h in history] == list(range(1, 9))
    assert history[-1]["train_loss"] < history[0]["train_loss"]


def test_target_f1_stops_training_early(world):
    kb, _, examples = world
    model = _model(world, epochs=50)
    history = train_model(model, examples, kb, valid_examples=examples,
                          target_f1=0.0)
    assert len(history) == 1
    assert "valid_macro_f1" in history[0]


def test_training_requires_examples(world):
    kb, _, _ = world
    with pytest.raises(ConfigError, match="empty"):
        train_model(_model(world), [], kb)
    assert valid_macro_f1(_model(world), [], kb) == 0.0


def test_gradients_flow_through_every_parameter_group(world):
    """One backward pass touches every trainable array (no dead branches)."""
    kb, _, examples = world
    model = _model(world)
    items = build_training_items(model, examples, kb, Rng(2))
    with Tape():
        loss = model.loss(items)
        for p in model.parameters():
            p.grad = None
        ad.backward(loss)
    dead = [p.name for p in model.parameters()
            if p.grad is None or not np.any(p.grad)]
    assert dead == []


def test_a_training_step_frees_its_graph_before_the_next_forward(world, monkeypatch):
    """Step k's loss and an interior node of its graph are gone, by reference
    counting alone, when step k+1's forward starts."""
    kb, _, examples = world
    backward, loss_fn = ad.backward, KsaModel.loss
    held, alive_at_forward = [], []

    def tracked_backward(loss, where=None):
        assert loss.parents[0].tape is loss.tape      # an interior node
        held[:] = [weakref.ref(loss), weakref.ref(loss.parents[0])]
        return backward(loss, where)

    def forward(model, batch, rng=None):
        alive_at_forward.append([ref() is not None for ref in held])
        return loss_fn(model, batch, rng)

    monkeypatch.setattr(ad, "backward", tracked_backward)
    monkeypatch.setattr(KsaModel, "loss", forward)
    gc.disable()
    try:
        train_model(_model(world, epochs=3), examples, kb)
    finally:
        gc.enable()
    assert len(alive_at_forward) > 3 and alive_at_forward[0] == []
    assert all(alive == [False, False] for alive in alive_at_forward[1:])


def test_the_best_state_is_one_copy_restored_from_its_epoch(world, monkeypatch):
    """Each better validation score overwrites the one kept copy of Adam's
    arena (never two alive), and training ends on the best epoch's values."""
    kb, _, examples = world
    model = _model(world, epochs=4)
    keep, scores, at_epoch, kept = Adam.keep, iter([0.1, 0.5, 0.7, 0.3]), [], []

    def f1(model, examples, kb, lam=None):
        at_epoch.append(np.concatenate([p.data.ravel() for p in model.parameters()]))
        return next(scores)

    def counted(opt, into=None):
        copy = keep(opt, into=into)
        kept.append(weakref.ref(copy))
        assert len({id(a) for a in (ref() for ref in kept) if a is not None}) == 1
        return copy

    monkeypatch.setattr(model_mod, "valid_macro_f1", f1)
    monkeypatch.setattr(Adam, "keep", counted)
    history = train_model(model, examples, kb, valid_examples=examples)
    assert [h["valid_macro_f1"] for h in history] == [0.1, 0.5, 0.7, 0.3]
    assert len(kept) == 3
    final = np.concatenate([p.data.ravel() for p in model.parameters()])
    np.testing.assert_array_equal(final, at_epoch[2])
    assert not np.array_equal(final, at_epoch[3])


# -- the two-branch schedule -------------------------------------------------------

# the pipeline-desk and the paper dims: either side of model.PARALLEL_WIDTH
DESK = dict(d_word=64, d_rel=32, d_hidden=32, attention_hidden=48)
PAPER = dict(d_word=500, d_rel=300, d_hidden=300, attention_hidden=650)


def _schedule(monkeypatch, threaded):
    """Run encoder_output's branches one after the other, or the subgraph GRU
    on the worker thread, at any width and on a host with any CPU count."""
    monkeypatch.setattr(model_mod, "PARALLEL_WIDTH", 0 if threaded else sys.maxsize)
    monkeypatch.setattr(model_mod, "_cpus", lambda: 2)


def _subgraph_threads(model, monkeypatch):
    """(thread name, whether the caller has a tape open) of each
    encode_subgraph call made from now on; the worker runs in a copy of the
    caller's context, so it sees the caller's tape."""
    calls = []
    encode = model.encode_subgraph

    def traced(rows):
        calls.append((threading.current_thread().name, ad.recording()))
        return encode(rows)

    monkeypatch.setattr(model, "encode_subgraph", traced)
    return calls


def _on_schedule(world, monkeypatch, threaded, run, **over):
    """``run(model)`` on a fresh model, on the schedule asked for, checking
    that the subgraph GRU ran where that schedule puts it: on the worker only
    when threaded and no tape is open, else on the caller's thread."""
    model = _model(world, **over)
    with monkeypatch.context() as patch:
        _schedule(patch, threaded)
        calls = _subgraph_threads(model, patch)
        result = run(model)
    here = threading.current_thread().name
    if model.subgraph is not None:
        assert calls and all((name != here) == (threaded and not taped)
                             for name, taped in calls), calls
    return result, calls


@pytest.mark.parametrize("variant", ["KS-BiGRU", "KSA-BiGRU"])
def test_threaded_scores_are_bit_equal_to_inline(world, monkeypatch, variant):
    kb, _, _ = world
    cases = [(tokens, candidates) for tokens in QUESTIONS for candidates in CANDIDATE_SETS]

    def scores(model):
        got = model.score_questions([t for t, _ in cases], [c for _, c in cases], kb)
        return [[(s.pair, s.probability) for s in q] for q in got]

    (inline, _), (threaded, _) = (_on_schedule(world, monkeypatch, on, scores,
                                               variant=variant) for on in (False, True))
    assert any(inline) and threaded == inline


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("seed", [None, 9])
def test_threaded_loss_and_gradients_are_bit_equal_to_inline(world, monkeypatch, variant,
                                                             seed):
    """Under a tape the threaded schedule keeps both branches on the caller's
    thread (``_on_schedule`` checks it), with the inline run's bits."""
    kb, _, examples = world

    def step(model):
        batch = build_training_items(model, examples, kb, Rng(2))
        return _loss_and_grads(KsaModel.loss, model, batch, None if seed is None else Rng(seed))

    ((loss, grads), calls), ((want_loss, want_grads), _) = (
        _on_schedule(world, monkeypatch, on, step, variant=variant, dropout=0.3,
                     shuffle_augment=True) for on in (True, False))
    assert all(taped for _, taped in calls)
    assert loss == want_loss
    assert grads.keys() == want_grads.keys()
    for name, g in grads.items():
        assert g is not None and np.array_equal(g, want_grads[name]), name


def test_threaded_training_reruns_to_the_same_parameters(world, monkeypatch):
    """The training steps run inline on either schedule, and the per-epoch
    validation (no tape) still runs the subgraph GRU on the worker."""
    kb, _, examples = world

    def train(model):
        history = train_model(model, examples, kb, valid_examples=examples)
        return history, {p.name: p.data.copy() for p in model.parameters()}

    ((h1, p1), calls), ((h2, p2), _), ((h_inline, p_inline), _) = (
        _on_schedule(world, monkeypatch, on, train) for on in (True, True, False))
    assert {taped for _, taped in calls} == {True, False}
    assert h1 == h2 == h_inline
    for name, arr in p1.items():
        assert np.array_equal(arr, p2[name]) and np.array_equal(arr, p_inline[name]), name


@pytest.mark.parametrize("dims, starts", [(DESK, 0), (PAPER, 1)])
def test_only_the_paper_dims_start_the_worker_thread(world, monkeypatch, dims, starts):
    """A desk-dims score runs both branches on the caller's thread; a
    paper-dims one starts the worker, once, on a host with a second CPU."""
    kb, _, _ = world
    monkeypatch.setattr(model_mod, "_cpus", lambda: 2)
    fresh = ThreadPoolExecutor(max_workers=1)
    monkeypatch.setattr(model_mod, "_BRANCH", fresh)
    try:
        model = _model(world, **dims)
        before = threading.active_count()
        for _ in range(2):
            assert model.score_pairs(QUESTIONS[0], CANDIDATE_SETS[0], kb)
        assert threading.active_count() == before + starts
    finally:
        fresh.shutdown(wait=True)


def test_one_cpu_runs_both_branches_on_the_callers_thread(world, monkeypatch):
    kb, _, _ = world
    model = _model(world, **PAPER)
    monkeypatch.setattr(model_mod, "_cpus", lambda: 1)
    calls = _subgraph_threads(model, monkeypatch)
    assert model.score_pairs(QUESTIONS[0], CANDIDATE_SETS[0], kb)
    assert calls == [(threading.current_thread().name, False)]


@pytest.mark.parametrize("dims", [DESK, PAPER], ids=["desk", "paper"])
def test_under_a_tape_no_op_leaves_the_callers_thread(world, monkeypatch, dims):
    """With the offload forced at any width and a second CPU, a pass under a
    tape runs the subgraph GRU here, and every node on the tape is recorded
    by this thread; the same pass without a tape offloads."""
    kb, _, examples = world
    model = _model(world, **dims)
    _schedule(monkeypatch, True)
    calls = _subgraph_threads(model, monkeypatch)
    here = threading.current_thread().name
    make, recorders = ad._make, set()

    def traced_make(data, parents, bwd, op):
        recorders.add(threading.current_thread().name)
        return make(data, parents, bwd, op)

    monkeypatch.setattr(ad, "_make", traced_make)
    batch = build_training_items(model, examples, kb, Rng(2))
    with Tape() as tape:
        ad.backward(model.loss(batch, Rng(3)))
        assert model.score_pairs(QUESTIONS[0], CANDIDATE_SETS[0], kb)
    assert tape.nodes and recorders == {here}
    assert calls == [(here, True), (here, True)]
    assert model.score_pairs(QUESTIONS[0], CANDIDATE_SETS[0], kb)
    assert calls[-1][0] != here and not calls[-1][1]


def test_ops_on_another_thread_never_record_onto_this_threads_tape(world):
    """A second thread's scores leave no node on the tape open here, and a
    tape it opens holds only its own nodes."""
    kb, _, examples = world
    model = _model(world)
    got = {}

    def other():
        got["scores"] = model.score_pairs(QUESTIONS[0], CANDIDATE_SETS[0], kb)
        with Tape() as own:
            model.loss(build_training_items(model, examples, kb, Rng(2)))
        got["own"] = len(own.nodes)

    with Tape() as tape:
        for _ in range(10):
            worker = threading.Thread(target=other)
            worker.start()
            worker.join(timeout=60)
            assert not worker.is_alive()
        assert len(tape.nodes) == 0
    assert got["scores"] and got["own"] > 0


def test_the_worker_keeps_the_callers_float_error_state(world, monkeypatch):
    """An overflow in the subgraph GRU raises in the caller under
    ``over="raise"``, and under ``all="ignore"`` warns nowhere."""
    kb, _, _ = world

    def overflow(model):
        # the relation rows the subgraph GRU reads, not the decoder's <_start>
        model.rel_emb.data[:-1] = 1e300
        model.subgraph["wx"].data[...] = 1e300
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            model.score_pairs(QUESTIONS[0], CANDIDATE_SETS[0], kb)
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            model.score_pairs(QUESTIONS[0], CANDIDATE_SETS[0], kb)

    _on_schedule(world, monkeypatch, True, overflow)


def test_a_raising_branch_waits_for_the_worker(world, monkeypatch):
    """The caller's branch raises while the worker's is still running: the
    score raises only once the worker is done, and refused questions never
    reach the worker."""
    kb, _, _ = world
    model = _model(world)
    _schedule(monkeypatch, True)
    encode, done, calls = model.encode_subgraph, [], []

    def slow_subgraph(rows):
        calls.append(rows)
        time.sleep(0.2)
        out = encode(rows)
        done.append(True)
        return out

    def failing_question(questions, dropout=None):
        raise ShapeError("question branch failed")

    monkeypatch.setattr(model, "encode_subgraph", slow_subgraph)
    monkeypatch.setattr(model, "encode_question", failing_question)
    with pytest.raises(ShapeError, match="question branch failed"):
        model.score_pairs(QUESTIONS[0], CANDIDATE_SETS[0], kb)
    assert done == [True]
    with pytest.raises(ShapeError, match="empty question"):
        model.encoder_output([[]], [np.array([0])])
    assert len(calls) == 1
