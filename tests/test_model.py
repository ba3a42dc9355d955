"""Relation-predictor tests: closed forms, variant contract, loss oracle.

The zero-weight closed forms pin the architecture: a zeroed model must
produce u_KS = 0, probability 1/2 for every relation, and a summed BCE of
n*ln(2) over n scored rows.  The variant contract is behavioural: BiGRU
must be bit-for-bit blind to the subgraph while KS/KSA must not be.
"""

import math

import numpy as np
import pytest

from ksaqa import autodiff as ad
from ksaqa import nn
from ksaqa.autodiff import Rng, Tape
from ksaqa.dataset import build_vocabulary
from ksaqa.errors import CheckpointError, ConfigError, ShapeError
from ksaqa.model import (KsaModel, ModelConfig, VARIANTS, build_training_items,
                         train_model, valid_macro_f1)

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
    u = model.encode_subgraph(np.array([0, 2, 4], dtype=np.int64))
    assert u.data.shape == (SMALL["d_hidden"],)
    assert np.all(u.data == 0.0)


def test_empty_subgraph_state_is_zero_without_zeroing(world):
    model = _model(world)
    assert np.all(model.encode_subgraph(np.array([], dtype=np.int64)).data == 0.0)


def test_bigru_subgraph_state_is_always_zero(world):
    model = _model(world, variant="BiGRU")
    assert np.all(model.encode_subgraph(np.array([0, 1], dtype=np.int64)).data == 0.0)


def test_encode_subgraph_rejects_out_of_range_rows(world):
    model = _model(world)
    nr = len(model.relations)
    with pytest.raises(ShapeError, match="out of range"):
        model.encode_subgraph(np.array([nr], dtype=np.int64))


@pytest.mark.parametrize("variant", VARIANTS)
def test_zero_weights_score_exactly_half(world, variant):
    model = _zeroed(_model(world, variant=variant))
    enc, _ = model.encoder_output(["who", "wrote", "<e>"], np.array([0, 1]))
    probs = model.decode_scores(enc).data
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


def test_attention_weights_sum_to_one(world):
    model = _model(world)
    hs, _ = model.encode_question(["who", "wrote", "<e>", "first"])
    u_ks = model.encode_subgraph(np.array([0, 3]))
    p, alpha = model.attend(hs, u_ks)
    assert alpha.data.shape == (4,)
    assert abs(float(alpha.data.sum()) - 1.0) < 1e-12
    assert np.all(alpha.data > 0.0)
    assert p.data.shape == (2 * SMALL["d_hidden"],)


def test_attention_over_one_token_is_identity(world):
    model = _model(world)
    hs, _ = model.encode_question(["<e>"])
    p, alpha = model.attend(hs, model.encode_subgraph(np.array([1])))
    assert alpha.data.shape == (1,)
    assert float(alpha.data[0]) == 1.0
    np.testing.assert_array_equal(p.data, hs.data[0])


@pytest.mark.parametrize("variant", ["BiGRU", "KS-BiGRU"])
def test_attend_requires_the_full_variant(world, variant):
    model = _model(world, variant=variant)
    hs, _ = model.encode_question(["who", "wrote", "<e>"])
    with pytest.raises(ConfigError, match="attention"):
        model.attend(hs, ad.Tensor(np.zeros(SMALL["d_hidden"])))


# -- variant contract -----------------------------------------------------------


def test_bigru_is_blind_to_the_subgraph(world):
    model = _model(world, variant="BiGRU")
    tokens = ["who", "wrote", "<e>"]
    enc_a, alpha_a = model.encoder_output(tokens, np.array([0, 1, 2]))
    enc_b, alpha_b = model.encoder_output(tokens, np.array([4]))
    np.testing.assert_array_equal(enc_a.data, enc_b.data)
    assert alpha_a is None and alpha_b is None


@pytest.mark.parametrize("variant", ["KS-BiGRU", "KSA-BiGRU"])
def test_knowledge_variants_read_the_subgraph(world, variant):
    model = _model(world, variant=variant)
    tokens = ["who", "wrote", "<e>"]
    enc_a, _ = model.encoder_output(tokens, np.array([0, 1, 2]))
    enc_b, _ = model.encoder_output(tokens, np.array([4]))
    assert not np.array_equal(enc_a.data, enc_b.data)


def test_only_the_full_variant_returns_attention(world):
    tokens = ["who", "wrote", "<e>"]
    rows = np.array([0, 1])
    assert _model(world, variant="KS-BiGRU").encoder_output(tokens, rows)[1] is None
    alpha = _model(world, variant="KSA-BiGRU").encoder_output(tokens, rows)[1]
    assert alpha is not None and abs(float(alpha.data.sum()) - 1.0) < 1e-12


def test_parameter_counts_order_the_variants(world):
    n = {v: _model(world, variant=v).parameter_count() for v in VARIANTS}
    assert n["BiGRU"] < n["KS-BiGRU"] < n["KSA-BiGRU"]
    h, c = SMALL["d_hidden"], SMALL["attention_hidden"]
    assert n["KSA-BiGRU"] - n["KS-BiGRU"] == 3 * h * c + c + c


def test_shuffle_augment_permutes_only_in_training(world):
    model = _model(world, shuffle_augment=True)
    rows = np.array([0, 1, 2, 3], dtype=np.int64)
    perm = Rng(5).permutation(rows.size)
    assert not np.array_equal(perm, np.arange(rows.size))  # seed guard
    shuffled = model.encode_subgraph(rows, train=True, rng=Rng(5))
    canonical = model.encode_subgraph(rows, train=False)
    reference = model.encode_subgraph(rows[perm], train=False)
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
        enc, _ = model.encoder_output(tokens, rel_rows)
        logits = model.decode_logits(enc).data
        expect += _bce_sum(logits[scored], labels)
    assert abs(total - expect) < 1e-10


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


def test_load_state_validates_names_and_shapes(world):
    model = _model(world)
    state = nn.snapshot(model.parameters())
    missing = dict(state)
    missing.pop("ksa.out.w")
    with pytest.raises(CheckpointError, match="missing"):
        nn.restore(model.parameters(), missing)
    bad = dict(state)
    bad["ksa.out.w"] = np.zeros((1, 1))
    with pytest.raises(CheckpointError, match="ksa.out.w"):
        nn.restore(model.parameters(), bad)


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
    for name, arr in nn.snapshot(m1.parameters()).items():
        np.testing.assert_array_equal(arr, nn.snapshot(m2.parameters())[name])


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
