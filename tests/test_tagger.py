import itertools
import math

import numpy as np
import pytest

from ksaqa.autodiff import Tape, backward
from ksaqa.dataset import ENT, build_vocabulary
from ksaqa.errors import CheckpointError, ConfigError
from ksaqa.kernels import crf
from ksaqa.tagger import (SpanPrediction, TaggerConfig, TaggerModel,
                          longest_run, predict_span, span_accuracy,
                          span_to_formatted, tags_for_span, train_tagger)

# ---------------------------------------------------------------------------
# CRF oracles by exhaustive enumeration
# ---------------------------------------------------------------------------


def _enum_paths(em, tr, st, en):
    m, k = em.shape
    out = []
    for tags in itertools.product(range(k), repeat=m):
        s = st[tags[0]] + em[0, tags[0]] + en[tags[-1]]
        for t in range(1, m):
            s += tr[tags[t - 1], tags[t]] + em[t, tags[t]]
        out.append((s, tags))
    return out


def _enum_logz(em, tr, st, en):
    scores = [s for s, _ in _enum_paths(em, tr, st, en)]
    mx = max(scores)
    return mx + math.log(sum(math.exp(s - mx) for s in scores))


def test_crf_logz_matches_enumeration_small_sweep():
    rng = np.random.default_rng(0)
    for trial in range(30):
        m = int(rng.integers(1, 7))
        k = 2 if trial % 2 == 0 else 3
        em = rng.standard_normal((m, k))
        tr = rng.standard_normal((k, k))
        st = rng.standard_normal(k)
        en = rng.standard_normal(k)
        logz, _ = crf.crf_logz(em, tr, st, en)
        want = _enum_logz(em, tr, st, en)
        assert abs(logz - want) / max(1.0, abs(want)) < 1e-10


def test_crf_viterbi_matches_enumeration():
    rng = np.random.default_rng(1)
    for trial in range(30):
        m = int(rng.integers(1, 7))
        k = 2 if trial % 2 == 0 else 3
        em = rng.standard_normal((m, k))
        tr = rng.standard_normal((k, k))
        st = rng.standard_normal(k)
        en = rng.standard_normal(k)
        best = max(_enum_paths(em, tr, st, en))  # unique a.s.
        got = crf.crf_viterbi(em, tr, st, en)
        assert tuple(got) == best[1]


def test_crf_viterbi_tie_prefers_label_zero():
    m, k = 4, 2
    zeros = np.zeros((m, k))
    got = crf.crf_viterbi(zeros, np.zeros((k, k)), np.zeros(k), np.zeros(k))
    assert got.tolist() == [0, 0, 0, 0]


def test_log_likelihood_equals_score_minus_logz():
    vocab = build_vocabulary([["a", "b", "c"]])
    model = TaggerModel(vocab, TaggerConfig(d_word=6, hidden=4, seed=0))
    tokens = ["a", "b", "c", "a"]
    tags = np.array([0, 1, 1, 0])
    with Tape():
        ll = model.log_likelihood(tokens, tags)
    em = model.emissions(tokens).data
    tr, st, en = model.trans.data, model.start.data, model.stop.data
    gold = st[0] + em[0, 0] + en[0] + sum(
        tr[tags[t - 1], tags[t]] + em[t, tags[t]] for t in range(1, 4))
    want = gold - _enum_logz(em, tr, st, en)
    assert abs(float(ll.data) - want) < 1e-10
    assert float(ll.data) <= 1e-12  # log-prob of one path is <= 0


def test_log_likelihood_gradient_against_fd():
    from ksaqa.autodiff import grad_check
    vocab = build_vocabulary([["x", "y"]])
    model = TaggerModel(vocab, TaggerConfig(d_word=5, hidden=3, seed=1))
    tokens = ["x", "y", "x"]
    tags = np.array([1, 1, 0])
    params = [model.trans, model.start, model.stop]

    def f(_):
        return model.log_likelihood(tokens, tags)

    assert grad_check(f, params) < 1e-4


# ---------------------------------------------------------------------------
# span extraction rules
# ---------------------------------------------------------------------------


def test_longest_run_picks_longest():
    assert longest_run(np.array([0, 1, 1, 0, 1])) == (1, 3)
    assert longest_run(np.array([1, 0, 1, 1, 1, 0])) == (2, 5)


def test_longest_run_leftmost_on_tie():
    assert longest_run(np.array([1, 1, 0, 1, 1])) == (0, 2)
    assert longest_run(np.array([0, 1, 0, 1, 0])) == (1, 2)


def test_longest_run_edges():
    assert longest_run(np.array([1, 1, 1])) == (0, 3)
    assert longest_run(np.array([0, 0, 0])) is None
    assert longest_run(np.array([], dtype=np.int64)) is None
    assert longest_run(np.array([0, 0, 1])) == (2, 3)


def test_tags_for_span_and_back():
    tags = tags_for_span(5, (1, 3))
    assert tags.tolist() == [0, 1, 1, 0, 0]
    assert longest_run(tags) == (1, 3)


def test_span_to_formatted():
    fq = span_to_formatted(["who", "wrote", "malcolm", "x", "?"], (2, 4))
    assert fq.tokens == ["who", "wrote", ENT, "?"]
    assert fq.mention_text == "malcolm x"
    assert fq.mention_span == (2, 4)
    assert fq.restore() == ["who", "wrote", "malcolm", "x", "?"]


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def _tagger_corpus():
    """Questions with distinctive mention tokens at varying positions."""
    names = [f"zorg{i:02d}" for i in range(10)]
    pairs = []
    for i, name in enumerate(names):
        before = ["what", "is", "the", "place", "of"][: 2 + i % 3]
        after = ["made", "of", "?"][: 1 + i % 2]
        mention = [name] if i % 2 == 0 else [name, "town"]
        tokens = before + mention + after
        span = (len(before), len(before) + len(mention))
        pairs.append((tokens, tags_for_span(len(tokens), span)))
    return pairs


@pytest.fixture(scope="module")
def trained_tagger():
    pairs = _tagger_corpus()
    vocab = build_vocabulary([t for t, _ in pairs])
    cfg = TaggerConfig(d_word=16, hidden=8, lr=0.02, epochs=40, patience=40, seed=0)
    model, history = train_tagger(pairs, cfg, vocab, valid_pairs=pairs)
    return model, history, pairs


def test_tagger_overfits_small_corpus(trained_tagger):
    model, history, pairs = trained_tagger
    assert span_accuracy(model, pairs) == 1.0


def test_tagger_history_records_loss_and_accuracy(trained_tagger):
    _, history, _ = trained_tagger
    assert all("train_loss" in h for h in history)
    assert history[0]["train_loss"] > history[-1]["train_loss"]


def test_predict_span_on_trained_model(trained_tagger):
    model, _, _ = trained_tagger
    sp = predict_span(model, ["what", "is", "zorg04", "made", "?"])
    assert not sp.failed
    assert sp.span == (2, 3)
    assert sp.mention_text == "zorg04"
    assert sp.formatted_tokens == ["what", "is", ENT, "made", "?"]


def test_predict_span_failure_flag():
    vocab = build_vocabulary([["a"]])
    model = TaggerModel(vocab, TaggerConfig(d_word=4, hidden=3, seed=0))
    # force all-zero decode by heavily biasing the start/emission scores
    model.start.data[:] = np.array([50.0, -50.0])
    model.trans.data[:] = np.array([[50.0, -50.0], [-50.0, -50.0]])
    sp = predict_span(model, ["a", "a"])
    assert sp.failed
    assert sp.span is None and not sp.mention_text


def test_tagger_checkpoint_round_trip(tmp_path, trained_tagger):
    model, _, pairs = trained_tagger
    model.save(tmp_path / "t.ckpt")
    back = TaggerModel.load(tmp_path / "t.ckpt", model.vocab)
    for tokens, tags in pairs:
        assert np.array_equal(back.decode(tokens), model.decode(tokens))


def test_tagger_load_rejects_other_vocab(tmp_path, trained_tagger):
    model, _, _ = trained_tagger
    model.save(tmp_path / "t.ckpt")
    other = build_vocabulary([["completely", "different"]])
    with pytest.raises(CheckpointError):
        TaggerModel.load(tmp_path / "t.ckpt", other)


def test_train_tagger_rejects_empty():
    vocab = build_vocabulary([["a"]])
    with pytest.raises(ConfigError):
        train_tagger([], TaggerConfig(), vocab)


def test_training_is_seed_deterministic():
    pairs = _tagger_corpus()[:4]
    vocab = build_vocabulary([t for t, _ in pairs])
    cfg = TaggerConfig(d_word=8, hidden=4, lr=0.02, epochs=3, seed=9)
    _, h1 = train_tagger(pairs, cfg, vocab)
    _, h2 = train_tagger(pairs, cfg, vocab)
    assert h1 == h2
