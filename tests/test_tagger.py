import gc
import itertools
import math
import weakref

import numpy as np
import pytest

from ksaqa import autodiff as ad
from ksaqa.autodiff import Parameter, Tape, backward, crf_log_likelihood, scale
from ksaqa.dataset import ENT, build_vocabulary
from ksaqa.errors import CheckpointError, ConfigError, NonFiniteError
from ksaqa.kernels import crf
from ksaqa.optim import Adam

import crf_oracle
import ksaqa.tagger as tagger_mod
from ksaqa.tagger import (TaggerConfig, TaggerModel,
                          longest_run, predict_span, predict_spans, span_accuracy,
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


def _enum_expectations(em, tr, st, en):
    """(unary, pairwise, start, stop) expected counts, summed over every path."""
    m, k = em.shape
    paths = _enum_paths(em, tr, st, en)
    logz = _enum_logz(em, tr, st, en)
    unary, pair, start, stop = np.zeros((m, k)), np.zeros((k, k)), np.zeros(k), np.zeros(k)
    for s, tags in paths:
        p = math.exp(s - logz)
        unary[np.arange(m), tags] += p
        for a, b in zip(tags, tags[1:]):
            pair[a, b] += p
        start[tags[0]] += p
        stop[tags[-1]] += p
    return unary, pair, start, stop


def _crf_tables(rng, m, k):
    return [rng.standard_normal(shape) for shape in ((m, k), (k, k), (k,), (k,))]


def test_crf_marginals_match_enumeration():
    rng = np.random.default_rng(2)
    for k in (2, 3):
        for m in range(1, 7):
            em, tr, st, en = _crf_tables(rng, m, k)
            logz, alpha = crf.crf_logz(em, tr, st, en)
            got = crf.crf_marginals(em, tr, st, en, alpha, logz)
            for name, g, w in zip(("unary", "pairwise", "start", "stop"), got,
                                  _enum_expectations(em, tr, st, en)):
                np.testing.assert_allclose(g, w, rtol=1e-10, atol=1e-12, err_msg=name)


def test_crf_log_likelihood_gradient_is_gold_counts_minus_expectations():
    rng = np.random.default_rng(3)
    m, k = 6, 3
    tables = _crf_tables(rng, m, k)
    tags = np.array([2, 2, 2, 0, 2, 2])        # the pair (2, 2) three times
    params = [Parameter(name, a) for name, a in zip(("em", "tr", "st", "en"), tables)]
    with Tape():
        backward(crf_log_likelihood(*params, tags))
    counts = [np.eye(k)[tags], np.zeros((k, k)), np.eye(k)[tags[0]], np.eye(k)[tags[-1]]]
    np.add.at(counts[1], (tags[:-1], tags[1:]), 1.0)
    for p, c, w in zip(params, counts, _enum_expectations(*tables)):
        np.testing.assert_allclose(p.grad, c - w, rtol=1e-10, atol=1e-12, err_msg=p.name)


def test_log_likelihood_equals_score_minus_logz():
    vocab = build_vocabulary([["a", "b", "c"]])
    model = TaggerModel(vocab, TaggerConfig(d_word=6, hidden=4, seed=0))
    tokens = ["a", "b", "c", "a"]
    tags = np.array([0, 1, 1, 0])
    with Tape():
        ll = model.log_likelihood(tokens, tags)
    em = crf_oracle.emissions_alone(model, tokens).data
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
    fq = predict_span(model, ["what", "is", "zorg04", "made", "?"])
    assert fq is not None
    assert fq.mention_span == (2, 3)
    assert fq.mention_text == "zorg04"
    assert fq.tokens == ["what", "is", ENT, "made", "?"]


def test_predict_span_failure_flag():
    vocab = build_vocabulary([["a"]])
    model = TaggerModel(vocab, TaggerConfig(d_word=4, hidden=3, seed=0))
    # force all-zero decode by heavily biasing the start/emission scores
    model.start.data[:] = np.array([50.0, -50.0])
    model.trans.data[:] = np.array([[50.0, -50.0], [-50.0, -50.0]])
    assert predict_span(model, ["a", "a"]) is None


def test_tagger_checkpoint_round_trip(tmp_path, trained_tagger):
    model, _, pairs = trained_tagger
    model.save(tmp_path / "t.ckpt")
    back = TaggerModel.load(tmp_path / "t.ckpt", model.vocab)
    for tokens, tags in pairs:
        assert np.array_equal(back.decode(tokens), model.decode(tokens))


def test_loaded_tagger_decodes_as_a_float64_widened_load(tmp_path, trained_tagger):
    """The loaded tagger keeps its word table float32; its emissions and tags
    equal, bit for bit, those of the same load with the table widened."""
    model, _, pairs = trained_tagger
    model.save(tmp_path / "t.ckpt")
    loaded, widened = (TaggerModel.load(tmp_path / "t.ckpt", model.vocab) for _ in "ab")
    assert [p.name for p in loaded.parameters() if p.data.dtype == np.float32] == [
        "tagger.word_emb"]
    widened.word_emb.data = widened.word_emb.data.astype(np.float64)
    sentences = [tokens for tokens, _ in pairs]
    got, want = (m.batch_emissions(sentences)[0].data for m in (loaded, widened))
    assert got.tobytes() == want.tobytes()
    for a, b in zip(loaded.decode_all(sentences), widened.decode_all(sentences)):
        assert np.array_equal(a, b)


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


def test_a_loss_that_is_not_finite_names_its_epoch_and_step(monkeypatch):
    pairs = _tagger_corpus()[:4]
    log_likelihood, calls = TaggerModel.log_likelihood, []

    def spoiled(model, tokens, tags):     # the sixth step's loss is NaN
        calls.append(tokens)
        ll = log_likelihood(model, tokens, tags)
        return scale(ll, math.nan) if len(calls) == 6 else ll

    monkeypatch.setattr(TaggerModel, "log_likelihood", spoiled)
    with pytest.raises(NonFiniteError, match="^tagger epoch 2, step 6: loss is nan$"):
        train_tagger(pairs, TaggerConfig(d_word=8, hidden=4, epochs=3, seed=9),
                     build_vocabulary([t for t, _ in pairs]))


def test_training_is_seed_deterministic():
    pairs = _tagger_corpus()[:4]
    vocab = build_vocabulary([t for t, _ in pairs])
    cfg = TaggerConfig(d_word=8, hidden=4, lr=0.02, epochs=3, seed=9)
    _, h1 = train_tagger(pairs, cfg, vocab)
    _, h2 = train_tagger(pairs, cfg, vocab)
    assert h1 == h2


def test_a_training_step_frees_its_graph_before_the_next_forward(monkeypatch):
    """Step k's loss and its CRF node are gone, by reference counting alone,
    when step k+1's forward starts."""
    pairs = _tagger_corpus()[:4]
    real_backward, log_likelihood = ad.backward, TaggerModel.log_likelihood
    held, alive_at_forward = [], []

    def tracked_backward(loss, where=None):
        assert loss.parents[0].op == "crf_ll" and loss.parents[0].tape is loss.tape
        held[:] = [weakref.ref(loss), weakref.ref(loss.parents[0])]
        return real_backward(loss, where)

    def forward(model, tokens, tags):
        alive_at_forward.append([ref() is not None for ref in held])
        return log_likelihood(model, tokens, tags)

    monkeypatch.setattr(ad, "backward", tracked_backward)
    monkeypatch.setattr(TaggerModel, "log_likelihood", forward)
    gc.disable()
    try:
        train_tagger(pairs, TaggerConfig(d_word=8, hidden=4, epochs=2, seed=9),
                     build_vocabulary([t for t, _ in pairs]))
    finally:
        gc.enable()
    assert len(alive_at_forward) == 8 and alive_at_forward[0] == []
    assert all(alive == [False, False] for alive in alive_at_forward[1:])


def test_the_best_state_is_one_copy_restored_from_its_epoch(monkeypatch):
    """Each better validation accuracy overwrites the one kept copy of Adam's
    arena (never two alive), and training ends on the best epoch's values."""
    pairs = _tagger_corpus()[:4]
    keep, scores, at_epoch, kept = Adam.keep, iter([0.1, 0.5, 0.7, 0.3]), [], []

    def accuracy(model, pairs):
        at_epoch.append(np.concatenate([p.data.ravel() for p in model.parameters()]))
        return next(scores)

    def counted(opt, into=None):
        copy = keep(opt, into=into)
        kept.append(weakref.ref(copy))
        assert len({id(a) for a in (ref() for ref in kept) if a is not None}) == 1
        return copy

    monkeypatch.setattr(tagger_mod, "span_accuracy", accuracy)
    monkeypatch.setattr(Adam, "keep", counted)
    model, history = train_tagger(pairs, TaggerConfig(d_word=8, hidden=4, lr=0.02, epochs=4,
                                                      seed=9),
                                  build_vocabulary([t for t, _ in pairs]), valid_pairs=pairs)
    assert [h["valid_span_accuracy"] for h in history] == [0.1, 0.5, 0.7, 0.3]
    assert len(kept) == 3
    final = np.concatenate([p.data.ravel() for p in model.parameters()])
    np.testing.assert_array_equal(final, at_epoch[2])
    assert not np.array_equal(final, at_epoch[3])


# -- batched decode against one sentence at a time -------------------------------


def _sentences(pairs):
    # one-token, longer and out-of-vocabulary sentences beside the corpus
    return [t for t, _ in pairs] + [["zorg03"], ["who", "knows", "zorg01", "town", "of", "?"]]


def test_weights_at_float32_max_still_decode_tags():
    """Inference scans no op output: from +-float32-max weights (the largest a
    finite checkpoint can hold) every emission stays finite and every
    sentence gets a 0/1 tag per token."""
    sentences = _sentences(_tagger_corpus())
    model = TaggerModel(build_vocabulary(sentences), TaggerConfig(d_word=16, hidden=8, seed=5))
    rng = np.random.default_rng(6)
    big = float(np.finfo(np.float32).max)
    for p in model.parameters():
        p.data[...] = np.where(rng.random(p.data.shape) < 0.5, -big, big)
    with np.errstate(all="ignore"):
        emis, _ = model.batch_emissions(sentences)
        decoded = model.decode_all(sentences)
    assert np.isfinite(emis.data).all()
    assert [len(tags) for tags in decoded] == [len(t) for t in sentences]
    assert all(set(tags.tolist()) <= {0, 1} for tags in decoded)


@pytest.mark.parametrize("batch", [1, 3, 256])
def test_decode_all_equals_one_sentence_at_a_time(trained_tagger, monkeypatch, batch):
    model, _, pairs = trained_tagger
    monkeypatch.setattr(tagger_mod, "DECODE_BATCH", batch)
    sentences = _sentences(pairs)
    emis, lengths = model.batch_emissions(sentences)
    assert lengths.tolist() == [len(t) for t in sentences]
    per_sentence = emis.data.reshape(-1, len(sentences), model.K).transpose(1, 0, 2)
    for row, tokens in zip(per_sentence, sentences):
        np.testing.assert_allclose(row[:len(tokens)],
                                   crf_oracle.emissions_alone(model, tokens).data,
                                   rtol=0, atol=1e-12)
    decoded = model.decode_all(sentences)
    assert len(decoded) == len(sentences)
    for tags, tokens in zip(decoded, sentences):
        assert np.array_equal(tags, crf_oracle.decode_alone(model, tokens))
        assert np.array_equal(model.decode(tokens), tags)


def test_span_accuracy_and_predict_spans_equal_one_sentence_at_a_time(trained_tagger):
    model, _, pairs = trained_tagger
    sentences = _sentences(pairs)
    want = [longest_run(crf_oracle.decode_alone(model, tokens)) for tokens in sentences]
    got = predict_spans(model, sentences)
    for tokens, span, fq in zip(sentences, want, got):
        assert fq == (None if span is None else span_to_formatted(tokens, span))
        assert predict_span(model, tokens) == fq
    # the corpus spans with the last two flipped to some other span
    gold = [tags for _, tags in pairs]
    for i in (-1, -2):
        gold[i] = tags_for_span(len(gold[i]), (0, 1))
    scored = list(zip([t for t, _ in pairs], gold))
    hits = sum(longest_run(crf_oracle.decode_alone(model, tokens)) == longest_run(tags)
               for tokens, tags in scored)
    assert span_accuracy(model, scored) == hits / len(scored)
