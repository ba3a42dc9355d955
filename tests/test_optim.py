"""The parameter arena and in-place Adam against the per-tensor Adam it
replaced (``adam_oracle``): bit-equal parameters and moments after whole
training runs of both trainers, and the edge cases of one step."""

import numpy as np
import pytest

import ksaqa.model as model_mod
import ksaqa.tagger as tagger_mod
from ksaqa import nn
from ksaqa.autodiff import Parameter, Tape, backward
from ksaqa.dataset import build_vocabulary
from ksaqa.kernels import adam_ops
from ksaqa.model import KsaModel, ModelConfig, train_model
from ksaqa.optim import Adam
from ksaqa.tagger import TaggerConfig, tags_for_span, train_tagger

import adam_oracle
from extra_ops import mul, sum_all


def _assert_same_state(opt, ref):
    assert opt.step_count == ref.step_count
    for p, q in zip(opt.params, ref.params):
        assert p.name == q.name
        assert np.array_equal(p.data, q.data), p.name
        assert np.array_equal(opt.m[p.name], ref.m[q.name]), p.name
        assert np.array_equal(opt.v[p.name], ref.v[q.name]), p.name


def _trained_with(monkeypatch, module, adam_cls, train):
    """(optimizer, result) of ``train()`` with ``module.Adam`` set to ``adam_cls``."""
    made = []

    def make(params, **kw):
        made.append(adam_cls(params, **kw))
        return made[-1]

    monkeypatch.setattr(module, "Adam", make)
    result = train()
    return made[0], result


def test_train_model_arena_equals_per_tensor_adam(world, monkeypatch):
    kb, vocab, examples = world
    cfg = ModelConfig(d_word=10, d_rel=8, d_hidden=6, attention_hidden=5, dropout=0.3,
                      shuffle_augment=True, epochs=3, batch_size=3, lr=0.01, seed=4)

    def train():
        model = KsaModel(vocab, kb.relations, cfg)
        return train_model(model, examples, kb)

    opt, history = _trained_with(monkeypatch, model_mod, Adam, train)
    ref, ref_history = _trained_with(monkeypatch, model_mod, adam_oracle.Adam, train)
    assert opt.step_count >= 6
    assert history == ref_history
    _assert_same_state(opt, ref)


def test_train_tagger_arena_equals_per_tensor_adam(monkeypatch):
    pairs = []
    for i in range(6):
        tokens = ["what", "is"][: 1 + i % 2] + [f"zorg{i}"] + ["made", "of", "?"][: 1 + i % 3]
        start = 1 + i % 2
        pairs.append((tokens, tags_for_span(len(tokens), (start, start + 1))))
    vocab = build_vocabulary([t for t, _ in pairs])
    cfg = TaggerConfig(d_word=8, hidden=5, lr=0.02, epochs=3, seed=2)

    def train():
        return train_tagger(pairs, cfg, vocab)

    opt, (_, history) = _trained_with(monkeypatch, tagger_mod, Adam, train)
    ref, (_, ref_history) = _trained_with(monkeypatch, tagger_mod, adam_oracle.Adam, train)
    assert opt.step_count == 18
    assert history == ref_history
    _assert_same_state(opt, ref)


def test_a_parameter_without_a_gradient_neither_moves_nor_decays(monkeypatch):
    rng = np.random.default_rng(5)
    shapes = [(3, 2), (4,), (2, 2)]
    params = [Parameter(f"p{i}", rng.standard_normal(s)) for i, s in enumerate(shapes)]
    twins = [Parameter(p.name, p.data.copy()) for p in params]
    opt, ref = Adam(params, lr=0.01), adam_oracle.Adam(twins, lr=0.01)
    calls = []
    kernel = adam_ops.adam_update
    monkeypatch.setattr(adam_ops, "adam_update", lambda *a: calls.append(a[0].size) or kernel(*a))
    # which parameters get a gradient, step by step, and the kernel calls that takes
    plan = [((1, 1, 1), [14]), ((1, 0, 1), [6, 4]), ((0, 1, 0), [4]), ((1, 1, 1), [14])]
    for has, want_calls in plan:
        before = {p.name: (p.data.copy(), opt.m[p.name].copy(), opt.v[p.name].copy())
                  for p in params}
        opt.zero_grad()
        ref.zero_grad()
        for p, twin, h in zip(params, twins, has):
            if h:
                g = rng.standard_normal(p.data.shape)
                p.accumulate(g)
                twin.accumulate(g)
        calls.clear()
        opt.step()
        ref.step()
        assert calls == want_calls
        _assert_same_state(opt, ref)
        for p, h in zip(params, has):
            if not h:
                for got, was in zip((p.data, opt.m[p.name], opt.v[p.name]), before[p.name]):
                    assert np.array_equal(got, was)


def test_the_first_gradient_is_written_into_the_arena_slot():
    p = Parameter("p", np.array([1.0, 2.0, 3.0]))
    opt = Adam([p])
    assert np.shares_memory(p.data, opt.data) and np.array_equal(p.data, [1.0, 2.0, 3.0])
    with Tape():
        out = sum_all(mul(p, p))       # p used twice: a write, then an in-place add
        backward(out)
    assert p.grad is p.slot and np.shares_memory(p.grad, opt.grad)
    assert np.array_equal(p.grad, [2.0, 4.0, 6.0])


def test_a_gradient_set_by_hand_is_still_taken():
    p = Parameter("p", np.array([1.0, -2.0]))
    twin = Parameter("p", p.data.copy())
    opt, ref = Adam([p], lr=0.01), adam_oracle.Adam([twin], lr=0.01)
    p.grad = np.array([0.5, -3.0])
    twin.grad = p.grad.copy()
    opt.step()
    ref.step()
    _assert_same_state(opt, ref)


def test_snapshot_and_restore_round_trip_the_arena_views():
    rng = np.random.default_rng(1)
    params = [Parameter("a", rng.standard_normal((2, 3))), Parameter("b", rng.standard_normal(4))]
    opt = Adam(params, lr=0.1)
    state = nn.snapshot(params)
    for p in params:
        p.accumulate(np.ones_like(p.data))
    opt.step()
    assert all(not np.array_equal(p.data, state[p.name]) for p in params)
    nn.restore(params, state)
    for p, view in zip(params, opt.views):
        assert p.data is view and np.array_equal(p.data, state[p.name])
    assert np.array_equal(opt.data, np.concatenate([state[p.name].ravel() for p in params]))


def test_a_rebound_parameter_is_refused():
    p = Parameter("p", np.ones(3))
    opt = Adam([p], lr=0.1)
    p.data = np.zeros(3)
    p.accumulate(np.ones(3))
    with pytest.raises(ValueError, match="rebound"):
        opt.step()


@pytest.mark.parametrize("block,n", [(7, 26), (7, 7), (7, 3), (7, 0),
                                     (adam_ops.BLOCK, 2 * adam_ops.BLOCK + 3)])
def test_adam_update_in_blocks_equals_the_whole_array_expressions(monkeypatch, block, n):
    monkeypatch.setattr(adam_ops, "BLOCK", block)
    rng = np.random.default_rng(n)
    p, m, v = rng.standard_normal(n), np.zeros(n), np.zeros(n)
    p2, m2, v2 = p.copy(), m.copy(), v.copy()
    for step in range(1, 6):
        g = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
        adam_ops.adam_update(p, g, m, v, step, 0.001, 0.9, 0.999, 1e-8)
        adam_oracle.adam_update(p2, g, m2, v2, step, 0.001, 0.9, 0.999, 1e-8)
        for a, b in ((p, p2), (m, m2), (v, v2)):
            assert np.array_equal(a, b)
