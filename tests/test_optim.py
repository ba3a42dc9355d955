"""The parameter arena and in-place Adam against the per-tensor Adam it
replaced (``adam_oracle``): bit-equal parameters and moments after whole
training runs of both trainers, the gradients bound to the arena, and the
edge cases of one step: its tape size, and an update that leaves a parameter
not finite."""

import numpy as np
import pytest

import ksaqa.model as model_mod
import ksaqa.tagger as tagger_mod
from ksaqa.autodiff import Parameter, Rng, Tape, backward, scale
from ksaqa.dataset import build_vocabulary
from ksaqa.errors import NonFiniteError
from ksaqa.kernels import adam_ops
from ksaqa.model import KsaModel, ModelConfig, build_training_items, train_model
from ksaqa.optim import Adam
from ksaqa.tagger import TaggerConfig, TaggerModel, tags_for_span, train_tagger

import adam_oracle


def _assert_same_state(opt, ref):
    assert opt.step_count == ref.step_count
    for p, q in zip(opt.params, ref.params):
        assert p.name == q.name
        assert np.array_equal(p.data, q.data), p.name
    for flat, moments in ((opt.m_flat, ref.m), (opt.v_flat, ref.v)):
        assert np.array_equal(flat, np.concatenate([moments[q.name].ravel() for q in ref.params]))


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


# tape nodes recorded by one training step: a node the loss does not read costs
# a record and a backward call at every step
STEP_NODES = {"BiGRU": 27, "KS-BiGRU": 31, "KSA-BiGRU": 49, "tagger": 11}


@pytest.mark.parametrize("variant", model_mod.VARIANTS)
def test_one_predictor_step_gives_every_parameter_a_gradient(world, variant):
    # the arena updates every parameter at every step, so none may lack a gradient
    kb, vocab, examples = world
    cfg = ModelConfig(d_word=10, d_rel=8, d_hidden=6, attention_hidden=5, dropout=0.3,
                      shuffle_augment=True, batch_size=3, variant=variant, seed=4)
    model = KsaModel(vocab, kb.relations, cfg)
    rng = Rng(5)
    batch = build_training_items(model, examples, kb, rng)[: cfg.batch_size]
    with Tape() as tape:
        backward(model.loss(batch, rng))
    assert [p.name for p in model.parameters() if p.grad is None] == []
    assert len(tape.nodes) == STEP_NODES[variant]


def test_one_tagger_step_gives_every_parameter_a_gradient():
    tokens = ["what", "is", "zorg", "made", "of", "?"]
    model = TaggerModel(build_vocabulary([tokens]), TaggerConfig(d_word=8, hidden=5, seed=2))
    with Tape() as tape:
        backward(scale(model.log_likelihood(tokens, tags_for_span(6, (2, 3))), -1.0))
    assert [p.name for p in model.parameters() if p.grad is None] == []
    assert len(tape.nodes) == STEP_NODES["tagger"]


def test_adam_binds_every_gradient_to_its_arena_view():
    rng = np.random.default_rng(3)
    params = [Parameter("a", rng.standard_normal((2, 3))), Parameter("b", rng.standard_normal(4))]
    opt = Adam(params)
    grads = [p.grad for p in params]
    for p in params:
        assert np.shares_memory(p.grad, opt.grad) and p.grad.shape == p.data.shape
        p.accumulate(rng.standard_normal(p.data.shape))
    assert opt.grad.any()
    opt.zero_grad()
    assert not opt.grad.any()
    assert all(p.grad is g for p, g in zip(params, grads))


def test_adam_widens_a_float32_table_into_its_arena():
    values = np.array([[0.1, -2.5, 3.0]], dtype=np.float32)
    table = Parameter.loaded("emb", values)
    Adam([table])
    assert table.data.dtype == np.float64
    assert np.array_equal(table.data, values.astype(np.float64))


def test_a_rebound_gradient_is_refused():
    p = Parameter("p", np.array([1.0, -2.0]))
    opt = Adam([p], lr=0.01)
    p.grad = np.array([0.5, -3.0])
    with pytest.raises(ValueError, match="grad was rebound"):
        opt.step()


@pytest.mark.parametrize("grad,lr,bad_step", [(np.nan, 0.001, 1), (1.0, 1e308, 2)])
def test_an_update_that_leaves_a_parameter_not_finite_is_refused(grad, lr, bad_step):
    """A NaN gradient spoils ``b`` at once; at lr 1e308 a unit gradient moves
    ``b`` to about -1e308, and the second step past the float range.  ``a``
    takes no gradient and stays finite, so the message names ``b``."""
    params = [Parameter("a", np.ones(3)), Parameter("b", np.ones((2, 2)))]
    opt = Adam(params, lr=lr)
    for _ in range(bad_step - 1):
        params[1].grad[1, 0] = grad
        opt.step()
    params[1].grad[1, 0] = grad
    with pytest.raises(NonFiniteError, match=f"step {bad_step} left parameter b not finite"), \
            np.errstate(over="ignore"):
        opt.step()


def test_keep_and_restore_round_trip_the_arena():
    """A kept copy is the arena; assigning it back restores every parameter
    through its bound view, and keeping into it again reuses its memory."""
    rng = np.random.default_rng(1)
    params = [Parameter("a", rng.standard_normal((2, 3))), Parameter("b", rng.standard_normal(4))]
    opt = Adam(params, lr=0.1)
    before = [p.data.copy() for p in params]
    kept = opt.keep()
    assert not np.shares_memory(kept, opt.data)
    for p in params:
        p.accumulate(np.ones_like(p.data))
    opt.step()
    assert all(not np.array_equal(p.data, b) for p, b in zip(params, before))
    opt.data[...] = kept
    for p, view, b in zip(params, opt.views, before):
        assert p.data is view and np.array_equal(p.data, b)
    params[1].data[0] = 7.0
    assert opt.keep(into=kept) is kept and np.array_equal(kept, opt.data)


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
