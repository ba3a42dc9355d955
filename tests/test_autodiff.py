import gc
import math
import sys
import threading
import weakref

import numpy as np
import pytest

import ksaqa.autodiff as ad
from ksaqa.autodiff import (Parameter, Rng, Tape, Tensor, backward,
                            bce_with_logits_sum, concat,
                            crf_log_likelihood, embedding_lookup,
                            flip0, grad_check, gru_sequence, init_embedding,
                            init_weight, matmul, reshape, scale, sigmoid,
                            softmax, tanh, tile_rows)
from ksaqa.errors import NonFiniteError, ShapeError
from ksaqa.optim import Adam

from extra_ops import dropout, mul, sum_all

TOL = 1e-4  # pinned finite-difference tolerance


def _p(name, arr):
    return Parameter(name, np.asarray(arr, dtype=np.float64))


def _rand(rng, *shape):
    return rng.standard_normal(shape) if shape else rng.standard_normal()


# ---------------------------------------------------------------------------
# per-primitive finite differences at the pinned step h=1e-5
# ---------------------------------------------------------------------------


def test_fd_add_mul_scale():
    rng = np.random.default_rng(0)
    a, b = _p("a", _rand(rng, 3, 4)), _p("b", _rand(rng, 3, 4))
    assert grad_check(lambda t: sum_all(ad.add(t[0], t[1])), [a, b]) < TOL
    assert grad_check(lambda t: sum_all(mul(t[0], t[1])), [a, b]) < TOL
    assert grad_check(lambda t: sum_all(scale(t[0], -2.5)), [a]) < TOL


def test_fd_add_broadcast_bias():
    rng = np.random.default_rng(1)
    a, b = _p("a", _rand(rng, 3, 4)), _p("b", _rand(rng, 4))
    assert grad_check(lambda t: sum_all(ad.add(t[0], t[1])), [a, b]) < TOL


def test_fd_matmul_all_rank_combinations():
    rng = np.random.default_rng(2)
    m22, m23 = _p("a", _rand(rng, 2, 3)), _p("b", _rand(rng, 3, 4))
    v3, v2 = _p("v", _rand(rng, 3)), _p("u", _rand(rng, 2))
    assert grad_check(lambda t: sum_all(matmul(t[0], t[1])), [m22, m23]) < TOL
    assert grad_check(lambda t: sum_all(matmul(t[0], t[1])), [v2, m22]) < TOL
    assert grad_check(lambda t: sum_all(matmul(t[0], t[1])), [m22, v3]) < TOL
    assert grad_check(lambda t: sum_all(matmul(t[0], t[1])), [v3, v3]) < TOL


def test_fd_concat_both_axes_and_getitem():
    rng = np.random.default_rng(3)
    a, b = _p("a", _rand(rng, 2, 3)), _p("b", _rand(rng, 2, 3))
    assert grad_check(lambda t: sum_all(concat([t[0], t[1]], 0)), [a, b]) < TOL
    assert grad_check(lambda t: sum_all(concat([t[0], t[1]], 1)), [a, b]) < TOL
    assert grad_check(lambda t: sum_all(t[0][1]), [a]) < TOL
    idx = np.array([0, 1, 1, 0])  # duplicates must accumulate
    assert grad_check(lambda t: sum_all(t[0][idx]), [a]) < TOL
    cols = np.array([2, 0, 2, 1])  # column 2 read twice, under a tuple key
    wc, ws = Tensor(_rand(rng, 2, 4)), Tensor(_rand(rng, 1, 2))
    assert grad_check(lambda t: sum_all(mul(t[0][:, cols], wc)), [a]) < TOL
    assert grad_check(lambda t: sum_all(mul(t[0][1:, 1:], ws)), [a]) < TOL


def test_fd_nonlinearities():
    rng = np.random.default_rng(4)
    a = _p("a", _rand(rng, 3, 5))
    assert grad_check(lambda t: sum_all(sigmoid(t[0])), [a]) < TOL
    assert grad_check(lambda t: sum_all(tanh(t[0])), [a]) < TOL
    w = _p("w", _rand(rng, 5))
    assert grad_check(
        lambda t: sum_all(mul(softmax(t[0]), Tensor(np.arange(5.0)))), [w]) < TOL
    rows = _p("rows", _rand(rng, 3, 5))        # one softmax per row
    weights = Tensor(_rand(rng, 3, 5))
    assert grad_check(lambda t: sum_all(mul(softmax(t[0]), weights)), [rows]) < TOL


def test_fd_reshape_and_broadcast_add():
    """[n, c] viewed as [n, 1, c] and added to [m, c]: the batched attention sum."""
    rng = np.random.default_rng(10)
    u, hw = _p("u", _rand(rng, 3, 4)), _p("hw", _rand(rng, 2, 4))
    weights = Tensor(_rand(rng, 6, 4))

    def f(t):
        both = ad.add(reshape(t[0], (3, 1, 4)), t[1])
        return sum_all(mul(reshape(tanh(both), (6, 4)), weights))

    assert grad_check(f, [u, hw]) < TOL
    with pytest.raises(ShapeError, match="reshape"):
        reshape(u, (5, 2))


def test_fd_embedding_tile_flip():
    rng = np.random.default_rng(5)
    table = _p("emb", _rand(rng, 6, 3))
    idx = np.array([1, 4, 1])
    weights = Tensor(_rand(rng, 3, 3))
    assert grad_check(
        lambda t: sum_all(mul(embedding_lookup(t[0], idx), weights)), [table]) < TOL
    a = _p("a", _rand(rng, 3))
    wt = Tensor(_rand(rng, 4, 3))
    assert grad_check(lambda t: sum_all(mul(tile_rows(t[0], 4), wt)), [a]) < TOL
    b = _p("b", _rand(rng, 4, 2))
    wf = Tensor(_rand(rng, 4, 2))
    assert grad_check(lambda t: sum_all(mul(flip0(t[0]), wf)), [b]) < TOL


def test_fd_bce_paths():
    rng = np.random.default_rng(6)
    logits = _p("l", _rand(rng, 7))
    labels = np.array([1, 0, 1, 1, 0, 0, 1], dtype=np.float64)
    assert grad_check(lambda t: bce_with_logits_sum(t[0], labels), [logits]) < TOL


def test_fd_gru_sequence():
    rng = np.random.default_rng(7)
    h = 4
    x = _p("x", _rand(rng, 5, 3))
    h0 = _p("h0", np.zeros(h))
    wx = _p("wx", _rand(rng, 3, 3 * h) * 0.4)
    wh = _p("wh", _rand(rng, h, 3 * h) * 0.4)
    b = _p("b", _rand(rng, 3 * h) * 0.1)
    wread = Tensor(_rand(rng, 5, h))

    def f(t):
        return sum_all(mul(gru_sequence(t[0], t[1], t[2], t[3], t[4]), wread))

    assert grad_check(f, [x, h0, wx, wh, b], h=1e-4) < TOL


def test_fd_gru_sequence_from_a_batch_of_states():
    """h0 [n, H]: every state reads the same x; the result is [m, n, H]."""
    rng = np.random.default_rng(11)
    h, n = 4, 3
    x = _p("x", _rand(rng, 2, 3))
    h0 = _p("h0", _rand(rng, n, h) * 0.5)
    wx = _p("wx", _rand(rng, 3, 3 * h) * 0.4)
    wh = _p("wh", _rand(rng, h, 3 * h) * 0.4)
    b = _p("b", _rand(rng, 3 * h) * 0.1)
    wread = Tensor(_rand(rng, 2, n, h))

    def f(t):
        return sum_all(mul(gru_sequence(t[0], t[1], t[2], t[3], t[4]), wread))

    assert grad_check(f, [x, h0, wx, wh, b], h=1e-4) < TOL


@pytest.mark.parametrize("left", [False, True], ids=["right-padded", "left-padded"])
def test_fd_masked_gru_sequence_with_a_row_of_input_per_state(left):
    """x [m, n, d] with rows of lengths 1, 4 and 2 padded to 4 steps."""
    rng = np.random.default_rng(12)
    h, n = 4, 3
    active = np.arange(4)[:, None] < np.array([1, 4, 2])[None, :]
    if left:
        active = active[::-1]
    x = _p("x", _rand(rng, 4, n, 3))
    h0 = _p("h0", _rand(rng, n, h) * 0.5)
    wx = _p("wx", _rand(rng, 3, 3 * h) * 0.4)
    wh = _p("wh", _rand(rng, h, 3 * h) * 0.4)
    b = _p("b", _rand(rng, 3 * h) * 0.1)
    wread = Tensor(_rand(rng, 4, n, h))

    def f(t):
        return sum_all(mul(gru_sequence(t[0], t[1], t[2], t[3], t[4], active), wread))

    assert grad_check(f, [x, h0, wx, wh, b], h=1e-4) < TOL


def test_gru_sequence_refuses_mismatched_masks_and_inputs():
    x, h0 = Tensor(np.zeros((3, 2, 5))), Tensor(np.zeros((2, 4)))
    wx, wh, b = Tensor(np.zeros((5, 12))), Tensor(np.zeros((4, 12))), Tensor(np.zeros(12))
    with pytest.raises(ShapeError, match="mask"):
        gru_sequence(x, h0, wx, wh, b, np.ones((3, 3), dtype=bool))
    with pytest.raises(ShapeError, match="state"):
        gru_sequence(x, Tensor(np.zeros((3, 4))), wx, wh, b)


def test_fd_masked_softmax_gives_masked_entries_zero_weight():
    rng = np.random.default_rng(13)
    keep = np.array([[True, True, False, False], [True, True, True, True],
                     [False, True, False, True]])
    scores = _p("s", _rand(rng, 3, 4))
    weights = Tensor(_rand(rng, 3, 4))
    assert grad_check(lambda t: sum_all(mul(softmax(t[0], keep), weights)), [scores]) < TOL
    out = softmax(scores, keep).data
    assert np.all(out[~keep] == 0.0) and np.all(out[keep] > 0.0)
    assert np.allclose(out.sum(axis=1), 1.0, rtol=0, atol=1e-15)
    full = softmax(_p("row", scores.data[1:2])).data
    assert np.array_equal(out[1:2], full)


def test_fd_transpose_stacked_matmul_and_mask():
    rng = np.random.default_rng(14)
    a, b = _p("a", _rand(rng, 3, 2, 4)), _p("b", _rand(rng, 3, 4, 5))
    w = Tensor(_rand(rng, 3, 2, 5))
    assert grad_check(lambda t: sum_all(mul(matmul(t[0], t[1]), w)), [a, b]) < TOL
    wt = Tensor(_rand(rng, 4, 3, 2))
    assert grad_check(lambda t: sum_all(mul(ad.transpose(t[0], (2, 0, 1)), wt)), [a]) < TOL
    mask = (rng.random((3, 2, 4)) > 0.5) * 2.0
    assert grad_check(lambda t: sum_all(mul(ad.apply_mask(t[0], mask), t[0])), [a]) < TOL
    with pytest.raises(ShapeError, match="matmul"):
        matmul(a, _p("c", _rand(rng, 2, 4, 5)))


def test_fd_crf_log_likelihood():
    rng = np.random.default_rng(8)
    m, k = 5, 2
    em = _p("em", _rand(rng, m, k))
    tr = _p("tr", _rand(rng, k, k))
    st = _p("st", _rand(rng, k))
    en = _p("en", _rand(rng, k))
    tags = np.array([0, 1, 1, 0, 1])

    def f(t):
        return crf_log_likelihood(t[0], t[1], t[2], t[3], tags)

    assert grad_check(f, [em, tr, st, en]) < TOL


def test_fd_five_layer_composite_at_pinned_step():
    """Deep chained graph checked at the documented default h=1e-5."""
    rng = np.random.default_rng(9)
    x = _p("x", _rand(rng, 4, 6) * 0.5)
    ws = [_p(f"w{i}", _rand(rng, 6, 6) * 0.4) for i in range(5)]
    labels = np.array([1.0, 0.0, 1.0, 0.0])

    def f(t):
        h = t[0]
        for w in t[1:]:
            h = tanh(matmul(h, w))
        logits = matmul(h, Tensor(np.ones(6)))
        return bce_with_logits_sum(logits, labels)

    assert grad_check(f, [x] + ws, h=1e-5) < TOL


def test_fd_randomized_shapes_twenty_trials():
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(100 + trial)
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        a = _p("a", _rand(rng, m, n))
        b = _p("b", _rand(rng, n, m))
        c = _p("c", _rand(rng, m))

        def f(t):
            prod = matmul(t[0], t[1])          # [m, m]
            act = tanh(ad.add(prod, t[2]))     # broadcast bias
            return sum_all(mul(act, act))

        worst = max(worst, grad_check(f, [a, b, c]))
    assert worst < TOL


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(10)
    x = Tensor(rng.standard_normal((4, 7)))
    s = softmax(x)
    assert np.allclose(s.data.sum(axis=-1), 1.0)
    shifted = softmax(Tensor(x.data + 1000.0))
    assert np.allclose(s.data, shifted.data)
    big = softmax(Tensor(np.array([1e4, 0.0, -1e4])))
    assert np.isfinite(big.data).all()


def test_dropout_inference_identity_and_train_scaling():
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal((50, 40)))
    assert dropout(x, 0.5, rng=None) is x
    assert np.array_equal(dropout(x, 0.5, None).data, x.data)
    assert np.array_equal(dropout(x, 0.0, Rng(1)).data, x.data)
    d = dropout(x, 0.5, Rng(2)).data
    kept = d != 0
    assert 0.3 < kept.mean() < 0.7
    assert np.allclose(d[kept], x.data[kept] / 0.5)


def test_dropout_replay_determinism():
    x = Tensor(np.ones((8, 8)))
    a = dropout(x, 0.3, Rng(5)).data
    b = dropout(x, 0.3, Rng(5)).data
    assert np.array_equal(a, b)


def test_bce_closed_form_zero_logits():
    n = 6
    logits = Tensor(np.zeros(n))
    labels = np.zeros(n)
    out = bce_with_logits_sum(logits, labels)
    assert abs(float(out.data) - n * math.log(2.0)) < 1e-12


def test_backward_requires_scalar_and_tape():
    with Tape():
        t = Parameter("p", np.ones(3))
        out = ad.add(t, t)
        with pytest.raises(ShapeError):
            backward(out)
    with pytest.raises(ShapeError):
        backward(Tensor(np.array(1.0)))  # untracked: no tape recorded it


def test_a_closed_tape_is_freed_without_the_cycle_collector():
    gc.disable()
    try:
        with Tape() as tape:
            out = sum_all(tanh(Parameter("p", np.ones(3))))
            backward(out)
        closed = weakref.ref(tape)
        del tape
        assert closed() is None          # no node keeps its tape alive
        with pytest.raises(ShapeError):
            backward(out)                 # the graph no longer has a tape
    finally:
        gc.enable()


def test_backward_consumes_the_graph_and_keeps_the_leaves_gradients():
    """Every node on the tape lets go of its gradient, closure and parents,
    the one off the loss's path too; leaves keep their gradients, nodes
    their data, and backward returns the loss."""
    with Tape() as tape:
        p = _p("p", [0.5, -1.0, 2.0])
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        side = tanh(p)
        s = sigmoid(p)
        loss = sum_all(mul(s, x))
        want = float(loss.data)
        assert backward(loss) == want
        assert [node.op for node in tape.nodes] == ["tanh", "sigmoid", "mul", "sum"]
        for node in tape.nodes:
            assert (node.grad, node.bwd, node.parents) == (None, None, ())
    assert float(loss.data) == want
    np.testing.assert_array_equal(side.data, np.tanh(p.data))
    np.testing.assert_allclose(p.grad, s.data * (1.0 - s.data) * x.data)
    np.testing.assert_array_equal(x.grad, s.data)


def test_a_second_backward_on_a_spent_tape_is_refused():
    with Tape():
        p = _p("p", [1.0, 2.0])
        loss = sum_all(tanh(p))
        backward(loss)
        grad = p.grad.copy()
        with pytest.raises(ShapeError, match="^backward called twice on one tape"):
            backward(loss)
        with pytest.raises(ShapeError, match="twice"):
            backward(sum_all(p))          # a new loss recorded onto the spent tape
    np.testing.assert_array_equal(p.grad, grad)


def test_threads_recording_onto_one_tape_lose_no_node():
    """Eight threads record onto one tape with the GIL handed over every
    microsecond: every node keeps its own id, its place on the tape."""
    per_thread, threads = 2000, 8
    p = Parameter("p", np.ones(2))

    def record():
        for _ in range(per_thread):
            tanh(p)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with Tape() as tape:
            workers = [threading.Thread(target=record) for _ in range(threads)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
            assert not any(w.is_alive() for w in workers)
            assert len(tape.nodes) == threads * per_thread
            assert [node.node_id for node in tape.nodes] == list(range(len(tape.nodes)))
    finally:
        sys.setswitchinterval(interval)


def test_nonfinite_data_rejected():
    with pytest.raises(NonFiniteError):
        Tensor(np.array([1.0, np.inf]))
    with pytest.raises(NonFiniteError):
        Parameter("bad", np.array([np.nan]))


@pytest.mark.parametrize("factor", [np.nan, np.inf, -np.inf])
def test_backward_refuses_a_loss_that_is_not_finite(factor):
    """An op output is not scanned (here the loss itself); backward refuses it."""
    with Tape():
        p = Parameter("p", np.ones(3))
        loss = scale(sum_all(p), factor)
        assert not np.isfinite(loss.data)
        with pytest.raises(NonFiniteError, match="loss is"):
            backward(loss)
    assert p.grad is None


def test_gradient_accumulation_across_reuse():
    with Tape():
        p = Parameter("p", np.array([3.0]))
        out = sum_all(mul(p, p))  # d/dp p^2 = 2p
        p.zero_grad()
        backward(out)
    assert np.allclose(p.grad, [6.0])


def test_rng_determinism_and_streams():
    a, b = Rng(42), Rng(42)
    assert np.array_equal(a.uniform(-1, 1, (3, 3)), b.uniform(-1, 1, (3, 3)))
    assert np.array_equal(a.permutation(10), b.permutation(10))
    assert Rng(1).integers(0, 100, 5).tolist() != Rng(2).integers(0, 100, 5).tolist()


def test_init_ranges():
    rng = Rng(0)
    emb = init_embedding(rng, (200, 50))
    assert np.abs(emb).max() <= 0.08
    w = init_weight(rng, 30, 20)
    bound = math.sqrt(6.0 / 50.0)
    assert np.abs(w).max() <= bound
    assert w.shape == (30, 20)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def test_adam_first_step_is_signed_lr():
    p = Parameter("p", np.array([1.0, -2.0]))
    opt = Adam([p], lr=0.01)
    p.grad[...] = [0.5, -3.0]
    opt.step()
    # bias-corrected first Adam step ~= lr * sign(g)
    assert np.allclose(p.data, [1.0 - 0.01, -2.0 + 0.01], atol=1e-6)


def test_adam_rejects_duplicate_parameter_names():
    a, b = Parameter("same", np.ones(2)), Parameter("same", np.ones(2))
    with pytest.raises(Exception):
        Adam([a, b], lr=0.1)


def test_adam_zero_grad_clears():
    p = Parameter("p", np.ones(3))
    opt = Adam([p], lr=0.1)
    p.grad[...] = 1.0
    opt.zero_grad()
    assert p.grad is None or not p.grad.any()
