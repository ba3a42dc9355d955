import numpy as np
import pytest

from ksaqa import kernels
from ksaqa.kernels import crf, gru, transe_ops
import crf_oracle
import transe_oracle


def _gru_inputs(seed=0, m=6, d=5, h=4):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((m, d)), np.zeros(h),
            rng.standard_normal((d, 3 * h)) * 0.4,
            rng.standard_normal((h, 3 * h)) * 0.4,
            rng.standard_normal(3 * h) * 0.1)


def test_within_lane_bitwise_determinism():
    x, h0, wx, wh, b = _gru_inputs(6)
    a = gru.gru_forward(x, h0, wx, wh, b)
    b2 = gru.gru_forward(x, h0, wx, wh, b)
    for u, v in zip(a, b2):
        assert np.array_equal(u, v)


def test_set_backend_returns_previous_and_validates():
    assert kernels.HAVE_NUMBA is False
    prev = kernels.set_backend("numpy")
    try:
        assert kernels.active_backend() == "numpy"
        for name in ("bogus", "auto", "numba"):
            with pytest.raises(ValueError):
                kernels.set_backend(name)
    finally:
        kernels.set_backend(prev)


def test_gru_zero_weights_zero_output():
    m, d, h = 4, 3, 5
    hs, *_ = gru.gru_forward(np.random.default_rng(0).standard_normal((m, d)),
                             np.zeros(h), np.zeros((d, 3 * h)),
                             np.zeros((h, 3 * h)), np.zeros(3 * h))
    # stash holds h0 in row 0, then the m output states
    assert np.array_equal(hs, np.zeros((m + 1, h)))


def test_gru_batch_of_states_matches_one_run_per_state():
    """h0 [n, H]: row i runs as gru_forward(x, h0[i]); shared x and weight
    gradients are the sums over the rows."""
    x, _, wx, wh, b = _gru_inputs(7, m=3)
    rng = np.random.default_rng(8)
    h0 = rng.standard_normal((5, 4)) * 0.5
    hs, zs, rs, ns, hwn = gru.gru_forward(x, h0, wx, wh, b)
    assert hs.shape == (4, 5, 4)
    dout = rng.standard_normal((3, 5, 4))
    dx, dh0, dwx, dwh, db = gru.gru_backward(dout, x, wx, wh, hs, zs, rs, ns, hwn)
    shared = [np.zeros_like(g) for g in (dx, dwx, dwh, db)]
    for i in range(5):
        one = gru.gru_forward(x, h0[i], wx, wh, b)
        for batched, single in zip((hs, zs, rs, ns, hwn), one):
            assert np.allclose(batched[:, i], single, rtol=0, atol=1e-12)
        dx_i, dh0_i, dwx_i, dwh_i, db_i = gru.gru_backward(
            np.ascontiguousarray(dout[:, i]), x, wx, wh, *one)
        assert np.allclose(dh0[i], dh0_i, rtol=0, atol=1e-12)
        shared = [s + g for s, g in zip(shared, (dx_i, dwx_i, dwh_i, db_i))]
    for batched, summed in zip((dx, dwx, dwh, db), shared):
        assert np.allclose(batched, summed, rtol=0, atol=1e-12)


# -- length-masked batches: one row per sequence, padded to one length -------

LENGTHS = [1, 6, 3, 4]     # a length-1 row, a full-length row, two between


def _masked_case(seed, left, shared=False):
    """(x, h0, wx, wh, b, active) for rows of LENGTHS padded to 6 steps:
    right-padded (a forward pass) or left-padded (the flipped mask of a
    backward pass)."""
    x, _, wx, wh, b = _gru_inputs(seed, m=6)
    rng = np.random.default_rng(seed + 100)
    n, d = len(LENGTHS), x.shape[1]
    if not shared:
        x = rng.standard_normal((6, n, d))
    h0 = rng.standard_normal((n, 4)) * 0.5
    active = np.arange(6)[:, None] < np.array(LENGTHS)[None, :]
    return x, h0, wx, wh, b, active[::-1] if left else active


@pytest.mark.parametrize("shared", [False, True], ids=["per-row-x", "shared-x"])
@pytest.mark.parametrize("left", [False, True], ids=["right-padded", "left-padded"])
def test_masked_gru_equals_one_unmasked_run_per_row(left, shared):
    """Row i runs as gru_forward over its active steps alone; a padded step
    carries the state over, so its output gradient reaches the state it
    repeats, and its input gets no gradient."""
    x, h0, wx, wh, b, active = _masked_case(3, left, shared)
    hs, zs, rs, ns, hwn = gru.gru_forward(x, h0, wx, wh, b, active)
    dout = np.random.default_rng(4).standard_normal((6,) + h0.shape)
    dx, dh0, dwx, dwh, db = gru.gru_backward(dout, x, wx, wh, hs, zs, rs, ns, hwn, active)
    dx_sum, w_sum = np.zeros_like(dx), [np.zeros_like(g) for g in (dwx, dwh, db)]
    for i in range(len(LENGTHS)):
        steps, padded = np.flatnonzero(active[:, i]), np.flatnonzero(~active[:, i])
        x_i = x[steps] if shared else x[steps, i]
        one = gru.gru_forward(x_i, h0[i], wx, wh, b)
        assert np.allclose(hs[steps + 1, i], one[0][1:], rtol=0, atol=1e-12)
        carried = h0[i] if left else hs[steps[-1] + 1, i]
        assert np.array_equal(hs[padded + 1, i], np.broadcast_to(carried, (padded.size, 4)))
        d_i = np.ascontiguousarray(dout[steps, i])
        if not left:
            d_i[-1] += dout[padded, i].sum(axis=0)
        dx_i, dh0_i, dwx_i, dwh_i, db_i = gru.gru_backward(d_i, x_i, wx, wh, *one)
        if left:
            dh0_i = dh0_i + dout[padded, i].sum(axis=0)
        assert np.allclose(dh0[i], dh0_i, rtol=0, atol=1e-12)
        if shared:
            dx_sum[steps] += dx_i
        else:
            assert np.allclose(dx[steps, i], dx_i, rtol=0, atol=1e-12)
            assert np.all(dx[padded, i] == 0.0)
        w_sum = [s + g for s, g in zip(w_sum, (dwx_i, dwh_i, db_i))]
    if shared:
        assert np.allclose(dx, dx_sum, rtol=0, atol=1e-12)
    for batched, want in zip((dwx, dwh, db), w_sum):
        assert np.allclose(batched, want, rtol=0, atol=1e-12)


def test_masked_steps_before_a_row_ends_are_bit_equal_to_the_unmasked_batch():
    x, h0, wx, wh, b, active = _masked_case(5, left=False)
    masked = gru.gru_forward(x, h0, wx, wh, b, active)
    plain = gru.gru_forward(x, h0, wx, wh, b)
    everywhere = gru.gru_forward(x, h0, wx, wh, b, np.ones_like(active))
    for i, n in enumerate(LENGTHS):
        assert np.array_equal(masked[0][:n + 1, i], plain[0][:n + 1, i])
    # an all-active mask is exactly no mask, backward too (gru_sequence drops it)
    dout = np.random.default_rng(8).standard_normal((6,) + h0.shape)
    everywhere += gru.gru_backward(dout, x, wx, wh, *everywhere, np.ones_like(active))
    plain += gru.gru_backward(dout, x, wx, wh, *plain)
    for u, v in zip(everywhere, plain):
        assert np.array_equal(u, v)


# -- transe_batch: array code, bit-equal to the scalar loop it replaced ------

def _transe_case(rng, nb, dim, ne, nr=3):
    """Unit entity rows and a batch drawn the way ``_draw_negatives`` draws:
    each corruption keeps one side of its positive (h == nh or t == nt),
    over few entities so rows repeat within a batch."""
    ent = rng.standard_normal((ne, dim))
    ent /= np.linalg.norm(ent, axis=1, keepdims=True)
    rel = rng.standard_normal((nr, dim)) * 0.3
    h, r, t = rng.integers(0, ne, nb), rng.integers(0, nr, nb), rng.integers(0, ne, nb)
    head = rng.random(nb) < 0.5
    cand = rng.integers(0, ne, nb)
    valid = rng.random(nb) < 0.9
    return ent, rel, (h, r, t, np.where(head, cand, h), np.where(head, t, cand), valid)


def _assert_transe_equals_oracle(ent, rel, batch, use_l2, lr, margin):
    """Run kernel and oracle on copies; return the kernel's (loss, ent, rel)."""
    ent_a, rel_a, ent_b, rel_b = ent.copy(), rel.copy(), ent.copy(), rel.copy()
    loss = transe_ops.transe_batch(ent_a, rel_a, *batch, use_l2, lr, margin)
    want = transe_oracle.transe_batch(ent_b, rel_b, *batch, use_l2, lr, margin)
    assert np.array_equal(loss, want, equal_nan=True), (loss, want)
    assert np.array_equal(ent_a, ent_b, equal_nan=True)
    assert np.array_equal(rel_a, rel_b, equal_nan=True)
    return loss, ent_a, rel_a


def test_transe_batch_equals_the_scalar_loop():
    rng = np.random.default_rng(11)
    for _ in range(150):
        nb, dim = int(rng.integers(0, 131)), int(rng.integers(1, 301))
        ent, rel, batch = _transe_case(rng, nb, dim, int(rng.integers(1, nb // 3 + 3)))
        for use_l2 in (True, False):
            margin = float(rng.uniform(0.05, 3.0))
            _assert_transe_equals_oracle(ent, rel, batch, use_l2, 0.05, margin)


@pytest.mark.parametrize("use_l2", [True, False])
def test_transe_batch_all_invalid_changes_nothing(use_l2):
    ent, rel, batch = _transe_case(np.random.default_rng(12), 9, 5, 4)
    batch = batch[:-1] + (np.zeros(9, dtype=bool),)
    loss, ent_out, rel_out = _assert_transe_equals_oracle(ent, rel, batch, use_l2, 0.1, 1.0)
    assert loss == 0.0
    assert np.array_equal(ent_out, ent) and np.array_equal(rel_out, rel)


@pytest.mark.parametrize("use_l2", [True, False])
def test_transe_batch_every_margin_holding_changes_nothing(use_l2):
    # h + 0 == t exactly, while the corrupted tail is another unit row
    ent, rel = np.eye(3), np.zeros((1, 3))
    h = np.array([0, 1, 2, 0])
    batch = (h, np.zeros(4, dtype=np.int64), h, h, (h + 1) % 3, np.ones(4, dtype=bool))
    loss, ent_out, rel_out = _assert_transe_equals_oracle(ent, rel, batch, use_l2, 0.1, 1.0)
    assert loss == 0.0
    assert np.array_equal(ent_out, ent) and np.array_equal(rel_out, rel)


@pytest.mark.parametrize("use_l2", [True, False])
def test_transe_batch_nan_row_updates_and_returns_nan(use_l2):
    ent, rel, _ = _transe_case(np.random.default_rng(13), 0, 4, 6)
    ent[0] = np.nan
    # example 0 reads the NaN row on both sides (h == nh == 0); example 1 is finite
    batch = (np.array([0, 3]), np.array([1, 2]), np.array([1, 4]),
             np.array([0, 3]), np.array([2, 5]), np.ones(2, dtype=bool))
    loss, ent_out, rel_out = _assert_transe_equals_oracle(ent, rel, batch, use_l2, 0.1, 1.0)
    assert np.isnan(loss)
    assert np.isnan(ent_out[[0, 1, 2]]).all() and np.isnan(rel_out[1]).all()
    assert np.isfinite(ent_out[3:]).all() and np.isfinite(rel_out[[0, 2]]).all()


@pytest.mark.parametrize("use_l2", [True, False])
def test_transe_batch_leaves_a_zero_norm_row_unscaled(use_l2):
    ent, rel, _ = _transe_case(np.random.default_rng(14), 0, 4, 5, nr=2)
    ent[0], rel[0] = 0.0, 0.0
    # example 0 scores 0 on both sides: hinge == margin, every gradient 0
    batch = (np.array([0, 2]), np.array([0, 1]), np.array([0, 3]),
             np.array([0, 2]), np.array([0, 4]), np.ones(2, dtype=bool))
    loss, ent_out, _ = _assert_transe_equals_oracle(ent, rel, batch, use_l2, 0.1, 1.0)
    assert loss >= 1.0
    assert np.array_equal(ent_out[0], np.zeros(4))


def _crf_case(rng, i):
    """K 1-5, m 1-40, scores at scale 0.01-10; every 7th case rounded, so it has ties."""
    k, m = int(rng.integers(1, 6)), int(rng.integers(1, 41))
    scale = 10 ** rng.uniform(-2, 1)
    case = [rng.standard_normal(shape) * scale for shape in ((m, k), (k, k), (k,), (k,))]
    return [np.round(a) for a in case] if i % 7 == 0 else case


def test_crf_kernels_equal_the_scalar_loops():
    rng = np.random.default_rng(17)
    tol = dict(rtol=1e-10, atol=1e-10)
    for i in range(2100):
        case = _crf_case(rng, i)
        logz, alpha = crf.crf_logz(*case)
        want_logz, want_alpha = crf_oracle.crf_logz(*case)
        np.testing.assert_allclose(logz, want_logz, **tol)
        np.testing.assert_allclose(alpha, want_alpha, **tol)
        got = crf.crf_marginals(*case, alpha, logz)
        want = crf_oracle.crf_marginals(*case, want_alpha, want_logz)
        for name, g, w in zip(("unary", "pairwise", "start", "stop"), got, want):
            assert g.shape == w.shape, name
            np.testing.assert_allclose(g, w, err_msg=f"case {i}: {name}", **tol)
        path = crf.crf_viterbi(*case)
        assert path.dtype == np.int64
        assert np.array_equal(path, crf_oracle.crf_viterbi(*case)), f"case {i}"


def test_batched_viterbi_equals_the_scalar_loop_per_sentence():
    """B sentences of one K, right-padded with scores that must not be read, decode
    to the scalar loop's path of each sentence alone, ties included, and 0 past
    each sentence's end."""
    rng = np.random.default_rng(29)
    for i in range(300):
        k, b = int(rng.integers(1, 6)), int(rng.integers(1, 13))
        lengths = rng.integers(1, 41, b)
        scale = 10 ** rng.uniform(-2, 1)
        tables = [rng.standard_normal(shape) * scale for shape in ((k, k), (k,), (k,))]
        sentences = [rng.standard_normal((n, k)) * scale for n in lengths]
        if i % 7 == 0:
            tables = [np.round(a) for a in tables]
            sentences = [np.round(a) for a in sentences]
        emis = rng.standard_normal((b, lengths.max(), k)) * 1e3
        for row, sent in zip(emis, sentences):
            row[:len(sent)] = sent
        paths = crf.crf_viterbi(emis, *tables, lengths)
        assert paths.shape == emis.shape[:2] and paths.dtype == np.int64
        for path, sent in zip(paths, sentences):
            want = crf_oracle.crf_viterbi(sent, *tables)
            assert np.array_equal(path[:len(sent)], want), f"case {i}"
            assert not path[len(sent):].any()
