import numpy as np
import pytest

from ksaqa import kernels
from ksaqa.kernels import adam_ops, crf, gru, transe_ops


@pytest.fixture
def lanes():
    """Yield a helper that runs fn under both lanes and compares outputs."""
    if not kernels.HAVE_NUMBA:
        pytest.skip("numba unavailable; single-lane build")

    def run(fn, comparator=None):
        prev = kernels.set_backend("numpy")
        try:
            out_np = fn()
            kernels.set_backend("numba")
            out_nb = fn()
        finally:
            kernels.set_backend(prev)
        flat_np = out_np if isinstance(out_np, tuple) else (out_np,)
        flat_nb = out_nb if isinstance(out_nb, tuple) else (out_nb,)
        for a, b in zip(flat_np, flat_nb):
            if comparator:
                comparator(a, b)
            else:
                assert np.allclose(a, b, rtol=1e-12, atol=1e-12)
        return out_np

    return run


def _gru_inputs(seed=0, m=6, d=5, h=4):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((m, d)), np.zeros(h),
            rng.standard_normal((d, 3 * h)) * 0.4,
            rng.standard_normal((h, 3 * h)) * 0.4,
            rng.standard_normal(3 * h) * 0.1)


def test_gru_forward_lane_equivalence(lanes):
    x, h0, wx, wh, b = _gru_inputs()
    lanes(lambda: gru.gru_forward(x, h0, wx, wh, b))


def test_gru_backward_lane_equivalence(lanes):
    x, h0, wx, wh, b = _gru_inputs(1)
    hs, zs, rs, ns, hwn = gru.gru_forward(x, h0, wx, wh, b)
    g = np.random.default_rng(2).standard_normal(hs.shape)
    lanes(lambda: gru.gru_backward(g, x, wx, wh, hs, zs, rs, ns, hwn))


def test_crf_lane_equivalence(lanes):
    rng = np.random.default_rng(3)
    em = rng.standard_normal((7, 2))
    tr = rng.standard_normal((2, 2))
    st = rng.standard_normal(2)
    en = rng.standard_normal(2)
    logz, alpha = lanes(lambda: crf.crf_logz(em, tr, st, en))
    lanes(lambda: crf.crf_marginals(em, tr, st, en, alpha, logz))
    lanes(lambda: crf.crf_viterbi(em, tr, st, en),
          comparator=lambda a, b: np.array_equal(a, b))


def test_adam_lane_equivalence(lanes):
    rng = np.random.default_rng(4)
    g = rng.standard_normal(64)

    def run():
        p = np.linspace(-1, 1, 64)
        m = np.zeros(64)
        v = np.zeros(64)
        adam_ops.adam_update(p, g, m, v, 3, 0.001, 0.9, 0.999, 1e-8)
        return p, m, v

    lanes(run)


def test_transe_lane_equivalence(lanes):
    rng = np.random.default_rng(5)
    ne, dim, nb = 12, 6, 8
    ent0 = rng.standard_normal((ne, dim))
    ent0 /= np.linalg.norm(ent0, axis=1, keepdims=True)
    rel0 = rng.standard_normal((4, dim))
    h = rng.integers(0, ne, nb)
    r = rng.integers(0, 4, nb)
    t = rng.integers(0, ne, nb)
    nh = h.copy()
    nt = rng.integers(0, ne, nb)
    valid = np.ones(nb, dtype=np.bool_)
    valid[3] = False

    def run():
        ent, rel = ent0.copy(), rel0.copy()
        loss = transe_ops.transe_batch(ent, rel, h, r, t, nh, nt, valid,
                                       True, 0.01, 1.0)
        return loss, ent, rel

    lanes(run)


def test_within_lane_bitwise_determinism():
    x, h0, wx, wh, b = _gru_inputs(6)
    a = gru.gru_forward(x, h0, wx, wh, b)
    b2 = gru.gru_forward(x, h0, wx, wh, b)
    for u, v in zip(a, b2):
        assert np.array_equal(u, v)


def test_set_backend_returns_previous_and_validates():
    prev = kernels.set_backend("numpy")
    try:
        assert kernels.active_backend() == "numpy"
        with pytest.raises(ValueError):
            kernels.set_backend("bogus")
    finally:
        kernels.set_backend(prev)


def test_gru_zero_weights_zero_output():
    m, d, h = 4, 3, 5
    hs, *_ = gru.gru_forward(np.random.default_rng(0).standard_normal((m, d)),
                             np.zeros(h), np.zeros((d, 3 * h)),
                             np.zeros((h, 3 * h)), np.zeros(3 * h))
    # stash holds h0 in row 0, then the m output states
    assert np.array_equal(hs, np.zeros((m + 1, h)))
