"""Fused GRU sequence kernels (forward pass + hand-derived backward).

Cell convention, with packed gate order [z | r | n] and H the hidden width:

    z_t = sigmoid(x_t Wx[:, :H]   + h_{t-1} Wh[:, :H]   + b[:H])
    r_t = sigmoid(x_t Wx[:, H:2H] + h_{t-1} Wh[:, H:2H] + b[H:2H])
    n_t = tanh(   x_t Wx[:, 2H:]  + r_t * (h_{t-1} Wh[:, 2H:]) + b[2H:])
    h_t = z_t * h_{t-1} + (1 - z_t) * n_t

With all-zero weights and biases the update gate is 0.5 and the candidate 0,
so a zero initial state stays zero for any input.

A batch of states can run sequences of different lengths padded to one
length m: an ``active`` mask [m, n] says which steps each row runs.  On an
inactive step the row's state carries over unchanged, so hs[-1] holds every
row's state after its last active step.  Right padding (step t active while
t < length) runs a row from its first token; the same mask flipped in time
(left padding) runs the time-reversed input, the backward direction of a
bidirectional pass, with no per-row reversal.
"""

import numpy as np


def gru_forward(x, h0, wx, wh, b, active=None):
    """Run the cell over ``x``; returns (hs, zs, rs, ns, hwn).

    ``h0`` is one state [H] or a batch of states [n, H].  ``x`` is [m, d_in],
    read by every state, or [m, n, d_in], one input row per state of the
    batch.  ``active`` (bool [m, n], batch only) masks the steps each row
    runs; None runs every step.  hs is [m+1, *h0.shape] with hs[0] = h0; the
    other stashes are the per-step gate activations and the h-contribution
    to the candidate, kept for backward.
    """
    m = x.shape[0]
    h = h0.shape[-1]
    xw = (x.reshape(-1, x.shape[-1]) @ wx).reshape(x.shape[:-1] + (3 * h,))
    hs = np.empty((m + 1,) + h0.shape)
    hs[0] = h0
    zs = np.empty((m,) + h0.shape)
    rs = np.empty((m,) + h0.shape)
    ns = np.empty((m,) + h0.shape)
    hwn = np.empty((m,) + h0.shape)
    for t in range(m):
        hw = hs[t] @ wh
        z = 1.0 / (1.0 + np.exp(-(xw[t, ..., :h] + hw[..., :h] + b[:h])))
        r = 1.0 / (1.0 + np.exp(-(xw[t, ..., h:2 * h] + hw[..., h:2 * h] + b[h:2 * h])))
        n = np.tanh(xw[t, ..., 2 * h:] + r * hw[..., 2 * h:] + b[2 * h:])
        zs[t] = z
        rs[t] = r
        ns[t] = n
        hwn[t] = hw[..., 2 * h:]
        step = z * hs[t] + (1.0 - z) * n
        hs[t + 1] = step if active is None else np.where(active[t, :, None], step, hs[t])
    return hs, zs, rs, ns, hwn


def gru_backward(dout, x, wx, wh, hs, zs, rs, ns, hwn, active=None):
    """Backward through :func:`gru_forward` (same ``x`` and ``active``).

    ``dout`` [m, *state shape] holds the loss gradient w.r.t. every output
    state h_t.  An inactive step passes the state gradient straight through
    and gives its input no gradient.  Returns (dx, dh0, dwx, dwh, db); dx has
    x's shape and dh0 the state's.
    """
    m = x.shape[0]
    h = dout.shape[-1]
    whT = np.ascontiguousarray(wh.T)
    dxw = np.empty(dout.shape[:-1] + (3 * h,))
    dhw = np.empty(dout.shape[:-1] + (3 * h,))
    dh = np.zeros(dout.shape[1:])
    for t in range(m - 1, -1, -1):
        dh = dh + dout[t]
        z = zs[t]
        r = rs[t]
        n = ns[t]
        dz = dh * (hs[t] - n) * z * (1.0 - z)
        dc = dh * (1.0 - z) * (1.0 - n * n)
        if active is not None:
            on = active[t, :, None]
            dz = np.where(on, dz, 0.0)
            dc = np.where(on, dc, 0.0)
        dr = dc * hwn[t] * r * (1.0 - r)
        dxw[t, ..., :h] = dz
        dxw[t, ..., h:2 * h] = dr
        dxw[t, ..., 2 * h:] = dc
        dhw[t, ..., :h] = dz
        dhw[t, ..., h:2 * h] = dr
        dhw[t, ..., 2 * h:] = dc * r
        step = dh * z + dhw[t] @ whT
        dh = step if active is None else np.where(on, step, dh)
    hsT = np.ascontiguousarray(hs[:m].reshape(-1, h).T)
    dwh = hsT @ dhw.reshape(-1, 3 * h)
    wxT = np.ascontiguousarray(wx.T)
    if x.ndim == 2:
        # a batch of states reads one x, so their input-side gradients add up
        dxs = dxw.reshape(m, -1, 3 * h).sum(axis=1)
        dx = dxs @ wxT
    else:
        dxs = dxw.reshape(-1, 3 * h)
        dx = (dxs @ wxT).reshape(x.shape)
    dwx = np.ascontiguousarray(x.reshape(-1, x.shape[-1]).T) @ dxs
    db = np.sum(dxs, axis=0)
    return dx, dh, dwx, dwh, db
