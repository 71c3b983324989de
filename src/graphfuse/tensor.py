"""Reverse-mode autodiff over numpy float64 arrays.

A :class:`Tensor` wraps an ndarray plus an optional gradient buffer. Ops
build a DAG of closures; :func:`backward` walks it once in topological order
and accumulates dL/dθ into the ``.grad`` of each leaf (a tensor no op
produced, e.g. a parameter). Everything is 64-bit: at desk scale we
trade speed for checkable numerics (finite differences at 1e-3 relative
tolerance need the headroom).

Design notes
------------
* The module holds exactly the ops the three model variants (encoder,
  gat, full) use, in training and in prediction. A new op comes in the
  same change as its caller; ``tests/test_model.py`` fails when a public
  function here is left unreached.
* Gradients accumulate across ``backward`` calls until the caller clears
  them; ``TokenClassifier.zero_grad`` zeroes the model's gradient buffer.
  Intermediate results keep ``.grad is None``.
* A binary op's backward returns ``None`` for an operand that did not
  require grad when the op ran (dropout masks, constant scales), so no
  product or reduction is spent on a gradient nobody reads.
* Ops take only the arguments the model passes: a value that is the same
  at every call site is a constant here (``LAYER_NORM_EPS``,
  ``LEAKY_RELU_SLOPE``, ELU's alpha 1).
* ``linear(x, w, b)`` is one node for ``x @ w + b``. Its weight gradient
  folds the leading axes of x into one product, so it differs from a
  batched ``np.matmul`` summed over the batch by rounding only; the input
  and bias gradients are bitwise those of ``np.matmul`` and a broadcast add.
* ``no_grad()`` suppresses graph construction (evaluation paths).
* Fused primitives (linear, layer_norm, the two attention ops,
  masked_cross_entropy) carry closed-form backwards instead of being
  composed from smaller ops; the max-shift inside each softmax and
  log-sum-exp is detached, which is exact because the shift cancels in the
  gradient.
* Each attention map is one node that holds one (B, h, n, n) float64
  buffer, the unnormalised weights E = exp(logits − row max); in
  ``attention`` the pad scores, shift and exp run in place in it, and the
  GAT builds it from per-node exponentials. The forward normalises after
  the value product (FlashAttention, Dao et al. 2022): ``E @ [v | 1]`` is
  one product whose last column is the row sum Z, so the weights E / Z are
  never formed and no map-sized sum or divide runs. Each row's max entry
  is exactly 1, so Z >= 1. The outputs differ from the composed masked
  softmax (``tests/oracles.py``) by rounding only, within 1e-15 of their
  largest magnitude.
* The heads are private to the two attention ops: both return (B, n, h·dh),
  the heads side by side, so no model code permutes axes.
* Both ops take ``lengths``, each sample's count of real tokens; the keys
  after them are that sample's pads, set to ``MASK_NEG`` (the constant's one
  owner) by slice. Both hand their weights E to one forward/backward pair,
  ``_softmax_value`` and ``_softmax_value_backward``.
* ``attention(q, k, v, lengths, n_heads)`` is multi-head
  ``softmax(q @ kᵀ / √dh) @ v``. It takes the (B, n, d) projections and
  splits the heads with reshape and transpose views; its gradients go back
  through the same views. Setting a pad score to ``MASK_NEG`` is bitwise a
  broadcast bias add, since fl(s + MASK_NEG) = MASK_NEG for |s| < 7e13.
* ``graph_attention(h, w, a_dst, a_src, lengths, keep)`` is the GAT's
  ``(softmax_j(leaky_relu(s_dst_i + s_src_j)) · keep) @ wh``. It takes the
  (B, n, d) features and forms the head-major ``wh = h @ w``, with ``w``
  (heads, d, dh), and both score halves as one product ``h @ U``, U's
  columns each head's ``w @ a_dst`` and ``w @ a_src``. Pads get
  ``MASK_NEG`` as their source score. GAT v1 attention is static (Brody et
  al. 2022): with m = max_j s_src_j and top_i = s_dst_i + m, the row max is
  t_i = leaky_relu(top_i), as x -> fl(s_dst_i + x) and the leaky ReLU are
  monotone, and E_ij = max(a_i·b_j, c_i·d_j) with a_i, c_i = exp([top_i,
  slope·top_i] − t_i) and b_j, d_j = exp([1, slope]·(s_src_j − m)).
  All four factors lie in [0, 1], one of a_i and c_i is exactly 1 and a
  pad key's b_j and d_j are exactly 0. The map work is two outer products,
  each a rank-2 product with a zero term, and one ``maximum`` (numpy's
  rank-1 product took 218 against 47 µs for rank 2 at (16, 8, 31, 31),
  one BLAS thread). E differs from exp(leaky_relu(logits) − t) by rounding
  only. With dropout, Z is one product ``E @ 1`` and the output is
  ``((E∘keep) @ wh) / Z``. Besides E and Z it keeps the dropout mask and
  the score halves; the backward takes the logit signs as the rank-2
  product ``[s_dst, 1] @ [1; s_src] < 0``, so no sign map is kept. Each
  entry is s_dst_i·1 + 1·s_src_j: both products are exact and the sum
  rounds once, so it is ``< 0`` exactly where the broadcast sum is.
* Each float row max (the attention map's shift, the GAT's source-score
  max and the loss's log-sum-exp shift) is ``_row_max``: the entry at the
  row's argmax, read with ``take_along_axis``. A max is exact in any order,
  so this is the value ``max`` returns, NaN included, but for which of two
  tied zeros it picks, and a - (±0.0) has one exp. numpy's ``max`` over a
  short last axis runs about 70 ns per row; argmax and the gather cost less
  at n = 12, 36 and 128 alike.
* No map pass runs a masked ufunc (numpy's ``where`` keyword) or a scalar
  ``np.where``: both run slow per-element loops. The leaky ReLU of the
  GAT's row tops is ``max(y, slope·y)`` and its gradient factor is the map
  ``neg·slope + ~neg``, exactly 1.0 or ``LEAKY_RELU_SLOPE``; ReLU is
  ``max(x, 0)`` and its backward reads ``out > 0``, which is exactly
  ``x > 0``. Each gives the same bytes as a select, ±0.0 and subnormals
  included.
* The backward uses rowsum(dP∘P) = rowsum(dO∘O) (FlashAttention): the
  softmax backward's row term is a dot product over dh, not a map product
  reduced over n_k. It holds with dropout, because O is the output after
  dropout. The incoming gradient is divided by Z first, on the output's
  shape, so E is the only map factor: the score gradient is
  E∘(g/Z @ vᵀ − rowsum(g/Z∘O)) and the value gradient Eᵀ @ (g/Z).
* A backward closure never writes into the incoming ``g``: ``add`` hands the
  same array to both parents, so it may be another node's pending gradient.
  In-place work goes into a buffer the closure allocated itself.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

from .errors import ContractError, DegenerateBatchError, ShapeMismatchError

MASK_NEG = -1e30  # a pad key's attention score; exp() underflows to exactly 0.0
LAYER_NORM_EPS = 1e-5  # added to the variance in every layer_norm
LEAKY_RELU_SLOPE = 0.2  # the GAT's attention-logit slope; lies in (0, 1)

# per thread (and per asyncio task): threaded evaluation must not switch
# grad mode off for the caller
_grad_enabled: ContextVar[bool] = ContextVar("grad_enabled", default=True)
# the list both attention ops append their weights to, in call order, or None
_attention_maps: ContextVar[list | None] = ContextVar("attention_maps", default=None)


@contextmanager
def no_grad():
    """Disable graph construction inside the block (forward pass only)."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


class Tensor:
    """An ndarray with an optional grad buffer and a backward closure."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn = None

    # -- bookkeeping --------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def backward(self) -> None:
        backward(self)


def _ensure_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    """Wrap an op result, recording the graph only when grads can flow."""
    out = Tensor(data)
    if _grad_enabled.get() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = backward_fn
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    keep = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if keep:
        grad = grad.sum(axis=keep, keepdims=True)
    return grad.reshape(shape)


def _matrix_t(a: np.ndarray) -> np.ndarray:
    """A view of ``a`` with its last two axes exchanged (batched transpose)."""
    return a.transpose(*range(a.ndim - 2), -1, -2)


# -- arithmetic ---------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _ensure_tensor(a), _ensure_tensor(b)
    out = a.data + b.data
    need_a, need_b = a.requires_grad, b.requires_grad

    def bw(g):
        return (_unbroadcast(g, a.data.shape) if need_a else None,
                _unbroadcast(g, b.data.shape) if need_b else None)

    return _make(out, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = _ensure_tensor(a), _ensure_tensor(b)
    out = a.data * b.data
    need_a, need_b = a.requires_grad, b.requires_grad

    def bw(g):
        return (_unbroadcast(g * b.data, a.data.shape) if need_a else None,
                _unbroadcast(g * a.data, b.data.shape) if need_b else None)

    return _make(out, (a, b), bw)


def linear(x, w, b) -> Tensor:
    """``x @ w + b`` over the last axis of ``x``, as one node.

    ``w`` is (d_in, d_out) and ``b`` is (d_out,). The leading axes of ``x``
    fold into one 2-D product, so the weight gradient is one product as well
    rather than a batched product summed over the batch.
    """
    x, w, b = _ensure_tensor(x), _ensure_tensor(w), _ensure_tensor(b)
    if w.data.ndim != 2 or x.data.ndim < 1 or \
            x.data.shape[-1] != w.data.shape[0] or b.data.shape != w.data.shape[1:]:
        raise ShapeMismatchError(
            f"linear needs x (..., d_in), w (d_in, d_out) and b (d_out,), got "
            f"{x.data.shape}, {w.data.shape} and {b.data.shape}")
    d_in, d_out = w.data.shape
    x2 = x.data.reshape(-1, d_in)
    out = x2 @ w.data
    out += b.data
    need_x, need_w, need_b = x.requires_grad, w.requires_grad, b.requires_grad

    def bw(g):
        # gx and gb keep g's leading axes, so they are bitwise the batched
        # product and the reduction of a separate np.matmul and add
        return (np.matmul(g, w.data.T) if need_x else None,
                x2.T @ g.reshape(-1, d_out) if need_w else None,
                _unbroadcast(g, b.data.shape) if need_b else None)

    return _make(out.reshape(*x.data.shape[:-1], d_out), (x, w, b), bw)


# -- nonlinearities -----------------------------------------------------------

def relu(x) -> Tensor:
    x = _ensure_tensor(x)
    out = np.maximum(x.data, 0.0)
    # out > 0 is exactly x > 0, NaN included, so no mask is kept
    return _make(out, (x,), lambda g: (g * (out > 0),))


def elu(x) -> Tensor:
    """ELU: x for x > 0, eˣ−1 otherwise. Grad is y+1 below zero."""
    x = _ensure_tensor(x)
    # eˣ−1 is +0.0 where x >= 0 and max(x, 0) is ±0.0 where x <= 0, so the
    # sum is exactly the two-branch form
    out = np.minimum(x.data, 0.0)
    np.exp(out, out=out)
    out -= 1.0
    out += np.maximum(x.data, 0.0)

    def bw(g):
        # min(out, 0) is out below zero and +0.0 above (out > 0 iff x > 0)
        return (g * (np.minimum(out, 0.0) + 1.0),)

    return _make(out, (x,), bw)


def layer_norm(x, gain, bias) -> Tensor:
    """Normalize over the last axis, then scale/shift by (gain, bias)."""
    x, gain, bias = _ensure_tensor(x), _ensure_tensor(gain), _ensure_tensor(bias)
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeMismatchError(
            f"layer_norm affine params must have shape ({d},), "
            f"got gain {gain.data.shape} and bias {bias.data.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = xc * inv
    y = xhat * gain.data + bias.data

    def bw(g):
        dxhat = g * gain.data
        dgain = (g * xhat).reshape(-1, d).sum(axis=0)
        dbias = g.reshape(-1, d).sum(axis=0)
        dx = inv * (dxhat
                    - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        return dx, dgain, dbias

    return _make(y, (x, gain, bias), bw)


# -- attention ----------------------------------------------------------------

def _split_heads(a: np.ndarray, n_heads: int, axes=(0, 2, 1, 3)) -> np.ndarray:
    """The (B, n, h, dh) view of the (B, n, d) array ``a``, permuted by ``axes``."""
    B, n, d = a.shape
    return a.reshape(B, n, n_heads, d // n_heads).transpose(axes)


def _merge_heads(a: np.ndarray, axes=(0, 2, 1, 3)) -> np.ndarray:
    """The (B, n, d) array of the head-major ``a``; ``axes`` undoes a split."""
    a = a.transpose(axes)
    return a.reshape(*a.shape[:2], -1)


def _row_max(a: np.ndarray) -> np.ndarray:
    """The max of each row of ``a`` (its last axis), with keepdims, read at
    the row's argmax."""
    return np.take_along_axis(a, a.argmax(axis=-1)[..., None], axis=-1)


def _softmax_value(e: np.ndarray, v: np.ndarray, keep) -> tuple[np.ndarray, np.ndarray]:
    """The output ``((e / Z)∘keep) @ v`` and the row sums Z of the
    unnormalised weights ``e``."""
    if keep is None:
        d = v.shape[-1]
        v1 = np.empty((*v.shape[:-1], d + 1))
        v1[..., :d] = v
        v1[..., d] = 1.0
        num = np.matmul(e, v1)
        z = num[..., d:]
        out = num[..., :d] / z
    else:
        z = np.matmul(e, np.ones(e.shape[-1]))[..., None]
        out = np.matmul(e * keep, v)
        out /= z
    if (maps := _attention_maps.get()) is not None:
        maps.append(e / z)
    return out, z


def _softmax_value_backward(g, e, z, v, out, keep, need_v: bool):
    """The shifted logits' gradient and, if ``need_v``, the values' gradient
    of ``_softmax_value``, from the head-major output gradient ``g``."""
    gz = g / z
    gs = np.matmul(gz, _matrix_t(v))
    if keep is not None:
        gs *= keep
    gs -= (gz * out).sum(axis=-1, keepdims=True)
    gs *= e
    gv = np.matmul(_matrix_t(e if keep is None else e * keep), gz) if need_v else None
    return gs, gv


def attention(q, k, v, lengths: list[int], n_heads: int) -> Tensor:
    """Multi-head ``softmax(q @ kᵀ / √dh + key bias) @ v``, as one node.

    ``q`` is the (B, n_q, d) query projection, ``k`` and ``v`` the (B, n_k,
    d) key and value projections; each splits into ``n_heads`` heads of
    width dh = d / n_heads, and the result is (B, n_q, d) with the heads
    side by side. ``lengths`` holds each sample's count of real keys; the
    keys after them are pads, whose scores are set to MASK_NEG, so pads
    receive exactly zero weight. q is scaled by 1/√dh rather than the scores:
    that is n·dh products instead of n², and bitwise equal to scaling the
    scores when 1/√dh is a power of two (dh = 4, 16, 64); at dh = 32 the two
    differ by rounding. The node keeps the (B, h, n_q, n_k) unnormalised
    weights and their (B, h, n_q, 1) row sums, and nothing else map-sized.
    """
    q, k, v = _ensure_tensor(q), _ensure_tensor(k), _ensure_tensor(v)
    if q.data.ndim != 3 or k.data.ndim != 3 or k.data.shape != v.data.shape or \
            k.data.shape[::2] != q.data.shape[::2] or \
            q.data.shape[2] % n_heads or len(lengths) != q.data.shape[0]:
        raise ShapeMismatchError(
            f"attention needs q (B, n_q, d), k and v (B, n_k, d) with d a "
            f"multiple of {n_heads} heads, and B lengths, got {q.data.shape}, "
            f"{k.data.shape}, {v.data.shape} and {len(lengths)} lengths")
    scale = 1.0 / np.sqrt(q.data.shape[2] // n_heads)
    qh = _split_heads(q.data, n_heads) * scale          # (B, h, n_q, dh)
    kh_t = _split_heads(k.data, n_heads, (0, 2, 3, 1))  # (B, h, dh, n_k)
    vh = _split_heads(v.data, n_heads)                  # (B, h, n_k, dh)
    e = np.matmul(qh, kh_t)
    for b, length in enumerate(lengths):
        e[b, ..., length:] = MASK_NEG
    e -= _row_max(e)
    np.exp(e, out=e)
    out, z = _softmax_value(e, vh, None)
    need_q, need_k, need_v = q.requires_grad, k.requires_grad, v.requires_grad

    def bw(g):
        gs, gv = _softmax_value_backward(_split_heads(g, n_heads), e, z, vh,
                                         out, None, need_v)
        return (_merge_heads(np.matmul(gs, _matrix_t(kh_t)) * scale)
                if need_q else None,
                _merge_heads(np.matmul(_matrix_t(qh), gs), (0, 3, 1, 2))
                if need_k else None,
                _merge_heads(gv) if need_v else None)

    return _make(_merge_heads(out), (q, k, v), bw)


def graph_attention(h, w, a_dst, a_src, lengths: list[int],
                    keep: np.ndarray | None) -> Tensor:
    """GAT attention ``(softmax_j(leaky_relu(s_dst_i + s_src_j)) · keep) @ Wh``.

    ``h`` is the (B, n, d) features, ``w`` the (heads, d, dh) per-head
    projection and ``a_dst`` and ``a_src`` the (heads, dh) score vectors:
    ``Wh`` is each head's projection of ``h`` and ``s_dst`` and ``s_src`` are
    its dot products with ``a_dst`` and ``a_src``. ``lengths`` holds each
    sample's count of real tokens; the tokens after them are pads, whose
    source scores are set to MASK_NEG, so they receive exactly zero weight.
    ``keep`` is the (B, heads, n, n) inverted-dropout mask, or None in eval
    mode. The result is (B, n, heads·dh), the heads side by side. The node
    keeps the unnormalised weights, their row sums, ``keep``, the projected
    features and the two (B, heads, n) score halves.
    """
    h, w = _ensure_tensor(h), _ensure_tensor(w)
    a_dst, a_src = _ensure_tensor(a_dst), _ensure_tensor(a_src)
    if h.data.ndim != 3 or w.data.ndim != 3 or w.data.shape[1] != h.data.shape[2] or \
            a_dst.data.shape != w.data.shape[::2] or \
            a_src.data.shape != w.data.shape[::2] or len(lengths) != h.data.shape[0]:
        raise ShapeMismatchError(
            f"graph_attention needs h (B, n, d), w (heads, d, dh), a_dst and "
            f"a_src (heads, dh) and B lengths, got {h.data.shape}, "
            f"{w.data.shape}, {a_dst.data.shape}, {a_src.data.shape} and "
            f"{len(lengths)} lengths")
    (B, n, d), (heads, _, dh) = h.data.shape, w.data.shape
    h4 = h.data.reshape(B, 1, n, d)
    wh = np.matmul(h4, w.data)                          # (B, heads, n, dh)
    a_d = a_dst.data.reshape(1, heads, 1, dh)
    a_s = a_src.data.reshape(1, heads, 1, dh)
    slope = LEAKY_RELU_SLOPE
    # both score halves of every head as one product h @ U: U's column
    # k is head k's W a_dst and column heads + k its W a_src
    u = np.matmul(w.data, np.stack([a_dst.data, a_src.data], axis=-1))
    s = h.data.reshape(-1, d) @ u.transpose(1, 2, 0).reshape(d, 2 * heads)
    s_dst, s_src = s.reshape(B, n, 2, heads).transpose(2, 0, 3, 1)
    for b, length in enumerate(lengths):
        s_src[b, :, length:] = MASK_NEG
    # E_ij = exp(leaky_relu(s_dst_i + s_src_j) - t_i) = max(a_i b_j, c_i d_j):
    # the leaky ReLU is the larger of its two linear sides, and each side's
    # exp is a query factor times a key factor. The row max t_i is the leaky
    # ReLU of top_i = s_dst_i + max_j s_src_j, exactly (both are monotone)
    m = _row_max(s_src)
    top = s_dst + m
    ac = np.stack([top, top * slope], axis=-1)          # (B, heads, n, 2)
    ac -= np.maximum(ac[..., :1], ac[..., 1:])
    np.exp(ac, out=ac)                                  # [a | c]
    x = s_src - m
    bd = np.zeros((B, heads, 3, n))                     # rows b, 0, d
    np.exp(x, out=bd[..., 0, :])
    np.exp(x * slope, out=bd[..., 2, :])
    # [a | c] @ [b; 0] is a_i b_j exactly, and [a | c] @ [0; d] is c_i d_j
    e = np.matmul(ac, bd[..., :2, :])
    np.maximum(e, np.matmul(ac, bd[..., 1:, :]), out=e)
    out, z = _softmax_value(e, wh, keep)
    need_h, need_w = h.requires_grad, w.requires_grad
    need_dst, need_src = a_dst.requires_grad, a_src.requires_grad

    def bw(g):
        gs, gwh = _softmax_value_backward(_split_heads(g, heads), e, z, wh, out,
                                          keep, need_h or need_w)
        # the leaky ReLU's factor: exactly the slope at a negative logit, 1.0
        # elsewhere; the logits s_dst_i + s_src_j are the rank-2 product
        # [s_dst, 1] @ [1; s_src]
        lhs = np.ones((B, heads, n, 2))
        rhs = np.ones((B, heads, 2, n))
        lhs[..., 0] = s_dst
        rhs[..., 1, :] = s_src
        neg = np.matmul(lhs, rhs) < 0
        f = neg * slope
        f += ~neg
        gs *= f
        g_dst = gs.sum(axis=-1)[..., None]              # (B, heads, n, 1)
        g_src = gs.sum(axis=-2)[..., None]
        if gwh is not None:
            gwh += g_dst * a_d
            gwh += g_src * a_s
        return (_unbroadcast(np.matmul(gwh, _matrix_t(w.data)), h4.shape)
                .reshape(B, n, d) if need_h else None,
                _unbroadcast(np.matmul(_matrix_t(h4), gwh), w.data.shape)
                if need_w else None,
                _unbroadcast(g_dst * wh, a_d.shape).reshape(heads, dh)
                if need_dst else None,
                _unbroadcast(g_src * wh, a_s.shape).reshape(heads, dh)
                if need_src else None)

    return _make(_merge_heads(out), (h, w, a_dst, a_src), bw)


# -- gather / scatter ---------------------------------------------------------

def _scatter_add_rows(values: np.ndarray, rows: np.ndarray,
                      num_rows: int) -> np.ndarray:
    """Sum rows of ``values`` (E, K) into ``num_rows`` buckets, zeros if empty.

    One ``np.bincount`` over the flat bins ``row·K + col``. It adds in input
    order, so each bin sums its values in row order, exactly as a per-column
    bincount would, and repeated indices accumulate deterministically.
    """
    k = values.shape[1]
    bins = (rows[:, None] * k + np.arange(k)).reshape(-1)
    return np.bincount(bins, weights=values.reshape(-1),
                       minlength=num_rows * k).reshape(num_rows, k)


def gather_rows(x, indices) -> Tensor:
    """Select rows of ``x`` along axis 0 by an index array of any shape (the
    result is ``indices.shape + x.shape[1:]``); backward scatter-adds
    (repeats ok)."""
    x = _ensure_tensor(x)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= x.data.shape[0]):
        raise ContractError(
            f"gather_rows index out of range for {x.data.shape[0]} rows")
    out = x.data[idx]

    def bw(g):
        cols = int(np.prod(x.data.shape[1:], dtype=np.int64)) if x.data.ndim > 1 else 1
        flat = _scatter_add_rows(g.reshape(idx.size, cols), idx.reshape(-1),
                                 x.data.shape[0])
        return (flat.reshape(x.data.shape),)

    return _make(out, (x,), bw)


# -- fused loss ---------------------------------------------------------------

IGNORE_INDEX = -100


def masked_cross_entropy(logits: Tensor, label_ids: np.ndarray) -> Tensor:
    """Mean cross-entropy over positions whose label is not IGNORE_INDEX.

    ``logits`` has shape (..., L); ``label_ids`` matches the leading shape.
    Ignored positions contribute exactly zero gradient. Raises
    DegenerateBatchError when every position is ignored.
    """
    logits = _ensure_tensor(logits)
    labels = np.asarray(label_ids, dtype=np.int64)
    if labels.shape != logits.data.shape[:-1]:
        raise ShapeMismatchError(
            f"labels {labels.shape} do not match logits {logits.data.shape}")
    n_classes = logits.data.shape[-1]
    flat = logits.data.reshape(-1, n_classes)
    lab = labels.reshape(-1)
    valid = lab != IGNORE_INDEX
    bad = valid & ((lab < 0) | (lab >= n_classes))
    if bad.any():
        raise ContractError(
            f"label id {lab[bad][0]} outside [0, {n_classes}) and not {IGNORE_INDEX}")
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise DegenerateBatchError("all positions carry the ignore label")

    rows = flat[valid]
    shifted = rows - _row_max(rows)
    ex = np.exp(shifted)
    total = ex.sum(axis=1, keepdims=True)
    picked_at = (np.arange(n_valid), lab[valid])
    loss = np.float64((np.log(total[:, 0]) - shifted[picked_at]).mean())

    def bw(g):
        soft = ex / total
        soft[picked_at] -= 1.0
        soft *= float(g) / n_valid
        dflat = np.zeros_like(flat)
        dflat[valid] = soft
        return (dflat.reshape(logits.data.shape),)

    return _make(np.asarray(loss), (logits,), bw)


# -- engine -------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Populate ``.grad`` on every requires_grad leaf reachable from loss.

    Leaves are tensors no op produced (``_backward_fn is None``), which
    includes every parameter; intermediate results keep ``.grad is None``.
    Iterative topological order; each node is visited exactly once. Repeated
    calls accumulate into existing leaf buffers.
    """
    if loss.data.ndim != 0:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise ContractError("loss does not require grad; nothing to differentiate")

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    # Per-call working buffers keep repeated backward() calls independent
    # and carry every intermediate gradient; only a leaf's += below touches
    # a persistent .grad accumulator.
    work: dict[int, np.ndarray] = {id(loss): np.ones(())}
    for node in reversed(topo):
        g = work.pop(id(node), None)
        if g is None:
            continue
        if node._backward_fn is None:
            # g + 0.0 is a buffer of the leaf's own, bitwise zeros + g
            if node.grad is None:
                node.grad = g + 0.0
            else:
                node.grad += g
            continue
        for parent, pg in zip(node._parents, node._backward_fn(g)):
            if pg is None or not parent.requires_grad:
                continue
            acc = work.get(id(parent))
            work[id(parent)] = pg if acc is None else acc + pg
