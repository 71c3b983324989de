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
  require grad when the op ran (dropout and padding masks, constant
  scales), so no product or reduction is spent on a gradient nobody reads.
* Ops take only the arguments the model passes: a value that is the same
  at every call site is a constant here (``LAYER_NORM_EPS``,
  ``LEAKY_RELU_SLOPE``, ELU's alpha 1).
* ``linear(x, w, b)`` is one node for ``x @ w + b``. Its weight gradient
  folds the leading axes of x into one product, so it differs from a
  separate matmul's batched product and sum by rounding only; the input and
  bias gradients are bitwise those of matmul and add.
* ``transpose(x, axes)`` is the one axis-permuting op; attention lays its
  keys out as (B, h, dh, n_k) with a single call.
* ``no_grad()`` suppresses graph construction (evaluation paths).
* Fused primitives (linear, layer_norm, the two attention ops,
  masked_cross_entropy) carry closed-form backwards instead of being
  composed from smaller ops; the max-shift inside each softmax and
  log-sum-exp is detached, which is exact because the shift cancels in the
  gradient.
* Each attention map is one node that holds one (B, h, n, n) float64
  buffer, the weights; the bias, shift, exp and normalisation run in place
  in it. ``attention(q, k_t, v, key_mask)`` is ``softmax(q @ k_t) @ v``
  with ``MASK_NEG`` (the constant's one owner) added at pad keys.
  ``multi_head_attention`` scales q by 1/√dh rather than the scores: that
  is n·dh products instead of n², and bitwise equal to scaling the scores
  when 1/√dh is a power of two (dh = 4, 16, 64); at dh = 32 the two differ
  by rounding.
* ``graph_attention(s_dst, s_src, wh, key_mask, keep)`` is the GAT's
  ``(softmax_j(leaky_relu(s_dst_i + s_src_j)) · keep) @ wh``. Pads get
  ``MASK_NEG`` as their (B, h, n) source score, so no bias pass over the map
  is needed. Its row max is ``leaky_relu(s_dst_i + max_j s_src_j)``, taken
  on vectors: x -> fl(s_dst_i + x) and the leaky ReLU are monotone, so this
  is exactly the max over the map's row. Besides the weights it keeps the
  dropout mask and a bool map of negative logits, whose slope factor is
  exactly 1.0 or ``LEAKY_RELU_SLOPE``. Both forwards are bitwise the
  composed masked softmax (``tests/oracles.py``).
* Both backwards use rowsum(dP∘P) = rowsum(dO∘O) (FlashAttention, Dao et
  al. 2022): the softmax backward's row term is a dot product over dh, not
  a map product reduced over n_k. It holds with dropout, because O is the
  output after dropout. It is the same sum in another order, so the
  gradients of the scores and of everything upstream of them differ from
  the composed form's by rounding only; given the same incoming gradient,
  those of v and wh are bitwise equal.
* A backward closure never writes into the incoming ``g``: ``add`` hands the
  same array to both parents, so it may be another node's pending gradient.
  In-place work goes into a buffer the closure allocated itself.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

from .errors import ContractError, DegenerateBatchError, ShapeMismatchError

MASK_NEG = -1e30  # additive key-padding bias; exp() underflows to exactly 0.0
LAYER_NORM_EPS = 1e-5  # added to the variance in every layer_norm
LEAKY_RELU_SLOPE = 0.2  # the GAT's attention-logit slope; lies in (0, 1)

# per thread (and per asyncio task): threaded evaluation must not switch
# grad mode off for the caller
_grad_enabled: ContextVar[bool] = ContextVar("grad_enabled", default=True)


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

    def __radd__(self, other):
        return add(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

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


def matmul(a, b) -> Tensor:
    """Matrix product; batch dims broadcast like np.matmul."""
    a, b = _ensure_tensor(a), _ensure_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeMismatchError(
            f"matmul needs rank >= 2 operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeMismatchError(
            f"matmul inner dimensions disagree: {a.data.shape} x {b.data.shape}")
    try:
        out = np.matmul(a.data, b.data)
    except ValueError as exc:
        raise ShapeMismatchError(
            f"matmul batch dims do not broadcast: {a.data.shape} x {b.data.shape}"
        ) from exc

    need_a, need_b = a.requires_grad, b.requires_grad

    def bw(g):
        ga = gb = None
        if need_a:
            ga = _unbroadcast(np.matmul(g, _matrix_t(b.data)), a.data.shape)
        if need_b:
            gb = _unbroadcast(np.matmul(_matrix_t(a.data), g), b.data.shape)
        return ga, gb

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
        # product and the reduction of a separate matmul and add
        return (np.matmul(g, w.data.T) if need_x else None,
                x2.T @ g.reshape(-1, d_out) if need_w else None,
                _unbroadcast(g, b.data.shape) if need_b else None)

    return _make(out.reshape(*x.data.shape[:-1], d_out), (x, w, b), bw)


# -- shape ops ----------------------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = _ensure_tensor(a)
    out = a.data.reshape(shape)
    return _make(out, (a,), lambda g: (g.reshape(a.data.shape),))


def transpose(a, axes) -> Tensor:
    a = _ensure_tensor(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = a.data.transpose(axes)
    return _make(out, (a,), lambda g: (g.transpose(inv),))


# -- reductions ---------------------------------------------------------------

def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _ensure_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return _make(out, (a,), bw)


# -- nonlinearities -----------------------------------------------------------

def relu(x) -> Tensor:
    x = _ensure_tensor(x)
    pos = x.data > 0
    return _make(np.where(pos, x.data, 0.0), (x,), lambda g: (g * pos,))


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
        return (g * np.where(x.data > 0, 1.0, out + 1.0),)

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

def attention(q, k_t, v, key_mask: np.ndarray,
              collect: list | None = None) -> Tensor:
    """``softmax(q @ k_t + key bias) @ v`` over the last axis, as one node.

    ``q`` is (B, h, n_q, dh), ``k_t`` (B, h, dh, n_k) and ``v`` (B, h, n_k,
    dv); the caller has already scaled ``q``. ``key_mask`` is the (B, n_k)
    boolean key mask (True = real key): pads get the MASK_NEG bias, so they
    receive exactly zero weight. The node keeps the (B, h, n_q, n_k) weights
    and nothing else map-sized; ``collect`` receives them when given.
    """
    q, k_t, v = _ensure_tensor(q), _ensure_tensor(k_t), _ensure_tensor(v)
    B, n_k = k_t.data.shape[0], k_t.data.shape[-1]
    if q.data.ndim != 4 or k_t.data.ndim != 4 or v.data.ndim != 4 or \
            q.data.shape[-1] != k_t.data.shape[-2] or \
            v.data.shape[-2] != n_k or key_mask.shape != (B, n_k):
        raise ShapeMismatchError(
            f"attention needs q (B, h, n_q, dh), k_t (B, h, dh, n_k), "
            f"v (B, h, n_k, dv) and key_mask (B, n_k), got {q.data.shape}, "
            f"{k_t.data.shape}, {v.data.shape} and {key_mask.shape}")
    y = np.matmul(q.data, k_t.data)
    y += np.where(key_mask, 0.0, MASK_NEG)[:, None, None, :]
    y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    out = np.matmul(y, v.data)
    if collect is not None:
        collect.append(y)
    need_q, need_k, need_v = q.requires_grad, k_t.requires_grad, v.requires_grad

    def bw(g):
        # rowsum(gy∘y) = rowsum(g∘out): the softmax backward needs no map
        # product and no row reduction over n_k
        gs = np.matmul(g, _matrix_t(v.data))
        gs -= (g * out).sum(axis=-1, keepdims=True)
        gs *= y
        return (np.matmul(gs, _matrix_t(k_t.data)) if need_q else None,
                np.matmul(_matrix_t(q.data), gs) if need_k else None,
                np.matmul(_matrix_t(y), g) if need_v else None)

    return _make(out, (q, k_t, v), bw)


def graph_attention(s_dst, s_src, wh, key_mask: np.ndarray,
                    keep: np.ndarray | None,
                    collect: list | None = None) -> Tensor:
    """GAT attention ``(softmax_j(leaky_relu(s_dst_i + s_src_j)) · keep) @ wh``.

    ``s_dst`` and ``s_src`` are the (B, h, n) score halves, ``wh`` the (B, h,
    n, dh) projected features and ``key_mask`` the (B, n) key mask. Pads get
    MASK_NEG as their source score, so they receive exactly zero weight.
    ``keep`` is the (B, h, n, n) inverted-dropout mask, or None in eval mode.
    The node keeps the weights before dropout, ``keep`` and the sign of the
    logits; ``collect`` receives the weights when given.
    """
    s_dst, s_src, wh = _ensure_tensor(s_dst), _ensure_tensor(s_src), _ensure_tensor(wh)
    B, h, n = s_src.data.shape
    if s_dst.data.shape != (B, h, n) or wh.data.shape[:3] != (B, h, n) or \
            key_mask.shape != (B, n):
        raise ShapeMismatchError(
            f"graph_attention needs s_dst and s_src (B, h, n), wh (B, h, n, dh) "
            f"and key_mask (B, n), got {s_dst.data.shape}, {s_src.data.shape}, "
            f"{wh.data.shape} and {key_mask.shape}")
    slope = LEAKY_RELU_SLOPE
    src = np.where(key_mask[:, None, :], s_src.data, MASK_NEG)
    y = s_dst.data[..., None] + src[..., None, :]
    neg = y < 0
    np.multiply(y, slope, out=y, where=neg)
    # the row max, exactly: x -> fl(s_dst_i + x) and the leaky ReLU are
    # monotone, so max_j of the logits is the logit of max_j src_j
    top = s_dst.data + src.max(axis=-1, keepdims=True)
    np.multiply(top, slope, out=top, where=top < 0)
    y -= top[..., None]
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    if collect is not None:
        collect.append(y)
    out = np.matmul(y if keep is None else y * keep, wh.data)
    need_dst, need_src, need_wh = s_dst.requires_grad, s_src.requires_grad, wh.requires_grad

    def bw(g):
        dwh = None
        if need_wh:
            dwh = np.matmul(_matrix_t(y if keep is None else y * keep), g)
        gs = np.matmul(g, _matrix_t(wh.data))
        if keep is not None:
            gs *= keep
        # rowsum(gs∘y) = rowsum(g∘out), with or without dropout
        gs -= (g * out).sum(axis=-1, keepdims=True)
        gs *= y
        np.multiply(gs, slope, out=gs, where=neg)
        return (gs.sum(axis=-1) if need_dst else None,
                gs.sum(axis=-2) if need_src else None,
                dwh)

    return _make(out, (s_dst, s_src, wh), bw)


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
    """Select rows of ``x`` along axis 0; backward scatter-adds (repeats ok)."""
    x = _ensure_tensor(x)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ContractError(f"gather_rows wants a 1-D index list, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.data.shape[0]):
        raise ContractError(
            f"gather_rows index out of range for {x.data.shape[0]} rows")
    out = x.data[idx]

    def bw(g):
        cols = int(np.prod(x.data.shape[1:], dtype=np.int64)) if x.data.ndim > 1 else 1
        flat = _scatter_add_rows(g.reshape(idx.size, cols), idx, x.data.shape[0])
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
    shifted = rows - rows.max(axis=1, keepdims=True)
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
