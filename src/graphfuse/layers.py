"""Shared parameterized building blocks: linear, layer norm, multi-head attention.

Parameter containers are plain dataclasses of Tensors. The fields are the
parameter tree: ``named_parameters`` walks them and names each Tensor by its
field path (``decoder.self_attn.q.w``), the names the checkpoint's layout
stores. A parameter's rank decides its weight decay: ``FlatParams`` lays the
matrices (weights, the embedding, the GAT's per-head arrays) out first, and
AdamW decays only those, not the vectors (biases, layer-norm gains and
biases).

Builders take values that ``ModelConfig.validate`` has already checked
(widths divisible by their head counts, among others) and do not check
them again.

A block holds parameters only; what is fixed model-wide stays in
``graphfuse.tensor`` (the layer-norm epsilon). Every attention call is
masked, so an ``Attention`` block requires the batch's lengths; it
projects to (B, n, d) and hands the head split, the 1/√dh scale, the pad
keys and the map work to the one-node ``T.attention``.

Dropout has one owner: ``TokenClassifier.forward`` builds one
:class:`Dropout` per training pass from ``ModelConfig.dropout``, and passes
None in eval mode or at p = 0, so a stage only asks whether it got one.
``Dropout.keep`` always draws, and p is the validated rate, so it lies in
[0, 1). It keeps an element where ``RngState.bernoulli(p)`` is False. That
primitive compares raw 64-bit Philox words w with ``ceil(p·2⁵³)·2¹¹``: a
uniform draw is ``(w >> 11)·2⁻⁵³``, so the mask and the stream position are
bitwise those of ``uniform(0, 1) >= p``, at one comparison per element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from . import tensor as T
from .rng import RngState
from .tensor import Tensor


def named_parameters(tree, prefix: str) -> dict[str, Tensor]:
    """Every Tensor under ``tree`` by dotted path from ``prefix``: dataclass
    fields in declaration order, list items by index. Other leaves (None, an
    int such as ``n_heads``, a fixed array) hold no parameter."""
    if isinstance(tree, Tensor):
        return {prefix: tree}
    if isinstance(tree, list):
        children = enumerate(tree)
    elif is_dataclass(tree):
        children = ((f.name, getattr(tree, f.name)) for f in fields(tree))
    else:
        return {}
    out: dict[str, Tensor] = {}
    for key, child in children:
        out.update(named_parameters(child, f"{prefix}.{key}"))
    return out


class FlatParams:
    """Each parameter's ``.data`` becomes a view into ``data`` and its
    ``.grad`` a view into ``grad`` (zeros). Matrices come first, so the
    weights AdamW decays are ``data[:n_decayed]``; nothing rebinds the views.
    ``layout`` is the JSON-exact ``[name, shape]`` list in buffer order."""

    def __init__(self, named: dict[str, Tensor]):
        # a stable sort: names keep their tree order within each group
        order = sorted(named.items(), key=lambda item: item[1].data.ndim < 2)
        self.layout = [[name, list(p.data.shape)] for name, p in order]
        self.data = np.concatenate([p.data.reshape(-1) for _, p in order])
        self.grad = np.zeros_like(self.data)
        self.n_decayed = sum(p.data.size for _, p in order if p.data.ndim >= 2)
        offset = 0
        for _, p in order:
            end = offset + p.data.size
            p.data = self.data[offset:end].reshape(p.data.shape)
            p.grad = self.grad[offset:end].reshape(p.data.shape)
            offset = end


def glorot(rng: RngState, shape: tuple[int, ...]) -> np.ndarray:
    fan_in, fan_out = shape[0], shape[-1]
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape)


@dataclass
class Linear:
    w: Tensor
    b: Tensor

    @staticmethod
    def init(rng: RngState, d_in: int, d_out: int) -> "Linear":
        return Linear(Tensor(glorot(rng, (d_in, d_out)), requires_grad=True),
                      Tensor(np.zeros(d_out), requires_grad=True))

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.w, self.b)


@dataclass
class LayerNorm:
    gain: Tensor
    bias: Tensor

    @staticmethod
    def init(d: int) -> "LayerNorm":
        return LayerNorm(Tensor(np.ones(d), requires_grad=True),
                         Tensor(np.zeros(d), requires_grad=True))

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gain, self.bias)


@dataclass
class Attention:
    """One multi-head attention block: the Q/K/V projections, ``T.attention``
    over their heads, and the output projection O. The queries come from
    ``query``, the keys and values from ``memory``. ``lengths`` holds each
    sample's count of real keys; the pad keys after them receive exactly
    zero weight."""

    q: Linear
    k: Linear
    v: Linear
    o: Linear
    n_heads: int

    @staticmethod
    def init(rng: RngState, d: int, n_heads: int) -> "Attention":
        return Attention(Linear.init(rng, d, d), Linear.init(rng, d, d),
                         Linear.init(rng, d, d), Linear.init(rng, d, d),
                         n_heads)

    def __call__(self, query: Tensor, memory: Tensor,
                 lengths: list[int]) -> Tensor:
        return self.o(T.attention(self.q(query), self.k(memory), self.v(memory),
                                  lengths, self.n_heads))


@dataclass
class FeedForward:
    """Position-wise pair d -> d_ff -> d with ReLU."""

    inner: Linear
    outer: Linear

    @staticmethod
    def init(rng: RngState, d: int, d_ff: int) -> "FeedForward":
        return FeedForward(Linear.init(rng, d, d_ff), Linear.init(rng, d_ff, d))

    def __call__(self, x: Tensor) -> Tensor:
        return self.outer(T.relu(self.inner(x)))


@dataclass(frozen=True)
class Dropout:
    """One training pass's dropout: rate ``p`` and the stream its masks
    come from, drawn in call order."""

    p: float
    rng: RngState

    def keep(self, shape: tuple[int, ...]) -> np.ndarray:
        """Inverted-dropout mask: Bernoulli(1−p)/(1−p), exact ones at p = 0."""
        keep = ~self.rng.bernoulli(self.p, shape)
        # one pass; keep is 0 or 1, so this is bitwise keep / (1 - p)
        return np.multiply(keep, 1.0 / (1.0 - self.p))


def apply_dropout(x: Tensor, drop: Dropout | None) -> Tensor:
    """Multiply by an inverted-dropout mask (no-op when ``drop`` is None)."""
    return x if drop is None else x * drop.keep(x.shape)
