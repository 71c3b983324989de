"""Shared parameterized building blocks: linear, layer norm, multi-head attention.

Parameter containers are plain dataclasses of Tensors with a ``named``
method so the model can assemble its flat name -> Tensor dictionary for the
optimizer and the checkpoint. Naming matters: ``decayed`` exempts names
ending in ``.b`` or containing ``.norm`` from AdamW's weight decay, and
``FlatParams`` lays the decayed names out first.

Builders take values that ``ModelConfig.validate`` has already checked
(widths divisible by their head counts, among others) and do not check
them again.

A block holds parameters only; what is fixed model-wide stays in
``graphfuse.tensor`` (the layer-norm epsilon). Every attention call is
masked, so ``multi_head_attention`` requires its (B, n_k) key mask; it
projects and splits the heads and hands the map work to the one-node
``T.attention``.

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
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .rng import RngState
from .tensor import Tensor


def decayed(name: str) -> bool:
    """Whether AdamW decays ``name``: not biases (``.b``) nor layer-norm
    gains and biases (``...normK.*``)."""
    return not (name.endswith(".b") or ".norm" in name)


class FlatParams:
    """Each parameter's ``.data`` becomes a view into ``data`` and its
    ``.grad`` a view into ``grad`` (zeros). Decayed names come first, so the
    decayed weights are ``data[:n_decayed]``; nothing rebinds the views.
    ``layout`` is the JSON-exact ``[name, shape]`` list in buffer order."""

    def __init__(self, named: dict[str, Tensor]):
        order = sorted(named.items(), key=lambda item: not decayed(item[0]))
        self.layout = [[name, list(p.data.shape)] for name, p in order]
        self.data = np.concatenate([p.data.reshape(-1) for _, p in order])
        self.grad = np.zeros_like(self.data)
        self.n_decayed = sum(p.data.size for name, p in order if decayed(name))
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

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.w": self.w, f"{prefix}.b": self.b}


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

    def named(self, prefix: str) -> dict[str, Tensor]:
        # 'norm' in the prefix keeps both out of weight decay
        return {f"{prefix}.gain": self.gain, f"{prefix}.bias": self.bias}


@dataclass
class Attention:
    """Q/K/V/O projections for one multi-head attention block."""

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

    def named(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for tag, lin in (("q", self.q), ("k", self.k), ("v", self.v), ("o", self.o)):
            out.update(lin.named(f"{prefix}.{tag}"))
        return out


def multi_head_attention(params: Attention, query: Tensor, key: Tensor,
                         value: Tensor, key_mask: np.ndarray,
                         collect: list | None = None) -> Tensor:
    """Scaled dot-product attention with key-side padding masking.

    ``key_mask`` is the (B, n_k) boolean attention mask (True = real token).
    Masked keys receive exactly zero weight, so every row still sums to 1
    over the unmasked keys. q is scaled by 1/√dh before ``T.attention``,
    which keeps the (B, H, n_q, n_k) weights as its only map-sized buffer.
    When ``collect`` is given those weights are appended to it (eval
    instrumentation).
    """
    B, n_q, d = query.shape
    n_k = key.shape[1]
    h = params.n_heads
    dh = d // h

    def split(x: Tensor, n: int, axes: tuple[int, ...]) -> Tensor:
        return T.transpose(x.reshape(B, n, h, dh), axes)

    # scaling q, not the scores, costs n·dh products instead of n²
    q = split(params.q(query), n_q, (0, 2, 1, 3)) * (1.0 / math.sqrt(dh))
    k_t = split(params.k(key), n_k, (0, 2, 3, 1))   # (B, h, dh, n_k)
    v = split(params.v(value), n_k, (0, 2, 1, 3))   # (B, h, n_k, dh)
    mixed = T.attention(q, k_t, v, key_mask, collect)  # (B, h, n_q, dh)
    mixed = T.transpose(mixed, (0, 2, 1, 3)).reshape(B, n_q, d)
    return params.o(mixed)


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

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {**self.inner.named(f"{prefix}.inner"),
                **self.outer.named(f"{prefix}.outer")}


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
