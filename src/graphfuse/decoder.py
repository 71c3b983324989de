"""Non-autoregressive refinement: one (or more) transformer decoder layers
with tgt = memory = the graph-augmented embeddings.

Standard post-norm decoder layer: self-attention, cross-attention,
feed-forward (ReLU, d_ff = 4d), each sub-layer followed by dropout, residual
add and layer norm. There is NO causal mask — the layer refines a full
sequence rather than generating one — and padding is masked on the key side
of both attention blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .layers import (Attention, FeedForward, LayerNorm, apply_dropout,
                     multi_head_attention)
from .rng import RngState
from .tensor import Tensor


@dataclass
class DecoderLayerParams:
    self_attn: Attention
    cross_attn: Attention
    ff: FeedForward
    norm1: LayerNorm
    norm2: LayerNorm
    norm3: LayerNorm

    @staticmethod
    def init(rng: RngState, d: int, n_heads: int) -> "DecoderLayerParams":
        return DecoderLayerParams(
            Attention.init(rng, d, n_heads), Attention.init(rng, d, n_heads),
            FeedForward.init(rng, d, 4 * d),
            LayerNorm.init(d), LayerNorm.init(d), LayerNorm.init(d))

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {**self.self_attn.named(f"{prefix}.self"),
                **self.cross_attn.named(f"{prefix}.cross"),
                **self.ff.named(f"{prefix}.ff"),
                **self.norm1.named(f"{prefix}.norm1"),
                **self.norm2.named(f"{prefix}.norm2"),
                **self.norm3.named(f"{prefix}.norm3")}


@dataclass
class DecoderParams:
    layers: list[DecoderLayerParams]
    dropout: float = 0.0

    @staticmethod
    def init(rng: RngState, d: int, n_heads: int, n_layers: int = 1,
             dropout: float = 0.0) -> "DecoderParams":
        if n_layers < 1:
            raise ConfigError(f"decoder needs at least one layer, got {n_layers}")
        return DecoderParams(
            [DecoderLayerParams.init(rng, d, n_heads) for _ in range(n_layers)],
            dropout)

    def named(self, prefix: str = "decoder") -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, layer in enumerate(self.layers):
            out.update(layer.named(f"{prefix}.layer{i}"))
        return out


def decode_refine(H_gat: Tensor, pad_mask: np.ndarray, params: DecoderParams,
                  rng: RngState | None, training: bool,
                  collect: dict | None = None) -> Tensor:
    """Refine (B, n, d) -> (B, n, d). ``pad_mask`` is True at real tokens.

    Memory for cross-attention is the layer-stack *input* (the graph-stage
    output), so every layer re-attends to the same sequence.
    """
    memory = H_gat
    x = H_gat
    p = params.dropout
    for layer in params.layers:
        coll_self = collect.setdefault("dec_self", []) if collect is not None else None
        sa = multi_head_attention(layer.self_attn, x, x, x,
                                  key_mask=pad_mask, collect=coll_self)
        x = layer.norm1(x + apply_dropout(sa, p, rng, training))
        coll_cross = collect.setdefault("dec_cross", []) if collect is not None else None
        ca = multi_head_attention(layer.cross_attn, x, memory, memory,
                                  key_mask=pad_mask, collect=coll_cross)
        x = layer.norm2(x + apply_dropout(ca, p, rng, training))
        ff = layer.ff(x)
        x = layer.norm3(x + apply_dropout(ff, p, rng, training))
    return x
