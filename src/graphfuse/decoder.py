"""Non-autoregressive refinement: one transformer decoder layer with
tgt = memory = the graph-augmented embeddings.

Standard post-norm decoder layer: self-attention, cross-attention,
feed-forward (ReLU, d_ff = 4d), each sub-layer followed by dropout, residual
add and layer norm. There is NO causal mask — the layer refines a full
sequence rather than generating one — and padding is masked on the key side
of both attention blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import (Attention, Dropout, FeedForward, LayerNorm,
                     apply_dropout, multi_head_attention)
from .rng import RngState
from .tensor import Tensor


@dataclass
class DecoderParams:
    self_attn: Attention
    cross_attn: Attention
    ff: FeedForward
    norm1: LayerNorm
    norm2: LayerNorm
    norm3: LayerNorm

    @staticmethod
    def init(rng: RngState, d: int, n_heads: int) -> "DecoderParams":
        return DecoderParams(
            Attention.init(rng, d, n_heads), Attention.init(rng, d, n_heads),
            FeedForward.init(rng, d, 4 * d),
            LayerNorm.init(d), LayerNorm.init(d), LayerNorm.init(d))

    def named(self, prefix: str = "decoder") -> dict[str, Tensor]:
        return {**self.self_attn.named(f"{prefix}.self"),
                **self.cross_attn.named(f"{prefix}.cross"),
                **self.ff.named(f"{prefix}.ff"),
                **self.norm1.named(f"{prefix}.norm1"),
                **self.norm2.named(f"{prefix}.norm2"),
                **self.norm3.named(f"{prefix}.norm3")}


def decode_refine(H_gat: Tensor, pad_mask: np.ndarray, params: DecoderParams,
                  drop: Dropout | None, collect: dict | None = None) -> Tensor:
    """Refine (B, n, d) -> (B, n, d). ``pad_mask`` is True at real tokens.

    Cross-attention keys and values are the layer input ``H_gat`` (the
    graph-stage output); its queries are the self-attention result.
    """
    coll_self = collect.setdefault("dec_self", []) if collect is not None else None
    sa = multi_head_attention(params.self_attn, H_gat, H_gat, H_gat,
                              key_mask=pad_mask, collect=coll_self)
    x = params.norm1(H_gat + apply_dropout(sa, drop))
    coll_cross = collect.setdefault("dec_cross", []) if collect is not None else None
    ca = multi_head_attention(params.cross_attn, x, H_gat, H_gat,
                              key_mask=pad_mask, collect=coll_cross)
    x = params.norm2(x + apply_dropout(ca, drop))
    ff = params.ff(x)
    return params.norm3(x + apply_dropout(ff, drop))
