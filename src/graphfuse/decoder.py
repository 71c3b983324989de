"""Non-autoregressive refinement: one transformer decoder layer with
tgt = memory = the graph-augmented embeddings.

Standard post-norm decoder layer: self-attention, cross-attention,
feed-forward (ReLU, d_ff = 4d), each sub-layer followed by dropout, residual
add and layer norm. There is NO causal mask — the layer refines a full
sequence rather than generating one — and each sentence's trailing pads are
masked on the key side of both attention blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .layers import Attention, Dropout, FeedForward, LayerNorm, apply_dropout
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


def decode_refine(H_gat: Tensor, lengths: list[int], params: DecoderParams,
                  drop: Dropout | None) -> Tensor:
    """Refine (B, n, d) -> (B, n, d). Sample b has ``lengths[b]`` real
    tokens, then pads.

    Cross-attention keys and values are the layer input ``H_gat`` (the
    graph-stage output); its queries are the self-attention result.
    """
    sa = params.self_attn(H_gat, H_gat, lengths)
    x = params.norm1(H_gat + apply_dropout(sa, drop))
    ca = params.cross_attn(x, H_gat, lengths)
    x = params.norm2(x + apply_dropout(ca, drop))
    ff = params.ff(x)
    return params.norm3(x + apply_dropout(ff, drop))
