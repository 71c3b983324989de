"""Multi-head graph attention (v1 form) over each sentence's complete graph.

Attention logits are LeakyReLU(a · [W h_dst ; W h_src]); normalization is a
softmax over each node's in-neighborhood. Every sentence graph is complete
and self-looped, so the in-neighborhood of a token is every real token of
its sentence and the layer is dense attention over the padded batch, with
each sentence's trailing pad tokens masked out as keys (the ``bias_mat``
form of the original GAT code). As after the encoder and the decoder, a
pad row's output has no defined value; the loss ignores it. Heads are
concatenated and projected back to d.

``T.graph_attention`` takes the (B, n, d) features, ``W`` and the two
score vectors: it projects each head, forms the score halves, the masked
softmax weights of their leaky-ReLU'd pairwise sums (from per-node
exponentials, as the attention is static), the attention dropout and the
product with W h as one node. It returns (B, n, heads·d_head), the heads
side by side, so the ELU, the dropout and the projection take its output as
it is and no code here sees a head-major layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .graph import EdgeIndex
from .layers import Dropout, Linear, apply_dropout
from .rng import RngState
from .tensor import Tensor


@dataclass
class GatParams:
    W: Tensor       # (heads, d, d_head)
    a_dst: Tensor   # (heads, d_head) — pairs with W h_destination
    a_src: Tensor   # (heads, d_head) — pairs with W h_source
    proj: Linear    # heads*d_head -> d

    @property
    def n_heads(self) -> int:
        return self.W.shape[0]

    @staticmethod
    def init(rng: RngState, d: int, hidden: int, heads: int) -> "GatParams":
        dh = hidden // heads
        w_lim = math.sqrt(6.0 / (d + dh))
        a_lim = math.sqrt(6.0 / (2 * dh + 1))
        return GatParams(
            W=Tensor(rng.uniform(-w_lim, w_lim, (heads, d, dh)), requires_grad=True),
            a_dst=Tensor(rng.uniform(-a_lim, a_lim, (heads, dh)), requires_grad=True),
            a_src=Tensor(rng.uniform(-a_lim, a_lim, (heads, dh)), requires_grad=True),
            proj=Linear.init(rng, hidden, d),
        )


def gat_forward(H: Tensor, lengths: list[int], params: GatParams,
                drop: Dropout | None) -> Tensor:
    """Graph-attention layer: padded (B, n, d) -> (B, n, d).

    Sample b has ``lengths[b]`` real tokens, then pads, which get exactly
    zero weight as keys. ``drop`` (None in eval mode) gives the (B, heads, n,
    n) mask on the attention weights, drawn before ``T.graph_attention`` runs
    and before the head outputs' mask, the composed layer's order of draws.
    """
    B, n, _ = H.shape
    keep = None if drop is None else drop.keep((B, params.n_heads, n, n))
    mixed = T.graph_attention(H, params.W, params.a_dst, params.a_src, lengths, keep)
    feats = apply_dropout(T.elu(mixed), drop)
    return params.proj(feats)


def edge_alpha(alpha: np.ndarray, lengths: list[int],
               edges: EdgeIndex) -> tuple[np.ndarray, np.ndarray]:
    """Dense (B, heads, n, n) attention -> (alpha (E, heads), targets).

    Rows follow ``edges``, the complete graphs of ``lengths`` with node ids
    offset by the prefix sums of the lengths.
    """
    sample = np.repeat(np.arange(len(lengths)), lengths)
    offset = np.repeat(np.cumsum([0, *lengths[:-1]]), lengths)
    pos = np.arange(edges.node_count) - offset
    src, tgt = edges.sources, edges.targets
    return alpha[sample[tgt], :, pos[tgt], pos[src]], tgt.copy()
