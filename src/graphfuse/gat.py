"""Multi-head graph attention (v1 form) over each sentence's complete graph.

Attention logits are LeakyReLU(a · [W h_dst ; W h_src]); normalization is a
softmax over each node's in-neighborhood. Every sentence graph is complete
and self-looped, so the in-neighborhood of a token is every real token of
its sentence and the layer is dense attention with a key-padding mask (the
``bias_mat`` form of the original GAT code). Heads are concatenated and
projected back to d.

The per-token score halves ``s_dst`` and ``s_src`` are (B, heads, n)
vectors; ``T.graph_attention`` builds their pairwise sums, the leaky ReLU,
the masked softmax, the attention dropout and the product with W h as one
node, which keeps the weights, the dropout mask and the logit signs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError
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

    @property
    def d_head(self) -> int:
        return self.W.shape[2]

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

    def named(self, prefix: str = "gat") -> dict[str, Tensor]:
        return {f"{prefix}.W": self.W, f"{prefix}.a_dst": self.a_dst,
                f"{prefix}.a_src": self.a_src,
                **self.proj.named(f"{prefix}.proj")}


def gat_forward(H: Tensor, mask: np.ndarray, params: GatParams,
                drop: Dropout | None, collect: list | None = None) -> Tensor:
    """Graph-attention layer: padded (B, n, d) -> (B, n, d).

    ``mask`` is the (B, n) boolean attention mask (True = real token). Pad
    keys get exactly zero weight and pad rows of the output are exactly
    zero. When ``collect`` is given the (B, heads, n, n) attention array,
    before dropout, is appended to it; pad query rows of it are meaningless.
    ``drop`` (None in eval mode) gives the (B, heads, n, n) mask on the
    attention weights, drawn before ``T.graph_attention`` runs and before
    the head outputs' mask, the composed layer's order of draws.
    """
    B, n, d = H.shape
    if mask.shape != (B, n):
        raise ContractError(f"mask {mask.shape} does not match features {H.shape}")
    h = params.n_heads

    # per-token projections and score halves, laid out (B, heads, n, ...)
    Wh = T.matmul(H.reshape(B, 1, n, d), params.W)                   # (B, h, n, dh)
    s_dst = T.sum_(Wh * params.a_dst.reshape(1, h, 1, -1), axis=-1)  # (B, h, n)
    s_src = T.sum_(Wh * params.a_src.reshape(1, h, 1, -1), axis=-1)

    keep = None if drop is None else drop.keep((B, h, n, n))
    mixed = T.graph_attention(s_dst, s_src, Wh, mask, keep, collect)
    mixed = T.transpose(mixed, (0, 2, 1, 3))                         # (B, n, h, dh)
    feats = T.elu(mixed).reshape(B, n, h * params.d_head)
    feats = apply_dropout(feats, drop)
    return params.proj(feats) * mask[..., None]


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
