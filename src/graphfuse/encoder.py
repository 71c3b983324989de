"""Trainable contextual-encoder stand-in.

Embedding lookup + fixed sinusoidal positions, an optional short stack of
masked self-attention blocks, then a linear projection to the graph width d.
This replaces the pretrained transformer of the original pipeline at desk
scale; the interesting machinery lives downstream of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .data import Batch
from .errors import ContractError
from .layers import (Attention, Dropout, FeedForward, LayerNorm, Linear,
                     apply_dropout, multi_head_attention)
from .rng import RngState
from .tensor import Tensor


def positional_encoding(n: int, d_emb: int) -> np.ndarray:
    """Standard sinusoidal table (n, d_emb): even columns sin, odd cos."""
    pos = np.arange(n, dtype=np.float64)[:, None]
    i = np.arange(d_emb // 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * i / d_emb)
    table = np.empty((n, d_emb), dtype=np.float64)
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle)
    return table


@dataclass
class EncoderBlock:
    attn: Attention
    ff: FeedForward
    norm1: LayerNorm
    norm2: LayerNorm

    @staticmethod
    def init(rng: RngState, d_emb: int, n_heads: int) -> "EncoderBlock":
        return EncoderBlock(Attention.init(rng, d_emb, n_heads),
                            FeedForward.init(rng, d_emb, 4 * d_emb),
                            LayerNorm.init(d_emb), LayerNorm.init(d_emb))

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {**self.attn.named(f"{prefix}.attn"),
                **self.ff.named(f"{prefix}.ff"),
                **self.norm1.named(f"{prefix}.norm1"),
                **self.norm2.named(f"{prefix}.norm2")}


@dataclass
class EncoderParams:
    embedding: Tensor               # (|V|, d_emb), trainable
    positional: np.ndarray          # (max_len, d_emb), fixed
    blocks: list[EncoderBlock] = field(default_factory=list)
    projection: Linear = None       # d_emb -> d

    @staticmethod
    def init(rng: RngState, vocab_size: int, d_emb: int, d: int,
             n_layers: int, n_heads: int, max_len: int) -> "EncoderParams":
        emb = Tensor(rng.normal((vocab_size, d_emb)), requires_grad=True)
        blocks = [EncoderBlock.init(rng, d_emb, n_heads) for _ in range(n_layers)]
        proj = Linear.init(rng, d_emb, d)
        return EncoderParams(emb, positional_encoding(max_len, d_emb),
                             blocks, proj)

    def named(self, prefix: str = "encoder") -> dict[str, Tensor]:
        out = {f"{prefix}.embedding": self.embedding}
        for i, block in enumerate(self.blocks):
            out.update(block.named(f"{prefix}.block{i}"))
        out.update(self.projection.named(f"{prefix}.proj"))
        return out


def encode(batch: Batch, params: EncoderParams, drop: Dropout | None) -> Tensor:
    """Contextual embeddings H with shape (B, n_max, d).

    Padded positions flow through position-wise ops but are excluded from
    attention via the key mask, so they never influence real tokens.
    """
    B, n = batch.token_ids.shape
    if n > params.positional.shape[0]:
        raise ContractError(
            f"sequence length {n} exceeds positional table "
            f"{params.positional.shape[0]}")

    x = T.gather_rows(params.embedding, batch.token_ids.reshape(-1)).reshape(B, n, -1)
    x = x + Tensor(params.positional[:n])
    x = apply_dropout(x, drop)
    for block in params.blocks:
        attn = multi_head_attention(block.attn, x, x, x,
                                    key_mask=batch.attention_mask)
        x = block.norm1(x + apply_dropout(attn, drop))
        ff = block.ff(x)
        x = block.norm2(x + apply_dropout(ff, drop))
    return params.projection(x)
