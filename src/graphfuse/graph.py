"""Batched fully-connected token graphs over an offset node space.

Every token of every sample is a node; each sample's nodes form a complete
directed graph including self-loops. Samples never share edges: node ids are
offset by the prefix sum of the preceding sample lengths, and padding gets
no node at all. The GAT itself runs as dense attention over the padded
batch with a key-padding bias; this edge list only orders the per-edge
weights that :func:`graphfuse.gat.edge_alpha` reports, and serves the test
oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError


@dataclass(frozen=True)
class EdgeIndex:
    """Flat directed edge list: messages flow sources[e] -> targets[e]."""

    sources: np.ndarray  # (E,) int64
    targets: np.ndarray  # (E,) int64
    node_count: int

    def __post_init__(self):
        if self.sources.shape != self.targets.shape:
            raise ContractError(
                f"sources {self.sources.shape} vs targets {self.targets.shape}")
        if self.sources.size and (
                min(self.sources.min(), self.targets.min()) < 0
                or max(self.sources.max(), self.targets.max()) >= self.node_count):
            raise ContractError(
                f"edge endpoints escape [0, {self.node_count})")

    @property
    def edge_count(self) -> int:
        return int(self.sources.size)


def build_fully_connected(lengths: list[int]) -> EdgeIndex:
    """Complete self-looped graph per sample, node ids offset by prefix sums.

    Edge order is source-major within each sample (deterministic for golden
    tests): for a sample at offset o with n tokens the edges are
    (o+0,o+0), (o+0,o+1), ..., (o+0,o+n-1), (o+1,o+0), ...
    """
    if not lengths:
        raise ContractError("at least one sample required")
    srcs: list[np.ndarray] = []
    tgts: list[np.ndarray] = []
    offset = 0
    for n in lengths:
        if n < 1:
            raise ContractError(f"zero-length sample (lengths={lengths})")
        ids = np.arange(offset, offset + n, dtype=np.int64)
        srcs.append(np.repeat(ids, n))
        tgts.append(np.tile(ids, n))
        offset += n
    return EdgeIndex(np.concatenate(srcs), np.concatenate(tgts), offset)
