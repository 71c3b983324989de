"""Deterministic random state.

Every stochastic operation in the package takes an explicit :class:`RngState`;
nothing reads global RNG state. Identical seed + identical call sequence gives
an identical sample sequence, which is what the reproducibility guarantees of
the trainer are built on.

Streams are derived with :meth:`RngState.split`, so independent consumers
(init / shuffling / dropout) cannot perturb each other by drawing in a
different order.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError


class RngState:
    """A named, splittable wrapper around a counter-based bit generator
    (Philox4x64)."""

    __slots__ = ("seed", "_seq", "_gen")

    def __init__(self, seed: int, _seq: np.random.SeedSequence | None = None):
        self.seed = int(seed)
        self._seq = np.random.SeedSequence(self.seed) if _seq is None else _seq
        self._gen = np.random.Generator(np.random.Philox(self._seq))

    def split(self) -> "RngState":
        """Derive an independent child stream (deterministic in call order)."""
        return RngState(self.seed, self._seq.spawn(1)[0])

    # -- sampling ---------------------------------------------------------

    def uniform(self, low: float, high: float, shape=()) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def normal(self, shape=(), std: float = 1.0) -> np.ndarray:
        return self._gen.normal(0.0, std, size=shape)

    def integers(self, low: int, high: int, shape=()) -> np.ndarray:
        """Samples from [low, high) like range()."""
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice(self, n: int, size: int, replace: bool = True) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=replace)

    def bernoulli(self, p: float, shape=()) -> np.ndarray:
        """Boolean samples, True with probability p: exactly ``uniform(0, 1) < p``.

        A uniform draw is k·2⁻⁵³, where k is the top 53 bits of one raw
        64-bit word w. So ``u < p`` holds iff ``k < ceil(p·2⁵³)``, that is iff
        ``w < ceil(p·2⁵³)·2¹¹``. The mask and the stream position afterwards
        are those of the uniform draw, without the conversion to floats.
        """
        if not 0.0 <= p <= 1.0:
            raise ContractError(f"bernoulli probability must lie in [0,1], got {p}")
        raw = self._gen.bit_generator.random_raw(shape)
        return raw < (math.ceil(p * 2**53) << 11)

    def __repr__(self) -> str:
        return f"RngState(seed={self.seed})"
