"""RngState tests: Bernoulli draws from raw words are the uniform-draw rule."""

import numpy as np
import pytest

from graphfuse.errors import ContractError
from graphfuse.rng import RngState


def _uniform_rule(seed, p, shape):
    """``uniform(0, 1) < p`` and the draw after it, from a fresh stream."""
    rng = RngState(seed)
    return rng.uniform(0.0, 1.0, shape) < p, rng.uniform(0.0, 1.0, (7,))


@pytest.mark.parametrize("shape", [(), (16, 12, 32)])
@pytest.mark.parametrize("p", [0.1, 0.5, 2.0 ** -53, 1.0 - 2.0 ** -53, 0.0, 1.0])
def test_bernoulli_bitwise_equals_uniform_rule(p, shape):
    for seed in range(4):
        want, want_next = _uniform_rule(seed, p, shape)
        rng = RngState(seed)
        got = rng.bernoulli(p, shape)
        assert type(got) is type(want) and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert rng.uniform(0.0, 1.0, (7,)).tobytes() == want_next.tobytes()


def test_bernoulli_at_the_drawn_values():
    """At p = u for a drawn u the draw is False; one ulp above u it is True.

    A word whose low 11 bits are zero sits exactly on its threshold, so a
    threshold rounded down or a ``<=`` comparison shows there.
    """
    n = 8192
    raw = np.random.Philox(np.random.SeedSequence(9)).random_raw(n)
    draws = RngState(9).uniform(0.0, 1.0, (n,))
    # the premise of the rule: a uniform draw is (w >> 11)·2⁻⁵³
    assert draws.tobytes() == ((raw >> 11) * 2.0 ** -53).tobytes()
    on_threshold = np.flatnonzero(raw % 2048 == 0)
    assert on_threshold.size
    for u in draws[[*on_threshold[:4], 0, 1]]:
        for p in (u, np.nextafter(u, 1.0)):
            want, _ = _uniform_rule(9, p, (n,))
            assert RngState(9).bernoulli(p, (n,)).tobytes() == want.tobytes()


def test_bernoulli_rejects_a_probability_outside_the_unit_interval():
    for p in (-0.1, 1.5, float("nan")):
        with pytest.raises(ContractError):
            RngState(0).bernoulli(p, (3,))
