"""Tensor-core tests. Gradient expectations come from tests/oracles.py."""

import pathlib
import re
import threading

import numpy as np
import pytest

from graphfuse import tensor as T
from graphfuse.errors import (ContractError, DegenerateBatchError,
                              ShapeMismatchError)
from graphfuse.layers import Dropout, apply_dropout
from graphfuse.rng import RngState
from graphfuse.tensor import Tensor

from helpers import attention_maps, length_mask, total
from oracles import (finite_difference, leaky_relu, masked_softmax,
                     max_rel_err, scatter_add_rows_reference)


class TestLinear:
    @pytest.mark.parametrize("x_shape", [(4, 5), (2, 3, 5)])
    def test_forward_matches_matmul_plus_bias(self, x_shape):
        rng = RngState(2)
        x, w, b = rng.normal(x_shape), rng.normal((5, 3)), rng.normal((3,))
        got = T.linear(Tensor(x), Tensor(w), Tensor(b)).data
        want = np.matmul(x, w) + b
        assert got.shape == want.shape == (*x_shape[:-1], 3)
        assert max_rel_err(got, want) < 1e-12

    @pytest.mark.parametrize("x_shape", [(4, 5), (2, 3, 5)])
    def test_grads_match_finite_differences(self, x_shape):
        rng = RngState(4)
        x = Tensor(rng.normal(x_shape), requires_grad=True)
        w = Tensor(rng.normal((5, 3)), requires_grad=True)
        b = Tensor(rng.normal((3,)), requires_grad=True)
        weights = rng.normal((*x_shape[:-1], 3))
        total(T.linear(x, w, b) * Tensor(weights)).backward()
        fd = finite_difference(
            lambda: float(((x.data @ w.data + b.data) * weights).sum()),
            [x.data, w.data, b.data])
        for got, want in zip((x.grad, w.grad, b.grad), fd):
            assert max_rel_err(got, want) < 1e-6

    def test_constant_input_gets_no_gradient(self):
        x = Tensor(np.ones((2, 3, 4)))
        w = Tensor(np.ones((4, 2)), requires_grad=True)
        b = Tensor(np.zeros(2), requires_grad=True)
        out = T.linear(x, w, b)
        assert out._backward_fn(np.ones((2, 3, 2)))[0] is None

    def test_shape_errors_name_the_shapes(self):
        with pytest.raises(ShapeMismatchError) as e:
            T.linear(Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 2))),
                     Tensor(np.zeros(2)))
        assert "(2, 4)" in str(e.value) and "(3, 2)" in str(e.value)
        with pytest.raises(ShapeMismatchError):
            T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))),
                     Tensor(np.zeros(3)))


# Real keys per sample, of n_k = 5; in sample 1 the only real key is the first.
LENGTHS = [3, 1]
# an inverted-dropout mask over the (B, h, n, n) = (2, 3, 5, 5) GAT map
KEEP = Dropout(0.3, RngState(21)).keep((2, 3, 5, 5))
FUSED_OPS = ["attention", "graph_attention", "graph_attention_keep"]


def at_keys(arr, axis, real=False):
    """The entries of ``arr`` at LENGTHS' pad (or real) keys along ``axis``."""
    mask = length_mask(LENGTHS, 5)
    return np.moveaxis(arr, axis, 1)[mask if real else ~mask]


def heads(x, h=3):
    """(B, n, h·dh) -> the head-major (B, h, n, dh) layout."""
    B, n, d = x.shape
    return x.reshape(B, n, h, d // h).transpose(0, 2, 1, 3)


def merged(x):
    """(B, h, n, dh) -> (B, n, h·dh), the heads side by side."""
    B, h, n, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(B, n, h * dh)


def scores(q, k):
    """Head-major attention scores, q scaled by 1/√dh as ``T.attention`` does."""
    scaled = heads(q) * (1.0 / np.sqrt(q.shape[-1] // 3))
    return scaled @ heads(k).transpose(0, 1, 3, 2)


def fused_inputs(op, rng):
    """The float inputs of one fused op: (q, k, v) or (h, w, a_dst, a_src)."""
    if op == "attention":
        return [rng.normal((2, 4, 6)), rng.normal((2, 5, 6)), rng.normal((2, 5, 6))]
    return [rng.normal((2, 5, 4)), rng.normal((3, 4, 2)), rng.normal((3, 2)),
            rng.normal((3, 2))]


def fused_op(op, *inputs):
    if op == "attention":
        return T.attention(*inputs, LENGTHS, 3)
    keep = KEEP if op == "graph_attention_keep" else None
    return T.graph_attention(*inputs, LENGTHS, keep)


def projected(h, w, a_dst, a_src):
    """The GAT's head-major W h and its (B, heads, n) score halves, composed
    as W h and its dot products with a_dst and a_src."""
    wh = np.matmul(h[:, None], w)
    return wh, (wh * a_dst[:, None]).sum(-1), (wh * a_src[:, None]).sum(-1)


def oracle(op, inputs):
    """The op's weights by the unfused composition, its forward reference,
    and its head-major values."""
    if op == "attention":
        q, k, v = inputs
        return masked_softmax(scores(q, k), length_mask(LENGTHS, 5)), heads(v)
    wh, s_dst, s_src = projected(*inputs)
    logits = leaky_relu(s_dst[..., None] + s_src[..., None, :])
    return masked_softmax(logits, length_mask(LENGTHS, 5)), wh


def from_score_halves(s_dst, s_src, v):
    """``T.graph_attention`` inputs whose score halves are ``s_dst`` and
    ``s_src`` and whose values carry ``v``, all (B, heads, n).

    Head k projects token j to [s_src, s_dst, v]: ``w`` picks three columns
    of h per head, ``a_src`` is e0 and ``a_dst`` e1. Each score half is that
    entry plus zeros, so it is exact, but for the sign of a zero: numpy's
    matmul and sum start from +0.0, so -0.0 lands as +0.0. With an upstream
    gradient on the v columns only, the value gradient of the other two
    columns is zero, and h's gradient in head k's s_src and s_dst columns is
    exactly each score half's gradient.
    """
    B, n_heads, n = s_dst.shape
    h = np.stack([s_src, s_dst, v], axis=-1).transpose(0, 2, 1, 3)
    w = np.eye(3 * n_heads).reshape(3 * n_heads, n_heads, 3).transpose(1, 0, 2)
    a_dst = np.tile([0.0, 1.0, 0.0], (n_heads, 1))
    a_src = np.tile([1.0, 0.0, 0.0], (n_heads, 1))
    return h.reshape(B, n, 3 * n_heads), w, a_dst, a_src


def score_grads(h):
    """The score halves' gradients (s_dst, s_src) that ``from_score_halves``
    routes into ``h.grad``."""
    g = heads(h.grad, h.grad.shape[-1] // 3)
    return g[..., 1], g[..., 0]


def kept(node, name):
    """The value that ``node``'s backward closure keeps under ``name``."""
    fn = node._backward_fn
    return fn.__closure__[fn.__code__.co_freevars.index(name)].cell_contents


def value_grad_only(g):
    """(B, n, heads·3) upstream ``g`` zeroed outside the v columns."""
    out = np.zeros_like(g)
    out[..., 2::3] = g[..., 2::3]
    return out


class TestSoftmax:
    """The composed masked softmax (the fused ops' forward reference) and the
    softmax inside ``T.attention``."""

    def test_uniform(self):
        out = masked_softmax(np.array([[0.0, 0.0, 0.0]]), length_mask([3], 3))
        np.testing.assert_allclose(out, [[1 / 3] * 3], atol=1e-15)
        # q = 0 gives every real key the same weight
        v = RngState(1).normal((2, 5, 6))
        with attention_maps() as weights:
            T.attention(np.zeros((2, 4, 6)), np.ones((2, 5, 6)), v, LENGTHS, 3)
        np.testing.assert_allclose(weights[0][0, ..., :3], 1 / 3, atol=1e-15)
        assert (weights[0][1, ..., 0] == 1.0).all()

    def test_shift_invariance(self):
        x = np.array([[0.3, 1.3, 2.3]])
        a = masked_softmax(x, length_mask([3], 3))
        b = masked_softmax(x + 50.0, length_mask([3], 3))
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_against_scalar_reference(self):
        x = np.array([[1.0, 2.0, 3.0]])
        want = np.exp(x) / np.exp(x).sum()
        np.testing.assert_allclose(masked_softmax(x, length_mask([3], 3)),
                                   want, rtol=1e-12)

    def test_rows_sum_to_one(self):
        rng = RngState(2)
        q, k, v = fused_inputs("attention", rng)
        with attention_maps() as weights:
            T.attention(q * 30.0, k, v, [5, 5], 3)
        np.testing.assert_allclose(weights[0].sum(axis=-1), 1.0, atol=1e-9)
        assert (weights[0] > 0).all()

    def test_grad_matches_finite_differences(self):
        rng = RngState(3)
        arrays = fused_inputs("attention", rng)
        w = rng.normal((2, 4, 6))  # fixed projection so the loss is non-trivial
        q, k, v = (Tensor(a, requires_grad=True) for a in arrays)

        total(T.attention(q, k, v, [5, 5], 3) * w).backward()

        def ref():
            return float((T.attention(*arrays, [5, 5], 3).data * w).sum())

        fd = finite_difference(ref, arrays)
        for t, want in zip((q, k, v), fd):
            assert max_rel_err(t.grad, want) < 1e-6

    def test_key_mask_bitwise_equals_added_bias(self):
        rng = RngState(16)
        q, k, v = fused_inputs("attention", rng)
        q *= 3.0
        mask = length_mask(LENGTHS, 5)
        bias = np.where(mask, 0.0, T.MASK_NEG)[:, None, None, :]
        with attention_maps() as weights:
            out = T.attention(q, k, v, LENGTHS, 3)
        want = masked_softmax(scores(q, k) + bias, length_mask([5, 5], 5))
        assert masked_softmax(scores(q, k), mask).tobytes() == want.tobytes()
        assert np.abs(weights[0] - want).max() <= 1e-15 * np.abs(want).max()
        mixed = merged(want @ heads(v))
        assert np.abs(out.data - mixed).max() <= 1e-15 * np.abs(mixed).max()
        assert (weights[0][1, :, :, 1:] == 0.0).all()
        assert (weights[0][1, :, :, 0] == 1.0).all()

    def test_key_mask_shape_checked(self):
        q, k, v = fused_inputs("attention", RngState(0))
        # each op needs one length per sample
        with pytest.raises(ShapeMismatchError, match="B lengths"):
            T.attention(q, k, v, [5, 5, 5], 3)
        with pytest.raises(ShapeMismatchError):
            T.attention(q[0], k[0], v[0], [5, 5, 5], 3)
        with pytest.raises(ShapeMismatchError, match="multiple of 4 heads"):
            T.attention(q, k, v, LENGTHS, 4)
        with pytest.raises(ShapeMismatchError):
            T.attention(q, k, v[:, :4], LENGTHS, 3)
        with pytest.raises(ShapeMismatchError, match="1 lengths"):
            T.attention(q, k, v, LENGTHS[:1], 3)
        h, w, a_dst, a_src = fused_inputs("graph_attention", RngState(0))
        with pytest.raises(ShapeMismatchError, match="B lengths"):
            T.graph_attention(h, w, a_dst, a_src, [5, 5, 5], None)
        with pytest.raises(ShapeMismatchError, match="1 lengths"):
            T.graph_attention(h, w, a_dst, a_src, LENGTHS[:1], None)
        with pytest.raises(ShapeMismatchError):
            T.graph_attention(h, w[:, :3], a_dst, a_src, LENGTHS, None)
        with pytest.raises(ShapeMismatchError):
            T.graph_attention(h[0], w, a_dst, a_src, LENGTHS, None)
        with pytest.raises(ShapeMismatchError):
            T.graph_attention(h, w, a_dst[:, :1], a_src, LENGTHS, None)
        with pytest.raises(ShapeMismatchError):
            T.graph_attention(h, w, a_dst, a_src[:2], LENGTHS, None)


class TestRowMaxAndLogitProduct:
    """The exact shortcuts inside the fused ops: the row max read at the
    argmax, and the GAT backward's logits s_dst_i + src_j as one rank-2
    product."""

    @pytest.mark.parametrize("shape", [(8, 5), (3, 6, 5), (2, 3, 6, 5),
                                       (8, 1), (2, 4, 1)])
    def test_row_max_equals_max(self, shape):
        rng = RngState(22)
        a = rng.normal(shape).reshape(-1, shape[-1])
        specials = [[-0.0, 0.0, -0.0, 0.0, -1.0], [0.0, -0.0, -3.0, 0.0, -0.0],
                    [2.0, -1.0, 2.0, 2.0, 0.5], [np.inf, 1.0, -np.inf, 0.0, 2.0],
                    [-np.inf] * 5, [1.0, np.nan, 3.0, np.nan, 0.0],
                    [T.MASK_NEG] * 5, [0.25, T.MASK_NEG, 0.25, T.MASK_NEG, 3.0]]
        for row, values in zip(a, specials):  # ties, ±0.0, ±inf, NaN, pads
            row[:] = values[:shape[-1]]
        a = a.reshape(shape)
        m = T._row_max(a)
        want = a.max(axis=-1, keepdims=True)
        np.testing.assert_array_equal(m, want)
        with np.errstate(invalid="ignore"):
            assert np.exp(a - m).tobytes() == np.exp(a - want).tobytes()

    @pytest.mark.parametrize("shape", [(2, 3, 7), (16, 8, 36), (2, 2, 128)])
    def test_logit_product_is_the_pairwise_sum(self, shape):
        """``[s_dst, 1] @ [1; src]`` equals the broadcast sum bitwise but for
        the sign of an exact zero, and its ``< 0`` map is exactly the sign
        compare ``s_dst_i < -src_j``: each entry is s·1 + 1·src, products
        that are exact, rounded once."""
        rng = RngState(23)
        B, heads, n = shape
        lhs = np.ones((B, heads, n, 2))
        rhs = np.ones((B, heads, 2, n))
        s_dst, src = lhs[..., 0], rhs[..., 1, :]
        s_dst[...] = rng.normal(shape)
        src[...] = rng.normal(shape)
        edge = [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324]
        s_dst[..., :6] = edge
        src[..., :6] = edge[::-1]
        src[..., 6] = -s_dst[..., 6]      # exact cancellations
        for b in range(B):
            src[b, :, n - 1 - b % 3:] = T.MASK_NEG
        product = np.matmul(lhs, rhs)
        pairwise = s_dst[..., None] + src[..., None, :]
        assert (pairwise == 0.0).any() and (pairwise == T.MASK_NEG).any()
        assert (product + 0.0).tobytes() == (pairwise + 0.0).tobytes()
        np.testing.assert_array_equal(product < 0,
                                      s_dst[..., None] < -src[..., None, :])


class TestFactorisedGatWeights:
    """``T.graph_attention`` builds its unnormalised weights as
    max(a_i b_j, c_i d_j) from per-node exponentials, each in [0, 1]."""

    SPECIAL = [0.0, -0.0, 1e-300, -1e-300]

    @pytest.mark.parametrize("big", [[], [700.0], [1e4], [700.0, 1e4]])
    def test_extreme_score_halves_match_the_oracle(self, big):
        # every score half is one of these values, so the oracle's sums are
        # exact or absorbed and it rounds no worse than the op
        values = np.array(self.SPECIAL + [x * sign for x in big for sign in (1, -1)])
        n, lengths = len(values), [len(values), len(values) - 2, 1]
        rng = RngState(24)
        s_dst, s_src = (values[np.stack([[rng.permutation(n) for _ in range(3)]
                                         for _ in lengths])] for _ in range(2))
        h, w, a_dst, a_src = from_score_halves(s_dst, s_src, rng.normal((3, 3, n)))
        with attention_maps() as weights:
            out = T.graph_attention(Tensor(h, requires_grad=True), w, a_dst,
                                    a_src, lengths, None)
        logits = leaky_relu(s_dst[..., None] + s_src[..., None, :])
        want = masked_softmax(logits, length_mask(lengths, n))
        assert np.abs(weights[0] - want).max() <= 1e-15 * np.abs(want).max()
        if big:
            real = np.where(length_mask(lengths, n)[:, None, None], logits, -np.inf)
            assert (real - real.max(axis=-1, keepdims=True) < -745).any()
        for b, length in enumerate(lengths):
            assert (weights[0][b, ..., length:] == 0.0).all()
        assert (weights[0][2, ..., 0] == 1.0).all()
        e = kept(out, "e")
        np.testing.assert_array_equal(e.max(axis=-1), 1.0)
        assert ((0.0 <= e) & (e <= 1.0)).all()

    @pytest.mark.parametrize("keep", [None, KEEP])
    def test_zero_length_sample_gives_finite_outputs(self, keep):
        arrays = fused_inputs("graph_attention", RngState(25))
        tensors = [Tensor(a, requires_grad=True) for a in arrays]
        out = T.graph_attention(*tensors, [3, 0], keep)
        assert np.isfinite(out.data).all()
        total(out * RngState(26).normal(out.shape)).backward()
        assert all(np.isfinite(t.grad).all() for t in tensors)


class TestFusedAttention:
    @pytest.mark.parametrize("op", FUSED_OPS)
    def test_forward_equals_oracle_composition(self, op):
        inputs = fused_inputs(op, RngState(22))
        with attention_maps() as weights:
            out = fused_op(op, *(Tensor(a, requires_grad=True) for a in inputs))
        want, values = oracle(op, inputs)
        assert np.abs(weights[0] - want).max() <= 1e-15 * np.abs(want).max()
        # the unnormalised weight at the sample's first key is 1 in attention,
        # and each row's largest one in the GAT, so Z is 1 / that weight
        anchor = want[..., :1] if op == "attention" else want.max(-1, keepdims=True)
        z, z_want = kept(out, "z"), 1.0 / anchor
        assert np.abs(z - z_want).max() <= 1e-15 * z_want.max()
        dropped = want * KEEP if op == "graph_attention_keep" else want
        mixed = merged(dropped @ values)
        assert np.abs(out.data - mixed).max() <= 1e-15 * np.abs(mixed).max()

    @pytest.mark.parametrize("op", FUSED_OPS)
    def test_pad_keys_get_exactly_zero_weight(self, op):
        inputs = fused_inputs(op, RngState(23))
        # large scores and values at pads must not leak into the output: the
        # pad keys and values of attention, the pad tokens' features of the GAT
        for x in (inputs[1:] if op == "attention" else inputs[:1]):
            x[~length_mask(LENGTHS, 5)] = 1e6
        with attention_maps() as weights:
            out = fused_op(op, *inputs)
        assert (at_keys(weights[0], -1) == 0.0).all()
        assert (weights[0][1, ..., 0] == 1.0).all()
        assert np.abs(out.data).max() < 1e3

    @pytest.mark.parametrize("op", FUSED_OPS)
    def test_grads_match_finite_differences(self, op):
        rng = RngState(27)
        arrays = fused_inputs(op, rng)
        w = rng.normal(fused_op(op, *arrays).shape)
        if op != "attention":
            _, s_dst, s_src = projected(*arrays)
            logits = s_dst[..., None] + s_src[..., None, :]
            # FD steps of 1e-5 must not cross the leaky ReLU's kink
            assert np.abs(at_keys(logits, -1, real=True)).min() > 1e-4
            # a head whose rows each keep one sign gets an exactly zero a_dst
            # gradient (the softmax ignores the shift), which FD resolves only
            # to its noise: batch 0's real rows give each head both signs
            rows = logits[0, :, :3, :3]
            assert ((rows.max(-1) > 0) & (rows.min(-1) < 0)).any(axis=-1).all()
            # no gradient on the pad rows' outputs, as the loss gives none
            w *= length_mask(LENGTHS, 5)[..., None]
        tensors = [Tensor(a, requires_grad=True) for a in arrays]

        total(fused_op(op, *tensors) * w).backward()

        fd = finite_difference(
            lambda: float((fused_op(op, *arrays).data * w).sum()), arrays)
        for t, want in zip(tensors, fd):
            assert max_rel_err(t.grad, want) < 1e-6
        # a pad key's score and value get exactly zero gradient; in the GAT
        # both come from the pad token's features h
        for t in (tensors[1:] if op == "attention" else tensors[:1]):
            assert (at_keys(t.grad, 1) == 0.0).all()


class TestAttentionShift:
    """``T.attention`` shifts each row by its score at the sample's first key
    and runs the row max only when dh·max|q|·max|k − k_0| passes EXP_SAFE."""

    @pytest.mark.parametrize("peak", [290.0, 1e3, 1e5])
    def test_scores_near_and_past_exp_safe_match_the_oracle(self, peak):
        q, k, v = fused_inputs("attention", RngState(28))
        # entries ±a in q and ±1 in k, and a zero first key: each score
        # q_i·(k_j − k_0) over dh = 2 is 0 or ±peak, the bound itself
        dh = 2
        q, k = np.sign(q) * (peak / np.sqrt(dh)), np.sign(k)
        k[:, 0] = 0.0
        with attention_maps() as weights:
            out = T.attention(Tensor(q, requires_grad=True), k, v, LENGTHS, 3)
        s = scores(q, k)
        assert s.max() == pytest.approx(peak, rel=1e-12) == -s.min()
        # below EXP_SAFE no row max runs: E reaches exp(peak); above it, the
        # row max shift caps E at 1
        e = kept(out, "e")
        assert e.max() == (pytest.approx(np.exp(peak)) if peak < T.EXP_SAFE else 1.0)
        want = masked_softmax(s, length_mask(LENGTHS, 5))
        assert np.abs(weights[0] - want).max() <= 1e-15 * np.abs(want).max()
        mixed = merged(want @ heads(v))
        assert np.abs(out.data - mixed).max() <= 1e-15 * np.abs(mixed).max()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_bound_takes_the_row_max(self, bad):
        q, k, v = fused_inputs("attention", RngState(29))
        row_peaks = []
        for value in (k[0, 2, 0], bad):  # a finite bound, then NaN or inf
            k[0, 2, 0] = value
            with np.errstate(invalid="ignore"):
                out = T.attention(Tensor(q, requires_grad=True), k, v, [5, 5], 3)
            assert np.isfinite(out.data[1]).all()
            row_peaks.append(kept(out, "e")[1].max(-1))
        # sample 1 is finite either way; only the row max makes each of its
        # rows peak at exactly 1
        assert (row_peaks[0] > 1.0).any()
        np.testing.assert_array_equal(row_peaks[1], 1.0)

    def test_zero_length_sample_gets_uniform_weights(self):
        rng = RngState(30)
        arrays = [rng.normal((3, 4, 6)), rng.normal((3, 5, 6)), rng.normal((3, 5, 6))]
        w = rng.normal((3, 4, 6))
        runs = []
        for pick, lengths in (([0, 1, 2], [3, 0, 5]), ([0, 2], [3, 5])):
            tensors = [Tensor(a[pick], requires_grad=True) for a in arrays]
            with attention_maps() as weights:
                out = T.attention(*tensors, lengths, 3)
            total(out * w[pick]).backward()
            runs.append([out.data, weights[0]] + [t.grad for t in tensors])
        assert (runs[0][1][1] == 0.2).all()
        for with_empty, without in zip(*runs):
            assert with_empty[[0, 2]].tobytes() == without.tobytes()


class TestPointwise:
    def test_leaky_relu_values(self):
        out = leaky_relu(np.array([0.0, -1.0, 2.0]))
        np.testing.assert_allclose(out, [0.0, -0.2, 2.0])

    def test_leaky_relu_bitwise_equals_where(self):
        slope = T.LEAKY_RELU_SLOPE
        x = np.array([-3.5, -1e-300, -0.0, 0.0, 1e-300, 2.25, -7.0])
        want = np.where(x >= 0, x, slope * x)
        assert leaky_relu(x).tobytes() == want.tobytes()  # -0.0 keeps its sign bit
        # inside graph_attention: the score halves are 0.0 and x, and
        # 0.0 + x is x bitwise, so every row of logits is x itself (x's -0.0
        # lands as +0.0, which gets the same weight and the same factor)
        rng = RngState(18)
        h, w, a_dst, a_src = from_score_halves(
            np.zeros((1, 1, 7)), x.reshape(1, 1, 7), rng.normal((1, 1, 7)))
        _, s_dst, s_src = projected(h, w, a_dst, a_src)
        np.testing.assert_array_equal(s_dst, 0.0)
        np.testing.assert_array_equal(s_src[0, 0], x)
        h = Tensor(h, requires_grad=True)
        g = value_grad_only(rng.normal((1, 7, 3)))
        with attention_maps() as weights:
            out = T.graph_attention(h, w, a_dst, a_src, [7], None)
        y = weights[0]
        # the weights come from per-node exponentials, not from a leaky ReLU
        # of the map, so they round differently
        ref = masked_softmax(np.broadcast_to(want, (1, 1, 7, 7)),
                             length_mask([7], 7))
        assert np.abs(y - ref).max() <= 1e-15 * np.abs(ref).max()
        # the gradient factor is 1.0 at -0.0, 0.0 and 1e-300 and the slope
        # at -1e-300, as in where(x >= 0, 1, slope)
        total(out * g).backward()
        gy = heads(g, 1) @ heads(h.data, 1).transpose(0, 1, 3, 2)
        d_logits = y * (gy - (gy * y).sum(axis=-1, keepdims=True))
        d_x = np.where(x >= 0, 1.0, slope) * d_logits
        g_dst, g_src = score_grads(h)
        np.testing.assert_allclose(g_src, d_x.sum(axis=-2), rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(g_dst, d_x.sum(axis=-1), rtol=1e-12, atol=1e-15)

    def test_leaky_relu_grad_with_dropout_at_edge_values(self):
        # test_leaky_relu_bitwise_equals_where's hand formula, on the dropout
        # path: the factor is 1.0 at -0.0, 0.0 and 1e-300, the slope at -1e-300
        slope = T.LEAKY_RELU_SLOPE
        x = np.array([-3.5, -1e-300, -0.0, 0.0, 1e-300, 2.25, -7.0])
        rng = RngState(19)
        keep = Dropout(0.4, rng).keep((1, 1, 7, 7))
        h, w, a_dst, a_src = from_score_halves(
            np.zeros((1, 1, 7)), x.reshape(1, 1, 7), rng.normal((1, 1, 7)))
        h = Tensor(h, requires_grad=True)
        g = value_grad_only(rng.normal((1, 7, 3)))
        with attention_maps() as weights:
            out = T.graph_attention(h, w, a_dst, a_src, [7], keep)
        total(out * g).backward()
        y = weights[0]
        gy = heads(g, 1) @ heads(h.data, 1).transpose(0, 1, 3, 2) * keep
        d_logits = y * (gy - (gy * y).sum(axis=-1, keepdims=True))
        factor = np.where(x >= 0, 1.0, slope)
        # every row's logits are x, so each column's sum carries its factor
        g_dst, g_src = score_grads(h)
        np.testing.assert_allclose(g_src, factor * d_logits.sum(axis=-2),
                                   rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(g_dst, (factor * d_logits).sum(axis=-1),
                                   rtol=1e-12, atol=1e-15)

    def test_relu_and_elu_factor_bitwise_equal_where(self):
        x = np.array([-0.0, 0.0, -5e-324, 5e-324, -1e-300, 1e-300,
                      -1e308, 1e308, -2.5, 0.75])
        r = Tensor(x, requires_grad=True)
        out = T.relu(r)
        assert out.data.tobytes() == np.where(x > 0, x, 0.0).tobytes()
        total(out).backward()
        assert r.grad.tobytes() == ((x > 0) * 1.0).tobytes()
        t = Tensor(x, requires_grad=True)
        out = T.elu(t)
        total(out).backward()
        # the gradient of a plain sum is the factor itself
        want = np.where(x > 0, 1.0, out.data + 1.0)
        assert t.grad.tobytes() == want.tobytes()

    def test_leaky_relu_grad_at_minus_two(self):
        # every logit lies near -2, so each score's gradient is the slope
        # times the softmax backward of the logits
        rng = RngState(18)
        h, w, a_dst, a_src = from_score_halves(
            np.full((1, 2, 3), -1.0), -1.0 + rng.uniform(-0.3, 0.3, (1, 2, 3)),
            rng.normal((1, 2, 3)))
        h = Tensor(h, requires_grad=True)
        g = value_grad_only(rng.normal((1, 3, 6)))
        with attention_maps() as weights:
            out = T.graph_attention(h, w, a_dst, a_src, [3], None)
        total(out * g).backward()
        y = weights[0]
        gy = heads(g, 2) @ heads(h.data, 2).transpose(0, 1, 3, 2)
        d_logits = y * (gy - (gy * y).sum(axis=-1, keepdims=True))
        g_dst, g_src = score_grads(h)
        np.testing.assert_allclose(g_src, 0.2 * d_logits.sum(axis=-2),
                                   rtol=1e-12, atol=1e-15)
        # shifting every logit of a row by one amount leaves the row unchanged
        np.testing.assert_allclose(g_dst, 0.0, atol=1e-15)

    def test_elu_matches_definition(self):
        x = np.array([-2.0, -0.5, -0.0, 0.0, 1e-300, 0.7])
        out = T.elu(Tensor(x)).data
        want = np.where(x > 0, x, np.exp(x) - 1.0)
        assert out.tobytes() == want.tobytes()

    def test_elu_grad(self):
        rng = RngState(4)
        x = Tensor(rng.normal((8,)), requires_grad=True)
        total(T.elu(x) * rng.normal((8,))).backward()
        # avoid FD across the kink by construction: no |x| < 1e-3 in sample
        assert np.abs(x.data).min() > 1e-3
        got = x.grad.copy()
        x.grad = None
        fd = finite_difference(
            lambda: float(np.where(x.data > 0, x.data, np.exp(x.data) - 1).sum()),
            [x.data])
        # grad of plain sum:
        total(T.elu(x)).backward()
        assert max_rel_err(x.grad, fd[0]) < 1e-6
        assert got.shape == fd[0].shape


class TestLayerNorm:
    def test_constant_row_maps_to_bias(self):
        x = Tensor(np.full((2, 4), 3.5))
        out = T.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, np.zeros((2, 4)), atol=1e-12)

    def test_output_mean_is_bias(self):
        rng = RngState(5)
        x = Tensor(rng.normal((3, 6)) * 4.0)
        bias = Tensor(np.full(6, 0.25))
        out = T.layer_norm(x, Tensor(np.ones(6)), bias)
        np.testing.assert_allclose(out.data.mean(axis=-1), np.full(3, 0.25),
                                   atol=1e-6)

    def test_grads_match_finite_differences(self):
        rng = RngState(6)
        x = Tensor(rng.normal((2, 4)), requires_grad=True)
        gain = Tensor(rng.uniform(0.5, 1.5, (4,)), requires_grad=True)
        bias = Tensor(rng.normal((4,)), requires_grad=True)
        w = rng.normal((2, 4))

        total(T.layer_norm(x, gain, bias) * w).backward()

        def ref():
            mu = x.data.mean(-1, keepdims=True)
            var = x.data.var(-1, keepdims=True)
            xh = (x.data - mu) / np.sqrt(var + T.LAYER_NORM_EPS)
            return ((xh * gain.data + bias.data) * w).sum()

        fd = finite_difference(ref, [x.data, gain.data, bias.data])
        assert max_rel_err(x.grad, fd[0]) < 1e-5
        assert max_rel_err(gain.grad, fd[1]) < 1e-5
        assert max_rel_err(bias.grad, fd[2]) < 1e-5

    @pytest.mark.parametrize("d", [1, 32, 256])
    def test_moments_as_products_match_the_composed_form(self, d):
        rng = RngState(31)
        x = rng.normal((3, 7, d)) * 4.0 + 1.5
        gain, bias = rng.uniform(0.5, 1.5, (d,)), rng.normal((d,))
        got = T.layer_norm(Tensor(x), Tensor(gain), Tensor(bias)).data
        mu = x.mean(-1, keepdims=True)
        var = ((x - mu) ** 2).mean(-1, keepdims=True)
        want = (x - mu) / np.sqrt(var + T.LAYER_NORM_EPS) * gain + bias
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    def test_affine_shape_check(self):
        with pytest.raises(ShapeMismatchError):
            T.layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(3)),
                         Tensor(np.zeros(4)))


class TestDropoutMask:
    def test_p_zero_is_ones(self):
        m = Dropout(0.0, RngState(0)).keep((5, 5))
        np.testing.assert_array_equal(m, np.ones((5, 5)))

    def test_eval_mode_is_ones(self):
        # eval mode passes no Dropout: apply_dropout hands back its input
        x = Tensor(np.ones((5, 5)))
        assert apply_dropout(x, None) is x

    def test_keep_rate(self):
        m = Dropout(0.3, RngState(7)).keep((100_000,))
        keep = float((m > 0).mean())
        assert abs(keep - 0.7) < 0.01
        # inverted scaling: surviving entries are 1/(1-p)
        np.testing.assert_allclose(np.unique(m), [0.0, 1.0 / 0.7])

    def test_mask_is_scaled_keep_indicator(self):
        m = Dropout(0.3, RngState(11)).keep((64,))
        keep = RngState(11).uniform(0.0, 1.0, (64,)) >= 0.3
        assert m.tobytes() == (keep.astype(np.float64) / 0.7).tobytes()

    def test_deterministic_given_seed(self):
        a = Dropout(0.5, RngState(11)).keep((64,))
        b = Dropout(0.5, RngState(11)).keep((64,))
        assert a.tobytes() == b.tobytes()


class TestBackwardEngine:
    def test_sum_grad_is_ones(self):
        t = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        total(t).backward()
        np.testing.assert_array_equal(t.grad, np.ones((2, 3)))

    def test_sum_of_squares(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        total(t * t).backward()
        np.testing.assert_allclose(t.grad, [2.0, 4.0])

    def test_shared_subexpression_dag(self):
        # y = x*x reused twice: loss = sum(y + y*c); FD is the authority
        rng = RngState(8)
        x = Tensor(rng.normal((3, 3)), requires_grad=True)
        c = rng.normal((3, 3))
        y = x * x
        loss = total(y + y * c)
        loss.backward()
        fd = finite_difference(lambda: (x.data ** 2 * (1 + c)).sum(), [x.data])
        assert max_rel_err(x.grad, fd[0]) < 1e-6

    def test_each_node_visited_once(self):
        # diamond: two paths from x to the loss; grad must not double count
        x = Tensor([2.0], requires_grad=True)
        a = x * 3.0
        b = x * 4.0
        total(a * b).backward()  # d/dx (12 x^2) = 24 x = 48
        np.testing.assert_allclose(x.grad, [48.0])

    def test_accumulation_across_calls(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        total(x * x).backward()
        first = x.grad.copy()
        total(x * x).backward()
        np.testing.assert_allclose(x.grad, 2 * first)
        x.grad = None  # a standalone leaf starts again from None
        total(x * x).backward()
        assert x.grad.tobytes() == first.tobytes()

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            (x * 2.0).backward()

    def test_no_grad_suppresses_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with T.no_grad():
            y = total(x * 2.0)
        assert not y.requires_grad
        with pytest.raises(ContractError):
            y.backward()

    def test_interleaved_no_grad_in_threads_leaves_grad_on(self):
        # forces A enters, B enters, A exits, B exits: with one process-wide
        # flag, B's exit would restore the "off" it saw on entry
        barrier = threading.Barrier(2, timeout=10)

        def thread_a():
            with T.no_grad():
                barrier.wait()  # A in
                barrier.wait()  # B in
            barrier.wait()      # A out

        def thread_b():
            barrier.wait()
            with T.no_grad():
                barrier.wait()
                barrier.wait()

        threads = [threading.Thread(target=f) for f in (thread_a, thread_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert not barrier.broken
        x = Tensor([1.0], requires_grad=True)
        assert (x * 2.0).requires_grad

    def test_broadcast_add_grads(self):
        rng = RngState(9)
        a = Tensor(rng.normal((4, 5)), requires_grad=True)
        b = Tensor(rng.normal((5,)), requires_grad=True)
        total((a + b) * rng.normal((4, 5))).backward()
        assert a.grad.shape == (4, 5)
        assert b.grad.shape == (5,)

    def test_only_leaves_get_grad_buffers(self):
        rng = RngState(14)
        x = Tensor(rng.normal((3, 4)), requires_grad=True)
        w = Tensor(rng.normal((4, 2)), requires_grad=True)
        b = Tensor(np.zeros(2))
        c = Tensor(rng.normal((3, 2)))
        y = T.linear(x, w, b)
        z = y * c
        loss = total(z * z)
        loss.backward()
        for node in (y, z, loss):
            assert node.grad is None
        assert b.grad is None and c.grad is None
        fd = finite_difference(
            lambda: (((x.data @ w.data) * c.data) ** 2).sum(), [x.data, w.data])
        assert max_rel_err(x.grad, fd[0]) < 1e-6
        assert max_rel_err(w.grad, fd[1]) < 1e-6

    @pytest.mark.parametrize("op", ["softmax", "masked_softmax", "leaky_relu",
                                    "leaky_relu_dropout", "elu"])
    def test_gradient_shared_by_add_stays_intact(self, op):
        # add hands one array to both parents: op(z) must not write into it
        # before z (the op's own input) has read its pending share. The
        # softmax and leaky-ReLU backwards run inside the fused attention ops.
        rng = RngState(17)
        x = Tensor(rng.normal((2, 5, 6)), requires_grad=True)
        w = rng.normal((2, 5, 6))
        gat = [rng.normal(shape) for shape in ((3, 6, 2), (3, 2), (3, 2))]

        def attend(z, lengths):
            return T.attention(z, z, z, lengths, 3)

        def graph(z, keep):
            return T.graph_attention(z, *gat, LENGTHS, keep)

        fns = {"softmax": lambda z: attend(z, [5, 5]),
               "masked_softmax": lambda z: attend(z, LENGTHS),
               "leaky_relu": lambda z: graph(z, None),
               "leaky_relu_dropout": lambda z: graph(z, KEEP),
               "elu": lambda z: T.elu(z)}
        fn = fns[op]
        z = x * 2.0
        total(T.add(fn(z), z) * w).backward()

        def ref():
            z = Tensor(x.data * 2.0)
            return float(((fn(z).data + z.data) * w).sum())

        fd = finite_difference(ref, [x.data])
        assert max_rel_err(x.grad, fd[0]) < 1e-6

    @pytest.mark.parametrize("const_slot", [0, 1])
    @pytest.mark.parametrize("op", ["add", "mul"])
    def test_constant_operand_gets_no_gradient(self, op, const_slot):
        rng = RngState(15)
        shapes = ((3, 4), (4,))
        data = [rng.uniform(0.5, 2.0, s) for s in shapes]
        g = np.ones((3, 4))
        both = getattr(T, op)(*(Tensor(d, requires_grad=True) for d in data))
        want = both._backward_fn(g)
        operands = [Tensor(d, requires_grad=i != const_slot)
                    for i, d in enumerate(data)]
        got = getattr(T, op)(*operands)._backward_fn(g)
        assert got[const_slot] is None
        live = 1 - const_slot
        assert got[live].shape == shapes[live]
        np.testing.assert_array_equal(got[live], want[live])


class TestGatherScatter:
    def test_gather_rows_forward(self):
        x = Tensor(np.arange(12.0).reshape(4, 3))
        out = T.gather_rows(x, [2, 0, 2])
        np.testing.assert_array_equal(out.data, x.data[[2, 0, 2]])

    def test_gather_rows_grad_accumulates_repeats(self):
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        total(T.gather_rows(x, [2, 0, 2])).backward()
        want = np.zeros((4, 3))
        want[0] = 1.0
        want[2] = 2.0
        np.testing.assert_array_equal(x.grad, want)

    @pytest.mark.parametrize("indices", [
        [3, 0, 3, 3, 1, 0, 3], [], [2], list(range(5)) * 4])
    @pytest.mark.parametrize("row_shape", [(3,), (2, 4)])
    def test_gather_rows_grad_bitwise_equals_per_column_bincount(
            self, indices, row_shape):
        rng = RngState(6)
        x = Tensor(rng.normal((5, *row_shape)), requires_grad=True)
        upstream = rng.normal((len(indices), *row_shape), std=1e3)
        total(T.gather_rows(x, indices) * Tensor(upstream)).backward()
        cols = int(np.prod(row_shape))
        want = scatter_add_rows_reference(
            upstream.reshape(len(indices), cols),
            np.asarray(indices, dtype=np.int64), 5)
        assert x.grad.tobytes() == want.reshape(x.data.shape).tobytes()

    def test_gather_rows_over_a_2d_id_array_is_the_1d_gather(self):
        # the encoder gathers the (B, n) token ids in one call
        rng = RngState(7)
        x = Tensor(rng.normal((6, 3)), requires_grad=True)
        ids = rng.integers(0, 6, (2, 4))
        upstream = rng.normal((2, 4, 3))
        out = T.gather_rows(x, ids)
        flat = T.gather_rows(x, ids.reshape(-1))
        assert out.data.shape == (2, 4, 3)
        assert out.data.tobytes() == flat.data.reshape(2, 4, 3).tobytes()
        total(out * upstream).backward()
        got = x.grad
        x.grad = None
        total(flat * upstream.reshape(8, 3)).backward()
        assert got.tobytes() == x.grad.tobytes()
        with pytest.raises(ContractError):
            T.gather_rows(x, np.array([[0, 1], [6, 2]]))

    def test_gather_rows_bounds(self):
        with pytest.raises(ContractError):
            T.gather_rows(Tensor(np.zeros((3, 2))), [0, 3])


class TestMaskedCrossEntropy:
    def test_uniform_logits_anchor(self):
        # L = 5 classes, uniform logits: the loss must be ln 5
        logits = Tensor(np.zeros((2, 4, 5)), requires_grad=True)
        labels = np.zeros((2, 4), dtype=np.int64)
        loss = T.masked_cross_entropy(logits, labels)
        assert abs(loss.item() - np.log(5.0)) < 1e-9

    def test_ignored_positions_have_exactly_zero_grad(self):
        rng = RngState(12)
        logits = Tensor(rng.normal((2, 3, 4)), requires_grad=True)
        labels = np.array([[0, -100, 2], [-100, 1, -100]])
        T.masked_cross_entropy(logits, labels).backward()
        ignored = labels == -100
        assert np.all(logits.grad[ignored] == 0.0)
        assert np.any(logits.grad[~ignored] != 0.0)

    def test_grad_matches_finite_differences(self):
        rng = RngState(13)
        logits = Tensor(rng.normal((2, 3, 4)), requires_grad=True)
        labels = np.array([[0, -100, 2], [3, 1, -100]])

        T.masked_cross_entropy(logits, labels).backward()

        def ref():
            flat = logits.data.reshape(-1, 4)
            lab = labels.reshape(-1)
            keep = lab != -100
            rows = flat[keep]
            sh = rows - rows.max(axis=1, keepdims=True)
            lse = np.log(np.exp(sh).sum(axis=1))
            return float((lse - sh[np.arange(keep.sum()), lab[keep]]).mean())

        fd = finite_difference(ref, [logits.data], step=1e-6)
        assert max_rel_err(logits.grad, fd[0]) < 1e-4

    def test_all_masked_raises(self):
        logits = Tensor(np.zeros((1, 2, 3)))
        with pytest.raises(DegenerateBatchError):
            T.masked_cross_entropy(logits, np.full((1, 2), -100))

    def test_bad_label_id_raises(self):
        logits = Tensor(np.zeros((1, 2, 3)))
        with pytest.raises(ContractError):
            T.masked_cross_entropy(logits, np.array([[0, 7]]))


def test_no_source_line_passes_where():
    """No op in ``tensor.py`` runs a masked ufunc: ``where=`` sends numpy to
    its slow per-element loops, so the map passes use maximum forms and
    factor maps instead."""
    lines = pathlib.Path(T.__file__).read_text().splitlines()
    found = [line.strip() for line in lines if re.search(r"\bwhere\s*=(?!=)", line)]
    assert found == []
