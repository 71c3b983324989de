"""Tensor-core tests. Gradient expectations come from tests/oracles.py."""

import threading

import numpy as np
import pytest

from graphfuse import tensor as T
from graphfuse.errors import (ContractError, DegenerateBatchError,
                              ShapeMismatchError)
from graphfuse.layers import Dropout, apply_dropout
from graphfuse.rng import RngState
from graphfuse.tensor import Tensor

from oracles import (finite_difference, leaky_relu, masked_softmax,
                     max_rel_err, scatter_add_rows_reference)


class TestMatmul:
    def test_identity(self):
        m = np.arange(9.0).reshape(3, 3)
        out = T.matmul(Tensor(np.eye(3)), Tensor(m))
        np.testing.assert_array_equal(out.data, m)

    def test_hand_case(self):
        out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [7.0]])

    def test_grad_matches_finite_differences(self):
        rng = RngState(0)
        a = Tensor(rng.normal((4, 5)), requires_grad=True)
        b = Tensor(rng.normal((5, 2)), requires_grad=True)
        loss = T.matmul(a, b).sum()
        loss.backward()
        # closed form: d sum(a@b) / da = ones @ b.T
        np.testing.assert_allclose(a.grad, np.ones((4, 2)) @ b.data.T, rtol=1e-12)
        fd = finite_difference(lambda: (a.data @ b.data).sum(), [a.data, b.data])
        assert max_rel_err(a.grad, fd[0]) < 1e-6
        assert max_rel_err(b.grad, fd[1]) < 1e-6

    def test_batched_broadcast_grad(self):
        rng = RngState(1)
        a = Tensor(rng.normal((2, 3, 4, 5)), requires_grad=True)
        b = Tensor(rng.normal((5, 6)), requires_grad=True)
        y = T.matmul(a, b)
        (y * y).sum().backward()
        fd = finite_difference(lambda: ((a.data @ b.data) ** 2).sum(),
                               [a.data, b.data], step=1e-5)
        assert max_rel_err(a.grad, fd[0]) < 1e-6
        assert max_rel_err(b.grad, fd[1]) < 1e-6

    def test_shape_errors_name_both_shapes(self):
        with pytest.raises(ShapeMismatchError) as e:
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
        assert "(2, 3)" in str(e.value) and "(4, 2)" in str(e.value)
        with pytest.raises(ShapeMismatchError):
            T.matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))


class TestLinear:
    @pytest.mark.parametrize("x_shape", [(4, 5), (2, 3, 5)])
    def test_forward_matches_matmul_plus_bias(self, x_shape):
        rng = RngState(2)
        x, w, b = rng.normal(x_shape), rng.normal((5, 3)), rng.normal((3,))
        got = T.linear(Tensor(x), Tensor(w), Tensor(b)).data
        want = T.add(T.matmul(Tensor(x), Tensor(w)), Tensor(b)).data
        assert got.shape == want.shape == (*x_shape[:-1], 3)
        assert max_rel_err(got, want) < 1e-12

    @pytest.mark.parametrize("x_shape", [(4, 5), (2, 3, 5)])
    def test_grads_match_finite_differences(self, x_shape):
        rng = RngState(4)
        x = Tensor(rng.normal(x_shape), requires_grad=True)
        w = Tensor(rng.normal((5, 3)), requires_grad=True)
        b = Tensor(rng.normal((3,)), requires_grad=True)
        weights = rng.normal((*x_shape[:-1], 3))
        (T.linear(x, w, b) * Tensor(weights)).sum().backward()
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


def all_keys(shape):
    """The all-True key mask over the first and last axes of ``shape``."""
    return np.ones((shape[0], shape[-1]), dtype=bool)


# Key masks over n_k = 5 keys; in row 1 the only real key is the first.
PAD_MASK = np.array([[True, True, True, False, False],
                     [True, False, False, False, False]])
# an inverted-dropout mask over the (B, h, n, n) = (2, 3, 5, 5) GAT map
KEEP = Dropout(0.3, RngState(21)).keep((2, 3, 5, 5))
FUSED_OPS = ["attention", "graph_attention", "graph_attention_keep"]


def at_keys(arr, axis, real=False):
    """The entries of ``arr`` at PAD_MASK's pad (or real) keys along ``axis``."""
    mask = PAD_MASK if real else ~PAD_MASK
    return np.moveaxis(arr, axis, 1)[mask]


def fused_inputs(op, rng):
    """The float inputs of one fused op: (q, k_t, v) or (s_dst, s_src, wh)."""
    if op == "attention":
        return [rng.normal((2, 3, 4, 2)), rng.normal((2, 3, 2, 5)),
                rng.normal((2, 3, 5, 2))]
    return [rng.normal((2, 3, 5)), rng.normal((2, 3, 5)), rng.normal((2, 3, 5, 2))]


def fused_op(op, a, b, c, collect=None):
    if op == "attention":
        return T.attention(a, b, c, PAD_MASK, collect)
    keep = KEEP if op == "graph_attention_keep" else None
    return T.graph_attention(a, b, c, PAD_MASK, keep, collect)


def oracle_weights(op, a, b):
    """The op's weights by the unfused composition, its forward reference."""
    if op == "attention":
        return masked_softmax(a @ b, PAD_MASK)
    return masked_softmax(leaky_relu(a[..., None] + b[..., None, :]), PAD_MASK)


class TestSoftmax:
    """The composed masked softmax (the fused ops' forward reference) and the
    softmax inside ``T.attention``."""

    def test_uniform(self):
        out = masked_softmax(np.array([[0.0, 0.0, 0.0]]), all_keys((1, 3)))
        np.testing.assert_allclose(out, [[1 / 3] * 3], atol=1e-15)
        # q = 0 gives every real key the same weight
        v = RngState(1).normal((2, 3, 5, 2))
        weights = []
        T.attention(np.zeros((2, 3, 4, 2)), np.ones((2, 3, 2, 5)), v,
                    PAD_MASK, weights)
        np.testing.assert_allclose(weights[0][0, ..., :3], 1 / 3, atol=1e-15)
        assert (weights[0][1, ..., 0] == 1.0).all()

    def test_shift_invariance(self):
        x = np.array([[0.3, 1.3, 2.3]])
        a = masked_softmax(x, all_keys(x.shape))
        b = masked_softmax(x + 50.0, all_keys(x.shape))
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_against_scalar_reference(self):
        x = np.array([[1.0, 2.0, 3.0]])
        want = np.exp(x) / np.exp(x).sum()
        np.testing.assert_allclose(masked_softmax(x, all_keys(x.shape)),
                                   want, rtol=1e-12)

    def test_rows_sum_to_one(self):
        rng = RngState(2)
        q, k_t, v = fused_inputs("attention", rng)
        weights = []
        T.attention(q * 30.0, k_t, v, all_keys((2, 5)), weights)
        np.testing.assert_allclose(weights[0].sum(axis=-1), 1.0, atol=1e-9)
        assert (weights[0] > 0).all()

    def test_grad_matches_finite_differences(self):
        rng = RngState(3)
        arrays = fused_inputs("attention", rng)
        w = rng.normal((2, 3, 4, 2))  # fixed projection so the loss is non-trivial
        q, k_t, v = (Tensor(a, requires_grad=True) for a in arrays)
        mask = all_keys((2, 5))

        (T.attention(q, k_t, v, mask) * w).sum().backward()

        def ref():
            return float((T.attention(*arrays, mask).data * w).sum())

        fd = finite_difference(ref, arrays)
        for t, want in zip((q, k_t, v), fd):
            assert max_rel_err(t.grad, want) < 1e-6

    def test_key_mask_bitwise_equals_added_bias(self):
        rng = RngState(16)
        q, k_t, v = fused_inputs("attention", rng)
        q *= 3.0
        bias = np.where(PAD_MASK, 0.0, T.MASK_NEG)[:, None, None, :]
        weights = []
        out = T.attention(q, k_t, v, PAD_MASK, weights)
        want = masked_softmax(q @ k_t + bias, all_keys((2, 5)))
        assert masked_softmax(q @ k_t, PAD_MASK).tobytes() == want.tobytes()
        assert weights[0].tobytes() == want.tobytes()
        assert out.data.tobytes() == np.matmul(want, v).tobytes()
        assert (weights[0][1, :, :, 1:] == 0.0).all()
        assert (weights[0][1, :, :, 0] == 1.0).all()

    def test_key_mask_shape_checked(self):
        q, k_t, v = fused_inputs("attention", RngState(0))
        with pytest.raises(ShapeMismatchError):
            T.attention(q, k_t, v, np.ones((2, 4), bool))
        with pytest.raises(ShapeMismatchError):
            T.attention(q[0], k_t[0], v[0], np.ones((3, 5), bool))
        s_dst, s_src, wh = fused_inputs("graph_attention", RngState(0))
        with pytest.raises(ShapeMismatchError):
            T.graph_attention(s_dst, s_src, wh, np.ones((2, 4), bool), None)
        with pytest.raises(ShapeMismatchError):
            T.graph_attention(s_dst, s_src[:, :, :4], wh, PAD_MASK, None)


class TestFusedAttention:
    @pytest.mark.parametrize("op", FUSED_OPS)
    def test_forward_bitwise_equals_oracle_composition(self, op):
        a, b, c = fused_inputs(op, RngState(22))
        weights = []
        out = fused_op(op, a, b, c, collect=weights)
        want = oracle_weights(op, a, b)
        assert weights[0].tobytes() == want.tobytes()
        dropped = want * KEEP if op == "graph_attention_keep" else want
        assert out.data.tobytes() == np.matmul(dropped, c).tobytes()

    @pytest.mark.parametrize("op", FUSED_OPS)
    def test_pad_keys_get_exactly_zero_weight(self, op):
        a, b, c = fused_inputs(op, RngState(23))
        # large scores and values at pads must not leak into the output
        np.moveaxis(b, -1, 1)[~PAD_MASK] = 1e6
        np.moveaxis(c, 2, 1)[~PAD_MASK] = 1e6
        weights = []
        out = fused_op(op, a, b, c, collect=weights)
        assert (at_keys(weights[0], -1) == 0.0).all()
        assert (weights[0][1, ..., 0] == 1.0).all()
        assert np.abs(out.data).max() < 1e3

    @pytest.mark.parametrize("op", FUSED_OPS)
    def test_grads_match_finite_differences(self, op):
        rng = RngState(24)
        arrays = fused_inputs(op, rng)
        if op != "attention":
            # FD steps of 1e-5 must not cross the leaky ReLU's kink
            logits = arrays[0][..., None] + arrays[1][..., None, :]
            assert np.abs(at_keys(logits, -1, real=True)).min() > 1e-4
        w = rng.normal(fused_op(op, *arrays).shape)
        tensors = [Tensor(a, requires_grad=True) for a in arrays]

        (fused_op(op, *tensors) * w).sum().backward()

        fd = finite_difference(
            lambda: float((fused_op(op, *arrays).data * w).sum()), arrays)
        for t, want in zip(tensors, fd):
            assert max_rel_err(t.grad, want) < 1e-6
        # a pad key's score and value get exactly zero gradient
        assert (at_keys(tensors[1].grad, -1) == 0.0).all()
        assert (at_keys(tensors[2].grad, 2) == 0.0).all()


class TestPointwise:
    def test_leaky_relu_values(self):
        out = leaky_relu(np.array([0.0, -1.0, 2.0]))
        np.testing.assert_allclose(out, [0.0, -0.2, 2.0])

    def test_leaky_relu_bitwise_equals_where(self):
        slope = T.LEAKY_RELU_SLOPE
        x = np.array([-3.5, -1e-300, -0.0, 0.0, 1e-300, 2.25, -7.0])
        want = np.where(x >= 0, x, slope * x)
        assert leaky_relu(x).tobytes() == want.tobytes()  # -0.0 keeps its sign bit
        # inside graph_attention: -0.0 + x is x bitwise, -0.0 included, so
        # every row of logits is x itself
        rng = RngState(18)
        s_dst = Tensor(np.full((1, 1, 7), -0.0), requires_grad=True)
        s_src = Tensor(x.reshape(1, 1, 7), requires_grad=True)
        wh = rng.normal((1, 1, 7, 2))
        g = rng.normal((1, 1, 7, 2))
        mask = np.ones((1, 7), bool)
        weights = []
        out = T.graph_attention(s_dst, s_src, wh, mask, None, weights)
        y = weights[0]
        assert y.tobytes() == masked_softmax(
            np.broadcast_to(want, (1, 1, 7, 7)), mask).tobytes()
        # the gradient factor is 1.0 at -0.0, 0.0 and 1e-300 and the slope
        # at -1e-300, as in where(x >= 0, 1, slope)
        (out * g).sum().backward()
        gy = g @ wh.transpose(0, 1, 3, 2)
        d_logits = y * (gy - (gy * y).sum(axis=-1, keepdims=True))
        d_x = np.where(x >= 0, 1.0, slope) * d_logits
        np.testing.assert_allclose(s_src.grad, d_x.sum(axis=-2), rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(s_dst.grad, d_x.sum(axis=-1), rtol=1e-12, atol=1e-15)

    def test_leaky_relu_grad_at_minus_two(self):
        # every logit lies near -2, so each score's gradient is the slope
        # times the softmax backward of the logits
        rng = RngState(18)
        s_dst = Tensor(np.full((1, 2, 3), -1.0), requires_grad=True)
        s_src = Tensor(-1.0 + rng.uniform(-0.3, 0.3, (1, 2, 3)), requires_grad=True)
        wh = rng.normal((1, 2, 3, 2))
        g = rng.normal((1, 2, 3, 2))
        weights = []
        out = T.graph_attention(s_dst, s_src, wh, np.ones((1, 3), bool), None,
                                weights)
        (out * g).sum().backward()
        y = weights[0]
        gy = g @ wh.transpose(0, 1, 3, 2)
        d_logits = y * (gy - (gy * y).sum(axis=-1, keepdims=True))
        np.testing.assert_allclose(s_src.grad, 0.2 * d_logits.sum(axis=-2),
                                   rtol=1e-12, atol=1e-15)
        # shifting every logit of a row by one amount leaves the row unchanged
        np.testing.assert_allclose(s_dst.grad, 0.0, atol=1e-15)

    def test_elu_matches_definition(self):
        x = np.array([-2.0, -0.5, -0.0, 0.0, 1e-300, 0.7])
        out = T.elu(Tensor(x)).data
        want = np.where(x > 0, x, np.exp(x) - 1.0)
        assert out.tobytes() == want.tobytes()

    def test_elu_grad(self):
        rng = RngState(4)
        x = Tensor(rng.normal((8,)), requires_grad=True)
        (T.elu(x) * rng.normal((8,))).sum().backward()
        # avoid FD across the kink by construction: no |x| < 1e-3 in sample
        assert np.abs(x.data).min() > 1e-3
        got = x.grad.copy()
        x.grad = None
        fd = finite_difference(
            lambda: float(np.where(x.data > 0, x.data, np.exp(x.data) - 1).sum()),
            [x.data])
        # grad of plain sum:
        (T.elu(x)).sum().backward()
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

        (T.layer_norm(x, gain, bias) * w).sum().backward()

        def ref():
            mu = x.data.mean(-1, keepdims=True)
            var = x.data.var(-1, keepdims=True)
            xh = (x.data - mu) / np.sqrt(var + T.LAYER_NORM_EPS)
            return ((xh * gain.data + bias.data) * w).sum()

        fd = finite_difference(ref, [x.data, gain.data, bias.data])
        assert max_rel_err(x.grad, fd[0]) < 1e-5
        assert max_rel_err(gain.grad, fd[1]) < 1e-5
        assert max_rel_err(bias.grad, fd[2]) < 1e-5

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
        t.sum().backward()
        np.testing.assert_array_equal(t.grad, np.ones((2, 3)))

    @pytest.mark.parametrize("keepdims", [False, True])
    @pytest.mark.parametrize("axis", [None, 1, -1, (0, 2), (-1, 0)])
    def test_sum_grad_over_axes(self, axis, keepdims):
        rng = RngState(19)
        x = Tensor(rng.normal((2, 3, 4)), requires_grad=True)
        w = rng.normal(x.data.sum(axis=axis, keepdims=keepdims).shape)
        (T.sum_(x, axis=axis, keepdims=keepdims) * w).sum().backward()
        fd = finite_difference(
            lambda: (x.data.sum(axis=axis, keepdims=keepdims) * w).sum(), [x.data])
        assert max_rel_err(x.grad, fd[0]) < 1e-6

    def test_sum_of_squares(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        (t * t).sum().backward()
        np.testing.assert_allclose(t.grad, [2.0, 4.0])

    def test_shared_subexpression_dag(self):
        # y = x*x reused twice: loss = sum(y + y*c); FD is the authority
        rng = RngState(8)
        x = Tensor(rng.normal((3, 3)), requires_grad=True)
        c = rng.normal((3, 3))
        y = x * x
        loss = (y + y * c).sum()
        loss.backward()
        fd = finite_difference(lambda: (x.data ** 2 * (1 + c)).sum(), [x.data])
        assert max_rel_err(x.grad, fd[0]) < 1e-6

    def test_each_node_visited_once(self):
        # diamond: two paths from x to the loss; grad must not double count
        x = Tensor([2.0], requires_grad=True)
        a = x * 3.0
        b = x * 4.0
        (a * b).sum().backward()  # d/dx (12 x^2) = 24 x = 48
        np.testing.assert_allclose(x.grad, [48.0])

    def test_accumulation_across_calls(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * x).sum().backward()
        first = x.grad.copy()
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * first)
        x.grad = None  # a standalone leaf starts again from None
        (x * x).sum().backward()
        assert x.grad.tobytes() == first.tobytes()

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            (x * 2.0).backward()

    def test_no_grad_suppresses_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with T.no_grad():
            y = (x * 2.0).sum()
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
        ((a + b) * rng.normal((4, 5))).sum().backward()
        assert a.grad.shape == (4, 5)
        assert b.grad.shape == (5,)

    def test_sum_and_reshape_and_transpose_grads(self):
        rng = RngState(10)
        x = Tensor(rng.normal((2, 3, 4)), requires_grad=True)
        w = rng.normal((4, 6))
        loss = (T.transpose(x, (1, 0, 2)).reshape(6, 4) @ Tensor(w)).sum()
        loss.backward()
        fd = finite_difference(
            lambda: (x.data.transpose(1, 0, 2).reshape(6, 4) @ w).sum(),
            [x.data])
        assert max_rel_err(x.grad, fd[0]) < 1e-6

    def test_only_leaves_get_grad_buffers(self):
        rng = RngState(14)
        x = Tensor(rng.normal((3, 4)), requires_grad=True)
        w = Tensor(rng.normal((4, 2)), requires_grad=True)
        c = Tensor(rng.normal((3, 2)))
        y = x @ w
        z = y * c
        loss = (z * z).sum()
        loss.backward()
        for node in (y, z, loss):
            assert node.grad is None
        assert c.grad is None
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
        x = Tensor(rng.normal((2, 3, 5, 2)), requires_grad=True)
        w = rng.normal((2, 3, 5, 2))
        c = rng.normal((2,))

        def attend(z, mask):
            return T.attention(z, T.transpose(z, (0, 1, 3, 2)), z, mask)

        def graph(z, keep):
            return T.graph_attention(T.sum_(z, axis=-1), T.sum_(z * c, axis=-1),
                                     z, PAD_MASK, keep)

        fns = {"softmax": lambda z: attend(z, all_keys((2, 5))),
               "masked_softmax": lambda z: attend(z, PAD_MASK),
               "leaky_relu": lambda z: graph(z, None),
               "leaky_relu_dropout": lambda z: graph(z, KEEP),
               "elu": lambda z: T.elu(z)}
        fn = fns[op]
        z = x * 2.0
        (T.add(fn(z), z) * w).sum().backward()

        def ref():
            z = Tensor(x.data * 2.0)
            return float(((fn(z).data + z.data) * w).sum())

        fd = finite_difference(ref, [x.data])
        assert max_rel_err(x.grad, fd[0]) < 1e-6

    @pytest.mark.parametrize("const_slot", [0, 1])
    @pytest.mark.parametrize("op", ["add", "mul", "matmul"])
    def test_constant_operand_gets_no_gradient(self, op, const_slot):
        rng = RngState(15)
        shapes = ((3, 4), (4, 2)) if op == "matmul" else ((3, 4), (4,))
        data = [rng.uniform(0.5, 2.0, s) for s in shapes]
        g = np.ones((3, 2) if op == "matmul" else (3, 4))
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
        T.gather_rows(x, [2, 0, 2]).sum().backward()
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
        (T.gather_rows(x, indices) * Tensor(upstream)).sum().backward()
        cols = int(np.prod(row_shape))
        want = scatter_add_rows_reference(
            upstream.reshape(len(indices), cols),
            np.asarray(indices, dtype=np.int64), 5)
        assert x.grad.tobytes() == want.reshape(x.data.shape).tobytes()

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
