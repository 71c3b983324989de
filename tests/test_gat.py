"""GAT layer tests against the dense reference implementation."""

import numpy as np
import pytest

from graphfuse.errors import ShapeMismatchError
from graphfuse.gat import GatParams, edge_alpha, gat_forward
from graphfuse.graph import build_fully_connected
from graphfuse.layers import Dropout, named_parameters
from graphfuse.rng import RngState
from graphfuse.tensor import Tensor

from helpers import attention_maps, total
from oracles import (attention_logits, dense_gat_reference, finite_difference,
                     gat_head, max_rel_err)


def make_params(d=6, hidden=8, heads=2, seed=0):
    return GatParams.init(RngState(seed), d, hidden, heads)


class TestAttentionLogits:
    def test_zero_attention_vector(self):
        params = make_params()
        head = gat_head(params, 0)
        head = head._replace(a=np.zeros_like(head.a))
        rng = RngState(1)
        assert attention_logits(rng.normal((6,)), rng.normal((6,)), head) == 0.0

    def test_zero_features(self):
        head = gat_head(make_params(seed=2), 1)
        assert attention_logits(np.zeros(6), np.zeros(6), head) == 0.0

    def test_three_node_case_matches_scalar_reference(self):
        rng = RngState(3)
        params = make_params(seed=3)
        H = rng.normal((3, 6))
        for hi in range(2):
            head = gat_head(params, hi)
            dh = head.W.shape[1]
            for dst in range(3):
                for src in range(3):
                    z = head.a[:dh] @ (head.W.T @ H[dst]) \
                        + head.a[dh:] @ (head.W.T @ H[src])
                    want = z if z >= 0 else 0.2 * z
                    got = attention_logits(H[src], H[dst], head)
                    assert abs(got - want) < 1e-12


class TestGatForward:
    def test_single_node_alpha_is_one(self):
        params = make_params(seed=4)
        with attention_maps() as maps:
            out = gat_forward(Tensor(RngState(5).normal((1, 1, 6))),
                              [1], params, None)
        np.testing.assert_allclose(maps[0], np.ones((1, 2, 1, 1)))
        assert out.shape == (1, 1, 6)

    def test_identical_features_give_uniform_alpha(self):
        params = make_params(seed=6)
        n = 5
        H = Tensor(np.tile(RngState(7).normal((1, 1, 6)), (1, n, 1)))
        with attention_maps() as maps:
            gat_forward(H, [n], params, None)
        np.testing.assert_allclose(maps[0], np.full((1, 2, n, n), 1.0 / n),
                                   atol=1e-12)

    def test_alpha_sums_to_one_per_neighborhood(self):
        params = make_params(seed=8)
        lengths = [4, 1, 6]
        H = Tensor(RngState(9).normal((3, 6, 6)) * 3)
        with attention_maps() as maps:
            gat_forward(H, lengths, params, None)  # eval mode
        alpha = maps[0]
        for b, n in enumerate(lengths):
            np.testing.assert_allclose(alpha[b, :, :n].sum(-1), 1.0, atol=1e-9)
            assert np.all(alpha[b, :, :, n:] == 0.0)  # pad keys get no weight

    def test_dense_oracle_four_nodes_two_heads(self):
        rng = RngState(10)
        params = make_params(d=5, hidden=6, heads=2, seed=10)
        H = rng.normal((4, 5))
        with attention_maps() as maps:
            out = gat_forward(Tensor(H[None]), [4], params, None).data[0]

        W_heads = [params.W.data[i] for i in range(2)]
        a_heads = [np.concatenate([params.a_dst.data[i], params.a_src.data[i]])
                   for i in range(2)]
        want, alphas_ref = dense_gat_reference(
            H, W_heads, a_heads, params.proj.w.data, params.proj.b.data)
        np.testing.assert_allclose(out, want, rtol=1e-10, atol=1e-12)

        edges = build_fully_connected([4])
        alpha, tgt = edge_alpha(maps[0], [4], edges)
        for hi in range(2):
            dense = np.zeros((4, 4))
            # edge order is source-major: e = src*4 + dst for a single sample
            for e in range(16):
                dense[tgt[e], edges.sources[e]] = alpha[e, hi]
            np.testing.assert_allclose(dense, alphas_ref[hi], rtol=1e-10)

    def test_padded_sentences_match_each_sentence_alone(self):
        params = make_params(seed=22)
        lengths = [5, 3]
        H = RngState(23).normal((2, 5, 6))  # pad rows hold junk on purpose
        out = gat_forward(Tensor(H), lengths, params, None).data
        for b, n in enumerate(lengths):
            alone = gat_forward(Tensor(H[b:b + 1, :n]), [n], params,
                                None).data[0]
            np.testing.assert_allclose(out[b, :n], alone, rtol=1e-10, atol=1e-12)

    def test_permutation_equivariance(self):
        params = make_params(seed=11)
        n = 6
        H = RngState(12).normal((1, n, 6))
        perm = RngState(13).permutation(n)
        out = gat_forward(Tensor(H), [n], params, None).data
        out_p = gat_forward(Tensor(H[:, perm]), [n], params, None).data
        np.testing.assert_allclose(out_p, out[:, perm], atol=1e-10)

    def test_output_shape_matches_input(self):
        params = make_params(seed=14)
        H = Tensor(RngState(15).normal((2, 3, 6)))
        out = gat_forward(H, [3, 2], params, None)
        assert out.shape == (2, 3, 6)

    def test_node_count_mismatch(self):
        params = make_params(seed=16)
        with pytest.raises(ShapeMismatchError):
            gat_forward(Tensor(np.zeros((1, 4, 6))), [4, 3], params, None)

    def test_gradients_match_finite_differences_five_nodes(self):
        params = make_params(d=4, hidden=4, heads=2, seed=17)
        H = Tensor(RngState(18).normal((1, 5, 4)), requires_grad=True)
        w = RngState(19).normal((1, 5, 4))

        def loss_tensor():
            return total(gat_forward(H, [5], params, None) * w)

        loss_tensor().backward()
        names = {"H": H, **named_parameters(params, "gat")}
        fd = finite_difference(lambda: loss_tensor().item(),
                               [t.data for t in names.values()], step=1e-5)
        for (name, t), want in zip(names.items(), fd):
            assert max_rel_err(t.grad, want, floor=1e-7) < 1e-3, name

    def test_training_dropout_draws_are_seeded(self):
        params = make_params(seed=20)
        H = Tensor(RngState(21).normal((1, 4, 6)))
        a = gat_forward(H, [4], params, Dropout(0.4, RngState(5)))
        b = gat_forward(H, [4], params, Dropout(0.4, RngState(5)))
        assert a.data.tobytes() == b.data.tobytes()
