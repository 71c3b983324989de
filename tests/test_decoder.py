"""Decoder-refiner tests: masking, equivariance, gradients."""

import numpy as np

from graphfuse.decoder import DecoderParams, decode_refine
from graphfuse.layers import named_parameters
from graphfuse.rng import RngState
from graphfuse.tensor import Tensor

from helpers import attention_maps, length_mask, total
from oracles import finite_difference, max_rel_err


def make_params(d=8, heads=2, seed=0):
    return DecoderParams.init(RngState(seed), d, heads)


class TestDecodeRefine:
    def test_output_shape(self):
        params = make_params()
        x = Tensor(RngState(1).normal((3, 5, 8)))
        out = decode_refine(x, [5, 3, 4], params, None)
        assert out.shape == (3, 5, 8)

    def test_batch_reordering_permutes_outputs(self):
        params = make_params(seed=2)
        x = RngState(3).normal((4, 6, 8))
        lengths = [6, 4, 5, 3]
        out = decode_refine(Tensor(x), lengths, params, None).data
        perm = [2, 0, 3, 1]
        out_p = decode_refine(Tensor(x[perm]), [lengths[i] for i in perm],
                              params, None).data
        for new, old in enumerate(perm):
            n = lengths[old]
            np.testing.assert_allclose(out_p[new, :n], out[old, :n], atol=1e-12)

    def test_padding_extension_invariance(self):
        params = make_params(seed=4)
        x = RngState(5).normal((2, 4, 8))
        out = decode_refine(Tensor(x), [4, 3], params, None).data
        wide = np.concatenate([x, RngState(6).normal((2, 3, 8))], axis=1)
        out_w = decode_refine(Tensor(wide), [4, 3], params, None).data
        np.testing.assert_allclose(out_w[0, :4], out[0, :4], atol=1e-12)
        np.testing.assert_allclose(out_w[1, :3], out[1, :3], atol=1e-12)

    def test_attention_rows_sum_to_one_over_unmasked_keys(self):
        params = make_params(seed=7)
        x = Tensor(RngState(8).normal((3, 5, 8)) * 2)
        lengths = [5, 2, 4]
        mask = length_mask(lengths, 5)
        with attention_maps() as maps:
            decode_refine(x, lengths, params, None)
        assert len(maps) == 2  # self-attention, then cross-attention
        for weights in maps:
            totals = weights.sum(axis=-1)  # (B, H, n_q)
            np.testing.assert_allclose(totals, np.ones_like(totals), atol=1e-9)
            # masked keys carry exactly zero weight
            assert np.all(weights[..., ~mask[0]][:1] >= 0)
            for b in range(3):
                dead = ~mask[b]
                if dead.any():
                    assert np.all(weights[b][..., dead] == 0.0)

    def test_no_causal_mask(self):
        # a late token must influence an early position's output
        params = make_params(seed=9)
        x = RngState(10).normal((1, 4, 8))
        base = decode_refine(Tensor(x), [4], params, None).data
        x2 = x.copy()
        x2[0, 3] += 1.0
        bumped = decode_refine(Tensor(x2), [4], params, None).data
        assert not np.allclose(base[0, 0], bumped[0, 0])

    def test_gradients_match_finite_differences(self):
        # d=8, 2 heads, n=4
        params = make_params(d=8, heads=2, seed=11)
        x = Tensor(RngState(12).normal((1, 4, 8)), requires_grad=True)
        w = RngState(13).normal((1, 4, 8))

        def loss_tensor():
            return total(decode_refine(x, [4], params, None) * w)

        loss_tensor().backward()
        names = {"x": x, **named_parameters(params, "decoder")}
        fd = finite_difference(lambda: loss_tensor().item(),
                               [t.data for t in names.values()], step=1e-4)
        for (name, t), want in zip(names.items(), fd):
            assert max_rel_err(t.grad, want, floor=1e-6) < 1e-3, name
