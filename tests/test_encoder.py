"""Encoder stand-in tests: positions, masking isolation, gradients."""

import numpy as np
import pytest

from graphfuse import tensor as T
from graphfuse.encoder import EncoderParams, encode, positional_encoding
from graphfuse.errors import ContractError
from graphfuse.layers import Dropout, named_parameters
from graphfuse.rng import RngState

from helpers import toy_batch, total
from oracles import finite_difference, max_rel_err


class TestPositionalEncoding:
    def test_position_zero(self):
        pe = positional_encoding(3, 8)
        np.testing.assert_array_equal(pe[0, 0::2], np.zeros(4))
        np.testing.assert_array_equal(pe[0, 1::2], np.ones(4))

    def test_range(self):
        pe = positional_encoding(64, 16)
        assert pe.min() >= -1.0 and pe.max() <= 1.0

    def test_scalar_anchor(self):
        # first column at position 1 is sin(1 / 10000^0) = sin(1)
        assert abs(positional_encoding(2, 4)[1, 0] - np.sin(1.0)) < 1e-12


def make_encoder(n_layers=0, vocab=20, d_emb=8, d=6, seed=0):
    return EncoderParams.init(RngState(seed), vocab, d_emb, d,
                              n_layers, 2, 32)


class TestEncode:
    def test_degenerate_stack_is_projection_of_embedding(self):
        params = make_encoder(n_layers=0)
        batch = toy_batch([3, 2], vocab_size=20, seed=1)
        H = encode(batch, params, None)
        emb = params.embedding.data[batch.token_ids]
        x = emb + params.positional[:batch.token_ids.shape[1]]
        want = x @ params.projection.w.data + params.projection.b.data
        np.testing.assert_array_equal(H.data, want)

    def test_output_shape(self):
        for layers in (0, 1, 2):
            params = make_encoder(n_layers=layers)
            batch = toy_batch([4, 2, 3], vocab_size=20, seed=2)
            assert encode(batch, params, None).shape == (3, 4, 6)

    def test_padding_isolation(self):
        # changing a padded token's id must not change any unpadded output
        for layers in (0, 2):
            params = make_encoder(n_layers=layers, seed=3)
            batch = toy_batch([4, 2], vocab_size=20, seed=4)
            out1 = encode(batch, params, None).data
            batch.token_ids[1, 3] = 17  # padded slot of sample 1
            out2 = encode(batch, params, None).data
            np.testing.assert_array_equal(out1[0], out2[0])
            np.testing.assert_array_equal(out1[1, :2], out2[1, :2])

    def test_id_out_of_range(self):
        params = make_encoder()
        batch = toy_batch([3], vocab_size=20, seed=5)
        batch.token_ids[0, 0] = 99
        with pytest.raises(ContractError):
            encode(batch, params, None)

    def test_too_long_for_positional_table(self):
        params = make_encoder()
        batch = toy_batch([40], vocab_size=20, seed=6)  # table is 32 long
        with pytest.raises(ContractError):
            encode(batch, params, None)

    def test_eval_deterministic_and_dropout_free(self):
        params = make_encoder(n_layers=1, seed=7)
        batch = toy_batch([3, 3], vocab_size=20, seed=8)
        a = encode(batch, params, None).data
        b = encode(batch, params, None).data
        assert a.tobytes() == b.tobytes()

    def test_training_dropout_changes_output(self):
        params = make_encoder(n_layers=0, seed=9)
        batch = toy_batch([3], vocab_size=20, seed=10)
        a = encode(batch, params, Dropout(0.5, RngState(1))).data
        b = encode(batch, params, Dropout(0.5, RngState(2))).data
        assert not np.array_equal(a, b)

    def test_gradients_match_finite_differences(self):
        params = make_encoder(n_layers=1, d_emb=4, d=4, seed=11)
        batch = toy_batch([3, 2], vocab_size=20, seed=12)
        w = RngState(13).normal((2, 3, 4))

        def loss_tensor():
            return total(encode(batch, params, None) * w)

        loss_tensor().backward()
        names = named_parameters(params, "encoder")
        arrays = [t.data for t in names.values()]
        fd = finite_difference(lambda: loss_tensor().item(), arrays, step=1e-5)
        for (name, t), want in zip(names.items(), fd):
            # embedding rows of unused tokens have zero grad on both sides
            assert max_rel_err(t.grad, want, floor=1e-6) < 1e-4, name
