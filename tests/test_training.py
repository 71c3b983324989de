"""Trainer tests: schedule anchors, clipping, AdamW hand-oracle, end-to-end
determinism and early stopping."""

import numpy as np
import pytest

from graphfuse.data import build_label_vocab, build_token_vocab, make_batches
from graphfuse.encoder import encode
from graphfuse.errors import ConfigError, ContractError, TrainingDivergedError
from graphfuse.layers import FlatParams
from graphfuse.model import ModelConfig, TokenClassifier
from graphfuse.rng import RngState
from graphfuse.synth import copy_spec, generate
from graphfuse.tensor import Tensor
from graphfuse.training import (
    ADAM_BETAS,
    ADAM_EPS,
    WEIGHT_DECAY,
    OptState,
    TrainConfig,
    adamw_step,
    clip_gradients,
    lr_schedule,
    train,
)

from helpers import assert_views_of_flat
from oracles import adamw_step_reference


class TestLrSchedule:
    def test_anchors(self):
        peak = 2e-3
        assert lr_schedule(0, 100, 0.1, peak) == 0.0
        assert lr_schedule(10, 100, 0.1, peak) == pytest.approx(peak)
        assert lr_schedule(55, 100, 0.1, peak) == pytest.approx(0.5 * peak)
        assert lr_schedule(100, 100, 0.1, peak) == 0.0

    def test_midpoint_of_warmup(self):
        assert lr_schedule(5, 100, 0.1, 1.0) == pytest.approx(0.5)

    def test_zero_warmup_starts_at_peak(self):
        assert lr_schedule(0, 50, 0.0, 1.0) == pytest.approx(1.0)
        assert lr_schedule(25, 50, 0.0, 1.0) == pytest.approx(0.5)

    def test_warmup_clamped_below_total(self):
        # ratio 1.0 would put warmup == total and divide by zero in the
        # decay branch without the clamp
        v = lr_schedule(5, 10, 1.0, 1.0)
        assert np.isfinite(v) and v > 0

    def test_monotone_up_then_down(self):
        vals = [lr_schedule(s, 40, 0.2, 1.0) for s in range(41)]
        assert all(b >= a for a, b in zip(vals[:8], vals[1:9]))
        assert all(b <= a for a, b in zip(vals[8:-1], vals[9:]))


class TestClipping:
    def test_exact_rescale(self):
        g = np.array([3.0, 4.0])
        scale = clip_gradients([g], 1.0)
        assert np.linalg.norm(g) == pytest.approx(1.0, abs=1e-12)
        assert scale == pytest.approx(0.2)

    def test_below_threshold_untouched(self):
        g = np.array([0.3, 0.4])
        scale = clip_gradients([g], 1.0)
        assert scale == 1.0
        assert np.array_equal(g, [0.3, 0.4])

    def test_global_norm_across_tensors(self):
        a = np.array([3.0])
        b = np.array([4.0])
        clip_gradients([a, b], 1.0)
        total = np.sqrt(a[0] ** 2 + b[0] ** 2)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_property_never_exceeds(self):
        rng = RngState(50)
        for _ in range(20):
            gs = [rng.normal((5,), std=10.0) for _ in range(3)]
            clip_gradients(gs, 1.0)
            norm = np.sqrt(sum(float((g ** 2).sum()) for g in gs))
            assert norm <= 1.0 + 1e-12

    def test_zero_grad_noop(self):
        g = np.zeros(3)
        assert clip_gradients([g], 1.0) == 1.0


def laid_out(params, grads=None):
    """``params`` moved into a FlatParams, each gradient set to ``grads[name]``
    (zero when not given), and a fresh OptState for that layout."""
    flat = FlatParams(params)
    for name, g in (grads or {}).items():
        params[name].grad[...] = g
    return flat, OptState(flat.data.size)


def slot(flat, p, buffer):
    """The view of ``buffer``, laid out like ``flat.data``, at ``p``'s slot."""
    start = (p.data.ctypes.data - flat.data.ctypes.data) // flat.data.itemsize
    return buffer[start:start + p.data.size].reshape(p.data.shape)


class TestAdamW:
    def test_scalar_hand_oracle(self):
        """theta=1, g=1, lr=0.1, betas=(0.9,0.999), eps=1e-8, wd=WEIGHT_DECAY.

        m1=0.1, v1=0.001; mhat=1, vhat=1
        update = 1/(1+1e-8) + 0.01*1
        theta1 = 1 - 0.1*update
        """
        p = Tensor(np.array([[1.0]]), requires_grad=True)  # a matrix decays
        flat, state = laid_out({"w": p}, {"w": np.array([[1.0]])})
        adamw_step(flat, state, 0.1)
        expect = 1.0 - 0.1 * (1.0 / (1.0 + 1e-8) + WEIGHT_DECAY)
        assert p.data[0, 0] == pytest.approx(expect, abs=1e-15)
        assert state.step == 1
        assert state.m[0] == pytest.approx(0.1)
        assert state.v[0] == pytest.approx(0.001)

    def test_two_steps_match_manual_recurrence(self):
        p = Tensor(np.array([0.5]), requires_grad=True)
        flat, state = laid_out({"w": p})  # a vector: no decay
        m = v = 0.0
        theta = 0.5
        for step, g in enumerate([0.3, -0.2], start=1):
            p.grad[...] = g
            adamw_step(flat, state, 0.05)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mh = m / (1 - 0.9 ** step)
            vh = v / (1 - 0.999 ** step)
            theta -= 0.05 * (mh / (np.sqrt(vh) + 1e-8))
            assert p.data[0] == pytest.approx(theta, abs=1e-14)

    def test_decay_exemption_by_rank(self):
        w = Tensor(np.array([[1.0]]), requires_grad=True)
        b = Tensor(np.array([1.0]), requires_grad=True)
        gain = Tensor(np.array([1.0]), requires_grad=True)
        flat, state = laid_out({"lin.w": w, "lin.b": b, "blk.norm1.gain": gain})
        assert flat.n_decayed == 1
        adamw_step(flat, state, 0.1)
        # zero gradient => only decay moves parameters
        assert w.data[0, 0] == pytest.approx(1.0 - 0.1 * WEIGHT_DECAY * 1.0)
        assert b.data[0] == 1.0
        assert gain.data[0] == 1.0

    def test_decay_uses_pre_step_theta(self):
        p = Tensor(np.array([[2.0]]), requires_grad=True)
        flat, state = laid_out({"w": p}, {"w": np.array([[1.0]])})
        adamw_step(flat, state, 0.1)
        expect = 2.0 - 0.1 * (1.0 / (1.0 + 1e-8) + WEIGHT_DECAY * 2.0)
        assert p.data[0, 0] == pytest.approx(expect, abs=1e-14)

    def test_other_parameters_than_laid_out_raise(self):
        flat, state = laid_out({"w": Tensor(np.zeros(2))}, {"w": np.ones(2)})
        adamw_step(flat, state, 0.1)
        other, _ = laid_out({"u": Tensor(np.zeros(3))}, {"u": np.ones(3)})
        with pytest.raises(ContractError):
            adamw_step(other, state, 0.1)

    def test_step_leaves_gradients_alone(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        flat, state = laid_out({"w": p}, {"w": np.array([0.5, -3.0])})
        adamw_step(flat, state, 0.1)
        assert np.array_equal(p.grad, [0.5, -3.0])

    def test_flat_update_bitwise_equals_per_parameter_reference(self):
        """Five steps over decayed and exempt names, in an interleaved order."""
        rng = RngState(3)
        shapes = {"enc.embedding": (5, 2), "enc.proj.w": (2, 3),
                  "enc.proj.b": (3,), "blk.norm1.gain": (3,),
                  "blk.norm1.bias": (3,), "head.out.w": (3, 4),
                  "head.out.b": (4,), "gat.a_src": (2, 1, 3)}
        start = {name: rng.normal(shape) for name, shape in shapes.items()}
        params = {name: Tensor(a.copy(), requires_grad=True)
                  for name, a in start.items()}
        ref = {name: a.copy() for name, a in start.items()}
        flat, state = laid_out(params)
        ref_state = {}
        for step, lr in enumerate([0.1, 0.05, 0.2, 0.01, 0.3]):
            grads = {name: rng.normal(shape, std=10.0 ** (step - 2))
                     for name, shape in shapes.items()}
            for name, g in grads.items():
                params[name].grad[...] = g
            adamw_step(flat, state, lr)
            adamw_step_reference(ref, grads, ref_state, lr, ADAM_BETAS,
                                 ADAM_EPS, weight_decay=WEIGHT_DECAY)
            for name, p in params.items():
                assert p.data.tobytes() == ref[name].tobytes(), name
                assert (slot(flat, p, state.m).tobytes()
                        == ref_state["m", name].tobytes()), name
                assert (slot(flat, p, state.v).tobytes()
                        == ref_state["v", name].tobytes()), name
        assert state.step == ref_state["step"] == 5


def tiny_setup(n_train=24, n_valid=8, seed=0):
    splits = generate(copy_spec(seed=seed))
    train_sents = splits["train"][:n_train]
    valid_sents = splits["valid"][:n_valid]
    token_vocab = build_token_vocab(train_sents)
    label_vocab = build_label_vocab(train_sents)
    config = ModelConfig(vocab_size=len(token_vocab),
                         n_labels=len(label_vocab),
                         d_emb=16, d=16, gat_hidden=16, gat_heads=2,
                         enc_heads=2, dec_heads=2, dropout=0.0, max_len=16)
    model = TokenClassifier(config, token_vocab, label_vocab, RngState(7))
    return model, {"train": train_sents, "valid": valid_sents}


class TestTrainLoop:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=-1.0).validate()
        # each value is named in its own message, with what it was set to
        for key in ("batch_size", "epochs", "max_len", "early_stop_patience"):
            with pytest.raises(ConfigError,
                               match=f"^{key} must be >= 1, got 0$"):
                TrainConfig(**{key: 0}).validate()

    def test_loss_decreases_and_history_shape(self):
        model, corpora = tiny_setup()
        cfg = TrainConfig(learning_rate=3e-3, epochs=4, batch_size=8,
                          max_len=16, seed=0,
                          early_stop_patience=10)
        result = train(model, corpora, cfg)
        assert len(result.history) == 4
        for row in result.history:
            assert set(row) == {"epoch", "train_loss", "micro_f1",
                                "macro_f1"}
        assert result.history[-1]["train_loss"] < \
            result.history[0]["train_loss"]

    def test_best_epoch_is_argmax_of_history(self):
        model, corpora = tiny_setup()
        cfg = TrainConfig(learning_rate=3e-3, epochs=4, batch_size=8,
                          max_len=16, seed=1,
                          early_stop_patience=10)
        result = train(model, corpora, cfg)
        best = max(result.history, key=lambda r: r["micro_f1"])
        assert result.best_micro == best["micro_f1"]
        assert result.best_epoch == best["epoch"]

    def test_deterministic_history(self):
        histories = []
        for _ in range(2):
            model, corpora = tiny_setup()
            cfg = TrainConfig(learning_rate=3e-3, epochs=2, batch_size=8,
                              max_len=16, seed=3,
                              early_stop_patience=10)
            histories.append(train(model, corpora, cfg).history_jsonl())
        assert histories[0] == histories[1]

    def test_zero_lr_is_noop(self):
        model, corpora = tiny_setup()
        before = {k: v.data.copy() for k, v in model.parameters().items()}
        cfg = TrainConfig(learning_rate=0.0, epochs=1,
                          batch_size=8, max_len=16, seed=0,
                          early_stop_patience=10)
        train(model, corpora, cfg)
        after = model.parameters()
        for k in before:
            assert np.array_equal(before[k], after[k].data), k

    def test_divergence_raises_with_step(self):
        model, corpora = tiny_setup()
        # blow the embedding up to inf: the encoder's projection (tiny_setup
        # has no encoder blocks) then sums +inf and -inf terms, so the
        # features are NaN before any attention runs, whatever its shift
        model.encoder.embedding.data[:] = np.inf
        batch = make_batches(corpora["train"], 8, 16, model.token_vocab,
                             model.label_vocab)[0]
        cfg = TrainConfig(learning_rate=1e-3, epochs=1, batch_size=8,
                          max_len=16, seed=0)
        with np.errstate(all="ignore"):
            assert np.isnan(encode(batch, model.encoder, None).data).all()
            with pytest.raises(TrainingDivergedError) as exc_info:
                train(model, corpora, cfg)
        assert "step" in str(exc_info.value)

    def test_early_stopping_patience(self):
        model, corpora = tiny_setup()
        # zero lr: micro-F1 never improves after epoch 1, so training stops
        # after patience more epochs
        cfg = TrainConfig(learning_rate=0.0, epochs=20,
                          batch_size=8, max_len=16, seed=0,
                          early_stop_patience=2)
        result = train(model, corpora, cfg)
        assert len(result.history) == 3  # epoch 1 sets best, 2 more allowed

    def test_best_params_restored(self):
        model, corpora = tiny_setup()
        cfg = TrainConfig(learning_rate=3e-3, epochs=3, batch_size=8,
                          max_len=16, seed=5,
                          early_stop_patience=10)
        result = train(model, corpora, cfg)
        assert_views_of_flat(model)
        from graphfuse.evaluation import evaluate
        report = evaluate(model, corpora["valid"], batch_size=8, max_len=16)
        assert report.micro["f1"] == pytest.approx(result.best_micro)
