"""Model assembly tests across the three variants."""

import inspect
import json
import pathlib
import sys

import numpy as np
import pytest

from graphfuse import layers
from graphfuse import tensor as T
from graphfuse.data import LabelVocab, Sentence, TokenVocab, make_batches
from graphfuse.errors import ConfigError
from graphfuse.model import ModelConfig, TokenClassifier
from graphfuse.rng import RngState

from helpers import assert_views_of_flat


def build_world(variant="full", n_sents=4, seed=0, **cfg_kw):
    rng = RngState(seed)
    tokens = [f"t{i}" for i in range(12)]
    corpus = []
    for _ in range(n_sents):
        n = int(rng.integers(2, 6))
        toks = [tokens[int(i)] for i in rng.integers(0, 12, (n,))]
        labs = ["O" if int(x) == 0 else ("B-A" if int(x) == 1 else "B-B")
                for x in rng.integers(0, 3, (n,))]
        corpus.append(Sentence(toks, labs))
    tv = TokenVocab([t for s in corpus for t in s.tokens])
    lv = LabelVocab([l for s in corpus for l in s.labels] + ["B-A", "B-B"])
    dims = dict(d_emb=8, d=8, gat_hidden=8, gat_heads=2, dec_heads=2)
    cfg = ModelConfig(vocab_size=len(tv), n_labels=len(lv), dropout=0.1,
                      variant=variant, max_len=16, **{**dims, **cfg_kw})
    model = TokenClassifier(cfg, tv, lv, RngState(seed + 100))
    batches = make_batches(corpus, 2, 16, tv, lv)
    return model, batches


class TestVariants:
    @pytest.mark.parametrize("variant", ["encoder", "gat", "full"])
    def test_forward_shapes(self, variant):
        model, batches = build_world(variant)
        for batch in batches:
            B, n = batch.token_ids.shape
            logits = model.forward(batch)
            assert logits.shape == (B, n, model.config.n_labels)

    def test_encoder_variant_has_no_graph_params(self):
        model, _ = build_world("encoder")
        names = list(model.parameters())
        assert not any(n.startswith(("gat.", "decoder.")) for n in names)

    def test_gat_variant_has_no_decoder(self):
        model, _ = build_world("gat")
        names = list(model.parameters())
        assert any(n.startswith("gat.") for n in names)
        assert not any(n.startswith("decoder.") for n in names)

    def test_full_has_all_stages(self):
        model, _ = build_world("full")
        names = list(model.parameters())
        for stem in ("encoder.", "gat.", "decoder.", "head."):
            assert any(n.startswith(stem) for n in names)

    def test_invalid_variant(self):
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=5, n_labels=3, variant="gatsby").validate()

    # validate is the one check of these rules: the layer builders trust it
    @pytest.mark.parametrize("overrides, message", [
        ({"d_emb": 7}, "d_emb must be even"),
        ({"enc_layers": 3}, "enc_layers must be 0, 1 or 2"),
        ({"enc_layers": 1, "d_emb": 6}, "not divisible by enc_heads"),
        ({"gat_hidden": 6}, "not divisible by gat_heads"),
        ({"d": 6}, "not divisible by dec_heads"),
        ({"dropout": 1.0}, "dropout must lie in"),
        ({"dropout": -0.1}, "dropout must lie in"),
    ], ids=["odd-d-emb", "enc-layers-3", "d-emb-by-enc-heads",
            "gat-hidden-by-heads", "d-by-dec-heads", "dropout-one",
            "dropout-negative"])
    def test_validate_rejects(self, overrides, message):
        config = ModelConfig(vocab_size=5, n_labels=3, **overrides)
        with pytest.raises(ConfigError, match=message):
            config.validate()


class TestForwardBackward:
    @pytest.mark.parametrize("variant", ["encoder", "gat", "full"])
    def test_loss_finite_and_grads_populated(self, variant):
        model, batches = build_world(variant, seed=1)
        loss = model.loss(batches[0], RngState(7), training=True)
        assert np.isfinite(loss.item())
        loss.backward()
        for name, p in model.parameters().items():
            assert p.grad is not None, name
            assert np.all(np.isfinite(p.grad)), name

    def test_same_seed_same_loss(self):
        a, batches = build_world("full", seed=2)
        b, _ = build_world("full", seed=2)
        la = a.loss(batches[0], RngState(9), training=True).item()
        lb = b.loss(batches[0], RngState(9), training=True).item()
        assert la == lb

    def test_zero_grad_clears(self):
        model, batches = build_world("full", seed=3)
        model.loss(batches[0], RngState(1)).backward()
        assert np.any(model.flat.grad != 0.0)
        model.zero_grad()
        assert_views_of_flat(model)
        assert all(not np.any(p.grad) for p in model.parameters().values())

    @pytest.mark.parametrize("variant", ["encoder", "gat", "full"])
    def test_parameters_are_views_of_the_flat_buffers(self, variant):
        model, batches = build_world(variant, seed=5)
        assert_views_of_flat(model)
        assert not np.any(model.flat.grad)
        # decayed names first: the flat prefix is exactly the decayed weights
        params = model.parameters()
        decayed = [p for name, p in params.items() if layers.decayed(name)]
        assert model.flat.n_decayed == sum(p.data.size for p in decayed)
        prefix = model.flat.data[:model.flat.n_decayed]
        assert all(np.shares_memory(p.data, prefix) for p in decayed)
        model.loss(batches[0], RngState(1)).backward()
        assert_views_of_flat(model)

    @pytest.mark.parametrize("variant", ["encoder", "gat", "full"])
    def test_layout_lists_every_parameter_once_decayed_first(self, variant):
        model, _ = build_world(variant, seed=5)
        layout = model.flat.layout
        params = model.parameters()
        assert len(layout) == len(params)
        assert {name: shape for name, shape in layout} == {
            name: list(p.data.shape) for name, p in params.items()}
        decay = [layers.decayed(name) for name, _ in layout]
        assert decay == sorted(decay, reverse=True)
        assert json.loads(json.dumps(layout)) == layout

    def test_no_source_line_rebinds_a_parameter(self):
        """The only ``.data =`` bindings are the Tensor constructor's, the
        flat buffer's, and the one that makes a parameter a view of it."""
        src = pathlib.Path(T.__file__).parent
        found = sorted(f"{path.name}: {line.strip()}"
                       for path in src.glob("*.py")
                       for line in path.read_text().splitlines()
                       if ".data = " in line)
        assert found == [
            "layers.py: p.data = self.data[offset:end].reshape(p.data.shape)",
            "layers.py: self.data = np.concatenate([p.data.reshape(-1) for _, p in order])",
            "tensor.py: self.data = np.asarray(data, dtype=np.float64)"]

    def test_predict_lengths_and_range(self):
        model, batches = build_world("full", seed=4)
        for batch in batches:
            preds = model.predict_batch(batch)
            assert [len(p) for p in preds] == batch.lengths
            flat = [i for row in preds for i in row]
            assert all(0 <= i < model.config.n_labels for i in flat)

    def test_vocab_size_consistency_enforced(self):
        model, _ = build_world("full", seed=6)
        cfg = ModelConfig(vocab_size=999, n_labels=model.config.n_labels,
                          variant="full")
        with pytest.raises(ConfigError):
            TokenClassifier(cfg, model.token_vocab, model.label_vocab, RngState(0))


def buffers_of_shape(loss, shape):
    """The dtype of each buffer that the graph behind ``loss`` keeps alive
    and sees with ``shape``: through a node's ``.data`` or an array in its
    backward closure's cells. Views count with the buffer they look into."""
    dtypes: dict[int, np.dtype] = {}
    seen: set[int] = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        cells = (node._backward_fn.__closure__ or ()) if node._backward_fn else ()
        for value in [node.data, *(cell.cell_contents for cell in cells)]:
            if isinstance(value, np.ndarray) and value.shape == shape:
                root = value
                while root.base is not None:
                    root = root.base
                dtypes[id(root)] = value.dtype
        stack.extend(node._parents)
    return list(dtypes.values())


def test_training_graph_keeps_four_attention_maps():
    """A full training graph keeps one float64 (B, heads, n, n) map per
    attention, the weights, plus the GAT's dropout mask: 4 in all."""
    model, batches = build_world("full", seed=5, d_emb=32, d=32, gat_hidden=32,
                                 gat_heads=8, dec_heads=8)
    batch = batches[0]
    B, n = batch.token_ids.shape
    loss = model.loss(batch, RngState(3), training=True)
    maps = buffers_of_shape(loss, (B, 8, n, n))
    assert maps.count(np.float64) <= 4
    assert maps.count(np.bool_) == 1  # the GAT's logit signs


def test_dropout_rate_has_one_owner():
    """Every stage reads the rate from the model's config: at 0 a training
    pass draws nothing and equals the eval pass bitwise."""
    model, batches = build_world("full", seed=6, enc_layers=1)
    batch = batches[0]
    eval_loss = model.loss(batch, training=False).item()
    assert model.loss(batch, RngState(4), training=True).item() != eval_loss
    model.config.dropout = 0.0
    assert model.loss(batch, RngState(4), training=True).item() == eval_loss


def test_every_tensor_op_is_reached():
    """The autodiff core holds only ops that training or prediction uses."""
    public = {name: inspect.unwrap(f).__code__ for name, f in vars(T).items()
              if inspect.isfunction(f) and not name.startswith("_")
              and f.__module__ == T.__name__}
    worlds = [build_world(v, enc_layers=1) for v in ("encoder", "gat", "full")]
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        for model, batches in worlds:
            model.loss(batches[0], RngState(0), training=True).backward()
            model.predict_batch(batches[0])
    finally:
        sys.setprofile(previous)
    assert sorted(n for n, code in public.items() if code not in called) == []
