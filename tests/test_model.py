"""Model assembly tests across the three variants."""

import inspect
import json
import pathlib
import sys
from dataclasses import dataclass

import numpy as np
import pytest

from graphfuse import model as model_module
from graphfuse import tensor as T
from graphfuse.data import LabelVocab, Sentence, TokenVocab, make_batches
from graphfuse.decoder import decode_refine
from graphfuse.encoder import encode
from graphfuse.errors import ConfigError, ContractError, DegenerateBatchError
from graphfuse.gat import edge_alpha, gat_forward
from graphfuse.graph import build_fully_connected
from graphfuse.layers import named_parameters
from graphfuse.model import VARIANTS, ModelConfig, TokenClassifier
from graphfuse.rng import RngState
from graphfuse.tensor import Tensor

from helpers import assert_views_of_flat, attention_maps
from oracles import adamw_step_reference


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


FULL_ONE_BLOCK_LAYOUT = [
    ["encoder.embedding", [8, 8]],
    ["encoder.blocks.0.attn.q.w", [8, 8]],
    ["encoder.blocks.0.attn.k.w", [8, 8]],
    ["encoder.blocks.0.attn.v.w", [8, 8]],
    ["encoder.blocks.0.attn.o.w", [8, 8]],
    ["encoder.blocks.0.ff.inner.w", [8, 32]],
    ["encoder.blocks.0.ff.outer.w", [32, 8]],
    ["encoder.projection.w", [8, 8]],
    ["gat.W", [2, 8, 4]],
    ["gat.a_dst", [2, 4]],
    ["gat.a_src", [2, 4]],
    ["gat.proj.w", [8, 8]],
    ["decoder.self_attn.q.w", [8, 8]],
    ["decoder.self_attn.k.w", [8, 8]],
    ["decoder.self_attn.v.w", [8, 8]],
    ["decoder.self_attn.o.w", [8, 8]],
    ["decoder.cross_attn.q.w", [8, 8]],
    ["decoder.cross_attn.k.w", [8, 8]],
    ["decoder.cross_attn.v.w", [8, 8]],
    ["decoder.cross_attn.o.w", [8, 8]],
    ["decoder.ff.inner.w", [8, 32]],
    ["decoder.ff.outer.w", [32, 8]],
    ["head.w", [8, 3]],
    ["encoder.blocks.0.attn.q.b", [8]],
    ["encoder.blocks.0.attn.k.b", [8]],
    ["encoder.blocks.0.attn.v.b", [8]],
    ["encoder.blocks.0.attn.o.b", [8]],
    ["encoder.blocks.0.ff.inner.b", [32]],
    ["encoder.blocks.0.ff.outer.b", [8]],
    ["encoder.blocks.0.norm1.gain", [8]],
    ["encoder.blocks.0.norm1.bias", [8]],
    ["encoder.blocks.0.norm2.gain", [8]],
    ["encoder.blocks.0.norm2.bias", [8]],
    ["encoder.projection.b", [8]],
    ["gat.proj.b", [8]],
    ["decoder.self_attn.q.b", [8]],
    ["decoder.self_attn.k.b", [8]],
    ["decoder.self_attn.v.b", [8]],
    ["decoder.self_attn.o.b", [8]],
    ["decoder.cross_attn.q.b", [8]],
    ["decoder.cross_attn.k.b", [8]],
    ["decoder.cross_attn.v.b", [8]],
    ["decoder.cross_attn.o.b", [8]],
    ["decoder.ff.inner.b", [32]],
    ["decoder.ff.outer.b", [8]],
    ["decoder.norm1.gain", [8]],
    ["decoder.norm1.bias", [8]],
    ["decoder.norm2.gain", [8]],
    ["decoder.norm2.bias", [8]],
    ["decoder.norm3.gain", [8]],
    ["decoder.norm3.bias", [8]],
    ["head.b", [3]],
]


@dataclass
class _Leaf:
    w: Tensor
    n_heads: int


@dataclass
class _Tree:
    first: _Leaf
    table: np.ndarray
    items: list
    absent: object
    last: Tensor


class TestNamedParameters:
    def test_fields_in_order_list_items_by_index_other_leaves_skipped(self):
        a, b, c, d = (Tensor(np.zeros(k)) for k in (1, 2, 3, 4))
        tree = _Tree(first=_Leaf(a, 4), table=np.ones((2, 2)),
                     items=[_Leaf(b, 2), c], absent=None, last=d)
        named = named_parameters(tree, "root")
        assert list(named) == ["root.first.w", "root.items.0.w",
                               "root.items.1", "root.last"]
        assert all(x is y for x, y in zip(named.values(), (a, b, c, d)))


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
        # matrices first: the flat prefix is exactly the decayed weights
        params = model.parameters()
        decayed = [p for p in params.values() if p.data.ndim >= 2]
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
        decay = [len(shape) >= 2 for _, shape in layout]
        assert decay == sorted(decay, reverse=True)
        assert json.loads(json.dumps(layout)) == layout

    def test_layout_of_full_with_one_encoder_block(self):
        """The layout is the checkpoint's contract: renaming a field or
        moving a parameter must fail here (and bump the format version)."""
        model, _ = build_world("full", enc_layers=1)
        assert model.flat.layout == FULL_ONE_BLOCK_LAYOUT

    @pytest.mark.parametrize("enc_layers", [0, 1, 2])
    @pytest.mark.parametrize("variant", ["encoder", "gat", "full"])
    def test_rank_rule_decays_what_the_name_rule_decays(self, variant,
                                                        enc_layers):
        """The reference AdamW decays by name (not ``.b``, not ``.norm``).
        With zero gradients only weight decay moves a parameter, so the
        reference moves exactly the first ``n_decayed`` values."""
        model, _ = build_world(variant, enc_layers=enc_layers)
        ones = {name: np.ones(shape) for name, shape in model.flat.layout}
        zeros = {name: np.zeros(shape) for name, shape in model.flat.layout}
        adamw_step_reference(ones, zeros, {}, 0.5, (0.9, 0.999), 1e-8, 0.5)
        moved = np.concatenate([(a != 1.0).reshape(-1) for a in ones.values()])
        n = model.flat.n_decayed
        assert moved[:n].all() and not moved[n:].any()

    def test_training_pass_without_rng_raises(self):
        # loss() defaults to a training pass; at dropout 0.1 it needs an rng
        model, batches = build_world("full")
        with pytest.raises(ContractError, match="rng"):
            model.loss(batches[0])
        model.loss(batches[0], training=False)

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


def graph_nodes(loss):
    """Every tensor in the graph behind ``loss``, leaves included, once each."""
    nodes: dict[int, Tensor] = {}
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    return list(nodes.values())


def buffers_of_shape(loss, shape):
    """The root buffer of each array that the graph behind ``loss`` keeps
    alive and sees with ``shape``: through a node's ``.data`` or an array in
    its backward closure's cells. A view counts as the whole buffer it looks
    into, so a map held as a slice of a larger buffer keeps all of it."""
    roots: dict[int, np.ndarray] = {}
    for node in graph_nodes(loss):
        cells = (node._backward_fn.__closure__ or ()) if node._backward_fn else ()
        for value in [node.data, *(cell.cell_contents for cell in cells)]:
            if isinstance(value, np.ndarray) and value.shape == shape:
                root = value
                while root.base is not None:
                    root = root.base
                roots[id(root)] = root
    return list(roots.values())


def test_training_graph_keeps_four_attention_maps():
    """A full training graph keeps one float64 (B, heads, n, n) map per
    attention, the weights, plus the GAT's dropout mask: 4 maps' worth of
    bytes in all. The GAT's backward rebuilds the logit signs from the two
    score halves, so no bool map is kept."""
    model, batches = build_world("full", seed=5, d_emb=32, d=32, gat_hidden=32,
                                 gat_heads=8, dec_heads=8)
    batch = batches[0]
    B, n = batch.token_ids.shape
    loss = model.loss(batch, RngState(3), training=True)
    roots = buffers_of_shape(loss, (B, 8, n, n))
    kept = sum(r.nbytes for r in roots if r.dtype == np.float64)
    assert kept <= 4 * B * 8 * n * n * np.dtype(np.float64).itemsize
    assert not any(r.dtype == np.bool_ for r in roots)


def op_name(node):
    """The op that recorded ``node``, from its backward closure's name, or
    None for a leaf."""
    fn = node._backward_fn
    return None if fn is None else fn.__qualname__.split(".")[0]


def test_attention_heads_are_private_to_the_attention_ops():
    """Each attention takes its inputs straight from their projections: the
    head split lives inside ``T.attention``, and the GAT's per-head
    projection and score halves inside ``T.graph_attention``, so a
    relational-full training pass records 32 nodes and none of them permutes
    heads. The GAT multiplies no pad mask into its output."""
    model, batches = build_world("full", seed=5, d_emb=32, d=32, gat_hidden=32,
                                 gat_heads=8, dec_heads=8)
    loss = model.loss(batches[0], RngState(3), training=True)
    recorded = [node for node in graph_nodes(loss) if op_name(node) is not None]
    attention = [node for node in recorded if op_name(node) == "attention"]
    assert len(attention) == 2
    for node in attention:
        assert [op_name(p) for p in node._parents] == ["linear"] * 3
    [gat] = [node for node in recorded if op_name(node) == "graph_attention"]
    assert [op_name(p) for p in gat._parents] == ["linear", None, None, None]
    assert len(recorded) == 32


@pytest.mark.parametrize("enc_layers", [0, 1])
@pytest.mark.parametrize("variant", VARIANTS)
def test_a_batch_with_no_tokens(variant, enc_layers):
    """``forward`` alone checks for n = 0: it gives (B, 0, L) logits and runs
    no stage, so ``loss`` raises DegenerateBatchError and ``predict_batch``
    gives each sentence ``[]``."""
    model, _ = build_world(variant, enc_layers=enc_layers)
    [batch] = make_batches([Sentence([], [])] * 3, 4, 16, model.token_vocab,
                           model.label_vocab)
    L = model.config.n_labels
    collect = {}
    assert model.forward(batch, collect=collect).shape == (3, 0, L)
    assert collect == {}
    for training in (True, False):
        with pytest.raises(DegenerateBatchError):
            model.loss(batch, RngState(0), training=training)
    assert model.predict_batch(batch) == [[], [], []]


def test_pad_rows_of_the_gat_output_do_not_matter(monkeypatch):
    """Pad keys get exactly zero weight and the loss gives pad logits an
    exactly zero gradient, so zeroing the GAT's pad rows changes the pad
    logits only: the loss and every gradient keep their bytes."""
    model, batches = build_world("full", n_sents=6, enc_layers=1)
    batch = next(b for b in batches if min(b.lengths) < b.token_ids.shape[1])
    real = np.arange(batch.token_ids.shape[1]) < np.asarray(batch.lengths)[:, None]

    def run():
        model.zero_grad()
        loss = model.loss(batch, RngState(3), training=True)
        loss.backward()
        return model.forward(batch).data, loss.data.tobytes(), model.flat.grad.copy()

    def masked_gat(H, lengths, params, drop):
        return gat_forward(H, lengths, params, drop) * real[..., None]

    logits, loss, grad = run()
    monkeypatch.setattr(model_module, "gat_forward", masked_gat)
    masked_logits, masked_loss, masked_grad = run()
    assert masked_logits[real].tobytes() == logits[real].tobytes()
    assert (masked_logits[~real] != logits[~real]).any()
    assert masked_loss == loss
    assert masked_grad.tobytes() == grad.tobytes()


def test_dropout_rate_has_one_owner():
    """Every stage reads the rate from the model's config: at 0 a training
    pass draws nothing and equals the eval pass bitwise."""
    model, batches = build_world("full", seed=6, enc_layers=1)
    batch = batches[0]
    eval_loss = model.loss(batch, training=False).item()
    assert model.loss(batch, RngState(4), training=True).item() != eval_loss
    model.config.dropout = 0.0
    assert model.loss(batch, RngState(4), training=True).item() == eval_loss


class TestAttentionCapture:
    """``forward(..., collect=...)`` records the GAT's and decoder's maps and
    nothing else, and leaves no recorder set behind it."""

    @pytest.mark.parametrize("enc_layers", [0, 1])
    @pytest.mark.parametrize("variant, keys", [
        ("encoder", []), ("gat", ["gat_alpha"]),
        ("full", ["dec_cross", "dec_self", "gat_alpha"])])
    def test_collect_holds_the_gat_and_decoder_maps(self, variant, keys,
                                                    enc_layers):
        model, batches = build_world(variant, n_sents=6, enc_layers=enc_layers)
        batch = batches[1]
        # the stage maps, recorded one stage at a time
        with attention_maps() as encoder_maps:
            H = encode(batch, model.encoder, None)
        with attention_maps() as maps:
            if model.gat is not None:
                H = gat_forward(H, batch.lengths, model.gat, None)
            if model.decoder is not None:
                decode_refine(H, batch.lengths, model.decoder, None)
        assert len(encoder_maps) == enc_layers

        collect = {}
        logits = model.forward(batch, collect=collect)
        assert sorted(collect) == keys
        assert logits.data.tobytes() == model.forward(batch).data.tobytes()
        if model.gat is not None:
            want = edge_alpha(maps[0], batch.lengths,
                              build_fully_connected(batch.lengths))
            for got, expected in zip(collect["gat_alpha"], want, strict=True):
                assert got.tobytes() == expected.tobytes()
        if model.decoder is not None:
            assert [len(collect["dec_self"]), len(collect["dec_cross"])] == [1, 1]
            assert collect["dec_self"][0].tobytes() == maps[1].tobytes()
            assert collect["dec_cross"][0].tobytes() == maps[2].tobytes()

    @pytest.mark.parametrize("variant", ["gat", "full"])
    def test_collect_accepts_an_empty_sentence(self, variant):
        # the edge list holds only the nonempty samples' graphs, and an
        # empty sample gets no rows
        model, _ = build_world(variant, enc_layers=1)
        lengths = [int(m) for m in RngState(7).integers(1, 7, (10,))]
        lengths[5] = 0
        corpus = [Sentence([f"t{i}" for i in range(m)], ["O"] * m)
                  for m in lengths]
        batches = make_batches(corpus, 4, 16, model.token_vocab,
                               model.label_vocab)
        assert batches[1].lengths[1] == 0
        for batch in batches:
            collect = {}
            logits = model.forward(batch, collect=collect)
            assert logits.data.tobytes() == model.forward(batch).data.tobytes()
            alpha, targets = collect["gat_alpha"]
            assert alpha.shape == (sum(m * m for m in batch.lengths),
                                   model.gat.n_heads)
            sums = np.zeros((sum(batch.lengths), model.gat.n_heads))
            np.add.at(sums, targets, alpha)
            np.testing.assert_allclose(sums, 1.0, rtol=0, atol=1e-12)

    def test_recorder_is_reset_after_a_pass_and_after_a_raise(self,
                                                              monkeypatch):
        model, batches = build_world("full", enc_layers=1)
        batch = batches[0]
        collect = {}
        model.forward(batch, collect=collect)
        assert T._attention_maps.get() is None

        class Failure(Exception):
            pass

        recorders = []

        def failing_decoder(*args):
            recorders.append(T._attention_maps.get())
            raise Failure

        monkeypatch.setattr(model_module, "decode_refine", failing_decoder)
        with pytest.raises(Failure):
            model.forward(batch, collect={})
        monkeypatch.undo()
        assert T._attention_maps.get() is None
        leaked = recorders[0]  # the failed pass's list: the GAT's map only
        assert len(leaked) == 1

        # a later pass, encoder block included, appends to neither list
        model.predict_batch(batch)
        model.loss(batch, RngState(0), training=True)
        assert len(leaked) == 1
        assert [len(collect["dec_self"]), len(collect["dec_cross"])] == [1, 1]


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
