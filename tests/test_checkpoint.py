"""Checkpoint round-trip tests."""

import json
import struct
import zipfile
from dataclasses import asdict

import numpy as np
import pytest

from graphfuse.checkpoint import load_checkpoint, save_checkpoint
from graphfuse.data import build_label_vocab, build_token_vocab
from graphfuse.errors import ConfigError
from graphfuse.evaluation import predict_corpus
from graphfuse.model import ModelConfig, TokenClassifier
from graphfuse.rng import RngState
from graphfuse.synth import copy_spec, generate

from helpers import assert_views_of_flat


@pytest.fixture()
def setup():
    splits = generate(copy_spec(seed=30))
    sents = splits["valid"][:10]
    token_vocab = build_token_vocab(sents)
    label_vocab = build_label_vocab(sents)
    config = ModelConfig(vocab_size=len(token_vocab),
                         n_labels=len(label_vocab),
                         d_emb=16, d=16, gat_hidden=16, gat_heads=2,
                         enc_heads=2, dec_heads=2, dropout=0.0, max_len=16)
    model = TokenClassifier(config, token_vocab, label_vocab, RngState(9))
    return model, sents


class TestRoundTrip:
    def test_bit_exact_parameters(self, setup, tmp_path):
        model, _ = setup
        path = tmp_path / "ckpt.npz"
        save_checkpoint(str(path), model)
        loaded = load_checkpoint(str(path))
        assert_views_of_flat(loaded)
        assert loaded.flat.data.tobytes() == model.flat.data.tobytes()
        orig = model.parameters()
        new = loaded.parameters()
        assert set(orig) == set(new)
        for name in orig:
            assert np.array_equal(orig[name].data, new[name].data), name
            assert orig[name].data.dtype == new[name].data.dtype

    def test_identical_predictions(self, setup, tmp_path):
        model, sents = setup
        path = tmp_path / "ckpt.npz"
        save_checkpoint(str(path), model)
        loaded = load_checkpoint(str(path))
        a = predict_corpus(model, sents, batch_size=4, max_len=16)
        b = predict_corpus(loaded, sents, batch_size=4, max_len=16)
        assert a == b

    def test_archive_holds_meta_and_flat_params(self, setup, tmp_path):
        model, _ = setup
        path = tmp_path / "ckpt.npz"
        save_checkpoint(str(path), model)
        with np.load(path, allow_pickle=False) as blob:
            assert sorted(blob.files) == ["__meta__", "params"]
            meta = json.loads(str(blob["__meta__"]))
            assert blob["params"].tobytes() == model.flat.data.tobytes()
        assert meta["format_version"] == 2
        assert meta["layout"] == model.flat.layout

    def test_vocabs_restored(self, setup, tmp_path):
        model, _ = setup
        path = tmp_path / "ckpt.npz"
        save_checkpoint(str(path), model)
        loaded = load_checkpoint(str(path))
        assert loaded.token_vocab.token_to_id == model.token_vocab.token_to_id
        assert loaded.label_vocab.label_to_id == model.label_vocab.label_to_id
        assert loaded.label_vocab.id_to_label == model.label_vocab.id_to_label
        assert loaded.config == model.config

    def test_exact_filename_no_suffix(self, setup, tmp_path):
        model, _ = setup
        path = tmp_path / "weights.bin"  # no .npz extension
        save_checkpoint(str(path), model)
        assert path.exists()
        assert not (tmp_path / "weights.bin.npz").exists()
        load_checkpoint(str(path))

    def test_failed_save_keeps_existing_checkpoint(self, setup, tmp_path,
                                                   monkeypatch):
        model, _ = setup
        path = tmp_path / "ckpt.npz"
        save_checkpoint(str(path), model)
        saved = {n: p.data.copy() for n, p in model.parameters().items()}

        def fail(*args, **kwargs):
            raise OSError("no space left on device")

        monkeypatch.setattr(np, "savez", fail)
        for p in model.parameters().values():
            p.data += 1.0
        with pytest.raises(OSError):
            save_checkpoint(str(path), model)
        monkeypatch.undo()
        assert sorted(tmp_path.iterdir()) == [path]  # no temp file left behind
        loaded = load_checkpoint(str(path)).parameters()
        for name, want in saved.items():
            assert np.array_equal(loaded[name].data, want), name


def _edit_archive(edit):
    """Rewrite the archive with ``edit`` applied to its name -> array dict."""
    def mutate(path):
        blob = edit(dict(np.load(path, allow_pickle=False)))
        with open(path, "wb") as fh:
            np.savez(fh, **blob)
    return mutate


def _edit_meta(edit):
    return _edit_archive(lambda blob: {**blob, "__meta__": np.array(
        json.dumps(edit(json.loads(str(blob["__meta__"])))))})


def _edit_layout(edit):
    return _edit_meta(lambda m: {**m, "layout": edit(m["layout"])})


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


def _flip_param_byte(path):
    """Flip one byte inside the largest entry's stored data (bad CRC)."""
    data = bytearray(path.read_bytes())
    with zipfile.ZipFile(path) as zf:
        info = max(zf.infolist(), key=lambda i: i.compress_size)
    name_len, extra_len = struct.unpack_from("<HH", data, info.header_offset + 26)
    data[info.header_offset + 30 + name_len + extra_len + info.compress_size // 2] ^= 0xFF
    path.write_bytes(bytes(data))


def _bare_npy(path):
    with open(path, "wb") as fh:
        np.save(fh, np.zeros(3))


def _central_entry_byte(offset, value):
    """Set one byte of the archive's first central-directory entry."""
    def mutate(path):
        data = bytearray(path.read_bytes())
        data[data.index(b"PK\x01\x02") + offset] = value
        path.write_bytes(bytes(data))
    return mutate


def _edit_npy_header(old, new):
    """Replace ``old`` by ``new`` in the largest entry's npy header.

    The entry spans several zip reads, so numpy parses the header before
    zipfile has checked the CRC.
    """
    def mutate(path):
        data = path.read_bytes()
        with zipfile.ZipFile(path) as zf:
            info = max(zf.infolist(), key=lambda i: i.compress_size)
        at = data.index(old, info.header_offset)
        path.write_bytes(data[:at] + new + data[at + len(old):])
    return mutate


# each must end in ConfigError (exit 2), not in a traceback or, for
# pad-remapped and ignore-label-as-class, in a corrupted vocabulary that
# loads silently
CORRUPTIONS = {
    "no-token-vocab": _edit_meta(
        lambda m: {k: v for k, v in m.items() if k != "token_vocab"}),
    "meta-is-list": _edit_meta(lambda m: list(m.values())),
    "vocab-is-list": _edit_meta(
        lambda m: {**m, "token_vocab": list(m["token_vocab"])}),
    "label-id-out-of-range": _edit_meta(
        lambda m: {**m, "label_vocab": {**m["label_vocab"], "B-ZZZ": 99}}),
    "pad-remapped": _edit_meta(
        lambda m: {**m, "token_vocab": {**m["token_vocab"], "<pad>": 2}}),
    "ignore-label-as-class": _edit_meta(
        lambda m: {**m, "label_vocab": {"O": 0, "-100": 1, **{
            l: i for l, i in m["label_vocab"].items() if i > 1}}}),
    "truncated": _truncate,
    "bare-npy": _bare_npy,
    "flipped-byte": _flip_param_byte,
    # zipfile raises RuntimeError and NotImplementedError for these, and
    # numpy's npy header parser tokenize.TokenError and SyntaxError
    "encrypted-flag": _central_entry_byte(8, 1),
    "unknown-compression": _central_entry_byte(10, 99),
    "unknown-zip-version": _central_entry_byte(6, 99),
    "unbalanced-npy-shape": _edit_npy_header(b"), }", b"(, }"),
    "garbled-npy-dtype": _edit_npy_header(b"'<f8'", b"',f8'"),
    # the stored layout must equal the rebuilt model's, entry for entry
    "layout-renamed-entry": _edit_layout(
        lambda l: [["bogus", l[0][1]], *l[1:]]),
    "layout-changed-shape": _edit_layout(
        lambda l: [[l[0][0], [l[0][1][0] + 1, *l[0][1][1:]]], *l[1:]]),
    "layout-swapped-entries": _edit_layout(lambda l: [l[1], l[0], *l[2:]]),
    "layout-not-a-list": _edit_layout(lambda l: dict(l)),
    "no-params": _edit_archive(
        lambda b: {k: v for k, v in b.items() if k != "params"}),
    "params-one-short": _edit_archive(
        lambda b: {**b, "params": b["params"][:-1]}),
    "extra-entry": _edit_archive(lambda b: {**b, "extra": np.zeros(3)}),
}


class TestErrors:
    @pytest.mark.parametrize("mutate", CORRUPTIONS.values(), ids=CORRUPTIONS)
    def test_corrupt_checkpoint(self, setup, tmp_path, mutate):
        model, _ = setup
        path = tmp_path / "ckpt.npz"
        save_checkpoint(str(path), model)
        mutate(path)
        with pytest.raises(ConfigError):
            load_checkpoint(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_checkpoint(str(tmp_path / "absent.npz"))

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, foo=np.zeros(3))
        with pytest.raises(ConfigError):
            load_checkpoint(str(path))

    def test_version_1_archive(self, setup, tmp_path):
        """A version 1 file stored one ``param::<name>`` entry per parameter
        and no layout; it is refused by its version, with a hint to retrain."""
        model, _ = setup
        meta = {"format_version": 1, "config": asdict(model.config),
                "token_vocab": model.token_vocab.token_to_id,
                "label_vocab": model.label_vocab.label_to_id}
        path = tmp_path / "ckpt.npz"
        with open(path, "wb") as fh:
            np.savez(fh, __meta__=np.array(json.dumps(meta)),
                     **{f"param::{name}": p.data
                        for name, p in model.parameters().items()})
        with pytest.raises(ConfigError, match="version 1.*retrain"):
            load_checkpoint(str(path))

    def test_wrong_version(self, setup, tmp_path):
        model, _ = setup
        path = tmp_path / "ckpt.npz"
        save_checkpoint(str(path), model)
        blob = dict(np.load(path, allow_pickle=False))
        meta = json.loads(str(blob["__meta__"]))
        meta["format_version"] = 99
        blob["__meta__"] = np.array(json.dumps(meta))
        np.savez(path, **blob)
        with pytest.raises(ConfigError):
            load_checkpoint(str(path))

    # gat_residual, negative_slope, dec_layers: removed keys that older
    # checkpoints store
    @pytest.mark.parametrize("key", ["bogus", "vocab_size", "gat_residual",
                                     "negative_slope", "dec_layers"])
    def test_bad_stored_config(self, setup, tmp_path, key):
        model, _ = setup
        path = tmp_path / "ckpt.npz"
        save_checkpoint(str(path), model)
        blob = dict(np.load(path, allow_pickle=False))
        meta = json.loads(str(blob["__meta__"]))
        stored = meta["config"]
        if key in stored:
            del stored[key]  # a required key is gone
        else:
            stored[key] = 1  # a key ModelConfig does not have
        blob["__meta__"] = np.array(json.dumps(meta))
        with open(path, "wb") as fh:
            np.savez(fh, **blob)
        with pytest.raises(ConfigError, match=key):
            load_checkpoint(str(path))
