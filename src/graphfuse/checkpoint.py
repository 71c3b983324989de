"""Versioned checkpoint container.

One ``.npz`` file holds every named parameter as a float64 array (bit-exact
round-trip) plus a JSON metadata record with the model config and both
vocabularies. Loading rebuilds the model and writes the stored values,
which must be float64 of the model's shapes, into its parameter buffer.
"""

from __future__ import annotations

import json
import os
import uuid
from dataclasses import asdict

import numpy as np

from .data import LabelVocab, TokenVocab
from .errors import ConfigError
from .model import ModelConfig, TokenClassifier, build_config
from .rng import RngState

FORMAT_VERSION = 1
_META_KEY = "__meta__"
_PARAM_PREFIX = "param::"
_META_FIELDS = {"format_version", "config", "token_vocab", "label_vocab"}


def save_checkpoint(path: str, model: TokenClassifier) -> None:
    meta = {
        "format_version": FORMAT_VERSION,
        "config": asdict(model.config),
        "token_vocab": model.token_vocab.token_to_id,
        "label_vocab": model.label_vocab.label_to_id,
    }
    arrays = {_PARAM_PREFIX + name: p.data
              for name, p in model.parameters().items()}
    # write beside the target and rename, so a failed save leaves any
    # existing checkpoint at ``path`` intact
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            np.savez(fh, **{_META_KEY: np.array(json.dumps(meta))}, **arrays)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_checkpoint(path: str) -> TokenClassifier:
    if not os.path.exists(path):
        raise ConfigError(f"checkpoint not found: {path}")
    # read every entry up front, so a truncated file or a bad CRC is one
    # error naming the path, not a zip error halfway through loading
    try:
        blob = np.load(path, allow_pickle=False)
        if isinstance(blob, np.lib.npyio.NpzFile):
            with blob:
                entries = {k: blob[k] for k in blob.files}
            meta = json.loads(str(entries.pop(_META_KEY)[()])) \
                if _META_KEY in entries else None
    # The block only reads the file, and damaged bytes surface as many types:
    # BadZipFile, NotImplementedError and RuntimeError from zipfile (a bad CRC,
    # compression method or flag), ValueError, SyntaxError and
    # tokenize.TokenError from numpy's npy header parser, ValueError from json.
    except Exception as exc:
        raise ConfigError(f"{path}: unreadable checkpoint ({exc})") from exc
    if not isinstance(blob, np.lib.npyio.NpzFile):  # a bare .npy array
        raise ConfigError(f"{path} is not an .npz archive")
    if not isinstance(meta, dict) or set(meta) != _META_FIELDS:
        raise ConfigError(f"{path} is not a graphfuse checkpoint: its metadata "
                          f"must be an object with exactly the keys "
                          f"{sorted(_META_FIELDS)}")
    version = meta["format_version"]
    if version != FORMAT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {version!r}")
    config = build_config(ModelConfig, meta["config"], "checkpoint model")
    token_vocab = TokenVocab.from_mapping(meta["token_vocab"])
    label_vocab = LabelVocab.from_mapping(meta["label_vocab"])
    model = TokenClassifier(config, token_vocab, label_vocab, RngState(0))
    params = model.parameters()
    stored = {k[len(_PARAM_PREFIX):]: v for k, v in entries.items()
              if k.startswith(_PARAM_PREFIX)}
    missing = sorted(set(params) - set(stored))
    extra = sorted(set(stored) - set(params))
    if missing or extra:
        raise ConfigError(
            f"checkpoint/model parameter mismatch; missing {missing}, "
            f"unexpected {extra}")
    for name, p in params.items():
        arr = stored[name]
        if arr.dtype != np.float64:
            raise ConfigError(f"{name}: stored dtype {arr.dtype} is not float64")
        if arr.shape != p.data.shape:
            raise ConfigError(f"{name}: stored shape {arr.shape} != "
                              f"model shape {p.data.shape}")
        p.data[...] = arr
    return model
