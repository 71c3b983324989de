"""Versioned checkpoint container, format version 3.

One ``.npz`` file holds exactly two entries: ``params``, the model's flat
float64 parameter buffer (a bit-exact round trip), and ``__meta__``, JSON with
the model config, both vocabularies and ``layout``, the buffer's ``[name,
shape]`` list, each name a field path. Loading checks that layout against
the rebuilt model's.
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

FORMAT_VERSION = 3
_META_KEY = "__meta__"
_PARAMS_KEY = "params"
_META_FIELDS = {"format_version", "config", "token_vocab", "label_vocab",
                "layout"}


class _NoDraws:
    """The draw source of a model whose parameters a load overwrites: the
    stage ``init``s get uninitialised arrays, and no random number is drawn."""

    def split(self) -> "_NoDraws":
        return self

    def uniform(self, low: float, high: float, shape=()) -> np.ndarray:
        return np.empty(shape)

    def normal(self, shape=(), std: float = 1.0) -> np.ndarray:
        return np.empty(shape)


def save_checkpoint(path: str, model: TokenClassifier) -> None:
    meta = {
        "format_version": FORMAT_VERSION,
        "config": asdict(model.config),
        "token_vocab": model.token_vocab.token_to_id,
        "label_vocab": model.label_vocab.label_to_id,
        "layout": model.flat.layout,
    }
    # write beside the target and rename, so a failed save leaves any
    # existing checkpoint at ``path`` intact
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            np.savez(fh, **{_META_KEY: np.array(json.dumps(meta)),
                            _PARAMS_KEY: model.flat.data})
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
        # numpy does not close a file it opened when the archive fails to parse
        with open(path, "rb") as fh:
            blob = np.load(fh, allow_pickle=False)
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
    # the version goes first: an older file also differs in its other keys
    version = meta.get("format_version") if isinstance(meta, dict) else None
    if version not in (None, FORMAT_VERSION):
        raise ConfigError(f"{path}: unsupported checkpoint version {version!r};"
                          f" retrain to get a version {FORMAT_VERSION} checkpoint")
    if not isinstance(meta, dict) or set(meta) != _META_FIELDS:
        raise ConfigError(f"{path} is not a graphfuse checkpoint: its metadata "
                          f"must be an object with exactly the keys "
                          f"{sorted(_META_FIELDS)}")
    if sorted(entries) != [_PARAMS_KEY]:
        raise ConfigError(f"{path}: archive entries {sorted(entries)} besides "
                          f"{_META_KEY!r} must be exactly [{_PARAMS_KEY!r}]")
    config = build_config(ModelConfig, meta["config"], "checkpoint model")
    token_vocab = TokenVocab.from_mapping(meta["token_vocab"])
    label_vocab = LabelVocab.from_mapping(meta["label_vocab"])
    model = TokenClassifier(config, token_vocab, label_vocab, _NoDraws())
    layout, stored = model.flat.layout, meta["layout"]
    if stored != layout:  # name the first entry that differs
        stored = stored if isinstance(stored, list) else [stored]
        i = next(i for i in range(len(layout) + 1)
                 if i in (len(layout), len(stored)) or stored[i] != layout[i])
        raise ConfigError(f"{path}: layout entry {i} is {stored[i:i + 1]} in "
                          f"the checkpoint but {layout[i:i + 1]} in the model")
    params = entries[_PARAMS_KEY]
    if params.dtype != np.float64 or params.shape != model.flat.data.shape:
        raise ConfigError(f"{path}: {_PARAMS_KEY!r} must be float64 of shape "
                          f"{model.flat.data.shape}, got {params.dtype} "
                          f"of shape {params.shape}")
    model.flat.data[...] = params
    return model
