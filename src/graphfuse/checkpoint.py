"""Versioned checkpoint container.

One ``.npz`` file holds every named parameter as a float64 array (bit-exact
round-trip) plus a JSON metadata record with the model config and both
vocabularies. Loading rebuilds the model and overwrites its freshly
initialized parameters with the stored ones.
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
    with np.load(path, allow_pickle=False) as blob:
        if _META_KEY not in blob:
            raise ConfigError(f"{path} is not a graphfuse checkpoint")
        meta = json.loads(str(blob[_META_KEY][()]))
        version = meta.get("format_version")
        if version != FORMAT_VERSION:
            raise ConfigError(f"unsupported checkpoint version {version!r}")
        config = build_config(ModelConfig, meta.get("config"), "checkpoint model")
        token_vocab = TokenVocab.from_json(json.dumps(meta["token_vocab"]))
        label_vocab = LabelVocab.from_json(json.dumps(meta["label_vocab"]))
        model = TokenClassifier(config, token_vocab, label_vocab, RngState(0))
        params = model.parameters()
        stored = {k[len(_PARAM_PREFIX):] for k in blob.files
                  if k.startswith(_PARAM_PREFIX)}
        missing = sorted(set(params) - stored)
        extra = sorted(stored - set(params))
        if missing or extra:
            raise ConfigError(
                f"checkpoint/model parameter mismatch; missing {missing}, "
                f"unexpected {extra}")
        for name, p in params.items():
            arr = blob[_PARAM_PREFIX + name]
            if arr.shape != p.data.shape:
                raise ConfigError(f"{name}: stored shape {arr.shape} != "
                                  f"model shape {p.data.shape}")
            p.data = arr.astype(np.float64, copy=True)
    return model
