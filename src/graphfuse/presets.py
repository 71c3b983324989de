"""Named hyperparameter bundles.

``phoner``, ``vietmed`` and ``disfluency`` carry the published fine-tuning
settings for users who have the real datasets (max sequence length 128,
batch size 16, dropout 0.3; GAT hidden size 256 with 8 heads, except
disfluency which uses 4). The paper's weight decay 0.01, clipping 1.0 and
warmup ratio 0.1 are shared by every run, so they are the constants
``WEIGHT_DECAY``, ``CLIP_NORM`` and ``WARMUP_RATIO`` of ``graphfuse.training``.
``copy`` and ``relational`` are small, fast configurations sized for the
bundled synthetic tasks on a single CPU core.

A preset is a plain dict with "model" and "train" sub-dicts whose keys match
ModelConfig / TrainConfig field names; dropout and variant are model keys.
Anything not listed falls through to the dataclass defaults.
"""

from __future__ import annotations

import copy

from .errors import ConfigError

PRESETS: dict[str, dict] = {
    "phoner": {
        "model": {
            "d_emb": 256, "d": 256, "gat_hidden": 256,
            "gat_heads": 8, "enc_heads": 8, "dec_heads": 8,
            "dropout": 0.3, "max_len": 128,
        },
        "train": {
            "learning_rate": 5e-5, "epochs": 15, "batch_size": 16,
            "max_len": 128,
        },
    },
    "vietmed": {
        "model": {
            "d_emb": 256, "d": 256, "gat_hidden": 256,
            "gat_heads": 8, "enc_heads": 8, "dec_heads": 8,
            "dropout": 0.3, "max_len": 128,
        },
        "train": {
            "learning_rate": 3e-5, "epochs": 15, "batch_size": 16,
            "max_len": 128,
        },
    },
    "disfluency": {
        "model": {
            "d_emb": 256, "d": 256, "gat_hidden": 256,
            "gat_heads": 4, "enc_heads": 4, "dec_heads": 4,
            "dropout": 0.3, "max_len": 128,
        },
        "train": {
            "learning_rate": 2e-5, "epochs": 10, "batch_size": 16,
            "max_len": 128,
        },
    },
    # Desk-scale settings tuned on the synthetic tasks (single CPU core).
    "copy": {
        "model": {
            "d_emb": 32, "d": 32, "gat_hidden": 32,
            "gat_heads": 8, "enc_heads": 8, "dec_heads": 8,
            "dropout": 0.1, "max_len": 16,
        },
        "train": {
            "learning_rate": 3e-3, "epochs": 12, "batch_size": 16,
            "max_len": 16, "early_stop_patience": 4,
        },
    },
    "relational": {
        "model": {
            "d_emb": 32, "d": 32, "gat_hidden": 32,
            "gat_heads": 8, "enc_heads": 8, "dec_heads": 8,
            "dropout": 0.1, "max_len": 40,
        },
        "train": {
            "learning_rate": 3e-3, "epochs": 50, "batch_size": 16,
            "max_len": 40, "early_stop_patience": 10,
        },
    },
}


def get_preset(name: str) -> dict:
    """Return a deep copy of the named preset (callers may mutate it)."""
    if name not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise ConfigError(f"unknown preset {name!r}; available: {known}")
    return copy.deepcopy(PRESETS[name])
