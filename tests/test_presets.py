"""Preset tests: every named bundle builds valid configs, so a stale or
misspelled key fails here rather than at a user's ``--preset``."""

import pytest

from graphfuse.model import ModelConfig, build_config
from graphfuse.presets import PRESETS, get_preset
from graphfuse.training import TrainConfig


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_builds_valid_configs(name):
    preset = get_preset(name)
    assert set(preset) == {"model", "train"}
    model = build_config(ModelConfig, preset["model"], "model",
                         vocab_size=10, n_labels=3)
    train = build_config(TrainConfig, preset["train"], "train")
    assert train.max_len == model.max_len  # train() rejects a mismatch

