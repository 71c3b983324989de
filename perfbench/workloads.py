"""The benchmark's workloads and the set-up that turns a seed into inputs.

Each workload is one model configuration trained and served on synthetic
data from ``graphfuse.synth.generate``. The workload seed only seeds the
data; model initialisation and dropout use the fixed training seed, so a
seed changes what the program sees and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass

from graphfuse.data import build_label_vocab, build_token_vocab
from graphfuse.model import ModelConfig, TokenClassifier
from graphfuse.presets import get_preset
from graphfuse.rng import RngState
from graphfuse.synth import TaskSpec, copy_spec, generate, relational_spec
from graphfuse.training import TrainConfig

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    task: str               # "copy" or "relational-match"
    n_train: int
    n_valid: int
    n_test: int
    preset: str
    variant: str
    epochs: int

    def spec(self, seed: int) -> TaskSpec:
        make = copy_spec if self.task == "copy" else relational_spec
        return make(seed=seed, n_train=self.n_train, n_valid=self.n_valid,
                    n_test=self.n_test)

    def configs(self, vocab_size: int, n_labels: int) -> tuple[ModelConfig, TrainConfig]:
        preset = get_preset(self.preset)
        model, train = preset["model"], preset["train"]
        model["variant"] = self.variant
        # patience == epochs: every epoch runs, so each cycle does fixed work
        train.update(epochs=self.epochs, early_stop_patience=self.epochs,
                     max_len=model["max_len"])
        return (ModelConfig(vocab_size=vocab_size, n_labels=n_labels, **model),
                TrainConfig(**train))


WORKLOADS = (
    Workload(
        name="relational-full",
        why=("full variant at the relational preset (d=32, 8 heads) on "
             "relational-match data: the paper's design at desk scale, where "
             "GAT, decoder and autodiff backward take most of the time"),
        task="relational-match", n_train=240, n_valid=32, n_test=96,
        preset="relational", variant="full", epochs=1),
    Workload(
        name="copy-encoder",
        why=("encoder variant at the copy preset on 6-12 token copy data: GAT "
             "and decoder are bypassed and per-node Python overhead dominates; "
             "the control that GAT and decoder changes must not move"),
        task="copy", n_train=2400, n_valid=240, n_test=1200,
        preset="copy", variant="encoder", epochs=1),
)

BY_NAME = {w.name: w for w in WORKLOADS}


@dataclass
class Prepared:
    """Everything a workload needs before its first timed call."""

    workload: Workload
    splits: dict
    model_config: ModelConfig
    train_config: TrainConfig
    token_vocab: object
    label_vocab: object

    def new_model(self) -> TokenClassifier:
        return TokenClassifier(self.model_config, self.token_vocab,
                               self.label_vocab, RngState(self.train_config.seed))

    def tokens(self, split: str) -> int:
        max_len = self.model_config.max_len
        return sum(min(len(s), max_len) for s in self.splits[split])


def prepare(workload: Workload, seed: int, span) -> Prepared:
    """Generate the data, build vocabularies and configs for one seed.

    ``span`` maps a layer name to a context manager that times it.
    """
    spec = workload.spec(seed)
    with span("synth.generate"):
        splits = generate(spec)
    tokens = build_token_vocab(splits["train"])
    labels = build_label_vocab(splits["train"])
    model_config, train_config = workload.configs(len(tokens), len(labels))
    if spec.len_max > model_config.max_len:
        raise ValueError(f"{workload.name}: sentences up to {spec.len_max} "
                         f"tokens exceed max_len {model_config.max_len}")
    return Prepared(workload, splits, model_config, train_config, tokens, labels)
