"""AdamW trainer: linear warmup/decay, global-norm clipping, early stopping
on validation micro-F1, deterministic given the seed.

The model keeps its parameters in one flat buffer and their gradients in a
second (``layers.FlatParams``). The matrices come first and are the only
values weight decay touches; vectors (biases, layer-norm gains and biases)
are exempt. AdamW keeps its first and second moments in two more buffers of
that layout, so a step is a few vector operations over all parameters. It is bitwise equal to a
per-parameter loop because every element sees the same operations in the
same order. The best-epoch snapshot is one copy of the parameter buffer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Corpus, make_batches
from .errors import ConfigError, ContractError, TrainingDivergedError
from .evaluation import evaluate
from .layers import FlatParams
from .model import TokenClassifier
from .rng import RngState

ADAM_BETAS = (0.9, 0.999)  # decay rates of the first and second moments
ADAM_EPS = 1e-8            # added to the root of the second moment
WEIGHT_DECAY = 0.01        # decoupled decay of the matrices, per unit lr
CLIP_NORM = 1.0            # global L2 norm the gradients are clipped to
WARMUP_RATIO = 0.1         # share of the steps the lr warms up over


@dataclass
class TrainConfig:
    learning_rate: float = 5e-5
    batch_size: int = 16
    epochs: int = 15
    max_len: int = 128
    early_stop_patience: int = 3
    seed: int = 0

    def validate(self) -> None:
        if not 0 <= self.learning_rate < math.inf:  # NaN fails every comparison
            raise ConfigError(f"learning_rate must be >= 0 and finite, "
                              f"got {self.learning_rate}")
        for key in ("batch_size", "epochs", "max_len", "early_stop_patience"):
            value = getattr(self, key)
            if value < 1:
                raise ConfigError(f"{key} must be >= 1, got {value}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def lr_schedule(step: int, total_steps: int, warmup_ratio: float,
                peak: float) -> float:
    """Linear 0 -> peak over the warmup, then linear peak -> 0 at total_steps."""
    if total_steps <= 0:
        raise ConfigError(f"total_steps must be positive, got {total_steps}")
    if not 0 <= step <= total_steps:
        raise ContractError(f"step {step} outside [0, {total_steps}]")
    warmup_steps = round(warmup_ratio * total_steps)
    if warmup_steps >= total_steps:
        warmup_steps = total_steps - 1
    if warmup_steps > 0 and step <= warmup_steps:
        return peak * step / warmup_steps
    return peak * (total_steps - step) / (total_steps - warmup_steps)


def clip_gradients(grads: list[np.ndarray], max_norm: float) -> float:
    """Scale gradients in place to a global L2 norm of max_norm; return the scale."""
    total = math.sqrt(sum(float((g * g).sum()) for g in grads))
    if total <= max_norm or total == 0.0:
        return 1.0
    scale = max_norm / total
    for g in grads:
        g *= scale
    return scale


class OptState:
    """AdamW's moments, laid out like the parameter buffer, and its step."""

    def __init__(self, size: int):
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.step = 0


def adamw_step(flat: FlatParams, state: OptState, lr: float) -> None:
    """One decoupled-weight-decay Adam update of ``flat.data``, in place,
    from the gradients in ``flat.grad``."""
    if state.m.size != flat.data.size:
        raise ContractError(f"adamw_step got {flat.data.size} parameter values; "
                            f"its state holds moments for {state.m.size}")
    b1, b2 = ADAM_BETAS
    state.step += 1
    t = state.step
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    g, m, v = flat.grad, state.m, state.v
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * (g * g)
    update = v / bc2
    np.sqrt(update, out=update)
    update += ADAM_EPS
    np.divide(m / bc1, update, out=update)
    update[:flat.n_decayed] += WEIGHT_DECAY * flat.data[:flat.n_decayed]
    update *= lr
    flat.data -= update


@dataclass
class TrainResult:
    history: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    best_micro: float = -1.0

    def history_jsonl(self) -> str:
        import json
        return "\n".join(json.dumps(row) for row in self.history) + "\n"


def train(model: TokenClassifier, corpora: dict[str, Corpus],
          config: TrainConfig) -> TrainResult:
    """Optimize the model; the model ends up holding the best-epoch weights.

    One validation pass per epoch; early stop after ``early_stop_patience``
    evaluations without strict micro-F1 improvement. Raises ConfigError if
    ``config.max_len`` differs from the model's, and TrainingDivergedError
    (naming the step) if the loss goes non-finite.
    """
    config.validate()
    if config.max_len != model.config.max_len:
        raise ConfigError(f"train.max_len {config.max_len} must equal "
                          f"model.max_len {model.config.max_len}")
    train_corpus = corpora.get("train")
    valid_corpus = corpora.get("valid")
    if not train_corpus or not valid_corpus:
        raise ConfigError("train() needs non-empty 'train' and 'valid' corpora")

    root = RngState(config.seed)
    shuffle_rng = root.split()
    dropout_rng = root.split()

    steps_per_epoch = math.ceil(len(train_corpus) / config.batch_size)
    total_steps = steps_per_epoch * config.epochs
    flat = model.flat
    grads = [p.grad for p in model.parameters().values()]
    state = OptState(flat.data.size)
    result = TrainResult()
    best: np.ndarray | None = None
    stale_evals = 0
    global_step = 0

    for epoch in range(config.epochs):
        batches = make_batches(train_corpus, config.batch_size, config.max_len,
                               model.token_vocab, model.label_vocab,
                               rng=shuffle_rng)
        epoch_loss = 0.0
        for batch in batches:
            model.zero_grad()
            loss = model.loss(batch, dropout_rng, training=True)
            value = loss.item()
            if not math.isfinite(value):
                raise TrainingDivergedError(
                    f"non-finite loss ({value}) at optimizer step {global_step}")
            loss.backward()
            clip_gradients(grads, CLIP_NORM)
            lr = lr_schedule(global_step, total_steps, WARMUP_RATIO,
                             config.learning_rate)
            adamw_step(flat, state, lr)
            epoch_loss += value
            global_step += 1

        report = evaluate(model, valid_corpus, batch_size=config.batch_size,
                          max_len=config.max_len)
        micro = report.micro["f1"]
        result.history.append({
            "epoch": epoch,
            "train_loss": epoch_loss / len(batches),
            "micro_f1": micro,
            "macro_f1": report.macro["f1"],
        })
        if micro > result.best_micro:
            result.best_micro = micro
            result.best_epoch = epoch
            best = flat.data.copy()
            stale_evals = 0
        else:
            stale_evals += 1
            if stale_evals >= config.early_stop_patience:
                break

    if best is not None:
        flat.data[...] = best
    return result
