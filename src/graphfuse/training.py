"""AdamW trainer: linear warmup/decay, global-norm clipping, early stopping
on validation micro-F1, deterministic given the seed.

AdamW keeps its first and second moments in one flat buffer each, laid out
on the first step with the weight-decayed parameters first. A step is a few
vector operations over all parameters plus one in-place write per
parameter, and is bitwise equal to a per-parameter loop because every
element sees the same operations in the same order. ``OptState.m[name]`` and
``OptState.v[name]`` are views into the buffers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Corpus, make_batches
from .errors import ConfigError, ContractError, TrainingDivergedError
from .evaluation import evaluate
from .model import TokenClassifier
from .rng import RngState
from .tensor import Tensor

ADAM_BETAS = (0.9, 0.999)  # decay rates of the first and second moments
ADAM_EPS = 1e-8            # added to the root of the second moment


@dataclass
class TrainConfig:
    learning_rate: float = 5e-5
    weight_decay: float = 0.01
    clip_norm: float = 1.0
    warmup_ratio: float = 0.1
    batch_size: int = 16
    epochs: int = 15
    max_len: int = 128
    early_stop_patience: int = 3
    seed: int = 0

    def validate(self) -> None:
        if not 0.0 <= self.warmup_ratio < 1.0:
            raise ConfigError(f"warmup_ratio must lie in [0,1), got {self.warmup_ratio}")
        if self.clip_norm <= 0:
            raise ConfigError(f"clip_norm must be positive, got {self.clip_norm}")
        if self.early_stop_patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.early_stop_patience}")
        if self.learning_rate < 0:
            raise ConfigError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.epochs < 1 or self.batch_size < 1 or self.max_len < 1:
            raise ConfigError("epochs, batch_size and max_len must all be >= 1")
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
    """Flat AdamW moment buffers, their layout and the shared step counter."""

    def __init__(self):
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.step = 0
        self.order: list[str] = []  # parameter names in buffer order
        self.n_decayed = 0          # the first n_decayed names are decayed
        self.flat_m = self.flat_v = np.zeros(0)

    def lay_out(self, params: dict[str, Tensor]) -> None:
        self.order = sorted(params, key=lambda name: not _decayed(name))
        self.n_decayed = sum(map(_decayed, self.order))
        total = sum(p.data.size for p in params.values())
        self.flat_m, self.flat_v = np.zeros(total), np.zeros(total)
        offset = 0
        for name in self.order:
            shape, size = params[name].data.shape, params[name].data.size
            self.m[name] = self.flat_m[offset:offset + size].reshape(shape)
            self.v[name] = self.flat_v[offset:offset + size].reshape(shape)
            offset += size


def _decayed(name: str) -> bool:
    # biases (".b") and layer-norm gains/biases ("...normK.*") are exempt
    return not (name.endswith(".b") or ".norm" in name)


def adamw_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
               state: OptState, lr: float, config: TrainConfig) -> None:
    """One decoupled-weight-decay Adam update, in place, over the flat moments."""
    if not state.m:
        state.lay_out(params)
    if params.keys() != state.m.keys():
        raise ContractError("adamw_step got other parameters than its state "
                            "was laid out for")
    for name, p in params.items():
        if grads[name].shape != p.data.shape or state.m[name].shape != p.data.shape:
            raise ContractError(f"{name}: grad {grads[name].shape} and moments "
                                f"{state.m[name].shape} vs param {p.data.shape}")
    b1, b2 = ADAM_BETAS
    state.step += 1
    t = state.step
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    order = state.order
    g = np.concatenate([grads[name].reshape(-1) for name in order])
    m, v = state.flat_m, state.flat_v
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    g *= g
    g *= 1.0 - b2
    v += g
    update = v / bc2
    np.sqrt(update, out=update)
    update += ADAM_EPS
    np.divide(m / bc1, update, out=update)
    if config.weight_decay and state.n_decayed:
        decay = np.concatenate([params[name].data.reshape(-1)
                                for name in order[:state.n_decayed]])
        decay *= config.weight_decay
        update[:decay.size] += decay
    update *= lr
    offset = 0
    for name in order:
        p = params[name]
        p.data -= update[offset:offset + p.data.size].reshape(p.data.shape)
        offset += p.data.size


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
    params = model.parameters()
    state = OptState()
    result = TrainResult()
    best_params: dict[str, np.ndarray] | None = None
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
            grads = {name: p.grad for name, p in params.items()}
            clip_gradients(list(grads.values()), config.clip_norm)
            lr = lr_schedule(global_step, total_steps, config.warmup_ratio,
                             config.learning_rate)
            adamw_step(params, grads, state, lr, config)
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
            best_params = {k: p.data.copy() for k, p in params.items()}
            stale_evals = 0
        else:
            stale_evals += 1
            if stale_evals >= config.early_stop_patience:
                break

    if best_params is not None:
        for name, p in params.items():
            p.data = best_params[name]
    return result
