"""Model assembly: config, variant wiring, forward/loss/predict.

Three variants mirror the ablation rows: "encoder" classifies the encoder
output directly, "gat" adds the graph-attention stage, "full" adds the
decoder refinement on top. All stages operate at width d, so the classifier
is shared unchanged across variants.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields

import numpy as np

from . import tensor as T
from .data import Batch, LabelVocab, TokenVocab
from .decoder import DecoderParams, decode_refine
from .encoder import EncoderParams, encode
from .errors import ConfigError, ContractError
from .gat import GatParams, edge_alpha, gat_forward
from .graph import build_fully_connected
from .layers import Dropout, FlatParams, Linear, named_parameters
from .rng import RngState
from .tensor import Tensor, masked_cross_entropy

VARIANTS = ("encoder", "gat", "full")


@dataclass
class ModelConfig:
    vocab_size: int
    n_labels: int
    d_emb: int = 64
    d: int = 64
    enc_layers: int = 0
    enc_heads: int = 4
    gat_hidden: int = 64
    gat_heads: int = 4
    dec_heads: int = 4
    dropout: float = 0.3
    max_len: int = 128
    variant: str = "full"

    def validate(self) -> None:
        """Raise ConfigError on a bad value: the one place model rules are
        checked. The layer builders take these values as given."""
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.vocab_size < 2:
            raise ConfigError(f"vocab_size must cover pad+unk, got {self.vocab_size}")
        if self.n_labels < 2:
            raise ConfigError(f"n_labels must be >= 2, got {self.n_labels}")
        if min(self.d_emb, self.d, self.gat_hidden, self.enc_heads,
               self.gat_heads, self.dec_heads) < 1:
            raise ConfigError("d_emb, d, gat_hidden and every heads count "
                              "must be >= 1")
        if self.d_emb % 2 != 0:
            raise ConfigError(f"d_emb must be even for sinusoidal positions, got {self.d_emb}")
        if self.enc_layers not in (0, 1, 2):
            raise ConfigError(f"enc_layers must be 0, 1 or 2, got {self.enc_layers}")
        if self.enc_layers and self.d_emb % self.enc_heads != 0:
            raise ConfigError(f"d_emb {self.d_emb} not divisible by enc_heads {self.enc_heads}")
        if self.gat_hidden % self.gat_heads != 0:
            raise ConfigError(f"gat_hidden {self.gat_hidden} not divisible by "
                              f"gat_heads {self.gat_heads}")
        if self.d % self.dec_heads != 0:
            raise ConfigError(f"d {self.d} not divisible by dec_heads {self.dec_heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0,1), got {self.dropout}")
        if self.max_len < 1:
            raise ConfigError(f"max_len must be >= 1, got {self.max_len}")


# exact types, so a JSON true/false is not an int; an int is a valid float.
# Keyed by the annotation strings that ``from __future__ import annotations``
# leaves in ``dataclasses.fields``.
_JSON_TYPES = {"int": {int}, "float": {int, float}, "str": {str}}


def _checked(name: str, kind: str, value):
    """``value`` if its JSON type fits the field type ``kind``, else ConfigError."""
    if type(value) in _JSON_TYPES[kind]:
        return value
    raise ConfigError(f"{name} must be {kind}, got {value!r}")


def build_config(cls, overrides, section: str, **derived):
    """Validated ``cls`` from a preset, config file, flags or checkpoint.

    An unknown key, or a value whose JSON type does not fit its field, in the
    ``overrides`` object raises ConfigError naming ``section.key``.
    ``derived`` values are computed by the caller and replace stored ones.
    """
    if not isinstance(overrides, dict):
        raise ConfigError(f"{section} must be an object, got {overrides!r}")
    hints = {f.name: f.type for f in fields(cls)}
    unknown = sorted(set(overrides) - set(hints))
    if unknown:
        raise ConfigError("unknown config key(s): "
                          + ", ".join(f"{section}.{k}" for k in unknown))
    values = {k: _checked(f"{section}.{k}", hints[k], v)
              for k, v in overrides.items()}
    values.update(derived)
    missing = [f"{section}.{f.name}" for f in fields(cls)
               if f.name not in values and f.default is MISSING]
    if missing:
        raise ConfigError(f"missing config key(s): {', '.join(missing)}")
    config = cls(**values)
    config.validate()
    return config


def classify(H_dec: Tensor, head: Linear) -> Tensor:
    """Per-token affine map d -> L to label logits (the loss wants logits)."""
    return head(H_dec)


class TokenClassifier:
    """Encoder -> (GAT ->) (decoder ->) linear head, per the variant flag."""

    def __init__(self, config: ModelConfig, token_vocab: TokenVocab,
                 label_vocab: LabelVocab, rng: RngState):
        config.validate()
        if config.vocab_size != len(token_vocab):
            raise ConfigError(f"config vocab_size {config.vocab_size} != "
                              f"token vocab {len(token_vocab)}")
        if config.n_labels != len(label_vocab):
            raise ConfigError(f"config n_labels {config.n_labels} != "
                              f"label vocab {len(label_vocab)}")
        self.config = config
        self.token_vocab = token_vocab
        self.label_vocab = label_vocab
        c = config
        try:
            self.encoder = EncoderParams.init(
                rng.split(), c.vocab_size, c.d_emb, c.d, c.enc_layers,
                c.enc_heads, c.max_len)
            self.gat = (GatParams.init(rng.split(), c.d, c.gat_hidden, c.gat_heads)
                        if c.variant in ("gat", "full") else None)
            self.decoder = (DecoderParams.init(rng.split(), c.d, c.dec_heads)
                            if c.variant == "full" else None)
            self.head = Linear.init(rng.split(), c.d, c.n_labels)
            self.flat = FlatParams(self.parameters())
        except (MemoryError, ValueError) as exc:  # numpy refuses the size
            raise ConfigError(f"cannot allocate a model at max_len {c.max_len}, "
                              f"d {c.d}, d_emb {c.d_emb}: {exc}") from None

    # -- parameter plumbing -------------------------------------------------

    def parameters(self) -> dict[str, Tensor]:
        """Field path -> Tensor for every stage, in construction order; an
        absent stage is None and adds nothing."""
        out: dict[str, Tensor] = {}
        for stage in ("encoder", "gat", "decoder", "head"):
            out.update(named_parameters(getattr(self, stage), stage))
        return out

    def zero_grad(self) -> None:
        self.flat.grad.fill(0.0)

    # -- forward paths --------------------------------------------------------

    def forward(self, batch: Batch, rng: RngState | None = None,
                training: bool = False, collect: dict | None = None) -> Tensor:
        """Logits (B, n_max, L) for the configured variant.

        A training pass at a nonzero rate draws every dropout mask from
        ``rng``, stage by stage, and raises ContractError without one;
        otherwise no stage drops anything.

        Pads are masked as keys in every attention and their logits have no
        defined value; the loss ignores them. A batch with no tokens gives
        (B, 0, L) logits and runs no stage.

        A ``collect`` dict receives the GAT's and decoder's attention maps:
        ``gat_alpha`` (``edge_alpha``'s rows and targets), and ``dec_self``
        and ``dec_cross``, one-element lists. Encoder maps are not recorded.
        """
        p = self.config.dropout
        drop = Dropout(p, rng) if training and p > 0.0 else None
        if drop is not None and rng is None:
            raise ContractError(f"a training pass at dropout {p} needs an rng "
                                f"to draw its masks from")
        B, n = batch.token_ids.shape
        if n == 0:
            return Tensor(np.zeros((B, 0, self.config.n_labels)))
        H = encode(batch, self.encoder, drop)
        maps = [] if collect is not None else None
        token = T._attention_maps.set(maps)
        try:
            if self.gat is not None:
                H = gat_forward(H, batch.lengths, self.gat, drop)
            if self.decoder is not None:
                H = decode_refine(H, batch.lengths, self.decoder, drop)
        finally:
            T._attention_maps.reset(token)
        if maps:
            collect["gat_alpha"] = edge_alpha(
                maps[0], batch.lengths,
                build_fully_connected([m for m in batch.lengths if m]))
            for key, weights in zip(("dec_self", "dec_cross"), maps[1:]):
                collect[key] = [weights]
        return classify(H, self.head)

    def loss(self, batch: Batch, rng: RngState | None = None,
             training: bool = True) -> Tensor:
        return masked_cross_entropy(self.forward(batch, rng, training),
                                    batch.label_ids)

    def predict_batch(self, batch: Batch) -> list[list[int]]:
        """Per-sentence argmax label ids over each sentence's real tokens
        (ties break to the lowest index); an empty sentence gets ``[]``."""
        with T.no_grad():
            logits = self.forward(batch, rng=None, training=False)
        ids = np.argmax(logits.data, axis=-1)
        return [ids[b, :n].tolist() for b, n in enumerate(batch.lengths)]
