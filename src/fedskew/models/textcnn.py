"""TextCNN: embedding, parallel n-gram Conv1D banks with max-over-time, dropout and a
linear head, all one `numkit.textcnn_logits` node."""

from dataclasses import dataclass

import numpy as np

from .. import numkit as nk
from .. import validate
from ..textdata import PAD_ID
from .params import ParamGroup, ParamSet


@dataclass(frozen=True)
class TextCnnConfig:
    num_classes: int
    embed_dim: int = 32
    filter_widths: tuple = (2, 3, 4)
    filters_per_width: int = 32
    dropout: float = 0.5

    def __post_init__(self):
        for name in ("num_classes", "embed_dim", "filters_per_width"):
            validate.integer(name, getattr(self, name))
        widths = self.filter_widths if isinstance(self.filter_widths, tuple) else ()
        for width in widths:  # before the distinctness check, which hashes each width
            validate.integer("filter_widths", width)
        if not widths or len(set(widths)) != len(widths):
            raise ValueError(f"filter_widths: must be a nonempty list of distinct widths, "
                             f"got {self.filter_widths!r}")
        validate.fraction("dropout", self.dropout)


def check_fits(cfg: TextCnnConfig, max_seq_len: int):
    """Every filter must fit in a padded document."""
    if max(cfg.filter_widths) > max_seq_len:
        raise ValueError(f"filter width {max(cfg.filter_widths)} exceeds sequence length {max_seq_len}")


def build_textcnn(cfg: TextCnnConfig, vocab_size: int, max_seq_len: int, seed: int):
    """Returns (ParamSet, forward).  forward(params, token_ids, train, rng) -> logits node."""
    check_fits(cfg, max_seq_len)
    if vocab_size < 2:
        raise ValueError("vocabulary must include PAD and UNK")

    groups = [ParamGroup(
        "embedding",
        nk.Tensor(nk.derive(seed, "init", "embedding").normal(0, 0.1, (vocab_size, cfg.embed_dim))),
        trainable=True, lora=False)]
    for w in cfg.filter_widths:
        std = (2.0 / (w * cfg.embed_dim)) ** 0.5
        kernel = nk.derive(seed, "init", f"conv{w}").normal(0, std, (w, cfg.embed_dim, cfg.filters_per_width))
        groups.append(ParamGroup(f"conv{w}.kernel", nk.Tensor(kernel), True, False))
        groups.append(ParamGroup(f"conv{w}.bias", nk.Tensor(np.zeros(cfg.filters_per_width)), True, False))
    feat = len(cfg.filter_widths) * cfg.filters_per_width
    groups.append(ParamGroup("fc.weight", nk.Tensor(np.zeros((feat, cfg.num_classes))), True, False))
    groups.append(ParamGroup("fc.bias", nk.Tensor(np.zeros(cfg.num_classes)), True, False))
    params = ParamSet(groups, "textcnn")

    keep = 1.0 - cfg.dropout

    def forward(params: ParamSet, token_ids, train: bool = False, rng=None):
        p = params.leaves
        return nk.textcnn_logits(p["embedding"], token_ids, PAD_ID,
                                 [p[f"conv{w}.kernel"] for w in cfg.filter_widths],
                                 [p[f"conv{w}.bias"] for w in cfg.filter_widths],
                                 p["fc.weight"], p["fc.bias"], keep, rng, train)

    return params, forward
