"""TextCNN: embedding, parallel n-gram Conv1D banks with max-over-time, dropout and a
linear head, run by `numkit.kernels.textcnn_forward` and `textcnn_backward` on its groups,
each read from `ParamSet.arrays` and its gradient written into `grads` by name."""

from dataclasses import dataclass

import numpy as np

from .. import numkit as nk
from ..numkit import kernels as kn
from .. import validate
from ..textdata import PAD_ID
from .params import Group, ParamSet, build_params


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
    """Returns (ParamSet, forward).  forward(params, token_ids) -> eval-mode logits."""
    check_fits(cfg, max_seq_len)
    rng = nk.derive(seed, "init", "embedding")
    groups = [Group("embedding", rng.normal(0, 0.1, (vocab_size, cfg.embed_dim)), True, False)]
    for w in cfg.filter_widths:
        std = (2.0 / (w * cfg.embed_dim)) ** 0.5
        kernel = nk.derive(seed, "init", f"conv{w}").normal(0, std, (w, cfg.embed_dim, cfg.filters_per_width))
        groups.append(Group(f"conv{w}.kernel", kernel, True, False))
        groups.append(Group(f"conv{w}.bias", np.zeros(cfg.filters_per_width), True, False))
    feat = len(cfg.filter_widths) * cfg.filters_per_width
    groups.append(Group("fc.weight", np.zeros((feat, cfg.num_classes)), True, False))
    groups.append(Group("fc.bias", np.zeros(cfg.num_classes), True, False))
    return build_params("textcnn", groups), make_forward(cfg)


def make_forward(cfg: TextCnnConfig):
    """forward(params, token_ids) -> eval-mode logits, an array; no dropout, no caches kept.
    Ids must be in range (`models.check_split`)."""
    def forward(params: ParamSet, token_ids):
        logits, _ = kn.textcnn_forward(params.arrays, token_ids, PAD_ID, cfg.filter_widths)
        return kn.finite("textcnn_logits", logits)

    return forward


def make_loss_and_grad(cfg: TextCnnConfig):
    """loss_and_grad(params, token_ids, labels, rng, grads) -> one training step's mean
    cross-entropy, with dropout masks drawn from `rng`.  It writes the gradient of every
    group named in `grads` into that writable array (a `FlatParams.grads` view); the
    other groups are frozen.  Ids and labels must be in range (`models.check_split`)."""
    keep = 1.0 - cfg.dropout

    def loss_and_grad(params: ParamSet, token_ids, labels, rng, grads: dict) -> float:
        logits, cache = kn.textcnn_forward(params.arrays, token_ids, PAD_ID, cfg.filter_widths,
                                           keep, rng)
        loss, dlogits = kn.cross_entropy(kn.finite("textcnn_logits", logits), labels)
        kn.finite("softmax_cross_entropy", loss)
        kn.textcnn_backward(cache, dlogits, grads)
        return loss

    return loss_and_grad


def graph_forward(cfg: TextCnnConfig):
    """The logits as an autodiff graph, the op chain `numkit.textcnn_logits_ops` over a leaf
    per group: the reference of the functions above."""
    keep = 1.0 - cfg.dropout

    def forward(params: ParamSet, token_ids, train: bool = False, rng=None):
        p = {g.name: nk.leaf(g.tensor, name=g.name, trainable=g.trainable) for g in params}
        return nk.textcnn_logits_ops(p, token_ids, PAD_ID, cfg.filter_widths, keep, rng, train)

    return forward
