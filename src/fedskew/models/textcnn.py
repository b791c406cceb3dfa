"""TextCNN: embedding, parallel n-gram Conv1D banks, max-over-time, linear head."""

from dataclasses import dataclass

import numpy as np

from .. import numkit as nk
from ..textdata import PAD_ID
from .params import ParamGroup, ParamSet


@dataclass(frozen=True)
class TextCnnConfig:
    num_classes: int
    embed_dim: int = 32
    filter_widths: tuple = (2, 3, 4)
    filters_per_width: int = 32
    dropout: float = 0.5


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
        leaves = {g.name: nk.leaf(g.tensor.data, name=g.name, trainable=g.trainable)
                  for g in params}
        ids = np.asarray(token_ids)
        pad_mask = (ids != PAD_ID).astype(np.float64)
        emb = nk.embedding_lookup(leaves["embedding"], ids)
        # PAD positions contribute zero vectors so max-pooling never picks padding
        emb = nk.mul(emb, nk.const(np.broadcast_to(pad_mask[:, :, None], emb.shape).copy()))
        pooled = []
        for w in cfg.filter_widths:
            conv = nk.add(nk.conv1d_valid(emb, leaves[f"conv{w}.kernel"]), leaves[f"conv{w}.bias"])
            pooled.append(nk.max_over_time(nk.relu(conv)))
        features = nk.concat_last(pooled)
        if train and keep < 1.0:
            features = nk.dropout(features, keep, rng, train=True)
        return nk.add(nk.matmul(features, leaves["fc.weight"]), leaves["fc.bias"])

    return params, forward
