from .loraformer import (
    DisjointnessError,
    LoraFormerConfig,
    PretrainConfig,
    build_loraformer,
    merge_lora,
    pretrain_backbone,
)
from ..numkit import kernels as kn
from . import loraformer, textcnn
from .params import ParamGroup, ParamSet, StructuralError
from .textcnn import TextCnnConfig, build_textcnn, check_fits

# per model kind: the embedding table, whose rows the token ids pick, and the head bias,
# one entry per label
_INPUT_GROUPS = {"textcnn": ("embedding", "fc.bias"), "loraformer": ("tok_emb", "head.bias")}


def build_model(family: str, cfg, vocab_size: int, max_seq_len: int, seed: int):
    """Dispatch on model family name; returns (ParamSet, forward)."""
    if family == "textcnn":
        return build_textcnn(cfg, vocab_size, max_seq_len, seed)
    if family == "loraformer":
        return build_loraformer(cfg, vocab_size, max_seq_len, seed)
    raise ValueError(f"unknown model family {family!r}")


def build_loss_and_grad(family: str, cfg):
    """The family's `make_loss_and_grad(cfg)`: its whole training step as one function."""
    if family == "textcnn":
        return textcnn.make_loss_and_grad(cfg)
    if family == "loraformer":
        return loraformer.make_loss_and_grad(cfg)
    raise ValueError(f"unknown model family {family!r}")


def check_split(params: ParamSet, split):
    """Check once that every token id of `split` picks a row of the model's embedding table
    and every label a logit, so that no batch of it needs a check of its own."""
    table, head = _INPUT_GROUPS[params.model_kind]
    kn.check_ids(split.token_ids, len(params.get(table).tensor.data))
    kn.check_labels(split.labels, len(params.get(head).tensor.data))
