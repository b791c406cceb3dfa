from .loraformer import (
    DisjointnessError,
    LoraFormerConfig,
    PretrainConfig,
    build_loraformer,
    merge_lora,
    pretrain_backbone,
)
from . import loraformer, textcnn
from .params import Group, ParamSet, StructuralError, build_params, check_split
from .textcnn import TextCnnConfig, build_textcnn, check_fits


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
