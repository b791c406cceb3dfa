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

_FAMILIES = {"textcnn": (build_textcnn, textcnn.make_loss_and_grad),
             "loraformer": (build_loraformer, loraformer.make_loss_and_grad)}


def build_model(family: str, cfg, vocab_size: int, max_seq_len: int, seed: int):
    """Dispatch on model family name; returns (ParamSet, forward)."""
    return _FAMILIES[family][0](cfg, vocab_size, max_seq_len, seed)


def build_loss_and_grad(family: str, cfg):
    """The family's `make_loss_and_grad(cfg)`: its whole training step as one function."""
    return _FAMILIES[family][1](cfg)
