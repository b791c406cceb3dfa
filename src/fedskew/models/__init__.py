from .loraformer import (
    DisjointnessError,
    LoraFormerConfig,
    build_loraformer,
    merge_lora,
    pretrain_backbone,
)
from .params import ParamGroup, ParamSet, StructuralError, load_checkpoint, save_checkpoint
from .textcnn import TextCnnConfig, build_textcnn, check_fits


def build_model(family: str, cfg, vocab_size: int, max_seq_len: int, seed: int):
    """Dispatch on model family name; returns (ParamSet, forward)."""
    if family == "textcnn":
        return build_textcnn(cfg, vocab_size, max_seq_len, seed)
    if family == "loraformer":
        return build_loraformer(cfg, vocab_size, max_seq_len, seed)
    raise ValueError(f"unknown model family {family!r}")
