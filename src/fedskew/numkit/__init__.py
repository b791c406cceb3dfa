from .autograd import (
    GradNode,
    add,
    backward,
    concat_last,
    const,
    conv1d_valid,
    dropout,
    embedding_lookup,
    encoder_layer_ops,
    gelu,
    layernorm,
    leaf,
    masked_mean_pool,
    matmul,
    max_over_time,
    mul,
    relu,
    reshape,
    scale,
    scaled_dot_attention,
    softmax,
    softmax_cross_entropy,
    ssum,
    textcnn_logits_ops,
    transpose,
)
from . import kernels
from .errors import ContractError, NumericError, ShapeError
from .optim import FlatParams, OptimizerCfg, adamw_step, sgd_step, step, views
from .rng import derive, sub_seed
