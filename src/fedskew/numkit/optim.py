"""SGD and decoupled-weight-decay Adam over named parameter dicts."""

import math
from dataclasses import dataclass, field

import numpy as np

from .autograd import ContractError
from .tensor import Tensor

BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8  # AdamW's moment decays and denominator floor


@dataclass
class OptimizerState:
    kind: str  # "sgd" | "adamw"
    lr: float
    weight_decay: float = 0.0
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("sgd", "adamw"):
            raise ContractError(f"unknown optimizer kind {self.kind!r}")
        if not 0 < self.lr < math.inf:  # False for NaN too
            raise ContractError(f"learning rate must be finite and positive, got {self.lr!r}")
        if not 0 <= self.weight_decay < math.inf:
            raise ContractError(f"weight decay must be finite and nonnegative, "
                                f"got {self.weight_decay!r}")


def sgd_step(state: OptimizerState, params: dict, grads: dict) -> dict:
    """p <- p - lr * g for every trainable parameter."""
    if state.kind != "sgd":
        raise ContractError("sgd_step called with non-sgd state")
    _require_grads(params, grads)
    state.step_count += 1
    return {name: Tensor(p.data - state.lr * grads[name].data) for name, p in params.items()}


def adamw_step(state: OptimizerState, params: dict, grads: dict) -> dict:
    """AdamW: bias-corrected moments plus decoupled weight decay."""
    if state.kind != "adamw":
        raise ContractError("adamw_step called with non-adamw state")
    _require_grads(params, grads)
    state.step_count += 1
    t = state.step_count
    out = {}
    for name, p in params.items():
        g = grads[name].data
        m = state.m.get(name)
        v = state.v.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
        m = BETA1 * m + (1 - BETA1) * g
        v = BETA2 * v + (1 - BETA2) * g * g
        state.m[name] = m
        state.v[name] = v
        m_hat = m / (1 - BETA1**t)
        v_hat = v / (1 - BETA2**t)
        update = m_hat / (np.sqrt(v_hat) + EPSILON)
        out[name] = Tensor(p.data - state.lr * update - state.lr * state.weight_decay * p.data)
    return out


def step(state: OptimizerState, params: dict, grads: dict) -> dict:
    return sgd_step(state, params, grads) if state.kind == "sgd" else adamw_step(state, params, grads)


def _require_grads(params: dict, grads: dict):
    missing = [n for n in params if n not in grads]
    if missing:
        raise ContractError(f"missing gradients for trainable parameters: {missing}")
