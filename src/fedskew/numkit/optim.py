"""SGD and decoupled-weight-decay Adam over one flat parameter vector, updated in place."""

import math
from dataclasses import dataclass

import numpy as np

from .autograd import ContractError
from .tensor import NumericError, ShapeError, Tensor

BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8  # AdamW's moment decays and denominator floor


@dataclass
class OptimizerState:
    kind: str  # "sgd" | "adamw"
    lr: float
    weight_decay: float = 0.0
    step_count: int = 0
    m: np.ndarray = None  # AdamW's moments, shaped like the vector from the first step on
    v: np.ndarray = None

    def __post_init__(self):
        if self.kind not in ("sgd", "adamw"):
            raise ContractError(f"unknown optimizer kind {self.kind!r}")
        if not 0 < self.lr < math.inf:  # False for NaN too
            raise ContractError(f"learning rate must be finite and positive, got {self.lr!r}")
        if not 0 <= self.weight_decay < math.inf:
            raise ContractError(f"weight decay must be finite and nonnegative, "
                                f"got {self.weight_decay!r}")


class FlatParams:
    """Named tensors packed, in order, into one contiguous float64 `vector`.

    `tensors` maps each name to a read-only view of its slice, so whatever
    holds them reads each step's values without a copy.  Only the optimizer
    writes the vector; `freeze` makes it read-only once training is over.
    """

    def __init__(self, tensors: dict):
        self.names = list(tensors)
        self.vector = np.concatenate([t.data.reshape(-1) for t in tensors.values()])
        self.tensors = {}
        lo = 0
        for name, t in tensors.items():
            self.tensors[name] = Tensor(self.vector[lo : lo + t.size].reshape(t.shape))
            lo += t.size

    def gather(self, grads: dict) -> np.ndarray:
        """The gradients of `names` from {name: array}, packed like the vector."""
        missing = [n for n in self.names if n not in grads]
        if missing:
            raise ContractError(f"missing gradients for trainable parameters: {missing}")
        packed = np.concatenate([grads[n].reshape(-1) for n in self.names])
        if not np.isfinite(packed).all():
            bad = next(n for n in self.names if not np.isfinite(grads[n]).all())
            raise NumericError(f"non-finite gradient for {bad!r}")
        return packed

    def freeze(self):
        self.vector.setflags(write=False)


def sgd_step(state: OptimizerState, flat: np.ndarray, grad: np.ndarray):
    """flat <- flat - lr * grad, in place."""
    _begin(state, "sgd", flat, grad)
    flat -= state.lr * grad
    _check_finite(flat)


def adamw_step(state: OptimizerState, flat: np.ndarray, grad: np.ndarray):
    """AdamW, in place: bias-corrected moments plus decoupled weight decay."""
    _begin(state, "adamw", flat, grad)
    t = state.step_count
    if state.m is None:
        state.m, state.v = np.zeros_like(flat), np.zeros_like(flat)
    state.m = BETA1 * state.m + (1 - BETA1) * grad
    state.v = BETA2 * state.v + (1 - BETA2) * grad * grad
    m_hat = state.m / (1 - BETA1**t)
    v_hat = state.v / (1 - BETA2**t)
    update = m_hat / (np.sqrt(v_hat) + EPSILON)
    flat[...] = flat - state.lr * update - state.lr * state.weight_decay * flat
    _check_finite(flat)


def step(state: OptimizerState, flat: np.ndarray, grad: np.ndarray):
    (sgd_step if state.kind == "sgd" else adamw_step)(state, flat, grad)


def _begin(state: OptimizerState, kind: str, flat: np.ndarray, grad: np.ndarray):
    if state.kind != kind:
        raise ContractError(f"{kind}_step called with {state.kind} state")
    if grad.shape != flat.shape:
        raise ShapeError(f"gradient {grad.shape} vs parameter vector {flat.shape}")
    state.step_count += 1


def _check_finite(flat: np.ndarray):
    if not np.isfinite(flat).all():
        raise NumericError("non-finite parameter after an optimizer step")
