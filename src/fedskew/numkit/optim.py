"""SGD and decoupled-weight-decay Adam over one flat parameter vector, updated in place
from the gradient that a training step wrote into `FlatParams.grad`."""

import math
from dataclasses import dataclass

import numpy as np

from .. import validate
from .errors import ContractError, NumericError

BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8  # AdamW's moment decays and denominator floor


@dataclass(frozen=True)
class OptimizerCfg:
    """Its fields are the keys of a config's `federation.optimizer.<family>`, so the
    state a run accumulates lives in `FlatParams`."""
    kind: str  # "sgd" | "adamw"
    lr: float
    weight_decay: float = 0.0  # AdamW's decoupled decay; SGD takes none

    def __post_init__(self):
        validate.positive("lr", self.lr)
        validate.nonnegative("weight_decay", self.weight_decay)
        if self.kind == "sgd" and self.weight_decay != 0:
            raise ContractError(f"weight_decay: must be 0 with kind 'sgd', "
                                f"got {self.weight_decay!r}")
        if self.kind not in ("sgd", "adamw"):
            raise ContractError(f"unknown optimizer kind {self.kind!r}")


def views(vector: np.ndarray, shapes: dict) -> dict:
    """{name: its slice of `vector`, shaped}, the groups of `shapes` one after another."""
    out, lo = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        out[name] = vector[lo : lo + size].reshape(shape)
        lo += size
    return out


class FlatParams:
    """A copy of a flat float64 parameter `vector`, laid out as `shapes` says, with the state
    of training it under `cfg`: the step count, AdamW's moments, and `grad`, a vector laid
    out like `vector` for a step's gradient.

    `grads` maps each name to the writable view of its slice of `grad`, where a
    loss-and-gradient function writes; `step`, `sgd_step` and `adamw_step` take only `flat`
    and read `grad`.  Only the optimizer writes the vector; `freeze` makes it read-only
    once training is over.
    """

    def __init__(self, vector: np.ndarray, shapes: dict, cfg: OptimizerCfg):
        self.cfg = cfg
        self.vector = np.array(vector, dtype=np.float64)
        self.grad = np.zeros_like(self.vector)
        self.grads = views(self.grad, shapes)
        self.step_count = 0
        if cfg.kind == "sgd":
            self._work = np.empty_like(self.vector)  # lr * grad, without an allocation per step
        else:
            self.m, self.v = np.zeros_like(self.vector), np.zeros_like(self.vector)

    def freeze(self):
        self.vector.setflags(write=False)


def sgd_step(flat: FlatParams):
    """vector <- vector - lr * grad, in place."""
    _begin(flat)
    flat.vector -= np.multiply(flat.grad, flat.cfg.lr, out=flat._work)
    _check_finite(flat.vector)


def adamw_step(flat: FlatParams):
    """AdamW, in place: bias-corrected moments plus decoupled weight decay, in the order
    and association of

        m = BETA1 m + (1 - BETA1) g;  v = BETA2 v + (1 - BETA2) g g
        vector = vector - lr (m / (1 - BETA1^t)) / (sqrt(v / (1 - BETA2^t)) + EPSILON)
                 - lr weight_decay vector
    """
    _begin(flat)
    t, lr, vec, m, v, grad = flat.step_count, flat.cfg.lr, flat.vector, flat.m, flat.v, flat.grad
    m *= BETA1
    m += grad * (1 - BETA1)
    v *= BETA2
    v += grad * (1 - BETA2) * grad
    update = m / (1 - BETA1**t) / (np.sqrt(v / (1 - BETA2**t)) + EPSILON) * lr
    decay = vec * (lr * flat.cfg.weight_decay)
    vec -= update
    vec -= decay
    _check_finite(vec)


def step(flat: FlatParams):
    """One optimizer step of `flat`'s kind, from the gradient in `flat.grad`."""
    (sgd_step if flat.cfg.kind == "sgd" else adamw_step)(flat)


def _begin(flat: FlatParams):
    if not np.isfinite(flat.grad).all():
        bad = next(n for n, view in flat.grads.items() if not np.isfinite(view).all())
        raise NumericError(f"non-finite gradient for {bad!r}")
    flat.step_count += 1


def _check_finite(vector: np.ndarray):
    if not np.isfinite(vector).all():
        raise NumericError("non-finite parameter after an optimizer step")
