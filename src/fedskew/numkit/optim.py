"""SGD and decoupled-weight-decay Adam over one flat parameter vector, updated in place."""

from dataclasses import dataclass

import numpy as np

from .. import validate
from .tensor import ContractError, NumericError, ShapeError, Tensor

BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8  # AdamW's moment decays and denominator floor


@dataclass(frozen=True)
class OptimizerCfg:
    """Its fields are the keys of a config's `federation.optimizer.<family>`, so the
    state a run accumulates lives in `FlatParams`."""
    kind: str  # "sgd" | "adamw"
    lr: float
    weight_decay: float = 0.0

    def __post_init__(self):
        validate.positive("lr", self.lr)
        validate.nonnegative("weight_decay", self.weight_decay)
        if self.kind not in ("sgd", "adamw"):
            raise ContractError(f"unknown optimizer kind {self.kind!r}")


class FlatParams:
    """Named tensors packed, in order, into one contiguous float64 `vector`, with the
    state of training them under `cfg`: the step count, AdamW's moments, and `grad`, a
    vector laid out like `vector` for a step's gradient.

    `tensors` maps each name to a read-only view of its slice, so whatever
    holds them reads each step's values without a copy; `grads` maps each name to the
    writable view of its slice of `grad`, where a loss-and-gradient function writes.
    Only the optimizer writes the vector; `freeze` makes it read-only once training is
    over.
    """

    def __init__(self, tensors: dict, cfg: OptimizerCfg):
        self.cfg = cfg
        self.names = list(tensors)
        self.vector = np.concatenate([t.data.reshape(-1) for t in tensors.values()])
        self.grad = np.zeros_like(self.vector)
        self.tensors, self.grads = {}, {}
        lo = 0
        for name, t in tensors.items():
            self.tensors[name] = Tensor(self.vector[lo : lo + t.size].reshape(t.shape))
            self.grads[name] = self.grad[lo : lo + t.size].reshape(t.shape)
            lo += t.size
        self.step_count = 0
        if cfg.kind == "sgd":
            self._work = np.empty_like(self.vector)  # lr * grad, without an allocation per step
        else:
            self.m, self.v = np.zeros_like(self.vector), np.zeros_like(self.vector)

    def freeze(self):
        self.vector.setflags(write=False)


def sgd_step(flat: FlatParams, grad):
    """vector <- vector - lr * grad, in place."""
    _begin(flat, "sgd", grad)
    flat.vector -= np.multiply(grad, flat.cfg.lr, out=flat._work)
    _check_finite(flat.vector)


def adamw_step(flat: FlatParams, grad):
    """AdamW, in place: bias-corrected moments plus decoupled weight decay, in the order
    and association of

        m = BETA1 m + (1 - BETA1) g;  v = BETA2 v + (1 - BETA2) g g
        vector = vector - lr (m / (1 - BETA1^t)) / (sqrt(v / (1 - BETA2^t)) + EPSILON)
                 - lr weight_decay vector
    """
    _begin(flat, "adamw", grad)
    t, lr, vec, m, v = flat.step_count, flat.cfg.lr, flat.vector, flat.m, flat.v
    m *= BETA1
    m += grad * (1 - BETA1)
    v *= BETA2
    v += grad * (1 - BETA2) * grad
    update = m / (1 - BETA1**t) / (np.sqrt(v / (1 - BETA2**t)) + EPSILON) * lr
    decay = vec * (lr * flat.cfg.weight_decay)
    vec -= update
    vec -= decay
    _check_finite(vec)


def step(flat: FlatParams, grad):
    """One optimizer step of `flat`'s kind.  `grad` is a vector laid out like
    `flat.vector`, normally `flat.grad`."""
    (sgd_step if flat.cfg.kind == "sgd" else adamw_step)(flat, grad)


def _begin(flat: FlatParams, kind: str, grad: np.ndarray):
    if flat.cfg.kind != kind:
        raise ContractError(f"{kind}_step called on {flat.cfg.kind} parameters")
    if grad.shape != flat.vector.shape:
        raise ShapeError(f"gradients {grad.shape} vs parameter vector {flat.vector.shape}")
    if not np.isfinite(grad).all():
        parts = np.split(grad, np.cumsum([view.size for view in flat.grads.values()])[:-1])
        bad = next(n for n, part in zip(flat.names, parts) if not np.isfinite(part).all())
        raise NumericError(f"non-finite gradient for {bad!r}")
    flat.step_count += 1


def _check_finite(vector: np.ndarray):
    if not np.isfinite(vector).all():
        raise NumericError("non-finite parameter after an optimizer step")
