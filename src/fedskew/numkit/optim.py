"""SGD and decoupled-weight-decay Adam over one flat parameter vector, updated in place."""

from dataclasses import dataclass

import numpy as np

from .. import validate
from .autograd import ContractError
from .tensor import NumericError, ShapeError, Tensor

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
    state of training them under `cfg`: the step count and AdamW's moments.

    `tensors` maps each name to a read-only view of its slice, so whatever
    holds them reads each step's values without a copy.  Only the optimizer
    writes the vector; `freeze` makes it read-only once training is over.
    """

    def __init__(self, tensors: dict, cfg: OptimizerCfg):
        self.cfg = cfg
        self.names = list(tensors)
        self.vector = np.concatenate([t.data.reshape(-1) for t in tensors.values()])
        self.tensors = {}
        lo = 0
        for name, t in tensors.items():
            self.tensors[name] = Tensor(self.vector[lo : lo + t.size].reshape(t.shape))
            lo += t.size
        self.step_count = 0
        if cfg.kind == "adamw":
            self.m, self.v = np.zeros_like(self.vector), np.zeros_like(self.vector)

    def gather(self, grads: dict) -> np.ndarray:
        """The gradients of `names` from {name: array}, packed like the vector."""
        missing = [n for n in self.names if n not in grads]
        if missing:
            raise ContractError(f"missing gradients for trainable parameters: {missing}")
        packed = np.concatenate([grads[n].reshape(-1) for n in self.names])
        if packed.shape != self.vector.shape:
            raise ShapeError(f"gradients {packed.shape} vs parameter vector {self.vector.shape}")
        if not np.isfinite(packed).all():
            bad = next(n for n in self.names if not np.isfinite(grads[n]).all())
            raise NumericError(f"non-finite gradient for {bad!r}")
        return packed

    def freeze(self):
        self.vector.setflags(write=False)


def sgd_step(flat: FlatParams, grads: dict):
    """vector <- vector - lr * grad, in place; `grads` is what `backward` returns."""
    grad = _begin(flat, "sgd", grads)
    flat.vector -= flat.cfg.lr * grad
    _check_finite(flat.vector)


def adamw_step(flat: FlatParams, grads: dict):
    """AdamW, in place: bias-corrected moments plus decoupled weight decay."""
    grad = _begin(flat, "adamw", grads)
    t, lr, vec = flat.step_count, flat.cfg.lr, flat.vector
    flat.m = BETA1 * flat.m + (1 - BETA1) * grad
    flat.v = BETA2 * flat.v + (1 - BETA2) * grad * grad
    m_hat = flat.m / (1 - BETA1**t)
    v_hat = flat.v / (1 - BETA2**t)
    update = m_hat / (np.sqrt(v_hat) + EPSILON)
    vec[...] = vec - lr * update - lr * flat.cfg.weight_decay * vec
    _check_finite(vec)


def step(flat: FlatParams, grads: dict):
    (sgd_step if flat.cfg.kind == "sgd" else adamw_step)(flat, grads)


def _begin(flat: FlatParams, kind: str, grads: dict) -> np.ndarray:
    if flat.cfg.kind != kind:
        raise ContractError(f"{kind}_step called on {flat.cfg.kind} parameters")
    grad = flat.gather(grads)
    flat.step_count += 1
    return grad


def _check_finite(vector: np.ndarray):
    if not np.isfinite(vector).all():
        raise NumericError("non-finite parameter after an optimizer step")
