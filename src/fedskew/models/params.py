"""A model's parameters: a static layout of named groups, the frozen groups' arrays, and one
float64 vector of the trainable groups, the unit broadcast and aggregated each round."""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..numkit import ContractError, NumericError, kernels as kn, views

# per model kind: the embedding table, which the token ids index, and the head bias, one per label
_INPUT_GROUPS = {"textcnn": ("embedding", "fc.bias"), "loraformer": ("tok_emb", "head.bias")}


class StructuralError(ValueError):
    """Parameters that do not fit the model or the operation they are given to."""


class Spec(NamedTuple):
    """One group of a layout."""
    name: str
    shape: tuple
    trainable: bool
    lora: bool


class Group(NamedTuple):
    """One group of a ParamSet, as iterating it yields them; `tensor` is a read-only array."""
    name: str
    tensor: np.ndarray
    trainable: bool
    lora: bool


@dataclass(frozen=True)
class Layout:
    """A model's groups in order, fixed when the model is built.  The trainable groups lie in
    that order in one vector: `shapes` maps each to its shape, and `lora` marks the vector's
    elements that belong to LoRA groups.  ParamSets of equal layouts are congruent."""
    model_kind: str
    specs: tuple

    def __post_init__(self):
        trained = [s for s in self.specs if s.trainable]
        object.__setattr__(self, "shapes", {s.name: s.shape for s in trained})
        object.__setattr__(self, "lora", np.repeat([s.lora for s in trained],
                                                   [math.prod(s.shape) for s in trained]))


class ParamSet:
    """A model's parameters under `layout`: `vector`, the trainable groups one after another
    in one float64 vector, and `frozen`, {name: array} of the frozen groups, which every
    ParamSet of a run shares.  `arrays` maps each group it holds to a read-only array: a
    view of `vector` or a frozen array.  A client's update holds no frozen group: they never
    leave the server.  Iterating yields the held groups in layout order, as `Group`s."""

    def __init__(self, layout: Layout, vector: np.ndarray, frozen: dict):
        self.layout, self.vector, self.frozen = layout, vector, frozen
        trained = views(vector, layout.shapes)
        for view in trained.values():
            view.setflags(write=False)
        self.arrays = {s.name: trained[s.name] if s.trainable else frozen[s.name]
                       for s in layout.specs if s.trainable or s.name in frozen}

    def __iter__(self):
        return (Group(s.name, self.arrays[s.name], s.trainable, s.lora)
                for s in self.layout.specs if s.name in self.arrays)

    def with_vector(self, vector: np.ndarray) -> "ParamSet":
        """The same model with `vector` as its trainable values: the one way a run makes
        its next ParamSet."""
        return ParamSet(self.layout, vector, self.frozen)


def build_params(model_kind: str, groups) -> ParamSet:
    """A ParamSet of `groups`, `Group`s in order, under a new layout of their names, shapes
    and flags.  This is where values enter a model, so every array is checked finite here:
    the trainable ones are copied into the vector, and the frozen ones are kept, read-only."""
    groups = [g._replace(tensor=np.ascontiguousarray(g.tensor, dtype=np.float64)) for g in groups]
    for g in groups:
        if not np.isfinite(g.tensor).all():
            raise NumericError(f"non-finite values in {g.name!r}")
        if not g.trainable:
            g.tensor.setflags(write=False)
    layout = Layout(model_kind, tuple(Spec(g.name, g.tensor.shape, g.trainable, g.lora)
                                      for g in groups))
    vector = np.concatenate([g.tensor.reshape(-1) for g in groups if g.trainable])
    vector.setflags(write=False)
    return ParamSet(layout, vector, {g.name: g.tensor for g in groups if not g.trainable})


def check_split(params: ParamSet, split):
    """Check once that every token id of `split` picks a row of the model's embedding table
    and every label a logit, so that no batch of it needs a check of its own."""
    table, head = _INPUT_GROUPS[params.layout.model_kind]
    kn.check_ids(split.token_ids, len(params.arrays[table]))
    labels, classes = split.labels, len(params.arrays[head])
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= classes:
        raise ContractError("label out of range")
