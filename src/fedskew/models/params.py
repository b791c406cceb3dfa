"""Named parameter groups: the unit broadcast and aggregated each round."""

from dataclasses import dataclass, replace

from ..numkit import ContractError, Tensor, kernels as kn

# per model kind: the embedding table, which the token ids index, and the head bias, one per label
_INPUT_GROUPS = {"textcnn": ("embedding", "fc.bias"), "loraformer": ("tok_emb", "head.bias")}


class StructuralError(ValueError):
    """Two ParamSets disagree on names, shapes, or flags."""


@dataclass(frozen=True)
class ParamGroup:
    name: str
    tensor: Tensor
    trainable: bool
    lora: bool

    def __post_init__(self):
        if self.lora and not self.trainable:
            raise StructuralError(f"lora group {self.name!r} must be trainable")


class ParamSet:
    def __init__(self, groups, model_kind: str):
        names = [g.name for g in groups]
        if len(set(names)) != len(names):
            raise StructuralError("duplicate parameter names")
        self.groups = tuple(groups)
        self.model_kind = model_kind
        self._by_name = {g.name: g for g in self.groups}

    def __iter__(self):
        return iter(self.groups)

    def __len__(self):
        return len(self.groups)

    def get(self, name: str) -> ParamGroup:
        return self._by_name[name]

    def has(self, name: str) -> bool:
        return name in self._by_name

    def trainable_dict(self) -> dict:
        return {g.name: g.tensor for g in self.groups if g.trainable}

    def trainable_subset(self) -> "ParamSet":
        """The trainable groups alone, in order: what a client sends the server."""
        return ParamSet([g for g in self.groups if g.trainable], self.model_kind)

    def with_tensors(self, tensors: dict) -> "ParamSet":
        """New ParamSet with some tensors replaced; flags and order unchanged."""
        new = [replace(g, tensor=tensors[g.name]) if g.name in tensors else g
               for g in self.groups]
        return ParamSet(new, self.model_kind)

    def check_congruent(self, other: "ParamSet"):
        if self.model_kind != other.model_kind or len(self) != len(other):
            raise StructuralError("model kind or group count mismatch")
        for a, b in zip(self.groups, other.groups):
            if (a.name, a.tensor.shape, a.trainable, a.lora) != (
                    b.name, b.tensor.shape, b.trainable, b.lora):
                raise StructuralError(f"group mismatch at {a.name!r} vs {b.name!r}")


def check_split(params: ParamSet, split):
    """Check once that every token id of `split` picks a row of the model's embedding table
    and every label a logit, so that no batch of it needs a check of its own."""
    table, head = _INPUT_GROUPS[params.model_kind]
    kn.check_ids(split.token_ids, len(params.get(table).tensor.data))
    labels, classes = split.labels, len(params.get(head).tensor.data)
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= classes:
        raise ContractError("label out of range")
