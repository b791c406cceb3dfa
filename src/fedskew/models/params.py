"""Named parameter groups: the unit broadcast and aggregated each round."""

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ..numkit import Tensor


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

    @property
    def names(self) -> list:
        return [g.name for g in self.groups]

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

    def lora_size(self) -> int:
        return sum(g.tensor.size for g in self.groups if g.lora)


def save_checkpoint(params: ParamSet, out_dir):
    """JSON manifest + little-endian float64 blob in manifest order."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "model_kind": params.model_kind,
        "groups": [
            {"name": g.name, "shape": list(g.tensor.shape),
             "trainable": g.trainable, "lora": g.lora}
            for g in params
        ],
    }
    (out_dir / "checkpoint.json").write_text(json.dumps(manifest), encoding="utf-8")
    blob = np.concatenate([g.tensor.data.reshape(-1) for g in params]) if len(params) else np.array([])
    blob.astype("<f8").tofile(out_dir / "weights.bin")


def load_checkpoint(in_dir) -> ParamSet:
    in_dir = Path(in_dir)
    manifest = json.loads((in_dir / "checkpoint.json").read_text(encoding="utf-8"))
    blob = np.fromfile(in_dir / "weights.bin", dtype="<f8")
    groups = []
    pos = 0
    for entry in manifest["groups"]:
        shape = tuple(entry["shape"])
        size = int(np.prod(shape)) if shape else 1
        groups.append(ParamGroup(entry["name"], Tensor(blob[pos : pos + size].reshape(shape)),
                                 entry["trainable"], entry["lora"]))
        pos += size
    return ParamSet(groups, manifest["model_kind"])
