"""Dirichlet label-skew partitioning of a training set across clients.

Per class c, proportions are drawn from Dir(alpha * 1_K) and converted to
integer counts by largest-remainder rounding, so partitions are exactly
exhaustive and disjoint.  Smaller alpha gives more extreme skew.
"""

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import validate
from .numkit.rng import derive


class PartitionError(RuntimeError):
    pass


@dataclass(frozen=True)
class PartitionConfig:
    num_clients: int = 10
    alpha: float = 1.0
    seed: int = 42
    min_samples_per_client: int = 1
    max_redraws: int = 100

    def __post_init__(self):
        validate.integer("num_clients", self.num_clients)
        validate.positive("alpha", self.alpha)
        validate.integer("seed", self.seed, minimum=None)
        validate.integer("min_samples_per_client", self.min_samples_per_client, minimum=0)
        validate.integer("max_redraws", self.max_redraws)


@dataclass
class ClientPartition:
    client_id: int
    sample_indices: list
    label_histogram: list

    @property
    def size(self) -> int:
        return len(self.sample_indices)

    @property
    def present_classes(self) -> set:
        return {c for c, n in enumerate(self.label_histogram) if n > 0}


@dataclass
class SkewReport:
    sizes: list
    min_size: int
    max_size: int
    max_min_ratio: float  # None when a client holds no data
    class_entropies: list


def _largest_remainder(proportions: np.ndarray, total: int) -> np.ndarray:
    raw = proportions * total
    counts = np.floor(raw).astype(int)
    remainder = total - counts.sum()
    # hand leftovers to the largest fractional parts; ties to lower index
    order = np.argsort(-(raw - counts), kind="stable")
    counts[order[:remainder]] += 1
    return counts


def dirichlet_partition(dataset, cfg: PartitionConfig) -> list:
    """Split dataset.train, never empty, across cfg.num_clients clients by class-wise Dirichlet."""
    labels = dataset.train.labels
    num_classes = dataset.num_classes

    for redraw in range(cfg.max_redraws):
        assigned = [[] for _ in range(cfg.num_clients)]
        for c in range(num_classes):
            class_idx = np.flatnonzero(labels == c)
            if class_idx.size == 0:
                continue
            rng = derive(cfg.seed, "partition", redraw, "class", c)
            class_idx = class_idx[rng.permutation(class_idx.size)]
            props = rng.dirichlet(np.full(cfg.num_clients, cfg.alpha))
            counts = _largest_remainder(props, class_idx.size)
            start = 0
            for k in range(cfg.num_clients):
                assigned[k].extend(int(i) for i in class_idx[start : start + counts[k]])
                start += counts[k]
        partitions = [
            ClientPartition(k, sorted(idx),
                            np.bincount(labels[idx], minlength=num_classes).tolist())
            for k, idx in enumerate(assigned)]
        if min(p.size for p in partitions) >= cfg.min_samples_per_client:
            return partitions
    raise PartitionError(
        f"no partition met min_samples_per_client={cfg.min_samples_per_client} "
        f"after {cfg.max_redraws} redraws (alpha={cfg.alpha}, K={cfg.num_clients})")


def skew_report(partitions) -> SkewReport:
    sizes = [p.size for p in partitions]
    entropies = []
    for p in partitions:
        total = p.size
        ent = 0.0
        if total > 0:
            for n in p.label_histogram:
                if n > 0:
                    q = n / total
                    ent -= q * math.log(q)
        entropies.append(ent)
    mn, mx = min(sizes), max(sizes)
    return SkewReport(sizes, mn, mx, (mx / mn) if mn > 0 else None, entropies)


def save_manifest(partitions, cfg: PartitionConfig, path):
    manifest = {
        "seed": cfg.seed,
        "alpha": cfg.alpha,
        "num_clients": cfg.num_clients,
        "clients": [
            {"client_id": p.client_id, "indices": p.sample_indices,
             "label_histogram": p.label_histogram}
            for p in partitions
        ],
        "skew": asdict(skew_report(partitions)),
    }
    Path(path).write_text(json.dumps(manifest), encoding="utf-8")
