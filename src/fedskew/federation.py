"""Round-based federated protocol: broadcast, local training, aggregation.

Aggregators are weight rules over the clients' sample counts n_k.  FedAvg weights
every group by n_k/N; FedAvgW keeps that for ordinary groups but weights LoRA
groups by normalized (1/n_k)^beta, boosting small clients.  Every client with
data trains every round, so a run computes its weights once, before round 1.

The frozen groups never leave the server.  A client trains from the broadcast
params and returns only its trainable groups (`ClientUpdate.params`); the
server averages those in client-id order and merges the result into the global
params, whose frozen tensors are the same objects every round.

Each round ends with one eval-mode forward pass of the new global model over
the test set; every client's accuracy is then read off it under
a mask of the classes that client trains on (`metrics.evaluate_clients`).
"""

from dataclasses import dataclass

import numpy as np

from . import numkit as nk
from . import validate
# evaluate_client stays importable here: perfbench/tracer.py wraps it by this name
from .metrics import RoundLog, evaluate_client, evaluate_clients, fairness_summary  # noqa: F401
from .models import build_loss_and_grad, build_model, check_split
from .models.params import ParamSet
from .numkit.optim import OptimizerCfg, step
from .textdata import make_batches


class FederationError(RuntimeError):
    pass


@dataclass(frozen=True)
class FedConfig:
    optimizer: OptimizerCfg
    local_epochs: int
    rounds: int = 50
    batch_size: int = 32
    aggregator: str = "fedavg"  # "fedavg" | "fedavgw"
    beta: float = 0.0  # FedAvgW's exponent; 0 gives each client LoRA weight 1/K
    seed: int = 42

    def __post_init__(self):
        for name in ("rounds", "local_epochs", "batch_size"):
            validate.integer(name, getattr(self, name))
        if self.aggregator not in ("fedavg", "fedavgw"):
            raise ValueError(f"unknown aggregator {self.aggregator!r}")
        validate.nonnegative("beta", self.beta)


@dataclass(frozen=True)
class ClientUpdate:
    client_id: int
    params: ParamSet


@dataclass(frozen=True)
class AggregationWeights:
    standard: np.ndarray
    lora: np.ndarray

    def __post_init__(self):
        for name, w in (("standard", self.standard), ("lora", self.lora)):
            if not (np.isfinite(w).all() and (w >= 0).all()):
                raise ValueError(f"{name} weights must be finite and nonnegative, got {w!r}")
            if abs(w.sum() - 1.0) > 1e-12:
                raise ValueError(f"{name} weights sum to {w.sum()!r}, not 1")


def _normalize(raw: np.ndarray) -> np.ndarray:
    # scale by the max first so equal inputs normalize through the exact same
    # float path regardless of magnitude (equal n_k => bitwise-equal weights)
    y = raw / raw.max()
    return y / y.sum()


def fedavg_weights(sizes) -> AggregationWeights:
    n = np.array(sizes, dtype=np.float64)
    if n.sum() <= 0:
        raise FederationError("all clients empty")
    w = _normalize(n)
    return AggregationWeights(w, w)


def fedavgw_weights(sizes, beta: float) -> AggregationWeights:
    n = np.array(sizes, dtype=np.float64)
    if (n <= 0).any():
        raise FederationError("fedavgw requires n_k > 0 for every participant")
    return AggregationWeights(_normalize(n), _normalize((1.0 / n) ** beta))


def aggregate(updates, weights: AggregationWeights) -> dict:
    """{group name: Tensor}, the per-group weighted average of the clients' groups; lora
    groups use the lora weight vector.  The updates must hold the same groups and come in
    the client-id order of the weights, as `run_federation`'s do: each is the trainable
    subset of one broadcast ParamSet.
    """
    averaged = {}
    for gi, group in enumerate(updates[0].params):
        wvec = weights.lora if group.lora else weights.standard
        acc = np.zeros_like(group.tensor.data)
        for w, u in zip(wvec, updates):  # fixed client-id order: deterministic fp sum
            acc += w * u.params.groups[gi].tensor.data
        averaged[group.name] = nk.Tensor(acc)
    return averaged


def local_train(global_params: ParamSet, loss_and_grad, partition, dataset, fed_cfg: FedConfig,
                round_index: int) -> ClientUpdate:
    """`fed_cfg.local_epochs` epochs of minibatch training from the broadcast params, each
    step the model's `loss_and_grad` into `flat.grads`, then one optimizer `step(flat)`.

    The trainable groups train as one flat vector, which the update's tensors
    view read-only; the update holds only those groups.  Optimizer state is
    fresh each round.  An empty client has no batches: it returns a copy of the
    global trainable groups.
    """
    docs = dataset.train.take(partition.sample_indices)
    flat = nk.FlatParams(global_params.trainable_dict(), fed_cfg.optimizer)
    params = global_params.with_tensors(flat.tensors)
    cid, seed = partition.client_id, fed_cfg.seed
    try:
        for epoch in range(fed_cfg.local_epochs):
            shuffle_seed = nk.sub_seed(seed, "client", cid, "round", round_index, "epoch", epoch)
            rng = nk.derive(seed, "dropout", cid, round_index, epoch)
            for batch in make_batches(docs, fed_cfg.batch_size, shuffle_seed):
                loss_and_grad(params, batch.token_ids, batch.labels, rng, flat.grads)
                step(flat)
    except nk.NumericError as e:
        raise FederationError(f"client {cid}, round {round_index}: {e}") from e
    flat.freeze()
    return ClientUpdate(cid, params.trainable_subset())


def run_federation(dataset, partitions, model_family: str, model_cfg,
                   fed_cfg: FedConfig, initial_params=None):
    """Full protocol: returns (list of RoundLog, final ParamSet).  Before round 1 it checks
    the train and test splits, orders the clients with data by id and computes their
    aggregation weights; every such client trains and is evaluated every round."""
    global_params, forward = build_model(model_family, model_cfg,
                                         dataset.vocabulary.size, dataset.max_seq_len,
                                         fed_cfg.seed)
    loss_and_grad = build_loss_and_grad(model_family, model_cfg)
    if initial_params is not None:
        initial_params.check_congruent(global_params)
        global_params = initial_params
    check_split(global_params, dataset.train)  # every client's batches are rows of it
    check_split(global_params, dataset.test)  # and every evaluation batch of this one

    active = sorted((p for p in partitions if p.size > 0), key=lambda p: p.client_id)
    if not active:
        raise FederationError("no client has data")
    sizes = [p.size for p in active]
    weights = (fedavg_weights(sizes) if fed_cfg.aggregator == "fedavg"
               else fedavgw_weights(sizes, fed_cfg.beta))
    logs = []
    for t in range(1, fed_cfg.rounds + 1):
        updates = [local_train(global_params, loss_and_grad, p, dataset, fed_cfg, t)
                   for p in active]
        global_params = global_params.with_tensors(aggregate(updates, weights))
        evals = evaluate_clients(global_params, forward, active, dataset.test)
        logs.append(RoundLog(t, evals, fairness_summary(evals), sizes))
    return logs, global_params
