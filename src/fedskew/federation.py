"""Round-based federated protocol: broadcast, local training, aggregation.

Aggregators are weight rules over the clients' sample counts n_k > 0.  FedAvg weights
every group by n_k/N; FedAvgW keeps that for ordinary groups but weights LoRA
groups by normalized (1/n_k)^beta, boosting small clients.  Every client with
data trains every round, so a run computes its weights once, before round 1.

A model's trainable groups are one vector under a static layout, from broadcast
to aggregation; its frozen groups never leave the server.  A client trains a
copy of the global vector and returns it (`ClientUpdate.params`); the server
sums the weighted vectors in client-id order into the next global vector, and
every round's model shares the same frozen arrays.

Each round ends with one eval-mode forward pass of the new global model over
the test set; every client's accuracy is then a sum, over the classes that client
trains on, of the pass's per-class counts (`metrics.evaluate_clients`).
"""

from dataclasses import dataclass

import numpy as np

from . import numkit as nk
from . import validate
# evaluate_client stays importable here: perfbench/tracer.py wraps it by this name
from .metrics import RoundLog, evaluate_client, evaluate_clients, fairness_summary  # noqa: F401
from .models import build_loss_and_grad, build_model, check_split
from .models.params import ParamSet, StructuralError
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


def _normalize(raw: np.ndarray) -> np.ndarray:
    # scale by the max first so equal inputs normalize through the exact same
    # float path regardless of magnitude (equal n_k => bitwise-equal weights)
    y = raw / raw.max()
    return y / y.sum()


def fedavg_weights(sizes) -> AggregationWeights:
    w = _normalize(np.array(sizes, dtype=np.float64))
    return AggregationWeights(w, w)


def fedavgw_weights(sizes, beta: float) -> AggregationWeights:
    n = np.array(sizes, dtype=np.float64)
    lora = (1.0 / n) ** beta
    if lora.max() == 0:  # _normalize would divide 0 by 0
        raise FederationError(f"fedavgw beta {beta!r} underflows: (1/n_k)^beta is 0 for "
                              f"every client (smallest n_k {int(n.min())})")
    return AggregationWeights(_normalize(n), _normalize(lora))


def aggregate(updates, weights: AggregationWeights) -> np.ndarray:
    """The next global vector, read-only and checked finite: the update vectors of one
    broadcast layout, weighted and summed in the client-id order of the weights, as
    `run_federation`'s come; lora groups' elements take the lora weight, the rest the standard.
    """
    lora = updates[0].params.layout.lora
    acc = np.zeros_like(updates[0].params.vector)
    for w_standard, w_lora, u in zip(weights.standard, weights.lora, updates):
        acc += np.where(lora, w_lora, w_standard) * u.params.vector
    if not np.isfinite(acc).all():
        raise nk.NumericError("non-finite aggregated parameters")
    acc.setflags(write=False)
    return acc


def local_train(global_params: ParamSet, loss_and_grad, partition, dataset, fed_cfg: FedConfig,
                round_index: int) -> ClientUpdate:
    """`fed_cfg.local_epochs` epochs of minibatch training from the broadcast params, each
    step the model's `loss_and_grad` into `flat.grads`, then one optimizer `step(flat)`.

    Training runs on a copy of the global trainable vector; the update holds that vector,
    read-only, and no frozen group.  Optimizer state is fresh each round.  An empty client
    has no batches: it returns a copy of the global vector.
    """
    docs = dataset.train.take(partition.sample_indices)
    flat = nk.FlatParams(global_params.vector, global_params.layout.shapes, fed_cfg.optimizer)
    params = global_params.with_vector(flat.vector)
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
    return ClientUpdate(cid, ParamSet(params.layout, flat.vector, {}))


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
        if initial_params.layout != global_params.layout:
            raise StructuralError("initial_params do not have the model's layout")
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
        global_params = global_params.with_vector(aggregate(updates, weights))
        evals = evaluate_clients(global_params, forward, active, dataset.test)
        logs.append(RoundLog(t, evals, fairness_summary(evals), sizes))
    return logs, global_params
