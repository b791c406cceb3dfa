"""Round-based federated protocol: broadcast, local training, aggregation.

Aggregators are weight rules over client updates.  FedAvg weights every
group by sample count n_k/N; FedAvgW keeps that for ordinary groups but
weights LoRA groups by normalized (1/n_k)^beta, boosting small clients.

The frozen groups never leave the server.  A client trains from the broadcast
params and returns only its trainable groups (`ClientUpdate.params`); the
server averages those in client-id order and merges the result into the global
params, whose frozen tensors are the same objects every round.

Each round ends with one eval-mode forward pass of the new global model over
the test set; every participating client's accuracy is then read off it under
a mask of the classes that client trains on (`metrics.evaluate_clients`).
"""

from dataclasses import dataclass

import numpy as np

from . import numkit as nk
from . import validate
# evaluate_client stays importable here: perfbench/tracer.py wraps it by this name
from .metrics import RoundLog, evaluate_client, evaluate_clients, fairness_summary  # noqa: F401
from .models import build_model
from .models.params import ParamSet, StructuralError
from .numkit.optim import OptimizerState, step
from .textdata import make_batches


class FederationError(RuntimeError):
    pass


@dataclass(frozen=True)
class OptimizerCfg:
    kind: str
    lr: float
    weight_decay: float = 0.0

    def __post_init__(self):
        validate.positive("lr", self.lr)
        validate.nonnegative("weight_decay", self.weight_decay)
        OptimizerState(self.kind, self.lr, self.weight_decay)  # raises ContractError on a bad kind


def check_beta(beta: float) -> float:
    """FedAvgW's exponent: a finite number >= 0 (0 gives each client LoRA weight 1/K)."""
    return validate.nonnegative("beta", beta)


@dataclass(frozen=True)
class FedConfig:
    optimizer: OptimizerCfg
    local_epochs: int
    rounds: int = 50
    batch_size: int = 32
    aggregator: str = "fedavg"  # "fedavg" | "fedavgw"
    beta: float = 0.0
    participation: float = 1.0
    seed: int = 42

    def __post_init__(self):
        for name in ("rounds", "local_epochs", "batch_size"):
            validate.integer(name, getattr(self, name))
        validate.share("participation", self.participation)
        if self.aggregator not in ("fedavg", "fedavgw"):
            raise ValueError(f"unknown aggregator {self.aggregator!r}")
        check_beta(self.beta)


@dataclass(frozen=True)
class ClientUpdate:
    client_id: int
    n_k: int
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


def fedavg_weights(updates) -> AggregationWeights:
    n = np.array([u.n_k for u in updates], dtype=np.float64)
    if n.sum() <= 0:
        raise FederationError("all clients empty")
    w = _normalize(n)
    return AggregationWeights(w, w)


def fedavgw_weights(updates, beta: float) -> AggregationWeights:
    check_beta(beta)
    n = np.array([u.n_k for u in updates], dtype=np.float64)
    if (n <= 0).any():
        raise FederationError("fedavgw requires n_k > 0 for every participant")
    return AggregationWeights(_normalize(n), _normalize((1.0 / n) ** beta))


def aggregate(updates, weights: AggregationWeights) -> ParamSet:
    """Per-group weighted average of the clients' trainable groups; lora groups
    use the lora weight vector.  An update that names a frozen group is rejected.
    """
    if not updates:
        raise FederationError("no updates to aggregate")
    template = updates[0].params
    for u in updates[1:]:
        template.check_congruent(u.params)
    new_tensors = {}
    for gi, group in enumerate(template):
        if not group.trainable:
            raise FederationError(f"update carries frozen group {group.name!r}")
        values = [u.params.groups[gi].tensor.data for u in updates]
        wvec = weights.lora if group.lora else weights.standard
        acc = np.zeros_like(values[0])
        for w, v in zip(wvec, values):  # fixed client-id order: deterministic fp sum
            acc += w * v
        new_tensors[group.name] = nk.Tensor(acc)
    return template.with_tensors(new_tensors)


def local_train(global_params: ParamSet, forward, partition, dataset,
                opt_cfg: OptimizerCfg, local_epochs: int, batch_size: int,
                seed: int, round_index: int) -> ClientUpdate:
    """E epochs of minibatch training from the broadcast params.

    The trainable groups train as one flat vector, which the update's tensors
    view read-only; the update holds only those groups.  Optimizer state is
    fresh each round.  An empty client has no batches: it returns a copy of the
    global trainable groups with n_k = 0.
    """
    docs = dataset.train.take(partition.sample_indices)
    flat = nk.FlatParams(global_params.trainable_dict())
    params = global_params.with_tensors(flat.tensors)
    state = OptimizerState(opt_cfg.kind, lr=opt_cfg.lr, weight_decay=opt_cfg.weight_decay)
    cid = partition.client_id
    try:
        for epoch in range(local_epochs):
            shuffle_seed = nk.sub_seed(seed, "client", cid, "round", round_index, "epoch", epoch)
            rng = nk.derive(seed, "dropout", cid, round_index, epoch)
            for batch in make_batches(docs, batch_size, shuffle_seed):
                logits = forward(params, batch.token_ids, train=True, rng=rng)
                loss = nk.softmax_cross_entropy(logits, batch.labels)
                step(state, flat.vector, flat.gather(nk.backward(loss)))
    except nk.NumericError as e:
        raise FederationError(f"client {cid}, round {round_index}: {e}") from e
    flat.freeze()
    return ClientUpdate(cid, partition.size, params.trainable_subset())


def run_federation(dataset, partitions, model_family: str, model_cfg,
                   fed_cfg: FedConfig, initial_params=None):
    """Full protocol: returns (list of RoundLog, final ParamSet)."""
    global_params, forward = build_model(model_family, model_cfg,
                                         dataset.vocabulary.size, dataset.max_seq_len,
                                         fed_cfg.seed)
    if initial_params is not None:
        initial_params.check_congruent(global_params)
        global_params = initial_params

    logs = []
    for t in range(1, fed_cfg.rounds + 1):
        active = [p for p in partitions if p.size > 0]
        if fed_cfg.participation < 1.0:
            count = max(1, round(fed_cfg.participation * len(active)))
            rng = nk.derive(fed_cfg.seed, "participation", t)
            chosen = sorted(rng.choice(len(active), size=count, replace=False))
            active = [active[i] for i in chosen]
        if not active:
            raise FederationError(f"round {t}: no participating clients")

        updates = [local_train(global_params, forward, p, dataset, fed_cfg.optimizer,
                               fed_cfg.local_epochs, fed_cfg.batch_size, fed_cfg.seed, t)
                   for p in active]
        updates.sort(key=lambda u: u.client_id)
        weights = (fedavg_weights(updates) if fed_cfg.aggregator == "fedavg"
                   else fedavgw_weights(updates, fed_cfg.beta))
        try:
            averaged = aggregate(updates, weights)
        except (FederationError, StructuralError) as e:
            raise FederationError(f"round {t}: {e}") from e
        global_params = global_params.with_tensors(averaged.trainable_dict())

        evals = evaluate_clients(global_params, forward, active, dataset.test)
        logs.append(RoundLog(t, evals, fairness_summary(evals), [p.size for p in active]))
    return logs, global_params
