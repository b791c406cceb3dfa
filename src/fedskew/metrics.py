"""Per-client restricted evaluation and the fairness triple (avg, worst, gap)."""

import csv
from dataclasses import dataclass

import numpy as np

# make_batches stays importable here: perfbench/tracer.py wraps it by this name
from .textdata import make_batches  # noqa: F401

ROUNDS_CSV_HEADER = ["round", "client_id", "n_k", "eval_size", "accuracy",
                     "avg_acc", "worst_acc", "gap", "argmin_client"]
EVAL_BATCH_SIZE = 64  # test rows per eval-mode forward pass
# the paper's convergence rule: average accuracy within 0.3% over the final 5 rounds
CONVERGENCE_WINDOW, CONVERGENCE_TOLERANCE = 5, 0.003


class EvalError(ValueError):
    pass


@dataclass(frozen=True)
class ClientEval:
    client_id: int
    eval_size: int
    correct_count: int

    @property
    def accuracy(self) -> float:
        return self.correct_count / self.eval_size


@dataclass(frozen=True)
class FairnessSummary:
    avg: float
    worst: float
    gap: float
    argmin_client_id: int


@dataclass
class RoundLog:
    round_index: int
    evals: list
    summary: FairnessSummary
    client_sizes: list  # n_k per client with data, aligned with evals


def evaluate_clients(params, forward, partitions, test) -> list:
    """Eval-mode accuracy of one model for each client, on the test set
    restricted to that client's classes.

    Every client is scored by the same model, so one forward pass over the
    whole test set, in slices of `EVAL_BATCH_SIZE` rows in test-set order,
    serves them all; a client's test documents and correct predictions are sums
    over its classes of the per-class counts of the pass.  Argmax ties resolve
    to the lowest class index.
    """
    classes = [sorted(p.present_classes) for p in partitions]
    num_classes = max((len(p.label_histogram) for p in partitions), default=0)
    docs = np.bincount(test.labels, minlength=num_classes)
    for c in classes:
        if not docs[c].any():
            raise EvalError(f"test set has no documents for classes {c}")
    preds = np.concatenate([
        forward(params, test.token_ids[i : i + EVAL_BATCH_SIZE]).argmax(axis=1)
        for i in range(0, len(test), EVAL_BATCH_SIZE)])
    correct = np.bincount(test.labels[preds == test.labels], minlength=len(docs))
    return [ClientEval(p.client_id, int(docs[c].sum()), int(correct[c].sum()))
            for p, c in zip(partitions, classes)]


def evaluate_client(params, forward, client_partition, test) -> ClientEval:
    """`evaluate_clients` for a single client."""
    return evaluate_clients(params, forward, [client_partition], test)[0]


def fairness_summary(evals) -> FairnessSummary:
    accs = [e.accuracy for e in evals]
    avg = float(np.mean(accs))
    worst_idx = int(np.argmin(accs))  # ties -> lowest position = lowest client id
    worst = accs[worst_idx]
    if not avg - worst >= -1e-15:  # also rejects NaN accuracies
        raise EvalError(f"worst accuracy {worst!r} exceeds the mean {avg!r}")
    return FairnessSummary(avg, worst, avg - worst, evals[worst_idx].client_id)


def convergence_check(series, window: int = CONVERGENCE_WINDOW,
                      tolerance: float = CONVERGENCE_TOLERANCE) -> bool:
    """True iff the spread of the last `window` values of a per-round average-accuracy
    series is <= tolerance."""
    if len(series) < window:
        raise EvalError(f"need at least {window} rounds, have {len(series)}")
    tail = series[-window:]
    return max(tail) - min(tail) <= tolerance


def write_rounds_csv(logs, path):
    """One row per client per round; summary columns repeated on each row."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(ROUNDS_CSV_HEADER)
        for log in logs:
            s = log.summary
            for ev, n_k in zip(log.evals, log.client_sizes):
                writer.writerow([log.round_index, ev.client_id, n_k, ev.eval_size,
                                 repr(ev.accuracy), repr(s.avg), repr(s.worst),
                                 repr(s.gap), s.argmin_client_id])
