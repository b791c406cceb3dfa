"""Per-client restricted evaluation and the fairness triple (avg, worst, gap)."""

import csv
from dataclasses import dataclass

import numpy as np

from .textdata import make_batches

ROUNDS_CSV_HEADER = ["round", "client_id", "n_k", "eval_size", "accuracy",
                     "avg_acc", "worst_acc", "gap", "argmin_client"]


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
    client_sizes: list  # n_k per participating client, aligned with evals
    wall_time: float = 0.0


def _class_mask(labels: np.ndarray, present_classes) -> np.ndarray:
    """Boolean mask of the documents whose label is among `present_classes`."""
    if not present_classes:
        raise EvalError("present_classes is empty")
    mask = np.isin(labels, sorted(present_classes))
    if not mask.any():
        raise EvalError(f"test set has no documents for classes {sorted(present_classes)}")
    return mask


def restricted_test_set(test_docs, present_classes) -> list:
    """Test documents whose label is among the client's training classes."""
    mask = _class_mask(np.array([d.label for d in test_docs], dtype=np.int64), present_classes)
    return [d for d, keep in zip(test_docs, mask) if keep]


def evaluate_clients(params, forward, partitions, test_docs, max_seq_len,
                     batch_size: int = 64) -> list:
    """Eval-mode accuracy of one model for each client, on the test set
    restricted to that client's classes.

    Every client is scored by the same model, so one forward pass over the
    whole test set serves them all; a client's accuracy counts the correct
    predictions under its label mask.  Argmax ties resolve to the lowest
    class index.
    """
    batches = make_batches(test_docs, batch_size, 0, max_seq_len)
    labels = np.concatenate([b.labels for b in batches]) if batches else np.empty(0, np.int64)
    masks = [_class_mask(labels, p.present_classes) for p in partitions]
    correct = np.concatenate(
        [forward(params, b.token_ids, train=False).value.argmax(axis=1) == b.labels
         for b in batches])
    return [ClientEval(p.client_id, int(m.sum()), int((correct & m).sum()))
            for p, m in zip(partitions, masks)]


def evaluate_client(params, forward, client_partition, test_docs, max_seq_len,
                    batch_size: int = 64) -> ClientEval:
    """`evaluate_clients` for a single client."""
    return evaluate_clients(params, forward, [client_partition], test_docs, max_seq_len,
                            batch_size)[0]


def fairness_summary(evals) -> FairnessSummary:
    if not evals:
        raise EvalError("no client evaluations")
    accs = [e.accuracy for e in evals]
    avg = float(np.mean(accs))
    worst_idx = int(np.argmin(accs))  # ties -> lowest position = lowest client id
    worst = accs[worst_idx]
    if not avg - worst >= -1e-15:  # also rejects NaN accuracies
        raise EvalError(f"worst accuracy {worst!r} exceeds the mean {avg!r}")
    return FairnessSummary(avg, worst, avg - worst, evals[worst_idx].client_id)


def convergence_check(logs, window: int = 5, tolerance: float = 0.003) -> bool:
    """True iff the average-accuracy spread over the last `window` rounds <= tolerance."""
    series = [l.summary.avg if isinstance(l, RoundLog) else float(l) for l in logs]
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
