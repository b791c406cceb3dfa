import csv

import numpy as np
import pytest

from fedskew import metrics as mt
from fedskew import numkit as nk
from fedskew import textdata as td
from fedskew.models import TextCnnConfig, build_textcnn
from fedskew.partition import ClientPartition


def padded(labels, id_rows, seq):
    """A test Split of the given documents, right-padded with PAD to `seq`."""
    ids = np.full((len(id_rows), seq), td.PAD_ID, dtype=np.int64)
    for row, toks in zip(ids, id_rows):
        row[: len(toks)] = toks
    return td.Split(ids, np.asarray(labels, dtype=np.int64))


def balanced_test(per_class=200, num_classes=4, seq=4):
    labels = [c for c in range(num_classes) for _ in range(per_class)]
    return padded(labels, [(2 + c,) for c in labels], seq)


def restricted(test, classes):
    """The oracle of the restriction: the rows whose label is among `classes`, in order."""
    return test.take(np.isin(test.labels, sorted(classes)))


def client(classes):
    """A client whose training data holds exactly `classes`, of 6."""
    return ClientPartition(0, [0], [int(c in classes) for c in range(6)])


def predicts(cls):
    """A forward that predicts class `cls` for every document."""
    return lambda params, ids: np.eye(6)[np.full(len(ids), cls)]


def by_id(params, ids):
    """A forward whose prediction differs from row to row: (first id * 7) mod 6."""
    return np.eye(6)[(ids[:, 0] * 7) % 6]


def test_restriction_full_and_single_class():
    test = balanced_test()
    full = mt.evaluate_client(None, predicts(0), client({0, 1, 2, 3}), test)
    assert full.eval_size == len(restricted(test, {0, 1, 2, 3})) == 800
    only0 = mt.evaluate_client(None, predicts(0), client({0}), test)
    # every scored document is predicted class 0, so every one is labelled 0
    assert only0.eval_size == 200 and only0.correct_count == 200


def test_restriction_matches_brute_force():
    rng = np.random.default_rng(0)
    labels = [int(rng.integers(0, 6)) for _ in range(500)]
    test = padded(labels, [(2 + i,) for i in range(500)], 1)  # each row its own id
    present = {1, 4}
    brute = [(label, tuple(ids)) for label, ids in zip(test.labels.tolist(),
                                                        test.token_ids.tolist())
             if label in present]
    fast = restricted(test, present)
    assert list(zip(fast.labels.tolist(), map(tuple, fast.token_ids.tolist()))) == brute
    ev = mt.evaluate_client(None, by_id, client(present), test)
    assert ev.eval_size == len(brute)
    assert ev.correct_count == sum((ids[0] * 7) % 6 == label for label, ids in brute)


def test_restriction_errors():
    with pytest.raises(mt.EvalError, match=r"test set has no documents for classes \[\]"):
        mt.evaluate_client(None, predicts(0), client(set()), balanced_test())
    with pytest.raises(mt.EvalError, match=r"test set has no documents for classes \[3\]"):
        mt.evaluate_client(None, predicts(0), client({3}), balanced_test(num_classes=2))


def test_restriction_monotone():
    test = balanced_test()
    parts = [client({0}), client({0, 2})]
    a, b = mt.evaluate_clients(None, predicts(0), parts, test)
    assert b.eval_size >= a.eval_size


def test_zero_head_single_class_restriction():
    cfg = TextCnnConfig(num_classes=4, embed_dim=4, filters_per_width=3)
    params, forward = build_textcnn(cfg, vocab_size=10, max_seq_len=4, seed=0)
    part = ClientPartition(0, [0], [5, 0, 0, 0])
    ev = mt.evaluate_client(params, forward, part, balanced_test())
    assert ev.accuracy == 1.0  # all-zero logits: argmax tie resolves to class 0


def test_accuracy_matches_hand_count():
    # oracle model: logits one-hot on token id - 2 -> predicts doc's first token class
    def forward(params, ids):
        logits = np.zeros((len(ids), 4))
        for i, row in enumerate(ids):
            logits[i, max(int(row[0]) - 2, 0) % 4] = 1.0
        return logits

    pairs = [(0, 2), (0, 3), (1, 3), (1, 3), (2, 4), (2, 2), (3, 5), (3, 5), (0, 2), (1, 2)]
    docs = padded([lbl for lbl, _ in pairs], [(tok,) for _, tok in pairs], 1)
    part = ClientPartition(0, list(range(10)), [3, 3, 2, 2])
    ev = mt.evaluate_client(None, forward, part, docs)
    # hand count: docs where first-token class == label: 7 of 10
    assert ev.correct_count == 7 and ev.eval_size == 10


def per_client_forward_eval(params, forward, part, test):
    """Reference: restrict the test set to the client's classes, then forward it."""
    subset = restricted(test, part.present_classes)
    correct = 0
    for batch in td.make_batches(subset, 64, 0):
        preds = forward(params, batch.token_ids).argmax(axis=1)
        correct += int((preds == batch.labels).sum())
    return mt.ClientEval(part.client_id, len(subset), correct)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_evaluate_clients_matches_per_client_forward(seed):
    rng = np.random.default_rng(seed)
    num_classes, seq = 5, 6
    labels, rows = [], []
    for _ in range(300):  # ragged documents of 1 to seq tokens
        labels.append(int(rng.integers(0, num_classes)))
        rows.append(rng.integers(2, 30, size=rng.integers(1, seq + 1)))
    test = padded(labels, rows, seq)
    cfg = TextCnnConfig(num_classes=num_classes, embed_dim=4, filter_widths=(2, 3),
                        filters_per_width=3)
    zero_head, forward = build_textcnn(cfg, vocab_size=30, max_seq_len=seq, seed=seed)
    vector = zero_head.vector.copy()
    head = nk.views(vector, zero_head.layout.shapes)
    head["fc.weight"][...] = rng.standard_normal((6, num_classes))
    head["fc.bias"][...] = rng.standard_normal(num_classes)
    trained = zero_head.with_vector(vector)
    parts = [ClientPartition(0, [0], [4, 0, 0, 0, 0]),  # single classes
             ClientPartition(1, [0], [0, 0, 3, 0, 0]),
             ClientPartition(2, [0], [1, 2, 3, 4, 5])]  # every class
    for cid in range(3, 9):
        hist = [int(n) for n in rng.integers(0, 3, size=num_classes)]
        hist[int(rng.integers(0, num_classes))] += 1
        parts.append(ClientPartition(cid, [0], hist))
    for params in (trained, zero_head):  # zero head: all-zero logits, ties go to class 0
        calls = []

        def recording(model, token_ids):
            calls.append(np.array(token_ids))
            return forward(model, token_ids)

        fast = mt.evaluate_clients(params, recording, parts, test)
        # the test set once, in order, in slices of at most EVAL_BATCH_SIZE rows
        assert all(len(ids) <= mt.EVAL_BATCH_SIZE for ids in calls)
        assert np.array_equal(np.concatenate(calls), test.token_ids)
        brute = [per_client_forward_eval(params, forward, p, test) for p in parts]
        assert fast == brute
        assert [mt.evaluate_client(params, forward, p, test) for p in parts] == brute
    zero = mt.evaluate_clients(zero_head, forward, parts[:3], test)
    share0 = sum(label == 0 for label in labels) / len(test)
    assert [e.accuracy for e in zero] == [1.0, 0.0, share0]


def test_evaluate_clients_errors():
    test = balanced_test(num_classes=2)
    ok = ClientPartition(0, [0], [1, 1, 0, 0])
    for bad in (ClientPartition(1, [0], [0, 0, 0, 0]),  # no present classes
                ClientPartition(1, [0], [0, 0, 0, 2])):  # class without test documents
        with pytest.raises(mt.EvalError):
            mt.evaluate_clients(None, predicts(0), [ok, bad], test)
    with pytest.raises(mt.EvalError):
        mt.evaluate_client(None, predicts(0), ok, test.take([]))


def test_clients_scored_from_per_class_counts():
    """A single-class client's accuracy is the model's accuracy on that class; a client
    whose classes include one without test documents is scored on the rest."""
    rng = np.random.default_rng(3)
    test = padded(rng.integers(0, 3, size=300), [(2 + i,) for i in range(300)], 1)
    preds = by_id(None, test.token_ids).argmax(axis=1)
    for c in range(3):
        ev = mt.evaluate_client(None, by_id, client({c}), test)
        assert ev.accuracy == np.mean(preds[test.labels == c] == c)
    untested = mt.evaluate_client(None, by_id, client({1, 4}), test)  # class 4: no documents
    assert untested == mt.evaluate_client(None, by_id, client({1}), test)


def ev(cid, acc):
    return mt.ClientEval(cid, 1000, int(round(acc * 1000)))


def two_client_summary(avg, worst):
    # two clients whose unweighted mean is `avg` and min is `worst`
    return mt.fairness_summary([ev(0, 2 * avg - worst), ev(1, worst)])


def test_fairness_summary_paper_rows():
    s = two_client_summary(0.808, 0.307)
    assert s.avg * 100 == pytest.approx(80.8, abs=1e-9)
    assert s.gap * 100 == pytest.approx(50.1, abs=0.1)
    s2 = two_client_summary(0.783, 0.205)
    assert s2.gap * 100 == pytest.approx(57.8, abs=0.1)
    assert s2.argmin_client_id == 1


def test_fairness_summary_rejects_min_above_mean():
    class NanEval:  # an accuracy no count can produce
        client_id, accuracy = 1, float("nan")

    with pytest.raises(mt.EvalError, match="exceeds the mean"):
        mt.fairness_summary([ev(0, 0.5), NanEval()])


def test_fairness_summary_ties_and_equal():
    s = mt.fairness_summary([ev(0, 0.5), ev(1, 0.5), ev(2, 0.5)])
    assert s.gap == 0.0 and s.worst == s.avg and s.argmin_client_id == 0


def test_convergence_check():
    flat = [0.9] * 10
    assert mt.convergence_check(flat)
    spread6 = [0.5] * 5 + [0.930, 0.933, 0.931, 0.936, 0.930]
    assert not mt.convergence_check(spread6)
    ramp_then_flat = [0.1, 0.3, 0.5, 0.7, 0.80, 0.801, 0.8005, 0.8015, 0.800]
    assert mt.convergence_check(ramp_then_flat)
    with pytest.raises(mt.EvalError):
        mt.convergence_check([0.9, 0.9])


def test_rounds_csv_schema(tmp_path):
    evals = [ev(0, 0.8), ev(1, 0.6)]
    log = mt.RoundLog(1, evals, mt.fairness_summary(evals), [100, 50])
    path = tmp_path / "rounds.csv"
    mt.write_rounds_csv([log], path)
    with open(path) as f:
        rows = list(csv.reader(f))
    assert rows[0] == mt.ROUNDS_CSV_HEADER
    assert len(rows) == 3
    assert rows[1][:4] == ["1", "0", "100", "1000"]
    assert float(rows[2][7]) == pytest.approx(0.1)
    assert rows[1][8] == "1"
