import re

import numpy as np
import pytest
from scipy import stats

from fedskew import textdata as td


def schema(train, test=None, **kw):
    return td.CsvSchema(train_path=train, label_column=0, text_columns=(1, 2), num_classes=4,
                        test_path=test, **kw)


def write_csv(path, rows):
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def test_load_csv_schema_application(tmp_path):
    train = tmp_path / "train.csv"
    write_csv(train, ['3,"Stocks rally","Markets rose"', '1,"a b","c"'])
    ds = td.load_csv(schema(train))
    ids = ds.train.token_ids[0]
    assert ds.train.labels[0] == 2
    words = [ds.vocabulary.id_to_token[t] for t in ids[:4]]
    assert words == ["stocks", "rally", "markets", "rose"]
    assert (ids[4:] == td.PAD_ID).all() and len(ids) == schema(train).max_seq_len


def test_test_only_token_maps_to_unk(tmp_path):
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    write_csv(train, ['1,"alpha","beta"'])
    write_csv(test, ['1,"gamma","alpha"'])
    ds = td.load_csv(schema(train, test))
    assert ds.test.token_ids[0, 0] == td.UNK_ID
    assert ds.test.token_ids[0, 1] not in (td.UNK_ID, td.PAD_ID)


def test_vocab_cap_excludes_reserved():
    vocab = td.Vocabulary.build([["a", "a", "b", "b", "c"]], 2)
    assert vocab.id_to_token == ["<pad>", "<unk>", "a", "b"]


def test_load_csv_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    write_csv(bad, ['1,"x","y"', 'oops,"x","y"'])
    with pytest.raises(td.DataError, match="2"):
        td.load_csv(schema(bad))
    out_of_range = tmp_path / "range.csv"
    write_csv(out_of_range, ['9,"x","y"'])
    with pytest.raises(td.DataError, match="label"):
        td.load_csv(schema(out_of_range))
    # a test split's labels are checked as the train split's are, naming the test file
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    write_csv(train, ['1,"x","y"'])
    write_csv(test, ['9,"x","y"'])
    with pytest.raises(td.DataError,
                       match=rf"^{re.escape(str(test))}:1: label 8 outside \[0, 4\)$"):
        td.load_csv(schema(train, test))
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(td.DataError, match="no rows"):
        td.load_csv(schema(empty))


def test_vocabulary_never_sees_test_text(tmp_path):
    train, test_a, test_b = tmp_path / "tr.csv", tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(train, ['1,"foo bar","baz"'])
    write_csv(test_a, ['1,"quux","zap"'])
    write_csv(test_b, ['1,"different","words entirely"'])
    va = td.load_csv(schema(train, test_a)).vocabulary.id_to_token
    vb = td.load_csv(schema(train, test_b)).vocabulary.id_to_token
    assert va == vb


DESK_SPEC = td.SyntheticSpec(num_classes=4, vocab_size=100, train_docs_per_class=25,
                             test_docs_per_class=10, doc_length=12,
                             topic_concentration=0.05, seed=7)


def test_synthetic_determinism_and_counts():
    a = td.generate_synthetic(DESK_SPEC)
    b = td.generate_synthetic(DESK_SPEC)
    assert np.array_equal(a.train.token_ids, b.train.token_ids)
    assert len(a.train) == 100 and len(a.test) == 40
    labels = a.train.labels.tolist()
    assert all(labels.count(c) == 25 for c in range(4))


def test_synthetic_naive_bayes_oracle():
    spec = td.SyntheticSpec(num_classes=4, vocab_size=200, train_docs_per_class=100,
                            test_docs_per_class=50, doc_length=16,
                            topic_concentration=0.01, seed=3)
    ds = td.generate_synthetic(spec)
    counts = np.ones((spec.num_classes, ds.vocabulary.size))  # +1 smoothing
    assert (ds.train.token_ids != td.PAD_ID).all()  # a synthetic document fills its row
    assert ds.train.token_ids.dtype == ds.train.labels.dtype == np.int64
    for label, ids in zip(ds.train.labels, ds.train.token_ids):
        for t in ids:
            counts[label, t] += 1
    log_probs = np.log(counts / counts.sum(axis=1, keepdims=True))
    correct = sum(
        int(np.argmax([log_probs[c, ids].sum() for c in range(4)]) == label)
        for label, ids in zip(ds.test.labels, ds.test.token_ids)
    )
    assert correct / len(ds.test) > 0.95


def test_make_batches_sizes_and_determinism():
    ds = td.generate_synthetic(DESK_SPEC)
    first5 = ds.train.take(np.arange(5))
    batches = td.make_batches(first5, 2, seed=1)
    assert [len(b.labels) for b in batches] == [2, 2, 1]
    again = td.make_batches(first5, 2, seed=1)
    for x, y in zip(batches, again):
        assert np.array_equal(x.token_ids, y.token_ids)
    # a batch is a row gather: together the batches hold each row exactly once
    rows = np.concatenate([b.token_ids for b in batches])
    assert sorted(map(tuple, rows.tolist())) == sorted(map(tuple, first5.token_ids.tolist()))
    assert td.make_batches(ds.train.take([]), 4, seed=0) == []


def test_batch_padding(tmp_path):
    train = tmp_path / "train.csv"
    write_csv(train, ['1,"five six",""'])
    ds = td.load_csv(schema(train, max_seq_len=4))
    (batch,) = td.make_batches(ds.train, 1, seed=0)
    assert batch.token_ids.tolist() == [[2, 3, td.PAD_ID, td.PAD_ID]]
    assert batch.token_ids.dtype == batch.labels.dtype == np.int64


def test_shuffle_first_position_uniform():
    n = 10_000
    docs = list(range(n))
    firsts = []
    for seed in range(300):
        order = td.derive(seed, "batch-shuffle").permutation(n)
        firsts.append(order[0])
    _, p = stats.kstest(np.array(firsts) / n, "uniform")
    assert p > 0.01


def test_ragged_csv_load(tmp_path):
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    write_csv(train, ['2,"b",""', '1,"a b c","a"', '4,"c c a b a b","d"'])
    write_csv(test, ['3,"zz a",""', '1,"",""'])
    ds = td.load_csv(schema(train, test, max_seq_len=5))
    # vocabulary by frequency, ties lexicographic: a=2, b=3, c=4, d=5
    P, U = td.PAD_ID, td.UNK_ID
    expect_train = [[3, P, P, P, P], [2, 3, 4, 2, P], [4, 4, 2, 3, 2]]  # last one truncated
    expect_test = [[U, 2, P, P, P], [P, P, P, P, P]]
    assert ds.train.token_ids.tolist() == expect_train
    assert ds.train.labels.tolist() == [1, 0, 3]
    assert ds.test.token_ids.tolist() == expect_test
    assert ds.test.labels.tolist() == [2, 0]
    for split in (ds.train, ds.test):
        assert split.token_ids.dtype == split.labels.dtype == np.int64
    assert (ds.num_classes, ds.max_seq_len) == (4, 5)
    assert ds.vocabulary.id_to_token == ["<pad>", "<unk>", "a", "b", "c", "d"]
