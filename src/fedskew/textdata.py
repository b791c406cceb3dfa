"""Corpus ingestion, vocabulary, batching, and the synthetic desk-scale corpus.

Tokenization is deliberately simple (lowercase, punctuation stripped,
whitespace split) so runs are reproducible from raw CSV alone.  The
vocabulary is built from training text only.

A split holds its documents as two arrays (`Split`): token ids, one row of
`max_seq_len` per document, and labels.  The CSV loader truncates each document
to `max_seq_len` and right-pads it with PAD once; a synthetic document fills its
row.  A batch is a row gather of a split.
"""

import csv
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import PurePath

import numpy as np

from . import validate
from .numkit.rng import derive

PAD_ID = 0
UNK_ID = 1
MAX_VOCAB_SIZE = 30000  # a CSV vocabulary keeps its train split's most frequent words

_TOKEN_RE = re.compile(r"[^a-z0-9\s]+")


class DataError(ValueError):
    pass


def tokenize(text: str) -> list:
    return _TOKEN_RE.sub(" ", text.lower()).split()


@dataclass
class Vocabulary:
    token_to_id: dict
    id_to_token: list

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def encode(self, tokens) -> tuple:
        return tuple(self.token_to_id.get(t, UNK_ID) for t in tokens)

    @classmethod
    def build(cls, token_lists, max_size: int) -> "Vocabulary":
        """Top `max_size` tokens by frequency (ties lexicographic); PAD/UNK extra."""
        counts = Counter()
        for toks in token_lists:
            counts.update(toks)
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:max_size]
        id_to_token = ["<pad>", "<unk>"] + [t for t, _ in ranked]
        return cls({t: i for i, t in enumerate(id_to_token)}, id_to_token)


@dataclass(frozen=True)
class Split:
    """The N documents of a split as arrays: `token_ids` (N, max_seq_len) int64,
    each row a document's ids right-padded with PAD (which never occurs inside a
    document), and `labels` (N,) int64.  A batch is a Split too."""
    token_ids: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)

    def take(self, index) -> "Split":
        """The rows at `index` (integer indices or a boolean mask), in that order."""
        return Split(self.token_ids[index], self.labels[index])


@dataclass
class Dataset:
    num_classes: int
    train: Split
    test: Split
    vocabulary: Vocabulary
    max_seq_len: int


@dataclass(frozen=True)
class CsvSchema:
    """An AG-News-style CSV dataset: its files, the columns that hold the label (the
    classes numbered from 1) and the text, and the sequence-length limit."""
    train_path: str
    label_column: int
    text_columns: tuple
    num_classes: int
    test_path: str = None  # None: no test split
    max_seq_len: int = 64

    def __post_init__(self):
        for name, path in (("train_path", self.train_path), ("test_path", self.test_path)):
            if not isinstance(path, (str, PurePath)) and (name, path) != ("test_path", None):
                raise ValueError(f"{name}: must be a path, got {path!r}")
        if not isinstance(self.text_columns, tuple) or not self.text_columns:
            raise ValueError(f"text_columns: must be a nonempty list, got {self.text_columns!r}")
        for column in (self.label_column, *self.text_columns):
            validate.integer("label_column and text_columns", column, minimum=0)
        for name in ("num_classes", "max_seq_len"):
            validate.integer(name, getattr(self, name))


def load_csv(schema: CsvSchema) -> Dataset:
    """Load an AG-News-style CSV pair (train builds the vocabulary)."""
    train_rows = _read_rows(schema.train_path, schema)
    test_rows = _read_rows(schema.test_path, schema) if schema.test_path else []
    vocab = Vocabulary.build((toks for _, toks in train_rows), MAX_VOCAB_SIZE)

    def to_split(rows):  # each document truncated to max_seq_len and right-padded with PAD
        token_ids = np.full((len(rows), schema.max_seq_len), PAD_ID, dtype=np.int64)
        for row, (_, toks) in zip(token_ids, rows):
            ids = vocab.encode(toks[: schema.max_seq_len])
            row[: len(ids)] = ids
        return Split(token_ids, np.array([label for label, _ in rows], dtype=np.int64))

    return Dataset(schema.num_classes, to_split(train_rows), to_split(test_rows), vocab,
                   schema.max_seq_len)


def _read_rows(path, schema: CsvSchema):
    rows = []
    with open(path, newline="", encoding="utf-8") as f:
        for lineno, row in enumerate(csv.reader(f), 1):
            if not row:
                continue
            needed = max(schema.label_column, *schema.text_columns)
            if len(row) <= needed:
                raise DataError(f"{path}:{lineno}: expected at least {needed + 1} columns")
            try:
                label = int(row[schema.label_column]) - 1  # AG News numbers classes from 1
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-integer label {row[schema.label_column]!r}")
            if not 0 <= label < schema.num_classes:
                raise DataError(f"{path}:{lineno}: label {label} outside [0, {schema.num_classes})")
            text = " ".join(row[c] for c in schema.text_columns)
            rows.append((label, tokenize(text)))
    if not rows:
        raise DataError(f"{path}: no rows")
    return rows


@dataclass(frozen=True)
class SyntheticSpec:
    num_classes: int
    vocab_size: int
    train_docs_per_class: int
    test_docs_per_class: int
    doc_length: int
    topic_concentration: float
    seed: int

    @property
    def max_seq_len(self) -> int:
        """Every synthetic document is `doc_length` tokens and fills its row."""
        return self.doc_length

    def __post_init__(self):
        for name in ("num_classes", "vocab_size", "train_docs_per_class",
                     "test_docs_per_class", "doc_length"):
            validate.integer(name, getattr(self, name))
        validate.positive("topic_concentration", self.topic_concentration)
        validate.integer("seed", self.seed, minimum=None)


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Balanced corpus with class-conditional unigram topics drawn from a
    symmetric Dirichlet; small concentration gives near-disjoint classes.
    Each document is `spec.doc_length` tokens and fills its row: no PAD."""
    id_to_token = ["<pad>", "<unk>"] + [f"w{i}" for i in range(spec.vocab_size)]
    vocab = Vocabulary({t: i for i, t in enumerate(id_to_token)}, id_to_token)

    topics = []
    for c in range(spec.num_classes):
        rng = derive(spec.seed, "synthetic-topic", c)
        topics.append(rng.dirichlet(np.full(spec.vocab_size, spec.topic_concentration)))

    def sample_split(split, per_class):
        ids = [derive(spec.seed, "synthetic-docs", split, c)
               .choice(spec.vocab_size, size=(per_class, spec.doc_length), p=topics[c]) + 2
               for c in range(spec.num_classes)]
        labels = np.repeat(np.arange(spec.num_classes, dtype=np.int64), per_class)
        return Split(np.concatenate(ids), labels)

    return Dataset(spec.num_classes,
                   sample_split("train", spec.train_docs_per_class),
                   sample_split("test", spec.test_docs_per_class),
                   vocab, spec.max_seq_len)


def make_batches(docs: Split, batch_size: int, seed: int) -> list:
    """Seeded shuffle, then Splits of `batch_size` rows (the last may be short)."""
    order = derive(seed, "batch-shuffle").permutation(len(docs))
    return [docs.take(order[start : start + batch_size])
            for start in range(0, len(docs), batch_size)]
