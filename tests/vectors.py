"""Plain-text test vectors for the forward ops.

One case per line: `op;shape1 shape2 ...;seed;checksum` where checksum is
the sum of the output's elements to 12 significant digits.  Inputs are
standard-normal draws from the named stream (op, seed).
"""

import numpy as np

from fedskew.numkit import autograd as ag
from fedskew.numkit.rng import derive


def _inputs(op: str, shapes, seed: int):
    rng = derive(seed, "test-vector", op)
    return [rng.standard_normal(s) for s in shapes]


def _run(op: str, shapes, seed: int) -> float:
    xs = _inputs(op, shapes, seed)
    if op == "softmax_cross_entropy":
        labels = derive(seed, "test-vector-labels", op).integers(0, shapes[0][1], size=shapes[0][0])
        out = ag.softmax_cross_entropy(ag.const(xs[0]), labels)
    elif op == "scaled_dot_attention":
        out = ag.scaled_dot_attention(*[ag.const(x) for x in xs])
    elif op == "layernorm":
        d = shapes[0][-1]
        out = ag.layernorm(ag.const(xs[0]), ag.const(np.ones(d)), ag.const(np.zeros(d)))
    else:
        out = getattr(ag, op)(*[ag.const(x) for x in xs])
    return float(out.value.sum())


def format_case(op: str, shapes, seed: int) -> str:
    return f"{op};{' '.join('x'.join(str(d) for d in s) for s in shapes)};{seed};{_run(op, shapes, seed):.12g}"


def parse_case(line: str):
    op, shapes_s, seed_s, checksum_s = line.strip().split(";")
    shapes = [tuple(int(d) for d in s.split("x")) for s in shapes_s.split()]
    return op, shapes, int(seed_s), float(checksum_s)


def write_vectors(path, cases):
    """cases: iterable of (op, shapes, seed)."""
    with open(path, "w", encoding="utf-8") as f:
        for op, shapes, seed in cases:
            f.write(format_case(op, shapes, seed) + "\n")


def check_vectors(path) -> list:
    """Re-run every case; return a list of mismatch descriptions (empty = pass)."""
    failures = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            op, shapes, seed, expected = parse_case(line)
            got = _run(op, shapes, seed)
            if f"{got:.12g}" != f"{expected:.12g}":
                failures.append(f"line {lineno}: {op} expected {expected:.12g}, got {got:.12g}")
    return failures
