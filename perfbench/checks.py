"""Output checks for one `fedskew run` sweep.

The checks compare the files a sweep writes against the config that produced
it and against properties the method must have.  They keep no stored copy of
earlier output: every expected value is derived from the config or recomputed
from the per-client rows.
"""

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

TOL = 1e-12

# (model, alpha) cells exempt from the above-chance check.  At alpha = 0.1 a
# FedAvg or FedAvgW model can collapse onto the classes of the largest clients
# and stay there.  The frozen-backbone LoRA model did so on 2 of the 41
# desk-corpus seeds tried (23 and 35: final average 0.15-0.18, and on seed 23
# FedAvg stays at 0.15 through round 9 of 12).  TextCNN did so on 4 of 100
# seeds at the `cnn-skew` settings (52, 84, 89 and 90: 0.18-0.25), and on 52
# and 84 at 8 rounds and lr 0.05 as well, where its per-client accuracies show
# it predicting one class for every document.  That is the skew failure the
# simulator studies, not a fault in the outputs; every other check still
# applies to those cells.
CHANCE_EXEMPT = {("loraformer", 0.1), ("textcnn", 0.1)}


def planned_cells(config: dict) -> list:
    """(model, alpha, aggregator, beta) for every cell of the sweep: models x alphas x aggregators."""
    cells = []
    for model in config["models"]:
        for alpha in config["partition"]["alpha"]:
            for agg in config["federation"]["aggregators"]:
                name, _, beta = agg.partition(":")
                cells.append((model, float(alpha), name, float(beta or 0.0)))
    return cells


def check_partition(manifest: dict, num_classes: int, train_per_class: int,
                    num_clients: int) -> list:
    """Indices disjoint and exhaustive; histograms consistent with class and client sizes."""
    errors = []
    clients = manifest["clients"]
    if sorted(c["client_id"] for c in clients) != list(range(num_clients)):
        errors.append(f"partition: client ids {[c['client_id'] for c in clients]}")
    seen = set()
    total = 0
    for c in clients:
        idx = c["indices"]
        total += len(idx)
        overlap = seen.intersection(idx)
        if overlap or len(set(idx)) != len(idx):
            errors.append(f"partition: client {c['client_id']} shares indices "
                          f"{sorted(overlap)[:5] or 'with itself'}")
        seen.update(idx)
        hist = c["label_histogram"]
        if len(hist) != num_classes or sum(hist) != len(idx) or min(hist, default=0) < 0:
            errors.append(f"partition: client {c['client_id']} histogram {hist} "
                          f"does not describe its {len(idx)} indices")
    n_train = num_classes * train_per_class
    if seen != set(range(n_train)) or total != n_train:
        errors.append(f"partition: indices cover {len(seen)} of {n_train} training documents "
                      f"({total} assigned)")
    per_class = [sum(c["label_histogram"][k] for c in clients) for k in range(num_classes)]
    if any(n != train_per_class for n in per_class):
        errors.append(f"partition: per-class totals {per_class}, expected {train_per_class} each")
    return errors


def check_rounds(rows: list, manifest: dict, num_classes: int, test_per_class: int,
                 rounds: int, above_chance: bool = True) -> list:
    """Per-client rows match the partition; the summary columns match the rows;
    with `above_chance`, the final round's average beats 1/num_classes."""
    errors = []
    sizes = {c["client_id"]: len(c["indices"]) for c in manifest["clients"]}
    classes = {c["client_id"]: sum(1 for n in c["label_histogram"] if n > 0)
               for c in manifest["clients"]}
    active = sorted(k for k, n in sizes.items() if n > 0)
    by_round = {}
    for row in rows:
        by_round.setdefault(int(row["round"]), []).append(row)
    if sorted(by_round) != list(range(1, rounds + 1)):
        errors.append(f"rounds.csv: rounds {sorted(by_round)}, expected 1..{rounds}")
    for t, group in sorted(by_round.items()):
        ids = [int(r["client_id"]) for r in group]
        if ids != active:
            errors.append(f"rounds.csv round {t}: clients {ids}, expected {active}")
        accs = []
        for r in group:
            k = int(r["client_id"])
            n_k, eval_size, acc = int(r["n_k"]), int(r["eval_size"]), float(r["accuracy"])
            if n_k != sizes.get(k):
                errors.append(f"rounds.csv round {t} client {k}: n_k {n_k}, "
                              f"partition size {sizes.get(k)}")
            expected_eval = test_per_class * classes.get(k, 0)
            if eval_size != expected_eval:
                errors.append(f"rounds.csv round {t} client {k}: eval_size {eval_size}, "
                              f"expected {expected_eval}")
            correct = round(acc * eval_size) if eval_size > 0 else -1
            if not 0 <= correct <= eval_size or correct / eval_size != acc:
                errors.append(f"rounds.csv round {t} client {k}: accuracy {acc!r} is not "
                              f"a count out of {eval_size}")
            accs.append((acc, k))
        if not accs:
            continue
        avg = math.fsum(a for a, _ in accs) / len(accs)
        worst, argmin = min(accs)  # ties -> lowest client id
        for r in group:
            got = (float(r["avg_acc"]), float(r["worst_acc"]), float(r["gap"]),
                   int(r["argmin_client"]))
            if (abs(got[0] - avg) > TOL or got[1] != worst or abs(got[2] - (avg - worst)) > TOL
                    or abs(got[2] - (got[0] - got[1])) > TOL or got[3] != argmin):
                errors.append(f"rounds.csv round {t}: summary (avg, worst, gap, argmin) {got}, "
                              f"recomputed {(avg, worst, avg - worst, argmin)}")
                break
    if by_round and above_chance:
        final_avg = float(by_round[max(by_round)][0]["avg_acc"])
        if not final_avg > 1.0 / num_classes:
            errors.append(f"rounds.csv: final avg_acc {final_avg} not above chance "
                          f"{1.0 / num_classes}")
    return errors


@dataclass
class SweepCheck:
    errors: list = field(default_factory=list)
    failed: int = 0
    rounds_csv: dict = field(default_factory=dict)  # cell -> rounds.csv bytes


def check_sweep(out_dir, config: dict) -> SweepCheck:
    """Check every run directory under `out_dir` against `config`."""
    out_dir = Path(out_dir)
    synth = config["dataset"]["synthetic"]
    num_classes = synth["num_classes"]
    result = SweepCheck()
    planned = planned_cells(config)
    found = set()
    for path in sorted(out_dir.glob("*/summary.json")):
        summary = json.loads(path.read_text(encoding="utf-8"))
        c = summary["config"]
        cell = (c["model"], float(c["alpha"]), c["aggregator"], float(c["beta"]))
        if cell in found:
            result.errors.append(f"cell {cell}: more than one summary.json")
        found.add(cell)
        if summary["status"] != "ok":
            result.failed += 1
            continue
        run_dir = path.parent
        manifest = json.loads((run_dir / "partition.json").read_text(encoding="utf-8"))
        raw = (run_dir / "rounds.csv").read_bytes()
        rows = list(csv.DictReader(io.StringIO(raw.decode("utf-8"))))
        errs = check_partition(manifest, num_classes, synth["train_docs_per_class"],
                               config["partition"]["num_clients"])
        errs += check_rounds(rows, manifest, num_classes, synth["test_docs_per_class"],
                             config["federation"]["rounds"],
                             above_chance=cell[:2] not in CHANCE_EXEMPT)
        result.errors += [f"{cell}: {e}" for e in errs]
        result.rounds_csv[cell] = raw
    missing = [cell for cell in planned if cell not in found]
    extra = [cell for cell in found if cell not in planned]
    result.failed += len(missing)
    if missing or extra:
        result.errors.append(f"cells missing {missing}, unplanned {extra}")
    if not (out_dir / "report.md").is_file():
        result.errors.append("report.md missing")
    return result
