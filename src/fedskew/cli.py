"""Declarative experiment runner.

A single JSON config describes a sweep: dataset x models x alphas x
aggregators.  Each cell is a run with a stable content-derived id; runs
write rounds.csv / summary.json / partition.json into private directories
and report.md, built from the summaries, covers the sweep.  `--jobs N` forks one
process per cell, N at a time; a cell whose process dies fails alone.

Exit codes: 0 ok, 1 config or data error, 2 run failure, 3 selftest failure.
"""

import argparse
import errno
import hashlib
import json
import os
import signal
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import metrics as mt
from . import textdata as td
from . import validate
from .federation import FedConfig, FederationError, fedavg_weights, fedavgw_weights, run_federation
from .models import (LoraFormerConfig, PretrainConfig, TextCnnConfig, build_loraformer,
                     build_params, check_fits, loraformer, merge_lora, pretrain_backbone,
                     textcnn)
from .numkit import OptimizerCfg
from .partition import (PartitionConfig, PartitionError, dirichlet_partition, save_manifest,
                        skew_report)


class ConfigError(ValueError):
    pass


class InputDataError(ValueError):
    """The data a valid config points at cannot be used: a CSV file is missing or malformed,
    no partition meets the config's constraints, a client's classes have no test documents,
    a FedAvgW beta gives every client of a partition a LoRA weight of 0, the target has too
    few words for a proxy corpus, an output path is taken, or `report` cannot read a summary."""


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

PAPER_OPTIMIZERS = {
    "textcnn": {"kind": "sgd", "lr": 0.01, "weight_decay": 0.0},
    "loraformer": {"kind": "adamw", "lr": 5e-5, "weight_decay": 0.01},
}
PAPER_EPOCHS = {"textcnn": 5, "loraformer": 1}
MODEL_CONFIGS = {"textcnn": TextCnnConfig, "loraformer": LoraFormerConfig}
DATASET_SPECS = {"synthetic": td.SyntheticSpec, "csv": td.CsvSchema}
RUN_FILES = ("partition.json", "rounds.csv", "summary.json")  # in each run's directory
REPORT_FILES = ("report.md", "gap_vs_alpha.csv")  # in out_dir


@contextmanager
def _at(where: str, renamed=None):
    """Turns a TypeError, ValueError or OverflowError raised in the block into
    ConfigError("<where>: …").  A check names the field it checks; `renamed` maps a
    field to the key its value came from, which the message names instead."""
    try:
        yield
    except (TypeError, ValueError, OverflowError) as e:
        name, _, rest = str(e).partition(": ")
        message = f"{renamed[name]}: {rest}" if name in (renamed or {}) else str(e)
        raise ConfigError(f"{where}: {message}" if where else message) from e


def _object(value, where: str, keys=None) -> dict:
    """`value`, which must be a JSON object, with keys only from `keys` when given.
    `where` is its key path; "" is the config's root."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where or 'config'}: must be a JSON object")
    unknown = set(value) - set(value if keys is None else keys)
    if unknown:
        raise ConfigError(f"{where or 'config'}: unknown keys {sorted(unknown)}")
    return value


def _settable(cls, section, where: str, fixed=()) -> list:
    """The fields of dataclass `cls` but the `fixed` ones: `section` may set no other
    key, and must set each of them that has no default."""
    settable = [f for f in fields(cls) if f.name not in fixed]
    _object(section, where, [f.name for f in settable])
    missing = [f.name for f in settable if f.name not in section
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"{where or 'config'}: missing keys {missing}")
    return settable


def _from_json(f, value):
    """`value` as the type of field `f`: JSON has no tuple, and reads 1 as an int."""
    if value is None and f.default is None:  # a None default is derived, never given
        raise ValueError(f"{f.name}: must be left out or given a value, got None")
    if f.type is tuple and isinstance(value, list):
        return tuple(value)
    if f.type is float and type(value) is int:
        try:
            return float(value)
        except OverflowError as e:  # an int past the float range, such as 10**400
            raise OverflowError(f"{f.name}: {e}") from e
    return value


def _build(cls, section, where: str, renamed=None, **fixed):
    """`cls(**fixed, **section)` for the section at key path `where`; `_settable` checks
    its keys and `cls` its values."""
    settable = _settable(cls, section, where, fixed)
    with _at(where, renamed):
        return cls(**fixed, **{f.name: _from_json(f, section[f.name])
                               for f in settable if f.name in section})


def _axis(value, where: str, parse) -> list:
    """A sweep axis: a nonempty JSON list of entries that differ once `parse` has read
    them, so 1 and 1.0 are one entry; returns the parsed entries."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where}: must be a list with at least one entry, got {value!r}")
    parsed = []
    for entry in value:
        parsed.append(parse(entry))
        if parsed[-1] in parsed[:-1]:
            raise ConfigError(f"{where}: duplicate entry {entry!r}")
    return parsed


def _family(m) -> str:
    if not isinstance(m, str) or m not in MODEL_CONFIGS:
        raise ConfigError(f"models: unknown family {m!r}")
    return m


def _aggregator(a) -> tuple:
    """(aggregator, beta) of 'fedavg' or 'fedavgw:<beta>'."""
    if a == "fedavg":
        return ("fedavg", 0.0)
    if isinstance(a, str) and a.startswith("fedavgw:"):
        try:
            return ("fedavgw", float(a.split(":", 1)[1]))
        except ValueError:
            pass
    raise ConfigError(f"federation.aggregators: unknown aggregator {a!r} "
                      "(use 'fedavg' or 'fedavgw:<beta>')")


@dataclass(frozen=True)
class _TopLevel:
    """The top level of a config file: sweep-wide settings, the model families, and
    one JSON object per section."""
    dataset: dict
    seed: int = 42
    out_dir: str = "out"
    models: list = field(default_factory=lambda: ["textcnn"])
    textcnn: dict = field(default_factory=dict)
    loraformer: dict = field(default_factory=dict)
    partition: dict = field(default_factory=dict)
    federation: dict = field(default_factory=dict)
    pretrain: dict = field(default_factory=dict)

    def __post_init__(self):
        validate.integer("seed", self.seed, minimum=None)
        if not isinstance(self.out_dir, str) or not self.out_dir or "\0" in self.out_dir:
            raise ValueError(f"out_dir: must be a nonempty path with no NUL, got {self.out_dir!r}")


class ExperimentConfig:
    """A sweep, checked in full before any work starts.  Each section of the JSON
    builds the typed config that owns its keys, defaults and checks; this class reads
    the JSON's shape: the sweep axes (`models`, `partition.alpha`,
    `federation.aggregators`) and the per-family keys.  `runs` holds the
    plan of every sweep cell, in the order the sweep runs them."""

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        top = _build(_TopLevel, raw, "")
        self.seed, self.out_dir = top.seed, top.out_dir

        if not (isinstance(top.dataset, dict) and len(top.dataset) == 1
                and next(iter(top.dataset)) in DATASET_SPECS):
            raise ConfigError("dataset: provide exactly one of 'synthetic' or 'csv'")
        self.dataset_cfg = top.dataset
        (kind, spec), = top.dataset.items()
        where = f"dataset.{kind}"
        if kind == "synthetic":
            spec = {"seed": self.seed, **_object(spec, where)}
        self.dataset_spec = _build(DATASET_SPECS[kind], spec, where)

        part = _object(top.partition, "partition")
        pcfgs = _axis(part.get("alpha", [PartitionConfig.alpha]), "partition.alpha",
                      lambda alpha: _build(PartitionConfig, {**part, "alpha": alpha},
                                           "partition", seed=self.seed))
        self.partition_cfgs = {pcfg.alpha: pcfg for pcfg in pcfgs}
        self.alphas = list(self.partition_cfgs)
        self.num_clients, self.min_samples_per_client, self.max_redraws = (
            pcfgs[0].num_clients, pcfgs[0].min_samples_per_client, pcfgs[0].max_redraws)

        self.models = _axis(top.models, "models", _family)
        self._parse_families(top)
        self.pretrain_cfg = _build(PretrainConfig, top.pretrain, "pretrain", seed=self.seed + 1)

    def _parse_families(self, top):
        """Sets `model_cfgs` per model family, and per sweep cell, in plan order, its
        plan in `runs` (a dict whose `run_id` hashes the rest) and its FedConfig in
        `fed_cfgs[run_id]`.  A family not in `models` is not built, but its keys are
        checked."""
        fedr = dict(_object(top.federation, "federation"))  # FedConfig owns what is not popped
        epochs = fedr.pop("local_epochs", {})
        if not isinstance(epochs, dict):  # one count for every family
            epochs = dict.fromkeys(MODEL_CONFIGS, epochs)
        epochs = {**PAPER_EPOCHS, **_object(epochs, "federation.local_epochs", MODEL_CONFIGS)}
        optimizers = _object(fedr.pop("optimizer", {}), "federation.optimizer", MODEL_CONFIGS)
        optimizers = {fam: {**PAPER_OPTIMIZERS[fam], **_object(
            optimizers.get(fam, {}), f"federation.optimizer.{fam}")} for fam in MODEL_CONFIGS}
        aggregators = _axis(fedr.pop("aggregators", ["fedavg"]), "federation.aggregators",
                            _aggregator)

        for fam in [fam for fam in MODEL_CONFIGS if fam not in self.models]:
            _settable(MODEL_CONFIGS[fam], getattr(top, fam), fam, fixed=("num_classes",))
            _settable(OptimizerCfg, optimizers[fam], f"federation.optimizer.{fam}")
        self.model_cfgs, self.fed_cfgs, self.runs = {}, {}, []
        for fam in self.models:
            self.model_cfgs[fam] = _build(MODEL_CONFIGS[fam], getattr(top, fam), fam,
                                          num_classes=self.dataset_spec.num_classes)
            base = _build(FedConfig, fedr, "federation", {"local_epochs": f"local_epochs.{fam}"},
                          optimizer=_build(OptimizerCfg, optimizers[fam],
                                           f"federation.optimizer.{fam}"),
                          local_epochs=epochs[fam], seed=self.seed,
                          aggregator="fedavg", beta=0.0)  # each cell sets its own
            self.batch_size = base.batch_size  # the same for every family; pretraining uses it
            for alpha in self.alphas:
                for i, (agg, beta) in enumerate(aggregators):
                    with _at("federation", {"beta": f"aggregators.{i}: beta"}):
                        fed = replace(base, aggregator=agg, beta=beta)
                    plan = {"seed": self.seed, "dataset": top.dataset, "model": fam,
                            "model_overrides": getattr(top, fam), "alpha": alpha,
                            "num_clients": self.num_clients,
                            "min_samples_per_client": self.min_samples_per_client,
                            "aggregator": agg, "beta": beta, "rounds": fed.rounds,
                            "local_epochs": fed.local_epochs, "batch_size": fed.batch_size,
                            # every client trains every round; the key stays so that run
                            # ids and summary.json bytes stay the same
                            "optimizer": optimizers[fam], "participation": 1.0,
                            "pretrain": top.pretrain if fam == "loraformer" else {}}
                    run_id = hashlib.sha256(
                        json.dumps(plan, sort_keys=True).encode()).hexdigest()[:12]
                    self.runs.append({"run_id": run_id, **plan})
                    self.fed_cfgs[run_id] = fed
        if "textcnn" in self.model_cfgs:
            with _at("textcnn"):
                check_fits(self.model_cfgs["textcnn"], self.dataset_spec.max_seq_len)

    def load_dataset(self) -> td.Dataset:
        if isinstance(self.dataset_spec, td.SyntheticSpec):
            return td.generate_synthetic(self.dataset_spec)
        return td.load_csv(self.dataset_spec)


def read_config(path):
    """The raw JSON of a config file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as e:  # a directory, or a file this user may not read
        raise ConfigError(f"config file unreadable: {e.strerror}: {path}")
    # ValueError: text that is not UTF-8 or not JSON, or an integer literal past Python's
    # 4,300-digit limit; RecursionError: arrays or objects nested too deep
    except (ValueError, RecursionError) as e:
        raise ConfigError(f"config is not valid JSON: {e}")


def parse_config(path) -> ExperimentConfig:
    return ExperimentConfig(read_config(path))


# ---------------------------------------------------------------------------
# sweep planning / execution
# ---------------------------------------------------------------------------


def pretrained_initial(cfg: ExperimentConfig, dataset):
    """The pretrained-frozen loraformer params every loraformer run of the sweep starts from.

    They depend only on sweep-level inputs (the pretrain settings, the dataset,
    the seed and the loraformer config), so a sweep computes them once.
    """
    model_cfg = cfg.model_cfgs["loraformer"]
    params, _ = build_loraformer(model_cfg, dataset.vocabulary.size, dataset.max_seq_len,
                                 cfg.seed)
    return pretrain_backbone(params, model_cfg, cfg.pretrain_cfg, dataset, cfg.batch_size)


def execute_run(cfg: ExperimentConfig, run: dict, dataset, partitions, out_root: Path,
                initial=None) -> dict:
    """One sweep cell.  `initial` is None or, for a loraformer run, the starting
    params from `pretrained_initial` or the exception that computing them raised.  Its
    run directory exists (`make_out_root`)."""
    run_dir = out_root / run["run_id"]
    start = time.perf_counter()
    summary = {"run_id": run["run_id"], "config": run, "status": "ok"}
    try:
        save_manifest(partitions, cfg.partition_cfgs[run["alpha"]], run_dir / "partition.json")
        if isinstance(initial, Exception):
            raise RuntimeError(f"backbone pretraining failed: "
                               f"{type(initial).__name__}: {initial}") from initial
        logs, _ = run_federation(dataset, partitions, run["model"],
                                 cfg.model_cfgs[run["model"]], cfg.fed_cfgs[run["run_id"]],
                                 initial_params=initial)
        mt.write_rounds_csv(logs, run_dir / "rounds.csv")
        last = logs[-1].summary
        summary.update({
            "final": {"avg": last.avg, "worst": last.worst, "gap": last.gap,
                      "argmin_client": last.argmin_client_id},
            "converged": mt.convergence_check([l.summary.avg for l in logs])
            if len(logs) >= mt.CONVERGENCE_WINDOW else None,
            "gap_series": [l.summary.gap for l in logs],
            "skew": asdict(skew_report(partitions)),
        })
    except Exception as e:  # crash isolation: record, let the sweep continue
        summary["status"] = "error"
        summary["error"] = f"{type(e).__name__}: {e}"
        summary["traceback"] = traceback.format_exc()
    summary["wall_time_s"] = time.perf_counter() - start
    _write_summary(summary, out_root)
    return summary


def _write_summary(summary: dict, out_root: Path):
    path = out_root / summary["run_id"] / "summary.json"
    path.write_text(json.dumps(summary, indent=2), encoding="utf-8")


def load_data(cfg: ExperimentConfig):
    """(dataset, {alpha: partitions}); raises InputDataError, naming the source, when
    a data file is missing or malformed or a partition cannot meet its constraints."""
    where = "dataset." + next(iter(cfg.dataset_cfg))
    try:
        dataset = cfg.load_dataset()
    except OSError as e:
        raise InputDataError(f"{where}: {e.strerror}: {e.filename}") from e
    except (td.DataError, UnicodeDecodeError) as e:
        raise InputDataError(f"{where}: {e}") from e
    partitions_by_alpha = {}
    for alpha, pcfg in cfg.partition_cfgs.items():
        try:
            partitions_by_alpha[alpha] = dirichlet_partition(dataset, pcfg)
        except PartitionError as e:
            raise InputDataError(f"partition.alpha {alpha}: {e}") from e
    return dataset, partitions_by_alpha


def check_out_paths(dirs=(), files=()):
    """InputDataError, naming the path, for the first of `dirs` that is a file or of `files`
    that is a directory: what `mkdir` or a write would raise, found before either runs."""
    for path in dirs:
        if path.exists() and not path.is_dir():
            raise InputDataError(f"out_dir: {os.strerror(errno.EEXIST)}: {path}")
    for path in files:
        if path.is_dir():
            raise InputDataError(f"out_dir: {os.strerror(errno.EISDIR)}: {path}")


def make_out_root(cfg: ExperimentConfig, run_ids=(), files=()) -> Path:
    """`cfg.out_dir` and a directory in it per run id, created once `check_out_paths`
    passes them and `files`, the paths under `out_dir` the verb writes; InputDataError when
    one is taken or cannot be made (`out_dir` names a file, say)."""
    out_root = Path(cfg.out_dir)
    run_dirs = [out_root / r for r in run_ids]
    check_out_paths(run_dirs, [out_root / f for f in files])
    for path in [out_root, *run_dirs]:
        try:
            path.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise InputDataError(f"out_dir: {e.strerror}: {path}") from e
    return out_root


def run_experiments(cfg: ExperimentConfig, jobs: int = 1) -> list:
    """Run every sweep cell, `jobs` at a time (jobs > 1: `_run_forked`), and write the
    report from the cells' summary.json files, read back in plan order.  A data error
    (`load_data`, no test split, a client with data but no test documents of its classes,
    a FedAvgW cell whose weights cannot be computed, a target with too few words for a
    proxy corpus, or an output path that is taken) is raised before anything is written;
    every run directory is made before pretraining or any cell starts."""
    dataset, partitions_by_alpha = load_data(cfg)
    if len(dataset.test) == 0:  # every cell would fail at its first evaluation
        raise InputDataError("dataset.csv: no test split: set test_path")
    tested = set(dataset.test.labels.tolist())  # a client is scored on its classes' documents
    betas = dict.fromkeys(r["beta"] for r in cfg.runs if r["aggregator"] == "fedavgw")
    for alpha, partitions in partitions_by_alpha.items():
        for p in partitions:
            if p.size and not p.present_classes & tested:
                raise InputDataError(f"partition.alpha {alpha}: client {p.client_id} holds "
                                     f"classes {sorted(p.present_classes)}, none of which "
                                     "has a test document")
        try:  # a beta at which every client's LoRA weight underflows fails every round
            for beta in betas:
                fedavgw_weights([p.size for p in partitions if p.size], beta)
        except FederationError as e:
            raise InputDataError(f"federation.aggregators: partition.alpha {alpha}: {e}") from e
    lora = cfg.model_cfgs.get("loraformer")
    pretrains = lora is not None and lora.backbone_mode == "pretrained-frozen"
    if pretrains:
        try:
            cfg.pretrain_cfg.proxy_spec(dataset)  # raises if the target has too few words
        except ValueError as e:
            raise InputDataError(f"pretrain: {e}") from e
    run_ids = [r["run_id"] for r in cfg.runs]
    files = [*REPORT_FILES, *(f"{r}/{name}" for r in run_ids for name in RUN_FILES)]
    out_root = make_out_root(cfg, run_ids, files)
    try:
        initial = pretrained_initial(cfg, dataset) if pretrains else None
    except Exception as e:  # recorded by every loraformer run, like its own failures
        initial = e

    def one(run):
        execute_run(cfg, run, dataset, partitions_by_alpha[run["alpha"]], out_root,
                    initial if run["model"] == "loraformer" else None)

    if jobs > 1:
        _run_forked(one, cfg.runs, jobs, out_root)
    else:
        for run in cfg.runs:
            one(run)
    summaries = [read_summary(out_root / r["run_id"] / "summary.json") for r in cfg.runs]
    emit_report(summaries, out_root)
    return summaries


def _run_forked(one, runs: list, jobs: int, out_root: Path):
    """`one(run)` for every run, each in its own forked process, at most `jobs` at a
    time.  Returns once every child has been reaped.

    Fork hands `one` and everything it reads (config, dataset, partitions,
    pretrained backbone) to the children without pickling; a child's only result is
    the summary.json that `execute_run` writes.  A child that exits nonzero did not
    finish its cell: its error summary is written here, and the other cells run on.
    """
    import multiprocessing
    from multiprocessing.connection import wait
    fork = multiprocessing.get_context("fork")
    killed_by = {-s.value: f"killed by {s.name}" for s in signal.Signals}
    pending, running = list(runs), {}
    while pending or running:
        while pending and len(running) < jobs:
            run = pending.pop(0)
            proc = fork.Process(target=one, args=(run,))
            proc.start()
            running[proc.sentinel] = proc, run
        for sentinel in wait(list(running)):
            proc, run = running.pop(sentinel)
            proc.join()
            if proc.exitcode:
                cause = killed_by.get(proc.exitcode, f"exit code {proc.exitcode}")
                _write_summary({"run_id": run["run_id"], "config": run, "status": "error",
                                "error": f"worker process died: {cause}"}, out_root)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def read_summary(path: Path) -> dict:
    """A cell's summary.json, with each key `emit_report` reads, nested ones included, of
    the JSON type it renders; else InputDataError, naming the file and the first fault."""
    number, string = ((int, float), "a number"), (str, "a string")
    rendered = {"config": {"alpha": number, "model": string, "aggregator": string, "beta": number},
                "final": {"avg": number, "worst": number, "gap": number}}
    try:
        summary = json.loads(path.read_text(encoding="utf-8"))
    except OSError as e:  # a directory, or a file this user may not read
        raise InputDataError(f"{path}: {e.strerror}") from e
    except (ValueError, RecursionError) as e:  # as in `read_config`
        raise InputDataError(f"{path}: not valid JSON: {e}") from e
    if not isinstance(summary, dict):
        raise InputDataError(f"{path}: must be a JSON object")
    outcome = "final" if summary.get("status") == "ok" else "error"
    missing = [k for k in ("run_id", "status", "config", outcome) if k not in summary]
    sections = [key for key in ("config", outcome) if key in rendered and key in summary]
    for key in sections:
        if not isinstance(summary[key], dict):
            raise InputDataError(f"{path}: {key}: must be a JSON object")
        missing += [f"{key}.{k}" for k in rendered[key] if k not in summary[key]]
    if missing:
        raise InputDataError(f"{path}: missing keys {missing}")
    if not isinstance(summary["run_id"], str):  # emit_report sorts the failed runs by it
        raise InputDataError(f"{path}: run_id: must be a string, got {summary['run_id']!r}")
    for key in sections:
        for name, (kinds, what) in rendered[key].items():
            value = summary[key][name]
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise InputDataError(f"{path}: {key}.{name}: must be {what}, got {value!r}")
            if isinstance(value, int):  # the report formats a number as a float
                try:
                    float(value)
                except OverflowError as e:
                    raise InputDataError(f"{path}: {key}.{name}: {e}") from e
    return summary


def _pct(x) -> str:
    return f"{100 * x:.1f}"


def emit_report(summaries, out_dir):
    """report.md (fairness matrix + aggregator comparison) and gap_vs_alpha.csv, each
    written once both texts are built."""
    out_dir = Path(out_dir)
    ok = [s for s in summaries if s["status"] == "ok"]
    failed = [s for s in summaries if s["status"] != "ok"]

    csv = ["alpha,model,aggregator,beta,avg,worst,gap\n"]
    for s in sorted(ok, key=lambda s: (s["config"]["alpha"], s["config"]["model"],
                                       s["config"]["aggregator"], s["config"]["beta"])):
        c, fin = s["config"], s["final"]
        csv.append(f"{c['alpha']},{c['model']},{c['aggregator']},{c['beta']},"
                   f"{fin['avg']!r},{fin['worst']!r},{fin['gap']!r}\n")

    lines = ["# Federated fairness sweep", ""]
    fedavg_runs = [s for s in ok if s["config"]["aggregator"] == "fedavg"]
    if fedavg_runs:
        lines += ["## Average vs. worst-client accuracy (FedAvg)", "",
                  "| alpha | model | Avg % | Worst % | Gap % |",
                  "|---|---|---|---|---|"]
        alphas = sorted({s["config"]["alpha"] for s in fedavg_runs})
        for alpha in alphas:
            cell = [s for s in fedavg_runs if s["config"]["alpha"] == alpha]
            worst_gap = max(s["final"]["gap"] for s in cell)
            for s in sorted(cell, key=lambda s: s["config"]["model"]):
                gap = _pct(s["final"]["gap"])
                if len(cell) > 1 and s["final"]["gap"] == worst_gap:
                    gap = f"**{gap}**"
                lines.append(f"| {alpha} | {s['config']['model']} | "
                             f"{_pct(s['final']['avg'])} | {_pct(s['final']['worst'])} | {gap} |")
        lines.append("")
        # gap reduction between adjacent alpha levels, per model
        models = sorted({s["config"]["model"] for s in fedavg_runs})
        ratio_rows = []
        for model in models:
            series = sorted(((s["config"]["alpha"], s["final"]["gap"])
                             for s in fedavg_runs if s["config"]["model"] == model))
            for (a1, g1), (a2, g2) in zip(series, series[1:]):
                # no ratio when the later gap is 0: 0 -> 0 is no reduction at all
                reduction = f"{g1 / g2:.1f}x" if g2 > 0 else "n/a"
                ratio_rows.append(f"| {model} | {a1} -> {a2} | {reduction} |")
        if ratio_rows:
            lines += ["## Gap reduction across alpha", "",
                      "| model | alpha step | gap reduction |", "|---|---|---|"]
            lines += ratio_rows + [""]

    # aggregator comparison at fixed (model, alpha) when several aggregators ran
    by_cell = {}
    for s in ok:
        by_cell.setdefault((s["config"]["model"], s["config"]["alpha"]), []).append(s)
    for (model, alpha), cell in sorted(by_cell.items()):
        if len({(s["config"]["aggregator"], s["config"]["beta"]) for s in cell}) < 2:
            continue
        lines += [f"## Aggregator comparison: {model} at alpha={alpha}", "",
                  "| Method | Avg % | Worst % | Gap % |", "|---|---|---|---|"]
        base = next((s for s in cell if s["config"]["aggregator"] == "fedavg"), None)
        variants = []
        for s in sorted(cell, key=lambda s: (s["config"]["aggregator"], s["config"]["beta"])):
            label = ("FedAvg" if s["config"]["aggregator"] == "fedavg"
                     else f"FedAvgW beta={s['config']['beta']}")
            fin = s["final"]
            lines.append(f"| {label} | {_pct(fin['avg'])} | {_pct(fin['worst'])} | {_pct(fin['gap'])} |")
            if s["config"]["aggregator"] == "fedavgw":
                variants.append(s)
        if base and variants:
            best = max(variants, key=lambda s: s["final"]["worst"])
            d = {k: best["final"][k] - base["final"][k] for k in ("avg", "worst", "gap")}
            lines.append(f"| delta (best FedAvgW vs FedAvg) | {100 * d['avg']:+.1f} | "
                         f"{100 * d['worst']:+.1f} | {100 * d['gap']:+.1f} |")
        lines.append("")

    if failed:  # in run-id order, the order `fedskew report` reads the summaries in
        lines += ["## Failed runs", ""]
        lines += [f"- `{s['run_id']}`: {s['error']}"
                  for s in sorted(failed, key=lambda s: s["run_id"])] + [""]
    (out_dir / "gap_vs_alpha.csv").write_text("".join(csv), encoding="utf-8")
    (out_dir / "report.md").write_text("\n".join(lines), encoding="utf-8")


# ---------------------------------------------------------------------------
# selftest: quick invariant audit, no pytest required
# ---------------------------------------------------------------------------


def selftest() -> bool:
    from . import numkit as nk

    checks = []

    def check(name, fn):
        try:
            fn()
            checks.append((name, True, ""))
        except Exception as e:
            checks.append((name, False, str(e)))

    def weights_ok():
        for beta in (0.0, 0.1, 0.5, 1.0):
            w = fedavgw_weights([3, 50, 1000], beta)
            assert abs(w.standard.sum() - 1) <= 1e-12 and abs(w.lora.sum() - 1) <= 1e-12
        ratio = fedavg_weights([118, 34742])
        assert abs(ratio.standard[1] / ratio.standard[0] - 294.4) < 0.1

    def gradient_ok():
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 4))
        l = nk.leaf(x, name="x")
        loss = nk.ssum(nk.mul(nk.gelu(l), nk.gelu(l)))
        g = nk.backward(loss)["x"]
        h = 1e-5
        xp, xm = x.copy(), x.copy()
        xp[0, 0] += h
        xm[0, 0] -= h
        num = (float(nk.ssum(nk.mul(nk.gelu(nk.leaf(xp)), nk.gelu(nk.leaf(xp)))).value)
               - float(nk.ssum(nk.mul(nk.gelu(nk.leaf(xm)), nk.gelu(nk.leaf(xm)))).value)) / (2 * h)
        assert abs(g[0, 0] - num) / max(abs(num), 1e-8) < 1e-4

    def matches_op_chain(params, step, graph):
        """`step`'s loss and every trainable group's gradient equal the op chain's under
        `backward` to rounding (attn.bk's is zero but for rounding on both sides)."""
        ids = np.random.default_rng(1).integers(1, 7, size=(4, 6))
        ids *= np.arange(6) < np.array([[6], [4], [4], [0]])  # PAD rows; an all-PAD document
        labels = np.array([0, 1, 1, 0])
        flat = nk.FlatParams(params.vector, params.layout.shapes, nk.OptimizerCfg("sgd", 1.0))
        loss = step(params, ids, labels, nk.derive(0, "selftest-dropout"), flat.grads)
        want = nk.softmax_cross_entropy(
            graph(params, ids, train=True, rng=nk.derive(0, "selftest-dropout")), labels)
        assert abs(loss - float(want.value)) <= 1e-12 * abs(float(want.value)), "loss"
        for name, g in nk.backward(want).items():
            err = np.abs(flat.grads[name] - g).max()
            assert err <= 1e-12 * (1.0 if name.endswith("attn.bk") else np.abs(g).max()), name

    def textcnn_ok():
        rng = np.random.default_rng(0)
        # a dead filter and one tied at its bias everywhere
        cfg = textcnn.TextCnnConfig(num_classes=2, embed_dim=4, filter_widths=(2, 3, 6),
                                    filters_per_width=3, dropout=0.3)
        params, _ = textcnn.build_textcnn(cfg, 7, 6, seed=0)
        kernels = [rng.standard_normal((w, 4, 3)) for w in (2, 3, 6)]
        kernels[0][:, :, :2] = 0.0
        values = [rng.standard_normal((7, 4)), *kernels, np.array([-1.0, 0.5, 0.2]),
                  *rng.uniform(0.1, 1.0, (2, 3)), rng.standard_normal((9, 2)),
                  rng.standard_normal(2)]
        names = ["embedding", *(f"conv{w}.{part}" for part in ("kernel", "bias")
                                for w in cfg.filter_widths), "fc.weight", "fc.bias"]
        values = dict(zip(names, values))
        params = build_params("textcnn", [g._replace(tensor=values[g.name]) for g in params])
        matches_op_chain(params, textcnn.make_loss_and_grad(cfg), textcnn.graph_forward(cfg))

    def encoder_layer_ok():
        rng = np.random.default_rng(0)
        cfg = LoraFormerConfig(num_classes=2, layers=2, d_model=4, heads=2, ffn_dim=6,
                               lora_rank=2, lora_dropout=0.2)
        params, _ = build_loraformer(cfg, 7, 6, seed=0)
        # every group random and trained: the whole backward pass runs
        params = build_params("loraformer", [
            g._replace(tensor=rng.standard_normal(g.tensor.shape), trainable=True)
            for g in params])
        matches_op_chain(params, loraformer.make_loss_and_grad(cfg), loraformer.graph_forward(cfg))

    def partition_ok():
        ds = td.generate_synthetic(td.SyntheticSpec(4, 40, 50, 5, 6, 0.5, 0))
        parts = dirichlet_partition(ds, PartitionConfig(5, 0.5, seed=1))
        idx = sorted(i for p in parts for i in p.sample_indices)
        assert idx == list(range(len(ds.train)))

    def lora_ok():
        cfg = LoraFormerConfig(num_classes=3, layers=1, d_model=8, heads=2, ffn_dim=16,
                               lora_rank=2, lora_dropout=0.0)
        params, forward = build_loraformer(cfg, 20, 6, seed=0)
        ids = np.random.default_rng(0).integers(2, 20, size=(2, 6))
        merged = merge_lora(params, cfg)
        assert np.abs(forward(merged, ids) - forward(params, ids)).max() < 1e-5

    def convergence_ok():
        assert not mt.convergence_check([0.930, 0.933, 0.931, 0.936, 0.930])
        assert mt.convergence_check([0.930, 0.931, 0.9305, 0.9315, 0.930])

    check("aggregation weights normalize; 118:34742 ratio = 294.4", weights_ok)
    check("analytic gradient matches finite difference", gradient_ok)
    check("TextCNN training step matches its op chain", textcnn_ok)
    check("encoder training step matches its op chain", encoder_layer_ok)
    check("dirichlet partition exhaustive and disjoint", partition_ok)
    check("lora merge preserves logits", lora_ok)
    check("convergence rule: 0.3% over final 5 rounds", convergence_ok)

    ok = True
    for name, passed, err in checks:
        print(f"[{'PASS' if passed else 'FAIL'}] {name}" + (f": {err}" if err else ""))
        ok = ok and passed
    return ok


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fedskew",
                                     description="federated fairness experiment runner")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="execute a sweep config")
    p_run.add_argument("config")
    p_run.add_argument("--jobs", type=int, default=1)

    p_part = sub.add_parser("partition", help="partition-only audit")
    p_part.add_argument("config")

    p_rep = sub.add_parser("report", help="regenerate report.md and gap_vs_alpha.csv")
    p_rep.add_argument("out_dir")

    sub.add_parser("selftest", help="run the invariant suites")

    args = parser.parse_args(argv)

    if args.verb == "selftest":
        return 0 if selftest() else 3

    if args.verb == "report":
        out_root = Path(args.out_dir)
        try:
            summaries = [read_summary(p) for p in sorted(out_root.glob("*/summary.json"))]
            check_out_paths(files=[out_root / f for f in REPORT_FILES])
        except InputDataError as e:
            print(f"data error: {e}", file=sys.stderr)
            return 1
        if not summaries:
            print(f"no summary.json files under {args.out_dir}", file=sys.stderr)
            return 1
        emit_report(summaries, out_root)
        print(f"wrote {out_root / 'report.md'}")
        return 0

    try:
        if args.verb == "run" and args.jobs < 1:
            raise ConfigError("--jobs must be >= 1")
        cfg = ExperimentConfig(read_config(args.config))
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1

    try:
        if args.verb == "partition":
            _, partitions_by_alpha = load_data(cfg)
            names = {alpha: f"partition_alpha{alpha}.json" for alpha in partitions_by_alpha}
            out_root = make_out_root(cfg, files=names.values())
            for alpha, parts in partitions_by_alpha.items():
                path = out_root / names[alpha]
                save_manifest(parts, cfg.partition_cfgs[alpha], path)
                ratio = skew_report(parts).max_min_ratio or float("inf")  # None: an empty client
                print(f"alpha={alpha}: sizes={[p.size for p in parts]} max/min={ratio:.1f} -> {path}")
            return 0
        summaries = run_experiments(cfg, jobs=args.jobs)
    except InputDataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 1

    for s in summaries:
        if s["status"] == "ok":
            fin = s["final"]
            print(f"{s['run_id']} {s['config']['model']} alpha={s['config']['alpha']} "
                  f"{s['config']['aggregator']}(beta={s['config']['beta']}): "
                  f"avg={_pct(fin['avg'])} worst={_pct(fin['worst'])} gap={_pct(fin['gap'])}")
        else:
            print(f"{s['run_id']} FAILED: {s['error']}", file=sys.stderr)
    return 0 if all(s["status"] == "ok" for s in summaries) else 2


if __name__ == "__main__":
    sys.exit(main())
