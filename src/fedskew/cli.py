"""Declarative experiment runner.

A single JSON config describes a sweep: dataset x models x alphas x
aggregators.  Each cell is a run with a stable content-derived id; runs
write rounds.csv / summary.json / partition.json into private directories
and a top-level report.md summarizes the sweep.

Exit codes: 0 ok, 1 config error, 2 run failure, 3 selftest failure.
"""

import argparse
import hashlib
import json
import os
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from . import metrics as mt
from . import textdata as td
from .federation import FedConfig, OptimizerCfg, run_federation
from .models import (LoraFormerConfig, TextCnnConfig, build_loraformer, check_fits,
                     pretrain_backbone)
from .partition import PartitionConfig, dirichlet_partition, save_manifest, skew_report


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

PAPER_OPTIMIZERS = {
    "textcnn": {"kind": "sgd", "lr": 0.01, "weight_decay": 0.0},
    "loraformer": {"kind": "adamw", "lr": 5e-5, "weight_decay": 0.01},
}
PAPER_EPOCHS = {"textcnn": 5, "loraformer": 1}

_TOP_KEYS = {"seed", "out_dir", "dataset", "models", "textcnn", "loraformer",
             "partition", "federation", "metrics", "save_checkpoints", "pretrain"}
_DATASET_KEYS = {"synthetic", "csv"}
_SYNTH_KEYS = {"num_classes", "vocab_size", "train_docs_per_class", "test_docs_per_class",
               "doc_length", "topic_concentration", "seed", "max_seq_len"}
_CSV_KEYS = {"train_path", "test_path", "label_column", "text_columns", "one_based_labels",
             "num_classes", "max_vocab_size", "max_seq_len"}
_PARTITION_KEYS = {"num_clients", "alpha", "min_samples_per_client", "max_redraws"}
_FED_KEYS = {"rounds", "rounds_by_alpha", "batch_size", "local_epochs", "optimizer",
             "aggregators", "participation"}
_OPT_KEYS = {"kind", "lr", "weight_decay"}
_METRIC_KEYS = {"convergence_window", "convergence_tolerance"}
_TEXTCNN_KEYS = {"embed_dim", "filter_widths", "filters_per_width", "dropout"}
_LORAFORMER_KEYS = {"layers", "d_model", "heads", "ffn_dim", "lora_rank", "lora_scaling",
                    "lora_dropout", "backbone_mode"}
_PRETRAIN_KEYS = {"steps", "lr", "vocab_size", "docs_per_class", "doc_length",
                  "topic_concentration", "seed"}


def _check_keys(d: dict, allowed: set, where: str):
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _section(parent: dict, key: str, where: str) -> dict:
    """`parent[key]`, which must be a JSON object when present; {} when absent."""
    value = parent.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: must be a JSON object")
    return value


class ExperimentConfig:
    """Fully resolved sweep description; every default is materialized here, and
    every model, partition and federation setting is checked before any work starts."""

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        _check_keys(raw, _TOP_KEYS, "config")
        self.seed = int(raw.get("seed", 42))
        self.out_dir = raw.get("out_dir", os.environ.get("FEDSKEW_OUT", "out"))
        self.save_checkpoints = bool(raw.get("save_checkpoints", False))

        dataset = raw.get("dataset")
        if not isinstance(dataset, dict) or len(set(dataset) & _DATASET_KEYS) != 1:
            raise ConfigError("dataset: provide exactly one of 'synthetic' or 'csv'")
        _check_keys(dataset, _DATASET_KEYS, "dataset")
        self.dataset_cfg = dataset
        num_classes, max_seq_len = self._validate_dataset()

        self.models = raw.get("models", ["textcnn"])
        if not isinstance(self.models, list):
            raise ConfigError(f"models: must be a list of model families, got {self.models!r}")
        if not self.models:
            raise ConfigError("models: list must be nonempty")
        for m in self.models:
            if m not in ("textcnn", "loraformer"):
                raise ConfigError(f"models: unknown family {m!r}")
        self.model_overrides = {}
        for fam, keys in (("textcnn", _TEXTCNN_KEYS), ("loraformer", _LORAFORMER_KEYS)):
            ov = _section(raw, fam, fam)
            _check_keys(ov, keys, fam)
            self.model_overrides[fam] = ov
        self.model_cfgs = {}  # family -> TextCnnConfig | LoraFormerConfig
        for fam in self.models:
            try:
                self.model_cfgs[fam] = self._model_cfg(fam, num_classes, max_seq_len)
            except (TypeError, ValueError) as e:
                raise ConfigError(f"{fam}: {e}") from e

        part = _section(raw, "partition", "partition")
        _check_keys(part, _PARTITION_KEYS, "partition")
        alphas = part.get("alpha", [1.0])
        if not isinstance(alphas, list):
            alphas = [alphas]
        if not alphas:
            raise ConfigError("partition.alpha: list must be nonempty")
        try:
            self.alphas = [float(a) for a in alphas]
            self.num_clients = int(part.get("num_clients", 10))
            self.min_samples_per_client = int(part.get("min_samples_per_client", 1))
            self.max_redraws = int(part.get("max_redraws", 100))
            # seeded, so `fedskew run --seed` is applied to the raw config before this
            self.partition_cfgs = {
                a: PartitionConfig(self.num_clients, a, self.seed,
                                   self.min_samples_per_client, self.max_redraws)
                for a in self.alphas}
        except (TypeError, ValueError) as e:
            raise ConfigError(f"partition: {e}") from e

        self._parse_federation(_section(raw, "federation", "federation"))

        met = _section(raw, "metrics", "metrics")
        _check_keys(met, _METRIC_KEYS, "metrics")
        try:
            self.convergence_window = int(met.get("convergence_window", 5))
            self.convergence_tolerance = float(met.get("convergence_tolerance", 0.003))
        except (TypeError, ValueError) as e:
            raise ConfigError(f"metrics: {e}") from e

        pre = _section(raw, "pretrain", "pretrain")
        _check_keys(pre, _PRETRAIN_KEYS, "pretrain")
        self.pretrain = pre

    def _parse_federation(self, fedr: dict):
        """Sets the optimizer and aggregator settings, and `fed_cfgs`: (model, alpha,
        aggregator, beta) -> FedConfig for every sweep cell, in plan order."""
        _check_keys(fedr, _FED_KEYS, "federation")
        by_alpha = _section(fedr, "rounds_by_alpha", "federation.rounds_by_alpha")
        epochs = fedr.get("local_epochs")
        epochs = ({m: epochs for m in PAPER_EPOCHS} if isinstance(epochs, int) else
                  {**PAPER_EPOCHS, **_section(fedr, "local_epochs", "federation.local_epochs")})
        try:
            rounds = int(fedr.get("rounds", 50))
            rounds_by_alpha = {float(k): int(v) for k, v in by_alpha.items()}
            self.batch_size = int(fedr.get("batch_size", 32))  # pretraining uses it too
            participation = float(fedr.get("participation", 1.0))
            local_epochs = {m: int(n) for m, n in epochs.items()}
        except (TypeError, ValueError) as e:
            raise ConfigError(f"federation: {e}") from e
        opt = _section(fedr, "optimizer", "federation.optimizer")
        if "kind" in opt:
            opt = {m: opt for m in ("textcnn", "loraformer")}
        self.optimizers = {}
        for fam in ("textcnn", "loraformer"):
            where = f"federation.optimizer.{fam}"
            o = {**PAPER_OPTIMIZERS[fam], **_section(opt, fam, where)}
            _check_keys(o, _OPT_KEYS, where)
            self.optimizers[fam] = o

        aggs = fedr.get("aggregators", ["fedavg"])
        if not aggs:
            raise ConfigError("federation.aggregators: list must be nonempty")
        self.aggregators = [self._parse_aggregator(a) for a in aggs]

        self.fed_cfgs = {}
        for fam in self.models:
            o = self.optimizers[fam]
            try:
                opt_cfg = OptimizerCfg(o["kind"], o["lr"], o["weight_decay"])
            except (TypeError, ValueError) as e:
                raise ConfigError(f"federation.optimizer.{fam}: {e}") from e
            for alpha in self.alphas:
                for agg, beta in self.aggregators:
                    try:
                        self.fed_cfgs[fam, alpha, agg, beta] = FedConfig(
                            rounds=rounds_by_alpha.get(alpha, rounds),
                            local_epochs=local_epochs[fam], batch_size=self.batch_size,
                            optimizer=opt_cfg, aggregator=agg, beta=beta,
                            participation=participation, seed=self.seed)
                    except (TypeError, ValueError) as e:
                        raise ConfigError(f"federation: {e}") from e

    @staticmethod
    def _parse_aggregator(a):
        """'fedavg' or 'fedavgw:<beta>'."""
        if a == "fedavg":
            return ("fedavg", 0.0)
        if isinstance(a, str) and a.startswith("fedavgw:"):
            try:
                return ("fedavgw", float(a.split(":", 1)[1]))
            except ValueError:
                pass
        raise ConfigError(f"unknown aggregator {a!r} (use 'fedavg' or 'fedavgw:<beta>')")

    def _validate_dataset(self):
        """Check the dataset block; returns the (num_classes, max_seq_len) it will build."""
        if "synthetic" in self.dataset_cfg:
            s = _section(self.dataset_cfg, "synthetic", "dataset.synthetic")
            _check_keys(s, _SYNTH_KEYS, "dataset.synthetic")
            required = _SYNTH_KEYS - {"seed", "max_seq_len"}
            missing = required - set(s)
            if missing:
                raise ConfigError(f"dataset.synthetic: missing keys {sorted(missing)}")
            return s["num_classes"], s.get("max_seq_len") or s["doc_length"]
        c = _section(self.dataset_cfg, "csv", "dataset.csv")
        _check_keys(c, _CSV_KEYS, "dataset.csv")
        missing = {"train_path", "label_column", "text_columns", "num_classes"} - set(c)
        if missing:
            raise ConfigError(f"dataset.csv: missing keys {sorted(missing)}")
        return c["num_classes"], c.get("max_seq_len", 64)

    def _model_cfg(self, family: str, num_classes, max_seq_len):
        ov = dict(self.model_overrides[family])
        if family == "loraformer":
            return LoraFormerConfig(num_classes=num_classes, **ov)
        if "filter_widths" in ov:
            ov["filter_widths"] = tuple(ov["filter_widths"])
        model_cfg = TextCnnConfig(num_classes=num_classes, **ov)
        check_fits(model_cfg, max_seq_len)
        return model_cfg

    def load_dataset(self) -> td.Dataset:
        if "synthetic" in self.dataset_cfg:
            s = self.dataset_cfg["synthetic"]
            spec = td.SyntheticSpec(
                num_classes=s["num_classes"], vocab_size=s["vocab_size"],
                train_docs_per_class=s["train_docs_per_class"],
                test_docs_per_class=s["test_docs_per_class"],
                doc_length=s["doc_length"], topic_concentration=s["topic_concentration"],
                seed=s.get("seed", self.seed))
            return td.generate_synthetic(spec, max_seq_len=s.get("max_seq_len"))
        c = self.dataset_cfg["csv"]
        schema = td.CsvSchema(
            label_column=c["label_column"], text_columns=tuple(c["text_columns"]),
            one_based_labels=c.get("one_based_labels", True),
            num_classes=c["num_classes"],
            max_vocab_size=c.get("max_vocab_size", 30000),
            max_seq_len=c.get("max_seq_len", 64))
        return td.load_csv(c["train_path"], schema, test_path=c.get("test_path"))


def read_config(path):
    """The raw JSON of a config file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")


def parse_config(path) -> ExperimentConfig:
    return ExperimentConfig(read_config(path))


# ---------------------------------------------------------------------------
# sweep planning / execution
# ---------------------------------------------------------------------------


def plan_runs(cfg: ExperimentConfig) -> list:
    """Cross product models x alphas x aggregators, each with a stable run id."""
    runs = []
    for (model, alpha, agg, beta), fed in cfg.fed_cfgs.items():
        resolved = {
            "seed": cfg.seed,
            "dataset": cfg.dataset_cfg,
            "model": model,
            "model_overrides": cfg.model_overrides[model],
            "alpha": alpha,
            "num_clients": cfg.num_clients,
            "min_samples_per_client": cfg.min_samples_per_client,
            "aggregator": agg,
            "beta": beta,
            "rounds": fed.rounds,
            "local_epochs": fed.local_epochs,
            "batch_size": fed.batch_size,
            "optimizer": cfg.optimizers[model],
            "participation": fed.participation,
            "pretrain": cfg.pretrain if model == "loraformer" else {},
        }
        digest = hashlib.sha256(json.dumps(resolved, sort_keys=True).encode()).hexdigest()[:12]
        runs.append({"run_id": digest, **resolved})
    return runs


def pretrained_initial(cfg: ExperimentConfig, dataset):
    """The pretrained-frozen loraformer params every loraformer run of the sweep
    starts from, or None when the backbone stays random.

    They depend only on sweep-level inputs (the pretrain settings, the dataset,
    the seed and the loraformer config), so a sweep computes them once.
    """
    model_cfg = cfg.model_cfgs["loraformer"]
    if model_cfg.backbone_mode != "pretrained-frozen":
        return None
    pre = cfg.pretrain
    proxy_spec = td.SyntheticSpec(
        num_classes=dataset.num_classes,
        vocab_size=pre.get("vocab_size", max(dataset.vocabulary.size - 2, 2)),
        train_docs_per_class=pre.get("docs_per_class", 100),
        test_docs_per_class=1,
        doc_length=pre.get("doc_length", dataset.max_seq_len),
        topic_concentration=pre.get("topic_concentration", 0.2),
        seed=pre.get("seed", cfg.seed + 1))
    proxy = td.generate_synthetic(proxy_spec, max_seq_len=dataset.max_seq_len)
    params, _ = build_loraformer(model_cfg, dataset.vocabulary.size, dataset.max_seq_len,
                                 cfg.seed)
    return pretrain_backbone(params, model_cfg, proxy, steps=pre.get("steps", 200),
                             seed=pre.get("seed", cfg.seed + 1), target_dataset=dataset,
                             lr=pre.get("lr", 1e-3), batch_size=cfg.batch_size)


def execute_run(cfg: ExperimentConfig, run: dict, dataset, partitions, out_root: Path,
                initial=None) -> dict:
    """One sweep cell.  `initial` is None or, for a loraformer run, the starting
    params from `pretrained_initial` or the exception that computing them raised."""
    run_dir = out_root / run["run_id"]
    run_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    summary = {"run_id": run["run_id"], "config": run, "status": "ok"}
    try:
        save_manifest(partitions, cfg.partition_cfgs[run["alpha"]], run_dir / "partition.json")
        if isinstance(initial, Exception):
            raise RuntimeError(f"backbone pretraining failed: "
                               f"{type(initial).__name__}: {initial}") from initial
        fed_cfg = cfg.fed_cfgs[run["model"], run["alpha"], run["aggregator"], run["beta"]]
        logs, final = run_federation(dataset, partitions, run["model"],
                                     cfg.model_cfgs[run["model"]], fed_cfg,
                                     initial_params=initial)
        mt.write_rounds_csv(logs, run_dir / "rounds.csv")
        if cfg.save_checkpoints:
            from .models import save_checkpoint
            save_checkpoint(final, run_dir / "final")
        last = logs[-1].summary
        summary.update({
            "final": {"avg": last.avg, "worst": last.worst, "gap": last.gap,
                      "argmin_client": last.argmin_client_id},
            "converged": mt.convergence_check(logs, cfg.convergence_window,
                                              cfg.convergence_tolerance)
            if len(logs) >= cfg.convergence_window else None,
            "gap_series": [l.summary.gap for l in logs],
            "skew": skew_report(partitions).to_dict(),
        })
    except Exception as e:  # crash isolation: record, let the sweep continue
        summary["status"] = "error"
        summary["error"] = f"{type(e).__name__}: {e}"
        summary["traceback"] = traceback.format_exc()
    summary["wall_time_s"] = time.perf_counter() - start
    _write_summary(summary, out_root)
    return summary


def _write_summary(summary: dict, out_root: Path):
    run_dir = out_root / summary["run_id"]
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "summary.json").write_text(json.dumps(summary, indent=2), encoding="utf-8")


def run_experiments(cfg: ExperimentConfig, jobs: int = 1) -> list:
    """Run every sweep cell, `jobs` at a time, and write the report.  With jobs > 1
    the cells run in forked worker processes (`_run_forked`)."""
    out_root = Path(cfg.out_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    dataset = cfg.load_dataset()
    partitions_by_alpha = {alpha: dirichlet_partition(dataset, pcfg)
                           for alpha, pcfg in cfg.partition_cfgs.items()}
    runs = plan_runs(cfg)
    try:
        initial = pretrained_initial(cfg, dataset) if "loraformer" in cfg.models else None
    except Exception as e:  # recorded by every loraformer run, like its own failures
        initial = e

    def one(run):
        return execute_run(cfg, run, dataset, partitions_by_alpha[run["alpha"]], out_root,
                           initial if run["model"] == "loraformer" else None)

    if jobs > 1:
        summaries = _run_forked(one, runs, jobs, out_root)
    else:
        summaries = [one(r) for r in runs]
    emit_report(summaries, out_root)
    return summaries


_worker_cell = None  # in a forked worker: run_experiments' `one`, set by _init_worker


def _init_worker(one):
    global _worker_cell
    _worker_cell = one


def _run_worker_cell(run: dict) -> dict:
    return _worker_cell(run)


def _run_forked(one, runs: list, jobs: int, out_root: Path) -> list:
    """`one(run)` for every run on a pool of up to `jobs` forked processes; the
    summaries come back in plan order.

    Fork hands `one` and everything it reads (config, dataset, partitions,
    pretrained backbone) to the workers without pickling; only run plans and
    summaries cross the pipes.  No thread runs in this process when the pool forks
    all of its workers, before it starts its own manager thread.  A cell that
    raised in the pool, not in `execute_run`, lost its worker: its error summary is
    written here, after every worker has exited.
    """
    import multiprocessing
    from concurrent.futures import Future, ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    futures = []
    with ProcessPoolExecutor(max_workers=min(jobs, len(runs)),
                             mp_context=multiprocessing.get_context("fork"),
                             initializer=_init_worker, initargs=(one,)) as pool:
        for run in runs:
            try:
                futures.append(pool.submit(_run_worker_cell, run))
            except BrokenProcessPool as e:  # a worker died before this cell was queued
                futures.append(Future())
                futures[-1].set_exception(e)
    summaries = []
    for run, future in zip(runs, futures):
        exc = future.exception()
        if exc is None:
            summaries.append(future.result())
            continue
        summary = {"run_id": run["run_id"], "config": run, "status": "error",
                   "error": (f"worker process died: {exc}" if isinstance(exc, BrokenProcessPool)
                             else f"{type(exc).__name__}: {exc}"),
                   "traceback": "".join(traceback.format_exception(exc))}
        _write_summary(summary, out_root)
        summaries.append(summary)
    return summaries


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _pct(x) -> str:
    return f"{100 * x:.1f}"


def emit_report(summaries, out_dir):
    """report.md (fairness matrix + aggregator comparison) and gap_vs_alpha.csv."""
    out_dir = Path(out_dir)
    ok = [s for s in summaries if s["status"] == "ok"]
    failed = [s for s in summaries if s["status"] != "ok"]

    with open(out_dir / "gap_vs_alpha.csv", "w", encoding="utf-8") as f:
        f.write("alpha,model,aggregator,beta,avg,worst,gap\n")
        for s in sorted(ok, key=lambda s: (s["config"]["alpha"], s["config"]["model"],
                                           s["config"]["aggregator"], s["config"]["beta"])):
            c, fin = s["config"], s["final"]
            f.write(f"{c['alpha']},{c['model']},{c['aggregator']},{c['beta']},"
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
                ratio = g1 / g2 if g2 > 0 else float("inf")
                ratio_rows.append(f"| {model} | {a1} -> {a2} | {ratio:.1f}x |")
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

    if failed:
        lines += ["## Failed runs", ""]
        lines += [f"- `{s['run_id']}`: {s['error']}" for s in failed] + [""]
    (out_dir / "report.md").write_text("\n".join(lines), encoding="utf-8")


# ---------------------------------------------------------------------------
# selftest: quick invariant audit, no pytest required
# ---------------------------------------------------------------------------


def selftest() -> bool:
    from . import numkit as nk
    from .federation import ClientUpdate, fedavg_weights, fedavgw_weights
    from .models.params import ParamGroup, ParamSet

    checks = []

    def check(name, fn):
        try:
            fn()
            checks.append((name, True, ""))
        except Exception as e:
            checks.append((name, False, str(e)))

    def weights_ok():
        ups = [ClientUpdate(i, n, ParamSet([], "x")) for i, n in enumerate([3, 50, 1000])]
        for beta in (0.0, 0.1, 0.5, 1.0):
            w = fedavgw_weights(ups, beta)
            assert abs(w.standard.sum() - 1) <= 1e-12 and abs(w.lora.sum() - 1) <= 1e-12
        ratio = fedavg_weights([ClientUpdate(0, 118, ParamSet([], "x")),
                                ClientUpdate(1, 34742, ParamSet([], "x"))])
        assert abs(ratio.standard[1] / ratio.standard[0] - 294.4) < 0.1

    def gradient_ok():
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 4))
        l = nk.leaf(x, name="x")
        loss = nk.ssum(nk.mul(nk.gelu(l), nk.gelu(l)))
        g = nk.backward(loss)["x"].data
        h = 1e-5
        xp, xm = x.copy(), x.copy()
        xp[0, 0] += h
        xm[0, 0] -= h
        num = (float(nk.ssum(nk.mul(nk.gelu(nk.leaf(xp)), nk.gelu(nk.leaf(xp)))).value)
               - float(nk.ssum(nk.mul(nk.gelu(nk.leaf(xm)), nk.gelu(nk.leaf(xm)))).value)) / (2 * h)
        assert abs(g[0, 0] - num) / max(abs(num), 1e-8) < 1e-4

    def partition_ok():
        ds = td.generate_synthetic(td.SyntheticSpec(4, 40, 50, 5, 6, 0.5, 0))
        parts = dirichlet_partition(ds, PartitionConfig(5, 0.5, seed=1))
        idx = sorted(i for p in parts for i in p.sample_indices)
        assert idx == list(range(len(ds.train)))

    def lora_ok():
        from .models import LoraFormerConfig, build_loraformer, merge_lora
        cfg = LoraFormerConfig(num_classes=3, layers=1, d_model=8, heads=2, ffn_dim=16,
                               lora_rank=2, lora_dropout=0.0)
        params, forward = build_loraformer(cfg, 20, 6, seed=0)
        ids = np.random.default_rng(0).integers(2, 20, size=(2, 6))
        merged = merge_lora(params, cfg)
        assert np.abs(forward(merged, ids).value - forward(params, ids).value).max() < 1e-5

    def convergence_ok():
        assert not mt.convergence_check([0.930, 0.933, 0.931, 0.936, 0.930])
        assert mt.convergence_check([0.930, 0.931, 0.9305, 0.9315, 0.930])

    check("aggregation weights normalize; 118:34742 ratio = 294.4", weights_ok)
    check("analytic gradient matches finite difference", gradient_ok)
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
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--rounds", type=int, default=None)

    p_part = sub.add_parser("partition", help="partition-only audit")
    p_part.add_argument("config")

    p_rep = sub.add_parser("report", help="regenerate report.md from summary.json files")
    p_rep.add_argument("out_dir")

    sub.add_parser("selftest", help="run the invariant suites")

    args = parser.parse_args(argv)

    if args.verb == "selftest":
        return 0 if selftest() else 3

    if args.verb == "report":
        summaries = []
        for p in sorted(Path(args.out_dir).glob("*/summary.json")):
            summaries.append(json.loads(p.read_text(encoding="utf-8")))
        if not summaries:
            print(f"no summary.json files under {args.out_dir}", file=sys.stderr)
            return 1
        emit_report(summaries, args.out_dir)
        print(f"wrote {Path(args.out_dir) / 'report.md'}")
        return 0

    try:
        if args.verb == "run" and args.jobs < 1:
            raise ConfigError("--jobs must be >= 1")
        raw = read_config(args.config)
        if args.verb == "run" and isinstance(raw, dict):  # flags override the file
            if args.seed is not None:
                raw["seed"] = args.seed
            fed = raw.setdefault("federation", {})
            if args.rounds is not None and isinstance(fed, dict):
                fed["rounds"] = args.rounds
                fed.pop("rounds_by_alpha", None)
        cfg = ExperimentConfig(raw)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1

    if args.verb == "partition":
        dataset = cfg.load_dataset()
        out_root = Path(cfg.out_dir)
        out_root.mkdir(parents=True, exist_ok=True)
        for alpha, pcfg in cfg.partition_cfgs.items():
            parts = dirichlet_partition(dataset, pcfg)
            path = out_root / f"partition_alpha{alpha}.json"
            save_manifest(parts, pcfg, path)
            rep = skew_report(parts)
            print(f"alpha={alpha}: sizes={rep.sizes} max/min={rep.max_min_ratio:.1f} -> {path}")
        return 0

    summaries = run_experiments(cfg, jobs=args.jobs)
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
