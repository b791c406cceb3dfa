"""Span tracer that wraps fedskew's public functions from outside the package.

Each function is replaced where its caller looks it up: `federation` imports
`make_batches` by name, so `federation.make_batches` is wrapped there, while
the models call ops through the `numkit` package, so `numkit.matmul` is
wrapped on the package.  Ops that one numkit op calls inside itself (the
matmuls of `scaled_dot_attention`) are not wrapped: they count as that op's
self time.

A span records its name, the sweep cell (run id) it belongs to, its start and
end, its parent span in the same thread, and optional counts.  Spans stay in
memory until `dump` writes them out.

Run as a script, it traces one `fedskew run` and writes the spans:

    python3 perfbench/tracer.py CONFIG --jobs N --spans OUT.json
"""

import collections
import functools
import importlib
import json
import sys
import threading
import time
from pathlib import Path

# (module path, attribute, span name): every lookup site the tracer wraps.
SITES = [
    ("fedskew.cli", "run_experiments", "cli.run_experiments"),
    ("fedskew.cli", "parse_config", "cli.parse_config"),
    ("fedskew.cli", "dirichlet_partition", "partition.dirichlet"),
    ("fedskew.cli", "pretrain_backbone", "cli.pretrain"),
    ("fedskew.cli", "save_manifest", "cli.save_manifest"),
    ("fedskew.cli", "emit_report", "cli.emit_report"),
    ("fedskew.metrics", "write_rounds_csv", "cli.write_rounds_csv"),  # looked up as cli's mt.*
    ("fedskew.federation", "aggregate", "federation.aggregate"),
    ("fedskew.federation", "evaluate_client", "metrics.evaluate"),
    ("fedskew.federation", "step", "numkit.optim_step"),
    ("fedskew.models.loraformer", "adamw_step", "numkit.optim_step"),
    ("fedskew.federation", "make_batches", "textdata.make_batches"),
    ("fedskew.metrics", "make_batches", "textdata.make_batches"),
    ("fedskew.models.loraformer", "make_batches", "textdata.make_batches"),
]
OPS = ["conv1d_valid", "embedding_lookup", "max_over_time", "matmul", "gelu", "layernorm",
       "scaled_dot_attention", "softmax_cross_entropy"]

NAME, RUN, START, END, PARENT, EXTRA = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self.test_class_counts = None

    # -- span bookkeeping -------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, extra=None, after=None):
        """Run `fn` inside a span; `after(args, kwargs, result)` gives counts, outside the span."""
        stack = self._stack()
        span = [name, getattr(self._local, "run", None), 0.0, 0.0,
                stack[-1] if stack else None, extra]
        stack.append(span)
        span[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if after:
            span[EXTRA] = after(args, kwargs, result)
        return result

    def wrap(self, name, fn, after=None, before=None):
        """`before(args)` gives counts taken before the call, outside the span."""
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, before(args) if before else None, after)
        functools.update_wrapper(traced, fn)
        traced.perfbench_traced = True
        return traced

    def wrap_forward(self, forward):
        if getattr(forward, "perfbench_traced", False):
            return forward

        def traced(params, token_ids, *args, **kwargs):
            train = kwargs.get("train", args[0] if args else False)
            name = "models.forward_train" if train else "models.forward_eval"
            return self.call(name, forward, (params, token_ids) + args, kwargs,
                             {"rows": len(token_ids)})
        traced.perfbench_traced = True
        return traced

    # -- installation -----------------------------------------------------

    def install(self):
        from fedskew import cli, federation, numkit
        from fedskew.models import loraformer

        after = {"textdata.make_batches": _batch_rows,
                 "federation.aggregate": self._next_round,
                 "metrics.evaluate": self._eval_docs}
        for module, attr, name in SITES:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.wrap(name, getattr(mod, attr), after=after.get(name)))
        cli.ExperimentConfig.load_dataset = self.wrap("cli.load_dataset",
                                                      cli.ExperimentConfig.load_dataset)
        cli.execute_run = self._wrap_execute_run(cli.execute_run)
        federation.local_train = self.wrap("federation.local_train", federation.local_train,
                                           after=_update_bytes)
        build_model = federation.build_model

        def traced_build_model(*args, **kwargs):
            params, forward = build_model(*args, **kwargs)
            return params, self.wrap_forward(forward)
        federation.build_model = traced_build_model
        make_forward = loraformer.make_forward
        loraformer.make_forward = lambda cfg: self.wrap_forward(make_forward(cfg))
        numkit.backward = self.wrap("numkit.backward", numkit.backward,
                                    before=lambda args: {"nodes": _graph_size(args[0])})
        for op in OPS:
            setattr(numkit, op, self.wrap(f"numkit.op.{op}", getattr(numkit, op)))

    def _wrap_execute_run(self, execute_run):
        def traced(cfg, run, *args, **kwargs):
            self._local.run = run["run_id"]
            self._local.round = 0
            try:
                return self.call("cli.execute_run", execute_run, (cfg, run) + args, kwargs)
            finally:
                self._local.run = None
        return traced

    def _next_round(self, args, kwargs, result):
        # run_federation aggregates once per round, before it evaluates
        self._local.round += 1

    def _eval_docs(self, args, kwargs, ev):
        if self.test_class_counts is None:
            self.test_class_counts = collections.Counter(d.label for d in args[3])
        return {"docs": ev.eval_size, "round": self._local.round,
                "classes": sorted(args[2].present_classes)}

    # -- output -----------------------------------------------------------

    def dump(self, path):
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [[s[NAME], s[RUN], s[START], s[END],
                 index.get(id(s[PARENT])) if s[PARENT] is not None else None, s[EXTRA]]
                for s in self.spans]
        Path(path).write_text(json.dumps({
            "spans": rows,
            "test_class_counts": {str(k): v for k, v in (self.test_class_counts or {}).items()},
        }), encoding="utf-8")


def _batch_rows(args, kwargs, batches):
    return {"rows": sum(len(b.labels) for b in batches)}


def _update_bytes(args, kwargs, update):
    groups = list(update.params)
    return {"bytes": sum(g.tensor.data.nbytes for g in groups),
            "trainable_bytes": sum(g.tensor.data.nbytes for g in groups if g.trainable)}


def _graph_size(loss) -> int:
    seen = {id(loss)}
    todo = [loss]
    while todo:
        for p in todo.pop().parents:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return len(seen)


# ---------------------------------------------------------------------------
# aggregation of a span dump into per-layer metrics
# ---------------------------------------------------------------------------


def summarize(dump: dict) -> dict:
    """Per span name: calls, total and self seconds, and summed counts."""
    spans = dump["spans"]
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            child[s[PARENT]] += s[END] - s[START]
    by_name = {}
    for i, s in enumerate(spans):
        agg = by_name.setdefault(s[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        dur = s[END] - s[START]
        agg["calls"] += 1
        agg["total_s"] += dur
        agg["self_s"] += dur - child[i]
        for key, value in (s[EXTRA] or {}).items():
            if isinstance(value, (int, float)) and key != "round":
                agg[key] = agg.get(key, 0) + value
    return by_name


def eval_unique_docs(dump: dict) -> int:
    """Distinct test documents forwarded per (run, round), summed over the sweep."""
    counts = {int(k): v for k, v in dump["test_class_counts"].items()}
    union = collections.defaultdict(set)
    for s in dump["spans"]:
        if s[NAME] == "metrics.evaluate":
            union[(s[RUN], s[EXTRA]["round"])].update(s[EXTRA]["classes"])
    return sum(counts.get(c, 0) for classes in union.values() for c in classes)


def layer_metrics(dump: dict) -> dict:
    """The benchmark's per-layer metrics from one traced sweep."""
    by = summarize(dump)

    def get(name, key="total_s"):
        return by.get(name, {}).get(key, 0)

    m = {
        "cli.load_dataset_s": get("cli.load_dataset"),
        "partition.dirichlet_s": get("partition.dirichlet"),
        "cli.pretrain_s": get("cli.pretrain"),
        "cli.pretrain_calls": get("cli.pretrain", "calls"),
        "cli.write_outputs_s": sum(get(n) for n in ("cli.save_manifest", "cli.write_rounds_csv",
                                                    "cli.emit_report")),
        "textdata.make_batches_s": get("textdata.make_batches"),
        "textdata.make_batches_calls": get("textdata.make_batches", "calls"),
        "textdata.batch_rows": get("textdata.make_batches", "rows"),
        "federation.local_train_s": get("federation.local_train"),
        "federation.local_train_calls": get("federation.local_train", "calls"),
        "federation.aggregate_s": get("federation.aggregate"),
        "federation.update_bytes": get("federation.local_train", "bytes"),
        "federation.update_trainable_ratio": (
            get("federation.local_train", "trainable_bytes")
            / max(get("federation.local_train", "bytes"), 1)),
        "metrics.evaluate_s": get("metrics.evaluate"),
        "metrics.eval_docs": get("metrics.evaluate", "docs"),
        "metrics.eval_unique_ratio": eval_unique_docs(dump) / max(get("metrics.evaluate", "docs"), 1),
        "models.forward_train_s": get("models.forward_train"),
        "models.forward_eval_s": get("models.forward_eval"),
        "models.forward_rows": get("models.forward_train", "rows") + get("models.forward_eval", "rows"),
        "numkit.backward_s": get("numkit.backward"),
        "numkit.backward_calls": get("numkit.backward", "calls"),
        "numkit.graph_nodes": get("numkit.backward", "nodes"),
        "numkit.optim_step_s": get("numkit.optim_step"),
        "numkit.optim_step_calls": get("numkit.optim_step", "calls"),
    }
    for op in OPS:
        m[f"numkit.op.{op}_s"] = get(f"numkit.op.{op}")
        m[f"numkit.op.{op}_calls"] = get(f"numkit.op.{op}", "calls")
    return m


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description="trace one fedskew sweep")
    parser.add_argument("config")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)

    from fedskew import cli

    tracer = Tracer()
    tracer.install()
    code = cli.main(["run", args.config, "--jobs", str(args.jobs)])
    tracer.dump(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
