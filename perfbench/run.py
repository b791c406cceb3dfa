"""Benchmark of the fedskew sweep: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload cnn-skew --seed 1 --seconds 50 --trace 0

Run from the root of a checkout.  The benchmark writes a sweep config for the
workload from the seed, then starts every sweep as its own process running the
checkout's sources (`PYTHONPATH=src`) with the BLAS thread count pinned.  It
repeats whole sweeps until `--seconds` have passed, checks every sweep's
outputs, and prints one JSON object as the last line of standard output:

- `--trace 0`: `sweep_s`, the mean wall time of the run's sweeps (their total
  over their count); `setup_s`, the median of the set-up probes run before
  every sweep; and `peak_rss_mb`, the median over the sweeps.
- `--trace 1`: sweeps alternate between plain `fedskew run` and
  `perfbench/tracer.py`; the per-layer metrics come from the traced sweeps,
  and `trace.overhead_s` is the traced mean minus the plain mean.

`attempted` counts sweep cells (models x alphas x aggregators) over all
sweeps of the run, and `failed` those whose summary is not `status: ok`.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# One BLAS thread per process: `lora-pretrained-par` runs two sweep cells at a
# time on a 2-core machine, and threaded BLAS made the sweep slower there.
BLAS_THREADS = "1"
SETUP_PER_SWEEP = 1  # set-up probes before every sweep, so they sample the same stretch of time
MIN_SWEEPS = 3  # plain sweeps of an untraced run; at least 2 also feed the determinism check
MIN_TRACED_SWEEPS = 2  # of each kind (plain, traced) in a traced run
CHILD_TIMEOUT_S = 150
LAST_START_S = 110  # start no sweep after this many seconds, so a run ends within 180 s
RESULTS = HERE / "results"


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("FEDSKEW_OUT", None)
    return env


def run_child(argv, log: Path):
    """Run `argv` to its end; returns (exit code, wall seconds, peak RSS in MiB)."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss / 1024.0


def setup_seconds(config_path: Path, work: Path) -> float:
    log = work / "setup.log"
    code, _, _ = run_child([sys.executable, str(HERE / "setup_probe.py"), str(config_path)], log)
    lines = log.read_text(encoding="utf-8").splitlines()
    if code != 0 or not lines:
        raise BenchError(f"set-up probe exited {code}: {lines[-5:]}")
    probe = json.loads(lines[-1])
    if not Path(probe["fedskew_cli"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"fedskew imported from {probe['fedskew_cli']}, not this checkout")
    return probe["import_s"] + probe["parse_s"] + probe["load_dataset_s"] + probe["partition_s"]


def run_sweep(config_path: Path, jobs: int, work: Path, spans: Path = None):
    """One whole sweep in a fresh process; returns (seconds, peak RSS MiB)."""
    shutil.rmtree(work / "out", ignore_errors=True)
    if spans is None:
        argv = [sys.executable, "-m", "fedskew.cli", "run", str(config_path), "--jobs", str(jobs)]
    else:
        argv = [sys.executable, str(HERE / "tracer.py"), str(config_path), "--jobs", str(jobs),
                "--spans", str(spans)]
    log = work / "sweep.log"
    code, seconds, rss = run_child(argv, log)
    if code not in (0, 2):  # 2: some cells failed, which the checks count
        tail = log.read_text(encoding="utf-8", errors="replace").splitlines()[-5:]
        raise BenchError(f"sweep exited {code}: {tail}")
    return seconds, rss


def per_layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def bench(workload: str, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    jobs = workloads.WORKLOADS[workload]["jobs"]
    config = workloads.sweep_config(workload, seed, str((work / "out").relative_to(ROOT)))
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=1), encoding="utf-8")

    errors, attempted, failed = [], 0, 0
    reference = None
    setup, plain, traced, layers = [], [], [], []
    begin = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - begin
        enough = (min(len(plain), len(traced)) >= MIN_TRACED_SWEEPS if trace
                  else len(plain) >= MIN_SWEEPS)
        if (enough and elapsed >= seconds) or (elapsed >= LAST_START_S and plain
                                               and (traced or not trace)):
            break
        use_trace = trace and len(traced) < len(plain)
        spans = work / "spans.json" if use_trace else None
        setup += [setup_seconds(config_path, work) for _ in range(SETUP_PER_SWEEP)]
        secs, rss = run_sweep(config_path, jobs, work, spans)
        print(f"sweep {len(plain) + len(traced) + 1}{' traced' if use_trace else ''}: "
              f"{secs:.3f} s, peak RSS {rss:.1f} MiB", file=sys.stderr)
        result = checks.check_sweep(work / "out", config)
        attempted += len(checks.planned_cells(config))
        failed += result.failed
        errors += result.errors
        if reference is None:
            reference = result.rounds_csv
        elif result.rounds_csv != reference:
            errors.append("rounds.csv differs between sweeps of one config")
        if use_trace:
            dump = json.loads(spans.read_text(encoding="utf-8"))
            traced.append(secs)
            layers.append(tracer.layer_metrics(dump))
        else:
            plain.append((secs, rss))

    # The host's speed drifts in stretches of seconds to minutes.  A mean over
    # the whole run follows the share of slow time smoothly, where a median
    # jumps between the slow and the fast level.
    sweep_s = statistics.fmean(s for s, _ in plain)
    if trace:
        write_trace_report(workload, seed, dump, traced[-1])
        metrics = {name: statistics.median_low(m[name] for m in layers) for name in layers[0]}
        metrics["trace.sweep_s"] = statistics.fmean(traced)
        metrics["trace.overhead_s"] = metrics["trace.sweep_s"] - sweep_s
        metrics = {k: {"value": v, "unit": per_layer_units(k)} for k, v in metrics.items()}
    else:
        metrics = {
            "sweep_s": {"value": sweep_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r for _, r in plain), "unit": "MiB"},
        }
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    return {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}


def write_trace_report(workload: str, seed: int, dump: dict, sweep_s: float):
    """Self and total time per span name, with shares of the traced sweep, for the README."""
    RESULTS.mkdir(exist_ok=True)
    by_name = tracer.summarize(dump)
    rows = sorted(by_name.items(), key=lambda kv: -kv[1]["self_s"])
    report = {"workload": workload, "seed": seed, "openblas_num_threads": BLAS_THREADS,
              "traced_sweep_s": sweep_s,
              "layers": {name: {**agg, "share_total": agg["total_s"] / sweep_s,
                                "share_self": agg["self_s"] / sweep_s}
                         for name, agg in rows}}
    (RESULTS / f"{workload}-layers.json").write_text(json.dumps(report, indent=1),
                                                     encoding="utf-8")
    (RESULTS / f"{workload}-spans.json").write_text(json.dumps(dump), encoding="utf-8")
    print(f"{'span':32} {'calls':>8} {'total s':>9} {'self s':>9} {'self %':>7}", file=sys.stderr)
    for name, agg in rows:
        print(f"{name:32} {agg['calls']:8d} {agg['total_s']:9.3f} {agg['self_s']:9.3f} "
              f"{100 * agg['self_s'] / sweep_s:6.1f}%", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fedskew" / "cli.py").is_file():
        print(f"perfbench: no fedskew sources at {ROOT / 'src' / 'fedskew'}", file=sys.stderr)
        return 2
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
