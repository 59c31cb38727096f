"""Benchmark of the marketstates pipeline on planted-state synthetic markets.

Usage (from the repository root):

    python3 benchmarks/run.py --workload long --seed 1 --seconds 20 --trace 0

Each run repeats two steps, one at a time and each in a fresh process, for
``--seconds`` seconds and at least five times: set up the workload's market
from ``--seed`` (``setup_s`` is the median of these set-ups), then run the
workload's operation on it.  Every operation is a cold run into an empty
output directory followed by the same call again (``rerun_s``).  All outputs
are checked; a failed check counts in ``failed`` and clears ``correct``.  With ``--trace 1``
one more operation runs with spans around every layer call (``workers=1``)
and the per-layer metrics are reported instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from ari import adjusted_rand_index
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Operations per run at least.  A set-up of a market of its own precedes
#: each, so ``setup_s`` is a median over as many set-ups, spread over the run.
MIN_OPS = 5
#: A run adds no operation that would end it later than this, counting the
#: traced ones still to come, so that a slow program still ends within 180 s.
BUDGET_S = 150
CHILD_TIMEOUT_S = 120


class ChildFailed(RuntimeError):
    pass


def _child(args: list[str], timeout: float = CHILD_TIMEOUT_S) -> str:
    """Run ``op.py`` in a fresh process group; kill the whole group on timeout."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.Popen([sys.executable, str(HERE / "op.py"), *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"op.py {args[0]} timed out after {timeout} s") from None
    except BaseException:  # interrupted: take the child's process group down too
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise ChildFailed(f"op.py {args[0]} exited {proc.returncode}: {err.strip()[-2000:]}")
    return out


def _mb(kib: int) -> float:
    return kib * 1024 / 1e6


class Checks:
    """Output checks.  Each check is attempted once and fails at most once, so
    ``failed`` never exceeds ``attempted``."""

    def __init__(self):
        self.attempted = self.failed = 0

    def count(self, attempted: int, failed: int, message: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            print(f"check failed: {message}", file=sys.stderr)

    def expect(self, ok: bool, message: str) -> None:
        self.count(1, 0 if ok else 1, message)


def _check_op(spec, op: dict, checks: Checks) -> None:
    """Check one operation: its stages (cold and rerun) or its catalog windows."""
    checks.count(op["windows"], op["failures"], f"{op['failures']} catalog windows failed")
    if spec.operation == "catalog":
        checks.expect(op["rerun_matches"], "second classify_catalog differs from the first")
        return
    enabled = [n for n, s in op["status"].items() if s != "not configured"]
    bad = [n for n in enabled if op["status"][n] != "ok"]
    bad += [n for n in enabled if op["rerun_status"][n] != "skipped"]
    checks.count(2 * len(enabled), len(bad),
                 f"stages not ok on the cold run or not skipped on the rerun: {bad}")
    # a failed or halted stage already makes the exit code non-zero and is
    # counted above; the code is a failure of its own only when no stage is bad
    checks.expect(op["exit"] == [0, 0] or bool(bad), f"exit codes {op['exit']} with no bad stage")


def _critical_accuracy(op: dict, kinds: dict[str, str]) -> float:
    hits = sum((op["classes"].get(name) == "CRITICAL") == (kind == "crash")
               for name, kind in kinds.items())
    return hits / len(kinds)


def _recovery(spec, op: dict, truth: dict) -> float:
    if spec.operation == "catalog":
        return _critical_accuracy(op, truth["events"])
    if "state_of" not in op:  # the pipeline failed; the checks count it
        return 0.0
    planted = np.array(truth["epochs"])
    pure = planted >= 0
    return adjusted_rand_index(np.array(op["state_of"])[pure], planted[pure])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "marketstates" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'marketstates'} is missing", file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so children are killed and the work dir removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = WORKLOADS[args.workload]
    scratch = ROOT / ".bench_work"
    work = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _bench(args, spec, scratch, work)
    except ChildFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _units() -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and the per-layer metrics, as BENCHMARK.json declares them."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in declared[key]} for key in ("end_to_end", "per_layer"))


def _bench(args, spec, scratch: Path, work: Path) -> int:
    started = perf_counter()
    market = work / "market"
    setup_times = []

    def setup(index: int) -> dict:
        """Write market ``index`` of the seed; return its planted truth."""
        shutil.rmtree(market, ignore_errors=True)
        market.mkdir(parents=True)
        line = _child(["setup", "--workload", args.workload, "--seed", str(args.seed),
                       "--market", str(index), "--work", str(market)]).strip().splitlines()[-1]
        setup_times.append(json.loads(line)["setup_s"])
        return json.loads((market / "truth.json").read_text())

    def operation(workers: int, trace: str = "") -> dict:
        out = work / "out"
        shutil.rmtree(out, ignore_errors=True)
        line = _child(["run", "--workload", args.workload, "--work", str(market), "--out", str(out),
                       "--workers", str(workers), "--trace", trace]).strip().splitlines()[-1]
        shutil.rmtree(out, ignore_errors=True)
        return json.loads(line)

    checks = Checks()
    ops, longest = [], 0.0
    traced_ops = (2 if spec.workers > 1 else 1) if args.trace else 0
    t_loop = perf_counter()
    while True:
        t0 = perf_counter()
        # every operation gets a market of its own, so that the medians cover
        # several draws of the planted regimes rather than one
        truth = setup(len(ops))
        op = operation(spec.workers)
        longest = max(longest, perf_counter() - t0)
        _check_op(spec, op, checks)
        op["recovery"] = _recovery(spec, op, truth)
        ops.append(op)
        done = perf_counter() - t_loop >= args.seconds and len(ops) >= MIN_OPS
        # a slow program gets fewer operations rather than a run past the budget
        if done or perf_counter() - started + longest * (1 + traced_ops) > BUDGET_S:
            break

    end_to_end_units, per_layer_units = _units()
    off_path = set()
    if args.trace:
        # the traced operations run on the last operation's market and must
        # reproduce its outputs
        units = per_layer_units
        if spec.workers > 1:
            baseline = operation(1)
            checks.expect(baseline["outputs"] == ops[-1]["outputs"],
                          f"outputs with workers=1 differ from workers={spec.workers}")
            base_s = baseline["run_s"] + baseline["rerun_s"]
        else:
            base_s = statistics.median(op["run_s"] + op["rerun_s"] for op in ops)
        trace_file = scratch / f"trace-{args.workload}-{args.seed}.json"
        traced = operation(1, str(trace_file))
        _check_op(spec, traced, checks)
        checks.expect(traced["outputs"] == ops[-1]["outputs"],
                      f"traced workers=1 outputs differ from untraced workers={spec.workers}")
        trace_s = traced["run_s"] + traced["rerun_s"]
        status = traced.get("status", {})
        metrics = dict(traced["layers"])
        off_path = {name for name in metrics if name.split(".")[0] not in traced["layers_on_path"]}
        if not spec.events:
            off_path.add("trajectory.critical_accuracy")
        if spec.operation != "pipeline":
            off_path |= {"pipeline.stages_ok", "pipeline.stages_skipped"}
        metrics.update({
            "trajectory.critical_accuracy":
                _critical_accuracy(traced, truth["events"]) if spec.events else 0.0,
            "pipeline.stages_ok": sum(s == "ok" for s in status.values()),
            "pipeline.stages_skipped": sum(s == "skipped" for s in traced.get("rerun_status", {}).values()),
            "pipeline.driver_rss_mb": statistics.median(_mb(op["self_rss_kib"]) for op in ops),
            "pipeline.worker_rss_mb": statistics.median(_mb(op["children_rss_kib"]) for op in ops),
            "trace.run_s": trace_s,
            "trace.overhead_s": trace_s - base_s,
        })
    else:
        units = end_to_end_units
        metrics = {
            "run_s": statistics.median(op["run_s"] for op in ops),
            "rerun_s": statistics.median(op["rerun_s"] for op in ops),
            "peak_rss_mb": statistics.median(
                _mb(max(op["self_rss_kib"], op["children_rss_kib"])) for op in ops),
            "setup_s": statistics.median(setup_times),
            "planted_recovery": statistics.median(op["recovery"] for op in ops),
        }
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} are measured but not "
                          "declared in BENCHMARK.json, or declared but not measured")

    print(f"{args.workload} seed {args.seed}: {len(ops)} operations, {len(setup_times)} setups, "
          f"failed_frac {checks.failed / checks.attempted:.4f} ({checks.failed}/{checks.attempted})")
    for key in ("run_s", "rerun_s"):
        print(f"  {key} samples: " + " ".join(f"{op[key]:.4f}" for op in ops))
    print("  setup_s samples: " + " ".join(f"{t:.4f}" for t in setup_times))
    for name, value in metrics.items():
        shown = "n/a" if name in off_path else f"{value:.6f}"
        print(f"  {name:32s} {shown:>16s} {units[name]}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
