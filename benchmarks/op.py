"""One benchmark step in a fresh process: ``setup`` or ``run``.

``setup`` imports the program, generates the workload's market number
``--market`` of the seed and writes its CSVs plus the planted truth (kept apart from the program's
inputs).  It prints its own time, counted from before the imports, as one
JSON line, so that the interpreter's start-up stays out of ``setup_s``.
``run`` performs one cold operation into a fresh output directory
and then the same operation again, and prints one JSON line with timings,
the process's own and its children's peak RSS, statuses and output digests.
With ``--trace PATH`` it records spans around every layer call and writes
them to PATH.
"""

from __future__ import annotations

from time import perf_counter

STARTED = perf_counter()  # before the imports that set-up time counts

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import marketstates  # noqa: E402  (path set above)
from marketstates import ingest, pipeline, trajectory  # noqa: E402
from marketstates.corrmat import EpochSpec  # noqa: E402

from market import EVENT_WIDTH, generate, write_market  # noqa: E402
from workloads import EPSILON_GRID, K_RANGE, N_INITS, WINDOW, WORKLOADS  # noqa: E402

if not Path(marketstates.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"marketstates imported from {marketstates.__file__}, not from {ROOT / 'src'}")


def setup(workload: str, seed: int, index: int, work: Path) -> dict:
    spec = WORKLOADS[workload]
    market = generate(spec.market, (seed, index))
    write_market(market, work / "data", events=spec.events)
    truth = {
        "epochs": market.epoch_truth(WINDOW, spec.shift).tolist(),
        "events": {name: kind for name, _, kind in market.events},
    }
    (work / "truth.json").write_text(json.dumps(truth))
    return {"setup_s": perf_counter() - STARTED}


def _pipeline(spec, data: Path, out: Path, workers: int, n_states: int) -> dict:
    cfg = pipeline.PipelineConfig(
        prices=str(data / "prices.csv"), sectors=str(data / "sectors.csv"),
        events=str(data / "events.csv") if spec.events else "", out_dir=str(out),
        window=WINDOW, shift=spec.shift, epsilon_grid=EPSILON_GRID,
        k_range=K_RANGE, n_inits=N_INITS, width_days=EVENT_WIDTH,
        # the grid runs in full; the fit uses the planted state count on raw
        # matrices so that the recovery score does not hinge on the grid's pick
        k_min=2, k=n_states, epsilon=0.0,
    )
    t0 = perf_counter()
    code, manifest = pipeline.run_pipeline(cfg, workers=workers)
    t1 = perf_counter()
    rerun_code, rerun = pipeline.run_pipeline(cfg, workers=workers)
    t2 = perf_counter()
    result = {
        "run_s": t1 - t0, "rerun_s": t2 - t1, "exit": [code, rerun_code],
        "status": {name: entry["status"] for name, entry in manifest["stages"].items()},
        "rerun_status": {name: entry["status"] for name, entry in rerun["stages"].items()},
        "outputs": {name: entry.get("outputs", {}) for name, entry in manifest["stages"].items()},
        "windows": 0, "failures": 0, "classes": {},
    }
    if code == 0:
        result["state_of"] = json.loads((out / "model.json").read_text())["state_of"]
        if spec.events:
            report = json.loads((out / "trajectory_report.json").read_text())
            result["classes"] = {e["name"]: e["classification"] for e in report["events"]}
            result["failures"] = len(report["failures"])
            result["windows"] = len(report["events"]) + result["failures"]
    return result


def _reports_digest(reports) -> str:
    rows = [(r.name, repr(r.var_x), repr(r.var_y), repr(r.var_z), r.classification)
            for r in reports]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _catalog(spec, panel, catalog, workers: int) -> dict:
    kwargs = dict(width_days=EVENT_WIDTH,
                  spec=EpochSpec(WINDOW, spec.shift), workers=workers)
    t0 = perf_counter()
    reports, failures = trajectory.classify_catalog(panel, catalog, **kwargs)
    t1 = perf_counter()
    again, again_failures = trajectory.classify_catalog(panel, catalog, **kwargs)
    t2 = perf_counter()
    digest = _reports_digest(reports)
    return {
        "run_s": t1 - t0, "rerun_s": t2 - t1, "outputs": {"reports": digest},
        "rerun_matches": digest == _reports_digest(again) and failures == again_failures,
        "failures": len(failures) + len(again_failures), "windows": 2 * len(catalog),
        "classes": {r.name: r.classification for r in reports},
    }


def run(workload: str, work: Path, out: Path, workers: int, trace_path: str) -> dict:
    spec = WORKLOADS[workload]
    data = work / "data"
    if spec.operation == "catalog":
        # loading the panel is not part of the timed call, so it is not traced either
        panel = ingest.log_returns(ingest.load_prices(data / "prices.csv"))
        catalog = trajectory.load_event_catalog(data / "events.csv")
    recorder = None
    if trace_path:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    if spec.operation == "catalog":
        result = _catalog(spec, panel, catalog, workers)
    else:
        truth = json.loads((work / "truth.json").read_text())
        result = _pipeline(spec, data, out, workers, len(set(truth["epochs"]) - {-1}))
    result["self_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # RUSAGE_CHILDREN reports the largest single waited-for child, not a sum
    result["children_rss_kib"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if recorder is not None:
        Path(trace_path).write_text(json.dumps(recorder.spans))
        result["layers"] = spans.layer_metrics(recorder.spans)
        result["layers_on_path"] = sorted({s["layer"] for s in recorder.spans})
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("step", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--market", type=int, default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--trace", default="")
    args = parser.parse_args()
    if args.step == "setup":
        print(json.dumps(setup(args.workload, args.seed, args.market, args.work)))
    else:
        print(json.dumps(run(args.workload, args.work, args.out, args.workers, args.trace)))


if __name__ == "__main__":
    main()
