"""The benchmark's traced mode still reads the program's layers.

``benchmarks/spans.py`` wraps every public layer function and reads a few
counters from the calls' arguments and results: the epoch records' dates and
``.values``, and the first argument of ``similarity_matrix``.  This runs the
benchmark's own set-up and one traced operation, each in a fresh process,
and checks those counters on a fixed market.  It writes only under the
test's temporary directory.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

OP = Path(__file__).resolve().parent.parent / "benchmarks" / "op.py"


def op(*args, cwd):
    # one BLAS thread, as the benchmark runs it, and no bytecode cache beside its scripts
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, str(OP), *map(str, args)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_traced_long_operation_counts_the_kernel_calls_and_epochs(tmp_path):
    work, out, trace = tmp_path / "market", tmp_path / "out", tmp_path / "trace.json"
    op("setup", "--workload", "long", "--seed", 1, "--market", 0, "--work", work, cwd=tmp_path)
    result = op("run", "--workload", "long", "--work", work, "--out", out, "--workers", 1,
                "--trace", trace, cwd=tmp_path)
    assert result["exit"] == [0, 0]
    layers = result["layers"]
    # 6 kernel calls: the states stage's ε = 0 map and the grid's 2 other epsilons
    # over 400 epochs of 40 stocks, the sector fit over 8 sectors, and 2 event
    # windows of 105 epochs
    assert layers["geometry.similarity_calls"] == 6
    assert layers["geometry.pair_elems"] == 405_619_200
    assert layers["corrmat.epochs_computed"] == 610
    assert json.loads(trace.read_text())  # the spans themselves were written
    assert result["layers_on_path"] == sorted(["corrmat", "geometry", "ingest", "pipeline",
                                               "rmt", "sector", "serialize", "states",
                                               "trajectory"])


def test_traced_events_operation_counts_the_window_kernels(tmp_path):
    work, out, trace = tmp_path / "market", tmp_path / "out", tmp_path / "trace.json"
    op("setup", "--workload", "events", "--seed", 1, "--market", 0, "--work", work, cwd=tmp_path)
    result = op("run", "--workload", "events", "--work", work, "--out", out, "--workers", 2,
                "--trace", trace, cwd=tmp_path)
    assert result["failures"] == 0 and result["rerun_matches"]
    layers = result["layers"]
    # 16 windows of 105 epochs of 60 stocks, classified twice: one kernel call
    # and 105 epochs per window each time
    assert layers["geometry.similarity_calls"] == 32
    assert layers["geometry.pair_elems"] == 628_992_000
    assert layers["corrmat.epochs_computed"] == 3_360
    assert json.loads(trace.read_text())
