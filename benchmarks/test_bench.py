"""Self-tests of the benchmark's own helpers (run with pytest from the repo root)."""

import numpy as np
import pytest

from ari import adjusted_rand_index
from market import MarketSpec, generate
from run import Checks, _check_op
from spans import self_times
from workloads import WORKLOADS


def test_ari_identical_labels():
    labels = [0, 0, 1, 1, 2, 2, 2]
    assert adjusted_rand_index(labels, labels) == 1.0


def test_ari_relabelled_partition():
    assert adjusted_rand_index([0, 0, 1, 1, 2, 2], [5, 5, 3, 3, 9, 9]) == 1.0


def test_ari_hand_computed():
    # contingency [[2, 1], [0, 3]]: sum C(n_ij,2) = 1 + 3 = 4, rows C(3,2)*2 = 6,
    # columns C(2,2) + C(4,2) = 7, C(6,2) = 15, expected 6*7/15 = 2.8
    # ARI = (4 - 2.8) / (6.5 - 2.8) = 1.2 / 3.7
    value = adjusted_rand_index([0, 0, 0, 1, 1, 1], [0, 0, 1, 1, 1, 1])
    assert value == pytest.approx(1.2 / 3.7, abs=1e-12)


def test_market_is_seeded_and_planted():
    spec = MarketSpec(n_stocks=12, n_days=500, n_sectors=3, n_regimes=3, mean_dwell=60, n_bursts=1)
    first, again, other = generate(spec, 7), generate(spec, 7), generate(spec, 8)
    assert np.array_equal(first.prices, again.prices)
    assert not np.array_equal(first.prices, other.prices)
    assert set(np.unique(first.regime)) == {0, 1, 2, 3}  # three regimes plus the burst
    kinds = [kind for _, _, kind in first.events]
    assert kinds == ["crash", "quiet"]
    (lo, hi), = first.bursts
    assert (first.regime[lo:hi] == spec.n_regimes).all()


def test_self_time_subtracts_children():
    # root 0..10 with children 1..4 and 5..6; the first child has a child 2..3
    spans = [
        {"id": 0, "parent": None, "t0": 0.0, "t1": 10.0},
        {"id": 1, "parent": 0, "t0": 1.0, "t1": 4.0},
        {"id": 2, "parent": 1, "t0": 2.0, "t1": 3.0},
        {"id": 3, "parent": 0, "t0": 5.0, "t1": 6.0},
    ]
    assert self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def test_failed_stage_counts_once():
    # stage b fails on both calls and makes both exit codes non-zero
    op = {"windows": 2, "failures": 0, "exit": [1, 1],
          "status": {"a": "ok", "b": "failed", "c": "not configured"},
          "rerun_status": {"a": "skipped", "b": "failed", "c": "not configured"}}
    checks = Checks()
    _check_op(WORKLOADS["long"], op, checks)
    # 2 windows + 2 enabled stages x 2 calls + the exit code check
    assert (checks.attempted, checks.failed) == (7, 2)


def test_failed_windows_count_once():
    op = {"windows": 32, "failures": 3, "rerun_matches": True}
    checks = Checks()
    _check_op(WORKLOADS["events"], op, checks)
    assert (checks.attempted, checks.failed) == (33, 3)
