"""Adjusted Rand index of two labelings (Hubert & Arabie 1985), in numpy."""

from __future__ import annotations

import numpy as np


def adjusted_rand_index(labels_a, labels_b) -> float:
    """1.0 for identical partitions under any renaming, about 0 for chance."""
    _, a = np.unique(np.asarray(labels_a), return_inverse=True)
    _, b = np.unique(np.asarray(labels_b), return_inverse=True)
    if a.size != b.size:
        raise ValueError(f"labelings differ in length: {a.size} vs {b.size}")
    table = np.zeros((a.max() + 1, b.max() + 1))
    np.add.at(table, (a, b), 1)

    def pairs(counts):
        return float((counts * (counts - 1) / 2).sum())

    both = pairs(table)
    rows, cols, total = pairs(table.sum(axis=1)), pairs(table.sum(axis=0)), a.size * (a.size - 1) / 2
    expected = rows * cols / total
    ceiling = (rows + cols) / 2
    if ceiling == expected:  # both labelings trivial (one cluster or all singletons)
        return 1.0
    return (both - expected) / (ceiling - expected)
