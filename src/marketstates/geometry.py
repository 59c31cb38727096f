"""Epoch-pair dissimilarity and its low-dimensional map.

Two epochs are compared by the mean absolute difference of their correlation
matrices, element by element.  Classical (Torgerson) multidimensional scaling
turns the resulting dissimilarity matrix into coordinates, so that each epoch
becomes one point and market history becomes a trajectory through that map.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .corrmat import _check_epsilon, _epochs_per_chunk, _power
from .errors import NumericError


@dataclass
class Embedding:
    """Classical MDS coordinates plus eigenvalue diagnostics.

    ``eigenvalues`` are the D retained (non-negative, descending) values;
    padded axes carry eigenvalue 0.  ``full_eigenvalues`` is the entire
    double-centering spectrum; ``clipped_mass`` is the |negative| share of
    total |eigenvalue| mass, a measure of how non-Euclidean the input was.
    """

    coordinates: np.ndarray
    eigenvalues: np.ndarray
    D: int
    full_eigenvalues: np.ndarray
    n_clipped: int
    clipped_mass: float

    def leading(self, D: int) -> "Embedding":
        """This map on its first D axes: the same bytes as classical MDS at D.

        Axes are computed column by column from one eigendecomposition, so a
        full map truncated to D axes equals ``classical_mds(dissim, D)``.
        """
        if not 1 <= D <= self.D:
            raise ValueError(f"D must be in 1..{self.D}, got {D}")
        return Embedding(
            coordinates=self.coordinates[:, :D].copy(),
            eigenvalues=self.eigenvalues[:D].copy(),
            D=D,
            full_eigenvalues=self.full_eigenvalues,
            n_clipped=self.n_clipped,
            clipped_mass=self.clipped_mass,
        )


def _packed_epochs(stack: np.ndarray, epsilon: float = 0.0) -> np.ndarray:
    """Pack each power-mapped epoch into one row: 2 x its strict upper triangle, then its diagonal.

    The L1 distance between two packed rows equals the one between the full
    matrices, because every off-diagonal difference appears twice there.
    The power map is element-wise, so mapping the packed entries gives the
    bits of mapping the whole stack first, without a stack-sized mapped
    copy: epochs go through in chunks of about 2^16 float64 (512 KB).
    Raises NumericError naming the first epoch that is non-finite after the
    map or not exactly symmetric, the two conditions under which that
    equality fails.
    """
    n, rows, cols = stack.shape
    if rows != cols or rows == 0:
        raise NumericError(f"epochs must be non-empty square matrices, got shape {(rows, cols)}")
    row, col = np.triu_indices(rows, 1)
    upper_at = row * rows + col  # the strict upper triangle in a flattened epoch
    k = upper_at.size
    X = np.empty((n, k + rows))
    step = _epochs_per_chunk(rows * rows)
    for e0 in range(0, n, step):
        chunk, packed = stack[e0:e0 + step], X[e0:e0 + step]
        flat = chunk.reshape(len(chunk), rows * rows)
        upper, diag = np.take(flat, upper_at, axis=1), flat[:, ::rows + 1]
        if epsilon:
            upper, diag = _power(upper, epsilon), _power(diag, epsilon)
        np.multiply(upper, 2.0, out=packed[:, :k])
        packed[:, k:] = diag
        finite = np.isfinite(packed).all(axis=1)
        symmetric = (chunk == chunk.transpose(0, 2, 1)).all(axis=(1, 2))
        if not (finite & symmetric).all():
            e = int(np.argmin(finite & symmetric))
            what = "has a non-finite entry" if not finite[e] else "is not exactly symmetric"
            raise NumericError(f"epoch {e0 + e} {what}")
    return X


def _l1_rows(X: np.ndarray, out: np.ndarray, first: int, step: int, block: int) -> None:
    """Upper-triangle rows first, first + step, ... of ``out``, through a buffer of its own."""
    n, width = X.shape
    buf = np.empty((min(block, n - 1), width))
    for i in range(first, n - 1, step):
        for j0 in range(i + 1, n, block):
            j1 = min(j0 + block, n)
            b = buf[: j1 - j0]
            np.subtract(X[j0:j1], X[i], out=b)
            np.abs(b, out=b)
            b.sum(axis=1, out=out[i, j0:j1])


def similarity_matrix(stack: np.ndarray, workers: int = 1, epsilon: float = 0.0) -> np.ndarray:
    """Mean absolute element-wise difference between every pair of power-mapped epochs.

    Takes an (epochs, N, N) stack and returns the symmetric (epochs, epochs)
    dissimilarity matrix with a zero diagonal.  The mean runs over all N^2
    ordered entries, diagonal included (diagonal differences are zero for
    raw correlation matrices, so they only dilute by a constant factor).
    Each epoch is compared after the power map at ``epsilon`` (0 leaves it
    as it is), with the bits of ``similarity_matrix(power_map(stack, epsilon))``.

    Every epoch must be finite and exactly symmetric, as correlation,
    power-mapped and sector-averaged matrices are; otherwise NumericError.
    The kernel then sums over the packed upper triangle and diagonal only,
    streaming row differences through a buffer of about 512 KB, so its
    working set beyond the input is the half-size packed stack, at any
    epsilon: the map is applied to about 512 KB of epochs at a time as they are packed.

    ``workers`` threads share the packed stack; row i goes to thread
    i mod workers.  Each entry is still summed by one thread over the same
    blocks, so the result is bit-identical for any thread count.
    """
    _check_epsilon(epsilon)
    if not isinstance(stack, np.ndarray):
        raise TypeError(f"expected an (epochs, N, N) ndarray, got {type(stack).__name__}")
    if stack.ndim != 3:
        raise NumericError(f"stack must be 3-D (epochs, N, N), got shape {stack.shape}")
    n = stack.shape[0]
    if n < 2:
        raise NumericError(f"need at least 2 epochs, got {n}")
    X = _packed_epochs(stack.astype(float, copy=False), epsilon)
    out = np.zeros((n, n))
    # each thread's reused difference buffer of about 2^16 float64 (512 KB) stays in cache
    block = max(1, (1 << 16) // X.shape[1])
    threads = max(1, min(workers, n - 1))
    if threads == 1:
        _l1_rows(X, out, 0, 1, block)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            # reading every result re-raises a worker's exception here
            list(pool.map(lambda t: _l1_rows(X, out, t, threads, block), range(threads)))
    N = stack.shape[1]
    out /= N * N
    out += out.T
    return out


def _n_epochs(dissim: np.ndarray) -> int:
    """Side length of a square dissimilarity matrix (its ``size`` is the square)."""
    if dissim.ndim != 2 or dissim.shape[0] != dissim.shape[1]:
        raise ValueError(f"dissimilarities must be a square matrix, got shape {dissim.shape}")
    return dissim.shape[0]


def _double_center(values: np.ndarray) -> np.ndarray:
    """-1/2 J (Z*Z) J, built in the one (n, n) array that holds Z*Z."""
    B = values * values
    row = B.mean(axis=1, keepdims=True)
    col = B.mean(axis=0, keepdims=True)
    grand = B.mean()
    B -= row
    B -= col
    B += grand
    B *= -0.5
    return B


def _fix_signs(coords: np.ndarray) -> np.ndarray:
    # reflection ambiguity: largest-magnitude entry of each axis made >= 0
    for m in range(coords.shape[1]):
        column = coords[:, m]
        if column.any() and column[np.argmax(np.abs(column))] < 0:
            coords[:, m] = -column
    return coords


def _mds_coordinates(values: np.ndarray, D: int, warn: bool = True):
    n = values.shape[0]
    B = _double_center(values)
    eigval, eigvec = np.linalg.eigh(B)
    order = np.argsort(eigval)[::-1]
    eigval = eigval[order]
    eigvec = eigvec[:, order]

    non_negative = eigval >= 0.0
    n_keep = min(D, int(non_negative[:D].sum()))
    # non-negative eigenvalues always come first in descending order
    coords = np.zeros((n, D))
    kept = eigval[:n_keep]
    coords[:, :n_keep] = eigvec[:, :n_keep] * np.sqrt(kept)
    if n_keep < D and warn:
        warnings.warn(
            f"only {n_keep} non-negative eigenvalues for {D} requested axes; "
            "remaining coordinates zero-padded",
            RuntimeWarning,
            stacklevel=3,
        )
    retained = np.concatenate([kept, np.zeros(D - n_keep)])
    negatives = eigval[eigval < 0.0]
    total_mass = float(np.abs(eigval).sum())
    clipped_mass = float(np.abs(negatives).sum() / total_mass) if total_mass > 0 else 0.0
    return _fix_signs(coords), retained, eigval, negatives.size, clipped_mass


def classical_mds(dissim: np.ndarray, D: int, warn: bool = True) -> Embedding:
    """Torgerson MDS: double-center the squared dissimilarities, eigendecompose.

    B = -1/2 J (Z*Z) J with J = I - (1/n) 1 1'; coordinates are eigenvectors
    scaled by the square root of the top D non-negative eigenvalues.
    Negative eigenvalues (non-Euclidean input) are dropped; if fewer than D
    non-negative remain, the missing axes are zero with a warning.
    ``dissim`` is a square (epochs, epochs) matrix such as similarity_matrix's.
    """
    n = _n_epochs(dissim)
    if not 1 <= D <= n - 1:
        raise ValueError(f"D must be in 1..{n - 1}, got {D}")
    coords, retained, full, n_clipped, clipped_mass = _mds_coordinates(dissim, D, warn)
    return Embedding(
        coordinates=coords,
        eigenvalues=retained,
        D=D,
        full_eigenvalues=full,
        n_clipped=n_clipped,
        clipped_mass=clipped_mass,
    )


def embed_epochs(stack: np.ndarray, epsilon: float, dim: int, workers: int = 1) -> Embedding:
    """Power map, dissimilarity and ``dim``-axis classical MDS of an epoch stack.

    The one geometry chain behind the grid search, the state fit and the
    event trajectories.  The dissimilarity kernel power-maps each epoch as
    it packs it and never writes to its input, so no mapped copy of the
    stack is made; missing axes are zero-padded without a warning.
    ``workers`` threads run the dissimilarity kernel.
    """
    return classical_mds(similarity_matrix(stack, workers, epsilon), D=dim, warn=False)


def step_lengths(coordinates: np.ndarray) -> np.ndarray:
    """Euclidean distances between consecutive rows of a coordinate matrix."""
    return np.linalg.norm(np.diff(coordinates, axis=0), axis=1)


def dimension_fidelity(dissim: np.ndarray, dims: list[int]) -> list[tuple[int, float]]:
    """How well each low dimension reproduces the full map's local motion.

    For every requested D the length-(Fr-1) sequence of consecutive-epoch
    embedded distances is correlated (Pearson) against the same sequence at
    the reference dimension D_max = Fr-1.  Truncation is nested: dimension D
    uses the first D axes of the full embedding.  ``dissim`` is a square
    (epochs, epochs) matrix, as for classical_mds.
    """
    n = _n_epochs(dissim)
    if n < 3:
        raise NumericError(f"need at least 3 epochs, got {n}")
    return step_fidelity(_mds_coordinates(dissim, n - 1, warn=False)[0], dims)


def step_fidelity(coordinates: np.ndarray, dims: list[int]) -> list[tuple[int, float]]:
    """dimension_fidelity on a full map already computed.

    ``coordinates`` holds all Fr-1 axes of a classical MDS map of Fr epochs,
    such as ``classical_mds(dissim, Fr - 1).coordinates``.
    """
    n = coordinates.shape[0]
    if n < 3:
        raise NumericError(f"need at least 3 epochs, got {n}")
    if not dims:
        raise ValueError("dims must not be empty")
    d_max = n - 1
    for D in dims:
        if not 1 <= D <= d_max:
            raise ValueError(f"dimension {D} outside 1..{d_max}")
    diffs = np.diff(coordinates, axis=0)
    # nested truncation: cumulative squared steps along axes
    cumulative = np.cumsum(diffs * diffs, axis=1)

    def constant(seq: np.ndarray) -> bool:
        # rounding dust on a flat sequence still counts as constant
        return seq.std() <= 1e-12 * max(float(np.abs(seq).max()), 1e-300)

    reference = np.sqrt(cumulative[:, d_max - 1])
    if constant(reference):
        raise NumericError("reference step sequence is constant; correlation undefined")
    results = []
    for D in dims:
        seq = np.sqrt(cumulative[:, D - 1])
        if constant(seq):
            raise NumericError(f"step sequence at D={D} is constant; correlation undefined")
        results.append((D, float(np.corrcoef(seq, reference)[0, 1])))
    return results
