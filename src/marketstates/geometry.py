"""Epoch-pair dissimilarity and its low-dimensional map.

Two epochs are compared by the mean absolute difference of their correlation
matrices, element by element.  The kernel computes it in fixed point: each
epoch's packed entries are rounded to int16 at one scale per call, the sums
are exact integers, and each distance is within width / (scale N^2) of the
float64 value.  Classical (Torgerson) multidimensional scaling turns the
resulting dissimilarity matrix into coordinates, so that each epoch becomes
one point and market history becomes a trajectory through that map.

Two solvers give the map's axes, and ``_mds`` picks between them for every
map: under ``LANCZOS_MIN_EPOCHS`` epochs ``classical_mds`` decomposes the
whole double-centred matrix, and from there on ``_leading_mds`` takes the
leading axes from Lanczos iterations, which agree with the full
decomposition to about 1e-12 of the largest coordinate and cost a few dozen
matrix-vector products instead of an (epochs, epochs) eigenvector matrix.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .corrmat import EpochCorrelationSeries, _check_epsilon, _epochs_per_chunk, _kernel_copy
from .errors import NumericError


@dataclass
class Embedding:
    """Classical MDS coordinates, one row per epoch, and the axes' eigenvalues.

    ``eigenvalues`` are non-negative and descending; padded axes carry
    eigenvalue 0.  The first d axes of a ``classical_mds`` map at D are the
    bytes of the map at d.
    """

    coordinates: np.ndarray
    eigenvalues: np.ndarray


def _l1_rows(X: np.ndarray, sums: np.ndarray, out: np.ndarray, first: int, step: int,
             buf: np.ndarray) -> None:
    """Upper-triangle rows of ``out`` by chunks first, first + step, ... of len(buf) rows.

    Entry (i, j), j > i, is sum |X[i] - X[j]| = 2 sum max(X[i], X[j]) - sums[i] - sums[j],
    with ``sums`` the row sums of int16 X.  A chunk of rows a .. a+R-1 meets
    rows a+d .. a+d+R-1 in one flat maximum into ``buf`` for each offset d,
    and the int32 row sums go to the d-th diagonal of ``out``.  Every sum is
    an exact integer, so no entry depends on the chunks.
    """
    n, R = len(X), len(buf)
    diagonals = out.reshape(-1)  # (i, i + d) sits at i (n + 1) + d
    for a in range(first * R, n - 1, step * R):
        for d in range(1, n - a):
            m = min(R, n - a - d)  # the chunk's rows that have a row d after them
            np.maximum(X[a + d:a + d + m], X[a:a + m], out=buf[:m])
            buf[:m].sum(axis=1, dtype=np.int32, out=diagonals[a * (n + 1) + d::n + 1][:m])
        for i in range(a, min(a + R, n - 1)):
            row = out[i, i + 1:]
            row *= 2.0
            row -= sums[i]
            row -= sums[i + 1:]


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def similarity_matrix(epochs: EpochCorrelationSeries, workers: int = 1,
                      epsilon: float = 0.0) -> np.ndarray:
    """Mean absolute element-wise difference between every pair of power-mapped epochs.

    Takes an EpochCorrelationSeries (anything else is a TypeError) and
    returns the symmetric (epochs, epochs) dissimilarity matrix with a zero
    diagonal.  The mean runs over all N^2 ordered entries, diagonal included
    (diagonal differences are zero for raw correlation matrices, so they
    only dilute by a constant factor).  Each epoch is compared after the
    power map at ``epsilon`` (0 leaves it as it is), with the bits of
    ``similarity_matrix`` of a series that holds the mapped epochs.

    Packed rows enter a series unchecked, so at any epsilon, 0 included, an
    epoch that is non-finite after the power map is a NumericError before
    any pair is compared.  The kernel sums over
    one packed copy of the upper triangles and diagonals, at any epsilon.
    It pairs each chunk of about 512 KB of rows with the rows d after it,
    offset by offset, through one buffer per thread: the chunk stays in
    cache while later rows stream past.

    The kernel compares int16 rows: ``corrmat._kernel_copy`` centres each
    packed column on its midrange and rounds it at one scale, so that the
    widest column spans -qmax .. qmax with qmax = min(32767, (2^31 - 1) //
    width) for width = N(N+1)/2.  Each pair uses |a - b| = 2 max(a, b) - a -
    b: the rows are summed once in int64, the maxima of a pair in int32, and
    both sums are exact.  A distance is that integer divided by scale * N^2
    once, so it is within width / (scale * N^2) of the float64 value: each
    entry's rounding moves it by at most half a unit, and a pair has two.
    That bound is about 1/qmax of the widest column's half-range: 3e-5 up to
    N = 361, then growing as about N^2 / 2^32 (2.3e-4 at N = 1000, 2.1e-3 at
    N = 3000); past N = 4 103, where qmax would fall below
    ``corrmat.QMAX_FLOOR``, the call is a NumericError.  Identical epochs
    give exactly 0, no entry is negative and the triangle inequality holds
    in the integers.

    ``workers`` (at least 1) threads share the int16 copy; chunk c goes to
    thread c mod threads, with one thread per chunk at most.  Every sum is
    exact, so the result is bit-identical for any chunking and thread count.
    """
    _check_workers(workers)
    _check_epsilon(epsilon)
    if not isinstance(epochs, EpochCorrelationSeries):
        raise TypeError(f"expected an EpochCorrelationSeries, got {type(epochs).__name__}")
    n, N = epochs.n_epochs, epochs.n_labels
    width = epochs.packed_width
    if n < 2:
        raise NumericError(f"need at least 2 epochs, got {n}")
    # each thread's chunk of about 2^18 int16 (512 KB) and its buffer stay in cache
    block = min(_epochs_per_chunk(2 * width), n - 1)
    threads = min(workers, -(-(n - 1) // block))  # at most one thread per chunk
    out = np.zeros((n, n))  # below the blocks freed before it is returned
    # one block for the copy and every buffer: glibc trims a heap whose free top
    # passes twice its largest freed block, as an event window's separate blocks did
    whole = np.empty((n + threads * block, width), dtype=np.int16)
    X = whole[:n]
    scale = _kernel_copy(epochs, X, epsilon)
    bufs = [whole[n + t * block:n + (t + 1) * block] for t in range(threads)]
    sums = X.sum(axis=1, dtype=np.int64).astype(float)  # exact: each is under 2^31
    if threads == 1:
        _l1_rows(X, sums, out, 0, 1, bufs[0])
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            # reading every result re-raises a worker's exception here
            list(pool.map(lambda t: _l1_rows(X, sums, out, t, threads, bufs[t]), range(threads)))
    del whole, X, bufs  # freed before out + out.T below takes its temporary
    out /= scale * N * N
    # out + out.T by blocks of about 512 KB of rows, with no (epochs, epochs) temporary
    step = _epochs_per_chunk(8 * n)
    for i0 in range(0, n, step):
        out[i0:i0 + step] += out[:, i0:i0 + step].T
    return out


def _n_epochs(dissim: np.ndarray) -> int:
    """Side length of a square dissimilarity matrix (its ``size`` is the square)."""
    if dissim.ndim != 2 or dissim.shape[0] != dissim.shape[1]:
        raise ValueError(f"dissimilarities must be a square matrix, got shape {dissim.shape}")
    return dissim.shape[0]


def _double_center(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """-1/2 J (Z*Z) J, built in the one (n, n) array that holds Z*Z: ``out``, or a new one."""
    B = np.multiply(values, values, out=out)
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


def _check_dim(n: int, D: int) -> None:
    if not 1 <= D <= n - 1:
        raise ValueError(f"D must be in 1..{n - 1}, got {D}")


def _axes(vectors: np.ndarray, columns: np.ndarray, values: np.ndarray, D: int) -> Embedding:
    """``D`` map axes: eigenvector ``columns`` scaled by the square roots of their ``values``.

    ``values`` are the kept eigenvalues, non-negative and descending, at
    most D of them; the axes past them are zero, with eigenvalue 0.
    """
    coords = np.zeros((len(vectors), D))
    np.multiply(vectors[:, columns], np.sqrt(values), out=coords[:, :len(columns)])
    return Embedding(coordinates=_fix_signs(coords),
                     eigenvalues=np.concatenate([values, np.zeros(D - len(values))]))


def classical_mds(dissim: np.ndarray, D: int) -> Embedding:
    """Torgerson MDS: double-center the squared dissimilarities, eigendecompose.

    B = -1/2 J (Z*Z) J with J = I - (1/n) 1 1'; coordinates are eigenvectors
    scaled by the square root of the top D non-negative eigenvalues.
    Negative eigenvalues (non-Euclidean input) are dropped; if fewer than D
    non-negative remain, the missing axes are zero, with eigenvalue 0.  The
    whole spectrum is computed, so ``_mds`` takes the axes of a large map
    from ``_leading_mds`` instead.  ``dissim`` is a square (epochs, epochs)
    matrix such as similarity_matrix's; it is not written to.
    """
    n = _n_epochs(dissim)
    _check_dim(n, D)
    eigval, eigvec = np.linalg.eigh(_double_center(dissim))
    order = np.argsort(eigval)[::-1][:D]
    # non-negative eigenvalues always come first in descending order
    n_keep = int((eigval[order] >= 0.0).sum())
    return _axes(eigvec, order[:n_keep], eigval[order[:n_keep]], D)


def _clipped(dissim: np.ndarray) -> tuple[int, float]:
    """How non-Euclidean ``dissim`` is: its double-centred spectrum's negative part.

    Returns the count of eigenvalues below -n eps max|eigenvalue| (the
    tolerance of ``np.linalg.matrix_rank``, so rounding noise is not
    counted) and their share of the total |eigenvalue| mass.  The
    eigenvalues come from one ``eigvalsh``, with no eigenvectors; ``dissim``
    is double-centred in its own buffer, which it overwrites.
    """
    eigval = np.linalg.eigvalsh(_double_center(dissim, out=dissim))
    magnitude = np.abs(eigval)
    total = float(magnitude.sum())
    negatives = eigval[eigval < -len(eigval) * np.finfo(float).eps * magnitude.max()]
    return negatives.size, float(np.abs(negatives).sum() / total) if total > 0 else 0.0


#: ``embed_epochs`` maps of at least this many epochs take their axes from
#: ``_leading_mds``.  Below it a full decomposition is cheap, and on the
#: event windows' catalog threads Lanczos was no faster and held more memory.
LANCZOS_MIN_EPOCHS = 256
# a wanted Ritz pair is converged at a residual of this times the largest |Ritz value|
_LANCZOS_TOL = 1e-13
# a new Lanczos direction this small against |T| closes its block: the basis is invariant
_LANCZOS_BREAKDOWN = 1e-12


def _tridiagonal(diagonal: list[float], off: list[float]) -> np.ndarray:
    return np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1)


def _lanczos(matvec, n: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``count`` largest eigenvalues of a symmetric B, descending, and their eigenvectors.

    B is n x n and known by ``matvec(q)``, a new array holding B q.

    Single-vector Lanczos from a fixed seeded start, every new direction
    orthogonalized twice against the whole basis, so the tridiagonal T is
    B's projection onto the basis to rounding.  The wanted Ritz pairs are
    converged when each residual, |beta s_last|, is within _LANCZOS_TOL of
    the largest |Ritz value|; at basis size n they are exact.

    A step whose new direction vanishes has found an invariant subspace: its
    block closes and a fresh seeded vector orthogonal to the basis opens the
    next one, since a single start reaches one vector of each eigenspace.
    After a closed block, the run ends only once a later block's largest
    Ritz value is converged and adds no wanted value, so an eigenvalue
    repeated in the rank-deficient maps of repeated epochs is found as
    often as it occurs.  An eigenvalue repeated in a spectrum with no small
    invariant subspace is found once, as by any single-vector method.
    """
    rng = np.random.default_rng(0)
    Q = np.empty((min(n, 64), n))  # the orthonormal basis, one row per vector
    alpha: list[float] = []  # T's diagonal
    beta: list[float] = []  # T's off-diagonal, 0 where a block closed
    start = 0  # the first vector of the open block
    bound = 0.0  # the largest row sum of |T| so far: a scale for a vanishing direction
    q = rng.standard_normal(n)
    while True:
        m = len(alpha)
        if m == len(Q):
            Q = np.concatenate([Q, np.empty((min(n, 2 * m) - m, n))])
        Q[m] = q / np.linalg.norm(q)
        w = matvec(Q[m])
        alpha.append(float(Q[m] @ w))
        for _ in range(2):  # twice is enough: the second pass removes what rounding left
            w -= Q[:m + 1].T @ (Q[:m + 1] @ w)
        b = float(np.linalg.norm(w))
        m += 1
        bound = max(bound, abs(alpha[-1]) + b + (beta[-1] if beta else 0.0))
        closed = m == n or b <= _LANCZOS_BREAKDOWN * bound
        # T's eigenpairs every 4 steps: they cost more than a step on a small map
        if m >= count and (closed or (m - count) % 4 == 0):
            theta, S = np.linalg.eigh(_tridiagonal(alpha, beta))
            top = np.arange(m - 1, m - 1 - count, -1)
            tol = _LANCZOS_TOL * np.abs(theta).max()
            # in a closed block each Ritz pair's residual is below b
            if closed or (b * np.abs(S[-1, top]) <= tol).all():
                if m == n or (start == 0 and not closed):
                    break
                if start > 0:
                    rho, s = np.linalg.eigh(_tridiagonal(alpha[start:], beta[start:]))
                    if ((closed or b * abs(s[-1, -1]) <= tol)
                            and (rho[-1] <= tol or rho[-1] < theta[top[-1]] - tol)):
                        break
        if closed:
            beta.append(0.0)
            q = rng.standard_normal(n)
            for _ in range(2):
                q -= Q[:m].T @ (Q[:m] @ q)
            start = m
        else:
            beta.append(b)
            q = w
    return theta[top], Q[:m].T @ S[:, top]


def _leading_mds(dissim: np.ndarray, D: int) -> Embedding:
    """classical_mds's ``D`` axes from ``_lanczos``, without the whole spectrum.

    The coordinates agree with classical_mds(dissim, D) to about 1e-12 of
    the largest coordinate, up to a rotation within an axis whose
    eigenvalue is repeated.  A negative leading eigenvalue gives a zero
    axis, as in classical_mds.
    """
    n = _n_epochs(dissim)
    _check_dim(n, D)
    squared = dissim * dissim

    def centred(q):  # B q = -1/2 J (Z*Z) J q, with no centred (n, n) copy
        w = squared @ (q - q.mean())
        w -= w.mean()
        w *= -0.5
        return w

    values, vectors = _lanczos(centred, n, D)
    n_keep = int((values >= 0.0).sum())  # descending: the non-negative ones come first
    return _axes(vectors, np.arange(n_keep), values[:n_keep], D)


def _mds(dissim: np.ndarray, D: int) -> Embedding:
    """The ``D``-axis map that every caller takes.

    It is classical_mds's under LANCZOS_MIN_EPOCHS epochs and _leading_mds's
    from there on, so no large map makes a full eigendecomposition.
    """
    return (classical_mds if len(dissim) < LANCZOS_MIN_EPOCHS else _leading_mds)(dissim, D)


def embed_epochs(epochs: EpochCorrelationSeries, epsilon: float, dim: int,
                 workers: int = 1) -> Embedding:
    """Power map, dissimilarity and ``dim``-axis classical MDS of an epoch series.

    The one geometry chain behind the grid search, the state fit and the
    event trajectories.  The dissimilarity kernel power-maps each epoch as
    it copies it and never writes to its input, so no mapped copy of the
    series is made; missing axes are zero-padded, as in classical_mds.
    The axes come from ``_mds``.  ``workers`` threads run the dissimilarity
    kernel.  ``epochs`` is an EpochCorrelationSeries, as for
    similarity_matrix.
    """
    return _mds(similarity_matrix(epochs, workers, epsilon), dim)


def step_fidelity(coordinates: np.ndarray, steps: np.ndarray,
                  dims: list[int]) -> list[tuple[int, float]]:
    """How well each low dimension of a map reproduces a reference of its local motion.

    ``coordinates`` is a classical MDS map of Fr epochs with at least
    max(dims) axes, and ``steps`` the Fr-1 reference lengths between
    consecutive epochs: the measured dissimilarities ``np.diagonal(dissim,
    1)``, or the step lengths of the full (Fr-1)-axis map.  For every
    requested D the length-(Fr-1) sequence of consecutive-epoch embedded
    distances on the map's first D axes is correlated (Pearson) against
    ``steps``.
    """
    n, width = coordinates.shape
    if n < 3:
        raise NumericError(f"need at least 3 epochs, got {n}")
    if np.shape(steps) != (n - 1,):
        raise ValueError(f"steps must hold {n - 1} lengths, got shape {np.shape(steps)}")
    if not dims:
        raise ValueError("dims must not be empty")
    for D in dims:
        if not 1 <= D <= width:
            raise ValueError(f"dimension {D} outside 1..{width}")
    diffs = np.diff(coordinates[:, :max(dims)], axis=0)
    # nested truncation: cumulative squared steps along axes
    cumulative = np.cumsum(diffs * diffs, axis=1)

    def constant(seq: np.ndarray) -> bool:
        # rounding dust on a flat sequence still counts as constant
        return seq.std() <= 1e-12 * max(float(np.abs(seq).max()), 1e-300)

    if constant(steps):
        raise NumericError("reference step sequence is constant; correlation undefined")
    results = []
    for D in dims:
        seq = np.sqrt(cumulative[:, D - 1])
        if constant(seq):
            raise NumericError(f"step sequence at D={D} is constant; correlation undefined")
        results.append((D, float(np.corrcoef(seq, steps)[0, 1])))
    return results
