"""Dense algebra on matrices of a few rows, with no BLAS or LAPACK call.

A run calls no BLAS or LAPACK routine. The first call of ``@``,
``np.dot``, ``np.linalg.solve``, ``np.linalg.cholesky``,
``np.linalg.eigh`` or a 1-D ``np.linalg.norm`` pages OpenBLAS kernels
into the process (about 600 KB resident on an x86-64 host), yet the
solver and the filter only multiply matrices of 6x6 or smaller. So
products here are broadcast sums of elementwise products,
factorizations run on Python floats, and a distance between two points
is ``math.dist``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["matmul", "eigh3", "cholesky", "cho_solve"]

# Cyclic Jacobi sweeps of a symmetric 3x3 eigenproblem (3-4 converge).
JACOBI_SWEEPS = 10


def matmul(a, b):
    """a @ b for a 2-D a and a 1-D or 2-D b, summed term by term."""
    if b.ndim == 1:
        return (a * b).sum(axis=-1)
    return (a[:, :, None] * b[None, :, :]).sum(axis=1)


def eigh3(matrix):
    """Eigenvalues (ascending) and eigenvectors (columns) of a symmetric 3x3.

    Cyclic Jacobi rotations on Python floats.
    """
    a = np.asarray(matrix, float).tolist()
    v = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    for _ in range(JACOBI_SWEEPS):
        if abs(a[0][1]) + abs(a[0][2]) + abs(a[1][2]) <= 1e-16 * (
            abs(a[0][0]) + abs(a[1][1]) + abs(a[2][2])
        ):
            break
        for p, q, r in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            apq = a[p][q]
            if apq == 0.0:
                continue
            # The rotation in the (p, q) plane that zeroes a[p][q].
            theta = (a[q][q] - a[p][p]) / (2.0 * apq)
            t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
            c = 1.0 / math.hypot(t, 1.0)
            s = t * c
            arp, arq = a[r][p], a[r][q]
            a[p][p] -= t * apq
            a[q][q] += t * apq
            a[p][q] = a[q][p] = 0.0
            a[r][p] = a[p][r] = c * arp - s * arq
            a[r][q] = a[q][r] = s * arp + c * arq
            for row in v:
                row[p], row[q] = c * row[p] - s * row[q], s * row[p] + c * row[q]
    w = [a[0][0], a[1][1], a[2][2]]
    order = sorted(range(3), key=w.__getitem__)  # stable: equal values keep their order
    return np.array([w[i] for i in order]), np.array(v)[:, order]


def cholesky(matrix) -> list[list[float]]:
    """Lower Cholesky factor L (L L^T = matrix) of a symmetric matrix.

    Reads the lower triangle, on Python floats. Raises ValueError when a
    pivot is not positive: the matrix is not positive-definite.
    """
    a = np.asarray(matrix, float).tolist()
    n = len(a)
    low = [[0.0] * n for _ in range(n)]
    for j in range(n):
        pivot = a[j][j]
        for k in range(j):
            pivot -= low[j][k] ** 2
        if not pivot > 0.0:  # also NaN
            raise ValueError("matrix is not positive-definite")
        low[j][j] = d = math.sqrt(pivot)
        for i in range(j + 1, n):
            t = a[i][j]
            for k in range(j):
                t -= low[i][k] * low[j][k]
            low[i][j] = t / d
    return low


def cho_solve(low, b) -> list:
    """x with L L^T x = b, by forward and back substitution.

    low is a factor from cholesky; b's rows may be floats or arrays, and
    x comes back as a list of rows of the same kind (b is not written).
    """
    n = len(low)
    x = list(b)
    for i in range(n):  # L y = b
        for k in range(i):
            x[i] = x[i] - low[i][k] * x[k]
        x[i] = x[i] / low[i][i]
    for i in reversed(range(n)):  # L^T x = y
        for k in range(i + 1, n):
            x[i] = x[i] - low[k][i] * x[k]
        x[i] = x[i] / low[i][i]
    return x
