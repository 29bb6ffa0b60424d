"""Dense algebra on matrices of a few rows, with no BLAS or LAPACK call.

A run calls no BLAS or LAPACK routine. The first call of ``@``,
``np.dot``, ``np.linalg.solve``, ``np.linalg.cholesky``,
``np.linalg.eigh`` or a 1-D ``np.linalg.norm`` pages OpenBLAS kernels
into the process (about 600 KB resident on an x86-64 host), yet the
solver and the filter only multiply matrices of 6x6 or smaller. So
products here are broadcast sums of elementwise products, the one
factorization, the symmetric 3x3 eigensolver ``eigh3``, runs on Python
floats, and a distance between two points is ``math.dist``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["matmul", "eigh3"]

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
