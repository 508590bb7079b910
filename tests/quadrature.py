"""The junction overlap quadrature in plain expressions, the bit-for-bit
reference of the suite.

:mod:`cavityent.oracles` fills its trig tables in place, reuses their
buffers across the h ladder and runs the cos products before the sin ones,
so that few tables are alive at once.  Here every table is a fresh array and
every h forms its products in one step, as the expressions read.  Both
orders must give identical bits: the junction's h^1 and h^2 blocks are
differences of overlaps that agree to about 1e-4, so even rounding noise in
the overlaps moves sweep rows far beyond rounding.

The Gauss-Legendre rule comes from numpy.polynomial, which the package
itself never imports.
"""

from __future__ import annotations

import numpy as np


def panels(n_panels: int):
    """Composite 12-point Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(12)
    edges = np.linspace(0.0, 1.0, n_panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    return (mid[:, None] + half[:, None] * x[None, :]).ravel(), (half[:, None] * w[None, :]).ravel()


def boson_tables(ladder, n_max: int, n_panels: int) -> np.ndarray:
    """(alpha, beta) of every (a, r, L) of ``ladder``, shape (2, len(ladder), n, n)."""
    xi, wi = panels(n_panels)
    n = np.arange(1, n_max + 1)
    inertial = np.sin(np.pi * np.outer(n, xi))
    inv_root = 1.0 / np.sqrt(n)
    col = n[None, :].astype(float)
    out = np.empty((2, len(ladder), n_max, n_max))
    for k, (a, r, big_l) in enumerate(ladder):
        x = a * (1.0 + r * xi)
        ell = np.log1p(r * xi)
        rindler = np.sin(np.pi * np.outer(n, ell) / big_l)
        p = (rindler * wi) @ inertial.T
        q = (rindler * (wi / x)) @ inertial.T
        row = n[:, None] / big_l
        out[0, k] = inv_root[:, None] * (col * p + row * q) * inv_root[None, :]
        out[1, k] = inv_root[:, None] * (col * p - row * q) * inv_root[None, :]
    return out


def fermion_tables(ladder, n_max: int, n_panels: int) -> np.ndarray:
    """Overlap matrix of every (a, r, L) of ``ladder``, shape
    (len(ladder), 2 n_max, 2 n_max), from the kappa >= 0 trig tables and the
    sign blocks C + S and C - S."""
    xi, wi = panels(n_panels)
    omega = (np.arange(n_max) + 0.5) * np.pi
    cos_i = np.cos(np.outer(omega, xi))
    sin_i = np.sin(np.outer(omega, xi))
    out = np.empty((len(ladder), 2 * n_max, 2 * n_max))
    for k, (a, r, big_l) in enumerate(ladder):
        x = a * (1.0 + r * xi)
        ell = np.log1p(r * xi)
        phase = np.outer(omega / big_l, ell)
        weight = wi / np.sqrt(big_l * x)
        c = (np.cos(phase) * weight) @ cos_i.T
        s = (np.sin(phase) * weight) @ sin_i.T
        same, differ = c + s, c - s
        out[k] = np.block([[same[::-1, ::-1], differ[::-1, :]], [differ[:, ::-1], same]])
    return out
