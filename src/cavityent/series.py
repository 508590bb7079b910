"""Power series in the acceleration parameter h, truncated after second order.

A series is a plain array with the h^0, h^1 and h^2 parts on its leading
axis: shape (3,) for a scalar series, (3, n, n) for a matrix series, and
(3, ..., n, n) for a stack of matrix series (one per grid point u), the
stack axes riding between the order axis and the matrix axes.  Products
silently drop h^3 and higher.
"""

from __future__ import annotations

import numpy as np

N_ORDERS = 3


def cauchy(a, b, mul=np.multiply) -> np.ndarray:
    """Product of two order stacks, truncated after h^2, or after h^1 when
    either stack stops there.

    ``a`` and ``b`` carry the orders on their leading axis; ``mul`` combines
    one order of each (elementwise by default, ``np.matmul`` for matrices),
    broadcasting over every other axis.
    """
    out = [mul(a[0], b[0]), mul(a[0], b[1]) + mul(a[1], b[0])]
    if min(len(a), len(b)) == N_ORDERS:
        out.append(mul(a[0], b[2]) + mul(a[1], b[1]) + mul(a[2], b[0]))
    return np.stack(out)
