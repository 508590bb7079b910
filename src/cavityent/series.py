"""Power series in the acceleration parameter h, truncated after second order.

Everything downstream works order by order, so the containers here only keep
the h^0, h^1 and h^2 parts and silently drop h^3 and higher on multiplication.
Orders always sit on the leading axis; any axes after it ride along, so one
container can hold a whole stack of matrices (one per grid point u).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

N_ORDERS = 3


def _coerce(data: object) -> np.ndarray:
    arr = np.asarray(data, dtype=complex)
    if arr.ndim == 0 or arr.shape[0] != N_ORDERS:
        raise ValueError(f"expected a leading axis of length {N_ORDERS}, got shape {arr.shape}")
    return arr


def cauchy(a, b, mul=np.multiply) -> np.ndarray:
    """Product of two order stacks, truncated after h^2.

    ``a`` and ``b`` carry the orders on their leading axis; ``mul`` combines
    one order of each (elementwise by default, ``np.matmul`` for matrices),
    broadcasting over every other axis.
    """
    return np.stack([
        mul(a[0], b[0]),
        mul(a[0], b[1]) + mul(a[1], b[0]),
        mul(a[0], b[2]) + mul(a[1], b[1]) + mul(a[2], b[0]),
    ])


def diagonal_stack(g) -> np.ndarray:
    """Diagonal matrices with the last axis of ``g`` on their diagonals."""
    g = np.asarray(g)
    out = np.zeros(g.shape + g.shape[-1:], dtype=g.dtype)
    idx = np.arange(g.shape[-1])
    out[..., idx, idx] = g
    return out


@dataclass(frozen=True)
class H2Series:
    """Scalar series c[0] + c[1] h + c[2] h^2.

    The payload may also be an array, in which case the arithmetic is
    elementwise on every order.
    """

    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", _coerce(self.c))

    @classmethod
    def of(cls, c0=0.0, c1=0.0, c2=0.0) -> "H2Series":
        return cls(np.array([c0, c1, c2], dtype=complex))

    @classmethod
    def zero(cls) -> "H2Series":
        return cls.of()

    def order(self, k: int):
        return self.c[k]

    def __add__(self, other) -> "H2Series":
        other = other if isinstance(other, H2Series) else H2Series.of(other)
        return H2Series(self.c + other.c)

    __radd__ = __add__

    def __sub__(self, other) -> "H2Series":
        other = other if isinstance(other, H2Series) else H2Series.of(other)
        return H2Series(self.c - other.c)

    def __rsub__(self, other) -> "H2Series":
        return (H2Series.of(other) if not isinstance(other, H2Series) else other) - self

    def __neg__(self) -> "H2Series":
        return H2Series(-self.c)

    def __mul__(self, other) -> "H2Series":
        if not isinstance(other, H2Series):
            return H2Series(self.c * other)
        return H2Series(cauchy(self.c, other.c))

    __rmul__ = __mul__

    def conj(self) -> "H2Series":
        return H2Series(np.conj(self.c))

    def abs2(self) -> "H2Series":
        """|self|^2 as a series, again truncated at second order."""
        return self * self.conj()

    def __call__(self, h: float):
        return self.c[0] + self.c[1] * h + self.c[2] * h * h


@dataclass(frozen=True)
class H2Matrix:
    """Matrix series data[0] + data[1] h + data[2] h^2 with truncating products.

    ``data`` has shape (3, n, m), or (3, ..., n, m) for a stack of matrix
    series sharing the same orders.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = _coerce(self.data)
        if arr.ndim < 3:
            raise ValueError(f"expected shape (3, ..., n, m), got {arr.shape}")
        object.__setattr__(self, "data", arr)

    @classmethod
    def from_orders(cls, o0, o1, o2) -> "H2Matrix":
        return cls(np.stack([np.asarray(o, dtype=complex) for o in (o0, o1, o2)]))

    @classmethod
    def identity(cls, n: int) -> "H2Matrix":
        eye = np.eye(n, dtype=complex)
        zero = np.zeros_like(eye)
        return cls.from_orders(eye, zero, zero)

    @classmethod
    def zeros(cls, n: int, m: int | None = None) -> "H2Matrix":
        m = n if m is None else m
        return cls(np.zeros((N_ORDERS, n, m), dtype=complex))

    @classmethod
    def diagonal(cls, g, order: int = 0) -> "H2Matrix":
        d = diagonal_stack(np.asarray(g, dtype=complex))
        out = np.zeros((N_ORDERS,) + d.shape, dtype=complex)
        out[order] = d
        return cls(out)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape[1:]

    def order(self, k: int) -> np.ndarray:
        return self.data[k]

    def __add__(self, other: "H2Matrix") -> "H2Matrix":
        return H2Matrix(self.data + other.data)

    def __sub__(self, other: "H2Matrix") -> "H2Matrix":
        return H2Matrix(self.data - other.data)

    def __neg__(self) -> "H2Matrix":
        return H2Matrix(-self.data)

    def __mul__(self, scalar) -> "H2Matrix":
        if isinstance(scalar, H2Series):
            return H2Matrix(cauchy(scalar.c, self.data))
        return H2Matrix(self.data * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other: "H2Matrix") -> "H2Matrix":
        return H2Matrix(cauchy(self.data, other.data, np.matmul))

    def conj(self) -> "H2Matrix":
        return H2Matrix(np.conj(self.data))

    def transpose(self) -> "H2Matrix":
        return H2Matrix(np.swapaxes(self.data, -1, -2))

    @property
    def T(self) -> "H2Matrix":
        return self.transpose()

    @property
    def H(self) -> "H2Matrix":
        return self.conj().transpose()

    def __call__(self, h: float) -> np.ndarray:
        return self.data[0] + h * self.data[1] + h * h * self.data[2]

    def max_abs(self) -> np.ndarray:
        """Largest entry magnitude of each order, handy for residual reports."""
        return np.max(np.abs(self.data), axis=tuple(range(1, self.data.ndim)))
