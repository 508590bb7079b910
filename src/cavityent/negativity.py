"""Two-mode entanglement of travelled states.

Two independent routes to the same number.  The numeric route takes the
reduced density matrix orders from :mod:`cavityent.states`, evaluates them at
small finite h, partially transposes and sums the negative part of the
spectrum; the leading power and coefficient are then recovered from a probe
ladder.  The closed route evaluates the perturbative eigenvalue formulas of
the negative blocks directly from the transformation matrices and returns the
negativity series without ever building a density matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import states
from .bogoliubov import InvariantViolation
from .series import cauchy

PROBES = (1e-2, 5e-3, 2.5e-3)
HERMITICITY_TOL = 1e-10
# relative floor under which partially transposed eigenvalues count as zero
EIGENVALUE_FLOOR = 1e-12
# below this a first-order coherence is a parity zero, not a leading term
FIRST_ORDER_FLOOR = 1e-9

_SQRT2 = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# numeric route


def partial_transpose(rho: np.ndarray, d: int) -> np.ndarray:
    """Transpose the second factor of a (d*d, d*d) matrix (or stack thereof)."""
    shape = rho.shape
    r = rho.reshape(shape[:-2] + (d, d, d, d))
    return np.swapaxes(r, -3, -1).reshape(shape)


def negativity_at(rho_orders: np.ndarray, h: float, herm_tol: float = HERMITICITY_TOL) -> float:
    """Negativity of the reduced matrix evaluated at acceleration h."""
    rho = np.polynomial.polynomial.polyval(h, rho_orders)
    drift = float(np.max(np.abs(rho - rho.conj().T)))
    if drift > herm_tol:
        raise InvariantViolation(f"reduced matrix drifts from Hermitian by {drift:.3e}")
    d = int(round(np.sqrt(rho.shape[-1])))
    eig = np.linalg.eigvalsh(partial_transpose(rho, d))
    floor = -EIGENVALUE_FLOOR * float(np.sum(np.abs(eig)))
    return float(-eig[eig < floor].sum())


@dataclass(frozen=True)
class LeadingOrder:
    """Leading small-h behaviour coefficient * h**power of a negativity."""

    power: int
    coefficient: float
    converged: bool
    slope: float | None = None


def leading_order(rho_orders: np.ndarray, probes=PROBES) -> LeadingOrder:
    """Fit the leading power on a probe ladder and refine the coefficient.

    The power is the rounded log-log slope and is only trusted when the raw
    slope sits within 0.05 of it; the coefficient is Richardson-extrapolated
    from the two smallest probes, which cancels the next order exactly for a
    ratio-2 ladder.
    """
    probes = np.asarray(sorted(probes, reverse=True), dtype=float)
    values = np.array([negativity_at(rho_orders, h) for h in probes])
    if np.max(np.abs(values)) < 1e-12:
        return LeadingOrder(power=0, coefficient=0.0, converged=True)
    if np.min(values) <= 0.0:
        return LeadingOrder(power=0, coefficient=0.0, converged=False)
    slope = float(np.polyfit(np.log(probes), np.log(values), 1)[0])
    power = int(round(slope))
    scaled = values / probes**power
    coefficient = float(2.0 * scaled[-1] - scaled[-2])
    return LeadingOrder(
        power=power,
        coefficient=coefficient,
        converged=abs(slope - power) <= 0.05,
        slope=slope,
    )


def leading_from_series(series: np.ndarray, floor: float = 1e-12) -> LeadingOrder:
    c = np.asarray(series, dtype=float)
    if abs(c[1]) > floor:
        return LeadingOrder(power=1, coefficient=float(c[1]), converged=True)
    if abs(c[2]) > floor:
        return LeadingOrder(power=2, coefficient=float(c[2]), converged=True)
    return LeadingOrder(power=0, coefficient=0.0, converged=True)


# ---------------------------------------------------------------------------
# closed route, shared pieces
#
# Every closed form accepts one transformation or a stack of them (one per
# grid point u) and returns the series with the orders on the last axis,
# shape (..., 3).  A curve that vanishes identically returns zeros(3), which
# broadcasts over any stack.


def _pt_block(d1, d2, x) -> np.ndarray:
    """Negativity series of a 2x2 transposed block [[d1 h^2, x], [conj x, d2 h^2]].

    With a first-order coherence the block is negative for any small h; when
    parity kills x[1] the block only opens at second order and may stay
    positive, in which case the series is zero.
    """
    x1 = np.abs(x[1])
    linear = x1 > FIRST_ORDER_FLOOR
    with np.errstate(divide="ignore", invalid="ignore"):
        opened = (np.conj(x[1]) * x[2]).real / x1 - 0.5 * (d1 + d2)
    root = np.sqrt(0.25 * (d1 - d2) ** 2 + np.abs(x[2]) ** 2)
    closed = np.maximum(0.0, root - 0.5 * (d1 + d2))
    return np.stack(
        [np.zeros_like(x1), np.where(linear, x1, 0.0), np.where(linear, opened, closed)],
        axis=-1,
    )


def _others(labels, pair):
    return [i for i, m in enumerate(labels) if m not in pair]


def _weight(x: np.ndarray) -> np.ndarray:
    """Summed squared magnitude over the last axis."""
    return np.sum(np.abs(x) ** 2, axis=-1)


# ---------------------------------------------------------------------------
# closed route, bosons


def boson_vacuum_closed(t, pair) -> np.ndarray:
    """Negativity series of the travelled vacuum on a mode pair."""
    k, kp = (int(m) for m in pair)
    v = states.boson_pair_matrix(t)
    labels = [int(m) for m in t.modes]
    ik, ikp = labels.index(k), labels.index(kp)
    rest = _others(labels, (k, kp))
    a_k = _weight(v[1][..., ik, rest])
    a_kp = _weight(v[1][..., ikp, rest])
    n = states.boson_norm_factor(v)
    x = cauchy(cauchy(n, n), v[:, ..., ik, ikp])
    series = _pt_block(a_k, a_kp, x)
    # the (2,0)|(0,2) block closes on the double-pair amplitude
    series[..., 2] += np.abs(v[1][..., ik, ikp]) ** 2
    return series


def boson_particle_closed(t, k: int, pair) -> np.ndarray:
    """Negativity series of a travelled one-particle state on (k, partner)."""
    k = int(k)
    pk, pkp = (int(m) for m in pair)
    if k not in (pk, pkp):
        raise ValueError("closed form expects the excited mode in the observed pair")
    kp = pkp if k == pk else pk
    v = states.boson_pair_matrix(t)
    d = states.boson_source_matrix(t, v)
    n = states.boson_norm_factor(v)
    labels = [int(m) for m in t.modes]
    ik, ikp = labels.index(k), labels.index(kp)
    rest = _others(labels, (k, kp))
    g = np.diagonal(t.alpha[0], axis1=-2, axis2=-1)

    amp_k = cauchy(n, d[:, ..., ik, ik])
    amp_kp = cauchy(n, d[:, ..., ikp, ik])
    amp_21 = _SQRT2 * cauchy(amp_k, v[:, ..., ik, ikp])
    p = cauchy(amp_k, np.conj(amp_kp))
    q = cauchy(amp_k, np.conj(amp_21))

    d1 = _weight(v[1][..., ikp, rest])
    d2 = _weight(d[1][..., rest, ik])
    d3 = 2.0 * _weight(v[1][..., ik, rest])
    e2 = _SQRT2 * g[..., ik] * np.sum(d[1][..., rest, ik] * np.conj(v[1][..., ik, rest]), axis=-1)

    s2 = np.abs(p[1]) ** 2 + np.abs(q[1]) ** 2
    linear = np.sqrt(s2) > FIRST_ORDER_FLOOR
    s3 = 2.0 * (np.conj(p[1]) * p[2] + np.conj(q[1]) * q[2]).real
    cross = 2.0 * (e2 * p[1] * np.conj(q[1])).real
    with np.errstate(divide="ignore", invalid="ignore"):
        opened = s3 / (2.0 * np.sqrt(s2)) - 0.5 * (
            d1 + (np.abs(p[1]) ** 2 * d2 + np.abs(q[1]) ** 2 * d3 + cross) / s2
        )
    # without a first-order coherence the 3x3 block only opens at second
    # order, through its lowest eigenvalue
    block = np.stack(
        [
            np.stack([d1, p[2], q[2]], axis=-1),
            np.stack([np.conj(p[2]), d2, e2], axis=-1),
            np.stack([np.conj(q[2]), np.conj(e2), d3], axis=-1),
        ],
        axis=-2,
    )
    closed = np.maximum(0.0, -np.linalg.eigvalsh(block)[..., 0])
    series = np.stack(
        [np.zeros_like(s2), np.where(linear, np.sqrt(s2), 0.0), np.where(linear, opened, closed)],
        axis=-1,
    )
    # the (1,2)|(3,0) block rides on the twice-paired amplitude
    series[..., 2] += np.sqrt(3.0) * np.abs(v[1][..., ik, ikp]) ** 2
    return series


# ---------------------------------------------------------------------------
# closed route, fermions


def _fermion_pieces(t):
    v = states.fermion_pair_matrix(t)
    part, anti = states._fermion_labels(t)
    m = states.fermion_norm_factor(v)
    return v, part, anti, m


def fermion_vacuum_closed(t, pair) -> np.ndarray:
    """Negativity series of the travelled vacuum on a particle-antiparticle pair."""
    kappa, kappa_p = max(pair), min(pair)
    if kappa < 0 or kappa_p >= 0:
        raise ValueError("vacuum negativity at this order needs opposite charges")
    v, part, anti, m = _fermion_pieces(t)
    ip, iq = part.index(int(kappa)), anti.index(int(kappa_p))
    d1 = _weight(np.delete(v[1][..., ip, :], iq, axis=-1))
    d2 = _weight(np.delete(v[1][..., :, iq], ip, axis=-1))
    x = -cauchy(cauchy(m, m), v[:, ..., ip, iq])
    return _pt_block(d1, d2, x)


def fermion_particle_closed(t, kappa: int, pair) -> np.ndarray:
    """Negativity series of a travelled single excitation on an observed pair.

    A partner of the opposite charge cannot share a negative block with the
    excitation at this order (the exchange channel is Pauli blocked), so the
    series is identically zero there.
    """
    kappa = int(kappa)
    if kappa not in tuple(int(m) for m in pair):
        raise ValueError("closed form expects the excited mode in the observed pair")
    partner = next(int(m) for m in pair if int(m) != kappa)
    if (kappa >= 0) != (partner >= 0):
        return np.zeros(3)
    v, part, anti, m = _fermion_pieces(t)
    m2 = cauchy(m, m)
    if kappa >= 0:
        source = states.fermion_particle_source(t, v)
        labels = part
        ie, io = labels.index(kappa), labels.index(partner)
        d1 = _weight(v[1][..., io, :])
    else:
        source = states.fermion_antiparticle_source(t, v)
        labels = anti
        ie, io = labels.index(kappa), labels.index(partner)
        d1 = _weight(v[1][..., :, io])
    rest = [i for i, lab in enumerate(labels) if lab not in (kappa, partner)]
    d2 = _weight(source[1][..., rest, ie])
    x = cauchy(m2, cauchy(source[:, ..., ie, ie], np.conj(source[:, ..., io, ie])))
    return _pt_block(d1, d2, x)


def fermion_pair_closed(t, kappa: int, kappa_p: int) -> np.ndarray:
    """Negativity series of a travelled particle-antiparticle pair state."""
    if kappa < 0 or kappa_p >= 0:
        raise ValueError("pair state wants a particle label and an antiparticle label")
    v, part, anti, m = _fermion_pieces(t)
    d = states.fermion_particle_source(t, v)
    e = states.fermion_antiparticle_source(t, v)
    ip, iq = part.index(int(kappa)), anti.index(int(kappa_p))
    c0 = states.fermion_pair_scalar(t, e, kappa, kappa_p)
    d1 = _weight(np.delete(d[1][..., :, ip], ip, axis=-1))
    d2 = _weight(np.delete(e[1][..., :, iq], iq, axis=-1))
    psi11 = cauchy(d[:, ..., ip, ip], e[:, ..., iq, iq]) + cauchy(v[:, ..., ip, iq], c0)
    x = -cauchy(cauchy(m, m), cauchy(psi11, np.conj(c0)))
    return _pt_block(d1, d2, x)
