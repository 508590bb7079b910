"""Travelled-state expansions over the post-trip number basis.

A trip's transformation fixes how the mode operators before the trip relate
to those after it.  Any state prepared before the trip therefore has an
expansion over the post-trip Fock basis; to second order in h this is a
pair condensate dressed with the transported excitation content,

    |0>     = N exp(W) |0~>,
    a_k^+|0> = N exp(W) sum_m D_mk b_m^+ |0~>,

with W quadratic in creation operators.  Amplitudes are tracked in plain
dictionaries keyed by occupation tuples: sorted label tuples with repetition
for bosons, strictly ascending label tuples for fermions.

Second-order amplitudes are only generated where they can enter a two-mode
reduced density matrix at second order (every key that also carries a
zeroth- or first-order amplitude, plus keys supported entirely on the
observed pair).  Pass ``full_second_order=True`` to keep everything; that is
only sensible for small mode windows.

The matrix building blocks (pair matrices, sources, norm factors) accept a
stack of transformations as well and return order stacks with the same stack
axes; the state expansions themselves take one transformation.  The closed
forms in :mod:`cavityent.negativity` evaluate the same blocks from junction
rows without this module, and the tests hold the two against each other.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .bogoliubov import BosonBogoliubov, FermionBogoliubov
from .series import N_ORDERS, cauchy, diagonal_stack


def _diagonal_phases(m0: np.ndarray) -> np.ndarray:
    g = np.diagonal(m0, axis1=-2, axis2=-1).copy()
    if not np.all(np.abs(m0 - diagonal_stack(g)) <= 1e-12):
        raise ValueError("zeroth order is not diagonal; not a trip transformation")
    return g


def _t(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m, -1, -2)


def _sub(m: np.ndarray, rows, cols) -> np.ndarray:
    """Block of the last two axes of ``m`` (boolean or integer selections)."""
    return m[(Ellipsis,) + np.ix_(rows, cols)]


@dataclass(frozen=True)
class StateExpansion:
    """Amplitudes of a travelled state over post-trip occupation keys."""

    species: str
    observed: tuple[int, int]
    amps: dict[tuple, np.ndarray]

    def norm_orders(self) -> np.ndarray:
        """Orders of <psi|psi>; (1, 0, 0) up to truncation when normalised."""
        total = np.zeros(N_ORDERS)
        for amp in self.amps.values():
            total += cauchy(amp, np.conj(amp)).real
        return total

    def amplitude(self, key: tuple) -> np.ndarray:
        return self.amps.get(tuple(sorted(key)), np.zeros(N_ORDERS, dtype=complex))


# ---------------------------------------------------------------------------
# boson building blocks


def boson_pair_matrix(t: BosonBogoliubov) -> np.ndarray:
    """Order stack (3, ..., n, n) of the pair matrix V = -conj(beta) alpha^-1.

    The symmetrised matrix is returned, so that W = 1/2 sum_pq V_pq b_p^+ b_q^+
    can be read off the upper triangle directly.  Any asymmetry beyond the
    consistency identities would already have tripped the transformation gate.
    """
    g = _diagonal_phases(t.alpha[0])
    ginv = np.conj(g)
    a1 = t.alpha[1]
    b1, b2 = t.beta[1], t.beta[2]
    v = np.zeros((N_ORDERS,) + b1.shape, dtype=complex)
    v[1] = -np.conj(b1) * ginv[..., None, :]
    v[2] = (
        -np.conj(b2) * ginv[..., None, :]
        + np.conj(b1) @ (ginv[..., :, None] * a1 * ginv[..., None, :])
    )
    return 0.5 * (v + _t(v))


def boson_norm_factor(v: np.ndarray) -> np.ndarray:
    n = np.zeros((N_ORDERS,) + v.shape[1:-2])
    n[0] = 1.0
    n[2] = -0.25 * np.sum(np.abs(v[1]) ** 2, axis=(-2, -1))
    return n


def boson_source_matrix(t: BosonBogoliubov, v: np.ndarray) -> np.ndarray:
    """Order stack of D, with D[:, k] the one-particle source for mode k."""
    g = _diagonal_phases(t.alpha[0])
    d = np.zeros((N_ORDERS,) + v[1].shape, dtype=complex)
    d[0] = diagonal_stack(np.conj(g))
    d[1] = np.conj(t.alpha[1])
    d[2] = np.conj(t.alpha[2]) + _t(v[1]) @ t.beta[1]
    return d


# ---------------------------------------------------------------------------
# fermion building blocks


def _charge_masks(t: FermionBogoliubov):
    modes = np.asarray(t.modes)
    part = modes >= 0
    return modes, part, ~part


def fermion_pair_matrix(t: FermionBogoliubov) -> np.ndarray:
    """Order stack of the pair matrix in |0> = M exp(sum V_pq b_p^+ c_q^+)|0~>.

    Rows run over particle labels (kappa >= 0) ascending, columns over
    antiparticle labels ascending.
    """
    modes, part, anti = _charge_masks(t)
    g = _diagonal_phases(t.a[0])
    a1, a2 = t.a[1], t.a[2]
    gp = np.conj(g[..., part])[..., :, None]
    v = np.zeros((N_ORDERS,) + a1.shape[:-2] + (int(part.sum()), int(anti.sum())), dtype=complex)
    v[1] = -gp * _t(_sub(a1, anti, part))
    v[2] = -gp * (_t(_sub(a2, anti, part)) + _t(_sub(a1, part, part)) @ v[1])
    return v


def fermion_norm_factor(v: np.ndarray) -> np.ndarray:
    m = np.zeros((N_ORDERS,) + v.shape[1:-2])
    m[0] = 1.0
    m[2] = -0.5 * np.sum(np.abs(v[1]) ** 2, axis=(-2, -1))
    return m


def fermion_particle_source(t: FermionBogoliubov, v: np.ndarray) -> np.ndarray:
    """D with D[:, kappa-column] the source for a travelled particle."""
    modes, part, anti = _charge_masks(t)
    g = _diagonal_phases(t.a[0])
    a1c = np.conj(t.a[1])
    d = np.zeros((N_ORDERS,) + v.shape[1:-1] + (int(part.sum()),), dtype=complex)
    d[0] = diagonal_stack(np.conj(g[..., part]))
    d[1] = _sub(a1c, part, part)
    d[2] = _sub(np.conj(t.a[2]), part, part) - v[1] @ _sub(a1c, anti, part)
    return d


def fermion_antiparticle_source(t: FermionBogoliubov, v: np.ndarray) -> np.ndarray:
    """E with E[:, kappa-column] the source for a travelled antiparticle."""
    modes, part, anti = _charge_masks(t)
    g = _diagonal_phases(t.a[0])
    a1 = t.a[1]
    e = np.zeros((N_ORDERS,) + v.shape[1:-2] + (int(anti.sum()),) * 2, dtype=complex)
    e[0] = diagonal_stack(g[..., anti])
    e[1] = _sub(a1, anti, anti)
    e[2] = _sub(t.a[2], anti, anti) + _t(v[1]) @ _sub(a1, part, anti)
    return e


def fermion_pair_scalar(t: FermionBogoliubov, e: np.ndarray, kappa: int, kappa_p: int) -> np.ndarray:
    """Orders of the closed-loop amplitude c0 in the travelled pair state."""
    modes, part, anti = _charge_masks(t)
    ik = list(modes[part]).index(kappa)
    iq = list(modes[anti]).index(kappa_p)
    ac1 = _sub(np.conj(t.a[1]), anti, part)[..., ik]
    ac2 = _sub(np.conj(t.a[2]), anti, part)[..., ik]
    c = np.zeros(e.shape[:-2], dtype=complex)
    c[1] = np.sum(ac1 * e[0][..., iq], axis=-1)
    c[2] = np.sum(ac1 * e[1][..., iq], axis=-1) + np.sum(ac2 * e[0][..., iq], axis=-1)
    return c


# ---------------------------------------------------------------------------
# pair-operator application


def _merge(dst: dict, src: dict, scale: float = 1.0) -> dict:
    for key, amp in src.items():
        acc = dst.get(key)
        if acc is None:
            dst[key] = scale * amp
        else:
            acc += scale * amp
    return dst


def _select_pairs(amp, key, obs, full, all_pairs, obs_pairs):
    """Targets a source key must generate, or None to skip it.

    Sources with a zeroth-order amplitude feed first- and second-order
    amplitudes everywhere.  Sources that start at first order only matter at
    second order, where the reduction uses them solely against the unexcited
    component, so only targets supported on the observed pair are needed.
    """
    if full or amp[0] != 0:
        return all_pairs
    if amp[1] != 0 and all(m in obs for m in key):
        return obs_pairs
    return None


def _boson_apply(amps: dict, v: np.ndarray, labels, observed, full: bool) -> dict:
    index = {m: i for i, m in enumerate(labels)}
    obs = frozenset(observed)
    all_pairs = [(p, q) for i, p in enumerate(labels) for q in labels[i:]]
    obs_sorted = sorted(obs)
    obs_pairs = [(p, q) for i, p in enumerate(obs_sorted) for q in obs_sorted[i:]]
    out: dict[tuple, np.ndarray] = {}
    for key, amp in amps.items():
        pairs = _select_pairs(amp, key, obs, full, all_pairs, obs_pairs)
        if pairs is None:
            continue
        for p, q in pairs:
            w = v[:, index[p], index[q]]
            cp = key.count(p)
            if p == q:
                factor = 0.5 * np.sqrt((cp + 1) * (cp + 2))
            else:
                factor = np.sqrt((cp + 1) * (key.count(q) + 1))
            contrib = np.convolve(amp, w)[:N_ORDERS] * factor
            target = tuple(sorted(key + (p, q)))
            acc = out.get(target)
            if acc is None:
                out[target] = contrib
            else:
                acc += contrib
    return out


def _fermion_apply(amps: dict, v: np.ndarray, part_labels, anti_labels, observed, full: bool) -> dict:
    ip = {m: i for i, m in enumerate(part_labels)}
    iq = {m: i for i, m in enumerate(anti_labels)}
    obs = frozenset(observed)
    all_pairs = [(p, q) for p in part_labels for q in anti_labels]
    obs_pairs = [(p, q) for p in sorted(m for m in obs if m >= 0) for q in sorted(m for m in obs if m < 0)]
    out: dict[tuple, np.ndarray] = {}
    for key, amp in amps.items():
        pairs = _select_pairs(amp, key, obs, full, all_pairs, obs_pairs)
        if pairs is None:
            continue
        for p, q in pairs:
            if p in key or q in key:
                continue
            # c_q^+ then b_p^+, each hopping over earlier-labelled occupants
            hops = bisect_left(key, q) + bisect_left(key, p) + 1
            sign = -1.0 if hops % 2 else 1.0
            contrib = np.convolve(amp, v[:, ip[p], iq[q]])[:N_ORDERS] * sign
            target = tuple(sorted(key + (p, q)))
            acc = out.get(target)
            if acc is None:
                out[target] = contrib
            else:
                acc += contrib
    return out


# ---------------------------------------------------------------------------
# state builders


def _expand(t0: dict, apply_once) -> dict:
    t1 = apply_once(t0)
    t2 = apply_once(t1)
    amps = _merge(_merge(dict(t0), t1), t2, scale=0.5)
    return {key: amp for key, amp in amps.items() if amp.any()}


def boson_vacuum_state(t: BosonBogoliubov, observed, full_second_order: bool = False) -> StateExpansion:
    """Pre-trip vacuum over the post-trip basis, to second order."""
    v = boson_pair_matrix(t)
    labels = [int(m) for m in t.modes]
    n = boson_norm_factor(v).astype(complex)

    def apply_once(amps):
        return _boson_apply(amps, v, labels, observed, full_second_order)

    return StateExpansion("boson", _pair(observed), _expand({(): n}, apply_once))


def boson_particle_state(t: BosonBogoliubov, k: int, observed, full_second_order: bool = False) -> StateExpansion:
    """Pre-trip one-particle state a_k^+|0> over the post-trip basis."""
    v = boson_pair_matrix(t)
    labels = [int(m) for m in t.modes]
    d = boson_source_matrix(t, v)
    n = boson_norm_factor(v)
    ik = labels.index(k)
    t0 = {}
    for i, m in enumerate(labels):
        amp = cauchy(n, d[:, i, ik])
        if amp.any():
            t0[(m,)] = amp

    def apply_once(amps):
        return _boson_apply(amps, v, labels, observed, full_second_order)

    return StateExpansion("boson", _pair(observed), _expand(t0, apply_once))


def fermion_vacuum_state(t: FermionBogoliubov, observed, full_second_order: bool = False) -> StateExpansion:
    v = fermion_pair_matrix(t)
    part, anti = _fermion_labels(t)
    m = fermion_norm_factor(v).astype(complex)

    def apply_once(amps):
        return _fermion_apply(amps, v, part, anti, observed, full_second_order)

    return StateExpansion("fermion", _pair(observed), _expand({(): m}, apply_once))


def fermion_particle_state(t: FermionBogoliubov, kappa: int, observed, full_second_order: bool = False) -> StateExpansion:
    """Travelled single excitation, particle or antiparticle by label sign."""
    v = fermion_pair_matrix(t)
    part, anti = _fermion_labels(t)
    m = fermion_norm_factor(v)
    if kappa >= 0:
        source, labels = fermion_particle_source(t, v), part
    else:
        source, labels = fermion_antiparticle_source(t, v), anti
    ik = labels.index(kappa)
    t0 = {}
    for i, lab in enumerate(labels):
        amp = cauchy(m, source[:, i, ik])
        if amp.any():
            t0[(lab,)] = amp

    def apply_once(amps):
        return _fermion_apply(amps, v, part, anti, observed, full_second_order)

    return StateExpansion("fermion", _pair(observed), _expand(t0, apply_once))


def fermion_pair_state(
    t: FermionBogoliubov, kappa: int, kappa_p: int, observed, full_second_order: bool = False
) -> StateExpansion:
    """Travelled particle-antiparticle pair b_kappa^+ c_kappa'^+|0>."""
    if kappa < 0 or kappa_p >= 0:
        raise ValueError("pair state wants a particle label and an antiparticle label")
    v = fermion_pair_matrix(t)
    part, anti = _fermion_labels(t)
    m = fermion_norm_factor(v)
    d = fermion_particle_source(t, v)
    e = fermion_antiparticle_source(t, v)
    ik = part.index(kappa)
    iq = anti.index(kappa_p)
    c0 = fermion_pair_scalar(t, e, kappa, kappa_p)
    t0 = {}
    amp0 = cauchy(m, c0)
    if amp0.any():
        t0[()] = amp0
    for i, p in enumerate(part):
        dcol = d[:, i, ik]
        if not dcol.any():
            continue
        for j, q in enumerate(anti):
            # b_p^+ c_q^+|0~> = -|{q, p}> in the ascending-label basis
            amp = -cauchy(m, cauchy(dcol, e[:, j, iq]))
            if amp.any():
                t0[(q, p)] = amp

    def apply_once(amps):
        return _fermion_apply(amps, v, part, anti, observed, full_second_order)

    return StateExpansion("fermion", _pair(observed), _expand(t0, apply_once))


def _fermion_labels(t: FermionBogoliubov):
    modes = [int(m) for m in t.modes]
    return [m for m in modes if m >= 0], [m for m in modes if m < 0]


def _pair(observed) -> tuple[int, int]:
    a, b = sorted(int(m) for m in observed)
    if a == b:
        raise ValueError("observed modes must be distinct")
    return (a, b)


# ---------------------------------------------------------------------------
# reduction


LOCAL_DIM = {"boson": 4, "fermion": 2}


def reduce_to_pair(state: StateExpansion) -> np.ndarray:
    """Orders (3, d^2, d^2) of the reduced density matrix on the observed pair.

    Rows and columns are indexed by occ_a * d + occ_b for the ascending
    observed pair (a, b).  Keys taking an observed occupation past d-1 are
    dropped; they cannot reach the matrix before fourth order.  For fermions
    the split into observed and traced factors carries the reordering sign of
    each observed operator hopping over the traced ones below it.
    """
    a, b = state.observed
    d = LOCAL_DIM[state.species]
    fermion = state.species == "fermion"
    # v[:, g] holds the orders of the observed-pair vector of the g-th traced factor
    groups: dict[tuple, int] = {}
    v = np.zeros((N_ORDERS, len(state.amps), d * d), dtype=complex)
    for key, amp in state.amps.items():
        na = key.count(a)
        nb = key.count(b)
        if na >= d or nb >= d:
            continue
        rest = tuple(m for m in key if m != a and m != b)
        if fermion:
            hops = na * bisect_left(rest, a) + nb * bisect_left(rest, b)
            if hops % 2:
                amp = -amp
        v[:, groups.setdefault(rest, len(groups)), na * d + nb] += amp
    # rho sums vec vec^+ over the G traced factors: one truncated product
    v = v[:, : len(groups)]
    return cauchy(v, np.conj(v), lambda x, y: x.T @ y)
