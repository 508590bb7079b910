"""Travelled-state expansions over the post-trip number basis.

A trip's transformation fixes how the mode operators before the trip relate
to those after it.  Any state prepared before the trip therefore has an
expansion over the post-trip Fock basis; to second order in h this is a
pair condensate dressed with the transported excitation content,

    |0>     = N exp(W) |0~>,
    a_k^+|0> = N exp(W) sum_m D_mk b_m^+ |0~>,

with W quadratic in creation operators.  An expansion keeps its occupation
keys in one integer array, one key per row: the occupied labels in
ascending order (repeated for bosons, strictly ascending for fermions),
padded on the right with ``PAD``, which sorts above every label.  The
amplitudes are one order array with a column per key.  Each generation of W
acts on every (source key, pair) at once, and equal keys are summed by
sorting the rows and adding up runs of equal rows.

Second-order amplitudes are only generated where they can enter a two-mode
reduced density matrix at second order (every key that also carries a
zeroth- or first-order amplitude, plus keys supported entirely on the
observed pair).  Pass ``full_second_order=True`` to keep everything; that is
only sensible for small mode windows.

The matrix building blocks (pair matrices, sources, norm factors) take one
transformation, as the state expansions do.  The closed forms in
:mod:`cavityent.negativity` evaluate the same blocks, except the norm
factors, from junction rows without this module, and the tests hold the two
against each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bogoliubov import BosonBogoliubov, FermionBogoliubov
from .series import N_ORDERS, cauchy


def _diagonal_phases(m0: np.ndarray) -> np.ndarray:
    g = np.diag(m0)
    if not np.all(np.abs(m0 - np.diag(g)) <= 1e-12):
        raise ValueError("zeroth order is not diagonal; not a trip transformation")
    return g


def _sub(m: np.ndarray, rows, cols) -> np.ndarray:
    """Block of ``m`` (boolean or integer selections)."""
    return m[np.ix_(rows, cols)]


# sorts above every mode label: pads the rows of a key array
PAD = np.iinfo(np.int64).max
# the unexcited state's key array: one key, no label
_EMPTY_KEY = np.zeros((1, 0), dtype=np.int64)


@dataclass(frozen=True)
class StateExpansion:
    """Amplitudes of a travelled state over post-trip occupation keys.

    ``keys`` is (K, L): the labels of each key ascending, padded with
    ``PAD``; ``amps`` is (3, K), the orders of each key's amplitude.
    """

    species: str
    observed: tuple[int, int]
    keys: np.ndarray
    amps: np.ndarray


# ---------------------------------------------------------------------------
# boson building blocks


def boson_pair_matrix(t: BosonBogoliubov) -> np.ndarray:
    """Orders (3, n, n) of the pair matrix V = -conj(beta) alpha^-1.

    The symmetrised matrix is returned, so that W = 1/2 sum_pq V_pq b_p^+ b_q^+
    can be read off the upper triangle directly.  Any asymmetry beyond the
    consistency identities would already have tripped the transformation gate.
    """
    g = _diagonal_phases(t.alpha[0])
    ginv = np.conj(g)
    a1 = t.alpha[1]
    b1, b2 = t.beta[1], t.beta[2]
    v = np.zeros((N_ORDERS,) + b1.shape, dtype=complex)
    v[1] = -np.conj(b1) * ginv
    v[2] = -np.conj(b2) * ginv + np.conj(b1) @ (ginv[:, None] * a1 * ginv)
    return 0.5 * (v + v.transpose(0, 2, 1))


def boson_norm_factor(v: np.ndarray) -> np.ndarray:
    return np.array([1.0, 0.0, -0.25 * np.sum(np.abs(v[1]) ** 2)])


def boson_source_matrix(t: BosonBogoliubov, v: np.ndarray) -> np.ndarray:
    """Orders of D, with D[:, k] the one-particle source for mode k."""
    g = _diagonal_phases(t.alpha[0])
    d = np.zeros((N_ORDERS,) + v[1].shape, dtype=complex)
    d[0] = np.diag(np.conj(g))
    d[1] = np.conj(t.alpha[1])
    d[2] = np.conj(t.alpha[2]) + v[1].T @ t.beta[1]
    return d


# ---------------------------------------------------------------------------
# fermion building blocks


def _charge_masks(t: FermionBogoliubov):
    modes = np.asarray(t.modes)
    part = modes >= 0
    return modes, part, ~part


def fermion_pair_matrix(t: FermionBogoliubov) -> np.ndarray:
    """Orders of the pair matrix in |0> = M exp(sum V_pq b_p^+ c_q^+)|0~>.

    Rows run over particle labels (kappa >= 0) ascending, columns over
    antiparticle labels ascending.
    """
    modes, part, anti = _charge_masks(t)
    g = _diagonal_phases(t.a[0])
    a1, a2 = t.a[1], t.a[2]
    gp = np.conj(g[part])[:, None]
    v = np.zeros((N_ORDERS, int(part.sum()), int(anti.sum())), dtype=complex)
    v[1] = -gp * _sub(a1, anti, part).T
    v[2] = -gp * (_sub(a2, anti, part).T + _sub(a1, part, part).T @ v[1])
    return v


def fermion_norm_factor(v: np.ndarray) -> np.ndarray:
    return np.array([1.0, 0.0, -0.5 * np.sum(np.abs(v[1]) ** 2)])


def fermion_particle_source(t: FermionBogoliubov, v: np.ndarray) -> np.ndarray:
    """D with D[:, kappa-column] the source for a travelled particle."""
    modes, part, anti = _charge_masks(t)
    g = _diagonal_phases(t.a[0])
    a1c = np.conj(t.a[1])
    d = np.zeros((N_ORDERS,) + (int(part.sum()),) * 2, dtype=complex)
    d[0] = np.diag(np.conj(g[part]))
    d[1] = _sub(a1c, part, part)
    d[2] = _sub(np.conj(t.a[2]), part, part) - v[1] @ _sub(a1c, anti, part)
    return d


def fermion_antiparticle_source(t: FermionBogoliubov, v: np.ndarray) -> np.ndarray:
    """E with E[:, kappa-column] the source for a travelled antiparticle."""
    modes, part, anti = _charge_masks(t)
    g = _diagonal_phases(t.a[0])
    a1 = t.a[1]
    e = np.zeros((N_ORDERS,) + (int(anti.sum()),) * 2, dtype=complex)
    e[0] = np.diag(g[anti])
    e[1] = _sub(a1, anti, anti)
    e[2] = _sub(t.a[2], anti, anti) + v[1].T @ _sub(a1, part, anti)
    return e


def fermion_pair_scalar(t: FermionBogoliubov, e: np.ndarray, kappa: int, kappa_p: int) -> np.ndarray:
    """Orders of the closed-loop amplitude c0 in the travelled pair state."""
    modes, part, anti = _charge_masks(t)
    ik = list(modes[part]).index(kappa)
    iq = list(modes[anti]).index(kappa_p)
    ac1 = _sub(np.conj(t.a[1]), anti, part)[:, ik]
    ac2 = _sub(np.conj(t.a[2]), anti, part)[:, ik]
    c = np.zeros(N_ORDERS, dtype=complex)
    c[1] = np.sum(ac1 * e[0][:, iq])
    c[2] = np.sum(ac1 * e[1][:, iq]) + np.sum(ac2 * e[0][:, iq])
    return c


# ---------------------------------------------------------------------------
# pair-operator application


def _sorted_runs(keys: np.ndarray):
    """Row order that sorts ``keys``, and where each run of equal rows starts
    in that order (a boolean per sorted row)."""
    order = np.lexsort(keys.T) if keys.shape[1] else np.arange(len(keys))
    ranked = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    return order, first


def _sum_equal_keys(keys: np.ndarray, amps: np.ndarray):
    order, first = _sorted_runs(keys)
    starts = np.flatnonzero(first)
    return keys[order[starts]], np.add.reduceat(amps[:, order], starts, axis=1)


def _nonzero(keys, amps):
    keep = np.any(amps != 0, axis=0)
    return keys[keep], amps[:, keep]


def _apply_pairs(keys, amps, pairs, observed, fermion: bool, full: bool):
    """One application of W: every source key with every pair it feeds.

    ``pairs`` is (p, q, w): label arrays and the (3, P) weights of
    b_p^+ b_q^+ (bosons, p <= q) or b_p^+ c_q^+ (fermions).  Sources with a
    zeroth-order amplitude feed first- and second-order amplitudes
    everywhere.  Sources that start at first order only matter at second
    order, where the reduction uses them solely against the unexcited
    component, so they only feed pairs on the observed pair, and only when
    they are supported on it themselves.
    """
    p, q, w = pairs
    # plain comparisons: the first np.isin call imports numpy.ma (about 1 MiB)
    a, b = observed
    on_pair = np.all((keys == a) | (keys == b) | (keys == PAD), axis=1)
    feeds_all = full | (amps[0] != 0)
    all_src = np.flatnonzero(feeds_all)
    obs_src = np.flatnonzero(~feeds_all & (amps[1] != 0) & on_pair)
    obs_pairs = np.flatnonzero(((p == a) | (p == b)) & ((q == a) | (q == b)))
    src = np.concatenate([np.repeat(all_src, p.size), np.repeat(obs_src, obs_pairs.size)])
    pair = np.concatenate([np.tile(np.arange(p.size), all_src.size), np.tile(obs_pairs, obs_src.size)])
    rows, pp, qq = keys[src], p[pair, None], q[pair, None]
    if fermion:
        # Pauli: no target for a source that already holds p or q; c_q^+ then
        # b_p^+, each hopping over the earlier-labelled occupants
        free = ~np.any((rows == pp) | (rows == qq), axis=1)
        src, pair, rows, pp, qq = src[free], pair[free], rows[free], pp[free], qq[free]
        hops = np.sum(rows < qq, axis=1) + np.sum(rows < pp, axis=1) + 1
        factor = 1.0 - 2.0 * (hops % 2)
    else:
        cp, cq = np.sum(rows == pp, axis=1), np.sum(rows == qq, axis=1)
        factor = np.where(
            pp[:, 0] == qq[:, 0], 0.5 * np.sqrt((cp + 1) * (cp + 2)), np.sqrt((cp + 1) * (cq + 1))
        )
    targets = np.sort(np.concatenate([rows, pp, qq], axis=1), axis=1)
    return _sum_equal_keys(targets, cauchy(amps[:, src], w[:, pair]) * factor)


def _pad(keys: np.ndarray, width: int) -> np.ndarray:
    return np.pad(keys, ((0, 0), (0, width - keys.shape[1])), constant_values=PAD)


def _expand(species: str, keys, amps, pairs, observed, full: bool) -> StateExpansion:
    """exp(W) on the source keys to second order: t0 + t1 + t2 / 2."""
    observed = _pair(observed)
    fermion = species == "fermion"
    k1, a1 = _apply_pairs(keys, amps, pairs, observed, fermion, full)
    k2, a2 = _apply_pairs(k1, a1, pairs, observed, fermion, full)
    width = k2.shape[1]
    keys, amps = _sum_equal_keys(
        np.concatenate([_pad(keys, width), _pad(k1, width), k2]),
        np.concatenate([amps, a1, 0.5 * a2], axis=1),
    )
    return StateExpansion(species, observed, *_nonzero(keys, amps))


# ---------------------------------------------------------------------------
# state builders


def _boson_pairs(t: BosonBogoliubov, v: np.ndarray):
    i, j = np.triu_indices(t.modes.size)
    return t.modes[i], t.modes[j], v[:, i, j]


def _fermion_pairs(t: FermionBogoliubov, v: np.ndarray):
    modes, part, anti = _charge_masks(t)
    i, j = (m.ravel() for m in np.indices(v.shape[1:]))
    return modes[part][i], modes[anti][j], v[:, i, j]


def boson_vacuum_state(t: BosonBogoliubov, observed, full_second_order: bool = False) -> StateExpansion:
    """Pre-trip vacuum over the post-trip basis, to second order."""
    v = boson_pair_matrix(t)
    n = boson_norm_factor(v).astype(complex)
    return _expand("boson", _EMPTY_KEY, n[:, None], _boson_pairs(t, v), observed, full_second_order)


def boson_particle_state(t: BosonBogoliubov, k: int, observed, full_second_order: bool = False) -> StateExpansion:
    """Pre-trip one-particle state a_k^+|0> over the post-trip basis."""
    v = boson_pair_matrix(t)
    d = boson_source_matrix(t, v)
    n = boson_norm_factor(v)
    ik = list(t.modes).index(k)
    keys, amps = _nonzero(t.modes[:, None], cauchy(n[:, None], d[:, :, ik]))
    return _expand("boson", keys, amps, _boson_pairs(t, v), observed, full_second_order)


def fermion_vacuum_state(t: FermionBogoliubov, observed, full_second_order: bool = False) -> StateExpansion:
    v = fermion_pair_matrix(t)
    m = fermion_norm_factor(v).astype(complex)
    return _expand("fermion", _EMPTY_KEY, m[:, None], _fermion_pairs(t, v), observed, full_second_order)


def fermion_particle_state(t: FermionBogoliubov, kappa: int, observed, full_second_order: bool = False) -> StateExpansion:
    """Travelled single excitation, particle or antiparticle by label sign."""
    v = fermion_pair_matrix(t)
    modes, part, anti = _charge_masks(t)
    m = fermion_norm_factor(v)
    if kappa >= 0:
        source, labels = fermion_particle_source(t, v), modes[part]
    else:
        source, labels = fermion_antiparticle_source(t, v), modes[anti]
    ik = list(labels).index(kappa)
    keys, amps = _nonzero(labels[:, None], cauchy(m[:, None], source[:, :, ik]))
    return _expand("fermion", keys, amps, _fermion_pairs(t, v), observed, full_second_order)


def fermion_pair_state(
    t: FermionBogoliubov, kappa: int, kappa_p: int, observed, full_second_order: bool = False
) -> StateExpansion:
    """Travelled particle-antiparticle pair b_kappa^+ c_kappa'^+|0>."""
    if kappa < 0 or kappa_p >= 0:
        raise ValueError("pair state wants a particle label and an antiparticle label")
    v = fermion_pair_matrix(t)
    modes, part, anti = _charge_masks(t)
    m = fermion_norm_factor(v)
    d = fermion_particle_source(t, v)
    e = fermion_antiparticle_source(t, v)
    ik = list(modes[part]).index(kappa)
    iq = list(modes[anti]).index(kappa_p)
    c0 = fermion_pair_scalar(t, e, kappa, kappa_p)
    # b_p^+ c_q^+|0~> = -|{q, p}> in the ascending-label basis
    pair = -cauchy(m[:, None, None], cauchy(d[:, :, ik, None], e[:, None, :, iq]))
    q, p = np.meshgrid(modes[anti], modes[part])
    keys = np.concatenate([[[PAD, PAD]], np.stack([q.ravel(), p.ravel()], axis=1)])
    amps = np.concatenate([cauchy(m, c0)[:, None], pair.reshape(N_ORDERS, -1)], axis=1)
    return _expand("fermion", *_nonzero(keys, amps), _fermion_pairs(t, v), observed, full_second_order)


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

    Tracing out the rest pairs two keys only when they share their traced
    factor, so the matrix is a sum over the ordered key pairs within each run
    of equal traced factors: each pair's truncated amplitude product lands in
    its (row, column) slot, one order at a time.  Nearly every traced factor
    carries a single observed occupation, so there are about as many pairs as
    keys, and the work and memory follow the keys, not the number of traced
    factors times d^2.
    """
    a, b = state.observed
    d = LOCAL_DIM[state.species]
    keys, amps = state.keys, state.amps
    na, nb = np.sum(keys == a, axis=1), np.sum(keys == b, axis=1)
    keep = np.flatnonzero((na < d) & (nb < d))
    na, nb, amps = na[keep], nb[keep], amps[:, keep]
    rest = np.sort(np.where((keys == a) | (keys == b), PAD, keys), axis=1)[keep]
    if state.species == "fermion":
        hops = na * np.sum(rest < a, axis=1) + nb * np.sum(rest < b, axis=1)
        amps = amps * (1.0 - 2.0 * (hops % 2))
    # pair every key (in sorted order) with each key of its run: the p-th pair
    # of a run of size n starting at s is (s + p // n, s + p % n)
    order, first = _sorted_runs(rest)
    starts = np.flatnonzero(first)
    size = np.diff(np.append(starts, len(first)))
    per_key = np.repeat(size, size)
    k = np.repeat(order, per_key)
    offset = np.cumsum(per_key) - per_key - np.repeat(starts, size)
    l = order[np.arange(len(k)) - np.repeat(offset, per_key)]
    slot = na * d + nb
    flat = slot[k] * (d * d) + slot[l]
    rho = np.empty((N_ORDERS, d**4), dtype=complex)
    for o in range(N_ORDERS):
        # numpy's bincount takes real weights only
        terms = amps[0, k] * np.conj(amps[o, l])
        for s in range(1, o + 1):
            terms += amps[s, k] * np.conj(amps[o - s, l])
        rho[o].real = np.bincount(flat, terms.real, d**4)
        rho[o].imag = np.bincount(flat, terms.imag, d**4)
    return rho.reshape(N_ORDERS, d * d, d * d)
