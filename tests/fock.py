"""Brute-force truncated Fock spaces, the state oracle of the test suite.

Travelled states can be rebuilt here without any series algebra: a window of
a few modes gets an explicit occupation-number basis, the ladder operators
become sparse matrices, and the pre-travel vacuum is found by solving its
defining annihilation conditions in the post-travel basis by least squares.
Excited states follow by applying pre-travel creation operators.  Agreement
with the expansions in :mod:`cavityent.states` is what backs them, so this
module shares no code with that route.

It needs scipy (for the sparse matrices and the sparse solve), which the
package itself never imports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def _enumerate_occupations(n_modes: int, mode_cap: int, total_cap: int):
    occs = []

    def recurse(prefix, remaining):
        if len(prefix) == n_modes:
            occs.append(tuple(prefix))
            return
        for k in range(min(mode_cap, remaining) + 1):
            recurse(prefix + [k], remaining - k)

    recurse([], total_cap)
    return occs


@dataclass
class BosonFockWindow:
    """Truncated Fock space over a small window of modes.

    The domain basis keeps occupation vectors with per-mode occupancy at most
    ``mode_cap`` and total occupancy at most ``total_cap``; ladder operators
    map into a slightly larger image basis so that nothing silently falls off
    the edge when conditions are checked.
    """

    modes: tuple[int, ...]
    mode_cap: int = 4
    total_cap: int = 6
    domain: list = field(init=False)
    image: list = field(init=False)
    domain_index: dict = field(init=False)
    image_index: dict = field(init=False)

    def __post_init__(self):
        self.modes = tuple(self.modes)
        n = len(self.modes)
        self.domain = _enumerate_occupations(n, self.mode_cap, self.total_cap)
        self.image = _enumerate_occupations(n, self.mode_cap + 1, self.total_cap + 1)
        self.domain_index = {occ: i for i, occ in enumerate(self.domain)}
        self.image_index = {occ: i for i, occ in enumerate(self.image)}

    def lower(self, slot: int) -> sp.csr_matrix:
        """Annihilation operator for mode ``self.modes[slot]``, domain -> image."""
        rows, cols, vals = [], [], []
        for j, occ in enumerate(self.domain):
            if occ[slot] == 0:
                continue
            target = occ[:slot] + (occ[slot] - 1,) + occ[slot + 1:]
            rows.append(self.image_index[target])
            cols.append(j)
            vals.append(np.sqrt(occ[slot]))
        shape = (len(self.image), len(self.domain))
        return sp.csr_matrix((vals, (rows, cols)), shape=shape)

    def raise_(self, slot: int) -> sp.csr_matrix:
        rows, cols, vals = [], [], []
        for j, occ in enumerate(self.domain):
            target = occ[:slot] + (occ[slot] + 1,) + occ[slot + 1:]
            idx = self.image_index.get(target)
            if idx is None:
                continue
            rows.append(idx)
            cols.append(j)
            vals.append(np.sqrt(occ[slot] + 1))
        shape = (len(self.image), len(self.domain))
        return sp.csr_matrix((vals, (rows, cols)), shape=shape)

    def amplitude(self, vec: np.ndarray, occ: tuple, basis: str = "domain") -> complex:
        index = self.domain_index if basis == "domain" else self.image_index
        return complex(vec[index[tuple(occ)]])


def boson_travelled_vacuum(window: BosonFockWindow, alpha: np.ndarray, beta: np.ndarray):
    """State of the pre-travel vacuum in the post-travel basis, by least squares.

    The pre-travel annihilation operators in the post-travel window are
    a_n = sum_m alpha[m, n] b_m + conj(beta[m, n]) b_m^+; the vacuum is the
    (gauge-fixed) minimiser of the summed condition norms.  Returns the
    normalised vector and the residual per unit norm, which measures how much
    the window truncation bites.
    """
    n_w = len(window.modes)
    lowers = [window.lower(s) for s in range(n_w)]
    raises = [window.raise_(s) for s in range(n_w)]
    conditions = []
    for n in range(n_w):
        op = sp.csr_matrix((len(window.image), len(window.domain)), dtype=complex)
        for m in range(n_w):
            op = op + alpha[m, n] * lowers[m] + np.conj(beta[m, n]) * raises[m]
        conditions.append(op)
    tall = sp.vstack(conditions).tocsc()

    vac = window.domain_index[(0,) * n_w]
    keep = np.ones(len(window.domain), dtype=bool)
    keep[vac] = False
    a_free = tall[:, keep]
    rhs = -tall[:, vac].toarray().ravel()
    normal = (a_free.conj().T @ a_free).tocsc()
    psi_free = spla.spsolve(normal, a_free.conj().T @ rhs)

    psi = np.zeros(len(window.domain), dtype=complex)
    psi[vac] = 1.0
    psi[keep] = psi_free
    residual = float(np.linalg.norm(tall @ psi) / np.linalg.norm(psi))
    return psi / np.linalg.norm(psi), residual


def boson_apply_pre_travel_creation(
    window: BosonFockWindow, alpha: np.ndarray, beta: np.ndarray, slot: int, psi: np.ndarray
) -> np.ndarray:
    """Apply a pre-travel creation operator to a window vector.

    a_k^+ = sum_m conj(alpha[m, k]) b_m^+ + beta[m, k] b_m.  The result lives
    in the image basis; normalise before comparing amplitudes.
    """
    out = np.zeros(len(window.image), dtype=complex)
    for m in range(len(window.modes)):
        out += np.conj(alpha[m, slot]) * (window.raise_(m) @ psi)
        out += beta[m, slot] * (window.lower(m) @ psi)
    return out


@dataclass
class FermionFockWindow:
    """Complete Fock space over a window of fermion modes (kappa labels).

    Basis states are bitmasks over ``kappas`` in ascending order; a creation
    operator for slot j carries the usual sign (-1)^(number of occupied
    slots before j).
    """

    kappas: tuple[int, ...]

    def __post_init__(self):
        self.kappas = tuple(self.kappas)
        if list(self.kappas) != sorted(self.kappas):
            raise ValueError("kappas must be ascending")
        self.n = len(self.kappas)
        self.dim = 1 << self.n

    def create(self, slot: int) -> sp.csr_matrix:
        rows, cols, vals = [], [], []
        bit = 1 << slot
        below = bit - 1
        for state in range(self.dim):
            if state & bit:
                continue
            sign = -1.0 if bin(state & below).count("1") % 2 else 1.0
            rows.append(state | bit)
            cols.append(state)
            vals.append(sign)
        return sp.csr_matrix((vals, (rows, cols)), shape=(self.dim, self.dim))

    def annihilate(self, slot: int) -> sp.csr_matrix:
        return self.create(slot).T

    def post_travel_op(self, slot: int) -> sp.csr_matrix:
        """The operator multiplying mode ``slot`` in a field expansion.

        Particle modes (kappa >= 0) contribute their annihilation operator,
        antiparticle modes their creation operator.
        """
        if self.kappas[slot] >= 0:
            return self.annihilate(slot)
        return self.create(slot)

    def index(self, occupied) -> int:
        state = 0
        for kappa in occupied:
            state |= 1 << self.kappas.index(kappa)
        return state


def fermion_travelled_vacuum(window: FermionFockWindow, a: np.ndarray):
    """Pre-travel vacuum in the post-travel window basis, by least squares.

    Conditions: for every particle column n, sum_m a[m, n] c_m psi = 0 and
    for every antiparticle column q, sum_m conj(a[m, q]) c_m^+ psi = 0, with
    c_m the post-travel operator of slot m.
    """
    ops = [window.post_travel_op(s) for s in range(window.n)]
    conditions = []
    for n, kappa in enumerate(window.kappas):
        op = sp.csr_matrix((window.dim, window.dim), dtype=complex)
        if kappa >= 0:
            for m in range(window.n):
                op = op + a[m, n] * ops[m]
        else:
            for m in range(window.n):
                op = op + np.conj(a[m, n]) * ops[m].conj().T
        conditions.append(op)
    tall = sp.vstack(conditions).tocsc()

    vac = 0
    keep = np.ones(window.dim, dtype=bool)
    keep[vac] = False
    a_free = tall[:, keep]
    rhs = -tall[:, vac].toarray().ravel()
    normal = (a_free.conj().T @ a_free).tocsc()
    psi_free = spla.spsolve(normal, a_free.conj().T @ rhs)

    psi = np.zeros(window.dim, dtype=complex)
    psi[vac] = 1.0
    psi[keep] = psi_free
    residual = float(np.linalg.norm(tall @ psi) / np.linalg.norm(psi))
    return psi / np.linalg.norm(psi), residual


def fermion_apply_pre_travel_creation(
    window: FermionFockWindow, a: np.ndarray, column: int, psi: np.ndarray
) -> np.ndarray:
    """Apply a pre-travel creation operator (column index into ``a``).

    For a particle column this is sum_m conj(a[m, col]) c_m^+; for an
    antiparticle column the pre-travel field relation gives
    sum_m a[m, col] c_m instead (the adjoint of the annihilation condition).
    """
    kappa = window.kappas[column]
    out = np.zeros(window.dim, dtype=complex)
    ops = [window.post_travel_op(s) for s in range(window.n)]
    for m in range(window.n):
        if kappa >= 0:
            out += np.conj(a[m, column]) * (ops[m].conj().T @ psi)
        else:
            out += a[m, column] * (ops[m] @ psi)
    return out
