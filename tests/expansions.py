"""Dictionary views of travelled-state expansions, for the tests.

``cavityent.states`` keeps an expansion's keys as a padded label array and
its amplitudes as one order array.  The tests read and write single keys as
occupation tuples, and these helpers translate between the two.
"""

import numpy as np

from cavityent import states
from cavityent.series import N_ORDERS, cauchy


def amplitudes(state) -> dict[tuple, np.ndarray]:
    """{occupied labels ascending: orders of the amplitude}."""
    return {
        tuple(int(m) for m in row if m != states.PAD): state.amps[:, i]
        for i, row in enumerate(state.keys)
    }


def expansion(species: str, observed, amps: dict) -> states.StateExpansion:
    """A hand-written expansion from {occupation tuple: orders}."""
    width = max((len(key) for key in amps), default=0)
    keys = np.full((len(amps), width), states.PAD, dtype=np.int64)
    for row, key in zip(keys, amps):
        row[: len(key)] = sorted(key)
    orders = np.array(list(amps.values()), dtype=complex).reshape(len(amps), N_ORDERS).T
    return states.StateExpansion(species, tuple(observed), keys, orders)


def norm_orders(state) -> np.ndarray:
    """Orders of <psi|psi>; (1, 0, 0) up to truncation when normalised."""
    return np.sum(cauchy(state.amps, np.conj(state.amps)).real, axis=1)


def per_key_expansion(t0: dict, pairs, fermion: bool) -> dict:
    """exp(W) on ``t0`` to second order, one key and one pair at a time.

    ``pairs`` lists (p, q, orders of the weight of b_p^+ b_q^+ or
    b_p^+ c_q^+).  Every key feeds every pair, as ``full_second_order`` does:
    the reference the batched expansion is held against.
    """

    def apply(amps):
        out = {}
        for key, amp in amps.items():
            for p, q, w in pairs:
                if fermion:
                    if p in key or q in key:
                        continue
                    hops = sum(m < q for m in key) + sum(m < p for m in key) + 1
                    factor = (-1.0) ** hops
                elif p == q:
                    factor = 0.5 * np.sqrt((key.count(p) + 1) * (key.count(p) + 2))
                else:
                    factor = np.sqrt((key.count(p) + 1) * (key.count(q) + 1))
                target = tuple(sorted(key + (p, q)))
                out[target] = out.get(target, 0.0) + factor * np.convolve(amp, w)[:N_ORDERS]
        return out

    t1 = apply(t0)
    total = dict(t0)
    for scale, generation in ((1.0, t1), (0.5, apply(t1))):
        for key, amp in generation.items():
            total[key] = total.get(key, 0.0) + scale * amp
    return {key: amp for key, amp in total.items() if np.any(amp != 0)}


def per_key_reduction(species: str, observed, amps: dict):
    """Orders of the reduced density matrix on ``observed`` from
    {occupation tuple: orders}, one key pair at a time: the reference the
    batched reduction is held against.

    Returns the matrix orders, and for each entry the sum of the magnitudes of
    the amplitude products it adds up and how many there are, which bound its
    rounding.  A key splits into observed occupations (na, nb) and the traced
    rest; two keys meet only when their rests agree.  A fermion key's sign is
    the parity of the permutation that brings its observed operators to the
    front, a before b, from ascending label order.
    """
    a, b = sorted(observed)
    d = states.LOCAL_DIM[species]
    split = {}
    for key, amp in amps.items():
        na, nb = key.count(a), key.count(b)
        if na >= d or nb >= d:
            continue
        rest = tuple(m for m in key if m not in (a, b))
        sign = 1.0
        if species == "fermion":
            front = (a,) * na + (b,) * nb + rest
            inversions = sum(x > y for i, x in enumerate(front) for y in front[i + 1:])
            sign = (-1.0) ** inversions
        split.setdefault(rest, []).append((na * d + nb, sign * np.asarray(amp, dtype=complex)))
    rho = np.zeros((N_ORDERS, d * d, d * d), dtype=complex)
    magnitude, count = np.zeros(rho.shape), np.zeros(rho.shape)
    for group in split.values():
        for i, x in group:
            for j, y in group:
                rho[:, i, j] += np.convolve(x, np.conj(y))[:N_ORDERS]
                magnitude[:, i, j] += np.convolve(np.abs(x), np.abs(y))[:N_ORDERS]
                count[:, i, j] += np.arange(1, N_ORDERS + 1)
    return rho, magnitude, count
