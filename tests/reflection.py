"""The cavity reflection acting on a transformation, for the tests.

Production never mirrors a transformation; the tests use the reflection to
check the junction's symmetry under reversing the acceleration.
"""

import numpy as np

from cavityent.bogoliubov import BosonBogoliubov, FermionBogoliubov


def mirror(t):
    """Conjugate by the cavity reflection, i.e. the sign flip of every other mode.

    Reversing the direction of the acceleration is equivalent to reflecting
    the cavity about its centre, which multiplies mode n by (-1)^n.  The
    transformation for the reversed direction is therefore S t S with
    S = diag((-1)^mode), an index-preserving conjugation.
    """
    s = np.where(np.asarray(t.modes) % 2 == 0, 1.0, -1.0)
    outer = s[:, None] * s[None, :]
    if isinstance(t, BosonBogoliubov):
        return BosonBogoliubov(t.alpha * outer, t.beta * outer, t.modes)
    if isinstance(t, FermionBogoliubov):
        return FermionBogoliubov(t.a * outer, t.modes)
    raise TypeError(f"not a transformation: {t!r}")
