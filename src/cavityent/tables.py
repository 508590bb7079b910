"""Junction coefficient tables as plain text: export, read back, compare.

A table holds the per-order matrices of a junction transformation, one
nonzero coefficient per line, under a commented header recording how the
numbers were produced.  It is an export format for inspecting or archiving
the coefficients; the sweep engine never reads it, because rebuilding a
junction from the quadrature is cheaper than parsing its table.
"""

from __future__ import annotations

import pathlib

import numpy as np

from .blocks import boson_modes, fermion_modes
from .bogoliubov import BosonBogoliubov, FermionBogoliubov
from .series import N_ORDERS

FORMAT_VERSION = 1


class TableError(RuntimeError):
    """A table file cannot be read back as written."""


def _families(t) -> dict[str, np.ndarray]:
    if isinstance(t, BosonBogoliubov):
        return {"alpha": t.alpha, "beta": t.beta}
    if isinstance(t, FermionBogoliubov):
        return {"a": t.a}
    raise TypeError(f"not a transformation: {t!r}")


def write_junction(path: pathlib.Path, t, species: str, n_max: int, ladder) -> None:
    """Write the per-order coefficient table for a junction transformation."""
    modes = np.asarray(t.modes)
    body = []
    for family, mat in _families(t).items():
        for order, i, j in zip(*np.nonzero(mat)):
            z = mat[order, i, j]
            body.append(
                f"{species} {family} {order} {modes[i]} {modes[j]} {z.real:.17g} {z.imag:.17g}"
            )
    ladder_tag = " ".join(f"{h:.12g}" for h in np.asarray(ladder, dtype=float))
    lines = [
        "# junction coefficient table",
        f"# format: {FORMAT_VERSION}",
        f"# species: {species}",
        f"# n_max: {n_max}",
        f"# ladder: {ladder_tag} (mirrored in h)",
        "# convention: mode m evolves as exp(-i omega_m t); order k multiplies h^k",
        "# columns: species family order m n re im",
        f"# rows: {len(body)}",
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines + body) + "\n")


def read_junction(path: pathlib.Path):
    """Parse a coefficient table back into a transformation.

    Raises :class:`TableError` on any structural problem: a missing header
    field, a row count that disagrees with the header, an unknown row key or
    mode label, or a non-finite coefficient.
    """
    header: dict[str, str] = {}
    rows = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if line.startswith("#"):
            key, sep, value = line.lstrip("#").partition(":")
            if sep:
                header[key.strip()] = value.strip()
        elif line:
            parts = line.split()
            if len(parts) != 7:
                raise TableError(f"{path}:{lineno}: expected 7 columns, got {len(parts)}")
            rows.append(parts)

    try:
        species = header["species"]
        n_max = int(header["n_max"])
        expected_rows = int(header["rows"])
    except KeyError as exc:
        raise TableError(f"{path}: missing header field {exc}") from exc
    if len(rows) != expected_rows:
        raise TableError(f"{path}: table holds {len(rows)} rows, header promises {expected_rows}")
    modes = {"boson": boson_modes, "fermion": fermion_modes}[species](n_max)
    index = {int(m): i for i, m in enumerate(modes)}

    wanted = {"boson": ("alpha", "beta"), "fermion": ("a",)}[species]
    tables = {fam: np.zeros((N_ORDERS, modes.size, modes.size), dtype=complex) for fam in wanted}
    for sp, family, order, m, n, re, im in rows:
        if sp != species or family not in tables:
            raise TableError(f"{path}: unexpected row key {sp}/{family}")
        k = int(order)
        if not 0 <= k < N_ORDERS:
            raise TableError(f"{path}: order {k} out of range")
        try:
            i, j = index[int(m)], index[int(n)]
        except KeyError as exc:
            raise TableError(f"{path}: mode label {exc} outside the table") from exc
        tables[family][k, i, j] = complex(float(re), float(im))

    for fam in wanted:
        if not np.all(np.isfinite(tables[fam].view(float))):
            raise TableError(f"{path}: non-finite coefficient in {fam}")
    if species == "boson":
        return BosonBogoliubov(tables["alpha"], tables["beta"], modes)
    return FermionBogoliubov(tables["a"], modes)


def compare(t_a, t_b) -> float:
    """Largest entrywise deviation between two transformations, all orders."""
    fam_a, fam_b = _families(t_a), _families(t_b)
    if fam_a.keys() != fam_b.keys() or not np.array_equal(t_a.modes, t_b.modes):
        raise TableError("transformations are not comparable")
    return max(float(np.max(np.abs(fam_a[f] - fam_b[f]))) for f in fam_a)
