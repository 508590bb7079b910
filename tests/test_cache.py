"""Junction coefficient tables on disk: round trip, corruption handling, compare."""

import numpy as np
import pytest

from cavityent import blocks, tables
from cavityent.bogoliubov import BosonBogoliubov

N_SMALL = 12


@pytest.fixture()
def small_junction():
    return blocks.build_junction("boson", N_SMALL)


def test_round_trip_is_bit_exact(tmp_path, small_junction):
    path = tmp_path / "junction.txt"
    tables.write_junction(path, small_junction, "boson", N_SMALL, blocks.DEFAULT_LADDER)
    loaded = tables.read_junction(path)
    assert np.array_equal(loaded.alpha, small_junction.alpha)
    assert np.array_equal(loaded.beta, small_junction.beta)
    assert np.array_equal(loaded.modes, small_junction.modes)
    assert tables.compare(loaded, small_junction) == 0.0


def test_fermion_round_trip(tmp_path):
    t = blocks.build_junction("fermion", 8)
    path = tmp_path / "junction.txt"
    tables.write_junction(path, t, "fermion", 8, blocks.DEFAULT_LADDER)
    loaded = tables.read_junction(path)
    assert np.array_equal(loaded.a, t.a)


def test_table_is_human_readable(tmp_path, small_junction):
    path = tmp_path / "junction.txt"
    tables.write_junction(path, small_junction, "boson", N_SMALL, blocks.DEFAULT_LADDER)
    text = path.read_text()
    assert text.startswith("# junction coefficient table")
    assert "species family order m n re im" in text
    # zero entries are omitted, so parity-forbidden slots never appear
    assert "boson beta 1 1 1 " not in text
    assert "boson beta 1 1 2 " in text


def test_corrupted_table_is_rejected(tmp_path, small_junction):
    path = tmp_path / "junction.txt"
    tables.write_junction(path, small_junction, "boson", N_SMALL, blocks.DEFAULT_LADDER)
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1].rsplit(" ", 2)[0] + " nan 0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(tables.TableError):
        tables.read_junction(path)


@pytest.mark.parametrize("keep", [4, 20])
def test_truncated_table_is_rejected(tmp_path, small_junction, keep):
    path = tmp_path / "junction.txt"
    tables.write_junction(path, small_junction, "boson", N_SMALL, blocks.DEFAULT_LADDER)
    body = path.read_text().splitlines()
    path.write_text("\n".join(body[:keep]) + "\n")
    with pytest.raises(tables.TableError):
        tables.read_junction(path)


def test_compare_reports_deviation(small_junction):
    other = blocks.build_junction("boson", N_SMALL)
    assert tables.compare(small_junction, other) == 0.0
    bumped = other.beta.copy()
    bumped[2, 0, 1] += 2.5e-7
    assert tables.compare(
        small_junction,
        BosonBogoliubov(other.alpha, bumped, other.modes),
    ) == pytest.approx(2.5e-7)
