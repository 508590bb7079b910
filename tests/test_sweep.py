"""Sweep orchestration, curve validation and serialization."""

import ast
import dataclasses
import hashlib
import importlib.util
import json
import pathlib
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavityent import blocks, bogoliubov, cli, config, negativity, sweep
from cavityent.bogoliubov import BosonBogoliubov, FermionBogoliubov, InvariantViolation
from cavityent.sweep import (
    CSV_COLUMNS,
    ConfigError,
    CurveSpec,
    SweepRequest,
    emit,
    run_sweep,
)


PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _curve(**kw):
    base = dict(
        name="boson-vacuum-14", species="boson", state="vacuum", modes=(1, 4)
    )
    base.update(kw)
    return CurveSpec(**base)


# --- validation --------------------------------------------------------------


def test_curve_rejects_unknown_species():
    with pytest.raises(ConfigError):
        _curve(species="anyon")


def test_curve_rejects_unknown_state():
    with pytest.raises(ConfigError):
        _curve(state="squeezed")


def test_curve_rejects_equal_modes():
    with pytest.raises(ConfigError):
        _curve(modes=(2, 2))


def test_curve_rejects_boson_mode_zero():
    with pytest.raises(ConfigError):
        _curve(modes=(0, 3))


def test_curve_rejects_bosonic_pair_state():
    with pytest.raises(ConfigError):
        _curve(state="pair")


def test_curve_rejects_same_charge_pair():
    with pytest.raises(ConfigError):
        _curve(name="p", species="fermion", state="pair", modes=(1, 2))


def test_curve_one_particle_needs_matching_excite():
    with pytest.raises(ConfigError):
        _curve(state="one-particle")
    with pytest.raises(ConfigError):
        _curve(state="one-particle", excite=7)
    with pytest.raises(ConfigError):
        _curve(excite=1)  # vacuum curves take no excite


def test_pauli_blocked_curve_warns_but_is_accepted():
    with pytest.warns(UserWarning, match="Pauli"):
        c = _curve(
            name="f", species="fermion", state="one-particle", modes=(1, -2), excite=1
        )
    assert c.modes == (1, -2)


def test_same_charge_vacuum_curve_warns_and_is_zero():
    with pytest.warns(UserWarning, match="same-charge"):
        c = _curve(name="f", species="fermion", modes=(1, 2))
    j, us = blocks.junction("fermion", 40), np.linspace(0.0, 1.0, 5)
    assert np.array_equal(c.series(negativity.TripGrid(j, us)), np.zeros((5, 3)))
    assert np.array_equal(c.series(negativity.FirstOrderGrid(j, us)), np.zeros((5, 2)))


def test_request_needs_curves_and_unique_names():
    with pytest.raises(ConfigError):
        SweepRequest(curves=())
    with pytest.raises(ConfigError):
        SweepRequest(curves=(_curve(), _curve()))


@pytest.mark.parametrize(
    "field,value",
    [("steps", 1), ("n_max", 7), ("n_max", blocks.MIN_N_MAX - 1)],
)
def test_request_field_validation(field, value):
    with pytest.raises(ConfigError):
        SweepRequest(curves=(_curve(),), **{field: value})


@pytest.mark.parametrize(
    "species,modes,label",
    [("boson", (1, 41), 41), ("fermion", (40, -1), 40), ("fermion", (0, -41), -41)],
    ids=["boson", "fermion-particle", "fermion-antiparticle"],
)
def test_request_rejects_labels_beyond_the_cutoff(species, modes, label):
    curve = _curve(name="far", species=species, modes=modes)
    with pytest.raises(ConfigError, match=f"curve far: mode label {label} lies outside"):
        SweepRequest(curves=(curve,), n_max=40)


@pytest.mark.parametrize(
    "bounds,key",
    [
        ({"u_start": float("nan")}, "u_start must be finite"),
        ({"u_start": float("-inf")}, "u_start must be finite"),
        ({"u_stop": float("inf")}, "u_stop must be finite"),
        ({"u_stop": float("nan")}, "u_stop must be finite"),
        ({"u_start": 1.0, "u_stop": 0.0}, "u_stop 0.0 must exceed u_start 1.0"),
        ({"u_start": 0.5, "u_stop": 0.5}, "u_stop 0.5 must exceed u_start 0.5"),
        # finite bounds whose span overflows: the grid would hold nan and inf
        ({"u_start": -1e308, "u_stop": 1e308}, "u bounds -1e[+]308, 1e[+]308 span more than"),
    ],
    ids=[
        "nan-start", "minus-inf-start", "inf-stop", "nan-stop", "descending", "empty",
        "overflowing-span",
    ],
)
def test_request_rejects_malformed_u_grids(bounds, key):
    with pytest.raises(ConfigError, match=key):
        SweepRequest(curves=(_curve(),), **bounds)


@pytest.mark.parametrize(
    "bounds",
    [{"u_stop": 1e308}, {"u_start": 1e17, "u_stop": 1.00000001e17, "steps": 3}],
    ids=["overflowing-phase", "rounded-phase"],
)
def test_request_accepts_far_integer_u_grids(bounds):
    # far finite bounds with a finite span make a grid of finite integer u;
    # the phases reduce u by their period, so no |u| bound rejects them
    grid = SweepRequest(curves=(_curve(),), **bounds).grid()
    assert np.all(np.isfinite(grid)) and np.array_equal(np.fmod(grid, 1.0), np.zeros_like(grid))


@pytest.mark.parametrize("n_max", [blocks.MIN_N_MAX, 40, blocks.MAX_N_MAX])
def test_largest_accepted_integer_u_sweeps_to_zero_rows(n_max):
    # every curve vanishes at integer u, and the phases reduce u by their
    # period exactly, so fig1a's four curves, whose h^1 carries them
    # elsewhere, read exactly zero however far u lies: near 1e17 and up to
    # the largest float, the largest accepted u; the next float, inf, is rejected
    curves = config.load_config("fig1a").curves
    top = sys.float_info.max
    with pytest.raises(ConfigError, match="u_stop must be finite"):
        SweepRequest(curves=curves, u_start=top, u_stop=float("inf"), n_max=n_max)
    below = top - 2 * (top - np.nextafter(top, 0.0))
    for u_start, u_stop in ((1e17, 1.00000001e17), (below, top)):
        request = SweepRequest(curves=curves, u_start=u_start, u_stop=u_stop, steps=3, n_max=n_max)
        assert request.grid()[-1] == u_stop
        result = run_sweep(request)
        assert np.array_equal(result.values, np.zeros((3, len(curves))))
        assert result.all_converged


@settings(max_examples=20, deadline=None)
@given(start=st.integers(0, 2**10), k=st.integers(1, 2**43))
def test_shifting_u_by_whole_periods_changes_no_bit(start, k):
    # every phase repeats after u -> u + 2, and on a dyadic grid below 2^45
    # u + 2k is exact, so the reduced phases, and with them every sweep
    # output and every trip, are the unshifted ones bit for bit
    u = start / 64
    for preset in ("fig1a", "fig1b"):
        curves = config.load_config(preset).curves
        base, shifted = (
            run_sweep(SweepRequest(curves=curves, u_start=x, u_stop=x + 1.0, steps=65))
            for x in (u, u + 2 * k)
        )
        assert np.array_equal(shifted.values, base.values)
        assert (shifted.powers, shifted.deltas) == (base.powers, base.deltas)
    for species in ("boson", "fermion"):
        j = blocks.junction(species, 40)
        for x, y in zip(*(dataclasses.astuple(blocks.trip(j, v)) for v in (u, u + 2 * k))):
            assert np.array_equal(x, y)


def test_request_cutoff_ceiling_is_the_drift_ceiling():
    # the refinement at 2 n_max reads the table junction, which has no drift
    # check, so only the n_max junction bounds the cutoff
    SweepRequest(curves=(_curve(),), n_max=blocks.MAX_N_MAX)
    with pytest.raises(ConfigError, match=f"n_max {blocks.MAX_N_MAX + 1} is above"):
        SweepRequest(curves=(_curve(),), n_max=blocks.MAX_N_MAX + 1)


def test_request_accepts_the_outermost_labels():
    SweepRequest(curves=(_curve(modes=(1, 40)),), n_max=40)
    SweepRequest(curves=(_curve(species="fermion", modes=(39, -40)),), n_max=40)


def test_grid_endpoints():
    req = SweepRequest(curves=(_curve(),), u_start=0.25, u_stop=0.75, steps=3)
    assert np.allclose(req.grid(), [0.25, 0.5, 0.75])


# --- running -----------------------------------------------------------------


SMALL_CURVES = (
    CurveSpec("boson-vacuum-14", "boson", "vacuum", (1, 4)),
    CurveSpec("boson-vacuum-13", "boson", "vacuum", (1, 3)),
    CurveSpec("fermion-vacuum-2m1", "fermion", "vacuum", (2, -1)),
)


@pytest.fixture(scope="module")
def small_result():
    request = SweepRequest(curves=SMALL_CURVES, steps=5, n_max=32)
    return run_sweep(request)


def test_row_layout(small_result):
    assert small_result.values.shape == (5, len(SMALL_CURVES))
    assert small_result.request.curves is SMALL_CURVES
    rows = load_rows(emit(small_result))
    assert len(rows) == 5 * len(SMALL_CURVES)
    grid = small_result.request.grid()
    for i, row in enumerate(rows):
        curve = SMALL_CURVES[i % len(SMALL_CURVES)]
        assert row["u"] == grid[i // len(SMALL_CURVES)]
        assert (row["species"], row["state"], (row["mode_a"], row["mode_b"])) == (
            curve.species, curve.state, curve.modes
        )


def test_values_are_normalized_coefficients(small_result):
    assert small_result.powers == {
        "boson-vacuum-14": 1,
        "boson-vacuum-13": 2,
        "fermion-vacuum-2m1": 1,
    }
    assert np.all(small_result.values >= 0.0)
    for i, row in enumerate(load_rows(emit(small_result))):
        assert row["power"] == small_result.powers[SMALL_CURVES[i % len(SMALL_CURVES)].name]


def test_sweep_vanishes_at_integer_u(small_result):
    at_integers = np.isin(small_result.request.grid(), (0.0, 1.0))
    assert at_integers.sum() == 2
    assert np.all(np.abs(small_result.values[at_integers]) < 1e-12)


def test_small_window_still_converged(small_result):
    assert small_result.all_converged
    for delta in small_result.deltas.values():
        assert 0.0 <= delta < sweep.CONVERGENCE_GATE


def test_convergence_gate_flags_curves(monkeypatch, small_result):
    monkeypatch.setattr(sweep, "CONVERGENCE_GATE", 0.0)
    result = run_sweep(small_result.request)
    assert not result.all_converged
    assert all(not row["converged"] for row in load_rows(emit(result)))
    # emission still works so the caller can inspect the run
    assert ",false" in emit(result)


def test_sweep_is_periodic_in_u():
    request = SweepRequest(curves=SMALL_CURVES[:1], u_stop=2.0, steps=9, n_max=32)
    values = run_sweep(request).values[:, 0].tolist()
    # u = 0 .. 2 in steps of 0.25: the second period repeats the first
    assert values[:4] == pytest.approx(values[4:8], abs=1e-12)


# --- convergence gate ----------------------------------------------------------


@pytest.mark.parametrize("steps", [3, 4])
def test_gate_ignores_the_curve_zeros(tmp_path, steps):
    # 3 and 4 point grids include u = 0 and u = 1, zeros of every curve where
    # both cutoffs hold only truncation noise: measured against the local
    # value, that noise read as a delta of 0.88
    out = tmp_path / "rows.json"
    assert cli.main(["sweep", "fig1b", "--steps", str(steps), "--out", str(out)]) == cli.EXIT_OK
    curves = json.loads(out.read_text())["metadata"]["curves"]
    assert all(info["convergence_delta"] < sweep.CONVERGENCE_GATE for info in curves.values())


def test_gate_still_fails_an_unconverged_curve():
    # a parity-suppressed curve on the last mode of the cutoff: its second
    # order is carried by modes the cutoff drops
    curve = CurveSpec("boson-vacuum-2-40", "boson", "vacuum", (2, 40))
    result = run_sweep(SweepRequest(curves=(curve,), steps=21, n_max=40))
    assert not result.all_converged
    assert result.deltas[curve.name] == pytest.approx(0.7440, abs=1e-4)


@pytest.mark.parametrize("name", ["fig1a", "fig1b", "cutoff", "cutoff-seed7"])
def test_deltas_are_the_whole_grid_move(name):
    # each curve's delta is its largest move over the whole grid between the
    # n_max junction and the tables at 2 n_max, over its largest |value|; a
    # power-1 curve's rows and refinement, read from h^1 alone, must be the
    # whole series' h^1 on fresh grids of each cutoff, and the others' rows
    # and refinement, read from sliced phase tables, its h^2.  fig1a has only
    # power-1 curves, fig1b only power-2 ones, and the two cutoff seeds mix
    # them, seed 7 in both species
    request = _reference_request(name)
    result = run_sweep(request)
    grid, n, species = request.grid(), request.n_max, {c.species for c in request.curves}

    rows = sweep.curve_series(
        request.curves, {s: negativity.TripGrid(blocks.junction(s, n), grid) for s in species}
    )
    fine = sweep.curve_series(
        request.curves,
        {s: negativity.TripGrid(blocks.table_junction(s, 2 * n), grid) for s in species},
    )
    for j, curve in enumerate(request.curves):
        power = result.powers[curve.name]
        row, refined = rows[:, j, power], fine[:, j, power]
        assert np.array_equal(result.values[:, j], row)
        move = float(np.max(np.abs(refined - row))) / float(np.max(np.abs(row)))
        assert result.deltas[curve.name] == move, curve.name
    want = {"fig1a": {1}, "fig1b": {2}, "cutoff": {1, 2}, "cutoff-seed7": {1, 2}}[name]
    assert set(result.powers.values()) == want
    if name == "cutoff-seed7":
        assert {(c.species, result.powers[c.name]) for c in request.curves} == {
            ("boson", 1), ("boson", 2), ("fermion", 1), ("fermion", 2)
        }


def _reference_request(name):
    """The request the benchmark runs for ``name``: a preset, or its
    deep-cutoff sweep (n_max 56, refined at 112, with a pair curve) for seed
    0 (``cutoff``) or for the seed that ``cutoff-seedN`` names."""
    if not name.startswith("cutoff"):
        return config.load_config(name)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    seed = int(name.removeprefix("cutoff").removeprefix("-seed") or 0)
    return config.parse_config(workloads.cutoff_config(seed)[0])


@pytest.mark.parametrize(
    "name,reference",
    [("fig1a", "fig1a.csv"), ("fig1b", "fig1b.json"), ("cutoff", "cutoff-seed0.csv")],
)
def test_preset_rows_match_recorded_reference(name, reference):
    # the rows the benchmark records: labels, powers and converged flags are
    # identical, and values stay within 1e-12 of their curve's largest |value|
    want = load_rows((PERFBENCH / "reference" / reference).read_text())
    got = load_rows(emit(run_sweep(_reference_request(name))))
    assert len(got) == len(want)

    def curve(row):
        return row["species"], row["state"], row["mode_a"], row["mode_b"]

    scale = {}
    for row in want:
        scale[curve(row)] = max(scale.get(curve(row), 0.0), abs(row["negativity_normalized"]))
    for row, ref in zip(got, want):
        value, ref_value = row.pop("negativity_normalized"), ref.pop("negativity_normalized")
        assert row == ref
        assert abs(value - ref_value) <= 1e-12 * scale[curve(ref)]


# --- serialization -------------------------------------------------------------


def load_rows(text: str) -> list[dict]:
    """Parse rows back out of emitted CSV or JSON text."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return [dict(row) for row in json.loads(text)["rows"]]
    lines = [line for line in text.splitlines() if line]
    header = tuple(lines[0].split(","))
    if header != CSV_COLUMNS:
        raise ConfigError(f"unexpected CSV header {header!r}")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        rows.append(
            {
                "u": float(parts[0]),
                "negativity_normalized": float(parts[1]),
                "power": int(parts[2]),
                "state": parts[3],
                "species": parts[4],
                "mode_a": int(parts[5]),
                "mode_b": int(parts[6]),
                "converged": parts[7] == "true",
            }
        )
    return rows


def _row_fields(result) -> list[dict]:
    """Every row of a result as a dict keyed by the CSV columns."""
    return [
        {
            "u": u,
            "negativity_normalized": float(result.values[i, j]),
            "power": result.powers[curve.name],
            "state": curve.state,
            "species": curve.species,
            "mode_a": curve.modes[0],
            "mode_b": curve.modes[1],
            "converged": result.converged[curve.name],
        }
        for i, u in enumerate(result.request.grid().tolist())
        for j, curve in enumerate(result.request.curves)
    ]


def _generic_encoding(result, fmt: str) -> str:
    """What emit writes, by the generic encoders: json.dumps of the whole
    payload, or the CSV fields formatted one at a time by type."""
    if fmt == "json":
        payload = {"metadata": sweep._metadata(result),
                   "rows": _row_fields(result)}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def field(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return f"{value:.17g}"
        return str(value)

    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join(field(row[c]) for c in CSV_COLUMNS) for row in _row_fields(result)]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def mixed_result():
    """Negative labels, an excited mode, and one unconverged curve among
    converged ones, so that both boolean spellings appear in the rows."""
    curves = (
        CurveSpec("fpm1m3", "fermion", "one-particle", (-1, -3), -1),
        CurveSpec("fv2m1", "fermion", "vacuum", (2, -1)),
        CurveSpec("boson-vacuum-2-40", "boson", "vacuum", (2, 40)),
    )
    result = run_sweep(SweepRequest(curves=curves, steps=21, n_max=40))
    assert set(result.converged.values()) == {True, False}
    return result


@pytest.mark.parametrize("name", ["fig1a", "fig1b", "mixed"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_matches_the_generic_encoders(name, fmt, mixed_result):
    result = mixed_result if name == "mixed" else run_sweep(config.load_config(name))
    assert emit(result, fmt=fmt) == _generic_encoding(result, fmt)


def test_emit_spells_non_finite_values_as_json_does(mixed_result):
    values = mixed_result.values.copy()
    values.flat[:3] = float("nan"), float("inf"), float("-inf")
    result = dataclasses.replace(mixed_result, values=values)
    for fmt in ("csv", "json"):
        assert emit(result, fmt=fmt) == _generic_encoding(result, fmt)
    assert '"negativity_normalized": NaN' in emit(result, fmt="json")


def test_csv_layout_and_round_trip(small_result):
    text = emit(small_result)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + small_result.values.size
    assert ",true" in text and "True" not in text
    rows = load_rows(text)
    for parsed, row in zip(rows, _row_fields(small_result), strict=True):
        assert parsed["u"] == row["u"]
        assert parsed["negativity_normalized"] == row["negativity_normalized"]
        assert parsed["power"] == row["power"]
        assert parsed["mode_a"] == row["mode_a"]
        assert parsed["converged"] is row["converged"]


def test_emit_is_deterministic(small_result):
    assert emit(small_result) == emit(small_result)
    assert emit(small_result, fmt="json") == emit(small_result, fmt="json")


def test_json_metadata(small_result):
    payload = json.loads(emit(small_result, fmt="json"))
    meta = payload["metadata"]
    assert meta["n_max"] == 32
    assert set(meta) == {
        "version", "config_sha256", "n_max", "u_start", "u_stop", "steps",
        "convergence_gate", "curves",
    }
    assert set(meta["curves"]) == {c.name for c in SMALL_CURVES}
    for info in meta["curves"].values():
        assert info["converged"] is True
    assert payload["rows"] == _row_fields(small_result)


def test_json_and_csv_rows_agree(small_result):
    assert load_rows(emit(small_result, fmt="json")) == load_rows(emit(small_result))


def test_emit_writes_files(small_result, tmp_path):
    out = tmp_path / "rows.csv"
    text = emit(small_result, path=str(out))
    assert out.read_text() == text


def test_emit_rejects_unknown_format(small_result):
    with pytest.raises(ConfigError):
        emit(small_result, fmt="parquet")


def test_load_rows_rejects_foreign_header():
    with pytest.raises(ConfigError):
        load_rows("u,value\n0,1\n")


def test_config_digest_is_sha256():
    assert sweep.config_digest("abc") == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


@given(text=st.text())
def test_config_digest_matches_hashlib(text):
    assert sweep.config_digest(text) == hashlib.sha256(text.encode()).hexdigest()


# --- the closed route on a grid ----------------------------------------------------


STACK_CURVES = (
    CurveSpec("bv14", "boson", "vacuum", (1, 4)),
    CurveSpec("bv13", "boson", "vacuum", (1, 3)),
    CurveSpec("bp14", "boson", "one-particle", (1, 4), 1),
    CurveSpec("bp13", "boson", "one-particle", (1, 3), 1),
    CurveSpec("fv2m1", "fermion", "vacuum", (2, -1)),
    CurveSpec("fv1m1", "fermion", "vacuum", (1, -1)),
    CurveSpec("fp14", "fermion", "one-particle", (1, 4), 1),
    CurveSpec("fpm1m3", "fermion", "one-particle", (-1, -3), -1),
    CurveSpec("fpair2m1", "fermion", "pair", (2, -1)),
)


def test_closed_series_on_a_grid_match_single_points():
    # the grid holds the zeros at u = 0 and 1, where the closed forms switch
    # branch, next to points where they do not
    us = np.linspace(0.0, 1.0, 7)
    for curve in STACK_CURVES:
        j = blocks.junction(curve.species, 40)
        got = curve.series(negativity.TripGrid(j, us))
        want = np.stack([curve.series(negativity.TripGrid(j, u)) for u in us])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))


def _series_at_40(curve, u):
    return curve.series(negativity.TripGrid(blocks.junction(curve.species, 40), u))


# The phase argument 2 pi omega u rounds differently at u + 1 and at 1 - u
# than at u: by up to an ulp of the largest argument, ARGUMENT_ROUNDING
# (|omega| up to 40.5 at n_max 40, u below 2).  The closed series move by
# that times the magnitudes of the terms that their h^2 mode sums add up
# (:func:`_h2_term_scale`), which cancel to a much smaller h^2 on a
# parity-suppressed curve, so the curve's own size sets no bound.  Near a
# zero of the first-order coherence the opened branch divides by it; the
# largest gap measured in 12000 draws was 0.41 of ARGUMENT_ROUNDING times
# the term scale, and the bound is 16 times that product.
ARGUMENT_ROUNDING = 2 * np.pi * 40.5 * 2 * np.finfo(float).eps


def _h2_term_scale(curve):
    """Largest sum over the modes of the products of two first-order lines at
    the curve's labels, each line bounded by the junction's first-order rows
    and columns there: the magnitude of the terms of its h^2 mode sums."""
    j = blocks.junction(curve.species, 40)
    first = [j.a[1]] if curve.species == "fermion" else [j.alpha[1], j.beta[1]]
    at = [list(j.modes).index(m) for m in curve.modes]
    lines = [sum(np.abs(x[:, i]) + np.abs(x[i]) for x in first) for i in at]
    return max(float(a @ b) for a in lines for b in lines)


def _rounding_bound(curve):
    return 16 * ARGUMENT_ROUNDING * _h2_term_scale(curve)


@st.composite
def interior_curves(draw):
    """Curves of every family whose labels lie in the interior window at n_max 40."""
    species = draw(st.sampled_from(["boson", "fermion"]))
    lo, hi = blocks.interior_window(species, 40)
    state = draw(st.sampled_from(sweep.STATES if species == "fermion" else sweep.STATES[:2]))
    if state == "pair":
        modes = (draw(st.integers(0, hi)), draw(st.integers(lo, -1)))
    else:
        a = draw(st.integers(lo, hi))
        modes = (a, draw(st.integers(lo, hi).filter(lambda m: m != a)))
    excite = draw(st.sampled_from(modes)) if state == "one-particle" else None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # curves that vanish identically
        return CurveSpec("c", species, state, modes, excite)


@settings(max_examples=40, deadline=None)
@example(curve=CurveSpec("c", "fermion", "one-particle", (14, 4), 14), u=0.3984375)
@given(curve=interior_curves(), u=st.floats(0.0, 1.0, exclude_max=True))
def test_curve_series_repeat_after_one_period(curve, u):
    # the pinned curve's h^2 is 5.56e-7, a difference of terms summing to
    # 69, and moves by 3.55e-15 a period later
    s_u, s_next = _series_at_40(curve, np.array([u, u + 1.0]))
    assert np.max(np.abs(s_next - s_u)) <= _rounding_bound(curve)


@settings(max_examples=40, deadline=None)
@given(curve=interior_curves(), u=st.floats(0.0, 1.0))
def test_curve_series_is_symmetric_about_half_a_period(curve, u):
    # the junction is real, so the trip at 1 - u is the conjugate of the trip
    # at u (up to the global fermion sign), and no negativity sees either;
    # only the rounding of the phase arguments separates the two values
    s_u, s_mirror = _series_at_40(curve, np.array([u, 1.0 - u]))
    assert np.max(np.abs(s_mirror - s_u)) <= _rounding_bound(curve)


@settings(max_examples=30, deadline=None)
@given(
    labels=st.lists(st.integers(-20, 20), min_size=2, max_size=2, unique=True),
    u=st.floats(0.0, 1.0),
)
def test_pauli_blocked_curves_are_exactly_zero(labels, u):
    # an opposite-charge partner of a one-particle state, and a same-charge
    # vacuum pair, share no negative block at this order; a pair state whose
    # labels differ by an even number has no first-order coherence and only
    # the truncation floor at second order
    a, b = labels
    j = blocks.junction("fermion", 40)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        if (a >= 0) != (b >= 0):
            curves = [CurveSpec("c", "fermion", "one-particle", (a, b), a)]
            if (a - b) % 2 == 0:
                curves.append(CurveSpec("c", "fermion", "pair", (a, b)))
        else:
            curves = [CurveSpec("c", "fermion", "vacuum", (a, b))]
    trip, first = negativity.TripGrid(j, u), negativity.FirstOrderGrid(j, u)
    for curve in curves:
        assert np.array_equal(curve.series(trip), np.zeros(3))
        assert np.array_equal(curve.series(first), np.zeros(2))
    # the closed forms reject the charge configurations that vanish
    with pytest.raises(ValueError):
        if curves[0].state == "one-particle":
            negativity.fermion_particle_closed(trip, a, (a, b))
        else:
            negativity.fermion_vacuum_closed(trip, (a, b))


def test_sweeps_assemble_and_gate_no_trip(monkeypatch):
    # every junction a preset sweep reads is built (and gated) first; after
    # that no trip may be composed: the closed forms read only the junctions,
    # the tables at their labels and the phase tables
    for species in ("boson", "fermion"):
        blocks.junction(species, 40)

    def forbidden(*args, **kwargs):
        raise AssertionError("a sweep assembled a trip")

    monkeypatch.setattr(blocks, "one_way_trip", forbidden)
    monkeypatch.setattr(blocks, "compose", forbidden)
    monkeypatch.setattr(blocks, "invert", forbidden)
    monkeypatch.setattr(bogoliubov, "compose", forbidden)
    monkeypatch.setattr(bogoliubov, "invert", forbidden)
    for name in config.PRESETS:
        assert run_sweep(config.load_config(name)).all_converged


@pytest.mark.parametrize("name", ["fig1a", "fig1b", "cutoff-seed7"])
def test_sweeps_evaluate_closed_forms_only_through_curve_series(name, monkeypatch):
    # CurveSpec.series is the closed route's one entry, so a tracer on it sees
    # every closed evaluation of a sweep: a power-1 curve's h^1 at n_max and
    # at 2 n_max, and for any other curve its h^1 and then its whole series
    # on both cutoffs.  None of these requests holds a curve that vanishes
    # identically, for which series evaluates no form
    counts = {"series": 0, "forms": 0}

    def spy(fn, key):
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    forms = [f for f in vars(negativity) if f.endswith("_closed")]
    assert len(forms) == 5
    for form in forms:
        monkeypatch.setattr(negativity, form, spy(getattr(negativity, form), "forms"))
    monkeypatch.setattr(CurveSpec, "series", spy(CurveSpec.series, "series"))
    result = run_sweep(_reference_request(name))
    assert counts["forms"] == counts["series"]
    assert counts["series"] == sum(2 if p == 1 else 3 for p in result.powers.values())


def test_sweep_forms_phases_once_per_species_and_grid(monkeypatch):
    # fig1a's four curves have power 1: their rows and refinement read only
    # the phases at their two labels, so no (steps, n) table is formed.
    # fig1b's three curves have power 2 and run the whole series on both
    # cutoffs: one table per species, at 2 n_max, of which the n_max table is
    # a column slice; the fermion table computes only the labels >= 0
    calls = []
    real = blocks.free_phases

    def counted(species, modes, u):
        calls.append((species, tuple(np.asarray(modes).tolist()), np.size(u)))
        return real(species, modes, u)

    monkeypatch.setattr(blocks, "free_phases", counted)
    request = config.load_config("fig1a")
    assert run_sweep(request).all_converged
    assert calls and all(len(modes) == 2 and size == request.steps for _, modes, size in calls)

    calls.clear()
    request = config.load_config("fig1b")
    assert set(run_sweep(request).powers.values()) == {2}
    n, steps = 2 * request.n_max, request.steps
    tables = sorted(call for call in calls if len(call[1]) > 2)
    assert tables == [("boson", tuple(range(1, n + 1)), steps), ("fermion", tuple(range(n)), steps)]
    assert all(len(modes) in (2, n) and size == steps for _, modes, size in calls)


def test_sweep_builds_and_gates_only_its_quadrature_junctions(monkeypatch):
    # the 2 n_max refinement reads the junction tables at each curve's labels,
    # so a sweep builds no dense table and no quadrature at 2 n_max, and runs
    # the whole-period gate once per species, on its n_max junction
    built, gated = [], []

    def recorded(source, build):
        def wrapped(species, n_max):
            built.append((source, species, n_max))
            return build(species, n_max)
        return wrapped

    def counted(j, window=None):
        gated.append("boson" if isinstance(j, BosonBogoliubov) else "fermion")
        return bogoliubov.check_period(j, window)

    monkeypatch.setattr(blocks, "_cache", {})
    monkeypatch.setattr(blocks, "build_junction", recorded("quadrature", blocks.build_junction))
    monkeypatch.setattr(
        blocks, "build_table_junction", recorded("tables", blocks.build_table_junction)
    )
    monkeypatch.setattr(blocks, "check_period", counted)
    assert run_sweep(config.load_config("fig1a")).all_converged
    assert built == [("quadrature", "boson", 40), ("quadrature", "fermion", 40)]
    assert gated == ["boson", "fermion"]


def test_closed_route_imports_nothing_from_states():
    src = pathlib.Path(negativity.__file__).parent
    for module in ("negativity", "sweep", "blocks", "bogoliubov", "series"):
        tree = ast.parse((src / f"{module}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
                assert "states" not in names, module
            elif isinstance(node, ast.Import):
                assert all("states" not in alias.name for alias in node.names), module


def _perturbed_junction(monkeypatch, species, size=4.5e-7):
    """Make blocks.build_junction return a junction whose in-window
    first-order block is off by ``size`` in one entry, on an empty junction
    cache.  At n_max 40 and the default size the junction's own weighted
    identity residual is then 3.6e-8, under GATE_TOL, and the bound over the
    trips of the u period 7.2e-8, above it."""
    real = blocks.build_junction

    def build_junction(sp, n_max):
        j = real(sp, n_max)
        if sp != species:
            return j
        i, k = (int(np.flatnonzero(j.modes == m)[0]) for m in (2, 3))
        if sp == "boson":
            alpha = j.alpha.copy()
            alpha[1, i, k] += size
            return BosonBogoliubov(alpha, j.beta, j.modes)
        a = j.a.copy()
        a[1, i, k] += size
        return FermionBogoliubov(a, j.modes)

    monkeypatch.setattr(blocks, "build_junction", build_junction)
    monkeypatch.setattr(blocks, "_cache", {})


@pytest.mark.parametrize("species", ["boson", "fermion"])
def test_trip_gate_catches_a_perturbed_junction(monkeypatch, capsys, species):
    _perturbed_junction(monkeypatch, species)
    curves = tuple(c for c in SMALL_CURVES if c.species == species)
    with pytest.raises(InvariantViolation, match="whole u period"):
        run_sweep(SweepRequest(curves=curves, steps=5, n_max=40))
    assert cli.main(["sweep", "fig1a", "--steps", "5"]) == cli.EXIT_INVARIANT
    assert "invariant violation" in capsys.readouterr().err


@pytest.mark.parametrize("species", ["boson", "fermion"])
def test_junction_failing_its_own_gate_names_the_identity_residual(monkeypatch, species):
    # off by 1e-5, the junction's own weighted residual (8e-7) fires before
    # the whole-period bound that reads the same residual blocks
    _perturbed_junction(monkeypatch, species, size=1e-5)
    with pytest.raises(InvariantViolation, match=r"^identity residual"):
        blocks.junction(species, 40)


def test_curve_warnings_name_the_caller_of_curvespec():
    # stacklevel 2 would name the __init__ that dataclasses generates,
    # whose filename is "<string>"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _curve(name="even", species="fermion", state="pair", modes=(0, -2))
        _curve(name="f", species="fermion", state="one-particle", modes=(1, -2), excite=1)
        _curve(name="f", species="fermion", modes=(1, 2))
    assert len(caught) == 3
    for w in caught:
        assert w.filename != "<string>"
        assert pathlib.Path(w.filename).name == "test_sweep.py"
