"""Command line entry points and exit codes."""

import argparse
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import cavityent
from cavityent import blocks, bogoliubov, cli, config, oracles, sweep
from cavityent.sweep import CSV_COLUMNS


def test_sweep_preset_to_file(tmp_path):
    out = tmp_path / "rows.csv"
    code = cli.main(["sweep", "fig1a", "--steps", "5", "--out", str(out)])
    assert code == cli.EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 5 * 4  # four curves in the linear panel


@pytest.mark.parametrize("where", ["missing-directory", "directory", "empty"])
def test_unwritable_out_is_a_config_error_before_any_junction(monkeypatch, capsys, tmp_path, where):
    out = {"missing-directory": str(tmp_path / "missing" / "x.csv"), "directory": str(tmp_path),
           "empty": ""}[where]

    def forbidden(*args, **kwargs):
        raise AssertionError("a junction was built before --out was checked")

    monkeypatch.setattr(blocks, "junction", forbidden)
    monkeypatch.setattr(blocks, "table_junction", forbidden)
    assert cli.main(["sweep", "fig1a", "--out", out]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: --out") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_a_sweep_failing_before_emit_keeps_the_existing_out_file(monkeypatch, tmp_path):
    out = tmp_path / "rows.csv"
    out.write_text("kept\n")

    def failing(request):
        raise bogoliubov.InvariantViolation("gate fired")

    monkeypatch.setattr(sweep, "run_sweep", failing)
    assert cli.main(["sweep", "fig1a", "--out", str(out)]) == cli.EXIT_INVARIANT
    assert out.read_text() == "kept\n"


def test_sweep_json_inferred_from_suffix(tmp_path):
    # needs a grid point off the zeros of the quadratic-panel curves, so
    # five steps rather than three
    out = tmp_path / "rows.json"
    code = cli.main(["sweep", "fig1b", "--steps", "5", "--out", str(out)])
    assert code == cli.EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["metadata"]["steps"] == 5
    assert len(payload["rows"]) == 5 * 3
    assert all(info["power"] == 2 for info in payload["metadata"]["curves"].values())


def test_sweep_to_stdout(capsys):
    code = cli.main(["sweep", "fig1a", "--steps", "3"])
    assert code == cli.EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.startswith(",".join(CSV_COLUMNS))


def test_sweep_rejects_unknown_config(capsys):
    assert cli.main(["sweep", "fig9"]) == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_config_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    # the config digest is of the UTF-8 text; a stray 0xff byte ended in an
    # uncaught UnicodeDecodeError (exit 1) instead of exit 2
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"\xff[curve:x]\nspecies = boson\nstate = vacuum\nmodes = 1, 4\n")
    assert cli.main(["sweep", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "not UTF-8" in err


def test_sweep_rejects_bad_override(capsys):
    assert cli.main(["sweep", "fig1a", "--steps", "1"]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("argv", [["sweep", "fig1a"], ["check"]], ids=["sweep", "check"])
def test_cutoff_below_the_trip_gate_floor_is_a_config_error(argv, capsys):
    assert cli.main(argv + ["--nmax", str(blocks.MIN_N_MAX - 1)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and str(blocks.MIN_N_MAX) in err


@pytest.mark.parametrize(
    "argv",
    [["sweep", "fig1a", "--nmax", "119"], ["check", "--nmax", "119"], ["check", "--nmax", "120"]],
    ids=["sweep-119", "check-119", "check-120"],
)
def test_cutoff_above_the_drift_ceiling_is_a_config_error(argv, capsys):
    # 119 is the first cutoff past blocks.MAX_N_MAX for both subcommands: a
    # sweep's 2 n_max refinement reads the table junction, which has no drift
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("config error") and f"above {blocks.MAX_N_MAX}" in err


@pytest.mark.parametrize(
    "sweep_section,key",
    [("u_start = nan", "u_start"), ("u_stop = inf", "u_stop"),
     ("u_start = 1\nu_stop = 0", "u_stop"), ("u_start = 0.5\nu_stop = 0.5", "u_stop"),
     ("u_start = -1e308\nu_stop = 1e308", "u bounds")],
    ids=["nan-start", "inf-stop", "descending", "empty", "overflowing-span"],
)
def test_malformed_u_grid_is_a_config_error(tmp_path, capsys, sweep_section, key):
    path, out = tmp_path / "grid.cfg", tmp_path / "rows.csv"
    path.write_text(
        f"[sweep]\n{sweep_section}\n[curve:a]\nspecies = boson\nstate = vacuum\nmodes = 1, 4\n"
    )
    assert cli.main(["sweep", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "sweep_section",
    ["u_stop = 1e308", "u_start = 1e17\nu_stop = 1.00000001e17\nsteps = 3"],
    ids=["overflowing-phase", "rounded-phase"],
)
def test_far_integer_u_grid_sweeps_to_zero_rows(tmp_path, sweep_section):
    # every grid point is an integer, where every curve vanishes, and the
    # phases reduce u by their period exactly, however far u lies
    path, out = tmp_path / "grid.cfg", tmp_path / "rows.csv"
    path.write_text(
        f"[sweep]\n{sweep_section}\n[curve:a]\nspecies = boson\nstate = vacuum\nmodes = 1, 4\n"
    )
    assert cli.main(["sweep", str(path), "--out", str(out)]) == cli.EXIT_OK
    rows = out.read_text().splitlines()[1:]
    assert rows and all(row.split(",")[1] == "0" for row in rows)


@pytest.mark.parametrize(
    "species,modes,label",
    [("boson", "1, 50", "50"), ("fermion", "45, -1", "45")],
    ids=["boson", "fermion"],
)
def test_curve_label_beyond_the_cutoff_is_a_config_error(tmp_path, capsys, species, modes, label):
    path = tmp_path / "far.cfg"
    path.write_text(f"[curve:far]\nspecies = {species}\nstate = vacuum\nmodes = {modes}\n")
    assert cli.main(["sweep", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("config error: curve far: mode label " + label)
    assert "n_max 40" in err


def test_even_label_pair_curve_is_zero_and_converged(tmp_path):
    # its first order is a parity zero and its closed second order only the
    # truncation floor, which moved by its own size at the refinement and
    # failed the convergence gate
    path = tmp_path / "even.cfg"
    path.write_text("[curve:even]\nspecies = fermion\nstate = pair\nmodes = 0, -2\n")
    out = tmp_path / "rows.json"
    with pytest.warns(UserWarning, match="even number"):
        code = cli.main(["sweep", str(path), "--steps", "5", "--out", str(out)])
    assert code == cli.EXIT_OK
    info = json.loads(out.read_text())["metadata"]["curves"]["even"]
    assert info["power"] == 0 and info["converged"] is True


def test_cutoff_override_rechecks_curve_labels(tmp_path, capsys):
    path = tmp_path / "deep.cfg"
    path.write_text("[curve:deep]\nspecies = boson\nstate = vacuum\nmodes = 1, 35\n")
    assert cli.main(["sweep", str(path), "--nmax", "34"]) == cli.EXIT_CONFIG
    assert "mode label 35" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["sweep", "fig1a", "--h", "0.5"], ["check", "--h", "0.01"]], ids=["sweep", "check"]
)
def test_removed_h_flag_is_rejected(argv, capsys):
    # with abbreviations allowed, argparse reads --h as --help and exits 0
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_CONFIG
    assert "unrecognized arguments: --h" in capsys.readouterr().err


def test_main_builds_its_parser_once(monkeypatch, capsys):
    # a library caller pays for the parser once per process, not per call
    built, init = [], argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._build_parser.cache_clear()
    try:
        for _ in range(2):
            assert cli.main(["check", "--nmax", "30"]) == cli.EXIT_CONFIG
    finally:
        cli._build_parser.cache_clear()
    assert built.count("cavityent") == 1


CHECK_LINE = re.compile(r"^(ok  |FAIL) (.+) \((\S+) of (\S+)\)$")


def _check(argv, capsys):
    """Exit code and printed lines of ``check``; every line's status must be
    its value < tolerance."""
    code = cli.main(["check", *argv])
    lines = capsys.readouterr().out.splitlines()
    for line in lines:
        status, _, value, tol = CHECK_LINE.match(line).groups()
        assert (status == "ok  ") == (float(value) < float(tol)), line
    return code, lines


def test_check_passes_below_the_default_cutoff(capsys):
    # at the floor, n_max 31, the finite-h identity residual (the truncated
    # mode tail, 1.37e-8 / 1.58e-8) is the largest of any cutoff, and its
    # tolerance follows the same n^-3 law: 2e-8 (40 / 31)^3 = 4.3e-8
    code, lines = _check(["--nmax", "31"], capsys)
    assert code == cli.EXIT_OK and len(lines) == 8


def test_check_passes_at_the_drift_ceiling(capsys):
    # at n_max 118 the identity tolerance is 7.8e-10, 13 times below the
    # n_max 40 one; the residual (2.9e-10 / 3.4e-10) keeps the same share
    code, lines = _check(["--nmax", "118"], capsys)
    assert code == cli.EXIT_OK and len(lines) == 8


def test_perturbed_boson_overlaps_fail_the_identity_line(monkeypatch, capsys):
    # an interior entry of the h = H_REF overlaps off by 1e-7, five times the
    # identity tolerance at n_max 40
    original = oracles.boson_overlaps

    def perturbed(h, n_max, *args, **kwargs):
        alpha, beta = original(h, n_max, *args, **kwargs)
        if np.ndim(h) == 0:
            alpha = alpha.copy()
            alpha[2, 3] += 1e-7
        return alpha, beta

    monkeypatch.setattr(oracles, "boson_overlaps", perturbed)
    code, lines = _check([], capsys)
    assert code == cli.EXIT_INVARIANT
    assert lines[0].startswith("FAIL boson finite-h overlap identities (")
    assert all(line.startswith("ok   ") for line in lines[1:])


def test_check_evaluates_the_identities_at_h_ref_only(monkeypatch, capsys):
    # from an empty junction cache, each species makes one overlap call at
    # the scalar H_REF and one on the junction's ladder
    calls = {"boson": [], "fermion": []}
    for species in calls:
        original = getattr(oracles, f"{species}_overlaps")

        def spy(h, n_max, *args, _species=species, _original=original, **kwargs):
            calls[_species].append(h)
            return _original(h, n_max, *args, **kwargs)

        monkeypatch.setattr(oracles, f"{species}_overlaps", spy)
    monkeypatch.setattr(blocks, "_cache", {})
    assert cli.main(["check"]) == cli.EXIT_OK
    for h_values in calls.values():
        assert len(h_values) == 2
        assert h_values[0] == bogoliubov.H_REF
        np.testing.assert_array_equal(h_values[1], blocks.DEFAULT_LADDER)


def test_sweep_convergence_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sweep, "CONVERGENCE_GATE", 0.0)
    out = tmp_path / "rows.csv"
    code = cli.main(["sweep", "fig1a", "--steps", "3", "--out", str(out)])
    assert code == cli.EXIT_CONVERGENCE
    assert "convergence gate failed" in capsys.readouterr().err
    # rows are still emitted for inspection
    assert out.exists() and ",false" in out.read_text()


def test_truncation_floor_at_integer_u_fails_the_convergence_gate(tmp_path, capsys):
    # at integer u the trip is +-identity and every curve is zero, yet fig1b's
    # fermion h^2 terms, differences of mode sums, keep the closed route's
    # truncation floor: about 5.4e-8 at n_max 40, falling about 8x at 2 n_max,
    # so both deltas read about 0.88; the gate must flag them, never a
    # silent exit 0
    text = (pathlib.Path(config.__file__).parent / "presets" / "fig1b.cfg").read_text()
    for key, value in (("u_start", "0"), ("u_stop", "2"), ("steps", "3"), ("n_max", "40")):
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, count=1, flags=re.M)
    path, out = tmp_path / "integer-u.cfg", tmp_path / "rows.json"
    path.write_text(text)
    assert cli.main(["sweep", str(path), "--out", str(out)]) == cli.EXIT_CONVERGENCE
    curves = json.loads(out.read_text())["metadata"]["curves"]
    assert [name for name, c in curves.items() if not c["converged"]] == [
        "fermion-one-particle-13", "fermion-vacuum-1m1"]
    assert "convergence gate failed for curve fermion-vacuum-1m1" in capsys.readouterr().err


def test_check_reports_all_ok(capsys):
    code, lines = _check([], capsys)
    assert code == cli.EXIT_OK and len(lines) == 8
    assert all(line.startswith("ok   ") for line in lines)


def test_check_cross_checks_every_family(capsys):
    # one curve per state family, the fermion pair included, and both routes
    # agree on its whole series
    families = {(curve.species, curve.state) for curve, _ in cli._crosscheck_states()}
    assert families == {("boson", "vacuum"), ("boson", "one-particle"), ("fermion", "vacuum"),
                        ("fermion", "one-particle"), ("fermion", "pair")}
    assert cli.main(["check"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "ok   closed vs numeric series, all five families" in out


def test_sweep_and_check_never_import_scipy(tmp_path):
    # scipy backs only the Fock oracle of the tests (tests/fock.py); in a
    # fresh interpreter where importing scipy fails, every module of the
    # package imports and both subcommands run
    script = "\n".join([
        "import importlib, pkgutil, sys",
        "sys.modules['scipy'] = None",
        "import cavityent",
        "for info in pkgutil.iter_modules(cavityent.__path__):",
        "    importlib.import_module('cavityent.' + info.name)",
        "from cavityent import cli",
        f"assert cli.main(['sweep', 'fig1a', '--steps', '5', '--out', {str(tmp_path / 'a.csv')!r}]) == 0",
        "assert cli.main(['check']) == 0",
    ])
    src = pathlib.Path(cavityent.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


def test_sweep_and_check_never_import_numpy_polynomial(tmp_path):
    # the quadrature rule is module constants and the numeric route
    # evaluates its order series inline, so neither subcommand pays for
    # importing numpy.polynomial (numpy before 2.0 imports it itself)
    script = "\n".join([
        "import sys, numpy",
        "if 'numpy.polynomial' in sys.modules: sys.exit(77)",
        "from cavityent import cli",
        f"assert cli.main(['sweep', 'fig1a', '--steps', '5', '--out', {str(tmp_path / 'a.csv')!r}]) == 0",
        "assert cli.main(['check']) == 0",
        "assert 'numpy.polynomial' not in sys.modules, 'numpy.polynomial was imported'",
    ])
    src = pathlib.Path(cavityent.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    if proc.returncode == 77:
        pytest.skip(f"numpy {np.__version__} imports numpy.polynomial on import")
    assert proc.returncode == 0, proc.stderr


def test_no_subcommand_loads_openssl(tmp_path):
    # the JSON metadata's config digest comes from CPython's built-in SHA-256,
    # so no subcommand imports hashlib's _hashlib and OpenSSL's libcrypto
    fig1b = tmp_path / "b.json"
    script = "\n".join([
        "import json, sys",
        "from cavityent import cli, config, sweep",
        "assert cli.main(['check']) == 0",
        "assert '_hashlib' not in sys.modules, 'check loaded _hashlib'",
        f"assert cli.main(['sweep', 'fig1a', '--steps', '5', '--out', {str(tmp_path / 'a.csv')!r}]) == 0",
        "assert '_hashlib' not in sys.modules, 'a CSV sweep loaded _hashlib'",
        f"assert cli.main(['sweep', 'fig1b', '--steps', '5', '--out', {str(fig1b)!r}]) == 0",
        "assert '_hashlib' not in sys.modules, 'a JSON sweep loaded _hashlib'",
        f"meta = json.load(open({str(fig1b)!r}))['metadata']",
        "assert meta['config_sha256'] == sweep.config_digest(config.preset_text('fig1b'))",
    ])
    src = pathlib.Path(cavityent.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


CLOSED_STDOUT_ARGV = (["check"], ["sweep", "fig1a", "--steps", "1001"])


@pytest.mark.parametrize(
    "argv, unbuffered",
    [(argv, unbuffered) for unbuffered in (False, True) for argv in CLOSED_STDOUT_ARGV],
    ids=["argv0", "argv1", "argv0-unbuffered", "argv1-unbuffered"],
)
def test_stdout_closed_by_its_reader_exits_without_a_traceback(argv, unbuffered):
    # `cavityent check | head -n 1`: the reader takes one line and closes the
    # pipe.  check flushes each line and the sweep writes about 270 kB of rows
    # at once, more than a pipe holds, so either writes again after the close.
    # Under PYTHONUNBUFFERED a text stdout drops the rest of a short write
    # instead of raising, so the sweep writes its bytes to the byte stream.
    src = pathlib.Path(cavityent.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "cavityent.cli", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=300)
    assert first.strip()
    assert err == b""
    assert proc.returncode == cli.EXIT_CLOSED_STDOUT


def test_perturbed_beta1_table_entry_fails_the_first_order_line():
    # the boson vacuum (1, 4) reads beta1[1, 4] + beta1[4, 1] on the closed
    # route and |beta1[1, 4]| (3.2e-3) in the paper's form: with one entry
    # off by 1e-12 the two part by 1.5e-10 of the form's max, about 7e5 ulps
    tables = {s: blocks.table_junction(s, 40) for s in ("boson", "fermion")}
    fig1a = config.load_config("fig1a")
    label, value, tol = cli._first_order_line(fig1a, tables)
    assert value < tol
    j = tables["boson"]
    beta = j.beta.copy()
    beta[1, 0, 3] += 1e-12
    tables["boson"] = bogoliubov.BosonBogoliubov(j.alpha, beta, j.modes)
    label, value, tol = cli._first_order_line(fig1a, tables)
    assert value > tol and "boson-vacuum-14" in label


def test_fermion_identity_line_reads_the_gates_window():
    # the finite-h identity line's value is the largest unitarity residual of
    # the h = H_REF overlaps over the labels that the junction gate reads
    # (-20..20 at n_max 40, both ends included)
    n_max = 40
    lines = cli._check_lines(n_max)
    next(lines)
    label, value, _ = next(lines)
    assert label == "fermion finite-h overlap identities"
    modes = blocks.fermion_modes(n_max)
    lo, hi = blocks.interior_window("fermion", n_max)
    inside = (modes >= lo) & (modes <= hi)
    assert inside.sum() == 41
    a = oracles.fermion_overlaps(bogoliubov.H_REF, n_max)
    residual = (a @ a.T - np.eye(2 * n_max))[np.ix_(inside, inside)]
    assert value == float(np.max(np.abs(residual)))


def test_same_charge_one_particle_curve_converges_at_a_deep_cutoff(tmp_path):
    # excite 4 on fermion labels (4, 0): the refinement moves the curve by
    # the mode-truncation residual, which falls as n_max^-3 (over the whole
    # grid, 1.29e-3 of the curve's max at n_max 40, 1.11e-4 at 90 and 7.56e-5
    # at 100), so the 1e-4 gate fails at 40 and passes from 93 up
    path = tmp_path / "same-charge.cfg"
    path.write_text(
        "[curve:f]\nspecies = fermion\nstate = one-particle\nmodes = 4, 0\nexcite = 4\n"
    )
    deltas = {}
    for n_max, code in ((40, cli.EXIT_CONVERGENCE), (100, cli.EXIT_OK)):
        out = tmp_path / f"{n_max}.json"
        argv = ["sweep", str(path), "--nmax", str(n_max), "--out", str(out)]
        assert cli.main(argv) == code
        deltas[n_max] = json.loads(out.read_text())["metadata"]["curves"]["f"]["convergence_delta"]
    assert deltas[100] < sweep.CONVERGENCE_GATE < deltas[40]
    assert deltas[100] / deltas[40] == pytest.approx((40 / 100) ** 3, rel=0.2)


def test_check_gates_each_junction_once(monkeypatch, capsys):
    # every suite of check reads the same gated junctions: from an empty
    # junction cache, one whole-period gate per species for the quadrature
    # junction and one for the tables
    gated = []
    original = bogoliubov.check_period

    def counted(j, *args, **kwargs):
        gated.append(type(j).__name__)
        return original(j, *args, **kwargs)

    for module in (bogoliubov, blocks):
        monkeypatch.setattr(module, "check_period", counted)
    monkeypatch.setattr(blocks, "_cache", {})
    assert cli.main(["check"]) == cli.EXIT_OK
    assert sorted(gated) == ["BosonBogoliubov"] * 2 + ["FermionBogoliubov"] * 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "cavityent" in capsys.readouterr().out


def test_sweep_unreached_accuracy_exits_invariant(monkeypatch, capsys):
    # stands in for the junction drift check failing at a large n_max
    def drifted(species, n_max):
        raise oracles.ConvergenceError("junction zeroth order drifted by 1.10e-09")

    monkeypatch.setattr(blocks, "build_junction", drifted)
    monkeypatch.setattr(blocks, "_cache", {})
    assert cli.main(["sweep", "fig1a", "--steps", "3"]) == cli.EXIT_INVARIANT
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "drifted by 1.10e-09" in err[0]
