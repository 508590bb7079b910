"""Command line entry points and exit codes."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import cavityent
from cavityent import blocks, bogoliubov, cli, oracles, sweep
from cavityent.sweep import CSV_COLUMNS


def test_sweep_preset_to_file(tmp_path):
    out = tmp_path / "rows.csv"
    code = cli.main(["sweep", "fig1a", "--steps", "5", "--out", str(out)])
    assert code == cli.EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 5 * 4  # four curves in the linear panel


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


def test_sweep_rejects_bad_override(capsys):
    assert cli.main(["sweep", "fig1a", "--steps", "1"]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("argv", [["sweep", "fig1a"], ["check"]], ids=["sweep", "check"])
def test_cutoff_below_the_trip_gate_floor_is_a_config_error(argv, capsys):
    assert cli.main(argv + ["--nmax", str(blocks.MIN_N_MAX - 1)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and str(blocks.MIN_N_MAX) in err


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


def test_check_passes_below_the_default_cutoff(capsys):
    # the overlap residual at n_max 32 (1.5e-8 / 1.7e-8) is the truncated
    # tail, above the n_max-40 tolerance of 1e-8 but within its n^-3 law
    assert cli.main(["check", "--nmax", "32"]) == cli.EXIT_OK
    assert "FAIL" not in capsys.readouterr().out


def test_sweep_convergence_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sweep, "CONVERGENCE_GATE", 0.0)
    out = tmp_path / "rows.csv"
    code = cli.main(["sweep", "fig1a", "--steps", "3", "--out", str(out)])
    assert code == cli.EXIT_CONVERGENCE
    assert "convergence gate failed" in capsys.readouterr().err
    # rows are still emitted for inspection
    assert out.exists() and ",false" in out.read_text()


def test_check_reports_all_ok(capsys):
    assert cli.main(["check"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("ok  ") >= 5


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


def test_check_gates_each_junction_once(monkeypatch, capsys):
    # every suite of check reads the same gated junctions: from an empty
    # junction cache, one whole-period gate per species
    gated = []
    original = bogoliubov.check_period

    def counted(j, *args, **kwargs):
        gated.append(type(j).__name__)
        return original(j, *args, **kwargs)

    for module in (bogoliubov, blocks):
        monkeypatch.setattr(module, "check_period", counted)
    monkeypatch.setattr(blocks, "_cache", {})
    assert cli.main(["check"]) == cli.EXIT_OK
    assert sorted(gated) == ["BosonBogoliubov", "FermionBogoliubov"]


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
