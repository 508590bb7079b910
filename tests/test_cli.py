"""Command line entry points and exit codes."""

import json

import pytest

from cavityent import blocks, cache, cli, oracles, sweep
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


def test_oracle_requires_cache_location(capsys, monkeypatch):
    monkeypatch.delenv(cache.ENV_VAR, raising=False)
    assert cli.main(["oracle"]) == cli.EXIT_CONFIG
    assert cache.ENV_VAR in capsys.readouterr().err


def test_oracle_regen_validate_cycle(tmp_path, capsys):
    base = ["oracle", "--nmax", "12", "--cache-dir", str(tmp_path)]
    assert cli.main(base) == cli.EXIT_OK
    assert len(list(tmp_path.iterdir())) == 2  # one table per species
    assert cli.main(base + ["--validate"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out.count("ok  ") == 2


def test_oracle_validate_detects_tampering(tmp_path, capsys):
    base = ["oracle", "--nmax", "12", "--cache-dir", str(tmp_path)]
    assert cli.main(base) == cli.EXIT_OK
    victim = sorted(tmp_path.iterdir())[0]
    text = victim.read_text().splitlines()
    head, tail = text[-1].rsplit(" ", 2)[0], text[-1].rsplit(" ", 2)[1:]
    text[-1] = f"{head} {float(tail[0]) + 1e-6:.17g} {tail[1]}"
    victim.write_text("\n".join(text) + "\n")
    assert cli.main(base + ["--validate"]) == cli.EXIT_INVARIANT
    assert "FAIL" in capsys.readouterr().out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "cavityent" in capsys.readouterr().out


def test_sweep_unreached_accuracy_exits_invariant(monkeypatch, capsys):
    # stands in for the junction drift check failing at a large n_max
    def drifted(species, n_max, ladder=None):
        raise oracles.ConvergenceError("junction zeroth order drifted by 1.10e-09")

    monkeypatch.setattr(blocks, "build_junction", drifted)
    monkeypatch.setattr(blocks, "_cache", {})
    assert cli.main(["sweep", "fig1a", "--steps", "3"]) == cli.EXIT_INVARIANT
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "drifted by 1.10e-09" in err[0]
