"""INI config parsing and the shipped presets."""

import dataclasses
import hashlib

import pytest

from cavityent import config
from cavityent.sweep import ConfigError, SweepRequest, config_digest

MINIMAL = """\
[curve:boson-vacuum-14]
species = boson
state = vacuum
modes = 1, 4
"""


def test_minimal_config_gets_defaults():
    req = config.parse_config(MINIMAL)
    assert (req.u_start, req.u_stop, req.steps) == (0.0, 1.0, 101)
    assert req.n_max == 40
    assert len(req.curves) == 1
    assert req.curves[0].name == "boson-vacuum-14"
    assert req.curves[0].modes == (1, 4)
    assert req.config_sha256 == config_digest(MINIMAL)


def test_sweep_section_overrides():
    text = "[sweep]\nsteps = 11\nn_max = 32\nu_stop = 2.0\n" + MINIMAL
    req = config.parse_config(text)
    assert (req.steps, req.n_max, req.u_stop) == (11, 32, 2.0)
    # a key the section leaves out keeps the request's default
    assert req.u_start == SweepRequest.u_start


def test_excite_key_parsed():
    text = MINIMAL.replace("state = vacuum", "state = one-particle\nexcite = 1")
    req = config.parse_config(text)
    assert req.curves[0].excite == 1


@pytest.mark.parametrize(
    "text",
    [
        "[sweep]\nstepz = 3\n" + MINIMAL,  # unknown sweep key
        "[sweep]\nh = 0.01\n" + MINIMAL,  # sweeps report h -> 0 coefficients
        "[sweep]\ntemplate = single-arc\n" + MINIMAL,  # one scenario only
        MINIMAL + "colour = red\n",  # unknown curve key
        "[general]\nx = 1\n" + MINIMAL,  # unknown section
        "[curve:]\nspecies = boson\nstate = vacuum\nmodes = 1, 4\n",  # unnamed
        "[curve:c]\nstate = vacuum\nmodes = 1, 4\n",  # missing species
        MINIMAL.replace("1, 4", "1"),  # one mode label
        MINIMAL.replace("1, 4", "one, 4"),  # non-integer label
        "[sweep]\nsteps = many\n" + MINIMAL,  # uncastable value
        "not ini at all [",
        "",  # no curves at all
    ],
)
def test_bad_configs_are_rejected(text):
    with pytest.raises(ConfigError):
        config.parse_config(text)


def test_preset_fig1a():
    req = config.load_config("fig1a")
    names = [c.name for c in req.curves]
    assert len(names) == 4
    assert req.steps == 101 and req.n_max == 40
    species = {c.species for c in req.curves}
    assert species == {"boson", "fermion"}
    # the linear-order panel mixes vacuum and one-particle curves
    states = {c.state for c in req.curves}
    assert states == {"vacuum", "one-particle"}


def test_preset_fig1b():
    req = config.load_config("fig1b")
    assert len(req.curves) == 3
    # every curve in the quadratic panel pairs modes of equal label parity
    for c in req.curves:
        assert (c.modes[0] - c.modes[1]) % 2 == 0


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        config.preset_text("fig9")


def test_load_config_from_path(tmp_path):
    p = tmp_path / "sweep.cfg"
    p.write_text(MINIMAL)
    req = config.load_config(str(p))
    assert req.curves[0].name == "boson-vacuum-14"
    assert req.config_sha256 == config_digest(MINIMAL)


def test_load_config_missing_path():
    with pytest.raises(ConfigError):
        config.load_config("/no/such/file.cfg")


def test_config_with_a_byte_order_mark_parses_as_the_plain_file(tmp_path):
    # editors that save "UTF-8 with BOM" put U+FEFF before the first header
    plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
    plain.write_text(MINIMAL, encoding="utf-8")
    bom.write_text(MINIMAL, encoding="utf-8-sig")
    want = config.load_config(str(plain))
    got = config.load_config(str(bom))
    assert dataclasses.replace(got, config_text=want.config_text) == want
    # the digest stays that of the whole file, as sha256sum prints it
    assert got.config_sha256 == hashlib.sha256(bom.read_bytes()).hexdigest()
    assert got.config_sha256 != want.config_sha256


@pytest.mark.parametrize(
    "text",
    [
        "\ufeff\ufeff" + MINIMAL,  # only one mark is skipped
        "not ini at all [",
        MINIMAL + "dangling line\n",
        MINIMAL + "[curve:boson-vacuum-14]\n",  # duplicate section
        MINIMAL + "modes = 2, 3\n",  # duplicate key
    ],
    ids=["two-marks", "no-header", "bad-line", "duplicate-section", "duplicate-key"],
)
def test_malformed_config_reason_is_one_line(text):
    with pytest.raises(ConfigError, match="^malformed config: ") as exc:
        config.parse_config(text)
    assert "\n" not in str(exc.value)
    assert "line" in str(exc.value)


def test_malformed_config_reason_names_its_source(tmp_path, monkeypatch):
    path = tmp_path / "bad.cfg"
    path.write_text(MINIMAL + "stray line\n", encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        config.load_config(str(path))
    assert repr(str(path)) in str(exc.value) and "<string>" not in str(exc.value)
    # a preset is named by its preset name
    monkeypatch.setattr(config, "preset_text", lambda name: MINIMAL + "stray line\n")
    with pytest.raises(ConfigError) as exc:
        config.load_config("fig1a")
    assert "'fig1a'" in str(exc.value) and "<string>" not in str(exc.value)
