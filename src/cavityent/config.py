"""Sweep configuration files.

The format is flat INI text: one ``[sweep]`` section for the grid and cutoff
settings (``u_start``, ``u_stop``, ``steps``, ``n_max``; no value of h, since
sweeps report the h -> 0 coefficients), and one ``[curve:NAME]`` section per
curve.  Unknown sections or keys are rejected rather than ignored, so a typo
cannot silently change what gets computed.  Two presets ship with the
package and can be named in place of a config path on the command line.

Example::

    [sweep]
    steps = 101

    [curve:boson-vacuum]
    species = boson
    state = vacuum
    modes = 1, 4
"""

from __future__ import annotations

import configparser
from importlib import resources

from .sweep import ConfigError, CurveSpec, SweepRequest

# each [sweep] key and its cast; a key the section leaves out keeps
# SweepRequest's default
SWEEP_KEYS = {"u_start": float, "u_stop": float, "steps": int, "n_max": int}
CURVE_KEYS = {"species", "state", "modes", "excite"}
PRESETS = ("fig1a", "fig1b")


def _parse_modes(raw: str, where: str) -> tuple[int, int]:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"{where}: modes wants two comma-separated labels, got {raw!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ConfigError(f"{where}: bad mode label in {raw!r}") from exc


def _get(section, key: str, cast, where: str):
    try:
        return cast(section[key])
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key}: {section[key]!r}") from exc


def parse_config(text: str, source: str = "<string>") -> SweepRequest:
    """Parse and validate config text into a sweep request.

    ``source`` names the text in parse errors: a path or a preset name.  One
    leading byte-order mark is skipped; ``config_sha256`` stays the digest of
    the whole text.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text.removeprefix("\ufeff"), source)
    except configparser.Error as exc:
        # configparser's messages run over several lines; a reason is one
        reason = " ".join(str(exc).split())
        raise ConfigError(f"malformed config: {reason}") from exc

    sweep_kwargs = {}
    curves = []
    for section in parser.sections():
        body = parser[section]
        if section == "sweep":
            unknown = set(body) - SWEEP_KEYS.keys()
            if unknown:
                raise ConfigError(f"[sweep]: unknown keys {sorted(unknown)}")
            sweep_kwargs = {
                key: _get(body, key, cast, "[sweep]")
                for key, cast in SWEEP_KEYS.items() if key in body
            }
        elif section.startswith("curve:"):
            name = section[len("curve:"):].strip()
            if not name:
                raise ConfigError("curve sections need a name: [curve:NAME]")
            unknown = set(body) - CURVE_KEYS
            if unknown:
                raise ConfigError(f"[{section}]: unknown keys {sorted(unknown)}")
            for key in ("species", "state", "modes"):
                if key not in body:
                    raise ConfigError(f"[{section}]: missing required key {key}")
            curves.append(
                CurveSpec(
                    name=name,
                    species=body["species"].strip(),
                    state=body["state"].strip(),
                    modes=_parse_modes(body["modes"], f"[{section}]"),
                    excite=_get(body, "excite", int, f"[{section}]") if "excite" in body else None,
                )
            )
        else:
            raise ConfigError(f"unknown section [{section}]")

    return SweepRequest(curves=tuple(curves), config_text=text, **sweep_kwargs)


def preset_text(name: str) -> str:
    """Raw config text of a shipped preset."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r} (have {', '.join(PRESETS)})")
    return resources.files("cavityent").joinpath("presets", f"{name}.cfg").read_text()


def load_config(source: str) -> SweepRequest:
    """Load a config from a file path or a preset name."""
    if source in PRESETS:
        return parse_config(preset_text(source), source)
    # UTF-8 whatever the locale: config_sha256 is the digest of the UTF-8 text
    try:
        with open(source, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {source!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {source!r} is not UTF-8 text: {exc}") from exc
    return parse_config(text, source)
