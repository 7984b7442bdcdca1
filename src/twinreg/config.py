"""Plain-text config parsing (key = value lines, bracketed sections).

Sections mirror the dataclass field names exactly:

    [tsvr]       p1, p2, p3, p4, eps1, eps2
    [kernel]     kind, tau
    [hierarchy]  max_layers, tau1, scale_divisor, s_factor, eps,
                 tube_tolerance, stop_residual_var, stop_rel_improvement,
                 pruning_enabled, p3, p4 (the per-layer ridges; p4 defaults
                 to p3)
    [grid]       exponent_low, exponent_high, exponent_step, tie_p1_p2,
                 tie_p3_p4, tie_eps, objective, tuning_fraction
    [suite]      datasets, regressors, n_seeds, base_seed, outdir
                 (plus csv_path.<name> entries for file-backed datasets)

Each key is parsed by the type of its field; booleans take configparser's
words and datasets/regressors are comma lists.  ``auto``, ``none`` or a blank
value (or a missing key) selects the default of optional numbers such as tau1.
"""

from __future__ import annotations

import configparser
import typing
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

from .benchmark import SuiteSpec
from .hierarchy import HierarchyConfig
from .search import GridSpec
from .tsvr import KernelSpec, TsvrParams


class ConfigError(Exception):
    pass


def _read(path: str | Path) -> configparser.ConfigParser:
    # Values are taken as written: without interpolation a "%" is just text.
    parser = configparser.ConfigParser(interpolation=None)
    try:
        found = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    if not found:
        raise ConfigError(f"cannot read config file {path}")
    return parser


# Field type -> parser.  Fields of other types (nested specs, dicts) are not
# INI keys; configparser has already stripped the values.
_PARSERS = {
    int: int,
    float: float,
    float | None: lambda s: None if s.lower() in ("auto", "none", "") else float(s),
    bool: lambda s: configparser.ConfigParser.BOOLEAN_STATES[s.lower()],
    str: str,
    str | None: str,
    tuple[str, ...]: lambda s: tuple(n.strip() for n in s.split(",") if n.strip()),
}


def _value(section, key: str, hint):
    raw = section[key]
    try:
        return _PARSERS[hint](raw)
    except (KeyError, ValueError) as exc:  # KeyError: not a boolean word
        expected = getattr(hint, "__name__", hint)
        raise ConfigError(f"{key}: expected {expected}, got {raw!r}") from exc


def _keys(cls, section) -> dict:
    """The keys of ``section`` that name fields of ``cls``, parsed by field type."""
    hints = typing.get_type_hints(cls)
    return {
        f.name: _value(section, f.name, hints[f.name])
        for f in fields(cls)
        if f.name in section and hints[f.name] in _PARSERS
    }


def _build(cls, **kwargs):
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _section(parser: configparser.ConfigParser, name: str):
    return parser[name] if parser.has_section(name) else {}


def kernel_from(parser: configparser.ConfigParser) -> KernelSpec:
    return _build(KernelSpec, **_keys(KernelSpec, _section(parser, "kernel")))


def tsvr_params_from(path: str | Path) -> TsvrParams:
    parser = _read(path)
    if not parser.has_section("tsvr"):
        raise ConfigError(f"{path}: missing [tsvr] section")
    values = _keys(TsvrParams, parser["tsvr"])
    return _build(TsvrParams, **values, kernel=kernel_from(parser))


def hierarchy_config_from(path: str | Path) -> HierarchyConfig:
    parser = _read(path)
    section = _section(parser, "hierarchy")
    p3 = _value(section, "p3", float) if "p3" in section else TsvrParams.p3
    p4 = _value(section, "p4", float) if "p4" in section else p3
    base = _build(TsvrParams, p3=p3, p4=p4)
    return _build(HierarchyConfig, **_keys(HierarchyConfig, section), base_params=base)


def grid_spec_from(path: str | Path, base: GridSpec = GridSpec()) -> GridSpec:
    """``base`` with the ``[grid]`` keys of the file and its kernel."""
    parser = _read(path)
    values = _keys(GridSpec, _section(parser, "grid"))
    return _build(partial(replace, base), **values, kernel=kernel_from(parser))


def suite_from(path: str | Path) -> SuiteSpec:
    parser = _read(path)
    if not parser.has_section("suite"):
        raise ConfigError(f"{path}: missing [suite] section")
    section = parser["suite"]
    values = _keys(SuiteSpec, section)
    # configparser lowercases option names, so each csv_path.<name> is matched
    # to its dataset the same way and keyed by the name as written in datasets.
    written = {name.lower(): name for name in values.get("datasets", ())}
    csv_paths = {}
    for key, value in section.items():
        if key.startswith("csv_path."):
            name = key.split(".", 1)[1]
            csv_paths[written.get(name, name)] = value
    return _build(
        SuiteSpec,
        **values,
        grid=grid_spec_from(path),
        hierarchy_base=hierarchy_config_from(path),
        csv_paths=csv_paths,
    )
