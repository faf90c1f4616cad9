"""Strict scenario-file loader (YAML) and bundled scenario lookup.

Each entry kind has one table, `*_KEYS`, that maps each file key to its
`(reader, default)` in the order of the builder's arguments, and `_build`
alone reads an entry by its table. An unknown key is an error: a typo must
fail loudly rather than silently fall back to a default. A required key may be
neither absent nor null, an absent key takes its default, and a present value
goes through its reader. Numbers go through float(), and must be whole where
an integer is meant, so `2.585e9` works whatever YAML makes of it; a YAML
boolean is not a number. What a builder (`Scenario.add_node`/`add_link` for
nodes and links) rejects, like any malformed value, is a ParseError that names
the entry. A tx power's window is checked by `validate_topology` alone.

YAML is read by libyaml (PyYAML's `CSafeLoader`, with PyYAML's own safe
resolver and constructor), the one loader. It builds a document with recursive
C calls, which a deep file overflows, so `loads` first walks the event stream,
which libyaml parses without recursing: it rejects a file that nests deeper
than MAX_DEPTH collections, and any alias (`*name`): scenarios are plain data.
"""
from __future__ import annotations

import dataclasses
from importlib import resources
from pathlib import Path
from typing import Optional

import yaml
from yaml import CSafeLoader

from .errors import ParseError, TopologyError
from .radio import RadioParams
from .topology import (Carrier, DuConfigUpdateDirective, FlowAssert, FlowSpec,
                       IabNodeDirective, Medium, Role, Scenario)

_REQUIRED = object()
MAX_DEPTH = 32  # no scenario value nests deeper than 4


def _build(raw, table: dict, where: str, build):
    """`build` called with the value of each key of `table`, read from
    mapping `raw`; what it rejects is a ParseError naming `where`."""
    if not isinstance(raw, dict):
        raise ParseError(f"{where}: expected a mapping, got {type(raw).__name__}")
    if unknown := raw.keys() - table:
        raise ParseError(f"{where}: unknown key {sorted(unknown, key=str)[0]!r}")
    args = []
    for key, (read, default) in table.items():
        if default is _REQUIRED and raw.get(key) is None:
            raise ParseError(f"{where}: missing required key {key!r}")
        args.append(read(raw[key], where, key) if key in raw else default)
    try:
        return build(*args)
    except (TopologyError, ValueError) as exc:
        raise ParseError(f"{where}: {type(exc).__name__}: {exc}") from None


def _coerce(value, what: str, integer: bool = False):
    try:  # float(True) is 1.0, but a YAML boolean is no number
        x = float(None if isinstance(value, bool) else value)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"{what} is not numeric ({value!r})") from None
    if integer and not x.is_integer():
        raise ParseError(f"{what} is not an integer ({value!r})")
    return int(x) if integer else x


# A reader takes (value, entry, key) and returns its builder's argument, or
# raises a ParseError.
def _num(value, where: str, key: str) -> float:
    return _coerce(value, f"{where}: key {key!r}")


def _int(value, where: str, key: str) -> int:
    return _coerce(value, f"{where}: key {key!r}", integer=True)


def _name(value, where: str, key: str) -> Optional[str]:
    """A name, made a string as every id is; null is None."""
    if isinstance(value, (list, dict)) or value == "":
        raise ParseError(f"{where}: key {key!r} is not a name ({value!r})")
    return None if value is None else str(value)


def _pair(shape: str):
    """The reader of a list of two numbers, written `shape`."""
    def read(value, where: str, key: str) -> tuple[float, float]:
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise ParseError(f"{where}: {key} must be {shape}")
        return (_coerce(value[0], f"{where}: {key}[0]"),
                _coerce(value[1], f"{where}: {key}[1]"))
    return read


def _enum(kind):
    """The reader of a member of enum `kind`, named by its value."""
    def read(value, where: str, key: str):
        try:
            return kind(value)
        except ValueError:
            raise ParseError(f"{where}: unknown {key} {value!r}") from None
    return read


def _one(table: dict, build):
    """The reader of a mapping that is one `table` entry."""
    return lambda value, where, key: _build(value, table, f"{where}:{key}", build)


def _places(value, where: str, key: str) -> list:
    """Each entry of a list section, with the place that names it."""
    if value is None:
        return []
    if not isinstance(value, list):
        raise ParseError(f"{where}:{key}: expected a list, got {type(value).__name__}")
    return [(f"{where}:{key}[{i}]", raw) for i, raw in enumerate(value)]


def _each(table: dict, build):
    """The reader of a list section of `table` entries."""
    return lambda value, where, key: [_build(raw, table, place, build)
                                      for place, raw in _places(value, where, key)]


def _schedule(value, where: str, key: str) -> list:
    """Each directive, read by the table of its `kind`."""
    directives = []
    for place, raw in _places(value, where, key):
        fields = dict(raw) if isinstance(raw, dict) else {}
        kind = fields.pop("kind", None)
        if not isinstance(kind, str) or kind not in DIRECTIVES:
            raise ParseError(f"{place}: unknown directive kind {kind!r}")
        table, build = DIRECTIVES[kind]
        directives.append(_build(fields, table, place, build))
    return directives


CARRIER_KEYS = {"band_label": (lambda value, *_: str(value), ""),
                "center_frequency": (_num, _REQUIRED),
                "bandwidth": (_num, _REQUIRED), "scs": (_num, _REQUIRED)}
_carrier = _one(CARRIER_KEYS, Carrier)
# RadioParams's fields, four of them spelled differently in a file.
RADIO_KEYS = {{"reference_distance_m": "reference_distance",
               "noise_figure_db": "noise_figure",
               "thermal_noise_dbm_hz": "thermal_noise_density",
               "coverage_rsrp_threshold_dbm": "coverage_rsrp_threshold",
               }.get(f.name, f.name): (_num, f.default)
              for f in dataclasses.fields(RadioParams)}
NODE_KEYS = {"role": (_enum(Role), _REQUIRED),
             "position": (_pair("[x, y]"), (0.0, 0.0)),
             "tx_power": (_num, None), "carrier": (_carrier, None),
             "id": (_name, None)}
LINK_KEYS = {"a": (_name, _REQUIRED), "b": (_name, _REQUIRED),
             "medium": (_enum(Medium), _REQUIRED), "wired_capacity": (_num, None),
             "propagation_delay": (_num, None), "id": (_name, None)}
FLOW_KEYS = {"id": (_name, _REQUIRED), "src": (_name, _REQUIRED),
             "dst": (_name, _REQUIRED), "rate": (_num, _REQUIRED),
             "packet_size": (_int, FlowSpec.packet_size_bytes),
             "start": (_num, _REQUIRED), "stop": (_num, _REQUIRED)}
ASSERT_KEYS = {"flow": (_name, _REQUIRED), "window": (_pair("[t0, t1]"), _REQUIRED),
               "min_goodput_bps": (_num, None), "max_goodput_bps": (_num, None)}
# A directive's `kind` picks its table, and is no argument of its builder.
IAB_DIRECTIVE_KEYS = {"at": (_num, _REQUIRED),
                      "position": (_pair("[x, y]"), _REQUIRED),
                      "access_carrier": (_carrier, _REQUIRED),
                      "tx_power": (_num, _REQUIRED), "group": (_name, _REQUIRED),
                      "mt_tx_power": (_num, IabNodeDirective.mt_tx_power_dbm)}
DU_UPDATE_KEYS = {"at": (_num, _REQUIRED), "du": (_name, _REQUIRED),
                  "carrier": (_carrier, _REQUIRED)}
DIRECTIVES = {"instantiate_iab_node": (IAB_DIRECTIVE_KEYS, IabNodeDirective),
              "du_config_update": (DU_UPDATE_KEYS, DuConfigUpdateDirective)}


def _scenario(seed, duration, radio_params, nodes, links, flows, schedule,
              asserts) -> Scenario:
    """A file's scenario, each list its own (an absent section's default, (),
    is shared); its nodes, then its links, are added in file order."""
    scn = Scenario(duration, seed, flows=list(flows), schedule=list(schedule),
                   radio_params=radio_params, asserts=list(asserts))
    for place, raw in nodes:
        _build(raw, NODE_KEYS, place, scn.add_node)
    for place, raw in links:
        _build(raw, LINK_KEYS, place, scn.add_link)
    return scn


TOP_KEYS = {"seed": (_int, Scenario.seed), "duration": (_num, _REQUIRED),
            "radio_defaults": (_one(RADIO_KEYS, RadioParams), RadioParams()),
            "nodes": (_places, ()), "links": (_places, ()),
            "flows": (_each(FLOW_KEYS, FlowSpec), ()),
            "schedule": (_schedule, ()),
            "asserts": (_each(ASSERT_KEYS, FlowAssert), ())}


def loads(text: str, name: str = "<scenario>") -> Scenario:
    try:  # a str is encoded to UTF-8: a lone surrogate is a UnicodeError
        depth = 0
        for event in yaml.parse(text, Loader=CSafeLoader):
            if isinstance(event, yaml.AliasEvent):
                raise ParseError(f"{name}: line {event.start_mark.line + 1}: "
                                 f"an alias is not allowed")
            depth += isinstance(event, yaml.CollectionStartEvent)
            depth -= isinstance(event, yaml.CollectionEndEvent)
            if depth > MAX_DEPTH:
                raise ParseError(f"{name}: nested deeper than {MAX_DEPTH} levels")
        doc = yaml.load(text, Loader=CSafeLoader)
    except (yaml.YAMLError, UnicodeError) as exc:
        raise ParseError(f"{name}: not valid YAML: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{name}: top level must be a mapping")
    return _build(doc, TOP_KEYS, name, _scenario)


def bundled_scenario_path(ref: str) -> Optional[Path]:
    """Resolve a bundled scenario name like 'paper-reference' to a file."""
    fname = ref.replace("-", "_") + ".yaml"
    base = resources.files("iabsim") / "scenarios" / fname
    if base.is_file():
        return Path(str(base))
    return None


def load_scenario(ref: str | Path) -> Scenario:
    """Load a scenario from a path or a bundled scenario name."""
    p = Path(ref)
    if not p.is_file():
        bundled = bundled_scenario_path(str(ref))
        if bundled is None:
            raise ParseError(f"scenario {ref!r} is neither a file nor a "
                             f"bundled scenario name")
        p = bundled
    try:
        text = p.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{p}: {exc}") from None
    return loads(text, name=str(p))
