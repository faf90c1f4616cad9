"""Strict scenario-file loader (YAML) and bundled scenario lookup.

Unknown keys are errors: a typo in a scenario must fail loudly rather than
silently fall back to a default. Numbers go through float(), and must be whole
where an integer is meant, so `2.585e9` works whatever YAML makes of it; a
YAML boolean is not a number. Nodes and links are built through
`Scenario.add_node`/`add_link`; what they reject, like any malformed value, is
a ParseError that names the entry. A tx power's window is checked by
`validate_topology` alone.

YAML is read by libyaml (PyYAML's `CSafeLoader`, with PyYAML's own safe
resolver and constructor), the one loader. It builds a document with recursive
C calls, which a deep file overflows, so `loads` first walks the event stream,
which libyaml parses without recursing: it rejects a file that nests deeper
than MAX_DEPTH collections, and any alias (`*name`): scenarios are plain data.
"""
from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from importlib import resources
from pathlib import Path
from typing import Optional

import yaml
from yaml import CSafeLoader

from .errors import ParseError, TopologyError
from .radio import RadioParams
from .topology import (Carrier, DuConfigUpdateDirective, FlowAssert, FlowSpec,
                       IabNodeDirective, Medium, Role, Scenario)

TOP_KEYS = {"seed", "duration", "radio_defaults", "nodes", "links", "flows",
            "schedule", "asserts"}
NODE_KEYS = {"id", "role", "position", "tx_power", "carrier"}
LINK_KEYS = {"id", "a", "b", "medium", "wired_capacity", "propagation_delay"}
CARRIER_KEYS = {"band_label", "center_frequency", "bandwidth", "scs"}
FLOW_KEYS = {"id", "src", "dst", "rate", "packet_size", "start", "stop"}
ASSERT_KEYS = {"flow", "window", "min_goodput_bps", "max_goodput_bps"}
# The RadioParams field of each file key spelled differently from it.
RADIO_RENAME = {"reference_distance": "reference_distance_m",
                "noise_figure": "noise_figure_db",
                "thermal_noise_density": "thermal_noise_dbm_hz",
                "coverage_rsrp_threshold": "coverage_rsrp_threshold_dbm"}
RADIO_KEYS = ({f.name for f in dataclasses.fields(RadioParams)}
              - set(RADIO_RENAME.values()) | RADIO_RENAME.keys())
IAB_DIRECTIVE_KEYS = {"at", "kind", "position", "access_carrier", "tx_power",
                      "mt_tx_power", "group"}
DU_UPDATE_KEYS = {"at", "kind", "du", "carrier"}
_REQUIRED = object()
MAX_DEPTH = 32  # no scenario value nests deeper than 4


def _check_keys(mapping: dict, allowed: set, where: str, required=()) -> None:
    if not isinstance(mapping, dict):
        raise ParseError(f"{where}: expected a mapping, got {type(mapping).__name__}")
    unknown = set(mapping) - allowed
    if unknown:
        raise ParseError(f"{where}: unknown key {sorted(unknown, key=str)[0]!r}")
    for key in required:
        if mapping.get(key) is None:
            raise ParseError(f"{where}: missing required key {key!r}")


@contextmanager
def _entry(where: str):
    """Re-raise what a model constructor rejects as a ParseError naming `where`."""
    try:
        yield
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


def _num(mapping: dict, key: str, where: str, default=_REQUIRED, integer=False):
    if key not in mapping:
        if default is _REQUIRED:
            raise ParseError(f"{where}: missing required key {key!r}")
        return default
    return _coerce(mapping[key], f"{where}: key {key!r}", integer)


def _int(mapping: dict, key: str, where: str, default=_REQUIRED) -> int:
    return _num(mapping, key, where, default, integer=True)


def _name(mapping: dict, key: str, where: str) -> Optional[str]:
    """A name, made a string as every id is; absent or null is None."""
    value = mapping.get(key)
    if isinstance(value, (list, dict)) or value == "":
        raise ParseError(f"{where}: key {key!r} is not a name ({value!r})")
    return None if value is None else str(value)


def _pair(raw, what: str, shape: str) -> tuple[float, float]:
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ParseError(f"{what} must be {shape}")
    return (_coerce(raw[0], f"{what}[0]"), _coerce(raw[1], f"{what}[1]"))


def _carrier(raw: dict, where: str) -> Carrier:
    _check_keys(raw, CARRIER_KEYS, where)
    with _entry(where):
        return Carrier(band_label=str(raw.get("band_label", "")),
                       center_frequency_hz=_num(raw, "center_frequency", where),
                       bandwidth_hz=_num(raw, "bandwidth", where),
                       scs_hz=_num(raw, "scs", where))


def _radio(raw: dict, where: str) -> RadioParams:
    _check_keys(raw, RADIO_KEYS, where)
    fields = {RADIO_RENAME.get(k, k): _num(raw, k, where) for k in raw}
    with _entry(where):
        return RadioParams(**fields)


def _section(doc: dict, key: str, name: str) -> list:
    raw = doc.get(key)
    if raw is None:
        return []
    if not isinstance(raw, list):
        raise ParseError(f"{name}:{key}: expected a list, got {type(raw).__name__}")
    return raw


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
    _check_keys(doc, TOP_KEYS, name, required=("duration",))

    radio_params = RadioParams()
    if "radio_defaults" in doc:
        radio_params = _radio(doc["radio_defaults"], f"{name}:radio_defaults")

    scn = Scenario(duration_s=_num(doc, "duration", name),
                   seed=_int(doc, "seed", name, default=Scenario.seed),
                   radio_params=radio_params)

    for i, raw in enumerate(_section(doc, "nodes", name)):
        where = f"{name}:nodes[{i}]"
        _check_keys(raw, NODE_KEYS, where, required=("role",))
        try:
            role = Role(raw["role"])
        except ValueError:
            raise ParseError(f"{where}: unknown role {raw['role']!r}") from None
        with _entry(where):
            scn.add_node(role, _pair(raw.get("position", [0, 0]),
                                     f"{where}: position", "[x, y]"),
                         tx_power_dbm=_num(raw, "tx_power", where, default=None),
                         carrier=_carrier(raw["carrier"], f"{where}:carrier")
                         if "carrier" in raw else None,
                         node_id=_name(raw, "id", where))

    for i, raw in enumerate(_section(doc, "links", name)):
        where = f"{name}:links[{i}]"
        _check_keys(raw, LINK_KEYS, where, required=("a", "b", "medium"))
        try:
            medium = Medium(raw["medium"])
        except ValueError:
            raise ParseError(f"{where}: unknown medium {raw['medium']!r}") from None
        with _entry(where):
            scn.add_link(_name(raw, "a", where), _name(raw, "b", where), medium,
                         wired_capacity_bps=_num(raw, "wired_capacity", where,
                                                 default=None),
                         propagation_delay_s=_num(raw, "propagation_delay", where,
                                                  default=None),
                         link_id=_name(raw, "id", where))

    for i, raw in enumerate(_section(doc, "flows", name)):
        where = f"{name}:flows[{i}]"
        _check_keys(raw, FLOW_KEYS, where,
                    required=("id", "src", "dst", "rate", "start", "stop"))
        scn.flows.append(FlowSpec(
            id=_name(raw, "id", where), src=_name(raw, "src", where),
            dst=_name(raw, "dst", where),
            rate_bps=_num(raw, "rate", where),
            packet_size_bytes=_int(raw, "packet_size", where,
                                   default=FlowSpec.packet_size_bytes),
            start_s=_num(raw, "start", where), stop_s=_num(raw, "stop", where)))

    for i, raw in enumerate(_section(doc, "schedule", name)):
        where = f"{name}:schedule[{i}]"
        kind = raw.get("kind") if isinstance(raw, dict) else None
        if kind == "instantiate_iab_node":
            _check_keys(raw, IAB_DIRECTIVE_KEYS, where,
                        required=("position", "access_carrier", "group"))
            scn.schedule.append(IabNodeDirective(
                at_s=_num(raw, "at", where),
                position=_pair(raw["position"], f"{where}: position", "[x, y]"),
                access_carrier=_carrier(raw["access_carrier"],
                                        f"{where}:access_carrier"),
                tx_power_dbm=_num(raw, "tx_power", where),
                mt_tx_power_dbm=_num(raw, "mt_tx_power", where,
                                     default=IabNodeDirective.mt_tx_power_dbm),
                group=_name(raw, "group", where)))
        elif kind == "du_config_update":
            _check_keys(raw, DU_UPDATE_KEYS, where, required=("du", "carrier"))
            scn.schedule.append(DuConfigUpdateDirective(
                at_s=_num(raw, "at", where), du=_name(raw, "du", where),
                carrier=_carrier(raw["carrier"], f"{where}:carrier")))
        else:
            raise ParseError(f"{where}: unknown directive kind {kind!r}")

    for i, raw in enumerate(_section(doc, "asserts", name)):
        where = f"{name}:asserts[{i}]"
        _check_keys(raw, ASSERT_KEYS, where, required=("flow",))
        scn.asserts.append(FlowAssert(
            flow=_name(raw, "flow", where),
            window=_pair(raw.get("window"), f"{where}: window", "[t0, t1]"),
            min_goodput_bps=_num(raw, "min_goodput_bps", where, default=None),
            max_goodput_bps=_num(raw, "max_goodput_bps", where, default=None)))

    return scn


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
