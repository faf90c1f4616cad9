import copy
import math
import re
from functools import reduce
from operator import getitem
from unittest import mock

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from iabsim import (PathMode, Simulator, engine, link_capacity, load_scenario,
                    scenario_io, validate_topology)
from iabsim.cli import main
from iabsim.errors import ParseError
from iabsim.scenario_io import MAX_DEPTH, bundled_scenario_path, loads
from iabsim.topology import Role

from conftest import alias_chain, churn_text, merge_chain, oracle_mismatches


MINIMAL = """
seed: 3
duration: 1.0
nodes:
  - {id: cu, role: CU, position: [0.0, 0.0]}
  - {id: upf, role: Upf, position: [0.0, -1.0]}
  - id: du
    role: DonorDU
    position: [1.0, 0.0]
    tx_power: 23.0
    carrier: {band_label: n41, center_frequency: 2.585e9, bandwidth: 20.0e6, scs: 30.0e3}
links:
  - {id: w, a: cu, b: du, medium: Wired, wired_capacity: 1.0e9}
  - {id: n6, a: cu, b: upf, medium: Wired, wired_capacity: 1.0e9}
"""

N41_YAML = "{band_label: n41, center_frequency: 2.585e9, bandwidth: 20.0e6, scs: 30.0e3}"

# Every section of the format, valid as it stands; each case below breaks one
# entry of it.
FULL = """
seed: 3
duration: 1.0
radio_defaults: {efficiency: 0.55}
nodes:
  - {id: cu, role: CU, position: [0.0, 0.0]}
  - {id: upf, role: Upf, position: [0.0, -1.0]}
  - {id: du, role: DonorDU, position: [1.0, 0.0], tx_power: 23.0, carrier: N41}
  - {id: ue, role: Ue, position: [50.0, 0.0], tx_power: 23.0}
links:
  - {id: w, a: cu, b: du, medium: Wired, wired_capacity: 1.0e9}
  - {id: n6, a: cu, b: upf, medium: Wired, wired_capacity: 1.0e9}
  - {id: r, a: du, b: ue, medium: Radio}
flows:
  - {id: dl, src: upf, dst: ue, rate: 1.0e6, packet_size: 1000, start: 0.1, stop: 0.9}
schedule:
  - {at: 0.5, kind: instantiate_iab_node, position: [880.0, 0.0], tx_power: 43.0,
     access_carrier: N41, group: uav1}
  - {at: 0.6, kind: du_config_update, du: du, carrier: N41}
asserts:
  - {flow: dl, window: [0.2, 0.8], min_goodput_bps: 1.0}
""".replace("N41", N41_YAML)

RADIO_LINK = "{id: r, a: du, b: ue, medium: Radio}"


def broken(old: str, new: str) -> str:
    """FULL with the first `old` replaced by `new`."""
    assert old in FULL
    return FULL.replace(old, new, 1)


def on_radio_link(entry: str) -> str:
    """FULL with `entry`, a `key: value` pair, added to its radio link."""
    return broken(RADIO_LINK, RADIO_LINK[:-1] + f", {entry}}}")


# (scenario text, the entry its error must name); each breaks one entry of
# FULL, or makes a list section a scalar or the top level a list
MALFORMED = {
    "packet-size-text": (broken("packet_size: 1000", "packet_size: big"),
                         "flows[0]"),
    "packet-size-fraction": (broken("packet_size: 1000", "packet_size: 1000.5"),
                             "flows[0]"),
    "packet-size-bool": (broken("packet_size: 1000", "packet_size: true"),
                         "flows[0]"),
    "tx-power-bool": (broken("tx_power: 23.0}", "tx_power: true}"), "nodes[3]"),
    "position-text": (broken("[50.0, 0.0]", "[a, 1]"), "nodes[3]"),
    "position-inf": (broken("[50.0, 0.0]", "[.inf, 0.0]"), "nodes[3]"),
    # The protocol's numbers are constants: a file sets none of them.
    "protocol-text": (broken("nodes:\n", "protocol: {ttl: x}\nnodes:\n"),
                      " unknown key 'protocol'"),
    "radio-defaults-text": (broken("{efficiency: 0.55}", "{efficiency: x}"),
                            "radio_defaults"),
    "radio-defaults-zero-distance": (
        broken("{efficiency: 0.55}", "{reference_distance: 0}"), "radio_defaults"),
    "radio-defaults-negative-exponent": (
        broken("{efficiency: 0.55}", "{pathloss_exponent: -1.0}"),
        "radio_defaults: ValueError: pathloss_exponent must not be negative"),
    # Each made a radio direction's capacity infinite, or one packet's
    # serialization time inf and the summary NaN, and the run exited 0.
    "radio-defaults-negative-noise-figure": (
        broken("{efficiency: 0.55}", "{noise_figure: -1.0e300}"),
        "radio_defaults: ValueError: noise_figure must not be negative"),
    "radio-defaults-noise-density-low": (
        broken("{efficiency: 0.55}", "{thermal_noise_density: -1.0e300}"),
        "radio_defaults: ValueError: thermal_noise_density must be in "
        "[-200, -150] dBm/Hz"),
    "radio-defaults-noise-density-high": (
        broken("{efficiency: 0.55}", "{thermal_noise_density: 0.0}"),
        "radio_defaults: ValueError: thermal_noise_density"),
    "radio-defaults-subnormal-efficiency": (
        broken("{efficiency: 0.55}", "{efficiency: 5.0e-324}"),
        "radio_defaults: ValueError: efficiency must be in [0.01, 1]"),
    "radio-defaults-subnormal-tdd-share": (
        broken("{efficiency: 0.55}", "{tdd_dl_fraction: 5.0e-324}"),
        "radio_defaults: ValueError: tdd_dl_fraction must be in [0.01, 1]"),
    "window-text": (broken("window: [0.2, 0.8]", "window: [a, 0.1]"),
                    "asserts[0]"),
    "assert-no-flow": (broken("{flow: dl, ", "{"), "asserts[0]"),
    "update-no-du": (broken("du: du, carrier", "carrier"), "schedule[1]"),
    "iab-no-position": (broken("position: [880.0, 0.0], ", ""), "schedule[0]"),
    "iab-group-list": (broken("group: uav1", "group: [1, 2]"), "schedule[0]"),
    "iab-no-group": (broken(", group: uav1", ""), "schedule[0]"),
    "iab-group-null": (broken("group: uav1", "group: null"), "schedule[0]"),
    # A node has no owner_group: IAB nodes come only from their directive.
    "owner-group-mapping": (broken("{id: ue, role: Ue,",
                                   "{id: ue, role: Ue, owner_group: {a: 1},"),
                            "nodes[3]: unknown key 'owner_group'"),
    "owner-group": (broken("{id: ue, role: Ue,",
                           "{id: ue, role: Ue, owner_group: uav1,"),
                    "nodes[3]: unknown key 'owner_group'"),
    "iab-mt-node": (broken("role: Ue,", "role: IabMt,"),
                    "nodes[3]: ValueError: an IabMt comes only with its IAB "
                    "node"),
    "node-id-list": (broken("{id: ue, role: Ue,", "{id: [1, 2], role: Ue,"),
                     "nodes[3]"),
    "link-id-mapping": (broken("{id: r, a: du", "{id: {r: 1}, a: du"), "links[2]"),
    "link-id-empty": (broken("{id: r, a: du", "{id: '', a: du"), "links[2]"),
    "link-end-list": (broken("b: ue, medium", "b: [ue], medium"), "links[2]"),
    "link-end-null": (broken("b: ue, medium", "b: null, medium"), "links[2]"),
    "flow-id-list": (broken("{id: dl, src", "{id: [dl], src"), "flows[0]"),
    "flow-src-null": (broken("src: upf, dst", "src: null, dst"), "flows[0]"),
    "flow-dst-mapping": (broken("dst: ue, rate", "dst: {ue: 1}, rate"), "flows[0]"),
    "assert-flow-list": (broken("{flow: dl,", "{flow: [dl],"), "asserts[0]"),
    "update-du-list": (broken("du: du, carrier", "du: [du], carrier"),
                       "schedule[1]"),
    "link-unknown-node": (broken("b: ue, medium", "b: ue9, medium"), "links[2]"),
    "second-cu": (broken("role: Upf", "role: CU"), "nodes[1]"),
    "wired-pair": (broken("a: cu, b: upf", "a: ue, b: upf"), "links[1]"),
    "radio-pair": (broken("b: ue, medium: Radio", "b: cu, medium: Radio"),
                   "links[2]"),
    # A file names no IAB node, so it cannot give an IAB-MT a backhaul to
    # an IabDu (F1 has no route from one): the IabDu entry is refused.
    "radio-mt-to-iab-du": (
        broken("  - {id: ue, role: Ue,",
               "  - {id: idu, role: IabDu, position: [9.0, 0.0], tx_power: 43.0,"
               f" carrier: {N41_YAML}}}\n  - {{id: ue, role: IabMt,").replace(
            "{id: r, a: du,", "{id: r, a: idu,"),
        "nodes[3]: ValueError: an IabDu comes only with its IAB node"),
    "unknown-medium": (broken("medium: Radio", "medium: Laser"),
                       "links[2]: unknown medium 'Laser'"),
    # A second link of a pair loaded, and never carried a packet.
    "link-pair-twice": (broken(RADIO_LINK, "{id: w2, a: du, b: cu, medium: "
                               "Wired, wired_capacity: 1.0e3}\n  - " + RADIO_LINK),
                        "links[2]: ValueError: du and cu are already linked, "
                        "by w"),
    "radio-no-carrier": (broken(f", carrier: {N41_YAML}}}", "}"), "links[2]"),
    # A radio link takes its DU's carrier, and only a DU advertises one.
    "radio-carrier-only-on-ue": (
        broken(f", carrier: {N41_YAML}}}", "}").replace(
            "[50.0, 0.0], tx_power: 23.0}",
            f"[50.0, 0.0], tx_power: 23.0, carrier: {N41_YAML}}}"),
        "nodes[3]"),
    "wired-no-capacity": (broken("Wired, wired_capacity: 1.0e9}", "Wired}"),
                          "links[0]"),
    # A link has no `radio` key, so any per-link radio mapping is refused,
    # whether or not its own entries would be valid radio_defaults.
    **{f"radio-override-{case}": (on_radio_link(f"radio: {overrides}"),
                                  "links[2]: unknown key 'radio'")
       for case, overrides in (("unknown", "{foo: 1}"),
                               ("text", "{efficiency: x}"),
                               ("range", "{efficiency: 2.0}"),
                               ("valid", "{efficiency: 0.5}"))},
    "link-carrier": (on_radio_link(f"carrier: {N41_YAML}"),
                     "links[2]: unknown key 'carrier'"),
    "radio-wired-capacity": (on_radio_link("wired_capacity: 1.0e9"),
                             "links[2]: ValueError"),
    "carrier-bandwidth-nan": (broken("bandwidth: 20.0e6", "bandwidth: .nan"),
                              "nodes[2]"),
    **{f"{section}-scalar": (f"duration: 1.0\n{section}: 5\n", section)
       for section in ("nodes", "links", "flows", "schedule", "asserts")},
    "top-level-list": ("- {duration: 1.0}\n", " top level must be a mapping"),
}

# (scenario text, its one violation): a tx power is a number to the loader,
# and its window is validation's, for a file and for code alike.
OUT_OF_WINDOW = {
    "tx-power-huge": (broken("tx_power: 23.0}", "tx_power: 1.0e300}"),
                      "node ue: tx_power must be in [-100, 80] dBm"),
    "tx-power-tiny": (broken("tx_power: 23.0}", "tx_power: -1.0e300}"),
                      "node ue: tx_power must be in [-100, 80] dBm"),
    "iab-tx-power-huge": (broken("tx_power: 43.0,", "tx_power: 1.0e300,"),
                          "IabNodeDirective at t=0.5: tx_power must be in "
                          "[-100, 80] dBm"),
    "iab-mt-tx-power-huge": (broken("tx_power: 43.0,",
                                    "tx_power: 43.0, mt_tx_power: 1.0e300,"),
                             "IabNodeDirective at t=0.5: tx_power must be in "
                             "[-100, 80] dBm"),
}


class TestStrictParsing:
    def test_full_scenario_is_valid(self):
        assert validate_topology(loads(FULL)).ok

    @pytest.mark.parametrize("text, entry", list(MALFORMED.values()),
                             ids=list(MALFORMED))
    def test_malformed_entry_is_a_parse_error(self, text, entry):
        with pytest.raises(ParseError, match=re.escape(f"<scenario>:{entry}")):
            loads(text)

    @pytest.mark.parametrize("text, violation", list(OUT_OF_WINDOW.values()),
                             ids=list(OUT_OF_WINDOW))
    def test_tx_power_window_is_a_violation(self, text, violation):
        assert validate_topology(loads(text)).violations == [violation]

    def test_unnamed_file_and_run_time_links_get_distinct_ids(self):
        # The run-time access link of the UE once took the id of the file's
        # first unnamed link.
        ue = "  - {id: ue, role: Ue, position: [5.0, 0.0], tx_power: 23.0}\n"
        scn = loads(MINIMAL.replace("{id: w, ", "{").replace("links:", ue + "links:"))
        sim = Simulator(scn, trace_level="summary")
        sim.run()
        assert [l.id for l in scn.links] == ["l1", "n6"]
        assert [l.id for l in sim.scn.links] == ["l1", "n6", "l2"]

    def test_group_names_are_strings(self):
        scn = loads(broken("group: uav1", "group: 7"))
        assert scn.schedule[0].group == "7"
        sim = Simulator(scn, trace_level="summary")
        sim.run()
        assert sim.scn.nodes["7-mt"].role is Role.IAB_MT
        assert sim.scn.find_link("7-mt", "7-du") is not None

    def test_zero_is_an_id_and_null_is_absent(self):
        scn = loads(broken("{id: ue, role: Ue,", "{id: 0, role: Ue,")
                    .replace("b: ue, medium", "b: 0, medium")
                    .replace("dst: ue, rate", "dst: 0, rate")
                    .replace("{id: r, a: du", "{id: null, a: du"))
        assert "0" in scn.nodes and "ue" not in scn.nodes
        assert (scn.links[2].id, scn.links[2].b) == ("l1", "0")
        assert scn.flows[0].dst == "0" and validate_topology(scn).ok

    def test_minimal_scenario_loads(self):
        scn = loads(MINIMAL)
        assert scn.seed == 3
        assert set(scn.nodes) == {"cu", "upf", "du"}
        assert scn.nodes["du"].carrier.bandwidth_hz == 20e6

    def test_unknown_top_level_key_named(self):
        with pytest.raises(ParseError, match="'durationn'"):
            loads(MINIMAL.replace("duration:", "durationn:"))

    def test_unknown_node_key_named(self):
        with pytest.raises(ParseError, match="'txpower'"):
            loads(MINIMAL.replace("tx_power:", "txpower:"))

    def test_unknown_carrier_key_named(self):
        with pytest.raises(ParseError, match="'scss'"):
            loads(MINIMAL.replace("scs:", "scss:"))

    def test_missing_duration(self):
        with pytest.raises(ParseError, match="duration"):
            loads("seed: 1\nnodes: []\n")

    def test_non_numeric_field(self):
        with pytest.raises(ParseError, match="not numeric"):
            loads(MINIMAL.replace("seed: 3", "seed: xyz"))

    def test_invalid_yaml(self):
        with pytest.raises(ParseError, match="not valid YAML"):
            loads("nodes: [unterminated")

    def test_unknown_role(self):
        with pytest.raises(ParseError, match="unknown role"):
            loads(MINIMAL.replace("role: Upf", "role: Core"))

    def test_unknown_directive_kind(self):
        text = MINIMAL + ("schedule:\n"
                          "  - {at: 0.5, kind: teleport, du: du}\n")
        with pytest.raises(ParseError, match="teleport"):
            loads(text)

    def test_duplicate_node_id(self):
        text = MINIMAL.replace("id: upf", "id: cu", 1)
        with pytest.raises(ParseError):
            loads(text)


class TestLibyaml:
    """`loads` reads YAML with libyaml's CSafeLoader only."""

    @pytest.mark.parametrize(
        "text", [bundled_scenario_path("paper-reference").read_text(),
                 bundled_scenario_path("bap-compare").read_text(),
                 churn_text(0), churn_text(3)],
        ids=["paper-reference", "bap-compare", "churn-seed0", "churn-seed3"])
    def test_same_document_as_the_pure_python_loader(self, text):
        assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.safe_load(text)

    def test_no_space_after_a_colon_in_a_flow_mapping_is_a_parse_error(self):
        # PyYAML's pure-Python parser read `position:[...]` as key and value.
        text = MINIMAL.replace("position: [0.0, -1.0]", "position:[0.0, -1.0]")
        assert yaml.safe_load(text)["nodes"][1]["position"] == [0.0, -1.0]
        with pytest.raises(ParseError, match="not valid YAML"):
            loads(text)

    def test_a_tab_after_a_key_loads(self):
        # PyYAML's pure-Python scanner rejected the tab.
        text = MINIMAL.replace("role: DonorDU", "role:\tDonorDU")
        with pytest.raises(yaml.YAMLError):
            yaml.safe_load(text)
        assert loads(text).nodes["du"].role is Role.DONOR_DU

    def test_a_lone_surrogate_is_a_parse_error(self):
        # libyaml is given the text as UTF-8, which a surrogate cannot be.
        with pytest.raises(ParseError, match="not valid YAML"):
            loads("duration: \udc80")

    def test_nesting_is_limited_to_max_depth(self):
        def nested(depth):  # the top-level mapping is one level
            return "duration: " + "[" * (depth - 1) + "]" * (depth - 1)
        with pytest.raises(ParseError, match="not numeric"):
            loads(nested(MAX_DEPTH))
        with pytest.raises(ParseError, match=f"^<scenario>: nested deeper "
                                             f"than {MAX_DEPTH} levels$"):
            loads(nested(MAX_DEPTH + 1))

    def test_a_long_merge_key_chain_is_a_parse_error(self):
        # Loading the 2,000-link chain once recursed past Python's limit.
        for links in (10, 2000):
            with pytest.raises(ParseError, match="^<scenario>: line 1: an "
                                                 "alias is not allowed$"):
                loads(merge_chain(links))

    def test_a_long_alias_chain_is_a_parse_error(self):
        # The 3,001-deep document of the 3,000-link chain once raised a raw
        # RecursionError from the repr of its duration.
        for links in (10, 3000):
            with pytest.raises(ParseError, match="^<scenario>: line 1: an "
                                                 "alias is not allowed$"):
                loads(alias_chain(links))

    def test_an_inline_merge_key_chain_nests_in_the_text(self):
        # With no alias each `<<` merges a mapping nested in the text, so
        # the depth walk bounds the chain before PyYAML flattens it.
        def merges(links):  # links + 2 levels: the top, one a `<<` and {k: 1}
            return "x: " + "{<<: " * links + "{k: 1}" + "}" * links
        assert yaml.load(merges(MAX_DEPTH - 2), Loader=yaml.CSafeLoader) == {
            "x": {"k": 1}}
        with pytest.raises(ParseError, match="unknown key 'x'"):
            loads(merges(MAX_DEPTH - 2))
        with pytest.raises(ParseError, match=f"^<scenario>: nested deeper "
                                             f"than {MAX_DEPTH} levels$"):
            loads(merges(MAX_DEPTH - 1))


class TestBundledScenarios:
    @pytest.mark.parametrize("name", ["paper-reference", "bap-compare"])
    def test_bundled_loads_and_validates(self, name):
        scn = load_scenario(name)
        assert validate_topology(scn).ok
        assert scn.flows and scn.schedule

    def test_bundled_path_resolution(self):
        assert bundled_scenario_path("paper-reference") is not None
        assert bundled_scenario_path("no-such-scenario") is None

    def test_unknown_reference_is_parse_error(self):
        with pytest.raises(ParseError):
            load_scenario("no-such-scenario")

    def test_reload_is_stable(self):
        a, b = load_scenario("paper-reference"), load_scenario("paper-reference")
        assert list(a.nodes) == list(b.nodes)
        assert [l.id for l in a.links] == [l.id for l in b.links]
        assert a.radio_params == b.radio_params
        assert [f.id for f in a.flows] == [f.id for f in b.flows]

    def test_reference_radio_defaults_applied(self):
        scn = load_scenario("paper-reference")
        assert scn.radio_params.pathloss_exponent == 2.2
        assert scn.radio_params.coverage_rsrp_threshold_dbm == -100.0
        assert scn.radio_params.tdd_dl_fraction == 0.7

    def test_file_path_load(self, tmp_path):
        p = tmp_path / "scn.yaml"
        p.write_text(MINIMAL)
        scn = load_scenario(p)
        assert set(scn.nodes) == {"cu", "upf", "du"}

    def test_every_file_key_is_set_by_a_workload(self):
        # A key that neither bundled file nor reconfig-churn sets is surface
        # that no workload varies; the churn seed draws values, not keys.
        docs = [yaml.safe_load(bundled_scenario_path(name).read_text())
                for name in ("paper-reference", "bap-compare")]
        docs += [yaml.safe_load(churn_text(seed)) for seed in (0, 1, 3, 7)]
        used = {name: set() for name in (
            "TOP_KEYS", "NODE_KEYS", "LINK_KEYS", "CARRIER_KEYS", "FLOW_KEYS",
            "ASSERT_KEYS", "RADIO_KEYS", "IAB_DIRECTIVE_KEYS",
            "DU_UPDATE_KEYS")}
        sections = {"nodes": "NODE_KEYS", "links": "LINK_KEYS",
                    "flows": "FLOW_KEYS", "asserts": "ASSERT_KEYS"}
        kinds = {"instantiate_iab_node": "IAB_DIRECTIVE_KEYS",
                 "du_config_update": "DU_UPDATE_KEYS"}
        for doc in docs:
            used["TOP_KEYS"] |= set(doc)
            used["RADIO_KEYS"] |= set(doc.get("radio_defaults", {}))
            for section, name in sections.items():
                for entry in doc.get(section, []):
                    used[name] |= set(entry)
            for directive in doc.get("schedule", []):
                used[kinds[directive["kind"]]] |= set(directive)
            for entry in doc.get("nodes", []) + doc.get("schedule", []):
                for key in ("carrier", "access_carrier"):
                    used["CARRIER_KEYS"] |= set(entry.get(key, {}))
        assert used == {name: getattr(scenario_io, name) for name in used}


# Values a mutation puts in place of any entry: degenerate numbers (1e400 as
# YAML reads it, a string, and as a whole number too big for a float), and
# the other types a section, entry or field may wrongly hold.
ODD_VALUES = [0, -1, 0.0, -1.5, float("nan"), float("inf"), float("-inf"),
              "1e400", 10 ** 400, "x", "", True, None, [], [1, 2], {},
              {"a": 1}]
BUNDLED = {name: yaml.safe_load(bundled_scenario_path(name).read_text())
           for name in ("paper-reference", "bap-compare")}


def mutate(draw, doc):
    """`doc` with one entry, found by a random walk from the top, dropped,
    renamed or replaced by an odd value."""
    odd = lambda: copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and (
            parent is None or draw(st.booleans())):
        keys = list(node) if isinstance(node, dict) else range(len(node))
        key = draw(st.sampled_from(keys))
        parent, node = node, node[key]
    if parent is None:
        return odd()
    op = draw(st.sampled_from(["drop", "rename", "replace"]))
    if op == "replace":
        parent[key] = odd()
    elif isinstance(parent, list):
        del parent[key]
    else:
        value = parent.pop(key)
        if op == "rename":
            parent[draw(st.sampled_from([f"{key}x", "id", "at", 1]))] = value
    return doc


def shortened(doc, factor: float):
    """Scenario file `doc` with its duration and every time in it (flow
    starts and stops, directive times, assert windows) scaled by `factor`."""
    doc = copy.deepcopy(doc)
    doc["duration"] *= factor
    for flow in doc["flows"]:
        flow["start"] *= factor
        flow["stop"] *= factor
    for directive in doc["schedule"]:
        directive["at"] *= factor
    for assert_ in doc.get("asserts", []):
        assert_["window"] = [edge * factor for edge in assert_["window"]]
    return doc


# paper-reference at a tenth of its length: a full-level run takes about
# 0.05 s, against about 0.5 s. It runs with its link buffers scaled too, so
# that a full buffer drains in the scaled time, and still overflows.
SHORT_REFERENCE = shortened(BUNDLED["paper-reference"], 0.1)
SHORT_BUFFER = round(engine.LINK_BUFFER_PACKETS * 0.1)


def load_mutant(draw, doc: dict, n_mutations: int):
    """Scenario file `doc` after `n_mutations` mutations, loaded; None when
    that is a ParseError."""
    doc = copy.deepcopy(doc)
    for _ in range(n_mutations):
        doc = mutate(draw, doc)
    try:
        return loads(yaml.safe_dump(doc))
    except ParseError:
        return None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), name=st.sampled_from(sorted(BUNDLED)),
       n_mutations=st.integers(min_value=1, max_value=3))
def test_mutated_bundled_yaml_fails_only_as_data(data, name, n_mutations):
    """A bundled scenario with keys dropped or renamed, or values swapped for
    other types or degenerate numbers, loads OK, or is a ParseError, or
    validates to violations: never any other exception."""
    scn = load_mutant(data.draw, BUNDLED[name], n_mutations)
    if scn is not None:
        assert isinstance(validate_topology(scn).violations, list)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data(), mode=st.sampled_from(list(PathMode)),
       n_mutations=st.integers(min_value=1, max_value=3))
def test_mutated_yaml_that_validates_runs_to_a_summary(data, mode, n_mutations):
    """A mutant of bap-compare that loads and validates runs to a summary in
    which every packet of every flow is delivered, dropped or in flight."""
    scn = load_mutant(data.draw, BUNDLED["bap-compare"], n_mutations)
    if scn is None or not validate_topology(scn).ok:
        return
    assert_conserved(scn, Simulator(scn, mode=mode, trace_level="summary")
                     .run().summary)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data(), mode=st.sampled_from(list(PathMode)),
       n_mutations=st.integers(min_value=1, max_value=3))
def test_mutated_short_reference_replays_to_its_summary(data, mode,
                                                        n_mutations):
    """A mutant of the shortened paper-reference that loads and validates
    runs at full level to a summary that conserves every flow's packets, and
    that its records give (the trace-replay oracle)."""
    scn = load_mutant(data.draw, SHORT_REFERENCE, n_mutations)
    if scn is None or not validate_topology(scn).ok:
        return
    sim = Simulator(scn, mode=mode)
    with mock.patch.object(engine, "LINK_BUFFER_PACKETS", SHORT_BUFFER):
        trace = sim.run()
    assert_conserved(scn, trace.summary)
    assert oracle_mismatches(sim.scn, trace) == []


def assert_conserved(scn, summary):
    """The summary has every flow of `scn`, and every packet of each one is
    delivered, dropped or in flight."""
    flows = summary["flows"]
    assert list(flows) == [f.id for f in scn.flows]
    for f in flows.values():
        assert f["in_flight"] >= 0
        assert f["injected"] == f["delivered"] + f["dropped"] + f["in_flight"]


# Degenerate numbers, each put in turn at every numeric leaf of a scenario.
SWEPT_VALUES = (0, -1, 1e-300, 1e300, -1e300, 1e308, -1e308, 5e-324)


def numeric_leaves(node, path=()) -> list[tuple]:
    """The path to each int or float leaf of `node`, a YAML document; a
    boolean is no number."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [leaf for key, value in items
                for leaf in numeric_leaves(value, path + (key,))]
    return [path] if type(node) in (int, float) else []


def test_every_numeric_leaf_swept_runs_to_an_exit_code(tmp_path, capsys,
                                                       monkeypatch):
    """Each numeric leaf of the shortened bap-compare set to each swept value
    is run as `iabsim run --trace-level summary`: it exits 0, 1 or 2 and
    never raises, it writes no non-finite summary, and each run's link
    directions all have a finite capacity. Each was broken once: a
    `noise_figure` of -1e300 gave an infinite capacity, a subnormal
    `efficiency` a NaN summary, and a `packet_size` of 1e308 a traceback."""
    doc = shortened(BUNDLED["bap-compare"], 0.1)
    leaves = numeric_leaves(doc)
    assert len(leaves) == 35  # 10 more, like 1.0e9, are strings to YAML
    sims, run = [], Simulator.run

    def kept(sim):
        sims.append(sim)
        return run(sim)
    monkeypatch.setattr(Simulator, "run", kept)
    path, out, failures = tmp_path / "swept.yaml", tmp_path / "o", []
    for *parents, key in leaves:
        for value in SWEPT_VALUES:
            case = copy.deepcopy(doc)
            reduce(getitem, parents, case)[key] = value
            path.write_text(yaml.safe_dump(case))
            where = (*parents, key, value)
            sims.clear()
            try:
                code = main(["run", str(path), "--out", str(out),
                             "--trace-level", "summary"])
            except Exception as exc:
                failures.append((where, repr(exc)))
                continue
            err = capsys.readouterr().err
            if code not in (0, 1, 2) or "error: summary.json" in err:
                failures.append((where, code, err))
            failures += [(where, f"{d.link.id}:{d.src}->{d.dst}")
                         for sim in sims for d in sim._link_dirs.values()
                         if not math.isfinite(link_capacity(sim.scn, d.link,
                                                            d.src))]
    assert failures == []
