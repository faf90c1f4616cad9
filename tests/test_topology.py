import json
from types import SimpleNamespace

import pytest

from iabsim import Simulator
from iabsim.cli import _check_asserts
from iabsim.errors import (DuplicateCu, DuplicateUpf, IllegalMedium,
                           MissingCarrier, UnknownNode)
from iabsim.topology import (IAB_INTERNAL_CAPACITY_BPS, MAX_INJECTED_PACKETS,
                             Carrier,
                             DuConfigUpdateDirective, FlowAssert, FlowSpec,
                             IabNodeDirective, Medium, Role, Scenario,
                             validate_topology)

from conftest import N41, N78, build_donor_scenario, build_mini_scenario


def with_flow(duration, **flow) -> Scenario:
    """A donor scenario of `duration` with one downlink flow over all of it;
    `flow` sets or overrides its fields."""
    scn = build_donor_scenario(duration=duration)
    scn.flows.append(FlowSpec(**dict(id="dl", src="upf", dst="ue1",
                                     stop_s=duration) | flow))
    return scn


def with_assert(flow="dl", **bounds) -> Scenario:
    """`with_flow(1.0)` at 1 Mbit/s with one assert on `flow`."""
    scn = with_flow(1.0, rate_bps=1e6)
    scn.asserts.append(FlowAssert(flow=flow, **bounds))
    return scn


def with_ghost_end(scn) -> Scenario:
    """`scn` with a radio link from donor-du to ue1 whose UE end then moves
    to a node that does not exist. A link enters only through add_link, and
    its ends are fixed, so only object.__setattr__ moves one."""
    scn.add_link("donor-du", "ue1", Medium.RADIO, link_id="r")
    object.__setattr__(scn.links[-1], "b", "ghost")
    return scn


def with_iab_nodes(scn, *groups) -> Scenario:
    """`scn` with one instantiate_iab_node directive per group."""
    scn.schedule += [IabNodeDirective(at_s=0.1, position=(880.0, 0.0),
                                      access_carrier=N78, tx_power_dbm=43.0,
                                      group=g) for g in groups]
    return scn


class TestConstruction:
    def test_duplicate_cu_rejected(self):
        scn = Scenario(duration_s=1.0)
        scn.add_node(Role.CU, (0, 0))
        with pytest.raises(DuplicateCu):
            scn.add_node(Role.CU, (1, 1))

    def test_duplicate_upf_rejected(self):
        scn = Scenario(duration_s=1.0)
        scn.add_node(Role.UPF, (0, 0))
        with pytest.raises(DuplicateUpf):
            scn.add_node(Role.UPF, (1, 1))

    def test_duplicate_node_id_rejected(self):
        scn = Scenario(duration_s=1.0)
        scn.add_node(Role.UE, (0, 0), node_id="x")
        with pytest.raises(ValueError):
            scn.add_node(Role.UE, (1, 1), node_id="x")

    def test_duplicate_link_id_rejected(self):
        scn = build_donor_scenario()
        with pytest.raises(ValueError, match="duplicate link id 'n6-wire'"):
            scn.add_link("cu", "upf", Medium.WIRED, wired_capacity_bps=1e9,
                         link_id="n6-wire")

    def test_generated_ids_skip_taken_ones(self):
        scn = build_donor_scenario()
        scn.add_link("donor-du", "ue1", Medium.RADIO, link_id="l1")
        scn.add_node(Role.UE, (9.0, 0.0), tx_power_dbm=23.0, node_id="n3")
        assert scn.add_link("donor-du", "ue2", Medium.RADIO) == "l2"
        assert scn.add_node(Role.UE, (8.0, 0.0), tx_power_dbm=23.0) == "n4"

    def test_unknown_node_lookup(self):
        with pytest.raises(UnknownNode):
            Scenario(duration_s=1.0).node("nope")

    @pytest.mark.parametrize("graph", ["nodes", "links", "_counter"])
    def test_nodes_and_links_are_not_init_arguments(self, graph):
        with pytest.raises(TypeError):
            Scenario(duration_s=1.0, **{graph: {}})

    @pytest.mark.parametrize("end", ["cu", "ue1"])
    def test_link_to_unknown_node_rejected(self, end):
        scn = build_donor_scenario()
        with pytest.raises(UnknownNode, match="ghost"):
            scn.add_link(end, "ghost", Medium.WIRED, wired_capacity_bps=1e9)

    def test_wired_link_between_ue_and_cu_rejected(self):
        scn = Scenario(duration_s=1.0)
        cu = scn.add_node(Role.CU, (0, 0))
        ue = scn.add_node(Role.UE, (1, 0), tx_power_dbm=23.0)
        with pytest.raises(IllegalMedium):
            scn.add_link(cu, ue, Medium.WIRED, wired_capacity_bps=1e9)

    def test_radio_link_between_cu_and_upf_rejected(self):
        scn = Scenario(duration_s=1.0)
        cu = scn.add_node(Role.CU, (0, 0))
        upf = scn.add_node(Role.UPF, (1, 0))
        with pytest.raises(IllegalMedium):
            scn.add_link(cu, upf, Medium.RADIO)

    def test_radio_link_requires_carrier(self):
        scn = Scenario(duration_s=1.0)
        du = scn.add_node(Role.DONOR_DU, (0, 0), tx_power_dbm=23.0)
        ue = scn.add_node(Role.UE, (10, 0), tx_power_dbm=23.0)
        with pytest.raises(MissingCarrier):
            scn.add_link(du, ue, Medium.RADIO)
        assert scn.links == []

    @pytest.mark.parametrize("role", [Role.CU, Role.UPF, Role.UE, Role.IAB_MT])
    def test_only_a_du_advertises_a_carrier(self, role):
        scn = Scenario(duration_s=1.0)
        with pytest.raises(ValueError, match="advertises no carrier"):
            scn.add_node(role, (0, 0), tx_power_dbm=23.0, carrier=N41)
        assert scn.nodes == {}

    @pytest.mark.parametrize("role", [Role.IAB_MT, Role.IAB_DU])
    def test_add_node_refuses_an_iab_role(self, role):
        # A lone IabMt once validated, and its bring-up raised AttributeError.
        scn = build_donor_scenario()
        with pytest.raises(ValueError, match="only with its IAB node"):
            scn.add_node(role, (880.0, 0.0), tx_power_dbm=23.0, node_id="x")
        assert "x" not in scn.nodes

    def test_second_link_between_two_nodes_rejected(self):
        # It loaded, and never carried a packet: find_link gives the first.
        scn = build_donor_scenario()
        with pytest.raises(ValueError, match="donor-du and cu are already "
                                             "linked, by f1-wire"):
            scn.add_link("donor-du", "cu", Medium.WIRED, wired_capacity_bps=1e3)
        assert len(scn.links) == 2

    def test_radio_link_takes_no_wired_capacity(self):
        scn = build_donor_scenario()
        with pytest.raises(ValueError, match="no wired_capacity_bps"):
            scn.add_link("donor-du", "ue1", Medium.RADIO,
                         wired_capacity_bps=1e9)
        assert scn.find_link("donor-du", "ue1") is None

    @pytest.mark.parametrize("du_first", [True, False])
    def test_radio_link_defaults_to_its_dus_carrier(self, du_first):
        scn = build_donor_scenario()
        scn.add_node(Role.UE, (10, 0), tx_power_dbm=23.0, node_id="ue3")
        ends = ("donor-du", "ue3") if du_first else ("ue3", "donor-du")
        scn.add_link(*ends, Medium.RADIO)
        assert scn.find_link("donor-du", "ue3").carrier == N41

    def test_radio_propagation_delay_defaults_to_distance_over_c(self):
        scn = Scenario(duration_s=1.0)
        du = scn.add_node(Role.DONOR_DU, (0, 0), tx_power_dbm=23.0, carrier=N41)
        ue = scn.add_node(Role.UE, (299.792458, 0), tx_power_dbm=23.0)
        lid = scn.add_link(du, ue, Medium.RADIO)
        link = next(l for l in scn.links if l.id == lid)
        assert link.propagation_delay_s == pytest.approx(1e-6)

    def test_carrier_validation(self):
        with pytest.raises(ValueError):
            Carrier("x", 2.585e9, -1.0, 30e3)
        with pytest.raises(ValueError):
            Carrier("x", 2.585e9, 20e6, 12345.0)
        with pytest.raises(ValueError):
            Carrier("x", 5e6, 20e6, 30e3)  # center below half the bandwidth


class TestValidation:
    def test_reference_topology_is_valid(self):
        assert validate_topology(build_donor_scenario()).ok

    def test_missing_upf_reported_as_data(self):
        scn = Scenario(duration_s=1.0)
        cu = scn.add_node(Role.CU, (0, 0))
        du = scn.add_node(Role.DONOR_DU, (1, 0), tx_power_dbm=23.0, carrier=N41)
        scn.add_link(cu, du, Medium.WIRED, wired_capacity_bps=1e9)
        report = validate_topology(scn)
        assert not report.ok
        assert "no UPF" in report.violations

    def test_cu_without_wired_donor_du(self):
        scn = Scenario(duration_s=1.0)
        scn.add_node(Role.CU, (0, 0))
        scn.add_node(Role.UPF, (1, 0))
        report = validate_topology(scn)
        assert any("wired DonorDU" in v for v in report.violations)

    def test_du_without_carrier_flagged(self):
        scn = build_donor_scenario()
        scn.nodes["donor-du"].carrier = None
        assert any("advertises no carrier" in v
                   for v in validate_topology(scn).violations)

    def test_radio_node_without_tx_power_flagged(self):
        scn = build_donor_scenario()
        scn.nodes["ue1"].tx_power_dbm = None
        assert any("no tx_power" in v for v in validate_topology(scn).violations)

    def test_flow_window_must_fit_duration(self):
        scn = build_donor_scenario(duration=1.0)
        scn.flows.append(FlowSpec(id="f", src="upf", dst="ue1", rate_bps=1e6,
                                  start_s=0.5, stop_s=2.0))
        assert any("start < stop <= duration" in v
                   for v in validate_topology(scn).violations)

    @pytest.mark.parametrize("mutate, violation", [
        (lambda s: setattr(s, "duration_s", float("inf")),
         "duration must be positive and finite"),
        (lambda s: setattr(s, "duration_s", float("nan")),
         "duration must be positive and finite"),
        (lambda s: s.asserts.append(FlowAssert(flow="nope", window=(0.0, 0.5))),
         "assert names unknown flow nope"),
        (lambda s: s.schedule.append(DuConfigUpdateDirective(
            at_s=1.0, du="donor-du", carrier=N78)),
         "DuConfigUpdateDirective at t=1.0: need 0 <= at < duration"),
        (lambda s: s.schedule.append(DuConfigUpdateDirective(
            at_s=-0.1, du="donor-du", carrier=N78)),
         "DuConfigUpdateDirective at t=-0.1: need 0 <= at < duration"),
        (lambda s: s.schedule.append(DuConfigUpdateDirective(
            at_s=0.5, du="ghost", carrier=N78)),
         "DuConfigUpdateDirective at t=0.5: unknown DU ghost"),
        (lambda s: s.schedule.append(DuConfigUpdateDirective(
            at_s=0.5, du="ue1", carrier=N78)),
         "DuConfigUpdateDirective at t=0.5: unknown DU ue1"),
        (lambda s: s.flows.extend(
            FlowSpec(id="dl", src="upf", dst="ue1", rate_bps=1e6, stop_s=0.5)
            for _ in range(2)),
         "duplicate flow id dl"),
        (lambda s: setattr(s.links[0], "wired_capacity_bps", float("nan")),
         "link f1-wire: wired link needs positive, finite capacity"),
        (lambda s: setattr(s.links[0], "wired_capacity_bps", float("inf")),
         "link f1-wire: wired link needs positive, finite capacity"),
        (lambda s: setattr(s.links[1], "propagation_delay_s", -1.0),
         "link n6-wire: propagation delay must be finite and >= 0"),
        (lambda s: setattr(s.links[1], "propagation_delay_s", float("nan")),
         "link n6-wire: propagation delay must be finite and >= 0"),
        (lambda s: setattr(s.nodes["donor-du"], "tx_power_dbm", float("nan")),
         "node donor-du: tx_power must be in [-100, 80] dBm"),
        (lambda s: s.schedule.append(IabNodeDirective(
            at_s=0.1, position=(880.0, 0.0), access_carrier=N78,
            tx_power_dbm=float("nan"), group="uav1")),
         "IabNodeDirective at t=0.1: tx_power must be in [-100, 80] dBm"),
        # Each validated and ran: at 1e300 dBm the donor covered ue2 at 6 km
        # over a link that took no serialization time. Only the loader
        # applied the window.
        (lambda s: setattr(s.nodes["donor-du"], "tx_power_dbm", 1e300),
         "node donor-du: tx_power must be in [-100, 80] dBm"),
        (lambda s: s.schedule.append(IabNodeDirective(
            at_s=0.1, position=(880.0, 0.0), access_carrier=N78,
            tx_power_dbm=1e300, group="uav1")),
         "IabNodeDirective at t=0.1: tx_power must be in [-100, 80] dBm"),
        # It validated, and the run dropped the directive: NoDonorCoverage.
        (lambda s: s.schedule.append(IabNodeDirective(
            at_s=0.1, position=(float("nan"), 0.0), access_carrier=N78,
            tx_power_dbm=43.0, group="uav1")),
         "IabNodeDirective at t=0.1: position must be finite"),
        (lambda s: s.schedule.append(IabNodeDirective(
            at_s=0.1, position=(880.0, float("-inf")), access_carrier=N78,
            tx_power_dbm=43.0, group="uav1")),
         "IabNodeDirective at t=0.1: position must be finite"),
        (lambda s: s.schedule.append(IabNodeDirective(
            at_s=3.0, position=(880.0, 0.0), access_carrier=N78,
            tx_power_dbm=43.0, group="uav1")),
         "IabNodeDirective at t=3.0: need 0 <= at < duration"),
        (lambda s: s.asserts.append(FlowAssert(flow="dl", window=(0.5, 0.2))),
         "assert on dl: window (0.5, 0.2) needs 0 <= t0 < t1 <= duration"),
        (lambda s: s.asserts.append(
            FlowAssert(flow="dl", window=(float("nan"), 0.2))),
         "assert on dl: window (nan, 0.2) needs 0 <= t0 < t1 <= duration"),
        (lambda s: build_donor_scenario(duration=1.0, n6_link=False),
         "CU has no wired UPF"),
        # 1.25e11 packets in one simulated second
        (lambda s: with_flow(1.0, rate_bps=1e12, packet_size_bytes=1),
         f"flows inject 1.25e+11 packets, more than {MAX_INJECTED_PACKETS}"),
        # a packet count past the largest float
        (lambda s: with_flow(1e300, rate_bps=1e308),
         f"flows inject inf packets, more than {MAX_INJECTED_PACKETS}"),
        (lambda s: with_flow(1.0, rate_bps=10 ** 400),
         f"flows inject inf packets, more than {MAX_INJECTED_PACKETS}"),
        # It passed, and _transmit raised OverflowError: int too large to
        # convert to float.
        (lambda s: with_flow(1.0, rate_bps=1e6, packet_size_bytes=10 ** 308),
         "flow dl: packet size must be 1 to 65535 bytes"),
        (lambda s: with_flow(1.0, rate_bps=1e6, packet_size_bytes=65_536),
         "flow dl: packet size must be 1 to 65535 bytes"),
        # The F1 deliveries of donor-du would be counted as this flow's.
        (lambda s: s.flows.append(FlowSpec(
            id="f1c:donor-du", src="upf", dst="ue1", rate_bps=1e6, stop_s=0.5)),
         "flow id f1c:donor-du: the f1c: prefix names F1 associations"),
        # An assert with no bound always passed.
        (lambda s: s.asserts.append(FlowAssert(flow="dl", window=(0.2, 0.8))),
         "assert on dl: sets no min_goodput_bps or max_goodput_bps"),
        # Its F1 never came up, yet an IAB node could pick it as its donor.
        (lambda s: s.add_node(Role.DONOR_DU, (1000.0, 0.0), tx_power_dbm=23.0,
                              carrier=N41, node_id="donor2") and s,
         "DonorDU donor2 has no wire to the CU"),
        # It added donor-mt, then failed on donor-du: an MT with no DU.
        (lambda s: with_iab_nodes(s, "donor"),
         "IabNodeDirective at t=0.1: donor-du names a node of the file"),
        # The second directive failed at run time, as a Drop row.
        (lambda s: with_iab_nodes(s, "uav1", "uav1"),
         "IabNodeDirective group uav1: used by 2 directives"),
        # Validation raised AttributeError reading its at_s.
        (lambda s: s.schedule.append("x"), "schedule[0]: str is not a directive"),
        # With an at_s it validated, and its run dropped it: ScenarioInvalid.
        (lambda s: s.schedule.append(SimpleNamespace(at_s=0.5)),
         "schedule[0]: SimpleNamespace is not a directive"),
        # Each raised TypeError at its first comparison.
        (lambda s: s.schedule.append(DuConfigUpdateDirective(
            at_s=None, du="donor-du", carrier=N78)),
         "DuConfigUpdateDirective at t=None: need 0 <= at < duration"),
        (lambda s: s.flows.append(FlowSpec(id="dl", src="upf", dst="ue1",
                                           rate_bps=None, stop_s=0.5)),
         "flow dl: rate must be positive and finite"),
        (lambda s: setattr(s, "duration_s", "1"),
         "duration must be positive and finite"),
        (lambda s: s.schedule.append(IabNodeDirective(
            at_s=0.1, position=(880.0, None), access_carrier=N78,
            tx_power_dbm=43.0, group="uav1")),
         "IabNodeDirective at t=0.1: position must be finite"),
        # Each raised TypeError or IndexError.
        (lambda s: with_assert(window=None),
         "assert on dl: window None needs 0 <= t0 < t1 <= duration"),
        (lambda s: with_assert(window=(0.1,)),
         "assert on dl: window (0.1,) needs 0 <= t0 < t1 <= duration"),
        (lambda s: s.schedule.append(IabNodeDirective(
            at_s=0.1, position=None, access_carrier=N78,
            tx_power_dbm=43.0, group="uav1")),
         "IabNodeDirective at t=0.1: position must be finite"),
        # Each validated: None seeded the run from the OS, and the others
        # ran and wrote their seed as given.
        (lambda s: setattr(s, "seed", None), "seed must be an integer"),
        (lambda s: setattr(s, "seed", 1.5), "seed must be an integer"),
        (lambda s: setattr(s, "seed", True), "seed must be an integer"),
        # Each validated and ran with float byte counts; 1000.0 hashed
        # otherwise than its int twin.
        (lambda s: with_flow(1.0, rate_bps=1e6, packet_size_bytes=1000.5),
         "flow dl: packet size must be an integer"),
        (lambda s: with_flow(1.0, rate_bps=1e6, packet_size_bytes=1000.0),
         "flow dl: packet size must be an integer"),
        # It validated as 1 bit/s; the loader refuses a boolean.
        (lambda s: with_flow(1.0, rate_bps=True),
         "flow dl: rate must be positive and finite"),
        # Each validated; the string's run raised TypeError at its assert,
        # and NaN never fails.
        (lambda s: with_assert(window=(0.2, 0.8), min_goodput_bps="1"),
         "assert on dl: a goodput bound must be a number"),
        (lambda s: with_assert(window=(0.2, 0.8),
                               max_goodput_bps=float("nan")),
         "assert on dl: a goodput bound must be a number"),
        # It raised AttributeError: 'int' object has no attribute
        # 'startswith'.
        (lambda s: with_flow(1.0, rate_bps=1e6, id=5),
         "flow 5: id must be a string"),
        # Each raised TypeError: unhashable type: 'list'.
        (lambda s: with_flow(1.0, rate_bps=1e6, src=["upf"]),
         "flow dl references unknown node"),
        (lambda s: s.schedule.append(DuConfigUpdateDirective(
            at_s=0.5, du=["donor-du"], carrier=N78)),
         "DuConfigUpdateDirective at t=0.5: unknown DU ['donor-du']"),
        (lambda s: with_assert(window=(0.2, 0.8), min_goodput_bps=1.0,
                               flow=["dl"]),
         "assert names unknown flow ['dl']"),
        # It raised TypeError: '<' not supported between instances of 'int'
        # and 'str'.
        (lambda s: with_iab_nodes(s, "uav1", 7),
         "IabNodeDirective at t=0.1: group must be a string"),
        # Each validated, and its run raised AttributeError reading the
        # carrier.
        (lambda s: s.schedule.append(IabNodeDirective(
            at_s=0.1, position=(880.0, 0.0), access_carrier=None,
            tx_power_dbm=43.0, group="uav1")),
         "IabNodeDirective at t=0.1: access_carrier is no Carrier"),
        (lambda s: s.schedule.append(DuConfigUpdateDirective(
            at_s=0.5, du="donor-du", carrier="n78")),
         "DuConfigUpdateDirective at t=0.5: carrier is no Carrier"),
        # It validated, and each of ue2's packets was a no-route Drop.
        (lambda s: setattr(s.nodes["ue2"], "position", (float("nan"), 0.0)),
         "node ue2: position must be finite"),
        # A str equal to the enum: it validated, and ue1 was never attached.
        (lambda s: setattr(s.nodes["ue1"], "role", "Ue"),
         "node ue1: role is no Role"),
        # It validated, and the run raised AttributeError.
        (lambda s: setattr(s.links[0], "medium", "Wired"),
         "link f1-wire: medium is no Medium"),
        # Each raised AttributeError or TypeError.
        (lambda s: s.flows.append("x"), "flows[0]: str is not a FlowSpec"),
        (lambda s: s.asserts.append(None),
         "asserts[0]: NoneType is not a FlowAssert"),
        (lambda s: setattr(s, "schedule", None), "schedule must be a list"),
        # Each validated: the run raised AttributeError reading the radio,
        # or UnknownNode('ue9').
        (lambda s: setattr(s, "radio_params", None),
         "radio_params must be a RadioParams"),
        (lambda s: setattr(s.nodes["ue1"], "id", "ue9"),
         "node ue1: id must be its key"),
        # It validated and ran, while add_link refuses a ghost end with
        # UnknownNode.
        (with_ghost_end, "link r: an end names no node"),
    ], ids=["duration-inf", "duration-nan", "assert-unknown-flow",
            "directive-at-duration", "directive-before-zero",
            "update-unknown-du", "update-not-a-du", "duplicate-flow-id",
            "wired-capacity-nan", "wired-capacity-inf", "propagation-negative",
            "propagation-nan", "node-tx-power-nan", "directive-tx-power-nan",
            "node-tx-power-huge", "directive-tx-power-huge",
            "directive-position-nan", "directive-position-inf",
            "directive-past-duration", "assert-window-reversed",
            "assert-window-nan", "no-n6-link",
            "packets-over-bound", "packets-overflow-float",
            "packets-overflow-int", "packet-size-huge",
            "packet-size-over-ip", "flow-id-f1c-prefix", "assert-no-bound",
            "donor-du-unwired", "iab-group-names-file-node", "iab-group-twice",
            "schedule-str", "schedule-object-with-at", "update-at-none",
            "flow-rate-none", "duration-str", "directive-position-none",
            "assert-window-none", "assert-window-one", "directive-no-position",
            "seed-none", "seed-float", "seed-bool", "packet-size-fraction",
            "packet-size-float", "flow-rate-bool", "assert-bound-str",
            "assert-bound-nan", "flow-id-int", "flow-src-list", "update-du-list",
            "assert-flow-list", "iab-group-int", "iab-carrier-none",
            "update-carrier-str", "node-position-nan", "node-role-str",
            "link-medium-str", "flows-str-entry", "asserts-none-entry",
            "schedule-none", "radio-params-none", "node-id-not-its-key",
            "link-ghost-end"])
    def test_rejected_as_data_not_raised(self, mutate, violation):
        scn = build_donor_scenario(duration=1.0)
        # A mutation changes the scenario in place, or returns another one.
        scn = mutate(scn) or scn
        assert violation in validate_topology(scn).violations

    def test_an_ip_sized_packet_is_valid(self):
        assert validate_topology(with_flow(1.0, rate_bps=1e6,
                                           packet_size_bytes=65_535)).ok

    @pytest.mark.parametrize("group, du, ok", [
        ("uav1", "uav1-du", True), ("uav1", "iab1-du", False)])
    def test_update_may_name_a_du_a_directive_creates(self, group, du, ok):
        scn = build_donor_scenario(duration=1.0)
        scn.schedule.append(IabNodeDirective(
            at_s=0.1, position=(880.0, 0.0), access_carrier=N78,
            tx_power_dbm=43.0, group=group))
        scn.schedule.append(DuConfigUpdateDirective(at_s=0.5, du=du, carrier=N78))
        assert validate_topology(scn).ok is ok

    def test_wired_mt_to_another_groups_du_reported(self):
        # It once validated only with a violation; now no wire reaches an
        # airframe but its own, so add_link refuses it.
        scn = build_donor_scenario()
        for g in ("g1", "g2"):
            scn.add_iab_node(g, (880.0, 0.0), tx_power_dbm=43.0,
                             mt_tx_power_dbm=23.0, carrier=N78)
        assert validate_topology(scn).ok
        with pytest.raises(IllegalMedium, match="between IabMt and IabDu"):
            scn.add_link("g1-mt", "g2-du", Medium.WIRED,
                         wired_capacity_bps=1e15, link_id="x")
        assert scn.find_link("g1-mt", "g2-du") is None

    def test_link_ends_are_read_only(self):
        # A moved end once made validate_topology raise KeyError: 'ghost'.
        scn = build_donor_scenario()
        link = scn.links[0]
        for end in ("a", "b"):
            with pytest.raises(AttributeError, match="its ends are fixed"):
                setattr(link, end, "ghost")
        link.carrier = N78  # what a DU config update writes stays writable
        assert (link.a, link.b) == ("cu", "donor-du")
        assert validate_topology(scn).ok

    def test_validation_is_pure(self):
        scn = build_donor_scenario()
        before = (dict(scn.nodes), list(scn.links))
        validate_topology(scn)
        assert (scn.nodes, scn.links) == before


# Values of another type or shape, each put in turn in every field that
# validation reads of a scenario built in code.
ODD_VALUES = (None, "1", True, 1.5, float("nan"), (0.1,), [])
SWEPT_FIELDS = {
    "scenario": ("duration_s", "seed", "flows", "asserts", "schedule",
                 "radio_params"),
    "flow": ("id", "src", "dst", "rate_bps", "packet_size_bytes", "start_s",
             "stop_s"),
    "assert": ("flow", "window", "min_goodput_bps", "max_goodput_bps"),
    "iab": ("at_s", "position", "access_carrier", "tx_power_dbm", "group",
            "mt_tx_power_dbm"),
    "update": ("at_s", "du", "carrier"),
    "node": ("tx_power_dbm", "position", "role", "id"),
    "link": ("propagation_delay_s", "wired_capacity_bps", "medium"),
}


def swept_entries() -> tuple[Scenario, dict]:
    """The mini scenario with an assert and a DU config update, and its
    entry of each SWEPT_FIELDS kind."""
    scn = build_mini_scenario()
    scn.asserts.append(FlowAssert(flow="dl-ue2", window=(0.05, 0.13),
                                  min_goodput_bps=1.0, max_goodput_bps=1e9))
    scn.schedule.append(DuConfigUpdateDirective(at_s=0.1, du="uav1-du",
                                                carrier=N41))
    return scn, {"scenario": scn, "flow": scn.flows[0],
                 "assert": scn.asserts[0], "iab": scn.schedule[0],
                 "update": scn.schedule[1], "node": scn.nodes["donor-du"],
                 "link": scn.links[0]}


@pytest.mark.parametrize("kind, name", [
    (kind, name) for kind, names in SWEPT_FIELDS.items() for name in names],
    ids=lambda x: x)
def test_every_field_swept_is_a_violation_or_runs(kind, name):
    """Validation never raises on a swept field, and each case that
    validates runs at summary level to a summary with no NaN or infinity,
    and its asserts are checked."""
    failures = []
    for value in ODD_VALUES:
        scn, entries = swept_entries()
        setattr(entries[kind], name, value)
        try:
            if validate_topology(scn).ok:
                trace = Simulator(scn, trace_level="summary").run()
                json.dumps(trace.summary, allow_nan=False)
                _check_asserts(scn, trace)
        except Exception as exc:
            failures.append((value, repr(exc)))
    assert failures == []


class TestIabDirective:
    def test_add_iab_node_adds_its_mt_du_and_wire(self):
        scn = build_donor_scenario()
        assert scn.add_iab_node("g", (880.0, 0.0), tx_power_dbm=43.0,
                                mt_tx_power_dbm=23.0, carrier=N78) \
            == ("g-mt", "g-du")
        mt, du = scn.nodes["g-mt"], scn.nodes["g-du"]
        assert (mt.role, mt.tx_power_dbm, mt.carrier) == (Role.IAB_MT, 23.0, None)
        assert (du.role, du.tx_power_dbm, du.carrier) == (Role.IAB_DU, 43.0, N78)
        wire = scn.find_link("g-mt", "g-du")
        assert (wire.medium, wire.wired_capacity_bps, wire.propagation_delay_s) \
            == (Medium.WIRED, IAB_INTERNAL_CAPACITY_BPS, 0.0)
        assert validate_topology(scn).ok

    def test_add_iab_node_adds_nothing_when_a_name_is_taken(self):
        scn = build_donor_scenario()
        scn.add_node(Role.UE, (9.0, 0.0), tx_power_dbm=23.0, node_id="g-du")
        before = (dict(scn.nodes), list(scn.links))
        with pytest.raises(ValueError, match="duplicate node id 'g-du'"):
            scn.add_iab_node("g", (880.0, 0.0), tx_power_dbm=43.0,
                             mt_tx_power_dbm=23.0, carrier=N78)
        assert (scn.nodes, scn.links) == before

    def test_mt_radio_link_to_an_iab_du_rejected(self):
        # F1 has no route from an IabDu.
        scn = build_donor_scenario()
        for g in ("g1", "g2"):
            scn.add_iab_node(g, (880.0, 0.0), tx_power_dbm=43.0,
                             mt_tx_power_dbm=23.0, carrier=N78)
        with pytest.raises(IllegalMedium, match="must end at a DonorDU"):
            scn.add_link("g2-du", "g1-mt", Medium.RADIO)
