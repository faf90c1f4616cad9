import random

import pytest

from iabsim.engine import IAB_INTERNAL_CAPACITY_BPS
from iabsim.errors import ConflictingEntry, DepthExceeded, NoRoute, RoutingLoop
from iabsim.gtp import (Forwarder, Packet, PathMode, RouteEntry, TEID_MAX,
                        TunnelTable, UePlaneTunnels, encapsulate,
                        install_f1_transport, install_ue_routes)
from iabsim.topology import Medium, Role

from conftest import N78, build_donor_scenario


def make_table(seed=1):
    return TunnelTable(random.Random(seed))


def make_packet(**kw):
    defaults = dict(flow_id="f", src="upf", dst="ue2",
                    payload_size_bytes=1400, created_at_s=0.0)
    defaults.update(kw)
    return Packet(**defaults)


def scenario_with_iab():
    scn = build_donor_scenario()
    scn.add_node(Role.IAB_MT, (880.0, 0.0), tx_power_dbm=23.0,
                 owner_group="uav1", node_id="uav1-mt")
    scn.add_node(Role.IAB_DU, (880.0, 0.0), tx_power_dbm=43.0,
                 owner_group="uav1", carrier=N78, node_id="uav1-du")
    scn.add_link("uav1-mt", "uav1-du", Medium.WIRED,
                 wired_capacity_bps=IAB_INTERNAL_CAPACITY_BPS)
    scn.add_link("donor-du", "uav1-mt", Medium.RADIO, carrier=scn.nodes["donor-du"].carrier)
    scn.add_link("uav1-du", "ue2", Medium.RADIO, carrier=N78)
    return scn


class TestTeids:
    def test_allocated_teids_in_range(self):
        t = make_table()
        assert all(1 <= t.allocate_teid("upf") <= TEID_MAX for _ in range(500))

    def test_allocation_is_deterministic_per_seed(self):
        a = [make_table(7).allocate_teid("upf") for _ in range(3)]
        assert a[0] == a[1] == a[2]
        assert make_table(8).allocate_teid("upf") != a[0]

    def test_allocation_unique_per_endpoint(self):
        t = make_table()
        seen = {t.allocate_teid("upf") for _ in range(500)}
        assert len(seen) == 500

    def test_ownership_keyed_by_receiver(self):
        t = make_table()
        tun = t.open_tunnel("uav1-mt", "upf", "session-ul")
        assert ("upf", tun.header) in t.strips
        assert ("uav1-mt", tun.header) not in t.strips


class TestEncapDecap:
    def test_round_trip_restores_wire_size(self):
        t = make_table()
        tun = t.open_tunnel("a", "b")
        pkt = make_packet()
        encapsulate(pkt, tun.header, 8)
        assert pkt.wire_size_bytes == 1408  # 1400 payload + 8 GTP
        Forwarder(t).strip("b", pkt)
        assert pkt.wire_size_bytes == 1400
        assert pkt.depth == 0

    def test_double_nesting_allowed_triple_rejected(self):
        t = make_table()
        pkt = make_packet()
        encapsulate(pkt, t.open_tunnel("a", "b").header, 8)
        encapsulate(pkt, t.open_tunnel("b", "c").header, 8)
        assert pkt.wire_size_bytes == 1416  # two 8-byte headers
        with pytest.raises(DepthExceeded):
            encapsulate(pkt, t.open_tunnel("c", "d").header, 8)

    def test_strip_only_what_the_node_owns(self):
        t = make_table()
        inner, outer = t.open_tunnel("a", "b"), t.open_tunnel("a", "c")
        pkt = make_packet()
        encapsulate(pkt, inner.header, 8)
        encapsulate(pkt, outer.header, 8)
        fwd = Forwarder(t)
        fwd.strip("b", pkt)
        assert pkt.header_stack == (inner.header, outer.header)  # c's is outermost
        fwd.strip("c", pkt)
        assert pkt.header_stack == (inner.header,)
        assert pkt.wire_size_bytes == 1408
        fwd.strip("b", pkt)
        fwd.strip("b", pkt)  # a bare packet has nothing to strip
        assert pkt.header_stack == () and pkt.wire_size_bytes == 1400

    def test_teids_in_stack_outermost_first(self):
        t = make_table()
        inner, outer = t.open_tunnel("a", "b"), t.open_tunnel("b", "c")
        pkt = make_packet()
        encapsulate(pkt, inner.header, 8)
        encapsulate(pkt, outer.header, 8)
        assert pkt.teids_in_stack() == [outer.teid, inner.teid]


class TestPaths:
    """The uplink hops the installer returns are where F1 goes, over links
    only: uplink along them, downlink along them reversed."""

    def check_hops(self, mode, hops):
        scn = scenario_with_iab()
        table = make_table()
        fwd = Forwarder(table)
        _, got = build_transport(scn, table, fwd, mode)
        assert got == hops
        assert all(scn.find_link(a, b) is not None for a, b in zip(hops, hops[1:]))
        up = forward_to_delivery(fwd, "uav1-du", make_packet(src="uav1-du", dst="cu"))
        down = forward_to_delivery(fwd, "cu", make_packet(src="cu", dst="uav1-du"))
        assert tuple(up.hop_log) == hops
        assert tuple(down.hop_log) == hops[::-1]

    def test_reroute_path_hops(self):
        self.check_hops(PathMode.UPF_REROUTE,
                        ("uav1-du", "uav1-mt", "donor-du", "cu", "upf", "cu"))

    def test_bypass_path_hops(self):
        self.check_hops(PathMode.BAP_BYPASS, ("uav1-du", "uav1-mt", "donor-du", "cu"))


def build_transport(scn, table, fwd, mode):
    ul = table.open_tunnel("uav1-mt", "upf", "mt-ul")
    dl = table.open_tunnel("upf", "uav1-mt", "mt-dl")
    hops, transport = install_f1_transport(scn, fwd, "uav1-du", mode, ul, dl)
    return transport, hops


class TestRouteInstallation:
    def test_reinstall_is_idempotent(self):
        scn = scenario_with_iab()
        table = make_table()
        fwd = Forwarder(table)
        transport, hops = build_transport(scn, table, fwd, PathMode.UPF_REROUTE)
        entries = dict(fwd.entries)
        again = install_f1_transport(scn, fwd, "uav1-du", PathMode.UPF_REROUTE,
                                     transport.mt_session_ul, transport.mt_session_dl)
        assert again == (hops, transport)
        assert fwd.entries == entries

    def test_conflicting_entry_rejected(self):
        fwd = Forwarder(make_table())
        fwd.install(RouteEntry(at_node="cu", match=("dst", "x"), next_hop="a"))
        with pytest.raises(ConflictingEntry):
            fwd.install(RouteEntry(at_node="cu", match=("dst", "x"), next_hop="b"))

    def test_reroute_upf_entry_points_back_at_cu(self):
        # the reroute leg: the UPF's only transport entry sends the
        # decapsulated F1 traffic back to the CU
        scn = scenario_with_iab()
        table = make_table()
        fwd = Forwarder(table)
        transport, _ = build_transport(scn, table, fwd, PathMode.UPF_REROUTE)
        upf_entries = [e for (node, _), e in fwd.entries.items() if node == "upf"]
        ul = [e for e in upf_entries
              if e.match == transport.mt_session_ul.header]
        assert len(ul) == 1 and ul[0].next_hop == "cu"

    def test_bypass_installs_nothing_at_upf(self):
        scn = scenario_with_iab()
        table = make_table()
        fwd = Forwarder(table)
        build_transport(scn, table, fwd, PathMode.BAP_BYPASS)
        assert not [e for (node, _), e in fwd.entries.items() if node == "upf"]

    def test_bypass_registers_bap_termini(self):
        scn = scenario_with_iab()
        table = make_table()
        fwd = Forwarder(table)
        transport, _ = build_transport(scn, table, fwd, PathMode.BAP_BYPASS)
        assert (transport.bap_route_ul, transport.bap_route_dl) == (1, 2)
        assert ("cu", ("bap", transport.bap_route_ul)) in fwd.strips
        assert ("uav1-mt", ("bap", transport.bap_route_dl)) in fwd.strips


def forward_to_delivery(fwd, start, pkt, limit=32):
    node = start
    for _ in range(limit):
        nxt, pkt = fwd.forward(node, pkt)
        if nxt is None:
            return pkt
        node = nxt
    raise AssertionError("packet did not terminate")


class TestForwarding:
    def _user_plane(self, mode):
        scn = scenario_with_iab()
        table = make_table()
        fwd = Forwarder(table)
        transport, _ = build_transport(scn, table, fwd, mode)
        tn = UePlaneTunnels(session_ul=table.open_tunnel("cu", "upf"),
                            session_dl=table.open_tunnel("upf", "cu"),
                            drb_ul=table.open_tunnel("uav1-du", "cu"),
                            drb_dl=table.open_tunnel("cu", "uav1-du"))
        install_ue_routes(scn, fwd, "ue2", "uav1-du", tn, mode,
                          transport=transport)
        return scn, fwd, tn

    def test_reroute_downlink_hop_log(self):
        _, fwd, _ = self._user_plane(PathMode.UPF_REROUTE)
        pkt = forward_to_delivery(fwd, "upf", make_packet(dst="ue2"))
        assert tuple(pkt.hop_log) == ("upf", "cu", "upf", "cu", "donor-du",
                                      "uav1-mt", "uav1-du", "ue2")
        assert pkt.depth == 0  # delivered bare

    def test_bypass_downlink_hop_log(self):
        _, fwd, _ = self._user_plane(PathMode.BAP_BYPASS)
        pkt = forward_to_delivery(fwd, "upf", make_packet(dst="ue2"))
        assert tuple(pkt.hop_log) == ("upf", "cu", "donor-du", "uav1-mt",
                                      "uav1-du", "ue2")
        assert pkt.depth == 0

    def test_reroute_uplink_hop_log(self):
        _, fwd, _ = self._user_plane(PathMode.UPF_REROUTE)
        pkt = forward_to_delivery(fwd, "ue2", make_packet(src="ue2", dst="upf"))
        assert tuple(pkt.hop_log) == ("ue2", "uav1-du", "uav1-mt", "donor-du",
                                      "cu", "upf", "cu", "upf")

    def test_backhaul_depth_exactly_two_in_reroute(self):
        _, fwd, _ = self._user_plane(PathMode.UPF_REROUTE)
        pkt = make_packet(dst="ue2")
        node = "upf"
        depth_on_backhaul = None
        for _ in range(16):
            nxt, pkt = fwd.forward(node, pkt)
            if nxt is None:
                break
            if {node, nxt} == {"donor-du", "uav1-mt"}:
                depth_on_backhaul = pkt.depth
            node = nxt
        assert depth_on_backhaul == 2  # DRB GTP nested in the MT session GTP

    def test_backhaul_stack_is_gtp_plus_bap_in_bypass(self):
        _, fwd, _ = self._user_plane(PathMode.BAP_BYPASS)
        pkt = make_packet(dst="ue2")
        node = "upf"
        stack_on_backhaul = None
        for _ in range(16):
            nxt, pkt = fwd.forward(node, pkt)
            if nxt is None:
                break
            if {node, nxt} == {"donor-du", "uav1-mt"}:
                stack_on_backhaul = [kind for kind, _ in pkt.header_stack]
            node = nxt
        assert stack_on_backhaul == ["teid", "bap"]  # outermost last

    def test_no_route_raises_with_node_and_key(self):
        fwd = Forwarder(make_table())
        with pytest.raises(NoRoute):
            fwd.forward("cu", make_packet(dst="elsewhere"))

    def test_ttl_expiry_detected(self):
        fwd = Forwarder(make_table())
        fwd.install(RouteEntry(at_node="a", match=("dst", "x"), next_hop="b"))
        fwd.install(RouteEntry(at_node="b", match=("dst", "x"), next_hop="a"))
        pkt = make_packet(dst="x", src="a")
        node = "a"
        with pytest.raises(RoutingLoop):
            for _ in range(64):
                nxt, pkt = fwd.forward(node, pkt)
                node = nxt

    def test_payload_size_never_changes(self):
        _, fwd, _ = self._user_plane(PathMode.UPF_REROUTE)
        pkt = make_packet(dst="ue2", payload_size_bytes=999)
        out = forward_to_delivery(fwd, "upf", pkt)
        assert out.payload_size_bytes == 999
