import random
import re

import pytest

from iabsim import gtp
from iabsim.errors import ConflictingEntry, DepthExceeded, NoRoute, RoutingLoop
from iabsim.gtp import (Forwarder, Packet, PathMode, RouteEntry, TEID_MAX,
                        encapsulate, install_f1_transport, install_ue_routes,
                        teids_of)
from iabsim.topology import Medium

from conftest import N78, build_donor_scenario


def make_forwarder(seed=1):
    return Forwarder(random.Random(seed))


def make_packet(**kw):
    defaults = dict(flow_id="f", src="upf", dst="ue2",
                    payload_size_bytes=1400, created_at_s=0.0)
    defaults.update(kw)
    return Packet(**defaults)


def scenario_with_iab():
    scn = build_donor_scenario()
    scn.add_iab_node("uav1", (880.0, 0.0), tx_power_dbm=43.0,
                     mt_tx_power_dbm=23.0, carrier=N78)
    scn.add_link("donor-du", "uav1-mt", Medium.RADIO)
    scn.add_link("uav1-du", "ue2", Medium.RADIO)
    return scn


class TestTeids:
    def test_allocated_teids_in_range(self):
        t = make_forwarder()
        assert all(1 <= t.open_tunnel("upf")[1] <= TEID_MAX for _ in range(500))

    def test_allocation_is_deterministic_per_seed(self):
        a = [make_forwarder(7).open_tunnel("upf")[1] for _ in range(3)]
        assert a[0] == a[1] == a[2]
        assert make_forwarder(8).open_tunnel("upf")[1] != a[0]

    def test_allocation_unique_per_endpoint(self):
        t = make_forwarder()
        seen = {t.open_tunnel("upf")[1] for _ in range(500)}
        assert len(seen) == 500

    def test_ownership_keyed_by_receiver(self):
        t = make_forwarder()
        header = t.open_tunnel("upf")
        assert header[0] == "teid" and ("upf", header) in t.strips
        assert ("uav1-mt", header) not in t.strips


class TestBapRoutes:
    def test_route_ids_run_from_one_per_forwarder(self):
        fwd = make_forwarder()
        assert [fwd.open_bap_route(n) for n in ("cu", "mt", "cu")] \
            == [("bap", 1), ("bap", 2), ("bap", 3)]
        assert make_forwarder().open_bap_route("mt") == ("bap", 1)

    def test_routes_draw_no_teid(self):
        plain, mixed = make_forwarder(), make_forwarder()
        mixed.open_bap_route("cu")
        assert mixed.open_tunnel("upf") == plain.open_tunnel("upf")

    def test_stripped_at_its_terminus_and_nowhere_else(self):
        fwd = make_forwarder()
        header = fwd.open_bap_route("cu")
        assert {(n, h) for n, h in fwd.strips if h == header} == {("cu", header)}
        pkt = encapsulate(make_packet(), header, 4)
        for node in ("donor-du", "uav1-mt", "upf"):
            fwd.strip(node, pkt)
            assert pkt.header_stack == (header,)
        fwd.strip("cu", pkt)
        assert len(pkt.header_stack) == 0 and pkt.wire_size_bytes == 1400


class TestEncapDecap:
    def test_round_trip_restores_wire_size(self):
        t = make_forwarder()
        pkt = make_packet()
        encapsulate(pkt, t.open_tunnel("b"), 8)
        assert pkt.wire_size_bytes == 1408  # 1400 payload + 8 GTP
        t.strip("b", pkt)
        assert pkt.wire_size_bytes == 1400
        assert len(pkt.header_stack) == 0

    def test_double_nesting_allowed_triple_rejected(self):
        t = make_forwarder()
        pkt = make_packet()
        encapsulate(pkt, t.open_tunnel("b"), 8)
        encapsulate(pkt, t.open_tunnel("c"), 8)
        assert pkt.wire_size_bytes == 1416  # two 8-byte headers
        with pytest.raises(DepthExceeded):
            encapsulate(pkt, t.open_tunnel("d"), 8)

    def test_strip_only_what_the_node_owns(self):
        t = make_forwarder()
        inner, outer = t.open_tunnel("b"), t.open_tunnel("c")
        pkt = make_packet()
        encapsulate(pkt, inner, 8)
        encapsulate(pkt, outer, 8)
        t.strip("b", pkt)
        assert pkt.header_stack == (inner, outer)  # c's is outermost
        t.strip("c", pkt)
        assert pkt.header_stack == (inner,)
        assert pkt.wire_size_bytes == 1408
        t.strip("b", pkt)
        t.strip("b", pkt)  # a bare packet has nothing to strip
        assert pkt.header_stack == () and pkt.wire_size_bytes == 1400

    def test_teids_in_stack_outermost_first(self):
        t = make_forwarder()
        inner, outer = t.open_tunnel("b"), t.open_tunnel("c")
        pkt = make_packet()
        encapsulate(pkt, inner, 8)
        encapsulate(pkt, outer, 8)
        assert list(teids_of(pkt.header_stack)) == [outer[1], inner[1]]


class TestPaths:
    """The uplink hops the installer returns are where F1 goes, over links
    only: uplink along them, downlink along them reversed."""

    def check_hops(self, mode, hops):
        scn = scenario_with_iab()
        fwd = make_forwarder()
        _, got = build_transport(scn, fwd, mode)
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


# scenario_with_iab's IAB-DU, IAB-MT, donor DU, CU and UPF.
F1_NODES = ("uav1-du", "uav1-mt", "donor-du", "cu", "upf")


def build_transport(scn, fwd, mode):
    """The MT's session headers (uplink, downlink) and the F1 uplink hops."""
    session = fwd.open_tunnel("upf"), fwd.open_tunnel("uav1-mt")
    return session, install_f1_transport(fwd, mode, *F1_NODES, *session)


class TestRouteInstallation:
    def test_reinstall_is_idempotent(self):
        scn = scenario_with_iab()
        fwd = make_forwarder()
        session, hops = build_transport(scn, fwd, PathMode.UPF_REROUTE)
        entries, strips = dict(fwd.entries), set(fwd.strips)
        again = install_f1_transport(fwd, PathMode.UPF_REROUTE, *F1_NODES,
                                     *session)
        assert again == hops
        assert fwd.entries == entries and fwd.strips == strips

    def test_conflicting_entry_rejected(self):
        fwd = make_forwarder()
        fwd.install(RouteEntry(at_node="cu", match=("dst", "x"), next_hop="a"))
        with pytest.raises(ConflictingEntry):
            fwd.install(RouteEntry(at_node="cu", match=("dst", "x"), next_hop="b"))

    def test_conflict_in_pushed_headers_names_both(self):
        fwd = make_forwarder()
        fwd.install(RouteEntry("cu", ("dst", "x"), "a", encaps=(("teid", 1),)))
        with pytest.raises(ConflictingEntry,
                           match=re.escape("a [('teid', 1)], not a [('teid', 2)]")):
            fwd.install(RouteEntry("cu", ("dst", "x"), "a", encaps=(("teid", 2),)))

    def test_reroute_upf_entry_points_back_at_cu(self):
        # the reroute leg: the UPF's only transport entry sends the
        # decapsulated F1 traffic back to the CU
        scn = scenario_with_iab()
        fwd = make_forwarder()
        (session_ul, _), _ = build_transport(scn, fwd, PathMode.UPF_REROUTE)
        upf_entries = [e for (node, _), e in fwd.entries.items() if node == "upf"]
        ul = [e for e in upf_entries if e.match == session_ul]
        assert len(ul) == 1 and ul[0].next_hop == "cu"

    def test_bypass_installs_nothing_at_upf(self):
        scn = scenario_with_iab()
        fwd = make_forwarder()
        build_transport(scn, fwd, PathMode.BAP_BYPASS)
        assert not [e for (node, _), e in fwd.entries.items() if node == "upf"]

    def test_bypass_registers_bap_termini(self):
        scn = scenario_with_iab()
        fwd = make_forwarder()
        _, (_, mt, _, cu) = build_transport(scn, fwd, PathMode.BAP_BYPASS)
        # route ids are drawn uplink first; the CU ends the uplink route and
        # the MT the downlink route
        assert {(node, key) for node, key in fwd.strips if key[0] == "bap"} \
            == {(cu, ("bap", 1)), (mt, ("bap", 2))}


class TestNest:
    def chain(self):
        """a -> b -> c -> d for ("dst", "d"); c pushes a BAP header."""
        fwd = make_forwarder()
        for at, nxt, encaps in (("a", "b", ()), ("b", "c", ()),
                                ("c", "d", (("bap", 9),)), ("d", "e", ())):
            fwd.install(RouteEntry(at, ("dst", "d"), nxt, encaps))
        return fwd

    def test_walk_stops_at_the_first_pushing_hop(self):
        fwd = self.chain()
        fwd.nest("a", ("src", "ue"), ("teid", 5), ("dst", "d"))
        added = {k: e for k, e in fwd.entries.items() if k[1] != ("dst", "d")}
        assert added == {
            ("a", ("src", "ue")): RouteEntry("a", ("src", "ue"), "b", (("teid", 5),)),
            ("b", ("teid", 5)): RouteEntry("b", ("teid", 5), "c"),
            ("c", ("teid", 5)): RouteEntry("c", ("teid", 5), "d", (("bap", 9),)),
        }

    def test_missing_route_raises_no_route(self):
        fwd = self.chain()
        with pytest.raises(NoRoute) as err:
            fwd.nest("x", ("src", "ue"), ("teid", 5), ("dst", "d"))
        assert (err.value.node, err.value.key) == ("x", ("dst", "d"))
        assert len(fwd.entries) == 4


def forward_to_delivery(fwd, start, pkt, limit=32):
    node = start
    for _ in range(limit):
        nxt = fwd.forward(node, pkt).next_hop
        if nxt is None:
            return pkt
        node = nxt
    raise AssertionError("packet did not terminate")


class TestForwarding:
    def _user_plane(self, mode):
        scn = scenario_with_iab()
        fwd = make_forwarder()
        build_transport(scn, fwd, mode)
        install_ue_routes(fwd, "ue2", "uav1-du", "cu", "upf")
        return scn, fwd

    def test_reroute_downlink_hop_log(self):
        _, fwd = self._user_plane(PathMode.UPF_REROUTE)
        pkt = forward_to_delivery(fwd, "upf", make_packet(dst="ue2"))
        assert tuple(pkt.hop_log) == ("upf", "cu", "upf", "cu", "donor-du",
                                      "uav1-mt", "uav1-du", "ue2")
        assert len(pkt.header_stack) == 0  # delivered bare

    def test_bypass_downlink_hop_log(self):
        _, fwd = self._user_plane(PathMode.BAP_BYPASS)
        pkt = forward_to_delivery(fwd, "upf", make_packet(dst="ue2"))
        assert tuple(pkt.hop_log) == ("upf", "cu", "donor-du", "uav1-mt",
                                      "uav1-du", "ue2")
        assert len(pkt.header_stack) == 0

    def test_reroute_uplink_hop_log(self):
        _, fwd = self._user_plane(PathMode.UPF_REROUTE)
        pkt = forward_to_delivery(fwd, "ue2", make_packet(src="ue2", dst="upf"))
        assert tuple(pkt.hop_log) == ("ue2", "uav1-du", "uav1-mt", "donor-du",
                                      "cu", "upf", "cu", "upf")

    def test_bypass_uplink_hop_log(self):
        # The CU ends the BAP route and then the DRB, one header per entry.
        _, fwd = self._user_plane(PathMode.BAP_BYPASS)
        pkt = forward_to_delivery(fwd, "ue2", make_packet(src="ue2", dst="upf"))
        assert tuple(pkt.hop_log) == ("ue2", "uav1-du", "uav1-mt", "donor-du",
                                      "cu", "upf")
        # delivered bare
        assert len(pkt.header_stack) == 0 and pkt.wire_size_bytes == 1400

    def test_backhaul_depth_exactly_two_in_reroute(self):
        _, fwd = self._user_plane(PathMode.UPF_REROUTE)
        pkt = make_packet(dst="ue2")
        node = "upf"
        depth_on_backhaul = None
        for _ in range(16):
            nxt = fwd.forward(node, pkt).next_hop
            if nxt is None:
                break
            if {node, nxt} == {"donor-du", "uav1-mt"}:
                depth_on_backhaul = len(pkt.header_stack)
            node = nxt
        assert depth_on_backhaul == 2  # DRB GTP nested in the MT session GTP

    def test_backhaul_stack_is_gtp_plus_bap_in_bypass(self):
        _, fwd = self._user_plane(PathMode.BAP_BYPASS)
        pkt = make_packet(dst="ue2")
        node = "upf"
        stack_on_backhaul = None
        for _ in range(16):
            nxt = fwd.forward(node, pkt).next_hop
            if nxt is None:
                break
            if {node, nxt} == {"donor-du", "uav1-mt"}:
                stack_on_backhaul = [kind for kind, _ in pkt.header_stack]
            node = nxt
        assert stack_on_backhaul == ["teid", "bap"]  # outermost last

    def test_no_route_raises_with_node_and_key(self):
        fwd = make_forwarder()
        with pytest.raises(NoRoute):
            fwd.forward("cu", make_packet(dst="elsewhere"))

    def test_an_outer_header_no_entry_matches_raises_no_route(self):
        fwd = make_forwarder()
        pkt = make_packet(src="a", dst="b", header_stack=(("teid", 7),),
                          header_bytes=gtp.GTP_HEADER_BYTES)
        with pytest.raises(NoRoute) as err:
            fwd.forward("a", pkt)
        assert (err.value.node, err.value.key) == ("a", ("teid", 7))

    def test_a_local_handoff_that_never_leaves_raises(self):
        # An entry with no next hop for a bare packet re-matches itself.
        fwd = make_forwarder()
        fwd.install(RouteEntry("a", ("dst", "b"), None))
        with pytest.raises(RoutingLoop,
                           match="^local rematch did not terminate at a$"):
            fwd.forward("a", make_packet(src="a", dst="b"))

    def test_ttl_expiry_detected(self):
        fwd = make_forwarder()
        fwd.install(RouteEntry(at_node="a", match=("dst", "x"), next_hop="b"))
        fwd.install(RouteEntry(at_node="b", match=("dst", "x"), next_hop="a"))
        pkt = make_packet(dst="x", src="a")
        node = "a"
        with pytest.raises(RoutingLoop):
            for _ in range(64):
                nxt = fwd.forward(node, pkt).next_hop
                node = nxt

    @pytest.mark.parametrize("ttl", [1, 2, 16])
    def test_the_ttl_th_forward_raises(self, ttl, monkeypatch):
        monkeypatch.setattr(gtp, "TTL", ttl)
        fwd = make_forwarder()
        fwd.install(RouteEntry(at_node="a", match=("dst", "x"), next_hop="b"))
        fwd.install(RouteEntry(at_node="b", match=("dst", "x"), next_hop="a"))
        pkt = make_packet(dst="x", src="a")
        node = "a"
        for _ in range(ttl - 1):  # none of the calls before the ttl-th raises
            node = fwd.forward(node, pkt).next_hop
        with pytest.raises(RoutingLoop,
                           match=f"^TTL expired for f at {node}$"):
            fwd.forward(node, pkt)

    def test_payload_size_never_changes(self):
        _, fwd = self._user_plane(PathMode.UPF_REROUTE)
        pkt = make_packet(dst="ue2", payload_size_bytes=999)
        out = forward_to_delivery(fwd, "upf", pkt)
        assert out.payload_size_bytes == 999


class TestMemo:
    """Forwarding decisions are memoized; a change to the tables is seen."""

    def test_memoized_decision_equals_a_fresh_one(self):
        _, fwd = TestForwarding()._user_plane(PathMode.UPF_REROUTE)
        first, second = (forward_to_delivery(fwd, "upf", make_packet(dst="ue2"))
                         for _ in range(2))
        assert first.hop_log == second.hop_log
        assert first.wire_size_bytes == second.wire_size_bytes == 1400
        assert len(second.hop_log) == 8  # memoized hops count to the ttl too

    def test_bare_packets_of_two_sources_decided_apart(self):
        # One DU, two UEs: each UE's uplink gets its own DRB header.
        fwd = make_forwarder()
        for ue, teid in (("ue1", 1), ("ue2", 2)):
            fwd.install(RouteEntry("du", ("src", ue), "cu", (("teid", teid),)))
        for ue, teid in (("ue1", 1), ("ue2", 2), ("ue1", 1), ("ue2", 2)):
            fwd.forward("du", pkt := make_packet(src=ue, dst="upf"))
            assert pkt.header_stack == (("teid", teid),)

    def test_src_match_redecided_after_dst_entry(self):
        fwd = make_forwarder()
        fwd.install(RouteEntry("du", ("src", "ue"), "mt"))
        for _ in range(2):
            assert fwd.forward("du", make_packet(src="ue", dst="cu")) \
                .next_hop == "mt"
        fwd.install(RouteEntry("du", ("dst", "cu"), "cu"))
        assert fwd.forward("du", make_packet(src="ue", dst="cu")) \
            .next_hop == "cu"

    def test_decision_changes_when_node_starts_stripping(self):
        fwd = make_forwarder()
        fwd.install(RouteEntry("b", ("bap", 1), "c"))

        def packet():
            return encapsulate(make_packet(dst="x"), ("bap", 1), 4)
        for _ in range(2):
            nxt = fwd.forward("b", pkt := packet()).next_hop
            assert (nxt, pkt.header_stack, pkt.wire_size_bytes) \
                == ("c", (("bap", 1),), 1404)
        assert fwd.open_bap_route("b") == ("bap", 1)
        nxt = fwd.forward("b", pkt := packet()).next_hop
        assert (nxt, pkt.header_stack, pkt.wire_size_bytes) == ("c", (), 1400)

    def test_decision_changes_when_a_tunnel_opens_at_the_node(self):
        # The TEID that a fresh Forwarder of seed 1 opens first.
        header = make_forwarder().open_tunnel("x")
        fwd = make_forwarder()
        fwd.install(RouteEntry("b", header, "c"))

        def packet():
            return encapsulate(make_packet(dst="x"), header, 8)
        for _ in range(2):
            assert fwd.forward("b", pkt := packet()).next_hop == "c"
            assert pkt.header_stack == (header,)
        assert fwd.open_tunnel("b") == header
        assert fwd.forward("b", pkt := packet()).next_hop == "c"
        assert pkt.header_stack == () and pkt.wire_size_bytes == 1400

    def test_no_route_is_never_cached(self):
        fwd = make_forwarder()
        header = fwd.open_bap_route("b")
        fwd.install(RouteEntry("b", header, None))

        def packet():
            return encapsulate(make_packet(dst="x"), header, 4)
        for _ in range(2):
            pkt = packet()
            with pytest.raises(NoRoute) as err:
                fwd.forward("b", pkt)
            # The inner packet is matched after the strip, both times.
            assert err.value.key == ("dst", "x") and len(pkt.header_stack) == 0
        fwd.install(RouteEntry("b", ("dst", "x"), "c"))
        nxt = fwd.forward("b", pkt := packet()).next_hop
        assert nxt == "c" and len(pkt.header_stack) == 0
