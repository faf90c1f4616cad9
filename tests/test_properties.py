"""Randomized invariant checks; every suite runs at least 200 cases but the
trace-replay one, which parses each run's records and runs 40."""
import random
from collections import defaultdict
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from iabsim import (PathMode, Simulator, engine, link_capacity,
                    measure_throughput, radio)
from iabsim.gtp import (GTP_HEADER_BYTES, Forwarder, Packet, encapsulate,
                        teids_of)
from iabsim.radio import RadioParams

from conftest import build_mini_scenario, oracle_mismatches, records

SIM_SETTINGS = settings(max_examples=200, deadline=None,
                        suppress_health_check=[HealthCheck.too_slow],
                        derandomize=True)
PURE_SETTINGS = settings(max_examples=500, deadline=None, derandomize=True)

MODES = st.sampled_from([PathMode.UPF_REROUTE, PathMode.BAP_BYPASS])


def run_mini(seed, rate, size, uav_x, mode, trace_level="full", buffer=None):
    scn = build_mini_scenario(seed=seed, ue2_rate_bps=rate, packet_size=size,
                              uav_x=uav_x)
    sim = Simulator(scn, mode=mode, trace_level=trace_level)
    with mock.patch.object(engine, "LINK_BUFFER_PACKETS",
                           buffer or engine.LINK_BUFFER_PACKETS):
        return sim.scn, sim.run()


mini_params = dict(
    seed=st.integers(min_value=0, max_value=10_000),
    rate=st.floats(min_value=2e6, max_value=20e6),
    size=st.integers(min_value=600, max_value=1400),
    uav_x=st.floats(min_value=300.0, max_value=3000.0),
    mode=MODES,
)


@PURE_SETTINGS
@given(payload=st.integers(min_value=1, max_value=9000),
       seed=st.integers(min_value=0, max_value=2 ** 31),
       depth=st.integers(min_value=1, max_value=2))
def test_encapsulation_round_trip(payload, seed, depth):
    """Pushing any legal tunnel stack, then stripping it at the tunnels'
    receiver, restores the packet; the push and the strip are the ones
    Forwarder.forward uses."""
    fwd = Forwarder(random.Random(seed))
    pkt = Packet(flow_id="f", src="a", dst="z", payload_size_bytes=payload,
                 created_at_s=0.0)
    tunnels = [fwd.open_tunnel("b") for _ in range(depth)]
    for header in tunnels:
        encapsulate(pkt, header, GTP_HEADER_BYTES)
    assert pkt.wire_size_bytes == payload + 8 * len(tunnels)
    assert list(teids_of(pkt.header_stack)) \
        == [teid for _, teid in reversed(tunnels)]
    fwd.strip("a", pkt)  # the sender strips nothing
    assert len(pkt.header_stack) == len(tunnels)
    for _ in tunnels:  # one header per strip
        fwd.strip("b", pkt)
    assert pkt.wire_size_bytes == payload
    assert len(pkt.header_stack) == 0 and pkt.payload_size_bytes == payload


@PURE_SETTINGS
@given(freq=st.floats(min_value=0.5e9, max_value=6e9),
       bw=st.sampled_from([10e6, 20e6, 30e6, 40e6]),
       tx=st.floats(min_value=0.0, max_value=46.0),
       d1=st.floats(min_value=1.0, max_value=20_000.0),
       factor=st.floats(min_value=1.001, max_value=100.0),
       dp=st.floats(min_value=0.1, max_value=6.0))
def test_capacity_monotonicity(freq, bw, tx, d1, factor, dp):
    """Capacity never increases with distance, never decreases with power."""
    p = RadioParams()
    def cap(t, d):
        s = radio.snr_db(t, freq, bw, d, p)
        return radio.shannon_capacity_bps(bw, s, p, downlink=True)
    assert cap(tx, d1 * factor) <= cap(tx, d1)
    assert cap(tx + dp, d1) >= cap(tx, d1)


@SIM_SETTINGS
@given(**mini_params)
def test_backhaul_nesting_depth(seed, rate, size, uav_x, mode):
    """User traffic crosses the wireless backhaul at header depth exactly 2:
    two GTP layers under reroute, GTP-in-BAP under bypass."""
    scn, trace = run_mini(seed, rate, size, uav_x, mode)
    backhaul = scn.find_link("donor-du", "uav1-mt")
    assert backhaul is not None
    crossings = [e for e in records(trace)
                 if e["kind"] == "Departure" and e["location"] == backhaul.id
                 and e["subject"] == "dl-ue2"]
    assert crossings, "no user traffic crossed the backhaul"
    for e in crossings:
        assert e["depth"] == 2
        gtp_layers = len(e["teids"])
        assert gtp_layers == (2 if mode is PathMode.UPF_REROUTE else 1)
        assert e["wire_size"] == size + (16 if gtp_layers == 2 else 12)


@SIM_SETTINGS
@given(**mini_params)
def test_departure_rows_carry_the_queued_stack(seed, rate, size, uav_x, mode):
    """Every Departure row gives the depth and the TEIDs, outermost first, of
    the header stack its packet was queued with at its sender."""
    scn = build_mini_scenario(seed=seed, ue2_rate_bps=rate, packet_size=size,
                              uav_x=uav_x)
    sim = Simulator(scn, mode=mode, trace_level="full")
    transmit, queued = sim._transmit, defaultdict(list)

    def recorded(hop, pkt):
        queued[pkt.flow_id, pkt.seq, hop.out.link_dir.src].append(
            (len(pkt.header_stack), list(teids_of(pkt.header_stack))))
        transmit(hop, pkt)
    sim._transmit = recorded
    trace = sim.run()
    depths = set()
    for e in records(trace):
        if e["kind"] == "Departure":
            depth, teids = queued[e["subject"], e["pkt"], e["src"]].pop(0)
            assert (e["depth"], e["teids"]) == (depth, teids)
            depths.add(depth)
    assert depths == {0, 1, 2}


@SIM_SETTINGS
@given(**mini_params)
def test_per_flow_conservation(seed, rate, size, uav_x, mode):
    """injected == delivered + dropped + in_flight, with no negatives."""
    _, trace = run_mini(seed, rate, size, uav_x, mode)
    for row in trace.summary["flows"].values():
        assert row["injected"] == (row["delivered"] + row["dropped"]
                                   + row["in_flight"])
        assert min(row["injected"], row["delivered"], row["dropped"],
                   row["in_flight"]) >= 0


@SIM_SETTINGS
@given(**mini_params)
def test_throughput_bounded_by_bottleneck(seed, rate, size, uav_x, mode):
    """Measured goodput never beats the weakest traversed link by >1%."""
    scn, trace = run_mini(seed, rate, size, uav_x, mode)
    paths = trace.flows["dl-ue2"].paths
    if not paths:
        return
    (hops,) = paths  # every flow takes one path
    bottleneck = min(
        link_capacity(scn, scn.find_link(a, b), a)
        for a, b in zip(hops, hops[1:]))
    goodput = measure_throughput(trace, "dl-ue2", (0.0, scn.duration_s))
    assert goodput <= bottleneck * 1.01


@settings(SIM_SETTINGS, max_examples=40)
@given(**mini_params)
def test_records_replay_to_the_summary(seed, rate, size, uav_x, mode):
    """The trace-replay oracle holds on every run: the records give the
    summary's per-link and per-flow counts and the packets still on the way,
    and keep each link direction FIFO, to its serialization and to one
    propagation delay."""
    scn, trace = run_mini(seed, rate, size, uav_x, mode)
    assert oracle_mismatches(scn, trace) == []


@SIM_SETTINGS
@given(seed=st.integers(min_value=0, max_value=10_000),
       rate=st.floats(min_value=2e6, max_value=20e6),
       size=st.integers(min_value=600, max_value=1400),
       mode=MODES)
def test_trace_determinism(seed, rate, size, mode):
    """Same scenario + seed + mode reproduces the exact trace, byte for byte.
    The seed only draws TEIDs: at the next seed the trace differs, but every
    flow and link figure of the summary is the same."""
    hashes = set()
    goodputs = set()
    for _ in range(2):
        _, trace = run_mini(seed, rate, size, 880.0, mode)
        hashes.add(trace.content_hash())
        goodputs.add(trace.summary["flows"]["dl-ue2"]["goodput_bps"])
    assert len(hashes) == 1
    assert len(goodputs) == 1
    _, other = run_mini(seed + 1, rate, size, 880.0, mode)
    assert other.content_hash() not in hashes
    assert other.summary["flows"] == trace.summary["flows"]
    assert other.summary["links"] == trace.summary["links"]


@SIM_SETTINGS
@given(buffer=st.integers(min_value=1, max_value=16),
       **dict(mini_params, rate=st.floats(min_value=15e6, max_value=45e6)))
def test_trace_level_never_changes_the_summary(buffer, seed, rate, size, uav_x,
                                               mode):
    """A summary-level run delivers, drops and sends what a full-level run
    does, also when short link buffers overflow: at 15-45 Mbit/s they do in
    about half the cases."""
    _, full = run_mini(seed, rate, size, uav_x, mode, "full", buffer)
    _, brief = run_mini(seed, rate, size, uav_x, mode, "summary", buffer)
    assert brief.summary["flows"] == full.summary["flows"]
    assert brief.summary["links"] == full.summary["links"]


@SIM_SETTINGS
@given(**mini_params)
def test_protocol_ordering(seed, rate, size, uav_x, mode):
    """No user packet moves for a UE before its context is Connected, and no
    control message is delivered on an Idle/Released association."""
    _, trace = run_mini(seed, rate, size, uav_x, mode)
    connected_at = {}
    assoc_window = {}
    inactive = []
    for e in records(trace):
        if e["kind"] == "Drop" and e["cause"] == "assoc-inactive":
            inactive.append(e)
        if e["kind"] != "StateTransition":
            continue
        if e["location"].startswith("ue:") and e["to_state"] == "Connected":
            connected_at[e["location"][3:]] = e["time"]
        if e["location"].startswith("f1:"):
            du = e["location"][3:]
            if e["to_state"] == "SetupRequested":
                assoc_window.setdefault(du, e["time"])
    for fid, record in trace.flows.items():
        if not record.delivered_at:
            continue
        first = record.delivered_at[0]
        if not fid.startswith("f1c:"):
            for hops in record.paths:
                ue = hops[-1]
                assert ue in connected_at and first >= connected_at[ue]
        else:  # an F1 flow, f1c:<du>
            du = fid.removeprefix("f1c:")
            assert du in assoc_window and first >= assoc_window[du]
    assert not inactive
