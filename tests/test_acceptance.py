"""End-to-end acceptance gate; each test prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The randomized invariant suites referenced by criterion 5 live in
test_properties.py and run as part of the same pytest session.
"""
from iabsim import PathMode, measure_throughput, radio
from iabsim.radio import RadioParams

from conftest import (UE1_DL_HOPS, UE2_DL_HOPS_BAP, UE2_DL_HOPS_REROUTE,
                      UE2_UL_F1_PATH, took_only)


def report(name, ok):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def test_criterion_1_upf_reroute_paths(ref_reroute):
    """Every F1 message and every UE2 user packet follows the reroute path
    through the core, uplink and downlink mirrored."""
    trace, seconds = ref_reroute
    ok = True

    # user packets for the UE behind the aerial node
    ok &= took_only(trace, "dl-ue2", UE2_DL_HOPS_REROUTE)

    # the donor-side UE must not take the reroute detour
    ok &= took_only(trace, "dl-ue1", UE1_DL_HOPS)

    # F1 control messages of the aerial DU's association, both directions
    ok &= set(trace.flows["f1c:uav1-du"].paths) == {UE2_UL_F1_PATH,
                                                    UE2_UL_F1_PATH[::-1]}

    ok &= seconds < 10.0
    report(f"criterion 1: UPF-reroute path exact on every F1 message and "
           f"UE2 packet ({seconds:.1f}s runtime)", ok)


def test_criterion_2_bap_bypass(compare_traces):
    """BAP bypass shortens the transport path and strictly reduces overhead
    bytes and mean latency while delivering every injected packet in both
    modes; injection is the same in both, so what is delivered is too."""
    (reroute, t_a) = compare_traces[PathMode.UPF_REROUTE]
    (bypass, t_b) = compare_traces[PathMode.BAP_BYPASS]
    ok = True

    ctl = set(bypass.flows["f1c:uav1-du"].paths)
    short_ul = ("uav1-du", "uav1-mt", "donor-du", "cu")
    ok &= bool(ctl) and ctl <= {short_ul, short_ul[::-1]}
    ok &= took_only(bypass, "dl-ue2", UE2_DL_HOPS_BAP)

    for flow in ("dl-ue1", "dl-ue2"):
        rows = [t.summary["flows"][flow] for t in (reroute, bypass)]
        ok &= rows[0]["injected"] == rows[1]["injected"]
        for row in rows:  # lossless
            ok &= 0 < row["delivered"] == row["injected"]
            ok &= row["dropped"] == row["in_flight"] == 0

    fa = reroute.summary["flows"]["dl-ue2"]
    fb = bypass.summary["flows"]["dl-ue2"]
    ok &= fb["overhead_bytes"] < fa["overhead_bytes"]
    ok &= fb["mean_latency_s"] < fa["mean_latency_s"]
    ok &= bypass.summary["totals"]["header_bytes"] \
        < reroute.summary["totals"]["header_bytes"]

    ok &= t_a < 10.0 and t_b < 10.0
    report(f"criterion 2: BAP bypass short path, lossless in both modes, lower "
           f"overhead/latency ({t_a:.1f}s + {t_b:.1f}s runtime)", ok)


def test_criterion_3_coverage_extension(ref_reroute):
    """UE2 is outside donor coverage and gets service only once the aerial
    node is instantiated at t=2s."""
    trace, _ = ref_reroute
    p = RadioParams()
    # The donor cannot reach it.
    ok = radio.covered_rx_dbm(23.0, 2.585e9, 6000.0, p) is None
    before = measure_throughput(trace, "dl-ue2", (0.0, 2.0))
    after = measure_throughput(trace, "dl-ue2", (4.0, 6.5))
    ok &= before == 0.0
    ok &= after > 0.0
    report(f"criterion 3: coverage extension (goodput {before / 1e6:.1f} -> "
           f"{after / 1e6:.1f} Mbit/s)", ok)


def test_criterion_4_throughput_calibration(ref_reroute):
    """UE2 steady-state downlink goodput lands on 30 Mbit/s within 10%."""
    trace, seconds = ref_reroute
    goodput = measure_throughput(trace, "dl-ue2", (4.0, 6.5))
    ok = 27e6 <= goodput <= 33e6
    ok &= seconds < 30.0
    report(f"criterion 4: steady-state goodput {goodput / 1e6:.2f} Mbit/s "
           f"in 30 +/- 10% ({seconds:.1f}s runtime)", ok)


def test_criterion_5_property_suites_sized():
    """The randomized suites in test_properties.py run in this session; this
    gate pins each one to at least 200 examples."""
    import test_properties as props
    suites = [
        props.test_encapsulation_round_trip,
        props.test_capacity_monotonicity,
        props.test_backhaul_nesting_depth,
        props.test_per_flow_conservation,
        props.test_throughput_bounded_by_bottleneck,
        props.test_trace_determinism,
        props.test_protocol_ordering,
    ]
    ok = True
    for fn in suites:
        ok &= fn._hypothesis_internal_use_settings.max_examples >= 200
    report(f"criterion 5: {len(suites)} randomized suites at >=200 cases each",
           ok)


def test_criterion_6_protocol_ordering(ref_reroute, ref_bap, compare_traces,
                                      replay):
    """Across all acceptance runs: no user packet for a UE before its context
    is Connected, and nothing delivered on an Idle/Released association."""
    traces = [ref_reroute[0], ref_bap[0]] + \
        [t for (t, _) in compare_traces.values()]
    ok = True
    for trace in traces:
        connected = {}
        requested = {}
        seen = replay(trace)
        for e in seen.transitions:
            if e["location"].startswith("ue:") and e["to_state"] == "Connected":
                connected.setdefault(e["location"][3:], e["time"])
            if e["location"].startswith("f1:") and e["to_state"] == "SetupRequested":
                requested.setdefault(e["location"][3:], e["time"])
        for fid, record in trace.flows.items():
            if not record.delivered_at:
                continue
            first = record.delivered_at[0]
            if not fid.startswith("f1c:"):
                for hops in record.paths:
                    ue = hops[-1]
                    ok &= ue in connected and first >= connected[ue]
            else:  # an F1 flow, f1c:<du>
                du = fid.removeprefix("f1c:")
                ok &= du in requested and first >= requested[du]
        # no packet of a flow even moves on a link before its UE connects
        for fid in trace.summary["flows"]:
            dests = {hops[-1] for hops in trace.flows[fid].paths}
            first = seen.first_move.get(fid)
            if first is None or not dests:
                continue
            dst = dests.pop()
            ok &= dst in connected and first >= connected[dst]
        ok &= not seen.drop_causes["assoc-inactive"]
    report("criterion 6: zero early user packets, nothing delivered on "
           "inactive associations", ok)
