import importlib.util
import json
import time
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest

from iabsim import PathMode, Scenario, Simulator, link_capacity, load_scenario
from iabsim.topology import (Carrier, DuConfigUpdateDirective, FlowSpec,
                             IabNodeDirective, Medium, Role)

from replay import Replay

ROOT = Path(__file__).resolve().parent.parent


def records(trace):
    """Each exported record of `trace` after the header, parsed, in seq
    order, so a test sees what the file holds. The lines are parsed as one
    JSON array per batch, small enough that a batch's records are gone
    before the cyclic GC promotes them."""
    lines = islice(trace.to_jsonl_lines(), 1, None)
    while batch := list(islice(lines, 256)):
        yield from json.loads("[" + ",".join(batch) + "]")

N41 = Carrier(band_label="n41", center_frequency_hz=2.585e9,
              bandwidth_hz=20e6, scs_hz=30e3)
N78 = Carrier(band_label="n78", center_frequency_hz=3.47e9,
              bandwidth_hz=30e6, scs_hz=30e3)

# Delivered-packet hop sequences on the reference scenario, downlink.
UE2_UL_F1_PATH = ("uav1-du", "uav1-mt", "donor-du", "cu", "upf", "cu")
UE2_DL_HOPS_REROUTE = ("upf", "cu", "upf", "cu", "donor-du", "uav1-mt",
                       "uav1-du", "ue2")
UE2_DL_HOPS_BAP = ("upf", "cu", "donor-du", "uav1-mt", "uav1-du", "ue2")
UE1_DL_HOPS = ("upf", "cu", "donor-du", "ue1")
# The same UEs' uplink hop sequences.
UE2_UL_HOPS_REROUTE = ("ue2", "uav1-du", "uav1-mt", "donor-du", "cu", "upf",
                       "cu", "upf")
UE2_UL_HOPS_BAP = ("ue2", "uav1-du", "uav1-mt", "donor-du", "cu", "upf")
UE1_UL_HOPS = ("ue1", "donor-du", "cu", "upf")


def churn_text(seed) -> str:
    """The reconfig-churn scenario file that perfbench/churn.py draws at
    `seed`."""
    spec = importlib.util.spec_from_file_location(
        "churn", ROOT / "perfbench" / "churn.py")
    churn = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(churn)
    return churn.generate(seed)


def merge_chain(links) -> str:
    """A scenario file whose top-level mapping merges the last of `links`
    anchored mappings, each merging the one before it by alias. Its first
    alias is on line 1."""
    chain = ", ".join(["&a0 {k: 1}"] + [f"&a{i} {{<<: *a{i - 1}}}"
                                        for i in range(1, links)])
    return f"x: [{chain}]\n<<: *a{links - 1}\n"


def alias_chain(links) -> str:
    """A scenario file whose duration is the last of `links` anchored lists,
    each holding the one before it by alias. The text nests 3 deep, the
    document `links` + 1. Its first alias is on line 1."""
    chain = ", ".join(["&a0 [1]"] + [f"&a{i} [*a{i - 1}]"
                                     for i in range(1, links)])
    return f"asserts: [{chain}]\nduration: *a{links - 1}\n"


def alias_expansion(levels) -> str:
    """A scenario file whose seed is `levels` anchored lists, each holding
    the one before it ten times by alias: built, the last one holds
    10**`levels` ones. Its first alias is on line 2."""
    lists = ", ".join(["&a0 [" + ", ".join(["1"] * 10) + "]"]
                      + [f"&a{i} [" + ", ".join([f"*a{i - 1}"] * 10) + "]"
                         for i in range(1, levels)])
    return f"duration: 1.0\nseed: [{lists}]\n"


def took_only(trace, flow, hops) -> bool:
    """Packets of `flow` were delivered, and every one of them took `hops`."""
    record = trace.flows[flow]
    n = len(record.delivered_at)
    return n > 0 and record.paths == Counter({hops: n})


def in_flight(trace) -> int:
    """Packets of every flow, F1 included, neither delivered nor dropped."""
    return sum(r.injected - len(r.delivered_at) - r.dropped
               for r in trace.flows.values())


def oracle_mismatches(scn, trace) -> list[str]:
    """Where a full-level run of `scn` breaks the trace-replay oracle: its
    records against its summary, its packets still on the way and its links'
    model. A run that ends with packets queued counts them in its summary's
    per-link `packets` but has no Departure of theirs in its records, so for
    such a run the per-link counts are reconciled in sum, by `unfinished`.

    `scn` is the Simulator's own, which holds the radio links added at run
    time. Unless a DU configuration update changes a carrier during the run,
    each radio direction keeps the capacity `link_capacity` gives it, and its
    Departures are checked against that too."""
    replayed = Replay(records(trace))
    wired = {link.id: link for link in scn.links
             if link.medium is Medium.WIRED}
    radio_bps = {}
    if not any(isinstance(d, DuConfigUpdateDirective) for d in scn.schedule):
        radio_bps = {(link.id, src, link.other(src)):
                     link_capacity(scn, link, src)
                     for link in scn.links if link.medium is Medium.RADIO
                     for src in (link.a, link.b)}
    out = replayed.mismatches(trace.summary)
    on_the_way = in_flight(trace)
    unfinished = replayed.unfinished(trace.summary)
    if on_the_way:
        out = [line for line in out if line.startswith("flow ")]
    if unfinished != on_the_way:
        out.append(f"{unfinished} packets on the way by the records, "
                   f"{on_the_way} by the flows")
    return out + replayed.queue_mismatches(wired, scn.duration_s,
                                           radio_bps)


def build_donor_scenario(duration=1.0, seed=1, ue2_x=6000.0,
                         n6_link=True) -> Scenario:
    """CU + UPF + donor DU + near UE1 + far UE2, no IAB node yet."""
    scn = Scenario(duration_s=duration, seed=seed)
    scn.add_node(Role.CU, (0.0, -20.0), node_id="cu")
    scn.add_node(Role.UPF, (0.0, -40.0), node_id="upf")
    scn.add_node(Role.DONOR_DU, (0.0, 0.0), tx_power_dbm=23.0, carrier=N41,
                 node_id="donor-du")
    scn.add_node(Role.UE, (50.0, 0.0), tx_power_dbm=23.0, node_id="ue1")
    scn.add_node(Role.UE, (ue2_x, 0.0), tx_power_dbm=23.0, node_id="ue2")
    scn.add_link("cu", "donor-du", Medium.WIRED, wired_capacity_bps=1e9,
                 propagation_delay_s=1e-6, link_id="f1-wire")
    if n6_link:
        scn.add_link("cu", "upf", Medium.WIRED, wired_capacity_bps=1e9,
                     propagation_delay_s=1e-6, link_id="n6-wire")
    return scn


def build_mini_scenario(seed=1, ue2_rate_bps=6e6, packet_size=1000,
                        uav_x=880.0, ue2_x=6000.0, duration=0.15) -> Scenario:
    """Small end-to-end scenario for property tests: IAB node at t=0.01."""
    scn = build_donor_scenario(duration=duration, seed=seed, ue2_x=ue2_x)
    scn.flows.append(FlowSpec(id="dl-ue2", src="upf", dst="ue2",
                              rate_bps=ue2_rate_bps,
                              packet_size_bytes=packet_size,
                              start_s=0.03, stop_s=duration - 0.02))
    scn.schedule.append(IabNodeDirective(at_s=0.01, position=(uav_x, 0.0),
                                         access_carrier=N78, tx_power_dbm=43.0,
                                         group="uav1"))
    return scn


def timed_run(scenario, mode):
    t0 = time.monotonic()
    trace = Simulator(scenario, mode=mode).run()
    return trace, time.monotonic() - t0


@pytest.fixture(scope="session")
def ref_scenario():
    """The reference scenario, loaded once: runs never change it."""
    return load_scenario("paper-reference")


@pytest.fixture(scope="session")
def ref_reroute(ref_scenario):
    """Reference scenario under UpfReroute: (trace, wall seconds)."""
    return timed_run(ref_scenario, PathMode.UPF_REROUTE)


@pytest.fixture(scope="session")
def ref_bap(ref_scenario):
    return timed_run(ref_scenario, PathMode.BAP_BYPASS)


@pytest.fixture(scope="session")
def compare_traces():
    """bap-compare scenario run once per mode: (trace, seconds) per mode."""
    scn = load_scenario("bap-compare")
    return {mode: timed_run(scn, mode)
            for mode in (PathMode.UPF_REROUTE, PathMode.BAP_BYPASS)}


@pytest.fixture(scope="session")
def replay():
    """The `Replay` of a trace's records, made once per trace."""
    # Each trace is kept with its Replay, so that its id is never reused.
    done = {}

    def of(trace) -> Replay:
        if id(trace) not in done:
            done[id(trace)] = (trace, Replay(records(trace)))
        return done[id(trace)][1]
    return of
