import gc
import hashlib
import heapq
import json
import math
import tracemalloc
import types
from collections import Counter

import pytest

from iabsim import (PathMode, Simulator, engine, gtp, link_capacity,
                    load_scenario, measure_throughput)
from iabsim.errors import NoRoute, ScenarioInvalid, UnknownFlow
from iabsim.f1ap import F1Message, MsgKind
from iabsim.gtp import BAP_HEADER_BYTES, GTP_HEADER_BYTES, Decision, Packet
from iabsim.radio import RadioParams
from iabsim.scenario_io import loads
from iabsim.trace import FlowRecord
from iabsim.topology import (DuConfigUpdateDirective, FlowSpec,
                             IabNodeDirective, Medium, Role, Scenario)

from conftest import (N41, N78, UE1_DL_HOPS, UE1_UL_HOPS, UE2_DL_HOPS_BAP,
                      UE2_DL_HOPS_REROUTE, UE2_UL_HOPS_BAP, UE2_UL_HOPS_REROUTE,
                      build_donor_scenario, build_mini_scenario, churn_text,
                      in_flight, oracle_mismatches, records, took_only)
from replay import Replay
from test_golden import GOLDEN
from test_replay import IDS, RUNS, SCENARIOS, trace_of
from test_scenario_io import assert_conserved


def churn_scenario(seed):
    """The reconfig-churn scenario that perfbench/churn.py draws at `seed`."""
    return loads(churn_text(seed), name="reconfig-churn")


# Full-level reconfig-churn: the SHA-256 of the sorted lines json.dumps gives
# for its records without `seq`, sorting keys, joined by newlines.
CHURN_ROW_MULTISETS = {
    (0, PathMode.UPF_REROUTE):
        "880a3c186d31f673be770be42d8f69b962e6738ad1b935855a79108b1fcc5b38",
    (0, PathMode.BAP_BYPASS):
        "1130e583d7ba33d0080b7dd70896ed40178470ce4441f10fca1bc6593c805eb9",
    (3, PathMode.UPF_REROUTE):
        "7e7265f23193d459f09732a0270d8d708f584420a472276948c3253e50d1cfa0",
    (3, PathMode.BAP_BYPASS):
        "b3d84309d0780a2a64012edc3e5d6445e062e274b9cb3d219e3f98c96008d93c",
}

# Full-level reconfig-churn: the content_hash of each seed and mode, as the
# run's one stable sort of all rows by time gave it.
CHURN_TRACE_HASHES = {
    (0, PathMode.UPF_REROUTE):
        "4f5a791c68c4f82b072026a27dcacf4ec10a504923104f7b9534a01c8834bbdd",
    (0, PathMode.BAP_BYPASS):
        "ad2461677edb59cf390acc011efc9908e4939247993f2d9ca19378d0594b4e7b",
    (1, PathMode.UPF_REROUTE):
        "a715d7de1c48b1d4f8dbb3389b93dd1defe3e39544a0313c37a4fb537a9b2a0e",
    (1, PathMode.BAP_BYPASS):
        "91c3311edc1ccef8dae70a2a7220d27400fd7837c009035b367dee689aef93df",
    (3, PathMode.UPF_REROUTE):
        "a02e9e18d68262436ccf56962d1537dd388a8a93d906ad4024a4d04b860c871d",
    (3, PathMode.BAP_BYPASS):
        "3e5ea617bbe0ec9f491887447be1c053c47a2311d0b865bf3d58dfc9198e1c58",
    (7, PathMode.UPF_REROUTE):
        "6de9b903947e216ad4b6105e2b5ed2808f4dc9ac6a04f9dac67af6203afa4f4b",
    (7, PathMode.BAP_BYPASS):
        "887db35797301a2be45dd35ebe4636b039d7606dce80e36dc35b4f60a6cad626",
}


def transitions(records, entity):
    """The StateTransition records of `entity`."""
    return [e for e in records
            if e["kind"] == "StateTransition" and e["subject"] == entity]


class TestLinkCapacity:
    def test_wired_passthrough(self):
        scn = build_donor_scenario()
        link = scn.find_link("cu", "donor-du")
        assert link_capacity(scn, link, "cu") == 1e9
        assert link_capacity(scn, link, "donor-du") == 1e9

    def test_radio_directional_split(self):
        scn = build_donor_scenario()
        scn.add_iab_node("g", (880.0, 0.0), tx_power_dbm=43.0,
                         mt_tx_power_dbm=23.0, carrier=N78)
        lid = scn.add_link("donor-du", "g-mt", Medium.RADIO)
        link = next(l for l in scn.links if l.id == lid)
        dl = link_capacity(scn, link, "donor-du")
        ul = link_capacity(scn, link, "g-mt")
        # equal tx powers, so the only asymmetry is the 0.7/0.3 TDD split
        assert dl == pytest.approx(30209177.122299664)
        assert ul == pytest.approx(12946790.195271285)
        assert dl / ul == pytest.approx(0.7 / 0.3)



# The message of the control packets queued below: they belong to no flow.
SETUP = F1Message(MsgKind.SETUP_REQUEST, "donor-du")


def queue_on(sim, d, pkt):
    """Queue `pkt` on the link direction `d`, as a decision to send it there
    does. Its flow, which the scenario does not have, gets a record."""
    sim.trace.flows.setdefault(pkt.flow_id, FlowRecord(pkt.payload_size_bytes))
    sim._transmit(Decision(d.dst, pkt.header_stack, 0, out=engine._Out(d)),
                  pkt)


class TestSerialization:
    def _sim(self):
        return Simulator(build_donor_scenario(duration=1.0))

    def test_departure_time_matches_wire_size_over_capacity(self):
        sim = self._sim()
        d = sim._link_dir("cu", "upf")
        pkt = Packet(flow_id="x", src="cu", dst="upf", control=SETUP,
                     payload_size_bytes=1016, created_at_s=0.0)
        queue_on(sim, d, pkt)
        # 8 * 1016 / 1e9 seconds of serialization
        assert d.finish_times[-1] == pytest.approx(8 * 1016 / 1e9)
        assert d.bytes_total == 1016 and d.packets == 1

    def test_fifo_back_to_back(self):
        sim = self._sim()
        d = sim._link_dir("cu", "upf")
        for i in range(2):
            queue_on(sim, d, Packet(flow_id="x", src="cu", dst="upf",
                                    control=SETUP, payload_size_bytes=1000,
                                    created_at_s=0.0, seq=i))
        assert d.finish_times[-1] == pytest.approx(2 * 8 * 1000 / 1e9)
        assert len(d.finish_times) == 2

    def test_queue_overflow_on_257th_packet(self):
        sim = self._sim()
        d = sim._link_dir("cu", "upf")
        for i in range(257):
            queue_on(sim, d, Packet(flow_id="x", src="cu", dst="upf",
                                    control=SETUP, payload_size_bytes=1000,
                                    created_at_s=0.0, seq=i))
        assert len(d.finish_times) == 256
        drops = [e for e in records(sim.trace) if e["kind"] == "Drop"]
        assert len(drops) == 1
        assert drops[0]["cause"] == "queue-overflow"
        assert drops[0]["pkt"] == 256  # the 257th packet, zero-based

    def test_packet_leaves_the_queue_at_its_finish_time(self, monkeypatch):
        sim = self._sim()
        monkeypatch.setattr(engine, "LINK_BUFFER_PACKETS", 1)
        d = sim._link_dir("cu", "upf")

        def send(i):
            queue_on(sim, d, Packet(flow_id="x", src="cu", dst="upf",
                                    control=SETUP, payload_size_bytes=1000,
                                    created_at_s=0.0, seq=i))
        send(0)
        finish = d.finish_times[-1]
        sim.now = finish / 2
        send(1)  # the first packet is still on the wire: no room
        sim.now = finish
        send(2)  # the first packet has just left: it takes no room
        drops = [e for e in records(sim.trace) if e["kind"] == "Drop"]
        assert [e["pkt"] for e in drops] == [1]
        assert d.packets == 2 and list(d.finish_times) == [2 * finish]

    def test_capacity_follows_du_carrier_update(self):
        scn = build_donor_scenario(duration=1.0)
        scn.add_link("donor-du", "ue1", Medium.RADIO)
        sim = Simulator(scn)
        link = sim.scn.find_link("donor-du", "ue1")
        d = sim._link_dir("donor-du", "ue1")

        def serialization_s():
            before = max([sim.now, *d.finish_times])
            queue_on(sim, d, Packet(flow_id="x", src="donor-du", dst="ue1",
                                    control=SETUP, payload_size_bytes=1000,
                                    created_at_s=0.0))
            return d.finish_times[-1] - before

        first = serialization_s()
        assert first == pytest.approx(1000 * 8 / link_capacity(scn, link, "donor-du"))
        sim._du_carrier_update("donor-du", N78)
        second = serialization_s()
        assert second == pytest.approx(1000 * 8 / link_capacity(scn, link, "donor-du"))
        assert second < first  # 30 MHz of n78 against 20 MHz of n41


class TestEventLoop:
    def test_a_direction_keeps_one_arrival_in_the_heap(self):
        sim = Simulator(build_donor_scenario(duration=1.0))
        d = sim._link_dir("cu", "upf")
        first = sim._heap_seq
        pkts = [Packet(flow_id="x", src="cu", dst="upf", control=SETUP,
                       payload_size_bytes=1000, created_at_s=0.0, seq=i)
                for i in range(3)]
        for pkt in pkts:
            queue_on(sim, d, pkt)
        arrivals = [t + d.delay for t in d.finish_times]
        assert len(sim._heap) == 1 and len(d.waiting) == 3
        assert sim._heap[0] is d.waiting[0]
        popped = []
        while sim._heap:
            t, seq, fn, args = heapq.heappop(sim._heap)
            popped.append((t, seq, args[1]))
            sim.now = t
            fn(*args)  # pushes the next arrival over d
        assert popped == list(zip(arrivals, range(first, first + 3), pkts))
        assert not d.waiting

    def test_int_start_and_directive_times_run_as_floats(self):
        # An int flow start or directive time was each row's time at it: the
        # first packet's no-route Drop exported as "time": 1 in a batch that
        # prints each time's repr, and the run hashed apart from the 1.0 one.
        def run(t):
            scn = build_donor_scenario(duration=2.0)
            scn.flows.append(FlowSpec(id="dl-ue2", src="upf", dst="ue2",
                                      rate_bps=1e6, packet_size_bytes=500,
                                      start_s=t, stop_s=2.0))
            scn.schedule.append(IabNodeDirective(
                at_s=t, position=(880.0, 0.0), access_carrier=N78,
                tx_power_dbm=43.0, group="uav1"))
            return Simulator(scn).run()
        ints, floats = run(1), run(1.0)
        assert ints.content_hash() == floats.content_hash()
        assert {type(time) for time in ints.times} == {float}
        directive = next(e for e in records(ints) if e["kind"] == "Directive")
        assert directive["time"] == directive["at"] == 1.0

    def test_int_duration_gives_the_float_summary(self):
        # An int duration once wrote "duration_s": 2 where 2.0 wrote 2.0,
        # while the two traces hashed alike.
        def summary_json(duration):
            scn = build_donor_scenario(duration=duration)
            scn.flows.append(FlowSpec(id="dl-ue1", src="upf", dst="ue1",
                                      rate_bps=1e6, packet_size_bytes=500,
                                      start_s=0.5, stop_s=duration))
            trace = Simulator(scn).run()
            return json.dumps(trace.summary, indent=2, allow_nan=False)
        assert summary_json(2) == summary_json(2.0)

    @pytest.mark.parametrize("mode", list(PathMode))
    def test_the_heap_holds_one_arrival_per_link_direction(self, monkeypatch,
                                                           mode):
        # Each packet queued on the full 256-packet donor-du -> uav1-mt
        # buffer once had its own entry: the heap peaked at 261 entries.
        sim = Simulator(load_scenario("paper-reference"), mode=mode)
        most, longest, waited = 0, 0, 0

        def heappop(heap):  # counted as perfbench's traced pass counts it
            nonlocal most, longest, waited
            vias = Counter(id(args[2]) for _, _, fn, args in heap
                           if fn == sim._handle)
            most = max(most, *vias.values(), 0)
            longest = max(longest, len(heap))
            waited = max(waited, *(len(d.waiting)
                                   for d in sim._link_dirs.values()), 0)
            return heapq.heappop(heap)
        shim = types.ModuleType("heapq")
        shim.__dict__.update(vars(heapq), heappop=heappop)
        monkeypatch.setattr(engine, "heapq", shim)
        sim.run()
        assert most == 1 and longest <= 20
        assert waited >= 256  # the buffer did fill

    @pytest.mark.parametrize("enabled", [True, False])
    def test_the_loop_pauses_the_gc_and_restores_it(self, enabled):
        was, seen = gc.isenabled(), []
        sim = Simulator(build_mini_scenario(), trace_level="summary")
        transmit = sim._transmit

        def spy(hop, pkt):
            seen.append(gc.isenabled())
            transmit(hop, pkt)
        sim._transmit = spy
        try:
            (gc.enable if enabled else gc.disable)()
            sim.run()
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert seen and not any(seen)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_a_raise_in_the_loop_restores_the_gc(self, enabled):
        was = gc.isenabled()
        sim = Simulator(build_mini_scenario(), trace_level="summary")

        def broken(hop, pkt):
            raise RuntimeError("mid-loop")
        sim._transmit = broken
        try:
            (gc.enable if enabled else gc.disable)()
            with pytest.raises(RuntimeError, match="mid-loop"):
                sim.run()
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("mode", list(PathMode))
    def test_a_run_leaves_no_cyclic_garbage(self, mode):
        # What the pause rests on: nothing the loop drops needs the cyclic
        # GC to be freed.
        sim = Simulator(load_scenario("paper-reference"), mode=mode)
        gc.collect()
        trace = sim.run()
        assert gc.collect() == 0
        assert len(trace) > 100_000


class TestTraceLevel:
    """The trace level decides what is recorded, never what happens."""

    @pytest.mark.parametrize("fixture", ["ref_reroute", "ref_bap"])
    def test_summary_level_keeps_flows_and_links(self, request, ref_scenario,
                                                 fixture):
        full, _ = request.getfixturevalue(fixture)
        brief = Simulator(ref_scenario, mode=full.mode,
                          trace_level="summary").run()
        assert brief.summary["flows"] == full.summary["flows"]
        assert brief.summary["links"] == full.summary["links"]

    def test_reroute_reference_overflows_queues(self, ref_reroute, replay):
        trace, _ = ref_reroute
        assert replay(trace).drop_causes["queue-overflow"] == 1406

    @pytest.mark.parametrize("mode", list(PathMode))
    def test_hop_rows_leave_the_cyclic_gc(self, mode):
        # The columns hold no object that collections keep walking: `times`
        # holds doubles, `pkts` ints and a head only strings and bytes. A
        # collection untracks a tuple once it finds what it holds untracked:
        # in that collection or, if the collector moved an inner tuple
        # behind its holder, in the next. The other kinds' rows once held
        # their field dict: 5,975 rows of paper-reference stayed tracked.
        scn = build_mini_scenario()
        scn.flows[0].start_s = 0.0  # dl-ue2 before its routes exist: Drops
        trace = Simulator(scn, mode=mode).run()
        for _ in range(3):
            gc.collect()
        assert {head[0] for head in trace.heads} == {
            "Arrival", "Departure", "Drop", "StateTransition", "Directive",
            "TimerExpiry"}
        assert trace.pending == [] and trace.times.typecode == "d"
        assert not any(map(gc.is_tracked, trace.heads))
        assert not any(map(gc.is_tracked, trace.pkts))

    def test_one_hop_key_per_distinct_hop(self, ref_reroute):
        # Every Arrival, Departure and packet Drop row shares its head with
        # every row of the same content: not one head per row.
        trace, _ = ref_reroute
        heads = [head for head in trace.heads
                 if head[0] in ("Arrival", "Departure", "Drop")]
        assert len(heads) == 215_004 + 5_961
        assert len(set(map(id, heads))) < 100

    @pytest.mark.parametrize("name", ["paper-reference", "bap-compare"])
    @pytest.mark.parametrize("mode", list(PathMode))
    def test_both_levels_push_the_same_heap_events(self, name, mode):
        # A hop is one event at both levels: a full-level run once pushed a
        # Departure event before each arrival, 238,581 events against
        # 131,079 on paper-reference under UpfReroute.
        pushed = []
        for level in ("full", "summary"):
            sim = Simulator(load_scenario(name), mode=mode, trace_level=level)
            sim.run()
            pushed.append(sim._heap_seq)
        assert pushed[0] == pushed[1] > 0

    @pytest.mark.parametrize("seed, mode", list(CHURN_ROW_MULTISETS),
                             ids=[f"seed{s}-{m.value}"
                                  for s, m in CHURN_ROW_MULTISETS])
    def test_churn_rows_keep_their_multiset(self, seed, mode):
        # A Departure row is appended when its packet is queued, and rows
        # at one time keep the order they were appended in. At these seeds
        # an F1 Departure ties an F1 Arrival at 0.100002024 s and now comes
        # first: the rows moved, and none changed. The queues these runs
        # build across carrier changes stay FIFO.
        scn = churn_scenario(seed)
        trace = Simulator(scn, mode=mode).run()
        recs = list(records(trace))
        wired = {link.id: link for link in scn.links
                 if link.medium is Medium.WIRED}
        replayed = Replay(recs)
        assert replayed.queue_mismatches(wired, scn.duration_s) == []
        # The run ends with packets queued (132 of ul-ue2's at seed 0): the
        # summary's `packets` counts them, and no Departure of theirs is in
        # the records.
        assert replayed.unfinished(trace.summary) == in_flight(trace)
        times = [r["time"] for r in recs]
        assert times == sorted(times)
        tied = [r["kind"] for r in recs if r["time"] == 0.100002024
                and r["subject"] == "f1c:donor-du"]
        assert tied.index("Departure") < tied.index("Arrival")
        lines = sorted(json.dumps({k: v for k, v in r.items() if k != "seq"},
                                  sort_keys=True) for r in recs)
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() \
            == CHURN_ROW_MULTISETS[seed, mode]


class TestSeal:
    """The run seals rows into the trace's columns as its clock passes: the
    order is the one a stable sort of all rows by time gives."""

    @pytest.mark.parametrize("seed, mode", list(CHURN_TRACE_HASHES),
                             ids=[f"seed{s}-{m.value}"
                                  for s, m in CHURN_TRACE_HASHES])
    def test_churn_trace_hash_is_pinned(self, seed, mode):
        # Its Departures tie other rows: an F1 Departure and an F1 Arrival
        # at 0.100002024 s at seeds 0 and 3.
        trace = Simulator(churn_scenario(seed), mode=mode).run()
        assert trace.content_hash() == CHURN_TRACE_HASHES[seed, mode]

    @pytest.mark.parametrize("batch", [1, 7])
    def test_any_batch_gives_the_pinned_trace(self, monkeypatch, batch):
        monkeypatch.setattr(engine, "SEAL_BATCH_ROWS", batch)
        pinned = {mode: digest for fixture, mode, _, digest, _ in GOLDEN
                  if fixture == "compare_traces"}
        scn = load_scenario("bap-compare")
        for mode in PathMode:
            trace = Simulator(scn, mode=mode).run()
            assert trace.content_hash() == pinned[mode]

    @pytest.mark.parametrize("case", ["short-reference", "no-iab-node"])
    def test_rows_cost_little_and_few_stay_pending(self, monkeypatch, case):
        # A row was a (time, head, pkt) tuple until the run's end: 105 B a
        # row of this reference run, 37 B with the columns. Before 2 s the
        # reference drops dl-ue2 for no route; with no IAB node the mini
        # scenario drops all of it.
        if case == "short-reference":
            scn = load_scenario("paper-reference")
            scn.duration_s, scn.asserts = 2.5, []
            for f in scn.flows:
                f.stop_s = 2.4
        else:
            scn = build_mini_scenario()
            scn.schedule.clear()
            monkeypatch.setattr(engine, "SEAL_BATCH_ROWS", 16)
        sim = Simulator(scn)
        pending, seal = sim.trace.pending, sim.trace.seal
        kept = most = 0

        def counted_seal(before=math.inf):
            # Rows kept are dated at `before` or later: Departures of
            # packets still to arrive, or rows at `before` itself.
            nonlocal kept
            kept = seal(before)
            queued = sum(len(d.waiting) for d in sim._link_dirs.values())
            assert kept <= queued + sum(r[0] == before for r in pending)
            return kept

        def heappop(heap):  # between two events: rows since the last seal
            nonlocal most
            most = max(most, len(pending) - kept)
            return heapq.heappop(heap)
        sim.trace.seal = counted_seal
        shim = types.ModuleType("heapq")
        shim.__dict__.update(vars(heapq), heappop=heappop)
        monkeypatch.setattr(engine, "heapq", shim)
        gc.collect()
        tracemalloc.start()
        try:
            trace = sim.run()
            del sim, seal, counted_seal
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert trace.pending == [] and len(trace) == len(trace.heads)
        assert most <= engine.SEAL_BATCH_ROWS
        assert sum(head[0] == "Drop" for head in trace.heads) > 70
        if case == "short-reference":
            assert held / len(trace) <= 40


class TestRunLifecycle:
    def test_invalid_scenario_rejected_at_construction(self):
        scn = Scenario(duration_s=1.0)
        scn.add_node(Role.CU, (0, 0))
        with pytest.raises(ScenarioInvalid):
            Simulator(scn)

    @pytest.mark.parametrize("field, value", [("packet_size_bytes", 0),
                                              ("rate_bps", float("inf"))])
    def test_degenerate_flow_rejected_at_construction(self, field, value):
        scn = build_mini_scenario()
        setattr(scn.flows[0], field, value)
        with pytest.raises(ScenarioInvalid, match="flow dl-ue2"):
            Simulator(scn)  # never run: the run would not end

    @pytest.mark.parametrize("level", ["ful", "Full"])
    def test_unknown_trace_level_rejected_at_construction(self, level):
        # "ful" once ran at summary level, without a word.
        with pytest.raises(ValueError, match="trace_level"):
            Simulator(build_donor_scenario(duration=0.01), trace_level=level)

    def test_runs_leave_the_scenario_unchanged(self):
        # Directives add the IAB node's nodes and links and rewrite carriers;
        # on the caller's object a second run lost UE2 (0.0 Mbit/s).
        from test_golden import COMPARE_SUMMARY_LEVEL, summary_sha256
        scn = load_scenario("bap-compare")
        for mode in list(COMPARE_SUMMARY_LEVEL) * 2:
            trace = Simulator(scn, mode=mode, trace_level="summary").run()
            assert (trace.content_hash(), summary_sha256(trace.summary)) \
                == COMPARE_SUMMARY_LEVEL[mode]
            goodput = trace.summary["flows"]["dl-ue2"]["goodput_bps"]
            assert round(goodput / 1e6, 1) == 13.0
        assert scn == load_scenario("bap-compare")

    def test_simulator_is_single_use(self):
        sim = Simulator(build_donor_scenario(duration=0.01))
        sim.run()
        with pytest.raises(ScenarioInvalid):
            sim.run()

    def test_empty_flow_list_runs_clean(self):
        trace = Simulator(build_donor_scenario(duration=0.05)).run()
        assert trace.summary["flows"] == {}
        assert list(trace.flows) == ["f1c:donor-du"]  # F1 setup only
        assert trace.flows["f1c:donor-du"].delivered_at
        # bootstrap still brings the donor association up
        assert any(e["to_state"] == "Active"
                   for e in transitions(records(trace), "f1:donor-du"))

    def test_donor_setup_latency_is_two_one_way_trips(self):
        trace = Simulator(build_donor_scenario(duration=0.05)).run()
        active = [e for e in transitions(records(trace), "f1:donor-du")
                  if e["to_state"] == "Active"]
        one_way = 64 * 8 / 1e9 + 1e-6  # 64-byte message on the 1 Gb/s F1 wire
        assert active[0]["time"] == pytest.approx(2 * one_way)

    def test_setup_response_after_both_timers_drops_as_assoc_inactive(self):
        # 80 us of load on the CU's side of the F1 wire holds both setup
        # responses past the second 3 x RTT timer (~18 us): the association
        # is Idle when they reach the DU.
        sim = Simulator(build_donor_scenario(duration=0.001))
        d = sim._link_dir("cu", "donor-du")
        for i in range(10):
            queue_on(sim, d, Packet(flow_id="load", src="cu", dst="donor-du",
                                    payload_size_bytes=1000, created_at_s=0.0,
                                    seq=i))
        trace = sim.run()
        assert [(e["to_state"], e["cause"]) for e in transitions(
            records(trace), "f1:donor-du")] \
            == [("SetupRequested", "f1-setup"), ("Idle", "transport-down")]
        drops = [e for e in records(trace) if e["kind"] == "Drop"]
        assert [(e["location"], e["cause"], e["flow"]) for e in drops] \
            == [("donor-du", "assoc-inactive", "f1c:donor-du")] * 2
        f1 = trace.flows["f1c:donor-du"]
        assert (f1.injected, len(f1.delivered_at), f1.dropped) == (4, 2, 2)
        assert len(trace.flows["load"].delivered_at) == 10

    def test_seed_changes_teids_but_not_goodput(self):
        traces = [Simulator(build_mini_scenario(), seed=s).run() for s in (1, 2)]
        g = [measure_throughput(t, "dl-ue2", (0.0, 0.15)) for t in traces]
        assert g[0] == pytest.approx(g[1])
        teids = [sorted({v for e in records(t) for v in e.get("teids", [])})
                 for t in traces]
        assert teids[0] and teids[0] != teids[1]

    @pytest.mark.parametrize("seed", [1.5, True, "1"])
    def test_a_seed_override_is_validated(self, seed):
        # 1.5 and True once ran and wrote "seed": 1.5 and true.
        with pytest.raises(ScenarioInvalid, match="^seed must be an integer$"):
            Simulator(build_mini_scenario(), seed=seed)

    def test_events_use_only_known_kinds(self):
        trace = Simulator(build_mini_scenario()).run()
        assert {e["kind"] for e in records(trace)} <= {
            "Arrival", "Departure", "TimerExpiry", "Directive", "Drop",
            "StateTransition"}


class TestDirectives:
    def test_iab_node_materializes_and_serves_ue2(self):
        trace = Simulator(build_mini_scenario()).run()
        assert measure_throughput(trace, "dl-ue2", (0.05, 0.13)) > 0
        assert took_only(trace, "dl-ue2", UE2_DL_HOPS_REROUTE)

    @pytest.mark.parametrize("at_s", [0.0, 1e-6])
    def test_iab_node_before_donor_f1_attaches_once_it_is_active(self, at_s):
        # The donor's F1 setup takes ~3 us: the first attach fails with
        # DuNotReady, and the MT attaches over its one backhaul link later.
        scn = build_donor_scenario(duration=0.1)
        scn.flows.append(FlowSpec(id="dl-ue2", src="upf", dst="ue2",
                                  rate_bps=6e6, packet_size_bytes=1000,
                                  start_s=0.03, stop_s=0.08))
        scn.schedule.append(IabNodeDirective(
            at_s=at_s, position=(880.0, 0.0), access_carrier=N78,
            tx_power_dbm=43.0, group="uav1"))
        sim = Simulator(scn)
        trace = sim.run()
        assert [e["to_state"] for e in transitions(records(trace),
                                                   "ue:uav1-mt")] \
            == ["Attaching", "Connected"]
        assert trace.summary["flows"]["dl-ue2"]["delivered"] > 0
        assert len(sim.scn.links_of("uav1-mt")) == 2  # backhaul + internal

    def test_directive_outside_all_coverage_is_a_trace_drop(self):
        scn = build_donor_scenario(duration=0.1)
        scn.schedule.append(IabNodeDirective(
            at_s=0.01, position=(10_000.0, 0.0), access_carrier=N78,
            tx_power_dbm=43.0, group="far"))
        trace = Simulator(scn).run()  # must not raise
        drops = [e for e in records(trace) if e["kind"] == "Drop"
                 and e["cause"] == "NoDonorCoverage"]
        assert len(drops) == 1
        assert "far-du" not in trace.summary.get("links", {})

    def test_routing_error_at_attach_is_a_trace_drop(self, monkeypatch):
        def no_route(fwd, ue, du, cu, upf):
            raise NoRoute(du, ("src", ue))
        monkeypatch.setattr(engine, "install_ue_routes", no_route)
        trace = Simulator(build_donor_scenario(duration=0.05)).run()  # must not raise
        drops = [e for e in records(trace) if e["kind"] == "Drop"]
        assert [(e["location"], e["cause"]) for e in drops] \
            == [("ue:ue1", "NoRoute")]
        assert trace.summary["totals"]["events"] == len(trace)

    def test_backhaul_with_no_uplink_share_is_a_trace_drop(self):
        # All TDD time downlink: the MT's uplink capacity is 0, and the F1
        # setup delay over it once divided by that 0.
        scn = build_mini_scenario()
        scn.radio_params = RadioParams(tdd_dl_fraction=1.0)
        trace = Simulator(scn).run()  # must not raise
        drops = [e for e in records(trace) if e["kind"] == "Drop"
                 and e["cause"] == "TransportDown"]
        assert [e["location"] for e in drops] == ["ue:uav1-mt"]
        assert trace.summary["flows"]["dl-ue2"]["delivered"] == 0

    def test_backhaul_with_nan_uplink_capacity_is_a_trace_drop(
            self, monkeypatch):
        # A NaN uplink capacity of the MT (once 0 * inf, from a negative
        # exponent) made the F1 setup delay over it NaN, so was its timer's
        # time, and the run stopped when that reached the top of the heap.
        nan_sent_by(monkeypatch, "uav1-mt")
        trace = Simulator(build_mini_scenario()).run()
        drops = [e for e in records(trace) if e["kind"] == "Drop"
                 and e["cause"] == "TransportDown"]
        assert [e["location"] for e in drops] == ["ue:uav1-mt"]
        assert "no capacity uav1-mt->donor-du" in drops[0]["detail"]
        assert in_flight(trace) == 0

    def test_mt_session_is_two_tunnels_and_one_transition(self):
        sim = Simulator(build_mini_scenario(), trace_level="summary")
        trace = sim.run()
        recs = list(records(trace))
        pdu = transitions(recs, "pdu:uav1-mt")
        assert [(e["from_state"], e["to_state"], e["cause"])
                for e in pdu] == [("Requested", "Established",
                                   "pdu-session-establish")]
        f1 = transitions(recs, "f1:uav1-du")
        assert pdu[0]["seq"] < f1[0]["seq"]  # the session carries F1 setup
        # The uplink tunnel ends at the UPF, the downlink one at the MT.
        ul = sim.fwd.entries[("uav1-mt", ("dst", "cu"))].encaps[0]
        dl = sim.fwd.entries[("upf", ("dst", "uav1-du"))].encaps[0]
        assert {n for n, h in sim.fwd.strips if h == ul} == {"upf"}
        assert {n for n, h in sim.fwd.strips if h == dl} == {"uav1-mt"}

    @pytest.mark.parametrize("mode", list(PathMode))
    def test_f1_rides_the_donor_the_mt_attached_through(self, mode):
        # The MT reaches two donors, and the second one's faster wire makes
        # its F1 Active first, so the MT attaches through donor-b. F1 once
        # took the first donor link in list order: g-du, g-mt, donor-du, ...
        scn = build_donor_scenario(duration=0.05)
        scn.links[0].propagation_delay_s = 1e-3  # donor-du's wire to the CU
        scn.add_node(Role.DONOR_DU, (0.0, 10.0), tx_power_dbm=23.0,
                     carrier=N41, node_id="donor-b")
        scn.add_link("cu", "donor-b", Medium.WIRED, wired_capacity_bps=1e9,
                     propagation_delay_s=1e-6)
        scn.add_iab_node("g", (880.0, 0.0), tx_power_dbm=43.0,
                         mt_tx_power_dbm=23.0, carrier=N78)
        for donor in ("donor-du", "donor-b"):
            scn.add_link(donor, "g-mt", Medium.RADIO)
        sim = Simulator(scn, mode=mode, trace_level="summary")
        trace = sim.run()
        serving = sim.cp.ue_contexts["g-mt"].serving_du
        paths = trace.flows["f1c:g-du"].paths
        assert serving == "donor-b" and paths
        assert all(serving in path for path in paths), paths

    def test_directive_event_emitted(self):
        trace = Simulator(build_mini_scenario()).run()
        assert any(e["kind"] == "Directive"
                   and e["subject"] == "IabNodeDirective"
                   for e in records(trace))

    def test_du_config_update_swaps_carrier(self):
        from iabsim.topology import Carrier, DuConfigUpdateDirective
        scn = build_donor_scenario(duration=0.05)
        new = Carrier("n41-wide", 2.585e9, 40e6, 30e3)
        scn.schedule.append(DuConfigUpdateDirective(at_s=0.01, du="donor-du",
                                                    carrier=new))
        sim = Simulator(scn)
        trace = sim.run()
        moved = [e for e in transitions(records(trace), "du:donor-du")
                 if e["cause"] == "du-config-update"]
        assert moved and moved[0]["to_state"] == "carrier:n41-wide"
        assert scn.nodes["donor-du"].carrier == N41  # the input is unchanged
        assert sim.scn.nodes["donor-du"].carrier == new


class TestCachedDecision:
    """A memoized decision carries its outgoing link direction, in the
    engine's record of it; the link's capacity and the routing tables can
    still change under it."""

    @pytest.mark.parametrize("level", ["full", "summary"])
    def test_carrier_change_and_new_routes_under_cached_decisions(self,
                                                                  level):
        scn = build_mini_scenario()
        scn.flows[0].start_s = 0.0  # dl-ue2 before its routes exist
        scn.flows.append(FlowSpec(id="dl-ue1", src="upf", dst="ue1",
                                  rate_bps=4e6, packet_size_bytes=1000,
                                  start_s=0.005, stop_s=0.13))
        scn.schedule.append(DuConfigUpdateDirective(at_s=0.08, du="donor-du",
                                                    carrier=N78))
        sim = Simulator(scn, trace_level=level)
        forward, transmit = sim.fwd.forward, sim._transmit
        decided, sent = [], []

        def forward_seen(node, pkt):
            hop = forward(node, pkt)
            if (node, pkt.flow_id) == ("donor-du", "dl-ue1"):
                decided.append((sim.now, hop, None if hop.out is None
                                else hop.out.link_dir))
            return hop

        def transmit_seen(hop, pkt):
            d = hop.out.link_dir
            start, packets = max([sim.now, *d.finish_times]), d.packets
            transmit(hop, pkt)
            if (d.src, d.dst) == ("donor-du", "ue1") and d.packets > packets:
                cap = link_capacity(sim.scn, d.link, "donor-du")
                sent.append((sim.now, d.link.carrier,
                             d.finish_times[-1] - start,
                             pkt.wire_size_bytes * 8 / cap))
        sim.fwd.forward, sim._transmit = forward_seen, transmit_seen
        trace = sim.run()
        update = next(e["time"]
                      for e in transitions(records(trace), "du:donor-du")
                      if e["cause"] == "du-config-update")
        # Before the update, the decision and its link direction are cached;
        # after it, that same decision serves every packet.
        cached = [(hop, out) for t, hop, out in decided if t < update]
        assert cached and cached[-1][1] is not None
        after = [(hop, out) for t, hop, out in decided if t > update]
        assert after and all(hop is cached[-1][0] and out is cached[-1][1]
                             for hop, out in after)
        # Each packet is serialized at the capacity of the carrier it meets.
        assert {c.band_label for t, c, _, _ in sent if t < update} == {"n41"}
        assert {c.band_label for t, c, _, _ in sent if t > update} == {"n78"}
        for _, _, took, want in sent:
            assert took == pytest.approx(want, rel=1e-9)
        # dl-ue2 met no route until the IAB node's routes were installed,
        # and was then delivered on the new path only.
        assert trace.summary["flows"]["dl-ue2"]["dropped"] > 0
        assert took_only(trace, "dl-ue2", UE2_DL_HOPS_REROUTE)
        assert took_only(trace, "dl-ue1", UE1_DL_HOPS)

    @pytest.mark.parametrize("mode", list(PathMode))
    def test_flows_that_share_every_decision_keep_their_own_heads(self, mode):
        # dl-ue2b has dl-ue2's src and dst, so the two flows share every
        # decision, but its packets are of another size and it starts first.
        scn = build_mini_scenario()
        scn.flows.append(FlowSpec(id="dl-ue2b", src="upf", dst="ue2",
                                  rate_bps=2e6, packet_size_bytes=400,
                                  start_s=0.02, stop_s=0.13))
        sim = Simulator(scn, mode=mode, trace_level="full")
        trace = sim.run()
        rows = Counter()
        for e in records(trace):
            if e["kind"] in ("Arrival", "Departure"):
                flow, teids = e["subject"], len(e["teids"])
                header = (teids * GTP_HEADER_BYTES
                          + (e["depth"] - teids) * BAP_HEADER_BYTES)
                assert e["wire_size"] == (trace.flows[flow].payload_bytes
                                          + header), e
                rows[flow, e["kind"]] += 1
        assert all(rows[flow, kind] for flow in ("dl-ue2", "dl-ue2b")
                   for kind in ("Arrival", "Departure"))
        assert oracle_mismatches(sim.scn, trace) == []


def nan_sent_by(monkeypatch, tx):
    """Make every link direction `tx` sends on have a capacity of NaN."""
    capacity = engine.link_capacity
    monkeypatch.setattr(engine, "link_capacity", lambda scn, link, node: (
        math.nan if node == tx else capacity(scn, link, node)))


def all_uplink_drops_for_no_capacity(params):
    """Under `params`, every packet of ue1's uplink is a no-capacity Drop."""
    scn = build_donor_scenario(duration=0.2)
    scn.radio_params = params
    scn.flows.append(FlowSpec(id="ul-ue1", src="ue1", dst="upf",
                              rate_bps=1e6, packet_size_bytes=1000,
                              start_s=0.05, stop_s=0.15))
    trace = Simulator(scn).run()
    drops = [e for e in records(trace)
             if e["kind"] == "Drop" and e["flow"] == "ul-ue1"]
    row = trace.summary["flows"]["ul-ue1"]
    assert row["injected"] == 13 and row["delivered"] == 0
    assert len(drops) == row["dropped"] == row["injected"]
    assert {(e["location"], e["cause"]) for e in drops} \
        == {("ue1", "no-capacity")}
    assert (row["injected"]
            == row["delivered"] + row["dropped"] + row["in_flight"])


class TestAccounting:
    @pytest.mark.parametrize("mode", list(PathMode))
    def test_window_holds_t0_and_leaves_out_t1(self, mode):
        trace = Simulator(build_mini_scenario(), mode=mode).run()
        delivered = [e for e in records(trace) if e["kind"] == "Arrival"
                     and e["subject"] == "dl-ue2" and e["delivered"]]
        times = trace.flows["dl-ue2"].delivered_at
        assert len(times) == len(delivered) \
            == trace.summary["flows"]["dl-ue2"]["delivered"] > 9
        assert all(a < b for a, b in zip(times, times[1:]))
        last = len(times) - 1
        # Edges on delivery times: [times[i], times[j]) holds i .. j-1.
        for i, j in ((0, 1), (0, last), (3, 7), (last // 2, last)):
            window = (times[i], times[j])
            assert measure_throughput(trace, "dl-ue2", window) \
                == (j - i) * 1000 * 8 / (times[j] - times[i])

    @pytest.mark.parametrize("mode", list(PathMode))
    def test_a_window_between_exported_times_holds_its_t0(self, mode):
        # trace.jsonl rounds each time to 12 digits, up for some deliveries
        # and down for others: each window still holds its own t0.
        trace = Simulator(build_mini_scenario(), mode=mode).run()
        times = [e["time"] for e in records(trace) if e["kind"] == "Arrival"
                 and e["subject"] == "dl-ue2" and e["delivered"]]
        assert len(times) > 9
        for window in zip(times, times[1:]):
            assert measure_throughput(trace, "dl-ue2", window) \
                == 1000 * 8 / (window[1] - window[0])

    def test_per_flow_conservation(self):
        trace = Simulator(build_mini_scenario()).run()
        for row in trace.summary["flows"].values():
            assert (row["injected"]
                    == row["delivered"] + row["dropped"] + row["in_flight"])
            assert row["in_flight"] >= 0

    def test_uplink_with_no_tdd_share_drops_for_no_capacity(self):
        all_uplink_drops_for_no_capacity(RadioParams(tdd_dl_fraction=1.0))

    def test_nan_uplink_capacity_drops_for_no_capacity(self, monkeypatch):
        # A NaN capacity (once 0 * inf, from a negative exponent) put a NaN
        # time in the heap, and the run stopped after 1 packet.
        nan_sent_by(monkeypatch, "ue1")
        all_uplink_drops_for_no_capacity(RadioParams())

    def test_overflowing_exponent_leaves_a_ue_at_d0_covered(self):
        # Inside d0, inf * log10(1) once made the loss NaN: ue1 was "not
        # covered", and every downlink packet a no-route Drop.
        scn = build_donor_scenario(duration=0.2)
        scn.radio_params = RadioParams(pathloss_exponent=1.0e308)
        scn.nodes["ue1"].position = (0.5, 0.0)
        scn.flows.append(FlowSpec(id="dl-ue1", src="upf", dst="ue1",
                                  rate_bps=1e6, packet_size_bytes=1000,
                                  start_s=0.05, stop_s=0.15))
        trace = Simulator(scn).run()
        row = trace.summary["flows"]["dl-ue1"]
        assert row["delivered"] == row["injected"] == 13
        assert took_only(trace, "dl-ue1", UE1_DL_HOPS)

    def test_measure_throughput_matches_summary_over_full_run(self):
        scn = build_mini_scenario()
        trace = Simulator(scn).run()
        row = trace.summary["flows"]["dl-ue2"]
        assert measure_throughput(trace, "dl-ue2", (0.0, scn.duration_s)) \
            == pytest.approx(row["goodput_bps"])

    def test_measure_throughput_unknown_flow(self):
        trace = Simulator(build_mini_scenario()).run()
        with pytest.raises(UnknownFlow):
            measure_throughput(trace, "nope", (0.0, 1.0))
        with pytest.raises(UnknownFlow):  # F1 flows are not user flows
            measure_throughput(trace, "f1c:uav1-du", (0.0, 1.0))
        with pytest.raises(ValueError):
            measure_throughput(trace, "dl-ue2", (1.0, 1.0))

    @pytest.mark.parametrize("window", [(math.nan, 0.1), (0.0, math.nan),
                                        (0.0, math.inf)])
    def test_measure_throughput_rejects_a_non_finite_edge(self, window):
        trace = Simulator(build_mini_scenario()).run()
        with pytest.raises(ValueError, match="finite"):
            measure_throughput(trace, "dl-ue2", window)

    def test_overhead_counts_header_bytes_on_every_traversal(self):
        trace = Simulator(build_mini_scenario()).run()
        row = trace.summary["flows"]["dl-ue2"]
        # reroute downlink: 7 link traversals per packet with header loads
        # 8, 8, 16, 16, 16, 8, 0 bytes = 72 bytes per delivered packet
        assert row["overhead_bytes"] >= 72 * row["delivered"]

    def test_summary_links_report_utilization(self):
        trace = Simulator(build_mini_scenario()).run()
        for stats in trace.summary["links"].values():
            assert 0.0 <= stats["utilization"] <= 1.0
            assert 0.0 <= stats["overhead_fraction"] < 1.0


class TestHopLimit:
    """A packet is dropped as ttl-expired at the ttl-th node it reaches:
    dl-ue2's path has 8 nodes under UpfReroute and 6 under BapBypass."""

    @pytest.mark.parametrize("ttl, expired", [(8, {PathMode.UPF_REROUTE}),
                                              (9, set())])
    def test_dl_ue2_at_the_hop_limit(self, ttl, expired, monkeypatch):
        scn = load_scenario("bap-compare")
        monkeypatch.setattr(gtp, "TTL", ttl)
        for mode in PathMode:
            trace = Simulator(scn, mode=mode, trace_level="summary").run()
            row = trace.summary["flows"]["dl-ue2"]
            causes = {e["cause"] for e in records(trace)
                      if e["kind"] == "Drop" and e.get("flow") == "dl-ue2"}
            assert row["injected"] == 4643
            if mode in expired:
                assert row["dropped"] == 4643 and causes == {"ttl-expired"}
                # The drop's detail names the flow, not the packet: all its
                # rows share one head.
                heads = {head for head in trace.heads
                         if head[0] == "Drop" and head[2] == "dl-ue2"}
                assert len(heads) == 1
            else:
                assert row["delivered"] == 4643 and causes == set()


class TestSeveralUes:
    """One DU serves several UEs: each UE's uplink is matched at the DU by
    the UE as source, so the second UE no longer conflicts with the first."""

    # Per DU and mode: the DU's first UE and that UE's hops down and up.
    CASES = {
        ("donor-du", PathMode.UPF_REROUTE): ("ue1", UE1_DL_HOPS, UE1_UL_HOPS),
        ("donor-du", PathMode.BAP_BYPASS): ("ue1", UE1_DL_HOPS, UE1_UL_HOPS),
        ("uav1-du", PathMode.UPF_REROUTE): ("ue2", UE2_DL_HOPS_REROUTE,
                                            UE2_UL_HOPS_REROUTE),
        ("uav1-du", PathMode.BAP_BYPASS): ("ue2", UE2_DL_HOPS_BAP,
                                           UE2_UL_HOPS_BAP),
    }
    # Where the DU's further UEs stand, on the x axis.
    MORE_AT = {"donor-du": (80.0, 30.0), "uav1-du": (6050.0, 5950.0)}

    @pytest.mark.parametrize("n_ues", [2, 3])
    @pytest.mark.parametrize("mode", list(PathMode))
    @pytest.mark.parametrize("du", ["donor-du", "uav1-du"])
    def test_du_serves_several_ues(self, du, mode, n_ues):
        first, dl_hops, ul_hops = self.CASES[(du, mode)]
        scn = build_mini_scenario()
        ues = [first] + [f"ue{3 + i}" for i in range(n_ues - 1)]
        for ue, x in zip(ues[1:], self.MORE_AT[du]):
            scn.add_node(Role.UE, (x, 0.0), tx_power_dbm=23.0, node_id=ue)
        scn.flows = [FlowSpec(id=f"{d}-{ue}", src=src, dst=dst, rate_bps=1e6,
                              packet_size_bytes=500, start_s=0.05, stop_s=0.13)
                     for ue in ues
                     for d, src, dst in (("dl", "upf", ue), ("ul", ue, "upf"))]
        trace = Simulator(scn, mode=mode, trace_level="summary").run()  # no ConflictingEntry
        for row in trace.summary["flows"].values():
            assert row["delivered"] > 0 and row["in_flight"] >= 0
            assert (row["injected"]
                    == row["delivered"] + row["dropped"] + row["in_flight"])
        for ue in ues:  # the first UE's paths, with this UE's name
            for flow, hops in ((f"dl-{ue}", dl_hops), (f"ul-{ue}", ul_hops)):
                assert took_only(trace, flow,
                                 tuple(ue if h == first else h for h in hops))


@pytest.mark.parametrize("mode", list(PathMode))
def test_every_route_next_hop_is_linked(mode):
    """A flow between each ordered pair of bap-compare's file nodes, itself
    included: the run ends with each flow's packets delivered, dropped or in
    flight, and every route entry's next hop linked to its node, so the
    engine needs no fallback for a hop with no link."""
    scn = load_scenario("bap-compare")
    nodes = list(scn.nodes)
    scn.flows = [FlowSpec(id=f"{src}>{dst}", src=src, dst=dst, rate_bps=2e5,
                          packet_size_bytes=500, start_s=0.6, stop_s=3.9)
                 for src in nodes for dst in nodes]
    sim = Simulator(scn, mode=mode, trace_level="summary")
    assert_conserved(scn, sim.run().summary)
    assert [e for e in sim.fwd.entries.values() if e.next_hop is not None
            and sim.scn.find_link(e.at_node, e.next_hop) is None] == []


class TestFlowRecords:
    """A run keeps one record per flow id, user or F1 (`f1c:<du>`)."""

    # When each bundled scenario's IAB node is instantiated.
    IAB_AT = {"paper-reference": 2.0, "bap-compare": 0.5}

    @pytest.mark.parametrize("fixture, mode", RUNS, ids=IDS)
    def test_f1_records_of_the_bundled_runs(self, request, fixture, mode):
        trace = trace_of(request, fixture, mode)
        f1 = {fid: r for fid, r in trace.flows.items()
              if fid.startswith("f1c:")}
        assert set(f1) == {"f1c:donor-du", "f1c:uav1-du"}
        assert trace.flows.keys() - f1.keys() == trace.summary["flows"].keys()
        for record in f1.values():
            assert 0 < len(record.delivered_at) + record.dropped \
                <= record.injected
        # The aerial DU's F1 rides the MT's PDU session: nothing of it is
        # delivered before the directive that brings the IAB node up.
        first = trace.flows["f1c:uav1-du"].delivered_at[0]
        assert first > self.IAB_AT[SCENARIOS[fixture]]
