#!/usr/bin/env python3
"""Benchmark of the iabsim simulator.

Each workload runs both tunnel modes through `iabsim run` itself (cli.main):
load -> validate + Simulator set-up -> Simulator.run -> trace.jsonl /
summary.json / flows.tsv -> scenario asserts, then content_hash. The phases
are timed from outside, by wrapping cli.Simulator for the call. Every pass
is checked against pinned outputs (pinned.json), for determinism and for
flow conservation. All timings are host wall-clock time; the end-to-end ones
are scaled to a reference speed of the host core (hostspeed.py). Simulated
statistics are deterministic and serve only as correctness checks.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ref-full --seed 1 --seconds 40 --trace 0

--trace 0 measures plain passes and reports the end-to-end metrics.
--trace 1 alternates plain and traced passes and reports the per-layer
metrics, the tracing overhead and src_loc. The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
import types
from collections import defaultdict
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import churn
from hostspeed import NOMINAL_S, HostSpeed
from spans import Tracer, deep_size_bytes, percentile_us

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
PINNED = BENCH_DIR / "pinned.json"
DEFAULT_SEED = 1
# Every workload is run at least this often per mode, so a run always checks
# that two passes of one mode give the same outputs.
MIN_PASSES = 2
# Extra samples of setup_s and export_s per mode and pass. A set-up takes
# milliseconds, and so does an export at summary level, so their medians are
# taken over many. At summary level an extra sample is an `iabsim run` whose
# Simulator.run returns the trace of the pass instead of running again: the
# real set-up and export, without the run. At full level, where an export
# takes seconds, it is a set-up alone.
REPS = 4

clock = time.perf_counter


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str | None  # bundled scenario name; None means generated
    level: str            # --trace-level of the simulator


WORKLOADS = {w.name: w for w in (
    Workload("ref-full", "paper-reference", "full"),
    Workload("compare-summary", "bap-compare", "summary"),
    Workload("reconfig-churn", None, "summary"),
)}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "run_s": "s",
                    "export_s": "s", "pkts_per_s": "1/s", "peak_rss_mb": "MiB"}


def import_iabsim():
    """The iabsim API of this checkout's sources, never an installed copy."""
    src = ROOT / "src"
    if not (src / "iabsim" / "__init__.py").is_file():
        print(f"perfbench: no iabsim sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import iabsim
    from iabsim import cli, engine, gtp
    from iabsim.scenario_io import bundled_scenario_path, loads
    from iabsim.topology import validate_topology
    if Path(iabsim.__file__).resolve().parent != (src / "iabsim").resolve():
        print(f"perfbench: imported iabsim from {iabsim.__file__}, "
              f"not from {src}", file=sys.stderr)
        sys.exit(2)
    return types.SimpleNamespace(
        cli=cli, engine=engine, gtp=gtp, loads=loads,
        modes=tuple(engine.PathMode),
        bundled_scenario_path=bundled_scenario_path,
        validate_topology=validate_topology)


def scenario_path(api, wl: Workload, seed: int, out: Path) -> Path:
    """The scenario file `iabsim run` is given for this workload and seed."""
    if wl.scenario is not None:
        return api.bundled_scenario_path(wl.scenario)
    text = churn.generate(seed)
    report = api.validate_topology(api.loads(text, name=wl.name))
    if not report.ok:
        raise SystemExit(f"perfbench: generated {wl.name} scenario is invalid: "
                         + "; ".join(report.violations))
    path = out / f"scenario-seed{seed}.yaml"
    path.write_text(text)
    return path


def src_loc() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src" / "iabsim").rglob("*.py")))


# -- one pass ----------------------------------------------------------------


@dataclass
class Pass:
    setup_s: float   # load + validate + Simulator.__init__
    run_s: float     # Simulator.run
    write_s: float   # the output files cmd_run writes (and its report lines)
    asserts_s: float  # the scenario asserts
    hash_s: float    # content_hash
    digest: str
    summary: dict
    assert_failures: list
    trace: object

    @property
    def export_s(self) -> float:
        return self.write_s + self.asserts_s + self.hash_s

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.run_s + self.export_s

    @property
    def injected(self) -> int:
        return sum(f["injected"] for f in self.summary["flows"].values())


def no_span(name: str):
    return nullcontext()


def set_up(api, path: Path, wl: Workload, mode, seed: int):
    """The set-up calls `iabsim run` makes: load the file, build a Simulator."""
    scn = api.cli.load_scenario(str(path))
    return api.cli.Simulator(scn, mode=mode, seed=seed, trace_level=wl.level)


def run_cli(api, wl: Workload, path: Path, mode, seed: int, out: Path,
            tracer: Tracer | None = None, replay=None, between=None) -> Pass:
    """One `iabsim run` through cli.main, its phases timed from outside.

    cli.Simulator and cli._check_asserts are wrapped for the call, to note
    when the Simulator is built, when its run returns and when the asserts
    start. Every call loads a fresh Scenario, as `iabsim run` does: Simulator
    adds the IAB node's nodes and links to the Scenario it is given and
    rewrites DU carriers, so a second run on one object gives wrong results
    (dl-ue2 goodput 0.0 instead of 13.0 Mbit/s on bap-compare).

    `replay`, the Trace of an earlier pass, is returned by Simulator.run
    instead of a new run, so set-up and export are measured without it.
    `tracer` records spans of the traced run. `between` is called, untimed,
    after Simulator.run returns and before the export starts.
    """
    cli = api.cli
    span = tracer.span if tracer else no_span
    patcher = tracer or Tracer()
    marks: dict = {}

    def simulator(make):
        def build(*args, **kwargs):
            with span("engine.init"):
                sim = make(*args, **kwargs)
            marks["init"] = clock()
            if tracer:
                instrument_simulator(tracer, sim)
            run = sim.run if replay is None else (lambda: replay)

            def timed_run():
                with span("engine.run"):
                    trace = run()
                marks["run"], marks["trace"] = clock(), trace
                if between:
                    between()
                marks["export"] = clock()
                return trace
            sim.run = timed_run
            return sim
        return build

    def asserts(fn):
        def timed(*args):
            marks["asserts"] = clock()
            return fn(*args)
        return timed

    argv = ["run", str(path), "--mode", mode.value, "--seed", str(seed),
            "--out", str(out), "--trace-level", wl.level]
    report = io.StringIO()
    try:
        patcher.patch(cli, "Simulator", simulator)
        patcher.patch(cli, "_check_asserts", asserts)
        if tracer:
            instrument_modules(tracer, api)
        with redirect_stdout(report):
            t0 = clock()
            rc = cli.main(argv)
            t1 = clock()
    finally:
        patcher.restore()
    failures = [line.removeprefix("assert failed: ")
                for line in report.getvalue().splitlines()
                if line.startswith("assert failed: ")]
    if not {"init", "run", "asserts"} <= marks.keys() or (rc and not failures):
        raise RuntimeError(f"iabsim {' '.join(argv)} exited {rc}:\n"
                           + report.getvalue())
    trace = marks["trace"]
    th = clock()
    with span("trace.hash"):
        digest = trace.content_hash()
    hash_s = clock() - th
    return Pass(setup_s=marks["init"] - t0, run_s=marks["run"] - marks["init"],
                write_s=marks["asserts"] - marks["export"],
                asserts_s=t1 - marks["asserts"], hash_s=hash_s, digest=digest,
                summary=trace.summary, assert_failures=failures, trace=trace)


# -- checks --------------------------------------------------------------------


def summary_digest(summary: dict) -> str:
    return hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()


def mismatches(pinned, got, path: str = "summary") -> list[str]:
    """Differences from a pinned value. Keys added after pinning are ignored."""
    if isinstance(pinned, dict):
        if not isinstance(got, dict):
            return [f"{path}: {got!r} is not a mapping"]
        out = []
        for key, value in pinned.items():
            if key not in got:
                out.append(f"{path}.{key} missing")
            else:
                out += mismatches(value, got[key], f"{path}.{key}")
        return out
    return [] if pinned == got else [f"{path}: {got!r} != pinned {pinned!r}"]


def check(wl: Workload, mode, seed: int, p: Pass, pins: dict,
          first: Pass | None) -> list[str]:
    problems = [f"scenario assert failed: {f}" for f in p.assert_failures]
    for fid, row in p.summary["flows"].items():
        if (min(row["delivered"], row["dropped"], row["in_flight"]) < 0
                or row["delivered"] + row["dropped"] + row["in_flight"]
                != row["injected"]):
            problems.append(f"flow {fid} breaks conservation: {row}")
    pin = pins.get(wl.name, {}).get(mode.value)
    if pin is not None and seed == pins["seed"]:
        if p.digest != pin["hash"]:
            problems.append(f"content_hash {p.digest} != pinned {pin['hash']}")
        problems += mismatches(pin["summary"], p.summary)
    elif pin is not None and wl.scenario is not None:
        # The seed of a bundled scenario only draws TEIDs: every other
        # summary figure is the pinned one.
        problems += mismatches({k: v for k, v in pin["summary"].items()
                                if k != "seed"}, p.summary)
    seed_pin = pins.get("hashes", {}).get(wl.name, {}).get(str(seed), {})
    if mode.value in seed_pin:
        pinned = seed_pin[mode.value]
        if p.digest != pinned["hash"]:
            problems.append(f"content_hash {p.digest} != pinned "
                            f"{pinned['hash']} for seed {seed}")
        got = summary_digest(p.summary)
        if got != pinned["summary_sha256"]:
            problems.append(f"summary SHA-256 {got} != pinned "
                            f"{pinned['summary_sha256']} for seed {seed}")
    if first is not None:
        if p.digest != first.digest:
            problems.append(f"not deterministic: content_hash {p.digest} "
                            f"!= {first.digest} of the first pass")
        if p.summary != first.summary:
            problems.append("not deterministic: summary differs from the "
                            "first pass")
    return problems


class Tally:
    """Attempted and failed passes; a failure is any check problem or error."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for msg in problems:
                print(f"perfbench: FAIL {label}: {msg}", file=sys.stderr)

    def attempt(self, label: str, fn, checks):
        """Run one pass; None when it raised."""
        try:
            p = fn()
        except Exception:
            traceback.print_exc()
            self.record(label, ["exception"])
            return None
        self.record(label, checks(p))
        return p


# -- plain run: end-to-end metrics -----------------------------------------------


def quartiles(xs: list[float]) -> list[float]:
    return statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3


def run_plain(api, wl: Workload, seed: int, seconds: float, path: Path,
              pins: dict, tally: Tally) -> dict:
    # samples: times scaled to the reference speed (hostspeed.py), the
    # reported figures; host: the same times in host seconds, printed only.
    samples = {m: defaultdict(list) for m in api.modes}
    host = {m: defaultdict(list) for m in api.modes}
    first: dict = {}
    injected: dict = {}
    for mode in api.modes:  # untimed warm-up of the set-up path
        set_up(api, path, wl, mode, seed)
    speed = HostSpeed()
    gc.collect()
    ref_before = speed.sample()
    t_start, pass_times = clock(), []
    while True:
        t_pass = clock()
        for mode in api.modes:
            out = OUT_DIR / wl.name / mode.value
            label = f"{wl.name} {mode.value} seed {seed}"
            # The pass's set-up and run are timed between the reference
            # samples before and after its run; its export, and the set-ups
            # or replays that follow, between those after its run and after
            # the last replay.
            early, late = defaultdict(list), defaultdict(list)
            mid = []
            gc.collect()
            p = tally.attempt(
                label, lambda: run_cli(api, wl, path, mode, seed, out,
                                       between=lambda: mid.append(speed.sample())),
                lambda p: check(wl, mode, seed, p, pins, first.get(mode)))
            if p is not None:
                first.setdefault(mode, p)
                injected[mode] = p.injected
                early["setup_s"].append(p.setup_s)
                early["run_s"].append(p.run_s)
                late["export_s"].append(p.export_s)
                for _ in range(REPS):
                    gc.collect()
                    if wl.level == "full":
                        t0 = clock()
                        set_up(api, path, wl, mode, seed)
                        late["setup_s"].append(clock() - t0)
                        continue
                    r = tally.attempt(
                        label + " replayed",
                        lambda: run_cli(api, wl, path, mode, seed, out,
                                        replay=p.trace),
                        lambda r: check(wl, mode, seed, r, pins, p))
                    if r is not None:
                        late["setup_s"].append(r.setup_s)
                        late["export_s"].append(r.export_s)
                p.trace = None
            gc.collect()
            ref_after = speed.sample()
            ref_mid = mid[0] if mid else (ref_before + ref_after) / 2
            scales = (NOMINAL_S / ((ref_before + ref_mid) / 2),
                      NOMINAL_S / ((ref_mid + ref_after) / 2))
            ref_before = ref_after
            for block, scale in zip((early, late), scales):
                for key, xs in block.items():
                    host[mode][key] += xs
                    samples[mode][key] += [x * scale for x in xs]
            if p is not None:
                host[mode]["wall_s"].append(p.wall_s)
                samples[mode]["wall_s"].append(
                    (p.setup_s + p.run_s) * scales[0] + p.export_s * scales[1])
        pass_times.append(clock() - t_pass)
        elapsed = clock() - t_start
        if (len(pass_times) >= MIN_PASSES
                and elapsed + statistics.median(pass_times) > seconds):
            break

    print(f"workload {wl.name}, seed {seed}: {len(pass_times)} passes "
          f"in {clock() - t_start:.1f} s")
    for mode in api.modes:
        if mode in first:
            print(f"  {mode.value}: content_hash {first[mode].digest}")
        for key, xs in samples[mode].items():
            q1, med, q3 = quartiles(xs)
            print(f"  {mode.value:<11} {key:<9} median {med:.6f} s  "
                  f"q1 {q1:.6f}  q3 {q3:.6f}  n {len(xs)}  "
                  f"(host {statistics.median(host[mode][key]):.6f} s)")
    q1, med, q3 = quartiles(speed.samples)
    print(f"  reference median {med:.6f} s  q1 {q1:.6f}  q3 {q3:.6f}  "
          f"n {len(speed.samples)}  (nominal {NOMINAL_S} s)")
    (OUT_DIR / wl.name / f"samples-seed{seed}.json").write_text(json.dumps(
        {"scaled": {m.value: samples[m] for m in api.modes},
         "host": {m.value: host[m] for m in api.modes},
         "reference": speed.samples}, indent=1) + "\n")
    if not all(samples[m]["run_s"] for m in api.modes):
        return {}
    total = {key: sum(statistics.median(samples[m][key]) for m in api.modes)
             for key in ("wall_s", "setup_s", "run_s", "export_s")}
    total["pkts_per_s"] = sum(injected.values()) / total["run_s"]
    total["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0)
    return {k: {"value": total[k], "unit": u} for k, u in END_TO_END_UNITS.items()}


# -- traced run: per-layer metrics -----------------------------------------------


def instrument_modules(tracer: Tracer, api) -> None:
    """Wrap module-level entry points; undone by tracer.restore()."""
    engine, gtp = api.engine, api.gtp
    tracer.patch(api.cli, "load_scenario",
                 lambda f: tracer.wrap("scenario_io.load", f))
    tracer.patch(engine, "validate_topology",
                 lambda f: tracer.wrap("topology.validate", f))

    def capacity(fn):
        inputs = tracer.inputs

        def recorded(scn, link, tx):
            # The input is the (link direction, carrier) pair.
            inputs.add((link.id, tx, link.carrier))
            return fn(scn, link, tx)
        return tracer.wrap("radio.link_capacity", recorded)
    tracer.patch(engine, "link_capacity", capacity)
    tracer.patch(gtp, "encapsulate", lambda f: tracer.count("gtp.encap", f))
    tracer.patch(gtp.Packet, "wire_size_bytes",
                 lambda prop: property(tracer.count("gtp.wire_size", prop.fget)))

    def heap(module):
        shim = types.ModuleType(module.__name__)
        shim.__dict__.update(vars(module))
        shim.heappop = tracer.count("engine.event", module.heappop)
        return shim
    tracer.patch(engine, "heapq", heap)


def instrument_simulator(tracer: Tracer, sim) -> None:
    """Wrap the entry points the engine reaches through its own objects."""
    for obj, attr, name in ((sim.fwd, "forward", "gtp.forward"),
                            (sim.trace, "emit", "trace.emit"),
                            (sim.scn, "find_link", "topology.find_link"),
                            (sim.cp, "on_message", "f1ap.on_message"),
                            (sim, "_transmit", "engine.transmit")):
        tracer.patch(obj, attr, lambda f, n=name: tracer.wrap(n, f),
                     restore=False)


def traced_stats(tracer: Tracer, p: Pass) -> tuple[dict, list[float]]:
    """Per-layer figures of one traced pass of one mode, and the duration of
    each gtp.forward call."""
    layers = tracer.layers()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
    lay = lambda name: layers.get(name, empty)  # noqa: E731
    drops: dict = defaultdict(int)
    jsonl_bytes = 0
    for line in p.trace.to_jsonl_lines():
        jsonl_bytes += len(line.encode()) + 1
        if '"kind": "Drop"' in line:
            drops[json.loads(line).get("cause")] += 1
    stats = {
        "scenario_io.load_s": lay("scenario_io.load")["total_s"],
        "topology.validate_s": lay("topology.validate")["total_s"],
        "engine.init_s": lay("engine.init")["self_s"],
        "gtp.encap.calls": tracer.counts["gtp.encap"],
        "gtp.wire_size.calls": tracer.counts["gtp.wire_size"],
        "gtp.noroute_drops": drops["no-route"],
        "engine.events": tracer.counts["engine.event"],
        "engine.run.self_s": lay("engine.run")["self_s"],
        "engine.queue_overflow_drops": drops["queue-overflow"],
        "trace.export_s": p.write_s,
        "trace.hash_s": p.hash_s,
        "trace.bytes": jsonl_bytes,
        "trace.retained_mb": deep_size_bytes(p.trace) / 2 ** 20,
        "cli.asserts_s": p.asserts_s,
        "capacity_inputs": len(tracer.inputs),
        "run_s": p.run_s,
    }
    for name in ("topology.find_link", "radio.link_capacity", "gtp.forward",
                 "f1ap.on_message", "engine.transmit", "trace.emit"):
        stats[f"{name}.calls"] = lay(name)["calls"]
        stats[f"{name}.self_s"] = lay(name)["self_s"]
    return stats, lay("gtp.forward")["durations"]


PER_LAYER_UNITS = {
    "scenario_io.load_s": "s", "topology.validate_s": "s",
    "engine.init_s": "s",
    "topology.find_link.calls": "count", "topology.find_link.self_s": "s",
    "radio.link_capacity.calls": "count", "radio.link_capacity.self_s": "s",
    "radio.capacity_useful_ratio": "ratio",
    "gtp.forward.calls": "count", "gtp.forward.self_s": "s",
    "gtp.forward.p50_us": "us", "gtp.forward.p99_us": "us",
    "gtp.encap.calls": "count", "gtp.wire_size.calls": "count",
    "gtp.noroute_drops": "count",
    "f1ap.on_message.calls": "count", "f1ap.on_message.self_s": "s",
    "engine.events": "count", "engine.us_per_event": "us",
    "engine.transmit.calls": "count", "engine.transmit.self_s": "s",
    "engine.run.self_s": "s", "engine.queue_overflow_drops": "count",
    "trace.emit.calls": "count", "trace.emit.self_s": "s",
    "trace.export_s": "s", "trace.hash_s": "s", "trace.bytes": "B",
    "trace.retained_mb": "MiB", "cli.asserts_s": "s",
    "bench.tracing_overhead_s": "s", "bench.tracing_overhead_ratio": "ratio",
    "src_loc": "count",
}


def run_traced(api, wl: Workload, seed: int, seconds: float, path: Path,
               pins: dict, tally: Tally) -> dict:
    """Alternate plain and traced passes of each mode; per-layer medians."""
    per_mode = {m: defaultdict(list) for m in api.modes}
    plain_run = {m: [] for m in api.modes}
    forward_p50, forward_p99 = [], []
    first: dict = {}
    t_start, pair_times = clock(), []
    while True:
        t_pair = clock()
        durations = []
        for mode in api.modes:
            out = OUT_DIR / wl.name / mode.value
            label = f"{wl.name} {mode.value} seed {seed}"
            gc.collect()
            plain = tally.attempt(
                label, lambda: run_cli(api, wl, path, mode, seed, out),
                lambda p: check(wl, mode, seed, p, pins, first.get(mode)))
            if plain is None:
                continue
            first.setdefault(mode, plain)
            plain_run[mode].append(plain.run_s)
            plain.trace = None
            gc.collect()
            tracer = Tracer()
            traced = tally.attempt(
                label + " traced",
                lambda: run_cli(api, wl, path, mode, seed, out, tracer),
                lambda p: check(wl, mode, seed, p, pins, plain))
            if traced is None:
                continue
            stats, fwd = traced_stats(tracer, traced)
            traced.trace = None
            durations += fwd
            for key, value in stats.items():
                per_mode[mode][key].append(value)
            if not pair_times:
                tracer.write_spans(out / "spans.tsv")
        forward_p50.append(percentile_us(durations, 50))
        forward_p99.append(percentile_us(durations, 99))
        pair_times.append(clock() - t_pair)
        if clock() - t_start + statistics.median(pair_times) > seconds:
            break

    print(f"workload {wl.name}, seed {seed}: {len(pair_times)} plain+traced "
          f"pairs in {clock() - t_start:.1f} s; spans in "
          f"{(OUT_DIR / wl.name).relative_to(ROOT)}/<mode>/spans.tsv")
    if not all(per_mode[m]["run_s"] for m in api.modes):
        return {}
    # Counts repeat exactly; median_low keeps them whole numbers.
    med = {m: {k: (statistics.median_low(v) if isinstance(v[0], int)
                   else statistics.median(v)) for k, v in per_mode[m].items()}
           for m in api.modes}
    total = {k: sum(med[m][k] for m in api.modes) for k in med[api.modes[0]]}
    plain_s = sum(statistics.median(plain_run[m]) for m in api.modes)
    metrics = {k: total[k] for k in PER_LAYER_UNITS if k in total}
    metrics["trace.retained_mb"] = max(med[m]["trace.retained_mb"]
                                       for m in api.modes)
    metrics["radio.capacity_useful_ratio"] = (
        total["capacity_inputs"] / total["radio.link_capacity.calls"]
        if total["radio.link_capacity.calls"] else 0.0)
    metrics["gtp.forward.p50_us"] = statistics.median(forward_p50)
    metrics["gtp.forward.p99_us"] = statistics.median(forward_p99)
    metrics["engine.us_per_event"] = (plain_s / total["engine.events"] * 1e6
                                      if total["engine.events"] else 0.0)
    metrics["bench.tracing_overhead_s"] = total["run_s"] - plain_s
    metrics["bench.tracing_overhead_ratio"] = total["run_s"] / plain_s - 1.0
    metrics["src_loc"] = src_loc()
    return {k: {"value": metrics[k], "unit": u}
            for k, u in PER_LAYER_UNITS.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    api = import_iabsim()
    wl = WORKLOADS[args.workload]
    pins = json.loads(PINNED.read_text())
    for mode in api.modes:
        (OUT_DIR / wl.name / mode.value).mkdir(parents=True, exist_ok=True)
    path = scenario_path(api, wl, args.seed, OUT_DIR / wl.name)
    print(f"src_loc {src_loc()} (lines of src/iabsim, not gated)")

    tally = Tally()
    measure = run_traced if args.trace else run_plain
    metrics = measure(api, wl, args.seed, args.seconds, path, pins, tally)
    correct = tally.failed == 0 and bool(metrics)
    for name, m in metrics.items():
        print(f"{name:<30} {m['value']:.6g} {m['unit']}")
    print(f"fail_rate {tally.failed / max(tally.attempted, 1):.4f} "
          f"({tally.failed} of {tally.attempted} passes failed)")
    print(json.dumps({"correct": correct, "attempted": max(tally.attempted, 1),
                      "failed": tally.failed if tally.attempted else 1,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
