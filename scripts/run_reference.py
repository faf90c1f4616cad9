#!/usr/bin/env python3
"""Run a scenario (paper-reference by default) in both tunnel modes and print
a comparison. dl-ue2's steady goodput is taken over the scenario's steady
window: its first min_goodput_bps assert window, else the flow's own span.

Usage: python3 scripts/run_reference.py [--seed N] [--scenario NAME]
"""
import argparse

from iabsim import PathMode, Simulator, load_scenario, measure_throughput


def steady_window(scn, flow_id: str) -> tuple[float, float]:
    """Where a flow's goodput is judged: the window of its first
    min_goodput_bps assert, or else the flow's own [start, stop)."""
    for a in scn.asserts:
        if a.flow == flow_id and a.min_goodput_bps is not None:
            return a.window
    f = next(f for f in scn.flows if f.id == flow_id)
    return (f.start_s, f.stop_s)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--scenario", default="paper-reference")
    args = ap.parse_args()

    rows = []
    scn = load_scenario(args.scenario)  # a run never changes its scenario
    for mode in (PathMode.UPF_REROUTE, PathMode.BAP_BYPASS):
        trace = Simulator(scn, mode=mode, seed=args.seed).run()
        steady = measure_throughput(trace, "dl-ue2", steady_window(scn, "dl-ue2"))
        f = trace.summary["flows"]["dl-ue2"]
        rows.append((mode.value, steady, f["mean_latency_s"],
                     f["mean_hop_count"], f["overhead_bytes"],
                     trace.summary["totals"]["header_bytes"]))
        # A Counter keeps its keys in first-seen order: the setup request's.
        f1_path = next(iter(trace.flows["f1c:uav1-du"].paths))
        print(f"{mode.value}: example F1 uplink path {' -> '.join(f1_path)}")
        (ue2_path,) = trace.flows["dl-ue2"].paths
        print(f"{mode.value}: UE2 downlink path {' -> '.join(ue2_path)}")

    print(f"\n{'mode':<12} {'steady Mbit/s':>14} {'latency ms':>11} "
          f"{'hops':>6} {'flow ovh B':>11} {'total hdr B':>12}")
    for mode, steady, lat, hops, ovh, hdr in rows:
        print(f"{mode:<12} {steady / 1e6:>14.3f} {lat * 1e3:>11.3f} "
              f"{hops:>6.2f} {ovh:>11d} {hdr:>12d}")


if __name__ == "__main__":
    main()
