#!/usr/bin/env python3
"""Sweep seeds on a scenario (paper-reference by default): dl-ue2's steady
goodput, over the scenario's steady window, must be seed-invariant
(randomness only feeds TEID allocation), trace hashes must differ.

Usage: python3 scripts/seed_sweep.py [--seeds 5] [--scenario NAME]
"""
import argparse

from iabsim import Simulator, load_scenario, measure_throughput


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--scenario", default="paper-reference")
    args = ap.parse_args()

    goodputs, hashes = [], []
    scn = load_scenario(args.scenario)  # a run never changes its scenario
    window = scn.steady_window("dl-ue2")
    for seed in range(args.seeds):
        trace = Simulator(scn, seed=seed).run()
        g = measure_throughput(trace, "dl-ue2", window)
        h = trace.content_hash()
        goodputs.append(g)
        hashes.append(h)
        print(f"seed {seed}: steady goodput {g / 1e6:.3f} Mbit/s, "
              f"trace {h[:16]}")

    spread = max(goodputs) - min(goodputs)
    print(f"\ngoodput spread across seeds: {spread:.6f} bps "
          f"({'OK: seed-invariant' if spread == 0 else 'varies'})")
    print(f"distinct trace hashes: {len(set(hashes))}/{len(hashes)}")


if __name__ == "__main__":
    main()
