#!/usr/bin/env python3
"""Pin the outputs of every workload at the default seed.

Each workload runs once per mode in two fresh processes, under
PYTHONHASHSEED 1 and 2. The two must agree on every content_hash and summary;
the result is written to pinned.json. For reconfig-churn, whose scenario
changes with the seed, the content_hash and a SHA-256 of the summary are also
pinned for seeds 0 to 63, so a stale capacity or carrier state fails at those
seeds too. The content_hash at summary level covers only the trace events;
the summary digest covers deliveries, latencies and per-link bytes. Re-pin only for a
change that alters the outputs on purpose, and say why in that change.

Usage, from the root of a checkout: python3 perfbench/pin.py
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import run as bench

HASH_SEEDS = ("1", "2")
SEEDED_WORKLOAD = "reconfig-churn"
SEED_RANGE = range(64)


def outputs(workload: str, seed: int) -> dict:
    """{mode: {hash, summary}} of one pass of each mode, in this process."""
    api = bench.import_iabsim()
    wl = bench.WORKLOADS[workload]
    out = bench.OUT_DIR / "pin" / workload
    out.mkdir(parents=True, exist_ok=True)
    path = bench.scenario_path(api, wl, seed, out)
    res = {}
    for mode in api.modes:
        p = bench.run_cli(api, wl, path, mode, seed, out)
        res[mode.value] = {"hash": p.digest, "summary": p.summary}
    return res


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--child":
        print(json.dumps(outputs(sys.argv[2], bench.DEFAULT_SEED)))
        return 0
    pins = {"seed": bench.DEFAULT_SEED}
    for workload in bench.WORKLOADS:
        runs = []
        for hash_seed in HASH_SEEDS:
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--child", workload],
                env=env, capture_output=True, text=True, check=True)
            runs.append(json.loads(proc.stdout.splitlines()[-1]))
        if runs[0] != runs[1]:
            print(f"{workload}: outputs differ between PYTHONHASHSEED "
                  f"{HASH_SEEDS[0]} and {HASH_SEEDS[1]}", file=sys.stderr)
            return 1
        for mode, res in runs[0].items():
            print(f"{workload} {mode}: {res['hash']} (same under "
                  f"PYTHONHASHSEED {' and '.join(HASH_SEEDS)})")
        pins[workload] = runs[0]
    pins["hashes"] = {SEEDED_WORKLOAD: {
        str(seed): {mode: {"hash": res["hash"],
                           "summary_sha256": bench.summary_digest(res["summary"])}
                    for mode, res in outputs(SEEDED_WORKLOAD, seed).items()}
        for seed in SEED_RANGE}}
    bench.PINNED.write_text(json.dumps(pins, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
