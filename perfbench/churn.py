"""Seed-driven generator of the reconfig-churn scenario, as YAML text.

The topology is the paper's: CU, UPF, a donor DU on n41, UE1 at 50 m, UE2 at
6 km (outside donor coverage) and an aerial IAB node at 880 m that comes up
at 0.1 s. Every 50 ms a `du_config_update` moves the donor DU or the aerial
DU to a new bandwidth, so per-packet capacity reads are interleaved with
carrier writes.

Only one UE is served by each DU. Two UEs on one DU abort the run with
`ConflictingEntry` (see NOTES.md), so a multi-UE variant waits for that fix.

The seed draws each flow's packet size and every update's DU and bandwidth.
Flows are fixed in packets per second, not bits per second, so the number of
packets, and with it the host time of a pass, does not depend on the seed.
For the same reason no queue overflows at any seed: at 640 B the UE2 uplink
(about 0.7 Mbit/s) builds a queue of up to about 200 packets, short of the
256-packet buffer. An overflowing uplink would deliver a number of packets
inversely proportional to the drawn size, and the work of a pass would vary
by several per cent from seed to seed.
"""
from __future__ import annotations

import random

DURATION_S = 4.0
IAB_AT_S = 0.1
UPDATE_PERIOD_S = 0.05
PACKET_SIZES_B = (160, 320, 640)
BANDWIDTHS_HZ = (10e6, 20e6, 40e6)
# (band label, centre frequency) each DU keeps across bandwidth changes
DU_BANDS = {"donor-du": ("n41", 2.585e9), "uav1-du": ("n78", 3.47e9)}
# flow id, source, destination, packets per second
FLOWS = (("dl-ue1", "upf", "ue1", 1500),
         ("ul-ue1", "ue1", "upf", 700),
         ("dl-ue2", "upf", "ue2", 3000),
         ("ul-ue2", "ue2", "upf", 180))
FLOW_START_S, FLOW_STOP_S = 0.2, 3.9

_HEAD = """\
# reconfig-churn, generated from benchmark seed {seed}.
seed: {seed}
duration: {duration!r}

radio_defaults:
  pathloss_exponent: 2.2
  reference_distance: 1.0
  noise_figure: 7.0
  thermal_noise_density: -174.0
  coverage_rsrp_threshold: -100.0
  efficiency: 0.55
  tdd_dl_fraction: 0.7

nodes:
  - {{id: cu, role: CU, position: [0.0, -20.0]}}
  - {{id: upf, role: Upf, position: [0.0, -40.0]}}
  - id: donor-du
    role: DonorDU
    position: [0.0, 0.0]
    tx_power: 23.0
    carrier: {{band_label: n41, center_frequency: 2.585e9, bandwidth: 20.0e6, scs: 30.0e3}}
  - {{id: ue1, role: Ue, position: [50.0, 0.0], tx_power: 23.0}}
  - {{id: ue2, role: Ue, position: [6000.0, 0.0], tx_power: 23.0}}

links:
  - {{id: f1-wire, a: cu, b: donor-du, medium: Wired, wired_capacity: 1.0e9, propagation_delay: 1.0e-6}}
  - {{id: n6-wire, a: cu, b: upf, medium: Wired, wired_capacity: 1.0e9, propagation_delay: 1.0e-6}}

schedule:
  - at: {iab_at!r}
    kind: instantiate_iab_node
    position: [880.0, 0.0]
    tx_power: 43.0
    mt_tx_power: 23.0
    group: uav1
    access_carrier: {{band_label: n78, center_frequency: 3.47e9, bandwidth: 30.0e6, scs: 30.0e3}}
"""


def generate(seed: int) -> str:
    """YAML text of the reconfig-churn scenario for `seed`."""
    rng = random.Random(seed)
    lines = [_HEAD.format(seed=seed, duration=DURATION_S, iab_at=IAB_AT_S)]
    n_updates = round(DURATION_S / UPDATE_PERIOD_S) - 1
    for k in range(1, n_updates + 1):
        du = rng.choice(sorted(DU_BANDS))
        band, freq = DU_BANDS[du]
        bw = rng.choice(BANDWIDTHS_HZ)
        lines.append(
            f"  - {{at: {round(k * UPDATE_PERIOD_S, 6)!r}, kind: du_config_update, "
            f"du: {du}, carrier: {{band_label: {band}, center_frequency: {freq!r}, "
            f"bandwidth: {bw!r}, scs: 30.0e3}}}}\n")
    lines.append("\nflows:\n")
    for fid, src, dst, pps in FLOWS:
        size = rng.choice(PACKET_SIZES_B)
        lines.append(
            f"  - {{id: {fid}, src: {src}, dst: {dst}, rate: {pps * size * 8.0!r}, "
            f"packet_size: {size}, start: {FLOW_START_S!r}, stop: {FLOW_STOP_S!r}}}\n")
    return "".join(lines)
