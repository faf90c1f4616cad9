"""Radio abstraction: log-distance pathloss, SNR, coverage, capacity.

All functions are pure; the knobs live in :class:`RadioParams`. Capacity uses
a Shannon bound scaled by an implementation-efficiency factor and the TDD
split, which are the two calibration knobs of the bundled scenarios. Only this
module reads the reference distance, inside which the loss is flat, and the
RSRP coverage threshold, which `covered_rx_dbm` applies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

SPEED_OF_LIGHT = 299_792_458.0

VALID_SCS_HZ = (15e3, 30e3, 60e3)

# kT, in dBm/Hz, from below 1 K to about 29,000 K; -174 is kT at 290 K.
THERMAL_NOISE_DBM_HZ = (-200.0, -150.0)
# The least efficiency and TDD downlink share: below it a capacity can be
# subnormal, so one packet's serialization time is inf and busy time NaN.
MIN_SHARE = 0.01


@dataclass(frozen=True)
class RadioParams:
    pathloss_exponent: float = 2.2
    reference_distance_m: float = 1.0
    noise_figure_db: float = 7.0
    thermal_noise_dbm_hz: float = -174.0
    coverage_rsrp_threshold_dbm: float = -100.0
    efficiency: float = 0.55
    tdd_dl_fraction: float = 0.7

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"RadioParams.{name} must be finite, got {v!r}")
        if self.pathloss_exponent < 0.0:  # received power would grow with distance
            raise ValueError("pathloss_exponent must not be negative")
        if self.reference_distance_m <= 0.0:
            raise ValueError("reference_distance must be positive")
        # A receiver adds noise: a figure of -1e300 dB made the SNR, and so
        # the capacity, infinite.
        if self.noise_figure_db < 0.0:
            raise ValueError("noise_figure must not be negative")
        low, high = THERMAL_NOISE_DBM_HZ
        if not low <= self.thermal_noise_dbm_hz <= high:
            raise ValueError(f"thermal_noise_density must be in "
                             f"[{low:g}, {high:g}] dBm/Hz")
        if not MIN_SHARE <= self.efficiency <= 1.0:
            raise ValueError(f"efficiency must be in [{MIN_SHARE:g}, 1]")
        if not MIN_SHARE <= self.tdd_dl_fraction <= 1.0:
            raise ValueError(f"tdd_dl_fraction must be in [{MIN_SHARE:g}, 1]")


def path_loss_db(center_frequency_hz: float, distance_m: float,
                 params: RadioParams) -> float:
    """Log-distance pathloss: free-space loss at d0, exponent n beyond it.
    A distance inside d0 has d0's loss."""
    d0 = params.reference_distance_m
    free_space_d0 = 20.0 * math.log10(
        4.0 * math.pi * d0 * center_frequency_hz / SPEED_OF_LIGHT)
    if distance_m <= d0:  # no exponent term: 10 * n may be inf, and inf * 0 NaN
        return free_space_d0
    return free_space_d0 + 10.0 * params.pathloss_exponent * math.log10(distance_m / d0)


def noise_power_dbm(bandwidth_hz: float, params: RadioParams) -> float:
    return (params.thermal_noise_dbm_hz
            + 10.0 * math.log10(bandwidth_hz)
            + params.noise_figure_db)


def rx_power_dbm(tx_power_dbm: float, center_frequency_hz: float,
                 distance_m: float, params: RadioParams) -> float:
    return tx_power_dbm - path_loss_db(center_frequency_hz, distance_m, params)


def snr_db(tx_power_dbm: float, center_frequency_hz: float, bandwidth_hz: float,
           distance_m: float, params: RadioParams) -> float:
    return (rx_power_dbm(tx_power_dbm, center_frequency_hz, distance_m, params)
            - noise_power_dbm(bandwidth_hz, params))


def covered_rx_dbm(tx_power_dbm: float, center_frequency_hz: float,
                   distance_m: float, params: RadioParams) -> Optional[float]:
    """Received power, or None below the RSRP coverage threshold."""
    rx = rx_power_dbm(tx_power_dbm, center_frequency_hz, distance_m, params)
    return rx if rx >= params.coverage_rsrp_threshold_dbm else None


def shannon_capacity_bps(bandwidth_hz: float, snr_value_db: float,
                         params: RadioParams, downlink: bool) -> float:
    """Efficiency- and TDD-scaled Shannon capacity for one direction."""
    fraction = params.tdd_dl_fraction if downlink else 1.0 - params.tdd_dl_fraction
    x = snr_value_db / 10.0  # from 300 on, 1 + 10**x == 10**x; past 308 it overflows
    bits = x * math.log2(10.0) if x >= 300.0 else math.log2(1.0 + 10.0 ** x)
    return params.efficiency * fraction * bandwidth_hz * bits
