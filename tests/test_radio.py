import dataclasses
import math
import types

import pytest

from iabsim import radio
from iabsim.radio import RadioParams


P = RadioParams()


class TestPathLoss:
    def test_free_space_at_reference_distance_347ghz(self):
        # 20*log10(4*pi*1*3.47e9/c), independently computed
        assert radio.path_loss_db(3.47e9, 1.0, P) == pytest.approx(43.254372717700846)

    def test_free_space_at_reference_distance_2585mhz(self):
        assert radio.path_loss_db(2.585e9, 1.0, P) == pytest.approx(40.6969941704826)

    def test_exponent_term_at_100m(self):
        # 10 * 2.2 * log10(100) = 44 dB on top of the 1 m loss
        at_1m = radio.path_loss_db(3.47e9, 1.0, P)
        assert radio.path_loss_db(3.47e9, 100.0, P) == pytest.approx(at_1m + 44.0)

    def test_loss_per_distance_doubling(self):
        # n=2.2 -> 10*2.2*log10(2) = 6.6227 dB per doubling
        step = (radio.path_loss_db(2.585e9, 200.0, P)
                - radio.path_loss_db(2.585e9, 100.0, P))
        assert step == pytest.approx(6.622659904607587)

    @pytest.mark.parametrize("distance_m", [0.0, 0.5])
    def test_inside_reference_distance_has_the_reference_loss(self, distance_m):
        assert radio.path_loss_db(3.47e9, distance_m, P) \
            == radio.path_loss_db(3.47e9, 1.0, P)

    @pytest.mark.parametrize("exponent", [1e308, -1e308])
    @pytest.mark.parametrize("distance_m", [0.5, 1.0])
    def test_a_huge_exponent_adds_nothing_at_the_reference_distance(
            self, exponent, distance_m):
        # 10 * n overflows to +-inf, and inf * log10(1) once made the loss NaN.
        # The d0 guard is path_loss_db's own, so it is checked for either sign
        # on a bare parameter holder, though RadioParams refuses a negative
        # exponent (TestRadioParams).
        p = types.SimpleNamespace(reference_distance_m=P.reference_distance_m,
                                  pathloss_exponent=exponent)
        assert radio.path_loss_db(3.47e9, distance_m, p) \
            == radio.path_loss_db(3.47e9, 1.0, P)

    def test_custom_reference_distance(self):
        p = dataclasses.replace(P, reference_distance_m=10.0)
        assert radio.path_loss_db(3.47e9, 10.0, p) == pytest.approx(
            20 * math.log10(4 * math.pi * 10 * 3.47e9 / radio.SPEED_OF_LIGHT))


class TestNoiseAndBudget:
    def test_noise_power_20mhz(self):
        # -174 + 10*log10(20e6) + 7
        assert radio.noise_power_dbm(20e6, P) == pytest.approx(-93.98970004336019)

    def test_noise_power_30mhz(self):
        assert radio.noise_power_dbm(30e6, P) == pytest.approx(-92.22878745280337)

    def test_rx_power_is_linear_in_tx_power(self):
        lo = radio.rx_power_dbm(20.0, 2.585e9, 500.0, P)
        hi = radio.rx_power_dbm(23.0, 2.585e9, 500.0, P)
        assert hi - lo == pytest.approx(3.0)

    def test_link_budget_is_consistent(self):
        pathloss = radio.path_loss_db(2.585e9, 880.0, P)
        rx = radio.rx_power_dbm(23.0, 2.585e9, 880.0, P)
        assert rx == pytest.approx(23.0 - pathloss)
        assert radio.snr_db(23.0, 2.585e9, 20e6, 880.0, P) == pytest.approx(
            rx - radio.noise_power_dbm(20e6, P))

    def test_backhaul_reference_geometry_snr(self):
        # 23 dBm donor on n41/20 MHz at 880 m: the calibrated backhaul SNR
        assert radio.snr_db(23.0, 2.585e9, 20e6, 880.0, P) == pytest.approx(
            11.514087085573877)


class TestCoverage:
    def test_threshold_is_inclusive(self):
        # find the exact distance where rx == threshold, check both sides
        edge = 10 ** ((23.0 + 100.0 - radio.path_loss_db(2.585e9, 1.0, P)) / 22.0)
        assert edge == pytest.approx(5508.656846876735)
        assert radio.covered_rx_dbm(23.0, 2.585e9, edge, P) \
            == pytest.approx(-100.0)
        assert radio.covered_rx_dbm(23.0, 2.585e9, edge * 1.001, P) is None

    def test_closer_than_reference_distance_is_covered(self):
        assert radio.covered_rx_dbm(23.0, 2.585e9, 0.1, P) \
            == radio.rx_power_dbm(23.0, 2.585e9, 1.0, P)

    def test_reference_ue2_outside_donor_coverage(self):
        assert radio.rx_power_dbm(23.0, 2.585e9, 6000.0, P) == pytest.approx(
            -100.81632167892276)
        assert radio.covered_rx_dbm(23.0, 2.585e9, 6000.0, P) is None


class TestCapacity:
    def test_backhaul_downlink_capacity(self):
        # 0.55 * 0.7 * 20e6 * log2(1 + 10^(11.5141/10))
        s = radio.snr_db(23.0, 2.585e9, 20e6, 880.0, P)
        cap = radio.shannon_capacity_bps(20e6, s, P, downlink=True)
        assert cap == pytest.approx(30209177.122299664)

    def test_backhaul_uplink_capacity_uses_remaining_tdd_share(self):
        s = radio.snr_db(23.0, 2.585e9, 20e6, 880.0, P)
        dl = radio.shannon_capacity_bps(20e6, s, P, downlink=True)
        ul = radio.shannon_capacity_bps(20e6, s, P, downlink=False)
        assert ul == pytest.approx(12946790.195271285)
        assert dl + ul == pytest.approx(0.55 * 20e6 * math.log2(1 + 10 ** (s / 10)))

    def test_access_capacity_exceeds_backhaul(self):
        # 43 dBm aerial DU on n78/30 MHz serving a UE 5120 m away
        s = radio.snr_db(43.0, 3.47e9, 30e6, 5120.0, P)
        cap = radio.shannon_capacity_bps(30e6, s, P, downlink=True)
        assert cap == pytest.approx(41253558.724136814)
        assert cap > 30209177.122299664

    def test_capacity_zero_snr_floor(self):
        # at SNR -inf dB capacity tends to 0; at 0 dB it is eff*frac*B exactly
        cap = radio.shannon_capacity_bps(20e6, 0.0, P, downlink=True)
        assert cap == pytest.approx(0.55 * 0.7 * 20e6)
        assert radio.shannon_capacity_bps(20e6, -200.0, P, True) < 1.0

    @pytest.mark.parametrize("snr", [2999.0, 3000.0, 3090.0, 1e6])
    def test_capacity_at_a_huge_snr_is_finite(self, snr):
        # 10 ** (snr / 10) overflows past 3082 dB; log2(1 + 10**x) is then
        # x * log2(10), as it already is in floats from x = 300 on.
        cap = radio.shannon_capacity_bps(20e6, snr, P, downlink=True)
        assert cap == pytest.approx(0.55 * 0.7 * 20e6 * snr / 10 * math.log2(10))


class TestRadioParams:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            RadioParams(pathloss_exponent=float("nan"))

    @pytest.mark.parametrize("exponent", [-1e308, -1.0, -5e-324])
    def test_rejects_a_negative_exponent(self, exponent):
        # Received power would grow with distance: a UE 6 km away was once
        # "covered" at +inf dBm, and radio capacity was infinite.
        with pytest.raises(ValueError, match="pathloss_exponent"):
            RadioParams(pathloss_exponent=exponent)

    def test_a_zero_exponent_is_allowed(self):
        assert RadioParams(pathloss_exponent=0.0).pathloss_exponent == 0.0

    @pytest.mark.parametrize("fraction", [0.0, -0.1, 1.5])
    def test_rejects_a_tdd_split_outside_zero_to_one(self, fraction):
        with pytest.raises(ValueError, match="tdd_dl_fraction"):
            RadioParams(tdd_dl_fraction=fraction)

    @pytest.mark.parametrize("figure", [-1e300, -1.0, -5e-324])
    def test_rejects_a_negative_noise_figure(self, figure):
        # -1e300 dB made the SNR, and so the capacity, infinite.
        with pytest.raises(ValueError, match="noise_figure"):
            RadioParams(noise_figure_db=figure)

    @pytest.mark.parametrize("density", [-1e300, -200.1, -149.9, 0.0])
    def test_rejects_a_noise_density_outside_its_window(self, density):
        with pytest.raises(ValueError, match="thermal_noise_density"):
            RadioParams(thermal_noise_dbm_hz=density)

    @pytest.mark.parametrize("field", ["efficiency", "tdd_dl_fraction"])
    @pytest.mark.parametrize("share", [5e-324, 1e-300, 0.0099])
    def test_rejects_a_share_below_its_floor(self, field, share):
        # A subnormal capacity made a serialization time inf and busy time
        # NaN.
        with pytest.raises(ValueError, match=field):
            RadioParams(**{field: share})

    def test_accepts_the_edges_of_each_window(self):
        for params in (RadioParams(noise_figure_db=0.0, efficiency=0.01,
                                   tdd_dl_fraction=0.01,
                                   thermal_noise_dbm_hz=-200.0),
                       RadioParams(efficiency=1.0, tdd_dl_fraction=1.0,
                                   thermal_noise_dbm_hz=-150.0)):
            assert params.noise_figure_db >= 0.0

    def test_rejects_bad_efficiency(self):
        with pytest.raises(ValueError):
            RadioParams(efficiency=0.0)
        with pytest.raises(ValueError):
            RadioParams(efficiency=1.5)
