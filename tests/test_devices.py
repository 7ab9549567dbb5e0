"""Device physics: chirality laws, threshold search, square-law currents."""

import math

import pytest
from hypothesis import given, strategies as st

from cnfetsim.devices import (
    Chirality,
    CnfetParams,
    DeviceError,
    MosfetParams,
    Polarity,
    UnreachableThresholdError,
    chirality_for_threshold,
    chirality_threshold,
    diameter,
    is_semiconducting,
    threshold_voltage,
)
from scalar_device import drain_current

# Frozen with 50-digit decimal arithmetic on a*sqrt(n^2+nm+m^2)/pi.
D_19_0 = 1.5059240715355137
D_10_10 = 1.3728089496002622
VTH_19_0 = 0.2788985234639005
VTH_13_0 = 0.4076209189087776


class TestChiralityLaws:
    def test_zigzag_19_0_diameter(self):
        assert diameter(Chirality(19, 0), 0.249) == pytest.approx(D_19_0, abs=1e-12)

    def test_pi_lattice_constant_cancels(self):
        c = Chirality(7, 4)
        d = diameter(c, math.pi)
        assert d == pytest.approx(math.sqrt(7 * 7 + 7 * 4 + 4 * 4), rel=1e-15)

    def test_armchair_10_10_diameter(self):
        assert diameter(Chirality(10, 10), 0.249) == pytest.approx(D_10_10, abs=1e-12)

    def test_unit_diameter_threshold(self):
        assert threshold_voltage(1.0) == 0.42

    def test_19_0_threshold(self):
        assert threshold_voltage(diameter(Chirality(19, 0))) == pytest.approx(VTH_19_0, abs=1e-12)

    def test_reciprocal_symmetry(self):
        assert threshold_voltage(0.42) == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf")])
    def test_threshold_rejects_nonpositive_diameter(self, bad):
        with pytest.raises(DeviceError):
            threshold_voltage(bad)

    def test_invalid_chirality(self):
        with pytest.raises(DeviceError):
            Chirality(0, 0)
        with pytest.raises(DeviceError):
            Chirality(5, 7)
        with pytest.raises(DeviceError):
            Chirality(5, -1)


class TestSemiconducting:
    @pytest.mark.parametrize(
        "n,m,expected",
        [(19, 0, True), (9, 0, False), (10, 10, False), (10, 0, True), (59, 0, True)],
    )
    def test_selection_rule(self, n, m, expected):
        assert is_semiconducting(Chirality(n, m)) is expected

    @given(st.integers(1, 80), st.integers(0, 80))
    def test_rule_matches_mod3(self, n, m):
        if m > n:
            n, m = m, n
        assert is_semiconducting(Chirality(n, m)) == ((n - m) % 3 != 0)


class TestThresholdSearch:
    def test_finds_19_0_for_paper_regime(self):
        assert chirality_for_threshold(0.279, 0.01) == Chirality(19, 0)

    def test_exact_inverse_roundtrip(self):
        target = chirality_threshold(Chirality(13, 0))
        assert chirality_for_threshold(target, 1e-9) == Chirality(13, 0)

    def test_unreachable_raises(self):
        with pytest.raises(UnreachableThresholdError):
            chirality_for_threshold(10.0, 0.01)

    def test_nonpositive_target_rejected(self):
        with pytest.raises(DeviceError):
            chirality_for_threshold(-0.3, 0.01)

    @pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
    def test_nonfinite_target_rejected(self, target):
        with pytest.raises(DeviceError, match="target threshold"):
            chirality_for_threshold(target, 0.01)

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1e-3])
    def test_nonfinite_or_negative_tolerance_rejected(self, tolerance):
        # A NaN tolerance would accept any miss: best_err > nan is False.
        with pytest.raises(DeviceError, match="tolerance"):
            chirality_for_threshold(0.3, tolerance)

    @given(st.floats(0.1, 1.3))
    def test_roundtrip_within_tolerance(self, target):
        tol = 0.06  # ladder spacing near the top is ~0.27 V/step below n=5
        try:
            c = chirality_for_threshold(target, tol)
        except UnreachableThresholdError:
            return
        assert abs(chirality_threshold(c) - target) <= tol

    def test_zigzag_threshold_strictly_decreasing_in_n(self):
        prior = math.inf
        for n in range(4, 61):
            vth = threshold_voltage(diameter(Chirality(n, 0)))
            assert vth < prior
            prior = vth


def _nfet(k=1e-4, tubes=3):
    return CnfetParams(Chirality(19, 0), Polarity.N, tube_count=tubes,
                       transconductance_per_tube=k)


def _pfet(k=1e-4, tubes=3):
    return CnfetParams(Chirality(19, 0), Polarity.P, tube_count=tubes,
                       transconductance_per_tube=k)


class TestCnfetCurrent:
    def test_cutoff_zero(self):
        assert drain_current(_nfet(), 0.0, 0.5)[0] == 0.0

    def test_cutoff_throughout(self):
        p = _nfet()
        for vgs in (0.0, 0.1, p.threshold):
            for vds in (0.0, 0.3, 0.9):
                assert drain_current(p, vgs, vds)[0] == 0.0

    def test_saturation_closed_form(self):
        p = _nfet()
        vth = p.threshold
        # vgs = 2*vth, large vds: tubes * k * vth^2 / 2
        i = drain_current(p, 2 * vth, 5.0)[0]
        assert i == pytest.approx(3 * 1e-4 * vth * vth / 2, rel=1e-12)

    def test_continuity_at_triode_saturation_boundary(self):
        p = _nfet()
        vov = 0.2
        vgs = p.threshold + vov
        below = drain_current(p, vgs, vov - 1e-9)[0]
        above = drain_current(p, vgs, vov + 1e-9)[0]
        assert below == pytest.approx(above, abs=1e-12)

    def test_continuity_at_cutoff_boundary(self):
        p = _nfet()
        for vds in (0.1, 0.5):
            below = drain_current(p, p.threshold - 1e-9, vds)[0]
            above = drain_current(p, p.threshold + 1e-9, vds)[0]
            assert abs(above - below) < 1e-12

    @given(st.floats(-1.2, 1.2), st.floats(-1.2, 1.2), st.floats(-1.2, 1.2))
    def test_continuity_everywhere(self, vgs, vds, direction):
        p = _nfet()
        eps = 1e-8
        i0 = drain_current(p, vgs, vds)[0]
        i1 = drain_current(p, vgs + eps * math.copysign(1, direction or 1), vds)[0]
        i2 = drain_current(p, vgs, vds + eps * math.copysign(1, direction or 1))[0]
        lip = p.transconductance * 4.0  # generous Lipschitz bound on this range
        assert abs(i1 - i0) <= lip * eps + 1e-15
        assert abs(i2 - i0) <= lip * eps + 1e-15

    @given(st.floats(0.0, 1.2), st.floats(0.0, 1.2), st.floats(0.01, 1.2))
    def test_monotone_in_overdrive(self, vgs1, delta, vds):
        p = _nfet()
        vgs2 = vgs1 + delta
        assert drain_current(p, vgs2, vds)[0] >= drain_current(p, vgs1, vds)[0]

    def test_reverse_conduction_antisymmetric(self):
        # Drain/source symmetry: swapping terminals flips the sign.
        p = _nfet()
        vd, vg, vs = 0.2, 0.9, 0.7
        forward = drain_current(p, vg - vs, vd - vs)[0]
        swapped = drain_current(p, vg - vd, vs - vd)[0]
        assert forward == pytest.approx(-swapped, rel=1e-12)

    def test_polarity_mirror(self):
        n, p = _nfet(), _pfet()
        assert drain_current(n, 0.6, 0.4)[0] == pytest.approx(
            -drain_current(p, -0.6, -0.4)[0], rel=1e-12
        )

    @given(st.floats(-1.2, 1.2), st.floats(-1.2, 1.2))
    def test_derivatives_match_finite_differences(self, vgs, vds):
        p = _nfet()
        h = 1e-7
        _, gm, gds = drain_current(p, vgs, vds)
        gm_fd = (drain_current(p, vgs + h, vds)[0] - drain_current(p, vgs - h, vds)[0]) / (2 * h)
        gds_fd = (drain_current(p, vgs, vds + h)[0] - drain_current(p, vgs, vds - h)[0]) / (2 * h)
        assert gm == pytest.approx(gm_fd, abs=5e-9)
        assert gds == pytest.approx(gds_fd, abs=5e-9)

    def test_metallic_channel_rejected(self):
        with pytest.raises(DeviceError):
            CnfetParams(Chirality(9, 0), Polarity.N)

    def test_tube_count_scales_current(self):
        one = CnfetParams(Chirality(19, 0), Polarity.N, tube_count=1)
        four = CnfetParams(Chirality(19, 0), Polarity.N, tube_count=4)
        assert drain_current(four, 0.6, 0.9)[0] == pytest.approx(
            4 * drain_current(one, 0.6, 0.9)[0], rel=1e-12
        )


class TestMosfetCurrent:
    def test_cutoff(self):
        p = MosfetParams(Polarity.N, threshold=0.25, transconductance=4e-4)
        assert drain_current(p, 0.0, 0.5)[0] == 0.0

    def test_symmetric_pair_mirrors(self):
        n = MosfetParams(Polarity.N, 0.25, 4e-4, 0.05)
        p = MosfetParams(Polarity.P, 0.25, 4e-4, 0.05)
        for x in (0.3, 0.6, 0.9):
            assert drain_current(n, x, x / 2)[0] == pytest.approx(
                -drain_current(p, -x, -x / 2)[0], rel=1e-12
            )

    def test_zero_lambda_saturation_flat(self):
        p = MosfetParams(Polarity.N, 0.25, 4e-4, 0.0)
        i1 = drain_current(p, 0.6, 0.5)[0]
        i2 = drain_current(p, 0.6, 5.0)[0]
        assert i1 == i2

    def test_lambda_keeps_current_continuous_at_saturation(self):
        p = MosfetParams(Polarity.N, 0.25, 4e-4, 0.05)
        vov = 0.35
        below = drain_current(p, 0.25 + vov, vov - 1e-9)[0]
        above = drain_current(p, 0.25 + vov, vov + 1e-9)[0]
        assert below == pytest.approx(above, abs=1e-12)

    def test_invalid_params(self):
        with pytest.raises(DeviceError):
            MosfetParams(Polarity.N, -0.1, 4e-4)
        with pytest.raises(DeviceError):
            MosfetParams(Polarity.N, 0.25, 0.0)
