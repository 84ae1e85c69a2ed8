import numpy as np
import pytest

import disperlim as dl
from disperlim import (ConstraintError, LimitConfig, NumericalError, RealField,
                       ScalingParams, assemble_initial_data,
                       first_order_profiles_kp, first_order_profiles_zk,
                       residual_order_systems, second_order_profiles_kp,
                       second_order_profiles_zk, second_order_sources_kp,
                       second_order_sources_zk, solve_kp2, solve_zk)
from disperlim.initial_data import gaussian_zero_mean
from disperlim.limit_equations import (LimitCoefficients, solve_linearized_kp,
                                       solve_linearized_zk)
from disperlim.profiles import (assemble_lin_source_closed_form,
                                assemble_lin_source_mechanical,
                                compute_phi_gap, tilde_aggregates)
from disperlim.spectral import fft_c, l2_norm, spectral_derivative
from disperlim.study import fit_order

V2 = float(np.sqrt(2.0))


@pytest.fixture(scope="module")
def kp_setup():
    g = dl.build_grid([64, 64], [40.0, 40.0])
    n10 = gaussian_zero_mean(g, amplitude=0.3, width=3.0)
    n1 = solve_kp2(n10, LimitConfig(V=V2, dt=1e-3, T=0.08, equation="KP2",
                                    snapshots=2)).final
    return g, n1


@pytest.fixture(scope="module")
def zk_setup():
    g = dl.build_grid([32, 32, 32], [20.0] * 3)
    n10 = gaussian_zero_mean(g, amplitude=0.3, width=2.4)
    n1 = solve_zk(n10, LimitConfig(V=1.0, dt=1e-3, T=0.05, equation="ZK",
                                   snapshots=2)).final
    return g, n1


class TestFirstOrder2D:
    def test_zero_profile(self):
        g = dl.build_grid([32, 32], [40.0, 40.0])
        h = first_order_profiles_kp(RealField.zeros(g), V2)
        assert all(np.all(v == 0) for v in h.fields.values())
        assert all(np.all(v == 0) for v in h.aux.values())

    def test_algebraic_relations(self, kp_setup):
        g, n1 = kp_setup
        h = first_order_profiles_kp(n1, V2)
        # the potential profile is the density profile, bitwise
        assert h.fields["phi1"] is h.fields["n1"]
        assert np.array_equal(h.fields["u1_1"], V2 * h.fields["n1"])
        # transverse closure: d1 u2 = V d2 n1
        lhs = spectral_derivative(RealField(g, h.fields["u2_1"]), 0, 1)
        rhs = V2 * spectral_derivative(n1, 1, 1)
        assert np.max(np.abs(lhs.values - rhs.values)) < 1e-10

    def test_constraint_violation(self):
        g = dl.build_grid([32, 32], [40.0, 40.0])
        _, y = g.meshgrid()
        with pytest.raises(ConstraintError):
            first_order_profiles_kp(RealField(g, 0.1 * np.sin(y)), V2)


class TestFirstOrder3D:
    def test_drift_velocities(self, zk_setup):
        g, n1 = zk_setup
        h = first_order_profiles_zk(n1, 1.0)
        d2 = spectral_derivative(n1, 1, 1).values
        d3 = spectral_derivative(n1, 2, 1).values
        assert np.max(np.abs(h.fields["u2_1"] + d3)) < 1e-10   # -V^2 d3 n1, V=1
        assert np.max(np.abs(h.fields["u3_1"] - d2)) < 1e-10

    def test_divergence_identity(self, zk_setup):
        g, n1 = zk_setup
        h = first_order_profiles_zk(n1, 1.0)
        div = (spectral_derivative(RealField(g, h.fields["u2_1"]), 1, 1).values
               + spectral_derivative(RealField(g, h.fields["u3_1"]), 2, 1).values)
        assert np.max(np.abs(div)) < 1e-12

    def test_second_drift_closure(self, zk_setup):
        # divergence of the streamwise companions equals V^3 d1 lap_perp n1
        g, n1 = zk_setup
        V = 1.0
        h = first_order_profiles_zk(n1, V)
        div = (spectral_derivative(RealField(g, h.fields["u2_2"]), 1, 1).values
               + spectral_derivative(RealField(g, h.fields["u3_2"]), 2, 1).values)
        lap_perp = (spectral_derivative(n1, 1, 2).values
                    + spectral_derivative(n1, 2, 2).values)
        oracle = V ** 3 * spectral_derivative(RealField(g, lap_perp), 0, 1).values
        assert np.max(np.abs(div - oracle)) < 1e-10


class TestSecondOrder:
    def test_vanishing_background_2d(self):
        g = dl.build_grid([32, 32], [40.0, 40.0])
        n2 = gaussian_zero_mean(g, amplitude=0.2, width=4.0)
        h = second_order_profiles_kp(RealField.zeros(g), n2, V2)
        assert np.allclose(h.fields["u1_2"], V2 * n2.values)
        assert np.allclose(h.fields["phi2"], n2.values)
        assert np.max(np.abs(h.aux["u1_corr"])) == 0.0

    def test_audit_coefficient_switch(self):
        g = dl.build_grid([32, 32], [40.0, 40.0])
        n2 = gaussian_zero_mean(g, amplitude=0.2, width=4.0)
        h = second_order_profiles_kp(RealField.zeros(g), n2, V2,
                                     u1_second_coeff=1.0)
        assert np.allclose(h.fields["u1_2"], n2.values)

    def test_potential_correction_2d(self, kp_setup):
        g, n1 = kp_setup
        n2 = gaussian_zero_mean(g, amplitude=0.1, width=4.0)
        h = second_order_profiles_kp(n1, n2, V2)
        from disperlim.profiles import _Ops
        op = _Ops(g)
        k = n1.values
        oracle = op.d(k, 0, 2) - 0.5 * op.prod(k, k)
        assert np.max(np.abs((h.fields["phi2"] - n2.values) - oracle)) < 1e-10

    def test_potential_correction_3d(self, zk_setup):
        g, n1 = zk_setup
        n2 = gaussian_zero_mean(g, amplitude=0.1, width=2.6)
        h = second_order_profiles_zk(n1, n2, 1.0)
        from disperlim.profiles import _Ops
        op = _Ops(g)
        k = n1.values
        oracle = op.lap(k) - 0.5 * op.prod(k, k)
        assert np.max(np.abs((h.fields["phi2"] - n2.values) - oracle)) < 1e-10


class TestSources:
    def test_zero_background_zero_source(self):
        g = dl.build_grid([32, 32], [40.0, 40.0])
        src = second_order_sources_kp(RealField.zeros(g), V2)
        assert np.max(np.abs(src.source(0.0))) == 0.0

    def test_two_codepaths_agree_2d(self, kp_setup):
        g, n1 = kp_setup
        co = LimitCoefficients.for_equation("KP2", V2)
        gm = assemble_lin_source_mechanical(n1, co, "KP2")
        gc = assemble_lin_source_closed_form(n1, co, "KP2")
        scale = l2_norm(RealField(g, gm))
        assert l2_norm(RealField(g, gm - gc)) < 1e-9 * max(1.0, scale)

    def test_two_codepaths_agree_3d(self, zk_setup):
        g, n1 = zk_setup
        co = LimitCoefficients.for_equation("ZK", 1.0)
        gm = assemble_lin_source_mechanical(n1, co, "ZK")
        gc = assemble_lin_source_closed_form(n1, co, "ZK")
        scale = l2_norm(RealField(g, gm))
        assert l2_norm(RealField(g, gm - gc)) < 1e-9 * max(1.0, scale)

    def test_differentiated_source_plane_free(self, kp_setup):
        g, n1 = kp_setup
        src = second_order_sources_kp(n1, V2)
        c = fft_c(src.source(0.0), g)
        assert np.max(np.abs(c[0, :])) < 1e-10


class TestResiduals:
    def test_zero_hierarchy(self):
        g = dl.build_grid([32, 32], [40.0, 40.0])
        p = ScalingParams(epsilon=0.1, ion_temperature=1.0, dim=2)
        rep = residual_order_systems(first_order_profiles_kp(RealField.zeros(g), V2), p)
        assert rep.all_pass
        assert all(e["l2"] == 0.0 for e in rep.entries.values())

    def test_pass_first_order_2d(self, kp_setup):
        _, n1 = kp_setup
        p = ScalingParams(epsilon=0.1, ion_temperature=1.0, dim=2)
        rep = residual_order_systems(first_order_profiles_kp(n1, V2), p)
        assert rep.all_pass, rep.summary()

    def test_pass_second_order_2d(self, kp_setup):
        g, n1 = kp_setup
        p = ScalingParams(epsilon=0.1, ion_temperature=1.0, dim=2)
        src = second_order_sources_kp(n1, V2)
        n2 = solve_linearized_kp(src, RealField.zeros(g),
                                 LimitConfig(V=V2, dt=1e-3, T=0.04,
                                             equation="LinKP", snapshots=2)).final
        rep = residual_order_systems(second_order_profiles_kp(n1, n2, V2), p)
        assert rep.all_pass, rep.summary()

    def test_pass_first_order_3d(self, zk_setup):
        _, n1 = zk_setup
        p = ScalingParams(epsilon=0.1, ion_temperature=0.0, dim=3)
        rep = residual_order_systems(first_order_profiles_zk(n1, 1.0), p)
        assert rep.all_pass, rep.summary()

    def test_detection_sensitivity_scaling(self, kp_setup):
        # a relative corruption of the streamwise velocity shows up in the
        # first-power balance at the predicted magnitude
        g, n1 = kp_setup
        p = ScalingParams(epsilon=0.1, ion_temperature=1.0, dim=2)
        h = first_order_profiles_kp(n1, V2)
        rep = residual_order_systems(h.corrupted("u1_1", 1e-3), p)
        got = rep.entries["eps1/continuity"]["l2"]
        expected = 1e-3 * l2_norm(spectral_derivative(
            RealField(g, h.fields["u1_1"]), 0, 1))
        assert got == pytest.approx(expected, rel=1e-6)

    def test_wrong_bilinear_coefficient_detected(self, kp_setup):
        # using the doubled bilinear coefficient in the second-order equation
        # breaks the third-power combination by exactly the extra term
        g, n1 = kp_setup
        p = ScalingParams(epsilon=0.1, ion_temperature=1.0, dim=2)
        co_bad = LimitCoefficients.for_equation("KP2", V2, bilinear=2.0 * V2)
        src = second_order_sources_kp(n1, V2)
        n2 = solve_linearized_kp(src, RealField.zeros(g),
                                 LimitConfig(V=V2, dt=1e-3, T=0.04,
                                             equation="LinKP", snapshots=2)).final
        h = second_order_profiles_kp(n1, n2, V2, coeffs=co_bad)
        rep = residual_order_systems(h, p)
        assert not rep.entries["eps3/combined"]["passed"]


class TestAssembly:
    def test_zero_hierarchy_gives_rest_state(self):
        g = dl.build_grid([32, 32], [40.0, 40.0])
        p = ScalingParams(epsilon=0.1, ion_temperature=1.0, dim=2)
        h = first_order_profiles_kp(RealField.zeros(g), V2)
        state = assemble_initial_data(h, p)
        assert np.max(np.abs(state.n.values - 1.0)) < 1e-14
        assert max(c.max_abs() for c in state.u) < 1e-14
        assert state.phi.max_abs() < 1e-12

    def test_density_floor(self, kp_setup):
        g, n1 = kp_setup
        h = first_order_profiles_kp(n1, V2)
        p = ScalingParams(epsilon=0.1, ion_temperature=1.0, dim=2)
        state = assemble_initial_data(h, p)
        assert np.min(state.n.values) >= 1.0 - 0.1 * np.max(np.abs(n1.values)) - 1e-9

    def test_positivity_rejected(self):
        g = dl.build_grid([32, 32], [40.0, 40.0])
        big = gaussian_zero_mean(g, amplitude=3.0, width=3.0)
        h = first_order_profiles_kp(big, V2)
        p = ScalingParams(epsilon=0.3, ion_temperature=1.0, dim=2)
        with pytest.raises(NumericalError):
            assemble_initial_data(h, p)

    def test_phi_gap_scales_second_order(self, kp_setup):
        _, n1 = kp_setup
        h = first_order_profiles_kp(n1, V2)
        points = []
        for eps in (0.2, 0.1, 0.05):
            p = ScalingParams(epsilon=eps, ion_temperature=1.0, dim=2)
            points.append((eps, compute_phi_gap(h, p)))
        order = fit_order(points)["order"]
        assert 1.7 <= order <= 2.3

    def test_aggregate_weights_2d(self, kp_setup):
        g, n1 = kp_setup
        h = first_order_profiles_kp(n1, V2)
        eps = 0.09
        agg = tilde_aggregates(h, eps)
        assert np.array_equal(agg["n"], h.fields["n1"])
        assert np.array_equal(agg["u"][1], np.sqrt(eps) * h.fields["u2_1"])


class TestTransformBudget:
    """Field transforms of one source assembly and one order-2 residual check
    (a batched stack of m fields counts m), counted at the transform layer."""

    @staticmethod
    def counting(monkeypatch):
        import math
        import types

        import scipy.fft

        from disperlim import spectral

        count = [0]

        def wrap(fn):
            def counted(x, *args, axes=None, **kwargs):
                done = {a % np.ndim(x) for a in axes}
                count[0] += math.prod(n for a, n in enumerate(np.shape(x))
                                      if a not in done)
                return fn(x, *args, axes=axes, **kwargs)
            return counted

        names = ("fftn", "ifftn", "rfftn", "irfftn")
        monkeypatch.setattr(spectral, "_fft", types.SimpleNamespace(
            **{name: wrap(getattr(scipy.fft, name)) for name in names}))
        return count

    @pytest.mark.parametrize("dims,lengths,V,width", [
        ([32, 32], [40.0, 40.0], V2, 3.0),
        ([16, 16, 16], [20.0] * 3, 1.0, 2.4)])
    def test_source_and_residual_budgets(self, monkeypatch, dims, lengths, V, width):
        g = dl.build_grid(dims, lengths)
        d = len(dims)
        equation = "KP2" if d == 2 else "ZK"
        n1 = gaussian_zero_mean(g, amplitude=0.3, width=width)
        n2 = gaussian_zero_mean(g, amplitude=0.1, width=width + 1.0)
        co = LimitCoefficients.for_equation(equation, V)
        build = second_order_profiles_kp if d == 2 else second_order_profiles_zk
        h = build(n1, n2, V)
        p = ScalingParams(epsilon=0.1, ion_temperature=V * V - 1.0, dim=d)
        count = self.counting(monkeypatch)
        assemble_lin_source_closed_form(n1, co, equation)
        source = count[0]
        count[0] = 0
        rep = residual_order_systems(h, p)
        assert rep.all_pass, rep.summary()
        # the full-layout layer spent 155/200 (2D/3D) on the source and
        # 228/330 on the residual
        assert 0 < source <= 60
        assert 0 < count[0] <= 150
