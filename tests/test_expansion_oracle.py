"""Expansion oracle: the co-advanced order-2 profile against the full flow.

Data prepared from an order-2 hierarchy (n20 = 0) is advanced by the
Euler-Poisson engine; ``D = (n - 1 - eps*n1)/eps^2`` then converges to the
flow's own second-order density as eps -> 0, so ``||D - n2||`` must fall with
eps when ``n1``, ``n2`` are co-advanced by the coupled order-2 solve.
"""

import numpy as np
import pytest

import disperlim as dl
from disperlim import (LimitConfig, RealField, ScalingParams, StepperConfig,
                       assemble_initial_data, run_ep)
from disperlim.initial_data import gaussian_zero_mean
from disperlim.limit_equations import solve_coupled_order2
from disperlim.profiles import (assemble_lin_source_closed_form,
                                second_order_profiles_kp, second_order_profiles_zk)
from disperlim.spectral import l2_norm

EPSILONS = (0.2, 0.1, 0.05)
DT = 1e-2


def _gaps(dims, length, t, ion_temperature, width):
    """``||D - n2||_L2`` at time t for each epsilon."""
    d = len(dims)
    g = dl.build_grid(dims, [length] * d)
    V = float(np.sqrt(ion_temperature + 1.0))
    equation = "KP2" if d == 2 else "ZK"
    n10 = gaussian_zero_mean(g, amplitude=0.3, width=width)
    lim = LimitConfig(V=V, dt=DT, T=t, equation=equation, snapshots=1)
    coeffs = lim.coefficients()
    traj1, traj2 = solve_coupled_order2(
        n10, RealField.zeros(g), lim,
        lambda v: assemble_lin_source_closed_form(RealField(g, v), coeffs, equation))
    build = second_order_profiles_kp if d == 2 else second_order_profiles_zk
    h = build(n10, RealField.zeros(g), V)
    gaps = []
    for eps in EPSILONS:
        p = ScalingParams(epsilon=eps, ion_temperature=ion_temperature, dim=d)
        final, _ = run_ep(assemble_initial_data(h, p), t, StepperConfig(dt=DT),
                          snapshots=1)
        D = (final.n.values - 1.0 - eps * traj1.final.values) / eps ** 2
        gaps.append(l2_norm(RealField(g, D - traj2.final.values)))
    return gaps


@pytest.mark.parametrize("ion_temperature", [0.0, 1.0])
def test_order2_profile_follows_the_flow_3d(ion_temperature):
    gaps = _gaps((32, 32, 32), 20.0, 0.1, ion_temperature, width=2.4)
    assert gaps[-1] <= 0.5 * gaps[0], gaps


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: the 2D order-2 profile does not follow the flow "
    "(||D - n2|| reads 0.32 at every eps)"))
def test_order2_profile_follows_the_flow_2d():
    gaps = _gaps((64, 64), 40.0, 0.05, 1.0, width=3.0)
    assert gaps[-1] <= 0.5 * gaps[0], gaps
