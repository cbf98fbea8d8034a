"""Package acceptance gates: nine checks, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print.  Each gate states its tolerance inline; the dynamic gates share one
set of integrated trajectories so the residual gate sees every run produced
here.
"""

import time

import numpy as np
import pytest

from nonholo.core_geometry import argmin_certificate, projection_set
from nonholo.errors import NonholoError
from nonholo.jump_analysis import BoxSampler, psi_scan, theta_on_III_scan
from nonholo.models import build_model, racer_denominators, racer_frame_vectors
from nonholo.reduced_dynamics import ControlSignal, _closed_rhs, frame_coefficients
from nonholo.simulate import (
    IntegratorConfig,
    integrate,
    oscillation_sweep,
    rk4_path,
    two_timescale_coefficient,
)

from conftest import ball_free_block, check_projection_algebra, generic_free_block, sample_points


def _report(num: int, ok: bool, label: str, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance {num}] {status}: {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def dynamic_runs(racer, ball):
    """Every trajectory integrated by the dynamic gates, keyed by purpose."""
    runs = {}
    wobble = ControlSignal.sinusoid(0.0, 0.2, 2.0 * np.pi)
    runs["ball under oscillating turntable"] = integrate(
        ball.spec, ball.default_q0, np.zeros(6), wobble, (0.0, 1.0), IntegratorConfig(dt=2e-3)
    )
    runs["racer under oscillating handlebar"] = integrate(
        racer.spec, racer.default_q0, np.zeros(4), wobble, (0.0, 1.0), IntegratorConfig(dt=1e-3)
    )

    g_r = racer.spec.metric(racer.default_q0)
    w1 = racer_frame_vectors(racer.params, racer.default_q0)["w1"]
    runs["racer coasting"] = integrate(
        racer.spec,
        racer.default_q0,
        0.1 * (g_r @ w1),
        ControlSignal.constant(0.0),
        (0.0, 1.0),
        IntegratorConfig(dt=1e-3),
    )
    g_b = ball.spec.metric(ball.default_q0)
    z = ball_free_block(ball, ball.default_q0) @ np.array([0.3, -0.2, 0.4])
    runs["ball coasting"] = integrate(
        ball.spec,
        ball.default_q0,
        g_b @ z,
        ControlSignal.constant(0.0),
        (0.0, 1.0),
        IntegratorConfig(dt=1e-3),
    )

    for tau in (1e-3, 5e-4):
        ramp = ControlSignal.ramp(0.0, 0.4, 0.0, tau)
        cfg = IntegratorConfig(dt=tau / 50.0)
        runs[f"ball ramp tau={tau}"] = integrate(
            ball.spec, ball.default_q0, np.zeros(6), ramp, (0.0, 2e-3), cfg
        )
        runs[f"racer ramp tau={tau}"] = integrate(
            racer.spec, racer.default_q0, np.zeros(4), ramp, (0.0, 2e-3), cfg
        )
    return runs


def test_1_closed_form_equivalence(racer):
    """Pipeline right-hand side, in the closed form's coordinates, vs the closed-form system, random parameters too."""
    t_start = time.perf_counter()
    param_gen = np.random.default_rng(2024)
    bundles = [racer]
    for _ in range(3):
        bundles.append(
            build_model(
                "roller-racer",
                rho=float(param_gen.uniform(0.6, 1.4)),
                inertia=float(param_gen.uniform(1.0, 3.0)),
                tail_inertia=float(param_gen.uniform(0.5, 2.0)),
            )
        )
    rng = np.random.default_rng(101)
    worst = 0.0
    for bundle in bundles:
        spec = bundle.spec
        box = bundle.sample_box
        drawn = 0
        guard = 0
        while drawn < 100:
            q = rng.uniform(box[:, 0], box[:, 1])
            xi = float(rng.uniform(-1.0, 1.0))
            udot = float(rng.uniform(-1.0, 1.0))
            control = ControlSignal.linear(q[spec.N :], np.full(spec.M, udot))
            try:
                got = _closed_rhs(spec, bundle.extract_closed, q, xi, 0.0, control)
                ref = bundle.closed_field(control)(0.0, np.append(q[: spec.N], xi))
            except NonholoError:
                guard += 1
                assert guard < 5000, "too many singular draws"
                continue
            drawn += 1
            worst = max(worst, float(np.abs(got - ref).max()) / (1.0 + float(np.abs(ref).max())))
    elapsed = time.perf_counter() - t_start
    ok = worst <= 1e-5 and elapsed < 10.0
    _report(1, ok, "closed-form equivalence on 4 parameter sets x 100 points",
            f"max rel dev {worst:.2e} <= 1e-5, {elapsed:.1f}s < 10s")


def test_2_projection_algebra_bulk(racer, ball, toy_constrained):
    """Splitting algebra and ranks on 500 sampled points per built-in model."""
    t_start = time.perf_counter()
    worst_rank_dev = 0.0
    for bundle, seed in ((racer, 201), (ball, 202), (toy_constrained, 203)):
        for q in sample_points(bundle, 500, seed=seed):
            P = projection_set(bundle.spec, q)
            check_projection_algebra(bundle.spec, P, atol=1e-10)
            for A, r in (
                (P.P_I, bundle.spec.N - bundle.spec.nu),
                (P.P_II, bundle.spec.nu),
                (P.P_III, bundle.spec.M),
            ):
                worst_rank_dev = max(worst_rank_dev, abs(float(np.trace(A)) - r))
    elapsed = time.perf_counter() - t_start
    ok = worst_rank_dev <= 1e-9 and elapsed < 30.0
    _report(2, ok, "projection algebra on 3 models x 500 points",
            f"algebra <= 1e-10, rank dev {worst_rank_dev:.2e} <= 1e-9, {elapsed:.1f}s < 30s")


def test_3_jump_fitness_verdicts(racer, ball):
    """Ball fit, racer not-fit with a coefficient-matched witness, scans agree."""
    ball_psi = psi_scan(ball.spec, BoxSampler(ball.sample_box, seed=0), n_samples=500, tol=1e-8)
    ball_theta = theta_on_III_scan(ball.spec, BoxSampler(ball.sample_box, seed=1), n_samples=500, tol=1e-8)
    racer_psi = psi_scan(racer.spec, BoxSampler(racer.sample_box, seed=2), n_samples=500)
    racer_theta = theta_on_III_scan(racer.spec, BoxSampler(racer.sample_box, seed=3), n_samples=500)

    # quantify the witness against the closed-form pump coefficient, contracted
    # along the free frame direction at the witnessing point: the generic
    # frame's, scaled to w1's xi by extract_closed(q, g V_I)
    p = racer.params
    q_w = racer_psi.worst_point
    C = frame_coefficients(racer.spec, q_w)
    scale = racer.extract_closed(q_w, racer.spec.metric(q_w) @ generic_free_block(racer.spec, q_w)[:, 0])[3]
    u_w = float(q_w[3])
    _, d1 = racer_denominators(p, u_w)
    predicted = 2.0 * p.tail_inertia * p.rho**2 * np.cos(u_w) / d1**2
    witness_dev = abs(C["udot_udot"][0, 0, 0] * scale - predicted) / abs(predicted)

    ok = (
        ball_psi.verdict == "fit"
        and ball_psi.max_value <= 1e-8
        and ball_theta.verdict == "fit"
        and racer_psi.verdict == "not-fit"
        and racer_theta.verdict == "not-fit"
        and witness_dev <= 1e-5
    )
    _report(
        3,
        ok,
        "fitness verdicts with quantified witness",
        f"ball max {ball_psi.max_value:.2e} <= 1e-8, racer witness dev {witness_dev:.2e} <= 1e-5, "
        f"verdicts {ball_psi.verdict}/{ball_theta.verdict} and {racer_psi.verdict}/{racer_theta.verdict}",
    )


def test_4_oscillation_response_contrast(racer, ball, dynamic_runs):
    """Same sinusoidal forcing: the fit system stays at rest, the unfit one moves."""
    ball_traj = dynamic_runs["ball under oscillating turntable"]
    racer_traj = dynamic_runs["racer under oscillating handlebar"]
    ball_p = float(np.abs(ball_traj.p_I).max())
    xi_end = abs(racer.extract_closed(racer_traj.q[-1], racer_traj.p_I[-1])[3])
    ok = ball_p <= 1e-6 and xi_end >= 1e-3
    _report(4, ok, "dynamic jump-fitness contrast under oscillating control",
            f"ball max|p_I| {ball_p:.2e} <= 1e-6, racer |xi(1)| {xi_end:.3f} >= 1e-3")


def test_5_residuals_on_every_trajectory(dynamic_runs):
    """Constraint and reaction residuals stay within bounds on all runs."""
    worst_c = max(float(t.constraint_residual.max()) for t in dynamic_runs.values())
    worst_d = max(float(t.dalembert_residual.max()) for t in dynamic_runs.values())
    ok = worst_c <= 1e-6 and worst_d <= 1e-4
    _report(5, ok, f"residuals on all {len(dynamic_runs)} integrated trajectories",
            f"constraint {worst_c:.2e} <= 1e-6, reaction {worst_d:.2e} <= 1e-4")


def test_6_averaging_validates_dither_limit(racer):
    """Dither endpoints converge at second order to the averaged flow."""
    y0 = np.array([0.0, 1.2, 0.0, 0.0])
    sweep = oscillation_sweep(racer, y0, u_bar=0.0, K=1.0, eps_list=[0.1, 0.05, 0.025], horizon=np.pi)
    monotone = bool(np.all(np.diff(sweep.errors) < 0.0))
    ratios_ok = bool(np.all(sweep.ratios <= 0.7))

    # the averaged free velocity must grow strictly (the forward-motion pump)
    f_avg = racer.averaged_field(0.0, 1.0)
    xs = [y0]
    for k in range(64):
        xs.append(rk4_path(f_avg, xs[-1], (k * np.pi / 64, (k + 1) * np.pi / 64), 4))
    xi_path = np.array([x[3] for x in xs])
    increasing = bool(np.all(np.diff(xi_path) > 0.0))

    tt = two_timescale_coefficient(racer, y0, u_bar=0.0, K=1.0)
    ok = monotone and ratios_ok and increasing and tt.rel_err <= 2e-2
    _report(6, ok, "averaged system validated against dither sweeps",
            f"ratios {np.array2string(sweep.ratios, precision=3)} <= 0.7, "
            f"xi strictly increasing: {increasing}, two-timescale rel err {tt.rel_err:.2e} <= 2e-2")


def test_7_energy_conservation(dynamic_runs):
    """Force-free fixed-control runs conserve the kinetic energy."""
    drifts = {
        name: float(np.abs(t.H - t.H[0]).max())
        for name, t in dynamic_runs.items()
        if "coasting" in name
    }
    worst = max(drifts.values())
    ok = worst <= 1e-8
    _report(7, ok, "energy drift on coasting runs at dt=1e-3 over unit time",
            f"max |H - H0| {worst:.2e} <= 1e-8")


def test_8_lift_minimizes_energy(racer, ball):
    """Ten thousand randomized competitor certificates across both models."""
    rng = np.random.default_rng(77)
    total = 0
    passes = 0
    worst_margin = np.inf
    for bundle, seed in ((racer, 81), (ball, 83)):
        for q in sample_points(bundle, 157, seed=seed):
            v = rng.uniform(-1.0, 1.0, size=bundle.spec.M)
            ok_one, margin = argmin_certificate(bundle.spec, q, v, trials=32, rng=rng)
            total += 32
            passes += 32 if ok_one else 0
            worst_margin = min(worst_margin, margin)
    ok = passes == total and total >= 10_000
    _report(8, ok, "lifted velocity minimizes energy among admissible competitors",
            f"{passes}/{total} certificates, worst margin {worst_margin:.2e}")


def test_9_ramp_limit_contrast(racer, dynamic_runs):
    """Shrinking the ramp: the fit system's endpoint converges, the unfit one's does not."""
    b1 = dynamic_runs["ball ramp tau=0.001"]
    b2 = dynamic_runs["ball ramp tau=0.0005"]
    ball_gap = max(
        float(np.abs(b1.q[-1] - b2.q[-1]).max()),
        float(np.abs(b1.p_I[-1] - b2.p_I[-1]).max()),
    )
    r1 = dynamic_runs["racer ramp tau=0.001"]
    r2 = dynamic_runs["racer ramp tau=0.0005"]
    xi1 = racer.extract_closed(r1.q[-1], r1.p_I[-1])[3]
    xi2 = racer.extract_closed(r2.q[-1], r2.p_I[-1])[3]
    racer_gap = abs(xi1 - xi2)
    ok = ball_gap <= 1e-4 and racer_gap >= 1e-3
    _report(9, ok, "ramp-shrinking endpoint contrast",
            f"ball gap {ball_gap:.2e} <= 1e-4, racer xi gap {racer_gap:.3f} >= 1e-3")
