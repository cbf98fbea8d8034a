"""Built-in model data, and the multiplier oracle behind the closed-form system.

The Roller Racer's closed-form coefficients are not taken on trust: this file
integrates the full constrained system directly — metric times acceleration
equals constraint reactions plus the actuation force pinning the controlled
coordinate — with Lagrange multipliers solved pointwise from a KKT system,
and differentiates the resulting flow.  The closed-form right-hand side must
reproduce those measurements.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nonholo import models
from nonholo.core_geometry import _cholesky_spd, projection_set
from nonholo.errors import ChartDomain, ModelError, NonAdaptedState, SingularDenominator, SingularMetric
from nonholo.models import (
    RollerRacerParams,
    _euler_rate_matrix,
    _euler_rate_matrix_inv,
    build_model,
    model_names,
    racer_denominators,
    racer_frame_vectors,
    roller_racer_averaged_rhs,
    roller_racer_closed_rhs,
    roller_racer_spec,
)
from nonholo.reduced_dynamics import ControlSignal, coefficient_tensors
from nonholo.simulate import rk4_path

from conftest import best_pivot, counting_control, frame_vectors, sample_points


# ---------------------------------------------------------------------------
# multiplier-based oracle for the full constrained system
# ---------------------------------------------------------------------------


class MultiplierIntegrator:
    """RK4 on the full second-order system with pointwise KKT reactions.

    State ``(q, qdot)``; the acceleration solves

        [ g   -Om^T  -e_u ] [qddot]   [ 0            ]
        [ Om   0      0   ] [lam  ] = [ -dOm/dt qdot ]
        [ e_u^T 0     0   ] [mu   ]   [ uddot(t)     ]

    which enforces both the velocity constraints and the prescribed
    controlled coordinate exactly (to integration error).
    """

    def __init__(self, params, control):
        self.p = params
        self.control = control
        self.spec = roller_racer_spec(params)
        self.g = self.spec.metric(np.zeros(4))

    def accel(self, t, q, qdot):
        Om = self.spec.omega(q)
        step = 1e-6
        dOm = (self.spec.omega(q + step * qdot) - self.spec.omega(q - step * qdot)) / (2.0 * step)
        e4 = np.array([0.0, 0.0, 0.0, 1.0])
        K = np.zeros((7, 7))
        rhs = np.zeros(7)
        K[:4, :4] = self.g
        K[:4, 4:6] = -Om.T
        K[:4, 6] = -e4
        K[4:6, :4] = Om
        rhs[4:6] = -dOm @ qdot
        K[6, :4] = e4
        rhs[6] = float(self.control.accel(t)[0])
        return np.linalg.solve(K, rhs)[:4]

    def step(self, t, q, qd, dt):
        y = np.concatenate([q, qd])

        def f(tt, yy):
            return np.concatenate([yy[4:], self.accel(tt, yy[:4], yy[4:])])

        k1 = f(t, y)
        k2 = f(t + dt / 2, y + dt / 2 * k1)
        k3 = f(t + dt / 2, y + dt / 2 * k2)
        k4 = f(t + dt, y + dt * k3)
        y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        return y[:4], y[4:]

    def run(self, q0, qdot0, t1, dt):
        t, q, qd = 0.0, q0.copy(), qdot0.copy()
        for _ in range(int(round(t1 / dt))):
            q, qd = self.step(t, q, qd, dt)
            t += dt
        return q, qd

    def xi_of(self, q, qdot):
        w1 = racer_frame_vectors(self.p, q)["w1"]
        return float((self.g @ qdot) @ w1 / (w1 @ self.g @ w1))


@pytest.mark.parametrize(
    "xi0,amp,omega,tstar",
    [
        (0.0, 0.3, 2.0, 0.37),  # isolates the pure control-rate coefficient
        (0.5, 0.02, 1.0, 0.41),  # coupling-dominated
        (-0.3, 0.25, 3.0, 0.23),
    ],
)
def test_closed_xi_equation_matches_multiplier_oracle(xi0, amp, omega, tstar):
    """d(xi)/dt of the directly integrated constrained flow obeys the closed form."""
    from nonholo.reduced_dynamics import ControlSignal

    params = RollerRacerParams()
    control = ControlSignal.sinusoid(0.0, amp, omega)
    oracle = MultiplierIntegrator(params, control)
    u0, ud0 = float(control.value(0.0)[0]), float(control.rate(0.0)[0])
    q0 = np.array([0.1, 0.7, -0.2, u0])
    vecs = racer_frame_vectors(params, q0)
    qdot0 = xi0 * vecs["w1"] + ud0 * vecs["v4"]
    assert np.abs(oracle.spec.omega(q0) @ qdot0).max() < 1e-12

    dt = 2e-5
    q_m, qd_m = oracle.run(q0, qdot0, tstar - dt, dt)
    q_c, qd_c = oracle.step(tstar - dt, q_m, qd_m, dt)
    q_p, qd_p = oracle.step(tstar, q_c, qd_c, dt)
    xidot_measured = (oracle.xi_of(q_p, qd_p) - oracle.xi_of(q_m, qd_m)) / (2.0 * dt)

    y_c = np.array([q_c[0], q_c[1], q_c[2], oracle.xi_of(q_c, qd_c)])
    u_c, ud_c = float(control.value(tstar)[0]), float(control.rate(tstar)[0])
    predicted = roller_racer_closed_rhs(params, y_c, u_c, ud_c)
    assert abs(xidot_measured - predicted[3]) <= 2e-6 * max(1.0, abs(xidot_measured))
    # the velocity itself must match the frame decomposition of the q-lines
    assert np.abs(qd_c[:3] - predicted[:3]).max() < 1e-8


def test_closed_rhs_against_full_flow_endpoint():
    """Integrating the closed form reproduces the multiplier flow endpoint."""
    from nonholo.reduced_dynamics import ControlSignal
    from nonholo.simulate import rk4_path

    params = RollerRacerParams()
    control = ControlSignal.sinusoid(0.1, 0.25, 2.0)
    oracle = MultiplierIntegrator(params, control)
    u0, ud0 = float(control.value(0.0)[0]), float(control.rate(0.0)[0])
    q0 = np.array([0.0, 1.1, 0.3, u0])
    vecs = racer_frame_vectors(params, q0)
    xi0 = 0.2
    qdot0 = xi0 * vecs["w1"] + ud0 * vecs["v4"]
    qT, qdT = oracle.run(q0, qdot0, 1.0, 1e-4)

    def field(t, y):
        u = float(control.value(t)[0])
        ud = float(control.rate(t)[0])
        return roller_racer_closed_rhs(params, y, u, ud)

    yT = rk4_path(field, np.array([q0[0], q0[1], q0[2], xi0]), (0.0, 1.0), 10_000)
    assert np.abs(yT[:3] - qT[:3]).max() < 1e-7
    assert abs(yT[3] - oracle.xi_of(qT, qdT)) < 1e-7


# ---------------------------------------------------------------------------
# Roller Racer spec data
# ---------------------------------------------------------------------------


class TestRollerRacer:
    def test_metric_inverse_is_exact(self, racer):
        """The splitting's inverse metric is the closed-form inverse of the constant metric."""
        I, J = racer.params.inertia, racer.params.tail_inertia
        closed = np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 1.0 / I, 0.0, -1.0 / I],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, -1.0 / I, 0.0, (I + J) / (I * J)],
            ]
        )
        P = projection_set(racer.spec, np.zeros(4))
        assert np.abs(P.g @ P.ginv - np.eye(4)).max() < 1e-14
        assert np.abs(P.ginv - closed).max() < 1e-14

    def test_block_dimensions(self, racer):
        P = projection_set(racer.spec, np.array([0.0, 1.0, 0.0, 0.4]))
        dims = tuple(int(round(np.trace(A))) for A in (P.P_I, P.P_II, P.P_III))
        assert dims == (1, 2, 1)

    def test_denominators(self, racer):
        p = racer.params
        d0, d1 = racer_denominators(p, 0.0)
        assert d0 == pytest.approx(p.rho**2)
        assert d1 == pytest.approx(2.0 * p.rho**2)

    @given(u=st.floats(-1.4, 1.4))
    def test_denominator_identity(self, u):
        p = RollerRacerParams(rho=0.8, inertia=1.7, tail_inertia=0.6)
        d0, d1 = racer_denominators(p, u)
        assert d1 == pytest.approx(2.0 * d0, rel=1e-12)

    def test_closed_rhs_coasting_point(self):
        """xi = 1, udot = 0, u = 0, q2 = pi/2: pure forward motion at speed 2 rho."""
        p = RollerRacerParams()
        out = roller_racer_closed_rhs(p, np.array([0.0, np.pi / 2, 0.0, 1.0]), 0.0, 0.0)
        assert np.allclose(out, [2.0 * p.rho, 0.0, 0.0, 0.0], atol=1e-14)

    def test_closed_rhs_pump_at_straight_hitch(self):
        """xi = 0, udot = 1, u = 0: only the quadratic pump term survives.

        Its value J/(2 rho^2) is the one validated by the multiplier oracle
        above (see test_closed_xi_equation_matches_multiplier_oracle).
        """
        p = RollerRacerParams()
        out = roller_racer_closed_rhs(p, np.array([0.0, 0.7, 0.0, 0.0]), 0.0, 1.0)
        assert np.allclose(out[:3], 0.0, atol=1e-14)
        assert out[3] == pytest.approx(p.tail_inertia / (2.0 * p.rho**2))

    @given(lam=st.floats(-2.0, 2.0))
    def test_closed_rhs_scaling(self, lam):
        """Scaling (xi, udot) by lam scales qdot by lam and xidot by lam^2."""
        p = RollerRacerParams()
        y = np.array([0.2, 1.1, -0.4, 0.3])
        u, ud = 0.4, 0.7
        base = roller_racer_closed_rhs(p, y, u, ud)
        y_s = y.copy()
        y_s[3] *= lam
        scaled = roller_racer_closed_rhs(p, y_s, u, lam * ud)
        assert np.allclose(scaled[:3], lam * base[:3], atol=1e-12)
        assert scaled[3] == pytest.approx(lam**2 * base[3], abs=1e-12)

    def test_closed_rhs_singularity(self):
        p = RollerRacerParams(rho=1.0, inertia=1e-13, tail_inertia=1e-13)
        with pytest.raises(SingularDenominator):
            # Delta_1 -> 0 when I, J -> 0 and u = pi/2
            roller_racer_closed_rhs(p, np.zeros(4), np.pi / 2, 1.0)

    def test_averaged_rhs_at_zero_mean(self):
        """Straight hitch on average: q2 frozen, xi pumped at J rho^2 K^2 / Delta_1^2."""
        p = RollerRacerParams()
        y = np.array([0.0, 1.2, 0.0, 0.5])
        out = roller_racer_averaged_rhs(p, y, 0.0, 1.0)
        assert out[1] == 0.0
        _, d1 = racer_denominators(p, 0.0)
        assert out[3] == pytest.approx(p.tail_inertia * p.rho**2 / d1**2)

    def test_averaged_rhs_quarter_turn_mean(self):
        out = roller_racer_averaged_rhs(RollerRacerParams(), np.zeros(4), np.pi / 2, 1.0)
        assert out[3] == pytest.approx(0.0, abs=1e-12)

    def test_averaged_rhs_zero_gain(self):
        out = roller_racer_averaged_rhs(RollerRacerParams(), np.zeros(4), 0.3, 0.0)
        assert np.allclose(out, 0.0)

    def test_both_forms_refuse_delta_1_at_one_threshold(self):
        """With ``rho = 1e-6`` at ``u = 0``, ``Delta_1 = 2e-12`` is under ``1e-12 (1 + I + J + rho^2)``: both forms refuse it.

        The averaged form tested an absolute 1e-12 and returned a pump of 2.5e11 there.
        """
        p = RollerRacerParams(rho=1e-6)
        assert racer_denominators(p, 0.0)[1] == pytest.approx(2e-12)
        for rhs in (roller_racer_closed_rhs, roller_racer_averaged_rhs):
            with pytest.raises(SingularDenominator, match="Delta_1 = 2.000e-12 at u = 0.0"):
                rhs(p, np.zeros(4), 0.0, 1.0)
        with pytest.raises(SingularDenominator):
            build_model("roller-racer", rho=1e-6).averaged_field(0.0, 1.0)

    @pytest.mark.parametrize("q", [[0.2, 0.0, -0.1, 0.4], [0.2, 1.1, -0.1, np.pi / 2]])
    def test_closed_state_is_defined_off_the_published_frames_chart(self, racer, q):
        """``extract_closed`` and ``embed_closed`` need ``w1`` alone, so they work where ``v2``/``v3`` blow up.

        At ``sin q2 = 0`` or ``cos u = 0`` the published frame raises
        ``ChartDomain``; the closed state is read there and round-trips.
        """
        q = np.array(q)
        with pytest.raises(ChartDomain):
            racer_frame_vectors(racer.params, q)
        q_back, p_I = racer.embed_closed(np.array([*q[:3], 0.7]), q[3])
        assert np.array_equal(q_back, q)
        y = racer.extract_closed(q, p_I)
        assert np.array_equal(y[:3], q[:3]) and y[3] == pytest.approx(0.7, rel=1e-15)


class TestRacerFields:
    """``closed_field`` looks its control half up by stage time, and ``averaged_field`` holds one.

    Each must give the values of the pointwise functions bit for bit.
    """

    @staticmethod
    def fresh(racer, control, t, y):
        return roller_racer_closed_rhs(racer.params, y, float(control.value(t)[0]), float(control.rate(t)[0]))

    def test_closed_field_is_not_stale(self, racer):
        """Calls at ``t1``, ``t2`` and ``t1`` again, each at its own state, equal fresh evaluations bitwise."""
        control = ControlSignal.sinusoid(0.1, 0.3, 3.0)
        f = racer.closed_field(control)
        rng = np.random.default_rng(3)
        for t, y in [(0.2, rng.normal(size=4)), (0.7, rng.normal(size=4)), (0.2, rng.normal(size=4))]:
            assert np.array(f(t, y)).tobytes() == self.fresh(racer, control, t, y).tobytes()

    def test_closed_field_reuses_the_control_at_a_repeated_time(self, racer):
        control, calls = counting_control(ControlSignal.sinusoid(0.1, 0.3, 3.0))
        f = racer.closed_field(control)
        for t in (0.2, 0.2, 0.3, 0.3, 0.3, 0.2):
            f(t, np.array([0.0, 1.2, 0.0, 0.4]))
        assert calls == [0.2, 0.3, 0.2]

    def test_closed_field_does_not_cache_an_error(self, racer):
        """At a singular ``u`` a second call at the same time raises again."""
        p = RollerRacerParams(rho=1.0, inertia=1e-13, tail_inertia=1e-13)
        f = models._racer_closed_field(p)(ControlSignal.linear(np.pi / 2, 1.0))
        for _ in range(2):
            with pytest.raises(SingularDenominator):
                f(0.0, np.zeros(4))

    @pytest.mark.parametrize("what", ["value", "rate"])
    @pytest.mark.parametrize("t_complex", [0.0, 0.05])
    def test_closed_field_refuses_a_complex_control(self, racer, what, t_complex, caller_ignores_complex_warning):
        """A complex ``value`` or ``rate``, from the first stage or a later one, is refused by name, as ``integrate``
        refuses it; the field would otherwise go on with the real part.

        The control is complex from ``t_complex`` on, on a single time or on any column of times that reaches it.
        """
        base = ControlSignal.sinusoid(0.1, 0.3, 3.0)
        fn = getattr(base, what)
        control = dataclasses.replace(base, **{what: lambda t: fn(t) + (0.5j if np.any(t >= t_complex) else 0.0)})
        with pytest.raises(NonAdaptedState, match=f"^control {what} is complex at t = "):
            rk4_path(racer.closed_field(control), np.array([0.0, 1.2, 0.0, 0.4]), (0.0, 0.1), 10)

    def test_closed_halves_round_as_the_scalar_formula(self):
        """On 5000 random ``(u, u')`` the vectorized halves are the scalar formula's bit for bit, squares included.

        The reference is the formula as written term by term in Python floats, its squares by Python's float power,
        its sines and cosines NumPy's.  NumPy's ``x * x`` square differs from that power in about one entry in a
        thousand, so a vectorized square would show here.
        """
        p = RollerRacerParams(rho=0.8, inertia=1.7, tail_inertia=0.6)
        rho, I, J = p.rho, p.inertia, p.tail_inertia
        rng = np.random.default_rng(11)
        u, udot = rng.uniform(-1.5, 1.5, 5000), rng.normal(size=5000)
        ref = []
        for x, xdot in zip(u.tolist(), udot.tolist()):
            cu, su, s2u, c2u = (float(np.cos(x)), float(np.sin(x)), float(np.sin(2.0 * x)), float(np.cos(2.0 * x)))
            d0 = rho**2 * cu**2 + (I + J) * su**2
            d1 = I + J + rho**2 - (I + J - rho**2) * c2u
            ref.append([2.0 * rho * cu, J * rho, s2u, 2.0 * d0, xdot, 2.0 * su, J * su**2 / d0 * xdot,
                        -(I + J - rho**2) * s2u / d1, 2.0 * J * rho**2 * cu / d1**2 * xdot**2])
        assert models._racer_closed_controls(p, u, udot) == ref

    def test_closed_field_refuses_a_control_that_ignores_a_column_of_times(self, racer):
        """A hand-built control that answers a column of times with one ``(M,)`` row is refused by its shape."""
        control = ControlSignal(lambda t: np.array([0.3]), lambda t: np.zeros(1), lambda t: np.zeros(1))
        with pytest.raises(ValueError, match=r"^control value maps a column of 3 times to shape \(1,\), not \(3, M\)$"):
            rk4_path(racer.closed_field(control), np.array([0.0, 1.2, 0.0, 0.4]), (0.0, 0.1), 1)

    def test_averaged_field_equals_averaged_rhs(self, racer):
        rng = np.random.default_rng(5)
        for _ in range(50):
            u_bar, K = rng.uniform(-1.4, 1.4), rng.normal()
            f = racer.averaged_field(u_bar, K)
            for y in rng.normal(size=(3, 4)):
                ref = roller_racer_averaged_rhs(racer.params, y, u_bar, K)
                assert np.array(f(rng.normal(), y)).tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# rolling ball on a controlled turntable
# ---------------------------------------------------------------------------


class TestRollingBall:
    def test_constraint_rows_encode_rolling(self, ball):
        """The forms say: contact-point velocity matches the turntable's."""
        p = ball.params
        r = p.radius
        gen = np.random.default_rng(2)
        for q in sample_points(ball, 10, seed=21):
            qdot = gen.standard_normal(6)
            phi, theta, psi = q[0], q[1], q[2]
            E = np.array(
                [
                    [0.0, math.cos(phi), math.sin(theta) * math.sin(phi)],
                    [0.0, math.sin(phi), -math.sin(theta) * math.cos(phi)],
                    [1.0, 0.0, math.cos(theta)],
                ]
            )
            w = E @ qdot[:3]
            x, y, xdot, ydot, udot = q[3], q[4], qdot[3], qdot[4], qdot[5]
            expected = np.array([xdot + r * w[1] + udot * y, ydot - r * w[0] - udot * x])
            assert np.abs(ball.spec.omega(q) @ qdot - expected).max() < 1e-12

    def test_block_dimensions(self, ball):
        q = sample_points(ball, 1, seed=23)[0]
        P = projection_set(ball.spec, q)
        dims = tuple(int(round(np.trace(A))) for A in (P.P_I, P.P_II, P.P_III))
        assert dims == (3, 2, 1)

    def test_free_block_matches_published_span(self, ball):
        """Block I is spanned by the three lifted combinations of the model basis."""
        p = ball.params
        kappa = math.sqrt(p.gyration2)
        r = p.radius
        for q in sample_points(ball, 5, seed=25):
            B = ball.constancy_basis(q)
            V = [B[:, i] for i in range(6)]
            span = np.column_stack(
                [V[0] + (r / kappa) * V[4], V[1] - (r / kappa) * V[3], V[2]]
            )
            P = projection_set(ball.spec, q)
            assert np.abs(P.P_I @ span - span).max() < 1e-9

    @pytest.mark.parametrize("options", [{}, {"radius": 0.7, "gyration2": 0.25}])
    def test_closed_form_metric_matches_rate_matrix(self, options):
        """``metric`` and the splitting's inverse agree with ``kappa^2 E^T E`` and its inverse from ``E^-1``."""
        bundle = build_model("rolling-ball", **options)
        k2 = bundle.params.gyration2
        for q in sample_points(bundle, 200, seed=29):
            E = _euler_rate_matrix(q)
            Einv = _euler_rate_matrix_inv(q)
            g = np.eye(6)
            g[:3, :3] = k2 * E.T @ E
            ginv = np.eye(6)
            ginv[:3, :3] = Einv @ Einv.T / k2
            assert np.abs(bundle.spec.metric(q) - g).max() <= 1e-15
            assert np.abs(projection_set(bundle.spec, q).ginv - ginv).max() <= 2e-15 * np.abs(ginv).max()

    @pytest.mark.parametrize("gyration2", [0.02, 0.4, 1.0, 4.0])
    def test_chart_guard_admits_only_cholesky_safe_points(self, gyration2):
        """Just inside the Euler chart's edge the metric passes ``_cholesky_spd``; just outside it raises ``ChartDomain``."""
        spec = build_model("rolling-ball", gyration2=gyration2).spec
        q = np.array([0.3, 0.0, -0.2, 0.1, -0.15, 0.0])
        for side in (1.0, -1.0):
            q[1] = math.asin(side * models._EULER_CHART_EDGE * (1.0 + 1e-9))
            _cholesky_spd(spec.metric(q[None]))
            q[1] = math.asin(side * models._EULER_CHART_EDGE * (1.0 - 1e-9))
            with pytest.raises(ChartDomain):
                spec.metric(q)
            with pytest.raises(ChartDomain):
                _euler_rate_matrix_inv(q)

    def test_closed_form_metric_is_complex_safe(self, ball):
        """The metric follows a complex input, so its complex-step derivative, and the inverse's, are exact."""
        q = sample_points(ball, 1, seed=31)[0]
        z = q + 1j * 1e-30 * np.eye(6)[1]
        k2 = ball.params.gyration2
        s, c = math.sin(q[1]), math.cos(q[1])
        dg = ball.spec.metric(z).imag / 1e-30
        assert dg[0, 2] == dg[2, 0] == pytest.approx(-k2 * s, rel=1e-15)
        assert np.count_nonzero(dg) == 2
        dginv = coefficient_tensors(ball.spec, q).dginv[1]
        # d/dtheta of -cos/sin^2 and of 1/sin^2, over kappa^2
        assert dginv[0, 2] == pytest.approx((1.0 + c * c) / (k2 * s**3), rel=1e-13)
        assert dginv[0, 0] == pytest.approx(-2.0 * c / (k2 * s**3), rel=1e-13)

    def test_inverse_metric_has_no_control_dependence(self, ball):
        q = sample_points(ball, 1, seed=27)[0]
        for delta in (0.3, -0.9):
            q2 = q.copy()
            q2[5] += delta
            d = np.abs(projection_set(ball.spec, q).ginv - projection_set(ball.spec, q2).ginv).max()
            assert d < 1e-12

    @pytest.mark.parametrize("sin_q2", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
    @pytest.mark.parametrize("side", ["near 0", "near pi"])
    def test_computed_inverse_holds_up_at_the_chart_edge(self, ball, sin_q2, side):
        """Toward ``sin q2 = 0`` the computed inverse's residual stays within 10x of the closed form's.

        The closed form is the Z-X-Z inverse ``1/(k2 s^2)`` on the two outer
        angles, ``-c/(k2 s^2)`` between them and ``1/k2`` on the middle one.
        The splitting is the tensors' one.
        """
        k2 = ball.params.gyration2
        q = ball.default_q0.copy()
        q[1] = math.asin(sin_q2) if side == "near 0" else math.pi - math.asin(sin_q2)
        s, c = math.sin(q[1]), math.cos(q[1])
        closed = np.eye(6)
        closed[0, 0] = closed[2, 2] = 1.0 / (k2 * s * s)
        closed[0, 2] = closed[2, 0] = -c / (k2 * s * s)
        closed[1, 1] = 1.0 / k2
        P = coefficient_tensors(ball.spec, q).projections
        assert np.abs(P.g @ P.ginv - np.eye(6)).max() <= 10.0 * np.abs(P.g @ closed - np.eye(6)).max()

    def test_splitting_refuses_the_metric_past_the_chart_edge(self, ball):
        """At ``sin q2 = 1e-6`` the metric's pivot ratio fails; the chart guard refuses the point first, before any inverse is formed."""
        q = ball.default_q0.copy()
        q[1] = math.asin(1e-6)
        with pytest.raises(ChartDomain):
            projection_set(ball.spec, q)
        g = np.eye(6)
        g[:3, :3] = ball.params.gyration2 * np.array([[1.0, 0.0, math.cos(q[1])], [0.0, 1.0, 0.0], [math.cos(q[1]), 0.0, 1.0]])
        with pytest.raises(SingularMetric, match="pivot ratio"):
            _cholesky_spd(g[None])


# ---------------------------------------------------------------------------
# frame fields
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["roller-racer", "rolling-ball"])
def test_frame_field_is_complex_safe(name):
    """At ``q + i H v`` the real part of the generic frame is the frame at ``q`` and ``Im / H`` its derivative along ``v``.

    The frame's pivots are the ones best at the model's ``default_q0``.
    """
    bundle = build_model(name)
    pivot = best_pivot(bundle.spec, bundle.spec.omega(bundle.default_q0))

    def frame(x):
        return frame_vectors(bundle.spec, bundle.spec.omega(x), pivot)

    H = 1e-30
    gen = np.random.default_rng(37)
    for q in sample_points(bundle, 10, seed=39):
        v = gen.standard_normal(q.shape[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.ComplexWarning)
            got = frame(q + 1j * H * v)
        ref = frame(q)
        # central differences along v at steps h and h / 2, one Richardson extrapolation
        h = 1e-3 * max(1.0, float(np.abs(q).max())) / float(np.linalg.norm(v))

        def central(step):
            return (frame(q + step * v) - frame(q - step * v)) / (2.0 * step)

        assert np.abs(got.real - ref).max() <= 1e-15 * np.abs(ref).max()
        deriv = (4.0 * central(0.5 * h) - central(h)) / 3.0
        assert np.abs(got.imag / H - deriv).max() <= 1e-8 * (1.0 + np.abs(deriv).max())


CALLBACK_MODELS = [
    ("roller-racer", {}),
    ("rolling-ball", {}),
    ("euclidean-toy", {}),
    ("euclidean-toy", {"constrained": True}),
    ("roller-racer", {"metric_perturb": 0.05}),
    ("rolling-ball", {"metric_perturb": 0.05}),
]


@pytest.mark.parametrize("name, options", CALLBACK_MODELS)
def test_callbacks_are_complex_safe(name, options):
    """At ``q + i H v`` the real parts are the callbacks at ``q`` and ``Im / H`` their derivatives along ``v``."""
    bundle = build_model(name, **options)
    spec = bundle.spec
    H = 1e-30
    gen = np.random.default_rng(41)
    for q in sample_points(bundle, 5, seed=43):
        v = gen.standard_normal(q.shape[0])
        # central differences along v at steps h and h / 2, one Richardson extrapolation
        h = 1e-3 * max(1.0, float(np.abs(q).max())) / float(np.linalg.norm(v))
        for callback in (spec.metric, spec.omega):
            with warnings.catch_warnings():
                warnings.simplefilter("error", np.exceptions.ComplexWarning)
                got = np.asarray(callback(q + 1j * H * v))
            ref = np.asarray(callback(q))

            def central(step):
                return (np.asarray(callback(q + step * v)) - np.asarray(callback(q - step * v))) / (2.0 * step)

            assert got.shape == ref.shape
            assert np.abs(got.real - ref).max(initial=0.0) <= 1e-15 * np.abs(ref).max(initial=0.0)
            deriv = (4.0 * central(0.5 * h) - central(h)) / 3.0
            assert np.abs(got.imag / H - deriv).max(initial=0.0) <= 1e-8 * (1.0 + np.abs(deriv).max(initial=0.0))


@pytest.mark.parametrize("name, options", CALLBACK_MODELS)
def test_callbacks_are_batch_invariant(name, options):
    """``cb(Q)[i]`` is ``cb(Q[i])`` bitwise, on real stacks ``(S, n)`` and complex stacks ``(S, n, n)``."""
    bundle = build_model(name, **options)
    spec, n = bundle.spec, bundle.spec.dim
    Q = sample_points(bundle, 7, seed=45)
    Z = Q[:, None, :] + 1j * 1e-30 * np.eye(n)
    callbacks = {"metric": (n, n), "omega": (spec.nu, n)}
    for label, shape in callbacks.items():
        cb = getattr(spec, label)
        for stack in (Q, Z):
            got = cb(stack)
            assert got.shape == stack.shape[:-1] + shape, label
            for i in np.ndindex(stack.shape[:-1]):
                one = cb(stack[i])
                assert one.dtype == got.dtype and one.tobytes() == got[i].tobytes(), (label, i)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_names(self):
        assert model_names() == ("euclidean-toy", "roller-racer", "rolling-ball")

    def test_unknown_model(self):
        with pytest.raises(ModelError):
            build_model("hovercraft")

    def test_bad_options(self):
        with pytest.raises(ModelError):
            build_model("roller-racer", wheelbase=2.0)

    def test_parameter_overrides(self):
        bundle = build_model("roller-racer", rho=0.7, inertia=1.5)
        assert bundle.params.rho == 0.7
        assert bundle.params.inertia == 1.5

    def test_metric_perturbation_changes_metric(self):
        clean = build_model("roller-racer")
        bent = build_model("roller-racer", metric_perturb=0.05)
        q = np.array([0.2, 1.0, 0.0, 0.3])
        assert np.abs(clean.spec.metric(q) - bent.spec.metric(q)).max() > 1e-3
