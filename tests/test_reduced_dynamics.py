"""Reduced equations of motion: control signals, quadratic forms, frame form.

The load-bearing check here is the pointwise comparison of ``frame_rhs``
against the Roller Racer's closed-form system, whose coefficients are in turn
pinned to a direct multiplier-based integration in ``test_models.py``.
"""

import dataclasses
import sys
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nonholo import reduced_dynamics
from nonholo.core_geometry import SystemSpec, projection_set
from nonholo.errors import ChartDomain, FrameNotSmooth, ModelError, NonAdaptedState, NotInDeltaCapGamma, SingularMetric
from nonholo.jump_analysis import BoxSampler, psi_scan
from nonholo.models import build_model, racer_denominators, racer_frame_vectors
from nonholo.reduced_dynamics import (
    ControlSignal,
    centrifugal_psi,
    check_frame_continuity,
    coefficient_tensors,
    frame_coefficients,
    frame_rhs,
    reaction_force,
    reduced_rhs,
    theta_I_apply,
)

from conftest import near_singular_system, random_system, sample_points, stacked


def racer_state(bundle, q, xi):
    """Ambient free momentum for closed state ``(q, xi)``."""
    g = bundle.spec.metric(q)
    w1 = racer_frame_vectors(bundle.params, q)["w1"]
    return xi * (g @ w1)


# ---------------------------------------------------------------------------
# control signals
# ---------------------------------------------------------------------------


class TestControlSignal:
    SIGNALS = {
        "constant": ControlSignal.constant([0.4, -0.2]),
        "polynomial": ControlSignal.polynomial([[0.1, -0.3, 0.5], [0.0, 1.0, 0.0]], t0=0.2),
        "linear": ControlSignal.linear([0.1, 0.2], [0.5, -1.0], t0=-0.3),
        "sinusoid": ControlSignal.sinusoid(0.2, 0.4, 3.0, phase=0.7),
        "dither": ControlSignal.dither(0.1, 2.0, 0.05),
        "ramp": ControlSignal.ramp(0.0, 1.0, 0.1, 0.8),
    }

    @pytest.mark.parametrize("name", sorted(SIGNALS))
    @pytest.mark.parametrize("t", [0.15, 0.33, 0.71])
    def test_derivatives_consistent(self, name, t):
        """rate and accel are the time derivatives of value and rate."""
        sig = self.SIGNALS[name]
        h = 1e-6
        fd_rate = (sig.value(t + h) - sig.value(t - h)) / (2.0 * h)
        fd_accel = (sig.rate(t + h) - sig.rate(t - h)) / (2.0 * h)
        assert np.abs(sig.rate(t) - fd_rate).max() < 5e-8
        assert np.abs(sig.accel(t) - fd_accel).max() < 5e-8

    def test_constant_has_zero_rates(self):
        sig = ControlSignal.constant(0.7)
        for t in (0.0, 1.3, -2.0):
            assert sig.value(t) == pytest.approx([0.7])
            assert np.all(sig.rate(t) == 0.0)
            assert np.all(sig.accel(t) == 0.0)

    def test_linear_values(self):
        sig = ControlSignal.linear(1.0, -2.0, t0=0.5)
        assert sig.value(0.5) == pytest.approx([1.0])
        assert sig.value(1.0) == pytest.approx([0.0])
        assert sig.rate(3.0) == pytest.approx([-2.0])

    def test_dither_amplitude_scales_with_eps(self):
        for eps in (0.1, 0.01):
            sig = ControlSignal.dither(0.3, 1.5, eps)
            ts = np.linspace(0.0, 2.0 * np.pi * eps, 200)
            vals = np.array([float(sig.value(t)[0]) for t in ts])
            rates = np.array([float(sig.rate(t)[0]) for t in ts])
            assert np.abs(vals - 0.3).max() == pytest.approx(1.5 * eps, rel=1e-3)
            # the rate amplitude is eps-independent
            assert np.abs(rates).max() == pytest.approx(1.5, rel=1e-3)

    def test_ramp_endpoints_and_flat_ends(self):
        sig = ControlSignal.ramp(-0.2, 0.6, 1.0, 0.5)
        assert sig.value(0.0) == pytest.approx([-0.2])
        assert sig.value(1.0) == pytest.approx([-0.2])
        assert sig.value(1.5) == pytest.approx([0.6])
        assert sig.value(9.0) == pytest.approx([0.6])
        for t in (0.9, 1.0, 1.5, 2.0):
            assert np.all(sig.rate(t) == 0.0)
            assert np.all(sig.accel(t) == 0.0)
        mid = np.array([float(sig.value(t)[0]) for t in np.linspace(1.0, 1.5, 50)])
        assert np.all(np.diff(mid) >= 0.0)

    def test_ramp_rejects_bad_duration(self):
        with pytest.raises(ValueError):
            ControlSignal.ramp(0.0, 1.0, 0.0, 0.0)

    def test_polynomial_channel_shapes(self):
        sig = ControlSignal.polynomial([[1.0, 2.0], [0.0, -1.0], [3.0, 0.0]])
        assert sig.value(0.5).shape == (3,)
        assert sig.value(0.5) == pytest.approx([2.0, -0.5, 3.0])


# ---------------------------------------------------------------------------
# quadratic momentum form
# ---------------------------------------------------------------------------


class TestQuadraticForm:
    def test_bilinearity(self, ball):
        q = sample_points(ball, 1, seed=31)[0]
        T = coefficient_tensors(ball.spec, q)
        gen = np.random.default_rng(5)
        p1, p2, pt = gen.standard_normal((3, 6))
        for a, b in ((0.7, -1.3), (2.0, 0.0)):
            left = theta_I_apply(ball.spec, q, a * p1 + b * p2, pt, tensors=T)
            right = a * theta_I_apply(ball.spec, q, p1, pt, tensors=T) + b * theta_I_apply(
                ball.spec, q, p2, pt, tensors=T
            )
            assert np.abs(left - right).max() < 1e-10
            left2 = theta_I_apply(ball.spec, q, pt, a * p1 + b * p2, tensors=T)
            right2 = a * theta_I_apply(ball.spec, q, pt, p1, tensors=T) + b * theta_I_apply(
                ball.spec, q, pt, p2, tensors=T
            )
            assert np.abs(left2 - right2).max() < 1e-10

    def test_psi_is_diagonal_of_theta_on_drive_lift(self, racer):
        for q in sample_points(racer, 5, seed=33):
            P = projection_set(racer.spec, q)
            T = coefficient_tensors(racer.spec, q, projections=P)
            udot = np.array([0.8])
            direct = centrifugal_psi(racer.spec, q, udot, tensors=T)
            via_theta = theta_I_apply(racer.spec, q, P.k @ udot, P.k @ udot, tensors=T)
            assert np.abs(direct - via_theta).max() < 1e-14

    def test_psi_vanishes_on_ball(self, ball):
        worst = 0.0
        for q in sample_points(ball, 10, seed=35):
            psi = centrifugal_psi(ball.spec, q, np.array([1.0]))
            worst = max(worst, float(np.abs(psi).max()))
        assert worst < 1e-8

    def test_psi_floor_on_ball_is_rounding(self, ball):
        """Exact callback derivatives leave the fit model's ``Psi`` at rounding level."""
        worst = 0.0
        for q in sample_points(ball, 40, seed=39):
            psi = centrifugal_psi(ball.spec, q, np.array([1.0]))
            worst = max(worst, float(np.abs(psi).max()))
        assert worst <= 1e-13

    def test_psi_vanishes_identically_on_flat_toy(self, toy):
        for q in sample_points(toy, 5, seed=37):
            psi = centrifugal_psi(toy.spec, q, np.ones(toy.spec.M))
            assert np.abs(psi).max() == 0.0

    def test_psi_nonzero_on_racer(self, racer):
        q = np.array([0.0, 1.2, 0.0, 0.0])
        psi = centrifugal_psi(racer.spec, q, np.array([1.0]))
        assert np.abs(psi).max() > 1e-3

    @given(lam=st.floats(-3.0, 3.0))
    def test_psi_scales_quadratically(self, racer, lam):
        q = np.array([0.2, 1.0, -0.3, 0.4])
        T = coefficient_tensors(racer.spec, q)
        base = centrifugal_psi(racer.spec, q, np.array([1.0]), tensors=T)
        scaled = centrifugal_psi(racer.spec, q, np.array([lam]), tensors=T)
        assert np.abs(scaled - lam**2 * base).max() < 1e-9


class TestCoefficientTensors:
    def test_coprojection_derivative_identity(self, racer, ball):
        """d(P*^2) = d(P*) forces P* dP* + dP* P* = dP* at every point."""
        for bundle, seed in ((racer, 41), (ball, 43)):
            q = sample_points(bundle, 1, seed=seed)[0]
            T = coefficient_tensors(bundle.spec, q)
            Ps = T.projections.Pstar_I
            for j in range(bundle.spec.dim):
                D = T.dPstar_I[j]
                assert np.abs(Ps @ D + D @ Ps - D).max() < 1e-6

    def test_constant_metric_has_zero_dginv(self, racer):
        q = sample_points(racer, 1, seed=45)[0]
        T = coefficient_tensors(racer.spec, q)
        assert np.abs(T.dginv).max() == 0.0


def richardson_stacks(spec, q, step=1e-3):
    """``dPstar_I``, ``dginv`` and ``dk`` by differencing whole splittings.

    Central differences at steps ``h`` and ``h / 2`` (``h = step *
    max(1, |q_j|)``) combined by one Richardson extrapolation, so the
    truncation error is fourth order: an independent reference for the
    closed-form stacks.
    """
    fields = {"dPstar_I": "Pstar_I", "dginv": "ginv", "dk": "k"}

    def central(j, h):
        qp, qm = q.copy(), q.copy()
        qp[j] += h
        qm[j] -= h
        Pp, Pm = projection_set(spec, qp, check=False), projection_set(spec, qm, check=False)
        return [(getattr(Pp, f) - getattr(Pm, f)) / (2.0 * h) for f in fields.values()]

    stacks = {name: [] for name in fields}
    for j in range(spec.dim):
        h = step * max(1.0, abs(float(q[j])))
        for name, coarse, fine in zip(fields, central(j, h), central(j, 0.5 * h)):
            stacks[name].append((4.0 * fine - coarse) / 3.0)
    return {name: np.array(rows) for name, rows in stacks.items()}


class TestClosedFormDerivatives:
    """The closed-form stacks against differences of whole splittings."""

    @staticmethod
    def assert_matches_reference(spec, q):
        T = coefficient_tensors(spec, q)
        for name, ref in richardson_stacks(spec, q).items():
            got = getattr(T, name)
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-8 * (1.0 + np.abs(ref).max()), name

    @given(
        model=st.sampled_from(["racer", "ball", "toy", "toy_constrained"]),
        seed=st.integers(0, 10**6),
    )
    def test_matches_richardson_on_models(self, model, seed, racer, ball, toy, toy_constrained):
        bundle = {"racer": racer, "ball": ball, "toy": toy, "toy_constrained": toy_constrained}[model]
        self.assert_matches_reference(bundle.spec, sample_points(bundle, 1, seed=seed)[0])

    @given(seed=st.integers(0, 10**6), N=st.integers(2, 4), M=st.integers(1, 2))
    def test_matches_richardson_on_random_systems(self, seed, N, M):
        spec = random_system(seed, N=N, M=M, nu=1 if N == 2 else 2, curved=True)
        q = np.random.default_rng(seed + 3).uniform(-1.0, 1.0, size=spec.dim)
        self.assert_matches_reference(spec, q)

    def test_constant_data_gives_exact_zeros(self, toy_constrained):
        q = np.array([0.3, -1.2, 0.5, 0.9])
        T = coefficient_tensors(toy_constrained.spec, q)
        for name in ("dPstar_I", "dginv", "dk"):
            assert np.all(getattr(T, name) == 0.0), name

    @pytest.mark.parametrize("nu", [1, 2])
    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_near_singular_constant_data_gives_exact_zeros(self, eps, nu):
        spec, _, _ = near_singular_system(eps, nu)
        T = coefficient_tensors(spec, np.zeros(spec.dim))
        for name in ("dPstar_I", "dginv", "dk"):
            assert np.all(getattr(T, name) == 0.0), name

    @pytest.mark.parametrize("model", ["racer", "ball"])
    def test_one_splitting_per_tensor(self, model, racer, ball, monkeypatch):
        """One splitting per tensor, and no real callback call beyond it."""
        bundle = {"racer": racer, "ball": ball}[model]
        calls = Counter()
        spec = counting_spec(bundle.spec, calls)
        monkeypatch.setattr(reduced_dynamics, "projection_set", counted(calls, "projection_set", projection_set))
        q = sample_points(bundle, 1, seed=71)[0]
        n = spec.dim

        coefficient_tensors(spec, q)
        assert calls["projection_set"] == 1

        P = projection_set(spec, q, check=False)
        calls.clear()
        coefficient_tensors(spec, q, projections=P)
        assert dict(calls) == {("metric", "complex", (1, n, n)): 1, ("omega", "complex", (1, n, n)): 1}

    @pytest.mark.parametrize("S", [1, 25])
    @pytest.mark.parametrize("model", ["racer", "ball"])
    def test_one_stacked_call_per_callback(self, model, S, racer, ball):
        """Per stack: one real call of each callback, one complex call of ``metric`` and of ``omega``."""
        bundle = {"racer": racer, "ball": ball}[model]
        calls = Counter()
        spec = counting_spec(bundle.spec, calls)
        Q = sample_points(bundle, S, seed=72)
        n = spec.dim
        keep, T = reduced_dynamics._tensor_stack(spec, Q)
        assert keep.all() and T.dg.shape == (S, n, n, n)
        real = {(name, "real", (S, n)): 1 for name in ("metric", "omega")}
        assert dict(calls) == {**real, ("metric", "complex", (S, n, n)): 1, ("omega", "complex", (S, n, n)): 1}

    def test_chart_edge_point_leaves_after_a_per_point_rerun(self, ball):
        """A stack with one point on the chart edge is rerun point by point; only that point leaves."""
        calls = Counter()
        spec = counting_spec(ball.spec, calls)
        Q = sample_points(ball, 25, seed=73)
        n = spec.dim
        keep, T = reduced_dynamics._tensor_stack(spec, Q, skip=(ChartDomain,))
        # without an edge point the stack needs no rerun
        assert keep.all() and sum(calls.values()) == 4
        Q[7, 1] = 0.0  # sin(q2) = 0: the Euler chart's edge
        calls.clear()
        keep, T = reduced_dynamics._tensor_stack(spec, Q, skip=(ChartDomain,))
        assert np.flatnonzero(~keep).tolist() == [7]
        assert dict(calls) == {
            # the stacked metric call raises, then every point is rerun alone;
            # the edge point raises in metric, before its other callbacks
            ("metric", "real", (25, n)): 1,
            ("metric", "real", (1, n)): 25,
            ("omega", "real", (1, n)): 24,
            ("metric", "complex", (24, n, n)): 1,
            ("omega", "complex", (24, n, n)): 1,
        }
        _, clean = reduced_dynamics._tensor_stack(ball.spec, Q[keep])
        for name in ("dPstar_I", "dginv", "dk", "dg"):
            assert np.array_equal(getattr(T, name), getattr(clean, name)), name


def counted(calls, name, fn):
    """``fn`` counting its calls in ``calls[name]``."""

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def counting_spec(spec, calls):
    """``spec`` whose callbacks count calls in ``calls[(name, "real" | "complex", q.shape)]``."""

    def wrap(name, fn):
        def wrapper(q):
            calls[name, "complex" if np.iscomplexobj(q) else "real", np.shape(q)] += 1
            return fn(q)

        return wrapper

    return dataclasses.replace(spec, metric=wrap("metric", spec.metric), omega=wrap("omega", spec.omega))


def real_only(spec, name):
    """``spec`` whose callback ``name`` raises ``TypeError`` on complex input."""
    fn = getattr(spec, name)

    def wrapper(q):
        if np.iscomplexobj(q):
            raise TypeError("real input only")
        return fn(q)

    return dataclasses.replace(spec, **{name: wrapper})


class TestComplexStep:
    """Complex-step callback derivatives and the complex-safety contract."""

    @pytest.mark.parametrize("name", ["metric", "omega"])
    def test_real_only_callback_is_a_model_error(self, name):
        """A callback that rejects complex input is refused by the tensors and by the scans."""
        spec = real_only(random_system(5, N=3, M=1, nu=2), name)
        q = np.random.default_rng(8).uniform(-1.0, 1.0, size=spec.dim)
        projection_set(spec, q)  # real evaluations pass
        with pytest.raises(ModelError, match="metric or omega is not complex-safe"):
            coefficient_tensors(spec, q)
        with pytest.raises(ModelError, match="metric or omega is not complex-safe"):
            psi_scan(spec, BoxSampler(np.tile([-1.0, 1.0], (spec.dim, 1)), seed=6), n_samples=12)

    def test_complex_values_in_a_real_buffer_is_a_model_error(self):
        """Writing complex values into ``np.zeros((n, n))`` must not give zero derivatives."""
        gen = np.random.default_rng(11)
        A = gen.standard_normal((4, 4))
        base = A @ A.T + 4.0 * np.eye(4)
        bump = 0.1 * (A + A.T)
        Om = np.array([[1.0, 0.5, -0.2, 0.3]])

        @stacked
        def metric(q):
            g = np.zeros((4, 4))
            g[:] = base + np.sin(q[0]) * bump
            return g

        spec = SystemSpec(N=3, M=1, nu=1, metric=metric, omega=stacked(lambda q: Om.copy()))
        q = np.array([0.4, -0.3, 0.8, 0.1])
        # refused whatever the caller's warning filters are
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", np.exceptions.ComplexWarning)
            with pytest.raises(ModelError, match="ComplexWarning"):
                coefficient_tensors(spec, q)

    def test_asymmetric_metric_derivative_is_rejected(self):
        """The symmetry check of the metric also covers its complex-step derivative."""
        skew = np.array([[0.0, 1.0], [-1.0, 0.0]])

        @stacked
        def metric(q):
            return 2.0 * np.eye(2) + q[0] * skew

        spec = SystemSpec(N=1, M=1, nu=0, metric=metric, omega=stacked(lambda q: np.zeros((0, 2))))
        with pytest.raises(SingularMetric, match="metric derivative is not symmetric"):
            coefficient_tensors(spec, np.zeros(2))

    def test_threads_leave_the_warning_filters_as_they_were(self, racer):
        """Concurrent complex steps must not restore each other's warning filters."""

        def work():
            for _ in range(50):
                coefficient_tensors(racer.spec, racer.default_q0)

        interval = sys.getswitchinterval()
        with warnings.catch_warnings():
            # a filter list that a leaked "error" entry would change
            warnings.simplefilter("ignore", np.exceptions.ComplexWarning)
            before = list(warnings.filters)
            sys.setswitchinterval(1e-6)
            try:
                with ThreadPoolExecutor(max_workers=8) as pool:
                    for future in [pool.submit(work) for _ in range(8)]:
                        future.result(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert warnings.filters == before

    def test_wrong_shape_from_complex_evaluation_is_rejected(self, racer):
        spec = racer.spec

        def metric(q):
            return spec.metric(q) if not np.iscomplexobj(q) else spec.metric(q)[..., :3, :3]

        with pytest.raises(ValueError, match=r"metric returned shape \(1, 4, 3, 3\), expected \(1, 4, 4, 4\)"):
            coefficient_tensors(dataclasses.replace(spec, metric=metric), racer.default_q0)


# ---------------------------------------------------------------------------
# ambient reduced equation
# ---------------------------------------------------------------------------


class TestReducedRhs:
    def test_velocity_decomposition(self, racer):
        """qdot = free part + lift of the control rate, and it is admissible."""
        for q in sample_points(racer, 10, seed=47):
            xi, udot = 0.6, -0.4
            p_I = racer_state(racer, q, xi)
            control = ControlSignal.linear(q[3], udot)
            qdot, _ = reduced_rhs(racer.spec, q, p_I, 0.0, control)
            vecs = racer_frame_vectors(racer.params, q)
            expected = xi * vecs["w1"] + udot * vecs["v4"]
            assert np.abs(qdot - expected).max() < 1e-10
            assert np.abs(racer.spec.omega(q) @ qdot).max() < 1e-10

    def test_rejects_wrong_channel_count(self, racer):
        q = racer.default_q0
        with pytest.raises(NonAdaptedState):
            reduced_rhs(racer.spec, q, np.zeros(4), 0.0, ControlSignal.constant([0.1, 0.2]))

    def test_rejects_mismatched_controlled_coordinate(self, racer):
        q = np.array([0.0, 1.5, 0.0, 0.3])
        with pytest.raises(NonAdaptedState):
            reduced_rhs(racer.spec, q, np.zeros(4), 0.0, ControlSignal.constant(0.8))

    def test_rejects_nan_control_value(self, racer):
        """A NaN gap between the controlled block and the command is not adapted."""
        q = np.array([0.0, 1.5, 0.0, 0.3])
        with pytest.raises(NonAdaptedState):
            reduced_rhs(racer.spec, q, np.zeros(4), 0.0, ControlSignal.constant(np.nan))

    def test_rejects_momentum_off_the_free_block(self, racer):
        q = np.array([0.0, 1.5, 0.0, 0.3])
        g = racer.spec.metric(q)
        bad = g @ racer_frame_vectors(racer.params, q)["v2"]  # pure reaction covector
        with pytest.raises(NotInDeltaCapGamma):
            reduced_rhs(racer.spec, q, bad, 0.0, ControlSignal.constant(0.3))

    def test_stage_level_mismatch_is_tolerated(self, racer):
        """O(dt)-size excursions off the image are projected, not rejected."""
        q = np.array([0.0, 1.5, 0.0, 0.3])
        p_I = racer_state(racer, q, 0.5)
        noise = 1e-5 * np.ones(4)
        qdot, _ = reduced_rhs(racer.spec, q, p_I + noise, 0.0, ControlSignal.constant(0.3))
        ref, _ = reduced_rhs(racer.spec, q, p_I, 0.0, ControlSignal.constant(0.3))
        assert np.abs(qdot - ref).max() < 1e-4


# ---------------------------------------------------------------------------
# frame representation
# ---------------------------------------------------------------------------


def worst_closed_form_deviation(racer):
    """Largest relative gap of ``frame_rhs`` to the racer's closed system over 25 points."""
    gen = np.random.default_rng(51)
    worst = 0.0
    for q in sample_points(racer, 25, seed=53):
        xi = gen.uniform(-1.0, 1.0)
        udot = gen.uniform(-1.0, 1.0)
        control = ControlSignal.linear(q[3], udot)
        qdot, xidot = frame_rhs(
            racer.spec, q, np.array([xi]), 0.0, control, racer.frame_field
        )
        y = np.array([q[0], q[1], q[2], xi])
        ref = racer.closed_field(control)(0.0, y)
        dev = max(
            float(np.abs(qdot[:3] - ref[:3]).max()),
            abs(float(xidot[0]) - ref[3]),
        )
        worst = max(worst, dev / (1.0 + float(np.abs(ref).max())))
    return worst


class TestFrameRhs:
    def test_matches_closed_form_pointwise(self, racer):
        """(qdot, xidot) against the multiplier-validated closed system, 25 points."""
        assert worst_closed_form_deviation(racer) < 1e-8

    def test_matches_closed_form_to_rounding(self, racer):
        """The complex-step frame transport leaves only rounding against the closed system."""
        assert worst_closed_form_deviation(racer) <= 1e-13

    @pytest.mark.parametrize("given_frame, calls", [(True, 1), (False, 2)])
    def test_one_frame_evaluation_for_the_transport(self, racer, given_frame, calls):
        """The transport takes one complex evaluation of ``frame_field``; the frame at ``q`` is the other."""
        q = np.array([0.1, 1.4, -0.2, 0.2])
        points = []

        def frame_field(qq):
            points.append(qq)
            return racer.frame_field(qq)

        frame = racer.frame_field(q) if given_frame else None
        frame_rhs(racer.spec, q, np.array([0.5]), 0.0, ControlSignal.linear(0.2, 0.7), frame_field, frame=frame)
        assert len(points) == calls
        assert np.iscomplexobj(points[-1]) and np.all(points[-1].real == q)

    @pytest.mark.parametrize("flaw", ["float", "type-error", "real-buffer"])
    def test_real_only_frame_field_is_a_model_error(self, racer, flaw):
        """A frame field that is not complex-safe is refused, whatever the caller's warning filters."""
        q = np.array([0.1, 1.4, -0.2, 0.2])

        def frame_field(qq):
            F = racer.frame_field(qq)
            if flaw == "float":
                float(qq[0])
            elif flaw == "type-error" and np.iscomplexobj(qq):
                raise TypeError("real input only")
            elif flaw == "real-buffer":
                V = np.zeros(F.V.shape)
                V[:] = F.V
                F = type(F)(V=V, Omega_frame=F.Omega_frame, block_ranges=F.block_ranges)
            return F

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", np.exceptions.ComplexWarning)
            with pytest.raises(ModelError, match="complex-safe"):
                frame_rhs(racer.spec, q, np.array([0.5]), 0.0, ControlSignal.linear(0.2, 0.7), frame_field)

    def test_norm_transport_evaluates_no_metric(self, ball):
        """The frame norms move with the tensors' exact ``dg``: no metric evaluation off ``q``."""
        calls = Counter()
        spec = counting_spec(ball.spec, calls)
        q = sample_points(ball, 1, seed=55)[0]
        T = coefficient_tensors(spec, q)
        calls.clear()
        frame_rhs(spec, q, np.array([0.3, -0.2, 0.5]), 0.0, ControlSignal.linear(q[5], 0.7), ball.frame_field, tensors=T)
        assert ("metric", "real") not in {key[:2] for key in calls}

    def test_zero_state_is_stationary(self, racer):
        q = np.array([0.1, 1.4, -0.2, 0.2])
        qdot, xidot = frame_rhs(
            racer.spec, q, np.zeros(1), 0.0, ControlSignal.constant(0.2), racer.frame_field
        )
        assert np.all(qdot == 0.0)
        assert np.all(xidot == 0.0)

    def test_rejects_wrong_xi_shape(self, racer):
        q = np.array([0.1, 1.4, -0.2, 0.2])
        with pytest.raises(ValueError):
            frame_rhs(
                racer.spec, q, np.zeros(2), 0.0, ControlSignal.constant(0.2), racer.frame_field
            )

    def test_flags_discontinuous_frame_supplier(self, racer):
        """A sign-flipping frame field trips the smoothness probe."""
        q = np.array([0.1, 1.4, -0.2, 0.2])
        flip_at = q[0]

        def jumpy(qq):
            F = racer.frame_field(qq)
            if qq[0] > flip_at:
                return type(F)(V=-F.V, Omega_frame=-F.Omega_frame, block_ranges=F.block_ranges)
            return F

        with pytest.raises(FrameNotSmooth):
            frame_rhs(
                racer.spec, q, np.array([0.5]), 0.0, ControlSignal.constant(0.2), jumpy
            )

    def test_check_frame_continuity_direct(self, racer):
        q = np.array([0.1, 1.4, -0.2, 0.2])
        F = racer.frame_field(q)
        check_frame_continuity(F, F)  # identical frames pass
        flipped = type(F)(V=-F.V, Omega_frame=F.Omega_frame, block_ranges=F.block_ranges)
        with pytest.raises(FrameNotSmooth):
            check_frame_continuity(F, flipped)


class TestFrameCoefficients:
    @pytest.mark.parametrize("u", [0.0, 0.35, -0.8])
    def test_racer_quadratic_structure(self, racer, u):
        """Coupling and pump coefficients match the closed denominators."""
        p = racer.params
        rho, I, J = p.rho, p.inertia, p.tail_inertia
        q = np.array([0.3, 1.1, -0.5, u])
        C = frame_coefficients(racer.spec, q, racer.frame_field)
        d0, d1 = racer_denominators(p, u)
        coupling = -(I + J - rho**2) * np.sin(2.0 * u) / d1
        pump = 2.0 * J * rho**2 * np.cos(u) / d1**2
        assert C["xi_udot"][0, 0, 0] == pytest.approx(coupling, abs=1e-8)
        assert C["udot_udot"][0, 0, 0] == pytest.approx(pump, abs=1e-8)
        assert np.abs(C["xi_xi"]).max() < 1e-8

    def test_ball_has_no_pump(self, ball):
        """Fit system: the pure control-rate block of xidot vanishes."""
        q = ball.default_q0
        C = frame_coefficients(ball.spec, q, ball.frame_field)
        assert np.abs(C["udot_udot"]).max() < 1e-7

    @pytest.mark.parametrize("model", ["racer", "ball"])
    def test_one_polarization_equals_three_block_loops(self, model, racer, ball):
        """The single symmetric polarization gives the blocks of separate per-block loops bitwise."""
        bundle = {"racer": racer, "ball": ball}[model]
        for q in sample_points(bundle, 6, seed=57):
            got = frame_coefficients(bundle.spec, q, bundle.frame_field)
            ref = block_loop_coefficients(bundle.spec, q, bundle.frame_field)
            for name, block in ref.items():
                assert got[name].shape == block.shape
                assert np.array_equal(got[name], block), name


def block_loop_coefficients(spec, q, frame_field):
    """The three blocks of ``frame_coefficients``, each polarized by its own loop nest."""
    u0 = q[spec.N :]
    T = coefficient_tensors(spec, q)
    frame = frame_field(q)
    i0, i1 = frame.block_ranges[0]
    m = i1 - i0
    M = spec.M

    def f(xi, udot):
        ctrl = ControlSignal.linear(u0, udot, t0=0.0)
        return frame_rhs(spec, q, xi, 0.0, ctrl, frame_field, tensors=T, frame=frame)[1]

    zero_xi, zero_u = np.zeros(m), np.zeros(M)
    base_xi = [f(np.eye(m)[r], zero_u) for r in range(m)]
    base_u = [f(zero_xi, np.eye(M)[a]) for a in range(M)]

    xi_xi = np.zeros((m, m, m))
    for r in range(m):
        xi_xi[:, r, r] = base_xi[r]
        for s in range(r + 1, m):
            cross = f(np.eye(m)[r] + np.eye(m)[s], zero_u) - base_xi[r] - base_xi[s]
            xi_xi[:, r, s] = xi_xi[:, s, r] = 0.5 * cross

    udot_udot = np.zeros((m, M, M))
    for a in range(M):
        udot_udot[:, a, a] = base_u[a]
        for b in range(a + 1, M):
            cross = f(zero_xi, np.eye(M)[a] + np.eye(M)[b]) - base_u[a] - base_u[b]
            udot_udot[:, a, b] = udot_udot[:, b, a] = 0.5 * cross

    xi_udot = np.zeros((m, m, M))
    for r in range(m):
        for a in range(M):
            xi_udot[:, r, a] = f(np.eye(m)[r], np.eye(M)[a]) - base_xi[r] - base_u[a]

    return {"xi_xi": xi_xi, "xi_udot": xi_udot, "udot_udot": udot_udot}


# ---------------------------------------------------------------------------
# constraint reactions
# ---------------------------------------------------------------------------


class TestReactionForce:
    def test_no_free_block_component(self, racer, ball):
        """The reconstructed reaction does no virtual work on free velocities."""
        for bundle, seed in ((racer, 61), (ball, 63)):
            gen = np.random.default_rng(seed)
            for q in sample_points(bundle, 5, seed=seed + 1):
                m = bundle.spec.dim
                raw = gen.standard_normal(m)
                P = projection_set(bundle.spec, q)
                p_I = P.Pstar_I @ raw
                control = ControlSignal.sinusoid(q[bundle.spec.N :], 0.0, 1.0)
                R = reaction_force(bundle.spec, q, p_I, 0.0, control)
                scale = 1.0 + float(np.abs(R).max())
                assert np.abs(P.Pstar_I @ R).max() < 1e-5 * scale

    def test_racer_reaction_annihilates_w1(self, racer):
        for q in sample_points(racer, 5, seed=65):
            p_I = racer_state(racer, q, 0.7)
            control = ControlSignal.linear(q[3], 0.5)
            R = reaction_force(racer.spec, q, p_I, 0.0, control)
            w1 = racer_frame_vectors(racer.params, q)["w1"]
            assert abs(R @ w1) < 1e-5 * (1.0 + float(np.abs(R).max()))
