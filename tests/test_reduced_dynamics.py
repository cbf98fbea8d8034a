"""Reduced equations of motion: control signals, quadratic forms, frame form.

The load-bearing check here is the pointwise comparison of ``frame_rhs``,
read in the closed form's coordinates (``_closed_rhs``), against the Roller
Racer's closed-form system, whose coefficients are in turn pinned to a direct
multiplier-based integration in ``test_models.py``.
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
from nonholo.errors import (
    ChartDomain,
    ModelError,
    NonAdaptedState,
    NotInDeltaCapGamma,
    RankDeficiency,
    SingularMetric,
)
from nonholo.jump_analysis import BoxSampler, psi_scan
from nonholo.models import build_model, racer_denominators, racer_frame_vectors
from nonholo.reduced_dynamics import (
    ControlSignal,
    _closed_rhs,
    _VoronetsFrame,
    centrifugal_psi,
    coefficient_tensors,
    frame_coefficients,
    frame_rhs,
    reaction_force,
    reduced_rhs,
    theta_I_apply,
)

from conftest import counting_spec, generic_free_block, near_singular_system, random_system, sample_points, stacked


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
            T = coefficient_tensors(racer.spec, q)
            P = T.projections
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
        """One splitting per tensor, from one complex call of each callback and no real call."""
        bundle = {"racer": racer, "ball": ball}[model]
        calls = Counter()
        spec = counting_spec(bundle.spec, calls)
        stack = reduced_dynamics._projection_stack
        monkeypatch.setattr(reduced_dynamics, "_projection_stack", counted(calls, "splitting", stack))
        q = sample_points(bundle, 1, seed=71)[0]
        n = spec.dim

        T = coefficient_tensors(spec, q)
        complex_calls = {(name, "complex", (1, n + 1, n)): 1 for name in ("metric", "omega")}
        assert dict(calls) == {"splitting": 1, **complex_calls}
        # row 0 of the complex stack is the real splitting, bit for bit
        P = projection_set(bundle.spec, q, check=False)
        for name in ("P_I", "h", "k", "R_II", "I_basis", "g", "ginv", "Om"):
            assert np.array_equal(getattr(T.projections, name), getattr(P, name)), name

    @pytest.mark.parametrize("S", [1, 25])
    @pytest.mark.parametrize("model", ["racer", "ball"])
    def test_one_stacked_call_per_callback(self, model, S, racer, ball):
        """Per stack: one complex call of ``metric`` and of ``omega`` on ``Q[i] + i H [0; I_n]``, and no real call."""
        bundle = {"racer": racer, "ball": ball}[model]
        calls = Counter()
        spec = counting_spec(bundle.spec, calls)
        Q = sample_points(bundle, S, seed=72)
        n = spec.dim
        keep, T = reduced_dynamics._tensor_stack(spec, Q)
        assert keep.all() and T.dg.shape == (S, n, n, n)
        assert dict(calls) == {("metric", "complex", (S, n + 1, n)): 1, ("omega", "complex", (S, n + 1, n)): 1}

    def test_chart_edge_point_leaves_after_a_per_point_rerun(self, ball):
        """A stack with one point on the chart edge is rerun point by point; only that point leaves."""
        calls = Counter()
        spec = counting_spec(ball.spec, calls)
        Q = sample_points(ball, 25, seed=73)
        n = spec.dim
        keep, T = reduced_dynamics._tensor_stack(spec, Q, skip=(ChartDomain,))
        # without an edge point the stack needs no rerun
        assert keep.all() and sum(calls.values()) == 2
        Q[7, 1] = 0.0  # sin(q2) = 0: the Euler chart's edge
        calls.clear()
        keep, T = reduced_dynamics._tensor_stack(spec, Q, skip=(ChartDomain,))
        assert np.flatnonzero(~keep).tolist() == [7]
        assert dict(calls) == {
            # the stacked metric call raises, then every point is rerun alone;
            # the edge point raises in metric, before its omega call
            ("metric", "complex", (25, n + 1, n)): 1,
            ("metric", "complex", (1, n + 1, n)): 25,
            ("omega", "complex", (1, n + 1, n)): 24,
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

    @pytest.mark.parametrize("case", ["roller-racer", "rolling-ball", "euclidean-toy", "constrained-toy", "random"])
    def test_real_part_at_the_point_is_the_real_call(self, case):
        """On the frame form's stack ``q + i H [0; I_n]``, row 0's real part equals the real call at ``q`` bitwise.

        ``_maggi`` reads ``g`` and ``Om`` there instead of calling the
        callbacks again on real input; 200 box points per model.
        """
        if case == "random":
            spec = random_system(1, M=2)
            points = np.random.default_rng(89).uniform(-1.0, 1.0, (200, spec.dim))
        else:
            bundle = build_model("euclidean-toy", constrained=True) if case == "constrained-toy" else build_model(case)
            spec, points = bundle.spec, sample_points(bundle, 200, seed=89)
        shift = (1j * reduced_dynamics.COMPLEX_STEP) * np.eye(spec.dim + 1)[:, 1:]
        for q in points:
            for fn in (spec.metric, spec.omega):
                assert np.array_equal(np.asarray(fn(q + shift))[0].real, np.asarray(fn(q[None]))[0])

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

        with pytest.raises(ValueError, match=r"metric returned shape \(1, 5, 3, 3\), expected \(1, 5, 4, 4\)"):
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
    """Largest relative gap of ``frame_rhs``, in ``w1``'s ``xi``, to the racer's closed system over 25 points."""
    gen = np.random.default_rng(51)
    worst = 0.0
    for q in sample_points(racer, 25, seed=53):
        xi = gen.uniform(-1.0, 1.0)
        udot = gen.uniform(-1.0, 1.0)
        control = ControlSignal.linear(q[3], udot)
        got = _closed_rhs(racer.spec, racer.extract_closed, q, xi, 0.0, control)
        ref = racer.closed_field(control)(0.0, np.array([q[0], q[1], q[2], xi]))
        worst = max(worst, float(np.abs(got - ref).max()) / (1.0 + float(np.abs(ref).max())))
    return worst


class TestFrameRhs:
    def test_matches_closed_form_pointwise(self, racer):
        """(qdot, xidot) against the multiplier-validated closed system, 25 points."""
        assert worst_closed_form_deviation(racer) < 1e-8

    def test_matches_closed_form_to_rounding(self, racer):
        """The frame transport and the complex-step change of coordinates leave only rounding against the closed system."""
        assert worst_closed_form_deviation(racer) <= 1e-13

    @pytest.mark.parametrize("name", ["rolling-ball", "roller-racer"])
    def test_one_complex_call_of_each_callback(self, name, monkeypatch):
        """Each callback runs once, complex, on the stack ``q + i H [0; I_n]``, and never real.

        Row 0's real part is the callback at ``q`` and rows ``1 .. n`` give the
        axis derivatives.  The generic frame's transport needs no further
        call.  No matrix is inverted in complex arithmetic.
        """
        bundle = build_model(name)
        calls = Counter()
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda A: calls.update([("inv", A.dtype.kind)]) or inv(A))
        spec = counting_spec(bundle.spec, calls)
        q = sample_points(bundle, 1, seed=55)[0]
        xi = np.linspace(0.3, -0.2, spec.N - spec.nu)
        frame_rhs(spec, q, xi, 0.0, ControlSignal.linear(q[spec.N :], 0.7))
        n = spec.dim
        # real inverses of A_d and of the Gram matrix
        expected = {("metric", "complex", (n + 1, n)): 1, ("omega", "complex", (n + 1, n)): 1, ("inv", "f"): 2}
        assert calls == Counter(expected)

    def test_zero_state_is_stationary(self, racer):
        q = np.array([0.1, 1.4, -0.2, 0.2])
        qdot, xidot = frame_rhs(racer.spec, q, np.zeros(1), 0.0, ControlSignal.constant(0.2))
        assert np.all(qdot == 0.0)
        assert np.all(xidot == 0.0)

    def test_rejects_wrong_xi_shape(self, racer):
        q = np.array([0.1, 1.4, -0.2, 0.2])
        with pytest.raises(ValueError):
            frame_rhs(racer.spec, q, np.zeros(2), 0.0, ControlSignal.constant(0.2))


def tensor_frame_rhs(spec, q, xi, t, control, field=None):
    """Reference ``(qdot, xidot)`` of the frame form from the coefficient tensors.

    On the generic frame ``field`` (``None``: the one whose pivots are best
    at ``q``), transported by a complex step of its ``V`` rather than by
    Maggi's closed form.  The momentum equation projected onto the frame, as
    the frame form was computed before Maggi's equations, for any free
    block: with
    ``p_I = g V_I xi``, ``p = p_I + k udot`` and ``pIdot = theta_I[p, p]``,
    ``V_I^T p_I = G xi`` with the Gram matrix ``G = V_I^T g V_I``, so
    ``xidot = G^-1 (V_I^T pIdot + dV^T p_I - Gdot xi)``, where
    ``Gdot = dV^T g V_I + V_I^T g dV + V_I^T (sum_j qdot_j dg[j]) V_I``.
    """
    T = coefficient_tensors(spec, q)
    P = T.projections
    field = field if field is not None else _VoronetsFrame.best(spec, spec.omega(q))
    m, H = spec.N - spec.nu, reduced_dynamics.COMPLEX_STEP
    V_I = field.of(spec.omega(q))[0][:, :m]
    g = P.g
    udot = np.atleast_1d(control.rate(t))
    free_vel = V_I @ xi
    qdot = free_vel + P.h @ udot
    p_I = g @ free_vel
    p = p_I + P.k @ udot
    pIdot = theta_I_apply(spec, q, p, p, tensors=T)
    dV = field.of(spec.omega(q + 1j * H * qdot))[0][:, :m].imag / H
    dg_flow = np.tensordot(qdot, T.dg, axes=1)
    G = V_I.T @ g @ V_I
    Gdot = dV.T @ g @ V_I + V_I.T @ g @ dV + V_I.T @ dg_flow @ V_I
    return qdot, np.linalg.solve(G, V_I.T @ pIdot + dV.T @ p_I - Gdot @ xi)


#: built-in models, as shipped and with a configuration-dependent metric bump
MAGGI_MODELS = [("roller-racer", 0.0), ("roller-racer", 0.05), ("rolling-ball", 0.0), ("rolling-ball", 0.05)]


class TestMaggiForm:
    @pytest.mark.parametrize("name, perturb", MAGGI_MODELS)
    def test_matches_tensor_form(self, name, perturb):
        """Maggi's equations give the tensor form's ``(qdot, xidot)`` to 1e-13 relative at 100 random states.

        Both run the generic frame with the pivots best at each ``q``.
        """
        bundle = build_model(name, metric_perturb=perturb)
        spec = bundle.spec
        gen = np.random.default_rng(71)
        for q in sample_points(bundle, 100, seed=73):
            xi = gen.uniform(-1.0, 1.0, spec.N - spec.nu)
            control = ControlSignal.linear(q[spec.N :], gen.uniform(-1.0, 1.0, spec.M))
            ref_qdot, ref_xidot = tensor_frame_rhs(spec, q, xi, 0.0, control)
            qdot, xidot = frame_rhs(spec, q, xi, 0.0, control)
            assert np.abs(qdot - ref_qdot).max() <= 1e-13 * (1.0 + np.abs(ref_qdot).max())
            assert np.abs(xidot - ref_xidot).max() <= 1e-13 * (1.0 + np.abs(ref_xidot).max())

    @pytest.mark.parametrize("name, perturb", MAGGI_MODELS)
    def test_frame_coefficients_match_tensor_form(self, name, perturb):
        """Every block of ``frame_coefficients`` matches the tensor form's polarization to 1e-13 relative."""
        bundle = build_model(name, metric_perturb=perturb)
        for q in sample_points(bundle, 10, seed=75):
            got = frame_coefficients(bundle.spec, q)
            ref = block_loop_coefficients(bundle.spec, q, rhs=tensor_frame_rhs)
            scale = 1.0 + max(float(np.abs(block).max()) for block in ref.values())
            for name_, block in ref.items():
                assert np.abs(got[name_] - block).max() <= 1e-13 * scale, name_


GENERIC_MODELS = [
    ("roller-racer", {}),
    ("rolling-ball", {}),
    ("rolling-ball", {"metric_perturb": 0.05}),
    ("euclidean-toy", {"constrained": True}),
    ("euclidean-toy", {}),
]


def generic_cases():
    """``(spec, points)`` for the built-in models and a random system with ``M = 2``, 50 points each."""
    out = [(bundle.spec, sample_points(bundle, 50, seed=83)) for bundle in (build_model(n, **o) for n, o in GENERIC_MODELS)]
    spec = random_system(1, M=2)
    out.append((spec, np.random.default_rng(85).uniform(-1.0, 1.0, (50, spec.dim))))
    return out


class TestVoronetsFrame:
    """The generic frame: built from ``omega`` alone, adapted to the constraints, exact dual rows."""

    def test_frame_is_adapted_with_exact_dual_rows(self):
        """``Om V = 0`` to rounding, unit controls on the drive block, none on the free block, the dual rows ``V[r] = I``."""
        for spec, points in generic_cases():
            m = spec.N - spec.nu
            field = _VoronetsFrame.best(spec, spec.omega(points[0]))
            for q in points:
                V = field.of(spec.omega(q))[0]
                assert V.shape == (spec.dim, m + spec.M)
                assert np.all(np.abs(spec.omega(q) @ V) <= 1e-14 * (1.0 + np.abs(V).max()))
                assert np.all(V[spec.N :, :m] == 0.0) and np.all(V[spec.N :, m:] == np.eye(spec.M))
                assert np.all(V[field._layout[1]] == np.eye(m + spec.M))

    def test_lift_from_a_drive_block_is_the_splittings(self, racer, ball):
        """``h = x0 - V_I G^-1 (g V_I)^T x0`` from the racer's ``v4`` or a generic drive block is ``projection_set().h``.

        ``v4`` solves the constraint rows to 1.1e-16, and both lifts agree
        with the splitting's to 4 ulp of ``1 + |h|`` at 200 box points.
        """
        for bundle in (racer, ball):
            m = bundle.spec.N - bundle.spec.nu
            for q in sample_points(bundle, 200, seed=81):
                P = projection_set(bundle.spec, q)
                V = _VoronetsFrame.best(bundle.spec, P.Om).of(P.Om)[0]
                blocks = [(V[:, :m], V[:, m:])]
                if bundle is racer:
                    vecs = racer_frame_vectors(racer.params, q)
                    blocks.append((vecs["w1"][:, None], vecs["v4"][:, None]))
                    assert np.abs(P.Om @ vecs["v4"]).max() <= 1.1e-16
                for V_I, x0 in blocks:
                    gV = P.g @ V_I
                    h = x0 - V_I @ np.linalg.solve(V_I.T @ gV, gV.T @ x0)
                    assert np.abs(h - P.h).max() <= 4 * np.finfo(float).eps * (1.0 + np.abs(P.h).max())

    @pytest.mark.parametrize("name, q, pivots", [
        ("roller-racer", [0.0, np.pi / 2, 0.0, 0.0], (1, 2)),
        ("roller-racer", [0.0, 1.0, 0.0, np.pi / 2], (0, 2)),
        ("rolling-ball", [0.3, 1.1, -0.2, 0.1, -0.15, 0.0], (3, 4)),
    ])
    def test_best_pivots(self, name, q, pivots):
        """The best-conditioned minor: ``(q2, q3)`` at the racer's start, ``(q1, q3)`` where ``cos u = 0``, ``(x, y)`` on the ball."""
        spec = build_model(name).spec
        assert _VoronetsFrame.best(spec, spec.omega(np.array(q))).pivots == pivots

    @pytest.mark.parametrize("eps, svd_calls", [(1e-6, 0), (1e-12, 1)])
    def test_stage_keeps_the_rank_test(self, eps, svd_calls, monkeypatch):
        """A stage runs the constraint SVD only where ``1/|A_d^-1|_F > RANK_RTOL |Om[:, :N]|_F`` fails.

        The bound implies the splitting's rank test, so a well-conditioned
        minor skips the SVD; a constraint block with smallest singular value
        1e-12 falls back to it and fails transversality.
        """
        spec, _, _ = near_singular_system(eps, 2)
        calls = []
        svd = reduced_dynamics._constraint_svd
        monkeypatch.setattr(reduced_dynamics, "_constraint_svd", lambda *args: calls.append(1) or svd(*args))
        q = np.zeros(5)
        if svd_calls:
            with pytest.raises(RankDeficiency):
                frame_rhs(spec, q, np.zeros(2), 0.0, ControlSignal.linear(0.0, 0.7))
        else:
            frame_rhs(spec, q, np.zeros(2), 0.0, ControlSignal.linear(0.0, 0.7))
        assert len(calls) == svd_calls

    @pytest.mark.parametrize("case", range(6))
    def test_matches_tensor_form(self, case):
        """Maggi's equations in the generic frame give the tensor form's ``(qdot, xidot)`` to 1e-13 relative."""
        spec, points = generic_cases()[case]
        gen = np.random.default_rng(87)
        for q in points[:20]:
            field = _VoronetsFrame.best(spec, spec.omega(q))
            xi = gen.uniform(-1.0, 1.0, spec.N - spec.nu)
            control = ControlSignal.linear(q[spec.N :], gen.uniform(-1.0, 1.0, spec.M))
            ref_qdot, ref_xidot = tensor_frame_rhs(spec, q, xi, 0.0, control, field)
            qdot, xidot = frame_rhs(spec, q, xi, 0.0, control)
            assert np.abs(qdot - ref_qdot).max() <= 1e-13 * (1.0 + np.abs(ref_qdot).max())
            assert np.abs(xidot - ref_xidot).max() <= 1e-13 * (1.0 + np.abs(ref_xidot).max())


class TestFrameCoefficients:
    @pytest.mark.parametrize("u", [0.0, 0.35, -0.8])
    def test_racer_quadratic_structure(self, racer, u):
        """In ``w1``'s ``xi`` the coupling and pump coefficients match the closed denominators.

        ``frame_coefficients`` reads the generic frame's ``xi``; in the
        closed form's the blocks come from polarizing ``_closed_rhs``, and
        the pump block is the generic one times ``extract_closed(q, g V_I)``.
        """
        p = racer.params
        rho, I, J = p.rho, p.inertia, p.tail_inertia
        q = np.array([0.3, 1.1, -0.5, u])

        def xidot(xi, udot):
            return _closed_rhs(racer.spec, racer.extract_closed, q, xi, 0.0, ControlSignal.linear(u, udot))[3]

        xi_xi, pump_w1 = xidot(1.0, 0.0), xidot(0.0, 1.0)
        d0, d1 = racer_denominators(p, u)
        coupling = -(I + J - rho**2) * np.sin(2.0 * u) / d1
        pump = 2.0 * J * rho**2 * np.cos(u) / d1**2
        assert xidot(1.0, 1.0) - xi_xi - pump_w1 == pytest.approx(coupling, abs=1e-8)
        assert pump_w1 == pytest.approx(pump, abs=1e-8)
        assert abs(xi_xi) < 1e-8
        scale = racer.extract_closed(q, racer.spec.metric(q) @ generic_free_block(racer.spec, q)[:, 0])[3]
        assert frame_coefficients(racer.spec, q)["udot_udot"][0, 0, 0] * scale == pytest.approx(pump, abs=1e-8)

    def test_ball_has_no_pump(self, ball):
        """Fit system: the pure control-rate block of xidot vanishes."""
        q = ball.default_q0
        C = frame_coefficients(ball.spec, q)
        assert np.abs(C["udot_udot"]).max() < 1e-7

    @pytest.mark.parametrize("model", ["racer", "ball"])
    def test_one_polarization_equals_three_block_loops(self, model, racer, ball):
        """The single symmetric polarization gives the blocks of separate per-block loops bitwise."""
        bundle = {"racer": racer, "ball": ball}[model]
        for q in sample_points(bundle, 6, seed=57):
            got = frame_coefficients(bundle.spec, q)
            ref = block_loop_coefficients(bundle.spec, q)
            for name, block in ref.items():
                assert got[name].shape == block.shape
                assert np.array_equal(got[name], block), name

    @pytest.mark.parametrize("model", ["racer", "ball"])
    def test_generic_frame_pivots_are_picked_once(self, model, racer, ball, monkeypatch):
        """The pivots are picked once per call, and the blocks equal per-stage picking bitwise."""
        bundle = {"racer": racer, "ball": ball}[model]
        points = sample_points(bundle, 4, seed=59)
        refs = [block_loop_coefficients(bundle.spec, q) for q in points]
        calls = []
        best = _VoronetsFrame.best
        monkeypatch.setattr(_VoronetsFrame, "best", staticmethod(lambda *args: calls.append(1) or best(*args)))
        for q, ref in zip(points, refs):
            got = frame_coefficients(bundle.spec, q)
            for name, block in ref.items():
                assert np.array_equal(got[name], block), name
        assert len(calls) == len(points)


def block_loop_coefficients(spec, q, rhs=frame_rhs):
    """The three blocks of ``frame_coefficients``, each polarized by its own loop nest.

    ``rhs(spec, q, xi, t, control)`` gives ``(qdot, xidot)``, by default
    :func:`frame_rhs`, on the generic frame whose pivots are best at ``q``.
    """
    u0 = q[spec.N :]
    m = spec.N - spec.nu
    M = spec.M

    def f(xi, udot):
        return rhs(spec, q, xi, 0.0, ControlSignal.linear(u0, udot, t0=0.0))[1]

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
