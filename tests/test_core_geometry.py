"""Projection algebra, lifts, frames, and transversality diagnostics."""

import dataclasses
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nonholo.core_geometry import (
    SystemSpec,
    _projection_stack,
    argmin_certificate,
    projection_set,
)
from nonholo.errors import ChartDomain, ModelError, RankDeficiency, SingularMetric
from nonholo.jump_analysis import leaf_metric_derivative
from nonholo.reduced_dynamics import (
    ControlSignal,
    _closed_rhs,
    centrifugal_psi,
    coefficient_tensors,
    frame_coefficients,
    frame_rhs,
)

from conftest import (
    check_projection_algebra,
    counting_spec,
    near_singular_system,
    random_system,
    sample_points,
    stacked,
)


def reference_projection_set(spec, q):
    """The splitting as first implemented: SVD null space, KKT lift, ``g P ginv``.

    Returns a dict with the same names as :class:`ProjectionSet`.
    """
    N, M, nu, n = spec.N, spec.M, spec.nu, spec.dim
    g = np.asarray(spec.metric(q), dtype=float)
    ginv = np.linalg.inv(g)
    Om = np.asarray(spec.omega(q), dtype=float)
    B = np.zeros((n, N - nu))
    B[:N] = np.linalg.svd(Om[:, :N])[2][nu:].T if nu else np.eye(N)
    P_I = B @ np.linalg.solve(B.T @ g @ B, B.T @ g)
    W = ginv @ Om.T
    P_II = W @ np.linalg.solve(Om @ W, Om) if nu else np.zeros((n, n))
    P_III = np.eye(n) - P_I - P_II
    # stationarity of g-energy under Om z = 0 and controlled components = I
    E = np.zeros((M, n))
    E[:, N:] = np.eye(M)
    kkt = np.block(
        [
            [g, Om.T, E.T],
            [Om, np.zeros((nu, nu + M))],
            [E, np.zeros((M, nu + M))],
        ]
    )
    rhs = np.zeros((n + nu + M, M))
    rhs[n + nu :] = np.eye(M)
    h = np.linalg.solve(kkt, rhs)[:n]
    out = {"P_I": P_I, "P_II": P_II, "P_III": P_III, "h": h, "k": g @ h}
    for name in ("I", "II", "III"):
        out[f"Pstar_{name}"] = g @ out[f"P_{name}"] @ ginv
    return out


class TestProjectionAlgebra:
    def test_flat_single_form_is_exact(self, toy_constrained):
        """With the identity metric and the form dq1, all blocks are coordinate planes."""
        spec = toy_constrained.spec
        q = np.array([0.3, -1.2, 0.5, 0.9])
        P = projection_set(spec, q)
        assert np.allclose(P.P_I, np.diag([0.0, 1.0, 1.0, 0.0]), atol=1e-12)
        e1 = np.zeros((4, 4))
        e1[0, 0] = 1.0
        assert np.allclose(P.P_II, e1, atol=1e-12)
        e4 = np.zeros((4, 4))
        e4[3, 3] = 1.0
        assert np.allclose(P.P_III, e4, atol=1e-12)
        assert np.allclose(P.h, np.array([[0.0], [0.0], [0.0], [1.0]]), atol=1e-12)

    def test_unconstrained_toy_has_no_reaction_block(self, toy):
        P = projection_set(toy.spec, np.zeros(toy.spec.dim))
        assert np.abs(P.P_II).max() == 0.0
        assert int(round(np.trace(P.P_I))) == toy.spec.N

    @pytest.mark.parametrize("model", ["racer", "ball"])
    def test_built_in_models(self, model, racer, ball):
        bundle = {"racer": racer, "ball": ball}[model]
        for q in sample_points(bundle, 40, seed=11):
            check_projection_algebra(bundle.spec, projection_set(bundle.spec, q))

    @given(seed=st.integers(0, 10**6), N=st.integers(2, 4), M=st.integers(1, 2))
    def test_random_systems(self, seed, N, M):
        nu = 1 if N == 2 else 2
        spec = random_system(seed, N=N, M=M, nu=nu)
        gen = np.random.default_rng(seed + 1)
        q = gen.uniform(-1.0, 1.0, size=spec.dim)
        check_projection_algebra(spec, projection_set(spec, q), atol=1e-9)

    def test_lift_properties(self, racer, ball):
        for bundle in (racer, ball):
            spec = bundle.spec
            for q in sample_points(bundle, 10, seed=3):
                P = projection_set(spec, q)
                Om = spec.omega(q)
                assert np.abs(Om @ P.h).max() < 1e-10
                assert np.allclose(P.h[spec.N :], np.eye(spec.M), atol=1e-10)
                assert np.abs(P.P_III @ P.h - P.h).max() < 1e-10
                assert np.abs(P.k - P.g @ P.h).max() < 1e-12
                # R_II: right inverse of the constraint rows, g-orthogonal to block I
                assert np.abs(Om @ P.R_II - np.eye(spec.nu)).max() < 1e-10
                assert np.all(P.R_II[spec.N :] == 0.0)
                assert np.abs(P.I_basis.T @ P.g @ P.R_II).max() < 1e-10


class TestAgainstReferenceConstruction:
    @given(
        model=st.sampled_from(["racer", "ball", "toy", "toy_constrained"]),
        seed=st.integers(0, 10**6),
    )
    def test_matches_reference_on_models(self, model, seed, racer, ball, toy, toy_constrained):
        bundle = {"racer": racer, "ball": ball, "toy": toy, "toy_constrained": toy_constrained}[model]
        q = sample_points(bundle, 1, seed=seed)[0]
        P = projection_set(bundle.spec, q)
        for name, ref in reference_projection_set(bundle.spec, q).items():
            got = getattr(P, name)
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-12 * (1.0 + np.abs(ref).max()), name

    def test_off_path_blocks_are_lazy(self, ball):
        """The coefficient tensors' splitting builds blocks II and III only when they are read."""
        spec = ball.spec
        q = sample_points(ball, 1, seed=4)[0]
        P = coefficient_tensors(spec, q).projections
        assert "P_II" not in vars(P) and "P_III" not in vars(P)
        check_projection_algebra(spec, P)
        assert "P_II" in vars(P) and "P_III" in vars(P)


class TestNearSingularConstraints:
    """Lift and block I stay accurate as the constraint block nears rank loss."""

    @pytest.mark.parametrize("nu", [1, 2])
    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_closed_form_splitting(self, eps, nu):
        spec, h, P_I = near_singular_system(eps, nu)
        q = np.zeros(spec.dim)
        s = np.linalg.svd(spec.omega(q)[:, : spec.N], compute_uv=False)
        assert s[0] / s[nu - 1] == pytest.approx(1.0 / eps if nu == 2 else 1.0)
        P = projection_set(spec, q)
        k = P.g @ h

        def rel_err(got, want):
            return np.abs(got - want).max() / np.abs(want).max()

        assert rel_err(P.h, h) <= 1e-12
        assert rel_err(P.k, k) <= 1e-12
        assert rel_err(P.P_I, P_I) <= 1e-12
        assert rel_err(P.Pstar_I, P_I.T) <= 1e-12


class TestBallChartEdge:
    """Near ``sin q2 = 0`` the ball's metric has condition ``~ 1/sin^2 q2``; the splitting still holds."""

    @pytest.mark.parametrize("sin_q2", [1e-4, 1e-5])
    @pytest.mark.parametrize("side", ["near 0", "near pi"])
    def test_splitting_identities(self, ball, sin_q2, side):
        """``P_I^2 = P_I``, ``Om P_I = 0``, ``Om h = 0``, ``h[N:] = I`` and ``g``-orthogonality, each relative to its factors' sizes.

        Measured worst over both sides: 1.9e-12 (``P_I^2``, at ``sin q2 =
        1e-5``, where ``|P_I|`` is 6.8e4), 5.5e-17 (``Om P_I``), 3.3e-14
        (``g P_I`` symmetric, at 1e-4) and 1.8e-17 (``P_I^T g h``); ``Om h``
        and the control rows of ``h`` are exact.  The bounds sit 10 to 20
        times above.
        """
        q = ball.default_q0.copy()
        q[1] = math.asin(sin_q2) if side == "near 0" else math.pi - math.asin(sin_q2)
        P = projection_set(ball.spec, q)
        N, M = ball.spec.N, ball.spec.M

        def size(A):
            return np.abs(A).max()

        assert size(P.P_I @ P.P_I - P.P_I) <= 2e-11 * size(P.P_I) ** 2
        assert size(P.Om @ P.P_I) <= 1e-15 * size(P.Om) * size(P.P_I)
        assert size(P.Om @ P.h) <= 1e-15 * size(P.Om) * size(P.h)
        assert np.array_equal(P.h[N:], np.eye(M))
        gP = P.g @ P.P_I
        assert size(gP - gP.T) <= 5e-13 * size(P.g) * size(P.P_I)
        assert size(P.P_I.T @ P.g @ P.h) <= 1e-15 * size(P.P_I) * size(P.g) * size(P.h)


class TestTransversality:
    def test_holds_on_models(self, racer, ball):
        for bundle in (racer, ball):
            for q in sample_points(bundle, 20, seed=5):
                P = projection_set(bundle.spec, q)
                assert P.I_basis.shape == (bundle.spec.dim, bundle.spec.N - bundle.spec.nu)

    def test_form_in_control_span_fails(self):
        """A constraint proportional to a controlled differential breaks the setup."""

        @stacked
        def metric(q):
            return np.eye(4)

        @stacked
        def omega(q):
            row = np.zeros((1, 4))
            row[0, 3] = 1.0
            return row

        spec = SystemSpec(N=3, M=1, nu=1, metric=metric, omega=omega)
        with pytest.raises(RankDeficiency):
            projection_set(spec, np.zeros(4))

    def test_projection_set_raises_on_rank_loss(self):
        @stacked
        def metric(q):
            return np.eye(3)

        @stacked
        def omega(q):
            return np.zeros((1, 3))

        spec = SystemSpec(N=2, M=1, nu=1, metric=metric, omega=omega)
        with pytest.raises(RankDeficiency):
            projection_set(spec, np.zeros(3))


class TestMetricValidation:
    def test_asymmetric_metric_rejected(self):
        @stacked
        def metric(q):
            out = np.eye(2)
            out[0, 1] = 0.5
            return out

        @stacked
        def omega(q):
            return np.zeros((0, 2))

        spec = SystemSpec(N=1, M=1, nu=0, metric=metric, omega=omega)
        with pytest.raises(SingularMetric):
            projection_set(spec, np.zeros(2))

    def test_indefinite_metric_rejected(self):
        @stacked
        def metric(q):
            return np.diag([1.0, -1.0])

        @stacked
        def omega(q):
            return np.zeros((0, 2))

        spec = SystemSpec(N=1, M=1, nu=0, metric=metric, omega=omega)
        with pytest.raises(SingularMetric):
            projection_set(spec, np.zeros(2))

    @pytest.mark.parametrize("lapack", ["factors NaN", "raises on NaN"])
    def test_nan_metric_is_not_finite_on_either_lapack(self, lapack, monkeypatch):
        """A NaN metric reads "not finite" whether the Cholesky factorization returns NaN pivots or raises."""
        if lapack == "raises on NaN":
            cholesky = np.linalg.cholesky

            def strict(G):
                if not np.isfinite(G).all():
                    raise np.linalg.LinAlgError("Matrix is not positive definite")
                return cholesky(G)

            monkeypatch.setattr(np.linalg, "cholesky", strict)

        @stacked
        def metric(q):
            return np.diag([1.0, np.nan])

        @stacked
        def omega(q):
            return np.zeros((0, 2))

        spec = SystemSpec(N=1, M=1, nu=0, metric=metric, omega=omega)
        with pytest.raises(SingularMetric, match="metric is not finite"):
            projection_set(spec, np.zeros(2))

    @pytest.mark.parametrize("lapack", ["fails to converge", "returns NaN"])
    def test_nan_omega_is_not_finite_on_either_lapack(self, lapack, monkeypatch):
        """A NaN ``omega`` reads "not finite" before the SVD, whether that SVD would raise or return NaN."""

        def svd(A):
            if lapack == "fails to converge":
                raise np.linalg.LinAlgError("SVD did not converge")
            S, k, n = A.shape
            return np.full((S, k, k), np.nan), np.full((S, k), np.nan), np.full((S, n, n), np.nan)

        monkeypatch.setattr(np.linalg, "svd", svd)

        @stacked
        def metric(q):
            return np.eye(3)

        @stacked
        def omega(q):
            return np.array([[1.0, np.nan, 0.0]])

        spec = SystemSpec(N=2, M=1, nu=1, metric=metric, omega=omega)
        with pytest.raises(ModelError, match="omega is not finite"):
            projection_set(spec, np.zeros(3))


class TestStackedCallbacks:
    @pytest.mark.parametrize("label, shape", [("metric", (4, 4)), ("omega", (2, 4))])
    def test_per_point_only_callback_is_rejected(self, racer, label, shape):
        """A callback that returns one point's shape for a stack is refused, naming the expected shape."""
        fn = getattr(racer.spec, label)
        spec = dataclasses.replace(racer.spec, **{label: lambda q: fn(np.reshape(q, (-1, 4))[0])})
        Q = sample_points(racer, 25, seed=9)
        # projection_set's stack has row 0 only; the tensors' stack adds a row per axis
        expected = re.escape(f"{label} returned shape {shape}, expected {(1, 1) + shape}")
        with pytest.raises(ValueError, match=expected):
            projection_set(spec, Q[0])
        expected = re.escape(f"{label} returned shape {shape}, expected {(25, 5) + shape}")
        with pytest.raises(ValueError, match=expected):
            _projection_stack(spec, Q, np.eye(4))

    def test_projection_set_makes_one_complex_call_of_each_callback(self, racer, ball):
        """The splitting alone runs the same complex front as the tensors, with no derivative rows: no real call."""
        for bundle in (racer, ball):
            calls = Counter()
            P = projection_set(counting_spec(bundle.spec, calls), bundle.default_q0)
            n = bundle.spec.dim
            assert dict(calls) == {("metric", "complex", (1, 1, n)): 1, ("omega", "complex", (1, 1, n)): 1}
            assert P.g.dtype == P.Om.dtype == np.dtype(float)


class TestFrames:
    def test_published_racer_frame_blocks_are_orthogonal(self, racer):
        """Blocks {w1}, {v2, v3}, {v4} are mutually orthogonal in the metric.

        (v2 and v3 need not be orthogonal to each other inside their block.)
        """
        from nonholo.models import racer_frame_vectors

        spec = racer.spec
        q = np.array([0.4, 1.1, -0.2, 0.5])
        vecs = racer_frame_vectors(racer.params, q)
        g = spec.metric(q)
        V = np.column_stack([vecs["w1"], vecs["v2"], vecs["v3"], vecs["v4"]])
        gram = V.T @ g @ V
        cross = np.abs(
            [gram[0, 1], gram[0, 2], gram[0, 3], gram[1, 3], gram[2, 3]]
        )
        assert cross.max() < 1e-10
        # w1 spans block I and v4 is the unit-control lift
        P = projection_set(spec, q)
        assert np.abs(P.P_I @ vecs["w1"] - vecs["w1"]).max() < 1e-10
        assert np.abs(P.h[:, 0] - vecs["v4"]).max() < 1e-10

    def test_racer_frame_chart_boundary(self, racer):
        from nonholo.models import racer_frame_vectors

        with pytest.raises(ChartDomain):
            racer_frame_vectors(racer.params, np.array([0.0, 0.0, 0.0, 0.3]))
        with pytest.raises(ChartDomain):
            racer_frame_vectors(racer.params, np.array([0.0, 1.0, 0.0, np.pi / 2]))


class TestArgminCertificate:
    """The lift is the energy-minimal admissible velocity with given controls."""

    def test_certificates_pass_on_models(self, racer, ball):
        gen = np.random.default_rng(13)
        for bundle in (racer, ball):
            for q in sample_points(bundle, 5, seed=17):
                v = gen.uniform(-1.0, 1.0, size=bundle.spec.M)
                ok, margin = argmin_certificate(bundle.spec, q, v, trials=16, rng=gen)
                assert ok
                assert margin >= -1e-12

    @given(seed=st.integers(0, 10**6))
    def test_certificates_on_random_systems(self, seed):
        spec = random_system(seed, N=3, M=1, nu=1)
        gen = np.random.default_rng(seed + 2)
        q = gen.uniform(-1.0, 1.0, size=spec.dim)
        ok, margin = argmin_certificate(spec, q, np.array([1.0]), trials=8, rng=gen)
        assert ok and margin >= -1e-12



#: every pointwise entry on the racer at ``q``, with a control held at 0.2 where it takes one
POINTWISE_ENTRIES = {
    "projection_set": lambda racer, q: projection_set(racer.spec, q),
    "argmin_certificate": lambda racer, q: argmin_certificate(racer.spec, q, np.array([1.0])),
    "centrifugal_psi": lambda racer, q: centrifugal_psi(racer.spec, q, np.array([1.0])),
    "frame_coefficients": lambda racer, q: frame_coefficients(racer.spec, q),
    "frame_rhs": lambda racer, q: frame_rhs(racer.spec, q, np.array([0.1]), 0.0, ControlSignal.constant(0.2)),
    "leaf_metric_derivative": lambda racer, q: leaf_metric_derivative(racer.spec, q, np.array([1.0]), np.zeros(4)),
    "_closed_rhs": lambda racer, q: _closed_rhs(
        racer.spec, racer.extract_closed, q, np.array([0.1]), 0.0, ControlSignal.constant(0.2)
    ),
}


class TestPointwiseEntries:
    @pytest.mark.parametrize(
        "q",
        [[np.nan, 1.1, -0.5, 0.2], [0.0, 1.1, -0.5, np.inf], [0.0, 1.1, -0.5], [0.0, 1.1, -0.5, 0.2, 0.0]],
        ids=["nan-free-coordinate", "inf-control", "too-short", "too-long"],
    )
    @pytest.mark.parametrize("entry", sorted(POINTWISE_ENTRIES))
    def test_refuses_a_bad_point(self, racer, entry, q):
        """A non-finite or wrong-length ``q`` is a ``ValueError`` before any callback call, where ``[0, 1.1, -0.5, 0.2]`` runs.

        On the racer, whose callbacks ignore ``q1``, NaN there gave finite results, and ``projection_set`` on a
        three-entry ``q`` raised NumPy's broadcast error.
        """
        call = POINTWISE_ENTRIES[entry]
        call(racer, np.array([0.0, 1.1, -0.5, 0.2]))
        calls = Counter()
        spied = dataclasses.replace(racer, spec=counting_spec(racer.spec, calls))
        with pytest.raises(ValueError, match=r"q must be finite and of shape \(4,\)"):
            call(spied, np.array(q))
        assert not calls
