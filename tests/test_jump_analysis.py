"""Jump-fitness diagnostics: scans, structural sufficiency, leaf derivative."""

import dataclasses

import numpy as np
import pytest

from nonholo import jump_analysis, reduced_dynamics
from nonholo.core_geometry import SystemSpec, projection_set
from nonholo.errors import ChartDomain, NotInDeltaCapGamma, RankDeficiency, SingularDenominator
from nonholo.jump_analysis import (
    GRAY_FACTOR,
    BoxSampler,
    ConditionResult,
    FitnessReport,
    SufficiencyReport,
    leaf_metric_derivative,
    psi_scan,
    sufficiency_check,
    theta_on_III_scan,
)
from nonholo.models import build_model, racer_frame_vectors, roller_racer_spec
from nonholo.reduced_dynamics import centrifugal_psi, coefficient_tensors, theta_I_apply

from conftest import random_system, sample_points, stacked


def euclidean_racer_forms() -> SystemSpec:
    """Identity metric carrying the Roller Racer's position-dependent forms.

    A deliberately synthetic system: curved constraint distribution in a flat
    chart.  Complex-safe, like every model callback.
    """

    @stacked
    def metric(q):
        return np.eye(4)

    @stacked
    def omega(q):
        q2, u = q[1], q[3]
        return np.array(
            [
                [np.cos(q2), 0.0, -np.sin(q2), 0.0],
                [np.cos(q2 + u), np.cos(u), -np.sin(q2 + u), 0.0],
            ]
        )

    return SystemSpec(N=3, M=1, nu=2, metric=metric, omega=omega)


def control_dependent_metric() -> SystemSpec:
    """A complex-safe system whose metric, and so its inverse, depends on the control ``q4``."""

    @stacked
    def metric(q):
        s, c = np.sin(q[3]), np.cos(q[0])
        return np.array(
            [
                [2.0 + 0.5 * s, 0.0, 0.0, 0.3 * s],
                [0.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 1.5 + 0.5 * c, 0.0],
                [0.3 * s, 0.0, 0.0, 1.0],
            ]
        )

    @stacked
    def omega(q):
        return np.array([[1.0, np.cos(q[1]), 0.0, 0.2 * np.sin(q[3])]])

    return SystemSpec(N=3, M=1, nu=1, metric=metric, omega=omega)


def reference_sufficiency(spec, basis_field, sampler, n_samples, metric_tol=1e-10, representation_tol=1e-9, step=5e-6):
    """The structural check as first implemented: one point at a time, differencing the inverse metric.

    Each sample gets a checked splitting (block ranks included) and central
    differences of the inverse metric at ``q ± h e_u`` along every control
    (``h = step * max(1, |q_u|)``).
    """
    pts = sampler.points(n_samples)
    max_dg = 0.0
    max_rep = 0.0
    rep_ref = None
    evaluated = 0
    for q in pts:
        try:
            P = projection_set(spec, q)
            B = np.asarray(basis_field(q), dtype=float)
            rep = B.T @ P.Pstar_I @ np.linalg.inv(B).T
            for alpha in range(spec.M):
                i = spec.N + alpha
                h = step * max(1.0, abs(float(q[i])))
                qp, qm = q.copy(), q.copy()
                qp[i] += h
                qm[i] -= h
                dg = (np.linalg.inv(spec.metric(qp)) - np.linalg.inv(spec.metric(qm))) / (2.0 * h)
                max_dg = max(max_dg, float(np.abs(dg).max()))
        except (RankDeficiency, ChartDomain, SingularDenominator):
            continue
        evaluated += 1
        if rep_ref is None:
            rep_ref = rep
        else:
            max_rep = max(max_rep, float(np.abs(rep - rep_ref).max()))
    return SufficiencyReport(
        declared_flat=False,
        metric_control_dependence=ConditionResult("", evaluated > 0 and max_dg <= metric_tol, max_dg, metric_tol),
        representation_constancy=ConditionResult("", evaluated > 0 and max_rep <= representation_tol, max_rep, representation_tol),
        sample_count=evaluated,
    )


def richardson_leaf_derivative(spec, q, v, w, step=1e-3):
    """``leaf_metric_derivative`` by differencing whole splittings along ``w``.

    Central differences of the lifted energy at steps ``h`` and ``h / 2``
    (``h = step * max(1, max |q|) / |w|``) combined by one Richardson
    extrapolation, so the truncation error is fourth order.
    """

    def energy(point):
        z = projection_set(spec, point, check=False).h @ v
        return float(z @ spec.metric(point) @ z)

    def central(h):
        return (energy(q + h * w) - energy(q - h * w)) / (2.0 * h)

    h = step * max(1.0, float(np.abs(q).max())) / float(np.linalg.norm(w))
    return (4.0 * central(0.5 * h) - central(h)) / 3.0


class TestBoxSampler:
    def test_reseeding_reproduces_draws(self):
        box = np.array([[-1.0, 1.0], [0.0, 2.0]])
        a = BoxSampler(box, seed=11).points(7)
        b = BoxSampler(box, seed=11).points(7)
        assert np.array_equal(a, b)
        c = BoxSampler(box, seed=12).points(7)
        assert not np.array_equal(a, c)

    def test_points_stay_in_box(self):
        box = np.array([[-2.0, -1.0], [3.0, 3.5], [0.0, 0.1]])
        pts = BoxSampler(box, seed=3).points(200)
        assert np.all(pts >= box[:, 0])
        assert np.all(pts <= box[:, 1])

    def test_unit_directions_are_normalized(self):
        dirs = BoxSampler(np.array([[0.0, 1.0]]), seed=5).unit_directions(6, 50)
        assert np.abs(np.linalg.norm(dirs, axis=1) - 1.0).max() < 1e-12

    def test_rejects_bad_boxes(self):
        with pytest.raises(ValueError):
            BoxSampler(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            BoxSampler(np.array([[1.0, 0.0]]))


class TestScans:
    def test_ball_is_fit_under_both_scans(self, ball):
        sampler = BoxSampler(ball.sample_box, seed=0)
        psi = psi_scan(ball.spec, sampler, n_samples=60, tol=1e-7)
        theta = theta_on_III_scan(ball.spec, BoxSampler(ball.sample_box, seed=1), n_samples=60, tol=1e-7)
        assert psi.verdict == "fit"
        assert theta.verdict == "fit"
        assert psi.max_value < 1e-8
        assert theta.max_value < 1e-8

    def test_racer_is_not_fit_under_both_scans(self, racer):
        psi = psi_scan(racer.spec, BoxSampler(racer.sample_box, seed=0), n_samples=40)
        theta = theta_on_III_scan(racer.spec, BoxSampler(racer.sample_box, seed=1), n_samples=40)
        assert psi.verdict == "not-fit"
        assert theta.verdict == "not-fit"
        assert psi.worst_point is not None
        assert psi.worst_direction is not None
        # the witness is a genuine evaluation, reproducible after the scan
        witness = centrifugal_psi(racer.spec, psi.worst_point, psi.worst_direction)
        assert float(np.abs(witness).max()) == pytest.approx(psi.max_value, rel=1e-12)

    def test_flat_toy_scans_to_exact_zero(self, toy, toy_constrained):
        for bundle in (toy, toy_constrained):
            rep = psi_scan(bundle.spec, BoxSampler(bundle.sample_box, seed=2), n_samples=20)
            assert rep.verdict == "fit"
            assert rep.max_value == 0.0

    @pytest.mark.parametrize("scan", [psi_scan, theta_on_III_scan])
    def test_system_without_controls_scans_to_zero(self, scan):
        bundle = build_model("euclidean-toy", n_controls=0)
        rep = scan(bundle.spec, BoxSampler(bundle.sample_box, seed=2), n_samples=5)
        assert rep.verdict == "fit"
        assert rep.max_value == 0.0
        assert rep.sample_count == 5
        assert rep.worst_point is None

    def test_gray_band_is_inconclusive(self, racer):
        """A tolerance placed just under the witness maximum refuses a verdict."""
        sampler = BoxSampler(racer.sample_box, seed=0)
        rep = psi_scan(racer.spec, sampler, n_samples=40, tol=0.2)
        assert rep.max_value > 0.2
        assert rep.max_value <= GRAY_FACTOR * 0.2
        assert rep.verdict == "inconclusive"

    def test_all_failed_scan_is_inconclusive(self):
        """Rank-deficient constraints void every sample."""

        @stacked
        def metric(q):
            return np.eye(4)

        @stacked
        def omega(q):
            row = np.array([[1.0, 0.0, 0.0, 0.0]])
            return np.vstack([row, row])  # repeated form: rank 1 < nu = 2

        spec = SystemSpec(N=3, M=1, nu=2, metric=metric, omega=omega)
        rep = psi_scan(spec, BoxSampler(np.tile([-1.0, 1.0], (4, 1)), seed=0), n_samples=10)
        assert rep.verdict == "inconclusive"
        assert rep.sample_count == 0
        assert rep.failures == 10

    @pytest.mark.parametrize("scan", [psi_scan, theta_on_III_scan])
    @pytest.mark.parametrize("model", ["racer", "ball"])
    def test_worst_direction_sign_is_canonical(self, scan, model, racer, ball, monkeypatch):
        """Negating every direction an evaluation returns leaves the report unchanged.

        A direction and its negative give the same quadratic value, so the
        report signs the worst one: its largest-magnitude entry is positive.
        """
        bundle = {"racer": racer, "ball": ball}[model]
        ref = scan(bundle.spec, BoxSampler(bundle.sample_box, seed=6), n_samples=20)
        d = ref.worst_direction
        assert d[np.abs(d).argmax()] > 0.0
        shared = jump_analysis._scan

        def negating_scan(*args):
            *head, evaluate, seed_dim = args

            def negated(*inputs):
                values, used = evaluate(*inputs)
                return values, -used

            return shared(*head, negated, seed_dim)

        monkeypatch.setattr(jump_analysis, "_scan", negating_scan)
        got = scan(bundle.spec, BoxSampler(bundle.sample_box, seed=6), n_samples=20)
        assert got.to_text() == ref.to_text()

    def test_report_text_mentions_witness(self, racer):
        rep = psi_scan(racer.spec, BoxSampler(racer.sample_box, seed=0), n_samples=10)
        text = rep.to_text()
        assert "verdict: not-fit" in text
        assert "worst point:" in text
        assert "worst direction:" in text


def chart_limited_racer() -> SystemSpec:
    """The Roller Racer with its chart cut at ``q1 = 0.3``: ``omega`` raises :class:`ChartDomain` beyond."""
    spec = roller_racer_spec()

    @stacked
    def omega(q):
        if q[0].real > 0.3:
            raise ChartDomain(f"outside the chart at q1 = {q[0].real:.3f}")
        return spec.omega(q)

    return dataclasses.replace(spec, omega=omega)


def rank_losing_racer() -> SystemSpec:
    """The Roller Racer, but with dependent forms wherever ``q1 > 0.2`` (constraint block of rank 1)."""
    spec = roller_racer_spec()

    @stacked
    def omega(q):
        Om = spec.omega(q)
        if q[0].real > 0.2:
            Om[1] = (1.0 + 0.5 * q[2]) * Om[0]
        return Om

    return dataclasses.replace(spec, omega=omega)


def reference_scan(spec, box, seed, n_samples, quantity):
    """A scan one point and one seed at a time, through the single-point API.

    Reproduces the scans' draws and tie-break: the first point and seed that
    reach the maximum win.  The winning direction is signed so that its
    largest-magnitude entry is positive.  Returns ``(failures, max_value,
    point, direction)``.
    """
    M = spec.M
    sampler = BoxSampler(box, seed=seed)
    pts = sampler.points(n_samples)
    rand = sampler.unit_directions(M if quantity == "Psi" else spec.dim, 2 * M * n_samples)
    failures, best = 0, None
    for i, q in enumerate(pts):
        try:
            T = coefficient_tensors(spec, q)
        except (RankDeficiency, ChartDomain, SingularDenominator):
            failures += 1
            continue
        for e in list(np.eye(M)) + list(rand[2 * M * i : 2 * M * (i + 1)]):
            if quantity == "Psi":
                val, used = float(np.abs(centrifugal_psi(spec, q, e, tensors=T)).max()), e
            else:
                P = T.projections
                w = P.Pstar_III @ (P.k @ e if e.shape[0] == M else e)
                norm = float(np.linalg.norm(w))
                if norm < 1e-12:
                    val, used = 0.0, w
                else:
                    w = w / norm
                    val, used = float(np.abs(theta_I_apply(spec, q, w, w, tensors=T)).max()), w
            if best is None or val > best[0]:
                best = (val, q, used)
    if best is None:
        return failures, 0.0, None, None
    val, q, used = best
    return failures, val, q, used if used[np.abs(used).argmax()] > 0.0 else -used


def assert_matches_reference(spec, box, seed, n_samples, scan, quantity):
    rep = scan(spec, BoxSampler(box, seed=seed), n_samples=n_samples)
    failures, value, point, direction = reference_scan(spec, box, seed, n_samples, quantity)
    assert rep.failures == failures
    assert rep.sample_count == n_samples - failures
    assert rep.max_value == pytest.approx(value, rel=1e-13, abs=1e-300)
    assert np.array_equal(rep.worst_point, point)
    assert np.abs(rep.worst_direction - direction).max() <= 1e-13
    return rep


class TestBatchedScans:
    """Scans push all their points through one stacked kernel."""

    @pytest.mark.parametrize(
        "name, options",
        [
            ("roller-racer", {}),
            ("rolling-ball", {}),
            ("roller-racer", {"metric_perturb": 0.05}),
            ("rolling-ball", {"metric_perturb": 0.05}),
            ("euclidean-toy", {}),
            ("euclidean-toy", {"constrained": True}),
        ],
    )
    def test_stacked_kernel_matches_single_points(self, name, options):
        bundle = build_model(name, **options)
        Q = sample_points(bundle, 25, seed=81)
        keep, stacked = reduced_dynamics._tensor_stack(bundle.spec, Q)
        assert keep.all()
        for i, q in enumerate(Q):
            single = coefficient_tensors(bundle.spec, q)
            pairs = [(getattr(stacked, f)[i], getattr(single, f)) for f in ("dPstar_I", "dginv", "dk", "dg")]
            pairs += [
                (getattr(stacked.projections, f)[i], getattr(single.projections, f))
                for f in ("P_I", "Pstar_I", "h", "k", "R_II", "I_basis", "g", "ginv", "Om", "P_II", "P_III")
            ]
            for got, ref in pairs:
                assert got.shape == ref.shape
                assert np.abs(got - ref).max(initial=0.0) <= 1e-14 * max(1.0, np.abs(ref).max(initial=0.0))

    @pytest.mark.parametrize("quantity", ["Psi", "theta_on_III"])
    def test_scans_match_per_point_reference(self, racer, ball, quantity):
        scan = psi_scan if quantity == "Psi" else theta_on_III_scan
        for bundle in (racer, ball):
            assert_matches_reference(bundle.spec, bundle.sample_box, 9, 25, scan, quantity)

    @pytest.mark.parametrize("quantity", ["Psi", "theta_on_III"])
    def test_chart_failures_are_skipped_point_by_point(self, quantity):
        scan = psi_scan if quantity == "Psi" else theta_on_III_scan
        box = np.array([[-1.0, 1.0], [0.3, 2.8], [-1.0, 1.0], [-1.2, 1.2]])
        rep = assert_matches_reference(chart_limited_racer(), box, 3, 40, scan, quantity)
        assert 0 < rep.failures < 40
        assert rep.verdict == "not-fit"

    @pytest.mark.parametrize("quantity", ["Psi", "theta_on_III"])
    def test_rank_failures_are_skipped_point_by_point(self, quantity):
        scan = psi_scan if quantity == "Psi" else theta_on_III_scan
        box = np.array([[-1.0, 1.0], [0.3, 2.8], [-0.8, 0.8], [-1.2, 1.2]])
        rep = assert_matches_reference(rank_losing_racer(), box, 4, 40, scan, quantity)
        assert 0 < rep.failures < 40
        assert rep.verdict == "not-fit"

    def test_points_failing_in_the_derivative_stage_leave_the_stack(self):
        """A chart error at the complex points drops the point after its splitting was built."""
        base = chart_limited_racer()

        @stacked
        def omega(q):
            if np.iscomplexobj(q) and q[0].real < -0.5:
                raise ChartDomain("complex evaluation off the chart")
            return base.omega(q)

        spec = dataclasses.replace(base, omega=omega)
        Q = np.random.default_rng(5).uniform([-1.0, 0.3, -1.0, -1.2], [0.3, 2.8, 1.0, 1.2], size=(30, 4))
        keep, T = reduced_dynamics._tensor_stack(spec, Q, skip=(ChartDomain,))
        assert 0 < keep.sum() < 30
        assert np.array_equal(keep, Q[:, 0] >= -0.5)
        for i, j in enumerate(np.flatnonzero(keep)):
            single = coefficient_tensors(base, Q[j])
            assert np.abs(T.projections.P_I[i] - single.projections.P_I).max() <= 1e-14
            assert np.abs(T.dPstar_I[i] - single.dPstar_I).max() <= 1e-14


class TestSufficiency:
    def test_ball_conditions_hold(self, ball):
        rep = sufficiency_check(
            ball.spec,
            ball.constancy_basis,
            BoxSampler(ball.sample_box, seed=4),
            n_samples=40,
            declared_flat=ball.declared_flat,
        )
        assert rep.sufficient
        assert rep.metric_control_dependence.passed
        assert rep.representation_constancy.passed
        assert "imply fitness" in rep.to_text()

    def test_racer_conditions_fail(self, racer):
        rep = sufficiency_check(
            racer.spec,
            racer.constancy_basis,
            BoxSampler(racer.sample_box, seed=4),
            n_samples=40,
            declared_flat=racer.declared_flat,
        )
        assert not rep.sufficient
        assert not rep.representation_constancy.passed
        assert rep.representation_constancy.observed > 0.1
        assert "FAILS" in rep.to_text()

    def test_toy_conditions_hold(self, toy_constrained):
        rep = sufficiency_check(
            toy_constrained.spec,
            toy_constrained.constancy_basis,
            BoxSampler(toy_constrained.sample_box, seed=4),
            n_samples=20,
            declared_flat=True,
        )
        assert rep.sufficient

    @pytest.mark.parametrize(
        "name",
        ["roller-racer", "rolling-ball", "euclidean-toy", "constrained-toy", "random", "control-dependent"],
    )
    def test_matches_per_point_reference(self, name):
        """The stacked check reproduces the per-point loop that differenced the inverse metric.

        ``random`` is a two-control system of random data;
        ``control-dependent`` makes the inverse-metric condition fail.
        """
        if name == "random":
            spec, box, basis = random_system(8, N=3, M=2, nu=1), np.tile([-1.0, 1.0], (5, 1)), lambda q: np.eye(5)
        elif name == "control-dependent":
            spec, box, basis = control_dependent_metric(), np.tile([-1.0, 1.0], (4, 1)), lambda q: np.eye(4)
        else:
            options = {"constrained": True} if name == "constrained-toy" else {}
            bundle = build_model("euclidean-toy" if name.endswith("toy") else name, **options)
            spec, box, basis = bundle.spec, bundle.sample_box, bundle.constancy_basis
        rep = sufficiency_check(spec, basis, BoxSampler(box, seed=12), n_samples=30)
        ref = reference_sufficiency(spec, basis, BoxSampler(box, seed=12), n_samples=30)
        assert rep.sample_count == ref.sample_count == 30
        assert rep.metric_control_dependence.passed == ref.metric_control_dependence.passed
        assert rep.representation_constancy.passed == ref.representation_constancy.passed
        assert rep.representation_constancy.observed == ref.representation_constancy.observed
        dep, ref_dep = rep.metric_control_dependence.observed, ref.metric_control_dependence.observed
        assert abs(dep - ref_dep) <= 1e-9 * (1.0 + ref_dep)
        if name == "control-dependent":
            assert not rep.metric_control_dependence.passed and dep > 0.1
            assert "inverse metric independent of controls: FAILS" in rep.to_text()

    @pytest.mark.parametrize("failure", ["basis", "chart", "rank"])
    def test_skips_match_per_point_reference(self, failure, ball):
        """Samples dropped by ``basis_field``, by the callbacks or by the constraint rank, as in the loop."""
        if failure == "basis":
            spec, box = ball.spec, ball.sample_box

            def basis(q):
                if q[0] > 0.0:
                    raise ChartDomain("basis undefined for q1 > 0")
                return ball.constancy_basis(q)

        else:
            spec = chart_limited_racer() if failure == "chart" else rank_losing_racer()
            box = np.array([[-1.0, 1.0], [0.3, 2.8], [-0.8, 0.8], [-1.2, 1.2]])

            def basis(q):
                return np.eye(4)

        rep = sufficiency_check(spec, basis, BoxSampler(box, seed=13), n_samples=30)
        ref = reference_sufficiency(spec, basis, BoxSampler(box, seed=13), n_samples=30)
        assert 0 < rep.sample_count == ref.sample_count < 30
        assert rep.representation_constancy.observed == ref.representation_constancy.observed
        assert rep.metric_control_dependence.observed == ref.metric_control_dependence.observed == 0.0

    def test_sufficiency_implies_scan_fitness(self, ball, toy, toy_constrained, racer):
        """One-way implication: wherever the structural check passes, Psi scans fit."""
        for bundle in (ball, toy, toy_constrained, racer):
            rep = sufficiency_check(
                bundle.spec,
                bundle.constancy_basis,
                BoxSampler(bundle.sample_box, seed=6),
                n_samples=30,
                declared_flat=bundle.declared_flat,
            )
            if rep.sufficient:
                scan = psi_scan(bundle.spec, BoxSampler(bundle.sample_box, seed=7), n_samples=30)
                assert scan.verdict == "fit"


class TestLeafMetricDerivative:
    def test_zero_inputs_give_zero(self, racer):
        q = np.array([0.0, 1.2, 0.0, 0.3])
        w1 = racer_frame_vectors(racer.params, q)["w1"]
        assert leaf_metric_derivative(racer.spec, q, np.zeros(1), w1) == 0.0
        assert leaf_metric_derivative(racer.spec, q, np.ones(1), np.zeros(4)) == 0.0

    def test_rejects_non_free_direction(self, racer):
        q = np.array([0.0, 1.2, 0.0, 0.3])
        v2 = racer_frame_vectors(racer.params, q)["v2"]
        with pytest.raises(NotInDeltaCapGamma):
            leaf_metric_derivative(racer.spec, q, np.ones(1), v2)

    @pytest.mark.parametrize("name", ["roller-racer", "rolling-ball"])
    @pytest.mark.parametrize("perturb", [0.0, 0.05])
    def test_closed_form_matches_richardson(self, name, perturb):
        """The tensor formula against a fourth-order difference of whole splittings."""
        bundle = build_model(name, metric_perturb=perturb)
        gen = np.random.default_rng(19)
        for q in sample_points(bundle, 8, seed=77):
            B = projection_set(bundle.spec, q).I_basis
            v = gen.uniform(-1.0, 1.0, size=bundle.spec.M)
            w = B @ gen.uniform(-1.0, 1.0, size=B.shape[1])
            got = leaf_metric_derivative(bundle.spec, q, v, w)
            ref = richardson_leaf_derivative(bundle.spec, q, v, w)
            assert abs(got - ref) <= 1e-8 * (1.0 + abs(ref))

    def test_both_diagnostics_vanish_on_euclidean_racer_forms(self):
        """Identity metric with the racer's forms: ``<Psi[v,v], w>`` and ``dE[w]`` are both zero.

        Zero to rounding at every sampled point and free direction ``w``.  The
        two are not equal pointwise in general: on random systems with an
        identity metric they disagree.
        """
        spec = euclidean_racer_forms()
        gen = np.random.default_rng(17)
        for _ in range(10):
            q = gen.uniform([-1.0, 0.4, -1.0, -1.0], [1.0, 2.7, 1.0, 1.0])
            v = gen.uniform(-1.0, 1.0, size=1)
            W = projection_set(spec, q).I_basis
            w = W @ gen.uniform(-1.0, 1.0, size=W.shape[1])
            assert abs(float(centrifugal_psi(spec, q, v) @ w)) <= 1e-15
            assert abs(leaf_metric_derivative(spec, q, v, w)) <= 1e-15

    def test_racer_lift_energy_constant_along_leaves(self, racer):
        """The racer's lift energy depends on the control angle only."""
        worst = 0.0
        for q in sample_points(racer, 10, seed=71):
            w1 = racer_frame_vectors(racer.params, q)["w1"]
            d = leaf_metric_derivative(racer.spec, q, np.ones(1), w1)
            worst = max(worst, abs(d))
        assert worst < 1e-8

    def test_ball_lift_energy_varies_along_leaves(self, ball):
        """Curved metric: the same diagnostic is chart-dependent and nonzero.

        The ball is jump-fit (its Psi scan vanishes), yet its lift energy
        grows with the contact point's distance from the turntable axis, so
        the flat-chart reading of this diagnostic does not transfer.
        """
        worst = 0.0
        for q in sample_points(ball, 10, seed=73):
            P = projection_set(ball.spec, q)
            w = P.I_basis @ np.array([0.3, -0.2, 0.4])
            d = leaf_metric_derivative(ball.spec, q, np.ones(1), w)
            worst = max(worst, abs(d))
        assert worst > 0.05

    def test_matches_explicit_ball_energy_formula(self, ball):
        """The ball's lift energy is 1 + kappa^2 (x^2 + y^2) / (kappa^2 + r^2):

        growing with the contact point's distance from the axis, which is the
        quantity the previous test differentiates.
        """
        p = ball.params
        kappa2, r2 = p.gyration2, p.radius**2
        for q in sample_points(ball, 5, seed=75):
            P = projection_set(ball.spec, q)
            z = P.h @ np.ones(1)
            energy = float(z @ P.g @ z)
            x, y = q[3], q[4]
            expected = 1.0 + kappa2 * (x**2 + y**2) / (kappa2 + r2)
            assert energy == pytest.approx(expected, rel=1e-10)
