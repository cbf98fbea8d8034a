"""Integrator behaviour: order, diagnostics, CSV output, dither experiments."""

import csv
from collections import Counter
from functools import cached_property

import numpy as np
import pytest

from nonholo import reduced_dynamics, simulate
from nonholo.core_geometry import SystemSpec, projection_set
from nonholo.errors import (
    ModelError,
    NonAdaptedState,
    NotInDeltaCapGamma,
    RankDeficiency,
    SingularMetric,
    StepRejected,
)
from nonholo.models import build_model, racer_frame_vectors, roller_racer_closed_rhs
from nonholo.reduced_dynamics import ControlSignal, reduced_rhs
from nonholo.simulate import (
    IntegratorConfig,
    Trajectory,
    integrate,
    oscillation_sweep,
    rk4_path,
    two_timescale_coefficient,
)

from conftest import ball_free_block, counting_spec, random_system


def midstep_fault_spec(fault):
    """``N = 3``, ``M = 1``, ``nu = 2`` toy whose callbacks fail a check of the Maggi stage only where ``|u| > 0.9``.

    ``fault`` is ``"metric"`` (``g[0, 0]`` falls to 1e-20 at ``u = 1``: the
    pivot ratio test), ``"rank"`` (the constraint rows become parallel to
    within 1e-12 at ``u = 1``: the rank test) or ``"complex"`` (the metric
    drops its imaginary part: complex safety).  Under ``u = sin(pi t / dt)``
    the samples and stage k4 sit at ``u ~ 0`` and stages k2 and k3 at ``u = 1``.
    """

    def metric(q):
        u = q[..., 3]
        faulty = np.abs(np.real(u)).max() > 0.9
        dtype = float if fault == "complex" and faulty else np.result_type(q, float)
        g = np.zeros(q.shape[:-1] + (4, 4), dtype=dtype)
        g[..., [1, 2, 3], [1, 2, 3]] = 1.0
        g[..., 0, 0] = (1.0 - u * u) ** 2 + 1e-20 if fault == "metric" else 1.0 + u * u
        return g

    def omega(q):
        u = q[..., 3]
        Om = np.zeros(q.shape[:-1] + (2, 4), dtype=np.result_type(q, float))
        Om[..., 0, 0] = Om[..., 1, 0] = 1.0
        Om[..., 1, 1] = 1.0 - u * u + 1e-12 if fault == "rank" else 1.0 + 0.0 * u
        return Om

    return SystemSpec(N=3, M=1, nu=2, metric=metric, omega=omega)


def racer_momentum(bundle, q, xi):
    g = bundle.spec.metric(q)
    return xi * (g @ racer_frame_vectors(bundle.params, q)["w1"])


def ambient_reference(spec, q0, p0, control, t_span, dt):
    """``(q, p_I)`` samples of classical RK4 on ``[q_free, p_I]`` with ``f = reduced_rhs``, no reprojection.

    An independent reference for ``integrate``, which steps Maggi's
    equations in ``xi``: the same reduced dynamics in the ambient momentum,
    on the time grid ``integrate`` uses.
    """
    N = spec.N
    nsteps = max(1, round((t_span[1] - t_span[0]) / dt))
    h = (t_span[1] - t_span[0]) / nsteps

    def assemble(t, y):
        return np.concatenate([y[:N], np.atleast_1d(control.value(t))])

    def f(t, y):
        qdot, pIdot = reduced_rhs(spec, assemble(t, y), y[N:], t, control)
        return np.concatenate([qdot[:N], pIdot])

    q = np.array(q0, dtype=float)
    y = np.concatenate([q[:N], projection_set(spec, q).Pstar_I @ p0])
    rows = []
    for step in range(nsteps + 1):
        t = t_span[0] + step * h
        rows.append(np.concatenate([assemble(t, y), y[N:]]))
        if step < nsteps:
            k1 = f(t, y)
            k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
            k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
            k4 = f(t + h, y + h * k3)
            y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return np.array(rows)


def reference_gap(traj, ref):
    """Largest gap in ``(q, p_I)`` between a trajectory and :func:`ambient_reference`, relative to ``1 + max |ref|``."""
    return float(np.abs(np.hstack([traj.q, traj.p_I]) - ref).max()) / (1.0 + float(np.abs(ref).max()))


class TestIntegratorConfig:
    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.0)

    @pytest.mark.parametrize("key", ["dt", "hard_residual"])
    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_values_that_are_not_positive_and_finite(self, key, value):
        """A NaN ``hard_residual`` would turn off ``StepRejected``; an infinite ``dt`` would take one step."""
        with pytest.raises(ValueError, match=f"{key} must be positive and finite"):
            IntegratorConfig(**{key: value})

    def test_rejects_unknown_representation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(representation="quaternion")


@pytest.fixture(scope="module")
def coasting(racer):
    """Force-free constant-control run shared by the shape and energy tests."""
    return integrate(
        racer.spec,
        racer.default_q0,
        racer_momentum(racer, racer.default_q0, 0.1),
        ControlSignal.constant(0.0),
        (0.0, 1.0),
        IntegratorConfig(dt=1e-3),
    )


class TestIntegrate:
    def test_basic_run_shape_and_diagnostics(self, coasting):
        traj = coasting
        assert len(traj) == 1001
        assert np.all(np.diff(traj.t) > 0.0)
        assert traj.t[0] == 0.0 and traj.t[-1] == pytest.approx(1.0)
        # controlled coordinate mirrors the command exactly
        assert np.abs(traj.q[:, 3] - traj.u[:, 0]).max() == 0.0
        assert np.abs(traj.u).max() == 0.0
        assert traj.constraint_residual.max() < 1e-6
        assert traj.dalembert_residual.max() < 1e-4
        assert traj.meta["representation"] == "ambient"

    def test_zero_momentum_zero_rate_is_stationary(self, racer):
        q0 = racer.default_q0
        traj = integrate(
            racer.spec, q0, np.zeros(4), ControlSignal.constant(0.0), (0.0, 0.1),
            IntegratorConfig(dt=1e-2),
        )
        assert np.abs(traj.q - q0).max() == 0.0
        assert np.abs(traj.p_I).max() == 0.0
        assert np.abs(traj.H).max() == 0.0

    def test_energy_conserved_without_forcing(self, coasting):
        assert np.abs(coasting.H - coasting.H[0]).max() < 1e-8

    def test_ball_stays_at_rest_under_oscillating_turntable(self, ball):
        """Jump-fit system: zero free momentum is invariant under any control."""
        control = ControlSignal.sinusoid(0.0, 0.2, 2.0 * np.pi)
        traj = integrate(
            ball.spec,
            ball.default_q0,
            np.zeros(6),
            control,
            (0.0, 0.5),
            IntegratorConfig(dt=2e-3),
        )
        assert np.abs(traj.p_I).max() < 1e-6

    def test_racer_gains_momentum_under_oscillation(self, racer):
        """Unfit system: the same experiment pumps the free momentum."""
        control = ControlSignal.sinusoid(0.0, 0.2, 2.0 * np.pi)
        traj = integrate(
            racer.spec,
            racer.default_q0,
            np.zeros(4),
            control,
            (0.0, 1.0),
            IntegratorConfig(dt=2e-3),
        )
        y_end = racer.extract_closed(traj.q[-1], traj.p_I[-1])
        assert abs(y_end[3]) > 1e-3

    @pytest.mark.parametrize("perturb", [0.0, 0.05])
    def test_ball_frame_representation_matches_ambient(self, perturb):
        """The ball's trajectory agrees with the reference to 1e-12 relative, at every sample.

        ``integrate`` runs the generic frame, whose free vectors are not
        ``g``-orthogonal, with or without ``metric_perturb``; Maggi's
        equations must take that into account.
        """
        ball = build_model("rolling-ball", metric_perturb=perturb)
        q0 = ball.default_q0
        p0 = projection_set(ball.spec, q0).g @ ball_free_block(ball, q0) @ np.array([0.3, -0.2, 0.4])
        control = ControlSignal.sinusoid(q0[5], 0.3, 5.0)
        ref = ambient_reference(ball.spec, q0, p0, control, (0.0, 0.5), 2e-3)
        traj = integrate(ball.spec, q0, p0, control, (0.0, 0.5), IntegratorConfig(dt=2e-3, representation="frame"))
        assert reference_gap(traj, ref) <= 1e-12

    @pytest.mark.parametrize("name", ["roller-racer", "rolling-ball"])
    def test_representation_selects_only_the_record(self, name):
        """Both representations step the same state on the same frame: bitwise-equal samples."""
        bundle = build_model(name)
        q0 = bundle.default_q0
        p0 = projection_set(bundle.spec, q0).Pstar_I @ np.linspace(0.1, 0.4, bundle.spec.dim)
        control = ControlSignal.sinusoid(q0[bundle.spec.N :], 0.2, 5.0)
        amb, frm = (
            integrate(bundle.spec, q0, p0, control, (0.0, 0.2), IntegratorConfig(dt=1e-2, representation=rep))
            for rep in ("ambient", "frame")
        )
        for key in ("t", "q", "p_I", "H", "constraint_residual", "dalembert_residual", "u"):
            assert np.array_equal(getattr(amb, key), getattr(frm, key)), key
        assert amb.xi is None and frm.xi.shape == (21, bundle.spec.N - bundle.spec.nu)
        assert amb.meta["pivots"] == frm.meta["pivots"]
        assert "xi_1" not in amb.column_names() and "xi_1" in frm.column_names()

    @pytest.mark.parametrize("representation", ["ambient", "frame"])
    def test_no_tensor_build_in_either_representation(self, racer, representation, monkeypatch):
        """Neither representation builds coefficient tensors: stages and sample diagnostics need only the frame and the metric."""
        builds = {"tensors": 0, "assembled": 0}
        tensors = reduced_dynamics.coefficient_tensors
        assemble = reduced_dynamics._tensors_from

        def counted_tensors(*args, **kwargs):
            builds["tensors"] += 1
            return tensors(*args, **kwargs)

        def counted_assembly(*args):
            builds["assembled"] += 1
            return assemble(*args)

        monkeypatch.setattr(reduced_dynamics, "coefficient_tensors", counted_tensors)
        # every CoefficientTensors is assembled here, so no build goes uncounted
        monkeypatch.setattr(reduced_dynamics, "_tensors_from", counted_assembly)
        p0 = racer_momentum(racer, racer.default_q0, 0.1)
        integrate(
            racer.spec,
            racer.default_q0,
            p0,
            ControlSignal.sinusoid(0.0, 0.2, 2.0 * np.pi),
            (0.0, 0.01),
            IntegratorConfig(dt=1e-3, representation=representation),
        )
        assert builds["tensors"] == builds["assembled"] == 0

    def test_callback_calls_of_a_racer_run(self, racer):
        """A 10-step racer run calls ``metric`` and ``omega`` 42 times each.

        The splitting at ``t0`` calls each once, and the initial generic
        frame is read off its ``Om``; then each of the 11 samples' stage k1
        and each of the 30 later stages makes one complex call of each, on
        the stack ``q + i H [0; I_n]``.
        """
        calls = Counter()
        integrate(
            counting_spec(racer.spec, calls),
            racer.default_q0,
            racer_momentum(racer, racer.default_q0, 0.1),
            ControlSignal.sinusoid(0.0, 0.2, 2.0 * np.pi),
            (0.0, 0.01),
            IntegratorConfig(dt=1e-3),
        )
        totals = Counter()
        for (name, _, _), count in calls.items():
            totals[name] += count
        assert totals == Counter({"metric": 42, "omega": 42})
        assert calls["metric", "complex", (5, 4)] == calls["omega", "complex", (5, 4)] == 41

    def test_stage_call_pattern_of_a_racer_run(self, racer, monkeypatch):
        """The 10-step run of ``test_callback_calls_of_a_racer_run``, stage by stage.

        The adaptedness check runs once, at ``t0``; the generic frame's
        layout is built once for its one pivot set; each of the 41 Maggi
        stages (11 samples' k1, 30 later stages) makes two real ``inv``
        calls, ``A_d^-1`` and ``G^-1``, and no SVD, as the rank bound holds.
        """
        counts = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in ("inv", "svd"):
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        monkeypatch.setattr(simulate, "_check_adapted", counting("adapted", simulate._check_adapted))
        layout = reduced_dynamics._VoronetsFrame._layout
        built = Counter()

        def counting_layout(frame):
            built[frame.pivots] += 1
            return layout.func(frame)

        prop = cached_property(counting_layout)
        prop.__set_name__(reduced_dynamics._VoronetsFrame, "_layout")
        monkeypatch.setattr(reduced_dynamics._VoronetsFrame, "_layout", prop)
        stages = []
        maggi = simulate._maggi

        def per_stage(*args):
            before = Counter(counts)
            st = maggi(*args)
            stages.append((counts["inv"] - before["inv"], counts["svd"] - before["svd"], st.Ginv.dtype, st.Ainv.dtype))
            return st

        monkeypatch.setattr(simulate, "_maggi", per_stage)
        traj = integrate(
            racer.spec,
            racer.default_q0,
            racer_momentum(racer, racer.default_q0, 0.1),
            ControlSignal.sinusoid(0.0, 0.2, 2.0 * np.pi),
            (0.0, 0.01),
            IntegratorConfig(dt=1e-3),
        )
        assert counts["adapted"] == 1
        assert built == Counter({traj.meta["pivots"][0][1]: 1})
        assert stages == [(2, 0, np.dtype(float), np.dtype(float))] * 41

    @pytest.mark.parametrize(
        "fault, error",
        [("metric", SingularMetric), ("rank", RankDeficiency), ("complex", ModelError)],
    )
    def test_inner_stages_keep_the_front_checks(self, fault, error):
        """A fault that shows only at stages k2 and k3 (``|u| > 0.9``, between samples) still raises."""
        with pytest.raises(error):
            integrate(
                midstep_fault_spec(fault),
                np.zeros(4),
                np.zeros(4),
                ControlSignal.sinusoid(0.0, 1.0, np.pi / 0.1),
                (0.0, 0.2),
                IntegratorConfig(dt=0.1),
            )

    def test_midstep_fault_spec_is_sound_at_the_samples(self):
        """The toy of the previous test: at ``u = 0`` its callbacks are regular, so only the stages can fail."""
        for fault in ("metric", "rank", "complex"):
            spec = midstep_fault_spec(fault)
            q = np.zeros(4)
            assert np.linalg.cond(spec.metric(q)) < 10.0
            assert np.linalg.matrix_rank(spec.omega(q)[:, :3]) == 2
            assert np.iscomplexobj(spec.metric(q + 1j * np.array([0.0, 0.0, 0.0, 1e-30])))

    def test_rejects_wrong_q0_shape(self, racer):
        with pytest.raises(ValueError):
            integrate(racer.spec, np.zeros(3), np.zeros(4), ControlSignal.constant(0.0), (0.0, 1.0))

    def test_rejects_mismatched_initial_control(self, racer):
        q0 = np.array([0.0, 1.5, 0.0, 0.4])
        with pytest.raises(NonAdaptedState):
            integrate(racer.spec, q0, np.zeros(4), ControlSignal.constant(0.0), (0.0, 1.0))

    def test_rejects_nan_initial_control(self, racer):
        q0 = np.array([0.0, 1.5, 0.0, 0.4])
        with pytest.raises(NonAdaptedState):
            integrate(racer.spec, q0, np.zeros(4), ControlSignal.constant(np.nan), (0.0, 1.0))

    def test_rejects_a_control_that_turns_non_finite_after_t0(self, racer):
        """Stages assemble ``q`` from the control; one that reads a NaN control value is refused."""
        control = ControlSignal(lambda t: np.array([0.4 if t == 0.0 else np.nan]), lambda t: np.zeros(1), lambda t: np.zeros(1))
        q0 = np.array([0.0, 1.5, 0.0, 0.4])
        with pytest.raises(NonAdaptedState, match="not finite at t = 0.005"):
            integrate(racer.spec, q0, np.zeros(4), control, (0.0, 0.01), IntegratorConfig(dt=1e-2))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("which", ["q0", "p0"])
    def test_rejects_non_finite_initial_state(self, racer, which, value):
        q0, p0 = np.array([0.0, 1.5, 0.0, 0.4]), np.zeros(4)
        (q0 if which == "q0" else p0)[0] = value
        with pytest.raises(ValueError, match="q0 and p0 must be finite"):
            integrate(racer.spec, q0, p0, ControlSignal.constant(0.4), (0.0, 0.01), IntegratorConfig(dt=1e-2))

    def test_rejects_reaction_covector_as_p0(self, racer):
        q0 = racer.default_q0
        g = racer.spec.metric(q0)
        bad = g @ racer_frame_vectors(racer.params, q0)["v2"]
        with pytest.raises(NotInDeltaCapGamma):
            integrate(racer.spec, q0, bad, ControlSignal.constant(0.0), (0.0, 1.0))

    def test_frame_mode_without_frame_field_runs_the_generic_frame(self, racer):
        """The frame representation runs the generic frame on the minor best at ``t0``, here ``(q2, q3)``."""
        control = ControlSignal.sinusoid(0.0, 0.2, 2.0 * np.pi)
        p0 = racer_momentum(racer, racer.default_q0, 0.1)
        ref = ambient_reference(racer.spec, racer.default_q0, p0, control, (0.0, 0.3), 1e-3)
        traj = integrate(racer.spec, racer.default_q0, p0, control, (0.0, 0.3), IntegratorConfig(dt=1e-3, representation="frame"))
        assert traj.meta["pivots"] == [(0.0, (1, 2))]
        assert traj.xi.shape == (301, 1)
        assert reference_gap(traj, ref) <= 1e-12

    def test_rejects_empty_span(self, racer):
        with pytest.raises(ValueError):
            integrate(racer.spec, racer.default_q0, np.zeros(4), ControlSignal.constant(0.0), (1.0, 1.0))

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("end", [0, 1])
    def test_rejects_a_non_finite_span(self, racer, end, value):
        """A span end that is not finite is a ``ValueError`` (``inf`` was an ``OverflowError`` out of ``round``)."""
        span = [0.0, 1.0]
        span[end] = value
        with pytest.raises(ValueError, match="integration span"):
            integrate(racer.spec, racer.default_q0, np.zeros(4), ControlSignal.constant(0.0), tuple(span))

    def test_rejects_a_frame_field(self, racer):
        """Only the generic frame runs; the keyword stays for callers that pass ``None``."""
        with pytest.raises(ValueError, match="frame_field must be None"):
            integrate(
                racer.spec, racer.default_q0, np.zeros(4), ControlSignal.constant(0.0), (0.0, 0.01),
                frame_field=lambda q: None,
            )

    def test_nan_residuals_are_rejected(self):
        """A metric that turns NaN mid-run raises ``StepRejected`` instead of writing NaN samples.

        The toy (``N = 2``, ``M = 1``, ``nu = 1``: the form ``dq2 + du``, so
        ``q1`` is free) has ``g[0, 0] = NaN`` once ``q1 > 0.05``; coasting at
        unit speed crosses that at t = 0.05.  The NaN passes the metric tests,
        so the sample at t = 0.06 has NaN residuals; both comparisons with
        ``hard_residual`` are False for NaN, and the run used to return 21
        samples, 15 of them NaN.
        """

        def metric(q):
            g = np.zeros(q.shape[:-1] + (3, 3), dtype=np.result_type(q, float))
            g[..., [0, 1, 2], [0, 1, 2]] = 1.0
            g[..., 0, 0] = np.where(np.real(q[..., 0]) > 0.05, np.nan, 1.0)
            return g

        def omega(q):
            Om = np.zeros(q.shape[:-1] + (1, 3), dtype=np.result_type(q, float))
            Om[..., 0, 1:] = 1.0
            return Om

        spec = SystemSpec(N=2, M=1, nu=1, metric=metric, omega=omega)
        p0, control = np.array([1.0, 0.0, 0.0]), ControlSignal.constant(0.0)
        with pytest.raises(StepRejected, match="at t = 0.06 .constraint nan, reaction nan"):
            integrate(spec, np.zeros(3), p0, control, (0.0, 0.2), IntegratorConfig(dt=0.01))

    def test_hard_residual_rejects_step(self, racer):
        """An unattainable residual bound aborts with the offending time."""
        control = ControlSignal.sinusoid(0.0, 0.2, 2.0 * np.pi)
        p0 = racer_momentum(racer, racer.default_q0, 0.1)
        with pytest.raises(StepRejected):
            integrate(
                racer.spec,
                racer.default_q0,
                p0,
                control,
                (0.0, 1.0),
                IntegratorConfig(dt=1e-3, hard_residual=1e-16),
            )


def frame_vs_ambient_gap(spec, q0, p0, control, t_span, dt):
    """Largest relative gap in ``(q, p_I)`` between the frame form and :func:`ambient_reference`; and the frame run."""
    traj = integrate(spec, q0, p0, control, t_span, IntegratorConfig(dt=dt, representation="frame"))
    return reference_gap(traj, ambient_reference(spec, q0, p0, control, t_span, dt)), traj


def generic_frame_case(name):
    """``(spec, q0, p0, control)`` of an agreement run with nonzero free momentum."""
    if name == "racer":
        racer = build_model("roller-racer")
        q0, p0 = racer.embed_closed(np.array([0.1, 1.2, -0.3, 0.4]), 0.0)
        return racer.spec, q0, p0, ControlSignal.sinusoid(0.0, 0.2, 2.0 * np.pi)
    if name.startswith("ball"):
        ball = build_model("rolling-ball", metric_perturb=0.05 if name == "ball-perturbed" else 0.0)
        q0 = ball.default_q0
        p0 = projection_set(ball.spec, q0).Pstar_I @ np.array([0.3, -0.2, 0.4, 0.1, 0.2, 0.0])
        return ball.spec, q0, p0, ControlSignal.sinusoid(q0[5], 0.3, 5.0)
    if name == "toy":
        toy = build_model("euclidean-toy", constrained=True)
        q0 = np.array([0.1, 0.2, 0.3, 0.0])
        return toy.spec, q0, projection_set(toy.spec, q0).Pstar_I @ np.array([0.3, 0.2, -0.1, 0.0]), ControlSignal.sinusoid(0.0, 0.3, 4.0)
    seed = int(name[-1])
    spec = random_system(seed, M=2)
    gen = np.random.default_rng(seed)
    q0 = gen.uniform(-1.0, 1.0, spec.dim)
    p0 = projection_set(spec, q0).Pstar_I @ gen.standard_normal(spec.dim)
    return spec, q0, p0, ControlSignal.sinusoid(q0[spec.N :], 0.5, 8.0)


class TestGenericFrame:
    """``integrate`` on the generic frame, against :func:`ambient_reference`."""

    @pytest.mark.parametrize("name", ["racer", "ball", "ball-perturbed", "random-1", "random-2"])
    def test_agreement_with_ambient_is_fourth_order(self, name):
        """The gap to the reference over 0.5 s falls x16 (12 to 20) from ``dt`` = 4e-3 to 2e-3: discretization error only."""
        case = generic_frame_case(name)
        coarse, _ = frame_vs_ambient_gap(*case, (0.0, 0.5), 4e-3)
        fine, _ = frame_vs_ambient_gap(*case, (0.0, 0.5), 2e-3)
        assert fine > 1e-15 and 12.0 <= coarse / fine <= 20.0, (coarse, fine)

    def test_agreement_on_the_constrained_toy_is_exact(self):
        """Flat metric and a constant form: no discretization error to tell the forms apart."""
        gap, traj = frame_vs_ambient_gap(*generic_frame_case("toy"), (0.0, 0.5), 4e-3)
        assert gap <= 1e-15 and traj.meta["pivots"] == [(0.0, (0,))]

    def test_pivot_switch_where_the_published_frame_fails(self, racer):
        """Across ``sin q2 = 0``, where the racer's published frame has a chart edge, the generic frame switches pivots once.

        The switch, logged in ``meta``, goes from ``(q2, q3)`` to ``(q1, q2)``
        at t = 1.232; the gap to the reference over 1.5 s falls x16 per
        halving of ``dt`` (3.2e-9 and 2.0e-10 at 2e-3 and 1e-3).
        """
        control = ControlSignal.sinusoid(0.3, 0.1, 3.0)
        q0, p0 = racer.embed_closed(np.array([0.0, 2.3, 0.0, 1.0]), float(control.value(0.0)[0]))
        gaps = []
        for dt in (2e-3, 1e-3):
            gap, traj = frame_vs_ambient_gap(racer.spec, q0, p0, control, (0.0, 1.5), dt)
            assert np.sin(traj.q[:, 1]).min() < 0.0 < np.sin(traj.q[0, 1])
            assert traj.meta["pivots"] == [(0.0, (1, 2)), (pytest.approx(1.232), (0, 1))]
            gaps.append(gap)
        assert gaps[0] < 1e-8 and 12.0 <= gaps[0] / gaps[1] <= 20.0, gaps

    def test_residual_sees_the_frame_stages(self, ball):
        """A wrong ``xidot`` in stage k1 shows in the sample's d'Alembert residual.

        The wrong one solves Maggi's equations with the Gram matrix replaced
        by its diagonal, as if the free vectors were ``g``-orthogonal; the
        generic frame's are not.
        """
        q = ball.default_q0
        xi, control = np.array([0.3, -0.2, 0.4]), ControlSignal.polynomial([q[5], 0.7, -0.25])
        st = reduced_dynamics._maggi(ball.spec, q, xi, 0.0, control, None)
        assert simulate._frame_diagnostics(st, xi, 0.0, control)[2] <= 1e-15
        G = np.linalg.inv(st.Ginv)
        st.xidot = (G @ st.xidot) / np.diag(G)
        assert simulate._frame_diagnostics(st, xi, 0.0, control)[2] >= 1e-2


class TestCsv:
    def test_round_trip_exact(self, racer, tmp_path):
        traj = integrate(
            racer.spec,
            racer.default_q0,
            racer_momentum(racer, racer.default_q0, 0.1),
            ControlSignal.constant(0.0),
            (0.0, 0.05),
            IntegratorConfig(dt=1e-2),
        )
        path = tmp_path / "traj.csv"
        traj.to_csv(str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == traj.column_names()
        assert rows[0][:6] == ["t", "q1", "q2", "q3", "q4", "pI_1"]
        assert len(rows) == len(traj) + 1
        # repr formatting survives the round trip bit-for-bit
        for i, row in enumerate(rows[1:]):
            got = np.array([float(x) for x in row])
            ref = np.concatenate(
                [
                    [traj.t[i]],
                    traj.q[i],
                    traj.p_I[i],
                    [traj.H[i], traj.constraint_residual[i], traj.dalembert_residual[i]],
                    traj.u[i],
                ]
            )
            assert np.array_equal(got, ref)

    def test_frame_run_adds_xi_columns(self, racer, tmp_path):
        traj = integrate(
            racer.spec,
            racer.default_q0,
            np.zeros(4),
            ControlSignal.constant(0.0),
            (0.0, 0.02),
            IntegratorConfig(dt=1e-2, representation="frame"),
        )
        assert "xi_1" in traj.column_names()
        path = tmp_path / "frame.csv"
        traj.to_csv(str(path))
        with open(path, newline="") as fh:
            header = fh.readline().strip().split(",")
        assert header.index("xi_1") == 9


class TestRk4Order:
    def test_closed_field_order_four(self, racer):
        control = ControlSignal.sinusoid(0.1, 0.3, 3.0)

        def f(t, y):
            u = float(control.value(t)[0])
            ud = float(control.rate(t)[0])
            return roller_racer_closed_rhs(racer.params, y, u, ud)

        y0 = np.array([0.0, 1.2, 0.0, 0.4])
        ref = rk4_path(f, y0, (0.0, 1.0), 800)
        e1 = np.linalg.norm(rk4_path(f, y0, (0.0, 1.0), 50) - ref)
        e2 = np.linalg.norm(rk4_path(f, y0, (0.0, 1.0), 100) - ref)
        assert 12.0 < e1 / e2 < 20.0

    @pytest.mark.parametrize("representation", ["ambient", "frame"])
    def test_integrator_keeps_order_four_with_moving_controls(self, racer, representation):
        """Assembling controlled channels at every stage preserves RK4's order."""
        control = ControlSignal.sinusoid(0.0, 0.2, 2.0 * np.pi)
        p0 = racer_momentum(racer, racer.default_q0, 0.1)

        def endpoint(dt):
            traj = integrate(
                racer.spec,
                racer.default_q0,
                p0,
                control,
                (0.0, 0.5),
                IntegratorConfig(dt=dt, representation=representation),
            )
            return np.concatenate([traj.q[-1], traj.p_I[-1]])

        ref = endpoint(1.25e-3)
        e1 = np.linalg.norm(endpoint(1e-2) - ref)
        e2 = np.linalg.norm(endpoint(5e-3) - ref)
        assert 10.0 < e1 / e2 < 22.0


class TestOneStepper:
    """Every integrator path advances through the single ``_rk4_step``."""

    @pytest.fixture
    def step_calls(self, monkeypatch):
        calls = []
        stepper = simulate._rk4_step

        def counting(*args):
            calls.append(args[1])
            return stepper(*args)

        monkeypatch.setattr(simulate, "_rk4_step", counting)
        return calls

    @pytest.mark.parametrize("representation", ["ambient", "frame"])
    def test_integrate_calls_it_once_per_step(self, racer, step_calls, representation):
        p0 = racer_momentum(racer, racer.default_q0, 0.1)
        cfg = IntegratorConfig(dt=0.01, representation=representation)
        control = ControlSignal.sinusoid(0.0, 0.2, 3.0)
        traj = integrate(racer.spec, racer.default_q0, p0, control, (0.0, 0.05), cfg)
        assert len(traj) == 6
        assert step_calls == list(traj.t[:-1])

    def test_rk4_path_calls_it_once_per_step(self, step_calls):
        y = rk4_path(lambda t, y: -y, np.ones(2), (0.0, 1.0), 7)
        assert len(step_calls) == 7
        assert np.abs(y - np.exp(-1.0)).max() < 1e-4

    @pytest.mark.parametrize("nsteps", [0, -3])
    def test_rk4_path_rejects_fewer_than_one_step(self, step_calls, nsteps):
        """``nsteps < 1`` raises ``ValueError`` once, before any step (it once returned ``y0`` or divided by zero)."""
        calls = []
        with pytest.raises(ValueError, match="nsteps must be at least 1"):
            rk4_path(lambda t, y: calls.append(t) or -y, np.ones(2), (0.0, 1.0), nsteps)
        assert calls == step_calls == []

    def test_two_timescale_with_no_periods_is_a_value_error(self, racer):
        with pytest.raises(ValueError, match="nsteps must be at least 1"):
            two_timescale_coefficient(racer, np.array([0.0, 1.2, 0.0, 0.0]), u_bar=0.0, K=1.0, periods=0)


class TestDitherExperiments:
    def test_sweep_errors_shrink_quadratically(self, racer):
        sweep = oscillation_sweep(
            racer,
            np.array([0.0, 1.2, 0.0, 0.0]),
            u_bar=0.3,
            K=1.0,
            eps_list=[0.1, 0.05, 0.025],
            horizon=np.pi,
        )
        assert np.all(np.diff(sweep.errors) < 0.0)
        assert np.all(sweep.ratios <= 0.7)
        # halving eps quarters the endpoint error
        assert np.abs(sweep.ratios - 0.25).max() < 0.05
        text = sweep.to_text()
        assert "0.1" in text and "ratio_to_previous" in text

    def test_zero_gain_sweep_is_bitwise_exact(self, racer):
        sweep = oscillation_sweep(
            racer,
            np.array([0.0, 1.2, 0.0, 0.2]),
            u_bar=0.1,
            K=0.0,
            eps_list=[0.1, 0.05],
            horizon=1.0,
        )
        assert np.all(sweep.errors == 0.0)
        assert np.array_equal(sweep.endpoints, sweep.averaged_endpoints)

    def test_sweep_requires_closed_form(self, ball):
        with pytest.raises(ModelError):
            oscillation_sweep(ball, np.zeros(4), 0.0, 1.0, [0.1], 1.0)

    def test_two_timescale_matches_averaged_prediction(self, racer):
        out = two_timescale_coefficient(
            racer, np.array([0.0, 1.2, 0.0, 0.0]), u_bar=0.0, K=1.0
        )
        assert out.predicted > 0.0
        assert out.rel_err < 2e-2
