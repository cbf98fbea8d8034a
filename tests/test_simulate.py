"""Integrator behaviour: order, diagnostics, CSV output, dither experiments."""

import csv
import dataclasses
import hashlib
import re
import sys
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from nonholo import core_geometry, reduced_dynamics, simulate
from nonholo.core_geometry import SystemSpec, projection_set
from nonholo.errors import (
    ModelError,
    NonAdaptedState,
    NotInDeltaCapGamma,
    RankDeficiency,
    SingularDenominator,
    SingularMetric,
    StepRejected,
)
from nonholo.models import RollerRacerParams, build_model, racer_frame_vectors, roller_racer_closed_rhs
from nonholo.reduced_dynamics import ControlSignal, reduced_rhs
from nonholo.simulate import (
    IntegratorConfig,
    Trajectory,
    integrate,
    oscillation_sweep,
    rk4_path,
    two_timescale_coefficient,
)

from conftest import (
    ball_free_block,
    counting_control,
    counting_spec,
    nan_control_column_spec,
    nan_derivative_spec,
    random_system,
    stacked,
)

B = simulate._STAGE_BLOCK  # rk4_path's steps per block of stage times


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
        """A 10-step racer run calls ``metric`` and ``omega`` 41 times each, all complex.

        Each of the 11 samples' stage k1 and each of the 30 later stages makes
        one complex call of each, on the stack ``q + i H [0; I_n]``; the
        point data of the sample at ``t0`` also give the initial generic frame
        and ``xi``, so no splitting is built there.
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
        assert totals == Counter({"metric": 41, "omega": 41})
        assert calls["metric", "complex", (5, 4)] == calls["omega", "complex", (5, 4)] == 41

    def test_stage_call_pattern_of_a_racer_run(self, racer, monkeypatch):
        """The 10-step run of ``test_callback_calls_of_a_racer_run``, stage by stage.

        The adaptedness check runs once, at ``t0``; the pivot layout table
        is built once, and every stage reads the run's one layout; the point half of each of
        the 41 Maggi stages (11 samples' k1, 30 later stages) makes two real
        ``inv`` calls, ``A_d^-1`` and ``G^-1``, and no SVD, as the rank bound
        holds, and the run makes no other.
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
        core_geometry._pivot_layouts.cache_clear()
        built = Counter()
        stages = []
        maggi_point = simulate._maggi_point

        def per_stage(*args):
            before = Counter(counts)
            pt = maggi_point(*args)
            built[tuple(pt.d.tolist())] += 1
            stages.append((counts["inv"] - before["inv"], counts["svd"] - before["svd"], pt.Ginv.dtype, pt.Ainv.dtype))
            return pt

        monkeypatch.setattr(simulate, "_maggi_point", per_stage)
        traj = integrate(
            racer.spec,
            racer.default_q0,
            racer_momentum(racer, racer.default_q0, 0.1),
            ControlSignal.sinusoid(0.0, 0.2, 2.0 * np.pi),
            (0.0, 0.01),
            IntegratorConfig(dt=1e-3),
        )
        assert counts["adapted"] == 1
        assert core_geometry._pivot_layouts.cache_info().misses == 1
        assert built == Counter({traj.meta["pivots"][0][1]: 41})
        assert stages == [(2, 0, np.dtype(float), np.dtype(float))] * 41
        assert counts == Counter({"adapted": 1, "inv": 82})

    @pytest.mark.parametrize(
        "fault, error",
        [("metric", SingularMetric), ("rank", RankDeficiency), ("complex", ModelError)],
    )
    def test_inner_stages_keep_the_front_checks(self, fault, error, caller_ignores_complex_warning):
        """A fault that shows only at stages k2 and k3 (``|u| > 0.9``, between samples) still raises.

        The caller ignores ``ComplexWarning``, so only the run's own guard
        can catch the complex fault at those stages.
        """
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

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_initial_control(self, racer, value):
        """An infinite command is not adapted either: its gap test used to read ``inf <= 1e-6 * inf``."""
        q0 = np.array([0.0, 1.5, 0.0, 0.4])
        with pytest.raises(NonAdaptedState):
            integrate(racer.spec, q0, np.zeros(4), ControlSignal.constant(value), (0.0, 1.0))

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

    @staticmethod
    def nan_toy(nan_entry):
        """``N = 2``, ``M = 1``, ``nu = 1`` toy: the form ``dq2 + du``, so ``q1`` is free; ``g[i, i] = NaN`` once ``q1 > 0.05`` for ``i = nan_entry``."""

        def metric(q):
            g = np.zeros(q.shape[:-1] + (3, 3), dtype=np.result_type(q, float))
            g[..., [0, 1, 2], [0, 1, 2]] = 1.0
            if nan_entry is not None:
                g[..., nan_entry, nan_entry] = np.where(np.real(q[..., 0]) > 0.05, np.nan, 1.0)
            return g

        def omega(q):
            Om = np.zeros(q.shape[:-1] + (1, 3), dtype=np.result_type(q, float))
            Om[..., 0, 1:] = 1.0
            return Om

        return SystemSpec(N=2, M=1, nu=1, metric=metric, omega=omega)

    def test_nan_residuals_are_rejected(self):
        """A control rate that turns NaN mid-run raises ``StepRejected`` instead of writing NaN samples.

        On the toy with a finite metric, coasting at unit speed, the rate is
        NaN after t = 0.05: stage k2 of the step from t = 0.05 reads it, so
        the sample at t = 0.06 has NaN ``q`` and NaN residuals; both
        comparisons with ``hard_residual`` are False for NaN, and a run
        must not return them.
        """
        zero = np.zeros(1)
        control = ControlSignal(lambda t: zero, lambda t: np.array([np.nan if t > 0.05 else 0.0]), lambda t: zero)
        with pytest.raises(StepRejected, match="at t = 0.06 .constraint nan, reaction nan"):
            integrate(self.nan_toy(None), np.zeros(3), np.array([1.0, 0.0, 0.0]), control, (0.0, 0.2), IntegratorConfig(dt=0.01))

    @pytest.mark.parametrize("entry", [0, 1])
    def test_nan_metric_is_a_singular_metric(self, entry):
        """The toy's metric, NaN once ``q1 > 0.05``, is refused by the metric test of the stage that meets it.

        The Cholesky factor of a NaN metric has NaN pivots, which used to pass
        the pivot-ratio test; the run then ended in ``StepRejected`` at t = 0.06.
        With ``g[1, 1] = NaN`` the pivots are ``[1, nan, nan]``, whose ``min``
        and ``max`` are both 1.
        """
        p0, control = np.array([1.0, 0.0, 0.0]), ControlSignal.constant(0.0)
        with pytest.raises(SingularMetric, match="metric is not finite"):
            integrate(self.nan_toy(entry), np.zeros(3), p0, control, (0.0, 0.2), IntegratorConfig(dt=0.01))

    @pytest.mark.parametrize("name", ["metric", "omega"])
    @pytest.mark.parametrize("q1_min", [0.0, 0.302])
    def test_non_finite_derivatives_are_a_model_error(self, ball, name, q1_min):
        """Finite values with NaN complex-step derivatives once ``q1 > q1_min`` stop the run with a ``ModelError``.

        The ball starts at ``q1 = 0.3`` and its ``q1`` grows past 0.302 by
        ``t = 0.03``, so the second case meets them mid-run.  Every test on
        values passes, and the run used to end in ``StepRejected``
        ("reaction nan"), which blamed the step for the model's derivatives.
        """
        spec = nan_derivative_spec(ball.spec, name, q1_min)
        control = ControlSignal.sinusoid(0.0, 0.2, 2.0 * np.pi)
        with pytest.raises(ModelError, match="metric or omega derivative is not finite"):
            integrate(spec, ball.default_q0, np.zeros(6), control, (0.0, 0.1), IntegratorConfig(dt=0.01))

    def test_nan_omega_control_column_is_a_model_error(self, racer):
        """A NaN in ``omega``'s control column is refused by the Maggi stage as ``projection_set`` refuses it.

        The constraint block stays finite, so the rank test passes; ``frame_rhs``
        returned all-NaN rates and ``integrate`` ended in ``StepRejected``.
        """
        spec, q0, control = nan_control_column_spec(racer.spec), racer.default_q0, ControlSignal.constant(0.0)
        with pytest.raises(ModelError, match="omega is not finite"):
            projection_set(spec, q0)
        with pytest.raises(ModelError, match="omega is not finite"):
            reduced_dynamics.frame_rhs(spec, q0, np.zeros(1), 0.0, control)
        with pytest.raises(ModelError, match="omega is not finite"):
            integrate(spec, q0, np.zeros(4), control, (0.0, 0.02), IntegratorConfig(dt=0.01))

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


def racer_run(racer, nsteps, dt=1e-3, control=None, **config):
    """``integrate`` on the racer over ``nsteps`` steps of ``dt`` from ``xi = 0.1``, steered by ``0.2 sin(2 pi t)`` by default."""
    control = control or ControlSignal.sinusoid(0.0, 0.2, 2.0 * np.pi)
    p0 = racer_momentum(racer, racer.default_q0, 0.1)
    return integrate(racer.spec, racer.default_q0, p0, control, (0.0, nsteps * dt), IntegratorConfig(dt=dt, **config))


def csv_bytes(traj, path):
    traj.to_csv(str(path))
    return path.read_bytes()


class TestOneGuardPerRun:
    """``integrate`` holds one complex-safety guard for the whole run, and reads the control once per stage time."""

    def test_a_run_enters_the_guard_once(self, racer, monkeypatch):
        """A 10-step run has 41 Maggi stages (11 samples' k1, 30 later stages); a guard per stage swapped the filters 41 times."""
        entered = []

        class CountingCatch(warnings.catch_warnings):
            def __enter__(self):
                entered.append(None)
                return super().__enter__()

        monkeypatch.setattr(warnings, "catch_warnings", CountingCatch)
        racer_run(racer, 10)
        assert len(entered) == 1

    @pytest.mark.parametrize("outcome", ["return", "step-rejected", "complex-at-k2-k3"])
    def test_warning_filters_are_restored(self, racer, outcome, caller_ignores_complex_warning):
        """The caller's filters come back however the run ends, and ignoring ``ComplexWarning`` there does not switch the check off.

        The midstep fault drops the metric's imaginary part only at stages
        k2 and k3, between samples, and keeps the message of a fault at a sample.
        """
        if outcome == "return":
            racer_run(racer, 10)
        elif outcome == "step-rejected":
            with pytest.raises(StepRejected):
                racer_run(racer, 10, hard_residual=1e-300)
        else:
            with pytest.raises(ModelError, match=r"^metric or omega is not complex-safe \(ComplexWarning\("):
                integrate(
                    midstep_fault_spec("complex"),
                    np.zeros(4),
                    np.zeros(4),
                    ControlSignal.sinusoid(0.0, 1.0, np.pi / 0.1),
                    (0.0, 0.2),
                    IntegratorConfig(dt=0.1),
                )
        assert warnings.filters == caller_ignores_complex_warning

    @pytest.mark.parametrize("what", ["value", "rate", "accel"])
    @pytest.mark.parametrize("t_complex", [0.0, 0.005])
    def test_a_complex_control_is_not_adapted(self, racer, what, t_complex, caller_ignores_complex_warning):
        """A complex ``value``, ``rate`` or ``accel``, from ``t0`` or from a stage time on, is refused by name.

        Such a control would lose its imaginary part with only a
        ``ComplexWarning``, ignored here as a caller may.
        """
        base = ControlSignal.constant(0.0)
        fn = getattr(base, what)
        control = dataclasses.replace(base, **{what: lambda t: fn(t) + (0.1j if t >= t_complex else 0.0)})
        with pytest.raises(NonAdaptedState, match=f"^control {what} is complex at t = "):
            integrate(racer.spec, racer.default_q0, np.zeros(4), control, (0.0, 0.01), IntegratorConfig(dt=1e-2))

    @pytest.mark.parametrize("what", ["value", "rate", "accel"])
    def test_a_control_type_error_is_not_a_callback_error(self, racer, what):
        """A broken control raises its own ``TypeError``, not ``metric or omega is not complex-safe``."""
        control = dataclasses.replace(ControlSignal.constant(0.0), **{what: lambda: np.zeros(1)})
        with pytest.raises(TypeError, match="positional argument"):
            integrate(racer.spec, racer.default_q0, np.zeros(4), control, (0.0, 0.01), IntegratorConfig(dt=1e-2))

    @pytest.mark.parametrize("what", ["value", "rate"])
    def test_a_control_type_error_inside_the_run_is_its_own(self, racer, what):
        """A control that raises ``TypeError`` only after ``t0``, where the run holds the guard, raises that error."""
        base = ControlSignal.constant(0.0)
        fn = getattr(base, what)

        def broken(t):
            if t > 0.0:
                raise TypeError("control broke")
            return fn(t)

        control = dataclasses.replace(base, **{what: broken})
        with pytest.raises(TypeError, match="^control broke$"):
            integrate(racer.spec, racer.default_q0, np.zeros(4), control, (0.0, 0.01), IntegratorConfig(dt=1e-2))

    @pytest.mark.parametrize(
        "nsteps, digest",
        [
            (1, "97c083a03bb3b4357584634fe2c64f80ac11e58c5dab2f962da5ff789a2dd081"),
            (100, "bde1e13e1d94c79743f3b724c31491286560ca4f5902705ace071b392263adb1"),
        ],
    )
    def test_control_reads_once_per_stage_time(self, racer, tmp_path, nsteps, digest):
        """k2 and k3 share a time, so ``n`` steps read ``value`` and ``rate`` ``3n + 1`` times each (``4n + 1`` when
        each stage read its own); the CSV keeps the digest of the run that read them at every stage."""
        control, values = counting_control(ControlSignal.sinusoid(0.0, 0.2, 2.0 * np.pi))
        control, rates = counting_control(control, "rate")
        traj = racer_run(racer, nsteps, 1e-2, control, representation="frame")
        assert len(values) == len(rates) == 3 * nsteps + 1
        assert hashlib.sha256(csv_bytes(traj, tmp_path / "run.csv")).hexdigest() == digest

    def test_concurrent_runs_match_serial_runs(self, racer, tmp_path):
        """A racer run and a ball run in two threads give the CSVs of the same runs one after the other.

        The guard's lock is held for a whole run, so the two take turns.
        """
        spec, q0, p0, control = generic_frame_case("ball")
        runs = {
            "racer": lambda: racer_run(racer, 200, representation="frame"),
            "ball": lambda: integrate(spec, q0, p0, control, (0.0, 0.05), IntegratorConfig(dt=1e-3, representation="frame")),
        }
        serial = {name: csv_bytes(run(), tmp_path / f"{name}-serial.csv") for name, run in runs.items()}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = {name: pool.submit(run) for name, run in runs.items()}
                threaded = {name: csv_bytes(f.result(timeout=120), tmp_path / f"{name}.csv") for name, f in futures.items()}
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial


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
        at t = 1.22 and 1.219 for ``dt`` = 2e-3 and 1e-3, pinned to one coarse
        step; the gap to the reference over 1.5 s falls x16 per halving of
        ``dt`` (8.2e-10 and 4.6e-11 at 2e-3 and 1e-3, x17.9).
        """
        control = ControlSignal.sinusoid(0.3, 0.1, 3.0)
        q0, p0 = racer.embed_closed(np.array([0.0, 2.3, 0.0, 1.0]), float(control.value(0.0)[0]))
        gaps = []
        for dt in (2e-3, 1e-3):
            gap, traj = frame_vs_ambient_gap(racer.spec, q0, p0, control, (0.0, 1.5), dt)
            assert np.sin(traj.q[:, 1]).min() < 0.0 < np.sin(traj.q[0, 1])
            assert traj.meta["pivots"] == [(0.0, (1, 2)), (pytest.approx(1.219, abs=2e-3), (0, 1))]
            gaps.append(gap)
        assert gaps[0] < 1e-8 and 12.0 <= gaps[0] / gaps[1] <= 20.0, gaps

    def test_one_constraint_run_repicks_as_its_pivot_entry_shrinks(self):
        """A ``nu = 1`` run re-picks its pivot once the pivot entry is small against the constraint row.

        Flat metric, ``Om = [cos u, sin u, 0]`` with ``u`` ramped to ``pi/2 -
        1e-9``: the pivot entry ``cos u`` of the first pick falls to 1e-9.  Every
        ``1 x 1`` minor has ``|A_d|_F |A_d^-1|_F = 1``, but ``|Om[:, :N]|_F
        |A_d^-1|_F = 1/|cos u|`` passes ``PIVOT_COND`` near t = 0.91, where
        the run switches to ``(1,)``.  The energy then drifts by 5.5e-9 over
        2 s; a run that keeps ``(0,)`` drifts by 1.6e3, with both residuals
        below 2e-12.
        """
        spec = SystemSpec(
            N=2, M=1, nu=1, metric=stacked(lambda q: np.eye(3)),
            omega=stacked(lambda q: np.array([[np.cos(q[2]), np.sin(q[2]), 0.0 * q[2]]])),
        )
        control = ControlSignal.ramp(0.0, np.pi / 2 - 1e-9, 0.0, 1.0)
        traj = integrate(spec, np.zeros(3), np.array([0.0, 1.0, 0.0]), control, (0.0, 2.0), IntegratorConfig(dt=1e-3))
        assert traj.meta["pivots"] == [(0.0, (0,)), (pytest.approx(0.91, abs=1e-3), (1,))]
        assert abs(traj.H[-1] - traj.H[0]) <= 1e-7

    def test_residual_sees_the_frame_stages(self, ball):
        """A wrong ``xidot`` in stage k1 shows in the sample's d'Alembert residual.

        The wrong one solves Maggi's equations with the Gram matrix replaced
        by its diagonal, as if the free vectors were ``g``-orthogonal; the
        generic frame's are not.
        """
        q = ball.default_q0
        xi, control = np.array([0.3, -0.2, 0.4]), ControlSignal.polynomial([q[5], 0.7, -0.25])
        pt = reduced_dynamics._maggi_point(ball.spec, q)
        st = reduced_dynamics._maggi_flow(pt, xi, control.rate(0.0))
        assert simulate._frame_diagnostics(pt, st, xi, control.accel(0.0))[2] <= 1e-15
        G = np.linalg.inv(pt.Ginv)
        st.xidot = (G @ st.xidot) / np.diag(G)
        assert simulate._frame_diagnostics(pt, st, xi, control.accel(0.0))[2] >= 1e-2


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

    @pytest.mark.parametrize("nsteps", [1, 50, 100, B - 1, B, B + 1, 2 * B + 3, 800])
    @pytest.mark.parametrize("t_span", [(0.0, 1.0), (0.3, 1.7)])
    def test_closed_field_path_is_bitwise_the_pointwise_path(self, racer, nsteps, t_span):
        """``closed_field``'s blocks of control halves change no bit of the path, at every block edge and from a
        ``t0`` other than 0."""
        control = ControlSignal.sinusoid(0.1, 0.3, 3.0)

        def f(t, y):
            return roller_racer_closed_rhs(racer.params, y, float(control.value(t)[0]), float(control.rate(t)[0]))

        y0 = np.array([0.0, 1.2, 0.0, 0.4])
        got = rk4_path(racer.closed_field(control), y0, t_span, nsteps)
        assert got.tobytes() == rk4_path(f, y0, t_span, nsteps).tobytes()

    @pytest.mark.parametrize("nsteps", [1, 100, 2 * B + 3])
    def test_closed_field_reads_the_control_once_per_stage_time(self, racer, nsteps):
        """An ``n``-step path has ``2n + 1`` distinct stage times: k2 and k3 share one, and k4's is the next k1's.

        Every time of a column read counts, and a block's last time is not read again as the next block's first.
        """
        control, calls = counting_control(ControlSignal.sinusoid(0.1, 0.3, 3.0))
        rk4_path(racer.closed_field(control), np.array([0.0, 1.2, 0.0, 0.4]), (0.0, 1.0), nsteps)
        assert len(calls) == len(set(calls)) == 2 * nsteps + 1

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


def step_time(t0, dt, step):
    """The time of step ``step`` of a path from ``t0``: ``t += dt`` ``step`` times."""
    t = t0
    for _ in range(step):
        t += dt
    return t


class StageSpy:
    """``f`` that records the time of every stage call and passes its ``stage_times`` on."""

    def __init__(self, f):
        self.f, self.times = f, []

    def stage_times(self, ts):
        self.f.stage_times(ts)

    def __call__(self, t, y):
        self.times.append(t)
        return self.f(t, y)


class TestStageBlocks:
    """``rk4_path`` announces each block's stage times to a field's ``stage_times`` hook, and the racer's closed field
    builds the block's control halves at once: the path keeps the pointwise path's bits and its refusals."""

    Y0 = np.array([0.1, 1.2, -0.3, 0.4])

    @pytest.mark.parametrize("nsteps", [1, B, 2 * B + 3])
    def test_the_hook_gets_every_stage_time_block_by_block(self, nsteps):
        """Each block's ``2 B' + 1`` times, in order, are its stages' own, and its last is the next block's first."""
        blocks, stages = [], []

        class Field:
            def stage_times(self, ts):
                blocks.append(ts.tolist())

            def __call__(self, t, y):
                stages.append((len(blocks), t))
                return [-v for v in y]

        rk4_path(Field(), np.ones(2), (0.3, 1.7), nsteps)
        sizes = [min(B, nsteps - start) for start in range(0, nsteps, B)]
        assert [len(ts) for ts in blocks] == [2 * size + 1 for size in sizes]
        assert all(ts == sorted(ts) and ts[-1] == nxt[0] for ts, nxt in zip(blocks, blocks[1:]))
        for i, ts in enumerate(blocks, start=1):
            assert sorted(set(t for block, t in stages if block == i)) == ts
        assert blocks[-1][-1] == step_time(0.3, (1.7 - 0.3) / nsteps, nsteps)

    def test_the_field_holds_at_most_one_block(self, racer):
        f = racer.closed_field(ControlSignal.dither(0.2, 1.1, 0.01))
        held, hook = [], f.stage_times

        def recording(ts):
            hook(ts)
            held.append(len(f.halves))

        f.stage_times = recording
        rk4_path(f, self.Y0, (0.0, 1.0), 3 * B + 5)
        assert held == [2 * B + 1] * 3 + [11]
        assert len(f.halves) == 11

    @pytest.mark.parametrize("what", ["value", "rate"])
    @pytest.mark.parametrize("step", [3, B + 7])
    def test_a_complex_control_is_refused_at_its_first_stage_time(self, racer, what, step, caller_ignores_complex_warning):
        """From the mid-stage of ``step`` on, in the first block or a later one, the control is complex: the error
        names that time, the steps before it are taken, and the field refuses it again afterwards."""
        nsteps = 2 * B + 3
        dt = (1.7 - 0.3) / nsteps
        t_bad = step_time(0.3, dt, step) + 0.5 * dt
        base = ControlSignal.sinusoid(0.1, 0.3, 3.0)
        fn = getattr(base, what)
        control = dataclasses.replace(base, **{what: lambda t: fn(t) + (0.5j if np.any(t >= t_bad) else 0.0)})
        f = StageSpy(racer.closed_field(control))
        message = f"^control {what} is complex at t = {re.escape(repr(t_bad))}$"
        with pytest.raises(NonAdaptedState, match=message):
            rk4_path(f, self.Y0, (0.3, 1.7), nsteps)
        assert f.times[-1] == t_bad and len(f.times) == 4 * step + 2 and max(f.times[:-1]) < t_bad
        with pytest.raises(NonAdaptedState, match=message):
            f(t_bad, self.Y0)

    @pytest.mark.parametrize("step", [3, B + 7])
    def test_a_singular_delta_1_is_refused_at_its_first_stage_time(self, step):
        """From the mid-stage of ``step`` on the steering sits within 1e-9 of ``pi/2``, where ``Delta_1 ~ 4e-13`` with
        ``I = J = 1e-13``: the error names the steering there, exactly ``pi/2``, as the pointwise path's does, and is
        raised again afterwards."""
        p = RollerRacerParams(rho=1.0, inertia=1e-13, tail_inertia=1e-13)
        nsteps = 2 * B + 3
        dt = (1.7 - 0.3) / nsteps
        t_bad = step_time(0.3, dt, step) + 0.5 * dt
        control = dataclasses.replace(
            ControlSignal.constant(0.1), value=lambda t: np.where(t >= t_bad, np.pi / 2 + (t - t_bad) * 1e-9, 0.1) * np.ones(1)
        )
        f = StageSpy(build_model("roller-racer", rho=1.0, inertia=1e-13, tail_inertia=1e-13).closed_field(control))
        message = f"at u = {re.escape(repr(np.pi / 2))}$"
        with pytest.raises(SingularDenominator, match=message):
            rk4_path(f, self.Y0, (0.3, 1.7), nsteps)
        assert f.times[-1] == t_bad and len(f.times) == 4 * step + 2 and max(f.times[:-1]) < t_bad
        with pytest.raises(SingularDenominator, match=message):
            f(t_bad, self.Y0)

        def pointwise(t, y):
            return roller_racer_closed_rhs(p, y, float(control.value(t)[0]), float(control.rate(t)[0]))

        with pytest.raises(SingularDenominator, match=message):
            rk4_path(pointwise, self.Y0, (0.3, 1.7), nsteps)


def array_rk4_step(f, t, y, dt, k1):
    """Classical RK4 on ndarrays, in the association of the one stepper's former array expression."""
    k2 = f(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = f(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = f(t + dt, y + dt * k3)
    return y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class TestListStepper:
    """``_rk4_step`` steps lists of floats, and each entry rounds as the array expression does: every path keeps its
    bits."""

    @pytest.mark.parametrize("seed", range(4))
    def test_a_step_is_the_array_step_bit_for_bit(self, seed):
        """200 random steps of a nonlinear field, states of 1 to 8 entries spread over six decades."""
        rng = np.random.default_rng(seed)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            A = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-3.0, 3.0)

            def field(t, y):
                return np.cos(t * y) @ A + y * y

            t, dt = rng.uniform(-5.0, 5.0), 10.0 ** rng.uniform(-4.0, 0.0)
            y = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
            got = simulate._rk4_step(lambda t, y: field(t, np.array(y)).tolist(), t, y.tolist(), dt, field(t, y).tolist())
            assert np.array(got).tobytes() == array_rk4_step(field, t, y, dt, field(t, y)).tobytes()

    def test_a_dithered_racer_path_is_the_array_path_bit_for_bit(self, racer):
        """``3 B + 5`` steps of ``closed_field`` under a dither against the pointwise form stepped on ndarrays."""
        control = ControlSignal.dither(0.2, 1.1, 0.01)
        y0, nsteps = np.array([0.1, 1.2, -0.3, 0.4]), 3 * B + 5
        dt = (1.7 - 0.3) / nsteps

        def pointwise(t, y):
            return roller_racer_closed_rhs(racer.params, y, float(control.value(t)[0]), float(control.rate(t)[0]))

        ref, t = y0, 0.3
        for _ in range(nsteps):
            ref = array_rk4_step(pointwise, t, ref, dt, pointwise(t, ref))
            t += dt
        assert rk4_path(racer.closed_field(control), y0, (0.3, 1.7), nsteps).tobytes() == ref.tobytes()


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
        y = rk4_path(lambda t, y: [-v for v in y], np.ones(2), (0.0, 1.0), 7)
        assert len(step_calls) == 7
        assert np.abs(y - np.exp(-1.0)).max() < 1e-4

    @pytest.mark.parametrize("nsteps", [0, -3])
    def test_rk4_path_rejects_fewer_than_one_step(self, step_calls, nsteps):
        """``nsteps < 1`` raises ``ValueError`` once, before any step (it once returned ``y0`` or divided by zero)."""
        calls = []
        with pytest.raises(ValueError, match="nsteps must be at least 1"):
            rk4_path(lambda t, y: calls.append(t) or -y, np.ones(2), (0.0, 1.0), nsteps)
        assert calls == step_calls == []

    @pytest.mark.parametrize("nsteps", [3.0, 2.5, True])
    def test_rk4_path_rejects_a_step_count_that_is_not_an_integer(self, step_calls, nsteps):
        """It used to die in ``range`` with a bare ``TypeError`` (or, for ``True``, run one step)."""
        with pytest.raises(ValueError, match=re.escape(f"nsteps must be an integer, got {nsteps!r}")):
            rk4_path(lambda t, y: -y, np.ones(2), (0.0, 1.0), nsteps)
        assert step_calls == []

    @pytest.mark.parametrize("size", [1, 2, 5])
    def test_a_stage_of_another_length_is_refused(self, step_calls, size):
        """A field with other than ``len(y)`` entries raises, naming both lengths, at the first step; it used to
        broadcast silently (a 1-entry field on a 3-entry state gave ``[2, 2, 2]``)."""
        with pytest.raises(ValueError, match=rf"^the field returned {size} entries for a state of 3$"):
            rk4_path(lambda t, y: np.ones(size), np.ones(3), (0.0, 1.0), 3)
        assert step_calls == [0.0]

    def test_a_stage_that_changes_length_mid_step_is_refused(self):
        """Only stage k4 is short: the step is refused, not truncated to the short stage."""
        with pytest.raises(ValueError, match=r"^the field returned 1 entries for a state of 2$"):
            rk4_path(lambda t, y: [1.0] if t == 1.0 else [1.0, 1.0], np.ones(2), (0.0, 1.0), 1)

    @pytest.mark.parametrize("y0", [np.ones((2, 2)), np.float64(1.0), [[1.0], [2.0]]])
    def test_rk4_path_refuses_a_y0_that_is_not_1d(self, step_calls, y0):
        with pytest.raises(ValueError, match=r"^y0 must be 1-D, got shape \("):
            rk4_path(lambda t, y: y, y0, (0.0, 1.0), 3)
        assert step_calls == []

    @pytest.mark.parametrize("t_span", [(0.0, np.nan), (0.0, np.inf), (np.nan, 1.0), (-np.inf, 0.0)])
    def test_rk4_path_refuses_a_non_finite_span(self, racer, step_calls, t_span):
        """As ``integrate`` does; ``(0, nan)`` used to return an all-NaN endpoint and ``(0, inf)`` to die in the field
        with "math domain error"."""
        with pytest.raises(ValueError, match=r"^non-finite integration span \("):
            rk4_path(racer.averaged_field(0.1, 1.0), np.array([0.0, 1.2, 0.0, 0.4]), t_span, 3)
        assert step_calls == []

    def test_two_timescale_with_no_periods_is_a_value_error(self, racer):
        with pytest.raises(ValueError, match="periods must be positive and finite, got 0"):
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

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"eps_list": [0.0]}, "eps_list entry must be positive and finite, got 0.0"),
            ({"eps_list": [0.1, np.nan]}, "eps_list entry must be positive and finite, got nan"),
            ({"eps_list": [-0.1, -0.05]}, "eps_list entry must be positive and finite, got -0.1"),
            ({"eps_list": []}, "eps_list must have at least one entry"),
            ({"horizon": np.inf}, "horizon must be positive and finite, got inf"),
            ({"horizon": -1.0}, "horizon must be positive and finite, got -1.0"),
            ({"steps_per_period": 0}, "steps_per_period must be positive and finite, got 0"),
            ({"u_bar": np.nan}, "u_bar must be finite"),
            ({"K": np.inf}, "K must be finite"),
        ],
    )
    def test_sweep_rejects_bad_input(self, racer, kwargs, message):
        """Bad input is a ``ValueError`` before any step.

        It used to raise a bare ``ZeroDivisionError`` (``eps = 0``) or
        ``OverflowError`` (``horizon = inf``), or to return a number: errors
        2.59 with ratio 1.0 for negative ``eps``, 0.092 for ``horizon = -1``.
        """
        args = {"u_bar": 0.0, "K": 1.0, "eps_list": [0.1, 0.05], "horizon": 1.0, **kwargs}
        with pytest.raises(ValueError, match=re.escape(message)):
            oscillation_sweep(racer, np.array([0.0, 1.2, 0.0, 0.0]), **args)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"eps": 0.0}, "eps must be positive and finite, got 0.0"),
            ({"eps": np.nan}, "eps must be positive and finite, got nan"),
            ({"eps": -1e-3}, "eps must be positive and finite, got -0.001"),
            ({"eps": np.inf}, "eps must be positive and finite, got inf"),
            ({"periods": -2}, "periods must be positive and finite, got -2"),
            ({"steps_per_period": 0}, "steps_per_period must be positive and finite, got 0"),
            ({"periods": 2.0}, "periods must be an integer, got 2.0"),
            ({"periods": 2.5}, "periods must be an integer, got 2.5"),
            ({"steps_per_period": 60.0}, "steps_per_period must be an integer, got 60.0"),
            ({"u_bar": np.inf}, "u_bar must be finite"),
            ({"K": np.nan}, "K must be finite"),
        ],
    )
    def test_two_timescale_rejects_bad_input(self, racer, kwargs, message):
        """Bad input is a ``ValueError`` before any step; ``eps = nan`` used to return ``rel_err = nan``, and
        ``eps = -1e-3`` to integrate backwards and report a small ``rel_err``."""
        args = {"u_bar": 0.0, "K": 1.0, "periods": 2, **kwargs}
        with pytest.raises(ValueError, match=re.escape(message)):
            two_timescale_coefficient(racer, np.array([0.0, 1.2, 0.0, 0.0]), **args)

    def test_sweep_requires_closed_form(self, ball):
        with pytest.raises(ModelError):
            oscillation_sweep(ball, np.zeros(4), 0.0, 1.0, [0.1], 1.0)

    def test_two_timescale_matches_averaged_prediction(self, racer):
        out = two_timescale_coefficient(
            racer, np.array([0.0, 1.2, 0.0, 0.0]), u_bar=0.0, K=1.0
        )
        assert out.predicted > 0.0
        assert out.rel_err < 2e-2
