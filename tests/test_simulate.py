"""Integrator behaviour: order, diagnostics, CSV output, dither experiments."""

import csv

import numpy as np
import pytest

from nonholo import simulate
from nonholo.errors import ModelError, NonAdaptedState, NotInDeltaCapGamma, StepRejected
from nonholo.models import racer_frame_vectors, roller_racer_closed_rhs
from nonholo.reduced_dynamics import ControlSignal
from nonholo.simulate import (
    IntegratorConfig,
    Trajectory,
    integrate,
    oscillation_sweep,
    rk4_path,
    two_timescale_coefficient,
)


def racer_momentum(bundle, q, xi):
    g = bundle.spec.metric(q)
    return xi * (g @ racer_frame_vectors(bundle.params, q)["w1"])


class TestIntegratorConfig:
    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.0)

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

    def test_frame_representation_matches_ambient(self, racer):
        control = ControlSignal.sinusoid(0.0, 0.2, 2.0 * np.pi)
        p0 = racer_momentum(racer, racer.default_q0, 0.1)
        span = (0.0, 0.3)
        amb = integrate(
            racer.spec, racer.default_q0, p0, control, span, IntegratorConfig(dt=1e-3)
        )
        frm = integrate(
            racer.spec,
            racer.default_q0,
            p0,
            control,
            span,
            IntegratorConfig(dt=1e-3, representation="frame"),
            frame_field=racer.frame_field,
        )
        assert frm.xi is not None and frm.xi.shape == (301, 1)
        assert np.abs(frm.q[-1] - amb.q[-1]).max() < 1e-8
        xi_amb = racer.extract_closed(amb.q[-1], amb.p_I[-1])[3]
        assert abs(frm.xi[-1, 0] - xi_amb) < 1e-8

    @pytest.mark.parametrize("representation", ["ambient", "frame"])
    def test_one_tensor_build_per_sample_and_later_stage(self, racer, representation, monkeypatch):
        """Sample 0 reuses the initial point's tensors and frame: 4 n + 1 tensor builds for n steps."""
        builds = {"tensors": 0, "frames": 0}
        tensors = simulate.coefficient_tensors

        def counted_tensors(*args, **kwargs):
            builds["tensors"] += 1
            return tensors(*args, **kwargs)

        def counted_frame(q):
            builds["frames"] += 1
            return racer.frame_field(q)

        monkeypatch.setattr(simulate, "coefficient_tensors", counted_tensors)
        p0 = racer_momentum(racer, racer.default_q0, 0.1)
        integrate(
            racer.spec,
            racer.default_q0,
            p0,
            ControlSignal.sinusoid(0.0, 0.2, 2.0 * np.pi),
            (0.0, 0.01),
            IntegratorConfig(dt=1e-3, representation=representation),
            frame_field=counted_frame,
        )
        assert builds["tensors"] == 4 * 10 + 1
        if representation == "frame":
            # one per sample; stage k1 reuses it and builds only its complex
            # transport point, the other 30 stages the frame and that point
            assert builds["frames"] == 11 + 10 + 2 * 30

    def test_without_reprojection_short_runs_agree(self, racer):
        control = ControlSignal.sinusoid(0.0, 0.2, 2.0 * np.pi)
        p0 = racer_momentum(racer, racer.default_q0, 0.1)
        kw = dict(control=control, t_span=(0.0, 0.1))
        on = integrate(racer.spec, racer.default_q0, p0, config=IntegratorConfig(dt=1e-3), **kw)
        off = integrate(
            racer.spec,
            racer.default_q0,
            p0,
            config=IntegratorConfig(dt=1e-3, reproject=False),
            **kw,
        )
        assert np.abs(on.q[-1] - off.q[-1]).max() < 1e-6

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

    def test_rejects_frame_mode_without_frame_field(self, racer):
        with pytest.raises(ModelError):
            integrate(
                racer.spec,
                racer.default_q0,
                np.zeros(4),
                ControlSignal.constant(0.0),
                (0.0, 1.0),
                IntegratorConfig(representation="frame"),
            )

    def test_rejects_empty_span(self, racer):
        with pytest.raises(ValueError):
            integrate(racer.spec, racer.default_q0, np.zeros(4), ControlSignal.constant(0.0), (1.0, 1.0))

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
            frame_field=racer.frame_field,
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
                frame_field=racer.frame_field,
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
        traj = integrate(racer.spec, racer.default_q0, p0, control, (0.0, 0.05), cfg, racer.frame_field)
        assert len(traj) == 6
        assert step_calls == list(traj.t[:-1])

    def test_rk4_path_calls_it_once_per_step(self, step_calls):
        y = rk4_path(lambda t, y: -y, np.ones(2), (0.0, 1.0), 7)
        assert len(step_calls) == 7
        assert np.abs(y - np.exp(-1.0)).max() < 1e-4


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
