"""The four benchmark workloads: seeded inputs, one operation, its checks.

Each workload is a closed loop of operations, one library call sequence
after another on one thread.  Operation ``i`` of seed ``s`` draws its inputs
from ``numpy.random.default_rng([s, i])``, so a seed fixes every input and a
shorter run sees a prefix of a longer one.

A workload's *unit* is what its throughput counts: one RK4 step for the two
simulate workloads and the dither workload, one scan point for the check-fit
workload.  Every operation is checked after the timed loop; ``check`` returns
the observed accuracy figures and each guard's margin in decades
(``log10(tolerance / observed)``, positive while the guard holds).

Operations are short, about 0.1 s on a 2 vCPU Xeon VM, so that the
machine-speed probe run after each one sees the same machine (``probe.py``).

Library functions are always looked up as module attributes at call time so
that the tracer's rebinding takes effect.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

import nonholo.jump_analysis as jump_analysis
import nonholo.models as models
import nonholo.reduced_dynamics as reduced_dynamics
import nonholo.simulate as simulate

HARD_RESIDUAL = 1e-3  # IntegratorConfig default, also the CLI default
ORACLE_TOL = 1e-5  # oracle-compare default tolerance
BALL_P_TOL = 1e-6  # max |p_I| from rest on the fit model (acceptance gate 4)
SCAN_TOL = 1e-7  # check-fit default tolerance
RATIO_TOL = 0.05  # |ratio - 1/4| for halved dither scales
TWO_TIMESCALE_TOL = 2e-2  # rel_err of the measured pump (acceptance gate 6)

# the log10 of an observed deviation of exactly zero is capped here
MAX_MARGIN = 20.0

# scratch files stay inside the checkout the benchmark runs from
ROOT = Path(__file__).resolve().parent.parent


def margin(tol: float, observed: float) -> float:
    """Decades between a tolerance and the observed size (capped)."""
    if observed <= 0.0:
        return MAX_MARGIN
    return min(MAX_MARGIN, math.log10(tol / observed))


def build_models() -> dict:
    return {
        "racer": models.build_model("roller-racer"),
        "ball": models.build_model("rolling-ball"),
    }


def trajectory_csv(traj) -> bytes:
    """The CLI's primary ``simulate`` output, as bytes."""
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_tmp_") as tmp:
        path = os.path.join(tmp, "traj.csv")
        traj.to_csv(path)
        with open(path, "rb") as fh:
            return fh.read()


def _relative_dev(got: np.ndarray, ref: np.ndarray) -> float:
    # same normalisation as the oracle-compare command
    return float(np.abs(got - ref).max()) / (1.0 + float(np.abs(ref).max()))


def _residual_max(traj) -> float:
    return max(float(traj.constraint_residual.max()), float(traj.dalembert_residual.max()))


@dataclass(frozen=True)
class SimInput:
    q0: np.ndarray
    p0: np.ndarray
    control: object
    y0: Optional[np.ndarray]  # closed-form state, racer only


class RacerSimulate:
    """Roller Racer, ambient representation, seeded sinusoidal steering."""

    name = "racer-simulate"
    unit = "step"
    nsteps = 10
    dt = 5e-3
    trace_ops = 40

    def make_input(self, mods: dict, seed: int, i: int) -> SimInput:
        rng = np.random.default_rng([seed, i])
        control = reduced_dynamics.ControlSignal.sinusoid(
            rng.uniform(-0.3, 0.3), rng.uniform(0.2, 0.5), rng.uniform(2.0, 6.0), rng.uniform(0.0, 2.0 * np.pi)
        )
        y0 = np.array([rng.uniform(-1.0, 1.0), rng.uniform(1.0, 2.1), rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5)])
        q0, p0 = mods["racer"].embed_closed(y0, float(control.value(0.0)[0]))
        return SimInput(q0=q0, p0=p0, control=control, y0=y0)

    def units(self, inp) -> int:
        return self.nsteps

    integrate_steps = units

    def scan_points(self, inp) -> int:
        return 0

    def run(self, mods: dict, inp: SimInput):
        return simulate.integrate(
            mods["racer"].spec,
            inp.q0,
            inp.p0,
            inp.control,
            (0.0, self.nsteps * self.dt),
            simulate.IntegratorConfig(dt=self.dt),
        )

    def primary(self, result) -> bytes:
        return trajectory_csv(result)

    def check(self, mods: dict, inp: SimInput, traj) -> dict:
        racer = mods["racer"]
        field = racer.closed_field(inp.control)
        y = inp.y0
        dev = 0.0
        for i in range(1, len(traj)):
            y = simulate.rk4_path(field, y, (float(traj.t[i - 1]), float(traj.t[i])), 1)
            dev = max(dev, _relative_dev(racer.extract_closed(traj.q[i], traj.p_I[i]), y))
        res = _residual_max(traj)
        return {
            "oracle_dev": dev,
            "residual_max": res,
            "margins": {"oracle": margin(ORACLE_TOL, dev), "residual": margin(HARD_RESIDUAL, res)},
        }


class BallFrameSimulate:
    """Rolling ball from rest, frame representation, seeded turntable sinusoid."""

    name = "ball-frame-simulate"
    unit = "step"
    nsteps = 5
    dt = 2e-3
    trace_ops = 40

    def make_input(self, mods: dict, seed: int, i: int) -> SimInput:
        rng = np.random.default_rng([seed, i])
        box = mods["ball"].sample_box
        q0 = rng.uniform(box[:, 0], box[:, 1])
        q0[1] = rng.uniform(0.8, np.pi - 0.8)  # clear of the Euler-angle chart edge
        control = reduced_dynamics.ControlSignal.sinusoid(
            rng.uniform(-0.5, 0.5), rng.uniform(0.1, 0.4), rng.uniform(3.0, 8.0), rng.uniform(0.0, 2.0 * np.pi)
        )
        q0[5] = float(control.value(0.0)[0])
        return SimInput(q0=q0, p0=np.zeros(6), control=control, y0=None)

    def units(self, inp) -> int:
        return self.nsteps

    integrate_steps = units

    def scan_points(self, inp) -> int:
        return 0

    def run(self, mods: dict, inp: SimInput):
        ball = mods["ball"]
        return simulate.integrate(
            ball.spec,
            inp.q0,
            inp.p0,
            inp.control,
            (0.0, self.nsteps * self.dt),
            simulate.IntegratorConfig(dt=self.dt, representation="frame"),
            frame_field=ball.frame_field,
        )

    def primary(self, result) -> bytes:
        return trajectory_csv(result)

    def check(self, mods: dict, inp: SimInput, traj) -> dict:
        p_max = float(np.abs(traj.p_I).max())
        res = _residual_max(traj)
        return {
            "p_I_max": p_max,
            "residual_max": res,
            "margins": {"p_I_from_rest": margin(BALL_P_TOL, p_max), "residual": margin(HARD_RESIDUAL, res)},
        }


@dataclass(frozen=True)
class ScanInput:
    sampler_seed: int


class BallCheckfit:
    """``check-fit`` on the rolling ball: both scans plus structural sufficiency."""

    name = "ball-checkfit"
    unit = "point"
    samples = 5
    sufficiency_samples = 2
    trace_ops = 60

    def make_input(self, mods: dict, seed: int, i: int) -> ScanInput:
        rng = np.random.default_rng([seed, i])
        return ScanInput(sampler_seed=int(rng.integers(0, 2**31)))

    def units(self, inp) -> int:
        return 2 * self.samples

    def integrate_steps(self, inp) -> int:
        return 0

    scan_points = units

    def run(self, mods: dict, inp: ScanInput):
        # the same sequence and sampler seeds as the check-fit command
        ball = mods["ball"]
        box = ball.sample_box
        s = inp.sampler_seed
        psi = jump_analysis.psi_scan(ball.spec, jump_analysis.BoxSampler(box, seed=s), n_samples=self.samples, tol=SCAN_TOL)
        theta = jump_analysis.theta_on_III_scan(
            ball.spec, jump_analysis.BoxSampler(box, seed=s + 1), n_samples=self.samples, tol=SCAN_TOL
        )
        structural = jump_analysis.sufficiency_check(
            ball.spec,
            ball.constancy_basis,
            jump_analysis.BoxSampler(box, seed=s + 2),
            n_samples=self.sufficiency_samples,
            declared_flat=ball.declared_flat,
        )
        return psi, theta, structural

    def primary(self, result) -> bytes:
        psi, theta, structural = result
        return (psi.to_text() + theta.to_text() + structural.to_text() + "\n").encode()

    def check(self, mods: dict, inp: ScanInput, result) -> dict:
        psi, theta, structural = result
        worst = max(psi.max_value, theta.max_value)
        verdicts_ok = psi.verdict == theta.verdict == "fit" and structural.sufficient
        return {
            "psi_max": worst,
            "skipped": psi.failures + theta.failures,
            # a wrong verdict fails the operation whatever the margin says
            "margins": {"psi": margin(SCAN_TOL, worst) if verdicts_ok else -MAX_MARGIN},
        }


@dataclass(frozen=True)
class DitherInput:
    y0: np.ndarray
    u_bar: float
    K: float
    pump: bool  # the two-timescale pump run, else the dither sweep


class RacerDither:
    """``vibrate`` on the racer: dither sweep and two-timescale pump, in turn.

    The ``vibrate`` sequence is split in its two halves so that an operation
    stays short: even operations run the sweep, odd ones the pump.
    """

    name = "racer-dither"
    unit = "step"
    eps_list = (0.1, 0.05, 0.025)
    horizon = math.pi
    steps_per_period = 50
    # two_timescale_coefficient defaults
    tt_periods = 50
    tt_steps_per_period = 60
    trace_ops = 40

    def make_input(self, mods: dict, seed: int, i: int) -> DitherInput:
        rng = np.random.default_rng([seed, i])
        y0 = np.array([0.0, rng.uniform(0.9, 2.2), 0.0, rng.uniform(-0.2, 0.2)])
        return DitherInput(y0=y0, u_bar=float(rng.uniform(-0.4, 0.4)), K=float(rng.uniform(0.7, 1.3)), pump=i % 2 == 1)

    def units(self, inp) -> int:
        # RK4 steps of every rk4_path call: the pump run, or fast and averaged per eps
        if inp.pump:
            return self.tt_periods * self.tt_steps_per_period
        return sum(
            2 * max(1, round(self.horizon / (2.0 * math.pi * eps) * self.steps_per_period)) for eps in self.eps_list
        )

    def integrate_steps(self, inp) -> int:
        return 0

    def scan_points(self, inp) -> int:
        return 0

    def run(self, mods: dict, inp: DitherInput):
        racer = mods["racer"]
        if inp.pump:
            return simulate.two_timescale_coefficient(
                racer, inp.y0, inp.u_bar, inp.K, periods=self.tt_periods, steps_per_period=self.tt_steps_per_period
            )
        return simulate.oscillation_sweep(
            racer, inp.y0, inp.u_bar, inp.K, self.eps_list, self.horizon, steps_per_period=self.steps_per_period
        )

    def primary(self, result) -> bytes:
        if isinstance(result, simulate.OscillationSweep):
            return result.to_text().encode()
        return f"two-timescale: {result.measured!r},{result.predicted!r},{result.rel_err!r}\n".encode()

    def check(self, mods: dict, inp: DitherInput, result) -> dict:
        if inp.pump:
            return {
                "two_timescale_rel_err": result.rel_err,
                "margins": {"two_timescale": margin(TWO_TIMESCALE_TOL, result.rel_err)},
            }
        ratio_dev = float(np.abs(result.ratios - 0.25).max())
        shrinking = bool(np.all(np.diff(result.errors) < 0.0))
        return {
            "ratio_dev": ratio_dev,
            "margins": {"ratio": margin(RATIO_TOL, ratio_dev) if shrinking else -MAX_MARGIN},
        }


WORKLOADS = {w.name: w for w in (RacerSimulate(), BallFrameSimulate(), BallCheckfit(), RacerDither())}
