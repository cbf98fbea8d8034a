"""Fixed-step integration of the reduced dynamics with built-in diagnostics.

The integrator state never includes the controlled coordinates: they are
assembled from the control signal at every Runge-Kutta stage, so the scheme is
plain RK4 on the reduced nonautonomous ODE and keeps its classical fourth
order.  (Integrating the controlled channels and overwriting them between
stages would silently degrade the order to two.)  So every stage's ``q`` is
adapted by construction: :func:`integrate` checks the control's shape and
``q0`` once per run, and every stage runs Maggi's equations directly (the
kernel of :func:`~nonholo.reduced_dynamics.frame_rhs`, with all of its
checks but the adaptedness test).  One stepper, ``_rk4_step``, advances
every :func:`integrate` run and every :func:`rk4_path` run.

Every recorded sample carries the energy and two relative residuals — the
constraint violation ``|Omega qdot| / |qdot|`` and the ideal-reaction defect
``|Pstar_I R| / |R|`` — and a step whose residuals blow past a hard threshold
raises :class:`~nonholo.errors.StepRejected` instead of producing quietly
wrong output.  They are read off the acceleration the sample's own stage k1
implies (``_frame_diagnostics``), so they see errors in the stages that
moved the state.

The module also hosts the vibrational-control experiments: sweeping the
dither scale ``eps`` against a model's averaged dynamics, and an independent
two-timescale measurement of the averaged momentum pump.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from .core_geometry import Array, SystemSpec, _norm, projection_set
from .errors import ModelError, NonAdaptedState, NotInDeltaCapGamma, StepRejected
from .models import ModelBundle
from .reduced_dynamics import PIVOT_COND, ControlSignal, _check_adapted, _maggi, _VoronetsFrame


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 settings.

    ``representation`` selects what is recorded, not the dynamics: both
    step the generic frame's velocity components ``xi`` by Maggi's equations
    and record the free momentum covector ``p_I = g V_I xi``; ``"frame"``
    also records ``xi``.
    ``hard_residual`` is the step-rejection threshold applied to both
    relative residuals.  It and ``dt`` must be positive and finite.
    """

    dt: float = 1e-3
    representation: str = "ambient"
    hard_residual: float = 1e-3

    def __post_init__(self) -> None:
        for key in ("dt", "hard_residual"):
            if not 0.0 < getattr(self, key) < np.inf:
                raise ValueError(f"{key} must be positive and finite, got {getattr(self, key)!r}")
        if self.representation not in ("ambient", "frame"):
            raise ValueError(f"representation must be 'ambient' or 'frame', got {self.representation!r}")


@dataclass
class Trajectory:
    """Sampled reduced trajectory with per-sample diagnostics.

    Arrays are indexed by sample; ``xi`` is ``None`` unless the frame
    representation was active.  ``meta`` records run settings (never written
    to CSV) and the generic frame's ``(t, pivots)`` at ``t0`` and at each
    switch.
    """

    t: Array
    q: Array
    p_I: Array
    H: Array
    constraint_residual: Array
    dalembert_residual: Array
    u: Array
    xi: Optional[Array] = None
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.t.shape[0]

    def column_names(self) -> list[str]:
        n = self.q.shape[1]
        M = self.u.shape[1]
        names = ["t"]
        names += [f"q{i + 1}" for i in range(n)]
        names += [f"pI_{i + 1}" for i in range(n)]
        if self.xi is not None:
            names += [f"xi_{i + 1}" for i in range(self.xi.shape[1])]
        names += ["H", "constraint_residual", "dalembert_residual"]
        names += [f"u_{i + 1}" for i in range(M)]
        return names

    def to_csv(self, path: str) -> None:
        """Write the trajectory; floats use shortest round-trip formatting."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.column_names())
            for i in range(len(self)):
                row = [self.t[i], *self.q[i], *self.p_I[i]]
                if self.xi is not None:
                    row += list(self.xi[i])
                row += [self.H[i], self.constraint_residual[i], self.dalembert_residual[i], *self.u[i]]
                writer.writerow([repr(float(x)) for x in row])


def _rk4_step(f: Callable[[float, Array], Array], t: float, y: Array, dt: float, k1: Array) -> Array:
    """One classical RK4 step of ``y' = f(t, y)``; the caller supplies ``k1 = f(t, y)``."""
    k2 = f(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = f(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = f(t + dt, y + dt * k3)
    return y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _frame_diagnostics(st: SimpleNamespace, xi: Array, t: float, control: ControlSignal) -> tuple[float, float, float]:
    """Energy and the two relative residuals at one sample, from its stage k1 ``st``.

    ``R = g qddot + (d_qdot g) qdot - 1/2 grad_q g[qdot, qdot]``, with
    ``qddot = dV xi + V_I xidot + dh udot + h uddot``, ``h = x0 - V_I c``,
    ``c = G^-1 (g V_I)^T x0``; its free part is ``g V_I G^-1 V_I^T R``.
    """
    qdot, g, udot = st.qdot, st.g, st.udot
    uddot = np.atleast_1d(np.asarray(control.accel(t), dtype=float))
    p = g @ qdot
    speed = _norm(qdot)
    cres = 0.0 if speed < 1e-14 else _norm(st.Om @ qdot) / speed  # a NaN speed gives a NaN residual
    dc = st.Ginv @ (st.V_I.T @ (st.dg_flow @ st.x0) + st.dV.T @ (g @ st.x0) + st.gV.T @ st.dx0 - st.Gdot @ st.c)
    dh = st.dx0 - st.dV @ st.c - st.V_I @ dc
    qddot = st.dV @ xi + st.V_I @ st.xidot + dh @ udot + st.h @ uddot
    R = g @ qddot + st.dg_flow @ qdot - 0.5 * st.grad
    # at instants where no reaction is needed |R| ~ 0 and the plain ratio
    # is noise over noise; the floor ties it to the dynamic scale instead
    floor = 1e-3 * (1.0 + _norm(p) + speed)
    dres = _norm(st.gV @ (st.Ginv @ (st.V_I.T @ R))) / max(_norm(R), floor)
    return 0.5 * float(qdot @ p), cres, dres


def integrate(
    spec: SystemSpec,
    q0: Array,
    p0: Array,
    control: ControlSignal,
    t_span: tuple[float, float],
    config: Optional[IntegratorConfig] = None,
    frame_field: None = None,  # only None: perfbench/workloads.py still passes it (ROADMAP item 1)
) -> Trajectory:
    """Propagate the reduced system over ``t_span`` and record every step.

    ``t_span`` must be finite and nonempty.  ``q0``'s controlled block must
    agree with ``control`` at the initial time (it is then snapped exactly);
    ``p0`` is coprojected onto the free block and must already be close to
    it; both must be finite.  The state ``[q_free, xi]`` is stepped by
    Maggi's equations (the kernel of ``frame_rhs``, at every stage) on the
    generic frame (see ``frame_rhs``) whose minor is best conditioned at
    ``t0``, the initial ``xi`` read off ``p0``, and every sample records
    ``p_I = g V_I xi``.  At a sample where the frame's ``|A_d|_F
    |A_d^-1|_F`` passes ``PIVOT_COND`` the pivots are chosen again and
    ``xi`` is read off ``p_I``.  So both representations give the same
    samples, and only the frame one adds ``xi``.  A sample whose residual
    is above ``hard_residual``, or NaN, raises ``StepRejected``.
    """
    if frame_field is not None:
        raise ValueError("integrate runs the generic frame only; frame_field must be None")
    cfg = config or IntegratorConfig()
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not -np.inf < t0 < t1 < np.inf:
        raise ValueError(f"empty or non-finite integration span ({t0}, {t1})")
    nsteps = max(1, round((t1 - t0) / cfg.dt))
    dt = (t1 - t0) / nsteps
    N, n, m = spec.N, spec.dim, spec.N - spec.nu

    q = np.array(q0, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    if q.shape != (n,):
        raise ValueError(f"q0 has shape {q.shape}, expected {(n,)}")
    if not (np.isfinite(q).all() and np.isfinite(p0).all()):
        raise ValueError("q0 and p0 must be finite")
    # once per run: the control's shape, and q0's controlled block; later stages assemble theirs from it
    q[N:] = _check_adapted(spec, q, t0, control)

    P = projection_set(spec, q, check=False)
    p_I = P.Pstar_I @ p0
    if float(np.abs(p_I - p0).max()) > 1e-6 * (1.0 + float(np.abs(p0).max())):
        raise NotInDeltaCapGamma("p0 is not a free-block momentum covector")

    def read_xi(V_I: Array, g: Array, p_I: Array) -> Array:  # p_I = g V_I xi
        return np.linalg.solve(V_I.T @ g @ V_I, V_I.T @ p_I)

    # the state is y = [q_free, xi]
    frame = _VoronetsFrame.best(spec, P.Om)
    pivots = [(t0, frame.pivots)]
    y = np.concatenate([q[:N], read_xi(frame.of(P.Om)[0][:, :m], P.g, p_I)])

    def assemble(t: float, q_free: Array) -> Array:
        u = np.atleast_1d(np.asarray(control.value(t), dtype=float))
        if not np.isfinite(u).all():
            raise NonAdaptedState(f"control value is not finite at t = {t}")
        return np.concatenate([q_free, u])

    out_t, out_H, out_cres, out_dres = np.empty((4, nsteps + 1))
    out_q, out_p = np.empty((2, nsteps + 1, n))
    out_xi = np.empty((nsteps + 1, m))

    def stage(t: float, y: Array) -> Array:
        st = _maggi(spec, assemble(t, y[:N]), y[N:], t, control, frame)
        return np.concatenate([st.qdot[:N], st.xidot])

    for step in range(nsteps + 1):
        t = t0 + step * dt
        q = assemble(t, y[:N])
        # stage k1, whose quantities also give the sample's diagnostics
        st = _maggi(spec, q, y[N:], t, control, frame)
        if _norm(st.Om[:, frame._layout[0]]) * st.ainv_norm > PIVOT_COND:
            best = _VoronetsFrame.best(spec, st.Om)
            if best.pivots != frame.pivots:
                # p_I does not depend on the frame: read xi off it in the new one
                frame = best
                y[N:] = read_xi(best.of(st.Om)[0][:, :m], st.g, st.gV @ y[N:])
                pivots.append((t, best.pivots))
                st = _maggi(spec, q, y[N:], t, control, best)
        H, cres, dres = _frame_diagnostics(st, y[N:], t, control)

        out_t[step], out_q[step], out_p[step], out_xi[step] = t, q, st.gV @ y[N:], y[N:]
        out_H[step], out_cres[step], out_dres[step] = H, cres, dres

        if not (cres <= cfg.hard_residual and dres <= cfg.hard_residual):  # NaN fails too
            raise StepRejected(
                f"diagnostics exceeded {cfg.hard_residual:.1e} at t = {t:.6g} "
                f"(constraint {cres:.2e}, reaction {dres:.2e})"
            )
        if step == nsteps:
            break

        # stage k1 is the sample's own right-hand side
        y = _rk4_step(stage, t, y, dt, np.concatenate([st.qdot[:N], st.xidot]))

    meta = {"dt": dt, "representation": cfg.representation, "t_span": (t0, t1), "pivots": pivots}
    return Trajectory(
        t=out_t, q=out_q, p_I=out_p, H=out_H, constraint_residual=out_cres, dalembert_residual=out_dres,
        u=out_q[:, N:].copy(), xi=out_xi if cfg.representation == "frame" else None, meta=meta,
    )


def rk4_path(
    f: Callable[[float, Array], Array],
    y0: Array,
    t_span: tuple[float, float],
    nsteps: int,
) -> Array:
    """Plain fixed-step RK4 endpoint for a closed-form field ``f(t, y)``; ``nsteps`` must be at least 1."""
    if nsteps < 1:
        raise ValueError(f"nsteps must be at least 1, got {nsteps!r}")
    t0, t1 = float(t_span[0]), float(t_span[1])
    dt = (t1 - t0) / nsteps
    y = np.array(y0, dtype=float)
    t = t0
    for _ in range(nsteps):
        y = _rk4_step(f, t, y, dt, f(t, y))
        t += dt
    return y


@dataclass(frozen=True)
class OscillationSweep:
    """Endpoint comparison of dithered runs against the averaged system."""

    eps: Array
    errors: Array
    ratios: Array
    endpoints: Array
    averaged_endpoints: Array
    horizon: float
    u_bar: float
    K: float

    def to_text(self) -> str:
        lines = [f"dither sweep: u_bar={self.u_bar}, K={self.K}, horizon={self.horizon}"]
        lines.append("eps,endpoint_error,ratio_to_previous")
        prev = None
        for e, err in zip(self.eps, self.errors):
            ratio = "" if prev is None else repr(float(err / prev)) if prev > 0 else "0.0"
            lines.append(f"{float(e)!r},{float(err)!r},{ratio}")
            prev = err
        return "\n".join(lines) + "\n"


def oscillation_sweep(
    model: ModelBundle,
    y0: Array,
    u_bar: float,
    K: float,
    eps_list,
    horizon: float,
    steps_per_period: int = 50,
) -> OscillationSweep:
    """Compare dithered closed-form runs against the averaged system.

    For each ``eps`` the control is ``u_bar + eps K sin(t/eps)`` and the model's
    closed-form reduced field is integrated with ``steps_per_period`` RK4 steps
    per fast period.  The averaged field is integrated afresh at the same step
    size for each ``eps``, so for ``K = 0`` the two vector fields — and hence
    the endpoints — coincide bitwise.
    """
    if model.closed_field is None or model.averaged_field is None:
        raise ModelError(f"model {model.name!r} has no closed-form/averaged dynamics")
    y0 = np.asarray(y0, dtype=float)
    eps_arr = np.asarray(list(eps_list), dtype=float)
    errors = np.empty(eps_arr.shape[0])
    endpoints = np.empty((eps_arr.shape[0], y0.shape[0]))
    avg_endpoints = np.empty_like(endpoints)
    f_avg = model.averaged_field(u_bar, K)
    for idx, eps in enumerate(eps_arr):
        control = ControlSignal.dither(u_bar, K, float(eps))
        f_fast = model.closed_field(control)
        period = 2.0 * np.pi * float(eps)
        nsteps = max(1, round(horizon / period * steps_per_period))
        endpoints[idx] = rk4_path(f_fast, y0, (0.0, horizon), nsteps)
        avg_endpoints[idx] = rk4_path(f_avg, y0, (0.0, horizon), nsteps)
        errors[idx] = float(np.linalg.norm(endpoints[idx] - avg_endpoints[idx]))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(errors[:-1] > 0.0, errors[1:] / errors[:-1], 0.0)
    return OscillationSweep(
        eps=eps_arr,
        errors=errors,
        ratios=ratios,
        endpoints=endpoints,
        averaged_endpoints=avg_endpoints,
        horizon=float(horizon),
        u_bar=float(u_bar),
        K=float(K),
    )


@dataclass(frozen=True)
class TwoTimescale:
    """Measured vs predicted secular pump of the last closed-state component."""

    measured: float
    predicted: float
    rel_err: float


def two_timescale_coefficient(
    model: ModelBundle,
    y0: Array,
    u_bar: float,
    K: float,
    eps: float = 1e-3,
    periods: int = 50,
    steps_per_period: int = 60,
) -> TwoTimescale:
    """Independently measure the averaged momentum pump from fast runs.

    Integrates the closed-form field under the dither over a whole number of
    fast periods and reads the mean drift rate of the final state component
    (the pumped momentum coordinate); compares with the averaged field's
    prediction at the initial state.
    """
    if model.closed_field is None or model.averaged_field is None:
        raise ModelError(f"model {model.name!r} has no closed-form/averaged dynamics")
    y0 = np.asarray(y0, dtype=float)
    horizon = periods * 2.0 * np.pi * eps
    control = ControlSignal.dither(u_bar, K, eps)
    yT = rk4_path(model.closed_field(control), y0, (0.0, horizon), periods * steps_per_period)
    measured = float((yT[-1] - y0[-1]) / horizon)
    predicted = float(model.averaged_field(u_bar, K)(0.0, y0)[-1])
    rel = abs(measured - predicted) / max(abs(predicted), 1e-300)
    return TwoTimescale(measured=measured, predicted=predicted, rel_err=rel)
