"""Fixed-step integration of the reduced dynamics with built-in diagnostics.

The integrator state never includes the controlled coordinates: they are
assembled from the control signal at every Runge-Kutta stage, so the scheme is
plain RK4 on the reduced nonautonomous ODE and keeps its classical fourth
order.  (Integrating the controlled channels and overwriting them between
stages would silently degrade the order to two.)  So every stage's ``q`` is
adapted by construction: :func:`integrate` checks the control's shape and
``q0`` once per run, and every stage runs Maggi's equations directly (the
kernel of :func:`~nonholo.reduced_dynamics.frame_rhs`, with all of its
checks but the adaptedness test); its point half at ``t0`` also gives the
initial ``xi``, so no splitting is built.  Stages k2 and k3 share a time
and one read of the control there.  The complex-safety guard
(``core_geometry._complex_safe``) is entered once per run, around the whole
stepping loop, so every stage's callback calls run under it, and each
stage's ``core_geometry._complex_front`` turns a callback's ``TypeError`` or
``ComplexWarning`` into ``ModelError``.  One stepper,
``_rk4_step``, advances every :func:`integrate` run and every
:func:`rk4_path` run.

Every recorded sample carries the energy and two relative residuals — the
constraint violation ``|Omega qdot| / |qdot|`` and the ideal-reaction defect
``|Pstar_I R| / |R|`` — and a step whose residuals blow past a hard threshold
raises :class:`~nonholo.errors.StepRejected` instead of producing quietly
wrong output.  They are read off the acceleration the sample's own stage k1
implies (``_frame_diagnostics``), so they see errors in the stages that
moved the state.

The module also hosts the vibrational-control experiments: sweeping the
dither scale ``eps`` against a model's averaged dynamics, and an independent
two-timescale measurement of the averaged momentum pump.  They step a
model's closed forms with :func:`rk4_path`, which runs its steps in blocks of
``_STAGE_BLOCK``.  A field with a ``stage_times`` hook is handed each block's
distinct stage times before the block is stepped, so it can read the control
on the whole block at once (a :class:`~nonholo.reduced_dynamics.ControlSignal`
takes a column of times) and look each stage's control half up.

The stepper works on Python lists of floats, not arrays: on a 4-entry state,
NumPy's per-operation dispatch costs more than the arithmetic.  So a field
``f(t, y)`` gets ``y`` as a list of floats and returns ``len(y)`` floats; a
return of another length raises ``ValueError``.  Each entry rounds as the
array expression of classical RK4 does, so the list stepper gives the array
stepper's bits.  :func:`rk4_path` takes an array ``y0`` (1-D) and a finite
``t_span`` and returns an array; :func:`integrate`'s stage converts at its
boundary.
"""

from __future__ import annotations

import csv
import numbers
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

import numpy as np

from .core_geometry import Array, SystemSpec, _best_pivots, _complex_safe, _norm
from .errors import ModelError, NonAdaptedState, NotInDeltaCapGamma, StepRejected
from .models import Field, ModelBundle
from .reduced_dynamics import (
    PIVOT_COND,
    ControlSignal,
    _check_adapted,
    _maggi_flow,
    _maggi_point,
    _read_control,
)


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


def _rk4_step(f: Field, t: float, y: list[float], dt: float, k1: Sequence[float]) -> list[float]:
    """One classical RK4 step of ``y' = f(t, y)`` on a list of floats; the caller supplies ``k1 = f(t, y)``.

    Each entry rounds as the array expression ``y + 0.5 * dt * k1``, ..., ``y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3
    + k4)`` does.  A stage of another length than ``y`` raises ``ValueError``, naming both lengths.
    """
    h = 0.5 * dt
    k2 = f(t + h, [a + h * b for a, b in zip(y, k1)])
    k3 = f(t + h, [a + h * b for a, b in zip(y, k2)])
    k4 = f(t + dt, [a + dt * b for a, b in zip(y, k3)])
    if not len(y) == len(k1) == len(k2) == len(k3) == len(k4):
        bad = next(len(k) for k in (k1, k2, k3, k4) if len(k) != len(y))
        raise ValueError(f"the field returned {bad} entries for a state of {len(y)}")
    w = dt / 6.0
    return [a + w * (((b + 2.0 * c) + 2.0 * d) + e) for a, b, c, d, e in zip(y, k1, k2, k3, k4)]


def _frame_diagnostics(pt: SimpleNamespace, st: SimpleNamespace, xi: Array, uddot: Array) -> tuple:
    """Energy and the two relative residuals at one sample, from its stage k1 (point half ``pt``, velocity ``st``)
    and the control's acceleration ``uddot`` there.

    ``R = g qddot + (d_qdot g) qdot - 1/2 grad_q g[qdot, qdot]``, with
    ``qddot = dV xi + V_I xidot + dh udot + h uddot``, ``h = x0 - V_I c``,
    ``c = G^-1 (g V_I)^T x0``; its free part is ``g V_I G^-1 V_I^T R``.
    """
    qdot, g, udot, p = st.qdot, pt.g, st.udot, st.p
    speed = _norm(qdot)
    cres = 0.0 if speed < 1e-14 else _norm(pt.Om @ qdot) / speed  # a NaN speed gives a NaN residual
    dx0 = st.dW[:, pt.V_I.shape[1] :].copy()  # the transport of x0, contiguous as dV is
    dc = pt.Ginv @ (pt.V_I.T @ (st.dg_flow @ pt.x0) + st.dV.T @ (g @ pt.x0) + pt.gV.T @ dx0 - st.Gdot @ pt.c)
    dh = dx0 - st.dV @ pt.c - pt.V_I @ dc
    qddot = st.dV @ xi + pt.V_I @ st.xidot + dh @ udot + pt.h @ uddot
    R = g @ qddot + st.dg_flow @ qdot - 0.5 * st.grad
    # at instants where no reaction is needed |R| ~ 0 and the plain ratio
    # is noise over noise; the floor ties it to the dynamic scale instead
    floor = 1e-3 * (1.0 + _norm(p) + speed)
    dres = _norm(pt.gV @ (pt.Ginv @ (pt.V_I.T @ R))) / max(_norm(R), floor)
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
    ``t0``, the initial ``xi = G^-1 V_I^T p0`` (``g V_I xi`` is the
    coprojected ``p0``), and every sample records ``p_I = g V_I xi``.  At a
    sample where the frame's ``|Om[:, :N]|_F |A_d^-1|_F`` passes ``PIVOT_COND``
    the pivots are chosen again and ``xi`` is read off ``p_I``.  So both
    representations give the same samples, and only the frame one adds
    ``xi``.  A sample whose residual is above ``hard_residual``, or NaN,
    raises ``StepRejected``, and a control value, rate or acceleration that
    is complex, or a value that is not finite, raises ``NonAdaptedState``.

    The run holds the complex-safety guard (``core_geometry._complex_safe``)
    from its first callback call to its last, so every stage's callbacks
    are checked for complex safety, whatever the caller's warning filters;
    only the callbacks' ``TypeError`` or ``ComplexWarning`` becomes
    ``ModelError`` (in ``core_geometry._complex_front``), and a control's own
    error leaves as itself.  While the run lasts, a ``ComplexWarning``
    anywhere in the process raises: in other threads, and in a control's own
    code.  The guard's lock is held as long: runs in concurrent threads take
    turns, one whole run at a time.
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
    udot, uddot = _read_control(control.rate, t0, "rate"), _read_control(control.accel, t0, "accel")

    def controls(t: float) -> tuple[Array, Array]:
        u = _read_control(control.value, t, "value")
        if not np.isfinite(u).all():
            raise NonAdaptedState(f"control value is not finite at t = {t}")
        return u, _read_control(control.rate, t, "rate")

    out_t, out_H, out_cres, out_dres = np.empty((4, nsteps + 1))
    out_q, out_p = np.empty((2, nsteps + 1, n))
    out_xi = np.empty((nsteps + 1, m))
    last = (None, None)  # (t, controls(t)) of the last stage: k2 and k3 share a time

    def stage(t: float, y: list[float]) -> list[float]:
        nonlocal last
        if last[0] != t:
            last = (t, controls(t))
        u, udot = last[1]
        y = np.array(y)
        st = _maggi_flow(_maggi_point(spec, np.concatenate([y[:N], u]), pivot), y[N:], udot)
        return np.concatenate([st.qdot[:N], st.xidot]).tolist()

    with _complex_safe():
        # the state is y = [q_free, xi]; the point data at t0 give xi (p0 = g V_I xi) and the first step's stage k1
        pt = _maggi_point(spec, q)
        y = np.concatenate([q[:N], pt.Ginv @ (pt.V_I.T @ p0)])
        if float(np.abs(pt.gV @ y[N:] - p0).max()) > 1e-6 * (1.0 + float(np.abs(p0).max())):
            raise NotInDeltaCapGamma("p0 is not a free-block momentum covector")
        pivot, pivots = pt.pivot, [(t0, tuple(pt.d.tolist()))]

        for step in range(nsteps + 1):
            t = t0 + step * dt
            if step:
                u, udot = controls(t)
                uddot = _read_control(control.accel, t, "accel")
                q = np.concatenate([y[:N], u])
                pt = _maggi_point(spec, q, pivot)
            if pt.cond > PIVOT_COND:
                best = int(_best_pivots(spec, pt.Om[None])[0][0])
                if best != pivot:
                    # p_I does not depend on the frame: read xi off it in the new one
                    pivot, p_I = best, pt.gV @ y[N:]
                    pt = _maggi_point(spec, q, pivot)
                    y[N:] = pt.Ginv @ (pt.V_I.T @ p_I)
                    pivots.append((t, tuple(pt.d.tolist())))
            # stage k1, whose quantities also give the sample's diagnostics
            st = _maggi_flow(pt, y[N:], udot)
            H, cres, dres = _frame_diagnostics(pt, st, y[N:], uddot)

            out_t[step], out_q[step], out_p[step], out_xi[step] = t, q, pt.gV @ y[N:], y[N:]
            out_H[step], out_cres[step], out_dres[step] = H, cres, dres

            if not (cres <= cfg.hard_residual and dres <= cfg.hard_residual):  # NaN fails too
                raise StepRejected(
                    f"diagnostics exceeded {cfg.hard_residual:.1e} at t = {t:.6g} "
                    f"(constraint {cres:.2e}, reaction {dres:.2e})"
                )
            if step == nsteps:
                break

            # stage k1 is the sample's own right-hand side
            y = np.array(_rk4_step(stage, t, y.tolist(), dt, np.concatenate([st.qdot[:N], st.xidot]).tolist()))

    meta = {"dt": dt, "representation": cfg.representation, "t_span": (t0, t1), "pivots": pivots}
    return Trajectory(
        t=out_t, q=out_q, p_I=out_p, H=out_H, constraint_residual=out_cres, dalembert_residual=out_dres,
        u=out_q[:, N:].copy(), xi=out_xi if cfg.representation == "frame" else None, meta=meta,
    )


#: RK4 steps whose stage times :func:`rk4_path` announces to a field's ``stage_times`` hook at once
_STAGE_BLOCK = 128


def _check_step_count(key: str, value: object) -> None:
    """``ValueError`` unless ``value`` is an integer: a float, even a whole one, or a bool is not a step count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{key} must be an integer, got {value!r}")


def rk4_path(f: Field, y0: Array, t_span: tuple[float, float], nsteps: int) -> Array:
    """Plain fixed-step RK4 endpoint for a closed-form field ``f(t, y)``; ``nsteps`` must be an integer, at least 1.

    ``f`` gets ``y`` as a list of floats and returns ``len(y)`` floats (a list, or any sequence of that length); a
    return of another length raises ``ValueError`` naming both lengths.  ``y0`` must be 1-D and ``t_span`` finite,
    else ``ValueError``; the endpoint is an ndarray.  Each step rounds as the array expression of classical RK4 does
    (see ``_rk4_step``).

    The steps run in blocks of ``_STAGE_BLOCK``.  The step times accumulate as ``t += dt`` from ``t0``, and a
    step's stages run at ``t``, ``t + 0.5 * dt`` (k2 and k3) and ``t + dt`` (k4, the next step's ``t``).  If ``f``
    has a ``stage_times`` hook, it is handed each block's distinct stage times in order, the ``2B + 1`` floats
    ``t_0, t_0 + 0.5 dt, t_1, ..., t_B`` of its ``B`` steps, before the block is stepped.
    """
    _check_step_count("nsteps", nsteps)
    if nsteps < 1:
        raise ValueError(f"nsteps must be at least 1, got {nsteps!r}")
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (np.isfinite(t0) and np.isfinite(t1)):
        raise ValueError(f"non-finite integration span ({t0}, {t1})")
    y = np.array(y0, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"y0 must be 1-D, got shape {y.shape}")
    y = y.tolist()
    dt = (t1 - t0) / nsteps
    hook = getattr(f, "stage_times", None)
    t = t0
    for start in range(0, nsteps, _STAGE_BLOCK):
        # the block's step times, t and then t += dt at each step (accumulate adds in order)
        times = np.add.accumulate(np.r_[t, np.full(min(_STAGE_BLOCK, nsteps - start), dt)])
        if hook is not None:
            stages = np.empty(2 * len(times) - 1)
            stages[0::2], stages[1::2] = times, times[:-1] + 0.5 * dt
            hook(stages)
        for t in times[:-1].tolist():
            y = _rk4_step(f, t, y, dt, f(t, y))
        t = float(times[-1])
    return np.array(y)


def _check_dither_inputs(u_bar: object, K: object, *positive: tuple[str, float]) -> None:
    """``ValueError`` unless ``u_bar`` and ``K`` are finite and each ``(key, value)`` of ``positive`` is above 0 and finite."""
    for key, value in (("u_bar", u_bar), ("K", K)):
        if not np.isfinite(value).all():
            raise ValueError(f"{key} must be finite, got {value!r}")
    for key, value in positive:
        if not 0.0 < value < np.inf:
            raise ValueError(f"{key} must be positive and finite, got {value!r}")


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
    the endpoints — coincide bitwise.  An empty ``eps_list``, an ``eps``,
    ``horizon`` or ``steps_per_period`` that is not positive and finite, or a
    ``u_bar`` or ``K`` that is not finite, is a ``ValueError``.
    """
    if model.closed_field is None or model.averaged_field is None:
        raise ModelError(f"model {model.name!r} has no closed-form/averaged dynamics")
    y0 = np.asarray(y0, dtype=float)
    eps_arr = np.asarray(list(eps_list), dtype=float)
    if not eps_arr.size:
        raise ValueError("eps_list must have at least one entry")
    eps_entries = (("eps_list entry", float(eps)) for eps in eps_arr)
    _check_dither_inputs(u_bar, K, ("horizon", horizon), ("steps_per_period", steps_per_period), *eps_entries)
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
    prediction at the initial state.  An ``eps``, ``periods`` or
    ``steps_per_period`` that is not positive and finite, a ``periods`` or
    ``steps_per_period`` that is not an integer, or a ``u_bar`` or ``K``
    that is not finite, is a ``ValueError``.
    """
    if model.closed_field is None or model.averaged_field is None:
        raise ModelError(f"model {model.name!r} has no closed-form/averaged dynamics")
    _check_dither_inputs(u_bar, K, ("eps", eps), ("periods", periods), ("steps_per_period", steps_per_period))
    _check_step_count("periods", periods)
    _check_step_count("steps_per_period", steps_per_period)
    y0 = np.asarray(y0, dtype=float)
    horizon = periods * 2.0 * np.pi * eps
    control = ControlSignal.dither(u_bar, K, eps)
    yT = rk4_path(model.closed_field(control), y0, (0.0, horizon), periods * steps_per_period)
    measured = float((yT[-1] - y0[-1]) / horizon)
    predicted = float(model.averaged_field(u_bar, K)(0.0, y0)[-1])
    rel = abs(measured - predicted) / max(abs(predicted), 1e-300)
    return TwoTimescale(measured=measured, predicted=predicted, rel_err=rel)
