"""Fixed-step integration of the reduced dynamics with built-in diagnostics.

The integrator state never includes the controlled coordinates: they are
assembled from the control signal at every Runge-Kutta stage, so the scheme is
plain RK4 on the reduced nonautonomous ODE and keeps its classical fourth
order.  (Integrating the controlled channels and overwriting them between
stages would silently degrade the order to two.)

Every recorded sample carries the energy and two relative residuals — the
constraint violation ``|Omega qdot| / |qdot|`` and the ideal-reaction defect
``|Pstar_I R| / |R|`` — and a step whose residuals blow past a hard threshold
raises :class:`~nonholo.errors.StepRejected` instead of producing quietly
wrong output.

The module also hosts the vibrational-control experiments: sweeping the
dither scale ``eps`` against a model's averaged dynamics, and an independent
two-timescale measurement of the averaged momentum pump.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core_geometry import Array, Frame, SystemSpec
from .errors import ModelError, NonAdaptedState, NotInDeltaCapGamma, StepRejected
from .models import ModelBundle
from .reduced_dynamics import (
    ControlSignal,
    ReducedState,
    _reaction_from_rhs,
    check_frame_continuity,
    coefficient_tensors,
    frame_rhs,
    reduced_rhs,
)


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 settings.

    ``representation`` selects the propagated momentum variables: ``"ambient"``
    evolves the free momentum covector ``p_I`` (reprojected onto the free
    coprojection image after every step when ``reproject`` is set);
    ``"frame"`` evolves frame velocity components ``xi`` along a smooth frame
    field.  ``hard_residual`` is the step-rejection threshold applied to both
    relative residuals.
    """

    dt: float = 1e-3
    representation: str = "ambient"
    reproject: bool = True
    hard_residual: float = 1e-3

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.representation not in ("ambient", "frame"):
            raise ValueError(f"unknown representation {self.representation!r}")


@dataclass
class Trajectory:
    """Sampled reduced trajectory with per-sample diagnostics.

    Arrays are indexed by sample; ``xi`` is ``None`` unless the frame
    representation was active.  ``meta`` records run settings (never written
    to CSV).
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

    def state(self, i: int) -> ReducedState:
        return ReducedState(t=float(self.t[i]), q=self.q[i].copy(), p_I=self.p_I[i].copy())

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


def _relative(numer: float, denom: float) -> float:
    if denom < 1e-14:
        return 0.0
    return numer / denom


def integrate(
    spec: SystemSpec,
    q0: Array,
    p0: Array,
    control: ControlSignal,
    t_span: tuple[float, float],
    config: Optional[IntegratorConfig] = None,
    frame_field: Optional[Callable[[Array], Frame]] = None,
) -> Trajectory:
    """Propagate the reduced system over ``t_span`` and record every step.

    ``q0``'s controlled block must agree with ``control`` at the initial time
    (it is then snapped exactly); ``p0`` is coprojected onto the free block
    and must already be close to it.  In the frame representation a
    ``frame_field`` is required and the initial ``xi`` is read off ``p0``.
    """
    cfg = config or IntegratorConfig()
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t1 <= t0:
        raise ValueError("empty integration span")
    nsteps = max(1, round((t1 - t0) / cfg.dt))
    dt = (t1 - t0) / nsteps
    N, n, M = spec.N, spec.dim, spec.M

    use_frame = cfg.representation == "frame"
    if use_frame and frame_field is None:
        raise ModelError("frame representation requested but no frame_field supplied")

    u_init = np.atleast_1d(np.asarray(control.value(t0), dtype=float))
    q = np.array(q0, dtype=float)
    if q.shape != (n,):
        raise ValueError(f"q0 has shape {q.shape}, expected {(n,)}")
    if M and float(np.abs(q[N:] - u_init).max()) > 1e-6 * (1.0 + float(np.abs(u_init).max())):
        raise NonAdaptedState("q0 controlled block disagrees with control at t0")
    q[N:] = u_init

    T = coefficient_tensors(spec, q)
    p0 = np.asarray(p0, dtype=float)
    p_I = T.projections.Pstar_I @ p0
    if float(np.abs(p_I - p0).max()) > 1e-6 * (1.0 + float(np.abs(p0).max())):
        raise NotInDeltaCapGamma("p0 is not a free-block momentum covector")

    frame = frame_field(q) if use_frame else None
    xi = None
    n_xi = 0
    if use_frame:
        i0, i1 = frame.block_ranges[0]
        V_I = frame.V[:, i0:i1]
        norms = np.einsum("im,ij,jm->m", V_I, T.projections.g, V_I)
        xi = (p_I @ V_I) / norms
        n_xi = i1 - i0

    qf = q[:N].copy()

    def assemble(t: float, q_free: Array) -> Array:
        out = np.empty(n)
        out[:N] = q_free
        out[N:] = np.atleast_1d(np.asarray(control.value(t), dtype=float))
        return out

    out_t = np.empty(nsteps + 1)
    out_q = np.empty((nsteps + 1, n))
    out_p = np.empty((nsteps + 1, n))
    out_xi = np.empty((nsteps + 1, n_xi)) if use_frame else None
    out_H = np.empty(nsteps + 1)
    out_cres = np.empty(nsteps + 1)
    out_dres = np.empty(nsteps + 1)
    out_u = np.empty((nsteps + 1, M))

    def stage_ambient(t: float, q_free: Array, p: Array):
        qq = assemble(t, q_free)
        qdot, pIdot = reduced_rhs(spec, qq, p, t, control, tensors=coefficient_tensors(spec, qq))
        return qdot[:N], pIdot

    def stage_frame(t: float, q_free: Array, x: Array, tensors=None):
        qq = assemble(t, q_free)
        TT = tensors if tensors is not None else coefficient_tensors(spec, qq)
        qdot, xidot = frame_rhs(spec, qq, x, t, control, frame_field, tensors=TT)
        return qdot[:N], xidot

    for step in range(nsteps + 1):
        t = t0 + step * dt
        q = assemble(t, qf)
        # sample 0 sits at the initial point, whose tensors and frame are built
        if step:
            T = coefficient_tensors(spec, q)
        P = T.projections

        if use_frame:
            if step:
                new_frame = frame_field(q)
                check_frame_continuity(frame, new_frame)
                frame = new_frame
            i0, i1 = frame.block_ranges[0]
            V_I = frame.V[:, i0:i1]
            norms = np.einsum("im,ij,jm->m", V_I, P.g, V_I)
            p_I = P.g @ (V_I @ xi)
        elif cfg.reproject:
            p_I = P.Pstar_I @ p_I

        udot = np.atleast_1d(np.asarray(control.rate(t), dtype=float))
        p_full = p_I + P.k @ udot
        qdot_full = P.ginv @ p_full
        H = 0.5 * float(p_full @ P.ginv @ p_full)
        cres = _relative(float(np.linalg.norm(P.Om @ qdot_full)), float(np.linalg.norm(qdot_full)))
        rhs = reduced_rhs(spec, q, p_I, t, control, tensors=T)
        R = _reaction_from_rhs(spec, q, p_I, t, control, T, rhs)
        # at instants where no reaction is needed |R| ~ 0 and the plain ratio
        # is noise over noise; the floor ties it to the dynamic scale instead
        floor = 1e-3 * (1.0 + float(np.linalg.norm(p_full)) + float(np.linalg.norm(qdot_full)))
        dres = float(np.linalg.norm(P.Pstar_I @ R)) / max(float(np.linalg.norm(R)), floor)

        out_t[step] = t
        out_q[step] = q
        out_p[step] = p_I
        if use_frame:
            out_xi[step] = xi
        out_H[step] = H
        out_cres[step] = cres
        out_dres[step] = dres
        out_u[step] = q[N:]

        if cres > cfg.hard_residual or dres > cfg.hard_residual:
            raise StepRejected(
                f"diagnostics exceeded {cfg.hard_residual:.1e} at t = {t:.6g} "
                f"(constraint {cres:.2e}, reaction {dres:.2e})"
            )
        if step == nsteps:
            break

        # RK4 advance; stage k1 reuses this sample's tensors (frame form) or
        # its right-hand side (ambient form)
        if use_frame:
            k1q, k1x = stage_frame(t, qf, xi, tensors=T)
            k2q, k2x = stage_frame(t + 0.5 * dt, qf + 0.5 * dt * k1q, xi + 0.5 * dt * k1x)
            k3q, k3x = stage_frame(t + 0.5 * dt, qf + 0.5 * dt * k2q, xi + 0.5 * dt * k2x)
            k4q, k4x = stage_frame(t + dt, qf + dt * k3q, xi + dt * k3x)
            qf = qf + dt / 6.0 * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
            xi = xi + dt / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        else:
            k1q, k1p = rhs[0][:N], rhs[1]
            k2q, k2p = stage_ambient(t + 0.5 * dt, qf + 0.5 * dt * k1q, p_I + 0.5 * dt * k1p)
            k3q, k3p = stage_ambient(t + 0.5 * dt, qf + 0.5 * dt * k2q, p_I + 0.5 * dt * k2p)
            k4q, k4p = stage_ambient(t + dt, qf + dt * k3q, p_I + dt * k3p)
            qf = qf + dt / 6.0 * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
            p_I = p_I + dt / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)

    return Trajectory(
        t=out_t,
        q=out_q,
        p_I=out_p,
        H=out_H,
        constraint_residual=out_cres,
        dalembert_residual=out_dres,
        u=out_u,
        xi=out_xi,
        meta={"dt": dt, "representation": cfg.representation, "t_span": (t0, t1)},
    )


def rk4_path(
    f: Callable[[float, Array], Array],
    y0: Array,
    t_span: tuple[float, float],
    nsteps: int,
) -> Array:
    """Plain fixed-step RK4 endpoint for a closed-form field ``f(t, y)``."""
    t0, t1 = float(t_span[0]), float(t_span[1])
    dt = (t1 - t0) / nsteps
    y = np.array(y0, dtype=float)
    t = t0
    for _ in range(nsteps):
        k1 = f(t, y)
        k2 = f(t + 0.5 * dt, y + 0.5 * dt * k1)
        k3 = f(t + 0.5 * dt, y + 0.5 * dt * k2)
        k4 = f(t + dt, y + dt * k3)
        y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
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
