"""Reduced equations of motion driven by prescribed control trajectories.

With the splitting of :mod:`nonholo.core_geometry` in hand, the motion of the
passive part of the system closes on the pair ``(q, p_I)``: the configuration
and the free-block momentum covector.  For control trajectory ``u(t)``::

    qdot  = ginv @ (p_I + k @ udot)          (= free velocity + lifted drive)
    pIdot = theta_I[p, p] + Pstar_I @ F,     p = p_I + k @ udot

where ``theta_I`` is the quadratic form collecting the transport of the free
coprojection and the configuration dependence of the kinetic energy.  The
mixed ``p_I``/``udot`` part of ``theta_I[p, p]`` couples momentum to control
rate; the pure ``udot`` part — the centrifugal term — is what distinguishes
systems that can absorb instantaneous control jumps from those that cannot.

The same dynamics can be propagated in frame coordinates: ``xi_m`` are the
velocity components of the free motion along a smooth adapted frame, with
``qdot = sum_m xi_m V_m + h @ udot``.

Derivatives come in two kinds.  Those of the model callbacks ``metric`` and
``omega`` are complex-step derivatives: each callback is evaluated once at
every ``q + i H e_j`` (``H = COMPLEX_STEP``) and the derivative is read from
the imaginary part, exact to rounding.  Callbacks that reject complex input
get central differences with step ``SystemSpec.fd_step`` instead.  The
derivatives of the splitting built from them — free coprojection, inverse
metric and lift — follow from closed-form perturbation identities at a
single splitting (:func:`coefficient_tensors`).
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core_geometry import (
    Array,
    Frame,
    ProjectionSet,
    SkipTypes,
    SystemSpec,
    _check_shape,
    _check_symmetric,
    _each_point,
    _eye,
    _projection_stack,
    metric_at,
    metric_inverse_at,
    omega_at,
    projection_set,
)
from .errors import FrameNotSmooth, NonAdaptedState, NotInDeltaCapGamma

TimeFn = Callable[[float], Array]

#: Imaginary step ``H`` of the complex-step callback derivatives.  Far below
#: the rounding of any real part, so ``Im f(q + iH e_j) / H`` is ``df/dq_j``
#: with no truncation or cancellation error.
COMPLEX_STEP = 1e-30
_WARNINGS_LOCK = threading.Lock()


@dataclass(frozen=True)
class ControlSignal:
    """Prescribed control trajectory with two derivatives.

    ``value``, ``rate`` and ``accel`` map a time to arrays of shape ``(M,)``.
    Use the constructors below rather than building the callables by hand.
    """

    value: TimeFn
    rate: TimeFn
    accel: TimeFn

    @staticmethod
    def constant(u: object) -> "ControlSignal":
        u0 = np.atleast_1d(np.asarray(u, dtype=float))
        zero = np.zeros_like(u0)
        return ControlSignal(lambda t: u0.copy(), lambda t: zero.copy(), lambda t: zero.copy())

    @staticmethod
    def polynomial(coeffs: object, t0: float = 0.0) -> "ControlSignal":
        """Channel-wise polynomials in ``t - t0``; ``coeffs`` is ``(M, K)`` or ``(K,)``."""
        C = np.atleast_2d(np.asarray(coeffs, dtype=float))
        polys = [np.polynomial.Polynomial(row) for row in C]
        d1 = [p.deriv(1) for p in polys]
        d2 = [p.deriv(2) for p in polys]

        def ev(ps):
            return lambda t: np.array([p(t - t0) for p in ps])

        return ControlSignal(ev(polys), ev(d1), ev(d2))

    @staticmethod
    def linear(u0: object, rate: object, t0: float = 0.0) -> "ControlSignal":
        a = np.atleast_1d(np.asarray(u0, dtype=float))
        b = np.atleast_1d(np.asarray(rate, dtype=float))
        a, b = np.broadcast_arrays(a, b)
        return ControlSignal.polynomial(np.column_stack([a, b]), t0=t0)

    @staticmethod
    def sinusoid(mean: object, amp: object, omega: float, phase: float = 0.0) -> "ControlSignal":
        """``u(t) = mean + amp * sin(omega t + phase)`` per channel."""
        m = np.atleast_1d(np.asarray(mean, dtype=float))
        a = np.atleast_1d(np.asarray(amp, dtype=float))
        m, a = np.broadcast_arrays(m, a)
        m, a = m.copy(), a.copy()
        return ControlSignal(
            lambda t: m + a * np.sin(omega * t + phase),
            lambda t: a * omega * np.cos(omega * t + phase),
            lambda t: -a * omega**2 * np.sin(omega * t + phase),
        )

    @staticmethod
    def dither(center: object, gain: object, eps: float) -> "ControlSignal":
        """Two-timescale dithering ``u = center + eps * gain * sin(t/eps)``.

        The rate ``gain * cos(t/eps)`` stays order one as ``eps`` shrinks,
        which is the regime the averaged dynamics describe.
        """
        return ControlSignal.sinusoid(center, np.atleast_1d(np.asarray(gain, float)) * eps, 1.0 / eps)

    @staticmethod
    def ramp(u0: object, u1: object, t0: float, duration: float) -> "ControlSignal":
        """Monotone C^2 transition from ``u0`` to ``u1`` over ``[t0, t0 + duration]``.

        Uses the quintic smoothstep ``6s^5 - 15s^4 + 10s^3`` so rate and
        acceleration vanish at both ends; before/after the window the value
        holds at the endpoints.
        """
        a = np.atleast_1d(np.asarray(u0, dtype=float))
        b = np.atleast_1d(np.asarray(u1, dtype=float))
        a, b = (x.copy() for x in np.broadcast_arrays(a, b))
        if duration <= 0.0:
            raise ValueError("ramp duration must be positive")

        def s(x: float) -> float:
            return ((6.0 * x - 15.0) * x + 10.0) * x**3

        def ds(x: float) -> float:
            return ((30.0 * x - 60.0) * x + 30.0) * x**2

        def dds(x: float) -> float:
            return ((120.0 * x - 180.0) * x + 60.0) * x

        def clamp(t: float) -> float:
            return min(1.0, max(0.0, (t - t0) / duration))

        return ControlSignal(
            lambda t: a + (b - a) * s(clamp(t)),
            lambda t: (b - a) * (ds(clamp(t)) / duration if 0.0 < clamp(t) < 1.0 else 0.0),
            lambda t: (b - a) * (dds(clamp(t)) / duration**2 if 0.0 < clamp(t) < 1.0 else 0.0),
        )


@dataclass(frozen=True)
class ReducedState:
    """A point of the reduced phase space at a given time."""

    t: float
    q: Array
    p_I: Array


@dataclass(frozen=True)
class CoefficientTensors:
    """Point data for the quadratic momentum equation at one configuration.

    ``dPstar_I[j]``, ``dginv[j]`` and ``dg[j]`` are the coordinate-``j``
    derivatives of the free coprojection, the inverse metric and the metric;
    ``dk[j]`` that of the covector lift.  They are exact functions of the
    splitting at the point and of the callback derivatives, which are exact
    to rounding for complex-safe callbacks (central differences otherwise;
    see :class:`~nonholo.core_geometry.SystemSpec`).  Build once per
    evaluation point and share across the several quadratic-form
    contractions needed there.  Tensors built for many points at once carry
    one leading axis over the points on every field, like their
    ``projections``.
    """

    projections: ProjectionSet
    dPstar_I: Array
    dginv: Array
    dk: Array
    dg: Array


def _central_differences(spec: SystemSpec, Q: Array, skip: SkipTypes = ()) -> tuple[Array, Optional[Array], Optional[Array]]:
    """Central-difference stacks ``dg[i, j]`` and ``dOm[i, j]`` of real-only callbacks.

    Returns ``(keep, dg, dOm)`` as :func:`_callback_derivative_stack` does.
    """
    n = spec.dim

    def differences(q: Array) -> tuple[Array, Array]:
        dg = np.empty((n, n, n))
        dOm = np.empty((n, spec.nu, n))
        for j in range(n):
            h = spec.fd_step * max(1.0, abs(float(q[j])))
            qp = q.copy()
            qm = q.copy()
            qp[j] += h
            qm[j] -= h
            dg[j] = (metric_at(spec, qp) - metric_at(spec, qm)) / (2.0 * h)
            dOm[j] = (omega_at(spec, qp) - omega_at(spec, qm)) / (2.0 * h)
        return dg, dOm

    keep, parts = _each_point(differences, Q, skip)
    return (keep, *parts) if parts else (keep, None, None)


def _callback_derivative_stack(spec: SystemSpec, Q: Array, skip: SkipTypes = ()) -> tuple[Array, Optional[Array], Optional[Array]]:
    """Stacks ``dg[i, j]`` and ``dOm[i, j]`` of the callbacks' derivatives at every point ``Q[i]``.

    Complex step: at each point ``metric`` and ``omega`` are evaluated once
    each at every ``q + i H e_j``, and the derivative is the imaginary part
    over ``H``.  If a callback raises ``TypeError`` on complex input, or drops
    the imaginary part into a real array (``ComplexWarning``, made an error
    here), the whole stack gets central differences instead.  A point whose
    callback raises one of ``skip`` leaves the stack.  Returns
    ``(keep, dg, dOm)``: the mask of the points that stayed and the stacks
    over them (``None`` when no point stayed).
    """
    n = spec.dim
    steps = (1j * COMPLEX_STEP) * _eye(n)

    def complex_step(q: Array) -> tuple[Array, Array]:
        points = q + steps
        G = np.array([_check_shape(np.asarray(spec.metric(z)), (n, n), "metric") for z in points])
        O = np.array([_check_shape(np.asarray(spec.omega(z)), (spec.nu, n), "omega") for z in points])
        return G.imag, O.imag

    try:
        # catch_warnings swaps process-wide state: the lock keeps threads of a
        # concurrent caller from restoring each other's filters
        with _WARNINGS_LOCK, warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.ComplexWarning)
            keep, parts = _each_point(complex_step, Q, skip)
    except (TypeError, np.exceptions.ComplexWarning):
        return _central_differences(spec, Q, skip)
    if not parts:
        return keep, None, None
    dg = parts[0] / COMPLEX_STEP
    _check_symmetric(dg, "metric derivative")
    return keep, dg, parts[1] / COMPLEX_STEP


def _callback_derivatives(spec: SystemSpec, q: Array) -> tuple[Array, Array]:
    """Stacks ``dg[j]`` and ``dOm[j]`` of the callbacks' coordinate derivatives at ``q``."""
    _, dg, dOm = _callback_derivative_stack(spec, np.asarray(q, dtype=float)[None])
    return dg[0], dOm[0]


def _tensors_from(P: ProjectionSet, dg: Array, dOm: Array) -> CoefficientTensors:
    """:class:`CoefficientTensors` from a splitting and its callback derivatives.

    With ``P = P_I``, ``Q = I - P`` and ``R = R_II``, differentiating ``P``
    (the ``g``-orthogonal projector onto the kernel of the rows ``[Om; du]``)
    and ``h`` (the matching columns of their ``g``-minimal right inverse
    ``[R, h]``) gives, per coordinate::

        dP    = P ginv (dg - dOm^T R^T g) Q - R dOm P,      dPstar_I = dP^T
        dginv = -ginv dg ginv
        dh    = P ginv (dOm^T R^T g h - dg h) - R dOm h,    dk = dg h + g dh

    With ``Y = P ginv (dg - dOm^T R^T g)`` and ``W = Y + R dOm`` these are
    ``dP = Y - W P`` and ``dh = -W h``, evaluated as stacked matrix products
    over the coordinate axis and over any leading point axis the splitting
    carries.
    """
    # point matrices gain an axis that broadcasts over the coordinate axis of dg, dOm
    g, ginv, P_I, R, h = (A[..., None, :, :] for A in (P.g, P.ginv, P.P_I, P.R_II, P.h))
    Y = (P_I @ ginv) @ (dg - dOm.swapaxes(-1, -2) @ (R.swapaxes(-1, -2) @ g))
    W = Y + R @ dOm
    dP = Y - W @ P_I
    return CoefficientTensors(
        projections=P,
        dPstar_I=dP.swapaxes(-1, -2),
        dginv=-(ginv @ dg @ ginv),
        dk=dg @ h - g @ (W @ h),
        dg=dg,
    )


def _tensor_stack(spec: SystemSpec, Q: Array, skip: SkipTypes = ()) -> tuple[Array, Optional[CoefficientTensors]]:
    """:func:`coefficient_tensors` at every point of ``Q`` (shape ``(S, N+M)``) at once.

    Points leave the stack as in
    :func:`~nonholo.core_geometry._projection_stack` (callback errors in
    ``skip``, failed rank tests), before any callback derivative is taken at
    them, or when a derivative callback raises one of ``skip``.  Returns
    ``(keep, T)``: the mask of the points of ``Q`` that stayed and the
    tensors with one leading axis over them (``None`` when none stayed).
    """
    keep, P = _projection_stack(spec, Q, skip)
    if P is None:
        return keep, None
    derived, dg, dOm = _callback_derivative_stack(spec, Q[keep], skip)
    if not derived.all():
        keep[keep] = derived
        if not derived.any():
            return keep, None
        P = P.point(derived)
    return keep, _tensors_from(P, dg, dOm)


def coefficient_tensors(spec: SystemSpec, q: Array, projections: Optional[ProjectionSet] = None) -> CoefficientTensors:
    """Assemble :class:`CoefficientTensors` at ``q`` from one splitting.

    Only ``metric`` and ``omega`` are differentiated numerically, by complex
    step at ``q + i H e_j`` (``N + M`` evaluations of each; central
    differences at ``q ± h e_j`` for callbacks that reject complex input);
    the splitting's derivatives are closed-form (see :func:`_tensors_from`).
    """
    q = np.asarray(q, dtype=float)
    P = projections if projections is not None else projection_set(spec, q, check=False)
    return _tensors_from(P, *_callback_derivatives(spec, q))


def theta_I_apply(
    spec: SystemSpec,
    q: Array,
    p: Array,
    ptilde: Array,
    tensors: Optional[CoefficientTensors] = None,
) -> Array:
    """The quadratic momentum form: covector ``theta_I[p, ptilde]``.

    First slot feeds the transport direction ``ginv @ p``; the second is
    carried by the coprojection derivative.  On the diagonal this is exactly
    the force-free ``pIdot``.  ``p`` and ``ptilde`` may carry leading axes
    that broadcast against those of stacked ``tensors``; so does the result.
    """
    T = tensors if tensors is not None else coefficient_tensors(spec, q)
    P = T.projections
    p = np.asarray(p)
    vel = (P.ginv @ p[..., None])[..., 0]
    # transport of the coprojection along the flow, applied to ptilde
    out = np.einsum("...j,...jik,...k->...i", vel, T.dPstar_I, ptilde)
    # configuration dependence of the kinetic energy, coprojected
    grad = np.einsum("...i,...jik,...k->...j", p, T.dginv, ptilde)
    return out - 0.5 * (P.Pstar_I @ grad[..., None])[..., 0]


def centrifugal_psi(
    spec: SystemSpec,
    q: Array,
    udot: Array,
    tensors: Optional[CoefficientTensors] = None,
) -> Array:
    """Pure control-rate momentum source ``theta_I[k udot, k udot]``.

    This covector vanishing identically (for all ``q`` and ``udot``) is the
    computable signature of a system that tolerates control jumps.  Like
    :func:`theta_I_apply` it broadcasts over leading axes of ``udot`` and of
    stacked ``tensors``.
    """
    T = tensors if tensors is not None else coefficient_tensors(spec, q)
    drive = (T.projections.k @ np.atleast_1d(np.asarray(udot, dtype=float))[..., None])[..., 0]
    return theta_I_apply(spec, q, drive, drive, tensors=T)


def _check_adapted(spec: SystemSpec, q: Array, t: float, control: ControlSignal) -> Array:
    u = np.atleast_1d(np.asarray(control.value(t), dtype=float))
    if u.shape != (spec.M,):
        raise NonAdaptedState(f"control has {u.shape[0]} channels, system has M = {spec.M}")
    gap = float(np.abs(q[spec.N :] - u).max()) if spec.M else 0.0
    scale = 1.0 + (float(np.abs(u).max()) if spec.M else 0.0)
    if gap > 1e-6 * scale:
        raise NonAdaptedState(f"controlled coordinates differ from command by {gap:.2e} at t = {t}")
    return u


def reduced_rhs(
    spec: SystemSpec,
    q: Array,
    p_I: Array,
    t: float,
    control: ControlSignal,
    tensors: Optional[CoefficientTensors] = None,
) -> tuple[Array, Array]:
    """Right-hand side ``(qdot, pIdot)`` of the closed reduced system.

    ``q`` must have its controlled block equal to ``control.value(t)`` and
    ``p_I`` must lie in the image of the free coprojection (both verified to
    loose tolerances; violations raise rather than silently propagate).
    """
    q = np.asarray(q, dtype=float)
    p_I = np.asarray(p_I, dtype=float)
    _check_adapted(spec, q, t, control)
    T = tensors if tensors is not None else coefficient_tensors(spec, q)
    P = T.projections
    # Precomposing with the coprojection extends the field smoothly off the
    # moving image, which Runge-Kutta stage values leave at O(dt); only a
    # mismatch that is gross against the momenta in play — including the
    # drive momentum, which dominates during violent control ramps — means
    # the caller handed over the wrong covector.
    udot = np.atleast_1d(np.asarray(control.rate(t), dtype=float))
    drive = P.k @ udot
    projected = P.Pstar_I @ p_I
    resid = float(np.abs(projected - p_I).max())
    scale = 1.0 + float(np.abs(p_I).max()) + float(np.abs(drive).max())
    if resid > 1e-3 * scale:
        raise NotInDeltaCapGamma(f"p_I leaves the free coprojection image by {resid:.2e}")
    p_I = projected
    p = p_I + drive
    qdot = P.ginv @ p
    pIdot = theta_I_apply(spec, q, p, p, tensors=T)
    if spec.force is not None:
        pIdot = pIdot + P.Pstar_I @ np.asarray(spec.force(t, q, p), dtype=float)
    return qdot, pIdot


def hamiltonian(spec: SystemSpec, q: Array, p: Array) -> float:
    """Kinetic energy ``p @ ginv @ p / 2`` of a full momentum covector."""
    ginv = metric_inverse_at(spec, np.asarray(q, dtype=float))
    p = np.asarray(p, dtype=float)
    return 0.5 * float(p @ ginv @ p)


def reaction_force(
    spec: SystemSpec,
    q: Array,
    p_I: Array,
    t: float,
    control: ControlSignal,
    tensors: Optional[CoefficientTensors] = None,
) -> Array:
    """Total constraint reaction covector along the reduced motion.

    Reconstructed as ``R = pdot + dH/dq - F`` with ``p = p_I + k @ udot`` and
    ``pdot`` assembled from the reduced equation plus the transport of the
    lift.  A correct implementation leaves ``R`` (which includes the
    control-enforcing forces) with no free-block component.
    """
    q = np.asarray(q, dtype=float)
    T = tensors if tensors is not None else coefficient_tensors(spec, q)
    return _reaction_from_rhs(spec, q, p_I, t, control, T, reduced_rhs(spec, q, p_I, t, control, tensors=T))


def _reaction_from_rhs(
    spec: SystemSpec,
    q: Array,
    p_I: Array,
    t: float,
    control: ControlSignal,
    T: CoefficientTensors,
    rhs: tuple[Array, Array],
) -> Array:
    """:func:`reaction_force` given ``rhs = reduced_rhs(spec, q, p_I, t, control, tensors=T)``."""
    P = T.projections
    udot = np.atleast_1d(np.asarray(control.rate(t), dtype=float))
    uddot = np.atleast_1d(np.asarray(control.accel(t), dtype=float))
    p = np.asarray(p_I, dtype=float) + P.k @ udot
    qdot, pIdot = rhs
    kdot = np.einsum("j,jia->ia", qdot, T.dk)
    pdot = pIdot + kdot @ udot + P.k @ uddot
    grad = 0.5 * np.einsum("i,jik,k->j", p, T.dginv, p)
    R = pdot + grad
    if spec.force is not None:
        R = R - np.asarray(spec.force(t, q, p), dtype=float)
    return R


def check_frame_continuity(prev: Frame, new: Frame) -> None:
    """Reject sign flips or jumps between frames at neighbouring points.

    The diagonal of ``prev.Omega_frame @ new.V`` is ~1 for a smoothly varying
    frame; entries below one half signal a discontinuous supplier.
    """
    d = np.diag(prev.Omega_frame @ new.V)
    if d.size and float(d.min()) < 0.5:
        raise FrameNotSmooth(f"frame overlap diagonal dropped to {float(d.min()):.3f}")


def frame_rhs(
    spec: SystemSpec,
    q: Array,
    xi: Array,
    t: float,
    control: ControlSignal,
    frame_field: Callable[[Array], Frame],
    tensors: Optional[CoefficientTensors] = None,
    prev_frame: Optional[Frame] = None,
) -> tuple[Array, Array]:
    """Right-hand side ``(qdot, xidot)`` in smooth-frame velocity coordinates.

    ``xi_m`` are the components of the free velocity along the frame's free
    block (assumed ``g``-orthogonal within the block, as all built-in frames
    are), so ``qdot = sum_m xi_m V_m + h @ udot`` and

        xidot_m = ( <pIdot, V_m> + <p_I, d V_m/dt> - xi_m d n_m/dt ) / n_m

    with ``n_m = g[V_m, V_m]``.  The frame is transported along ``qdot`` by a
    central difference, and the norms exactly, with ``dV = d V/dt``, by
    ``d n_m/dt = 2 g[V_m, dV_m] + (sum_j qdot_j dg[j])[V_m, V_m]``.  The
    supplier is probed for smoothness on the way.
    """
    q = np.asarray(q, dtype=float)
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    _check_adapted(spec, q, t, control)
    T = tensors if tensors is not None else coefficient_tensors(spec, q)
    P = T.projections
    frame = frame_field(q)
    if prev_frame is not None:
        check_frame_continuity(prev_frame, frame)
    i0, i1 = frame.block_ranges[0]
    V_I = frame.V[:, i0:i1]
    if xi.shape != (i1 - i0,):
        raise ValueError(f"xi has shape {xi.shape}, frame free block has {i1 - i0} columns")
    g = P.g
    norms = np.einsum("im,ij,jm->m", V_I, g, V_I)

    udot = np.atleast_1d(np.asarray(control.rate(t), dtype=float))
    free_vel = V_I @ xi
    qdot = free_vel + P.h @ udot
    p_I = g @ free_vel
    p = p_I + P.k @ udot
    pIdot = theta_I_apply(spec, q, p, p, tensors=T)
    if spec.force is not None:
        pIdot = pIdot + P.Pstar_I @ np.asarray(spec.force(t, q, p), dtype=float)

    # transport the free block along qdot by central difference, its norms
    # through the exact metric derivative
    speed = float(np.linalg.norm(qdot))
    if speed == 0.0:
        dV = np.zeros_like(V_I)
        dnorm = np.zeros_like(norms)
    else:
        h = spec.fd_step * max(1.0, float(np.abs(q).max())) / speed
        fp = frame_field(q + h * qdot)
        fm = frame_field(q - h * qdot)
        check_frame_continuity(frame, fp)
        check_frame_continuity(frame, fm)
        # phi(s) = V(q + s qdot), so the plain central difference in s is
        # already the transport along the flow, d/dt V = DV[qdot]
        dV = (fp.V[:, i0:i1] - fm.V[:, i0:i1]) / (2.0 * h)
        dg_flow = np.tensordot(qdot, T.dg, axes=1)
        dnorm = 2.0 * np.einsum("im,ij,jm->m", V_I, g, dV) + np.einsum("im,ij,jm->m", V_I, dg_flow, V_I)

    xidot = (pIdot @ V_I + p_I @ dV - xi * dnorm) / norms
    return qdot, xidot


def frame_coefficients(
    spec: SystemSpec,
    q: Array,
    frame_field: Callable[[Array], Frame],
) -> dict[str, Array]:
    """Quadratic structure of the frame momentum equation at ``q``.

    The force-free ``xidot`` is exactly quadratic in ``(xi, udot)``; this
    extracts its three blocks by polarization of :func:`frame_rhs`:

    * ``"xi_xi"``     -- shape ``(m, m, m)``, pure free-velocity terms;
    * ``"xi_udot"``   -- shape ``(m, m, M)``, momentum/control-rate coupling;
    * ``"udot_udot"`` -- shape ``(m, M, M)``, pure control-rate pump.

    The controlled coordinates of ``q`` serve as the control value.
    """
    q = np.asarray(q, dtype=float)
    u0 = q[spec.N :]
    T = coefficient_tensors(spec, q)
    frame = frame_field(q)
    i0, i1 = frame.block_ranges[0]
    m = i1 - i0
    M = spec.M

    def f(xi: Array, udot: Array) -> Array:
        ctrl = ControlSignal.linear(u0, udot, t0=0.0)
        _, xidot = frame_rhs(spec, q, xi, 0.0, ctrl, frame_field, tensors=T)
        return xidot

    zero_xi = np.zeros(m)
    zero_u = np.zeros(M)
    base = {}
    for r in range(m):
        base[("xi", r)] = f(np.eye(m)[r], zero_u)
    for a in range(M):
        base[("u", a)] = f(zero_xi, np.eye(M)[a])

    xi_xi = np.zeros((m, m, m))
    for r in range(m):
        xi_xi[:, r, r] = base[("xi", r)]
    for r in range(m):
        for s in range(r + 1, m):
            cross = f(np.eye(m)[r] + np.eye(m)[s], zero_u) - base[("xi", r)] - base[("xi", s)]
            xi_xi[:, r, s] = xi_xi[:, s, r] = 0.5 * cross

    udot_udot = np.zeros((m, M, M))
    for a in range(M):
        udot_udot[:, a, a] = base[("u", a)]
    for a in range(M):
        for b in range(a + 1, M):
            cross = f(zero_xi, np.eye(M)[a] + np.eye(M)[b]) - base[("u", a)] - base[("u", b)]
            udot_udot[:, a, b] = udot_udot[:, b, a] = 0.5 * cross

    xi_udot = np.zeros((m, m, M))
    for r in range(m):
        for a in range(M):
            xi_udot[:, r, a] = f(np.eye(m)[r], np.eye(M)[a]) - base[("xi", r)] - base[("u", a)]

    return {"xi_xi": xi_xi, "xi_udot": xi_udot, "udot_udot": udot_udot}
