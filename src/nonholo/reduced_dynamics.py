"""Reduced equations of motion driven by prescribed control trajectories.

With the splitting of :mod:`nonholo.core_geometry` in hand, the motion of the
passive part of the system closes on the pair ``(q, p_I)``: the configuration
and the free-block momentum covector.  For control trajectory ``u(t)``::

    qdot  = ginv @ (p_I + k @ udot)          (= free velocity + lifted drive)
    pIdot = theta_I[p, p],                   p = p_I + k @ udot

where ``theta_I`` is the quadratic form collecting the transport of the free
coprojection and the configuration dependence of the kinetic energy.  The
mixed ``p_I``/``udot`` part of ``theta_I[p, p]`` couples momentum to control
rate; the pure ``udot`` part — the centrifugal term — is what distinguishes
systems that can absorb instantaneous control jumps from those that cannot.

The same dynamics can be propagated in frame coordinates: ``xi_m`` are the
velocity components of the free motion along a smooth adapted frame, with
``qdot = sum_m xi_m V_m + h @ udot``.  There d'Alembert's principle needs only
the frame and the metric (Maggi's equations, :func:`frame_rhs`):
``(G xidot)_m = <g qdot, dV_m> + 1/2 (d_{V_m} g)[qdot, qdot] - (Gdot xi)_m``
with ``G = V_I^T g V_I`` the Gram matrix of the free frame vectors and ``dV``
the frame's transport: no coefficient tensors.  The frame is built from
``omega`` alone, on a pivot layout (:func:`_maggi_point`), so every model has
one, and :func:`~nonholo.simulate.integrate` steps every run this way, each RK4 stage
running the kernel of ``frame_rhs`` directly.  The kernel's point half depends
on ``q`` alone and its velocity half adds ``qdot`` and ``xidot``, so every
pointwise entry evaluates each point once.  One closed form on stacked point
halves gives their quadratic form in the velocity (:func:`_maggi_form`), which
:func:`frame_coefficients`, :func:`centrifugal_psi` and the scans read.  The
coefficient tensors and the forms built on them (:func:`theta_I_apply`,
:func:`reduced_rhs`, :func:`reaction_force`) are only the reference.

Derivatives come in two kinds.  Those of the model callbacks ``metric`` and
``omega`` are complex-step derivatives: each callback is called once on the
stack of the points ``q`` and ``q + i H e_j`` (``H = COMPLEX_STEP``); row 0's
real part is the callback at ``q``, which the splitting or the frame form is
built from, and the other rows' imaginary parts give the derivatives, exact
to rounding.  The derivatives of the splitting built from them —
free coprojection, inverse metric and lift — follow from closed-form
perturbation identities at a single splitting (:func:`coefficient_tensors`),
and so does the frame's transport.  The callbacks must therefore be
complex-safe, and one that is not raises :class:`~nonholo.errors.ModelError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from .core_geometry import (
    COMPLEX_STEP,
    RANK_RTOL,
    Array,
    ProjectionSet,
    SystemSpec,
    _axis_shift,
    _best_pivots,
    _check_finite_derivatives,
    _complex_front,
    _complex_safe,
    _constraint_svd,
    _finite_vector,
    _frame_stack,
    _norm,
    _not_complex_safe,
    _pivot_layouts,
    _projection_stack,
)
from .errors import ChartDomain, NonAdaptedState, NotInDeltaCapGamma

TimeFn = Callable[[float], Array]
_FLOAT = np.dtype(float)


@dataclass(frozen=True)
class ControlSignal:
    """Prescribed control trajectory with two derivatives.

    ``value``, ``rate`` and ``accel`` map a time to arrays of shape ``(M,)``,
    and a column of ``K`` times (shape ``(K, 1)``) to arrays of shape
    ``(K, M)`` whose rows are the calls at each time, bit for bit.  A closed
    form's field reads a whole block of stage times in one such call (see
    :func:`~nonholo.simulate.rk4_path`).  Use the constructors below rather
    than building the callables by hand.
    """

    value: TimeFn
    rate: TimeFn
    accel: TimeFn

    @staticmethod
    def constant(u: object) -> "ControlSignal":
        u0 = np.atleast_1d(np.asarray(u, dtype=float))
        zero = np.zeros_like(u0)

        def held(v: Array) -> TimeFn:
            return _time_by_time(lambda t: v.copy(), u0.size)

        return ControlSignal(held(u0), held(zero), held(zero))

    @staticmethod
    def polynomial(coeffs: object, t0: float = 0.0) -> "ControlSignal":
        """Channel-wise polynomials in ``t - t0``; ``coeffs`` is ``(M, K)`` or ``(K,)``."""
        C = np.atleast_2d(np.asarray(coeffs, dtype=float))
        polys = [np.polynomial.Polynomial(row) for row in C]
        d1 = [p.deriv(1) for p in polys]
        d2 = [p.deriv(2) for p in polys]

        def ev(ps):
            return _time_by_time(lambda t: np.array([p(t - t0) for p in ps]), len(ps))

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
        # the rate's and accel's left factors, rounded as the products a * omega * cos(...) and -a * omega**2 * sin(...)
        a_rate, a_accel = a * omega, -a * omega**2
        return ControlSignal(
            lambda t: m + a * np.sin(omega * t + phase),
            lambda t: a_rate * np.cos(omega * t + phase),
            lambda t: a_accel * np.sin(omega * t + phase),
        )

    @staticmethod
    def dither(center: object, gain: object, eps: float) -> "ControlSignal":
        """Two-timescale dithering ``u = center + eps * gain * sin(t/eps)``.

        The rate ``gain * cos(t/eps)`` stays order one as ``eps`` shrinks,
        which is the regime the averaged dynamics describe.  ``eps`` must be
        positive and finite.
        """
        if not 0.0 < eps < np.inf:
            raise ValueError(f"dither eps must be positive and finite, got {eps!r}")
        return ControlSignal.sinusoid(center, np.atleast_1d(np.asarray(gain, float)) * eps, 1.0 / eps)

    @staticmethod
    def ramp(u0: object, u1: object, t0: float, duration: float) -> "ControlSignal":
        """Monotone C^2 transition from ``u0`` to ``u1`` over ``[t0, t0 + duration]``.

        Uses the quintic smoothstep ``6s^5 - 15s^4 + 10s^3`` so rate and
        acceleration vanish at both ends; before/after the window the value
        holds at the endpoints.  ``duration`` must be positive and finite.
        """
        a = np.atleast_1d(np.asarray(u0, dtype=float))
        b = np.atleast_1d(np.asarray(u1, dtype=float))
        a, b = (x.copy() for x in np.broadcast_arrays(a, b))
        if not 0.0 < duration < np.inf:
            raise ValueError(f"ramp duration must be positive and finite, got {duration!r}")

        def s(x: float) -> float:
            return ((6.0 * x - 15.0) * x + 10.0) * x**3

        def ds(x: float) -> float:
            return ((30.0 * x - 60.0) * x + 30.0) * x**2

        def dds(x: float) -> float:
            return ((120.0 * x - 180.0) * x + 60.0) * x

        def clamp(t: float) -> float:
            return min(1.0, max(0.0, (t - t0) / duration))

        def inside(d: Callable[[float], float], scale: float) -> TimeFn:
            """``(b - a) d / scale`` inside the open window, 0 outside it."""
            return _time_by_time(lambda t: (b - a) * (d(clamp(t)) / scale if 0.0 < clamp(t) < 1.0 else 0.0), a.size)

        # a column of times is read time by time: the powers in s, ds and dds round as Python's, unlike NumPy's
        return ControlSignal(
            _time_by_time(lambda t: a + (b - a) * s(clamp(t)), a.size), inside(ds, duration), inside(dds, duration**2)
        )


def _time_by_time(fn: TimeFn, M: int) -> TimeFn:
    """``fn`` at one time, and on a column of times its ``M``-channel calls at each, stacked as rows (shape ``(K, M)``,
    also for ``K = 0``): how every constructor but ``sinusoid`` (and ``dither``, built on it), whose formulas
    broadcast, reads a column of times."""
    return lambda t: (
        fn(t) if type(t) is float or not np.ndim(t) else np.array([fn(x) for x in t[:, 0].tolist()]).reshape(-1, M)
    )


@dataclass(frozen=True)
class CoefficientTensors:
    """Point data for the quadratic momentum equation at one configuration: the reference the frame forms are checked against.

    ``dPstar_I[j]``, ``dginv[j]`` and ``dg[j]`` are the coordinate-``j``
    derivatives of the free coprojection, the inverse metric and the metric;
    ``dk[j]`` that of the covector lift, exact to rounding (see
    :class:`~nonholo.core_geometry.SystemSpec`).  Tensors built for many
    points at once carry one leading axis over the points on every field.
    """

    projections: ProjectionSet
    dPstar_I: Array
    dginv: Array
    dk: Array
    dg: Array


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


def coefficient_tensors(spec: SystemSpec, q: Array) -> CoefficientTensors:
    """Assemble :class:`CoefficientTensors` at ``q`` from one splitting.

    Only ``metric`` and ``omega`` are differentiated numerically, by complex
    step: each runs once on the stack ``q + i H [0; I]``, whose row 0 gives
    the splitting and whose other rows give the axis derivatives; the
    splitting's derivatives are closed-form (see :func:`_tensors_from`).  A
    callback that is not complex-safe raises
    :class:`~nonholo.errors.ModelError`.
    """
    q = np.asarray(q, dtype=float)
    _, P, (dg, dOm) = _projection_stack(spec, q[None], _axis_shift(spec.dim))
    return _tensors_from(P.point(0), dg[0], dOm[0])


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
    ``pIdot``.  ``p`` and ``ptilde`` may carry leading axes that broadcast
    against those of stacked ``tensors``; so does the result.
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


def centrifugal_psi(spec: SystemSpec, q: Array, udot: Array) -> Array:
    """Pure control-rate momentum source ``theta_I[k udot, k udot]``, read off Maggi's form (:func:`_psi_stack`).

    This covector vanishing identically (for all ``q`` and ``udot``) is the
    computable signature of a system that tolerates control jumps.  It
    broadcasts over leading axes of ``udot``; ``q`` must be finite and of
    shape ``(N+M,)``, and ``udot`` finite with a last axis of length ``M``,
    else ``ValueError``.
    """
    udot = _finite_vector(np.atleast_1d(udot), "udot", spec.M, batched=True)
    _, pt = _frame_stack(spec, _finite_vector(q, "q", spec.dim)[None], _axis_shift(spec.dim))
    return np.einsum("...a,...b,abn->...n", udot, udot, _psi_stack(pt)[0])


def _maggi_form(pt: SimpleNamespace, free: bool = False) -> Array:
    """Maggi's quadratic form ``work[a, b]`` ``(S, K, K, m)`` (:func:`frame_coefficients`) on the point halves ``pt`` of
    ``_frame_stack`` with ``D = I``, on ``qdot = F z``: ``F = h`` (``K = M``), or with ``free`` ``F = [V_I | h]``."""
    F = np.concatenate([pt.V_I, pt.h], axis=2) if free else pt.h
    (S, n, K), m, nu = F.shape, pt.V_I.shape[2], pt.Ainv.shape[1]
    FT = F.transpose(0, 2, 1)
    # the frame's transport along each F_b, on its pivot rows (its other rows are 0)
    dOm_F = (FT @ pt.dOm.reshape(S, n, nu * n)).reshape(S, K, nu, n)
    dV_d = -(pt.Ainv[:, None] @ (dOm_F @ pt.V_I[:, None]))
    gF_d = (pt.g @ F)[np.arange(S)[:, None], pt.d]
    X = gF_d.transpose(0, 2, 1)[:, None] @ dV_d  # X[:, b, a, m] = <g F_a, dV_b[:, m]>
    # (d_j g)[F_a, F_b] on every axis j, then along V_I
    dg_FF = (FT[:, None] @ pt.dg @ F[:, None]).reshape(S, n, K * K)
    dg_V = (pt.V_I.transpose(0, 2, 1) @ dg_FF).reshape(S, m, K, K).transpose(0, 2, 3, 1)
    work = 0.5 * (X + X.transpose(0, 2, 1, 3)) + 0.5 * dg_V
    if free:
        # Gdot[:, b] = Gdot_b, symmetric; its V_I^T g dV_b is X[:, b, :m] (F's first m columns are V_I)
        Gdot = X[:, :, :m] + X[:, :, :m].transpose(0, 1, 3, 2) + (FT @ dg_FF).reshape(S, K, K, K)[:, :, :m, :m]
        work[:, :m] -= 0.5 * Gdot.transpose(0, 2, 1, 3)
        work[:, :, :m] -= 0.5 * Gdot
    return work


def _psi_stack(pt: SimpleNamespace) -> Array:
    """``Psi[a, b] = theta_I[k e_a, k e_b]`` ``(S, M, M, N+M)`` on the point halves ``pt`` of ``_frame_stack`` with ``D = I``.

    At ``xi = 0`` and ``qdot = h e`` Maggi's equations give ``G xidot = work[e, e]`` (:func:`_maggi_form` on ``F =
    h``) and the free momentum's rate ``g V_I xidot``, which is ``Psi[e, e]``: so ``Psi[a, b] = g V_I G^-1 work_ab``.
    """
    return _maggi_form(pt) @ (pt.gV @ pt.Ginv).transpose(0, 2, 1)[:, None]


def _read_control(fn: TimeFn, t: float, what: str) -> Array:
    """``fn(t)``, the control's ``what`` (``value``, ``rate`` or ``accel``) at ``t``, as a float array of one or more dimensions.

    A complex one raises ``NonAdaptedState``: its imaginary part would be dropped.
    """
    u = np.asarray(fn(t))
    if u.dtype is not _FLOAT:  # a float64 control, the usual one, costs this one test
        if u.dtype.kind == "c":
            raise NonAdaptedState(f"control {what} is complex at t = {t}")
        u = u.astype(float)
    return u if u.ndim else u[None]


def _read_controls(fn: TimeFn, ts: Array, what: str) -> Optional[Array]:
    """``fn`` on the column of times ``ts[:, None]``, the control's ``what`` there as a float ``(K, M)`` array.

    ``None`` if it is complex: :func:`_read_control`, time by time, then refuses it at the first time it is.
    """
    u = np.asarray(fn(ts[:, None]))
    if u.dtype.kind == "c":
        return None
    if u.ndim != 2 or len(u) != len(ts):
        raise ValueError(f"control {what} maps a column of {len(ts)} times to shape {u.shape}, not ({len(ts)}, M)")
    return u.astype(float, copy=False)


def _check_adapted(spec: SystemSpec, q: Array, t: float, control: ControlSignal) -> Array:
    u = _read_control(control.value, t, "value")
    if u.shape != (spec.M,):
        raise NonAdaptedState(f"control has {u.shape[0]} channels, system has M = {spec.M}")
    gap = float(np.abs(q[spec.N :] - u).max()) if spec.M else 0.0
    scale = 1.0 + (float(np.abs(u).max()) if spec.M else 0.0)
    if not gap <= 1e-6 * scale < np.inf:  # a NaN gap fails too, and so does an infinite command
        raise NonAdaptedState(f"controlled coordinates differ from command by {gap:.2e} at t = {t}")
    return u


# no caller in src/: kept for perfbench/spans.py, which spans it by name, until ROADMAP item 1 drops that span
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
    udot = _read_control(control.rate, t, "rate")
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
    return qdot, pIdot


# no caller in src/: kept for perfbench/spans.py, which spans it by name, until ROADMAP item 1 drops that span
def reaction_force(
    spec: SystemSpec,
    q: Array,
    p_I: Array,
    t: float,
    control: ControlSignal,
    tensors: Optional[CoefficientTensors] = None,
) -> Array:
    """Total constraint reaction covector along the reduced motion.

    Reconstructed as ``R = pdot + dH/dq`` with ``p = p_I + k @ udot`` and
    ``pdot`` assembled from the reduced equation plus the transport of the
    lift.  A correct implementation leaves ``R`` (which includes the
    control-enforcing forces) with no free-block component.
    """
    q = np.asarray(q, dtype=float)
    T = tensors if tensors is not None else coefficient_tensors(spec, q)
    P = T.projections
    qdot, pIdot = reduced_rhs(spec, q, p_I, t, control, tensors=T)
    udot = _read_control(control.rate, t, "rate")
    uddot = _read_control(control.accel, t, "accel")
    p = np.asarray(p_I, dtype=float) + P.k @ udot
    kdot = np.einsum("j,jia->ia", qdot, T.dk)
    pdot = pIdot + kdot @ udot + P.k @ uddot
    grad = 0.5 * np.einsum("i,jik,k->j", p, T.dginv, p)
    return pdot + grad


#: The frame's conditioning ``|Om[:, :N]|_F |A_d^-1|_F`` past which ``simulate.integrate`` picks new pivots at a
#: sample.  Scale-aware, unlike ``|A_d|_F |A_d^-1|_F``, which is 1 for every nonzero ``1 x 1`` minor.
PIVOT_COND = 1e2


def _maggi_point(spec: SystemSpec, q: Array, pivot: Optional[int] = None) -> SimpleNamespace:
    """The point half of :func:`frame_rhs` at ``q`` on the generic frame of Voronets and Chaplygin with the pivots
    ``d`` of layout ``pivot``, an index into ``core_geometry._pivot_layouts`` (``None``: the one best at ``q``).

    :func:`~nonholo.core_geometry._complex_front` on ``q + i H [0; I_n]`` (shape ``(n + 1, n)``) gives ``g``,
    ``Om`` and their axis derivatives ``dg``, ``dOm`` with the front's checks, which must pass the rank test and be
    finite; then ``pivot``, ``d``, the frame ``V[r] = I``, ``V[d] = -A_d^-1 Om[:, r]`` (free block ``V_I``, then
    particular solutions ``x0`` of the control rows), ``A_d^-1``, ``cond = |Om[:, :N]|_F |A_d^-1|_F``, ``gV``,
    ``G^-1``, ``c`` and ``h``.  The caller holds :func:`~nonholo.core_geometry._complex_safe`."""
    G, Om, dG, dOm = _complex_front(spec, q + _axis_shift(spec.dim))
    g, Om, dg, dOm = G[0], Om[0], dG[0], dOm[0]
    if pivot is None:
        pivot = int(_best_pivots(spec, Om[None])[0][0])
    subsets, others, bases = _pivot_layouts(spec.N, spec.nu, spec.dim)
    d, r = subsets[pivot], others[pivot]
    try:
        Ainv = np.linalg.inv(Om[:, d])
    except np.linalg.LinAlgError:  # a singular minor: the constraint block lost rank, or the frame's chart ends
        _constraint_svd(spec, q[None], Om[None])
        raise ChartDomain(f"pivot minor {tuple(d.tolist())} of the generic frame is singular at q={q}") from None
    cond = _norm(Om[:, : spec.N]) * _norm(Ainv)
    # the splitting's rank test holds if s_min(A_d) >= 1/|A_d^-1|_F clears it, since s_nu(Om[:, :N]) >= s_min(A_d)
    if not RANK_RTOL * cond < 1.0:
        _constraint_svd(spec, q[None], Om[None])
    _check_finite_derivatives(dg, dOm)
    V = bases[pivot].copy(order="F")
    V[d] = -Ainv @ Om[:, r]
    m = spec.N - spec.nu
    V_I, x0 = V[:, :m], V[:, m:]
    gV = g @ V_I
    Ginv = np.linalg.inv(V_I.T @ gV)
    # the lift: x0 less its g-orthogonal component in block I, the span of V_I
    c = Ginv @ (gV.T @ x0)
    return SimpleNamespace(
        g=g, Om=Om, dg=dg, dOm=dOm, pivot=pivot, d=d, V=V, Ainv=Ainv, cond=cond, V_I=V_I, x0=x0, gV=gV, Ginv=Ginv,
        c=c, h=x0 - V_I @ c,
    )


def _maggi_flow(pt: SimpleNamespace, xi: Array, udot: Array) -> SimpleNamespace:
    """The velocity half of :func:`frame_rhs` on the point data ``pt`` and the float arrays ``xi`` and ``udot``:
    ``qdot``, ``xidot`` and the intermediates that the sample diagnostics read (``p = g qdot``, the transport ``dW``
    of ``V`` and its free block ``dV``, ``dg_flow = d_qdot g``, ``grad``, ``Gdot``)."""
    V_I, n, m = pt.V_I, len(pt.g), pt.V_I.shape[1]
    if xi.shape != (m,):
        raise ValueError(f"xi has shape {xi.shape}, frame free block has {m} columns")
    qdot = V_I @ xi + pt.h @ udot

    # the frame's transport along qdot (the frame's rows r are exactly I)
    dW = np.zeros_like(pt.V)
    dW[pt.d] = -pt.Ainv @ ((qdot @ pt.dOm.reshape(n, pt.Om.size)).reshape(pt.Om.shape) @ pt.V)
    dV = dW[:, :m].copy()  # contiguous too
    dg_flow = (qdot @ pt.dg.reshape(n, n * n)).reshape(n, n)
    grad = (pt.dg @ qdot) @ qdot  # grad_q g[qdot, qdot]

    X = dV.T @ pt.gV
    Gdot = X + X.T + V_I.T @ dg_flow @ V_I
    p = pt.g @ qdot
    work = p @ dV + 0.5 * (grad @ V_I)
    return SimpleNamespace(
        udot=udot, qdot=qdot, p=p, dW=dW, dV=dV, dg_flow=dg_flow, grad=grad, Gdot=Gdot, xidot=pt.Ginv @ (work - Gdot @ xi)
    )


def frame_rhs(spec: SystemSpec, q: Array, xi: Array, t: float, control: ControlSignal) -> tuple[Array, Array]:
    """Right-hand side ``(qdot, xidot)`` in smooth-frame velocity coordinates (Maggi's equations).

    ``xi`` are the components of the free velocity along the frame's free
    block ``V_I``, so ``qdot = V_I xi + h @ udot``.  The constraint reaction
    ``d/dt(g qdot) - 1/2 d_q g[qdot, qdot]`` does no work on a free vector
    ``V_m``, and ``V_I^T g qdot = G xi`` with the Gram matrix
    ``G = V_I^T g V_I``, because ``h`` is ``g``-orthogonal to block I.
    Together::

        G xidot = work - Gdot xi
        work_m  = <g qdot, dV_m> + 1/2 (d_{V_m} g)[qdot, qdot]
        Gdot    = dV^T g V_I + V_I^T g dV + V_I^T (d_qdot g) V_I

    (Maggi's equations; Neimark & Fufaev, *Dynamics of Nonholonomic
    Systems*, 1972): no coefficient tensors and no derivative of the
    splitting.  The free vectors need not be ``g``-orthogonal.  The point
    half (:func:`_maggi_point`) runs ``metric`` and ``omega`` once each, on
    ``q + i H [0; I_n]``, and gives ``h = x0 - V_I G^-1 (g V_I)^T x0`` from
    the frame's drive block ``x0``; the velocity half (:func:`_maggi_flow`)
    contracts the axis derivatives to ``d_qdot g``, ``d_{V_m} g`` and
    ``d_qdot Om``.  The frame is the generic frame of Voronets and Chaplygin,
    built from ``Om`` on its best-conditioned ``nu x nu`` minor ``A_d``;
    ``Om V = 0`` and ``V[r] = I`` give its transport ``A_d dV[d] = -(d_qdot
    Om) V``, ``dV[r] = 0``.  A callback that is not complex-safe raises
    :class:`~nonholo.errors.ModelError`.  This pointwise entry also converts
    its inputs and checks that ``q`` is finite, of shape ``(N+M,)`` and
    adapted to ``control`` at ``t``, and ``xi`` finite and of shape
    ``(N - nu,)`` (else ``ValueError``, before any callback call); the stages
    of :func:`~nonholo.simulate.integrate` run the same kernel without those.
    """
    q = _finite_vector(q, "q", spec.dim)
    xi = _finite_vector(np.atleast_1d(xi), "xi", spec.N - spec.nu)
    _check_adapted(spec, q, t, control)
    udot = _read_control(control.rate, t, "rate")
    with _complex_safe():
        pt = _maggi_point(spec, q)
    st = _maggi_flow(pt, xi, udot)
    return st.qdot, st.xidot


def _closed_rhs(
    spec: SystemSpec, extract: Callable[[Array, Array], Array], q: Array, xi: Array, t: float, control: ControlSignal
) -> Array:
    """:func:`frame_rhs` as the rate of a closed-form state ``extract(q, p_I) = (q_free, xi)``.

    ``extract`` (a model's ``extract_closed``) reads the model's own velocity
    coordinates ``xi`` off a free momentum, linearly in it.  On the generic
    frame ``p_I = g V_I xi_gen``, so ``xi = B xi_gen`` with ``B`` the ``xi``
    part of ``extract(q, g V_I)``, column by column.  The rate of ``xi`` is
    the complex step of ``extract`` along ``(qdot, pIdot)``, with ``pIdot =
    ((d_qdot g) V_I + g dV) xi_gen + g V_I xidot_gen`` from the Maggi stage
    at ``q``; so ``extract`` must be complex-safe like the callbacks, and a
    ``TypeError`` or ``ComplexWarning`` from it is a ``ModelError`` naming
    ``extract_closed``.  ``q`` and ``xi`` are checked as in :func:`frame_rhs`.
    """
    q = _finite_vector(q, "q", spec.dim)
    xi = _finite_vector(np.atleast_1d(xi), "xi", spec.N - spec.nu)
    _check_adapted(spec, q, t, control)
    udot = _read_control(control.rate, t, "rate")
    N, m, H = spec.N, spec.N - spec.nu, COMPLEX_STEP

    def extract_xi(z: Array, p_I: Array) -> Array:
        try:
            return extract(z, p_I)[N:]
        except (TypeError, np.exceptions.ComplexWarning) as exc:
            raise _not_complex_safe("extract_closed", exc) from None

    with _complex_safe():
        pt = _maggi_point(spec, q)
        B = np.column_stack([extract_xi(q, pt.gV[:, k]) for k in range(m)])
        xi_gen = np.linalg.solve(B, xi)
        st = _maggi_flow(pt, xi_gen, udot)
        pIdot = (st.dg_flow @ pt.V_I + pt.g @ st.dV) @ xi_gen + pt.gV @ st.xidot
        z = q + (1j * H) * st.qdot
        return np.concatenate([st.qdot[:N], extract_xi(z, pt.gV @ xi_gen + (1j * H) * pIdot).imag / H])


def frame_coefficients(spec: SystemSpec, q: Array) -> dict[str, Array]:
    """Quadratic structure of the frame momentum equation at ``q``.

    ``xidot`` is exactly quadratic in ``z = (xi, udot)``.  On the generic frame best at ``q`` and ``qdot = F z``, ``F =
    [V_I | h]``, Maggi's equations (:func:`frame_rhs`) give ``G xidot = sum_ab z_a z_b work_ab`` in closed form::

        work_ab = 1/2 (<g F_a, dV_b> + <g F_b, dV_a>) + 1/2 (d_{V_m} g)[F_a, F_b] - 1/2 (Gdot_b e_a + Gdot_a e_b)
        Gdot_b  = dV_b^T g V_I + V_I^T g dV_b + V_I^T (d_{F_b} g) V_I,     dV_b[d] = -A_d^-1 (d_{F_b} Om) V_I

    (``e_a = 0`` past the free columns, ``dV_b[r] = 0``).  The symmetric form ``B = G^-1 work`` has the blocks
    ``"xi_xi"`` ``(m, m, m)``, pure free-velocity terms; ``"xi_udot"`` ``(m, m, M)``, the momentum/control-rate
    coupling ``2 B[xi, udot]``; and ``"udot_udot"`` ``(m, M, M)``, the pure control-rate pump.  A ``q`` that is not
    finite or not of shape ``(N+M,)`` raises ``ValueError``.  Each callback runs once, on ``q + i H [0; I_n]``.
    """
    _, pt = _frame_stack(spec, _finite_vector(q, "q", spec.dim)[None], _axis_shift(spec.dim))
    B = np.moveaxis((_maggi_form(pt, free=True) @ pt.Ginv.transpose(0, 2, 1)[:, None])[0], -1, 0)
    m = spec.N - spec.nu
    return {"xi_xi": B[:, :m, :m], "xi_udot": 2.0 * B[:, :m, m:], "udot_udot": B[:, m:, m:]}
