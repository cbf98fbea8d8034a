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
``qdot = sum_m xi_m V_m + h @ udot``.  There d'Alembert's principle needs
only the frame and the metric (Maggi's equations, :func:`frame_rhs`):
``(G xidot)_m = <g qdot, dV_m> + 1/2 (d_{V_m} g)[qdot, qdot] - (Gdot xi)_m``
with ``G = V_I^T g V_I`` the Gram matrix of the free frame vectors and ``dV``
the frame's transport.  So the frame form builds no coefficient tensors: it
needs the metric and the lift at ``q``, the frame, its transport, and the
metric's derivatives along the free frame vectors and ``qdot``.  The frame
is built from ``omega`` alone (``_VoronetsFrame``), so every model has one,
and :func:`~nonholo.simulate.integrate` steps every run this way, each RK4
stage running the kernel of ``frame_rhs`` directly (a stage's ``q`` is
adapted by construction).  The coefficient tensors serve the fitness scans,
and the ambient right-hand side built on them (:func:`reduced_rhs`,
:func:`reaction_force`) is the independent reference the frame form is
checked against.

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

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from .core_geometry import (
    COMPLEX_STEP,
    RANK_RTOL,
    Array,
    ProjectionSet,
    SkipTypes,
    SystemSpec,
    _callback,
    _check_symmetric,
    _cholesky_spd,
    _complex_call,
    _constraint_svd,
    _eye,
    _norm,
    _projection_stack,
)
from .errors import NonAdaptedState, NotInDeltaCapGamma

TimeFn = Callable[[float], Array]


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
class CoefficientTensors:
    """Point data for the quadratic momentum equation at one configuration.

    ``dPstar_I[j]``, ``dginv[j]`` and ``dg[j]`` are the coordinate-``j``
    derivatives of the free coprojection, the inverse metric and the metric;
    ``dk[j]`` that of the covector lift.  They are exact functions of the
    splitting at the point and of the callbacks' complex-step derivatives,
    so exact to rounding (see :class:`~nonholo.core_geometry.SystemSpec`).
    Build once per evaluation point and share across the several
    quadratic-form contractions needed there.  Tensors built for many points
    at once carry one leading axis over the points on every field, like
    their ``projections``.
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


def _tensor_stack(spec: SystemSpec, Q: Array, skip: SkipTypes = ()) -> tuple[Array, Optional[CoefficientTensors]]:
    """:func:`coefficient_tensors` at every point of ``Q`` (shape ``(S, N+M)``) at once.

    The splitting and the callbacks' axis derivatives come from one complex
    call of each callback on the stack (see
    :func:`~nonholo.core_geometry._splitting_front`, here with ``D = I``), and
    points leave it as there (callback errors in ``skip``, failed rank
    tests).  Returns ``(keep, T)``: the mask of the points of ``Q`` that
    stayed and the tensors with one leading axis over them (``None`` when
    none stayed).
    """
    keep, P, derivs = _projection_stack(spec, Q, skip, _eye(spec.dim))
    return keep, None if P is None else _tensors_from(P, *derivs)


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
    _, P, (dg, dOm) = _projection_stack(spec, q[None], D=_eye(spec.dim))
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
    if not gap <= 1e-6 * scale:  # a NaN gap fails too
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
    udot = np.atleast_1d(np.asarray(control.rate(t), dtype=float))
    uddot = np.atleast_1d(np.asarray(control.accel(t), dtype=float))
    p = np.asarray(p_I, dtype=float) + P.k @ udot
    kdot = np.einsum("j,jia->ia", qdot, T.dk)
    pdot = pIdot + kdot @ udot + P.k @ uddot
    grad = 0.5 * np.einsum("i,jik,k->j", p, T.dginv, p)
    return pdot + grad


#: ``|A_d|_F |A_d^-1|_F`` past which ``simulate.integrate`` picks new pivots at a sample.
PIVOT_COND = 1e2


@dataclass(frozen=True)
class _VoronetsFrame:
    """The generic frame field of Voronets and Chaplygin, from the constraint forms alone.

    With pivots ``d`` (the dependent velocities), ``A_d = Om[:, d]`` and the
    other coordinates ``r``: ``V[r] = I``, ``V[d] = -A_d^-1 Om[:, r]``, that
    is the free block ``V_I`` in the first ``N - nu`` columns and, in the last
    ``M``, particular solutions ``x0`` of the control rows.
    """

    spec: SystemSpec
    pivots: tuple[int, ...]

    @staticmethod
    def best(spec: SystemSpec, Om: Array) -> "_VoronetsFrame":
        """The field whose pivot minor of the constraint forms ``Om`` is best conditioned."""
        subsets = np.array(list(itertools.combinations(range(spec.N), spec.nu)), dtype=int)
        cond = np.linalg.cond(Om[:, subsets].transpose(1, 0, 2), "fro") if spec.nu else np.zeros(1)
        return _VoronetsFrame(spec, tuple(int(j) for j in subsets[np.argmin(cond)]))

    @cached_property
    def _layout(self) -> tuple[Array, Array, Array]:
        """The pivot index array, the other coordinates ``r`` and ``E = I[:, r]``."""
        r = np.array([j for j in range(self.spec.dim) if j not in self.pivots], dtype=int)
        E = _eye(self.spec.dim)[:, r]
        E.flags.writeable = False  # cached: every frame of the field starts from it
        return np.array(self.pivots, dtype=int), r, E

    def of(self, Om: Array) -> tuple[Array, Array]:
        """The frame vectors ``V`` at the constraint forms ``Om`` (real or complex), and ``A_d^-1``."""
        d, r, E = self._layout
        Ainv = np.linalg.inv(Om[:, d])
        V = E.astype(Om.dtype)  # in E's (F) order, by which matmuls with V round
        V[d] = -Ainv @ Om[:, r]
        return V, Ainv


@lru_cache(maxsize=None)
def _axis_shift(n: int) -> Array:
    """Read-only ``i H [0; I_n]``: ``q + _axis_shift(n)`` stacks ``q`` and its complex steps along the axes."""
    shift = (1j * COMPLEX_STEP) * _eye(n + 1)[:, 1:]
    shift.flags.writeable = False
    return shift


def _maggi(
    spec: SystemSpec, q: Array, xi: Array, t: float, control: ControlSignal, frame: Optional[_VoronetsFrame] = None
) -> SimpleNamespace:
    """:func:`frame_rhs` at ``q`` on the generic frame ``frame`` (``None``: the one best at ``q``), less its
    conversions and adaptedness test, with the intermediates that the sample diagnostics read
    (``ainv_norm = |A_d^-1|_F``)."""
    n, m = spec.dim, spec.N - spec.nu
    Z = q + _axis_shift(n)
    gz, Omz = _complex_call(lambda: (_callback(spec, "metric", Z, None), _callback(spec, "omega", Z, None)), "metric or omega")
    g, Om = gz[0].real.copy(), Omz[0].real.copy()  # contiguous, so products round as on the real call
    _cholesky_spd(g[None])
    dg_axes, dOm_axes = gz[1:].imag / COMPLEX_STEP, Omz[1:].imag / COMPLEX_STEP
    _check_symmetric(dg_axes[None], "metric derivative")
    frame = frame if frame is not None else _VoronetsFrame.best(spec, Om)
    V, Ainv = frame.of(Om)
    ainv_norm = _norm(Ainv)
    # the splitting's rank test holds if s_min(A_d) >= 1/|A_d^-1|_F clears it, since s_nu(Om[:, :N]) >= s_min(A_d)
    if not RANK_RTOL * _norm(Om[:, : spec.N]) * ainv_norm < 1.0:
        _constraint_svd(spec, q[None], Om[None])
    V_I, x0 = V[:, :m], V[:, m:]
    if xi.shape != (m,):
        raise ValueError(f"xi has shape {xi.shape}, frame free block has {m} columns")
    gV = g @ V_I
    Ginv = np.linalg.inv(V_I.T @ gV)
    # the lift: x0 less its g-orthogonal component in block I, the span of V_I
    c = Ginv @ (gV.T @ x0)
    h = x0 - V_I @ c
    udot = np.atleast_1d(np.asarray(control.rate(t), dtype=float))
    qdot = V_I @ xi + h @ udot

    # the frame's transport along qdot (the frame's rows r are exactly I)
    dW = np.zeros_like(V)
    dW[frame._layout[0]] = -Ainv @ ((qdot @ dOm_axes.reshape(n, Om.size)).reshape(Om.shape) @ V)
    dV, dx0 = dW[:, :m].copy(), dW[:, m:].copy()  # contiguous too
    dg_flow = (qdot @ dg_axes.reshape(n, n * n)).reshape(n, n)
    grad = (dg_axes @ qdot) @ qdot  # grad_q g[qdot, qdot]

    X = dV.T @ gV
    Gdot = X + X.T + V_I.T @ dg_flow @ V_I
    work = (g @ qdot) @ dV + 0.5 * (grad @ V_I)
    return SimpleNamespace(
        g=g, Om=Om, Ainv=Ainv, ainv_norm=ainv_norm, V_I=V_I, x0=x0, gV=gV, Ginv=Ginv, c=c, h=h, udot=udot, qdot=qdot,
        dV=dV, dx0=dx0, dg_flow=dg_flow, grad=grad, Gdot=Gdot, xidot=Ginv @ (work - Gdot @ xi),
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
    splitting.  The free vectors need not be ``g``-orthogonal.  ``g`` and
    ``Om`` pass the tests of the splitting's front at ``q``, and
    ``h = x0 - V_I G^-1 (g V_I)^T x0`` from the frame's drive block ``x0``.
    ``metric`` and ``omega`` run once each on the stack ``q + i H [0; I_n]``:
    row 0's real part is ``g`` and ``Om``, the other rows give the axis
    derivatives that ``d_qdot g``, ``d_{V_m} g`` and ``d_qdot Om`` contract.
    The frame is the generic frame of Voronets and Chaplygin, built from
    ``Om`` on its best-conditioned ``nu x nu`` minor ``A_d``; ``Om V = 0`` and
    ``V[r] = I`` give its transport ``A_d dV[d] = -(d_qdot Om) V``,
    ``dV[r] = 0``.  A callback that is not complex-safe raises
    :class:`~nonholo.errors.ModelError`.  This pointwise entry also converts
    its inputs and checks that ``q`` is adapted to ``control`` at ``t``; the
    stages of :func:`~nonholo.simulate.integrate` run the same kernel without
    those.
    """
    q = np.asarray(q, dtype=float)
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    _check_adapted(spec, q, t, control)
    st = _maggi(spec, q, xi, t, control)
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
    d_qdot(g V_I) xi_gen + g V_I xidot_gen`` and ``d_qdot(g V_I)`` a complex
    step of the callbacks; so ``extract`` must be complex-safe like them.
    """
    q = np.asarray(q, dtype=float)
    N, m, H = spec.N, spec.N - spec.nu, COMPLEX_STEP
    frame = _VoronetsFrame.best(spec, _callback(spec, "omega", q))

    def momentum_basis(x: Array) -> Array:  # g V_I at x, real or complex
        return _callback(spec, "metric", x, None) @ frame.of(_callback(spec, "omega", x, None))[0][:, :m]

    gV = momentum_basis(q)
    B = np.column_stack([extract(q, gV[:, k])[N:] for k in range(m)])
    xi_gen = np.linalg.solve(B, np.atleast_1d(np.asarray(xi, dtype=float)))
    qdot, xidot = frame_rhs(spec, q, xi_gen, t, control)
    z = q + (1j * H) * qdot
    pIdot = (momentum_basis(z).imag / H) @ xi_gen + gV @ xidot
    return np.concatenate([qdot[:N], extract(z, gV @ xi_gen + (1j * H) * pIdot)[N:].imag / H])


def frame_coefficients(spec: SystemSpec, q: Array) -> dict[str, Array]:
    """Quadratic structure of the frame momentum equation at ``q``.

    ``xidot`` is exactly quadratic in ``z = (xi, udot)``; one
    polarization of :func:`frame_rhs` over the unit vectors of ``z`` gives its
    symmetric form ``B``, whose blocks are:

    * ``"xi_xi"``     -- shape ``(m, m, m)``, pure free-velocity terms;
    * ``"xi_udot"``   -- shape ``(m, m, M)``, momentum/control-rate coupling;
    * ``"udot_udot"`` -- shape ``(m, M, M)``, pure control-rate pump.

    The controlled coordinates of ``q`` serve as the control value.  Every
    polarization call runs on the generic frame whose pivots are best at
    ``q``, picked once.
    """
    q = np.asarray(q, dtype=float)
    u0 = q[spec.N :]
    _check_adapted(spec, q, 0.0, ControlSignal.constant(u0))
    frame = _VoronetsFrame.best(spec, _callback(spec, "omega", q[None])[0])
    m = spec.N - spec.nu
    E = np.eye(m + spec.M)

    def f(z: Array) -> Array:
        return _maggi(spec, q, z[:m], 0.0, ControlSignal.linear(u0, z[m:], t0=0.0), frame).xidot

    diag = [f(e) for e in E]
    B = np.zeros((m, len(E), len(E)))
    for r in range(len(E)):
        B[:, r, r] = diag[r]
        for c in range(r + 1, len(E)):
            B[:, r, c] = B[:, c, r] = 0.5 * (f(E[r] + E[c]) - diag[r] - diag[c])
    return {"xi_xi": B[:, :m, :m], "xi_udot": 2.0 * B[:, :m, m:], "udot_udot": B[:, m:, m:]}
