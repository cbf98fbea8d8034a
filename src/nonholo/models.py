"""Built-in example systems: the Roller Racer, the rolling ball and a toy.

Each model is packaged as a :class:`ModelBundle`: the two
:class:`~nonholo.core_geometry.SystemSpec` callbacks (metric and constraint
forms; the inverse metric is computed from the metric), sampling boxes that
stay clear of chart singularities, and any closed-form reference dynamics
the model admits.

Roller Racer
    A planar two-platform vehicle: a main body with a knife-edge axle and a
    trailing steered platform, coupled through the steering angle ``u`` (the
    control).  Coordinates ``(q1, q2, q3, u)`` with ``q2`` the heading,
    ``(q1, q3)`` the contact position and ``u`` the relative steering angle.
    The kinetic metric is constant but the two knife-edge constraint forms
    rotate with heading and steering.  The free block is one-dimensional and
    the reduced dynamics collapse to a scalar momentum-like coordinate ``xi``
    with a closed-form right-hand side (transcribed below with coefficients
    cross-checked against a direct multiplier-based integration of the
    constrained system).

Rolling ball
    A ball of radius ``r`` and gyration radius ``kappa`` rolling without
    slipping on a turntable whose angular position ``u`` is the control.
    Coordinates: Z-X-Z Euler angles ``(q1, q2, q3)`` for the attitude, the
    contact point ``(x, y)``, and ``u``.  This system is "fit for jumps": its
    quadratic control-rate term vanishes identically, so fast control slews
    produce no net momentum transfer.

Euclidean toy
    Flat metric, optional single constant constraint form; handy for exact
    hand-checked values and degenerate-dimension edge cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .core_geometry import Array, SystemSpec
from .errors import ChartDomain, ModelError, SingularDenominator


@dataclass(frozen=True)
class RollerRacerParams:
    """Roller Racer physical constants.

    ``rho`` is the axle offset of the steered platform, ``inertia`` the main
    body's moment of inertia about the contact, ``tail_inertia`` the steered
    platform's own moment.
    """

    rho: float = 1.0
    inertia: float = 2.0
    tail_inertia: float = 1.0


@dataclass(frozen=True)
class RollingBallParams:
    """Ball radius and squared gyration radius (0.4 = homogeneous ball of radius 1)."""

    radius: float = 1.0
    gyration2: float = 0.4


@dataclass(frozen=True)
class EuclideanToyParams:
    """Flat-metric toy dimensions; one constant constraint form when ``constrained``."""

    n_passive: int = 3
    n_controls: int = 1
    constrained: bool = False


@dataclass(frozen=True)
class ModelBundle:
    """Everything the rest of the package needs to know about one model.

    ``constancy_basis`` is the basis in which the structural fitness test
    checks constancy of the free coprojection; ``declared_flat`` records the
    model-level flatness declaration that the structural test cannot decide
    numerically.  ``closed_field`` / ``averaged_field`` build right-hand sides
    of the model's closed-form and averaged reduced systems when it has them
    (state ``(q1, q2, q3, xi)`` for the Roller Racer).  ``embed_closed`` /
    ``extract_closed`` convert between that closed state and ambient
    ``(q, p_I)`` pairs; ``extract_closed`` is linear in ``p_I`` and
    complex-safe, which ``oracle-compare`` needs to differentiate it.
    """

    name: str
    params: object
    spec: SystemSpec
    sample_box: Array
    default_q0: Array
    frame_field: None = None  # inert: perfbench/spans.py passes it to dataclasses.replace (ROADMAP item 1)
    constancy_basis: Optional[Callable[[Array], Array]] = None
    declared_flat: bool = False
    closed_field: Optional[Callable[[object], Callable[[float, Array], Array]]] = None
    averaged_field: Optional[Callable[[float, float], Callable[[float, Array], Array]]] = None
    closed_dim: int = 0
    embed_closed: Optional[Callable[[Array, float], tuple[Array, Array]]] = None
    extract_closed: Optional[Callable[[Array, Array], Array]] = None


# ---------------------------------------------------------------------------
# Roller Racer
# ---------------------------------------------------------------------------


def _racer_metric_matrix(p: RollerRacerParams) -> Array:
    I, J = p.inertia, p.tail_inertia
    return np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, I + J, 0.0, J],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, J, 0.0, J],
        ]
    )


# entries of q giving the angles (q2, q2 + u, u) once u is added to the middle one
_RACER_ANGLES = np.array([1, 1, 3])


def _filled(A: Array, lead: tuple, dtype: object = float) -> Array:
    """A fresh stack of copies of ``A`` over the leading shape ``lead``."""
    out = np.empty(lead + A.shape, dtype=dtype)
    out[...] = A
    return out


def roller_racer_spec(params: Optional[RollerRacerParams] = None) -> SystemSpec:
    """System description of the Roller Racer: N=3 passive coordinates, one control.

    Constraint forms (knife edges under both platforms)::

        omega^1 = cos(q2) dq1 - sin(q2) dq3
        omega^2 = cos(q2+u) dq1 + rho cos(u) dq2 - sin(q2+u) dq3
    """
    p = params or RollerRacerParams()
    g = _racer_metric_matrix(p)

    def metric(q: Array) -> Array:
        return _filled(g, q.shape[:-1])

    def omega(q: Array) -> Array:
        angles = q.take(_RACER_ANGLES, axis=-1)
        angles[..., 1] += q[..., 3]
        c, s = np.cos(angles), np.sin(angles)
        # rows (c2, 0, -s2, 0) and (c2u, rho cu, -s2u, 0), filled column by column
        Om = np.zeros(angles.shape[:-1] + (2, 4), dtype=c.dtype)
        Om[..., 0] = c[..., :2]
        np.negative(s[..., :2], out=Om[..., 2])
        np.multiply(p.rho, c[..., 2], out=Om[..., 1, 1])
        return Om

    return SystemSpec(N=3, M=1, nu=2, metric=metric, omega=omega)


def racer_frame_vectors(params: RollerRacerParams, q: Array) -> dict[str, Array]:
    """The published adapted basis ``{w1, v2, v3, v4}`` at ``q``.

    ``w1`` spans the free block, ``v2``/``v3`` the reaction block, ``v4`` the
    drive block (its controlled component is 1, so it is also the lift of the
    unit control rate).  ``v2`` and ``v3`` blow up on ``sin(q2) = 0`` or
    ``cos(u) = 0``; that locus raises :class:`ChartDomain`.  Complex-safe:
    a complex ``q`` gives complex vectors.
    """
    rho, I, J = params.rho, params.inertia, params.tail_inertia
    q2, u = q[1], q[3]
    s2, c2 = np.sin(q2), np.cos(q2)
    su, cu = np.sin(u), np.cos(u)
    if abs(s2) < 1e-8 or abs(cu) < 1e-8:
        raise ChartDomain(f"published Roller Racer frame undefined at sin(q2)={s2.real:.1e}, cos(u)={cu.real:.1e}")
    d0 = rho**2 * cu**2 + (I + J) * su**2
    s2u = np.sin(2.0 * u)
    w1 = np.array([2.0 * rho * cu * s2, 2.0 * su, 2.0 * rho * cu * c2, 0.0])
    v2 = np.array([I / (rho * s2) * np.tan(u), -1.0, 0.0, 1.0])
    v3 = np.array([-c2 / s2, 0.0, 1.0, 0.0])
    v4 = np.array(
        [
            -J * rho * s2 * s2u / (2.0 * d0),
            -J * su**2 / d0,
            -J * rho * c2 * s2u / (2.0 * d0),
            1.0,
        ]
    )
    return {"w1": w1, "v2": v2, "v3": v3, "v4": v4}


def racer_denominators(params: RollerRacerParams, u: float) -> tuple[float, float]:
    """``(Delta_0, Delta_1)`` with ``Delta_1 = 2 Delta_0`` (an exact identity)."""
    rho, I, J = params.rho, params.inertia, params.tail_inertia
    d0 = rho**2 * math.cos(u) ** 2 + (I + J) * math.sin(u) ** 2
    d1 = I + J + rho**2 - (I + J - rho**2) * math.cos(2.0 * u)
    return d0, d1


def roller_racer_closed_rhs(params: RollerRacerParams, y: Array, u: float, udot: float) -> Array:
    """Closed-form reduced dynamics; state ``y = (q1, q2, q3, xi)``.

    ``xi`` is the velocity coordinate along the free-block frame vector
    ``w1``; the configuration additionally drifts along the lift of the
    control rate.  The ``xi`` coefficients are the ones validated against a
    direct multiplier-based integration of the full constrained system::

        q1' = 2 rho cos(u) sin(q2) xi - J rho sin(q2) sin(2u)/(2 Delta_0) u'
        q2' = 2 sin(u) xi             - J sin(u)^2/Delta_0 u'
        q3' = 2 rho cos(u) cos(q2) xi - J rho cos(q2) sin(2u)/(2 Delta_0) u'
        xi' = -(I+J-rho^2) sin(2u)/Delta_1 * xi u'
              + 2 J rho^2 cos(u)/Delta_1^2 * u'^2
    """
    rho, I, J = params.rho, params.inertia, params.tail_inertia
    d0, d1 = racer_denominators(params, u)
    if abs(d1) < 1e-12 * (1.0 + I + J + rho**2):
        raise SingularDenominator(f"Delta_1 = {d1:.3e} at u = {u}")
    q2, xi = float(y[1]), float(y[3])
    cu, su = math.cos(u), math.sin(u)
    s2u = math.sin(2.0 * u)
    return np.array(
        [
            2.0 * rho * cu * math.sin(q2) * xi - J * rho * math.sin(q2) * s2u / (2.0 * d0) * udot,
            2.0 * su * xi - J * su**2 / d0 * udot,
            2.0 * rho * cu * math.cos(q2) * xi - J * rho * math.cos(q2) * s2u / (2.0 * d0) * udot,
            -(I + J - rho**2) * s2u / d1 * xi * udot + 2.0 * J * rho**2 * cu / d1**2 * udot**2,
        ]
    )


def roller_racer_averaged_rhs(params: RollerRacerParams, y: Array, u_bar: float, K: float) -> Array:
    """Averaged reduced dynamics for dithering ``u = u_bar + eps K sin(t/eps)``.

    Averaging the closed-form system over the fast phase leaves the ``q`` lines
    evaluated at ``u_bar`` and gives ``xi`` the secular pump
    ``J rho^2 cos(u_bar) K^2 / Delta_1(u_bar)^2`` (the quadratic term's average
    ``<u'^2> = K^2/2`` times its coefficient).
    """
    rho, J = params.rho, params.tail_inertia
    _, d1 = racer_denominators(params, u_bar)
    if abs(d1) < 1e-12:
        raise SingularDenominator(f"Delta_1 = {d1:.3e} at u_bar = {u_bar}")
    q2, xi = float(y[1]), float(y[3])
    cu, su = math.cos(u_bar), math.sin(u_bar)
    return np.array(
        [
            2.0 * rho * cu * math.sin(q2) * xi,
            2.0 * su * xi,
            2.0 * rho * cu * math.cos(q2) * xi,
            J * rho**2 * cu * K**2 / d1**2,
        ]
    )


def _racer_closed_field(params: RollerRacerParams) -> Callable[[object], Callable[[float, Array], Array]]:
    def make(control: object) -> Callable[[float, Array], Array]:
        def f(t: float, y: Array) -> Array:
            u = float(np.asarray(control.value(t)).reshape(-1)[0])
            udot = float(np.asarray(control.rate(t)).reshape(-1)[0])
            return roller_racer_closed_rhs(params, y, u, udot)

        return f

    return make


def _racer_averaged_field(params: RollerRacerParams) -> Callable[[float, float], Callable[[float, Array], Array]]:
    def make(u_bar: float, K: float) -> Callable[[float, Array], Array]:
        def f(t: float, y: Array) -> Array:
            return roller_racer_averaged_rhs(params, y, u_bar, K)

        return f

    return make


def _racer_embed(params: RollerRacerParams, g: Array):
    def embed(y: Array, u: float) -> tuple[Array, Array]:
        q = np.array([y[0], y[1], y[2], u])
        w1 = racer_frame_vectors(params, q)["w1"]
        return q, float(y[3]) * (g @ w1)

    return embed


def _racer_extract(params: RollerRacerParams, g: Array):
    def extract(q: Array, p_I: Array) -> Array:
        w1 = racer_frame_vectors(params, q)["w1"]
        return np.array([q[0], q[1], q[2], (p_I @ w1) / (w1 @ g @ w1)])

    return extract


def _build_roller_racer(
    rho: float = 1.0,
    inertia: float = 2.0,
    tail_inertia: float = 1.0,
    metric_perturb: float = 0.0,
) -> ModelBundle:
    params = RollerRacerParams(rho=rho, inertia=inertia, tail_inertia=tail_inertia)
    spec = roller_racer_spec(params)
    if metric_perturb:
        spec = _perturbed(spec, metric_perturb)
    g = _racer_metric_matrix(params)
    box = np.array([[-1.0, 1.0], [0.3, 2.8], [-1.0, 1.0], [-1.2, 1.2]])
    return ModelBundle(
        name="roller-racer",
        params=params,
        spec=spec,
        sample_box=box,
        default_q0=np.array([0.0, math.pi / 2.0, 0.0, 0.0]),
        constancy_basis=lambda q: np.eye(4),
        declared_flat=False,
        closed_field=_racer_closed_field(params),
        averaged_field=_racer_averaged_field(params),
        closed_dim=4,
        embed_closed=_racer_embed(params, g),
        extract_closed=_racer_extract(params, g),
    )


# ---------------------------------------------------------------------------
# Rolling ball on a turntable
# ---------------------------------------------------------------------------


#: ``|sin q2|`` under which the ball's Euler chart raises ``ChartDomain``.  The
#: metric's Cholesky pivot ratio is ``sqrt(min(gyration2, 1)) |sin q2|``, so
#: it crosses ``_cholesky_spd``'s 1e-6 floor at ``|sin q2|`` = 1.6e-6 for the
#: default ``gyration2 = 0.4`` (measured); every point the guard admits
#: passes that test for ``gyration2 >= 0.02``.
_EULER_CHART_EDGE = 1e-5


def _euler_rate_matrix(q: Array) -> Array:
    """Map Z-X-Z Euler-angle rates to the spatial angular velocity (complex-safe, stacked)."""
    s, c = np.sin(q[..., :2]), np.cos(q[..., :2])
    E = np.zeros(s.shape[:-1] + (3, 3), dtype=s.dtype)
    E[..., 0, 1], E[..., 0, 2] = c[..., 0], s[..., 1] * s[..., 0]
    E[..., 1, 1], E[..., 1, 2] = s[..., 0], -s[..., 1] * c[..., 0]
    E[..., 2, 0], E[..., 2, 2] = 1.0, c[..., 1]
    return E


def _euler_rate_matrix_inv(q: Array) -> Array:
    """The inverse of :func:`_euler_rate_matrix` at one point."""
    sphi, cphi = np.sin(q[0]), np.cos(q[0])
    sth, cth = np.sin(q[1]), np.cos(q[1])
    if abs(sth) < _EULER_CHART_EDGE:
        raise ChartDomain(f"Euler chart degenerate: sin(q2) = {sth:.1e}")
    return np.array([[-sphi * cth / sth, cphi * cth / sth, 1.0], [cphi, sphi, 0.0], [sphi / sth, -cphi / sth, 0.0]])


def rolling_ball_spec(params: Optional[RollingBallParams] = None) -> SystemSpec:
    """Ball on a turntable: N=5 (three Euler angles, contact point), one control.

    Rolling without slipping against the turntable at angle ``u`` gives

        x' + r w2 + u' y = 0,       y' - r w1 - u' x = 0,

    with ``w`` the spatial angular velocity.  Kinetic energy is
    ``(|xdot|^2 + kappa^2 |w|^2 + u'^2) / 2`` per unit mass, so the metric is
    block diagonal: ``kappa^2 E^T E`` on the angles (``E`` the rate-to-spin
    matrix) and the identity on ``(x, y, u)``.  For Z-X-Z angles
    ``E^T E = [[1, 0, c], [0, 1, 0], [c, 0, 1]]`` with ``c = cos(q2)``, so the
    metric is written in closed form.
    """
    p = params or RollingBallParams()
    k2, r = p.gyration2, p.radius

    diag = np.diag([k2, k2, k2, 1.0, 1.0, 1.0])

    def metric(q: Array) -> Array:
        sth = np.sin(q[..., 1])
        edge = np.abs(sth) < _EULER_CHART_EDGE
        if edge.any():
            raise ChartDomain(f"Euler chart degenerate: sin(q2) = {np.extract(edge, sth)[0].real:.1e}")
        cth = np.cos(q[..., 1])
        g = _filled(diag, np.shape(cth), cth.dtype)
        g[..., 0, 2] = g[..., 2, 0] = k2 * cth
        return g

    def omega(q: Array) -> Array:
        E = _euler_rate_matrix(q)
        Om = np.zeros(E.shape[:-2] + (2, 6), dtype=E.dtype)
        Om[..., 0, :3] = r * E[..., 1, :]
        Om[..., 1, :3] = -r * E[..., 0, :]
        Om[..., 0, 3] = Om[..., 1, 4] = 1.0
        Om[..., 0, 5] = q[..., 4]
        Om[..., 1, 5] = -q[..., 3]
        return Om

    return SystemSpec(N=5, M=1, nu=2, metric=metric, omega=omega)


def ball_orthonormal_basis(params: RollingBallParams, q: Array) -> Array:
    """The metric-orthonormal kinematic basis ``{V_1..V_6}`` as columns.

    ``V_1..V_3`` are the unit-spin attitude directions (columns of
    ``E^{-1}/kappa``); ``V_4, V_5, V_6`` are the coordinate directions of
    ``x, y, u``.  This is the basis in which the free coprojection has a
    constant matrix, which is what the structural fitness test checks.
    """
    kappa = math.sqrt(params.gyration2)
    A = _euler_rate_matrix_inv(q) / kappa
    V = np.zeros((6, 6))
    V[:3, :3] = A
    V[3, 3] = V[4, 4] = V[5, 5] = 1.0
    return V


def _build_rolling_ball(
    radius: float = 1.0,
    gyration2: float = 0.4,
    metric_perturb: float = 0.0,
) -> ModelBundle:
    params = RollingBallParams(radius=radius, gyration2=gyration2)
    spec = rolling_ball_spec(params)
    if metric_perturb:
        spec = _perturbed(spec, metric_perturb)
    box = np.array(
        [
            [-2.5, 2.5],
            [0.4, math.pi - 0.4],
            [-2.5, 2.5],
            [-1.5, 1.5],
            [-1.5, 1.5],
            [-3.0, 3.0],
        ]
    )
    return ModelBundle(
        name="rolling-ball",
        params=params,
        spec=spec,
        sample_box=box,
        default_q0=np.array([0.3, 1.1, -0.2, 0.1, -0.15, 0.0]),
        constancy_basis=lambda q: ball_orthonormal_basis(params, q),
        declared_flat=True,
    )


# ---------------------------------------------------------------------------
# Euclidean toy
# ---------------------------------------------------------------------------


def euclidean_toy_spec(params: Optional[EuclideanToyParams] = None) -> SystemSpec:
    """Identity metric on ``R^(N+M)``; optionally the single form ``dq1``."""
    p = params or EuclideanToyParams()
    n = p.n_passive + p.n_controls
    nu = 1 if p.constrained else 0
    eye = np.eye(n)

    def metric(q: Array) -> Array:
        return _filled(eye, q.shape[:-1])

    def omega(q: Array) -> Array:
        Om = np.zeros(q.shape[:-1] + (nu, n))
        Om[..., 0] = 1.0
        return Om

    return SystemSpec(N=p.n_passive, M=p.n_controls, nu=nu, metric=metric, omega=omega)


def _build_euclidean_toy(
    n_passive: int = 3,
    n_controls: int = 1,
    constrained: bool = False,
    metric_perturb: float = 0.0,
) -> ModelBundle:
    params = EuclideanToyParams(n_passive=int(n_passive), n_controls=int(n_controls), constrained=bool(constrained))
    spec = euclidean_toy_spec(params)
    if metric_perturb:
        spec = _perturbed(spec, metric_perturb)
    n = spec.dim
    box = np.tile([-1.0, 1.0], (n, 1))
    return ModelBundle(
        name="euclidean-toy",
        params=params,
        spec=spec,
        sample_box=box,
        default_q0=np.zeros(n),
        declared_flat=True,
        constancy_basis=lambda q: np.eye(n),
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def _perturbed(spec: SystemSpec, eps: float) -> SystemSpec:
    """Deliberately corrupt the metric with a smooth rank-one bump.

    Used as a negative control: downstream consistency checks must detect the
    corruption.  Only ``metric`` changes; the splitting computes the inverse
    from it, as for every model.
    """
    n = spec.dim
    ray = np.linspace(1.0, 2.0, n)
    bump = np.outer(ray, ray) / n
    base = spec.metric

    def metric(q: Array) -> Array:
        return base(q) + (eps * np.sin(q[..., 0] + 0.3))[..., None, None] * bump

    return replace(spec, metric=metric)


_BUILDERS: dict[str, Callable[..., ModelBundle]] = {
    "roller-racer": _build_roller_racer,
    "rolling-ball": _build_rolling_ball,
    "euclidean-toy": _build_euclidean_toy,
}


def model_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILDERS))


def build_model(name: str, **options: float) -> ModelBundle:
    """Instantiate a registered model by name with keyword parameter overrides."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ModelError(f"unknown model {name!r}; available: {', '.join(model_names())}") from None
    try:
        return builder(**options)
    except TypeError as exc:
        raise ModelError(f"bad options for model {name!r}: {exc}") from None
