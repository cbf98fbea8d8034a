"""Pointwise linear algebra for mechanical systems with controlled constraints.

A system moves on a configuration space of dimension ``N + M`` whose last ``M``
coordinates are driven directly as controls (shape or actuation variables); the
first ``N`` respond dynamically.  Admissible velocities are cut out by ``nu``
Pfaffian constraint one-forms.  Write ``Delta`` for the distribution
annihilated by the controlled-coordinate differentials ``du^1..du^M`` and
``Gamma`` for the one annihilated by the constraint forms.  Whenever the two
are transversal, every tangent space splits, orthogonally with respect to the
kinetic-energy metric ``g``, into three blocks:

* block I   -- ``Delta ∩ Gamma``: free directions, dimension ``N - nu``;
* block II  -- the ``g``-orthogonal complement of ``Gamma``: reaction
  directions, dimension ``nu``;
* block III -- ``Gamma ∩ (Delta ∩ Gamma)^perp``: the directions along which
  control-rate changes push the system, dimension ``M``.

This module computes the splitting (projections on vectors, coprojections on
covectors), the lift maps ``h``/``k`` taking a control velocity to its block
III representative, and the validated evaluation of the model callbacks.
The callbacks are all that the dynamics layer differentiates, by complex
step, so both must be complex-safe: the derivatives of the splitting follow
in closed form from those of ``metric`` and ``omega`` (see
:func:`nonholo.reduced_dynamics.coefficient_tensors`).

One singular-value decomposition of the constraint block ``Omega[:, :N]``
per point carries the whole splitting: its singular values decide
transversality, its right null space spans block I, and its pseudo-inverse
gives particular solutions of the constraint and control rows, whose block I
components are then removed.  With unit controls this leaves the lift; with
unit constraint values it leaves ``R_II``, the right inverse of the
constraint rows that the closed-form derivatives need.  Solving through the
SVD keeps the error of both proportional to the condition number of the
constraint block rather than its square.

The splitting is computed by one kernel over a stack of points, the form the
fitness scans use to batch their samples; :func:`projection_set` is its
one-point case.  It calls each model callback once per stack: on the real
points, or, when derivatives along directions ``D`` are wanted too, on the
complex stack ``q + i H [0; D]``, whose row 0 gives the callback's value.

Conventions: configurations, vectors and covectors are 1-D ``numpy`` arrays of
length ``N + M``; matrices act on the left.  Coprojections satisfy
``Pstar = g @ P @ g^-1`` and, because the splitting is ``g``-orthogonal, equal
the plain transposes of the projections; they are stored as those transposes.
Transversality is decided by a relative singular-value cutoff of ``1e-9``
(``RANK_RTOL``); the block-rank check of a built splitting counts singular
values above the absolute cutoff ``1e-8``, which is scale-free because the
nonzero singular values of a projection are at least one.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import ModelError, RankDeficiency, SingularMetric

Array = np.ndarray
MetricFn = Callable[[Array], Array]
OmegaFn = Callable[[Array], Array]
SkipTypes = tuple[type[Exception], ...]

#: Relative singular-value cutoff of the transversality test on the constraint block.
RANK_RTOL = 1e-9
#: Imaginary step ``H`` of the complex-step callback derivatives.  Far below
#: the rounding of any real part, so ``Im f(q + iH e_j) / H`` is ``df/dq_j``
#: with no truncation or cancellation error.
COMPLEX_STEP = 1e-30
_WARNINGS_LOCK = threading.RLock()


@dataclass(frozen=True)
class SystemSpec:
    """Immutable description of one mechanical system.

    :param N: number of passive (dynamic) coordinates.
    :param M: number of directly controlled coordinates; these are stored as
        the last ``M`` entries of every configuration vector.
    :param nu: number of constraint one-forms.
    :param metric: callback ``q -> (..., N+M, N+M)`` kinetic-energy matrices;
        each must be symmetric positive definite wherever it is evaluated.
    :param omega: callback ``q -> (..., nu, N+M)`` whose rows are the
        constraint one-forms in coordinate components.

    These two callbacks are the whole model: the inverse metric, the
    splitting and every derivative the library uses are computed from them.

    The callbacks are stacked: ``q`` is ``(..., N+M)``, points along any
    leading axes, written ``q[..., j]``, and ``cb(Q)[i]`` equals
    ``cb(Q[i])``.  A callback that cannot evaluate some point of a stack
    raises for the whole stack; callers that skip such points then rerun it
    one point at a time.

    ``metric`` and ``omega`` must accept complex ``q`` and be analytic in
    it: built from arithmetic and ``numpy`` functions such as ``np.sin``,
    with results whose dtype follows ``q`` (no ``abs``, ``.real``,
    ``float()`` or ``math.*`` applied to ``q``).  Their derivatives are
    complex-step derivatives, exact to rounding, from one complex call per
    stack (see :mod:`nonholo.reduced_dynamics`).  A callback that raises
    ``TypeError`` on complex input, or writes complex values into a real
    array, raises :class:`~nonholo.errors.ModelError` there.
    """

    N: int
    M: int
    nu: int
    metric: MetricFn
    omega: OmegaFn
    # not a field: the benchmark's trace mode (perfbench/spans.py) still looks it up
    metric_inverse = None

    def __post_init__(self) -> None:
        if min(self.N, self.M, self.nu) < 0:
            raise ValueError("N, M and nu must be nonnegative")
        if self.nu > self.N:
            raise ValueError("transversality needs nu <= N")

    @property
    def dim(self) -> int:
        """Total configuration dimension ``N + M``."""
        return self.N + self.M


@dataclass(frozen=True)
class ProjectionSet:
    """The three-way orthogonal splitting at a single configuration.

    ``P_*`` act on tangent vectors; ``Pstar_*`` act on covectors (as matrices
    applied on the left to the 1-D component array) and are the transposes of
    the matching ``P_*``.  ``h`` maps a control velocity ``v in R^M`` to the
    unique admissible full velocity in block III whose controlled components
    equal ``v``; ``k = g @ h`` is its covector version.  ``R_II`` (shape
    ``(N+M, nu)``) is its counterpart for the constraint rows: the
    least-``g``-norm vectors with ``Om @ R_II = I`` and no controlled
    components.  ``I_basis`` spans block I (columns), ``g``/``ginv`` are the
    metric and its inverse and ``Om`` the constraint forms at the evaluation
    point.

    The fields are computed when the set is built: everything the reduced
    dynamics reads.  ``P_II``, ``P_III``, ``Pstar_II`` and ``Pstar_III`` are
    computed on first access and cached, so the dynamics never pays for them.

    A set built for many points at once (as the fitness scans do) carries one
    leading axis over the points on every field, lazy blocks included;
    :meth:`point` extracts the set at one of them.
    """

    P_I: Array
    Pstar_I: Array
    h: Array
    k: Array
    R_II: Array
    I_basis: Array
    g: Array
    ginv: Array
    Om: Array

    @cached_property
    def P_II(self) -> Array:
        W = self.ginv @ self.Om.swapaxes(-1, -2)
        return W @ np.linalg.solve(self.Om @ W, self.Om)

    @cached_property
    def P_III(self) -> Array:
        return _eye(self.g.shape[-1]) - self.P_I - self.P_II

    @property
    def Pstar_II(self) -> Array:
        return self.P_II.swapaxes(-1, -2)

    @property
    def Pstar_III(self) -> Array:
        return self.P_III.swapaxes(-1, -2)

    def point(self, i: object) -> "ProjectionSet":
        """The set at point ``i`` (an index, or an index array for a sub-stack) of a stacked set."""
        return ProjectionSet(
            self.P_I[i], self.Pstar_I[i], self.h[i], self.k[i], self.R_II[i], self.I_basis[i], self.g[i], self.ginv[i], self.Om[i]
        )


def _check_symmetric(G: Array, label: str) -> None:
    """Raise ``SingularMetric`` unless every entry of the stack ``G`` is symmetric.

    ``G`` stacks one array per point along axis 0 (a matrix, or a stack of
    matrices such as a metric derivative); each point's tolerance scales with
    its own largest entry, so no point passes on another's scale.
    """
    GT = G.swapaxes(-1, -2)
    if G.tobytes() == GT.tobytes():  # bitwise symmetric: cheaper than comparing entries
        return
    asym = np.abs(G - GT).reshape(len(G), -1).max(axis=1)
    if (asym > 1e-9 * (1.0 + np.abs(G).reshape(len(G), -1).max(axis=1))).any():
        raise SingularMetric(f"{label} is not symmetric")


@lru_cache(maxsize=None)
def _eye(n: int) -> Array:
    """Read-only identity matrix of size ``n``."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _norm(x: Array) -> float:
    """``np.linalg.norm(x)`` (2-norm, Frobenius on a matrix) bit for bit, without its dispatch cost."""
    v = x.ravel(order="K")
    return math.sqrt(v @ v)


def _cholesky_spd(G: Array, label: str = "metric") -> Array:
    """Cholesky factors of the stack ``G``, raising ``SingularMetric`` unless each is SPD."""
    _check_symmetric(G, label)
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric(f"{label} is not positive definite") from exc
    # pivot ratio ~ sqrt(condition number); reject past ~1e12 conditioning (NaN passes, as under np.min)
    for diag in L.diagonal(0, -2, -1).tolist() if L.size else ():
        ratio = min(diag) / max(diag)
        if ratio * ratio < 1e-12 and not any(map(math.isnan, diag)):
            raise SingularMetric(f"{label} is numerically singular (pivot ratio {ratio:.2e})")
    return L


def _callback(spec: SystemSpec, label: str, Q: Array, dtype: object = float) -> Array:
    """Callback ``label`` of ``spec`` on the stack ``Q`` as a ``dtype`` array (``None``: as returned), shape-checked."""
    A = np.asarray(getattr(spec, label)(Q), dtype=dtype)
    shape = Q.shape[:-1] + (spec.nu if label == "omega" else spec.dim, spec.dim)
    if A.shape != shape:
        raise ValueError(f"{label} returned shape {A.shape}, expected {shape}")
    return A


def _complex_call(fn: Callable, label: str, *args: object) -> object:
    """``fn(*args)`` at complex arguments, raising ``ModelError`` unless ``fn`` is complex-safe.

    ``fn`` is not complex-safe when it raises ``TypeError`` on complex input
    or drops an imaginary part into a real array (``ComplexWarning``, made an
    error here whatever the caller's filters): its derivatives would be
    wrong, zero in the second case.  ``label`` names the callback in the
    message.
    """
    # catch_warnings swaps process-wide state: the lock keeps threads of a
    # concurrent caller from restoring each other's filters (reentrant, so a
    # callback may itself call into the library)
    with _WARNINGS_LOCK, warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        try:
            return fn(*args)
        except (TypeError, np.exceptions.ComplexWarning) as exc:
            msg = f"{label} is not complex-safe ({exc!r}): it must accept complex q and be analytic in it"
            raise ModelError(msg) from None


def _canonical_sign(cols: Array) -> Array:
    """Flip column signs so the largest-magnitude entry of each is positive (stack ``(S, n, k)``)."""
    S, _, k = cols.shape
    lead = np.abs(cols).argmax(axis=1)
    flip = cols[np.arange(S)[:, None], lead, np.arange(k)] < 0.0
    return np.where(flip[:, None, :], -cols, cols)


def _each_point(fn: Callable[[Array], tuple], Q: Array, skip: SkipTypes) -> tuple[Array, tuple]:
    """``fn`` on the one-point stacks ``Q[i:i+1]``, in order; a point whose call raises one of ``skip`` leaves.

    ``fn`` maps a stack to a tuple of stacks over its points (or ``None``
    entries).  Returns ``(keep, parts)``: the mask of the points that stayed
    and, per tuple entry, the results over them (empty when none stayed).
    """
    keep = np.ones(len(Q), dtype=bool)
    out = []
    for i in range(len(Q)):
        try:
            out.append(fn(Q[i : i + 1]))
        except skip:
            keep[i] = False
    return keep, tuple(None if part[0] is None else np.concatenate(part) for part in zip(*out))


def _stacked_call(fn: Callable[[Array], tuple], Q: Array, skip: SkipTypes) -> tuple[Array, tuple]:
    """``fn(Q)`` on the whole stack, or :func:`_each_point` when that raises one of ``skip``.

    Any other error propagates.  Returns ``(keep, parts)`` as
    :func:`_each_point` does; an empty stack, which the metric checks cannot
    take, gives no parts.
    """
    if len(Q):
        try:
            return np.ones(len(Q), dtype=bool), fn(Q)
        except skip:
            pass
    return _each_point(fn, Q, skip)


def _constraint_svd(spec: SystemSpec, Q: Array, Om: Array, skip: SkipTypes = ()) -> tuple[Array, Array, Array, Array]:
    """SVDs ``U @ diag(s) @ Vh`` of the constraint blocks ``Om[i, :, :N]``.

    Returns ``(keep, U, s, Vh)``: the mask of points where ``nu`` singular
    values clear the relative cutoff ``RANK_RTOL`` and the factors at those
    points.  Elsewhere transversality fails: ``RankDeficiency`` is raised,
    or, when it is in ``skip``, the point is dropped.
    """
    S, N, nu = len(Om), spec.N, spec.nu
    if nu == 0:
        return np.ones(S, dtype=bool), np.zeros((S, 0, 0)), np.zeros((S, 0)), np.broadcast_to(np.eye(N), (S, N, N))
    U, s, Vh = np.linalg.svd(Om[:, :, :N])
    # singular values come sorted, so the rank is nu exactly when the last clears the cutoff
    keep = s[:, nu - 1] > RANK_RTOL * s[:, 0]
    if not keep.all():
        rank = (s > RANK_RTOL * s[:, :1]).sum(axis=1)
        for i in np.flatnonzero(~keep):
            exc = RankDeficiency(f"constraint block rank {rank[i]} != nu = {nu}: transversality fails at q={Q[i]}")
            if not isinstance(exc, skip):
                raise exc
        U, s, Vh = U[keep], s[keep], Vh[keep]
    return keep, U, s, Vh


def _block_I_basis(spec: SystemSpec, Vh: Array) -> Array:
    """Right null spaces of the constraint blocks, padded with ``M`` zero rows."""
    B = np.zeros((len(Vh), spec.dim, spec.N - spec.nu))
    B[:, : spec.N, :] = Vh[:, spec.nu :].transpose(0, 2, 1)
    return _canonical_sign(B)


def _splitting_front(
    spec: SystemSpec, Q: Array, skip: SkipTypes = (), D: Optional[Array] = None
) -> tuple[Array, Optional[tuple]]:
    """The validated front of the splitting at every point of ``Q``: callbacks, metric test, constraint SVD.

    Each callback runs once on the whole stack (``metric``, then ``omega``),
    then the symmetry, Cholesky and pivot tests of the metrics and the
    transversality test of :func:`_constraint_svd`.  With derivative
    directions ``D`` (shape ``(k, N+M)``) each runs instead on the complex
    stack ``Q[i] + i H [0; D]`` (``H = COMPLEX_STEP``): row 0's real part is
    the callback at ``Q[i]``, bit for bit the real call, and rows ``1 .. k``
    give its derivatives along ``D`` as imaginary parts over ``H``; a
    metric derivative must be symmetric, and a callback that is not
    complex-safe raises ``ModelError`` (see :func:`_complex_call`).  A point
    whose callbacks raise one of ``skip`` (see :func:`_stacked_call`), or
    whose constraint block fails the rank test while ``RankDeficiency`` is in
    ``skip``, leaves the stack; any other error propagates.  Returns
    ``(keep, front)``: the mask of the points of ``Q`` that stayed and the
    stacks ``(G, Om, U, s, Vh, derivs)`` over them, with ``derivs`` the
    derivative stacks ``(dG, dOm)`` of shapes ``(S', k, ...)``, ``None``
    without ``D`` (``front`` is ``None`` when no point stayed).
    """
    if D is None:

        def callbacks(Q: Array) -> tuple:
            return _callback(spec, "metric", Q), _callback(spec, "omega", Q)

        keep, parts = _stacked_call(callbacks, Q, skip)
    else:
        shift = (1j * COMPLEX_STEP) * np.concatenate([np.zeros((1, spec.dim)), D])

        def callbacks(Q: Array) -> tuple:
            Z = Q[:, None] + shift
            return _callback(spec, "metric", Z, None), _callback(spec, "omega", Z, None)

        keep, parts = _complex_call(_stacked_call, "metric or omega", callbacks, Q, skip)
    if not parts:
        return keep, None
    G, Om = parts
    derivs = None
    if D is not None:
        derivs = (G[:, 1:].imag / COMPLEX_STEP, Om[:, 1:].imag / COMPLEX_STEP)
        # contiguous, so products round as on the real call
        G, Om = (np.ascontiguousarray(A[:, 0].real, dtype=float) for A in (G, Om))
    _cholesky_spd(G)
    if derivs is not None:
        _check_symmetric(derivs[0], "metric derivative")

    ranked, U, s, Vh = _constraint_svd(spec, Q[keep] if len(G) < len(Q) else Q, Om, skip)
    if not ranked.all():
        keep[keep] = ranked
        if not ranked.any():
            return keep, None
        G, Om = G[ranked], Om[ranked]
        if derivs is not None:
            derivs = tuple(d[ranked] for d in derivs)
    return keep, (G, Om, U, s, Vh, derivs)


def _particular_solutions(spec: SystemSpec, Om: Array, U: Array, s: Array, Vh: Array) -> Array:
    """Pseudo-inverse particular solutions ``x0`` (shape ``(S, N+M, nu+M)``) of the rows ``[Om; du]``.

    Column ``a < nu`` solves ``Om x = e_a`` with no controlled components;
    column ``nu + b`` solves ``Om x = 0`` with unit control ``b``.  Removing
    their block I components ``g``-orthogonally leaves ``[R_II, h]``.
    """
    N, nu, M = spec.N, spec.nu, spec.M
    pinv = Vh[:, :nu].transpose(0, 2, 1) @ (U.transpose(0, 2, 1) / s[:, :, None])
    x0 = np.zeros((len(Om), spec.dim, nu + M))
    x0[:, :N, :nu] = pinv
    x0[:, :N, nu:] = -pinv @ Om[:, :, N:]
    x0[:, N:, nu:] = _eye(M)
    return x0


def _projection_stack(
    spec: SystemSpec, Q: Array, skip: SkipTypes = (), D: Optional[Array] = None
) -> tuple[Array, Optional[ProjectionSet], Optional[tuple[Array, Array]]]:
    """The splitting at every point of ``Q`` (shape ``(S, N+M)``) at once.

    Points leave the stack as in :func:`_splitting_front`, which takes the
    callbacks' derivatives along ``D`` from the same calls when ``D`` is
    given; every step after it runs once on the whole stack, and the inverse
    metrics come from ``np.linalg.inv`` once the Cholesky test has passed.
    Returns ``(keep, P, derivs)``: the mask of the points of ``Q`` that
    stayed, a :class:`ProjectionSet` whose fields carry one leading axis over
    them (``None`` when no point stayed) and the derivative stacks ``(dG,
    dOm)`` over them (``None`` without ``D``).
    """
    keep, front = _splitting_front(spec, Q, skip, D)
    if front is None:
        return keep, None, None
    G, Om, U, s, Vh, derivs = front
    B = _block_I_basis(spec, Vh)
    # the g-orthogonal projector onto block I: B (B^T g B)^-1 B^T g
    gB = G @ B
    P_I = B @ np.linalg.solve(B.transpose(0, 2, 1) @ gB, gB.transpose(0, 2, 1))

    # g-minimal right inverse [R_II, h] of the rows [Om; du]: the particular
    # solutions less their g-orthogonal block I components
    x0 = _particular_solutions(spec, Om, U, s, Vh)
    right = x0 - P_I @ x0
    h = right[:, :, spec.nu :]
    P = ProjectionSet(
        P_I=P_I,
        Pstar_I=P_I.transpose(0, 2, 1),
        h=h,
        k=G @ h,
        R_II=right[:, :, : spec.nu],
        I_basis=B,
        g=G,
        ginv=np.linalg.inv(G),
        Om=Om,
    )
    return keep, P, derivs


def _block_ranks(spec: SystemSpec, Q: Array, P: ProjectionSet, skip: SkipTypes = ()) -> Array:
    """Mask of the points ``Q`` of the stacked set ``P`` whose blocks have ranks ``(N - nu, nu, M)``.

    Ranks count singular values above the absolute cutoff ``1e-8``.  Where a
    rank is wrong ``RankDeficiency`` is raised, or, when it is in ``skip``,
    the point's mask entry is ``False``.  Builds the lazy blocks II and III.
    """
    ranks = np.linalg.matrix_rank(np.stack([P.P_I, P.P_II, P.P_III], axis=1), tol=1e-8)
    expected = (spec.N - spec.nu, spec.nu, spec.M)
    ok = (ranks == expected).all(axis=1)
    for i in np.flatnonzero(~ok):
        exc = RankDeficiency(f"projection ranks {tuple(ranks[i].tolist())} != {expected} at q={Q[i]}")
        if not isinstance(exc, skip):
            raise exc
    return ok


def projection_set(spec: SystemSpec, q: Array, check: bool = True) -> ProjectionSet:
    """Projections, coprojections and lift maps of the splitting at ``q``.

    With ``check=True`` (the default) the block ranks are verified against
    ``(N - nu, nu, M)``; passing ``check=False`` skips those singular-value
    sweeps and the lazy blocks II and III they need (the transversality test
    still runs), which matters on the hot path of the dynamics.
    """
    q = np.asarray(q, dtype=float)
    _, P, _ = _projection_stack(spec, q[None])
    if check:
        _block_ranks(spec, q[None], P)
    return P.point(0)


def argmin_certificate(
    spec: SystemSpec,
    q: Array,
    v: Array,
    trials: int = 32,
    rng: Optional[np.random.Generator] = None,
    scale: float = 1.0,
) -> tuple[bool, float]:
    """Spot-check that the lift of ``v`` minimizes kinetic energy.

    Among admissible vectors whose controlled components equal ``v``, the lift
    ``h @ v`` should have the least ``g``-norm; every competitor differs from
    it by a block I vector.  Draws ``trials`` random competitors at
    ``g``-distance ``scale`` and returns ``(ok, margin)`` with ``margin`` the
    worst observed excess energy (nonnegative when the certificate holds).
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    P = projection_set(spec, q, check=False)
    z0 = P.h @ v
    base = float(z0 @ P.g @ z0)
    B = P.I_basis
    if B.shape[1] == 0:
        return True, float("inf")
    margin = float("inf")
    for _ in range(trials):
        c = rng.standard_normal(B.shape[1])
        norm = np.linalg.norm(c)
        if norm == 0.0:
            continue
        w = B @ (scale * c / norm)
        z = z0 + w
        margin = min(margin, float(z @ P.g @ z) - base)
    ok = margin >= -1e-10 * (1.0 + abs(base))
    return ok, margin

