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
III representative, adapted frames, and the validated evaluation of the model
callbacks.  The callbacks are all that the dynamics layer differentiates,
by complex step where they accept complex input: the derivatives of the
splitting follow in closed form from those of ``metric`` and ``omega`` (see
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
one-point case.

Conventions: configurations, vectors and covectors are 1-D ``numpy`` arrays of
length ``N + M``; matrices act on the left.  Coprojections satisfy
``Pstar = g @ P @ g^-1`` and, because the splitting is ``g``-orthogonal, equal
the plain transposes of the projections; they are stored as those transposes.
All rank decisions use a relative singular-value cutoff of ``1e-9``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import RankDeficiency, SingularMetric

Array = np.ndarray
MetricFn = Callable[[Array], Array]
OmegaFn = Callable[[Array], Array]
ForceFn = Callable[[float, Array, Array], Array]
SkipTypes = tuple[type[Exception], ...]

#: Relative singular-value cutoff shared by every rank decision in the package.
RANK_RTOL = 1e-9


@dataclass(frozen=True)
class SystemSpec:
    """Immutable description of one mechanical system.

    :param N: number of passive (dynamic) coordinates.
    :param M: number of directly controlled coordinates; these are stored as
        the last ``M`` entries of every configuration vector.
    :param nu: number of constraint one-forms.
    :param metric: callback ``q -> (N+M, N+M)`` kinetic-energy matrix; must be
        symmetric positive definite wherever it is evaluated.
    :param omega: callback ``q -> (nu, N+M)`` whose rows are the constraint
        one-forms in coordinate components.
    :param metric_inverse: optional analytic inverse of ``metric``; when
        absent the inverse is obtained by factorization.
    :param force: optional applied covector ``(t, q, p) -> (N+M,)``.
    :param fd_step: relative step of the central differences that remain:
        the fallback derivatives of callbacks that reject complex input (see
        below), the frame transport of :func:`~nonholo.reduced_dynamics.frame_rhs`,
        :func:`~nonholo.jump_analysis.sufficiency_check` and
        :func:`~nonholo.jump_analysis.leaf_metric_derivative`; the absolute
        step along coordinate ``i`` is ``fd_step * max(1, |q_i|)``.

    ``metric`` and ``omega`` should accept complex ``q`` and be analytic in
    it: built from arithmetic and ``numpy`` functions such as ``np.sin``,
    with results whose dtype follows ``q`` (no ``abs``, ``.real``,
    ``float()`` or ``math.*`` applied to ``q``).  Their derivatives are then
    complex-step derivatives, exact to rounding, at ``N + M`` complex
    evaluations per point.  A callback that raises ``TypeError`` on complex
    input, or writes complex values into a real array, gets central
    differences instead: ``2 (N + M)`` real evaluations per point, with
    truncation error of order ``fd_step**2``.
    """

    N: int
    M: int
    nu: int
    metric: MetricFn
    omega: OmegaFn
    metric_inverse: Optional[MetricFn] = None
    force: Optional[ForceFn] = None
    fd_step: float = 5e-6

    def __post_init__(self) -> None:
        if min(self.N, self.M, self.nu) < 0:
            raise ValueError("N, M and nu must be nonnegative")
        if self.nu > self.N:
            raise ValueError("transversality needs nu <= N")
        if self.fd_step <= 0:
            raise ValueError("fd_step must be positive")

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


@dataclass(frozen=True)
class Frame:
    """A basis adapted to the three-way splitting at one configuration.

    ``V`` holds basis vectors as columns, ordered block I, block II, block
    III; every column has unit ``g``-norm and the blocks are mutually
    ``g``-orthogonal.  ``Omega_frame`` holds the dual rows
    ``g(V_i) / g[V_i, V_i]``, so ``Omega_frame @ V`` is the identity.
    ``block_ranges`` are the ``(start, stop)`` column ranges of the blocks.

    Frames returned by :func:`build_frame` are constructed pointwise from a
    singular-value decomposition and carry no smoothness guarantee between
    neighbouring configurations; models provide smooth frame fields where one
    is needed.
    """

    V: Array
    Omega_frame: Array
    block_ranges: tuple[tuple[int, int], tuple[int, int], tuple[int, int]]

    def block(self, name: str) -> Array:
        """Columns of ``V`` spanning block ``name`` (``"I"``, ``"II"`` or ``"III"``)."""
        start, stop = self.block_ranges[("I", "II", "III").index(name)]
        return self.V[:, start:stop]


def _check_symmetric(G: Array, label: str) -> None:
    """Raise ``SingularMetric`` unless every entry of the stack ``G`` is symmetric.

    ``G`` stacks one array per point along axis 0 (a matrix, or a stack of
    matrices such as a metric derivative); each point's tolerance scales with
    its own largest entry, so no point passes on another's scale.
    """
    GT = G.swapaxes(-1, -2)
    if (G == GT).all():
        return
    asym = np.abs(G - GT).reshape(len(G), -1).max(axis=1)
    if (asym > 1e-9 * (1.0 + np.abs(G).reshape(len(G), -1).max(axis=1))).any():
        raise SingularMetric(f"{label} is not symmetric")


def _check_shape(A: Array, shape: tuple[int, ...], label: str) -> Array:
    """Return ``A`` after checking that callback ``label`` returned ``shape``."""
    if A.shape != shape:
        raise ValueError(f"{label} returned shape {A.shape}, expected {shape}")
    return A


@lru_cache(maxsize=None)
def _eye(n: int) -> Array:
    """Read-only identity matrix of size ``n``."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _cholesky_spd(G: Array, label: str = "metric") -> Array:
    """Cholesky factors of the stack ``G``, raising ``SingularMetric`` unless each is SPD."""
    _check_symmetric(G, label)
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric(f"{label} is not positive definite") from exc
    d = L.diagonal(0, -2, -1)
    if d.size:
        # pivot ratio ~ sqrt(condition number); reject past ~1e12 conditioning
        ratio = d.min(axis=-1) / d.max(axis=-1)
        bad = ratio**2 < 1e-12
        if bad.any():
            raise SingularMetric(f"{label} is numerically singular (pivot ratio {ratio[bad][0]:.2e})")
    return L


def _validated_inverse(G: Array, Ginv: Optional[Array]) -> Array:
    """Inverse metrics of the stack ``G``: the supplied ``Ginv`` after a residual test, else by factorization."""
    if Ginv is None:
        return np.linalg.inv(G)
    n = G.shape[-1]
    resid = np.abs(G @ Ginv - _eye(n))
    if resid.max() > 1e-6 * n:
        resid = resid.max(axis=(-2, -1))
        raise SingularMetric(f"supplied metric_inverse disagrees with metric (residual {resid[resid > 1e-6 * n][0]:.2e})")
    return Ginv


def _metric_callback(spec: SystemSpec, q: Array) -> Array:
    return _check_shape(np.asarray(spec.metric(q), dtype=float), (spec.dim, spec.dim), "metric")


def _metric_inverse_callback(spec: SystemSpec, q: Array) -> Array:
    return _check_shape(np.asarray(spec.metric_inverse(q), dtype=float), (spec.dim, spec.dim), "metric_inverse")


def _omega_callback(spec: SystemSpec, q: Array) -> Array:
    return _check_shape(np.asarray(spec.omega(q), dtype=float), (spec.nu, spec.dim), "omega")


def metric_at(spec: SystemSpec, q: Array) -> Array:
    """Evaluate and validate the kinetic-energy matrix at ``q``."""
    g = _metric_callback(spec, np.asarray(q, dtype=float))
    _cholesky_spd(g[None])
    return g


def metric_inverse_at(spec: SystemSpec, q: Array, metric: Optional[Array] = None) -> Array:
    """Inverse metric at ``q``, from the analytic callback when available."""
    q = np.asarray(q, dtype=float)
    g = metric if metric is not None else metric_at(spec, q)
    return _validated_inverse(g, None if spec.metric_inverse is None else _metric_inverse_callback(spec, q))


def omega_at(spec: SystemSpec, q: Array) -> Array:
    """Constraint one-form rows at ``q`` (shape ``(nu, N+M)``)."""
    return _omega_callback(spec, np.asarray(q, dtype=float))


def check_transversality(spec: SystemSpec, q: Array) -> tuple[bool, float]:
    """Decide whether the constraints are transversal to the control foliation.

    Transversality holds exactly when the first ``N`` columns of the
    constraint matrix have full row rank ``nu``, i.e. no nonzero combination
    of the constraint forms lies in the span of the controlled-coordinate
    differentials.  Returns ``(ok, cond)`` where ``cond`` is the ratio of the
    largest to the ``nu``-th singular value of that block (``inf`` when rank
    is lost, ``1.0`` for an unconstrained system).
    """
    if spec.nu == 0:
        return True, 1.0
    Om = omega_at(spec, q)
    s = np.linalg.svd(Om[:, : spec.N], compute_uv=False)
    smax = float(s[0])
    snu = float(s[spec.nu - 1])
    if snu <= RANK_RTOL * smax or smax == 0.0:
        return False, float("inf")
    return True, smax / snu


def _canonical_sign(cols: Array) -> Array:
    """Flip column signs so the largest-magnitude entry of each is positive (stack ``(S, n, k)``)."""
    S, _, k = cols.shape
    lead = np.abs(cols).argmax(axis=1)
    flip = cols[np.arange(S)[:, None], lead, np.arange(k)] < 0.0
    return np.where(flip[:, None, :], -cols, cols)


def _stack(arrays: tuple) -> Optional[Array]:
    """Arrays of one shape stacked along a new leading axis; ``None`` for ``None`` entries."""
    if arrays[0] is None:
        return None
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


def _each_point(fn: Callable[[Array], tuple], Q: Array, skip: SkipTypes) -> tuple[Array, list]:
    """``fn(q)`` at each point ``q`` of ``Q``, in order; a point whose call raises one of ``skip`` leaves.

    ``fn`` returns a tuple of arrays (or ``None`` entries).  Returns
    ``(keep, parts)``: the mask of the points that stayed and, per tuple
    entry, the results stacked over them (empty when no point stayed).
    """
    keep = np.ones(len(Q), dtype=bool)
    out = []
    for i, q in enumerate(Q):
        try:
            out.append(fn(q))
        except skip:
            keep[i] = False
    return keep, [_stack(part) for part in zip(*out)]


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


def delta_cap_gamma_basis(spec: SystemSpec, q: Array, omega_matrix: Optional[Array] = None) -> Array:
    """Basis (columns) of block I, the admissible directions with frozen controls.

    Block I consists of vectors annihilated by every constraint form whose
    controlled components vanish, so it is the null space of the first-``N``
    column block of the constraint matrix, padded with ``M`` zero rows.
    Raises ``RankDeficiency`` when that block loses rank (transversality
    failure).
    """
    q = np.asarray(q, dtype=float)
    Om = omega_matrix if omega_matrix is not None else omega_at(spec, q)
    _, _, _, Vh = _constraint_svd(spec, q[None], Om[None])
    return _block_I_basis(spec, Vh)[0]


def _projection_stack(spec: SystemSpec, Q: Array, skip: SkipTypes = ()) -> tuple[Array, Optional[ProjectionSet]]:
    """The splitting at every point of ``Q`` (shape ``(S, N+M)``) at once.

    The callbacks run point by point, in point order (``metric``, then
    ``metric_inverse`` when supplied, then ``omega``); everything after them
    is one stacked ``numpy`` call per step.  A point whose callback raises
    one of ``skip``, or whose constraint block fails the rank test while
    ``RankDeficiency`` is in ``skip``, leaves the stack; any other error
    propagates.  Returns ``(keep, P)``: the mask of the points of ``Q`` that
    stayed and a :class:`ProjectionSet` whose fields carry one leading axis
    over them (``None`` when no point stayed).
    """
    N, nu, M, n = spec.N, spec.nu, spec.M, spec.dim

    def callbacks(q: Array) -> tuple:
        g = _metric_callback(spec, q)
        ginv = None if spec.metric_inverse is None else _metric_inverse_callback(spec, q)
        return g, ginv, _omega_callback(spec, q)

    keep, parts = _each_point(callbacks, Q, skip)
    if not parts:
        return keep, None
    G, Ginv, Om = parts
    _cholesky_spd(G)
    Ginv = _validated_inverse(G, Ginv)

    ranked, U, s, Vh = _constraint_svd(spec, Q[keep] if len(G) < len(Q) else Q, Om, skip)
    if not ranked.all():
        keep[keep] = ranked
        if not ranked.any():
            return keep, None
        G, Ginv, Om = G[ranked], Ginv[ranked], Om[ranked]
    B = _block_I_basis(spec, Vh)
    gB = G @ B
    P_I = B @ np.linalg.solve(B.transpose(0, 2, 1) @ gB, gB.transpose(0, 2, 1))

    # g-minimal right inverse [R_II, h] of the rows [Om; du]: pseudo-inverse
    # particular solutions for unit constraint values and unit controls, then
    # the g-orthogonal removal of their block I components
    pinv = Vh[:, :nu].transpose(0, 2, 1) @ (U.transpose(0, 2, 1) / s[:, :, None])
    x0 = np.zeros((len(G), n, nu + M))
    x0[:, :N, :nu] = pinv
    x0[:, :N, nu:] = -pinv @ Om[:, :, N:]
    x0[:, N:, nu:] = _eye(M)
    right = x0 - P_I @ x0
    h = right[:, :, nu:]
    P = ProjectionSet(
        P_I=P_I,
        Pstar_I=P_I.transpose(0, 2, 1),
        h=h,
        k=G @ h,
        R_II=right[:, :, :nu],
        I_basis=B,
        g=G,
        ginv=Ginv,
        Om=Om,
    )
    return keep, P


def projection_set(spec: SystemSpec, q: Array, check: bool = True) -> ProjectionSet:
    """Projections, coprojections and lift maps of the splitting at ``q``.

    With ``check=True`` (the default) the block ranks are verified against
    ``(N - nu, nu, M)``, which also builds the lazy blocks II and III;
    passing ``check=False`` skips those singular-value sweeps (the
    transversality test still runs), which matters on the hot path of the
    dynamics.
    """
    q = np.asarray(q, dtype=float)
    _, stacked = _projection_stack(spec, q[None])
    P = stacked.point(0)
    if check:
        ranks = tuple(np.linalg.matrix_rank(A, tol=1e-8) for A in (P.P_I, P.P_II, P.P_III))
        expected = (spec.N - spec.nu, spec.nu, spec.M)
        if ranks != expected:
            raise RankDeficiency(f"projection ranks {ranks} != {expected} at q={q}")
    return P


def _metric_gram_schmidt(cols: Array, g: Array, label: str) -> Array:
    """Orthonormalize ``cols`` in the ``g`` inner product (modified GS, two passes)."""
    out = np.array(cols, dtype=float)
    scale = max(float(np.abs(out).max()), 1.0)
    for j in range(out.shape[1]):
        v = out[:, j]
        for _ in range(2):  # re-orthogonalize once for numerical hygiene
            for i in range(j):
                v = v - (out[:, i] @ g @ v) * out[:, i]
        norm = float(np.sqrt(v @ g @ v))
        if norm < 1e-10 * scale:
            raise RankDeficiency(f"{label} columns are dependent (norm {norm:.2e})")
        out[:, j] = v / norm
    return out


def build_frame(spec: SystemSpec, q: Array) -> Frame:
    """Assemble a ``g``-orthonormal frame adapted to the splitting at ``q``.

    Block I comes from the null-space basis of the constraint block, block II
    from the metric duals of the constraint forms, block III from the lift
    columns; each block is orthonormalized in the metric.  Cross-block
    orthogonality holds by construction.  The result is deterministic at a
    given point but only pointwise: see :class:`Frame`.
    """
    q = np.asarray(q, dtype=float)
    P = projection_set(spec, q)
    g = P.g
    parts = []
    if P.I_basis.shape[1]:
        parts.append(_metric_gram_schmidt(P.I_basis, g, "block I"))
    if spec.nu:
        parts.append(_metric_gram_schmidt(P.ginv @ P.Om.T, g, "block II"))
    if spec.M:
        parts.append(_metric_gram_schmidt(P.h, g, "block III"))
    V = np.hstack(parts) if parts else np.zeros((spec.dim, 0))
    norms2 = np.einsum("ij,jk,ki->i", V.T, g, V)
    Omega_frame = (g @ V).T / norms2[:, None]
    k1 = spec.N - spec.nu
    ranges = ((0, k1), (k1, spec.N), (spec.N, spec.dim))
    return Frame(V=V, Omega_frame=Omega_frame, block_ranges=ranges)


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

