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

Conventions: configurations, vectors and covectors are 1-D ``numpy`` arrays of
length ``N + M``; matrices act on the left.  Coprojections satisfy
``Pstar = g @ P @ g^-1`` and, because the splitting is ``g``-orthogonal, equal
the plain transposes of the projections; they are stored as those transposes.
All rank decisions use a relative singular-value cutoff of ``1e-9``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import RankDeficiency, SingularMetric

Array = np.ndarray
MetricFn = Callable[[Array], Array]
OmegaFn = Callable[[Array], Array]
ForceFn = Callable[[float, Array, Array], Array]

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
        W = self.ginv @ self.Om.T
        return W @ np.linalg.solve(self.Om @ W, self.Om)

    @cached_property
    def P_III(self) -> Array:
        return np.eye(self.g.shape[0]) - self.P_I - self.P_II

    @property
    def Pstar_II(self) -> Array:
        return self.P_II.T

    @property
    def Pstar_III(self) -> Array:
        return self.P_III.T


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


def _check_symmetric(g: Array, label: str) -> None:
    """Raise ``SingularMetric`` unless ``g`` (a matrix or a stack of them) is symmetric."""
    scale = float(np.abs(g).max()) if g.size else 0.0
    if g.size and float(np.abs(g - np.swapaxes(g, -1, -2)).max()) > 1e-9 * (1.0 + scale):
        raise SingularMetric(f"{label} is not symmetric")


def _check_shape(A: Array, shape: tuple[int, ...], label: str) -> Array:
    """Return ``A`` after checking that callback ``label`` returned ``shape``."""
    if A.shape != shape:
        raise ValueError(f"{label} returned shape {A.shape}, expected {shape}")
    return A


def _cholesky_spd(g: Array, label: str = "metric") -> Array:
    """Cholesky factor of ``g``, raising ``SingularMetric`` when not SPD."""
    _check_symmetric(g, label)
    try:
        L = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric(f"{label} is not positive definite") from exc
    d = np.diag(L)
    # pivot ratio ~ sqrt(condition number); reject past ~1e12 conditioning
    if d.size and (d.min() / d.max()) ** 2 < 1e-12:
        raise SingularMetric(f"{label} is numerically singular (pivot ratio {d.min() / d.max():.2e})")
    return L


def metric_at(spec: SystemSpec, q: Array) -> Array:
    """Evaluate and validate the kinetic-energy matrix at ``q``."""
    g = np.asarray(spec.metric(np.asarray(q, dtype=float)), dtype=float)
    _check_shape(g, (spec.dim, spec.dim), "metric")
    _cholesky_spd(g)
    return g


def metric_inverse_at(spec: SystemSpec, q: Array, metric: Optional[Array] = None) -> Array:
    """Inverse metric at ``q``, from the analytic callback when available."""
    g = metric if metric is not None else metric_at(spec, q)
    n = spec.dim
    if spec.metric_inverse is not None:
        ginv = np.asarray(spec.metric_inverse(np.asarray(q, dtype=float)), dtype=float)
        _check_shape(ginv, (n, n), "metric_inverse")
        resid = np.abs(g @ ginv - np.eye(n)).max()
        if resid > 1e-6 * n:
            raise SingularMetric(f"supplied metric_inverse disagrees with metric (residual {resid:.2e})")
        return ginv
    return np.linalg.inv(g)


def omega_at(spec: SystemSpec, q: Array) -> Array:
    """Constraint one-form rows at ``q`` (shape ``(nu, N+M)``)."""
    Om = np.asarray(spec.omega(np.asarray(q, dtype=float)), dtype=float)
    return _check_shape(Om, (spec.nu, spec.dim), "omega")


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
    """Flip column signs so the largest-magnitude entry of each is positive."""
    out = np.array(cols, dtype=float)
    if out.size:
        lead = np.abs(out).argmax(axis=0)
        flip = out[lead, np.arange(out.shape[1])] < 0.0
        out[:, flip] = -out[:, flip]
    return out


def _constraint_svd(spec: SystemSpec, q: Array, Om: Array) -> tuple[Array, Array, Array]:
    """SVD ``U @ diag(s) @ Vh`` of the constraint block ``Om[:, :N]``.

    Raises ``RankDeficiency`` when fewer than ``nu`` singular values clear
    the relative cutoff ``RANK_RTOL`` (transversality failure).
    """
    if spec.nu == 0:
        return np.zeros((0, 0)), np.zeros(0), np.eye(spec.N)
    U, s, Vh = np.linalg.svd(Om[:, : spec.N])
    rank = int(np.sum(s > RANK_RTOL * s[0]))
    if rank != spec.nu:
        raise RankDeficiency(
            f"constraint block rank {rank} != nu = {spec.nu}: transversality fails at q={np.asarray(q)}"
        )
    return U, s, Vh


def _block_I_basis(spec: SystemSpec, Vh: Array) -> Array:
    """Right null space of the constraint block, padded with ``M`` zero rows."""
    B = np.zeros((spec.dim, spec.N - spec.nu))
    B[: spec.N, :] = Vh[spec.nu :].T
    return _canonical_sign(B)


def delta_cap_gamma_basis(spec: SystemSpec, q: Array, omega_matrix: Optional[Array] = None) -> Array:
    """Basis (columns) of block I, the admissible directions with frozen controls.

    Block I consists of vectors annihilated by every constraint form whose
    controlled components vanish, so it is the null space of the first-``N``
    column block of the constraint matrix, padded with ``M`` zero rows.
    Raises ``RankDeficiency`` when that block loses rank (transversality
    failure).
    """
    Om = omega_matrix if omega_matrix is not None else omega_at(spec, q)
    _, _, Vh = _constraint_svd(spec, q, Om)
    return _block_I_basis(spec, Vh)


def projection_set(spec: SystemSpec, q: Array, check: bool = True) -> ProjectionSet:
    """Projections, coprojections and lift maps of the splitting at ``q``.

    With ``check=True`` (the default) the block ranks are verified against
    ``(N - nu, nu, M)``, which also builds the lazy blocks II and III;
    passing ``check=False`` skips those singular-value sweeps (the
    transversality test still runs), which matters on the hot path of the
    dynamics.
    """
    q = np.asarray(q, dtype=float)
    N, nu = spec.N, spec.nu
    g = metric_at(spec, q)
    ginv = metric_inverse_at(spec, q, metric=g)
    Om = omega_at(spec, q)

    U, s, Vh = _constraint_svd(spec, q, Om)
    B = _block_I_basis(spec, Vh)
    gB = g @ B
    P_I = B @ np.linalg.solve(B.T @ gB, gB.T)

    # g-minimal right inverse [R_II, h] of the rows [Om; du]: pseudo-inverse
    # particular solutions for unit constraint values and unit controls, then
    # the g-orthogonal removal of their block I components
    pinv = Vh[:nu].T @ (U.T / s[:, None])
    x0 = np.zeros((spec.dim, nu + spec.M))
    x0[:N, :nu] = pinv
    x0[:N, nu:] = -pinv @ Om[:, N:]
    x0[N:, nu:] = np.eye(spec.M)
    right = x0 - P_I @ x0
    h = right[:, nu:]

    P = ProjectionSet(P_I=P_I, Pstar_I=P_I.T, h=h, k=g @ h, R_II=right[:, :nu], I_basis=B, g=g, ginv=ginv, Om=Om)
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

