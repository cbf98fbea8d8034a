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
step, so both must be complex-safe: Maggi's equations on the frame below
need only their derivatives (see :func:`nonholo.reduced_dynamics.frame_rhs`).

The splitting is read off the generic frame of Voronets and Chaplygin that
the dynamics layer steps on: the best-conditioned ``nu x nu`` minor ``A_d``
of the constraint forms gives ``V[d] = -A_d^-1 Om[:, r]``, ``V[r] = I``,
whose free block ``V_I`` spans block I (``P_I = V_I G^-1 (g V_I)^T`` with
``G = V_I^T g V_I``) and whose drive block, less its ``g``-orthogonal block
I component, is the lift; ``A_d^-1`` gives ``R_II`` the same way.  The
singular-value decomposition of the constraint block ``Omega[:, :N]`` is
only the diagnostic behind a minor too weak to certify transversality.

One kernel computes the splitting over a stack of points, the form the
fitness scans batch their samples in; :func:`projection_set` is its
one-point case.  It calls each model callback once per stack, always on the
complex stack ``q + i H [0; D]`` of :func:`_complex_front`, whose row 0
gives the callback's value and whose other rows its derivatives along ``D``.

Conventions: configurations, vectors and covectors are 1-D ``numpy`` arrays of
length ``N + M``; matrices act on the left.  Coprojections satisfy
``Pstar = g @ P @ g^-1`` and, because the splitting is ``g``-orthogonal, equal
the plain transposes of the projections; they are stored as those transposes.
Transversality is decided by a relative singular-value cutoff of ``1e-9``
(``RANK_RTOL``) on the constraint block, which a well-conditioned minor
certifies without computing the singular values; the blocks then have
ranks ``(N - nu, nu, M)`` by construction.
"""

from __future__ import annotations

import itertools
import math
import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import SimpleNamespace
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import ChartDomain, ModelError, RankDeficiency, SingularMetric

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
#: Length to which :func:`argmin_certificate` rescales each competitor offset ``I_basis c``, so it is a distance
#: whatever the scale of the non-orthonormal ``I_basis``.
_COMPETITOR_LENGTH = 1.0
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
    components.  ``I_basis`` spans block I (columns: the free block ``V_I`` of
    the point's generic frame: not orthonormal, and it jumps where the best
    pivots change), ``g``/``ginv`` are the metric and its inverse and ``Om``
    the constraint forms at the evaluation point.

    The fields are computed when the set is built.  ``P_II``, ``P_III``,
    ``Pstar_II`` and ``Pstar_III`` are computed on first access and cached,
    so the coefficient tensors never pay for them.

    A set built for many points at once carries one leading axis over the
    points on every field, lazy blocks included; :meth:`point` extracts the
    set at one of them.
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


def _complex_shift(D: Array) -> Array:
    """``i H [0; D]``: ``q + _complex_shift(D)`` stacks ``q`` and its complex steps along the rows of ``D``."""
    return (1j * COMPLEX_STEP) * np.concatenate([np.zeros((1, D.shape[-1])), D])


@lru_cache(maxsize=None)
def _axis_shift(n: int, start: int = 0) -> Array:
    """Read-only ``_complex_shift(I_n[start:])``, the steps along the axes from ``start`` on (none for ``start = n``),
    built once per ``(n, start)``: a table bounded by the models' dimensions, never keyed on a point or direction."""
    shift = _complex_shift(_eye(n)[start:])
    shift.flags.writeable = False
    return shift


def _norm(x: Array) -> float:
    """``np.linalg.norm(x)`` (2-norm, Frobenius on a matrix) bit for bit, without its dispatch cost."""
    v = x.ravel(order="K")
    return math.sqrt(v @ v)


def _finite_vector(x: object, name: str, k: int, batched: bool = False) -> Array:
    """``x`` as a float array, which must be finite and of shape ``(k,)`` (with ``batched``, its last axis of length
    ``k``), else ``ValueError`` naming it ``name``: the pointwise entries' check of their vector arguments, made before
    any callback call, so a coordinate the callbacks ignore cannot be NaN and a wrong length cannot broadcast."""
    x = np.asarray(x, dtype=float)
    if (x.shape[-1:] if batched else x.shape) != (k,) or not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite and of shape {(k,)}, got {x!r}")
    return x


def _cholesky_spd(G: Array) -> None:
    """Raise ``SingularMetric`` unless each metric of the stack ``G`` is SPD: symmetric, with a Cholesky factor."""
    _check_symmetric(G, "metric")
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric(f"metric is {'not positive definite' if np.isfinite(G).all() else 'not finite'}") from exc
    # reject NaN pivots (some LAPACKs factor a NaN metric), which min and max can hide; pivot ratio ~ sqrt(cond)
    for diag in L.diagonal(0, -2, -1).tolist() if L.size else ():
        if not math.isfinite(sum(diag)):
            raise SingularMetric("metric is not finite")
        ratio = min(diag) / max(diag)
        if ratio * ratio < 1e-12:
            raise SingularMetric(f"metric is numerically singular (pivot ratio {ratio:.2e})")


def _check_finite_derivatives(*stacks: Array) -> None:
    """Raise ``ModelError`` unless every entry of the complex-step derivative ``stacks`` is finite.

    Finite values with NaN imaginary parts pass every test on the values.
    """
    for A in stacks:
        if np.count_nonzero(np.isfinite(A)) < A.size:  # half the cost of .all() on these small stacks
            raise ModelError("metric or omega derivative is not finite")


def _callback(spec: SystemSpec, label: str, Q: Array) -> Array:
    """Callback ``label`` of ``spec`` on the stack ``Q``, as returned, shape-checked."""
    A = np.asarray(getattr(spec, label)(Q))
    shape = Q.shape[:-1] + (spec.nu if label == "omega" else spec.dim, spec.dim)
    if A.shape != shape:
        raise ValueError(f"{label} returned shape {A.shape}, expected {shape}")
    return A


def _not_complex_safe(label: str, exc: Exception) -> ModelError:
    """The ``ModelError`` for the callbacks ``label``, not complex-safe by the ``TypeError`` or ``ComplexWarning`` ``exc``."""
    return ModelError(f"{label} is not complex-safe ({exc!r}): it must accept complex q and be analytic in it")


@contextmanager
def _complex_safe() -> Iterator[None]:
    """Hold the complex-safety guard over the body: a ``ComplexWarning`` there raises, whatever the caller's filters.

    It converts nothing (:func:`_complex_front` does).  The filters are
    process-wide, so while the guard is held a complex-to-real cast raises
    anywhere, in other threads and in a control's own code too; and it holds
    a reentrant lock, so concurrent callers take turns rather than restore
    each other's filters.  ``integrate`` holds it for a whole run.
    """
    with _WARNINGS_LOCK, warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        yield


def _complex_front(spec: SystemSpec, Z: Array) -> tuple[Array, Array, Array, Array]:
    """``metric`` and ``omega``, called once each on the complex stack ``Z``, as checked values and derivatives.

    ``Z = Q[i] + i H [0; D]`` (directions ``D`` of shape ``(k, N+M)``) is
    ``(S, k + 1, N+M)`` for ``S`` points or ``(k + 1, N+M)`` for one.  Only
    here does a callback's ``TypeError``, or under the caller's
    :func:`_complex_safe` its ``ComplexWarning`` (a dropped imaginary part),
    become ``ModelError``.  Returns ``(G, Om, dG, dOm)`` with one leading
    axis over the points: row 0's real parts, bit for bit the real call, and
    the other rows' imaginary parts over ``H``.  ``G`` passes
    :func:`_cholesky_spd`, ``dG`` the symmetry test, and ``Om`` must be
    finite (else ``ModelError``).
    """
    try:
        Gz, Omz = _callback(spec, "metric", Z), _callback(spec, "omega", Z)
    except (TypeError, np.exceptions.ComplexWarning) as exc:
        raise _not_complex_safe("metric or omega", exc) from None
    if Z.ndim == 2:
        Gz, Omz = Gz[None], Omz[None]
    # contiguous, so products round as on the real call
    G, Om = Gz[:, 0].real.astype(float), Omz[:, 0].real.astype(float)
    dG, dOm = Gz[:, 1:].imag / COMPLEX_STEP, Omz[:, 1:].imag / COMPLEX_STEP
    _cholesky_spd(G)
    _check_symmetric(dG, "metric derivative")
    if np.count_nonzero(np.isfinite(Om)) < Om.size:  # the rank tests see the constraint block only
        raise ModelError("omega is not finite")
    return G, Om, dG, dOm


def _each_point(fn: Callable[[Array], tuple], Q: Array, skip: SkipTypes) -> tuple[Array, tuple]:
    """``fn`` on the one-point stacks ``Q[i:i+1]``, in order; a point whose call raises one of ``skip`` leaves.

    ``fn`` maps a stack to a tuple of stacks over its points.  Returns
    ``(keep, parts)``: the mask of the points that stayed and, per tuple
    entry, the results over them (empty when none stayed).
    """
    keep = np.ones(len(Q), dtype=bool)
    out = []
    for i in range(len(Q)):
        try:
            out.append(fn(Q[i : i + 1]))
        except skip:
            keep[i] = False
    return keep, tuple(np.concatenate(part) for part in zip(*out))


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


def _constraint_svd(spec: SystemSpec, Q: Array, Om: Array, skip: SkipTypes = ()) -> Array:
    """Mask of the points whose constraint block ``Om[i, :, :N]`` has ``nu`` singular values above ``RANK_RTOL`` times its largest.

    Elsewhere transversality fails: ``RankDeficiency`` is raised, or, when it is in ``skip``, the point's entry is
    ``False``.
    """
    nu = spec.nu
    if nu == 0:
        return np.ones(len(Om), dtype=bool)
    try:
        s = np.linalg.svd(Om[:, :, : spec.N], compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ModelError(f"constraint block SVD failed ({exc})") from exc
    # singular values come sorted, so the rank is nu exactly when the last clears the cutoff
    keep = s[:, nu - 1] > RANK_RTOL * s[:, 0]
    for i in np.flatnonzero(~keep):
        rank = int((s[i] > RANK_RTOL * s[i, 0]).sum())
        exc = RankDeficiency(f"constraint block rank {rank} != nu = {nu}: transversality fails at q={Q[i]}")
        if not isinstance(exc, skip):
            raise exc
    return keep


@lru_cache(maxsize=None)
def _pivot_layouts(N: int, nu: int, n: int) -> tuple[Array, Array, tuple[Array, ...]]:
    """Read-only ``(subsets, others, bases)``: the pivot choices ``d``, the ``nu``-subsets of the ``N`` passive
    coordinates in lexicographic order, for each the other coordinates ``r`` of the ``n``, in order, and the base ``E =
    I[:, r]`` of its frame's ``V[r] = I``, in the F order fancy indexing leaves, by which matmuls with ``V`` round."""
    subsets = list(itertools.combinations(range(N), nu))
    others = [[j for j in range(n) if j not in d] for d in subsets]
    layouts = np.array(subsets, dtype=int).reshape(len(subsets), nu), np.array(others, dtype=int)
    bases = tuple(_eye(n)[:, r] for r in layouts[1])
    for A in (*layouts, *bases):
        A.flags.writeable = False
    return (*layouts, bases)


def _frobenius(X: Array) -> Array:
    """Frobenius norms of the matrices along the last two axes of ``X``."""
    return np.sqrt(np.einsum("...ij,...ij->...", X, X))


def _best_pivots(spec: SystemSpec, Om: Array) -> tuple[Array, Array]:
    """Per point of the constraint stack ``Om``, the index into ``_pivot_layouts`` of its pivots, and ``|A_d^-1|_F``.

    Each point's own best minor ``A_d = Om[i][:, d]``: the least Frobenius condition number ``|A_d|_F |A_d^-1|_F``
    (infinite for a singular minor).  It cannot see a minor's scale against the rest of the block (every ``1 x 1``
    minor has condition 1), so among the minors tied with the best to rounding the least ``|A_d^-1|_F`` wins, then
    the first in lexicographic order.
    """
    if not spec.nu:
        return np.zeros(len(Om), dtype=int), np.zeros(len(Om))
    minors = Om[:, :, _pivot_layouts(spec.N, spec.nu, spec.dim)[0]].transpose(0, 2, 1, 3)
    norm = _frobenius(minors)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # singular minors: inf, or NaN if zero
        if spec.nu == 2:  # |A^-1|_F = |A|_F / |det A|, at a fraction of the cost of np.linalg.cond
            inv_norm = norm / np.abs(minors[..., 0, 0] * minors[..., 1, 1] - minors[..., 0, 1] * minors[..., 1, 0])
        else:
            inv_norm = np.linalg.cond(minors, "fro") / norm
        cond = np.where(inv_norm < np.inf, norm * inv_norm, np.inf)
    tied = cond <= cond.min(axis=1, keepdims=True) * (1.0 + 1e-12)
    pivots = np.where(tied, inv_norm, np.inf).argmin(axis=1)
    return pivots, inv_norm[np.arange(len(Om)), pivots]


def _frame_stack(
    spec: SystemSpec, Q: Array, shift: Array, skip: SkipTypes = ()
) -> tuple[Array, Optional[SimpleNamespace]]:
    """The point half of Maggi's equations at every point of ``Q`` (shape ``(S, N+M)``), each on its own generic frame.

    Each callback runs once, under :func:`_complex_safe`, on ``Q[i] + shift`` (:func:`_complex_front`), where ``shift
    = i H [0; D]`` steps along the directions ``D``: :func:`_axis_shift` for axes, else :func:`_complex_shift`.  A
    point's pivots ``d`` (:func:`_best_pivots`) give its frame ``V[r] = I``, ``V[d] = -A_d^-1 Om[:, r]``, whose first
    ``N - nu`` columns ``V_I`` span block I and whose last ``M``, ``x0``, solve the constraint rows with unit controls.
    As on a Maggi stage, ``RANK_RTOL |Om[:, :N]|_F |A_d^-1|_F < 1`` certifies transversality, else
    :func:`_constraint_svd` decides, and a transversal block with a singular best minor is a ``ChartDomain``; the
    derivatives must be finite (else ``ModelError``).  A point whose callbacks (see :func:`_stacked_call`) or
    tests raise one of ``skip`` leaves.  Returns ``(keep, pt)``: the mask of the points that stayed and, stacked over
    them, ``g``, ``Om``, their derivatives ``dg``, ``dOm`` along ``D``, ``d``, ``Ainv``, ``V_I``, ``gV = g V_I``,
    ``Ginv = (V_I^T g V_I)^-1`` and the lift ``h = x0 - V_I Ginv gV^T x0`` (``pt`` is ``None`` when none stayed).
    """
    with _complex_safe():
        keep, parts = _stacked_call(lambda Q: _complex_front(spec, Q[:, None] + shift), Q, skip)
    if not parts:
        return keep, None
    G, Om, dG, dOm = parts
    subsets, others, _ = _pivot_layouts(spec.N, spec.nu, spec.dim)
    pivots, ainv_norm = _best_pivots(spec, Om)
    d, r = subsets[pivots], others[pivots]
    with np.errstate(invalid="ignore"):  # 0 * inf: a zero block, whose minors are all singular
        certified = RANK_RTOL * _frobenius(Om[:, :, : spec.N]) * ainv_norm < 1.0
    if not certified.all():
        Qk, ok, weak = Q[keep], certified, ~certified
        ok[weak] = _constraint_svd(spec, Qk[weak], Om[weak], skip)
        for i in np.flatnonzero(ok & ~(ainv_norm < np.inf)):
            exc = ChartDomain(f"pivot minor {tuple(d[i].tolist())} of the generic frame is singular at q={Qk[i]}")
            if not isinstance(exc, skip):
                raise exc
            ok[i] = False
        keep[keep] = ok
        if not ok.any():
            return keep, None
        G, Om, dG, dOm, d, r = G[ok], Om[ok], dG[ok], dOm[ok], d[ok], r[ok]
    _check_finite_derivatives(dG, dOm)

    n, m = spec.dim, spec.N - spec.nu
    OmT, rows = Om.transpose(0, 2, 1), np.arange(len(G))[:, None]
    Ainv = np.linalg.inv(OmT[rows, d].transpose(0, 2, 1))
    V = np.zeros((len(G), n, n - spec.nu))
    V[rows, r, np.arange(n - spec.nu)] = 1.0
    V[rows, d] = -Ainv @ OmT[rows, r].transpose(0, 2, 1)
    V_I, x0 = V[:, :, :m], V[:, :, m:]
    gV = G @ V_I
    Ginv = np.linalg.inv(V_I.transpose(0, 2, 1) @ gV)
    # the lift: x0 less its g-orthogonal component in block I, the span of V_I
    h = x0 - V_I @ (Ginv @ (gV.transpose(0, 2, 1) @ x0))
    return keep, SimpleNamespace(g=G, Om=Om, dg=dG, dOm=dOm, d=d, Ainv=Ainv, V_I=V_I, gV=gV, Ginv=Ginv, h=h)


def _projection_stack(
    spec: SystemSpec, Q: Array, shift: Array, skip: SkipTypes = ()
) -> tuple[Array, Optional[ProjectionSet], Optional[tuple[Array, Array]]]:
    """The splitting at every point of ``Q`` (shape ``(S, N+M)``) at once, read off :func:`_frame_stack`.

    ``P_I = V_I G^-1 (g V_I)^T``; ``R_II = y - P_I y`` with ``y[d] = A_d^-1`` (zero elsewhere), which solves
    ``Om y = I`` with no controlled components; ``I_basis = V_I`` and ``k = g h``.  No rank test: ``V[r] = I``, the
    control rows of ``h`` are ``I`` and ``G`` is SPD, so the blocks have ranks ``(N - nu, nu, M)``.  Returns ``(keep,
    P, derivs)``: the points of ``Q`` that stayed (as in :func:`_frame_stack`), a :class:`ProjectionSet` with one
    leading axis over them and the derivative stacks ``(dg, dOm)`` along the shift's ``D`` (both ``None`` when none
    stayed).
    """
    keep, pt = _frame_stack(spec, Q, shift, skip)
    if pt is None:
        return keep, None, None
    y = np.zeros((len(pt.g), spec.dim, spec.nu))
    y[np.arange(len(y))[:, None], pt.d] = pt.Ainv
    P_I = pt.V_I @ pt.Ginv @ pt.gV.transpose(0, 2, 1)
    P = ProjectionSet(P_I=P_I, Pstar_I=P_I.transpose(0, 2, 1), h=pt.h, k=pt.g @ pt.h, R_II=y - P_I @ y,
                      I_basis=pt.V_I, g=pt.g, ginv=np.linalg.inv(pt.g), Om=pt.Om)
    return keep, P, (pt.dg, pt.dOm)


def projection_set(spec: SystemSpec, q: Array) -> ProjectionSet:
    """Projections, coprojections and lift maps of the splitting at ``q``, on the generic frame best there.

    Each callback runs once, on the complex stack ``q + i H [0]``.  A
    constraint block that fails transversality raises ``RankDeficiency``,
    and a ``q`` that is not finite or not of shape ``(N+M,)`` ``ValueError``.
    """
    q = _finite_vector(q, "q", spec.dim)
    _, P, _ = _projection_stack(spec, q[None], _axis_shift(spec.dim, spec.dim))
    return P.point(0)


def argmin_certificate(
    spec: SystemSpec,
    q: Array,
    v: Array,
    trials: int = 32,
    rng: Optional[np.random.Generator] = None,
) -> tuple[bool, float]:
    """Spot-check that the lift of ``v`` minimizes kinetic energy.

    Among admissible vectors whose controlled components equal ``v``, the lift
    ``h @ v`` should have the least ``g``-norm; every competitor differs from
    it by a block I vector.  Draws ``trials`` random competitors
    ``h @ v + w``, ``w = I_basis @ c`` rescaled to ``|w| = _COMPETITOR_LENGTH``, and returns ``(ok, margin)`` with
    ``margin`` the worst observed excess energy (nonnegative when the certificate holds).  A ``q`` or ``v`` that is
    not finite or not of shape ``(N+M,)`` or ``(M,)`` raises ``ValueError``.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    v = _finite_vector(v, "v", spec.M)
    P = projection_set(spec, q)
    z0 = P.h @ v
    base = float(z0 @ P.g @ z0)
    B = P.I_basis
    if B.shape[1] == 0:
        return True, float("inf")
    margin = float("inf")
    for _ in range(trials):
        w = B @ rng.standard_normal(B.shape[1])
        norm = np.linalg.norm(w)
        if norm == 0.0:
            continue
        w *= _COMPETITOR_LENGTH / norm
        z = z0 + w
        margin = min(margin, float(z @ P.g @ z) - base)
    ok = margin >= -1e-10 * (1.0 + abs(base))
    return ok, margin

