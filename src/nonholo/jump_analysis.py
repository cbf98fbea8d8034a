"""Sampled diagnostics for tolerance of control jumps.

A system tolerates discontinuous controls exactly when its reduced momentum
equation has no term quadratic in the control rate, i.e. when the centrifugal
form ``Psi`` vanishes identically.  With no symbolic engine in scope the
predicate is operationalized as a max-norm scan over sampled configurations
and directions: verdict ``"fit"`` when the observed maximum stays below a
tolerance, ``"not-fit"`` when a concrete witness exceeds ten times it, and
``"inconclusive"`` in the gray band between (or when every sample failed).

The scans probe one form in two parametrizations: :func:`psi_scan` probes
``Psi`` on unit control rates, :func:`theta_on_III_scan` the quadratic
momentum form on unit covectors of the drive coprojection image, which is
``Psi`` after a change of variables.  They draw their own samples, so a
disagreement of their verdicts (CLI exit 5) flags only those different
samples.  :func:`sufficiency_check` evaluates the cheaper structural
conditions that imply fitness without scanning ``Psi`` itself, and
:func:`leaf_metric_derivative` measures the equivalent leaf-distance
signature one direction at a time.

The scans read ``Psi`` off the point half of Maggi's equations on the
generic frame (Neimark & Fufaev, *Dynamics of Nonholonomic Systems*, 1972),
:func:`sufficiency_check` the free coprojection and the inverse metric, and
:func:`leaf_metric_derivative` the lift's derivative, off the same frame.  All of them go through
one stacked kernel, which calls each callback once per stack, complex, at
``q + i H [0; D]``: row 0 gives the value, the other rows the derivatives
along ``D`` (every axis for the scans, the controls for
:func:`sufficiency_check`, ``w`` for :func:`leaf_metric_derivative`).  The
axis shifts are built once per model dimension; only ``w`` builds its own.
One broadcast contraction evaluates every seed direction at every point.

At a few samples a scan's cost is fixed dispatch, not per-point work, so the
fixed steps are kept lean without changing one floating-point operation:
:class:`BoxSampler` checks its box once (finite bounds and widths, else
``ValueError``) and draws ``low + width * U[0, 1)``, ``Generator.uniform``'s
own arithmetic, and the seed stacks are indexed only when a sample was
skipped.  A scan's ``tol`` must be positive and finite, else ``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from .core_geometry import Array, SystemSpec, _axis_shift, _complex_shift, _each_point, _eye, _finite_vector, _frame_stack
from .errors import (
    ChartDomain,
    NotInDeltaCapGamma,
    RankDeficiency,
    SingularDenominator,
)
from .reduced_dynamics import _psi_stack

# verdict thresholds: fit at <= tol, not-fit at > 10 tol, gray band between
GRAY_FACTOR = 10.0
#: :func:`sufficiency_check`'s bounds on the inverse metric's control derivatives and on the free coprojection's drift
_METRIC_TOL = 1e-10
_REPRESENTATION_TOL = 1e-9
#: :func:`leaf_metric_derivative`'s bound on ``|P_I w - w|``, relative to ``1 + |w|``
_FREE_BLOCK_TOL = 1e-6


def worker_count() -> int:
    """Always 1: scans run on one thread.  Kept only for the benchmark harness, which checks it."""
    return 1


@dataclass
class BoxSampler:
    """Uniform configuration samples from an axis-aligned chart box.

    ``box`` has one ``(low, high)`` row per coordinate (all ``N + M`` of
    them, so the scan also varies the control value); its bounds and widths
    must be finite, with ``high >= low``, else ``ValueError``.  It is checked
    once, at construction.  The generator state is owned by the sampler:
    reseeding reproduces the exact draw sequence.
    """

    box: Array
    seed: int = 0
    rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.box = np.asarray(self.box, dtype=float)
        if self.box.ndim != 2 or self.box.shape[1] != 2:
            raise ValueError(f"box must have shape (dim, 2), got {self.box.shape}")
        rows = self.box.tolist()
        # Python floats subtract as NumPy does, without its overflow warning; a NaN or infinite bound gives such a width
        widths = [high - low for low, high in rows]
        if not all(map(math.isfinite, widths)):
            raise ValueError(f"box bounds and widths must be finite, got {rows}")
        if min(widths, default=0.0) < 0.0:
            raise ValueError("box upper bounds must dominate lower bounds")
        self._low, self._width = self.box[:, 0].copy(), np.array(widths)
        self.rng = np.random.default_rng(self.seed)

    def points(self, n: int) -> Array:
        """``n`` points, ``(n, dim)``: ``low + width * U[0, 1)``, bit for bit ``rng.uniform(low, high, (n, dim))``."""
        return self._low + self._width * self.rng.random((n, len(self._low)))

    def unit_directions(self, dim: int, count: int) -> Array:
        """``count`` independent uniform directions on the unit sphere."""
        vecs = self.rng.standard_normal((count, dim))
        norms = _row_norms(vecs)
        # resample the (measure-zero) degenerate rows rather than dividing by ~0
        while (norms < 1e-12).any():
            bad = norms[:, 0] < 1e-12
            vecs[bad] = self.rng.standard_normal((int(bad.sum()), dim))
            norms = _row_norms(vecs)
        return vecs / norms


def _row_norms(v: Array) -> Array:
    """Euclidean norms along the last axis, kept as a length-1 axis: ``np.linalg.norm(v, axis=-1, keepdims=True)``
    bit for bit (the sum of squares it reduces for real input), without its dispatch cost."""
    return np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=True))


@dataclass(frozen=True)
class ConditionResult:
    """One structural-hypothesis outcome: observed size against its tolerance."""

    name: str
    passed: bool
    observed: float
    tol: float

    def to_text(self) -> str:
        status = "holds" if self.passed else "FAILS"
        return f"{self.name}: {status} (observed {self.observed:.3e}, tol {self.tol:.1e})"


@dataclass(frozen=True)
class SufficiencyReport:
    """Structural conditions that together imply jump fitness.

    ``declared_flat`` is taken from the model (curvature of the complement of
    the controlled directions is not computed here); the other two are
    measured.  ``sufficient`` never claims the converse: a failing report
    says nothing about the Psi scan.
    """

    declared_flat: bool
    metric_control_dependence: ConditionResult
    representation_constancy: ConditionResult
    sample_count: int

    @property
    def sufficient(self) -> bool:
        return (
            self.declared_flat
            and self.metric_control_dependence.passed
            and self.representation_constancy.passed
        )

    def conditions(self) -> tuple[ConditionResult, ...]:
        return (
            ConditionResult(
                name="complement declared flat",
                passed=self.declared_flat,
                observed=0.0 if self.declared_flat else 1.0,
                tol=0.5,
            ),
            self.metric_control_dependence,
            self.representation_constancy,
        )

    def to_text(self) -> str:
        lines = [f"structural sufficiency over {self.sample_count} samples:"]
        lines += ["  " + c.to_text() for c in self.conditions()]
        verdict = "imply fitness" if self.sufficient else "do not decide fitness"
        lines.append(f"  together: conditions {verdict}")
        return "\n".join(lines)


@dataclass(frozen=True)
class FitnessReport:
    """Outcome of one sampled-vanishing scan.

    ``max_value`` is the largest quadratic-form norm seen per unit direction;
    a ``"not-fit"`` verdict always carries the witnessing point and direction.
    ``failures`` counts samples skipped for rank or chart reasons — they are
    recorded, not fatal, but an all-failed scan is ``"inconclusive"``.
    """

    quantity: str
    verdict: str
    max_value: float
    tol: float
    sample_count: int
    failures: int
    worst_point: Optional[Array] = None
    worst_direction: Optional[Array] = None
    structural: Optional[SufficiencyReport] = None

    def to_text(self) -> str:
        lines = [
            f"scan: {self.quantity}",
            f"verdict: {self.verdict}",
            f"max |{self.quantity}| per unit direction: {self.max_value!r}",
            f"tolerance: {self.tol!r} (gray band up to {self.tol * GRAY_FACTOR!r})",
            f"samples: {self.sample_count} evaluated, {self.failures} skipped",
        ]
        if self.worst_point is not None:
            coords = ", ".join(repr(float(x)) for x in self.worst_point)
            lines.append(f"worst point: [{coords}]")
        if self.worst_direction is not None:
            coords = ", ".join(repr(float(x)) for x in self.worst_direction)
            lines.append(f"worst direction: [{coords}]")
        if self.structural is not None:
            lines.append(self.structural.to_text())
        return "\n".join(lines) + "\n"


def _verdict(max_value: float, tol: float, evaluated: int) -> str:
    if evaluated == 0:
        return "inconclusive"
    if max_value <= tol:
        return "fit"
    if max_value > GRAY_FACTOR * tol:
        return "not-fit"
    return "inconclusive"


_SKIPPABLE = (RankDeficiency, ChartDomain, SingularDenominator)


def _scan(
    spec: SystemSpec,
    sampler: BoxSampler,
    n_samples: int,
    tol: float,
    quantity: str,
    evaluate: Callable[[SimpleNamespace, Array, Array, Array], tuple[Array, Array]],
    seed_dim: int,
) -> FitnessReport:
    """Shared scan driver: sample points, try directions, aggregate the max.

    ``Psi[a, b]`` (:func:`~nonholo.reduced_dynamics._psi_stack`) is read off the point halves of all points at once
    (:func:`~nonholo.core_geometry._frame_stack`, derivatives along every axis); a point whose callbacks raise a
    skippable error or whose constraint block loses rank is dropped and counted in ``failures``.  Each remaining point
    gets the ``spec.M`` canonical control-rate seeds plus ``2 * spec.M`` random unit draws of dimension ``seed_dim``.
    ``evaluate(pt, Psi, canonical, random)`` takes the point halves, ``Psi`` and the two seed stacks (shapes ``(M, S,
    M)`` and ``(2M, S, seed_dim)``) and returns the values and the directions used, with shapes ``(3M, S)`` and
    ``(3M, S, d)``.  Per point and then across points, the first seed and point reaching the maximum win; the reported
    direction's largest-magnitude entry is made positive.
    """
    if not 0.0 < tol < math.inf:  # NaN fails too
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    M = spec.M
    pts = sampler.points(n_samples)
    rand_dirs = sampler.unit_directions(seed_dim, 2 * M * n_samples)
    keep, pt = _frame_stack(spec, pts, _axis_shift(spec.dim), _SKIPPABLE)
    evaluated = int(keep.sum())

    max_value = 0.0
    worst_point = None
    worst_dir = None
    # without controls (M = 0) there are no seeds: nothing can be nonzero
    if evaluated and M:
        skipped = evaluated < n_samples  # a boolean index copies: take it only when some point left
        canonical = np.repeat(_eye(M)[:, None, :], evaluated, axis=1)
        random = rand_dirs.reshape(n_samples, 2 * M, seed_dim)
        random = (random[keep] if skipped else random).swapaxes(0, 1)
        values, used = evaluate(pt, _psi_stack(pt), canonical, random)
        best = values.argmax(axis=0)
        point_max = values[best, np.arange(evaluated)]
        i = int(point_max.argmax())
        # copies: views would pin the whole point and seed stacks to the report
        max_value, worst_dir = float(point_max[i]), used[best[i], i].copy()
        worst_point = (pts[keep] if skipped else pts)[i].copy()
        # a direction and its negative give the same quadratic value: report the
        # one whose largest-magnitude entry (the first, on a tie) is positive
        if worst_dir[np.abs(worst_dir).argmax()] < 0.0:
            worst_dir = 0.0 - worst_dir  # not -worst_dir, which turns zeros into -0.0
    return FitnessReport(
        quantity=quantity,
        verdict=_verdict(max_value, tol, evaluated),
        max_value=max_value,
        tol=tol,
        sample_count=evaluated,
        failures=n_samples - evaluated,
        worst_point=worst_point,
        worst_direction=worst_dir,
    )


def psi_scan(
    spec: SystemSpec,
    sampler: BoxSampler,
    n_samples: int = 500,
    tol: float = 1e-7,
) -> FitnessReport:
    """Scan ``|Psi[e, e]|`` over sampled points and unit control rates ``e``.

    The reported value is the sup-norm of the momentum covector per unit
    Euclidean control rate, so the tolerance has a fixed meaning across
    models.  ``tol`` must be positive and finite, else ``ValueError``.
    """

    def evaluate(pt: SimpleNamespace, Psi: Array, canonical: Array, random: Array) -> tuple[Array, Array]:
        e = np.concatenate([canonical, random])
        return np.abs(np.einsum("ksa,ksb,sabn->ksn", e, e, Psi)).max(axis=-1), e

    return _scan(spec, sampler, n_samples, tol, "Psi", evaluate, spec.M)


def _drive_rates(pt: SimpleNamespace, canonical: Array, random: Array) -> tuple[Array, Array]:
    """The theta scan's seed stacks as control rates ``a`` ``(K, S, M)`` and drive covectors ``w = k a`` ``(K, S, N+M)``.

    ``Pstar_III = k (h^T k)^-1 h^T``, so a control-rate seed ``e`` gives ``Pstar_III k e = k e`` (``a = e``) and a
    covector seed ``r`` gives ``Pstar_III r = k a`` with ``a = (h^T k)^-1 h^T r``.
    """
    k, hT = pt.g @ pt.h, pt.h.transpose(0, 2, 1)
    a = np.concatenate([canonical, (np.linalg.solve(hT @ k, hT) @ random[..., None])[..., 0]])
    return a, (k @ a[..., None])[..., 0]


def theta_on_III_scan(
    spec: SystemSpec,
    sampler: BoxSampler,
    n_samples: int = 500,
    tol: float = 1e-7,
) -> FitnessReport:
    """Scan the quadratic momentum form on the drive coprojection image.

    Canonical control-rate seeds ``e`` enter as ``w = Pstar_III @ (k @ e)``;
    random seeds are full ambient covectors ``r`` squeezed through
    ``Pstar_III``.  Either way ``w = k a`` for a control rate ``a``
    (:func:`_drive_rates`).  Each ``w`` is normalized to unit length before
    evaluating ``theta_I[w, w] = Psi[a, a] / |k a|^2``, so tolerances are
    comparable with :func:`psi_scan`: this is ``Psi`` in a second
    parametrization, sampled at other points and directions.  A ``w``
    shorter than ``1e-12`` scores 0 and is reported unnormalized.  ``tol``
    must be positive and finite, else ``ValueError``.
    """

    def evaluate(pt: SimpleNamespace, Psi: Array, canonical: Array, random: Array) -> tuple[Array, Array]:
        a, w = _drive_rates(pt, canonical, random)
        norm = _row_norms(w)[..., 0]
        short = norm < 1e-12
        scale = np.where(short, 1.0, norm)
        values = np.abs(np.einsum("ksa,ksb,sabn->ksn", a, a, Psi)).max(axis=-1) / scale**2
        return np.where(short, 0.0, values), w / scale[..., None]

    return _scan(spec, sampler, n_samples, tol, "theta_on_III", evaluate, spec.dim)


def sufficiency_check(
    spec: SystemSpec,
    basis_field: Callable[[Array], Array],
    sampler: BoxSampler,
    n_samples: int = 100,
    declared_flat: bool = False,
) -> SufficiencyReport:
    """Evaluate the structural conditions that imply jump fitness.

    Measured over sampled points, from the stacked point half of Maggi's
    equations (``Pstar_I = (V_I G^-1 (g V_I)^T)^T`` and ``g^-1``) and the
    complex-step derivatives ``dg_u`` of the metric along the controlled
    coordinates, both from one complex call of each callback on the stack
    ``q + i H [0; e_u]`` (no splitting, no coefficient tensors):

    * control independence of the inverse metric — the max absolute entry
      of its derivatives ``dginv[u] = -ginv dg_u ginv`` along the
      controlled coordinates;
    * constancy of the free coprojection in the supplied basis — the matrix
      ``B(q)^T Pstar_I(q) B(q)^{-T}`` compared across samples (max deviation
      from the first sample; pairwise deviations are at most twice that).

    They pass at the module bounds ``_METRIC_TOL`` and ``_REPRESENTATION_TOL``.
    The flatness of the complement of the controlled directions is accepted
    as ``declared_flat`` — it is a model-level declaration, not computed.
    Samples are skipped as in the scans, and also where ``basis_field``
    raises a skippable error.
    """
    pts = sampler.points(n_samples)
    # the callbacks' derivatives along the controlled coordinates only
    keep, pt = _frame_stack(spec, pts, _axis_shift(spec.dim, spec.N), _SKIPPABLE)
    max_dg = 0.0
    max_rep = 0.0
    if pt is not None:
        based, bases = _each_point(lambda Q: (np.asarray(basis_field(Q[0]), dtype=float)[None],), pts[keep], _SKIPPABLE)
        keep[keep] = based
        if bases:
            B = bases[0]
            Pstar_I = (pt.V_I @ pt.Ginv @ pt.gV.transpose(0, 2, 1)).transpose(0, 2, 1)  # P_I^T, P_I = V_I G^-1 (g V_I)^T
            rep = B.swapaxes(-1, -2) @ Pstar_I[based] @ np.linalg.inv(B).swapaxes(-1, -2)
            max_rep = float(np.abs(rep - rep[0]).max())
            ginv = np.linalg.inv(pt.g)[based][:, None]
            max_dg = float(np.abs(ginv @ pt.dg[based] @ ginv).max(initial=0.0))
    evaluated = int(keep.sum())
    return SufficiencyReport(
        declared_flat=declared_flat,
        metric_control_dependence=ConditionResult(
            name="inverse metric independent of controls",
            passed=evaluated > 0 and max_dg <= _METRIC_TOL,
            observed=max_dg,
            tol=_METRIC_TOL,
        ),
        representation_constancy=ConditionResult(
            name="free coprojection constant in model basis",
            passed=evaluated > 0 and max_rep <= _REPRESENTATION_TOL,
            observed=max_rep,
            tol=_REPRESENTATION_TOL,
        ),
        sample_count=evaluated,
    )


def leaf_metric_derivative(spec: SystemSpec, q: Array, v: Array, w: Array) -> float:
    """Directional derivative along ``w`` of the lifted-velocity energy.

    Differentiates ``E(q) = g_q[h_q v, h_q v]`` along the free-block vector
    ``w`` in closed form, off the frame's point half with derivatives along
    ``w`` alone: ``z = h v`` is ``g``-orthogonal to block I, so
    ``dE[w] = z^T (d_w g) z - 2 (g z)[d] . A_d^-1 (d_w Om) z``.
    For Euclidean charts its vanishing for all ``(v, w)`` everywhere is the
    leaf-distance restatement of the Psi scan.  ``w`` must lie in the free
    block, ``|P_I w - w| <= _FREE_BLOCK_TOL (1 + |w|)``, or
    :class:`NotInDeltaCapGamma` is raised; a ``q``, ``v`` or ``w`` that is
    not finite or not of shape ``(N+M,)``, ``(M,)`` or ``(N+M,)`` raises
    ``ValueError``.
    """
    v = _finite_vector(np.atleast_1d(v), "v", spec.M)
    w = _finite_vector(w, "w", spec.dim)
    _, pt = _frame_stack(spec, _finite_vector(q, "q", spec.dim)[None], _complex_shift(w[None]))
    wnorm = float(np.abs(w).max())
    if wnorm == 0.0:
        return 0.0
    P_I = pt.V_I[0] @ pt.Ginv[0] @ pt.gV[0].T
    if float(np.abs(P_I @ w - w).max()) > _FREE_BLOCK_TOL * (1.0 + wnorm):
        raise NotInDeltaCapGamma("direction w is not a free-block tangent vector")
    z = pt.h[0] @ v
    gz_d = (pt.g[0] @ z)[pt.d[0]]
    return float(z @ pt.dg[0, 0] @ z - 2.0 * gz_d @ (pt.Ainv[0] @ (pt.dOm[0, 0] @ z)))
