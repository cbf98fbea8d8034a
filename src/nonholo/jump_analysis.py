"""Sampled diagnostics for tolerance of control jumps.

A system tolerates discontinuous controls exactly when its reduced momentum
equation has no term quadratic in the control rate, i.e. when the centrifugal
form ``Psi`` vanishes identically.  With no symbolic engine in scope the
predicate is operationalized as a max-norm scan over sampled configurations
and directions: verdict ``"fit"`` when the observed maximum stays below a
tolerance, ``"not-fit"`` when a concrete witness exceeds ten times it, and
``"inconclusive"`` in the gray band between (or when every sample failed).

Two independent scans must agree: :func:`psi_scan` probes ``Psi`` on unit
control rates, :func:`theta_on_III_scan` probes the quadratic momentum form
on the drive coprojection image — the same subspace reached through a
different parametrization.  :func:`sufficiency_check` evaluates the cheaper
structural conditions that imply fitness without scanning ``Psi`` itself,
and :func:`leaf_metric_derivative` measures the equivalent leaf-distance
signature one direction at a time.

Every diagnostic reads its derivatives from the coefficient tensors of
:mod:`nonholo.reduced_dynamics`; none differences the splitting itself.  The
scans and :func:`sufficiency_check` batch their sample points: the splitting
and the coefficient tensors of every point are built by one stacked kernel,
which calls each model callback once per stack, and every seed direction at
every point is evaluated by one broadcast contraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core_geometry import Array, SystemSpec, _block_ranks, _each_point, projection_set
from .errors import (
    ChartDomain,
    NotInDeltaCapGamma,
    RankDeficiency,
    SingularDenominator,
)
from .reduced_dynamics import (
    CoefficientTensors,
    _tensor_stack,
    centrifugal_psi,
    coefficient_tensors,
    theta_I_apply,
)

# verdict thresholds: fit at <= tol, not-fit at > 10 tol, gray band between
GRAY_FACTOR = 10.0


def worker_count() -> int:
    """Always 1: scans run on one thread.  Kept only for the benchmark harness, which checks it."""
    return 1


@dataclass
class BoxSampler:
    """Uniform configuration samples from an axis-aligned chart box.

    ``box`` has one ``(low, high)`` row per coordinate (all ``N + M`` of
    them, so the scan also varies the control value).  The generator state
    is owned by the sampler: reseeding reproduces the exact draw sequence.
    """

    box: Array
    seed: int = 0
    rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.box = np.asarray(self.box, dtype=float)
        if self.box.ndim != 2 or self.box.shape[1] != 2:
            raise ValueError(f"box must have shape (dim, 2), got {self.box.shape}")
        if np.any(self.box[:, 1] < self.box[:, 0]):
            raise ValueError("box upper bounds must dominate lower bounds")
        self.rng = np.random.default_rng(self.seed)

    def points(self, n: int) -> Array:
        return self.rng.uniform(self.box[:, 0], self.box[:, 1], size=(n, self.box.shape[0]))

    def unit_directions(self, dim: int, count: int) -> Array:
        """``count`` independent uniform directions on the unit sphere."""
        vecs = self.rng.standard_normal((count, dim))
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        # resample the (measure-zero) degenerate rows rather than dividing by ~0
        while np.any(norms < 1e-12):
            bad = norms[:, 0] < 1e-12
            vecs[bad] = self.rng.standard_normal((int(bad.sum()), dim))
            norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        return vecs / norms


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
    evaluate: Callable[[Array, CoefficientTensors, Array, Array], tuple[Array, Array]],
    seed_dim: int,
) -> FitnessReport:
    """Shared scan driver: sample points, try directions, aggregate the max.

    The coefficient tensors of all points are built at once; a point whose
    callbacks raise a skippable error or whose constraint block loses rank
    is dropped and counted in ``failures``.  Each remaining point gets the
    ``spec.M`` canonical control-rate seeds plus ``2 * spec.M`` random unit
    draws of dimension ``seed_dim``.  ``evaluate(Q, T, canonical, random)``
    takes the points, their stacked tensors and the two seed stacks (shapes
    ``(M, S, M)`` and ``(2M, S, seed_dim)``) and returns the values and the
    directions used, with shapes ``(3M, S)`` and ``(3M, S, d)``.  Per point
    and then across points, the first seed and point reaching the maximum
    win; the reported direction's largest-magnitude entry is made positive.
    """
    M = spec.M
    pts = sampler.points(n_samples)
    rand_dirs = sampler.unit_directions(seed_dim, 2 * M * n_samples)
    keep, T = _tensor_stack(spec, pts, skip=_SKIPPABLE)
    evaluated = int(keep.sum())

    max_value = 0.0
    worst_point = None
    worst_dir = None
    # without controls (M = 0) there are no seeds: nothing can be nonzero
    if evaluated and M:
        canonical = np.broadcast_to(np.eye(M)[:, None, :], (M, evaluated, M))
        random = rand_dirs.reshape(n_samples, 2 * M, seed_dim)[keep].swapaxes(0, 1)
        values, used = evaluate(pts[keep], T, canonical, random)
        best = values.argmax(axis=0)
        point_max = values[best, np.arange(evaluated)]
        i = int(point_max.argmax())
        max_value, worst_point, worst_dir = float(point_max[i]), pts[keep][i], used[best[i], i]
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
    models.
    """

    def evaluate(Q: Array, T: CoefficientTensors, canonical: Array, random: Array) -> tuple[Array, Array]:
        e = np.concatenate([canonical, random])
        return np.abs(centrifugal_psi(spec, Q, e, tensors=T)).max(axis=-1), e

    return _scan(spec, sampler, n_samples, tol, "Psi", evaluate, spec.M)


def theta_on_III_scan(
    spec: SystemSpec,
    sampler: BoxSampler,
    n_samples: int = 500,
    tol: float = 1e-7,
) -> FitnessReport:
    """Scan the quadratic momentum form on the drive coprojection image.

    Canonical control-rate seeds ``e`` enter as ``w = Pstar_III @ (k @ e)``;
    random seeds are full ambient covectors squeezed through ``Pstar_III``.
    Each ``w`` is normalized to unit length before evaluating
    ``theta_I[w, w]``, so tolerances are comparable with :func:`psi_scan` —
    the two predicates test the same subspace through different
    parametrizations and their verdicts must agree on every model.  A ``w``
    shorter than ``1e-12`` scores 0 and is reported unnormalized.
    """
    M = spec.M

    def evaluate(Q: Array, T: CoefficientTensors, canonical: Array, random: Array) -> tuple[Array, Array]:
        P = T.projections

        def apply(A: Array, v: Array) -> Array:
            return (A @ v[..., None])[..., 0]

        w = np.concatenate([apply(P.k, e) if e.shape[-1] == M else e for e in (canonical, random)])
        w = apply(P.Pstar_III, w)
        norm = np.linalg.norm(w, axis=-1)
        short = norm < 1e-12
        w = w / np.where(short, 1.0, norm)[..., None]
        values = np.abs(theta_I_apply(spec, Q, w, w, tensors=T)).max(axis=-1)
        return np.where(short, 0.0, values), w

    return _scan(spec, sampler, n_samples, tol, "theta_on_III", evaluate, spec.dim)


def sufficiency_check(
    spec: SystemSpec,
    basis_field: Callable[[Array], Array],
    sampler: BoxSampler,
    n_samples: int = 100,
    declared_flat: bool = False,
    metric_tol: float = 1e-10,
    representation_tol: float = 1e-9,
) -> SufficiencyReport:
    """Evaluate the structural conditions that imply jump fitness.

    Measured over sampled points, from one stack of coefficient tensors:

    * control independence of the inverse metric — the max absolute entry
      of its derivatives ``dginv`` along the controlled coordinates;
    * constancy of the free coprojection in the supplied basis — the matrix
      ``B(q)^T Pstar_I(q) B(q)^{-T}`` compared across samples (max deviation
      from the first sample; pairwise deviations are at most twice that).

    The flatness of the complement of the controlled directions is accepted
    as ``declared_flat`` — it is a model-level declaration, not computed.
    Samples are skipped as in the scans, and also where a block of the
    splitting has the wrong rank or ``basis_field`` raises a skippable error.
    """
    pts = sampler.points(n_samples)
    keep, T = _tensor_stack(spec, pts, skip=_SKIPPABLE)
    max_dg = 0.0
    max_rep = 0.0
    if T is not None:
        P = T.projections
        ok = _block_ranks(spec, pts[keep], P, skip=_SKIPPABLE)
        based, bases = _each_point(lambda Q: (np.asarray(basis_field(Q[0]), dtype=float)[None],), pts[keep][ok], _SKIPPABLE)
        ok[ok] = based
        keep[keep] = ok
        if bases:
            B = bases[0]
            rep = B.swapaxes(-1, -2) @ P.Pstar_I[ok] @ np.linalg.inv(B).swapaxes(-1, -2)
            max_rep = float(np.abs(rep - rep[0]).max())
            max_dg = float(np.abs(T.dginv[ok][:, spec.N :]).max(initial=0.0))
    evaluated = int(keep.sum())
    return SufficiencyReport(
        declared_flat=declared_flat,
        metric_control_dependence=ConditionResult(
            name="inverse metric independent of controls",
            passed=evaluated > 0 and max_dg <= metric_tol,
            observed=max_dg,
            tol=metric_tol,
        ),
        representation_constancy=ConditionResult(
            name="free coprojection constant in model basis",
            passed=evaluated > 0 and max_rep <= representation_tol,
            observed=max_rep,
            tol=representation_tol,
        ),
        sample_count=evaluated,
    )


def leaf_metric_derivative(
    spec: SystemSpec,
    q: Array,
    v: Array,
    w: Array,
    tol: float = 1e-6,
) -> float:
    """Directional derivative along ``w`` of the lifted-velocity energy.

    Differentiates ``E(q) = g_q[h_q v, h_q v]`` along the free-block vector
    ``w`` in closed form from the coefficient tensors: with ``z = h v`` and
    ``g dh = dk - dg h``, ``dE[w] = sum_j w_j (2 z^T dk[j] v - z^T dg[j] z)``.
    For Euclidean charts its vanishing for all ``(v, w)`` everywhere is the
    leaf-distance restatement of the Psi scan.  ``w`` must lie in the free
    block (``P_I w = w``) or :class:`NotInDeltaCapGamma` is raised.
    """
    q = np.asarray(q, dtype=float)
    v = np.atleast_1d(np.asarray(v, dtype=float))
    w = np.asarray(w, dtype=float)
    P = projection_set(spec, q)
    wnorm = float(np.abs(w).max())
    if wnorm == 0.0:
        return 0.0
    if float(np.abs(P.P_I @ w - w).max()) > tol * (1.0 + wnorm):
        raise NotInDeltaCapGamma("direction w is not a free-block tangent vector")
    T = coefficient_tensors(spec, q, projections=P)
    z = P.h @ v
    dk = np.tensordot(w, T.dk, axes=1)
    dg = np.tensordot(w, T.dg, axes=1)
    return float(2.0 * z @ dk @ v - z @ dg @ z)
