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

Scans are embarrassingly parallel over sample points; set ``NONHOLO_THREADS``
to cap the worker pool.  Aggregation is order-independent, so results do not
depend on the worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core_geometry import (
    Array,
    Frame,
    SystemSpec,
    metric_at,
    metric_inverse_at,
    projection_set,
)
from .errors import (
    ChartDomain,
    NotInDeltaCapGamma,
    RankDeficiency,
    SingularDenominator,
)
from .reduced_dynamics import CoefficientTensors, centrifugal_psi, coefficient_tensors, theta_I_apply

# verdict thresholds: fit at <= tol, not-fit at > 10 tol, gray band between
GRAY_FACTOR = 10.0


def worker_count() -> int:
    """Worker-pool size for scans: ``NONHOLO_THREADS`` if set, else 1."""
    raw = os.environ.get("NONHOLO_THREADS", "")
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, n)


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

    def point(self) -> Array:
        return self.rng.uniform(self.box[:, 0], self.box[:, 1])

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
    evaluate: Callable[[Array, CoefficientTensors, Array], tuple[float, Array]],
    seed_dim: int,
) -> FitnessReport:
    """Shared scan driver: sample points, try directions, aggregate the max.

    Per point the coefficient tensors ``T`` are built once and shared by the
    seeds: the ``spec.M`` canonical control-rate directions plus
    ``2 * spec.M`` random unit draws of dimension ``seed_dim``.
    ``evaluate(q, T, e)`` returns ``(value, direction_used)``; it or the
    tensor build may raise a skippable error, voiding the whole point.  All
    random draws happen up front on one thread, so the worker count cannot
    change the outcome.
    """
    M = spec.M
    pts = sampler.points(n_samples)
    canonical = np.eye(M)
    rand_dirs = sampler.unit_directions(seed_dim, 2 * M * n_samples)

    def one_point(i: int):
        q = pts[i]
        best = -1.0
        best_dir = None
        try:
            T = coefficient_tensors(spec, q)
            seeds = list(canonical) + list(rand_dirs[2 * M * i : 2 * M * (i + 1)])
            for e in seeds:
                val, used = evaluate(q, T, e)
                if val > best:
                    best, best_dir = val, used
        except _SKIPPABLE:
            return None
        return best, q, best_dir

    workers = worker_count()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one_point, range(n_samples)))
    else:
        results = [one_point(i) for i in range(n_samples)]

    max_value = 0.0
    worst_point = None
    worst_dir = None
    failures = 0
    evaluated = 0
    for res in results:
        if res is None:
            failures += 1
            continue
        evaluated += 1
        val, q, e = res
        if val > max_value or worst_point is None:
            max_value, worst_point, worst_dir = val, q, e
    return FitnessReport(
        quantity=quantity,
        verdict=_verdict(max_value, tol, evaluated),
        max_value=max_value,
        tol=tol,
        sample_count=evaluated,
        failures=failures,
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

    def evaluate(q: Array, T: CoefficientTensors, e: Array) -> tuple[float, Array]:
        return float(np.abs(centrifugal_psi(spec, q, e, tensors=T)).max()), e

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
    parametrizations and their verdicts must agree on every model.
    """
    M = spec.M

    def evaluate(q: Array, T: CoefficientTensors, e: Array) -> tuple[float, Array]:
        P = T.projections
        w = P.Pstar_III @ (P.k @ e if e.shape[0] == M else e)
        norm = float(np.linalg.norm(w))
        if norm < 1e-12:
            return 0.0, w
        w = w / norm
        return float(np.abs(theta_I_apply(spec, q, w, w, tensors=T)).max()), w

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

    Measured over sampled points:

    * control independence of the inverse metric — the max absolute central
      difference of ``g^{-1}`` along each controlled coordinate;
    * constancy of the free coprojection in the supplied basis — the matrix
      ``B(q)^T Pstar_I(q) B(q)^{-T}`` compared across samples (max deviation
      from the first sample; pairwise deviations are at most twice that).

    The flatness of the complement of the controlled directions is accepted
    as ``declared_flat`` — it is a model-level declaration, not computed.
    Sample failures (rank/chart errors) are skipped as in the scans.
    """
    pts = sampler.points(n_samples)
    n = spec.dim
    max_dg = 0.0
    max_rep = 0.0
    rep_ref = None
    evaluated = 0
    for q in pts:
        try:
            P = projection_set(spec, q)
            B = np.asarray(basis_field(q), dtype=float)
            rep = B.T @ P.Pstar_I @ np.linalg.inv(B).T
            for alpha in range(spec.M):
                i = spec.N + alpha
                h = spec.fd_step * max(1.0, abs(float(q[i])))
                qp, qm = q.copy(), q.copy()
                qp[i] += h
                qm[i] -= h
                dg = (metric_inverse_at(spec, qp) - metric_inverse_at(spec, qm)) / (2.0 * h)
                max_dg = max(max_dg, float(np.abs(dg).max()))
        except _SKIPPABLE:
            continue
        evaluated += 1
        if rep_ref is None:
            rep_ref = rep
        else:
            max_rep = max(max_rep, float(np.abs(rep - rep_ref).max()))
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

    Differentiates ``q -> g_q[h_q v, h_q v]`` by central differences along the
    free-block vector ``w``; for Euclidean charts its vanishing for all
    ``(v, w)`` everywhere is the leaf-distance restatement of the Psi scan.
    ``w`` must lie in the free block (``P_I w = w``) or
    :class:`NotInDeltaCapGamma` is raised.
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

    def energy(point: Array) -> float:
        Pp = projection_set(spec, point, check=False)
        z = Pp.h @ v
        return float(z @ metric_at(spec, point) @ z)

    speed = float(np.linalg.norm(w))
    h = spec.fd_step * max(1.0, float(np.abs(q).max())) / speed
    return (energy(q + h * w) - energy(q - h * w)) / (2.0 * h)
