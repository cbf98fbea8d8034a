"""Shared fixtures: model bundles, samplers, test systems and a relaxed hypothesis profile."""

import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from nonholo.core_geometry import SystemSpec, _best_pivots, _pivot_layouts, _projection_stack
from nonholo.models import ball_orthonormal_basis, build_model
from nonholo.reduced_dynamics import _tensors_from

settings.register_profile(
    "fd_heavy",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("fd_heavy")


@pytest.fixture(scope="session")
def racer():
    return build_model("roller-racer")


@pytest.fixture(scope="session")
def ball():
    return build_model("rolling-ball")


@pytest.fixture(scope="session")
def toy():
    return build_model("euclidean-toy")


@pytest.fixture(scope="session")
def toy_constrained():
    return build_model("euclidean-toy", constrained=True)


@pytest.fixture()
def caller_ignores_complex_warning():
    """Run the test under a caller's ``simplefilter("ignore", ComplexWarning)``, and yield that filter list.

    pyproject's ``error::ComplexWarning`` filter would otherwise turn every
    dropped imaginary part into an exception by itself, and hide a code path
    that misses the library's own complex-safety guard.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", np.exceptions.ComplexWarning)
        yield list(warnings.filters)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


def stacked(fn):
    """The stacked callback of the per-point callback ``fn``: ``fn`` looped over the leading axes of ``q``.

    ``fn`` maps one point ``(n,)`` to one array; the result maps ``(..., n)``
    to those arrays stacked over the same leading axes, each one unchanged.
    """

    @functools.wraps(fn)
    def wrapper(q):
        q = np.asarray(q)
        if q.ndim == 1:
            return fn(q)
        out = np.array([fn(x) for x in q.reshape(-1, q.shape[-1])])
        return out.reshape(q.shape[:-1] + out.shape[1:])

    return wrapper


def counting_spec(spec, calls):
    """``spec`` whose callbacks count calls in ``calls[(name, "real" | "complex", q.shape)]``."""

    def wrap(name, fn):
        def wrapper(q):
            calls[name, "complex" if np.iscomplexobj(q) else "real", np.shape(q)] += 1
            return fn(q)

        return wrapper

    return dataclasses.replace(spec, metric=wrap("metric", spec.metric), omega=wrap("omega", spec.omega))


def counting_control(control, name="value"):
    """``control`` whose ``name`` (``value``, ``rate`` or ``accel``) records each time it is called at, and that list.

    A call on a column of times records each of its times.
    """
    calls = []
    fn = getattr(control, name)

    def counted(t):
        calls.extend(np.ravel(t).tolist())
        return fn(t)

    return dataclasses.replace(control, **{name: counted}), calls


def nan_derivative_spec(spec, name, q1_min=0.0):
    """``spec`` whose callback ``name`` keeps its values but has NaN imaginary parts where ``q1 > q1_min``.

    Only the complex-step rows of a stack (nonzero imaginary ``q``) change,
    so every value, and every test on values, stays as it was.
    """
    fn = getattr(spec, name)

    def wrapper(q):
        A = np.array(fn(q))
        if np.iscomplexobj(A):
            A.imag[(np.real(q[..., 0]) > q1_min) & (np.imag(q) != 0.0).any(axis=-1)] = np.nan
        return A

    return dataclasses.replace(spec, **{name: wrapper})


def nan_control_column_spec(spec):
    """``spec`` whose ``omega`` is NaN in the first control column, ``Om[..., N]``, and finite elsewhere.

    The constraint block ``Om[..., :N]`` keeps its values, so its rank test passes.
    """
    fn = spec.omega

    def omega(q):
        Om = np.array(fn(q))
        Om[..., spec.N] = np.nan
        return Om

    return dataclasses.replace(spec, omega=omega)


def sample_points(bundle, n, seed=0):
    """Uniform draws from the model's declared chart box."""
    gen = np.random.default_rng(seed)
    box = bundle.sample_box
    return gen.uniform(box[:, 0], box[:, 1], size=(n, box.shape[0]))


def tensor_stack(spec, Q, skip=()):
    """The coefficient tensors at every point of ``Q`` at once, as ``(keep, T)`` (``T`` is ``None`` when no point stayed).

    The stacked splitting with derivatives along every axis, and the
    closed-form tensors on it: :func:`~nonholo.reduced_dynamics.coefficient_tensors`
    over a stack.
    """
    keep, P, derivs = _projection_stack(spec, Q, np.eye(spec.dim), skip)
    return keep, None if P is None else _tensors_from(P, *derivs)


def best_pivot(spec, Om):
    """The index into ``core_geometry._pivot_layouts`` of the pivots best at the constraint forms ``Om``."""
    return int(_best_pivots(spec, Om[None])[0][0])


def frame_vectors(spec, Om, pivot):
    """The generic frame ``V[r] = I``, ``V[d] = -A_d^-1 Om[:, r]`` of pivot layout ``pivot`` at ``Om``, real or complex.

    Built as the Maggi point half builds it, but also on complex forms, whose
    complex step is then the frame's derivative.
    """
    subsets, others, bases = _pivot_layouts(spec.N, spec.nu, spec.dim)
    d, r = subsets[pivot], others[pivot]
    V = bases[pivot].astype(Om.dtype)
    V[d] = -np.linalg.inv(Om[:, d]) @ Om[:, r]
    return V


def generic_free_block(spec, q):
    """``V_I``, the free block of the generic frame whose pivots are best at ``q``."""
    Om = spec.omega(np.asarray(q, dtype=float))
    return frame_vectors(spec, Om, best_pivot(spec, Om))[:, : spec.N - spec.nu]


def ball_free_block(ball, q):
    """The rolling ball's free block as its hand-written frame had it: unit spins, two with the rolling translation."""
    V = ball_orthonormal_basis(ball.params, q)[:, :3].copy()
    rk = ball.params.radius / math.sqrt(ball.params.gyration2)
    V[4, 0] = rk
    V[3, 1] = -rk
    return V


def check_projection_algebra(spec, P, atol=1e-10):
    """Assert the defining algebra of the three-way splitting at one point."""
    n = spec.dim
    eye = np.eye(n)
    assert np.abs(P.P_I + P.P_II + P.P_III - eye).max() < atol
    for A in (P.P_I, P.P_II, P.P_III):
        assert np.abs(A @ A - A).max() < atol
    # mutual annihilation and metric self-adjointness
    assert np.abs(P.P_I @ P.P_II).max() < atol
    assert np.abs(P.P_II @ P.P_III).max() < atol
    assert np.abs(P.P_III @ P.P_I).max() < atol
    for A in (P.P_I, P.P_II, P.P_III):
        gA = P.g @ A
        assert np.abs(gA - gA.T).max() < atol * (1.0 + np.abs(P.g).max())
    # coprojections are metric conjugates (and transposes)
    for A, As in ((P.P_I, P.Pstar_I), (P.P_II, P.Pstar_II), (P.P_III, P.Pstar_III)):
        assert np.abs(As - A.T).max() < atol * (1.0 + np.abs(A).max())
    ranks = tuple(int(round(np.trace(A))) for A in (P.P_I, P.P_II, P.P_III))
    assert ranks == (spec.N - spec.nu, spec.nu, spec.M)


# 4x4 Hadamard matrix over two: orthogonal, with entries exact in binary
HADAMARD4 = 0.5 * np.array(
    [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float
)


def random_system(seed, N=3, M=2, nu=1, curved=True):
    """A smooth random system: SPD metric and full-rank constraint forms.

    The metric and forms are built from fixed random tensors contracted with
    bounded trig functions of q, so they are smooth, uniformly SPD, and
    generically q-dependent (set ``curved=False`` for constant data).  Both
    are complex-safe: analytic in q, with dtypes that follow it.
    """
    gen = np.random.default_rng(seed)
    n = N + M
    A = gen.standard_normal((n, n))
    base = A @ A.T + n * np.eye(n)
    bump = gen.standard_normal((n, n))
    bump = 0.1 * (bump + bump.T)
    # orthonormal constraint rows keep the conditioning seed-independent
    rows = np.linalg.qr(gen.standard_normal((N, nu)))[0].T
    wiggle = gen.standard_normal((nu, n))
    tail = gen.standard_normal((nu, M))

    @stacked
    def metric(q):
        if not curved:
            return base.copy()
        return base + np.sin(q[0] + 0.7) * bump

    @stacked
    def omega(q):
        Om = np.zeros((nu, n), dtype=np.result_type(q, float))
        Om[:, :N] = rows
        if curved:
            Om[:, :N] = rows * (1.0 + 0.3 * np.cos(q[-1]))
            Om[:, N:] = 0.2 * tail * np.sin(q[0])
        phase = 0.1 * np.sin(q[:N].sum()) if curved else 0.0
        Om[:, 0] += phase * wiggle[:, 0]
        return Om

    return SystemSpec(N=N, M=M, nu=nu, metric=metric, omega=omega)


def near_singular_system(eps, nu):
    """A system whose constraint block has smallest singular value ``eps``.

    In passive coordinates ``y`` with ``x = HADAMARD4 @ y`` the metric is
    ``diag(1, 2, 3, 4, 5)`` and the forms are ``dy1 + du`` (``nu = 2`` only)
    and ``eps dy2 + du``, so every input is exact in floating point and the
    answer is known: block I is spanned by the ``y`` axes the forms leave
    free, and the lift of a unit control rate is ``-e_y2 / eps + e_u`` (minus
    ``e_y1`` when ``nu = 2``).  Returns ``(spec, h, P_I)`` in ``x``
    coordinates.
    """
    T = np.eye(5)
    T[:4, :4] = HADAMARD4
    g = T @ np.diag([1.0, 2.0, 3.0, 4.0, 5.0]) @ T.T
    Om_y = np.zeros((nu, 5))
    Om_y[-1, 1] = eps
    Om_y[:, 4] = 1.0
    h_y = np.zeros((5, 1))
    h_y[1, 0] = -1.0 / eps
    h_y[4, 0] = 1.0
    free_y = np.diag([1.0, 0.0, 1.0, 1.0, 0.0])
    if nu == 2:
        Om_y[0, 0] = 1.0
        h_y[0, 0] = -1.0
        free_y[0, 0] = 0.0
    Om = Om_y @ T.T
    spec = SystemSpec(N=4, M=1, nu=nu, metric=stacked(lambda q: g.copy()), omega=stacked(lambda q: Om.copy()))
    return spec, T @ h_y, T @ free_y @ T.T
