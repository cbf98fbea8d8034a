"""Command-line surface: simulations, fitness scans, oracle comparisons, sweeps.

Configuration is a flat ``key = value`` text file with dotted sections
(``model.*``, ``control.*``, ``integrator.*``, ...); see the example configs
shipped with the package.  Every randomized command takes an explicit seed
(default 0) and is bit-for-bit reproducible: rerunning with the same config
and seed yields byte-identical output files.  Fitness scans batch their
sample points through one stacked splitting-and-tensor kernel.

Exit codes are a stable contract::

    0  success (check-fit: verdict "fit"; oracle-compare: deviation <= tol)
    1  configuration error (message names the file, line, or missing key)
    2  step rejected by the integrator's residual guards, or a
       vibrate.steps_per_period under 20
    3  model, chart, or rank errors
    4  check-fit: verdict "not-fit" (witness printed);
       oracle-compare: deviation above tolerance
    5  check-fit: verdict "inconclusive"
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, NonholoError, StepRejected
from .jump_analysis import BoxSampler, psi_scan, sufficiency_check, theta_on_III_scan
from .models import ModelBundle, build_model
from .reduced_dynamics import ControlSignal, _closed_rhs
from .simulate import IntegratorConfig, integrate, oscillation_sweep


@dataclass(frozen=True)
class RunConfig:
    """Parsed flat config: dotted keys to raw string values, plus the file path."""

    path: str
    values: dict[str, str]

    def get_str(self, key: str, default: Optional[str] = None, required: bool = False) -> Optional[str]:
        if key in self.values:
            return self.values[key]
        if required:
            raise ConfigError(f"{self.path}: missing required key '{key}'")
        return default

    def _number(self, key: str, text: str, raw: str) -> float:
        """``text`` (``raw`` or one entry of it) as a finite float."""
        try:
            value = float(text)
        except ValueError:
            raise ConfigError(f"{self.path}: key '{key}' has non-numeric value {raw!r}") from None
        if not np.isfinite(value):
            raise ConfigError(f"{self.path}: key '{key}' has non-finite value {raw!r}")
        return value

    def get_float(self, key: str, default: Optional[float] = None, required: bool = False) -> Optional[float]:
        raw = self.get_str(key, required=required)
        return default if raw is None else self._number(key, raw, raw)

    def get_int(self, key: str, default: Optional[int] = None, required: bool = False) -> Optional[int]:
        raw = self.get_str(key, required=required)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{self.path}: key '{key}' has non-integer value {raw!r}") from None

    def get_floats(self, key: str, default: Optional[list] = None, required: bool = False) -> Optional[np.ndarray]:
        raw = self.get_str(key, required=required)
        if raw is None:
            return None if default is None else np.asarray(default, dtype=float)
        return np.array([self._number(key, part, raw) for part in raw.split(",") if part.strip() != ""])


def parse_config(path: str) -> RunConfig:
    """Read a flat ``key = value`` file; errors carry the offending line."""
    values: dict[str, str] = {}
    seen_line: dict[str, int] = {}
    try:
        with open(path, "r") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        value = raw.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in seen_line:
            raise ConfigError(f"{path}:{lineno}: duplicate key '{key}' (first set on line {seen_line[key]})")
        seen_line[key] = lineno
        values[key] = value
    return RunConfig(path=path, values=values)


def _literal(raw: str):
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def model_from_config(cfg: RunConfig) -> ModelBundle:
    """Instantiate ``model.name`` passing every other ``model.*`` key through."""
    name = cfg.get_str("model.name", required=True)
    options = {
        key.split(".", 1)[1]: _literal(raw)
        for key, raw in cfg.values.items()
        if key.startswith("model.") and key != "model.name"
    }
    return build_model(name, **options)


#: per control family, the ``control.*`` keys whose entries give the channel count;
#: a paired family's two keys are split at ``/``
_CHANNEL_KEYS = {
    "constant": "value", "polynomial": "coeffs", "linear": "value/rate",
    "sinusoid": "mean/amp", "dither": "center/gain", "ramp": "start/end",
}


def _control_pair(cfg: RunConfig, family: str) -> tuple[np.ndarray, np.ndarray]:
    """The two per-channel arrays of a paired control family; their lengths must match, or one be 1."""
    keys = ["control." + name for name in _CHANNEL_KEYS[family].split("/")]
    a, b = (cfg.get_floats(key, required=True) for key in keys)
    if len(a) != len(b) and 1 not in (len(a), len(b)):
        msg = f"keys '{keys[0]}' and '{keys[1]}' have {len(a)} and {len(b)} entries; they must match, or one have one"
        raise ConfigError(f"{cfg.path}: {msg}")
    return a, b


def control_from_config(cfg: RunConfig) -> ControlSignal:
    """Build the control trajectory from the ``control.*`` section."""
    family = cfg.get_str("control.family", required=True)
    if family == "constant":
        return ControlSignal.constant(cfg.get_floats("control.value", required=True))
    if family == "polynomial":
        return ControlSignal.polynomial(
            cfg.get_floats("control.coeffs", required=True),
            t0=cfg.get_float("control.t0", 0.0),
        )
    if family == "linear":
        return ControlSignal.linear(*_control_pair(cfg, family), t0=cfg.get_float("control.t0", 0.0))
    if family == "sinusoid":
        return ControlSignal.sinusoid(
            *_control_pair(cfg, family),
            omega=cfg.get_float("control.omega", required=True),
            phase=cfg.get_float("control.phase", 0.0),
        )
    if family == "dither":
        center, gain = _control_pair(cfg, family)
        eps = cfg.get_float("control.eps", required=True)
        if not eps > 0.0:
            raise ConfigError(f"{cfg.path}: key 'control.eps' must be positive, got {eps!r}")
        return ControlSignal.dither(center, gain, eps=eps)
    if family == "ramp":
        duration = cfg.get_float("control.duration", required=True)
        if not duration > 0.0:
            raise ConfigError(f"{cfg.path}: key 'control.duration' must be positive, got {duration!r}")
        return ControlSignal.ramp(*_control_pair(cfg, family), t0=cfg.get_float("control.t0", 0.0), duration=duration)
    raise ConfigError(
        f"{cfg.path}: key 'control.family' has unknown value {family!r} "
        "(expected constant|polynomial|linear|sinusoid|dither|ramp)"
    )


#: fewest integrator steps over a control's own timescale (``simulate``) or a fast period (``vibrate``)
MIN_STEPS_PER_PERIOD = 20

#: per control family with a timescale of its own, the key that sets it and the timescale from its value
_TIMESCALES = {
    "sinusoid": ("omega", lambda omega: 2.0 * np.pi / abs(omega) if omega else np.inf),
    "dither": ("eps", lambda eps: 2.0 * np.pi * eps),
    "ramp": ("duration", lambda duration: duration),
}


def _check_control_resolved(cfg: RunConfig, dt: float) -> None:
    """Reject a control whose period (sinusoid, dither) or duration (ramp) spans fewer than 20 steps of ``dt``."""
    family = cfg.get_str("control.family")
    if family not in _TIMESCALES:
        return
    name, timescale = _TIMESCALES[family]
    key = "control." + name
    value = cfg.get_float(key, required=True)
    if timescale(value) < MIN_STEPS_PER_PERIOD * dt:
        raise ConfigError(
            f"{cfg.path}: key '{key}' = {value!r} gives a control timescale of {timescale(value):.3g}, "
            f"under {MIN_STEPS_PER_PERIOD} steps of integrator.dt = {dt!r}"
        )


def integrator_from_config(cfg: RunConfig) -> tuple[IntegratorConfig, tuple[float, float]]:
    try:
        config = IntegratorConfig(
            dt=cfg.get_float("integrator.dt", required=True),
            representation=cfg.get_str("integrator.representation", "ambient"),
            hard_residual=cfg.get_float("integrator.hard_residual", 1e-3),
        )
    except ValueError as exc:
        # IntegratorConfig's messages lead with the offending field's name
        raise ConfigError(f"{cfg.path}: integrator.{exc}") from None
    t0 = cfg.get_float("integrator.t0", 0.0)
    t1 = cfg.get_float("integrator.t1", required=True)
    if not t1 > t0:
        raise ConfigError(f"{cfg.path}: key 'integrator.t1' must exceed integrator.t0 = {t0!r}, got {t1!r}")
    return config, (t0, t1)


def _sample_count(cfg: RunConfig, override: Optional[int], key: str, default: int) -> int:
    """``--samples`` when given, else ``key``; a negative count is a config error."""
    n = override if override is not None else cfg.get_int(key, default)
    if n < 0:
        source = "--samples" if override is not None else f"{cfg.path}: key '{key}'"
        raise ConfigError(f"{source} must be non-negative, got {n}")
    return n


def _tolerance(cfg: RunConfig, override: Optional[float], key: str, default: float) -> float:
    """``--tol`` when given, else ``key``; a tolerance that is not positive and finite is a config error."""
    tol = override if override is not None else cfg.get_float(key, default)
    if not 0.0 < tol < np.inf:
        source = "--tol" if override is not None else f"{cfg.path}: key '{key}'"
        raise ConfigError(f"{source} must be positive and finite, got {tol!r}")
    return tol


def cmd_simulate(cfg: RunConfig, out: str, seed: int) -> int:
    model = model_from_config(cfg)
    control = control_from_config(cfg)
    config, t_span = integrator_from_config(cfg)
    channels = np.atleast_1d(control.value(t_span[0])).shape[0]
    if channels != model.spec.M:
        key = "control." + _CHANNEL_KEYS[cfg.get_str("control.family")]
        raise ConfigError(f"{cfg.path}: key '{key}' gives {channels} control channels, model has M = {model.spec.M}")
    _check_control_resolved(cfg, config.dt)
    n = model.spec.dim
    q0 = cfg.get_floats("initial.q")
    q0 = np.array(model.default_q0, dtype=float) if q0 is None else q0
    if q0.shape != (n,):
        raise ConfigError(f"{cfg.path}: key 'initial.q' needs {n} entries, got {q0.shape[0]}")
    p0 = cfg.get_floats("initial.p")
    p0 = np.zeros(n) if p0 is None else p0
    if p0.shape != (n,):
        raise ConfigError(f"{cfg.path}: key 'initial.p' needs {n} entries, got {p0.shape[0]}")
    traj = integrate(model.spec, q0, p0, control, t_span, config)
    traj.to_csv(out)
    print(f"simulate: {len(traj)} samples over t = {t_span[0]}..{t_span[1]} -> {out}")
    return 0


def cmd_check_fit(cfg: RunConfig, out: str, seed: int, samples: Optional[int], tol: Optional[float]) -> int:
    model = model_from_config(cfg)
    n_samples = _sample_count(cfg, samples, "scan.samples", 500)
    scan_tol = _tolerance(cfg, tol, "scan.tol", 1e-7)
    box = model.sample_box
    psi = psi_scan(model.spec, BoxSampler(box, seed=seed), n_samples=n_samples, tol=scan_tol)
    theta = theta_on_III_scan(model.spec, BoxSampler(box, seed=seed + 1), n_samples=n_samples, tol=scan_tol)
    if model.constancy_basis is not None:
        structural = sufficiency_check(
            model.spec,
            model.constancy_basis,
            BoxSampler(box, seed=seed + 2),
            n_samples=min(100, n_samples),
            declared_flat=model.declared_flat,
        )
        psi = dataclasses.replace(psi, structural=structural)
    text = psi.to_text() + theta.to_text()
    agree = psi.verdict == theta.verdict
    if not agree:
        text += "WARNING: scan verdicts disagree; treating as inconclusive\n"
    with open(out, "w") as fh:
        fh.write(text)
    print(text, end="")
    if not agree:
        return 5
    if psi.verdict == "fit":
        return 0
    if psi.verdict == "not-fit":
        return 4
    return 5


def cmd_oracle_compare(cfg: RunConfig, out: str, seed: int, samples: Optional[int], tol: Optional[float]) -> int:
    model = model_from_config(cfg)
    if model.closed_field is None or model.extract_closed is None:
        raise NonholoError(f"model {model.name!r} has no closed-form oracle to compare against")
    n_samples = _sample_count(cfg, samples, "oracle.samples", 100)
    dev_tol = _tolerance(cfg, tol, "oracle.tol", 1e-5)
    rng = np.random.default_rng(seed)
    box = model.sample_box
    spec = model.spec

    max_dev = 0.0
    worst = None
    resampled = 0
    drawn = 0
    while drawn < n_samples:
        q = rng.uniform(box[:, 0], box[:, 1])
        xi = float(rng.uniform(-1.0, 1.0))
        udot = float(rng.uniform(-1.0, 1.0))
        control = ControlSignal.linear(q[spec.N :], np.full(spec.M, udot))
        try:
            # the generic pipeline, in the closed form's velocity coordinates
            got = _closed_rhs(spec, model.extract_closed, q, xi, 0.0, control)
            ref = model.closed_field(control)(0.0, np.append(q[: spec.N], xi))
        except NonholoError:
            # singular or off-chart draw: log and replace it
            resampled += 1
            if resampled > 50 * max(1, n_samples):
                raise
            continue
        drawn += 1
        dev = float(np.abs(got - ref).max()) / (1.0 + float(np.abs(ref).max()))
        if dev > max_dev or worst is None:
            max_dev, worst = dev, q
    lines = [f"oracle comparison: model {model.name}, {drawn} samples, seed {seed}"]
    if resampled:
        lines.append(f"resampled {resampled} singular draws")
    if drawn == 0:
        lines.append("WARNING: no samples requested; nothing compared")
    else:
        lines.append(f"max relative deviation: {max_dev!r}")
        lines.append("worst point: [" + ", ".join(repr(float(x)) for x in worst) + "]")
    ok = drawn == 0 or max_dev <= dev_tol
    lines.append(f"tolerance: {dev_tol!r} -> {'PASS' if ok else 'FAIL'}")
    text = "\n".join(lines) + "\n"
    with open(out, "w") as fh:
        fh.write(text)
    print(text, end="")
    return 0 if ok else 4


def cmd_vibrate(cfg: RunConfig, out: str, seed: int) -> int:
    model = model_from_config(cfg)
    if model.extract_closed is None:
        raise NonholoError(f"model {model.name!r} has no closed-form reduced state")
    u_bar = cfg.get_float("vibrate.u_bar", 0.0)
    K = cfg.get_float("vibrate.K", 1.0)
    eps_list = cfg.get_floats("vibrate.eps_list", default=[0.1, 0.05, 0.025])
    if not np.all(eps_list > 0.0):
        raise ConfigError(f"{cfg.path}: key 'vibrate.eps_list' needs positive entries, got {eps_list.tolist()}")
    horizon = cfg.get_float("vibrate.horizon", float(np.pi))
    if not horizon > 0.0:
        raise ConfigError(f"{cfg.path}: key 'vibrate.horizon' must be positive, got {horizon!r}")
    steps = cfg.get_int("vibrate.steps_per_period", 50)
    if steps < MIN_STEPS_PER_PERIOD:
        raise StepRejected(
            f"vibrate.steps_per_period = {steps} resolves the fast phase too coarsely (need >= {MIN_STEPS_PER_PERIOD})"
        )
    y0 = cfg.get_floats("initial.y")
    if y0 is None:
        q0 = np.array(model.default_q0, dtype=float)
        q0[model.spec.N :] = u_bar
        y0 = model.extract_closed(q0, np.zeros(model.spec.dim))
    if y0.shape != (model.closed_dim,):
        raise ConfigError(f"{cfg.path}: key 'initial.y' needs {model.closed_dim} entries, got {y0.shape[0]}")
    sweep = oscillation_sweep(model, y0, u_bar, K, eps_list, horizon, steps_per_period=steps)
    text = sweep.to_text()
    with open(out, "w") as fh:
        fh.write(text)
    print(text, end="")
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="nonholo",
        description="Reduced dynamics of non-holonomic systems with actively controlled coordinates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "check-fit", "oracle-compare", "vibrate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="flat key = value config file")
        p.add_argument("--out", required=True, help="output CSV/report path")
        p.add_argument("--seed", type=int, default=0, help="seed for randomized draws (default 0)")
        if name in ("check-fit", "oracle-compare"):
            p.add_argument("--samples", type=int, default=None, help="sample count override")
            p.add_argument("--tol", type=float, default=None, help="tolerance override")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.out, args.seed)
        if args.command == "check-fit":
            return cmd_check_fit(cfg, args.out, args.seed, args.samples, args.tol)
        if args.command == "oracle-compare":
            return cmd_oracle_compare(cfg, args.out, args.seed, args.samples, args.tol)
        return cmd_vibrate(cfg, args.out, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except StepRejected as exc:
        print(f"step rejected: {exc}", file=sys.stderr)
        return 2
    except NonholoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
