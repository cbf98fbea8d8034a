"""End-to-end command-line behaviour: config parsing and the exit-code contract."""

import csv
import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

from nonholo import cli
from nonholo.cli import (
    _check_control_resolved,
    control_from_config,
    integrator_from_config,
    main,
    model_from_config,
    parse_config,
    run,
)
from nonholo.errors import ConfigError
from nonholo.models import build_model
from nonholo.reduced_dynamics import ControlSignal

from conftest import nan_control_column_spec, nan_derivative_spec


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


RACER_SIM = """
model.name = roller-racer
control.family = constant
control.value = 0.3
integrator.dt = 1e-2
integrator.t1 = 0.05
initial.q = 0.0, 1.5707963267948966, 0.0, 0.3
"""


class TestParseConfig:
    def test_comments_blanks_and_spacing(self, tmp_path):
        cfg = parse_config(
            write_cfg(
                tmp_path,
                "# leading comment\n\nmodel.name = roller-racer\n  scan.tol=1e-7  \n",
            )
        )
        assert cfg.values == {"model.name": "roller-racer", "scan.tol": "1e-7"}

    def test_duplicate_key_cites_both_lines(self, tmp_path):
        path = write_cfg(tmp_path, "a.b = 1\n# gap\na.b = 2\n")
        with pytest.raises(ConfigError, match=r":3: duplicate key 'a.b' \(first set on line 1\)"):
            parse_config(path)

    def test_missing_equals_cites_line(self, tmp_path):
        path = write_cfg(tmp_path, "model.name roller-racer\n")
        with pytest.raises(ConfigError, match=":1:"):
            parse_config(path)

    def test_empty_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="empty key"):
            parse_config(write_cfg(tmp_path, "= 3\n"))

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(str(tmp_path / "absent.cfg"))

    def test_typed_getters(self, tmp_path):
        cfg = parse_config(
            write_cfg(
                tmp_path,
                "f = 2.5\ni = 7\nlist = 1, 2.5, -3\ns = hello\n",
            )
        )
        assert cfg.get_float("f") == 2.5
        assert cfg.get_int("i") == 7
        assert np.array_equal(cfg.get_floats("list"), [1.0, 2.5, -3.0])
        assert cfg.get_str("s") == "hello"
        assert cfg.get_float("absent", 9.0) == 9.0

    def test_getter_errors_name_key_and_file(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, "f = abc\n"))
        with pytest.raises(ConfigError, match="'f' has non-numeric"):
            cfg.get_float("f")
        with pytest.raises(ConfigError, match="missing required key 'g'"):
            cfg.get_float("g", required=True)

    def test_model_options_pass_through(self, tmp_path):
        cfg = parse_config(
            write_cfg(tmp_path, "model.name = roller-racer\nmodel.rho = 0.5\n")
        )
        bundle = model_from_config(cfg)
        assert bundle.params.rho == 0.5


class TestSimulateCommand:
    def test_simulate_writes_csv(self, tmp_path):
        cfg = write_cfg(tmp_path, RACER_SIM)
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 7  # header + 6 samples
        assert lines[0].startswith("t,q1,q2,q3,q4,pI_1")

    def test_simulate_frame_representation(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            RACER_SIM + "integrator.representation = frame\n",
        )
        out = tmp_path / "frame.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert ",xi_1," in out.read_text().splitlines()[0]

    def test_default_initial_state(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "model.name = roller-racer\ncontrol.family = constant\ncontrol.value = 0.0\n"
            "integrator.dt = 1e-2\nintegrator.t1 = 0.03\n",
        )
        out = tmp_path / "d.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0

    def test_wrong_initial_shape_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "model.name = roller-racer\ncontrol.family = constant\ncontrol.value = 0.0\n"
            "integrator.dt = 1e-2\nintegrator.t1 = 0.03\ninitial.q = 1, 2\n",
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
        assert "initial.q" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, key",
        [
            ("", "integrator.dt"),
            ("integrator.dt = 0.0\n", "integrator.dt"),
            ("integrator.dt = -1e-2\n", "integrator.dt"),
            ("integrator.dt = nan\n", "integrator.dt"),
            ("integrator.dt = 1e-2\nintegrator.representation = quaternion\n", "integrator.representation"),
            ("integrator.dt = 1e-2\nintegrator.t0 = 0.03\n", "integrator.t1"),
            ("integrator.dt = 1e-2\nintegrator.hard_residual = -1\n", "integrator.hard_residual"),
            ("integrator.dt = 1e-2\nintegrator.hard_residual = 0\n", "integrator.hard_residual"),
        ],
        ids=["dt-missing", "dt-zero", "dt-negative", "dt-nan", "representation", "empty-span", "hard-residual-negative", "hard-residual-zero"],
    )
    def test_bad_integrator_value_is_config_error(self, tmp_path, capsys, extra, key):
        cfg = write_cfg(
            tmp_path,
            "model.name = roller-racer\ncontrol.family = constant\ncontrol.value = 0.0\n"
            "integrator.t1 = 0.03\n" + extra,
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "control, key",
        [
            ("control.family = ramp\ncontrol.start = 0.0\ncontrol.end = 0.4\ncontrol.duration = 0\n", "control.duration"),
            ("control.family = constant\ncontrol.value = 0, 0\n", "control.value"),
            ("control.family = dither\ncontrol.center = 0\ncontrol.gain = 1\ncontrol.eps = 0\n", "control.eps"),
            ("control.family = dither\ncontrol.center = 0\ncontrol.gain = 1\ncontrol.eps = nan\n", "control.eps"),
            ("control.family = linear\ncontrol.value = 0, 0\ncontrol.rate = 1, 2, 3\n", "'control.value' and 'control.rate'"),
            (
                "control.family = sinusoid\ncontrol.mean = 0, 0\ncontrol.amp = 1, 2, 3\ncontrol.omega = 1\n",
                "'control.mean' and 'control.amp'",
            ),
            (
                "control.family = dither\ncontrol.center = 0, 0\ncontrol.gain = 1, 2, 3\ncontrol.eps = 0.1\n",
                "'control.center' and 'control.gain'",
            ),
            (
                "control.family = ramp\ncontrol.start = 0, 0\ncontrol.end = 1, 2, 3\ncontrol.duration = 1\n",
                "'control.start' and 'control.end'",
            ),
            ("control.family = polynomial\ncontrol.coeffs = ,\n", "key 'control.coeffs' has no entries"),
        ],
        ids=[
            "ramp-duration-zero",
            "too-many-channels",
            "dither-eps-zero",
            "dither-eps-nan",
            "linear-pair-lengths",
            "sinusoid-pair-lengths",
            "dither-pair-lengths",
            "ramp-pair-lengths",
            "polynomial-coeffs-empty",
        ],
    )
    def test_bad_control_value_is_config_error(self, tmp_path, capsys, control, key):
        cfg = write_cfg(tmp_path, "model.name = roller-racer\nintegrator.dt = 1e-2\nintegrator.t1 = 0.03\n" + control)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "control, key",
        [
            ("control.family = sinusoid\ncontrol.mean = 0\ncontrol.amp = 0.2\ncontrol.omega = -32\n", "control.omega"),
            ("control.family = dither\ncontrol.center = 0\ncontrol.gain = 1\ncontrol.eps = 0.03\n", "control.eps"),
            ("control.family = ramp\ncontrol.start = 0.0\ncontrol.end = 0.4\ncontrol.duration = 0.19\n", "control.duration"),
        ],
        ids=["sinusoid", "dither", "ramp"],
    )
    def test_under_resolved_control_is_config_error(self, tmp_path, capsys, control, key):
        """A control timescale under 20 steps of dt (period 0.196, 0.188; duration 0.19 at dt 1e-2) is refused."""
        cfg = write_cfg(tmp_path, "model.name = roller-racer\nintegrator.dt = 1e-2\nintegrator.t1 = 0.03\n" + control)
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"key '{key}'" in err and "20 steps" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "control",
        [
            "control.family = sinusoid\ncontrol.mean = 0\ncontrol.amp = 0.02\ncontrol.omega = -31\n",
            "control.family = dither\ncontrol.center = 0\ncontrol.gain = 1\ncontrol.eps = 0.032\n",
            "control.family = ramp\ncontrol.start = 0.0\ncontrol.end = 0.4\ncontrol.duration = 0.2\n",
            "control.family = sinusoid\ncontrol.mean = 0\ncontrol.amp = 0.2\ncontrol.omega = 0\n",
        ],
        ids=["sinusoid", "dither", "ramp", "sinusoid-still"],
    )
    def test_resolved_control_runs(self, tmp_path, control):
        """Just at or above 20 steps of dt per timescale (period 0.203, 0.201; duration 0.2) the run goes ahead."""
        cfg = write_cfg(tmp_path, "model.name = roller-racer\nintegrator.dt = 1e-2\nintegrator.t1 = 0.03\n" + control)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 0

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "key, text",
        [
            ("control.value", "control.family = constant\ncontrol.value = {v}\n"),
            ("control.omega", "control.family = sinusoid\ncontrol.mean = 0\ncontrol.amp = 0.2\ncontrol.omega = {v}\n"),
            ("initial.q", "control.family = constant\ncontrol.value = 0.3\ninitial.q = {v}, 1.5707963267948966, 0.0, 0.3\n"),
            ("initial.p", "control.family = constant\ncontrol.value = 0.3\ninitial.p = {v}, 0.0, 0.0, 0.0\n"),
        ],
        ids=["control.value", "control.omega", "initial.q", "initial.p"],
    )
    def test_non_finite_value_is_config_error(self, tmp_path, capsys, key, text, value):
        cfg = write_cfg(tmp_path, "model.name = roller-racer\nintegrator.dt = 1e-2\nintegrator.t1 = 0.03\n" + text.format(v=value))
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"key '{key}'" in err and "non-finite" in err
        assert not out.exists()

    def test_unknown_model_is_model_error(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "model.name = unicycle\ncontrol.family = constant\ncontrol.value = 0\n"
            "integrator.dt = 1e-2\nintegrator.t1 = 0.03\n",
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 3
        assert "unicycle" in capsys.readouterr().err

    def test_options_that_break_the_spec_are_a_model_error(self, tmp_path, capsys):
        """A builder's ``ValueError`` (here from ``SystemSpec``) exits 3 with the options named, as its ``TypeError`` does."""
        cfg = write_cfg(tmp_path, "model.name = euclidean-toy\nmodel.n_passive = 0\nmodel.constrained = true\n")
        assert main(["check-fit", "--config", cfg, "--out", str(tmp_path / "x.txt"), "--samples", "5"]) == 3
        err = capsys.readouterr().err
        assert "bad options for model 'euclidean-toy'" in err and "transversality needs nu <= N" in err

    @pytest.mark.parametrize("model, option, value", [
        ("roller-racer", "rho", "abc"),
        ("rolling-ball", "radius", "true"),
        ("euclidean-toy", "constrained", "yes"),
    ])
    def test_mistyped_option_is_a_model_error_naming_it(self, tmp_path, capsys, model, option, value):
        """A string option, or a boolean for a numeric one, exits 3 naming the option.

        ``rho = abc`` used to reach the callbacks and be blamed on them (not
        complex-safe); ``radius = true`` ran as radius 1.0.
        """
        cfg = write_cfg(tmp_path, f"model.name = {model}\nmodel.{option} = {value}\n")
        assert main(["check-fit", "--config", cfg, "--out", str(tmp_path / "x.txt"), "--samples", "5"]) == 3
        err = capsys.readouterr().err
        assert f"bad options for model '{model}'" in err and f"{option} must be" in err

    def test_well_typed_options_still_build(self, tmp_path):
        """An integer for a float option and a boolean flag are accepted."""
        cfg = parse_config(write_cfg(tmp_path, "model.name = roller-racer\nmodel.inertia = 2\n"))
        assert model_from_config(cfg).params.inertia == 2
        cfg = parse_config(write_cfg(tmp_path, "model.name = euclidean-toy\nmodel.constrained = true\n", "toy.cfg"))
        assert model_from_config(cfg).spec.nu == 1

    def test_unknown_control_family(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "model.name = roller-racer\ncontrol.family = bangbang\n"
            "integrator.dt = 1e-2\nintegrator.t1 = 0.03\n",
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1

    def test_malformed_config_file(self, tmp_path):
        cfg = write_cfg(tmp_path, "no equals sign here\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1

    def test_hard_residual_maps_to_exit_2(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            RACER_SIM.replace("control.value = 0.3", "control.value = 0.3")
            + "integrator.hard_residual = 1e-17\ninitial.p = 0.19106729782512122, 0.17731212399680374, 0.0, 0.05910404133226791\n",
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2


#: per control family, a minimal ``control.*`` section and the direct constructor call it stands for
MINIMAL_CONTROLS = {
    "constant": ("control.value = 0.3, -0.2\n", lambda: ControlSignal.constant([0.3, -0.2])),
    "polynomial": ("control.coeffs = 0.3, -0.7, 0.2\n", lambda: ControlSignal.polynomial([0.3, -0.7, 0.2])),
    "linear": ("control.value = 0.3\ncontrol.rate = -0.7, 0.2\n", lambda: ControlSignal.linear([0.3], [-0.7, 0.2])),
    "sinusoid": (
        "control.mean = 0.3\ncontrol.amp = 0.4, 0.1\ncontrol.omega = 2.5\n",
        lambda: ControlSignal.sinusoid([0.3], [0.4, 0.1], omega=2.5),
    ),
    "dither": (
        "control.center = 0.3\ncontrol.gain = 1.5\ncontrol.eps = 0.1\n",
        lambda: ControlSignal.dither([0.3], [1.5], eps=0.1),
    ),
    "ramp": (
        "control.start = 0.3, 0.0\ncontrol.end = -0.4\ncontrol.duration = 0.8\n",
        lambda: ControlSignal.ramp([0.3, 0.0], [-0.4], t0=0.0, duration=0.8),
    ),
}


class TestControlFamilies:
    """Every family of ``cli._FAMILIES`` builds its constructor's control from its keys."""

    def test_every_family_has_a_minimal_control(self):
        assert list(MINIMAL_CONTROLS) == list(cli._FAMILIES)

    @pytest.mark.parametrize("family", list(cli._FAMILIES))
    def test_config_gives_the_constructor_bitwise(self, tmp_path, family):
        """``value``, ``rate`` and ``accel`` at ``t = 0``, ``0.37`` and on a column of five times (before, inside and
        after the ramp's window) are bitwise those of the direct constructor call."""
        text, direct = MINIMAL_CONTROLS[family]
        got = control_from_config(parse_config(write_cfg(tmp_path, f"control.family = {family}\n" + text)))
        ref = direct()
        for what in ("value", "rate", "accel"):
            for t in (0.0, 0.37, np.array([[-0.2], [0.0], [0.37], [0.8], [1.3]])):
                a, b = getattr(got, what)(t), getattr(ref, what)(t)
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), (what, t)

    def test_unknown_family_error_names_every_family(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, RACER_SIM.replace("control.family = constant", "control.family = bangbang"))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert "key 'control.family'" in err and all(name in err for name in cli._FAMILIES)


CHECKFIT = "model.name = {name}\n"


class TestCheckFitCommand:
    def test_ball_reports_fit(self, tmp_path):
        cfg = write_cfg(tmp_path, CHECKFIT.format(name="rolling-ball"))
        out = tmp_path / "fit.txt"
        code = main(["check-fit", "--config", cfg, "--out", str(out), "--samples", "20"])
        assert code == 0
        text = out.read_text()
        assert "verdict: fit" in text
        assert "structural sufficiency" in text
        assert "imply fitness" in text

    def test_racer_reports_not_fit(self, tmp_path):
        cfg = write_cfg(tmp_path, CHECKFIT.format(name="roller-racer"))
        out = tmp_path / "unfit.txt"
        code = main(["check-fit", "--config", cfg, "--out", str(out), "--samples", "20"])
        assert code == 4
        text = out.read_text()
        assert text.count("verdict: not-fit") == 2
        assert "worst point" in text

    def test_gray_tolerance_is_inconclusive(self, tmp_path):
        cfg = write_cfg(tmp_path, CHECKFIT.format(name="roller-racer"))
        out = tmp_path / "gray.txt"
        code = main(
            ["check-fit", "--config", cfg, "--out", str(out), "--samples", "20", "--tol", "0.2"]
        )
        assert code == 5
        assert "verdict: inconclusive" in out.read_text()

    def test_zero_samples_is_inconclusive(self, tmp_path):
        cfg = write_cfg(tmp_path, CHECKFIT.format(name="roller-racer"))
        code = main(
            ["check-fit", "--config", cfg, "--out", str(tmp_path / "z.txt"), "--samples", "0"]
        )
        assert code == 5

    @pytest.mark.parametrize(
        "text, args, key",
        [
            ("", ["--samples", "-3"], "--samples"),
            ("scan.samples = -3\n", [], "scan.samples"),
        ],
        ids=["option", "key"],
    )
    def test_negative_samples_is_config_error(self, tmp_path, capsys, text, args, key):
        cfg = write_cfg(tmp_path, CHECKFIT.format(name="roller-racer") + text)
        code = main(["check-fit", "--config", cfg, "--out", str(tmp_path / "n.txt"), *args])
        assert code == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "n.txt").exists()

    @pytest.mark.parametrize("value", ["-1", "0", "nan"], ids=["negative", "zero", "nan"])
    @pytest.mark.parametrize("source", ["option", "key"])
    def test_bad_tolerance_is_config_error(self, tmp_path, capsys, source, value):
        """A tolerance must be positive and finite; a negative one made the fit ball "not fit"."""
        text, args, name = (
            ("", ["--tol", value], "--tol") if source == "option" else (f"scan.tol = {value}\n", [], "scan.tol")
        )
        cfg = write_cfg(tmp_path, CHECKFIT.format(name="rolling-ball") + text)
        code = main(["check-fit", "--config", cfg, "--out", str(tmp_path / "t.txt"), "--samples", "5", *args])
        assert code == 1
        assert name in capsys.readouterr().err
        assert not (tmp_path / "t.txt").exists()

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, CHECKFIT.format(name="roller-racer"))
        outs = []
        for name in ("a.txt", "b.txt"):
            out = tmp_path / name
            main(["check-fit", "--config", cfg, "--out", str(out), "--samples", "15", "--seed", "3"])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_seed_changes_the_draw(self, tmp_path):
        cfg = write_cfg(tmp_path, CHECKFIT.format(name="roller-racer"))
        texts = []
        for seed in ("0", "1"):
            out = tmp_path / f"s{seed}.txt"
            main(["check-fit", "--config", cfg, "--out", str(out), "--samples", "15", "--seed", seed])
            texts.append(out.read_text())
        assert texts[0] != texts[1]


class TestOracleCompareCommand:
    def test_racer_pipeline_matches_closed_form(self, tmp_path):
        cfg = write_cfg(tmp_path, "model.name = roller-racer\n")
        out = tmp_path / "oracle.txt"
        code = main(["oracle-compare", "--config", cfg, "--out", str(out), "--samples", "20"])
        assert code == 0
        assert "PASS" in out.read_text()

    def test_perturbed_metric_is_detected(self, tmp_path):
        """Negative control: corrupting the metric must break the agreement."""
        cfg = write_cfg(tmp_path, "model.name = roller-racer\nmodel.metric_perturb = 0.05\n")
        out = tmp_path / "bad.txt"
        code = main(["oracle-compare", "--config", cfg, "--out", str(out), "--samples", "10"])
        assert code == 4
        assert "FAIL" in out.read_text()

    def test_zero_samples_warns_and_passes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "model.name = roller-racer\n")
        code = main(
            ["oracle-compare", "--config", cfg, "--out", str(tmp_path / "w.txt"), "--samples", "0"]
        )
        assert code == 0
        assert "WARNING" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "text, args, key",
        [
            ("", ["--samples", "-3"], "--samples"),
            ("oracle.samples = -3\n", [], "oracle.samples"),
        ],
        ids=["option", "key"],
    )
    def test_negative_samples_is_config_error(self, tmp_path, capsys, text, args, key):
        cfg = write_cfg(tmp_path, "model.name = roller-racer\n" + text)
        code = main(["oracle-compare", "--config", cfg, "--out", str(tmp_path / "n.txt"), *args])
        assert code == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "n.txt").exists()

    @pytest.mark.parametrize("value", ["-1", "0", "nan"], ids=["negative", "zero", "nan"])
    @pytest.mark.parametrize("source", ["option", "key"])
    def test_bad_tolerance_is_config_error(self, tmp_path, capsys, source, value):
        text, args, name = (
            ("", ["--tol", value], "--tol") if source == "option" else (f"oracle.tol = {value}\n", [], "oracle.tol")
        )
        cfg = write_cfg(tmp_path, "model.name = roller-racer\n" + text)
        code = main(["oracle-compare", "--config", cfg, "--out", str(tmp_path / "t.txt"), "--samples", "5", *args])
        assert code == 1
        assert name in capsys.readouterr().err
        assert not (tmp_path / "t.txt").exists()

    def test_model_without_oracle_errors(self, tmp_path):
        cfg = write_cfg(tmp_path, "model.name = rolling-ball\n")
        code = main(
            ["oracle-compare", "--config", cfg, "--out", str(tmp_path / "n.txt"), "--samples", "5"]
        )
        assert code == 3


class TestVibrateCommand:
    @pytest.mark.parametrize("u_bar", ["0.0", "1.5707963267948966"])
    def test_sweep_runs_and_reports_ratios(self, tmp_path, u_bar):
        """Also at ``u_bar = pi/2``, where the published frame's ``v2``, ``v3`` are undefined but ``w1`` is not (it exited 3)."""
        cfg = write_cfg(
            tmp_path,
            f"model.name = roller-racer\nvibrate.u_bar = {u_bar}\nvibrate.K = 1.0\n"
            "vibrate.eps_list = 0.1, 0.05\nvibrate.horizon = 1.0\n",
        )
        out = tmp_path / "sweep.txt"
        assert main(["vibrate", "--config", cfg, "--out", str(out)]) == 0
        assert "ratio_to_previous" in out.read_text()

    def test_coarse_phase_resolution_is_rejected(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "model.name = roller-racer\nvibrate.steps_per_period = 10\n",
        )
        assert main(["vibrate", "--config", cfg, "--out", str(tmp_path / "x.txt")]) == 2

    @pytest.mark.parametrize("eps_list", ["0.1, 0.0", "0.1, -0.05"])
    def test_nonpositive_eps_is_config_error(self, tmp_path, capsys, eps_list):
        cfg = write_cfg(tmp_path, f"model.name = roller-racer\nvibrate.eps_list = {eps_list}\n")
        assert main(["vibrate", "--config", cfg, "--out", str(tmp_path / "x.txt")]) == 1
        assert "vibrate.eps_list" in capsys.readouterr().err

    def test_empty_eps_list_is_config_error(self, tmp_path, capsys):
        """An ``eps_list`` with no entry is refused; it used to write a report with no sweep line."""
        cfg = write_cfg(tmp_path, "model.name = roller-racer\nvibrate.eps_list = ,\n")
        assert main(["vibrate", "--config", cfg, "--out", str(tmp_path / "x.txt")]) == 1
        assert "vibrate.eps_list" in capsys.readouterr().err

    @pytest.mark.parametrize("horizon", ["-1", "0", "nan"])
    def test_nonpositive_horizon_is_config_error(self, tmp_path, capsys, horizon):
        cfg = write_cfg(tmp_path, f"model.name = roller-racer\nvibrate.horizon = {horizon}\n")
        out = tmp_path / "x.txt"
        assert main(["vibrate", "--config", cfg, "--out", str(out)]) == 1
        assert "vibrate.horizon" in capsys.readouterr().err
        assert not out.exists()

    def test_model_without_closed_state_errors(self, tmp_path):
        cfg = write_cfg(tmp_path, "model.name = rolling-ball\n")
        assert main(["vibrate", "--config", cfg, "--out", str(tmp_path / "x.txt")]) == 3


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestShippedConfigs:
    """The worked configurations in ``configs/`` run with the exit codes the README lists."""

    @pytest.mark.parametrize(
        "command, name, code",
        [
            ("simulate", "ball_sinusoid", 0),
            ("check-fit", "ball_checkfit", 0),
            ("check-fit", "racer_checkfit", 4),
            ("oracle-compare", "racer_oracle", 0),
            ("vibrate", "racer_vibrate", 0),
        ],
    )
    def test_config_runs(self, tmp_path, command, name, code):
        out = tmp_path / "out"
        assert main([command, "--config", str(CONFIGS / f"{name}.cfg"), "--out", str(out)]) == code
        assert out.stat().st_size > 0
        if name == "ball_checkfit":
            # both scans read the fit ball's Psi at rounding: 1.0e-15 (Psi) and 4.2e-16 (theta_on_III)
            maxima = [float(line.rsplit(": ", 1)[1]) for line in out.read_text().splitlines() if line.startswith("max |")]
            assert len(maxima) == 2 and max(maxima) <= 1e-14

    def test_racer_constant_runs_a_quarter_second(self, tmp_path):
        """``racer_constant`` cut to ``t1 = 0.25`` runs: 251 samples whose energy holds under the constant control.

        The relative drift of ``H`` measured over these 250 steps is 1.0e-15
        (3.1e-14 over the shipped 5 s); the bound 1e-13 leaves a factor of 100.
        """
        text = (CONFIGS / "racer_constant.cfg").read_text()
        assert "integrator.t1 = 5.0\n" in text
        cfg = write_cfg(tmp_path, text.replace("integrator.t1 = 5.0\n", "integrator.t1 = 0.25\n"))
        out = tmp_path / "racer.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 251 and float(rows[-1]["t"]) == 0.25
        H = np.array([float(row["H"]) for row in rows])
        assert np.abs(H - H[0]).max() <= 1e-13 * H[0]

    def test_long_simulation_config_is_valid(self):
        """``racer_constant`` takes seconds to run, so it is only parsed and validated."""
        cfg = parse_config(str(CONFIGS / "racer_constant.cfg"))
        model = model_from_config(cfg)
        control = control_from_config(cfg)
        config, (t0, t1) = integrator_from_config(cfg)
        _check_control_resolved(cfg, config.dt)
        assert np.atleast_1d(control.value(t0)).shape == (model.spec.M,) and t1 > t0
        for key in ("initial.q", "initial.p"):
            assert cfg.get_floats(key).shape == (model.spec.dim,)


class TestNonFiniteCallbacks:
    """A shipped model whose ``metric`` or ``omega`` returns NaN exits 3, as a model error, not with a traceback."""

    @pytest.mark.parametrize("name", ["metric", "omega"])
    @pytest.mark.parametrize("command, config", [("simulate", "ball_sinusoid"), ("check-fit", "ball_checkfit")])
    def test_exit_3(self, tmp_path, monkeypatch, capsys, name, command, config):
        def nan_model(*args, **kwargs):
            bundle = build_model(*args, **kwargs)
            fn = getattr(bundle.spec, name)
            spec = dataclasses.replace(bundle.spec, **{name: lambda q: np.full_like(fn(q), np.nan)})
            return dataclasses.replace(bundle, spec=spec)

        monkeypatch.setattr(cli, "build_model", nan_model)
        argv = [command, "--config", str(CONFIGS / f"{config}.cfg"), "--out", str(tmp_path / "out")]
        assert main(argv + (["--samples", "20"] if command == "check-fit" else [])) == 3
        assert f"error: {name} is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["metric", "omega"])
    @pytest.mark.parametrize("command, config", [("simulate", "ball_sinusoid"), ("check-fit", "ball_checkfit")])
    def test_non_finite_derivatives_exit_3(self, tmp_path, monkeypatch, capsys, name, command, config):
        """Finite values with NaN complex-step derivatives where ``q1 > 0`` exit 3 (``simulate`` exited 2, ``check-fit`` 5)."""

        def nan_derivative_model(*args, **kwargs):
            bundle = build_model(*args, **kwargs)
            return dataclasses.replace(bundle, spec=nan_derivative_spec(bundle.spec, name))

        monkeypatch.setattr(cli, "build_model", nan_derivative_model)
        argv = [command, "--config", str(CONFIGS / f"{config}.cfg"), "--out", str(tmp_path / "out")]
        assert main(argv + (["--samples", "20"] if command == "check-fit" else [])) == 3
        assert "error: metric or omega derivative is not finite" in capsys.readouterr().err

    def test_nan_omega_control_column_exits_3(self, tmp_path, monkeypatch, capsys):
        """The racer's ``omega`` with a NaN control column (rank test passes) exits 3, not 2 from ``StepRejected``."""

        def nan_model(*args, **kwargs):
            bundle = build_model(*args, **kwargs)
            return dataclasses.replace(bundle, spec=nan_control_column_spec(bundle.spec))

        monkeypatch.setattr(cli, "build_model", nan_model)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(CONFIGS / "racer_constant.cfg"), "--out", str(out)]) == 3
        assert "error: omega is not finite" in capsys.readouterr().err
        assert not out.exists()


class TestEntryPoint:
    def test_run_raises_system_exit(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, "model.name = roller-racer\n")
        out = tmp_path / "e.txt"
        monkeypatch.setattr(
            sys,
            "argv",
            ["nonholo", "check-fit", "--config", cfg, "--out", str(out), "--samples", "5"],
        )
        with pytest.raises(SystemExit) as exc:
            run()
        assert exc.value.code == 4
