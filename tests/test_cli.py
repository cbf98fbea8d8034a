"""End-to-end command-line behaviour: config parsing and the exit-code contract."""

import sys

import numpy as np
import pytest

from nonholo.cli import main, model_from_config, parse_config, run
from nonholo.errors import ConfigError


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
                "f = 2.5\ni = 7\nb1 = yes\nb0 = off\nlist = 1, 2.5, -3\ns = hello\n",
            )
        )
        assert cfg.get_float("f") == 2.5
        assert cfg.get_int("i") == 7
        assert cfg.get_bool("b1") is True
        assert cfg.get_bool("b0") is False
        assert np.array_equal(cfg.get_floats("list"), [1.0, 2.5, -3.0])
        assert cfg.get_str("s") == "hello"
        assert cfg.get_float("absent", 9.0) == 9.0

    def test_getter_errors_name_key_and_file(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, "f = abc\n"))
        with pytest.raises(ConfigError, match="'f' has non-numeric"):
            cfg.get_float("f")
        with pytest.raises(ConfigError, match="missing required key 'g'"):
            cfg.get_float("g", required=True)
        with pytest.raises(ConfigError, match="non-boolean"):
            cfg.get_bool("f")

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
        ],
        ids=["dt-missing", "dt-zero", "dt-negative", "dt-nan", "representation", "empty-span"],
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
        ],
    )
    def test_bad_control_value_is_config_error(self, tmp_path, capsys, control, key):
        cfg = write_cfg(tmp_path, "model.name = roller-racer\nintegrator.dt = 1e-2\nintegrator.t1 = 0.03\n" + control)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
        assert key in capsys.readouterr().err

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
    def test_sweep_runs_and_reports_ratios(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "model.name = roller-racer\nvibrate.u_bar = 0.0\nvibrate.K = 1.0\n"
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
