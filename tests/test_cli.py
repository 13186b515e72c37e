import hashlib
import json
import math
import subprocess
import sys

import pytest

from thinfilm.cli import main
from thinfilm.riemann import fan_from_json


def run_cli(args):
    return main(args)


class TestRiemannCommand:
    def test_example_profile(self, tmp_path):
        out = tmp_path / "prof.csv"
        code = run_cli(
            [
                "riemann",
                "--alpha", "0.5", "--kappa", "0",
                "--left", "1.24,0.90", "--right", "1.5,1.56",
                "--t", "1.0", "--samples", "200",
                "--x-min", "-1", "--x-max", "4",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,h,b,singular_weight"
        rows = [list(map(float, l.split(","))) for l in lines[1:]]
        # contact sits at x = 0.558*t: h jumps from 1.24 there
        before = [r for r in rows if r[0] < 0.5]
        assert all(abs(r[1] - 1.24) < 1e-12 for r in before)
        fan_doc = json.loads((tmp_path / "prof.json").read_text())
        fan = fan_from_json(fan_doc)
        assert fan_doc["case"] == "J+R"
        assert len(fan.waves) == 2

    def test_equal_states_constant_profile(self, tmp_path):
        out = tmp_path / "c.csv"
        code = run_cli(
            [
                "riemann", "--alpha", "0.5", "--kappa", "1",
                "--left", "1.0,1.0", "--right", "1.0,1.0",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = out.read_text().strip().splitlines()[1:]
        hs = {r.split(",")[1] for r in rows}
        assert hs == {"1"}

    def test_singular_row_carries_right_state(self, tmp_path):
        # (speed * t) / t rounds below speed for this pair: re-sampling the
        # ray would land left of the delta front and report the left state
        out = tmp_path / "d.csv"
        left, right = "0.5708686913050158,2.589412759799674", "0,1.5819176697626334"
        code = run_cli(
            [
                "riemann", "--alpha", "0.5", "--kappa", "1",
                "--left", left, "--right", right, "--t", "1.5",
                "--samples", "50", "--out", str(out),
            ]
        )
        assert code == 0
        fan = fan_from_json(json.loads((tmp_path / "d.json").read_text()))
        [ds] = fan.waves
        assert ds.speed * 1.5 / 1.5 != ds.speed
        singular = [r for r in out.read_text().strip().splitlines()[1:]
                    if float(r.split(",")[3]) != 0.0]
        assert singular == [",".join(f"{v:.17g}" for v in (
            ds.speed * 1.5, 0.0, 1.5819176697626334, ds.strength_rate * 1.5))]

    def test_malformed_state_exit_2(self, tmp_path):
        code = run_cli(
            [
                "riemann", "--alpha", "0.5", "--kappa", "1",
                "--left", "nonsense", "--right", "1,1",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("flag, value", [("--x-min", "nan"), ("--x-max", "inf"),
                                             ("--x-min", "-inf")])
    def test_non_finite_range_exit_2(self, tmp_path, capsys, flag, value):
        # used to write rows at x = nan or x = inf with exit 0
        out = tmp_path / "prof.csv"
        code = run_cli(
            [
                "riemann", "--alpha", "0.5", "--kappa", "0",
                "--left", "1.24,0.90", "--right", "1.5,1.56", "--samples", "3",
                f"{flag}={value}", "--out", str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: argument {flag}: not a finite number: '{value}'" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_negative_samples_exit_2(self, tmp_path, capsys):
        # used to reach np.linspace, whose ValueError named no option
        out = tmp_path / "prof.csv"
        code = run_cli(
            [
                "riemann", "--alpha", "0.5", "--kappa", "0",
                "--left", "1.24,0.90", "--right", "1.5,1.56", "--samples=-1", "--out", str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error: argument --samples: not a non-negative integer: '-1'" in err
        assert not list(tmp_path.iterdir())

    def test_assumption_violation_exit_2(self, tmp_path):
        code = run_cli(
            [
                "riemann", "--alpha", "0.5", "--kappa", "1",
                "--left", "0,1", "--right", "0,2",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2

    def test_io_error_exit_1(self):
        code = run_cli(
            [
                "riemann", "--alpha", "0.5", "--kappa", "1",
                "--left", "1,1", "--right", "2,2",
                "--out", "/nonexistent-dir/x.csv",
            ]
        )
        assert code == 1

    @pytest.mark.parametrize("t", ["0", "-1", "nan"])
    def test_bad_time_exit_2(self, tmp_path, t):
        out = tmp_path / "prof.csv"
        code = run_cli(
            [
                "riemann", "--alpha", "0.5", "--kappa", "0",
                "--left", "1.24,0.90", "--right", "1.5,1.56",
                "--t", t, "--out", str(out),
            ]
        )
        assert code == 2
        assert not out.exists()

    def test_deterministic_output(self, tmp_path):
        args = [
            "riemann", "--alpha", "0.5", "--kappa", "1",
            "--left", "2,1", "--right", "1,1", "--samples", "64",
        ]
        run_cli(args + ["--out", str(tmp_path / "a.csv")])
        run_cli(args + ["--out", str(tmp_path / "b.csv")])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestSchemeCommands:
    def _config(self, tmp_path, scheme_extras=None):
        doc = {
            "alpha": 0.5,
            "kappa": 0.0,
            "grid": {"xmin": -2.0, "xmax": 6.0, "ncells": 200},
            "cfl": 0.45,
            "t_end": 0.5,
            "initial": {"left": [1.5, 1.6], "right": [1.25, 1.15]},
        }
        if scheme_extras:
            doc.update(scheme_extras)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        return path

    def test_godunov_run(self, tmp_path):
        cfg = self._config(tmp_path)
        out = tmp_path / "prof.csv"
        code = run_cli(["godunov", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header == "x,h,b,w1,w2"
        diag = json.loads((tmp_path / "prof_diag.json").read_text())
        assert diag["max_conservation_residual"] <= 1e-12
        assert diag["l1_error_vs_exact"] < 0.2
        assert diag["cfl"] == 0.45

    def test_llf_run(self, tmp_path):
        cfg = self._config(tmp_path)
        out = tmp_path / "prof.csv"
        assert run_cli(["llf", "--config", str(cfg), "--out", str(out)]) == 0

    def test_perturbed_initial(self, tmp_path):
        doc = {
            "alpha": 0.5,
            "kappa": 0.0,
            "grid": {"xmin": -2.0, "xmax": 6.0, "ncells": 150},
            "t_end": 0.3,
            "initial": {
                "left": [1.5, 1.6],
                "middle": [0.95, 1.62],
                "right": [1.25, 1.15],
                "epsilon": 0.1,
            },
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run_cli(["godunov", "--config", str(cfg), "--out", str(tmp_path / "p.csv")]) == 0

    def test_bad_config_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 0.5}))
        assert run_cli(["godunov", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("scheme", ["godunov", "llf"])
    @pytest.mark.parametrize("key", ["delta_window", "delta_background"],
                             ids=["window-only", "background-only"])
    def test_delta_key_alone(self, tmp_path, scheme, key):
        # the point mass is measured against the initial outer states:
        # delta_window alone records the series that window plus background
        # records, and delta_background alone is ignored
        both = {"delta_window": [0.0, 1.0], "delta_background": [[1.5, 1.6], [1.25, 1.15]]}
        diags = []
        for extras in (both, {key: both[key]}):
            cfg = self._config(tmp_path, extras)
            assert run_cli([scheme, "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 0
            diags.append(json.loads((tmp_path / "x_diag.json").read_text()))
        assert len(diags[0]["delta_mass"]) == diags[0]["n_steps"] > 0
        if key == "delta_window":
            assert diags[1] == diags[0]
        else:
            assert diags[1] == {**diags[0], "delta_mass": []}

    @pytest.mark.parametrize("scheme", ["godunov", "llf"])
    @pytest.mark.parametrize("bad", [
        {"ncells": 100.5}, {"ncells": 100.0}, {"ncells": "100"}, {"ncells": True},
        {"xmin": math.nan}, {"xmax": math.inf},
    ], ids=["ncells-fraction", "ncells-float", "ncells-string", "ncells-bool", "xmin-nan", "xmax-inf"])
    def test_malformed_grid_exit_2(self, tmp_path, capsys, scheme, bad):
        # a float or string ncells used to escape as a TypeError (exit 1) and
        # true ran a one-cell grid
        cfg = self._config(tmp_path, {"grid": {"xmin": -2.0, "xmax": 6.0, "ncells": 200, **bad}})
        out = tmp_path / "x.csv"
        assert run_cli([scheme, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: grid needs")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("scheme", ["godunov", "llf"])
    @pytest.mark.parametrize("key, bad", [
        ("cfl", {"cfl": "0.4"}), ("t_end", {"t_end": "0.5"}), ("alpha", {"alpha": "0.5"}),
        ("left", {"initial": {"left": [1.5], "right": [1.25, 1.15]}}),
        ("grid", {"grid": [1]}), ("initial", {"initial": [1]}),
    ], ids=["cfl-string", "t_end-string", "alpha-string", "left-one-number", "grid-list",
            "initial-list"])
    def test_mistyped_config_exit_2(self, tmp_path, capsys, scheme, key, bad):
        # each used to escape as a TypeError traceback with exit 1, the I/O code
        cfg = self._config(tmp_path, bad)
        out = tmp_path / "x.csv"
        assert run_cli([scheme, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {key} must be")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("section, key", [
        ("", "alpha"), ("", "kappa"), ("", "t_end"), ("", "grid"), ("", "initial"),
        ("grid", "xmin"), ("grid", "xmax"), ("grid", "ncells"),
        ("initial", "left"), ("initial", "right"), ("initial", "epsilon"),
    ], ids=lambda v: v or "top")
    def test_missing_key_exit_2(self, tmp_path, capsys, section, key):
        # used to print the bare KeyError: "error: 'grid'"
        doc = {
            "alpha": 0.5, "kappa": 0.0, "t_end": 0.5,
            "grid": {"xmin": -2.0, "xmax": 6.0, "ncells": 200},
            "initial": {"left": [1.5, 1.6], "middle": [0.95, 1.62], "epsilon": 0.1,
                        "right": [1.25, 1.15]},
        }
        (doc[section] if section else doc).pop(key)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "x.csv"
        assert run_cli(["godunov", "--config", str(cfg), "--out", str(out)]) == 2
        where = f"config {section}" if section else "config"
        assert capsys.readouterr().err == f"error: {where} is missing '{key}'\n"
        assert not out.exists()

    @pytest.mark.parametrize("scheme", ["godunov", "llf"])
    @pytest.mark.parametrize("initial", [
        {"left": [1.5, 1.6], "right": [1.25, 1.15]},
        {"left": [1.5, 1.6], "middle": [0.95, 1.62], "right": [1.25, 1.15], "epsilon": 0.1},
    ], ids=["two-state", "perturbed"])
    @pytest.mark.parametrize("t_end", [0.0, -1, math.nan], ids=["zero", "negative", "nan"])
    def test_bad_t_end_exit_2(self, tmp_path, capsys, scheme, initial, t_end):
        # a two-state run used to write field.csv and then fail on the exact
        # profile's time; a perturbed run exited 0 after 0 steps, writing
        # "t_end": NaN, which is not JSON
        cfg = self._config(tmp_path, {"t_end": t_end, "initial": initial})
        out = tmp_path / "x.csv"
        assert run_cli([scheme, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: t_end must be finite and positive, got {t_end}\n"
        assert list(tmp_path.iterdir()) == [cfg]

    def test_infinite_t_end_exit_2(self, tmp_path, src_env):
        # used to run forever; a child process, so that it cannot hang the suite
        cfg = self._config(tmp_path, {"t_end": math.inf})
        out = tmp_path / "x.csv"
        res = subprocess.run(
            [sys.executable, "-m", "thinfilm.cli", "godunov", "--config", str(cfg), "--out", str(out)],
            capture_output=True, text=True, env=src_env, timeout=60,
        )
        assert res.returncode == 2
        assert res.stderr == "error: t_end must be finite and positive, got inf\n"
        assert not out.exists()

    @pytest.mark.parametrize("scheme", ["godunov", "llf"])
    def test_list_config_exit_2(self, tmp_path, capsys, scheme):
        # used to escape as an AttributeError traceback with exit 1, the I/O code
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        out = tmp_path / "x.csv"
        assert run_cli([scheme, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config document must be a JSON object")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("scheme", ["godunov", "llf"])
    @pytest.mark.parametrize("window, message", [
        ([], "a list of two"), (0, "a list of two"), (False, "a list of two"),
        ("", "a list of two"), (5, "a list of two"), ([0.0, "1"], "a number"),
        ([0.5, 0.1], "finite, lower bound first"), ([0.5, 0.5], "finite, lower bound first"),
        ([0.0, math.inf], "finite, lower bound first"), ([math.nan, 1.0], "finite, lower bound first"),
    ], ids=["empty", "zero", "false", "empty-string", "number", "string-bound", "reversed",
            "empty-range", "inf", "nan"])
    def test_malformed_delta_window_exit_2(self, tmp_path, capsys, scheme, window, message):
        # [], 0, false and "" used to be ignored (exit 0, no delta series),
        # and a reversed window failed at the first step
        cfg = self._config(tmp_path, {"delta_window": window})
        out = tmp_path / "x.csv"
        assert run_cli([scheme, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config delta_window must be {message}")
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_delta_config_records_series(self, tmp_path):
        extras = {"delta_window": [0.0, 1.0], "delta_background": [[1.5, 1.6], [1.25, 1.15]]}
        cfg = self._config(tmp_path, extras)
        out = tmp_path / "d.csv"
        assert run_cli(["llf", "--config", str(cfg), "--out", str(out)]) == 0
        diag = json.loads((tmp_path / "d_diag.json").read_text())
        assert len(diag["delta_mass"]) == diag["n_steps"]

    def test_scheme_failure_exit_3(self, tmp_path):
        # overflowing states blow the wave speeds past float range
        doc = {
            "alpha": 0.5,
            "kappa": 0.0,
            "grid": {"xmin": -1.0, "xmax": 1.0, "ncells": 16},
            "t_end": 1.0,
            "initial": {"left": [1e200, 1e200], "right": [1.0, 1.0]},
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run_cli(["godunov", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 3

    def test_blank_w_columns_near_vacuum(self, tmp_path):
        doc = {
            "alpha": 0.5,
            "kappa": 0.0,
            "h_tol": 1e-6,
            "grid": {"xmin": -0.2, "xmax": 0.6, "ncells": 100},
            "t_end": 0.05,
            "initial": {"left": [2.9, 1.7], "right": [1e-7, 5.56]},
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "d.csv"
        assert run_cli(["llf", "--config", str(cfg), "--out", str(out)]) == 0
        tail = out.read_text().strip().splitlines()[-1]
        assert tail.endswith(",,")  # w1, w2 blank where h ~ 0


class TestInteractCommand:
    def test_timeline_and_profiles(self, tmp_path):
        out = tmp_path / "tl.json"
        code = run_cli(
            [
                "interact",
                "--alpha", "0.5", "--kappa", "0",
                "--epsilon", "0.1",
                "--left", "1.5,1.6", "--middle", "0.95,1.62", "--right", "1.25,1.15",
                "--profile-times", "1.0",
                "--samples", "100", "--x-min", "-2", "--x-max", "4",
                "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["case"] == "JS+JS"
        assert len(doc["events"]) == 2
        prof = (tmp_path / "tl_t1.csv").read_text().splitlines()
        assert prof[0] == "x,h,b"
        # JSON round-trip is value-identical
        assert json.dumps(doc, sort_keys=True) == json.dumps(
            json.loads(out.read_text()), sort_keys=True
        )

    def test_bad_profile_time_exit_2(self, tmp_path):
        out = tmp_path / "tl.json"
        code = run_cli(
            [
                "interact",
                "--alpha", "0.5", "--kappa", "0",
                "--epsilon", "0.1",
                "--left", "1.5,1.6", "--middle", "0.95,1.62", "--right", "1.25,1.15",
                "--profile-times", "0",
                "--samples", "100", "--x-min", "-2", "--x-max", "4",
                "--out", str(out),
            ]
        )
        assert code == 2
        assert not list(tmp_path.glob("*.csv"))

    def test_delta_case_timeline(self, tmp_path):
        out = tmp_path / "tl.json"
        code = run_cli(
            [
                "interact",
                "--alpha", "0.5", "--kappa", "0", "--h-tol", "1e-4",
                "--epsilon", "0.1",
                "--left", "1.24,0.90", "--middle", "1e-5,5.5", "--right", "1.5,1.56",
                "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["case"] == "dS+JR"
        assert doc["residual_delta_contact"]["strength"] == pytest.approx(2 * 5.5 * 0.1)
        curved = [f for f in doc["fronts"] if "curve" in f]
        assert curved and len(curved[0]["curve"]) > 2

    def test_budget_exit_4(self, tmp_path):
        code = run_cli(
            [
                "interact",
                "--alpha", "0.5", "--kappa", "1",
                "--epsilon", "0.1",
                "--left", "1.0,1.0", "--middle", "1.3,1.3", "--right", "0.9,0.8",
                "--n-fan", "48", "--budget", "3",
                "--out", str(tmp_path / "tl.json"),
            ]
        )
        assert code == 4

    @pytest.mark.parametrize("kappa, left, middle, right", [
        ("1", "1.0,1.0", "1.3,1.3", "0.9,0.8"), ("0", "1.5,1.6", "0.95,1.62", "1.25,1.15"),
    ], ids=["generic", "closed-form"])
    def test_negative_budget_exit_2(self, tmp_path, capsys, kappa, left, middle, right):
        # -1 used to exit 4 ("exceeded -1 events") on the generic engine's
        # JR+JS data and 0 on closed-form JS+JS data
        out = tmp_path / "tl.json"
        code = run_cli(
            [
                "interact",
                "--alpha", "0.5", "--kappa", kappa, "--epsilon", "0.1",
                "--left", left, "--middle", middle, "--right", right,
                "--budget", "-1", "--out", str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: budget must not be negative, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--x-min", "nan"), ("--x-max", "inf"),
                                             ("--t-max", "nan")])
    def test_non_finite_option_exit_2(self, tmp_path, capsys, flag, value):
        # non-finite ranges used to be sampled, and --t-max nan ran as no limit
        out = tmp_path / "tl.json"
        code = run_cli(
            [
                "interact", "--alpha", "0.5", "--kappa", "0", "--epsilon", "0.1",
                "--left", "1.5,1.6", "--middle", "0.95,1.62", "--right", "1.25,1.15",
                "--profile-times", "1", "--samples", "3", flag, value, "--out", str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: argument {flag}: not a finite number: '{value}'" in err
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag, value, message", [
        ("--profile-times", "1,nan", "not a comma list of finite positive times: '1,nan'"),
        ("--profile-times", "1,-2", "not a comma list of finite positive times: '1,-2'"),
        ("--samples", "-1", "not a non-negative integer: '-1'"),
    ], ids=["time-nan", "time-negative", "samples-negative"])
    def test_bad_profile_option_writes_nothing(self, tmp_path, capsys, flag, value, message):
        # each used to exit 2 after the timeline JSON, and the t = 1 profile
        # before the bad time, had been written
        opts = {"--profile-times": "1", "--samples": "5", flag: value}
        out = tmp_path / "tl.json"
        code = run_cli(
            [
                "interact", "--alpha", "0.5", "--kappa", "0", "--epsilon", "0.1",
                "--left", "1.5,1.6", "--middle", "0.95,1.62", "--right", "1.25,1.15",
                *(f"{k}={v}" for k, v in opts.items()), "--out", str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: argument {flag}: {message}" in err
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag, value, message", [
        ("--left", "a,b", "could not convert string to float: 'a'"),
        ("--left", "-1,2", "state outside quadrant (-1.0, 2.0)"),
        ("--middle", "1", "state must be 'h,b', got '1'"),
    ])
    def test_malformed_state_exit_2(self, tmp_path, capsys, flag, value, message):
        states = {"--left": "1.5,1.6", "--middle": "0.95,1.62", "--right": "1.25,1.15", flag: value}
        out = tmp_path / "tl.json"
        code = run_cli(
            [
                "interact", "--alpha", "0.5", "--kappa", "0", "--epsilon", "0.1",
                *(f"{k}={v}" for k, v in states.items()), "--out", str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("n_fan", ["0", "-5"])
    def test_nonpositive_n_fan_exit_2(self, tmp_path, capsys, n_fan):
        # JR+JS data run the generic engine, which splits each fan into n_fan
        # shocklets: 0 used to divide by zero (exit 1), -5 ran with one
        out = tmp_path / "tl.json"
        code = run_cli(
            [
                "interact",
                "--alpha", "0.5", "--kappa", "1.0", "--epsilon", "0.1",
                "--left", "1.0,1.0", "--middle", "2.0,2.0", "--right", "0.5,0.5",
                "--n-fan", n_fan, "--t-max", "5",
                "--out", str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: n_fan must be at least 1")
        assert "Traceback" not in err
        assert not out.exists()


class TestLimitsCommand:
    def test_table(self, tmp_path):
        out = tmp_path / "table.csv"
        code = run_cli(
            [
                "limits", "--study", "kappa",
                "--values", "1,0.5,0.1",
                "--fixed", "0.5",
                "--left", "1.24,0.90", "--right", "1.5,1.56",
                "--samples", "2000",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "value,case,l1,dsigma,dbeta_rate,weak1,weak2,weak3"
        l1s = [float(l.split(",")[2]) for l in lines[1:]]
        assert l1s[0] > l1s[1] > l1s[2]

    def test_two_row_delta_shock_table(self, tmp_path):
        out = tmp_path / "table.csv"
        code = run_cli(
            [
                "limits", "--study", "kappa",
                "--values", "1,0.1",
                "--fixed", "0.5",
                "--left", "2.9,1.7", "--right", "0,5.56",
                "--samples", "800",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[1] == "delta-shock"

    @pytest.mark.parametrize("samples", ["0", "1"])
    def test_too_few_samples_exit_2(self, tmp_path, capsys, samples):
        # a one-point or empty grid used to end in an IndexError traceback
        out = tmp_path / "table.csv"
        code = run_cli(
            [
                "limits", "--study", "kappa", "--values", "1,0.1", "--fixed", "0.5",
                "--left", "1.24,0.90", "--right", "1.5,1.56",
                "--samples", samples, "--out", str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: n_samples must be at least 2")
        assert "Traceback" not in err
        assert not out.exists()

    def test_malformed_values_exit_2(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code = run_cli(
            [
                "limits", "--study", "kappa", "--values", "1,x", "--fixed", "0.5",
                "--left", "1.24,0.90", "--right", "1.5,1.56", "--out", str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--values" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestEntropyCheckCommand:
    def test_report_ok(self, tmp_path):
        out = tmp_path / "entropy.json"
        code = run_cli(
            [
                "entropy-check", "--alpha", "0.5", "--kappa", "1",
                "--n-grid", "10", "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert all(e["verdict"] == "convex" for e in doc["pairs"])

    def test_alpha_zero_inconclusive_not_failure(self, tmp_path):
        out = tmp_path / "entropy.json"
        code = run_cli(
            [
                "entropy-check", "--alpha", "0", "--kappa", "1",
                "--n-grid", "8", "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert all(e["verdict"] == "inconclusive" for e in doc["pairs"])

    def test_tiny_alpha_convex(self, tmp_path):
        # 9*alpha^2 underflows to 0 below alpha ~ 1e-162: every pair used to
        # read "fails" with exit 5, though the form's bracket is positive
        out = tmp_path / "entropy.json"
        code = run_cli(
            ["entropy-check", "--alpha", "1e-170", "--kappa", "1", "--n-grid", "8",
             "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert all(e["verdict"] == "convex" and e["min_form1"] == 0.0 for e in doc["pairs"])

    @pytest.mark.parametrize("kappa", ["0", "1"])
    @pytest.mark.parametrize("alpha", ["50", "1e3", "1e6"])
    def test_large_alpha_convex(self, tmp_path, alpha, kappa):
        # the Theta ODE residual, 0 in exact arithmetic, rounds to more than
        # the -2*w1*Psi' term beside it: up to four pairs used to read
        # "fails" with exit 5
        out = tmp_path / "entropy.json"
        code = run_cli(["entropy-check", "--alpha", alpha, "--kappa", kappa, "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert all(e["verdict"] == "convex" for e in doc["pairs"])

    def test_overflowing_alpha_inconclusive(self, tmp_path, capsys):
        # alpha**2 used to raise an OverflowError traceback with exit 1
        out = tmp_path / "entropy.json"
        code = run_cli(
            ["entropy-check", "--alpha", "1e200", "--kappa", "1", "--n-grid", "8",
             "--out", str(out)]
        )
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err
        doc = json.loads(out.read_text())
        assert all(e["verdict"] == "inconclusive" for e in doc["pairs"])

    @pytest.mark.parametrize("kappa", ["0", "1"])
    def test_underflowing_psi_inconclusive(self, tmp_path, kappa):
        # at w1 ~ 1e100 Psi' and Psi'' of the w1^-2 and w1^-3 pairs are
        # subnormal or 0, so the forms read 0 or noise: four pairs used to
        # read "fails" with exit 5
        out = tmp_path / "entropy.json"
        code = run_cli(["entropy-check", "--alpha", "1e100", "--kappa", kappa, "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert all(e["verdict"] == "inconclusive" for e in doc["pairs"])

    # the benchmark's entropy-check runs (alpha 0.5, jittered, and 0), digests
    # recorded before the underflow verdict existed; the report goes through
    # np.float_power, so they assume a libm pow with glibc's roundings
    @pytest.mark.parametrize("alpha, kappa, digest", [
        ("0.5", "1.0", "af49b901006f8d9315fc1db98fafa9a44ebc6a47ed0c1cfa08c1606eb7667d02"),
        ("0.49975", "1.0006", "9089cbfac5d32ea5dbed6b32efd33921b3215eff42417287b709482995a8adec"),
        ("0.5004", "0.9993", "b0dfa041f47c2726efe3cc5064e9002e582f0755958e1978892fee893f4aafde"),
        ("0.0", "1.0", "5cce34f6740824dbc1e4fd7c5a89e03938a0aebb49d5170437ae6b1252790cf9"),
        ("0.0", "0.9993", "9518e622977091df485804fb5a08b3cc0b69ed0f1b78c6d968a2294c543768ce"),
    ])
    def test_benchmark_reports_unchanged(self, tmp_path, alpha, kappa, digest):
        out = tmp_path / "entropy.json"
        assert run_cli(["entropy-check", "--alpha", alpha, "--kappa", kappa, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_empty_grid_exit_2(self, tmp_path, capsys):
        # an empty grid used to end in an IndexError traceback
        out = tmp_path / "entropy.json"
        code = run_cli(
            ["entropy-check", "--alpha", "0.5", "--kappa", "1", "--n-grid", "0", "--out", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: n_grid must be at least 1")
        assert "Traceback" not in err
        assert not out.exists()


class TestEntryPoint:
    def test_module_invocation(self, tmp_path, src_env):
        res = subprocess.run(
            [
                sys.executable, "-m", "thinfilm.cli",
                "riemann", "--alpha", "0.5", "--kappa", "1",
                "--left", "2,2", "--right", "0,1",
                "--out", str(tmp_path / "d.csv"),
            ],
            capture_output=True,
            env=src_env,
        )
        assert res.returncode == 0
        doc = json.loads((tmp_path / "d.json").read_text())
        assert doc["case"] == "delta-shock"
        assert doc["waves"][0]["strength_rate"] == pytest.approx(10.0 / 3.0)
