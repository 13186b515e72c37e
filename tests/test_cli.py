import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from thinfilm import numerics
from thinfilm.cli import main
from thinfilm.core import Params, State
from thinfilm.riemann import RiemannData, fan_from_json


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

    @pytest.mark.parametrize(
        "left, right, side",
        [("1.24,0.90", "1.5,1.56", "right"), ("2,2", "0,1", "left"), ("0,1", "2,2", "right")],
    )
    def test_infinite_lambda2_exit_2(self, tmp_path, capsys, left, right, side):
        # used to exit 0 with a pure-J fan, an inf row or an Infinity in the JSON
        out = tmp_path / "prof.csv"
        code = run_cli(
            [
                "riemann", "--alpha", "0.5", "--kappa", "1e308",
                "--left", left, "--right", right, "--out", str(out),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: lambda2 of the {side} state")
        assert list(tmp_path.iterdir()) == []


    def test_infinite_strength_rate_exit_2(self, tmp_path, capsys):
        # b+ * sigma overflows: used to exit 0 with an inf singular weight
        # and "strength_rate": Infinity, which is not JSON
        code = run_cli(
            [
                "riemann", "--alpha", "0.5", "--kappa", "0", "--left", "2,1e300",
                "--right", "0,1e300", "--out", str(tmp_path / "d.csv"),
                "--fan-out", str(tmp_path / "fan.json"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the point-mass growth rate b * sigma of the right state")
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


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
        # delta_window alone records the final [t, mass] pair that window
        # plus background records, and delta_background alone is ignored
        both = {"delta_window": [0.0, 1.0], "delta_background": [[1.5, 1.6], [1.25, 1.15]]}
        diags = []
        for extras in (both, {key: both[key]}):
            cfg = self._config(tmp_path, extras)
            assert run_cli([scheme, "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 0
            diags.append(json.loads((tmp_path / "x_diag.json").read_text()))
        [[t, _]] = diags[0]["delta_mass"]
        assert t == 0.5 and diags[0]["n_steps"] > 0
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

    @pytest.mark.parametrize("key, path", [
        ("alpha", ["alpha"]), ("kappa", ["kappa"]), ("h_tol", ["h_tol"]), ("cfl", ["cfl"]),
        ("t_end", ["t_end"]), ("grid.xmin", ["grid", "xmin"]), ("grid.xmax", ["grid", "xmax"]),
        ("left", ["initial", "left", 0]), ("middle", ["initial", "middle", 1]),
        ("right", ["initial", "right", 0]), ("epsilon", ["initial", "epsilon"]),
        ("delta_window", ["delta_window", 0]), ("delta_window", ["delta_window", 1]),
    ], ids=["alpha", "kappa", "h_tol", "cfl", "t_end", "xmin", "xmax", "left", "middle",
            "right", "epsilon", "window-lower", "window-upper"])
    def test_huge_integer_exit_2(self, tmp_path, capsys, key, path):
        # a 401-digit integer no float can hold used to end in an
        # OverflowError traceback with exit 1
        doc = {
            "alpha": 0.5, "kappa": 0.0, "h_tol": 1e-10, "cfl": 0.45, "t_end": 0.5,
            "grid": {"xmin": -2.0, "xmax": 6.0, "ncells": 200},
            "initial": {"left": [1.5, 1.6], "middle": [0.95, 1.62], "epsilon": 0.1,
                        "right": [1.25, 1.15]},
            "delta_window": [0.0, 1.0],
        }
        *parents, last = path
        target = doc
        for k in parents:
            target = target[k]
        target[last] = 10**400
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run_cli(["godunov", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == f"error: config {key} must be a number in float range\n"
        assert list(tmp_path.iterdir()) == [cfg]

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
        # named for the per-step series it used to pin: one [t, mass] pair
        # at the final time is written
        extras = {"delta_window": [0.0, 1.0], "delta_background": [[1.5, 1.6], [1.25, 1.15]]}
        cfg = self._config(tmp_path, extras)
        out = tmp_path / "d.csv"
        assert run_cli(["llf", "--config", str(cfg), "--out", str(out)]) == 0
        diag = json.loads((tmp_path / "d_diag.json").read_text())
        [[t, mass]] = diag["delta_mass"]
        assert t == 0.5 and math.isfinite(mass)

    @pytest.mark.parametrize("scheme", ["godunov", "llf"])
    def test_diag_holds_ends_of_run_series(self, tmp_path, scheme):
        # the file holds the first and last entries of run()'s per-step
        # mass series and delta_mass of the final field, bit for bit
        cfg = self._config(tmp_path, {"delta_window": [0.0, 1.0]})
        assert run_cli([scheme, "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 0
        diag = json.loads((tmp_path / "x_diag.json").read_text())
        p, left, right = Params(0.5, 0.0), State(1.5, 1.6), State(1.25, 1.15)
        f0 = numerics.field_from_riemann(RiemannData(left, right, p), numerics.Grid(-2.0, 6.0, 200))
        final, ref = numerics.run(f0, numerics.SchemeConfig(scheme=scheme, t_end=0.5), p)
        mass = numerics.delta_mass(final, (0.0, 1.0), (left, right))
        want = {
            "mass_h": [ref["mass_h"][0], ref["mass_h"][-1]],
            "mass_b": [ref["mass_b"][0], ref["mass_b"][-1]],
            "delta_mass": [[final.t, mass]],
        }
        for key, values in want.items():
            assert [x.hex() for x in np.ravel(diag[key])] == [x.hex() for x in np.ravel(values)]

    @pytest.mark.parametrize("scheme", ["godunov", "llf"])
    def test_window_off_grid_exit_2(self, tmp_path, capsys, scheme):
        cfg = self._config(tmp_path, {"delta_window": [10.0, 20.0]})
        assert run_cli([scheme, "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err == "error: window lies outside the grid\n"
        assert list(tmp_path.iterdir()) == [cfg]

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
        # --samples is accepted and ignored: the l1 column is exact
        argv = ["limits", "--study", "kappa", "--values", "1,0.5,0.1", "--fixed", "0.5",
                "--left", "1.24,0.90", "--samples", "2000", "--out", str(out)]
        assert run_cli(argv + ["--right", "1.5,1.56"]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "value,case,l1,dsigma,dbeta_rate,weak1,weak2,weak3"
        l1s = [float(l.split(",")[2]) for l in lines[1:]]
        assert l1s[0] > l1s[1] > l1s[2]
        # equal states give fans without waves, which used to exit 2 (min() of no edges)
        assert run_cli(argv + ["--right", "1.24,0.90"]) == 0
        assert [l.split(",")[1:3] for l in out.read_text().splitlines()[1:]] == [["pure-J", "0"]] * 3

    def test_two_row_delta_shock_table(self, tmp_path):
        out = tmp_path / "table.csv"
        code = run_cli(
            [
                "limits", "--study", "kappa",
                "--values", "1,0.1",
                "--fixed", "0.5",
                "--left", "2.9,1.7", "--right", "0,5.56",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[1] == "delta-shock"

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

    def test_infinite_lambda2_exit_2(self, tmp_path, capsys):
        # used to write a pure-J row with l1 = 4.7e307
        out = tmp_path / "table.csv"
        code = run_cli(
            [
                "limits", "--study", "kappa", "--values", "1e308,1", "--fixed", "0.5",
                "--left", "1.24,0.90", "--right", "1.5,1.56", "--out", str(out),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: lambda2 of the right state")
        assert not out.exists()


    @pytest.mark.parametrize("fixed, left, right, values", [
        ("0.5", "1.24,0.9", "1e154,0.5", "1,0.1"),
        ("3", "0.109,1.03", "1.63,1e200", "1,0.1,0.01"),
    ], ids=["overflow", "nan"])
    def test_non_finite_l1_exit_2(self, tmp_path, capsys, fixed, left, right, values):
        # used to end in an OverflowError traceback (exit 1), and to exit 0
        # with nan in every l1 cell
        out = tmp_path / "table.csv"
        code = run_cli(
            [
                "limits", "--study", "kappa", "--values", values, "--fixed", fixed,
                "--left", left, "--right", right, "--out", str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: the exact L1 distance at kappa=1.0 is not finite\n"
        assert list(tmp_path.iterdir()) == []


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
        # named for the verdict it used to pin: alpha**2 raised an
        # OverflowError traceback with exit 1, then the forms read NaN and
        # the verdict inconclusive; the closed r1 form, alpha folded into
        # w1^(-n/2), stays finite and the verdict reads the coefficients
        out = tmp_path / "entropy.json"
        code = run_cli(
            ["entropy-check", "--alpha", "1e200", "--kappa", "1", "--n-grid", "8",
             "--out", str(out)]
        )
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err
        doc = json.loads(out.read_text())
        assert all(e["verdict"] == "convex" for e in doc["pairs"])
        assert all(0.0 < e["min_form1"] < math.inf for e in doc["pairs"])

    @pytest.mark.parametrize("alpha, kappa", [("1e300", "1"), ("1e-300", "1e-300")])
    def test_non_finite_values_written_as_null(self, tmp_path, alpha, kappa):
        # residuals that read NaN and minima that read inf used to be written
        # as the bare NaN and Infinity, which are not JSON
        out = tmp_path / "entropy.json"
        argv = ["entropy-check", "--alpha", alpha, "--kappa", kappa, "--n-grid", "8", "--out", str(out)]
        assert run_cli(argv) == 0
        doc = json.loads(out.read_text(), parse_constant=lambda c: pytest.fail(f"not JSON: {c}"))
        assert None in [v for e in doc["pairs"] for v in e.values()]

    @pytest.mark.parametrize("kappa", ["0", "1"])
    def test_underflowing_psi_inconclusive(self, tmp_path, kappa):
        # named for the verdict it used to pin: at w1 ~ 1e100 Psi'' of the
        # w1^-2 and w1^-3 pairs underflows to 0, and the canonical pair's r1
        # form read -2.73e137 through rounding in the Theta terms; the
        # verdict reads the coefficients instead
        out = tmp_path / "entropy.json"
        code = run_cli(["entropy-check", "--alpha", "1e100", "--kappa", kappa, "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert all(e["verdict"] == "convex" and e["min_form1"] > 0.0 for e in doc["pairs"])

    # the benchmark's entropy-check runs (alpha 0.5, jittered, and 0), digests
    # recorded with the closed-form minima once they matched the exact oracle
    # of tests/test_entropy.py; the report goes through np.float_power, so
    # they assume a libm pow with glibc's roundings; keyed by (alpha, kappa)
    # alone, so that the test ids outlive a re-recording
    REPORT_DIGESTS = {
        ("0.5", "1.0"): "1d90af42ca952fe8ccba6929441895c5b53e977c9890d8f4e5bd530415d63d2e",
        ("0.49975", "1.0006"): "9a29bf2c96d2c113908f3cf6890ad4856dae14512d6561deef63bb44c88bef98",
        ("0.5004", "0.9993"): "5ac7f6cb8c277cfcbc5cb70246b4309eeada5913429f0033317306bd1aff8db8",
        ("0.0", "1.0"): "4c84d132d54b98e1f7bc00380f8e69d9502b2585929296de6359c0ee8ee47bc5",
        ("0.0", "0.9993"): "e18182c8268ad1e0ada4f9fbb2df4213f0d4f5a77996e9862ee945dc2eae8f03",
    }

    @pytest.mark.parametrize("alpha, kappa", REPORT_DIGESTS)
    def test_benchmark_reports_unchanged(self, tmp_path, alpha, kappa):
        out = tmp_path / "entropy.json"
        assert run_cli(["entropy-check", "--alpha", alpha, "--kappa", kappa, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.REPORT_DIGESTS[alpha, kappa]

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


@pytest.mark.parametrize("argv, out", [
    (["riemann", "--alpha", "0.5", "--kappa", "0", "--left", "1.5,1.0", "--right", "2.0,0.0"],
     "p.csv"),
    (["interact", "--alpha", "0.5", "--kappa", "0", "--epsilon", "0.1", "--left", "1.5,1.6",
      "--middle", "0.95,1.62", "--right", "2.0,0.0"], "timeline.json"),
    (["limits", "--study", "kappa", "--values", "1,0.1", "--fixed", "0.5",
      "--left", "1.5,1.0", "--right", "2.0,0.0"], "table.csv"),
], ids=["riemann", "interact", "limits-target"])
def test_zero_right_coefficient_exit_2(tmp_path, capsys, argv, out):
    # kappa = 0 and b+ = 0: 3*alpha*b+ + kappa*h+ = 0 on interior data used
    # to end in a ZeroDivisionError traceback from intermediate_state (exit 1)
    assert run_cli([*argv, "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 3*alpha*b + kappa*h of the right state State(h=2.0, b=0.0) is 0")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


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
