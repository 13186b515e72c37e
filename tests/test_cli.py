import json
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
    @pytest.mark.parametrize(
        "extras",
        [{"delta_window": [0.0, 1.0]}, {"delta_background": [[1.5, 1.6], [1.25, 1.15]]}],
    )
    def test_half_given_delta_config_exit_2(self, tmp_path, capsys, scheme, extras):
        # one of the two keys alone used to run and record an empty delta_mass
        cfg = self._config(tmp_path, extras)
        out = tmp_path / "x.csv"
        assert run_cli([scheme, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "delta_window" in err and "delta_background" in err
        assert not out.exists()

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

    def test_thread_env_respected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("THINFILM_THREADS", "2")
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


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        res = subprocess.run(
            [
                sys.executable, "-m", "thinfilm.cli",
                "riemann", "--alpha", "0.5", "--kappa", "1",
                "--left", "2,2", "--right", "0,1",
                "--out", str(tmp_path / "d.csv"),
            ],
            capture_output=True,
        )
        assert res.returncode == 0
        doc = json.loads((tmp_path / "d.json").read_text())
        assert doc["case"] == "delta-shock"
        assert doc["waves"][0]["strength_rate"] == pytest.approx(10.0 / 3.0)
