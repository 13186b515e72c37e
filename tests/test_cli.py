import contextlib
import copy
import functools
import hashlib
import io
import itertools
import json
import math
import operator
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from thinfilm import cli, numerics
from thinfilm.cli import main
from thinfilm.riemann import fan_from_json

from cases import (
    DELTA, DS_JR_NEAR_VACUUM, JR, JR_JS, JS, JS_JS, NEAR_VACUUM_DELTA, TWO_STATE,
    arg, config, options, state_options,
)


@pytest.fixture(autouse=True)
def in_tmp_path(tmp_path, monkeypatch):
    """Each test runs in its own empty directory, where the CLI writes its files."""
    monkeypatch.chdir(tmp_path)


# The README's CLI contract is stated once for each outcome: assert_accepted for a run that exits 0,
# assert_rejected for input that the CLI must reject.  Every run of main but --help goes through one.


def write_config(config):
    """``config``, if given, as cfg.json in the working directory."""
    if config is not None:
        Path("cfg.json").write_text(json.dumps(config))


def _cell_ok(cell):
    """Blank, a label such as J+R, or a finite float written as its own 17 digits."""
    try:
        value = float(cell)
    except ValueError:
        return True
    return math.isfinite(value) and f"{value:.17g}" == cell


def read_output(name):
    """A JSON output, checked to be strict JSON in the writer's bytes; or a CSV
    output's rows of cells, header first, checked to hold a cell per header
    name, each as ``_cell_ok`` has it."""
    text = Path(name).read_text()
    if name.endswith(".json"):
        doc = json.loads(text, parse_constant=lambda c: pytest.fail(f"not JSON: {c}"))
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == text, name
        return doc
    rows = [line.split(",") for line in text.splitlines()]
    for r in rows:
        assert len(r) == len(rows[0]) and all(map(_cell_ok, r)), (name, r)
    return rows


def assert_accepted(argv, outputs, config=None):
    """Run ``main(argv)`` in the working directory on input it must accept,
    ``config`` (if given) written to cfg.json first, and check the README's
    contract: it returns 0 and prints nothing; the directory then holds the
    files there before and the named ``outputs``, no more; and each output is
    as ``read_output`` checks it.  Returns the outputs read, in their order."""
    write_config(config)
    before = set(os.listdir())
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        got = main(argv)
    assert (got, out.getvalue(), err.getvalue()) == (0, "", "")
    assert set(os.listdir()) == before | set(outputs)
    return [read_output(name) for name in outputs]


def assert_rejected(argv, code, text, config=None):
    """Run ``main(argv)`` in the working directory on input it must reject,
    ``config`` (if given) written to cfg.json first, and check the README's
    contract: it returns ``code`` and prints nothing to stdout; stderr holds
    no traceback and one line with ``error:``, whose message from ``error:``
    on starts with ``text`` (is ``text``, if that ends in a newline); and no
    file is left beside those there before."""
    write_config(config)
    before = sorted(os.listdir())
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        got = main(argv)
    err = err.getvalue()
    lines = [line for line in err.splitlines(keepends=True) if "error:" in line]
    assert (got, out.getvalue(), len(lines), "Traceback" in err) == (code, "", 1, False), err
    assert lines[0][lines[0].index("error:"):].startswith(text), err
    assert sorted(os.listdir()) == before


def edited(doc, edits):
    """A copy of the config ``doc`` with each dotted path of ``edits`` (list
    items by index) set to its value, or removed where that is DROP."""
    doc = copy.deepcopy(doc)
    for path, value in edits.items():
        *parents, last = (int(k) if k.isdigit() else k for k in path.split("."))
        target = functools.reduce(operator.getitem, parents, doc)
        if value is DROP:
            del target[last]
        else:
            target[last] = value
    return doc


DROP = object()  # an edited() value that removes the key
# a two-state godunov/llf config that runs; tests and rows change copies
CFG = config(JS, grid={"xmin": -2.0, "xmax": 6.0, "ncells": 200}, cfl=0.45, t_end=0.5)
PERTURBED = {**CFG, "initial": config(JS_JS)["initial"]}
RIEMANN = f"riemann {options(JR)}"
INTERACT = f"interact {options(JS_JS)}"
# JR+JS data: the generic engine, which splits the fan into n_fan shocklets
GENERIC = "interact --alpha 0.5 --kappa 1.0 --epsilon 0.1 --left 1.0,1.0 --middle 2.0,2.0 --right 0.5,0.5"
LIMITS = f"limits --study kappa --fixed 0.5 {state_options(JR)}"
TAU = 2.0**-50  # (alpha, kappa) -> TAU * (alpha, kappa) multiplies every wave speed by TAU


class TestRiemannCommand:
    def test_example_profile(self):
        lines, fan_doc = assert_accepted(f"{RIEMANN} --t 1.0 --samples 200 --x-min -1 --x-max 4 "
                                         "--out prof.csv".split(), ["prof.csv", "prof.json"])
        assert lines[0] == ["x", "h", "b", "singular_weight"]
        rows = [list(map(float, l)) for l in lines[1:]]
        # contact sits at x = 0.558*t: h jumps from 1.24 there
        before = [r for r in rows if r[0] < 0.5]
        assert all(abs(r[1] - 1.24) < 1e-12 for r in before)
        assert fan_doc["case"] == "J+R"
        assert len(fan_from_json(fan_doc).waves) == 2

    def test_equal_states_constant_profile(self):
        rows, _ = assert_accepted("riemann --alpha 0.5 --kappa 1 --left 1.0,1.0 --right 1.0,1.0 "
                                  "--out c.csv".split(), ["c.csv", "c.json"])
        assert {r[1] for r in rows[1:]} == {"1"}

    def test_singular_row_carries_right_state(self):
        # (speed * t) / t rounds below speed for this pair: re-sampling the
        # ray would land left of the delta front and report the left state
        left, right = "0.5708686913050158,2.589412759799674", "0,1.5819176697626334"
        rows, fan_doc = assert_accepted(f"riemann --alpha 0.5 --kappa 1 --left {left} --right {right} "
                                        "--t 1.5 --samples 50 --out d.csv".split(), ["d.csv", "d.json"])
        [ds] = fan_from_json(fan_doc).waves
        assert ds.speed * 1.5 / 1.5 != ds.speed
        singular = [r for r in rows[1:] if float(r[3]) != 0.0]
        want = (ds.speed * 1.5, 0.0, 1.5819176697626334, ds.strength_rate * 1.5)
        assert singular == [[f"{v:.17g}" for v in want]]

    def test_deterministic_output(self, tmp_path):
        args = f"riemann {options(TWO_STATE['J+S'])} --samples 64 --out".split()
        assert_accepted(args + ["a.csv"], ["a.csv", "a.json"])
        assert_accepted(args + ["b.csv"], ["b.csv", "b.json"])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_time_scaled_js_fan(self):
        # (alpha, kappa) = 2^-50 * (0.5, 1): w1 ties compared with an absolute
        # floor read this J+S data as a lone contact
        _, fan_doc = assert_accepted(f"riemann --alpha {TAU * 0.5!r} --kappa {TAU!r} "
                                     f"{state_options(TWO_STATE['J+S'])} --out s.csv".split(), ["s.csv", "s.json"])
        assert fan_doc["case"] == "J+S"
        assert [w["type"] for w in fan_doc["waves"]] == ["contact", "shock"]


def fv_run(scheme, config):
    """A godunov or llf run of ``config`` through the contract; its profile and diagnostics."""
    argv = f"{scheme} --config cfg.json --out x.csv".split()
    return assert_accepted(argv, ["x.csv", "x_diag.json"], config)


class TestSchemeCommands:
    def test_godunov_run(self):
        rows, diag = fv_run("godunov", CFG)
        assert rows[0] == ["x", "h", "b", "w1", "w2"]
        assert diag["max_conservation_residual"] <= 1e-12
        assert diag["l1_error_vs_exact"] < 0.2
        assert diag["cfl"] == 0.45

    def test_llf_run(self):
        fv_run("llf", CFG)

    def test_perturbed_initial(self):
        fv_run("godunov", edited(PERTURBED, {"grid.ncells": 150, "t_end": 0.3}))

    @pytest.mark.parametrize("scheme", ["godunov", "llf"])
    @pytest.mark.parametrize("key", ["delta_window", "delta_background"],
                             ids=["window-only", "background-only"])
    def test_delta_key_alone(self, scheme, key):
        # the point mass is measured against the initial outer states:
        # delta_window alone records the final [t, mass] pair that window
        # plus background records, and delta_background alone is ignored
        both = {"delta_window": [0.0, 1.0], "delta_background": [CFG["initial"][k] for k in ("left", "right")]}
        diags = [fv_run(scheme, edited(CFG, extras))[1] for extras in (both, {key: both[key]})]
        [[t, _]] = diags[0]["delta_mass"]
        assert t == 0.5 and diags[0]["n_steps"] > 0
        if key == "delta_window":
            assert diags[1] == diags[0]
        else:
            assert diags[1] == {**diags[0], "delta_mass": []}

    def test_infinite_t_end_exit_2(self, tmp_path, src_env):
        # used to run forever; a child process, so that it cannot hang the suite
        write_config(edited(CFG, {"t_end": math.inf}))
        out = tmp_path / "x.csv"
        res = subprocess.run(
            [sys.executable, "-m", "thinfilm.cli", "godunov", "--config", "cfg.json", "--out", str(out)],
            capture_output=True, text=True, env=src_env, timeout=60,
        )
        assert res.returncode == 2
        assert res.stderr == "error: t_end must be finite and positive, got inf\n"
        assert not out.exists()

    @pytest.mark.parametrize("scheme", ["godunov", "llf"])
    def test_diag_holds_ends_of_run_series(self, scheme):
        # the file holds run()'s first and last masses and delta_mass of
        # the final field, bit for bit
        _, diag = fv_run(scheme, edited(CFG, {"delta_window": [0.0, 1.0]}))
        f0 = numerics.field_from_riemann(JS, numerics.Grid(-2.0, 6.0, 200))
        final, ref = numerics.run(f0, numerics.SchemeConfig(scheme=scheme, t_end=0.5), JS.params)
        mass = numerics.delta_mass(final, (0.0, 1.0), (JS.left, JS.right))
        want = {
            "mass_h": ref["mass_h"],
            "mass_b": ref["mass_b"],
            "delta_mass": [[final.t, mass]],
        }
        for key, values in want.items():
            assert [x.hex() for x in np.ravel(diag[key])] == [x.hex() for x in np.ravel(values)]

    def test_blank_w_columns_near_vacuum(self):
        grid = {"xmin": -0.2, "xmax": 0.6, "ncells": 100}
        rows, _ = fv_run("llf", config(NEAR_VACUUM_DELTA, grid=grid, cfl=0.45, t_end=0.05))
        assert rows[-1][-2:] == ["", ""]  # w1, w2 blank where h ~ 0


class TestInteractCommand:
    def test_timeline_and_profiles(self):
        doc, prof = assert_accepted(f"{INTERACT} --profile-times 1.0 --samples 100 --x-min -2 --x-max 4 "
                                    "--out tl.json".split(), ["tl.json", "tl_t1.csv"])
        assert doc["case"] == "JS+JS"
        assert len(doc["events"]) == 2
        assert prof[0] == ["x", "h", "b"]

    def test_delta_case_timeline(self):
        [doc] = assert_accepted(f"interact {options(DS_JR_NEAR_VACUUM)} --out tl.json".split(), ["tl.json"])
        assert doc["case"] == "dS+JR"
        assert doc["residual_delta_contact"]["strength"] == pytest.approx(2 * 5.5 * 0.1)
        curved = [f for f in doc["fronts"] if "curve" in f]
        assert curved and len(curved[0]["curve"]) > 2

    def test_space_time_scaled_generic_cascade(self):
        # the eps = 0.1, t-max 20 JR+JS cascade (123 events) with x and t
        # scaled by 1e-12: absolute event tolerances found no event
        [doc] = assert_accepted("interact --alpha 0.5 --kappa 1 --epsilon 1e-13 --left 1.0,0.5 --middle 2.0,1.5 "
                                "--right 1.25,1.15 --t-max 2e-11 --out tl.json".split(), ["tl.json"])
        assert doc["case"] == "JR+JS"
        assert len(doc["events"]) == 123

    def test_t_max_read_by_the_generic_engine_alone(self):
        # JS+JS is resolved in closed form to its last event: a --t-max
        # before the first event changes no byte of the timeline
        [doc] = assert_accepted(f"{INTERACT} --out a.json".split(), ["a.json"])
        assert_accepted(f"{INTERACT} --t-max 0.001 --out b.json".split(), ["b.json"])
        assert min(e["t"] for e in doc["events"]) > 0.001
        assert Path("a.json").read_bytes() == Path("b.json").read_bytes()

    def test_time_scaled_js_jr(self):
        # (alpha, kappa) = 2^-50 * (0.5, 1): both sub-problems used to read as
        # lone contacts, a pattern outside the enumerated ones (exit 2)
        [doc] = assert_accepted(f"interact --alpha {TAU * 0.5!r} --kappa {TAU!r} --epsilon 0.1 "
                                f"{state_options(replace(JS_JS, right=JR.right))} --out tl.json".split(), ["tl.json"])
        assert doc["case"] == "JS+JR"


class TestLimitsCommand:
    def test_table(self):
        # --samples is accepted and ignored: the l1 column is exact
        argv = f"{LIMITS} --values 1,0.5,0.1 --samples 2000 --out table.csv".split()
        [lines] = assert_accepted(argv, ["table.csv"])
        assert lines[0] == ["value", "case", "l1", "dsigma", "dbeta_rate", "weak1", "weak2", "weak3"]
        l1s = [float(l[2]) for l in lines[1:]]
        assert l1s[0] > l1s[1] > l1s[2]
        # equal states give fans without waves, which used to exit 2 (min() of no edges)
        [lines] = assert_accepted(argv + ["--right", arg(JR.left)], ["table.csv"])
        assert [l[1:3] for l in lines[1:]] == [["pure-J", "0"]] * 3

    def test_two_row_delta_shock_table(self):
        [lines] = assert_accepted(f"{LIMITS} --values 1,0.1 {state_options(DELTA)} --out table.csv".split(),
                                  ["table.csv"])
        assert len(lines) == 3
        assert lines[1][1] == "delta-shock"


def entropy_check(options):
    """An ``entropy-check`` run with ``options``, through the contract; its report."""
    return assert_accepted(f"entropy-check {options} --out entropy.json".split(), ["entropy.json"])[0]


class TestEntropyCheckCommand:
    def test_report_ok(self):
        doc = entropy_check("--alpha 0.5 --kappa 1 --n-grid 10")
        assert all(e["verdict"] == "convex" for e in doc["pairs"])

    def test_alpha_zero_inconclusive_not_failure(self):
        doc = entropy_check("--alpha 0 --kappa 1 --n-grid 8")
        assert all(e["verdict"] == "inconclusive" for e in doc["pairs"])

    def test_tiny_alpha_convex(self):
        # 9*alpha^2 underflows to 0 below alpha ~ 1e-162: every pair used to
        # read "fails" with exit 5, though the form's bracket is positive
        doc = entropy_check("--alpha 1e-170 --kappa 1 --n-grid 8")
        assert all(e["verdict"] == "convex" and e["min_form1"] == 0.0 for e in doc["pairs"])

    @pytest.mark.parametrize("kappa", ["0", "1"])
    @pytest.mark.parametrize("alpha", ["50", "1e3", "1e6"])
    def test_large_alpha_convex(self, alpha, kappa):
        # the Theta ODE residual, 0 in exact arithmetic, rounds to more than
        # the -2*w1*Psi' term beside it: up to four pairs used to read
        # "fails" with exit 5
        doc = entropy_check(f"--alpha {alpha} --kappa {kappa}")
        assert all(e["verdict"] == "convex" for e in doc["pairs"])

    def test_overflowing_alpha_inconclusive(self):
        # named for the verdict it used to pin: alpha**2 raised an
        # OverflowError traceback with exit 1, then the forms read NaN and
        # the verdict inconclusive; the closed r1 form, alpha folded into
        # w1^(-n/2), stays finite and the verdict reads the coefficients
        doc = entropy_check("--alpha 1e200 --kappa 1 --n-grid 8")
        assert all(e["verdict"] == "convex" for e in doc["pairs"])
        assert all(0.0 < e["min_form1"] < math.inf for e in doc["pairs"])

    @pytest.mark.parametrize("alpha, kappa", [("1e300", "1"), ("1e-300", "1e-300")])
    def test_non_finite_values_written_as_null(self, alpha, kappa):
        # residuals that read NaN and minima that read inf used to be written
        # as the bare NaN and Infinity, which are not JSON
        doc = entropy_check(f"--alpha {alpha} --kappa {kappa} --n-grid 8")
        assert None in [v for e in doc["pairs"] for v in e.values()]

    @pytest.mark.parametrize("kappa", ["0", "1"])
    def test_underflowing_psi_inconclusive(self, kappa):
        # named for the verdict it used to pin: at w1 ~ 1e100 Psi'' of the
        # w1^-2 and w1^-3 pairs underflows to 0, and the canonical pair's r1
        # form read -2.73e137 through rounding in the Theta terms; the
        # verdict reads the coefficients instead
        doc = entropy_check(f"--alpha 1e100 --kappa {kappa}")
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
    def test_benchmark_reports_unchanged(self, alpha, kappa):
        entropy_check(f"--alpha {alpha} --kappa {kappa}")
        digest = hashlib.sha256(Path("entropy.json").read_bytes()).hexdigest()
        assert digest == self.REPORT_DIGESTS[alpha, kappa]


class TestEntryPoint:
    def test_module_invocation(self, tmp_path, src_env):
        res = subprocess.run(
            [
                sys.executable, "-m", "thinfilm.cli",
                "riemann", *options(TWO_STATE["delta"]).split(),
                "--out", str(tmp_path / "d.csv"),
            ],
            capture_output=True,
            env=src_env,
        )
        assert res.returncode == 0
        doc = json.loads((tmp_path / "d.json").read_text())
        assert doc["case"] == "delta-shock"
        assert doc["waves"][0]["strength_rate"] == pytest.approx(10.0 / 3.0)


README = Path(__file__).resolve().parents[1] / "README.md"
# the files that each README command writes, by its --out
README_OUTPUTS = {
    "jr.csv": ["jr.csv", "jr.json"],
    "delta.csv": ["delta.csv", "delta.json"],
    "js.csv": ["js.csv", "js_diag.json"],
    "timeline.json": ["timeline.json", "timeline_t1.csv", "timeline_t15.csv"],
    "table.csv": ["table.csv"],
    "entropy.json": ["entropy.json"],
}


def test_readme_commands():
    # the README's sh blocks in order, as a shell runs them in one directory:
    # each `cat > NAME <<'EOF'` writes its config, each `thinfilm` line runs
    # through the contract, and the other lines (pip, pytest) are skipped
    ran = set()
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S):
        lines = iter(block.replace("\\\n", " ").splitlines())
        for line in lines:
            heredoc = re.fullmatch(r"cat > (\S+) <<'EOF'", line)
            if heredoc:
                body = itertools.takewhile(lambda text: text != "EOF", lines)
                Path(heredoc[1]).write_text("".join(f"{text}\n" for text in body))
            elif line.startswith("thinfilm "):
                argv = shlex.split(line)[1:]
                out = argv[argv.index("--out") + 1]
                assert_accepted(argv, README_OUTPUTS[out])
                ran.add(out)
    assert ran == set(README_OUTPUTS)


# Rejected input: every input the CLI must reject is a row of REJECTED.  A row keeps the id it had
# as a test of its own and is collected under it; rows added since are test_rejected[...].


def row(test, argv, text, code=2, config=None):
    """A row of REJECTED; ``config``, if given, is written to cfg.json first."""
    return test, argv.split(), code, text, config


def fv(test, scheme, config, text, code=2):
    return row(test, f"{scheme} --config cfg.json --out x.csv", text, code, config)


FV = ("godunov", "llf")
# a size beyond any machine's memory, rejected by name before anything is allocated
HUGE = 10**17


def beyond(what):
    return f"error: {what} {HUGE} needs about "


ARG = "error: argument"
TIMES = f"{ARG} --profile-times: not a comma list of finite positive times"

REJECTED = [
    row("TestRiemannCommand::test_malformed_state_exit_2", "riemann --alpha 0.5 --kappa 1 --left nonsense "
        "--right 1,1 --out x.csv", f"{ARG} --left: state must be 'h,b', got 'nonsense'\n"),
    *(row(f"TestRiemannCommand::test_non_finite_range_exit_2[{flag}-{v}]",
          f"{RIEMANN} --samples 3 {flag}={v} --out prof.csv", f"{ARG} {flag}: not a finite number: '{v}'\n")
      for flag, v in [("--x-min", "nan"), ("--x-max", "inf"), ("--x-min", "-inf")]),
    row("TestRiemannCommand::test_negative_samples_exit_2", f"{RIEMANN} --samples=-1 --out prof.csv",
        f"{ARG} --samples: not a non-negative integer: '-1'\n"),
    row("test_rejected[riemann-samples-abc]", f"{RIEMANN} --samples abc --out prof.csv",
        f"{ARG} --samples: not a non-negative integer: 'abc'\n"),
    row("TestRiemannCommand::test_assumption_violation_exit_2", "riemann --alpha 0.5 --kappa 1 --left 0,1 "
        "--right 0,2 --out x.csv", "error: at most one of h-, b-, h+, b+ may vanish; "
        "got left=State(h=0.0, b=1.0), right=State(h=0.0, b=2.0)\n"),
    row("TestRiemannCommand::test_io_error_exit_1", "riemann --alpha 0.5 --kappa 1 --left 1,1 --right 2,2 "
        "--out /nonexistent-dir/x.csv", "error: [Errno 2] No such file or directory: "
        "'/nonexistent-dir/x.csv'\n", code=1),
    # the profile is written, then the fan's file cannot be: the profile is removed
    row("test_rejected[riemann-fan-out-io]", "riemann --alpha 0.5 --kappa 0 --left 2,1 --right 1,1 --samples 5 "
        "--out ok.csv --fan-out /nonexistent-dir/f.json", "error: [Errno 2] No such file or directory: "
        "'/nonexistent-dir/f.json'\n", code=1),
    *(row(f"TestRiemannCommand::test_bad_time_exit_2[{t}]", f"{RIEMANN} --t {t} --out prof.csv", text)
      for t, text in [("0", "error: profile time must be finite and positive, got t=0.0\n"),
                      ("-1", "error: profile time must be finite and positive, got t=-1.0\n"),
                      ("nan", f"{ARG} --t: not a finite number: 'nan'\n")]),
    *(row(f"TestRiemannCommand::test_infinite_lambda2_exit_2[{left}-{right}-{side}]",
          f"riemann --alpha 0.5 --kappa 1e308 --left {left} --right {right} --out prof.csv",
          f"error: lambda2 of the {side} state")
      for left, right, side in [("1.24,0.90", "1.5,1.56", "right"), ("2,2", "0,1", "left"),
                                ("0,1", "2,2", "right")]),
    row("TestRiemannCommand::test_infinite_strength_rate_exit_2", "riemann --alpha 0.5 --kappa 0 "
        "--left 2,1e300 --right 0,1e300 --out d.csv --fan-out fan.json",
        "error: the point-mass growth rate b * sigma of the right state"),
    fv("TestSchemeCommands::test_bad_config_exit_2", "godunov", {"alpha": 0.5},
       "error: config is missing 'kappa'\n"),
    *(fv(f"TestSchemeCommands::test_malformed_grid_exit_2[{name}-{s}]", s,
         edited(CFG, {f"grid.{name.split('-')[0]}": v}), "error: grid needs")
      for s in FV for name, v in [("ncells-fraction", 100.5), ("ncells-float", 100.0),
                                  ("ncells-string", "100"), ("ncells-bool", True),
                                  ("xmin-nan", math.nan), ("xmax-inf", math.inf)]),
    *(fv(f"TestSchemeCommands::test_mistyped_config_exit_2[{name}-{s}]", s,
         edited(CFG, {path: v}), f"error: config {path.split('.')[-1]} must be")
      for s in FV for name, path, v in [
          ("cfl-string", "cfl", "0.4"), ("t_end-string", "t_end", "0.5"),
          ("alpha-string", "alpha", "0.5"), ("left-one-number", "initial.left", [1.5]),
          ("grid-list", "grid", [1]), ("initial-list", "initial", [1])]),
    *(fv(f"TestSchemeCommands::test_huge_integer_exit_2[{name}]", "godunov",
         edited(PERTURBED, {"h_tol": 1e-10, "delta_window": [0.0, 1.0], path: 10**400}),
         f"error: config {key} must be a number in float range\n")
      for name, key, path in [
          ("alpha", "alpha", "alpha"), ("kappa", "kappa", "kappa"), ("h_tol", "h_tol", "h_tol"),
          ("cfl", "cfl", "cfl"), ("t_end", "t_end", "t_end"), ("xmin", "grid.xmin", "grid.xmin"),
          ("xmax", "grid.xmax", "grid.xmax"), ("left", "left", "initial.left.0"),
          ("middle", "middle", "initial.middle.1"), ("right", "right", "initial.right.0"),
          ("epsilon", "epsilon", "initial.epsilon"), ("window-lower", "delta_window", "delta_window.0"),
          ("window-upper", "delta_window", "delta_window.1")]),
    *(fv(f"TestSchemeCommands::test_missing_key_exit_2[{section or 'top'}-{key}]", "godunov",
         edited(PERTURBED, {f"{section}.{key}".lstrip("."): DROP}),
         f"error: {('config ' + section).strip()} is missing '{key}'\n")
      for section, keys in [("", "alpha kappa t_end grid initial"), ("grid", "xmin xmax ncells"),
                            ("initial", "left right epsilon")] for key in keys.split()),
    *(fv(f"TestSchemeCommands::test_bad_t_end_exit_2[{name}-{initial}-{s}]", s,
         edited(doc, {"t_end": t_end}), f"error: t_end must be finite and positive, got {t_end}\n")
      for s in FV for initial, doc in [("two-state", CFG), ("perturbed", PERTURBED)]
      for name, t_end in [("zero", 0.0), ("negative", -1), ("nan", math.nan)]),
    *(fv(f"TestSchemeCommands::test_list_config_exit_2[{s}]", s, [1, 2],
         "error: config document must be a JSON object") for s in FV),
    *(fv(f"TestSchemeCommands::test_malformed_delta_window_exit_2[{name}-{s}]", s,
         edited(CFG, {"delta_window": window}), f"error: config delta_window must be {message}")
      for s in FV for message, cases in [
          ("a list of two", [("empty", []), ("zero", 0), ("false", False), ("empty-string", ""),
                             ("number", 5)]),
          ("a number", [("string-bound", [0.0, "1"])]),
          ("finite, lower bound first", [("reversed", [0.5, 0.1]), ("empty-range", [0.5, 0.5]),
                                         ("inf", [0.0, math.inf]), ("nan", [math.nan, 1.0])])]
      for name, window in cases),
    *(fv(f"TestSchemeCommands::test_window_off_grid_exit_2[{s}]", s,
         edited(CFG, {"delta_window": [10.0, 20.0]}), "error: window lies outside the grid\n") for s in FV),
    fv("TestSchemeCommands::test_scheme_failure_exit_3", "godunov",
       edited(CFG, {"grid": {"xmin": -1.0, "xmax": 1.0, "ncells": 16}, "t_end": 1.0,
                    "initial.left": [1e200, 1e200], "initial.right": [1.0, 1.0]}),
       "error: wave speeds overflow at t=0.0\n", code=3),
    row("TestInteractCommand::test_bad_profile_time_exit_2",
        f"{INTERACT} --profile-times 0 --samples 100 --x-min -2 --x-max 4 --out tl.json",
        f"{TIMES}: '0'\n"),
    row("TestInteractCommand::test_budget_exit_4", f"interact {options(JR_JS)} --n-fan 48 --budget 3 "
        "--out tl.json", "error: interaction cascade exceeded 3 events\n", code=4),
    *(row(f"TestInteractCommand::test_negative_budget_exit_2[{name}]",
          f"interact {options(data)} --budget -1 --out tl.json", "error: budget must not be negative, got -1\n")
      for name, data in [("generic", JR_JS), ("closed-form", JS_JS)]),
    *(row(f"TestInteractCommand::test_non_finite_option_exit_2[{flag}-{v}]",
          f"{INTERACT} --profile-times 1 --samples 3 {flag} {v} --out tl.json",
          f"{ARG} {flag}: not a finite number: '{v}'\n")
      for flag, v in [("--x-min", "nan"), ("--x-max", "inf"), ("--t-max", "nan")]),
    *(row(f"TestInteractCommand::test_bad_profile_option_writes_nothing[{name}]",
          f"{INTERACT} {options} --out tl.json", text)
      for name, options, text in [
          ("time-nan", "--profile-times=1,nan --samples=5", f"{TIMES}: '1,nan'\n"),
          ("time-negative", "--profile-times=1,-2 --samples=5", f"{TIMES}: '1,-2'\n"),
          ("samples-negative", "--profile-times=1 --samples=-1",
           f"{ARG} --samples: not a non-negative integer: '-1'\n")]),
    *(row(f"TestInteractCommand::test_malformed_state_exit_2[{flag}-{v}-{message}]",
          f"{INTERACT} {flag}={v} --out tl.json", f"{ARG} {flag}: {message}\n")
      for flag, v, message in [("--left", "a,b", "could not convert string to float: 'a'"),
                               ("--left", "-1,2", "state outside quadrant (-1.0, 2.0)"),
                               ("--middle", "1", "state must be 'h,b', got '1'")]),
    *(row(f"TestInteractCommand::test_nonpositive_n_fan_exit_2[{n_fan}]",
          f"{GENERIC} --n-fan {n_fan} --t-max 5 --out tl.json", "error: n_fan must be at least 1")
      for n_fan in ["0", "-5"]),
    # a t_max not after t = 0 used to write a timeline of no events
    *(row(f"test_rejected[interact-t-max-{name}]", f"{GENERIC} --t-max {t} --out tl.json",
          f"error: t_max must be positive, got {float(t)}\n") for name, t in [("zero", "0"), ("negative", "-1")]),
    row("TestLimitsCommand::test_malformed_values_exit_2", f"{LIMITS} --values 1,x --out table.csv",
        f"{ARG} --values: not a comma list of finite numbers: '1,x'\n"),
    row("TestLimitsCommand::test_infinite_lambda2_exit_2", f"{LIMITS} --values 1e308,1 --out table.csv",
        "error: lambda2 of the right state"),
    *(row(f"TestLimitsCommand::test_non_finite_l1_exit_2[{name}]",
          f"limits --study kappa {options} --out table.csv",
          "error: the exact L1 distance at kappa=1.0 is not finite\n")
      for name, options in [("overflow", "--values 1,0.1 --fixed 0.5 --left 1.24,0.9 --right 1e154,0.5"),
                            ("nan", "--values 1,0.1,0.01 --fixed 3 --left 0.109,1.03 --right 1.63,1e200")]),
    row("TestEntropyCheckCommand::test_empty_grid_exit_2",
        "entropy-check --alpha 0.5 --kappa 1 --n-grid 0 --out entropy.json",
        "error: n_grid must be at least 1"),
    *(row(f"test_zero_right_coefficient_exit_2[{name}]", argv,
          "error: 3*alpha*b + kappa*h of the right state State(h=2.0, b=0.0) is 0")
      for name, argv in [
          ("riemann", "riemann --alpha 0.5 --kappa 0 --left 1.5,1.0 --right 2.0,0.0 --out p.csv"),
          ("interact", f"{INTERACT} --right 2.0,0.0 --out timeline.json"),
          ("limits-target", f"{LIMITS} --values 1,0.1 --left 1.5,1.0 --right 2.0,0.0 --out table.csv")]),
    row("test_rejected[riemann-samples]", f"riemann --alpha 0.5 --kappa 0 --left 2,1 --right 1,1 "
        f"--samples {HUGE} --out big.csv", beyond("--samples")),
    row("test_rejected[interact-samples]", f"{INTERACT} --profile-times 1 --samples {HUGE} --out tl.json",
        beyond("--samples")),
    row("test_rejected[interact-n-fan]", f"{GENERIC} --n-fan {HUGE} --t-max 5 --out tl.json",
        beyond("--n-fan")),
    *(fv(f"test_rejected[{s}-ncells]", s, edited(CFG, {"grid.ncells": HUGE}), beyond("config grid.ncells"))
      for s in FV),
    row("test_rejected[riemann-right]", f"{RIEMANN} --right=-1,2 --out prof.csv",
        f"{ARG} --right: state outside quadrant (-1.0, 2.0)\n"),
    row("test_rejected[limits-left]", f"{LIMITS} --values 1,0.1 --left a,b --out table.csv",
        f"{ARG} --left: could not convert string to float: 'a'\n"),
    row("test_rejected[limits-right]", f"{LIMITS} --values 1,0.1 --right 1 --out table.csv",
        f"{ARG} --right: state must be 'h,b', got '1'\n"),
    *(row(f"test_rejected[limits-values-{values}]", f"{LIMITS} --values {values} --out table.csv",
          f"{ARG} --values: not a comma list of finite numbers: '{values}'\n")
      for values in ["1,nan", "nan"]),
    *(row(f"test_rejected[{cmd.split()[0]}-{flag[2:]}-{v}]", f"{cmd} {flag} {v} --out x",
          f"{ARG} {flag}: not a finite number: '{v}'\n")
      for cmd, flag, v in [(RIEMANN, "--kappa", "inf"), (RIEMANN, "--x-min", "abc"),
                           (INTERACT, "--epsilon", "inf"), (f"{LIMITS} --values 1,0.1", "--fixed", "nan"),
                           ("entropy-check --kappa 1", "--alpha", "nan")]),
]


def _table_test(rows):
    """The test of ``rows`` of one name: parametrized by their ids, or plain for one row without."""
    def test(row):
        assert_rejected(*row[1:])

    ids = [name.partition("[")[2][:-1] for name, *_ in rows]
    if ids == [""]:
        return lambda: test(rows[0])
    return pytest.mark.parametrize("row", rows, ids=ids)(test)


def _collect_rows_as_tests(rows):
    """One test per name, in the class that the name gives (``Class::name``)."""
    by_name = {}
    for r in rows:
        by_name.setdefault(r[0].partition("[")[0], []).append(r)
    for name, group in by_name.items():
        owner, _, func = name.rpartition("::")
        setattr(globals()[owner] if owner else sys.modules[__name__], func, staticmethod(_table_test(group)))


_collect_rows_as_tests(REJECTED)


def test_io_error_part_way_leaves_no_file(monkeypatch):
    # the fan's file is created and then fails, as on a full disk: it goes,
    # and so does the profile written before it
    def failing_json(path, doc):
        with open(path, "w") as fh:
            fh.write("{")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "_write_json", failing_json)
    assert_rejected(f"{RIEMANN} --samples 5 --out ok.csv".split(), 1,
                    "error: [Errno 28] No space left on device\n")


# Sizes at ten times or more what 1 MB of physical memory holds by the
# command's own estimate, each small enough that no array of it is large
SIZES = {
    "riemann-samples": ("--samples", 100000, f"{RIEMANN} --samples 100000 --out prof.csv", None),
    "interact-samples": ("--samples", 100000, f"{INTERACT} --profile-times 1,2 --samples 100000 --out tl.json",
                         None),
    "interact-n-fan": ("--n-fan", 5000, f"{GENERIC} --n-fan 5000 --t-max 5 --out tl.json", None),
    **{f"{s}-ncells": ("config grid.ncells", 50000, f"{s} --config cfg.json --out x.csv",
                       edited(CFG, {"grid.ncells": 50000})) for s in FV},
}


@pytest.mark.parametrize("name", SIZES)
def test_size_beyond_physical_memory_exit_2(monkeypatch, name):
    # physical memory read as 1 MB: the size is rejected by name before
    # anything is allocated
    what, n, argv, config = SIZES[name]
    monkeypatch.setattr(cli, "_physical_memory", lambda: 10**6)
    assert_rejected(argv.split(), 2, f"error: {what} {n} needs about ", config)


def test_size_within_physical_memory_runs(monkeypatch):
    monkeypatch.setattr(cli, "_physical_memory", lambda: 10**6)
    assert_accepted(f"{RIEMANN} --samples 100 --out prof.csv".split(), ["prof.csv", "prof.json"])


def test_entropy_check_n_grid_allocates_nothing(monkeypatch):
    # the minima are read at the state box's corners, so --n-grid is recorded and no grid is built
    monkeypatch.setattr(cli, "_physical_memory", lambda: 10**6)
    args = "entropy-check --alpha 0.5 --kappa 1 --n-grid"
    [huge] = assert_accepted(f"{args} {10**12} --out huge.json".split(), ["huge.json"])
    [ref] = assert_accepted(f"{args} 50 --out ref.json".split(), ["ref.json"])
    assert (huge["pairs"], huge["grid"]["n"]) == (ref["pairs"], 10**12)


@pytest.mark.parametrize("argv", [[], *([c] for c in ("riemann", "godunov", "llf", "interact",
                                                      "limits", "entropy-check"))],
                         ids=lambda argv: argv[0] if argv else "thinfilm")
def test_help_exit_0(tmp_path, capsys, argv):
    assert main([*argv, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: {' '.join(['thinfilm', *argv])} ")
    assert list(tmp_path.iterdir()) == []
