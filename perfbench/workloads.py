"""Inputs, commands and correctness checks of the three benchmark workloads.

A workload is a list of operations.  Each operation is one ``thinfilm``
command line, run in process through ``thinfilm.cli.main(argv)``, plus a
check that reads the files the command wrote and decides whether the
operation succeeded.  Inputs come from a seed: seed 0 reproduces the
states of the acceptance suite and the README exactly, other seeds
jitter the states by a small relative amount and assert that every
jittered input stays in the case class of its seed-0 original.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from thinfilm.core import Params, State, phi
from thinfilm.interactions import PerturbedData, classify_case
# Bound here, not looked up on the module, so that the checks' own calls
# stay outside the spans tracing.py records.
from thinfilm.riemann import (
    CASE_DELTA, CASE_JR, RiemannData, classify, delta_shock, profile, solve,
)

# Gate tolerances.  Each is the bound an existing test or acceptance
# clause already uses; none is chosen here.
CONSERVATION_TOL = 1e-12  # criterion 4, and the positivity floor of numerics
POSITIVITY_TOL = -1e-12
DELTA_MASS_RTOL = 0.1  # criterion 5, delta-mass clause
GODUNOV_LONG_L1 = 0.1  # criterion 7, Godunov t=15 clause
TIMELINE_L1 = 0.5  # tests/test_interactions.py, JR+JS late profile

# Relative size of the seed jitter.  Small enough that every jittered
# input keeps its case class and its gates, large enough that each seed
# gives different bytes to the program.
JITTER = 1e-3


@dataclass
class OpResult:
    """Outcome of one checked operation."""

    ok: bool
    problems: list[str] = field(default_factory=list)
    values: dict = field(default_factory=dict)

    def require(self, cond: bool, what: str) -> None:
        if not cond:
            self.ok = False
            self.problems.append(what)


@dataclass
class Op:
    """One command: its argv, the directory it writes into, and its check."""

    name: str
    argv: list[str]
    out_dir: Path
    check: Callable[["Op", int], OpResult]
    expect: dict


@dataclass
class Workload:
    name: str
    seed: int
    ops: list[Op]
    # float64 cell arrays of the FV run, for the working-set estimate
    fv_cells: int = 0
    fv_arrays: int = 0


class _Jitter:
    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)

    def __call__(self, x: float) -> float:
        if self.seed == 0:
            return x
        return x * (1.0 + JITTER * self.rng.uniform(-1.0, 1.0))

    def state(self, h: float, b: float) -> tuple[float, float]:
        return self(h), self(b)


def _st(u: tuple[float, float]) -> str:
    return f"{u[0]!r},{u[1]!r}"


def _assert_class(got: str, want: str, what: str) -> None:
    if got != want:
        raise ValueError(f"seed jitter moved {what} from class {want!r} to {got!r}")


def _read_csv(path: Path, ncols: int) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(ncols), ndmin=2)


def _json_roundtrip_exact(path: Path) -> bool:
    """The file re-serialises byte for byte the way the CLI wrote it."""
    text = path.read_text()
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text


# ---------------------------------------------------------------- FV ops


def _check_fv(op: Op, rc: int) -> OpResult:
    r = OpResult(ok=True)
    r.require(rc == 0, f"exit code {rc}")
    if rc != 0:
        return r
    csv = op.out_dir / "field.csv"
    diag_path = op.out_dir / "field_diag.json"
    diag = json.loads(diag_path.read_text())
    data = _read_csv(csv, 3)
    x, h, b = data[:, 0], data[:, 1], data[:, 2]
    e = op.expect
    r.require(len(x) == e["ncells"], f"{len(x)} rows, want {e['ncells']}")
    res = float(diag["max_conservation_residual"])
    r.require(res <= CONSERVATION_TOL, f"conservation residual {res:.3e}")
    r.require(float(h.min()) >= POSITIVITY_TOL, f"min h {h.min():.3e}")
    r.require(float(b.min()) >= POSITIVITY_TOL, f"min b {b.min():.3e}")
    r.require(diag["n_steps"] > 0, "no steps taken")
    r.values["cell_steps"] = int(diag["n_steps"]) * int(diag["grid"]["n_cells"])

    p = Params(e["alpha"], e["kappa"], h_tol=e["h_tol"])
    outer = RiemannData(State(*e["left"]), State(*e["right"]), p)
    dx = (e["xmax"] - e["xmin"]) / e["ncells"]
    if "epsilon" in e:
        # perturbed data: distance to the unperturbed outer fan
        he, be, _ = profile(solve(outer), e["t_end"], x)
        l1 = float(np.sum(np.abs(h - he) + np.abs(b - be)) * dx)
        r.require(l1 <= GODUNOV_LONG_L1, f"t_end L1 {l1:.4f} > {GODUNOV_LONG_L1}")
    else:
        l1 = float(diag["l1_error_vs_exact"])
    r.values["l1_err"] = l1

    if "delta_window" in e:
        beta = e["right"][1] * phi(State(*e["left"]), p) * e["t_end"]
        mass = float(diag["delta_mass"][-1][1])
        relerr = abs(mass - beta) / beta
        r.require(relerr <= DELTA_MASS_RTOL, f"delta mass {mass:.4f} vs beta {beta:.4f}")
        r.values["delta_mass_relerr"] = relerr
        # known-red, recorded only: criterion 5's spike-location clause
        lo, hi = e["delta_window"]
        inside = (x >= lo) & (x <= hi)
        x_peak = float(x[inside][np.argmax(b[inside])])
        sigma = phi(State(*e["left"]), p)
        r.values["known_red.spike_offset_cells"] = abs(x_peak - sigma * e["t_end"]) / dx
    return r


def _fv_config(e: dict) -> dict:
    doc = {
        "alpha": e["alpha"],
        "kappa": e["kappa"],
        "h_tol": e["h_tol"],
        "grid": {"xmin": e["xmin"], "xmax": e["xmax"], "ncells": e["ncells"]},
        "cfl": 0.45,
        "t_end": e["t_end"],
        "initial": {"left": list(e["left"]), "right": list(e["right"])},
    }
    if "epsilon" in e:
        doc["initial"]["middle"] = list(e["middle"])
        doc["initial"]["epsilon"] = e["epsilon"]
    if "delta_window" in e:
        doc["delta_window"] = list(e["delta_window"])
        doc["delta_background"] = [list(e["left"]), list(e["right"])]
    return doc


def _fv_op(scheme: str, e: dict, work: Path) -> Op:
    cfg = work / "inputs" / f"{scheme}.json"
    cfg.write_text(json.dumps(_fv_config(e), indent=2) + "\n")
    out = work / scheme
    argv = [scheme, "--config", str(cfg), "--out", str(out / "field.csv")]
    return Op(scheme, argv, out, _check_fv, e)


def _godunov_long(seed: int, work: Path, smoke: bool) -> Workload:
    # Criterion 7, paper example 6.5 at epsilon = 0.025.  The left state
    # is not jittered: it carries the largest wave speed, so it fixes the
    # CFL step and every seed does the same number of cell-steps.
    j = _Jitter(seed)
    left = (1.5, 1.6)
    middle, right = j.state(0.95, 1.62), j.state(1.25, 1.15)
    p = Params(0.5, 0.0)
    pd = PerturbedData(0.025, State(*left), State(*middle), State(*right), p)
    _assert_class(classify_case(pd), "JS+JS", "the perturbed data")
    # smoke: t = 3 on a domain the waves have not left, at 5x the mesh width
    xmax, ncells, t_end = (60.0, int(round(65.0 / 2.665e-3)), 15.0) if not smoke else (12.0, 1276, 3.0)
    e = dict(
        alpha=0.5, kappa=0.0, h_tol=1e-10, xmin=-5.0, xmax=xmax, ncells=ncells,
        t_end=t_end, left=left, middle=middle, right=right, epsilon=0.025,
    )
    return Workload("fv-godunov-long", seed, [_fv_op("godunov", e, work)], ncells, 10)


def _llf_delta(seed: int, work: Path, smoke: bool) -> Workload:
    # Criterion 5: delta shock with h+ = 1e-7 under LLF at dx = 1e-4.
    j = _Jitter(seed)
    left, right = j.state(2.9, 1.70), (1e-7, j(5.56))
    p = Params(0.5, 0.0, h_tol=1e-6)
    d = RiemannData(State(*left), State(*right), p)
    _assert_class(classify(d), CASE_DELTA, "the delta data")
    # smoke: same mesh width (the mass clause is stated at dx = 1e-4) on a
    # domain cut down to the neighbourhood of the front
    xmin, xmax = (-0.3, 0.8) if not smoke else (-0.05, 0.35)
    ncells = int(round((xmax - xmin) / 1e-4))
    e = dict(
        alpha=0.5, kappa=0.0, h_tol=1e-6, xmin=xmin, xmax=xmax, ncells=ncells,
        t_end=0.1, left=left, right=right, delta_window=(0.15, 0.55),
    )
    return Workload("fv-llf-delta", seed, [_fv_op("llf", e, work)], ncells, 16)


# ------------------------------------------------------- exact-solver ops


def _check_interact(op: Op, rc: int) -> OpResult:
    r = OpResult(ok=True)
    r.require(rc == 0, f"exit code {rc}")
    if rc != 0:
        return r
    e = op.expect
    tl_path = op.out_dir / "timeline.json"
    doc = json.loads(tl_path.read_text())
    r.require(_json_roundtrip_exact(tl_path), "timeline JSON round-trip not exact")
    r.require(doc["case"] == e["case"], f"case {doc['case']!r}, want {e['case']!r}")
    r.require(len(doc["events"]) > 0, "no events")
    for t in e["times"]:
        data = _read_csv(op.out_dir / f"timeline_t{float(t):.17g}.csv", 3)
        r.require(len(data) == e["samples"], f"profile at t={t}: {len(data)} rows")
        r.require(bool(np.all(np.isfinite(data))), f"profile at t={t}: non-finite")
    if e.get("l1_bound") is not None:
        # against the outer fan at the last profile time
        xs, h, b = data[:, 0], data[:, 1], data[:, 2]
        p = Params(e["alpha"], e["kappa"], h_tol=e["h_tol"])
        outer = RiemannData(State(*e["left"]), State(*e["right"]), p)
        he, be, _ = profile(solve(outer), t, xs)
        l1 = float(np.sum(np.abs(h - he) + np.abs(b - be)) * (xs[1] - xs[0]))
        r.require(l1 < e["l1_bound"], f"timeline L1 {l1:.4f} >= {e['l1_bound']}")
        r.values["l1_err"] = l1
    return r


def _interact_op(name, e, work) -> Op:
    out = work / name
    argv = [
        "interact", "--alpha", repr(e["alpha"]), "--kappa", repr(e["kappa"]),
        "--h-tol", repr(e["h_tol"]), "--epsilon", repr(e["epsilon"]),
        "--left", _st(e["left"]), "--middle", _st(e["middle"]), "--right", _st(e["right"]),
        "--n-fan", str(e["n_fan"]),
        "--profile-times", ",".join(repr(t) for t in e["times"]),
        "--samples", str(e["samples"]),
        "--x-min", repr(e["x_range"][0]), "--x-max", repr(e["x_range"][1]),
        "--out", str(out / "timeline.json"),
    ]
    return Op(name, argv, out, _check_interact, e)


def _check_riemann(op: Op, rc: int) -> OpResult:
    r = OpResult(ok=True)
    r.require(rc == 0, f"exit code {rc}")
    if rc != 0:
        return r
    e = op.expect
    data = _read_csv(op.out_dir / "profile.csv", 4)
    fan_path = op.out_dir / "profile.json"
    r.require(_json_roundtrip_exact(fan_path), "fan JSON round-trip not exact")
    singular = data[data[:, 3] != 0.0]
    r.require(len(data) == e["samples"] + len(singular), f"{len(data)} rows")
    r.require(bool(np.all(np.isfinite(data))), "non-finite profile")
    r.require(bool(np.all(np.diff(data[:, 0]) >= 0.0)), "rows not sorted in x")
    if e["case"] == CASE_DELTA:
        p = Params(e["alpha"], e["kappa"])
        w = delta_shock(RiemannData(State(*e["left"]), State(*e["right"]), p))
        beta = w.strength_rate * e["t"]
        ok = len(singular) == 1 and abs(singular[0, 3] - beta) <= 1e-12 * max(1.0, beta)
        r.require(ok, "singular weight differs from the closed-form strength")
    else:
        r.require(len(singular) == 0, "singular weight on a classical fan")
    return r


def _riemann_op(name, e, work) -> Op:
    out = work / name
    argv = [
        "riemann", "--alpha", repr(e["alpha"]), "--kappa", repr(e["kappa"]),
        "--left", _st(e["left"]), "--right", _st(e["right"]),
        "--t", repr(e["t"]), "--samples", str(e["samples"]),
        "--x-min", repr(e["x_range"][0]), "--x-max", repr(e["x_range"][1]),
        "--out", str(out / "profile.csv"),
    ]
    return Op(name, argv, out, _check_riemann, e)


def _check_limits(op: Op, rc: int) -> OpResult:
    r = OpResult(ok=True)
    r.require(rc == 0, f"exit code {rc}")
    if rc != 0:
        return r
    e = op.expect
    lines = (op.out_dir / "table.csv").read_text().strip().splitlines()
    r.require(lines[0] == "value,case,l1,dsigma,dbeta_rate,weak1,weak2,weak3", "header")
    rows = [line.split(",") for line in lines[1:]]
    r.require(len(rows) == len(e["values"]), f"{len(rows)} rows")
    r.require(all(row[1] == e["case"] for row in rows), "case column")
    l1 = [float(row[2]) for row in rows]
    if e["case"] == CASE_DELTA:
        # criterion 6: |dsigma| is affine in the vanishing parameter, and
        # the weak pairings decrease monotonically
        h, b = e["left"]
        for row in rows:
            v, ds = float(row[0]), float(row[3])
            want = v * h * b if e["study"] == "alpha" else v * h * h / 3.0
            r.require(abs(ds - want) <= 1e-14 * max(1.0, ds), f"dsigma at {v}")
        for i in (5, 6, 7):
            col = [float(row[i]) for row in rows]
            r.require(all(a >= c - 1e-12 for a, c in zip(col[:-1], col[1:])),
                      f"weak pairing {i - 4} not monotone")
    else:
        r.require(all(a > c for a, c in zip(l1[:-1], l1[1:])), "L1 column not decreasing")
        # known-red, recorded only: criterion 6's terminal L1 <= 1e-3 clause
        r.values["known_red.terminal_l1"] = l1[-1]
    return r


def _limits_op(name, e, work) -> Op:
    out = work / name
    argv = [
        "limits", "--study", e["study"], "--values", ",".join(repr(v) for v in e["values"]),
        "--fixed", repr(e["fixed"]), "--left", _st(e["left"]), "--right", _st(e["right"]),
        "--samples", str(e["samples"]), "--out", str(out / "table.csv"),
    ]
    return Op(name, argv, out, _check_limits, e)


def _check_entropy(op: Op, rc: int) -> OpResult:
    r = OpResult(ok=True)
    r.require(rc == 0, f"exit code {rc}")
    if rc != 0:
        return r
    doc = json.loads((op.out_dir / "entropy.json").read_text())
    want = op.expect["verdict"]
    verdicts = [p["verdict"] for p in doc["pairs"]]
    r.require(len(verdicts) > 0 and all(v == want for v in verdicts),
              f"verdicts {verdicts}, want all {want!r}")
    return r


def _entropy_op(name, e, work) -> Op:
    out = work / name
    argv = [
        "entropy-check", "--alpha", repr(e["alpha"]), "--kappa", repr(e["kappa"]),
        "--n-grid", str(e["n_grid"]), "--out", str(out / "entropy.json"),
    ]
    return Op(name, argv, out, _check_entropy, e)


# Seed-0 states: tests/test_interactions.py and tests/test_acceptance.py.
_INTERACT_CASES = (
    # name, case, alpha, kappa, h_tol, left, middle, right
    ("interact-js-js", "JS+JS", 0.5, 0.0, 1e-10, (1.5, 1.6), (0.95, 1.62), (1.25, 1.15)),
    ("interact-js-jr", "JS+JR", 0.5, 0.0, 1e-10, (1.24, 0.90), (0.75, 1.25), (1.5, 1.56)),
    ("interact-ds-jr", "dS+JR", 0.5, 0.0, 1e-4, (1.24, 0.90), (1e-5, 5.5), (1.5, 1.56)),
    ("interact-js-ds", "JS+dS", 0.5, 1.0, 1e-10, (2.0, 1.5), (1.0, 1.0), (0.0, 2.0)),
    ("interact-jr-ds", "JR+dS", 0.5, 1.0, 1e-10, (1.0, 1.0), (1.0, 1.5), (0.0, 2.0)),
)


def _exact_tracking(seed: int, work: Path, smoke: bool) -> Workload:
    j = _Jitter(seed)
    ops = []

    def perturbed(case, alpha, kappa, h_tol, left, middle, right):
        pd = PerturbedData(
            0.1, State(*left), State(*middle), State(*right), Params(alpha, kappa, h_tol=h_tol)
        )
        _assert_class(classify_case(pd), case, f"{case} data")

    # the fan-fan pattern through the generic engine
    left, middle, right = j.state(1.0, 1.0), j.state(1.3, 1.3), j.state(0.9, 0.8)
    perturbed("JR+JS", 0.5, 1.0, 1e-10, left, middle, right)
    ops.append(_interact_op("interact-jr-js-generic", dict(
        case="JR+JS", alpha=0.5, kappa=1.0, h_tol=1e-10, epsilon=0.1,
        left=left, middle=middle, right=right, n_fan=64 if smoke else 512,
        times=(1.0, 8.0), samples=3000, x_range=(-2.0, 40.0), l1_bound=TIMELINE_L1,
    ), work))

    for name, case, alpha, kappa, h_tol, l0, m0, r0 in _INTERACT_CASES:
        left, middle, right = j.state(*l0), j.state(*m0), j.state(*r0)
        perturbed(case, alpha, kappa, h_tol, left, middle, right)
        ops.append(_interact_op(name, dict(
            case=case, alpha=alpha, kappa=kappa, h_tol=h_tol, epsilon=0.1,
            left=left, middle=middle, right=right, n_fan=64,
            times=(0.5, 2.0), samples=2000, x_range=(-2.0, 8.0),
        ), work))

    # README examples, sampled densely
    n_samples = 2000 if smoke else 20000
    for name, alpha, kappa, l0, r0, xr in (
        ("riemann-jr", 0.5, 0.0, (1.24, 0.90), (1.5, 1.56), (-1.0, 4.0)),
        ("riemann-js", 0.5, 0.0, (1.5, 1.6), (1.25, 1.15), (-1.0, 4.0)),
        ("riemann-delta", 0.5, 1.0, (2.0, 2.0), (0.0, 1.0), (-5.0, 10.0)),
    ):
        left, right = j.state(*l0), j.state(*r0)
        d = RiemannData(State(*left), State(*right), Params(alpha, kappa))
        case = classify(RiemannData(State(*l0), State(*r0), Params(alpha, kappa)))
        _assert_class(classify(d), case, f"{name} data")
        ops.append(_riemann_op(name, dict(
            case=case, alpha=alpha, kappa=kappa, left=left, right=right, t=1.0,
            samples=n_samples, x_range=xr,
        ), work))

    # criterion 6: kappa study on the J+R example, alpha study on the delta example
    values = (1.0, 0.5, 0.1, 0.01, 0.001)
    for name, study, fixed, case, l0, r0, samples in (
        ("limits-kappa", "kappa", 0.5, CASE_JR, (1.24, 0.90), (1.5, 1.56), 10000),
        ("limits-alpha-delta", "alpha", 1.0, CASE_DELTA, (2.9, 1.70), (0.0, 5.56), 2000),
    ):
        left, right = j.state(*l0), j.state(*r0)
        for v in values:
            p = Params(fixed, v) if study == "kappa" else Params(v, fixed)
            d = RiemannData(State(*left), State(*right), p)
            _assert_class(classify(d), case, f"{name} data at {v}")
        ops.append(_limits_op(name, dict(
            study=study, values=values, fixed=fixed, case=case, left=left, right=right,
            samples=samples // 10 if smoke else samples,
        ), work))

    n_grid = 10 if smoke else 50
    ops.append(_entropy_op("entropy-check", dict(
        alpha=j(0.5), kappa=j(1.0), n_grid=n_grid, verdict="convex"), work))
    ops.append(_entropy_op("entropy-check-alpha0", dict(
        alpha=0.0, kappa=j(1.0), n_grid=n_grid, verdict="inconclusive"), work))
    return Workload("exact-tracking", seed, ops)


def _llf_and_exact(seed: int, work: Path, smoke: bool) -> Workload:
    # One pass runs the LLF delta capture and then every exact-solver
    # command.  On their own the exact commands are pure-Python and their
    # run-to-run time swings more than any bound allows on a shared host;
    # behind the numpy-bound LLF run the pass stays steady.
    llf = _llf_delta(seed, work, smoke)
    exact = _exact_tracking(seed, work, smoke)
    return Workload("llf-delta-and-exact", seed, llf.ops + exact.ops, llf.fv_cells, llf.fv_arrays)


# The first two are the benchmark's workloads (BENCHMARK.json).  The last
# two are the halves of the second, runnable on their own for diagnosis.
WORKLOADS = {
    "fv-godunov-long": _godunov_long,
    "llf-delta-and-exact": _llf_and_exact,
    "fv-llf-delta": _llf_delta,
    "exact-tracking": _exact_tracking,
}


def generate(name: str, seed: int, work: Path, smoke: bool = False) -> Workload:
    """Build a workload's inputs under ``work`` and return its operations."""
    (work / "inputs").mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, work, smoke)


def working_set_bytes(wl: Workload) -> int:
    """Computed bytes of the FV step's live float64 arrays (0 without FV)."""
    return wl.fv_cells * wl.fv_arrays * 8
