"""Command-line driver: riemann, godunov, llf, interact, limits, entropy-check.

All data files are deterministic (no timestamps); floats are written
with 17 significant digits so results diff exactly across runs.  Exit
codes: 0 ok, 1 I/O failure, 2 invalid input, 3 scheme failure, 4 event
budget exhausted, 5 entropy-check failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import entropy as entropy_mod
from . import interactions, limits, numerics, riemann
from .core import Params, State, riemann_invariants
from .errors import (
    EventBudgetError,
    InvalidDataError,
    SchemeFailureError,
    ThinFilmError,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2
EXIT_SCHEME = 3
EXIT_BUDGET = 4
EXIT_ENTROPY = 5


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    return f"{float(v):.17g}"


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path: str, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_state(text: str) -> State:
    parts = text.split(",")
    if len(parts) != 2:
        raise ThinFilmError(f"state must be 'h,b', got {text!r}")
    return State(float(parts[0]), float(parts[1]))


def _number(value, what: str):
    """A number of the JSON config, as given; any other type is invalid input."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidDataError(f"config {what} must be a number, got {value!r}")
    return value


def _pair(value, what: str) -> tuple:
    """A list of two numbers of the JSON config."""
    if not isinstance(value, list) or len(value) != 2:
        raise InvalidDataError(f"config {what} must be a list of two, got {value!r}")
    return _number(value[0], what), _number(value[1], what)


def _object(value, what: str) -> dict:
    """A JSON object of the config."""
    if not isinstance(value, dict):
        raise InvalidDataError(f"config {what} must be a JSON object, got {value!r}")
    return value


def _numbers(text: str) -> list[float]:
    """The comma list of ``--values``."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of numbers: {text!r}") from None


def _finite(text: str) -> float:
    """A finite float option."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _times(text: str) -> list[float]:
    """The comma list of ``--profile-times``: finite times after t = 0."""
    times = _numbers(text)
    if not all(math.isfinite(t) and t > 0.0 for t in times):
        raise argparse.ArgumentTypeError(f"not a comma list of finite positive times: {text!r}")
    return times


def _count(text: str) -> int:
    """A non-negative integer option."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return value


def _key(doc: dict, key: str, section: str = ""):
    """``doc[key]``, where ``doc`` is the config or its ``section``; a missing key is invalid input."""
    if key not in doc:
        where = f"config {section}" if section else "config"
        raise InvalidDataError(f"{where} is missing {key!r}")
    return doc[key]


def _add_param_args(sp) -> None:
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--kappa", type=float, required=True)
    sp.add_argument("--h-tol", type=float, default=1e-10)


def cmd_riemann(args) -> int:
    p = Params(args.alpha, args.kappa, h_tol=args.h_tol)
    data = riemann.RiemannData(_parse_state(args.left), _parse_state(args.right), p)
    fan = riemann.solve(data)
    xs = np.linspace(args.x_min, args.x_max, args.samples)
    h, b, _ = riemann.profile(fan, args.t, xs)
    rows = [(x, hv, bv, 0.0) for x, hv, bv in zip(xs, h, b)]
    # the singular row carries the right state, as `sample` does on the ray
    rows += [(w.speed * args.t, w.right.h, w.right.b, w.strength_rate * args.t)
             for w in fan.waves if isinstance(w, riemann.DeltaShock)]
    rows.sort(key=lambda r: r[0])
    _write_csv(args.out, ["x", "h", "b", "singular_weight"], rows)
    fan_out = args.fan_out or os.path.splitext(args.out)[0] + ".json"
    _write_json(fan_out, riemann.fan_to_json(fan))
    return EXIT_OK


def _profile_rows(f: numerics.FVField, p: Params):
    """(x, h, b, w1, w2) per cell; w1 and w2 stay blank where h <= h_tol."""
    on = f.h > p.h_tol
    inv = riemann_invariants((f.h[on], f.b[on]), p)
    w = np.full((2, f.h.size), None)
    w[0, on], w[1, on] = inv.w1, inv.w2
    return zip(f.grid.centers(), f.h, f.b, *w)


def cmd_fv(args) -> int:
    """``godunov`` or ``llf``: the finite-volume run that ``args.command`` names."""
    scheme = args.command
    with open(args.config) as fh:
        cfg_doc = _object(json.load(fh), "document")
    p = Params(*(_number(_key(cfg_doc, k), k) for k in ("alpha", "kappa")),
               h_tol=_number(cfg_doc.get("h_tol", 1e-10), "h_tol"))
    grid_doc = _object(_key(cfg_doc, "grid"), "grid")
    grid = numerics.Grid(*(_key(grid_doc, k, "grid") for k in ("xmin", "xmax", "ncells")))
    init = _object(_key(cfg_doc, "initial"), "initial")
    left, right = (State(*_pair(_key(init, k, "initial"), k)) for k in ("left", "right"))
    exact_fan = None
    if "middle" in init:
        middle = State(*_pair(init["middle"], "middle"))
        epsilon = _number(_key(init, "epsilon", "initial"), "epsilon")
        pd = interactions.PerturbedData(epsilon, left, middle, right, p)
        field = numerics.field_from_perturbed(pd, grid)
    else:
        data = riemann.RiemannData(left, right, p)
        field = numerics.field_from_riemann(data, grid)
        exact_fan = riemann.solve(data)
    cfg = numerics.SchemeConfig(
        scheme=scheme,
        cfl=_number(cfg_doc.get("cfl", 0.45), "cfl"),
        t_end=_number(_key(cfg_doc, "t_end"), "t_end"),
    )
    window = cfg_doc.get("delta_window")
    if window is not None:
        lo, hi = _pair(window, "delta_window")
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise InvalidDataError(f"config delta_window must be finite, lower bound first, got {window!r}")
        window = lo, hi
    final, diag = numerics.run(field, cfg, p, delta_window=window)
    _write_csv(args.out, ["x", "h", "b", "w1", "w2"], _profile_rows(final, p))
    doc = {
        "scheme": scheme,
        "alpha": p.alpha,
        "kappa": p.kappa,
        "cfl": cfg.cfl,
        "grid": diag["grid"],
        "t_end": cfg.t_end,
        "n_steps": diag["n_steps"],
        "mass_h": diag["mass_h"],
        "mass_b": diag["mass_b"],
        "max_conservation_residual": diag["max_conservation_residual"],
        "delta_mass": diag["delta_mass"],
    }
    if exact_fan is not None:
        xs = grid.centers()
        h, b, _ = riemann.profile(exact_fan, final.t, xs)
        doc["l1_error_vs_exact"] = float(
            np.sum(np.abs(final.h - h) + np.abs(final.b - b)) * grid.dx
        )
    _write_json(args.diag_out or os.path.splitext(args.out)[0] + "_diag.json", doc)
    return EXIT_OK


def cmd_interact(args) -> int:
    p = Params(args.alpha, args.kappa, h_tol=args.h_tol)
    pd = interactions.PerturbedData(
        args.epsilon,
        _parse_state(args.left),
        _parse_state(args.middle),
        _parse_state(args.right),
        p,
    )
    tl = interactions.run_timeline(
        pd, t_max=args.t_max, n_fan=args.n_fan, budget=args.budget
    )
    _write_json(args.out, interactions.timeline_to_json(tl))
    if args.profile_times:
        base, ext = os.path.splitext(args.out)
        for t in args.profile_times:
            xs = np.linspace(args.x_min, args.x_max, args.samples)
            h, b = tl.profile(t, xs)
            rows = list(zip(xs, h, b))
            _write_csv(f"{base}_t{_fmt(t)}.csv", ["x", "h", "b"], rows)
    return EXIT_OK


def cmd_limits(args) -> int:
    p = Params(**{"alpha": args.fixed, "kappa": args.fixed, args.study: args.values[0]},
               h_tol=args.h_tol)
    data = riemann.RiemannData(_parse_state(args.left), _parse_state(args.right), p)
    study = limits.LimitStudy(args.study, tuple(args.values), data)
    rows = [
        (r["value"], r["case"], r["l1"], r["dsigma"], r["dbeta_rate"],
         *(r["weak_pairings"] or (None, None, None)))
        for r in limits.convergence_table(study, n_samples=args.samples)
    ]
    header = ["value", "case", "l1", "dsigma", "dbeta_rate", "weak1", "weak2", "weak3"]
    _write_csv(args.out, header, rows)
    return EXIT_OK


def cmd_entropy_check(args) -> int:
    p = Params(args.alpha, args.kappa)
    report = entropy_mod.entropy_report(p, n_grid=args.n_grid)
    _write_json(args.out, report)
    failed = any(
        e["sufficient_family"] and e["verdict"] == "fails" for e in report["pairs"]
    )
    return EXIT_ENTROPY if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="thinfilm")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("riemann", help="exact Riemann solution sampler")
    _add_param_args(sp)
    sp.add_argument("--left", required=True, help="left state 'h,b'")
    sp.add_argument("--right", required=True, help="right state 'h,b'")
    sp.add_argument("--t", type=float, default=1.0)
    sp.add_argument("--samples", type=_count, default=1000)
    sp.add_argument("--x-min", type=_finite, default=-5.0)
    sp.add_argument("--x-max", type=_finite, default=10.0)
    sp.add_argument("--out", required=True)
    sp.add_argument("--fan-out", default=None)
    sp.set_defaults(func=cmd_riemann)

    for name in ("godunov", "llf"):
        sp = sub.add_parser(name, help=f"{name} finite-volume run from a JSON config")
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", required=True)
        sp.add_argument("--diag-out", default=None)
        sp.set_defaults(func=cmd_fv)

    sp = sub.add_parser("interact", help="perturbed Riemann front tracking")
    _add_param_args(sp)
    sp.add_argument("--epsilon", type=float, required=True)
    sp.add_argument("--left", required=True)
    sp.add_argument("--middle", required=True)
    sp.add_argument("--right", required=True)
    sp.add_argument("--t-max", type=_finite, default=math.inf, help="default: no limit")
    sp.add_argument("--n-fan", type=int, default=64)
    sp.add_argument("--budget", type=int, default=10000)
    sp.add_argument("--profile-times", type=_times, default=None)
    sp.add_argument("--samples", type=_count, default=2000)
    sp.add_argument("--x-min", type=_finite, default=-5.0)
    sp.add_argument("--x-max", type=_finite, default=10.0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_interact)

    sp = sub.add_parser("limits", help="vanishing-parameter convergence table")
    sp.add_argument("--study", choices=("kappa", "alpha"), required=True)
    sp.add_argument("--values", type=_numbers, required=True, help="comma list, decreasing")
    sp.add_argument("--fixed", type=float, required=True)
    sp.add_argument("--h-tol", type=float, default=1e-10)
    sp.add_argument("--left", required=True)
    sp.add_argument("--right", required=True)
    sp.add_argument("--samples", type=int, default=10000)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_limits)

    sp = sub.add_parser("entropy-check", help="entropy pair compatibility/convexity")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--kappa", type=float, required=True)
    sp.add_argument("--n-grid", type=int, default=50)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_entropy_check)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except EventBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except SchemeFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEME
    except (ThinFilmError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
