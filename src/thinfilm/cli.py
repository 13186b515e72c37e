"""Command-line driver: riemann, godunov, llf, interact, limits, entropy-check.

All data files are deterministic (no timestamps); floats are written
with 17 significant digits so results diff exactly across runs.  Exit
codes: 0 ok, 1 I/O failure, 2 invalid input, 3 scheme failure, 4 event
budget exhausted.
"""

from __future__ import annotations

import argparse
import contextlib
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


# rows of a CSV file formatted and written at once
_CHUNK = 1024


def _csv_cells(values: np.ndarray, blank: np.ndarray) -> list[str]:
    """One chunk of a column as CSV cells: strings as they are, floats with
    17 significant digits (each distinct bit pattern formatted once), and
    blank where ``blank`` is set."""
    if values.dtype.kind == "U":
        return values.tolist()
    values = np.ascontiguousarray(values, dtype=float)
    bits, where = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array(list(map("{:.17g}".format, bits.view(float).tolist())), dtype=object)
    cells = text[where.ravel()]
    cells[blank] = ""
    return cells.tolist()


def _blank_none(values) -> tuple[np.ndarray, np.ndarray]:
    """A float column that is blank where ``values`` holds None."""
    blank = np.array([v is None for v in values])
    return np.array([0.0 if v is None else v for v in values], dtype=float), blank


def _write_csv(path: str, header: list[str], columns: list) -> None:
    """A header line and one row per index of the equal-length ``columns``,
    written ``_CHUNK`` rows at a time.  A column is an array of floats or
    strings, or a pair (floats, blank) of arrays whose cells are blank
    where ``blank`` is True."""
    pairs = [c if isinstance(c, tuple) else (c, np.zeros(len(c), bool)) for c in columns]
    row = ",".join(["{}"] * len(pairs)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(pairs[0][0]), _CHUNK):
            hi = lo + _CHUNK
            fh.writelines(map(row.format, *(_csv_cells(v[lo:hi], b[lo:hi]) for v, b in pairs)))


def _write_json(path: str, doc) -> None:
    """``json.dump(doc, fh, indent=2, sort_keys=True)`` and a newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write(outputs: dict) -> None:
    """Write each JSON document or (CSV header, columns) of ``outputs`` to
    its path, in order.  On an I/O error the files written so far, and the
    one being written if it is new, are removed before the error is raised."""
    done = []
    for path, out in outputs.items():
        new = not os.path.lexists(path)
        try:
            if isinstance(out, tuple):
                _write_csv(path, *out)
            else:
                _write_json(path, out)
        except OSError:
            for written in done + [path] * new:
                with contextlib.suppress(OSError):
                    os.remove(written)
            raise
        done.append(path)


def _parse_state(text: str) -> State:
    """A state option ``h,b`` in the quadrant."""
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"state must be 'h,b', got {text!r}")
    try:
        return State(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _number(value, what: str):
    """A number of the JSON config, as given; any other type, or an integer
    that no float can hold, is invalid input."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidDataError(f"config {what} must be a number, got {value!r}")
    try:
        float(value)
    except OverflowError:
        raise InvalidDataError(f"config {what} must be a number in float range") from None
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


def _numbers(text: str, ok=math.isfinite, what: str = "finite numbers") -> list[float]:
    """The comma list of ``--values``: finite numbers; or of floats that pass ``ok``."""
    try:
        values = [float(v) for v in text.split(",")]
        if all(map(ok, values)):
            return values
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not a comma list of {what}: {text!r}")


def _finite(text: str) -> float:
    """A finite float option."""
    try:
        value = float(text)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")


def _times(text: str) -> list[float]:
    """The comma list of ``--profile-times``: finite times after t = 0."""
    return _numbers(text, lambda t: math.isfinite(t) and t > 0.0, "finite positive times")


def _count(text: str) -> int:
    """A non-negative integer option."""
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")


def _physical_memory() -> float:
    """Bytes of physical memory, or inf where the system does not report them."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return math.inf


def _fit(what: str, n: int, values: int) -> None:
    """Invalid input, naming ``what`` and ``n``, if the ``values`` 8-byte
    values that size needs exceed physical memory.

    Commands call it before they allocate, so that such a size exits 2
    and is not killed part way.  Their counts per unit of a size are 16
    per riemann sample; 4 per interact sample and 2 more per profile
    time; 256 per fan shocklet of the generic engine; 24 per cell of an
    FV run.  Each covers the tracemalloc peak measured for it (12; 2 and
    2; about 90; 20 for an LLF run whose window spans every cell).
    """
    have = _physical_memory()
    if 8 * values > have:
        raise InvalidDataError(
            f"{what} {n} needs about {8 * values} bytes, more than the {have} bytes of physical memory"
        )


def _key(doc: dict, key: str, section: str = ""):
    """``doc[key]``, where ``doc`` is the config or its ``section``; a missing key is invalid input."""
    if key not in doc:
        where = f"config {section}" if section else "config"
        raise InvalidDataError(f"{where} is missing {key!r}")
    return doc[key]


def _add_param_args(sp) -> None:
    sp.add_argument("--alpha", type=_finite, required=True)
    sp.add_argument("--kappa", type=_finite, required=True)
    sp.add_argument("--h-tol", type=_finite, default=1e-10)


def cmd_riemann(args) -> dict:
    _fit("--samples", args.samples, 16 * args.samples)
    p = Params(args.alpha, args.kappa, h_tol=args.h_tol)
    fan = riemann.solve(riemann.RiemannData(args.left, args.right, p))
    xs = np.linspace(args.x_min, args.x_max, args.samples)
    h, b, _ = riemann.profile(fan, args.t, xs)
    # the singular row carries the right state, as `sample` does on the ray
    singular = [w for w in fan.waves if isinstance(w, riemann.DeltaShock)]
    columns = [
        np.concatenate([xs, [w.speed * args.t for w in singular]]),
        np.concatenate([h, [w.right.h for w in singular]]),
        np.concatenate([b, [w.right.b for w in singular]]),
        np.concatenate([np.zeros(xs.size), [w.strength_rate * args.t for w in singular]]),
    ]
    order = np.argsort(columns[0], kind="stable")
    return {
        args.out: (["x", "h", "b", "singular_weight"], [c[order] for c in columns]),
        args.fan_out or os.path.splitext(args.out)[0] + ".json": riemann.fan_to_json(fan),
    }


def _profile_columns(f: numerics.FVField, p: Params) -> list:
    """x, h, b, w1, w2 per cell; w1 and w2 stay blank where h <= h_tol."""
    on = f.h > p.h_tol
    inv = riemann_invariants((f.h[on], f.b[on]), p)
    w = np.zeros((2, f.h.size))
    w[0, on], w[1, on] = inv.w1, inv.w2
    return [f.grid.centers(), f.h, f.b, (w[0], ~on), (w[1], ~on)]


def cmd_fv(args) -> dict:
    """``godunov`` or ``llf``: the finite-volume run that ``args.command`` names."""
    scheme = args.command
    with open(args.config) as fh:
        cfg_doc = _object(json.load(fh), "document")
    p = Params(*(_number(_key(cfg_doc, k), k) for k in ("alpha", "kappa")),
               h_tol=_number(cfg_doc.get("h_tol", 1e-10), "h_tol"))
    grid_doc = _object(_key(cfg_doc, "grid"), "grid")
    grid = numerics.Grid(
        *(_number(_key(grid_doc, k, "grid"), f"grid.{k}") for k in ("xmin", "xmax")),
        _key(grid_doc, "ncells", "grid"),
    )
    _fit("config grid.ncells", grid.n_cells, 24 * grid.n_cells)
    init = _object(_key(cfg_doc, "initial"), "initial")
    left, right = (State(*_pair(_key(init, k, "initial"), k)) for k in ("left", "right"))
    data = None
    if "middle" in init:
        middle = State(*_pair(init["middle"], "middle"))
        epsilon = _number(_key(init, "epsilon", "initial"), "epsilon")
        pd = interactions.PerturbedData(epsilon, left, middle, right, p)
        field = numerics.field_from_perturbed(pd, grid)
    else:
        data = riemann.RiemannData(left, right, p)
        field = numerics.field_from_riemann(data, grid)
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
        numerics._window_cells(grid, window)  # a window off the grid fails before the run
    final, diag = numerics.run(field, cfg, p)
    delta = []
    if window is not None:
        # against the initial outer states
        background = (State(field.h[0], field.b[0]), State(field.h[-1], field.b[-1]))
        delta = [[final.t, numerics.delta_mass(final, window, background)]]
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
        "delta_mass": delta,
    }
    if data is not None:
        # solved after the run, so that data whose wave speeds overflow fail
        # as the scheme does (exit 3); cell centres, not
        # interactions.l1_distance: the godunov/llf digests pin this value
        h, b, _ = riemann.profile(riemann.solve(data), final.t, grid.centers())
        doc["l1_error_vs_exact"] = float(
            np.sum(np.abs(final.h - h) + np.abs(final.b - b)) * grid.dx
        )
    return {
        args.out: (["x", "h", "b", "w1", "w2"], _profile_columns(final, p)),
        args.diag_out or os.path.splitext(args.out)[0] + "_diag.json": doc,
    }


def cmd_interact(args) -> dict:
    times = args.profile_times or []
    _fit("--n-fan", args.n_fan, 256 * args.n_fan)
    if times:
        _fit("--samples", args.samples, (4 + 2 * len(times)) * args.samples)
    p = Params(args.alpha, args.kappa, h_tol=args.h_tol)
    pd = interactions.PerturbedData(args.epsilon, args.left, args.middle, args.right, p)
    tl = interactions.run_timeline(
        pd, t_max=args.t_max, n_fan=args.n_fan, budget=args.budget
    )
    outputs = {args.out: interactions.timeline_to_json(tl)}
    xs = np.linspace(args.x_min, args.x_max, args.samples) if times else None
    stem = os.path.splitext(args.out)[0]
    for t in times:
        outputs[f"{stem}_t{t:.17g}.csv"] = (["x", "h", "b"], [xs, *tl.profile(t, xs)])
    return outputs


def cmd_limits(args) -> dict:
    p = Params(**{"alpha": args.fixed, "kappa": args.fixed, args.study: args.values[0]},
               h_tol=args.h_tol)
    data = riemann.RiemannData(args.left, args.right, p)
    study = limits.LimitStudy(args.study, tuple(args.values), data)
    rows = [
        (r["value"], r["case"], r["l1"], r["dsigma"], r["dbeta_rate"],
         *(r["weak_pairings"] or (None, None, None)))
        for r in limits.convergence_table(study)
    ]
    header = ["value", "case", "l1", "dsigma", "dbeta_rate", "weak1", "weak2", "weak3"]
    value, case, *numbers = zip(*rows)
    return {args.out: (header, [np.array(value), np.array(case), *map(_blank_none, numbers)])}


def cmd_entropy_check(args) -> dict:
    p = Params(args.alpha, args.kappa)
    return {args.out: entropy_mod.entropy_report(p, n_grid=args.n_grid)}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="thinfilm")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("riemann", help="exact Riemann solution sampler")
    _add_param_args(sp)
    sp.add_argument("--left", type=_parse_state, required=True, help="left state 'h,b'")
    sp.add_argument("--right", type=_parse_state, required=True, help="right state 'h,b'")
    sp.add_argument("--t", type=_finite, default=1.0)
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
    sp.add_argument("--epsilon", type=_finite, required=True)
    sp.add_argument("--left", type=_parse_state, required=True)
    sp.add_argument("--middle", type=_parse_state, required=True)
    sp.add_argument("--right", type=_parse_state, required=True)
    sp.add_argument("--t-max", type=_finite, default=math.inf,
                    help="end time of the generic engine's cascade (default: no limit); "
                    "ignored on closed-form patterns, which are resolved to their last event")
    sp.add_argument("--n-fan", type=int, default=64, help="shocklets per fan of the generic engine")
    sp.add_argument("--budget", type=int, default=10000, help="event budget of the generic engine")
    sp.add_argument("--profile-times", type=_times, default=None)
    sp.add_argument("--samples", type=_count, default=2000)
    sp.add_argument("--x-min", type=_finite, default=-5.0)
    sp.add_argument("--x-max", type=_finite, default=10.0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_interact)

    sp = sub.add_parser("limits", help="vanishing-parameter convergence table")
    sp.add_argument("--study", choices=("kappa", "alpha"), required=True)
    sp.add_argument("--values", type=_numbers, required=True, help="comma list, decreasing")
    sp.add_argument("--fixed", type=_finite, required=True)
    sp.add_argument("--h-tol", type=_finite, default=1e-10)
    sp.add_argument("--left", type=_parse_state, required=True)
    sp.add_argument("--right", type=_parse_state, required=True)
    sp.add_argument("--samples", type=int, help="ignored: the l1 column is exact")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_limits)

    sp = sub.add_parser("entropy-check", help="entropy pair compatibility/convexity")
    sp.add_argument("--alpha", type=_finite, required=True)
    sp.add_argument("--kappa", type=_finite, required=True)
    sp.add_argument("--n-grid", type=int, default=50, help="recorded only: the minima are at the box's corners")
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
        # a command returns {path: JSON document or (CSV header, columns)} in
        # write order, all computed first, so that a failing command leaves no file
        _write(args.func(args))
        return EXIT_OK
    except EventBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except SchemeFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEME
    except (ThinFilmError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
