"""In-memory spans around calls into each thinfilm module, and the per-layer
metrics derived from them.

Spans are recorded by wrapping public functions at the module attribute
the caller actually looks up: ``thinfilm.interactions.solve`` is the
name the front tracker calls, ``thinfilm.numerics.delta_mass`` the name
``numerics.run`` calls for its per-step diagnostic, and so on.  Every
attribute of every loaded ``thinfilm`` module that holds the original
function is replaced, and restored when tracing ends.  ``core`` gets no
span: its closed forms run in under a microsecond, so a wrapper would
cost more than the call; their cost lands in the self time of
``riemann`` and ``entropy``.

A span is ``[name, start_ns, end_ns, parent_index, run_id, note]``; the
run id is the benchmark pass the span belongs to.  A layer's self time
is its span's duration minus the durations of its child spans (one
thread, so children never overlap).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.run_id = 0

    def wrap(self, name, fn, note=None):
        """``fn`` recording one span per call; ``note(args, result)`` adds a count."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[5] = note(args, out)
            return out

        return traced

    def dump(self, path: Path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "run_id", "note")
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def span_cost_s(n: int = 20000) -> float:
    """Seconds one span adds to a call, from wrapping a no-op ``n`` times.

    The measured traced-minus-untraced difference is dominated by machine
    noise on a shared host; spans per pass times this cost estimates the
    tracing overhead itself.
    """
    def noop():
        return None

    wrapped = Tracer().wrap("noop", noop)
    t = time.perf_counter()
    for _ in range(n):
        noop()
    bare = time.perf_counter() - t
    t = time.perf_counter()
    for _ in range(n):
        wrapped()
    return (time.perf_counter() - t - bare) / n


def _run_note(args, out):
    diag = out[1]
    return diag["n_steps"], diag["grid"]["n_cells"]


def _states_evaluated(args, report):
    # entropy_report evaluates both quadratic forms on the n x n grid and
    # the compatibility residual on every 17th grid point in each direction
    n = report["grid"]["n"]
    probe = len(range(0, n, 17)) ** 2
    return len(report["pairs"]) * (n * n + probe)


def _targets():
    from thinfilm import entropy, interactions, limits, numerics, riemann

    return [
        (numerics.run, "numerics.run", _run_note),
        (numerics.delta_mass, "numerics.delta_mass", None),
        (riemann.solve, "riemann.solve", None),
        (riemann.profile, "riemann.profile", lambda a, out: len(a[2])),
        (interactions.run_timeline, "interactions.run_timeline",
         lambda a, tl: (len(tl.events), len(tl.fronts))),
        (interactions.timeline_to_json, "interactions.to_json", None),
        (limits.convergence_table, "limits.convergence_table", None),
        (limits.weak_pairing, "limits.weak_pairing", None),
        (entropy.entropy_report, "entropy.report", _states_evaluated),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Patch every traced function where it is looked up; undo on exit."""
    from thinfilm import interactions

    undo = []
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "thinfilm" or n.startswith("thinfilm."))]
    try:
        for orig, name, note in _targets():
            wrapper = tracer.wrap(name, orig, note)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        undo.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        cls = interactions.InteractionTimeline
        undo.append((cls, "profile", cls.profile))
        cls.profile = tracer.wrap(
            "interactions.timeline_profile", cls.profile, lambda a, out: len(a[2])
        )
        yield tracer
    finally:
        for obj, attr, orig in reversed(undo):
            setattr(obj, attr, orig)


# Per-layer metrics: name -> unit.  Every "_s" metric is a self time in
# seconds per benchmark pass; counts are per pass too.
LAYER_METRICS = {
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "numerics.run_s": "s",
    "numerics.steps": "count",
    "numerics.ns_per_cell_step": "ns",
    "numerics.cell_steps_per_s": "1/s",
    "numerics.delta_mass_calls": "count",
    "numerics.delta_mass_s": "s",
    "numerics.delta_mass_relerr": "1",
    "riemann.solve_calls": "count",
    "riemann.solve_s": "s",
    "riemann.profile_ns_per_point": "ns",
    "interactions.run_timeline_s": "s",
    "interactions.events": "count",
    "interactions.fronts": "count",
    "interactions.us_per_event": "us",
    "interactions.timeline_profile_ns_per_point": "ns",
    "interactions.to_json_s": "s",
    "limits.convergence_table_s": "s",
    "limits.weak_pairing_calls": "count",
    "limits.weak_pairing_s": "s",
    "entropy.report_s": "s",
    "entropy.states_evaluated": "count",
    "setup.import_s": "s",
    "setup.input_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "gate.failed_ratio": "1",
}


def layer_totals(spans: list[list]) -> dict:
    """Self time, inclusive time, call count and notes of each span name."""
    child_ns = [0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child_ns[rec[3]] += rec[2] - rec[1]
    acc: dict = {}
    for i, rec in enumerate(spans):
        a = acc.setdefault(rec[0], {"self_s": 0.0, "incl_s": 0.0, "calls": 0, "notes": []})
        dur = rec[2] - rec[1]
        a["self_s"] += (dur - child_ns[i]) * 1e-9
        a["incl_s"] += dur * 1e-9
        a["calls"] += 1
        if rec[5] is not None:
            a["notes"].append(rec[5])
    return acc


def layer_metrics(spans: list[list], n_passes: int) -> dict:
    """The span-derived entries of LAYER_METRICS, per benchmark pass."""
    t = layer_totals(spans)
    empty = {"self_s": 0.0, "incl_s": 0.0, "calls": 0, "notes": []}

    def get(name):
        return t.get(name, empty)

    def per(num, den, scale):
        return num / den * scale if den else 0.0

    run, dm = get("numerics.run"), get("numerics.delta_mass")
    steps = sum(s for s, _ in run["notes"])
    cell_steps = sum(s * n for s, n in run["notes"])
    rp, tp = get("riemann.profile"), get("interactions.timeline_profile")
    rt = get("interactions.run_timeline")
    events = sum(e for e, _ in rt["notes"])
    fronts = sum(f for _, f in rt["notes"])
    totals = {
        "cli.self_s": get("cli.main")["self_s"],
        "numerics.run_s": run["self_s"],
        "numerics.steps": steps,
        "numerics.delta_mass_calls": dm["calls"],
        "numerics.delta_mass_s": dm["self_s"],
        "riemann.solve_calls": get("riemann.solve")["calls"],
        "riemann.solve_s": get("riemann.solve")["self_s"],
        "interactions.run_timeline_s": rt["self_s"],
        "interactions.events": events,
        "interactions.fronts": fronts,
        "interactions.to_json_s": get("interactions.to_json")["self_s"],
        "limits.convergence_table_s": get("limits.convergence_table")["self_s"],
        "limits.weak_pairing_calls": get("limits.weak_pairing")["calls"],
        "limits.weak_pairing_s": get("limits.weak_pairing")["self_s"],
        "entropy.report_s": get("entropy.report")["self_s"],
        "entropy.states_evaluated": sum(get("entropy.report")["notes"]),
        "trace.spans": len(spans),
    }
    out = {k: v / n_passes for k, v in totals.items()}
    # ratios need no per-pass scaling
    out["numerics.ns_per_cell_step"] = per(run["self_s"], cell_steps, 1e9)
    out["numerics.cell_steps_per_s"] = per(cell_steps, run["incl_s"], 1.0)
    out["riemann.profile_ns_per_point"] = per(rp["self_s"], sum(rp["notes"]), 1e9)
    out["interactions.us_per_event"] = per(rt["self_s"], events, 1e6)
    out["interactions.timeline_profile_ns_per_point"] = per(tp["self_s"], sum(tp["notes"]), 1e9)
    return out
