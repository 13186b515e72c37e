"""thinfilm benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload fv-godunov-long --seed 0 --seconds 50 --trace 0

Run from the root of a source checkout (``src/thinfilm`` must exist; an
installed ``thinfilm`` is never used).  The workload's commands run in
this process through ``thinfilm.cli.main(argv)``, one at a time (a
closed loop with one client), in passes: a pass runs every command of
the workload once, and passes repeat until the next one would overrun
``--seconds`` (at least one pass).  Every command's output files are
checked; an operation fails on a non-zero exit code or a failed check.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, from untraced passes; with
``--trace 1`` half the time runs untraced and half traced, and the
metrics are the per-layer ones (see tracing.py).  The line before it
is an info object: provenance, output digests, known-red values and
the details behind every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 5

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import thinfilm.cli; "
    "print(repr(time.perf_counter() - t))"
)


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "THINFILM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def fresh_import_s() -> float:
    """Seconds to import thinfilm.cli in a new interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=_env(),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def setup_phase(name: str, seed: int, work: Path, smoke: bool):
    """Fresh-interpreter imports and input generation, each SETUP_REPS times."""
    import workloads

    import_s = [fresh_import_s() for _ in range(SETUP_REPS)]
    input_s = []
    wl = None
    for _ in range(SETUP_REPS):
        shutil.rmtree(work, ignore_errors=True)
        t = time.perf_counter()
        wl = workloads.generate(name, seed, work, smoke)
        input_s.append(time.perf_counter() - t)
    return wl, import_s, input_s


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_pass(wl, call) -> dict:
    """Run every operation once; time only the command itself."""
    from workloads import OpResult

    wall = cpu = 0.0
    ops = []
    for op in wl.ops:
        shutil.rmtree(op.out_dir, ignore_errors=True)
        op.out_dir.mkdir(parents=True)
        c = time.process_time()
        t = time.perf_counter()
        try:
            rc = call(list(op.argv))
        except Exception:  # a crash is a failed operation, not a benchmark error
            rc, crash = None, traceback.format_exc(limit=3)
        dt = time.perf_counter() - t
        cpu += time.process_time() - c
        wall += dt
        if rc is None:
            res = OpResult(False, [f"raised: {crash}"])
        else:
            try:
                res = op.check(op, rc)
            except Exception as exc:  # unreadable output fails the operation
                res = OpResult(False, [f"check raised {exc!r}"])
        files = sorted(f for f in op.out_dir.iterdir() if f.is_file())
        digests = {f"{op.name}/{f.name}": _sha256(f) for f in files}
        res.values["bytes"] = sum(f.stat().st_size for f in files)
        ops.append({"name": op.name, "seconds": dt, "result": res, "digests": digests})
    return {"wall_s": wall, "cpu_s": cpu, "ops": ops}


def measure(wl, seconds: float, call, tracer=None) -> list[dict]:
    """Passes until the next one, at the mean pass cost so far, would overrun."""
    passes = []
    t0 = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.run_id = len(passes)
        passes.append(run_pass(wl, call))
        elapsed = time.perf_counter() - t0
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def provenance(wl) -> dict:
    import numpy
    import scipy
    import workloads

    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or None
    src_hash = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")):
        src_hash.update(str(f.relative_to(SRC)).encode() + b"\0" + f.read_bytes())
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), None)
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(str(idx / "level")).strip()
        kind = _read(str(idx / "type")).strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(str(idx / "size")).strip()
    doc = {
        "git_commit": commit,
        "source_sha256": src_hash.hexdigest(),
        "seed": wl.seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
    }
    ws = workloads.working_set_bytes(wl)
    if ws:
        l3 = caches.get("L3", "")
        l3_bytes = int(l3[:-1]) * 1024 if l3.endswith("K") else None
        fits = l3_bytes is not None and ws <= l3_bytes
        doc["working_set_bytes"] = ws
        doc["working_set"] = (
            f"computed, not measured: {wl.fv_arrays} float64 arrays of {wl.fv_cells} cells "
            f"= {ws / 2**20:.2f} MiB per step against L2 {caches.get('L2')} and L3 {l3 or None}; "
            + ("cache-resident, so the FV kernel is not bandwidth-bound" if fits
               else "not known to fit in the last-level cache")
        )
    return doc


def _pass_sum(passes, key):
    """Median over passes of the per-pass sum of an operation value."""
    return statistics.median(
        sum(o["result"].values.get(key, 0.0) for o in p["ops"]) for p in passes
    )


def _op_value(passes, key):
    vals = [o["result"].values[key] for p in passes for o in p["ops"]
            if key in o["result"].values]
    return statistics.median(vals) if vals else None


def summarize(passes: list[dict]) -> dict:
    walls = [p["wall_s"] for p in passes]
    return {
        "passes": len(passes),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "wall_s_min": min(walls),
        "wall_s_max": max(walls),
        "cell_steps_per_s": statistics.median(
            sum(o["result"].values["cell_steps"] / o["seconds"] for o in p["ops"]
                if "cell_steps" in o["result"].values) for p in passes
        ) or None,
        "op_seconds": {name: statistics.median(o["seconds"] for p in passes for o in p["ops"]
                                               if o["name"] == name)
                       for name in dict.fromkeys(o["name"] for o in passes[0]["ops"])},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for checking the benchmark itself")
    args = ap.parse_args(argv)

    if not (SRC / "thinfilm" / "cli.py").is_file():
        print(f"error: no thinfilm sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("THINFILM_THREADS", None)
    sys.path.insert(0, str(SRC))
    from thinfilm import cli

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        wl, import_s, input_s = setup_phase(args.workload, args.seed, work, args.smoke)
        setup = {"import_s": statistics.median(import_s), "input_s": statistics.median(input_s)}
        span = args.seconds / 2 if args.trace else args.seconds
        plain = measure(wl, span, cli.main)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        traced, tracer = [], None
        if args.trace:
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                traced = measure(wl, span, tracer.wrap("cli.main", cli.main), tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    all_ops = [o for p in plain + traced for o in p["ops"]]
    failures = [{"op": o["name"], "problems": o["result"].problems}
                for o in all_ops if not o["result"].ok]
    attempted, failed = len(all_ops), len(failures)
    base = summarize(plain)
    last = (traced or plain)[-1]
    info = {
        "workload": args.workload,
        "smoke": args.smoke,
        "provenance": provenance(wl),
        "setup": {"import_s": import_s, "input_s": input_s},
        "untraced": base,
        "delta_mass_relerr": _op_value(plain, "delta_mass_relerr"),
        "known_red": {k: _op_value(plain, k) for k in
                      ("known_red.spike_offset_cells", "known_red.terminal_l1")
                      if _op_value(plain, k) is not None},
        "digests": {k: v for o in last["ops"] for k, v in o["digests"].items()},
        "deterministic_outputs": all(
            [o["digests"] for o in p["ops"]] == [o["digests"] for o in last["ops"]]
            for p in plain + traced
        ),
        "failures": failures,
    }

    if args.trace:
        tsum = summarize(traced)
        info["traced"] = tsum
        layer = tracing.layer_metrics(tracer.spans, len(traced))
        info["span_cost_s"] = tracing.span_cost_s()
        info["trace_overhead_estimate_s"] = info["span_cost_s"] * layer["trace.spans"]
        layer.update({
            "cli.bytes_written": statistics.mean(
                sum(o["result"].values["bytes"] for o in p["ops"]) for p in traced),
            "numerics.delta_mass_relerr": _op_value(traced, "delta_mass_relerr") or 0.0,
            "setup.import_s": setup["import_s"],
            "setup.input_s": setup["input_s"],
            "trace.overhead_s": tsum["wall_s"] - base["wall_s"],
            "gate.failed_ratio": failed / attempted,
        })
        units = tracing.LAYER_METRICS
        metrics = {k: {"value": float(layer[k]), "unit": u} for k, u in units.items()}
        spans_path = ROOT / ".perfbench_out" / f"spans-{args.workload}-s{args.seed}.jsonl"
        tracer.dump(spans_path)
        info["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = {
            "wall_s": {"value": base["wall_s"], "unit": "s"},
            "setup_s": {"value": setup["import_s"] + setup["input_s"], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "l1_err": {"value": _pass_sum(plain, "l1_err"), "unit": "1"},
        }

    for name, m in metrics.items():
        value = "missing" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name:44s} {value:>20s} {m['unit']}")
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
