"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. Smoke mode (tiny inputs) of every workload, untraced and traced,
   emits exactly the metrics BENCHMARK.json names, with their units, and
   every operation passes its gate.
2. The gate bites: outputs corrupted after the command wrote them, or a
   non-zero exit code, are counted as failed operations by the same
   pass loop the benchmark uses.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def check_smoke(spec: dict) -> None:
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for name in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "0",
                 "--seconds", "1", "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            assert out.returncode == 0, out.stderr
            res = json.loads(out.stdout.strip().splitlines()[-1])
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
            assert res["correct"] and res["failed"] == 0, (name, trace, out.stdout[-2000:])
            assert res["attempted"] >= 1
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want[trace], (name, trace, set(got) ^ set(want[trace]))
            for k, v in res["metrics"].items():
                assert isinstance(v["value"], float) and math.isfinite(v["value"]), (k, v)
                if trace == 0:
                    assert v["value"] != 0.0, (name, k)
            print(f"smoke {name} trace={trace}: {res['attempted']} ops, metrics ok")


def _corrupt(path: Path, pattern: str, repl: str) -> None:
    text = path.read_text()
    new = re.sub(pattern, repl, text, count=1)
    assert new != text, (path, pattern)
    path.write_text(new)


# (workload, op name, file, regex, replacement): each breaks one gate
CORRUPTIONS = (
    ("fv-godunov-long", "godunov", "field.csv", r"\n([^,\n]+),[^,\n]+,", r"\n\1,-1,"),
    ("fv-godunov-long", "godunov", "field_diag.json",
     r'"max_conservation_residual": [^,\n]+', '"max_conservation_residual": 1e-9'),
    ("fv-llf-delta", "llf", "field_diag.json",
     r"\[\s*([0-9.e-]+),\s*[0-9.e-]+\s*\]\s*\]", r"[\1, 0.5]]"),
    ("exact-tracking", "interact-js-js", "timeline.json", r'"epsilon": 0.1\b', '"epsilon": 0.10'),
    ("exact-tracking", "interact-jr-js-generic", "timeline_t8.csv", r"\n([^,\n]+),[^,\n]+,", r"\n\1,99,"),
    ("exact-tracking", "riemann-delta", "profile.csv", r",(?!0\n)[0-9][0-9.e+-]*\n", ",1\n"),
    ("exact-tracking", "limits-kappa", "table.csv", r"(\n0\.001,J\+R,)[^,]+", r"\g<1>5"),
    ("exact-tracking", "entropy-check", "entropy.json", r'"verdict": "convex"', '"verdict": "fails"'),
)


def check_gate_bites(tmp: Path) -> None:
    from thinfilm import cli

    for wl_name in sorted({c[0] for c in CORRUPTIONS}):
        wl = workloads.generate(wl_name, 0, tmp / wl_name, smoke=True)
        clean = run.run_pass(wl, cli.main)
        bad = [o["name"] for o in clean["ops"] if not o["result"].ok]
        assert not bad, (wl_name, bad)
        for _, op_name, fname, pattern, repl in (c for c in CORRUPTIONS if c[0] == wl_name):
            op = next(o for o in wl.ops if o.name == op_name)

            def corrupting(argv, op=op, fname=fname, pattern=pattern, repl=repl):
                rc = cli.main(argv)
                _corrupt(op.out_dir / fname, pattern, repl)
                return rc

            one = workloads.Workload(wl.name, wl.seed, [op])
            res = run.run_pass(one, corrupting)["ops"][0]["result"]
            assert not res.ok, (op_name, fname, "corruption passed the gate")
            print(f"gate catches corrupted {op_name}/{fname}: {res.problems[0][:70]}")
        op = wl.ops[0]
        one = workloads.Workload(wl.name, wl.seed, [op])
        res = run.run_pass(one, lambda argv: 3)["ops"][0]["result"]
        assert not res.ok and res.problems == ["exit code 3"], res.problems
        print(f"gate catches exit code 3 on {op.name}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_smoke(spec)
    tmp = ROOT / ".perfbench_work" / "selftest"
    try:
        check_gate_bites(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if tmp.parent.is_dir() and not any(tmp.parent.iterdir()):
            tmp.parent.rmdir()
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
