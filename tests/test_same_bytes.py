"""Output files of a few CLI commands, pinned by sha256, and the FV
kernel's work counts on two of their inputs.

A refactor of the exact or the finite-volume layer that claims the same
results must leave these digests unchanged.  The commands use only
+, -, *, / and sqrt, which IEEE 754 rounds correctly on every platform,
so the digests do not depend on the platform's libm.
"""

import hashlib
import json

import pytest

from thinfilm import numerics
from thinfilm.cli import main
from thinfilm.core import Params, State
from thinfilm.riemann import RiemannData

from cases import JR, JS, JS_JS, NEAR_VACUUM_DELTA, TWO_STATE, config, options, state_options

# the J+R, J+S, delta, JS+JS and kappa-study examples of the README, and FV
# runs on J+S data
JS_CONFIG = config(JS, grid={"xmin": -2.0, "xmax": 8.0, "ncells": 400}, t_end=0.5)
# FV runs on 10,000 and 5,000 cells whose waves cross cell 2496, where
# numpy's pairwise sum splits the masses of both grids: the J+S data, and
# LLF delta capture on criterion 5's data
DELTA_FINE = config(NEAR_VACUUM_DELTA, grid={"xmin": -0.19, "xmax": 0.21, "ncells": 5000}, t_end=0.01,
                    delta_window=[0.0, 0.1])
CONFIGS = {
    "js": JS_CONFIG,
    "js-fine": {**JS_CONFIG, "grid": {"xmin": -2.0, "xmax": 8.0, "ncells": 10000}},
    # the delta mass is measured against the initial outer states; a
    # delta_background key, as older configs carry, is ignored
    "delta-fine": {**DELTA_FINE, "delta_background": [DELTA_FINE["initial"][k] for k in ("left", "right")]},
    "delta-fine-derived": DELTA_FINE,
    # a -0.0 right h: the kernel keeps the sign of every zero cell the
    # full-array expressions give it
    "delta-fine-negzero": {**DELTA_FINE, "initial": {**DELTA_FINE["initial"], "right": [-0.0, 5.56]}},
}
COMMANDS = {
    "riemann-jr": f"riemann {options(JR)} --samples 200".split(),
    "riemann-js": f"riemann {options(JS)} --samples 200".split(),
    "riemann-delta": f"riemann {options(TWO_STATE['delta'])} --samples 200".split(),
    "interact-jsjs": f"interact {options(JS_JS)} --profile-times 1,8 --samples 200".split(),
    "limits-kappa": f"limits --study kappa --values 1,0.5,0.1,0.01,0.001 --fixed 0.5 {state_options(JR)}".split(),
    "godunov": ["godunov", "--config", "js"],
    "llf": ["llf", "--config", "js"],
    "godunov-fine": ["godunov", "--config", "js-fine"],
    "llf-delta-fine": ["llf", "--config", "delta-fine"],
    "llf-delta-fine-derived": ["llf", "--config", "delta-fine-derived"],
    "godunov-delta-fine-negzero": ["godunov", "--config", "delta-fine-negzero"],
    "llf-delta-fine-negzero": ["llf", "--config", "delta-fine-negzero"],
}
DIGESTS = {
    "riemann-jr": {
        "result.csv": "49b7e1fb514229efb296042768eba4693c5b3676cd62f2e20cc91834efd61bac",
        "result.json": "eaf94a4961e428513054014721e8fd7de2bbe75f35839e6d62b456022dc5d82f",
    },
    "riemann-js": {
        "result.csv": "a414691789c0fb84bb2540d8a0c8a8dda3f7a463c1e9e85be61f48acb974b20a",
        "result.json": "16afb56a2200dfdc168b68748b3fbf739de3c91f45d866a2ebeb2dc8fa6e52f9",
    },
    "riemann-delta": {
        "result.csv": "cb6ed22a260985d1990cb0274f4b38490eb11b0b2b7cb9ec529bd47f81d87885",
        "result.json": "0206a36b059541bbf879c32c8d2058dd3c08b9ee0b4ef5960f2888141710233c",
    },
    "interact-jsjs": {
        "result.json": "54900bd89fdcf020b9bb23d1851302fafc7182b2e935798701b6f718dabbc98b",
        "result_t1.csv": "b6569bc9fe7992eb7a8179f0b96df6224ace2d69d9497fe4c31a0201c7d3f7ab",
        "result_t8.csv": "67802cde77099a0f1df3e87f5f63b66d832225ca0d3f2adb613f28698a9371a5",
    },
    "limits-kappa": {
        "result.csv": "c45d0f619f4a66245d472385f160e2ca2a0126296565c530bf3e42485e138e46",
    },
    "godunov": {
        "result.csv": "4206028f522508f374b7e098d287d82e3d501f2c9bed9b57526df0e26883e7f6",
        "result_diag.json": "77cddee7cff5d1b76caa94b1b42a682cdf16bebded9515ef1c1516780b3c51e8",
    },
    "llf": {
        "result.csv": "df78b180598a8d1c18bad84ec5f6590b1775e8f3b481966d7d954617c0c54ccb",
        "result_diag.json": "b35fcd93da27835eb40919b9d9c6f902e67d74e114ad5be420dd54065e72be60",
    },
    "godunov-fine": {
        "result.csv": "b4be3f218756ffd6102b84087041b3722964fd2d124fcbae914b41ca64fbfc98",
        "result_diag.json": "765130b305bffaf8a1f0d5c366f3d49e57cdc4452cf8809a05cb4fd7c6203d04",
    },
    "llf-delta-fine": {
        "result.csv": "d28a7629655bee7e9628243492b905c28103096fa4ec493dc16ba4432df7808a",
        "result_diag.json": "6b4a65f05768a1ae2d2cc5aef422af0c8eb45de00cb0e41f9dd2ecf98692d78d",
    },
    "godunov-delta-fine-negzero": {
        "result.csv": "dd294ac78c1a34649503f1e0d3a8ef290c0f2f5682bfb63e9e58989f565ac685",
        "result_diag.json": "cf47a4bb20cd6377a6b77de7c42b3e4cc03a3b3cac89475d95ea78222f48a793",
    },
    "llf-delta-fine-negzero": {
        "result.csv": "3636dc4878f8f7231b263a73abf47b980fef3fbe86109f690b0a25af13ff2753",
        "result_diag.json": "f4de4726bab8a59c5374008eecf1a38335dacfd6f0b1c903ed5ba696042f0936",
    },
}
DIGESTS["llf-delta-fine-derived"] = DIGESTS["llf-delta-fine"]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_digests(name, tmp_path):
    argv = list(COMMANDS[name])
    if "--config" in argv:
        i = argv.index("--config") + 1
        config = tmp_path / "config.json"
        config.write_text(json.dumps(CONFIGS[argv[i]]))
        argv[i] = str(config)
    out = tmp_path / "out"
    out.mkdir()
    # interact writes its timeline JSON to --out, and its profiles beside it
    result = "result.json" if argv[0] == "interact" else "result.csv"
    assert main([*argv, "--out", str(out / result)]) == 0
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.iterdir())}
    assert got == DIGESTS[name]


# The FV kernel's work counts on the J+S data (Godunov, 400 cells, t = 1)
# and on DELTA_FINE (LLF): a change to the step loop that claims the same
# work must compute the same cells in the same steps
WORK_COUNTS = {
    "godunov-js": ({**JS_CONFIG, "t_end": 1.0}, "godunov", {
        "n_steps": 321, "cell_updates": 28738, "max_active_cells": 155, "full_steps": 205,
        "settled_cell_steps": 281,
        "settled_drops": {"speed": 2, "overlap": 0, "edge": 0, "age": 1},
    }),
    "llf-delta-fine": (DELTA_FINE, "llf", {
        "n_steps": 2479, "cell_updates": 559688, "max_active_cells": 460, "full_steps": 287,
        "settled_cell_steps": 87678,
        "settled_drops": {"speed": 4, "overlap": 147, "edge": 0, "age": 18},
    }),
}


@pytest.mark.parametrize("name", sorted(WORK_COUNTS))
def test_kernel_work_counts(name):
    config, scheme, counts = WORK_COUNTS[name]
    p = Params(config["alpha"], config["kappa"])
    left, right = (State(*config["initial"][k]) for k in ("left", "right"))
    grid = numerics.Grid(*(config["grid"][k] for k in ("xmin", "xmax", "ncells")))
    field = numerics.field_from_riemann(RiemannData(left, right, p), grid)
    _, diag = numerics.run(field, numerics.SchemeConfig(scheme=scheme, t_end=config["t_end"]), p)
    assert {k: diag[k] for k in counts} == counts
