"""Output files of a few CLI commands, pinned by sha256.

A refactor of the exact or the finite-volume layer that claims the same
results must leave these digests unchanged.  The commands use only
+, -, *, / and sqrt, which IEEE 754 rounds correctly on every platform,
so the digests do not depend on the platform's libm.
"""

import hashlib
import json

import pytest

from thinfilm.cli import main

# the J+R, J+S and delta examples of the README, and FV runs on J+S data
JS_CONFIG = {
    "alpha": 0.5, "kappa": 0.0,
    "grid": {"xmin": -2.0, "xmax": 8.0, "ncells": 400},
    "t_end": 0.5,
    "initial": {"left": [1.5, 1.6], "right": [1.25, 1.15]},
}
COMMANDS = {
    "riemann-jr": ["riemann", "--alpha", "0.5", "--kappa", "0", "--samples", "200",
                   "--left", "1.24,0.90", "--right", "1.5,1.56"],
    "riemann-js": ["riemann", "--alpha", "0.5", "--kappa", "0", "--samples", "200",
                   "--left", "1.5,1.6", "--right", "1.25,1.15"],
    "riemann-delta": ["riemann", "--alpha", "0.5", "--kappa", "1", "--samples", "200",
                      "--left", "2,2", "--right", "0,1"],
    "godunov": ["godunov", "--config", "CONFIG"],
    "llf": ["llf", "--config", "CONFIG"],
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
    "godunov": {
        "result.csv": "4206028f522508f374b7e098d287d82e3d501f2c9bed9b57526df0e26883e7f6",
        "result_diag.json": "c9f3c8ce6c3cd7f550f49b0af9272075db1fa13f7da9c9ccb2be3331e32e3f67",
    },
    "llf": {
        "result.csv": "df78b180598a8d1c18bad84ec5f6590b1775e8f3b481966d7d954617c0c54ccb",
        "result_diag.json": "2de8bac0128a350423f332eff9c2c2aca9e31862331f5600219d80d8681e0157",
    },
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_digests(name, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(JS_CONFIG))
    out = tmp_path / "out"
    out.mkdir()
    argv = [str(config) if a == "CONFIG" else a for a in COMMANDS[name]]
    assert main([*argv, "--out", str(out / "result.csv")]) == 0
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.iterdir())}
    assert got == DIGESTS[name]
