"""Vanishing-gravity and vanishing-surface-tension studies.

Sending kappa to 0 at alpha = 1/2 recovers the surface-tension-only
film model; sending alpha to 0 at kappa = 1 recovers the triangular
system with thickness flux h^3/3.  Both limits act affinely on every
closed form (intermediate state, speeds, singular strength), so the
limit solution is simply the exact solver evaluated at the limiting
parameters, and convergence is measured in L1 for classical fans and
through singular-front mismatches plus weak pairings against bump test
functions when a point mass is present.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import Params
from .errors import InvalidDataError
from .interactions import l1_distance
from .riemann import (
    CASE_DELTA,
    BumpTestFunction,
    RiemannData,
    WaveFan,
    classify,
    solve,
    _ray_states,
    _space_time_gauss,
)

__all__ = [
    "LimitStudy",
    "study_params",
    "limit_target",
    "weak_pairing",
    "bump_catalog",
    "convergence_table",
]


@dataclass(frozen=True)
class LimitStudy:
    """One vanishing-parameter study.

    ``varying`` names the coefficient sent to zero through ``values``
    (strictly decreasing, positive); ``data.params`` gives the other
    coefficient and ``h_tol``, and its ``varying`` coefficient is
    overridden per value.  The fans are compared at t = 1.
    """

    varying: str
    values: tuple[float, ...]
    data: RiemannData

    def __post_init__(self) -> None:
        if self.varying not in ("kappa", "alpha"):
            raise ValueError("varying must be 'kappa' or 'alpha'")
        if len(self.values) < 1 or any(v <= 0.0 for v in self.values):
            raise InvalidDataError("values must be positive")
        if any(b >= a for a, b in zip(self.values[:-1], self.values[1:])):
            raise InvalidDataError("values must decrease strictly toward 0")


def study_params(study: LimitStudy, value: float) -> Params:
    return replace(study.data.params, **{study.varying: value})


def limit_target(d: RiemannData, which: str) -> WaveFan:
    """Exact fan of the limit system (vanishing coefficient set to zero)."""
    if which not in ("kappa", "alpha"):
        raise ValueError("which must be 'kappa' or 'alpha'")
    return solve(replace(d, params=replace(d.params, **{which: 0.0})))


def weak_pairing(
    fan_a: WaveFan, fan_b: WaveFan, testfn: BumpTestFunction
) -> tuple[float, float]:
    """<U_a - U_b, phi> componentwise, including singular parts.

    Regular parts are integrated with the same wave-aware composite
    quadrature as the weak-form residual, on 24 t panels; each singular
    front adds its line pairing int beta(t) phi(sigma t, t) dt.
    """
    def regular(xs: np.ndarray, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        xi = xs / ts
        ha, ba = _ray_states(fan_a, xi)
        hb, bb = _ray_states(fan_b, xi)
        vals = testfn.value(xs, ts)
        return (ha - hb) * vals, (ba - bb) * vals

    acc = _space_time_gauss(
        testfn, 24, [(fan_a, 1.0), (fan_b, -1.0)], regular,
        lambda x, t, sigma: testfn.value(x, t),
    )
    return float(acc[0]), float(acc[1])


def bump_catalog(sigma_ray: float) -> list[BumpTestFunction]:
    """Three bumps on 0.25 < t < 0.95: straddling, missing, containing the ray."""
    x_ray = sigma_ray * 0.6
    width = max(1.0, abs(x_ray))
    return [
        BumpTestFunction(x_ray, 0.6, 0.5 * width, 0.35),
        BumpTestFunction(x_ray - 4.0 * width, 0.6, 0.5 * width, 0.35),
        BumpTestFunction(x_ray, 0.6, 4.0 * width, 0.35),
    ]


def convergence_table(study: LimitStudy) -> list[dict]:
    """Distance columns per parameter value, all shrinking toward 0.

    Classical cases: the exact L1 distance of the two fans at t = 1
    (:func:`interactions.l1_distance`).  Singular cases: speed and
    strength-rate mismatches of the fronts plus weak pairings against
    the three-bump catalog (L1 of the regular parts is reported as
    well).
    """
    d0 = study.data
    target = limit_target(d0, study.varying)

    def one_row(value: float) -> dict:
        d = replace(d0, params=study_params(study, value))
        fan = solve(d)
        case = classify(d)
        l1 = l1_distance(fan, target, 1.0)
        if not math.isfinite(l1):
            raise InvalidDataError(f"the exact L1 distance at {study.varying}={value} is not finite")
        row = {
            "value": value,
            "case": case,
            "l1": l1,
            "dsigma": None,
            "dbeta_rate": None,
            "weak_pairings": None,
        }
        if case == CASE_DELTA:
            w = fan.waves[0]
            w0 = target.waves[0]
            row["dsigma"] = abs(w.speed - w0.speed)
            row["dbeta_rate"] = abs(w.strength_rate - w0.strength_rate)
            pair_vals = []
            for bump in bump_catalog(w0.speed):
                ph, pb = weak_pairing(fan, target, bump)
                pair_vals.append(abs(ph) + abs(pb))
            row["weak_pairings"] = pair_vals
        return row

    return [one_row(v) for v in study.values]
