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

from dataclasses import dataclass, replace

import numpy as np

from .core import Params
from .errors import InvalidDataError
from .riemann import (
    CASE_DELTA,
    BumpTestFunction,
    RiemannData,
    WaveFan,
    classify,
    profile,
    solve,
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
    def regular(xs: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
        ha, ba, _ = profile(fan_a, t, xs)
        hb, bb, _ = profile(fan_b, t, xs)
        vals = testfn.value(xs, t)
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


def convergence_table(study: LimitStudy, n_samples: int = 10000) -> list[dict]:
    """Distance columns per parameter value, all shrinking toward 0.

    Classical cases: L1 distance of the sampled profiles at t = 1, a
    Riemann sum over ``n_samples`` equispaced points running from 0.5
    left of the slowest wave (or of x = 0, whichever is further left)
    to 0.5 right of the fastest wave of either fan.  Where the two fans
    put a jump at different places the sum can miscount the strip
    between them by one sample, so the column carries an error up to
    the jump times the sample spacing.  Singular cases: speed and
    strength-rate mismatches of the fronts plus weak pairings against
    the three-bump catalog (L1 of the regular parts is reported as
    well).
    """
    if n_samples < 2:
        raise InvalidDataError(f"n_samples must be at least 2, got {n_samples}")
    d0 = study.data
    target = limit_target(
        RiemannData(d0.left, d0.right, study_params(study, study.values[0])),
        study.varying,
    )
    speeds = [s for w in target.waves for s in w.speed_range()] or [0.0]

    def one_row(value: float) -> dict:
        p = study_params(study, value)
        d = RiemannData(d0.left, d0.right, p)
        fan = solve(d)
        case = classify(d)
        edges = [s for w in fan.waves for s in w.speed_range()]
        lo = min(0.0, min(edges), min(speeds)) - 0.5
        hi = max(max(edges), max(speeds)) + 0.5
        xs = np.linspace(lo, hi, n_samples)
        h_a, b_a, _ = profile(fan, 1.0, xs)
        h_b, b_b, _ = profile(target, 1.0, xs)
        l1 = float(np.sum(np.abs(h_a - h_b) + np.abs(b_a - b_b)) * (xs[1] - xs[0]))

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
