"""The paper's three stability studies: a perturbation sent to zero.

Shrinking the middle interval of three-state data (epsilon -> 0)
recovers the Riemann solution of the outer states.  Sending kappa to 0
at alpha = 1/2 recovers the surface-tension-only film model; sending
alpha to 0 at kappa = 1 recovers the triangular system with thickness
flux h^3/3.  Both coefficient limits act affinely on every closed form
(intermediate state, speeds, singular strength), so their limit
solution is simply the exact solver evaluated at the limiting
parameters.  Convergence is measured at t = 1: in L1 between the
regular parts, through the offsets of the point masses when either
solution has one, and for a delta-shock fan through weak pairings
against bump test functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import Params
from .errors import InvalidDataError
from .interactions import PerturbedData, l1_distance, run_timeline, _point_masses
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


# the data each study perturbs
_DATA = {"epsilon": PerturbedData, "kappa": RiemannData, "alpha": RiemannData}


@dataclass(frozen=True)
class LimitStudy:
    """One stability study.

    ``varying`` names the perturbation sent to zero through ``values``
    (strictly decreasing, positive): ``"epsilon"``, the half-width of
    the middle state of ``PerturbedData``, or the coefficient
    ``"kappa"`` or ``"alpha"`` of ``RiemannData``, whose ``params`` give
    the other coefficient and ``h_tol`` (the varying one is overridden
    per value).  The solutions are compared at t = 1.
    """

    varying: str
    values: tuple[float, ...]
    data: RiemannData | PerturbedData

    def __post_init__(self) -> None:
        kind = _DATA.get(self.varying)
        if kind is None:
            raise ValueError("varying must be 'epsilon', 'kappa' or 'alpha'")
        if not isinstance(self.data, kind):
            raise ValueError(f"a {self.varying} study takes {kind.__name__}, got {type(self.data).__name__}")
        if len(self.values) < 1 or any(v <= 0.0 for v in self.values):
            raise InvalidDataError("values must be positive")
        if any(b >= a for a, b in zip(self.values[:-1], self.values[1:])):
            raise InvalidDataError("values must decrease strictly toward 0")


def study_params(study: LimitStudy, value: float) -> Params:
    return replace(study.data.params, **{study.varying: value})


def limit_target(d: RiemannData | PerturbedData, which: str) -> WaveFan:
    """Exact fan of the limit problem: of the outer states for epsilon,
    else with the vanishing coefficient set to zero."""
    if which == "epsilon":
        return solve(d.outer_data())
    if which not in ("kappa", "alpha"):
        raise ValueError("which must be 'epsilon', 'kappa' or 'alpha'")
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
    """Distance columns per value, all shrinking toward 0.

    Each row compares at t = 1 the solution at the value with the limit
    fan (:func:`limit_target`): for kappa and alpha the exact fan, for
    epsilon the default :func:`interactions.run_timeline`, whose
    ``case_tag`` is the row's case.  ``l1`` is the exact L1 distance of
    the regular parts (:func:`interactions.l1_distance`).  The singular
    columns compare the point masses: ``dbeta_rate`` is the difference
    of their summed strengths whenever either solution has one, and
    ``dsigma`` of their positions when each has exactly one (on a fan
    these are the strength rate and the speed).  A delta-shock fan also
    gets weak pairings against the three-bump catalog; epsilon rows
    leave them None.
    """
    d0, which = study.data, study.varying
    target = limit_target(d0, which)
    target_masses = _point_masses(target, 1.0)

    def one_row(value: float) -> dict:
        if which == "epsilon":
            sol = run_timeline(replace(d0, epsilon=value))
            case = sol.case_tag
        else:
            d = replace(d0, params=study_params(study, value))
            sol, case = solve(d), classify(d)
        l1 = l1_distance(sol, target, 1.0)
        if not math.isfinite(l1):
            raise InvalidDataError(f"the exact L1 distance at {which}={value} is not finite")
        row = {
            "value": value,
            "case": case,
            "l1": l1,
            "dsigma": None,
            "dbeta_rate": None,
            "weak_pairings": None,
        }
        masses = _point_masses(sol, 1.0)
        if masses or target_masses:
            row["dbeta_rate"] = abs(sum(m for _, m in masses) - sum(m for _, m in target_masses))
        if len(masses) == len(target_masses) == 1:
            row["dsigma"] = abs(masses[0][0] - target_masses[0][0])
        if case == CASE_DELTA:
            pairs = (weak_pairing(sol, target, bump) for bump in bump_catalog(target_masses[0][0]))
            row["weak_pairings"] = [abs(ph) + abs(pb) for ph, pb in pairs]
        return row

    return [one_row(v) for v in study.values]
