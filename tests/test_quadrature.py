"""The batched space-time quadrature against a per-t-node reference.

``riemann._space_time_gauss`` builds the Gauss nodes of every t node at
once and calls each integrand once.  The reference below is the loop it
replaced: one ``np.linspace`` per x piece and one integrand call per t
node through ``riemann.profile``.  Both must give the same bits.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from thinfilm.core import Params, State, phi
from thinfilm.limits import LimitStudy, bump_catalog, limit_target, study_params, weak_pairing
from thinfilm.riemann import (
    BumpTestFunction,
    DeltaShock,
    RiemannData,
    profile,
    solve,
    weak_residual,
)

from cases import COMPOSITE, DELTA, FILM, GRAVITY, JR, JS, TWO_STATE


def reference_space_time_gauss(testfn, resolution, fans, regular, probe):
    """The quadrature with one integrand call per t node."""
    x0, x1, t0, t1 = testfn.box
    t0 = max(t0, 1e-12)
    edges = {s for fan, _ in fans for w in fan.waves for s in w.speed_range()}
    gt_nodes, gt_wts = np.polynomial.legendre.leggauss(6)
    gx_nodes, gx_wts = np.polynomial.legendre.leggauss(8)
    x_target = (x1 - x0) / max(resolution, 4)

    acc = np.zeros(2)
    t_panels = np.linspace(t0, t1, resolution + 1)
    for ta, tb in zip(t_panels[:-1], t_panels[1:]):
        tm, th = 0.5 * (ta + tb), 0.5 * (tb - ta)
        for tn, tw in zip(gt_nodes, gt_wts):
            t = tm + th * tn
            breaks = sorted({x0, x1, *(s * t for s in edges if x0 < s * t < x1)})
            nodes, weights = [], []
            for xa, xb in zip(breaks[:-1], breaks[1:]):
                n_sub = max(1, int(math.ceil((xb - xa) / x_target)))
                sub = np.linspace(xa, xb, n_sub + 1)
                xm = 0.5 * (sub[:-1] + sub[1:])
                xh = 0.5 * (sub[1] - sub[0])
                nodes.append((xm[:, None] + xh * gx_nodes[None, :]).ravel())
                weights.append(np.tile(xh * gx_wts, n_sub))
            g0, g1 = regular(np.concatenate(nodes), t)
            cuts = np.cumsum([len(w) for w in weights])[:-1]
            for wts, v0, v1 in zip(weights, np.split(g0, cuts), np.split(g1, cuts)):
                acc[0] += tw * th * float(np.dot(wts, v0))
                acc[1] += tw * th * float(np.dot(wts, v1))
    if probe is None:
        return acc

    for fan, sign in fans:
        for w in fan.waves:
            if not isinstance(w, DeltaShock):
                continue
            for ta, tb in zip(t_panels[:-1], t_panels[1:]):
                tm, th = 0.5 * (ta + tb), 0.5 * (tb - ta)
                ts = tm + th * gt_nodes
                vals = w.strength_rate * ts * probe(w.speed * ts, ts, w.speed)
                acc[1] += sign * th * float(np.dot(gt_wts, vals))
    return acc


def reference_weak_residual(fan, testfn, resolution, include_singular):
    p = fan.data.params

    def regular(xs, t):
        h, b, _ = profile(fan, t, xs)
        w1 = phi((h, b), p)
        phit, phix = testfn.dt(xs, t), testfn.dx(xs, t)
        return h * phit + h * w1 * phix, b * phit + b * w1 * phix

    def along_support(x, t, sigma):
        return testfn.dt(x, t) + sigma * testfn.dx(x, t)

    res = reference_space_time_gauss(
        testfn, resolution, [(fan, 1.0)], regular,
        along_support if include_singular else None,
    )
    return abs(float(res[0])), abs(float(res[1]))


def reference_weak_pairing(fan_a, fan_b, testfn):
    def regular(xs, t):
        ha, ba, _ = profile(fan_a, t, xs)
        hb, bb, _ = profile(fan_b, t, xs)
        vals = testfn.value(xs, t)
        return (ha - hb) * vals, (ba - bb) * vals

    acc = reference_space_time_gauss(
        testfn, 24, [(fan_a, 1.0), (fan_b, -1.0)], regular,
        lambda x, t, sigma: testfn.value(x, t),
    )
    return float(acc[0]), float(acc[1])


FANS = {
    "J+R": solve(JR),
    "J+S": solve(JS),
    "J+S-kappa": solve(replace(JS, params=GRAVITY)),
    "composite": solve(replace(COMPOSITE, params=FILM)),
    "delta": solve(DELTA),
    "delta-kappa": solve(TWO_STATE["delta"]),
    "constant": solve(RiemannData(State(1.0, 1.0), State(1.0, 1.0), FILM)),
}
BUMPS = [
    BumpTestFunction(1.0, 0.8, 2.5, 0.6),
    BumpTestFunction(1.5, 0.8, 3.0, 0.6),
    # narrow, off the waves; and reaching down to t = 0.01
    BumpTestFunction(-0.3, 1.1, 0.4, 0.2),
    BumpTestFunction(0.0, 0.5, 2.0, 0.49),
]


@pytest.mark.parametrize("resolution", [8, 13, 24, 32])
@pytest.mark.parametrize("include_singular", [True, False], ids=["singular", "regular-only"])
@pytest.mark.parametrize("name", list(FANS))
def test_weak_residual_matches_reference(name, include_singular, resolution):
    fan = FANS[name]
    bumps = list(BUMPS)
    if fan.waves and isinstance(fan.waves[0], DeltaShock):
        bumps.append(BumpTestFunction(fan.waves[0].speed * 0.8, 0.8, 1.5, 0.6))
    for bump in bumps:
        got = weak_residual(fan, bump, resolution=resolution, include_singular=include_singular)
        assert got == reference_weak_residual(fan, bump, resolution, include_singular)


# the benchmark's alpha study on the delta data, and kappa studies on the
# delta and J+R data
STUDIES = {
    "alpha-delta": LimitStudy("alpha", (1.0, 0.5, 0.1, 0.01, 0.001), replace(DELTA, params=Params(1.0, 1.0))),
    "kappa-delta": LimitStudy("kappa", (1.0, 0.5, 0.1, 0.01, 0.001), replace(DELTA, params=GRAVITY)),
    "kappa-jr": LimitStudy("kappa", (1.0, 0.1, 0.001), replace(JR, params=GRAVITY)),
}


@pytest.mark.parametrize("name", list(STUDIES))
def test_weak_pairing_matches_reference(name):
    study = STUDIES[name]
    target = limit_target(study.data, study.varying)
    ray = next((w.speed for w in target.waves if isinstance(w, DeltaShock)), 1.0)
    for value in study.values:
        fan = solve(replace(study.data, params=study_params(study, value)))
        for bump in bump_catalog(ray):
            assert weak_pairing(fan, target, bump) == reference_weak_pairing(fan, target, bump)
