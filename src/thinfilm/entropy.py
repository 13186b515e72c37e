"""Entropy / entropy-flux pairs and convexity verification.

In Riemann-invariant coordinates every entropy has the separated form

    eta  = Psi(w1) + sqrt(w1) * Theta(p),       p = 3*alpha*w2 + kappa,
    q    = 3*(w1*Psi(w1) - int Psi dw1) + w1^(3/2) * Theta(p),

and eta is strictly convex on the open quadrant whenever Psi'' > 0,
Psi' < 0, 2*w1*Psi'' + Psi' > 0 and Theta(p) = A*sqrt(p) + B/sqrt(p)
with A, B >= 0.  The antiderivative of Psi is normalized to vanish at
w1 = 1 so entropy-flux values are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import Params, State, jacobian, riemann_invariants
from .errors import BoundaryStateError

__all__ = [
    "EntropyPair",
    "power_pair",
    "canonical_pair",
    "pair_catalog",
    "entropy",
    "entropy_flux",
    "compatibility_residual",
    "convexity_forms",
    "theta_ode_residual",
    "in_sufficient_family",
    "entropy_report",
]

ScalarFn = Callable[[float], float]


@dataclass(frozen=True)
class EntropyPair:
    """Generator functions of one entropy pair, with derivatives.

    ``psi_antideriv`` must satisfy psi_antideriv(1) == 0; the free
    integration constant cancels in jump brackets but has to be pinned
    for reproducible flux values.
    """

    psi: ScalarFn
    psi_prime: ScalarFn
    psi_pprime: ScalarFn
    psi_antideriv: ScalarFn
    theta: ScalarFn
    theta_prime: ScalarFn
    theta_pprime: ScalarFn
    name: str = ""


def power_pair(n: float, A: float, B: float, scale: float = 1.0) -> EntropyPair:
    """Pair with Psi(w1) = scale*w1^-n and Theta(p) = A*sqrt(p) + B/sqrt(p)."""
    if n == 1.0:

        def anti(w1: float) -> float:
            return scale * math.log(w1)

    else:

        def anti(w1: float) -> float:
            return scale * (w1 ** (1.0 - n) - 1.0) / (1.0 - n)

    return EntropyPair(
        psi=lambda w1: scale * w1 ** (-n),
        psi_prime=lambda w1: -n * scale * w1 ** (-n - 1.0),
        psi_pprime=lambda w1: n * (n + 1.0) * scale * w1 ** (-n - 2.0),
        psi_antideriv=anti,
        theta=lambda p: A * math.sqrt(p) + B / math.sqrt(p),
        theta_prime=lambda p: 0.5 * A / math.sqrt(p) - 0.5 * B * p ** (-1.5),
        theta_pprime=lambda p: -0.25 * A * p ** (-1.5) + 0.75 * B * p ** (-2.5),
        name=f"psi=w1^-{n:g}*{scale:g},theta={A:g}*sqrt(p)+{B:g}/sqrt(p)",
    )


def canonical_pair() -> EntropyPair:
    """Psi = 1/(3*w1), Theta = sqrt(3/p); gives eta = h + 1/(3*alpha*h*b + kappa*h^2)."""
    return replace(power_pair(1.0, 0.0, math.sqrt(3.0), scale=1.0 / 3.0), name="canonical")


def pair_catalog() -> list[EntropyPair]:
    """Built-in convex family: canonical plus w1^-n against both basic Thetas."""
    pairs = [canonical_pair()]
    for n in (1.0, 2.0, 3.0):
        pairs.append(power_pair(n, 0.0, math.sqrt(3.0)))
        pairs.append(power_pair(n, 1.0, 0.0))
    return pairs


def _w1_p(u: State, p: Params) -> tuple[float, float]:
    inv = riemann_invariants(u, p)
    return inv.w1, 3.0 * p.alpha * inv.w2 + p.kappa


def _require_interior(u: State) -> None:
    if u.h <= 0.0 or u.b <= 0.0:
        raise BoundaryStateError("entropy pairs are defined on the open quadrant")


def entropy(u: State, pair: EntropyPair, p: Params) -> float:
    """eta(u) = Psi(w1) + sqrt(w1)*Theta(3*alpha*w2 + kappa)."""
    _require_interior(u)
    w1, pval = _w1_p(u, p)
    return pair.psi(w1) + math.sqrt(w1) * pair.theta(pval)


def entropy_flux(u: State, pair: EntropyPair, p: Params) -> float:
    """q(u) = 3*(w1*Psi(w1) - int_1^w1 Psi) + w1^(3/2)*Theta(p)."""
    _require_interior(u)
    w1, pval = _w1_p(u, p)
    return 3.0 * (w1 * pair.psi(w1) - pair.psi_antideriv(w1)) + w1**1.5 * pair.theta(
        pval
    )


def compatibility_residual(
    u: State,
    pair: EntropyPair,
    p: Params,
    step: float = 1e-5,
    flux_fn: Callable[[State], float] | None = None,
) -> float:
    """Max-norm of grad(q) - grad(eta) . DF at ``u``, by central differences.

    Vanishes as O(step^2) for a true entropy pair.  ``flux_fn`` may
    replace the entropy flux (used by negative controls); gradients of
    eta and q use the same stencil, the flux Jacobian is analytic.
    """
    _require_interior(u)
    q_fn = flux_fn if flux_fn is not None else (lambda s: entropy_flux(s, pair, p))
    s = min(step, 0.25 * u.h, 0.25 * u.b)

    def grad(f: Callable[[State], float]) -> np.ndarray:
        dh = (f(State(u.h + s, u.b)) - f(State(u.h - s, u.b))) / (2.0 * s)
        db = (f(State(u.h, u.b + s)) - f(State(u.h, u.b - s))) / (2.0 * s)
        return np.array([dh, db])

    grad_q = grad(q_fn)
    grad_eta = grad(lambda st: entropy(st, pair, p))
    return float(np.max(np.abs(grad_q - grad_eta @ jacobian(u, p))))


def convexity_forms(u: State, pair: EntropyPair, p: Params) -> tuple[float, float]:
    """Quadratic forms r_i^T Hess(eta) r_i along both eigenvector fields.

    With r1 = (-3*alpha*h, 3*alpha*b + 2*kappa*h) and r2 = (h, b) the
    contractions reduce (verified symbolically and by finite
    differences) to

        r1: 9*alpha^2*(4*p^2*Theta'' + 4*p*Theta' - Theta - 2*w1*Psi'),
        r2: 2*w1*(2*w1*Psi'' + Psi').

    Both strictly positive means eta is strictly convex at ``u``.  The
    r1 form vanishes identically when alpha = 0, which leaves the
    sufficient criterion silent for the pure-gravity case.
    """
    _require_interior(u)
    w1, pval = _w1_p(u, p)
    form_r1 = 9.0 * p.alpha**2 * (theta_ode_residual(pair, pval) - 2.0 * w1 * pair.psi_prime(w1))
    form_r2 = 2.0 * w1 * (2.0 * w1 * pair.psi_pprime(w1) + pair.psi_prime(w1))
    return form_r1, form_r2


def theta_ode_residual(pair: EntropyPair, pval: float) -> float:
    """4*p^2*Theta'' + 4*p*Theta' - Theta; zero exactly for A*sqrt(p)+B/sqrt(p)."""
    return (
        4.0 * pval * pval * pair.theta_pprime(pval)
        + 4.0 * pval * pair.theta_prime(pval)
        - pair.theta(pval)
    )


def in_sufficient_family(pair: EntropyPair) -> bool:
    """Check the strict-convexity sufficient conditions at 25 log-spaced
    w1 and p samples on [1e-2, 1e2], the Theta ODE to 1e-12 relative."""
    samples = np.geomspace(1e-2, 1e2, 25)
    for w1 in samples:
        d1, d2 = pair.psi_prime(w1), pair.psi_pprime(w1)
        if not (d2 > 0.0 and d1 < 0.0 and 2.0 * w1 * d2 + d1 > 0.0):
            return False
    for pv in samples:
        scale = max(1.0, abs(pair.theta(pv)))
        if abs(theta_ode_residual(pair, pv)) > 1e-12 * scale:
            return False
        if pair.theta(pv) < 0.0:
            return False
    return True


def entropy_report(params: Params, n_grid: int = 50) -> dict:
    """Compatibility and convexity summary of :func:`pair_catalog` over an
    ``n_grid`` x ``n_grid`` log grid of states on [1e-2, 1e2]^2.

    Used by the ``entropy-check`` CLI command.  When alpha = 0 the
    second quadratic form degenerates and the verdict is reported as
    ``inconclusive`` instead of ``convex``.
    """
    hs = bs = np.geomspace(1e-2, 1e2, n_grid)
    probe = [State(h, b) for h in hs[::17] for b in bs[::17]]
    report: dict = {
        "alpha": params.alpha,
        "kappa": params.kappa,
        "grid": {"h": [hs[0], hs[-1]], "b": [bs[0], bs[-1]], "n": n_grid},
        "pairs": [],
    }
    for pair in pair_catalog():
        min1 = math.inf
        min2 = math.inf
        for h in hs:
            for b in bs:
                f1, f2 = convexity_forms(State(h, b), pair, params)
                min1 = min(min1, f1)
                min2 = min(min2, f2)
        compat = max(compatibility_residual(u, pair, params) for u in probe)
        member = in_sufficient_family(pair)
        if params.alpha == 0.0:
            verdict = "inconclusive"
        elif min1 > 0.0 and min2 > 0.0:
            verdict = "convex"
        else:
            verdict = "fails"
        report["pairs"].append(
            {
                "name": pair.name,
                "sufficient_family": member,
                "min_form1": min1,
                "min_form2": min2,
                "max_compatibility_residual": compat,
                "verdict": verdict,
            }
        )
    return report
