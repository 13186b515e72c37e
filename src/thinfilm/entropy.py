"""Entropy / entropy-flux pairs and convexity verification.

In Riemann-invariant coordinates every entropy has the separated form

    eta  = Psi(w1) + sqrt(w1) * Theta(p),       p = 3*alpha*w2 + kappa,
    q    = 3*(w1*Psi(w1) - int Psi dw1) + w1^(3/2) * Theta(p),

and eta is strictly convex on the open quadrant whenever Psi'' > 0,
Psi' < 0, 2*w1*Psi'' + Psi' > 0 and Theta(p) = A*sqrt(p) + B/sqrt(p)
with A, B >= 0.  The antiderivative of Psi is normalized to vanish at
w1 = 1 so entropy-flux values are reproducible.
Everything here takes a State or a (2, n) array of states; powers use
``np.float_power``, which has the bits of Python's ``**`` on floats and
arrays alike (numpy's ``**`` on arrays does not).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import Params, State, jacobian, riemann_invariants
from .errors import BoundaryStateError, InvalidDataError

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

ArrayFn = Callable[[float | np.ndarray], float | np.ndarray]


@dataclass(frozen=True)
class EntropyPair:
    """Generator functions of one entropy pair, with derivatives.

    Each takes a float or an array.  ``psi_antideriv`` must satisfy
    psi_antideriv(1) == 0; the free integration constant cancels in jump
    brackets but has to be pinned for reproducible flux values.
    """

    psi: ArrayFn
    psi_prime: ArrayFn
    psi_pprime: ArrayFn
    psi_antideriv: ArrayFn
    theta: ArrayFn
    theta_prime: ArrayFn
    theta_pprime: ArrayFn
    name: str = ""


def power_pair(n: float, A: float, B: float, scale: float = 1.0) -> EntropyPair:
    """Pair with Psi(w1) = scale*w1^-n and Theta(p) = A*sqrt(p) + B/sqrt(p)."""
    pw = np.float_power
    if n == 1.0:
        anti = lambda w1: scale * np.log(w1)
    else:
        anti = lambda w1: scale * (pw(w1, 1.0 - n) - 1.0) / (1.0 - n)
    return EntropyPair(
        psi=lambda w1: scale * pw(w1, -n),
        psi_prime=lambda w1: -n * scale * pw(w1, -n - 1.0),
        psi_pprime=lambda w1: n * (n + 1.0) * scale * pw(w1, -n - 2.0),
        psi_antideriv=anti,
        theta=lambda p: A * np.sqrt(p) + B / np.sqrt(p),
        theta_prime=lambda p: 0.5 * A / np.sqrt(p) - 0.5 * B * pw(p, -1.5),
        theta_pprime=lambda p: -0.25 * A * pw(p, -1.5) + 0.75 * B * pw(p, -2.5),
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


def _w1_p(u, p: Params) -> tuple:
    """w1 and 3*alpha*w2 + kappa; raises unless every state is in the open quadrant."""
    h, b = u
    if np.any(h <= 0.0) or np.any(b <= 0.0):
        raise BoundaryStateError("entropy pairs are defined on the open quadrant")
    inv = riemann_invariants(u, p)
    return inv.w1, 3.0 * p.alpha * inv.w2 + p.kappa


def entropy(u, pair: EntropyPair, p: Params):
    """eta(u) = Psi(w1) + sqrt(w1)*Theta(3*alpha*w2 + kappa)."""
    w1, pval = _w1_p(u, p)
    return pair.psi(w1) + np.sqrt(w1) * pair.theta(pval)


def entropy_flux(u, pair: EntropyPair, p: Params):
    """q(u) = 3*(w1*Psi(w1) - int_1^w1 Psi) + w1^(3/2)*Theta(p)."""
    w1, pval = _w1_p(u, p)
    q = 3.0 * (w1 * pair.psi(w1) - pair.psi_antideriv(w1))
    return q + np.float_power(w1, 1.5) * pair.theta(pval)


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
    _w1_p(u, p)  # raises on the quadrant's boundary
    q_fn = flux_fn if flux_fn is not None else (lambda s: entropy_flux(s, pair, p))
    s = min(step, 0.25 * u.h, 0.25 * u.b)

    def grad(f: Callable[[State], float]) -> np.ndarray:
        dh = (f(State(u.h + s, u.b)) - f(State(u.h - s, u.b))) / (2.0 * s)
        db = (f(State(u.h, u.b + s)) - f(State(u.h, u.b - s))) / (2.0 * s)
        return np.array([dh, db])

    grad_q = grad(q_fn)
    grad_eta = grad(lambda st: entropy(st, pair, p))
    return float(np.max(np.abs(grad_q - grad_eta @ jacobian(u, p))))


def convexity_forms(u, pair: EntropyPair, p: Params) -> tuple:
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
    ode, psi_term, form_r2 = _r1_terms_and_r2_form(*_w1_p(u, p), pair)
    return 9.0 * np.float_power(p.alpha, 2.0) * (ode + psi_term), form_r2


def _r1_terms_and_r2_form(w1, pval, pair: EntropyPair) -> tuple:
    """The r1 form of :func:`convexity_forms` over 9*alpha^2 as its two terms,
    the Theta ODE residual and -2*w1*Psi'(w1), then the r2 form."""
    return (
        theta_ode_residual(pair, pval),
        -2.0 * w1 * pair.psi_prime(w1),
        2.0 * w1 * (2.0 * w1 * pair.psi_pprime(w1) + pair.psi_prime(w1)),
    )


# Each term of the Theta ODE residual carries a power or square root, up to
# three products and its share of the sum: on the catalog the computed
# residual stays within 1.1*eps*(4p^2|Theta''| + 4p|Theta'| + |Theta|), and
# this factor times that scale bounds it.
_ODE_ROUNDING = 8.0


def theta_ode_residual(pair: EntropyPair, pval):
    """4*p^2*Theta'' + 4*p*Theta' - Theta; zero exactly for A*sqrt(p)+B/sqrt(p)."""
    return (
        4.0 * pval * pval * pair.theta_pprime(pval)
        + 4.0 * pval * pair.theta_prime(pval)
        - pair.theta(pval)
    )


def in_sufficient_family(pair: EntropyPair) -> bool:
    """Check the strict-convexity sufficient conditions at 25 log-spaced
    w1 and p samples on [1e-2, 1e2], the Theta ODE to 1e-12 relative."""
    s = np.geomspace(1e-2, 1e2, 25)
    d1, d2, theta = pair.psi_prime(s), pair.psi_pprime(s), pair.theta(s)
    psi_ok = np.all((d2 > 0.0) & (d1 < 0.0) & (2.0 * s * d2 + d1 > 0.0))
    ode_off = np.abs(theta_ode_residual(pair, s)) > 1e-12 * np.maximum(1.0, np.abs(theta))
    return bool(psi_ok and not np.any(ode_off) and not np.any(theta < 0.0))


def entropy_report(params: Params, n_grid: int = 50) -> dict:
    """Compatibility and convexity summary of :func:`pair_catalog` over an
    ``n_grid`` x ``n_grid`` log grid of states on [1e-2, 1e2]^2.

    Used by the ``entropy-check`` CLI command.  When alpha = 0 the
    first quadratic form degenerates and the verdict is reported as
    ``inconclusive`` instead of ``convex``, and so it is when a form
    overflows to a non-finite value or when Psi' or Psi'' falls below the
    smallest normal float somewhere on the grid (at alpha ~ 1e100 they
    underflow, and the forms that carry them read 0 or rounding noise
    where they are positive in exact arithmetic).  For alpha > 0 the r1
    verdict is the sign of the form over 9*alpha^2, a factor that
    underflows to 0 for alpha below about 1e-162, with a Theta ODE
    residual that lies within its rounding bound (:data:`_ODE_ROUNDING`
    times eps times the size of its terms) taken as the 0 it is in exact
    arithmetic: for large alpha that rounding outweighs the -2*w1*Psi'
    term.
    """
    if n_grid < 1:
        raise InvalidDataError(f"n_grid must be at least 1, got {n_grid}")
    hs = bs = np.geomspace(1e-2, 1e2, n_grid)
    grid = np.array(np.meshgrid(hs, bs, indexing="ij")).reshape(2, -1)
    probe = [State(h, b) for h in hs[::17] for b in bs[::17]]
    report: dict = {
        "alpha": params.alpha,
        "kappa": params.kappa,
        "grid": {"h": [hs[0], hs[-1]], "b": [bs[0], bs[-1]], "n": n_grid},
        "pairs": [],
    }
    # a large alpha overflows the forms; the verdict reads the non-finite values
    with np.errstate(all="ignore"):
        w1, pval = _w1_p(grid, params)
    for pair in pair_catalog():
        with np.errstate(all="ignore"):
            ode, psi_term, f2 = _r1_terms_and_r2_form(w1, pval, pair)
            bracket = ode + psi_term
            min1 = float((9.0 * np.float_power(params.alpha, 2.0) * bracket).min())
            min2 = float(f2.min())
            compat = max(compatibility_residual(u, pair, params) for u in probe)
            finite = np.isfinite(bracket).all() and np.isfinite(f2).all()
            bound = _ODE_ROUNDING * np.finfo(float).eps * (
                4.0 * pval * pval * np.abs(pair.theta_pprime(pval))
                + 4.0 * pval * np.abs(pair.theta_prime(pval))
                + np.abs(pair.theta(pval))
            )
            r1 = np.where(np.abs(ode) <= bound, 0.0, ode) + psi_term
            tiny = np.finfo(float).tiny
            underflow = not (
                (np.abs(pair.psi_prime(w1)) >= tiny).all()
                and (np.abs(pair.psi_pprime(w1)) >= tiny).all()
            )
        member = in_sufficient_family(pair)
        if params.alpha == 0.0 or not finite or underflow:
            verdict = "inconclusive"
        elif r1.min() > 0.0 and min2 > 0.0:
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
