"""Entropy / entropy-flux pairs and convexity verification.

In Riemann-invariant coordinates every entropy has the separated form

    eta  = Psi(w1) + sqrt(w1) * Theta(p),       p = 3*alpha*w2 + kappa,
    q    = 3*(w1*Psi(w1) - int Psi dw1) + w1^(3/2) * Theta(p),

and eta is strictly convex on the open quadrant whenever Psi'' > 0,
Psi' < 0, 2*w1*Psi'' + Psi' > 0 and Theta(p) = A*sqrt(p) + B/sqrt(p)
with A, B >= 0.  Every pair here is a power pair, Psi = scale*w1^-n:
its convexity forms and verdicts are closed forms in (n, A, B, scale).
The antiderivative of Psi is normalized to vanish at w1 = 1 so
entropy-flux values are reproducible.
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


@dataclass(frozen=True)
class EntropyPair:
    """The pair Psi(w1) = scale*w1^-n, Theta(p) = A*sqrt(p) + B/sqrt(p).

    Each method takes a float or an array.  ``psi_antideriv`` vanishes
    at w1 = 1; the free integration constant cancels in jump brackets
    but has to be pinned for reproducible flux values.
    """

    n: float
    A: float
    B: float
    scale: float = 1.0
    name: str = ""

    def psi(self, w1):
        return self.scale * np.float_power(w1, -self.n)

    def psi_antideriv(self, w1):
        if self.n == 1.0:
            return self.scale * np.log(w1)
        return self.scale * (np.float_power(w1, 1.0 - self.n) - 1.0) / (1.0 - self.n)

    def theta(self, p):
        return self.A * np.sqrt(p) + self.B / np.sqrt(p)


def power_pair(n: float, A: float, B: float, scale: float = 1.0) -> EntropyPair:
    """Pair with Psi(w1) = scale*w1^-n and Theta(p) = A*sqrt(p) + B/sqrt(p)."""
    # 0.0 - n renders w1^2 for n = -2 and w1^0 for n = 0, not w1^--2 or w1^-0
    name = f"psi=w1^{0.0 - n:g}*{scale:g},theta={A:g}*sqrt(p)+{B:g}/sqrt(p)"
    return EntropyPair(n, A, B, scale, name)


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
        r2: 2*w1*(2*w1*Psi'' + Psi'),

    and, as Theta annihilates the ODE in the bracket, to
    9*alpha^2*2*n*scale*w1^-n and 2*n*(2*n + 1)*scale*w1^-n.  Both
    strictly positive means eta is strictly convex at ``u``.  The r1
    form vanishes identically when alpha = 0, which leaves the
    sufficient criterion silent for the pure-gravity case.  alpha is
    folded into w1^(-n/2) before squaring: 9*alpha^2 alone overflows
    to inf at alpha = 1e200, where w1^-3 underflows to 0, and their
    product would read NaN.
    """
    w1, _ = _w1_p(u, p)
    pw = np.float_power
    n, s = pair.n, pair.scale
    form1 = 18.0 * n * s * pw(p.alpha * pw(w1, -0.5 * n), 2.0)
    return form1, 2.0 * n * (2.0 * n + 1.0) * s * pw(w1, -n)


def theta_ode_residual(pair: EntropyPair, pval):
    """4*p^2*Theta'' + 4*p*Theta' - Theta, evaluated term by term; zero in
    exact arithmetic for every pair, so this checks only the implementation."""
    A, B, pw = pair.A, pair.B, np.float_power
    d1 = 0.5 * A / np.sqrt(pval) - 0.5 * B * pw(pval, -1.5)
    d2 = -0.25 * A * pw(pval, -1.5) + 0.75 * B * pw(pval, -2.5)
    return 4.0 * pval * pval * d2 + 4.0 * pval * d1 - pair.theta(pval)


def _convex(pair: EntropyPair) -> bool:
    """Psi' < 0 and 2*w1*Psi'' + Psi' > 0: both forms positive where alpha > 0."""
    n, s = pair.n, pair.scale
    return n * s > 0.0 and n * (2.0 * n + 1.0) * s > 0.0


def in_sufficient_family(pair: EntropyPair) -> bool:
    """Psi' < 0, Psi'' > 0, 2*w1*Psi'' + Psi' > 0 and A, B >= 0, read off
    the coefficients."""
    n, s = pair.n, pair.scale
    return _convex(pair) and n * (n + 1.0) * s > 0.0 and pair.A >= 0.0 and pair.B >= 0.0


def entropy_report(params: Params, n_grid: int = 50) -> dict:
    """Compatibility and convexity summary of :func:`pair_catalog` on the
    box [1e-2, 1e2]^2 of states, read at its four corners.

    Used by the ``entropy-check`` CLI command.  The verdict is exact:
    ``inconclusive`` when alpha = 0, where the first form degenerates,
    else ``convex`` when both forms' coefficients are positive and
    ``fails`` otherwise.  ``min_form1`` and ``min_form2`` are the
    floating-point minima over the box (both forms depend on the state
    only through w1, which rises in h and in b), which may underflow to
    0; ``n_grid`` (at least 1) is only recorded.  A minimum or residual
    that is inf or NaN reads None (JSON null); the verdict reads none.
    """
    if n_grid < 1:
        raise InvalidDataError(f"n_grid must be at least 1, got {n_grid}")
    corners = np.array([[1e-2, 1e-2, 1e2, 1e2], [1e-2, 1e2, 1e-2, 1e2]])
    report: dict = {
        "alpha": params.alpha,
        "kappa": params.kappa,
        "grid": {"h": [1e-2, 1e2], "b": [1e-2, 1e2], "n": n_grid},
        "pairs": [],
    }
    finite_or_none = lambda v: float(v) if math.isfinite(v) else None
    for pair in pair_catalog():
        # at extreme alpha the forms and the corners' differences over- or underflow
        with np.errstate(all="ignore"):
            f1, f2 = convexity_forms(corners, pair, params)
            compat = max(compatibility_residual(State(h, b), pair, params) for h, b in corners.T)
        if params.alpha == 0.0:
            verdict = "inconclusive"
        else:
            verdict = "convex" if _convex(pair) else "fails"
        report["pairs"].append(
            {
                "name": pair.name,
                "sufficient_family": in_sufficient_family(pair),
                "min_form1": finite_or_none(f1.min()),
                "min_form2": finite_or_none(f2.min()),
                "max_compatibility_residual": finite_or_none(compat),
                "verdict": verdict,
            }
        )
    return report
