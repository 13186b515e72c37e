"""State space, flux algebra and characteristic structure.

The system is a 2x2 non-symmetric Keyfitz-Kranzer model for film
thickness h and solute concentration gradient b,

    h_t + (alpha*h^2*b + kappa*h^3/3)_x = 0,
    b_t + (alpha*h*b^2 + kappa*h^2*b/3)_x = 0,

i.e. both components are advected with the common multiplier
phi(h, b) = alpha*h*b + kappa*h^2/3.  Everything downstream (wave
curves, entropies, schemes) is built from the few closed forms here;
phi, flux, eigenvalues and riemann_invariants take a State, an (h, b)
pair or a (2, n) array of states, in the same bits either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundaryStateError,
    DegenerateParameterError,
    InvalidParamsError,
    InvalidStateError,
)

__all__ = [
    "Params",
    "State",
    "Eigenstructure",
    "Invariants",
    "CharacteristicFields",
    "phi",
    "flux",
    "jacobian",
    "eigenvalues",
    "eigenstructure",
    "riemann_invariants",
    "state_from_invariants",
    "characteristic_fields",
]


@dataclass(frozen=True)
class Params:
    """Surface-tension coefficient ``alpha`` and gravity coefficient ``kappa``.

    Both are nonnegative and at least one must be positive (an all-zero
    flux would make every wave formula vacuous).  ``h_tol`` is only the
    thickness below which a state sits on the boundary of the quadrant,
    never a closeness tolerance; desk-scale data use near-zero stand-ins
    like 1e-7 for vacuum states.
    """

    alpha: float
    kappa: float
    h_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and math.isfinite(self.kappa)):
            raise InvalidParamsError("alpha and kappa must be finite")
        if self.alpha < 0.0 or self.kappa < 0.0:
            raise InvalidParamsError("alpha and kappa must be nonnegative")
        if self.alpha == 0.0 and self.kappa == 0.0:
            raise InvalidParamsError("alpha and kappa cannot both vanish")
        if not (math.isfinite(self.h_tol) and self.h_tol >= 0.0):
            raise InvalidParamsError("h_tol must be a nonnegative float")


@dataclass(frozen=True)
class State:
    """A point (h, b) in the closed quadrant h >= 0, b >= 0."""

    h: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.h) and math.isfinite(self.b)):
            raise InvalidStateError(f"non-finite state ({self.h}, {self.b})")
        if self.h < 0.0 or self.b < 0.0:
            raise InvalidStateError(f"state outside quadrant ({self.h}, {self.b})")

    def __iter__(self):
        """h then b: ``h, b = u`` unpacks a state like a (2, n) array."""
        return iter((self.h, self.b))

    def as_array(self) -> np.ndarray:
        return np.array([self.h, self.b])


@dataclass(frozen=True)
class Eigenstructure:
    """Characteristic speeds and right eigenvectors at one state.

    lambda2 == 3*lambda1 identically; both vanish on h = 0 where the
    eigenvectors align and the system is only weakly hyperbolic.
    """

    lambda1: float
    lambda2: float
    r1: tuple[float, float]
    r2: tuple[float, float]


@dataclass(frozen=True)
class Invariants:
    """Riemann invariants w1 = alpha*h*b + kappa*h^2/3 and w2 = b/h (floats or arrays)."""

    w1: float
    w2: float


@dataclass(frozen=True)
class CharacteristicFields:
    """Field classification at one state.

    The first field is linearly degenerate everywhere.  The second is
    genuinely nonlinear exactly where the indicator h*(3*alpha*b +
    2*kappa*h) is nonzero, i.e. off the h = 0 boundary (and off b = 0
    when kappa = 0).
    """

    field1: str
    field2: str
    gn_indicator: float


def phi(u, p: Params):
    """Common transport multiplier alpha*h*b + kappa*h^2/3 (equals lambda1)."""
    h, b = u
    return p.alpha * h * b + p.kappa * h * h / 3.0


def flux(u, p: Params) -> np.ndarray:
    """Flux vector (h*phi, b*phi)."""
    h, b = u
    f = phi(u, p)
    return np.array([h * f, b * f])


def jacobian(u: State, p: Params) -> np.ndarray:
    """Exact derivative of the flux with respect to (h, b)."""
    a, k, h, b = p.alpha, p.kappa, u.h, u.b
    return np.array(
        [
            [2.0 * a * h * b + k * h * h, a * h * h],
            [a * b * b + 2.0 * k * h * b / 3.0, 2.0 * a * h * b + k * h * h / 3.0],
        ]
    )


def eigenvalues(u, p: Params) -> tuple:
    """Characteristic speeds (lambda1, lambda2), ascending."""
    h, b = u
    return phi(u, p), 3.0 * p.alpha * h * b + p.kappa * h * h


def eigenstructure(u: State, p: Params) -> Eigenstructure:
    """Eigenvalues together with the (unnormalized) right eigenvectors."""
    lam1, lam2 = eigenvalues(u, p)
    r1 = (-3.0 * p.alpha * u.h, 3.0 * p.alpha * u.b + 2.0 * p.kappa * u.h)
    r2 = (u.h, u.b)
    return Eigenstructure(lam1, lam2, r1, r2)


def riemann_invariants(u, p: Params) -> Invariants:
    """Invariants (w1, w2) of states with h > 0; w2 is undefined at h = 0."""
    h, b = u
    if np.any(h <= 0.0):
        raise BoundaryStateError("Riemann invariants require h > 0")
    return Invariants(w1=phi(u, p), w2=b / h)


def state_from_invariants(w: Invariants, p: Params) -> State:
    """Invert (w1, w2) -> (h, b) on the open quadrant.

    From w1 = h^2*(3*alpha*w2 + kappa)/3 the thickness is
    h = sqrt(3*w1 / (3*alpha*w2 + kappa)) and b = w2*h.
    """
    denom = 3.0 * p.alpha * w.w2 + p.kappa
    if denom <= 0.0:
        raise DegenerateParameterError("3*alpha*w2 + kappa must be positive")
    if w.w1 < 0.0:
        raise InvalidStateError("w1 must be nonnegative")
    h = math.sqrt(3.0 * w.w1 / denom)
    return State(h=h, b=w.w2 * h)


def characteristic_fields(u: State, p: Params) -> CharacteristicFields:
    """Classify both characteristic fields at ``u``.

    grad(lambda1) . r1 vanishes identically, so the 1-field is linearly
    degenerate everywhere.  The 2-field indicator follows the closed
    form h*(3*alpha*b + 2*kappa*h); states within h_tol of the boundary
    are snapped onto it.
    """
    h = 0.0 if u.h <= p.h_tol else u.h
    gn = h * (3.0 * p.alpha * u.b + 2.0 * p.kappa * h)
    field2 = "genuinely nonlinear" if gn != 0.0 else "linearly degenerate"
    return CharacteristicFields(
        field1="linearly degenerate", field2=field2, gn_indicator=gn
    )
