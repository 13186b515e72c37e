"""First-order finite-volume solvers and diagnostics.

Two interface fluxes are provided: the exact-Riemann (Godunov) flux and
a local Lax-Friedrichs (Rusanov) flux.  Every characteristic speed of
the system is nonnegative on the state quadrant, so the Godunov flux
reduces to pure upwinding; the batch kernel used inside :func:`step`
exploits that, and its equivalence with the sampled exact solution is
asserted in the test suite.

:func:`run` and :func:`step` share one step kernel that updates the
field in place over its active window only: the cells from one left of
the first cell whose bits differ from its left neighbour's to the last
such cell.  Skipping the rest is exact, not approximate.  Two
neighbouring cells with equal bits have equal-bit fluxes, so under
upwinding their flux difference is exactly 0 and ``h - lam*0 == h``;
under LLF ``0.5*(f+f) - 0.5*a*0 == f`` as well.  The window grows by at
most one cell per side per step and its edges are found again by a few
scalar tests, so a run pays for the cells its waves (and the scheme's
numerical diffusion, down to rounding) have reached, and its output is
bit-identical to a full-array update.

The kernel holds h and b as the two rows of one padded array, so the
cell fluxes, their differences, the ``dt/dx`` scaling, the update and
the finiteness and positivity check each treat both components in one
ufunc call, and it writes every intermediate into work buffers
allocated once per run and sliced to the window.  This too changes no
bit: every ufunc applies the same IEEE operation to the same operands
in the same order as the array expression it replaces (``kappa*h*h``,
computed once, then enters ``lambda2`` and ``phi`` exactly as it did in
each), no matter which buffer receives the result, and a row-wise
``np.add.reduce`` of the two rows is the same pairwise sum as
``np.sum`` of each.

Delta shocks are run with the diffusive
flux on fine meshes and measured through the windowed-mass diagnostic.
The LLF b peak of a captured delta shock converges onto the singular
ray only at an order of about 0.4 in dx (diffusion mixes states whose
phi exceeds the front speed), so it sits hundreds of cells ahead of
the ray even at dx = 1e-4.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import Params, State, eigenvalues, flux
from .errors import SchemeFailureError
from .riemann import RiemannData, sample, solve

__all__ = [
    "Grid",
    "FVField",
    "SchemeConfig",
    "godunov_flux",
    "llf_flux",
    "step",
    "run",
    "cfl_sensitivity_report",
    "delta_mass",
    "peak_location",
    "invariant_transport_residual",
    "field_from_riemann",
    "field_from_perturbed",
]


@dataclass(frozen=True)
class Grid:
    """Uniform 1-D cell grid on [x_min, x_max]."""

    x_min: float
    x_max: float
    n_cells: int

    def __post_init__(self) -> None:
        if self.n_cells <= 0 or self.x_max <= self.x_min:
            raise ValueError("grid needs x_max > x_min and n_cells > 0")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx


@dataclass
class FVField:
    """Cell-averaged (h, b) snapshot at time t."""

    grid: Grid
    h: np.ndarray
    b: np.ndarray
    t: float = 0.0

    def copy(self) -> "FVField":
        return FVField(self.grid, self.h.copy(), self.b.copy(), self.t)


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme selection and run control.

    cfl defaults to 0.45; outflow (zero-gradient) boundaries are the
    only supported kind since all example runs are Riemann-type with
    waves leaving the domain.
    """

    scheme: str = "godunov"
    cfl: float = 0.45
    t_end: float = 1.0

    def __post_init__(self) -> None:
        if self.scheme not in ("godunov", "llf"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl must lie in (0, 1]")


def _phi(h, b, p: Params):
    """lambda1 = alpha*h*b + kappa*h*h/3 of floats or arrays."""
    return p.alpha * h * b + p.kappa * h * h / 3.0


def godunov_flux(uL: State, uR: State, p: Params) -> np.ndarray:
    """Exact-Riemann interface flux: flux of the solution sampled on x/t = 0.

    Raises when the pair is unclassifiable (two vanishing components).
    The batch kernel used by :func:`step` is the upwind shortcut
    flux(uL), which agrees with this sampling because no wave of the
    system travels left.
    """
    v = sample(solve(RiemannData(uL, uR, p)), 0.0)
    return flux(v.regular, p)


def llf_flux(uL: State, uR: State, p: Params) -> np.ndarray:
    """Local Lax-Friedrichs (Rusanov) flux with speed max(lambda2(uL), lambda2(uR))."""
    a = max(eigenvalues(uL, p)[1], eigenvalues(uR, p)[1])
    return 0.5 * (flux(uL, p) + flux(uR, p)) - 0.5 * a * (
        uR.as_array() - uL.as_array()
    )


def _edge(hv: np.ndarray, bv: np.ndarray, i: int, stop: int, direction: int) -> int | None:
    """Nearest pair to ``i``, walking by ``direction`` up to ``stop``, whose cells differ.

    ``hv`` and ``bv`` are the int64 views of the padded field, so pair k
    compares cell k - 1 with cell k bit for bit.  A few scalar tests find
    the edge of a window that moved by a cell; a longer constant run is
    searched as an array.
    """
    for _ in range(8):
        if (stop - i) * direction < 0:
            return None
        if hv[i] != hv[i + 1] or bv[i] != bv[i + 1]:
            return i
        i += direction
    lo, hi = (i, stop) if direction > 0 else (stop, i)
    if hi < lo:
        return None
    d = np.flatnonzero(
        (hv[lo : hi + 1] != hv[lo + 1 : hi + 2]) | (bv[lo : hi + 1] != bv[lo + 1 : hi + 2])
    )
    if d.size == 0:
        return None
    return lo + int(d[0] if direction > 0 else d[-1])


class _Kernel:
    """A field advanced in place over its active window, one step per call.

    ``U`` holds h and b as its two rows, with one outflow ghost at each
    end, so cell i sits at column i + 1; ``H`` and ``B`` view the rows and
    ``field`` views the interior.  ``win`` is the inclusive cell range
    [lo - 1, hi] the next step updates, where lo and hi are the first and
    last cells i >= 1 that differ in bits from cell i - 1, or [0, 0] on a
    constant field.  The window holds a cell of every distinct state, so
    the maximum wave speed over it is the maximum over the field.  The
    work buffers are allocated here once and sliced to the window.
    """

    def __init__(self, f: FVField, cfg: SchemeConfig, p: Params):
        n = f.grid.n_cells
        self.cfg, self.p, self.n = cfg, p, n
        self.U = np.empty((2, n + 2))
        self.H, self.B = self.U
        self.H[1:-1], self.B[1:-1] = f.h, f.b
        self.U[:, 0], self.U[:, -1] = self.U[:, 1], self.U[:, -2]
        self.hv, self.bv = self.H.view(np.int64), self.B.view(np.int64)
        self.field = FVField(f.grid, self.H[1:-1], self.B[1:-1], f.t)
        # kappa*h*h, lambda2 and phi per cell; cell fluxes; interface
        # fluxes (LLF); interface differences
        self.kh2, self.lam2, self.phi = np.empty((3, n + 2))
        self.flux = np.empty((2, n + 2))
        self.iflux = np.empty((2, n + 1))
        self.diff = np.empty((2, n + 1))
        self.win = self._window(1, n - 1)
        self.cell_updates = 0
        self.max_active = 0

    def _window(self, i: int, j: int) -> tuple[int, int]:
        """Update range from the cell pairs in [i, j], the only ones that can differ."""
        lo = _edge(self.hv, self.bv, i, j, 1)
        if lo is None:
            return 0, 0
        return lo - 1, _edge(self.hv, self.bv, j, lo, -1)

    def _check(self, i0: int, i1: int, what: str, t: float, positivity: bool) -> None:
        """Raise at the first non-finite (or, with ``positivity``, negative) cell in [i0, i1]."""
        u = self.U[:, i0 + 1 : i1 + 2]
        # both reductions propagate a NaN in either row
        lo, hi = np.minimum.reduce(u, axis=None), np.maximum.reduce(u, axis=None)
        if math.isfinite(lo) and math.isfinite(hi) and (not positivity or lo >= -1e-12):
            return
        bad = ~np.isfinite(u).all(axis=0)
        if bad.any():
            msg = f"non-finite {what} at t={t}"
        else:
            bad = (u < -1e-12).any(axis=0)
            msg = f"positivity lost at t={t}"
        k = int(np.argmax(bad))
        x = self.field.grid.centers()[i0 + k]
        h, b = u[:, k]
        raise SchemeFailureError(f"{msg}: cell {i0 + k} at x={x} has h={h}, b={b}")

    def advance(self, check_all: bool) -> tuple[tuple[float, float], ...] | None:
        """One step, or None if t did not step.

        Returns the h fluxes and the b fluxes of cells 0 and n - 1 before
        the step, as ``((h0, h_last), (b0, b_last))``.

        ``check_all`` extends the finiteness and positivity checks from
        the window to the whole field; cells outside the window keep their
        bits, so the first step of a run needs it and later steps do not.
        """
        cfg, p, n, f, U = self.cfg, self.p, self.n, self.field, self.U
        i0, i1 = self.win
        m = i1 - i0 + 1
        t, dx = f.t, f.grid.dx
        if check_all:
            self._check(0, n - 1, "field", t, positivity=False)
        us = U[:, i0 : i1 + 3]
        hs, bs = us
        kh2, lam2, phi = self.kh2[: m + 2], self.lam2[: m + 2], self.phi[: m + 2]
        with np.errstate(over="ignore"):
            # lambda2 as core.eigenvalues orders it, with kappa*h*h kept for
            # phi; 3*phi is equal in exact arithmetic but not in bits (they
            # differ in about half of random draws), so dt and the LLF
            # speeds keep this form
            np.multiply(p.kappa, hs, out=kh2)
            kh2 *= hs
            np.multiply(3.0 * p.alpha, hs, out=lam2)
            lam2 *= bs
            lam2 += kh2
        lam_max = float(np.maximum.reduce(lam2))
        if not math.isfinite(lam_max):
            raise SchemeFailureError(f"wave speeds overflow at t={t}")
        remaining = cfg.t_end - t
        if remaining <= 0.0:
            return None
        if lam_max <= 0.0:
            if np.ptp(f.h) > 0.0 or np.ptp(f.b) > 0.0:
                warnings.warn("all wave speeds vanish on nonconstant data; field is frozen")
            f.t = cfg.t_end
            return None
        dt = min(cfg.cfl * dx / lam_max, remaining)
        if dt <= 0.0:
            raise SchemeFailureError(f"time step collapsed at t={t}")

        # the outflow boundary fluxes: the same in both schemes
        (h0, hn), (b0, bn) = U[:, [1, n]].tolist()
        phi0, phin = _phi(h0, b0, p), _phi(hn, bn, p)
        boundary = (h0 * phi0, hn * phin), (b0 * phi0, bn * phin)
        # _phi, then the cell fluxes of both components at once
        np.multiply(p.alpha, hs, out=phi)
        phi *= bs
        kh2 /= 3.0
        phi += kh2
        fl = np.multiply(us, phi, out=self.flux[:, : m + 2])
        diff = self.diff[:, :m]
        if cfg.scheme == "godunov":
            # upwind: all characteristic speeds are >= 0 on the quadrant
            np.subtract(fl[:, 1:-1], fl[:, :-2], out=diff)
        else:
            s_half = np.maximum(lam2[:-1], lam2[1:], out=kh2[:-1])
            s_half *= 0.5
            F = np.add(fl[:, :-1], fl[:, 1:], out=self.iflux[:, : m + 1])
            F *= 0.5
            du = np.subtract(us[:, 1:], us[:, :-1], out=self.diff[:, : m + 1])
            du *= s_half
            F -= du
            np.subtract(F[:, 1:], F[:, :-1], out=diff)
        diff *= dt / dx
        U[:, i0 + 1 : i1 + 2] -= diff
        self._check(*((0, n - 1) if check_all else (i0, i1)), "update", t, positivity=True)
        if i0 == 0:
            U[:, 0] = U[:, 1]
        if i1 == n - 1:
            U[:, -1] = U[:, -2]
        f.t = t + dt
        self.cell_updates += m
        self.max_active = max(self.max_active, m)
        self.win = self._window(max(i0, 1), min(i1 + 1, n - 1))
        return boundary


def step(f: FVField, cfg: SchemeConfig, p: Params) -> FVField:
    """One conservative forward-Euler update with CFL-limited time step.

    dt = cfl * dx / max(lambda2), capped so the field never advances
    past cfg.t_end.  Outflow ghost cells; raises SchemeFailureError on
    NaNs or on loss of positivity beyond rounding noise, naming the
    first offending cell.
    """
    k = _Kernel(f, cfg, p)
    k.advance(check_all=True)
    return k.field


def _piecewise(grid: Grid, breaks: tuple[float, ...], states: tuple[State, ...]) -> FVField:
    """Pointwise projection of ``states`` split at the increasing ``breaks``;
    a cell center exactly on a break takes the state to its right."""
    k = np.searchsorted(breaks, grid.centers(), side="right")
    h, b = np.array([u.h for u in states])[k], np.array([u.b for u in states])[k]
    return FVField(grid, h, b, 0.0)


def field_from_riemann(d: RiemannData, grid: Grid) -> FVField:
    """Pointwise projection of two-state data split at x = 0."""
    return _piecewise(grid, (0.0,), (d.left, d.right))


def field_from_perturbed(pd, grid: Grid) -> FVField:
    """Three-state data with the middle state on [-epsilon, epsilon)."""
    return _piecewise(grid, (-pd.epsilon, pd.epsilon), (pd.left, pd.middle, pd.right))


def run(
    initial: FVField,
    cfg: SchemeConfig,
    p: Params,
    record_times: list[float] | None = None,
    delta: tuple[tuple[float, float], tuple[State, State]] | None = None,
) -> tuple[FVField, dict]:
    """Advance to cfg.t_end collecting conservation and mass diagnostics.

    Diagnostics: per-step mass series for both components, worst
    telescoping conservation residual (mass change minus boundary flux
    balance), with ``delta = (window, background)`` the per-step
    :func:`delta_mass` series, and snapshots at ``record_times``.
    """
    k = _Kernel(initial, cfg, p)
    f = k.field
    dx = f.grid.dx
    interior = k.U[:, 1:-1]
    sum_h, sum_b = np.add.reduce(interior, axis=1).tolist()
    masses_h, masses_b = [sum_h * dx], [sum_b * dx]
    cons_res = 0.0
    delta_series: list[tuple[float, float]] = []
    snapshots: list[FVField] = []
    want = sorted(record_times) if record_times else []
    wi = 0

    n_steps = 0
    while f.t < cfg.t_end - 1e-14:
        t_prev = f.t
        boundary = k.advance(check_all=n_steps == 0)
        sum_h, sum_b = np.add.reduce(interior, axis=1).tolist()
        mass_h, mass_b = sum_h * dx, sum_b * dx
        if boundary is not None:
            # the realised step, as the field's times record it
            dt = f.t - t_prev
            for mass_prev, mass_new, (F0, Fn) in zip(
                (masses_h[-1], masses_b[-1]), (mass_h, mass_b), boundary
            ):
                res = mass_new - mass_prev + dt * (Fn - F0)
                cons_res = max(cons_res, abs(res))
        masses_h.append(mass_h)
        masses_b.append(mass_b)
        if delta is not None:
            delta_series.append((f.t, delta_mass(f, *delta)))
        while wi < len(want) and f.t >= want[wi] - 1e-12:
            snapshots.append(f.copy())
            wi += 1
        n_steps += 1

    diagnostics = {
        "n_steps": n_steps,
        "mass_h": masses_h,
        "mass_b": masses_b,
        "max_conservation_residual": cons_res,
        "cell_updates": k.cell_updates,
        "max_active_cells": k.max_active,
        "delta_mass": delta_series,
        "snapshots": snapshots,
        "grid": {"x_min": f.grid.x_min, "x_max": f.grid.x_max, "n_cells": f.grid.n_cells},
        "cfl": cfg.cfl,
        "scheme": cfg.scheme,
    }
    return f, diagnostics


def cfl_sensitivity_report(
    initial: FVField,
    cfg: SchemeConfig,
    p: Params,
    reference: Callable[[FVField], float],
) -> dict:
    """Error of the same run at CFL numbers 0.9, 0.45 and 0.225.

    ``reference`` maps the final field to an error value.  For
    first-order schemes the effective viscosity grows as the time step
    shrinks, so halving the CFL number typically increases the error;
    the report flags whether no error exceeds the one before by more
    than 5% instead of asserting it.
    """
    cfls = [0.9, 0.45, 0.225]
    errors = []
    for cfl in cfls:
        f, _ = run(initial.copy(), replace(cfg, cfl=cfl), p)
        errors.append(reference(f))
    monotone = all(later <= earlier * 1.05 for earlier, later in zip(errors[:-1], errors[1:]))
    return {"cfls": cfls, "errors": errors, "monotone_within_tolerance": monotone}


def peak_location(f: FVField, window: tuple[float, float]) -> float:
    """Cell center of the largest b value inside the window."""
    cells = _window_cells(f.grid, float(window[0]), float(window[1]))
    return float(f.grid.centers()[cells][np.argmax(f.b[cells])])


@functools.lru_cache(maxsize=16)
def _window_cells(grid: Grid, lo: float, hi: float) -> slice:
    """The cells whose centers lie in [lo, hi], as a slice.

    Cached, so a run that measures the same window every step builds it
    once.  Centers increase with the index, so the cells are contiguous.
    """
    x = grid.centers()
    idx = np.flatnonzero((x >= lo) & (x <= hi))
    if idx.size == 0:
        raise ValueError("window lies outside the grid")
    return slice(int(idx[0]), int(idx[-1]) + 1)


def delta_mass(
    f: FVField, window: tuple[float, float], background: tuple[State, State]
) -> float:
    """Windowed excess b-mass over the two-state background.

    The background is a step from the left to the right state switching
    at the b peak inside the window; the excess estimates the point
    mass carried by a captured singular front.
    """
    bw = f.b[_window_cells(f.grid, float(window[0]), float(window[1]))]
    k = int(bw.argmax())
    excess = np.empty_like(bw)
    np.subtract(bw[:k], background[0].b, out=excess[:k])
    np.subtract(bw[k:], background[1].b, out=excess[k:])
    return float(np.add.reduce(excess) * f.grid.dx)


def invariant_transport_residual(
    history: list[FVField],
    p: Params,
    window: tuple[float, float],
) -> tuple[float, float]:
    """Mean transport residuals of (w1, w2) on a smooth subregion.

    Takes three consecutive snapshots; time derivatives use the outer
    pair, space derivatives the middle one.  Cells with h below h_tol
    are excluded (w2 undefined); the caller is responsible for keeping
    the window away from discontinuities.
    """
    if len(history) != 3:
        raise ValueError("need exactly three consecutive snapshots")
    f0, f1, f2 = history
    dtt = f2.t - f0.t
    dx = f1.grid.dx
    x = f1.grid.centers()
    mask = (x >= window[0]) & (x <= window[1])
    mask &= (f0.h > p.h_tol) & (f1.h > p.h_tol) & (f2.h > p.h_tol)
    idx = np.flatnonzero(mask)
    idx = idx[(idx > 0) & (idx < f1.grid.n_cells - 1)]
    if idx.size == 0:
        raise ValueError("window contains no interior smooth cells")

    def w1(f: FVField) -> np.ndarray:
        return _phi(f.h, f.b, p)

    def w2(f: FVField) -> np.ndarray:
        return f.b / np.where(f.h > p.h_tol, f.h, 1.0)

    w1_0, w1_1, w1_2 = w1(f0), w1(f1), w1(f2)
    w2_0, w2_1, w2_2 = w2(f0), w2(f1), w2(f2)
    dw1_x = (w1_1[idx + 1] - w1_1[idx - 1]) / (2.0 * dx)
    dw2_x = (w2_1[idx + 1] - w2_1[idx - 1]) / (2.0 * dx)
    r1 = (w1_2[idx] - w1_0[idx]) / dtt + 3.0 * w1_1[idx] * dw1_x
    r2 = (w2_2[idx] - w2_0[idx]) / dtt + w1_1[idx] * dw2_x
    return float(np.mean(np.abs(r1))), float(np.mean(np.abs(r2)))
