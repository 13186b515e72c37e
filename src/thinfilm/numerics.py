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
in the same order as the array expression it replaces, no matter which
buffer receives the result.  lambda2 and phi are the two rows of one
buffer, indexed like the field, and one ``(2, m)`` pass computes
``(3*alpha)*h*b`` and ``alpha*h*b`` in both; ``kappa*h*h`` is then added
to the first and ``kappa*h*h/3`` to the second.  At kappa = 0 those
terms are never computed: on a finite cell they equal ``0.0*kappa``,
+0.0 or -0.0 as kappa is, and that signed zero is added instead (adding
it still turns a -0.0 into +0.0 at kappa = +0.0, as the full expression
does).  phi always takes it; lambda2 takes it only under LLF, whose
interface speeds carry the sign of a zero into the fluxes, while
upwinding reads lambda2 only through its maximum.

Inside the window, a run of cells at its left edge often keeps its bits
for many steps: their flux differences are so small that ``u - c*d``
rounds back to ``u`` (c = dt/dx).  The kernel skips such a run too, and
this is exact as well.  Both ``c -> fl(c*d)`` and ``x -> fl(u - x)`` are
monotone under IEEE rounding, and ``fl(c*d)`` has the sign of d.  So a
cell with ``u - fl(c_hi*d) == u`` in bits keeps its bits at every
``c <= c_hi``, as long as the cells of its stencil keep theirs.  A full
step certifies that test on every window cell, before the ``dt/dx``
scaling, and settles the run of certified cells from the left edge.  By
induction the run then stays fixed, and so does the largest lambda2
over it and its left neighbour, which is cached for ``dt``.  Later steps
compute only from the run's last cell onwards.  That cell's right
neighbour enters its LLF stencil, so it is computed again, and the run
is dropped if its bits change.  The run is also dropped, and a full
step taken, when ``c > c_hi``, when the window's left edge moves or its
right edge cuts into the run, or after 64 steps, so that it can grow.
c_hi is ``c + 64*dc``, where dc is how much c changed over the step
before (c itself on the first step): the run lives while c keeps
changing no faster than it did.  Every full step certifies, and a run
of two or more cells settles: with one cell, the next step would start
at the window's left edge all the same.

The masses of :func:`run` are the row sums of ``np.add.reduce``, which
sums pairwise: a run of more than 128 values is split at half its
length rounded down to a multiple of 8, and each part is summed the same
way.  The kernel keeps the sums of the four quarters that two levels of
that split give (a part of at most 128 cells is a quarter of its own,
beside an empty one) and after each update sums again only the quarters
that meet the computed cells.  ``(q0 + q1) + (q2 + q3)`` is then the
whole-row reduction bit for bit: it adds the quarters' pairwise sums in
numpy's order, and as every reduction starts from +0.0, a zero total is
+0.0 either way.  A +inf cell passes the min reduction of the check but makes its
row's sum +inf, so a step's cells are tested one by one only when that
reduction or a sum is not finite.  The first step checks every cell.
The boundary fluxes are kept, and recomputed only after a step that
computed cell 0 or cell n - 1.

:func:`run` and :func:`step` ignore floating-point overflow for their
whole length, under one ``np.errstate``: an overflowing speed, flux or
cell fails the step's own checks as a :class:`SchemeFailureError`,
without a numpy warning before it, and a finite field whose mass
overflows still runs.

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
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .core import Params, State, eigenvalues, flux, phi
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
        if isinstance(self.n_cells, bool) or not isinstance(self.n_cells, numbers.Integral):
            raise ValueError(f"grid needs an integer n_cells, got {self.n_cells!r}")
        if not all(isinstance(v, numbers.Real) and math.isfinite(v) for v in (self.x_min, self.x_max)):
            raise ValueError(f"grid needs finite x_min and x_max, got {self.x_min!r}, {self.x_max!r}")
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

    cfl defaults to 0.45 and t_end must be finite and positive; outflow
    (zero-gradient) boundaries are the only supported kind since all
    example runs are Riemann-type with waves leaving the domain.
    """

    scheme: str = "godunov"
    cfl: float = 0.45
    t_end: float = 1.0

    def __post_init__(self) -> None:
        if self.scheme not in ("godunov", "llf"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl must lie in (0, 1]")
        if not (math.isfinite(self.t_end) and self.t_end > 0.0):
            raise ValueError(f"t_end must be finite and positive, got {self.t_end}")


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


# steps a settled block lives
_SETTLED_STEPS = 64


def _split(m: int) -> int:
    """Length of the first part where numpy's pairwise sum splits m values.

    numpy sums up to 128 values in one block and splits longer runs at
    ``m//2`` rounded down to a multiple of 8.  A block is returned whole.
    """
    if m <= 128:
        return m
    return m // 2 - (m // 2) % 8


@dataclass(frozen=True)
class _Settled:
    """Cells [lo, end - 1] keep their bits at every ``dt/dx <= c_hi``.

    ``lam_max`` is the largest lambda2 over cells lo - 1 .. end - 1, and
    the block is dropped once the kernel has made ``expires`` steps.
    """

    lo: int
    end: int
    c_hi: float
    lam_max: float
    expires: int


class _Kernel:
    """A field advanced in place over its active window, one step per call.

    ``U`` holds h and b as its two rows, with one outflow ghost at each
    end, so cell i sits at column i + 1; ``H`` and ``B`` view the rows and
    ``field`` views the interior.  ``win`` is the inclusive cell range
    [lo - 1, hi] of the next step, where lo and hi are the first and
    last cells i >= 1 that differ in bits from cell i - 1, or [0, 0] on a
    constant field.  The window holds a cell of every distinct state, so
    the maximum wave speed over it is the maximum over the field.  While
    ``settled`` holds a block at the window's left edge, a step computes
    only the cells from the block's last one to hi.  ``mass`` holds the
    row sums of the field, and ``quarters`` the sums of its cells between
    consecutive ``cuts``.  The work buffers are allocated here once and
    sliced to the range.
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
        # lambda2 and lambda1 = phi per cell, at U's columns; kappa*h*h
        # and the LLF speeds; cell fluxes; interface fluxes (LLF) and
        # certification trials; interface differences
        self.lam = np.empty((2, n + 2))
        self.work = np.empty(n + 2)
        self.flux = np.empty((2, n + 2))
        self.iflux = np.empty((2, n + 1))
        self.diff = np.empty((2, n + 1))
        self.coef = np.array([[3.0 * p.alpha], [p.alpha]])
        # kappa*h*h on every finite cell when kappa is a zero of either sign
        self.zero = 0.0 * p.kappa
        d = np.flatnonzero(
            (self.hv[1:n] != self.hv[2 : n + 1]) | (self.bv[1:n] != self.bv[2 : n + 1])
        )
        self.win = (int(d[0]), int(d[-1]) + 1) if d.size else (0, 0)
        self.boundary = self._boundary()
        half = _split(n)
        self.cuts = (0, _split(half), half, half + _split(n - half), n)
        # an empty quarter keeps the 0.0 that np.add.reduce gives it
        self.quarters = [[0.0, 0.0]] * 4
        self.mass = self._sum(0, n - 1)
        self.settled: _Settled | None = None
        self.steps = 0
        # dt/dx of the last step, 0 before the first
        self.c = 0.0
        self.cell_updates = self.max_active = 0
        self.full_steps = self.settled_cell_steps = 0
        self.drops = {"speed": 0, "overlap": 0, "edge": 0, "age": 0}

    def _window(self, i: int, j: int) -> tuple[int, int]:
        """Update range from the cell pairs in [i, j], the only ones that can differ.

        Pair k compares cell k - 1 with cell k bit for bit, at columns k and
        k + 1 of the int64 views.  The walks start at the last window's
        edges, which move by at most one cell per step outwards, and each
        cell the window sheds inwards is walked over once.
        """
        hv, bv = self.hv, self.bv
        while i <= j and hv[i] == hv[i + 1] and bv[i] == bv[i + 1]:
            i += 1
        if i > j:
            return 0, 0
        while hv[j] == hv[j + 1] and bv[j] == bv[j + 1]:
            j -= 1
        return i - 1, j

    def _boundary(self) -> tuple[tuple[float, float], ...]:
        """The outflow boundary fluxes of cells 0 and n - 1: the same in both schemes."""
        (h0, hn), (b0, bn) = self.U[:, [1, self.n]].tolist()
        phi0, phin = phi((h0, b0), self.p), phi((hn, bn), self.p)
        return (h0 * phi0, hn * phin), (b0 * phi0, bn * phin)

    def _sum(self, i0: int, i1: int) -> list[float]:
        """Both row sums of the field after cells i0 .. i1 changed, in the bits of ``np.add.reduce``.

        Only the quarters that meet [i0, i1] are summed again.
        """
        q = self.quarters
        for k in range(4):
            lo, hi = self.cuts[k], self.cuts[k + 1]
            if lo <= i1 and i0 < hi:
                q[k] = np.add.reduce(self.U[:, lo + 1 : hi + 1], axis=1).tolist()
        (h0, b0), (h1, b1), (h2, b2), (h3, b3) = q
        return [(h0 + h1) + (h2 + h3), (b0 + b1) + (b2 + b3)]

    def _check(self, i0: int, i1: int, what: str, t: float, positivity: bool) -> None:
        """Raise at the first non-finite (or, with ``positivity``, negative) cell in [i0, i1].

        ``mass`` must hold the sums of a field that is finite outside [i0, i1].
        """
        u = self.U[:, i0 + 1 : i1 + 2]
        # the min reduction propagates a NaN in either row
        lo = np.minimum.reduce(u, axis=None)
        if (
            math.isfinite(lo)
            and (not positivity or lo >= -1e-12)
            and all(map(math.isfinite, self.mass))
        ):
            return
        bad = ~np.isfinite(u).all(axis=0)
        msg = f"non-finite {what} at t={t}"
        if positivity and not bad.any():
            bad = (u < -1e-12).any(axis=0)
            msg = f"positivity lost at t={t}"
        if not bad.any():
            # finite cells whose sum overflows
            return
        k = int(np.argmax(bad))
        x = self.field.grid.centers()[i0 + k]
        h, b = u[:, k]
        raise SchemeFailureError(f"{msg}: cell {i0 + k} at x={x} has h={h}, b={b}")

    def _speeds(self, j0: int, j1: int) -> float:
        """lambda2 and phi of the cells at columns j0 .. j1 - 1 into ``lam``; returns the largest lambda2.

        Both rows take the operations of ``core.eigenvalues`` in its order:
        ``((3*alpha)*h)*b + kappa*h*h`` and ``(alpha*h)*b + kappa*h*h/3``.
        3*phi is equal to lambda2 in exact arithmetic but not in bits (they
        differ in about half of random draws), so dt and the LLF speeds
        keep this form.  At kappa = 0 the kappa terms are the signed zero
        ``zero``; upwinding reads lambda2 only through its maximum, where
        the sign of a zero does not count, so only LLF adds it there.
        """
        h, b = self.U[:, j0:j1]
        lam = np.multiply(self.coef, h, out=self.lam[:, j0:j1])
        lam *= b
        if self.p.kappa:
            kh2 = np.multiply(self.p.kappa, h, out=self.work[j0:j1])
            kh2 *= h
            lam[0] += kh2
            kh2 /= 3.0
            lam[1] += kh2
        elif self.cfg.scheme == "llf":
            lam += self.zero
        else:
            lam[1] += self.zero
        return float(np.maximum.reduce(lam[0]))

    def _start(self, i0: int, i1: int) -> int:
        """First cell the step computes: the settled block's last cell, or i0 without one."""
        blk = self.settled
        if blk is None:
            return i0
        if blk.lo != i0 or blk.end > i1 + 1:
            self._drop("edge")
        elif self.steps >= blk.expires:
            # a full step lets the block grow
            self._drop("age")
        else:
            return blk.end - 1
        return i0

    def _drop(self, reason: str) -> None:
        self.settled = None
        self.drops[reason] += 1

    def _certify(self, d: np.ndarray, c_hi: float, i0: int) -> None:
        """Settle the cells at the window's left edge that keep their bits at ``dt/dx <= c_hi``.

        ``d`` holds the window's flux differences before the ``dt/dx``
        scaling.  A cell is certified when ``u - c_hi*d == u`` in bits on
        both rows; the block is the run of certified cells from i0, kept
        if it holds at least two cells.
        """
        length = d.shape[1]
        u = self.U[:, i0 + 1 : i0 + 1 + length]
        trial = np.multiply(d, c_hi, out=self.iflux[:, :length])
        np.subtract(u, trial, out=trial)
        eq = trial.view(np.int64) == u.view(np.int64)
        same = eq[0] & eq[1]
        run = int(same.argmin())
        if same[run]:
            run = length
        if run < 2:
            return
        lam_max = float(np.maximum.reduce(self.lam[0, i0 : i0 + run + 1]))
        self.settled = _Settled(i0, i0 + run, c_hi, lam_max, self.steps + _SETTLED_STEPS)

    def advance(self) -> tuple[tuple[float, float], ...] | None:
        """One step, or None if t did not step.

        Returns the h fluxes and the b fluxes of cells 0 and n - 1 before
        the step, as ``((h0, h_last), (b0, b_last))``.  The first step
        checks every cell; later ones check the cells they computed.
        """
        cfg, n, f, U = self.cfg, self.n, self.field, self.U
        i0, i1 = self.win
        t, dx = f.t, f.grid.dx
        first = self.steps == 0
        if first:
            self._check(0, n - 1, "field", t, positivity=False)
        s = self._start(i0, i1)
        lam_max = self._speeds(s, i1 + 3)
        if s > i0:
            # a NaN from the computed cells stays first, so max keeps it
            lam_max = max(lam_max, self.settled.lam_max)
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
        c = dt / dx
        if s > i0 and c > self.settled.c_hi:
            self._drop("speed")
            # the cells left of s that a full step also needs
            self._speeds(i0, s)
            s = i0

        m = i1 - s + 1
        us = U[:, s : i1 + 3]
        lam2, lam1 = self.lam[:, s : i1 + 3]
        # the cell fluxes of both components at once
        fl = np.multiply(us, lam1, out=self.flux[:, : m + 2])
        diff = self.diff[:, :m]
        if cfg.scheme == "godunov":
            # upwind: all characteristic speeds are >= 0 on the quadrant
            np.subtract(fl[:, 1:-1], fl[:, :-2], out=diff)
        else:
            s_half = np.maximum(lam2[:-1], lam2[1:], out=self.work[: m + 1])
            s_half *= 0.5
            F = np.add(fl[:, :-1], fl[:, 1:], out=self.iflux[:, : m + 1])
            F *= 0.5
            du = np.subtract(us[:, 1:], us[:, :-1], out=self.diff[:, : m + 1])
            du *= s_half
            F -= du
            np.subtract(F[:, 1:], F[:, :-1], out=diff)
        if s == i0:
            self.full_steps += 1
            # dt/dx may keep changing at its last rate for the block's lifetime
            self._certify(diff, c + _SETTLED_STEPS * abs(c - self.c), i0)
        else:
            self.settled_cell_steps += s - i0
            # the block's last cell: under LLF its right neighbour may move
            last = self.hv[s + 1], self.bv[s + 1]
        diff *= c
        U[:, s + 1 : i1 + 2] -= diff
        self.mass = self._sum(s, i1)
        self._check(0 if first else s, n - 1 if first else i1, "update", t, positivity=True)
        if s > i0 and (self.hv[s + 1], self.bv[s + 1]) != last:
            self._drop("overlap")
        if s == 0:
            U[:, 0] = U[:, 1]
        if i1 == n - 1:
            U[:, -1] = U[:, -2]
        boundary = self.boundary
        if s == 0 or i1 == n - 1:
            self.boundary = self._boundary()
        f.t, self.c = t + dt, c
        self.steps += 1
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
    with np.errstate(over="ignore"):
        k = _Kernel(f, cfg, p)
        k.advance()
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
    delta_window: tuple[float, float] | None = None,
) -> tuple[FVField, dict]:
    """Advance to cfg.t_end collecting conservation and mass diagnostics.

    Diagnostics: per-step mass series for both components, worst
    telescoping conservation residual (mass change minus boundary flux
    balance), with ``delta_window`` the per-step :func:`delta_mass`
    series of that window against the initial field's outer cells (which
    must be quadrant states) as the background, and snapshots at
    ``record_times``.  The
    kernel's work counts: ``cell_updates`` (cells computed),
    ``full_steps`` (steps over the whole window, each of which
    certifies), ``settled_cell_steps`` (cells skipped as settled) and
    ``settled_drops`` by reason.  A failing step raises as :func:`step` does.
    """
    with np.errstate(over="ignore"):
        k = _Kernel(initial, cfg, p)
        f = k.field
        if delta_window is not None:
            background = (State(initial.h[0], initial.b[0]), State(initial.h[-1], initial.b[-1]))
        dx = f.grid.dx
        masses_h, masses_b = [k.mass[0] * dx], [k.mass[1] * dx]
        cons_res = 0.0
        delta_series: list[tuple[float, float]] = []
        snapshots: list[FVField] = []
        want = sorted(record_times) if record_times else []
        wi = 0

        n_steps = 0
        while f.t < cfg.t_end - 1e-14:
            t_prev = f.t
            boundary = k.advance()
            mass_h, mass_b = k.mass[0] * dx, k.mass[1] * dx
            if boundary is not None:
                # the realised step, as the field's times record it
                dt = f.t - t_prev
                (h0, hn), (b0, bn) = boundary
                cons_res = max(
                    cons_res,
                    abs(mass_h - masses_h[-1] + dt * (hn - h0)),
                    abs(mass_b - masses_b[-1] + dt * (bn - b0)),
                )
            masses_h.append(mass_h)
            masses_b.append(mass_b)
            if delta_window is not None:
                delta_series.append((f.t, delta_mass(f, delta_window, background)))
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
        "full_steps": k.full_steps,
        "settled_cell_steps": k.settled_cell_steps,
        "settled_drops": dict(k.drops),
        "delta_mass": delta_series,
        "snapshots": snapshots,
        "grid": {"x_min": f.grid.x_min, "x_max": f.grid.x_max, "n_cells": f.grid.n_cells},
    }
    return f, diagnostics


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
        return phi((f.h, f.b), p)

    def w2(f: FVField) -> np.ndarray:
        return f.b / np.where(f.h > p.h_tol, f.h, 1.0)

    w1_0, w1_1, w1_2 = w1(f0), w1(f1), w1(f2)
    w2_0, w2_1, w2_2 = w2(f0), w2(f1), w2(f2)
    dw1_x = (w1_1[idx + 1] - w1_1[idx - 1]) / (2.0 * dx)
    dw2_x = (w2_1[idx + 1] - w2_1[idx - 1]) / (2.0 * dx)
    r1 = (w1_2[idx] - w1_0[idx]) / dtt + 3.0 * w1_1[idx] * dw1_x
    r2 = (w2_2[idx] - w2_0[idx]) / dtt + w1_1[idx] * dw2_x
    return float(np.mean(np.abs(r1))), float(np.mean(np.abs(r2)))
