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
ufunc call.  lambda2 and phi of the cells a step reads are the two rows
of one array, and one ``(2, m)`` pass computes ``(3*alpha)*h*b`` and
``alpha*h*b`` in both; ``kappa*h*h`` is then added to the first and
``kappa*h*h/3`` to the second.  At kappa = +-0 a run computes those
terms only if its field holds a -0.0 cell.  They are then kappa's signed
zero, which the full expression adds too.  Skipping them changes no bit
otherwise: the largest lambda2 ignores the sign of a zero, and that sign
reaches a cell or the settled-block test only through ``u - (+-0)``,
where it shows only at u = -0.0.  Under IEEE round-to-nearest ``x - y``
is -0.0 only when x is, so an update never makes a -0.0 cell.

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

A run's steps are one generator frame, ``_Kernel.steps``, that lives
for the whole run and ends once ``t_end - t <= 0``: :func:`run` iterates
it to its end and :func:`step` takes its first item.  That is a run's
only stopping rule, and it holds no absolute time, so a run ends at
t_end itself, and one whose x and t are scaled by a power of two takes
the same steps.  The per-run constants, the window, the step count and the
last ``dt/dx`` are its locals, and the window walk reads the int64
views through memoryviews, as Python ints.  A step calls no helper
method, and its arrays are made in place where the expression allows:
lambda2 and phi are ``np.multiply(coef, h)`` and then ``*= b``, and the
update is ``diff *= c; u -= diff``.  Each ufunc keeps the operands and
the order of the plain expression, so the bits are unchanged.  Only the
slow paths call helpers: the first step's checks, a failure, a
certification, a drop, and a step that reaches cell 0 or cell n - 1.

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
    """A field and the state that :meth:`steps` advances it with in place.

    ``U`` holds h and b as its two rows, with one outflow ghost at each
    end, so cell i sits at column i + 1; ``H`` and ``B`` view the rows and
    ``field`` views the interior.  ``win`` is the inclusive cell range
    [lo - 1, hi] of the first step, where lo and hi are the first and
    last cells i >= 1 that differ in bits from cell i - 1, or [0, 0] on a
    constant field.  The window holds a cell of every distinct state, so
    the maximum wave speed over it is the maximum over the field.  While
    ``settled`` holds a block at the window's left edge, a step computes
    only the cells from the block's last one to hi.  ``mass`` holds the
    row sums of the field, and ``quarters`` the sums of its cells between
    consecutive ``cuts``.  The work counts are set when :meth:`steps`
    ends.
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
        self.coef = np.array([[3.0 * p.alpha], [p.alpha]])
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
        self.cell_updates = self.max_active = 0
        self.full_steps = self.settled_cell_steps = 0
        self.drops = {"speed": 0, "overlap": 0, "edge": 0, "age": 0}

    def _boundary(self) -> tuple[tuple[float, float], ...]:
        """The outflow boundary fluxes of cells 0 and n - 1: the same in both schemes."""
        (h0, hn), (b0, bn) = self.U[:, [1, self.n]].tolist()
        phi0, phin = phi((h0, b0), self.p), phi((hn, bn), self.p)
        return (h0 * phi0, hn * phin), (b0 * phi0, bn * phin)

    def _sum(self, i0: int, i1: int) -> list[float]:
        """Both row sums of the field after cells i0 .. i1 changed, in the bits of ``np.add.reduce``.

        Only the quarters that meet [i0, i1] are summed again; a step of
        :meth:`steps` does the same inline.
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

    def _drop(self, reason: str) -> None:
        self.settled = None
        self.drops[reason] += 1

    def _certify(
        self, d: np.ndarray, lam2: np.ndarray, c_hi: float, i0: int, expires: int
    ) -> _Settled | None:
        """Settle the cells at the window's left edge that keep their bits at ``dt/dx <= c_hi``.

        ``d`` holds the window's flux differences before the ``dt/dx``
        scaling, and ``lam2`` the lambda2 of cells i0 - 1 onwards.  A cell
        is certified when ``u - d*c_hi == u`` in bits on both rows; the
        block is the run of certified cells from i0, kept if it holds at
        least two cells, and returned.
        """
        length = d.shape[1]
        u = self.U[:, i0 + 1 : i0 + 1 + length]
        trial = u - d * c_hi
        eq = trial.view(np.int64) == u.view(np.int64)
        same = eq[0] & eq[1]
        run = int(same.argmin())
        if same[run]:
            run = length
        if run < 2:
            return None
        lam_max = float(np.maximum.reduce(lam2[: run + 1]))
        self.settled = _Settled(i0, i0 + run, c_hi, lam_max, expires)
        return self.settled

    def steps(self):
        """Advance the field one step per item, all in this one frame.

        Each item is ``(boundary, mass_h, mass_b)``: the h fluxes and the
        b fluxes of cells 0 and n - 1 before the step, as ``((h0, h_last),
        (b0, b_last))``, or None for the step that sets t to t_end on a
        field whose wave speeds all vanish; and the row sums of the field
        after it.  The generator ends once ``t_end - t <= 0``, checked
        after the speed-overflow check.  The first step checks every cell;
        later ones check the cells they computed.

        lambda2 and phi of the cells a step reads are the rows of one
        array: ``((3*alpha)*h)*b + kappa*h*h`` and ``(alpha*h)*b +
        kappa*h*h/3``, the operations of ``core.eigenvalues`` in its
        order.  3*phi is equal to lambda2 in exact arithmetic but not in
        bits (they differ in about half of random draws), so dt and the
        LLF speeds keep this form.  The kappa terms are computed only if
        kappa != 0 or the field holds a -0.0 cell (see the module docstring).
        """
        cfg, n, f, U = self.cfg, self.n, self.field, self.U
        kappa, coef, cuts, q = self.p.kappa, self.coef, self.cuts, self.quarters
        llf = cfg.scheme == "llf"
        kappa_terms = kappa != 0.0 or bool((np.signbit(U) & (U == 0.0)).any())
        parts = [U[:, lo + 1 : hi + 1] for lo, hi in zip(cuts, cuts[1:])]
        hv, bv = memoryview(self.hv), memoryview(self.bv)
        multiply, maximum = np.multiply, np.maximum
        add_reduce, min_reduce, max_reduce = np.add.reduce, np.minimum.reduce, np.maximum.reduce
        isfinite = math.isfinite
        t_end, dx, t = cfg.t_end, f.grid.dx, f.t
        cfl_dx = cfg.cfl * dx
        (i0, i1), boundary, (mh, mb) = self.win, self.boundary, self.mass
        blk = None
        # dt/dx of the last step, 0 before the first
        n_steps, c_last = 0, 0.0
        cell_updates = max_active = full_steps = settled_cell_steps = 0
        self._check(0, n - 1, "field", t, positivity=False)
        try:
            while True:
                s = i0
                if blk is not None:
                    if blk.lo != i0 or blk.end > i1 + 1:
                        self._drop("edge")
                        blk = None
                    elif n_steps >= blk.expires:
                        # a full step lets the block grow
                        self._drop("age")
                        blk = None
                    else:
                        s = blk.end - 1
                # the speeds from cell s - 1, and again from i0 - 1 if dt/dx
                # outgrows the settled block's c_hi
                while True:
                    us = U[:, s : i1 + 3]
                    h = us[0]
                    lam = multiply(coef, h)
                    lam *= us[1]
                    if kappa_terms:
                        kh2 = multiply(kappa, h)
                        kh2 *= h
                        lam[0] += kh2
                        kh2 /= 3.0
                        lam[1] += kh2
                    lam2 = lam[0]
                    lam_max = float(max_reduce(lam2))
                    # a NaN from the computed cells stays first, as in max()
                    if s > i0 and blk.lam_max > lam_max:
                        lam_max = blk.lam_max
                    if not isfinite(lam_max):
                        raise SchemeFailureError(f"wave speeds overflow at t={t}")
                    remaining = t_end - t
                    if remaining <= 0.0:
                        return
                    if lam_max <= 0.0:
                        if np.ptp(f.h) > 0.0 or np.ptp(f.b) > 0.0:
                            warnings.warn(
                                "all wave speeds vanish on nonconstant data; field is frozen"
                            )
                        t = f.t = t_end
                        break
                    dt = cfl_dx / lam_max
                    if remaining < dt:
                        dt = remaining
                    if dt <= 0.0:
                        raise SchemeFailureError(f"time step collapsed at t={t}")
                    c = dt / dx
                    if s == i0 or c <= blk.c_hi:
                        break
                    self._drop("speed")
                    blk, s = None, i0
                if lam_max <= 0.0:
                    yield None, mh, mb
                    continue

                # the cell fluxes of both components at once
                fl = us * lam[1]
                if llf:
                    s_half = maximum(lam2[:-1], lam2[1:])
                    s_half *= 0.5
                    F = fl[:, :-1] + fl[:, 1:]
                    F *= 0.5
                    du = us[:, 1:] - us[:, :-1]
                    du *= s_half
                    F -= du
                    diff = F[:, 1:] - F[:, :-1]
                else:
                    # upwind: all characteristic speeds are >= 0 on the quadrant
                    diff = fl[:, 1:-1] - fl[:, :-2]
                if s == i0:
                    full_steps += 1
                    # dt/dx may keep changing at its last rate for the block's lifetime
                    c_hi = c + _SETTLED_STEPS * abs(c - c_last)
                    blk = self._certify(diff, lam2, c_hi, i0, n_steps + _SETTLED_STEPS)
                else:
                    settled_cell_steps += s - i0
                    # the block's last cell: under LLF its right neighbour may move
                    last_h, last_b = hv[s + 1], bv[s + 1]
                u = U[:, s + 1 : i1 + 2]
                diff *= c
                u -= diff
                for k in range(4):
                    if cuts[k] <= i1 and s < cuts[k + 1]:
                        q[k] = add_reduce(parts[k], axis=1).tolist()
                (h0, b0), (h1, b1), (h2, b2), (h3, b3) = q
                mh, mb = (h0 + h1) + (h2 + h3), (b0 + b1) + (b2 + b3)
                if n_steps:
                    lo = min_reduce(u, axis=None)
                    if not (isfinite(lo) and lo >= -1e-12 and isfinite(mh) and isfinite(mb)):
                        self.mass = [mh, mb]
                        self._check(s, i1, "update", t, positivity=True)
                else:
                    self.mass = [mh, mb]
                    self._check(0, n - 1, "update", t, positivity=True)
                if s > i0 and (hv[s + 1] != last_h or bv[s + 1] != last_b):
                    self._drop("overlap")
                    blk = None
                before = boundary
                if s == 0 or i1 == n - 1:
                    if s == 0:
                        U[:, 0] = U[:, 1]
                    if i1 == n - 1:
                        U[:, -1] = U[:, -2]
                    boundary = self._boundary()
                t = f.t = t + dt
                c_last = c
                n_steps += 1
                m = i1 - s + 1
                cell_updates += m
                if m > max_active:
                    max_active = m

                # the next window from the cell pairs in [i, j], the only ones
                # that can differ: pair k compares cells k - 1 and k at columns
                # k and k + 1.  The walks start at this window's edges, which
                # move by at most one cell per step outwards, and each cell the
                # window sheds inwards is walked over once.
                i = i0 if i0 else 1
                j = i1 + 1 if i1 < n - 2 else n - 1
                while i <= j and hv[i] == hv[i + 1] and bv[i] == bv[i + 1]:
                    i += 1
                if i > j:
                    i0 = i1 = 0
                else:
                    while hv[j] == hv[j + 1] and bv[j] == bv[j + 1]:
                        j -= 1
                    i0, i1 = i - 1, j
                yield before, mh, mb
        finally:
            self.mass = [mh, mb]
            self.cell_updates, self.max_active = cell_updates, max_active
            self.full_steps, self.settled_cell_steps = full_steps, settled_cell_steps


def step(f: FVField, cfg: SchemeConfig, p: Params) -> FVField:
    """One conservative forward-Euler update with CFL-limited time step.

    dt = cfl * dx / max(lambda2), capped so the field never advances
    past cfg.t_end.  Outflow ghost cells; raises SchemeFailureError on
    NaNs or on loss of positivity beyond rounding noise, naming the
    first offending cell.
    """
    with np.errstate(over="ignore"):
        k = _Kernel(f, cfg, p)
        next(k.steps(), None)
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


def run(initial: FVField, cfg: SchemeConfig, p: Params) -> tuple[FVField, dict]:
    """Advance to cfg.t_end collecting conservation and mass diagnostics.

    Diagnostics: ``n_steps``; ``mass_h`` and ``mass_b``, the masses of
    both components at the start and at the end; the worst telescoping
    conservation residual of a step (mass change minus boundary flux
    balance); and the kernel's work counts: ``cell_updates`` (cells
    computed), ``full_steps`` (steps over the whole window, each of
    which certifies), ``settled_cell_steps`` (cells skipped as settled)
    and ``settled_drops`` by reason.  A point mass is measured on the
    final field with :func:`delta_mass`.  A failing step raises as
    :func:`step` does.
    """
    with np.errstate(over="ignore"):
        k = _Kernel(initial, cfg, p)
        f = k.field
        dx = f.grid.dx
        mass_h0, mass_b0 = mass_h, mass_b = k.mass[0] * dx, k.mass[1] * dx
        cons_res = 0.0
        n_steps, t = 0, f.t
        for boundary, mh, mb in k.steps():
            t_prev, t = t, f.t
            prev_h, prev_b = mass_h, mass_b
            mass_h, mass_b = mh * dx, mb * dx
            if boundary is not None:
                # the realised step, as the field's times record it
                dt = t - t_prev
                (h0, hn), (b0, bn) = boundary
                cons_res = max(
                    cons_res,
                    abs(mass_h - prev_h + dt * (hn - h0)),
                    abs(mass_b - prev_b + dt * (bn - b0)),
                )
            n_steps += 1

    diagnostics = {
        "n_steps": n_steps,
        "mass_h": [mass_h0, mass_h],
        "mass_b": [mass_b0, mass_b],
        "max_conservation_residual": cons_res,
        "cell_updates": k.cell_updates,
        "max_active_cells": k.max_active,
        "full_steps": k.full_steps,
        "settled_cell_steps": k.settled_cell_steps,
        "settled_drops": dict(k.drops),
        "grid": {"x_min": f.grid.x_min, "x_max": f.grid.x_max, "n_cells": f.grid.n_cells},
    }
    return f, diagnostics


def _window_cells(grid: Grid, window: tuple[float, float]) -> slice:
    """The cells whose centers lie in the closed window, as a slice.

    Centers increase with the index, so the cells are contiguous.
    """
    x = grid.centers()
    idx = np.flatnonzero((x >= window[0]) & (x <= window[1]))
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
    bw = f.b[_window_cells(f.grid, window)]
    k = int(bw.argmax())
    excess = np.empty_like(bw)
    np.subtract(bw[:k], background[0].b, out=excess[:k])
    np.subtract(bw[k:], background[1].b, out=excess[k:])
    return float(np.add.reduce(excess) * f.grid.dx)
