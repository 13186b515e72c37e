import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thinfilm import numerics
from thinfilm.core import Params, State, eigenvalues, flux
from thinfilm.errors import SchemeFailureError
from thinfilm.interactions import PerturbedData
from thinfilm.numerics import (
    FVField,
    Grid,
    SchemeConfig,
    delta_mass,
    field_from_perturbed,
    field_from_riemann,
    godunov_flux,
    invariant_transport_residual,
    llf_flux,
    peak_location,
    run,
    step,
)
from thinfilm.riemann import RiemannData, profile, solve

P_FILM = Params(0.5, 0.0)
EX_JR = RiemannData(State(1.24, 0.90), State(1.5, 1.56), P_FILM)
EX_JS = RiemannData(State(1.5, 1.6), State(1.25, 1.15), P_FILM)


def reference_step(f, cfg, p):
    """Full-array padded step with the interface fluxes written out; returns (field, F1, F2)."""
    h = np.concatenate(([f.h[0]], f.h, [f.h[-1]]))
    b = np.concatenate(([f.b[0]], f.b, [f.b[-1]]))
    with np.errstate(over="ignore"):
        lam_max = float(np.max(3.0 * p.alpha * f.h * f.b + p.kappa * f.h * f.h))
    dt = min(cfg.cfl * f.grid.dx / lam_max, cfg.t_end - f.t)
    phi = p.alpha * h * b + p.kappa * h * h / 3.0
    f1, f2 = h * phi, b * phi
    if cfg.scheme == "godunov":
        F1, F2 = f1[:-1], f2[:-1]
    else:
        lam2 = 3.0 * p.alpha * h * b + p.kappa * h * h
        a = np.maximum(lam2[:-1], lam2[1:])
        F1 = 0.5 * (f1[:-1] + f1[1:]) - 0.5 * a * (h[1:] - h[:-1])
        F2 = 0.5 * (f2[:-1] + f2[1:]) - 0.5 * a * (b[1:] - b[:-1])
    lam = dt / f.grid.dx
    hn, bn = f.h - lam * (F1[1:] - F1[:-1]), f.b - lam * (F2[1:] - F2[:-1])
    return FVField(f.grid, hn, bn, f.t + dt), F1, F2


def reference_delta_mass(f, window, background):
    """delta_mass written out over a boolean mask of the whole grid."""
    x = f.grid.centers()
    mask = (x >= window[0]) & (x <= window[1])
    xw, bw = x[mask], f.b[mask]
    bg = np.where(xw < xw[np.argmax(bw)], background[0].b, background[1].b)
    return float(np.sum(bw - bg) * f.grid.dx)


def reference_run(f, cfg, p, delta=None):
    """The run loop over reference_step.

    Returns the final field, both mass series, the conservation residual
    and, with ``delta = (window, background)``, the delta-mass series.
    """
    dx = f.grid.dx
    mh, mb, res, series = [float(np.sum(f.h) * dx)], [float(np.sum(f.b) * dx)], 0.0, []
    while f.t < cfg.t_end - 1e-14:
        fn, F1, F2 = reference_step(f, cfg, p)
        for m, arr, F in ((mh, fn.h, F1), (mb, fn.b, F2)):
            m.append(float(np.sum(arr) * dx))
            r = m[-1] - m[-2] + (fn.t - f.t) * (float(F[-1]) - float(F[0]))
            res = max(res, abs(r))
        f = fn
        if delta is not None:
            series.append((f.t, reference_delta_mass(f, *delta)))
    return f, mh, mb, res, series


def piecewise_constant(rng, grid):
    """3-5 random quadrant states on random cells, one of them with h = 1e-7."""
    k = rng.randint(3, 6)
    h, b = rng.uniform(0.2, 2.0, k), rng.uniform(0.2, 2.0, k)
    h[rng.randint(k)] = 1e-7
    cuts = np.sort(rng.choice(np.arange(1, grid.n_cells), k - 1, replace=False))
    idx = np.searchsorted(cuts, np.arange(grid.n_cells), side="right")
    return FVField(grid, h[idx], b[idx], 0.0)


def l1_error(f, fan):
    x = f.grid.centers()
    h, b, _ = profile(fan, f.t, x)
    return float(np.sum(np.abs(f.h - h) + np.abs(f.b - b)) * f.grid.dx)


def l1_error_window(f, fan, lo, hi):
    x = f.grid.centers()
    mask = (x >= lo) & (x <= hi)
    h, b, _ = profile(fan, f.t, x[mask])
    return float(np.sum(np.abs(f.h[mask] - h) + np.abs(f.b[mask] - b)) * f.grid.dx)


class TestInterfaceFluxes:
    def test_godunov_consistency(self):
        u = State(1.3, 0.8)
        np.testing.assert_array_equal(godunov_flux(u, u, Params(0.5, 1.0)), flux(u, Params(0.5, 1.0)))

    def test_godunov_equals_upwind(self):
        # every wave of this system is right-going, so the exact
        # interface state is the left one
        rng = np.random.RandomState(0)
        for _ in range(200):
            p = Params(*rng.uniform(0.1, 2.0, 2))
            uL = State(*rng.uniform(0.05, 3.0, 2))
            uR = State(*rng.uniform(0.05, 3.0, 2))
            np.testing.assert_allclose(
                godunov_flux(uL, uR, p), flux(uL, p), rtol=1e-12, atol=1e-14
            )

    def test_godunov_delta_interface_upwinds(self):
        p = Params(0.5, 1.0)
        uL, uR = State(2.0, 1.5), State(0.0, 1.0)
        np.testing.assert_allclose(godunov_flux(uL, uR, p), flux(uL, p), rtol=1e-14)

    def test_godunov_unclassifiable_pair_raises(self):
        from thinfilm.errors import InvalidDataError

        p = Params(0.5, 1.0)
        with pytest.raises(InvalidDataError):
            godunov_flux(State(0.0, 1.0), State(0.0, 2.0), p)

    def test_llf_consistency(self):
        p = Params(0.5, 1.0)
        u = State(1.3, 0.8)
        np.testing.assert_allclose(llf_flux(u, u, p), flux(u, p), rtol=1e-15)

    def test_llf_equals_reference_interface_flux(self):
        # 100 pairs per draw of Params sit side by side on one grid, so the
        # interface right of cell 2k joins pair k in reference_step's LLF flux
        rng = np.random.RandomState(4)
        for _ in range(20):
            p = Params(*rng.uniform(0.1, 2.0, 2))
            hb = rng.uniform(0.05, 3.0, (2, 200))
            f = FVField(Grid(0.0, 1.0, 200), hb[0], hb[1], 0.0)
            _, F1, F2 = reference_step(f, SchemeConfig(scheme="llf"), p)
            for k in range(100):
                uL, uR = State(*hb[:, 2 * k]), State(*hb[:, 2 * k + 1])
                F = llf_flux(uL, uR, p)
                assert (F[0], F[1]) == (F1[2 * k + 1], F2[2 * k + 1])

    def test_llf_speed_dominates(self):
        rng = np.random.RandomState(1)
        for _ in range(100):
            p = Params(*rng.uniform(0.1, 2.0, 2))
            uL = State(*rng.uniform(0.05, 3.0, 2))
            uR = State(*rng.uniform(0.05, 3.0, 2))
            a = max(eigenvalues(uL, p)[1], eigenvalues(uR, p)[1])
            for u in (uL, uR):
                assert a >= max(eigenvalues(u, p))


class TestWindowKernel:
    @pytest.mark.parametrize("scheme", ["godunov", "llf"])
    @pytest.mark.parametrize("kappa", [0.0, 0.7])
    def test_bit_identical_to_full_array_reference(self, scheme, kappa):
        # cells outside the active window have bit-equal neighbours, so
        # their flux difference is exactly 0 and skipping them changes no bit
        rng = np.random.RandomState(11 if kappa else 5)
        p = Params(0.5, kappa, h_tol=1e-9)
        cfg = SchemeConfig(scheme=scheme, t_end=0.6)
        for draw in range(5):
            f0 = piecewise_constant(rng, Grid(-1.0, 4.0, 300))
            if draw == 4:
                # the first window spans cell 0 to cell n - 1: both ghosts
                # are refreshed and both boundary fluxes change
                f0.h[0], f0.b[-1] = 1.7, 0.3
            window = (-1.0, 1.5) if draw % 2 else (0.5, 4.0)
            bg = (State(f0.h[0], f0.b[0]), State(f0.h[-1], f0.b[-1]))
            f, diag = run(f0, cfg, p, delta_window=window)
            g, mh, mb, res, series = reference_run(f0, cfg, p, (window, bg))
            np.testing.assert_array_equal(f.h, g.h)
            np.testing.assert_array_equal(f.b, g.b)
            assert f.t == g.t
            np.testing.assert_array_equal(diag["mass_h"], mh)
            np.testing.assert_array_equal(diag["mass_b"], mb)
            assert diag["max_conservation_residual"] == res
            assert diag["delta_mass"] == series
            if draw == 4:
                assert diag["max_active_cells"] == f0.grid.n_cells
            s, r = step(f0, cfg, p), reference_step(f0, cfg, p)[0]
            np.testing.assert_array_equal(s.h, r.h)
            np.testing.assert_array_equal(s.b, r.b)
            assert s.t == r.t

    def test_window_skips_constant_cells(self):
        grid = Grid(-2.0, 8.0, 400)
        _, diag = run(field_from_riemann(EX_JS, grid), SchemeConfig(t_end=1.0), P_FILM)
        assert diag["cell_updates"] < diag["n_steps"] * grid.n_cells
        assert 2 <= diag["max_active_cells"] <= grid.n_cells

    @pytest.mark.parametrize("scheme", ["godunov", "llf"])
    def test_constant_negative_field_fails_without_window(self, scheme):
        # no cell differs from its neighbour; the first step still checks every cell
        grid = Grid(-1.0, 1.0, 32)
        f = FVField(grid, np.full(32, 1.0), np.full(32, -0.5), 0.0)
        cfg = SchemeConfig(scheme=scheme, t_end=1.0)
        with pytest.raises(SchemeFailureError, match="positivity lost"):
            step(f, cfg, Params(0.5, 3.0))
        with pytest.raises(SchemeFailureError, match="positivity lost"):
            run(f, cfg, Params(0.5, 3.0))

    @pytest.mark.parametrize("scheme", ["godunov", "llf"])
    def test_failure_names_first_offending_cell(self, scheme):
        # negative b right of cell 10 fails first at cell 10; left of it,
        # at cell 0, outside the window [9, 10] of the first step
        grid = Grid(-1.0, 1.0, 32)
        x = grid.centers()
        cfg = SchemeConfig(scheme=scheme, t_end=1.0)
        for first, neg in ((10, np.arange(32) >= 10), (0, np.arange(32) < 10)):
            f = FVField(grid, np.full(32, 1.0), np.where(neg, -0.5, 1.0), 0.0)
            for advance in (step, run):
                with pytest.raises(SchemeFailureError, match="positivity lost") as exc:
                    advance(f, cfg, Params(0.5, 3.0))
                assert f"cell {first} at x={x[first]} " in str(exc.value)
        # a NaN in either component, h or b, is found
        for row, values in ((0, "h=nan, b=1.0"), (1, "h=1.0, b=nan")):
            f = FVField(grid, np.full(32, 1.0), np.full(32, 1.0), 0.0)
            (f.h, f.b)[row][3] = math.nan
            for advance in (step, run):
                with pytest.raises(SchemeFailureError, match="non-finite field") as exc:
                    advance(f, cfg, Params(0.5, 3.0))
                assert f"cell 3 at x={x[3]} has {values}" in str(exc.value)


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


class TestSignedZeros:
    @pytest.mark.parametrize("scheme", ["godunov", "llf"])
    @pytest.mark.parametrize("kappa", [0.0, -0.0, 0.7])
    @pytest.mark.parametrize("rows", ["h", "b", "hb"])
    def test_negative_zero_cells_bit_identical(self, scheme, kappa, rows):
        # -0.0 in h and/or b at both ends: the kernel must give each zero the
        # sign the full-array reference does (its x + kappa*h*h turns -0.0
        # into +0.0 at kappa = 0.0 but not at -0.0), and some of them are
        # still there at t_end
        p = Params(0.5, kappa, h_tol=1e-9)
        f0 = piecewise_constant(np.random.RandomState(17), Grid(-1.0, 4.0, 300))
        for row in rows:
            u = f0.h if row == "h" else f0.b
            u[:30] = u[-30:] = -0.0
        cfg = SchemeConfig(scheme=scheme, t_end=0.05)
        f, diag = run(f0, cfg, p)
        g, mh, mb, res, _ = reference_run(f0, cfg, p)
        np.testing.assert_array_equal(bits(f.h), bits(g.h))
        np.testing.assert_array_equal(bits(f.b), bits(g.b))
        assert f.t == g.t
        np.testing.assert_array_equal(bits(diag["mass_h"]), bits(mh))
        np.testing.assert_array_equal(bits(diag["mass_b"]), bits(mb))
        assert diag["max_conservation_residual"] == res
        for row in rows:
            negative = np.signbit(f.h if row == "h" else f.b)
            assert negative[:30].any() and negative[-30:].any()


# Row lengths around numpy's pairwise-sum block (128) and unroll (8),
# and the criterion-7 grid; cell values with signed zeros, subnormals and
# values whose sums overflow
SUM_SIZES = [1, 7, 8, 9, 127, 128, 129, 255, 256, 257, 1000, 24390]
CELL_VALUES = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, 1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestRowSums:
    @settings(max_examples=80, deadline=None)
    @given(n=st.sampled_from(SUM_SIZES), data=st.data())
    def test_equal_to_full_reduce_after_changed_ranges(self, n, data):
        # the kernel sums again only the quarters a step changed; its sums
        # must keep the bits of np.add.reduce over the whole rows
        def draw_cells(shape):
            pool = np.array(data.draw(st.lists(CELL_VALUES, min_size=1, max_size=6)))
            rng = np.random.RandomState(data.draw(st.integers(0, 2**32 - 1)))
            return pool[rng.randint(pool.size, size=shape)]

        with np.errstate(over="ignore", invalid="ignore"):
            h, b = draw_cells((2, n))
            k = numerics._Kernel(FVField(Grid(0.0, 1.0, n), h, b, 0.0), SchemeConfig(), P_FILM)
            np.testing.assert_array_equal(bits(k.mass), bits(np.add.reduce(k.U[:, 1:-1], axis=1)))
            for _ in range(data.draw(st.integers(1, 4))):
                i0 = data.draw(st.integers(0, n - 1))
                i1 = data.draw(st.integers(i0, n - 1))
                k.U[:, i0 + 1 : i1 + 2] = draw_cells((2, i1 - i0 + 1))
                got, want = k._sum(i0, i1), np.add.reduce(k.U[:, 1:-1], axis=1)
                np.testing.assert_array_equal(bits(got), bits(want))


# Data whose window holds a settled run at its left edge: perturbed J+S
# with a fast middle state that decays, so dt/dx outgrows c_hi now and
# then; and a lone 2-shock (equal b/h on both sides), whose left state is
# the fastest, so the cached lambda2 maximum of the settled cells sets dt.
SETTLING = {
    "perturbed": (State(1.5, 1.6), State(2.2, 2.6), State(1.25, 1.15)),
    "shock": (State(1.5, 1.5), State(1.5, 1.5), State(1.0, 1.0)),
}


def settling_field(name, p):
    left, middle, right = SETTLING[name]
    return field_from_perturbed(PerturbedData(0.2, left, middle, right, p), Grid(-1.0, 9.0, 2000))


def assert_run_is_reference(f0, cfg, p):
    """Check that run gives reference_run's bits; returns run's diagnostics."""
    f, diag = run(f0, cfg, p)
    g, mh, mb, res, _ = reference_run(f0, cfg, p)
    np.testing.assert_array_equal(bits(f.h), bits(g.h))
    np.testing.assert_array_equal(bits(f.b), bits(g.b))
    assert f.t == g.t
    np.testing.assert_array_equal(bits(diag["mass_h"]), bits(mh))
    np.testing.assert_array_equal(bits(diag["mass_b"]), bits(mb))
    assert diag["max_conservation_residual"] == res
    return diag


class TestSettledPrefix:
    @pytest.mark.parametrize("data", list(SETTLING))
    @pytest.mark.parametrize("scheme", ["godunov", "llf"])
    @pytest.mark.parametrize("kappa", [0.0, 0.7])
    def test_bit_identical_to_full_array_reference(self, data, scheme, kappa):
        p = Params(0.5, kappa)
        f0 = settling_field(data, p)
        cfg = SchemeConfig(scheme=scheme, t_end=2.0)
        left, _, right = SETTLING[data]
        f, diag = run(f0, cfg, p, delta_window=(0.0, 4.0))
        g, mh, mb, res, series = reference_run(f0, cfg, p, ((0.0, 4.0), (left, right)))
        np.testing.assert_array_equal(f.h, g.h)
        np.testing.assert_array_equal(f.b, g.b)
        np.testing.assert_array_equal(f.t, g.t)
        np.testing.assert_array_equal(diag["mass_h"], mh)
        np.testing.assert_array_equal(diag["mass_b"], mb)
        np.testing.assert_array_equal(diag["max_conservation_residual"], res)
        np.testing.assert_array_equal(diag["delta_mass"], series)
        # the settled path ran, and was dropped when dt/dx outgrew c_hi
        # and, under LLF, when the block's last cell changed; on the shock
        # data dt/dx is constant, so only the age expiry lets a block grow
        assert diag["settled_cell_steps"] > diag["n_steps"] * (100 if data == "shock" else 10)
        assert 0 < diag["full_steps"] < diag["n_steps"]
        if data == "perturbed":
            assert diag["settled_drops"]["speed"] > 0
        assert (diag["settled_drops"]["overlap"] > 0) == (scheme == "llf")

    @pytest.mark.parametrize("scheme", ["godunov", "llf"])
    def test_settled_cells_and_their_speed_hold(self, scheme, monkeypatch):
        # before every step, a settled block's cells (and its left
        # neighbour) have the bits they had when it was certified, and the
        # cached lambda2 maximum is theirs; on these data the blocks grow
        # over cells of ever other speeds
        p = Params(0.5, 0.7)
        k = np.searchsorted([311, 365], np.arange(2000), side="right")
        h, b = np.array([1.389, 1.841, 0.853])[k], np.array([1.602, 0.775, 0.922])[k]
        advance, certified = numerics._Kernel.advance, {}

        def checking_advance(kernel):
            blk = kernel.settled
            if blk is not None:
                u = kernel.U[:, blk.lo : blk.end + 1]
                np.testing.assert_array_equal(u, certified.setdefault(blk, u.copy()))
                uh, ub = u
                assert float(np.max(3.0 * p.alpha * uh * ub + p.kappa * uh * uh)) == blk.lam_max
            return advance(kernel)

        monkeypatch.setattr(numerics._Kernel, "advance", checking_advance)
        f0 = FVField(Grid(-1.0, 9.0, 2000), h, b, 0.0)
        run(f0, SchemeConfig(scheme=scheme, t_end=2.0), p)
        assert len({blk.lam_max for blk in certified}) > 10

    def test_fan_window_settles(self):
        # every full step certifies, so the run of cells at the left edge
        # of this fan's window settles too
        f0 = field_from_riemann(EX_JR, Grid(-2.0, 8.0, 400))
        diag = assert_run_is_reference(f0, SchemeConfig(t_end=3.0), P_FILM)
        assert diag["settled_cell_steps"] > 0
        assert diag["full_steps"] < diag["n_steps"]

    @pytest.mark.parametrize("scheme, kappa", [("godunov", 0.0), ("godunov", 0.7), ("llf", 0.0)])
    def test_block_dropped_when_window_edge_cuts_in(self, scheme, kappa):
        # the shock leaves the grid, and the window's right edge then
        # moves into the settled block
        p = Params(0.5, kappa)
        left, middle, right = SETTLING["shock"]
        f0 = field_from_perturbed(PerturbedData(0.2, left, middle, right, p), Grid(-1.0, 2.0, 600))
        diag = assert_run_is_reference(f0, SchemeConfig(scheme=scheme, t_end=6.0), p)
        assert diag["settled_drops"]["edge"] > 0


# Later-step failures of run, which after its first step checks only the
# cells a step computed.  step checks every cell.  A vacuum carrying a
# huge b makes the first h entering it overflow a flux.
LATER_FAILURES = [
    ("godunov", 0.7, 0.45, (1.0, 0.0), (0.0, 6e156), (25,), "b=-inf"),
    ("llf", 0.7, 1.0, (2.5, 0.0, 0.0), (0.1, 3e176, 2e190), (15, 24), "b=nan"),
    ("llf", 0.0, 0.45, (5e171, 0.004, 0.003), (0.0, 0.03, 400.0), (4, 10), "h=-inf"),
    ("llf", 0.0, 1.0, (0.04, 0.0, 8e186), (1.0, 1e149, 0.0), (9, 19), "h=inf"),
    ("llf", 0.0, 1.0, (0.0, 1e140, 200.0), (1e-10, 0.003, 80.0), (5, 6), "positivity lost"),
]


class TestFailurePaths:
    @pytest.mark.parametrize("scheme, kappa, cfl, h, b, cuts, what", LATER_FAILURES)
    def test_run_fails_as_step_does(self, scheme, kappa, cfl, h, b, cuts, what):
        grid = Grid(-1.0, 1.0, 40)
        k = np.searchsorted(cuts, np.arange(40), side="right")
        f0 = FVField(grid, np.array(h)[k], np.array(b)[k], 0.0)
        cfg, p = SchemeConfig(scheme=scheme, cfl=cfl), Params(0.5, kappa)
        with np.errstate(all="ignore"):
            f = f0
            with pytest.raises(SchemeFailureError) as by_step:
                for n_steps in range(50):
                    f = step(f, cfg, p)
            with pytest.raises(SchemeFailureError) as by_run:
                run(f0, cfg, p)
        assert n_steps >= 1
        assert what in str(by_step.value)
        assert str(by_run.value) == str(by_step.value)

    def test_inf_cell_past_the_min_check_fails_by_mass(self, monkeypatch):
        # a +inf that no min reduction sees makes the mass non-finite, and
        # run names its cell with the step's starting time
        advance, total = numerics._Kernel.advance, numerics._Kernel._sum
        times, cells = [], []

        def timed_advance(k):
            times.append(k.field.t)
            return advance(k)

        def inf_then_sum(k, i0, i1):
            # the third step's last computed cell, planted after its update
            if len(times) == 3 and not cells:
                cells.append(k.win[1])
                k.field.h[cells[0]] = math.inf
            return total(k, i0, i1)

        monkeypatch.setattr(numerics._Kernel, "advance", timed_advance)
        monkeypatch.setattr(numerics._Kernel, "_sum", inf_then_sum)
        grid = Grid(-2.0, 8.0, 200)
        x = grid.centers()
        with pytest.raises(SchemeFailureError) as exc:
            run(field_from_riemann(EX_JS, grid), SchemeConfig(t_end=1.0), P_FILM)
        assert str(exc.value).startswith(
            f"non-finite update at t={times[2]}: cell {cells[0]} at x={x[cells[0]]} has h=inf"
        )

    @pytest.mark.parametrize("scheme", ["godunov", "llf"])
    @pytest.mark.parametrize("row", ["h", "b"])
    @pytest.mark.parametrize("cell", [0, 10, 31])
    def test_inf_input_cell_fails_at_its_cell(self, scheme, row, cell):
        # +inf passes the min reduction, and the first step still names its
        # cell: outside the first window [9, 10] (cells 0 and 31) or inside it
        grid = Grid(-1.0, 1.0, 32)
        x = grid.centers()
        h, b = np.full(32, 1.0), np.where(np.arange(32) >= 10, 1.2, 1.0)
        (h if row == "h" else b)[cell] = math.inf
        cfg = SchemeConfig(scheme=scheme, t_end=1.0)
        want = f"non-finite field at t=0.0: cell {cell} at x={x[cell]} has h={h[cell]}, b={b[cell]}"
        for advance in (step, run):
            with pytest.raises(SchemeFailureError) as exc:
                advance(FVField(grid, h, b, 0.0), cfg, Params(0.5, 3.0))
            assert str(exc.value) == want

    def test_time_step_collapses(self):
        # dt = cfl*dx/lambda2 = 0.45e-301/1.5e60 underflows to 0
        grid = Grid(0.0, 1e-300, 10)
        h, b = np.full(10, 1e30), np.where(np.arange(10) < 5, 1e30, 2e30)
        for advance in (step, run):
            with pytest.raises(SchemeFailureError) as exc:
                advance(FVField(grid, h, b, 0.0), SchemeConfig(t_end=1.0), P_FILM)
            assert str(exc.value) == "time step collapsed at t=0.0"

    def test_finite_field_whose_mass_overflows_runs(self):
        # two cells of h = 1e308 sum to +inf, but every cell stays finite:
        # the vacuum left of them sends no flux, and they drain to the right
        grid = Grid(-1.0, 1.0, 32)
        h, b = np.zeros(32), np.ones(32)
        h[30:], b[30:] = 1e308, 1e-308
        with np.errstate(over="ignore"):
            f, diag = run(FVField(grid, h, b, 0.0), SchemeConfig(t_end=0.05), P_FILM)
        assert diag["n_steps"] > 1
        assert math.isinf(diag["mass_h"][0]) and math.isinf(diag["mass_h"][1])
        assert np.isfinite(f.h).all() and np.isfinite(f.b).all()


class TestSetup:
    @pytest.mark.parametrize("make, message", [
        (lambda: Grid(0.0, 1.0, 0), "grid needs x_max > x_min and n_cells > 0"),
        (lambda: Grid(1.0, 1.0, 10), "grid needs x_max > x_min and n_cells > 0"),
        (lambda: SchemeConfig(scheme="weno"), "unknown scheme 'weno'"),
        (lambda: SchemeConfig(cfl=0.0), "cfl must lie in (0, 1]"),
        (lambda: SchemeConfig(cfl=1.5), "cfl must lie in (0, 1]"),
        (lambda: SchemeConfig(t_end=0.0), "t_end must be finite and positive, got 0.0"),
        (lambda: SchemeConfig(t_end=-1.0), "t_end must be finite and positive, got -1.0"),
        (lambda: SchemeConfig(t_end=math.nan), "t_end must be finite and positive, got nan"),
        (lambda: SchemeConfig(t_end=math.inf), "t_end must be finite and positive, got inf"),
    ], ids=["no-cells", "empty-range", "scheme", "cfl-zero", "cfl-above-one",
            "t_end-zero", "t_end-negative", "t_end-nan", "t_end-inf"])
    def test_rejected(self, make, message):
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == message


class TestStep:
    def test_at_t_end_leaves_field(self):
        f = field_from_riemann(EX_JS, Grid(-2.0, 8.0, 50))
        f.t = 1.0
        fn = step(f, SchemeConfig(t_end=1.0), P_FILM)
        np.testing.assert_array_equal(fn.h, f.h)
        np.testing.assert_array_equal(fn.b, f.b)
        assert fn.t == 1.0

    def test_constant_field_unchanged(self):
        grid = Grid(-1.0, 1.0, 64)
        f = FVField(grid, np.full(64, 1.2), np.full(64, 0.7), 0.0)
        fn = step(f, SchemeConfig(t_end=0.1), Params(0.5, 1.0))
        np.testing.assert_array_equal(fn.h, f.h)
        np.testing.assert_array_equal(fn.b, f.b)
        assert fn.t > 0.0

    def test_mass_conservation_per_step(self):
        grid = Grid(-2.0, 8.0, 400)
        f = field_from_riemann(EX_JS, grid)
        _, diag = run(f, SchemeConfig(scheme="godunov", t_end=0.2), P_FILM)
        assert diag["max_conservation_residual"] <= 1e-12

    def test_llf_mass_conservation(self):
        grid = Grid(-2.0, 8.0, 400)
        f = field_from_riemann(EX_JS, grid)
        _, diag = run(f, SchemeConfig(scheme="llf", t_end=0.2), P_FILM)
        assert diag["max_conservation_residual"] <= 1e-12

    def test_stagnation_warning(self):
        grid = Grid(-1.0, 1.0, 32)
        b = np.linspace(0.5, 1.5, 32)
        f = FVField(grid, np.zeros(32), b, 0.0)
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            fn = step(f, SchemeConfig(t_end=1.0), Params(0.5, 1.0))
        assert any("frozen" in str(w.message) for w in rec)
        assert fn.t == 1.0

    def test_nan_raises(self):
        grid = Grid(-1.0, 1.0, 32)
        f = FVField(grid, np.full(32, 1.0), np.full(32, 1.0), 0.0)
        f.h[3] = math.inf
        with pytest.raises(SchemeFailureError):
            step(f, SchemeConfig(t_end=1.0), Params(0.5, 1.0))

    def test_positivity_on_example_run(self):
        grid = Grid(-2.0, 8.0, 500)
        f, _ = run(field_from_riemann(EX_JR, grid), SchemeConfig(t_end=1.0), P_FILM)
        assert min(f.h.min(), f.b.min()) >= -1e-13


class TestRuns:
    def test_zero_length_run(self):
        grid = Grid(-1.0, 1.0, 32)
        f0 = field_from_riemann(EX_JR, grid)
        f0.t = 0.5
        f, diag = run(f0, SchemeConfig(t_end=0.5), P_FILM)
        np.testing.assert_array_equal(f.h, f0.h)
        assert diag["n_steps"] == 0

    def test_example_convergence_under_refinement(self):
        fan = solve(EX_JR)
        errs = []
        for n in (250, 500, 1000):
            grid = Grid(-2.0, 8.0, n)
            f, _ = run(field_from_riemann(EX_JR, grid), SchemeConfig(t_end=1.0), P_FILM)
            errs.append(l1_error(f, fan))
        assert errs[0] > errs[1] > errs[2]
        assert errs[-1] <= 0.12 * (10.0 / 1000) / 5.33e-3  # C*dx scaling ballpark

    def test_error_grows_as_cfl_halves(self):
        # halving the cfl raises the effective viscosity of a
        # first-order scheme, so the error grows
        fan = solve(EX_JS)
        f0 = field_from_riemann(EX_JS, Grid(-2.0, 8.0, 500))
        errs = [
            l1_error(run(f0, SchemeConfig(cfl=cfl, t_end=1.0), P_FILM)[0], fan)
            for cfl in (0.9, 0.45, 0.225)
        ]
        assert errs[0] < errs[1] < errs[2]

    def test_region_wise_orders(self):
        # shock window order >= 0.7, smooth fan interior >= 0.9
        fan_js = solve(EX_JS)
        sig = fan_js.waves[-1].speed
        errs_shock = []
        fan_jr = solve(EX_JR)
        r = fan_jr.waves[-1]
        lo = r.xi_lo + 0.4 * (r.xi_hi - r.xi_lo)
        hi = r.xi_lo + 0.6 * (r.xi_hi - r.xi_lo)
        errs_fan = []
        grids = (400, 800, 1600, 3200)
        for n in grids:
            grid = Grid(-2.0, 8.0, n)
            f, _ = run(field_from_riemann(EX_JS, grid), SchemeConfig(t_end=1.0), P_FILM)
            errs_shock.append(l1_error_window(f, fan_js, sig - 0.4, sig + 0.4))
            g, _ = run(field_from_riemann(EX_JR, grid), SchemeConfig(t_end=1.0), P_FILM)
            errs_fan.append(l1_error_window(g, fan_jr, lo, hi))
        levels = len(grids) - 1
        order_shock = math.log2(errs_shock[0] / errs_shock[-1]) / levels
        order_fan = math.log2(errs_fan[0] / errs_fan[-1]) / levels
        assert all(a > b for a, b in zip(errs_shock[:-1], errs_shock[1:]))
        assert all(a > b for a, b in zip(errs_fan[:-1], errs_fan[1:]))
        assert order_shock >= 0.7
        assert order_fan >= 0.9

    def test_snapshots_recorded(self):
        grid = Grid(-2.0, 8.0, 200)
        _, diag = run(
            field_from_riemann(EX_JR, grid),
            SchemeConfig(t_end=0.5),
            P_FILM,
            record_times=[0.2, 0.4],
        )
        assert len(diag["snapshots"]) == 2
        assert diag["snapshots"][0].t >= 0.2


class TestDeltaDiagnostics:
    def test_exact_delta_fan_mass(self):
        p = Params(0.5, 1.0)
        d = RiemannData(State(2.0, 1.5), State(0.0, 1.0), p)
        fan = solve(d)
        w = fan.waves[0]
        t = 0.5
        grid = Grid(-1.0, 4.0, 2000)
        x = grid.centers()
        h, b, deltas = profile(fan, t, x)
        # place the point mass into its cell
        j = int((deltas[0][0] - grid.x_min) / grid.dx)
        b = b.copy()
        b[j] += deltas[0][1] / grid.dx
        f = FVField(grid, h, b, t)
        est = delta_mass(f, (deltas[0][0] - 0.5, deltas[0][0] + 0.5), (d.left, d.right))
        cell_mass = max(d.left.b, d.right.b) * grid.dx
        assert abs(est - w.strength_rate * t) <= cell_mass

    def test_no_delta_field_near_zero(self):
        grid = Grid(-1.0, 1.0, 500)
        f = FVField(grid, np.full(500, 1.0), np.full(500, 1.0), 0.0)
        est = delta_mass(f, (-0.5, 0.5), (State(1.0, 1.0), State(1.0, 1.0)))
        assert abs(est) <= 2.0 * grid.dx

    def test_window_outside_grid(self):
        grid = Grid(-1.0, 1.0, 10)
        f = FVField(grid, np.ones(10), np.ones(10), 0.0)
        with pytest.raises(ValueError):
            delta_mass(f, (5.0, 6.0), (State(1, 1), State(1, 1)))

    def test_peak_location(self):
        grid = Grid(-1.0, 1.0, 100)
        b = np.ones(100)
        b[70] = 9.0
        f = FVField(grid, np.ones(100), b, 0.0)
        assert abs(peak_location(f, (-1.0, 1.0)) - grid.centers()[70]) < 1e-14

    def test_delta_mass_series_grows(self):
        # coarse capture run: the windowed excess mass tracks beta(t)
        p = Params(0.5, 0.0, h_tol=1e-6)
        left, right = State(2.9, 1.70), State(1e-7, 5.56)
        grid = Grid(-0.2, 0.6, 800)
        x = grid.centers()
        f0 = FVField(
            grid,
            np.where(x < 0, left.h, right.h),
            np.where(x < 0, left.b, right.b),
            0.0,
        )
        _, diag = run(
            f0,
            SchemeConfig(scheme="llf", t_end=0.1),
            p,
            delta_window=(-0.1, 0.5),
        )
        series = diag["delta_mass"]
        assert len(series) > 10
        third = len(series) // 3
        assert series[third][1] < series[2 * third][1] < series[-1][1]


class TestInvariantTransport:
    def test_constant_history_zero(self):
        grid = Grid(-1.0, 1.0, 64)
        hist = [
            FVField(grid, np.full(64, 1.2), np.full(64, 0.7), t) for t in (0.0, 0.01, 0.02)
        ]
        r1, r2 = invariant_transport_residual(hist, Params(0.5, 1.0), (-0.5, 0.5))
        assert r1 == 0.0 and r2 == 0.0

    def test_fan_interior_residual_decreases(self):
        fan = solve(EX_JR)
        r = fan.waves[-1]
        xi_mid = 0.5 * (r.xi_lo + r.xi_hi)
        res = []
        for n in (400, 800):
            grid = Grid(-2.0, 8.0, n)
            cfg = SchemeConfig(t_end=1.0)
            _, diag = run(
                field_from_riemann(EX_JR, grid),
                cfg,
                P_FILM,
                record_times=[0.96, 0.98, 1.0],
            )
            hist = diag["snapshots"]
            window = (xi_mid * 0.9 - 0.15, xi_mid * 0.9 + 0.15)
            res.append(invariant_transport_residual(hist, P_FILM, window))
        assert res[1][0] < res[0][0]
        # upwinding on the radial flux preserves rays exactly, so the
        # w2 transport residual sits at rounding level on both grids
        assert res[0][1] < 1e-12 and res[1][1] < 1e-12

    def test_window_without_interior_cells(self):
        # the window holds cell 0 only, which has no left neighbour
        grid = Grid(-1.0, 1.0, 64)
        hist = [FVField(grid, np.full(64, 1.2), np.full(64, 0.7), t) for t in (0.0, 0.01, 0.02)]
        with pytest.raises(ValueError) as exc:
            invariant_transport_residual(hist, Params(0.5, 1.0), (-1.0, -0.98))
        assert str(exc.value) == "window contains no interior smooth cells"

    def test_requires_three_snapshots(self):
        grid = Grid(-1.0, 1.0, 16)
        f = FVField(grid, np.ones(16), np.ones(16), 0.0)
        with pytest.raises(ValueError):
            invariant_transport_residual([f, f], Params(0.5, 1.0), (-0.5, 0.5))


class TestFieldBuilders:
    def test_riemann_split(self):
        grid = Grid(-1.0, 1.0, 10)
        f = field_from_riemann(EX_JR, grid)
        assert f.h[0] == 1.24 and f.h[-1] == 1.5

    def test_center_on_break_takes_right_state(self):
        from thinfilm.interactions import PerturbedData

        grid = Grid(-1.5, 1.5, 3)
        assert list(grid.centers()) == [-1.0, 0.0, 1.0]
        f = field_from_riemann(EX_JR, grid)
        assert list(f.h) == [1.24, 1.5, 1.5] and list(f.b) == [0.90, 1.56, 1.56]
        pd = PerturbedData(1.0, State(1, 2), State(3, 4), State(5, 6), Params(0.5, 1.0))
        f = field_from_perturbed(pd, grid)
        assert list(f.h) == [3, 3, 5] and list(f.b) == [4, 4, 6]

    def test_perturbed_split(self):
        from thinfilm.interactions import PerturbedData

        pd = PerturbedData(0.3, State(1, 1), State(2, 2), State(3, 3), Params(0.5, 1.0))
        grid = Grid(-1.0, 1.0, 20)
        f = field_from_perturbed(pd, grid)
        x = grid.centers()
        assert f.h[np.argmin(np.abs(x))] == 2.0
        assert f.h[0] == 1.0 and f.h[-1] == 3.0
