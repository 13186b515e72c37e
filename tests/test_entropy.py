import math
from fractions import Fraction

import numpy as np
import pytest

from thinfilm.core import Params, State, eigenstructure, eigenvalues, riemann_invariants
from thinfilm.entropy import (
    canonical_pair,
    compatibility_residual,
    convexity_forms,
    entropy,
    entropy_flux,
    entropy_report,
    in_sufficient_family,
    pair_catalog,
    power_pair,
    theta_ode_residual,
)
from thinfilm.errors import BoundaryStateError, InvalidDataError

P = Params(0.5, 1.0)


def random_states(n, lo=0.1, hi=3.0, seed=0):
    rng = np.random.RandomState(seed)
    return [State(*rng.uniform(lo, hi, 2)) for _ in range(n)]


def constant_pair(c):
    return power_pair(0.0, 0.0, 0.0, c)


def identity_pair():
    return power_pair(-1.0, 0.0, 0.0)


class TestEntropyValues:
    def test_canonical_closed_form(self):
        pair = canonical_pair()
        for u in random_states(100, seed=1):
            expected = u.h + 1.0 / (3.0 * P.alpha * u.h * u.b + P.kappa * u.h * u.h)
            assert abs(entropy(u, pair, P) - expected) <= 1e-12 * max(1.0, expected)

    def test_canonical_at_unit_state(self):
        assert abs(entropy(State(1, 1), canonical_pair(), P) - 1.4) < 1e-14

    def test_identity_pair_reduces_to_w1(self):
        for u in random_states(20, seed=2):
            lam1, _ = eigenvalues(u, P)
            assert abs(entropy(u, identity_pair(), P) - lam1) < 1e-14

    def test_boundary_error(self):
        with pytest.raises(BoundaryStateError):
            entropy(State(0.0, 1.0), canonical_pair(), P)
        with pytest.raises(BoundaryStateError):
            entropy_flux(State(1.0, 0.0), canonical_pair(), P)


class TestEntropyFlux:
    def test_constant_psi_gives_constant_flux(self):
        pair = constant_pair(0.7)
        for u in random_states(20, seed=3):
            assert abs(entropy_flux(u, pair, P) - 3 * 0.7) < 1e-13

    def test_canonical_against_symbolic_oracle(self):
        import sympy as sp

        w1s, ps = sp.symbols("w1 p", positive=True)
        psi = 1 / (3 * w1s)
        anti = sp.integrate(psi, w1s) - sp.integrate(psi, w1s).subs(w1s, 1)
        theta = sp.sqrt(3 / ps)
        q_sym = 3 * (w1s * psi - anti) + w1s ** sp.Rational(3, 2) * theta
        u = State(1.0, 1.0)
        w1 = 3 * P.alpha * u.h * u.b / 3 + P.kappa * u.h**2 / 3
        pval = 3 * P.alpha * u.b / u.h + P.kappa
        expected = float(q_sym.subs({w1s: w1, ps: pval}))
        got = entropy_flux(u, canonical_pair(), P)
        assert abs(got - expected) < 1e-12


class TestCompatibility:
    def test_canonical_residual_small(self):
        r = compatibility_residual(State(1, 1), canonical_pair(), P, step=1e-5)
        assert r <= 1e-6

    def test_power_family_member(self):
        pair = power_pair(2.0, 0.0, math.sqrt(3.0))
        r = compatibility_residual(State(1, 1), pair, P, step=1e-5)
        assert r <= 1e-6

    def test_random_states(self):
        pair = canonical_pair()
        for u in random_states(100, lo=0.3, hi=2.5, seed=4):
            assert compatibility_residual(u, pair, P) <= 1e-6

    def test_corrupted_flux_negative_control(self):
        pair = canonical_pair()
        bad = lambda s: entropy_flux(s, pair, P) + 0.1 * s.h
        r = compatibility_residual(State(1, 1), pair, P, flux_fn=bad)
        assert r >= 1e-3

    def test_richardson_second_order_decay(self):
        pair = canonical_pair()
        u = State(1.3, 0.8)
        res = [compatibility_residual(u, pair, P, step=s) for s in (4e-3, 2e-3, 1e-3)]
        assert res[0] > res[1] > res[2]
        for coarse, fine in zip(res[:-1], res[1:]):
            assert 3.0 <= coarse / fine <= 5.0


def fd_quadratic_form(u, pair, p, r, step=1e-4):
    def eta(h, b):
        return entropy(State(h, b), pair, p)

    hh = (eta(u.h + step, u.b) - 2 * eta(u.h, u.b) + eta(u.h - step, u.b)) / step**2
    bb = (eta(u.h, u.b + step) - 2 * eta(u.h, u.b) + eta(u.h, u.b - step)) / step**2
    hb = (
        eta(u.h + step, u.b + step)
        - eta(u.h + step, u.b - step)
        - eta(u.h - step, u.b + step)
        + eta(u.h - step, u.b - step)
    ) / (4 * step**2)
    H = np.array([[hh, hb], [hb, bb]])
    r = np.array(r)
    return float(r @ H @ r)


class TestConvexity:
    def test_canonical_positive_on_log_grid(self):
        pair = canonical_pair()
        for h in np.geomspace(1e-2, 1e2, 50):
            for b in np.geomspace(1e-2, 1e2, 50):
                f1, f2 = convexity_forms(State(h, b), pair, P)
                assert f1 > 0.0 and f2 > 0.0

    def test_forms_match_fd_hessian(self):
        # the closed forms never evaluate Theta, so the finite-difference
        # Hessian of entropy() is what checks that its terms cancel; the
        # constant pair's forms and Hessian are both exactly 0
        pairs = [*pair_catalog(), power_pair(-2.0, 1.0, 0.0), identity_pair(), constant_pair(0.7)]
        for u in random_states(10, lo=0.5, hi=2.0, seed=5):
            es = eigenstructure(u, P)
            for pair in pairs:
                for f, r in zip(convexity_forms(u, pair, P), (es.r1, es.r2)):
                    assert abs(f - fd_quadratic_form(u, pair, P, r)) <= 1e-5 * abs(f)

    def test_theta_annihilates_its_ode(self):
        rng = np.random.RandomState(6)
        for _ in range(20):
            A, B = rng.uniform(0.0, 3.0, 2)
            pair = power_pair(1.0, A, B)
            for pval in np.geomspace(1e-2, 1e2, 25):
                assert abs(theta_ode_residual(pair, pval)) <= 1e-12 * max(
                    1.0, abs(pair.theta(pval))
                )

    def test_convexity_violating_psi_flagged(self):
        pair = identity_pair()
        f1, f2 = convexity_forms(State(1, 1), pair, P)
        assert f2 > 0.0  # the 2*w1*(2*w1*Psi''+Psi') form alone looks fine
        assert f1 < 0.0  # but Psi' > 0 breaks the other one
        assert not in_sufficient_family(pair)

    def test_catalog_members_in_family(self):
        for pair in pair_catalog():
            assert in_sufficient_family(pair)

    @pytest.mark.parametrize("n, A, B, scale, member", [
        (-0.25, 1.0, 0.0, -1.0, True),  # Psi = -w1^(1/4) is decreasing and convex
        (-0.75, 1.0, 0.0, -1.0, False),  # 2*w1*Psi'' + Psi' < 0
        (0.0, 1.0, 0.0, 1.0, False),  # Psi' = 0
        (1.0, -1.0, 0.0, 1.0, False),  # A < 0
        (1.0, 0.0, -1.0, 1.0, False),  # B < 0
        (1.0, 0.0, 0.0, 1.0, True),  # Theta = 0 is allowed
    ])
    def test_family_predicate_reads_coefficients(self, n, A, B, scale, member):
        assert in_sufficient_family(power_pair(n, A, B, scale)) is member

    def test_power_pair_names(self):
        assert power_pair(-2.0, 1.0, 0.0).name == "psi=w1^2*1,theta=1*sqrt(p)+0/sqrt(p)"
        assert constant_pair(0.7).name == "psi=w1^0*0.7,theta=0*sqrt(p)+0/sqrt(p)"
        assert [pair.name for pair in pair_catalog()] == ["canonical"] + [
            f"psi=w1^-{n}*1,theta={theta}" for n in (1, 2, 3)
            for theta in ("0*sqrt(p)+1.73205/sqrt(p)", "1*sqrt(p)+0/sqrt(p)")
        ]

    def test_entropy_dissipation_across_shocks(self):
        from thinfilm.riemann import CASE_JS, RiemannData, Shock, classify, solve

        pair = canonical_pair()
        rng = np.random.RandomState(7)
        checked = 0
        while checked < 50:
            p = Params(*rng.uniform(0.1, 2.0, 2))
            d = RiemannData(State(*rng.uniform(0.2, 3.0, 2)), State(*rng.uniform(0.2, 3.0, 2)), p)
            if classify(d) != CASE_JS:
                continue
            shock = [w for w in solve(d).waves if isinstance(w, Shock)][0]
            d_eta = entropy(shock.right, pair, p) - entropy(shock.left, pair, p)
            d_q = entropy_flux(shock.right, pair, p) - entropy_flux(shock.left, pair, p)
            assert shock.speed * d_eta - d_q >= -1e-10
            checked += 1


class TestReport:
    def test_report_shape_and_verdicts(self):
        rep = entropy_report(P, n_grid=12)
        assert len(rep["pairs"]) == len(pair_catalog())
        for entry in rep["pairs"]:
            assert entry["verdict"] == "convex"
            assert entry["sufficient_family"]

    def test_non_convex_pair_fails(self, monkeypatch):
        # Psi = w1^2 makes the r1 bracket -4*w1^2: a negative control for
        # the verdict, which the catalog never reaches
        import thinfilm.entropy

        monkeypatch.setattr(thinfilm.entropy, "pair_catalog", lambda: [power_pair(-2.0, 1.0, 0.0)])
        [entry] = entropy_report(P, n_grid=8)["pairs"]
        assert entry["verdict"] == "fails"
        assert entry["min_form1"] < 0.0 < entry["min_form2"]

    def test_non_convex_pair_fails_at_large_alpha(self, monkeypatch):
        import thinfilm.entropy

        monkeypatch.setattr(thinfilm.entropy, "pair_catalog", lambda: [power_pair(-2.0, 1.0, 0.0)])
        [entry] = entropy_report(Params(1e50, 1.0), n_grid=8)["pairs"]
        assert entry["verdict"] == "fails"
        assert entry["min_form1"] < 0.0 < entry["min_form2"]

    def test_alpha_zero_inconclusive(self):
        rep = entropy_report(Params(0.0, 1.0), n_grid=8)
        assert all(e["verdict"] == "inconclusive" for e in rep["pairs"])

    @pytest.mark.parametrize("alpha, kappa", [(0.5, 1.0), (0.49975, 1.0006), (0.5004, 0.9993)])
    def test_minima_match_exact_oracle(self, alpha, kappa):
        # the exact grid minima of both forms, in rational arithmetic from
        # the report's own float w1 (w1^-n is rational for n = 1, 2, 3)
        p = Params(alpha, kappa)
        w1 = [Fraction(x) for x in riemann_invariants(report_grid()[1], p).w1.tolist()]
        for pair, entry in zip(pair_catalog(), entropy_report(p)["pairs"]):
            n, s = int(pair.n), Fraction(pair.scale)
            coefs = (9 * Fraction(alpha) ** 2 * 2 * n * s, 2 * n * (2 * n + 1) * s)
            for got, coef in zip((entry["min_form1"], entry["min_form2"]), coefs):
                exact = min(coef * x**-n for x in w1)
                assert abs(Fraction(got) - exact) <= 4 * Fraction(np.finfo(float).eps) * exact

    @pytest.mark.parametrize("n_grid", [-1, 0])
    def test_rejects_empty_grid(self, n_grid):
        with pytest.raises(InvalidDataError, match="n_grid must be at least 1"):
            entropy_report(P, n_grid=n_grid)


def report_grid(n_grid=50):
    hs = np.geomspace(1e-2, 1e2, n_grid)
    return hs, np.array(np.meshgrid(hs, hs, indexing="ij")).reshape(2, -1)


class TestArrayPath:
    """The entropy family on a (2, n) array equals its State-by-State calls
    bit for bit; numpy's ``**`` on arrays would break this in about 5% of
    states, so it also pins the powers to ``np.float_power``."""

    def grids(self):
        rng = np.random.RandomState(16)
        yield report_grid()[1]
        yield np.exp(rng.uniform(np.log(1e-3), np.log(1e3), (2, 1000)))

    def test_matches_state_calls(self):
        for u in self.grids():
            singles = [State(h, b) for h, b in u.T.tolist()]
            for pair in pair_catalog():
                assert entropy(u, pair, P).tolist() == [entropy(s, pair, P) for s in singles]
                assert entropy_flux(u, pair, P).tolist() == [
                    entropy_flux(s, pair, P) for s in singles
                ]
                f1, f2 = convexity_forms(u, pair, P)
                expect = [convexity_forms(s, pair, P) for s in singles]
                assert list(zip(f1.tolist(), f2.tolist())) == expect

    # the report reads the box's corners: the minima over its n_grid by
    # n_grid grid, state by state, must have the same bits
    @pytest.mark.parametrize("alpha, n_grid", [pytest.param(a, n, id=f"alpha{a:g}" + (f"-n{n}" if n != 50 else ""))
                                               for a in (0.5, 0.0, 1e-170, 1e100, 1e200) for n in (50, 2, 7)])
    def test_report_equals_state_loop(self, alpha, n_grid):
        p = Params(alpha, 1.0)
        hs, _ = report_grid(n_grid)
        rep = entropy_report(p, n_grid=n_grid)
        for pair, entry in zip(pair_catalog(), rep["pairs"]):
            min1 = min2 = math.inf
            for h in hs:
                for b in hs:
                    f1, f2 = convexity_forms(State(h, b), pair, p)
                    min1, min2 = min(min1, f1), min(min2, f2)
            # repr also tells -0.0 from 0.0, as the JSON output would
            got = (repr(entry["min_form1"]), repr(entry["min_form2"]))
            assert got == (repr(float(min1)), repr(float(min2)))

    @pytest.mark.parametrize("row", [0, 1], ids=["h0", "b0"])
    def test_boundary_state_in_array_raises(self, row):
        u = report_grid(6)[1]
        u[row, 11] = 0.0
        for fn in (entropy, entropy_flux, convexity_forms):
            with pytest.raises(BoundaryStateError):
                fn(u, canonical_pair(), P)
