import json
import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from thinfilm.core import Params, State, phi
from thinfilm.errors import (
    EventBudgetError,
    InvalidDataError,
    NoInteractionError,
    UnreachableCaseError,
    UnsupportedCaseError,
)
from thinfilm.interactions import (
    CASE_NUMBER,
    ConstRegion,
    DeltaContact,
    InteractionTimeline,
    PerturbedData,
    classify_case,
    epsilon_limit_report,
    interact_shock_contact,
    run_timeline,
    shock_through_fan,
    timeline_to_json,
    _Builder,
    _discretize_fan,
)
from thinfilm.riemann import (
    CompositeJR,
    Contact,
    DeltaShock,
    Rarefaction,
    RiemannData,
    Shock,
    Wave,
    profile,
    shock_speed,
    solve,
)

P0 = Params(0.5, 0.0)
P1 = Params(0.5, 1.0)

# paper 6.4 / 6.5 / 6.6 perturbed data
EX_PER_JS = PerturbedData(0.1, State(1.5, 1.6), State(0.95, 1.62), State(1.25, 1.15), P0)
EX_PER_JR = PerturbedData(0.1, State(1.24, 0.90), State(0.75, 1.25), State(1.5, 1.56), P0)
EX_PER_DS = PerturbedData(
    0.1, State(1.24, 0.90), State(1e-5, 5.5), State(1.5, 1.56), Params(0.5, 0.0, h_tol=1e-4)
)
# case 2 subcase 1 (penetration completes): w1(left) > w1(right)
CASE2_SUB1 = PerturbedData(0.1, State(2.0, 1.5), State(1.0, 1.0), State(1.2, 1.0), P0)
# delta cases with gravity
CASE6 = PerturbedData(0.1, State(2.0, 1.5), State(1.0, 1.0), State(0.0, 2.0), P1)
CASE7 = PerturbedData(0.1, State(1.0, 1.0), State(1.0, 1.5), State(0.0, 2.0), P1)


class TestClassifyCase:
    def test_paper_examples(self):
        assert classify_case(EX_PER_JS) == "JS+JS"
        assert classify_case(EX_PER_JR) == "JS+JR"
        assert classify_case(EX_PER_DS) == "dS+JR"
        assert CASE_NUMBER[classify_case(EX_PER_JS)] == 1
        assert CASE_NUMBER[classify_case(EX_PER_DS)] == 5

    def test_delta_cases(self):
        assert classify_case(CASE6) == "JS+dS"
        assert classify_case(CASE7) == "JR+dS"

    def test_two_deltas_unreachable(self):
        d = PerturbedData(0.1, State(1.0, 1.0), State(0.0, 1.0), State(0.0, 2.0), P1)
        with pytest.raises(UnreachableCaseError):
            classify_case(d)

    def test_left_boundary_unsupported(self):
        d = PerturbedData(0.1, State(0.0, 1.0), State(1.0, 1.0), State(2.0, 2.0), P1)
        with pytest.raises(UnsupportedCaseError):
            classify_case(d)


class TestShockContact:
    def test_printed_point(self):
        tl = run_timeline(EX_PER_JS)
        j1w, s1w = solve(EX_PER_JS.left_data()).waves
        j2w, _ = solve(EX_PER_JS.right_data()).waves
        sigma1, mu2 = s1w.speed, j2w.speed
        eps = EX_PER_JS.epsilon
        x1, t1 = tl.events[0].point
        np.testing.assert_allclose(x1, (sigma1 + mu2) * eps / (sigma1 - mu2), rtol=1e-14)
        np.testing.assert_allclose(t1, 2 * eps / (sigma1 - mu2), rtol=1e-14)
        # the defining line equations
        np.testing.assert_allclose(x1 + eps, sigma1 * t1, rtol=1e-14)
        np.testing.assert_allclose(x1 - eps, mu2 * t1, rtol=1e-14)

    def test_epsilon_homogeneity(self):
        tl1 = run_timeline(EX_PER_JS)
        tl2 = run_timeline(replace(EX_PER_JS, epsilon=0.2))
        for e1, e2 in zip(tl1.events, tl2.events):
            np.testing.assert_allclose(2.0 * e1.point[0], e2.point[0], rtol=1e-13)
            np.testing.assert_allclose(2.0 * e1.point[1], e2.point[1], rtol=1e-13)

    def test_outgoing_contact_moves_at_left_lambda1(self):
        rng = np.random.RandomState(0)
        built = 0
        while built < 20:
            p = Params(*rng.uniform(0.1, 2.0, 2))
            left = State(*rng.uniform(1.0, 3.0, 2))
            middle = State(*rng.uniform(0.5, 1.0, 2))
            right = State(*rng.uniform(0.1, 0.45, 2))
            d = PerturbedData(0.1, left, middle, right, p)
            try:
                if classify_case(d) != "JS+JS":
                    continue
            except (InvalidDataError, UnsupportedCaseError):
                continue
            tl = run_timeline(d)
            contacts = [f for f in tl.fronts if f.kind == "contact" and f.t_birth > 0]
            for c in contacts:
                assert abs(c.speed - phi(left, p)) <= 1e-12 * max(1.0, phi(left, p))
            built += 1

    def test_printed_formula_with_synthetic_speeds(self):
        # only the collision geometry uses the speed fields, so the
        # printed point can be checked with hand-picked speeds
        s = Shock(2.0, State(4.0, 2.0), State(2.0, 1.0))
        j = Contact(1.0, State(2.0, 1.0), State(1.0, 2.0))
        point, _ = interact_shock_contact(s, j, 0.1, Params(0.5, 0.0))
        np.testing.assert_allclose(point, (0.3, 0.2), rtol=1e-15)

    def test_outgoing_waves_are_the_timeline_fronts(self):
        # the helper's point and waves are what run_timeline emits at its first event
        d = EX_PER_JS
        (_, s1w), (j2w, _) = solve(d.left_data()).waves, solve(d.right_data()).waves
        point, (j3w, s3w) = interact_shock_contact(s1w, j2w, d.epsilon, d.params)
        assert j3w.speed == phi(s1w.left, d.params) and j3w.left == s1w.left
        assert s3w.left == j3w.right and s3w.right == j2w.right
        tl = run_timeline(d)
        ev = tl.events[0]
        assert ev.point == point
        by_id = {f.id: f for f in tl.fronts}
        j3, s3 = (by_id[i] for i in ev.outgoing)
        assert (j3.kind, j3.speed, j3.right_region) == ("contact", j3w.speed, ConstRegion(j3w.right))
        assert (s3.kind, s3.speed, s3.right_region) == ("shock", s3w.speed, ConstRegion(s3w.right))

    def test_no_interaction_when_ordered_wrong(self):
        s = Shock(1.0, State(2, 2), State(1, 1))
        j = Contact(2.0, State(1, 1), State(1.5, 1.5))
        with pytest.raises(NoInteractionError):
            interact_shock_contact(s, j, 0.1, P1)


class TestShockShockChase:
    def test_final_fan_matches_exact(self):
        tl = run_timeline(EX_PER_JS)
        exact = solve(EX_PER_JS.outer_data())
        survivors = [f for f in tl.fronts if math.isinf(f.t_death)]
        speeds = sorted(f.speed for f in survivors)
        exact_speeds = sorted(s for w in exact.waves for s in set(w.speed_range()))
        # two parallel contacts collapse onto the exact contact speed
        np.testing.assert_allclose(speeds[0], speeds[1], rtol=1e-12)
        np.testing.assert_allclose(speeds[1], exact_speeds[0], rtol=1e-12)
        np.testing.assert_allclose(speeds[2], exact_speeds[1], rtol=1e-12)
        s4 = [f for f in survivors if f.kind == "shock"][0]
        m_star = exact.intermediate
        region = [f for f in survivors if f.kind == "contact" and f.t_birth > 0][0]
        assert abs(region.right_region.state.h - m_star.h) < 1e-12
        assert abs(region.right_region.state.b - m_star.b) < 1e-12

    def test_second_event_formula(self):
        tl = run_timeline(EX_PER_JS)
        (x1, t1), (x2, t2) = tl.events[0].point, tl.events[1].point
        s3 = [f for f in tl.fronts if f.kind == "shock" and f.t_birth == t1][0]
        s2 = [f for f in tl.fronts if f.kind == "shock" and f.t_birth == 0.0 and f.x_birth > 0][0]
        eps = EX_PER_JS.epsilon
        np.testing.assert_allclose(t2, (x1 - eps - s3.speed * t1) / (s2.speed - s3.speed), rtol=1e-13)
        np.testing.assert_allclose(x2 - x1, s3.speed * (t2 - t1), rtol=1e-12)
        np.testing.assert_allclose(x2 - eps, s2.speed * t2, rtol=1e-12)

    def test_zero_strength_first_problem(self):
        d = replace(EX_PER_JS, middle=EX_PER_JS.left)
        tl = run_timeline(d)
        assert tl.events == []
        assert tl.case_tag == "degenerate"


class TestShockThroughFan:
    def test_entry_time_law(self):
        tl = run_timeline(EX_PER_JR)
        curve = tl.curves[0]
        t2 = curve.t_start
        h2 = curve.state_of_t(t2).h
        fanw = [w for w in solve(EX_PER_JR.right_data()).waves if isinstance(w, Rarefaction)][0]
        np.testing.assert_allclose(h2, fanw.left.h, rtol=1e-10)

    def test_time_law_pole_at_left_state(self):
        tl = run_timeline(EX_PER_JR)
        curve = tl.curves[0]
        h3 = [f for f in tl.fronts if f.kind == "contact" and f.t_birth > 0][0].right_region.state.h
        assert curve.t_end == math.inf
        assert curve.state_of_t(1e9).h < h3
        assert curve.state_of_t(1e9).h > curve.state_of_t(10.0).h

    def test_monotone_h_and_convexity(self):
        tl = run_timeline(CASE2_SUB1)
        curve = tl.curves[0]
        ts = np.linspace(curve.t_start * 1.001, curve.t_end * 0.999, 25)
        hs = [curve.state_of_t(t).h for t in ts]
        assert all(a < b for a, b in zip(hs[:-1], hs[1:]))
        xs = np.array([curve.x_of_t(t) for t in ts])
        d2 = np.diff(xs, 2)
        assert np.all(d2 > 0.0)  # shock accelerates through the fan

    def test_exit_against_ode_oracle(self):
        tl = run_timeline(CASE2_SUB1)
        curve = tl.curves[0]
        assert math.isfinite(curve.t_end)
        p = CASE2_SUB1.params
        eps = CASE2_SUB1.epsilon
        chasing = [f for f in tl.fronts if f.kind == "contact" and f.t_birth > 0][0].right_region.state
        anchor = CASE2_SUB1.right
        c = p.alpha * anchor.b / anchor.h + p.kappa / 3.0
        w2 = anchor.b / anchor.h
        h_head = anchor.h

        def rhs(t, y):
            xi = (y[0] - eps) / t
            h = math.sqrt(max(xi, 0.0) / (3.0 * c))
            u = State(h, w2 * h)
            return [shock_speed(chasing, u, p)]

        def hit_head(t, y):
            return (y[0] - eps) / t - 3.0 * c * h_head * h_head

        hit_head.terminal = True
        hit_head.direction = 1.0
        t2 = curve.t_start
        sol = solve_ivp(
            rhs, (t2, curve.t_end * 10), [curve.x_of_t(t2)],
            events=hit_head, rtol=1e-11, atol=1e-12, dense_output=True,
        )
        t3_ode = sol.t_events[0][0]
        np.testing.assert_allclose(curve.t_end, t3_ode, rtol=1e-8)

    def test_final_fan_after_exit(self):
        tl = run_timeline(CASE2_SUB1)
        exact = solve(CASE2_SUB1.outer_data())
        assert not tl.asymptotic
        survivors = [f for f in tl.fronts if math.isinf(f.t_death)]
        s4 = [f for f in survivors if f.kind == "shock"][0]
        np.testing.assert_allclose(s4.speed, exact.waves[-1].speed, rtol=1e-12)

    @staticmethod
    def penetration_draws(n, seed, h_left_range):
        """(curve, h_left, h_head, t) with h_entry/h_left in [1e-3, 0.999]
        and t from the entry time to 1e6 times it."""
        rng = np.random.RandomState(seed)
        out = []
        for i in range(n):
            p = (P0, P1)[i % 2]
            h_left = float(rng.uniform(*h_left_range))
            w2 = float(rng.uniform(0.2, 3.0))
            # a fan head beyond the left state half the time: no exit
            h_head = h_left * float(rng.uniform(1.0, 2.0) if i % 4 < 2 else rng.uniform(0.2, 1.0))
            head = State(h_head, w2 * h_head)
            fan = Rarefaction(0.0, 0.0, State(0.1 * h_head, 0.1 * w2 * h_head), head, head)
            c = p.alpha * w2 + p.kappa / 3.0
            h_entry = h_left * float(rng.uniform(1e-3, 0.999))
            t_e = float(10 ** rng.uniform(-2, 1))
            x0 = float(rng.uniform(-1.0, 1.0))
            entry = (x0 + 3.0 * c * h_entry * h_entry * t_e, t_e)
            curve = shock_through_fan(entry, fan, State(h_left, w2 * h_left), p, x0)[0]
            out.append((curve, h_left, h_head, t_e * float(10 ** rng.uniform(0, 6))))
        return out

    def test_penetration_root_against_brentq(self):
        # brentq's own error is up to xtol + rtol*h, so thicknesses stay O(1)
        def g(h_left, h):
            return (h_left - h) ** 2 * (h_left + 2.0 * h)

        for curve, h_left, h_head, t in self.penetration_draws(400, 5, (0.2, 2.0)):
            h_entry = curve.state_of_t(curve.t_start).h
            target = curve.t_start * g(h_left, h_entry) / t
            hi = min(h_left, h_head)
            ref = hi if target <= g(h_left, hi) else brentq(
                lambda hh: g(h_left, hh) - target, h_entry, hi, xtol=1e-14, rtol=1e-14
            )
            assert abs(curve.state_of_t(t).h - ref) <= 1e-14

    def test_penetration_root_against_50_digits(self):
        import mpmath  # ships with sympy

        for curve, h_left, h_head, t in self.penetration_draws(400, 6, (0.01, 10.0)):
            h = curve.state_of_t(t).h
            if h == min(h_left, h_head):
                continue  # past the exit: the clamp, not the root
            h_entry = curve.state_of_t(curve.t_start).h
            target = curve.t_start * (h_left - h_entry) ** 2 * (h_left + 2.0 * h_entry) / t
            with mpmath.workdps(50):
                hl, g = mpmath.mpf(h_left), mpmath.mpf(target)
                root = mpmath.findroot(lambda hh: (hl - hh) ** 2 * (hl + 2 * hh) - g, mpmath.mpf(h))
            assert abs(h - float(root)) <= 1e-15 * max(1.0, h_left)

    def test_cli_import_leaves_scipy_out(self):
        code = "import sys, thinfilm.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert res.stdout.strip() == "[]"


class TestDeltaContactSplit:
    def test_printed_point_and_strength(self):
        d = EX_PER_DS
        tl = run_timeline(d)
        split, dj = tl.events[0], tl.residual_delta_contact
        p = d.params
        t1_expect = 6 * d.epsilon / (3 * p.alpha * d.left.h * d.left.b + p.kappa * d.left.h**2)
        np.testing.assert_allclose(split.point, (d.epsilon, t1_expect), rtol=1e-14)
        np.testing.assert_allclose(split.delta_strength, 2 * d.middle.b * d.epsilon, rtol=1e-14)
        assert isinstance(dj, DeltaContact)
        np.testing.assert_allclose(dj.speed, phi(d.left, p), rtol=1e-14)
        np.testing.assert_allclose(dj.strength, 2 * d.middle.b * d.epsilon, rtol=1e-14)

    def test_epsilon_limit(self):
        rows = []
        for eps in (0.1, 0.05, 0.025):
            tl = run_timeline(replace(EX_PER_DS, epsilon=eps))
            rows.append((tl.max_event_time, tl.residual_delta_contact.strength))
        times = [r[0] for r in rows]
        strengths = [r[1] for r in rows]
        assert times[0] > times[1] > times[2]
        np.testing.assert_allclose(strengths, [2 * 5.5 * e for e in (0.1, 0.05, 0.025)], rtol=1e-12)

    @pytest.mark.parametrize("eps", [0.1, 0.05, 0.025])
    @pytest.mark.parametrize("left", [State(1.24, 0.90), State(2.9, 1.70)])
    def test_split_matches_timeline(self, eps, left):
        # the split event, the frozen front, the residual record and the
        # curve agree with each other and with the closed-form split
        d = replace(EX_PER_DS, epsilon=eps, left=left)
        tl = run_timeline(d)
        split = tl.events[0]
        sigma1 = phi(left, d.params)
        assert split.point == (eps, 2.0 * eps / sigma1)
        assert split.delta_strength == 2.0 * d.middle.b * eps
        by_id = {fr.id: fr for fr in tl.fronts}
        assert [by_id[i].kind for i in split.incoming] == ["delta", "contact"]
        assert [by_id[i].kind for i in split.outgoing] == ["delta-contact", "curved-shock"]
        frozen, cfront = (by_id[i] for i in split.outgoing)
        dj = tl.residual_delta_contact
        assert dj == DeltaContact(sigma1, split.delta_strength, left, solve(d.outer_data()).intermediate)
        assert (frozen.speed, frozen.strength_of_t(10.0)) == (dj.speed, dj.strength)
        assert frozen.right_region == ConstRegion(dj.right)
        assert tl.curves == [cfront.curve]
        assert cfront.curve.kind == "shock-in-fan"
        assert cfront.curve.t_start == split.point[1]
        assert cfront.curve.x_of_t(split.point[1]) == split.point[0]

    def test_subcase1_completes(self):
        # left w1 above right w1: the split shock crosses the whole fan
        d = PerturbedData(
            0.1, State(2.9, 1.70), State(1e-5, 5.5), State(1.5, 1.56), Params(0.5, 0.0, h_tol=1e-4)
        )
        tl = run_timeline(d)
        assert not tl.asymptotic
        assert len(tl.events) == 2
        exact = solve(d.outer_data())
        s4 = [f for f in tl.fronts if f.kind == "shock" and math.isinf(f.t_death)][0]
        np.testing.assert_allclose(s4.speed, exact.waves[-1].speed, rtol=1e-12)


class TestShockOvertakesDelta:
    def test_event_and_strength(self):
        d = CASE6
        tl = run_timeline(d)
        _, s1w = solve(d.left_data()).waves
        ds2w = solve(d.right_data()).waves[0]
        eps = d.epsilon
        denom = s1w.speed - ds2w.speed
        np.testing.assert_allclose(
            tl.events[0].point, ((s1w.speed + ds2w.speed) * eps / denom, 2 * eps / denom), rtol=1e-14
        )
        np.testing.assert_allclose(
            tl.events[0].delta_strength, ds2w.right.b * ds2w.speed * (2 * eps / denom), rtol=1e-14
        )

    def test_beta_continuity_and_parallel(self):
        tl = run_timeline(CASE6)
        t1 = tl.events[0].point[1]
        old = [f for f in tl.fronts if f.kind == "delta" and f.t_birth == 0.0][0]
        new = [f for f in tl.fronts if f.kind == "delta" and f.t_birth == t1][0]
        np.testing.assert_allclose(old.strength_of_t(t1), new.strength_of_t(t1), rtol=1e-13)
        j1 = [f for f in tl.fronts if f.kind == "contact"][0]
        np.testing.assert_allclose(new.speed, j1.speed, rtol=1e-14)
        assert new.position(t1) > j1.position(t1)

    def test_epsilon_zero_recovers_riemann_rate(self):
        exact_rate = solve(CASE6.outer_data()).waves[0].strength_rate
        for eps in (0.1, 0.01):
            tl = run_timeline(replace(CASE6, epsilon=eps))
            ds3 = [f for f in tl.fronts if f.kind == "delta" and math.isinf(f.t_death)][0]
            rate = ds3.strength_of_t(5.0) - ds3.strength_of_t(4.0)
            np.testing.assert_allclose(rate, exact_rate, rtol=1e-12)
            # the affine offset vanishes linearly in epsilon
            offset = ds3.strength_of_t(5.0) - exact_rate * 5.0
            assert abs(offset) <= 2.0 * eps * exact_rate

    def test_final_state_sequence_matches_exact(self):
        # terminating singular cascades reproduce the outer Riemann fan
        for d in (CASE6, CASE7):
            tl = run_timeline(d)
            exact_wave = solve(d.outer_data()).waves[0]
            survivor = [
                f for f in tl.fronts if f.kind == "delta" and math.isinf(f.t_death)
            ][0]
            np.testing.assert_allclose(survivor.speed, exact_wave.speed, rtol=1e-12)
            assert survivor.right_region.state == exact_wave.right
            # the state carried left of the singular front sits on the
            # exact contact plateau
            left_plateau = [
                f for f in tl.fronts if f.kind == "contact" and math.isinf(f.t_death)
            ][0].right_region.state
            np.testing.assert_allclose(
                phi(left_plateau, d.params), phi(d.left, d.params), rtol=1e-12
            )


class TestDeltaThroughFan:
    def test_printed_entry(self):
        d = PerturbedData(0.3, State(1.0, 1.0), State(1.0, 1.0), State(0.0, 2.0), P1)
        # middle == left here would be degenerate; shift middle up the ray
        d = PerturbedData(0.3, State(1.0, 1.0), State(1.2, 1.2), State(0.0, 2.0), P1)
        tl = run_timeline(d)
        p = d.params
        lam2m = 3 * p.alpha * d.middle.h * d.middle.b + p.kappa * d.middle.h**2
        np.testing.assert_allclose(tl.events[0].point, (2 * d.epsilon, 3 * d.epsilon / lam2m), rtol=1e-13)
        np.testing.assert_allclose(tl.events[0].delta_strength, d.right.b * d.epsilon, rtol=1e-13)

    def test_cube_root_ode(self):
        tl = run_timeline(CASE7)
        curve = tl.curves[0]
        eps = CASE7.epsilon
        for t in np.linspace(curve.t_start * 1.01, curve.t_end * 0.99, 9):
            x = curve.x_of_t(t)
            # analytic derivative of A t^(1/3) - eps is (x + eps)/(3 t)
            A = (x + eps) / t ** (1.0 / 3.0)
            dxdt = A / (3.0 * t ** (2.0 / 3.0))
            np.testing.assert_allclose(dxdt, (x + eps) / (3.0 * t), rtol=1e-10)

    def test_concave_and_monotone_h_down(self):
        tl = run_timeline(CASE7)
        curve = tl.curves[0]
        ts = np.linspace(curve.t_start * 1.001, curve.t_end * 0.999, 25)
        xs = np.array([curve.x_of_t(t) for t in ts])
        assert np.all(np.diff(xs, 2) < 0.0)  # singular front decelerates
        # the fan is consumed from its head (h = h_m) toward its tail,
        # so the fan-side h falls along the curve
        hs = [curve.state_of_t(t).h for t in ts]
        assert all(a > b for a, b in zip(hs[:-1], hs[1:]))
        np.testing.assert_allclose(hs[0], CASE7.middle.h, rtol=1e-2)

    def test_beta_continuity_both_events(self):
        tl = run_timeline(CASE7)
        t1 = tl.events[0].point[1]
        t2 = tl.events[1].point[1]
        ds2 = [f for f in tl.fronts if f.kind == "delta" and f.t_birth == 0.0][0]
        curved = [f for f in tl.fronts if f.kind == "curved-delta"][0]
        ds4 = [f for f in tl.fronts if f.kind == "delta" and f.t_birth == t2][0]
        np.testing.assert_allclose(ds2.strength_of_t(t1), curved.strength_of_t(t1), rtol=1e-13)
        np.testing.assert_allclose(curved.strength_of_t(t2), ds4.strength_of_t(t2), rtol=1e-13)

    def test_epsilon_zero_strength_limit(self):
        exact = solve(CASE7.outer_data()).waves[0]
        t_probe = 2.0
        for eps in (0.1, 0.05, 0.025):
            tl = run_timeline(replace(CASE7, epsilon=eps))
            ds4 = [f for f in tl.fronts if f.kind == "delta" and math.isinf(f.t_death)][0]
            err = abs(ds4.strength_of_t(t_probe) - exact.strength_rate * t_probe)
            assert err <= 3.0 * eps * exact.strength_rate


@pytest.mark.parametrize("d, n_curves", [
    (EX_PER_JR, 1), (CASE2_SUB1, 1), (EX_PER_DS, 1), (CASE7, 1),
    (EX_PER_JS, 0), (CASE6, 0),
], ids=["JS+JR-asymptotic", "JS+JR-exit", "dS+JR", "JR+dS", "JS+JS", "JS+dS"])
def test_curves_are_the_curved_fronts(d, n_curves):
    # a curved front holds its curve over exactly its own lifetime
    tl = run_timeline(d)
    curved = [f for f in tl.fronts if f.curve is not None]
    assert len(curved) == n_curves
    assert tl.curves == [f.curve for f in curved]
    for f in curved:
        assert f.kind.startswith("curved-")
        assert (f.curve.t_start, f.curve.t_end) == (f.t_birth, f.t_death)
        assert f.position(f.t_birth) == f.curve.x_of_t(f.t_birth)


class TestGenericEngine:
    def test_matches_closed_form_case1(self):
        tl_cf = run_timeline(EX_PER_JS)
        tl_ge = run_timeline(EX_PER_JS, force_generic=True, n_fan=64)
        assert len(tl_ge.events) == len(tl_cf.events)
        for a, b in zip(tl_cf.events, tl_ge.events):
            np.testing.assert_allclose(a.point, b.point, rtol=1e-12)

    def test_jr_js_cascade_terminates(self):
        d = PerturbedData(0.1, State(1.0, 1.0), State(1.3, 1.3), State(0.9, 0.8), P1)
        assert classify_case(d) == "JR+JS"
        tl = run_timeline(d, n_fan=24)
        assert len(tl.events) > 0
        # late profile approximates the exact outer solution
        xs = np.linspace(-2.0, 40.0, 3000)
        t = 8.0
        h, b = tl.profile(t, xs)
        he, be, _ = profile(solve(d.outer_data()), t, xs)
        l1 = float(np.sum(np.abs(h - he) + np.abs(b - be)) * (xs[1] - xs[0]))
        assert l1 < 0.5

    def test_jr_jr_runs(self):
        d = PerturbedData(0.1, State(0.8, 0.8), State(1.0, 1.1), State(1.5, 1.5), P1)
        assert classify_case(d) == "JR+JR"
        tl = run_timeline(d, n_fan=64)
        assert tl.case_tag == "JR+JR"
        assert len(tl.events) > 0
        for e in tl.events:
            assert e.point[1] > 0.0
        # late profile approximates the exact outer fan (same bound as JR+JS)
        xs = np.linspace(-2.0, 40.0, 3000)
        t = 8.0
        h, b = tl.profile(t, xs)
        he, be, _ = profile(solve(d.outer_data()), t, xs)
        l1 = float(np.sum(np.abs(h - he) + np.abs(b - be)) * (xs[1] - xs[0]))
        assert l1 < 0.5

    def test_budget_exhaustion(self):
        d = PerturbedData(0.1, State(1.0, 1.0), State(1.3, 1.3), State(0.9, 0.8), P1)
        with pytest.raises(EventBudgetError):
            run_timeline(d, n_fan=48, budget=3)


def reference_generic_timeline(
    d: PerturbedData, tag: str, n_fan: int, budget: float, t_max: float
) -> InteractionTimeline:
    """The discretized-fan engine before its event queue, kept verbatim as
    a test-only oracle: every event re-sorts all live fronts, rescans every
    adjacent pair for the earliest (t*, x*) and scans all live fronts for
    the group at that point."""
    p = d.params
    eps = d.epsilon
    fans = [(-eps, solve(d.left_data())), (eps, solve(d.right_data()))]
    span = 0.0
    for _, fan in fans:
        for w in fan.waves:
            if isinstance(w, Rarefaction):
                span = max(span, phi(w.right, p) - phi(w.left, p))
    dw1_target = span / n_fan if span > 0.0 else math.inf

    bld = _Builder()
    lefts: list[State] = []  # lefts[i]: the state left of front i

    def push_wave(w: Wave, x0: float, t0: float) -> None:
        if isinstance(w, Rarefaction):
            pieces = [("fan-shock", *piece) for piece in _discretize_fan(w, p, dw1_target)]
        elif isinstance(w, (Contact, Shock)):
            kind = "contact" if isinstance(w, Contact) else "shock"
            pieces = [(kind, w.speed, w.left, w.right)]
        else:
            raise UnsupportedCaseError("generic engine handles classical waves only")
        for kind, speed, left, right in pieces:
            lefts.append(left)
            bld.add(kind=kind, t_birth=t0, x_birth=x0, speed=speed,
                    right_region=ConstRegion(right))

    for x0, fan in fans:
        for w in fan.waves:
            push_wave(w, x0, 0.0)

    t_now = 0.0
    tol = 1e-12
    while True:
        live = [f for f in bld.fronts if f.t_death == math.inf]
        live.sort(key=lambda f: (f.position(max(t_now, f.t_birth)), f.speed))
        best = None
        for a, b in zip(live[:-1], live[1:]):
            if a.speed <= b.speed + tol:
                continue
            t_star = (
                b.x_birth - b.speed * b.t_birth - a.x_birth + a.speed * a.t_birth
            ) / (a.speed - b.speed)
            if t_star <= max(a.t_birth, b.t_birth) + tol:
                continue
            x_star = a.position(t_star)
            if best is None or (t_star, x_star) < best:
                best = (t_star, x_star)
        if best is None or best[0] > t_max:
            break
        t_star, x_star = best
        group = [f for f in live if abs(f.position(t_star) - x_star) <= 1e-9 * max(1.0, abs(x_star)) + 1e-12]
        group.sort(key=lambda f: -f.speed)
        first_new = len(bld.fronts)
        local = solve(RiemannData(lefts[group[0].id], group[-1].right_region.state, p))
        for w in local.waves:
            push_wave(w, x_star, t_star)
        bld.event((x_star, t_star), group, bld.fronts[first_new:])
        t_now = t_star
        if len(bld.events) > budget:
            raise EventBudgetError(f"interaction cascade exceeded {budget} events")

    return bld.timeline(d, tag)


def front_record(tl):
    return [(f.id, f.kind, f.t_birth, f.x_birth, f.speed, f.t_death, f.right_region)
            for f in tl.fronts]


def assert_same_as_reference(d, **kwargs):
    """The engine against the rescanning oracle: same events, same fronts,
    or the same exception."""
    kwargs = dict(dict(n_fan=64, budget=10000, t_max=math.inf), **kwargs)
    try:
        ref = reference_generic_timeline(d, classify_case(d), **kwargs)
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            run_timeline(d, force_generic=True, **kwargs)
        assert str(got.value) == str(exc)
        return None
    tl = run_timeline(d, force_generic=True, **kwargs)
    assert tl.events == ref.events
    assert front_record(tl) == front_record(ref)
    return tl


def distinct(u, v):
    """Far from the middle-equals-outer data that run_timeline resolves without the engine."""
    return abs(u.h - v.h) + abs(u.b - v.b) > 1e-6


POSITIVE_STATES = st.tuples(st.floats(0.2, 3.0), st.floats(0.2, 3.0)).map(lambda hb: State(*hb))


class TestGenericEngineMatchesReference:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        alpha=st.floats(0.1, 2.0),
        kappa=st.floats(0.0, 2.0),
        epsilon=st.floats(0.01, 1.0),
        states=st.tuples(POSITIVE_STATES, POSITIVE_STATES, POSITIVE_STATES),
        n_fan=st.integers(8, 128),
        t_max=st.one_of(st.just(math.inf), st.floats(0.01, 20.0)),
        budget=st.sampled_from([5, 10000]),
    )
    def test_random_classical_patterns(self, alpha, kappa, epsilon, states, n_fan, t_max, budget):
        left, middle, right = states
        assume(distinct(left, middle) and distinct(middle, right))
        d = PerturbedData(epsilon, left, middle, right, Params(alpha, kappa))
        try:
            tag = classify_case(d)
        except (UnsupportedCaseError, UnreachableCaseError):
            tag = None
        assume(tag in ("JS+JS", "JS+JR", "JR+JS", "JR+JR"))
        assert_same_as_reference(d, n_fan=n_fan, t_max=t_max, budget=budget)

    def test_benchmark_jr_js(self):
        # the benchmark's fan-fan data at its resolution, and the budget's edge
        d = PerturbedData(0.1, State(1.0, 1.0), State(1.3, 1.3), State(0.9, 0.8),
                          Params(0.5, 1.0, h_tol=1e-10))
        assert len(assert_same_as_reference(d, n_fan=512).events) == 1294
        assert len(assert_same_as_reference(d, n_fan=64, budget=165).events) == 165
        assert assert_same_as_reference(d, n_fan=64, budget=164) is None

    def test_converges_to_curved_shock_at_first_order(self):
        # JS+JR while the shock is inside the fan (it exits at t = 0.184):
        # the closed-form curved shock is the oracle of the discretized fan
        xs = np.linspace(-1.0, 2.0, 300001)
        t = 0.12
        he, be = run_timeline(CASE2_SUB1).profile(t, xs)
        l1 = []
        for n in (16, 64, 256, 1024):
            h, b = run_timeline(CASE2_SUB1, force_generic=True, n_fan=n).profile(t, xs)
            l1.append(float(np.sum(np.abs(h - he) + np.abs(b - be)) * (xs[1] - xs[0])))
        for coarse, fine in zip(l1[:-1], l1[1:]):
            assert 0.95 <= math.log(coarse / fine, 4.0) <= 1.05


def assert_profile_is_sample_loop(tl, t, xs, h, b):
    ref = [tl.sample(x, t) for x in xs]
    np.testing.assert_array_equal(h.view(np.int64), np.array([u.h for u in ref]).view(np.int64))
    np.testing.assert_array_equal(b.view(np.int64), np.array([u.b for u in ref]).view(np.int64))


class TestTimelineSampling:
    def test_trivial_middle_equals_left(self):
        d = replace(EX_PER_JR, middle=EX_PER_JR.left)
        tl = run_timeline(d)
        assert tl.events == []
        xs = np.linspace(-1.0, 5.0, 500)
        h, b = tl.profile(1.0, xs)
        he, be, _ = profile(solve(d.outer_data()), 1.0, xs - d.epsilon)
        np.testing.assert_allclose(h, he, atol=1e-12)
        np.testing.assert_allclose(b, be, atol=1e-12)

    @pytest.mark.parametrize("outer, waves", [
        ((State(1.5, 1.6), State(1.25, 1.15), P0), [Contact, Shock]),
        ((State(1.24, 0.90), State(1.5, 1.56), P0), [Contact, Rarefaction]),
        ((State(2.0, 1.5), State(0.0, 2.0), P1), [DeltaShock]),
        ((State(1e-6, 5.5), State(1.5, 1.56), Params(0.5, 0.0, h_tol=1e-4)), [CompositeJR]),
    ], ids=["JS", "JR", "delta", "composite"])
    @pytest.mark.parametrize("equal_to", ["left", "right"])
    def test_trivial_outer_fan(self, outer, waves, equal_to):
        # middle equal to one outer state: the exact outer fan, centred at
        # the other discontinuity (+eps if middle == left, -eps if right)
        left, right, p = outer
        middle, shift = (left, 0.1) if equal_to == "left" else (right, -0.1)
        d = PerturbedData(0.1, left, middle, right, p)
        tl = run_timeline(d)
        fan = solve(d.outer_data())
        assert [type(w) for w in fan.waves] == waves
        assert tl.events == []
        xs = np.linspace(-1.0, 5.0, 500)
        for t in (0.5, 1.0, 2.0):
            h, b = tl.profile(t, xs)
            assert_profile_is_sample_loop(tl, t, xs, h, b)
            he, be, _ = profile(fan, t, xs - shift)
            np.testing.assert_allclose(h, he, atol=1e-12)
            np.testing.assert_allclose(b, be, atol=1e-12)
            masses = [m for _, m in tl.point_masses(t)]
            assert masses == [w.strength_rate * t for w in fan.waves if isinstance(w, DeltaShock)]

    @pytest.mark.parametrize("d", [
        EX_PER_JS, EX_PER_JR, CASE2_SUB1, EX_PER_DS, CASE6, CASE7,
        PerturbedData(0.1, State(1.0, 1.0), State(1.3, 1.3), State(0.9, 0.8), P1),
    ], ids=["JS+JS", "JS+JR", "JS+JR-exit", "dS+JR", "JS+dS", "JR+dS", "JR+JS-generic"])
    def test_profile_is_sample_loop(self, d):
        tl = run_timeline(d, n_fan=16)
        xs = np.append(np.linspace(-2.0, 8.0, 701), [math.nan, math.inf, -math.inf])
        for t in (0.05, 0.3, 1.0, 4.0):
            h, b = tl.profile(t, xs)
            assert_profile_is_sample_loop(tl, t, xs, h, b)

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
    def test_profile_rejects_bad_time(self, t):
        with pytest.raises(InvalidDataError):
            run_timeline(EX_PER_JR).profile(t, np.linspace(-1.0, 1.0, 5))

    def test_outgoing_speeds_sorted_at_events(self):
        for d in (EX_PER_JS, CASE2_SUB1, CASE6, CASE7):
            tl = run_timeline(d)
            by_id = {f.id: f for f in tl.fronts}
            for e in tl.events:
                speeds = []
                for fid in e.outgoing:
                    f = by_id[fid]
                    t_probe = e.point[1] * 1.01
                    dt = e.point[1] * 0.01
                    speeds.append((f.position(t_probe) - f.position(e.point[1])) / dt)
                assert all(a <= b + 1e-9 for a, b in zip(speeds[:-1], speeds[1:]))

    def test_profile_converges_to_exact_long_time(self):
        # perturbed J+R example: by t=15 the exact outer fan dominates
        xs = np.linspace(-20.0, 40.0, 4000)
        exact = solve(EX_PER_JR.outer_data())
        he, be, _ = profile(exact, 15.0, xs)
        errs = []
        for eps in (0.1, 0.05):
            tl = run_timeline(replace(EX_PER_JR, epsilon=eps))
            h, b = tl.profile(15.0, xs)
            errs.append(float(np.sum(np.abs(h - he) + np.abs(b - be)) * (xs[1] - xs[0])))
        assert errs[1] < errs[0]
        assert errs[0] < 0.5

    def test_point_masses_reported(self):
        tl = run_timeline(CASE6)
        t = 1.0
        masses = tl.point_masses(t)
        assert len(masses) == 1
        x, beta = masses[0]
        ds3 = [f for f in tl.fronts if f.kind == "delta" and math.isinf(f.t_death)][0]
        assert x == ds3.position(t)
        assert beta == ds3.strength_of_t(t)

    def test_single_point_sample(self):
        tl = run_timeline(EX_PER_JS)
        t = 0.05  # before any event
        j1 = [f for f in tl.fronts if f.kind == "contact" and f.t_birth == 0.0][0]
        x_left = j1.position(t) - 0.1
        assert tl.sample(x_left, t) == EX_PER_JS.left
        assert tl.sample(50.0, t) == EX_PER_JS.right

    def test_generic_engine_serializes(self):
        d = PerturbedData(0.1, State(1.0, 1.0), State(1.3, 1.3), State(0.9, 0.8), P1)
        tl = run_timeline(d, n_fan=16)
        doc = timeline_to_json(tl)
        text = json.dumps(doc, sort_keys=True)
        assert json.dumps(json.loads(text), sort_keys=True) == text
        assert len(doc["fronts"]) == len(tl.fronts)


class TestEpsilonLimitReport:
    def test_case1_linear_rate(self):
        rows = epsilon_limit_report(EX_PER_JS, [0.1, 0.05, 0.025], t_eval=1.0)
        l1s = [r["l1"] for r in rows]
        assert l1s[0] > l1s[1] > l1s[2]
        for a, b in zip(l1s[:-1], l1s[1:]):
            assert 1.5 <= a / b <= 2.5

    def test_requires_decreasing_positive(self):
        with pytest.raises(InvalidDataError):
            epsilon_limit_report(EX_PER_JS, [0.1])
        with pytest.raises(InvalidDataError):
            epsilon_limit_report(EX_PER_JS, [0.05, 0.1])
        with pytest.raises(InvalidDataError):
            epsilon_limit_report(EX_PER_JS, [0.1, 0.0])

    def test_delta_rate_error_vanishes(self):
        rows = epsilon_limit_report(CASE6, [0.1, 0.05], t_eval=2.0)
        for r in rows:
            assert r["delta_rate_err"] <= 1e-12
        assert rows[1]["delta_strength_err"] < rows[0]["delta_strength_err"]


class TestSerialization:
    @pytest.mark.parametrize("data", [EX_PER_JS, EX_PER_JR, CASE6, CASE7])
    def test_json_reparse_identity(self, data):
        tl = run_timeline(data)
        doc = timeline_to_json(tl)
        text = json.dumps(doc, sort_keys=True)
        again = json.dumps(json.loads(text), sort_keys=True)
        assert text == again
        assert doc["case"] == tl.case_tag
