import json
import math
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
    WrongCaseError,
)
from thinfilm.interactions import (
    CASE_NUMBER,
    ConstRegion,
    InteractionTimeline,
    PerturbedData,
    classify_case,
    interact_shock_contact,
    interact_shock_shock_chase,
    l1_distance,
    run_timeline,
    shock_overtakes_delta,
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

from cases import (
    DELTA, DS_JR_NEAR_VACUUM, FILM, GRAVITY, JR, JR_DS, JR_JR, JR_JS, JS, JS_DS, JS_JR, JS_JR_EXIT, JS_JS,
)


def curved_front(tl):
    """The one curved front of a timeline; its curve lives from t_birth to t_death."""
    [f] = [f for f in tl.fronts if f.curve is not None]
    return f


class TestClassifyCase:
    def test_paper_examples(self):
        assert classify_case(JS_JS) == "JS+JS"
        assert classify_case(JS_JR) == "JS+JR"
        assert classify_case(DS_JR_NEAR_VACUUM) == "dS+JR"
        assert CASE_NUMBER[classify_case(JS_JS)] == 1
        assert CASE_NUMBER[classify_case(DS_JR_NEAR_VACUUM)] == 5
        # the paper's numbering of the seven patterns
        tags = ["JS+JS", "JS+JR", "JR+JR", "JR+JS", "dS+JR", "JS+dS", "JR+dS"]
        assert CASE_NUMBER == {tag: n for n, tag in enumerate(tags, start=1)}

    def test_delta_cases(self):
        assert classify_case(JS_DS) == "JS+dS"
        assert classify_case(JR_DS) == "JR+dS"

    def test_two_deltas_unreachable(self):
        d = PerturbedData(0.1, State(1.0, 1.0), State(0.0, 1.0), State(0.0, 2.0), GRAVITY)
        with pytest.raises(UnreachableCaseError):
            classify_case(d)

    def test_left_boundary_unsupported(self):
        d = PerturbedData(0.1, State(0.0, 1.0), State(1.0, 1.0), State(2.0, 2.0), GRAVITY)
        with pytest.raises(UnsupportedCaseError):
            classify_case(d)


class TestGuards:
    @pytest.mark.parametrize("call, exc_type, message", [
        (lambda: replace(JS_JS, epsilon=0.0), InvalidDataError, "epsilon must be positive"),
        (lambda: replace(JS_JS, epsilon=-0.1), InvalidDataError, "epsilon must be positive"),
        (lambda: interact_shock_shock_chase(
            Shock(1.0, State(2, 2), State(1, 1)), Shock(2.0, State(1, 1), State(0.5, 0.5)),
            (0.0, 0.1), 0.1, GRAVITY,
        ), NoInteractionError, "trailing shock is not faster"),
        # the fan is entered at h = 1, above the chasing state's h = 0.5
        (lambda: shock_through_fan(
            (1.5, 1.0), Rarefaction(0.0, 0.0, State(0.1, 0.1), State(2, 2), State(2, 2)),
            State(0.5, 0.5), FILM, 0.0,
        ), WrongCaseError, "chasing state must outrun the fan tail"),
        (lambda: shock_overtakes_delta(
            Shock(1.0, State(2, 2), State(1, 1)), DeltaShock(2.0, 1.0, State(1, 1), State(0, 1)),
            JS_DS,
        ), NoInteractionError, "shock is not faster than the delta front"),
        (lambda: run_timeline(JS_DS, force_generic=True), UnsupportedCaseError,
         "generic engine cannot track singular fronts"),
    ], ids=["epsilon-zero", "epsilon-negative", "chase", "fan-entry", "delta-overtake",
            "generic-delta"])
    def test_raises(self, call, exc_type, message):
        with pytest.raises(exc_type) as exc:
            call()
        assert str(exc.value) == message


class TestShockContact:
    def test_printed_point(self):
        tl = run_timeline(JS_JS)
        j1w, s1w = solve(JS_JS.left_data()).waves
        j2w, _ = solve(JS_JS.right_data()).waves
        sigma1, mu2 = s1w.speed, j2w.speed
        eps = JS_JS.epsilon
        x1, t1 = tl.events[0].point
        np.testing.assert_allclose(x1, (sigma1 + mu2) * eps / (sigma1 - mu2), rtol=1e-14)
        np.testing.assert_allclose(t1, 2 * eps / (sigma1 - mu2), rtol=1e-14)
        # the defining line equations
        np.testing.assert_allclose(x1 + eps, sigma1 * t1, rtol=1e-14)
        np.testing.assert_allclose(x1 - eps, mu2 * t1, rtol=1e-14)

    def test_epsilon_homogeneity(self):
        tl1 = run_timeline(JS_JS)
        tl2 = run_timeline(replace(JS_JS, epsilon=0.2))
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
        d = JS_JS
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
            interact_shock_contact(s, j, 0.1, GRAVITY)


class TestShockShockChase:
    def test_final_fan_matches_exact(self):
        tl = run_timeline(JS_JS)
        exact = solve(JS_JS.outer_data())
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
        tl = run_timeline(JS_JS)
        (x1, t1), (x2, t2) = tl.events[0].point, tl.events[1].point
        s3 = [f for f in tl.fronts if f.kind == "shock" and f.t_birth == t1][0]
        s2 = [f for f in tl.fronts if f.kind == "shock" and f.t_birth == 0.0 and f.x_birth > 0][0]
        eps = JS_JS.epsilon
        np.testing.assert_allclose(t2, (x1 - eps - s3.speed * t1) / (s2.speed - s3.speed), rtol=1e-13)
        np.testing.assert_allclose(x2 - x1, s3.speed * (t2 - t1), rtol=1e-12)
        np.testing.assert_allclose(x2 - eps, s2.speed * t2, rtol=1e-12)

    def test_zero_strength_first_problem(self):
        d = replace(JS_JS, middle=JS_JS.left)
        tl = run_timeline(d)
        assert tl.events == []
        assert tl.case_tag == "degenerate"


class TestMiddleOnRightRay:
    """Middle states on the right state's ray: the right problem has no
    contact, so the left shock meets its lone shock or fan directly."""

    @pytest.mark.parametrize("middle, tag, lone, kinds", [
        ((1.6, 1.472), "JS+JS", Shock, ["contact", "shock", "shock", "shock"]),
        ((1.0, 0.92), "JS+JR", Rarefaction,
         ["contact", "shock", "fan-tail", "fan-head", "curved-shock", "shock"]),
    ])
    def test_no_contact_to_absorb(self, middle, tag, lone, kinds):
        d = replace(JS_JS, middle=State(*middle))
        assert [type(w) for w in solve(d.right_data()).waves] == [lone]
        tl = run_timeline(d)
        assert tl.case_tag == tag
        assert [f.kind for f in tl.fronts] == kinds
        assert tl.final_fan == solve(d.outer_data())
        if tag == "JS+JS":
            [event] = tl.events
            [generic] = run_timeline(d, force_generic=True).events
            np.testing.assert_allclose(event.point, generic.point, rtol=1e-12)


class TestShockThroughFan:
    def test_entry_time_law(self):
        tl = run_timeline(JS_JR)
        cf = curved_front(tl)
        h2 = cf.curve.state_of_t(cf.t_birth).h
        fanw = [w for w in solve(JS_JR.right_data()).waves if isinstance(w, Rarefaction)][0]
        np.testing.assert_allclose(h2, fanw.left.h, rtol=1e-10)

    def test_time_law_pole_at_left_state(self):
        tl = run_timeline(JS_JR)
        cf = curved_front(tl)
        curve = cf.curve
        h3 = [f for f in tl.fronts if f.kind == "contact" and f.t_birth > 0][0].right_region.state.h
        assert cf.t_death == math.inf
        assert curve.state_of_t(1e9).h < h3
        assert curve.state_of_t(1e9).h > curve.state_of_t(10.0).h

    def test_monotone_h_and_convexity(self):
        tl = run_timeline(JS_JR_EXIT)
        cf = curved_front(tl)
        curve = cf.curve
        ts = np.linspace(cf.t_birth * 1.001, cf.t_death * 0.999, 25)
        hs = [curve.state_of_t(t).h for t in ts]
        assert all(a < b for a, b in zip(hs[:-1], hs[1:]))
        xs = np.array([curve.x_of_t(t) for t in ts])
        d2 = np.diff(xs, 2)
        assert np.all(d2 > 0.0)  # shock accelerates through the fan

    def test_exit_against_ode_oracle(self):
        tl = run_timeline(JS_JR_EXIT)
        cf = curved_front(tl)
        curve = cf.curve
        assert math.isfinite(cf.t_death)
        p = JS_JR_EXIT.params
        eps = JS_JR_EXIT.epsilon
        chasing = [f for f in tl.fronts if f.kind == "contact" and f.t_birth > 0][0].right_region.state
        anchor = JS_JR_EXIT.right
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
        t2 = cf.t_birth
        sol = solve_ivp(
            rhs, (t2, cf.t_death * 10), [curve.x_of_t(t2)],
            events=hit_head, rtol=1e-11, atol=1e-12, dense_output=True,
        )
        t3_ode = sol.t_events[0][0]
        np.testing.assert_allclose(cf.t_death, t3_ode, rtol=1e-8)

    def test_final_fan_after_exit(self):
        tl = run_timeline(JS_JR_EXIT)
        exact = solve(JS_JR_EXIT.outer_data())
        assert not tl.asymptotic
        survivors = [f for f in tl.fronts if math.isinf(f.t_death)]
        s4 = [f for f in survivors if f.kind == "shock"][0]
        np.testing.assert_allclose(s4.speed, exact.waves[-1].speed, rtol=1e-12)

    @staticmethod
    def penetration_draws(n, seed, h_left_range):
        """(curve, h_left, h_head, t_e, t) with h_entry/h_left in
        [1e-3, 0.999], entry time t_e and t from t_e to 1e6 times it."""
        rng = np.random.RandomState(seed)
        out = []
        for i in range(n):
            p = (FILM, GRAVITY)[i % 2]
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
            out.append((curve, h_left, h_head, t_e, t_e * float(10 ** rng.uniform(0, 6))))
        return out

    def test_penetration_root_against_brentq(self):
        # brentq's own error is up to xtol + rtol*h, so thicknesses stay O(1)
        def g(h_left, h):
            return (h_left - h) ** 2 * (h_left + 2.0 * h)

        for curve, h_left, h_head, t_e, t in self.penetration_draws(400, 5, (0.2, 2.0)):
            h_entry = curve.state_of_t(t_e).h
            target = t_e * g(h_left, h_entry) / t
            hi = min(h_left, h_head)
            ref = hi if target <= g(h_left, hi) else brentq(
                lambda hh: g(h_left, hh) - target, h_entry, hi, xtol=1e-14, rtol=1e-14
            )
            assert abs(curve.state_of_t(t).h - ref) <= 1e-14

    def test_penetration_root_against_50_digits(self):
        import mpmath  # ships with sympy

        for curve, h_left, h_head, t_e, t in self.penetration_draws(400, 6, (0.01, 10.0)):
            h = curve.state_of_t(t).h
            if h == min(h_left, h_head):
                continue  # past the exit: the clamp, not the root
            h_entry = curve.state_of_t(t_e).h
            target = t_e * (h_left - h_entry) ** 2 * (h_left + 2.0 * h_entry) / t
            with mpmath.workdps(50):
                hl, g = mpmath.mpf(h_left), mpmath.mpf(target)
                root = mpmath.findroot(lambda hh: (hl - hh) ** 2 * (hl + 2 * hh) - g, mpmath.mpf(h))
            assert abs(h - float(root)) <= 1e-15 * max(1.0, h_left)


class TestDeltaContactSplit:
    def test_printed_point_and_strength(self):
        d = DS_JR_NEAR_VACUUM
        tl = run_timeline(d)
        split, dj = tl.events[0], tl.residual_delta_contact
        p = d.params
        t1_expect = 6 * d.epsilon / (3 * p.alpha * d.left.h * d.left.b + p.kappa * d.left.h**2)
        np.testing.assert_allclose(split.point, (d.epsilon, t1_expect), rtol=1e-14)
        np.testing.assert_allclose(split.delta_strength, 2 * d.middle.b * d.epsilon, rtol=1e-14)
        assert dj.kind == "delta-contact"
        np.testing.assert_allclose(dj.speed, phi(d.left, p), rtol=1e-14)
        np.testing.assert_allclose(dj.strength_of_t(5.0), 2 * d.middle.b * d.epsilon, rtol=1e-14)

    def test_epsilon_limit(self):
        rows = []
        for eps in (0.1, 0.05, 0.025):
            tl = run_timeline(replace(DS_JR_NEAR_VACUUM, epsilon=eps))
            dj = tl.residual_delta_contact
            rows.append((tl.max_event_time, dj.strength_of_t(dj.t_birth)))
        times = [r[0] for r in rows]
        strengths = [r[1] for r in rows]
        assert times[0] > times[1] > times[2]
        np.testing.assert_allclose(strengths, [2 * 5.5 * e for e in (0.1, 0.05, 0.025)], rtol=1e-12)

    @pytest.mark.parametrize("eps", [0.1, 0.05, 0.025])
    @pytest.mark.parametrize("left", [JR.left, DELTA.left])
    def test_split_matches_timeline(self, eps, left):
        # the split event, the frozen front and the curve agree with each
        # other and with the closed-form split
        d = replace(DS_JR_NEAR_VACUUM, epsilon=eps, left=left)
        tl = run_timeline(d)
        split = tl.events[0]
        sigma1 = phi(left, d.params)
        assert split.point == (eps, 2.0 * eps / sigma1)
        assert split.delta_strength == 2.0 * d.middle.b * eps
        by_id = {fr.id: fr for fr in tl.fronts}
        assert [by_id[i].kind for i in split.incoming] == ["delta", "contact"]
        assert [by_id[i].kind for i in split.outgoing] == ["delta-contact", "curved-shock"]
        frozen, cfront = (by_id[i] for i in split.outgoing)
        assert tl.residual_delta_contact is frozen
        assert (frozen.speed, frozen.strength_of_t(10.0)) == (sigma1, split.delta_strength)
        assert frozen.right_region == ConstRegion(solve(d.outer_data()).intermediate)
        t = 2.0 * split.point[1]
        assert tl.sample(frozen.position(t) - 1e-9, t) == left
        assert curved_front(tl) is cfront
        assert cfront.t_birth == split.point[1]
        assert cfront.curve.x_of_t(split.point[1]) == split.point[0]

    def test_subcase1_completes(self):
        # left w1 above right w1: the split shock crosses the whole fan
        d = replace(DS_JR_NEAR_VACUUM, left=DELTA.left)
        tl = run_timeline(d)
        assert not tl.asymptotic
        assert len(tl.events) == 2
        exact = solve(d.outer_data())
        s4 = [f for f in tl.fronts if f.kind == "shock" and math.isinf(f.t_death)][0]
        np.testing.assert_allclose(s4.speed, exact.waves[-1].speed, rtol=1e-12)


class TestShockOvertakesDelta:
    def test_event_and_strength(self):
        d = JS_DS
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
        tl = run_timeline(JS_DS)
        t1 = tl.events[0].point[1]
        old = [f for f in tl.fronts if f.kind == "delta" and f.t_birth == 0.0][0]
        new = [f for f in tl.fronts if f.kind == "delta" and f.t_birth == t1][0]
        np.testing.assert_allclose(old.strength_of_t(t1), new.strength_of_t(t1), rtol=1e-13)
        j1 = [f for f in tl.fronts if f.kind == "contact"][0]
        np.testing.assert_allclose(new.speed, j1.speed, rtol=1e-14)
        assert new.position(t1) > j1.position(t1)

    def test_epsilon_zero_recovers_riemann_rate(self):
        exact_rate = solve(JS_DS.outer_data()).waves[0].strength_rate
        for eps in (0.1, 0.01):
            tl = run_timeline(replace(JS_DS, epsilon=eps))
            ds3 = [f for f in tl.fronts if f.kind == "delta" and math.isinf(f.t_death)][0]
            rate = ds3.strength_of_t(5.0) - ds3.strength_of_t(4.0)
            np.testing.assert_allclose(rate, exact_rate, rtol=1e-12)
            # the affine offset vanishes linearly in epsilon
            offset = ds3.strength_of_t(5.0) - exact_rate * 5.0
            assert abs(offset) <= 2.0 * eps * exact_rate

    def test_final_state_sequence_matches_exact(self):
        # terminating singular cascades reproduce the outer Riemann fan
        for d in (JS_DS, JR_DS):
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
        # middle == left here would be degenerate; shift middle up the ray
        d = PerturbedData(0.3, State(1.0, 1.0), State(1.2, 1.2), State(0.0, 2.0), GRAVITY)
        tl = run_timeline(d)
        p = d.params
        lam2m = 3 * p.alpha * d.middle.h * d.middle.b + p.kappa * d.middle.h**2
        np.testing.assert_allclose(tl.events[0].point, (2 * d.epsilon, 3 * d.epsilon / lam2m), rtol=1e-13)
        np.testing.assert_allclose(tl.events[0].delta_strength, d.right.b * d.epsilon, rtol=1e-13)

    def test_cube_root_ode(self):
        tl = run_timeline(JR_DS)
        cf = curved_front(tl)
        curve = cf.curve
        eps = JR_DS.epsilon
        for t in np.linspace(cf.t_birth * 1.01, cf.t_death * 0.99, 9):
            x = curve.x_of_t(t)
            # analytic derivative of A t^(1/3) - eps is (x + eps)/(3 t)
            A = (x + eps) / t ** (1.0 / 3.0)
            dxdt = A / (3.0 * t ** (2.0 / 3.0))
            np.testing.assert_allclose(dxdt, (x + eps) / (3.0 * t), rtol=1e-10)

    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.07])
    def test_curve_starts_at_the_entry_event(self, eps):
        # x + eps = 3 eps (t/t1)^(1/3) and the strength written through t/t1
        # give the entry point (2 eps, t1) and strength in the same bits
        tl = run_timeline(replace(JR_DS, epsilon=eps))
        cf = curved_front(tl)
        entry = tl.events[0]
        assert cf.t_birth == entry.point[1]
        assert (cf.curve.x_of_t(cf.t_birth), cf.t_birth) == entry.point == (2.0 * eps, entry.point[1])
        assert cf.strength_of_t(cf.t_birth) == entry.delta_strength

    def test_concave_and_monotone_h_down(self):
        tl = run_timeline(JR_DS)
        cf = curved_front(tl)
        curve = cf.curve
        ts = np.linspace(cf.t_birth * 1.001, cf.t_death * 0.999, 25)
        xs = np.array([curve.x_of_t(t) for t in ts])
        assert np.all(np.diff(xs, 2) < 0.0)  # singular front decelerates
        # the fan is consumed from its head (h = h_m) toward its tail,
        # so the fan-side h falls along the curve
        hs = [curve.state_of_t(t).h for t in ts]
        assert all(a > b for a, b in zip(hs[:-1], hs[1:]))
        np.testing.assert_allclose(hs[0], JR_DS.middle.h, rtol=1e-2)

    def test_beta_continuity_both_events(self):
        tl = run_timeline(JR_DS)
        t1 = tl.events[0].point[1]
        t2 = tl.events[1].point[1]
        ds2 = [f for f in tl.fronts if f.kind == "delta" and f.t_birth == 0.0][0]
        curved = [f for f in tl.fronts if f.kind == "curved-delta"][0]
        ds4 = [f for f in tl.fronts if f.kind == "delta" and f.t_birth == t2][0]
        np.testing.assert_allclose(ds2.strength_of_t(t1), curved.strength_of_t(t1), rtol=1e-13)
        np.testing.assert_allclose(curved.strength_of_t(t2), ds4.strength_of_t(t2), rtol=1e-13)

    def test_epsilon_zero_strength_limit(self):
        exact = solve(JR_DS.outer_data()).waves[0]
        t_probe = 2.0
        for eps in (0.1, 0.05, 0.025):
            tl = run_timeline(replace(JR_DS, epsilon=eps))
            ds4 = [f for f in tl.fronts if f.kind == "delta" and math.isinf(f.t_death)][0]
            err = abs(ds4.strength_of_t(t_probe) - exact.strength_rate * t_probe)
            assert err <= 3.0 * eps * exact.strength_rate


@pytest.mark.parametrize("d, n_curves", [
    (JS_JR, 1), (JS_JR_EXIT, 1), (DS_JR_NEAR_VACUUM, 1), (JR_DS, 1),
    (JS_JS, 0), (JS_DS, 0),
], ids=["JS+JR-asymptotic", "JS+JR-exit", "dS+JR", "JR+dS", "JS+JS", "JS+dS"])
def test_curves_are_the_curved_fronts(d, n_curves):
    # a curved front holds its curve from the event that emits it to the
    # event that absorbs it (forever if none does)
    tl = run_timeline(d)
    curved = [f for f in tl.fronts if f.curve is not None]
    assert len(curved) == n_curves
    for f in curved:
        assert f.kind.startswith("curved-")
        [born] = [e.point for e in tl.events if f.id in e.outgoing]
        died = [e.point for e in tl.events if f.id in e.incoming]
        assert (f.x_birth, f.t_birth) == born
        assert f.t_death == (died[0][1] if died else math.inf)
        assert f.position(f.t_birth) == f.curve.x_of_t(f.t_birth)


class TestGenericEngine:
    def test_matches_closed_form_case1(self):
        tl_cf = run_timeline(JS_JS)
        tl_ge = run_timeline(JS_JS, force_generic=True, n_fan=64)
        assert len(tl_ge.events) == len(tl_cf.events)
        for a, b in zip(tl_cf.events, tl_ge.events):
            np.testing.assert_allclose(a.point, b.point, rtol=1e-12)

    def test_jr_js_cascade_terminates(self):
        assert classify_case(JR_JS) == "JR+JS"
        tl = run_timeline(JR_JS, n_fan=24)
        assert len(tl.events) > 0
        # late profile approximates the exact outer solution
        assert l1_distance(tl, solve(JR_JS.outer_data()), 8.0) < 0.5

    def test_jr_jr_runs(self):
        d = JR_JR
        assert classify_case(d) == "JR+JR"
        tl = run_timeline(d, n_fan=64)
        assert tl.case_tag == "JR+JR"
        assert len(tl.events) > 0
        for e in tl.events:
            assert e.point[1] > 0.0
        # late profile approximates the exact outer fan (same bound as JR+JS)
        assert l1_distance(tl, solve(d.outer_data()), 8.0) < 0.5

    def test_budget_exhaustion(self):
        with pytest.raises(EventBudgetError):
            run_timeline(JR_JS, n_fan=48, budget=3)


def reference_generic_timeline(
    d: PerturbedData, tag: str, n_fan: int, budget: float, t_max: float
) -> InteractionTimeline:
    """The discretized-fan engine before its event queue, kept as a
    test-only oracle with the engine's relative closeness tests: every event
    re-sorts all live fronts, rescans every adjacent pair for the earliest
    (t*, x*) and scans all live fronts for the group at that point."""
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
    while True:
        live = [f for f in bld.fronts if f.t_death == math.inf]
        live.sort(key=lambda f: (f.position(max(t_now, f.t_birth)), f.speed))
        best = None
        for a, b in zip(live[:-1], live[1:]):
            if a.speed - b.speed <= 1e-12 * max(abs(a.speed), abs(b.speed)):
                continue
            t_star = (
                b.x_birth - b.speed * b.t_birth - a.x_birth + a.speed * a.t_birth
            ) / (a.speed - b.speed)
            if t_star - max(a.t_birth, b.t_birth) <= 1e-12 * t_star:
                continue
            x_star = a.position(t_star)
            if best is None or (t_star, x_star) < best:
                best = (t_star, x_star)
        if best is None or best[0] > t_max:
            break
        t_star, x_star = best
        group = [f for f in live if abs(f.position(t_star) - x_star) <= 1e-9 * max(abs(x_star), eps)]
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
        assert len(assert_same_as_reference(JR_JS, n_fan=512).events) == 1294
        assert len(assert_same_as_reference(JR_JS, n_fan=64, budget=165).events) == 165
        assert assert_same_as_reference(JR_JS, n_fan=64, budget=164) is None

    def test_converges_to_curved_shock_at_first_order(self):
        # JS+JR while the shock is inside the fan (from t = 0.146 to 0.184):
        # the closed-form curved shock is the oracle of the discretized fan
        exact = run_timeline(JS_JR_EXIT)
        l1 = [l1_distance(run_timeline(JS_JR_EXIT, force_generic=True, n_fan=n), exact, 0.16)
              for n in (16, 64, 256, 1024)]
        for coarse, fine in zip(l1[:-1], l1[1:]):
            assert 0.95 <= math.log(coarse / fine, 4.0) <= 1.05


def assert_profile_is_sample_loop(tl, t, xs, h, b):
    ref = [tl.sample(x, t) for x in xs]
    np.testing.assert_array_equal(h.view(np.int64), np.array([u.h for u in ref]).view(np.int64))
    np.testing.assert_array_equal(b.view(np.int64), np.array([u.b for u in ref]).view(np.int64))


@pytest.mark.parametrize("delta", [1e-12, 1e-11, 3e-11])
@pytest.mark.parametrize("outer", ["left", "right"])
@pytest.mark.parametrize("d", [JS_JS, JS_JR, JR_JS, JR_JR], ids=["JS+JS", "JS+JR", "JR+JS", "JR+JR"])
def test_near_degenerate_data_stay_degenerate(d, outer, delta):
    # a middle state an outer one scaled by (1 + delta, 1 - delta): at riemann's
    # tie tolerance 1e-13 half of these start a micro-interaction and half
    # raise UnsupportedCaseError; run_timeline's relative 1e-10 keeps all degenerate
    u = getattr(d, outer)
    tl = run_timeline(replace(d, middle=State(u.h * (1.0 + delta), u.b * (1.0 - delta))))
    assert tl.case_tag == "degenerate"
    assert tl.events == []


class TestTimelineSampling:
    def test_trivial_middle_equals_left(self):
        d = replace(JS_JR, middle=JS_JR.left)
        tl = run_timeline(d)
        assert tl.events == []
        xs = np.linspace(-1.0, 5.0, 500)
        h, b = tl.profile(1.0, xs)
        he, be, _ = profile(solve(d.outer_data()), 1.0, xs - d.epsilon)
        np.testing.assert_allclose(h, he, atol=1e-12)
        np.testing.assert_allclose(b, be, atol=1e-12)

    @pytest.mark.parametrize("outer, waves", [
        ((JS.left, JS.right, FILM), [Contact, Shock]),
        ((JR.left, JR.right, FILM), [Contact, Rarefaction]),
        ((JS_DS.left, JS_DS.right, GRAVITY), [DeltaShock]),
        ((State(1e-6, 5.5), JR.right, DS_JR_NEAR_VACUUM.params), [CompositeJR]),
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
        JS_JS, JS_JR, JS_JR_EXIT, DS_JR_NEAR_VACUUM, JS_DS, JR_DS,
        JR_JS,
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
            run_timeline(JS_JR).profile(t, np.linspace(-1.0, 1.0, 5))

    def test_outgoing_speeds_sorted_at_events(self):
        for d in (JS_JS, JS_JR_EXIT, JS_DS, JR_DS):
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
        exact = solve(JS_JR.outer_data())
        errs = [l1_distance(run_timeline(replace(JS_JR, epsilon=e)), exact, 15.0) for e in (0.1, 0.05)]
        assert errs[1] < errs[0]
        assert errs[0] < 0.5

    def test_point_masses_reported(self):
        tl = run_timeline(JS_DS)
        t = 1.0
        masses = tl.point_masses(t)
        assert len(masses) == 1
        x, beta = masses[0]
        ds3 = [f for f in tl.fronts if f.kind == "delta" and math.isinf(f.t_death)][0]
        assert x == ds3.position(t)
        assert beta == ds3.strength_of_t(t)

    def test_single_point_sample(self):
        tl = run_timeline(JS_JS)
        t = 0.05  # before any event
        j1 = [f for f in tl.fronts if f.kind == "contact" and f.t_birth == 0.0][0]
        x_left = j1.position(t) - 0.1
        assert tl.sample(x_left, t) == JS_JS.left
        assert tl.sample(50.0, t) == JS_JS.right

    def test_generic_engine_serializes(self):
        tl = run_timeline(JR_JS, n_fan=16)
        doc = timeline_to_json(tl)
        text = json.dumps(doc, sort_keys=True)
        assert json.dumps(json.loads(text), sort_keys=True) == text
        assert len(doc["fronts"]) == len(tl.fronts)


class TestL1Distance:
    @pytest.mark.parametrize("d, t", [
        (JS_JS, 1.0), (JS_JR, 2.0), (JS_JR_EXIT, 0.16), (DS_JR_NEAR_VACUUM, 1.0), (JS_DS, 1.0),
        (JR_DS, 0.12), (JR_JS, 8.0),
    ], ids=["JS+JS", "JS+JR", "JS+JR-exit", "dS+JR", "JS+dS", "JR+dS", "JR+JS-generic"])
    def test_matches_sampled_sum(self, d, t):
        # a Riemann sum of an integrand that vanishes at both ends errs by
        # at most the integrand's total variation times the spacing
        tl = run_timeline(d, n_fan=24)
        xs = np.linspace(-2.0, 40.0, 2000001)
        h, b = tl.profile(t, xs)
        he, be, _ = profile(tl.final_fan, t, xs)
        g, dx = np.abs(h - he) + np.abs(b - be), xs[1] - xs[0]
        assert abs(l1_distance(tl, tl.final_fan, t) - np.sum(g) * dx) <= np.sum(np.abs(np.diff(g))) * dx

    def test_symmetric_and_zero_on_identical(self):
        tl, gen = run_timeline(JS_JR_EXIT), run_timeline(JS_JR_EXIT, force_generic=True, n_fan=16)
        fan_p1 = solve(replace(JS_JR_EXIT.outer_data(), params=GRAVITY))
        for a, b in ((tl, tl.final_fan), (tl, gen), (tl.final_fan, fan_p1)):
            assert l1_distance(a, b, 0.16) == l1_distance(b, a, 0.16) > 0.0
            assert l1_distance(a, a, 0.16) == 0.0

    def test_rejects_bad_time_and_other_outer_states(self):
        tl = run_timeline(JS_JR)
        for t in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(InvalidDataError, match="finite and positive"):
                l1_distance(tl, tl.final_fan, t)
        with pytest.raises(InvalidDataError, match="outer states"):
            l1_distance(tl, solve(JS_JS.outer_data()), 1.0)


class TestSerialization:
    @pytest.mark.parametrize("data", [JS_JS, JS_JR, JS_DS, JR_DS])
    def test_json_reparse_identity(self, data):
        tl = run_timeline(data)
        doc = timeline_to_json(tl)
        text = json.dumps(doc, sort_keys=True)
        again = json.dumps(json.loads(text), sort_keys=True)
        assert text == again
        assert doc["case"] == tl.case_tag
