import json
import math

import numpy as np
import pytest

from thinfilm.core import Params, State, eigenvalues, phi
from thinfilm.errors import (
    InvalidDataError,
    InvalidShockError,
    NotADeltaError,
    RangeError,
    WrongCaseError,
)
from thinfilm.riemann import (
    CASE_COMPOSITE,
    CASE_DELTA,
    CASE_JR,
    CASE_JS,
    CASE_PURE_J,
    BumpTestFunction,
    CompositeJR,
    Contact,
    DeltaShock,
    Rarefaction,
    RiemannData,
    Shock,
    classify,
    contact_speed,
    delta_shock,
    fan_from_json,
    fan_to_json,
    generalized_rh_residual,
    intermediate_state,
    profile,
    rankine_hugoniot_residual,
    rarefaction_state,
    sample,
    shock_speed,
    solve,
    weak_residual,
)

P = Params(0.5, 1.0)
P_FILM = Params(0.5, 0.0, h_tol=1e-6)

EX_JR = RiemannData(State(1.24, 0.90), State(1.5, 1.56), P_FILM)
EX_JS = RiemannData(State(1.5, 1.6), State(1.25, 1.15), P_FILM)
EX_DELTA = RiemannData(State(2.9, 1.70), State(1e-7, 5.56), P_FILM)


def random_interior_data(n, seed=0, lo=0.1, hi=3.0):
    rng = np.random.RandomState(seed)
    out = []
    for _ in range(n):
        p = Params(*rng.uniform(0.1, 2.0, 2))
        out.append(
            RiemannData(State(*rng.uniform(lo, hi, 2)), State(*rng.uniform(lo, hi, 2)), p)
        )
    return out


class TestClassify:
    def test_paper_examples(self):
        assert classify(EX_JR) == CASE_JR
        assert classify(EX_JS) == CASE_JS
        assert classify(EX_DELTA) == CASE_DELTA

    def test_composite(self):
        assert classify(RiemannData(State(0.0, 1.0), State(1.5, 1.56), P)) == CASE_COMPOSITE

    def test_pure_contact_tie(self):
        # equal w1 = alpha*h*b with kappa = 0, different rays
        d = RiemannData(State(1.0, 2.0), State(2.0, 1.0), Params(0.5, 0.0))
        assert classify(d) == CASE_PURE_J

    def test_assumption_violation(self):
        with pytest.raises(InvalidDataError):
            classify(RiemannData(State(0.0, 1.0), State(0.0, 2.0), P))
        with pytest.raises(InvalidDataError):
            classify(RiemannData(State(1.0, 0.0), State(2.0, 0.0), P))


class TestIntermediateState:
    def test_same_ray_keeps_state(self):
        m = intermediate_state(RiemannData(State(1, 1), State(2, 2), P))
        np.testing.assert_allclose((m.h, m.b), (1.0, 1.0), rtol=1e-14)

    def test_closed_form_value(self):
        m = intermediate_state(RiemannData(State(2, 1), State(1, 1), P))
        np.testing.assert_allclose((m.h, m.b), (math.sqrt(2.8),) * 2, rtol=1e-14)

    def test_equal_data(self):
        m = intermediate_state(RiemannData(State(1.3, 0.7), State(1.3, 0.7), P))
        np.testing.assert_allclose((m.h, m.b), (1.3, 0.7), rtol=1e-14)

    def test_defining_equations(self):
        for d in random_interior_data(200, seed=1):
            m = intermediate_state(d)
            w1_res = phi(m, d.params) - phi(d.left, d.params)
            ray_res = m.b * d.right.h - m.h * d.right.b
            assert abs(w1_res) <= 1e-13 * max(1.0, phi(d.left, d.params))
            assert abs(ray_res) <= 1e-13 * max(1.0, abs(m.b * d.right.h))

    def test_boundary_data_rejected(self):
        with pytest.raises(WrongCaseError):
            intermediate_state(RiemannData(State(0.0, 1.0), State(1.0, 1.0), P))


class TestContactAndShock:
    def test_contact_speed_values(self):
        np.testing.assert_allclose(contact_speed(State(1, 1), P), 5.0 / 6.0, rtol=1e-15)
        np.testing.assert_allclose(
            contact_speed(State(1.24, 0.90), Params(0.5, 0.0)), 0.558, rtol=1e-14
        )

    def test_contact_preserves_w1(self):
        for d in random_interior_data(100, seed=2):
            m = intermediate_state(d)
            assert abs(phi(m, d.params) - phi(d.left, d.params)) <= 1e-12 * max(
                1.0, phi(d.left, d.params)
            )

    def test_shock_speed_value(self):
        m = State(math.sqrt(2.8), math.sqrt(2.8))
        sigma = shock_speed(m, State(1, 1), P)
        expected = (1 + math.sqrt(2.8)) * (0.5 + 1 / 3) + math.sqrt(2.8) * (
            0.5 * math.sqrt(2.8) + math.sqrt(2.8) / 3
        )
        np.testing.assert_allclose(sigma, expected, rtol=1e-14)
        np.testing.assert_allclose(sigma, 4.5611, rtol=1e-4)

    def test_degenerate_shock_is_characteristic(self):
        u = State(1.2, 0.9)
        assert abs(shock_speed(u, u, P) - eigenvalues(u, P)[1]) < 1e-14

    def test_rh_residual_on_random_ray_pairs(self):
        rng = np.random.RandomState(3)
        for _ in range(100):
            p = Params(*rng.uniform(0.1, 2.0, 2))
            w2 = rng.uniform(0.2, 2.0)
            hl, hr = sorted(rng.uniform(0.1, 3.0, 2), reverse=True)
            left, right = State(hl, w2 * hl), State(hr, w2 * hr)
            w = Shock(shock_speed(left, right, p), left, right)
            res = rankine_hugoniot_residual(w, p)
            assert np.max(np.abs(res)) <= 1e-12 * max(1.0, w.speed)

    def test_off_ray_pair_rejected(self):
        with pytest.raises(InvalidShockError):
            shock_speed(State(2.0, 1.0), State(1.0, 1.0), P)


class TestRarefaction:
    def test_fan_endpoints(self):
        d = RiemannData(State(1, 1), State(2, 2), P)
        m = intermediate_state(d)
        head = eigenvalues(d.right, P)[1]
        tail = eigenvalues(m, P)[1]
        u = rarefaction_state(head, d.right, P)
        np.testing.assert_allclose((u.h, u.b), (d.right.h, d.right.b), rtol=1e-14)
        u = rarefaction_state(tail, d.right, P)
        np.testing.assert_allclose((u.h, u.b), (m.h, m.b), rtol=1e-13)

    def test_self_similarity_identity(self):
        anchor = State(2.0, 2.0)
        head = eigenvalues(anchor, P)[1]
        for xi in np.linspace(0.0, head, 37):
            u = rarefaction_state(xi, anchor, P)
            assert abs(eigenvalues(u, P)[1] - xi) <= 1e-12 * max(1.0, xi)
            assert abs(u.b * anchor.h - u.h * anchor.b) < 1e-13

    def test_out_of_range(self):
        anchor = State(2.0, 2.0)
        with pytest.raises(RangeError):
            rarefaction_state(-0.5, anchor, P)
        with pytest.raises(RangeError):
            rarefaction_state(11.0, anchor, P)


class TestDeltaShock:
    def test_closed_form(self):
        w = delta_shock(RiemannData(State(2, 2), State(0, 1), P))
        np.testing.assert_allclose((w.speed, w.strength_rate), (10 / 3, 10 / 3), rtol=1e-15)
        res = generalized_rh_residual(w, P)
        assert max(abs(r) for r in res) == 0.0

    def test_paper_example(self):
        w = delta_shock(RiemannData(State(2.9, 1.70), State(0.0, 5.56), Params(0.5, 0.0)))
        np.testing.assert_allclose(w.speed, 2.465, rtol=1e-14)
        np.testing.assert_allclose(w.strength_rate, 5.56 * 2.465, rtol=1e-14)

    def test_zero_right_concentration(self):
        w = delta_shock(RiemannData(State(2, 2), State(0, 0), P))
        assert w.strength_rate == 0.0
        assert w.speed > 0.0

    def test_overcompressibility(self):
        rng = np.random.RandomState(4)
        for _ in range(100):
            p = Params(*rng.uniform(0.1, 2.0, 2))
            d = RiemannData(State(*rng.uniform(0.1, 3.0, 2)), State(0.0, rng.uniform(0.1, 3.0)), p)
            w = delta_shock(d)
            lam1_r = phi(d.right, p)
            lam1_l, lam2_l = eigenvalues(d.left, p)
            assert lam1_r == 0.0 < w.speed == lam1_l < lam2_l

    def test_degenerate_left_rejected(self):
        with pytest.raises(NotADeltaError):
            delta_shock(RiemannData(State(2.0, 0.0), State(0.0, 1.0), Params(1.0, 0.0)))


class TestSolve:
    def test_example_jr_structure(self):
        fan = solve(EX_JR)
        assert [type(w) for w in fan.waves] == [Contact, Rarefaction]
        assert abs(fan.waves[0].speed - 0.558) < 1e-15
        np.testing.assert_allclose(fan.waves[1].xi_hi, 3.51, rtol=1e-14)

    def test_equal_states_empty(self):
        fan = solve(RiemannData(State(1.1, 0.4), State(1.1, 0.4), P))
        assert fan.waves == ()

    def test_composite_starts_at_zero(self):
        fan = solve(RiemannData(State(0.0, 0.8), State(1.5, 1.56), P))
        assert [type(w) for w in fan.waves] == [CompositeJR]
        assert fan.waves[0].speed_range()[0] == 0.0

    def test_speeds_nondecreasing_and_states_chain(self):
        for d in random_interior_data(300, seed=5):
            fan = solve(d)
            prev_hi = -math.inf
            prev_state = d.left
            for w in fan.waves:
                lo, hi = w.speed_range()
                assert lo >= prev_hi - 1e-12
                assert w.left == prev_state
                prev_hi, prev_state = hi, w.right
            assert prev_state == d.right

    def test_lax_conditions_strict(self):
        for d in random_interior_data(300, seed=6):
            fan = solve(d)
            for w in fan.waves:
                if isinstance(w, Shock):
                    lam2_r = eigenvalues(w.right, d.params)[1]
                    lam1_l, lam2_l = eigenvalues(w.left, d.params)
                    assert lam2_r < w.speed < lam2_l
                    assert lam1_l < w.speed

    def test_w2_preserved_across_two_waves(self):
        for d in random_interior_data(100, seed=7):
            fan = solve(d)
            for w in fan.waves:
                if isinstance(w, (Shock, Rarefaction)):
                    assert (
                        abs(w.left.b * w.right.h - w.right.b * w.left.h)
                        <= 1e-12 * max(1.0, abs(w.left.b * w.right.h))
                    )

    def test_delta_limit_of_interior_solutions(self):
        # as h+ -> 0 the intermediate state and both speeds collapse onto
        # the singular front
        d0 = RiemannData(State(2.0, 1.5), State(0.0, 1.0), P)
        sigma = delta_shock(d0).speed
        prev_gap = math.inf
        for hp in (1e-2, 1e-3, 1e-4, 1e-5):
            d = RiemannData(State(2.0, 1.5), State(hp, 1.0), P)
            fan = solve(d)
            m = fan.intermediate
            mu1 = fan.waves[0].speed
            sig2 = fan.waves[1].speed
            gap = max(abs(mu1 - sigma), abs(sig2 - sigma), m.h)
            assert gap < prev_gap
            prev_gap = gap
        assert prev_gap < 1e-2


class TestSample:
    def test_outside_wave_span(self):
        fan = solve(EX_JS)
        assert sample(fan, -1.0).regular == EX_JS.left
        assert sample(fan, 99.0).regular == EX_JS.right

    def test_js_middle_state(self):
        fan = solve(EX_JS)
        mu = fan.waves[0].speed
        sig = fan.waves[1].speed
        assert sample(fan, 0.5 * (mu + sig)).regular == fan.intermediate

    def test_delta_ray_convention(self):
        fan = solve(RiemannData(State(2, 2), State(0, 1), P))
        w = fan.waves[0]
        v = sample(fan, w.speed)
        assert v.regular == w.right
        assert v.singular_weight == w.strength_rate
        assert sample(fan, w.speed - 1e-9).singular_weight == 0.0

    def test_self_similarity_of_profile(self):
        fan = solve(EX_JR)
        xs = np.linspace(-1.0, 4.0, 200)
        h1, b1, _ = profile(fan, 1.0, xs)
        h2, b2, _ = profile(fan, 2.0, 2.0 * xs)
        np.testing.assert_array_equal(h1, h2)
        np.testing.assert_array_equal(b1, b2)

    def test_composite_sampling(self):
        fan = solve(RiemannData(State(0.0, 0.8), State(1.5, 1.56), P))
        assert sample(fan, -0.1).regular == State(0.0, 0.8)
        head = fan.waves[0].xi_hi
        u = sample(fan, 0.5 * head).regular
        assert 0.0 < u.h < 1.5
        assert sample(fan, head + 0.1).regular == State(1.5, 1.56)


def random_fans_of_every_case(n, seed):
    """Seeded random fans: J+R, J+S, pure-J, composite and delta in turn."""
    rng = np.random.RandomState(seed)
    fans = []
    for i in range(n):
        a, k = [(0.5, 0.0), (0.5, 1.0), (1.3, 0.2), (0.0, 1.0)][i % 4]
        p = Params(a, k)
        case = (CASE_JR, CASE_JS, CASE_PURE_J, CASE_COMPOSITE, CASE_DELTA)[i % 5]
        left = State(*rng.uniform(0.2, 3.0, 2))
        if case == CASE_PURE_J:
            # the same w1 = phi on another ray: b solved at a lower h, or
            # (alpha = 0, phi independent of b) another b at the same h
            h = left.h * float(rng.uniform(0.3, 0.9))
            if a:
                right = State(h, (phi(left, p) - k * h * h / 3.0) / (a * h))
            else:
                right = State(left.h, 2.0 * left.b)
        elif case == CASE_COMPOSITE:
            left, right = State(0.0, left.b), State(*rng.uniform(0.2, 3.0, 2))
        elif case == CASE_DELTA:
            right = State(0.0, float(rng.uniform(0.2, 3.0)))
        else:
            right = State(*rng.uniform(0.2, 3.0, 2))
            if (phi(left, p) < phi(right, p)) != (case == CASE_JR):
                left, right = right, left
        d = RiemannData(left, right, p)
        assert classify(d) == case
        fans.append(solve(d))
    return fans


class TestArrayProfile:
    def test_equals_scalar_sample_bit_for_bit(self):
        specials = [0.0, -0.0, math.nan, math.inf, -math.inf]
        for fan in random_fans_of_every_case(60, seed=11):
            speeds = [s for w in fan.waves for s in w.speed_range()] or [0.0]
            rays = list(np.linspace(min(speeds) - 1.0, max(speeds) + 1.0, 101))
            for s in speeds:
                rays += [s, math.nextafter(s, -math.inf), math.nextafter(s, math.inf)]
            xs = np.array(rays + specials)
            h, b, deltas = profile(fan, 1.0, xs)
            ref = [sample(fan, x).regular for x in xs]
            np.testing.assert_array_equal(
                h.view(np.int64), np.array([u.h for u in ref]).view(np.int64)
            )
            np.testing.assert_array_equal(
                b.view(np.int64), np.array([u.b for u in ref]).view(np.int64)
            )
            assert deltas == [
                (w.speed * 1.0, w.strength_rate * 1.0)
                for w in fan.waves
                if isinstance(w, DeltaShock)
            ]

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
    def test_bad_time_rejected(self, t):
        with pytest.raises(InvalidDataError):
            profile(solve(EX_JR), t, np.linspace(-1.0, 1.0, 5))


class TestWeakResidual:
    def test_constant_solution(self):
        d = RiemannData(State(1.0, 1.0), State(1.0, 1.0), P)
        fan = solve(d)
        bump = BumpTestFunction(0.0, 1.0, 2.0, 0.8)
        r1, r2 = weak_residual(fan, bump, resolution=8)
        assert r1 < 1e-12 and r2 < 1e-12

    def test_js_fan(self):
        fan = solve(EX_JS)
        bump = BumpTestFunction(1.0, 0.8, 2.5, 0.6)
        res = [weak_residual(fan, bump, resolution=n) for n in (16, 32)]
        assert max(res[-1]) <= 1e-6

    def test_jr_fan_refines(self):
        fan = solve(EX_JR)
        bump = BumpTestFunction(1.5, 0.8, 3.0, 0.6)
        r1, r2 = weak_residual(fan, bump, resolution=32)
        assert max(r1, r2) <= 1e-6

    def test_delta_fan_with_negative_control(self):
        fan = solve(RiemannData(State(2.9, 1.70), State(0.0, 5.56), Params(0.5, 0.0)))
        sigma = fan.waves[0].speed
        bump = BumpTestFunction(sigma * 0.8, 0.8, 1.5, 0.6)
        r1, r2 = weak_residual(fan, bump, resolution=32)
        assert max(r1, r2) <= 1e-5
        _, r2_neg = weak_residual(fan, bump, resolution=32, include_singular=False)
        assert r2_neg >= 1e-2

    def test_composite_fan(self):
        # fan tail touching xi = 0; the profile behaves like sqrt(x) there
        fan = solve(RiemannData(State(0.0, 0.8), State(1.5, 1.56), P))
        bump = BumpTestFunction(1.0, 0.8, 2.0, 0.6)
        coarse = weak_residual(fan, bump, resolution=16)
        fine = weak_residual(fan, bump, resolution=32)
        assert max(fine) < max(coarse)
        assert max(fine) <= 1e-5


class TestSerialization:
    @pytest.mark.parametrize("data", [EX_JR, EX_JS, EX_DELTA])
    def test_round_trip(self, data):
        fan = solve(data)
        doc = fan_to_json(fan)
        text = json.dumps(doc)
        back = fan_from_json(json.loads(text))
        assert back == fan

    def test_composite_round_trip(self):
        fan = solve(RiemannData(State(0.0, 0.8), State(1.5, 1.56), P))
        assert fan_from_json(json.loads(json.dumps(fan_to_json(fan)))) == fan

    def test_unknown_wave_tag_rejected(self):
        doc = fan_to_json(solve(EX_JS))
        doc["waves"][0]["type"] = "kink"
        with pytest.raises(ValueError, match="unknown wave tag 'kink'"):
            fan_from_json(doc)
