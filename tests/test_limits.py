import math
from dataclasses import replace

import numpy as np
import pytest

from thinfilm.core import Params, State
from thinfilm.errors import InvalidDataError
from thinfilm.limits import (
    LimitStudy,
    bump_catalog,
    convergence_table,
    limit_target,
    study_params,
    weak_pairing,
)
from thinfilm.riemann import (
    Contact,
    Rarefaction,
    RiemannData,
    intermediate_state,
    solve,
)

from cases import DELTA, GRAVITY, JR

KAPPAS = (1.0, 0.5, 0.1, 0.01, 0.001)


class TestStudyValidation:
    def test_rejects_bad_direction(self):
        d = replace(JR, params=GRAVITY)
        with pytest.raises(InvalidDataError):
            LimitStudy("kappa", (0.1, 0.5), d)
        with pytest.raises(InvalidDataError):
            LimitStudy("kappa", (0.1, -0.5), d)
        with pytest.raises(ValueError):
            LimitStudy("beta", (1.0, 0.5), d)

    def test_study_params(self):
        d = replace(JR, params=GRAVITY)
        s = LimitStudy("kappa", KAPPAS, d)
        assert study_params(s, 0.1) == Params(0.5, 0.1)
        s = LimitStudy("alpha", KAPPAS, d)
        assert study_params(s, 0.1) == Params(0.1, 1.0)
        # the other coefficient and h_tol come from the data
        s = LimitStudy("kappa", KAPPAS, replace(JR, params=Params(0.3, 1.0, h_tol=1e-6)))
        assert study_params(s, 0.1) == Params(0.3, 0.1, h_tol=1e-6)


class TestLimitTarget:
    def test_rejects_other_fields(self):
        # h_tol is a Params field too, but not a coefficient to send to 0
        with pytest.raises(ValueError):
            limit_target(replace(JR, params=GRAVITY), "h_tol")

    def test_vanishing_gravity_closed_forms(self):
        d = replace(JR, params=Params(0.5, 0.73))
        fan = limit_target(d, "kappa")
        hl, bl = 1.24, 0.90
        hr, br = 1.5, 1.56
        contact = fan.waves[0]
        np.testing.assert_allclose(contact.speed, hl * bl / 2.0, rtol=1e-14)
        r = fan.waves[1]
        np.testing.assert_allclose(r.xi_hi, 3.0 * hr * br / 2.0, rtol=1e-14)
        m = fan.intermediate
        np.testing.assert_allclose(m.h, math.sqrt(hl * hr * bl / br), rtol=1e-14)
        np.testing.assert_allclose(m.b, math.sqrt(hl * bl * br / hr), rtol=1e-14)

    def test_vanishing_gravity_delta(self):
        d = replace(DELTA, params=GRAVITY)
        fan = limit_target(d, "kappa")
        w = fan.waves[0]
        np.testing.assert_allclose(w.speed, 2.9 * 1.70 / 2.0, rtol=1e-14)
        np.testing.assert_allclose(w.strength_rate, 5.56 * 2.9 * 1.70 / 2.0, rtol=1e-14)

    def test_vanishing_surface_tension_decouples(self):
        d = RiemannData(State(1.2, 0.7), State(0.9, 1.4), Params(0.5, 1.0))
        fan = limit_target(d, "alpha")
        p0 = Params(0.0, 1.0)
        # contact keeps h (w1 depends on h only when alpha = 0)
        contact = [w for w in fan.waves if isinstance(w, Contact)][0]
        np.testing.assert_allclose(contact.right.h, contact.left.h, rtol=1e-14)
        # fan rays obey x/t = kappa*h^2
        r = [w for w in fan.waves if isinstance(w, Rarefaction)]
        if r:
            for xi in np.linspace(r[0].xi_lo, r[0].xi_hi, 7):
                from thinfilm.riemann import rarefaction_state

                u = rarefaction_state(xi, r[0].anchor, p0)
                np.testing.assert_allclose(p0.kappa * u.h**2, xi, rtol=1e-12, atol=1e-14)


class TestConvergenceTable:
    def test_classical_column_monotone(self):
        d = replace(JR, params=GRAVITY)
        study = LimitStudy("kappa", KAPPAS, d)
        rows = convergence_table(study)
        l1 = [r["l1"] for r in rows]
        assert all(a > b for a, b in zip(l1[:-1], l1[1:]))
        assert all(r["case"] == "J+R" for r in rows)

    def test_delta_affine_identities(self):
        d = replace(DELTA, params=GRAVITY)
        study = LimitStudy("kappa", KAPPAS, d)
        rows = convergence_table(study)
        for r in rows:
            expected = r["value"] * 2.9**2 / 3.0
            assert abs(r["dsigma"] - expected) <= 1e-14 * max(1.0, expected)
            np.testing.assert_allclose(r["dbeta_rate"], 5.56 * expected, rtol=1e-12)

    def test_alpha_study_affine_identity(self):
        d = replace(DELTA, params=GRAVITY)
        study = LimitStudy("alpha", (1.0, 0.1, 0.01), d)
        rows = convergence_table(study)
        for r in rows:
            expected = r["value"] * 2.9 * 1.70
            assert abs(r["dsigma"] - expected) <= 1e-14 * max(1.0, expected)

    def test_weak_pairings_decrease(self):
        d = replace(DELTA, params=GRAVITY)
        study = LimitStudy("kappa", (1.0, 0.1, 0.01), d)
        rows = convergence_table(study)
        pair_seq = [r["weak_pairings"] for r in rows]
        for i in range(3):
            vals = [p[i] for p in pair_seq]
            assert all(a >= b - 1e-12 for a, b in zip(vals[:-1], vals[1:]))
        # the pairing decays at least linearly in kappa for the
        # straddling bump
        straddle = [p[0] for p in pair_seq]
        assert straddle[1] <= straddle[0] * 0.2
        assert straddle[2] <= straddle[1] * 0.2


class TestWeakPairing:
    def test_identical_fans_pair_to_zero(self):
        d = replace(DELTA, params=GRAVITY)
        fan = solve(d)
        bump = bump_catalog(fan.waves[0].speed)[0]
        ph, pb = weak_pairing(fan, fan, bump)
        assert abs(ph) < 1e-14 and abs(pb) < 1e-14

    def test_missing_bump_sees_nothing(self):
        d1 = replace(DELTA, params=GRAVITY)
        d0 = replace(DELTA, params=Params(0.5, 0.25))
        bumps = bump_catalog(solve(d0).waves[0].speed)
        ph, pb = weak_pairing(solve(d1), solve(d0), bumps[1])
        assert abs(ph) + abs(pb) < 1e-12


class TestParameterSensitivity:
    def test_intermediate_state_partials_match_fd(self):
        # analytic partial derivatives of the closed form via sympy
        import sympy as sp

        hl, bl, hr, br, a, k = sp.symbols("hl bl hr br a k", positive=True)
        h_star = sp.sqrt(hl * hr * (3 * a * bl + k * hl) / (3 * a * br + k * hr))
        b_star = br * sp.sqrt(hl * (3 * a * bl + k * hl) / (hr * (3 * a * br + k * hr)))
        subs = {hl: 1.24, bl: 0.90, hr: 1.5, br: 1.56, a: 0.5, k: 0.8}
        for sym in (a, k):
            dh = float(sp.diff(h_star, sym).subs(subs))
            db = float(sp.diff(b_star, sym).subs(subs))
            step = 1e-6
            va = {"alpha": 0.5, "kappa": 0.8}
            name = "alpha" if sym == a else "kappa"
            up = dict(va)
            dn = dict(va)
            up[name] += step
            dn[name] -= step
            m_up = intermediate_state(replace(JR, params=Params(**up)))
            m_dn = intermediate_state(replace(JR, params=Params(**dn)))
            fd_h = (m_up.h - m_dn.h) / (2 * step)
            fd_b = (m_up.b - m_dn.b) / (2 * step)
            assert abs(fd_h - dh) <= 1e-6 * max(1.0, abs(dh))
            assert abs(fd_b - db) <= 1e-6 * max(1.0, abs(db))

    def test_delta_speed_affine_in_both_parameters(self):
        from thinfilm.riemann import delta_shock

        rng = np.random.RandomState(3)
        for _ in range(20):
            a1, a2, k1, k2 = rng.uniform(0.1, 2.0, 4)
            left = State(*rng.uniform(0.2, 3.0, 2))
            s = 0.5
            pa = Params(a1 * s + a2 * (1 - s), k1 * s + k2 * (1 - s))
            w_mix = delta_shock(RiemannData(left, State(0.0, 1.0), pa))
            w1 = delta_shock(RiemannData(left, State(0.0, 1.0), Params(a1, k1)))
            w2 = delta_shock(RiemannData(left, State(0.0, 1.0), Params(a2, k2)))
            np.testing.assert_allclose(
                w_mix.speed, s * w1.speed + (1 - s) * w2.speed, rtol=1e-13
            )
