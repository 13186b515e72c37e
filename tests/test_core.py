import math

import numpy as np
import pytest

from thinfilm.core import (
    CharacteristicFields,
    Invariants,
    Params,
    State,
    characteristic_fields,
    eigenstructure,
    eigenvalues,
    flux,
    jacobian,
    phi,
    riemann_invariants,
    state_from_invariants,
)
from thinfilm.errors import (
    BoundaryStateError,
    DegenerateParameterError,
    InvalidParamsError,
    InvalidStateError,
)

from cases import FILM, JR

P = Params(alpha=0.5, kappa=1.0)


def random_states(n, lo=0.05, hi=3.0, seed=0):
    rng = np.random.RandomState(seed)
    return [State(*rng.uniform(lo, hi, 2)) for _ in range(n)]


def random_params(n, seed=1):
    rng = np.random.RandomState(seed)
    return [Params(*rng.uniform(0.1, 2.0, 2)) for _ in range(n)]


class TestParamsAndState:
    def test_rejects_all_zero_flux(self):
        with pytest.raises(InvalidParamsError):
            Params(0.0, 0.0)

    def test_rejects_negative_coefficients(self):
        with pytest.raises(InvalidParamsError):
            Params(-0.1, 1.0)
        with pytest.raises(InvalidParamsError):
            Params(0.5, -1.0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"alpha": math.nan, "kappa": 1.0}, "alpha and kappa must be finite"),
        ({"alpha": 0.5, "kappa": math.inf}, "alpha and kappa must be finite"),
        ({"alpha": 0.5, "kappa": 1.0, "h_tol": -1e-3}, "h_tol must be a nonnegative float"),
    ], ids=["alpha-nan", "kappa-inf", "h_tol-negative"])
    def test_rejects_non_finite_or_negative_settings(self, kwargs, message):
        with pytest.raises(InvalidParamsError) as exc:
            Params(**kwargs)
        assert str(exc.value) == message

    def test_single_zero_coefficient_allowed(self):
        assert Params(0.5, 0.0).kappa == 0.0
        assert Params(0.0, 1.0).alpha == 0.0

    def test_state_quadrant(self):
        with pytest.raises(InvalidStateError):
            State(-1e-3, 1.0)
        with pytest.raises(InvalidStateError):
            State(1.0, math.nan)
        assert State(0.0, 0.0).h == 0.0


class TestFlux:
    def test_zero_state(self):
        assert np.all(flux(State(0.0, 0.0), P) == 0.0)

    def test_unit_state(self):
        # direct evaluation, cross-checked symbolically below
        np.testing.assert_allclose(flux(State(1.0, 1.0), P), [5.0 / 6.0, 5.0 / 6.0])

    def test_symbolic_expansion_oracle(self):
        import sympy as sp

        h, b, a, k = sp.symbols("h b alpha kappa", positive=True)
        f_h = a * h**2 * b + k * h**3 / 3
        f_b = a * h * b**2 + k * h**2 * b / 3
        subs = {h: sp.Rational(7, 5), b: sp.Rational(9, 4), a: sp.Rational(1, 2), k: 1}
        expected = [float(f_h.subs(subs)), float(f_b.subs(subs))]
        got = flux(State(1.4, 2.25), Params(0.5, 1.0))
        np.testing.assert_allclose(got, expected, rtol=1e-14)

    def test_surface_tension_only_left_state(self):
        got = flux(JR.left, FILM)
        np.testing.assert_allclose(got, [0.69192, 0.50220], rtol=1e-12)

    def test_flux_is_state_times_lambda1(self):
        for u in random_states(50):
            for p in random_params(3):
                lam1, _ = eigenvalues(u, p)
                np.testing.assert_allclose(
                    flux(u, p), [u.h * lam1, u.b * lam1], rtol=1e-14
                )


def fd_jacobian(u, p, step=1e-6):
    J = np.zeros((2, 2))
    for j, (dh, db) in enumerate(((step, 0.0), (0.0, step))):
        fp = flux(State(u.h + dh, u.b + db), p)
        fm = flux(State(u.h - dh, u.b - db), p)
        J[:, j] = (fp - fm) / (2.0 * step)
    return J


class TestJacobian:
    def test_zero_state(self):
        assert np.all(jacobian(State(0.0, 0.0), P) == 0.0)

    def test_matches_finite_differences(self):
        J = jacobian(State(1.0, 1.0), P)
        J_fd = fd_jacobian(State(1.0, 1.0), P)
        np.testing.assert_allclose(J, J_fd, rtol=1e-8)

    def test_finite_differences_random(self):
        for u in random_states(30, lo=0.2, seed=3):
            for p in random_params(3, seed=4):
                np.testing.assert_allclose(
                    jacobian(u, p), fd_jacobian(u, p), rtol=1e-6, atol=1e-9
                )

    def test_eigenvalues_match_characteristic_roots(self):
        # oracle: roots of the characteristic polynomial of the analytic matrix
        for u in random_states(100, seed=5):
            for p in random_params(2, seed=6):
                J = jacobian(u, p)
                tr, det = J[0, 0] + J[1, 1], J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
                disc = math.sqrt(max(tr * tr - 4.0 * det, 0.0))
                roots = sorted(((tr - disc) / 2.0, (tr + disc) / 2.0))
                lams = eigenvalues(u, p)
                np.testing.assert_allclose(lams, roots, rtol=1e-12, atol=1e-12)


class TestEigenstructure:
    def test_unit_state(self):
        np.testing.assert_allclose(
            eigenvalues(State(1.0, 1.0), P), (5.0 / 6.0, 2.5), rtol=1e-15
        )

    def test_two_two(self):
        np.testing.assert_allclose(
            eigenvalues(State(2.0, 2.0), P), (10.0 / 3.0, 10.0), rtol=1e-15
        )

    def test_boundary_degeneracy(self):
        assert eigenvalues(State(0.0, 2.0), P) == (0.0, 0.0)

    def test_lambda2_is_three_lambda1(self):
        for u in random_states(100, lo=0.0, seed=7):
            for p in random_params(2, seed=8):
                lam1, lam2 = eigenvalues(u, p)
                assert abs(lam2 - 3.0 * lam1) <= 1e-14 * max(1.0, abs(lam2))

    def test_right_eigenvectors(self):
        for u in random_states(40, seed=9):
            es = eigenstructure(u, P)
            J = jacobian(u, P)
            for lam, r in ((es.lambda1, es.r1), (es.lambda2, es.r2)):
                r = np.array(r)
                np.testing.assert_allclose(J @ r, lam * r, atol=1e-12 * max(1, lam))


class TestRiemannInvariants:
    def test_values(self):
        inv = riemann_invariants(State(1.0, 1.0), P)
        np.testing.assert_allclose((inv.w1, inv.w2), (5.0 / 6.0, 1.0), rtol=1e-15)
        inv = riemann_invariants(State(2.0, 1.0), P)
        np.testing.assert_allclose((inv.w1, inv.w2), (7.0 / 3.0, 0.5), rtol=1e-15)

    def test_w1_equals_lambda1(self):
        for u in random_states(50, seed=10):
            assert riemann_invariants(u, P).w1 == eigenvalues(u, P)[0]

    def test_boundary_error(self):
        with pytest.raises(BoundaryStateError):
            riemann_invariants(State(0.0, 1.0), P)

    def test_round_trip(self):
        for u in random_states(100, seed=11):
            for p in random_params(3, seed=12):
                v = state_from_invariants(riemann_invariants(u, p), p)
                assert abs(v.h - u.h) <= 1e-12 * u.h
                assert abs(v.b - u.b) <= 1e-12 * u.b

    def test_state_from_invariants_values(self):
        u = state_from_invariants(Invariants(5.0 / 6.0, 1.0), P)
        np.testing.assert_allclose((u.h, u.b), (1.0, 1.0), rtol=1e-14)
        u = state_from_invariants(Invariants(7.0 / 3.0, 0.5), P)
        np.testing.assert_allclose((u.h, u.b), (2.0, 1.0), rtol=1e-14)

    def test_degenerate_inversion(self):
        with pytest.raises(DegenerateParameterError):
            state_from_invariants(Invariants(1.0, 0.0), Params(1.0, 0.0))

    def test_negative_w1_rejected(self):
        with pytest.raises(InvalidStateError) as exc:
            state_from_invariants(Invariants(-1.0, 1.0), P)
        assert str(exc.value) == "w1 must be nonnegative"


class TestCharacteristicFields:
    def test_first_field_linearly_degenerate_numerically(self):
        # finite-difference gradient of lambda1 dotted with r1
        step = 1e-6
        for u in random_states(100, lo=0.2, seed=13):
            es = eigenstructure(u, P)
            gh = (
                eigenvalues(State(u.h + step, u.b), P)[0]
                - eigenvalues(State(u.h - step, u.b), P)[0]
            ) / (2 * step)
            gb = (
                eigenvalues(State(u.h, u.b + step), P)[0]
                - eigenvalues(State(u.h, u.b - step), P)[0]
            ) / (2 * step)
            assert abs(gh * es.r1[0] + gb * es.r1[1]) < 1e-8

    def test_indicator_value(self):
        cf = characteristic_fields(State(1.0, 1.0), P)
        assert cf == CharacteristicFields("linearly degenerate", "genuinely nonlinear", 3.5)

    def test_boundary_fully_degenerate(self):
        cf = characteristic_fields(State(0.0, 1.3), P)
        assert cf.field2 == "linearly degenerate"
        assert cf.gn_indicator == 0.0


class TestArrayStates:
    """A (2, n) array of states takes the path of a single State, bit for bit."""

    def states(self, n=2000, seed=14):
        rng = np.random.RandomState(seed)
        return np.exp(rng.uniform(np.log(1e-3), np.log(1e3), (2, n)))

    def test_state_unpacks_like_an_array_column(self):
        h, b = State(1.5, 0.25)
        assert (h, b) == (1.5, 0.25)

    def test_closed_forms_match_state_calls(self):
        u = self.states()
        singles = [State(h, b) for h, b in u.T.tolist()]
        for p in [P, Params(0.37, 0.0), Params(0.0, 2.0), *random_params(3, seed=15)]:
            assert phi(u, p).tolist() == [phi(s, p) for s in singles]
            assert flux(u, p).T.tolist() == [flux(s, p).tolist() for s in singles]
            lam1, lam2 = eigenvalues(u, p)
            assert list(zip(lam1.tolist(), lam2.tolist())) == [eigenvalues(s, p) for s in singles]
            inv = riemann_invariants(u, p)
            expect = [riemann_invariants(s, p) for s in singles]
            assert inv.w1.tolist() == [e.w1 for e in expect]
            assert inv.w2.tolist() == [e.w2 for e in expect]

    def test_pair_of_arrays_equals_stacked_array(self):
        h, b = self.states(50)
        assert phi((h, b), P).tolist() == phi(np.array([h, b]), P).tolist()

    def test_boundary_state_in_array_raises(self):
        u = self.states(20)
        u[0, 7] = 0.0
        with pytest.raises(BoundaryStateError):
            riemann_invariants(u, P)
