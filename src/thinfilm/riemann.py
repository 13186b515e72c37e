"""Exact Riemann solver: classification, wave construction, sampling.

Wave anatomy: the 1-field is linearly degenerate, so the left state is
always connected to the intermediate state by a contact moving at
lambda1 (which transports w1 unchanged).  The 2-field is genuinely
nonlinear with shock and rarefaction curves both lying on the ray
b/h = const through the right state, so the 2-wave is a shock when w1
drops left to right and a rarefaction when it rises.  When the left
thickness vanishes the contact and the fan tail collapse onto x = 0
(composite wave); when the right thickness vanishes both waves merge
into an overcompressive singular front carrying a growing point mass
in b (delta shock).
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, fields
from typing import Callable, Union

import numpy as np

from .core import Params, State, eigenvalues, flux, phi
from .errors import (
    InvalidDataError,
    InvalidShockError,
    NotADeltaError,
    RangeError,
    WrongCaseError,
)

__all__ = [
    "CASE_JR",
    "CASE_JS",
    "CASE_PURE_J",
    "CASE_COMPOSITE",
    "CASE_DELTA",
    "RiemannData",
    "Contact",
    "Shock",
    "Rarefaction",
    "DeltaShock",
    "CompositeJR",
    "Wave",
    "WaveFan",
    "SampledValue",
    "classify",
    "intermediate_state",
    "contact_speed",
    "shock_speed",
    "rarefaction_state",
    "delta_shock",
    "solve",
    "sample",
    "profile",
    "rankine_hugoniot_residual",
    "generalized_rh_residual",
    "BumpTestFunction",
    "weak_residual",
    "fan_to_json",
    "fan_from_json",
]

CASE_JR = "J+R"
CASE_JS = "J+S"
CASE_PURE_J = "pure-J"
CASE_COMPOSITE = "composite-JR"
CASE_DELTA = "delta-shock"

# Relative tolerance for w1 ties, shared rays and equal states on exact data.
_TIE_RTOL = 1e-13


@dataclass(frozen=True)
class RiemannData:
    """Two-state initial data separated at x = 0.

    Admissibility (at most one of the four components h-, b-, h+, b+ on
    the boundary) is enforced by :func:`classify`, not at construction,
    so degenerate pairs can still be fed to the low-level wave builders.
    A thickness vanishes at or below ``h_tol``, a b only at exactly 0:
    the only rule that commutes with (h, b) -> (s h, r b).
    """

    left: State
    right: State
    params: Params

    def assumption_holds(self) -> bool:
        tol = self.params.h_tol
        u, v = self.left, self.right
        return (u.h <= tol) + (v.h <= tol) + (u.b == 0.0) + (v.b == 0.0) <= 1


@dataclass(frozen=True)
class Contact:
    speed: float
    left: State
    right: State

    def speed_range(self) -> tuple[float, float]:
        return self.speed, self.speed


@dataclass(frozen=True)
class Shock:
    speed: float
    left: State
    right: State

    def speed_range(self) -> tuple[float, float]:
        return self.speed, self.speed


@dataclass(frozen=True)
class Rarefaction:
    """Self-similar fan between xi_lo and xi_hi on the anchor's ray."""

    xi_lo: float
    xi_hi: float
    left: State
    right: State
    anchor: State

    def speed_range(self) -> tuple[float, float]:
        return self.xi_lo, self.xi_hi


@dataclass(frozen=True)
class DeltaShock:
    """Singular front: regular jump plus a point mass in b growing as
    strength_rate * t."""

    speed: float
    strength_rate: float
    left: State
    right: State

    def speed_range(self) -> tuple[float, float]:
        return self.speed, self.speed


@dataclass(frozen=True)
class CompositeJR:
    """Contact at x = 0 merged with the fan tail (vanishing left film)."""

    xi_hi: float
    left: State
    right: State

    @property
    def anchor(self) -> State:
        """The state closing the fan, as :attr:`Rarefaction.anchor`."""
        return self.right

    def speed_range(self) -> tuple[float, float]:
        return 0.0, self.xi_hi


Wave = Union[Contact, Shock, Rarefaction, DeltaShock, CompositeJR]


@dataclass(frozen=True)
class WaveFan:
    """Ordered self-similar wave sequence solving one Riemann problem."""

    data: RiemannData
    waves: tuple[Wave, ...]
    intermediate: State | None


@dataclass(frozen=True)
class SampledValue:
    """Regular state on one ray plus the Dirac weight (per unit t) there."""

    regular: State
    singular_weight: float = 0.0


def _close(x: float, y: float, rtol: float = _TIE_RTOL) -> bool:
    return abs(x - y) <= rtol * max(abs(x), abs(y))


def _same_ray(a: State, b: State) -> bool:
    return _close(a.b * b.h, b.b * a.h)


def classify(d: RiemannData) -> str:
    """Case tag of the Riemann data.

    Interior data are ordered by w1 = phi (equivalently by
    h*(3*alpha*b + kappa*h), which is 3*w1): rising w1 gives J+R,
    falling gives J+S, a tie gives a lone contact.  A vanishing left
    (right) thickness gives the composite (delta-shock) case.  Data
    whose lambda2 overflows on either side are rejected: their wave
    speeds are not finite, and a finite w1 would read as tied with an
    infinite one.  So are interior data whose right state has
    3*alpha*b + kappa*h = 0: the 2-wave's closed forms divide by it.
    """
    if not d.assumption_holds():
        raise InvalidDataError(
            "at most one of h-, b-, h+, b+ may vanish; got "
            f"left={d.left}, right={d.right}"
        )
    for side, u in (("left", d.left), ("right", d.right)):
        if not math.isfinite(eigenvalues(u, d.params)[1]):
            raise InvalidDataError(
                f"lambda2 of the {side} state {u} overflows at "
                f"alpha={d.params.alpha}, kappa={d.params.kappa}"
            )
    tol = d.params.h_tol
    if d.left.h <= tol:
        return CASE_COMPOSITE
    if d.right.h <= tol:
        return CASE_DELTA
    if 3.0 * d.params.alpha * d.right.b + d.params.kappa * d.right.h == 0.0:
        raise InvalidDataError(
            f"3*alpha*b + kappa*h of the right state {d.right} is 0 at "
            f"alpha={d.params.alpha}, kappa={d.params.kappa}"
        )
    w1l = phi(d.left, d.params)
    w1r = phi(d.right, d.params)
    if _close(w1l, w1r):
        return CASE_PURE_J
    return CASE_JR if w1l < w1r else CASE_JS


def intermediate_state(d: RiemannData) -> State:
    """State between the contact and the 2-wave for interior data.

    Unique solution of w1(m) = w1(left) together with m on the right
    state's ray:

        h* = sqrt(h- h+ (3a b- + k h-) / (3a b+ + k h+)),
        b* = b+ sqrt(h- (3a b- + k h-) / (h+ (3a b+ + k h+))).
    """
    tol = d.params.h_tol
    if d.left.h <= tol or d.right.h <= tol:
        raise WrongCaseError("intermediate state requires interior data")
    a, k = d.params.alpha, d.params.kappa
    a_minus = 3.0 * a * d.left.b + k * d.left.h
    a_plus = 3.0 * a * d.right.b + k * d.right.h
    h_star = math.sqrt(d.left.h * d.right.h * a_minus / a_plus)
    b_star = d.right.b * math.sqrt(d.left.h * a_minus / (d.right.h * a_plus))
    return State(h_star, b_star)


def contact_speed(left: State, p: Params) -> float:
    """Contact discontinuities move at lambda1 of either side."""
    return phi(left, p)


def shock_speed(left: State, right: State, p: Params) -> float:
    """2-shock speed for states on a common ray b/h = const.

    sigma = (h + h_l)(a b + k h / 3) + h_l (a b_l + k h_l / 3) with
    (h, b) the right state; satisfies both Rankine-Hugoniot equations
    exactly on the ray.  Admissibility (h < h_l) is the caller's
    concern; the degenerate h == h_l limit returns lambda2.
    """
    if not _same_ray(left, right):
        raise InvalidShockError(
            f"shock endpoints must share a ray: left={left}, right={right}"
        )
    a, k = p.alpha, p.kappa
    return (right.h + left.h) * (a * right.b + k * right.h / 3.0) + left.h * (
        a * left.b + k * left.h / 3.0
    )


def rarefaction_state(
    xi: float | np.ndarray, anchor: State, p: Params
) -> State | tuple[np.ndarray, np.ndarray]:
    """State on the fan ray x/t = xi, anchored at the state closing the fan.

    h = sqrt(xi h+ / (3a b+ + k h+)) and b = b+ h / h+, which makes
    lambda2 of the returned state equal xi.  A float xi gives a State, an
    array of rays the (h, b) arrays, in the same bits.  Rays up to
    1e-12 * lambda2 outside [0, lambda2] are clamped onto it (a -0.0 or
    NaN ray is kept), rays further out raise.
    """
    _, lam2 = eigenvalues(anchor, p)
    slack = 1e-12 * lam2
    x = np.asarray(xi, dtype=float)
    if np.any(x < -slack) or np.any(x > lam2 + slack):
        raise RangeError(f"xi={xi} outside fan range [0, {lam2}]")
    x = np.where(lam2 < x, lam2, np.where(x < 0.0, 0.0, x))
    h = np.sqrt(x * anchor.h / (3.0 * p.alpha * anchor.b + p.kappa * anchor.h))
    b = anchor.b * h / anchor.h
    return State(float(h), float(b)) if x.ndim == 0 else (h, b)


def delta_shock(d: RiemannData) -> DeltaShock:
    """Singular front for a vanishing right thickness.

    Speed sigma = lambda1(left) and point-mass growth rate b+ * sigma
    follow from the generalized jump conditions.  Overcompressibility
    0 = lambda1(right) < sigma < lambda2(left) requires a genuinely
    moving left state.
    """
    tol = d.params.h_tol
    if d.right.h > tol:
        raise WrongCaseError("delta shock requires a vanishing right thickness")
    if d.left.h <= tol:
        raise WrongCaseError("delta shock requires an interior left state")
    speed = phi(d.left, d.params)
    if speed <= 0.0:
        raise NotADeltaError("overcompressibility fails: lambda1(left) must be > 0")
    rate = d.right.b * speed
    if not math.isfinite(rate):
        raise InvalidDataError(
            f"the point-mass growth rate b * sigma of the right state {d.right} "
            f"overflows: sigma={speed}"
        )
    return DeltaShock(
        speed=speed,
        strength_rate=rate,
        left=d.left,
        right=d.right,
    )


def _states_equal(a: State, b: State, rtol: float = _TIE_RTOL) -> bool:
    return _close(a.h, b.h, rtol) and _close(a.b, b.b, rtol)


def solve(d: RiemannData) -> WaveFan:
    """Construct the unique self-similar solution of the Riemann problem."""
    case = classify(d)
    p = d.params
    left, right = d.left, d.right

    if case == CASE_PURE_J:
        if _states_equal(left, right):
            return WaveFan(d, (), None)
        return WaveFan(d, (Contact(contact_speed(left, p), left, right),), None)

    if case == CASE_COMPOSITE:
        _, lam2r = eigenvalues(right, p)
        return WaveFan(d, (CompositeJR(lam2r, left, right),), None)

    if case == CASE_DELTA:
        return WaveFan(d, (delta_shock(d),), None)

    m = intermediate_state(d)
    waves: list[Wave] = []
    if not _states_equal(left, m):
        waves.append(Contact(contact_speed(left, p), left, m))

    if case == CASE_JR:
        _, xi_lo = eigenvalues(m, p)
        _, xi_hi = eigenvalues(right, p)
        waves.append(Rarefaction(xi_lo, xi_hi, left=m, right=right, anchor=right))
    else:
        sigma = shock_speed(m, right, p)
        lam2_m = eigenvalues(m, p)[1]
        lam2_r = eigenvalues(right, p)[1]
        if not (lam2_r < sigma < lam2_m and phi(m, p) < sigma):
            raise InvalidShockError(
                f"constructed shock violates admissibility: sigma={sigma}"
            )
        waves.append(Shock(sigma, m, right))
    return WaveFan(d, tuple(waves), m)


def sample(fan: WaveFan, xi: float) -> SampledValue:
    """Value of the self-similar solution on the ray x/t = xi.

    Discontinuity rays use the right-closed convention: exactly on a
    jump the right state is reported, and exactly on the singular ray
    the right state comes with the point-mass rate in b.
    """
    p = fan.data.params
    state = fan.data.left
    for w in fan.waves:
        lo, hi = w.speed_range()
        if xi < lo:
            return SampledValue(state)
        if isinstance(w, (Rarefaction, CompositeJR)) and xi <= hi:
            return SampledValue(rarefaction_state(xi, w.anchor, p))
        if isinstance(w, DeltaShock) and xi == lo:
            return SampledValue(w.right, singular_weight=w.strength_rate)
        state = w.right
    return SampledValue(state)


def profile(
    fan: WaveFan, t: float, xs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[tuple[float, float]]]:
    """Regular (h, b) arrays at time t > 0 plus [(x, mass)] for point
    masses: :func:`sample` on the rays xs / t, bit for bit."""
    if not (math.isfinite(t) and t > 0.0):
        raise InvalidDataError(f"profile time must be finite and positive, got t={t}")
    hs, bs = _ray_states(fan, np.asarray(xs, dtype=float) / t)
    deltas = [
        (w.speed * t, w.strength_rate * t)
        for w in fan.waves
        if isinstance(w, DeltaShock)
    ]
    return hs, bs, deltas


def _ray_states(fan: WaveFan, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Regular (h, b) arrays on the rays ``xi``: :func:`sample` per ray, bit
    for bit (waves are painted last to first, so the first to decide a ray
    wins).  The rays may come from different times."""
    states = [fan.data.left] + [w.right for w in fan.waves]
    hs, bs = np.full(xi.shape, states[-1].h), np.full(xi.shape, states[-1].b)
    for w, before in zip(reversed(fan.waves), reversed(states[:-1])):
        lo, hi = w.speed_range()
        if isinstance(w, (Rarefaction, CompositeJR)):
            on = (xi >= lo) & (xi <= hi)
            hs[on], bs[on] = rarefaction_state(xi[on], w.anchor, fan.data.params)
        hs[xi < lo], bs[xi < lo] = before.h, before.b
    return hs, bs


def rankine_hugoniot_residual(w: Shock, p: Params) -> np.ndarray:
    """sigma*(uR - uL) - (F(uR) - F(uL)); zero for a true shock."""
    du = w.right.as_array() - w.left.as_array()
    df = flux(w.right, p) - flux(w.left, p)
    return w.speed * du - df


def generalized_rh_residual(w: DeltaShock, p: Params) -> tuple[float, float]:
    """Residuals of the generalized jump conditions of a singular front.

    First component: sigma*[h] - [h*phi] (the front carries no point
    mass in h).  Second: d(beta)/dt - (sigma*[b] - [b*phi]).
    """
    jump_hf, jump_bf = (flux(w.right, p) - flux(w.left, p)).tolist()
    res_h = w.speed * (w.right.h - w.left.h) - jump_hf
    res_beta = w.strength_rate - (w.speed * (w.right.b - w.left.b) - jump_bf)
    return res_h, res_beta


class BumpTestFunction:
    """C-infinity bump supported on a box in the (x, t) half plane.

    Product of two mollifier profiles g(s) = exp(1 - 1/(1 - s^2)) for
    |s| < 1 (and 0 outside), centered at (x_center, t_center) with the
    given radii.  Analytic first derivatives are provided for weak-form
    quadrature.
    """

    def __init__(
        self, x_center: float, t_center: float, x_radius: float, t_radius: float
    ):
        if t_center - t_radius <= 0.0:
            raise ValueError("test function must be supported in t > 0")
        if x_radius <= 0.0 or t_radius <= 0.0:
            raise ValueError("radii must be positive")
        self.x_center = x_center
        self.t_center = t_center
        self.x_radius = x_radius
        self.t_radius = t_radius

    @property
    def box(self) -> tuple[float, float, float, float]:
        return (
            self.x_center - self.x_radius,
            self.x_center + self.x_radius,
            self.t_center - self.t_radius,
            self.t_center + self.t_radius,
        )

    @staticmethod
    def _g(s: np.ndarray, derivative: bool = False) -> np.ndarray:
        """g(s), or g'(s) with ``derivative``; zero off |s| < 1."""
        out = np.zeros_like(s)
        inside = np.abs(s) < 1.0
        si = s[inside]
        q = 1.0 - si * si
        gi = np.exp(1.0 - 1.0 / q)
        out[inside] = gi * (-2.0 * si / q**2) if derivative else gi
        return out

    def _scaled(self, x, t) -> tuple[np.ndarray, np.ndarray]:
        return (
            (np.asarray(x, dtype=float) - self.x_center) / self.x_radius,
            (np.asarray(t, dtype=float) - self.t_center) / self.t_radius,
        )

    def value(self, x, t):
        sx, st = self._scaled(x, t)
        return self._g(sx) * self._g(st)

    def dx(self, x, t):
        sx, st = self._scaled(x, t)
        return self._g(sx, derivative=True) * self._g(st) / self.x_radius

    def dt(self, x, t):
        sx, st = self._scaled(x, t)
        return self._g(sx) * self._g(st, derivative=True) / self.t_radius


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n Gauss-Legendre nodes and weights on [-1, 1], computed on first use."""
    return np.polynomial.legendre.leggauss(n)


def _space_time_gauss(
    testfn: BumpTestFunction,
    resolution: int,
    fans: list[tuple[WaveFan, float]],
    regular: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    probe: Callable[[np.ndarray, np.ndarray, float], np.ndarray] | None,
) -> np.ndarray:
    """Two-component integral over the box of ``testfn``.

    ``resolution`` t panels of 6 Gauss-Legendre nodes; at each t node
    the x range is split at the wave rays of ``fans`` and each piece
    into subpanels of 8 nodes, where ``regular(xs, ts)`` gives both
    integrands elementwise.  Unless ``probe`` is None, each delta shock
    of each (fan, sign) then adds sign * int beta(t) probe(sigma t, t, sigma) dt
    to the second component.

    The nodes of all t nodes go to one ``regular`` call (and each delta
    shock's to one ``probe`` call).  The subpanel ends are the values of
    ``np.linspace(xa, xb, n_sub + 1)`` (k * step + xa, the last one xb),
    and each x piece adds its own dot product in t-node order, so the
    result has the bits of one integrand call per t node.
    """
    x0, x1, t0, t1 = testfn.box
    edges = {s for fan, _ in fans for w in fan.waves for s in w.speed_range()}
    (gt_nodes, gt_wts), (gx_nodes, gx_wts) = _gauss_legendre(6), _gauss_legendre(8)
    x_target = (x1 - x0) / max(resolution, 4)

    t_panels = np.linspace(t0, t1, resolution + 1)
    tm = 0.5 * (t_panels[:-1] + t_panels[1:])
    th = 0.5 * (t_panels[1:] - t_panels[:-1])
    ts = tm[:, None] + th[:, None] * gt_nodes
    tw = gt_wts * th[:, None]

    # the x pieces of every t node, and the t node each belongs to
    xa, xb, owner = [], [], []
    for i, t in enumerate(ts.ravel()):
        breaks = sorted({x0, x1, *(s * t for s in edges if x0 < s * t < x1)})
        xa += breaks[:-1]
        xb += breaks[1:]
        owner += [i] * (len(breaks) - 1)
    xa, xb = np.array(xa), np.array(xb)
    n_sub = np.maximum(1, np.ceil((xb - xa) / x_target)).astype(np.intp)
    # the n_sub + 1 subpanel ends of each piece, one piece after another
    first = np.cumsum(n_sub + 1) - (n_sub + 1)
    k = np.arange(first[-1] + n_sub[-1] + 1) - np.repeat(first, n_sub + 1)
    ends = k * np.repeat((xb - xa) / n_sub, n_sub + 1) + np.repeat(xa, n_sub + 1)
    ends[first + n_sub] = xb
    lo = np.delete(np.arange(ends.size), first + n_sub)
    xm = 0.5 * (ends[lo] + ends[lo + 1])
    # one half width per piece, as the first subpanel has it
    xh = np.repeat(0.5 * (ends[first + 1] - ends[first]), n_sub)[:, None]
    nodes = (xm[:, None] + xh * gx_nodes).ravel()
    weights = (xh * gx_wts).ravel()
    g0, g1 = regular(nodes, np.repeat(ts.ravel()[owner], 8 * n_sub))

    acc = np.zeros(2)
    stop = np.cumsum(8 * n_sub)
    for i, a, b in zip(owner, (stop - 8 * n_sub).tolist(), stop.tolist()):
        acc[0] += tw.flat[i] * float(np.dot(weights[a:b], g0[a:b]))
        acc[1] += tw.flat[i] * float(np.dot(weights[a:b], g1[a:b]))
    if probe is None:
        return acc

    for fan, sign in fans:
        for w in fan.waves:
            if not isinstance(w, DeltaShock):
                continue
            vals = w.strength_rate * ts * probe(w.speed * ts, ts, w.speed)
            for thp, v in zip(th, vals):
                acc[1] += sign * thp * float(np.dot(gt_wts, v))
    return acc


def weak_residual(
    fan: WaveFan,
    testfn: BumpTestFunction,
    resolution: int = 32,
    include_singular: bool = True,
) -> tuple[float, float]:
    """Weak-form residual of both equations against one test function.

    Computes int int (u_i phi_t + F_i(u) phi_x) dx dt with the x
    integral split at wave rays (composite Gauss-Legendre on each
    smooth piece), plus the singular pairing along any delta-shock
    support curve, int beta(t) d/dt[phi(sigma t, t)] dt.  Parametrizing
    the support by t makes the arc-length factor of the curve measure
    cancel against the arc-length density, leaving the slice weight
    beta(t) that the jump conditions define.  Both residuals vanish
    under refinement of ``resolution`` for a valid fan;
    ``include_singular=False`` is the negative control.
    """
    p = fan.data.params

    def regular(xs: np.ndarray, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        h, b = _ray_states(fan, xs / ts)
        w1 = phi((h, b), p)
        phit, phix = testfn.dt(xs, ts), testfn.dx(xs, ts)
        return h * phit + h * w1 * phix, b * phit + b * w1 * phix

    def along_support(x: np.ndarray, t: np.ndarray, sigma: float) -> np.ndarray:
        return testfn.dt(x, t) + sigma * testfn.dx(x, t)

    res = _space_time_gauss(
        testfn, resolution, [(fan, 1.0)], regular,
        along_support if include_singular else None,
    )
    return abs(float(res[0])), abs(float(res[1]))


_WAVE_TAGS = {
    Contact: "contact",
    Shock: "shock",
    Rarefaction: "rarefaction",
    DeltaShock: "delta-shock",
    CompositeJR: "composite-jr",
}
_WAVE_TYPES = {tag: cls for cls, tag in _WAVE_TAGS.items()}


def _state_from_doc(doc: dict) -> State:
    return State(doc["h"], doc["b"])


def fan_to_json(fan: WaveFan) -> dict:
    """JSON-ready document for a wave fan (round-trips exactly).

    Each wave is its type tag plus its dataclass fields, states as
    {"h", "b"} objects.
    """
    return {
        "params": asdict(fan.data.params),
        "left": asdict(fan.data.left),
        "right": asdict(fan.data.right),
        "case": classify(fan.data),
        "intermediate": None if fan.intermediate is None else asdict(fan.intermediate),
        "waves": [{"type": _WAVE_TAGS[type(w)], **asdict(w)} for w in fan.waves],
    }


def fan_from_json(doc: dict) -> WaveFan:
    """Inverse of :func:`fan_to_json`."""
    p = Params(**doc["params"])
    data = RiemannData(_state_from_doc(doc["left"]), _state_from_doc(doc["right"]), p)
    waves: list[Wave] = []
    for wd in doc["waves"]:
        cls = _WAVE_TYPES.get(wd["type"])
        if cls is None:
            raise ValueError(f"unknown wave tag {wd['type']!r}")
        values = (wd[f.name] for f in fields(cls))
        waves.append(cls(*(_state_from_doc(v) if isinstance(v, dict) else v for v in values)))
    inter = doc.get("intermediate")
    return WaveFan(
        data, tuple(waves), None if inter is None else _state_from_doc(inter)
    )
