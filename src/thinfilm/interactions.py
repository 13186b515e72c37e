"""Front tracking for the three-state perturbed Riemann problem.

The initial data carries two local Riemann problems at x = -epsilon and
x = +epsilon whose waves collide and reorganize.  Seven interaction
patterns are possible; the classical ones resolve in closed form
(collision points from line intersections, curved shocks through fans
from an explicit time law), the singular ones track the point mass of
the delta front through splits, absorptions and fan penetrations.  A
generic engine with discretized fans covers the two patterns whose
closed forms are omitted, and doubles as a cross-check for the rest.

Every tracked solution is represented by a list of fronts (straight or
curved, each carrying the state region to its right and, for singular
fronts, a running point-mass strength), which is enough to sample
profiles, measure distances to the unperturbed solution and serialize
timelines.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Union

import numpy as np

from .core import Params, State, phi
from .errors import (
    EventBudgetError,
    InvalidDataError,
    NoInteractionError,
    UnreachableCaseError,
    UnsupportedCaseError,
    WrongCaseError,
)
from .riemann import (
    CASE_COMPOSITE,
    CASE_DELTA,
    CASE_JR,
    CASE_JS,
    CompositeJR,
    Contact,
    DeltaShock,
    Rarefaction,
    RiemannData,
    Shock,
    Wave,
    WaveFan,
    classify,
    fan_to_json,
    intermediate_state,
    rarefaction_state,
    shock_speed,
    solve,
    _states_equal,
)

__all__ = [
    "CASE_NUMBER",
    "PerturbedData",
    "Event",
    "CurvedWave",
    "Front",
    "ConstRegion",
    "FanRegion",
    "InteractionTimeline",
    "classify_case",
    "interact_shock_contact",
    "interact_shock_shock_chase",
    "shock_through_fan",
    "shock_overtakes_delta",
    "delta_through_fan",
    "run_timeline",
    "l1_distance",
    "timeline_to_json",
]

# the seven interaction patterns by the case tags of their two
# sub-problems, in the paper's order
_PATTERNS = {
    (CASE_JS, CASE_JS): "JS+JS",
    (CASE_JS, CASE_JR): "JS+JR",
    (CASE_JR, CASE_JR): "JR+JR",
    (CASE_JR, CASE_JS): "JR+JS",
    (CASE_DELTA, CASE_COMPOSITE): "dS+JR",
    (CASE_JS, CASE_DELTA): "JS+dS",
    (CASE_JR, CASE_DELTA): "JR+dS",
}
CASE_NUMBER = {tag: n for n, tag in enumerate(_PATTERNS.values(), start=1)}
_DEGENERATE_RTOL = 1e-10  # a middle state this close to an outer one: no interaction


@dataclass(frozen=True)
class PerturbedData:
    """Three-state data: middle state on (-epsilon, epsilon)."""

    epsilon: float
    left: State
    middle: State
    right: State
    params: Params

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise InvalidDataError("epsilon must be positive")

    def left_data(self) -> RiemannData:
        return RiemannData(self.left, self.middle, self.params)

    def right_data(self) -> RiemannData:
        return RiemannData(self.middle, self.right, self.params)

    def outer_data(self) -> RiemannData:
        return RiemannData(self.left, self.right, self.params)


@dataclass(frozen=True)
class Event:
    """Wave collision: point, participating front ids, and the point-mass
    strength carried through the event (None for classical ones)."""

    point: tuple[float, float]
    incoming: tuple[int, ...]
    outgoing: tuple[int, ...]
    delta_strength: Optional[float] = None


@dataclass(frozen=True)
class ConstRegion:
    state: State


@dataclass(frozen=True)
class FanRegion:
    origin_x: float
    anchor: State


Region = Union[ConstRegion, FanRegion]


@dataclass(frozen=True)
class CurvedWave:
    """Path of a curved front inside a fan and the fan state beside it
    (its kind, lifetime and any strength are the front's)."""

    x_of_t: Callable[[float], float]
    state_of_t: Callable[[float], State]


@dataclass
class Front:
    """One tracked discontinuity with the region to its right.

    Straight fronts carry a speed; curved ones the curve they follow
    from t_birth to t_death.  Singular fronts (kinds 'delta',
    'delta-contact' and 'curved-delta') carry the running strength beta(t).
    """

    id: int
    kind: str
    t_birth: float
    x_birth: float
    right_region: Region
    speed: Optional[float] = None
    t_death: float = math.inf
    curve: Optional[CurvedWave] = None
    strength_of_t: Optional[Callable[[float], float]] = None

    def position(self, t: float) -> float:
        if self.curve is not None:
            return self.curve.x_of_t(t)
        return self.x_birth + self.speed * (t - self.t_birth)

    def alive(self, t: float) -> bool:
        return self.t_birth <= t < self.t_death


@dataclass
class InteractionTimeline:
    """Resolved perturbed Riemann problem.

    ``final_fan`` is the self-similar pattern the solution settles into;
    for terminating cascades the surviving fronts reproduce it exactly
    (equal-speed parallel contacts collapse in the x/t view), for
    penetrations that never finish it is the asymptotic pattern.
    """

    data: PerturbedData
    case_tag: str
    events: list[Event]
    fronts: list[Front]
    final_fan: WaveFan
    asymptotic: bool = False

    def alive_fronts(self, t: float) -> list[Front]:
        fronts = [f for f in self.fronts if f.alive(t)]
        fronts.sort(key=lambda f: f.position(t))
        return fronts

    def sample(self, x: float, t: float) -> State:
        fronts = self.alive_fronts(t)
        region: Region = ConstRegion(self.data.left)
        for f in fronts:  # `x < position` sends a NaN x right, as `profile` does
            if x < f.position(t):
                break
            region = f.right_region
        if isinstance(region, ConstRegion):
            return region.state
        return rarefaction_state((x - region.origin_x) / t, region.anchor, self.data.params)

    def profile(self, t: float, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if not (math.isfinite(t) and t > 0.0):
            raise InvalidDataError(f"profile time must be finite and positive, got t={t}")
        xs = np.asarray(xs, dtype=float)
        fronts = self.alive_fronts(t)
        positions = np.array([f.position(t) for f in fronts])
        regions = [ConstRegion(self.data.left)] + [f.right_region for f in fronts]
        idx = np.searchsorted(positions, xs, side="right")
        table = np.array([(r.state.h, r.state.b) if isinstance(r, ConstRegion)
                          else (math.nan, math.nan) for r in regions])
        h, b = table[idx, 0], table[idx, 1]
        for k, r in enumerate(regions):
            if isinstance(r, FanRegion):
                on = idx == k
                h[on], b[on] = rarefaction_state((xs[on] - r.origin_x) / t, r.anchor, self.data.params)
        return h, b

    def point_masses(self, t: float) -> list[tuple[float, float]]:
        return _point_masses(self, t)

    @property
    def residual_delta_contact(self) -> Optional[Front]:
        """The delta-contact front freezing the point mass a delta split
        leaves behind (it vanishes with epsilon), or None."""
        return next((f for f in self.fronts if f.kind == "delta-contact"), None)

    @property
    def max_event_time(self) -> float:
        return max((e.point[1] for e in self.events), default=0.0)


def classify_case(d: PerturbedData) -> str:
    """Tag of the seven enumerated interaction patterns.

    A delta-delta configuration (both middle and right thickness
    vanishing) is impossible in the quadrant and reported as
    unreachable; a vanishing left state and tie (lone contact)
    sub-problems fall outside the enumerated list.
    """
    tol = d.params.h_tol
    if d.middle.h <= tol and d.right.h <= tol:
        raise UnreachableCaseError(
            "two singular fronts cannot coexist: both h_m and h+ vanish"
        )
    c_left = classify(d.left_data())
    c_right = classify(d.right_data())
    tag = _PATTERNS.get((c_left, c_right))
    if tag is None:
        raise UnsupportedCaseError(
            f"pattern ({c_left}, {c_right}) is outside the enumerated interactions"
        )
    return tag


# ---------------------------------------------------------------------------
# closed-form two-front resolvers


def interact_shock_contact(
    s1: Shock, j2: Contact, epsilon: float, p: Params
) -> tuple[tuple[float, float], tuple[Contact, Shock]]:
    """Shock from (-epsilon, 0) absorbs the contact from (+epsilon, 0).

    Collision at x1 + eps = sigma1*t1, x1 - eps = mu2*t1.  The emerging
    contact moves at lambda1 of the shock's left state (w1 transport),
    the emerging shock connects the refreshed intermediate state to the
    contact's right state.  Returns the collision point and both waves.
    """
    sigma1, mu2 = s1.speed, j2.speed
    if sigma1 <= mu2:
        raise NoInteractionError("trailing shock is not faster than the contact")
    t1 = 2.0 * epsilon / (sigma1 - mu2)
    x1 = (sigma1 + mu2) * epsilon / (sigma1 - mu2)
    m3 = intermediate_state(RiemannData(s1.left, j2.right, p))
    j3 = Contact(phi(s1.left, p), s1.left, m3)
    s3 = Shock(shock_speed(m3, j2.right, p), m3, j2.right)
    return (x1, t1), (j3, s3)


def interact_shock_shock_chase(
    s3: Shock,
    s2: Shock,
    start3: tuple[float, float],
    epsilon: float,
    p: Params,
) -> tuple[tuple[float, float], Shock]:
    """Faster trailing shock (through ``start3``) absorbs the one from
    (+epsilon, 0); returns the collision point and the single shock to
    the outer right state that survives."""
    x1, t1 = start3
    if s3.speed <= s2.speed:
        raise NoInteractionError("trailing shock is not faster")
    t2 = (x1 - epsilon - s3.speed * t1) / (s2.speed - s3.speed)
    x2 = epsilon + s2.speed * t2
    s4 = Shock(shock_speed(s3.left, s2.right, p), s3.left, s2.right)
    return (x2, t2), s4


def _ray_coefficient(anchor: State, p: Params) -> float:
    """c with lambda2 = 3*c*h^2 and w1 = c*h^2 along the anchor's ray.

    The fan-ray closed form written through c rounds differently from
    :func:`rarefaction_state`'s; ``shock_through_fan``'s entry thickness
    and ``_discretize_fan``'s shocklets keep it because their bits reach
    the timeline JSON and the profile CSVs.
    """
    return p.alpha * anchor.b / anchor.h + p.kappa / 3.0


def _penetration_g(h_left: float, h: float) -> float:
    return (h_left - h) ** 2 * (h_left + 2.0 * h)


def shock_through_fan(
    entry: tuple[float, float],
    fan: Rarefaction | CompositeJR,
    chasing_left: State,
    p: Params,
    fan_origin_x: float,
) -> tuple[CurvedWave, Optional[tuple[float, float]], Optional[Shock]]:
    """Shock with constant left state penetrating a fan from its tail.

    Along the curve the fan-side value h(t) obeys
    t * (hL - h)^2 (hL + 2h) = const, entered at ``entry``; the position
    is x = fan_origin + lambda2(h) * t.  If the left state's h exceeds
    the fan head's the penetration completes at a finite exit point and
    a straight shock to the head state emerges; otherwise the curve
    steepens toward the left state's characteristic forever.
    """
    x_e, t_e = entry
    c = _ray_coefficient(fan.anchor, p)
    h_left = chasing_left.h
    xi_e = (x_e - fan_origin_x) / t_e
    h_entry = math.sqrt(max(xi_e, 0.0) / (3.0 * c))
    h_head = fan.right.h
    if h_entry >= h_left:
        raise WrongCaseError("chasing state must outrun the fan tail")
    K = t_e * _penetration_g(h_left, h_entry)
    w2 = fan.anchor.b / fan.anchor.h

    def h_of_t(t: float) -> float:
        if t <= t_e:
            return h_entry
        target = K / t
        hi = min(h_left, h_head)
        g_hi = _penetration_g(h_left, hi)
        if target <= g_hi:
            return hi
        # u = 1 - h/h_L solves u^2 (3 - 2u) = c; its trigonometric root with
        # acos(2c - 1) rewritten through asin(sqrt(c)), so nothing cancels as c -> 0
        third = math.asin(math.sqrt(min(target / h_left**3, 1.0))) / 3.0
        return h_left * (1.0 - math.sin(third) ** 2 - math.sqrt(0.75) * math.sin(2.0 * third))

    def x_of_t(t: float) -> float:
        h = h_of_t(t)
        return fan_origin_x + 3.0 * c * h * h * t

    def state_of_t(t: float) -> State:
        h = h_of_t(t)
        return State(h, w2 * h)

    curve = CurvedWave(x_of_t, state_of_t)
    completes = h_left > h_head
    if completes:
        t_exit = K / _penetration_g(h_left, h_head)
        x_exit = fan_origin_x + 3.0 * c * h_head * h_head * t_exit
        out_shock = Shock(shock_speed(chasing_left, fan.right, p), chasing_left, fan.right)
        return curve, (x_exit, t_exit), out_shock
    return curve, None, None


# ---------------------------------------------------------------------------
# timeline assembly helpers


def _affine_strength(t0: float, beta0: float, rate: float) -> Callable[[float], float]:
    return lambda t: beta0 + rate * (t - t0)


class _Builder:
    def __init__(self) -> None:
        self.fronts: list[Front] = []
        self.events: list[Event] = []
        self._next_id = 0

    def add(self, **kwargs) -> Front:
        f = Front(id=self._next_id, **kwargs)
        self._next_id += 1
        self.fronts.append(f)
        return f

    def add_wave(
        self, w: Wave, x0: float, t0: float = 0.0, strength: float = 0.0
    ) -> list[Front]:
        """Fronts of one exact wave born at (x0, t0), left to right.

        Fans get a tail and a head with the fan region between them (a
        composite's tail is its stationary contact); a delta front's
        point mass starts from ``strength`` and grows at the wave's rate.
        Fan regions are self-similar about (x0, 0), so fans are only
        born at t0 = 0.
        """
        at = dict(t_birth=t0, x_birth=x0)
        if isinstance(w, (Rarefaction, CompositeJR)):
            tail, head = w.speed_range()
            return [
                self.add(kind="fan-tail" if isinstance(w, Rarefaction) else "contact",
                         speed=tail, right_region=FanRegion(x0, w.anchor), **at),
                self.add(kind="fan-head", speed=head, right_region=ConstRegion(w.right), **at),
            ]
        if isinstance(w, DeltaShock):
            beta = _affine_strength(t0, strength, w.strength_rate)
            return [self.add(kind="delta", speed=w.speed, right_region=ConstRegion(w.right),
                             strength_of_t=beta, **at)]
        kind = "contact" if isinstance(w, Contact) else "shock"
        return [self.add(kind=kind, speed=w.speed, right_region=ConstRegion(w.right), **at)]

    def add_fan(self, fan: WaveFan, x0: float) -> list[Front]:
        """Fronts of a Riemann fan centred at (x0, 0), left to right."""
        return [f for w in fan.waves for f in self.add_wave(w, x0)]

    def event(
        self,
        point: tuple[float, float],
        incoming: list[Front],
        outgoing: list[Front],
        delta_strength: float | None = None,
    ) -> None:
        for f in incoming:
            f.t_death = point[1]
        self.events.append(Event(
            point,
            tuple(f.id for f in incoming),
            tuple(f.id for f in outgoing),
            delta_strength,
        ))

    def timeline(self, d: PerturbedData, tag: str, **kwargs) -> InteractionTimeline:
        """Timeline of the fronts and events so far, settling into the
        exact outer fan."""
        return InteractionTimeline(
            d, tag, self.events, self.fronts, solve(d.outer_data()), **kwargs
        )


def _trivial_timeline(d: PerturbedData, anchor_x: float, tag: str) -> InteractionTimeline:
    """Degenerate data (middle equals an outer state): no interactions."""
    bld = _Builder()
    bld.add_fan(solve(d.outer_data()), anchor_x)
    return bld.timeline(d, tag)


def _shock_absorbs_contact(
    bld: _Builder, d: PerturbedData
) -> tuple[Shock, Front, tuple[float, float], list[Front], Wave]:
    """Both sub-fans of a J+S left problem; its shock absorbs the right
    problem's contact, if there is one.

    Returns the chasing shock (wave, front, start point) and the right
    problem's principal wave with its fronts.
    """
    eps = d.epsilon
    left, right = solve(d.left_data()), solve(d.right_data())
    s1w = left.waves[-1]
    s1 = bld.add_fan(left, -eps)[-1]
    right_fronts = bld.add_fan(right, eps)
    principal = right.waves[-1]
    if not isinstance(right.waves[0], Contact):
        # middle already on the right ray: nothing to absorb
        return s1w, s1, (-eps, 0.0), right_fronts, principal
    (x1, t1), (j3w, s3w) = interact_shock_contact(s1w, right.waves[0], eps, d.params)
    [j3] = bld.add_wave(j3w, x1, t1)
    [s3] = bld.add_wave(s3w, x1, t1)
    bld.event((x1, t1), [s1, right_fronts[0]], [j3, s3])
    return s3w, s3, (x1, t1), right_fronts[1:], principal


def _shock_through_fan_fronts(
    bld: _Builder,
    d: PerturbedData,
    entry: tuple[float, float],
    fan: Rarefaction | CompositeJR,
    chasing_left: State,
    incoming: list[Front],
    head: Front,
    born: tuple[Front, ...] = (),
    delta_strength: Optional[float] = None,
) -> bool:
    """Curved shock entering the right fan (origin +epsilon) at ``entry``,
    then the straight exit shock if the penetration completes.

    ``born`` are fronts the entry event emits left of the curve.
    Returns whether the penetration is asymptotic.
    """
    x0 = d.epsilon
    curve, exit_point, s4w = shock_through_fan(entry, fan, chasing_left, d.params, x0)
    cfront = bld.add(kind="curved-shock", t_birth=entry[1], x_birth=entry[0],
                     right_region=FanRegion(x0, fan.anchor), curve=curve)
    bld.event(entry, incoming, [*born, cfront], delta_strength)
    if exit_point is None:
        return True
    bld.event(exit_point, [cfront, head], bld.add_wave(s4w, *exit_point))
    return False


def _resolve_js_js(d: PerturbedData) -> InteractionTimeline:
    bld = _Builder()
    s3w, s3, start, [s2], s2w = _shock_absorbs_contact(bld, d)
    point, s4w = interact_shock_shock_chase(s3w, s2w, start, d.epsilon, d.params)
    bld.event(point, [s3, s2], bld.add_wave(s4w, *point))
    return bld.timeline(d, "JS+JS")


def _resolve_js_jr(d: PerturbedData) -> InteractionTimeline:
    eps = d.epsilon
    bld = _Builder()
    s3w, s3, (x1, t1), [f_tail, f_head], r2w = _shock_absorbs_contact(bld, d)
    # straight S3 reaches the fan tail
    xi2 = r2w.xi_lo
    t2 = (x1 - eps - s3w.speed * t1) / (xi2 - s3w.speed)
    x2 = eps + xi2 * t2
    asymptotic = _shock_through_fan_fronts(
        bld, d, (x2, t2), r2w, s3w.left, [s3, f_tail], f_head
    )
    return bld.timeline(d, "JS+JR", asymptotic=asymptotic)


def _resolve_ds_jr(d: PerturbedData) -> InteractionTimeline:
    """Split of the left delta front on the composite wave (vanishing h_m).

    The delta, moving at lambda1(left), meets the stationary contact of
    the composite at (eps, 2 eps / lambda1(left)), which is
    (eps, 6 eps / (3 a h- b- + k h-^2)) in exact arithmetic, carrying
    strength 2 b_m eps.  Overcompressibility fails beyond, so the point
    mass freezes on a delta contact while a regular shock enters the
    composite's fan from its tail.
    """
    eps = d.epsilon
    bld = _Builder()
    [ds1] = bld.add_fan(solve(d.left_data()), -eps)
    right = solve(d.right_data())
    j2, f_head = bld.add_fan(right, eps)
    comp = right.waves[0]
    sigma1 = phi(d.left, d.params)
    point = (eps, 2.0 * eps / sigma1)
    strength = 2.0 * d.middle.b * eps
    m = intermediate_state(d.outer_data())
    dj3 = bld.add(kind="delta-contact", t_birth=point[1], x_birth=point[0],
                  speed=sigma1, right_region=ConstRegion(m),
                  strength_of_t=lambda t: strength)
    asymptotic = _shock_through_fan_fronts(
        bld, d, point, comp, m, [ds1, j2], f_head,
        born=(dj3,), delta_strength=strength,
    )
    return bld.timeline(d, "dS+JR", asymptotic=asymptotic)


def shock_overtakes_delta(
    s1w: Shock, ds2w: DeltaShock, d: PerturbedData
) -> tuple[tuple[float, float], float, DeltaShock]:
    """Shock absorbs the slower delta front.

    The merged singular front moves at lambda1 of the outer left state,
    parallel to the leading contact, with the inherited strength growing
    at the unperturbed rate.  Returns the collision point, the strength
    there and the merged front.
    """
    sigma1, sigma_d2 = s1w.speed, ds2w.speed
    if sigma1 <= sigma_d2:
        raise NoInteractionError("shock is not faster than the delta front")
    eps = d.epsilon
    t1 = 2.0 * eps / (sigma1 - sigma_d2)
    x1 = (sigma1 + sigma_d2) * eps / (sigma1 - sigma_d2)
    beta1 = ds2w.right.b * sigma_d2 * t1
    sigma_d3 = phi(s1w.left, d.params)
    ds3 = DeltaShock(sigma_d3, ds2w.right.b * sigma_d3, s1w.left, ds2w.right)
    return (x1, t1), beta1, ds3


def _resolve_js_ds(d: PerturbedData) -> InteractionTimeline:
    eps = d.epsilon
    left, right = solve(d.left_data()), solve(d.right_data())
    bld = _Builder()
    s1 = bld.add_fan(left, -eps)[-1]
    [ds2] = bld.add_fan(right, eps)
    point, beta1, ds3w = shock_overtakes_delta(left.waves[-1], right.waves[0], d)
    bld.event(point, [s1, ds2], bld.add_wave(ds3w, *point, strength=beta1), beta1)
    return bld.timeline(d, "JS+dS")


def delta_through_fan(ds2w: DeltaShock, fan: Rarefaction, d: PerturbedData) -> tuple[
    tuple[float, float], CurvedWave, Callable[[float], float], tuple[float, float], DeltaShock
]:
    """Delta front penetrating the left fan after its head catches up.

    From t1 = eps / w1_m the support solves dx/dt = (x + eps)/(3t), so
    x + eps = 3 eps (t/t1)^(1/3), and the swept right-state mass gives the
    strength beta1 + 3 eps b+ ((t/t1)^(1/3) - 1), both exact at t1.  The
    front leaves the (slower) fan tail at t2 = t1 r sqrt(r), r = w1_m / w1_l,
    and then runs parallel to the leading contact.  Roots are taken only of
    t/t1 and r, which the scaling group leaves unchanged.
    Returns the entry point, the curve, the strength along it, the exit
    point and the outgoing delta front.
    """
    p = d.params
    eps = d.epsilon
    w1_m = phi(d.middle, p)
    w1_l = phi(d.left, p)
    b_plus = ds2w.right.b
    t1 = eps / w1_m
    x1 = 2.0 * eps
    beta1 = b_plus * ds2w.speed * t1  # equals b_plus * eps

    def x_of_t(t: float) -> float:
        return eps * (3.0 * (t / t1) ** (1.0 / 3.0) - 1.0)

    def strength_of_t(t: float) -> float:
        return b_plus * 3.0 * eps * ((t / t1) ** (1.0 / 3.0) - 1.0) + beta1

    def state_of_t(t: float) -> State:
        return rarefaction_state((x_of_t(t) + eps) / t, fan.anchor, p)

    t2 = t1 * (w1_m / w1_l) * math.sqrt(w1_m / w1_l)
    x2 = 3.0 * w1_l * t2 - eps
    curve = CurvedWave(x_of_t, state_of_t)
    ds4 = DeltaShock(w1_l, b_plus * w1_l, fan.left, ds2w.right)
    return (x1, t1), curve, strength_of_t, (x2, t2), ds4


def _resolve_jr_ds(d: PerturbedData) -> InteractionTimeline:
    eps = d.epsilon
    left, right = solve(d.left_data()), solve(d.right_data())
    ds2w = right.waves[0]
    bld = _Builder()
    *_, f_tail, f_head = bld.add_fan(left, -eps)
    [ds2] = bld.add_fan(right, eps)
    entry, curve, beta, exit_point, ds4w = delta_through_fan(ds2w, left.waves[-1], d)
    cfront = bld.add(kind="curved-delta", t_birth=entry[1], x_birth=entry[0],
                     right_region=ConstRegion(ds2w.right), curve=curve, strength_of_t=beta)
    bld.event(entry, [f_head, ds2], [cfront], beta(entry[1]))
    beta2 = beta(exit_point[1])
    bld.event(exit_point, [cfront, f_tail], bld.add_wave(ds4w, *exit_point, strength=beta2), beta2)
    return bld.timeline(d, "JR+dS")


# ---------------------------------------------------------------------------
# generic engine (discretized fans)


def _discretize_fan(w: Rarefaction, p: Params, dw1_target: float) -> list[tuple[float, State, State]]:
    """Fan as expansion shocklets with roughly equal w1 jumps."""
    w1_lo = phi(w.left, p)
    w1_hi = phi(w.right, p)
    n = max(1, int(math.ceil((w1_hi - w1_lo) / dw1_target)))
    c = _ray_coefficient(w.anchor, p)
    w2 = w.anchor.b / w.anchor.h
    hs = np.sqrt(np.linspace(w1_lo, w1_hi, n + 1) / c).tolist()
    states = [State(h, w2 * h) for h in hs]
    return [(shock_speed(a, bst, p), a, bst) for a, bst in zip(states[:-1], states[1:])]


def _generic_timeline(
    d: PerturbedData, tag: str, n_fan: int, budget: float, t_max: float
) -> InteractionTimeline:
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

    # Event queue (Holden & Risebro 2002; Dafermos 1972), bit for bit equal to
    # re-sorting the live fronts and rescanning their adjacent pairs per event.
    # right_of/left_of link live ids (-1 at the ends) in that sort's order, taken
    # at t = 0 by (position, speed) over creation order and kept because fronts
    # cross only by colliding; an event puts its new fronts, sorted alike, in its
    # group's place.  `queue` gets a pair's (t*, x*) by the rescan's formula and
    # filters when it becomes adjacent; an entry whose a is dead or whose
    # right_of[a] != b is stale and dropped, so the top is the rescan's minimum.
    # The group (live fronts within 1e-9 * max(|x*|, eps) of x* at t*) is the
    # contiguous run around a, sorted stably by -speed as before.  Every test is
    # relative to what it compares, so scaled data give the scaled timeline.
    fronts, queue, left_of, right_of = bld.fronts, [], {}, {}

    def link(i: int, j: int) -> None:
        right_of[i], left_of[j] = j, i
        if i < 0 or j < 0:
            return
        a, b = fronts[i], fronts[j]
        if a.speed - b.speed <= 1e-12 * max(abs(a.speed), abs(b.speed)):
            return
        t_star = (b.x_birth - b.speed * b.t_birth - a.x_birth + a.speed * a.t_birth) / (a.speed - b.speed)
        if t_star - max(a.t_birth, b.t_birth) > 1e-12 * t_star:
            heapq.heappush(queue, (t_star, a.position(t_star), i, j))

    chain = [-1, *(f.id for f in sorted(fronts, key=lambda f: (f.position(0.0), f.speed))), -1]
    while True:
        for i, j in zip(chain[:-1], chain[1:]):
            link(i, j)
        while queue and (fronts[queue[0][2]].t_death < math.inf or right_of[queue[0][2]] != queue[0][3]):
            heapq.heappop(queue)
        if not queue or queue[0][0] > t_max:
            break
        t_star, x_star, i, _ = heapq.heappop(queue)
        near = lambda k: k >= 0 and abs(fronts[k].position(t_star) - x_star) <= 1e-9 * max(abs(x_star), eps)
        run = [i]
        while near(left_of[run[0]]):
            run.insert(0, left_of[run[0]])
        while near(right_of[run[-1]]):
            run.append(right_of[run[-1]])
        chain = [left_of[run[0]], right_of[run[-1]]]
        group = sorted((fronts[k] for k in run), key=lambda f: -f.speed)
        first_new = len(fronts)
        for w in solve(RiemannData(lefts[group[0].id], group[-1].right_region.state, p)).waves:
            push_wave(w, x_star, t_star)
        bld.event((x_star, t_star), group, fronts[first_new:])
        chain[1:1] = [f.id for f in sorted(fronts[first_new:], key=lambda f: (f.position(t_star), f.speed))]
        if len(bld.events) > budget:
            raise EventBudgetError(f"interaction cascade exceeded {budget} events")

    return bld.timeline(d, tag)


_CLOSED_FORMS: dict[str, Callable[[PerturbedData], InteractionTimeline]] = {
    "JS+JS": _resolve_js_js,
    "JS+JR": _resolve_js_jr,
    "dS+JR": _resolve_ds_jr,
    "JS+dS": _resolve_js_ds,
    "JR+dS": _resolve_jr_ds,
}


def run_timeline(
    d: PerturbedData,
    t_max: float = math.inf,
    n_fan: int = 64,
    budget: int = 10000,
    force_generic: bool = False,
) -> InteractionTimeline:
    """Resolve the perturbed Riemann problem into an event timeline.

    Closed-form resolvers cover the shock/contact cascades and all
    singular interactions; fan-fan patterns (and anything classical when
    ``force_generic`` is set) run through the discretized-fan engine
    with ``n_fan`` shocklets per initial fan.  A middle state equal to an
    outer one (relative 1e-10) is degenerate data: the outer fan alone.

    ``t_max``, ``n_fan`` and ``budget`` are read by the generic engine
    alone (their values are checked for every pattern): a closed-form
    pattern is resolved to its last event whatever ``t_max`` is.
    """
    if n_fan < 1:
        raise InvalidDataError(f"n_fan must be at least 1, got {n_fan}")
    if budget < 0:
        raise InvalidDataError(f"budget must not be negative, got {budget}")
    if not t_max > 0.0:
        raise InvalidDataError(f"t_max must be positive, got {t_max}")
    if _states_equal(d.left, d.middle, _DEGENERATE_RTOL):
        return _trivial_timeline(d, d.epsilon, "degenerate")
    if _states_equal(d.middle, d.right, _DEGENERATE_RTOL):
        return _trivial_timeline(d, -d.epsilon, "degenerate")

    tag = classify_case(d)
    resolve = None if force_generic else _CLOSED_FORMS.get(tag)
    if resolve is not None:
        return resolve(d)
    if "dS" in tag:
        raise UnsupportedCaseError("generic engine cannot track singular fronts")
    return _generic_timeline(d, tag, n_fan, budget, t_max)


def _fronts_at(sol: WaveFan | InteractionTimeline, t: float) -> list[Front]:
    """The fronts of a fan or a timeline alive at time t, left to right."""
    return _Builder().add_fan(sol, 0.0) if isinstance(sol, WaveFan) else sol.alive_fronts(t)


def _point_masses(sol: WaveFan | InteractionTimeline, t: float) -> list[tuple[float, float]]:
    """Position and strength of each point mass at time t, left to right;
    a fan's delta sits at speed * t with strength rate * t."""
    return [(f.position(t), f.strength_of_t(t)) for f in _fronts_at(sol, t) if f.strength_of_t is not None]


def _regular_parts(sol: WaveFan | InteractionTimeline, t: float) -> tuple[list[float], list]:
    """Front positions at time t and, on each region between them, h and b
    as (s, o, c): s*sqrt(x - o) in a fan about x = o, else the constant c
    (s = 0)."""
    fronts = _fronts_at(sol, t)
    p, parts = sol.data.params, []
    for r in [ConstRegion(sol.data.left)] + [f.right_region for f in fronts]:
        if isinstance(r, ConstRegion):
            parts.append(((0.0, 0.0, r.state.h), (0.0, 0.0, r.state.b)))
        else:  # rarefaction_state's closed form
            a = r.anchor
            s = math.sqrt(a.h / (t * (3.0 * p.alpha * a.b + p.kappa * a.h)))
            parts.append(((s, r.origin_x, 0.0), (s * a.b / a.h, r.origin_x, 0.0)))
    return [f.position(t) for f in fronts], parts


def l1_distance(a: WaveFan | InteractionTimeline, b: WaveFan | InteractionTimeline, t: float) -> float:
    """Exact L1 distance, h and b summed, between the regular parts of two
    solutions with the same outer states at time t (point masses are not
    compared).

    Between consecutive fronts of either solution each component f is
    s*sqrt(x - o) or a constant, so f^2 is affine in x: f - g changes sign
    at most once, where f^2 = g^2, and integrates in closed form on either
    side, as u * sqrt(u) with u = max(x - o, 0): correctly rounded, no pow.
    Swapping a and b negates every term: the result is symmetric.
    """
    if not (math.isfinite(t) and t > 0.0):
        raise InvalidDataError(f"distance time must be finite and positive, got t={t}")
    if (a.data.left, a.data.right) != (b.data.left, b.data.right):
        raise InvalidDataError("the two solutions must share their outer states")

    def integral(comp: tuple, x: float, y: float) -> float:
        s, o, c = comp
        u, v = max(x - o, 0.0), max(y - o, 0.0)
        return c * (y - x) if s == 0.0 else 2.0 / 3.0 * s * (v * math.sqrt(v) - u * math.sqrt(u))

    (xa, pa), (xb, pb) = _regular_parts(a, t), _regular_parts(b, t)
    edges, total = sorted({*xa, *xb}), 0.0
    for u, v in zip(edges[:-1], edges[1:]):
        m = 0.5 * (u + v)
        for f, g in zip(pa[bisect.bisect(xa, m)], pb[bisect.bisect(xb, m)]):
            (sf, of, cf), (sg, og, cg) = f, g
            cuts, slope = [u, v], sf * sf - sg * sg
            if slope != 0.0 and u < (root := ((sf * sf * of - cf * cf) - (sg * sg * og - cg * cg)) / slope) < v:
                cuts.insert(1, root)
            total += sum(abs(integral(f, x, y) - integral(g, x, y)) for x, y in zip(cuts[:-1], cuts[1:]))
    return total


def _front_doc(f: Front) -> dict:
    doc = {
        "id": f.id,
        "kind": f.kind,
        "t_birth": f.t_birth,
        "t_death": None if math.isinf(f.t_death) else f.t_death,
        "x_birth": f.x_birth,
    }
    if f.curve is None:
        doc["speed"] = f.speed
    else:
        t_hi = f.t_death if math.isfinite(f.t_death) else f.t_birth * 8.0 + 1.0
        ts = np.linspace(f.t_birth, t_hi, 33)
        doc["curve"] = [[float(t), float(f.curve.x_of_t(t))] for t in ts]
    if f.strength_of_t is not None:
        t_probe = f.t_birth + 1.0
        doc["strength_at_birth"] = float(f.strength_of_t(f.t_birth))
        doc["strength_probe"] = [t_probe, float(f.strength_of_t(t_probe))]
    return doc


def timeline_to_json(tl: InteractionTimeline) -> dict:
    """JSON-ready timeline document (events, fronts, curves sampled at 33
    times, final fan)."""
    d, dj = tl.data, tl.residual_delta_contact
    return {
        "epsilon": d.epsilon,
        "left": asdict(d.left),
        "middle": asdict(d.middle),
        "right": asdict(d.right),
        "params": asdict(d.params),
        "case": tl.case_tag,
        "asymptotic": tl.asymptotic,
        "events": [
            {
                "x": e.point[0],
                "t": e.point[1],
                "incoming": list(e.incoming),
                "outgoing": list(e.outgoing),
                "delta_strength": e.delta_strength,
            }
            for e in tl.events
        ],
        "fronts": [_front_doc(f) for f in tl.fronts],
        "residual_delta_contact": None if dj is None else {
            "speed": dj.speed, "strength": dj.strength_of_t(dj.t_birth),
        },
        "final_fan": fan_to_json(tl.final_fan),
    }
