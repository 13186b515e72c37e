"""The paper's examples and the other named data of the test suite, in one table.

Each Riemann case is a ``RiemannData`` and each interaction pattern a
``PerturbedData``, with the ``Params`` (``h_tol`` included) its tests use;
a test that needs other parameters replaces them.  ``config``, ``options``
and ``state_options`` spell a case as a godunov/llf config or as command
line options.  It imports nothing but the standard library and thinfilm,
so the test files that run without the test extras import it too.
"""

from dataclasses import replace

from thinfilm.core import Params, State
from thinfilm.interactions import PerturbedData
from thinfilm.riemann import RiemannData

# surface tension alone, as in the paper's examples; and with gravity
FILM = Params(0.5, 0.0)
GRAVITY = Params(0.5, 1.0)

# The paper's Riemann examples
JR = RiemannData(State(1.24, 0.90), State(1.5, 1.56), FILM)
JS = RiemannData(State(1.5, 1.6), State(1.25, 1.15), FILM)
DELTA = RiemannData(State(2.9, 1.70), State(0.0, 5.56), FILM)
# the delta example with h+ = 1e-7: a vacuum at h_tol = 1e-6 (criterion 5's
# data), and J+S data at the default h_tol
NEAR_VACUUM_DELTA = replace(DELTA, right=State(1e-7, 5.56), params=Params(0.5, 0.0, h_tol=1e-6))
NEAR_VACUUM_JS = replace(NEAR_VACUUM_DELTA, params=FILM)
# equal w1 = alpha*h*b on two rays; and a fan out of a left state with h = 0
PURE_J = RiemannData(State(1.0, 2.0), State(2.0, 1.0), FILM)
COMPOSITE = RiemannData(State(0.0, 0.8), JR.right, GRAVITY)

# Two-state data of each case the scaling tests run, with gravity but for J+R
TWO_STATE = {
    "J+R": JR,
    "J+S": RiemannData(State(2.0, 1.0), State(1.0, 1.0), GRAVITY),
    "composite": RiemannData(State(0.0, 1.0), JR.right, GRAVITY),
    "delta": RiemannData(State(2.0, 2.0), State(0.0, 1.0), GRAVITY),
}

# Three-state data of each interaction pattern, named by its classify_case
# tag: JS+JR and JS+JS are the paper's examples 6.4 and 6.5, its J+R and
# J+S data with a middle state on (-0.1, 0.1)
JS_JS = PerturbedData(0.1, JS.left, State(0.95, 1.62), JS.right, FILM)
JS_JR = PerturbedData(0.1, JR.left, State(0.75, 1.25), JR.right, FILM)
# case 2 subcase 1: w1(left) > w1(right), so the shock crosses the whole fan
JS_JR_EXIT = PerturbedData(0.1, State(2.0, 1.5), State(1.0, 1.0), State(1.2, 1.0), FILM)
JR_JS = PerturbedData(0.1, State(1.0, 1.0), State(1.3, 1.3), State(0.9, 0.8), GRAVITY)
JR_JR = PerturbedData(0.1, State(0.8, 0.8), State(1.0, 1.1), State(1.5, 1.5), GRAVITY)
DS_JR = PerturbedData(0.1, JR.left, State(0.0, 5.5), JR.right, FILM)
JS_DS = PerturbedData(0.1, State(2.0, 1.5), State(1.0, 1.0), State(0.0, 2.0), GRAVITY)
JR_DS = PerturbedData(0.1, State(1.0, 1.0), State(1.0, 1.5), State(0.0, 2.0), GRAVITY)
PATTERNS = {"JS+JS": JS_JS, "JS+JR": JS_JR, "JS+JR-exit": JS_JR_EXIT, "JR+JS": JR_JS, "JR+JR": JR_JR,
            "dS+JR": DS_JR, "JS+dS": JS_DS, "JR+dS": JR_DS}
# the paper's example 6.6: dS+JR with a middle h = 1e-5 on the boundary at h_tol = 1e-4
DS_JR_NEAR_VACUUM = replace(DS_JR, middle=State(1e-5, 5.5), params=Params(0.5, 0.0, h_tol=1e-4))

_STATES = {RiemannData: ("left", "right"), PerturbedData: ("left", "middle", "right")}


def config(d, **keys) -> dict:
    """A godunov/llf config of the two- or three-state data ``d`` and the other ``keys``."""
    initial = {name: list(getattr(d, name)) for name in _STATES[type(d)]}
    if isinstance(d, PerturbedData):
        initial["epsilon"] = d.epsilon
    p = d.params
    return {"alpha": p.alpha, "kappa": p.kappa, "h_tol": p.h_tol, **keys, "initial": initial}


def arg(u: State) -> str:
    """``u`` as the value of a state option, 'h,b'."""
    return f"{u.h!r},{u.b!r}"


def state_options(d) -> str:
    """The --left, --middle (three-state data) and --right options of ``d``."""
    return " ".join(f"--{name} {arg(getattr(d, name))}" for name in _STATES[type(d)])


def options(d) -> str:
    """The riemann or interact options of ``d``: its parameters, epsilon and states."""
    p = d.params
    epsilon = f" --epsilon {d.epsilon!r}" if isinstance(d, PerturbedData) else ""
    return f"--alpha {p.alpha!r} --kappa {p.kappa!r} --h-tol {p.h_tol!r}{epsilon} {state_options(d)}"
