"""Two-point convection-diffusion boundary value problems.

The problem class is

    -epsilon*u'' - b(x)*u' + c(x)*u = f(x)  on (0, 1),   u(0) = u(1) = 0,

with b >= beta > 1 and c + b'/2 >= gamma > 0, so the solution develops a
boundary layer of width O(epsilon*log(1/epsilon)) at x = 0 and splits into a
smooth part plus a layer part, u = S + E.  Coefficient callables must accept
numpy arrays and be pure.  An exact solution gives (u, u') from one call, of
which u is the first entry, and the split u = S + E used by the interpolants.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ExactSolution",
    "TwoPointBVP",
    "layer_test_problem",
    "get_problem",
]

ScalarFn = Callable[[np.ndarray], np.ndarray]

_N_SAMPLES = 1000   # uniform grid on [0, 1] on which problem data is checked
_TOL = 1e-12        # validate's bound on |u| at the ends and on u - (S + E)


@dataclass(frozen=True)
class ExactSolution:
    """Exact solution: (u, u') from one call and the split u = S + E (smooth + layer)."""

    u_and_prime: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    S: ScalarFn
    E: ScalarFn

    def u(self, x: np.ndarray) -> np.ndarray:
        """u at ``x``: the first entry of ``u_and_prime(x)``, its one source."""
        return self.u_and_prime(x)[0]

    def validate(self) -> None:
        """Check u(0) = u(1) = 0 and u = S + E on a uniform grid."""
        if abs(float(self.u(np.array(0.0)))) > _TOL or abs(float(self.u(np.array(1.0)))) > _TOL:
            raise ValueError("exact solution must vanish at both endpoints")
        x = np.linspace(0.0, 1.0, _N_SAMPLES)
        gap = np.max(np.abs(self.u(x) - (self.S(x) + self.E(x))))
        if gap > _TOL:
            raise ValueError(f"u and S + E disagree by {gap:.3e} (> {_TOL:.0e})")


@dataclass(frozen=True)
class TwoPointBVP:
    """Problem data: coefficients b, c and b', forcing f and the parameter
    epsilon.  ``exact`` optionally carries the manufactured solution.
    """

    epsilon: float
    b: ScalarFn
    c: ScalarFn
    f: ScalarFn
    b_prime: ScalarFn
    exact: ExactSolution | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        beta, gamma = self.sampled_bounds()
        # Written so that a NaN sample fails each test.
        if not beta > 1.0:
            raise ValueError(f"b(x) must exceed 1 on [0, 1]; sampled minimum {beta:.6g}")
        if not gamma > 0.0:
            raise ValueError(
                f"c(x) + b'(x)/2 must be positive on [0, 1]; sampled minimum {gamma:.6g}"
            )
        x = np.linspace(0.0, 1.0, _N_SAMPLES)
        with np.errstate(over="ignore", invalid="ignore"):   # the check below names the fault
            f = np.broadcast_to(self.f(x), x.shape)
        if not np.isfinite(f).all():
            bad = np.isfinite(f).argmin()
            raise ValueError(f"f(x) must be finite on [0, 1]; sampled f({x[bad]:.6g}) = {f[bad]}")
        if self.exact is not None:
            self.exact.validate()

    def sampled_bounds(self) -> tuple[float, float]:
        """Sampled minima (beta, gamma) of b and c + b'/2 on a uniform grid."""
        x = np.linspace(0.0, 1.0, _N_SAMPLES)
        beta = float(np.min(np.broadcast_to(self.b(x), x.shape)))
        gamma = float(np.min(np.broadcast_to(self.c(x) + 0.5 * self.b_prime(x), x.shape)))
        return beta, gamma


@functools.lru_cache(maxsize=64)
def layer_test_problem(epsilon: float) -> TwoPointBVP:
    """Manufactured benchmark problem with a boundary layer at x = 0.

    Coefficients b(x) = 3 - x, c(x) = 1 and exact solution

        u(x) = (1 - x) * (1 - exp(-2x/epsilon)),

    split as S(x) = 1 - x and E(x) = -(1 - x)*exp(-2x/epsilon).  The forcing
    f is evaluated from the closed-form derivatives: with E0 = exp(-2x/eps),

        u'  = -1 + E0*(1 + 2(1-x)/eps)
        u'' = -(2/eps)*E0*(2 + 2(1-x)/eps)

    and f = -eps*u'' - (3-x)*u' + u; u_and_prime and f evaluate E0 once per call.
    -2x/eps is floored at a_min = log(2^-56 * eps/(1+eps)), so exp never
    underflows, and u_and_prime returns (1 - x, -1) for an array wholly at
    x >= reach = -eps*a_min/2.  Both are bit-identical on [0, 1], as every E0
    they change is at most E = 2^-56 * eps/(1+eps): (a) 1 - E0 rounds to 1;
    (b) s = 1 + 2(1-x)/eps has s*E0 <= (1 + 2/eps)*E <= 2^-55, so s*E0 - 1
    rounds to -1; (c) f's diffusion term 2*E0*(2 + 2(1-x)/eps) <= 2^-54 is
    absorbed by 3 - x in [2, 3].
    The problem is immutable, so it is built once per epsilon and shared.
    """
    eps = float(epsilon)
    a_min = math.log(2.0**-56 * eps / (1.0 + eps))
    reach = -eps * a_min / 2.0

    def layer_terms(x):
        # E0, u and u' in place, each operation in the order of the formulas.
        e0 = np.asarray(np.multiply(x, -2.0))
        e0 /= eps
        np.maximum(e0, a_min, out=e0)   # bit-identical on [0, 1]: (a)-(c) in the docstring
        np.exp(e0, out=e0)
        s = 1.0 - x
        u_x = (1.0 - e0) * s
        s *= 2.0
        s /= eps
        s += 1.0
        s *= e0
        s -= 1.0
        return e0, u_x, s

    def u_and_prime(x):
        # Screened on the first entry, so a mixed array pays no reduction.
        x = np.asarray(x)
        if x.size and x.item(0) >= reach and x.min() >= reach:
            u_x = 1.0 - x
            return u_x, np.full_like(u_x, -1.0)
        return layer_terms(x)[1:]

    def smooth(x):
        return 1.0 - x

    def layer(x):
        return -(1.0 - x) * np.exp(-2.0 * x / eps)

    def b(x):
        return 3.0 - x

    def b_prime(x):
        return -np.ones_like(np.asarray(x, dtype=float))

    def c(x):
        return np.ones_like(np.asarray(x, dtype=float))

    def f(x):
        e0, u_x, du_x = layer_terms(x)
        return -eps * (-(2.0 / eps) * e0 * (2.0 + 2.0 * (1.0 - x) / eps)) - b(x) * du_x + u_x

    exact = ExactSolution(u_and_prime=u_and_prime, S=smooth, E=layer)
    return TwoPointBVP(epsilon=eps, b=b, c=c, f=f, b_prime=b_prime, exact=exact)


_PROBLEMS: dict[str, Callable[[float], TwoPointBVP]] = {
    "layer-test": layer_test_problem,
}


def get_problem(name: str, epsilon: float) -> TwoPointBVP:
    """Look up a named benchmark problem."""
    try:
        factory = _PROBLEMS[name]
    except KeyError:
        known = ", ".join(sorted(_PROBLEMS))
        raise ValueError(f"unknown problem {name!r}; available: {known}") from None
    return factory(epsilon)

