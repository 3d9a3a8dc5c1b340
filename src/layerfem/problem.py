"""Two-point convection-diffusion boundary value problems.

The problem class is

    -epsilon*u'' - b(x)*u' + c(x)*u = f(x)  on (0, 1),   u(0) = u(1) = 0,

with b >= beta > 1 and c + b'/2 >= gamma > 0, so the solution develops a
boundary layer of width O(epsilon*log(1/epsilon)) at x = 0 and splits into a
smooth part plus a layer part, u = S + E.  Coefficient callables must accept
numpy arrays and be pure.  An exact solution gives (u, u') from one call, of
which u is the first entry, the split u = S + E used by the interpolants, and
optionally its far field, where u is a polynomial of degree <= 1.
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
    """Exact solution: (u, u') from one call, the split u = S + E (smooth + layer) and
    optionally the far field (reach, p): u = p, of degree <= 1, in floating point past reach."""

    u_and_prime: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    S: ScalarFn
    E: ScalarFn
    far_field: tuple[float, ScalarFn] | None = None

    def u(self, x: np.ndarray) -> np.ndarray:
        """u at ``x``: the first entry of ``u_and_prime(x)``, its one source."""
        return self.u_and_prime(x)[0]

    def validate(self) -> None:
        """Check u(0) = u(1) = 0, u = S + E and u = p past reach on a uniform grid."""
        # Each test is written so that a NaN fails it.
        if not np.all(np.abs(self.u(np.array([0.0, 1.0]))) <= _TOL):
            raise ValueError("exact solution must vanish at both endpoints")
        x = np.linspace(0.0, 1.0, _N_SAMPLES)
        u = self.u(x)
        gap = np.max(np.abs(u - (self.S(x) + self.E(x))))
        if not gap <= _TOL:
            raise ValueError(f"u and S + E disagree by {gap:.3e} (> {_TOL:.0e})")
        if self.far_field is not None:
            reach, poly = self.far_field
            gap = np.max(np.abs(u - poly(x))[x >= reach], initial=0.0)
            if not gap == 0.0:
                raise ValueError(f"u and its far field differ past reach {reach:.6g} by {gap:.3e}")


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

    split as S(x) = 1 - x and E(x) = -(1 - x)*exp(-2x/epsilon), with far field
    (reach, 1 - x) for reach below.  The forcing f is evaluated from the
    closed-form derivatives: with E0 = exp(-2x/eps),

        u'  = -1 + E0*(1 + 2(1-x)/eps)
        u'' = -(2/eps)*E0*(2 + 2(1-x)/eps)

    and f = -eps*u'' - (3-x)*u' + u; u_and_prime and f evaluate E0 once per call.
    -2x/eps is floored at a_min = log(2^-56 * eps/(1+eps)), so exp never
    underflows.  The floor changes no bit on [0, 1], and (u, u') is exactly
    (1 - x, -1) at x >= reach = -eps*a_min/2, as every E0 the floor or the far
    field touch is at most E = 2^-56 * eps/(1+eps): (a) 1 - E0 rounds to 1;
    (b) s = 1 + 2(1-x)/eps has s*E0 <= (1 + 2/eps)*E <= 2^-55, so s*E0 - 1
    rounds to -1; (c) f's diffusion term 2*E0*(2 + 2(1-x)/eps) <= 2^-54 is
    absorbed by 3 - x in [2, 3].
    -2x/eps and 2(1-x)/eps are computed as x/(-eps/2) and (1-x)/(eps/2), one
    array pass fewer each: the doublings and eps/2 are exact for
    eps >= 2^-1021, so both forms are one rounding of the same quotient.
    The problem is immutable, so it is built once per epsilon and shared.
    """
    eps = float(epsilon)
    half_eps = eps / 2.0
    a_min = math.log(2.0**-56 * eps / (1.0 + eps))
    reach = -eps * a_min / 2.0

    def layer_terms(x):
        # E0, u and u' in place, each operation in the order of the formulas.
        e0 = np.asarray(np.divide(x, -half_eps))
        np.maximum(e0, a_min, out=e0)   # bit-identical on [0, 1]: (a)-(c) in the docstring
        np.exp(e0, out=e0)
        s = 1.0 - x
        u_x = (1.0 - e0) * s
        s /= half_eps
        s += 1.0
        s *= e0
        s -= 1.0
        return e0, u_x, s

    def u_and_prime(x):
        return layer_terms(np.asarray(x))[1:]

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

    exact = ExactSolution(u_and_prime=u_and_prime, S=smooth, E=layer, far_field=(reach, smooth))
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

