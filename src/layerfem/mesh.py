"""Layer-adapted 1D meshes for problems with a boundary layer at x = 0.

Nodes are x_i = x(i/N) for i = 0..N.  The graded families share one
Bakhvalov-type generating function: x(t) = -sigma*eps*ln(1 - a*t) up to a
breakpoint theta, then linear to x(1) = 1.  They differ in (a, theta):
roos takes a = 2(1 - eps), theta = 1/2; kopteva a = 2, theta = 1/2 - c1*eps.
The uniform family is x(t) = t.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

__all__ = [
    "MeshFamily",
    "MeshSpec",
    "Mesh1D",
    "MeshAssumptionWarning",
    "generate",
    "check_step_sizes",
    "StepSizeChecks",
    "mesh_to_csv",
]


class MeshFamily(str, Enum):
    """Supported mesh generating functions."""

    ROOS = "roos"
    KOPTEVA = "kopteva"
    UNIFORM = "uniform"


class MeshAssumptionWarning(UserWarning):
    """A mesh was generated outside the parameter regime its step-size bounds assume."""


@dataclass(frozen=True)
class MeshSpec:
    """Parameters of a graded mesh.

    Parameters
    ----------
    family : MeshFamily or str
        Which generating function to use; a family name such as ``"roos"``
        is converted to its :class:`MeshFamily` (an unknown name raises a
        ValueError).
    N : int
        Number of mesh intervals; must be even and at least 4.
    sigma : float
        Grading exponent (>= 1); controls how strongly the layer is resolved.
    epsilon : float
        Perturbation parameter in (0, 1).
    c1 : float, optional
        Breakpoint constant of the KOPTEVA map; the breakpoint sits at
        t = 1/2 - c1*epsilon.  Required for KOPTEVA.

    N, sigma, epsilon and c1 are checked for every family; the graded map's
    own conditions only where :func:`generate` uses it (epsilon <= 1/N): roos
    needs 1 - eps < 1 in floating point (false for eps <= 2^-54 ~ 5.55e-17),
    kopteva the breakpoint t = 1/2 - c1*eps in (0, 1/2 - 2^-52], and the
    layer part must end inside the domain (roos: sigma*eps*ln(1/eps) < 1;
    kopteva: sigma*eps*ln(1/(2*c1*eps)) < 1), and a subnormal sigma*eps must
    leave kopteva's fine nodes -sigma*eps*ln(1 - 2t) distinct in floating point.
    A violated condition raises a ValueError that names it.
    """

    family: MeshFamily
    N: int
    sigma: float
    epsilon: float
    c1: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", MeshFamily(self.family))
        if self.N < 4 or self.N % 2 != 0:
            raise ValueError(f"N must be an even integer >= 4, got {self.N}")
        if not self.sigma >= 1.0:
            raise ValueError(f"sigma must be >= 1, got {self.sigma}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.c1 is not None and not self.c1 > 0.0:
            raise ValueError(f"c1 must be positive, got {self.c1}")
        if self.family is MeshFamily.KOPTEVA and self.c1 is None:
            raise ValueError("family 'kopteva' requires the breakpoint constant c1")
        if self.graded:
            self._graded_map()

    @property
    def graded(self) -> bool:
        """Whether :func:`generate` uses the graded map; for epsilon > 1/N it
        falls back to a uniform mesh, which resolves the layer less well."""
        return self.family is not MeshFamily.UNIFORM and self.epsilon <= 1.0 / self.N

    def _graded_map(self) -> tuple[float, float, float]:
        # (a, theta, x_theta) of the graded map; x_theta = x(theta), with
        # rest = 1 - a*theta in closed form.  The checks run before the log,
        # whose argument can underflow to 0 when one fails; past x = 1 the
        # linear part would run backwards.
        eps = self.epsilon
        if self.family is MeshFamily.ROOS:
            if not 1.0 - eps < 1.0:
                raise ValueError(f"roos mesh needs 1 - eps < 1 in floating point, got eps = {eps}")
            a, theta, rest = 2.0 * (1.0 - eps), 0.5, eps
            condition = "sigma*eps*ln(1/eps) < 1"
        else:
            c1_eps = self.c1 * eps
            theta = 0.5 - c1_eps
            # Below 1/2 - 2^-52, the uniform part's node at t = 1/2,
            # 1 - (1 - x_theta)/(2(1 - theta)), clears x_theta by
            # 2(1/2 - theta) >= 2^-51, twice its rounding error.
            if not 0.0 < theta <= 0.5 - 2.0**-52:
                raise ValueError(
                    f"breakpoint t = 1/2 - {self.c1}*{eps} = {theta} must lie in (0, 1/2 - 2^-52]"
                )
            a, rest = 2.0, 2.0 * c1_eps
            condition = "sigma*eps*ln(1/(2*c1*eps)) < 1"
            # Only a subnormal sigma*eps has too few bits to keep the fine
            # nodes apart; they are tested as generate computes them.
            if self.sigma * eps < sys.float_info.min:
                t = np.arange(self.N + 1, dtype=float) / self.N
                if not np.all(np.diff(self._fine_nodes(a, t[t <= theta])) > 0.0):
                    raise ValueError("kopteva fine nodes -sigma*eps*ln(1 - 2t) must be distinct in "
                                     f"floating point, got sigma = {self.sigma}, eps = {eps}")
        x_theta = -self.sigma * eps * math.log(rest)
        if not x_theta < 1.0:
            raise ValueError(
                f"{self.family.value} mesh needs {condition}, got {x_theta:.6g} "
                f"(sigma = {self.sigma}, eps = {eps})"
            )
        return a, theta, x_theta

    def _fine_nodes(self, a: float, t: np.ndarray) -> np.ndarray:
        """The graded map's layer part -sigma*eps*ln(1 - a*t) at t <= theta."""
        return -self.sigma * self.epsilon * np.log(1.0 - a * t)


@dataclass(frozen=True, eq=False)
class Mesh1D:
    """Nodes x_0 = 0 < x_1 < ... < x_N = 1, their spec, and the read-only
    steps h_i = x_{i+1} - x_i."""

    nodes: np.ndarray
    spec: MeshSpec
    steps: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size != self.spec.N + 1:
            raise ValueError(f"expected {self.spec.N + 1} nodes, got {nodes.size}")
        if nodes[0] != 0.0 or nodes[-1] != 1.0:
            raise ValueError("mesh must span [0, 1] exactly")
        steps = np.diff(nodes)
        if not np.all(steps > 0.0):
            raise ValueError("mesh nodes must be strictly increasing")
        nodes.setflags(write=False)
        steps.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "steps", steps)

    @property
    def N(self) -> int:
        """Number of mesh intervals."""
        return self.nodes.size - 1


def generate(spec: MeshSpec) -> Mesh1D:
    """Generate the mesh described by ``spec``.

    When epsilon > 1/N a uniform mesh is returned instead (see
    :attr:`MeshSpec.graded`); the returned mesh's spec records the fallback.
    A :class:`MeshAssumptionWarning` is emitted when the breakpoint constant
    exceeds 1/(epsilon*N), in which case the step-size bounds of
    :func:`check_step_sizes` are no longer guaranteed.
    """
    N = spec.N
    t = np.arange(N + 1, dtype=float) / N

    if not spec.graded:
        nodes = t
        spec = replace(spec, family=MeshFamily.UNIFORM)
    else:
        if spec.family is MeshFamily.KOPTEVA and spec.c1 > 1.0 / (spec.epsilon * N):
            warnings.warn(
                f"breakpoint constant {spec.c1} exceeds 1/(epsilon*N) = "
                f"{1.0 / (spec.epsilon * N):.6g}; step-size bounds may fail",
                MeshAssumptionWarning,
                stacklevel=2,
            )
        a, theta, x_theta = spec._graded_map()
        nodes = np.empty_like(t)
        m = np.searchsorted(t, theta, "right")   # t is increasing: t[:m] <= theta
        nodes[:m] = spec._fine_nodes(a, t[:m])
        nodes[m:] = 1.0 - (1.0 - x_theta) / (1.0 - theta) * (1.0 - t[m:])

    # Both endpoints are exact by construction; pin them against round-off.
    nodes[0] = 0.0
    nodes[-1] = 1.0
    return Mesh1D(nodes=nodes, spec=spec)


@dataclass(frozen=True)
class StepSizeChecks:
    """Pass/fail record of the graded-mesh step-size bounds.

    The four bounds are verified for roos and kopteva with sigma in
    {2, 3, 4, 5}, c1 = 2.5, epsilon in {1e-4, ..., 1e-9} and N in
    {8, ..., 2048}, so epsilon*N <= 0.21 throughout.  Admissibility alone
    does not guarantee them: for larger epsilon*N they can fail without a
    :class:`MeshAssumptionWarning` (roos, N = 12, epsilon = 0.06875,
    sigma = 3.157 has coarse steps below 1/N).  ``midpoint_left_of_half``
    is a diagnostic, not a guarantee.
    """

    fine_steps_nondecreasing: bool
    pre_transition_step_bounded: bool
    transition_step_bounded: bool
    coarse_steps_bounded: bool
    midpoint_left_of_half: bool

    @property
    def all_bounds_hold(self) -> bool:
        return (
            self.fine_steps_nondecreasing
            and self.pre_transition_step_bounded
            and self.transition_step_bounded
            and self.coarse_steps_bounded
        )


def check_step_sizes(mesh: Mesh1D) -> StepSizeChecks:
    """Evaluate the step-size bounds of the graded mesh, exactly as stated.

    Checks, with h_i = x_{i+1} - x_i, m = N/2:
      * h_0 <= h_1 <= ... <= h_{m-2}
      * sigma*eps/4 <= h_{m-2} <= sigma*eps
      * sigma*eps/2 <= h_{m-1} <= 2*sigma/N
      * 1/N <= h_i <= 2/N for m <= i <= N-1
    and reports whether x_m <= 1/2.  Pure predicate evaluation; meshes
    outside the graded regime simply fail the bounds.
    """
    h = mesh.steps
    N = mesh.N
    m = N // 2
    sig_eps = mesh.spec.sigma * mesh.spec.epsilon

    return StepSizeChecks(
        fine_steps_nondecreasing=bool(np.all(np.diff(h[: m - 1]) >= 0.0)),
        pre_transition_step_bounded=bool(0.25 * sig_eps <= h[m - 2] <= sig_eps),
        transition_step_bounded=bool(
            0.5 * sig_eps <= h[m - 1] <= 2.0 * mesh.spec.sigma / N
        ),
        coarse_steps_bounded=bool(
            np.all((h[m:] >= 1.0 / N) & (h[m:] <= 2.0 / N))
        ),
        midpoint_left_of_half=bool(mesh.nodes[m] <= 0.5),
    )


def mesh_to_csv(mesh: Mesh1D) -> str:
    """Serialize a mesh as CSV with columns ``i,x_i,h_i`` (h empty on the last row)."""
    h = mesh.steps
    lines = ["i,x_i,h_i"]
    for i, x in enumerate(mesh.nodes):
        step = repr(float(h[i])) if i < h.size else ""
        lines.append(f"{i},{float(x)!r},{step}")
    return "\n".join(lines) + "\n"
