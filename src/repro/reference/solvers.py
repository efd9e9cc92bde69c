"""Packaged PDE solvers on top of the kernel pipeline.

The examples' workloads (explicit heat, leapfrog wave) as reusable
classes: each time-steps a physical problem with its stencil running
through any of the library's kernel variants on a chosen platform, and
tracks conserved/diagnostic quantities for validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from repro.bricks.layout import BrickDims
from repro.dsl.derivatives import laplacian
from repro.dsl.stencil import Stencil
from repro.errors import SimulationError
from repro.gpu.progmodel import Platform
from repro.gpu.simulator import fitting_tile
from repro.util import dims_to_shape


def _run_kernel(*args, **kwargs):
    # Imported lazily: repro.kernels itself imports the reference oracle.
    from repro.kernels import run

    return run(*args, **kwargs)


@dataclass
class HeatSolver:
    """Explicit 3D heat equation, Dirichlet-zero boundary.

    ``u_t = alpha * laplacian(u)`` stepped with the order-``order``
    Laplacian; the update ``u + nu * h^2 * lap(u)`` is fused into one
    stencil per step.
    """

    domain: Tuple[int, int, int]  # (ni, nj, nk)
    platform: Platform
    alpha: float = 1.0
    h: float = 1.0
    cfl: float = 0.125
    order: int = 2
    variant: str = "bricks_codegen"
    steps_taken: int = field(default=0, init=False)
    _stencil: Stencil = field(init=False, repr=False)
    _dims: BrickDims = field(init=False, repr=False)
    u: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        lap = laplacian(order=self.order, h=self.h)
        dt = self.cfl * self.h * self.h / self.alpha
        self.dt = dt
        nu = self.alpha * dt
        weights = {off: nu * w for off, w in lap.weights().items()}
        centre = tuple(0 for _ in range(3))
        weights[centre] = weights.get(centre, 0.0) + 1.0
        from repro.dsl.shapes import from_weights

        self._stencil = from_weights(weights)
        self._dims = fitting_tile(self.domain, self.platform,
                                  self._stencil.radius)
        r = self._stencil.radius
        self.u = np.zeros(tuple(n + 2 * r for n in dims_to_shape(self.domain)))

    @property
    def radius(self) -> int:
        return self._stencil.radius

    def set_interior(self, values: np.ndarray) -> None:
        r = self.radius
        interior = tuple(slice(r, -r) for _ in range(3))
        if values.shape != self.u[interior].shape:
            raise SimulationError(
                f"interior shape {values.shape} != {self.u[interior].shape}"
            )
        self.u[interior] = values

    def interior(self) -> np.ndarray:
        r = self.radius
        return self.u[tuple(slice(r, -r) for _ in range(3))]

    def step(self, n: int = 1) -> None:
        for _ in range(n):
            out = _run_kernel(
                self.variant, self._stencil, self.platform,
                domain=self.domain, bindings={}, input_dense=self.u,
                dims=self._dims,
            )
            r = self.radius
            self.u[tuple(slice(r, -r) for _ in range(3))] = out.output
            self.steps_taken += 1

    def thermal_energy(self) -> float:
        """Total heat content (decays under Dirichlet-zero boundaries)."""
        return float(self.interior().sum()) * self.h**3


@dataclass
class WaveSolver:
    """Leapfrog acoustic wave equation with a high-order Laplacian."""

    domain: Tuple[int, int, int]
    platform: Platform
    c: float = 1.0
    h: float = 1.0
    cfl: float = 0.2
    order: int = 8
    variant: str = "bricks_codegen"
    steps_taken: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self._lap = laplacian(order=self.order, h=1.0)  # h folded into coeff
        self.dt = self.cfl * self.h / self.c
        self._coeff = (self.c * self.dt / self.h) ** 2
        self._dims = fitting_tile(self.domain, self.platform,
                                  self._lap.radius)
        r = self._lap.radius
        shape = tuple(n + 2 * r for n in dims_to_shape(self.domain))
        self.u_prev = np.zeros(shape)
        self.u_curr = np.zeros(shape)

    @property
    def radius(self) -> int:
        return self._lap.radius

    def _interior_slices(self):
        r = self.radius
        return tuple(slice(r, -r) for _ in range(3))

    def set_initial(self, u0: np.ndarray, u1: np.ndarray) -> None:
        sl = self._interior_slices()
        self.u_prev[sl] = u0
        self.u_curr[sl] = u1

    def step(self, n: int = 1) -> None:
        sl = self._interior_slices()
        for _ in range(n):
            out = _run_kernel(
                self.variant, self._lap, self.platform, domain=self.domain,
                bindings={}, input_dense=self.u_curr, dims=self._dims,
            )
            u_next = np.zeros_like(self.u_curr)
            u_next[sl] = (
                2.0 * self.u_curr[sl] - self.u_prev[sl] + self._coeff * out.output
            )
            self.u_prev, self.u_curr = self.u_curr, u_next
            self.steps_taken += 1

    def energy(self) -> float:
        """Discrete energy (kinetic + potential proxy); ~conserved."""
        sl = self._interior_slices()
        v = (self.u_curr[sl] - self.u_prev[sl]) / self.dt
        kinetic = 0.5 * float((v * v).sum())
        grads = 0.0
        for axis in range(3):
            d = np.diff(self.u_curr[sl], axis=axis) / self.h
            grads += float((d * d).sum())
        return (kinetic + 0.5 * self.c**2 * grads) * self.h**3


__all__ = ["HeatSolver", "WaveSolver"]
