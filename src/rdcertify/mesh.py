"""1-D uniform grid with no-flux (homogeneous Neumann) boundaries.

A grid places n_nodes nodes at x_j = j*h on the interval [0, length],
h = length/(n_nodes - 1).  Fields are float64 arrays with one value per
node.  The discrete Laplacian, which the diffusion solve in
``integrator`` builds into its matrix, is the three-point stencil closed
at both ends by ghost-node reflection (ghost[-1] = f[1], ghost[n] =
f[n-2]), so the endpoints see 2*(f[1] - f[0])/h^2 and
2*(f[n-2] - f[n-1])/h^2.  With trapezoid quadrature this makes the
discrete flux balance exact: the integral of any Laplacian is zero to
round-off.

``ParamError`` is the ValueError a parameter out of range raises; it
names the parameter, so a caller can map it to its own key (the CLI
maps it to the config key); ``check_positive`` and ``check_nonnegative``
are the one sites of "finite and > 0" and "finite and >= 0".  Field
shapes, ``n_per_axis``, growth specs and the SubExp/DoubleExpMinusPoly
parameters raise a plain ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ParamError(ValueError):
    """A library parameter failed validation; ``param`` names it."""

    def __init__(self, param: str, message: str):
        self.param = param
        super().__init__(message)


def check_positive(**values) -> None:
    """Raise ParamError naming the first value that is not finite and > 0."""
    for name, value in values.items():
        if not 0 < value < math.inf:
            raise ParamError(name, f"{name} must be finite and > 0, got {value}")


def check_nonnegative(**values) -> None:
    """Raise ParamError naming the first value that is not finite and >= 0."""
    for name, value in values.items():
        if not 0 <= value < math.inf:
            raise ParamError(name, f"{name} must be finite and >= 0, got {value}")


def check_finite_data(u0, v0) -> None:
    """Raise ParamError naming ``u0`` or ``v0`` when that initial data is
    not finite."""
    for name, data in (("u0", u0), ("v0", v0)):
        if not np.isfinite(data).all():
            raise ParamError(name, "initial data must be finite")


@dataclass(frozen=True)
class Grid:
    """Uniform node-centered grid on [0, length]."""

    n_nodes: int
    length: float

    def __post_init__(self):
        if self.n_nodes < 3:
            raise ParamError("n_nodes", f"n_nodes must be >= 3, got {self.n_nodes}")
        check_positive(length=self.length)
        h = self.spacing        # the diffusion solve divides by h^2
        if not 0.0 < h * h < math.inf:
            raise ParamError("length", f"length = {self.length} gives a "
                             f"spacing h = {h} whose square is 0 or overflows")

    @property
    def spacing(self) -> float:
        return self.length / (self.n_nodes - 1)

    def nodes(self) -> np.ndarray:
        """Node coordinates x_j = j*spacing."""
        return np.linspace(0.0, self.length, self.n_nodes)


def as_field(values, grid: Grid) -> np.ndarray:
    """Coerce to a float64 nodal array and check it matches the grid."""
    f = np.asarray(values, dtype=float)
    if f.shape != (grid.n_nodes,):
        raise ValueError(
            f"field has shape {f.shape}, expected ({grid.n_nodes},)"
        )
    return f


def sup_norm(f) -> float:
    """Maximum absolute nodal value (discrete L-infinity norm); nan when
    a value is nan."""
    # the ufunc's own reduction: np.max's dispatch costs as much again
    return float(np.maximum.reduce(np.abs(np.asarray(f, dtype=float)),
                                   axis=None))


def integrate(f, grid: Grid):
    """Trapezoid-rule integral of a nodal field over [0, length]: a float,
    or for a block of fields, one per row, the array of their integrals,
    each summed as the field alone is."""
    f = np.asarray(f, dtype=float)
    if f.ndim not in (1, 2) or f.shape[-1] != grid.n_nodes:
        raise ValueError(f"field has shape {f.shape}, expected "
                         f"({grid.n_nodes},) or (rows, {grid.n_nodes})")
    total = grid.spacing * (0.5 * (f[..., 0] + f[..., -1])
                            + f[..., 1:-1].sum(axis=-1))
    return float(total) if f.ndim == 1 else total
