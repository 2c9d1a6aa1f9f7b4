"""Uniform 1-D cell-centered grid and midpoint quadrature.

All fields live at cell midpoints. The midpoint rule pairs with the
finite-volume dispersal operator so that no-flux conservation identities
hold at machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

#: A sampled spatial field: one float per grid cell.
Field = np.ndarray


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform partition of (0, length) into n_cells cells.

    centers[i] = (i + 0.5) * h with h = length / n_cells. Grids compare and
    hash by (length, n_cells, h); centers follows from them.
    """

    length: float
    n_cells: int
    h: float = field(init=False)
    centers: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (np.isfinite(self.length) and self.length > 0):
            raise ConfigurationError(f"domain length must be positive, got {self.length}")
        # NaN and inf fail the bounds before int() sees them
        if not (3 <= self.n_cells < np.inf and int(self.n_cells) == self.n_cells):
            raise ConfigurationError(f"n_cells must be an integer >= 3, got {self.n_cells}")
        # an integral float such as 5.0 is kept as the int it names
        object.__setattr__(self, "n_cells", int(self.n_cells))
        h = self.length / self.n_cells
        if h * h == 0 or not np.isfinite(1.0 / (h * h)):  # the stencil scales by 1/h^2
            raise ConfigurationError(f"cell width h = L/n_cells = {self.length}/{self.n_cells} "
                                     f"= {h} is too small: 1/h^2 is not finite")
        centers = (np.arange(self.n_cells) + 0.5) * h
        centers.setflags(write=False)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "centers", centers)


def as_field(values, grid: SpatialGrid) -> Field:
    """Coerce to a float array and check it matches the grid."""
    f = np.asarray(values, dtype=float)
    if f.shape != (grid.n_cells,):
        raise ConfigurationError(
            f"field of length {f.shape} does not match grid with {grid.n_cells} cells"
        )
    return f


def integrate(f: Field, grid: SpatialGrid) -> float:
    """Midpoint-rule integral h * sum(f) over the domain."""
    f = as_field(f, grid)
    return grid.h * float(f.sum())


def average(f: Field, grid: SpatialGrid) -> float:
    """Domain average integrate(f) / length."""
    return integrate(f, grid) / grid.length
