"""Random-erasing parameter laws, the erasing operator, and invariance metrics.

Erasing is parameterized by four unit-interval variables: area, aspect
ratio, and the two center coordinates of the erased rectangle.  Two
reference laws govern area and aspect: under the independent law both are
Uniform(0,1) regardless of the label; under the label-dependent law each
label draws from its own sub-interval (a 3x3 grid of thirds for labels
0..8, the degenerate point [0,0] for label 9).  The mixture weight
``alpha`` interpolates: with probability alpha the label-dependent law is
used.

Positions follow one of three laws on [0,1], sampled by inverse CDF:

- uniform;
- periphery-heavy, density 4|x - 0.5|   (CDF 2x - 2x^2 below the middle);
- center-heavy,    density 2 - 4|x - 0.5|  (CDF 2x^2 below the middle).

Geometry mapping (recorded config, not part of the laws): area fraction
``area_lo + u (area_hi - area_lo)`` with defaults 0.02..0.40, and aspect
ratio log-uniform over ``aspect_lo..aspect_hi`` with defaults 1/3..3.
Erased pixels are filled with i.i.d. Uniform(0,1) noise so the fill adds
no label information; rectangles are centered at the position draw and
clipped to the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Literal, Mapping, Sequence

import numpy as np

from .errors import GvlabError
from .models import LinearModel

PositionLaw = Literal["uniform", "periphery_m0", "center_m1"]

POSITION_LAWS: tuple[PositionLaw, ...] = ("uniform", "periphery_m0", "center_m1")

#: Label-dependent reference intervals for (area, aspect): thirds grid, label 9 degenerate.
LABEL_INTERVALS: Mapping[int, tuple[tuple[float, float], tuple[float, float]]] = MappingProxyType({
    0: ((0.0, 1 / 3), (0.0, 1 / 3)),
    1: ((0.0, 1 / 3), (1 / 3, 2 / 3)),
    2: ((0.0, 1 / 3), (2 / 3, 1.0)),
    3: ((1 / 3, 2 / 3), (0.0, 1 / 3)),
    4: ((1 / 3, 2 / 3), (1 / 3, 2 / 3)),
    5: ((1 / 3, 2 / 3), (2 / 3, 1.0)),
    6: ((2 / 3, 1.0), (0.0, 1 / 3)),
    7: ((2 / 3, 1.0), (1 / 3, 2 / 3)),
    8: ((2 / 3, 1.0), (2 / 3, 1.0)),
    9: ((0.0, 0.0), (0.0, 0.0)),
})


@dataclass(frozen=True)
class ErasingParams:
    """One draw of the four erasing variables, all in [0,1]."""

    area_u: float
    aspect_u: float
    pos_x: float
    pos_y: float

    def __post_init__(self):
        for name in ("area_u", "aspect_u", "pos_x", "pos_y"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise GvlabError("bad-variable", f"{name}={v} outside [0,1]")


@dataclass(frozen=True)
class AugmentDistribution:
    """Parameter law for erasing draws: mixture weight, intervals, position law."""

    alpha: float = 0.0
    label_intervals: Mapping[int, tuple[tuple[float, float], tuple[float, float]]] = field(
        default_factory=lambda: dict(LABEL_INTERVALS))
    position_law: PositionLaw = "uniform"
    area_range: tuple[float, float] = (0.02, 0.40)
    aspect_range: tuple[float, float] = (1 / 3, 3.0)

    def __post_init__(self):
        # plain-dict copy keeps instances picklable for worker processes
        object.__setattr__(self, "label_intervals", dict(self.label_intervals))
        if not 0.0 <= self.alpha <= 1.0:
            raise GvlabError("bad-variable", f"alpha={self.alpha} outside [0,1]")
        for label, pair in self.label_intervals.items():
            for a, b in pair:
                if not 0.0 <= a <= b <= 1.0:
                    raise GvlabError("bad-variable", f"interval for label {label} invalid")
        if self.position_law not in POSITION_LAWS:
            raise GvlabError("bad-variable", f"unknown position law {self.position_law!r}")
        if not 0.0 <= self.area_range[0] <= self.area_range[1] <= 1.0:
            raise GvlabError("bad-variable", "area range must satisfy 0 <= lo <= hi <= 1")
        if not 0.0 < self.aspect_range[0] <= self.aspect_range[1]:
            raise GvlabError("bad-variable", "aspect range must be positive with lo <= hi")


def sample_position(law: PositionLaw, rng: np.random.Generator) -> float:
    """Inverse-CDF draw from the selected position density on [0,1]."""
    q = float(rng.random())
    if law == "uniform":
        return q
    if law == "periphery_m0":
        if q <= 0.5:
            return (1.0 - math.sqrt(1.0 - 2.0 * q)) / 2.0
        return (1.0 + math.sqrt(2.0 * q - 1.0)) / 2.0
    if law == "center_m1":
        if q <= 0.5:
            return math.sqrt(q / 2.0)
        return 1.0 - math.sqrt((1.0 - q) / 2.0)
    raise GvlabError("bad-variable", f"unknown position law {law!r}")


def sample_params_traced(dist: AugmentDistribution, label: int,
                         rng: np.random.Generator) -> tuple[ErasingParams, bool]:
    """Draw erasing parameters; also report whether the label-dependent branch fired."""
    if label not in dist.label_intervals:
        raise GvlabError("bad-label", f"no interval entry for label {label}")
    dependent = bool(rng.random() < dist.alpha)
    if dependent:
        (a1, b1), (a2, b2) = dist.label_intervals[label]
        area_u = a1 + float(rng.random()) * (b1 - a1)
        aspect_u = a2 + float(rng.random()) * (b2 - a2)
    else:
        area_u = float(rng.random())
        aspect_u = float(rng.random())
    pos_x = sample_position(dist.position_law, rng)
    pos_y = sample_position(dist.position_law, rng)
    return ErasingParams(area_u, aspect_u, pos_x, pos_y), dependent


def sample_params(dist: AugmentDistribution, label: int,
                  rng: np.random.Generator) -> ErasingParams:
    return sample_params_traced(dist, label, rng)[0]


@dataclass(frozen=True)
class GridTensor:
    """Dense (height, width, channels) grid with values in [0,1]."""

    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        if v.ndim != 3 or min(v.shape) < 1:
            raise GvlabError("bad-input-dim", "grid values must be (height, width, channels)")

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def channels(self) -> int:
        return self.values.shape[2]

    @property
    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)


def erasing_rectangle(width: int, height: int, params: ErasingParams,
                      area_range: tuple[float, float] = (0.02, 0.40),
                      aspect_range: tuple[float, float] = (1 / 3, 3.0)
                      ) -> tuple[int, int, int, int] | None:
    """Pixel rectangle (x0, x1, y0, y1) for the given draw, or None if empty.

    Half-up rounding of the side lengths, center placement, clipping to
    the grid bounds.
    """
    area_lo, area_hi = area_range
    aspect_lo, aspect_hi = aspect_range
    area_px = (area_lo + params.area_u * (area_hi - area_lo)) * width * height
    ratio = aspect_lo * (aspect_hi / aspect_lo) ** params.aspect_u
    w = int(math.floor(math.sqrt(area_px * ratio) + 0.5))
    h = int(math.floor(math.sqrt(area_px / ratio) + 0.5))
    if w < 1 or h < 1:
        return None
    x0 = int(math.floor(params.pos_x * width - w / 2.0 + 0.5))
    y0 = int(math.floor(params.pos_y * height - h / 2.0 + 0.5))
    xa, xb = max(x0, 0), min(x0 + w, width)
    ya, yb = max(y0, 0), min(y0 + h, height)
    if xa >= xb or ya >= yb:
        return None
    return xa, xb, ya, yb


def apply_erasing(grid: GridTensor, params: ErasingParams, rng: np.random.Generator,
                  area_range: tuple[float, float] = (0.02, 0.40),
                  aspect_range: tuple[float, float] = (1 / 3, 3.0)) -> GridTensor:
    """Copy of the grid with the drawn rectangle filled by Uniform(0,1) noise."""
    rect = erasing_rectangle(grid.width, grid.height, params, area_range, aspect_range)
    if rect is None:
        return GridTensor(grid.values.copy())
    xa, xb, ya, yb = rect
    values = grid.values.copy()
    values[ya:yb, xa:xb, :] = rng.random((yb - ya, xb - xa, grid.channels))
    return GridTensor(values)


def erase_batch(grids: Sequence[GridTensor], labels: np.ndarray, dist: AugmentDistribution,
                rng: np.random.Generator) -> np.ndarray:
    """Erase every grid with freshly drawn parameters; rows are flattened grids."""
    out = np.empty((len(grids), grids[0].flat.size))
    for i, grid in enumerate(grids):
        params = sample_params(dist, int(labels[i]), rng)
        out[i] = apply_erasing(grid, params, rng, dist.area_range, dist.aspect_range).flat
    return out


def prediction_changing_ratio(model: LinearModel, grids: Sequence[GridTensor],
                              dist: AugmentDistribution, labels: Sequence[int],
                              repeats: int = 100,
                              rng: np.random.Generator | None = None) -> float:
    """Mean fraction of inputs whose argmax prediction changes under erasing.

    For each repeat the whole batch is erased with fresh parameter draws
    and re-scored; the fraction differing from the clean-input predictions
    is averaged over repeats.
    """
    if repeats < 1:
        raise GvlabError("bad-config", "repeats must be >= 1")
    rng = np.random.default_rng(0) if rng is None else rng
    labels = np.asarray(labels, dtype=np.int64)
    base = model.forward(np.stack([g.flat for g in grids])).argmax(axis=1)
    changed = 0.0
    for _ in range(repeats):
        erased = erase_batch(grids, labels, dist, rng)
        changed += float((model.forward(erased).argmax(axis=1) != base).mean())
    return changed / repeats
