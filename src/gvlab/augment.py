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

A batch is erased in one vectorized pass over the stacked grids.  Its
random stream is laid out as all parameters first, one ``(n, 5)`` unit
draw whose row i holds the coin, area, aspect, pos_x and pos_y of grid i,
then the fill noise of every erased pixel in row-major order over
(grid, y, x, channel).  The single-draw functions (``sample_params``,
``apply_erasing``, ...) are that batch path at n = 1, so they consume
the stream exactly as five scalar draws followed by the rectangle's fill.
"""

from __future__ import annotations

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


def _position(law: PositionLaw, q):
    """Inverse CDF of the position law, elementwise on unit draws ``q``."""
    if law == "uniform":
        return q
    if law == "periphery_m0":
        # |1 - 2q| is bit-equal to 2q - 1 above the middle
        s = np.sqrt(np.abs(1.0 - 2.0 * q))
        return np.where(q <= 0.5, (1.0 - s) / 2.0, (1.0 + s) / 2.0)
    if law == "center_m1":
        return np.where(q <= 0.5, np.sqrt(q / 2.0), 1.0 - np.sqrt((1.0 - q) / 2.0))
    raise GvlabError("bad-variable", f"unknown position law {law!r}")


def sample_position(law: PositionLaw, rng: np.random.Generator) -> float:
    """Inverse-CDF draw from the selected position density on [0,1]."""
    return float(_position(law, rng.random()))


def _draw_params(dist: AugmentDistribution, labels: np.ndarray,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Erasing parameters for a batch of labels, from one ``(n, 5)`` unit draw.

    Row i's draws are its coin, area, aspect, pos_x and pos_y in that order.
    Returns the ``(n, 4)`` columns area_u, aspect_u, pos_x, pos_y and the
    flags of the rows that used the label-dependent law.
    """
    unknown = set(labels.tolist()) - dist.label_intervals.keys()
    if unknown:
        raise GvlabError("bad-label", f"no interval entry for label {min(unknown)}")
    keys = np.array(sorted(dist.label_intervals))
    table = np.array([dist.label_intervals[k] for k in keys.tolist()])
    rows = table[keys.searchsorted(labels)]
    lo, hi = rows[..., 0], rows[..., 1]
    q = rng.random((len(labels), 5))
    dependent = q[:, 0] < dist.alpha
    params = np.empty((len(labels), 4))
    params[:, :2] = np.where(dependent[:, None], lo + q[:, 1:3] * (hi - lo), q[:, 1:3])
    params[:, 2:] = _position(dist.position_law, q[:, 3:5])
    return params, dependent


def sample_params_traced(dist: AugmentDistribution, label: int,
                         rng: np.random.Generator) -> tuple[ErasingParams, bool]:
    """Draw erasing parameters; also report whether the label-dependent branch fired."""
    params, dependent = _draw_params(dist, np.array([label]), rng)
    return ErasingParams(*params[0].tolist()), bool(dependent[0])


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


def _rectangles(width: int, height: int, params: np.ndarray,
                area_range: tuple[float, float],
                aspect_range: tuple[float, float]) -> np.ndarray:
    """Pixel rectangles ``(n, 4)`` of columns x0, x1, y0, y1 for ``(n, 4)`` draws.

    Half-up rounding of the side lengths, center placement, clipping to
    the grid bounds; an empty rectangle is all zeros.
    """
    area_lo, area_hi = area_range
    aspect_lo, aspect_hi = aspect_range
    area_u, aspect_u, pos_x, pos_y = params.T
    area_px = (area_lo + area_u * (area_hi - area_lo)) * width * height
    ratio = aspect_lo * (aspect_hi / aspect_lo) ** aspect_u
    w = np.floor(np.sqrt(area_px * ratio) + 0.5)
    h = np.floor(np.sqrt(area_px / ratio) + 0.5)
    x0 = np.floor(pos_x * width - w / 2.0 + 0.5)
    y0 = np.floor(pos_y * height - h / 2.0 + 0.5)
    rects = np.stack([np.maximum(x0, 0), np.minimum(x0 + w, width),
                      np.maximum(y0, 0), np.minimum(y0 + h, height)], axis=1).astype(np.int64)
    empty = (w < 1) | (h < 1) | (rects[:, 0] >= rects[:, 1]) | (rects[:, 2] >= rects[:, 3])
    rects[empty] = 0
    return rects


def _erase(values: np.ndarray, rects: np.ndarray, rng: np.random.Generator) -> None:
    """Fill each row's rectangle of the stacked grids in place with Uniform(0,1)
    noise, drawn in row-major order over (row, y, x, channel)."""
    rows = np.arange(values.shape[1])[:, None]
    cols = np.arange(values.shape[2])
    x0, x1, y0, y1 = (r[:, None, None] for r in rects.T)
    mask = ((y0 <= rows) & (rows < y1)) & ((x0 <= cols) & (cols < x1))
    mask = np.broadcast_to(mask[..., None], values.shape)
    values[mask] = rng.random(np.count_nonzero(mask))


def _params_row(params: ErasingParams) -> np.ndarray:
    return np.array([[params.area_u, params.aspect_u, params.pos_x, params.pos_y]])


def erasing_rectangle(width: int, height: int, params: ErasingParams,
                      area_range: tuple[float, float] = (0.02, 0.40),
                      aspect_range: tuple[float, float] = (1 / 3, 3.0)
                      ) -> tuple[int, int, int, int] | None:
    """Pixel rectangle (x0, x1, y0, y1) for the given draw, or None if empty."""
    rect = _rectangles(width, height, _params_row(params), area_range, aspect_range)[0]
    return tuple(rect.tolist()) if rect[1] > rect[0] else None


def apply_erasing(grid: GridTensor, params: ErasingParams, rng: np.random.Generator,
                  area_range: tuple[float, float] = (0.02, 0.40),
                  aspect_range: tuple[float, float] = (1 / 3, 3.0)) -> GridTensor:
    """Copy of the grid with the drawn rectangle filled by Uniform(0,1) noise."""
    values = grid.values[None].copy()
    _erase(values, _rectangles(grid.width, grid.height, _params_row(params), area_range,
                               aspect_range), rng)
    return GridTensor(values[0])


def _stack(grids: np.ndarray | Sequence[GridTensor]) -> np.ndarray:
    """Fresh ``(n, height, width, channels)`` array of a non-empty batch of
    equally shaped grids."""
    if isinstance(grids, np.ndarray):
        if grids.ndim != 4 or 0 in grids.shape:
            raise GvlabError("bad-input-dim",
                             "stacked grids must be a non-empty (n, height, width, channels)")
        return np.array(grids, dtype=np.float64)
    if len(grids) == 0:
        raise GvlabError("bad-input-dim", "empty batch of grids")
    if len({g.values.shape for g in grids}) > 1:
        raise GvlabError("bad-input-dim", "grids of mixed shapes in one batch")
    return np.stack([g.values for g in grids])


def erase_batch(grids: np.ndarray | Sequence[GridTensor], labels: np.ndarray,
                dist: AugmentDistribution, rng: np.random.Generator) -> np.ndarray:
    """Erase every grid with freshly drawn parameters; rows are flattened grids.

    ``grids`` is a sequence of grids or their stacked
    ``(n, height, width, channels)`` array, with one label per grid.
    """
    values = _stack(grids)
    labels = np.asarray(labels)
    if labels.shape != (len(values),):
        raise GvlabError("bad-input-dim",
                         f"{labels.size} labels for a batch of {len(values)} grids")
    params, _ = _draw_params(dist, labels.astype(np.int64), rng)
    _erase(values, _rectangles(values.shape[2], values.shape[1], params, dist.area_range,
                               dist.aspect_range), rng)
    return values.reshape(len(values), -1)


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
    labels = np.asarray(labels)
    stacked = _stack(grids)
    base = model.forward(stacked.reshape(len(stacked), -1)).argmax(axis=1)
    changed = 0.0
    for _ in range(repeats):
        erased = erase_batch(stacked, labels, dist, rng)
        changed += float((model.forward(erased).argmax(axis=1) != base).mean())
    return changed / repeats
