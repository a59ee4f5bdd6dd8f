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

A batch is erased in vectorized chunks of the stacked
``(n, height, width, channels)`` grids.  Its random stream is laid out as
all parameters first, one ``(n, 5)`` unit draw whose row i holds the coin,
area, aspect, pos_x and pos_y of grid i, then the fill noise of every
erased pixel in row-major order over (grid, y, x, channel).  The
prediction-changing-ratio probe reads the stream of one ``erase_batch``
call on the ``repeats``-fold stack of its grids: every repeat's
parameters, then every repeat's fills.  A draw is thus a function of its
position in that stream, not of the order in which chunks are erased: the
parameters of a stack longer than one block are replayed in blocks from a
copy of the generator, and the chunk and block sizes bound memory without
changing a value.  No path erases a single grid.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterator, Literal, Mapping

import numpy as np

from .core import stream
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

#: Grid values erased and scored at once (about 1 000 grids of 8x8x1):
#: several repeats share a mask and a forward pass while the peak
#: allocation stays far below a stack of every repeat.  Parameters are
#: drawn in blocks of ``PROBE_CHUNK_VALUES // 32`` rows, whose arrays hold
#: about as many values.
PROBE_CHUNK_VALUES = 64_000


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
        lo, hi = self.aspect_range
        if not (0.0 < lo <= hi and hi / lo < math.inf):
            raise GvlabError("bad-variable", "aspect range must be positive with lo <= hi "
                                             "and a finite hi / lo")


def position_inverse_cdf(law: PositionLaw, q):
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


def _bounds(dist: AugmentDistribution, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper ends ``(n, 2)`` of each label's (area, aspect) intervals."""
    unknown = set(labels.tolist()) - dist.label_intervals.keys()
    if unknown:
        raise GvlabError("bad-label", f"no interval entry for label {min(unknown)}")
    keys = np.array(sorted(dist.label_intervals))
    table = np.array([dist.label_intervals[k] for k in keys.tolist()])
    rows = table[keys.searchsorted(labels)]
    return rows[..., 0], rows[..., 1]


def _draw(dist: AugmentDistribution, bounds: tuple[np.ndarray, np.ndarray], rows: np.ndarray,
          rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One ``(len(rows), 5)`` unit draw as :func:`draw_params` returns it,
    row i reading the label bounds of grid ``rows[i]``: those bounds are
    gathered, and the (area, aspect) mapped into them, only for the rows
    whose coin chose the label-dependent law."""
    q = rng.random((len(rows), 5))
    dependent = q[:, 0] < dist.alpha
    params = np.empty((len(rows), 4))
    params[:, :2] = q[:, 1:3]
    if dependent.any():
        at = rows[dependent]
        lo, hi = bounds[0][at], bounds[1][at]
        params[dependent, :2] = lo + q[dependent, 1:3] * (hi - lo)
    params[:, 2:] = position_inverse_cdf(dist.position_law, q[:, 3:5])
    return params, dependent


def draw_params(dist: AugmentDistribution, labels,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Erasing parameters for a batch of labels, from one ``(n, 5)`` unit draw.

    Row i's draws are its coin, area, aspect, pos_x and pos_y in that order.
    Returns the ``(n, 4)`` columns area_u, aspect_u, pos_x, pos_y and the
    flags of the rows that used the label-dependent law.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise GvlabError("bad-input-dim", f"labels must be one-dimensional, got {labels.shape}")
    return _draw(dist, _bounds(dist, labels), np.arange(len(labels)), rng)


def _rectangles(width: int, height: int, params: np.ndarray,
                area_range: tuple[float, float],
                aspect_range: tuple[float, float]) -> np.ndarray:
    """Pixel rectangles ``(4, n)`` of rows x0, x1, y0, y1 for ``(n, 4)`` draws.

    Half-up rounding of the side lengths, center placement, clipping to
    the grid bounds; an empty rectangle is all zeros.  A side past twice
    the grid side spans the grid wherever it is centred, so sides are
    capped there, and a side that overflows spans the grid too.
    """
    area_lo, area_hi = area_range
    aspect_lo, aspect_hi = aspect_range
    area_u, aspect_u, pos_x, pos_y = params.T
    area_px = (area_lo + area_u * (area_hi - area_lo)) * width * height
    ratio = aspect_lo * (aspect_hi / aspect_lo) ** aspect_u
    with np.errstate(over="ignore"):
        w = np.minimum(np.floor(np.sqrt(area_px * ratio) + 0.5), 2 * width + 2)
        h = np.minimum(np.floor(np.sqrt(area_px / ratio) + 0.5), 2 * height + 2)
    x0 = np.floor(pos_x * width - w / 2.0 + 0.5)
    y0 = np.floor(pos_y * height - h / 2.0 + 0.5)
    # Each whole float bound is cast as it is written into its int64 row.
    rects = np.empty((4, len(params)), dtype=np.int64)
    np.maximum(x0, 0, out=rects[0], casting="unsafe")
    np.minimum(x0 + w, width, out=rects[1], casting="unsafe")
    np.maximum(y0, 0, out=rects[2], casting="unsafe")
    np.minimum(y0 + h, height, out=rects[3], casting="unsafe")
    empty = (w < 1) | (h < 1) | (rects[0] >= rects[1]) | (rects[2] >= rects[3])
    rects[:, empty] = 0
    return rects


def _erase_copies(grids: np.ndarray, bounds: tuple[np.ndarray, np.ndarray],
                  dist: AugmentDistribution, copies: int, rng: np.random.Generator,
                  out: np.ndarray | None = None) -> Iterator[tuple[int, np.ndarray]]:
    """Erased chunks of the ``copies``-fold stack of the grids, in stack order.

    Yields ``(start, erased)``: the ``(rows, height, width, channels)`` grids
    at stack rows ``start..start + rows``; stack row r holds grid ``r % n``.
    The stream is that of one ``erase_batch`` call on the stack: one
    ``(copies * n, 5)`` parameter draw, then the fill noise of every erased
    pixel in (row, y, x, channel) order.  When the parameters span several
    blocks, a copy of ``rng`` replays them block by block, after ``rng`` has
    skipped them; one block is drawn from ``rng`` itself.  Each chunk then
    draws its fills from ``rng``.  Block and chunk sizes bound the
    memory and never change a value.  The chunks are written into ``out``,
    the whole ``(copies * n, height, width, channels)`` stack, when it is
    given, and otherwise into one buffer, so that each must be read before
    the next is asked for.
    """
    n, height, width, channels = grids.shape
    total = copies * n
    block = max(1, PROBE_CHUNK_VALUES // 32)
    chunk = max(1, PROBE_CHUNK_VALUES // grids[0].size)
    params_rng = rng  # one block: its parameters come straight off ``rng``, then the fills
    if total > block:
        params_rng = copy.deepcopy(rng)
        for start in range(0, total, block):
            rng.random((min(block, total - start), 5))
    ys, xs = np.arange(height)[:, None], np.arange(width)[:, None]
    if out is None:
        out = np.empty((min(chunk, block, total),) + grids.shape[1:])
    whole = len(out) == total
    for first in range(0, total, block):
        grid_of = np.arange(first, min(first + block, total)) % n
        params = _draw(dist, bounds, grid_of, params_rng)[0]
        x0, x1, y0, y1 = _rectangles(width, height, params, dist.area_range, dist.aspect_range)
        for start in range(0, len(grid_of), chunk):
            part = slice(start, start + chunk)
            # (y, grid) and (x, grid) bands and their (y, x, grid) product, so
            # that each operation runs along the grids, then laid out by grid
            rows = (y0[part] <= ys) & (ys < y1[part])
            cols = (x0[part] <= xs) & (xs < x1[part])
            mask = np.ascontiguousarray((rows[:, None] & cols).transpose(2, 0, 1))[..., None]
            at = first + start if whole else 0
            erased = out[at:at + len(mask)]
            # "clip" never clips these indices; unlike "raise" it writes straight into ``out``
            np.take(grids, grid_of[part], axis=0, out=erased, mode="clip")
            erased[np.broadcast_to(mask, erased.shape)] = rng.random(
                int(np.count_nonzero(mask)) * channels)
            yield first + start, erased
        del grid_of, params, x0, x1, y0, y1, rows, cols, mask  # freed before the next block


def _batch(grids, labels) -> tuple[np.ndarray, np.ndarray]:
    """The grids as one float64 ``(n, height, width, channels)`` array (not a
    copy when they already are one) and their n labels as int64."""
    try:
        values = np.asarray(grids, dtype=np.float64)
    except ValueError:
        raise GvlabError("bad-input-dim", "grids of mixed shapes in one batch") from None
    if values.ndim != 4 or 0 in values.shape:
        raise GvlabError("bad-input-dim",
                         "stacked grids must be a non-empty (n, height, width, channels)")
    labels = np.asarray(labels)
    if labels.shape != (len(values),):
        raise GvlabError("bad-input-dim",
                         f"{labels.size} labels for a batch of {len(values)} grids")
    return values, labels.astype(np.int64)


def erase_batch(grids: np.ndarray, labels: np.ndarray, dist: AugmentDistribution,
                rng: np.random.Generator) -> np.ndarray:
    """Erase every grid with freshly drawn parameters; rows are flattened grids.

    ``grids`` is the stacked ``(n, height, width, channels)`` batch, with one
    label per grid; it is left unchanged.
    """
    values, labels = _batch(grids, labels)
    out = np.empty(values.shape)
    for _ in _erase_copies(values, _bounds(dist, labels), dist, 1, rng, out):
        pass
    return out.reshape(len(values), -1)


def prediction_changing_ratio(model: LinearModel, grids: np.ndarray,
                              dist: AugmentDistribution, labels: np.ndarray,
                              repeats: int = 100,
                              rng: np.random.Generator | None = None) -> float:
    """Mean fraction of inputs whose prediction changes under erasing.

    Each repeat erases the whole batch with fresh parameter draws and
    re-scores it with ``model.predict``; the fraction differing from the
    clean-input predictions is averaged over repeats.  The repeats read the
    stream of one ``erase_batch`` call on their ``repeats``-fold stack of
    the grids, erased and scored ``PROBE_CHUNK_VALUES`` grid values at a
    time.
    """
    if repeats < 1:
        raise GvlabError("bad-config", "repeats must be >= 1")
    rng = stream(0) if rng is None else rng
    values, labels = _batch(grids, labels)
    n = len(values)
    base = model.predict(values.reshape(n, -1))
    changed, flips = 0.0, 0  # the finished repeats' fractions; the open repeat's flips
    for start, erased in _erase_copies(values, _bounds(dist, labels), dist, repeats, rng):
        rows = np.arange(start, start + len(erased))
        changes = model.predict(erased.reshape(len(erased), -1)) != base[rows % n]
        counts = np.bincount(rows[changes] // n - start // n,
                             minlength=rows[-1] // n - start // n + 1).tolist()
        counts[0] += flips
        flips = counts.pop() if (rows[-1] + 1) % n else 0
        # one float per repeat, added in repeat order, as repeat-by-repeat scoring adds them
        for count in counts:
            changed += count / n
    return changed / repeats
