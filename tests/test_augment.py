import math
import types
import warnings

import numpy as np
import pytest

from gvlab import augment
from gvlab.augment import (LABEL_INTERVALS, POSITION_LAWS, PROBE_CHUNK_VALUES,
                           AugmentDistribution, _rectangles, draw_params, erase_batch,
                           position_inverse_cdf, prediction_changing_ratio)
from gvlab.errors import GvlabError
from gvlab.models import LinearModel

from memory import traced_peak


def quantile(law, q):
    return float(position_inverse_cdf(law, np.float64(q)))


class TestSamplePosition:
    def test_median_is_center_for_both_laws(self):
        assert quantile("periphery_m0", 0.5) == pytest.approx(0.5)
        assert quantile("center_m1", 0.5) == pytest.approx(0.5)

    def test_periphery_law_inverse_cdf(self):
        assert quantile("periphery_m0", 0.125) == pytest.approx(0.0669872981077807, abs=1e-12)

    def test_center_law_inverse_cdf(self):
        assert quantile("center_m1", 0.125) == pytest.approx(0.25, abs=1e-12)

    def test_symmetry_of_upper_branch(self):
        low = quantile("periphery_m0", 0.125)
        high = quantile("periphery_m0", 0.875)
        assert high == pytest.approx(1.0 - low, abs=1e-12)

    def test_uniform_law_passes_the_draw_through(self):
        assert quantile("uniform", 0.37) == 0.37

    def test_histogram_matches_density(self):
        draws = position_inverse_cdf("center_m1", np.random.default_rng(0).random(20000))
        hist, edges = np.histogram(draws, bins=10, range=(0, 1))
        centers = (edges[:-1] + edges[1:]) / 2
        cell_probability = (2 - 4 * np.abs(centers - 0.5)) * 0.1  # density is linear per cell
        np.testing.assert_allclose(hist / 20000, cell_probability, atol=0.01)


class TestSampleParams:
    def test_independent_law_ignores_labels(self):
        params, _ = draw_params(AugmentDistribution(alpha=0.0), np.zeros(500, dtype=int),
                                np.random.default_rng(1))
        assert np.any(params[:, 0] > 1 / 3)  # not confined to label 0's interval
        assert np.all((0.0 <= params) & (params <= 1.0))

    def test_dependent_law_respects_label_interval(self):
        labels = np.repeat(np.arange(9), 200)
        params, _ = draw_params(AugmentDistribution(alpha=1.0), labels, np.random.default_rng(2))
        for label in range(9):
            (a1, b1), (a2, b2) = LABEL_INTERVALS[label]
            area_u, aspect_u = params[labels == label, :2].T
            assert np.all((a1 <= area_u) & (area_u <= b1))
            assert np.all((a2 <= aspect_u) & (aspect_u <= b2))

    def test_degenerate_interval_is_exactly_zero(self):
        params, _ = draw_params(AugmentDistribution(alpha=1.0), np.full(50, 9),
                                np.random.default_rng(3))
        assert np.all(params[:, :2] == 0.0)

    def test_missing_label_rejected(self):
        with pytest.raises(GvlabError) as err:
            draw_params(AugmentDistribution(), [10], np.random.default_rng(0))
        assert err.value.code == "bad-label"

    def test_two_dimensional_labels_rejected(self):
        with pytest.raises(GvlabError) as err:
            draw_params(AugmentDistribution(), np.zeros((3, 2), dtype=int),
                        np.random.default_rng(0))
        assert err.value.code == "bad-input-dim"

    def test_mixture_fraction_tracks_alpha(self):
        _, dependent = draw_params(AugmentDistribution(alpha=0.3), np.ones(20000, dtype=int),
                                   np.random.default_rng(4))
        assert abs(dependent.mean() - 0.3) < 0.01


def erase_one(grid, script, **law):
    """``grid`` erased alone; ``script`` gives its coin, area, aspect, pos_x and pos_y."""
    out = erase_batch(grid[None], [0], AugmentDistribution(**law), ScriptedRng(script))
    return out.reshape(grid.shape)


class TestApplyErasing:
    def test_zero_area_with_zero_lower_bound_is_identity(self):
        grid = np.full((8, 8, 1), 0.3)
        out = erase_one(grid, [0.9, 0.0, 0.5, 0.5, 0.5], area_range=(0.0, 0.4))
        np.testing.assert_array_equal(out, grid)

    def test_full_area_replaces_everything(self):
        grid = np.full((8, 8, 1), 0.3)
        out = erase_one(grid, [0.9, 1.0, 0.5, 0.5, 0.5], area_range=(0.02, 1.0),
                        aspect_range=(1.0, 1.0))
        assert np.all(out != 0.3)

    def test_source_grid_untouched(self):
        grids = np.full((3, 8, 8, 1), 0.3)
        erase_batch(grids, [0, 1, 2], AugmentDistribution(area_range=(0.3, 0.4)),
                    np.random.default_rng(1))
        assert np.all(grids == 0.3)

    def test_degenerate_rectangle_leaves_grid_unchanged(self):
        grid = np.full((2, 2, 1), 0.5)
        out = erase_one(grid, [0.0, 0.0, 0.0, 0.9, 0.9], area_range=(0.0, 0.0))
        np.testing.assert_array_equal(out, grid)


def reference_changing_ratio(model, grids, dist, labels, repeats, rng):
    """The probe as one ``erase_batch`` call on the ``repeats``-fold stack of
    the grids, scored with ``predict``: one fraction per repeat, added in
    repeat order."""
    n = len(grids)
    base = model.predict(grids.reshape(n, -1))
    erased = erase_batch(np.tile(grids, (repeats, 1, 1, 1)), np.tile(labels, repeats), dist, rng)
    changed = 0.0
    for fraction in (model.predict(erased).reshape(repeats, n) != base).mean(axis=1).tolist():
        changed += fraction
    return changed / repeats


def probe_case(n, shape, seed):
    rng = np.random.default_rng(seed)
    grids = rng.random((n, *shape))
    model = LinearModel(rng.normal(size=(10, grids[0].size)), np.zeros(10), "softmax")
    return model, grids, np.arange(n) % 10


class TestPredictionChangingRatio:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.grids = rng.random((20, 4, 4, 1))
        self.labels = rng.integers(0, 2, 20)

    def test_identity_augmentation_gives_zero(self):
        model = LinearModel(np.random.default_rng(0).normal(size=(1, 16)), np.zeros(1),
                            "sigmoid")
        dist = AugmentDistribution(alpha=0.0, area_range=(0.0, 0.0))
        ratio = prediction_changing_ratio(model, self.grids, dist, self.labels, repeats=20,
                                          rng=np.random.default_rng(1))
        assert ratio == 0.0

    def test_constant_model_never_changes(self):
        model = LinearModel(np.zeros((3, 16)), np.zeros(3), "softmax")
        dist = AugmentDistribution(alpha=0.0)
        ratio = prediction_changing_ratio(model, self.grids, dist,
                                          np.zeros(20, dtype=int), repeats=20,
                                          rng=np.random.default_rng(2))
        assert ratio == 0.0

    def test_two_pixel_flip_probability_matches_enumeration(self):
        """Model reads only pixel 0 of a 1x2 grid; a unit-square erase lands on
        pixel 0 with probability 1/2 and flips the prediction when the noise
        falls below the threshold 0.5, so the ratio converges to 1/4."""
        grid = np.array([[[0.9], [0.2]]])
        model = LinearModel(np.array([[1.0, 0.0]]), np.array([-0.5]), "sigmoid")
        dist = AugmentDistribution(alpha=0.0, area_range=(0.5, 0.5),
                                   aspect_range=(1.0, 1.0))
        ratio = prediction_changing_ratio(model, grid[None], dist, [0], repeats=4000,
                                          rng=np.random.default_rng(3))
        assert ratio == pytest.approx(0.25, abs=0.04)

    def test_ratio_bounded(self):
        model = LinearModel(np.random.default_rng(5).normal(size=(1, 16)), np.zeros(1),
                            "sigmoid")
        dist = AugmentDistribution(alpha=1.0)
        ratio = prediction_changing_ratio(model, self.grids, dist, self.labels, repeats=10,
                                          rng=np.random.default_rng(6))
        assert 0.0 <= ratio <= 1.0

    def test_repeats_validated(self):
        model = LinearModel(np.zeros((1, 16)), np.zeros(1), "sigmoid")
        with pytest.raises(GvlabError):
            prediction_changing_ratio(model, self.grids, AugmentDistribution(),
                                      self.labels, repeats=0)


PROBE_CASES = {
    # chunks of 1 000 grids split the repeats of 300; the last chunk holds 100
    "partial-last-chunk": (300, (8, 8, 1), 7, AugmentDistribution()),
    # one batch is larger than a chunk
    "batch-above-chunk": (1100, (8, 8, 1), 3, AugmentDistribution()),
    "two-channels": (150, (5, 7, 2), 9, AugmentDistribution(area_range=(0.1, 0.6))),
    "dependent-center": (200, (8, 8, 1), 11,
                         AugmentDistribution(alpha=0.5, position_law="center_m1")),
    # 12 000 parameter rows, drawn in several blocks
    "several-blocks": (30, (8, 8, 1), 400, AugmentDistribution(alpha=0.5)),
}


class TestChunkedProbeMatchesReference:
    """The chunked probe equals one ``erase_batch`` on the repeats-fold stack
    bit for bit, whatever the chunk and block sizes."""

    @pytest.mark.parametrize("case", PROBE_CASES)
    def test_equals_reference(self, case):
        n, shape, repeats, dist = PROBE_CASES[case]
        model, grids, labels = probe_case(n, shape, seed=n)
        ratio = prediction_changing_ratio(model, grids, dist, labels, repeats,
                                          np.random.default_rng(18))
        assert ratio == reference_changing_ratio(model, grids, dist, labels, repeats,
                                                 np.random.default_rng(18))

    @pytest.mark.parametrize("case", PROBE_CASES)
    @pytest.mark.parametrize("scale", [0.25, 4.0])
    def test_chunk_size_changes_no_value(self, monkeypatch, case, scale):
        """The chunk, and the parameter block sized from it, set memory only."""
        n, shape, repeats, dist = PROBE_CASES[case]
        model, grids, labels = probe_case(n, shape, seed=n)
        expected = prediction_changing_ratio(model, grids, dist, labels, repeats,
                                             np.random.default_rng(18))
        monkeypatch.setattr(augment, "PROBE_CHUNK_VALUES", int(PROBE_CHUNK_VALUES * scale))
        assert prediction_changing_ratio(model, grids, dist, labels, repeats,
                                         np.random.default_rng(18)) == expected

    def test_cases_straddle_the_chunk_bound(self, monkeypatch):
        assert PROBE_CHUNK_VALUES // 64 == 1000  # 8x8x1 grids per chunk
        assert 1000 % 300 and PROBE_CHUNK_VALUES < 1100 * 64
        # the several-blocks case draws its parameters in more than one block
        draws = []

        def counted(*args):
            draws.append(args)
            return draw(*args)

        draw = augment._draw
        monkeypatch.setattr(augment, "_draw", counted)
        n, shape, repeats, dist = PROBE_CASES["several-blocks"]
        model, grids, labels = probe_case(n, shape, seed=n)
        prediction_changing_ratio(model, grids, dist, labels, repeats, np.random.default_rng(18))
        assert len(draws) > 1

    def test_peak_allocation_is_far_below_a_full_stack(self):
        model, grids, labels = probe_case(500, (8, 8, 1), seed=19)
        full_stack = 100 * grids.nbytes  # every repeat's erased copy at once: 25.6 MB
        peak = traced_peak(prediction_changing_ratio, model, grids, AugmentDistribution(),
                           labels, 100, np.random.default_rng(20))
        assert peak < full_stack / 8, peak

    def test_repeats_allocate_nothing_per_repeat(self):
        """A hundredfold repeat count leaves the traced peak within 10 %."""
        model, grids, labels = probe_case(20, (4, 4, 1), seed=21)
        peaks = [traced_peak(prediction_changing_ratio, model, grids, AugmentDistribution(),
                             labels, repeats, np.random.default_rng(22))
                 for repeats in (100, 10_000)]
        assert peaks[1] <= 1.1 * peaks[0], peaks


# Frozen copy of the per-sample erasing code that the batch path replaced.

def reference_position(law, rng):
    q = float(rng.random())
    if law == "uniform":
        return q
    if law == "periphery_m0":
        if q <= 0.5:
            return (1.0 - math.sqrt(1.0 - 2.0 * q)) / 2.0
        return (1.0 + math.sqrt(2.0 * q - 1.0)) / 2.0
    if q <= 0.5:
        return math.sqrt(q / 2.0)
    return 1.0 - math.sqrt((1.0 - q) / 2.0)


def reference_params_traced(dist, label, rng):
    dependent = bool(rng.random() < dist.alpha)
    if dependent:
        (a1, b1), (a2, b2) = dist.label_intervals[label]
        area_u = a1 + float(rng.random()) * (b1 - a1)
        aspect_u = a2 + float(rng.random()) * (b2 - a2)
    else:
        area_u = float(rng.random())
        aspect_u = float(rng.random())
    pos_x = reference_position(dist.position_law, rng)
    pos_y = reference_position(dist.position_law, rng)
    return (area_u, aspect_u, pos_x, pos_y), dependent


def reference_rectangle(width, height, params, area_range, aspect_range):
    area_u, aspect_u, pos_x, pos_y = params
    area_lo, area_hi = area_range
    aspect_lo, aspect_hi = aspect_range
    area_px = (area_lo + area_u * (area_hi - area_lo)) * width * height
    ratio = aspect_lo * (aspect_hi / aspect_lo) ** aspect_u
    w = int(math.floor(math.sqrt(area_px * ratio) + 0.5))
    h = int(math.floor(math.sqrt(area_px / ratio) + 0.5))
    if w < 1 or h < 1:
        return None
    x0 = int(math.floor(pos_x * width - w / 2.0 + 0.5))
    y0 = int(math.floor(pos_y * height - h / 2.0 + 0.5))
    xa, xb = max(x0, 0), min(x0 + w, width)
    ya, yb = max(y0, 0), min(y0 + h, height)
    if xa >= xb or ya >= yb:
        return None
    return xa, xb, ya, yb


def reference_erase_batch(values, labels, dist, rng):
    """The batch stream layout on the reference code: every row's parameters,
    then every rectangle's fill in row order."""
    out = values.copy()
    height, width, channels = values.shape[1:]
    params = [reference_params_traced(dist, int(label), rng)[0] for label in labels]
    rects = [reference_rectangle(width, height, p, dist.area_range, dist.aspect_range)
             for p in params]
    for grid, rect in zip(out, rects):
        if rect is not None:
            xa, xb, ya, yb = rect
            grid[ya:yb, xa:xb, :] = rng.random((yb - ya, xb - xa, channels))
    return out, rects


class ScriptedRng:
    """Generator whose first unit draws are scripted; later ones come from a seed."""

    def __init__(self, values, seed=0):
        self.values = list(values)
        self.rest = np.random.default_rng(seed)

    def random(self, size=None):
        count = 1 if size is None else int(np.prod(size))
        head, self.values = self.values[:count], self.values[count:]
        draws = np.concatenate([head, self.rest.random(count - len(head))])
        return float(draws[0]) if size is None else draws.reshape(size)


def random_grids(n, shape=(7, 9, 2), seed=8):
    return np.random.default_rng(seed).random((n, *shape))


class TestBatchMatchesReference:
    @pytest.mark.parametrize("law", POSITION_LAWS)
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_single_draw_matches_reference(self, law, alpha):
        dist = AugmentDistribution(alpha=alpha, position_law=law)
        labels = np.arange(300) % 10
        params, dependent = draw_params(dist, labels, np.random.default_rng(11))
        ref_rng = np.random.default_rng(11)
        for row, flag, label in zip(params, dependent, labels):
            expected, expected_dependent = reference_params_traced(dist, label, ref_rng)
            assert tuple(row.tolist()) == expected and flag == expected_dependent
            for width, height in ((16, 16), (5, 9)):
                rect = _rectangles(width, height, row[None], dist.area_range,
                                   dist.aspect_range)[:, 0]
                assert (tuple(rect.tolist()) if rect[1] > rect[0] else None) == \
                    reference_rectangle(width, height, expected, dist.area_range,
                                        dist.aspect_range)

    @pytest.mark.parametrize("law", POSITION_LAWS)
    def test_one_grid_batch_matches_reference(self, law):
        dist = AugmentDistribution(alpha=0.5, position_law=law)
        rng, ref_rng = np.random.default_rng(12), np.random.default_rng(12)
        for i, values in enumerate(random_grids(100)):
            out = erase_batch(values[None], [i % 10], dist, rng)
            expected, _ = reference_erase_batch(values[None], [i % 10], dist, ref_rng)
            assert out.tobytes() == expected.reshape(1, -1).tobytes()

    def test_mixed_label_batch_uses_each_row_interval(self):
        labels = np.arange(200) % 10
        params, dependent = draw_params(AugmentDistribution(alpha=1.0), labels,
                                        np.random.default_rng(13))
        assert dependent.all()
        for (area_u, aspect_u, _, _), label in zip(params, labels):
            (a1, b1), (a2, b2) = LABEL_INTERVALS[label]
            assert a1 <= area_u <= b1 and a2 <= aspect_u <= b2

    @pytest.mark.parametrize("law", POSITION_LAWS)
    def test_changes_stay_inside_reference_rectangles(self, law):
        values = random_grids(300)
        labels = np.arange(300) % 10
        dist = AugmentDistribution(alpha=0.5, position_law=law)
        out = erase_batch(values, labels, dist, np.random.default_rng(14))
        expected, rects = reference_erase_batch(values, labels, dist, np.random.default_rng(14))
        assert out.tobytes() == expected.reshape(300, -1).tobytes()
        out = out.reshape(values.shape)
        for grid, erased, rect in zip(values, out, rects):
            inside = np.zeros(grid.shape, dtype=bool)
            if rect is not None:
                xa, xb, ya, yb = rect
                inside[ya:yb, xa:xb, :] = True
            assert np.array_equal(erased[~inside], grid[~inside])
            assert np.all((erased[inside] >= 0.0) & (erased[inside] < 1.0))
        assert sum(rect is None for rect in rects) < 300

    def test_batch_of_several_parameter_blocks_matches_reference(self):
        """9 000 grids: the parameters are replayed in several blocks and the
        fills drawn in many chunks, on the stream of one reference batch."""
        values = random_grids(9000, shape=(3, 4, 2))
        labels = np.arange(9000) % 10
        dist = AugmentDistribution(alpha=0.5, position_law="periphery_m0")
        out = erase_batch(values, labels, dist, np.random.default_rng(16))
        expected, _ = reference_erase_batch(values, labels, dist, np.random.default_rng(16))
        assert out.tobytes() == expected.reshape(9000, -1).tobytes()

    def test_one_parameter_block_copies_no_generator(self, monkeypatch):
        """A batch of exactly one parameter block draws its parameters straight
        from the generator, with no copy, on the stream of one reference batch."""
        def refuse(rng):
            raise AssertionError("copied the generator")

        block = PROBE_CHUNK_VALUES // 32
        monkeypatch.setattr(augment, "copy", types.SimpleNamespace(deepcopy=refuse))
        values = random_grids(block, shape=(3, 4, 2))
        labels = np.arange(block) % 10
        dist = AugmentDistribution(alpha=0.5, position_law="center_m1")
        out = erase_batch(values, labels, dist, np.random.default_rng(17))
        expected, _ = reference_erase_batch(values, labels, dist, np.random.default_rng(17))
        assert out.tobytes() == expected.reshape(block, -1).tobytes()

    def test_empty_rectangles_leave_the_batch_unchanged(self):
        values = random_grids(20)
        dist = AugmentDistribution(alpha=0.0, area_range=(0.0, 0.0))
        rng = np.random.default_rng(15)
        out = erase_batch(values, np.zeros(20, dtype=int), dist, rng)
        assert out.tobytes() == values.reshape(20, -1).tobytes()
        after = np.random.default_rng(15)
        after.random((20, 5))  # the parameter draw is all the batch consumed
        assert rng.random() == after.random()

    def test_corner_rectangles_are_clipped_like_the_reference(self):
        # coin, area, aspect, pos_x, pos_y per row: centres on the four corners
        corners = [(0.0, 0.0), (0.999, 0.0), (0.0, 0.999), (0.999, 0.999)]
        script = [v for x, y in corners for v in (0.9, 0.8, 0.5, x, y)]
        values = random_grids(4)
        dist = AugmentDistribution(alpha=0.0)
        out = erase_batch(values, [0, 1, 2, 3], dist, ScriptedRng(script))
        expected, rects = reference_erase_batch(values, [0, 1, 2, 3], dist,
                                                ScriptedRng(script))
        assert out.tobytes() == expected.reshape(4, -1).tobytes()
        height, width = values.shape[1:3]
        assert [(r[0] == 0, r[1] == width, r[2] == 0, r[3] == height) for r in rects] == [
            (True, False, True, False), (False, True, True, False),
            (True, False, False, True), (False, True, False, True)]

    def test_stacked_array_and_grid_sequence_agree(self):
        values = random_grids(12)
        grids = list(values.copy())
        dist = AugmentDistribution(alpha=0.5)
        a = erase_batch(values, np.arange(12) % 10, dist, np.random.default_rng(16))
        b = erase_batch(grids, np.arange(12) % 10, dist, np.random.default_rng(16))
        assert a.tobytes() == b.tobytes()
        assert np.array_equal(values, np.stack(grids))  # input untouched


def _grids_and_labels(case):
    grids = list(random_grids(4, shape=(4, 4, 1)))
    return {
        "empty": ([], []),
        "short-labels": (grids, [0, 1, 0]),
        "long-labels": (grids, [0, 1, 0, 1, 0]),
        "mixed-shapes": (grids[:3] + [np.zeros((4, 5, 1))], [0, 1, 0, 1]),
    }[case]


class TestBatchBoundaries:
    CASES = ["empty", "short-labels", "long-labels", "mixed-shapes"]

    @pytest.mark.parametrize("case", CASES)
    def test_erase_batch_rejects(self, case):
        grids, labels = _grids_and_labels(case)
        with pytest.raises(GvlabError) as err:
            erase_batch(grids, labels, AugmentDistribution(), np.random.default_rng(0))
        assert err.value.code == "bad-input-dim"

    @pytest.mark.parametrize("case", CASES)
    def test_prediction_changing_ratio_rejects(self, case):
        grids, labels = _grids_and_labels(case)
        model = LinearModel(np.zeros((1, 16)), np.zeros(1), "sigmoid")
        with pytest.raises(GvlabError) as err:
            prediction_changing_ratio(model, grids, AugmentDistribution(), labels, repeats=2)
        assert err.value.code == "bad-input-dim"

    @pytest.mark.parametrize("shape", [(4, 4, 1), (0, 4, 4, 1)])
    def test_stacked_array_must_be_a_nonempty_batch(self, shape):
        with pytest.raises(GvlabError) as err:
            erase_batch(np.zeros(shape), [0] * shape[0], AugmentDistribution(),
                        np.random.default_rng(0))
        assert err.value.code == "bad-input-dim"

    def test_unknown_label_rejected(self):
        grids, _ = _grids_and_labels("short-labels")
        with pytest.raises(GvlabError) as err:
            erase_batch(grids, [0, 1, 10, 0], AugmentDistribution(), np.random.default_rng(0))
        assert err.value.code == "bad-label"


def test_erase_batch_shapes_and_determinism():
    grids = np.random.default_rng(8).random((6, 4, 4, 1))
    labels = np.arange(6) % 2
    dist = AugmentDistribution(alpha=0.5)
    a = erase_batch(grids, labels, dist, np.random.default_rng(9))
    b = erase_batch(grids, labels, dist, np.random.default_rng(9))
    assert a.shape == (6, 16)
    assert a.tobytes() == b.tobytes()


def test_table_one_default_intervals():
    assert LABEL_INTERVALS[0] == ((0.0, 1 / 3), (0.0, 1 / 3))
    assert LABEL_INTERVALS[5] == ((1 / 3, 2 / 3), (2 / 3, 1.0))
    assert LABEL_INTERVALS[9] == ((0.0, 0.0), (0.0, 0.0))
    assert len(LABEL_INTERVALS) == 10


class TestExtremeAspectRanges:
    @pytest.mark.parametrize("aspect", [(1 / 3, 3.0), (1e-3, 1e3), (1e-6, 1e6)])
    def test_capped_sides_match_the_uncapped_reference(self, aspect):
        """Sides past twice the grid side are capped; no rectangle moves."""
        params = np.random.default_rng(5).random((400, 4))
        rects = _rectangles(8, 8, params, (0.02, 1.0), aspect)
        for p, rect in zip(params, rects.T.tolist()):
            assert tuple(rect) == (reference_rectangle(8, 8, p, (0.02, 1.0), aspect)
                                   or (0, 0, 0, 0))

    @pytest.mark.parametrize("aspect", [(1e308, 1e308), (5e-324, 1e-300)])
    def test_overflowing_sides_give_empty_rectangles_without_warnings(self, aspect):
        params = np.random.default_rng(6).random((50, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rects = _rectangles(8, 8, params, (0.0, 1.0), aspect)
        assert (rects == 0).all()  # the other side rounds below one pixel

    @pytest.mark.parametrize("aspect", [(5e-324, 3.0), (1.0, math.inf), (1e-300, 1e300),
                                        (math.nan, 1.0)])
    def test_aspect_ratio_span_must_be_finite(self, aspect):
        with pytest.raises(GvlabError) as err:
            AugmentDistribution(aspect_range=aspect)
        assert err.value.code == "bad-variable"
