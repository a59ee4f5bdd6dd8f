import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gvlab import models
from gvlab.errors import GvlabError
from gvlab.models import (LinearModel, TrainConfig, VectorDataset, loss_and_gradients, risk,
                          train, train_lockstep)
from gvlab.synth import balance_column, balance_substitute, generate_toy, random_toy_spec

from lockstep_reference import (assert_bit_equal, check_model_0,
                                check_substitutes_match_reference, check_substitutes_near_train,
                                reference_batch, reference_error, reference_train,
                                stacked_forward_terms, stacked_parameter_gradients, stacked_probs,
                                stacked_train, substitute_mask, substituted)


def sigmoid_model(weights, bias):
    return LinearModel(np.atleast_2d(np.asarray(weights, float)),
                       np.atleast_1d(np.asarray(bias, float)), "sigmoid")


class TestForward:
    def test_zero_softmax_is_uniform(self):
        model = LinearModel(np.zeros((3, 4)), np.zeros(3), "softmax")
        np.testing.assert_allclose(model.forward(np.ones(4)), np.full(3, 1 / 3), atol=1e-15)

    def test_zero_sigmoid_is_half(self):
        model = sigmoid_model(np.zeros(2), 0.0)
        np.testing.assert_allclose(model.forward(np.zeros(2)), [0.5, 0.5], atol=1e-15)

    def test_inactive_feature(self):
        model = sigmoid_model([1.0, 0.0], 0.0)
        np.testing.assert_allclose(model.forward(np.array([0.0, 5.0])), [0.5, 0.5], atol=1e-15)

    def test_scores_sum_to_one_for_large_inputs(self):
        rng = np.random.default_rng(0)
        model = LinearModel(rng.normal(size=(5, 8)), rng.normal(size=5), "softmax")
        x = rng.uniform(-1e3, 1e3, size=(200, 8))
        probs = model.forward(x)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert probs.min() >= 0.0

    def test_dimension_mismatch(self):
        model = sigmoid_model([1.0, 0.0], 0.0)
        with pytest.raises(GvlabError) as err:
            model.forward(np.zeros(3))
        assert err.value.code == "bad-input-dim"

    def test_parameters_must_be_finite(self):
        with pytest.raises(GvlabError):
            sigmoid_model([np.inf, 0.0], 0.0)


class TestPredict:
    @pytest.mark.parametrize("rows, head", [(1, "sigmoid"), (2, "softmax"), (7, "softmax")])
    def test_equals_the_argmax_of_the_scores(self, rows, head):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            model = LinearModel(rng.normal(size=(rows, 6)), rng.normal(size=rows), head)
            x = rng.normal(size=(300, 6)) * 10.0 ** seed
            expected = model.forward(x).argmax(axis=1)
            assert model.predict(x).tobytes() == expected.tobytes()
            assert model.predict(x[0]) == expected[0]

    def test_a_tie_goes_to_the_lowest_label(self):
        model = LinearModel([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]], np.zeros(3), "softmax")
        assert model.predict([[1.0, 1.0], [2.0, 1.0], [0.0, 0.0]]).tolist() == [0, 1, 0]

    def test_sigmoid_predicts_one_only_above_zero(self):
        model = sigmoid_model([1.0, 0.0], 0.0)
        assert model.predict([[0.0, 5.0], [1e-300, 0.0], [-1e-300, 0.0]]).tolist() == [0, 1, 0]

    @pytest.mark.parametrize("x", [np.zeros(3), np.zeros((4, 3)), np.zeros((1, 2, 2))])
    def test_dimension_mismatch(self, x):
        model = sigmoid_model([1.0, 0.0], 0.0)
        for method in (model.forward, model.predict):
            with pytest.raises(GvlabError) as err:
                method(x)
            assert err.value.code == "bad-input-dim"


def separable_data(n=60, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 0.2, size=(n, 2))
    y = rng.integers(0, 2, size=n)
    x[:, 0] += np.where(y == 1, 1.5, -1.5)  # margin well above the noise
    return VectorDataset(x, y, 2)


class TestTrain:
    def test_separable_data_reaches_full_accuracy(self):
        data = separable_data()
        result = train(data, TrainConfig(0.1, 0.9, 16, 100, seed=3))
        assert risk(result.model, data).zero_one_error == 0.0

    def test_zero_learning_rate_freezes_initialization(self):
        """The model stays at zero, and every epoch's loss (the final loss of
        a run cut after that epoch) is the same."""
        data = separable_data()
        config = TrainConfig(0.0, 0.9, 16, 5, seed=3)
        result = train(data, config)
        assert np.all(result.model.weights == 0.0)
        assert np.all(result.model.bias == 0.0)
        assert_bit_equal(result, *reference_train(data, config))
        prefixes = {train(data, replace(config, epochs=e)).loss for e in range(1, 6)}
        assert prefixes == {result.loss}

    def test_same_seed_is_bit_identical(self):
        data = separable_data()
        config = TrainConfig(0.05, 0.9, 16, 20, seed=11)
        a = train(data, config)
        b = train(data, config)
        assert_bit_equal(a, b.model.weights, b.model.bias, (b.loss,))
        assert_bit_equal(a, *reference_train(data, config))

    def test_softmax_head_for_multiclass(self):
        rng = np.random.default_rng(5)
        data = VectorDataset(rng.normal(size=(30, 3)), rng.integers(0, 3, 30), 3)
        result = train(data, TrainConfig(0.1, 0.0, 10, 5, seed=0))
        assert result.model.head == "softmax"
        assert result.model.k == 3

    def test_full_batch_descent_is_monotone(self):
        """Convex objective: full-batch steps with a small rate never increase
        the loss.  Epoch e's permutation is keyed by (seed, e), so a run cut
        after epoch e reports epoch e's loss of the full run."""
        rng = np.random.default_rng(9)
        data = VectorDataset(rng.normal(size=(40, 3)), rng.integers(0, 2, 40), 2)
        config = TrainConfig(1e-3, 0.0, 40, 60, seed=0)
        losses = [train(data, replace(config, epochs=e)).loss for e in range(1, 61)]
        assert losses[-1] == train(data, config).loss
        diffs = np.diff(losses)
        assert np.all(diffs <= 1e-12)

    def test_full_batch_epoch_steps_by_the_checked_gradient(self):
        """From the zero model, one full-batch epoch without momentum moves the
        parameters by exactly -lr times the gradient that loss_and_gradients
        reports, so the checked gradient is the one that trains."""
        rng = np.random.default_rng(13)
        for k, head in ((2, "sigmoid"), (3, "softmax")):
            data = VectorDataset(rng.normal(size=(24, 4)), rng.integers(0, k, 24), k)
            rows = 1 if head == "sigmoid" else k
            zero = LinearModel(np.zeros((rows, 4)), np.zeros(rows), head)
            _, gw, gb = loss_and_gradients(zero, data.x, data.y)
            model = train(data, TrainConfig(0.5, 0.0, 24, 1, seed=4)).model
            np.testing.assert_allclose(model.weights, -0.5 * gw, rtol=0, atol=1e-12)
            np.testing.assert_allclose(model.bias, -0.5 * gb, rtol=0, atol=1e-12)

    def test_divergence_is_reported_with_epoch(self):
        data = separable_data()
        with pytest.raises(GvlabError) as err:
            train(data, TrainConfig(1e308, 0.9, 16, 8, seed=0))
        assert err.value.code == "diverged"
        assert "epoch" in str(err.value)

    def test_batch_size_cannot_exceed_dataset(self):
        data = separable_data(n=10)
        with pytest.raises(GvlabError) as err:
            train(data, TrainConfig(0.1, 0.9, 64, 5, seed=0))
        assert err.value.code == "bad-config"

    @pytest.mark.parametrize("field", [{"seed": -1}, {"batch_size": 2.5}, {"epochs": 1.5},
                                       {"seed": 0.5}, {"epochs": True},
                                       {"learning_rate": math.nan}, {"learning_rate": math.inf}],
                             ids=["negative-seed", "fractional-batch", "fractional-epochs",
                                  "fractional-seed", "bool-epochs", "nan-learning-rate",
                                  "inf-learning-rate"])
    def test_bad_config_rejected(self, field):
        with pytest.raises(GvlabError) as err:
            TrainConfig(**field)
        assert err.value.code == "bad-config"


@st.composite
def training_cases(draw):
    """A dataset with a ragged last batch, a short config and substitutions;
    from k = 8 on numpy sums a softmax row pairwise, not in sequence."""
    k = draw(st.sampled_from([2, 3, 4, 8, 9, 10, 11, 12]))
    n = draw(st.integers(8, 60))
    d = draw(st.integers(1, 5))
    batch_size = draw(st.integers(2, n - 1).filter(lambda size: n % size))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    data = VectorDataset(rng.normal(size=(n, d)), rng.integers(0, k, n), k)
    config = TrainConfig(draw(st.sampled_from([0.05, 0.3])), draw(st.sampled_from([0.0, 0.9])),
                         batch_size, draw(st.integers(1, 4)), seed)
    substitutions = [(int(rng.integers(d)), rng.normal(size=n))
                     for _ in range(draw(st.integers(0, 3)))]
    return data, config, substitutions


class TestTrainLockstep:
    """Three checks tie each lockstep run to its references: model 0 equals
    ``train`` and the plain reference loop bit for bit, each substitute model
    equals the extended-row reference bit for bit, and ``train`` on its
    substituted dataset within the first-order rounding bound of
    ``lockstep_reference.substitute_bound``."""

    @staticmethod
    def check(results, data, config, substitutions):
        assert len(results) == len(substitutions) + 1
        check_model_0(results[0], data, config)
        check_substitutes_match_reference(results[1:], data, config, substitutions)
        check_substitutes_near_train(results[1:], data, config, substitutions)

    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_sequential_training(self, k):
        """K substitutions trained in lockstep give the K+1 models of
        sequential ``train`` calls on ``balance_substitute``'s datasets."""
        rng = np.random.default_rng(17)
        data = VectorDataset(rng.normal(size=(70, 5)), rng.integers(0, k, 70), k)
        config = TrainConfig(0.1, 0.9, 16, 6, seed=8)  # 70 rows: a ragged last batch of 6
        dims = (4, 1, 2)
        substitutions = [(j, balance_column(data.n, 30 + j)) for j in dims]
        balanced = [balance_substitute(data, j, 30 + j) for j in dims]
        assert [s.x.tobytes() for s in balanced] == [
            s.x.tobytes() for s in substituted(data, substitutions)[1:]]
        self.check(train_lockstep(data, config, substitutions), data, config, substitutions)

    @settings(max_examples=60, deadline=None)
    @given(training_cases())
    def test_matches_the_reference_bit_for_bit(self, case):
        """Both heads, ragged batches and 0 to 3 substitutions: model 0 equals
        the per-step reference loop, each substitute the extended-row one,
        and ``loss_and_gradients`` the reference batch on every dataset."""
        data, config, substitutions = case
        results = train_lockstep(data, config, substitutions)
        self.check(results, data, config, substitutions)
        for result, dataset in zip(results, substituted(data, substitutions), strict=True):
            w, b = result.model.weights, result.model.bias
            loss, gw, gb = loss_and_gradients(result.model, dataset.x, dataset.y)
            ref_loss, ref_gw, ref_gb = reference_batch(w, b, dataset.x, dataset.y)
            assert loss == ref_loss / dataset.n
            assert gw.tobytes() == ref_gw.tobytes()
            assert gb.tobytes() == ref_gb.tobytes()

    @pytest.mark.parametrize("k", [2, 3])
    def test_a_mask_that_reads_the_substituted_column_fails(self, k, monkeypatch):
        """A planted defect, a mask that lets substitute model i train its
        weight on the original column ``dims[i]``, fails both the reference
        check and the bound against ``train``."""
        def leaky_mask(d, dims, rows):
            mask = substitute_mask(d, dims, rows)
            for i, j in enumerate(dims):
                mask[i * rows:(i + 1) * rows, j] = 1.0
            return mask

        monkeypatch.setattr(models, "_substitute_mask", leaky_mask)
        rng = np.random.default_rng(17)
        data = VectorDataset(rng.normal(size=(70, 5)), rng.integers(0, k, 70), k)
        config = TrainConfig(0.1, 0.9, 16, 6, seed=8)
        substitutions = [(j, balance_column(data.n, 30 + j)) for j in (4, 1, 2)]
        results = train_lockstep(data, config, substitutions)
        check_model_0(results[0], data, config)
        with pytest.raises(AssertionError):
            check_substitutes_match_reference(results[1:], data, config, substitutions)
        with pytest.raises(AssertionError):
            check_substitutes_near_train(results[1:], data, config, substitutions)

    @pytest.mark.parametrize("dim, length, code", [
        (2, 60, "bad-variable"),
        (-1, 60, "bad-variable"),
        (1, 59, "bad-input-dim"),
        (1.7, 60, "bad-variable"),
        (True, 60, "bad-variable"),
    ])
    def test_bad_substitution_rejected(self, dim, length, code):
        data = separable_data(n=60)
        with pytest.raises(GvlabError) as err:
            train_lockstep(data, TrainConfig(0.1, 0.9, 16, 2), [(dim, np.zeros(length))])
        assert err.value.code == code

    @pytest.mark.parametrize("k", [2, 3])
    def test_one_row_last_batch_matches_the_reference(self, k):
        """With n = batch_size + 1 the last step trains every model on one
        row."""
        rng = np.random.default_rng(23)
        data = VectorDataset(rng.normal(size=(17, 4)), rng.integers(0, k, 17), k)
        config = TrainConfig(0.1, 0.9, 16, 3, seed=2)
        substitutions = [(3, rng.normal(size=17)), (0, rng.normal(size=17))]
        self.check(train_lockstep(data, config, substitutions), data, config, substitutions)

    def test_toy_scale_matches_sequential_training(self):
        """At the toy protocols' scale (d = 20, batches of 256 rows, 10
        balanced dimensions) BLAS runs other kernels than in the small
        cases above; the three checks still hold."""
        data = generate_toy(random_toy_spec(seed=2)).train
        assert (data.n, data.d) == (5000, 20)
        config = TrainConfig(0.01, 0.9, 256, 2, seed=4)
        substitutions = [(j, balance_column(data.n, 40 + j)) for j in range(10, 20)]
        self.check(train_lockstep(data, config, substitutions), data, config, substitutions)

    def test_grid_task_scale_softmax_matches_the_references(self):
        """At the augmentation sweep's scale (n 600, d 64, k = 10 class-major
        rows, batches of 256 with a ragged last one, 2 epochs) model 0 equals
        the reference loops, the stacked form and ``loss_and_gradients`` the
        reference batch, ``predict`` reads the reference logits, and a stack
        of softmax models with substitutions passes the three checks."""
        rng = np.random.default_rng(33)
        data = VectorDataset(rng.random((600, 64)), np.repeat(np.arange(10), 60), 10)
        config = TrainConfig(0.05, 0.9, 256, 2, seed=5)
        substitutions = [(j, rng.random(600)) for j in (27, 3)]
        results = train_lockstep(data, config, substitutions)
        self.check(results, data, config, substitutions)
        assert_bit_equal(results[0], *stacked_train(data, config))
        model = results[0].model
        loss, gw, gb = loss_and_gradients(model, data.x, data.y)
        ref_loss, ref_gw, ref_gb = reference_batch(model.weights, model.bias, data.x, data.y)
        assert loss == ref_loss / data.n
        assert (gw.tobytes(), gb.tobytes()) == (ref_gw.tobytes(), ref_gb.tobytes())
        terms = stacked_forward_terms(model.weights[None], model.bias[None], "softmax",
                                      data.x[None])[0]
        assert model.predict(data.x).tolist() == terms.argmax(axis=1).tolist()

    def test_calls_share_no_state(self):
        """Training on A, then on B, then on A again returns A's results
        unchanged, and the caller's substitute columns stay as they were."""
        rng = np.random.default_rng(29)
        a = VectorDataset(rng.normal(size=(50, 3)), rng.integers(0, 2, 50), 2)
        b = VectorDataset(rng.normal(size=(41, 5)), rng.integers(0, 3, 41), 3)
        subs_a = [(0, rng.normal(size=50)), (2, rng.normal(size=50))]
        subs_b = [(4, rng.normal(size=41))]
        columns = [column.copy() for _, column in subs_a + subs_b]
        config = TrainConfig(0.1, 0.9, 16, 3, seed=6)
        first = train_lockstep(a, config, subs_a)
        train_lockstep(b, config, subs_b)
        again = train_lockstep(a, config, subs_a)
        self.check(first, a, config, subs_a)
        for x, y in zip(first, again, strict=True):
            assert_bit_equal(y, x.model.weights, x.model.bias, [x.loss])
        for (_, column), before in zip(subs_a + subs_b, columns, strict=True):
            assert column.tobytes() == before.tobytes()

    def test_divergence_names_the_epoch_of_the_first_diverging_model(self):
        """Scaled-up substitutes make models 1 and 2 diverge at different
        epochs; as in sequential training, model 1's epoch is reported even
        though model 2 diverges first."""
        data = separable_data()
        config = TrainConfig(0.05, 0.9, 16, 12, seed=0)
        column = balance_column(data.n, 5)
        substitutions = [(1, column * 10.0 ** 154.5), (1, column * 1e155)]
        messages = []
        for dim, substitute in substitutions:
            x = data.x.copy()
            x[:, dim] = substitute
            with pytest.raises(GvlabError) as err:
                train(VectorDataset(x, data.y, 2), config)
            messages.append(str(err.value))
        first_epochs = [int(message.rsplit(" ", 1)[1]) for message in messages]
        assert first_epochs[0] > first_epochs[1]
        # The reference loop cut after each epoch: the first epoch whose
        # parameters or loss are not finite.
        reference_epochs = []
        for dataset in substituted(data, substitutions)[1:]:
            with np.errstate(all="ignore"):
                runs = (reference_train(dataset, replace(config, epochs=e + 1))
                        for e in range(config.epochs))
                reference_epochs.append(next(
                    e for e, (w, b, losses) in enumerate(runs)
                    if not np.isfinite([*w.ravel(), *b, losses[-1]]).all()))
        assert reference_epochs == first_epochs
        with pytest.raises(GvlabError) as err:
            train_lockstep(data, config, substitutions)
        assert err.value.code == "diverged"
        assert str(err.value) == messages[0]
        assert str(err.value).endswith(f" {reference_epochs[0]}")

    def test_a_finite_run_computes_the_losses_once(self, monkeypatch):
        """At toy scale with 10 substitutions, a run that stays finite checks
        each epoch without the per-sample losses and computes them once, one
        model at a time, so no transient holds more than one model's terms."""
        calls = []

        def counted(*args):
            calls.append(args)
            return sample_losses(*args)

        sample_losses = models._sample_losses
        monkeypatch.setattr(models, "_sample_losses", counted)
        data = generate_toy(random_toy_spec(seed=2)).train
        substitutions = [(j, balance_column(data.n, 40 + j)) for j in range(10, 20)]
        results = train_lockstep(data, TrainConfig(0.01, 0.9, 256, 20, seed=4), substitutions)
        assert len(results) == 11
        assert [args[0].shape for args in calls] == [(1, data.n)] * 11

    def test_a_run_stops_once_model_0_diverges(self, monkeypatch):
        """Model 0 diverges in epoch 0 while its substituted model stays
        finite; the run raises after that one epoch, as ``train`` does."""
        data = separable_data()
        x = data.x.copy()
        x[:, 0] *= 1e300
        huge = VectorDataset(x, data.y, 2)
        config = TrainConfig(0.05, 0.9, 16, 10, seed=0)
        substitutions = [(0, balance_column(data.n, 5))]
        train_lockstep(substituted(huge, substitutions)[1], config)  # finite on its own
        epochs = []

        def counted(*args):
            epochs.append(args)
            return stream(*args)

        stream = models.stream
        monkeypatch.setattr(models, "stream", counted)
        with pytest.raises(GvlabError) as err:
            train_lockstep(huge, config, substitutions)
        assert len(epochs) == 1
        assert err.value.code == "diverged"
        assert str(err.value) == "diverged: non-finite parameters or loss at epoch 0"

    @pytest.mark.parametrize("epochs, substitutions", [
        (2**60, 0), (10**30, 0), (2**59, 1), (2**57, 10)])
    def test_a_run_that_could_never_finish_is_rejected(self, epochs, substitutions):
        """Epoch counts of 2**60 model updates or more are refused before any
        work, as bad-config."""
        data = separable_data(n=16)
        columns = [(0, np.zeros(16))] * substitutions
        with pytest.raises(GvlabError) as err:
            train_lockstep(data, TrainConfig(0.1, 0.9, 16, epochs), columns)
        assert err.value.code == "bad-config"
        assert "never finish" in str(err.value)


@st.composite
def one_model_cases(draw):
    """One model of either head with its weights and bias as strided views of
    one flat (rows, d + 1) block, and a batch of n rows and labels, n and d
    in 1..8, where OpenBLAS takes its small-``lda`` paths; softmax k in 3..4
    or 8..12, where numpy sums a row pairwise."""
    head = draw(st.sampled_from(["sigmoid", "softmax"]))
    k = 2 if head == "sigmoid" else draw(st.one_of(st.integers(3, 4), st.integers(8, 12)))
    n, d = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = 1 if head == "sigmoid" else k
    block = rng.normal(size=rows * (d + 1)).reshape(rows, d + 1)
    return head, block[:, :d], block[:, d], rng.normal(size=(n, d)), rng.integers(0, k, n)


def short_training(k, n, d, seed, momentum, batch_size, epochs, substitutions):
    """Data of n rows and d columns drawn from ``seed``, a short config and
    that many substitutions."""
    rng = np.random.default_rng(seed)
    data = VectorDataset(rng.normal(size=(n, d)), rng.integers(0, k, n), k)
    columns = [(int(rng.integers(d)), rng.normal(size=n)) for _ in range(substitutions)]
    return data, TrainConfig(0.3, momentum, batch_size, epochs, seed % 2**16), columns


@st.composite
def short_trainings(draw):
    """A short training on n rows and d columns in 1..8, with a ragged last
    batch when the batch size does not divide n, and 0 to 2 substitutions,
    which make model 0 read a copy of its columns of the extended rows."""
    n = draw(st.integers(1, 8))
    return short_training(draw(st.sampled_from([2, 3, 8, 10, 12])), n, draw(st.integers(1, 8)),
                          draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from([0.0, 0.9])),
                          draw(st.integers(1, n)), draw(st.integers(1, 3)),
                          draw(st.integers(0, 2)))


class TestOneModelProducts:
    """One model's plain 2-D products equal the stacked form (a stack of one
    model on a stack of one batch, in 3-D ``matmul``s) bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(one_model_cases())
    def test_forward_and_gradients_equal_the_stacked_form(self, case):
        """Softmax terms and errors are class-major (k, rows), so they are
        compared through their transposed views, and the stacked form reads
        the error row-major, as the library's gradient products do."""
        head, w, b, x, y = case
        terms = models._forward_terms(w, b, head, x)
        expected = stacked_forward_terms(w[None], b[None], head, x[None])[0]
        by_row = terms if head == "sigmoid" else terms.T
        assert by_row.shape == expected.shape
        assert by_row.tobytes() == expected.tobytes()
        g = models._output_error(terms, head, models._targets(head, y, len(w)))
        _, expected_g = reference_error(expected, y)
        g_by_row = g if head == "sigmoid" else np.ascontiguousarray(g.T)
        assert g_by_row.tobytes() == expected_g.tobytes()
        grads = np.full(w.size + b.size, np.nan).reshape(w.shape[0], -1)
        models._parameter_gradients(g, head, x, grads[:, :-1], grads[:, -1])
        gw, gb = stacked_parameter_gradients(g_by_row[None], head, x[None])
        assert grads[:, :-1].tobytes() == gw[0].tobytes()
        assert grads[:, -1].tobytes() == gb[0].tobytes()

    def test_class_major_logits_equal_the_row_major_product(self):
        """``w @ x.T`` gives the row-major ``x @ w.T`` bit for bit up to 11
        classes, on batches up to 1 000 rows; with OpenBLAS 0.3.31 a batch of
        more than 192 rows that is not a multiple of 8 can differ in the
        last bit from 12 classes on."""
        rng = np.random.default_rng(43)
        for k in range(2, 12):
            for n in (1, 7, 88, 193, 256, 300, 500, 600, 1000):
                for d in (1, 8, 64):
                    block = rng.normal(size=(k, d + 1))
                    w, b, x = block[:, :d], block[:, d], rng.normal(size=(n, d))
                    logits = models._forward_terms(w, b, "softmax", x)
                    assert logits.T.tobytes() == (x @ w.T + b).tobytes(), (k, n, d)

    @settings(max_examples=200, deadline=None)
    @given(one_model_cases())
    def test_model_methods_equal_the_stacked_form(self, case):
        head, w, b, x, y = case
        model = LinearModel(w, b, head)
        probs = stacked_probs(w[None], b[None], head, x[None])[0]
        assert model.forward(x).tobytes() == probs.tobytes()
        one = stacked_probs(w[None], b[None], head, x[None, :1])[0, 0]
        assert model.forward(x[0]).tobytes() == one.tobytes()
        terms = stacked_forward_terms(w[None], b[None], head, x[None])[0]
        labels = (terms > 0).astype(np.int64) if head == "sigmoid" else terms.argmax(axis=1)
        assert model.predict(x).tolist() == labels.tolist()
        loss_sum, g = reference_error(terms, y)
        gw, gb = stacked_parameter_gradients(g[None], head, x[None])
        loss, got_gw, got_gb = loss_and_gradients(model, x, y)
        assert loss == loss_sum / len(y)
        assert got_gw.tobytes() == gw[0].tobytes()
        assert got_gb.tobytes() == gb[0].tobytes()

    @settings(max_examples=100, deadline=None)
    @given(short_trainings())
    # Full sigmoid batches of 8 rows with a substitution, where model 0 would
    # round differently on strided rows at d = 1 to 3.
    @example(short_training(2, 8, 1, 0, 0.9, 8, 1, 1))
    @example(short_training(2, 8, 2, 0, 0.9, 8, 1, 1))
    @example(short_training(2, 8, 3, 0, 0.9, 8, 1, 1))
    def test_model_0_trains_as_the_stacked_form(self, case):
        data, config, substitutions = case
        expected = stacked_train(data, config)
        assert_bit_equal(train_lockstep(data, config, substitutions)[0], *expected)
        assert_bit_equal(train(data, config), *expected)


def guard_case(head, k, models_, n, batch_size, big, weights, seed, worst_labels):
    """Forward terms (models_, n) or (models_, n, k) drawn from ordinary
    values, ``big`` and its fractions, the infinities and NaN with the given
    weights, and labels: each sample's worst label under model 0 (its largest
    loss) or uniform ones."""
    palette = np.array([0.0, 1.5, -3.0, big, -big, -big / 7, np.inf, -np.inf, np.nan])
    weights = np.asarray(weights, dtype=np.float64)
    rng = np.random.default_rng(seed)
    shape = (models_, n) if head == "sigmoid" else (models_, n, k)
    terms = rng.choice(palette, size=shape, p=weights / weights.sum())
    if not worst_labels:
        y = rng.integers(0, k, n)
    elif head == "sigmoid":
        y = (terms[0] < 0).astype(np.int64)
    else:
        y = np.nan_to_num(terms[0], nan=0.0).argmin(axis=1)
    return head, terms, models._labels(head, y), batch_size


def batch_major(terms, batch_size):
    """Model-major terms (models, n) or (models, n, k) laid out as the
    lockstep epoch buffer: one flat array of per-step blocks (models, size)
    or class-major (models, k, size), in step order, and those blocks."""
    n = terms.shape[1]
    steps = [terms[:, start:start + batch_size] for start in range(0, n, batch_size)]
    blocks = [step if terms.ndim == 2 else np.swapaxes(step, 1, 2) for step in steps]
    flat = np.concatenate([block.ravel() for block in blocks])
    views, at = [], 0
    for block in blocks:
        views.append(flat[at:at + block.size].reshape(block.shape))
        at += block.size
    return flat, views


@st.composite
def guard_cases(draw):
    """Large finite terms push ``max|term| * n`` across the guard's bound on
    up to 3000 samples, so that a loss sum can overflow while every term is
    finite."""
    head = draw(st.sampled_from(["sigmoid", "softmax"]))
    k = 2 if head == "sigmoid" else draw(st.one_of(st.integers(2, 4), st.integers(8, 12)))
    n = draw(st.integers(1, 3000))
    big = draw(st.one_of(st.floats(1e150, 1.7e308),
                         st.floats(0.05, 1.0).map(lambda share: share * 1.7e308 / n)))
    finite_weights = draw(st.lists(st.sampled_from([0, 1, 4]), min_size=6, max_size=6)
                          .filter(any))
    special_weights = draw(st.sampled_from([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                                            [1, 1, 1]]))
    return guard_case(head, k, draw(st.integers(1, 3)), n, draw(st.integers(1, n)), big,
                      finite_weights + special_weights, draw(st.integers(0, 2**32 - 1)),
                      draw(st.booleans()))


def check_class_sums(class_sum):
    """``class_sum`` of class-major (..., k, rows) values equals numpy's
    ``np.add.reduce(axis=-1)`` of their row-major layout for every k in
    2..300, one model's and stacked, bit for bit on values spread over 16
    decades and rows holding NaN, ±inf, ±0.0 and overflowing pairs (NaN
    signs aside, which the compiler may set either way)."""
    rng = np.random.default_rng(41)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324])
    for k in range(2, 301):
        for shape in ((12, k), (2, 12, k)):
            values = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
            values[..., 0, :] = -0.0
            values[..., 1, :] = rng.choice(specials, size=k)
            values[..., 2, :] = rng.choice([np.inf, -np.inf, 1.0], size=k)
            values[..., 3, :] = rng.choice([np.nan, 2.0], size=k)
            with np.errstate(over="ignore", invalid="ignore"):
                expected = np.add.reduce(values, axis=-1)
                got = class_sum(np.ascontiguousarray(np.swapaxes(values, -1, -2)))
            assert got.shape == shape[:-2] + (1, shape[-2])
            got = got[..., 0, :]
            nan = np.isnan(expected)
            assert np.isnan(got).tolist() == nan.tolist(), k
            assert got[~nan].tobytes() == expected[~nan].tobytes(), k


def test_class_sums_equal_numpy_row_sums():
    check_class_sums(models._class_sum)


def test_a_sequential_class_sum_fails():
    """A planted defect: a plain sum down the class rows, numpy's order only
    below 8 classes, fails the check."""
    def sequential(a):
        total = a[..., :1, :] + 0.0
        for i in range(1, a.shape[-2]):
            total += a[..., i:i + 1, :]
        return total

    with pytest.raises(AssertionError, match=r"^(8|9|1\d)\b"):
        check_class_sums(sequential)


SIGMOID_SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310, -1e-310,
                    745.2, -745.2, 1e300]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=40), st.integers(0, 2**32 - 1))
@example(SIGMOID_SPECIALS, 0)
def test_sigmoid_equals_the_masked_textbook_form_bit_for_bit(values, seed):
    """On a 1-D row, and scattered into the 2-D views a training step passes:
    the (11, 256) step block as a strided view of a wider epoch buffer, and a
    view strided along both axes.  The input stays intact.  Written into
    given ``out`` and ``scratch`` views of wider buffers, as a training step
    passes them, the values are the same, and one buffer pair serves two
    calls, on ``z`` and on ``-z``."""
    def check(z, got):
        textbook = np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))
        nan = np.isnan(textbook)
        assert np.isnan(got).tolist() == nan.tolist()
        assert got[~nan].tobytes() == textbook[~nan].tobytes()

    rng = np.random.default_rng(seed)
    wide = rng.normal(0.0, 40.0, size=(11, 600))
    step = wide[:, 100:356]
    step.flat[rng.choice(step.size, len(values), replace=False)] = values
    step.flat[rng.choice(step.size, len(SIGMOID_SPECIALS), replace=False)] = SIGMOID_SPECIALS
    out, scratch = np.full((2, 11, 300), np.nan)
    for z in (np.array(values)[None], step, wide[1::3, ::5]):
        before = z.tobytes()
        rows, cols = z.shape
        with np.errstate(all="ignore"):
            check(z, models._sigmoid(z))
            for value in (z, np.negative(z)):
                got = models._sigmoid(value, out[:rows, :cols], scratch[:rows, :cols])
                assert np.shares_memory(got, out)
                check(value, got)
        assert z.tobytes() == before


class TestLossGuard:
    @settings(max_examples=300, deadline=None)
    @given(guard_cases())
    # Softmax sums just past the float maximum with max|term| * n below it,
    # and large terms whose losses stay finite.
    @example(guard_case("softmax", 4, 2, 1000, 256, 0.9 * 1.7e308 / 1000,
                        [0, 0, 0, 1, 1, 0, 0, 0, 0], 1, True))
    @example(guard_case("sigmoid", 2, 2, 100, 16, 1e306, [0, 0, 0, 1, 1, 0, 0, 0, 0], 2,
                        False))
    def test_guard_equals_the_finiteness_of_the_loss_sums(self, case):
        head, terms, y, batch_size = case
        epoch_buffer, blocks = batch_major(terms, batch_size)
        assert models._model_major(blocks).tobytes() == terms.tobytes()
        with np.errstate(all="ignore"):
            expected = np.isfinite(models._epoch_loss_sums(
                models._sample_losses(terms, head, y), batch_size))
            got = models._finite_loss_sums(epoch_buffer, blocks, head, y, batch_size)
        assert got.tolist() == expected.tolist()


class TestRisk:
    def test_perfect_model(self):
        data = separable_data()
        model = train(data, TrainConfig(0.1, 0.9, 16, 100, seed=3)).model
        report = risk(model, data)
        assert report.zero_one_error == 0.0
        assert 0.5 < report.mean_max_output <= 1.0

    def test_uniform_model_tie_breaks_to_label_zero(self):
        data = VectorDataset(np.zeros((8, 2)), np.array([0, 0, 0, 1, 1, 1, 1, 1]), 2)
        model = sigmoid_model(np.zeros(2), 0.0)
        assert risk(model, data).zero_one_error == pytest.approx(5 / 8)

    def test_hand_built_three_point_dataset(self):
        model = sigmoid_model([1.0, 0.0], 0.0)
        x = np.array([[1.0, 0.0], [-1.0, 0.0], [2.0, 0.0]])
        y = np.array([1, 0, 0])  # third point misclassified
        assert risk(model, VectorDataset(x, y, 2)).zero_one_error == pytest.approx(1 / 3)


class TestGradients:
    def test_analytic_matches_central_differences(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            k = int(rng.integers(2, 5))
            d = int(rng.integers(2, 6))
            head = "sigmoid" if k == 2 else "softmax"
            rows = 1 if head == "sigmoid" else k
            w = rng.normal(0, 1, size=(rows, d))
            b = rng.normal(0, 1, size=rows)
            x = rng.normal(0, 1, size=(7, d))
            y = rng.integers(0, k, size=7)
            model = LinearModel(w, b, head)
            _, gw, gb = loss_and_gradients(model, x, y)
            step = 1e-5
            for idx in np.ndindex(*w.shape):
                wp, wm = w.copy(), w.copy()
                wp[idx] += step
                wm[idx] -= step
                lp, _, _ = loss_and_gradients(LinearModel(wp, b, head), x, y)
                lm, _, _ = loss_and_gradients(LinearModel(wm, b, head), x, y)
                numeric = (lp - lm) / (2 * step)
                assert gw[idx] == pytest.approx(numeric, rel=1e-5, abs=1e-8)
            for i in range(rows):
                bp, bm = b.copy(), b.copy()
                bp[i] += step
                bm[i] -= step
                lp, _, _ = loss_and_gradients(LinearModel(w, bp, head), x, y)
                lm, _, _ = loss_and_gradients(LinearModel(w, bm, head), x, y)
                assert gb[i] == pytest.approx((lp - lm) / (2 * step), rel=1e-5, abs=1e-8)


    @pytest.mark.parametrize("head, x, y, code", [
        pytest.param("sigmoid", np.zeros((0, 2)), np.zeros(0, int), "empty-dataset", id="empty"),
        pytest.param("sigmoid", np.zeros((3, 2)), np.zeros(2, int), "bad-input-dim",
                     id="misaligned-labels"),
        pytest.param("sigmoid", np.zeros((3, 3)), np.zeros(3, int), "bad-input-dim",
                     id="wrong-dimension"),
        pytest.param("softmax", np.zeros((2, 2)), np.array([0, 7]), "bad-variable",
                     id="softmax-label-7"),
        pytest.param("sigmoid", np.zeros((2, 2)), np.array([0, 5]), "bad-variable",
                     id="sigmoid-label-5"),
        pytest.param("sigmoid", np.zeros((2, 2)), np.array([0.0, 0.5]), "bad-variable",
                     id="sigmoid-label-0.5"),
        pytest.param("sigmoid", np.zeros((2, 2)), np.array([-1, 0]), "bad-variable",
                     id="negative-label"),
        pytest.param("sigmoid", np.array([[0.0, np.nan], [1.0, 1.0]]), np.array([0, 1]),
                     "bad-variable", id="non-finite-input"),
        pytest.param("sigmoid", np.array([["a", "b"]]), np.array([0]), "bad-variable",
                     id="text-input"),
        pytest.param("sigmoid", np.full((2, 2), 1e308), np.array([0, 1]), "bad-variable",
                     id="overflowing-input"),
    ])
    def test_bad_batch_rejected(self, head, x, y, code):
        rows = 1 if head == "sigmoid" else 3
        model = LinearModel(np.ones((rows, 2)), np.zeros(rows), head)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GvlabError) as err:
                loss_and_gradients(model, x, y)
        assert err.value.code == code

    def test_integral_float_labels_accepted(self):
        model = LinearModel(np.ones((3, 2)), np.zeros(3), "softmax")
        x = np.array([[0.5, -1.0], [2.0, 0.25]])
        as_floats = loss_and_gradients(model, x, np.array([2.0, 0.0]))
        as_ints = loss_and_gradients(model, x, np.array([2, 0]))
        assert as_floats[0] == as_ints[0]
        assert np.array_equal(as_floats[1], as_ints[1])
        assert np.array_equal(as_floats[2], as_ints[2])
