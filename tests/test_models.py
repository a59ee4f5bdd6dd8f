import numpy as np
import pytest

from gvlab.errors import GvlabError
from gvlab.models import (LinearModel, TrainConfig, VectorDataset, load_model,
                          loss_and_gradients, risk, save_model, train, train_lockstep)
from gvlab.synth import balance_column, balance_substitute


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
        data = separable_data()
        result = train(data, TrainConfig(0.0, 0.9, 16, 5, seed=3))
        assert np.all(result.model.weights == 0.0)
        assert np.all(result.model.bias == 0.0)
        assert len(set(result.loss_curve)) == 1

    def test_same_seed_is_bit_identical(self):
        data = separable_data()
        config = TrainConfig(0.05, 0.9, 16, 20, seed=11)
        a = train(data, config)
        b = train(data, config)
        assert a.model.weights.tobytes() == b.model.weights.tobytes()
        assert a.model.bias.tobytes() == b.model.bias.tobytes()
        assert a.loss_curve == b.loss_curve

    def test_softmax_head_for_multiclass(self):
        rng = np.random.default_rng(5)
        data = VectorDataset(rng.normal(size=(30, 3)), rng.integers(0, 3, 30), 3)
        result = train(data, TrainConfig(0.1, 0.0, 10, 5, seed=0))
        assert result.model.head == "softmax"
        assert result.model.k == 3

    def test_full_batch_descent_is_monotone(self):
        """Convex objective: full-batch steps with a small rate never increase
        the loss."""
        rng = np.random.default_rng(9)
        data = VectorDataset(rng.normal(size=(40, 3)), rng.integers(0, 2, 40), 2)
        result = train(data, TrainConfig(1e-3, 0.0, 40, 60, seed=0))
        diffs = np.diff(result.loss_curve)
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


def reference_train(data, config):
    """One model's SGD written with plain 2-D numpy and a masked sigmoid:
    the reference that the stacked kernel must match bit for bit."""
    def sigmoid(z):
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    rows = 1 if data.k == 2 else data.k
    w, b = np.zeros((rows, data.d)), np.zeros(rows)
    vw, vb = np.zeros_like(w), np.zeros_like(b)
    losses = []
    for epoch in range(config.epochs):
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, epoch)))
        order = rng.permutation(data.n)
        loss_sum = 0.0
        for start in range(0, data.n, config.batch_size):
            idx = order[start:start + config.batch_size]
            x, y = data.x[idx], data.y[idx]
            if data.k == 2:
                z = x @ w[0] + b[0]
                yf = y.astype(np.float64)
                loss_sum += float(np.sum(np.maximum(z, 0.0) - z * yf
                                         + np.log1p(np.exp(-np.abs(z)))))
                gz = (sigmoid(z) - yf) / len(idx)
                gw, gb = (gz @ x)[None, :], np.array([gz.sum()])
            else:
                logits = x @ w.T + b
                e = np.exp(logits - logits.max(axis=1, keepdims=True))
                total = e.sum(axis=1, keepdims=True)
                lse = np.log(total[:, 0]) + logits.max(axis=1)
                loss_sum += float(np.sum(lse - logits[np.arange(len(idx)), y]))
                gl = (e / total - np.eye(rows)[y]) / len(idx)
                gw, gb = gl.T @ x, gl.sum(axis=0)
            vw = config.momentum * vw + gw
            vb = config.momentum * vb + gb
            w = w - config.learning_rate * vw
            b = b - config.learning_rate * vb
        losses.append(loss_sum / data.n)
    return w, b, tuple(losses)


class TestTrainLockstep:
    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_sequential_training_bit_for_bit(self, k):
        """K substitutions trained in lockstep give exactly the K+1 models
        that sequential ``train`` calls give on the substituted datasets,
        and both match the plain single-model reference loop."""
        rng = np.random.default_rng(17)
        data = VectorDataset(rng.normal(size=(70, 5)), rng.integers(0, k, 70), k)
        config = TrainConfig(0.1, 0.9, 16, 6, seed=8)  # 70 rows: a ragged last batch of 6
        dims = (4, 1, 2)
        lockstep = train_lockstep(data, config,
                                  [(j, balance_column(data.n, 30 + j)) for j in dims])
        datasets = [data] + [balance_substitute(data, j, 30 + j) for j in dims]
        assert len(lockstep) == len(datasets)
        for got, dataset in zip(lockstep, datasets):
            for result in (got, train(dataset, config)):
                w, b, losses = reference_train(dataset, config)
                assert np.array_equal(result.model.weights, w)
                assert np.array_equal(result.model.bias, b)
                assert result.loss_curve == losses

    @pytest.mark.parametrize("dim, length, code", [
        (2, 60, "bad-variable"),
        (-1, 60, "bad-variable"),
        (1, 59, "bad-input-dim"),
    ])
    def test_bad_substitution_rejected(self, dim, length, code):
        data = separable_data(n=60)
        with pytest.raises(GvlabError) as err:
            train_lockstep(data, TrainConfig(0.1, 0.9, 16, 2), [(dim, np.zeros(length))])
        assert err.value.code == code

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
        with pytest.raises(GvlabError) as err:
            train_lockstep(data, config, substitutions)
        assert err.value.code == "diverged"
        assert str(err.value) == messages[0]


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


class TestSerialization:
    def test_roundtrip_is_exact(self, tmp_path):
        rng = np.random.default_rng(21)
        model = LinearModel(rng.normal(size=(3, 5)), rng.normal(size=3), "softmax")
        path = tmp_path / "model.txt"
        save_model(model, str(path))
        back = load_model(str(path))
        assert back.head == "softmax"
        np.testing.assert_array_equal(back.weights, model.weights)
        np.testing.assert_array_equal(back.bias, model.bias)

    @pytest.mark.parametrize("text", ["", "1.0 2.0\n", "1.0 2.0\n3.0\n0.5 0.5\n",
                                      "1.0 abc\n0.5\n"])
    def test_malformed_file_rejected(self, tmp_path, text):
        path = tmp_path / "model.txt"
        path.write_text(text)
        with pytest.raises(GvlabError) as err:
            load_model(str(path))
        assert err.value.code == "bad-model-file"

    def test_single_row_loads_as_sigmoid(self, tmp_path):
        model = sigmoid_model([0.25, -1.5], 0.75)
        path = tmp_path / "model.txt"
        save_model(model, str(path))
        assert load_model(str(path)).head == "sigmoid"
