import numpy as np
import pytest

from rockrelax.errors import InvalidInputError
from rockrelax.models import (
    MNIST3_WIDTHS,
    Architecture,
    LossKind,
    ModelState,
    fgsm_perturb,
    forward,
    grad_input,
    grad_params_weighted,
    init_params,
    load_checkpoint,
    loss_per_sample,
    save_checkpoint,
)

ALL_KINDS = [LossKind.CCE, LossKind.MAE, LossKind.MSE]


def small_model(rng, widths=(4, 5, 3)):
    arch = Architecture(widths)
    return ModelState(arch, rng.normal(0, 0.7, size=arch.num_params))


def fd_grad(f, x0, step=1e-5):
    """Central finite differences of a scalar function."""
    g = np.zeros_like(x0)
    for j in range(x0.size):
        hi, lo = x0.copy(), x0.copy()
        hi[j] += step
        lo[j] -= step
        g[j] = (f(hi) - f(lo)) / (2 * step)
    return g


class TestForward:
    def test_zero_weights_give_uniform(self):
        arch = Architecture((4, 3))
        model = ModelState(arch, np.zeros(arch.num_params))
        probs = forward(model, np.random.default_rng(0).uniform(size=(5, 4)))
        np.testing.assert_allclose(probs, 1 / 3, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        model = small_model(rng)
        probs = forward(model, rng.uniform(size=(10, 4)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        assert np.all((probs >= 0) & (probs <= 1))

    def test_seeded_init_reproducible(self):
        arch = Architecture((6, 8, 3))
        m1, m2 = init_params(arch, 42), init_params(arch, 42)
        np.testing.assert_array_equal(m1.theta, m2.theta)
        x = np.random.default_rng(2).uniform(size=(4, 6))
        np.testing.assert_array_equal(forward(m1, x), forward(m2, x))
        assert not np.array_equal(init_params(arch, 43).theta, m1.theta)

    def test_dimension_mismatch(self):
        model = small_model(np.random.default_rng(3))
        with pytest.raises(InvalidInputError):
            forward(model, np.zeros((2, 7)))


class TestLosses:
    def test_perfect_prediction_zero_loss(self):
        probs = np.array([[0.0, 1.0, 0.0]])
        for kind in ALL_KINDS:
            assert loss_per_sample(probs, [1], kind)[0] == pytest.approx(0.0, abs=1e-12)

    def test_uniform_prediction_values(self):
        probs = np.full((1, 3), 1 / 3)
        assert loss_per_sample(probs, [0], LossKind.CCE)[0] == pytest.approx(np.log(3))
        assert loss_per_sample(probs, [0], LossKind.MAE)[0] == pytest.approx(4 / 3)
        assert loss_per_sample(probs, [0], LossKind.MSE)[0] == pytest.approx(2 / 3)

    def test_cce_clamp_keeps_loss_finite(self):
        probs = np.array([[1e-30, 1.0 - 1e-30, 0.0]])
        loss = loss_per_sample(probs, [0], LossKind.CCE)[0]
        assert np.isfinite(loss)
        assert loss == pytest.approx(-np.log(1e-12))

    def test_losses_non_negative(self):
        rng = np.random.default_rng(4)
        probs = rng.dirichlet(np.ones(4), size=50)
        labels = rng.integers(0, 4, size=50)
        for kind in ALL_KINDS:
            assert np.all(loss_per_sample(probs, labels, kind) >= 0)

    def test_label_out_of_range(self):
        with pytest.raises(InvalidInputError):
            loss_per_sample(np.full((1, 3), 1 / 3), [3], LossKind.CCE)


class TestGradients:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_param_grad_matches_finite_differences(self, kind):
        rng = np.random.default_rng(5)
        for _ in range(5):
            model = small_model(rng)
            x = rng.uniform(size=(6, 4))
            y = rng.integers(0, 3, size=6)
            w = rng.uniform(0.1, 1.0, size=6)
            grad = grad_params_weighted(model, x, y, w, kind)

            def total(theta):
                probs = forward(model.with_theta(theta), x)
                return float(w @ loss_per_sample(probs, y, kind))

            fd = fd_grad(total, model.theta)
            denom = max(np.linalg.norm(fd), 1e-8)
            assert np.linalg.norm(grad - fd) / denom <= 1e-4

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_input_grad_matches_finite_differences(self, kind):
        rng = np.random.default_rng(6)
        for _ in range(5):
            model = small_model(rng)
            x = rng.uniform(size=4)
            y = 1
            grad = grad_input(model, x, y, kind)
            assert grad.shape == (4,)

            def loss_of(xv):
                return float(loss_per_sample(forward(model, xv[None, :]), [y], kind)[0])

            fd = fd_grad(loss_of, x)
            denom = max(np.linalg.norm(fd), 1e-8)
            assert np.linalg.norm(grad - fd) / denom <= 1e-4

    def test_zero_weights_zero_gradient(self):
        rng = np.random.default_rng(7)
        model = small_model(rng)
        x, y = rng.uniform(size=(5, 4)), rng.integers(0, 3, size=5)
        assert np.all(grad_params_weighted(model, x, y, np.zeros(5), LossKind.CCE) == 0)

    def test_sample_count_mismatch_rejected(self):
        rng = np.random.default_rng(9)
        model = small_model(rng)
        x, y = rng.uniform(size=(4, 4)), rng.integers(0, 3, size=4)
        with pytest.raises(InvalidInputError):
            grad_params_weighted(model, x, y, np.ones(1), LossKind.CCE)
        with pytest.raises(InvalidInputError):
            grad_params_weighted(model, x, y[:1], np.ones(4), LossKind.CCE)

    def test_uniform_weights_equal_mean_gradient(self):
        rng = np.random.default_rng(8)
        model = small_model(rng)
        n = 7
        x = rng.uniform(size=(n, 4))
        y = rng.integers(0, 3, size=n)
        weighted = grad_params_weighted(model, x, y, np.full(n, 1 / n), LossKind.MSE)
        per_sample = [
            grad_params_weighted(model, x[i:i + 1], y[i:i + 1], np.ones(1), LossKind.MSE)
            for i in range(n)
        ]
        np.testing.assert_allclose(weighted, np.mean(per_sample, axis=0), atol=1e-10)

    def test_input_grad_zero_for_zero_linear_model(self):
        arch = Architecture((4, 3))
        model = ModelState(arch, np.zeros(arch.num_params))
        np.testing.assert_array_equal(grad_input(model, np.ones(4), 0, LossKind.CCE),
                                      np.zeros(4))


class TestFgsm:
    def test_epsilon_zero_is_identity(self):
        rng = np.random.default_rng(9)
        model = small_model(rng)
        x = rng.uniform(size=4)
        np.testing.assert_array_equal(fgsm_perturb(model, x, 1, 0.0, LossKind.CCE), x)

    def test_entries_move_by_exactly_epsilon(self):
        rng = np.random.default_rng(10)
        eps = 0.1
        for _ in range(50):
            model = small_model(rng)
            x = rng.uniform(size=4)
            xp = fgsm_perturb(model, x, int(rng.integers(0, 3)), eps, LossKind.CCE)
            # every coordinate is exactly x, x+eps, or x-eps as floats
            assert np.all((xp == x) | (xp == x + eps) | (xp == x - eps))

    def test_sign_zero_coordinates_untouched(self):
        arch = Architecture((3, 2))
        theta = np.zeros(arch.num_params)
        # second input feature disconnected: zero column gradient
        model = ModelState(arch, theta)
        x = np.array([0.5, 0.5, 0.5])
        np.testing.assert_array_equal(fgsm_perturb(model, x, 0, 0.2, LossKind.CCE), x)


class TestArchitecture:
    def test_reference_parameter_count(self):
        assert Architecture(MNIST3_WIDTHS).num_params == 417880

    def test_theta_length_enforced(self):
        with pytest.raises(InvalidInputError):
            ModelState(Architecture((4, 3)), np.zeros(11))

    def test_checkpoint_roundtrip(self, tmp_path):
        model = init_params(Architecture((6, 4, 3)), seed=11)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model, seed=11, extra={"note": "unit"})
        loaded, seed, meta = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.theta, model.theta)
        assert loaded.architecture == model.architecture
        assert seed == 11 and meta == {"note": "unit"}
