import re
import sys
import threading

import numpy as np
import pytest

from rockrelax import models
from rockrelax.errors import FormatError, InvalidInputError, NumericError
from rockrelax.models import (
    MNIST3_WIDTHS,
    SCRATCH_MAX_BYTES,
    Architecture,
    LossKind,
    ModelState,
    _all_finite,
    _check_labels,
    _label_index,
    _losses,
    fgsm_perturb,
    forward,
    grad_input,
    grad_params_weighted,
    init_params,
    load_checkpoint,
    loss_per_sample,
    save_checkpoint,
)
from rockrelax.trainer import accuracy
from test_trajectory_hash import skip_on_other_fingerprint

ALL_KINDS = [LossKind.CCE, LossKind.MAE, LossKind.MSE]


def small_model(rng, widths=(4, 5, 3)):
    arch = Architecture(widths)
    return ModelState(arch, rng.normal(0, 0.7, size=arch.num_params))


# The oracle's softmax, residual and logit gradient are copies of the
# package's helpers as they stood before the single backprop kernel, so the
# reference cannot move with the code it checks.

def _softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _residual(probs, labels):
    labels = np.asarray(labels)
    k = probs.shape[1]
    if np.any(labels < 0) or np.any(labels >= k):
        raise InvalidInputError(f"labels must lie in [0, {k})")
    r = probs.copy()
    r[np.arange(probs.shape[0]), labels] -= 1.0
    return r


def _grad_logits(probs, r, kind):
    if kind is LossKind.CCE:
        return r
    if kind is LossKind.MAE:
        g = np.sign(r)
    elif kind is LossKind.MSE:
        g = 2.0 * r
    else:
        raise InvalidInputError(f"unknown loss kind {kind!r}")
    return probs * (g - (probs * g).sum(axis=1, keepdims=True))


def backprop_oracle(model, x, labels, sample_scale, kind, want_input_grad):
    """Full backprop as written before the in-place gradient path.

    Weight views are rebuilt from theta on every call, all parameter
    gradients are formed and concatenated, and the input gradient comes
    from the same pass.  Returns (flat parameter gradient, input gradient
    or None).
    """
    mats = [model.theta[s].reshape(shape) for s, shape in model.architecture.layout()]
    acts = [x]
    h = x
    for w in mats[:-1]:
        h = np.maximum(h @ w, 0.0)
        acts.append(h)
    probs = _softmax(h @ mats[-1])
    delta = _grad_logits(probs, _residual(probs, labels), kind) * sample_scale[:, None]
    grads = [None] * len(mats)
    for li in range(len(mats) - 1, -1, -1):
        grads[li] = acts[li].T @ delta
        if li > 0:
            delta = (delta @ mats[li].T) * (acts[li] > 0)
        elif want_input_grad:
            delta = delta @ mats[0].T
    flat = np.concatenate([g.ravel() for g in grads])
    return flat, (delta if want_input_grad else None)


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


# 1, 2, 3, 7, 8 and 10 outputs: one softmax takes its maximum and sum over
# classes, and numpy adds a row in order up to 7 classes (CLASS_MAJOR_MAX_K)
# and pairwise from 8 on.
ORACLE_WIDTHS = [(4, 3), (4, 5, 3), (6, 8, 7, 3), (4, 1), (5, 6, 2), (5, 7), (6, 8), (6, 9, 10)]


def weights_with_zeros(rng, n):
    """Non-uniform sample weights with about a third pruned to exactly 0."""
    w = rng.uniform(0.0, 2.0, size=n) / n
    w[rng.random(n) < 1 / 3] = 0.0
    return w


class TestGradientsMatchOracle:
    """The in-place parameter gradient and the input-only backprop are bit-exact."""

    @pytest.mark.parametrize("widths", ORACLE_WIDTHS)
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_param_grad_equals_oracle(self, kind, widths):
        rng = np.random.default_rng(20)
        for nb in (1, 7, 32):
            model = small_model(rng, widths)
            x = rng.uniform(size=(nb, widths[0]))
            y = rng.integers(0, widths[-1], size=nb)
            w = weights_with_zeros(rng, nb)
            expected, _ = backprop_oracle(model, x, y, w, kind, want_input_grad=False)
            assert np.array_equal(grad_params_weighted(model, x, y, w, kind), expected)
            buf = np.full(model.architecture.num_params, np.nan)
            assert np.array_equal(grad_params_weighted(model, x, y, w, kind, out=buf), expected)

    @pytest.mark.parametrize("widths", ORACLE_WIDTHS)
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_input_grad_equals_oracle(self, kind, widths):
        rng = np.random.default_rng(21)
        for nb in (1, 5):
            model = small_model(rng, widths)
            x = rng.uniform(size=(nb, widths[0]))
            y = rng.integers(0, widths[-1], size=nb)
            _, expected = backprop_oracle(model, x, y, np.ones(nb), kind, want_input_grad=True)
            assert np.array_equal(grad_input(model, x, y, kind), expected)
            _, first = backprop_oracle(model, x[:1], y[:1], np.ones(1), kind, want_input_grad=True)
            assert np.array_equal(grad_input(model, x[0], int(y[0]), kind), first[0])

    def test_out_is_returned_with_allocating_values(self):
        rng = np.random.default_rng(22)
        model = small_model(rng)
        x, y, w = rng.uniform(size=(6, 4)), rng.integers(0, 3, size=6), rng.uniform(size=6)
        buf = np.full(model.architecture.num_params, np.nan)
        got = grad_params_weighted(model, x, y, w, LossKind.MAE, out=buf)
        assert got is buf
        assert np.array_equal(buf, grad_params_weighted(model, x, y, w, LossKind.MAE))

    def test_bad_out_rejected(self):
        rng = np.random.default_rng(23)
        model = small_model(rng)
        size = model.architecture.num_params
        x, y, w = rng.uniform(size=(3, 4)), rng.integers(0, 3, size=3), np.ones(3)
        for bad in (np.empty(size, dtype=np.float32), np.empty(size + 1), np.empty((size, 1)),
                    np.empty(2 * size)[::2], [0.0] * size, model.theta):
            with pytest.raises(InvalidInputError):
                grad_params_weighted(model, x, y, w, LossKind.CCE, out=bad)

    def test_matrices_are_views_into_theta(self):
        model = small_model(np.random.default_rng(24), (4, 5, 3))
        mats = model.matrices()
        assert [m.shape for m in mats] == [(4, 5), (5, 3)]
        assert all(np.shares_memory(m, model.theta) for m in mats)
        model.theta[-1] = 42.0
        assert mats[-1][-1, -1] == 42.0


def forward_oracle(model, x):
    """Softmax probabilities through the pre-kernel forward pass."""
    h = x
    mats = [model.theta[sl].reshape(shape) for sl, shape in model.architecture.layout()]
    for w in mats[:-1]:
        h = np.maximum(h @ w, 0.0)
    return _softmax(h @ mats[-1])


class TestForwardAndLossMatchOracle:
    @pytest.mark.parametrize("widths", ORACLE_WIDTHS)
    def test_forward_equals_oracle(self, widths):
        rng = np.random.default_rng(25)
        for nb in (1, 7, 32):
            model = small_model(rng, widths)
            x = rng.uniform(size=(nb, widths[0]))
            assert np.array_equal(forward(model, x), forward_oracle(model, x))

    @pytest.mark.parametrize("widths", ORACLE_WIDTHS)
    def test_forward_equals_oracle_on_many_rows(self, widths):
        rng = np.random.default_rng(27)
        model = small_model(rng, widths)
        x = rng.uniform(-3.0, 3.0, size=(2000, widths[0]))
        assert np.array_equal(forward(model, x), forward_oracle(model, x))

    @pytest.mark.parametrize("widths", ORACLE_WIDTHS)
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_tied_maxima_equal_oracle(self, kind, widths):
        # the last layer's first two columns are equal, so every row's top
        # logit is tied (or the two tie below it); zero features tie every logit
        rng = np.random.default_rng(28)
        model = small_model(rng, widths)
        if widths[-1] > 1:
            last = model.matrices()[-1]
            last[:, 1] = last[:, 0]
        x = rng.uniform(size=(9, widths[0]))
        x[:3] = 0.0
        y = rng.integers(0, widths[-1], size=9)
        w = weights_with_zeros(rng, 9)
        assert np.array_equal(forward(model, x), forward_oracle(model, x))
        expected, _ = backprop_oracle(model, x, y, w, kind, want_input_grad=False)
        assert np.array_equal(grad_params_weighted(model, x, y, w, kind), expected)
        _, expected = backprop_oracle(model, x, y, np.ones(9), kind, want_input_grad=True)
        assert np.array_equal(grad_input(model, x, y, kind), expected)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("k", [1, 2, 3, 8, 10])
    def test_overflowing_logits_equal_oracle(self, k):
        rng = np.random.default_rng(29)
        arch = Architecture((3, k))
        model = ModelState(arch, rng.choice([-2.0, -1.0, 0.5, 1.0, 2.0], size=arch.num_params))
        x = rng.choice([-1e308, 1e308, 0.0, 1.0], size=(64, 3))
        with np.errstate(over="ignore", invalid="ignore"):
            logits = x @ model.matrices()[0]
        assert np.isposinf(logits).any() and np.isneginf(logits).any()
        got, want = forward(model, x), forward_oracle(model, x)
        assert np.isnan(want).any() and np.isfinite(want).all(axis=1).any()
        assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_loss_equals_oracle(self, kind):
        rng = np.random.default_rng(26)
        probs = rng.dirichlet(np.ones(3), size=40)
        labels = rng.integers(0, 3, size=40)
        r = _residual(probs, labels)
        expected = {LossKind.CCE: -np.log(np.maximum(probs[np.arange(40), labels], 1e-12)),
                    LossKind.MAE: np.abs(r).sum(axis=1),
                    LossKind.MSE: (r ** 2).sum(axis=1)}[kind]
        assert np.array_equal(loss_per_sample(probs, labels, kind), expected)


# Full-set passes: class by class up to CLASS_MAJOR_MAX_K outputs, numpy's
# row reductions from 8 on (numpy sums rows of 8 or more pairwise).
LARGE_ROWS = 20_000
ALL_K = range(1, 11)


class TestClassMajorPasses:
    @pytest.mark.parametrize("k", ALL_K)
    def test_forward_equals_oracle_at_large_n(self, k):
        rng = np.random.default_rng(40 + k)
        model = small_model(rng, (6, 9, k))
        x = rng.uniform(-3.0, 3.0, size=(LARGE_ROWS, 6))
        got = forward(model, x)
        assert np.array_equal(got, forward_oracle(model, x))
        # row-major for every k, whichever way the softmax ran
        assert got.flags.c_contiguous

    @pytest.mark.parametrize("k", ALL_K)
    def test_tied_logits_equal_oracle_at_large_n(self, k):
        # columns tie in pairs, so most rows tie at the top; zero rows tie every logit
        rng = np.random.default_rng(50 + k)
        model = small_model(rng, (6, 9, k))
        last = model.matrices()[-1]
        last[:, 1::2] = last[:, 0:k - 1:2]
        x = rng.uniform(size=(LARGE_ROWS, 6))
        x[::5] = 0.0
        assert np.array_equal(forward(model, x), forward_oracle(model, x))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("k", ALL_K)
    def test_overflowing_logits_equal_oracle_at_large_n(self, k):
        rng = np.random.default_rng(60 + k)
        arch = Architecture((3, k))
        model = ModelState(arch, rng.choice([-2.0, -1.0, 0.5, 1.0, 2.0], size=arch.num_params))
        x = rng.choice([-1e308, 1e308, 0.0, 1.0], size=(LARGE_ROWS, 3))
        got, want = forward(model, x), forward_oracle(model, x)
        assert np.isnan(want).any() and np.isfinite(want).all(axis=1).any()
        assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("k", ALL_K)
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_loss_equals_oracle_in_either_layout(self, kind, k):
        rng = np.random.default_rng(70 + k)
        probs = rng.dirichlet(np.ones(k), size=LARGE_ROWS)
        probs[::7] = rng.choice([0.0, 0.5, 1.0, np.nan], size=(probs[::7].shape))
        labels = rng.integers(0, k, size=LARGE_ROWS)
        r = _residual(probs, labels)
        expected = {LossKind.CCE: -np.log(np.maximum(probs[np.arange(LARGE_ROWS), labels], 1e-12)),
                    LossKind.MAE: np.abs(r).sum(axis=1),
                    LossKind.MSE: (r ** 2).sum(axis=1)}[kind]
        for layout in (probs, np.asfortranarray(probs)):
            saved = layout.copy(order="K")
            read_only(layout)
            assert np.array_equal(loss_per_sample(layout, labels, kind), expected, equal_nan=True)
            assert np.array_equal(layout, saved, equal_nan=True)

    @pytest.mark.parametrize("k", ALL_K)
    def test_forward_result_is_fresh_and_read_only_loss_accepts_it(self, k):
        rng = np.random.default_rng(80 + k)
        model = small_model(rng, (4, k))
        x, y = rng.uniform(size=(LARGE_ROWS, 4)), rng.integers(0, k, size=LARGE_ROWS)
        a, b = forward(model, x), forward(model, x)
        assert not np.shares_memory(a, b) and not np.shares_memory(a, x)
        want = {kind: loss_per_sample(b, y, kind) for kind in ALL_KINDS}
        read_only(a)
        for kind in ALL_KINDS:
            assert np.array_equal(loss_per_sample(a, y, kind), want[kind])


def logit_case(case, k, rng):
    """(model, features) whose logits are random, tied, far apart or overflowing."""
    if case == "overflowing":
        arch = Architecture((3, k))
        model = ModelState(arch, rng.choice([-2.0, -1.0, 0.5, 1.0, 2.0], size=arch.num_params))
        return model, rng.choice([-1e308, 1e308, 0.0, 1.0], size=(LARGE_ROWS, 3))
    model = small_model(rng, (6, 9, k))
    x = rng.uniform(-3.0, 3.0, size=(LARGE_ROWS, 6))
    if case == "tied":
        last = model.matrices()[-1]
        last[:, 1::2] = last[:, 0:k - 1:2]
        x[::5] = 0.0
    elif case == "clamped":
        model.matrices()[-1][:] *= 40.0  # most label probabilities fall below CCE_CLAMP
    return model, x


class TestLossPass:
    """`_losses` equals loss_per_sample(forward(...)) for every loss, width and label dtype."""

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("dtype", ["i1", "u8", ">i8"])
    @pytest.mark.parametrize("case", ["random", "tied", "clamped", "overflowing"])
    @pytest.mark.parametrize("k", ALL_K)
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_equals_loss_of_forward(self, kind, k, case, dtype):
        rng = np.random.default_rng(90 + k)
        model, x = logit_case(case, k, rng)
        y = rng.integers(0, k, size=LARGE_ROWS).astype(dtype)
        want = loss_per_sample(forward(model, x), y, kind)
        got = _losses(model, x, y, kind)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        if case == "clamped" and kind is LossKind.CCE and k > 1:
            assert np.count_nonzero(want == -np.log(1e-12)) > LARGE_ROWS // 10
        if case == "overflowing":
            assert np.isnan(want).any() and np.isfinite(want).any()

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_zero_rows(self, kind):
        model = small_model(np.random.default_rng(91), (4, 5, 3))
        got = _losses(model, np.zeros((0, 4)), np.zeros(0, dtype=int), kind)
        assert got.shape == (0,) and got.dtype == np.float64

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_inputs_checked_in_the_order_of_the_two_calls(self, kind):
        rng = np.random.default_rng(92)
        model = small_model(rng)  # 4 inputs, 3 classes
        x, y = rng.uniform(size=(5, 4)), np.array([0, 1, 2, 3, 1])
        for args in ((x[:, :3], y), (x[:, :3], y[:2]), (x, y), (x, y[:2]),
                     (x, y.astype(float)), (x[0], y)):
            want = outcome(lambda: loss_per_sample(forward(model, args[0]), args[1], kind))
            assert want is not None
            assert outcome(lambda: _losses(model, *args, kind)) == want


# Full-set passes write hidden activations into a per-thread workspace up to
# SCRATCH_MAX_BYTES.  A hidden width of 64 reaches the cap at exactly BLOCK_64
# rows (8,192 at 4 MiB), so one row more runs as two blocks of near-equal size.
BLOCK_64 = SCRATCH_MAX_BYTES // (8 * 64)
SCRATCH_ROWS = {"below": BLOCK_64 - 128, "at": BLOCK_64, "above": BLOCK_64 + 1}
SCRATCH_HIDDEN = [(), (64,), (64, 64), (64, 32, 64)]


def held_scratch():
    """The calling thread's workspace slots (none before its first scratch pass)."""
    return list(getattr(models._workspace, "slots", ()))


def assert_apart_from_scratch(*arrays):
    for a in arrays:
        assert not any(np.shares_memory(a, slot) for slot in held_scratch())


def fresh_allocation(monkeypatch, call):
    """`call()` in a single block, with every hidden activation freshly allocated."""
    with monkeypatch.context() as m:
        m.setattr(models, "SCRATCH_MAX_BYTES", 1 << 62)
        m.setattr(models, "_scratch", lambda slot, shape: np.empty(shape))
        return call()


def count_scratch_uses(monkeypatch):
    """A list that records the shape of each workspace array `_logits` is handed."""
    uses, scratch = [], models._scratch

    def spy(slot, shape):
        out = scratch(slot, shape)
        if any(np.shares_memory(out, s) for s in held_scratch()):
            uses.append(shape)
        return out
    monkeypatch.setattr(models, "_scratch", spy)
    return uses


def in_new_thread(call):
    """`call()`'s result, run in a thread of its own, so with an empty workspace."""
    out = []
    t = threading.Thread(target=lambda: out.append(call()))
    t.start()
    t.join(timeout=60)
    assert not t.is_alive() and len(out) == 1
    return out[0]


class TestScratchWorkspace:
    """Hidden activations in reused memory give the bytes of fresh allocation."""

    @pytest.mark.parametrize("rows", SCRATCH_ROWS.values(), ids=SCRATCH_ROWS.keys())
    @pytest.mark.parametrize("hidden", SCRATCH_HIDDEN, ids=lambda h: f"{len(h)}-hidden")
    @pytest.mark.parametrize("k", [3, 8])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_passes_equal_fresh_allocation(self, kind, k, hidden, rows, monkeypatch):
        rng = np.random.default_rng(100 + rows + k)
        model = small_model(rng, (6, *hidden, k))
        x = rng.uniform(-3.0, 3.0, size=(rows, 6))
        y = rng.integers(0, k, size=rows)
        want_probs = fresh_allocation(monkeypatch, lambda: forward(model, x))
        want_loss = fresh_allocation(monkeypatch, lambda: _losses(model, x, y, kind))
        uses = count_scratch_uses(monkeypatch)
        probs, loss = forward(model, x), _losses(model, x, y, kind)
        assert probs.tobytes() == want_probs.tobytes() and probs.flags.c_contiguous
        assert loss.tobytes() == want_loss.tobytes()
        assert np.array_equal(probs, forward_oracle(model, x))
        # a pass of one block hands out scratch for every hidden layer; a pass of
        # two blocks, for each block's non-final hidden layers
        if rows <= BLOCK_64:
            assert sorted(uses) == sorted([(rows, w) for w in hidden] * 2)
        else:
            halves = (rows // 2, rows - rows // 2)
            assert uses == [(b, w) for b in halves for w in hidden[:-1]] * 2
        assert_apart_from_scratch(probs, loss)

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_features_in_any_layout_equal_fresh_allocation(self, layout, monkeypatch):
        rng = np.random.default_rng(110)
        model = small_model(rng, (6, 64, 64, 3))
        x = rng.uniform(-3.0, 3.0, size=(2 * SCRATCH_ROWS["below"], 6))
        x = np.asfortranarray(x[::2]) if layout == "fortran" else x[::2]
        y = rng.integers(0, 3, size=x.shape[0])
        want = fresh_allocation(monkeypatch, lambda: forward(model, np.ascontiguousarray(x)))
        assert forward(model, x).tobytes() == want.tobytes()
        assert _losses(model, x, y, LossKind.CCE).tobytes() == loss_per_sample(
            want, y, LossKind.CCE).tobytes()

    def test_second_pass_of_the_same_shape_allocates_no_scratch(self):
        rng = np.random.default_rng(111)
        model = small_model(rng, (6, 64, 32, 3))
        x = rng.uniform(size=(SCRATCH_ROWS["below"], 6))
        y = rng.integers(0, 3, size=x.shape[0])

        def passes():
            forward(model, x)
            first = held_scratch()
            _losses(model, x, y, LossKind.CCE)
            forward(model, x[:100])  # a smaller pass fits the same slots
            forward(model, np.tile(x, (3, 1)))  # and so do the three blocks of its rows
            return first, held_scratch()
        first, after = in_new_thread(passes)
        assert [s.nbytes for s in first] == [x.shape[0] * w * 8 for w in (64, 32)]
        assert all(a is b for a, b in zip(first, after, strict=True))

    def test_held_scratch_never_exceeds_twice_the_cap(self):
        rng = np.random.default_rng(112)
        models_by_width = {w: small_model(rng, (6, w, w, 3)) for w in (16, 64, 256)}

        def passes():
            held = []
            for rows in (10, 500, 2048, 4096, 9000, 3000):
                x = rng.uniform(size=(rows, 6))
                for model in models_by_width.values():
                    forward(model, x)
                    slots = held_scratch()
                    assert all(s.nbytes <= SCRATCH_MAX_BYTES for s in slots)
                    held.append(sum(s.nbytes for s in slots))
            return held
        held = in_new_thread(passes)
        assert max(held) == 2 * SCRATCH_MAX_BYTES

    def test_activations_above_the_cap_take_no_scratch(self):
        rng = np.random.default_rng(113)
        model = small_model(rng, (6, 64, 3))
        x = rng.uniform(size=(SCRATCH_ROWS["above"], 6))
        assert in_new_thread(lambda: (forward(model, x), held_scratch())[1]) == []

    def test_three_threads_reproduce_single_thread_bytes(self):
        rng = np.random.default_rng(114)
        # the last case runs in three blocks: 48-wide layers fill the cap at 4/3 BLOCK_64 rows
        cases = [(small_model(rng, widths), rng.uniform(-3.0, 3.0, size=(rows, 6)))
                 for widths, rows in (((6, 64, 3), 1920), ((6, 64, 32, 64, 8), 2048),
                                      ((6, 48, 48, 5), 2 * BLOCK_64 * 4 // 3 + 500))]
        cases = [(m, x, rng.integers(0, m.architecture.num_classes, size=x.shape[0]))
                 for m, x in cases]

        def passes(model, x, y):
            return [forward(model, x).tobytes()] + [
                _losses(model, x, y, kind).tobytes() for kind in ALL_KINDS]
        want = [passes(*case) for case in cases]
        start = threading.Barrier(len(cases), timeout=60)
        results, slots = {}, {}

        def worker(i):
            start.wait()  # all three threads hold their workspaces at once
            results[i] = [passes(*cases[i]) for _ in range(20)]
            slots[i] = held_scratch()
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(cases))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for i, got in results.items():
            assert all(rep == want[i] for rep in got)
        assert len(results) == len(cases)
        held = [s for i in slots for s in slots[i]]
        assert all(sum(s.nbytes for s in slots[i]) <= 2 * SCRATCH_MAX_BYTES for i in slots)
        assert not any(np.shares_memory(a, b) for j, a in enumerate(held) for b in held[j + 1:])


def block_rows(widths):
    """Most rows per block of a full-set pass at `widths` (module docstring)."""
    return SCRATCH_MAX_BYTES // (8 * max(widths[1:-1]))


WIDE_WIDTHS = [MNIST3_WIDTHS, (784, 512, 10)]


class TestBlockedPassMatchesPlainChain:
    """Full sets of more than one block give the bytes of the unblocked chain.

    A hidden-layer gemm rounds each row alike in any block of more than a few
    rows only on some BLAS builds, so these tests skip on any environment but
    the one that recorded the trajectory goldens.
    """

    @pytest.mark.parametrize("widths", WIDE_WIDTHS, ids=lambda w: "-".join(map(str, w)))
    @pytest.mark.parametrize("offset", [-1, 0, 1, "3B+ragged"])
    def test_forward_losses_and_accuracy(self, widths, offset):
        skip_on_other_fingerprint()
        rows = block_rows(widths)
        n = 3 * rows + rows // 3 if offset == "3B+ragged" else rows + offset
        rng = np.random.default_rng(120 + n)
        model = init_params(Architecture(widths), seed=n)
        x = rng.uniform(size=(n, widths[0]))
        y = rng.integers(0, widths[-1], size=n)
        want = forward_oracle(model, x)
        assert forward(model, x).tobytes() == want.tobytes()
        for kind in ALL_KINDS:
            assert _losses(model, x, y, kind).tobytes() == loss_per_sample(want, y, kind).tobytes()
        assert accuracy(model, x, y) == float(np.mean(want.argmax(axis=1) == y))


def read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


class TestCallerArraysUntouched:
    """Every public call leaves the caller's arrays as they were."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_read_only_inputs_accepted_and_unchanged(self, kind):
        rng = np.random.default_rng(27)
        model = small_model(rng, (4, 5, 3))
        x, y = rng.uniform(size=(6, 4)), rng.integers(0, 3, size=6)
        w = weights_with_zeros(rng, 6)
        probs = forward(model, x)
        saved = [a.copy() for a in (model.theta, x, y, w, probs)]
        # a write into any of these raises ValueError instead of passing silently
        read_only(model.theta, x, y, w, probs)
        forward(model, x)
        loss_per_sample(probs, y, kind)
        grad_params_weighted(model, x, y, w, kind)
        grad_params_weighted(model, x, y, w, kind, out=np.empty(model.architecture.num_params))
        grad_input(model, x, y, kind)
        grad_input(model, x[0], int(y[0]), kind)
        for eps in (0.0, 0.1):
            perturbed = fgsm_perturb(model, x, y, eps, kind)
            assert not np.shares_memory(perturbed, x)
        for before, after in zip(saved, (model.theta, x, y, w, probs)):
            assert np.array_equal(before, after)

    def test_results_are_fresh_arrays(self):
        rng = np.random.default_rng(28)
        model = small_model(rng)
        x, y = rng.uniform(size=(5, 4)), rng.integers(0, 3, size=5)
        a, b = forward(model, x), forward(model, x)
        assert not np.shares_memory(a, b)
        g1, g2 = grad_input(model, x, y, LossKind.MSE), grad_input(model, x, y, LossKind.MSE)
        assert not np.shares_memory(g1, g2)


class TestEdgeValidation:
    """Labels are type- and range-checked once, at each public entry point."""

    @pytest.mark.parametrize("dtype", [np.float64, np.bool_])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_non_integer_labels_rejected(self, kind, dtype):
        rng = np.random.default_rng(33)
        model = small_model(rng)  # 3 classes
        x = rng.uniform(size=(4, 4))
        y = np.array([0, 1, 1, 0], dtype=dtype)
        # in range, so only the dtype can fail; a bool vector would otherwise
        # pick the 0/1 entries
        for call in (lambda: grad_params_weighted(model, x, y, np.ones(4), kind),
                     lambda: grad_input(model, x, y, kind),
                     lambda: grad_input(model, x[0], y[1], kind),
                     lambda: fgsm_perturb(model, x, y, 0.1, kind),
                     lambda: fgsm_perturb(model, x, y, 0.0, kind),
                     lambda: loss_per_sample(forward(model, x), y, kind)):
            with pytest.raises(InvalidInputError, match=f"dtype {np.dtype(dtype)}"):
                call()

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_unsigned_labels_match_int64(self, kind):
        rng = np.random.default_rng(34)
        probs = forward(small_model(rng), rng.uniform(size=(6, 4)))
        y = np.array([0, 1, 2, 2, 1, 0], dtype=np.int64)
        want = loss_per_sample(probs, y, kind)
        for dtype in (np.uint8, np.uint64):
            np.testing.assert_array_equal(loss_per_sample(probs, y.astype(dtype), kind), want)

    @pytest.mark.parametrize("bad", [-1, 3])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_out_of_range_label_rejected(self, kind, bad):
        rng = np.random.default_rng(29)
        model = small_model(rng)  # 3 classes
        x = rng.uniform(size=(4, 4))
        y = np.array([0, 1, bad, 2])
        with pytest.raises(InvalidInputError):
            grad_params_weighted(model, x, y, np.ones(4), kind)
        with pytest.raises(InvalidInputError):
            grad_params_weighted(model, x, y, np.ones(4), kind,
                                 out=np.empty(model.architecture.num_params))
        with pytest.raises(InvalidInputError):
            grad_input(model, x, y, kind)
        with pytest.raises(InvalidInputError):
            grad_input(model, x[0], bad, kind)
        with pytest.raises(InvalidInputError):
            fgsm_perturb(model, x, y, 0.1, kind)
        with pytest.raises(InvalidInputError):
            loss_per_sample(forward(model, x), y, kind)

    @pytest.mark.parametrize("count", [1, 4])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_label_count_must_match_rows(self, kind, count):
        rng = np.random.default_rng(32)
        model = small_model(rng)  # 3 classes
        x = rng.uniform(size=(5, 4))
        y = np.arange(count) % 3
        # a length-1 vector would broadcast over all five rows without the check
        for call in (lambda: grad_input(model, x, y, kind),
                     lambda: fgsm_perturb(model, x, y, 0.1, kind),
                     lambda: fgsm_perturb(model, x, y, 0.0, kind),
                     lambda: loss_per_sample(forward(model, x), y, kind)):
            with pytest.raises(InvalidInputError, match="expected 5 labels"):
                call()

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_zero_row_batch(self, kind):
        model = small_model(np.random.default_rng(30), (4, 5, 3))
        x, y, w = np.zeros((0, 4)), np.zeros(0, dtype=int), np.zeros(0)
        assert forward(model, x).shape == (0, 3)
        grad = grad_params_weighted(model, x, y, w, kind)
        assert grad.shape == (model.architecture.num_params,) and np.all(grad == 0)
        assert grad_input(model, x, y, kind).shape == (0, 4)
        assert fgsm_perturb(model, x, y, 0.1, kind).shape == (0, 4)
        assert loss_per_sample(np.zeros((0, 3)), y, kind).shape == (0,)

    def test_unknown_kind_rejected(self):
        rng = np.random.default_rng(31)
        model = small_model(rng)
        x, y = rng.uniform(size=(2, 4)), np.array([0, 1])
        for call in (lambda: grad_params_weighted(model, x, y, np.ones(2), "cce"),
                     lambda: grad_input(model, x, y, "mse"),
                     lambda: loss_per_sample(forward(model, x), y, "mae")):
            with pytest.raises(InvalidInputError):
                call()

    @pytest.mark.parametrize("lead", [(), (2, 2)], ids=["1d", "3d"])
    @pytest.mark.parametrize("entry", ["forward", "accuracy", "grad_params_weighted", "_losses",
                                       "loss_per_sample"])
    def test_wrong_rank_rejected_with_the_expected_shape(self, entry, lead):
        model = small_model(np.random.default_rng(37))  # input width 4, 3 classes
        x, probs, y = np.ones(lead + (4,)), np.ones(lead + (3,)) / 3, np.zeros(2, dtype=int)
        calls = {
            "forward": lambda: forward(model, x),
            "accuracy": lambda: accuracy(model, x, y),
            "grad_params_weighted": lambda: grad_params_weighted(model, x, y, np.ones(2),
                                                                 LossKind.CCE),
            "_losses": lambda: _losses(model, x, y, LossKind.CCE),
            "loss_per_sample": lambda: loss_per_sample(probs, y, LossKind.CCE),
        }
        if entry == "loss_per_sample":
            message = f"probabilities must be a 2-d (rows, classes) array, got shape {probs.shape}"
        else:
            message = f"features must be a 2-d (rows, 4) array, got shape {x.shape}"
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            calls[entry]()


def two_reduction_check(labels, k, rows):
    """The label rule as it stood with a separate min() and max() test."""
    if labels.dtype.kind not in "iu":
        raise InvalidInputError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.shape != (rows,):
        raise InvalidInputError(f"expected {rows} labels, got an array of shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise InvalidInputError(f"labels in [{labels.min()}, {labels.max()}], "
                                f"which do not fit {k} classes [0, {k})")


def outcome(check, *args):
    try:
        check(*args)
    except InvalidInputError as exc:
        return str(exc)
    return None


# every integer width, signed and unsigned, in both byte orders
LABEL_DTYPES = ["i1", "u1", "<i2", ">i2", "<u2", ">u2", "<i4", ">i4", "<u4", ">u4",
                "<i8", ">i8", "<u8", ">u8"]


class TestOneReductionLabelRule:
    """`_check_labels` tests the range in one uint64 reduction; it must decide and word
    every case as a separate min() and max() test does."""

    @pytest.mark.parametrize("dtype", LABEL_DTYPES)
    def test_decisions_and_messages_equal_the_two_reduction_rule(self, dtype):
        dtype = np.dtype(dtype)
        info = np.iinfo(dtype)
        cases = [[0, 1, 2], [2, 2, 2], [0], [], [3], [0, 3, 1], [info.max], [0, info.max]]
        if dtype.kind == "i":
            cases += [[-1], [0, -1, 2], [info.min], [info.min, info.max], [-1, 3]]
        for values in cases:
            labels = np.array(values, dtype=dtype)
            for k in (1, 3, 200):
                want = outcome(two_reduction_check, labels, k, labels.size)
                assert outcome(_check_labels, labels, k, labels.size) == want, (values, k)

    def test_negative_int8_label_is_rejected_with_its_value(self):
        labels = np.array([0, -1, 2], dtype=np.int8)
        with pytest.raises(InvalidInputError, match=re.escape(
                "labels in [-1, 2], which do not fit 3 classes [0, 3)")):
            _check_labels(labels, 3, 3)

    @pytest.mark.parametrize("dtype", LABEL_DTYPES)
    def test_label_index_equals_intp_labels_plus_offsets(self, dtype):
        labels = np.array([0, 2, 1, 1, 0, 2], dtype=dtype)
        at = _label_index(labels, 3)
        assert at.dtype == np.intp
        np.testing.assert_array_equal(at, labels.astype(np.intp) + np.arange(0, 18, 3))

    @pytest.mark.parametrize("dtype", [">i8", ">u4", ">i2", "<i2", "u8", "i1"])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_param_grad_of_any_label_dtype_is_bit_identical(self, kind, dtype):
        rng = np.random.default_rng(35)
        model = small_model(rng)  # 3 classes
        x, w = rng.uniform(size=(6, 4)), rng.uniform(size=6)
        y = np.array([0, 1, 2, 2, 1, 0])
        want = grad_params_weighted(model, x, y, w, kind)
        got = grad_params_weighted(model, x, y.astype(dtype), w, kind)
        assert got.tobytes() == want.tobytes()


def overflowing_model_and_batch(nb=3):
    """All-ones linear model on features of 1e308: every logit overflows to inf."""
    arch = Architecture((4, 3))
    return ModelState(arch, np.ones(arch.num_params)), np.full((nb, 4), 1e308)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
class TestNumericError:
    def test_param_grad_raises_with_and_without_out(self):
        model, x = overflowing_model_and_batch()
        y, w = np.array([0, 1, 2]), np.ones(3)
        with pytest.raises(NumericError):
            grad_params_weighted(model, x, y, w, LossKind.CCE)
        with pytest.raises(NumericError):
            grad_params_weighted(model, x, y, w, LossKind.CCE,
                                 out=np.empty(model.architecture.num_params))

    def test_input_grad_raises(self):
        model, x = overflowing_model_and_batch()
        with pytest.raises(NumericError):
            grad_input(model, x[0], 1, LossKind.CCE)
        with pytest.raises(NumericError):
            fgsm_perturb(model, x, np.array([0, 1, 2]), 0.1, LossKind.MSE)

    def test_all_finite_is_exact(self):
        assert _all_finite(np.array([1e200, -1e200, 1.0]))  # squares overflow, entries finite
        assert _all_finite(np.zeros(0))
        for bad in (np.nan, np.inf, -np.inf):
            assert not _all_finite(np.array([1.0, bad, 2.0]))


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

    @pytest.mark.parametrize("x_shape,y,rejected", [
        ((4,), 1, None),
        ((4,), np.int8(2), None),
        # a 1-d sample takes a scalar label, a 2-d batch one label per row; no mix of the two
        ((4,), np.array([1]), r"features must be a 2-d \(rows, 4\) array, got shape \(4,\)"),
        ((1, 4), 1, r"expected 1 labels, got an array of shape \(\)"),
        ((1, 4), np.array([1]), None),
        ((5, 4), np.array([0, 1, 2, 0, 1]), None),
    ], ids=["1d-scalar-label", "1d-numpy-scalar-label", "1d-one-label-array",
            "2d-one-row-scalar-label", "2d-one-row", "2d-batch"])
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_output_shape_and_values(self, x_shape, y, rejected, eps):
        rng = np.random.default_rng(36)
        model = small_model(rng)
        x = rng.uniform(size=x_shape)
        if rejected:
            with pytest.raises(InvalidInputError, match=rejected):
                grad_input(model, x, y, LossKind.CCE)
            with pytest.raises(InvalidInputError, match=rejected):
                fgsm_perturb(model, x, y, eps, LossKind.CCE)
            return
        # the gradient and the perturbation have the shape of x at every epsilon
        grad = grad_input(model, x, y, LossKind.CCE)
        assert grad.shape == x_shape
        xp = fgsm_perturb(model, x, y, eps, LossKind.CCE)
        assert xp.shape == x_shape and xp is not x
        if eps == 0:
            np.testing.assert_array_equal(xp, x)
            return
        assert xp.tobytes() == (np.sign(grad) * eps + x).tobytes()


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

    @pytest.mark.parametrize("fault", [
        "no-theta", "nan-theta", "wrong-version", "not-an-npz", "bare-npy",
        # a truncated archive must not leave its file open (a ResourceWarning)
        pytest.param("truncated", marks=pytest.mark.filterwarnings("error")),
    ])
    def test_faulty_checkpoint_is_a_format_error(self, tmp_path, fault):
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, init_params(Architecture((6, 4, 3)), seed=11), seed=11)
        with np.load(path) as z:
            arrays = dict(z)
        if fault == "no-theta":
            del arrays["theta"]
        elif fault == "nan-theta":
            arrays["theta"][5] = np.nan
        elif fault == "wrong-version":
            arrays["version"] = np.array(2)
        np.savez(path, **arrays)
        if fault == "not-an-npz":
            path.write_text("theta\n0.1\n")
        elif fault == "bare-npy":
            with open(path, "wb") as f:
                np.save(f, arrays["theta"])
        elif fault == "truncated":
            path.write_bytes(path.read_bytes()[:200])
        with pytest.raises(FormatError, match=f"^invalid checkpoint {re.escape(str(path))}: "):
            load_checkpoint(path)
