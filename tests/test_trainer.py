import csv
import json
import weakref

import numpy as np
import pytest

from rockrelax import trainer
from rockrelax.data import ContaminatedDataset, inject_ncar, make_synthetic_blobs, split
from rockrelax.errors import InvalidInputError, NumericError
from rockrelax.models import Architecture, LossKind, ModelState, forward, loss_per_sample
from rockrelax.reweight import LossPartition, ReweightConfig, WeightShift, solve_reweight
from rockrelax.trainer import (
    BUCKET_LABELS,
    TrainConfig,
    _pruned_metrics,
    accuracy,
    evaluate_fgsm_sweep,
    gradient_step,
    reweight_step,
    run,
    weight_histogram,
)
from test_models import (
    SCRATCH_HIDDEN,
    SCRATCH_ROWS,
    assert_apart_from_scratch,
    backprop_oracle,
    fresh_allocation,
)


def contaminated_blobs(seed, rate=0.2, per_class=150, dim=6, separation=8.0):
    ds = make_synthetic_blobs(3, per_class, dim, separation, seed=seed)
    observed, chosen = inject_ncar(ds.clean_labels, rate, 3, seed=seed + 1000)
    return ContaminatedDataset(ds.features, observed, ds.clean_labels, chosen, 3)


def pristine(ds):
    return ContaminatedDataset.clean(ds.features, ds.clean_labels, ds.num_classes)


def blob_splits(seed, rate=0.2, **kw):
    ds = contaminated_blobs(seed, rate=rate, **kw)
    train, val, test = split(ds, (0.7, 0.15, 0.15), seed=seed + 2000)
    return train, val, pristine(test)


ARCH = Architecture((6, 16, 3))


def k_class_blobs(k, seed):
    """150 six-dim samples per class; 30% of the labels flipped when k > 1."""
    ds = make_synthetic_blobs(k, 150, 6, 8.0, seed=seed)
    if k == 1:
        return ds
    observed, chosen = inject_ncar(ds.clean_labels, 0.3, k, seed=seed + 1000)
    return ContaminatedDataset(ds.features, observed, ds.clean_labels, chosen, k)


def raised(call):
    """The message of the InvalidInputError that `call` raises."""
    with pytest.raises(InvalidInputError) as info:
        call()
    return str(info.value)


def config(mode="rrm", **kw):
    base = dict(mode=mode, loss_kind=LossKind.CCE, epochs_per_iteration=2,
                batch_size=16, learning_rate=0.1,
                reweight=ReweightConfig(gamma=0.4, mu=0.5),
                max_iterations=3, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def gradient_step_oracle(model, dataset, u, config, rng):
    """The per-batch SGD loop as written before the in-place update.

    Every batch gets a fresh ModelState over the current theta, its
    gradient is concatenated from per-layer products, and the update
    allocates lr * scale * grad.
    """
    n, kind, eps = dataset.n, config.loss_kind, config.epsilon_train
    weights = u.weights()
    theta = model.theta.copy()
    for _ in range(config.epochs_per_iteration):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            ids = order[start:start + config.batch_size]
            work = ModelState(model.architecture, theta)
            x, y = dataset.features[ids], dataset.observed_labels[ids]
            if eps > 0:
                _, gx = backprop_oracle(work, x, y, np.ones(ids.size), kind, want_input_grad=True)
                x = x + eps * np.sign(gx)
            grad, _ = backprop_oracle(work, x, y, weights[ids], kind, want_input_grad=False)
            theta -= config.learning_rate * (n / ids.size) * grad
    return model.with_theta(theta)


class TestConfig:
    def test_mode_epsilon_coupling(self):
        config("arrm", epsilon_train=0.1)
        with pytest.raises(InvalidInputError):
            config("rrm", epsilon_train=0.1)
        with pytest.raises(InvalidInputError):
            config("arrm", epsilon_train=0.0)
        with pytest.raises(InvalidInputError):
            config(mode="sgd")

    def test_loss_kind_must_be_a_loss_kind(self):
        with pytest.raises(InvalidInputError, match="loss_kind must be a LossKind, got 'cce'"):
            config(loss_kind="cce")

    @pytest.mark.parametrize("mode,kw,message", [
        ("arrm", {"epsilon_train": 1.5}, r"epsilon_train must lie in \[0, 1\], got 1.5"),
        ("rrm", {"epsilon_train": -0.1}, r"epsilon_train must lie in \[0, 1\], got -0.1"),
        ("rrm", {"epochs_per_iteration": 0}, "epochs_per_iteration must be >= 1, got 0"),
        ("rrm", {"batch_size": 0}, "batch_size must be >= 1, got 0"),
        ("rrm", {"max_iterations": 0}, "max_iterations must be >= 1, got 0"),
        ("rrm", {"learning_rate": 0.0}, "learning rate must be positive, got 0.0"),
        ("rrm", {"learning_rate": float("nan")}, "learning rate must be positive, got nan"),
        ("rrm", {"patience": 0}, "patience must be >= 1, got 0"),
        ("rrm", {"patience": -2}, "patience must be >= 1, got -2"),
        ("rrm", {"seed": -1}, "seed must be >= 0, got -1"),
        # counts are integers (not bools), and the rate is finite
        ("rrm", {"batch_size": 2.5}, "batch_size must be an integer, got 2.5"),
        ("rrm", {"epochs_per_iteration": 1.5}, "epochs_per_iteration must be an integer, got 1.5"),
        ("rrm", {"max_iterations": 2.5}, "max_iterations must be an integer, got 2.5"),
        ("rrm", {"seed": 1.5}, "seed must be an integer, got 1.5"),
        ("rrm", {"patience": 1.5}, "patience must be an integer, got 1.5"),
        ("rrm", {"batch_size": True}, "batch_size must be an integer, got True"),
        ("rrm", {"learning_rate": float("inf")}, "learning rate must be finite, got inf"),
        # float fields are real numbers (not bools), and reweight is a ReweightConfig
        ("rrm", {"learning_rate": True}, "learning_rate must be a real number, got True"),
        ("rrm", {"learning_rate": "0.1"}, "learning_rate must be a real number, got '0.1'"),
        ("arrm", {"epsilon_train": True}, "epsilon_train must be a real number, got True"),
        ("rrm", {"reweight": None}, "reweight must be a ReweightConfig, got None"),
        ("rrm", {"reweight": {"gamma": 0.4}},
         r"reweight must be a ReweightConfig, got \{'gamma': 0.4\}"),
    ])
    def test_value_out_of_range_rejected(self, mode, kw, message):
        with pytest.raises(InvalidInputError, match=message):
            config(mode, **kw)

    def test_numpy_integer_counts_accepted(self):
        kw = {"epochs_per_iteration": np.int64(2), "batch_size": np.uint8(16),
              "max_iterations": np.int32(3), "seed": np.int16(4), "patience": np.int64(2)}
        cfg = config(**kw)
        # stored as Python ints, so the config echo in a run's summary stays JSON
        assert {k: getattr(cfg, k) for k in kw} == kw
        assert all(type(getattr(cfg, k)) is int for k in kw)
        json.dumps(trainer._config_echo(cfg))


class TestGradientStep:
    def test_deterministic(self):
        train, _, _ = blob_splits(0)
        cfg = config()
        from rockrelax.models import init_params
        m0 = init_params(ARCH, 0)
        a = gradient_step(m0, train, WeightShift.zero(train.n), cfg, np.random.default_rng(5))
        b = gradient_step(m0, train, WeightShift.zero(train.n), cfg, np.random.default_rng(5))
        np.testing.assert_array_equal(a.theta, b.theta)

    def test_shift_vector_of_another_length_rejected(self):
        train, _, _ = blob_splits(0)
        model = trainer.init_params(ARCH, 0)
        with pytest.raises(InvalidInputError, match=f"shift vector length {train.n - 1} != "
                                                    f"dataset size {train.n}"):
            gradient_step(model, train, WeightShift.zero(train.n - 1), config(),
                          np.random.default_rng(5))

    def test_fully_pruned_sample_has_no_influence(self):
        train, _, _ = blob_splits(1)
        cfg = config()
        from rockrelax.models import init_params
        m0 = init_params(ARCH, 1)
        u = np.zeros(train.n)
        u[0] = -1.0 / train.n
        u[1] = 1.0 / train.n  # rebalance so u stays in U
        shift = WeightShift(u)
        a = gradient_step(m0, train, shift, cfg, np.random.default_rng(3))
        # mangle the pruned sample's features and label; trajectory unchanged
        feats = train.features.copy()
        feats[0] = 1e3
        labels = train.observed_labels.copy()
        labels[0] = (labels[0] + 1) % 3
        clean = train.clean_labels.copy()
        clean[0] = labels[0]
        mangled = ContaminatedDataset(feats, labels, clean, train.contaminated_set, 3)
        b = gradient_step(m0, mangled, shift, cfg, np.random.default_rng(3))
        np.testing.assert_array_equal(a.theta, b.theta)

    def test_smoke_separable_blobs_learnable(self):
        ds = pristine(contaminated_blobs(2, rate=0.0, separation=10.0))
        cfg = config(mode="erm", epochs_per_iteration=20, max_iterations=1)
        from rockrelax.models import init_params
        from rockrelax.trainer import accuracy
        model = gradient_step(init_params(Architecture((6, 3)), 2), ds,
                              WeightShift.zero(ds.n), cfg, np.random.default_rng(2))
        assert accuracy(model, ds.features, ds.clean_labels) >= 0.99

    def test_leaves_caller_model_unchanged(self):
        train, _, _ = blob_splits(0)
        from rockrelax.models import init_params
        m0 = init_params(ARCH, 0)
        before = m0.theta.copy()
        out = gradient_step(m0, train, WeightShift.zero(train.n), config(),
                            np.random.default_rng(5))
        np.testing.assert_array_equal(m0.theta, before)
        assert not np.shares_memory(out.theta, m0.theta)

    @pytest.mark.parametrize("eps", [0.0, 0.05])
    @pytest.mark.parametrize("kind", [LossKind.CCE, LossKind.MAE, LossKind.MSE])
    def test_bit_exact_vs_pre_change_loop(self, kind, eps):
        train, _, _ = blob_splits(15, rate=0.3)
        from rockrelax.models import init_params
        arch = Architecture((6, 12, 8, 3))
        cfg = config("arrm" if eps else "rrm", loss_kind=kind, epsilon_train=eps,
                     batch_size=23)
        assert train.n % cfg.batch_size != 0  # ragged last batch
        c = np.random.default_rng(15).exponential(size=train.n)
        u = solve_reweight(c, 0.5)  # pruned samples get weight 0, I_min gets more
        assert np.any(u.weights() == 0) and np.ptp(u.weights()) > 0
        m0 = init_params(arch, 15)
        got = gradient_step(m0, train, u, cfg, np.random.default_rng(16))
        want = gradient_step_oracle(m0, train, u, cfg, np.random.default_rng(16))
        assert np.array_equal(got.theta, want.theta)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_non_finite_gradient_raises(self):
        arch = Architecture((6, 3))
        feats = np.full((10, 6), 1e308)  # all-ones weights: every logit overflows
        labels = np.arange(10) % 3
        ds = ContaminatedDataset(feats, labels, labels, np.empty(0, dtype=int), 3)
        with pytest.raises(NumericError):
            gradient_step(ModelState(arch, np.ones(arch.num_params)), ds,
                          WeightShift.zero(ds.n), config(), np.random.default_rng(0))

    def test_negative_weight_rejected(self):
        train, _, _ = blob_splits(1)
        from rockrelax.models import init_params
        u = np.zeros(train.n)
        u[0] = -2.0 / train.n  # weight 1/N + u_0 < 0
        u[1] = 2.0 / train.n
        with pytest.raises(InvalidInputError):
            gradient_step(init_params(ARCH, 1), train, WeightShift(u), config(),
                          np.random.default_rng(1))

    def test_empty_dataset_rejected(self):
        empty = ContaminatedDataset(np.zeros((0, 6)), np.zeros(0, dtype=int),
                                    np.zeros(0, dtype=int), np.empty(0, dtype=int), 3)
        with pytest.raises(InvalidInputError, match="the training set holds no samples"):
            gradient_step(trainer.init_params(ARCH, 0), empty, WeightShift.zero(0), config(),
                          np.random.default_rng(0))


class TestPrunedMetrics:
    @staticmethod
    def dataset(contaminated):
        clean = np.zeros(8, dtype=int)
        observed = clean.copy()
        observed[contaminated] = 1
        return ContaminatedDataset(np.zeros((8, 2)), observed, clean,
                                   np.asarray(contaminated, dtype=int), 3)

    @staticmethod
    def partition(chi):
        rest = np.setdiff1d(np.arange(8), chi)
        return LossPartition(0.0, 0.4, 8, i_min=rest[:2], chi=np.asarray(chi, dtype=int))

    def test_counts_on_hand_built_partition(self):
        # chi = {0, 1, 3}, C = {1, 3, 5, 6}: two hits
        part, ds = self.partition([0, 1, 3]), self.dataset([1, 3, 5, 6])
        assert _pruned_metrics(part, ds) == (3, 2 / 3, 0.5)

    def test_empty_sets_give_zero_rates(self):
        assert _pruned_metrics(self.partition([]), self.dataset([2, 4])) == (0, 0.0, 0.0)
        assert _pruned_metrics(self.partition([2, 4]), self.dataset([])) == (2, 0.0, 0.0)


class TestReweightStep:
    def test_equal_losses_decay_previous(self):
        train, _, _ = blob_splits(3)
        arch = Architecture((6, 3))
        from rockrelax.models import ModelState
        model = ModelState(arch, np.zeros(arch.num_params))  # uniform output: equal losses
        rng = np.random.default_rng(4)
        p = rng.dirichlet(np.ones(train.n))
        u_prev = WeightShift(p - 1.0 / train.n)
        u_next, part = reweight_step(model, train, u_prev, config())
        np.testing.assert_allclose(u_next.shifts, 0.5 * u_prev.shifts, atol=1e-15)
        assert part.chi.size == 0

    def test_mu_half_from_zero_is_half_solution(self):
        train, _, _ = blob_splits(4)
        from rockrelax.models import init_params, forward, loss_per_sample
        model = init_params(ARCH, 4)
        cfg = config()
        u_next, _ = reweight_step(model, train, WeightShift.zero(train.n), cfg)
        c = loss_per_sample(forward(model, train.features), train.observed_labels, cfg.loss_kind)
        u_star = solve_reweight(c, cfg.reweight.gamma)
        np.testing.assert_allclose(u_next.shifts, 0.5 * u_star.shifts, atol=1e-15)

    @pytest.mark.parametrize("widths", [(6, 3), (6, 9, 3), (6, 1), (6, 7), (6, 8)],
                             ids=["6-3", "6-9-3", "k1", "k7", "k8"])
    @pytest.mark.parametrize("kind", list(LossKind))
    @pytest.mark.parametrize("reweight", [ReweightConfig(gamma=0.3, mu=0.5),
                                          ReweightConfig(contamination_estimate=0.25)])
    def test_given_losses_match_recomputed(self, reweight, kind, widths):
        # losses=None takes the one-pass route (class-major CCE up to 7 classes),
        # given losses come from forward and loss_per_sample
        k = widths[-1]
        train = k_class_blobs(k, seed=6)
        from rockrelax.models import init_params
        model = init_params(Architecture(widths), 6)
        cfg = config(loss_kind=kind, reweight=reweight)
        rng = np.random.default_rng(6)
        u_prev = WeightShift(rng.dirichlet(np.ones(train.n)) - 1.0 / train.n)
        c = loss_per_sample(forward(model, train.features), train.observed_labels, cfg.loss_kind)
        u_a, part_a = reweight_step(model, train, u_prev, cfg)
        u_b, part_b = reweight_step(model, train, u_prev, cfg, losses=c)
        assert u_a.shifts.tobytes() == u_b.shifts.tobytes()
        assert (part_a.c_min, part_a.gamma) == (part_b.c_min, part_b.gamma)
        assert part_a.n == part_b.n == train.n
        for name in ("i_min", "chi"):
            assert np.array_equal(getattr(part_a, name), getattr(part_b, name))
        # one class gives every sample the same loss, and nothing to prune
        assert (part_a.chi.size > 0) == (k > 1)

    @pytest.mark.parametrize("kind", list(LossKind))
    def test_label_beyond_outputs_rejected_with_the_loss_message(self, kind):
        # a 4-class set against 3 outputs: the label check, not the flat gather, stops it
        train = k_class_blobs(4, seed=7)
        from rockrelax.models import init_params
        model = init_params(Architecture((6, 3)), 7)
        want = raised(lambda: loss_per_sample(forward(model, train.features),
                                              train.observed_labels, kind))
        assert want == "labels in [0, 3], which do not fit 3 classes [0, 3)"
        got = raised(lambda: reweight_step(model, train, WeightShift.zero(train.n),
                                           config(loss_kind=kind)))
        assert got == want

    @pytest.mark.parametrize("kind", list(LossKind))
    def test_wrong_feature_width_rejected_with_the_forward_message(self, kind):
        train = k_class_blobs(3, seed=8)  # 6-dim features
        from rockrelax.models import init_params
        model = init_params(Architecture((5, 3)), 8)
        want = raised(lambda: forward(model, train.features))
        assert want == "6-dim features, but the architecture takes 5"
        got = raised(lambda: reweight_step(model, train, WeightShift.zero(train.n),
                                           config(loss_kind=kind)))
        assert got == want

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("kind", list(LossKind))
    @pytest.mark.parametrize("reweight", [ReweightConfig(gamma=0.3, mu=0.5),
                                          ReweightConfig(contamination_estimate=0.25)])
    def test_overflowing_logits_end_in_the_loss_vector_error(self, reweight, kind):
        ds = k_class_blobs(3, seed=9)
        train = ContaminatedDataset(np.full_like(ds.features, 1e308), ds.observed_labels,
                                    ds.clean_labels, ds.contaminated_set, 3)
        model = ModelState(Architecture((6, 3)), np.ones(18))  # every logit is inf
        with pytest.raises(InvalidInputError, match="loss vector contains non-finite entries"):
            reweight_step(model, train, WeightShift.zero(train.n),
                          config(loss_kind=kind, reweight=reweight))

    def test_losses_of_wrong_length_rejected(self):
        train, _, _ = blob_splits(6)
        from rockrelax.models import init_params
        model = init_params(ARCH, 6)
        for bad in (np.ones(train.n - 1), np.ones(train.n + 1), np.ones((train.n, 1))):
            with pytest.raises(InvalidInputError):
                reweight_step(model, train, WeightShift.zero(train.n), config(), losses=bad)

    def test_auto_tune_prunes_requested_fraction(self):
        train, _, _ = blob_splits(5)
        from rockrelax.models import init_params
        cfg = config(reweight=ReweightConfig(gamma=0.4, mu=0.5, contamination_estimate=0.2))
        model = init_params(ARCH, 5)
        _, part = reweight_step(model, train, WeightShift.zero(train.n), cfg)
        assert part.chi.size >= 0.2 * train.n

    @pytest.mark.parametrize("rows", SCRATCH_ROWS.values(), ids=SCRATCH_ROWS.keys())
    @pytest.mark.parametrize("hidden", SCRATCH_HIDDEN, ids=lambda h: f"{len(h)}-hidden")
    @pytest.mark.parametrize("k", [3, 8])
    @pytest.mark.parametrize("kind", list(LossKind))
    def test_equals_fresh_allocation(self, kind, k, hidden, rows, monkeypatch):
        # hidden activations of up to SCRATCH_MAX_BYTES go through the thread's workspace
        rng = np.random.default_rng(rows + k)
        clean = rng.integers(0, k, size=rows)
        observed, chosen = inject_ncar(clean, 0.3, k, seed=rows)
        train = ContaminatedDataset(rng.uniform(-3.0, 3.0, size=(rows, 6)), observed, clean,
                                    chosen, k)
        from rockrelax.models import init_params
        model = init_params(Architecture((6, *hidden, k)), k)
        cfg = config(loss_kind=kind, reweight=ReweightConfig(contamination_estimate=0.3))
        u_prev = WeightShift(rng.dirichlet(np.ones(rows)) - 1.0 / rows)
        u_a, part_a = fresh_allocation(monkeypatch, lambda: reweight_step(model, train, u_prev,
                                                                          cfg))
        u_b, part_b = reweight_step(model, train, u_prev, cfg)
        assert u_a.shifts.tobytes() == u_b.shifts.tobytes()
        assert (part_a.c_min, part_a.gamma, part_a.n) == (part_b.c_min, part_b.gamma, part_b.n)
        for name in ("i_min", "chi"):
            assert getattr(part_a, name).tobytes() == getattr(part_b, name).tobytes()
        assert_apart_from_scratch(u_b.shifts, part_b.i_min, part_b.chi)


def weight_histogram_oracle(u, contaminated_set):
    """The former mask-based weight_histogram, kept as an exact oracle."""
    n = u.n
    mask = np.zeros(n, dtype=bool)
    mask[np.asarray(contaminated_set, dtype=int)] = True
    q = u.shifts * n
    bucket = np.empty(n, dtype=int)
    bucket[q > 1e-6] = 0
    bucket[np.abs(q) <= 1e-6] = 1
    neg = q < -1e-6
    bucket[neg & (q > -0.25)] = 2
    bucket[(q <= -0.25) & (q > -0.5)] = 3
    bucket[(q <= -0.5) & (q > -0.75)] = 4
    bucket[q <= -0.75] = 5
    k = len(BUCKET_LABELS)
    return {
        "buckets": BUCKET_LABELS,
        "contaminated": tuple(np.bincount(bucket[mask], minlength=k)),
        "clean": tuple(np.bincount(bucket[~mask], minlength=k)),
    }


class TestHistogram:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("share", [0.0, 0.3, 1.0])
    def test_equals_former_implementation(self, seed, share):
        # n is a power of two, so q = u * n recovers each edge value exactly
        n = 128
        rng = np.random.default_rng(seed)
        edges = np.array([1e-6, -1e-6, -0.25, -0.5, -0.75, 0.0, -1.0])
        q = np.concatenate([edges, rng.uniform(-1.0, 1.0, n - edges.size)])
        rng.shuffle(q)
        u = WeightShift(q / n)
        assert np.all(np.isin(edges, u.shifts * n))
        contaminated = rng.choice(n, int(share * n), replace=False)
        hist = weight_histogram(u, contaminated)
        expected = weight_histogram_oracle(u, contaminated)
        assert hist == expected
        # the tuples hold np.int64 counts, whose repr feeds the trajectory digests
        assert repr(hist) == repr(expected)

    def test_zero_shift_all_near_zero(self):
        hist = weight_histogram(WeightShift.zero(50), np.array([1, 2, 3]))
        assert hist["contaminated"][1] == 3
        assert hist["clean"][1] == 47

    def test_pruned_indices_hit_bottom_bucket(self):
        c = np.array([0.0, 0.1, 5.0, 6.0])
        u = solve_reweight(c, 1.0)
        hist = weight_histogram(u, np.array([2, 3]))
        assert hist["contaminated"][-1] == 2
        assert sum(hist["contaminated"]) + sum(hist["clean"]) == 4

    def test_counts_partition_population(self):
        rng = np.random.default_rng(6)
        p = rng.dirichlet(np.ones(40))
        hist = weight_histogram(WeightShift(p - 1 / 40), rng.choice(40, 10, replace=False))
        assert len(hist["buckets"]) == len(BUCKET_LABELS) == 6
        assert sum(hist["contaminated"]) == 10
        assert sum(hist["clean"]) == 30


# record.csv's columns, which `report` and outside readers of the file rely on
RECORD_CSV_HEADER = [
    "iteration", "mean_loss", "min_loss", "max_loss", "train_accuracy",
    "validation_accuracy", "test_accuracy", "tv", "pruned_count",
    "pruned_precision", "pruned_recall",
    "hist_contaminated_0", "hist_contaminated_1", "hist_contaminated_2",
    "hist_contaminated_3", "hist_contaminated_4", "hist_contaminated_5",
    "hist_clean_0", "hist_clean_1", "hist_clean_2",
    "hist_clean_3", "hist_clean_4", "hist_clean_5",
]


class TestRun:
    def test_erm_never_reweights(self):
        train, val, test = blob_splits(7)
        _, rec = run(train, val, test, config(mode="erm"), ARCH)
        assert all(r.tv == 0 and r.pruned_count == 0 for r in rec.iterations)

    def test_seeded_run_reproducible(self):
        train, val, test = blob_splits(8)
        _, a = run(train, val, test, config(), ARCH)
        _, b = run(train, val, test, config(), ARCH)
        assert a.iterations == b.iterations
        assert a.summary() == b.summary()

    def test_erm_equivalence_with_inactive_reweighting(self):
        # with a gamma too large to ever prune, the reweighting trainer's
        # trajectory must match the ERM baseline exactly
        train, val, test = blob_splits(9)
        cfg_erm = config(mode="erm", max_iterations=5, epochs_per_iteration=1)
        cfg_rrm = config(mode="rrm", max_iterations=5, epochs_per_iteration=1,
                         reweight=ReweightConfig(gamma=1e9, mu=0.5))
        m_erm, _ = run(train, val, test, cfg_erm, ARCH)
        m_rrm, _ = run(train, val, test, cfg_rrm, ARCH)
        np.testing.assert_allclose(m_erm.theta, m_rrm.theta, atol=1e-12)

    def test_shift_stays_feasible_and_records_monotone(self):
        train, val, test = blob_splits(10, rate=0.3)
        _, rec = run(train, val, test, config(max_iterations=4), ARCH)
        its = [r.iteration for r in rec.iterations]
        assert its == sorted(its)
        for r in rec.iterations:
            assert sum(r.hist_contaminated) + sum(r.hist_clean) == train.n

    def test_train_accuracy_is_accuracy_on_near_tied_logits(self, monkeypatch):
        # identity weights make the features the logits; classes 0 and 1 lie
        # one ulp apart, which the softmax's division can merge into a tie
        rng = np.random.default_rng(31)
        a = rng.uniform(0.5, 1.0, size=300)
        x = np.stack([a, np.nextafter(a, np.inf), a - rng.uniform(0.0, 2.0, size=300)], axis=1)
        ds = ContaminatedDataset.clean(x, rng.integers(0, 2, size=300), 3)
        arch = Architecture((3, 3))
        models = [ModelState(arch, np.eye(3)[:, perm].ravel())
                  for perm in ([0, 1, 2], [2, 0, 1], [1, 0, 2])]
        steps = iter(models)
        monkeypatch.setattr(trainer, "gradient_step", lambda *args: next(steps))
        _, rec = run(ds, ds, ds, config(max_iterations=len(models)), arch)
        assert len(rec.iterations) == len(models)
        merged = 0
        for r, model in zip(rec.iterations, models):
            assert r.train_accuracy == accuracy(model, ds.features, ds.observed_labels)
            logits = ds.features @ model.matrices()[0]
            merged += np.count_nonzero(forward(model, ds.features).argmax(axis=1)
                                       != logits.argmax(axis=1))
        assert merged > 0  # the fixture does tell probs.argmax from the logits' argmax

    @pytest.mark.parametrize("mode,eps", [("erm", 0.0), ("rrm", 0.0), ("arrm", 0.1)])
    def test_three_forward_passes_per_iteration(self, mode, eps, monkeypatch):
        # one full-training-set loss pass, then validation and test accuracy
        calls = []

        def counting_forward(model, features):
            calls.append(features.shape[0])
            return forward(model, features)

        monkeypatch.setattr(trainer, "forward", counting_forward)
        train, val, test = blob_splits(16)
        _, rec = run(train, val, test, config(mode, epsilon_train=eps), ARCH)
        assert len(calls) == 3 * len(rec.iterations)
        assert calls[:3] == [train.n, val.n, test.n]

    def test_train_accuracy_is_numpy_argmax_of_the_loss_pass(self, monkeypatch):
        passes = []

        def recording_forward(model, features):
            passes.append(forward(model, features))
            return passes[-1]

        monkeypatch.setattr(trainer, "forward", recording_forward)
        train, val, test = blob_splits(18)
        _, rec = run(train, val, test, config(max_iterations=3), ARCH)
        for r, probs in zip(rec.iterations, passes[::3]):
            assert r.train_accuracy == np.mean(probs.argmax(axis=1) == train.observed_labels)

    @pytest.mark.parametrize("mode", ["erm", "rrm"])
    def test_train_probabilities_are_freed_before_evaluation(self, mode, monkeypatch):
        # the training set's (n, k) matrix serves its loss and accuracy only, so none is
        # alive when validation and test accuracy are computed
        train, val, test = blob_splits(19)
        passes, alive = [], []

        def tracking_forward(model, features):
            probs = forward(model, features)
            if features is train.features:
                passes.append(weakref.ref(probs))
            return probs

        def checking_accuracy(model, features, labels):
            alive.append(any(ref() is not None for ref in passes))
            return accuracy(model, features, labels)

        monkeypatch.setattr(trainer, "forward", tracking_forward)
        monkeypatch.setattr(trainer, "accuracy", checking_accuracy)
        _, rec = run(train, val, test, config(mode, max_iterations=3), ARCH)
        assert len(passes) == len(rec.iterations) == 3
        assert alive == [False] * 6

    def test_peak_model_is_the_reported_one(self):
        train, val, test = blob_splits(17, rate=0.3)
        model, rec = run(train, val, test, config(max_iterations=5, learning_rate=0.3), ARCH)
        peak = max(rec.iterations, key=lambda r: r.validation_accuracy)  # first of equals
        assert peak.iteration < len(rec.iterations)  # so the final model is another one
        assert rec.peak_model is not model
        assert accuracy(rec.peak_model, test.features, test.clean_labels) \
            == rec.test_at_peak_validation == peak.test_accuracy
        assert "peak_model" not in rec.summary()

    def test_max_test_accuracy_is_the_largest_recorded(self):
        train, val, test = blob_splits(0, rate=0.3, separation=1.0)
        _, rec = run(train, val, test, config(max_iterations=4), ARCH)
        accs = [r.test_accuracy for r in rec.iterations]
        assert accs[0] < max(accs) > accs[-1]  # neither the first nor the final value
        assert rec.max_test_accuracy == max(accs) == rec.summary()["max_test_accuracy"]

    def test_max_test_accuracy_is_nan_without_a_test_set(self):
        train, val, _ = blob_splits(18)
        empty = ContaminatedDataset(np.zeros((0, 6)), np.zeros(0, dtype=int),
                                    np.zeros(0, dtype=int), np.empty(0, dtype=int), 3)
        _, rec = run(train, val, empty, config(), ARCH)
        assert len(rec.iterations) == 3
        assert np.isnan(rec.max_test_accuracy)
        assert np.isnan(rec.summary()["max_test_accuracy"])

    def test_without_validation_the_final_model_is_reported(self):
        train, _, test = blob_splits(18)
        empty = ContaminatedDataset(np.zeros((0, 6)), np.zeros(0, dtype=int),
                                    np.zeros(0, dtype=int), np.empty(0, dtype=int), 3)
        model, rec = run(train, empty, test, config(patience=1), ARCH)
        assert rec.peak_model is model
        # no iteration counts toward patience, and the final model's accuracy is reported
        assert len(rec.iterations) == 3
        assert rec.test_at_peak_validation == rec.iterations[-1].test_accuracy
        assert np.isnan(rec.peak_validation_accuracy)

    def test_empty_training_set_rejected(self):
        _, val, test = blob_splits(18)
        empty = ContaminatedDataset(np.zeros((0, 6)), np.zeros(0, dtype=int),
                                    np.zeros(0, dtype=int), np.empty(0, dtype=int), 3)
        with pytest.raises(InvalidInputError, match="the training set holds no samples"):
            run(empty, val, test, config(), ARCH)

    @pytest.mark.parametrize("which", ["train", "validation", "test"])
    @pytest.mark.parametrize("fault", ["observed", "clean", "width"])
    def test_set_that_does_not_fit_is_rejected_before_training(self, which, fault, monkeypatch):
        epochs = []
        monkeypatch.setattr(trainer, "gradient_step", lambda *args: epochs.append(args))
        sets = dict(zip(("train", "validation", "test"), blob_splits(19)))
        ds = sets[which]
        features = ds.features
        labels = {"observed": ds.observed_labels.copy(), "clean": ds.clean_labels.copy()}
        if fault == "width":
            features = np.hstack([features, features[:, :1]])  # ARCH takes 6
            message = "holds 7-dim features"
        else:
            labels[fault][0] = 4  # ARCH has 3 outputs
            message = r"holds labels in \[0, 4\]"
        sets[which] = ContaminatedDataset(features, labels["observed"], labels["clean"],
                                          np.flatnonzero(labels["observed"] != labels["clean"]),
                                          5)
        with pytest.raises(InvalidInputError, match=f"{which} set {message}"):
            run(*sets.values(), config(), ARCH)
        assert epochs == []

    def test_early_stopping_on_validation_plateau(self):
        train, val, test = blob_splits(11)
        cfg = config(max_iterations=30, patience=2, learning_rate=1e-12)
        _, rec = run(train, val, test, cfg, ARCH)
        assert len(rec.iterations) < 30

    def test_record_serialization(self, tmp_path):
        train, val, test = blob_splits(12)
        _, rec = run(train, val, test, config(), ARCH)
        rec.to_csv(tmp_path / "record.csv")
        with open(tmp_path / "record.csv") as f:
            rows = list(csv.reader(f))
        assert len(rows) == len(rec.iterations) + 1
        assert rows[0] == RECORD_CSV_HEADER
        first = rec.iterations[0]
        assert rows[1][:3] == [str(first.iteration), str(first.mean_loss), str(first.min_loss)]
        assert rows[1][11:] == [str(v) for v in first.hist_contaminated + first.hist_clean]
        summary = rec.summary()
        assert summary["iterations_run"] == len(rec.iterations)
        assert 0 <= summary["test_at_peak_validation"] <= 1


class TestAccuracy:
    @pytest.mark.parametrize("k", range(1, 11))
    def test_equals_numpy_argmax(self, k, monkeypatch):
        # ties, NaN-first and NaN-later rows all occur, in either memory order
        rng = np.random.default_rng(k)
        values = np.array([0.0, 0.25, 0.5, 1.0, np.inf, np.nan])
        probs = rng.choice(values, p=[0.3, 0.2, 0.2, 0.15, 0.05, 0.1], size=(5000, k))
        labels = rng.integers(0, k, size=5000)
        top = np.nanmax(np.where(np.isnan(probs), -1.0, probs), axis=1)
        nan_first = np.isnan(probs[:, 0])
        nan_later = np.isnan(probs).any(axis=1) & ~nan_first
        ties = ((probs == top[:, None]).sum(axis=1) > 1) & ~np.isnan(probs).any(axis=1)
        assert nan_first.any() and (k == 1 or (nan_later.any() and ties.any()))
        features = np.zeros((5000, 1))
        for layout in (probs, np.asfortranarray(probs)):
            monkeypatch.setattr(trainer, "forward", lambda model, x, p=layout: p)
            assert accuracy(None, features, labels) == np.mean(probs.argmax(axis=1) == labels)

    @pytest.mark.parametrize("labels", [[1], np.ones(50), np.full(50, 3), np.full(50, -1),
                                        np.zeros(49, dtype=int), np.zeros((50, 1), dtype=int)],
                                       ids=["one-label", "float", "too-large", "negative",
                                            "too-few", "column"])
    def test_labels_checked_as_loss_per_sample_checks_them(self, labels):
        train = k_class_blobs(3, seed=12)
        from rockrelax.models import init_params
        model = init_params(Architecture((6, 3)), 12)
        x = train.features[:50]
        want = raised(lambda: loss_per_sample(forward(model, x), labels, LossKind.CCE))
        assert raised(lambda: accuracy(model, x, labels)) == want

    def test_empty_set_is_nan(self):
        from rockrelax.models import init_params
        model = init_params(Architecture((6, 3)), 13)
        assert np.isnan(accuracy(model, np.zeros((0, 6)), np.zeros(0, dtype=int)))

    def test_empty_set_checks_its_labels(self):
        from rockrelax.models import init_params
        model = init_params(Architecture((6, 3)), 13)
        x = np.zeros((0, 6))
        want = raised(lambda: loss_per_sample(forward(model, x), [1, 2], LossKind.CCE))
        assert want == "expected 0 labels, got an array of shape (2,)"
        assert raised(lambda: accuracy(model, x, [1, 2])) == want

    def test_nested_list_features_are_converted(self):
        from rockrelax.models import init_params
        model = init_params(Architecture((6, 3)), 14)
        x = k_class_blobs(3, seed=14).features[:50]
        labels = np.arange(50) % 3
        assert accuracy(model, x.tolist(), labels) == accuracy(model, x, labels)


class TestAdversarial:
    def test_arrm_runs_and_differs_from_rrm(self):
        train, val, test = blob_splits(13)
        m_rrm, _ = run(train, val, test, config(mode="rrm"), ARCH)
        m_arrm, _ = run(train, val, test, config(mode="arrm", epsilon_train=0.1), ARCH)
        assert not np.array_equal(m_rrm.theta, m_arrm.theta)

    def test_fgsm_sweep_shape_and_baseline(self):
        train, val, test = blob_splits(14)
        model, _ = run(train, val, test, config(), ARCH)
        sweep = evaluate_fgsm_sweep(model, test, [0.0, 0.1, 0.25], LossKind.CCE)
        assert set(sweep) == {0.0, 0.1, 0.25}
        from rockrelax.trainer import accuracy
        assert sweep[0.0] == accuracy(model, test.features, test.clean_labels)
