import numpy as np
import pytest
from scipy.stats import chisquare

from rockrelax.data import (
    ContaminatedDataset,
    ContaminationKernel,
    inject_kernel,
    inject_ncar,
    load_cache,
    load_idx,
    make_synthetic_blobs,
    mnist_kernel_path,
    save_cache,
    split,
    subset_classes,
    write_idx,
)
from rockrelax.errors import FormatError, InvalidInputError


def toy_dataset(rng, n=60, k=3, dim=5, rate=0.0, seed=0):
    features = rng.uniform(size=(n, dim))
    clean = rng.integers(0, k, size=n)
    observed, chosen = inject_ncar(clean, rate, k, seed)
    return ContaminatedDataset(features, observed, clean, chosen, k)


def blobs_oracle(num_classes, samples_per_class, input_dim, separation, seed):
    """The former per-class draw of make_synthetic_blobs, kept as an exact oracle."""
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((num_classes, input_dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    means = separation * dirs
    features = np.concatenate([
        means[k] + rng.standard_normal((samples_per_class, input_dim))
        for k in range(num_classes)
    ])
    labels = np.repeat(np.arange(num_classes), samples_per_class)
    perm = rng.permutation(features.shape[0])
    return features[perm], labels[perm]


class TestIdx:
    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, size=(20, 784), dtype=np.uint8)
        features = pixels / 255.0
        labels = rng.integers(0, 10, size=20)
        ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
        write_idx(ip, lp, features, labels)
        f2, l2 = load_idx(ip, lp)
        np.testing.assert_array_equal(f2, features)
        np.testing.assert_array_equal(l2, labels)

    def test_pixel_255_maps_to_one(self, tmp_path):
        features = np.ones((1, 784))
        write_idx(tmp_path / "i", tmp_path / "l", features, np.array([3]))
        f, labels = load_idx(tmp_path / "i", tmp_path / "l")
        assert f.max() == 1.0 and labels[0] == 3

    def test_empty_file_truncated_error(self, tmp_path):
        (tmp_path / "i").write_bytes(b"")
        (tmp_path / "l").write_bytes(b"")
        with pytest.raises(FormatError, match="truncated"):
            load_idx(tmp_path / "i", tmp_path / "l")

    def test_bad_magic(self, tmp_path):
        import struct
        (tmp_path / "i").write_bytes(struct.pack(">IIII", 1234, 0, 28, 28))
        (tmp_path / "l").write_bytes(struct.pack(">II", 2049, 0))
        with pytest.raises(FormatError, match="magic"):
            load_idx(tmp_path / "i", tmp_path / "l")

    def test_bad_label_magic(self, tmp_path):
        import struct
        (tmp_path / "i").write_bytes(struct.pack(">IIII", 2051, 0, 28, 28))
        (tmp_path / "l").write_bytes(struct.pack(">II", 2051, 0))
        with pytest.raises(FormatError, match="bad label magic 2051"):
            load_idx(tmp_path / "i", tmp_path / "l")

    def test_count_mismatch(self, tmp_path):
        import struct
        (tmp_path / "i").write_bytes(struct.pack(">IIII", 2051, 1, 1, 1) + b"\x00")
        (tmp_path / "l").write_bytes(struct.pack(">II", 2049, 2) + b"\x00\x00")
        with pytest.raises(FormatError, match="mismatch"):
            load_idx(tmp_path / "i", tmp_path / "l")


def subset_classes_oracle(dataset, keep):
    """The former dict-based subset_classes, kept as an exact oracle."""
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise InvalidInputError("keep set must be non-empty")
    mask = np.isin(dataset.clean_labels, keep)
    if not mask.any():
        raise InvalidInputError(f"no samples with clean label in {keep}")
    remap = {old: new for new, old in enumerate(keep)}
    if not np.all(np.isin(dataset.observed_labels[mask], keep)):
        raise InvalidInputError("subset_classes requires observed labels within the kept set")
    lut = np.full(dataset.num_classes, -1, dtype=np.int64)
    for old, new in remap.items():
        lut[old] = new
    old_idx = np.flatnonzero(mask)
    pos = {int(i): p for p, i in enumerate(old_idx)}
    new_contaminated = np.asarray(sorted(pos[int(i)] for i in dataset.contaminated_set if mask[i]),
                                  dtype=int)
    return ContaminatedDataset(
        features=dataset.features[mask],
        observed_labels=lut[dataset.observed_labels[mask]],
        clean_labels=lut[dataset.clean_labels[mask]],
        contaminated_set=new_contaminated,
        num_classes=len(keep),
    )


def flipped_within(rng, n, k, keep, rate):
    """A dataset with a `rate` share of flips; a sample of a kept class flips to another kept one."""
    keep = np.unique(list(keep))
    clean = rng.integers(0, k, size=n)
    observed = clean.copy()
    for i in np.flatnonzero(rng.random(n) < rate):
        pool = keep if clean[i] in keep else np.arange(k)
        others = pool[pool != clean[i]]
        if others.size:
            observed[i] = rng.choice(others)
    return ContaminatedDataset(rng.uniform(size=(n, 4)), observed, clean,
                               np.flatnonzero(observed != clean), k)


def assert_same_dataset(a, b):
    for name in ("features", "observed_labels", "clean_labels", "contaminated_set"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    assert a.num_classes == b.num_classes


class TestSubset:
    def test_keep_and_relabel(self):
        rng = np.random.default_rng(1)
        ds = toy_dataset(rng, n=100, k=5)
        sub = subset_classes(ds, {1, 3})
        assert sub.num_classes == 2
        assert set(sub.clean_labels.tolist()) <= {0, 1}
        assert sub.n == np.isin(ds.clean_labels, [1, 3]).sum()

    def test_keep_all_is_identity_up_to_remap(self):
        rng = np.random.default_rng(2)
        ds = toy_dataset(rng, n=50, k=3)
        sub = subset_classes(ds, {0, 1, 2})
        np.testing.assert_array_equal(sub.clean_labels, ds.clean_labels)
        np.testing.assert_array_equal(sub.features, ds.features)

    def test_empty_result_rejected(self):
        rng = np.random.default_rng(3)
        ds = toy_dataset(rng, n=20, k=3)
        with pytest.raises(InvalidInputError):
            subset_classes(ds, set())

    @pytest.mark.parametrize("k,keep,rate,seed", [
        (5, {1, 3}, 0.3, 0), (5, {0, 2, 4}, 0.5, 1), (4, {0, 1, 2, 3}, 0.4, 2),
        (6, {5}, 0.3, 3), (3, [2, 0, 2], 0.2, 4), (4, {1, 2}, 0.0, 5),
    ])
    def test_equals_former_implementation(self, k, keep, rate, seed):
        ds = flipped_within(np.random.default_rng(seed), 200, k, keep, rate)
        assert_same_dataset(subset_classes(ds, keep), subset_classes_oracle(ds, keep))

    def test_contaminated_samples_carried_through(self):
        features = np.arange(6.0)[:, None]
        clean = np.array([0, 1, 2, 0, 1, 2])
        observed = np.array([1, 1, 2, 0, 0, 2])  # samples 0 and 4 flipped
        ds = ContaminatedDataset(features, observed, clean, np.array([0, 4]), 3)
        sub = subset_classes(ds, {0, 1})
        np.testing.assert_array_equal(sub.features[:, 0], [0, 1, 3, 4])
        np.testing.assert_array_equal(sub.observed_labels, [1, 1, 0, 0])
        np.testing.assert_array_equal(sub.clean_labels, [0, 1, 0, 1])
        np.testing.assert_array_equal(sub.contaminated_set, [0, 3])
        assert sub.num_classes == 2

    @pytest.mark.parametrize("keep", [{0, 7}, {-1, 0}, {3}])
    def test_ids_outside_the_classes_rejected(self, keep):
        # lut[-1] would index from the end; 3 and 7 are not classes of a 3-class set
        ds = toy_dataset(np.random.default_rng(4), n=30, k=3)
        with pytest.raises(InvalidInputError, match=r"must lie in \[0, 3\)"):
            subset_classes(ds, keep)

    def test_observed_label_outside_kept_set_rejected(self):
        clean = np.array([0, 1, 2, 0, 1, 2])
        observed = np.array([1, 1, 2, 0, 0, 2])  # sample 4 (clean 1) is observed as 0
        ds = ContaminatedDataset(np.zeros((6, 1)), observed, clean, np.array([0, 4]), 3)
        with pytest.raises(InvalidInputError, match="observed labels within the kept set"):
            subset_classes(ds, {1, 2})


# labels that neither injector may take: outside the 10 classes, or not integers
INVALID_LABELS = [
    (np.array([0, -1, 3]), r"labels in \[-1, 3\], which do not fit 10 classes"),
    (np.array([0, 12, 3]), r"labels in \[0, 12\], which do not fit 10 classes"),
    (np.array([1.7, 0.2, 3.9]), "labels must be integers, got dtype float64"),
]


class TestNcar:
    def test_rate_zero_noop(self):
        labels = np.arange(10) % 3
        observed, chosen = inject_ncar(labels, 0.0, 3, seed=0)
        np.testing.assert_array_equal(observed, labels)
        assert chosen.size == 0

    def test_rate_one_flips_everything(self):
        labels = np.arange(30) % 3
        observed, chosen = inject_ncar(labels, 1.0, 3, seed=1)
        assert chosen.size == 30
        assert np.all(observed != labels)

    def test_cardinality_rounding(self):
        labels = np.zeros(48000, dtype=int)
        _, chosen = inject_ncar(labels, 0.2, 10, seed=2)
        assert chosen.size == 9600
        # round-half-up
        assert inject_ncar(np.zeros(10, dtype=int), 0.25, 3, seed=0)[1].size == 3

    def test_deterministic_in_seed(self):
        labels = np.arange(100) % 4
        a = inject_ncar(labels, 0.3, 4, seed=7)
        b = inject_ncar(labels, 0.3, 4, seed=7)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_wrong_class_marginal_uniform(self):
        # frequency of each wrong class ~ 1/(K-1) within 3 sigma
        k, n = 4, 30000
        labels = np.zeros(n, dtype=int)
        observed, chosen = inject_ncar(labels, 1.0, k, seed=3)
        counts = np.bincount(observed[chosen], minlength=k)[1:]
        p = 1 / (k - 1)
        sigma = np.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts - n * p) < 3 * sigma)

    def test_too_few_classes(self):
        with pytest.raises(InvalidInputError):
            inject_ncar(np.zeros(5, dtype=int), 0.5, 1, seed=0)

    @pytest.mark.parametrize("labels,message", INVALID_LABELS)
    def test_labels_outside_the_rule_rejected(self, labels, message):
        # unchecked, -1 and 12 would wrap modulo 10 and floats would be truncated
        with pytest.raises(InvalidInputError, match=message):
            inject_ncar(labels, 0.5, 10, seed=0)


class TestKernel:
    def test_fixture_values(self):
        kernel = ContaminationKernel.from_file(mnist_kernel_path())
        assert kernel.num_classes == 10
        assert kernel.matrix[3, 8] == pytest.approx(0.6250, abs=1e-3)
        assert kernel.matrix[5, 3] == pytest.approx(0.6271, abs=1e-3)
        np.testing.assert_allclose(kernel.matrix.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(np.diag(kernel.matrix) == 0)

    def test_flipped_label_never_equals_true(self):
        kernel = ContaminationKernel.from_file(mnist_kernel_path())
        labels = np.repeat(np.arange(10), 30)
        observed, chosen = inject_kernel(labels, 1.0, kernel, seed=4)
        assert np.all(observed[chosen] != labels[chosen])

    def test_marginal_matches_kernel_row(self):
        kernel = ContaminationKernel.from_file(mnist_kernel_path())
        n = 100_000
        labels = np.full(n, 5, dtype=int)
        observed, _ = inject_kernel(labels, 1.0, kernel, seed=5)
        counts = np.bincount(observed, minlength=10)
        expected = kernel.matrix[5] * n
        support = expected > 0
        assert counts[~support].sum() == 0
        stat = chisquare(counts[support], expected[support])
        assert stat.pvalue > 0.01

    @pytest.mark.parametrize("labels,message", INVALID_LABELS)
    def test_labels_outside_the_rule_rejected(self, labels, message):
        # unchecked, -1 would draw from the last kernel row and floats would be truncated
        kernel = ContaminationKernel.from_file(mnist_kernel_path())
        with pytest.raises(InvalidInputError, match=message):
            inject_kernel(labels, 0.5, kernel, seed=0)

    def test_row_sum_violation_rejected(self):
        bad = np.full((3, 3), 0.8)
        np.fill_diagonal(bad, 0.0)
        with pytest.raises(InvalidInputError):
            ContaminationKernel.from_rows(bad)

    def test_rounding_slack_normalized(self):
        rows = np.array([[0.0, 0.5002, 0.4999], [0.3333, 0.0, 0.6666], [0.5, 0.5, 0.0]])
        kernel = ContaminationKernel.from_rows(rows)
        np.testing.assert_allclose(kernel.matrix.sum(axis=1), 1.0, atol=1e-12)


class TestBlobsAndSplit:
    def test_blobs_shape_and_determinism(self):
        a = make_synthetic_blobs(3, 100, 8, 10.0, seed=6)
        b = make_synthetic_blobs(3, 100, 8, 10.0, seed=6)
        assert a.n == 300 and a.input_dim == 8 and a.num_classes == 3
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.clean_labels, b.clean_labels)
        assert a.contaminated_set.size == 0

    @pytest.mark.parametrize("num_classes, samples_per_class, input_dim, seed", [
        (3, 100, 8, 6), (3, 1, 5, 0), (4, 7, 1, 1), (1, 1, 1, 2), (2, 33, 784, 3),
    ])
    def test_blobs_equal_per_class_oracle(self, num_classes, samples_per_class, input_dim, seed):
        ds = make_synthetic_blobs(num_classes, samples_per_class, input_dim, 4.0, seed=seed)
        features, labels = blobs_oracle(num_classes, samples_per_class, input_dim, 4.0, seed)
        assert np.array_equal(ds.features, features)
        assert np.array_equal(ds.clean_labels, labels)
        assert np.array_equal(ds.observed_labels, labels)

    def test_split_disjoint_exhaustive(self):
        rng = np.random.default_rng(7)
        ds = toy_dataset(rng, n=101, k=3, rate=0.2, seed=8)
        parts = split(ds, (0.6, 0.2, 0.2), seed=9)
        assert sum(p.n for p in parts) == ds.n
        rows = np.concatenate([p.features for p in parts])
        assert np.unique(rows, axis=0).shape[0] == np.unique(ds.features, axis=0).shape[0]
        # contamination invariant survives the split
        for p in parts:
            differs = np.flatnonzero(p.observed_labels != p.clean_labels)
            np.testing.assert_array_equal(np.sort(p.contaminated_set), differs)

    def test_split_all_train(self):
        rng = np.random.default_rng(10)
        ds = toy_dataset(rng, n=40)
        train, val, test = split(ds, (1.0, 0.0, 0.0), seed=0)
        assert train.n == 40 and val.n == 0 and test.n == 0

    def test_bad_fractions(self):
        rng = np.random.default_rng(11)
        ds = toy_dataset(rng, n=10)
        with pytest.raises(InvalidInputError):
            split(ds, (0.5, 0.2), seed=0)


class TestCache:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(12)
        ds = toy_dataset(rng, n=30, rate=0.3, seed=13)
        path = tmp_path / "cache.npz"
        save_cache(path, ds, seed=13, rate=0.3)
        loaded, header = load_cache(path)
        np.testing.assert_array_equal(loaded.features, ds.features)
        np.testing.assert_array_equal(loaded.observed_labels, ds.observed_labels)
        np.testing.assert_array_equal(loaded.clean_labels, ds.clean_labels)
        np.testing.assert_array_equal(loaded.contaminated_set, ds.contaminated_set)
        assert header["n"] == 30 and header["seed"] == 13 and header["rate"] == 0.3

    @pytest.mark.parametrize("field,value", [("n", 31), ("dim", 2)])
    def test_header_disagreeing_with_features_rejected(self, tmp_path, field, value):
        rng = np.random.default_rng(12)
        ds = toy_dataset(rng, n=30, rate=0.3, seed=13)
        path = tmp_path / "cache.npz"
        save_cache(path, ds, seed=13, rate=0.3)
        with np.load(path) as z:
            arrays = dict(z)
        assert arrays[field] != value
        arrays[field] = np.array(value)
        np.savez_compressed(path, **arrays)
        with pytest.raises(FormatError, match="disagrees"):
            load_cache(path)

    def test_header_with_too_few_classes_rejected(self, tmp_path):
        ds = toy_dataset(np.random.default_rng(12), n=30, rate=0.3, seed=13)
        path = tmp_path / "cache.npz"
        save_cache(path, ds, seed=13, rate=0.3)
        with np.load(path) as z:
            arrays = dict(z)
        arrays["num_classes"] = np.array(2)  # the labels reach class 2
        np.savez_compressed(path, **arrays)
        with pytest.raises(FormatError, match="do not fit 2 classes"):
            load_cache(path)

    def test_float_labels_rejected(self, tmp_path):
        ds = toy_dataset(np.random.default_rng(12), n=30, rate=0.3, seed=13)
        path = tmp_path / "cache.npz"
        save_cache(path, ds, seed=13, rate=0.3)
        with np.load(path) as z:
            arrays = dict(z)
        arrays["clean_labels"] = arrays["clean_labels"].astype(float)
        np.savez_compressed(path, **arrays)
        with pytest.raises(FormatError, match="labels must be integers"):
            load_cache(path)


class TestInvariants:
    @pytest.mark.parametrize("rate", [0.0, 0.3, 1.0])
    def test_contamination_mask_is_the_indicator_of_c(self, rate):
        ds = toy_dataset(np.random.default_rng(15), n=80, rate=rate, seed=16)
        scattered = np.zeros(ds.n, dtype=bool)
        scattered[ds.contaminated_set] = True
        mask = ds.contamination_mask()
        assert mask.dtype == bool and np.array_equal(mask, scattered)

    @pytest.mark.parametrize("which", ["observed", "clean"])
    def test_label_count_must_equal_the_feature_rows(self, which):
        labels = {"observed": np.array([0, 1, 0, 1]), "clean": np.array([0, 1, 0, 1])}
        labels[which] = labels[which][:3]
        with pytest.raises(InvalidInputError, match="expected 4 labels"):
            ContaminatedDataset(np.zeros((4, 2)), labels["observed"], labels["clean"],
                                np.empty(0, dtype=int), 3)

    def test_contamination_set_consistency_enforced(self):
        rng = np.random.default_rng(14)
        features = rng.uniform(size=(5, 2))
        clean = np.array([0, 1, 2, 0, 1])
        observed = clean.copy()
        observed[2] = 0
        with pytest.raises(InvalidInputError):
            ContaminatedDataset(features, observed, clean, np.array([1]), 3)
        ContaminatedDataset(features, observed, clean, np.array([2]), 3)

    @pytest.mark.parametrize("observed,clean,flipped", [
        ([0, 1, 2, 3], [0, 1, 2, 0], [3]),  # an observed label only
        ([0, 1, 2, -1], [0, 1, 2, -1], []),  # both labels of a clean sample
        ([0, 1, 2, 0], [0, 1, 2, 3], [3]),  # a clean label only
    ])
    def test_labels_outside_the_classes_rejected(self, observed, clean, flipped):
        with pytest.raises(InvalidInputError, match="do not fit 3 classes"):
            ContaminatedDataset(np.zeros((4, 2)), np.array(observed), np.array(clean),
                                np.array(flipped, dtype=int), 3)

    @pytest.mark.parametrize("dtype", [np.float64, bool])
    @pytest.mark.parametrize("which", ["observed", "clean"])
    def test_non_integer_labels_rejected(self, which, dtype):
        labels = {"observed": np.array([0, 1, 0, 1]), "clean": np.array([0, 1, 0, 1])}
        labels[which] = labels[which].astype(dtype)
        with pytest.raises(InvalidInputError, match="labels must be integers"):
            ContaminatedDataset(np.zeros((4, 2)), labels["observed"], labels["clean"],
                                np.empty(0, dtype=int), 3)

    @pytest.mark.parametrize("labels", [[0.0, 1.0, 2.0], [True, False, True]])
    def test_clean_rejects_non_integer_labels(self, labels):
        with pytest.raises(InvalidInputError, match="labels must be integers"):
            ContaminatedDataset.clean(np.zeros((3, 2)), labels, 3)

    def test_unsigned_labels_accepted(self):
        labels = np.array([0, 2, 1], dtype=np.uint8)
        assert ContaminatedDataset.clean(np.zeros((3, 2)), labels, 3).n == 3

    def test_empty_dataset_accepted(self):
        empty = np.empty(0, dtype=int)
        assert ContaminatedDataset(np.zeros((0, 2)), empty, empty, empty, 3).n == 0
