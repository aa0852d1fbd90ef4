import re

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
from rockrelax.models import _check_labels


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

    def test_bytes_pinned(self, tmp_path):
        pixels = np.arange(12, dtype=np.uint8).reshape(3, 4)
        write_idx(tmp_path / "i", tmp_path / "l", pixels / 255.0, np.array([2, 0, 1]),
                  rows=2, cols=2)
        # magic 0x00000803 (uint8, rank 3), then 3 x 2 x 2, then the pixels in row order
        assert (tmp_path / "i").read_bytes() == bytes.fromhex(
            "00000803" "00000003" "00000002" "00000002" "000102030405060708090a0b")
        # magic 0x00000801 (uint8, rank 1), then 3, then the labels
        assert (tmp_path / "l").read_bytes() == bytes.fromhex("00000801" "00000003" "020001")

    @pytest.mark.parametrize("value", [2.0, -0.5, 1.0 + 1e-9, np.nan, np.inf])
    def test_features_outside_unit_interval_rejected_before_writing(self, tmp_path, value):
        # 2.0 and -0.5 would wrap to 254 and 128; NaN would become 0
        features = np.full((2, 4), 0.5)
        features[1, 2] = value
        with pytest.raises(InvalidInputError, match=r"\[0, 1\]"):
            write_idx(tmp_path / "i", tmp_path / "l", features, np.array([0, 1]), rows=2, cols=2)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("labels", [[0, 256], [-1, 0], [0.0, 1.0], [0, 1, 2], [[0], [1]]],
                             ids=["256", "negative", "float", "too-many", "2-d"])
    def test_labels_outside_a_byte_rejected_before_writing(self, tmp_path, labels):
        # 256 and -1 would wrap to 0 and 255
        with pytest.raises(InvalidInputError, match="labels"):
            write_idx(tmp_path / "i", tmp_path / "l", np.zeros((2, 4)), np.array(labels),
                      rows=2, cols=2)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2)])
    def test_features_not_2d_rejected_before_writing(self, tmp_path, shape):
        with pytest.raises(InvalidInputError, match="features must be a 2-d array, got shape"):
            write_idx(tmp_path / "i", tmp_path / "l", np.zeros(shape), np.array([0, 1]),
                      rows=2, cols=2)
        assert list(tmp_path.iterdir()) == []

    def test_label_255_and_zero_features_roundtrip(self, tmp_path):
        write_idx(tmp_path / "i", tmp_path / "l", np.zeros((1, 4)), np.array([255]),
                  rows=2, cols=2)
        f, labels = load_idx(tmp_path / "i", tmp_path / "l")
        assert f.max() == 0.0 and labels.tolist() == [255]

    @pytest.mark.parametrize("file", ["images", "labels"])
    def test_bytes_after_the_declared_data_rejected(self, tmp_path, file):
        write_idx(tmp_path / "i", tmp_path / "l", np.zeros((2, 4)), np.zeros(2, dtype=int),
                  rows=2, cols=2)
        path = tmp_path / file[0]
        path.write_bytes(path.read_bytes() + bytes(3))
        size = 8 if file == "images" else 2
        with pytest.raises(FormatError, match=f"^invalid IDX file {re.escape(str(path))}: "
                                              f"trailing data: 3 bytes after the {size} "
                                              "its header declares$"):
            load_idx(tmp_path / "i", tmp_path / "l")

    def test_empty_file_truncated_error(self, tmp_path):
        (tmp_path / "i").write_bytes(b"")
        (tmp_path / "l").write_bytes(b"")
        with pytest.raises(FormatError, match=": truncated header"):
            load_idx(tmp_path / "i", tmp_path / "l")

    @pytest.mark.parametrize("file", ["images", "labels"])
    def test_header_declaring_more_than_the_file_holds(self, tmp_path, file):
        import struct
        write_idx(tmp_path / "i", tmp_path / "l", np.zeros((2, 4)), np.zeros(2, dtype=int),
                  rows=2, cols=2)
        path = tmp_path / file[0]
        if file == "images":  # (2^32 - 1)^3 pixels, which no file holds
            path.write_bytes(struct.pack(">IIII", 2051, *[2**32 - 1] * 3) + bytes(8))
        else:  # 3 labels, one more than the file holds
            path.write_bytes(struct.pack(">II", 2049, 3) + bytes(2))
        with pytest.raises(FormatError, match=f"^invalid IDX file {re.escape(str(path))}: "
                                              "truncated data: "):
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
        path = re.escape(str(tmp_path / "l"))
        with pytest.raises(FormatError, match=f"^invalid IDX file {path}: bad magic 2051 "):
            load_idx(tmp_path / "i", tmp_path / "l")

    def test_no_samples_rejected(self, tmp_path):
        write_idx(tmp_path / "i", tmp_path / "l", np.zeros((0, 784)), np.zeros(0, dtype=int))
        with pytest.raises(FormatError) as exc:
            load_idx(tmp_path / "i", tmp_path / "l")
        assert str(exc.value) == f"{tmp_path / 'i'}: holds no samples"

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
        match = "kept class id must be >= 0, got -1" if -1 in keep else r"must lie in \[0, 3\)"
        with pytest.raises(InvalidInputError, match=match):
            subset_classes(ds, keep)

    @pytest.mark.parametrize("keep", [[0, 1.5], [0, True], [np.float64(1.0)], ["1"]])
    def test_non_integer_ids_rejected(self, keep):
        # int() used to keep classes 0 and 1 for [0, 1.5]
        ds = toy_dataset(np.random.default_rng(4), n=30, k=3)
        with pytest.raises(InvalidInputError, match="kept class id must be an integer"):
            subset_classes(ds, keep)

    def test_numpy_integer_ids_accepted(self):
        ds = toy_dataset(np.random.default_rng(4), n=30, k=3)
        sub = subset_classes(ds, np.array([0, 2], dtype=np.uint8))
        assert_same_dataset(sub, subset_classes(ds, [0, 2]))
        assert type(sub.num_classes) is int

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

    @pytest.mark.parametrize("rate, num_classes, message", [
        (True, 3, "rate must be a real number, got True"),  # used to flip every label
        ("0.5", 3, "rate must be a real number, got '0.5'"),
        (None, 3, "rate must be a real number, got None"),
        (0.5, 2.5, "num_classes must be an integer, got 2.5"),
        (0.5, True, "num_classes must be an integer, got True"),
        (0.0, 0, "num_classes must be >= 1, got 0"),
    ])
    def test_rate_and_class_count_checked(self, rate, num_classes, message):
        with pytest.raises(InvalidInputError, match=message):
            inject_ncar(np.zeros(12, dtype=int), rate, num_classes, seed=0)

    def test_numpy_rate_and_class_count_accepted(self):
        labels = np.arange(40) % 4
        got = inject_ncar(labels, np.float32(0.25), np.int64(4), seed=5)
        want = inject_ncar(labels, 0.25, 4, seed=5)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


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

    @pytest.mark.parametrize("build,message", [
        (ContaminationKernel, "kernel entries must lie in"),
        (ContaminationKernel.from_rows, "kernel row 0 sums to nan"),
    ], ids=["constructor", "from_rows"])
    def test_nan_entry_rejected(self, build, message):
        # a NaN entry would leave every chosen sample of its row at its true label
        rows = [[0.0, np.nan, 1.0], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]
        with pytest.raises(InvalidInputError, match=message):
            build(rows)

    def test_rounding_slack_normalized(self):
        rows = np.array([[0.0, 0.5002, 0.4999], [0.3333, 0.0, 0.6666], [0.5, 0.5, 0.0]])
        kernel = ContaminationKernel.from_rows(rows)
        np.testing.assert_allclose(kernel.matrix.sum(axis=1), 1.0, atol=1e-12)


def _num_contaminated_oracle(rate, n):
    if not 0 <= rate <= 1:
        raise InvalidInputError(f"contamination rate must lie in [0, 1], got {rate}")
    return int(np.floor(rate * n + 0.5))


def inject_ncar_oracle(labels, rate, num_classes, seed):
    """The former inject_ncar, which restated the flip choice, kept as an exact oracle."""
    labels = np.asarray(labels)
    _check_labels(labels, num_classes, labels.size)
    labels = labels.astype(np.int64, copy=False)
    n = labels.size
    m = _num_contaminated_oracle(rate, n)
    if m > 0 and num_classes < 2:
        raise InvalidInputError("need at least 2 classes to contaminate labels")
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(n, size=m, replace=False))
    observed = labels.copy()
    offsets = rng.integers(1, num_classes, size=m)
    observed[chosen] = (labels[chosen] + offsets) % num_classes
    return observed, chosen


def inject_kernel_oracle(labels, rate, kernel, seed):
    """The former inject_kernel, which restated the flip choice, kept as an exact oracle."""
    labels = np.asarray(labels)
    _check_labels(labels, kernel.num_classes, labels.size)
    labels = labels.astype(np.int64, copy=False)
    n = labels.size
    m = _num_contaminated_oracle(rate, n)
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(n, size=m, replace=False))
    observed = labels.copy()
    for i in chosen:
        observed[i] = rng.choice(kernel.num_classes, p=kernel.matrix[labels[i]])
    return observed, chosen


class TestInjectorsEqualReference:
    SEEDS = range(8)
    RATES = (0.0, 0.2, 0.25, 0.5, 0.6, 1.0)

    @staticmethod
    def assert_same(got, expected):
        for a, b in zip(got, expected, strict=True):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8])
    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_ncar(self, k, dtype):
        for seed in self.SEEDS:
            labels = np.random.default_rng(seed).integers(0, k, size=101).astype(dtype)
            for rate in self.RATES:
                self.assert_same(inject_ncar(labels, rate, k, seed),
                                 inject_ncar_oracle(labels, rate, k, seed))

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8])
    def test_bundled_kernel(self, dtype):
        kernel = ContaminationKernel.from_file(mnist_kernel_path())
        for seed in self.SEEDS:
            labels = np.random.default_rng(seed).integers(0, 10, size=101).astype(dtype)
            for rate in self.RATES:
                self.assert_same(inject_kernel(labels, rate, kernel, seed),
                                 inject_kernel_oracle(labels, rate, kernel, seed))

    def test_bundled_kernel_at_large_n(self):
        # 12,000 flips, about 1,200 per kernel row
        kernel = ContaminationKernel.from_file(mnist_kernel_path())
        labels = np.random.default_rng(9).integers(0, 10, size=20_000)
        self.assert_same(inject_kernel(labels, 0.6, kernel, 9),
                         inject_kernel_oracle(labels, 0.6, kernel, 9))


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

    @pytest.mark.parametrize("args, message", [
        ((True, 10, 4, 5.0), "num_classes must be an integer, got True"),
        ((3, 2.5, 4, 5.0), "samples_per_class must be an integer, got 2.5"),
        ((3, 10, "4", 5.0), "input_dim must be an integer, got '4'"),
        ((0, 10, 4, 5.0), "num_classes must be >= 1, got 0"),
        ((3, 0, 4, 5.0), "samples_per_class must be >= 1, got 0"),
        ((3, 10, 0, 5.0), "input_dim must be >= 1, got 0"),
        ((3, 10, 4, True), "separation must be a real number, got True"),
        ((3, 10, 4, "5"), "separation must be a real number, got '5'"),
        ((3, 10, 4, 0.0), "separation must be positive, got 0.0"),
    ])
    def test_blob_arguments_checked(self, args, message):
        with pytest.raises(InvalidInputError, match=message):
            make_synthetic_blobs(*args, seed=0)

    def test_numpy_blob_arguments_accepted(self):
        ds = make_synthetic_blobs(np.int64(3), np.int32(5), np.uint8(4), np.float64(5.0), seed=0)
        assert_same_dataset(ds, make_synthetic_blobs(3, 5, 4, 5.0, seed=0))
        assert type(ds.num_classes) is int

    @pytest.mark.parametrize("fractions", [("0.5", "0.5"), (True, 0.0), (0.5, None)])
    def test_split_fractions_must_be_reals(self, fractions):
        # float() used to split ('0.5', '0.5') 15/15 and (True, 0.0) 30/0
        ds = toy_dataset(np.random.default_rng(11), n=30)
        with pytest.raises(InvalidInputError, match="split fraction must be a real number"):
            split(ds, fractions, seed=0)

    def test_bad_fractions(self):
        rng = np.random.default_rng(11)
        ds = toy_dataset(rng, n=10)
        # NaN compares false both ways, so each check must pass a value only inside its range
        for fractions in [(0.5, 0.2), (np.nan, 1.0), (0.5, np.nan), (np.inf, -np.inf)]:
            with pytest.raises(InvalidInputError, match="non-negative and sum to 1"):
                split(ds, fractions, seed=0)


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

    def test_non_integer_class_count_is_a_format_error(self, tmp_path):
        # labels in [0, 1] fit the 2 classes that int() used to make of 2.5
        ds = ContaminatedDataset.clean(np.zeros((4, 2)), np.array([0, 1, 0, 1]), 2)
        path = tmp_path / "cache.npz"
        save_cache(path, ds)
        with np.load(path) as z:
            arrays = dict(z)
        arrays["num_classes"] = np.array(2.5)
        np.savez_compressed(path, **arrays)
        with pytest.raises(FormatError, match=f"^invalid dataset cache {re.escape(str(path))}: "
                                              "num_classes must be an integer, got 2.5$"):
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

    @pytest.mark.parametrize("num_classes, message", [
        (2.5, "num_classes must be an integer, got 2.5"),  # save_cache used to write it
        (True, "num_classes must be an integer, got True"),
        ("3", "num_classes must be an integer, got '3'"),
        (None, "num_classes must be an integer, got None"),
        (-1, "num_classes must be >= 0, got -1"),
    ])
    def test_num_classes_must_be_a_count(self, num_classes, message):
        features, labels = np.zeros((4, 2)), np.array([0, 1, 0, 1])
        with pytest.raises(InvalidInputError, match=message):
            ContaminatedDataset(features, labels, labels, np.empty(0, dtype=int), num_classes)
        with pytest.raises(InvalidInputError, match=message):
            ContaminatedDataset.clean(features, labels, num_classes)

    def test_numpy_integer_num_classes_stored_as_int(self):
        ds = ContaminatedDataset.clean(np.zeros((4, 2)), np.array([0, 1, 0, 1]), np.int64(2))
        assert ds.num_classes == 2 and type(ds.num_classes) is int

    @pytest.mark.parametrize("shape", [(5,), (5, 2, 1), ()])
    def test_features_must_be_2d(self, shape):
        # 1-d features used to construct, then fail in input_dim and save_cache
        message = re.escape(f"features must be 2-d, got shape {shape}")
        with pytest.raises(InvalidInputError, match=message):
            ContaminatedDataset.clean(np.zeros(shape), np.zeros(5, dtype=int), 2)

    def test_unsigned_labels_accepted(self):
        labels = np.array([0, 2, 1], dtype=np.uint8)
        assert ContaminatedDataset.clean(np.zeros((3, 2)), labels, 3).n == 3

    def test_empty_dataset_accepted(self):
        empty = np.empty(0, dtype=int)
        assert ContaminatedDataset(np.zeros((0, 2)), empty, empty, empty, 3).n == 0
