"""Dataset construction: IDX loading, label contamination, splits, caching.

Datasets always carry both the observed (possibly corrupted) labels and
the hidden clean labels, plus the index set C of contaminated samples,
so that pruning behaviour can be evaluated against ground truth.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from rockrelax.errors import FormatError, InvalidInputError, check_count, check_real, file_faults
from rockrelax.models import _check_labels

IDX_IMAGE_MAGIC = 2051
IDX_LABEL_MAGIC = 2049

# Pre-normalization slack allowed on contamination-kernel row sums
# (published kernels are rounded to 4 decimals).
KERNEL_ROW_TOL = 1e-3

CACHE_VERSION = 1


@dataclass(frozen=True)
class ContaminatedDataset:
    """Features with observed labels, hidden clean labels, and the set C."""

    features: np.ndarray
    observed_labels: np.ndarray
    clean_labels: np.ndarray
    contaminated_set: np.ndarray
    num_classes: int

    def __post_init__(self):
        object.__setattr__(self, "num_classes", check_count("num_classes", self.num_classes, 0))
        if np.ndim(self.features) != 2:
            raise InvalidInputError(f"features must be 2-d, got shape {np.shape(self.features)}")
        for labels in (self.observed_labels, self.clean_labels):
            _check_labels(labels, self.num_classes, self.n)
        differs = np.flatnonzero(self.observed_labels != self.clean_labels)
        if not np.array_equal(np.sort(self.contaminated_set), differs):
            raise InvalidInputError("contaminated_set must be exactly the set of flipped labels")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]

    def contamination_mask(self) -> np.ndarray:
        """Indicator of `contaminated_set`, which __post_init__ ties to the flipped labels."""
        return self.observed_labels != self.clean_labels

    @classmethod
    def clean(cls, features, labels, num_classes) -> "ContaminatedDataset":
        labels = np.asarray(labels)
        return cls(np.asarray(features, dtype=float), labels, labels.copy(),
                   np.empty(0, dtype=int), num_classes)


@dataclass(frozen=True)
class ContaminationKernel:
    """Class-conditional label-corruption transition matrix (zero diagonal)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidInputError("kernel must be a square matrix")
        if not np.all((m >= 0) & (m <= 1)):  # NaN fails, as in the row sums
            raise InvalidInputError("kernel entries must lie in [0, 1]")
        if np.any(np.diag(m) != 0):
            raise InvalidInputError("kernel diagonal must be exactly 0")
        if not np.all(np.abs(m.sum(axis=1) - 1.0) <= 1e-6):
            raise InvalidInputError("kernel rows must sum to 1")

    @property
    def num_classes(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_rows(cls, rows) -> "ContaminationKernel":
        """Build from possibly-rounded rows; normalizes rows within tolerance."""
        m = np.asarray(rows, dtype=float)
        sums = m.sum(axis=1)
        if not np.all(np.abs(sums - 1.0) <= KERNEL_ROW_TOL):
            bad = int(np.argmax(np.abs(sums - 1.0)))
            raise InvalidInputError(f"kernel row {bad} sums to {sums[bad]:.6f}, beyond tolerance")
        return cls(m / sums[:, None])

    @classmethod
    def from_file(cls, path) -> "ContaminationKernel":
        """Parse a whitespace-separated K x K decimal matrix; any fault is a FormatError."""
        with file_faults(path, "kernel file"):
            return cls.from_rows(np.loadtxt(path, dtype=float, ndmin=2))


def mnist_kernel_path():
    """Path to the bundled 10-class non-uniform contamination kernel."""
    return resources.files("rockrelax").joinpath("fixtures/mnist_confusion_kernel.txt")


def _read_idx(path, magic: int) -> np.ndarray:
    """The uint8 array in the IDX file `path`, which must begin with `magic` (low byte: rank)."""
    rank = magic & 0xFF
    with file_faults(path, "IDX file"), open(path, "rb") as f:
        raw = f.read(4 * (1 + rank))
        if len(raw) < 4 * (1 + rank):
            raise FormatError("truncated header")
        found, *shape = (int(v) for v in np.frombuffer(raw, ">u4"))
        if found != magic:
            raise FormatError(f"bad magic {found} (expected {magic})")
        size, held = math.prod(shape), os.fstat(f.fileno()).st_size - len(raw)
        if held < size:
            raise FormatError(f"truncated data: {held} of the {size} bytes its header declares")
        if held > size:
            raise FormatError(f"trailing data: {held - size} bytes after the {size} "
                              "its header declares")
        return np.frombuffer(f.read(size), dtype=np.uint8).reshape(shape)


def _write_idx(path, magic: int, array: np.ndarray):
    """Write uint8 `array` as an IDX file: `magic` and the shape as big-endian u4, then the data."""
    with open(path, "wb") as f:
        f.write(np.array((magic, *array.shape), dtype=">u4").tobytes())
        f.write(array.tobytes())


def load_idx(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """Load a big-endian IDX image/label pair; pixels scaled into [0, 1]."""
    images = _read_idx(images_path, IDX_IMAGE_MAGIC)
    labels = _read_idx(labels_path, IDX_LABEL_MAGIC)
    if labels.size != len(images):
        raise FormatError(f"count mismatch: {len(images)} images vs {labels.size} labels")
    if labels.size == 0:
        raise FormatError(f"{images_path}: holds no samples")
    return images.reshape(labels.size, -1) / 255.0, labels.astype(np.int64)


def write_idx(images_path, labels_path, features: np.ndarray, labels: np.ndarray,
              rows: int = 28, cols: int = 28):
    """Write an IDX pair; features in [0, 1] are quantized back to bytes.

    Features that are not a 2-d array in [0, 1] (NaN included) and labels
    that are not integers in [0, 255] raise InvalidInputError before either
    file is written.
    """
    features, labels = np.asarray(features, dtype=float), np.asarray(labels)
    if features.ndim != 2:
        raise InvalidInputError(f"features must be a 2-d array, got shape {features.shape}")
    n, dim = features.shape
    if dim != rows * cols:
        raise InvalidInputError(f"feature dim {dim} != rows*cols {rows * cols}")
    # written so that NaN fails: every comparison with NaN is False
    if not (features.size == 0 or (features.min() >= 0.0 and features.max() <= 1.0)):
        raise InvalidInputError("features must lie in [0, 1], got values outside it or NaN")
    if labels.dtype.kind not in "iu" or labels.shape != (n,):
        raise InvalidInputError(f"expected {n} integer labels, got an array of dtype "
                                f"{labels.dtype} and shape {labels.shape}")
    if labels.size and not (labels.min() >= 0 and labels.max() <= 255):
        raise InvalidInputError(f"labels must lie in [0, 255], "
                                f"got [{labels.min()}, {labels.max()}]")
    pixels = np.rint(features * 255.0).astype(np.uint8)
    _write_idx(images_path, IDX_IMAGE_MAGIC, pixels.reshape(n, rows, cols))
    _write_idx(labels_path, IDX_LABEL_MAGIC, labels.astype(np.uint8))


def subset_classes(dataset: ContaminatedDataset, keep) -> ContaminatedDataset:
    """Keep samples whose clean label is in `keep`, relabeled to 0..K-1.

    Every kept id must be a class of `dataset`, in [0, num_classes).
    """
    keep = sorted(set(check_count("kept class id", k, 0) for k in keep))
    if not keep:
        raise InvalidInputError("keep set must be non-empty")
    if keep[-1] >= dataset.num_classes:
        raise InvalidInputError(
            f"kept class ids must lie in [0, {dataset.num_classes}), got {keep}")
    mask = np.isin(dataset.clean_labels, keep)
    if not mask.any():
        raise InvalidInputError(f"no samples with clean label in {keep}")
    # Observed labels outside the kept set cannot be remapped meaningfully;
    # subsetting is intended for clean datasets prior to contamination.
    if not np.all(np.isin(dataset.observed_labels[mask], keep)):
        raise InvalidInputError("subset_classes requires observed labels within the kept set")
    lut = np.full(dataset.num_classes, -1, dtype=np.int64)
    lut[keep] = np.arange(len(keep))
    sub = _take(dataset, np.flatnonzero(mask))
    # relabeling is one-to-one on the kept classes, so the contaminated set carries over
    return replace(sub, observed_labels=lut[sub.observed_labels],
                   clean_labels=lut[sub.clean_labels], num_classes=len(keep))


def _choose_flips(labels, rate: float, num_classes: int, seed: int):
    """The checked int64 labels, the sorted ids of the round(rate*N) samples to flip,
    and the generator, seeded by `seed`, that the flipped labels are then drawn from."""
    check_count("num_classes", num_classes, 1)
    check_real("rate", rate)
    labels = np.asarray(labels)
    _check_labels(labels, num_classes, labels.size)
    labels = labels.astype(np.int64, copy=False)
    if not 0 <= rate <= 1:
        raise InvalidInputError(f"contamination rate must lie in [0, 1], got {rate}")
    # round-half-up, per |C| = round(rate * N)
    m = int(np.floor(rate * labels.size + 0.5))
    if m > 0 and num_classes < 2:
        raise InvalidInputError("need at least 2 classes to contaminate labels")
    rng = np.random.default_rng(seed)
    return labels, np.sort(rng.choice(labels.size, size=m, replace=False)), rng


def inject_ncar(labels, rate: float, num_classes: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform label noise: flip round(rate*N) labels to a uniformly-drawn wrong class."""
    labels, chosen, rng = _choose_flips(labels, rate, num_classes, seed)
    observed = labels.copy()
    # offset in 1..K-1 gives a uniform draw over the K-1 wrong classes
    offsets = rng.integers(1, num_classes, size=chosen.size)
    observed[chosen] = (labels[chosen] + offsets) % num_classes
    return observed, chosen


def inject_kernel(labels, rate: float, kernel: ContaminationKernel,
                  seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Non-uniform noise: flipped labels drawn from the kernel row of the true class.

    Each flip takes one uniform draw u, in id order, and its new label is the
    number of entries of its row's normalised cdf at or below u: the draw and
    the arithmetic of `Generator.choice(K, p=row)` per flip, for all flips
    of a class at once.
    """
    labels, chosen, rng = _choose_flips(labels, rate, kernel.num_classes, seed)
    observed = labels.copy()
    u = rng.random(chosen.size)
    true = labels[chosen]
    flipped = np.empty_like(true)
    for c, row in enumerate(kernel.matrix):
        rows = true == c
        cdf = row.cumsum()
        cdf /= cdf[-1]
        flipped[rows] = cdf.searchsorted(u[rows], side="right")
    observed[chosen] = flipped
    return observed, chosen


def make_synthetic_blobs(num_classes: int, samples_per_class: int, input_dim: int,
                         separation: float, seed: int) -> ContaminatedDataset:
    """Gaussian clusters at distinct means; clean labels, deterministic in seed."""
    for name, count in (("num_classes", num_classes), ("samples_per_class", samples_per_class),
                        ("input_dim", input_dim)):
        check_count(name, count, 1)
    check_real("separation", separation)
    if not separation > 0:
        raise InvalidInputError(f"separation must be positive, got {separation}")
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((num_classes, input_dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    means = separation * dirs
    # one draw in class-major order: the same stream as one draw per class
    features = rng.standard_normal((num_classes, samples_per_class, input_dim))
    features += means[:, None, :]
    features = features.reshape(-1, input_dim)
    labels = np.repeat(np.arange(num_classes), samples_per_class)
    perm = rng.permutation(features.shape[0])
    return ContaminatedDataset.clean(features[perm], labels[perm], num_classes)


def _take(dataset: ContaminatedDataset, idx: np.ndarray) -> ContaminatedDataset:
    return replace(dataset, features=dataset.features[idx],
                   observed_labels=dataset.observed_labels[idx],
                   clean_labels=dataset.clean_labels[idx],
                   contaminated_set=np.flatnonzero(dataset.contamination_mask()[idx]))


def split(dataset: ContaminatedDataset, fractions, seed: int):
    """Disjoint exhaustive shuffled splits; contamination bookkeeping carried through."""
    fractions = list(fractions)
    for f in fractions:
        check_real("split fraction", f)
    fractions = [float(f) for f in fractions]
    if not (all(f >= 0 for f in fractions) and abs(sum(fractions) - 1.0) <= 1e-9):  # NaN fails
        raise InvalidInputError(f"split fractions must be non-negative and sum to 1, got {fractions}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(dataset.n)
    bounds = np.rint(np.cumsum(fractions) * dataset.n).astype(int)
    parts, start = [], 0
    for end in bounds:
        parts.append(_take(dataset, np.sort(perm[start:end])))
        start = end
    return tuple(parts)


def save_cache(path, dataset: ContaminatedDataset, seed: int = -1, rate: float = float("nan")):
    """Self-describing binary cache of a contaminated dataset (npz container)."""
    np.savez_compressed(
        path,
        version=CACHE_VERSION,
        n=dataset.n,
        dim=dataset.input_dim,
        num_classes=dataset.num_classes,
        seed=seed,
        rate=rate,
        features=dataset.features,
        clean_labels=dataset.clean_labels,
        observed_labels=dataset.observed_labels,
        contaminated_mask=dataset.contamination_mask(),
    )


def load_cache(path) -> tuple[ContaminatedDataset, dict]:
    """Read a dataset cache; returns (dataset, header dict).

    Every fault of the file is a FormatError.  Features must be finite real
    numbers; that is checked here, once, not in every split's ContaminatedDataset.
    """
    with file_faults(path, "dataset cache"), np.lib.npyio.NpzFile(path) as z:
        if "version" not in z or int(z["version"]) != CACHE_VERSION:
            raise FormatError("unsupported cache version")
        keys = ("version", "n", "dim", "num_classes", "seed", "rate")
        header = {k: z[k].item() for k in keys}
        features = z["features"]
        if features.shape != (header["n"], header["dim"]):
            raise FormatError(f"header n={header['n']}, dim={header['dim']} disagrees with "
                              f"features of shape {features.shape}")
        if features.dtype.kind not in "iuf" or not np.isfinite(features).all():
            raise FormatError("features must be finite real numbers")
        dataset = ContaminatedDataset(features, z["observed_labels"], z["clean_labels"],
                                      np.flatnonzero(z["contaminated_mask"]), header["num_classes"])
    return dataset, header
