"""Small differentiable softmax classifiers with manual backpropagation.

Fully-connected ReLU networks (a softmax-linear model is the zero-hidden
special case) with per-sample CCE / MAE / MSE losses on the softmax
output, weighted parameter gradients, and input gradients for FGSM.

Layers carry no bias terms: the reference digit-classification MLP
(784 -> 320 -> 320 -> 200 -> 3) is defined by its 417880 weight
parameters alone.  Bias-capable layers can be emulated by appending a
constant feature.

Every pass exponentiates a (k, n) array of logits in `_exp_shifted`.
Full-set passes over k <= 7 classes (`CLASS_MAJOR_MAX_K`) copy the logits
class-major, so each step runs over k long contiguous rows; wider outputs
and training batches keep the transposed view of the logits.  A batch
(`_backprop`) divides that view in place; `_softmax`, which serves full-set
passes only, writes a fresh C-order (n, k) result for either layout.  The
class sum keeps each layout's order.  Class by class equals
numpy's row sum only below 8 columns (numpy sums wider rows pairwise), so
wider outputs never take the copy and every result stays bit-exact.  The
full-set loss pass (`_losses`) shares the softmax's matmuls, copy, maximum,
exp and class total; for CCE it then divides only each row's label entry by
its total, so it forms no (n, k) probability matrix.

Full-set passes (`_logits`) keep hidden activations in a per-thread
workspace of two slots, used alternately by successive hidden layers.  A
set whose widest hidden activation takes at most `SCRATCH_MAX_BYTES` runs
through every hidden layer at once, each layer writing into a slot.  A
larger set runs through the hidden layers in the fewest row blocks of
near-equal size that fit the cap: each block's non-final hidden layers
write into the slots, and its last hidden layer writes into its rows of
one fresh (n, width) array.  So a pass allocates one hidden activation
instead of one per layer, and each gemm reads back a block that the
previous one has just written.  The logits gemm runs once over the whole
last activation, since a gemm with few output columns rounds differently
with the number of rows it is given.  A hidden-layer gemm gives each row
the same bytes in any block of more than three rows on the recorded BLAS
build (`tests/test_models.py` pins that; a one-row product takes another
path), and near-equal blocks leave no short remainder, so blocked passes
are bit-identical to unblocked ones.  Reusing the memory spares the page
faults that a fresh array costs on every call.  The workspace holds hidden
activations only: the logits, their class-major copy and every array a
function returns are fresh, so no result aliases it.  Each thread's slots
grow to the largest activation it has passed (at most twice the cap in
all) and are never freed.  A C-order `np.matmul(..., out=)` gives the
bytes of `h @ w`.
"""

from __future__ import annotations

import enum
import json
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from rockrelax.errors import FormatError, InvalidInputError, NumericError, check_count, file_faults

# Probability floor applied before log in the cross-entropy loss.
CCE_CLAMP = 1e-12

# Widths of the reference 3-digit MNIST classifier (417880 weights).
MNIST3_WIDTHS = (784, 320, 320, 200, 3)

# Widest output whose full-set softmax runs on a class-major copy (module docstring).
CLASS_MAJOR_MAX_K = 7

# Largest hidden activation, in bytes, that a full-set pass writes into its
# thread's workspace; it sets the row blocks of larger sets (module docstring).
# 1,638 rows of a 320-wide layer.  On a 2-vCPU Xeon VM (2 MiB L2 per core,
# OpenBLAS on 2 threads), full-set loss passes at MNIST3_WIDTHS ran faster with
# 2-4 MiB blocks than with 1 or 8 MiB ones; 1 MiB blocks gave no gain on
# passes of 3,000-4,000 rows.
SCRATCH_MAX_BYTES = 1 << 22

# Per-thread workspace of `_logits`: `slots` holds two flat float64 arrays.
_workspace = threading.local()


class LossKind(enum.Enum):
    CCE = "cce"
    MAE = "mae"
    MSE = "mse"


@dataclass(frozen=True)
class Architecture:
    """Layer widths of a fully-connected ReLU net; last width is the class count.

    The parameter count and the theta layout are computed once, at
    construction.
    """

    widths: tuple[int, ...]
    _layout: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(check_count("width", w, 1) for w in self.widths))
        if len(self.widths) < 2:
            raise InvalidInputError(f"need at least input and output widths, got {self.widths}")
        out, offset = [], 0
        for a, b in zip(self.widths[:-1], self.widths[1:]):
            out.append((slice(offset, offset + a * b), (a, b)))
            offset += a * b
        object.__setattr__(self, "_layout", tuple(out))

    @property
    def input_dim(self) -> int:
        return self.widths[0]

    @property
    def num_classes(self) -> int:
        return self.widths[-1]

    @property
    def num_params(self) -> int:
        return self._layout[-1][0].stop

    def layout(self) -> tuple[tuple[slice, tuple[int, int]], ...]:
        """(slice into theta, weight-matrix shape) per layer."""
        return self._layout


@dataclass(frozen=True)
class ModelState:
    """Parameter value object: architecture plus flat theta vector.

    Construction checks theta's length and finiteness and builds the
    per-layer weight matrices once, as views into theta.  Treat instances
    as values; `gradient_step` is the one writer, and it updates only a
    private copy in place (which its views see) before returning a freshly
    checked model.
    """

    architecture: Architecture
    theta: np.ndarray
    _matrices: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        object.__setattr__(self, "theta", theta)
        if theta.shape != (self.architecture.num_params,):
            raise InvalidInputError(
                f"theta length {theta.size} does not match architecture "
                f"({self.architecture.num_params} params)"
            )
        if not np.all(np.isfinite(theta)):
            raise InvalidInputError("theta contains non-finite values")
        object.__setattr__(self, "_matrices", tuple(
            theta[s].reshape(shape) for s, shape in self.architecture.layout()))

    def matrices(self) -> tuple[np.ndarray, ...]:
        """Weight matrix per layer, each a view into theta."""
        return self._matrices

    def with_theta(self, theta: np.ndarray) -> "ModelState":
        return ModelState(self.architecture, theta)


def init_params(architecture: Architecture, seed: int) -> ModelState:
    """He-scaled normal initialization, deterministic in the seed."""
    rng = np.random.default_rng(seed)
    chunks = []
    for a, b in zip(architecture.widths[:-1], architecture.widths[1:]):
        chunks.append(rng.normal(0.0, np.sqrt(2.0 / a), size=a * b))
    return ModelState(architecture, np.concatenate(chunks))


def _check_features(architecture: Architecture, x: np.ndarray) -> None:
    d = architecture.input_dim
    if x.ndim != 2:
        raise InvalidInputError(f"features must be a 2-d (rows, {d}) array, got shape {x.shape}")
    if x.shape[1] != d:
        raise InvalidInputError(f"{x.shape[1]}-dim features, but the architecture takes {d}")


def _check_labels(labels: np.ndarray, k: int, rows: int) -> None:
    """One integer label in [0, k) per row; a single label never broadcasts.

    The range is tested in one reduction: cast to uint64, a negative label
    of any width wraps to at least 2**63, past every k, and every label
    in [0, k) keeps its value, whatever its width, signedness or byte
    order.  min() and max() run only to word the error.
    """
    if labels.dtype.kind not in "iu":
        raise InvalidInputError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.shape != (rows,):
        raise InvalidInputError(f"expected {rows} labels, got an array of shape {labels.shape}")
    # size first: max() of an empty array raises ValueError
    if labels.size and labels.astype(np.uint64).max() >= k:
        raise InvalidInputError(f"labels in [{labels.min()}, {labels.max()}], "
                                f"which do not fit {k} classes [0, {k})")


def _all_finite(a: np.ndarray) -> bool:
    """Exact all-finite test of a flat array.

    A finite sum of squares rules out inf and nan in one BLAS pass: an inf
    or nan entry makes its square, and so the sum, inf or nan.  The sum is
    a float64 scalar, so `math.isfinite` tests it without a ufunc call.
    Only when it is not finite (a non-finite entry, or a sum beyond the
    float64 range) are the entries tested one by one.
    """
    return math.isfinite(a @ a) or bool(np.all(np.isfinite(a)))


def _scratch(slot: int, shape: tuple[int, int]) -> np.ndarray:
    """A C-order float64 array of `shape` in this thread's workspace slot, or
    a fresh one when it would take more than SCRATCH_MAX_BYTES.  A slot is
    replaced by a larger one only when `shape` does not fit it."""
    size = shape[0] * shape[1]
    if size * 8 > SCRATCH_MAX_BYTES:
        return np.empty(shape)
    slots = getattr(_workspace, "slots", None)
    if slots is None:
        slots = _workspace.slots = [np.empty(0), np.empty(0)]
    if slots[slot].size < size:
        slots[slot] = np.empty(size)
    return slots[slot][:size].reshape(shape)


def _logits(mats, x: np.ndarray) -> np.ndarray:
    """(k, n) logits of an unchecked full set: a C-order class-major copy for
    k <= CLASS_MAJOR_MAX_K, else the transposed view of C-order (n, k) logits.

    The hidden layers run in row blocks when the set exceeds one block."""
    h, hidden = x, mats[:-1]
    if hidden:
        n, widest = x.shape[0], max(w.shape[1] for w in hidden)
        # the fewest row blocks of near-equal size whose activations fit the cap
        blocks = -(-n // max(1, SCRATCH_MAX_BYTES // (8 * widest)))
        last = (n, hidden[-1].shape[1])
        h = _scratch((len(hidden) - 1) % 2, last) if blocks <= 1 else np.empty(last)
        for b in range(blocks):
            rows = slice(n * b // blocks, n * (b + 1) // blocks)
            a = x[rows]
            for i, w in enumerate(hidden[:-1]):
                a = np.matmul(a, w, out=_scratch(i % 2, (a.shape[0], w.shape[1])))
                np.maximum(a, 0.0, out=a)
            a = np.matmul(a, hidden[-1], out=h[rows])
            np.maximum(a, 0.0, out=a)
    z = (h @ mats[-1]).T
    if z.shape[0] <= CLASS_MAJOR_MAX_K:
        # rebinding frees the row-major logits before the exp
        z = np.ascontiguousarray(z)
    return z


def _exp_shifted(z: np.ndarray) -> np.ndarray:
    """Overwrite a (k, n) array of logits with exp(z - column maximum) and
    return the column totals, summed in the layout's order: class by class
    on a class-major copy, numpy's row sum on the transposed view."""
    top = z[0].copy()
    for j in range(1, len(z)):  # indexing rows is cheaper than iterating a slice
        np.maximum(top, z[j], out=top)
    z -= top
    np.exp(z, out=z)
    return z.sum(axis=0)


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over each column of `_logits`' (k, n) result, as a fresh C-order
    (n, k) array; `z` is overwritten."""
    total = _exp_shifted(z)
    probs = np.empty(z.shape[::-1])
    np.divide(z, total, out=probs.T)
    return probs


def _label_index(labels: np.ndarray, k: int) -> np.ndarray:
    """Flat index of each row's label entry in a C-order (n, k) array."""
    # added as intp, since int64 + uint64 would promote to float64
    return np.add(labels, np.arange(0, labels.size * k, k), dtype=np.intp)


def _backprop(mats, x, labels, kind, scale=None, grad_views=None):
    """Unchecked forward and backward pass; the public functions validate first.

    `mats` are the weight matrices, `x` a float64 (n, input_dim) batch and
    `labels` one integer in [0, k) per row.  The chain backpropagates
    sum_i scale_i * J_i (scale 1 when None): with `grad_views`, one array
    per weight matrix and of its shape, each layer's parameter gradient is
    written into its view, the chain stops at the first layer and None is
    returned; without, no parameter gradient is formed and the input
    gradient is returned.
    """
    acts = [x]
    h = x
    for w in mats[:-1]:
        h = h @ w
        np.maximum(h, 0.0, out=h)
        acts.append(h)
    z = (h @ mats[-1]).T
    z /= _exp_shifted(z)
    probs = z.T
    at_label = _label_index(labels, probs.shape[1])
    # dJ/dlogits from the residual probs - onehot(labels)
    if kind is LossKind.CCE:
        delta = probs
        delta.ravel()[at_label] -= 1.0
    else:
        g = probs.copy()
        g.ravel()[at_label] -= 1.0
        if kind is LossKind.MAE:
            np.sign(g, out=g)
        elif kind is LossKind.MSE:
            g *= 2.0
        else:
            raise InvalidInputError(f"unknown loss kind {kind!r}")
        g -= (probs * g).sum(axis=1, keepdims=True)
        g *= probs
        delta = g
    if scale is not None:
        delta *= scale[:, None]
    for li in range(len(mats) - 1, 0, -1):
        if grad_views is not None:
            np.matmul(acts[li].T, delta, out=grad_views[li])
        delta = delta @ mats[li].T
        delta *= acts[li] > 0
    if grad_views is None:
        return delta @ mats[0].T
    np.matmul(x.T, delta, out=grad_views[0])
    return None


def forward(model: ModelState, features: np.ndarray) -> np.ndarray:
    """Class-probability matrix (rows sum to 1), a fresh C-order (n, k) array."""
    features = np.asarray(features, dtype=float)
    _check_features(model.architecture, features)
    return _softmax(_logits(model.matrices(), features))


def loss_per_sample(probs: np.ndarray, labels, kind: LossKind) -> np.ndarray:
    """Per-sample loss of softmax probabilities against integer labels."""
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels)
    if probs.ndim != 2:
        raise InvalidInputError(f"probabilities must be a 2-d (rows, classes) array, "
                                f"got shape {probs.shape}")
    n, k = probs.shape
    _check_labels(labels, k, n)
    return _probs_loss(probs, labels, kind)


def _probs_loss(probs: np.ndarray, labels: np.ndarray, kind: LossKind) -> np.ndarray:
    """`loss_per_sample` of labels that `_check_labels` has already passed."""
    at_label = _label_index(labels, probs.shape[1])
    if kind is LossKind.CCE:
        return -np.log(np.maximum(probs.ravel()[at_label], CCE_CLAMP))
    r = probs.copy()  # the caller's array is left as it is
    r.ravel()[at_label] -= 1.0
    if kind is LossKind.MAE:
        return np.abs(r).sum(axis=1)
    if kind is LossKind.MSE:
        return (r ** 2).sum(axis=1)
    raise InvalidInputError(f"unknown loss kind {kind!r}")


def _losses(model: ModelState, features, labels, kind: LossKind) -> np.ndarray:
    """`loss_per_sample(forward(model, features), labels, kind)`, bit for bit,
    with each input checked once and in that order.

    CCE over a class-major copy (k <= CLASS_MAJOR_MAX_K) divides only each
    row's label entry by its total, so no (n, k) probability matrix or
    (n, k) label index is formed; other losses and wider outputs go through
    the probability matrix.
    """
    features, labels = _checked_batch(model, features, labels)
    n = features.shape[0]
    z = _logits(model.matrices(), features)
    if kind is not LossKind.CCE or z.shape[0] > CLASS_MAJOR_MAX_K:
        return _probs_loss(_softmax(z), labels, kind)
    total = _exp_shifted(z)
    # flat index of each row's label entry in the (k, n) copy, as intp like _label_index
    index = np.multiply(labels, n, dtype=np.intp)
    index += np.arange(n)
    p = z.ravel().take(index)  # a fresh vector, worked on in place
    p /= total
    np.maximum(p, CCE_CLAMP, out=p)
    np.log(p, out=p)
    return np.negative(p, out=p)


def grad_params_weighted(model: ModelState, x: np.ndarray, labels: np.ndarray,
                         weights: np.ndarray, kind: LossKind,
                         out: np.ndarray | None = None) -> np.ndarray:
    """sum_i w_i * dJ(theta; x_i, y_i)/dtheta over the rows of x.

    The gradient is written into `out` (a C-contiguous float64 array of
    shape (num_params,) that does not overlap theta) when given, else into
    a new array; that array is returned.
    """
    arch = model.architecture
    x, labels = _checked_batch(model, x, labels)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (x.shape[0],):
        raise InvalidInputError("features and weights disagree on sample count")
    size = arch.num_params
    if out is None:
        out = np.empty(size)
    elif not (isinstance(out, np.ndarray) and out.dtype == np.float64
              and out.shape == (size,) and out.flags.c_contiguous):
        raise InvalidInputError(f"out must be a C-contiguous float64 array of shape ({size},)")
    elif np.may_share_memory(out, model.theta):
        raise InvalidInputError("out must not overlap the model's theta")
    _backprop(model.matrices(), x, labels, kind, scale=weights,
              grad_views=[out[s].reshape(shape) for s, shape in arch.layout()])
    if not _all_finite(out):
        raise NumericError("non-finite parameter gradient")
    return out


def _checked_batch(model: ModelState, x, labels) -> tuple[np.ndarray, np.ndarray]:
    """`x` as a float (n, input_dim) batch and `labels` as its n integers in
    [0, k), both checked against the model; neither is promoted in rank."""
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels)
    _check_features(model.architecture, x)
    _check_labels(labels, model.architecture.num_classes, x.shape[0])
    return x, labels


def _input_gradient(model: ModelState, x: np.ndarray, labels: np.ndarray,
                    kind: LossKind) -> np.ndarray:
    """Input gradient of a 2-d batch that `_checked_batch` has already
    converted and checked, as a fresh 2-d array."""
    gx = _backprop(model.matrices(), x, labels, kind)
    if not _all_finite(gx.ravel()):
        raise NumericError("non-finite input gradient")
    return gx


def grad_input(model: ModelState, x: np.ndarray, y, kind: LossKind) -> np.ndarray:
    """Gradient of the per-sample loss with respect to the input features.

    `x` is a 2-d batch with one label per row, or one 1-d sample with a
    scalar label `y`, taken as a one-row batch; any other mix of ranks is
    rejected.  The gradient has the shape of `x`.
    """
    x = np.asarray(x, dtype=float)
    one = x.ndim == 1 and np.ndim(y) == 0
    batch, labels = _checked_batch(model, x[None] if one else x, np.reshape(y, 1) if one else y)
    return _input_gradient(model, batch, labels, kind).reshape(x.shape)


def fgsm_perturb(model: ModelState, x: np.ndarray, y, epsilon: float, kind: LossKind) -> np.ndarray:
    """Fast gradient sign perturbation x + eps * sign(dJ/dx); sign(0) = 0.

    `x` and `y` take the two forms of `grad_input`, and the result has the
    shape of `x` at every epsilon; epsilon = 0 returns a copy of `x`.  The
    raw additive update is returned without clipping, so perturbed features
    may leave [0, 1].
    """
    if not 0 <= epsilon <= 1:
        raise InvalidInputError(f"epsilon must lie in [0, 1], got {epsilon}")
    x = np.asarray(x, dtype=float)
    one = x.ndim == 1 and np.ndim(y) == 0
    # even the identity takes only valid input
    batch, labels = _checked_batch(model, x[None] if one else x, np.reshape(y, 1) if one else y)
    if epsilon == 0:
        return x.copy()
    step = _input_gradient(model, batch, labels, kind).reshape(x.shape)  # fresh, reused in place
    np.sign(step, out=step)
    step *= epsilon
    step += x
    return step


CHECKPOINT_VERSION = 1


def save_checkpoint(path, model: ModelState, seed: int | None = None, extra: dict | None = None):
    """Write a model checkpoint (npz: version, widths, seed, theta, metadata).

    `seed`, if given, must be a count (at least 0): -1 is stored for None.
    """
    meta = json.dumps(extra or {})
    np.savez(path, version=CHECKPOINT_VERSION, widths=np.asarray(model.architecture.widths),
             seed=-1 if seed is None else check_count("seed", seed, 0), theta=model.theta, meta=meta)


def load_checkpoint(path) -> tuple[ModelState, int | None, dict]:
    """Read a checkpoint written by save_checkpoint; any fault of the file is a FormatError."""
    with file_faults(path, "checkpoint"), np.lib.npyio.NpzFile(path) as z:
        if "version" not in z or int(z["version"]) != CHECKPOINT_VERSION:
            raise FormatError("unsupported checkpoint version")
        arch = Architecture(tuple(z["widths"]))
        seed = int(z["seed"])
        model = ModelState(arch, z["theta"])
        meta = json.loads(str(z["meta"]))
    return model, (None if seed < 0 else seed), meta
