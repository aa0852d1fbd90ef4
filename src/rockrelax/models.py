"""Small differentiable softmax classifiers with manual backpropagation.

Fully-connected ReLU networks (a softmax-linear model is the zero-hidden
special case) with per-sample CCE / MAE / MSE losses on the softmax
output, weighted parameter gradients, and input gradients for FGSM.

Layers carry no bias terms: the reference digit-classification MLP
(784 -> 320 -> 320 -> 200 -> 3) is defined by its 417880 weight
parameters alone.  Bias-capable layers can be emulated by appending a
constant feature.

One softmax serves every pass, over a (k, n) array of logits.  Full-set
passes over k <= 7 classes (`CLASS_MAJOR_MAX_K`) copy the logits class-major,
so each step runs over k long contiguous rows and writes a fresh C-order
(n, k) result; training batches and wider outputs pass the transposed view
of the logits, and the softmax runs in place.  The class sum keeps each
layout's order.  Class by class equals numpy's row sum only below 8 columns
(numpy sums wider rows pairwise), so wider outputs never take the copy and
every result stays bit-exact.  The full-set loss pass (`_losses`) shares the
softmax's matmuls, copy, maximum, exp and class total; for CCE it then
divides only each row's label entry by its total, so it forms no (n, k)
probability matrix.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field

import numpy as np

from rockrelax.errors import FormatError, InvalidInputError, NumericError, file_faults

# Probability floor applied before log in the cross-entropy loss.
CCE_CLAMP = 1e-12

# Widths of the reference 3-digit MNIST classifier (417880 weights).
MNIST3_WIDTHS = (784, 320, 320, 200, 3)

# Widest output whose full-set softmax runs on a class-major copy (module docstring).
CLASS_MAJOR_MAX_K = 7


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
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        if len(self.widths) < 2 or any(w < 1 for w in self.widths):
            raise InvalidInputError(f"need at least input and output widths >= 1, got {self.widths}")
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
    if x.ndim != 2 or x.shape[1] != architecture.input_dim:
        raise InvalidInputError(f"{x.shape[-1] if x.ndim else '?'}-dim features, "
                                f"but the architecture takes {architecture.input_dim}")


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


def _logits(mats, x: np.ndarray) -> np.ndarray:
    """(k, n) logits of an unchecked full set: a C-order class-major copy for
    k <= CLASS_MAJOR_MAX_K, else the transposed view of C-order (n, k) logits."""
    h = x
    for w in mats[:-1]:
        h = h @ w
        np.maximum(h, 0.0, out=h)
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
    """Softmax over each column of a (k, n) array of logits, as a C-order
    (n, k) array; `z` is overwritten.

    `z` is either a C-order class-major copy, whose probabilities go to a
    fresh (n, k) array, or the transposed view of C-order (n, k) logits,
    which are divided in place and returned.
    """
    total = _exp_shifted(z)
    if z.flags.f_contiguous:
        z /= total
        return z.T
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
    probs = _softmax((h @ mats[-1]).T)
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
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels)
    arch = model.architecture
    _check_features(arch, features)
    n = features.shape[0]
    _check_labels(labels, arch.num_classes, n)
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
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels)
    weights = np.asarray(weights, dtype=float)
    _check_features(arch, x)
    if weights.shape != (x.shape[0],):
        raise InvalidInputError("features and weights disagree on sample count")
    _check_labels(labels, arch.num_classes, x.shape[0])
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


def _checked_batch(model: ModelState, x, y) -> tuple[np.ndarray, np.ndarray]:
    """`x` as a 2-d float batch and `y` as its labels, both checked against the model."""
    # the rank rules of np.atleast_2d and np.atleast_1d, with no call for a batch that has its rank
    x = np.asarray(x, dtype=float)
    if x.ndim < 2:
        x = x.reshape(1, -1)
    labels = np.asarray(y)
    if labels.ndim == 0:
        labels = labels.reshape(1)
    _check_features(model.architecture, x)
    _check_labels(labels, model.architecture.num_classes, x.shape[0])
    return x, labels


def _input_gradient(model: ModelState, x: np.ndarray, labels: np.ndarray, y,
                    kind: LossKind) -> np.ndarray:
    """`grad_input` of a batch that `_checked_batch` has already converted and checked."""
    gx = _backprop(model.matrices(), x, labels, kind)
    if not _all_finite(gx.ravel()):
        raise NumericError("non-finite input gradient")
    return gx[0] if gx.shape[0] == 1 and np.ndim(y) == 0 else gx


def grad_input(model: ModelState, x: np.ndarray, y, kind: LossKind) -> np.ndarray:
    """Gradient of the per-sample loss with respect to the input features.

    `x` is one 1-d sample with an integer label `y` (the gradient is then
    1-d too), or a 2-d batch with one label per row.
    """
    return _input_gradient(model, *_checked_batch(model, x, y), y, kind)


def fgsm_perturb(model: ModelState, x: np.ndarray, y, epsilon: float, kind: LossKind) -> np.ndarray:
    """Fast gradient sign perturbation x + eps * sign(dJ/dx); sign(0) = 0.

    The raw additive update is returned without clipping, so perturbed
    features may leave [0, 1].
    """
    if not 0 <= epsilon <= 1:
        raise InvalidInputError(f"epsilon must lie in [0, 1], got {epsilon}")
    x = np.asarray(x, dtype=float)
    batch, labels = _checked_batch(model, x, y)  # even the identity takes only valid input
    if epsilon == 0:
        return x.copy()
    step = _input_gradient(model, batch, labels, y, kind)  # a fresh array, reused in place
    if step.ndim < x.ndim:  # a (1, d) batch with a scalar label keeps its batch axis
        step = step.reshape(x.shape)
    np.sign(step, out=step)
    step *= epsilon
    step += x
    return step


CHECKPOINT_VERSION = 1


def save_checkpoint(path, model: ModelState, seed: int | None = None, extra: dict | None = None):
    """Write a model checkpoint (npz: version, widths, seed, theta, metadata)."""
    meta = json.dumps(extra or {})
    np.savez(path, version=CHECKPOINT_VERSION, widths=np.asarray(model.architecture.widths),
             seed=-1 if seed is None else int(seed), theta=model.theta, meta=meta)


def load_checkpoint(path) -> tuple[ModelState, int | None, dict]:
    """Read a checkpoint written by save_checkpoint; any fault of the file is a FormatError."""
    # np.load is given an open handle: on a truncated archive it leaves its own open
    with (file_faults(path, "checkpoint"), open(path, "rb") as f,
          np.load(f, allow_pickle=False) as z):
        if "version" not in z or int(z["version"]) != CHECKPOINT_VERSION:
            raise FormatError("unsupported checkpoint version")
        arch = Architecture(tuple(int(w) for w in z["widths"]))
        seed = int(z["seed"])
        model = ModelState(arch, z["theta"])
        meta = json.loads(str(z["meta"]))
    return model, (None if seed < 0 else seed), meta
