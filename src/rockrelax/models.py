"""Small differentiable softmax classifiers with manual backpropagation.

Fully-connected ReLU networks (a softmax-linear model is the zero-hidden
special case) with per-sample CCE / MAE / MSE losses on the softmax
output, weighted parameter gradients, and input gradients for FGSM.

Layers carry no bias terms: the reference digit-classification MLP
(784 -> 320 -> 320 -> 200 -> 3) is defined by its 417880 weight
parameters alone.  Bias-capable layers can be emulated by appending a
constant feature.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

import numpy as np

from rockrelax.errors import InvalidInputError, NumericError, FormatError

# Probability floor applied before log in the cross-entropy loss.
CCE_CLAMP = 1e-12

# Widths of the reference 3-digit MNIST classifier (417880 weights).
MNIST3_WIDTHS = (784, 320, 320, 200, 3)


class LossKind(enum.Enum):
    CCE = "cce"
    MAE = "mae"
    MSE = "mse"


@dataclass(frozen=True)
class Architecture:
    """Layer widths of a fully-connected ReLU net; last width is the class count."""

    widths: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        if len(self.widths) < 2 or any(w < 1 for w in self.widths):
            raise InvalidInputError(f"need at least input and output widths >= 1, got {self.widths}")

    @property
    def input_dim(self) -> int:
        return self.widths[0]

    @property
    def num_classes(self) -> int:
        return self.widths[-1]

    @property
    def num_params(self) -> int:
        return sum(a * b for a, b in zip(self.widths[:-1], self.widths[1:]))

    def layout(self) -> list[tuple[slice, tuple[int, int]]]:
        """(slice into theta, weight-matrix shape) per layer."""
        out, offset = [], 0
        for a, b in zip(self.widths[:-1], self.widths[1:]):
            out.append((slice(offset, offset + a * b), (a, b)))
            offset += a * b
        return out


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


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _forward_pass(model: ModelState, x: np.ndarray):
    """Return (weight matrices, activations per layer incl. input, softmax probs)."""
    if x.ndim != 2 or x.shape[1] != model.architecture.input_dim:
        raise InvalidInputError(
            f"feature dim {x.shape[-1] if x.ndim else '?'} does not match "
            f"input width {model.architecture.input_dim}"
        )
    mats = model.matrices()
    acts = [x]
    h = x
    for w in mats[:-1]:
        h = h @ w
        np.maximum(h, 0.0, out=h)
        acts.append(h)
    return mats, acts, _softmax(h @ mats[-1])


def forward(model: ModelState, features: np.ndarray) -> np.ndarray:
    """Class-probability matrix (rows sum to 1)."""
    features = np.asarray(features, dtype=float)
    return _forward_pass(model, features)[2]


def _residual(probs: np.ndarray, labels) -> np.ndarray:
    """probs minus the one-hot labels: 1 is subtracted at each label's column."""
    labels = np.asarray(labels)
    k = probs.shape[1]
    if np.any(labels < 0) or np.any(labels >= k):
        raise InvalidInputError(f"labels must lie in [0, {k})")
    r = probs.copy()
    r[np.arange(probs.shape[0]), labels] -= 1.0
    return r


def loss_per_sample(probs: np.ndarray, labels, kind: LossKind) -> np.ndarray:
    """Per-sample loss of softmax probabilities against integer labels."""
    probs = np.asarray(probs, dtype=float)
    r = _residual(probs, labels)  # also rejects out-of-range labels
    if kind is LossKind.CCE:
        p_y = probs[np.arange(probs.shape[0]), np.asarray(labels)]
        return -np.log(np.maximum(p_y, CCE_CLAMP))
    if kind is LossKind.MAE:
        return np.abs(r).sum(axis=1)
    if kind is LossKind.MSE:
        return (r ** 2).sum(axis=1)
    raise InvalidInputError(f"unknown loss kind {kind!r}")


def _grad_logits(probs: np.ndarray, r: np.ndarray, kind: LossKind) -> np.ndarray:
    """dJ/dlogits for each loss kind from the residual r = probs - onehot(y)."""
    if kind is LossKind.CCE:
        return r
    if kind is LossKind.MAE:
        g = np.sign(r)
    elif kind is LossKind.MSE:
        g = 2.0 * r
    else:
        raise InvalidInputError(f"unknown loss kind {kind!r}")
    return probs * (g - (probs * g).sum(axis=1, keepdims=True))


def _all_finite(a: np.ndarray) -> bool:
    """Exact all-finite test of a flat array.

    A finite sum of squares rules out inf and nan in one BLAS pass; only
    when it is not finite (a non-finite entry, or a sum beyond the float64
    range) are the entries tested one by one.
    """
    return bool(np.isfinite(a @ a)) or bool(np.all(np.isfinite(a)))


def _backprop(model: ModelState, x: np.ndarray, labels: np.ndarray, kind: LossKind,
              sample_scale: np.ndarray | None = None, grad_out: np.ndarray | None = None):
    """Backpropagate sum_i sample_scale_i * J_i (scale 1 when None).

    With `grad_out`, a flat theta-sized buffer, each layer's parameter
    gradient is written into its slice and the chain stops at the first
    layer.  Without it no parameter gradient is formed, the chain runs on
    to the input, and the input gradient is returned.
    """
    mats, acts, probs = _forward_pass(model, x)
    delta = _grad_logits(probs, _residual(probs, labels), kind)
    if sample_scale is not None:
        delta *= sample_scale[:, None]
    end = model.architecture.num_params
    for li in range(len(mats) - 1, -1, -1):
        w = mats[li]
        if grad_out is not None:
            start = end - w.size
            np.matmul(acts[li].T, delta, out=grad_out[start:end].reshape(w.shape))
            end = start
        if li > 0:
            delta = delta @ w.T
            delta *= acts[li] > 0
        elif grad_out is None:
            return delta @ w.T
    return None


def grad_params_weighted(model: ModelState, x: np.ndarray, labels: np.ndarray,
                         weights: np.ndarray, kind: LossKind,
                         out: np.ndarray | None = None) -> np.ndarray:
    """sum_i w_i * dJ(theta; x_i, y_i)/dtheta over the rows of x.

    The gradient is written into `out` (a C-contiguous float64 array of
    shape (num_params,) that does not overlap theta) when given, else into
    a new array; that array is returned.
    """
    if not np.shape(labels) == np.shape(weights) == (np.shape(x)[0],):
        raise InvalidInputError("features, labels and weights disagree on sample count")
    size = model.architecture.num_params
    if out is None:
        out = np.empty(size)
    elif not (isinstance(out, np.ndarray) and out.dtype == np.float64
              and out.shape == (size,) and out.flags.c_contiguous):
        raise InvalidInputError(f"out must be a C-contiguous float64 array of shape ({size},)")
    elif np.may_share_memory(out, model.theta):
        raise InvalidInputError("out must not overlap the model's theta")
    _backprop(model, np.asarray(x, dtype=float), labels, kind,
              sample_scale=np.asarray(weights, dtype=float), grad_out=out)
    if not _all_finite(out):
        raise NumericError("non-finite parameter gradient")
    return out


def grad_input(model: ModelState, x: np.ndarray, y: int, kind: LossKind) -> np.ndarray:
    """Gradient of the per-sample loss with respect to the input features."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    labels = np.atleast_1d(np.asarray(y))
    gx = _backprop(model, x, labels, kind)
    if not np.all(np.isfinite(gx)):
        raise NumericError("non-finite input gradient")
    return gx[0] if gx.shape[0] == 1 and np.ndim(y) == 0 else gx


def fgsm_perturb(model: ModelState, x: np.ndarray, y, epsilon: float, kind: LossKind) -> np.ndarray:
    """Fast gradient sign perturbation x + eps * sign(dJ/dx); sign(0) = 0.

    The raw additive update is returned without clipping, so perturbed
    features may leave [0, 1].
    """
    if not 0 <= epsilon <= 1:
        raise InvalidInputError(f"epsilon must lie in [0, 1], got {epsilon}")
    x = np.asarray(x, dtype=float)
    if epsilon == 0:
        return x.copy()
    return x + epsilon * np.sign(grad_input(model, x, y, kind))


CHECKPOINT_VERSION = 1


def save_checkpoint(path, model: ModelState, seed: int | None = None, extra: dict | None = None):
    """Write a model checkpoint (npz: version, widths, seed, theta, metadata)."""
    meta = json.dumps(extra or {})
    np.savez(path, version=CHECKPOINT_VERSION, widths=np.asarray(model.architecture.widths),
             seed=-1 if seed is None else int(seed), theta=model.theta, meta=meta)


def load_checkpoint(path) -> tuple[ModelState, int | None, dict]:
    """Read a checkpoint written by save_checkpoint."""
    with np.load(path, allow_pickle=False) as z:
        if "version" not in z or int(z["version"]) != CHECKPOINT_VERSION:
            raise FormatError(f"unsupported checkpoint version in {path}")
        arch = Architecture(tuple(int(w) for w in z["widths"]))
        seed = int(z["seed"])
        model = ModelState(arch, z["theta"])
        meta = json.loads(str(z["meta"]))
    return model, (None if seed < 0 else seed), meta
