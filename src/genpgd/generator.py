"""Feedforward generative networks.

A generator maps a low-dimensional latent vector to a signal through a stack
of affine layers with elementwise nonlinearities.  This module provides the
network types, exact evaluation, the vector-Jacobian product, the forward
Jacobian pass used by latent-space Levenberg–Marquardt, seeded builders, and
a JSON form whose floats survive a write/read cycle bit-exactly.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .seeding import check_seed, spawn_rng

__all__ = [
    "Activation",
    "Layer",
    "GeneratorNetwork",
    "forward",
    "forward_batch",
    "vjp",
    "make_linear_generator",
    "make_random_generator",
    "network_to_json",
    "network_from_json",
    "save_network",
    "load_network",
]

_KINDS = ("identity", "relu", "leaky-relu", "tanh")


@dataclass(frozen=True)
class Activation:
    """Elementwise nonlinearity applied after a layer's affine map.

    Parameters
    ----------
    kind : str
        One of ``identity``, ``relu``, ``leaky-relu``, ``tanh``.
    slope : float, optional
        Negative-side slope for ``leaky-relu``; must lie strictly in (0, 1)
        and is meaningless (hence forbidden) for the other kinds.
    """

    kind: str
    slope: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ContractError(f"unknown activation kind {self.kind!r}")
        if self.kind == "leaky-relu":
            if self.slope is None or not (0.0 < float(self.slope) < 1.0):
                raise ContractError(f"leaky-relu slope must lie in (0, 1), got {self.slope!r}")
        elif self.slope is not None:
            raise ContractError(f"activation {self.kind!r} takes no slope")

    def apply(self, t: np.ndarray) -> np.ndarray:
        if self.kind == "identity":
            return t
        if self.kind == "relu":
            return np.maximum(t, 0.0)
        if self.kind == "leaky-relu":
            return np.where(t > 0.0, t, self.slope * t)
        return np.tanh(t)

    def derivative(self, t: np.ndarray) -> np.ndarray:
        """Elementwise derivative at preactivation ``t``.

        At the relu kink (t == 0) the subgradient 0 is used; leaky-relu takes
        its negative-side slope there.
        """
        if self.kind == "identity":
            return np.ones_like(t)
        if self.kind == "relu":
            return (t > 0.0).astype(t.dtype)
        if self.kind == "leaky-relu":
            return np.where(t > 0.0, 1.0, self.slope)
        c = np.tanh(t)
        return 1.0 - c * c


def _pseudo_inverse(W: np.ndarray) -> np.ndarray:
    """Pseudo-inverse of ``W`` from one thin SVD, which is also the rank
    check: ``W`` must be finite and have full column rank (at least one
    column, no more columns than rows, smallest singular value above
    1e-10), else :class:`ContractError`.  ``_pseudo_inverse(W) @ x`` is the
    least-squares latent of ``x``."""
    if not np.all(np.isfinite(W)):
        raise ContractError("W must be finite")
    U, s, Vt = np.linalg.svd(W, full_matrices=False)
    smin = s[-1] if 1 <= W.shape[1] <= W.shape[0] else 0.0
    if not smin > 1e-10:
        raise ContractError(
            f"W must have full column rank; smallest singular value {smin:.3e} <= 1e-10"
        )
    return (Vt.T / s) @ U.T


@dataclass(frozen=True)
class Layer:
    """One affine map plus activation: ``a -> act(weights @ a + bias)``.
    ``weights`` and ``bias`` are kept as read-only copies, so what is derived
    from them (:attr:`pseudo_inverse`) never goes stale."""

    weights: np.ndarray
    bias: np.ndarray
    activation: Activation

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        b = np.array(self.bias, dtype=float)
        if w.ndim != 2 or min(w.shape) < 1:
            raise ContractError(f"weights must be a 2-d matrix, got shape {w.shape}")
        if b.shape != (w.shape[0],):
            raise ContractError(
                f"bias shape {b.shape} does not match weights output dim {w.shape[0]}"
            )
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ContractError("layer weights and bias must be finite")
        w.flags.writeable = b.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    @functools.cached_property
    def pseudo_inverse(self) -> np.ndarray:
        """The (in_dim, out_dim) pseudo-inverse of ``weights``, factored on
        first use and cached; a rank-deficient layer raises
        :class:`ContractError` on every access and caches nothing."""
        return _pseudo_inverse(self.weights)


class GeneratorNetwork:
    """A stack of layers mapping latent dimension ``k`` to output dimension ``n``.

    Layer dimensions must chain (each layer's input dim equals the previous
    layer's output dim); depth ``d`` is the number of layers.
    """

    def __init__(self, layers):
        layers = tuple(layers)
        if not layers:
            raise ContractError("a network needs at least one layer")
        for i in range(1, len(layers)):
            if layers[i].in_dim != layers[i - 1].out_dim:
                raise ContractError(
                    f"layer {i} expects input dim {layers[i].in_dim} but layer "
                    f"{i - 1} produces {layers[i - 1].out_dim}"
                )
        self.layers = layers

    @property
    def k(self) -> int:
        return self.layers[0].in_dim

    @property
    def n(self) -> int:
        return self.layers[-1].out_dim

    @property
    def d(self) -> int:
        return len(self.layers)

    @property
    def is_single_affine(self) -> bool:
        """One identity-activation layer: the range is an affine subspace,
        so projections and curvature constants have closed forms."""
        return self.d == 1 and self.layers[0].activation.kind == "identity"

    def __repr__(self):
        dims = " -> ".join(str(l.in_dim) for l in self.layers) + f" -> {self.n}"
        return f"GeneratorNetwork({dims})"


def _check_latent(net: GeneratorNetwork, z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.shape != (net.k,):
        raise ContractError(f"latent must have shape ({net.k},), got {z.shape}")
    return z


def forward(net: GeneratorNetwork, z) -> np.ndarray:
    """Evaluate the network at latent ``z``, returning the length-``n`` output."""
    a = _check_latent(net, z)
    for layer in net.layers:
        a = layer.activation.apply(layer.weights @ a + layer.bias)
    return a


def forward_batch(net: GeneratorNetwork, Z) -> np.ndarray:
    """Evaluate many latents at once; ``Z`` is (k, N), result is (n, N)."""
    A = np.asarray(Z, dtype=float)
    if A.ndim != 2 or A.shape[0] != net.k:
        raise ContractError(f"latent batch must have shape ({net.k}, N), got {A.shape}")
    for layer in net.layers:
        A = layer.activation.apply(layer.weights @ A + layer.bias[:, None])
    return A


def vjp(net: GeneratorNetwork, z, cotangent) -> np.ndarray:
    """Vector-Jacobian product ``J(z)^T @ cotangent``.

    This is the gradient workhorse for latent-space least squares: with
    residual ``r = forward(net, z) - x``, the gradient of ``0.5 * ||r||^2``
    in ``z`` is ``vjp(net, z, r)``.
    """
    z = _check_latent(net, z)
    c = np.asarray(cotangent, dtype=float)
    if c.shape != (net.n,):
        raise ContractError(f"cotangent must have shape ({net.n},), got {c.shape}")
    pres = []
    a = z
    for layer in net.layers:
        pre = layer.weights @ a + layer.bias
        pres.append(pre)
        a = layer.activation.apply(pre)
    g = c
    for layer, pre in zip(reversed(net.layers), reversed(pres)):
        g = layer.weights.T @ (layer.activation.derivative(pre) * g)
    return g


def _forward_jacobian(net: GeneratorNetwork, Z):
    """Outputs and Jacobians at a batch of latents in one pass.

    ``Z`` holds one latent per row, (N, k); the result is the (N, n) outputs
    and the (N, n, k) stack of Jacobians ``J(z)``.  Forward mode: the k
    tangent columns ride along with the activations,
    ``J <- act'(pre)[:, :, None] * (W @ J)`` per layer, which is cheap
    because the latent dimension is small.  Kinks use the same one-sided
    derivatives as :func:`vjp`, so ``J[i].T @ c == vjp(net, Z[i], c)`` up to
    rounding.
    """
    A = np.asarray(Z, dtype=float)
    if A.ndim != 2 or A.shape[1] != net.k:
        raise ContractError(f"latent batch must have shape (N, {net.k}), got {A.shape}")
    J = None
    for layer in net.layers:
        pre = A @ layer.weights.T + layer.bias
        A = layer.activation.apply(pre)
        WJ = layer.weights if J is None else layer.weights @ J
        J = layer.activation.derivative(pre)[:, :, None] * WJ
    return A, J


def make_linear_generator(W) -> GeneratorNetwork:
    """Wrap a full-column-rank matrix as a single-layer affine-free network.

    The range of the result is exactly the column span of ``W``.  Rank is
    checked through the smallest singular value (must exceed 1e-10) by
    factoring the layer's pseudo-inverse, which closed-form projection reuses.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim != 2:
        raise ContractError(f"W must be 2-d, got shape {W.shape}")
    layer = Layer(W, np.zeros(W.shape[0]), Activation("identity"))
    layer.pseudo_inverse  # the rank check
    return GeneratorNetwork([layer])


def make_random_generator(k, n, d, widths, activation="relu", seed=0, slope=None):
    """Build a depth-``d`` network with Gaussian weights and zero biases.

    Parameters
    ----------
    k, n : int
        Latent and output dimensions.
    d : int
        Number of layers; ``widths`` lists the d-1 hidden sizes.
    activation : str
        Nonlinearity for the hidden layers; the output layer is affine.
    seed : int
        Weights are drawn from N(0, 2/in_dim) with this seed.
    slope : float, optional
        Negative-side slope when ``activation`` is ``leaky-relu``.

    Widths that are not expansive (k <= w1 <= ... <= n) trigger a warning but
    still build; latent-descent projection tends to behave worse on such nets.
    """
    check_seed(seed)
    widths = [int(w) for w in widths]
    if d < 1 or len(widths) != d - 1:
        raise ContractError(f"widths must list d-1={d - 1} hidden sizes, got {len(widths)}")
    if any(w < 1 for w in widths) or k < 1 or n < 1:
        raise ContractError("all dimensions must be positive")
    dims = [int(k)] + widths + [int(n)]
    if any(dims[i] > dims[i + 1] for i in range(len(dims) - 1)):
        warnings.warn(
            f"widths {dims} are not expansive (nondecreasing from k to n)", stacklevel=2
        )
    act = Activation(activation, slope)
    rng = spawn_rng(seed)
    layers = []
    for i in range(d):
        fan_in = dims[i]
        W = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(dims[i + 1], fan_in))
        a = act if i < d - 1 else Activation("identity")
        layers.append(Layer(W, np.zeros(dims[i + 1]), a))
    return GeneratorNetwork(layers)


def network_to_json(net: GeneratorNetwork) -> dict:
    """JSON-ready dict: header dims plus per-layer row-major weights."""
    layers = []
    for layer in net.layers:
        entry = {
            "weights": layer.weights.tolist(),
            "bias": layer.bias.tolist(),
            "activation": layer.activation.kind,
        }
        if layer.activation.kind == "leaky-relu":
            entry["slope"] = layer.activation.slope
        layers.append(entry)
    return {"k": net.k, "n": net.n, "d": net.d, "layers": layers}


def _field(obj, name, where):
    if not isinstance(obj, dict) or name not in obj:
        raise ContractError(f"missing field {name!r} in {where}")
    return obj[name]


def network_from_json(obj) -> GeneratorNetwork:
    """Rebuild a network from :func:`network_to_json` output; floats are
    restored bit-exactly."""
    layers = []
    for i, entry in enumerate(_field(obj, "layers", "network")):
        where = f"layer {i}"
        kind = _field(entry, "activation", where)
        act = Activation(kind, entry.get("slope") if kind == "leaky-relu" else None)
        try:
            layers.append(
                Layer(
                    np.array(_field(entry, "weights", where), dtype=float),
                    np.array(_field(entry, "bias", where), dtype=float),
                    act,
                )
            )
        except (TypeError, ValueError) as e:
            raise ContractError(f"malformed arrays in {where}: {e}") from e
    net = GeneratorNetwork(layers)
    for name, got in (("k", net.k), ("n", net.n), ("d", net.d)):
        if _field(obj, name, "network") != got:
            raise ContractError(
                f"header field {name!r}={obj[name]} inconsistent with layers ({got})"
            )
    return net


def save_network(net: GeneratorNetwork, path) -> None:
    import json

    with open(path, "w") as f:
        f.write(json.dumps(network_to_json(net)))  # the C encoder; same bytes as json.dump


def load_network(path) -> GeneratorNetwork:
    import json

    with open(path) as f:
        return network_from_json(json.load(f))
