"""Network evaluation, VJP against finite differences, builders, JSON round-trip."""

import json
import warnings

import numpy as np
import pytest

from genpgd.errors import ContractError
from genpgd.generator import (
    Activation,
    GeneratorNetwork,
    Layer,
    forward,
    forward_batch,
    make_linear_generator,
    make_random_generator,
    network_from_json,
    network_to_json,
    vjp,
)
from genpgd.generator import _forward_jacobian


def fd_vjp(net, z, cotangent, h=1e-6):
    """Independent oracle: J^T c by central differences, one latent coordinate
    at a time."""
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    for i in range(z.size):
        zp = z.copy()
        zm = z.copy()
        zp[i] += h
        zm[i] -= h
        col = (forward(net, zp) - forward(net, zm)) / (2.0 * h)
        out[i] = col @ cotangent
    return out


def generic_latent(net, rng, margin=1e-6):
    """Draw a latent whose preactivations all sit away from activation kinks."""
    for _ in range(200):
        z = rng.standard_normal(net.k)
        a = z
        ok = True
        for layer in net.layers:
            pre = layer.weights @ a + layer.bias
            if layer.activation.kind in ("relu", "leaky-relu") and np.min(np.abs(pre)) < margin:
                ok = False
                break
            a = layer.activation.apply(pre)
        if ok:
            return z
    raise AssertionError("could not find a generic latent point")


def tiny_relu_net():
    l1 = Layer(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]]), np.zeros(3), Activation("relu"))
    l2 = Layer(
        np.array([[1.0, 1.0, 1.0], [0.0, 2.0, 0.0]]),
        np.array([0.5, -1.0]),
        Activation("identity"),
    )
    return GeneratorNetwork([l1, l2])


ARCHS = [
    ("linear", lambda: make_linear_generator(np.array([[1.0, 0.5], [0.0, 2.0], [-1.0, 1.0]]))),
    ("relu", lambda: make_random_generator(3, 12, 3, [6, 9], "relu", seed=7)),
    ("leaky", lambda: make_random_generator(2, 10, 2, [5], "leaky-relu", seed=11, slope=0.25)),
    ("tanh", lambda: make_random_generator(4, 8, 2, [6], "tanh", seed=3)),
]


class TestForward:
    def test_hand_computed_relu_net(self):
        # pre1 = (1, -2, 3) -> relu (1, 0, 3); out = (1+0+3+0.5, 0+0+0-1)
        net = tiny_relu_net()
        x = forward(net, np.array([1.0, -2.0]))
        np.testing.assert_array_equal(x, np.array([4.5, -1.0]))

    def test_linear_generator_is_matrix_multiply(self):
        W = np.array([[2.0, 0.0], [0.0, 3.0], [1.0, 1.0]])
        net = make_linear_generator(W)
        z = np.array([1.5, -0.5])
        np.testing.assert_array_equal(forward(net, z), W @ z)

    def test_wrong_latent_length_rejected(self):
        net = tiny_relu_net()
        with pytest.raises(ContractError, match="latent"):
            forward(net, np.zeros(3))

    def test_repeated_calls_bit_identical(self):
        net = make_random_generator(3, 12, 3, [6, 9], "relu", seed=0)
        z = np.linspace(-1, 1, 3)
        np.testing.assert_array_equal(forward(net, z), forward(net, z))

    def test_batch_matches_single(self):
        net = make_random_generator(2, 7, 2, [4], "tanh", seed=5)
        Z = np.random.default_rng(0).standard_normal((2, 9))
        X = forward_batch(net, Z)
        # batched matmul takes a different BLAS path, so agreement is to
        # rounding, not bitwise
        for j in range(9):
            np.testing.assert_allclose(X[:, j], forward(net, Z[:, j]), rtol=1e-13, atol=1e-15)

    def test_positive_homogeneity_biasfree_relu(self):
        net = make_random_generator(3, 10, 3, [5, 8], "relu", seed=2)
        rng = np.random.default_rng(42)
        for _ in range(20):
            z = rng.standard_normal(3)
            for c in (0.0, 0.3, 1.0, 2.7):
                np.testing.assert_allclose(
                    forward(net, c * z), c * forward(net, z), rtol=1e-12, atol=1e-14
                )


class TestVjp:
    @pytest.mark.parametrize("name,build", ARCHS)
    def test_matches_central_differences(self, name, build):
        net = build()
        rng = np.random.default_rng(hash(name) % 2**32)
        for _ in range(5):
            z = generic_latent(net, rng)
            c = rng.standard_normal(net.n)
            got = vjp(net, z, c)
            want = fd_vjp(net, z, c)
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-8)

    def test_relu_kink_uses_zero_derivative(self):
        net = GeneratorNetwork([Layer(np.array([[1.0]]), np.zeros(1), Activation("relu"))])
        g = vjp(net, np.array([0.0]), np.array([1.0]))
        assert g[0] == 0.0

    def test_identity_net_vjp_is_transpose(self):
        W = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        net = make_linear_generator(W)
        c = np.array([1.0, -1.0, 2.0])
        np.testing.assert_allclose(vjp(net, np.zeros(2), c), W.T @ c, rtol=1e-15)

    def test_cotangent_length_checked(self):
        net = tiny_relu_net()
        with pytest.raises(ContractError, match="cotangent"):
            vjp(net, np.zeros(2), np.zeros(5))


class TestForwardJacobian:
    @pytest.mark.parametrize("name,build", ARCHS)
    def test_matches_vjp_and_central_differences(self, name, build):
        net = build()
        rng = np.random.default_rng(hash(name) % 2**32)
        for _ in range(5):
            z = generic_latent(net, rng)
            c = rng.standard_normal(net.n)
            out, J = _forward_jacobian(net, z)
            assert J.shape == (net.n, net.k)
            np.testing.assert_array_equal(out, forward(net, z))
            np.testing.assert_allclose(J.T @ c, vjp(net, z, c), rtol=1e-12, atol=1e-13)
            np.testing.assert_allclose(J.T @ c, fd_vjp(net, z, c), rtol=1e-5, atol=1e-8)

    def test_relu_kink_uses_zero_derivative(self):
        net = GeneratorNetwork([Layer(np.array([[1.0]]), np.zeros(1), Activation("relu"))])
        assert _forward_jacobian(net, np.array([0.0]))[1][0, 0] == 0.0


class TestBuilders:
    def test_linear_generator_rejects_rank_deficient(self):
        W = np.ones((4, 2))  # duplicate columns
        with pytest.raises(ContractError, match="singular value"):
            make_linear_generator(W)

    def test_linear_generator_shape(self):
        net = make_linear_generator(np.eye(5)[:, :3])
        assert (net.k, net.n, net.d) == (3, 5, 1)
        assert net.layers[0].activation.kind == "identity"
        np.testing.assert_array_equal(net.layers[0].bias, np.zeros(5))

    def test_random_generator_seed_determinism(self):
        a = make_random_generator(3, 12, 3, [6, 9], "relu", seed=9)
        b = make_random_generator(3, 12, 3, [6, 9], "relu", seed=9)
        c = make_random_generator(3, 12, 3, [6, 9], "relu", seed=10)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
        assert any(
            not np.array_equal(la.weights, lc.weights) for la, lc in zip(a.layers, c.layers)
        )

    def test_random_generator_depth_and_widths(self):
        net = make_random_generator(3, 12, 3, [6, 9], "relu", seed=0)
        assert [l.weights.shape for l in net.layers] == [(6, 3), (9, 6), (12, 9)]
        # hidden layers carry the nonlinearity, output layer stays affine
        assert [l.activation.kind for l in net.layers] == ["relu", "relu", "identity"]
        for l in net.layers:
            np.testing.assert_array_equal(l.bias, np.zeros(l.weights.shape[0]))

    def test_random_generator_weight_scale(self):
        net = make_random_generator(20, 400, 2, [300], "relu", seed=1)
        v = net.layers[0].weights.var()
        assert abs(v - 2.0 / 20) < 0.03

    def test_non_expansive_widths_warn_but_build(self):
        with warnings.catch_warnings(record=True) as w:
            warnings.simplefilter("always")
            make_random_generator(4, 10, 3, [6, 5], "relu", seed=0)
        assert any("expansive" in str(x.message) for x in w)
        with warnings.catch_warnings(record=True) as w:
            warnings.simplefilter("always")
            make_random_generator(4, 10, 3, [5, 8], "relu", seed=0)
        assert not w

    def test_depth_width_mismatch(self):
        with pytest.raises(ContractError, match="widths"):
            make_random_generator(3, 12, 3, [6], "relu", seed=0)

    @pytest.mark.parametrize("bad", [1.5, "7", None, True])
    def test_invalid_seed_types(self, bad):
        with pytest.raises(ContractError, match="seed"):
            make_random_generator(2, 6, 2, [4], "relu", seed=bad)

    def test_bad_slope_rejected(self):
        for slope in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ContractError, match="slope"):
                Activation("leaky-relu", slope)
        with pytest.raises(ContractError, match="slope"):
            Activation("relu", 0.5)


class TestTypes:
    def test_dimension_chaining_enforced(self):
        l1 = Layer(np.zeros((3, 2)), np.zeros(3), Activation("relu"))
        l2 = Layer(np.zeros((4, 5)), np.zeros(4), Activation("identity"))
        with pytest.raises(ContractError, match="layer 1"):
            GeneratorNetwork([l1, l2])

    def test_bias_shape_enforced(self):
        with pytest.raises(ContractError, match="bias"):
            Layer(np.zeros((3, 2)), np.zeros(4), Activation("relu"))

    def test_empty_network_rejected(self):
        with pytest.raises(ContractError, match="at least one layer"):
            GeneratorNetwork([])

    def test_is_single_affine(self):
        assert make_linear_generator(np.eye(5)[:, :3]).is_single_affine
        relu = GeneratorNetwork([Layer(np.eye(3), np.zeros(3), Activation("relu"))])
        two_identity = GeneratorNetwork([
            Layer(np.eye(3), np.zeros(3), Activation("identity")),
            Layer(np.eye(3), np.zeros(3), Activation("identity"))])
        mlp = make_random_generator(3, 12, 2, [6], "relu", seed=0)
        assert not relu.is_single_affine
        assert not two_identity.is_single_affine
        assert not mlp.is_single_affine


class TestSerialization:
    @pytest.mark.parametrize("name,build", ARCHS)
    def test_round_trip_bit_exact(self, name, build):
        net = build()
        text = json.dumps(network_to_json(net))
        back = network_from_json(json.loads(text))
        assert (back.k, back.n, back.d) == (net.k, net.n, net.d)
        for la, lb in zip(net.layers, back.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.bias, lb.bias)
            assert la.activation == lb.activation

    def test_schema_fields(self):
        net = make_random_generator(2, 6, 2, [4], "leaky-relu", seed=0, slope=0.1)
        obj = network_to_json(net)
        assert (obj["k"], obj["n"], obj["d"]) == (2, 6, 2)
        assert obj["layers"][0]["activation"] == "leaky-relu"
        assert obj["layers"][0]["slope"] == 0.1
        assert "slope" not in obj["layers"][1]

    def test_missing_field_named_in_error(self):
        obj = network_to_json(tiny_relu_net())
        del obj["layers"][1]["bias"]
        with pytest.raises(ContractError, match="bias"):
            network_from_json(obj)

    def test_inconsistent_header_rejected(self):
        obj = network_to_json(tiny_relu_net())
        obj["n"] = 99
        with pytest.raises(ContractError, match="n"):
            network_from_json(obj)
