"""Small fully connected networks with hand-written backward passes.

No autograd: each Mlp caches its forward activations and exposes backward()
returning both parameter gradients and the gradient with respect to the
input. The input gradient is what lets a policy gradient flow through a
value network into the policy that produced part of its input; a caller
that needs only one of the two can skip the other.

All parameters of one Mlp live in a single flat float64 vector, `flat`, in
declaration order (W0, b0, W1, b1, ...); `weights` and `biases` are views
into it. Adam and soft_update therefore act on whole vectors, element by
element, with the same arithmetic a per-tensor loop would do.

Hidden layers are rectified-linear; the output head is either linear (value
estimates) or a saturating tanh scaled to the action box (policies).
"""

from __future__ import annotations

import math

import numpy as np


class Mlp:
    """Feed-forward net over float64 arrays; single sample or batch inputs."""

    def __init__(self, dims, head: str = "linear", head_scale: float = 1.0, rng=None):
        if len(dims) < 2:
            raise ValueError("dims needs at least input and output sizes")
        if head not in ("linear", "tanh"):
            raise ValueError(f"unknown head {head!r}")
        self.dims = tuple(int(d) for d in dims)
        self.head = head
        self.head_scale = float(head_scale)
        rng = rng if rng is not None else np.random.default_rng(0)
        self.flat = np.zeros(sum(din * dout + dout for din, dout in zip(self.dims[:-1], self.dims[1:])))
        self._bind()
        for i, w in enumerate(self.weights):
            if i == len(self.weights) - 1:
                w[...] = rng.uniform(-1e-3, 1e-3, size=w.shape)
            else:
                w[...] = rng.normal(0.0, math.sqrt(2.0 / w.shape[0]), size=w.shape)
        self._cache = None

    def _bind(self) -> None:
        """Point weights and biases at their slices of flat."""
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        pos = 0
        for din, dout in zip(self.dims[:-1], self.dims[1:]):
            self.weights.append(self.flat[pos : pos + din * dout].reshape(din, dout))
            pos += din * dout
            self.biases.append(self.flat[pos : pos + dout])
            pos += dout

    @property
    def n_params(self) -> int:
        return self.flat.size

    def parameters(self):
        """Parameter arrays in declaration order (W0, b0, W1, b1, ...), views into flat."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def copy(self) -> "Mlp":
        clone = Mlp.__new__(Mlp)
        clone.dims = self.dims
        clone.head = self.head
        clone.head_scale = self.head_scale
        clone.flat = self.flat.copy()
        clone._bind()
        clone._cache = None
        return clone

    def forward(self, x) -> np.ndarray:
        """Run the net, caching activations for a subsequent backward()."""
        arr = np.asarray(x, dtype=float)
        squeeze = arr.ndim == 1
        a = arr.reshape(1, -1) if squeeze else arr
        if a.shape[1] != self.dims[0]:
            raise ValueError(f"expected input width {self.dims[0]}, got {a.shape[1]}")
        activations = [a]
        n_layers = len(self.weights)
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            # z is a fresh product, so the bias add and activation can run in place
            z = a @ w
            z += b
            if i < n_layers - 1:
                np.maximum(z, 0.0, out=z)
            elif self.head == "tanh":
                np.tanh(z, out=z)
                z *= self.head_scale
            a = z
            activations.append(a)
        self._cache = (activations, squeeze)
        return a[0] if squeeze else a

    def backward(self, grad_out, param_grads: bool = True, input_grad: bool = True):
        """Gradients of sum(grad_out * output) from the latest forward().

        Returns (param_grads, grad_input): param_grads pairs up with
        parameters(), or is None when called with param_grads=False, which
        skips the weight and bias gradients; grad_input has the shape of the
        forward input, or is None when called with input_grad=False, which
        skips the first layer's g @ W0.T. Each flag leaves the other result
        bit for bit unchanged. grad_out is never written.
        """
        if self._cache is None:
            raise RuntimeError("backward() requires a preceding forward()")
        activations, squeeze = self._cache
        g = np.asarray(grad_out, dtype=float)
        if squeeze:
            g = g.reshape(1, -1)
        if self.head == "tanh":
            y = activations[-1]
            g = g * (self.head_scale - y * y / self.head_scale)
        grads = [None] * (2 * len(self.weights)) if param_grads else None
        for i in range(len(self.weights) - 1, -1, -1):
            if param_grads:
                grads[2 * i] = activations[i].T @ g
                grads[2 * i + 1] = g.sum(axis=0)
            if i == 0 and not input_grad:
                return grads, None
            g = g @ self.weights[i].T
            if i > 0:
                g *= activations[i] > 0.0
        return grads, (g[0] if squeeze else g)


class Adam:
    """Adaptive moment optimizer over one net's flat parameter vector, default coefficients."""

    def __init__(self, net: Mlp, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.net = net
        self.lr = float(lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(net.flat)
        self.v = np.zeros_like(net.flat)

    def step(self, grads) -> None:
        """Descend along grads (pass negated gradients to ascend).

        grads pairs up with net.parameters(). Every shape and value is
        checked before anything moves: a bad gradient leaves the
        parameters, both moments and t as they were.
        """
        params = self.net.parameters()
        if len(grads) != len(params):
            raise ValueError("gradient list does not match parameter list")
        for p, g in zip(params, grads):
            if np.shape(g) != p.shape:
                raise ValueError(f"gradient shape {np.shape(g)} does not match parameter shape {p.shape}")
        g = np.concatenate([np.ravel(x) for x in grads], dtype=float)
        if not np.isfinite(g).all():
            raise FloatingPointError("non-finite gradient")
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        m, v = self.m, self.v
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * np.square(g)
        self.net.flat -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


def soft_update(target: Mlp, online: Mlp, xi: float) -> Mlp:
    """Blend target parameters toward online ones: theta' <- xi*theta + (1-xi)*theta'."""
    if target.dims != online.dims:
        raise ValueError(f"network architectures differ: {target.dims} vs {online.dims}")
    t = target.flat
    t *= 1.0 - xi
    t += xi * online.flat
    return target
