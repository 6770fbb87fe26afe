"""Small fully connected networks with hand-written backward passes.

No autograd: each Mlp caches its forward activations and exposes backward()
returning both parameter gradients and the gradient with respect to the
input. The input gradient is what lets a policy gradient flow through a
value network into the policy that produced part of its input; a caller
that needs only one of the two can skip the other.

All parameters of one Mlp live in a single flat float64 vector, `flat`, in
declaration order (W0, b0, W1, b1, ...); `weights` and `biases` are views
into it. The parameter gradients live in a second preallocated vector of
the same layout, `grad`, which backward() overwrites layer by layer through
its own views and returns. Adam and soft_update therefore act on whole
vectors, element by element, with the same arithmetic a per-tensor loop
would do.

One forward and one backward, generic over leading axes, hold the layer
loop, and Mlp is their 2-D case. `MlpStack` rebinds the `flat` of several
nets to the rows of one matrix and runs net i on input row i for all of
them through that forward, one stacked matmul per layer. Given one net,
the forward applies its head to the whole output at once; given several,
one head per leading row. The stack passes its first net alone whenever
every net has the same head and scale, which the trainer's actors do, and
all of them only when a checkpoint has given them different heads.

Hidden layers are rectified-linear; the output head is either linear (value
estimates) or a saturating tanh scaled to the action box (policies).
"""

from __future__ import annotations

import math

import numpy as np


def flat_size(dims) -> int:
    """The number of parameters of an Mlp with these layer sizes: the length of its `flat`."""
    return sum(din * dout + dout for din, dout in zip(dims[:-1], dims[1:]))


def _views(flat, dims):
    """Per-layer weight and bias views into the last axis of flat: one net, or one net per row."""
    lead, weights, biases, pos = flat.shape[:-1], [], [], 0
    for din, dout in zip(dims[:-1], dims[1:]):
        weights.append(flat[..., pos : pos + din * dout].reshape(*lead, din, dout))
        biases.append(flat[..., pos + din * dout : pos + din * dout + dout])
        pos += din * dout + dout
    return weights, biases


def _forward(x, weights, biases, nets):
    """Every layer's activation on x: (B, d_in) through one net's weights, or (n, B, d_in) through
    n nets' stacked (n, d, d') weights and (n, 1, d') biases. Given one net, its head acts on the
    whole output; given several, net k's head acts on leading row k."""
    a, activations = x, [x]
    for i, (w, b) in enumerate(zip(weights, biases)):
        if i:  # every activation after x is a fresh product, so it is rectified in place
            np.maximum(a, 0.0, out=a)
        a = np.matmul(a, w)
        a += b
        activations.append(a)
    for row, net in zip((a,) if len(nets) == 1 else a, nets):
        if net.head == "tanh":
            np.tanh(row, out=row)
            row *= net.head_scale
    return activations


def _backward(activations, g, weights, grad_views, nets, input_grad):
    """Input gradient of sum(g * output) through _forward's layers, None without input_grad; g is
    overwritten. Parameter gradients go into grad_views, (weight views, bias views), unless None.
    Heads are undone as _forward applied them: one net's on all of g, or net k's on row k."""
    rows = ((g,), (activations[-1],)) if len(nets) == 1 else (g, activations[-1])
    for row, y, net in zip(*rows, nets):
        if net.head == "tanh":
            row *= net.head_scale - y * y / net.head_scale
    for i in range(len(weights) - 1, -1, -1):
        if grad_views is not None:
            np.matmul(activations[i].swapaxes(-1, -2), g, out=grad_views[0][i])
            g.sum(axis=-2, out=grad_views[1][i])
        if i == 0 and not input_grad:
            return None
        g = np.matmul(g, weights[i].swapaxes(-1, -2))
        if i > 0:
            g *= activations[i] > 0.0
    return g


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
        self._bind(np.zeros(flat_size(self.dims)))
        for w in self.weights[:-1]:
            w[...] = rng.normal(0.0, math.sqrt(2.0 / w.shape[0]), size=w.shape)
        self.weights[-1][...] = rng.uniform(-1e-3, 1e-3, size=self.weights[-1].shape)

    def _bind(self, flat) -> None:
        """Make flat the parameters, with their views and a fresh zeroed `grad` laid out like them."""
        self.flat = flat
        self.grad = np.zeros_like(flat)
        self.weights, self.biases = _views(flat, self.dims)
        self._grad_views = _views(self.grad, self.dims)
        self._cache = None

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
        clone._bind(self.flat.copy())
        return clone

    def forward(self, x) -> np.ndarray:
        """Run the net on one (d_in,) sample or a (B, d_in) batch, caching activations for backward()."""
        arr = np.asarray(x, dtype=float)
        if arr.ndim not in (1, 2) or arr.shape[-1] != self.dims[0]:
            raise ValueError(f"expected input ({self.dims[0]},) or (B, {self.dims[0]}), got {arr.shape}")
        squeeze = arr.ndim == 1
        activations = _forward(arr.reshape(1, -1) if squeeze else arr, self.weights, self.biases, (self,))
        self._cache = (activations, squeeze)
        return activations[-1][0] if squeeze else activations[-1]

    def backward(self, grad_out, param_grads: bool = True, input_grad: bool = True):
        """Gradients of sum(grad_out * output) from the latest forward().

        Returns (grad, grad_input). grad is the net's own `grad` vector,
        laid out like `flat` and overwritten by this call, so it is valid
        until the next backward(); it is None, and `grad` is left as it
        was, when called with param_grads=False, which skips the weight and
        bias gradients. grad_input has the shape of the forward input, or
        is None when called with input_grad=False, which skips the first
        layer's g @ W0.T. Each flag leaves the other result bit for bit
        unchanged. grad_out, shaped like that forward's output, is never written.
        """
        if self._cache is None:
            raise RuntimeError("backward() requires a preceding forward()")
        activations, squeeze = self._cache
        y = activations[-1]
        if np.shape(grad_out) != y.shape[squeeze:]:
            raise ValueError(f"grad_out must have the output shape {y.shape[squeeze:]}, got {np.shape(grad_out)}")
        g = np.array(grad_out, dtype=float).reshape(y.shape)
        g = _backward(activations, g, self.weights, self._grad_views if param_grads else None, (self,), input_grad)
        return (self.grad if param_grads else None), (g[0] if squeeze and input_grad else g)


class MlpStack:
    """Nets of one architecture whose `flat` vectors are rebound to the rows of one matrix, `flat`."""

    def __init__(self, nets):
        self.nets = list(nets)
        (dims,) = {net.dims for net in self.nets}  # ValueError unless every net has the same dims
        self.flat = np.stack([net.flat for net in self.nets])
        for row, net in zip(self.flat, self.nets):
            net._bind(row)
        self.weights, biases = _views(self.flat, dims)
        self.biases = [b[:, None] for b in biases]

    def forward(self, x) -> np.ndarray:
        """Row i of the (n, dims[-1]) output is net i, with its head as set now, on row i of the (n, dims[0]) x."""
        arr = np.asarray(x, dtype=float)
        if arr.shape != self.weights[0].shape[:2]:
            raise ValueError(f"expected input of shape {self.weights[0].shape[:2]}, got {arr.shape}")
        nets = self.nets
        first = nets[0]
        head, scale = first.head, first.head_scale
        for net in nets:  # one head pass for the whole output when every net has the same head
            if net.head != head or net.head_scale != scale:
                break
        else:
            nets = (first,)
        return _forward(arr.reshape(len(arr), 1, -1), self.weights, self.biases, nets)[-1][:, 0, :]


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

    def step(self, g) -> None:
        """Descend along g (pass a negated gradient to ascend).

        g is one array laid out like net.flat, such as the net's `grad`.
        Its shape and values are checked before anything moves: a bad
        gradient leaves the parameters, both moments and t as they were.
        """
        if not isinstance(g, np.ndarray) or g.shape != self.m.shape:
            got = g.shape if isinstance(g, np.ndarray) else type(g).__name__
            raise ValueError(f"gradient must be an array of shape {self.m.shape}, got {got}")
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
