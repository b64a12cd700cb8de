"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every tensor stores a numpy array plus an optional gradient slot. Ops
executed while gradients are enabled record a closure that scatters the
output adjoint back into the operands; ``Tensor.backward`` seeds a
scalar loss and ``_sweep`` replays the tape in reverse topological order
and consumes it: each interior node drops its gradient, its closure and
its parent links as soon as its closure has run, and a graph can be
differentiated only once. Leaves (tensors created with
``requires_grad``, e.g. trainable parameters) keep ``grad`` and
accumulate across graphs. Frozen tensors (``requires_grad`` False) never
receive a grad array and are skipped by the tape. A node exists only
when some parent requires grad, so one-input closures accumulate
unconditionally; multi-input closures check each parent.

A recorded op result is two objects: the value the op returns and the
tape node it points at (``Tensor.node``). A node keeps its gradient,
its parents' nodes and the arrays its backward reads, nothing else: not
its own value, and not the parents' values unless its arithmetic reads
them (``mul`` keeps a's value only when b takes a gradient). So a value
that no backward reads is freed as soon as the forward code drops it,
as PyTorch saves per op only the tensors its derivative formula reads
(Paszke et al., 2019, "PyTorch: An Imperative Style, High-Performance
Deep Learning Library"). Leaves and constants are their own nodes,
since their values persist anyway.

The three elementwise-heavy block ops are one tape node each, bitwise
equal to the composites of primitive ops they stand for, and keep for
backward, beyond the input values it reads, only what cannot be
recomputed bit for bit from them: ``linear`` (``x @ w + b``) keeps
nothing more (and x's value only if w trains); ``gelu`` keeps
``erf(x / sqrt 2) + 1``; ``layer_norm`` keeps the per-row mean and
standard deviation. Backward recomputes the rest (Chen et al., 2016,
"Training Deep Nets with Sublinear Memory Cost").

Every gradient buffer has one owner. ``_accumulate`` copies a first
gradient into a fresh C-ordered buffer and sums later ones into it.
``_adopt`` instead takes the array it is handed as the buffer when the
tensor has no gradient yet and the array is an owning, C-contiguous
float64 array of the tensor's shape; otherwise it accumulates it. A
closure adopts only an array it has just made and never touches again
(a product, a quotient, a scatter); a pass-through adjoint (``add``,
``reshape``, ``swapaxes``, ``concat``, ``tsum``, a ``row_blocks`` seed)
may be a view or shared, so it is accumulated, which copies it. The
sweep hands each node's buffer to its closure, which then owns it, as
PyTorch's ``AccumulateGrad`` takes a gradient it can own instead of
copying it: ``gelu``'s closure writes the adjoint of its 0.5 x path
into that buffer and adopts it into x, and, since a closure runs once,
writes the erf path's Gaussian factor into the kept ``erf + 1``, which
the 0.5 x path is the last to read. So a taped backward holds about its
tape, not copies of the adjoints in flight.

A ``row_blocks`` node runs a row-wise function over contiguous blocks of
its input's leading rows, one block per thread (``workers.map_threads``).
It holds one private tape per block, rooted at a fresh leaf over the
block's rows, which the outer sweep does not see: the node's closure
keeps each private tape's root node, not the block's output, sweeps
each private tape (``_sweep``) on its own thread and hands the input
one gradient.

Also hosts the deterministic counter-based RNG helper, the named
parameter store, and the central-difference gradient checker used as the
independent oracle for every differentiable path in the package.
"""

from __future__ import annotations

import contextvars
import functools
import hashlib
import operator

import numpy as np
from scipy.special import erf as _erf

from .exceptions import ContractError, DimensionError, NumericError
from .workers import map_shares, map_threads, shares

_INV_SQRT_PI = 1.0 / np.sqrt(np.pi)
_INV_SQRT_2 = 1.0 / np.sqrt(2.0)

# per context, so each thread has its own grad mode
_grad_enabled = contextvars.ContextVar("tvadapt_grad_enabled", default=True)


class no_grad:
    """Context manager that disables tape recording inside its block.

    Grad mode is a context variable: a block only affects the thread (or
    context) that enters it, whatever order concurrent blocks exit in.
    """

    def __enter__(self):
        self._token = _grad_enabled.set(False)
        return self

    def __exit__(self, *exc):
        _grad_enabled.reset(self._token)
        return False


def recording():
    """Whether ops in the current context record on the tape (not under ``no_grad``)."""
    return _grad_enabled.get()


def rng_for(seed, *tags):
    """Counter-based generator derived from a seed and a tag path.

    Philox keyed by (seed, blake2(tags)) so every consumer gets an
    independent stream whose draws do not depend on call order elsewhere.
    """
    digest = hashlib.blake2b("/".join(str(t) for t in tags).encode(), digest_size=8)
    tag_key = int.from_bytes(digest.digest(), "little")
    key = ((int(seed) & 0xFFFFFFFFFFFFFFFF) << 64) | tag_key
    return np.random.Generator(np.random.Philox(key=key))


class Tensor:
    """A dense multi-axis f64 array with an optional gradient slot."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def node(self):
        """The tape node standing for this tensor: itself, for a leaf or a constant."""
        return self

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def item(self):
        return float(self.data)

    def _accumulate(self, g):
        if np.shape(g) != self.data.shape:
            raise ContractError(
                f"gradient of shape {np.shape(g)} for a tensor of shape {self.data.shape}"
            )
        if self.grad is None:
            # a fresh buffer; never alias ``g``
            self.grad = np.empty_like(self.data)
            self.grad[...] = g
        else:
            self.grad += g

    def _adopt(self, g):
        """Take ``g`` as the gradient buffer if it can be owned, else ``_accumulate`` it.

        ``g`` is adopted when there is no gradient yet and it is an owning,
        C-contiguous float64 array of this tensor's shape. The caller must
        have just made ``g`` and must never touch it again.
        """
        if (self.grad is None and isinstance(g, np.ndarray) and g.flags.owndata
                and g.flags.c_contiguous and g.dtype == np.float64
                and g.shape == self.data.shape):
            self.grad = g
        else:
            self._accumulate(g)

    # -- autodiff core --------------------------------------------------

    def backward(self):
        """Reverse sweep from a scalar output; consumes the graph.

        Accumulates into ``grad`` of every leaf on the path; repeated
        sweeps over separate graphs without ``zero_grad`` keep
        accumulating. Each interior node is released once its closure
        has run, so differentiating through it again raises.
        """
        if self.data.size != 1:
            raise ContractError(
                f"backward requires a scalar loss, got shape {self.data.shape}"
            )
        _sweep(self.node, np.ones_like(self.data))

    # -- operator sugar --------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)

    def __iter__(self):
        # without this, __getitem__ would make a Tensor unpack row by row
        raise TypeError(f"a Tensor of shape {self.shape} is not iterable; iterate over .data")


_NO_VALUE = np.full(1, np.nan)
_NO_VALUE.flags.writeable = False


@functools.lru_cache(maxsize=1024)
def _stand_in(shape):
    """A read-only, zero-strided array of ``shape`` over one NaN.

    Shared by every node of that shape, since nothing writes it; NaN, so
    that a closure that reads a value it did not keep shows it.
    """
    return np.ndarray(shape, np.float64, _NO_VALUE, 0, (0,) * len(shape))


class _Node(Tensor):
    """The tape node of a recorded op result: grad, parents and closure, no value.

    ``data`` is ``_stand_in(shape)``, so ``shape`` and ``data.nbytes`` read
    as the value's, and ``np.empty_like(data)``, the gradient buffer, is
    C-ordered whatever the value's layout.
    """

    __slots__ = ()

    def __init__(self, data, parents, backward_fn):
        self.data = _stand_in(data.shape)
        self.requires_grad = True
        self.grad = None
        self._parents = parents
        self._backward = backward_fn


def _on_node(name):
    """A property that reads and writes attribute ``name`` of the tensor's node."""
    return property(lambda self: getattr(self.node, name),
                    lambda self, value: setattr(self.node, name, value))


class _Result(Tensor):
    """A recorded op result: its value, and the node that stands for it on the tape.

    ``grad``, ``_parents`` and ``_backward`` are the node's.
    """

    __slots__ = ("node",)
    grad = _on_node("grad")
    _parents = _on_node("_parents")
    _backward = _on_node("_backward")

    def __init__(self, data, node):
        self.data = data
        self.requires_grad = True
        self.node = node


def _sweep(root, g):
    """Seed node ``root`` with the adjoint ``g``, then run its tape in reverse, consuming it."""
    if not root.requires_grad:
        return
    topo = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        if node._backward is _released:
            raise ContractError(
                "backward through a graph that an earlier backward already consumed"
            )
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    root._accumulate(g)
    # pop so that the sweep holds no reference to a node it has passed
    while topo:
        node = topo.pop()
        if node._backward is None:
            continue
        # the node hands its gradient buffer to its closure, which owns it
        g, node.grad = node.grad, None
        if g is not None:
            node._backward(g)
        node._parents = ()
        node._backward = _released


def _released(g):
    """Backward of an interior node whose graph was already consumed."""
    raise ContractError("backward through a released tape node")


def astensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, backward_fn):
    """Wrap an op result, recording the tape only when it can matter.

    A recorded result points at a new node whose parents are the nodes
    of the ``parents`` that take a gradient, in order. ``backward_fn``
    should hold those nodes (``_grad_node``) and the arrays it reads,
    not the parents themselves, so that it keeps no value it does not read.
    """
    nodes = _grad_enabled.get() and tuple([p.node for p in parents if p.requires_grad])
    if not nodes:
        return Tensor(data)
    data = np.asarray(data, dtype=np.float64)
    return _Result(data, _Node(data, nodes, backward_fn))


def _grad_node(t):
    """The node ``t``'s gradient goes to, or None if it takes none."""
    return t.node if t.requires_grad else None


def _cross(a, b):
    """(node of a, node of b, value of a, value of b) for a product's backward.

    A node is None where that factor takes no gradient; each factor's
    gradient reads the other's value, so a value is None where the other
    factor takes no gradient.
    """
    na, nb = _grad_node(a), _grad_node(b)
    return na, nb, (None if nb is None else a.data), (None if na is None else b.data)


def _unbroadcast(g, shape):
    """Sum adjoint ``g`` down to ``shape`` after numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, (gs, ts) in enumerate(zip(g.shape, shape)):
        if ts == 1 and gs != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


# -- arithmetic -------------------------------------------------------


def _broadcast(op, name, a, b):
    """``op`` of the values of a and b; DimensionError if their shapes do not broadcast."""
    try:
        return op(a.data, b.data)
    except ValueError:
        raise DimensionError(f"{name}: cannot broadcast {a.shape} with {b.shape}")


def add(a, b):
    a, b = astensor(a), astensor(b)
    data = _broadcast(operator.add, "add", a, b)
    na, nb = _grad_node(a), _grad_node(b)

    def _bw(g):
        if na is not None:
            na._accumulate(_unbroadcast(g, na.shape))
        if nb is not None:
            nb._accumulate(_unbroadcast(g, nb.shape))

    return _make(data, (a, b), _bw)


def sub(a, b):
    a, b = astensor(a), astensor(b)
    data = _broadcast(operator.sub, "sub", a, b)
    na, nb = _grad_node(a), _grad_node(b)

    def _bw(g):
        if na is not None:
            na._accumulate(_unbroadcast(g, na.shape))
        if nb is not None:
            nb._adopt(_unbroadcast(-g, nb.shape))

    return _make(data, (a, b), _bw)


def mul(a, b):
    a, b = astensor(a), astensor(b)
    data = _broadcast(operator.mul, "mul", a, b)
    na, nb, ad, bd = _cross(a, b)

    def _bw(g):
        if na is not None:
            na._adopt(_unbroadcast(g * bd, na.shape))
        if nb is not None:
            nb._adopt(_unbroadcast(g * ad, nb.shape))

    return _make(data, (a, b), _bw)


def div(a, b):
    a, b = astensor(a), astensor(b)
    data = _broadcast(operator.truediv, "div", a, b)
    na, nb, ad, _ = _cross(a, b)
    bd = b.data  # both gradients read it

    def _bw(g):
        if na is not None:
            na._adopt(_unbroadcast(g / bd, na.shape))
        if nb is not None:
            nb._adopt(_unbroadcast(-g * ad / (bd * bd), nb.shape))

    return _make(data, (a, b), _bw)


# -- transcendental -----------------------------------------------------


def exp(a):
    a = astensor(a)
    data = np.exp(a.data)
    na = a.node

    def _bw(g):
        na._adopt(g * data)

    return _make(data, (a,), _bw)


def log(a):
    a = astensor(a)
    na, ad = a.node, a.data

    def _bw(g):
        na._adopt(g / ad)

    return _make(np.log(ad), (a,), _bw)


def sqrt(a):
    a = astensor(a)
    data = np.sqrt(a.data)
    na = a.node

    def _bw(g):
        na._adopt(g * 0.5 / data)

    return _make(data, (a,), _bw)


# -- contraction and reduction ------------------------------------------


def _matmul_data(a, b):
    """Batched product of two Tensors' data; leading axes broadcast."""
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(
            f"matmul needs >=2-D operands, got {a.shape} and {b.shape}"
        )
    if a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(
            f"matmul: contracted axes differ for shapes {a.shape} and {b.shape}"
        )
    try:
        return np.matmul(a.data, b.data)
    except ValueError:
        raise DimensionError(
            f"matmul: batch axes do not broadcast for {a.shape} and {b.shape}"
        )


def _matmul_grads(g, na, nb, ad, bd):
    """Scatter the adjoint ``g`` of ``a @ b`` into ``na``, then ``nb`` (``_cross``)."""
    if na is not None:
        ga = np.matmul(g, np.swapaxes(bd, -1, -2))
        na._adopt(_unbroadcast(ga, na.shape))
    if nb is not None:
        gb = np.matmul(np.swapaxes(ad, -1, -2), g)
        nb._adopt(_unbroadcast(gb, nb.shape))


def matmul(a, b):
    """Batched matrix product; leading axes broadcast, last two contract."""
    a, b = astensor(a), astensor(b)
    data = _matmul_data(a, b)
    na, nb, ad, bd = _cross(a, b)

    def _bw(g):
        _matmul_grads(g, na, nb, ad, bd)

    return _make(data, (a, b), _bw)


def tsum(a, axis=None, keepdims=False):
    a = astensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)
    na = a.node

    def _bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        na._accumulate(np.broadcast_to(g, na.shape))

    return _make(data, (a,), _bw)


def mean(a, axis=None, keepdims=False):
    a = astensor(a)
    n = a.data.size if axis is None else np.prod(
        [a.data.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    )
    return tsum(a, axis=axis, keepdims=keepdims) * (1.0 / float(n))


def softmax(a, axis):
    """Stable softmax along ``axis``; rows sum to 1 within 1e-12."""
    a = astensor(a)
    if not np.isfinite(a.data).all():
        raise NumericError("softmax: input contains NaN or Inf")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)
    na = a.node

    def _bw(g):
        inner = (g * data).sum(axis=axis, keepdims=True)
        na._adopt(data * (g - inner))

    return _make(data, (a,), _bw)


def logsumexp(a, axis):
    """log-sum-exp with a detached max shift; gradient is the softmax."""
    a = astensor(a)
    m = a.data.max(axis=axis, keepdims=True)
    body = log(tsum(exp(a - Tensor(m)), axis=axis, keepdims=True)) + Tensor(m)
    return reshape(body, np.squeeze(body.data, axis=axis).shape)


# -- shape manipulation --------------------------------------------------


def reshape(a, shape):
    a = astensor(a)
    na = a.node

    def _bw(g):
        na._accumulate(g.reshape(na.shape))

    return _make(a.data.reshape(shape), (a,), _bw)


def swapaxes(a, ax1, ax2):
    a = astensor(a)
    na = a.node

    def _bw(g):
        na._accumulate(np.swapaxes(g, ax1, ax2))

    return _make(np.swapaxes(a.data, ax1, ax2), (a,), _bw)


def concat(parts, axis):
    parts = [astensor(p) for p in parts]
    data = np.concatenate([p.data for p in parts], axis=axis)
    ends = np.cumsum([p.data.shape[axis] for p in parts[:-1]])
    nodes = [_grad_node(p) for p in parts]

    def _bw(g):
        for node, gp in zip(nodes, np.split(g, ends, axis=axis)):
            if node is not None:
                node._accumulate(gp)

    return _make(data, tuple(parts), _bw)


def _is_basic_key(key):
    """True for keys numpy treats as basic indexing (a view, no repeats)."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(
        k is None or k is Ellipsis or isinstance(k, slice)
        or (isinstance(k, (int, np.integer)) and not isinstance(k, bool))
        for k in parts
    )


def getitem(a, key):
    """Basic or integer-array indexing; adjoints scatter-add back."""
    a = astensor(a)
    data = a.data[key]
    basic = _is_basic_key(key)
    na = a.node

    def _bw(g):
        ga = np.zeros(na.shape)
        if basic:
            ga[key] += g  # a basic key hits each element at most once
        else:
            np.add.at(ga, key, g)
        na._adopt(ga)

    return _make(data, (a,), _bw)


# -- small composites ----------------------------------------------------


def l2_normalize(a, axis=-1):
    a = astensor(a)
    norm = sqrt(tsum(a * a, axis=axis, keepdims=True))
    return a / norm


# -- fused block ops -------------------------------------------------------
# One tape node each, bitwise equal to the composite of the ops above it
# replaces: forward repeats the composite's elementwise steps in place,
# backward its per-element arithmetic and the order in which each input's
# gradient sums its contributions; parents are listed so that
# ``backward`` visits them in the composite's order.


def linear(x, w, b):
    """``x @ w + b`` with the bias added in place on the product."""
    x, w, b = astensor(x), astensor(w), astensor(b)
    data = _matmul_data(x, w)
    try:
        data += b.data
    except ValueError:
        raise DimensionError(f"linear: bias {b.shape} does not broadcast to {data.shape}")
    nx, nw, xd, wd = _cross(x, w)
    nb = _grad_node(b)

    def _bw(g):
        if nb is not None:
            nb._accumulate(_unbroadcast(g, nb.shape))
        _matmul_grads(g, nx, nw, xd, wd)

    return _make(data, (x, w, b), _bw)


def gelu(x):
    """Exact Gaussian-error GELU 0.5 x (erf(x / sqrt 2) + 1).

    Smooth, so central differences apply. Keeps erf(x / sqrt 2) + 1 for
    backward and recomputes 0.5 x and x / sqrt 2 from the input.
    """
    x = astensor(x)
    s = x.data * _INV_SQRT_2
    _erf(s, out=s)
    s += 1.0
    data = 0.5 * x.data
    data *= s
    nx, xd = x.node, x.data

    def _bw(g):
        # the composite's two paths to x: ga (through 0.5 x) reaches x before
        # gb (through erf). gb reads g first; then ga is written into g, which
        # this node owns, and e into s, which ga was the last to read
        gb = np.multiply(xd, 0.5)
        gb *= g
        gb *= 2.0
        gb *= _INV_SQRT_PI
        ga = np.multiply(g, s, out=g)
        ga *= 0.5
        nx._adopt(ga)
        e = np.multiply(xd, _INV_SQRT_2, out=s)
        e *= e
        np.negative(e, out=e)
        np.exp(e, out=e)
        gb *= e
        gb *= _INV_SQRT_2
        nx._adopt(gb)

    return _make(data, (x,), _bw)


def layer_norm(x, gain, bias, eps=1e-5):
    """gain * (x - mean) / sqrt(var + eps) + bias over the last axis.

    Keeps the per-row mean and standard deviation for backward and
    recomputes the centred input from ``x``.
    """
    x, gain, bias = astensor(x), astensor(gain), astensor(bias)
    inv_n = 1.0 / float(x.data.shape[-1])
    mu = x.data.sum(axis=-1, keepdims=True)
    mu *= inv_n
    data = x.data - mu
    sd = (data * data).sum(axis=-1, keepdims=True)
    sd *= inv_n
    sd += eps
    np.sqrt(sd, out=sd)
    data /= sd
    try:
        data *= gain.data
        data += bias.data
    except ValueError:
        raise DimensionError(f"layer_norm: gain {gain.shape} or bias {bias.shape} "
                             f"does not broadcast to {data.shape}")
    ng, nx, nbias = _grad_node(gain), _grad_node(x), _grad_node(bias)
    # the centred input serves both the gain's and x's gradient; x's reads the gain
    xd = None if ng is None and nx is None else x.data
    gd = None if nx is None else gain.data

    def _bw(g):
        if nbias is not None:
            nbias._accumulate(_unbroadcast(g, nbias.shape))
        if xd is None:
            return
        c = xd - mu
        if ng is not None:
            ng._adopt(_unbroadcast(g * (c / sd), ng.shape))
        if nx is None:
            return
        gn = g * gd
        # variance path, down to the adjoint of the row sum of c * c
        gs = -gn
        gs *= c
        gs /= sd * sd
        gs = _unbroadcast(gs, sd.shape)
        gs *= 0.5
        gs /= sd
        gs *= inv_n
        t = gs * c
        # centred path: gn / sd, then both factors of c * c, in c's buffer
        gc = np.divide(gn, sd, out=c)
        gc += t
        gc += t
        # mean path, summed from a negated copy in t's buffer: gc is adopted,
        # and summing first then negating would flip signed zeros
        gm = _unbroadcast(np.negative(gc, out=t), mu.shape)
        gm *= inv_n
        # a held gradient r must become (r + gc) + gm
        nx._adopt(gc)
        nx._accumulate(np.broadcast_to(gm, nx.shape))

    return _make(data, (gain, x, bias), _bw)


# -- row blocks ----------------------------------------------------------


def row_blocks(fn, x, parts):
    """``fn(x)``, with x's leading axis cut into ``parts`` contiguous blocks.

    Each block gets a fresh leaf that shares its rows' data, and ``fn``
    runs on it with a private tape: the caller runs block 0, one helper
    thread each further block (``workers.map_threads``). The outputs are
    concatenated into one node, which keeps the private roots' nodes and
    not their values; its backward sweeps each private tape on its own
    thread and writes the blocks' input gradients into one buffer by
    slice. ``fn`` must act on each leading row alone and hold no leaf
    that requires grad; then the output and x's gradient are bitwise
    those of ``fn(x)``. With ``parts`` == 1, returns ``fn(x)``.
    """
    x = astensor(x)
    if parts == 1:
        return fn(x)
    rows = len(x.data) if x.ndim else 0
    if not 1 < parts <= rows:
        raise ContractError(f"row_blocks: cannot cut {rows} rows into {parts} blocks")
    bounds = shares(rows, parts)
    leaves = [Tensor(x.data[rs], requires_grad=x.requires_grad) for rs in bounds]
    outs = map_threads(fn, leaves)
    data = np.concatenate([out.data for out in outs])
    ends = np.cumsum([len(out.data) for out in outs[:-1]])
    roots, nx = [out.node for out in outs], x.node

    def _bw(g):
        map_threads(lambda pair: _sweep(*pair), list(zip(roots, np.split(g, ends))))
        # slice assignment, not a sum into zeros, which would turn -0.0 into +0.0
        gx = np.empty_like(nx.data)
        for rs, leaf in zip(bounds, leaves):
            gx[rs] = 0.0 if leaf.grad is None else leaf.grad
        nx._adopt(gx)

    return _make(data, (x,), _bw)


# -- parameter store -----------------------------------------------------


class ParamStore:
    """Named map of parameters; ``add(frozen=...)`` sets each tensor's ``requires_grad``.

    Names are unique; all iteration is in lexicographic order so that
    optimizer sweeps and serialization are deterministic.
    """

    def __init__(self):
        self._params = {}

    def add(self, name, tensor, frozen=False):
        if name in self._params:
            raise ContractError(f"duplicate parameter name {name!r}")
        tensor.requires_grad = not frozen
        self._params[name] = tensor
        return tensor

    def __getitem__(self, name):
        return self._params[name]

    def __contains__(self, name):
        return name in self._params

    def __len__(self):
        return len(self._params)

    def names(self):
        return sorted(self._params)

    def items(self):
        for name in self.names():
            yield name, self._params[name]

    def trainable_items(self):
        for name, t in self.items():
            if t.requires_grad:
                yield name, t

    @property
    def trainable_count(self):
        return sum(1 for _, t in self.items() if t.requires_grad)

    def num_elements(self, trainable=None, prefix=""):
        total = 0
        for name, t in self.items():
            if not name.startswith(prefix):
                continue
            if trainable is None or t.requires_grad == trainable:
                total += t.data.size
        return total

    def zero_grad(self):
        for _, t in self.items():
            t.grad = None

    def hash_bytes(self, prefix=""):
        """Content hash of all entries under ``prefix`` (order-stable)."""
        h = hashlib.blake2b(digest_size=16)
        for name, t in self.items():
            if name.startswith(prefix):
                h.update(name.encode())
                h.update(np.ascontiguousarray(t.data).tobytes())
        return h.hexdigest()


def fd_check(fn, store, eps=1e-5):
    """Max relative error between analytic and central-difference grads.

    ``fn`` maps the store to a scalar Tensor and must be deterministic:
    it is evaluated twice at the base point and any disagreement raises.
    Central differences perturb each trainable coordinate by +/- eps.
    Only the analytic pass records a tape. The perturbed evaluations run
    in slices of coordinates on every usable core (``workers.map_shares``);
    the differences and their maximum are then taken in coordinate order,
    so the result is bitwise that of one serial loop.
    """
    if not (0.0 < eps <= 1e-3):
        raise ContractError(f"fd_check: eps must lie in (0, 1e-3], got {eps}")
    with no_grad():
        base = fn(store)
        repeat = fn(store)
    if base.data != repeat.data:
        raise ContractError("fd_check: fn is not deterministic across evaluations")

    store.zero_grad()
    loss = fn(store)
    loss.backward()
    coords = [(t, i) for _, t in store.trainable_items() for i in range(t.data.size)]

    def perturbed(share):
        """(f+, f-) for each coordinate in ``share``."""
        values = np.empty((share.stop - share.start, 2))
        for row, (t, i) in enumerate(coords[share]):
            flat = t.data.reshape(-1)
            orig = flat[i]
            flat[i] = orig + eps
            values[row, 0] = float(fn(store).data)
            flat[i] = orig - eps
            values[row, 1] = float(fn(store).data)
            flat[i] = orig
        return values

    with no_grad():
        values = np.concatenate(map_shares(perturbed, len(coords)))
    worst = 0.0
    for (t, i), (f_plus, f_minus) in zip(coords, values.tolist()):
        analytic = 0.0 if t.grad is None else t.grad.reshape(-1)[i]
        cd = (f_plus - f_minus) / (2.0 * eps)
        denom = max(abs(analytic), abs(cd), 1e-8)
        worst = max(worst, abs(analytic - cd) / denom)
    store.zero_grad()
    return worst
