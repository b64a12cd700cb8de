"""Gradient buffers have one owner, and a taped backward peaks at about its graph.

A closure hands ``Tensor._adopt`` a fresh array it never touches again,
and the receiving node takes it as its gradient buffer; every node's
buffer is then its own, so ``gelu``'s closure writes into the adjoint it
is handed. The instrument here marks each adopted buffer read-only until
its owner next writes it, through its own ``_accumulate`` or as the
adjoint its closure receives, so a producer that writes after handing
over raises; and after every gradient write it checks that no two live
gradient buffers share memory.
"""

import os
import threading
import tracemalloc

import numpy as np
import pytest

from test_tensor import _node_ops

from tvadapt import attention, backbone
from tvadapt import tensor as T
from tvadapt.config import toy_config
from tvadapt.data import generate_dataset
from tvadapt.model import AdapterModel
from tvadapt.tensor import ParamStore, Tensor, rng_for

# the train_wide_noasa benchmark config, one step of it
WIDE = toy_config(layers=4, dim_v=64, frame_h=12, frame_w=12, patch=4, frames=8, dim_t=48,
                  pairs=16, batch_size=16, asa=False, seed=3)


def _use_cores(monkeypatch, cores):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))


class _Ownership:
    """Instruments ``_adopt``, ``_accumulate`` and every recorded closure."""

    def __init__(self, monkeypatch):
        self.owners = {}  # id -> every tensor that has taken a gradient write
        self.adopted = 0
        self.owner_writes = 0  # closures handed an adopted buffer as their adjoint
        self._lock = threading.Lock()  # split blocks write from two threads
        adopt, accumulate, make = T.Tensor._adopt, T.Tensor._accumulate, T._make

        def adopting(tensor, g):
            adopt(tensor, g)
            if tensor.grad is g:
                g.flags.writeable = False
                with self._lock:
                    self.adopted += 1
                self._check(tensor)

        def accumulating(tensor, g):
            if tensor.grad is not None:
                tensor.grad.flags.writeable = True  # its owner writes it
            accumulate(tensor, g)
            self._check(tensor)

        def making(data, parents, backward_fn):
            def owned(g):
                with self._lock:
                    self.owner_writes += not g.flags.writeable
                g.flags.writeable = True  # the closure owns its adjoint
                backward_fn(g)

            return make(data, parents, owned)

        monkeypatch.setattr(T.Tensor, "_adopt", adopting)
        monkeypatch.setattr(T.Tensor, "_accumulate", accumulating)
        monkeypatch.setattr(T, "_make", making)

    def _check(self, tensor):
        with self._lock:
            self.owners[id(tensor)] = tensor
            others = list(self.owners.values())
        for other in others:
            grad = other.grad
            assert other is tensor or grad is None or not np.shares_memory(grad, tensor.grad)


def _model(cfg):
    """A model off its identity init, so that every gradient path carries signal."""
    model = AdapterModel(cfg)
    for name, t in model.store.trainable_items():
        t.data += rng_for(cfg.seed, "ownership", name).normal(size=t.shape) * 0.05
    return model


def _batch(model, cfg):
    """(videos, tokens, frozen prefix) of the config's pairs, the prefix computed on one core."""
    data = generate_dataset(cfg.effective_data_seed, cfg.pairs, cfg)
    with pytest.MonkeyPatch.context() as mp:
        _use_cores(mp, 1)
        return data.videos, data.tokens, model.frozen_prefix(data.videos, data.tokens)


def _taped_loss(model, batch):
    """The taped loss of one full-batch training step."""
    videos, tokens, prefix = batch
    model.store.zero_grad()
    return model.batch_loss(videos, tokens, sel_key=("train", 0), prefix=prefix)


def _assert_owned(model, cfg, monkeypatch):
    batch = _batch(model, cfg)
    owners = _Ownership(monkeypatch)  # before the forward, which records the closures
    _taped_loss(model, batch).backward()
    assert owners.adopted > 0 and owners.owner_writes > 0
    grads = [t.grad for _, t in model.store.trainable_items() if t.grad is not None]
    assert len(grads) > 0
    for i, a in enumerate(grads):
        assert a.flags.c_contiguous
        assert not any(np.shares_memory(a, b) for b in grads[i + 1:])


def test_toy_asa_step_gradient_buffers_have_one_owner(monkeypatch):
    cfg = toy_config(pairs=16, batch_size=16, seed=3)
    _assert_owned(_model(cfg), cfg, monkeypatch)


def test_split_wide_step_gradient_buffers_have_one_owner(monkeypatch):
    # every taped block splits by rows over two threads (tensor.row_blocks)
    monkeypatch.setattr(backbone, "_SPLIT_MIN", 1)
    _use_cores(monkeypatch, 2)
    _assert_owned(_model(WIDE), WIDE, monkeypatch)


def _warp(f, gamma, delta):
    store = ParamStore()
    offsets = attention.OffsetParams(store, 4, 3)
    offsets.gamma, offsets.delta = gamma, delta
    return attention.warp(f, offsets, np.arange(12).reshape(3, 4) % 3 > 0)


# each op on leaves of its own, so that every leaf's first gradient is
# the op's own handover and each adopting site runs
OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
    "exp": lambda a: T.exp(a * 0.1),
    "log": lambda a: T.log(a),
    "sqrt": lambda a: T.sqrt(a),
    "matmul": lambda a, b: T.matmul(a, T.swapaxes(b, 0, 1)),
    "tsum": lambda a: T.tsum(a, axis=1),
    "softmax": lambda a: T.softmax(a, axis=-1),
    "reshape": lambda a: T.reshape(a, (4, 3)),
    "swapaxes": lambda a: T.swapaxes(a, 0, 1),
    "concat": lambda a, b: T.concat([a, b], axis=0),
    "getitem": lambda a: a[[0, 2, 2]],
    "gelu": lambda a: T.gelu(a),
    "linear": lambda a, w, v: T.linear(a, w, v),
    "layer_norm": lambda a, w, v: T.layer_norm(a, w[0], v),
    "row_blocks": lambda a: T.row_blocks(lambda rows: T.gelu(rows) * rows, a, 2),
    "warp": lambda a, w, v: _warp(T.reshape(a, (3, 4, 1)), T.reshape(w[0], (4, 1)) * 0.3,
                                  T.reshape(v[:3], (3, 1)) * 0.3),
}
SHAPES = {"a": (3, 4), "b": (3, 4), "w": (4, 4), "v": (4,)}


def test_every_op_covered():
    assert set(OPS) - {"warp"} == _node_ops()


@pytest.mark.parametrize("name", sorted(OPS))
def test_each_op_hands_its_gradients_to_one_owner(name, monkeypatch):
    owners = _Ownership(monkeypatch)
    op = OPS[name]
    rng = rng_for(4, "ownership", name)
    leaves = [Tensor(rng.normal(size=SHAPES[arg]) + 3.0, requires_grad=True)
              for arg in op.__code__.co_varnames[:op.__code__.co_argcount]]
    out = op(*leaves)
    T.tsum(out * Tensor(rng.normal(size=out.shape))).backward()
    assert owners.adopted > 0
    for i, leaf in enumerate(leaves):
        assert leaf.grad is not None and leaf.grad.flags.c_contiguous
        assert not any(np.shares_memory(leaf.grad, other.grad) for other in leaves[i + 1:])


def test_a_producer_that_writes_after_handing_over_raises(monkeypatch):
    _Ownership(monkeypatch)
    x = Tensor(np.ones(3), requires_grad=True)

    def _bw(g):
        gx = g * 2.0
        x.node._adopt(gx)
        gx += 1.0  # x owns gx now

    with pytest.raises(ValueError, match="read-only"):
        T.tsum(T._make(x.data * 2.0, (x,), _bw)).backward()


def test_one_buffer_handed_to_two_tensors_is_caught(monkeypatch):
    _Ownership(monkeypatch)
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)

    def _bw(g):
        gx = g * 2.0
        a.node._adopt(gx)
        b.node._adopt(gx)

    out = T._make(a.data + b.data, (a, b), _bw)
    with pytest.raises(AssertionError):
        T.tsum(out).backward()


def test_taped_wide_backward_peaks_within_a_tenth_of_its_graph(monkeypatch):
    # one core, so no block splits and the peak does not depend on thread timing
    _use_cores(monkeypatch, 1)
    model = AdapterModel(WIDE)
    batch = _batch(model, WIDE)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = _taped_loss(model, batch)
        graph = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert graph > 10e6  # a 24 MB tape on x86_64
    assert peak <= 1.10 * graph, (peak, graph)
