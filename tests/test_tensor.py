"""Engine tests: forward oracles, broadcast rules, and gradient checks."""

import ast
import inspect
import os
import pathlib
import threading

import numpy as np
import pytest
from scipy import special

from tvadapt import tensor as T
from tvadapt.backbone import init_backbone, vanilla_attention, vit_block
from tvadapt.config import toy_config
from tvadapt.exceptions import ContractError, DimensionError, NumericError
from tvadapt.tensor import ParamStore, Tensor, fd_check, no_grad, rng_for


def test_matmul_identity():
    m = Tensor(np.arange(9.0).reshape(3, 3))
    out = T.matmul(Tensor(np.eye(3)), m)
    np.testing.assert_array_equal(out.data, m.data)


def test_matmul_hand_oracle():
    out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    np.testing.assert_array_equal(out.data, [[3.0], [7.0]])


def test_matmul_empty_contraction():
    out = T.matmul(Tensor(np.zeros((2, 0))), Tensor(np.zeros((0, 3))))
    np.testing.assert_array_equal(out.data, np.zeros((2, 3)))


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError) as err:
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)


def test_matmul_batched_broadcast_grad():
    rng = rng_for(0, "mmb")
    a = Tensor(rng.normal(size=(3, 1, 2, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(5, 4, 3)), requires_grad=True)
    out = T.matmul(a, b)
    assert out.shape == (3, 5, 2, 3)
    T.tsum(out * out).backward()
    assert a.grad.shape == a.shape and b.grad.shape == b.shape


def test_softmax_uniform():
    out = T.softmax(Tensor([0.0, 0.0, 0.0]), axis=0)
    np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)


def test_softmax_stability():
    out = T.softmax(Tensor([1000.0, 0.0]), axis=0)
    assert np.isfinite(out.data).all()
    np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)


def test_softmax_closed_form():
    out = T.softmax(Tensor(np.log([1.0, 2.0, 3.0])), axis=0)
    np.testing.assert_allclose(out.data, [1 / 6, 2 / 6, 3 / 6], atol=1e-15)


def test_softmax_rejects_nonfinite():
    with pytest.raises(NumericError):
        T.softmax(Tensor([np.nan, 0.0]), axis=0)


def test_softmax_rows_sum_to_one_and_permutation_equivariant():
    rng = rng_for(1, "smx")
    for _ in range(25):
        x = rng.normal(size=(4, 7)) * rng.uniform(0.1, 50)
        s = T.softmax(Tensor(x), axis=1).data
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)
        perm = rng.permutation(7)
        sp = T.softmax(Tensor(x[:, perm]), axis=1).data
        np.testing.assert_allclose(sp, s[:, perm], atol=1e-15)


def test_elementwise_mul_identity_and_broadcast_shapes():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    np.testing.assert_array_equal(T.mul(Tensor(np.ones((2, 3))), x).data, x.data)
    out = T.add(Tensor(np.zeros((3, 1, 4))), Tensor(np.zeros((1, 5, 4))))
    assert out.shape == (3, 5, 4)


def test_elementwise_scalar_broadcast_oracle():
    out = T.mul(Tensor([[2.0]]), Tensor([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_array_equal(out.data, [[2.0, 4.0], [6.0, 8.0]])


def test_elementwise_rejects_non_broadcastable():
    with pytest.raises(DimensionError):
        T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))


def test_broadcast_reduce_matches_materialized_loop():
    # broadcast-mul then full reduction vs an explicit index loop
    rng = rng_for(2, "bcast")
    for _ in range(40):
        nd = int(rng.integers(1, 5))
        shape_a, shape_b = [], []
        for _ in range(nd):
            n = int(rng.integers(1, 5))
            ka, kb = n, n
            pick = rng.integers(0, 3)
            if pick == 0:
                ka = 1
            elif pick == 1:
                kb = 1
            shape_a.append(ka)
            shape_b.append(kb)
        a = rng.normal(size=shape_a)
        b = rng.normal(size=shape_b)
        got = T.tsum(T.mul(Tensor(a), Tensor(b))).data
        full = np.broadcast_shapes(tuple(shape_a), tuple(shape_b))
        want = 0.0
        for idx in np.ndindex(full):
            ia = tuple(0 if sa == 1 else i for i, sa in zip(idx, shape_a))
            ib = tuple(0 if sb == 1 else i for i, sb in zip(idx, shape_b))
            want += a[ia] * b[ib]
        np.testing.assert_allclose(got, want, rtol=1e-12)


def test_backward_linear_and_quadratic():
    p = Tensor(np.ones(4), requires_grad=True)
    T.tsum(p).backward()
    np.testing.assert_array_equal(p.grad, np.ones(4))

    q = Tensor([1.0, 2.0], requires_grad=True)
    T.tsum(q * q).backward()
    np.testing.assert_array_equal(q.grad, [2.0, 4.0])


def test_backward_accumulates_without_reset():
    p = Tensor([3.0], requires_grad=True)
    T.tsum(p * p).backward()
    T.tsum(p * p).backward()
    np.testing.assert_array_equal(p.grad, [12.0])


def test_backward_rejects_nonscalar():
    p = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ContractError):
        (p * p).backward()


def test_frozen_tensor_never_gets_grad():
    store = ParamStore()
    w = store.add("frozen/w", Tensor(np.ones(3)), frozen=True)
    p = store.add("adapter/p", Tensor(np.ones(3)))
    T.tsum(w * p).backward()
    assert w.grad is None
    np.testing.assert_array_equal(p.grad, np.ones(3))


ONE_INPUT_OPS = {
    "exp": T.exp,
    "log": T.log,
    "sqrt": T.sqrt,
    "tsum": lambda a: T.tsum(a, axis=1),
    "softmax": lambda a: T.softmax(a, axis=-1),
    "reshape": lambda a: T.reshape(a, (4, 3)),
    "swapaxes": lambda a: T.swapaxes(a, 0, 1),
    "broadcast_to": lambda a: T.broadcast_to(a, (2, 3, 4)),
    "getitem": lambda a: a[[0, 2, 2]],
    "gelu": T.gelu,
    "row_blocks": lambda a: T.row_blocks(lambda rows: T.softmax(rows, axis=-1) * rows, a, 2),
}


def test_one_input_op_list_is_complete():
    multi_input = {"add", "sub", "mul", "div", "matmul", "concat", "linear", "layer_norm"}
    assert set(ONE_INPUT_OPS) == _node_ops() - multi_input


@pytest.mark.parametrize("op", sorted(ONE_INPUT_OPS))
def test_one_input_op_on_a_frozen_input_records_no_node(op):
    # the contract that lets one-input closures accumulate unchecked
    a = Tensor(rng_for(0, "frozen", op).uniform(0.5, 2.0, size=(3, 4)))
    assert T.recording()
    out = ONE_INPUT_OPS[op](a)
    assert not out.requires_grad
    assert out._parents == () and out._backward is None


@pytest.mark.parametrize("keepdims", [False, True], ids=["drop", "keep"])
@pytest.mark.parametrize("axis", [None, 0, -1, (0, 2), (-1, -2)], ids=str)
def test_tsum_gradient_matches_central_differences(axis, keepdims):
    store = ParamStore()
    store.add("a", Tensor(rng_for(1, "tsum").normal(size=(2, 3, 4))))

    def cube_of_sum(st):
        s = T.tsum(st["a"], axis=axis, keepdims=keepdims)
        return T.tsum(s * s * s)

    assert fd_check(cube_of_sum, store) < 1e-6


def test_no_grad_context_suppresses_tape():
    p = Tensor([2.0], requires_grad=True)
    with T.no_grad():
        out = T.tsum(p * p)
    assert not out.requires_grad
    assert out._parents == ()


def test_fd_check_linear_exact():
    store = ParamStore()
    store.add("p", Tensor(np.array([1.0, -2.0, 0.5])))
    err = fd_check(lambda s: T.tsum(s["p"]), store, eps=1e-5)
    assert err < 1e-10


def test_fd_check_cubic():
    store = ParamStore()
    store.add("p", Tensor(np.array([1.0])))
    err = fd_check(lambda s: T.tsum(s["p"] * s["p"] * s["p"]), store, eps=1e-5)
    assert err < 1e-8


def test_fd_check_rejects_nondeterministic_fn():
    store = ParamStore()
    store.add("p", Tensor(np.array([1.0])))
    state = {"n": 0}

    def fn(s):
        state["n"] += 1
        return T.tsum(s["p"]) * float(state["n"])

    with pytest.raises(ContractError):
        fd_check(fn, store, eps=1e-5)


def test_fd_check_rejects_bad_eps():
    store = ParamStore()
    store.add("p", Tensor(np.array([1.0])))
    with pytest.raises(ContractError):
        fd_check(lambda s: T.tsum(s["p"]), store, eps=1e-2)


def test_fd_check_on_every_core_is_bitwise_the_serial_loop(monkeypatch):
    # the perturbed evaluations run in shares of coordinates, in the caller
    # and in forked workers; the worst error must be the serial loop's bits
    rng = rng_for(5, "fd-shares")
    store = ParamStore()
    store.add("a", Tensor(rng.normal(size=(4, 5))))
    store.add("b", Tensor(rng.normal(size=(5, 3))))
    before = {name: t.data.copy() for name, t in store.items()}

    def fn(s):
        h = T.softmax(T.matmul(s["a"], s["b"]), axis=1)
        return T.tsum(h * T.exp(T.matmul(s["a"], s["b"]) * 0.5))

    fork, forks = os.fork, []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    worst = {}
    for cores in ({0}, {0, 1, 2}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cores=cores: cores)
        worst[len(cores)] = np.float64(fd_check(fn, store, eps=1e-5))
    assert len(forks) == 2  # two workers on three cores, none on one
    assert 0.0 < worst[1] < 1e-4
    assert worst[3].view(np.uint64) == worst[1].view(np.uint64)
    for name, t in store.items():  # the caller's own share restores each coordinate
        assert (t.data == before[name]).all()


def _node_ops():
    """Every function in ``tensor.py`` that builds a tape node through ``_make``."""
    return {
        name for name, fn in vars(T).items()
        if inspect.isfunction(fn) and fn.__module__ == T.__name__
        and "_make" in fn.__code__.co_names
    }


def test_registered_ops_match_central_differences(monkeypatch):
    # every node-building op exercised at random points, 1e-4 relative,
    # the fused block ops with every input trainable (the model only
    # reaches them with frozen weights)
    made = set()
    make = T._make

    def recording_make(data, parents, backward_fn):
        made.add(backward_fn.__qualname__.partition(".")[0])
        return make(data, parents, backward_fn)

    monkeypatch.setattr(T, "_make", recording_make)
    rng = rng_for(3, "ops")

    def build(s):
        a, b, c = s["a"], s["b"], s["c"]
        h = T.matmul(a, b)
        row = T.broadcast_to(T.swapaxes(h, 0, 1)[:, 1], (3, 4))  # row 1 of h, repeated
        h = T.softmax(h, axis=1) + row / (c * c + 1.0) - h * 0.3
        h = T.linear(h, s["w"], s["wb"])
        h = T.gelu(h) + T.exp(c * 0.1) - T.log(c * c + 1.5)
        h = T.layer_norm(h, s["gain"], s["bias"])
        h = T.row_blocks(lambda rows: T.gelu(rows) * rows, h, 2)  # blocks of 1 and 2 rows
        h = T.concat([h, h * c], axis=0)
        h = T.l2_normalize(h, axis=-1)
        return T.tsum(h * h * h) + T.logsumexp(T.reshape(h, (-1,)), axis=0)

    worst = 0.0
    for trial in range(10):
        store = ParamStore()
        store.add("a", Tensor(rng.normal(size=(3, 5))))
        store.add("b", Tensor(rng.normal(size=(5, 4))))
        store.add("c", Tensor(rng.normal(size=(3, 4)) + 3.0))
        store.add("w", Tensor(rng.normal(size=(4, 4)) * 0.5))
        store.add("wb", Tensor(rng.normal(size=4)))
        store.add("gain", Tensor(rng.normal(size=4) + 1.0))
        store.add("bias", Tensor(rng.normal(size=4)))
        worst = max(worst, fd_check(build, store, eps=1e-5))
    assert worst < 1e-4
    assert made == _node_ops()


def _tensor_calls(tree, local):
    """(name, calling function) for each call of a ``tensor.py`` function.

    Inside ``tensor.py`` (``local``) its functions are called by bare name;
    elsewhere as ``T.name`` or by a name imported from ``.tensor``.
    """
    bare = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "tensor" and node.level == 1:
            bare |= {alias.asname or alias.name for alias in node.names}
    calls = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name)
                continue
            func = getattr(child, "func", None) if isinstance(child, ast.Call) else None
            if isinstance(func, ast.Name) and (local or func.id in bare):
                calls.add((func.id, owner))
            elif isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "T":
                calls.add((func.attr, owner))
            visit(child, owner)

    visit(tree, None)
    return calls


def test_every_node_op_has_a_caller_in_the_package():
    # an op that loses its last caller in src/ is dead code and must go,
    # together with its coverage entry
    calls = set()
    for path in pathlib.Path(T.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls |= _tensor_calls(tree, local=path.name == "tensor.py")
    uncalled = {op for op in _node_ops() if not any(n == op and o != op for n, o in calls)}
    assert uncalled == set()


def test_getitem_fancy_grad_scatter():
    p = Tensor(np.zeros((3, 3)), requires_grad=True)
    rows = np.array([0, 1, 1])
    cols = np.array([2, 0, 0])
    T.tsum(p[rows, cols]).backward()
    want = np.zeros((3, 3))
    want[0, 2] = 1.0
    want[1, 0] = 2.0  # repeated index accumulates
    np.testing.assert_array_equal(p.grad, want)


def test_backward_releases_interior_nodes():
    p = Tensor([1.0, 2.0], requires_grad=True)
    h = p * p
    loss = T.tsum(h)
    loss.backward()
    for node in (h, loss):
        assert node.grad is None and node._parents == ()
    np.testing.assert_array_equal(p.grad, [2.0, 4.0])


def test_backward_twice_through_released_graph_raises():
    p = Tensor([3.0], requires_grad=True)
    h = p * p
    loss = T.tsum(h)
    loss.backward()
    with pytest.raises(ContractError):
        loss.backward()
    with pytest.raises(ContractError):
        T.tsum(h * p).backward()  # a new graph reusing a consumed node
    np.testing.assert_array_equal(p.grad, [6.0])


def test_first_gradient_does_not_alias_shared_adjoint():
    # add hands one adjoint array to both leaves; a later graph over ``a``
    # alone must not write through into ``b.grad``
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0, 4.0], requires_grad=True)
    T.tsum(a + b).backward()
    assert not np.shares_memory(a.grad, b.grad)
    T.tsum(a * 5.0).backward()
    np.testing.assert_array_equal(a.grad, [6.0, 6.0])
    np.testing.assert_array_equal(b.grad, [1.0, 1.0])


@pytest.mark.parametrize("view", [
    lambda a: a,
    lambda a: a.T,
    lambda a: np.swapaxes(a, -3, -2),
    lambda a: a[:, ::2, 1:],
    lambda a: a[::-1].transpose(2, 0, 1),
    lambda a: a[:, :1].transpose(1, 2, 0),
    lambda a: np.swapaxes(a[None], 0, 2),
], ids=["c", "f", "swap", "stepped", "reversed", "unit-axis", "new-axis"])
def test_a_node_keeps_its_value_shape_and_a_c_ordered_gradient(view):
    # a node keeps no value and no layout: whatever the value's strides, its
    # gradient is a fresh C-ordered buffer holding the adjoint bit for bit
    p = Tensor(np.zeros((3, 4, 5)), requires_grad=True)
    value = view(p.data)
    node = T._make(value, (p,), lambda g: None).node
    assert node.data.shape == value.shape and node.data.nbytes == value.nbytes
    g = np.empty_like(value)
    g[...] = _signed_adjoint(value.shape, 11)
    node._accumulate(g)
    assert node.grad.flags.c_contiguous and not np.shares_memory(node.grad, g)
    assert _bits(node.grad).tobytes() == _bits(g).tobytes()


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)
def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def _signed_adjoint(shape, seed):
    # mixed signs with signed zeros, so a sum that drops the sign of zero shows
    g = rng_for(seed, "adjoint").normal(size=shape)
    g[..., ::3] *= 0.0
    return g


def test_getitem_grad_bitwise_matches_add_at_oracle():
    x = rng_for(4, "gi").normal(size=(4, 5, 3))
    keys = [
        (slice(None), -1, slice(None)),
        (slice(None), slice(-1, None), slice(None)),
        (Ellipsis, 0),
        (1, None, slice(1, 4)),
        2,
        (np.array([0, 3, 0, 3]), np.array([1, 1, 1, 4])),  # advanced, repeats
        np.array([3, 3, 0]),
    ]
    for n, key in enumerate(keys):
        p = Tensor(x, requires_grad=True)
        out = p[key]
        g = _signed_adjoint(out.shape, n)
        T.tsum(out * Tensor(g)).backward()
        # the product's adjoint is g itself (times 1.0); add.at onto zeros
        want = np.zeros_like(x)
        np.add.at(want, key, g * 1.0)
        np.testing.assert_array_equal(_bits(p.grad), _bits(want))


# -- fused block ops against the tape composites they replace ---------------


def _erf_node(a):
    """The erf tape node the composite GELU was built on."""
    def _bw(g):
        if a.requires_grad:
            a._accumulate(g * 2.0 * (1.0 / np.sqrt(np.pi)) * np.exp(-a.data * a.data))

    return T._make(special.erf(a.data), (a,), _bw)


def _linear_composite(x, w, b):
    return T.matmul(x, w) + b


def _gelu_composite(x):
    return 0.5 * x * (_erf_node(x * (1.0 / np.sqrt(2.0))) + 1.0)


def _layer_norm_composite(x, gain, bias, eps=1e-5):
    mu = T.mean(x, axis=-1, keepdims=True)
    centered = x - mu
    var = T.mean(centered * centered, axis=-1, keepdims=True)
    return gain * (centered / T.sqrt(var + eps)) + bias


def _with_signed_zeros(a, seed):
    a = np.array(a)
    flat = a.reshape(-1)
    picks = rng_for(seed, "zeros").permutation(flat.size)[: max(2, flat.size // 5)]
    flat[picks[0::2]] = 0.0
    flat[picks[1::2]] = -0.0
    return a


def _assert_fused_matches_composite(fused, composite, arrays, seed):
    """Output and every input's gradient, bit for bit, under a signed adjoint."""
    runs = []
    for fn in (fused, composite):
        inputs = [Tensor(a, requires_grad=True) for a in arrays]
        out = fn(*inputs)
        T.tsum(out * Tensor(_signed_adjoint(out.shape, seed))).backward()
        runs.append((out.data, [t.grad for t in inputs]))
    (out_f, grads_f), (out_c, grads_c) = runs
    np.testing.assert_array_equal(_bits(out_f), _bits(out_c))
    for gf, gc in zip(grads_f, grads_c):
        assert gf.shape == gc.shape
        np.testing.assert_array_equal(_bits(gf), _bits(gc))


def _random_shapes(tag):
    rng = rng_for(6, "fused-shapes", tag)
    return [tuple(int(n) for n in rng.integers(1, 6, size=ndim)) for ndim in (2, 3, 4, 5, 3, 2)]


def test_fused_linear_bitwise_matches_matmul_plus_bias():
    for n, shape in enumerate(_random_shapes("linear")):
        rng = rng_for(n, "fused-linear")
        k, m = shape[-1], int(rng.integers(1, 7))
        x = _with_signed_zeros(rng.normal(size=shape), n)
        w = _with_signed_zeros(rng.normal(size=(k, m)), n + 50)
        b = rng.normal(size=m)
        _assert_fused_matches_composite(T.linear, _linear_composite, [x, w, b], n)
    # a batched weight that broadcasts against the leading axes of x
    rng = rng_for(9, "fused-linear")
    arrays = [rng.normal(size=(2, 3, 4, 5)), rng.normal(size=(3, 5, 2)), rng.normal(size=2)]
    _assert_fused_matches_composite(T.linear, _linear_composite, arrays, 9)


def test_fused_gelu_bitwise_matches_erf_composite():
    for n, shape in enumerate(_random_shapes("gelu")):
        x = _with_signed_zeros(rng_for(n, "fused-gelu").normal(size=shape) * 2.0, n)
        _assert_fused_matches_composite(T.gelu, _gelu_composite, [x], n)


def test_fused_layer_norm_bitwise_matches_mean_var_composite():
    for n, shape in enumerate(_random_shapes("layer_norm")):
        rng = rng_for(n, "fused-ln")
        x = _with_signed_zeros(rng.normal(size=shape) * 3.0 + 1.0, n)
        gain = _with_signed_zeros(rng.normal(size=shape[-1:]) + 1.0, n + 50)
        bias = rng.normal(size=shape[-1:])
        _assert_fused_matches_composite(T.layer_norm, _layer_norm_composite,
                                        [x, gain, bias], n)
    # a constant row (zero variance) and a transposed, non-contiguous input
    rng = rng_for(7, "fused-ln")
    x = rng.normal(size=(4, 3, 6))
    x[1, 2] = -0.0
    arrays = [np.swapaxes(x, 0, 1), rng.normal(size=6) + 1.0, rng.normal(size=6)]
    _assert_fused_matches_composite(T.layer_norm, _layer_norm_composite, arrays, 7)


def test_fused_ops_bitwise_in_a_residual_topology():
    # the residual adjoint reaches x before both layer_norm paths do (and
    # y before both gelu paths), and (r + a) + b differs from r + (a + b):
    # a fused node that merged its two contributions would round differently
    def block(ln, gelu):
        def fn(x, g1, b1, g2, b2):
            y = x + gelu(ln(x, g1, b1))
            return ln(y + gelu(y), g2, b2)
        return fn

    for n, shape in enumerate(_random_shapes("residual")):
        rng = rng_for(n, "fused-residual")
        d = shape[-1:]
        arrays = [_with_signed_zeros(rng.normal(size=shape) * 2.0, n),
                  rng.normal(size=d) + 1.0, rng.normal(size=d),
                  rng.normal(size=d) + 1.0, rng.normal(size=d)]
        _assert_fused_matches_composite(block(T.layer_norm, T.gelu),
                                        block(_layer_norm_composite, _gelu_composite),
                                        arrays, n)


def test_fused_ops_bitwise_in_a_vit_block(monkeypatch):
    # h feeds three linears and x two residual adds: the fused nodes must
    # hand shared inputs their contributions in the composites' order
    cfg = toy_config(layers=1, dim_v=8, heads_v=2, patch=2, frame_h=4, frame_w=4, frames=3,
                     text_layers=1, dim_t=8, vocab=16, max_words=4, heads_t=2)
    prefix = "backbone/visual/block1"
    rng = rng_for(8, "fused-block")
    x0 = _with_signed_zeros(rng.normal(size=(2, 3, 5, 8)), 8)
    adjoint = _signed_adjoint(x0.shape, 8)

    def run():
        store = ParamStore()
        init_backbone(store, cfg)
        params = [t for name, t in store.items() if name.startswith(prefix)]
        noise = rng_for(9, "fused-block-params")
        for t in params:
            t.data = t.data + 0.3 * noise.normal(size=t.shape)
            t.requires_grad = True
        x = Tensor(x0, requires_grad=True)
        out = vit_block(x, store, prefix, cfg.heads_v, vanilla_attention)
        T.tsum(out * Tensor(adjoint)).backward()
        return [out.data, x.grad] + [t.grad for t in params]

    fused = run()
    monkeypatch.setattr(T, "linear", _linear_composite)
    monkeypatch.setattr(T, "gelu", _gelu_composite)
    monkeypatch.setattr(T, "layer_norm", _layer_norm_composite)
    composite = run()
    assert len(fused) == 18
    for got, want in zip(fused, composite):
        np.testing.assert_array_equal(_bits(got), _bits(want))


def test_param_store_order_and_counts():
    store = ParamStore()
    store.add("b/x", Tensor(np.zeros(2)))
    store.add("a/y", Tensor(np.zeros(3)), frozen=True)
    store.add("a/b", Tensor(np.zeros(5)))
    assert store.names() == ["a/b", "a/y", "b/x"]
    assert store.trainable_count == 2 and len(store) == 3
    assert store.num_elements(trainable=True) == 7
    assert store.num_elements(prefix="a/") == 8
    with pytest.raises(ContractError):
        store.add("a/b", Tensor(np.zeros(1)))


def test_rng_for_is_deterministic_and_stream_independent():
    a1 = rng_for(7, "x").normal(size=4)
    a2 = rng_for(7, "x").normal(size=4)
    b = rng_for(7, "y").normal(size=4)
    np.testing.assert_array_equal(a1, a2)
    assert not np.allclose(a1, b)


def recording():
    """Whether an op run now records a tape node."""
    return (Tensor([1.0], requires_grad=True) * 2.0).requires_grad


def test_no_grad_is_per_thread_when_exits_cross():
    # A enters, B enters, A exits, B exits: the order that left a
    # process-wide flag switched off
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    seen, errors = {}, []

    def thread_a():
        try:
            with no_grad():
                a_in.set()
                assert b_in.wait(10)
                seen["a_inside"] = recording()
            seen["a_after"] = recording()
        except Exception as err:
            errors.append(err)
        finally:
            a_in.set()
            a_out.set()

    def thread_b():
        try:
            assert a_in.wait(10)
            with no_grad():
                b_in.set()
                assert a_out.wait(10)
                seen["b_inside_after_a_exit"] = recording()
            seen["b_after"] = recording()
        except Exception as err:
            errors.append(err)
        finally:
            b_in.set()

    threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    assert errors == []
    assert seen == {"a_inside": False, "a_after": True,
                    "b_inside_after_a_exit": False, "b_after": True}
    assert recording()


def test_tensor_refuses_to_iterate():
    # with only __getitem__, Python would unpack a Tensor row by row: a
    # stale ``_, z = encode_text(...)`` on two captions would bind z to the
    # second caption instead of failing
    t = Tensor(np.zeros((2, 3)))
    with pytest.raises(TypeError, match=r"shape \(2, 3\)"):
        _, z = t
    with pytest.raises(TypeError):
        list(t)
