"""Offset-warped self-attention with text-conditioned patch selection.

Per frame, the K most text-relevant patches are chosen (hard, gradient
free), and for those patches the key/value fields are resampled at the
real-valued grid position (t + delta_t, n + gamma_n), where gamma (per
patch slot) and delta (per frame) are learnable offsets shared by every
layer; a warp restricted to one axis registers only that axis's offset.
Fractional positions are bilinearly interpolated over the
(frame, patch-index) grid with coordinates clamped to the valid range,
which keeps the offsets trainable by gradient descent; exact integer
positions reduce to direct indexing, so zero offsets reproduce vanilla
attention bitwise. Unselected patches pass through untouched.

The warp of K and V is one tape node over a per-axis sampling plan,
bitwise equal to the chain of gather, blend and select ops it replaces
(see ``warp_kv`` for the summation order its backward repeats). The
offsets are fixed during a tower pass, so an ASA pass builds both axis
plans once, when it starts (``warp_plan``), and every layer reuses them.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

import numpy as np

from . import tensor as T
from .backbone import attention_core
from .exceptions import ConfigError
from .tensor import Tensor


class SelectionMode(str, Enum):
    TEXT_TOP_K = "text_top_k"
    TEXT_BOTTOM_K = "text_bottom_k"
    VISION_TOP_K = "vision_top_k"
    VISION_BOTTOM_K = "vision_bottom_k"
    RANDOM = "random"
    NONE = "none"


class WarpAxes(str, Enum):
    BOTH = "both"
    TEMPORAL_ONLY = "temporal"
    SPATIAL_ONLY = "spatial"


class OffsetParams:
    """Layer-shared patch offsets gamma (N x 1) and frame offsets delta (T x 1).

    Values are unconstrained reals, zero at init. Only the axes the warp
    moves register an offset; the other attribute is ``None``, and that
    axis keeps its grid position.
    """

    def __init__(self, store, patches, frames, axes=WarpAxes.BOTH):
        axes = WarpAxes(axes)
        self.gamma = self.delta = None
        if axes is not WarpAxes.TEMPORAL_ONLY:
            self.gamma = store.add("adapter/asa/gamma", Tensor(np.zeros((patches, 1))))
        if axes is not WarpAxes.SPATIAL_ONLY:
            self.delta = store.add("adapter/asa/delta", Tensor(np.zeros((frames, 1))))


def selection_masks(mode, k_sel, u_patches, w_star=None, proj_w=None, proj_b=None,
                    cls_feats=None, rng=None):
    """Boolean (..., T, N) mask of patches to warp.

    ``u_patches``: detached (..., T, N, D) patch features. Text modes
    score Proj(u) = u @ proj_w + proj_b against ``w_star`` (..., D_t),
    so they need all three; vision modes score u
    against the frame CLS feature (..., T, D). Scoring is value-only:
    selection is hard and carries no gradient. Ties break toward the
    lower patch index; random mode draws K per frame without replacement
    from ``rng``.
    """
    mode = SelectionMode(mode)
    u = np.asarray(u_patches)
    t_n, n_n = u.shape[-3], u.shape[-2]
    lead = u.shape[:-3]
    if k_sel > n_n or k_sel < 0:
        raise ConfigError(f"selection K={k_sel} outside [0, N={n_n}]")
    if mode is SelectionMode.NONE:
        return np.ones((*lead, t_n, n_n), dtype=bool)
    if k_sel == 0:
        return np.zeros((*lead, t_n, n_n), dtype=bool)
    if mode is SelectionMode.RANDOM:
        mask = np.zeros((*lead, t_n, n_n), dtype=bool)
        flat = mask.reshape(-1, t_n, n_n)
        for b in range(flat.shape[0]):
            for t in range(t_n):
                flat[b, t, rng.choice(n_n, size=k_sel, replace=False)] = True
        return mask

    if mode in (SelectionMode.TEXT_TOP_K, SelectionMode.TEXT_BOTTOM_K):
        probe = u @ proj_w + proj_b
        w = np.broadcast_to(np.asarray(w_star), (*lead, probe.shape[-1]))
        scores = np.einsum("...tnd,...d->...tn", probe, w)
        descending = mode is SelectionMode.TEXT_TOP_K
    else:
        cls = np.broadcast_to(np.asarray(cls_feats), (*lead, t_n, u.shape[-1]))
        scores = np.einsum("...tnd,...td->...tn", u, cls)
        descending = mode is SelectionMode.VISION_TOP_K

    order = np.argsort(-scores if descending else scores, axis=-1, kind="stable")
    mask = np.zeros((*lead, t_n, n_n), dtype=bool)
    np.put_along_axis(mask, order[..., :k_sel], True, axis=-1)
    return mask


# Sampling plan along one grid axis, broadcasting over it: slot i blends rows
# lo[i] and hi[i] by frac[i], or takes row lo[i] where exact[i]; inside is the
# in-grid mask the clamp passes gradient through to offset, None if it takes none.
_AxisPlan = namedtuple("_AxisPlan", "offset lo hi frac exact inside")


def _axis_plan(offset, size, axis):
    coords = np.arange(size, dtype=np.float64)
    if offset is not None:
        coords = coords + offset.data.reshape(size)
    inside = (coords >= 0.0) & (coords <= size - 1)
    coords = np.clip(coords, 0.0, float(size - 1))
    lo = np.floor(coords).astype(np.intp)
    trailing = (size,) + (1,) * (-1 - axis)
    inside = inside.reshape(offset.shape) if offset is not None and offset.requires_grad else None
    return _AxisPlan(offset, lo, np.minimum(lo + 1, size - 1), (coords - lo).reshape(trailing),
                     (coords == lo).reshape(trailing), inside)


def warp_plan(offsets, frames, patches):
    """The (patch axis, frame axis) plans of ``offsets`` on a (frames, patches) grid."""
    return _axis_plan(offsets.gamma, patches, -2), _axis_plan(offsets.delta, frames, -3)


def _gather(field, plan, axis):
    """The rows of ``field`` at ``lo`` and at ``hi`` along ``axis``."""
    return np.take(field, plan.lo, axis=axis), np.take(field, plan.hi, axis=axis)


def _blend(a, b, plan):
    """Gathered rows ``a`` and ``b`` blended by ``frac``; ``a`` where the position is exact."""
    return np.where(plan.exact, a, (1.0 - plan.frac) * a + plan.frac * b)


def _blend_grad(g, a, b, plan, terms):
    """Adjoints of ``_blend``'s two rows; frac terms (1 - frac, then frac) go to ``terms``."""
    g_mix = g * ~plan.exact
    g_lo = g * plan.exact + g_mix * (1.0 - plan.frac)
    if plan.inside is not None:
        terms.append(-T._unbroadcast(g_mix * a, plan.frac.shape))
        terms.append(T._unbroadcast(g_mix * b, plan.frac.shape))
    return g_lo, g_mix * plan.frac


def _scatter(g, idx, axis, shape):
    """Adjoint of a gather at ``idx``: one slice add per index, in index order."""
    out = np.zeros(shape)
    dst, src = np.moveaxis(out, axis, 0), np.moveaxis(g, axis, 0)
    # np.add.at is bitwise too, but 2-4x slower per call at toy training shapes (x86_64)
    for i, j in enumerate(idx):
        dst[j] += src[i]
    return out


def warp_kv(k, v, offsets, selection):
    """Resample key/value fields at offset grid positions for selected patches.

    k, v: (..., T, N, D); ``offsets``: an ``OffsetParams``, or its
    ``warp_plan`` over this grid; ``selection``: boolean (..., T, N) mask
    of the patches to warp. For n in S_t the output row is the field at
    (t + delta_t, n + gamma_n), bilinearly interpolated with coordinates
    clamped to the grid; rows outside the selection pass through
    bitwise. An axis whose offset is ``None`` keeps its grid position.

    One tape node with parents k, v and the offsets that exist yields
    K-hat and V-hat stacked. Its backward repeats the arithmetic and
    summation order of the composite of primitive ops it replaces: K
    fully, then V; per field the frame stage, then the patch stage; each
    field sums its unselected rows, then the scatter to its ``lo`` rows,
    then to its ``hi`` rows; each offset sums its four blend terms (K
    through 1 - frac, K through frac, V likewise), masked by the in-grid
    mask.
    """
    k, v = T.astensor(k), T.astensor(v)
    plans = warp_plan(offsets, *k.shape[-3:-1]) if isinstance(offsets, OffsetParams) else offsets
    n_plan, t_plan = plans
    mask = np.asarray(selection, dtype=bool)[..., None]
    fields = [(f.data, T._grad_node(f)) for f in (k, v)]  # backward reads both values

    def warped(f):
        s = _blend(*_gather(f, n_plan, -2), n_plan)
        return np.where(mask, _blend(*_gather(s, t_plan, -3), t_plan), f)

    data = np.stack([warped(f) for f, _ in fields])

    def _bw(g):
        n_terms, t_terms = [], []
        for (field, node), g_field in zip(fields, g):
            a, b = _gather(field, n_plan, -2)
            s = _blend(a, b, n_plan)
            g_lo, g_hi = _blend_grad(g_field * mask, *_gather(s, t_plan, -3), t_plan, t_terms)
            g_s = _scatter(g_lo, t_plan.lo, -3, s.shape) + _scatter(g_hi, t_plan.hi, -3, s.shape)
            g_lo, g_hi = _blend_grad(g_s, a, b, n_plan, n_terms)
            if node is not None:
                node._accumulate(g_field * ~mask)
                node._accumulate(_scatter(g_lo, n_plan.lo, -2, field.shape))
                node._accumulate(_scatter(g_hi, n_plan.hi, -2, field.shape))
        for plan, terms in ((n_plan, n_terms), (t_plan, t_terms)):
            if plan.inside is not None:  # the four terms sum left to right
                offset = plan.offset
                offset._accumulate(sum(terms[1:], terms[0]).reshape(offset.shape) * plan.inside)

    moving = tuple(p.offset for p in plans if p.offset is not None)
    w = T._make(data, (k, v, *moving), _bw)
    return w[0], w[1]


def asa_block_attention(x_in, q, k, v, heads, offsets, selection):
    """Drop-in block attention: warp patch K/V rows, keep the CLS row.

    q, k, v: (..., T, N+1, D) projected tokens from the frozen block;
    ``offsets`` as in ``warp_kv``; ``selection`` is the (..., T, N)
    patch mask. With zero offsets the result is bitwise identical to
    vanilla attention on the same inputs.
    """
    k_hat_p, v_hat_p = warp_kv(k[..., 1:, :], v[..., 1:, :], offsets, selection)
    k_hat = T.concat([k[..., :1, :], k_hat_p], axis=-2)
    v_hat = T.concat([v[..., :1, :], v_hat_p], axis=-2)
    return attention_core(q, k_hat, v_hat, heads)
