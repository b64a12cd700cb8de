"""Offset-warped self-attention with text-conditioned patch selection.

Per frame, the K most text-relevant patches are chosen (hard, gradient
free), and for those patches the key/value fields are resampled at the
real-valued grid position (t + delta_t, n + gamma_n), where gamma (per
patch slot) and delta (per frame) are learnable offsets shared by every
layer; a warp restricted to one axis registers only that axis's offset.
Fractional positions are bilinearly interpolated over the (frame,
patch-index) grid with coordinates clamped to the valid range. Exact
integer positions reduce to direct indexing, so zero offsets reproduce
vanilla attention bitwise, but the offset gradient there is 0: offsets
that start at 0 never move. Unselected patches pass through untouched.

The warp is one tape node per field over per-axis sampling plans,
bitwise equal to the chain of gather, blend and select ops it replaces
(``warp``). The offsets are fixed during a tower pass, so an ASA pass
builds both plans once, when it starts, and every layer reuses them.
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
    """Boolean (..., T, N) mask of the K top-ranked patches per frame.

    ``u_patches``: detached (..., T, N, D) patch features. Text modes
    score Proj(u) = u @ proj_w + proj_b against ``w_star`` (..., D_t),
    so they need all three; vision modes score u against the frame CLS
    feature (..., T, D); random mode scores uniform numbers drawn from
    ``rng`` in one call, so each frame gets a uniform K-subset. Top and
    random modes rank highest first, bottom modes lowest first; ties
    break toward the lower patch index. Selection is hard: no gradient.
    """
    mode = SelectionMode(mode)
    u = np.asarray(u_patches)
    if k_sel > u.shape[-2] or k_sel < 0:
        raise ConfigError(f"selection K={k_sel} outside [0, N={u.shape[-2]}]")
    if mode is SelectionMode.NONE:
        return np.ones(u.shape[:-1], dtype=bool)
    if mode is SelectionMode.RANDOM:
        scores, descending = rng.random(u.shape[:-1]), True
    elif mode in (SelectionMode.TEXT_TOP_K, SelectionMode.TEXT_BOTTOM_K):
        scores = np.einsum("...tnd,...d->...tn", u @ proj_w + proj_b, w_star)
        descending = mode is SelectionMode.TEXT_TOP_K
    else:
        scores = np.einsum("...tnd,...td->...tn", u, cls_feats)
        descending = mode is SelectionMode.VISION_TOP_K

    order = np.argsort(-scores if descending else scores, axis=-1, kind="stable")
    mask = np.zeros(scores.shape, dtype=bool)
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


def _blend_grad(g, a, b, plan):
    """Adjoints of ``_blend``'s two rows and of ``frac`` (None if no offset takes it)."""
    g_mix, shape = g * ~plan.exact, plan.frac.shape
    g_lo = g * plan.exact + g_mix * (1.0 - plan.frac)
    return g_lo, g_mix * plan.frac, None if plan.inside is None else (
        T._unbroadcast(g_mix * b, shape) - T._unbroadcast(g_mix * a, shape))


def _scatter(g, idx, axis, shape):
    """Adjoint of a gather at ``idx``: one slice add per index, in index order."""
    out = np.zeros(shape)
    dst, src = np.moveaxis(out, axis, 0), np.moveaxis(g, axis, 0)
    # np.add.at is bitwise too, but 2-4x slower per call at toy training shapes (x86_64)
    for i, j in enumerate(idx):
        dst[j] += src[i]
    return out


def _plans(offsets, field):
    """``offsets`` as axis plans: an ``OffsetParams``'s ``warp_plan`` on ``field``'s grid."""
    return warp_plan(offsets, *field.shape[-3:-1]) if isinstance(offsets, OffsetParams) else offsets


def warp(f, offsets, selection):
    """Resample field f (..., T, N, D) at offset grid positions for selected patches.

    ``offsets``: an ``OffsetParams``, or its ``warp_plan`` over this grid; ``selection``:
    boolean (..., T, N) mask of the patches to warp. For n in S_t the output row is f at
    (t + delta_t, n + gamma_n), bilinearly interpolated with coordinates clamped to the
    grid; other rows pass through bitwise. An axis whose offset is ``None`` stays put.

    One tape node with parents f and the offsets that move. Its backward repeats the
    arithmetic and summation order of the composite of primitive ops it replaces: the
    frame stage, then the patch stage; f sums its unselected rows, then its scatter to
    ``lo``, then to ``hi``; each offset sums its 1 - frac term, then its frac term, in-grid.
    """
    f = T.astensor(f)
    n_plan, t_plan = plans = _plans(offsets, f)
    mask = np.asarray(selection, dtype=bool)[..., None]
    field, node = f.data, T._grad_node(f)  # backward reads the value
    s = _blend(*_gather(field, n_plan, -2), n_plan)
    data = np.where(mask, _blend(*_gather(s, t_plan, -3), t_plan), field)

    def _bw(g):
        a, b = _gather(field, n_plan, -2)
        s = _blend(a, b, n_plan)
        g_lo, g_hi, t_term = _blend_grad(g * mask, *_gather(s, t_plan, -3), t_plan)
        g_s = _scatter(g_lo, t_plan.lo, -3, s.shape) + _scatter(g_hi, t_plan.hi, -3, s.shape)
        g_lo, g_hi, n_term = _blend_grad(g_s, a, b, n_plan)
        if node is not None:
            node._adopt(g * ~mask)
            node._adopt(_scatter(g_lo, n_plan.lo, -2, field.shape))
            node._adopt(_scatter(g_hi, n_plan.hi, -2, field.shape))
        for plan, term in ((n_plan, n_term), (t_plan, t_term)):
            if term is not None:
                plan.offset._accumulate(term.reshape(plan.offset.shape) * plan.inside)

    return T._make(data, (f, *(p.offset for p in plans if p.offset is not None)), _bw)


def warp_kv(k, v, offsets, selection):
    """The key and the value field, each warped (``warp``) with one pair of axis plans."""
    plans = _plans(offsets, k)
    return warp(k, plans, selection), warp(v, plans, selection)


def asa_block_attention(x_in, q, k, v, heads, offsets, selection):
    """Drop-in block attention: warp patch K/V rows, keep the CLS row.

    q, k, v: (..., T, N+1, D) projected tokens from the frozen block;
    ``offsets`` as in ``warp``; ``selection`` is the (..., T, N)
    patch mask. With zero offsets the result is bitwise identical to
    vanilla attention on the same inputs.
    """
    k_hat_p, v_hat_p = warp_kv(k[..., 1:, :], v[..., 1:, :], offsets, selection)
    k_hat = T.concat([k[..., :1, :], k_hat_p], axis=-2)
    v_hat = T.concat([v[..., :1, :], v_hat_p], axis=-2)
    return attention_core(q, k_hat, v_hat, heads)
