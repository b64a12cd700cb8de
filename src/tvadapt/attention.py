"""Offset-warped self-attention with text-conditioned patch selection.

Per frame, the K most text-relevant patches are chosen (hard, gradient
free), and for those patches the key/value fields are resampled at the
real-valued grid position (t + delta_t, n + gamma_n), where gamma (per
patch slot) and delta (per frame) are learnable offsets shared by every
layer. Fractional positions are bilinearly interpolated over the
(frame, patch-index) grid with coordinates clamped to the valid range,
which keeps the offsets trainable by gradient descent; exact integer
positions reduce to direct indexing, so zero offsets reproduce vanilla
attention bitwise. Unselected patches pass through untouched.
"""

from __future__ import annotations

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

    Values are unconstrained reals, zero at init; restricting the warp to
    one axis freezes the other axis's offsets at zero.
    """

    def __init__(self, store, patches, frames, axes=WarpAxes.BOTH):
        axes = WarpAxes(axes)
        self.axes = axes
        self.gamma = store.add(
            "adapter/asa/gamma", Tensor(np.zeros((patches, 1))),
            frozen=(axes is WarpAxes.TEMPORAL_ONLY),
        )
        self.delta = store.add(
            "adapter/asa/delta", Tensor(np.zeros((frames, 1))),
            frozen=(axes is WarpAxes.SPATIAL_ONLY),
        )


def selection_masks(mode, k_sel, u_patches, w_star=None, proj_w=None, proj_b=None,
                    cls_feats=None, rng=None):
    """Boolean (..., T, N) mask of patches to warp.

    ``u_patches``: detached (..., T, N, D) patch features. Text modes
    score Proj(u) against ``w_star`` (..., D_t); vision modes score u
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
        probe = u @ proj_w
        if proj_b is not None:
            probe = probe + proj_b
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


def _axis_coords(offset_vec, size, enabled):
    """Clamped sample coordinates along one axis plus interpolation pieces.

    Returns (lo_idx, hi_idx, frac Tensor, exact_mask) where the warped
    field at slot i is (1-frac) * field[lo] + frac * field[hi], and
    exact_mask marks integer coordinates that must reduce to direct
    indexing (no interpolation arithmetic at all).
    """
    base = np.arange(size, dtype=np.float64)
    if enabled:
        coords = T.clip(Tensor(base) + T.reshape(offset_vec, (size,)), 0.0, float(size - 1))
    else:
        coords = Tensor(base)
    lo = np.floor(coords.data).astype(np.intp)
    hi = np.minimum(lo + 1, size - 1)
    frac = coords - Tensor(lo.astype(np.float64))
    exact = coords.data == lo
    return lo, hi, frac, exact


def warp_kv(k, v, offsets, selection, axes=WarpAxes.BOTH, interp="bilinear"):
    """Resample key/value fields at offset grid positions for selected patches.

    k, v: (..., T, N, D); ``selection``: boolean (..., T, N) mask of the
    patches to warp. For n in S_t the output row is the field at
    (t + delta_t, n + gamma_n), bilinearly interpolated with coordinates
    clamped to the grid; rows outside the selection pass through
    bitwise. ``interp="nearest"`` snaps the value to the nearest grid
    point while keeping the bilinear gradient (straight-through).
    """
    axes = WarpAxes(axes)
    t_n, n_n = k.shape[-3], k.shape[-2]
    n_lo, n_hi, n_frac, n_exact = _axis_coords(
        offsets.gamma, n_n, axes is not WarpAxes.TEMPORAL_ONLY
    )
    t_lo, t_hi, t_frac, t_exact = _axis_coords(
        offsets.delta, t_n, axes is not WarpAxes.SPATIAL_ONLY
    )
    fn = T.reshape(n_frac, (n_n, 1))
    ft = T.reshape(t_frac, (t_n, 1, 1))

    def bilinear(field):
        g0 = T.take(field, n_lo, axis=-2)
        g1 = T.take(field, n_hi, axis=-2)
        stage_n = T.where_const(n_exact[:, None], g0, (1.0 - fn) * g0 + fn * g1)
        h0 = T.take(stage_n, t_lo, axis=-3)
        h1 = T.take(stage_n, t_hi, axis=-3)
        return T.where_const(t_exact[:, None, None], h0, (1.0 - ft) * h0 + ft * h1)

    def nearest(field):
        gamma = offsets.gamma.data.reshape(-1) if axes is not WarpAxes.TEMPORAL_ONLY else 0.0
        delta = offsets.delta.data.reshape(-1) if axes is not WarpAxes.SPATIAL_ONLY else 0.0
        n_idx = np.clip(np.rint(np.arange(n_n) + gamma), 0, n_n - 1).astype(np.intp)
        t_idx = np.clip(np.rint(np.arange(t_n) + delta), 0, t_n - 1).astype(np.intp)
        snapped = np.take(np.take(field.data, n_idx, axis=-2), t_idx, axis=-3)
        # forward takes the snapped value, gradients take the bilinear path
        return T.value_override(bilinear(field), snapped)

    warp = bilinear if interp == "bilinear" else nearest
    mask = np.asarray(selection, dtype=bool)[..., None]
    k_hat = T.where_const(mask, warp(k), k)
    v_hat = T.where_const(mask, warp(v), v)
    return k_hat, v_hat


def asa_block_attention(x_in, q, k, v, heads, offsets, selection, axes=WarpAxes.BOTH,
                        interp="bilinear"):
    """Drop-in block attention: warp patch K/V rows, keep the CLS row.

    q, k, v: (..., T, N+1, D) projected tokens from the frozen block;
    ``selection`` is the (..., T, N) patch mask. With zero offsets the
    result is bitwise identical to vanilla attention on the same inputs.
    """
    k_hat_p, v_hat_p = warp_kv(k[..., 1:, :], v[..., 1:, :], offsets, selection, axes, interp)
    k_hat = T.concat([k[..., :1, :], k_hat_p], axis=-2)
    v_hat = T.concat([v[..., :1, :], v_hat_p], axis=-2)
    return attention_core(q, k_hat, v_hat, heads)
