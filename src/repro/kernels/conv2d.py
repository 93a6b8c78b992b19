"""Convolution kernels: im2col forward, transposed-conv input gradient,
im2col-matmul weight gradient. Grouped (incl. depthwise) convolutions are
supported throughout.

Layout is NCHW with OIHW weights; the layout pass may annotate nodes with a
``layout`` attribute for cost modelling, but numeric kernels always compute
in NCHW (the transform only affects the *device cost model*, matching how we
simulate hardware rather than own it).
"""

from __future__ import annotations

import numpy as np

from . import kernel, register_transform, variant_kernel
from .elementwise import apply_activation


#: parsed stride/padding pairs, keyed by the raw attr value. Conv graphs
#: carry a handful of distinct configurations but the kernels parse them on
#: every step, so a tiny memo removes the per-call int() churn.
_PAIR_CACHE: dict = {}


def _pair(value) -> tuple[int, int]:
    key = (value[0], value[1]) if isinstance(value, (tuple, list)) else value
    try:
        return _PAIR_CACHE[key]
    except KeyError:
        pass
    except TypeError:  # unhashable attr value — parse without caching
        key = None
    pair = (int(value[0]), int(value[1])) \
        if isinstance(value, (tuple, list)) else (int(value), int(value))
    if key is not None:
        _PAIR_CACHE[key] = pair
    return pair


def _pad2d(x: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """Zero-pad H/W. np.pad's generic machinery costs tens of µs per call,
    which dominates small-resolution convs; border-zero + interior-assign
    is ~5x cheaper, and padding-free convs (every 1x1) skip the copy
    entirely."""
    if ph == 0 and pw == 0:
        return x
    n, c, h, w = x.shape
    xp = np.empty((n, c, h + 2 * ph, w + 2 * pw), x.dtype)
    xp[:, :, :ph] = 0
    xp[:, :, ph + h:] = 0
    xp[:, :, ph:ph + h, :pw] = 0
    xp[:, :, ph:ph + h, pw + w:] = 0
    xp[:, :, ph:ph + h, pw:pw + w] = x
    return xp


def im2col(x: np.ndarray, kh: int, kw: int, sh: int, sw: int,
           ph: int, pw: int) -> tuple[np.ndarray, int, int]:
    """Unfold ``x`` [N,C,H,W] into columns [N, C*kh*kw, Ho*Wo]."""
    n, c, h, w = x.shape
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    xp = _pad2d(x, ph, pw)
    cols = np.empty((n, c, kh, kw, ho, wo), x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + sh * ho:sh, j:j + sw * wo:sw]
    return cols.reshape(n, c * kh * kw, ho * wo), ho, wo


def col2im(cols: np.ndarray, x_shape: tuple[int, ...], kh: int, kw: int,
           sh: int, sw: int, ph: int, pw: int) -> np.ndarray:
    """Fold columns [N, C*kh*kw, Ho*Wo] back, accumulating overlaps.

    Padded folds copy the interior out instead of returning a strided
    view, so the gradient is contiguous and arena-poolable downstream.
    """
    n, c, h, w = x_shape
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    cols = cols.reshape(n, c, kh, kw, ho, wo)
    xp = np.zeros((n, c, h + 2 * ph, w + 2 * pw), cols.dtype)
    for i in range(kh):
        for j in range(kw):
            xp[:, :, i:i + sh * ho:sh, j:j + sw * wo:sw] += cols[:, :, i, j]
    if ph == 0 and pw == 0:
        return xp
    return np.ascontiguousarray(xp[:, :, ph:ph + h, pw:pw + w])


#: im2col scratch bound for grouped convs: chunks of groups are unfolded
#: and matmul'd together (a per-group Python loop is an order of magnitude
#: slower on depthwise MBConv stacks, but unfolding *all* groups at once
#: would multiply kernel-side scratch ~groups-fold on big inputs — scratch
#: the transient-bytes accounting can't see).
_GROUP_SCRATCH_CAP = 16 << 20


def _group_chunk(groups: int, bytes_per_group: int) -> int:
    """How many groups to unfold per chunk under the scratch cap."""
    return max(1, min(groups, _GROUP_SCRATCH_CAP // max(1, bytes_per_group)))


def conv2d_forward(x: np.ndarray, w: np.ndarray, stride=1, padding=0,
                   groups: int = 1) -> np.ndarray:
    """Plain (direct, im2col-backed) convolution forward."""
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    n, cin, _, _ = x.shape
    cout, cin_g, kh, kw = w.shape
    if groups == 1:
        cols, ho, wo = im2col(x, kh, kw, sh, sw, ph, pw)
        # (cout, k) @ (n, k, l) broadcasts over the batch dim -> (n, cout, l)
        y = w.reshape(cout, -1) @ cols
        return y.reshape(n, cout, ho, wo)
    # Grouped path: batched matmul over (batch, group) chunks — im2col's
    # column layout is channel-major, so each group's rows are contiguous.
    cg_out = cout // groups
    k = cin_g * kh * kw
    ho = (x.shape[2] + 2 * ph - kh) // sh + 1
    wo = (x.shape[3] + 2 * pw - kw) // sw + 1
    chunk = _group_chunk(groups, n * k * ho * wo * x.itemsize)
    wg = w.reshape(groups, cg_out, k)
    outs = []
    for g0 in range(0, groups, chunk):
        g1 = min(groups, g0 + chunk)
        xg = x[:, g0 * cin_g:g1 * cin_g]
        cols, ho, wo = im2col(xg, kh, kw, sh, sw, ph, pw)
        colsg = cols.reshape(n, g1 - g0, k, ho * wo)
        yg = np.matmul(wg[None, g0:g1], colsg)  # (n, g1-g0, cg_out, l)
        outs.append(yg.reshape(n, (g1 - g0) * cg_out, ho, wo))
    return outs[0] if len(outs) == 1 else np.concatenate(outs, axis=1)


@kernel("conv2d")
def _conv2d(inputs, attrs):
    x, w = inputs[0], inputs[1]
    algo = attrs.get("algo", "direct")
    if algo == "winograd":
        from .winograd import winograd_conv2d

        y = winograd_conv2d(x, w, padding=attrs.get("padding", 0))
    else:
        y = conv2d_forward(x, w, attrs.get("stride", 1),
                           attrs.get("padding", 0),
                           int(attrs.get("groups", 1)))
    if len(inputs) == 3:  # fused bias
        y = y + inputs[2].reshape(1, -1, 1, 1)
    return [apply_activation(y, attrs.get("activation"))]


@variant_kernel("conv2d", "winograd_precomputed")
def _conv2d_winograd_precomputed(inputs, attrs):
    """Winograd conv with the weight transform hoisted to a plan slot.

    The precompute_frozen pass appends the plan-owned ``U`` as the trailing
    input; everything else mirrors the ``algo == "winograd"`` branch of the
    base kernel, so outputs are bitwise identical — the transform was
    computed by the same function the base kernel would call inline.
    """
    from .winograd import winograd_conv2d

    x, w, u = inputs[0], inputs[1], inputs[-1]
    y = winograd_conv2d(x, w, padding=attrs.get("padding", 0), u=u)
    if len(inputs) == 4:  # fused bias rides between the weights and U
        y = y + inputs[2].reshape(1, -1, 1, 1)
    return [apply_activation(y, attrs.get("activation"))]


@register_transform("im2col_weight")
def _im2col_weight(w: np.ndarray) -> np.ndarray:
    """Flatten a 1x1 OIHW weight to the (cout, cin) GEMM operand.

    Exactly the ``w.reshape(cout, -1)`` the base kernel performs inline
    for a 1x1/pad-0/groups-1 conv, made contiguous once (for contiguous
    state this is a free view of the same buffer).
    """
    return np.ascontiguousarray(w.reshape(w.shape[0], -1))


@variant_kernel("conv2d", "im2col_precomputed")
def _conv2d_im2col_precomputed(inputs, attrs):
    """1x1/pad-0/groups-1 conv with the weight pre-flattened to 2-D.

    For these convs im2col is a pure copy: every "column" is just the
    (strided) activation itself. The variant feeds the activation straight
    into the GEMM as a reshape view — skipping the whole-activation
    im2col copy the base kernel pays — with the plan-owned flattened
    weight as the trailing input. Bitwise identity with the base kernel
    holds because both GEMM operands keep the exact layout (C-contiguous)
    and values the base path produces.
    """
    x, w2 = inputs[0], inputs[-1]
    sh, sw = _pair(attrs.get("stride", 1))
    n, cin, h, wdim = x.shape
    cout = w2.shape[0]
    if sh == 1 and sw == 1:
        cols = np.ascontiguousarray(x).reshape(n, cin, h * wdim)
        ho, wo = h, wdim
    else:
        sub = x[:, :, ::sh, ::sw]
        ho, wo = sub.shape[2], sub.shape[3]
        cols = np.ascontiguousarray(sub).reshape(n, cin, ho * wo)
    y = (w2 @ cols).reshape(n, cout, ho, wo)
    if len(inputs) == 4:  # fused bias rides between the weights and w2
        y = y + inputs[2].reshape(1, -1, 1, 1)
    return [apply_activation(y, attrs.get("activation"))]


@kernel("conv2d_dx")
def _conv2d_dx(inputs, attrs):
    grad, w = inputs
    sh, sw = _pair(attrs.get("stride", 1))
    ph, pw = _pair(attrs.get("padding", 0))
    groups = int(attrs.get("groups", 1))
    in_shape = tuple(int(d) for d in attrs["input_shape"])
    n, cin, h, wdim = in_shape
    cout, cin_g, kh, kw = w.shape
    if groups == 1:
        g2 = grad.reshape(n, cout, -1)
        # Batched w^T @ grad (einsum would re-derive its contraction path
        # on every call, ~50µs of pure overhead per node).
        dcols = np.matmul(w.reshape(cout, -1).transpose()[None], g2)
        return [col2im(dcols, in_shape, kh, kw, sh, sw, ph, pw)]
    # Grouped path, vectorised over group chunks: scatter each chunk's
    # column gradients into a channel-major block and fold it back with one
    # col2im per chunk (scratch bounded by _GROUP_SCRATCH_CAP).
    cg_out = cout // groups
    k = cin_g * kh * kw
    l = grad.shape[2] * grad.shape[3]
    g2 = grad.reshape(n, groups, cg_out, l)
    wgT = w.reshape(groups, cg_out, k).transpose(0, 2, 1)
    chunk = _group_chunk(groups, n * k * l * grad.itemsize)
    if chunk >= groups:
        dcols = np.matmul(wgT[None], g2).reshape(n, cin * kh * kw, l)
        return [col2im(dcols, in_shape, kh, kw, sh, sw, ph, pw)]
    dx = np.empty(in_shape, dtype=grad.dtype)
    for g0 in range(0, groups, chunk):
        g1 = min(groups, g0 + chunk)
        dcols = np.matmul(wgT[None, g0:g1], g2[:, g0:g1])
        dcols = dcols.reshape(n, (g1 - g0) * k, l)
        dx[:, g0 * cin_g:g1 * cin_g] = col2im(
            dcols, (n, (g1 - g0) * cin_g, h, wdim), kh, kw, sh, sw, ph, pw)
    return [dx]


@kernel("conv2d_dw")
def _conv2d_dw(inputs, attrs):
    x, grad = inputs
    sh, sw = _pair(attrs.get("stride", 1))
    ph, pw = _pair(attrs.get("padding", 0))
    groups = int(attrs.get("groups", 1))
    kh, kw = _pair(attrs["kernel_hw"])
    n, cin, _, _ = x.shape
    cout = grad.shape[1]
    cin_g = cin // groups
    if groups == 1:
        cols, _, _ = im2col(x, kh, kw, sh, sw, ph, pw)
        g2 = grad.reshape(n, cout, -1)
        dw = np.tensordot(g2, cols, axes=([0, 2], [0, 2]))
        return [dw.reshape(cout, cin, kh, kw)]
    # Grouped path: batched grad @ cols^T per (batch, group) chunk,
    # reduced over the batch (scratch bounded by _GROUP_SCRATCH_CAP).
    cg_out = cout // groups
    k = cin_g * kh * kw
    l = grad.shape[2] * grad.shape[3]
    g2 = grad.reshape(n, groups, cg_out, l)
    chunk = _group_chunk(groups, n * k * l * x.itemsize)
    dw = np.empty((cout, cin_g, kh, kw), dtype=x.dtype)
    for g0 in range(0, groups, chunk):
        g1 = min(groups, g0 + chunk)
        xg = x[:, g0 * cin_g:g1 * cin_g]
        cols, _, _ = im2col(xg, kh, kw, sh, sw, ph, pw)
        colsg = cols.reshape(n, g1 - g0, k, l)
        dwg = np.matmul(g2[:, g0:g1], colsg.transpose(0, 1, 3, 2)).sum(axis=0)
        dw[g0 * cg_out:g1 * cg_out] = dwg.reshape(
            (g1 - g0) * cg_out, cin_g, kh, kw)
    return [dw]
