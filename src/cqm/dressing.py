"""Particle-anchored relational description via dressing.

Dressing on particle i is the anchored split of the translation group
(``bundle.decompose_shift`` with anchor i) applied to the configuration: the
internal part is the relational coordinates, seen "from within" (the anchor
block is identically zero and external, diagonal shifts drop out by
construction), and the negated external part is the dressing field
u_i(t) = -x_i(t), replicated across blocks.  The dressing field enters
bare-frame formulas as sampled shift values; it is deliberately *not* a
GaugeField (it depends on the configuration, not just on time), but the
cocycle machinery consumes its node samples the same way.

A relational configuration or path is only ever the dressing of a bare one
on a particle index (``dress_config``, ``dress_path``), and
``dressed_critical_path`` dresses its bare endpoints itself.

Changing the anchor from particle i to particle j is the frame shift
Z_ij(t) = u_j(t) - u_i(t) = x_i(t) - x_j(t), replicated across blocks; all
transformation laws under internal shifts and frame changes reduce to the
cocycle composition rule and hold exactly at the discrete level.

The path functions take one history or a stack of histories on a shared time
grid (``x`` of shape (n, M+1, dim)); with a stack, an anchor may be an (n,)
integer array, one per history.  ``identity_suite`` on a stack returns one
residual array per identity, equal bit for bit to the per-history values.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .bundle import (Config, GaugeField, ModelParams, _anchor_index,
                     _particle_index, decompose_shift)
from .classical import (DiscretePath, action, shift_path_nodes,
                        solve_critical_path)
from .cocycle import (LagrangianModel, _field_at_nodes, _float_or_array,
                      path_cocycle)

__all__ = [
    "dress_config",
    "dress_path",
    "dressing_field_along",
    "frame_shift",
    "dressed_action",
    "residual_first_kind",
    "identity_suite",
    "dressed_critical_path",
]


def dress_config(params: ModelParams, p: Config, anchor) -> Config:
    """Subtract the anchor particle's block from every block, leaving that
    block exactly zero; time unchanged."""
    return Config(p.t, decompose_shift(params, p.x, anchor)[0])


def dress_path(params: ModelParams, path: DiscretePath, anchor) -> DiscretePath:
    """Nodewise dressing; the result is flagged relational with its anchor."""
    i = _anchor_index(anchor, params)
    return replace(path, x=decompose_shift(params, path.x, i)[0], anchor=i)


def dressing_field_along(params: ModelParams, path: DiscretePath, anchor) -> np.ndarray:
    """Node samples u_i(t) = -x_i(t), replicated; feeds the cocycle integrals."""
    u = decompose_shift(params, path.x, anchor)[1]
    return np.negative(u, out=u)


def frame_shift(params: ModelParams, path: DiscretePath, i, j) -> np.ndarray:
    """Anchor-change node samples Z_ij(t) = x_i(t) - x_j(t), replicated per block."""
    return decompose_shift(params, path.x, i)[1] - decompose_shift(params, path.x, j)[1]


def dressed_action(model: LagrangianModel, path: DiscretePath,
                   anchor) -> float | np.ndarray:
    """Action of the relational history.

    Computed two ways and cross-checked: (a) the bare action functional on the
    dressed path (the anchor's kinetic term vanishes with its block), and
    (b) bare action plus the cocycle integral of the anchor field -x_i(t);
    a disagreement above 1e-9 relative on any path raises RuntimeError.
    """
    params = model.params
    i = _anchor_index(anchor, params)
    internal, external = decompose_shift(params, path.x, i)
    split = action(model, path) + path_cocycle(model, path, -external).real_value
    return _cross_checked_action(model, replace(path, x=internal, anchor=i), split)


def _cross_checked_action(model: LagrangianModel, rel_path: DiscretePath,
                          split) -> float | np.ndarray:
    """``action`` of a relational path, checked against ``split``, the bare
    action plus the cocycle integral of the dressing field."""
    direct = action(model, rel_path)
    scale = 1.0 + abs(direct) + abs(split)
    bad = np.flatnonzero(abs(direct - split) > 1e-9 * scale)
    if bad.size:
        k = bad[0]
        raise RuntimeError(
            f"dressed action cross-check failed: {float(np.ravel(direct)[k])!r} "
            f"vs {float(np.ravel(split)[k])!r}")
    return direct


def residual_first_kind(params: ModelParams, rel_path: DiscretePath,
                        G: GaugeField | np.ndarray) -> DiscretePath:
    """Surviving internal-shift action on a relational path.

    Adds Ybar(t) = Y(t) - Y_i(t) nodewise; the anchor block stays exactly
    zero, so the result is again relational with the same anchor.  ``G`` is
    a GaugeField or its node samples Y, as for ``path_cocycle``.
    """
    if rel_path.anchor is None:
        raise ValueError("residual_first_kind expects a relational path")
    Y = _field_at_nodes(G, rel_path.t, params.dim)
    return shift_path_nodes(rel_path, decompose_shift(params, Y, rel_path.anchor)[0])


def identity_suite(model: LagrangianModel, path: DiscretePath, i, j,
                   G: GaugeField) -> dict[str, float | np.ndarray]:
    """Residuals of the dressed-cocycle transformation laws on one path.

    Every law is evaluated as path-integrated cocycle values, left and right
    sides computed independently; residuals are pure quadrature roundoff.
    Requires i != j.  ``G`` supplies internal-shift samples Y(t); its external
    part is split off with the particle-i anchoring.  On a stack of paths,
    ``i`` and ``j`` may be (n,) arrays and ``G`` a stack of n fields; each
    residual is then an (n,) array of the per-path values.
    """
    params = model.params
    i = _anchor_index(i, params)
    j = _anchor_index(j, params)
    if np.any(i == j):
        raise ValueError("identity suite needs two distinct anchors")
    t = path.t
    Y = G.value_at(t)
    pc = lambda pth, fld: path_cocycle(model, pth, fld).real_value

    # each split gives the relational path (internal part) and the dressing
    # field u = -(external part); Z_ij = u_j - u_i is bit for bit the same
    # as x_i - x_j replicated
    xbar_i, ext_i = decompose_shift(params, path.x, i)
    xbar_j, ext_j = decompose_shift(params, path.x, j)
    u_i, u_j = -ext_i, -ext_j
    rel_i = replace(path, x=xbar_i, anchor=i)
    rel_j = replace(path, x=xbar_j, anchor=j)
    z_ij = u_j - u_i
    ybar_i, y_i = decompose_shift(params, Y, i)
    ybar_j, y_j = decompose_shift(params, Y, j)
    # terms shared by several laws, each evaluated once
    c_u_i = pc(path, u_i)
    c_u_ybar = pc(path, u_i + ybar_i)
    c_rel_z = pc(rel_i, z_ij)
    c_rel_ybar = pc(rel_i, ybar_i)
    c_u_j = pc(path, u_j)
    # the dressed actions of both anchors, from the splits above
    s_bare = action(model, path)
    s_i = _cross_checked_action(model, rel_i, s_bare + c_u_i)

    out: dict[str, float | np.ndarray] = {}

    # external shift of the dressing cocycle: c(u)^X = c(u) - c(X)
    ext = params.replicate(np.linspace(0.3, -0.2, params.spatial_dim)
                           if params.spatial_dim > 1 else np.array([0.37]))
    Xext = np.outer(np.sin(1.7 * t) + 0.4 * t, ext)
    path_X = shift_path_nodes(path, Xext)
    lhs = pc(path_X, dressing_field_along(params, path_X, i))
    rhs = c_u_i - pc(path, Xext)
    out["dressing-cocycle-external-shift"] = abs(lhs - rhs)

    # internal shift: c(u)^Y = c(u + Ybar) - c(Y)
    path_Y = shift_path_nodes(path, Y)
    xbarY_i, extY_i = decompose_shift(params, path_Y.x, i)
    lhs = pc(path_Y, -extY_i)
    rhs = c_u_ybar - pc(path, Y)
    out["dressing-cocycle-internal-shift"] = abs(lhs - rhs)

    # expanded form: c(u + Ybar) = c(u) + c(f_u(.), Ybar)
    out["dressing-cocycle-internal-shift-expanded"] = abs(
        c_u_ybar - (c_u_i + c_rel_ybar))

    # frame change of the dressing cocycle: c(u_j) = c(u_i) + c(f_{u_i}(.), Z)
    out["dressing-cocycle-frame-shift"] = abs(c_u_j - (c_u_i + c_rel_z))

    # internal transformation of the frame shift: Z^Y = Z + (Y_i - Y_j)
    z_transformed = extY_i - decompose_shift(params, path_Y.x, j)[1]
    out["frame-shift-internal-transform"] = _float_or_array(
        np.abs(z_transformed - (z_ij + (y_i - y_j))).max(axis=(-2, -1)))

    # c(f_{u_i}(.), Z)^Y = c(f_{u_i}(.), Z) + c(f_{u_j}(.), Ybar^j) - c(f_{u_i}(.), Ybar^i)
    lhs = pc(replace(path_Y, x=xbarY_i, anchor=i), z_transformed)
    rhs = c_rel_z + pc(rel_j, ybar_j) - c_rel_ybar
    out["frame-cocycle-internal-shift"] = abs(lhs - rhs)

    # frame covariance of the dressed action: S^{u_j} = S^{u_i} + c(f_{u_i}(.), Z)
    out["dressed-action-frame-covariance"] = abs(
        _cross_checked_action(model, rel_j, s_bare + c_u_j) - (s_i + c_rel_z))

    # first-kind residual of the dressed action: S[(gamma^u)^Ybar] = S^u + c_{gamma^u}(Ybar)
    lhs = action(model, residual_first_kind(params, rel_i, Y))
    out["dressed-action-internal-shift"] = abs(lhs - (s_i + c_rel_ybar))

    return out


def dressed_critical_path(model: LagrangianModel, p0: Config, p1: Config,
                          M: int, anchor, tol: float = 1e-10) -> DiscretePath:
    """Critical path of the dressed action between bare endpoints p0, p1,
    dressed on the one particle ``anchor``.

    The anchor block is frozen at zero.  For the free model the non-anchor
    blocks are straight lines; with a (translation-invariant) potential the
    reduced boundary-value problem is solved by the same Newton iteration.
    """
    params = model.params
    i = _particle_index(anchor, params.n_particles, "anchor")
    q0, q1 = dress_config(params, p0, i), dress_config(params, p1, i)

    if model.potential is None:
        return replace(DiscretePath.straight(q0, q1, M), anchor=i)

    # reduced model over the non-anchor blocks, anchor block pinned at zero
    red_params = ModelParams(params.n_particles - 1, params.spatial_dim,
                             np.delete(params.masses, i), params.hbar)
    sel = np.delete(np.arange(params.dim), params.block(i))

    def embed(xred: np.ndarray) -> np.ndarray:
        full = np.zeros(xred.shape[:-1] + (params.dim,))
        full[..., sel] = xred
        return full

    red_model = LagrangianModel(
        red_params,
        potential=lambda xr: model.potential(embed(xr)),
        potential_grad=lambda xr: model.gradient(embed(xr))[..., sel],
    )
    red_path = solve_critical_path(
        red_model, Config(q0.t, q0.x[sel]), Config(q1.t, q1.x[sel]), M, tol=tol)
    return replace(red_path, x=embed(red_path.x), anchor=i)
