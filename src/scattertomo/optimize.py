"""Maximization of QFI over probe momentum Omega and orientation theta_a.

The objectives are cheap closed forms, so every search is a dense bracket
scan followed by local refinement of each grid-local maximum; no
unimodality is assumed. Momentum grids are logarithmic over the one bracket
DEFAULT_OMEGA_BRACKET: the QFI vanishes at both ends, so optima are interior.
A user objective of one variable is refined by golden section. The EA search
refines by a safeguarded Newton iteration on the critical-point polynomial of
c_r in W = Omega^2, whose sign is that of dc_r/dW. The NEA search scans a
coarse (theta_a, log Omega) grid, the QFI's factors fitted in theta_a from
five nodes, and refines by a projected, damped Newton ascent on exact
bivariate forms of the factors, which give the QFI's gradient and Hessian;
since the forms are exact on any box, a seed need only lie in its maximum's basin.

Every search solves a batch of independent problems in lockstep: each step
makes one array call on a fixed set of lanes (problem x candidate), finished
lanes included, and ``iterations`` counts a lane's evaluations (for EA, its
Newton steps). ``maximize_nea`` and ``maximize_ea`` broadcast as the closed
forms do: one OptResult for a scalar target, a list of one per target for an
array. The NEA search takes one detection mode for the batch or one per
problem: each mode is scanned and seeded on its own, and one lockstep refines
the lanes of every mode, each on its own mode's forms, so a problem's result
is that of a batch of its mode alone. Figures 7 and 8 solve all three modes
in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .closedform import (_check_radius, _ea_cr, _ea_cr_critical, _nea_factors,
                         _nea_ratio, nea_qfi)
from .scatter import DetectionMode

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

DEFAULT_OMEGA_BRACKET = (0.05, 10.0)
NEA_GRID = (61, 41)  # (theta_a, log Omega) nodes of the NEA seeding scan
EA_GRID = 64  # log Omega nodes of the EA seeding scan
MAX_ITER = 300  # objective evaluations (EA: Newton steps) per lane
ROUNDING = 1e-13  # relative change of a value taken as lost in rounding


class ConvergenceError(RuntimeError):
    """An optimization failed to converge within its iteration budget."""


@dataclass(frozen=True)
class OptResult:
    """Outcome of a QFI maximization."""

    argmax: tuple[tuple[str, float], ...]
    value: float
    iterations: int
    converged: bool

    def param(self, name: str) -> float:
        for key, val in self.argmax:
            if key == name:
                return val
        raise KeyError(name)


def _golden_max(f, lo, hi, stop):
    """Golden-section maximization in lockstep, one lane per bracket [lo[k], hi[k]].

    f(x) and the convergence test stop(lo, hi) take arrays over all lanes.
    Each lane runs the scalar algorithm; its result is recorded when its test
    first passes, or unconverged after MAX_ITER evaluations, and it keeps
    stepping until every lane has finished. Returns arrays (x, f(x), evals, ok).
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    out = [np.empty(lo.size), np.empty(lo.size), np.empty(lo.size, dtype=int),
           np.empty(lo.size, dtype=bool)]
    finished = np.zeros(lo.size, dtype=bool)
    c = hi - INV_PHI * (hi - lo)
    d = lo + INV_PHI * (hi - lo)
    fc, fd = np.asarray(f(c), dtype=float), np.asarray(f(d), dtype=float)
    evals = 2  # every lane has spent the same number
    while True:
        ok = stop(lo, hi)
        new = ~finished & (ok | (evals >= MAX_ITER))
        if new.any():
            pick_c = fc >= fd
            for res, val in zip(out, (np.where(pick_c, c, d), np.where(pick_c, fc, fd),
                                      np.full(lo.size, evals), ok)):
                res[new] = val[new]
            finished |= new
        if finished.all():
            return tuple(out)
        left = fc >= fd
        hi, lo = np.where(left, d, hi), np.where(left, lo, c)
        step = INV_PHI * (hi - lo)
        x = np.where(left, hi - step, lo + step)
        y = np.asarray(f(x), dtype=float)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, y, fd), np.where(left, fc, y)
        evals += 1


def _quadratic(h, d):
    """d^T H d per lane, for H stored as its (tt, tu, uu) entries."""
    return h[0] * d[0]**2 + 2.0 * h[1] * d[0] * d[1] + h[2] * d[1]**2


def _ascent_step(jet, x, lo, hi, width):
    """Step of each lane (column) from its jet at x in the box [lo, hi].

    A coordinate on a bound whose gradient points out of the box is held.
    On the free ones the step is Newton's where their Hessian is negative
    definite. Else it goes along the gradient: to the quadratic model's
    maximum where the model curves down that way (the Cauchy point), or with
    its largest component one ``width`` long. A coordinate on a bound whose
    gradient does not point out and whose own second derivative is positive
    steps one width into the box instead.
    """
    g = jet[1:3]
    on_lo, on_hi = x <= lo, x >= hi
    free = ~((on_lo & (g <= 0.0)) | (on_hi & (g >= 0.0)))
    # such a bound is a minimum along the coordinate; the NEA surface is even
    # about theta_a = 0 and pi, so its theta_a gradient there is zero (exactly
    # at 0, to rounding at pi)
    escape = ((on_lo & (g >= 0.0)) | (on_hi & (g <= 0.0))) & (jet[[3, 5]] > 0.0)
    g = np.where(free, g, 0.0)
    a = np.where(free[0], jet[3], -1.0)
    b = np.where(free[0] & free[1], jet[4], 0.0)
    c = np.where(free[1], jet[5], -1.0)
    det = a * c - b * b
    newton = (a < 0.0) & (det > 0.0)
    d_newton = np.stack([b * g[1] - c * g[0], b * g[0] - a * g[1]]) / np.where(newton, det, 1.0)
    curve = _quadratic((a, b, c), g)
    wide = np.abs(g / width[:, None]).max(axis=0)
    length = np.where(curve < 0.0, -(g * g).sum(axis=0) / np.where(curve < 0.0, curve, 1.0),
                      1.0 / np.where(wide > 0.0, wide, 1.0))
    inward = np.where(on_lo, 1.0, -1.0) * width[:, None]
    return np.where(escape, inward, np.where(newton, d_newton, length * g))


def _newton_max(q, x, lo, hi, width, stop):
    """Projected, damped Newton ascent in lockstep, one lane per column of x (2, lane).

    q(x0, x1) gives the objective's jet (``_Jet.d``) at every lane, and each
    lane stays in its box [lo, hi]. A lane tries ``_ascent_step``, clipped to
    its box, and halves it until the objective does not decrease. A lane
    finishes once stop(x, x_try) passes for a trial point it evaluated (taking
    the point if it is not lower), or unconverged after MAX_ITER evaluations,
    and then no longer moves while the others step. Returns arrays (x, evals, ok).
    """
    n = x.shape[1]
    out_evals, ok = np.empty(n, dtype=int), np.empty(n, dtype=bool)
    finished = np.zeros(n, dtype=bool)
    width = np.asarray(width, dtype=float)
    jet = q(*x)
    evals = 1  # every lane has spent the same number
    step, t = _ascent_step(jet, x, lo, hi, width), np.ones(n)
    while True:
        x_try = np.clip(x + t * step, lo, hi)
        jet_try = q(*x_try)
        evals += 1
        done = stop(x, x_try)
        # the rise in the objective: the values' difference or, where that is
        # lost in rounding, the cubic Hermite rule on the jets at both ends
        dx = x_try - x
        hermite = (0.5 * ((jet[1:3] + jet_try[1:3]) * dx).sum(axis=0)
                   + _quadratic(jet[3:] - jet_try[3:], dx) / 12.0)
        rise = jet_try[0] - jet[0]
        rise = np.where(np.abs(rise) <= ROUNDING * np.abs(jet[0]), hermite, rise)
        up = ~finished & (rise >= 0.0)
        x, jet = np.where(up, x_try, x), np.where(up, jet_try, jet)
        step = np.where(up, _ascent_step(jet, x, lo, hi, width), step)
        t = np.where(up, 1.0, 0.5 * t)
        new = ~finished & (done | (evals >= MAX_ITER))
        ok[new], out_evals[new] = done[new], evals
        finished |= new
        if finished.all():
            return x, out_evals, ok


def _local_maxima(y: np.ndarray, axes: tuple[int, ...], strict_before: bool = False) -> np.ndarray:
    """Points of a finite scan at least as high as their neighbours along ``axes``.

    With ``strict_before`` a point must also beat its predecessor outright, so a
    plateau keeps only its first point. Points on an edge miss a neighbour, and
    the missing comparison passes.
    """
    local = np.ones(y.shape, dtype=bool)
    for axis in axes:
        at = (slice(None),) * axis
        later, earlier = at + (slice(1, None),), at + (slice(None, -1),)
        local[later] &= (y[later] > y[earlier]) if strict_before else (y[later] >= y[earlier])
        local[earlier] &= y[earlier] >= y[later]
    return local


def _first_per_problem(prob: np.ndarray, keys: list, limit: int = 1) -> np.ndarray:
    """Indices of the first `limit` entries of each problem, by keys (most significant first)."""
    order = np.lexsort(tuple(keys[::-1]) + (prob,))
    prob = prob[order]
    return order[np.arange(order.size) - np.searchsorted(prob, prob) < limit]


def _scan_seeds(ys: np.ndarray):
    """(problem, node) of the best 16 grid-local maxima of each row of a 1-D scan.

    A plateau keeps its first point; ties go to the smaller node.
    """
    prob, i = np.nonzero(_local_maxima(ys, (1,), strict_before=True))
    top = _first_per_problem(prob, [-ys[prob, i], i], 16)
    return prob[top], i[top]


def _results(prob, n, evals, ok, pick, argmax, value) -> list[OptResult]:
    """One OptResult per problem: its picked lane, summed evals, all lanes converged."""
    iterations = np.bincount(prob, weights=evals, minlength=n)
    failed = np.bincount(prob, weights=~ok, minlength=n)
    return [OptResult(tuple((name, float(x[p])) for name, x in argmax), float(value[p]),
                      int(iterations[k]), not failed[k])
            for k, p in enumerate(pick)]


def maximize_1d_batch(objective: Callable[[np.ndarray, np.ndarray], np.ndarray], n: int,
                      bracket: tuple[float, float], tol: float = 1e-8, n_grid: int = 64,
                      name: str = "x") -> list[OptResult]:
    """Maximize n independent objectives on one bracket, in lockstep.

    objective(x, k) evaluates problems k at points x: on the scan x has shape
    (n, n_grid) and k (n, 1), on each golden-section step both have one entry
    per lane, and the result is broadcast to x's shape. Each problem gets a
    dense scan (log-spaced when the bracket is positive); its best 16
    grid-local maxima are refined by golden section and the best refined
    candidate is returned. Ties go to the smaller argument.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise ValueError(f"degenerate bracket ({lo}, {hi})")
    if n_grid < 2:
        raise ValueError("n_grid must be at least 2")
    use_log = lo > 0.0
    xs = np.geomspace(lo, hi, n_grid) if use_log else np.linspace(lo, hi, n_grid)
    to_u, from_u = (np.log, np.exp) if use_log else (np.asarray, np.asarray)

    def f(x, k):
        y = np.asarray(objective(x, k), dtype=float)
        if y.shape != x.shape:
            y = np.broadcast_to(y, x.shape)
        if not np.isfinite(y).all():
            raise ValueError(f"objective is not finite at {name}={x[~np.isfinite(y)][0]}")
        return y

    ys = f(np.broadcast_to(xs, (n, n_grid)), np.arange(n)[:, None])
    prob, i = _scan_seeds(ys)

    u, fx, evals, ok = _golden_max(
        lambda uu: f(from_u(uu), prob),
        to_u(xs[np.maximum(i - 1, 0)]), to_u(xs[np.minimum(i + 1, n_grid - 1)]),
        lambda a, b: from_u(b) - from_u(a) <= tol * (1.0 + np.abs(from_u(0.5 * (a + b)))))
    x = from_u(u)
    pick = _first_per_problem(prob, [-fx, x])
    return _results(prob, n, evals, ok, pick, [(name, x)], fx)


def maximize_1d(objective: Callable[[float], float], bracket: tuple[float, float],
                tol: float = 1e-8, n_grid: int = 64, name: str = "x") -> OptResult:
    """Maximize an objective of one float, called once per point (a batch of one)."""
    mapped = np.vectorize(lambda x: float(objective(x)), otypes=[float])
    return maximize_1d_batch(lambda x, k: mapped(x), 1, bracket, tol, n_grid, name)[0]


class _Jet:
    """Value, gradient and Hessian over (theta_a, log Omega), one column per lane.

    ``d`` stacks (f, f_t, f_u, f_tt, f_tu, f_uu) on axis 0. Jets add and
    multiply with each other and with numbers, and divide by jets: the
    operations of ``_nea_ratio``, so that one expression serves values and
    jets alike.
    """

    __slots__ = ("d",)

    def __init__(self, d: np.ndarray):
        self.d = d

    @staticmethod
    def _cross(a, b):
        # second-order terms of a product: a_i b_j + a_j b_i for (tt, tu, uu)
        return a[[1, 1, 2]] * b[[1, 2, 2]] + a[[1, 2, 2]] * b[[1, 1, 2]]

    def __add__(self, other):
        if isinstance(other, _Jet):
            return _Jet(self.d + other.d)
        d = self.d.copy()
        d[0] += other
        return _Jet(d)

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, _Jet):
            return _Jet(self.d * other)
        a, b = self.d, other.d
        d = a[0] * b + b[0] * a
        d[0] = a[0] * b[0]
        d[3:] += self._cross(a, b)
        return _Jet(d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # the quotient rule, solved from q b = a term by term
        a, b = self.d, other.d
        d = np.empty_like(a)
        d[0] = a[0] / b[0]
        d[1:] = (a[1:] - d[0] * b[1:]) / b[0]
        d[3:] -= self._cross(d, b) / b[0]
        return _Jet(d)


# cos(k theta) at the nodes theta = j pi/4 (rows j, columns k = 0..4): a cosine
# polynomial of degree <= 4 is fixed by its values there
_K = np.arange(5)
_THETA_NODES = _K * (math.pi / 4)
_THETA_FIT = np.linalg.inv(np.cos(np.outer(_THETA_NODES, _K)))


def _at_theta_nodes(v, w, mode: DetectionMode) -> np.ndarray:
    """Factors of lanes v at the _THETA_NODES and W = w[lane, node], as (factor, lane, j, node)."""
    return np.stack(np.broadcast_arrays(*_nea_factors(
        v[:, None, None], _THETA_NODES[:, None], w[:, None, :], mode)))


def _nea_scan(v, thetas, w, mode: DetectionMode) -> np.ndarray:
    """``nea_qfi`` of targets v at every node of thetas x w, from the factors at _THETA_NODES.

    The W-only factors of ``_nea_ratio`` scale the node tables before the
    cosine expansion: w/(1 + W) the numerator, and in both mode
    w/((1 + W)(1 + 9W)) g_t and g_m. So the full grid takes only the products
    of factors that depend on theta_a: 3 (t), 2 (r) or 9 (both) array operations.
    """
    nodes = _at_theta_nodes(v, w[None], mode)
    scale = w / (1.0 + w)
    if mode is DetectionMode.BOTH:
        nodes[[4, 6]] *= scale / (1.0 + 9.0 * w)
    else:
        nodes[3 if mode is DetectionMode.TRANSMISSION else 1] *= scale
    at_grid = np.cos(np.outer(thetas, _K)) @ _THETA_FIT @ nodes
    if mode is DetectionMode.TRANSMISSION:
        d_t, f_t, f_r, num = at_grid
        return num / (d_t * f_t * f_r)
    if mode is DetectionMode.REFLECTION:
        d_r, num, den = at_grid
        return num / (den * d_r)
    d_t, d_r, f_t, f_r, g_t, g_r, g_m = at_grid
    return (f_r * d_t * g_t + d_r * g_r * g_m) / (d_t * d_r * f_t * f_r)


def _nea_form(v, u_lo, u_hi, mode: DetectionMode):
    """NEA QFI of lanes v over (theta_a, log Omega in [u_lo, u_hi]), with its derivatives.

    Every factor of ``nea_qfi`` is a cosine polynomial of degree <= 4 in
    theta_a times a quadratic in W = Omega^2, fitted once per lane from its
    values at the five ``_THETA_NODES`` and at the two ends and the centre of
    the lane's W range. Returns q(theta, u): the (6, lane) stack of the QFI
    and its derivatives as in ``_Jet.d``, at theta_a = theta, Omega = exp(u).
    """
    w_lo, w_hi = np.exp(u_lo)**2, np.exp(u_hi)**2
    mid, half = 0.5 * (w_lo + w_hi), 0.5 * (w_hi - w_lo)
    nodes = mid[:, None] + half[:, None] * np.array([-1.0, 0.0, 1.0])
    f_lo, f_mid, f_hi = np.einsum("kj,flji->iflk", _THETA_FIT, _at_theta_nodes(v, nodes, mode))
    # coefficients of cos(k theta) x^p per (factor, lane, k, p), x = (W - mid) / half
    coef = np.stack([f_mid, 0.5 * (f_hi - f_lo), 0.5 * (f_hi + f_lo) - f_mid], axis=-1)

    def q(theta, u):
        kt = np.multiply.outer(theta, _K)
        cos_kt = np.cos(kt)
        # d^o/dtheta^o cos(k theta), o = 0, 1, 2, then the x-polynomials' coefficients
        c = np.einsum("olk,flkp->oflp", np.stack([cos_kt, -_K * np.sin(kt), -_K**2 * cos_kt]),
                      coef)
        w = np.exp(u)**2
        x = (w - mid) / half
        x_u = 2.0 * w / half  # dx/du; d2x/du2 = 2 x_u
        val = c[..., 0] + x * (c[..., 1] + x * c[..., 2])  # (o, factor, lane)
        d_x = c[:2, ..., 1] + 2.0 * x * c[:2, ..., 2]
        d_xx = 2.0 * c[0, ..., 2]
        factors = np.stack([val[0], val[1], d_x[0] * x_u, val[2], d_x[1] * x_u,
                            (d_xx * x_u + 2.0 * d_x[0]) * x_u], axis=1)
        zero = np.zeros_like(w)
        return _nea_ratio([_Jet(f) for f in factors], _Jet(np.stack(
            [w, zero, 2.0 * w, zero, zero, 4.0 * w])), mode).d
    return q


def _nea_refine(v, theta, u, groups, tol: float):
    """Refine NEA lanes (v, theta_a, log Omega) from grid nodes by ``_newton_max``.

    ``groups`` lists (DetectionMode, lanes) pairs, lanes a slice: one lockstep
    refines every mode, each lane on its own mode's ``_nea_form``. Each lane's
    box is its node's +-2-cell neighbourhood on the coarse NEA_GRID, clipped to
    [0, pi] x log DEFAULT_OMEGA_BRACKET, on which the lane's form is exact to
    rounding; the lane stops once a step moves theta_a by at most tol and
    Omega by at most tol (1 + Omega). Returns arrays (theta, u, evals, ok).
    """
    u_lo, u_hi = (math.log(x) for x in DEFAULT_OMEGA_BRACKET)
    width = (2.0 * math.pi / (NEA_GRID[0] - 1), 2.0 * (u_hi - u_lo) / (NEA_GRID[1] - 1))
    lo = np.stack([np.maximum(0.0, theta - width[0]), np.maximum(u_lo, u - width[1])])
    hi = np.stack([np.minimum(math.pi, theta + width[0]), np.minimum(u_hi, u + width[1])])
    forms = [(lanes, _nea_form(v[lanes], lo[1, lanes], hi[1, lanes], m)) for m, lanes in groups]

    def q(theta, u):
        jet = np.empty((6, theta.size))
        for lanes, form in forms:
            jet[:, lanes] = form(theta[lanes], u[lanes])
        return jet
    (theta, u), evals, ok = _newton_max(
        q, np.stack([theta, u]), lo, hi, width,
        lambda x, y: np.maximum(np.abs(y[0] - x[0]), np.abs(np.exp(y[1]) - np.exp(x[1]))
                                / (1.0 + np.exp(y[1]))) <= tol)
    return theta, u, evals, ok


def _grid_maxima(y: np.ndarray) -> tuple[np.ndarray, ...]:
    """(problem, theta_a node, Omega node) of the grid-local maxima of a finite NEA scan.

    The points of ``np.nonzero(_local_maxima(y, (1, 2)))``, in its order: the
    maxima along theta_a, then of those only the ones at least as high as
    their two Omega neighbours, looked up by flat index.
    """
    flat = np.flatnonzero(_local_maxima(y, (1,)))
    y_flat, j, last = y.ravel(), flat % y.shape[2], y.shape[2] - 1
    at = y_flat[flat]
    keep = (((j == 0) | (at >= y_flat.take(flat - 1, mode="clip")))
            & ((j == last) | (at >= y_flat.take(flat + 1, mode="clip"))))
    return np.unravel_index(flat[keep], y.shape)


def _mode_groups(mode, n: int) -> list[tuple[DetectionMode, np.ndarray]]:
    """(mode, its targets) for one DetectionMode or a sequence of one per target."""
    if isinstance(mode, DetectionMode):
        return [(mode, np.arange(n))]
    modes = list(mode)
    if len(modes) != n:
        raise ValueError(f"need one detection mode per target: {len(modes)} for {n} targets")
    for m in modes:
        if not isinstance(m, DetectionMode):
            raise ValueError(f"a detection mode must be a DetectionMode, got {m!r}")
    return [(m, np.flatnonzero([x is m for x in modes])) for m in dict.fromkeys(modes)]


def maximize_nea(v_z, mode=DetectionMode.BOTH, tol: float = 1e-8) -> OptResult | list[OptResult]:
    """Best unentangled-probe QFI over (theta_a, Omega) at z-axis targets v_z.

    One OptResult for a scalar v_z, else a list of one per target. ``mode`` is
    one DetectionMode for all targets or a sequence of one per target. For
    each mode, one ``_nea_scan`` gives its targets' QFI at every node of
    NEA_GRID = (n_theta, n_omega) over theta_a in [0, pi] x log Omega in the
    bracket, from the factors at five theta_a nodes. The best six grid-local
    maxima of every target (by value, then node) are refined together, all
    modes in one ``_nea_refine``: a projected, damped Newton ascent in
    (theta_a, log Omega), one lane per seed, on the lane's exact bivariate
    form of the QFI (``_nea_form``). Among near-equal optima the smallest
    theta_a is returned, with its value from ``nea_qfi``. Each target's result
    is that of a call with its mode alone. ``iterations`` counts the form
    evaluations (each a value, gradient and Hessian) of every lane of the target.
    """
    scalar = np.ndim(v_z) == 0
    v_z = np.asarray(v_z, dtype=float).ravel()
    if not np.all(np.abs(v_z) < 1.0):
        raise ValueError("v_z must satisfy |v_z| < 1")
    groups = _mode_groups(mode, v_z.size)
    if v_z.size == 0:
        return []
    n_theta, n_omega = NEA_GRID
    thetas = np.linspace(0.0, math.pi, n_theta)
    u_lo, u_hi = (math.log(x) for x in DEFAULT_OMEGA_BRACKET)
    us = np.linspace(u_lo, u_hi, n_omega)

    seeds, lanes, start = [], [], 0
    for m, targets in groups:
        y = _nea_scan(v_z[targets], thetas, np.exp(us)**2, m)
        if not np.all(np.isfinite(y)):
            raise ValueError("QFI surface is not finite on the scan grid")
        prob, i, j = _grid_maxima(y)
        top = _first_per_problem(prob, [-y[prob, i, j], i, j], 6)
        seeds.append((targets[prob[top]], i[top], j[top]))
        lanes.append((m, slice(start, start + top.size)))
        start += top.size
    prob, i, j = (np.concatenate(x) for x in zip(*seeds))
    theta, u, evals, ok = _nea_refine(v_z[prob], thetas[i], us[j], lanes, tol)

    value = np.empty(prob.size)
    for m, at in lanes:
        value[at] = nea_qfi(v_z[prob[at]], theta[at], np.exp(u[at]), m)
    best = value[_first_per_problem(prob, [-value])][prob]
    near = np.flatnonzero(value >= best - 1e-9 * (1.0 + np.abs(best)))
    pick = near[_first_per_problem(prob[near], [theta[near]])]
    results = _results(prob, v_z.size, evals, ok, pick,
                       [("theta_a", theta), ("omega", np.exp(u))], value)
    return results[0] if scalar else results


def _newton_root(coef, w, lo, hi, stop):
    """Safeguarded Newton iteration on polynomials in lockstep, one lane per row of coef.

    coef holds each lane's coefficients of W^0, W^1, ..., w its start and
    [lo, hi] its bracket. After each evaluation the bracket keeps the side
    where the polynomial falls through zero: it moves up to a point where the
    polynomial is positive, else down to it, so w is always one of its ends. A
    Newton step that leaves the bracket is replaced by its midpoint. A lane
    finishes once stop(w, w_new) passes for a step, or unconverged after
    MAX_ITER steps, and the others step on. Returns arrays (w, steps, ok).
    """
    powers = np.arange(coef.shape[1])
    d_coef = coef[:, 1:] * powers[1:]
    out_w, out_steps = np.empty(w.size), np.empty(w.size, dtype=int)
    ok, finished = np.empty(w.size, dtype=bool), np.zeros(w.size, dtype=bool)
    steps = 0
    while True:
        w_powers = w[:, None]**powers
        p, dp = (coef * w_powers).sum(axis=1), (d_coef * w_powers[:, :-1]).sum(axis=1)
        rising = p > 0.0
        lo, hi = np.where(rising, w, lo), np.where(rising, hi, w)
        w_new = w - p / np.where(dp != 0.0, dp, np.nan)  # NaN leaves the bracket
        w_new = np.where((w_new >= lo) & (w_new <= hi), w_new, 0.5 * (lo + hi))
        steps += 1
        done = stop(w, w_new)
        new = ~finished & (done | (steps >= MAX_ITER))
        out_w[new], out_steps[new], ok[new] = w_new[new], steps, done[new]
        finished |= new
        if finished.all():
            return out_w, out_steps, ok
        w = w_new


def maximize_ea(v_z, mode: DetectionMode, tol: float = 1e-8) -> OptResult | list[OptResult]:
    """Best EA QFI over Omega in DEFAULT_OMEGA_BRACKET at z-axis targets v_z, in lockstep.

    One OptResult for a scalar v_z, else a list of one per target. The z-axis
    QFI is the radial coefficient c_r at r = |v_z|, so a grid of radii r >= 0
    gives the best c_r at each radius. One ``_ea_cr`` call scans EA_GRID
    log-spaced nodes for all radii; each radius's best 16 grid-local maxima
    seed ``_newton_root`` on c_r's critical-point polynomial in W = Omega^2,
    inside the seed's +-1-cell bracket, until a step moves Omega by at most
    tol (1 + Omega). A lane ends at the higher of that point and its bracket's
    ends, and a radius at its highest lane (ties to the smaller Omega), with
    the value from ``_ea_cr``. ``iterations`` counts the Newton steps of every
    lane of the radius.
    """
    r2 = _check_radius(np.abs(np.asarray(v_z, dtype=float).ravel()), strict=True)**2
    ws = np.geomspace(*DEFAULT_OMEGA_BRACKET, EA_GRID)**2
    prob, i = _scan_seeds(_ea_cr(r2[:, None], ws, mode))
    lo, hi = ws[np.maximum(i - 1, 0)], ws[np.minimum(i + 1, EA_GRID - 1)]

    w, steps, ok = _newton_root(
        _ea_cr_critical(r2[prob], mode), ws[i], lo, hi,
        lambda a, b: np.abs(np.sqrt(b) - np.sqrt(a)) <= tol * (1.0 + np.sqrt(b)))
    ends = np.stack([w, lo, hi])
    values = _ea_cr(r2[prob], ends, mode)
    best = np.argmax(values, axis=0)
    lanes = np.arange(prob.size)
    omega, value = np.sqrt(ends[best, lanes]), values[best, lanes]
    pick = _first_per_problem(prob, [-value, omega])
    results = _results(prob, r2.size, steps, ok, pick, [("omega", omega)], value)
    return results[0] if np.ndim(v_z) == 0 else results


def ea_optimality_intervals(mode: DetectionMode, tol: float = 1e-8) -> tuple[float, float]:
    """Range spanned by the optimal momentum of the radial QFI over radii 0 to 0.99."""
    best = maximize_ea(np.linspace(0.0, 0.99, 50), mode, tol)
    stars = [res.param("omega") for res in best]
    return (min(stars), max(stars))
