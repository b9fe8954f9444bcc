"""Maximization of QFI over probe momentum Omega and orientation theta_a.

The objectives are cheap closed forms, so every search is a dense bracket
scan followed by golden-section refinement of each grid-local maximum; no
unimodality is assumed. Momentum grids are logarithmic over the one bracket
DEFAULT_OMEGA_BRACKET: the QFI vanishes at both ends, so optima are interior.

Every search solves a batch of independent problems in lockstep: each
golden-section step makes one objective call on arrays over a fixed set of
lanes (problem x candidate), finished lanes included. The one-problem
functions wrap these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .closedform import _check_radius, _ea_cr, _nea_factors, _nea_ratio, nea_qfi
from .scatter import DetectionMode

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

DEFAULT_OMEGA_BRACKET = (0.05, 10.0)
NEA_GRID = (181, 121)  # (theta_a, log Omega) nodes of the NEA seeding
MAX_ITER = 300  # golden-section evaluations per lane


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


@dataclass(frozen=True)
class EnvelopePoint:
    """Best QFI over the probe controls at one target parameter value."""

    v_z: float
    best_qfi: float
    omega_star: float
    theta_a_star: Optional[float] = None


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
        y = np.broadcast_to(np.asarray(objective(x, k), dtype=float), x.shape)
        if not np.all(np.isfinite(y)):
            raise ValueError(f"objective is not finite at {name}={x[~np.isfinite(y)][0]}")
        return y

    ys = f(np.broadcast_to(xs, (n, n_grid)), np.arange(n)[:, None])
    # grid-local maxima; a plateau keeps its first point
    prob, i = np.nonzero(_local_maxima(ys, (1,), strict_before=True))
    top = _first_per_problem(prob, [-ys[prob, i], i], 16)
    prob, i = prob[top], i[top]

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


# cos(k theta) at the nodes theta = j pi/4 (rows j, columns k = 0..4): a cosine
# polynomial of degree <= 4 is fixed by its values there
_THETA_NODES = np.arange(5) * (math.pi / 4)
_THETA_FIT = np.linalg.inv(np.cos(np.outer(_THETA_NODES, np.arange(5))))


def _theta_form(v, w, mode: DetectionMode):
    """NEA QFI of lanes (v, W = w) as a function of their probe angles theta_a.

    Every factor of ``nea_qfi`` is a cosine polynomial of degree <= 4 in
    theta_a, fitted once per lane from its values at the five nodes.
    """
    at_nodes = np.stack(np.broadcast_arrays(*_nea_factors(
        v[:, None], _THETA_NODES, w[:, None], mode)))
    coef = np.einsum("kj,flj->flk", _THETA_FIT, at_nodes)  # (factor, lane, k)
    powers = np.arange(5)
    return lambda t: _nea_ratio(
        np.einsum("flk,lk->fl", coef, np.cos(np.multiply.outer(t, powers))), w, mode)


def _omega_form(v, theta, u_lo, u_hi, mode: DetectionMode):
    """NEA QFI of lanes (v, theta) as a function of their log Omega in [u_lo, u_hi].

    Every factor of ``nea_qfi`` is a quadratic in W = Omega^2, fitted once per
    lane from its values at the two ends and the centre of the lane's W range.
    """
    w_lo, w_hi = np.exp(u_lo)**2, np.exp(u_hi)**2
    mid, half = 0.5 * (w_lo + w_hi), 0.5 * (w_hi - w_lo)
    nodes = mid[:, None] + half[:, None] * np.array([-1.0, 0.0, 1.0])
    f_lo, f_mid, f_hi = np.moveaxis(np.stack(np.broadcast_arrays(*_nea_factors(
        v[:, None], theta[:, None], nodes, mode))), -1, 0)
    # coefficients of x^0, x^1, x^2 per (factor, lane), x = (W - mid) / half in [-1, 1]
    q0, q1, q2 = f_mid, 0.5 * (f_hi - f_lo), 0.5 * (f_hi + f_lo) - f_mid

    def qfi(u):
        w = np.exp(u)**2
        x = (w - mid) / half
        return _nea_ratio(q0 + x * (q1 + x * q2), w, mode)
    return qfi


# NEA seeding scans every SEED_STRIDE-th (theta_a, log Omega) node, then
# full-resolution windows of SEED_WINDOW x SEED_WINDOW nodes
SEED_STRIDE = 3
SEED_WINDOW = 9


def _scan(v, theta, omega, mode: DetectionMode) -> np.ndarray:
    y = nea_qfi(v, theta, omega, mode)
    if not np.all(np.isfinite(y)):
        raise ValueError("QFI surface is not finite on the scan grid")
    return y


def _windows(v_z, thetas, omegas, mode: DetectionMode, prob, i0, j0, shape, seen):
    """Evaluate full-resolution windows of ``shape`` at origins (i0, j0) of targets ``prob``.

    Returns the window maxima whose grid neighbours all lie in the window, as
    (prob, i, j, value): these are grid-local maxima. The window maxima on a
    window border inside the grid come back as (prob, i, j, si, sj), since
    their missing neighbour may be higher; si, sj in {-1, 0, 1} point out of
    the window. Every point whose grid neighbours all lie in its window is
    marked in ``seen``.
    """
    n_t, n_w = seen.shape[1:]
    rows = i0[:, None] + np.arange(shape[0])
    cols = j0[:, None] + np.arange(shape[1])
    y = _scan(v_z[prob, None, None], thetas[rows][:, :, None], omegas[cols][:, None, :], mode)
    in_t = ((rows > i0[:, None]) | (rows == 0)) & ((rows < rows[:, -1:]) | (rows == n_t - 1))
    in_w = ((cols > j0[:, None]) | (cols == 0)) & ((cols < cols[:, -1:]) | (cols == n_w - 1))
    inner = in_t[:, :, None] & in_w[:, None, :]
    k, a, b = np.nonzero(inner)
    seen[prob[k], rows[k, a], cols[k, b]] = True
    k, a, b = np.nonzero(_local_maxima(y, (1, 2)))
    at, done = (prob[k], rows[k, a], cols[k, b]), inner[k, a, b]
    step = (a == shape[0] - 1).astype(int) - (a == 0), (b == shape[1] - 1).astype(int) - (b == 0)
    return (*(x[done] for x in at), y[k, a, b][done]), tuple(x[~done] for x in (*at, *step))


def _nea_seeds(v_z, thetas, omegas, mode: DetectionMode):
    """Grid-local maxima of ``nea_qfi`` on the (theta_a, Omega) grid of each target.

    Returns (prob, i, j, value), sorted by (prob, i, j), from a fraction of
    the grid's nodes; each stage is one ``nea_qfi`` call for all targets:
      * the full-resolution bands of rows {0, 1} and {n-2, n-1}: the surface
        is even in theta_a about 0 and pi, so every edge point is critical
        in theta_a and an edge maximum's basin can be narrower than a stride;
      * a coarse scan of every SEED_STRIDE-th node (and the last) per axis;
      * a full-resolution window around each coarse local maximum, whose
        4-neighbour maxima off the window's border are grid-local maxima;
      * re-centring: a window maximum on the window's border (not the
        grid's) opens a window there, one call per round until none is
        left: a hill climb on the full grid.
    Every point returned is a grid-local maximum with its full-grid value.
    That none is missed is checked against full-grid scans on NEA_GRID and
    a set of others (tests/test_optimize.py), not proven: on a grid
    much coarser than the surface, a ridge between coarse nodes can carry a
    maximum that no window reaches.
    """
    n_t, n_w = thetas.size, omegas.size
    seen = np.zeros((v_z.size, n_t, n_w), dtype=bool)
    prob = np.repeat(np.arange(v_z.size), 2)
    found, _ = _windows(v_z, thetas, omegas, mode, prob, np.tile([0, n_t - 2], v_z.size),
                        np.zeros_like(prob), (2, n_w), seen)
    # the bands' border maxima open no window: a climb from them crosses the
    # grid to maxima that the coarse windows find
    seeds = [found]

    ci = np.r_[0:n_t - 1:SEED_STRIDE, n_t - 1]
    cj = np.r_[0:n_w - 1:SEED_STRIDE, n_w - 1]
    coarse = _scan(v_z[:, None, None], thetas[ci][:, None], omegas[cj], mode)
    prob, a, b = np.nonzero(_local_maxima(coarse, (1, 2)))
    i, j, si, sj = ci[a], cj[b], 0, 0

    # a coarse maximum is the centre of its window; a climbing point sits one
    # node in from the new window's edge, so the window extends ahead of it
    half = SEED_WINDOW // 2
    shape = (min(SEED_WINDOW, n_t), min(SEED_WINDOW, n_w))
    while prob.size:
        i0 = np.clip(i - half + si * (half - 1), 0, n_t - shape[0])
        j0 = np.clip(j - half + sj * (half - 1), 0, n_w - shape[1])
        first = _first_per_problem((prob * n_t + i0) * n_w + j0, [])  # one per origin
        found, climb = _windows(v_z, thetas, omegas, mode, prob[first], i0[first],
                                j0[first], shape, seen)
        seeds.append(found)
        prob, i, j, si, sj = (x[~seen[climb[:3]]] for x in climb)

    prob, i, j, value = (np.concatenate(x) for x in zip(*seeds))
    first = _first_per_problem((prob * n_t + i) * n_w + j, [])  # one per node
    return prob[first], i[first], j[first], value[first]


def maximize_nea_batch(v_z, mode: DetectionMode = DetectionMode.BOTH,
                       tol: float = 1e-8) -> list[OptResult]:
    """Best unentangled-probe QFI over (theta_a, Omega) at each z-axis target.

    Per target, the grid-local maxima on NEA_GRID = (n_theta, n_omega) nodes
    over theta_a in [0, pi] x log Omega in DEFAULT_OMEGA_BRACKET, found by
    ``_nea_seeds`` without evaluating the whole grid; then the best six of
    every target are refined together by coordinate-descent golden section, a
    lane leaving once it stops moving. Each round fits every lane's QFI
    factors once per coordinate (a cosine polynomial in theta_a, a quadratic
    in W = Omega^2) and the steps evaluate those fits. Among near-equal optima
    the smallest theta_a is returned, with its value from ``nea_qfi``.
    """
    v_z = np.asarray(v_z, dtype=float).ravel()
    if not np.all(np.abs(v_z) < 1.0):
        raise ValueError("v_z must satisfy |v_z| < 1")
    n_theta, n_omega = NEA_GRID
    thetas = np.linspace(0.0, math.pi, n_theta)
    u_lo, u_hi = (math.log(x) for x in DEFAULT_OMEGA_BRACKET)
    us = np.linspace(u_lo, u_hi, n_omega)

    prob, i, j, value = _nea_seeds(v_z, thetas, np.exp(us), mode)
    top = _first_per_problem(prob, [-value, i, j], 6)
    prob, theta, u = prob[top], thetas[i[top]], us[j[top]]
    evals = np.zeros(prob.size, dtype=int)
    ok = np.ones(prob.size, dtype=bool)

    w_theta = 2.0 * math.pi / (n_theta - 1)
    w_u = 2.0 * (u_hi - u_lo) / (n_omega - 1)

    act = np.arange(prob.size)
    for _ in range(40):
        if not act.size:
            break
        t0, u0, v = theta[act], u[act], v_z[prob[act]]
        t_new, _, ev1, ok1 = _golden_max(
            _theta_form(v, np.exp(u0)**2, mode),
            np.maximum(0.0, t0 - w_theta), np.minimum(math.pi, t0 + w_theta),
            lambda a, b: (b - a) <= tol * (1.0 + t0))
        a, b = np.maximum(u_lo, u0 - w_u), np.minimum(u_hi, u0 + w_u)
        u_new, _, ev2, ok2 = _golden_max(
            _omega_form(v, t_new, a, b, mode), a, b,
            lambda a, b: np.exp(b) - np.exp(a) <= tol * (1.0 + np.exp(0.5 * (a + b))))
        evals[act] += ev1 + ev2
        ok[act] &= ok1 & ok2
        moved = np.maximum(np.abs(t_new - t0),
                           np.abs(np.exp(u_new) - np.exp(u0)) / (1.0 + np.exp(u_new)))
        theta[act], u[act] = t_new, u_new
        act = act[moved > 10.0 * tol]
    ok[act] = False  # still moving after the last round

    value = nea_qfi(v_z[prob], theta, np.exp(u), mode)
    best = value[_first_per_problem(prob, [-value])][prob]
    near = np.flatnonzero(value >= best - 1e-9 * (1.0 + np.abs(best)))
    pick = near[_first_per_problem(prob[near], [theta[near]])]
    return _results(prob, v_z.size, evals, ok, pick,
                    [("theta_a", theta), ("omega", np.exp(u))], value)


def maximize_nea(v_z: float, mode: DetectionMode = DetectionMode.BOTH,
                 tol: float = 1e-8) -> OptResult:
    """Best unentangled-probe QFI at one z-axis target (``maximize_nea_batch`` of one)."""
    return maximize_nea_batch([v_z], mode, tol)[0]


def maximize_ea_batch(v_z, mode: DetectionMode, tol: float = 1e-8) -> list[OptResult]:
    """Best EA QFI over Omega in DEFAULT_OMEGA_BRACKET at each z-axis target, in lockstep.

    The z-axis QFI is the radial coefficient c_r at r = |v_z|, so a grid of
    radii r >= 0 gives the best c_r at each radius.
    """
    r2 = _check_radius(np.abs(np.asarray(v_z, dtype=float).ravel()), strict=True)**2
    return maximize_1d_batch(lambda om, k: _ea_cr(r2[k], om**2, mode), r2.size,
                             DEFAULT_OMEGA_BRACKET, tol=tol, name="omega")


def ea_envelope_point(v_z: float, mode: DetectionMode, tol: float = 1e-8) -> EnvelopePoint:
    """Best EA QFI over Omega at one z-axis target value."""
    res = maximize_ea_batch([v_z], mode, tol)[0]
    return EnvelopePoint(v_z, res.value, res.param("omega"))


def nea_envelope_point(v_z: float, mode: DetectionMode, tol: float = 1e-8) -> EnvelopePoint:
    """Best NEA QFI over (theta_a, Omega) at one z-axis target value."""
    res = maximize_nea(v_z, mode, tol)
    return EnvelopePoint(v_z, res.value, res.param("omega"), res.param("theta_a"))


def ea_optimality_intervals(mode: DetectionMode, tol: float = 1e-8) -> tuple[float, float]:
    """Range spanned by the optimal momentum of the radial QFI over radii 0 to 0.99."""
    best = maximize_ea_batch(np.linspace(0.0, 0.99, 50), mode, tol)
    stars = [res.param("omega") for res in best]
    return (min(stars), max(stars))
