"""Maximization of QFI over probe momentum Omega and orientation theta_a.

The objectives are cheap closed forms, so every search is a dense bracket
scan followed by golden-section refinement of each grid-local maximum; no
unimodality is assumed. Momentum grids are logarithmic: the QFI vanishes at
both ends of the bracket, so optima are interior.

Every search solves a batch of independent problems in lockstep: each
golden-section step makes one broadcasting objective call for every lane
(problem x candidate) still searching. The one-problem functions wrap these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .closedform import (_check_omega, _check_radius, _ea_cr, _nea_factors, _nea_ratio, ea_cr,
                         nea_qfi)
from .scatter import DetectionMode

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

DEFAULT_OMEGA_BRACKET = (0.05, 10.0)


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


def _golden_max(f, lo, hi, stop, max_iter: int = 300):
    """Golden-section maximization in lockstep, one lane per bracket [lo[k], hi[k]].

    f(x, k) evaluates lanes k at points x (a lone lane gets a scalar x and k);
    stop(lo, hi, k) is their convergence test. Each lane runs the scalar
    algorithm and leaves when its test passes, or unconverged after max_iter
    evaluations. Returns arrays (x, f(x), evals, ok).
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    out = [np.empty(lo.size), np.empty(lo.size), np.empty(lo.size, dtype=int),
           np.empty(lo.size, dtype=bool)]
    k = np.arange(lo.size)
    c = hi - INV_PHI * (hi - lo)
    d = lo + INV_PHI * (hi - lo)
    fc, fd = np.asarray(f(c, k), dtype=float), np.asarray(f(d, k), dtype=float)
    evals = 2  # every unfinished lane has spent the same number
    while k.size:
        ok = stop(lo, hi, k)
        done = ok | (evals >= max_iter)
        if done.any():
            pick_c = fc >= fd
            for res, val in zip(out, (np.where(pick_c, c, d), np.where(pick_c, fc, fd),
                                      np.full(k.size, evals), ok)):
                res[k[done]] = val[done]
            k, lo, hi, c, d, fc, fd = (a[~done] for a in (k, lo, hi, c, d, fc, fd))
            continue
        left = fc >= fd
        hi, lo = np.where(left, d, hi), np.where(left, lo, c)
        step = INV_PHI * (hi - lo)
        x = np.where(left, hi - step, lo + step)
        # numpy evaluates a lone lane faster as scalars than as 1-element arrays
        y = np.asarray(f(x, k) if k.size > 1 else [f(x[0], k[0])], dtype=float)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, y, fd), np.where(left, fc, y)
        evals += 1
    return tuple(out)


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
                      log_grid: bool = True, name: str = "x") -> list[OptResult]:
    """Maximize n independent objectives on one bracket, in lockstep.

    objective(x, k) evaluates problems k at points x, broadcasting the two
    arrays. Each problem gets a dense scan (log-spaced when the bracket is
    positive); its best 16 grid-local maxima are refined by golden section
    and the best refined candidate is returned. Ties go to the smaller
    argument.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise ValueError(f"degenerate bracket ({lo}, {hi})")
    if n_grid < 2:
        raise ValueError("n_grid must be at least 2")
    use_log = log_grid and lo > 0.0
    xs = np.geomspace(lo, hi, n_grid) if use_log else np.linspace(lo, hi, n_grid)
    to_u, from_u = (np.log, np.exp) if use_log else (np.asarray, np.asarray)

    def f(x, k):
        x = np.broadcast_to(x, np.broadcast_shapes(np.shape(x), np.shape(k)))
        y = np.broadcast_to(np.asarray(objective(x, k), dtype=float), x.shape)
        if not np.all(np.isfinite(y)):
            raise ValueError(f"objective is not finite at {name}={x[~np.isfinite(y)][0]}")
        return y

    ys = f(xs[None, :], np.arange(n)[:, None])
    padded = np.pad(ys, ((0, 0), (1, 1)), constant_values=-math.inf)
    # grid-local maxima; a plateau keeps its first point
    prob, i = np.nonzero((ys > padded[:, :-2]) & (ys >= padded[:, 2:]))
    top = _first_per_problem(prob, [-ys[prob, i], i], 16)
    prob, i = prob[top], i[top]

    u, fx, evals, ok = _golden_max(
        lambda uu, k: f(from_u(uu), prob[k]),
        to_u(xs[np.maximum(i - 1, 0)]), to_u(xs[np.minimum(i + 1, n_grid - 1)]),
        lambda a, b, k: from_u(b) - from_u(a) <= tol * (1.0 + np.abs(from_u(0.5 * (a + b)))))
    x = from_u(u)
    pick = _first_per_problem(prob, [-fx, x])
    return _results(prob, n, evals, ok, pick, [(name, x)], fx)


def maximize_1d(objective: Callable[[float], float], bracket: tuple[float, float],
                tol: float = 1e-8, n_grid: int = 64, log_grid: bool = True,
                name: str = "x") -> OptResult:
    """Maximize an objective of one float, called once per point (a batch of one)."""
    mapped = np.vectorize(lambda x: float(objective(x)), otypes=[float])
    return maximize_1d_batch(lambda x, k: mapped(x), 1, bracket, tol, n_grid, log_grid, name)[0]


# cos(k theta) at the nodes theta = j pi/4 (rows j, columns k = 0..4): a cosine
# polynomial of degree <= 4 is fixed by its values there
_THETA_NODES = np.arange(5) * (math.pi / 4)
_THETA_FIT = np.linalg.inv(np.cos(np.outer(_THETA_NODES, np.arange(5))))


def _theta_form(v, w, mode: DetectionMode):
    """NEA QFI of lanes (v[k], W = w[k]) as a function (theta_a, k) of the probe angle.

    Every factor of ``nea_qfi`` is a cosine polynomial of degree <= 4 in
    theta_a, fitted once per lane from its values at the five nodes.
    """
    at_nodes = np.stack(np.broadcast_arrays(*_nea_factors(
        v[:, None], _THETA_NODES, w[:, None], mode)))
    coef = np.einsum("kj,flj->flk", _THETA_FIT, at_nodes)  # (factor, lane, k)
    powers = np.arange(5)
    return lambda t, k: _nea_ratio(
        np.einsum("f...k,...k->f...", coef[:, k], np.cos(np.multiply.outer(t, powers))),
        w[k], mode)


def _omega_form(v, theta, u_lo, u_hi, mode: DetectionMode):
    """NEA QFI of lanes (v[k], theta[k]) as a function (log Omega, k) on [u_lo[k], u_hi[k]].

    Every factor of ``nea_qfi`` is a quadratic in W = Omega^2, fitted once per
    lane from its values at the two ends and the centre of the lane's W range.
    """
    w_lo, w_hi = np.exp(u_lo)**2, np.exp(u_hi)**2
    mid, half = 0.5 * (w_lo + w_hi), 0.5 * (w_hi - w_lo)
    nodes = mid[:, None] + half[:, None] * np.array([-1.0, 0.0, 1.0])
    f_lo, f_mid, f_hi = np.moveaxis(np.stack(np.broadcast_arrays(*_nea_factors(
        v[:, None], theta[:, None], nodes, mode))), -1, 0)
    # coefficients (power, factor, lane) in x = (W - mid) / half, x in [-1, 1]
    quad = np.stack([f_mid, 0.5 * (f_hi - f_lo), 0.5 * (f_hi + f_lo) - f_mid])

    def qfi(u, k):
        w = np.exp(u)**2
        x, (q0, q1, q2) = (w - mid[k]) / half[k], quad[:, :, k]
        return _nea_ratio(q0 + x * (q1 + x * q2), w, mode)
    return qfi


def maximize_nea_batch(v_z, omega_bracket: tuple[float, float] = DEFAULT_OMEGA_BRACKET,
                       mode: DetectionMode = DetectionMode.BOTH,
                       grid: tuple[int, int] = (181, 121),
                       tol: float = 1e-8) -> list[OptResult]:
    """Best unentangled-probe QFI over (theta_a, Omega) at each z-axis target.

    Per target, a coarse vectorized grid over theta_a in [0, pi] x log Omega;
    then the best six grid-local maxima of every target are refined together
    by coordinate-descent golden section, a lane leaving once it stops
    moving. Each round fits every lane's QFI factors once per coordinate (a
    cosine polynomial in theta_a, a quadratic in W = Omega^2) and the steps
    evaluate those fits. Among near-equal optima the smallest theta_a is
    returned, with its value from ``nea_qfi``.
    """
    v_z = np.asarray(v_z, dtype=float).ravel()
    if not np.all(np.abs(v_z) < 1.0):
        raise ValueError("v_z must satisfy |v_z| < 1")
    lo, hi = float(omega_bracket[0]), float(omega_bracket[1])
    if not (0.0 < lo < hi) or not math.isfinite(hi):
        raise ValueError(f"degenerate omega bracket ({lo}, {hi})")
    n_theta, n_omega = grid
    thetas = np.linspace(0.0, math.pi, n_theta)
    u_lo, u_hi = math.log(lo), math.log(hi)
    us = np.linspace(u_lo, u_hi, n_omega)
    surface = np.empty((v_z.size, n_theta, n_omega))
    for row, v in zip(surface, v_z):
        row[...] = nea_qfi(v, thetas[:, None], np.exp(us)[None, :], mode)
    if not np.all(np.isfinite(surface)):
        raise ValueError("QFI surface is not finite on the scan grid")

    padded = np.pad(surface, ((0, 0), (1, 1), (1, 1)), constant_values=-math.inf)
    local = ((surface >= padded[:, :-2, 1:-1]) & (surface >= padded[:, 2:, 1:-1])
             & (surface >= padded[:, 1:-1, :-2]) & (surface >= padded[:, 1:-1, 2:]))
    prob, i, j = np.nonzero(local)
    top = _first_per_problem(prob, [-surface[prob, i, j], i, j], 6)
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
            lambda a, b, k: (b - a) <= tol * (1.0 + t0[k]))
        a, b = np.maximum(u_lo, u0 - w_u), np.minimum(u_hi, u0 + w_u)
        u_new, _, ev2, ok2 = _golden_max(
            _omega_form(v, t_new, a, b, mode), a, b,
            lambda a, b, k: np.exp(b) - np.exp(a) <= tol * (1.0 + np.exp(0.5 * (a + b))))
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


def maximize_nea(v_z: float, omega_bracket: tuple[float, float] = DEFAULT_OMEGA_BRACKET,
                 mode: DetectionMode = DetectionMode.BOTH,
                 grid: tuple[int, int] = (181, 121), tol: float = 1e-8) -> OptResult:
    """Best unentangled-probe QFI at one z-axis target (``maximize_nea_batch`` of one)."""
    return maximize_nea_batch([v_z], omega_bracket, mode, grid, tol)[0]


def ea_zaxis_qfi(v_z, omega, mode: DetectionMode):
    """Entanglement-assisted single-parameter QFI for a z-axis target.

    Equals the zz entry of the cartesian EA matrix at (0, 0, v_z), i.e. the
    radial coefficient continued to r -> v_z; even in v_z. Broadcasts.
    """
    return ea_cr(np.abs(v_z), omega, mode)


def maximize_ea_batch(v_z, mode: DetectionMode,
                      omega_bracket: tuple[float, float] = DEFAULT_OMEGA_BRACKET,
                      tol: float = 1e-8) -> list[OptResult]:
    """Best EA QFI over Omega at each z-axis target, in lockstep.

    The z-axis QFI is the radial coefficient c_r at r = |v_z|, so a grid of
    radii r >= 0 gives the best c_r at each radius.
    """
    r = _check_radius(np.abs(np.asarray(v_z, dtype=float).ravel()), strict=True)
    _check_omega(omega_bracket)
    return maximize_1d_batch(lambda om, k: _ea_cr(r[k], om**2, mode), r.size,
                             omega_bracket, tol=tol, name="omega")


def ea_envelope_point(v_z: float, mode: DetectionMode,
                      omega_bracket: tuple[float, float] = DEFAULT_OMEGA_BRACKET,
                      tol: float = 1e-8) -> EnvelopePoint:
    """Best EA QFI over Omega at one z-axis target value."""
    res = maximize_ea_batch([v_z], mode, omega_bracket, tol)[0]
    return EnvelopePoint(v_z, res.value, res.param("omega"))


def nea_envelope_point(v_z: float, mode: DetectionMode,
                       omega_bracket: tuple[float, float] = DEFAULT_OMEGA_BRACKET,
                       tol: float = 1e-8) -> EnvelopePoint:
    """Best NEA QFI over (theta_a, Omega) at one z-axis target value."""
    res = maximize_nea(v_z, omega_bracket, mode, tol=tol)
    return EnvelopePoint(v_z, res.value, res.param("omega"), res.param("theta_a"))


def ea_optimality_intervals(mode: DetectionMode, r_grid: Optional[Sequence[float]] = None,
                            omega_bracket: tuple[float, float] = DEFAULT_OMEGA_BRACKET,
                            tol: float = 1e-8) -> tuple[float, float]:
    """Range spanned by the per-radius optimal momentum of the radial QFI."""
    if r_grid is None:
        r_grid = np.linspace(0.0, 0.99, 50)
    stars = [res.param("omega") for res in maximize_ea_batch(r_grid, mode, omega_bracket, tol)]
    return (min(stars), max(stars))
