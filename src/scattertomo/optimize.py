"""Maximization of QFI over probe momentum Omega and orientation theta_a.

The objectives are cheap closed forms, so every search is a dense bracket scan
followed by local refinement of each grid-local maximum; no unimodality is
assumed. Momentum grids are logarithmic over the one bracket
DEFAULT_OMEGA_BRACKET: the QFI vanishes at both ends, so optima are interior.
A user objective of one variable is called once per point, and each of its
seeds is refined by golden section in turn. The EA search refines by a
safeguarded Newton iteration on the critical-point polynomial of c_r in
W = Omega^2, whose sign is that of dc_r/dW. The NEA search scans a coarse
(theta_a, log Omega) grid. At every theta_a of the grid it forms, as
polynomials in W, each term's numerator factor and the product of its
denominator's (``closedform._NEA_TERMS``, one factor layout for every mode),
and takes each to the Omega nodes by one small matmul. It refines by a
projected, damped Newton ascent on forms of the factors that are exact at
every W: each factor's W-polynomial, its cosine coefficients in theta_a read
exactly once per lane. Their log-derivatives give the QFI's gradient and
Hessian, and a seed need only lie in its maximum's basin. Every search
refuses a tol that is not positive and finite.

The EA and NEA searches solve batches of independent problems in lockstep:
each step makes one array call on a fixed set of lanes (problem x candidate),
finished lanes included, and ``iterations`` counts a lane's evaluations (for
EA, its Newton steps). ``maximize_nea`` and ``maximize_ea`` broadcast as the
closed forms do: one OptResult for a scalar target, a list of one per target
for an array. Both take one detection mode for the batch or one per problem:
each mode is scanned and seeded on its own, and one lockstep refines the
lanes of every mode, each lane on its own mode's terms (for NEA, one form
evaluates them all in one pass), so a problem's result is that of a batch of
its mode alone. Figures 6, 7 and 8 solve all three modes in one call per
search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .closedform import (_NEA_TERMS, _check_radius, _ea_cr, _ea_cr_critical, _nea_coefficients,
                         _nea_small_factors, nea_qfi)
from .scatter import DetectionMode

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

DEFAULT_OMEGA_BRACKET = (0.05, 10.0)
NEA_GRID = (61, 41)  # (theta_a, log Omega) nodes of the NEA seeding scan
EA_GRID = 64  # log Omega nodes of the EA seeding scan
MAX_ITER = 300  # objective evaluations (EA: Newton steps) per lane
ROUNDING = 1e-13  # relative change of a value taken as lost in rounding
# the scan nodes: theta_a, log Omega and W = Omega^2 of NEA_GRID, and W of EA_GRID
_NEA_THETAS = np.linspace(0.0, math.pi, NEA_GRID[0])
_NEA_US = np.linspace(*(math.log(x) for x in DEFAULT_OMEGA_BRACKET), NEA_GRID[1])
_NEA_WS = np.exp(_NEA_US)**2
_EA_WS = np.geomspace(*DEFAULT_OMEGA_BRACKET, EA_GRID)**2


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


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be a positive finite number, got {tol}")


def _golden_section(f, lo: float, hi: float, stop):
    """Golden-section maximum of f on [lo, hi]: (x, f(x), evals, whether stop(lo, hi) passed)."""
    c, d = hi - INV_PHI * (hi - lo), lo + INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    evals = 2
    while not (ok := bool(stop(lo, hi))) and evals < MAX_ITER:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + INV_PHI * (hi - lo)
            fd = f(d)
        evals += 1
    return (c, fc, evals, ok) if fc >= fd else (d, fd, evals, ok)


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
    d_newton = np.array([b * g[1] - c * g[0], b * g[0] - a * g[1]]) / np.where(newton, det, 1.0)
    curve = _quadratic((a, b, c), g)
    wide = np.abs(g / width[:, None]).max(axis=0)
    length = np.where(curve < 0.0, -(g * g).sum(axis=0) / np.where(curve < 0.0, curve, 1.0),
                      1.0 / np.where(wide > 0.0, wide, 1.0))
    inward = np.where(on_lo, 1.0, -1.0) * width[:, None]
    return np.where(escape, inward, np.where(newton, d_newton, length * g))


def _newton_max(q, x, lo, hi, width, stop):
    """Projected, damped Newton ascent in lockstep, one lane per column of x (2, lane).

    q(x0, x1) gives the (6, lane) stack (f, f_t, f_u, f_tt, f_tu, f_uu) of the
    objective and its derivatives at every lane, and each lane stays in its box
    [lo, hi]. A lane tries ``_ascent_step``, clipped to its box, and halves it
    until the objective does not decrease. A lane finishes once stop(x, x_try)
    passes for a trial point it evaluated (taking the point if it is not
    lower), or unconverged after MAX_ITER evaluations, and then no longer moves
    while the others step. Returns arrays (x, evals, ok).
    """
    n = x.shape[1]
    out_evals, ok = np.empty(n, dtype=int), np.empty(n, dtype=bool)
    finished = np.zeros(n, dtype=bool)
    width = np.asarray(width, dtype=float)
    jet = q(*x)
    evals = 1  # every lane has spent the same number
    step, t = _ascent_step(jet, x, lo, hi, width), np.ones(n)
    while True:
        x_try = np.minimum(np.maximum(x + t * step, lo), hi)
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
    """One OptResult per problem: its picked lane, summed evals, all lanes converged.

    ``pick`` holds problem k's lane at k; each column becomes Python numbers by
    one ``tolist``.
    """
    iterations = np.bincount(prob, weights=evals, minlength=n).tolist()
    failed = np.bincount(prob, weights=~ok, minlength=n).tolist()
    names = [name for name, _ in argmax]
    points = zip(*[x[pick].tolist() for _, x in argmax])
    return [OptResult(tuple(zip(names, point)), y, int(k), not f)
            for point, y, k, f in zip(points, value[pick].tolist(), iterations, failed)]


def maximize_1d(objective: Callable[[float], float], bracket: tuple[float, float],
                tol: float = 1e-8, n_grid: int = 64, name: str = "x") -> OptResult:
    """Maximize an objective of one float on a bracket, calling it once per point.

    A dense scan (log-spaced when the bracket is positive) gives the best 16
    grid-local maxima. Each is refined by ``_golden_section`` in its +-1-cell
    bracket until that is at most tol (1 + |x|) wide or MAX_ITER evaluations
    are spent; the best candidate wins, ties to the smaller argument. The
    objective is called n_grid + ``iterations`` times.
    """
    _check_tol(tol)
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise ValueError(f"degenerate bracket ({lo}, {hi})")
    if n_grid < 2:
        raise ValueError("n_grid must be at least 2")
    use_log = lo > 0.0
    xs = np.geomspace(lo, hi, n_grid) if use_log else np.linspace(lo, hi, n_grid)
    to_u, from_u = (np.log, np.exp) if use_log else (np.asarray, np.asarray)

    def f(x: float) -> float:
        y = float(objective(x))
        if not math.isfinite(y):
            raise ValueError(f"objective is not finite at {name}={x}")
        return y

    def stop(a, b):
        return from_u(b) - from_u(a) <= tol * (1.0 + abs(from_u(0.5 * (a + b))))

    prob, i = _scan_seeds(np.array([[f(x) for x in xs.tolist()]]))
    brackets = zip(to_u(xs[np.maximum(i - 1, 0)]).tolist(),
                   to_u(xs[np.minimum(i + 1, n_grid - 1)]).tolist())
    u, fx, evals, ok = map(np.array, zip(*(
        _golden_section(lambda uu: f(float(from_u(uu))), a, b, stop) for a, b in brackets)))
    x = from_u(u)
    pick = _first_per_problem(prob, [-fx, x])
    return _results(prob, 1, evals, ok, pick, [(name, x)], fx)[0]


# the k of cos(k theta_a), k = 0..4, as ``_nea_coefficients`` takes them; -k and
# -k^2 as a column: d/dtheta cos(k theta) = -k sin(k theta), and so on
_K = np.arange(5)
_MINUS_K, _MINUS_K2 = -_K[:, None], -_K[:, None]**2


def _poly_product(*factors) -> list:
    """Coefficients of W^0, W^1, ... of a product of polynomials, from theirs."""
    out = factors[0]
    for f in factors[1:]:
        out = [sum(out[i] * f[k - i] for i in range(len(out)) if 0 <= k - i < len(f))
               for k in range(len(out) + len(f) - 1)]
    return out


def _nea_scan(v, thetas, w, mode: DetectionMode) -> np.ndarray:
    """``nea_qfi`` of targets v at every node of thetas x w, from the factors' W-polynomials.

    Each term of ``_NEA_TERMS`` is one factor of ``_nea_coefficients`` over a
    product of others: the numerator is one grid, and the denominator one grid
    of the factors' product (``_poly_product``, degree <= 3 in W), both read at
    every theta_a of the grid. Each is taken to the W grid by one matmul with
    the powers of W, the numerator times the W-only s(W). That makes 2, 2 and
    4 grids in t, r and both.
    """
    coef = _nea_coefficients(v[:, None], tuple(np.cos(np.outer(_K, thetas))), mode)
    a, terms = _NEA_TERMS[mode]
    s = w / (1.0 + w) / (1.0 + a * w)
    # (numerator, denominator) W-polynomials of each term, in turn
    parts = [poly for e in terms for poly in (
        coef[e.index(1)], _poly_product(*(coef[i] for i, x in enumerate(e) if x < 0)))]
    n = v.size * thetas.size
    powers = np.array([np.ones_like(w), w, w * w, w * w * w])
    at = np.empty((powers.shape[0], v.size, thetas.size))
    # one block for every grid, combined in place: a fresh grid-sized array per
    # grid and per operation costs more than their arithmetic
    grids = np.empty((len(parts), n, w.size))
    for k, (grid, poly) in enumerate(zip(grids, parts)):
        for row, c in zip(at, poly):
            row[...] = c
        np.matmul(at[:len(poly)].reshape(len(poly), n).T,
                  powers[:len(poly)] if k % 2 else powers[:len(poly)] * s, out=grid)
    num, den = grids.reshape(len(terms), 2, v.size, thetas.size, w.size).swapaxes(0, 1)
    num /= den
    for y in num[1:]:  # the other terms into the first
        num[0] += y
    return num[0]


def _nea_form(v, mode):
    """NEA QFI of lanes v over (theta_a, log Omega), with its derivatives.

    ``mode`` is one DetectionMode, or (mode, lanes) pairs that cover the lanes.
    Every factor of ``nea_qfi`` is a cosine polynomial of degree <= 4 in
    theta_a whose coefficients are polynomials in W = Omega^2. Slots 2 to 5 are
    affine in the cosines, so ``_nea_coefficients`` at the unit cosines gives,
    once per lane, their exact cosine coefficients. The QFI's derivatives
    follow from the factors' log-derivatives through ``_NEA_TERMS``; every
    factor is positive on the domain. Slots 0 and 1 hold the small factors d_t
    and d_r, evaluated at every step with their theta_a derivatives from their
    nonnegative terms (``closedform._nea_small_factors``): next to the pure
    state their cosine expansions would cancel. Returns q(theta, u): the (6,
    lane) stack (f, f_t, f_u, f_tt, f_tu, f_uu) of the QFI at theta_a = theta,
    Omega = exp(u), each lane by its own mode's terms and reading no other
    lane.
    """
    groups = [(mode, slice(None))] if isinstance(mode, DetectionMode) else mode
    # the cosine coefficients (k, factor, p, lane) of each factor's W^p; d_t's and
    # d_r's slots are written on every evaluation
    coef = np.zeros((_K.size, 6, 3, v.size))
    unit_cosines = [c[:, None] for c in np.eye(_K.size)]
    a, e, live = np.zeros(v.size), np.zeros((2, 6, v.size)), np.zeros((2, v.size))
    for m, lanes in groups:
        for f, poly in enumerate(_nea_coefficients(v[lanes], unit_cosines, m)[2:], 2):
            for p, c in enumerate(poly):
                coef[:, f, p, lanes] = c
        a[lanes], terms = _NEA_TERMS[m]
        e[:len(terms), :, lanes] = np.array(terms)[..., None]
        live[:len(terms), lanes] = 1.0
    above, below = e > 0.0, e < 0.0
    v4 = 4.0 * v

    def q(theta, u):
        kt = _K[:, None] * theta
        cos_kt, sin_kt = np.cos(kt), np.sin(kt)
        # d^o/dtheta^o cos(k theta), o = 0, 1, 2, as (o, k, lane)
        trig = np.array([cos_kt, _MINUS_K * sin_kt, _MINUS_K2 * cos_kt])
        # the W-polynomials' coefficients (o, factor, p, lane), summed in order k = 0..4
        c = trig[:, 0, None, None] * coef[0]
        for k in range(1, _K.size):
            c += trig[:, k, None, None] * coef[k]
        # d_r = 2(a^2 + gap), a = 1 - v cos theta, has no W: its theta derivatives
        # are 4 v sin theta a and 4 v (v sin^2 theta + a cos theta). d_t is
        # d_r + W (d_r + 16 gap): its W^0 and W^1 coefficients have d_r's theta
        # derivatives. All as (o, lane)
        d_r, a_, gap = _nea_small_factors(v, v * cos_kt[1])
        c[:, 0, 0] = c[:, 0, 1] = c[:, 1, 0] = np.array(
            [d_r, v4 * sin_kt[1] * a_, v4 * (v * sin_kt[1] * sin_kt[1] + a_ * cos_kt[1])])
        c[0, 0, 1] += 16.0 * gap
        w = np.exp(u)**2
        w1 = 1.0 + w
        # the (o, factor, lane) sums of c_p W^p, and of 2p c_p W^p and 4p^2 c_p W^p
        # for d/du and d^2/du^2
        c_1, c_2 = c[:, :, 1] * w, c[:, :, 2] * (w * w)
        val = c[:, :, 0] + c_1 + c_2
        d_u = 2.0 * c_1[:2] + 4.0 * c_2[:2]
        f = val[0]
        # log-derivatives (t, u, tt, tu, uu) of each factor, then of each term
        r = np.array([val[1], d_u[0], val[2], d_u[1], 4.0 * c_1[0] + 16.0 * c_2[0]])
        r /= f
        r[2] -= r[0] * r[0]
        r[3] -= r[0] * r[1]
        r[4] -= r[1] * r[1]
        g = (r[:, None] * e).sum(axis=2)  # (t, u, tt, tu, uu), term, lane
        # and those of s(W): d/du log W = 2, d/du log(1 + b W) = 2 b W/(1 + b W)
        aw = a * w
        aw1 = 1.0 + aw
        g[1] += 2.0 / w1 - 2.0 * aw / aw1
        g[4] -= 4.0 * w / w1**2 + 4.0 * aw / aw1**2
        term = (live * w / (w1 * aw1) * np.where(above, f, 1.0).prod(axis=1)
                / np.where(below, f, 1.0).prod(axis=1))
        g[2] += g[0] * g[0]
        g[3] += g[0] * g[1]
        g[4] += g[1] * g[1]
        return np.concatenate([term[None], term * g]).sum(axis=1)
    return q


def _nea_refine(v, theta, u, groups, tol: float):
    """Refine NEA lanes (v, theta_a, log Omega) from grid nodes by ``_newton_max``.

    ``groups`` lists (DetectionMode, lanes) pairs, lanes a slice: one
    ``_nea_form`` evaluates every lane, each on its own mode's terms. Each
    lane's box is its node's +-2-cell neighbourhood on the coarse NEA_GRID,
    clipped to [0, pi] x log DEFAULT_OMEGA_BRACKET; the lane stops once a step
    moves theta_a by at most tol and Omega by at most tol (1 + Omega). Returns
    arrays (theta, u, evals, ok).
    """
    u_lo, u_hi = (math.log(x) for x in DEFAULT_OMEGA_BRACKET)
    width = (2.0 * math.pi / (NEA_GRID[0] - 1), 2.0 * (u_hi - u_lo) / (NEA_GRID[1] - 1))
    lo = np.array([np.maximum(0.0, theta - width[0]), np.maximum(u_lo, u - width[1])])
    hi = np.array([np.minimum(math.pi, theta + width[0]), np.minimum(u_hi, u + width[1])])
    (theta, u), evals, ok = _newton_max(
        _nea_form(v, groups), np.array([theta, u]), lo, hi, width,
        lambda x, y: np.maximum(np.abs(y[0] - x[0]), np.abs(np.exp(y[1]) - np.exp(x[1]))
                                / (1.0 + np.exp(y[1]))) <= tol)
    return theta, u, evals, ok


def _grid_maxima(y: np.ndarray) -> tuple[np.ndarray, ...]:
    """(problem, theta_a node, Omega node) of the grid-local maxima of a finite NEA scan.

    The points of ``np.nonzero(_local_maxima(y, (1, 2)))``, in its order: the
    maxima along theta_a (the interior against both neighbours, each edge
    against its one), then of those only the ones at least as high as their
    two Omega neighbours, looked up by flat index.
    """
    along = np.empty(y.shape, dtype=bool)
    if y.shape[1] == 1:
        along[...] = True
    else:
        inner = y[:, 1:-1]
        np.greater_equal(inner, y[:, :-2], out=along[:, 1:-1])
        along[:, 1:-1] &= inner >= y[:, 2:]
        np.greater_equal(y[:, 0], y[:, 1], out=along[:, 0])
        np.greater_equal(y[:, -1], y[:, -2], out=along[:, -1])
    flat = np.flatnonzero(along)
    y_flat, j, last = y.ravel(), flat % y.shape[2], y.shape[2] - 1
    at = y_flat[flat]
    keep = (((j == 0) | (at >= y_flat.take(flat - 1, mode="clip")))
            & ((j == last) | (at >= y_flat.take(flat + 1, mode="clip"))))
    return np.unravel_index(flat[keep], y.shape)


def _mode_groups(mode, n: int) -> list[tuple[DetectionMode, np.ndarray]]:
    """(mode, its targets) for one DetectionMode or a sequence of one per target."""
    if isinstance(mode, DetectionMode):
        return [(mode, np.arange(n))]
    if isinstance(mode, str) or not np.iterable(mode):
        raise ValueError(f"a detection mode must be a DetectionMode, got {mode!r}")
    modes = list(mode)
    if len(modes) != n:
        raise ValueError(f"need one detection mode per target: {len(modes)} for {n} targets")
    for m in modes:
        if not isinstance(m, DetectionMode):
            raise ValueError(f"a detection mode must be a DetectionMode, got {m!r}")
    return [(m, np.flatnonzero([x is m for x in modes])) for m in dict.fromkeys(modes)]


def _nea_seeds(v, mode: DetectionMode) -> tuple[np.ndarray, ...]:
    """(target, theta_a node, Omega node) of each target's best six maxima on the NEA_GRID scan.

    A function so that the scan's block is freed before the next mode's is
    allocated: kept alive across it, figure 7's three freed blocks sum to exactly
    twice the largest, glibc's dynamic trim threshold, and the heap is returned and
    faulted back on every call (1,490 minor page faults per solve, not 0; ~30% slower).
    """
    y = _nea_scan(v, _NEA_THETAS, _NEA_WS, mode)
    if not np.all(np.isfinite(y)):
        raise ValueError("QFI surface is not finite on the scan grid")
    prob, i, j = _grid_maxima(y)
    top = _first_per_problem(prob, [-y[prob, i, j], i, j], 6)
    return prob[top], i[top], j[top]


def maximize_nea(v_z, mode=DetectionMode.BOTH, tol: float = 1e-8) -> OptResult | list[OptResult]:
    """Best unentangled-probe QFI over (theta_a, Omega) at z-axis targets v_z.

    One OptResult for a scalar v_z, else a list of one per target. ``mode`` is
    one DetectionMode for all targets or a sequence of one per target. For
    each mode, ``_nea_seeds`` scans its targets' QFI at every node of
    NEA_GRID = (n_theta, n_omega) over theta_a in [0, pi] x log Omega in the
    bracket. The best six grid-local maxima of every target (by value, then
    node) are refined together, all
    modes in one ``_nea_refine``: a projected, damped Newton ascent in
    (theta_a, log Omega), one lane per seed, on a form of the QFI that is
    exact at every point (``_nea_form``). Among near-equal optima the smallest
    theta_a is returned, with its value from ``nea_qfi``. Each target's result
    is that of a call with its mode alone. ``iterations`` counts the form
    evaluations (each a value, gradient and Hessian) of every lane of the target.
    """
    _check_tol(tol)
    scalar = np.ndim(v_z) == 0
    v_z = np.asarray(v_z, dtype=float).ravel()
    if not np.all(np.abs(v_z) < 1.0):
        raise ValueError("v_z must satisfy |v_z| < 1")
    groups = _mode_groups(mode, v_z.size)
    if v_z.size == 0:
        return []
    seeds, lanes, start = [], [], 0
    for m, targets in groups:
        prob, i, j = _nea_seeds(v_z[targets], m)
        seeds.append((targets[prob], i, j))
        lanes.append((m, slice(start, start + prob.size)))
        start += prob.size
    prob, i, j = (np.concatenate(x) for x in zip(*seeds))
    theta, u, evals, ok = _nea_refine(v_z[prob], _NEA_THETAS[i], _NEA_US[j], lanes, tol)

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

    coef holds each lane's coefficients of W^0, W^1, ...: one 2-D array, or a
    list of them for consecutive runs of lanes, each summed as it is (padding
    one with zeros would change numpy's summation order). w is each lane's
    start and [lo, hi] its bracket. After each evaluation the bracket keeps the
    side where the polynomial falls through zero: it moves up to a point where
    the polynomial is positive, else down to it, so w is always one of its
    ends. A Newton step that leaves the bracket is replaced by its midpoint. A
    lane finishes once stop(w, w_new) passes for a step, or unconverged after
    MAX_ITER steps, and the others step on. Returns arrays (w, steps, ok).
    """
    blocks, first = [], 0
    for c in [coef] if isinstance(coef, np.ndarray) else coef:
        powers = np.arange(c.shape[1])
        blocks.append((slice(first, first + len(c)), c, c[:, 1:] * powers[1:], powers))
        first += len(c)
    out_w, out_steps = np.empty(w.size), np.empty(w.size, dtype=int)
    ok, finished = np.empty(w.size, dtype=bool), np.zeros(w.size, dtype=bool)
    p, dp = np.empty(w.size), np.empty(w.size)
    steps = 0
    while True:
        for at, c, d_c, powers in blocks:
            w_powers = w[at, None]**powers
            p[at], dp[at] = (c * w_powers).sum(axis=1), (d_c * w_powers[:, :-1]).sum(axis=1)
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


def maximize_ea(v_z, mode, tol: float = 1e-8) -> OptResult | list[OptResult]:
    """Best EA QFI over Omega in DEFAULT_OMEGA_BRACKET at z-axis targets v_z, in lockstep.

    One OptResult for a scalar v_z, else a list of one per target. ``mode`` is
    one DetectionMode for all targets or a sequence of one per target. The
    z-axis QFI is the radial coefficient c_r at r = |v_z|, so a grid of radii
    r >= 0 gives the best c_r at each radius. One ``_ea_cr`` call per mode
    scans EA_GRID log-spaced nodes for its radii; each radius's best 16
    grid-local maxima seed one ``_newton_root`` for all modes on c_r's
    critical-point polynomial in W = Omega^2, inside the seed's +-1-cell
    bracket, until a step moves Omega by at most tol (1 + Omega). A lane ends
    at the higher of that point and its bracket's ends, and a radius at its
    highest lane (ties to the smaller Omega), with the value from ``_ea_cr``.
    Each target's result is that of a call with its mode alone.
    ``iterations`` counts the Newton steps of every lane of the radius.
    """
    _check_tol(tol)
    r2 = _check_radius(np.abs(np.asarray(v_z, dtype=float).ravel()), strict=True)**2
    groups = _mode_groups(mode, r2.size)
    if r2.size == 0:
        return []
    ws = _EA_WS
    seeds, lanes, start = [], [], 0
    for m, targets in groups:
        prob, i = _scan_seeds(_ea_cr(r2[targets, None], ws, m))
        seeds.append((targets[prob], i))
        lanes.append((m, slice(start, start + prob.size)))
        start += prob.size
    prob, i = (np.concatenate(x) for x in zip(*seeds))
    lo, hi = ws[np.maximum(i - 1, 0)], ws[np.minimum(i + 1, EA_GRID - 1)]

    w, steps, ok = _newton_root(
        [_ea_cr_critical(r2[prob[at]], m) for m, at in lanes], ws[i], lo, hi,
        lambda a, b: np.abs(np.sqrt(b) - np.sqrt(a)) <= tol * (1.0 + np.sqrt(b)))
    ends = np.stack([w, lo, hi])
    values = np.empty(ends.shape)
    for m, at in lanes:
        values[:, at] = _ea_cr(r2[prob[at]], ends[:, at], m)
    best = np.argmax(values, axis=0)
    each = np.arange(prob.size)
    omega, value = np.sqrt(ends[best, each]), values[best, each]
    pick = _first_per_problem(prob, [-value, omega])
    results = _results(prob, r2.size, steps, ok, pick, [("omega", omega)], value)
    return results[0] if np.ndim(v_z) == 0 else results


def ea_optimality_intervals(mode: DetectionMode, tol: float = 1e-8) -> tuple[float, float]:
    """Range spanned by the optimal momentum of the radial QFI over radii 0 to 0.99."""
    best = maximize_ea(np.linspace(0.0, 0.99, 50), mode, tol)
    stars = [res.param("omega") for res in best]
    return (min(stars), max(stars))
