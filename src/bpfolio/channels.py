"""Likelihood channels: the cost-dependent map (h_u, chi_tilde_u, beta) -> (m_u, chi_u).

Each channel returns the first two log-partition derivatives of
Z(h) = integral Dz g(z*sqrt(chi_tilde) + h) with g(u) = exp(-beta*R(u)):
m_u = d/dh log Z and chi_u = -d^2/dh^2 log Z. Closed forms cover the
mean-variance and absolute-deviation costs. Arbitrary costs go through
quadrature in two stages, run over all elements at once. One cost call scans
a uniform grid per element; for a smooth cost the trapezoid sums on that grid
converge exponentially, and an element whose sums agree with those of every
other grid point is done. The rest, such as a kink in the live window, go
through adaptive Gauss-Kronrod quadrature (the G7-K15 pair of QUADPACK): each
refinement round is one cost call on a flat array of every open panel, and no
step loops over elements in Python. The scan grid is row-major, so every
pass over it reads contiguous memory, and the trapezoid stage floors its log
weights above the range where np.exp is slow (see _trapezoid_moments).

The absolute-deviation cost also has a max-sum channel, the beta -> infinity
form of the same derivatives with Z replaced by its Laplace (maximum) term:
the proximal map of beta*|u|, a clip. The engine uses it for a
zero-temperature solve (see engine.zero_temperature); channel_for always
returns the finite-temperature channels.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .model import CostModel
from .special import log_gaussian_tail, mills_excess

_SQRT2 = np.sqrt(2.0)
_EPS = np.finfo(float).eps

# the Gaussian prior on z makes anything beyond this many sigmas from both the
# prior center and the cost minimum numerically zero (exp(-46^2/2) ~ 1e-460)
_WINDOW_MARGIN = 46.0
# log-domain cutoff: contributions below exp(-745) vanish in double precision
_LOG_FLOOR = 745.0

# mode search: 64 intervals per round, stopping at a bracket of 1e-13*max(1, |z|)
_SECTION = np.linspace(0.0, 1.0, 65)
_MODE_TOL = 1e-13
# adaptive panels: the absolute error budget as a share of Z0 over the window,
# and the relative floor per panel, which rises to _ROUNDING_FACTOR times the
# rounding its samples carry. An element's panels are accepted as they stand
# beyond _OPEN_PANEL_LIMIT open ones, and every panel after _MAX_DEPTH halvings
_PANEL_TOL = 1e-13
_PANEL_RTOL = 1e-14
_ROUNDING_FACTOR = 4.0
_OPEN_PANEL_LIMIT = 200
_MAX_DEPTH = 60
# trapezoid stage: the scan grid's sums and those of every other point must
# give the same Z0 (relative), and the same offset and variance of z, to this
_TRAPEZOID_TOL = 1e-13
# its log weights are floored here, above the -708 where np.exp turns slow
_EXP_FLOOR = -700.0
# its two rules, every point and every other point twice, on the longest scan
# grid (order 256); a grid of n points takes the first n rows
_TRAPEZOID_RULES = np.zeros((8 * 256, 2))
_TRAPEZOID_RULES[:, 0] = 1.0
_TRAPEZOID_RULES[::2, 1] = 2.0

# G7-K15 pair on [-1, 1] (QUADPACK qk15): the Kronrod nodes and weights, and
# the Gauss weights on the odd-indexed nodes
_KRONROD_NODES = np.array([
    -0.991455371120812639206854697526329, -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926, -0.741531185599394439863864773280788,
    -0.586087235467691130294144845693013, -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245, 0.0,
    0.207784955007898467600689403773245, 0.405845151377397166906606412076961,
    0.586087235467691130294144845693013, 0.741531185599394439863864773280788,
    0.864864423359769072789712788640926, 0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_KRONROD_WEIGHTS = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
    0.204432940075298892414161999234649, 0.190350578064785409913256402421014,
    0.169004726639267902826583426598550, 0.140653259715525918745189590510238,
    0.104790010322250183839876322541518, 0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_GAUSS_WEIGHTS = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
    0.381830050505118944950369775488975, 0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])


class GenericChannelError(ValueError):
    """channel_generic's input cannot be integrated: an order outside [16, 256],
    a cost that is not finite at a node, or a non-finite result."""


def _extrapolation_weights(nodes, t):
    """Weights taking values at `nodes` to their interpolating polynomial at t."""
    gaps = nodes[:, None] - nodes
    np.fill_diagonal(gaps, 1.0)
    return np.prod(t - nodes) / ((t - nodes) * np.prod(gaps, axis=1))


# A kink between a panel end and its outermost node is invisible to both
# rules, which then agree on the wrong integral. So each panel also samples
# its ends. The degree-14 interpolant of the nodes misses the value at an end
# by about s*|slope jump| when a kink sits at distance s < _SLIVER half-widths
# from that end, and the integral by half of s times that, which the error
# estimate adds. Samples: the 15 nodes, then the ends -1 and +1; the columns
# of _PANEL_RULES give the Kronrod sum, the Gauss sum and the two end misses.
_SLIVER = 1.0 - _KRONROD_NODES[-1]
_PANEL_NODES = np.concatenate([_KRONROD_NODES, [-1.0, 1.0]])
_gauss_column = np.zeros(15)
_gauss_column[1::2] = _GAUSS_WEIGHTS
_end_miss = _extrapolation_weights(_KRONROD_NODES, -1.0)
_PANEL_RULES = np.column_stack([
    np.append(_KRONROD_WEIGHTS, [0.0, 0.0]),
    np.append(_gauss_column, [0.0, 0.0]),
    np.append(_end_miss, [-1.0, 0.0]),
    np.append(_end_miss[::-1], [0.0, -1.0]),
])


def channel_mean_variance(h, chi_tilde, beta):
    """Closed form for R(u) = u^2/2: m = -beta*h/(1+beta*chi), chi = beta/(1+beta*chi)."""
    h = np.asarray(h, dtype=float)
    chi_tilde = np.asarray(chi_tilde, dtype=float)
    h, chi_tilde = np.broadcast_arrays(h, chi_tilde)
    gain = beta / (1.0 + beta * chi_tilde)
    m_u = -gain * h
    chi_u = gain + np.zeros_like(h)
    return m_u, chi_u


def channel_absolute_deviation(h, chi_tilde, beta):
    """Closed form for R(u) = |u| via Gaussian tails.

    m = beta * tanh(A) with A = beta*h + (log H(u+) - log H(u-))/2 and
    u+- = beta*sqrt(chi) +- h/sqrt(chi); chi = -beta*(1-tanh^2 A)*
    (beta - (mills(u+)+mills(u-))/(2*sqrt(chi))). Both expressions are
    rearranged so the beta-sized cancellations happen in algebra, not in
    floating point: when both tail arguments are positive, A reduces to
    half the log-ratio of scaled complementary error functions, and the
    chi slope keeps only the mills-ratio excess over its argument.
    scipy.special is imported here: no default solve calls this channel.
    """
    from scipy.special import erfcx

    h = np.asarray(h, dtype=float)
    chi_tilde = np.asarray(chi_tilde, dtype=float)
    h, chi_tilde = np.broadcast_arrays(h, chi_tilde)

    root = np.sqrt(chi_tilde)
    u_plus = beta * root + h / root
    u_minus = beta * root - h / root

    a = np.empty_like(h)
    both = (u_plus > 0.0) & (u_minus > 0.0)
    if np.any(both):
        # beta*h cancels against -(u+^2 - u-^2)/4 exactly, leaving the stable ratio
        a[both] = 0.5 * (
            np.log(erfcx(u_plus[both] / _SQRT2)) - np.log(erfcx(u_minus[both] / _SQRT2))
        )
    rest = ~both
    if np.any(rest):
        a[rest] = beta * h[rest] + 0.5 * (
            log_gaussian_tail(u_plus[rest]) - log_gaussian_tail(u_minus[rest])
        )

    t = np.tanh(a)
    m_u = beta * t
    # beta - (mills(u+)+mills(u-))/(2 root) with (u+ + u-)/(2 root) = beta removed in algebra
    slope = -(mills_excess(u_plus) + mills_excess(u_minus)) / (2.0 * root)
    chi_u = np.maximum(-beta * (1.0 - t * t) * slope, 0.0)
    return m_u, chi_u


def channel_absolute_deviation_max_sum(h, chi_tilde, beta):
    """Max-sum (zero-temperature) form of the R(u) = |u| channel: the prox of beta*|u|.

    The posterior mode of u under exp(-(u-h)^2/(2 chi_tilde) - beta*|u|) is the
    soft threshold of h at beta*chi_tilde, so m = (u* - h)/chi_tilde =
    -clip(h/chi_tilde, -beta, beta) and chi = -dm/dh is 1/chi_tilde inside the
    threshold and 0 outside it. Only arithmetic: no Gaussian tails, no masks.
    """
    m_u = np.minimum(np.maximum(-h / chi_tilde, -beta), beta)  # np.clip, without its overhead
    chi_u = (np.abs(h) < beta * chi_tilde) / chi_tilde
    return m_u, chi_u


def _log_weight(z, root, h, beta, cost):
    """psi(z) = -z^2/2 - beta*R(z*sqrt(chi) + h) for node rows z with per-row root and h.

    The cost sees one flat 1-d array per call; a scalar return is broadcast.
    """
    u = z * root + h
    cost_u = np.broadcast_to(np.asarray(cost(u.ravel()), dtype=float), (u.size,))
    values = -0.5 * z * z - beta * cost_u.reshape(u.shape)
    finite = np.isfinite(values)
    if not np.all(finite):
        bad = np.flatnonzero(~finite)[0]
        raise GenericChannelError(
            f"cost function is not finite at u={u.flat[bad]!r} (node z={z.flat[bad]!r})"
        )
    return values


def _refine_mode(lo, hi, root, h, beta, cost):
    """Maximize psi inside each bracket [lo, hi] by repeated 64-section.

    Each round evaluates 65 evenly spaced points per element and keeps the two
    intervals around the best one, so the bracket shrinks 32-fold. An element
    stops once its own bracket is below _MODE_TOL (relative beyond |z| = 1), so
    its mode never depends on its neighbours. A kink at the mode thus lands
    within about 1e-13 of a panel boundary. Returns the mode and psi there.
    """
    z_star = 0.5 * (lo + hi)
    psi_star = np.full_like(z_star, -np.inf)
    rows = np.arange(z_star.size)
    while rows.size:
        points = lo[rows, None] + (hi - lo)[rows, None] * _SECTION
        values = _log_weight(points, root[rows, None], h[rows, None], beta, cost)
        best = np.argmax(values, axis=1)
        take = np.arange(rows.size)
        z_star[rows] = points[take, best]
        psi_star[rows] = values[take, best]
        lo[rows] = points[take, np.maximum(best - 1, 0)]
        hi[rows] = points[take, np.minimum(best + 1, _SECTION.size - 1)]
        rows = rows[hi[rows] - lo[rows] > _MODE_TOL * np.maximum(1.0, np.abs(z_star[rows]))]
    return z_star, psi_star


def _kronrod_moments(a, z_star, b, shift, root, h, beta, cost):
    """Integrals of w, (z-z*)*w and (z-z*)^2*w over [a, b], w = exp(psi - shift).

    Adaptive G7-K15 over a flat list of (element, left, right) panels, first
    split at the mode z*. Each round makes one cost call over every active
    panel. A panel is accepted when, for each integrand, |K - G| plus the
    end-sample term (see _PANEL_RULES) is within
    max(1e-13 * Z0 * width / span, floor * |K|), with Z0 the element's current
    estimate and floor the larger of 1e-14 and the rounding the samples
    carry, and bisected otherwise. An element's panels are accepted as they
    stand once it has more than _OPEN_PANEL_LIMIT open, and every panel after
    _MAX_DEPTH halvings. Returns a (3, n) array.
    """
    n = a.size
    span = b - a
    center_reach = np.abs(h / root)
    element = np.concatenate([np.arange(n), np.arange(n)])
    left = np.concatenate([a, z_star])
    right = np.concatenate([z_star, b])
    totals = np.zeros((3, n))
    for depth in range(_MAX_DEPTH + 1):
        mid = 0.5 * (left + right)
        half = 0.5 * (right - left)
        z = mid[:, None] + half[:, None] * _PANEL_NODES
        psi = _log_weight(z, root[element, None], h[element, None], beta, cost)
        w = np.exp(psi - shift[element, None])
        d = z - z_star[element, None]
        # per moment and panel: Kronrod, Gauss, and the misses at both ends
        sums = np.stack([w, d * w, d * d * w]) @ _PANEL_RULES
        kronrod = half * sums[..., 0]
        error = half * (np.abs(sums[..., 0] - sums[..., 1])
                        + 0.5 * _SLIVER * (np.abs(sums[..., 2]) + np.abs(sums[..., 3])))
        # w carries the rounding of psi as a relative error, and no rule pair
        # agrees more closely: eps*|psi| from its sum, plus its slope times the
        # rounding of u = z*sqrt(chi) + h, about eps*(2|z| + |h|/sqrt(chi)) in
        # z. The ends and the midpoint give |psi| and, as secants, the slope
        left_psi, mid_psi, right_psi = psi[:, 15], psi[:, 7], psi[:, 16]
        size = np.maximum(np.abs(mid_psi), np.maximum(np.abs(left_psi), np.abs(right_psi)))
        rise = np.maximum(np.abs(mid_psi - left_psi), np.abs(right_psi - mid_psi))
        reach = 2.0 * (np.abs(mid) + half) + center_reach[element]
        rounding = _EPS * (size * half + rise * reach)
        z0_estimate = totals[0] + np.bincount(element, kronrod[0], minlength=n)
        budget = _PANEL_TOL * z0_estimate[element] * (2.0 * half) / span[element]
        floor = np.maximum(_PANEL_RTOL * half, _ROUNDING_FACTOR * rounding) * np.abs(sums[..., 0])
        done = np.all(error <= np.maximum(budget, floor), axis=0)
        open_count = np.bincount(element[~done], minlength=n)
        done |= (open_count > _OPEN_PANEL_LIMIT)[element] | (depth == _MAX_DEPTH)
        for k in range(3):
            totals[k] += np.bincount(element[done], kronrod[k, done], minlength=n)
        rest = ~done
        if not np.any(rest):
            break
        element = np.concatenate([element[rest], element[rest]])
        left, right = (np.concatenate([left[rest], mid[rest]]),
                       np.concatenate([mid[rest], right[rest]]))
    return totals


def _scan(h, root, beta, cost, order):
    """psi on 8*order evenly spaced points per element, over a window holding all its mass."""
    center = -h / root  # cost-dominated region for coercive R
    lo = np.minimum(0.0, center) - _WINDOW_MARGIN
    hi = np.maximum(0.0, center) + _WINDOW_MARGIN
    # np.linspace(lo, hi, count, axis=-1) bit for bit, but row-major: linspace
    # builds it column by column and returns a strided view
    count = 8 * order
    grid = np.arange(count) * ((hi - lo) / (count - 1))[:, None]
    grid += lo[:, None]
    grid[:, -1] = hi
    return grid, _log_weight(grid, root[:, None], h[:, None], beta, cost)


def _trapezoid_moments(grid, values):
    """E[z] and Var[z] from trapezoid sums on the scan grid, and which elements to trust.

    With w = exp(psi - max psi) and z_hat the grid argmax, the sums of w,
    (z-z_hat)*w and (z-z_hat)^2*w over every point and over every other point
    (twice the step) are two trapezoid rules. For a smooth w that decays at
    both window ends both converge exponentially in 1/step, so the coarse
    rule's error, their difference, bounds the fine one's. A kink leaves an
    error of a power of the step (step^2 for a slope jump) that differs
    between the rules. At a fine cell midpoint the even powers tie, but the
    odd ones do not, and the first and second moments carry them (the
    mid-cell tests pin this for |u| and huber). An element is accepted when
    the rules give the same Z0 to _TRAPEZOID_TOL relative, and the same
    offset E[z] - z_hat and variance to _TRAPEZOID_TOL; the fine rule's
    values are returned. The step cancels from every compared quantity.

    psi - max psi is floored at _EXP_FLOOR (on a copy; `values` stays as
    it is): np.exp leaves its vector loop below about -708, where a scan's
    far tails lie. A floored weight reads e^-700 ~ 1e-304 where it read
    from 0 to that; the sums lose the difference long before they reach
    the weights near the peak, so an element the stage can accept keeps
    the unfloored formula's bits (the channel tests pin this).
    """
    rows = np.arange(grid.shape[0])
    peak = np.argmax(values, axis=1)
    z_hat = grid[rows, peak]
    w = values - values[rows, peak][:, None]
    np.maximum(w, _EXP_FLOOR, out=w)
    np.exp(w, out=w)
    d = grid - z_hat[:, None]
    dw = d * w
    rules = _TRAPEZOID_RULES[:grid.shape[1]]
    # each moment's fine and coarse sums; three products beat one on a stack
    (z0, z0_coarse), (z1, z1_coarse), (z2, z2_coarse) = (
        (moment @ rules).T for moment in (w, dw, d * dw))
    offset = z1 / z0  # z0 >= 1, from the peak itself
    variance = z2 / z0 - offset * offset
    # the floor keeps z0_coarse above count * e^-700, even for a peak
    # narrower than the step
    offset_coarse = z1_coarse / z0_coarse
    variance_coarse = z2_coarse / z0_coarse - offset_coarse * offset_coarse
    accepted = ((np.abs(z0 - z0_coarse) <= _TRAPEZOID_TOL * z0)
                & (np.abs(offset - offset_coarse) <= _TRAPEZOID_TOL)
                & (np.abs(variance - variance_coarse) <= _TRAPEZOID_TOL))
    return z_hat + offset, variance, accepted


def _adaptive_moments(grid, values, root, h, beta, cost):
    """E[z] and Var[z] by a mode search and adaptive panels, from each element's scan.

    A 64-section search refines the grid argmax, the live window is where psi
    is within _LOG_FLOOR of its maximum, and Gauss-Kronrod panels split at the
    mode do the integrals. Panels bisect wherever the rule disagrees with its
    embedded Gauss rule, so a kink away from the mode is found without being
    known.
    """
    rows = np.arange(grid.shape[0])
    peak = np.argmax(values, axis=1)
    last = grid.shape[1] - 1
    z_star, psi_star = _refine_mode(grid[rows, np.maximum(peak - 1, 0)],
                                    grid[rows, np.minimum(peak + 1, last)],
                                    root, h, beta, cost)
    shift = np.maximum(psi_star, values[rows, peak])

    live = values - shift[:, None] > -_LOG_FLOOR
    step = grid[:, 1] - grid[:, 0]
    a = np.minimum(np.where(live, grid, np.inf).min(axis=1), z_star) - step
    b = np.maximum(np.where(live, grid, -np.inf).max(axis=1), z_star) + step

    z0, z1, z2 = _kronrod_moments(a, z_star, b, shift, root, h, beta, cost)
    offset = z1 / z0  # E[z] - z*
    return z_star + offset, z2 / z0 - offset * offset


def channel_generic(h, chi_tilde, beta, cost, order: int = 64):
    """Quadrature channel for an arbitrary finite cost R(u), over all elements at once.

    Derivatives of log Z are taken through exact moment identities
    (integration by parts), so no derivative of R is ever needed:
    m = E[z]/sqrt(chi) and chi = (1 - Var[z])/chi under the tilted measure
    ~ Dz * exp(-beta*R(z*sqrt(chi)+h)). One cost call scans 8*order points
    per element over a window holding all its mass. Two stages follow, and
    each element's result depends on that element alone:

    1. Trapezoid sums on the scan grid, checked against every other point
       (_trapezoid_moments). A smooth cost is done here, with no further
       cost call.
    2. The elements that check rejects, such as a kink in the live window,
       go through a 64-section mode search and adaptive Gauss-Kronrod
       panels split at the mode (_adaptive_moments).

    No step loops over elements in Python.
    """
    if not 16 <= order <= 256:
        raise GenericChannelError(f"generic channel order must be in [16, 256], got {order}")
    h_arr = np.atleast_1d(np.asarray(h, dtype=float))
    chi_arr = np.broadcast_to(np.asarray(chi_tilde, dtype=float), h_arr.shape)
    h_flat = h_arr.ravel()
    chi_flat = chi_arr.ravel()
    root = np.sqrt(chi_flat)

    grid, values = _scan(h_flat, root, beta, cost, order)
    mean, variance, accepted = _trapezoid_moments(grid, values)
    rest = np.flatnonzero(~accepted)
    if rest.size:
        mean[rest], variance[rest] = _adaptive_moments(
            grid[rest], values[rest], root[rest], h_flat[rest], beta, cost)
    m_out = (mean / root).reshape(h_arr.shape)
    chi_out = np.maximum((1.0 - variance) / chi_flat, 0.0).reshape(h_arr.shape)
    if not (np.all(np.isfinite(m_out)) and np.all(np.isfinite(chi_out))):
        raise GenericChannelError("quadrature channel produced non-finite output")
    if np.asarray(h).ndim == 0:
        return float(m_out[0]), float(chi_out[0])
    return m_out, chi_out


def channel_for(model: CostModel) -> Callable:
    """Channel function (h, chi_tilde, beta) -> (m_u, chi_u) for a cost model."""
    if model.kind == "mv":
        return channel_mean_variance
    if model.kind == "ad":
        return channel_absolute_deviation

    def generic(h, chi_tilde, beta):
        return channel_generic(h, chi_tilde, beta, model.cost, model.order)

    return generic
