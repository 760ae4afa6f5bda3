"""Estimation of the zero-strain fine-structure parameters from measured
excitation-line positions.

Each defect contributes two to six line detunings relative to an
arbitrary per-defect reference; the model predicts the six excited-state
eigenvalues at the defect's (unknown) transverse strain, shifted by a
free per-defect offset. Global parameters (lambda_z, d_es, delta_cap and
optionally lambda_perp) are shared across defects. They are found by
variable projection (Golub and Pereyra 2003): a Levenberg-Marquardt loop
(More 1978) over the globals alone, on the cost (the unweighted sum of
squared line residuals, GHz^2) minimized over every defect's strain and
offset, with an exact Jacobian. The Hamiltonian is
linear in every global, so one eigensolve gives all Hellmann-Feynman
slopes.

One path serves any line count: a defect's m lines match the six predicted
ones by one of C(6, m) <= 20 injections, in closed form batched per m.
Every strain is first scanned on a coarse grid, then refined by Newton
steps on the matched lines' exact slopes and curvatures inside the grid
bracket. A defect with all six lines starts, at a trial point of the
globals, from variable projection's first-order prediction of its
strain; one with fewer lines can switch its matching inside the bracket,
so it starts from the best of a RESCAN-point rescan of the bracket. The
steps stop once they fall to STRAIN_TOL, or at NEWTON_STEPS.
"""

import math
from collections import namedtuple
from itertools import combinations

import numpy as np

from .linalg import eigensolve
from .model import FineStructureParams, Validated
from .sweep import (parameter_operators, strain_family, strain_hamiltonians,
                    strain_slopes)

STRAIN_MAX = 30.0
COARSE_STEP = 0.25
STRAIN_GRID = np.arange(0.0, STRAIN_MAX + COARSE_STEP, COARSE_STEP)
RESCAN = 15             # bracket points rescanned, partial line lists
NEWTON_STEPS = 4        # most Newton steps per strain search
STRAIN_TOL = 1e-9       # GHz, strain step at which the search stops
N_LINES = 6             # predicted excited-state lines
XTOL = 1e-10            # LM step test, relative to the largest global
MU_START = 1e-3         # LM damping at the first step
MU_MAX = 1e16           # LM damping at which the loop gives up
SCALE_FLOOR = 1e-12     # LM damping scale floor, relative to the largest
PERP_FLOOR = 1e-4       # GHz, least lambda_perp the fit steps to
MAX_ITER = 400          # LM iterations before the fit gives up
TOL = 1e-6              # LM cost test, relative decrease of a step
BOUNDS = {"lambda_z": (1.0, 15.0), "d_es": (0.1, 5.0),
          "delta_cap": (0.1, 5.0), "lambda_perp": (0.0, 1.0)}   # GHz

# Order-preserving injections of m sorted lines into six, in descending
# colex order: of two equally close, the one using later lines wins.
_INJECTIONS = {m: np.array(sorted(combinations(range(N_LINES), m),
                                  key=lambda c: c[::-1], reverse=True))
               for m in range(1, N_LINES + 1)}


class FitError(ArithmeticError):
    pass


class ObservedDefect(Validated, namedtuple("ObservedDefect", [
        "id",
        "lines"])):           # detunings, GHz
    __slots__ = ()

    def _check(self):
        if not 2 <= len(self.lines) <= N_LINES:
            raise ValueError(f"defect {self.id}: {len(self.lines)} lines, "
                             f"need 2 to {N_LINES}")
        if not all(map(math.isfinite, self.lines)):
            raise ValueError(f"defect {self.id}: non-finite line position")


class FitResult(namedtuple("FitResult", [
        "params",             # FineStructureParams
        "strains", "offsets", "residual_rms", "iterations", "assignments",
        "edge_ids",           # defects whose best grid strain is STRAIN_MAX
        "bound_names",        # lambda_z, d_es, delta_cap on a BOUNDS end
        "errors",             # global -> 1 sigma, GHz
        "stalled",            # no damped step lowered the cost
        "reason"])):          # why the fit did not converge; "" if it did
    __slots__ = ()

    @property
    def converged(self):
        return not self.reason


def predicted_lines(family, delta_perp):
    """The six excited eigenvalues (GHz) of a `strain_family`, sorted
    along the last axis: line positions up to the per-defect offset,
    with the ground sublevels collapsed. Strains of any shape (...) give
    (..., 6), from one stacked solve."""
    return eigensolve(strain_hamiltonians(family, delta_perp), vectors=False)


def _mean(x):
    # np.mean's value without its call overhead, which the fit pays often
    return x.sum(axis=-1) / x.shape[-1]


def _closest(sel, shift, target):
    """Index (...) of the row of sel (..., n, m) - shift nearest target."""
    if sel.shape[-2] == 1:
        return np.zeros(sel.shape[:-2], dtype=np.intp)
    dist = sel - shift[..., None, None] - target[..., None, :]
    return np.abs(dist, out=dist).sum(axis=-1).argmin(axis=-1)


def _take(sel, k):
    """Row k (...) of the candidates sel (..., n, m)."""
    if sel.shape[-2] == 1:
        return sel[..., 0, :]
    if sel.shape[:-2] != k.shape:
        sel = np.broadcast_to(sel, k.shape + sel.shape[-2:])
    return sel[(*np.indices(k.shape, sparse=True), k)]


def _match(pred, meas):
    """Line matching, batched over the leading axes of sorted pred (..., 6)
    and meas (..., m). The offset is mean(meas - first), first being the
    injection closest in L1 after centring both on their means (pred on
    that of all six lines). Returns residuals pred + offset - meas of the
    injection closest in L1 at that offset, its row of _INJECTIONS[m], and
    first's row."""
    sel = pred[..., _INJECTIONS[meas.shape[-1]]]
    meas_c = meas - _mean(meas)[..., None]
    k_first = _closest(sel, _mean(pred), meas_c)
    anchor = _mean(_take(sel, k_first))
    k = _closest(sel, anchor, meas_c)
    return (_take(sel, k) - anchor[..., None]) - meas_c, k, k_first


def _matched(sel, k, k_first):
    """Residual derivatives (n, q, m) from line derivatives sel (n, q, C,
    m) on the C(6, m) injections: those of the matched row k less the
    mean of row k_first, on which the offset is fixed."""
    fixed = sel.shape[:2]
    return (_take(sel, np.broadcast_to(k[:, None], fixed))
            - _mean(_take(sel, np.broadcast_to(k_first[:, None], fixed)))
            [..., None])


def _cost(pred, meas):
    """Squared residual of the matched lines, GHz^2."""
    diff = _match(pred, meas)[0]
    diff *= diff        # in place: on the grid scan it is a large array
    return diff.sum(axis=-1)


def _groups(data):
    """(positions in data, sorted lines (n, m)) per line count m."""
    counts = np.array([len(d.lines) for d in data])
    # not np.unique, which imports numpy.ma
    idxs = [np.flatnonzero(counts == m) for m in sorted(set(counts.tolist()))]
    return [(idx, np.sort([data[i].lines for i in idx])) for idx in idxs]


def _newton_strains(family, grid, costs, meas, start=None):
    """Per-defect strain minimization for any line count, batched across
    defects and kept in the bracket of grid points around the coarse-grid
    minimum. Full line lists start from the strains start where they lie
    inside that bracket (the fit passes variable projection's first-order
    prediction), from the grid minimum elsewhere. With fewer lines the
    matching can switch inside the bracket, and the grid minimum can sit
    in the wrong basin: those lists rescan the bracket at RESCAN interior
    points, start from the cheapest of them and the grid minimum, and
    step at most one rescan spacing either side of that start. Newton
    steps on half the squared residual r: one stacked eigensolve gives
    the lines and, on the matched ones (`_matched`), the slopes J and
    curvatures E'' of r, so the gradient J.r and curvature J.J + r.E''
    are exact; J.J stands in where the latter is not positive. The first
    step that moves no strain by more than STRAIN_TOL is taken
    unevaluated and ends the search, so the strain is Newton's fixed
    point; after NEWTON_STEPS steps it is the last point evaluated.
    Returns it with the last cost evaluated, or the start where that
    costs less."""
    rows = np.arange(costs.shape[0])
    k = np.argmin(costs, axis=1)
    kb = np.clip(k, 1, grid.size - 2)
    lo, hi = grid[kb - 1], grid[kb + 1]
    x0, cost0 = grid[k], costs[rows, k]
    x = x0
    inj = _INJECTIONS[meas.shape[1]]
    if meas.shape[1] < N_LINES:
        spacing = (hi - lo) / (RESCAN + 1)
        scan = lo[:, None] + spacing[:, None] * np.arange(1, RESCAN + 1)
        scan_costs = _cost(predicted_lines(family, scan), meas[:, None, :])
        j = np.argmin(scan_costs, axis=1)
        better = scan_costs[rows, j] < cost0
        x = x0 = np.where(better, scan[rows, j], x0)
        cost0 = np.where(better, scan_costs[rows, j], cost0)
        lo, hi = np.maximum(lo, x0 - spacing), np.minimum(hi, x0 + spacing)
    elif start is not None:
        x = np.where((start >= lo) & (start <= hi), start, x0)
    for step in range(NEWTON_STEPS + 1):
        values, slopes, curv = strain_slopes(family, x, curvatures=True)
        r, k, k_first = _match(values, meas)
        cost = (r * r).sum(axis=1)
        if step == NEWTON_STEPS:
            break
        jac, curv = _matched(np.stack([slopes, curv], axis=1)[..., inj],
                             k, k_first).transpose(1, 0, 2)
        grad, gauss_newton = (jac * r).sum(axis=1), (jac * jac).sum(axis=1)
        newton = gauss_newton + (r * curv).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            dx = grad / np.where(newton > 0, newton, gauss_newton)
        # a non-finite step (a flat J) counts as no step
        last_x = x
        x = np.clip(x - np.where(np.isfinite(dx), dx, 0.0), lo, hi)
        if np.max(np.abs(x - last_x)) <= STRAIN_TOL:
            break
    kept = cost <= cost0
    return np.where(kept, x, x0), np.where(kept, cost, cost0)


def _solve_strains(family, groups, guess=None):
    """Every defect's best strain in a parameter point's family and its
    cost, in data order: a scan of STRAIN_GRID, then `_newton_strains`;
    full line lists start from the strains guess (data order) where
    given. Also flags the defects whose best grid strain is STRAIN_MAX."""
    n = sum(idx.size for idx, _ in groups)
    grid_pred = predicted_lines(family, STRAIN_GRID)
    strains, costs = np.empty(n), np.empty(n)
    at_edge = np.empty(n, dtype=bool)
    for idx, meas in groups:
        grid_costs = _cost(grid_pred, meas[:, None, :])
        strains[idx], costs[idx] = _newton_strains(
            family, STRAIN_GRID, grid_costs, meas,
            None if guess is None else guess[idx])
        at_edge[idx] = np.argmin(grid_costs, axis=1) == STRAIN_GRID.size - 1
    return strains, costs, at_edge


def _linearize(params, family, ops, strains, groups):
    """The matched residuals at the strains in params' family and their
    reduced Jacobian in the globals of the `parameter_operators` ops,
    from one eigensolve per group of `_groups`.
    Returns the residuals r and the Jacobian J (rows, p), group after
    group, then per defect in data order: the offsets, the squared
    residuals, the matched rows of _INJECTIONS and the strains'
    derivatives in the globals (n, p).

    A residual is sel_k - mean(first) - (meas - mean meas), so its
    derivative is that of the matched row k minus the mean derivative of
    first, the injection the offset is fixed on; it is not row k's own
    mean wherever the two rows differ. Derivatives are Hellmann-Feynman
    slopes, exact since the Hamiltonian is linear in every global.
    Variable projection (Kaufman): the strain direction is projected out
    of each defect's rows, J = J_theta - J_delta (J_delta . J_theta) /
    (J_delta . J_delta), as the strain is re-minimized at every point;
    to the same (Gauss-Newton) order that strain moves by -coef per unit
    of each global."""
    n, p = strains.size, ops.shape[0]
    offsets, sq = np.empty(n), np.empty(n)
    rows, d_strain = [None] * n, np.empty((n, p))
    r, jacs = [], []
    for idx, meas in groups:
        values, d_delta, d_theta = strain_slopes(family, strains[idx], ops)
        diff, k, k_first = _match(values, meas)
        inj = _INJECTIONS[meas.shape[1]]
        if meas.shape[1] == N_LINES:
            # the six lines' mean is tr H / 6 = zpl_offset (axial strain
            # included) at every strain: no eigenvalue rounding
            offsets[idx] = _mean(meas) - params.zpl_offset
        else:
            offsets[idx] = _mean(meas - _take(values[:, inj], k_first))
        sq[idx] = (diff * diff).sum(axis=1)
        for i, row in zip(idx.tolist(), inj[k].tolist()):
            rows[i] = row
        # derivatives along the strain, then each global: (n, 1 + p, 6)
        d = _matched(np.concatenate([d_delta[:, None], d_theta],
                                    axis=1)[..., inj], k, k_first)
        j_delta, j_theta = d[:, 0], d[:, 1:]
        with np.errstate(divide="ignore", invalid="ignore"):
            coef = (j_theta @ j_delta[..., None]) \
                / (j_delta * j_delta).sum(axis=1)[:, None, None]
        # a flat strain direction has nothing to project out
        coef = np.where(np.isfinite(coef), coef, 0.0)
        jac = j_theta - coef * j_delta[:, None, :]
        r.append(diff.ravel())
        jacs.append(jac.transpose(0, 2, 1).reshape(-1, p))
        d_strain[idx] = -coef[..., 0]
    return np.concatenate(r), np.concatenate(jacs), offsets, sq, rows, \
        d_strain


def fit(data, params=None, free_lambda_perp=False):
    """Fit shared fine-structure parameters plus per-defect strain and
    offset, started from params (default FineStructureParams()), by least
    squares: the cost is the unweighted sum of squared matched residuals,
    in GHz^2. The globals fitted are lambda_z, d_es and delta_cap, plus
    lambda_perp if free_lambda_perp; each stays within BOUNDS, and every
    other field keeps its value in params. The fit is by variable
    projection: the cost of the globals is its minimum over every
    defect's strain (a grid scan plus 1-D refinement, a deterministic
    multi-start) and offset (closed form). A Levenberg-Marquardt loop
    minimizes it on the exact reduced Jacobian (see `_linearize`, run
    once per accepted point), holding for an iteration each global on a
    bound whose gradient pushes outward. It converges when the Gauss-Newton step,
    clipped to the bounds, moves no global by more than XTOL relative to
    the largest, or an accepted step lowers the cost by at most TOL
    relative. It stops without when no damped step up to MU_MAX lowers
    the cost (`stalled`) or after MAX_ITER iterations. lambda_perp, when
    free, is kept at least PERP_FLOOR. A defect whose best grid point is
    STRAIN_MAX flags the fit not converged and is listed in `edge_ids`;
    so does a global other than lambda_perp that ends exactly on an end
    of its BOUNDS, listed in `bound_names`. `reason` names those, else
    the stall, else the iteration limit; it is empty once converged.
    1 sigma errors of the globals come from the final Jacobian,
    (J^T J)^-1 cost / (lines - free). No defects, or fewer lines than
    free parameters, is an input error (ValueError); a cost not finite at
    the start raises FitError before LAPACK sees it."""
    if not data:
        raise ValueError("no defects supplied")
    start = FineStructureParams() if params is None else params
    names = ["lambda_z", "d_es", "delta_cap"]
    if free_lambda_perp:
        names.append("lambda_perp")
    n_lines = sum(len(d.lines) for d in data)
    n_free = len(names) + 2 * len(data)
    if n_lines < n_free:
        raise ValueError(
            f"under-determined: {n_lines} lines for {n_free} free "
            f"parameters ({len(names)} global + 2 per defect)")

    lo = np.array([BOUNDS[n][0] for n in names])
    hi = np.array([BOUNDS[n][1] for n in names])
    if free_lambda_perp:
        # the spectrum is even in lambda_perp: at 0 every slope in it and
        # the cost's gradient vanish, and no step would leave 0
        lo[-1] = max(lo[-1], PERP_FLOOR)
    groups = _groups(data)
    ops = parameter_operators(names)

    # a trial whose cost overflows is merely rejected
    @np.errstate(over="ignore", divide="ignore", invalid="ignore")
    def evaluate(theta, guess=None):
        params = start._replace(**dict(zip(names, theta)))
        family = strain_family(params)
        strains, costs, at_edge = _solve_strains(family, groups, guess)
        return params, family, strains, at_edge, float(costs.sum())

    theta = np.clip([getattr(start, n) for n in names], lo, hi)
    params, family, strains, at_edge, cost = evaluate(theta)
    if not np.isfinite(cost):
        raise FitError(f"the cost at the starting parameters is not finite "
                       f"({cost:g}): line positions out of range")
    # linearized once per accepted point, the last one reused below
    lin = _linearize(params, family, ops, strains, groups)
    mu, nit, converged, stalled = MU_START, 0, False, False
    while not (converged or stalled) and nit < MAX_ITER:
        nit += 1
        # r, J, J^T J are finite as the accepted cost is: Hellmann-Feynman
        # slopes are O(1) and Kaufman's projection cannot grow a row
        r, jac, *_, d_strain = lin
        grad, hess = jac.T @ r, jac.T @ jac
        # a global on a bound whose gradient pushes outward is held for
        # this iteration: the steps are solved over the free ones only
        free = np.flatnonzero(~((theta <= lo) & (grad > 0)
                                | (theta >= hi) & (grad < 0)))
        step = np.zeros_like(theta)
        # the undamped (Gauss-Newton) step tests convergence; a damped
        # one is short merely because mu is large
        step[free] = np.linalg.lstsq(jac[:, free], -r, rcond=None)[0]
        gauss_newton = np.clip(theta + step, lo, hi) - theta
        if np.max(np.abs(gauss_newton)) <= XTOL * np.max(np.abs(theta)):
            converged = True
            break
        # the floor keeps a flat column from making the system singular
        scale = np.diag(hess)
        scale = np.maximum(scale, SCALE_FLOOR * scale.max())[free]
        hess, grad = hess[np.ix_(free, free)], grad[free]
        while True:
            step[free] = np.linalg.solve(hess + mu * np.diag(scale), -grad)
            trial = np.clip(theta + step, lo, hi)
            # each defect's strain there, to first order, starts its
            # Newton refinement
            state = evaluate(trial, strains + d_strain @ (trial - theta))
            if state[-1] < cost:
                converged = cost - state[-1] <= TOL * cost
                theta, (params, family, strains, at_edge, cost) = trial, state
                lin = _linearize(params, family, ops, strains, groups)
                mu /= 10.0
                break
            mu *= 10.0
            if mu > MU_MAX:
                stalled = True
                break

    on_bound = tuple(n for n, t in zip(names, theta.tolist())
                     if n != "lambda_perp" and t in BOUNDS[n])
    edge_ids = tuple(d.id for d, e in zip(data, at_edge) if e)
    reason = "; ".join(f"{what}: {', '.join(ids)}" for what, ids in (
        ("defects at the strain-grid edge", edge_ids),
        ("globals on an end of their fit bounds", on_bound)) if ids)
    if not (reason or converged):
        reason = ("no step the optimizer tried lowered the cost "
                  f"(iteration {nit})" if stalled else
                  "the optimizer stopped at its iteration limit "
                  f"({nit} iterations)")
    _, jac, offsets, sq, rows, _ = lin
    dof = n_lines - n_free
    errors = {}
    # a global the lines do not depend on has no error
    cols = np.flatnonzero(np.any(jac != 0.0, axis=0))
    if dof > 0 and cols.size:
        normal = jac[:, cols].T @ jac[:, cols]
        cov = np.linalg.inv(normal) * (cost / dof)
        errors = dict(zip([names[j] for j in cols],
                          np.sqrt(np.diag(cov)).tolist()))
    return FitResult(
        params=params,
        strains={d.id: float(x) for d, x in zip(data, strains)},
        offsets={d.id: float(x) for d, x in zip(data, offsets)},
        residual_rms=float(np.sqrt(sq.sum() / n_lines)),
        iterations=nit,
        stalled=stalled,
        assignments={d.id: list(enumerate(row))
                     for d, row in zip(data, rows)},
        edge_ids=edge_ids,
        bound_names=on_bound,
        errors=errors,
        reason=reason,
    )


def synthesize_dataset(params, strains, offsets=None, noise=0.0, seed=0):
    """Synthetic defect set drawn from the model itself (round-trip and
    Monte-Carlo fixtures)."""
    rng = np.random.default_rng(seed)
    if offsets is None:
        offsets = rng.uniform(-5.0, 5.0, size=len(strains))
    defects = []
    for i, lines in enumerate(predicted_lines(strain_family(params), strains)
                              + np.asarray(offsets)[:, None]):
        if noise > 0:
            lines = lines + rng.normal(0.0, noise, size=lines.size)
        defects.append(ObservedDefect(id=f"nv{i+1:02d}",
                                      lines=tuple(np.sort(lines))))
    return defects
