"""Hermite tensor-product discretization used as the independent oracle.

Everything here is deliberately different from the closed-form modules: the
generator and the weight operators are assembled as sparse sums of Kronecker
products of one-variable ladder matrices in the Hermite basis of L^2(R^2)
(see ``build``), exponentiated on the levels the generator conserves, and
measured through their largest singular values: power iteration on the
parity sectors, an SVD of each small degenerate fiber.  Agreement between
these numbers and the closed forms is the main cross-check of the package.

The generator K conserves a Hermite level: attracting transport
a_q a_p^* - a_q^* a_p keeps L = m + n, repelling transport
a_q a_p - a_q^* a_p^* keeps L = m - n, and O_p is diagonal.  Each level
holds one parity of m + n.  A decay curve therefore truncates by level, not
by the (m, n) box.  Attracting levels are finite chains of L + 1 states;
keeping the levels L <= dims - 1 whole makes W e^{-t K} an exact
compression of the untruncated operator.  Repelling levels are infinite
chains; the levels |L| <= dims - 1 are kept, each cut at dims // 2 states.
Every level is exponentiated on its own, and the even and the odd sector
are power-iterated separately (see ``decay_curve``).

Truncation is the dominant error source.  Algebraic identities are therefore
asserted only on interior blocks (indices whose ladder images stay below the
truncation level), and every curve carries a two-level convergence check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse

from .bargmann import remainder_bound
from .degenerate import fiber_exponent, sup_weighted
from .exactnorms import semigroup_norm
from .positivity import position_weight_decay_bound
from .symbols import ModelParams, PotentialSpec, constants

__all__ = [
    "UnknownLabel",
    "ExpNotConverged",
    "PowerIterationStalled",
    "TruncationNotConverged",
    "IndefinitePencil",
    "ParityNotConserved",
    "HermiteOperator",
    "CurveSample",
    "ConvergenceMeta",
    "DecayCurve",
    "OPERATOR_LABELS",
    "CURVE_QUANTITIES",
    "ladder",
    "build",
    "interior_indices",
    "semigroup_matrix",
    "operator_norm",
    "decay_curve",
    "subelliptic_constant",
]


class UnknownLabel(ValueError):
    """Operator or curve label not in the supported table."""


class ExpNotConverged(ArithmeticError):
    """Matrix exponential returned non-finite entries."""


class PowerIterationStalled(ArithmeticError):
    """Singular-value power iteration hit its iteration cap."""


class TruncationNotConverged(ArithmeticError):
    """Dimension refinement moved a curve sample by more than the tolerance."""


class IndefinitePencil(np.linalg.LinAlgError):
    """Right-hand Gram of the subelliptic pencil lost positive definiteness."""


class ParityNotConserved(ArithmeticError):
    """K couples two of the conserved levels a decay curve keeps (attracting:
    m + n <= dims - 1; repelling: |m - n| <= dims - 1, each cut at dims // 2
    states), or the weight maps the even and the odd sector onto a common
    row."""


OPERATOR_LABELS = (
    "O_p", "O_q", "X", "Y", "K", "K_degenerate",
    "a_q", "a_q_star", "D_q", "grad_V", "weight_q",
)

CURVE_QUANTITIES = (
    "evolution_norm",
    "derivative_weight",
    "gradient_weight",
    "position_weight",
    "creation_weight",
    "degenerate_fiber",
)

_POWER_TOL = 1e-10   # relative change at which power iteration stops
_MAX_ITER = 20000    # power iterations before PowerIterationStalled
_DRIFT_TOL = 0.01    # largest relative drift between the two truncations


@dataclass(frozen=True, eq=False)
class HermiteOperator:
    """CSR matrix of one model operator on the truncated Hermite basis.

    The flattened index is m * dim_p + n with m the q-level and n the
    p-level.  A conserved-level block of K keeps the dims of its assembly
    and holds only the states of that level, in flattened order.  A decay
    curve at ``dims`` assembles its box at dims + 1 (attracting, which holds
    the levels m + n <= dims - 1) or dims + dims // 2 (repelling, which
    holds the levels |m - n| <= dims - 1 cut at dims // 2 states each).
    """

    dim_q: int
    dim_p: int
    matrix: scipy.sparse.csr_array
    label: str


def ladder(dim: int) -> np.ndarray:
    """Annihilation matrix: a[n-1, n] = sqrt(n)."""
    m = np.zeros((dim, dim))
    for n in range(1, dim):
        m[n - 1, n] = np.sqrt(n)
    return m


def _ops_1d(dim: int):
    """Position, derivative, and shifted number matrices in one variable."""
    a = ladder(dim)
    position = (a + a.T) / np.sqrt(2.0)
    derivative = (a - a.T) / np.sqrt(2.0)
    number = np.diag(np.arange(dim) + 0.5)
    return position, derivative, number


def interior_indices(dim_q: int, dim_p: int, margin: int) -> np.ndarray:
    """Flattened indices whose ladder images stay below truncation.

    Identities involving operators that move at most ``margin`` levels hold
    exactly on this block; outside it they are truncation artifacts.
    """
    keep = []
    for m in range(dim_q - margin):
        base = m * dim_p
        keep.extend(range(base, base + dim_p - margin))
    return np.asarray(keep, dtype=int)


def _kron_terms(label: str, params: ModelParams, dim_q: int, dim_p: int):
    """(q-factor, p-factor, coefficient) terms whose Kronecker products sum
    to the operator ``label``."""
    qq, dq1, num_q = _ops_1d(dim_q)
    pp, dp1, num_p = _ops_1d(dim_p)
    eye_q, eye_p = np.eye(dim_q), np.eye(dim_p)
    sign = 1.0 if params.alpha > 0 else -1.0
    root_nu = np.sqrt(params.nu)
    # p d_q -/+ q d_p for the attracting / repelling potential
    transport = ((dq1, pp, 1.0), (qq, dp1, -sign))
    table = {
        "O_p": ((eye_q, num_p, 1.0),),
        "O_q": ((num_q, eye_p, 1.0),),
        "X": transport,
        "Y": ((dq1, dp1, -1.0), (qq, pp, sign)),
        "K": ((eye_q, num_p, 1.0),)
             + tuple((q, p, root_nu * c) for q, p, c in transport),
        "K_degenerate": ((dq1, pp, 1.0), (eye_q, dp1, -params.lambda1),
                         (eye_q, num_p, 1.0), (eye_q, eye_p, -0.5)),
        "a_q": ((ladder(dim_q), eye_p, 1.0),),
        "a_q_star": ((ladder(dim_q).T, eye_p, 1.0),),
        "D_q": ((dq1, eye_p, 1.0),),
        "grad_V": ((qq, eye_p, sign * root_nu),),
        "weight_q": ((np.diag(np.sqrt(params.nu * (np.arange(dim_q) + 0.5))),
                      eye_p, 1.0),),
    }
    return table[label]


def build(label: str, params: ModelParams, dim_q: int, dim_p: int) -> HermiteOperator:
    """Assemble one operator as a CSR sum of Kronecker products.

    Supported labels: O_p, O_q (oscillators), X (transport at unit
    curvature scale, multiplied by sqrt(nu) inside K), Y (commutator partner
    of O_p and X), K (full quadratic generator), K_degenerate (linear
    potential, includes the -1/2 shift), a_q / a_q_star (q-ladder), D_q
    (the q-derivative; its matrix is the skew form of i D_q, which has the
    same norms), grad_V (multiplication by the potential gradient), and
    weight_q (the diagonal square root of nu O_q).

    Each operator is a short table of (q-factor, p-factor, coefficient)
    terms on the one-variable ladder matrices, summed as sparse
    ``coefficient * kron(q_factor, p_factor)``; attracting transport, for
    one, is ``kron(d_q, p) - kron(q, d_p)``.  The entries are the ones
    ``np.kron`` would give.  Zero coefficients and cancelling terms leave
    explicit zeros, which are dropped: the decay curves read the stored
    pattern of K to check that it couples no two kept levels.
    """
    if dim_q < 2 or dim_p < 2:
        raise ValueError("need at least two Hermite levels per variable")
    if label not in OPERATOR_LABELS:
        raise UnknownLabel("no operator labelled %r" % (label,))
    matrix = sum(coefficient * scipy.sparse.kron(
                     scipy.sparse.csr_array(q_factor), p_factor, format="csr")
                 for q_factor, p_factor, coefficient
                 in _kron_terms(label, params, dim_q, dim_p))
    matrix.eliminate_zeros()
    return HermiteOperator(dim_q, dim_p, matrix, label)


def semigroup_matrix(op: HermiteOperator, t: float) -> np.ndarray:
    """Dense e^{-t M} of a conserved-level block M; raises if non-finite."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    result = scipy.linalg.expm(-t * op.matrix.toarray())
    if not np.all(np.isfinite(result)):
        raise ExpNotConverged("exponential of %s at t=%g overflowed"
                              % (op.label, t))
    return result


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value by power iteration on m* m.

    The start vector is deterministic (flat with a bumped first entry) so
    repeated runs agree bit for bit.
    """
    n = m.shape[1]
    v = np.ones(n) / np.sqrt(n)
    v[0] += 0.5
    v /= np.linalg.norm(v)
    mh = m.conj().T
    s_old = 0.0
    for _ in range(_MAX_ITER):
        w = mh @ (m @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        s = float(np.sqrt(nw))
        v = w / nw
        if abs(s - s_old) <= _POWER_TOL * max(1.0, s):
            return s
        s_old = s
    raise PowerIterationStalled("no convergence in %d iterations" % _MAX_ITER)


# ---------------------------------------------------------------------------
# decay curves


@dataclass(frozen=True)
class CurveSample:
    t: float
    analytic: Optional[float]
    bound: Optional[float]
    oracle: float
    rel_discrepancy: float
    converged: bool


@dataclass(frozen=True)
class ConvergenceMeta:
    """Two-level refinement data backing the per-sample flags.

    ``levels`` are the two truncations compared.  For a matrix curve they
    are ``dims``: the levels m + n <= dims - 1 whole (attracting) or the
    levels |m - n| <= dims - 1 cut at dims // 2 states (repelling).  For
    the degenerate fiber they are the fiber sizes.
    """

    levels: tuple
    drift_tol: float
    drifts: tuple


@dataclass(frozen=True)
class DecayCurve:
    quantity_label: str
    samples: tuple
    convergence_meta: ConvergenceMeta


def _potential_constants(params: ModelParams):
    signed = params.nu if params.alpha > 0 else -params.nu
    return constants(PotentialSpec(kind="quadratic", nus=(signed,)))


def _chained_exponentials(op: HermiteOperator, ts: Sequence[float]) -> dict:
    """Exponentials on a grid, squaring E(t/2) whenever it is available."""
    cache: dict = {}
    for t in sorted(ts):
        half = t / 2.0
        if half in cache:
            cache[t] = cache[half] @ cache[half]
            if not np.all(np.isfinite(cache[t])):
                raise ExpNotConverged("squaring chain overflowed at t=%g" % t)
        else:
            cache[t] = semigroup_matrix(op, t)
    return cache


def _conserved_levels(params: ModelParams, dims: int) -> tuple:
    """Box size and the kept conserved levels of K, grouped by parity:
    (size, (even levels, odd levels)), each level an array of flattened box
    indices in increasing order.

    Attracting K keeps L = m + n; the levels L <= dims - 1 are kept whole.
    Repelling K keeps L = m - n, whose chains are infinite; the levels
    |L| <= dims - 1 are kept, each cut at dims // 2 states.  The box is the
    smallest that holds every kept state and the q-level above it, which is
    as far as a weight reaches.  L and m + n have the same parity.
    """
    if params.alpha > 0:
        chain, size = dims, dims + 1
    else:
        chain, size = dims // 2, dims + dims // 2
    m, n = np.divmod(np.arange(size * size), size)
    level = m + n if params.alpha > 0 else m - n
    kept = (np.abs(level) < dims) & (np.minimum(m, n) < chain)
    levels = ([], [])
    for value in np.unique(level[kept]):
        levels[value % 2].append(np.flatnonzero(kept & (level == value)))
    return size, levels


def _sector_exponentials(gen: HermiteOperator, idx: np.ndarray,
                         blocks: list, ts: Sequence[float]):
    """Yield e^{-t K} on the sector ``idx`` for each t of the sorted grid
    ``ts``, assembled from the exponentials of the ``blocks`` it holds.

    Each block is exponentiated and squared along the grid on its own.
    """
    where = [np.searchsorted(idx, states) for states in blocks]
    chains = [_chained_exponentials(
        HermiteOperator(dim_q=gen.dim_q, dim_p=gen.dim_p,
                        matrix=gen.matrix[np.ix_(states, states)],
                        label="%s[block %d]" % (gen.label, k)), ts)
        for k, states in enumerate(blocks)]
    for t in ts:
        et = np.zeros((len(idx), len(idx)))
        for pos, chain in zip(where, chains):
            et[np.ix_(pos, pos)] = chain[t]
        yield et


def _weighted_norm_values(quantity: str, params: ModelParams,
                          ts: Sequence[float], dims: int) -> list:
    """Shifted oracle values e^{-t shift} ||W e^{-t K}|| at one truncation,
    taken sector by sector from the kept levels of K (see ``decay_curve``).
    """
    root_nu = np.sqrt(params.nu)
    size, levels = _conserved_levels(params, dims)
    gen = build("K", params, size, size)
    if quantity == "evolution_norm":
        weight = scipy.sparse.eye_array(size * size, format="csr")
        shift = 0.0
    elif quantity == "derivative_weight":
        weight = root_nu * build("D_q", params, size, size).matrix
        shift = np.sqrt(_potential_constants(params).a)
    elif quantity == "gradient_weight":
        weight = build("grad_V", params, size, size).matrix
        shift = np.sqrt(_potential_constants(params).a)
    elif quantity == "position_weight":
        weight = build("weight_q", params, size, size).matrix
        shift = root_nu
    elif quantity == "creation_weight":
        weight = root_nu * build("a_q_star", params, size, size).matrix
        shift = params.nu ** (1.0 / 3.0)
    else:
        raise UnknownLabel("no matrix curve for %r" % (quantity,))
    every = levels[0] + levels[1]
    kept = np.concatenate(every)
    owner = np.repeat(np.arange(len(every)), [len(states) for states in every])
    coupling = gen.matrix[np.ix_(kept, kept)].tocoo()
    if np.any(owner[coupling.row] != owner[coupling.col]):
        raise ParityNotConserved("%s couples two kept levels" % gen.label)
    values = [0.0] * len(ts)
    reached = np.zeros(0, dtype=int)
    for blocks in levels:
        idx = np.sort(np.concatenate(blocks))
        w_block = weight[:, idx]
        rows = np.flatnonzero(w_block.count_nonzero(axis=1))
        if np.intersect1d(rows, reached).size:
            raise ParityNotConserved("the %s weight couples the two parity "
                                     "sectors" % quantity)
        reached = rows
        w_block = w_block[rows]
        exps = _sector_exponentials(gen, idx, blocks, ts)
        for k, (t, et) in enumerate(zip(ts, exps)):
            values[k] = max(values[k],
                            operator_norm(w_block @ et) * np.exp(-t * shift))
    return values


def _curve_bound(quantity: str, params: ModelParams, t: float) -> Optional[float]:
    if quantity == "evolution_norm":
        return 1.0
    if quantity == "position_weight":
        return position_weight_decay_bound(t, params)
    if quantity == "creation_weight":
        return remainder_bound(t, params)
    if quantity in ("derivative_weight", "gradient_weight"):
        big_a = _potential_constants(params).a
        root_a = np.sqrt(big_a)
        root_nu = np.sqrt(params.nu)
        routes = [np.sqrt(2.0) * position_weight_decay_bound(t, params)
                  * np.exp(t * (root_nu - root_a))]
        if params.alpha > 0 and params.nu > 1:
            routes.append(np.sqrt(2.0) * remainder_bound(t, params)
                          * np.exp(t * (params.nu ** (1.0 / 3.0) - root_a)))
        return float(min(routes))
    return None


def _curve_analytic(quantity: str, params: ModelParams, t: float) -> Optional[float]:
    if quantity == "evolution_norm" and params.alpha == 0:
        return semigroup_norm(t, params.nu).norm
    return None


def _fiber_matrix_sup(t: float, lambda1: float, dim: int,
                      xi_grid: np.ndarray) -> float:
    """sup over a xi_q grid of |xi_q| ||e^{-t (fiber of K_degenerate + 1)}||.

    Each fiber is the 1D non-normal matrix diag(0..dim-1) + 1 + i b x with
    b = sqrt(xi^2 + lambda1^2); its true norm is e^{-t} e^{u(t) b^2}, so
    this doubles as a matrix-exponential validation of that formula.
    """
    x1, _, _ = _ops_1d(dim)
    base = np.diag(np.arange(dim, dtype=float)) + np.eye(dim)
    xis = xi_grid[xi_grid != 0.0]
    b = np.hypot(xis, lambda1)
    fibers = base + 1j * b[:, None, None] * x1
    # expm takes the stack of fibers and exponentiates each one on its own
    norms = np.linalg.norm(scipy.linalg.expm(-t * fibers), 2, axis=(1, 2))
    return float(np.max(np.abs(xis) * norms, initial=0.0))


def _degenerate_curve(params: ModelParams, ts: Sequence[float],
                      strict: bool) -> DecayCurve:
    lam = params.lambda1
    # the |xi| profile peaks at xi^2 = -1/(2u); keep the peak well inside
    xi_peak = np.sqrt(-0.5 / fiber_exponent(min(ts)))
    extent = max(12.0, 1.6 * xi_peak)
    xi_grid = np.linspace(0.0, extent, int(10 * extent) + 1)
    samples = []
    drifts = []
    failed = []
    for t in ts:
        oracle = _fiber_matrix_sup(t, lam, 28, xi_grid)
        check = _fiber_matrix_sup(t, lam, 20, xi_grid)
        drift = abs(oracle / check - 1.0) if check else 0.0
        converged = drift <= _DRIFT_TOL
        if not converged:
            failed.append(t)
        u = fiber_exponent(t)
        # continuous sup of |xi| e^{-t} e^{u (xi^2 + lam^2)} at xi^2 = -1/(2u)
        analytic = float(np.exp(-t) * np.exp(u * lam * lam)
                         * np.sqrt(-0.5 / u) * np.exp(-0.5))
        bound = float(np.sqrt(sup_weighted(t, lam)) * np.exp(-t))
        samples.append(CurveSample(t=float(t), analytic=analytic, bound=bound,
                                   oracle=oracle, rel_discrepancy=float(drift),
                                   converged=converged))
        drifts.append(float(drift))
    if failed and strict:
        raise TruncationNotConverged(
            "fiber truncation drift above %g at t=%s" % (_DRIFT_TOL, failed))
    meta = ConvergenceMeta(levels=(28, 20), drift_tol=_DRIFT_TOL,
                           drifts=tuple(drifts))
    return DecayCurve(quantity_label="degenerate_fiber", samples=tuple(samples),
                      convergence_meta=meta)


def decay_curve(quantity_label: str, params: ModelParams,
                t_grid: Sequence[float], dims: int = 64,
                strict: bool = True) -> DecayCurve:
    """Oracle decay curve with per-sample two-level convergence flags.

    Each sample pairs the Galerkin value e^{-t shift} ||W e^{-t K}|| with the
    closed-form value (when one exists) and the analytic bound from the
    other modules.  The whole grid is recomputed at three quarters of the
    requested truncation; a relative change above ``_DRIFT_TOL`` (1%) marks
    the sample unconverged and, when ``strict``, raises TruncationNotConverged.
    Flagged samples are still reported, never dropped.

    The matrix curves keep whole conserved levels of K (see the module
    docstring), read off the index map: L = m + n <= dims - 1 when
    attracting, and |L| = |m - n| <= dims - 1, each level cut at dims // 2
    states, when repelling.  K and W are sliced from one assembly at the
    smallest box that holds every kept state and every state W reaches.
    ParityNotConserved is raised if K couples two kept levels.  Each level
    is exponentiated densely, and squared along the grid, on its own, and
    written into the exponential of the parity sector of m + n that holds
    it.  W is applied from the columns of each sector to the rows it
    reaches; ParityNotConserved is raised if the two sectors reach a common
    row.  So W e^{-t K} is block diagonal over the sectors, and its norm is
    the larger of the two sector-block norms.
    """
    if quantity_label not in CURVE_QUANTITIES:
        raise UnknownLabel("no curve quantity %r" % (quantity_label,))
    ts = sorted(float(t) for t in t_grid)
    if not ts or ts[0] <= 0:
        raise ValueError("t grid must be positive")
    if quantity_label == "degenerate_fiber":
        return _degenerate_curve(params, ts, strict)
    low = max(8, (3 * dims) // 4)
    main_vals = _weighted_norm_values(quantity_label, params, ts, dims)
    check_vals = _weighted_norm_values(quantity_label, params, ts, low)
    samples = []
    drifts = []
    failed = []
    for t, val, ref in zip(ts, main_vals, check_vals):
        drift = abs(val / ref - 1.0) if ref != 0.0 else (0.0 if val == 0.0 else np.inf)
        converged = drift <= _DRIFT_TOL
        if not converged:
            failed.append(t)
        samples.append(CurveSample(t=float(t),
                                   analytic=_curve_analytic(quantity_label, params, t),
                                   bound=_curve_bound(quantity_label, params, t),
                                   oracle=float(val),
                                   rel_discrepancy=float(drift),
                                   converged=converged))
        drifts.append(float(drift))
    if failed and strict:
        raise TruncationNotConverged(
            "truncation drift above %g at t=%s (dims %d vs %d)"
            % (_DRIFT_TOL, failed, dims, low))
    meta = ConvergenceMeta(levels=(dims, low), drift_tol=_DRIFT_TOL,
                           drifts=tuple(drifts))
    return DecayCurve(quantity_label=quantity_label, samples=tuple(samples),
                      convergence_meta=meta)


# ---------------------------------------------------------------------------
# subelliptic pencil


def _bracket_weight(base: np.ndarray, scale: float) -> np.ndarray:
    """(1 + scale * x^2)^{2/3} of a symmetric matrix, by diagonalization."""
    w, vecs = np.linalg.eigh(base)
    return (vecs * (1.0 + scale * w * w) ** (2.0 / 3.0)) @ vecs.T


def subelliptic_constant(params: ModelParams, dims: int = 16) -> float:
    """Largest c in the truncated subelliptic inequality, via a pencil.

    On the dims x dims interior of a (dims+2)-level assembly, computes the
    smallest generalized eigenvalue of

        ||K u||^2 + A ||u||^2  >=  c ( ||O_p u||^2 + ||X u||^2
                                      + ||<grad V>^{2/3} u||^2
                                      + ||<D_q>^{2/3} u||^2 ).

    Fractional powers are taken on eigenvalues of the (normal) weight
    operators.  The assembly margin keeps ladder spill-over of the quadratic
    forms out of the restricted block.
    """
    if dims < 8:
        raise ValueError("pencil needs at least 8 levels per direction")
    big = dims + 2
    qq, dq1, _ = _ops_1d(big)
    eye_p = np.eye(big)

    gen, osc_p, x = (build(label, params, big, big).matrix.toarray()
                     for label in ("K", "O_p", "X"))
    transport = np.sqrt(params.nu) * x
    big_a = _potential_constants(params).a

    grad_sq = _bracket_weight(qq, params.nu)      # <grad V>^{4/3} on the q factor
    # D_q^2 = -(skew derivative)^2 is symmetric PSD; weight it on eigenvalues
    w, vecs = np.linalg.eigh(-dq1 @ dq1)
    deriv_sq = (vecs * (1.0 + np.maximum(w, 0.0)) ** (2.0 / 3.0)) @ vecs.T

    left = gen.T @ gen + big_a * np.eye(big * big)
    right = (osc_p.T @ osc_p + transport.T @ transport
             + np.kron(grad_sq, eye_p) + np.kron(deriv_sq, eye_p))

    idx = interior_indices(big, big, 2)
    left = left[np.ix_(idx, idx)]
    right = right[np.ix_(idx, idx)]
    left = 0.5 * (left + left.T)
    right = 0.5 * (right + right.T)
    try:
        np.linalg.cholesky(right)
    except np.linalg.LinAlgError as exc:
        raise IndefinitePencil("weight Gram not positive definite") from exc
    eigenvalues = scipy.linalg.eigh(left, right, eigvals_only=True)
    return float(eigenvalues[0])
