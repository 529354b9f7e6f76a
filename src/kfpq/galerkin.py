"""Hermite tensor-product discretization used as the independent oracle.

Everything here is deliberately different from the closed-form modules: the
generator and the weight operators are assembled as sums of Kronecker
products of one-variable ladder matrices in the Hermite basis of L^2(R^2)
(see ``build``), exponentiated on the blocks the generator conserves, and
measured through power iteration on singular values.  Agreement between
these numbers and the closed forms is the main cross-check of the package.

The generator K conserves a Hermite level: attracting transport
a_q a_p^* - a_q^* a_p keeps m + n, repelling transport a_q a_p - a_q^* a_p^*
keeps m - n, and O_p is diagonal.  K is therefore block diagonal with
dim_q + dim_p - 1 blocks of at most min(dim_q, dim_p) states, each of one
parity of m + n.  A decay curve exponentiates every block on its own and
power-iterates the even and the odd sector separately (see
``decay_curve``).

Truncation is the dominant error source.  Algebraic identities are therefore
asserted only on interior blocks (indices whose ladder images stay below the
truncation level), every curve carries a two-level convergence check, and
the repelling model's exact spurious corner mode (see
``corner_mode_vector``) is deflated before norms are taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse.csgraph import connected_components

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
    "corner_mode_vector",
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
    """A block of K mixes the parities of m + n, or a weight block that the
    parity split of a decay curve leaves out is not zero."""


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


@dataclass(frozen=True, eq=False)
class HermiteOperator:
    """Dense matrix of one model operator on the truncated Hermite basis.

    The flattened index is m * dim_p + n with m the q-level and n the
    p-level.  A conserved-level block of K keeps the dims of its assembly
    and holds only the states of that level, in flattened order.
    """

    dim_q: int
    dim_p: int
    matrix: np.ndarray
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
    """Assemble one operator matrix as a sum of Kronecker products.

    Supported labels: O_p, O_q (oscillators), X (transport at unit
    curvature scale, multiplied by sqrt(nu) inside K), Y (commutator partner
    of O_p and X), K (full quadratic generator), K_degenerate (linear
    potential, includes the -1/2 shift), a_q / a_q_star (q-ladder), D_q
    (the q-derivative; its matrix is the skew form of i D_q, which has the
    same norms), grad_V (multiplication by the potential gradient), and
    weight_q (the diagonal square root of nu O_q).

    Each operator is a short table of (q-factor, p-factor, coefficient)
    terms on the one-variable ladder matrices, summed as
    ``coefficient * kron(q_factor, p_factor)``; attracting transport, for
    one, is ``kron(d_q, p) - kron(q, d_p)``.  No product of two full-size
    matrices is formed.  Every q-factor is diagonal or tridiagonal, so each
    Kronecker product is added block by block over the nonzero entries of
    its q-factor; the entries are the ones ``np.kron`` would give.
    """
    if dim_q < 2 or dim_p < 2:
        raise ValueError("need at least two Hermite levels per variable")
    if label not in OPERATOR_LABELS:
        raise UnknownLabel("no operator labelled %r" % (label,))
    # (q-level row, p-level row, q-level column, p-level column)
    mat = np.zeros((dim_q, dim_p, dim_q, dim_p))
    for q_factor, p_factor, coefficient in _kron_terms(label, params, dim_q, dim_p):
        for i, j in zip(*np.nonzero(q_factor)):
            mat[i, :, j, :] += coefficient * (q_factor[i, j] * p_factor)
    return HermiteOperator(dim_q=dim_q, dim_p=dim_p,
                           matrix=mat.reshape(dim_q * dim_p, dim_q * dim_p),
                           label=label)


def corner_mode_vector(dim_q: int, dim_p: int) -> np.ndarray:
    """Unit vector of the truncated repelling generator's spurious mode.

    Truncation deletes the raising part of the transport term on the state
    with top q-level and bottom p-level, leaving an exact eigenvector with
    eigenvalue 1/2 that the continuous operator does not have.  Subtracting
    e^{-t/2} times its projector from the exponential removes the dominant
    truncation artifact of every alpha = 0 norm.
    """
    v = np.zeros(dim_q * dim_p)
    v[(dim_q - 1) * dim_p] = 1.0
    return v


def semigroup_matrix(op: HermiteOperator, t: float) -> np.ndarray:
    """e^{-t M} by scaling-and-squaring; raises if non-finite."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    result = scipy.linalg.expm(-t * op.matrix)
    if not np.all(np.isfinite(result)):
        raise ExpNotConverged("exponential of %s at t=%g overflowed"
                              % (op.label, t))
    return result


def operator_norm(m: np.ndarray, tol: float = 1e-10,
                  max_iter: int = 20000) -> float:
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
    for _ in range(max_iter):
        w = mh @ (m @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        s = float(np.sqrt(nw))
        v = w / nw
        if abs(s - s_old) <= tol * max(1.0, s):
            return s
        s_old = s
    raise PowerIterationStalled("no convergence in %d iterations" % max_iter)


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
    """Two-level refinement data backing the per-sample flags."""

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


def _parity_sectors(dim_q: int, dim_p: int) -> tuple:
    """Flattened indices of the even and the odd total level m + n."""
    parity = np.add.outer(np.arange(dim_q), np.arange(dim_p)).ravel() % 2
    return np.flatnonzero(parity == 0), np.flatnonzero(parity == 1)


def _exact_zero(block: np.ndarray, what: str) -> None:
    if np.any(block):
        raise ParityNotConserved("%s couples the two parity sectors" % what)


def _conserved_blocks(gen: HermiteOperator) -> tuple:
    """Connected components of the nonzero pattern of ``gen``, grouped by
    the parity of m + n: (even blocks, odd blocks), each a list of
    flattened index arrays in increasing order.

    Raises ParityNotConserved if a component holds both parities.
    """
    # the CSR pattern holds exactly the nonzeros, and converts to a graph
    # faster than a dense boolean mask
    count, labels = connected_components(scipy.sparse.csr_array(gen.matrix),
                                         directed=True, connection="weak")
    blocks = ([], [])
    for label in range(count):
        states = np.flatnonzero(labels == label)
        parity = (states // gen.dim_p + states % gen.dim_p) % 2
        if np.any(parity != parity[0]):
            raise ParityNotConserved("a block of %s mixes the parities of m + n"
                                     % gen.label)
        blocks[parity[0]].append(states)
    return blocks


def _sector_exponentials(gen: HermiteOperator, idx: np.ndarray,
                         blocks: list, ts: Sequence[float]):
    """Yield e^{-t K} on the sector ``idx`` for each t of the sorted grid
    ``ts``, assembled from the exponentials of the ``blocks`` it holds.

    Each block is exponentiated and squared along the grid on its own; every
    yielded matrix is a fresh array that the caller may change.
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
                          ts: Sequence[float], dim: int) -> list:
    """Shifted oracle values e^{-t shift} ||W e^{-t K}|| at one truncation,
    taken sector by sector from the blocks of K (see ``decay_curve``).

    ``flip`` is 1 for a weight that changes the parity of m + n.
    """
    root_nu = np.sqrt(params.nu)
    gen = build("K", params, dim, dim)
    if quantity == "evolution_norm":
        weight, flip = None, 0
        shift = 0.0
    elif quantity == "derivative_weight":
        weight, flip = root_nu * build("D_q", params, dim, dim).matrix, 1
        shift = np.sqrt(_potential_constants(params).a)
    elif quantity == "gradient_weight":
        weight, flip = build("grad_V", params, dim, dim).matrix, 1
        shift = np.sqrt(_potential_constants(params).a)
    elif quantity == "position_weight":
        weight, flip = build("weight_q", params, dim, dim).matrix, 0
        shift = root_nu
    elif quantity == "creation_weight":
        weight, flip = root_nu * build("a_q_star", params, dim, dim).matrix, 1
        shift = params.nu ** (1.0 / 3.0)
    else:
        raise UnknownLabel("no matrix curve for %r" % (quantity,))
    blocks = _conserved_blocks(gen)
    sectors = _parity_sectors(dim, dim)
    # the repelling corner mode is one basis state, so deflating its
    # projector changes one diagonal entry of the sector that holds it
    corner = corner_mode_vector(dim, dim) * (params.alpha == 0)
    values = [0.0] * len(ts)
    for parity, idx in enumerate(sectors):
        if weight is not None:
            _exact_zero(weight[np.ix_(sectors[parity ^ flip ^ 1], idx)],
                        "the %s weight" % quantity)
            # at most two nonzeros per row
            w_block = scipy.sparse.csr_array(
                weight[np.ix_(sectors[parity ^ flip], idx)])
        deflate = np.flatnonzero(corner[idx])
        exps = _sector_exponentials(gen, idx, blocks[parity], ts)
        for k, (t, et) in enumerate(zip(ts, exps)):
            et[deflate, deflate] -= np.exp(-t / 2.0)
            m = et if weight is None else w_block @ et
            values[k] = max(values[k], operator_norm(m) * np.exp(-t * shift))
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
    best = 0.0
    # expm takes the stack of fibers and exponentiates each one on its own
    for xi, exp_fiber in zip(xis, scipy.linalg.expm(-t * fibers)):
        val = abs(xi) * operator_norm(exp_fiber)
        if val > best:
            best = val
    return best


def _degenerate_curve(params: ModelParams, ts: Sequence[float],
                      drift_tol: float, strict: bool) -> DecayCurve:
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
        converged = drift <= drift_tol
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
            "fiber truncation drift above %g at t=%s" % (drift_tol, failed))
    meta = ConvergenceMeta(levels=(28, 20), drift_tol=drift_tol,
                           drifts=tuple(drifts))
    return DecayCurve(quantity_label="degenerate_fiber", samples=tuple(samples),
                      convergence_meta=meta)


def decay_curve(quantity_label: str, params: ModelParams,
                t_grid: Sequence[float], dims: int = 64,
                drift_tol: float = 0.01, strict: bool = True) -> DecayCurve:
    """Oracle decay curve with per-sample two-level convergence flags.

    Each sample pairs the Galerkin value e^{-t shift} ||W e^{-t K}|| with the
    closed-form value (when one exists) and the analytic bound from the
    other modules.  The whole grid is recomputed at three quarters of the
    requested truncation; a relative change above ``drift_tol`` marks the
    sample unconverged and, when ``strict``, raises TruncationNotConverged.
    Flagged samples are still reported, never dropped.

    The matrix curves work on the blocks of K.  The attracting K conserves
    m + n and the repelling K conserves m - n, so K is block diagonal with
    2 dims - 1 blocks (the connected components of its nonzero pattern) of
    at most dims states each.  Each block is exponentiated, and squared
    along the grid, on its own; the results are written into the dense
    exponential of the parity sector of m + n that holds the block.  If a
    block holds both parities, ParityNotConserved is raised.  The weight
    W = 1 (evolution_norm) or weight_q keeps the parity; D_q, grad_V and
    a_q^* flip it, so W is applied, as a sparse matrix, as its block from
    one sector to the other.  Either way W e^{-t K} maps each sector onto
    one sector, and its norm is the larger of the two sector-block norms.
    The repelling corner mode, index (dims-1) * dims, is a block of its own
    (m - n = dims - 1 has one state), so deflating it changes one diagonal
    entry of its sector.  If the weight block left out is not exactly zero,
    ParityNotConserved is raised instead of dropping that block.
    """
    if quantity_label not in CURVE_QUANTITIES:
        raise UnknownLabel("no curve quantity %r" % (quantity_label,))
    ts = sorted(float(t) for t in t_grid)
    if not ts or ts[0] <= 0:
        raise ValueError("t grid must be positive")
    if quantity_label == "degenerate_fiber":
        return _degenerate_curve(params, ts, drift_tol, strict)
    low = max(8, (3 * dims) // 4)
    main_vals = _weighted_norm_values(quantity_label, params, ts, dims)
    check_vals = _weighted_norm_values(quantity_label, params, ts, low)
    samples = []
    drifts = []
    failed = []
    for t, val, ref in zip(ts, main_vals, check_vals):
        drift = abs(val / ref - 1.0) if ref != 0.0 else (0.0 if val == 0.0 else np.inf)
        converged = drift <= drift_tol
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
            % (drift_tol, failed, dims, low))
    meta = ConvergenceMeta(levels=(dims, low), drift_tol=drift_tol,
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

    gen = build("K", params, big, big).matrix
    osc_p = build("O_p", params, big, big).matrix
    transport = np.sqrt(params.nu) * build("X", params, big, big).matrix
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
