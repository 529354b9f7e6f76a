"""Hermite tensor-product discretization used as the independent oracle.

Everything here is deliberately different from the closed-form modules: the
generator and the weight operators are assembled as sparse Kronecker
products of one-variable ladder matrices in the Hermite basis of L^2(R^2),
straight from the nonzeros of the factors (see ``build``), exponentiated on
the levels the generator conserves, and measured through their largest
singular values: one certified ARPACK Lanczos run on each parity sector,
which applies the exponential one level block at a time and never assembles
the sector matrix (see ``operator_norm``), and the top eigenvalue of the
Gram matrix of each small degenerate fiber that a Schatten-4 bound leaves
in the running for the sup, taken in a real gauge (see
``_fiber_matrix_sups``).  Agreement between these numbers and the closed
forms is the main cross-check of the package.
The two forms of the subelliptic pencil are assembled the same way, on
the truncation's interior, from short tables of Gram terms of the
one-variable factors, so they come out exactly symmetric; each is cut into
one dense block per parity of m + n in one pass over its stored entries,
and the pencil is solved densely on each (see ``subelliptic_constant``).

The generator K conserves a Hermite level: attracting transport
a_q a_p^* - a_q^* a_p keeps L = m + n, repelling transport
a_q a_p - a_q^* a_p^* keeps L = m - n, and O_p is diagonal.  Each level
holds one parity of m + n.  A decay curve therefore truncates by level, not
by the (m, n) box.  Attracting levels are finite chains of L + 1 states;
keeping the levels L <= dims - 1 whole makes W e^{-t K} an exact
compression of the untruncated operator.  Repelling levels are infinite
chains; the levels |L| <= dims - 1 are kept, each cut at dims // 2 states.
Every level is exponentiated on its own, the levels of each parity sector
are stacked zero-padded to the widest, and the norms of the even and the
odd sector are taken separately (see ``decay_curve``).  Along a t grid, an
exponential at 2t is the square of the one at t whenever t is on the grid,
for the level blocks and for the stack of degenerate fibers alike.

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
import scipy.sparse.linalg

from .bargmann import remainder_bound
from .degenerate import fiber_exponent, sup_weighted
from .exactnorms import semigroup_norm
from .positivity import position_weight_decay_bound
from .symbols import ModelParams, PotentialSpec, constants

__all__ = [
    "UnknownLabel",
    "ExpNotConverged",
    "NormNotConverged",
    "TruncationNotConverged",
    "IndefinitePencil",
    "ParityNotConserved",
    "CurveSample",
    "ConvergenceMeta",
    "DecayCurve",
    "OPERATOR_LABELS",
    "CURVE_QUANTITIES",
    "ladder",
    "build",
    "semigroup_matrix",
    "operator_norm",
    "decay_curve",
    "subelliptic_constant",
]


class UnknownLabel(ValueError):
    """Operator or curve label not in the supported table."""


class ExpNotConverged(ArithmeticError):
    """Matrix exponential returned non-finite entries."""


class NormNotConverged(ArithmeticError):
    """ARPACK stopped before the largest singular value converged."""


class TruncationNotConverged(ArithmeticError):
    """Dimension refinement moved a curve sample by more than the tolerance."""


class IndefinitePencil(np.linalg.LinAlgError):
    """Right-hand Gram of the subelliptic pencil lost positive definiteness."""


class ParityNotConserved(ArithmeticError):
    """K couples two of the conserved levels a decay curve keeps (attracting:
    m + n <= dims - 1; repelling: |m - n| <= dims - 1, each cut at dims // 2
    states), the weight maps the even and the odd sector onto a common
    row, or a form of the subelliptic pencil stores an entry between the
    two parities of m + n."""


OPERATOR_LABELS = (
    "O_p", "X", "Y", "K", "a_q_star", "D_q", "grad_V", "weight_q",
)

CURVE_QUANTITIES = (
    "evolution_norm",
    "derivative_weight",
    "gradient_weight",
    "position_weight",
    "creation_weight",
    "degenerate_fiber",
)

_DRIFT_TOL = 0.01    # largest relative drift between the two truncations


def ladder(dim: int) -> np.ndarray:
    """Annihilation matrix: a[n-1, n] = sqrt(n)."""
    m = np.zeros((dim, dim))
    n = np.arange(1, dim)
    m[n - 1, n] = np.sqrt(n)
    return m


def _ops_1d(dim: int):
    """Position, derivative, and shifted number matrices in one variable."""
    a = ladder(dim)
    position = (a + a.T) / np.sqrt(2.0)
    derivative = (a - a.T) / np.sqrt(2.0)
    number = np.diag(np.arange(dim) + 0.5)
    return position, derivative, number


def _kron_terms(label: str, params: ModelParams, dim_q: int, dim_p: int):
    """(q-factor, p-factor, coefficient) terms whose Kronecker products sum
    to the operator ``label``."""
    qq, dq1, _ = _ops_1d(dim_q)
    pp, dp1, num_p = _ops_1d(dim_p)
    eye_q, eye_p = np.eye(dim_q), np.eye(dim_p)
    sign = 1.0 if params.alpha > 0 else -1.0
    root_nu = np.sqrt(params.nu)
    # p d_q -/+ q d_p for the attracting / repelling potential
    transport = ((dq1, pp, 1.0), (qq, dp1, -sign))
    table = {
        "O_p": ((eye_q, num_p, 1.0),),
        "X": transport,
        "Y": ((dq1, dp1, -1.0), (qq, pp, sign)),
        "K": ((eye_q, num_p, 1.0),)
             + tuple((q, p, root_nu * c) for q, p, c in transport),
        "a_q_star": ((ladder(dim_q).T, eye_p, 1.0),),
        "D_q": ((dq1, eye_p, 1.0),),
        "grad_V": ((qq, eye_p, sign * root_nu),),
        "weight_q": ((np.diag(np.sqrt(params.nu * (np.arange(dim_q) + 0.5))),
                      eye_p, 1.0),),
    }
    return table[label]


def build(label: str, params: ModelParams, dim_q: int,
          dim_p: int) -> scipy.sparse.csr_array:
    """Assemble one operator as a CSR sum of Kronecker products.

    The flattened index is m * dim_p + n with m the q-level and n the
    p-level.

    Supported labels: O_p (p-oscillator), X (transport at unit curvature
    scale, multiplied by sqrt(nu) inside K), Y (commutator partner of O_p
    and X), K (full quadratic generator), a_q_star (q-creation), D_q (the
    q-derivative; its matrix is the skew form of i D_q, which has the same
    norms), grad_V (multiplication by the potential gradient), and weight_q
    (the diagonal square root of nu (m + 1/2), m the q-level).

    Each operator is a short table of (q-factor, p-factor, coefficient)
    terms on the one-variable ladder matrices; attracting transport, for
    one, is ``kron(d_q, p) - kron(q, d_p)``.  The terms are formed from
    the nonzeros of their factors by index arithmetic (``_assemble``), and
    the conversion to CSR sums the entries that share a position.  No
    position gets more than two, so the sum does not depend on their
    order, and the entries are the ones ``np.kron`` would give.  Zero
    coefficients and cancelling terms leave explicit zeros,
    which are dropped: the decay curves read the stored pattern of K to
    check that it couples no two kept levels.
    """
    if dim_q < 2 or dim_p < 2:
        raise ValueError("need at least two Hermite levels per variable")
    if label not in OPERATOR_LABELS:
        raise UnknownLabel("no operator labelled %r" % (label,))
    matrix = _assemble(_kron_terms(label, params, dim_q, dim_p),
                       dim_q, dim_p).tocsr()
    matrix.eliminate_zeros()
    return matrix


def _assemble(terms, dim_q: int, dim_p: int,
              symmetric: bool = False) -> scipy.sparse.coo_array:
    """Sum of the Kronecker products of a table of (q-factor, p-factor,
    coefficient) terms, with dim_q x dim_q q-factors and dim_p x dim_p
    p-factors, stored entry by entry.

    Each term is formed from the nonzeros of its two factors by index
    arithmetic: the nonzero (i, j) of the q-factor and (k, l) of the
    p-factor give the entry (i dim_p + k, j dim_p + l) with value
    ``coefficient * (q * p)``, the entry ``np.kron`` gives.  The entries of
    all terms are stored in table order, those that share a position
    unsummed; a conversion to CSR, or ``_diagonal_blocks``, sums them.

    With ``symmetric`` each term stands for the symmetric part
    (T + T^T) / 2 of its product T = q (x) p, read on the nonzeros of q or
    q^T and of p or p^T: the entry at (r, c) adds the products of T at
    (r, c) and at (c, r), and the one at (c, r) adds the same two in the
    other order.  Each term thus stores equal values at mirrored
    positions, and a sum in table order is exactly symmetric.
    """
    rows, cols, values = [], [], []
    for q_factor, p_factor, coefficient in terms:
        if symmetric:
            q_rows, q_cols = np.nonzero((q_factor != 0) | (q_factor.T != 0))
            p_rows, p_cols = np.nonzero((p_factor != 0) | (p_factor.T != 0))
        else:
            q_rows, q_cols = np.nonzero(q_factor)
            p_rows, p_cols = np.nonzero(p_factor)
        product = np.multiply.outer(q_factor[q_rows, q_cols],
                                    p_factor[p_rows, p_cols])
        if symmetric:
            product += np.multiply.outer(q_factor[q_cols, q_rows],
                                         p_factor[p_cols, p_rows])
            coefficient = 0.5 * coefficient
        rows.append((q_rows[:, None] * dim_p + p_rows).ravel())
        cols.append((q_cols[:, None] * dim_p + p_cols).ravel())
        values.append((coefficient * product).ravel())
    # 32-bit indices, as scipy.sparse itself picks for any dense-factor size
    return scipy.sparse.coo_array(
        (np.concatenate(values), (np.concatenate(rows).astype(np.int32),
                                  np.concatenate(cols).astype(np.int32))),
        shape=(dim_q * dim_p, dim_q * dim_p))


def semigroup_matrix(gen: np.ndarray, t: float) -> np.ndarray:
    """e^{-t M} of a dense matrix M, or of each matrix of a stack
    (..., n, n); raises if non-finite."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    result = scipy.linalg.expm(-t * gen)
    if not np.all(np.isfinite(result)):
        raise ExpNotConverged("exponential at t=%g overflowed" % t)
    return result


def operator_norm(blocks: np.ndarray, weight) -> float:
    """Largest singular value of W B, where B = blockdiag(blocks) is the
    block diagonal of a dense stack ``blocks`` (k, r, c) and W = ``weight``
    is a sparse matrix with k r columns.

    The norm is the square root of the top eigenvalue of the Gram matrix
    G = (W B)* (W B), from one ARPACK Lanczos run to machine precision on
    the products x -> B* (W* (W (B x))).  B is never assembled: it is
    applied with one batched ``np.matmul`` on the stack.  A dense matrix m
    is ``operator_norm(m[None], scipy.sparse.eye_array(m.shape[0]))``.

    The start vector is deterministic (flat with a bumped first entry) so
    repeated runs agree bit for bit.  ARPACK needs at least two columns of
    W B (three when it is complex) and a nonzero W B.  The returned pair
    (rho, v) is certified by one more product: NormNotConverged is raised
    when ARPACK stops without converging, or when the Ritz residual
    ||G v - rho v|| is above 1e-12 rho.
    """
    count, _, cols = blocks.shape
    n = count * cols
    v0 = np.ones(n) / np.sqrt(n)
    v0[0] += 0.5
    adjoint = blocks.conj().transpose(0, 2, 1)
    weight_h = weight.conj().T

    def gram(x):
        y = np.matmul(blocks, x.reshape(count, cols, 1)).reshape(-1)
        z = weight_h @ (weight @ y)
        return np.matmul(adjoint, z.reshape(count, -1, 1)).reshape(-1)

    operator = scipy.sparse.linalg.LinearOperator(
        (n, n), matvec=gram,
        dtype=np.result_type(blocks.dtype, weight.dtype, float))
    try:
        values, vectors = scipy.sparse.linalg.eigsh(operator, k=1, which="LA",
                                                    v0=v0, tol=0)
    except scipy.sparse.linalg.ArpackError as exc:
        raise NormNotConverged("largest singular value: %s" % exc) from exc
    top, vector = values[0], vectors[:, 0]
    residual = np.linalg.norm(gram(vector) - top * vector)
    if not residual <= 1e-12 * top:
        raise NormNotConverged("largest singular value: Ritz residual %g "
                               "above 1e-12 of the top eigenvalue %g"
                               % (residual, top))
    return float(np.sqrt(top))


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


def _chained_exponentials(gen, ts: Sequence[float]) -> dict:
    """Exponentials e^{-t gen} on a grid, squaring E(t/2) whenever it is
    available.

    ``gen`` is a dense conserved-level block or a stack of matrices
    (..., n, n), each exponentiated and squared on its own.
    """
    cache: dict = {}
    for t in sorted(ts):
        half = t / 2.0
        if half in cache:
            cache[t] = cache[half] @ cache[half]
        else:
            cache[t] = semigroup_matrix(gen, t)
        if not np.all(np.isfinite(cache[t])):
            raise ExpNotConverged("exponential chain overflowed at t=%g" % t)
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


def _diagonal_blocks(matrix, groups, coupled: str) -> list:
    """Dense diagonal blocks of the sparse ``matrix`` on the index
    ``groups``, each an increasing array of indices: block i holds the
    entries between the indices of groups[i], in their order.  Entries that
    touch an index outside every group are dropped.  Raises
    ParityNotConserved(``coupled``) if ``matrix`` stores an entry between
    two groups.

    One pass over the stored entries scatters them into one flat buffer
    that all blocks share; duplicate entries are summed in storage order,
    as ``toarray`` would.
    """
    owner = np.full(matrix.shape[0], -1)
    place = np.zeros(matrix.shape[0], dtype=int)
    for i, states in enumerate(groups):
        owner[states] = i
        place[states] = np.arange(len(states))
    coo = matrix.tocoo()
    row_group, col_group = owner[coo.row], owner[coo.col]
    inside = (row_group >= 0) & (col_group >= 0)
    group = row_group[inside]
    if np.any(group != col_group[inside]):
        raise ParityNotConserved(coupled)
    sizes = np.array([len(states) for states in groups])
    offsets = np.cumsum(sizes * sizes) - sizes * sizes
    flat = np.bincount(offsets[group] + place[coo.row[inside]] * sizes[group]
                       + place[coo.col[inside]], weights=coo.data[inside],
                       minlength=int(np.sum(sizes * sizes)))
    return [flat[o:o + n * n].reshape(n, n) for o, n in zip(offsets, sizes)]


def _padded_exponentials(dense: list, ts: Sequence[float]):
    """Yield the exponentials e^{-t K} of the level blocks ``dense`` of one
    sector for each t of the sorted grid ``ts``, as one zero-padded stack
    (levels, width, width), width the largest level.

    Each block is exponentiated and squared along the grid on its own, and
    written into the top-left corner of its slice of the stack.
    """
    width = max(len(block) for block in dense)
    chains = [_chained_exponentials(block, ts) for block in dense]
    for t in ts:
        stack = np.zeros((len(dense), width, width))
        for padded, chain in zip(stack, chains):
            size = len(chain[t])
            padded[:size, :size] = chain[t]
        yield stack


def _weighted_norm_values(quantity: str, params: ModelParams,
                          ts: Sequence[float], dims: int) -> list:
    """Shifted oracle values e^{-t shift} ||W e^{-t K}|| at one truncation,
    taken sector by sector from the kept levels of K (see ``decay_curve``).

    On each parity sector the exponential is the zero-padded stack of its
    level exponentials (see ``_padded_exponentials``), and the columns of W
    are moved onto the slots of that stack, the padded slots getting none,
    so the sector norm is ``operator_norm(stack, W)``.  The level blocks of
    K (see ``_diagonal_blocks``) and the sector blocks of W are each cut in
    one pass over the stored entries of the box assembly.
    """
    root_nu = np.sqrt(params.nu)
    size, levels = _conserved_levels(params, dims)
    gen = build("K", params, size, size)
    if quantity == "evolution_norm":
        weight = scipy.sparse.eye_array(size * size, format="csr")
        shift = 0.0
    elif quantity == "derivative_weight":
        weight = root_nu * build("D_q", params, size, size)
        shift = np.sqrt(_potential_constants(params).a)
    elif quantity == "gradient_weight":
        weight = build("grad_V", params, size, size)
        shift = np.sqrt(_potential_constants(params).a)
    elif quantity == "position_weight":
        weight = build("weight_q", params, size, size)
        shift = root_nu
    elif quantity == "creation_weight":
        weight = root_nu * build("a_q_star", params, size, size)
        shift = params.nu ** (1.0 / 3.0)
    else:
        raise UnknownLabel("no matrix curve for %r" % (quantity,))
    dense = _diagonal_blocks(gen, levels[0] + levels[1],
                             "K couples two kept levels")
    sectors = (dense[:len(levels[0])], dense[len(levels[0]):])
    entries = weight.tocoo()
    values = [0.0] * len(ts)
    reached = np.zeros(0, dtype=int)
    for blocks, sector_dense in zip(levels, sectors):
        # kept state -> its slot in the padded (levels, width) stack; the
        # padded slots, and the states of the other sector, get no column
        # of the weight
        width = max(len(states) for states in blocks)
        slot = np.full(size * size, -1)
        for i, states in enumerate(blocks):
            slot[states] = i * width + np.arange(len(states))
        inside = slot[entries.col] >= 0
        rows = np.unique(entries.row[inside])
        if np.intersect1d(rows, reached).size:
            raise ParityNotConserved("the %s weight couples the two parity "
                                     "sectors" % quantity)
        reached = rows
        w_block = scipy.sparse.csr_array(
            (entries.data[inside], (np.searchsorted(rows, entries.row[inside]),
                                    slot[entries.col[inside]])),
            shape=(len(rows), len(blocks) * width))
        stacks = _padded_exponentials(sector_dense, ts)
        for k, (t, stack) in enumerate(zip(ts, stacks)):
            values[k] = max(values[k],
                            operator_norm(stack, w_block) * np.exp(-t * shift))
    return values


def _curve_bound(quantity: str, params: ModelParams, t: float) -> float:
    if quantity == "evolution_norm":
        return 1.0
    if quantity == "position_weight":
        return position_weight_decay_bound(t, params)
    if quantity == "creation_weight":
        return remainder_bound(t, params)
    if quantity == "degenerate_fiber":
        return float(np.sqrt(sup_weighted(t, params.lambda1)) * np.exp(-t))
    # derivative_weight and gradient_weight
    big_a = _potential_constants(params).a
    root_a = np.sqrt(big_a)
    root_nu = np.sqrt(params.nu)
    routes = [np.sqrt(2.0) * position_weight_decay_bound(t, params)
              * np.exp(t * (root_nu - root_a))]
    if params.alpha > 0 and params.nu > 1:
        routes.append(np.sqrt(2.0) * remainder_bound(t, params)
                      * np.exp(t * (params.nu ** (1.0 / 3.0) - root_a)))
    return float(min(routes))


def _curve_analytic(quantity: str, params: ModelParams, t: float) -> Optional[float]:
    if quantity == "evolution_norm" and params.alpha == 0:
        return semigroup_norm(t, params.nu).norm
    if quantity == "degenerate_fiber":
        lam = params.lambda1
        u = fiber_exponent(t)
        # continuous sup of |xi| e^{-t} e^{u (xi^2 + lam^2)} at xi^2 = -1/(2u)
        return float(np.exp(-t) * np.exp(u * lam * lam)
                     * np.sqrt(-0.5 / u) * np.exp(-0.5))
    return None


def _schatten4(gram: np.ndarray) -> np.ndarray:
    """Upper bound on the Schatten-4 norm (sum_i sigma_i^4)^{1/4} of each
    matrix E of a stack, from the stack of its Gram matrices G = E^T E.

    sum_i sigma_i^4 = ||G||_F^2, taken as one contraction of G with itself.
    A square that underflows loses at most 2^-1075, so the smallest normal
    number, added to each ||G||_F^2, covers every loss for matrices of fewer
    than 2^26 rows.
    """
    return (np.einsum("kij,kij->k", gram, gram) + np.finfo(float).tiny) ** 0.25


def _fiber_matrix_sups(ts: Sequence[float], lambda1: float, dim: int,
                       xi_grid: np.ndarray) -> list:
    """sup over a xi_q grid of |xi_q| ||e^{-t F}||, F the xi_q fiber of the
    linear-potential generator shifted by 1, for each t of the grid ``ts``.

    Each fiber is the 1D non-normal matrix diag(0..dim-1) + 1 + i b x with
    b = sqrt(xi^2 + lambda1^2); its true norm is e^{-t} e^{u(t) b^2}, so
    this doubles as a matrix-exponential validation of that formula.

    The fibers are taken in a real gauge: with the unitary D = diag(i^n),
    D^{-1} (i x) D = -d exactly, d = (a - a^T) / sqrt(2) the skew derivative
    matrix, so the real fiber diag(n + 1) - b d has the same singular values
    at every t.  The stack of real fibers is built once and exponentiated
    along the t grid by ``_chained_exponentials``, which squares E(t/2)
    where the grid has it.  The largest singular value of each E is the
    square root of the top eigenvalue of G = E^T E, from ``eigvalsh``: that
    eigenvalue carries an absolute error of about eps ||E||^2, so its square
    root keeps about eps relative accuracy.

    Only the fibers that can hold the sup are eigensolved.  sigma_1^4 <=
    sum_i sigma_i^4 = ||G||_F^2, so |xi| ||G||_F^{1/2} (1 + 1e-10) bounds
    the value of each fiber from above (see ``_schatten4``); the margin
    covers the rounding of the bound and of ``eigvalsh``.  The fiber with
    the largest bound is solved first, and then every fiber whose bound is
    at least its value, in one batched ``eigvalsh``: every other fiber
    is below that value, so the sup is the one an exhaustive solve gives.
    """
    _, derivative, _ = _ops_1d(dim)
    base = np.diag(np.arange(dim, dtype=float)) + np.eye(dim)
    xis = xi_grid[xi_grid != 0.0]
    if not xis.size:
        return [0.0] * len(ts)
    fibers = base - np.hypot(xis, lambda1)[:, None, None] * derivative
    exps = _chained_exponentials(fibers, ts)
    scale = np.abs(xis)
    sups = []
    for t in ts:
        gram = np.matmul(exps[t].transpose(0, 2, 1), exps[t])
        bounds = scale * _schatten4(gram) * (1.0 + 1e-10)
        first = np.argmax(bounds)
        floor = scale[first] * np.sqrt(np.linalg.eigvalsh(gram[first])[-1])
        keep = bounds >= floor
        top = np.linalg.eigvalsh(gram[keep])[:, -1]
        sups.append(float(np.max(scale[keep] * np.sqrt(top))))
    return sups


def decay_curve(quantity_label: str, params: ModelParams,
                t_grid: Sequence[float], dims: int = 64,
                strict: bool = True) -> DecayCurve:
    """Oracle decay curve with per-sample two-level convergence flags.

    Each sample pairs the Galerkin value e^{-t shift} ||W e^{-t K}|| with the
    closed-form value (when one exists) and the analytic bound from the
    other modules.  The whole grid is recomputed at three quarters of the
    requested truncation; a relative change above ``_DRIFT_TOL`` (1%), or
    any change from a zero check value, marks the sample unconverged and,
    when ``strict``, raises TruncationNotConverged.  Flagged samples are
    still reported, never dropped.

    The matrix curves keep whole conserved levels of K (see the module
    docstring), read off the index map: L = m + n <= dims - 1 when
    attracting, and |L| = |m - n| <= dims - 1, each level cut at dims // 2
    states, when repelling.  K and W are sliced from one assembly at the
    smallest box that holds every kept state and every state W reaches.
    ParityNotConserved is raised if K couples two kept levels.  Each level
    is exponentiated densely, and squared along the grid, on its own; the
    levels of each parity sector of m + n form one zero-padded stack, and
    no sector exponential is assembled.  W is applied from the columns of
    each sector to the rows it reaches; ParityNotConserved is raised if the
    two sectors reach a common row.  So W e^{-t K} is block diagonal over
    the sectors, and its norm is the larger of the two sector-block norms,
    each from one certified ARPACK run (see ``operator_norm``).

    The degenerate fiber ignores ``dims``: its sup over xi_q is taken on
    fibers of 28 levels and checked on fibers of 20.
    """
    if quantity_label not in CURVE_QUANTITIES:
        raise UnknownLabel("no curve quantity %r" % (quantity_label,))
    ts = sorted(float(t) for t in t_grid)
    if not ts or ts[0] <= 0:
        raise ValueError("t grid must be positive")
    if quantity_label == "degenerate_fiber":
        # the |xi| profile peaks at xi^2 = -1/(2u); keep the peak well inside
        extent = max(12.0, 1.6 * np.sqrt(-0.5 / fiber_exponent(ts[0])))
        xi_grid = np.linspace(0.0, extent, int(10 * extent) + 1)
        levels = (28, 20)
        main_vals, check_vals = (
            _fiber_matrix_sups(ts, params.lambda1, dim, xi_grid)
            for dim in levels)
    else:
        levels = (dims, max(8, (3 * dims) // 4))
        main_vals, check_vals = (
            _weighted_norm_values(quantity_label, params, ts, level)
            for level in levels)
    samples = []
    drifts = []
    failed = []
    for t, val, ref in zip(ts, main_vals, check_vals):
        drift = abs(val / ref - 1.0) if ref != 0.0 else (0.0 if val == 0.0 else np.inf)
        converged = drift <= _DRIFT_TOL
        if not converged:
            failed.append(t)
        samples.append(CurveSample(t=t,
                                   analytic=_curve_analytic(quantity_label, params, t),
                                   bound=_curve_bound(quantity_label, params, t),
                                   oracle=float(val),
                                   rel_discrepancy=float(drift),
                                   converged=converged))
        drifts.append(float(drift))
    if failed and strict:
        raise TruncationNotConverged(
            "%s truncation drift above %g at t=%s (levels %d vs %d)"
            % ((quantity_label, _DRIFT_TOL, failed) + levels))
    meta = ConvergenceMeta(levels=levels, drift_tol=_DRIFT_TOL,
                           drifts=tuple(drifts))
    return DecayCurve(quantity_label=quantity_label, samples=tuple(samples),
                      convergence_meta=meta)


# ---------------------------------------------------------------------------
# subelliptic pencil


def _parity_weight(square: np.ndarray, scale: float) -> np.ndarray:
    """(1 + scale * S)^{2/3} of a symmetric PSD one-variable matrix S.

    S (q^2, or -d_q^2) couples only levels of equal parity, so it is
    diagonalized on the even and on the odd levels separately and the
    entries between the two stay exactly zero.
    """
    out = np.zeros_like(square)
    for parity in (0, 1):
        levels = np.arange(parity, len(square), 2)
        block = np.ix_(levels, levels)
        w, vecs = np.linalg.eigh(square[block])
        out[block] = (vecs * (1.0 + scale * np.maximum(w, 0.0)) ** (2.0 / 3.0)
                      ) @ vecs.T
    return out


def _gram_terms(terms, dims: int) -> list:
    """Symmetric Kronecker terms (see ``_assemble``) of the Gram matrix
    M^T M of M = sum_i c_i Q_i (x) P_i, the operator of the term table
    ``terms``, restricted to the dims x dims interior of its box.

    (A (x) B)^T (C (x) D) = A^T C (x) B^T D, and the pair (j, i) is the
    transpose of the pair (i, j), so M^T M is the symmetric part of the
    terms c_i^2 Q_i^T Q_i (x) P_i^T P_i and 2 c_i c_j Q_i^T Q_j (x) P_i^T P_j,
    i < j, each factor cut to its first dims rows and columns.
    """
    gram = []
    for i, (q_i, p_i, c_i) in enumerate(terms):
        for j, (q_j, p_j, c_j) in enumerate(terms[i:], start=i):
            gram.append(((q_i.T @ q_j)[:dims, :dims],
                         (p_i.T @ p_j)[:dims, :dims],
                         (1.0 if i == j else 2.0) * c_i * c_j))
    return gram


def _pencil_forms(params: ModelParams, dims: int):
    """The two quadratic forms of the subelliptic pencil on the dims x dims
    interior, with its states split by the parity of m + n:
    (left, right, (even states, odd states)).

    Each form is assembled (see ``_assemble``) from a short table of
    symmetric Kronecker terms: the Gram terms of K for ||K u||^2, and those
    of O_p and of the transport sqrt(nu) X for the right form (see
    ``_gram_terms``), with their one-variable products taken on dims + 2
    levels so that the ladders' spill-over past the interior is kept; then
    A (I (x) I) on the left and the q-weights (x) I on the right.  No
    operator on the (dims+2)^2 box is formed, and both forms are exactly
    symmetric.
    """
    big = dims + 2
    qq, dq1, _ = _ops_1d(big)
    # K = O_p + sqrt(nu) X: its first term is O_p, the others the transport
    gen = _kron_terms("K", params, big, big)
    big_a = _potential_constants(params).a
    # <grad V>^{4/3} and <D_q>^{4/3} on the q factor
    weights = (_parity_weight(qq @ qq, params.nu)
               + _parity_weight(-dq1 @ dq1, 1.0))
    eye = np.eye(dims)
    left = _assemble(_gram_terms(gen, dims) + [(eye, eye, big_a)],
                     dims, dims, symmetric=True)
    right = _assemble(_gram_terms(gen[:1], dims) + _gram_terms(gen[1:], dims)
                      + [(weights[:dims, :dims], eye, 1.0)],
                      dims, dims, symmetric=True)
    parity = np.sum(np.divmod(np.arange(dims * dims), dims), axis=0) % 2
    sectors = (np.flatnonzero(parity == 0), np.flatnonzero(parity == 1))
    return left, right, sectors


def _sector_pencil_minimum(left, right, sectors) -> float:
    """Smallest generalized eigenvalue of the symmetric pencil (left, right)
    restricted to the states of ``sectors``, which the pencil keeps apart.

    Each sparse form is cut into one dense block per sector in one pass
    over its stored entries; entries that touch a state outside every
    sector are dropped.  The forms are taken as symmetric: the generalized
    ``eigh`` reads the lower triangle of each block, and ``_pencil_forms``
    gives exactly symmetric ones.  Raises ParityNotConserved if either form
    stores an entry between two sectors, and IndefinitePencil if the
    factorization of a ``right`` block inside the generalized ``eigh``
    finds it not positive definite.
    """
    coupled = "the subelliptic pencil couples the two parity sectors of m + n"
    lowest = []
    for a, b in zip(*(_diagonal_blocks(form, sectors, coupled)
                      for form in (left, right))):
        try:
            eigenvalues = scipy.linalg.eigh(a, b, eigvals_only=True,
                                            subset_by_index=(0, 0))
        except np.linalg.LinAlgError as exc:
            raise IndefinitePencil(
                "weight Gram not positive definite") from exc
        lowest.append(eigenvalues[0])
    return float(min(lowest))


def subelliptic_constant(params: ModelParams, dims: int = 16) -> float:
    """Largest c in the truncated subelliptic inequality, via a pencil.

    On the dims x dims interior of the (dims+2)-level box, computes the
    smallest generalized eigenvalue of

        ||K u||^2 + A ||u||^2  >=  c ( ||O_p u||^2 + ||X u||^2
                                      + ||<grad V>^{2/3} u||^2
                                      + ||<D_q>^{2/3} u||^2 ).

    Both forms are assembled sparse on the interior, straight from tables
    of Gram terms of the one-variable factors (see ``_pencil_forms``); the
    one-variable products are taken on dims + 2 levels, a margin that keeps
    the ladders' spill-over in the quadratic forms, as the Gram matrices of
    the (dims+2)^2-box operators restricted to the interior would.  The
    fractional powers are taken on eigenvalues of q^2 and -d_q^2, each
    diagonalized on even and odd q-levels separately.  Every term conserves
    the parity of m + n, so the pencil is solved as two half-size dense
    pencils, one per parity, each cut from the sparse forms in one pass
    over their stored entries, and the smaller lowest eigenvalue is
    returned.  The forms are exactly symmetric, so the blocks go to
    ``eigh`` as cut.  ParityNotConserved is raised if a form stores an
    entry between the two sectors, IndefinitePencil if the right-hand Gram
    is not positive definite.
    """
    if dims < 8:
        raise ValueError("pencil needs at least 8 levels per direction")
    return _sector_pencil_minimum(*_pencil_forms(params, dims))
