"""Numerical kernel-support verification for matrices with a given pattern.

A symmetric matrix A fits graph G when its off-diagonal nonzero pattern is
exactly G's edge set (diagonal free).  Any nonzero kernel vector of such a
matrix certifies that every vertex set avoiding its support is a failed
zero forcing set; for positive semidefinite A the same holds under the PSD
rule.  This module samples pattern matrices, extracts numerical kernels,
and checks those certificates against the forcing engine, plus a sanity
bound: every pattern matrix has rank at least the family's tabulated
minimum rank.

Tolerances are fixed module constants: singular values below 1e-9 of the
largest are kernel directions (KERNEL_TOL); coordinates below 1e-7 of a
vector's max magnitude count as zero (SUPPORT_TOL); entries above 1e-12
are nonzero in the pattern (PATTERN_TOL).  Sampled entries are O(1), so
the thresholds sit well clear of rounding noise at these dimensions.

numpy is imported inside the functions that use it, so importing forcekit
(or running a search or a suite without certificates) does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .forcing import Rule, is_failed_set
from .formulas import table51_value
from .graphs import FamilySpec, Graph, mask_of
from .theorems import TheoremReport

if TYPE_CHECKING:
    import numpy as np

KERNEL_TOL = 1e-9
SUPPORT_TOL = 1e-7
PATTERN_TOL = 1e-12
_PIVOT_TOL = 1e-10

RANK_BOUND = "Table 5.1 rank bound"


class PatternMismatchError(ValueError):
    """Matrix entries do not realize the expected graph pattern."""


@dataclass(frozen=True, eq=False)
class PatternMatrix:
    """A dense symmetric matrix together with the graph it realizes."""

    graph: Graph
    entries: np.ndarray
    psd: bool = False

    def __post_init__(self):
        import numpy as np
        a = self.entries
        n = self.graph.n
        if a.shape != (n, n):
            raise PatternMismatchError(f"matrix shape {a.shape} for n={n}")
        if not np.array_equal(a, a.T):
            raise PatternMismatchError("matrix is not symmetric")
        rows, cols = _edge_positions(self.graph)
        edge = np.zeros((n, n), dtype=bool)
        edge[rows, cols] = True
        wrong = np.argwhere(np.triu(edge != (np.abs(a) > PATTERN_TOL), 1))
        if len(wrong):
            i, j = wrong[0]
            raise PatternMismatchError(
                f"entry ({i},{j}) {'zero' if edge[i, j] else 'nonzero'} "
                "contradicts the graph pattern")


def _edge_positions(g: Graph) -> np.ndarray:
    """Rows and columns (i < j) of g's edges in row-major order, 2 x m."""
    import numpy as np
    return np.array(g.edges(), dtype=np.intp).reshape(-1, 2).T


def _sampled_entries(g: Graph, rng: np.random.Generator) -> np.ndarray:
    """Entries of a random symmetric matrix fitting g: edge entries uniform
    over [-2,-0.5] u [0.5,2], free diagonal uniform over [-2,2]."""
    import numpy as np
    rows, cols = _edge_positions(g)
    # A magnitude and then a sign per edge, in row-major order.  The sign is
    # the draw rng.choice((-1.0, 1.0)) makes, without its per-call setup.
    values = [rng.uniform(0.5, 2.0) * (-1.0, 1.0)[rng.integers(2)] for _ in rows]
    a = np.zeros((g.n, g.n))
    a[rows, cols] = a[cols, rows] = values
    a[np.diag_indices(g.n)] = rng.uniform(-2.0, 2.0, size=g.n)
    return a


def sample_pattern_matrix(g: Graph, seed) -> PatternMatrix:
    """Random symmetric matrix fitting g, as drawn by ``_sampled_entries``."""
    import numpy as np
    return PatternMatrix(g, _sampled_entries(g, np.random.default_rng(seed)))


def shifted_singular_matrix(g: Graph, seed) -> PatternMatrix:
    """Sampled pattern matrix shifted by one of its own eigenvalues.

    Subtracting lambda * I only moves the diagonal, so the result still fits
    g while having nullity >= 1; the chosen eigenvalue index is part of the
    seed stream.  Only the shifted matrix is validated.
    """
    import numpy as np
    rng = np.random.default_rng(seed)
    base = _sampled_entries(g, rng)
    eigenvalues = np.linalg.eigvalsh(base)
    lam = eigenvalues[int(rng.integers(g.n))]
    return PatternMatrix(g, base - lam * np.eye(g.n))


def weighted_laplacian(g: Graph, seed) -> PatternMatrix:
    """Laplacian D - W with edge weights uniform over [0.5, 2]: positive
    semidefinite by construction, pattern g, nullity = component count."""
    import numpy as np
    rng = np.random.default_rng(seed)
    rows, cols = _edge_positions(g)
    w = np.zeros((g.n, g.n))
    w[rows, cols] = w[cols, rows] = rng.uniform(0.5, 2.0, size=len(rows))
    return PatternMatrix(g, np.diag(w.sum(1)) - w, psd=True)


def _kernel_directions(matrix: PatternMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Right singular vectors (rows), and which of them span the numerical
    kernel: singular value below KERNEL_TOL times the largest one.  The
    zero matrix's kernel is the standard basis."""
    import numpy as np
    _, sigma, vt = np.linalg.svd(matrix.entries)
    if sigma[0] <= 0.0:
        return np.eye(matrix.graph.n), np.ones(matrix.graph.n, dtype=bool)
    return vt, sigma < KERNEL_TOL * sigma[0]


def kernel_basis(matrix: PatternMatrix) -> list[np.ndarray]:
    """Orthonormal basis of the numerical kernel."""
    vt, kernel = _kernel_directions(matrix)
    return list(vt[kernel])


def numerical_rank(matrix: PatternMatrix) -> int:
    import numpy as np
    return int(np.count_nonzero(~_kernel_directions(matrix)[1]))


def support_zero_set(x: np.ndarray) -> int:
    """Bitmask of coordinates that vanish relative to the largest one."""
    import numpy as np
    peak = np.max(np.abs(x))
    if peak == 0.0:
        raise ValueError("zero vector has no support")
    return mask_of(np.flatnonzero(np.abs(x) <= SUPPORT_TOL * peak).tolist())


def _sparsify(basis: list[np.ndarray]) -> list[np.ndarray]:
    """Row-reduce the basis to kernel vectors of small support (for
    block-diagonal matrices this recovers per-component vectors)."""
    import numpy as np
    rows = np.array(basis, dtype=float)
    m, n = rows.shape
    r = 0
    for c in range(n):
        pivot = r + int(np.argmax(np.abs(rows[r:, c])))
        if abs(rows[pivot, c]) < _PIVOT_TOL:
            continue
        rows[[r, pivot]] = rows[[pivot, r]]
        rows[r] /= rows[r, c]
        for i in range(m):
            if i != r and abs(rows[i, c]) > _PIVOT_TOL:
                rows[i] -= rows[i, c] * rows[r]
        r += 1
        if r == m:
            break
    return [rows[i] for i in range(r)]


def support_implies_failed(matrix: PatternMatrix, rule: Rule,
                           trials: int = 20, seed=0) -> TheoremReport:
    """Certificate check: for kernel vectors x of the matrix, the zero set
    { i : |x_i| <= tol * max|x| } must be failed in the matrix's graph
    under the rule.

    Checking the full zero set suffices: subsets of failed sets are failed.
    Tested vectors are the kernel basis, its row-reduced sparsification, and
    ``trials`` random unit combinations.  Matrices checked under the PSD
    rule must carry the psd flag.
    """
    import numpy as np
    g = matrix.graph
    if rule is Rule.PSD and not matrix.psd:
        raise PatternMismatchError("PSD-rule certificates need a PSD matrix")
    theorem = "Cor 2.10" if rule is Rule.STANDARD else "Prop 2.12"
    basis = kernel_basis(matrix)
    name = f"n={g.n} kernel dim {len(basis)}"
    if not basis:
        return TheoremReport(theorem, name, "all failed", "trivial kernel", True)
    vectors = list(basis) + _sparsify(basis)
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        coeffs = rng.normal(size=len(basis))
        norm = np.linalg.norm(coeffs)
        if norm < 1e-12:
            continue
        vectors.append((coeffs / norm) @ np.array(basis))
    for x in vectors:
        zero_set = support_zero_set(x)
        if not is_failed_set(g, zero_set, rule):
            return TheoremReport(theorem, name, "all failed",
                                 f"zero set {zero_set:#x} of a kernel vector forces",
                                 False)
    return TheoremReport(theorem, name, "all failed",
                         f"{len(vectors)} vectors failed", True)


def rank_lower_bound_check(spec: FamilySpec, matrix: PatternMatrix) -> TheoremReport:
    """Every matrix fitting the pattern has rank >= the tabulated minimum
    rank of the family (and >= the PSD minimum rank when the matrix is
    positive semidefinite)."""
    rank = numerical_rank(matrix)
    bound = table51_value(spec, "mrplus" if matrix.psd else "mr")
    label = "mr+" if matrix.psd else "mr"
    return TheoremReport(RANK_BOUND, spec.label(),
                         f"rank >= {label} = {bound}",
                         f"rank = {rank}", rank >= bound)
