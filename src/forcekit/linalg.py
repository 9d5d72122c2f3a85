"""Exact kernel certificates for integer matrices with a given pattern.

A symmetric matrix A fits graph G when its off-diagonal nonzero pattern is
exactly G's edge set (diagonal free).  The zero set { i : x_i = 0 } of any
nonzero kernel vector x of such a matrix is a failed zero forcing set
(Cor 2.10), and a failed PSD zero forcing set when A is positive
semidefinite (Prop 2.12).  This module draws integer pattern matrices,
finds their kernels, and checks those certificates against the forcing
engine, under the rule and theorem that the matrix's psd flag picks, plus
a sanity bound: every pattern matrix has rank at least the family's
tabulated minimum rank.

Every step is exact, on Python integers.  Entries are drawn from small
integer ranges; the pattern check compares entries with 0.  Bareiss's
fraction-free elimination (Math. Comp. 1968), whose every division is
exact, gives each matrix's rank, and back substitution its kernel basis:
the reduced row echelon form's basis vectors, scaled to integers, as
fraction-free Gauss-Jordan elimination (Nakos, Turner & Williams, SIGSAM
Bulletin 1997) gives them.  A singular matrix solves for one diagonal
entry and is scaled by its cofactor to stay integer; one elimination of
the cofactor block, with the solved entry's column beside it, gives the
cofactor, the determinant it is solved from and the kernel vector.  So
A x = 0 holds exactly, and a zero coordinate is exactly zero.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import gcd

from .forcing import Rule, is_failed_set
from .graphs import Graph
from .theorems import TheoremReport

RANK_BOUND = "Table 5.1 rank bound"
_EDGE_VALUES = (-3, -2, -1, 1, 2, 3)


class PatternMismatchError(ValueError):
    """Matrix entries do not realize the expected graph pattern."""


@dataclass(frozen=True, eq=False)
class PatternMatrix:
    """A symmetric integer matrix together with the graph it realizes.

    ``entries`` is kept as a tuple of integer rows, so the pattern checked
    on construction and the kernel kept on first use stay true of it."""

    graph: Graph
    entries: tuple[tuple[int, ...], ...]
    psd: bool = False

    def __post_init__(self):
        a = tuple(map(tuple, self.entries))
        n = self.graph.n
        if len(a) != n or any(len(row) != n for row in a):
            raise PatternMismatchError(f"matrix is not {n} x {n}")
        # floor division by a float or a numpy scalar is not exact
        if not set(map(type, chain.from_iterable(a))) <= {int}:
            raise PatternMismatchError("matrix entries are not all Python ints")
        if tuple(zip(*a)) != a:
            raise PatternMismatchError("matrix is not symmetric")
        for i, row in enumerate(a):
            nonzero = sum(1 << j for j, x in enumerate(row) if x and j != i)
            wrong = nonzero ^ self.graph.adj[i]
            if wrong:
                # the first wrong entry in row-major order: by symmetry,
                # none lies left of the diagonal in the first wrong row
                j = (wrong & -wrong).bit_length() - 1
                raise PatternMismatchError(
                    f"entry ({i},{j}) {'nonzero' if nonzero >> j & 1 else 'zero'} "
                    "contradicts the graph pattern")
        object.__setattr__(self, "entries", a)

    @cached_property
    def _kernel(self) -> tuple[tuple[int, ...], ...]:
        """Integer kernel basis, one vector x per non-pivot column f of
        the row echelon form: the reduced row echelon form's basis vector
        for f, scaled to the least integer vector with x_f > 0.  So x is 0
        at every other non-pivot column, and f is its last nonzero
        coordinate.  Back substitution from x_f = |d|, d the last pivot,
        divides exactly.  Computed on first use, so a matrix's kernel and
        rank read one elimination; ``shifted_singular_matrix`` sets it
        from the elimination that built the matrix."""
        rows, pivots, d = _echelon(self.entries)
        n = self.graph.n
        basis = []
        for f in sorted(set(range(n)) - set(pivots)):
            x = [0] * n
            x[f] = abs(d)
            basis.append(_primitive(_back_substitute(rows, pivots, x)))
        return tuple(basis)


def _echelon(a) -> tuple[list[list[int]], list[int], int]:
    """Bareiss's fraction-free elimination of an integer matrix to row
    echelon form: its nonzero rows, each row's pivot column, and d, the
    last pivot times the sign of the row swaps (1 if there is no pivot).
    Each division is exact, as every entry stays a minor of a, and d is
    the determinant of a square matrix of full rank.  Only the entries
    right of each row's pivot are kept up to date; the rest are not read.
    A row with 0 in the pivot column is only rescaled, by pivot / prev."""
    rows = [list(row) for row in a]
    pivots, sign, prev = [], 1, 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p], sign = rows[p], rows[r], -sign
        pivot, tail = rows[r][c], rows[r][c + 1:]
        for row in rows[r + 1:]:
            f = row[c]
            if f:
                row[c + 1:] = [(pivot * x - f * y) // prev
                               for x, y in zip(row[c + 1:], tail)]
            elif pivot != prev:
                row[c + 1:] = [pivot * x // prev for x in row[c + 1:]]
        pivots.append(c)
        prev = pivot
    return rows[:len(pivots)], pivots, sign * prev


def _back_substitute(rows, pivots, x: list[int]) -> list[int]:
    """Fill in x's pivot coordinates so that rows . x = 0, given its
    others; each division is exact when the solution is integer."""
    for row, c in zip(reversed(rows), reversed(pivots)):
        x[c] = -sum(map(int.__mul__, row[c + 1:], x[c + 1:])) // row[c]
    return x


def _primitive(x) -> tuple[int, ...]:
    """The least integer multiple of a nonzero vector that is positive at
    its last nonzero coordinate."""
    last = next(v for v in reversed(x) if v)
    g = gcd(*x) if last > 0 else -gcd(*x)
    return tuple(v // g for v in x)


def _rng(seed) -> random.Random:
    """The generator of one matrix; seed is an int or a list of ints."""
    return random.Random(str(seed))


def _draw(g: Graph, rng: random.Random) -> list[list[int]]:
    """Entries of a random symmetric matrix fitting g: each edge entry from
    +-{1, 2, 3}, in row-major order, then the diagonal from -3..3."""
    a = [[0] * g.n for _ in range(g.n)]
    for i, j in g.edge_pairs:
        a[i][j] = a[j][i] = rng.choice(_EDGE_VALUES)
    for i in range(g.n):
        a[i][i] = rng.randint(-3, 3)
    return a


def sample_pattern_matrix(g: Graph, seed) -> PatternMatrix:
    """Random integer matrix fitting g, as drawn by ``_draw``."""
    return PatternMatrix(g, _draw(g, _rng(seed)))


def shifted_singular_matrix(g: Graph, seed) -> PatternMatrix:
    """A drawn pattern matrix with one diagonal entry solved for, so that
    its determinant is 0.

    det A is affine in a diagonal entry a_kk: det A0 + a_kk * C, where A0
    has a_kk = 0 and C is the cofactor of a_kk.  So a_kk = -det A0 / C
    makes A singular, and scaling the matrix by C keeps it integer and
    fitting g.  Both the entries and k are drawn again while C is 0.

    One elimination gives C, det A0 and the kernel.  Let M be A0 without
    row and column k, and b column k of A0 without row k.  Eliminating
    [M | b] gives C = det M, and back substitution from the last
    coordinate |C| gives y = (-sign(C) adj(M) b, |C|), so that
    det A0 = -C b.M^-1.b = sign(C) (b . y_M).  Then A y = 0 with y's last
    coordinate at k, and as M is nonsingular, y spans A's kernel.
    """
    n = g.n
    rng = _rng(seed)
    while True:
        a = _draw(g, rng)
        k = rng.randrange(n)
        a[k][k] = 0
        block = [row[:k] + row[k + 1:] + row[k:k + 1]
                 for i, row in enumerate(a) if i != k]
        rows, pivots, cofactor = _echelon(block)
        if pivots == list(range(n - 1)):
            break
    y = _back_substitute(rows, pivots, [0] * (n - 1) + [abs(cofactor)])
    shift = sum(map(int.__mul__, (row[-1] for row in block), y[:-1]))
    if cofactor < 0:
        shift = -shift
    a = [[cofactor * x for x in row] for row in a]
    a[k][k] = -shift
    m = PatternMatrix(g, a)
    x = y[:k] + y[-1:] + y[k:-1]
    if any(sum(map(int.__mul__, row, x)) for row in m.entries):
        raise ArithmeticError("the solved kernel vector is not in the kernel")
    # x spans the kernel, so its least multiple positive at its last
    # nonzero coordinate is the one RREF basis vector that _kernel finds
    m.__dict__["_kernel"] = (_primitive(x),)
    return m


def weighted_laplacian(g: Graph, seed) -> PatternMatrix:
    """Laplacian D - W with integer edge weights 1..3: positive
    semidefinite, pattern g, nullity = component count."""
    rng = _rng(seed)
    a = [[0] * g.n for _ in range(g.n)]
    for i, j in g.edge_pairs:
        w = rng.randint(1, 3)
        a[i][j] = a[j][i] = -w
        a[i][i] += w
        a[j][j] += w
    return PatternMatrix(g, a, psd=True)


def kernel_basis(matrix: PatternMatrix) -> list[tuple[int, ...]]:
    """Exact integer basis of the kernel, read off the reduced row echelon
    form (see ``PatternMatrix._kernel``)."""
    return list(matrix._kernel)


def matrix_rank(matrix: PatternMatrix) -> int:
    """Exact rank: n minus the kernel dimension."""
    return matrix.graph.n - len(matrix._kernel)


def support_implies_failed(matrix: PatternMatrix) -> TheoremReport:
    """Certificate check: for each kernel basis vector x of the matrix, the
    zero set { i : x_i = 0 } must be failed in the matrix's graph, under
    the PSD rule (Prop 2.12) when the matrix carries the psd flag and under
    the standard rule (Cor 2.10) otherwise.  A PSD-failed set is also
    failed under the standard rule, so a PSD matrix needs no second check.

    Checking the full zero set suffices: subsets of failed sets are failed.
    A generic combination of the basis vanishes only where all of them do,
    inside each basis vector's zero set, so it would add no check.  The
    basis vectors' zero sets are distinct: each vector alone is nonzero at
    its own non-pivot column.
    """
    g = matrix.graph
    rule, theorem = ((Rule.PSD, "Prop 2.12") if matrix.psd
                     else (Rule.STANDARD, "Cor 2.10"))
    basis = kernel_basis(matrix)
    name = f"n={g.n} kernel dim {len(basis)}"
    if not basis:
        return TheoremReport(theorem, name, "all failed", "trivial kernel", True)
    for x in basis:
        zero_set = sum(1 << i for i, v in enumerate(x) if v == 0)
        if not is_failed_set(g, zero_set, rule):
            return TheoremReport(theorem, name, "all failed",
                                 f"zero set {zero_set:#x} of a kernel vector forces",
                                 False)
    return TheoremReport(theorem, name, "all failed",
                         "every zero set failed", True)


def rank_lower_bound_check(table, matrix: PatternMatrix) -> TheoremReport:
    """Every matrix fitting the pattern has rank >= the tabulated minimum
    rank of the family (and >= the PSD minimum rank when the matrix is
    positive semidefinite).  ``table`` is the family's Table 5.1 record
    (``formulas.table51_lookup``); the report is named after the matrix."""
    n, rank = matrix.graph.n, matrix_rank(matrix)
    label, bound = ("mr+", table.mrplus) if matrix.psd else ("mr", table.mr)
    return TheoremReport(RANK_BOUND, f"n={n} kernel dim {n - rank}",
                         f"rank >= {label} = {bound}",
                         f"rank = {rank}", rank >= bound)
