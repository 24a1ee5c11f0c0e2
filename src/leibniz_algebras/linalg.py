"""Exact dense linear algebra over QQ and GF(p).

Matrices are immutable row-major tuples of scalars.  A subspace, on both
fields, is its canonical rows, so two subspaces are equal precisely when
their rows are identical: over GF(p) its reduced-row-echelon rows; over QQ
its primitive integer rows, each RREF row scaled to integers with gcd 1
and a positive pivot, which match the RREF rows one to one.
`Subspace(field, n, rows, pivots)` takes such rows and checks nothing; the
`basis` Matrix is built from them when it is first read.  Enumeration of
subspaces over GF(p) is lazy and follows a fixed canonical order
(pivot-column sets lexicographically, then free entries), so searches are
deterministic and restartable: `canonical_subspaces` is the package's one
walk in that order, `_canonical_index` a subspace's position in it and
`gaussian_binomial` a stratum's length.  The scan kernel (`_scan_py`)
cuts that walk; it imports from here, and nothing here imports it.

Over QQ, elimination is fraction-free (`_echelon`) on rows of ints.  Rows
scale freely, so the package's integer rows (from the integer structure
table, see `algebra`) enter spans, sums, intersections, kernels and
membership tests as they are, and what comes out is integer rows again;
a row of Fractions is scaled to integers once, where it enters
(`_integer_rows`).  Fractions are built only where a value leaves the
package: a subspace's `basis` (witnesses, frames, repr, CLI output), and
`rref_with_pivots`, which divides each row by its pivot.

One step clears a column, `_clear(p, w, pivots)`, and every elimination
of the package, the scan kernel's too, is built from it.  `_echelon` is a
forward pass of the step, each nonzero residual becoming a pivot row
(`_lead`), then a back-substitution with it.  `_dependencies(F, rows)`, the one kernel routine, clears each row
with its combination appended and reads a dependency off each row cleared
to 0; `Subspace._kernel(F, n, conditions)` is the dependencies among the
conditions' n columns, and an annihilator is the kernel of a subspace's
rows.  `Subspace._reduce` is the step on a subspace's canonical rows, and
`_contains` tests that its residual is 0.  A span that grows one row at a
time and is only tested for membership keeps its pivot list and appends
each new residual (`Subspace._extension`, the greedy basis extension).
Rows that an elimination has already made canonical are read, not
eliminated again (`subspace_intersect`, `_coords_in_rows`).
`_chain(start, step)` lists start, step(start), ... up to the first fixed
point: the series, the generated subalgebra and the Fitting chains.
`_row_action(products, u, p, left)` is the one contraction of a row with
a structure table: the n rows [u, e_j] (or [e_j, u]) that the scan
kernel, the abelian-ideal stratum, the operators of `algebra` and
`mult_operator` read.

One routine takes coordinates: `_coords_in_rows(F, rows, n)` eliminates
[rows | 1] once and returns v -> x with x @ rows = v.  `Matrix.inverse`,
`solve_row`, `solve_col`, `algebra.change_of_basis`, `algebra.quotient` and
the frames of `classify` all call it; none inverts a matrix to apply it.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import ConsistencyError, DimensionMismatchError
from .fields import _QQ_ZERO, FieldSpec, Scalar, check_same_field


def _as_tuple_vec(field: FieldSpec, v: Sequence) -> tuple:
    return tuple(field.of(x) for x in v)


class Matrix:
    """Immutable matrix with exact entries over a fixed field."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: FieldSpec, data: Sequence[Sequence]):
        rows = tuple(_as_tuple_vec(field, row) for row in data)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise DimensionMismatchError("ragged rows")
        self.field = field
        self.rows = len(rows)
        self.cols = ncols
        self.data = rows

    @classmethod
    def _canonical(
        cls, field: FieldSpec, rows: Sequence[Sequence], cols: int | None = None
    ) -> "Matrix":
        """Matrix from rows of `cols` entries already in the field's canonical
        form; nothing is coerced or checked.  An empty matrix keeps `cols`;
        None reads it from the first row, as the constructor does."""
        m = object.__new__(cls)
        m.field = field
        m.data = tuple(tuple(r) for r in rows)
        m.rows = len(m.data)
        m.cols = (len(m.data[0]) if m.data else 0) if cols is None else cols
        return m

    # -- constructors -------------------------------------------------------

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Matrix":
        one, zero = field.one, field.zero
        return Matrix._canonical(
            field, [[one if i == j else zero for j in range(n)] for i in range(n)], n
        )

    @staticmethod
    def zeros(field: FieldSpec, rows: int, cols: int) -> "Matrix":
        zero = field.zero
        return Matrix._canonical(field, [[zero] * cols for _ in range(rows)], cols)

    # -- dunder --------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.data == other.data
            and self.cols == other.cols
        )

    def __hash__(self):
        return hash((self.field, self.cols, self.data))

    def __repr__(self):
        body = "; ".join(
            " ".join(self.field.format(x) for x in row) for row in self.data
        )
        return "Matrix(%r, [%s])" % (self.field, body)

    def row(self, i: int) -> tuple:
        return self.data[i]

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.data)

    # -- arithmetic ------------------------------------------------------------

    def _check_shape(self, other: "Matrix"):
        check_same_field(self.field, other.field)
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatchError("shape mismatch")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_shape(other)
        add = self.field.add
        return Matrix._canonical(
            self.field,
            [
                [add(a, b) for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.data, other.data)
            ],
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_shape(other)
        sub = self.field.sub
        return Matrix._canonical(
            self.field,
            [
                [sub(a, b) for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.data, other.data)
            ],
        )

    def scale(self, c) -> "Matrix":
        c = self.field.of(c)
        mul = self.field.mul
        return Matrix._canonical(self.field, [[mul(c, x) for x in row] for row in self.data])

    def __neg__(self) -> "Matrix":
        neg = self.field.neg
        return Matrix._canonical(self.field, [[neg(x) for x in row] for row in self.data])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        check_same_field(self.field, other.field)
        if self.cols != other.rows:
            raise DimensionMismatchError("inner dimensions differ")
        F = self.field
        ocols = tuple(other.col(j) for j in range(other.cols))
        out = []
        for r in self.data:
            out.append([_dot(F, r, c) for c in ocols])
        return Matrix._canonical(F, out)

    def transpose(self) -> "Matrix":
        return Matrix._canonical(self.field, [self.col(j) for j in range(self.cols)], self.rows)

    def apply_row(self, v: Sequence) -> tuple:
        """Row-vector times matrix: v @ self."""
        if len(v) != self.rows:
            raise DimensionMismatchError("vector length %d != %d" % (len(v), self.rows))
        F = self.field
        cols = zip(*self.data) if self.data else [()] * self.cols
        return tuple(_dot(F, v, col) for col in cols)

    def apply_col(self, v: Sequence) -> tuple:
        """Matrix times column-vector: self @ v."""
        if len(v) != self.cols:
            raise DimensionMismatchError("vector length %d != %d" % (len(v), self.cols))
        F = self.field
        return tuple(_dot(F, row, v) for row in self.data)

    def trace(self):
        if self.rows != self.cols:
            raise DimensionMismatchError("trace of non-square matrix")
        acc = self.field.zero
        for i in range(self.rows):
            acc = self.field.add(acc, self.data[i][i])
        return acc

    def power(self, k: int) -> "Matrix":
        if self.rows != self.cols:
            raise DimensionMismatchError("power of non-square matrix")
        if k < 0:
            raise ValueError("negative matrix power %d" % k)
        acc = Matrix.identity(self.field, self.rows)
        base = self
        while k:
            if k & 1:
                acc = acc @ base
            base = base @ base
            k >>= 1
        return acc

    def is_zero(self) -> bool:
        z = self.field.zero
        return all(x == z for row in self.data for x in row)

    # -- elimination -------------------------------------------------------------

    def rank(self) -> int:
        return len(_echelon(self.field, _integer_rows(self.field, self.data), self.cols)[1])

    def kernel_basis(self) -> "Matrix":
        """Basis (rows, RREF-canonical) of {v : self @ v = 0}, v a column
        vector: the dependencies among the columns (`Subspace._kernel`)."""
        return Subspace._kernel(self.field, self.cols, _integer_rows(self.field, self.data)).basis

    def solve_row(self, target: Sequence) -> tuple | None:
        """Solve x @ self = target for a row vector x, or None: x is 0 at
        every row in the span of the rows before it (free variables 0)."""
        if len(target) != self.cols:
            raise DimensionMismatchError("rhs length mismatch")
        F = self.field
        return _coords_in_rows(F, self.data, self.cols)[1]([F.of(t) for t in target])

    def solve_col(self, target: Sequence) -> tuple | None:
        """Solve self @ x = target for a column vector x, or None (free vars 0)."""
        return self.transpose().solve_row(target)

    def inverse(self) -> "Matrix":
        """The inverse, row i the coordinates of e_i in the rows."""
        F, n = self.field, self.rows
        if n != self.cols:
            raise DimensionMismatchError("inverse of non-square matrix")
        rank, coords = _coords_in_rows(F, self.data, n)
        if rank < n:
            raise DimensionMismatchError("singular matrix")
        return Matrix._canonical(F, [coords(e) for e in Matrix.identity(F, n).data], n)

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def det2(self):
        """Determinant, 2x2 only."""
        if self.rows != 2 or self.cols != 2:
            raise DimensionMismatchError("det2 needs a 2x2 matrix")
        F = self.field
        return F.sub(F.mul(self.data[0][0], self.data[1][1]), F.mul(self.data[0][1], self.data[1][0]))


def _dot(F: FieldSpec, u: Sequence, v: Sequence):
    acc = F.zero
    for a, b in zip(u, v):
        if a and b:
            acc += a * b
    return acc if F.p is None else acc % F.p


def _dot_rows(u, v) -> int:
    return sum(map(operator.mul, u, v))


def _matmul(X, Y, q: int | None) -> list:
    """X Y for matrices given as rows of ints, mod q unless q is None."""
    cols = list(zip(*Y))
    out = [[_dot_rows(row, col) for col in cols] for row in X]
    return out if q is None else [[x % q for x in row] for row in out]


def _row_action(products, u: Sequence, p: int | None, left: bool = True) -> list:
    """The n rows [u, e_j] (left) or [e_j, u] (right), j = 0..n-1, read
    off a structure table given as its nonzero products, products[i][j]
    the (k, x) pairs of [e_i, e_j] (`AlgebraTable._products`), in one pass
    over u's nonzero entries: residues mod p, or ints when p is None."""
    n = len(products)
    out = [[0] * n for _ in range(n)]
    for i, x in enumerate(u):
        if x:
            for acc, pij in zip(out, products[i] if left else [pj[i] for pj in products]):
                for k, c in pij:
                    acc[k] += x * c
    return out if p is None else [[y % p for y in acc] for acc in out]


def _integer_row(u: Sequence) -> tuple[int, list]:
    """(d, d*u) for a row of rationals, d the lcm of the denominators: the
    row scaled to integers, once, where it enters the integer routines."""
    d = math.lcm(*[x.denominator for x in u])
    if d == 1:
        return 1, [x.numerator for x in u]
    return d, [x.numerator * (d // x.denominator) for x in u]


def _integer_rows(F: FieldSpec, rows: Sequence[Sequence]) -> Sequence[Sequence]:
    """Rows in F's canonical form as `_echelon` and `Subspace._reduce` take
    them: scaled to integers over QQ, as they are over GF(p)."""
    return rows if F.p is not None else [_integer_row(r)[1] for r in rows]


def _fractions(row: Sequence, den: int) -> tuple:
    """The int row divided by den, as Fractions."""
    return tuple(Fraction(x, den) if x else _QQ_ZERO for x in row)


def _clear(p: int | None, w: Sequence, pivots: Iterable) -> Sequence:
    """w, residues over GF(p) and ints over QQ (p None), reduced by each
    (column c, pivot row a) of `pivots` in turn: w <- w - w[c] a over
    GF(p), where a[c] is 1; over QQ w <- a[c] w - w[c] a, divided by its
    content.  Each pivot row is 0 at the columns of the pivots before it,
    so the residual is 0 at every pivot column, and it is 0 iff w lies in
    the pivot rows' span.  w itself may be returned."""
    if p is None:
        for c, top in pivots:
            f = w[c]
            if f:
                a = top[c]
                w = [a * x - f * y for x, y in zip(w, top)]
                g = math.gcd(*w)
                if g > 1:
                    w = [x // g for x in w]
        return w
    for c, top in pivots:
        f = w[c]
        if f:
            w = [(x - f * y) % p if y else x for x, y in zip(w, top)]
    return w


def _lead(p: int | None, w: Sequence, ncols: int) -> tuple | None:
    """(c, w), c the first column below ncols where the residual w of
    `_clear` is nonzero and w scaled to 1 there over GF(p): the pivot row
    it adds after the pivots it was reduced by.  None if there is none."""
    for c in range(ncols):
        a = w[c]
        if a:
            if p is not None and a != 1:
                inv = pow(a, -1, p)
                w = [x * inv % p for x in w]
            return c, w
    return None


def _echelon(F: FieldSpec, rows: Sequence[Sequence], ncols: int) -> tuple[list, list[int]]:
    """Gauss-Jordan elimination of rows of `ncols` entries, residues over
    GF(p), ints over QQ: (the nonzero reduced rows, their pivot columns),
    the subspace's canonical rows (see the module docstring).  A forward
    pass reduces each row by the pivot rows found so far, and a nonzero
    residual becomes one; then each pivot row is reduced by those found
    after it, which are 0 at its pivot.  By pivot column these are the RREF
    rows over GF(p); over QQ each is divided by its content and its pivot's
    sign, the RREF row scaled to be primitive."""
    p = F.p
    found: list = []  # (pivot column, pivot row)
    for w in rows:
        lead = _lead(p, _clear(p, w, found), ncols)
        if lead is not None:
            found.append(lead)
    for i, (c, w) in enumerate(found):
        found[i] = c, _clear(p, w, found[i + 1 :])
    found.sort(key=operator.itemgetter(0))
    pivots = [c for c, _ in found]
    rows = [w for _, w in found]
    if p is None:
        for i, (row, pc) in enumerate(zip(rows, pivots)):
            g = math.gcd(*row) if row[pc] > 0 else -math.gcd(*row)
            if g != 1:
                rows[i] = [x // g for x in row]
    return rows, pivots


def _dependencies(F: FieldSpec, rows: Sequence[Sequence]) -> "Subspace":
    """{x : sum_i x[i] rows[i] = 0} for n rows of m entries, residues over
    GF(p) and ints over QQ: the kernel of the rows' transpose, and the
    package's one kernel routine (`Subspace._kernel` passes it the columns
    of its conditions).

    The rows are taken last to first.  Each row, the unit vector e_i
    appended to record its combination, is reduced by the pivot rows found
    so far; a row that reduces to zero leaves a dependency in its appended
    part, and any other becomes a pivot row.  A pivot row's appended part
    is 0 at every row not yet taken, so the dependency of row i is 0 before
    i and at every other dependent row, and at i it is 1 over GF(p) and
    nonzero over QQ, where the step leaves the row primitive.  So the
    n - rank dependencies, by increasing i, each with a positive entry at
    i, are the kernel's canonical rows, and i their pivots.  With m = 0
    every row is a dependency, and the kernel is F^n; with n = 0 it is 0 in
    F^0."""
    n, p = len(rows), F.p
    m = len(rows[0]) if rows else 0
    pivots: list = []  # (column, pivot row)
    deps, free = [], []
    for i in reversed(range(n)):
        w = _clear(p, [*rows[i], *(int(j == i) for j in range(n))], pivots)
        lead = _lead(p, w, m)
        if lead is not None:
            pivots.append(lead)
            continue
        dep = w[m:]
        deps.append(dep if dep[i] > 0 else [-x for x in dep])
        free.append(i)
    return Subspace(F, n, deps[::-1], free[::-1])


def _coords_in_rows(F: FieldSpec, rows: Sequence[Sequence], n: int):
    """(rank, coords) for rows of n entries in F's canonical form: coords(v)
    is the x with x @ rows = v that is 0 at every row lying in the span of
    the rows before it, or None when v is outside their span.

    The k rows are eliminated once (`_echelon`), [rows | J] with J the
    k x k unit matrix, its columns reversed, to rows [s_j b_j | s_j t_j],
    pivot pc_j < n, and rows [0 | y].  The b_j are the RREF basis of the
    span, t_j @ rows = b_j, and x = sum_j v[pc_j] t_j.  The y span the
    dependencies among the rows; read in reverse, their pivots are the last
    nonzero entries of the dependencies, that is the rows lying in the span
    of the rows before them, and the reduced t_j are 0 there.  Over QQ each
    row of [rows | J] and each v are scaled to integers on entry and the t_j
    to ints by d = lcm(s_j), so each x_i is one Fraction; over GF(p) every
    s_j is 1.  v is inside iff the rows s_j b_j clear it to 0, and when the
    rows span F^n every v is inside and no test runs."""
    k, p = len(rows), F.p
    augmented = [(*row, *(int(i + j == k - 1) for j in range(k))) for i, row in enumerate(rows)]
    red, pivots = _echelon(F, _integer_rows(F, augmented), n + k)
    rank = sum(pc < n for pc in pivots)
    red, pivots = red[:rank], pivots[:rank]
    span = None if rank == n else [(pc, row[:n]) for pc, row in zip(pivots, red)]
    d = math.lcm(*(row[pc] for row, pc in zip(red, pivots)))
    T = [[x * (d // row[pc]) for x in reversed(row[n:])] for row, pc in zip(red, pivots)]

    def coords(v: Sequence) -> tuple | None:
        dv = 1
        if p is None:
            dv, v = _integer_row(v)
        if span is not None and any(_clear(p, v, span)):
            return None
        x = [0] * k
        for pc, t in zip(pivots, T):
            c = v[pc]
            if c:
                x = [a + c * b for a, b in zip(x, t)]
        return tuple(y % p for y in x) if p is not None else _fractions(x, d * dv)

    return rank, coords


def rref_with_pivots(M: Matrix) -> tuple[Matrix, int, list[int]]:
    """Reduced row echelon form: unit pivots, zeros above and below, zero
    rows last.  The elimination is `_echelon`, on the rows scaled to
    integers over QQ; each reduced row is then divided by its pivot."""
    F = M.field
    rows, pivots = _echelon(F, _integer_rows(F, M.data), M.cols)
    if F.p is None:
        rows = [_fractions(row, row[pc]) for row, pc in zip(rows, pivots)]
    rows += [[F.zero] * M.cols for _ in range(M.rows - len(rows))]
    return Matrix._canonical(F, rows, M.cols), len(pivots), pivots


def rref(M: Matrix) -> tuple[Matrix, int]:
    """Reduced row echelon form and rank."""
    red, rank, _ = rref_with_pivots(M)
    return red, rank


class Subspace:
    """A subspace of F^n in canonical form, zero rows dropped: its RREF
    rows over GF(p), its primitive integer rows over QQ (see the module
    docstring).  Equality of subspaces is equality of those rows.

    The `basis` Matrix is built from the rows when it is first read
    (`__getattr__`): the rows themselves over GF(p), each row divided by
    its pivot over QQ.
    """

    __slots__ = ("field", "ambient_dim", "basis", "pivots", "_rows")

    def __init__(self, field: FieldSpec, ambient_dim: int, rows: Sequence[Sequence], pivots: Sequence[int]):
        """Subspace from its canonical rows and their pivot columns; nothing
        is checked.  The rows are copied: `canonical_subspaces` reuses its
        row lists."""
        self.field = field
        self.ambient_dim = ambient_dim
        self.pivots = tuple(pivots)
        self._rows = tuple(map(tuple, rows))

    def __getattr__(self, name):
        # reached only while a slot is unset: `basis` until first read
        if name != "basis":
            raise AttributeError(name)
        rows = self._rows
        if self.field.p is None:
            rows = [_fractions(row, row[pc]) for row, pc in zip(rows, self.pivots)]
        self.basis = Matrix._canonical(self.field, rows, self.ambient_dim)
        return self.basis

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def from_vectors(field: FieldSpec, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        vecs = [list(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise DimensionMismatchError("vector length != ambient dim")
        rows = _integer_rows(field, [_as_tuple_vec(field, v) for v in vecs])
        return Subspace._span(field, ambient_dim, rows)

    @staticmethod
    def _span(field: FieldSpec, ambient_dim: int, vectors: Sequence[Sequence]) -> "Subspace":
        """Span of rows of `ambient_dim` entries, residues over GF(p) and
        ints over QQ; nothing is coerced or checked."""
        return Subspace(field, ambient_dim, *_echelon(field, vectors, ambient_dim))

    @staticmethod
    def _kernel(field: FieldSpec, ambient_dim: int, conditions: Sequence[Sequence]) -> "Subspace":
        """{x : sum_i c[i] x[i] = 0 for every condition row c}, the rows
        residues over GF(p) and ints over QQ: the dependencies among the
        conditions' columns (`_dependencies`)."""
        return _dependencies(field, [[c[i] for c in conditions] for i in range(ambient_dim)])

    @staticmethod
    def zero(field: FieldSpec, ambient_dim: int) -> "Subspace":
        return Subspace(field, ambient_dim, [], [])

    @staticmethod
    def full(field: FieldSpec, ambient_dim: int) -> "Subspace":
        # the identity is already in RREF, and primitive
        n = ambient_dim
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        return Subspace(field, n, rows, range(n))

    # -- basic queries ----------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def codim(self) -> int:
        return self.ambient_dim - self.dim

    def is_zero(self) -> bool:
        return not self.pivots

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self._rows))

    def __repr__(self):
        if self.dim == 0:
            return "Subspace(0 in F^%d)" % self.ambient_dim
        return "Subspace(dim %d in F^%d: %r)" % (self.dim, self.ambient_dim, self.basis)

    # -- membership ----------------------------------------------------------------

    def _coerce(self, v: Sequence) -> list:
        """v's entries in the field's canonical form, its length checked."""
        w = [self.field.of(x) for x in v]
        if len(w) != self.ambient_dim:
            raise DimensionMismatchError("vector length != ambient dim")
        return w

    def _reduce(self, w: Sequence) -> Sequence:
        """The residual of w by the canonical rows (`_clear`), up to a
        nonzero factor over QQ: 0 iff w lies in the span.  w is a row of
        residues over GF(p) and of ints over QQ; nothing is coerced or
        checked, and w itself may be returned."""
        return _clear(self.field.p, w, zip(self.pivots, self._rows))

    def contains_vector(self, v: Sequence) -> bool:
        return self._coordinates(self._coerce(v)) is not None

    def _contains(self, w: Sequence) -> bool:
        """contains_vector for a row of residues over GF(p), of ints over
        QQ; nothing is coerced or checked."""
        return not any(self._reduce(w))

    def contains(self, other: "Subspace") -> bool:
        _check_ambient(self, other)
        return all(self._contains(v) for v in other._rows)

    def coordinates(self, v: Sequence) -> tuple | None:
        """Coordinates of v in the RREF basis rows, or None if v is outside:
        a vector of the span is the sum of its pivot entries times the rows."""
        return self._coordinates(self._coerce(v))

    def _coordinates(self, w: Sequence) -> tuple | None:
        """coordinates for a row already in the field's canonical form,
        scaled to integers over QQ to be reduced; nothing is coerced."""
        inside = self._contains(w if self.field.p is not None else _integer_row(w)[1])
        return tuple(w[pc] for pc in self.pivots) if inside else None

    # -- derived data ------------------------------------------------------------------

    def complement_functionals(self) -> Matrix:
        """Rows are functionals whose common kernel is exactly this
        subspace: the canonical basis of its annihilator."""
        return self._annihilator().basis

    def _annihilator(self) -> "Subspace":
        """{f : f . v = 0 for every v in this subspace}, the kernel of its
        rows."""
        return Subspace._kernel(self.field, self.ambient_dim, self._rows)

    def _extension(self, rows: Sequence[Sequence]) -> list:
        """The rows, in order, that each leave the span of this subspace and
        of the rows taken before them: a greedy extension of its basis.
        Rows are in the field's canonical form, basis rows say, and are
        scaled to integers over QQ to be tested; nothing is coerced."""
        F, n, out = self.field, self.ambient_dim, []
        pivots = list(zip(self.pivots, self._rows))  # the span grown so far
        for row, w in zip(rows, _integer_rows(F, rows)):
            if len(pivots) == n:
                break
            lead = _lead(F.p, _clear(F.p, w, pivots), n)
            if lead is not None:
                out.append(row)
                pivots.append(lead)
        return out

    def extend_to_full_basis(self) -> Matrix:
        """Invertible matrix whose first rows are the subspace basis, completed
        greedily with standard basis vectors in index order."""
        ident = Matrix.identity(self.field, self.ambient_dim).data
        rows = self.basis.data + tuple(self._extension(ident))
        return Matrix._canonical(self.field, rows, self.ambient_dim)


def subspace_sum(U: Subspace, V: Subspace) -> Subspace:
    """Smallest subspace containing both."""
    _check_ambient(U, V)
    return Subspace._span(U.field, U.ambient_dim, U._rows + V._rows)


def subspace_intersect(U: Subspace, V: Subspace) -> Subspace:
    """Intersection via the Zassenhaus block-matrix algorithm: the reduced
    rows of [U U; V 0] whose pivot lies in the right half are [0 | x], and
    the x are the intersection's canonical rows (RREF, and over QQ
    primitive with a positive pivot, as the whole row is)."""
    _check_ambient(U, V)
    F, n = U.field, U.ambient_dim
    block = [r + r for r in U._rows] + [r + (0,) * n for r in V._rows]
    rows, pivots = _echelon(F, block, 2 * n)
    k = sum(pc < n for pc in pivots)
    return Subspace(F, n, [row[n:] for row in rows[k:]], [pc - n for pc in pivots[k:]])


def _chain(start: Subspace, step) -> list:
    """[start, step(start), step(step(start)), ...] up to the first term
    that step maps to itself, which ends the list.  Every chain here is
    nested (the series, the nilpotency test and the Fitting chain of L1
    shrink, the generated subalgebra and the Fitting chain of L0 grow), so
    it has at most ambient_dim + 1 terms; a longer one means a step gave
    rows that are not canonical, and raises ConsistencyError."""
    chain = [start]
    while True:
        nxt = step(chain[-1])
        if nxt == chain[-1]:
            return chain
        chain.append(nxt)
        if len(chain) > start.ambient_dim + 1:
            n = start.ambient_dim
            raise ConsistencyError("a chain of subspaces of F^%d grew past %d terms" % (n, n + 1))


def _check_ambient(U: Subspace, V: Subspace) -> None:
    check_same_field(U.field, V.field)
    if U.ambient_dim != V.ambient_dim:
        raise DimensionMismatchError("ambient dimensions differ")


class QuadraticPoly(NamedTuple):
    """Monic quadratic t^2 + c1*t + c0."""

    c1: Scalar
    c0: Scalar

    def evaluate(self, F: FieldSpec, t) -> Scalar:
        t = F.of(t)
        return F.add(F.add(F.mul(t, t), F.mul(self.c1, t)), self.c0)

    def discriminant(self, F: FieldSpec) -> Scalar:
        return F.sub(F.mul(self.c1, self.c1), F.mul(F.of(4), self.c0))

    def __repr__(self):
        return "t^2 + (%s)t + (%s)" % (self.c1, self.c0)


def char_poly_2x2(m: Matrix) -> QuadraticPoly:
    """Characteristic polynomial t^2 - tr(m) t + det(m) of a 2x2 matrix."""
    if m.rows != 2 or m.cols != 2:
        raise DimensionMismatchError("char_poly_2x2 needs a 2x2 matrix")
    F = m.field
    return QuadraticPoly(F.neg(m.trace()), m.det2())


def is_irreducible_quadratic(q: QuadraticPoly, F: FieldSpec) -> bool:
    """Over GF(2): no root among the two elements.  Over GF(p), p odd, and
    over QQ: the discriminant is not a square, as the roots are (-c1 +- s)/2
    for s^2 the discriminant."""
    if F.p == 2:
        return all(q.evaluate(F, t) != F.zero for t in F.elements())
    return not F.is_square(q.discriminant(F))


def gaussian_binomial(n: int, d: int, p: int) -> int:
    """Number of d-dimensional subspaces of GF(p)^n."""
    if d < 0 or d > n:
        return 0
    num = den = 1
    for i in range(d):
        num *= p ** (n - i) - 1
        den *= p ** (d - i) - 1
    return num // den


def _pivot_set_size(n: int, p: int, piv) -> int:
    """Number of subspaces of GF(p)^n with pivot columns `piv`: p^f, f
    its number of free entries, d(n-d) - sum_r (piv[r] - r)."""
    d = len(piv)
    return p ** (d * (n - d) - sum(c - r for r, c in enumerate(piv)))


def canonical_subspaces(n: int, p: int, d: int, row_values_for=None):
    """Yield (index, pivots, rows) for the d-dimensional subspaces of GF(p)^n.

    `index` is the subspace's position in the canonical order, `pivots` the
    tuple of its pivot columns and `rows` its d x n RREF basis (lists of ints
    mod p), which the walk reuses: copy it to keep it.  Rows are fixed in
    order, row 0 first.  `row_values_for(piv)`, when given, is called on
    each pivot set before any of its rows and returns None, which cuts the
    pivot set whole, or the set's `row_values`: with rows 0..r-1 fixed,
    `row_values(rows, r, pc, cols)` yields the values of row r's free
    entries (at columns `cols`; its pivot is at column `pc`) to walk on, a
    subsequence of `itertools.product(range(p), repeat=len(cols))`.  A
    value it leaves out cuts every subspace that shares rows 0..r, and the
    indices skip them.  Row 0's first value is asked for before anything
    else of the pivot set is built: its `rows` is still empty then, and
    filled in place once a value comes, so a set whose row 0 yields
    nothing costs that one call.  Outside 0 <= d <= n there is no
    subspace, and nothing is yielded.
    """
    if not 0 <= d <= n:
        return
    offset = 0
    for piv in itertools.combinations(range(n), d):
        row_values = None
        if row_values_for is not None:
            row_values = row_values_for(piv)
            if row_values is None:
                offset += _pivot_set_size(n, p, piv)
                continue
        rows = []
        if d == 0:
            yield offset, piv, rows
            offset += 1
            continue
        pivset = set(piv)

        def values(r, cols):
            if row_values is None:
                return itertools.product(range(p), repeat=len(cols))
            return row_values(rows, r, piv[r], cols)

        free0 = [c for c in range(piv[0] + 1, n) if c not in pivset]
        walk0 = values(0, free0)
        first = next(walk0, None)
        if first is None:
            offset += _pivot_set_size(n, p, piv)
            continue
        free = [free0] + [[c for c in range(piv[r] + 1, n) if c not in pivset] for r in range(1, d)]
        # below[r]: subspaces sharing rows 0..r
        below = [1] * d
        for r in range(d - 2, -1, -1):
            below[r] = below[r + 1] * p ** len(free[r + 1])
        rows += ([0] * n for _ in range(d))
        for r in range(d):
            rows[r][piv[r]] = 1
        # start[r]: index of the first subspace sharing rows 0..r-1
        start = [offset] * d
        walks = [itertools.chain((first,), walk0)] + [None] * (d - 1)
        r = 0
        while r >= 0:
            vals = next(walks[r], None)
            if vals is None:
                r -= 1
                continue
            row = rows[r]
            rank = 0
            for c, v in zip(free[r], vals):
                row[c] = v
                rank = rank * p + v
            index = start[r] + rank * below[r]
            if r == d - 1:
                yield index, piv, rows
            else:
                r += 1
                start[r] = index
                walks[r] = values(r, free[r])
        offset += below[0] * p ** len(free[0])


def _canonical_index(n: int, p: int, pivots, rows) -> int:
    """The index `canonical_subspaces(n, p, len(pivots))` yields with the
    subspace whose RREF basis is `rows`, with pivot columns `pivots`.

    Each pivot set before `pivots` holds `_pivot_set_size` subspaces;
    within the pivot set the free entries, read row-major, are the index's
    base-p digits."""
    d, pivots = len(pivots), tuple(pivots)
    offset = 0
    for piv in itertools.combinations(range(n), d):
        if piv == pivots:
            break
        offset += _pivot_set_size(n, p, piv)
    rank = 0
    for r, row in enumerate(rows):
        for c in range(pivots[r] + 1, n):
            if c not in pivots:
                rank = rank * p + row[c]
    return offset + rank


def enumerate_subspaces(ambient_dim: int, dim: int, F: FieldSpec) -> Iterator[Subspace]:
    """Yield every dim-dimensional subspace of F^ambient_dim exactly once.

    Canonical order: pivot-column sets lexicographically, then free entries
    (row-major positions, leftmost slowest), as the scan kernel walks them.
    Only prime fields are enumerable.
    """
    if not F.is_prime_field:
        raise ValueError("cannot enumerate subspaces over the rationals")
    for _, piv, rows in canonical_subspaces(ambient_dim, F.p, dim):
        yield Subspace(F, ambient_dim, rows, piv)
