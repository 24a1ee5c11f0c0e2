"""Structure-constant model of a finite-dimensional (left) Leibniz algebra.

An algebra of dimension n over an exact field is the tensor c[i][j][k] with
[e_i, e_j] = sum_k c[i][j][k] e_k.  No symmetry of the bracket is assumed.
The bracket convention is the left Leibniz rule throughout:

    [x, [y, z]] = [[x, y], z] + [y, [x, z]]

Vectors are coordinate rows over the fixed basis.  All values are immutable
after construction and all operations are pure functions.

Every table is set by one builder, `AlgebraTable._build`, from its nonzero
products: `AlgebraTable(...)` coerces its tensor and passes the nonzero
vectors on; `from_products` coerces the vectors it is given; and the
package's own tables (`parse_algebra`, the families, `direct_sum`,
`subalgebra_table`, `quotient` and `change_of_basis`) pass vectors already
in the field's canonical form.  The builder stores the table's integer view
with it, in the same pass.  Over QQ the structure constants are read only
through that view, the integer table `_Dc` = D*c, D (`_D`) the lcm of their
denominators, and its nonzero products `_products`: brackets sum in ints
and divide each nonzero coordinate once, and the tests and spans that a
rescaled generator does not change (`product_space`, `is_subalgebra`,
`is_ideal`, `is_abelian_subspace`, `center`, `squares_ideal`,
`centralizer`, `normalizer`) never divide.  Fractions are built only where
a value is returned.

What a table determines beyond that is computed once.  A function
decorated with `_per_table` (the Leibniz check, the squares ideal, the Lie
test and the center here; the series, the trace kernel and the nilradical
in `invariants`; the largest form rank in `search`) stores its value in the table's `_cache` dict under the
function's name, None included; a call that raises stores nothing, so it
raises again.  Three entries can also be filled from outside their
function, each with a value proved equal to what it would compute: a
subalgebra, quotient or basis change of a table that passed the Leibniz
check inherits the pass (`_inherit_leibniz`); a subalgebra table of a table
whose Lie test passed inherits the pass (`subalgebra_table`); and a
Case1_c or Case2_d frame that `classify` matched, or a Case3_e frame of the
trace kernel, enters the nilradical (`invariants._proved_nilradical`).  No
other entry is.  Every entry depends on the field and c alone, never on
the name, so `rename` keeps the view and the cache.

The Leibniz check (`leibniz_failure`) runs in packed integer words.  For
each i the defects D_i(j, k, t) of [e_i, [e_j, e_k]] = [[e_i, e_j], e_k] +
[e_j, [e_i, e_k]] at coordinate t are the W-bit fields of one int, field
(j, k, t) at bit W ((j n + k) n + t), built as sum_(b, t) c_ibt Z_bt from
packed words Z_bt that are masked and shifted out of one packing of the
table, one row Z_b. at a time: O(n) words are held, never all n^2.  Over
QQ the fields are the exact signed defects, |D| <= 3 n max|c|^2 < 2^W.
Over GF(p) they are nonnegative, congruent to D mod p and below
2^N, N = bitlen(n (p-1)^2 (2p-1)), and W = 2N + 1 leaves room for a
multiply-shift that takes every field mod p at once.  The lowest set bit of
the first nonzero remainder names the first failing triple.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Sequence

from .errors import (
    ConsistencyError,
    DimensionMismatchError,
    NotLeibnizError,
)
from .fields import FieldSpec, check_same_field
from .linalg import (
    Matrix,
    Subspace,
    _chain,
    _clear,
    _coords_in_rows,
    _dependencies,
    _dot_rows,
    _echelon,
    _fractions,
    _integer_row,
    _lead,
    _matmul,
    _pair_bracket,
    _row_action,
    subspace_sum,
)


class AlgebraTable:
    """Immutable n*n*n structure-constant table over an exact field."""

    __slots__ = ("field", "dim", "c", "name", "_D", "_Dc", "_products", "_cache")

    def __init__(self, field: FieldSpec, c, name: str | None = None):
        n = len(c)
        products = {}
        for i in range(n):
            if len(c[i]) != n:
                raise DimensionMismatchError("structure tensor is not n*n*n")
            for j in range(n):
                vec = tuple(field.of(x) for x in c[i][j])
                if len(vec) != n:
                    raise DimensionMismatchError("structure tensor is not n*n*n")
                if any(vec):
                    products[i, j] = vec
        self._build(field, n, products, name)

    def _build(self, field: FieldSpec, dim: int, products: dict, name: str | None) -> None:
        """Set the table with [e_i, e_j] = products[(i, j)], a tuple of
        `dim` entries already in the field's canonical form, and every
        other product 0, with its integer view, built in the same pass from
        the products listed alone; nothing is coerced or checked.  Over QQ,
        _D is the lcm of their denominators and _Dc the integer table D*c;
        over GF(p), _D = 1 and _Dc is c.  _products lists [e_i, e_j] of
        _Dc, for every (i, j), as its nonzero (k, x) pairs.  A product
        listed as 0 is the same as one not listed: its denominators are 1
        and it has no nonzero coordinate."""
        p = field.p
        c = [[(field.zero,) * dim] * dim for _ in range(dim)]
        sparse = [[()] * dim for _ in range(dim)]
        if p is None:
            D = math.lcm(*[x.denominator for vec in products.values() for x in vec])
            ic = [[(0,) * dim] * dim for _ in range(dim)]
        for (i, j), vec in products.items():
            c[i][j] = vec
            if p is None:
                vec = ic[i][j] = tuple([x.numerator * (D // x.denominator) for x in vec])
            sparse[i][j] = tuple([(k, x) for k, x in enumerate(vec) if x])
        self.field = field
        self.dim = dim
        self.c = tuple(map(tuple, c))
        self.name = name
        self._D, self._Dc = (D, tuple(map(tuple, ic))) if p is None else (1, self.c)
        self._products = tuple(map(tuple, sparse))
        self._cache = {}

    @classmethod
    def _from_products(cls, field: FieldSpec, dim: int, products: dict, name: str | None = None) -> "AlgebraTable":
        """The table `_build` sets from `products`; nothing is coerced or
        checked."""
        L = object.__new__(cls)
        L._build(field, dim, products, name)
        return L

    @staticmethod
    def from_products(field: FieldSpec, dim: int, products: dict, name: str | None = None) -> "AlgebraTable":
        """Build a table from a sparse {(i, j): coefficient vector} dict;
        every product not given is 0.  Only the given vectors are coerced
        into the field (`_from_products`)."""
        for i, j in products:
            if not (0 <= i < dim and 0 <= j < dim):
                raise DimensionMismatchError("product index out of range")
        coerced = {}
        for ij, vec in products.items():
            vec = coerced[ij] = tuple(map(field.of, vec))
            if len(vec) != dim:
                raise DimensionMismatchError("structure tensor is not n*n*n")
        return AlgebraTable._from_products(field, dim, coerced, name=name)

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraTable)
            and self.field == other.field
            and self.c == other.c
        )

    def __hash__(self):
        return hash((self.field, self.c))

    def __repr__(self):
        label = self.name or "algebra"
        return "AlgebraTable(%s, dim %d over %r)" % (label, self.dim, self.field)

    def zero_vector(self) -> tuple:
        return (self.field.zero,) * self.dim

    def basis_vector(self, i: int) -> tuple:
        F = self.field
        return tuple(F.one if j == i else F.zero for j in range(self.dim))

    def full_space(self) -> Subspace:
        return Subspace.full(self.field, self.dim)

    def rename(self, name: str) -> "AlgebraTable":
        """The same table under another name, with its integer view and
        its cache: no cached entry reads the name."""
        L = object.__new__(AlgebraTable)
        for slot in self.__slots__:
            setattr(L, slot, getattr(self, slot))
        L.name = name
        L._cache = dict(self._cache)
        return L


def _per_table(fn):
    """Cache fn(L) in L._cache under fn.__name__; see the module docstring."""
    key = fn.__name__

    @functools.wraps(fn)
    def cached(L):
        try:
            return L._cache[key]
        except KeyError:
            pass  # fn runs outside the handler: what it raises is not chained
        value = L._cache[key] = fn(L)
        return value

    return cached


def bracket(L: AlgebraTable, u: Sequence, v: Sequence) -> tuple:
    """Evaluate [u, v] for coordinate rows u, v, coercing their entries into
    L's field."""
    F = L.field
    n = L.dim
    if len(u) != n or len(v) != n:
        raise DimensionMismatchError("vector length != algebra dimension")
    return _bracket(L, [F.of(x) for x in u], [F.of(y) for y in v])


def _bracket(L: AlgebraTable, u: Sequence, v: Sequence) -> tuple:
    """[u, v] for rows of L.dim entries already in L's field; nothing is
    coerced or checked.  Over QQ, where rows of Fractions enter the integer
    view, u and v are scaled to integer rows once, by the lcms du and dv
    of their denominators (`_integer_row`), bracketed by `_scaled_bracket`,
    and each nonzero coordinate is divided by du dv D once."""
    if L.field.p is not None:
        return _scaled_bracket(L, u, v)
    du, u = _integer_row(u)
    dv, v = _integer_row(v)
    return _fractions(_scaled_bracket(L, u, v), du * dv * L._D)


def _scaled_bracket(L: AlgebraTable, u: Sequence, v: Sequence) -> tuple:
    """The bracket on the integer view (`_products`).  Over GF(p) it is
    `_bracket`.  Over QQ it takes rows of ints only, such as a subspace's
    canonical rows `Subspace._rows`, and returns D [u, v], an integer row:
    a multiple of the bracket of the rows they scale, for what rescaling a
    generator does not change (spans, membership, vanishing)."""
    return _pair_bracket(L._products, u, v, L.field.p)


def _ones(count: int, width: int) -> int:
    """The packed int with `count` fields of `width` bits, each holding 1.

    Built by doubling shifts, one per bit of `count`: `block` holds `size`
    fields, and each set bit of `count` places it above the fields placed
    so far.  No word is longer than the result, so the cost is linear in
    its bit length, where a division by 2^width - 1 is quadratic."""
    out, filled, block, size = 0, 0, 1, 1
    while count:
        if count & 1:
            out |= block << width * filled
            filled += size
        count >>= 1
        if count:
            block |= block << width * size
            size *= 2
    return out


@_per_table
def leibniz_failure(L: AlgebraTable) -> tuple | None:
    """First basis triple (i, j, k) violating the left Leibniz rule, or None.

    Trilinearity makes checking basis triples sufficient.  On basis
    vectors the rule [e_i, [e_j, e_k]] = [[e_i, e_j], e_k] + [e_j, [e_i, e_k]]
    says that the defect

        D_i(j, k, t) = T1 - T2 - T3,   T1 = sum_m c_jkm c_imt,
                       T2 = sum_m c_ijm c_mkt,   T3 = sum_m c_ikm c_jmt

    vanishes for every (j, k, t).  Every term is a product of two structure
    constants, so over QQ the check runs on the integer table D*c
    (`_products`), where the defect is D^2 times the rational one: the
    same triples fail, with no Fraction arithmetic.

    Packed words.  For each i the n^3 values D_i(j, k, t) are the fields of
    one int X_i, W bits each, field (j, k, t) at bit W ((j n + k) n + t).
    Each term has exactly one constant with first index i, so X_i is linear
    in the slice c_i.. : X_i = sum_(b, t) c_ibt Z_bt, where Z_bt packs what
    c_ibt multiplies: c_jkb at fields (j, k, t) (T1, m = b), c_tk. at fields
    (b, k, .) (T2, j = b, m = t) and c_jt. at fields (j, b, .) (T3, k = b,
    m = t).  The three pieces are masked and shifted out of one packing of
    the whole table, whose field (a, b, t) holds c_abt: fields (j, k, m) at
    shift m, the block of a = t, and fields (j, t, .) at shift n t.  So a
    table costs O(nnz + n^2) big-int operations for O(n^4) products.  The
    loop runs over b outermost: the row Z_b. is built, c_ibt Z_bt is added
    into every X_i, and the row is dropped, so O(n^4 W) bits are held at
    once, not the O(n^5 W) of all n^2 words; every X_i is complete before
    the first is tested.

    Widths and the test.  Over QQ the terms enter with the sign -1 and a
    field of X_i is the exact defect, |D| <= B = 3 n max|c|^2, so W is the
    bit length of B: a sum of fields below 2^W in absolute value is 0 only
    when every field is, and its lowest set bit lies in its first nonzero
    field.  (The packing of c itself is offset by max|c| in every field, so
    that masking works, as 2 max|c| <= B, and the offset is taken off the
    masked pieces.)
    Over GF(p), where the constants are residues in [0, p), T2 and T3 enter
    with the factor p - 1 = -1 mod p: the fields of X_i are nonnegative,
    congruent to D mod p and below 2^N, N the bit length of
    n (p-1)^2 (2p-1).  The residue step divides every field at once
    (Granlund and Montgomery, PLDI 1994): with s = N + bitlen(p) and
    M = ceil(2^s / p), (x M) >> s = x // p for every x < 2^N, so with
    W = 2N + 1 the quotient of each field lands below bit W - s of its own
    field, Q = ((X_i M) >> s) & low keeps exactly those bits, and
    X_i - p Q holds every field mod p.

    The first i with a nonzero remainder is the first failing i, and the
    remainder's lowest set bit names its first failing (j, k): the triples
    fail in (i, j, k) order.
    """
    n = L.dim
    if not n:
        return None
    p = L.field.p
    products = L._products
    if p is None:
        bias = max((abs(x) for ci in products for cij in ci for _, x in cij), default=0)
        W = (3 * n * bias * bias).bit_length() or 1
        sign = -1
    else:
        N = (n * (p - 1) ** 2 * (2 * p - 1)).bit_length()
        s = N + p.bit_length()
        W = 2 * N + 1
        bias, sign = 0, p - 1
    Wn = W * n
    Wnn = Wn * n
    unit = _ones(n * n * n, W)
    packed = bias * unit + sum(
        x << W * ((a * n + b) * n + t)
        for a, ci in enumerate(products) for b, cab in enumerate(ci) for t, x in cab
    )

    def pieces(step, mask, factor):
        # factor * (the fields of c under mask, shifted down by step * m), m < n
        offset = bias * (mask & unit)
        return [factor * (((packed >> step * m) & mask) - offset) for m in range(n)]

    # per m: c_jkm at fields (j, k, 0), c_m.. at fields (0, ., .) and c_jm.
    # at fields (j, 0, .); T2 and T3 carry their sign
    t1 = pieces(W, ((1 << W) - 1) * _ones(n * n, Wn), 1)
    t2 = pieces(Wnn, (1 << Wnn) - 1, sign)
    t3 = pieces(Wn, ((1 << Wn) - 1) * _ones(n, Wnn), sign)
    X = [0] * n
    for b in range(n):
        Zb = [(t1[b] << W * t) + (t2[t] << Wnn * b) + (t3[t] << Wn * b) for t in range(n)]
        for i, ci in enumerate(products):
            for t, x in ci[b]:
                X[i] += x * Zb[t]
    if p is not None:
        M = -(-(1 << s) // p)
        low = ((1 << W - s) - 1) * unit
    for i, Xi in enumerate(X):
        if p is not None:
            Xi -= p * ((Xi * M >> s) & low)
        if Xi:
            f = ((Xi & -Xi).bit_length() - 1) // Wn
            return (i, f // n, f % n)
    return None


def _inherit_leibniz(parent: AlgebraTable, derived: AlgebraTable) -> AlgebraTable:
    """A subalgebra, quotient or basis change of a Leibniz algebra is Leibniz,
    so a passed check carries over; a failure or no check carries nothing."""
    if "leibniz_failure" in parent._cache and parent._cache["leibniz_failure"] is None:
        derived._cache["leibniz_failure"] = None
    return derived


def is_leibniz(L: AlgebraTable) -> bool:
    return leibniz_failure(L) is None


def require_leibniz(L: AlgebraTable) -> None:
    bad = leibniz_failure(L)
    if bad is not None:
        raise NotLeibnizError(
            "table violates the Leibniz rule at basis triple %r" % (bad,), triple=bad
        )


@_per_table
def squares_ideal(L: AlgebraTable) -> Subspace:
    """Span of all [x, x].

    Generated by the diagonal brackets [e_i, e_i] together with the
    polarized sums [e_i, e_j] + [e_j, e_i] for i < j, read off the integer
    view (`_Dc`): the rows are added as ints, and reduced mod p over GF(p).
    """
    require_leibniz(L)
    F, p = L.field, L.field.p
    c = L._Dc
    gens = []
    for i in range(L.dim):
        gens.append(c[i][i])
        for j in range(i + 1, L.dim):
            row = map(operator.add, c[i][j], c[j][i])
            gens.append(list(row) if p is None else [x % p for x in row])
    return Subspace._span(F, L.dim, gens)


def _is_skew(L: AlgebraTable) -> bool:
    """Whether [e_i, e_j] + [e_j, e_i] = 0 for every i <= j, the rows of
    the integer view added as ints, and reduced mod p over GF(p)."""
    p = L.field.p
    c = L._Dc
    for i in range(L.dim):
        for j in range(i, L.dim):
            row = map(operator.add, c[i][j], c[j][i])
            if any(row) if p is None else any(x % p for x in row):
                return False
    return True


@_per_table
def is_lie(L: AlgebraTable) -> bool:
    """True iff the table is a Leibniz algebra with zero squares span.

    A non-Leibniz table is never Lie, whatever its symmetry.  On Leibniz
    input, skew-symmetry of the table is computed as a redundant cross-check;
    the two criteria can only disagree in characteristic 2, which no
    classification code path accepts, so a disagreement there raises.
    """
    if leibniz_failure(L) is not None:
        return False
    lie = squares_ideal(L).is_zero()
    if lie != _is_skew(L) and L.field.characteristic != 2:
        raise ConsistencyError("squares-span and skew-symmetry tests disagree")
    return lie


def mult_operator(L: AlgebraTable, x: Sequence, side: str = "left") -> Matrix:
    """Matrix of left multiplication L_x or right multiplication R_x: column
    j holds the coordinates of [x, e_j] (side 'left') or [e_j, x] (side
    'right'), read off the integer view by one `_row_action`.  Over QQ, x
    is scaled to an integer row once, by the lcm d of its denominators
    (`_integer_row`), and each nonzero entry is divided by d D once."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    F = L.field
    n = L.dim
    if len(x) != n:
        raise DimensionMismatchError("vector length != algebra dimension")
    x = [F.of(a) for a in x]
    if F.p is not None:
        return Matrix._canonical(F, zip(*_row_action(L._products, x, F.p, side == "left")), n)
    d, x = _integer_row(x)
    rows = zip(*_row_action(L._products, x, None, side == "left"))
    return Matrix._canonical(F, [_fractions(row, d * L._D) for row in rows], n)


@_per_table
def center(L: AlgebraTable) -> Subspace:
    """{x : [x, L] = [L, x] = 0}: the dependencies among the n operators
    L_e_i (+) R_e_i, each flattened to one row of the integer view
    (`linalg._dependencies`)."""
    c = L._Dc
    rows = [sum(ci, ()) + sum((cj[i] for cj in c), ()) for i, ci in enumerate(c)]
    return _dependencies(L.field, rows)


def left_annihilator(L: AlgebraTable) -> Subspace:
    """{x : [x, L] = 0}: the dependencies among the flattened L_e_i, on the
    integer view."""
    return _dependencies(L.field, [sum(ci, ()) for ci in L._Dc])


def _actions(L: AlgebraTable, rows: Sequence[Sequence], sides=("left", "right")) -> list:
    """For each integer row a, such as a canonical row `Subspace._rows`, and
    each side, the matrix of x -> [a, x] (side "left") or x -> [x, a]
    ("right") on the integer view (`_row_action`), as rows: row k holds
    the k-th coordinates of the [a, e_j] (or [e_j, a]).  Over QQ it is a
    nonzero multiple of the operator of the row a scales."""
    return [list(zip(*_row_action(L._products, a, L.field.p, s == "left"))) for a in rows for s in sides]


def centralizer(L: AlgebraTable, A: Subspace) -> Subspace:
    """{x : [x, a] = [a, x] = 0 for all a in A}, the joint kernel of the
    actions of A's canonical rows."""
    _check_subspace(L, A)
    return Subspace._kernel(L.field, L.dim, [row for m in _actions(L, A._rows) for row in m])


def normalizer(L: AlgebraTable, A: Subspace) -> Subspace:
    """{x : [x, A] + [A, x] <= A}; requires A to be a subalgebra.  Each
    functional f vanishing on A gives, with each action m, the condition
    f(m x) = 0, the row f @ m."""
    _check_subspace(L, A)
    if not is_subalgebra(L, A):
        raise ValueError("normalizer requires a subalgebra")
    funcs = A._annihilator()._rows
    rows = [row for m in _actions(L, A._rows) for row in _matmul(funcs, m, L.field.p)]
    return Subspace._kernel(L.field, L.dim, rows)


def product_space(L: AlgebraTable, U: Subspace, V: Subspace) -> Subspace:
    """Span of all [u, v] over basis vectors of U and V."""
    _check_subspace(L, U)
    _check_subspace(L, V)
    return _product_within(L, U, V, L.full_space())


def _product_within(L: AlgebraTable, U: Subspace, V: Subspace, bound: Subspace) -> Subspace:
    """[U, V] for a [U, V] that lies in `bound`, which the caller vouches
    for: the span of the brackets taken so far is grown one row at a time
    (`linalg._clear`), and once its dimension reaches dim bound it is
    bound, which is returned with no further bracket.  `product_space`
    passes L itself.  The descending chains, [Dk, Dk] <= Dk, [L, Ck] <= Ck
    and [U, Ck] <= Ck for a subalgebra U, pass the term they step from:
    the step that finds the chain stalled stops at its bound."""
    p, n = L.field.p, L.dim
    found = []
    for u in U._rows:
        for v in V._rows:
            lead = _lead(p, _clear(p, _scaled_bracket(L, u, v), found), n)
            if lead is not None:
                found.append(lead)
                if len(found) == bound.dim:
                    return bound
    return Subspace._span(L.field, n, [w for _, w in found])


def _derived_space(L: AlgebraTable) -> Subspace:
    """[L, L], the span of the nonzero products the integer view lists:
    the product_space of L with itself without a bracket.  Over QQ each
    row is D times its product, which changes no span."""
    c, products = L._Dc, L._products
    gens = [cij for ci, pi in zip(c, products) for cij, pij in zip(ci, pi) if pij]
    return Subspace._span(L.field, L.dim, gens)


def is_subalgebra(L: AlgebraTable, U: Subspace) -> bool:
    _check_subspace(L, U)
    rows = U._rows
    return all(U._contains(_scaled_bracket(L, u, v)) for u in rows for v in rows)


def is_ideal(L: AlgebraTable, U: Subspace) -> bool:
    """Whether U is a two-sided ideal, by one contraction of the table per
    functional: for each row f of U's annihilator, the n x n form
    H_f[i][j] = f . c_ij is f([e_i, e_j]), so f([u, e_j]) is (u^T H_f)_j
    and f([e_i, u]) is (H_f u)_i.  U is an ideal iff u^T H_f = 0 and
    H_f u = 0 for every canonical row u of U and every f: no bracket is
    evaluated and nothing is reduced.

    Over QQ the contraction runs on the integer view D*c with the primitive
    integer rows of U and of its annihilator, each a nonzero multiple of
    the rational row it stands for, so every product is a nonzero multiple
    of the rational one and vanishes exactly when it does."""
    _check_subspace(L, U)
    p = L.field.p
    rows = U._rows
    products = L._products
    for f in U._annihilator()._rows:
        H = [[sum(x * f[k] for k, x in cij) for cij in ci] for ci in products]
        for u in rows:
            for h in (*H, *zip(*H)):
                x = _dot_rows(h, u)
                if x if p is None else x % p:
                    return False
    return True


def is_abelian_subspace(L: AlgebraTable, U: Subspace) -> bool:
    _check_subspace(L, U)
    rows = U._rows
    return not any(any(_scaled_bracket(L, u, v)) for u in rows for v in rows)


def generated_subalgebra(L: AlgebraTable, S: Subspace) -> Subspace:
    """Least subalgebra containing S: fixed point of W -> W + [W, W]."""
    _check_subspace(L, S)
    return _chain(S, lambda W: subspace_sum(W, product_space(L, W, W)))[-1]


def subalgebra_table(L: AlgebraTable, U: Subspace) -> AlgebraTable:
    """Structure table of a subalgebra on its RREF basis rows.  A subspace
    that is not a subalgebra raises ValueError: the product of two basis
    rows that leaves U has no coordinates.

    The products are taken on the integer view (`_scaled_bracket`) of U's
    canonical rows: over QQ, for the integer rows s_a b_a and s_b b_b of
    the RREF rows b_a, b_b (s the pivot), w = D s_a s_b [b_a, b_b], whose
    coordinates are w[pc] / (D s_a s_b), pc the pivots.  The nonzero
    products build the table (`AlgebraTable._from_products`).  It inherits
    a passed Leibniz check, and a passed Lie test: a subalgebra of a Lie
    algebra is Lie."""
    _check_subspace(L, U)
    rows, pivots = U._rows, U.pivots
    D = L._D
    products = {}
    for i, (a, pa) in enumerate(zip(rows, pivots)):
        for j, (b, pb) in enumerate(zip(rows, pivots)):
            w = _scaled_bracket(L, a, b)
            if not U._contains(w):
                raise ValueError("subspace is not closed under the bracket")
            if any(w):
                coords = [w[pc] for pc in pivots]
                products[i, j] = tuple(coords) if L.field.p else _fractions(coords, D * a[pa] * b[pb])
    T = _inherit_leibniz(L, AlgebraTable._from_products(L.field, len(rows), products))
    if L._cache.get("is_lie"):
        T._cache["is_lie"] = True  # a subalgebra of a Lie algebra is Lie
    return T


def quotient(L: AlgebraTable, I: Subspace) -> tuple[AlgebraTable, Matrix]:
    """Quotient algebra by a two-sided ideal, plus the projection matrix.

    The new basis extends the ideal basis greedily by standard basis vectors;
    the quotient is read off the complement coordinates.  The projection maps
    ambient coordinate rows to quotient coordinates (shape n x (n-d)):
    row-vector @ projection.
    """
    if not is_ideal(L, I):
        raise ValueError("subspace is not a two-sided ideal")
    F = L.field
    n, d = L.dim, I.dim
    m = n - d
    P = I.extend_to_full_basis()
    coords = _coords_in_rows(F, P.data, n)[1]
    proj = Matrix._canonical(F, [coords(e)[d:] for e in Matrix.identity(F, n).data], m)
    comp = P.data[d:]
    products = {}
    for i, fa in enumerate(comp):
        for j, fb in enumerate(comp):
            vec = coords(_bracket(L, fa, fb))[d:]
            if any(vec):
                products[i, j] = vec
    name = ("%s/ideal" % L.name) if L.name else None
    return _inherit_leibniz(L, AlgebraTable._from_products(F, m, products, name=name)), proj


def direct_sum(L1: AlgebraTable, L2: AlgebraTable) -> AlgebraTable:
    """Block-diagonal table; cross products vanish.  It is built from the
    summands' nonzero products, as their integer views list them
    (`AlgebraTable._from_products`)."""
    check_same_field(L1.field, L2.field)
    F = L1.field
    n1, n2 = L1.dim, L2.dim
    products = {}
    for L, shift, before, after in ((L1, 0, (), (F.zero,) * n2), (L2, n1, (F.zero,) * n1, ())):
        for i, ci in enumerate(L._products):
            for j, cij in enumerate(ci):
                if cij:
                    products[shift + i, shift + j] = before + L.c[i][j] + after
    name = None
    if L1.name and L2.name:
        name = "%s (+) %s" % (L1.name, L2.name)
    return AlgebraTable._from_products(F, n1 + n2, products, name=name)


def change_of_basis(L: AlgebraTable, P: Matrix) -> AlgebraTable:
    """Table of the same algebra in the basis whose vectors are the rows of P:
    [p_i, p_j] in coordinates of the rows (`linalg._coords_in_rows`).  A P
    of another shape, or a singular one, raises DimensionMismatchError.

    The nonzero products build the table (`AlgebraTable._from_products`).

    Composition law: change_of_basis(change_of_basis(L, P), Q) equals
    change_of_basis(L, Q @ P).
    """
    check_same_field(L.field, P.field)
    if P.rows != L.dim or P.cols != L.dim:
        raise DimensionMismatchError("basis matrix must be dim x dim")
    rank, coords = _coords_in_rows(L.field, P.data, L.dim)
    if rank < L.dim:
        raise DimensionMismatchError("singular matrix")
    products = {}
    for i, a in enumerate(P.data):
        for j, b in enumerate(P.data):
            w = _bracket(L, a, b)
            if any(w):
                products[i, j] = coords(w)
    return _inherit_leibniz(L, AlgebraTable._from_products(L.field, L.dim, products, name=L.name))


def _is_frame(L: AlgebraTable, P: Matrix, model: AlgebraTable) -> bool:
    """Whether change_of_basis(L, P).c == model.c, for a model over L's
    field, decided without inverting P: the rows f_i of P must be a basis,
    and [f_i, f_j] must equal sum_k model[i][j][k] f_k for every (i, j).
    Over QQ both sides are compared in ints: with F_i = d f_i, d the lcm
    of P's denominators, and the model's integer view M = DM * model
    (`_Dc`), [F_i, F_j] on L's integer view is DL d^2 [f_i, f_j]
    and sum_k M[i][j][k] F_k is DM d sum_k model[i][j][k] f_k.

    Only the pairs of rows outside C(L) (`center`, cached on L) are
    bracketed.  Lemma: a row f_i in C(L) brackets to 0 with every row on
    both sides, so the pairs (i, j) and (j, i) hold iff sum_k
    model[i][j][k] f_k and sum_k model[j][i][k] f_k are 0, and, the f_k
    being a basis, iff the model's products [e_i, e_j] and [e_j, e_i] are
    0.  So a frame with r rows outside C(L) costs r^2 brackets, not n^2.

    Raises as change_of_basis does on a P of another field or shape, or a
    singular P."""
    check_same_field(L.field, P.field)
    n = L.dim
    if P.rows != n or P.cols != n:
        raise DimensionMismatchError("basis matrix must be dim x dim")
    d, flat = _integer_row(sum(P.data, ()))
    f = [flat[i * n : (i + 1) * n] for i in range(n)]
    if len(_echelon(L.field, f, n)[1]) != n:
        raise DimensionMismatchError("singular matrix")
    if model.dim != n:
        return False
    C = center(L)
    outside = [i for i, fi in enumerate(f) if not C._contains(fi)]
    central = set(range(n)).difference(outside)
    products = model._products
    if any(products[i][j] or products[j][i] for i in central for j in range(n)):
        return False
    p = L.field.p
    scale = L._D * d
    for i in outside:
        for j in outside:
            want = [0] * n
            for k, c in products[i][j]:
                for t, y in enumerate(f[k]):
                    if y:
                        want[t] += c * y
            got = _scaled_bracket(L, f[i], f[j])
            if p is not None:
                if got != tuple(x % p for x in want):
                    return False
            elif [model._D * x for x in got] != [scale * x for x in want]:
                return False
    return True


def _check_subspace(L: AlgebraTable, U: Subspace) -> None:
    check_same_field(L.field, U.field)
    if U.ambient_dim != L.dim:
        raise DimensionMismatchError("subspace ambient dimension != algebra dimension")
