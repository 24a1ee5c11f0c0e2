"""Decision procedure for algebras with a codimension-two abelian subalgebra.

Given a Leibniz algebra whose maximal abelian subalgebra dimension is n-2,
exactly one verdict is produced:

  AbelianIdealCodimLe2  an abelian two-sided ideal of codimension <= 2 exists
  Case1_c               solvable Lie, derived length 3, L^2 a Heisenberg
                        algebra, center of dimension n-3, the generator
                        acting irreducibly on L^2 / center(L^2)
  Case2_d               Lie, not solvable, center of dimension n-3 with a
                        3-dimensional simple quotient
  Case3_e               solvable with nilradical of codimension 1 isomorphic
                        to heisenberg (+) F^(n-4), extended by one generator
                        acting irreducibly on nilradical / center(nilradical)
  NotApplicable         the alpha = n-2 hypothesis fails

The branches as mathematical families overlap: a solvable Lie algebra of the
Case1_c shape is also a one-dimensional extension of its nilradical and so
has the Case3_e structure.  The classifier therefore tries one matcher per
case in a fixed precedence (ideal, then Case2_d, then Case1_c, then Case3_e)
so verdicts are deterministic and basis-invariant.

Cases 1-3 carry an explicit frame: a basis of the input algebra in which its
table equals the reconstructed model algebra bit for bit.  The reported
characteristic polynomial is canonicalized under the rescaling
(c1, c0) -> (s*c1, s^2*c0), which absorbs the scalar freedom in choosing the
complement generator, so diagnostics are identical across basis changes,
but for QQ Case2_d, which reports the first triple it finds (`_match_case2`).
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .algebra import (
    AlgebraTable,
    _bracket,
    _derived_space,
    _inherit_leibniz,
    _is_frame,
    center,
    is_abelian_subspace,
    is_ideal,
    is_lie,
    require_leibniz,
    squares_ideal,
    subalgebra_table,
)
from .errors import ConsistencyError, FamilyParameterError, NoAbelianIdealError
from .families import _c_table, _d_table, _e_table
from .fields import FieldSpec, _least_nonresidue, _sqrt_mod
from .invariants import (
    SeriesReport,
    _proved_nilradical,
    _trace_kernel,
    nilradical,
    series,
)
from .linalg import (
    Matrix,
    QuadraticPoly,
    Subspace,
    _coords_in_rows,
    char_poly_2x2,
    enumerate_subspaces,
    is_irreducible_quadratic,
    subspace_sum,
)
from .search import DEFAULT_SCAN_BUDGET, _first_in_strata, _request


class Case(Enum):
    ABELIAN_IDEAL_CODIM_LE2 = "AbelianIdealCodimLe2"
    CASE1_C = "Case1_c"
    CASE2_D = "Case2_d"
    CASE3_E = "Case3_e"
    NOT_APPLICABLE = "NotApplicable"


class ClassificationVerdict(NamedTuple):
    case: Case
    witness: dict
    diagnostics: dict

    @property
    def chi(self) -> QuadraticPoly | None:
        return self.witness.get("chi")


# ---------------------------------------------------------------------------
# canonical quadratic diagnostics


def _squarefree_part(n: int) -> int:
    """The product of the primes that divide n >= 1 to an odd power.

    Trial division by d = 2, 3, .. stops once d^3 exceeds the cofactor m
    left after dividing out every d below.  Then every prime factor of m is
    at least d, and m < d^3, so m has at most two prime factors, counted
    with multiplicity: m is 1, q, q^2 or q q' with q < q'.  Its squarefree
    part is 1 when m is a square and m otherwise, so the division runs to
    the cube root of n, not its square root."""
    out = 1
    d = 2
    while d * d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e % 2:
            out *= d
        d += 1
    return out if math.isqrt(n) ** 2 == n else out * n


def canonical_quadratic(F: FieldSpec, q: QuadraticPoly) -> QuadraticPoly:
    """Least representative of q under (c1, c0) -> (s*c1, s^2*c0), s nonzero.

    This rescaling is exactly the effect of replacing the extracted generator
    by a scalar multiple, so the canonical form is a basis-free diagnostic.
    """
    c1, c0 = q.c1, q.c0
    if c1 != 0:
        # s = 1/c1 is the one s giving the least first coordinate, 1
        s = F.inv(c1)
        return QuadraticPoly(F.one, F.mul(F.mul(s, s), c0))
    if c0 == 0:
        return QuadraticPoly(F.zero, F.zero)
    if F.is_prime_field:
        # the s^2 c0 are c0 times the nonzero squares: the nonzero squares,
        # least 1, when c0 is one, else the non-residues
        return QuadraticPoly(F.zero, F.one if F.is_square(c0) else _least_nonresidue(F.p))
    sign = 1 if c0 > 0 else -1
    sf = _squarefree_part(abs(c0.numerator) * abs(c0.denominator))
    return QuadraticPoly(F.zero, F.of(sign * sf))


def _quadratic_root(F: FieldSpec, q: QuadraticPoly):
    """A root in F of a reducible monic quadratic: over GF(p) the least,
    (-c1 +- s)/2 for s a square root of the discriminant when p is odd."""
    if F.p == 2:
        return next(t for t in F.elements() if q.evaluate(F, t) == F.zero)
    d = q.discriminant(F)
    if F.is_prime_field:
        s, half = _sqrt_mod(d, F.p), F.inv(F.of(2))
        return min(F.mul(F.sub(r, q.c1), half) for r in (s, F.neg(s)))
    s = F.of(math.isqrt(d.numerator)) / math.isqrt(d.denominator)
    return (s - q.c1) / 2


# ---------------------------------------------------------------------------
# case matchers, which `classify` calls in the order Case2_d, Case1_c,
# Case3_e, as the families overlap (see the module docstring): each tests
# its case's structure and, when it holds, returns the frame; None means the
# case does not apply, and {"abelian_ideal": W} that the structure yields an
# abelian ideal of codimension 2 (Case1_c or Case3_e with a reducible
# action).  On a Leibniz table they raise only ConsistencyError, on a
# contradiction with the lemmas they rest on.


def _heisenberg_frame(L: AlgebraTable, W: Subspace) -> list[tuple] | None:
    """Ambient rows (u, w, z, f_1, ..) putting the subalgebra W in the standard
    heisenberg (+) F^k form: [u, w] = z with z and the f's central in W.

    None when W is not heisenberg (+) F^(dim-3), tested structurally: Lie,
    with a derived space span(z) of dimension 1, read off W's table
    (`_derived_space`), inside a center C of dimension dim-2 (which makes
    it nilpotent of class <= 2).

    The frame is then written down, in W's RREF coordinates: u is the first
    basis vector outside C, w the first basis vector e_s with [u, e_s] = c*z,
    c != 0, scaled by 1/c, and the f's extend z to a basis of C.  Every
    bracket is a multiple of z, and a Lie algebra's left and right centers
    agree, so such an s exists.  The rows are a basis: if a*u + b*w lies in
    C, bracketing with u gives b*z = 0, so b = 0, and then a = 0 as u is
    outside C.  In this basis [u, w] = -[w, u] = z, [u, u] = [w, w] = 0 by
    the Lie property, and z and the f's are central: the table is the
    model's.  `_match_case1` and `_match_case3` check whole frames that
    contain these products."""
    m = W.dim
    if m < 3:
        return None
    T = subalgebra_table(L, W)
    if not is_lie(T):
        return None
    T2 = _derived_space(T)
    CT = center(T)
    if T2.dim != 1 or CT.dim != m - 2 or not CT.contains(T2):
        return None
    F = L.field
    u_t = T.basis_vector(_least_index_outside(T, CT))
    w_t = next(e for e in map(T.basis_vector, range(m)) if any(_bracket(T, u_t, e)))
    c = _bracket(T, u_t, w_t)[T2.pivots[0]]
    rows_t = [u_t, tuple(F.mul(F.inv(c), x) for x in w_t), T2.basis.data[0]]
    rows_t += T2._extension(CT.basis.data)
    return [W.basis.apply_row(row) for row in rows_t]


def _least_index_outside(L: AlgebraTable, S: Subspace) -> int:
    for i in range(L.dim):
        if not S._contains([int(i == j) for j in range(L.dim)]):
            return i
    raise ConsistencyError("no basis vector outside the subspace")


def _eigenline_ideal(L: AlgebraTable, C: Subspace, m: Matrix, u, w) -> Subspace:
    """C + span(v) for an eigenvector v = alpha*u + beta*w of the action m
    (row (alpha, beta) times m) of a reducible chi, C being the center of L
    (Case1_c) or of the nilradical (Case3_e): [a, v] is a multiple of v
    modulo C and [u, v], [w, v] lie in span(z), so it is an abelian ideal of
    codimension 2, which is checked."""
    F = L.field
    r = _quadratic_root(F, char_poly_2x2(m))
    shifted = m - Matrix(F, [[r, F.zero], [F.zero, r]])
    c_u, c_w = shifted.transpose().kernel_basis().data[0]
    v = tuple(F.add(F.mul(c_u, x), F.mul(c_w, y)) for x, y in zip(u, w))
    W = subspace_sum(C, Subspace.from_vectors(F, L.dim, [v]))
    if W.codim != 2 or not is_abelian_subspace(L, W) or not is_ideal(L, W):
        raise ConsistencyError("the eigenline of a reducible chi gives no abelian ideal")
    return W


def _match_case1(L: AlgebraTable, lie, rep, CL, L2) -> dict | None:
    """Case1_c: solvable Lie of derived length 3, L2 = [L, L] a 3-dim
    heisenberg algebra, center of dimension n-3.  Frame (a, z, u, w, f..)
    matching  c(m) (+) F^(n-4);  m read off the action of the complement
    generator on span(u, w), and chi = det(t - m) irreducible.  A reducible
    chi returns {"abelian_ideal": W} instead: the center plus an eigenline
    of m, an abelian ideal of codimension 2.

    With chi irreducible, L has no abelian ideal of codimension <= 2, which
    the QQ path of `classify` relies on without a scan.  z lies in C(L), so
    N = [L, L] + C(L) is heisenberg (+) F^(n-4), a nilpotent ideal of
    codimension 1 whose center is C(L).  L is not nilpotent, as m is
    invertible, so N is the nilradical and holds every abelian ideal A; N
    is not abelian, so A has dimension at most n-2, the largest dimension
    of an abelian subalgebra of N.  A + C(L) is abelian, so an A of
    dimension n-2 contains C(L) and gives a line A / C(L) in the plane
    N / C(L), spanned by the images of u and w, that the generator leaves
    invariant; an irreducible m has no such line."""
    F = L.field
    n = L.dim
    if not (lie and rep.derived_length == 3):
        return None
    if L2.dim != 3 or CL.dim != n - 3:
        return None
    frame_h = _heisenberg_frame(L, L2)
    if frame_h is None:
        return None
    u, w, z = frame_h
    fs = Subspace.from_vectors(F, n, [z])._extension(CL.basis.data)
    a0 = L.basis_vector(_least_index_outside(L, subspace_sum(CL, L2)))
    # strip the z-component of the action by absorbing it into the generator;
    # every bracket lies in [L, L] = span(u, w, z), so each has coordinates
    uvz_coords = _coords_in_rows(F, [u, w, z], n)[1]
    cu = uvz_coords(_bracket(L, a0, u))[2]
    cw = uvz_coords(_bracket(L, a0, w))[2]
    a = tuple(
        F.add(x, F.sub(F.mul(cu, ww), F.mul(cw, uu)))
        for x, uu, ww in zip(a0, u, w)
    )
    au = uvz_coords(_bracket(L, a, u))
    aw = uvz_coords(_bracket(L, a, w))
    if au[2] != F.zero or aw[2] != F.zero:
        raise ConsistencyError("central component survived generator adjustment")
    m = Matrix._canonical(F, [au[:2], aw[:2]], 2)
    if not is_irreducible_quadratic(char_poly_2x2(m), F):
        return {"abelian_ideal": _eigenline_ideal(L, CL, m, u, w)}
    model = _c_table(m, n, F)
    frame = Matrix._canonical(F, [a, z, u, w] + fs, n)
    if not _is_frame(L, frame, model):
        raise ConsistencyError("case-1 frame does not transport the table onto the model")
    chi = canonical_quadratic(F, char_poly_2x2(m))
    return {"chi": chi, "m": m, "frame": frame, "model": model}


def _simple_3dim_subspaces(T: AlgebraTable):
    """Candidate planes of the 3-dim simple Lie algebra T, each yielded
    once: over prime fields every plane, in canonical order; over QQ the
    six planes ker f, f = e_3*, e_2*, e_1*, e_2* + e_3*, e_1* + e_3*,
    e_1* + e_2*, in that order, one of which gives a standard triple.

    Lemma (QQ).  Let K be the Killing form, nondegenerate, h_f the vector
    with K(h_f, .) = f, so ker f = h_f^perp, and Q*(f) = K(h_f, h_f), the
    dual form.  The plane V = ker f gives a triple (h = [u, w] outside V,
    [h, V] <= V, u, w a basis of V) iff Q*(f) != 0.  Each ad x is skew for
    K, so ad h_f preserves h_f^perp.  If Q*(f) = 0, h_f lies in V and
    V = span(h_f, v) is a subalgebra.  Otherwise K is nondegenerate on V,
    so ad h_f, skew there, is traceless on V, and [h_f, [u, w]] =
    tr(ad h_f on V) [u, w] = 0.  The centralizer of x != 0 is span(x): ad x
    kills x and is skew, so of even rank <= 2, and is not 0.  So [u, w]
    lies in span(h_f), and is not 0, as sl2 has no 2-dim abelian
    subalgebra: h is outside V and ad h preserves V.  One of the six
    qualifies: Q* is nondegenerate, so if Q*(e_i*) = 0 for every i,
    Q*(e_i* + e_j*) = 2 B*(e_i*, e_j*) != 0 for some i < j, B* the
    bilinear form of Q*."""
    F = T.field
    if F.is_prime_field:
        yield from enumerate_subspaces(3, 2, F)
        return
    for f in ((0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)):
        yield Subspace._kernel(F, 3, [f])


def _match_case2(L: AlgebraTable, lie, rep, CL, L2) -> dict | None:
    """Case2_d: Lie, not solvable, center of dimension n-3 with a 3-dim
    simple quotient.  Frame (h, u, w, f..) matching  d(m) (+) F^(n-3),
    extracted from L2 = [L, L], which is the 3-dimensional simple part.

    A simple algebra can contain standard triples with non-conjugate action
    matrices (over a finite field every 3-dim simple Lie algebra is split, so
    both reducible and irreducible triples occur).  Each candidate plane
    span(u, w) is checked once, with u, w its RREF basis rows and h = [u, w].
    Over GF(p) the first plane in candidate order whose triple has the least
    canonical polynomial is reported.  That least key is (0, 1), t^2 + 1,
    and the search stops at the first plane reaching it: tr m = 0 by the
    Jacobi identity and [h, h] = 0; det m != 0, as a singular m would give h
    a 2-dim centralizer, which a 3-dim simple algebra has none of; and the
    split simple algebra contains d(rot)'s triple, of key (0, 1) (Jacobson,
    Lie Algebras, 1962, ch. I).  A key below (0, 1) raises ConsistencyError.
    Over QQ, where forms of sl2 are told apart by their Killing form and no
    triple is canonical (ibid.), the first triple is reported: chi, m and
    the frame depend on the basis of L.

    Once L2 + C(L) = L and dim C(L) = n-3, the intersection of L2 and
    C(L) has dimension dim L2 + (n-3) - n = dim L2 - 3, so L2 is a
    complement of C(L) iff dim L2 = 3, and no intersection is computed.

    A matched L has nilradical C(L): the image of Nil(L) in the simple
    L / C(L) is a nilpotent ideal, so 0, and C(L) is an abelian ideal."""
    F = L.field
    n = L.dim
    if not lie or rep.solvable or CL.dim != n - 3:
        return None
    # L / CL is 3-dim; it is simple iff it equals its derived algebra, the
    # image of L2, i.e. iff L2 + CL = L
    if subspace_sum(L2, CL).dim != n:
        return None
    if L2.dim != 3:
        raise ConsistencyError("derived subalgebra is not a 3-dim complement of the center")
    T = subalgebra_table(L, L2)
    least = (F.zero, F.one)
    best = None
    for V in _simple_3dim_subspaces(T):
        u_t, w_t = V.basis.data
        h_t = _bracket(T, u_t, w_t)
        if V._coordinates(h_t) is not None:
            continue
        hu = V._coordinates(_bracket(T, h_t, u_t))
        hw = V._coordinates(_bracket(T, h_t, w_t))
        if hu is None or hw is None:
            continue
        m = Matrix._canonical(F, [hu, hw], 2)
        chi = canonical_quadratic(F, char_poly_2x2(m))
        key = (chi.c1, chi.c0)
        if F.is_prime_field and key < least:
            raise ConsistencyError("a standard triple of the simple part acts singularly")
        if best is None or key < best[0]:
            best = (key, chi, m, h_t, u_t, w_t)
        if key == least or not F.is_prime_field:
            break
    if best is None:
        raise ConsistencyError("no standard triple found in the simple part")
    _, chi, m, h_t, u_t, w_t = best
    try:
        model = _d_table(m, n, F)
    except FamilyParameterError as exc:
        raise ConsistencyError("extracted action matrix has nonzero trace") from exc
    frame_rows = [L2.basis.apply_row(t) for t in (h_t, u_t, w_t)]
    frame_rows += list(CL.basis.data)
    frame = Matrix._canonical(F, frame_rows, n)
    if not _is_frame(L, frame, model):
        raise ConsistencyError("case-2 frame does not transport the table onto the model")
    return {"chi": chi, "m": m, "frame": frame, "model": model}


def _match_case3(L: AlgebraTable, N, frame_amb) -> dict | None:
    """Case3_e: solvable, nilradical N of codimension 1 isomorphic to
    heisenberg (+) F^(n-4), and the outside generator x acting irreducibly on
    N / C(N).  Frame (x, u, w, z, f..) matching  e(phi, theta, v, n), from
    `frame_amb`, the rows `_heisenberg_frame(L, N)` gave the caller when N
    has codimension 1 (`_case3_nilradical`), or None; then L / N is
    1-dimensional, so abelian, and L is solvable.  A reducible action
    returns {"abelian_ideal": W} instead: C(N) plus an eigenline of the
    action, an abelian ideal of codimension 2.

    With an irreducible action, L has no abelian ideal of codimension <= 2,
    which the QQ path of `classify` relies on without a scan: an abelian
    ideal A is a nilpotent ideal, so it lies in the nilradical N, which is
    not abelian, so A has dimension at most n-2, the largest dimension of
    an abelian subalgebra of heisenberg (+) F^(n-4).  A + C(N) is abelian,
    so an A of dimension n-2 contains C(N) and gives a line A / C(N) in the
    plane N / C(N) that x leaves invariant; an irreducible action has no
    such line."""
    F = L.field
    n = L.dim
    if frame_amb is None:
        return None
    x = L.basis_vector(_least_index_outside(L, N))
    # [x, b] and [b, x] lie in the ideal N, as does [x, x]: the squares span
    # is an ideal with [[y, y], L] = 0, so abelian, and N holds it
    h_coords = _coords_in_rows(F, frame_amb, n)[1]
    phi = Matrix._canonical(F, [h_coords(_bracket(L, x, b)) for b in frame_amb], n - 1).transpose()
    # the induced action on N / C(N) is the (u, w) block of phi
    star = Matrix._canonical(F, [phi.data[0][:2], phi.data[1][:2]], 2)
    if not is_irreducible_quadratic(char_poly_2x2(star), F):
        # z and the f's span the center of N
        CN = Subspace.from_vectors(F, n, frame_amb[2:])
        u, w = frame_amb[:2]
        return {"abelian_ideal": _eigenline_ideal(L, CN, star.transpose(), u, w)}
    theta = Matrix._canonical(F, [h_coords(_bracket(L, b, x)) for b in frame_amb], n - 1).transpose()
    v = h_coords(_bracket(L, x, x))
    model = _e_table(phi, theta, v, n, F)
    frame = Matrix._canonical(F, [x] + frame_amb, n)
    if not _is_frame(L, frame, model):
        raise ConsistencyError("case-3 frame does not transport the table onto the model")
    # the model is L in the frame basis, and L passed the Leibniz check
    _inherit_leibniz(L, model)
    chi = canonical_quadratic(F, char_poly_2x2(star))
    return {
        "phi": phi,
        "theta": theta,
        "v": v,
        "nilradical": N,
        "frame": frame,
        "model": model,
        "chi": chi,
        "induced_action": star,
    }


def _case3_nilradical(L: AlgebraTable) -> tuple:
    """(N, frame): N = Nil(L), and for `_match_case3` the rows
    `_heisenberg_frame(L, N)` gives when N has codimension 1, else None.

    Lemma.  The trace kernel K (`invariants._trace_kernel`, cached on L) is
    an ideal that holds every nilpotent ideal.  If K has dimension n-1 and
    a frame, its table is heisenberg (+) F^k, so K is a nilpotent ideal and
    Nil(L) = K: it is entered without the certificate
    (`invariants._proved_nilradical`), and its frame is handed on.  (L is
    not nilpotent: a nilpotent L has K = L.)  Otherwise the certificate
    `invariants.nilradical` gives N <= K, and N's frame is tried when N has
    codimension 1, unless N = K, whose frame failed."""
    n = L.dim
    K = _trace_kernel(L)
    if K.dim == n - 1:
        frame = _heisenberg_frame(L, K)
        if frame is not None:
            return _proved_nilradical(L, K), frame
    N = nilradical(L)
    return N, (_heisenberg_frame(L, N) if N.dim == n - 1 and N != K else None)


# ---------------------------------------------------------------------------
# classification


def _codim2_abelian_ideal_qq(L: AlgebraTable, A: Subspace) -> Subspace | None:
    """The first of A, an abelian subalgebra of codimension 2, and
    U = center(L) + [L, L] that is an abelian ideal of codimension <= 2, or
    None; U holds [L, L], so it is an ideal.  The matchers find the abelian
    ideals these miss (Case1_c and Case3_e with a reducible action)."""
    if is_ideal(L, A):
        return A
    U = subspace_sum(center(L), _derived_subalgebra(series(L)))
    return U if U.codim <= 2 and is_abelian_subspace(L, U) else None


def _derived_subalgebra(rep: SeriesReport) -> Subspace:
    """[L, L] from the series of L; a perfect algebra's derived chain stops
    at L."""
    return rep.derived_chain[1] if len(rep.derived_chain) > 1 else rep.derived_chain[0]


def _alpha_and_ideal(L: AlgebraTable, A: Subspace | None):
    """alpha over GF(p), and the first abelian ideal of dimension n-2 when
    alpha = n-2 and one exists, else None, in the open request.

    Three calls of `search._first_in_strata`.  Strata n and n-1 of alpha
    come first, decided by the structure constants and one slice.  If
    both are empty, they hold no abelian ideal, so the abelian-ideal
    stratum n-2 comes next, decided by the rank bound or by the candidates
    between the center and the trace kernel; that ideal, or a supplied
    witness A, abelian of codimension 2, proves alpha = n-2.  Only without
    either are alpha's strata <= n-2 decided, by the rank bound, the first
    candidate of stratum dim C(L) + 1, or the kernel's walk."""
    n = L.dim
    d = _first_in_strata(L, (n, n - 1))[0]
    if d is not None:
        return d, None
    ideal = _first_in_strata(L, (n - 2,), ideal=True)[1]
    if ideal is not None or A is not None:
        return n - 2, ideal
    return _first_in_strata(L, range(n - 2, -1, -1))[0], None


def _check_nilradical_candidate(N: Subspace, candidate: Subspace | None) -> None:
    if candidate not in (None, N):
        raise ValueError("supplied nilradical candidate is not the nilradical")


def classify(
    L: AlgebraTable,
    A: Subspace | None = None,
    nilradical_candidate: Subspace | None = None,
    budget: int = DEFAULT_SCAN_BUDGET,
) -> ClassificationVerdict:
    """Classify an algebra whose maximal abelian subalgebra has codimension 2.

    Over a prime field everything is decided exhaustively, in one request
    whose `budget` bounds the subspaces counted (`_alpha_and_ideal`), by
    the strata driver `search._first_in_strata` and its five deciders:
    strata n and n-1 of alpha in closed form, then, when both are empty,
    the abelian ideals of dimension n-2, by the rank bound or by the
    candidates between the center and the trace kernel.  An ideal found
    there, or a witness A, proves alpha = n-2 with no walk; otherwise
    alpha's strata <= n-2 are decided by the rank bound, the first
    candidate of stratum dim C(L) + 1, or the kernel's walk.  Each stratum
    is debited what a walk of it would count.  The nilradical counts
    nothing.
    Over the rationals a codimension-2 abelian subalgebra witness A is
    required and alpha = n-2 is assumed, not checked; an abelian ideal is
    looked for among A and center(L) + [L, L], then the matchers decide,
    and every reported structure is checked.

    The nilradical N, reported as `dim_nilradical` on every answer the
    matchers give, is proved by a frame where one exists, and entered in
    L's nilradical cache entry (`invariants._proved_nilradical`).  A
    Case2_d or Case1_c frame that matched proves N to be C(L) or [L, L] +
    C(L) by the lemmas of `_match_case2` and `_match_case1`.  Before
    Case3_e's matcher, which takes N and its Heisenberg frame as its input,
    a frame of the trace kernel K, an ideal, proves N = K when K has
    codimension 1 (`_case3_nilradical`), and is handed to the matcher.
    Otherwise, and for a reducible action's abelian ideal, the certificate
    `invariants.nilradical` computes N.  A supplied nilradical candidate is
    checked once, whatever the verdict: it must equal the exact nilradical,
    or ValueError is raised.  A negative budget is a ValueError over either
    field.
    """
    require_leibniz(L)
    F = L.field
    if F.characteristic == 2:
        raise ValueError("classification requires characteristic != 2")
    n = L.dim

    diagnostics: dict = {"dim": n}

    if A is not None:
        if A.ambient_dim != n or A.codim != 2:
            raise ValueError("witness must be a codimension-2 subspace")
        if not is_abelian_subspace(L, A):
            raise ValueError("witness is not an abelian subalgebra")
    elif not F.is_prime_field:
        raise ValueError("over the rationals an abelian codimension-2 witness is required")

    with _request(budget):
        if F.is_prime_field:
            diagnostics["alpha"], ideal_witness = _alpha_and_ideal(L, A)
        else:
            # a trusted hypothesis over the rationals
            diagnostics["alpha"] = n - 2
            ideal_witness = _codim2_abelian_ideal_qq(L, A)
        applicable = diagnostics["alpha"] == n - 2
        if nilradical_candidate is not None and not (applicable and ideal_witness is None):
            _check_nilradical_candidate(nilradical(L), nilradical_candidate)

    if not applicable:
        return ClassificationVerdict(Case.NOT_APPLICABLE, {}, diagnostics)
    if ideal_witness is not None:
        diagnostics["abelian_ideal_dim"] = ideal_witness.dim
        return ClassificationVerdict(
            Case.ABELIAN_IDEAL_CODIM_LE2, {"abelian_ideal": ideal_witness}, diagnostics
        )

    lie = is_lie(L)
    rep = series(L)
    CL = center(L)
    IL = squares_ideal(L)
    L2 = _derived_subalgebra(rep)
    diagnostics.update(
        {
            "is_lie": lie,
            "solvable": rep.solvable,
            "nilpotent": rep.nilpotent,
            "derived_dims": rep.derived_dims,
            "lower_central_dims": rep.lower_central_dims,
            "dim_center": CL.dim,
            "dim_squares": IL.dim,
            "dim_derived_subalgebra": L2.dim,
        }
    )

    case, witness = Case.CASE2_D, _match_case2(L, lie, rep, CL, L2)
    if witness is None:
        case, witness = Case.CASE1_C, _match_case1(L, lie, rep, CL, L2)
    if witness is None:
        N, frame_n = _case3_nilradical(L)
    elif "frame" in witness:
        # the matched frame proves Nil(L) (`_match_case1`, `_match_case2`)
        N = _proved_nilradical(L, subspace_sum(L2, CL) if case is Case.CASE1_C else CL)
    else:
        N = nilradical(L)
    _check_nilradical_candidate(N, nilradical_candidate)
    diagnostics["dim_nilradical"] = N.dim
    if witness is None:
        case, witness = Case.CASE3_E, _match_case3(L, N, frame_n)

    if witness is not None:
        if "abelian_ideal" in witness:
            case = Case.ABELIAN_IDEAL_CODIM_LE2
            diagnostics["abelian_ideal_dim"] = witness["abelian_ideal"].dim
        else:
            diagnostics["chi"] = witness["chi"]
        return ClassificationVerdict(case, witness, diagnostics)

    if not F.is_prime_field:
        raise ValueError(
            "no branch matched; over the rationals alpha = n-2 is assumed, "
            "not checked, so the algebra may not satisfy it"
        )
    raise ConsistencyError(
        "alpha = n-2 but no classification branch matched; "
        "this contradicts the classification theorem"
    )


def solvability_from_codim2_ideal(
    L: AlgebraTable, witness: Subspace | None = None, budget: int = DEFAULT_SCAN_BUDGET
) -> bool:
    """Confirm solvability with derived length <= 3 for an algebra possessing
    an abelian ideal of codimension <= 2 (witness supplied or, over GF(p),
    found by the strata driver `search._first_in_strata` in the
    abelian-ideal strata n, n-1 and n-2, top down, each decided by the
    rank bound or by the candidates between the center and the trace
    kernel, in one request that debits what a walk of them would count).  A
    negative budget is a ValueError, with or without a witness."""
    require_leibniz(L)
    if witness is not None:
        if witness.codim > 2 or not is_abelian_subspace(L, witness) or not is_ideal(L, witness):
            raise ValueError("witness is not an abelian ideal of codimension <= 2")
    elif not L.field.is_prime_field:
        raise ValueError("supply a witness over the rationals")
    with _request(budget):
        if witness is None:
            n = L.dim
            witness = _first_in_strata(L, range(n, max(n - 3, -1), -1), ideal=True)[1]
            if witness is None:
                raise NoAbelianIdealError("no abelian ideal of codimension <= 2 exists")
    rep = series(L)
    return rep.derived_length is not None and rep.derived_length <= 3


# ---------------------------------------------------------------------------
# full re-derivation of the theorem's claims


class ClaimCheck(NamedTuple):
    name: str
    status: str  # "pass" | "fail" | "n/a"
    detail: str = ""


class TheoremReport(NamedTuple):
    algebra: str
    alpha: int
    case: Case | None
    claims: list

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.claims)


def _claim(claims: list, name: str, holds: bool, detail: str = "") -> None:
    claims.append(ClaimCheck(name, "pass" if holds else "fail", detail))


def verify_main_theorem(L: AlgebraTable, budget: int = DEFAULT_SCAN_BUDGET) -> TheoremReport:
    """Check every claim of the branch `classify` matched, from its answer.

    Outside AbelianIdealCodimLe2, `classify` found alpha = n-2 and, by an
    exhaustive search, no abelian ideal of dimension n-2.  Lemma: let Z be an
    abelian ideal of dimension n-3 that centralizes every abelian ideal;
    then beta = n-3 and Z is the only abelian ideal of that dimension, as
    for an abelian ideal I, I + Z is an abelian ideal of dimension <= n-3,
    so I lies in Z.  Z is C(L) for Case1_c and Case2_d, and C(N) for
    Case3_e once N is shown to be Nil(L), which holds every abelian ideal,
    these being nilpotent ideals.  N is shown to be Nil(L) by comparison
    with the nilradical that `classify` cached on L, a nilpotent ideal:
    the trace kernel that its Heisenberg frame proved to be Nil(L)
    (`_case3_nilradical`), or else the certificate's; of codimension 1, it
    also shows L not nilpotent.  That Z has dimension n-3, is an ideal and
    is abelian is checked; if not, the claims the lemma gives fail.
    Case2_d's L / C(L) = Q is 3-dim simple iff [L, L] + C(L) = L, i.e. Q is
    perfect: a quotient of Q by a proper nonzero ideal would be perfect of
    dimension <= 2, so solvable, so 0.  The frame claim is read off the
    answer: each matcher checks its frame with `_is_frame` and raises
    ConsistencyError when the check fails, so a returned frame has passed.
    Lemma: its rows are (a, z, u, w, f..) for Case1_c and (x, u, w, z, f..)
    for Case3_e, and it maps the model's span of rows 1-3, heisenberg, and
    of rows 1..n-1, heisenberg (+) F^(n-4) with center rows 3..n-1, onto
    the span of its own rows.  So L2 (N) is heisenberg (+) F^k if it is
    that span, and then Z = C(N) is the span of rows 3..n-1.  A matched
    verdict's is: its rows are those `_heisenberg_frame` gave the matcher,
    a basis of L2 (N) whose rows from z on span the image of C(T), T its
    table.  Other frames fail the claim, and for Case3_e the lemma's too.

    Only the `classify` call scans: `budget` bounds the subspaces it scans."""
    require_leibniz(L)
    if not L.field.is_prime_field:
        raise ValueError("full verification requires a prime field")
    F = L.field
    n = L.dim
    label = L.name or ("dim-%d algebra" % n)
    verdict = classify(L, budget=budget)
    alpha_ = verdict.diagnostics["alpha"]
    claims: list = []
    if verdict.case is Case.NOT_APPLICABLE:
        detail = "alpha = %d, classification does not apply" % alpha_
        claims.append(ClaimCheck("alpha = n-2 hypothesis", "n/a", detail))
        return TheoremReport(label, alpha_, None, claims)

    rep = series(L)
    CL = center(L)

    if verdict.case is Case.ABELIAN_IDEAL_CODIM_LE2:
        W = verdict.witness["abelian_ideal"]
        holds = is_abelian_subspace(L, W) and is_ideal(L, W)
        _claim(claims, "witness is an abelian ideal", holds)
        _claim(claims, "witness codimension <= 2", W.codim <= 2, "codim %d" % W.codim)
        _claim(claims, "solvable", rep.solvable)
        _claim(
            claims,
            "derived length <= 3",
            rep.derived_length is not None and rep.derived_length <= 3,
            "derived length %s" % (rep.derived_length,),
        )
    else:
        rows = verdict.witness["frame"].data
        N = verdict.witness.get("nilradical")  # Case3_e only
        if N is None:
            Z, is_nilradical, spans_n = CL, True, True
        else:
            spans_n = N.dim == n - 1 and N == Subspace.from_vectors(F, n, rows[1:])
            Z = Subspace.from_vectors(F, n, rows[3:])
            is_nilradical = N.dim == n - 1 and N == nilradical(L)
        abelian_ideal = is_abelian_subspace(L, Z) and is_ideal(L, Z)
        lemma = is_nilradical and spans_n and Z.dim == n - 3 and abelian_ideal
        unproved = "lemma does not apply"
        _claim(claims, "beta = n-3", lemma, "beta = %d" % (n - 3) if lemma else unproved)
        _claim(
            claims, "unique abelian ideal of maximal dimension", lemma, "1 found" if lemma else unproved
        )
        # checked by the matcher that returned it
        _claim(claims, "frame transports the table onto the model", True)
        if verdict.case is Case.CASE1_C:
            _claim(claims, "Lie", is_lie(L))
            _claim(claims, "3-step solvable", rep.derived_length == 3)
            L2 = _derived_subalgebra(rep)
            _claim(claims, "derived subalgebra has dimension 3", L2.dim == 3)
            heisenberg_l2 = L2.dim == 3 and L2 == Subspace.from_vectors(F, n, rows[1:4])
            _claim(claims, "derived subalgebra is a heisenberg algebra", heisenberg_l2)
            _claim(claims, "center has dimension n-3", CL.dim == n - 3)
            _claim(claims, "the maximal abelian ideal is the center", lemma)
            _claim(
                claims,
                "chi is irreducible",
                is_irreducible_quadratic(verdict.chi, F),
                repr(verdict.chi),
            )
        elif verdict.case is Case.CASE2_D:
            _claim(claims, "Lie", is_lie(L))
            _claim(claims, "not solvable", not rep.solvable)
            _claim(claims, "center has dimension n-3", CL.dim == n - 3)
            _claim(claims, "the maximal abelian ideal is the center", lemma)
            perfect = subspace_sum(_derived_subalgebra(rep), CL).dim == n
            _claim(claims, "quotient by the center is 3-dim simple", CL.dim == n - 3 and perfect)
        else:
            _claim(claims, "3-step solvable", rep.derived_length == 3)
            _claim(claims, "nilradical has codimension 1", N.dim == n - 1)
            _claim(
                claims,
                "nilradical is a nilpotent ideal of codimension 1 in a non-nilpotent algebra",
                is_nilradical,
            )
            _claim(claims, "nilradical is heisenberg (+) F^(n-4)", spans_n)
            _claim(claims, "the maximal abelian ideal is the nilradical's center", lemma)
            _claim(
                claims,
                "induced action on nilradical / center is irreducible",
                is_irreducible_quadratic(verdict.chi, F),
                repr(verdict.chi),
            )

    # no field this package supports is quadratically closed
    claims.append(
        ClaimCheck(
            "quadratically-closed corollary",
            "n/a",
            "field admits irreducible quadratics",
        )
    )
    return TheoremReport(label, alpha_, verdict.case, claims)
