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
complement generator, so diagnostics are identical across basis changes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

from .algebra import (
    AlgebraTable,
    _bracket,
    _is_frame,
    center,
    direct_sum,
    is_abelian_subspace,
    is_ideal,
    is_lie,
    is_subalgebra,
    product_space,
    quotient,
    require_leibniz,
    squares_ideal,
    subalgebra_table,
)
from .errors import ConsistencyError, FamilyParameterError, NoAbelianIdealError
from .families import abelian_algebra, heisenberg_plus_abelian, make_c, make_d, make_e
from .fields import FieldSpec
from .invariants import SeriesReport, _is_nilpotent_subalgebra, nilradical, series
from .linalg import (
    Matrix,
    QuadraticPoly,
    Subspace,
    char_poly_2x2,
    enumerate_subspaces,
    is_irreducible_quadratic,
    subspace_intersect,
    subspace_sum,
)
from .search import DEFAULT_SCAN_BUDGET, _first_hit, _request, _scan_dim, alpha
from ._kernel import MODE_ABELIAN, MODE_IDEAL


class Case(Enum):
    ABELIAN_IDEAL_CODIM_LE2 = "AbelianIdealCodimLe2"
    CASE1_C = "Case1_c"
    CASE2_D = "Case2_d"
    CASE3_E = "Case3_e"
    NOT_APPLICABLE = "NotApplicable"


@dataclass
class ClassificationVerdict:
    case: Case
    witness: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    @property
    def chi(self) -> QuadraticPoly | None:
        return self.witness.get("chi")


# ---------------------------------------------------------------------------
# canonical quadratic diagnostics


def _squarefree_part(n: int) -> int:
    out = 1
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e % 2:
            out *= d
        d += 1
    return out * n


def canonical_quadratic(F: FieldSpec, q: QuadraticPoly) -> QuadraticPoly:
    """Least representative of q under (c1, c0) -> (s*c1, s^2*c0), s nonzero.

    This rescaling is exactly the effect of replacing the extracted generator
    by a scalar multiple, so the canonical form is a basis-free diagnostic.
    """
    if F.is_prime_field:
        best = None
        for s in range(1, F.p):
            cand = (F.mul(F.of(s), q.c1), F.mul(F.of(s * s), q.c0))
            if best is None or cand < best:
                best = cand
        return QuadraticPoly(*best)
    c1, c0 = q.c1, q.c0
    if c1 != 0:
        s = F.inv(c1)
        return QuadraticPoly(F.one, F.mul(F.mul(s, s), c0))
    if c0 == 0:
        return QuadraticPoly(F.zero, F.zero)
    sign = 1 if c0 > 0 else -1
    sf = _squarefree_part(abs(c0.numerator) * abs(c0.denominator))
    return QuadraticPoly(F.zero, F.of(sign * sf))


def _quadratic_root(F: FieldSpec, q: QuadraticPoly):
    """A root in F of a reducible monic quadratic."""
    if F.is_prime_field:
        return next(t for t in F.elements() if q.evaluate(F, t) == F.zero)
    d = q.discriminant(F)
    s = F.of(math.isqrt(d.numerator)) / math.isqrt(d.denominator)
    return (s - q.c1) / 2


# ---------------------------------------------------------------------------
# case matchers: each tests its case's structure and, when it holds, returns
# the frame; None means the case does not apply, and {"abelian_ideal": W}
# that the structure yields an abelian ideal of codimension 2 (Case1_c or
# Case3_e with a reducible action).  All take (L, is_lie(L), series(L), the
# center CL, L2 = [L, L], the nilradical N).


def _heisenberg_frame(L: AlgebraTable, W: Subspace) -> list[tuple] | None:
    """Ambient rows (u, w, z, f_1, ..) putting the subalgebra W in the standard
    heisenberg (+) F^k form: [u, w] = z with z and the f's central in W.

    None when W is not heisenberg (+) F^(dim-3), tested structurally: Lie,
    with a derived space of dimension 1 inside a center of dimension dim-2
    (which makes it nilpotent of class <= 2)."""
    m = W.dim
    if m < 3:
        return None
    T = subalgebra_table(L, W)
    if not is_lie(T):
        return None
    T2 = product_space(T, T.full_space(), T.full_space())
    CT = center(T)
    if T2.dim != 1 or CT.dim != m - 2 or not CT.contains(T2):
        return None
    F = L.field
    z_t = T2.basis.data[0]
    zspan = Subspace.from_vectors(F, m, [z_t])
    fs_t = _extend_line(zspan, CT)
    for r in range(m):
        for s in range(m):
            if r == s:
                continue
            q = _bracket(T, T.basis_vector(r), T.basis_vector(s))
            coords = zspan.coordinates(q)
            if coords is None or coords[0] == F.zero:
                continue
            u_t = T.basis_vector(r)
            w_t = tuple(F.mul(F.inv(coords[0]), x) for x in T.basis_vector(s))
            rows_t = [u_t, w_t, z_t] + fs_t
            if Subspace.from_vectors(F, m, rows_t).dim != m:
                continue
            if not _is_frame(T, Matrix(F, rows_t), heisenberg_plus_abelian(m - 3, F)):
                raise ConsistencyError("heisenberg frame does not reproduce the model table")
            return [W.basis.apply_row(row) for row in rows_t]
    raise ConsistencyError("no heisenberg frame found in the given subalgebra")


def _extend_line(line: Subspace, C: Subspace) -> list[tuple]:
    """Basis rows of C that, taken greedily, extend the line to a basis of
    line + C."""
    F = C.field
    out = []
    for row in C.basis.data:
        if not line.contains_vector(row):
            out.append(row)
            line = subspace_sum(line, Subspace.from_vectors(F, C.ambient_dim, [row]))
    return out


def _coords_in_rows(F: FieldSpec, rows: list[tuple], v) -> tuple:
    sol = Matrix(F, rows).solve_row(v)
    if sol is None:
        raise ConsistencyError("vector left its expected span during extraction")
    return sol


def _least_index_outside(L: AlgebraTable, S: Subspace) -> int:
    for i in range(L.dim):
        if not S.contains_vector(L.basis_vector(i)):
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


def _match_case1(L: AlgebraTable, lie, rep, CL, L2, N) -> dict | None:
    """Case1_c: solvable Lie of derived length 3, L2 = [L, L] a 3-dim
    heisenberg algebra, center of dimension n-3.  Frame (a, z, u, w, f..)
    matching  c(m) (+) F^(n-4);  m read off the action of the complement
    generator on span(u, w), and chi = det(t - m) irreducible.  A reducible
    chi returns {"abelian_ideal": W} instead: the center plus an eigenline
    of m, an abelian ideal of codimension 2."""
    F = L.field
    n = L.dim
    if not (lie and rep.solvable and rep.derived_length == 3):
        return None
    if L2.dim != 3 or CL.dim != n - 3:
        return None
    frame_h = _heisenberg_frame(L, L2)
    if frame_h is None:
        return None
    u, w, z = frame_h
    fs = _extend_line(Subspace.from_vectors(F, n, [z]), CL)
    a0 = L.basis_vector(_least_index_outside(L, subspace_sum(CL, L2)))
    # strip the z-component of the action by absorbing it into the generator
    rows_uvz = [u, w, z]
    cu = _coords_in_rows(F, rows_uvz, _bracket(L, a0, u))[2]
    cw = _coords_in_rows(F, rows_uvz, _bracket(L, a0, w))[2]
    a = tuple(
        F.add(x, F.sub(F.mul(cu, ww), F.mul(cw, uu)))
        for x, uu, ww in zip(a0, u, w)
    )
    au = _coords_in_rows(F, rows_uvz, _bracket(L, a, u))
    aw = _coords_in_rows(F, rows_uvz, _bracket(L, a, w))
    if au[2] != F.zero or aw[2] != F.zero:
        raise ConsistencyError("central component survived generator adjustment")
    m = Matrix(F, [[au[0], au[1]], [aw[0], aw[1]]])
    if not is_irreducible_quadratic(char_poly_2x2(m), F):
        return {"abelian_ideal": _eigenline_ideal(L, CL, m, u, w)}
    model = make_c(m, F)
    if n > 4:
        model = direct_sum(model, abelian_algebra(n - 4, F))
    frame = Matrix(F, [a, z, u, w] + fs)
    if not _is_frame(L, frame, model):
        raise ConsistencyError("case-1 frame does not transport the table onto the model")
    chi = canonical_quadratic(F, char_poly_2x2(m))
    return {"chi": chi, "m": m, "frame": frame, "model": model}


def _simple_3dim_subspaces(T: AlgebraTable):
    """Candidate 2-dim subspaces of a 3-dim algebra, each yielded once.
    Over prime fields: every plane, in canonical order.  Over the rationals,
    a heuristic set: the planes spanned by two of e_i, e_i + e_j and
    e_i - e_j (i != j), in the order of the first pair spanning each, a
    plane being known by its primitive integer normal vector."""
    F = T.field
    if F.is_prime_field:
        yield from enumerate_subspaces(3, 2, F)
        return
    vs = [tuple(int(i == j) for j in range(3)) for i in range(3)]
    combos = list(vs)
    for i in range(3):
        for j in range(3):
            if i != j:
                combos.append(tuple(a + b for a, b in zip(vs[i], vs[j])))
                combos.append(tuple(a - b for a, b in zip(vs[i], vs[j])))
    seen = set()
    for (a1, a2, a3), (b1, b2, b3) in itertools.combinations(combos, 2):
        normal = (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)
        g = math.gcd(*normal)
        if not g:
            continue  # a pair spanning a line
        lead = next(x for x in normal if x)
        normal = tuple(x // g if lead > 0 else -x // g for x in normal)
        if normal not in seen:
            seen.add(normal)
            yield Subspace.from_vectors(F, 3, [(a1, a2, a3), (b1, b2, b3)])


def _match_case2(L: AlgebraTable, lie, rep, CL, L2, N) -> dict | None:
    """Case2_d: Lie, not solvable, center of dimension n-3 with a 3-dim
    simple quotient.  Frame (h, u, w, f..) matching  d(m) (+) F^(n-3),
    extracted from L2 = [L, L], which is the 3-dimensional simple part.

    A simple algebra can contain standard triples with non-conjugate action
    matrices (over a finite field every 3-dim simple Lie algebra is split, so
    both reducible and irreducible triples occur).  Each candidate plane
    span(u, w) is checked once, with u, w its RREF basis rows and h = [u, w],
    and the first plane in candidate order whose triple has the least
    canonical polynomial is reported.  Over GF(p) that least key is (0, 1),
    t^2 + 1, and the search stops at the first plane reaching it: tr m = 0
    by the Jacobi identity and [h, h] = 0; det m != 0, as a singular m would
    give h a 2-dim centralizer, which a 3-dim simple algebra has none of;
    and the split simple algebra contains d(rot)'s triple, of key (0, 1)
    (Jacobson, Lie Algebras, 1962, ch. I).  A key below (0, 1) raises
    ConsistencyError."""
    F = L.field
    n = L.dim
    if not lie or rep.solvable or CL.dim != n - 3:
        return None
    # L / CL is 3-dim; it is simple iff it equals its derived algebra, the
    # image of L2, i.e. iff L2 + CL = L
    if subspace_sum(L2, CL).dim != n:
        return None
    if L2.dim != 3 or not subspace_intersect(L2, CL).is_zero():
        raise ConsistencyError("derived subalgebra is not a 3-dim complement of the center")
    T = subalgebra_table(L, L2)
    least = (F.zero, F.one) if F.is_prime_field else None
    best = None
    for V in _simple_3dim_subspaces(T):
        u_t, w_t = V.basis.data
        h_t = _bracket(T, u_t, w_t)
        if V.contains_vector(h_t):
            continue
        hu = V.coordinates(_bracket(T, h_t, u_t))
        hw = V.coordinates(_bracket(T, h_t, w_t))
        if hu is None or hw is None:
            continue
        m = Matrix(F, [hu, hw])
        chi = canonical_quadratic(F, char_poly_2x2(m))
        key = (chi.c1, chi.c0)
        if least is not None and key < least:
            raise ConsistencyError("a standard triple of the simple part acts singularly")
        if best is None or key < best[0]:
            best = (key, chi, m, h_t, u_t, w_t)
            if key == least:
                break
    if best is None:
        raise ConsistencyError("no standard triple found in the simple part")
    _, chi, m, h_t, u_t, w_t = best
    try:
        model = make_d(m, F)
    except FamilyParameterError as exc:
        raise ConsistencyError("extracted action matrix has nonzero trace") from exc
    if n > 3:
        model = direct_sum(model, abelian_algebra(n - 3, F))
    frame_rows = [L2.basis.apply_row(t) for t in (h_t, u_t, w_t)]
    frame_rows += list(CL.basis.data)
    frame = Matrix(F, frame_rows)
    if not _is_frame(L, frame, model):
        raise ConsistencyError("case-2 frame does not transport the table onto the model")
    return {"chi": chi, "m": m, "frame": frame, "model": model}


def _match_case3(L: AlgebraTable, lie, rep, CL, L2, N) -> dict | None:
    """Case3_e: solvable, nilradical N of codimension 1 isomorphic to
    heisenberg (+) F^(n-4), and the outside generator x acting irreducibly on
    N / C(N).  Frame (x, u, w, z, f..) matching  e(phi, theta, v, n).  A
    reducible action returns {"abelian_ideal": W} instead: C(N) plus an
    eigenline of the action, an abelian ideal of codimension 2."""
    F = L.field
    n = L.dim
    if not rep.solvable or N.dim != n - 1:
        return None
    frame_amb = _heisenberg_frame(L, N)
    if frame_amb is None:
        return None
    x = L.basis_vector(_least_index_outside(L, N))

    def h_coords(vec) -> tuple:
        return _coords_in_rows(F, frame_amb, vec)

    phi = Matrix(F, [h_coords(_bracket(L, x, b)) for b in frame_amb]).transpose()
    # the induced action on N / C(N) is the (u, w) block of phi
    star = Matrix(F, [phi.data[0][:2], phi.data[1][:2]])
    if not is_irreducible_quadratic(char_poly_2x2(star), F):
        # z and the f's span the center of N
        CN = Subspace.from_vectors(F, n, frame_amb[2:])
        u, w = frame_amb[:2]
        return {"abelian_ideal": _eigenline_ideal(L, CN, star.transpose(), u, w)}
    theta = Matrix(F, [h_coords(_bracket(L, b, x)) for b in frame_amb]).transpose()
    v = h_coords(_bracket(L, x, x))
    try:
        model = make_e(phi, theta, v, n, F)
    except FamilyParameterError as exc:
        raise ConsistencyError(
            "extracted extension data rejected by the family constructor"
        ) from exc
    frame = Matrix(F, [x] + frame_amb)
    if not _is_frame(L, frame, model):
        raise ConsistencyError("case-3 frame does not transport the table onto the model")
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


# checked in this order: the families overlap (see the module docstring)
_MATCHERS = (
    (Case.CASE2_D, _match_case2),
    (Case.CASE1_C, _match_case1),
    (Case.CASE3_E, _match_case3),
)


# ---------------------------------------------------------------------------
# classification


def _codim2_abelian_ideal_qq(L: AlgebraTable, A: Subspace) -> Subspace | None:
    """The first of A and center(L) + [L, L] that is an abelian ideal of
    codimension <= 2, or None.  The matchers find the abelian ideals these
    miss (Case1_c and Case3_e with a reducible action)."""
    candidates = (A, subspace_sum(center(L), _derived_subalgebra(series(L))))
    return next(
        (U for U in candidates if U.codim <= 2 and is_abelian_subspace(L, U) and is_ideal(L, U)),
        None,
    )


def _derived_subalgebra(rep: SeriesReport) -> Subspace:
    """[L, L] from the series of L; a perfect algebra's derived chain stops
    at L."""
    return rep.derived_chain[1] if len(rep.derived_chain) > 1 else rep.derived_chain[0]


def classify(
    L: AlgebraTable,
    A: Subspace | None = None,
    nilradical_candidate: Subspace | None = None,
    budget: int = DEFAULT_SCAN_BUDGET,
) -> ClassificationVerdict:
    """Classify an algebra whose maximal abelian subalgebra has codimension 2.

    Over a prime field everything is searched exhaustively, in one request
    whose `budget` bounds the subspaces scanned: alpha, then, when alpha =
    n-2, the abelian ideals of dimension n-2 (strata n and n-1 hold no
    abelian subalgebra), then the nilradical (no scan when a trace form
    certifies it).  Over the rationals a codimension-2 abelian subalgebra
    witness A is required and alpha = n-2 is assumed, not checked; an
    abelian ideal is looked for among A and center(L) + [L, L], then the
    exact nilradical (`invariants.nilradical`) and the matchers decide, and
    every reported structure is checked.  A supplied nilradical candidate
    is checked once, whatever the verdict: it must equal the exact
    nilradical, or ValueError is raised.  A negative budget is a ValueError
    over either field.
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
        if not is_abelian_subspace(L, A) or not is_subalgebra(L, A):
            raise ValueError("witness is not an abelian subalgebra")
    elif not F.is_prime_field:
        raise ValueError("over the rationals an abelian codimension-2 witness is required")

    with _request(budget):
        # a trusted hypothesis over the rationals
        diagnostics["alpha"] = alpha(L).alpha if F.is_prime_field else n - 2
        applicable = diagnostics["alpha"] == n - 2
        if not applicable:
            ideal_witness = None
        elif F.is_prime_field:
            # alpha = n-2: strata n and n-1 hold no abelian subalgebra
            ideal_witness = _first_hit(L, (n - 2,), MODE_ABELIAN | MODE_IDEAL)[1]
        else:
            ideal_witness = _codim2_abelian_ideal_qq(L, A)
        if nilradical_candidate is not None or (applicable and ideal_witness is None):
            N = nilradical(L)
            if nilradical_candidate not in (None, N):
                raise ValueError("supplied nilradical candidate is not the nilradical")

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

    diagnostics["dim_nilradical"] = N.dim

    for case, match in _MATCHERS:
        witness = match(L, lie, rep, CL, L2, N)
        if witness is None:
            continue
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
    an abelian ideal of codimension <= 2 (witness supplied or found by
    scanning strata n, n-1 and n-2 in one request).  A negative budget is a
    ValueError, with or without a witness."""
    require_leibniz(L)
    if witness is not None:
        if witness.codim > 2 or not is_abelian_subspace(L, witness) or not is_ideal(L, witness):
            raise ValueError("witness is not an abelian ideal of codimension <= 2")
    elif not L.field.is_prime_field:
        raise ValueError("supply a witness over the rationals")
    with _request(budget):
        if witness is None:
            n = L.dim
            witness = _first_hit(L, range(n, max(n - 3, -1), -1), MODE_ABELIAN | MODE_IDEAL)[1]
            if witness is None:
                raise NoAbelianIdealError("no abelian ideal of codimension <= 2 exists")
    rep = series(L)
    return rep.solvable and rep.derived_length is not None and rep.derived_length <= 3


# ---------------------------------------------------------------------------
# full re-derivation of the theorem's claims


@dataclass(frozen=True)
class ClaimCheck:
    name: str
    status: str  # "pass" | "fail" | "n/a"
    detail: str = ""


@dataclass
class TheoremReport:
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

    Outside AbelianIdealCodimLe2, `classify` found alpha = n-2, so strata n
    and n-1 hold no abelian subalgebra, and its exhaustive scan of stratum
    n-2 found no abelian ideal; so one collect-all scan of stratum n-3
    settles beta = n-3 and the uniqueness of the maximal abelian ideal.  The
    Heisenberg claims are decided by `_heisenberg_frame`, whose conditions
    are isomorphism invariants that characterize heisenberg (+) F^k.
    Case3_e's nilradical is checked without a scan: a nilpotent ideal of
    codimension 1 in a non-nilpotent algebra is the nilradical.

    The call is one request: `budget` bounds the subspaces scanned, debited
    in order by `classify`, stratum n-3, then the quotient's ideal scan
    (Case2_d)."""
    require_leibniz(L)
    if not L.field.is_prime_field:
        raise ValueError("full verification requires a prime field")
    F = L.field
    n = L.dim
    label = L.name or ("dim-%d algebra" % n)
    with _request(budget):
        verdict = classify(L)
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
            _, maximal = _scan_dim(L, n - 3, MODE_ABELIAN | MODE_IDEAL, -1)
            detail = "beta = %d" % (n - 3) if maximal else "beta < n-3"
            _claim(claims, "beta = n-3", bool(maximal), detail)
            _claim(
                claims,
                "unique abelian ideal of maximal dimension",
                len(maximal) == 1,
                "%d found" % len(maximal),
            )
            model = verdict.witness["model"]
            frame = verdict.witness["frame"]
            _claim(
                claims,
                "frame transports the table onto the model",
                _is_frame(L, frame, model),
            )
            if verdict.case is Case.CASE1_C:
                _claim(claims, "Lie", is_lie(L))
                _claim(claims, "3-step solvable", rep.solvable and rep.derived_length == 3)
                L2 = _derived_subalgebra(rep)
                _claim(claims, "derived subalgebra has dimension 3", L2.dim == 3)
                _claim(
                    claims,
                    "derived subalgebra is a heisenberg algebra",
                    L2.dim == 3 and _heisenberg_frame(L, L2) is not None,
                )
                _claim(claims, "center has dimension n-3", CL.dim == n - 3)
                if maximal:
                    _claim(claims, "the maximal abelian ideal is the center", maximal[0] == CL)
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
                if maximal:
                    _claim(claims, "the maximal abelian ideal is the center", maximal[0] == CL)
                Q, _ = quotient(L, CL)
                no_proper = _first_hit(Q, (2, 1), MODE_IDEAL)[1] is None
                _claim(claims, "quotient by the center is 3-dim simple", Q.dim == 3 and no_proper)
            else:
                _claim(claims, "3-step solvable", rep.solvable and rep.derived_length == 3)
                N = verdict.witness["nilradical"]
                _claim(claims, "nilradical has codimension 1", N.dim == n - 1)
                # a nilpotent ideal of codimension 1 in a non-nilpotent L is
                # Nil(L): Nil(L) contains it and is not L
                _claim(
                    claims,
                    "nilradical matches the scan",
                    N.dim == n - 1
                    and not rep.nilpotent
                    and is_ideal(L, N)
                    and _is_nilpotent_subalgebra(L, N),
                )
                _claim(
                    claims,
                    "nilradical is heisenberg (+) F^(n-4)",
                    N.dim == n - 1 and _heisenberg_frame(L, N) is not None,
                )
                CN_t = center(subalgebra_table(L, N))
                CN = Subspace.from_vectors(F, n, [N.basis.apply_row(r) for r in CN_t.basis.data])
                if maximal:
                    _claim(
                        claims,
                        "the maximal abelian ideal is the nilradical's center",
                        maximal[0] == CN,
                    )
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
