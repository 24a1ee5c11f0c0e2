"""Hand-written reference answers for every undisguised benchmark input.

A disguised input (an input after a basis change) must get the answer of
its undisguised algebra, because every verdict below is an isomorphism
invariant.  Fields per entry:

    case   classification verdict
    alpha  largest dimension of an abelian subalgebra
    beta   largest dimension of an abelian two-sided ideal
    nil    dimension of the nilradical; a request checks it where the
           verdict reports it (Case1_c, Case2_d, Case3_e)
    chi    canonical characteristic polynomial (c1, c0) of t^2 + c1 t + c0,
           None where the verdict carries none, UNCHECKED where it is not
           an invariant
    exit   exit code of `leibalg classify`: 1 for NotApplicable, else 0

Why the values hold, briefly:

* abelian(k): everything is abelian, so alpha = beta = nil = k, and the
  hypothesis alpha = n-2 fails.
* heisenberg (+) F^k: alpha = beta = n-1 (a maximal abelian ideal of the
  Heisenberg part plus F^k); nilpotent, so nil = n; alpha != n-2.
* c(rot), oscillator: t^2 + 1 is irreducible over GF(3) and QQ, so no
  abelian ideal of codimension 2 exists and the algebra is Case1_c with
  beta = n-3 (the center) and nilradical span(z, x, y) (+) F^k.  Over
  GF(5), -1 = 2^2 and the rotation splits into two eigenlines, each giving
  an abelian ideal of codimension 2.
* d(rot) (+) F^k: not solvable; its nilradical is the center F^k and
  beta = k.  Over QQ the chi of Case2_d is UNCHECKED: the classifier picks
  it from a heuristic set of standard triples over the rationals, and the
  pick depends on the basis (t^2 + 1 undisguised, t^2 + 89 or t^2 + 41
  after some rational basis changes).
* rotation extension (+) F^k: the same dichotomy as c(rot) for the action
  on span(e1, e2), with Case3_e and a nilradical of codimension 1.
* a(...) and b(...): families with an abelian ideal span(x, y) of
  codimension 2, except a(0,0), which is abelian of dimension 4.

The GF(p) values were also confirmed with the exhaustive oracles
(`alpha_beta`, `nilradical`, `classify`) on the undisguised algebras.
"""

from __future__ import annotations

from typing import NamedTuple


class Ref(NamedTuple):
    case: str
    alpha: int
    beta: int
    nil: int
    chi: tuple | str | None
    exit: int


IDEAL = "AbelianIdealCodimLe2"
NA = "NotApplicable"
ROT = (0, 1)  # t^2 + 1
UNCHECKED = "unchecked"


def _ref(case, alpha, beta, nil, chi=None):
    return Ref(case, alpha, beta, nil, chi, 1 if case == NA else 0)


# catalog.standard_fixtures(F) by name: (answer over GF(3), answer over GF(5))
_STANDARD = {
    "abelian(1)": (_ref(NA, 1, 1, 1), _ref(NA, 1, 1, 1)),
    "abelian(3)": (_ref(NA, 3, 3, 3), _ref(NA, 3, 3, 3)),
    "heisenberg": (_ref(NA, 2, 2, 3), _ref(NA, 2, 2, 3)),
    "heisenberg (+) abelian(1)": (_ref(NA, 3, 3, 4), _ref(NA, 3, 3, 4)),
    "oscillator": (_ref("Case1_c", 2, 1, 3, ROT), _ref(IDEAL, 2, 2, 3)),
    "nonideal-codim2-example": (_ref(IDEAL, 2, 2, 3), _ref(IDEAL, 2, 2, 3)),
    "heisenberg-rotation-extension": (_ref("Case3_e", 2, 1, 3, ROT), _ref(IDEAL, 2, 2, 3)),
    "a(id,rot)": (_ref(IDEAL, 2, 2, 2), _ref(IDEAL, 2, 2, 2)),
    "a(id,diag)": (_ref(IDEAL, 2, 2, 2), _ref(IDEAL, 2, 2, 2)),
    "a(id,nilp)": (_ref(IDEAL, 2, 2, 3), _ref(IDEAL, 2, 2, 3)),
    "a(0,0)": (_ref(NA, 4, 4, 4), _ref(NA, 4, 4, 4)),
    "a(id,rot)+F": (_ref(IDEAL, 3, 3, 3), _ref(IDEAL, 3, 3, 3)),
    "b(id,rot)": (_ref(IDEAL, 2, 2, 2), _ref(IDEAL, 2, 2, 2)),
    "b(id,diag)": (_ref(IDEAL, 2, 2, 2), _ref(IDEAL, 2, 2, 2)),
    "b(id,rot)+F": (_ref(IDEAL, 3, 3, 3), _ref(IDEAL, 3, 3, 3)),
    "c(rot)": (_ref("Case1_c", 2, 1, 3, ROT), _ref(IDEAL, 2, 2, 3)),
    "c(diag)": (_ref(IDEAL, 2, 2, 3), _ref(IDEAL, 2, 2, 3)),
    "c(nilp)": (_ref(NA, 3, 3, 4), _ref(NA, 3, 3, 4)),
    "c(0)": (_ref(NA, 3, 3, 4), _ref(NA, 3, 3, 4)),
    "c(rot)+F": (_ref("Case1_c", 3, 2, 4, ROT), _ref(IDEAL, 3, 3, 4)),
    "d(rot)": (_ref("Case2_d", 1, 0, 0, ROT), _ref("Case2_d", 1, 0, 0, ROT)),
    "d(diag)": (_ref("Case2_d", 1, 0, 0, ROT), _ref("Case2_d", 1, 0, 0, ROT)),
    "d(rot)+F": (_ref("Case2_d", 2, 1, 1, ROT), _ref("Case2_d", 2, 1, 1, ROT)),
    "d(rot)+F^2": (_ref("Case2_d", 3, 2, 2, ROT), _ref("Case2_d", 3, 2, 2, ROT)),
    "e(rot,-rot,e0,4)": (_ref("Case3_e", 2, 1, 3, ROT), _ref(IDEAL, 2, 2, 3)),
    "e(rot,-rot,0,4)": (_ref("Case1_c", 2, 1, 3, ROT), _ref(IDEAL, 2, 2, 3)),
    "e(0,0,0,4)": (_ref(NA, 3, 3, 4), _ref(NA, 3, 3, 4)),
}

REFERENCE = {}
for _name, (_gf3, _gf5) in _STANDARD.items():
    REFERENCE[("GF3", _name)] = _gf3
    REFERENCE[("GF5", _name)] = _gf5

REFERENCE.update({
    # fixtures/*.json; the QQ documents have integer constants and are
    # reduced mod p
    ("GF3", "heisenberg_gf3.json"): _ref(NA, 2, 2, 3),
    ("GF3", "nonideal_codim2_gf3.json"): _ref(IDEAL, 2, 2, 3),
    ("GF3", "oscillator_gf3.json"): _ref("Case1_c", 2, 1, 3, ROT),
    ("GF3", "rotation_extension_gf3.json"): _ref("Case3_e", 2, 1, 3, ROT),
    ("GF3", "oscillator_qq.json"): _ref("Case1_c", 2, 1, 3, ROT),
    ("GF5", "oscillator_qq.json"): _ref(IDEAL, 2, 2, 3),
    ("GF3", "pair_action_id_rot_qq.json"): _ref(IDEAL, 2, 2, 2),
    ("GF5", "pair_action_id_rot_qq.json"): _ref(IDEAL, 2, 2, 2),
    # gf-large
    ("GF3", "c(rot)+F^2"): _ref("Case1_c", 4, 3, 5, ROT),
    ("GF3", "d(rot)+F^3"): _ref("Case2_d", 4, 3, 3, ROT),
    ("GF3", "rotext+F^2"): _ref("Case3_e", 4, 3, 5, ROT),
    ("GF3", "rotext+F"): _ref("Case3_e", 3, 2, 4, ROT),
    ("GF5", "d(rot)+F^2"): _ref("Case2_d", 3, 2, 2, ROT),
    # qq-certified: alpha = n-2 and beta = n-3 by the classification
    # theorem (over QQ nothing is enumerated, so neither is measured)
    ("QQ", "rotext"): _ref("Case3_e", 2, 1, 3, ROT),
    ("QQ", "rotext+Q"): _ref("Case3_e", 3, 2, 4, ROT),
    ("QQ", "rotext+Q^2"): _ref("Case3_e", 4, 3, 5, ROT),
    ("QQ", "rotext+Q^3"): _ref("Case3_e", 5, 4, 6, ROT),
    ("QQ", "c(rot)"): _ref("Case1_c", 2, 1, 3, ROT),
    ("QQ", "c(rot)+Q"): _ref("Case1_c", 3, 2, 4, ROT),
    ("QQ", "c(rot)+Q^2"): _ref("Case1_c", 4, 3, 5, ROT),
    ("QQ", "c(rot)+Q^3"): _ref("Case1_c", 5, 4, 6, ROT),
    ("QQ", "d(rot)+Q"): _ref("Case2_d", 2, 1, 1, UNCHECKED),
    ("QQ", "d(rot)+Q^2"): _ref("Case2_d", 3, 2, 2, UNCHECKED),
    ("QQ", "d(rot)+Q^3"): _ref("Case2_d", 4, 3, 3, UNCHECKED),
    ("QQ", "d(rot)+Q^4"): _ref("Case2_d", 5, 4, 4, UNCHECKED),
})
