"""On-disk algebra documents: UTF-8 JSON, human-diffable, round-trip exact.

Schema (format_version 1):

    {
      "format_version": 1,
      "field": {"kind": "rationals"} | {"kind": "gf", "p": <prime>},
      "dim": <n>,
      "table": [ {"i": <i>, "j": <j>, "c": [<scalar>, ...]} , ... ],
      "metadata": {"name": "...", ...}            # optional
    }

Only nonzero product rows are stored, sorted by (i, j).  Scalars are strings
("num" or "num/den") over the rationals and plain integer residues in [0, p)
over GF(p); indices are 0-based.  The bracket convention of the whole package
(left Leibniz rule) applies to the stored products.

Strict parsing rejects unknown fields; lenient parsing downgrades them to
`DocumentWarning`.
"""

from __future__ import annotations

import json
import warnings
from fractions import Fraction

from .algebra import AlgebraTable
from .errors import DocumentError
from .fields import QQ, FieldSpec, is_prime

FORMAT_VERSION = 1
_ENTRY_KEYS = frozenset({"i", "j", "c"})


class DocumentWarning(UserWarning):
    pass


def _fail(msg: str):
    raise DocumentError(msg)


def _parse_field(obj, strict: bool) -> FieldSpec:
    if not isinstance(obj, dict):
        _fail("'field' must be an object")
    kind = obj.get("kind")
    if kind == "rationals":
        _check_keys(obj, {"kind"}, strict, "field")
        return QQ
    if kind == "gf":
        _check_keys(obj, {"kind", "p"}, strict, "field")
        p = obj.get("p")
        if not isinstance(p, int) or isinstance(p, bool):
            _fail("'p' must be an integer")
        try:
            prime = is_prime(p)
        except ValueError as exc:
            _fail(str(exc))
        if not prime:
            _fail("composite modulus %r" % (p,))
        return FieldSpec.prime(p)
    _fail("unknown field kind %r" % (kind,))


def _check_keys(obj: dict, allowed: set, strict: bool, where: str) -> None:
    extra = set(obj) - allowed
    if extra:
        msg = "unknown %s fields: %s" % (where, ", ".join(sorted(extra)))
        if strict:
            _fail(msg)
        warnings.warn(msg, DocumentWarning, stacklevel=3)


def _parse_scalar(x, field: FieldSpec):
    if field.is_prime_field:
        if not isinstance(x, int) or isinstance(x, bool):
            _fail("GF(%d) coefficients must be integers, got %r" % (field.p, x))
        if not 0 <= x < field.p:
            _fail("residue %r out of range [0, %d)" % (x, field.p))
        return x
    if not isinstance(x, str):
        _fail("rational coefficients must be strings, got %r" % (x,))
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError):
        _fail("malformed rational %r" % (x,))


def parse_algebra(text: str, strict: bool = True) -> AlgebraTable:
    """The table of a document.  Entries are checked in document order,
    each for its keys, indices, uniqueness and row, and the first fault
    raises `DocumentError` (or, lenient, warns of unknown keys).

    An entry's keys go to `_check_keys` only when they are not exactly
    "i", "j", "c": it raises or warns on extra keys alone.  Over GF(p) a
    row is checked once, whole: a list of `dim` entries x with
    `type(x) is int` and 0 <= x < p is taken as it stands.  JSON gives
    exact ints and bools, so `type(x) is int` is `_parse_scalar`'s test, an
    int and not a bool.  Any other row, and every row over QQ, is read
    entry by entry by `_parse_scalar`, which raises the message of its
    first bad entry."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError("invalid JSON: %s" % exc) from None
    if not isinstance(doc, dict):
        _fail("document must be a JSON object")
    _check_keys(doc, {"format_version", "field", "dim", "table", "metadata"}, strict, "document")
    if doc.get("format_version") != FORMAT_VERSION:
        _fail("unsupported format_version %r" % (doc.get("format_version"),))
    field = _parse_field(doc.get("field"), strict)
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        _fail("'dim' must be a nonnegative integer")
    table = doc.get("table")
    if not isinstance(table, list):
        _fail("'table' must be a list")
    p = field.p
    products = {}
    for ent in table:
        if not isinstance(ent, dict):
            _fail("table entries must be objects")
        if ent.keys() != _ENTRY_KEYS:
            _check_keys(ent, _ENTRY_KEYS, strict, "table entry")
        i, j, c = ent.get("i"), ent.get("j"), ent.get("c")
        for idx in (i, j):
            if not isinstance(idx, int) or isinstance(idx, bool) or not 0 <= idx < dim:
                _fail("index %r out of range for dim %d" % (idx, dim))
        if (i, j) in products:
            _fail("duplicate table entry for (%d, %d)" % (i, j))
        if not isinstance(c, list) or len(c) != dim:
            _fail("coefficient vector for (%d, %d) must have length %d" % (i, j, dim))
        if p is not None and all(type(x) is int and 0 <= x < p for x in c):
            products[(i, j)] = tuple(c)
        else:
            products[(i, j)] = tuple(_parse_scalar(x, field) for x in c)
    name = None
    meta = doc.get("metadata")
    if meta is not None:
        if not isinstance(meta, dict):
            _fail("'metadata' must be an object")
        name = meta.get("name")
        if name is not None and not isinstance(name, str):
            _fail("'metadata.name' must be a string")
    # every scalar is in canonical form: no second pass
    return AlgebraTable._from_products(field, dim, products, name=name)


def _format_scalar(x, field: FieldSpec):
    if field.is_prime_field:
        return int(x)
    return field.format(x)


def algebra_to_document(L: AlgebraTable) -> dict:
    field_obj = (
        {"kind": "gf", "p": L.field.p} if L.field.is_prime_field else {"kind": "rationals"}
    )
    table = [
        {"i": i, "j": j, "c": [_format_scalar(x, L.field) for x in L.c[i][j]]}
        for i, pi in enumerate(L._products)
        for j, pij in enumerate(pi)
        if pij
    ]
    doc = {
        "format_version": FORMAT_VERSION,
        "field": field_obj,
        "dim": L.dim,
        "table": table,
    }
    if L.name:
        doc["metadata"] = {"name": L.name}
    return doc


def serialize_algebra(L: AlgebraTable) -> str:
    return json.dumps(algebra_to_document(L), indent=2, sort_keys=True) + "\n"
