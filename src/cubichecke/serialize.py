"""Canonical JSON forms for every value the library exchanges.

The encoding is deterministic: rationals render as "p" or "p/q" strings,
cyclotomic elements as their four coefficients, polynomial terms sort in the
canonical term order, and objects serialize with sorted keys and no
whitespace, so identical inputs always produce byte-identical reports.
"""

from __future__ import annotations

import hashlib
import json
from .catalog import ModuleLabel, Path
from .cyclotomic import Cyclotomic
from .laurent import LaurentPoly
from .matrix import Matrix
from .ratfunc import RatFunc

SCHEMA_VERSION = 1


def cyc_to_json(c: Cyclotomic) -> list:
    return c.coeff_strs()


def cyc_from_json(data) -> Cyclotomic:
    """Parse four "p" or "p/q" strings; any other shape raises ValueError."""
    if not (isinstance(data, list) and len(data) == 4 and all(isinstance(x, str) for x in data)):
        raise ValueError("a coefficient must be a list of four strings, got %r" % (data,))
    try:
        return Cyclotomic(*data)
    except ZeroDivisionError:
        raise ValueError("zero denominator in coefficient %r" % (data,)) from None


def poly_to_json(p: LaurentPoly) -> list:
    return [[list(e), cyc_to_json(c)] for e, c in p.sorted_terms()]


def poly_from_json(data) -> LaurentPoly:
    if not isinstance(data, list):
        raise ValueError("a polynomial must be a list of terms, got %r" % (data,))
    terms = {}
    for term in data:
        if not (isinstance(term, list) and len(term) == 2):
            raise ValueError("a term must be an [exponent, coefficient] pair, got %r" % (term,))
        e, c = term
        # type(x) is int also rejects bool
        if not (isinstance(e, list) and len(e) == 3 and all(type(x) is int for x in e)):
            raise ValueError("an exponent must be a list of three ints, got %r" % (e,))
        coeff = cyc_from_json(c)
        if coeff.is_zero():
            raise ValueError("zero coefficient in polynomial term %s" % (list(e),))
        terms[tuple(e)] = coeff
    return LaurentPoly(terms)


def ratfunc_to_json(f: RatFunc) -> dict:
    r = f.reduce()
    return {"num": poly_to_json(r.num), "den": poly_to_json(r.den)}


def ratfunc_from_json(data) -> RatFunc:
    if not isinstance(data, dict):
        raise ValueError("a rational function must be an object, got %r" % (data,))
    den = poly_from_json(data["den"])
    if den.is_zero():
        raise ValueError("empty denominator in a rational function")
    return RatFunc(poly_from_json(data["num"]), den)


def matrix_to_json(m: Matrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[ratfunc_to_json(a) for a in row] for row in m.entries],
    }


def matrix_from_json(data, n: int) -> Matrix:
    """Parse an n x n matrix; any other shape raises ValueError."""
    rows = data.get("entries") if isinstance(data, dict) else None
    if not (isinstance(rows, list) and len(rows) == n
            and all(isinstance(r, list) and len(r) == n for r in rows)):
        raise ValueError('a matrix needs "entries": %d rows of %d entries each' % (n, n))
    return Matrix([[ratfunc_from_json(a) for a in row] for row in rows])


def label_to_json(label: ModuleLabel) -> dict:
    out = {"level": label.level, "exps": list(label.exps), "name": label.name}
    if label.theta:
        out["theta"] = label.theta
    return out


def path_to_json(path: Path) -> list:
    return [path.g2.name, path.g3.name, path.g4.name]


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def input_digest(payload) -> str:
    return hashlib.sha256(canonical_dumps(payload).encode()).hexdigest()[:16]


def envelope(command: list, result, markdown: str = "") -> dict:
    """The report wrapper every CLI command emits."""
    from . import __version__

    out = {
        "schema": SCHEMA_VERSION,
        "version": __version__,
        "command": command,
        "input_digest": input_digest(command),
        "result": result,
    }
    if markdown:
        out["markdown"] = markdown
    return out
