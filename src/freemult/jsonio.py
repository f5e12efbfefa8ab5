"""JSON encoding of alphabets, systems, functions, and subgroup data.

Complex numbers are plain numbers when real, ``[re, im]`` pairs
otherwise; both forms are accepted on input.  Words are strings for
single-character alphabets and lists of symbols otherwise; as the keys of
a function's values, which must be strings, the symbols of a list-form
word are joined by ``|`` (as in the ``b|a`` keys of transfer matrices).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .changegen import GeneratorMap
from .errors import InputError
from .subgroup import CosetAutomaton, automaton_from_generators
from .system import MatrixSystem
from .multfunc import MultiplicativeFunction
from .words import Alphabet, Word


def _entry_from_json(v: Any) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if (
        isinstance(v, (list, tuple))
        and len(v) == 2
        and all(isinstance(x, (int, float)) for x in v)
    ):
        return complex(v[0], v[1])
    raise InputError(f"matrix entry {v!r} is not a number or [re, im] pair")


def matrix_from_json(rows: Any, what: str = "matrix") -> np.ndarray:
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InputError(f"{what} must be a list of rows")
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise InputError(f"{what} rows have uneven lengths")
    return np.array(
        [[_entry_from_json(v) for v in r] for r in rows], dtype=complex
    ).reshape(len(rows), len(rows[0]) if rows else 0)


def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    if np.all(m.imag == 0):
        return [[float(v.real) for v in row] for row in m]
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def alphabet_from_json(spec: Any) -> Alphabet:
    if isinstance(spec, str):
        return Alphabet(spec)
    if isinstance(spec, list):
        return Alphabet(spec)
    if isinstance(spec, dict):
        letters = spec.get("letters")
        if letters is None:
            raise InputError("alphabet object needs a 'letters' field")
        return Alphabet(letters, spec.get("involution"))
    raise InputError("alphabet must be a string, a list, or an object")


def alphabet_to_json(al: Alphabet) -> Any:
    if all(al.inverse(s) == s.swapcase() for s in al.letters):
        if all(len(s) == 1 for s in al.letters):
            return "".join(al.letters)
        return list(al.letters)
    return {
        "letters": list(al.letters),
        "involution": {s: al.inverse(s) for s in al.letters},
    }


def word_from_json(al: Alphabet, spec: Any) -> Word:
    if isinstance(spec, (str, list)):
        return al.word(spec)
    raise InputError(f"word {spec!r} must be a string or a list of symbols")


def word_to_json(w: Word) -> Any:
    syms = w.letters()
    if all(len(s) == 1 for s in w.alphabet.letters):
        return "".join(syms)
    return list(syms)


def system_from_json(d: Any) -> MatrixSystem:
    if not isinstance(d, dict):
        raise InputError("system must be a JSON object")
    for key in ("alphabet", "dims", "H", "B"):
        if key not in d:
            raise InputError(f"system is missing the {key!r} field")
    al = alphabet_from_json(d["alphabet"])
    dims = d["dims"]
    if not isinstance(dims, dict):
        raise InputError("'dims' must map letters to integers")
    H = {}
    if not isinstance(d["H"], dict):
        raise InputError("'H' must map 'b|a' keys to matrices")
    for key, rows in d["H"].items():
        parts = key.split("|")
        if len(parts) != 2:
            raise InputError(f"transfer key {key!r} is not of the form 'b|a'")
        b, a = parts
        if a not in al or b not in al:
            raise InputError(f"transfer key {key!r} uses unknown letters")
        H[(b, a)] = matrix_from_json(rows, f"H[{key}]")
    if not isinstance(d["B"], dict):
        raise InputError("'B' must map letters to matrices")
    B = {a: matrix_from_json(rows, f"B[{a}]") for a, rows in d["B"].items()}
    return MatrixSystem(al, dims, H, B)


def system_to_json(sys: MatrixSystem) -> dict:
    return {
        "alphabet": alphabet_to_json(sys.alphabet),
        "dims": {a: sys.dims[a] for a in sys.alphabet.letters},
        "H": {
            f"{b}|{a}": matrix_to_json(sys.H(b, a)) for (b, a) in sys.pairs()
        },
        "B": {a: matrix_to_json(sys.B(a)) for a in sys.alphabet.letters},
    }


def function_from_json(sys: MatrixSystem, d: Any) -> MultiplicativeFunction:
    if not isinstance(d, dict) or "depth" not in d or "values" not in d:
        raise InputError("function must be an object with 'depth' and 'values'")
    if not isinstance(d["values"], dict):
        raise InputError("'values' must map words to vectors")
    split = any(len(s) != 1 for s in sys.alphabet.letters)
    values = {}
    for wspec, vec in d["values"].items():
        if split and isinstance(wspec, str):
            wspec = wspec.split("|")
        w = word_from_json(sys.alphabet, wspec)
        if not isinstance(vec, list):
            raise InputError(f"value at {wspec!r} must be a list")
        values[w] = np.array([_entry_from_json(v) for v in vec], dtype=complex)
    return MultiplicativeFunction(sys, d["depth"], values)


def function_to_json(f: MultiplicativeFunction) -> dict:
    vals = {}
    for w in f.support():
        v = f.values[w]
        key = word_to_json(w)
        if isinstance(key, list):
            key = "|".join(key)
        if np.all(v.imag == 0):
            vals[key] = [float(x.real) for x in v]
        else:
            vals[key] = [[float(x.real), float(x.imag)] for x in v]
    return {"depth": f.depth, "values": vals}


def genmap_from_json(d: Any) -> GeneratorMap:
    if not isinstance(d, dict):
        raise InputError("generator map must be a JSON object")
    for key in ("source", "target", "images"):
        if key not in d:
            raise InputError(f"generator map is missing the {key!r} field")
    source = alphabet_from_json(d["source"])
    target = alphabet_from_json(d["target"])
    if not isinstance(d["images"], dict):
        raise InputError("'images' must map source letters to target words")
    images = {
        s: word_from_json(target, w) for s, w in d["images"].items()
    }
    return GeneratorMap(source, target, images)


def automaton_from_json(d: Any) -> CosetAutomaton:
    """Subgroup input: either explicit generators or explicit transitions.

    ``{"alphabet": ..., "generators": [word, ...]}`` folds the generators;
    ``{"alphabet": ..., "size": n, "transitions": {letter: [perm]}}`` uses
    zero-based state permutations directly.
    """
    if not isinstance(d, dict) or "alphabet" not in d:
        raise InputError("subgroup must be an object with an 'alphabet' field")
    al = alphabet_from_json(d["alphabet"])
    if "generators" in d:
        gens = d["generators"]
        if not isinstance(gens, list):
            raise InputError("'generators' must be a list of words")
        return automaton_from_generators(
            al, [word_from_json(al, g) for g in gens]
        )
    if "transitions" in d:
        trans = d["transitions"]
        if not isinstance(trans, dict):
            raise InputError("'transitions' must map letters to permutations")
        return CosetAutomaton(al, trans, d.get("size"))
    raise InputError("subgroup needs either 'generators' or 'transitions'")
