"""Round trips and error paths for the JSON encodings."""

from __future__ import annotations

import json

import numpy as np
import pytest

from freemult.errors import InputError
from freemult.jsonio import (
    alphabet_from_json,
    alphabet_to_json,
    automaton_from_json,
    function_from_json,
    function_to_json,
    genmap_from_json,
    matrix_from_json,
    matrix_to_json,
    system_from_json,
    system_to_json,
    word_from_json,
    word_to_json,
)
from freemult.multfunc import MultiplicativeFunction, act
from freemult.subgroup import schreier_subtree
from freemult.transport import restrict_function, restrict_system
from freemult.words import Alphabet, last_letter, sphere

from .conftest import AB, make_spherical


def test_matrix_round_trip_real():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = matrix_to_json(m)
    assert out == [[1.0, 2.0], [3.0, 4.0]]
    assert matrix_from_json(out) == pytest.approx(m)


def test_matrix_round_trip_complex():
    m = np.array([[1.0 + 2.0j]])
    out = matrix_to_json(m)
    assert out == [[[1.0, 2.0]]]
    assert matrix_from_json(out) == pytest.approx(m)


def test_matrix_mixed_entry_forms():
    m = matrix_from_json([[1, [0, -1]], [2.5, 0]])
    assert m == pytest.approx(np.array([[1.0, -1.0j], [2.5, 0.0]]))


def test_matrix_empty():
    m = matrix_from_json([])
    assert m.shape == (0, 0)
    assert matrix_to_json(m) == []


def test_matrix_errors():
    with pytest.raises(InputError):
        matrix_from_json("nope")
    with pytest.raises(InputError):
        matrix_from_json([[1, 2], [3]])
    with pytest.raises(InputError):
        matrix_from_json([[{"re": 1}]])
    with pytest.raises(InputError):
        matrix_from_json([[[1, 2, 3]]])


def test_alphabet_string_form():
    assert alphabet_to_json(AB) == "aAbB"
    assert alphabet_from_json("aAbB") == AB


def test_alphabet_list_form_for_long_symbols(index2_automaton):
    sub = schreier_subtree(index2_automaton).subgroup_alphabet
    spec = alphabet_to_json(sub)
    assert spec == ["g1", "G1", "g2", "G2", "g3", "G3"]
    assert alphabet_from_json(spec) == sub


def test_alphabet_custom_involution():
    inv = {"x": "y", "y": "x", "p": "q", "q": "p"}
    al = Alphabet(["x", "y", "p", "q"], inv)
    spec = alphabet_to_json(al)
    assert spec == {"letters": ["x", "y", "p", "q"], "involution": inv}
    assert alphabet_from_json(spec) == al


def test_alphabet_errors():
    with pytest.raises(InputError):
        alphabet_from_json(17)
    with pytest.raises(InputError):
        alphabet_from_json({"involution": {}})


def test_word_round_trip():
    w = AB.word("abAB")
    assert word_to_json(w) == "abAB"
    assert word_from_json(AB, "abAB") == w
    assert word_to_json(AB.identity) == ""
    assert word_from_json(AB, "") == AB.identity


def test_word_list_form(index2_automaton):
    sub = schreier_subtree(index2_automaton).subgroup_alphabet
    w = sub.word(["g1", "g2"])
    assert word_to_json(w) == ["g1", "g2"]
    assert word_from_json(sub, ["g1", "g2"]) == w


def test_word_errors():
    with pytest.raises(InputError):
        word_from_json(AB, 3)


def test_system_round_trip_complex():
    sys = make_spherical(0.3)
    spec = system_to_json(sys)
    assert spec["alphabet"] == "aAbB"
    assert set(spec["H"]) == {f"{b}|{a}" for (b, a) in sys.pairs()}
    back = system_from_json(spec)
    assert back.close_to(sys, tol=1e-12)


def test_system_errors():
    sys = make_spherical()
    spec = system_to_json(sys)
    with pytest.raises(InputError):
        system_from_json([spec])
    for key in ("alphabet", "dims", "H", "B"):
        broken = dict(spec)
        del broken[key]
        with pytest.raises(InputError):
            system_from_json(broken)
    broken = dict(spec, H={"ba": [[1.0]]})
    with pytest.raises(InputError):
        system_from_json(broken)
    broken = dict(spec, H={"c|a": [[1.0]]})
    with pytest.raises(InputError):
        system_from_json(broken)


def assert_exact_round_trip(sys, f):
    spec = function_to_json(f)
    assert spec["depth"] == f.depth
    assert all(isinstance(v[0], list) for v in spec["values"].values())
    text = json.loads(json.dumps(spec))
    assert function_to_json(function_from_json(sys, text)) == spec


def test_function_round_trip(rng, index3_automaton):
    sys = make_spherical(0.3)
    values = {
        y: rng.standard_normal(1) + 1j * rng.standard_normal(1)
        for y in sphere(AB, 2)
    }
    f = MultiplicativeFunction(sys, 2, values)
    assert_exact_round_trip(sys, f)
    assert_exact_round_trip(sys, act(AB.word("abA"), f))
    fs = schreier_subtree(index3_automaton)
    restricted = restrict_system(fs, sys)
    rf = restrict_function(fs, sys, f, restricted=restricted, depth=3)
    assert_exact_round_trip(restricted, rf)


def test_function_real_values_stay_plain(spherical):
    f = MultiplicativeFunction(
        spherical, 1, {AB.word("a"): np.array([0.5 + 0j])}
    )
    spec = function_to_json(f)
    assert spec["values"] == {"a": [0.5]}


def test_function_errors(spherical):
    with pytest.raises(InputError):
        function_from_json(spherical, {"depth": 1})
    with pytest.raises(InputError):
        function_from_json(spherical, {"depth": 1, "values": [1]})
    with pytest.raises(InputError):
        function_from_json(spherical, {"depth": 1, "values": {"a": 1.0}})


def test_genmap_from_json():
    gm = genmap_from_json(
        {"source": "aAbB", "target": "aAbB", "images": {"a": "a", "b": "ab"}}
    )
    assert gm.expand(AB.word("b")) == AB.word("ab")
    assert gm.expand(AB.word("B")) == AB.word("BA")


def test_genmap_errors():
    with pytest.raises(InputError):
        genmap_from_json("a->ab")
    with pytest.raises(InputError):
        genmap_from_json({"source": "aAbB", "images": {}})
    with pytest.raises(InputError):
        genmap_from_json({"source": "aAbB", "target": "aAbB", "images": ["ab"]})


def test_automaton_from_generators_form():
    aut = automaton_from_json({"alphabet": "aAbB", "generators": ["aa", "b", "aba"]})
    assert aut.size == 2


def test_automaton_from_transitions_form():
    aut = automaton_from_json(
        {
            "alphabet": "aAbB",
            "size": 3,
            "transitions": {"a": [1, 0, 2], "A": [1, 0, 2], "b": [2, 1, 0], "B": [2, 1, 0]},
        }
    )
    assert aut.size == 3


def test_automaton_errors():
    with pytest.raises(InputError):
        automaton_from_json({"generators": ["aa"]})
    with pytest.raises(InputError):
        automaton_from_json({"alphabet": "aAbB"})
    with pytest.raises(InputError):
        automaton_from_json({"alphabet": "aAbB", "generators": "aa"})
