"""End-to-end command-line checks, run in process through ``main``."""

from __future__ import annotations

import inspect
import json

import numpy as np
import pytest

from freemult import (
    decompose,
    induce_system,
    normalize_to_compatible,
    pf_eigenpair,
    restrict_system,
    tolerances,
    transport_system,
)
from freemult import multfunc
from freemult.cli import build_parser, main
from freemult.jsonio import system_from_json, system_to_json
from freemult.system import compatibility_defect, direct_sum

from .conftest import AB, make_spherical
from .test_perron import repeated_boundary_sum


@pytest.fixture
def spherical_path(tmp_path):
    path = tmp_path / "spherical.json"
    path.write_text(json.dumps(system_to_json(make_spherical())))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    out = json.loads(captured.out) if code == 0 else None
    return code, out, captured.err


def test_check_compatible(capsys, spherical_path):
    code, out, _ = run(capsys, "check", spherical_path)
    assert code == 0
    assert out["compatible"] is True
    assert out["total_dim"] == 4
    assert out["compatibility_defect"] <= 1e-12


def test_check_incompatible(capsys, tmp_path, spherical):
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(system_to_json(spherical.scale_H(1.3))))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert out["compatible"] is False


def test_pf(capsys, spherical_path):
    code, out, _ = run(capsys, "pf", spherical_path)
    assert code == 0
    assert out["rho"] == pytest.approx(1.0, abs=1e-9)
    assert set(out["forms"]) == set(AB.letters)


def test_normalize(capsys, tmp_path, spherical):
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(system_to_json(spherical.scale_H(1.3))))
    code, out, _ = run(capsys, "normalize", str(path))
    assert code == 0
    assert out["rho"] == pytest.approx(1.3**2, abs=1e-9)
    back = system_from_json(out["system"])
    assert compatibility_defect(back) <= 1e-9


def test_normalize_repeated_boundary_radius(capsys, tmp_path):
    # V + V whose doubled radius has no semidefinite eigenvector of its own
    V, total = repeated_boundary_sum("VV")
    path = tmp_path / "vv.json"
    path.write_text(json.dumps(system_to_json(total)))
    code, out, err = run(capsys, "normalize", str(path))
    assert code == 0, err
    assert out["rho"] == pytest.approx(pf_eigenpair(V)[0], rel=1e-10)
    assert compatibility_defect(system_from_json(out["system"])) <= 1e-9


def test_decompose(capsys, tmp_path):
    both = direct_sum(make_spherical(), make_spherical(0.3))
    path = tmp_path / "sum.json"
    path.write_text(json.dumps(system_to_json(both)))
    code, out, _ = run(capsys, "decompose", str(path))
    assert code == 0
    assert out["count"] == 2
    for comp in out["components"]:
        assert comp["dims"] == {a: 1 for a in AB.letters}


def test_changegen_worked_example(capsys, tmp_path, spherical_path):
    gm_path = tmp_path / "map.json"
    gm_path.write_text(
        json.dumps({"source": "aAbB", "target": "aAbB", "images": {"a": "a", "b": "ab"}})
    )
    code, out, _ = run(capsys, "changegen", str(gm_path), spherical_path)
    assert code == 0
    assert out["frontiers"] == {
        "a": ["a", "b"],
        "A": ["AA", "AB"],
        "b": ["Ab"],
        "B": ["B"],
    }
    sysm = system_from_json(out["system"])
    assert sysm.dims == {"a": 2, "A": 2, "b": 1, "B": 1}
    assert compatibility_defect(sysm) <= 1e-9


def test_schreier(capsys, tmp_path):
    path = tmp_path / "sub.json"
    path.write_text(json.dumps({"alphabet": "aAbB", "generators": ["aa", "b", "aba"]}))
    code, out, _ = run(capsys, "schreier", str(path))
    assert code == 0
    assert out["index"] == 2
    assert out["rank"] == 3
    assert out["domain"] == ["", "a"]
    assert out["generators"] == {"g1": "AA", "g2": "b", "g3": "abA"}
    assert out["contacts"]["g3"] == "ab"
    assert out["contact_letters"]["g1"] == "A"


def test_restrict_and_induce(capsys, tmp_path, spherical_path):
    sub_path = tmp_path / "sub.json"
    sub_path.write_text(json.dumps({"alphabet": "aAbB", "generators": ["aa", "b", "aba"]}))
    code, out, _ = run(capsys, "restrict", str(sub_path), spherical_path)
    assert code == 0
    assert out["index"] == 2
    restricted = out["system"]
    assert restricted["dims"] == {c: 1 for c in ("g1", "G1", "g2", "G2", "g3", "G3")}

    rpath = tmp_path / "restricted.json"
    rpath.write_text(json.dumps(restricted))
    code, out, _ = run(capsys, "induce", str(sub_path), str(rpath))
    assert code == 0
    assert out["system"]["dims"] == {"a": 4, "A": 4, "b": 2, "B": 2}


def test_act_then_norm(capsys, tmp_path, spherical_path):
    f_path = tmp_path / "f.json"
    f_path.write_text(
        json.dumps({"depth": 1, "values": {"a": [1.0], "b": [0.0], "A": [0.0], "B": [0.0]}})
    )
    code, out, _ = run(capsys, "act", spherical_path, str(f_path), "b")
    assert code == 0
    assert out["depth"] == 2

    g_path = tmp_path / "g.json"
    g_path.write_text(json.dumps(out))
    code, out, _ = run(capsys, "norm", spherical_path, str(g_path))
    assert code == 0
    assert out["norm2"] == pytest.approx(0.25, abs=1e-12)
    assert out["norm"] == pytest.approx(0.5, abs=1e-12)


def test_coeff_identity_word_is_norm(capsys, tmp_path, spherical_path):
    f_path = tmp_path / "f.json"
    f_path.write_text(
        json.dumps({"depth": 1, "values": {"a": [1.0], "b": [0.0], "A": [0.0], "B": [0.0]}})
    )
    code, out, _ = run(capsys, "coeff", spherical_path, str(f_path), str(f_path), "")
    assert code == 0
    assert out["value"][0] == pytest.approx(0.25, abs=1e-12)
    assert out["value"][1] == pytest.approx(0.0, abs=1e-12)


def test_stdin_input(capsys, monkeypatch, spherical):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(system_to_json(spherical))))
    code, out, _ = run(capsys, "check", "-")
    assert code == 0
    assert out["compatible"] is True


def test_exit_code_missing_file(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/path.json")
    assert code == 3
    assert "error:" in err


def test_exit_code_bad_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "check", str(path))
    assert code == 3
    assert "error:" in err


def test_exit_code_malformed_system(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"alphabet": "aAbB", "dims": {}}))
    code, _, err = run(capsys, "check", str(path))
    assert code == 3


def test_exit_code_validation_failure(capsys, tmp_path, spherical):
    # decomposing an incompatible system is a validation error, not bad input
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(system_to_json(spherical.scale_H(1.3))))
    code, _, err = run(capsys, "decompose", str(path))
    assert code == 1
    assert "error:" in err


def test_exit_code_propagation_budget(capsys, monkeypatch, tmp_path, spherical_path):
    # The budget admits the first step of the translation (one word over
    # total dimension 4) but not the second (three words): the subcommand
    # fails as a resource limit after one step, before the second is built.
    f_path = tmp_path / "f.json"
    f_path.write_text(
        json.dumps({"depth": 1, "values": {"a": [1.0], "b": [0.0], "A": [0.0], "B": [0.0]}})
    )
    monkeypatch.setattr(multfunc, "PROPAGATION_BUDGET", 4)
    steps = []
    step = multfunc._step

    def recorded(*args):
        out = step(*args)
        steps.append(out)
        return out

    monkeypatch.setattr(multfunc, "_step", recorded)
    code, _, err = run(capsys, "act", spherical_path, str(f_path), "A")
    assert code == 1
    assert "step of 3 words over total dimension 4 needs 12 entries" in err
    assert len(steps) == 1


def test_exit_code_malformed_depth_and_dims(capsys, tmp_path, spherical_path):
    # a depth that is not a positive integer is malformed input, not a
    # traceback or a mismatch against the support words' length
    f_path = tmp_path / "f.json"
    for depth in ("2", 2.5, True, 0):
        f_path.write_text(json.dumps({"depth": depth, "values": {"ab": [1.0]}}))
        code, _, err = run(capsys, "norm", spherical_path, str(f_path))
        assert code == 3, depth
        assert "depth must be a positive integer" in err, depth
    bad = system_to_json(make_spherical())
    bad["dims"]["a"] = True
    path = tmp_path / "bool_dims.json"
    path.write_text(json.dumps(bad))
    code, _, err = run(capsys, "check", str(path))
    assert code == 3
    assert "dims['a']" in err


def test_exit_code_malformed_transitions(capsys, tmp_path):
    path = tmp_path / "sub.json"
    for spec in (
        {"transitions": {"a": [1.7, 0.2], "b": [0, 1]}},
        {"transitions": {"a": [1, 0], "b": [0, 1]}, "size": "2"},
    ):
        path.write_text(json.dumps({"alphabet": "aAbB", **spec}))
        code, _, err = run(capsys, "schreier", str(path))
        assert code == 3, spec
        assert "integer" in err, spec


def test_exit_code_degenerate_system(capsys, tmp_path):
    # one-directional transfers have spectral radius zero; normalization
    # rejects that as a validation failure
    nil = {
        "alphabet": "aAbB",
        "dims": {a: 1 for a in AB.letters},
        "H": {"b|a": [[1.0]]},
        "B": {a: [[1.0]] for a in AB.letters},
    }
    path = tmp_path / "nil.json"
    path.write_text(json.dumps(nil))
    code, _, err = run(capsys, "normalize", str(path))
    assert code == 1
    assert "error:" in err


def test_exit_code_numeric_failure(capsys, monkeypatch, spherical_path):
    from freemult.errors import NumericError

    def boom(args):
        raise NumericError("iteration did not settle")

    monkeypatch.setattr("freemult.cli._cmd_pf", boom)
    code, _, err = run(capsys, "pf", spherical_path)
    assert code == 2
    assert "error: iteration did not settle" in err


def test_tol_defaults_follow_the_library(capsys):
    parser = build_parser()
    calls = {
        "pf": (pf_eigenpair, ["s"]),
        "normalize": (normalize_to_compatible, ["s"]),
        "decompose": (decompose, ["s"]),
        "changegen": (transport_system, ["m", "s"]),
        "restrict": (restrict_system, ["g", "s"]),
        "induce": (induce_system, ["g", "s"]),
    }
    for name, (fn, argv) in calls.items():
        want = inspect.signature(fn).parameters["tol"].default
        assert parser.parse_args([name, *argv]).tol == want, name
    assert parser.parse_args(["check", "s"]).tol == tolerances.COMPAT_TOL
    # subcommands that never read a tolerance take none
    unused = (
        ["schreier", "g"],
        ["act", "s", "f", "b"],
        ["norm", "s", "f"],
        ["coeff", "s", "f", "g", "b"],
    )
    for argv in unused:
        assert not hasattr(parser.parse_args(argv), "tol")
        with pytest.raises(SystemExit):
            parser.parse_args([*argv, "--tol", "1e-3"])
    capsys.readouterr()
