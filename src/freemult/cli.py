"""Command-line interface.

Every subcommand reads JSON (a file path, or ``-`` for stdin) and writes
JSON to stdout.  Exit codes: 0 success, 1 validation or resource
failure, 2 numerical failure, 3 malformed input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .changegen import compute_Y, transport_system
from .decompose import decompose
from .errors import FreemultError, InputError, NumericError
from .jsonio import (
    alphabet_to_json,
    automaton_from_json,
    function_from_json,
    function_to_json,
    genmap_from_json,
    matrix_to_json,
    system_from_json,
    system_to_json,
    word_from_json,
    word_to_json,
)
from .multfunc import act, inner_product, norm2
from .perron import normalize_to_compatible, pf_eigenpair
from .subgroup import FundamentalSubtree
from .system import compatibility_defect
from .tolerances import COMPAT_TOL, PF_TOL
from .transport import induce_system, restrict_system


def _load(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"invalid JSON in {path}: {e}") from e


def _dump(obj) -> None:
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _cmd_check(args) -> None:
    sysm = system_from_json(_load(args.system))
    defect = compatibility_defect(sysm)
    _dump(
        {
            "total_dim": sysm.total_dim,
            "compatibility_defect": defect,
            "compatible": bool(defect <= args.tol),
        }
    )


def _cmd_pf(args) -> None:
    sysm = system_from_json(_load(args.system))
    rho, forms = pf_eigenpair(sysm, tol=args.tol)
    _dump({"rho": rho, "forms": {a: matrix_to_json(m) for a, m in forms.items()}})


def _cmd_normalize(args) -> None:
    sysm = system_from_json(_load(args.system))
    out, rho = normalize_to_compatible(sysm, tol=args.tol)
    _dump({"rho": rho, "system": system_to_json(out)})


def _cmd_decompose(args) -> None:
    sysm = system_from_json(_load(args.system))
    parts = decompose(sysm, tol=args.tol)
    _dump(
        {
            "count": len(parts),
            "components": [
                {
                    "dims": {a: comp.dims[a] for a in comp.alphabet.letters},
                    "system": system_to_json(comp),
                    "embedding": {
                        a: matrix_to_json(emb.blocks[a])
                        for a in comp.alphabet.letters
                    },
                }
                for comp, emb in parts
            ],
        }
    )


def _cmd_changegen(args) -> None:
    gm = genmap_from_json(_load(args.map))
    sysm = system_from_json(_load(args.system))
    out = transport_system(gm, sysm, tol=args.tol)
    fronts = {
        a: [word_to_json(y) for y in compute_Y(gm, gm.target.word([a]))]
        for a in gm.target.letters
    }
    _dump({"frontiers": fronts, "system": system_to_json(out)})


def _cmd_schreier(args) -> None:
    fs = FundamentalSubtree(automaton_from_json(_load(args.subgroup)))
    sub = fs.subgroup_alphabet
    positives = [sub.letters[i] for i in range(0, len(sub.letters), 2)]
    _dump(
        {
            "index": fs.automaton.size,
            "rank": sub.rank,
            "alphabet": alphabet_to_json(sub),
            "domain": [word_to_json(u) for u in fs.reps],
            "generators": {c: word_to_json(fs.gamma_of[c]) for c in positives},
            "contacts": {c: word_to_json(fs.contact[c]) for c in sub.letters},
            "contact_letters": dict(fs.contact_letter),
        }
    )


def _cmd_restrict(args) -> None:
    fs = FundamentalSubtree(automaton_from_json(_load(args.subgroup)))
    sysm = system_from_json(_load(args.system))
    out = restrict_system(fs, sysm, tol=args.tol)
    _dump({"index": fs.automaton.size, "system": system_to_json(out)})


def _cmd_induce(args) -> None:
    fs = FundamentalSubtree(automaton_from_json(_load(args.subgroup)))
    subsys = system_from_json(_load(args.system))
    out = induce_system(fs, subsys, tol=args.tol)
    _dump({"index": fs.automaton.size, "system": system_to_json(out)})


def _cmd_act(args) -> None:
    sysm = system_from_json(_load(args.system))
    f = function_from_json(sysm, _load(args.function))
    x = word_from_json(sysm.alphabet, args.word)
    _dump(function_to_json(act(x, f)))


def _cmd_norm(args) -> None:
    sysm = system_from_json(_load(args.system))
    f = function_from_json(sysm, _load(args.function))
    n2 = norm2(f)
    _dump({"norm2": n2, "norm": math.sqrt(n2)})


def _cmd_coeff(args) -> None:
    sysm = system_from_json(_load(args.system))
    f = function_from_json(sysm, _load(args.function))
    g = function_from_json(sysm, _load(args.other))
    x = word_from_json(sysm.alphabet, args.word)
    value = inner_product(act(x, f), g)
    _dump({"value": [value.real, value.imag]})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freemult",
        description=(
            "Matrix systems with inner products over finitely generated "
            "free groups: validation, normalization, decomposition, and "
            "transport across generator changes and finite-index subgroups."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The subcommands that take --tol, each with the default of the library
    # function it calls.
    tols = {
        "check": COMPAT_TOL,
        "pf": PF_TOL,
        "normalize": PF_TOL,
        "decompose": COMPAT_TOL,
        "changegen": COMPAT_TOL,
        "restrict": COMPAT_TOL,
        "induce": COMPAT_TOL,
    }

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        if name in tols:
            p.add_argument("--tol", type=float, default=tols[name], help="tolerance")
        return p

    p = add("check", _cmd_check, "validate a system and report its defect")
    p.add_argument("system")

    p = add("pf", _cmd_pf, "leading eigenvalue and eigenforms of the transfer map")
    p.add_argument("system")

    p = add("normalize", _cmd_normalize, "rescale a system to a compatible one")
    p.add_argument("system")

    p = add("decompose", _cmd_decompose, "split a compatible system into irreducibles")
    p.add_argument("system")

    p = add("changegen", _cmd_changegen, "re-express a system over new generators")
    p.add_argument("map")
    p.add_argument("system")

    p = add("schreier", _cmd_schreier, "fundamental domain and subgroup basis")
    p.add_argument("subgroup")

    p = add("restrict", _cmd_restrict, "restrict a system to a finite-index subgroup")
    p.add_argument("subgroup")
    p.add_argument("system")

    p = add("induce", _cmd_induce, "induce a subgroup system up to the whole group")
    p.add_argument("subgroup")
    p.add_argument("system")

    p = add("act", _cmd_act, "translate a multiplicative function by a group element")
    p.add_argument("system")
    p.add_argument("function")
    p.add_argument("word")

    p = add("norm", _cmd_norm, "norm of a multiplicative function")
    p.add_argument("system")
    p.add_argument("function")

    p = add("coeff", _cmd_coeff, "matrix coefficient <x.f, g>")
    p.add_argument("system")
    p.add_argument("function")
    p.add_argument("other")
    p.add_argument("word")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except NumericError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except FreemultError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
