"""Command-line front-end.

JSON reports go to stdout (deterministic: sorted keys, fixed orderings);
a one-line human summary goes to stderr.  Exit codes: 0 success, 1
malformed input, 2 a mathematical check failed.

Each command is one entry of ``COMMANDS``: its handler and its options.
When argv names a command, ``run`` builds one parser, ``chipalg <name>``,
with that command's options and no other.  Arguments it leaves over, a
``-h`` before the command, a missing command or an unknown one go to the
whole grammar, whose top-level usage lists every command.  No parser is
built at import or kept between calls.  A usage error that argparse
rejects (``--char x``, no ``--divisor``) also exits 2 for now, though 2
is meant for a failed check: the benchmark harness's tests expect it.

``report_json`` writes each report.  Its output is byte for byte that of
``json.dumps(report, sort_keys=True, indent=2)``, at about half the cost.
"""

from __future__ import annotations

import argparse
import json
import sys

from .chipfiring import (
    baker_norine_verify,
    canonical_divisor,
    divisor_rank_oracle,
    flag_socles,
    groebner_certificate,
    lattice_socle_base,
    parking_ideal,
    toppling_generators,
)
from .exactla import check_char
from .hilbert import hilbert_identity_check, hilbert_numerator, parking_sum
from .monomials import monomial_str, parse_ideal
from .multigraph import divisor_class_group, parse_graph, tree_count
from .resolutions import betti_parking, betti_toppling, conjecture_check
from .riemann_roch import (
    _exponents,
    construct_rr_ideal,
    mono_rank,
    mono_rank_bruteforce,
    rr_profile,
    rr_verify,
)

__all__ = ["COMMANDS", "main", "report_json", "run"]


def _load_graph(args):
    with open(args.graph) as fh:
        g = parse_graph(fh.read())
    if args.sink is not None:
        g = g.relabel_sink(args.sink)
    return g


def _load_ideal(path):
    with open(path) as fh:
        return parse_ideal(fh.read())


def _csv_ints(s):
    return tuple(int(x) for x in s.split(","))


def _binomial_json(b):
    return {
        "split_I": b.I,
        "lead": b.lead,
        "trail": b.trail,
        "text": f"{monomial_str(b.lead)} - {monomial_str(b.trail)}",
    }


def _betti_json(table):
    return {
        "total": table["total"],
        "entries": [{"degree": c, "index": j, "rank": r} for c, j, r in table["entries"]],
    }


def _cmd_info(args):
    g = _load_graph(args)
    grp = divisor_class_group(g)
    return {
        "nodes": g.n,
        "edges": g.num_edges,
        "genus": g.genus,
        "saturated": g.is_saturated(),
        "tree_count": tree_count(g),
        "invariant_factors": grp.invariant_factors,
    }, []


def _cmd_ideal(args):
    g = _load_graph(args)
    gens = toppling_generators(g)
    M = parking_ideal(g)
    cert = groebner_certificate(g, M)
    return {
        "toppling_generators": [_binomial_json(b) for b in gens],
        "parking_generators": M.generators,
        "standard_monomials": cert["standard_monomials"],
        "tree_count": cert["tree_count"],
    }, [("standard_monomials_equal_tree_count", cert["pass"], cert)]


def _cmd_socle(args):
    g = _load_graph(args)
    soc = [c[:-1] for c in lattice_socle_base(g)]
    flags = flag_socles(g)
    agrees = set(soc) == set(flags)
    checks = []
    if g.is_saturated():
        checks.append(
            ("flag_formula_matches_socle", agrees, {"socle": len(soc), "flags": len(flags)})
        )
    return {
        "socle": soc,
        "flag_monomials": flags,
        "flag_formula_agrees": agrees,
    }, checks


def _cmd_betti(args):
    g = _load_graph(args)
    fn = betti_toppling if args.ideal == "toppling" else betti_parking
    table = fn(g)
    top, socle = table["total"][-1], len(lattice_socle_base(g))
    negative = sum(1 for _, _, r in table["entries"] if r < 0)
    return {"ideal": args.ideal, "char": args.char, **_betti_json(table)}, [
        ("top_betti_equals_socle", top == socle, {"top": top, "socle": socle}),
        ("betti_nonnegative", negative == 0, {"negative_entries": negative}),
    ]


def _cmd_conjecture(args):
    g = _load_graph(args)
    rep = conjecture_check(g, args.char)
    payload = {
        "char": args.char,
        "compared": rep["compared"],
        "ambiguous_pairings": rep["ambiguous_pairings"],
        "unmatched_orbits": rep["unmatched_orbits"],
    }
    return payload, [("betti_agreement", rep["pass"], {"mismatches": len(rep["mismatches"])})]


def _cmd_hilbert(args):
    g = _load_graph(args)
    num = hilbert_numerator(g)
    psum = parking_sum(g)
    rep = hilbert_identity_check(g, psum, num)
    return {
        "numerator": num.to_json(),
        "parking_sum_terms": len(psum.terms),
    }, [("hilbert_identity", rep["pass"], rep)]


def _cmd_rank(args):
    g = _load_graph(args)
    u = _csv_ints(args.divisor)
    bn = baker_norine_verify(g, u)
    r = bn["rank_u"]
    oracle = divisor_rank_oracle(g, u)
    return {
        "divisor": u,
        "rank": r,
        "oracle_rank": oracle,
        "canonical_divisor": canonical_divisor(g),
        "duality": bn,
    }, [
        ("rank_matches_oracle", r == oracle, {"rank": r, "oracle": oracle}),
        ("riemann_roch_identity", bn["pass"], bn),
    ]


def _cmd_mrank(args):
    M = _load_ideal(args.ideal_file)
    b = _csv_ints(args.monomial)
    r = mono_rank(M, b)
    payload = {"monomial": b, "rank": r}
    checks = []
    if all(e >= 0 for e in b):
        w = mono_rank_bruteforce(M, b)
        payload["bruteforce_rank"] = w.rank
        payload["witness"] = w.witness
        checks.append(("definitions_agree", r == w.rank, {"formula": r, "search": w.rank}))
    return payload, checks


def _cmd_rrcheck(args):
    M = _load_ideal(args.ideal_file)
    prof = rr_profile(M)
    payload = {
        "socle": prof.socle,
        "genus_min": prof.genus_min,
        "genus_max": prof.genus_max,
        "level": prof.level,
        "reflection_invariant": prof.reflection_invariant,
        "canonical": prof.canonical,
        "canonical_candidates": prof.canonical_candidates,
    }
    # a malformed --b is bad input whether or not the ideal qualifies
    bs_exps = [(bs, _exponents(M, _csv_ints(bs))) for bs in args.b or []]
    checks = []
    if prof.reflection_invariant and prof.level:
        for bs, b in bs_exps:
            rep = rr_verify(prof, prof.canonical, b)
            checks.append((f"riemann_roch_at_{bs}", rep["pass"], rep))
    elif args.b:
        checks.append(
            ("riemann_roch_preconditions", False, {"level": prof.level, "reflection_invariant": prof.reflection_invariant})
        )
    return payload, checks


def _cmd_construct(args):
    K = _csv_ints(args.canonical)
    seeds = [_csv_ints(s) for s in args.seed]
    prof = construct_rr_ideal(K, seeds)
    return {
        "vars": prof.ideal.vars,
        "generators": prof.ideal.generators,
        "socle": prof.socle,
        "canonical": prof.canonical,
    }, [("profile_valid", tuple(K) in prof.canonical_candidates, {"genus": prof.genus_min})]


_GRAPH = {"graph": {}, "--sink": dict(type=int, default=None, help="treat node i as the distinguished node")}
_CHAR = {"--char": dict(type=int, default=0)}

# name: (handler, {flag: add_argument keywords}), in help order
COMMANDS = {
    "info": (_cmd_info, _GRAPH),
    "ideal": (_cmd_ideal, _GRAPH),
    "socle": (_cmd_socle, _GRAPH),
    "betti": (_cmd_betti, {**_GRAPH, "--ideal": dict(choices=["parking", "toppling"], default="parking"), **_CHAR}),
    "conjecture": (_cmd_conjecture, {**_GRAPH, **_CHAR}),
    "hilbert": (_cmd_hilbert, _GRAPH),
    "rank": (_cmd_rank, {**_GRAPH, "--divisor": dict(required=True)}),
    "mrank": (_cmd_mrank, {"ideal_file": {}, "--monomial": dict(required=True)}),
    "rrcheck": (_cmd_rrcheck, {"ideal_file": {}, "--b": dict(action="append")}),
    "construct": (_cmd_construct, {"--canonical": dict(required=True), "--seed": dict(action="append", required=True)}),
}


def _add_options(p, name):
    for flag, kw in COMMANDS[name][1].items():
        p.add_argument(flag, **kw)


def _parser():
    """The whole grammar: the top-level parser and every command's."""
    # the first two docstring paragraphs are the help text
    p = argparse.ArgumentParser(prog="chipalg", description="\n\n".join(__doc__.split("\n\n")[:2]))
    sub = p.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        _add_options(sub.add_parser(name), name)
    return p


def _parse(argv):
    """argv parsed.  A named command is parsed by its own parser alone,
    the one ``_parser`` adds for it; arguments left over go to the whole
    grammar, whose top-level usage rejects them."""
    if argv and argv[0] in COMMANDS:
        name = argv[0]
        p = argparse.ArgumentParser(prog=f"chipalg {name}")
        _add_options(p, name)
        args, rest = p.parse_known_args(argv[1:])
        if not rest:
            args.command = name
            return args
    return _parser().parse_args(argv)


_quote = json.encoder.encode_basestring_ascii


def report_json(obj, indent="\n") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte, for
    what a report holds: dicts with str keys, lists, tuples, ints, strs,
    bools and None.  ``indent`` starts the line that obj is written on.

    With ``indent`` set, ``json.dumps`` runs the pure-Python encoder.  Here
    a list of plain ints is one ``join``, and strs and keys are quoted by
    the C ``encode_basestring_ascii`` that ``json.dumps`` also uses.  Any
    other value, a float or a subclass of a type named here, is written by
    ``json.dumps`` itself, re-indented to ``indent``: with ``ensure_ascii``
    on, a newline in its output can only be indentation."""
    t = type(obj)
    if t is str:
        return _quote(obj)
    if t is int:
        return repr(obj)
    if t is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if t is dict or t is list or t is tuple:
        if not obj:
            return "{}" if t is dict else "[]"
        inner = indent + "  "
        if t is dict:
            items = [_quote(k) + ": " + report_json(obj[k], inner) for k in sorted(obj)]
            return "{" + inner + ("," + inner).join(items) + indent + "}"
        if set(map(type, obj)) == {int}:  # a bool is not a plain int
            items = map(repr, obj)
        else:
            items = [report_json(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", indent)


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    try:
        check_char(getattr(args, "char", 0))
        results, checks = COMMANDS[args.command][0](args)
    except (OSError, ValueError) as exc:
        report = {"command": args.command, "error": str(exc)}
        print(report_json(report))
        print(f"chipalg {args.command}: error: {exc}", file=sys.stderr)
        return 1
    report = {
        "command": args.command,
        "results": results,
        "checks": [
            {"name": name, "pass": ok, "details": details} for name, ok, details in checks
        ],
    }
    print(report_json(report))
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    if failed:
        print(f"chipalg {args.command}: FAILED checks: {', '.join(failed)}", file=sys.stderr)
        return 2
    print(f"chipalg {args.command}: ok", file=sys.stderr)
    return 0


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
