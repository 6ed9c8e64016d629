"""Command-line front-end.

JSON reports go to stdout (deterministic: sorted keys, fixed orderings);
a one-line human summary goes to stderr.  Exit codes: 0 success, 1
malformed input, 2 a mathematical check failed.
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

__all__ = ["main", "run"]


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


def _parser():
    p = argparse.ArgumentParser(prog="chipalg", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def graph_cmd(name, fn, **extra):
        sp = sub.add_parser(name)
        sp.add_argument("graph")
        sp.add_argument("--sink", type=int, default=None, help="treat node i as the distinguished node")
        for flag, kw in extra.items():
            sp.add_argument(flag, **kw)
        sp.set_defaults(fn=fn)
        return sp

    graph_cmd("info", _cmd_info)
    graph_cmd("ideal", _cmd_ideal)
    graph_cmd("socle", _cmd_socle)
    graph_cmd(
        "betti",
        _cmd_betti,
        **{"--ideal": dict(choices=["parking", "toppling"], default="parking"), "--char": dict(type=int, default=0)},
    )
    graph_cmd("conjecture", _cmd_conjecture, **{"--char": dict(type=int, default=0)})
    graph_cmd("hilbert", _cmd_hilbert)
    graph_cmd("rank", _cmd_rank, **{"--divisor": dict(required=True)})

    sp = sub.add_parser("mrank")
    sp.add_argument("ideal_file")
    sp.add_argument("--monomial", required=True)
    sp.set_defaults(fn=_cmd_mrank)

    sp = sub.add_parser("rrcheck")
    sp.add_argument("ideal_file")
    sp.add_argument("--b", action="append")
    sp.set_defaults(fn=_cmd_rrcheck)

    sp = sub.add_parser("construct")
    sp.add_argument("--canonical", required=True)
    sp.add_argument("--seed", action="append", required=True)
    sp.set_defaults(fn=_cmd_construct)
    return p


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        check_char(getattr(args, "char", 0))
        results, checks = args.fn(args)
    except (OSError, ValueError) as exc:
        report = {"command": args.command, "error": str(exc)}
        print(json.dumps(report, sort_keys=True, indent=2))
        print(f"chipalg {args.command}: error: {exc}", file=sys.stderr)
        return 1
    report = {
        "command": args.command,
        "results": results,
        "checks": [
            {"name": name, "pass": ok, "details": details} for name, ok, details in checks
        ],
    }
    print(json.dumps(report, sort_keys=True, indent=2))
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
