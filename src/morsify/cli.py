"""Command-line front end.

One verb per pipeline; inputs are sniffed by extension (``.pdv`` planar
divide, ``.sdv`` scannable divide, ``.qvr`` quiver, ``.plb`` plabic graph,
anything else a link diagram), and braid words may be given inline as
``"k : i j ..."``.  The searches (``isotopy``, ``mut-equiv``, ``move-equiv``)
take the ``--states``/``--seconds`` budget flags, ``move-equiv`` also
``--depth``; the verbs with a machine-readable output take ``--format``.
Exit codes: 0 for any verdict (including Unknown), 1 for computation errors,
2 for usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from ._common import Budget, DistinctByInvariant, Equivalent, Unknown
from .accept import run_acceptance
from .agquiver import quiver_of_divide
from .braid import (
    PositiveBraidWord,
    beta_of_scannable,
    delta_divisibility,
    format_braid_word,
    left_normal_form,
    parse_braid_word,
    positive_isotopic,
    solid_torus_isotopic,
)
from .divide import (
    PlanarDivide,
    apply_yb,
    cell_count,
    format_planar_divide,
    format_scannable,
    klein_act,
    lissajous,
    overlay,
    parse_planar_divide,
    parse_scannable,
    regions,
    scannable_to_planar,
    validate as validate_divide,
    yb_sites,
)
from .link import (
    CapExceeded,
    alexander,
    closure,
    fingerprint,
    format_link_diagram,
    format_poly,
    jones,
    parse_link_diagram,
)
from .plabic import (
    admissible_orientation,
    attach_plabic,
    enumerate_moves,
    fence_of_divide,
    format_plabic,
    link_of_oriented_plabic,
    move_equivalent,
    parse_plabic,
    validate as validate_plabic,
)
from .quiver import (
    format_quiver,
    mutate_seq,
    mutation_equivalent,
    parse_quiver,
)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_planar(path: str) -> PlanarDivide:
    if path.endswith(".sdv"):
        return scannable_to_planar(parse_scannable(_read(path)))
    return parse_planar_divide(_read(path))


def _load_scannable(path: str):
    return parse_scannable(_read(path))


def _load_braid(arg: str) -> PositiveBraidWord:
    text = _read(arg) if os.path.exists(arg) else arg
    return parse_braid_word(text)


def _load_link(arg: str):
    """A link diagram: a braid word (inline or file) or a diagram file."""
    text = _read(arg) if os.path.exists(arg) else arg
    if ":" in text:
        w = parse_braid_word(text)
        return closure(w.letters, w.k)
    return parse_link_diagram(text)


def _budget(args) -> Budget:
    return Budget(max_states=args.states, max_seconds=args.seconds)


def _emit_verdict(res, machine: bool) -> int:
    if isinstance(res, Equivalent):
        witness = " ".join(str(x) for x in res.witness)
        if machine:
            print("RESULT EQUIVALENT")
            print(f"WITNESS {witness}")
        else:
            print(f"EQUIVALENT witness: {witness}" if witness else "EQUIVALENT")
    elif isinstance(res, DistinctByInvariant):
        if machine:
            print("RESULT DISTINCT")
            print(f"REASON {res.reason}")
        else:
            print(f"DISTINCT reason: {res.reason}")
    elif isinstance(res, Unknown):
        if machine:
            print("RESULT UNKNOWN")
            print(f"REASON {res.reason}")
        else:
            print(f"UNKNOWN reason: {res.reason}")
    else:  # bool-like results from exact deciders
        print(f"RESULT {bool(res)}" if machine else str(bool(res)))
    return 0


def _divide_problems(d: PlanarDivide) -> list:
    return [f"{tag}: {msg}" for tag, msg in validate_divide(d).violations]


def _cmd_validate(args) -> int:
    if args.file.endswith(".plb"):
        problems = validate_plabic(parse_plabic(_read(args.file)))
    else:
        problems = _divide_problems(_load_planar(args.file))
    machine = args.format == "machine"
    if not problems:
        print("RESULT OK" if machine else "OK")
        return 0
    print("RESULT INVALID" if machine else "INVALID")
    for p in problems:
        print(f"VIOLATION {p}" if machine else f"  {p}")
    return 0


def _cmd_regions(args) -> int:
    d = _load_planar(args.file)
    for r in regions(d):
        nodes = " ".join(str(n) for n in r.region_nodes)
        print(f"region {r.index}: nodes {nodes}")
    c = cell_count(d)
    print(f"cells: {c.nodes} nodes + {c.regions} regions = {c.total}")
    return 0


def _cmd_quiver(args) -> int:
    # quiver_of_divide does not validate; on a divide failing D5 it returns
    # the quiver of the attached plabic graph's checkerboard, but the paper
    # defines a divide's quiver only for valid divides, so the verb refuses
    d = _load_planar(args.file)
    problems = _divide_problems(d)
    if problems:
        raise ValueError("not a valid divide\n" + "\n".join(f"  {p}" for p in problems))
    print(format_quiver(quiver_of_divide(d)), end="")
    return 0


def _cmd_mutate(args) -> int:
    q = parse_quiver(_read(args.file))
    print(format_quiver(mutate_seq(q, args.vertices)), end="")
    return 0


def _cmd_mut_equiv(args) -> int:
    q1, q2 = parse_quiver(_read(args.q1)), parse_quiver(_read(args.q2))
    return _emit_verdict(
        mutation_equivalent(q1, q2, _budget(args)), args.format == "machine"
    )


def _cmd_attach(args) -> int:
    print(format_plabic(attach_plabic(_load_planar(args.file))), end="")
    return 0


def _cmd_fence(args) -> int:
    print(format_plabic(fence_of_divide(_load_scannable(args.file))), end="")
    return 0


def _cmd_moves(args) -> int:
    p = parse_plabic(_read(args.file))
    for m in enumerate_moves(p):
        parts = [
            f"{x[0]}.{x[1]}" if isinstance(x, tuple) else str(x) for x in m.site
        ]
        print(f"{m.kind} {' '.join(parts)}")
    return 0


def _cmd_move_equiv(args) -> int:
    p1, p2 = parse_plabic(_read(args.p1)), parse_plabic(_read(args.p2))
    res = move_equivalent(p1, p2, _budget(args), size_slack=args.depth)
    return _emit_verdict(res, args.format == "machine")


def _cmd_braid(args) -> int:
    print(format_braid_word(beta_of_scannable(_load_scannable(args.file))))
    return 0


def _cmd_nf(args) -> int:
    print(left_normal_form(_load_braid(args.word)))
    return 0


def _cmd_delta_div(args) -> int:
    print(delta_divisibility(_load_braid(args.word)))
    return 0


def _cmd_isotopy(args) -> int:
    u, v = _load_braid(args.w1), _load_braid(args.w2)
    decide = solid_torus_isotopic if args.solid_torus else positive_isotopic
    return _emit_verdict(decide(u, v, _budget(args)), args.format == "machine")


def _cmd_orient(args) -> int:
    p = parse_plabic(_read(args.file))
    o = admissible_orientation(p)
    if o is None:
        print("NONE")
        return 0
    for v, s in sorted(o.heads, key=lambda d: (str(d[0]), d[1])):
        print(f"head {v}.{s}")
    return 0


def _oriented_link(path: str):
    p = parse_plabic(_read(path))
    o = admissible_orientation(p)
    if o is None:
        raise ValueError("the plabic graph admits no orientation")
    return link_of_oriented_plabic(p, o)


def _cmd_plabic_link(args) -> int:
    print(format_link_diagram(_oriented_link(args.file)), end="")
    return 0


def _link_arg(arg: str):
    if arg.endswith(".plb"):
        return _oriented_link(arg)
    return _load_link(arg)


def _cmd_alex(args) -> int:
    print(format_poly(alexander(_link_arg(args.input))))
    return 0


def _cmd_jones(args) -> int:
    print(format_poly(jones(_link_arg(args.input)), var="s"))
    return 0


def _cmd_fingerprint(args) -> int:
    link = _link_arg(args.input)
    comps, alex, _ = fingerprint(link)
    # called directly rather than through fingerprint(), which turns a
    # crossing count over the cap into None
    jon = jones(link) if args.jones else None
    machine = args.format == "machine"
    if machine:
        print(f"RESULT components {comps}")
        print(f"ALEXANDER {format_poly(alex)}")
        if args.jones:
            print(f"JONES {format_poly(jon, var='s')}")
    else:
        print(f"components: {comps}")
        print(f"alexander: {format_poly(alex)}")
        if args.jones:
            print(f"jones: {format_poly(jon, var='s')}")
    return 0


def _cmd_yb(args) -> int:
    d = _load_planar(args.file)
    sites = yb_sites(d)
    if args.site is None:
        for i, s in enumerate(sites):
            nodes = " ".join(str(n) for n in s.region_nodes)
            side = " ".join(f"{v}.{sl}" for v, sl in sorted(s.side))
            print(f"site {i}: nodes {nodes} side {side}")
        return 0
    if not 0 <= args.site < len(sites):
        raise ValueError(f"site index {args.site} out of range ({len(sites)} sites)")
    print(format_planar_divide(apply_yb(d, sites[args.site])), end="")
    return 0


def _cmd_overlay(args) -> int:
    s1, s2 = _load_scannable(args.s1), _load_scannable(args.s2)
    print(format_scannable(overlay(s1, s2)), end="")
    return 0


def _cmd_lissajous(args) -> int:
    print(format_scannable(lissajous(args.a, args.b, args.parity)), end="")
    return 0


def _cmd_klein(args) -> int:
    print(format_scannable(klein_act(_load_scannable(args.file), args.element)), end="")
    return 0


def _cmd_accept(args) -> int:
    results = run_acceptance()
    machine = args.format == "machine"
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failed += not r.passed
        if machine:
            print(f"RESULT {r.label} {status} {r.detail}")
        else:
            print(f"{r.label:<4} {status}  {r.title}: {r.detail}")
    if not machine:
        print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--states", type=int, default=10**6,
                        help="search state budget (default 1000000); one state "
                        "is a new normal form for isotopy, a mutation looked "
                        "up for mut-equiv, a move looked up for move-equiv")
    budget.add_argument("--seconds", type=float, default=300.0,
                        help="search time budget in seconds (default 300)")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("plain", "machine"),
                     default="plain", help="output style")

    parser = argparse.ArgumentParser(
        prog="morsify",
        description="Divides, plabic graphs, quivers, positive braids, and links.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, fn, help_, *flags):
        p = sub.add_parser(name, parents=list(flags), help=help_)
        p.set_defaults(fn=fn)
        return p

    verb("validate", _cmd_validate,
         "check a divide or plabic graph file", fmt).add_argument("file")
    verb("regions", _cmd_regions,
         "list regions and cell counts of a divide").add_argument("file")
    verb("quiver", _cmd_quiver,
         "the quiver of a divide").add_argument("file")
    p = verb("mutate", _cmd_mutate, "mutate a quiver at a vertex sequence")
    p.add_argument("file")
    p.add_argument("vertices", type=int, nargs="+")
    p = verb("mut-equiv", _cmd_mut_equiv, "decide mutation equivalence", budget, fmt)
    p.add_argument("q1")
    p.add_argument("q2")
    verb("attach", _cmd_attach,
         "the attached plabic graph of a divide").add_argument("file")
    verb("fence", _cmd_fence,
         "the plabic fence of a scannable divide").add_argument("file")
    verb("moves", _cmd_moves,
         "list legal local moves of a plabic graph").add_argument("file")
    p = verb("move-equiv", _cmd_move_equiv, "decide move equivalence", budget, fmt)
    p.add_argument("p1")
    p.add_argument("p2")
    p.add_argument("--depth", type=int, default=2,
                   help="size slack for move searches (default 2)")
    verb("braid", _cmd_braid,
         "the braid word of a scannable divide").add_argument("file")
    verb("nf", _cmd_nf,
         "Garside left normal form of a braid word").add_argument("word")
    verb("delta-div", _cmd_delta_div,
         "maximal half-twist power dividing a braid word").add_argument("word")
    p = verb("isotopy", _cmd_isotopy, "decide isotopy of closed positive braids",
             budget, fmt)
    p.add_argument("w1")
    p.add_argument("w2")
    p.add_argument("--solid-torus", action="store_true",
                   help="forbid Markov moves (solid-torus isotopy)")
    verb("orient", _cmd_orient,
         "the admissible orientation of a plabic graph").add_argument("file")
    verb("plabic-link", _cmd_plabic_link,
         "the link diagram of an oriented plabic graph").add_argument("file")
    verb("alex", _cmd_alex,
         "Alexander polynomial of a braid word, diagram, or plabic graph"
         ).add_argument("input")
    verb("jones", _cmd_jones,
         "Jones polynomial of a braid word, diagram, or plabic graph"
         ).add_argument("input")
    p = verb("fingerprint", _cmd_fingerprint, "link invariant fingerprint", fmt)
    p.add_argument("input")
    p.add_argument("--jones", action="store_true", help="include Jones")
    p = verb("yb", _cmd_yb, "list or apply triangle-push sites of a divide")
    p.add_argument("file")
    p.add_argument("--site", type=int, default=None,
                   help="apply the move at this site index")
    p = verb("overlay", _cmd_overlay, "transversal overlay of two scannable divides")
    p.add_argument("s1")
    p.add_argument("s2")
    p = verb("lissajous", _cmd_lissajous, "checkerboard divide of (a, b)")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("parity", type=int, nargs="?", default=0)
    p = verb("klein", _cmd_klein, "reflect a scannable divide")
    p.add_argument("file")
    p.add_argument("element", choices=("id", "flipH", "flipV", "rot180"))
    verb("accept", _cmd_accept, "run the acceptance suite", fmt)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.fn(args)
    except (ValueError, OSError, CapExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
