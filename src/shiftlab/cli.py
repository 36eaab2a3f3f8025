"""Command-line front end: generators -> analyses -> JSON/DOT reports.

Subcommands: analyze | rauzy | evolve | exitwords | density | abstract | xi.
Every JSON report embeds the schema version, tool version, and the
configuration it was produced with; repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .abstract_graphs import (
    abstract_dot,
    bound_report,
    coloring_from_json,
    graph_from_json,
    itinerary_check,
    itinerary_from_json,
    loops_from_json,
    random_graph_with_loops,
    search_colorings,
    validate,
    xi_dot,
    build_xi,
)
from .density import (
    color_estimate,
    density_estimate,
    special_density_floor,
    special_window_check,
)
from .errors import (
    HorizonExceeded,
    InvariantViolation,
    PreconditionFailure,
    ShiftlabError,
)
from .exitwords import decompose, enumerate_exit_words
from .generators import (
    iet_encode,
    oracle_from_prefix,
    read_iet_file,
    read_json_file,
    read_sequence_file,
    read_substitution_file,
    rotation_coding,
    substitution_fixed_point,
)
from .language import analysis_report, growth_profile
from .rauzy import build_rauzy, build_special_rauzy, evolve, rauzy_dot, special_rauzy_dot
from .words import Word, minimal_step

SCHEMA_VERSION = 1


def _envelope(args: argparse.Namespace, payload: dict) -> dict:
    config = {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in sorted(vars(args).items())
        if v is not None
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "config": config,
        **payload,
    }


def _emit(args: argparse.Namespace, text: str, default_name: str) -> None:
    out = getattr(args, "out", None)
    if out is None:
        sys.stdout.write(text)
        return
    path = Path(out)
    if path.is_dir():
        path = path / default_name
    path.write_text(text)


def _emit_json(args: argparse.Namespace, payload: dict, default_name: str) -> None:
    _emit(
        args,
        json.dumps(_envelope(args, payload), indent=2, sort_keys=True) + "\n",
        default_name,
    )


def _load_prefix(args: argparse.Namespace):
    chosen = [
        k
        for k in ("substitution", "iet", "rotation", "seq")
        if getattr(args, k, None)
    ]
    if len(chosen) != 1:
        raise ValueError(
            "choose exactly one input: --substitution, --iet, --rotation, --seq"
        )
    length = args.length if args.length is not None else max(4 * args.horizon, 2000)
    kind = chosen[0]
    if kind == "seq" and args.length is not None:
        raise ValueError("--length does not apply to --seq: the file fixes the length")
    if kind == "substitution":
        spec = read_substitution_file(args.substitution)
        return substitution_fixed_point(spec, length)
    if kind == "iet":
        spec = read_iet_file(args.iet)
        prefix, _ = iet_encode(spec, length)
        return prefix
    if kind == "rotation":
        try:
            alpha = Fraction(args.rotation)
        except (ValueError, ZeroDivisionError):
            raise ValueError(
                f"--rotation needs a rational number p/q, got {args.rotation!r}"
            ) from None
        if not 0 < alpha < 1:
            raise ValueError(f"--rotation must lie in (0, 1), got {args.rotation!r}")
        return rotation_coding(alpha, length)
    return read_sequence_file(args.seq)


def _load_oracle(args: argparse.Namespace):
    prefix = _load_prefix(args)
    return prefix, oracle_from_prefix(prefix, args.horizon)


# -- subcommands -------------------------------------------------------------


def cmd_analyze(args: argparse.Namespace) -> int:
    _, oracle = _load_oracle(args)
    n_min = 1 if args.n is None else args.n
    if args.n is not None:
        # the bispecial scan from n reads length n + 3
        oracle.require_length(args.n + 3, f"--n {args.n}")
    _emit_json(args, analysis_report(oracle, n_min=n_min), "analysis.json")
    return 0


def cmd_rauzy(args: argparse.Namespace) -> int:
    _, oracle = _load_oracle(args)
    n = args.n
    g = build_rauzy(oracle, n)
    sg = build_special_rauzy(oracle, n)
    if args.format == "json":
        payload = {
            "n": n,
            "factor_graph": {
                "vertices": len(g.vertices),
                "edges": len(g.edges),
            },
            "special_graph": {
                "vertices": sg.vertex_count,
                "edges": sg.edge_count,
            },
        }
        _emit_json(args, payload, f"rauzy_n{n}.json")
        return 0
    text = rauzy_dot(g, oracle) + special_rauzy_dot(sg, oracle)
    _emit(args, text, f"rauzy_n{n}.dot")
    return 0


def cmd_evolve(args: argparse.Namespace) -> int:
    # every step ends past its start, so such a run could list nothing
    if args.n_max is not None and args.n_max <= args.n:
        raise ValueError(f"--n-max {args.n_max} must exceed --n {args.n}")
    _, oracle = _load_oracle(args)
    n = args.n
    # a step from n reads length n + 3
    oracle.require_length(n + 3, f"--n {n}")
    n_max = oracle.horizon - 4 if args.n_max is None else args.n_max
    steps = []
    while n <= n_max:
        try:
            step = evolve(oracle, n)
        except HorizonExceeded:
            break
        if step.n_prime > n_max:
            break
        steps.append(step)
        n = step.n_prime
    if args.format == "dot":
        dots = [special_rauzy_dot(s.after, oracle, name=f"step_{s.n_prime}") for s in steps]
        _emit(args, "".join(dots), "evolution.dot")
        return 0
    payload = [
        {
            "n": s.n,
            "bispecial_length": s.n_tilde,
            "n_prime": s.n_prime,
            "rbs_events": [str(w) for w in s.rbs_events],
            "profile_preserved": s.profile_preserved,
            "vertices": s.after.vertex_count,
            "edges": s.after.edge_count,
        }
        for s in steps
    ]
    _emit_json(args, {"steps": payload}, "evolution.json")
    return 0


def cmd_exitwords(args: argparse.Namespace) -> int:
    if args.cap is not None and args.cap < 1:
        raise ValueError(f"--cap must be >= 1, got {args.cap}")
    prefix, oracle = _load_oracle(args)
    w = oracle.alphabet.word(args.w)
    if not oracle.contains(w):
        raise PreconditionFailure(f"{w} is not a factor")
    if args.q is None:
        q = minimal_step(w, oracle)
        if q is None:
            raise ValueError(f"{args.w} has no valid step; pass --q explicitly")
    else:
        q = args.q
    report = enumerate_exit_words(w, q, oracle, cap=args.cap)
    payload: dict = {"enumeration": report.to_json()}
    if args.z:
        z = oracle.alphabet.word(args.z)
        payload["decomposition"] = {
            "z": args.z,
            "q": q,
            "representations": [r.to_json() for r in decompose(z, w, q, oracle)],
        }
    _emit_json(args, payload, "exitwords.json")
    return 0


def cmd_density(args: argparse.Namespace) -> int:
    # checked before the input is read, with the oracle's message
    if args.n < 1:
        raise ValueError("length must be >= 1")
    if not (args.word or args.special or args.window_check or args.color):
        raise ValueError("density needs --word, --special, --window-check or --color")
    prefix, oracle = _load_oracle(args)
    if args.k is not None and args.k < 1:
        raise ValueError(f"--k must be >= 1, got {args.k}")
    # a negative slack would demand more than the 1/K floor
    if not 0 <= args.theta_tol < math.inf:
        raise ValueError(f"--theta-tol must be a finite number >= 0, got {args.theta_tol}")
    profile = growth_profile(oracle)
    K = profile.K if args.k is None else args.k
    if K is None:
        raise ValueError("growth is not constant within horizon; pass --k")
    if K == 0:
        raise ValueError("periodic language: the branching constant is undefined")
    if args.theta is not None and not 0 < args.theta < 1 / (2 * K):
        raise ValueError(f"--theta must lie in (0, 1/(2K)) for K={K}, got {args.theta}")
    payload: dict = {"K": K}
    if args.word:
        w = oracle.alphabet.word(args.word)
        payload["density"] = density_estimate(w, prefix, K).to_json()
    if args.special:
        side = args.side or "left"
        rep = special_density_floor(
            oracle, prefix, args.n, side, K, tolerance=args.theta_tol
        )
        payload["floor"] = rep.to_json()
    if args.window_check:
        wc = special_window_check(oracle, prefix, args.n, K)
        payload["window_check"] = {
            "ok": wc.ok,
            "windows": wc.windows,
            "first_failure": list(wc.first_failure) if wc.first_failure else None,
        }
    if args.color:
        side = args.side or "left"
        oracle.require_length(args.n + 2, "color ladder")
        oracle.require_length(args.n, "color ladder")
        # rungs cut from one special word lie on one vertex (left specials
        # are closed under prefixes, right specials under suffixes)
        top = min(args.n + 8, oracle.horizon - 2)
        v = min(oracle.special_strings(top, side), default=None)
        ladder = [] if v is None else [
            Word(oracle.alphabet, v[:m] if side == "left" else v[top - m:])
            for m in range(args.n, top + 1)
        ]
        candidates = {"self": prefix}
        for item in args.candidate or ():
            label, eq, path = item.partition("=")
            if not (eq and label and path):
                raise ValueError(f"--candidate {item!r}: expected LABEL=FILE")
            candidate = read_sequence_file(path)
            if candidate.alphabet != oracle.alphabet:
                raise ValueError(
                    f"candidate {label!r} ({path}) uses alphabet "
                    f"{','.join(candidate.alphabet.symbols)}, the sequence uses "
                    f"{','.join(oracle.alphabet.symbols)}"
                )
            candidates[label] = candidate
        ce = color_estimate(ladder, candidates, K, threshold=args.theta)
        payload["color"] = ce.to_json()
    _emit_json(args, payload, "density.json")
    return 0


def cmd_abstract(args: argparse.Namespace) -> int:
    if args.search is not None and args.search < 1:
        raise ValueError("--search must be >= 1")
    if args.graph:
        obj = read_json_file(args.graph, "--graph")
        if not isinstance(obj, dict):
            raise ValueError(f"{args.graph}: expected a JSON object")
        g = graph_from_json(obj.get("graph", obj))
        coloring = (
            coloring_from_json(obj["coloring"]) if "coloring" in obj else None
        )
        loops = loops_from_json(obj.get("loops", {}))
    elif args.random:
        rng = random.Random(args.seed)
        g, loops = random_graph_with_loops(rng)
        coloring = None
    else:
        raise ValueError("abstract needs --graph FILE or --random")
    rep = validate(g, coloring)
    payload = {
        "validation": {
            "ok": rep.ok,
            "violations": list(rep.violations),
            "K": rep.K,
            "K_left": rep.K_left,
            "K_right": rep.K_right,
        }
    }
    # the bound's and the search's precondition: the structural rules
    # alone, as neither uses the given coloring
    structural = rep.violations if coloring is None else validate(g).violations
    if loops:
        # building the quotient still refuses malformed loops
        xi = build_xi(g, loops)
        payload["bound"] = None if structural else bound_report(xi).to_json()
    if args.search:
        if structural:
            raise ValueError(f"graph invalid: {structural[0]}")
        res = search_colorings(g, args.search)
        payload["search"] = {
            "target": args.search,
            "found": res.found is not None,
            "loops": {lab: list(lp.edges) for lab, lp in res.found[1].items()}
            if res.found
            else None,
            "exhausted": res.exhausted,
            "note": res.note,
        }
    if args.format == "dot":
        _emit(args, abstract_dot(g, coloring, loops or None), "abstract.dot")
    else:
        _emit_json(args, payload, "abstract.json")
    return 0


def cmd_xi(args: argparse.Namespace) -> int:
    if not args.itinerary:
        raise ValueError("xi needs --itinerary FILE")
    obj = read_json_file(args.itinerary, "--itinerary")
    it = itinerary_from_json(obj)
    verdict = itinerary_check(it)
    payload: dict = {
        "itinerary_valid": verdict.ok,
        "violations": list(verdict.violations),
    }
    xi = build_xi(it.graphs[0], it.partitions[0], verdict.moves)
    payload["bound"] = bound_report(xi).to_json()
    if args.format == "dot":
        _emit(args, xi_dot(xi), "xi.dot")
    else:
        _emit_json(args, payload, "xi.json")
    return 0


# -- argument parsing ---------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, like other bad input (2 is a horizon)."""

    def error(self, message: str):
        self.exit(1, f"{self.format_usage()}{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing does not change it."""
    parser = _Parser(
        prog="shiftlab",
        description="Symbolic-dynamics workbench: factor languages, "
        "branching graphs, exit words, block densities, loop bounds.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(
        p: argparse.ArgumentParser, inputs: bool = True, formats: tuple = ("json", "dot")
    ) -> None:
        p.add_argument("--out", help="output file or directory (default stdout)")
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--seed", type=int, default=0)
        if inputs:
            p.add_argument("--horizon", type=int, default=24)
            p.add_argument("--length", type=int, help="prefix/orbit length (>= 1)")
            p.add_argument("--substitution", help="substitution spec JSON file")
            p.add_argument("--iet", help="interval exchange spec JSON file")
            p.add_argument("--rotation", help="rotation number p/q")
            p.add_argument("--seq", help="sequence file")

    p = sub.add_parser("analyze", help="growth / regular-bispecial / periodicity report")
    add_common(p, formats=("json",))
    p.add_argument("--n", type=int, help="least length for the bispecial scan")

    p = sub.add_parser("rauzy", help="factor graph and its branching skeleton")
    add_common(p)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("evolve", help="evolve the branching skeleton across lengths")
    add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--n-max", type=int, dest="n_max")

    p = sub.add_parser("exitwords", help="enumerate and decompose exit words")
    add_common(p, formats=("json",))
    p.add_argument("--w", required=True, help="base word (token string)")
    p.add_argument("--q", type=int, help="step (default: minimal step)")
    p.add_argument("--z", help="word to decompose")
    p.add_argument("--cap", type=int, help="length cap for enumeration")

    p = sub.add_parser("density", help="block densities and the special floor")
    add_common(p, formats=("json",))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, help="branching constant override")
    p.add_argument("--word", help="single word to estimate")
    p.add_argument("--special", action="store_true", help="special-word floor")
    p.add_argument("--side", choices=("left", "right"))
    p.add_argument("--theta", type=float, dest="theta",
                   help="color threshold (default 1/(4K))")
    p.add_argument("--theta-tol", type=float, dest="theta_tol", default=0.05)
    p.add_argument(
        "--window-check", action="store_true", dest="window_check",
        help="exact special-in-every-window check",
    )
    p.add_argument("--color", action="store_true",
                   help="threshold color estimate for the special ladder")
    p.add_argument("--candidate", action="append",
                   help="extra candidate sequence as label=path (repeatable)")

    p = sub.add_parser("abstract", help="validate/search abstract branching graphs")
    add_common(p, inputs=False)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--graph", help="graph JSON file (graph/coloring/loops)")
    source.add_argument("--random", action="store_true", help="generate a random instance")
    p.add_argument("--search", type=int, help="search for this many disjoint colored loops")

    p = sub.add_parser("xi", help="loop-quotient connectivity and the loop bound")
    add_common(p, inputs=False)
    p.add_argument("--itinerary", help="itinerary JSON file")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # looked up per call, so a replaced cmd_<name> takes effect
        return globals()[f"cmd_{args.command}"](args)
    except HorizonExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"internal error (a bug): {exc}", file=sys.stderr)
        return 3
    except (ShiftlabError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
