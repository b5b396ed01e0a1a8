"""Command-line front end (installed as ``sf``).

Subcommands: enumerate, stats, poly, gamma, map, verify.  Polynomials print
as dense integer arrays lowest degree first (``[1,10,4]``), gamma vectors as
``{"center":2,"gamma":[1,5]}``, words and forests in their canonical text
forms, marked forests as ``<forest> | {1,3}``.  Exit status: 0 on success,
1 when ``verify`` finds a failing identity, 2 on usage or input errors and
when a request exceeds an enumeration or census limit.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bimap, gfs, oracle, pipeline
from .forest import (
    enumerate_forests,
    forest_profile,
    parse_forest,
    serialize_forest,
    serialize_tree,
)
from .gfs import MarkedForest, marked_forest
from .polyx import _egf_last, gamma_expand, symmetric_decompose
from .stirling import (
    DEFAULT_MAX_OBJECTS,
    LimitError,
    enumerate_k_stirling,
    exc_cyc_polynomial,
    is_k_stirling,
    stat_ap,
    stat_lap,
    word_class,
    word_from_text,
    word_to_text,
)

def _usage_error(message: str) -> "SystemExit":
    print(f"sf: error: {message}", file=sys.stderr)
    return SystemExit(2)


def _compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _poly_text(p) -> str:
    return _compact(list(p.coeffs))


def _read_input(value: str) -> str:
    if value == "-":
        return sys.stdin.read().strip()
    return value


def _parse_set(text: str | None) -> list[int]:
    if not text:
        return []
    return [int(x) for x in text.split(",")]


def _parse_marked(text: str, args) -> MarkedForest:
    """A forest with marks given inline (``<forest> | {1,3}``) or via --set."""
    if "|" not in text:
        return marked_forest(parse_forest(text, args.k), _parse_set(args.mark_set))
    if args.mark_set:
        raise ValueError("give marks either inline or via --set")
    forest_text, marks_text = text.split("|", 1)
    marks_text = marks_text.strip()
    if not (marks_text.startswith("{") and marks_text.endswith("}")):
        raise ValueError("marks must look like {1,3}")
    marks = _parse_set(marks_text[1:-1].strip())
    return marked_forest(parse_forest(forest_text.strip(), args.k), marks)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="sf", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list k-Stirling words or forests")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kind", choices=("perms", "forests"), required=True)
    p.add_argument("--filter", choices=("bar", "hat", "tilde", "star"))
    p.add_argument("--limit", type=int, help="stop after this many objects")
    p.add_argument("--max-objects", type=int, default=DEFAULT_MAX_OBJECTS)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("stats", help="statistics of one word or forest")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--type", choices=("word", "forest"), help="disambiguate input")
    p.add_argument("--format", choices=("text", "json"), default="json")

    p = sub.add_parser("poly", help="A, its symmetric parts a/b, or c")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--which", choices=("A", "a", "b", "c"), required=True)
    p.add_argument("--route", choices=("ap", "exc-cyc", "egf"))
    p.add_argument("--max-objects", type=int, default=DEFAULT_MAX_OBJECTS)

    p = sub.add_parser("gamma", help="gamma coefficient vectors")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--which", choices=("a", "b", "c"), required=True)
    p.add_argument("--by", choices=("census", "decomposition"), default="census")
    p.add_argument("--max-objects", type=int, default=DEFAULT_MAX_OBJECTS)

    p = sub.add_parser("map", help="apply a bijection or transformation")
    p.add_argument("--name", choices=tuple(_MAPS), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--x", type=int, help="acting label")
    p.add_argument("--set", dest="mark_set", help="comma-separated labels")
    p.add_argument("--input", required=True, help="object text, or - for stdin")

    p = sub.add_parser("verify", help="run the identity suite")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--suite", action="append", choices=oracle.SUITES,
                   help="repeatable; defaults to all suites")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--max-objects", type=int, default=DEFAULT_MAX_OBJECTS)
    return top


# --filter by --kind: the oracle's family tests, plus the starred forests
_FAMILY = oracle.FAMILY_TESTS
_FILTERS = {
    "perms": {"bar": _FAMILY["Qbar"], "hat": _FAMILY["Qhat"], "tilde": _FAMILY["Qtilde"]},
    "forests": {"bar": _FAMILY["Fbar"], "hat": _FAMILY["Fhat"], "tilde": _FAMILY["T"],
                "star": lambda f, p: p.in_star},
}


def _cmd_enumerate(args) -> int:
    k = args.k
    if args.n < 0:
        raise ValueError("n must be a nonnegative integer")
    if args.limit is not None and args.limit < 0:
        raise ValueError("--limit must be nonnegative")
    if args.kind == "perms":
        objects = enumerate_k_stirling(args.n, k, args.max_objects)
        record, show, key = (lambda w: word_class(w, k)), word_to_text, "word"
    else:
        objects = enumerate_forests(range(1, args.n + 1), k, args.max_objects)
        record, show, key = forest_profile, serialize_forest, "forest"
    test = _FILTERS[args.kind].get(args.filter)
    if args.filter and test is None:
        raise _usage_error("--filter star applies to forests")
    emitted = 0
    for obj in objects:  # the first step runs the enumerator's checks
        if emitted == args.limit:
            break
        if test is not None and not test(obj, record(obj)):
            continue
        text = show(obj)
        print(_compact({key: text}) if args.format == "json" else text)
        emitted += 1
    return 0


def _looks_like_word(text: str, k: int) -> bool:
    if any(c in text for c in "[ ;,"):
        return False
    try:
        return is_k_stirling(word_from_text(text), k)
    except ValueError:
        return False


def _cmd_stats(args) -> int:
    text = _read_input(args.input)
    kind = args.type or ("word" if _looks_like_word(text, args.k) else "forest")
    if kind == "word":
        w = word_from_text(text)
        cls = word_class(w, args.k)
        record = {
            "kind": "word",
            "word": word_to_text(w),
            "valid": is_k_stirling(w, args.k),
            "ap": stat_ap(w, args.k),
            "lap": stat_lap(w, args.k),
            **cls,
        }
    else:
        f = parse_forest(text, args.k)
        p = forest_profile(f)
        record = {
            "kind": "forest",
            "forest": serialize_forest(f),
            **p.stats.as_dict(),
            "in_bar": p.in_bar,
            "in_star": p.in_star,
            "removable_old": sorted(p.removable_old),
            "removable_young": sorted(p.removable_young),
            "Oint_star": sorted(p.oint_star),
            "Si_star": sorted(p.si_star),
        }
    if args.format == "json":
        print(_compact(record))
    else:
        for key, value in record.items():
            print(f"{key}={_compact(value) if isinstance(value, list) else value}")
    return 0


def _a_polynomial(n: int, k: int, route: str, max_objects: int):
    if route == "egf":
        return _egf_last(k, n)
    if route == "exc-cyc":
        return exc_cyc_polynomial(n, k)
    return oracle.distribution("Q", "ap", n, k, max_objects)


def _cmd_poly(args) -> int:
    n, k = args.n, args.k
    if args.which == "c":
        if args.route not in (None, "ap"):
            raise _usage_error("--which c supports only --route ap")
        print(_poly_text(oracle.distribution("Qtilde", "ap", n, k, args.max_objects)))
        return 0
    route = args.route or "egf"
    if args.which == "A":
        print(_poly_text(_a_polynomial(n, k, route, args.max_objects)))
        return 0
    if n < 1:
        raise _usage_error("the symmetric parts need --n >= 1")
    if route == "ap":
        family = "Qbar" if args.which == "a" else "Qhat"
        part = oracle.distribution(family, "ap", n, k, args.max_objects)
        if args.which == "b":
            if part.coeff(0) != 0:
                raise _usage_error("hat-class census has a constant term")
            part = type(part)(part.coeffs[1:])
    else:
        dec = symmetric_decompose(_a_polynomial(n, k, route, args.max_objects), n - 1)
        part = dec.a if args.which == "a" else dec.b
    print(_poly_text(part))
    return 0


def _cmd_gamma(args) -> int:
    n, k = args.n, args.k
    if args.which == "c":
        center = n
        if args.by == "census":
            vec = oracle.gamma_census_tilde(n, k, args.max_objects)
        else:
            c_poly = oracle.distribution("Qtilde", "ap", n, k, args.max_objects)
            vec = list(gamma_expand(c_poly, n).gamma)
    else:
        center = n - 1 if args.which == "a" else n
        if n < 1:
            raise _usage_error("the symmetric parts need --n >= 1")
        if args.by == "census":
            census = oracle.gamma_census_bar_hat(n, k, args.max_objects)
            vec = census["gamma_bar"] if args.which == "a" else census["gamma_hat"]
        else:
            dec = symmetric_decompose(_egf_last(k, n), n - 1)
            part = dec.a if args.which == "a" else dec.b.shift(1)
            vec = list(gamma_expand(part, center).gamma)
    while vec and vec[-1] == 0:  # censuses trim; keep both routes aligned
        vec = vec[:-1]
    print(_compact({"center": center, "gamma": list(vec)}))
    return 0


def _at_x(step, text: str, args) -> str:
    """A forest map that acts at the label --x."""
    if args.x is None:
        raise _usage_error(f"--name {args.name} requires --x")
    return serialize_forest(step(parse_forest(text, args.k), args.x))


def _chi_inv(text: str, args) -> str:
    f = parse_forest(text, args.k)
    if len(f.trees) != 1:
        raise _usage_error("chi-inv expects a single tree")
    return word_to_text(bimap.chi_inv(f.trees[0], args.k))


def _gamma_prime(text: str, args) -> str:
    mf = _parse_marked(text, args)
    if mf.marks:
        raise _usage_error("gamma-prime starts from an unmarked forest")
    return pipeline.gamma_prime_map(mf.forest).text()


# sf map: each name's function from the input text and the arguments to the
# output text.  The entries look the maps up when called, so a wrapper later
# put on a module's function (perfbench/tracer.py) still sees every call.
_MAPS = {
    "xi": lambda text, a: serialize_forest(bimap.xi(word_from_text(text), a.k)),
    "xi-inv": lambda text, a: word_to_text(bimap.xi_inv(parse_forest(text, a.k))),
    "chi": lambda text, a: serialize_tree(bimap.chi(word_from_text(text), a.k)),
    "chi-inv": _chi_inv,
    "zeta": lambda text, a: serialize_forest(bimap.zeta(word_from_text(text), a.k)),
    "zeta-inv": lambda text, a: word_to_text(bimap.zeta_inv(parse_forest(text, a.k))),
    "phi": lambda text, a: _at_x(lambda f, x: gfs.phi_set(f, [x]), text, a),
    "phi-set": lambda text, a: serialize_forest(
        gfs.phi_set(parse_forest(text, a.k), _parse_set(a.mark_set))),
    "theta": lambda text, a: gfs.theta(_parse_marked(text, a)).text(),
    "theta-prime": lambda text, a: gfs.theta_prime(_parse_marked(text, a)).text(),
    "psi": lambda text, a: _at_x(pipeline.psi, text, a),
    "alpha": lambda text, a: pipeline.alpha_step(_parse_marked(text, a)).text(),
    "beta": lambda text, a: pipeline.beta_step(_parse_marked(text, a)).text(),
    "gamma": lambda text, a: serialize_forest(pipeline.gamma_map(_parse_marked(text, a))),
    "gamma-prime": _gamma_prime,
}


def _cmd_map(args) -> int:
    print(_MAPS[args.name](_read_input(args.input), args))
    return 0


def _cmd_verify(args) -> int:
    suites = tuple(args.suite) if args.suite else oracle.SUITES
    reports = oracle.run_suite(args.n_max, args.k_max, suites, args.max_objects)
    failures = [r for r in reports if not r.passed]
    if args.format == "json":
        for r in reports:
            print(_compact(r.as_dict()))
    else:
        for r in reports:
            mark = "PASS" if r.passed else "FAIL"
            line = f"{mark} {r.identity} (n={r.n}, k={r.k})"
            if not r.passed:
                line += f" left={r.left!r} right={r.right!r}"
                if r.witness:
                    line += f" witness={r.witness}"
            print(line)
        print(f"{len(reports) - len(failures)}/{len(reports)} identities passed")
    return 1 if failures else 0


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "stats": _cmd_stats,
    "poly": _cmd_poly,
    "gamma": _cmd_gamma,
    "map": _cmd_map,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SystemExit:
        raise
    except (ValueError, KeyError, LimitError) as exc:
        print(f"sf {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
