"""Command-line front end (installed as ``sf``).

Subcommands: enumerate, stats, poly, gamma, map, verify.  Polynomials print
as dense integer arrays lowest degree first (``[1,10,4]``), gamma vectors as
``{"center":2,"gamma":[1,5]}``, words and forests in their canonical text
forms, marked forests as ``<forest> | {1,3}``; ``sf map`` takes marks only
inline; only ``phi`` and ``psi`` take ``--x``, its labels between commas.
``sf stats`` prints a word's ``word_class`` record (valid or not) or a
forest's profile, and ``--filter`` tests each object's record
(``word_class``, ``forest_stats``); a forest read from text is profiled, so
an invalid one is refused.  Exit status: 0 on success, 1 when ``verify``
finds a failing identity, 2 for every refused input: a ``ValueError``, input
the caller can fix (the enumeration ceiling included), prints one line ``sf
<command>: error: <message>``.  A ``RuntimeError`` is a library fault;
``main`` does not catch it, so it escapes with its traceback.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bimap, gfs, oracle, pipeline
from .forest import (
    enumerate_forests,
    forest_profile,
    forest_stats,
    parse_forest,
    serialize_forest,
    serialize_tree,
)
from .polyx import _egf_last, check_order, gamma_expand, symmetric_decompose
from .stirling import (
    enumerate_k_stirling,
    exc_cyc_polynomial,
    is_k_stirling,
    read_label,
    word_class,
    word_from_text,
    word_to_text,
)

def _compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _read_input(value: str) -> str:
    return sys.stdin.read().strip() if value == "-" else value


def _parse_marked(text: str, args) -> gfs.MarkedForest:
    """A marked forest (a bare one has no marks), in one walk."""
    return gfs.parse_marked(text if "|" in text else text + "|{}", args.k)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="sf", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list k-Stirling words or forests")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kind", choices=("perms", "forests"), required=True)
    p.add_argument("--filter", choices=("bar", "hat", "tilde", "star"))
    p.add_argument("--limit", type=int, help="stop after this many objects")
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

    p = sub.add_parser("gamma", help="gamma coefficient vectors")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--which", choices=("a", "b", "c"), required=True)
    p.add_argument("--by", choices=("census", "decomposition"), default="census")

    p = sub.add_parser("map", help="apply a bijection or transformation")
    p.add_argument("--name", choices=tuple(_MAPS), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--x", help="acting labels between commas (phi; psi: one label)")
    p.add_argument("--input", required=True, help="object text, or - for stdin")

    p = sub.add_parser("verify", help="run the identity suite")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--suite", action="append", choices=oracle.SUITES,
                   help="repeatable; defaults to all suites")
    p.add_argument("--format", choices=("text", "json"), default="text")
    return top


# --filter by --kind: the oracle's family tests, plus the starred forests;
# each test reads its object's record (word_class, forest_stats)
_FAMILY = oracle.FAMILY_TESTS
_FILTERS = {
    "perms": {"bar": _FAMILY["Qbar"], "hat": _FAMILY["Qhat"], "tilde": _FAMILY["Qtilde"]},
    "forests": {"bar": _FAMILY["Fbar"], "hat": _FAMILY["Fhat"], "tilde": _FAMILY["T"],
                "star": lambda w: w.in_star},
}


def _cmd_enumerate(args) -> int:
    k = args.k
    check_order(k, args.n)
    if args.limit is not None and args.limit < 0:
        raise ValueError("--limit must be nonnegative")
    if args.kind == "perms":
        objects = enumerate_k_stirling(args.n, k)
        record, show, key = (lambda w: word_class(w, k)), word_to_text, "word"
    else:
        objects = enumerate_forests(range(1, args.n + 1), k)
        record, show, key = forest_stats, serialize_forest, "forest"
    test = _FILTERS[args.kind].get(args.filter)
    if args.filter and test is None:
        raise ValueError("--filter star applies to forests")
    emitted = 0
    for obj in objects:  # the first step runs the enumerator's checks
        if emitted == args.limit:
            break
        if test is not None and not test(record(obj)):
            continue
        text = show(obj)
        print(_compact({key: text}) if args.format == "json" else text)
        emitted += 1
    return 0


def _looks_like_word(text: str, k: int) -> bool:
    try:
        return is_k_stirling(word_from_text(text), k)
    except ValueError:
        return False


# the counts and classes of the forest record that sf stats prints, in order
_STATS_KEYS = ("lleaf", "si", "oleaf", "yleaf", "oint", "lint", "rleaf", "in_bar", "in_star")


def _cmd_stats(args) -> int:
    text = _read_input(args.input)
    kind = args.type or ("word" if _looks_like_word(text, args.k) else "forest")
    if kind == "word":
        w = word_from_text(text)
        record = {
            "kind": "word",
            "word": word_to_text(w),
            "valid": is_k_stirling(w, args.k),
            **word_class(w, args.k)._asdict(),
        }
    else:
        f = parse_forest(text, args.k)
        p = forest_profile(f)
        record = {
            "kind": "forest",
            "forest": serialize_forest(f),
            **{key: getattr(p.stats, key) for key in _STATS_KEYS},
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


def _part(which: str, route: str | None, n: int, k: int):
    """What ``sf poly`` prints: A by any route (egf by default), a and b with
    A = a + x*b by decomposition or from the bar/hat censuses (ap), or c (ap)."""
    route = route or ("ap" if which == "c" else "egf")
    if which == "c":
        if route != "ap":
            raise ValueError("--which c supports only --route ap")
        return oracle.distribution("Qtilde", "ap", n, k)
    if which != "A" and n < 1:
        raise ValueError("the symmetric parts need --n >= 1")
    if which == "a" and route == "ap":
        return oracle.distribution("Qbar", "ap", n, k)
    if which == "b" and route == "ap":
        hat = oracle.distribution("Qhat", "ap", n, k)
        if hat.coeff(0) != 0:  # a hat word's n^k block follows a smaller letter
            raise RuntimeError("hat-class census has a constant term")
        return type(hat)(hat.coeffs[1:])
    if route == "egf":
        eulerian = _egf_last(k, n)
    elif route == "exc-cyc":
        eulerian = exc_cyc_polynomial(n, k)
    else:
        eulerian = oracle.distribution("Q", "ap", n, k)
    if which == "A":
        return eulerian
    dec = symmetric_decompose(eulerian, n - 1)
    return dec.a if which == "a" else dec.b


def _cmd_poly(args) -> int:
    part = _part(args.which, args.route, args.n, args.k)
    print(_compact(list(part.coeffs)))
    return 0


def _cmd_gamma(args) -> int:
    n, k, which = args.n, args.k, args.which
    center = n - 1 if which == "a" else n
    if which == "c" and n < 2:  # both routes refuse with one text
        raise ValueError("the gamma vector of c needs --n >= 2")
    if n < 1:
        raise ValueError("the symmetric parts need --n >= 1")
    if args.by == "decomposition":
        part = _part(which, None, n, k)
        vec = list(gamma_expand(part.shift(1) if which == "b" else part, center).gamma)
    elif which == "c":
        vec = oracle.gamma_census_tilde(n, k)
    else:
        census = oracle.gamma_census_bar_hat(n, k)
        vec = census["gamma_bar"] if which == "a" else census["gamma_hat"]
    while vec and vec[-1] == 0:  # censuses trim; keep both routes aligned
        vec = vec[:-1]
    print(_compact({"center": center, "gamma": list(vec)}))
    return 0


def _at_x(text: str, args) -> str:
    """phi or psi at the labels --x lists between commas."""
    try:
        labels = [read_label(p.strip()) for p in args.x.split(",")] if args.x else []
    except ValueError as exc:
        raise ValueError(f"in --x: {exc}") from None
    if args.name == "psi" and len(labels) != 1:
        raise ValueError("--name psi takes exactly one label in --x")
    f = parse_forest(text, args.k)
    if args.name == "phi":
        return serialize_forest(gfs.phi_set(f, labels))
    return serialize_forest(pipeline.psi(f, labels[0]))


def _chi_inv(text: str, args) -> str:
    f = parse_forest(text, args.k)
    if len(f.trees) != 1:
        raise ValueError("chi-inv expects a single tree")
    return word_to_text(bimap.chi_inv(f.trees[0], args.k))


def _gamma_prime_unmarked(text: str, args) -> str:
    mf = _parse_marked(text, args)
    if mf.marks:
        raise ValueError("gamma-prime starts from an unmarked forest")
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
    "phi": _at_x,
    "theta": lambda text, a: gfs.theta(_parse_marked(text, a)).text(),
    "theta-prime": lambda text, a: gfs.theta_prime(_parse_marked(text, a)).text(),
    "psi": _at_x,
    "alpha": lambda text, a: pipeline.alpha_step(_parse_marked(text, a)).text(),
    "beta": lambda text, a: pipeline.beta_step(_parse_marked(text, a)).text(),
    "gamma": lambda text, a: serialize_forest(pipeline.gamma_map(_parse_marked(text, a))),
    "gamma-prime": _gamma_prime_unmarked,
}


def _cmd_map(args) -> int:
    check_order(args.k)
    if (args.x is None) == (args.name in ("phi", "psi")):  # the maps that act at labels
        raise ValueError(f"--name {args.name} {'requires' if args.x is None else 'takes no'} --x")
    print(_MAPS[args.name](_read_input(args.input), args))
    return 0


def _cmd_verify(args) -> int:
    suites = tuple(args.suite) if args.suite else oracle.SUITES
    reports = oracle.run_suite(args.n_max, args.k_max, suites)
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
    except ValueError as exc:
        print(f"sf {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
