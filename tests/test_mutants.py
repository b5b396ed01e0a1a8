"""Every listed identity can fail: one row per identity, each a semantic
mutant of one public function that the identity's own check catches.

A row names the identity, the function patched (by module and name), the
mutant, the suite and the cell, and pins the failing report there: its
left and right sides and its first witness.  Each row asserts that
``run_suite`` returns and that the identity fails at its cell with that
report.
"""

import json

import pytest

from stirling_forests import bimap, gfs, oracle, pipeline
from stirling_forests.cli import main
from stirling_forests.forest import Forest, forest_profile
from stirling_forests.gfs import MarkedForest
from stirling_forests.oracle import run_suite


def _reversed_zeta(real, w, k):
    """zeta with its trees in reverse order: the roots no longer increase,
    and the last tree, which decides the class, is another one."""
    return Forest(k, real(w, k).trees[::-1])


def _rotated_chi_inv(real, t, k):
    """chi_inv rotated by one letter more."""
    w = real(t, k)
    return w[1:] + w[:1]


def _arity(t):
    return 1 if t.slots is None else len(t.slots)


def _mirrored_phi(real, t, x):
    """The toggle at the mirrored label n + 1 - x: still an involution, and
    the toggles still commute, but the label that changes class is not x."""
    n = len(forest_profile(Forest(_arity(t), (t,))).classes)
    return real(t, n + 1 - x)


def _greatest_young_phi(real, t, x):
    """At a young leaf, the toggle at the greatest young leaf instead."""
    yleaf = forest_profile(Forest(_arity(t), (t,))).yleaf
    return real(t, max(yleaf)) if x in yleaf else real(t, x)


def _untoggled_theta(real, mf):
    """theta dropping the old-internal marks instead of toggling them."""
    return MarkedForest(mf.forest, mf.marks & forest_profile(mf.forest).si_star)


def _theta_prime_dropping_least(real, mf):
    """theta_prime losing its least mark."""
    out = real(mf)
    return MarkedForest(out.forest, out.marks - {min(out.marks)}) if out.marks else out


def _least_young_unremovable(real, f):
    """A profile that no longer counts the least removable young leaf as
    removable, so the next one is taken for the least removable label
    although leaves precede it in the last slot."""
    p = real(f)
    young = p.removable_young
    return p._replace(removable_young=young - {min(young)}) if young else p


def _beta_at_greatest(real, mf):
    """beta at the greatest removable leaf instead of the least."""
    p = forest_profile(mf.forest)
    pool = p.removable_old | p.removable_young
    if not pool:
        return real(mf)
    x = max(pool)
    y = mf.forest.trees[mf.forest.tree_index_of(x)].label
    return MarkedForest(pipeline.psi(mf.forest, x), mf.marks | {y})


def _unmarked_gamma_prime(real, f):
    """gamma_prime giving its forest back with no marks."""
    return MarkedForest(f, frozenset())


def _input_forest(real, mf):
    """A map of marked forests (gamma, the main bijection) giving its
    input's forest back."""
    return mf.forest


_ZETA = (bimap, "_zeta", _reversed_zeta, "bijections")
_THETA = (gfs, "theta", _untoggled_theta, "gfs")
_BETA = (pipeline, "beta_step", _beta_at_greatest, "pipeline")
_MAIN = (pipeline, "main_bijection", _input_forest, "pipeline")

# identity, (module, name, mutant, suite), cell, (left, right, witness)
MUTANTS = [
    ("bij.zeta.roundtrip+ap", _ZETA, (4, 2), (57, 0, "44332211")),
    ("bij.zeta.bar-class", _ZETA, (4, 2), (30, 0, "34432211")),
    ("bij.chi.roundtrip+ap", (bimap, "chi_inv", _rotated_chi_inv, "bijections"), (4, 2),
     (48, 0, "14433221")),
    ("gfs.phi.type-preservation", (gfs, "phi", _mirrored_phi, "gfs"), (4, 2),
     (64, 0, "1[2,3,4;] @ 2/3")),
    ("gfs.phi.commutation", (gfs, "phi", _greatest_young_phi, "gfs"), (4, 2),
     (16, 0, "1[2,3,4;] @ 3,2")),
    ("gfs.theta.roundtrip", (gfs, "theta_prime", _theta_prime_dropping_least, "gfs"), (4, 2),
     (71, 0, "1 2 3 4 | {1}")),
    ("gfs.theta.bar-bijection", _THETA, (4, 2), (60, 60, "1[2[3;];] 4 | {2}")),
    ("gfs.theta.hat-bijection", _THETA, (4, 2), (45, 45, "1 2[3[4;];] | {3}")),
    ("pipe.psi.shift", (oracle, "forest_profile", _least_young_unremovable, "pipeline"), (4, 2),
     (12, 0, "1 2[4;3] @ 3")),
    ("pipe.alpha-after-beta.inversion", _BETA, (4, 2),
     (3, 0, "1[;2] 3 4 | {3} -> 1 2 3 4 | {1,3}")),
    ("pipe.beta.left-clean", _BETA, (4, 2), (1, 0, "1[;2] 3 4 @ 2")),
    ("pipe.beta-after-alpha.inversion", _BETA, (4, 2), (3, 0, "1 2 3[;4] | {1}")),
    ("pipe.gamma.gamma-prime.roundtrip", (pipeline, "gamma_map", _input_forest, "pipeline"),
     (4, 2), (24, 0, "1 2 3[;4]")),
    ("pipe.gamma-prime.gamma.roundtrip",
     (pipeline, "gamma_prime_map", _unmarked_gamma_prime, "pipeline"), (4, 2),
     (24, 0, "1 2 3 4 | {1}")),
    ("pipe.main.bar-bijection", _MAIN, (4, 2), (60, 60, "1 2 3 4 | {1}")),
    ("pipe.main.hat-bijection", _MAIN, (4, 2), (45, 45, "1 2 3[4;] | {1}")),
]


def _patch(monkeypatch, module, name, mutant):
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: mutant(real, *args))


@pytest.mark.parametrize("identity,target,cell,expected", MUTANTS,
                         ids=[row[0] for row in MUTANTS])
def test_mutant_fails_its_identity(monkeypatch, identity, target, cell, expected):
    module, name, mutant, suite = target
    _patch(monkeypatch, module, name, mutant)
    n, k = cell
    reports = {(r.identity, r.n, r.k): r for r in run_suite(n, k, (suite,))}
    report = reports[identity, n, k]
    assert not report.passed and report.witness is not None
    assert (report.left, report.right, report.witness) == expected


# A failing report end to end, under the theta row's mutant: `sf verify`
# exits 1, its JSON line carries the witness, its text line reads FAIL with
# both sides and the witness, and the summary counts the passing reports.
def test_failing_report_through_the_cli(monkeypatch, capsys):
    module, name, mutant, suite = _THETA
    _patch(monkeypatch, module, name, mutant)
    argv = ["verify", "--n-max", "4", "--k-max", "2", "--suite", suite]
    assert main(argv + ["--format", "json"]) == 1
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    failing = [d for d in lines if not d["pass"]]
    assert {"identity": "gfs.theta.bar-bijection", "n": 4, "k": 2, "pass": False,
            "left": 60, "right": 60, "witness": "1[2[3;];] 4 | {2}"} in failing
    assert all("witness" in d for d in failing)
    assert not any("witness" in d for d in lines if d["pass"])
    assert main(argv + ["--format", "text"]) == 1
    text = capsys.readouterr().out.splitlines()
    assert ("FAIL gfs.theta.bar-bijection (n=4, k=2) left=60 right=60 "
            "witness=1[2[3;];] 4 | {2}") in text
    assert text[-1] == f"{len(lines) - len(failing)}/{len(lines)} identities passed"
    assert sum(line.startswith("FAIL ") for line in text) == len(failing)
