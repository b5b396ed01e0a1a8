import hashlib
import io
import json
from itertools import accumulate, combinations
from math import comb

import pytest

import stirling_forests.forest as forest_module
from stirling_forests import cli, oracle
from stirling_forests.cli import main
from stirling_forests.forest import enumerate_forests, serialize_forest
from stirling_forests.gfs import phi_set
from stirling_forests.polyx import IntPolynomial, gamma_expand
from stirling_forests.stirling import count_k_stirling, word_to_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPoly:
    def test_exc_cyc_route(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "--n", "3", "--k", "2",
                               "--which", "A", "--route", "exc-cyc")
        assert code == 0
        assert out.strip() == "[1,10,4]"

    def test_routes_agree(self, capsys):
        outputs = set()
        for route in ("ap", "exc-cyc", "egf"):
            code, out, _ = run_cli(capsys, "poly", "--n", "4", "--k", "3",
                                   "--which", "A", "--route", route)
            assert code == 0
            outputs.add(out.strip())
        assert outputs == {"[1,81,171,27]"}

    def test_parts(self, capsys):
        _, out_a, _ = run_cli(capsys, "poly", "--n", "3", "--k", "2", "--which", "a")
        assert out_a.strip() == "[1,7,1]"
        _, out_b, _ = run_cli(capsys, "poly", "--n", "3", "--k", "2", "--which", "b")
        assert out_b.strip() == "[3,3]"
        _, out_b2, _ = run_cli(capsys, "poly", "--n", "3", "--k", "2",
                               "--which", "b", "--route", "ap")
        assert out_b2.strip() == "[3,3]"

    def test_c(self, capsys):
        _, out, _ = run_cli(capsys, "poly", "--n", "3", "--k", "3", "--which", "c")
        assert out.strip() == "[0,9,9]"

    def test_hat_census_constant_term_is_refused(self, capsys, monkeypatch):
        # b = Qhat/x needs a census with no constant term; no input yields
        # one, so it is a library fault and escapes main
        monkeypatch.setattr(oracle, "distribution", lambda *a: IntPolynomial((1, 1)))
        with pytest.raises(RuntimeError, match="^hat-class census has a constant term$"):
            main(["poly", "--n", "3", "--k", "2", "--which", "b", "--route", "ap"])


class TestGamma:
    def test_census_a(self, capsys):
        _, out, _ = run_cli(capsys, "gamma", "--n", "3", "--k", "2", "--which", "a")
        assert json.loads(out) == {"center": 2, "gamma": [1, 5]}

    @pytest.mark.parametrize("which", ["a", "b", "c"])
    def test_census_needs_positive_k(self, capsys, which):
        code, out, err = run_cli(capsys, "gamma", "--n", "3", "--k", "0",
                                 "--which", which, "--by", "census")
        assert code == 2 and out == ""
        assert "k must be a positive integer" in err

    def test_all_routes_match(self, capsys):
        for which, center in (("a", 2), ("b", 3), ("c", 3)):
            seen = []
            for by in ("census", "decomposition"):
                code, out, _ = run_cli(capsys, "gamma", "--n", "3", "--k", "2",
                                       "--which", which, "--by", by)
                assert code == 0
                record = json.loads(out)
                assert record["center"] == center
                seen.append(tuple(record["gamma"]))
            assert seen[0] == seen[1]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_decomposition_expands_poly_parts(self, capsys, k):
        # gamma(a) about n - 1, gamma(x b) and gamma(c) about n; c needs
        # n >= 2 and comes from a word census, so it is checked only where
        # Q_n(k) is small
        for n in range(1, 13):
            for which, center in (("a", n - 1), ("b", n), ("c", n)):
                if which == "c" and (n < 2 or count_k_stirling(n, k) > 20_000):
                    continue
                _, poly, _ = run_cli(capsys, "poly", "--n", str(n), "--k", str(k),
                                     "--which", which)
                part = IntPolynomial(json.loads(poly))
                if which == "b":
                    part = part.shift(1)
                vec = list(gamma_expand(part, center).gamma)
                while vec and vec[-1] == 0:
                    vec.pop()
                code, out, _ = run_cli(capsys, "gamma", "--n", str(n), "--k", str(k),
                                       "--which", which, "--by", "decomposition")
                assert code == 0
                assert json.loads(out) == {"center": center, "gamma": vec}

    @pytest.mark.parametrize("which", ["a", "b"])
    def test_decomposition_at_n_120(self, capsys, eulerian_recurrence, which):
        n, k = 120, 3
        code, out, _ = run_cli(capsys, "gamma", "--n", str(n), "--k", str(k),
                               "--which", which, "--by", "decomposition")
        assert code == 0
        record = json.loads(out)
        center = n - 1 if which == "a" else n
        assert record["center"] == center
        assert all(g >= 0 for g in record["gamma"])
        # h = a + x b: a = (h - x^n h(1/x)) / (1 - x) about n - 1 and
        # b = (x^(n-1) h(1/x) - h) / (1 - x) about n - 2
        h = eulerian_recurrence(k, n)[n] + [0]
        a = list(accumulate(h[i] - h[n - i] for i in range(n)))
        b = list(accumulate(h[n - 1 - i] - h[i] for i in range(n - 1)))
        assert [x + y for x, y in zip(a, [0] + b)] == h[:n]
        expected = a if which == "a" else [0] + b + [0]  # x b, padded to x^n
        composed = [0] * (center + 1)
        for i, g in enumerate(record["gamma"]):
            for j in range(center - 2 * i + 1):
                composed[i + j] += g * comb(center - 2 * i, j)
        assert composed == expected


class TestMap:
    def test_psi_golden(self, capsys):
        code, out, _ = run_cli(capsys, "map", "--name", "psi", "--k", "3",
                               "--x", "2", "--input", "1[3;;7] 2 4[;;6] 5 8")
        assert code == 0
        assert out.strip() == "1[3;;7] 2[;;4[;;6],5] 8"

    def test_xi_and_inverse_compose_to_identity(self, capsys):
        word = "133377711446664225552888"
        _, forest, _ = run_cli(capsys, "map", "--name", "xi", "--k", "3",
                               "--input", word)
        _, back, _ = run_cli(capsys, "map", "--name", "xi-inv", "--k", "3",
                             "--input", forest.strip())
        assert back.strip() == word

    def test_phi_x_is_phi_set(self, capsys, monkeypatch):
        # --x lists phi's labels between commas: on every forest with n <= 4
        # at k <= 3 and every label subset, sf map gives gfs.phi_set's forest
        parser = cli.build_parser()
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        calls = 0
        for k in (1, 2, 3):
            for n in range(5):
                for f in enumerate_forests(range(1, n + 1), k):
                    text = serialize_forest(f)
                    for r in range(n + 1):
                        for labels in combinations(range(1, n + 1), r):
                            code, out, _ = run_cli(capsys, "map", "--name", "phi", "--k", str(k),
                                                   "--x", ",".join(map(str, labels)),
                                                   "--input", text)
                            assert (code, out) == (0, serialize_forest(phi_set(f, labels)) + "\n")
                            calls += 1
        assert calls == 443 + 1815 + 4723

    @pytest.mark.parametrize("x", ["1,2", "", "2, 2"])
    def test_psi_takes_one_label(self, capsys, x):
        code, out, err = run_cli(capsys, "map", "--name", "psi", "--k", "2", "--x", x,
                                 "--input", "1 2 3")
        assert (code, out) == (2, "")
        assert err == "sf map: error: --name psi takes exactly one label in --x\n"

    def test_zeta_chi_phi(self, capsys):
        _, out, _ = run_cli(capsys, "map", "--name", "zeta", "--k", "3",
                            "--input", "888244666422555113337771")
        assert out.strip() == "1[;3,7;] 2[4[;;6];;5] 8"
        _, out, _ = run_cli(capsys, "map", "--name", "chi", "--k", "3",
                            "--input", "244666422555")
        assert out.strip() == "2[4[;;6];;5]"
        _, out, _ = run_cli(capsys, "map", "--name", "phi", "--k", "3", "--x", "4",
                            "--input", "1[3,4[5,10;6[;9;],8;7];;2]")
        assert out.strip() == "1[3,4,5,10;6[;9;],8;2,7]"

    def test_marked_maps(self, capsys):
        _, out, _ = run_cli(capsys, "map", "--name", "theta", "--k", "2",
                            "--input", "1[2[3;];] | {2}")
        assert out.strip() == "1[2,3;] | {}"
        _, out, _ = run_cli(capsys, "map", "--name", "theta-prime", "--k", "2",
                            "--input", "1[2,3;] | {}")
        assert out.strip() == "1[2[3;];] | {2}"
        _, out, _ = run_cli(capsys, "map", "--name", "gamma", "--k", "3",
                            "--input", "1 2[;5;] 3 4[;;7] 6 8[;9,10;] | {1,3}")
        assert out.strip() == "1[;9,10;2[;5;],3[;;4[;;7],6],8]"
        _, out, _ = run_cli(capsys, "map", "--name", "gamma-prime", "--k", "2",
                            "--input", "1[;2] 3")
        assert out.strip() == "1 2 3 | {1}"
        _, out, _ = run_cli(capsys, "map", "--name", "alpha", "--k", "2",
                            "--input", "1 2 3 | {1}")
        assert out.strip() == "1[;2] 3 | {}"
        _, out, _ = run_cli(capsys, "map", "--name", "beta", "--k", "2",
                            "--input", "1[;2] 3 | {}")
        assert out.strip() == "1 2 3 | {1}"

    @pytest.mark.parametrize("argv,text", [
        (["--name", "theta", "--input", "1 2 | {a}"], "marks must look like {1,3}"),
        (["--name", "alpha", "--input", "1 2 3 | {1,,2}"], "marks must look like {1,3}"),
        (["--name", "phi", "--x", "1,,2", "--input", "1 2 3"],
         "in --x: labels must be runs of decimal digits"),
        (["--name", "phi", "--x", "a", "--input", "1 2 3"],
         "in --x: labels must be runs of decimal digits"),
    ])
    def test_malformed_marks_refused(self, capsys, argv, text):
        code, out, err = run_cli(capsys, "map", "--k", "2", *argv)
        assert (code, out, err) == (2, "", f"sf map: error: {text}\n")

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1122\n"))
        code, out, _ = run_cli(capsys, "map", "--name", "zeta", "--k", "2",
                               "--input", "-")
        assert code == 0
        assert out.strip() == "1[;2]"

    def test_deep_nested_word_round_trip(self, capsys, monkeypatch):
        # order 5000 at k = 2: the copies of each letter wrap every larger
        # letter, so the forest is one path 5000 levels deep
        n = 5000
        word = ".".join(map(str, [*range(1, n), n, n, *range(n - 1, 0, -1)]))
        monkeypatch.setattr("sys.stdin", io.StringIO(word))
        code, forest, _ = run_cli(capsys, "map", "--name", "xi", "--k", "2", "--input", "-")
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(forest))
        code, back, _ = run_cli(capsys, "map", "--name", "xi-inv", "--k", "2", "--input", "-")
        assert code == 0
        assert back.strip() == word
        monkeypatch.setattr("sys.stdin", io.StringIO(forest))
        code, out, _ = run_cli(capsys, "stats", "--type", "forest", "--k", "2", "--input", "-")
        assert code == 0
        _, word_out, _ = run_cli(capsys, "stats", "--k", "2", "--input", word)
        assert json.loads(out)["lleaf"] == json.loads(word_out)["lap"] == 1

    def test_phi_on_deep_nested_forest(self, capsys, monkeypatch):
        # the order-5000 nested forest is one path 5000 levels deep; 5000 is
        # its young-leaf bottom with no greater sibling, so toggling it is the
        # identity, and 2500 is an old internal node whose toggle is undone
        # by a second one
        n = 5000
        word = ".".join(map(str, [*range(1, n), n, n, *range(n - 1, 0, -1)]))
        monkeypatch.setattr("sys.stdin", io.StringIO(word))
        _, forest, _ = run_cli(capsys, "map", "--name", "xi", "--k", "2", "--input", "-")

        def phi(text, x):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            code, out, _ = run_cli(capsys, "map", "--name", "phi", "--k", "2",
                                   "--x", str(x), "--input", "-")
            assert code == 0
            return out

        assert phi(forest, n) == forest
        once = phi(forest, n // 2)
        assert once != forest
        assert phi(once, n // 2) == forest

    def test_bad_input_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "map", "--name", "zeta", "--k", "2",
                               "--input", "1212")
        assert code == 2
        assert "error" in err

    def test_missing_x_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "map", "--name", "phi", "--k", "2", "--input", "1")
        assert (code, out) == (2, "")
        assert err == "sf map: error: --name phi requires --x\n"

    # each refusal the command layer makes itself: exit 2, nothing on stdout
    # and one stderr line; the constant-term refusal needs a patched census
    # and is in TestPoly
    @pytest.mark.parametrize("argv,message", [
        (["map", "--k", "2", "--name", "psi", "--input", "1 2"], "--name psi requires --x"),
        (["map", "--k", "2", "--name", "chi-inv", "--input", "1 2"],
         "chi-inv expects a single tree"),
        (["map", "--k", "2", "--name", "gamma-prime", "--input", "1 2 | {1}"],
         "gamma-prime starts from an unmarked forest"),
        (["enumerate", "--n", "3", "--k", "2", "--kind", "perms", "--filter", "star"],
         "--filter star applies to forests"),
        (["poly", "--n", "3", "--k", "2", "--which", "c", "--route", "egf"],
         "--which c supports only --route ap"),
        (["poly", "--n", "0", "--k", "2", "--which", "b"], "the symmetric parts need --n >= 1"),
        (["gamma", "--n", "0", "--k", "2", "--which", "a"], "the symmetric parts need --n >= 1"),
        (["gamma", "--n", "0", "--k", "2", "--which", "b", "--by", "decomposition"],
         "the symmetric parts need --n >= 1"),
    ])
    def test_usage_error_texts(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"sf {argv[0]}: error: {message}\n"

    def test_phi_at_absent_label_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "map", "--name", "phi", "--k", "2", "--x", "9",
                                 "--input", "1[;2] 3")
        assert code == 2 and out == ""
        assert err.startswith("sf map: error:") and "9" in err

    @pytest.mark.parametrize("argv", [
        ["--name", "phi", "--x", "9", "--input", "1[;2] 3"],
        ["--name", "phi", "--x", "2,9", "--input", "1[;2] 3"],
        ["--name", "psi", "--x", "9", "--input", "1[;2] 3"],
        ["--name", "theta", "--input", "1[;2] 3 | {9}"],
        ["--name", "alpha", "--input", "1 2 3 | {9}"],
    ])
    def test_absent_label_error_text(self, capsys, argv):
        code, out, err = run_cli(capsys, "map", "--k", "2", *argv)
        assert (code, out) == (2, "")
        assert err == "sf map: error: labels [9] do not occur in the forest\n"


class TestEnumerateStats:
    def test_enumerate_perms(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "2", "--k", "2",
                               "--kind", "perms")
        assert code == 0
        assert out.split() == ["2211", "1221", "1122"]

    def test_enumerate_forest_filters(self, capsys):
        _, out, _ = run_cli(capsys, "enumerate", "--n", "3", "--k", "2",
                            "--kind", "forests")
        assert len(out.strip().splitlines()) == 15
        _, out, _ = run_cli(capsys, "enumerate", "--n", "3", "--k", "2",
                            "--kind", "forests", "--filter", "bar")
        assert len(out.strip().splitlines()) == 9
        _, out, _ = run_cli(capsys, "enumerate", "--n", "3", "--k", "2",
                            "--kind", "forests", "--filter", "hat")
        assert len(out.strip().splitlines()) == 6
        _, out, _ = run_cli(capsys, "enumerate", "--n", "3", "--k", "2",
                            "--kind", "forests", "--filter", "star")
        assert len(out.strip().splitlines()) == 9  # 6 bar-starred + 3 hat-starred

    def test_enumerate_limit_and_json(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "3", "--k", "2",
                               "--kind", "perms", "--limit", "4",
                               "--format", "json")
        lines = out.strip().splitlines()
        assert code == 0 and len(lines) == 4
        assert all("word" in json.loads(line) for line in lines)

    def test_limit_zero_prints_nothing(self, capsys):
        for kind in ("perms", "forests"):
            code, out, _ = run_cli(capsys, "enumerate", "--n", "3", "--k", "2",
                                   "--kind", kind, "--limit", "0")
            assert code == 0 and out == ""

    @pytest.mark.parametrize("argv", [
        ["--n", "3", "--k", "2", "--kind", "forests", "--limit", "-1"],
        ["--n", "2", "--k", "0", "--kind", "forests"],
        ["--n", "2", "--k", "0", "--kind", "forests", "--limit", "0"],
        ["--n", "-1", "--k", "2", "--kind", "forests"],
        ["--n", "-1", "--k", "2", "--kind", "perms"],
    ])
    def test_bad_enumerate_request_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "enumerate", *argv)
        assert code == 2 and out == ""
        assert err.startswith("sf enumerate: error: ")

    def test_stats_word(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "--k", "3",
                               "--input", "133377711446664225552888")
        record = json.loads(out)
        assert record["kind"] == "word"
        assert record["ap"] == 5 and record["lap"] == 5
        assert record["in_tilde"] is True

    @pytest.mark.parametrize("k,word,fmt,expected", [
        ("3", "133377711446664225552888", "json",
         '{"kind":"word","word":"133377711446664225552888","valid":true,'
         '"ap":5,"lap":5,"in_bar":false,"in_tilde":true}\n'),
        # a word shorter than k: no plateau to patch in front, so lap = ap
        ("2", "1", "json",
         '{"kind":"word","word":"1","valid":false,'
         '"ap":0,"lap":0,"in_bar":true,"in_tilde":true}\n'),
        ("2", "1", "text",
         "kind=word\nword=1\nvalid=False\nap=0\nlap=0\nin_bar=True\nin_tilde=True\n"),
    ])
    def test_stats_word_record_is_fixed(self, capsys, k, word, fmt, expected):
        code, out, _ = run_cli(capsys, "stats", "--k", k, "--type", "word", "--input", word,
                               "--format", fmt)
        assert code == 0 and out == expected

    def test_stats_forest(self, capsys):
        # whole records, byte for byte
        cases = [
            ("3", "1[;3,7;] 2[4[;;6];;5] 8",
             '"lleaf":5,"si":1,"oleaf":3,"yleaf":1,"oint":0,"lint":3,"rleaf":0,'
             '"in_bar":true,"in_star":false,"removable_old":[],"removable_young":[],'
             '"Oint_star":[],"Si_star":[]'),
            ("3", "1[3;2;] 4[;6,8;5,7]",
             '"lleaf":6,"si":0,"oleaf":2,"yleaf":4,"oint":0,"lint":2,"rleaf":1,'
             '"in_bar":false,"in_star":false,"removable_old":[],"removable_young":[5],'
             '"Oint_star":[],"Si_star":[]'),
            ("2", "1 2[;3[4;]] 5[6;]",
             '"lleaf":3,"si":1,"oleaf":2,"yleaf":0,"oint":1,"lint":3,"rleaf":0,'
             '"in_bar":false,"in_star":true,"removable_old":[],"removable_young":[],'
             '"Oint_star":[3],"Si_star":[1]'),
            ("2", "1 2[3[4;];] 5[;6]",
             '"lleaf":3,"si":1,"oleaf":2,"yleaf":0,"oint":1,"lint":3,"rleaf":1,'
             '"in_bar":true,"in_star":false,"removable_old":[6],"removable_young":[],'
             '"Oint_star":[3],"Si_star":[1]'),
        ]
        for k, forest, fields in cases:
            code, out, _ = run_cli(capsys, "stats", "--k", k, "--input", forest)
            assert code == 0
            assert out == f'{{"kind":"forest","forest":"{forest}",{fields}}}\n'

    def test_forest_stats_json_is_fixed(self, capsys):
        # the counters lleaf, si, oleaf, yleaf, oint, lint, rleaf in this
        # order (cli._STATS_KEYS, not the count record's field order), then
        # the class record
        code, out, _ = run_cli(capsys, "stats", "--k", "3", "--type", "forest",
                               "--input", "1[3;;7] 2[;;4[;;6],5] 8[;;9,10[;;11]]")
        assert code == 0
        assert out == (
            '{"kind":"forest","forest":"1[3;;7] 2[;;4[;;6],5] 8[;;9,10[;;11]]",'
            '"lleaf":6,"si":0,"oleaf":4,"yleaf":2,"oint":1,"lint":5,"rleaf":2,'
            '"in_bar":true,"in_star":false,"removable_old":[5],"removable_young":[9],'
            '"Oint_star":[],"Si_star":[]}\n'
        )

    def test_stats_type_override(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "--k", "2", "--input", "5",
                               "--type", "forest")
        assert json.loads(out)["si"] == 1


class TestVerify:
    def test_text_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n-max", "2", "--k-max", "2",
                               "--suite", "polynomials", "--suite", "bijections")
        assert code == 0
        assert "identities passed" in out
        assert "FAIL" not in out

    def test_json_reports(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n-max", "2", "--k-max", "1",
                               "--suite", "theorems", "--format", "json")
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert lines and all(rec["pass"] for rec in lines)
        assert {"identity", "n", "k", "pass", "left", "right"} <= set(lines[0])

    def test_repeated_suite_reports_once(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n-max", "2", "--k-max", "1",
                               "--suite", "polynomials", "--suite", "polynomials")
        assert code == 0
        *reports, total = out.splitlines()
        assert len(set(reports)) == len(reports) == 15
        assert total == "15/15 identities passed"

    # The NDJSON bytes, pinned: the sha256 of the whole output of the census
    # suites to n = 5 and of the default suites to n = 4, both at k <= 3, as
    # printed before the census forest fold and the validator shared a walk,
    # and of the map suites to n = 5, k <= 3, as printed while the maps still
    # had private profile twins.
    @pytest.mark.parametrize("argv,digest", [
        (["--n-max", "5", "--k-max", "3", "--suite", "theorems", "--suite", "polynomials"],
         "a18837ae4322b3d53dc90e6050b0d954edcb5cffb353d2e487abb3218ab28a27"),
        (["--n-max", "4", "--k-max", "3"],
         "e08baca1fe3a9b0feef23a04ac38326e0e9ad7e0436756055fa380d045b866d6"),
        (["--n-max", "5", "--k-max", "3", "--suite", "bijections", "--suite", "gfs",
          "--suite", "pipeline"],
         "f091f4917a5af01685a7bc21c2179866179150c0564d6e3153b170dda89a28ab"),
    ])
    def test_json_bytes_pinned(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, "verify", *argv, "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("n_max,k_max", [("2", "0"), ("-3", "2")])
    def test_empty_range_is_usage_error(self, capsys, n_max, k_max):
        # a run that checks no cell must not report success
        code, out, err = run_cli(capsys, "verify", "--n-max", n_max, "--k-max", k_max)
        assert code == 2
        assert out == ""
        assert err.startswith("sf verify: error: ")

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n-max", "2"])
        assert exc.value.code == 2


class TestLimits:
    # a census or enumeration past its ceiling is an input error: exit 2
    # with one error line, not a traceback
    @pytest.mark.parametrize("argv", [
        ["poly", "--n", "11", "--k", "2", "--which", "A", "--route", "exc-cyc"],
        ["enumerate", "--n", "8", "--k", "3", "--kind", "perms"],
        ["gamma", "--n", "8", "--k", "3", "--which", "a"],
        ["enumerate", "--n", "8", "--k", "3", "--kind", "forests", "--limit", "1"],
    ])
    def test_limit_error_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"sf {argv[0]}: error: ") and err.count("\n") == 1


# spellings of a label, each with the label it names, or None when refused
_LONG = "1" * 4300
_SPELLINGS = [("7", 7), ("007", 7), ("0", None), ("+1", None), ("1_0", None),
              ("\u00b2", None), ("\u0661", 1), (_LONG, int(_LONG)), (_LONG + "1", None)]
_SPELLING_IDS = ["7", "007", "0", "+1", "1_0", "superscript-2", "arabic-indic-1",
                 "4300-digits", "4301-digits"]


class TestLabelRule:
    # one rule reads a label in word text, forest text, inline marks and
    # --x, so each spelling is accepted by all four readers or refused by all
    @pytest.mark.parametrize("spelling,label", _SPELLINGS, ids=_SPELLING_IDS)
    def test_every_reader_decides_alike(self, capsys, spelling, label):
        v = 1 if label is None else label
        readers = [  # (argv, whether its output shows the label v)
            (["stats", "--k", "2", "--type", "word", "--input", f"{spelling}.{spelling}"],
             lambda out: json.loads(out)["word"] == word_to_text((v, v))),
            (["stats", "--k", "2", "--type", "forest", "--input", spelling],
             lambda out: json.loads(out)["forest"] == str(v)),
            (["map", "--name", "theta-prime", "--k", "2",
              "--input", f"{v} {v + 1} | {{{spelling}}}"],
             lambda out: out == f"{v} {v + 1} | {{{v}}}\n"),
            (["map", "--name", "phi", "--k", "2", "--x", spelling, "--input", str(v)],
             lambda out: out == f"{v}\n"),
        ]
        for argv, shows_label in readers:
            code, out, err = run_cli(capsys, *argv)
            if label is None:
                assert (code, out) == (2, ""), argv[:3]
                assert err.startswith(f"sf {argv[0]}: error: ") and err.count("\n") == 1
                assert "set_int_max_str_digits" not in err and len(err) < 100
            else:
                assert code == 0 and shows_label(out), argv[:3]

    @pytest.mark.parametrize("argv,message", [
        (["stats", "--k", "2", "--type", "word", "--input", "1_0.2.2.1_0"],
         "at word index 0: labels must be runs of decimal digits"),
        (["stats", "--k", "2", "--type", "word", "--input", "+1.+1"],
         "at word index 0: labels must be runs of decimal digits"),
        (["stats", "--k", "2", "--type", "word", "--input", f"1.1.{_LONG}1.{_LONG}1"],
         "at word index 2: labels must have at most 4300 digits"),
        (["stats", "--k", "2", "--type", "forest", "--input", f"1[;{_LONG}1]"],
         "at position 4304: labels must have at most 4300 digits"),
        (["map", "--name", "theta", "--k", "2", "--input", f"1 2 | {{{_LONG}1}}"],
         "labels must have at most 4300 digits"),
        (["map", "--name", "phi", "--k", "2", "--x", "1_5", "--input", "1[;15]"],
         "in --x: labels must be runs of decimal digits"),
        (["map", "--name", "psi", "--k", "2", "--x", "0", "--input", "1 2"],
         "in --x: labels must be positive"),
    ])
    def test_refusal_texts(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"sf {argv[0]}: error: {message}\n")


class TestRefusals:
    # k < 1 is refused first, in one wording, by every command and map
    @pytest.mark.parametrize("k", ["0", "-1"])
    @pytest.mark.parametrize("argv", [
        ["stats", "--type", "word", "--input", "11"],
        ["stats", "--input", "11"],
        ["enumerate", "--n", "-1", "--kind", "perms"],
        ["enumerate", "--n", "-1", "--kind", "forests"],
        *(["map", "--name", name, "--x", "1", "--input", "1"] for name in cli._MAPS),
    ])
    def test_k_refused_first(self, capsys, argv, k):
        code, out, err = run_cli(capsys, *argv, "--k", k)
        assert (code, out, err) == (2, "", f"sf {argv[0]}: error: k must be a positive integer\n")

    # only phi and psi act at labels; every other map refuses --x, even one
    # naming an absent label, rather than ignore it
    @pytest.mark.parametrize("name", [n for n in cli._MAPS if n not in ("phi", "psi")])
    @pytest.mark.parametrize("x", ["3", "9"])
    def test_x_refused_where_nothing_acts(self, capsys, name, x):
        code, out, err = run_cli(capsys, "map", "--name", name, "--k", "2", "--x", x,
                                 "--input", "1122")
        assert (code, out, err) == (2, "", f"sf map: error: --name {name} takes no --x\n")

    # a refused request prints the same line whichever route would serve it
    @pytest.mark.parametrize("n,k,which,text", [
        ("-1", "2", "A", "n must be a nonnegative integer"),
        ("3", "0", "A", "k must be a positive integer"),
        ("-1", "0", "A", "k must be a positive integer"),
        ("3", "0", "a", "k must be a positive integer"),
        ("0", "2", "b", "the symmetric parts need --n >= 1"),
        ("11", "1", "A", "|Q_11(1)| = 39916800 exceeds the enumeration ceiling 10000000"),
    ])
    def test_poly_routes_agree(self, capsys, n, k, which, text):
        for route in ([], ["--route", "ap"], ["--route", "exc-cyc"], ["--route", "egf"]):
            if text.startswith("|Q_") and route[1:] in ([], ["egf"]):
                continue  # the egf route enumerates nothing
            code, out, err = run_cli(capsys, "poly", "--n", n, "--k", k, "--which", which, *route)
            assert (code, out, err) == (2, "", f"sf poly: error: {text}\n"), route

    @pytest.mark.parametrize("n,k,which,text", [
        ("1", "2", "c", "the gamma vector of c needs --n >= 2"),
        ("-1", "3", "c", "the gamma vector of c needs --n >= 2"),
        ("3", "0", "c", "k must be a positive integer"),
        ("3", "0", "a", "k must be a positive integer"),
        ("0", "2", "b", "the symmetric parts need --n >= 1"),
    ])
    def test_gamma_routes_agree(self, capsys, n, k, which, text):
        for by in ("census", "decomposition"):
            code, out, err = run_cli(capsys, "gamma", "--n", n, "--k", k, "--which", which,
                                     "--by", by)
            assert (code, out, err) == (2, "", f"sf gamma: error: {text}\n"), by

    # a forest's own faults are refused before its marks are checked, with
    # parse_forest's texts
    @pytest.mark.parametrize("argv,message", [
        (["map", "--name", "theta", "--input", "2 1 | {9}"], "roots not increasing: 2 before 1"),
        (["map", "--name", "theta", "--input", "1 2 | {9}"],
         "labels [9] do not occur in the forest"),
        (["map", "--name", "gamma-prime", "--input", "1[2;1]"], "path not increasing: 1 below 1"),
        (["map", "--name", "psi", "--x", "1", "--input", "1[;]"],
         "internal node 1 has k empty slots (not pruned)"),
        (["map", "--name", "psi", "--x", "1", "--input", "1[;"],
         "at position 3: expected a label"),
        (["stats", "--type", "forest", "--input", "2[1;]"], "path not increasing: 1 below 2"),
    ])
    def test_forest_refused_before_marks(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv, "--k", "2")
        assert (code, out, err) == (2, "", f"sf {argv[0]}: error: {message}\n")

    def test_library_fault_escapes_main(self, capsys, monkeypatch):
        # main turns only a ValueError into exit 2; a RuntimeError is a
        # library fault and keeps its traceback
        def fault(args):
            raise RuntimeError("an invariant broke")

        monkeypatch.setitem(cli._COMMANDS, "poly", fault)
        with pytest.raises(RuntimeError, match="an invariant broke"):
            main(["poly", "--n", "3", "--k", "2", "--which", "A"])
        assert capsys.readouterr() == ("", "")


class TestOneWalk:
    # each command reads its input forest in one walk: those that use a
    # profile take it from the walk that validates the text
    @pytest.mark.parametrize("argv", [
        ["stats", "--k", "2", "--type", "forest", "--input", "1[2,3;4[;5]] 6"],
        ["map", "--name", "theta", "--k", "2", "--input", "1[2[3;];] | {2}"],
        ["map", "--name", "theta-prime", "--k", "2", "--input", "1[2,3;] | {}"],
        ["map", "--name", "alpha", "--k", "2", "--input", "1 2 3 | {1}"],
        ["map", "--name", "beta", "--k", "2", "--input", "1[;2] 3 | {}"],
        ["map", "--name", "gamma", "--k", "2", "--input", "1 2 3 | {1}"],
        ["map", "--name", "gamma-prime", "--k", "2", "--input", "1[2,3;4[;5]] 6"],
        ["map", "--name", "psi", "--k", "3", "--x", "2", "--input", "1[3;;7] 2 4[;;6] 5 8"],
        ["map", "--name", "xi-inv", "--k", "2", "--input", "1[2,3;4[;5]] 6"],
        ["map", "--name", "zeta-inv", "--k", "2", "--input", "1[2,3;4[;5]] 6"],
        ["map", "--name", "chi-inv", "--k", "2", "--input", "1[2,3;4[;5]]"],
        ["map", "--name", "phi", "--k", "2", "--x", "4", "--input", "1[2,3;4[;5]] 6"],
    ], ids=lambda argv: argv[2] if argv[0] == "map" else argv[0])
    def test_one_walk_per_input(self, capsys, monkeypatch, argv):
        walks = [0]
        real = forest_module._walk

        def walk(f):
            walks[0] += 1
            return real(f)

        monkeypatch.setattr(forest_module, "_walk", walk)
        code, out, err = run_cli(capsys, *argv)
        assert (code, err, walks[0]) == (0, "", 1)

    def test_marks_checked_against_the_walk(self, capsys, monkeypatch):
        # absent marks are found in the walk's classes, not by listing the
        # forest's labels again, and named in increasing order
        def labels(self):
            raise AssertionError("the forest's labels listed again")

        monkeypatch.setattr(forest_module.Forest, "labels", labels)
        code, out, err = run_cli(capsys, "map", "--name", "theta", "--k", "2",
                                 "--input", "1[2[3;];] 4 | {9,2,7}")
        assert (code, out, err) == (
            2, "", "sf map: error: labels [7, 9] do not occur in the forest\n")
