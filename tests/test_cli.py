import io
import json
from itertools import accumulate
from math import comb

import pytest

from stirling_forests.cli import main


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
                            "--set", "2", "--input", "1[2[3;];]")
        assert out.strip() == "1[2,3;] | {}"
        _, out, _ = run_cli(capsys, "map", "--name", "theta-prime", "--k", "2",
                            "--input", "1[2,3;] | {}")
        assert out.strip() == "1[2[3;];] | {2}"
        _, out, _ = run_cli(capsys, "map", "--name", "gamma", "--k", "3",
                            "--set", "1,3",
                            "--input", "1 2[;5;] 3 4[;;7] 6 8[;9,10;]")
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

    @pytest.mark.parametrize("name", ["theta", "theta-prime", "alpha", "beta",
                                      "gamma-prime", "gamma"])
    def test_marks_inline_and_set_refused(self, capsys, name):
        code, out, err = run_cli(capsys, "map", "--name", name, "--k", "2",
                                 "--input", "1 2 3 | {1}", "--set", "2")
        assert code == 2 and out == ""
        assert "give marks either inline or via --set" in err

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
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "map", "--name", "phi", "--k", "2", "--input", "1")
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv,message", [
        (["--name", "psi", "--input", "1 2"], "--name psi requires --x"),
        (["--name", "chi-inv", "--input", "1 2"], "chi-inv expects a single tree"),
        (["--name", "gamma-prime", "--input", "1 2 | {1}"],
         "gamma-prime starts from an unmarked forest"),
    ])
    def test_usage_error_texts(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "map", "--k", "2", *argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"sf: error: {message}\n"

    def test_phi_at_absent_label_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "map", "--name", "phi", "--k", "2", "--x", "9",
                                 "--input", "1[;2] 3")
        assert code == 2 and out == ""
        assert err.startswith("sf map: error:") and "9" in err


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
        # counters in ForestStats field order, then the class record
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
        ["enumerate", "--n", "5", "--k", "2", "--kind", "perms", "--max-objects", "10"],
        ["gamma", "--n", "5", "--k", "2", "--which", "a", "--max-objects", "10"],
    ])
    def test_limit_error_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"sf {argv[0]}: error: ") and err.count("\n") == 1
