import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import forcekit
import forcekit.cli as cli
import forcekit.suites as suites
from forcekit.cli import main
from forcekit.forcing import Rule
from forcekit.graphs import build_family
from forcekit.search import failed_number, zero_forcing_number


# The full stdout of `forcekit table`, row by row.
TABLE1_STDOUT = (
    "G                  F(G)               F(G)=mr(G)?    computed\n"
    "-------------------------------------------------------------\n"
    "P_n                ceil((n-2)/2)      iff n=1        ok (12/12 instances)\n"
    "C_n, n>=3          floor(n/2)         iff n=3,4      ok (10/10 instances)\n"
    "K_n, n>=2          n-2                iff n=3        ok (9/9 instances)\n"
    "W_4                2                  no             ok (1/1 instances)\n"
    "W_5                3                  no             ok (1/1 instances)\n"
    "W_n, n>=6          floor((2n-2)/3)    iff n=6,7      ok (7/7 instances)\n"
    "K_{m,1}, m>=1      m-1                iff m=3        ok (5/5 instances)\n"
    "K_{m,2}, m>=2      m                  iff m=2        ok (4/4 instances)\n"
    "K_{m,n}, m>=n>=2   m+n-2              iff m+n=4      ok (10/10 instances)\n"
    "Q_1                0                  no             ok (1/1 instances)\n"
    "Q_2                2                  yes            ok (1/1 instances)\n"
    "Q_n, n>=3          >= 2^n - n         no             ok (2/2 instances)\n"
    "H_1                0                  no             ok (1/1 instances)\n"
    "H_s, s>=2          2s-3               iff s=3        ok (4/4 instances)\n"
)
TABLE2_STDOUT = (
    "G                  F+(G)              F+(G)=mr+(G)?  computed\n"
    "-------------------------------------------------------------\n"
    "P_n                0                  iff n=1        ok (12/12 instances)\n"
    "C_n, n>=3          1                  iff n=3        ok (10/10 instances)\n"
    "K_n, n>=2          n-2                iff n=3        ok (9/9 instances)\n"
    "W_4                2                  no             ok (1/1 instances)\n"
    "W_5                2                  yes            ok (1/1 instances)\n"
    "W_n, n>=6          floor((2n-2)/3)    iff n=5,6,7    ok (7/7 instances)\n"
    "K_{m,1}, m>=1      0                  no             ok (5/5 instances)\n"
    "K_{m,2}, m>=2      m-1                no             ok (4/4 instances)\n"
    "K_{m,n}, m>=n>=3   m+n-4              iff n=4        ok (6/6 instances)\n"
    "Q_1                0                  no             ok (1/1 instances)\n"
    "Q_2                1                  no             ok (1/1 instances)\n"
    "Q_n, n>=3          >= 2^n - n - 1     iff n=3        ok (2/2 instances)\n"
    "H_1                0                  no             ok (1/1 instances)\n"
    "H_s, s>=2          2s-4               iff s=4        ok (4/4 instances)\n"
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_wheel7(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--family", "wheel:7")
        assert code == 0
        rows = {}
        for line in out.splitlines():
            cells = line.split("\t")
            if len(cells) == 7 and cells[0] == "wheel:7":
                rows[(cells[2], cells[3])] = int(cells[4])
        assert rows[("standard", "Z")] == 3
        assert rows[("standard", "F")] == 4
        assert rows[("psd", "Zplus")] == 3
        assert rows[("psd", "Fplus")] == 4
        assert "# consistent" in out

    def test_path1_failed_zero(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--family", "path:1",
                               "--rule", "standard", "--params", "F", "--json")
        report = json.loads(out)
        assert code == 0
        assert report["computed"] == [{
            "rule": "standard", "parameter": "F", "value": 0,
            "witness": [], "method": "fort-search"}]

    def test_biclique22(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--family", "biclique:2,2",
                               "--json")
        report = json.loads(out)
        values = {(e["rule"], e["parameter"]): e["value"]
                  for e in report["computed"]}
        assert values[("standard", "F")] == 2
        assert values[("psd", "Fplus")] == 1
        assert report["consistent"]

    def test_union_predictions(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--family", "cycle:3+path:2",
                               "--json")
        report = json.loads(out)
        preds = {p["parameter"]: p["value"] for p in report["predictions"]}
        assert preds == {"F": 3, "Fplus": 3}

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3 3\n0 1\n1 2\n0 2\n")
        code, out, _ = run_cli(capsys, "analyze", "--file", str(path), "--json")
        report = json.loads(out)
        assert code == 0
        assert report["graph"]["n"] == 3
        assert report["predictions"] == []

    def test_bad_family_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--family", "wheel:2")
        assert code == 2 and "error" in err

    def test_over_cap_hypercube_exits_2_in_one_line(self, capsys):
        # 2^20000 is never built, so its digits are never printed either
        code, out, err = run_cli(capsys, "analyze", "--family", "hypercube:20000")
        assert (code, out) == (2, "")
        assert err == "error: hypercube:20000 has more than 63 vertices\n"

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--file", "/nonexistent")
        assert code == 2

    def test_bad_edge_list_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\n0 0\n")
        code, _, err = run_cli(capsys, "analyze", "--file", str(path))
        assert code == 2 and "loop" in err

    @pytest.mark.parametrize("text,message", [
        ("2 1\n0 1 2\n", "bad edge line '0 1 2'"),
        ("2 1\n0\n", "bad edge line '0'"),
        ("2 1\n0 x\n", "non-integer edge line '0 x'"),
        ("2 1\n0 1_0\n", "non-integer edge line '0 1_0'"),
        ("3 1\n0 \u0662\n", "non-integer edge line '0 \u0662'"),
    ])
    def test_malformed_edge_line_exits_2(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, out, err = run_cli(capsys, "analyze", "--file", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_non_utf8_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"\xff\xfe2 1\n0 1\n")
        code, _, err = run_cli(capsys, "analyze", "--file", str(path))
        assert code == 2 and err.startswith("error:") and err.count("\n") == 1

    def test_bad_budget_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "--family", "path:3",
                                 "--budget", "-1")
        assert (code, out) == (2, "")
        assert err == "error: --budget must be >= 0, got -1\n"

    @pytest.mark.parametrize("params", ["", ",", " , "])
    def test_params_naming_nothing_exits_2(self, capsys, params):
        code, out, err = run_cli(capsys, "analyze", "--family", "path:3",
                                 "--params", params)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("params, rule, rows", [
        ("Z,z,Z", "standard", [("standard", "Z")]),
        ("Z,z,Z", "both", [("standard", "Z"), ("psd", "Zplus")]),
        ("f,Z,F", "standard", [("standard", "F"), ("standard", "Z")]),
    ])
    def test_repeated_params_give_one_row_each(self, capsys, params, rule,
                                               rows):
        code, out, _ = run_cli(capsys, "analyze", "--family", "path:3",
                               "--params", params, "--rule", rule, "--json")
        computed = json.loads(out)["computed"]
        assert code == 0
        assert [(e["rule"], e["parameter"]) for e in computed] == rows

    def test_budget_exceeded_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--family", "hypercube:4",
                               "--budget", "0")
        assert code == 3 and "budget" in err

    def test_budget_error_says_how_far(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "--family", "hypercube:5",
                                 "--budget", "100000")
        assert code == 3 and out == ""
        assert err == ("error: zero_forcing_number (psd): candidate budget "
                       "exhausted; smallest forcing set so far: 16 vertices "
                       "(raise --budget, or shrink the instance)\n")

    def test_budget_error_names_one_vertex_in_singular(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "--family", "path:3",
                                 "--params", "F", "--budget", "0")
        assert code == 3 and out == ""
        assert err == ("error: min_fort (psd): candidate budget exhausted; "
                       "searching forts of 1 vertex, none is smaller "
                       "(raise --budget, or shrink the instance)\n")

    @pytest.mark.parametrize("rule", ["both", "standard", "psd"])
    @pytest.mark.parametrize("params,how_far", [
        ("Z", "zero_forcing_number ({}): candidate budget exhausted; "
              "smallest forcing set so far: 8 vertices"),
        ("F", "min_fort ({}): candidate budget exhausted; "
              "searching forts of 2 vertices, none is smaller"),
    ])
    def test_budget_error_names_the_rule(self, capsys, rule, params, how_far):
        # with both rules the PSD search runs first, so it is the one that
        # runs out
        code, out, err = run_cli(capsys, "analyze", "--family", "hypercube:4",
                                 "--params", params, "--rule", rule,
                                 "--budget", "40")
        named = "psd" if rule == "both" else rule
        assert code == 3 and out == ""
        assert err == (f"error: {how_far.format(named)} "
                       "(raise --budget, or shrink the instance)\n")

    def test_timings_flag_adds_fields(self, capsys):
        _, out, _ = run_cli(capsys, "analyze", "--family", "path:4",
                            "--timings", "--json")
        report = json.loads(out)
        assert all("seconds" in e for e in report["computed"])

    def test_timings_without_json_exits_2(self, capsys):
        # the TSV output has no time column to put them in
        code, out, err = run_cli(capsys, "analyze", "--family", "path:4",
                                 "--timings")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [("--family", ""), ("--family=",)])
    def test_empty_family_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, "analyze", *argv)
        assert (code, out) == (2, "")
        assert err == "error: bad family syntax '', expected kind:params\n"

    def test_default_output_byte_identical(self, capsys):
        argv = ("analyze", "--family", "biclique:4,3", "--json")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second


class TestVerify:
    def test_table1_ok(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "table1",
                               "--max-n", "8")
        assert code == 0 and "OK" in out

    def test_json_byte_identical(self, capsys):
        argv = ("verify", "--suite", "disconnected", "--seed", "42", "--json")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_exhaustive_small(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "exhaustive6",
                               "--max-n", "4", "--json")
        result = json.loads(out)
        assert code == 0 and result["graphs_checked"] == 75

    @pytest.mark.parametrize("argv, params", [
        ((), {"seed": 0, "trials": 200, "max_total": 14}),
        (("--seed", "7"), {"seed": 7, "trials": 200, "max_total": 14}),
    ])
    def test_json_records_flags_in_params_only(self, capsys, argv, params):
        code, out, _ = run_cli(capsys, "verify", "--suite", "disconnected",
                               *argv, "--json")
        result = json.loads(out)
        assert code == 0 and result["params"] == params
        assert "seed" not in result and "jobs" not in result

    @pytest.mark.parametrize("argv", [
        ("disconnected", "--max-n", "5"),
        ("disconnected", "--budget", "100"),
        ("linalg", "--budget", "100"),
        ("exhaustive6", "--budget", "100"),
        ("exhaustive6", "--max-n", "-1"),
        ("exhaustive6", "--max-n", "0"),
        ("exhaustive6", "--max-n", "9"),
        ("table1", "--seed", "7"),
        ("table2", "--seed", "0"),
        ("table51", "--seed", "7"),
        ("characterizations", "--seed", "7"),
        ("exhaustive6", "--seed", "7"),
        ("table1", "--max-n", "-5"),
        ("table2", "--max-n", "-1"),
        ("table51", "--max-n", "-1"),
        ("characterizations", "--max-n", "-1"),
        ("linalg", "--max-n", "-1"),
    ])
    def test_refuses_flags_it_would_ignore(self, capsys, monkeypatch, argv):
        def no_search(*args, **kwargs):
            raise AssertionError("a refused run started a search")

        for name in ("failed_number", "zero_forcing_number", "build_family",
                     "graph_from_edge_mask"):
            monkeypatch.setattr(suites, name, no_search)
        suite, *flags = argv
        code, out, err = run_cli(capsys, "verify", "--suite", suite, *flags,
                                 "--json")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("exhaustive6", "--max-n", "4"),
        ("disconnected", "--seed", "7"),
    ])
    def test_environment_sets_no_budget(self, capsys, monkeypatch, argv):
        # These suites take no --budget, so nothing else may cap their
        # searches either: the environment leaves the output unchanged.
        suite, *flags = argv
        plain = run_cli(capsys, "verify", "--suite", suite, *flags, "--json")
        monkeypatch.setenv("FORCEKIT_BUDGET", "3")
        capped = run_cli(capsys, "verify", "--suite", suite, *flags, "--json")
        assert plain[0] == 0 and capped == plain

    def test_max_n_zero_is_not_the_default(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "linalg",
                               "--max-n", "0", "--json")
        assert code == 0 and json.loads(out)["params"]["max_n"] == 0

    @pytest.mark.parametrize("suite", suites.SUITE_NAMES)
    def test_jobs_is_an_unknown_argument(self, capsys, suite):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", suite, "--jobs", "1"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "unrecognized arguments: --jobs 1" in captured.err

    @pytest.mark.parametrize("max_n", [0, 5])
    def test_linalg_checks_no_spec_above_max_n(self, capsys, monkeypatch,
                                               max_n):
        built = []

        def recording_build(spec):
            built.append(spec)
            return build_family(spec)

        monkeypatch.setattr(suites, "build_family", recording_build)
        code, out, _ = run_cli(capsys, "verify", "--suite", "linalg",
                               "--max-n", str(max_n), "--json")
        assert code == 0 and json.loads(out)["params"]["max_n"] == max_n
        assert all(spec.order() <= max_n for spec in built)
        unions = {spec.label() for spec in built if spec.kind == "union"}
        assert unions == ({"cycle:3+path:2", "complete:3+empty:2"}
                          if max_n == 5 else set())

    def test_linalg_takes_a_negative_seed(self, capsys):
        # both seeded suites seed random.Random, which takes any integer
        for suite, *flags in (("linalg", "--max-n", "4"), ("disconnected",)):
            code, out, _ = run_cli(capsys, "verify", "--suite", suite,
                                   "--seed", "-1", *flags, "--json")
            assert code == 0 and json.loads(out)["params"]["seed"] == -1

    def test_reports_known_discrepancies(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "table51",
                               "--max-n", "6")
        assert code == 0
        assert "known discrepanc" in out
        assert "halfgraph:3" in out

    def test_unknown_suite_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2

    def test_failing_suite_exits_1(self, capsys, monkeypatch):
        import forcekit.cli as cli
        broken = {"suite": "table1", "params": {}, "checks": [
            {"theorem": "Obs 3.1", "graph": "g", "expected": 1,
             "observed": 2, "pass": False}],
            "by_theorem": {}, "passed": 0, "failed": 1,
            "known_discrepancies": 0, "ok": False}
        monkeypatch.setattr(cli, "run_suite", lambda *a, **k: dict(broken))
        code, out, _ = run_cli(capsys, "verify", "--suite", "table1")
        assert code == 1 and "FAILED" in out


class TestTable:
    def test_table1_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--which", "1")
        assert code == 0
        assert "n-2" in out and "iff n=3" in out
        assert "MISMATCH" not in out
        assert ">= 2^n - n" in out

    def test_table2_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--which", "2")
        assert code == 0
        assert "iff s=4" in out and "2s-4" in out
        assert "MISMATCH" not in out

    @pytest.mark.parametrize("which,expected", [("1", TABLE1_STDOUT),
                                                ("2", TABLE2_STDOUT)])
    def test_full_stdout_pinned(self, capsys, which, expected):
        code, out, err = run_cli(capsys, "table", "--which", which)
        assert (code, out, err) == (0, expected, "")


# The keys of every check entry of verify --json.
CHECK_KEYS = {"theorem", "graph", "expected", "observed", "pass"}


@pytest.fixture
def failed_off_by_one(monkeypatch):
    """The suites see every failed number one too high."""
    search = suites.failed_number

    def wrong(g, rule, budget=None):
        res = search(g, rule, budget)
        return dataclasses.replace(res, value=res.value + 1)
    monkeypatch.setattr(suites, "failed_number", wrong)


class TestMismatch:
    def test_table_names_the_failing_instances(self, capsys, failed_off_by_one):
        code, out, _ = run_cli(capsys, "table", "--which", "1")
        assert code == 0
        rows = {line[:18].rstrip(): line[53:] for line in out.splitlines()[2:]}
        # F(P_n) = (n - 1) // 2, reported one too high
        assert rows["P_n"] == "MISMATCH " + ",".join(
            f"path:{n}={(n - 1) // 2 + 1}" for n in range(1, 13))
        assert rows["K_n, n>=2"].startswith("MISMATCH complete:2=1,complete:3=2,")
        # a lower bound still holds one too high
        assert rows["Q_n, n>=3"] == "ok (2/2 instances)"
        assert sum(v.startswith("MISMATCH") for v in rows.values()) == 13

    def test_failing_entries_have_the_check_keys(self, capsys, failed_off_by_one):
        code, out, _ = run_cli(capsys, "verify", "--suite", "table1",
                               "--max-n", "8", "--json")
        result = json.loads(out)
        assert code == 1 and result["failed"] == len(result["checks"]) > 0
        for check in result["checks"]:
            assert set(check) == CHECK_KEYS and check["pass"] is False

    def test_known_entries_add_parameter_and_flag(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "table51",
                               "--max-n", "8", "--json")
        result = json.loads(out)
        assert code == 0 and result["known_discrepancies"] == len(result["checks"]) > 0
        for check in result["checks"]:
            assert set(check) == CHECK_KEYS | {"parameter", "known_discrepancy"}
            assert check["known_discrepancy"] is True


@pytest.mark.parametrize("argv", [
    ("analyze", "--family", "path:3", "--budget", "1_0"),
    ("verify", "--suite", "exhaustive6", "--max-n", "\u0663", "--json"),
    ("verify", "--suite", "disconnected", "--seed", "\u0661", "--json"),
    ("table", "--which", "\uff11"),
])
def test_integer_flags_take_only_ascii_decimals(capsys, argv):
    # int() reads "1_0" as 10 and the Arabic-Indic and fullwidth digits
    # as 3, 1 and 1; the family DSL refuses all three
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "not a decimal integer" in captured.err


@pytest.fixture
def z_calls(monkeypatch):
    """(rule, floor, value) of each zero_forcing_number call made by cli
    and suites, in call order."""
    calls = []

    def spy(g, rule, budget=None, *, floor=0):
        res = zero_forcing_number(g, rule, budget, floor=floor)
        calls.append((rule, floor, res.value))
        return res

    monkeypatch.setattr(cli, "zero_forcing_number", spy)
    monkeypatch.setattr(suites, "zero_forcing_number", spy)
    return calls


class TestFloorWiring:
    """Z+ <= Z: a caller that computes both runs the PSD search first and
    passes its value as the floor of the standard search."""

    def test_analyze_both_rules(self, capsys, z_calls):
        code, _, _ = run_cli(capsys, "analyze", "--family", "hypercube:3",
                             "--json")
        assert code == 0
        assert [(rule, floor) for rule, floor, _ in z_calls] == [
            (Rule.PSD, 0), (Rule.STANDARD, 4)]

    def test_analyze_standard_alone_runs_no_psd_search(self, capsys, z_calls):
        code, _, _ = run_cli(capsys, "analyze", "--family", "hypercube:3",
                             "--rule", "standard", "--json")
        assert code == 0
        assert [(rule, floor) for rule, floor, _ in z_calls] == [
            (Rule.STANDARD, 0)]

    def test_analyze_both_rules_f_named_first(self, capsys, z_calls):
        code, _, _ = run_cli(capsys, "analyze", "--family", "hypercube:3",
                             "--params", "F,Z", "--json")
        assert code == 0
        assert [(rule, floor) for rule, floor, _ in z_calls] == [
            (Rule.PSD, 0), (Rule.STANDARD, 4)]

    def test_analyze_psd_alone(self, capsys, z_calls):
        code, _, _ = run_cli(capsys, "analyze", "--family", "hypercube:3",
                             "--rule", "psd", "--json")
        assert code == 0
        assert [(rule, floor) for rule, floor, _ in z_calls] == [(Rule.PSD, 0)]

    @pytest.mark.parametrize("rule", ["standard", "psd", "both"])
    @pytest.mark.parametrize("params", ["Z", "F", "Z,F", "F,Z"])
    def test_analyze_runs_each_asked_search_once(self, capsys, monkeypatch,
                                                 z_calls, rule, params):
        f_calls = []

        def spy(g, rule, budget=None):
            f_calls.append(rule)
            return failed_number(g, rule, budget)

        monkeypatch.setattr(cli, "failed_number", spy)
        code, out, _ = run_cli(capsys, "analyze", "--family", "hypercube:3",
                               "--rule", rule, "--params", params, "--json")
        assert code == 0
        rules = list(Rule) if rule == "both" else [Rule(rule)]
        ran = Counter([(r, "Z") for r, _, _ in z_calls]
                      + [(r, "F") for r in f_calls])
        assert ran == Counter((r, p) for r in rules for p in params.split(","))
        assert [(e["rule"], e["parameter"][0])
                for e in json.loads(out)["computed"]] == [
            (r.value, p) for r in rules for p in params.split(",")]

    @pytest.mark.parametrize("run", [
        lambda: suites.run_exhaustive(max_n=4),
        lambda: suites.run_table51(max_n=6),
    ])
    def test_suites(self, z_calls, run):
        assert run()["ok"]
        assert z_calls and len(z_calls) % 2 == 0
        for psd, standard in zip(z_calls[::2], z_calls[1::2]):
            assert psd[:2] == (Rule.PSD, 0)
            assert standard[:2] == (Rule.STANDARD, psd[2])


class TestOneParser:
    SEQUENCE = (
        ("analyze", "--family", "wheel:7", "--json"),
        ("analyze", "--family", "path:3", "--params", "x"),
        ("verify", "--suite", "bogus"),
        ("verify", "--suite", "table1", "--max-n", "4", "--json"),
        ("analyze", "--family", "wheel:7", "--json"),
    )

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_in_one_process_match_calls_alone(self, capsys, monkeypatch):
        # argparse wraps its usage lines to the terminal width
        monkeypatch.setenv("COLUMNS", "80")
        env = dict(os.environ, PYTHONPATH=str(Path(forcekit.__file__).parents[1]))
        for argv in self.SEQUENCE:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            alone = subprocess.run([sys.executable, "-m", "forcekit.cli", *argv],
                                   env=env, capture_output=True, text=True)
            assert (code, out, err) == \
                (alone.returncode, alone.stdout, alone.stderr), argv


class TestClosedStdout:
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_exits_141_without_a_word(self, unbuffered):
        # as in `forcekit table --which 2 | head -1`, with the reader gone
        # before the first write
        env = dict(os.environ, PYTHONPATH=str(Path(forcekit.__file__).parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "forcekit.cli", "table", "--which", "2"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait() == 141
        assert err == b""
