"""End-to-end command-line runs: reports, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shiftlab
from shiftlab import cli
from shiftlab.cli import main
from shiftlab.errors import InvariantViolation

BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs"
FIB_JSON = '{"alphabet": ["a", "b"], "rules": {"a": "ab", "b": "a"}, "seed": "a"}'
IET3_JSON = (
    '{"d": 3, "lambda": ["169/408", "233/610", "25363/124440"],'
    ' "pi": [3, 2, 1], "z": "1/7"}'
)


@pytest.fixture()
def fib_spec(tmp_path):
    path = tmp_path / "fib.json"
    path.write_text(FIB_JSON)
    return str(path)


@pytest.fixture()
def iet_spec(tmp_path):
    path = tmp_path / "iet3.json"
    path.write_text(IET3_JSON)
    return str(path)


def run_subprocess(argv, module="shiftlab.cli"):
    """Run the CLI in a fresh interpreter, so that a traceback would show."""
    env = dict(os.environ)
    package_root = str(Path(shiftlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestAnalyze:
    def test_fibonacci(self, capsys, fib_spec):
        code, out = run(capsys, ["analyze", "--substitution", fib_spec, "--horizon", "40"])
        assert code == 0
        report = json.loads(out)
        assert report["growth"]["K"] == 1
        assert report["rbc"]["holds_within_horizon"] is True
        assert report["schema_version"] == 1
        assert report["config"]["horizon"] == 40

    def test_iet(self, capsys, iet_spec):
        code, out = run(
            capsys,
            ["analyze", "--iet", iet_spec, "--horizon", "20", "--length", "6000"],
        )
        assert code == 0
        assert json.loads(out)["growth"]["K"] == 2

    def test_missing_file_exits_one(self, capsys, tmp_path):
        code = main(["analyze", "--substitution", str(tmp_path / "nope.json")])
        assert code == 1

    def test_malformed_file_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["analyze", "--substitution", str(bad)])
        assert code == 1

    def test_rules_not_an_object_exits_one_without_traceback(self, tmp_path):
        bad = tmp_path / "bad_rules.json"
        bad.write_text('{"alphabet": ["a", "b"], "rules": [], "seed": "a"}')
        proc = run_subprocess(["analyze", "--substitution", str(bad)])
        assert proc.returncode == 1
        assert f"error: {bad}: 'rules' must be an object" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "text,message",
        [
            ('["a", "b"]', "the top level must be an object"),
            ('{"rules": {"a": "ab", "b": "a"}, "seed": "a"}',
             "'alphabet' must be an array of strings"),
            ('{"alphabet": ["a", 2], "rules": {"a": "ab", "b": "a"}, "seed": "a"}',
             "'alphabet' must be an array of strings"),
            ('{"alphabet": ["a", "b"], "rules": {"a": 5, "b": "a"}, "seed": "a"}',
             "'rules' must be an object mapping symbol to replacement"),
            ('{"alphabet": ["a", "b"], "rules": {"a": "ab", "b": "a"}}',
             "'seed' is missing"),
        ],
        ids=["top-level-list", "no-alphabet", "alphabet-int", "rule-int", "no-seed"],
    )
    def test_malformed_substitution_exits_one_without_traceback(self, tmp_path, text, message):
        bad = tmp_path / "bad_sub.json"
        bad.write_text(text)
        proc = run_subprocess(["analyze", "--substitution", str(bad)])
        assert proc.returncode == 1
        assert f"error: {bad}: {message}" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [["analyze", "--substitution"], ["analyze", "--iet"],
         ["abstract", "--graph"], ["xi", "--itinerary"]],
        ids=["substitution", "iet", "graph", "itinerary"],
    )
    def test_json_syntax_error_names_file_and_option(self, tmp_path, argv):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        proc = run_subprocess([*argv, str(bad)])
        assert proc.returncode == 1
        assert f"error: {argv[1]} {bad}: not valid JSON: " in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "text,message",
        [
            ('[3, 2, 1]', "the top level must be an object"),
            ('{"pi": [2, 1], "z": "1/7"}', "'lambda' must be an array"),
            (
                '{"lambda": [0.5, 0.5], "pi": [2, 1], "z": "1/7"}',
                "'lambda' needs exact rationals written as 'p/q' strings",
            ),
            (
                '{"lambda": ["1/2", "1/2"], "pi": ["2", "1"], "z": "1/7"}',
                "'pi' must be an array of integers",
            ),
            (
                '{"lambda": ["1/2", "1/2"], "pi": [2, 1], "z": 0.25}',
                "'z' needs exact rationals written as 'p/q' strings",
            ),
        ],
        ids=["top-level-list", "no-lambda", "float-lambda", "string-pi", "float-z"],
    )
    def test_malformed_iet_exits_one_without_traceback(self, tmp_path, text, message):
        bad = tmp_path / "bad_iet.json"
        bad.write_text(text)
        proc = run_subprocess(["analyze", "--iet", str(bad), "--length", "400"])
        assert proc.returncode == 1
        assert f"error: {bad}: {message}" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_unknown_symbol_in_sequence_names_file(self, tmp_path):
        bad = tmp_path / "bad_seq.txt"
        bad.write_text("alphabet: 0,1\n0 1 2 0\n")
        proc = run_subprocess(["analyze", "--seq", str(bad)])
        assert proc.returncode == 1
        assert f"error: {bad}: unknown symbol '2'" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "option,text,message",
        [
            ("--substitution",
             '{"alphabet": ["a", "b"], "rules": {"a": "ab", "b": "a"}, "seed": 5}',
             "seed 5 not in alphabet"),
            ("--iet", '{"lambda": ["1/2", "1/3"], "pi": [2, 1]}',
             "interval lengths must sum to 1"),
            ("--seq", "alphabet: a,a\na a\n", "alphabet symbols must be pairwise distinct"),
        ],
        ids=["substitution", "iet", "seq"],
    )
    def test_refused_spec_names_file(self, tmp_path, option, text, message):
        bad = tmp_path / "bad_spec"
        bad.write_text(text)
        proc = run_subprocess(["analyze", option, str(bad)])
        assert proc.returncode == 1
        assert f"error: {bad}: {message}" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("value", ["1/0", "abc"])
    def test_malformed_rotation_names_the_option(self, value):
        proc = run_subprocess(["analyze", "--rotation", value, "--horizon", "8"])
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            f"error: --rotation needs a rational number p/q, got {value!r}"
        ]

    @pytest.mark.parametrize(
        "argv", [["--rotation", "2"], ["--rotation", "0"], ["--rotation=-1/2"]]
    )
    def test_rotation_outside_unit_interval_names_the_option(self, capsys, argv):
        assert main(["analyze", *argv, "--horizon", "8"]) == 1
        value = argv[-1].removeprefix("--rotation=")
        assert capsys.readouterr().err == f"error: --rotation must lie in (0, 1), got {value!r}\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["rauzy", "--substitution", str(BENCH_INPUTS / "fib.json")],
             "the following arguments are required: --n"),
            (["analyze", "--substitution", str(BENCH_INPUTS / "fib.json"), "--horizon", "abc"],
             "argument --horizon: invalid int value: 'abc'"),
            (["analyze", "--rotation", "-1/2"], "argument --rotation: expected one argument"),
            *(
                ([command, "--format", "dot"], "argument --format: invalid choice: 'dot'")
                for command in ("analyze", "exitwords", "density")
            ),
        ],
        ids=[
            "rauzy-without-n", "horizon-not-an-int", "rotation-read-as-option",
            "analyze-has-no-dot", "exitwords-has-no-dot", "density-has-no-dot",
        ],
    )
    def test_usage_error_exits_one(self, capsys, argv, message):
        # exit 2 means an exceeded horizon
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: shiftlab {argv[0]}") and message in err

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_zero(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--substitution", "{tmp}/tm.json", "--horizon", "50", "--length", "200"],
             "error: prefix N=200 H=50 of [substitution 0->01,1->10 seed=0 N=200]: "
             "the last 48 letters never occur with a letter on each side"),
            (["--iet", str(BENCH_INPUTS / "iet3.json"), "--horizon", "400"],
             "error: prefix N=2000 H=400 of [iet d=3 "),
            (["--seq", "{tmp}/abc.txt", "--horizon", "3"],
             "error: prefix N=12 H=3 of [file {tmp}/abc.txt]: symbol 'c' never occurs"),
        ],
        ids=["thue-morse", "iet3", "unused-symbol"],
    )
    def test_prefix_refused_as_bad_input(self, capsys, tmp_path, argv, message):
        (tmp_path / "tm.json").write_text(
            '{"alphabet": ["0", "1"], "rules": {"0": "01", "1": "10"}, "seed": "0"}'
        )
        (tmp_path / "abc.txt").write_text("alphabet: a,b,c\na b a b b a b a a b a b\n")
        code = main(["analyze", *(a.format(tmp=tmp_path) for a in argv)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(message.format(tmp=tmp_path)) and err.count("\n") == 1
        assert "internal error" not in err

    def test_invariant_violation_exits_three(self, capsys, monkeypatch, fib_spec):
        def broken(args):
            raise InvariantViolation("count identity failed")

        monkeypatch.setattr(cli, "cmd_analyze", broken)
        code = main(["analyze", "--substitution", fib_spec])
        assert code == 3
        assert "internal error (a bug): count identity failed" in capsys.readouterr().err

    @pytest.mark.parametrize("length", ["0", "-5"])
    def test_nonpositive_length_exits_one(self, capsys, fib_spec, length):
        code = main(
            ["analyze", "--substitution", fib_spec, "--horizon", "40", "--length", length]
        )
        assert code == 1
        assert "error: length must be >= 1" in capsys.readouterr().err

    def test_deterministic(self, capsys, fib_spec):
        _, out1 = run(capsys, ["analyze", "--substitution", fib_spec, "--horizon", "24"])
        _, out2 = run(capsys, ["analyze", "--substitution", fib_spec, "--horizon", "24"])
        assert out1 == out2


class TestRauzy:
    def test_dot_output(self, capsys, fib_spec):
        code, out = run(
            capsys,
            ["rauzy", "--substitution", fib_spec, "--horizon", "12", "--n", "4",
             "--format", "dot"],
        )
        assert code == 0
        assert out.count("digraph") == 2
        assert '"abaa|l"' in out

    def test_counts_json(self, capsys, fib_spec):
        code, out = run(
            capsys,
            ["rauzy", "--substitution", fib_spec, "--horizon", "12", "--n", "4"],
        )
        report = json.loads(out)
        assert report["factor_graph"] == {"vertices": 5, "edges": 6}
        assert report["special_graph"] == {"vertices": 2, "edges": 3}

    def test_horizon_exit_code(self, capsys, fib_spec):
        code = main(["rauzy", "--substitution", fib_spec, "--horizon", "6", "--n", "10"])
        assert code == 2

    def test_self_loop_of_a_non_recurrent_prefix(self, capsys, tmp_path):
        # the right-special 1001 returns to itself by 001, and the tail 1^200
        # never recurs, so the special graph at n=4 has a self-loop
        seq = tmp_path / "tail.txt"
        seq.write_text("alphabet: 0,1\n" + " ".join("001" * 60 + "1" * 200) + "\n")
        code, out = run(capsys, ["rauzy", "--seq", str(seq), "--horizon", "20", "--n", "4"])
        assert code == 0
        assert json.loads(out)["special_graph"] == {"vertices": 2, "edges": 3}


class TestEvolve:
    def test_event_lengths(self, capsys, fib_spec):
        code, out = run(
            capsys,
            ["evolve", "--substitution", fib_spec, "--horizon", "16", "--n", "2",
             "--n-max", "10"],
        )
        assert code == 0
        steps = json.loads(out)["steps"]
        assert [s["n_prime"] for s in steps] == [4, 7]
        assert [s["rbs_events"] for s in steps] == [["aba"], ["abaaba"]]
        assert all(s["profile_preserved"] for s in steps)

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["analyze", "--n", "0"], "error: length must be >= 1"),
            (["density", "--n", "3", "--k", "0", "--special"],
             "error: --k must be >= 1, got 0"),
            (["evolve", "--n", "2", "--n-max", "0"], None),
        ],
        ids=["analyze-n", "density-k", "evolve-n-max"],
    )
    def test_zero_is_not_the_default(self, capsys, fib_spec, argv, message):
        # the defaults would give n_min=1, K=1 and two evolution steps
        code = main([*argv, "--substitution", fib_spec, "--horizon", "16"])
        captured = capsys.readouterr()
        if message is None:
            assert code == 0 and json.loads(captured.out)["steps"] == []
        else:
            assert code == 1 and message in captured.err

    def test_zero_length_exits_one(self, fib_spec):
        proc = run_subprocess(
            ["evolve", "--substitution", fib_spec, "--horizon", "16", "--n", "0"]
        )
        assert proc.returncode == 1
        assert "error: length must be >= 1" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestExitwords:
    def test_block_example_sequence(self, capsys, tmp_path):
        seq = tmp_path / "block.txt"
        tokens = " ".join("0" + "1" * 15 + "00" + "1" * 3 + "0" + "1" * 7) + "\n"
        seq.write_text("alphabet: 0,1\n" + tokens * 4)
        z = "0" + "1" * 15 + "0"
        code, out = run(
            capsys,
            ["exitwords", "--seq", str(seq), "--horizon", "20", "--w", "1111",
             "--q", "3", "--z", z],
        )
        assert code == 0
        report = json.loads(out)
        reps = [
            (r["p"], r["r"], r["s"])
            for r in report["decomposition"]["representations"]
        ]
        assert ("0", 4, "110") in reps
        zs = [e["z"] for e in report["enumeration"]["exit_words"]]
        assert z in zs

    def test_empty_word_refused_by_the_alphabet(self, capsys, tmp_path):
        seq = tmp_path / "seq.txt"
        seq.write_text("alphabet: 0,1\n" + "0 1 1 " * 40 + "\n")
        code = main(["exitwords", "--seq", str(seq), "--horizon", "8", "--w", ""])
        assert code == 1
        assert capsys.readouterr().err == "error: the empty word is excluded\n"

    @pytest.mark.parametrize("q", [[], ["--q", "1"]], ids=["minimal-step", "given-step"])
    def test_word_outside_the_language_named_as_such(self, q):
        proc = run_subprocess(
            ["exitwords", "--substitution", str(BENCH_INPUTS / "fib.json"), "--horizon", "20",
             "--w", "bb", *q]
        )
        assert proc.returncode == 1
        assert proc.stderr == "error: bb is not a factor\n"

    def test_word_past_the_horizon_exits_two(self):
        proc = run_subprocess(
            ["exitwords", "--substitution", str(BENCH_INPUTS / "fib.json"), "--horizon", "20",
             "--w", "ab" * 11]
        )
        assert proc.returncode == 2
        assert "needs factors of length 22, horizon is 20" in proc.stderr

    @pytest.mark.parametrize("cap", ["0", "-4"])
    def test_cap_below_one_exits_one(self, capsys, cap):
        code = main(
            ["exitwords", "--substitution", str(BENCH_INPUTS / "fib.json"), "--horizon", "20",
             "--w", "abaaba", "--q", "3", "--cap", cap]
        )
        assert code == 1
        assert capsys.readouterr() == ("", f"error: --cap must be >= 1, got {cap}\n")


class TestDensity:
    def test_floor_pass(self, capsys, fib_spec):
        code, out = run(
            capsys,
            ["density", "--substitution", fib_spec, "--horizon", "24",
             "--length", "60000", "--n", "8", "--special", "--window-check"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["floor"]["pass"] is True
        assert report["window_check"]["ok"] is True

    def test_color_estimate(self, capsys, fib_spec):
        code, out = run(
            capsys,
            ["density", "--substitution", fib_spec, "--horizon", "24",
             "--length", "60000", "--n", "8", "--color", "--theta", "0.3"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["color"]["color"] == "self"
        assert report["color"]["threshold"] == 0.3

    def test_candidate_over_another_alphabet_exits_one(self, tmp_path, fib_spec):
        other = tmp_path / "fib_ba.txt"
        other.write_text("alphabet: b,a\n" + "a b a a b a b a " * 40 + "\n")
        proc = run_subprocess(
            ["density", "--substitution", fib_spec, "--horizon", "16",
             "--length", "2000", "--n", "4", "--color", "--candidate",
             f"other={other}"]
        )
        assert proc.returncode == 1
        assert (
            f"error: candidate 'other' ({other}) uses alphabet b,a, "
            "the sequence uses a,b"
        ) in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("value", ["foo", "=seq.txt", "foo="])
    def test_candidate_without_label_or_path_exits_one(self, capsys, fib_spec, value):
        code = main(
            ["density", "--substitution", fib_spec, "--horizon", "16",
             "--length", "2000", "--n", "4", "--color", "--candidate", value]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: --candidate {value!r}: expected LABEL=FILE\n"

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_nonpositive_k_exits_one(self, capsys, k):
        code = main(
            ["density", "--substitution", str(BENCH_INPUTS / "fib.json"), "--horizon", "24",
             "--length", "5000", "--n", "3", "--window-check", "--k", k]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: --k must be >= 1, got {k}\n"

    @pytest.mark.parametrize("tol", ["inf", "nan", "-0.5"])
    def test_theta_tol_not_finite_or_negative_exits_one(self, tol):
        proc = run_subprocess(
            ["density", "--substitution", str(BENCH_INPUTS / "fib.json"), "--horizon", "20",
             "--n", "3", "--special", "--theta-tol", tol]
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == f"error: --theta-tol must be a finite number >= 0, got {tol}\n"

    @pytest.mark.parametrize("theta", ["nan", "inf", "-1", "0", "0.5"])
    def test_theta_outside_its_range_exits_one(self, capsys, theta):
        code = main(
            ["density", "--substitution", str(BENCH_INPUTS / "fib.json"), "--horizon", "20",
             "--n", "3", "--color", "--theta", theta]
        )
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (
            f"error: --theta must lie in (0, 1/(2K)) for K=1, got {float(theta)}\n"
        )

    @pytest.mark.parametrize("theta", ["nan", "inf", "-1"])
    def test_theta_is_checked_without_color(self, capsys, theta):
        # nan would reach the report's config, which is then not JSON
        code = main(
            ["density", "--substitution", str(BENCH_INPUTS / "fib.json"), "--horizon", "20",
             "--n", "3", "--special", "--theta", theta]
        )
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (
            f"error: --theta must lie in (0, 1/(2K)) for K=1, got {float(theta)}\n"
        )

    def test_color_ladder_beyond_the_horizon_exits_two(self, capsys, fib_spec):
        code = main(
            ["density", "--substitution", fib_spec, "--horizon", "24", "--n", "30", "--color"]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: color ladder needs factors of length 32, horizon is 24\n"
        )

    @pytest.mark.parametrize("section", ["--special", "--window-check", "--color", "--word=001"])
    def test_periodic_language_exits_one(self, capsys, tmp_path, section):
        seq = tmp_path / "periodic.txt"
        seq.write_text("alphabet: 0,1\n" + " ".join("001" * 400) + "\n")
        code = main(["density", "--seq", str(seq), "--horizon", "20", "--n", "3", section])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: periodic language: the branching constant is undefined\n"
        )

    @pytest.mark.parametrize("section", ["--special", "--window-check", "--color"])
    def test_zero_length_exits_one(self, capsys, fib_spec, section):
        code = main(
            ["density", "--substitution", fib_spec, "--horizon", "16",
             "--length", "2000", "--n", "0", section]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: length must be >= 1\n"


ITINERARY_KEYS = ("graphs", "colorings", "partitions", "moves", "events")

TWO_CYCLE = {
    "vertices": {"u": "left", "v": "right"},
    "edges": {"a": ["u", "v"], "b": ["v", "u"]},
}


class TestAbstractAndXi:
    def test_abstract_validate_and_search(self, capsys, tmp_path):
        graph = {
            "graph": {
                "vertices": {"u1": "left", "v1": "right", "u2": "left",
                             "v2": "right", "u3": "left", "v3": "right"},
                "edges": {"a": ["u1", "v1"], "b": ["v1", "u1"],
                          "c": ["u2", "v2"], "d": ["v2", "u2"],
                          "g": ["u3", "v3"], "h": ["v3", "u1"],
                          "i": ["v3", "u2"], "j": ["v1", "u3"],
                          "k": ["v2", "u3"]},
            },
            "loops": {"1": ["a", "b"], "2": ["c", "d"]},
        }
        path = tmp_path / "k3.json"
        path.write_text(json.dumps(graph))
        code, out = run(capsys, ["abstract", "--graph", str(path), "--search", "2"])
        assert code == 0
        report = json.loads(out)
        assert report["validation"]["ok"] and report["validation"]["K"] == 3
        assert report["bound"]["xi_connected"] is True
        assert report["search"]["found"] is True

    @pytest.mark.parametrize(
        "obj,message",
        [
            ({"edges": []}, "'vertices' must be an object"),
            ({"vertices": {}, "edges": []}, "'edges' must be an object"),
            (
                {"vertices": {"u": "left"}, "edges": {"a": ["u"]}},
                "edge 'a' must be a [source, target] pair",
            ),
            ({**TWO_CYCLE, "loops": {"1": ["a", "zz"]}}, "loop edge 'zz' is not an edge"),
            ({**TWO_CYCLE, "loops": ["a", "b"]}, "'loops' must map labels"),
            ({**TWO_CYCLE, "coloring": []}, "coloring 'vertices' must be an object"),
            (
                {"vertices": {"u1": "left", "u2": "left"},
                 "edges": {"a": ["u1", "u2"], "b": ["u2", "u1"]}, "loops": {"1": ["a", "b"]}},
                "error: a loop needs a left and a right vertex",
            ),
            (
                {**TWO_CYCLE, "vertices": {**TWO_CYCLE["vertices"], "1_l": "right"},
                 "loops": {"1": ["a", "b"]}},
                "error: vertex '1_l' has the name of a merged loop vertex",
            ),
        ],
        ids=["no-vertices", "edge-list", "one-endpoint", "unknown-loop-edge",
             "loops-list", "coloring-list", "one-kind-loop", "merged-name-taken"],
    )
    def test_malformed_graph_file_exits_one_without_traceback(self, tmp_path, obj, message):
        bad = tmp_path / "bad_graph.json"
        bad.write_text(json.dumps(obj))
        proc = run_subprocess(["abstract", "--graph", str(bad)])
        assert proc.returncode == 1
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "obj,bounded",
        [
            # the README's two-vertex example breaks the degree rules
            ({"graph": TWO_CYCLE,
              "coloring": {"vertices": {"u": 1, "v": 1}, "edges": {"a": 1, "b": 1}},
              "loops": {"1": ["a", "b"]}}, False),
            # a notation-8 violation concerns the coloring alone
            ({"graph": {**TWO_CYCLE, "edges": {**TWO_CYCLE["edges"], "c": ["v", "u"]}},
              "coloring": {"vertices": {"u": 1}, "edges": {"a": 1}},
              "loops": {"1": ["a", "b"]}}, True),
        ],
        ids=["degree", "coloring-only"],
    )
    def test_bound_needs_a_structurally_valid_graph(self, capsys, tmp_path, obj, bounded):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(obj))
        code, out = run(capsys, ["abstract", "--graph", str(path)])
        assert code == 0
        report = json.loads(out)
        assert report["validation"]["ok"] is False
        if bounded:
            assert report["bound"]["bound_satisfied"] is True
        else:
            assert report["bound"] is None

    @pytest.mark.parametrize(
        "graph,coloring,refusal",
        [
            (TWO_CYCLE, None, "graph invalid: notation-2: left vertex u has in=1"),
            # the search does not use the given coloring, so notation-8 stays
            ({**TWO_CYCLE, "edges": {**TWO_CYCLE["edges"], "c": ["v", "u"]}},
             {"vertices": {"u": 1}, "edges": {"a": 1}}, None),
        ],
        ids=["degree", "coloring-only"],
    )
    def test_search_refuses_structurally_invalid_graph(
        self, capsys, tmp_path, graph, coloring, refusal
    ):
        obj = {"graph": graph, **({"coloring": coloring} if coloring else {})}
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(obj))
        code = main(["abstract", "--graph", str(path), "--search", "1"])
        captured = capsys.readouterr()
        if refusal is None:
            report = json.loads(captured.out)
            assert code == 0 and report["search"]["found"] is True
            assert report["validation"]["violations"][0].startswith("notation-8")
        else:
            assert code == 1 and f"error: {refusal}" in captured.err

    @pytest.mark.parametrize("key", ["vertices", "edges"])
    @pytest.mark.parametrize("color", ["x", "1e3", "1", True, 1.0, None])
    def test_non_integer_color_exits_one_naming_its_key(self, tmp_path, key, color):
        names = {"vertices": "u", "edges": "a"}
        obj = {"graph": TWO_CYCLE, "coloring": {key: {names[key]: color}}}
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(obj))
        proc = run_subprocess(["abstract", "--graph", str(path)])
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == (
            f"error: coloring {key!r} must be an object mapping names to integer colors\n"
        )

    def test_abstract_random(self, capsys):
        code, out = run(capsys, ["abstract", "--random", "--seed", "3"])
        assert code == 0
        report = json.loads(out)
        assert report["validation"]["ok"]
        assert report["bound"]["bound_satisfied"] in (True, False)

    @pytest.mark.parametrize("search", ["0", "-1"])
    def test_search_below_one_exits_one(self, search):
        proc = run_subprocess(["abstract", "--random", "--search", search])
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == "error: --search must be >= 1\n"

    def test_graph_and_random_together_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "k3.json"
        path.write_text((BENCH_INPUTS / "k3.json").read_text())
        with pytest.raises(SystemExit) as exc:
            main(["abstract", "--graph", str(path), "--random"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: shiftlab abstract")
        assert "error: argument --random: not allowed with argument --graph" in err
        # neither option keeps its own refusal
        assert main(["abstract"]) == 1
        assert capsys.readouterr().err == "error: abstract needs --graph FILE or --random\n"

    @pytest.mark.parametrize("seed", range(10))
    def test_random_search_reports_are_pinned(self, capsys, seed):
        golden = json.loads((Path(__file__).parent / "golden" / "abstract_random.json").read_text())
        for fmt in ("json", "dot"):
            code, out = run(capsys, ["abstract", "--random", "--seed", str(seed),
                                     "--search", "2", "--format", fmt])
            assert code == 0
            assert out == golden[f"{seed}.{fmt}"]

    def test_xi_fixture(self, capsys, tmp_path):
        from shiftlab.abstract_graphs import itinerary_to_json
        from test_abstract_graphs import TestItinerary

        it = TestItinerary().build()
        path = tmp_path / "itinerary.json"
        path.write_text(json.dumps(itinerary_to_json(it)))
        code, out = run(capsys, ["xi", "--itinerary", str(path)])
        assert code == 0
        report = json.loads(out)
        assert report["itinerary_valid"] is True
        assert report["bound"]["xi_connected"] is True
        assert report["bound"]["E"] == 2 and report["bound"]["K"] == 3
        code, out = run(capsys, ["xi", "--itinerary", str(path), "--format", "dot"])
        assert out.startswith("graph")

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    def test_xi_replays_the_log_at_most_twice(self, capsys, monkeypatch, fmt):
        # the check's own replay gives the log, and the quotient is built once
        from shiftlab import abstract_graphs

        calls = []
        original = abstract_graphs._track_move

        def counting(*args):
            calls.append(args[2])
            return original(*args)

        monkeypatch.setattr(abstract_graphs, "_track_move", counting)
        code, _ = run(capsys, ["xi", "--itinerary", str(BENCH_INPUTS / "itinerary.json"),
                               "--format", fmt])
        assert code == 0
        assert 1 <= len(calls) <= 2

    def test_xi_overlapping_loops_exit_one(self, tmp_path):
        # the check passes this itinerary (two loops of one color share w
        # and x), but its loops cannot be tracked, so no bound is reported
        graph = {
            "vertices": {"w": "left", "x": "right", "y": "left", "z": "right"},
            "edges": {"a": ["w", "x"], "b": ["x", "w"], "c": ["x", "y"],
                      "d": ["y", "z"], "e": ["z", "w"], "f": ["z", "y"]},
        }
        coloring = {"vertices": {"w": 1, "x": 1, "y": 1, "z": 1},
                    "edges": {"a": 1, "b": 1, "c": 1, "d": 1, "e": 1}}
        obj = {
            "graphs": [graph, graph],
            "colorings": [coloring, coloring],
            "partitions": [{"1": ["a", "b"], "2": ["a", "c", "d", "e"]}, {}],
            "moves": [[]],
            "events": [{"1": {"type": "spread", "in": "e", "out": "c"},
                        "2": {"type": "spread", "in": "b", "out": "b"}}],
        }
        bad = tmp_path / "overlap.json"
        bad.write_text(json.dumps(obj))
        proc = run_subprocess(["xi", "--itinerary", str(bad)])
        assert proc.returncode == 1
        assert "error: state 0 loops: tracked loops must be vertex-disjoint" in proc.stderr

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda obj: obj.pop("events"), "itinerary 'events' must be an array"),
            (
                lambda obj: obj.update({k: [] for k in ITINERARY_KEYS}),
                "itinerary 'graphs' must be non-empty",
            ),
            (
                lambda obj: obj["colorings"].pop(),
                "'colorings' and 'partitions' need one entry per graph",
            ),
            (
                lambda obj: obj["partitions"][0].update({"1": "abc"}),
                "'partitions' must map labels to edge-id lists",
            ),
            (
                lambda obj: obj["moves"][0].append("a"),
                "itinerary 'moves' must hold lists of objects with string 'e0'",
            ),
            (
                lambda obj: obj["events"][0].update({"1": {"type": "grow"}}),
                "itinerary 'events' must map labels to {'type': 'shrink'}",
            ),
        ],
        ids=["no-events", "all-empty", "lengths", "partition-string",
             "move-string", "event-type"],
    )
    def test_malformed_itinerary_exits_one_without_traceback(
        self, tmp_path, edit, message
    ):
        from shiftlab.abstract_graphs import itinerary_to_json
        from test_abstract_graphs import TestItinerary

        obj = itinerary_to_json(TestItinerary().build())
        edit(obj)
        bad = tmp_path / "bad_itinerary.json"
        bad.write_text(json.dumps(obj))
        proc = run_subprocess(["xi", "--itinerary", str(bad)])
        assert proc.returncode == 1
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_unknown_move_edge_exits_one_naming_edge_and_step(self, tmp_path):
        from shiftlab.abstract_graphs import itinerary_to_json
        from test_abstract_graphs import TestItinerary

        obj = itinerary_to_json(TestItinerary().build())
        obj["moves"][0][0]["e0"] = "zz"
        bad = tmp_path / "bad_itinerary.json"
        bad.write_text(json.dumps(obj))
        proc = run_subprocess(["xi", "--itinerary", str(bad)])
        assert proc.returncode == 1
        assert "move 0 at step 0 inadmissible: unknown edge zz" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_move_breaking_degree_rules_exits_one(self, tmp_path):
        # the left vertex u has two out-edges, and the move rewires the one
        # off the loop: bad input, not an internal error
        graph = {
            "vertices": {"u": "left", "v": "right", "w": "right"},
            "edges": {"a": ["u", "v"], "b": ["v", "u"], "c": ["v", "u"],
                      "x": ["u", "w"], "y": ["w", "u"], "z": ["w", "u"]},
        }
        obj = {
            "graphs": [graph, graph],
            "colorings": [{}, {}],
            "partitions": [{"1": ["a", "b"]}, {"1": ["a", "b"]}],
            "moves": [[{"e0": "x", "in": "c", "out": "y"}]],
            "events": [{}],
        }
        bad = tmp_path / "bad_itinerary.json"
        bad.write_text(json.dumps(obj))
        proc = run_subprocess(["xi", "--itinerary", str(bad)])
        assert proc.returncode == 1
        assert (
            "move 0 at step 0 inadmissible: a bispecial edge touching a loop "
            "vertex must be a loop edge" in proc.stderr
        )
        assert "Traceback" not in proc.stderr

    def test_extra_out_edge_at_rewired_vertex_exits_one(self, tmp_path):
        # u1 gets a second out-edge, so the logged move on its edge a is
        # refused instead of bounding a graph that is not a branching graph
        obj = json.loads((BENCH_INPUTS / "itinerary.json").read_text())
        obj["graphs"][0]["edges"]["zz"] = ["u1", "x"]
        bad = tmp_path / "bad_itinerary.json"
        bad.write_text(json.dumps(obj))
        proc = run_subprocess(["xi", "--itinerary", str(bad)])
        assert proc.returncode == 1
        assert "error: move 0 at step 0 inadmissible: " in proc.stderr
        assert "left vertex u1 has out-degree 2" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_spread_event_for_untracked_loop_is_a_violation(self, capsys, tmp_path):
        obj = json.loads((BENCH_INPUTS / "itinerary.json").read_text())
        obj["events"][0]["9"] = {"type": "spread", "in": "a", "out": "a"}
        path = tmp_path / "untracked.json"
        path.write_text(json.dumps(obj))
        code, out = run(capsys, ["xi", "--itinerary", str(path)])
        assert code == 0
        report = json.loads(out)
        assert report["itinerary_valid"] is False
        assert report["violations"] == ["item-3: event for untracked loop 9 at step 0"]

    def test_spread_loop_edge_renamed_in_next_state(self, capsys, tmp_path):
        obj = json.loads((BENCH_INPUTS / "itinerary.json").read_text())
        edges = obj["graphs"][2]["edges"]
        edges["bb"] = edges.pop("b")
        path = tmp_path / "renamed.json"
        path.write_text(json.dumps(obj))
        code, out = run(capsys, ["xi", "--itinerary", str(path)])
        assert code == 0
        report = json.loads(out)
        assert "item-1: replayed moves do not produce state 2" in report["violations"]
        assert report["bound"]["xi_connected"] is True

    def test_output_file(self, capsys, tmp_path, fib_spec):
        target = tmp_path / "report.json"
        code = main(
            ["analyze", "--substitution", fib_spec, "--horizon", "16",
             "--out", str(target)]
        )
        assert code == 0
        assert json.loads(target.read_text())["growth"]["K"] == 1


def test_python_dash_m_entry_point():
    """``python -m shiftlab`` runs the CLI from a source checkout."""
    proc = run_subprocess(["--help"], module="shiftlab")
    assert proc.returncode == 0
    assert "usage: shiftlab" in proc.stdout
