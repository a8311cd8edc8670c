import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

from weakorder.cli import main
from weakorder.sn import MAX_SPAN

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sn_join(capsys):
    code, out, err = run(capsys, "sn", "join", "213", "132")
    assert (code, out, err) == (0, "321\n", "")


def test_sn_meet_and_leq(capsys):
    assert run(capsys, "sn", "meet", "231", "312")[:2] == (0, "123\n")
    assert run(capsys, "sn", "leq", "213", "231")[:2] == (0, "true\n")
    assert run(capsys, "sn", "leq", "213", "132")[:2] == (0, "false\n")


def test_sn_walls_and_flip(capsys):
    assert run(capsys, "sn", "walls", "1423")[:2] == (0, "(2,4)\n")
    assert run(capsys, "sn", "walls", "--upper", "1423")[:2] == (0, "(1,4)\n(2,3)\n")
    assert run(capsys, "sn", "flip", "1423", "2,4")[:2] == (0, "1243\n")
    assert run(capsys, "sn", "flip", "1423", "(2,4)")[:2] == (0, "1243\n")
    code, _, err = run(capsys, "sn", "flip", "1423", "1,2")
    assert code == 1
    assert "error: not a wall" in err


def test_sn_arcs(capsys):
    code, out, _ = run(capsys, "sn", "arcs", "25143")
    assert code == 0
    assert out == "(1,5|2|3 4)\n(3,4||)\n"
    code, out, _ = run(capsys, "sn", "arcs", "25143", "--format", "json")
    assert json.loads(out) == ["(1,5|2|3 4)", "(3,4||)"]
    code, out, _ = run(capsys, "sn", "cjr", "25143")
    assert out == "(1,5|2|3 4)\n(3,4||)\n"


def test_sn_arcs_svg(capsys):
    code, out, _ = run(capsys, "sn", "arcs", "25143", "--format", "svg")
    assert code == 0
    assert out.startswith("<svg") and out.count("<path") == 2


def test_tito_actions(capsys):
    assert run(capsys, "tito", "join", "--n", "2", "[2,1]", "[0,3]")[:2] == (
        0,
        "[~2,1]\n",
    )
    assert run(capsys, "tito", "meet", "--n", "2", "[~1][2]", "[~2][1]")[:2] == (
        0,
        "[1,2]\n",
    )
    assert run(capsys, "tito", "leq", "--n", "2", "[1,2]", "[~2,1]")[:2] == (
        0,
        "true\n",
    )
    assert run(capsys, "tito", "walls", "--n", "2", "[~2,1]")[:2] == (
        0,
        "<1,2>\n<2,3>\n",
    )
    assert run(capsys, "tito", "flip", "--n", "2", "[~1][~2]", "<1,3>")[:2] == (
        0,
        "[1][~2]\n",
    )
    assert run(capsys, "tito", "normalize", "--n", "4", "[3,6,5][~-64]")[:2] == (
        0,
        "[2,1,3][~4]\n",
    )
    assert run(capsys, "tito", "arcs", "--n", "2", "[2][~1]")[:2] == (
        0,
        "<1,3|2|>\n",
    )


def test_tito_cjr_rejects_narrow_elements(capsys):
    code, out, err = run(capsys, "tito", "cjr", "--n", "2", "[1][2]")
    assert code == 1
    assert out == ""
    assert err == "error: not widely generated: [1][2] has two consecutive waxing blocks\n"


def test_tito_needs_n(capsys):
    code, _, err = run(capsys, "tito", "join", "[2,1]")
    assert code == 2
    assert "--n is required" in err


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "tito", "join", "--n", "2", "[2,1")
    assert code == 2
    assert "error: parse error" in err and "unclosed" in err


def test_wide_arc_is_refused_without_listing_its_span(capsys):
    # the sides name no value of the 10^8 - 2 between a and b
    start = time.perf_counter()
    code, out, err = run(capsys, "render", "arcs", "--n", "2", "<1,100000000||>")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "must split (1,100000000)" in err


def test_malformed_arc_is_refused_in_time_linear_in_its_sides(capsys):
    # empty sides cannot fill the 10^9 - 1 values between the ends
    start = time.perf_counter()
    code, out, err = run(capsys, "render", "arcs", "(1,1000000000||)")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "bad arc text" in err


def test_wide_order_word_is_refused_without_listing_its_window(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "tot", "join", "1,1000000000000")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "full integer window" in err
    assert run(capsys, "tot", "join", "1,1,2")[0] == 2


def test_upper_is_refused_where_only_lower_walls_exist(capsys):
    # every action the CLI accepts, besides the two that read --upper
    for argv in (
        ("sn", "join", "213", "132"),
        ("sn", "meet", "231", "312"),
        ("sn", "leq", "213", "231"),
        ("sn", "flip", "1423", "2,4"),
        ("sn", "cjr", "4312"),
        ("tot", "join", "2,1", "1,3,2"),
        ("tot", "meet", "2,1", "1,3,2"),
        ("tot", "leq", "standard", "2,1"),
        ("tot", "walls", "2,1"),
        ("tot", "arcs", "2,1"),
        ("tot", "cjr", "2,1"),
        ("tot", "normalize", "2,1"),
        ("tito", "join", "[2,1]", "[0,3]", "--n", "2"),
        ("tito", "meet", "[~1][2]", "[~2][1]", "--n", "2"),
        ("tito", "leq", "[2,1]", "[~2,1]", "--n", "2"),
        ("tito", "normalize", "[2,1]", "--n", "2"),
        ("tito", "walls", "[~2,1]", "--n", "2"),
        ("tito", "flip", "[~2,1]", "<1,2>", "--n", "2"),
        ("tito", "arcs", "[2][~1]", "--n", "2"),
        ("tito", "cjr", "[~2,1]", "--n", "2"),
        ("dyer", "enumerate", "--n", "2"),
        ("dyer", "join", "[2,1]", "[~1][2]", "--n", "2"),
        ("dyer", "meet", "[2,1]", "[~1][2]", "--n", "2"),
        ("dyer", "leq", "[1,2]", "[2,1]", "--n", "2"),
        ("dyer", "normalize", "[~1][2]", "--n", "2"),
        ("lab", "quotient", "--kind", "sn", "--n", "3"),
        ("lab", "check", "--kind", "sn", "--n", "3"),
        ("render", "arcs", "(1,2||)"),
        ("render", "hasse", "--n", "2"),
    ):
        got, out, err = run(capsys, *argv, "--upper")
        assert (got, out) == (2, "")
        assert err == f"error: parse error: {argv[0]} {argv[1]} does not take --upper\n"
    assert run(capsys, "sn", "walls", "1423", "--upper")[:2] == (0, "(1,4)\n(2,3)\n")
    assert run(capsys, "sn", "arcs", "1423", "--upper")[:2] == (0, "(1,4||2 3)\n(2,3||)\n")


def test_format_is_refused_where_the_action_cannot_print_it(capsys):
    for argv in (
        ("sn", "join", "213", "132", "--format", "svg"),
        ("lab", "check", "--kind", "sn", "--n", "3", "--format", "dot"),
        ("render", "arcs", "(1,2||)", "--format", "json"),
    ):
        err = _one_line_refusal(capsys, 2, *argv)
        assert err == f"error: parse error: {argv[0]} {argv[1]} does not take --format {argv[-1]}\n"
    # a drawing's own format is the same as the default
    for argv, form in ((("render", "arcs", "(1,2||)"), "svg"), (("render", "hasse", "--n", "2"), "dot")):
        default = run(capsys, *argv)
        assert default[0] == 0 and run(capsys, *argv, "--format", form) == default


def test_unknown_action(capsys):
    code, _, err = run(capsys, "sn", "frobnicate")
    assert code == 2
    assert "does not support action" in err


def test_flags_are_position_independent(capsys):
    a = run(capsys, "tito", "join", "--n", "2", "[2,1]", "[0,3]")
    b = run(capsys, "tito", "join", "[2,1]", "--n", "2", "[0,3]")
    c = run(capsys, "tito", "join", "[2,1]", "[0,3]", "--n", "2")
    assert a == b == c


def test_dyer_actions(capsys):
    code, out, _ = run(capsys, "dyer", "enumerate", "--n", "3")
    assert code == 0
    assert out.splitlines() == [
        "[]",
        "[[1, 2]]",
        "[[2, 3]]",
        "[[1, 2], [1, 3]]",
        "[[1, 3], [2, 3]]",
        "[[1, 2], [1, 3], [2, 3]]",
    ]
    code, out, _ = run(capsys, "dyer", "enumerate", "--n", "2", "--format", "json")
    assert json.loads(out) == [[], [[1, 2]]]
    assert run(capsys, "dyer", "normalize", "--n", "2", "[~1][2]")[:2] == (
        0,
        "dyer:[1][2]\n",
    )
    assert run(capsys, "dyer", "join", "--n", "2", "[2,1]", "[0,3]")[:2] == (
        0,
        "dyer:[~2,1]\n",
    )
    assert run(capsys, "dyer", "leq", "--n", "2", "[~1][2]", "[1][2]")[:2] == (
        0,
        "true\n",
    )


def test_tot_actions(capsys):
    assert run(capsys, "tot", "join", "2,1,3", "1,3,2")[:2] == (0, "3,2,1\n")
    assert run(capsys, "tot", "meet", "2,1,3", "1,3,2")[:2] == (0, "standard\n")
    assert run(capsys, "tot", "walls", "3,1,2")[:2] == (0, "(1,3)\n")
    assert run(capsys, "tot", "normalize", "[[0,1]]")[:2] == (0, "1,0\n")
    assert run(capsys, "tot", "leq", "standard", "2,1,3")[:2] == (0, "true\n")
    assert run(capsys, "tot", "arcs", "2,5,1,4,3")[:2] == (
        0,
        "(1,5|2|3 4)\n(3,4||)\n",
    )
    code, _, err = run(capsys, "tot", "join", "3,1")
    assert code == 2 and "full integer window" in err
    # words that start with a negative value are inputs, not flags
    assert run(capsys, "tot", "join", "-1,0", "0,-1") == (0, "0,-1\n", "")
    assert run(capsys, "tot", "join", "--", "-1,0", "0,-1") == (0, "0,-1\n", "")
    assert run(capsys, "tot", "meet", "0,-2,-1", "-2,0,-1")[:2] == (0, "0,-1\n")
    far = "[[0,1],[1000000,1000001]]"
    assert run(capsys, "tot", "walls", far)[:2] == (0, "(0,1)\n(1000000,1000001)\n")
    code, _, err = run(capsys, "tot", "walls", "[[0,1000000]]")
    assert code == 1 and err.count("\n") == 1 and "not an inversion set" in err


def test_lab_check(capsys):
    code, out, _ = run(capsys, "lab", "check", "--kind", "sn", "--n", "3")
    assert code == 0
    assert out.splitlines() == [
        "elements: 6",
        "covers: 6",
        "lattice: yes",
        "join-semidistributive: yes",
        "meet-semidistributive: yes",
    ]
    code, out, _ = run(
        capsys, "lab", "check", "--kind", "tito", "--n", "2", "--a", "1", "--b", "4"
    )
    assert out.splitlines()[:2] == ["elements: 12", "covers: 14"]
    code, out, _ = run(capsys, "lab", "check", "--kind", "tot", "--a", "0", "--b", "2")
    assert out.splitlines()[0] == "elements: 6"
    code, out, _ = run(capsys, "lab", "check", "--kind", "tot", "--a", "-3", "--b", "-1")
    assert (code, out.splitlines()[0]) == (0, "elements: 6")
    code, out, err = run(capsys, "lab", "check", "--kind", "tito", "--n", "8", "--a", "1", "--b", "3")
    assert (code, out) == (1, "")
    assert err.startswith("error: too large: period 8") and err.count("\n") == 1


def test_lab_quotient_json(capsys):
    code, out, _ = run(
        capsys,
        "lab",
        "quotient",
        "--kind",
        "tito",
        "--n",
        "2",
        "--a",
        "1",
        "--b",
        "2",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload["elements"]) == ["1,2", "2,1"]
    assert payload["covers"] == [["1,2", "2,1"]]
    assert payload["reps"] == {"1,2": "[1,2]", "2,1": "[2,1]"}
    code, out, _ = run(capsys, "lab", "quotient", "--kind", "sn", "--n", "2")
    assert json.loads(out)["elements"] == ["12", "21"]


def test_lab_quotient_dot(capsys):
    code, out, _ = run(
        capsys, "lab", "quotient", "--kind", "sn", "--n", "3", "--format", "dot"
    )
    assert code == 0
    assert out.startswith("digraph")
    assert "rank=same" in out


def test_render_arcs_and_hasse(capsys):
    code, out, _ = run(capsys, "render", "arcs", "(1,5|2|3 4)", "(3,4||)")
    assert code == 0 and out.startswith("<svg")
    code, out, _ = run(
        capsys, "render", "arcs", "--n", "4", "--mode", "circle", "<2,7|5 6|3 4>"
    )
    assert code == 0 and out.count("<path") == 1
    code, out, _ = run(capsys, "render", "hasse", "--kind", "sn", "--n", "3")
    assert code == 0 and out.startswith("digraph")


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "arcs.svg"
    code, out, _ = run(
        capsys, "sn", "arcs", "25143", "--format", "svg", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("<svg")


def _one_line_refusal(capsys, code, *argv):
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    assert err.count("\n") == 1 and err.startswith("error: ") and "Traceback" not in err
    return err


def test_missing_input_is_refused_in_one_line(capsys):
    err = _one_line_refusal(capsys, 2, "lab", "quotient", "--kind", "tito", "--n", "2")
    assert "--a and --b are required for kind 'tito'" in err
    err = _one_line_refusal(capsys, 2, "render", "arcs", "(1,2||)", "--n", "0", "--mode", "circle")
    assert "--n must be positive, got 0" in err
    err = _one_line_refusal(capsys, 2, "render", "arcs", "<1,2||>", "--n", "0")
    assert "--n must be positive, got 0" in err


def test_usage_errors_print_one_line(capsys):
    err = _one_line_refusal(capsys, 2, "foo", "join")
    assert "parse error: argument subcommand: invalid choice: 'foo'" in err
    err = _one_line_refusal(capsys, 2, "sn", "join", "--n", "x")
    assert "parse error: argument --n: invalid int value: 'x'" in err


def test_missing_residues_are_counted_not_listed(capsys):
    err = _one_line_refusal(capsys, 2, "tito", "walls", "[1]", "--n", "1000000")
    assert err.endswith("residue classes [2, 3, 4] and 999996 more missing\n")
    err = _one_line_refusal(capsys, 2, "tito", "walls", "[~4]", "--n", "3")
    assert err.endswith("residue classes [2, 3] missing\n")


def test_a_size_set_by_n_alone_is_bounded(capsys):
    # With no input, n alone sets the size of the answer.  Up to MAX_SPAN the
    # empty join and meet (bottom and top) are built directly; past it they
    # are refused before anything of that size is built.
    values = [str(v) for v in range(1, MAX_SPAN + 1)]
    answers = {
        ("sn", "join"): ",".join(values),
        ("sn", "meet"): ",".join(values[::-1]),
        ("tito", "join"): "[" + ",".join(values) + "]",
        ("tito", "meet"): "[~" + ",".join(values[::-1]) + "]",
    }
    answers[("dyer", "join")] = "dyer:" + answers[("tito", "join")]
    answers[("dyer", "meet")] = "dyer:" + answers[("tito", "meet")]
    for (sub, action), answer in answers.items():
        start = time.perf_counter()
        assert run(capsys, sub, action, "--n", str(MAX_SPAN)) == (0, answer + "\n", "")
        assert time.perf_counter() - start < 1
        err = _one_line_refusal(capsys, 1, sub, action, "--n", str(MAX_SPAN + 1))
        assert f"too large: size {MAX_SPAN + 1} with no input (limit {MAX_SPAN})" in err


def test_arc_and_drawing_spans_are_bounded(capsys):
    # the wall <2,10002> spans 10000 values, the limit, and <2,10003> one more
    code, out, _ = run(capsys, "tito", "arcs", "[~10002,2][1]", "--n", "3")
    assert code == 0 and out.startswith("<2,10002|") and out.count("\n") == 1
    err = _one_line_refusal(capsys, 1, "tito", "arcs", "[~10003,2][3]", "--n", "3")
    assert "too large: wall <2,10003> spans 10001 values (limit 10000)" in err
    code, out, _ = run(capsys, "render", "arcs", "(1,2||)", "--n", "10001")
    assert code == 0 and out.count("<circle") == 10001
    err = _one_line_refusal(capsys, 1, "render", "arcs", "(1,2||)", "--n", "10002")
    assert "too large: drawing spans 10001 values (limit 10000)" in err


def test_only_lab_commands_load_numpy():
    # a fresh interpreter, so that no other test has loaded the lab yet
    script = textwrap.dedent(
        """
        import contextlib, io, json, sys
        from weakorder import cli

        def run(*argv):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = cli.main(list(argv))
            return [code, out.getvalue()]

        heavy = ("numpy", "weakorder.lattices", "fractions")
        report = {"plain": [
            run("sn", "join", "213", "132"),
            run("tot", "join", "2,1", "3,2"),
            run("tito", "join", "[2,1]", "[~1,2]", "--n", "2"),
            run("dyer", "join", "[~1][2]", "[1][2]", "--n", "2"),
            run("render", "arcs", "(1,5|2|3 4)", "(3,4||)"),
        ]}
        report["loaded"] = [m for m in heavy if m in sys.modules]
        report["lab"] = run("lab", "check", "--kind", "tito", "--n", "2", "--a", "1", "--b", "4")
        report["numpy"] = "numpy" in sys.modules
        print(json.dumps(report))
        """
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    report = json.loads(proc.stdout)
    assert [code for code, _ in report["plain"]] == [0] * 5
    assert report["plain"][0][1] == "321\n" and report["plain"][4][1].startswith("<svg")
    assert report["loaded"] == []
    assert report["lab"] == [
        0,
        "elements: 12\ncovers: 14\nlattice: yes\n"
        "join-semidistributive: yes\nmeet-semidistributive: yes\n",
    ]
    assert report["numpy"]
