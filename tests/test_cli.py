import json
import time

from weakorder.cli import main


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
