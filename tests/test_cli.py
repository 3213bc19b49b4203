import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

import upsilonkit as uk
from upsilonkit.cli import MAX_SAMPLES, main, make_parser, pl_to_json, pl_to_text, write_csv
from helpers import pl, skew_one_sided


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_pl_to_json_schema():
    data = pl_to_json(pl([(0, 0), (F(2, 3), -2), (2, 0)]))
    assert data == {
        "breakpoints": [
            {"x": "0/1", "y": "0/1"},
            {"x": "2/3", "y": "-2/1"},
            {"x": "2/1", "y": "0/1"},
        ],
        "infinite": "none",
    }
    assert pl_to_json(uk.PLFunction(infinite=uk.POS_INF)) == {
        "breakpoints": [],
        "infinite": "+inf",
    }


def test_pl_to_text():
    text = pl_to_text(pl([(0, 0), (1, -3), (2, -3)]), "t")
    assert "on [0, 1]: -3*t" in text
    assert "on [1, 2]: -3" in text
    assert pl_to_text(uk.PLFunction(infinite=uk.NEG_INF)) == "-inf everywhere"


def test_upsilon_json(capsys):
    data = run_json(capsys, "upsilon", "T(3,4)", "--json")
    assert data["upsilon"]["infinite"] == "none"
    xs = [bp["x"] for bp in data["upsilon"]["breakpoints"]]
    assert xs == ["0/1", "2/3", "4/3", "2/1"]
    assert data["upsilon"]["breakpoints"][1]["y"] == "-2/1"


def test_upsilon_text(capsys):
    code, out, _ = run(capsys, "upsilon", "T(2,3)")
    assert code == 0
    assert "Upsilon(t):" in out and "-1*t" in out


def test_upsilon2_json(capsys):
    data = run_json(capsys, "upsilon2", "T(5,7)", "--t", "2/5", "--json")
    assert data["t"] == "2/5"
    assert data["gamma_t"] == "12/5"
    assert data["upsilon2"]["breakpoints"][0] == {"x": "0/1", "y": "14/5"}
    assert data["disjoint"] is True
    assert data["witnesses"][0]["chain"] == ["b1"]


def test_upsilon2_infinite_note(capsys):
    code, out, _ = run(capsys, "v2", "--", "-box(1)")
    assert code == 0
    assert out.splitlines()[0] == "+inf"
    assert "note:" in out
    code, out, _ = run(capsys, "v2", "--quiet", "--", "-box(1)")
    assert "note:" not in out
    data = run_json(capsys, "v2", "--json", "--", "-box(1)")
    assert data["v2"] == "+inf" and data["notes"]


def test_v2_scalar(capsys):
    code, out, _ = run(capsys, "v2", "box(2)")
    assert code == 0 and out.strip() == "-4"
    data = run_json(capsys, "v2", "box(1) # box(2) # box(3)", "--json")
    assert data["v2"] == "-6/1"


def test_pivots(capsys):
    data = run_json(capsys, "pivots", "T(3,4)", "--t", "2/3", "--json")
    assert set(data) == {"t", "gamma_t", "on_line", "p_minus", "p_plus", "derivative_jump"}
    assert data["p_minus"] == [0, 3]
    assert data["p_plus"] == [1, 1]
    assert data["on_line"] == [[0, 3], [1, 1]]
    assert data["derivative_jump"] == "3/1"
    code, out, _ = run(capsys, "pivots", "T(3,4)", "--t", "2/3")
    assert code == 0 and out.splitlines() == [
        "t = 2/3: gamma = 1, support-line points [(0, 3), (1, 1)]",
        "p- = (0, 3), p+ = (1, 1)",
        "derivative jump of Upsilon: 3",
    ]


def test_bounds(capsys):
    data = run_json(capsys, "bounds", "nK(2)", "--t", "1", "--json")
    assert data["combined"] == 6
    assert data["diagonal_width"] == 8
    assert data["skipped_infinite"] == []
    sources = [r["source"] for r in data["reports"]]
    assert sources == ["upsilon", "upsilon2[t=1]"]


def test_validate(capsys, tmp_path):
    code, out, _ = run(capsys, "validate", "T(3,4)")
    assert code == 0 and "homology: pass" in out
    bad = tmp_path / "bad.txt"
    bad.write_text("gen a 0 0 0\ngen b 0 0 0\n")
    code, out, _ = run(capsys, "validate", f"@{bad}")
    assert code == 1 and "homology: FAIL" in out
    data = json.loads(run(capsys, "validate", "unknot", "--json")[1])
    assert data["ok"] is True
    assert {c["name"] for c in data["checks"]} >= {"d-squared", "homology", "normalization"}


def test_show_round_trips(capsys, tmp_path):
    code, out, _ = run(capsys, "show", "hom-K")
    assert code == 0
    reparsed = uk.parse_complex(out)
    assert uk.upsilon(reparsed) == uk.upsilon(uk.catalog("hom-K"))


def test_show_refuses_a_product_whose_names_repeat(capsys, tmp_path):
    left, right = tmp_path / "l.txt", tmp_path / "r.txt"
    left.write_text("gen p 0 0 0\ngen p.q 2 1 1\n")
    right.write_text("gen r 0 0 0\ngen q.r 2 1 1\n")
    code, out, err = run(capsys, "show", "--", f"@{left} # @{right}")
    assert (code, out) == (1, "")
    assert "duplicate generator names: ['(p.q.r)']" in err


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0 and "unknot" in out and "T(p,q)" in out
    data = run_json(capsys, "catalog", "--json")
    assert data["names"] == uk.CATALOG_NAMES


def test_csv_agrees_with_exact(capsys, tmp_path):
    path = tmp_path / "u.csv"
    code, _, _ = run(capsys, "upsilon", "T(5,7)", "--csv", str(path), "--samples", "5")
    assert code == 0
    rows = path.read_text().splitlines()
    assert rows[0] == "x,y"
    f = uk.upsilon(uk.catalog("T(5,7)"))
    assert len(rows) == 6
    for row in rows[1:]:
        x, y = (float(v) for v in row.split(","))
        assert y == pytest.approx(float(f.evaluate(F(x).limit_denominator(10**6))))
    assert [float(r.split(",")[1]) for r in rows[1:]] == [0.0, -5.5, -8.0, -5.5, 0.0]


def test_csv_needs_two_samples(tmp_path):
    with pytest.raises(uk.DomainError):
        write_csv(pl([(0, 0), (2, 0)]), str(tmp_path / "x.csv"), 1)


@pytest.mark.parametrize("samples", ["0", "1", str(MAX_SAMPLES + 1), "1000000000"])
def test_samples_out_of_range_exit_2_before_any_work(capsys, tmp_path, samples):
    path = tmp_path / "u.csv"
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["upsilon", "T(5,7)", "--csv", str(path), "--samples", samples])
    assert time.perf_counter() - start < 1
    assert exc.value.code == 2 and not path.exists()
    assert "argument --samples:" in capsys.readouterr().err


def test_samples_range_is_documented_and_its_ends_accepted(capsys):
    for command in ("upsilon", "upsilon2"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert f"2 to {MAX_SAMPLES}" in capsys.readouterr().out
    for samples in (2, MAX_SAMPLES):
        args = make_parser().parse_args(["upsilon", "T(5,7)", "--samples", str(samples)])
        assert args.samples == samples


def test_upsilon2_csv_of_an_infinite_result(capsys, tmp_path):
    path = tmp_path / "z.csv"
    code, _, _ = run(capsys, "upsilon2", "--t", "1", "--csv", str(path), "--samples", "5", "fig8")
    assert code == 0
    assert path.read_text().splitlines() == ["x,y", "0.0,inf", "0.5,inf", "1.0,inf", "1.5,inf",
                                             "2.0,inf"]


def test_exit_code_parse_error(capsys):
    code, _, err = run(capsys, "upsilon", "T(3,")
    assert code == 2 and "parse error" in err
    code, _, err = run(capsys, "upsilon", "@/no/such/file.txt")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "upsilon", "stair[3]")
    assert code == 1
    code, _, err = run(capsys, "upsilon", "no-such-name")
    assert code == 1 and "valid names" in err


@pytest.mark.parametrize("argv, message", [
    (["show", "@missing.txt"], "No such file or directory"),
    (["show", "@."], "Is a directory"),
    (["show", "@binary.bin"], "codec can't decode"),
    (["upsilon", "--csv", "no-such-dir/x.csv", "T(3,4)"], "No such file or directory"),
], ids=["missing", "directory", "binary", "csv"])
def test_file_errors_print_the_message(capsys, tmp_path, monkeypatch, argv, message):
    # An OSError's first argument is its errno, and a UnicodeDecodeError's the codec name.
    (tmp_path / "binary.bin").write_bytes(b"\x80\x81\xff")
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, *argv)
    assert code == 1 and err.startswith("error: ") and message in err, err


def test_deep_dual_chain_is_a_parse_error(capsys):
    code, out, err = run(capsys, "upsilon", "--", "-" * 5000 + "T(2,3)")
    assert code == 2 and out == ""
    assert "parse error: expression nested deeper than 400 levels" in err


def test_deep_brackets_are_a_parse_error(capsys):
    code, out, err = run(capsys, "upsilon", "(" * 3000 + "T(2,3)" + ")" * 3000)
    assert code == 2 and out == ""
    assert "parse error: expression nested deeper than 400 levels" in err


@pytest.mark.parametrize("template", ["{}*unknot", "T({},3)", "box({})", "nK({})", "stair[{},1]"],
                         ids=["power", "T", "box", "nK", "stair"])
def test_overlong_integer_is_a_parse_error(capsys, template):
    # 5000 digits: past the interpreter's limit on converting a string to int.
    code, out, err = run(capsys, "show", template.format("1" * 5000))
    assert code == 2 and out == ""
    assert err.startswith("parse error: ") and "Exceeds the limit" not in err


def test_nesting_depth_400_still_builds(capsys):
    dual = run_json(capsys, "upsilon", "--json", "--", "-" * 400 + "T(2,3)")
    bracketed = run_json(capsys, "upsilon", "--json", "(" * 400 + "T(2,3)" + ")" * 400)
    plain = run_json(capsys, "upsilon", "--json", "T(2,3)")
    assert dual == bracketed == plain


def test_exit_code_invalid_complex(capsys, tmp_path):
    bad = tmp_path / "nonsq.txt"
    bad.write_text("gen a 0 0 0\ngen b 1 1 1\ngen c 2 2 2\nd c = b\nd b = a\n")
    code, _, err = run(capsys, "upsilon", f"@{bad}")
    assert code == 1 and "d-squared" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["upsilon2", "T(3,4)"])  # missing required --t
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        make_parser().parse_args(["upsilon2", "T(3,4)", "--t", "x"])


def test_internal_error_exits_3_with_a_reproducer(capsys, monkeypatch):
    def fail(*args):
        raise uk.ConsistencyError("gamma not linear on (0, 1)")

    monkeypatch.setattr("upsilonkit.cli.upsilon2", fail)
    code, out, err = run(capsys, "upsilon2", "T(2,3)", "--t", "2/3")
    assert code == 3 and out == ""
    assert "Traceback" not in err
    assert err.splitlines() == [
        "internal error: gamma not linear on (0, 1)",
        "reproducer: upsilonkit upsilon2 --t 2/3 -- 'T(2,3)'",
        "complex:",
        *uk.serialize_complex(uk.catalog("T(2,3)")).splitlines(),
    ]
    assert uk.parse_complex(err.split("complex:\n", 1)[1]).names == ("a1", "b1", "a2")
    monkeypatch.setattr("upsilonkit.cli.upsilon", fail)
    code, _, err = run(capsys, "upsilon", "--", "-T(2,3)")
    assert code == 3 and "reproducer: upsilonkit upsilon -- '-T(2,3)'" in err
    monkeypatch.setattr("upsilonkit.cli.genus_report", fail)
    code, _, err = run(capsys, "bounds", "T(2,3)", "--t", "1", "--t", "1/2")
    assert code == 3 and "reproducer: upsilonkit bounds --t 1 --t 1/2 -- 'T(2,3)'" in err


def test_pivots_exit_3_when_the_one_sided_levels_differ(capsys, monkeypatch):
    skew_one_sided(monkeypatch, lambda side: side > 0)
    code, out, err = run(capsys, "pivots", "T(2,3)", "--t", "1")
    assert code == 3 and out == ""
    assert "Traceback" not in err
    assert err.splitlines() == [
        "internal error: one-sided levels 1/2 and 3/2 differ at t = 1",
        "reproducer: upsilonkit pivots --t 1 -- 'T(2,3)'",
        "complex:",
        *uk.serialize_complex(uk.catalog("T(2,3)")).splitlines(),
    ]


@pytest.mark.parametrize("expr", ["20*T(2,3)", "4*hom-K", "hom-K # hom-K # hom-K # hom-K",
                                  "T(2,200001)", "T(100000,100001)", "nK(100000)",
                                  "1000000*unknot", "3000*(3000*unknot)",
                                  pytest.param("stair[" + ",".join(["1"] * 24000) + "]",
                                               id="stair[1,...,1] of 24000 steps")])
def test_generator_limit_exits_1_fast(capsys, expr):
    start = time.perf_counter()
    code, out, err = run(capsys, "show", expr)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "more than the limit of" in err


@pytest.mark.parametrize("steps", [list(range(1, 5000)), [1] * 2499 + [0] + [1] * 2498],
                         ids=["odd length 4999", "a 0 among 4998"])
def test_stairway_refusals_are_short(capsys, steps):
    # The refusal names the length or the first bad step, not every step.
    start = time.perf_counter()
    code, out, err = run(capsys, "show", "stair[" + ",".join(map(str, steps)) + "]")
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err.startswith("error: step") and len(err.encode()) < 200, err


LONG = "x" * 100_000
ECHO_FILES = {"gen.txt": f"gen a 0 0 0 {LONG}\n", "dterm.txt": f"gen a 0 0 0\ngen b 1 1 1\nd a = b{LONG}\n"}


@pytest.mark.parametrize("argv, code, marks", [
    (["show", LONG], 1, ["error: unknown catalog name", "valid names: fig8,"]),
    (["upsilon", "T(3,4)" + LONG], 2, ["parse error: trailing input", "' at offset 6 (expected"]),
    (["upsilon2", "--t", "1" * 100_000, "T(3,4)"], 2, ["argument --t: not a rational", "digits"]),
    (["upsilon", "T(3,4)", "--csv", "x.csv", "--samples", "1" * 100_000], 2,
     ["argument --samples: invalid int value"]),
    (["show", "@gen.txt"], 2, ["parse error: line 1: expected 'gen NAME GRADING I J'"]),
    (["show", "@dterm.txt"], 2, ["parse error: line 3: boundary term hits unknown generator"]),
    (["show", "@" + LONG], 1, ["error: ", "File name too long"]),
], ids=["catalog name", "trailing input", "--t", "--samples", "gen line", "d term", "@file name"])
def test_refusals_of_long_inputs_are_short(capsys, monkeypatch, tmp_path, argv, code, marks):
    # Each message echoes a 100 000-character input; the CLI keeps its head
    # and tail, with the count of the characters it left out between them,
    # so the kind of refusal and a trailing offset or list of names survive.
    for name, text in ECHO_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exit_info:
        sys.exit(main(argv))
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert exit_info.value.code == code
    assert all(mark in err for mark in marks) and len(err.encode()) < 500, err
    assert "characters left out" in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv, mark", [
    (["upsilon", "T(3,4)", LONG], "upsilonkit: error: unrecognized arguments: xxx"),
    ([LONG, "T(3,4)"], "upsilonkit: error: argument command: invalid choice: 'xxx"),
], ids=["extra argument", "subcommand"])
def test_usage_errors_of_long_inputs_are_short(capsys, argv, mark):
    # argparse's own usage errors echo the input too; the parser cuts them
    # as main cuts its refusals.
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert exit_info.value.code == 2
    assert mark in err and "characters left out" in err and len(err.encode()) < 500, err


@pytest.mark.parametrize("argv", [["upsilon2", "T(3,4)", "--t", "1e-100000000"],
                                  ["bounds", "--t", "1e-5000", "T(3,4)"],
                                  ["pivots", "T(3,4)", "--t", "0.5"]])
def test_t_accepts_only_integers_and_p_over_q(capsys, argv):
    # Fraction reads all three: the first takes it minutes, and the second
    # fails later, on converting a 5000-digit denominator to a string.
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert time.perf_counter() - start < 1
    assert exc.value.code == 2
    value = argv[argv.index("--t") + 1]
    assert f"argument --t: not an integer or p/q: {value!r}" in capsys.readouterr().err


def test_t_forms(capsys):
    for text, value in [("2/3", F(2, 3)), ("1", F(1)), ("+4/6", F(2, 3)), (" 1/2 ", F(1, 2))]:
        assert make_parser().parse_args(["pivots", "T(3,4)", "--t", text]).t == value
    code, _, err = run(capsys, "pivots", "T(3,4)", "--t", "-1")
    assert code == 1 and "(0, 2)" in err


def test_largest_tensor_power_in_use_still_builds(capsys):
    code, out, _ = run(capsys, "show", "3*hom-K")
    assert code == 0
    assert sum(line.startswith("gen ") for line in out.splitlines()) == 3375


def test_largest_torus_knot_under_the_limit_builds(capsys):
    code, out, _ = run(capsys, "show", "T(5000,5001)")
    assert code == 0
    assert sum(line.startswith("gen ") for line in out.splitlines()) == 9999


def test_cli_start_imports_no_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize; without them a CLI
    # start loads 82 modules instead of 99 (under -S).
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(uk.__file__)))
    code = "import sys, upsilonkit.cli; print(*sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "upsilonkit.cli" in proc.stdout.split()
    assert not {"dataclasses", "inspect", "ast", "dis", "tokenize"} & set(proc.stdout.split())


@pytest.mark.parametrize("argv", [["show", "3*hom-K"], ["catalog"]])
def test_closed_output_pipe_exits_1_quietly(argv):
    # Output too large for the pipe fails in print; small buffered output
    # (PYTHONUNBUFFERED unset) fails when stdout is flushed.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(uk.__file__))
    proc = subprocess.Popen([sys.executable, "-m", "upsilonkit.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # before the child can write anything
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=30) == 1
    assert err == b""
