"""The command-line interface: outputs, exit codes, reproducibility."""

import io
import json
import sys
from fractions import Fraction

import pytest

from embtrees import Profile, StepSet, count_cayley_profile
from embtrees.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCount:
    def test_binary(self, capsys):
        code, out, _ = run(capsys, "count", "binary", "--profile", "2;2,1")
        assert code == 0 and out.strip() == "3"

    def test_cayley(self, capsys):
        code, out, _ = run(capsys, "count", "cayley", "--steps", "-1,1",
                           "--profile", "2;2,1")
        assert code == 0 and out.strip() == "720"

    def test_explain_factors(self, capsys):
        code, out, _ = run(capsys, "count", "cayley", "--steps", "-1,1",
                           "--profile", "2;2,1", "--explain")
        assert code == 0
        assert out.splitlines()[0] == "720"
        assert any("relabelings" in line for line in out.splitlines())

    @pytest.mark.parametrize("kind, text", [
        ("cayley", "720\n"
         "  marked-vertex prefactor n_0/(n_ell n_r) = 1\n"
         "  relabelings n!/prod (n_i-1)! = 120\n"
         "  image choices at abscissa -1: (sum_s n_{i-s})^(n_i-1) = 2\n"
         "  image choices at abscissa 0: (sum_s n_{i-s})^(n_i-1) = 3\n"
         "  image choices at abscissa 1: (sum_s n_{i-s})^(n_i-1) = 1\n"),
        ("sary", "3\n"
         "  marked-vertex prefactor n_0/(n_ell n_r) = 1\n"
         "  level 0: C(sum_s n_-s, n_0 - 1) = 3\n"
         "  level -1: C(sum_s n_{i-s} - 1, n_i - 1) = 1\n"
         "  level 1: C(sum_s n_{i-s} - 1, n_i - 1) = 1\n"),
    ])
    def test_explain_text_pinned(self, capsys, kind, text):
        code, out, _ = run(capsys, "count", kind, "--profile", "2;2,1", "--explain")
        assert code == 0 and out == text

    @pytest.mark.parametrize("argv", [
        ("binary", "--profile", "2;2,1"),
        ("binary", "--profile", "1,3;2,3,1"),
        ("binary-horizontal", "--profile", "1,2,4,3,2"),
        ("binary-horizontal", "--profile", "1"),
        ("cayley", "--steps", "-1,0,1", "--profile", "3,1;2,4"),
        ("cayley", "--steps", "0,1", "--profile", "3,2,2"),
        ("sary", "--steps", "-1,0,1", "--profile", "3,1;2,4"),
        ("sary", "--steps", "-2..1", "--profile", "1,2,3,1"),
        ("cayley", "--steps", "-2,-1,1", "--profile", "1,1,1,2,1;1"),
        ("sary", "--steps", "-2,-1,1", "--profile", "1,1,1,2,1;1"),
    ])
    def test_explain_rows_multiply_to_the_count(self, capsys, argv):
        code, out, _ = run(capsys, "count", *argv, "--explain")
        assert code == 0
        count, *rows = out.splitlines()
        product = Fraction(1)
        for row in rows:
            assert row.startswith("  ")
            product *= Fraction(row.rsplit(" = ", 1)[1])
        assert product == int(count)
        assert len(rows) >= (0 if argv[-1] == "1" else 1)

    def test_hypothesis_exit_code(self, capsys):
        code, _, err = run(capsys, "count", "sary", "--steps", "-1,2",
                           "--profile", "1,1,2,1,1,1")
        assert code == 2
        assert "max step" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "count", "cayley", "--steps", "0,1",
                           "--profile", "3", "--json")
        assert code == 0
        assert json.loads(out) == {"kind": "cayley", "profile": "3",
                                   "count": "9"}

    def test_count_past_the_int_string_limit(self, capsys):
        profile = ",".join(["40"] * 40)
        value = count_cayley_profile(StepSet([-1, 0, 1]), Profile.parse(profile))
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            digits = str(value)
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(digits) > limit
        code, out, _ = run(capsys, "count", "cayley", "--steps=-1,0,1",
                           "--profile", profile)
        assert code == 0 and out == digits + "\n"
        code, out, _ = run(capsys, "count", "cayley", "--steps=-1,0,1",
                           "--profile", profile, "--json")
        assert code == 0 and json.loads(out)["count"] == digits
        code, out, _ = run(capsys, "count", "cayley", "--steps=-1,0,1",
                           "--profile", profile, "--explain")
        assert code == 0 and out.splitlines()[0] == digits


class TestErrorClasses:
    @pytest.mark.parametrize("argv", [
        ("count", "cayley", "--steps", "-1,1", "--profile", "2;x,1"),
        ("count", "cayley", "--steps", "x,1", "--profile", "2;2,1"),
        ("count", "binary-horizontal", "--profile", "1,2,"),
        ("law", "sary", "-n", "3"),
    ])
    def test_bad_input_exits_two(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error: ")

    def test_bad_json_input_exits_two(self, capsys, tmp_path):
        fn = tmp_path / "fn.json"
        fn.write_text("{not json")
        code, _, err = run(capsys, "bijection", "forward", "--input", str(fn))
        assert code == 2 and "cannot parse" in err

    @pytest.mark.parametrize("command", [("bijection", "forward"),
                                         ("bijection", "inverse"), ("types",)],
                             ids=" ".join)
    def test_unreadable_input_exits_two(self, capsys, monkeypatch, tmp_path, command):
        missing = tmp_path / "missing.json"
        code, out, err = run(capsys, *command, "--input", str(missing))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read {missing}")
        assert len(err.splitlines()) == 1
        # bytes that are not UTF-8 text, from a file and from stdin, also
        # under the C locale, where Python decodes stdin with surrogateescape
        binary = bytes(range(56, 256))
        garbled = tmp_path / "garbled.json"
        garbled.write_bytes(binary)
        for errors in ("strict", "surrogateescape"):
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
                io.BytesIO(binary), "utf-8", errors=errors))
            for path in (str(garbled), "-"):
                code, out, err = run(capsys, *command, "--input", path)
                assert code == 2 and out == ""
                assert err.startswith(f"error: cannot read {path}")
                assert len(err.splitlines()) == 1
        # a long malformed text is quoted by a short prefix
        for text in ("{" + "x" * 5000, '{"profile":"' + "x" * 5000 + '",'
                     '"steps":[-1,1],"image":[],"root":[0,1],"mark":[1,1],"parent":[]}'):
            garbled.write_text(text)
            code, out, err = run(capsys, *command, "--input", str(garbled))
            assert code == 2 and out == ""
            assert err.startswith("error: cannot parse ")
            assert len(err.splitlines()) == 1 and len(err) < 200

    @pytest.mark.parametrize("command", [("bijection", "forward"),
                                         ("bijection", "inverse"), ("types",)],
                             ids=" ".join)
    @pytest.mark.parametrize("text", [
        "{}",
        "[1]",
        '{"profile":2,"steps":[-1,1],"image":[]}',
        '{"profile":"2,1","steps":[true,1],"image":[]}',
        '{"profile":"2,1","steps":[-1,1],"image":[[0,2,1]]}',
        '{"profile":"2,1","steps":[-1,1],"root":[0],"mark":[1,1],"parent":[]}',
    ])
    def test_malformed_json_shape_exits_two(self, capsys, monkeypatch, command, text):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(capsys, *command, "--input", "-")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("command, text", [
        (("bijection", "forward"), '{"profile":"2,1","steps":[-1,1],'
                                   '"image":[[0,2,0,1],[1,1,0,1]]}'),
        (("types",), '{"profile":"2,1","steps":[-1,1],'
                     '"image":[[0,2,0,1],[1,1,0,1]]}'),
        (("bijection", "inverse"), '{"profile":"2,1","steps":[-1,1],"root":[0,1],'
                                   '"mark":[1,1],"parent":[[0,2,0,1],[1,1,0,1]]}'),
    ])
    def test_arc_outside_s_exits_one(self, capsys, monkeypatch, command, text):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, _, err = run(capsys, *command, "--input", "-")
        assert code == 1 and "not an S-edge" in err

    def test_internal_value_error_is_not_a_parse_error(self, monkeypatch):
        def broken(*_args):
            raise ValueError("internal")
        monkeypatch.setattr("embtrees.formulas.cayley_factors", broken)
        with pytest.raises(ValueError, match="internal"):
            main(["count", "cayley", "--steps", "-1,1", "--profile", "2;2,1"])


class TestSample:
    def test_deterministic_output(self, capsys):
        args = ("sample", "cayley", "--steps", "-1,1", "--profile", "2;2,1",
                "--seed", "7", "-n", "3")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert len(out1.splitlines()) == 3

    def test_function_family(self, capsys):
        code, out, _ = run(capsys, "sample", "function", "--steps", "-1,1",
                           "--profile", "2;2,1", "--seed", "1")
        assert code == 0
        data = json.loads(out)
        assert data["profile"] == "2;2,1"


class TestLaw:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "law", "binary", "-n", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "profile,numerator,denominator"
        assert all(line.endswith(",5") or line.endswith(",1")
                   for line in lines[1:])

    def test_json(self, capsys):
        code, out, _ = run(capsys, "law", "binary", "-n", "2", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["total"] == 2

    def test_size_guard_exits_three(self, capsys):
        code, out, err = run(capsys, "law", "binary", "-n", "15")
        assert code == 3 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1


class TestVerify:
    def test_regression(self, capsys):
        code, out, _ = run(capsys, "verify", "--regression", "--json")
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "3", "--steps", "-1,1",
                           "--json")
        assert code == 0
        report = json.loads(out)
        assert report["formulas"]["profile_formula_vs_oracle"] is True
        assert report["bijections"]["bijection_round_trip"] is True


class TestBijectionTrace:
    def test_forward_then_inverse(self, capsys, tmp_path):
        fn = tmp_path / "fn.json"
        fn.write_text('{"profile":"2,1","steps":[-1,1],'
                      '"image":[[0,2,1,1],[1,1,0,1]]}')
        code, out, _ = run(capsys, "bijection", "forward", "--input", str(fn))
        assert code == 0
        trace = json.loads(out)
        assert trace["regime"] == "nonneg"
        tree_path = tmp_path / "tree.json"
        tree_path.write_text(json.dumps(trace["output"]))
        code, out2, _ = run(capsys, "bijection", "inverse", "--input",
                            str(tree_path))
        assert code == 0
        assert json.loads(out2)["image"] == [[0, 2, 1, 1], [1, 1, 0, 1]]

    def test_general_trace(self, capsys, tmp_path):
        fn = tmp_path / "fn.json"
        fn.write_text('{"profile":"1;2","steps":[-1,1],'
                      '"image":[[-1,1,0,2],[0,2,-1,1]]}')
        code, out, _ = run(capsys, "bijection", "forward", "--input", str(fn))
        assert code == 0
        assert json.loads(out)["case"] == "A1"

    def test_types(self, capsys, tmp_path):
        fn = tmp_path / "fn.json"
        fn.write_text('{"profile":"2,1","steps":[-1,1],'
                      '"image":[[0,2,1,1],[1,1,0,1]]}')
        code, out, _ = run(capsys, "types", "--input", str(fn))
        assert code == 0
        assert json.loads(out)["out"] == [[0, -1, 1], [1, 1, 1]]
