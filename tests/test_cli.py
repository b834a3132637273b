"""Command-line behavior: outputs, exit codes, error lines."""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from ultragraph import cli as cli_module, parse_edge_list, structure
from ultragraph.cli import main

TRIANGLE_123 = "a b 1\nb c 2\na c 3\n"
TRIANGLE_122 = "a b 1\nb c 2\na c 2\n"
UNIT_C4 = "a b 1\nb c 1\nc d 1\na d 1\n"
ALT_C4 = "a b 1\nb c 2\nc d 1\na d 2\n"


def run(argv, stdin_text="", monkeypatch=None, capsys=None):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def cli(monkeypatch, capsys):
    def invoke(argv, stdin_text=""):
        return run(argv, stdin_text, monkeypatch, capsys)

    return invoke


class TestCheck:
    def test_affirmative(self, cli):
        code, out, err = cli(["check"], TRIANGLE_122)
        assert code == 0
        assert out == "pseudoultrametrizable\n"
        assert err == ""

    def test_negative_with_witness(self, cli):
        code, out, err = cli(["check"], TRIANGLE_123)
        assert code == 1
        assert out == "not pseudoultrametrizable\n"
        assert err == "witness-cycle: a,b,c\n"


class TestMatrices:
    def test_subdominant_json(self, cli):
        code, out, _ = cli(["subdominant"], "a b 5\n")
        assert code == 0
        assert out == (
            '{"vertices":["a","b"],'
            '"matrix":[["0","5"],["5","0"]],'
            '"axiom_class":"ultrametric"}\n'
        )

    def test_subdominant_csv(self, cli):
        code, out, _ = cli(["subdominant", "--format", "csv"], TRIANGLE_123)
        assert code == 0
        assert out == ",a,b,c\na,0,1,2\nb,1,0,2\nc,2,2,0\n"

    def test_subdominant_newick(self, cli):
        code, out, _ = cli(["subdominant", "--format", "newick"], TRIANGLE_122)
        assert code == 0
        assert out == "((a:0.5,b:0.5):0.5,c:1);\n"

    def test_subdominant_newick_quotients_first(self, cli):
        code, out, _ = cli(
            ["subdominant", "--format", "newick"], "a b 0\nb c 2\n"
        )
        assert code == 0
        assert out == "(a:1,c:1);\n"

    def test_newick_approx_digits(self, cli):
        code, out, _ = cli(
            ["subdominant", "--format", "newick", "--approx-digits", "6"],
            "a b 2/3\n",
        )
        assert code == 0
        assert out == "(a:0.333333[1/3],b:0.333333[1/3]);\n"

    def test_newick_inexact_without_digits_errors(self, cli):
        code, out, err = cli(["subdominant", "--format", "newick"], "a b 2/3\n")
        assert code == 2
        assert err.startswith("inexact-decimal:")
        assert err.count("\n") == 1

    def test_newick_deeper_than_recursion_limit(self, cli):
        # Path v0..v1499 with edge weights 1..1499 merges one vertex per
        # level: a caterpillar whose node at height k/2 has the previous
        # node (branch 0.5) and v_k (branch k/2) as children.
        n = 1500
        assert sys.getrecursionlimit() < n
        text = "".join(f"v{k - 1} v{k} {k}\n" for k in range(1, n))
        expected = "(v0:0.5,v1:0.5)"
        for k in range(2, n):
            half = f"{k // 2}" if k % 2 == 0 else f"{k // 2}.5"
            expected = f"({expected}:0.5,v{k}:{half})"
        code, out, err = cli(["subdominant", "--format", "newick"], text)
        assert (code, err) == (0, "")
        assert out == expected + ";\n"

    def test_newick_quotes_metacharacter_labels(self, cli):
        code, out, err = cli(
            ["subdominant", "--format", "newick"], "a:1 b(2) 1\nb(2) c;x 2\n"
        )
        assert (code, err) == (0, "")
        assert out == "(('a:1':0.5,'b(2)':0.5):0.5,'c;x':1);\n"

    def test_shortest_json(self, cli):
        code, out, _ = cli(["shortest"], TRIANGLE_123)
        assert code == 0
        assert '"matrix":[["0","1","3"],["1","0","2"],["3","2","0"]]' in out
        assert '"axiom_class":"metric"' in out

    def test_least_on_unit_cycle(self, cli):
        code, out, _ = cli(["least", "--format", "csv"], UNIT_C4)
        assert code == 0
        assert out == (
            ",a,b,c,d\n"
            "a,0,1,0,1\n"
            "b,1,0,1,0\n"
            "c,0,1,0,1\n"
            "d,1,0,1,0\n"
        )

    def test_least_rejects_non_multipartite(self, cli):
        code, out, err = cli(["least"], "a b 1\nb c 1\nc d 1\n")
        assert code == 2
        assert err.startswith("not-complete-multipartite:")


class TestPairListings:
    def test_tm_pairs(self, cli):
        code, out, _ = cli(["tm"], UNIT_C4)
        assert code == 0
        assert out == "a c\nb d\n"

    def test_tm_empty(self, cli):
        code, out, _ = cli(["tm"], ALT_C4)
        assert code == 0
        assert out == ""

    def test_wch_pairs(self, cli):
        code, out, _ = cli(["wch"], "a b 0\nb c 0\nc d 1\n")
        assert code == 0
        assert out == "a c\n"


class TestUnique:
    def test_unique(self, cli):
        code, out, _ = cli(["unique"], ALT_C4)
        assert code == 0
        assert out == "unique\n"

    def test_not_unique(self, cli):
        code, out, _ = cli(["unique"], UNIT_C4)
        assert code == 1
        assert out == "not unique\n"

    def test_non_extendable_is_an_error(self, cli):
        code, out, err = cli(["unique"], TRIANGLE_123)
        assert code == 2
        assert err.startswith("not-extendable:")


class TestNameViews:
    """Verdicts on a connected extendable graph read its index form only."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["check"], ["subdominant"], ["subdominant", "--format", "newick"],
            ["tm"], ["unique"], ["wch"], ["structure"],
        ],
    )
    @pytest.mark.parametrize("text", [ALT_C4, UNIT_C4, "a b 0\nb c 1\nc d 1\na d 1\nvertex e\ne a 2\n"])
    def test_are_left_unbuilt(self, cli, argv, text):
        read = []

        def kept(text):
            read.append(parse_edge_list(text))
            return read[-1]

        with mock.patch.object(cli_module, "parse_edge_list", kept):
            code, _, err = cli(argv, text)
        assert code in (0, 1) and err == ""
        assert [sorted({"_weights", "_adjacency"} & vars(g).keys()) for g in read] == [[]]


class TestStructure:
    def test_four_cycle(self, cli):
        code, out, _ = cli(["structure"], UNIT_C4)
        assert code == 0
        assert out == (
            "forest: no\n"
            "tree: no\n"
            "complete-multipartite: k=2; parts: a c | b d\n"
            "star: no\n"
        )

    def test_star(self, cli):
        code, out, _ = cli(["structure"], "z x 1\nz y 3\n")
        assert code == 0
        assert "star: yes" in out
        assert "tree: yes" in out

    @pytest.mark.parametrize("text", [UNIT_C4, "z x 1\nz y 3\n", "a b 1\nvertex c\n"])
    def test_parts_computed_once(self, cli, text):
        calls, parts = [], structure.multipartite_parts

        def counted(g):
            calls.append(g)
            return parts(g)

        with mock.patch.object(cli_module, "multipartite_parts", counted), \
                mock.patch.object(structure, "multipartite_parts", counted):
            code, out, _ = cli(["structure"], text)
        assert code == 0 and out.count("\n") == 4
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "text, searches, tree",
        [("a b 1\nb c 2\nc d 1\n", 1, "yes"), ("a x 1\na y 1\na z 1\nb x 1\nb y 1\nb z 1\n", 0, "no")],
    )
    def test_at_most_one_component_search(self, cli, text, searches, tree):
        calls, components = [], structure.connected_components

        def counted(g):
            calls.append(g)
            return components(g)

        with mock.patch.object(structure, "connected_components", counted), \
                mock.patch("ultragraph.graph.connected_components", counted):
            code, out, _ = cli(["structure"], text)
        assert code == 0 and f"tree: {tree}\n" in out
        assert len(calls) == searches


class TestExponent:
    def test_infinite(self, cli):
        code, out, _ = cli(["exponent"], TRIANGLE_122)
        assert code == 0
        assert out == "infinite\n"

    def test_tight_triangle(self, cli):
        code, out, _ = cli(["exponent"], "a b 2\na c 1\nb c 1\n")
        assert code == 0
        assert out == "1.0\n"

    def test_tolerance_below_float_resolution_terminates(self, cli):
        # Bisection stops at adjacent floats instead of looping forever.
        text = "a b 3\nb c 4\na c 6\n"
        _, coarse, _ = cli(["exponent"], text)
        code, fine, _ = cli(["exponent", "--tol", "1e-300"], text)
        assert code == 0 and abs(float(fine) - float(coarse)) < 1e-9

    def test_disconnected_is_an_error(self, cli):
        code, out, err = cli(["exponent"], "a b 1\nvertex z\n")
        assert code == 2
        assert err.startswith("disconnected:")


class TestAugment:
    def test_bridges_and_emits(self, cli):
        code, out, _ = cli(
            ["augment", "--const", "x=5"], "a b 1\nx y 2\n"
        )
        assert code == 0
        assert out == (
            "vertex a\nvertex b\nvertex x\nvertex y\n"
            "a b 1\na x 5\nx y 2\n"
        )

    def test_hub_selection(self, cli):
        code, out, _ = cli(
            ["augment", "--hub", "1", "--const", "a=1/2"], "a b 1\nx y 2\n"
        )
        assert code == 0
        assert "a x 0.5" in out

    def test_missing_constant(self, cli):
        code, out, err = cli(["augment"], "a b 1\nx y 2\n")
        assert code == 2
        assert err.startswith("missing-constant:")

    def test_duplicate_constant(self, cli):
        code, out, err = cli(
            ["augment", "--const", "x=1", "--const", "y=2"], "a b 1\nx y 2\n"
        )
        assert code == 2
        assert err.startswith("missing-constant:")

    def test_bad_hub(self, cli):
        code, out, err = cli(["augment", "--hub", "7"], "a b 1\n")
        assert code == 2
        assert err.startswith("bad-hub-index:")

    def test_bad_const_syntax(self, cli):
        code, out, err = cli(["augment", "--const", "x5"], "a b 1\nx y 2\n")
        assert code == 2
        assert err.startswith("parse-error:")

    def test_name_read_as_comment_is_refused(self, cli):
        # "#x b 2" would parse back as a comment, losing the edge.
        code, out, err = cli(["augment"], "a #x 1\nb #x 2\n")
        assert code == 2
        assert out == ""
        assert err == "parse-error: vertex name '#x' cannot appear in an edge list\n"

    def test_runs_in_one_process_do_not_share_constants(self, cli):
        # The parser is built once per process; its --const default must
        # not collect the values of earlier runs.
        first = cli(["augment", "--const", "x=5"], "a b 1\nx y 2\n")
        second = cli(["augment", "--const", "y=7"], "a b 1\ny z 2\n")
        assert first[0] == second[0] == 0
        assert second[1].endswith("a b 1\na y 7\ny z 2\n")
        assert cli(["augment"], "a b 1\n") == (0, "vertex a\nvertex b\na b 1\n", "")

    def test_unknown_vertex_in_const(self, cli):
        code, out, err = cli(["augment", "--const", "zz=1"], "a b 1\nx y 2\n")
        assert code == 2
        assert err.startswith("unknown-vertex:")


class TestOracleCommand:
    def test_check(self, cli):
        code, out, _ = cli(["oracle", "check"], TRIANGLE_122)
        assert code == 0
        assert out == "pseudoultrametrizable\n"
        code, out, _ = cli(["oracle", "check"], TRIANGLE_123)
        assert code == 1

    def test_tm(self, cli):
        code, out, _ = cli(["oracle", "tm"], UNIT_C4)
        assert code == 0
        assert out == "a c\nb d\n"

    def test_subdominant_matches_fast_path(self, cli):
        code1, out1, _ = cli(["oracle", "subdominant"], TRIANGLE_123)
        code2, out2, _ = cli(["subdominant"], TRIANGLE_123)
        assert (code1, out1) == (code2, out2)

    def test_size_cap(self, cli):
        lines = [f"v{i} v{i+1} 1" for i in range(13)]
        code, out, err = cli(["oracle", "tm"], "\n".join(lines))
        assert code == 2
        assert err.startswith("enumeration-limit:")


class TestLibraryBindings:
    """Each command calls the library through the names bound in
    ``ultragraph.cli``, looked up when it runs, so rebinding one there (as
    the benchmark's tracer does) reaches the command."""

    @pytest.mark.parametrize(
        "argv, names",
        [
            (["check"], ["is_pseudoultrametrizable"]),
            (["subdominant"], ["subdominant_matrix", "emit_matrix"]),
            (["subdominant", "--format", "newick"], ["subdominant_dendrogram", "emit_newick"]),
            (["shortest"], ["shortest_path_matrix", "emit_matrix"]),
            (["least"], ["least_extension", "emit_matrix"]),
            (["tm"], ["twice_max_pairs"]),
            (["wch"], ["well_chained_pairs"]),
            (["unique"], ["is_unique_extension"]),
            (["structure"], ["multipartite_parts", "is_forest"]),
            (["exponent"], ["shortest_path_matrix", "betweenness_exponent"]),
            (["augment"], ["connected_components", "augment", "emit_edge_list"]),
            (["oracle", "check"], ["oracle_cycle_condition"]),
            (["oracle", "subdominant"], ["distance_matrix", "emit_matrix"]),
            (["oracle", "tm"], ["oracle_twice_max"]),
        ],
    )
    def test_each_call_is_looked_up_in_the_cli_module(self, cli, argv, names):
        calls = {name: mock.Mock(wraps=getattr(cli_module, name))
                 for name in ["parse_edge_list", *names]}
        with mock.patch.multiple(cli_module, **calls):
            code, _, err = cli(argv, UNIT_C4)
        assert code in (0, 1) and err == ""
        assert {name: c.call_count for name, c in calls.items()} == dict.fromkeys(calls, 1)


class TestInputHandling:
    def test_input_file(self, cli, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text(TRIANGLE_122)
        code, out, _ = cli(["check", "--input", str(f)])
        assert code == 0
        assert out == "pseudoultrametrizable\n"

    def test_dash_means_stdin(self, cli):
        code, out, _ = cli(["check", "-i", "-"], TRIANGLE_122)
        assert code == 0

    def test_parse_error_single_line(self, cli):
        code, out, err = cli(["check"], "a b\n")
        assert code == 2
        assert err.startswith("parse-error:")
        assert err.count("\n") == 1

    def test_empty_input(self, cli):
        code, out, err = cli(["check"], "")
        assert code == 2
        assert err.startswith("parse-error:")

    def test_oversized_weight_literal(self, cli):
        for text in ["a b 1e5000\nb c 1\n", "a b 1\nb c " + "9" * 5000 + "\n"]:
            code, out, err = cli(["subdominant"], text)
            assert (code, out) == (2, "")
            assert err.startswith("parse-error: line ")
            assert err.count("\n") == 1

    def test_distance_past_the_integer_to_text_limit(self, cli):
        # Each literal is under 1,000 characters, but the end-to-end
        # distance has a denominator of about 4,600 digits.
        dens = [3**2000, 7**1100, 11**900, 13**800, 17**750]
        text = "".join(f"v{i} v{i + 1} 1/{d}\n" for i, d in enumerate(dens))
        for fmt in ("json", "csv"):
            code, out, err = cli(["shortest", "--format", fmt], text)
            assert (code, out) == (2, "")
            assert err.startswith("digit-limit: ")
            assert err.count("\n") == 1

    def assert_unreadable(self, result):
        code, out, err = result
        assert (code, out) == (2, "")
        assert err.startswith("parse-error: cannot read input:")
        assert err.count("\n") == 1

    def test_missing_file(self, cli, tmp_path):
        self.assert_unreadable(cli(["check", "-i", str(tmp_path / "missing.txt")]))

    def test_directory(self, cli, tmp_path):
        self.assert_unreadable(cli(["check", "-i", str(tmp_path)]))

    def test_invalid_utf8(self, cli, tmp_path):
        f = tmp_path / "g.txt"
        f.write_bytes(b"a b \xff\n")
        self.assert_unreadable(cli(["check", "-i", str(f)]))

    def test_nul_byte_in_path(self, cli):
        # open() refuses the path with ValueError, not OSError.
        code, out, err = cli(["check", "-i", "a\0b"])
        assert (code, out, err) == (2, "", "parse-error: cannot read input: embedded null byte\n")


class TestUsageErrors:
    def test_unknown_command(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        with pytest.raises(SystemExit) as excinfo:
            main(["bogus"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage-error:")
        assert err.count("\n") == 1

    def test_no_command(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.startswith("usage-error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["subdominant", "--format", "newick", "--approx-digits", value]
            for value in ("-3", "1001", "x")
        ]
        + [["exponent", "--tol", value] for value in ("0", "-1", "nan", "inf", "x")],
    )
    def test_out_of_range_numeric_options(self, monkeypatch, capsys, argv):
        monkeypatch.setattr("sys.stdin", io.StringIO("a b 1/3\nb c 1\na c 1\n"))
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage-error: argument ")
        assert err.count("\n") == 1

    def test_usage_error_after_a_successful_run(self, cli, capsys):
        assert cli(["check"], TRIANGLE_122)[0] == 0
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "--format", "csv"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage-error: unrecognized arguments")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "brk, escaped",
        [("\n", "\\n"), ("\r\n", "\\r\\n"), ("\v", "\\x0b"), ("\f", "\\x0c"),
         ("\x1c", "\\x1c"), ("\x1d", "\\x1d"), ("\x1e", "\\x1e"), ("\x85", "\\x85"),
         ("\u2028", "\\u2028"), ("\u2029", "\\u2029")],
    )
    def test_line_break_in_an_unrecognized_argument_is_escaped(self, monkeypatch, capsys,
                                                               brk, escaped):
        monkeypatch.setattr("sys.stdin", io.StringIO("a b 1\n"))
        with pytest.raises(SystemExit) as excinfo:
            main(["check", f"a{brk}b", "c"])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err == f"usage-error: unrecognized arguments: a{escaped}b c\n"

    def test_bad_format_choice(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("a b 1\n"))
        with pytest.raises(SystemExit) as excinfo:
            main(["subdominant", "--format", "yaml"])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.startswith("usage-error:")


# The exit-code and stderr contract on arbitrary input bytes: well-formed
# edge lists over names with Newick metacharacters, a leading "#" or
# non-ASCII letters and weights from 1e-1000 to 1e1000 (self-loops and
# repeated edges included), the same mixed with bad literals, short lines
# and free text, or raw bytes; with option values in and out of range.
FUZZ_NAMES = ["a", "b", "c", "d", "e", "a:1", "b(2)", "c'", "#f", "\u00e9"]
FUZZ_WEIGHTS = [
    "0", "1", "2", "3/7", "1/3", "0.5", "2.5e-1", "1e3", "1e-1000", "1e1000",
    "7/100000000000000000000001",
]
FUZZ_BAD_WEIGHTS = ["-1", "1/0", "x", "nan", "inf", "1_0", "1e1001"]


def fuzz_lines(weights):
    return st.one_of(
        st.tuples(
            st.sampled_from(FUZZ_NAMES), st.sampled_from(FUZZ_NAMES), st.sampled_from(weights)
        ).map(" ".join),
        st.sampled_from(FUZZ_NAMES).map("vertex {}".format),
    )


FUZZ_INPUTS = st.one_of(
    st.lists(fuzz_lines(FUZZ_WEIGHTS), max_size=12),
    st.lists(
        st.one_of(
            fuzz_lines(FUZZ_WEIGHTS + FUZZ_BAD_WEIGHTS),
            st.sampled_from(["", "# note", "a b", "a b 1 2", "vertex"]),
            st.text(max_size=12),
        ),
        max_size=12,
    ),
).map(lambda lines: "\n".join(lines).encode("utf-8", "surrogatepass")) | st.binary(max_size=120)
FUZZ_COMMANDS = [
    ["check"], ["subdominant"], ["subdominant", "--format", "csv"],
    ["subdominant", "--format", "newick"],
    ["subdominant", "--format", "newick", "--approx-digits", "3"],
    ["shortest"], ["shortest", "--format", "csv"], ["least"], ["least", "--format", "csv"],
    ["tm"], ["wch"], ["unique"], ["structure"], ["exponent"], ["augment"],
    ["oracle", "check"], ["oracle", "subdominant"], ["oracle", "tm"],
]


# One command with extra argv tokens, which argparse mostly refuses as
# unrecognized arguments, quoting them as they are.
FUZZ_EXTRA_ARGV = st.tuples(
    st.sampled_from(FUZZ_COMMANDS),
    st.lists(
        st.sampled_from(["a\nb", "\r\n", "x\u2028", "\x85", "\x1c\f", "-", "--", "-i", "-x"])
        | st.text(max_size=6),
        min_size=1,
        max_size=3,
    ),
).map(lambda drawn: drawn[0] + drawn[1])


FUZZ_TEXT = st.sampled_from(["", "x", "1.5", "1e3", "-", "0x10", "\u0663"])
FUZZ_OPTIONS = st.tuples(
    st.integers(-3, 1003).map(str) | FUZZ_TEXT,
    st.floats(allow_nan=True, allow_infinity=True).map(repr)
    | st.sampled_from(["0", "1e-300", "5e-324", "1e308"])
    | FUZZ_TEXT,
    st.integers(-2, 4).map(str) | FUZZ_TEXT,
    st.lists(
        st.tuples(
            st.sampled_from(FUZZ_NAMES + ["", "zz"]),
            st.sampled_from(["=", "", "=="]),
            st.sampled_from(FUZZ_WEIGHTS + FUZZ_BAD_WEIGHTS + [""]),
        ).map("".join),
        max_size=3,
    ),
)


def option_commands(digits, tol, hub, consts):
    return [
        ["subdominant", "--format", "newick", f"--approx-digits={digits}"],
        ["exponent", f"--tol={tol}"],
        ["augment", f"--hub={hub}"] + [f"--const={c}" for c in consts],
    ]


def run_file(argv, path):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv + ["-i", str(path)])
        except SystemExit as exc:  # usage errors leave through argparse
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None)
@given(data=FUZZ_INPUTS, options=FUZZ_OPTIONS, extra=FUZZ_EXTRA_ARGV)
def test_contract_holds_on_arbitrary_bytes(tmp_path_factory, data, options, extra):
    path = tmp_path_factory.getbasetemp() / "fuzz-input"
    path.write_bytes(data)
    for argv in FUZZ_COMMANDS + option_commands(*options) + [extra]:
        code, out, err = run_file(argv, path)
        assert code in (0, 1, 2)
        if code == 2:
            assert len(err.splitlines()) == 1 and err.endswith("\n")
            assert ": " in err
        assert run_file(argv, path) == (code, out, err)
