"""Edge-list, matrix and Newick serialization."""

import random
import re
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest

import ultragraph as ug
from ultragraph import AxiomClass, io

from corpus import random_connected_graph, random_ultrametric


class TestParseWeight:
    def test_literals(self):
        assert ug.parse_weight("3") == 3
        assert ug.parse_weight("1/2") == Fraction(1, 2)
        assert ug.parse_weight("0.25") == Fraction(1, 4)
        assert ug.parse_weight("0") == 0

    def test_bad_literal(self):
        with pytest.raises(ug.ParseError):
            ug.parse_weight("three")
        with pytest.raises(ug.ParseError):
            ug.parse_weight("1/0")

    def test_negative(self):
        with pytest.raises(ug.NegativeWeightError):
            ug.parse_weight("-2")

    def test_non_strings_are_read_as_to_weight_reads_them(self):
        # Floats are refused: the binary value of 0.1 is not 1/10.
        for x in (0.1, 0.5, -0.5):
            with pytest.raises(TypeError, match="float"):
                ug.parse_weight(x)
        assert ug.parse_weight(3) == 3
        assert ug.parse_weight(Fraction(1, 3)) == Fraction(1, 3)
        with pytest.raises(ug.NegativeWeightError):
            ug.parse_weight(-1)
        # The same values as strings are read as literals.
        assert [ug.parse_weight(t) for t in ("0.1", "0.5")] == [Fraction(1, 10), Fraction(1, 2)]
        with pytest.raises(ug.NegativeWeightError):
            ug.parse_weight("-0.5")

    def test_size_caps(self):
        # Exponents and lengths just past the cap are refused before any
        # Fraction is built; the cap itself still parses.
        assert ug.parse_weight("1e1000") == 10**1000
        assert ug.parse_weight("1e-1000") == Fraction(1, 10**1000)
        assert ug.parse_weight("0." + "1" * 998) > 0
        for text in ["1e1001", "1e-1001", "2E+1001", "1e1_001", "1" * 1001]:
            with pytest.raises(ug.ParseError):
                ug.parse_weight(text)

    def test_edge_list_shares_the_caps(self):
        for text in ["1e1001", "1e-1001", "1" * 1001]:
            with pytest.raises(ug.ParseError, match="line 2"):
                ug.parse_edge_list(f"a b 1\nb c {text}\n")
        g = ug.parse_edge_list("a b 1e1000\nb c 1\n")
        assert g.weight("a", "b") == 10**1000


class TestFormatWeight:
    def test_integers(self):
        assert ug.format_weight(Fraction(0)) == "0"
        assert ug.format_weight(Fraction(3)) == "3"

    def test_terminating_decimals(self):
        assert ug.format_weight(Fraction(1, 2)) == "0.5"
        assert ug.format_weight(Fraction(3, 20)) == "0.15"
        assert ug.format_weight(Fraction(3, 8)) == "0.375"
        assert ug.format_weight(Fraction(101, 100)) == "1.01"

    def test_non_terminating_stay_ratios(self):
        assert ug.format_weight(Fraction(1, 3)) == "1/3"
        assert ug.format_weight(Fraction(1, 6)) == "1/6"
        assert ug.format_weight(Fraction(7, 6)) == "7/6"

    def test_round_trip(self):
        for w in (Fraction(0), Fraction(1, 2), Fraction(22, 7), Fraction(9)):
            assert ug.parse_weight(ug.format_weight(w)) == w

    def test_floats_are_refused_and_negatives_written(self):
        for w in (0.1, 0.5, -0.5):
            with pytest.raises(TypeError, match="refusing to build an exact weight from float"):
                ug.format_weight(w)
        assert ug.format_weight(Fraction(-1, 2)) == "-0.5"
        assert ug.format_weight(-3) == "-3"

    def test_past_the_integer_to_text_limit(self):
        # 3**9000 has 4,295 digits, 3**9100 has 4,342: past the limit of
        # 4,300 a DigitLimitError, not the interpreter's ValueError.
        assert ug.format_weight(Fraction(1, 3**9000)) == f"1/{3**9000}"
        for w in (Fraction(3**9100), Fraction(1, 3**9100), Fraction(1, 2**14500)):
            with pytest.raises(ug.DigitLimitError):
                ug.format_weight(w)


class TestParseEdgeList:
    def test_basic(self):
        g = ug.parse_edge_list("a b 1\nb c 1/2\n")
        assert g.vertices == ("a", "b", "c")
        assert g.weight("b", "c") == Fraction(1, 2)

    def test_comments_and_blanks(self):
        text = "# header\n\na b 2\n  # indented comment\nvertex z\n"
        g = ug.parse_edge_list(text)
        assert g.vertices == ("a", "b", "z")
        assert g.edge_count() == 1

    def test_vertex_declarations_set_order(self):
        g = ug.parse_edge_list("vertex z\nvertex a\nz a 1")
        assert g.vertices == ("z", "a")
        # re-declaration is harmless
        g2 = ug.parse_edge_list("vertex a\na b 1\nvertex b")
        assert g2.vertices == ("a", "b")

    def test_self_loop_reports_line(self):
        with pytest.raises(ug.SelfLoopError, match="line 1"):
            ug.parse_edge_list("a a 1")

    def test_duplicate_edge_reports_line(self):
        with pytest.raises(ug.DuplicateEdgeError, match="line 3"):
            ug.parse_edge_list("a b 1\n# fine\nb a 2")

    def test_bad_weight_reports_line(self):
        with pytest.raises(ug.ParseError, match="2"):
            ug.parse_edge_list("a b 1\na c x")

    def test_wrong_token_count(self):
        with pytest.raises(ug.ParseError):
            ug.parse_edge_list("a b")
        with pytest.raises(ug.ParseError):
            ug.parse_edge_list("a b 1 2")

    def test_empty_input(self):
        with pytest.raises(ug.ParseError):
            ug.parse_edge_list("# nothing here\n")

    def test_negative_weight_rejected(self):
        with pytest.raises(ug.NegativeWeightError):
            ug.parse_edge_list("a b -1")

    def test_repeated_overlong_literal_reports_its_first_line(self):
        long = "1" * 1001
        with pytest.raises(ug.ParseError) as info:
            ug.parse_edge_list(f"a b 1\nb c {long}\nc d 2\nd e {long}\n")
        assert str(info.value) == (
            "line 2: weight literal longer than 1000 characters "
            "or with an exponent beyond 1000 in size"
        )

    def test_repeated_literals_share_one_value(self):
        g = ug.parse_edge_list("a b 1/2\nb c 0.5\nc d 1/2\n")
        assert g.weight("a", "b") == g.weight("b", "c") == g.weight("c", "d") == Fraction(1, 2)


class TestEdgeListErrorOrder:
    """Which error one pass reports when a text holds several."""

    @pytest.mark.parametrize(
        "text, error, message",
        [
            # a negative weight waits until every line has parsed
            ("a b -1\nc d 1\na b 2", ug.DuplicateEdgeError, "line 3: edge {'a','b'} given twice"),
            ("a b -1\nc d x", ug.ParseError, "line 2: bad weight literal 'x'"),
            ("a b -1\nb c", ug.ParseError, "line 2: expected 'u v weight' or 'vertex name'"),
            ("a b -1\nb b 1", ug.SelfLoopError, "line 2: edge {'b','b'} is a self-loop"),
            # the pair is named as the line spells it
            ("a b 1\nb a 2", ug.DuplicateEdgeError, "line 2: edge {'b','a'} given twice"),
            # the loop is refused before its literal is read
            ("a a x", ug.SelfLoopError, "line 1: edge {'a','a'} is a self-loop"),
            # the first repeat by line, though its key sorts after another's
            ("a b 1\nc d 1\nc d 2\na b 2", ug.DuplicateEdgeError, "line 3: edge {'c','d'} given twice"),
            # a repeat is refused before its literal is read
            ("a b 1\na b x", ug.DuplicateEdgeError, "line 2: edge {'a','b'} given twice"),
            # a fault on an earlier line wins, whatever its kind
            ("a b x\nb c", ug.ParseError, "line 1: bad weight literal 'x'"),
            ("b c\na b x", ug.ParseError, "line 1: expected 'u v weight' or 'vertex name'"),
            ("a b -1/2\nb c -3", ug.NegativeWeightError, "weight -1/2 is negative"),
            ("a b 1/2\nb c 2\nc d -0.5\nd a -1", ug.NegativeWeightError, "weight -1/2 is negative"),
            ("\n#x\n", ug.ParseError, "no vertices declared"),
        ],
    )
    def test_first_error_wins(self, text, error, message):
        with pytest.raises(error) as info:
            ug.parse_edge_list(text)
        assert type(info.value) is error
        assert str(info.value) == message

    def test_line_numbers_are_attached(self):
        for text, line in [("a b -1\nc d x", 2), ("a b 1\n\n# c\nb c", 4)]:
            with pytest.raises(ug.ParseError) as info:
                ug.parse_edge_list(text)
            assert info.value.line == line

    def test_no_literal_from_the_first_malformed_row_on_is_converted(self):
        long = "1" * 1001
        text = f"a b 1/2\n# c d q\nvertex e\nb c\nc d x\nd e {long}\nb c 1 2\ne f 3"
        with mock.patch.object(io, "_literal_value", wraps=io._literal_value) as read:
            with pytest.raises(ug.ParseError) as info:
                ug.parse_edge_list(text)
        assert str(info.value) == "line 4: expected 'u v weight' or 'vertex name'"
        assert info.value.line == 4
        assert [c.args[0] for c in read.call_args_list] == ["1/2"]

    def test_negative_zero_is_zero(self):
        g = ug.parse_edge_list("a b -0")
        assert list(g.weighted_edges()) == [("a", "b", Fraction(0))]
        assert g._levels == (0,)

    def test_redeclared_vertices_keep_their_first_place(self):
        g = ug.parse_edge_list("x y 1\nvertex z\nvertex x")
        assert g.vertices == ("x", "y", "z")
        assert g._index == {"x": 0, "y": 1, "z": 2}


def counted_parse(text):
    """parse_edge_list(text), counting Fraction comparisons and hashes."""
    calls: Counter = Counter()

    def counting(name):
        real = getattr(Fraction, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return mock.patch.object(Fraction, name, wrapper)

    with counting("__lt__"), counting("__hash__"):
        g = ug.parse_edge_list(text)
    return g, calls


class TestEdgeListReadCost:
    """The reader orders the weights by exact integers, so while the lcm of
    the denominators fits the scale width no Fraction is compared or hashed,
    however many edges there are."""

    def test_path_with_distinct_weights(self):
        rng = random.Random(1)
        ks = rng.sample(range(1, 400), 199)
        text = "\n".join(f"v{i} v{i + 1} {k}/4" for i, k in enumerate(ks))
        g, calls = counted_parse(text)
        assert g.edge_count() == 199
        assert g._levels == tuple(sorted(Fraction(k, 4) for k in ks))
        assert calls == Counter()

    def test_complete_four_partite_with_eight_levels(self):
        rng = random.Random(2)
        part = {f"v{i}": i % 4 for i in range(80)}
        levels = [Fraction(k, 6) for k in range(1, 9)]
        pairs = [(u, v) for u in part for v in part if part[u] < part[v]]
        rng.shuffle(pairs)
        text = "\n".join(f"{u} {v} {rng.choice(levels)}" for u, v in pairs)
        g, calls = counted_parse(text)
        assert g.edge_count() == 2400
        assert g._levels == tuple(levels)
        assert calls == Counter()


class TestEdgeListRoundTrip:
    def test_declarations_come_first(self):
        g = ug.build_graph(["b", "a"], [("a", "b", 1)])
        text = ug.emit_edge_list(g)
        assert text.splitlines()[0] == "vertex b"
        assert ug.parse_edge_list(text).vertices == ("b", "a")

    def test_isolated_vertex_survives(self):
        g = ug.build_graph(["a", "b", "z"], [("a", "b", "1/3")])
        back = ug.parse_edge_list(ug.emit_edge_list(g))
        assert back.vertices == g.vertices
        assert back.edges == g.edges
        assert back.weight("a", "b") == Fraction(1, 3)

    def test_random_graphs_round_trip_exactly(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_connected_graph(rng, 2, 8)
            back = ug.parse_edge_list(ug.emit_edge_list(g))
            assert back.vertices == g.vertices
            assert list(back.weighted_edges()) == list(g.weighted_edges())

    @pytest.mark.parametrize("name", ["#x", "", "a b", "a\tb", "a\u2028b"])
    def test_names_that_cannot_parse_back_are_refused(self, name):
        g = ug.build_graph(["b", name], [(name, "b", 2)])
        with pytest.raises(ug.ParseError, match=re.escape(repr(name))):
            ug.emit_edge_list(g)

    def test_inner_hash_and_vertex_keyword_round_trip(self):
        g = ug.build_graph(["a#b", "vertex"], [("a#b", "vertex", 1)])
        text = ug.emit_edge_list(g)
        assert ug.emit_edge_list(ug.parse_edge_list(text)) == text

    def test_each_distinct_weight_is_formatted_once(self):
        names = [f"v{i}" for i in range(6)]
        weights = [Fraction(1, 3), 2, Fraction(1, 2)]
        g = ug.build_graph(
            names, [(names[i], names[j], weights[(i + j) % 3]) for i in range(6) for j in range(i + 1, 6)]
        )
        with mock.patch.object(io, "format_weight", wraps=io.format_weight) as fmt:
            text = ug.emit_edge_list(g)
        assert sorted(c.args[0] for c in fmt.call_args_list) == sorted(map(Fraction, weights))
        lines = [f"vertex {v}" for v in names]
        lines += [f"{u} {v} {ug.format_weight(w)}" for u, v, w in g.weighted_edges()]
        assert text == "\n".join(lines)

    def test_digit_limit_names_the_first_edge_that_fails(self):
        # The first edge's weight is the larger level; both are past the
        # integer-to-text limit.
        first, second = Fraction(3**9200), Fraction(1, 3**9100)
        g = ug.build_graph(["a", "b", "c"], [("a", "b", first), ("b", "c", second)])
        with pytest.raises(ug.DigitLimitError) as want:
            ug.format_weight(first)
        with pytest.raises(ug.DigitLimitError) as info:
            ug.emit_edge_list(g)
        assert str(info.value) == str(want.value)

    def test_second_emission_is_identical(self):
        g = ug.build_graph(["a", "b", "c"], [("a", "b", "0.5"), ("b", "c", 2)])
        text = ug.emit_edge_list(g)
        assert ug.emit_edge_list(ug.parse_edge_list(text)) == text


class TestMatrixSerialization:
    def test_json_bytes_pinned(self):
        g = ug.build_graph(["a", "b"], [("a", "b", 3)])
        m = ug.subdominant_matrix(g)
        assert ug.emit_matrix(m, "json") == (
            '{"vertices":["a","b"],'
            '"matrix":[["0","3"],["3","0"]],'
            '"axiom_class":"ultrametric"}'
        )

    def test_csv_bytes_pinned(self):
        g = ug.build_graph(["a", "b"], [("a", "b", 3)])
        m = ug.subdominant_matrix(g)
        assert ug.emit_matrix(m, "csv") == ",a,b\na,0,3\nb,3,0"

    def test_json_round_trip(self):
        rng = random.Random(9)
        for _ in range(15):
            g = random_connected_graph(rng, 2, 7)
            m = ug.subdominant_matrix(g)
            text = ug.emit_matrix(m, "json")
            back = ug.parse_matrix(text, "json")
            assert back == m
            assert ug.emit_matrix(back, "json") == text

    def test_csv_round_trip(self):
        rng = random.Random(13)
        for _ in range(15):
            g = random_connected_graph(rng, 2, 7)
            m = ug.shortest_path_matrix(g)
            text = ug.emit_matrix(m, "csv")
            back = ug.parse_matrix(text, "csv")
            assert back == m
            assert ug.emit_matrix(back, "csv") == text

    def test_class_is_reverified_not_trusted(self):
        text = (
            '{"vertices":["a","b"],'
            '"matrix":[["0","1"],["2","0"]],'
            '"axiom_class":"ultrametric"}'
        )
        m = ug.parse_matrix(text, "json")
        assert m.axiom_class is ug.AxiomClass.NONE

    def test_csv_asymmetric_parses_as_none(self):
        m = ug.parse_matrix(",a,b\na,0,1\nb,2,0", "csv")
        assert m.axiom_class is ug.AxiomClass.NONE

    def test_unknown_format(self):
        g = ug.build_graph(["a", "b"], [("a", "b", 1)])
        m = ug.subdominant_matrix(g)
        with pytest.raises(ug.ParseError):
            ug.emit_matrix(m, "xml")
        with pytest.raises(ug.ParseError):
            ug.parse_matrix("x", "xml")

    JSON_MATRIX = '{"vertices":["a","b"],"matrix":[[0,%s],[%s,0]]}'

    @pytest.mark.parametrize("cell, value", [('"1/3"', Fraction(1, 3)), ("7", Fraction(7))])
    def test_json_string_and_integer_cells(self, cell, value):
        m = ug.parse_matrix(self.JSON_MATRIX % (cell, cell), "json")
        assert m.entry("a", "b") == value

    @pytest.mark.parametrize("cell", ["0.1", "2.5", "true", "[1]", '{"n": 1}', "null"])
    def test_json_cells_of_other_types_are_refused(self, cell):
        with pytest.raises(ug.ParseError, match=re.escape(f"cell {cell} is neither")):
            ug.parse_matrix(self.JSON_MATRIX % (cell, cell), "json")

    @pytest.mark.parametrize(
        "text",
        [
            '{"vertices":["a","b"],"matrix":["01","10"]}',
            '{"vertices":["a","b"],"matrix":[1,2]}',
            '{"vertices":[1,2],"matrix":[[0,1],[1,0]]}',
            '{"vertices":["a","b"],"matrix":[[0,1%s],[1,0]]}' % ("0" * 5000),
            "[" * 100000,
        ],
    )
    def test_malformed_json_matrices_are_parse_errors(self, text):
        with pytest.raises(ug.ParseError):
            ug.parse_matrix(text, "json")

    @pytest.mark.parametrize(
        "matrix, message",
        [
            ('[["0","1"],["1",true]]', "bad matrix json: cell true is neither a weight string nor an integer"),
            ("[[0,1],[true,0]]", "bad matrix json: cell true is neither a weight string nor an integer"),
            ("[[0,1],[1.0,0]]", "bad matrix json: cell 1.0 is neither a weight string nor an integer"),
            ("[[0,1.0],[1,0]]", "bad matrix json: cell 1.0 is neither a weight string nor an integer"),
            ('[["0","1"],["1","x"]]', "bad weight literal 'x'"),
            ('[["1/2","0.5"],["2/4",[0]]]', "bad matrix json: cell [0] is neither a weight string nor an integer"),
            ('[["0",1],[1,"-1"]]', "weight -1 is negative"),
        ],
    )
    def test_first_bad_json_cell_after_good_repeats(self, matrix, message):
        with pytest.raises(ug.UltragraphError) as info:
            ug.parse_matrix('{"vertices":["a","b"],"matrix":%s}' % matrix)
        assert str(info.value) == message

    def test_bad_cells_are_reported_before_bad_names_or_shapes(self):
        with pytest.raises(ug.ParseError, match="^bad weight literal 'y'$"):
            ug.parse_matrix('{"vertices":["a","a"],"matrix":[["0","1"],["1","y"]]}')
        with pytest.raises(ug.ParseError, match=re.escape("bad weight literal '1/0'")):
            ug.parse_matrix(",a,b\na,0,1\nb,1,1/0", "csv")
        with pytest.raises(ug.VertexMismatchError, match="^entries must form a 2x2 square$"):
            ug.parse_matrix('{"vertices":["a","b"],"matrix":[["0","1"],["1"]]}')

    # Which error a matrix with several faults reports: a bad cell before
    # bad names, a ragged row or a malformed later csv row; a csv row count
    # or a non-list json cell in row-major order before anything after it.
    @pytest.mark.parametrize(
        "fmt, text, error, message",
        [
            ("csv", ",a,b\na,0,-1\nb", ug.NegativeWeightError, "weight -1 is negative"),
            ("csv", ",a,b\na,0,x\nc,1,0", ug.ParseError, "bad weight literal 'x'"),
            ("csv", ",a,b\na,0,x", ug.ParseError, "bad matrix csv: row count mismatch"),
            ("csv", ",a,a\na,0,1\na,y,0", ug.ParseError, "bad weight literal 'y'"),
            ("csv", ",a,b\nb,0,x\na,1,0", ug.ParseError, "bad matrix csv row for 'a'"),
            ("json", '{"vertices":["a","a"],"matrix":[["0","x"],["1","0"]]}',
             ug.ParseError, "bad weight literal 'x'"),
            ("json", '{"vertices":["a","b"],"matrix":[["0","x"],["1"]]}',
             ug.ParseError, "bad weight literal 'x'"),
            ("json", '{"vertices":["a","b","c"],"matrix":[["0","1","1"],["x"],["1","1","0"]]}',
             ug.ParseError, "bad weight literal 'x'"),
            ("json", '{"vertices":["a","b"],"matrix":[["0",[1]],["x"]]}',
             ug.ParseError, "bad matrix json: cell [1] is neither a weight string nor an integer"),
            ("json", '{"vertices":["a","b"],"matrix":[["0","x"],[[1],"0"]]}',
             ug.ParseError, "bad weight literal 'x'"),
            ("json", '{"vertices":[],"matrix":[["-1"]]}',
             ug.NegativeWeightError, "weight -1 is negative"),
            ("json", '{"vertices":["a","a"],"matrix":[["0",1],[1]]}',
             ug.VertexMismatchError, "vertex names must be nonempty and distinct"),
            ("json", '{"vertices":["a","b"],"matrix":[["0",1],[1,0],[0,0]]}',
             ug.VertexMismatchError, "entries must form a 2x2 square"),
        ],
    )
    def test_error_precedence(self, fmt, text, error, message):
        with pytest.raises(ug.UltragraphError) as info:
            ug.parse_matrix(text, fmt)
        assert type(info.value) is error
        assert str(info.value) == message

    def test_int_first_cell_then_strings(self, monkeypatch):
        # 1 and "1" are converted apart, and both read as the value 1
        seen, convert = [], io._json_weight
        monkeypatch.setattr(io, "_json_weight", lambda c: seen.append(c) or convert(c))
        back = ug.parse_matrix('{"vertices":["a","b","c"],"matrix":[[0,1,"2"],["1",0,"2"],["2","2",0]]}')
        assert seen == [0, 1, "2", "1"]
        assert back == ug.distance_matrix("abc", [[0, 1, 2], [1, 0, 2], [2, 2, 0]])
        assert back.axiom_class is AxiomClass.ULTRAMETRIC

    def test_comma_in_vertex_name_rejected_for_csv(self):
        m = ug.distance_matrix(["a,b", "c"], [[0, 1], [1, 0]])
        with pytest.raises(ug.ParseError):
            ug.emit_matrix(m, "csv")
        assert "a,b" in ug.emit_matrix(m, "json")

    @pytest.mark.parametrize(
        "brk",
        ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
    )
    @pytest.mark.parametrize("where", ["a{}b", "{}a", "a{}"])
    def test_line_break_in_vertex_name_rejected_for_csv(self, brk, where):
        # parse_matrix splits csv rows with str.splitlines, which breaks at each.
        name = where.format(brk)
        m = ug.distance_matrix([name, "c"], [["0", "1"], ["1", "0"]])
        message = f"vertex name {name!r} cannot appear in csv"
        with pytest.raises(ug.ParseError, match=re.escape(message)):
            ug.emit_matrix(m, "csv")
        assert ug.parse_matrix(ug.emit_matrix(m, "json")) == m

    def test_empty_vertex_name_round_trips_through_csv(self):
        m = ug.distance_matrix(["", "c"], [["0", "1"], ["1", "0"]])
        text = ug.emit_matrix(m, "csv")
        assert text == ",,c\n,0,1\nc,1,0"
        assert ug.parse_matrix(text, "csv") == m


class TestNewick:
    def two_level(self):
        return ug.distance_matrix(
            ["a", "b", "c"],
            [
                [0, 1, 2],
                [1, 0, 2],
                [2, 2, 0],
            ],
        )

    def test_pinned_output(self):
        d = ug.dendrogram(self.two_level())
        assert ug.emit_newick(d) == "((a:0.5,b:0.5):0.5,c:1);"

    def test_leaf_to_leaf_length_is_distance(self):
        rng = random.Random(17)
        for _ in range(10):
            names = [f"v{i}" for i in range(rng.randint(2, 7))]
            m = random_ultrametric(rng, names)
            d = ug.dendrogram(m)
            back = ug.matrix_from_dendrogram(d, m.vertices)
            assert back == m

    def test_inexact_length_raises_without_digits(self):
        m = ug.distance_matrix(
            ["a", "b"], [[0, Fraction(2, 3)], [Fraction(2, 3), 0]]
        )
        d = ug.dendrogram(m)
        with pytest.raises(ug.InexactDecimalError):
            ug.emit_newick(d)

    def test_approx_digits_annotates_exact_ratio(self):
        m = ug.distance_matrix(
            ["a", "b"], [[0, Fraction(2, 3)], [Fraction(2, 3), 0]]
        )
        d = ug.dendrogram(m)
        out = ug.emit_newick(d, approx_digits=6)
        assert out == "(a:0.333333[1/3],b:0.333333[1/3]);"

    def thirds(self):
        return ug.dendrogram(ug.distance_matrix(
            ["a", "b"], [[0, Fraction(2, 3)], [Fraction(2, 3), 0]]
        ))

    @pytest.mark.parametrize("digits", [-1, 2.5, True, 10**6])
    def test_approx_digits_out_of_range_refused(self, digits):
        with pytest.raises(ValueError, match="approx_digits"):
            ug.emit_newick(self.thirds(), approx_digits=digits)

    def test_approx_digits_bounds_accepted(self):
        d = self.thirds()
        assert ug.emit_newick(d, approx_digits=0) == "(a:0[1/3],b:0[1/3]);"
        out = ug.emit_newick(d, approx_digits=1000)
        assert out.startswith("(a:0." + "3" * 1000 + "[1/3]")

    def test_a_float_height_is_refused(self):
        leaves = (ug.Dendrogram(Fraction(0), (), "a"), ug.Dendrogram(Fraction(0), (), "b"))
        for height in (0.5, 1.0):
            with pytest.raises(TypeError, match="refusing to build an exact weight from float"):
                ug.emit_newick(ug.Dendrogram(height, leaves))

    def test_string_heights_are_read_as_weights(self):
        # As matrix_from_dendrogram reads them, which doubles each height.
        leaves = (ug.Dendrogram(Fraction(0), (), "a"), ug.Dendrogram(Fraction(0), (), "b"))
        assert ug.emit_newick(ug.Dendrogram("3", leaves)) == "(a:3,b:3);"
        assert ug.emit_newick(ug.Dendrogram("1/2", leaves)) == "(a:0.5,b:0.5);"
        assert ug.matrix_from_dendrogram(ug.Dendrogram("3", leaves)).entry("a", "b") == 6

    def test_a_child_above_its_parent_gives_a_negative_length(self):
        leaves = (ug.Dendrogram(Fraction(0), (), "a"), ug.Dendrogram(Fraction(0), (), "b"))
        tree = ug.Dendrogram(1, (ug.Dendrogram(Fraction(5, 2), leaves), ug.Dendrogram(0, (), "c")))
        assert ug.emit_newick(tree) == "((a:2.5,b:2.5):-1.5,c:1);"

    def test_quoting_agrees_with_isspace_on_every_code_point(self):
        odd = [c for c in map(chr, range(0x110000))
               if (io._newick_label(c) != c) != (c.isspace() or c in "()[]':;,")]
        assert odd == []

    def test_metacharacter_labels_are_quoted(self):
        m = ug.distance_matrix(
            ["it's", "a b", "plain"], [[0, 2, 4], [2, 0, 4], [4, 4, 0]]
        )
        assert ug.emit_newick(ug.dendrogram(m)) == "(('a b':1,'it''s':1):1,plain:2);"

    def test_multiway_node(self):
        m = ug.distance_matrix(
            ["a", "b", "c"],
            [[0, 2, 2], [2, 0, 2], [2, 2, 0]],
        )
        assert ug.emit_newick(ug.dendrogram(m)) == "(a:1,b:1,c:1);"
