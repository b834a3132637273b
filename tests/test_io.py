"""Edge-list, matrix and Newick serialization."""

import random
import re
from fractions import Fraction

import pytest

import ultragraph as ug

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

    def test_comma_in_vertex_name_rejected_for_csv(self):
        m = ug.distance_matrix(["a,b", "c"], [[0, 1], [1, 0]])
        with pytest.raises(ug.ParseError):
            ug.emit_matrix(m, "csv")
        assert "a,b" in ug.emit_matrix(m, "json")


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
