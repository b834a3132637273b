"""Tests of the benchmark itself: generators, checks, tracing, self time.

Run with: python3 -m pytest bench/tests
"""

import json
import random
from fractions import Fraction

import pytest

import ultragraph.cli
import ultragraph.io
import workloads
from reference import check_session, path_newick
import calibrate
from run import Runner, per_input_medians, reference_scale
from session import run_session, seal
from tracing import LAYERS, Span, Tracer, self_times


def _write(tmp_path, graphs):
    paths = []
    for i, g in enumerate(graphs):
        path = tmp_path / f"input{i}.txt"
        path.write_text(g.edge_list_text())
        paths.append(str(path))
    return paths


def _small(kind):
    """Small inputs of each workload's kind, with the workload's ops."""
    rng = random.Random(5)
    if kind == "sparse":
        return [workloads.sparse_graph(rng, 12, e) for e in (False, True, True)]
    if kind == "multipartite":
        return [
            workloads.multipartite_graph(rng, 12, 3, "singleton", 3, True),
            workloads.multipartite_graph(rng, 10, 2, "skewed", None, False),
        ]
    return [workloads.chain_graph(rng, 30), workloads.path_graph([Fraction(k) for k in range(1, 30)])]


@pytest.mark.parametrize("name", [*workloads.WORKLOADS, "deep"])
def test_generators_are_deterministic_per_seed(name):
    first = workloads.build(name, 11)
    again = workloads.build(name, 11)
    assert [g.edge_list_text() for g in first] == [g.edge_list_text() for g in again]
    assert [g.planted for g in first] == [g.planted for g in again]
    assert workloads.build_small(name, 11).edge_list_text() == workloads.build_small(name, 11).edge_list_text()
    if name != "deep":
        other = workloads.build(name, 12)
        assert [g.edge_list_text() for g in first] != [g.edge_list_text() for g in other]


@pytest.mark.parametrize("kind", ["sparse", "multipartite", "chain"])
def test_correct_outputs_pass_every_check(tmp_path, kind):
    graphs = _small(kind)
    ops = list(workloads.OPS[kind])
    for g, path in zip(graphs, _write(tmp_path, graphs)):
        outcomes = seal(run_session(ultragraph.cli, ultragraph.io, path, ops))
        assert check_session(g, ops, outcomes) == [None] * len(ops)


def _corrupt_entry(outcome):
    code, out, err = outcome
    doc = json.loads(out)
    doc["matrix"][0][1] = "12345"
    return code, json.dumps(doc, separators=(",", ":")), err


@pytest.mark.parametrize(
    "op, corrupt",
    [
        (("subdominant",), _corrupt_entry),
        (("shortest",), _corrupt_entry),
        (("check",), lambda o: (1 - o[0], o[1], o[2])),
        (("unique",), lambda o: (0, "unique\n", "")),
        (("check",), lambda o: ("RecursionError", "", "")),
        (("unique",), lambda o: (2, "", "not-extendable: a\nmore\n")),
    ],
)
def test_a_corrupted_output_counts_as_failed_ops(tmp_path, op, corrupt):
    graphs = _small("sparse")
    runner = Runner(ultragraph.cli, ultragraph.io, _write(tmp_path, graphs), workloads.SPARSE_OPS)
    for gi in (0, 1, 0):
        runner.session(gi)
    assert runner.failures(graphs)[1] == 0
    j = workloads.SPARSE_OPS.index(op)
    runner.first[0][j] = corrupt(runner.first[0][j])
    attempted, failed, reasons, bad_runs = runner.failures(graphs)
    assert (attempted, failed, bad_runs) == (18, 2, {0, 2})
    assert reasons[0].startswith(f"input 0 op {op[0]}")


def test_an_output_that_changes_between_runs_fails(tmp_path):
    graphs = _small("chain")
    runner = Runner(ultragraph.cli, ultragraph.io, _write(tmp_path, graphs), workloads.CHAIN_OPS)
    for gi in (0, 0):
        runner.session(gi)
    gi, digests = runner.runs[1]
    digests[3] = "0" * 64
    assert runner.failures(graphs)[1:] == (1, ["input 0 op parse_matrix: output differs between runs of one input"], {1})


def _bindings():
    import importlib

    return {
        (layer, attr): obj
        for layer in LAYERS
        for attr, obj in vars(importlib.import_module(f"ultragraph.{layer}")).items()
    }


def test_module_bindings_are_identical_after_a_traced_run(tmp_path):
    graphs = _small("multipartite")
    path = _write(tmp_path, graphs)[0]
    before = _bindings()
    with Tracer() as tracer:
        assert _bindings() != before
        run_session(ultragraph.cli, ultragraph.io, path, workloads.MULTIPARTITE_OPS)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    spans = tracer.spans
    edges = {(spans[s.parent].name, s.name) for s in spans if s.parent >= 0}
    assert ("cli.main", "metrics.subdominant_matrix") in edges
    assert ("metrics.subdominant_matrix", "graph.connected_components") in edges
    assert ("extension.least_extension", "structure.multipartite_parts") in edges
    names = {s.name for s in spans}
    assert not any(n.startswith("oracle.") or n.endswith(".to_weight") for n in names)


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        Span("cli.main", 0.0, 10.0, -1, 0),
        Span("metrics.a", 1.0, 4.0, 0, 0),
        Span("graph.b", 2.0, 3.0, 1, 0),
        Span("io.c", 5.0, 7.0, 0, 0),
        Span("io.d", 7.0, 8.5, 0, 0),
        Span("cli.main", 11.0, 12.0, -1, 1),
    ]
    assert self_times(spans) == pytest.approx([3.5, 2.0, 1.0, 2.0, 1.5, 1.0])


def test_reference_newick_needs_no_recursion():
    weights = [Fraction(k) for k in range(1, 3000)]
    text = path_newick([f"v{i}" for i in range(3000)], weights)
    assert text.startswith("(" * 2999) and text.endswith(":1499.5);")


def test_reference_scale_and_per_input_medians():
    # A host that runs the kernel at half speed half the time is 1.5x slow.
    r = calibrate.REFERENCE_S
    assert reference_scale([r, 2 * r, r, 2 * r]) == pytest.approx(1 / 1.5)
    # (pool index, CPU s, wall s) per session
    sessions = [(0, 1.0, 1.1), (1, 2.0, 2.1), (0, 3.0, 3.1), (1, 4.0, 4.1), (0, 2.0, 2.1)]
    lat = [cpu for _, cpu, _ in sessions]
    assert per_input_medians(sessions, lat, lambda k: True) == pytest.approx([2.0, 3.0])
    assert per_input_medians(sessions, lat, lambda k: k != 4) == pytest.approx([2.0, 2.0])


def test_calibration_kernel_is_fixed_work():
    assert calibrate.kernel() == calibrate.kernel()
    assert calibrate.timed() > 0
