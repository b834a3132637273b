"""Seeded closed-loop benchmark of the ultragraph command line.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ``sparse``, ``multipartite`` or ``chain`` (see ``workloads.py``),
``all`` to run those three one after another, each in its own process,
or the probe ``deep``. The seed fixes the generated inputs, which are
written to files and passed to ``ultragraph.cli.main`` with ``-i``. One
client runs sessions back to back (a closed loop, one process, one
thread) for S seconds and at least once over the pool; afterwards every
output is checked against the references in ``reference.py``, outside
every metric.

With ``--trace 0`` the last stdout line reports the end-to-end metrics,
CPU times scaled to reference seconds by ``calibrate.py``;
with ``--trace 1`` it reports per-layer metrics from a traced run
(``tracing.py``), followed by an untraced replay of the same sessions that
gives the tracing overhead. Full results, with per-op output digests and
provenance, go to ``bench/results/``. The library is imported from the
checkout's ``src/``; without it the run exits with a nonzero status.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter, thread_time

import calibrate
import workloads
from reference import check_session
from session import digest, run_session, seal
from tracing import Tracer, layer_of, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
# Each probe is one short import, which a fast or slow moment of the host
# moves by a fifth either way; the median needs several.
SETUP_PROBES = 9

SELF_TIMED = (
    "metrics.shortest_path_matrix",
    "metrics.subdominant_matrix",
    "metrics.distance_matrix",
    "metrics.quotient",
    "metrics.dendrogram",
    "io.emit_newick",
    "extension.least_extension",
    "extension.twice_max_pairs",
    "extension.is_unique_extension",
    "extension.is_pseudoultrametrizable",
    "extension.well_chained_pairs",
    "io.parse_edge_list",
    "graph.connected_components",
    "io.emit_matrix",
    "io.parse_matrix",
    "structure.multipartite_parts",
)
CALLS = (
    "metrics.distance_matrix",
    "graph.strict_threshold_subgraph",
    "graph.build_graph",
    "graph.connected_components",
)
CLASSIFIED = ("metrics.subdominant_matrix", "metrics.shortest_path_matrix", "metrics.distance_matrix")


def load_library():
    """Import ultragraph from this checkout's src/, or exit with an error."""
    if not (SRC / "ultragraph" / "__init__.py").is_file():
        sys.exit(f"bench: no ultragraph sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ultragraph.cli
    import ultragraph.io

    if Path(ultragraph.__file__).resolve().parent != (SRC / "ultragraph").resolve():
        sys.exit(f"bench: imported ultragraph from {ultragraph.__file__}, not {SRC}")
    return ultragraph.cli, ultragraph.io


class Runner:
    """Runs sessions and keeps what the checks need: the outputs of each
    input's first session and the op digests of every session."""

    def __init__(self, cli, lib_io, paths: list[str], ops):
        self.cli, self.lib_io, self.paths, self.ops = cli, lib_io, paths, ops
        self.first: dict[int, list[tuple]] = {}
        self.first_digests: dict[int, list[str]] = {}
        self.runs: list[tuple[int, list[str]]] = []

    def session(self, gi: int) -> tuple[float, float]:
        """Run one session on input ``gi``; returns its (CPU, wall) seconds."""
        c0, t0 = thread_time(), perf_counter()
        raw = run_session(self.cli, self.lib_io, self.paths[gi], self.ops)
        cpu, wall = thread_time() - c0, perf_counter() - t0
        outcomes = seal(raw)
        digests = [digest(o) for o in outcomes]
        self.first.setdefault(gi, outcomes)
        self.first_digests.setdefault(gi, digests)
        self.runs.append((gi, digests))
        return cpu, wall

    def loop(self, seconds: float, after=None) -> tuple[list[tuple[int, float, float]], float]:
        """Closed loop over the pool in order until ``seconds`` have passed
        and every input has run once; returns (pool index, CPU s, wall s)
        per session and the loop's wall time."""
        done = []
        start = perf_counter()
        while perf_counter() - start < seconds or len(done) < len(self.paths):
            gi = len(done) % len(self.paths)
            done.append((gi, *self.session(gi)))
            if after:
                after()
        return done, perf_counter() - start

    def failures(self, pool) -> tuple[int, int, list[str], set[int]]:
        """(ops attempted, ops failed, first reasons, indices of failed runs)."""
        verdicts = {gi: check_session(pool[gi], self.ops, o) for gi, o in self.first.items()}
        first = self.first_digests
        attempted = failed = 0
        reasons, bad_runs = [], set()
        for k, (gi, digests) in enumerate(self.runs):
            for j, d in enumerate(digests):
                attempted += 1
                why = verdicts[gi][j] or (
                    None if d == first[gi][j] else "output differs between runs of one input"
                )
                if why:
                    failed += 1
                    bad_runs.add(k)
                    if len(reasons) < 20:
                        reasons.append(f"input {gi} op {' '.join(self.ops[j])}: {why}")
        return attempted, failed, reasons, bad_runs

    def workload_digest(self) -> str:
        h = hashlib.sha256()
        for gi in sorted(self.first_digests):
            h.update("".join(self.first_digests[gi]).encode())
        return h.hexdigest()


def setup_seconds(workload: str, path: str) -> list[float]:
    """CPU time that fresh processes spend importing ultragraph and
    running one session (``setup_probe.py``)."""
    times = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), workload, path],
            check=True,
            stdout=subprocess.PIPE,
            text=True,
            timeout=120,
        )
        times.append(json.loads(probe.stdout.splitlines()[-1])["cpu_s"])
    return times


def reference_scale(kernel_s: list[float]) -> float:
    """Factor from a run's CPU seconds to reference seconds
    (``calibrate.py``): ``REFERENCE_S`` over the mean kernel time. When the
    host flips between fast and slow states faster than a session lasts,
    each session averages over them, and so does a mean of the short
    kernel runs; their median would follow whichever state is commoner."""
    return calibrate.REFERENCE_S / statistics.fmean(kernel_s)


def per_input_medians(sessions, latencies: list[float], keep) -> list[float]:
    """Per pool input, the median latency of its sessions whose run number
    (from 1, after the warm-up) passes ``keep``; inputs with none are left
    out."""
    by_input = defaultdict(list)
    for k, ((gi, *_), lat) in enumerate(zip(sessions, latencies), start=1):
        if keep(k):
            by_input[gi].append(lat)
    return [statistics.median(v) for v in by_input.values()]


def tail(latencies: list[float]) -> tuple[float, int] | None:
    """Highest percentile with at least ten sessions beyond it, as
    (value, percentile); None with fewer than 11 sessions."""
    n = len(latencies)
    if n < 11:
        return None
    return sorted(latencies)[n - 11], math.floor(100 * (n - 10) / n)


def code_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.glob("ultragraph/*.py"), *BENCH.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(seed: int) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            probe = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = probe.stdout.strip() if probe.returncode == 0 else None
        except FileNotFoundError:
            pass
    cpu = next(
        (ln.split(":", 1)[1].strip() for ln in Path("/proc/cpuinfo").read_text().splitlines()
         if ln.startswith("model name")),
        platform.processor() or None,
    )
    return {
        "git_commit": commit,
        "code_sha256": code_sha256(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg": Path("/proc/loadavg").read_text().split()[:3],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "recursion_limit": sys.getrecursionlimit(),
    }


def layer_metrics(tracer, sessions, pool, runner, probe_s, overhead) -> dict:
    """Per-layer numbers of a traced run, per session unless a ratio."""
    spans = tracer.spans
    selfs = self_times(spans)
    per = 1 / len(sessions)
    own, calls, work = Counter(), Counter(), Counter()
    raised, layer_self, layer_calls = Counter(), Counter(), Counter()
    top = 0.0
    rebuilt = 0
    for s, own_s in zip(spans, selfs):
        own[s.name] += own_s
        calls[s.name] += 1
        work[s.name] += s.work
        layer_self[layer_of(s.name)] += own_s
        layer_calls[layer_of(s.name)] += 1
        if s.parent < 0:
            top += s.end - s.start
        if s.raised and (s.parent < 0 or layer_of(spans[s.parent].name) != layer_of(s.name)):
            raised[layer_of(s.name)] += 1
        if s.name == "graph.build_graph":
            p = s.parent
            while p >= 0 and layer_of(spans[p].name) != "extension":
                p = spans[p].parent
            rebuilt += s.work if p >= 0 else 0

    ops = runner.ops
    tm_op = ops.index(("tm",)) if ("tm",) in ops else None
    input_edges = levels = nonadjacent = tm_pairs = 0
    for gi, *_ in sessions:
        g = pool[gi]
        n, m = len(g.vertices), len(g.edges)
        input_edges += m * sum(op[0] != "parse_matrix" for op in ops)
        levels += len({w for _, _, w in g.edges})
        nonadjacent += n * (n - 1) // 2 - m
        if tm_op is not None:
            tm_pairs += runner.first[gi][tm_op][1].count("\n")

    sizes = [s.work for s in spans if s.name in CLASSIFIED]
    out = {f"{name}.self_s": (own[name] * per, "s") for name in SELF_TIMED}
    out.update({f"{name}.calls": (calls[name] * per, "count") for name in CALLS})
    out.update({
        "metrics.classify_probe_s": (probe_s * per, "s"),
        "metrics.triples": (sum(k**3 for k in sizes) * per, "count"),
        "metrics.cells": (sum(k**2 for k in sizes) * per, "count"),
        "graph.build_graph.edges": (work["graph.build_graph"] * per, "count"),
        "extension.rebuild_edge_ratio": (rebuilt / input_edges, "ratio"),
        "extension.weight_levels": (levels * per, "count"),
        "extension.nonadjacent_pairs": (nonadjacent * per, "count"),
        "extension.twice_max_yield": (tm_pairs / nonadjacent if tm_op is not None else 0.0, "ratio"),
        "io.parse_edge_list.bytes": (work["io.parse_edge_list"] * per, "B"),
        "io.emit_matrix.cells": (sum(s.work**2 for s in spans if s.name == "io.emit_matrix") * per, "count"),
        "io.parse_matrix.cells": (sum(s.work**2 for s in spans if s.name == "io.parse_matrix") * per, "count"),
        "structure.calls": (layer_calls["structure"] * per, "count"),
        "cli.self_s": (layer_self["cli"] * per, "s"),
        "cli.ops": (len(ops), "count"),
        "trace.overhead_frac": (overhead, "ratio"),
        "trace.coverage_frac": (top / sum(wall for *_, wall in sessions), "ratio"),
    })
    for layer in ("metrics", "io", "extension", "graph", "structure"):
        out[f"{layer}.raised"] = (raised[layer] * per, "count")
    return out


def traced_loop(runner: Runner, seconds: float):
    """Traced closed loop, then an untraced replay of the same sessions.

    Returns (tracer, sessions, wall time, classify probe time, overhead):
    the overhead is the CPU time of the traced sessions over that of their
    replay, minus one.
    After each session, outside its latency, every matrix the CLI printed
    is classified again with the untraced ``distance_matrix``.
    """
    import ultragraph.metrics

    classify = ultragraph.metrics.distance_matrix
    tracer = Tracer()
    probe_s = 0.0

    def classify_probe():
        nonlocal probe_s
        for m in tracer.matrices:
            t0 = perf_counter()
            classify(m.vertices, m.entries)
            probe_s += perf_counter() - t0
        tracer.matrices.clear()
        tracer.session += 1

    with tracer:
        sessions, wall = runner.loop(seconds, after=classify_probe)
    replay_s = sum(runner.session(gi)[0] for gi, *_ in sessions)
    overhead = sum(cpu for _, cpu, _ in sessions) / replay_s - 1
    return tracer, sessions, wall, probe_s, overhead


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    cli, lib_io = load_library()
    prov = provenance(seed)
    pool = workloads.build(name, seed)
    ops = workloads.OPS[name]
    work = BENCH / "_work" / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        paths = []
        for gi, g in enumerate(pool):
            path = work / f"input{gi}.txt"
            path.write_text(g.edge_list_text())
            paths.append(str(path))
        small = work / "small.txt"
        small.write_text(workloads.build_small(name, seed).edge_list_text())
        setups = [] if traced else setup_seconds(name, str(small))
        runner = Runner(cli, lib_io, paths, ops)
        runner.session(0)  # warm-up, untimed
        if traced:
            tracer, sessions, wall, probe_s, overhead = traced_loop(runner, seconds)
        else:
            kernel_s = []
            sessions, wall = runner.loop(seconds, after=lambda: kernel_s.append(calibrate.timed()))
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted, failed, reasons, bad_runs = runner.failures(pool)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wdigest = runner.workload_digest()
    RESULTS.mkdir(exist_ok=True)
    for old in RESULTS.glob(f"{name}-seed{seed}-trace*.json"):
        prior = json.loads(old.read_text())
        if prior["provenance"]["code_sha256"] == prov["code_sha256"] and prior["workload_digest"] != wdigest:
            failed += 1
            reasons.append(f"workload digest differs from {old.name}")

    # Sessions of the measured loop come first in runner.runs (after the
    # warm-up); a session is complete only if none of its ops failed.
    # ``metrics`` go on the last stdout line; ``extra`` only to the summary
    # and the results file: the tail follows the host's slow phases too
    # closely to bound, and op_failed_frac is 0 on listed workloads.
    metrics = {}
    extra = {"op_failed_frac": (failed / attempted, "", f"{failed}/{attempted} ops")}
    if not traced:
        scale = reference_scale(kernel_s)
        ref = [cpu * scale for _, cpu, _ in sessions]
        every = per_input_medians(sessions, ref, lambda k: True)
        completed = per_input_medians(sessions, ref, lambda k: k not in bad_runs)
        ok = [lat for k, lat in enumerate(ref, start=1) if k not in bad_runs]
        # Scaled by the loop's kernel, which runs seconds after the probes.
        metrics["setup_s"] = (
            statistics.median(setups) * scale, "s", f"median of {SETUP_PROBES} fresh processes"
        )
        # Completed sessions per second when each input takes its median
        # time: bursts of contention and the inputs a short run reaches
        # twice do not move it.
        metrics["sessions_per_s"] = (
            len(ok) / len(ref) * len(every) / sum(every), "1/s",
            f"{len(ok)} of {len(ref)} sessions completed in {wall:.1f} s",
        )
        # Unbounded: a pool that mixes sizes on purpose puts its median in
        # a gap between size classes that moves with the seed.
        if completed:
            extra["session_p50_s"] = (
                statistics.median(completed), "s", f"median over {len(completed)} inputs"
            )
        t = tail(ok)
        if t:
            extra["session_tail_s"] = (t[0], "s", f"p{t[1]} of {len(ok)} sessions")
        extra["kernel_cpu_s"] = (
            statistics.fmean(kernel_s), "s", f"mean of {len(kernel_s)} calibration kernel runs"
        )
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB", "")
    else:
        layers = layer_metrics(tracer, sessions, pool, runner, probe_s, overhead)
        metrics = {k: (v, u, "") for k, (v, u) in layers.items()}
        with open(RESULTS / f"spans-{name}-seed{seed}.jsonl", "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.session, s.raised, s.work]) + "\n")

    result = {
        "workload": name,
        "trace": int(traced),
        "provenance": prov,
        "sessions": len(sessions),
        "wall_s": wall,
        "latencies_cpu_s": [cpu for _, cpu, _ in sessions],
        "latencies_wall_s": [wall for *_, wall in sessions],
        "kernel_cpu_s": [] if traced else kernel_s,
        "attempted": attempted,
        "failed": failed,
        "failure_reasons": reasons,
        "metrics": {k: {"value": v, "unit": u, "note": note} for k, (v, u, note) in metrics.items()},
        "extra": {k: {"value": v, "unit": u, "note": note} for k, (v, u, note) in extra.items()},
        "op_digests": {
            str(gi): dict(zip((" ".join(op) for op in ops), runner.first_digests[gi]))
            for gi in sorted(runner.first_digests)
        },
        "workload_digest": wdigest,
    }
    (RESULTS / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(json.dumps(result, indent=1))
    return result


def summary(r: dict) -> list[str]:
    lines = [
        f"workload {r['workload']} seed {r['provenance']['seed']}: {r['sessions']} sessions, "
        f"{r['attempted']} ops, {r['failed']} failed"
    ]
    for name, m in [*r["metrics"].items(), *r["extra"].items()]:
        lines.append(f"  {name:40s} {m['value']:.6g} {m['unit']}  {m['note']}".rstrip())
    lines += [f"  failed: {why}" for why in r["failure_reasons"]]
    return lines


def final_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def run_all(args) -> int:
    """Each listed workload in its own process, one after another."""
    merged, attempted, failed, correct = {}, 0, 0, True
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"bench: workload {name} exited with status {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        attempted += last["attempted"]
        failed += last["failed"]
        correct &= last["correct"]
        merged.update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(final_line(correct, attempted, failed, merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sparse", "multipartite", "chain", "deep", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    r = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(summary(r)))
    metrics = {k: {"value": m["value"], "unit": m["unit"]} for k, m in r["metrics"].items()}
    print(final_line(r["failed"] == 0, r["attempted"], r["failed"], metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
