"""Pinned CLI transcripts: every command, in every format it offers, over a
small seeded corpus, and the help and usage-error texts.

Each command's transcripts (exit code, stdout, stderr per input) hash to
one sha256, which is pinned below; the help and usage-error transcripts
of ``USAGE``, at 80 columns, hash to one more. A change that alters any
byte of any transcript fails here. To print the digests of the current
code, run

    COLUMNS=80 PYTHONPATH=src:tests python tests/test_transcripts.py
"""

import hashlib
import io
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import ultragraph as ug
from ultragraph.cli import main

from corpus import disjoint_union, random_connected_graph, random_multipartite

COMMANDS = [
    ["check"],
    ["subdominant"],
    ["subdominant", "--format", "csv"],
    ["subdominant", "--format", "newick"],
    ["subdominant", "--format", "newick", "--approx-digits", "3"],
    ["shortest"],
    ["shortest", "--format", "csv"],
    ["least"],
    ["least", "--format", "csv"],
    ["tm"],
    ["wch"],
    ["unique"],
    ["structure"],
    ["exponent"],
    ["augment"],
    ["augment", "--const", "v0x=1/3"],
    ["augment", "--const", "v0=0.25"],
    ["oracle", "check"],
    ["oracle", "subdominant"],
    ["oracle", "subdominant", "--format", "csv"],
    ["oracle", "tm"],
]

# argparse's own output: every help text, then usage errors without a line
# break (a bad command, option value or choice, an unrecognized argument).
USAGE = [
    ["--help"],
    *([name, "--help"] for name in ["check", "subdominant", "shortest", "least", "tm", "wch",
                                    "unique", "structure", "exponent", "augment", "oracle"]),
    ["bogus"],
    [],
    ["subdominant", "--format", "yaml"],
    ["oracle", "bogus"],
    ["exponent", "--tol", "x"],
    ["exponent", "--tol", "0"],
    ["subdominant", "--format", "newick", "--approx-digits", "1001"],
    ["check", "--format", "csv"],
]


def spell(rng: random.Random, w: Fraction) -> str:
    """One of several literals for ``w``: the shortest form, p/q or 2p/2q."""
    return rng.choice([ug.format_weight(w), f"{w.numerator}/{w.denominator}",
                       f"{2 * w.numerator}/{2 * w.denominator}"])


def corpus() -> list[str]:
    """Edge-list texts: random connected and multipartite graphs, their
    disjoint unions, with mixed weight spellings, and a few bad inputs."""
    rng = random.Random(20240611)
    graphs = [random_connected_graph(rng, 2, 6) for _ in range(12)]
    graphs += [random_multipartite(rng, part_max=2) for _ in range(6)]
    graphs += [disjoint_union(graphs[i], graphs[i + 12]) for i in range(3)]
    texts = []
    for g in graphs:
        lines = [f"vertex {v}" for v in g.vertices]
        lines += [f"{u} {v} {spell(rng, w)}" for u, v, w in g.weighted_edges()]
        rng.shuffle(lines)
        texts.append("\n".join(lines) + "\n")
    texts += [
        "a b 1/3\nb c 1/6\nc d 1/3\n",
        "a b 1\nb c 2\na c 3\n",
        "a b 0\nb c 0\nc d 1\n",
        "a b x\n",
        "a b -1\n",
        "a a 1\n",
        "# nothing\n",
        f"a b {'9' * 1001}\n",
    ]
    return texts


def run(argv: list[str], text: str) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    stdin = io.StringIO(text)
    with redirect_stdout(out), redirect_stderr(err):
        saved, sys.stdin = sys.stdin, stdin
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        finally:
            sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def digests() -> dict[str, str]:
    texts = corpus()
    out = {}
    for argv in COMMANDS:
        h = hashlib.sha256()
        for text in texts:
            code, stdout, stderr = run(argv, text)
            h.update(f"{code}\0{stdout}\0{stderr}\0".encode())
        out[" ".join(argv)] = h.hexdigest()
    return out


def usage_digest() -> str:
    h = hashlib.sha256()
    for argv in USAGE:
        code, stdout, stderr = run(argv, "a b 1\n")
        h.update(f"{code}\0{stdout}\0{stderr}\0".encode())
    return h.hexdigest()


# Taken before the interned-value builders landed; they must not move.
PINNED = {
    'check': 'd9975828ac61d43f10d1f605ec45a316daf4ae8833908c73a46f93428444b653',
    'subdominant': 'dec60bc05108c5a1b7c71c24a637e888b1a2f9283ba108a665c04173c89c8b7d',
    'subdominant --format csv': 'ffc0c1fdcb1703101741ffc4961f66a1c2c18fd6cec3e6c511e975281942cfd5',
    'subdominant --format newick': '050fd7c2c29f7118fa54f937869ef632e1229d61f4e460267564ec9db185fd96',
    'subdominant --format newick --approx-digits 3': '8e895e40569bb884d8b1c1019e7505bc597830be901358640d92710058f35566',
    'shortest': '239b4c9e0233b175596723ccd9be815a29ab2446c0e379f40a9b894e502ac527',
    'shortest --format csv': '05497c4be7297f4abac75be4708c9f8811d16dee45ba64f979dcea3a155719ad',
    'least': 'e7168ea291c1d49b576d0f62d010b712bfd9104c1e71360b3f7bf4d62db677d2',
    'least --format csv': 'b4abfedf0ee557aa420b7707bbeef7d7703940b535001d29ee543199da0a637e',
    'tm': '185caa1ff3ad4a7fb61eaae9b59b4a2b89c6994f21b14749947420bf13926218',
    'wch': 'ae5191947c2f104d10e7643e8e0ab6eec0eee8e5c944d223c7e5636116cd1d93',
    'unique': '2c31895a6d957c280bd9e3aa8a1454fff3daca4d858ea9895e9bcc47de804913',
    'structure': '84042ca7630421233e17ec6a56e4568fe74cd5a789fb653be301ac090b83462d',
    'exponent': '379ea7b2a497c17ef802006b956d2f7e0a1c58d977e8d27ee5aa1921c30ace6e',
    'augment': '59161fda80a74959fb5e4fbaedeb655d8f199cc36eb291a1a1377776f869ab8b',
    'augment --const v0x=1/3': '58c1ca7d37d28ca0d20445a215897c71fd5416a3609f4b2c20aa9b1d89dfdc85',
    'augment --const v0=0.25': 'b37e157622e6217b0790a981e25dfb68094281acc1e27bd6c85f2c159c3a3a1e',
    'oracle check': '747425e1e5bbfcc876b3422c3704995d2e592519a51f66b65f8d2bdad611d367',
    'oracle subdominant': '310c1ff17aa77deddf64a42645264f5d41e81e56450ee1f2744ee6769967e16e',
    'oracle subdominant --format csv': '26c73c3c6a7fae7bcbf56339f487afde9824b01f5bc9e7967cb532e60f3c5b5c',
    'oracle tm': '2a7a08fd6bfc24f832a949d317071c550cb267ac3c1cafdf31a002dea7bf897a',
}


# Taken before the commands were declared in one table, under Python 3.11;
# argparse words its help and errors differently in other versions.
PINNED_USAGE = "3bcfeb12aa1d10a9dbd71518fae0a5a9522c9cad0552d30a04b796a1da4f27a6"


def test_transcripts_match_pinned_digests():
    assert digests() == PINNED


def test_help_and_usage_errors_match_pinned_digest(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert usage_digest() == PINNED_USAGE


if __name__ == "__main__":
    for name, d in digests().items():
        print(f"    {name!r}: {d!r},")
    print(f"PINNED_USAGE = {usage_digest()!r}")
