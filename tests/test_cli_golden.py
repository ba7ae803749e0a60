"""Byte-exact pins of the command line and of every parse diagnostic.

Each CLI case records the exit code, stdout and stderr of ``garnorm`` on a
gallery input (in text and in ``--json``) or on a small file; each parse
case records the ``ParseError`` message that one malformed text raises.
The expected values live in ``cli_golden.json`` next to this file.  After a
deliberate change of output, rewrite that file with

    PYTHONPATH=src python tests/test_cli_golden.py

and review its diff.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from garnorm import ParseError
from garnorm.shell import _build_parser, main, parse_machine, parse_presentation, parse_table

GOLDEN = Path(__file__).with_name("cli_golden.json")

SWAP = "alphabet a b\nrule a b -> b a\nrule b a -> a b\n"
CYCLING_FORK = (
    "alphabet a b c\nrule a a -> a b\nrule b a -> c b\nrule b c -> a c\nrule c a -> b c\n"
)
BRAID3 = (
    "atoms a b\nrel a b a = b a b\nfamily 1 = EPS\nfamily a = a\nfamily b = b\n"
    "family ab = a b\nfamily ba = b a\nfamily D = a b a\n"
)
FILES = {
    "swap.table": SWAP,
    "fork.table": CYCLING_FORK,
    "bs10.pres": "atoms a b\nrel a b = a\nfamily 1 = EPS\nfamily a = a\nfamily b = b\n",
    "braid3.pres": BRAID3,
    "id.machine": "states s\nalphabet x y\ntrans s x -> s x\ntrans s y -> s y\n",
    "junk.txt": "what even is this\n",
}

# every subcommand on gallery inputs; each runs in text and in --json
GALLERY_CASES = [
    ["check", "gallery:plactic2"],
    ["check", "gallery:bicyclic", "--max-len", "4"],
    ["check", "gallery:braid3", "--max-len", "4"],
    ["breadth", "gallery:bicyclic"],
    ["breadth", "gallery:plactic2"],
    ["breadth", "gallery:bicyclic", "--cap", "3"],
    ["home", "gallery:bicyclic"],
    ["home", "gallery:plactic2"],
    ["home", "gallery:bicyclic", "--cap", "3"],
    ["normalize", "gallery:bicyclic", "a a b"],
    ["normalize", "gallery:plactic2", "ba"],
    ["normalize", "gallery:plactic2", "ba", "--compact"],
    ["normalize", "gallery:malcev", "a' b c d'"],
    ["mealy", "gallery:plactic2"],
    ["thurston", "gallery:bicyclic"],
    ["dual", "gallery:div3"],
    ["dual", "gallery:bicyclic"],
    ["run", "gallery:div3", "0", "110"],
    ["run", "gallery:plactic2", "ba", "a b ba"],
    ["iterate", "gallery:mul2", "0", "12", "--steps", "6"],
    ["iterate", "gallery:mul2", "0", "12", "--steps", "3", "--mode", "sweep"],
    ["equal", "gallery:plactic2", "a b a", "b a a"],
    ["equal", "gallery:bicyclic", "a b", "1 1"],
    ["equal", "gallery:div3", "01", "10", "--compact"],
    ["growth", "gallery:div3", "--max", "3"],
    ["growth", "gallery:plactic2", "--max", "3"],
    ["greedy", "gallery:bs10"],
    ["greedy", "gallery:braid3"],
    ["gallery", "bs10"],
    ["gallery", "mul2"],
    ["gallery", "bs10", "--emit", "machine"],
    ["gallery", "bs32", "--emit", "presentation"],
    ["gallery", "finite:Z/3", "--emit", "table"],
    ["dot", "gallery:div3"],
    ["dot", "gallery:bicyclic"],
]

# error paths and file inputs, text only; ``{dir}`` is the file directory
OTHER_CASES = [
    (["breadth", "gallery:div3"], None),
    (["home", "gallery:nope"], None),
    (["greedy", "gallery:div3"], None),
    (["gallery", "div3", "--emit", "table"], None),
    (["gallery", "bicyclic", "--emit", "presentation"], None),
    (["normalize", "gallery:bicyclic", "a z"], None),
    (["normalize", "gallery:bicyclic", "a a", "--compact"], None),
    (["run", "gallery:div3", "7", "0"], None),
    (["run", "gallery:div3", "0", "2"], None),
    (["equal", "gallery:div3", "0 3", "1"], None),
    (["iterate", "gallery:mul2", "0", "12", "--steps", "0"], None),
    (["check", "gallery:plactic2", "--max-len", "2"], None),
    (["normalize", "{dir}/swap.table", "a b"], None),
    (["normalize", "{dir}/swap.table", "a b"], "1"),
    (["normalize", "{dir}/fork.table", "b c a a"], None),
    (["check", "{dir}/swap.table"], None),
    (["check", "{dir}/fork.table", "--max-len", "4"], None),
    (["greedy", "{dir}/bs10.pres"], None),
    (["greedy", "{dir}/braid3.pres"], "3"),
    (["greedy", "{dir}/bs10.pres"], "many"),
    (["greedy", "{dir}/bs10.pres"], "0"),
    (["dual", "{dir}/id.machine"], None),
    (["dual", "{dir}/swap.table"], None),
    (["dual", "{dir}/bs10.pres"], None),
    (["breadth", "{dir}/junk.txt"], None),
    (["breadth", "{dir}/missing.table"], None),
]

# one malformed text per ParseError the three parsers can raise
PARSE_CASES = {
    "table": [
        "",
        "# only a comment\n",
        "alphabet\n",
        "alphabet a a\n",
        "alphabet a-b\n",
        "alphabet a\nalphabet b\n",
        "rule a b -> b a\nalphabet a b\n",
        "alphabet 1 a\nunit 1\nunit 1\n",
        "alphabet 1 a\nunit 1 a\n",
        "alphabet 1 a\nunit\n",
        "alphabet 1 a\nunit z\n",
        "alphabet a b\nrule a b b a\n",
        "alphabet a b\nrule a b -> b\n",
        "alphabet a\nrule a z -> a a\n",
        "alphabet a\nrule a a -> z a\n",
        "alphabet a b\nrule a b -> b a\n\n# again\nrule a b -> a b\n",
        "alphabet a\nfrobnicate\n",
    ],
    "machine": [
        "",
        "states\nalphabet x\n",
        "states s s\nalphabet x\n",
        "states s\nstates t\nalphabet x\n",
        "states s\nalphabet\n",
        "states s\nalphabet x x\n",
        "states s\nalphabet x\nalphabet y\n",
        "states s\ntrans s x -> s x\nalphabet x\n",
        "states s\nalphabet x\ntrans s x s x\n",
        "states s\nalphabet x\ntrans t x -> s x\n",
        "states s\nalphabet x\ntrans s x -> t x\n",
        "states s\nalphabet x\ntrans s y -> s x\n",
        "states s\nalphabet x\ntrans s x -> s y\n",
        "states s\nalphabet x\ntrans s x -> s x\n# dup\ntrans s x -> s x\n",
        "states s\nalphabet x\nfrobnicate\n",
        "states s\ntrans s x -> s x\n",
        "alphabet x\n",
        "# two states\nstates s t\nalphabet x\ntrans s x -> t x\n",
    ],
    "presentation": [
        "",
        "atoms\nfamily 1 = EPS\n",
        "atoms a a\n",
        "atoms a\natoms b\n",
        "rel a = a\natoms a\n",
        "atoms a\nrel a\n",
        "atoms a\nrel a =\n",
        "atoms a\nrel = a\n",
        "atoms a\nrel a = a = a\n",
        "atoms a\nrel a = z\n",
        "atoms a\nfamily 1 EPS\n",
        "atoms a\nfamily 1 =\n",
        "atoms a\nfamily 1 = EPS\nfamily 1 = a\n",
        "atoms a\nfamily x = a z\n",
        "atoms a\nfamily 1 = EPS\nfamily e = EPS\n",
        "atoms a\nfamily a-b = a\n",
        "atoms a\nfrobnicate\n",
    ],
}

PARSERS = {"table": parse_table, "machine": parse_machine, "presentation": parse_presentation}


def _run(argv: list[str], budget: str | None, directory: str) -> dict:
    argv = [arg.replace("{dir}", directory) for arg in argv]
    saved = os.environ.pop("GARNORM_BUDGET", None)
    if budget is not None:
        os.environ["GARNORM_BUDGET"] = budget
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.environ.pop("GARNORM_BUDGET", None)
        if saved is not None:
            os.environ["GARNORM_BUDGET"] = saved
    return {
        "code": code,
        "out": out.getvalue().replace(directory, "{dir}"),
        "err": err.getvalue().replace(directory, "{dir}"),
    }


def capture_cli() -> dict:
    results = {}
    with tempfile.TemporaryDirectory() as directory:
        for name, text in FILES.items():
            Path(directory, name).write_text(text, encoding="utf-8")
        for argv in GALLERY_CASES:
            for variant in (argv, argv + ["--json"]):
                results[" ".join(variant)] = _run(variant, None, directory)
        for argv, budget in OTHER_CASES:
            key = " ".join(argv) + ("" if budget is None else f" [GARNORM_BUDGET={budget}]")
            results[key] = _run(argv, budget, directory)
    return results


def capture_parse_errors() -> dict:
    results = {}
    for fmt, texts in PARSE_CASES.items():
        for text in texts:
            try:
                PARSERS[fmt](text)
                outcome = "parsed"
            except ParseError as exc:
                outcome = str(exc)  # "line <exc.line>: <message>"
            results[f"{fmt}: {text!r}"] = outcome
    return results


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_subcommand_is_pinned_on_a_gallery_input():
    subparsers = next(a for a in _build_parser()._actions if a.dest == "command")
    assert {argv[0] for argv in GALLERY_CASES} == set(subparsers.choices)


def test_cli_bytes_match_golden():
    assert capture_cli() == _golden()["cli"]


def test_parse_errors_match_golden():
    assert capture_parse_errors() == _golden()["parse"]


if __name__ == "__main__":
    data = {"cli": capture_cli(), "parse": capture_parse_errors()}
    GOLDEN.write_text(json.dumps(data, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    sys.exit(0)
