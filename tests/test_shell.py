import json

import pytest
from hypothesis import given, settings, strategies as st

from garnorm import (
    Alphabet,
    BudgetExhausted,
    GarnormError,
    NormTable,
    ParseError,
    gallery,
    gallery_tables,
)
from garnorm.core import _identity_pairs
from garnorm.greedy import PresentedMonoid, greedy_table, make_family
from garnorm.machines import build_mealy
from garnorm.shell import (
    Report,
    _build_parser,
    emit_machine,
    emit_presentation,
    emit_table,
    export_dot,
    main,
    parse_machine,
    parse_presentation,
    parse_table,
)
from test_certificate import pair_maps
from test_core import cycling_fork_table
from test_greedy import presentations_with_families
from test_verify import SEARCHED_TABLE

BS10_PRESENTATION = """\
# the right-cancellative monoid with one absorbing relation
atoms a b
rel a b = a
family 1 = EPS
family a = a
family b = b
"""


# ---------------------------------------------------------------------------
# round trips


def test_table_round_trips():
    for entry in gallery_tables():
        text = emit_table(entry.table)
        parsed = parse_table(text)
        assert parsed == entry.table
        assert emit_table(parsed) == text


def test_tables_take_their_images_from_the_identity_pair_table():
    """Parsing, building and greedy tables make no pair tuple of their own:
    every image is the shared identity table's tuple."""
    tables = []
    for entry in gallery_tables():
        tables += [NormTable(entry.table.alphabet, entry.table.rules(), entry.table.unit),
                   parse_table(emit_table(entry.table))]
    for name in ("bs10", "bs32", "braid3"):
        tables.append(greedy_table(*gallery(name).presentation))
    for table in tables:
        g = len(table.alphabet)
        fixed = _identity_pairs(g)
        assert all(p is fixed[p[0] * g + p[1]] for p in table._pairs)


def test_machine_round_trips():
    machines = [gallery("div3").machine, gallery("mul2").machine] + [
        build_mealy(e.table) for e in gallery_tables()
    ]
    for m in machines:
        text = emit_machine(m)
        parsed = parse_machine(text)
        assert parsed == m
        assert emit_machine(parsed) == text


def test_presentation_round_trips():
    for name in ("bs10", "bs32", "braid3"):
        monoid, family, unit = gallery(name).presentation
        text = emit_presentation(monoid, family)
        monoid2, family2, unit2 = parse_presentation(text)
        assert monoid2.atoms == monoid.atoms
        assert monoid2.relations == monoid.relations
        assert [f.name.name for f in family2] == [f.name.name for f in family]
        assert [f.rep for f in family2] == [f.rep for f in family]
        assert unit2.name.name == unit.name.name
        assert emit_presentation(monoid2, family2) == text


@settings(derandomize=True, max_examples=200, deadline=None)
@given(pair_maps())
def test_emitted_table_reparses_to_the_same_text(table):
    text = emit_table(table)
    assert emit_table(parse_table(text)) == text


@settings(derandomize=True, max_examples=200, deadline=None)
@given(presentations_with_families())
def test_emitted_presentation_reparses_to_the_same_text(case):
    atoms, relations, entries, _, spelling = case
    monoid = PresentedMonoid(atoms, tuple((atoms.word(l), atoms.word(r)) for l, r in relations))
    text = emit_presentation(monoid, make_family(spelling, entries))
    monoid2, family2, _ = parse_presentation(text)
    assert emit_presentation(monoid2, family2) == text


def test_emit_parse_is_canonical_reformatting():
    noisy = """\
# a comment
alphabet 1 a b   # trailing comment
unit 1

rule a b -> 1 1
rule a 1 -> 1 a
rule b 1 -> 1 b
"""
    assert emit_table(parse_table(noisy)) == emit_table(gallery("bicyclic").table)


# ---------------------------------------------------------------------------
# parse diagnostics


def test_table_duplicate_rule_line_number():
    text = "alphabet a b\nrule a b -> b a\nrule a b -> a b\n"
    with pytest.raises(ParseError) as err:
        parse_table(text)
    assert err.value.line == 3


def test_table_alphabet_must_come_first():
    with pytest.raises(ParseError):
        parse_table("rule a b -> b a\nalphabet a b\n")


def test_table_empty_alphabet_line():
    with pytest.raises(ParseError) as err:
        parse_table("alphabet\n")
    assert "no symbols" in str(err.value)


def test_table_unknown_symbol():
    with pytest.raises(ParseError):
        parse_table("alphabet a\nrule a z -> a a\n")


def test_table_unknown_directive():
    with pytest.raises(ParseError):
        parse_table("alphabet a\nfrobnicate\n")


def test_machine_duplicate_transition():
    text = (
        "states s\nalphabet x\n"
        "trans s x -> s x\n"
        "trans s x -> s x\n"
    )
    with pytest.raises(ParseError) as err:
        parse_machine(text)
    assert err.value.line == 4


def test_machine_missing_transition():
    with pytest.raises(ParseError) as err:
        parse_machine("states s t\nalphabet x\ntrans s x -> t x\n")
    assert "missing transition" in str(err.value)


def test_machine_missing_transition_is_reported_at_the_states_line():
    with pytest.raises(ParseError) as err:
        parse_machine("# two states\nstates s t\nalphabet x\ntrans s x -> t x\n")
    assert err.value.line == 2


def test_presentation_duplicate_family_name():
    text = "atoms a\nfamily 1 = EPS\nfamily 1 = a\n"
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert err.value.line == 3


def test_presentation_bad_relation():
    with pytest.raises(ParseError):
        parse_presentation("atoms a\nrel a =\n")


def test_presentation_atom_named_eps_is_rejected():
    with pytest.raises(ParseError) as err:
        parse_presentation("# EPS means the empty word\natoms a EPS\nfamily e = EPS\n")
    assert err.value.line == 2
    assert "'EPS' is reserved" in str(err.value)


def test_emit_presentation_refuses_an_atom_named_eps():
    monoid = PresentedMonoid(Alphabet(["EPS", "a"]), ())
    family = make_family(monoid.atoms, [("e", "EPS"), ("1", "")])
    with pytest.raises(GarnormError, match="'EPS' is reserved"):
        emit_presentation(monoid, family)


# every directive and separator of the three formats, a comment mark, the
# reserved EPS, names shared by all three, and a name with a forbidden character
DIRECTIVE_TOKENS = (
    "alphabet", "unit", "rule", "states", "trans", "atoms", "rel", "family",
    "->", "=", "EPS", "#", "a", "b", "1", "ba", "0", "a-b",
)
NAMES = ("a", "b", "0", "1", "EPS", "a-b", "#")
_name, _names = st.sampled_from(NAMES).map(lambda n: [n]), st.lists(st.sampled_from(NAMES))
# valid first lines of each format (or none), so that later lines are reached
HEADERS = ("", "alphabet 1 a b", "states 0 1\nalphabet a b", "atoms a b")


def _heads(*heads):
    return st.sampled_from(heads).map(lambda head: [head])


# lines shaped like each directive with names of any kind, or any tokens
directive_lines = st.one_of(
    st.tuples(_heads("alphabet", "unit", "states", "atoms"), _names),
    st.tuples(_heads("rule", "trans"), _name, _name, st.just(["->"]), _name, _name),
    st.tuples(_heads("rel"), _names, st.just(["="]), _names),
    st.tuples(_heads("family"), _name, st.just(["="]), _names),
    st.tuples(st.lists(st.sampled_from(DIRECTIVE_TOKENS), max_size=8)),
).map(lambda parts: " ".join(token for part in parts for token in part))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(HEADERS), st.lists(directive_lines, max_size=4))
def test_parsers_raise_only_parse_error(header, lines):
    text = "\n".join([header, *lines])
    for parse in (parse_table, parse_machine, parse_presentation):
        try:
            parse(text)
        except ParseError:
            pass


# ---------------------------------------------------------------------------
# DOT export


def test_dot_div3_counts():
    dot = export_dot(gallery("div3").machine)
    lines = dot.splitlines()
    node_lines = [l for l in lines if l.strip().endswith('";')]
    edge_lines = [l for l in lines if "->" in l]
    assert len(node_lines) == 3
    assert len(edge_lines) == 6
    assert dot == export_dot(gallery("div3").machine)  # byte-stable


def test_dot_identity_machine_merges_self_loop():
    from garnorm import Alphabet, MealyMachine

    m = MealyMachine(Alphabet(("s",)), Alphabet(("x", "y")), [[0, 0]], [[0, 1]])
    dot = export_dot(m)
    edge_lines = [l for l in dot.splitlines() if "->" in l]
    assert len(edge_lines) == 1
    assert 'label="x|x, y|y"' in edge_lines[0]


def test_dot_escapes_quotes_and_backslashes_in_names():
    # B stands for a backslash
    text = 'states q"1 pB\nalphabet xBy\ntrans q"1 xBy -> pB xBy\ntrans pB xBy -> pB xBy\n'
    dot = export_dot(parse_machine(text.replace("B", "\\")))
    assert dot.replace("\\", "B").splitlines()[2:] == [
        '  "pBB";',
        '  "qB"1";',
        '  "pBB" -> "pBB" [label="xBBy|xBBy"];',
        '  "qB"1" -> "pBB" [label="xBBy|xBBy"];',
        "}",
    ]


def test_dot_bicyclic_mealy_label_count():
    dot = export_dot(build_mealy(gallery("bicyclic").table))
    assert dot.count("|") == 9  # one label per transition
    node_lines = [l for l in dot.splitlines() if l.strip().endswith('";')]
    assert len(node_lines) == 3


# ---------------------------------------------------------------------------
# reports


def test_report_text_lines_sorted_and_stable():
    r = Report({"b": [1, 2], "a": {"x": True, "y": None}})
    text = r.to_text()
    assert text == "a.x = true\na.y = none\nb.0 = 1\nb.1 = 2\n"
    assert json.loads(r.to_json()) == {"a": {"x": True, "y": None}, "b": [1, 2]}


# ---------------------------------------------------------------------------
# the command line


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_home_bicyclic(capsys):
    code, out, _ = run_cli(capsys, "home", "gallery:bicyclic")
    assert code == 1
    assert "p=4 exceeds 3" in out
    assert "condition_home = false" in out


def test_cli_home_plactic(capsys):
    code, out, _ = run_cli(capsys, "home", "gallery:plactic2")
    assert code == 0
    assert "condition_home = true" in out


def test_cli_equal_plactic_relation(capsys):
    code, out, _ = run_cli(capsys, "equal", "gallery:plactic2", "a b a", "b a a")
    assert code == 0
    assert "equal = true" in out


def test_cli_equal_false_with_witness(capsys):
    code, out, _ = run_cli(capsys, "equal", "gallery:bicyclic", "a b", "1 1")
    assert code == 1
    assert "equal = false" in out
    assert "witness = a" in out


def test_cli_run_div3(capsys):
    code, out, _ = run_cli(capsys, "run", "gallery:div3", "0", "110")
    assert code == 0
    assert "output = 010" in out
    assert "final = 0" in out


def test_cli_normalize(capsys):
    code, out, _ = run_cli(capsys, "normalize", "gallery:bicyclic", "a a b")
    assert code == 0
    assert "normal = 11a" in out


def test_cli_normalize_not_confluent_exits_2(tmp_path, capsys):
    table = tmp_path / "cycling_fork.table"
    table.write_text(emit_table(cycling_fork_table()))
    code, _, err = run_cli(capsys, "normalize", str(table), "b c a a")
    assert code == 2
    assert err.startswith("error:")


def test_cli_normalize_compact_flag_disambiguates(capsys):
    code, out, _ = run_cli(capsys, "normalize", "gallery:plactic2", "ba")
    assert code == 0
    assert "normal = ba" in out  # the single column letter is already normal
    code, out, _ = run_cli(capsys, "normalize", "gallery:plactic2", "ba", "--compact")
    assert code == 0
    assert "normal = 1 ba" in out  # b a rewrites to the padded column


def test_cli_check_clean_table(capsys):
    code, out, _ = run_cli(capsys, "check", "gallery:plactic2")
    assert code == 0
    assert "ok = true" in out
    assert "unit.ok = true" in out


def test_cli_check_broken_table(tmp_path, capsys):
    bad = tmp_path / "bad.table"
    bad.write_text("alphabet a b\nrule a b -> b a\nrule b a -> a b\n")
    code, out, _ = run_cli(capsys, "check", str(bad))
    assert code == 1
    assert "ok = false" in out


def test_cli_breadth(capsys):
    code, out, _ = run_cli(capsys, "breadth", "gallery:bicyclic")
    assert code == 0
    assert "d = 3" in out and "p = 4" in out


def test_cli_mealy_emits_parseable_machine(capsys):
    code, out, _ = run_cli(capsys, "mealy", "gallery:bicyclic")
    assert code == 0
    assert parse_machine(out) == build_mealy(gallery("bicyclic").table)


def test_cli_dual_of_div3_is_mul2(capsys):
    code, out, _ = run_cli(capsys, "dual", "gallery:div3")
    assert code == 0
    assert out == emit_machine(gallery("mul2").machine)


def test_cli_thurston_is_dual_of_mealy(capsys):
    code, thurston_text, _ = run_cli(capsys, "thurston", "gallery:plactic2")
    assert code == 0
    code, mealy_text, _ = run_cli(capsys, "mealy", "gallery:plactic2")
    from garnorm import dual as dual_fn

    assert parse_machine(thurston_text) == dual_fn(parse_machine(mealy_text))


def test_cli_greedy_from_file(tmp_path, capsys):
    pres = tmp_path / "bs10.pres"
    pres.write_text(BS10_PRESENTATION)
    code, out, _ = run_cli(capsys, "greedy", str(pres))
    assert code == 0
    assert out == emit_table(gallery("bs10").table)


def test_cli_gallery_emit(capsys):
    code, out, _ = run_cli(capsys, "gallery", "mul2")
    assert code == 0
    assert out == emit_machine(gallery("mul2").machine)
    code, out, _ = run_cli(capsys, "gallery", "bs10")
    assert code == 0
    assert out == emit_table(gallery("bs10").table)
    code, out, _ = run_cli(capsys, "gallery", "bs10", "--emit", "presentation")
    assert code == 0
    assert "rel a b = a" in out


def test_cli_iterate_collect(capsys):
    code, out, _ = run_cli(
        capsys, "iterate", "gallery:mul2", "0", "12", "--steps", "6"
    )
    assert code == 0
    assert "collected = 110001" in out
    assert "period = 6" in out


def test_cli_iterate_sweep_mode_lists_words(capsys):
    code, out, _ = run_cli(
        capsys,
        "iterate",
        "gallery:mul2",
        "0",
        "12",
        "--steps",
        "2",
        "--mode",
        "sweep",
    )
    assert code == 0
    assert "words.0 = 12" in out
    assert "words.1 = 21" in out


def test_cli_growth(capsys):
    code, out, _ = run_cli(capsys, "growth", "gallery:div3", "--max", "4")
    assert code == 0
    for line in ("growth.0 = 3", "growth.1 = 9", "growth.2 = 27", "growth.3 = 81"):
        assert line in out


def test_cli_growth_refuses_a_negative_length(capsys):
    code, out, err = run_cli(capsys, "growth", "gallery:div3", "--max", "-2")
    assert (code, out) == (2, "")
    assert err == "error: max_len must be at least 0, got -2\n"


def test_each_subcommand_keeps_its_positional_names():
    subparsers = next(a for a in _build_parser()._actions if a.dest == "command")
    positionals = {
        name: " ".join(a.metavar or a.dest for a in p._actions if not a.option_strings)
        for name, p in subparsers.choices.items()
    }
    assert positionals == {
        "check": "table",
        "breadth": "table",
        "home": "table",
        "normalize": "table word",
        "mealy": "table",
        "thurston": "table",
        "dual": "machine",
        "run": "machine state word",
        "iterate": "machine state word",
        "equal": "source left right",
        "growth": "machine",
        "greedy": "presentation",
        "gallery": "name",
        "dot": "source",
    }


def test_cli_dot(capsys):
    code, out, _ = run_cli(capsys, "dot", "gallery:div3")
    assert code == 0
    assert out.startswith("digraph")


def test_cli_json_reports(capsys):
    code, out, _ = run_cli(capsys, "equal", "gallery:plactic2", "a b a", "b a a", "--json")
    assert code == 0
    assert json.loads(out) == {"equal": True}
    code, out, _ = run_cli(capsys, "breadth", "gallery:bicyclic", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["d"] == 3 and data["p"] == 4


def test_cli_table_command_on_machine_entry_exit_2(capsys):
    code, _, err = run_cli(capsys, "breadth", "gallery:div3")
    assert code == 2
    assert "has no table" in err


def test_cli_not_normalising_exit_2(tmp_path, capsys):
    cyclic = tmp_path / "cyclic.table"
    cyclic.write_text("alphabet a b\nrule a b -> b a\nrule b a -> a b\n")
    code, _, err = run_cli(capsys, "normalize", str(cyclic), "a b")
    assert code == 2
    assert "no normal word" in err


def test_cli_normal_word_search_out_of_budget_exit_3(tmp_path, capsys, monkeypatch):
    cyclic = tmp_path / "cyclic.table"
    cyclic.write_text("alphabet a b\nrule a b -> b a\nrule b a -> a b\n")
    monkeypatch.setenv("GARNORM_BUDGET", "1")
    code, _, err = run_cli(capsys, "normalize", str(cyclic), "a b")
    assert code == 3
    assert "within 1 nodes" in err


def test_cli_unknown_gallery_name_exit_2(capsys):
    code, _, err = run_cli(capsys, "breadth", "gallery:nope")
    assert code == 2
    assert "unknown gallery entry" in err


def test_cli_garbage_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "junk.txt"
    bad.write_text("what even is this\n")
    code, _, err = run_cli(capsys, "breadth", str(bad))
    assert code == 2


def test_cli_bad_word_exit_2(capsys):
    code, _, err = run_cli(capsys, "normalize", "gallery:bicyclic", "a z")
    assert code == 2
    assert "unknown symbol" in err


def test_cli_budget_exhaustion_exit_3(tmp_path, capsys, monkeypatch):
    pres = tmp_path / "braid3.pres"
    pres.write_text(
        "atoms a b\nrel a b a = b a b\n"
        "family 1 = EPS\nfamily a = a\nfamily b = b\n"
        "family ab = a b\nfamily ba = b a\nfamily D = a b a\n"
    )
    monkeypatch.setenv("GARNORM_BUDGET", "3")
    code, _, err = run_cli(capsys, "greedy", str(pres))
    assert code == 3
    assert "budget" in err


def test_cli_check_refuses_a_search_over_the_budget(tmp_path, capsys, monkeypatch):
    path = tmp_path / "searched.table"
    path.write_text(SEARCHED_TABLE)
    assert run_cli(capsys, "check", str(path), "--max-len", "9")[0] == 0
    monkeypatch.setenv("GARNORM_BUDGET", "10")
    code, out, err = run_cli(capsys, "check", str(path), "--max-len", "14")
    assert (code, out) == (3, "")
    assert "exceed the node budget of 10" in err


def test_a_machine_file_without_a_directive_is_refused(tmp_path, capsys):
    path = tmp_path / "empty.machine"
    path.write_text("# no directive\n\n")
    code, out, err = run_cli(capsys, "dual", str(path))
    assert (code, out) == (2, "")
    assert "is neither a table nor a machine file" in err


def test_cli_check_certifies_a_class_34_table_under_any_budget(capsys, monkeypatch):
    # bicyclic (breadth 3, 4) is certified by its mirror, so no search runs
    monkeypatch.setenv("GARNORM_BUDGET", "10")
    code, out, err = run_cli(capsys, "check", "gallery:bicyclic", "--max-len", "14")
    assert (code, err) == (0, "")
    assert "ok = true" in out.splitlines()


def test_cli_budget_env_reaches_gallery_presentations(capsys, monkeypatch):
    monkeypatch.setenv("GARNORM_BUDGET", "5")
    code, _, err = run_cli(capsys, "greedy", "gallery:braid3")
    assert code == 3
    assert "budget of 5 nodes" in err


def test_cli_bad_budget_env_exit_2(tmp_path, capsys, monkeypatch):
    # file and gallery: presentations read GARNORM_BUDGET in one place; a file here
    monkeypatch.setenv("GARNORM_BUDGET", "many")
    pres = tmp_path / "bs10.pres"
    pres.write_text(BS10_PRESENTATION)
    code, _, err = run_cli(capsys, "greedy", str(pres))
    assert code == 2
    assert "GARNORM_BUDGET" in err


@pytest.mark.parametrize("argv", (
    ("breadth", "gallery:bicyclic"),
    ("check", "gallery:malcev"),
    ("gallery", "bs10"),
))
def test_cli_bad_budget_env_exit_2_on_every_command(capsys, monkeypatch, argv):
    monkeypatch.setenv("GARNORM_BUDGET", "0")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "GARNORM_BUDGET must be positive" in err


def test_cli_predicate_commands_are_pure(capsys):
    first = run_cli(capsys, "home", "gallery:bicyclic")
    second = run_cli(capsys, "home", "gallery:bicyclic")
    assert first == second
    first = run_cli(capsys, "equal", "gallery:plactic2", "a b a", "b a a")
    second = run_cli(capsys, "equal", "gallery:plactic2", "a b a", "b a a")
    assert first == second


def test_cli_gallery_pseudo_paths_reach_every_entry(capsys):
    from garnorm.gallery import BASE_NAMES

    for name in BASE_NAMES + ("finite:Z/2",):
        entry = gallery(name)
        command = "breadth" if entry.table is not None else "growth"
        args = [command, f"gallery:{name}"]
        if command == "growth":
            args += ["--max", "2"]
        code, out, _ = run_cli(capsys, *args)
        assert code == 0 and out


def test_cli_report_witnesses_round_trip(capsys):
    # breadth witnesses printed by the CLI parse back as words
    code, out, _ = run_cli(capsys, "breadth", "gallery:plactic2")
    assert code == 0
    table = gallery("plactic2").table
    for line in out.splitlines():
        if line.startswith("d_witness") or line.startswith("p_witness"):
            text = line.split(" = ", 1)[1]
            assert len(table.alphabet.word(text)) == 3


def test_cli_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.table"
    bad.write_bytes(b"alphabet a b\nrule a b -> b \xff\n")
    code, out, err = run_cli(capsys, "breadth", str(bad))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {str(bad)!r}: ")
    assert "can't decode byte 0xff" in err


@pytest.mark.parametrize(
    "command, args",
    [
        ("run", ["a", "b ab D"]),
        ("iterate", ["a", "b ab", "--steps", "3"]),
        ("equal", ["a b a", "b a b"]),
        ("equal", ["a b", "b a"]),
        ("growth", ["--max", "3"]),
        ("dot", []),
        ("dual", []),
    ],
)
def test_a_table_stands_for_its_machine_from_a_file_as_from_the_gallery(
    tmp_path, capsys, command, args
):
    """Every machine command reads braid3's table file as it reads
    gallery:braid3, and refuses a presentation file with exit code 2."""
    monoid, family, _ = gallery("braid3").presentation
    table = tmp_path / "braid3.table"
    table.write_text(emit_table(gallery("braid3").table))
    presentation = tmp_path / "braid3.pres"
    presentation.write_text(emit_presentation(monoid, family))

    code, out, err = run_cli(capsys, command, "gallery:braid3", *args)
    assert code in (0, 1) and out and not err
    assert run_cli(capsys, command, str(table), *args) == (code, out, err)

    code, out, err = run_cli(capsys, command, str(presentation), *args)
    assert code == 2 and out == ""
    assert err == f"error: {str(presentation)!r} is neither a table nor a machine file\n"


def test_finite_gallery_order_is_budgeted_before_allocation(capsys):
    with pytest.raises(BudgetExhausted, match="the 100489 products of Z/317 exceed"):
        gallery.__wrapped__("finite:Z/317")
    for n in (2, 3, 8):
        table = gallery.__wrapped__(f"finite:Z/{n}").table
        syms = table.alphabet.symbols
        assert [table.entry(a, b) for a in syms for b in syms] == [
            (syms[0], syms[(i + j) % n]) for i in range(n) for j in range(n)
        ]
    code, out, err = run_cli(capsys, "gallery", "finite:Z/100000")
    assert code == 3 and out == ""
    assert err.startswith("error: the 10000000000 products of Z/100000 exceed the node budget")
