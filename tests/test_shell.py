import json

import pytest

from garnorm import ParseError, gallery, gallery_tables
from garnorm.machines import build_mealy
from garnorm.shell import (
    Report,
    emit_machine,
    emit_presentation,
    emit_table,
    export_dot,
    main,
    parse_machine,
    parse_presentation,
    parse_table,
)
from test_core import cycling_fork_table

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


def test_cli_bad_budget_env_exit_2(tmp_path, capsys, monkeypatch):
    # gallery presentations are prebuilt, so exercise the env check via a file
    monkeypatch.setenv("GARNORM_BUDGET", "many")
    pres = tmp_path / "bs10.pres"
    pres.write_text(BS10_PRESENTATION)
    code, _, err = run_cli(capsys, "greedy", str(pres))
    assert code == 2
    assert "GARNORM_BUDGET" in err


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
