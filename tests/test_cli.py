"""Command-line behaviour: exit codes, report shapes, determinism."""

from __future__ import annotations

import json
import sys
import time

import pytest

from wars.builtins import MAX_TERM_DEPTH
from wars.cli import main, resolve_system, CliError
from wars.evaluator import weight_lower_bound
from wars.semiring import MAX_PRODUCT_DEPTH
from wars.system import MAX_AGGREGATOR_DEPTH, SystemError_, load_explicit

from cli_digest import carrier_system_json
from system_gen import random_system_json

# Whether the interpreter limits the digits of an integer printed as text.
LIMITED_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)() > 0

TWO_STATE = {
    "semiring": {"kind": "nat_inf"},
    "rules": [{"lhs": "a", "rhs": ["b", "c"], "agg": "v1 + v2", "tag": "split"}],
    "nf": {"b": "1", "c": "2"},
}

CHAIN = {
    "semiring": {"kind": "nat_inf"},
    "rules": [
        {"lhs": "a", "rhs": ["b"], "agg": "1 + v1", "tag": "ab"},
    ],
    "nf": {"b": "0"},
}


@pytest.fixture
def twostate(tmp_path):
    path = tmp_path / "twostate.json"
    path.write_text(json.dumps(TWO_STATE))
    return str(path)


@pytest.fixture
def chain(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(CHAIN))
    return str(path)


class TestEval:
    def test_walk_two_steps(self, capsys):
        code = main(
            ["eval", "--system", "builtin:walk_termprob", "--start", "2", "--depth", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "4/9" in out and "lower_bound" in out

    def test_normal_form_at_depth_zero(self, twostate, capsys):
        code = main(
            ["eval", "--system", f"file:{twostate}", "--start", "b", "--depth", "0"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "b: 1" in out and "stabilized" in out

    def test_boolean_nf_weight_given_as_json_true(self, tmp_path, capsys):
        path = tmp_path / "bool.json"
        system = {
            "semiring": {"kind": "boolean"},
            "rules": [{"lhs": "a", "rhs": ["b"], "agg": "v1"}],
            "nf": {"b": True},
        }
        path.write_text(json.dumps(system))
        code = main(["eval", "--system", f"file:{path}", "--start", "a", "--depth", "1"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert captured.out.startswith("a: true (")
        system["nf"] = {"b": None}
        path.write_text(json.dumps(system))
        assert main(["eval", "--system", f"file:{path}", "--start", "a", "--depth", "1"]) == 1
        assert "not a boolean literal: 'null'" in capsys.readouterr().err

    def test_ski_rental_stabilizes(self, capsys):
        code = main(
            [
                "eval",
                "--system",
                "builtin:ski_rental(y=3)",
                "--start",
                "n0=5",
                "--depth",
                "64",
                "--format",
                "json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        result = payload["results"][0]
        assert result["value"] == "3" and result["status"] == "stabilized"

    def test_bad_system_spec(self, capsys):
        assert main(["eval", "--system", "builtin:nope", "--start", "1", "--depth", "1"]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_system_file(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        code = main(["eval", "--system", f"file:{missing}", "--start", "a", "--depth", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert f"system file not found: {missing}" in err
        assert "invalid JSON" not in err

    def test_directory_as_system_file(self, tmp_path, capsys):
        code = main(["eval", "--system", f"file:{tmp_path}", "--start", "a", "--depth", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: cannot read system file {tmp_path}")
        assert "Traceback" not in err

    def test_visit_cap_partial_exit(self, capsys):
        code = main(
            [
                "eval",
                "--system",
                "builtin:walk_termprob",
                "--start",
                "2",
                "--depth",
                "40",
                "--visit-cap",
                "5",
            ]
        )
        assert code == 2
        assert "lower_bound" in capsys.readouterr().out


    @pytest.mark.parametrize(
        "agg, nf, depth, want",
        [
            ("1 + v1", "3", "20000", ("10003", "stabilized", 10_000, 10_001)),
            ("v1", "0", "20000", ("0", "stabilized", 0, 10_001)),
            ("1 + v1", "3", "100", ("100", "lower_bound", 100, 101)),
        ],
    )
    def test_long_chain(self, tmp_path, capsys, agg, nf, depth, want):
        # Settled component by component, a 10^4-object chain takes two
        # evaluations per object, not one level per object.
        length = 10_000
        chain = {
            "semiring": {"kind": "nat_inf"},
            "rules": [
                {"lhs": f"c{i}", "rhs": [f"c{i + 1}"], "agg": agg, "tag": "next"}
                for i in range(length)
            ],
            "nf": {f"c{length}": nf},
        }
        path = tmp_path / "long-chain.json"
        path.write_text(json.dumps(chain))
        argv = ["eval", "--system", f"file:{path}", "--start", "c0", "--depth", depth]
        code = main(argv + ["--format", "json"])
        result = json.loads(capsys.readouterr().out)["results"][0]
        assert code == 0
        assert (result["value"], result["status"], result["depth"], result["visited"]) == want


def _nested_sum(levels: int) -> str:
    """``1 + (1 + (... (1 + v1)))``, ``levels`` deep counting the leaf."""
    return "1 + (" * (levels - 2) + "1 + v1" + ")" * (levels - 2)


def _one_rule(tmp_path, agg: str) -> str:
    system = {
        "semiring": {"kind": "nat_inf"},
        "rules": [{"lhs": "a", "rhs": ["b"], "agg": agg}],
        "nf": {"b": "1"},
    }
    path = tmp_path / "one-rule.json"
    path.write_text(json.dumps(system))
    return f"file:{path}"


def _single_error_line(captured) -> str:
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


class TestDeepAggregators:
    def test_bound_lies_between_parent_limit_and_closure_frame_limit(self):
        # 329 levels was the deepest aggregator `wars eval` evaluated before
        # the parser was iterative.  The upper end keeps the bound clear of
        # the compiled-closure frame limit: a compiled aggregator nests a
        # Python frame per level when called, so `wars eval` on a nested sum
        # fails near 990 levels.
        assert 329 <= MAX_AGGREGATOR_DEPTH < 490

    @pytest.mark.parametrize("levels", [329, MAX_AGGREGATOR_DEPTH])
    def test_evaluated_up_to_the_bound(self, tmp_path, capsys, levels):
        system = _one_rule(tmp_path, _nested_sum(levels))
        code = main(["eval", "--system", system, "--start", "a", "--depth", "3"])
        assert code == 0
        assert capsys.readouterr().out == f"a: {levels} (stabilized, depth 1, 2 objects)\n"

    @pytest.mark.parametrize("levels", [MAX_AGGREGATOR_DEPTH + 1, 10_000])
    def test_deeper_aggregator_is_rejected_by_the_loader(self, tmp_path, capsys, levels):
        system = _one_rule(tmp_path, _nested_sum(levels))
        code = main(["eval", "--system", system, "--start", "a", "--depth", "3"])
        assert code == 1
        assert _single_error_line(capsys.readouterr()) == (
            f"error: rule r0: aggregator nested deeper than {MAX_AGGREGATOR_DEPTH} levels"
        )

    def test_deep_parentheses_alone_add_no_level(self, tmp_path, capsys):
        system = _one_rule(tmp_path, "(" * 10_000 + "2 * v1" + ")" * 10_000)
        assert main(["eval", "--system", system, "--start", "a", "--depth", "3"]) == 0
        assert capsys.readouterr().out.startswith("a: 2 (stabilized")


def _deep_term(levels: int) -> str:
    """``plus(s(s(... 0 ...)),0)``, ``levels`` deep counting the leaf."""
    return "plus(" + "s(" * (levels - 2) + "0" + ")" * (levels - 2) + ",0)"


def _deep_formula(levels: int) -> str:
    """``(Ra & (Ra & (... Rb)))``, ``levels`` deep counting the leaf."""
    return "(Ra & " * (levels - 1) + "Rb" + ")" * (levels - 1)


class TestDeepStarts:
    def test_bound_admits_every_start_the_recursive_parsers_took(self):
        # With recursive parsers, the deepest start any command took was a
        # chain `Ra & Rb & ...` of 993 atoms (993 levels).
        assert 993 <= MAX_TERM_DEPTH

    @pytest.mark.parametrize(
        "system, start, value",
        [
            ("builtin:addition_trs", _deep_term(2_000), "3 (lower_bound, depth 3, 4 objects)"),
            ("builtin:addition_trs", _deep_term(MAX_TERM_DEPTH), "3 (lower_bound, depth 3, 4 objects)"),
            ("builtin:boolform", "(" * 10_000 + "Ra" + ")" * 10_000, "2 (stabilized, depth 0, 1 objects)"),
            ("builtin:boolform", _deep_formula(MAX_TERM_DEPTH), "-inf (lower_bound, depth 0, 5 objects)"),
        ],
        ids=["term 2000", "term at the bound", "10^4 parentheses", "formula at the bound"],
    )
    def test_evaluated_up_to_the_bound(self, capsys, system, start, value):
        assert main(["eval", "--system", system, "--start", start, "--depth", "3"]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert captured.out.endswith(f": {value}\n")

    @pytest.mark.parametrize(
        "system, start",
        [("builtin:addition_trs", _deep_term(MAX_TERM_DEPTH)),
         ("builtin:boolform", _deep_formula(MAX_TERM_DEPTH))],
        ids=["term", "formula"],
    )
    def test_loop_search_up_to_the_bound(self, capsys, system, start):
        assert main(["loop", "--system", system, "--start", start, "--depth", "3"]) == 4
        assert capsys.readouterr().out == "no loops found\n"

    @pytest.mark.parametrize(
        "system, start, what",
        [("builtin:addition_trs", _deep_term(MAX_TERM_DEPTH + 1), "term"),
         ("builtin:boolform", _deep_formula(MAX_TERM_DEPTH + 1), "formula"),
         ("builtin:boolform", "Ra" + " & Rb" * MAX_TERM_DEPTH, "formula")],
        ids=["term", "nested formula", "chained formula"],
    )
    @pytest.mark.parametrize("command", ["eval", "loop"])
    def test_deeper_start_is_bad_configuration(self, capsys, command, system, start, what):
        assert main([command, "--system", system, "--start", start, "--depth", "3"]) == 1
        assert _single_error_line(capsys.readouterr()) == (
            f"error: {what} nested deeper than {MAX_TERM_DEPTH} levels"
        )


@pytest.mark.skipif(not LIMITED_DIGITS, reason="integers print at any length here")
def test_value_too_long_to_print_is_an_error(tmp_path, capsys):
    # A nat_inf self-loop whose value passes the interpreter's limit on the
    # digits of an integer printed as text.
    path = tmp_path / "gen240.json"
    path.write_text(json.dumps(random_system_json(240)))
    argv = ["eval", "--system", f"file:{path}", "--depth", "8", "--format", "json",
            "--start", "a2"]
    assert main(argv) == 1
    assert _single_error_line(capsys.readouterr()).startswith("error: cannot print the value")


# Each flag value is rejected before any work, as a bad configuration.
INVALID_ARGV = {
    "eval negative depth": ["eval", "--system", "builtin:walk_termprob", "--start", "2",
                            "--depth", "-1"],
    "eval zero rule budget": ["eval", "--system", "builtin:walk_termprob", "--start", "2",
                              "--depth", "2", "--rule-budget", "0"],
    "eval zero visit cap": ["eval", "--system", "builtin:walk_termprob", "--start", "2",
                            "--depth", "2", "--visit-cap", "0"],
    "eval zero branch trunc": ["eval", "--system", "builtin:walk_termprob", "--start", "2",
                               "--depth", "2", "--branch-trunc", "0"],
    "eval negative branch trunc": ["eval", "--system", "builtin:geometric_walk", "--start",
                                   "1", "--depth", "3", "--branch-trunc", "-5"],
    "eval unparsable start": ["eval", "--system", "builtin:walk_termprob", "--start", "x(",
                              "--depth", "2"],
    "bound negative samples": ["bound", "--system", "builtin:walk_expected", "--mode",
                               "embed:walk3n", "--samples", "-5"],
    "loop zero depth": ["loop", "--system", "builtin:os_runtime", "--start", "idle()",
                        "--depth", "0"],
    "loop zero rule budget": ["loop", "--system", "builtin:os_runtime", "--start", "idle()",
                              "--depth", "4", "--rule-budget", "0"],
    "loop negative max witnesses": ["loop", "--system", "builtin:os_runtime", "--start",
                                    "idle()", "--depth", "4", "--max-witnesses", "-1"],
    "loop unparsable start": ["loop", "--system", "builtin:walk_termprob", "--start", "x(",
                              "--depth", "2"],
}


# `bound` reads no budget at all, `loop` only the rule budget of its loop
# search, and `oracle` only the rule budget and count cap of its enumeration,
# since it settles every object of its finite system in one ball that no
# visit cap cuts.  So argparse rejects the other budget flags with a usage error.
BOUND = ["bound", "--system", "builtin:walk_expected", "--mode", "extremal"]
LOOP = ["loop", "--system", "builtin:os_runtime", "--start", "idle()", "--depth", "4"]
ORACLE = ["oracle", "--system", "builtin:addition_trs(max_size=3)", "--depth", "2"]
REMOVED_FLAG_ARGV = {
    "bound zero rule budget": [*BOUND, "--rule-budget", "0"],
    "bound zero visit cap": [*BOUND, "--visit-cap", "0"],
    "bound branch trunc": [*BOUND, "--branch-trunc", "10"],
    "loop zero visit cap": [*LOOP, "--visit-cap", "0"],
    "loop branch trunc": [*LOOP, "--branch-trunc", "10"],
    "oracle visit cap": [*ORACLE, "--visit-cap", "1"],
    "oracle zero visit cap": [*ORACLE, "--visit-cap", "0"],
    "oracle zero branch trunc": [*ORACLE, "--branch-trunc", "0"],
    "oracle negative branch trunc": [*ORACLE, "--branch-trunc", "-5"],
}


@pytest.mark.parametrize(
    "argv, removed",
    [pytest.param(argv, False, id=name) for name, argv in INVALID_ARGV.items()]
    + [pytest.param(argv, True, id=name) for name, argv in REMOVED_FLAG_ARGV.items()],
)
def test_invalid_flags_are_bad_configuration(argv, removed, capsys):
    if removed:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert f"error: unrecognized arguments: {' '.join(argv[-2:])}" in captured.err
    else:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: ")
    assert captured.out == ""
    assert "Traceback" not in captured.err


class TestBound:
    def test_embedding_sampled(self, capsys):
        code = main(
            [
                "bound",
                "--system",
                "builtin:walk_expected",
                "--mode",
                "embed:walk3n",
                "--samples",
                "1000",
            ]
        )
        assert code == 3
        assert "bounded_sampled" in capsys.readouterr().out

    def test_extremal_certified(self, capsys):
        code = main(
            [
                "bound",
                "--system",
                "builtin:boolform(finite_costs=true)",
                "--mode",
                "extremal",
            ]
        )
        assert code == 0
        assert "bounded_certified" in capsys.readouterr().out

    def test_extremal_long_chain(self, tmp_path, capsys):
        # Loading checks the chain for cycles; that must not recurse per link.
        length = 10_000
        chain = {
            "semiring": {"kind": "nat_inf"},
            "rules": [
                {"lhs": f"c{i}", "rhs": [f"c{i + 1}"], "agg": "1 + v1", "tag": "next"}
                for i in range(length - 1)
            ],
            "nf": {f"c{length - 1}": "0"},
        }
        path = tmp_path / "long-chain.json"
        path.write_text(json.dumps(chain))
        code = main(["bound", "--system", f"file:{path}", "--mode", "extremal", "--format", "json"])
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out)["verdict"] == "bounded_certified"
        assert "Traceback" not in captured.err

    def test_extremal_unknown_for_scheduler(self, capsys):
        code = main(["bound", "--system", "builtin:os_size", "--mode", "extremal"])
        assert code == 4
        assert "terminating" in capsys.readouterr().out

    def test_top_normal_form_unbounded(self, capsys):
        code = main(["bound", "--system", "builtin:boolform", "--mode", "extremal"])
        assert code == 5
        assert "unbounded" in capsys.readouterr().out

    def test_selective_requires_bound(self, capsys):
        code = main(["bound", "--system", "builtin:os_size", "--mode", "selective"])
        assert code == 1

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--mode", "extremal", "--samples", "5"],
             "--samples is read only by embed: modes, not by 'extremal'"),
            (["--mode", "embed:trs_add", "--bound", "7"],
             "--bound is read only by selective mode, not by 'embed:trs_add'"),
        ],
        ids=["samples outside embed", "bound outside selective"],
    )
    @pytest.mark.parametrize("system", ["addition_trs", "no_such_system"])
    def test_a_flag_the_mode_never_reads_is_refused(self, capsys, flags, message, system):
        # Refused before the system loads: a spec that names nothing meets
        # the same error.
        assert main(["bound", "--system", f"builtin:{system}", *flags]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_selective_reads_no_rule_without_objects(self, capsys):
        # boolform has neither an object enumeration nor a sampler, so no
        # rule is read; its ``and`` rule is not selective.  This once read
        # the normal forms' zero rules and printed bounded_sampled.
        argv = ["bound", "--system", "builtin:boolform(finite_costs=true)", "--mode", "selective",
                "--bound", "10"]
        assert main(argv) == 4
        assert capsys.readouterr().out == (
            "verdict: unknown (via selective-bounded)\n  objects: not enumerable\n")

    def test_embedding_file(self, chain, tmp_path, capsys):
        table = tmp_path / "embed.json"
        table.write_text(json.dumps({"a": "1", "b": "0"}))
        code = main(
            ["bound", "--system", f"file:{chain}", "--mode", f"embed:{table}"]
        )
        assert code == 0
        assert "bounded_certified" in capsys.readouterr().out

    def test_missing_embedding(self, chain, capsys):
        code = main(["bound", "--system", f"file:{chain}", "--mode", "embed:nope"])
        assert code == 1

    def test_directory_as_embedding_file(self, chain, tmp_path, capsys):
        code = main(["bound", "--system", f"file:{chain}", "--mode", f"embed:{tmp_path}"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: cannot read embedding file {tmp_path}")
        assert "Traceback" not in err

    def test_malformed_embedding_json(self, tmp_path, capsys):
        table = tmp_path / "bad.json"
        table.write_text("{bad")
        code = main(
            ["bound", "--system", "builtin:walk_expected", "--mode", f"embed:{table}"]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: embedding file {table} is not valid JSON")
        assert "Traceback" not in err


    @pytest.mark.parametrize(
        "content, message",
        [
            ([1], "must hold a JSON object of object labels to values, not a list"),
            ({"x": "1"}, "bad entry 'x'"),
            ({"3": "zz"}, "bad entry '3'"),
        ],
        ids=["not an object", "unparsable label", "unparsable literal"],
    )
    def test_malformed_embedding_table(self, tmp_path, capsys, content, message):
        table = tmp_path / "table.json"
        table.write_text(json.dumps(content))
        code = main(
            ["bound", "--system", "builtin:walk_expected", "--mode", f"embed:{table}"]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: embedding file {table}")
        assert message in err
        assert "Traceback" not in err

    def test_embedding_values_read_as_json_text(self, chain, tmp_path, capsys):
        table = tmp_path / "embed.json"
        table.write_text(json.dumps({"a": 1, "b": 0}))
        assert main(["bound", "--system", f"file:{chain}", "--mode", f"embed:{table}"]) == 0
        assert "bounded_certified" in capsys.readouterr().out
        table.write_text(json.dumps({"a": None, "b": "0"}))
        assert main(["bound", "--system", f"file:{chain}", "--mode", f"embed:{table}"]) == 1
        assert capsys.readouterr().err == (
            f"error: embedding file {table}: bad entry 'a': not a numeric literal: 'null'\n"
        )


class TestLoop:
    def test_runtime_loop_certifies(self, capsys):
        code = main(
            [
                "loop",
                "--system",
                "builtin:os_runtime",
                "--start",
                "idle()",
                "--depth",
                "4",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "t=4" in out and "certified" in out

    def test_size_loop_is_candidate_only(self, capsys):
        code = main(
            [
                "loop",
                "--system",
                "builtin:os_size",
                "--start",
                "idle()",
                "--depth",
                "4",
            ]
        )
        out = capsys.readouterr().out
        assert code == 3
        assert "candidate" in out

    def test_terminating_chain_finds_none(self, chain, capsys):
        code = main(
            ["loop", "--system", f"file:{chain}", "--start", "a", "--depth", "6"]
        )
        assert code == 4
        assert "no loops" in capsys.readouterr().out

    def test_deep_chain_finds_no_loop(self, tmp_path, capsys):
        # The walk follows the chain deeper than the recursion limit without
        # recursion and answers that no path returns to c0.
        length = 1500
        chain = {
            "semiring": {"kind": "nat_inf"},
            "rules": [{"lhs": f"c{i}", "rhs": [f"c{i + 1}"], "agg": "1 + v1"}
                      for i in range(length - 1)],
            "nf": {f"c{length - 1}": "0"},
        }
        path = tmp_path / "deep-chain.json"
        path.write_text(json.dumps(chain))
        code = main(["loop", "--system", f"file:{path}", "--start", "c0", "--depth", "1200"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == "no loops found\n"
        assert captured.err == ""

    def test_many_rule_paths_hit_the_count_cap(self, tmp_path, capsys):
        # Eight rules from each o{i} to o{i + 1} and none back: 8^6 rule
        # paths at depth 6, and no loop among them.
        rules = [{"lhs": f"o{i}", "rhs": [f"o{i + 1}"], "agg": "1 + v1", "tag": f"r{j}"}
                 for i in range(6) for j in range(8)]
        path = tmp_path / "fan.json"
        path.write_text(json.dumps({"semiring": {"kind": "nat_inf"}, "rules": rules,
                                    "nf": {"o6": "0"}}))
        begin = time.process_time()
        code = main(["loop", "--system", f"file:{path}", "--start", "o0", "--depth", "6"])
        elapsed = time.process_time() - begin
        assert code == 2
        assert _single_error_line(capsys.readouterr()) == (
            "error: more than 200000 rule paths at depth 6"
        )
        assert elapsed < 1.0

    def test_geometric_walk_loops_without_enumerating_trees(self, capsys):
        # Every jump from 1..15 has 16 targets, so 2^15 trees of depth 2
        # carry a jump-jump loop; the walk follows 256 rule paths.
        argv = ["loop", "--system", "builtin:geometric_walk", "--start", "2", "--depth", "2",
                "--format", "json"]
        begin = time.process_time()
        code = main(argv)
        elapsed = time.process_time() - begin
        loops = json.loads(capsys.readouterr().out)["loops"]
        assert code == 3
        assert [entry["trace"] for entry in loops] == [["jump"], ["jump", "jump"]]
        assert elapsed < 1.0

    def test_second_start_is_refused(self, capsys):
        argv = ["loop", "--system", "builtin:os_runtime", "--start", "idle(P1P2)",
                "--start", "idle()", "--depth", "4"]
        assert main(argv) == 1
        assert _single_error_line(capsys.readouterr()) == "error: loop takes one --start, got 2"

    def test_depth_eight_pumps_every_certified_loop(self, capsys):
        # Each loop counts one step per rule, so k nested copies of a loop of
        # depth L weigh k * L.
        argv = ["loop", "--system", "builtin:os_runtime", "--start", "idle()", "--depth", "8",
                "--format", "json"]
        assert main(argv) == 0
        loops = json.loads(capsys.readouterr().out)["loops"]
        assert len(loops) == 10 and all(e["status"] == "certified" for e in loops)
        for entry in loops:
            depth = entry["depth"]
            assert entry["cross_check"] == {
                "iteration_values": [str(k * depth) for k in range(1, 6)],
                "loop_depth": depth,
            }


class TestOracle:
    def test_twostate_matches(self, twostate, capsys):
        assert main(["oracle", "--system", f"file:{twostate}", "--depth", "3"]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_builtin_is_rejected(self, capsys):
        code = main(["oracle", "--system", "builtin:walk_termprob", "--depth", "2"])
        assert code == 3

    def test_blowup_guarded_by_count_cap(self, tmp_path, capsys):
        dense = {
            "semiring": {"kind": "boolean"},
            "rules": [
                {"lhs": "a", "rhs": ["a", "a", "a"], "agg": "v1 + v2 + v3", "tag": f"r{i}"}
                for i in range(3)
            ],
            "nf": {},
        }
        path = tmp_path / "dense.json"
        path.write_text(json.dumps(dense))
        code = main(
            [
                "oracle",
                "--system",
                f"file:{path}",
                "--depth",
                "6",
                "--count-cap",
                "1000",
            ]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["builtin:addition_trs(max_size=0)",
                                      'file:{"semiring": {"kind": "nat_inf"}}'])
    def test_system_without_objects_is_refused(self, capsys, spec):
        # No object means no check, so "all checks passed" would pass vacuously.
        assert main(["oracle", "--system", spec, "--depth", "2"]) == 3
        assert _single_error_line(capsys.readouterr()) == (
            "error: the oracle needs a system with at least one object"
        )

    def test_depth_zero_reads_no_level_above_zero(self, capsys):
        # Iterating this word-set system concatenates with SIGMA* at level 1,
        # which no depth-0 check reads.
        text = json.dumps(carrier_system_json(2, {"kind": "language", "alphabet": ["0", "1"]}))
        assert main(["oracle", "--system", f"file:{text}", "--depth", "1"]) == 3
        assert "SIGMA*" in capsys.readouterr().err
        assert main(["oracle", "--system", f"file:{text}", "--depth", "0", "--format", "json"]) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        sys_ = load_explicit(text)
        assert [c["object"] for c in checks] == list(sys_.enumerate_objects())
        for c in checks:
            value = sys_.semiring.format_literal(weight_lower_bound(sys_, c["object"], 0).value)
            assert (c["depth"], c["iterated"], c["enumerated"], c["match"]) == (0, value, value, True)

    def test_iteration_can_exceed_every_tree(self, capsys):
        # Over words, y weighs {a,b} as the join of its two trees, and
        # iteration squares that join, while each tree of x squares one of
        # them.  The join is not selective and v1 * v1 reads v1 twice, which
        # no generated system holds.  Which value is right is left open.
        spec = "file:" + json.dumps({
            "semiring": {"kind": "language", "alphabet": ["a", "b"]},
            "rules": [{"lhs": "x", "rhs": ["y"], "agg": "v1 * v1"},
                      {"lhs": "y", "rhs": ["c1"], "agg": "v1"},
                      {"lhs": "y", "rhs": ["c2"], "agg": "v1"}],
            "nf": {"c1": "{a}", "c2": "{b}"},
        })
        assert main(["eval", "--system", spec, "--start", "x", "--depth", "3"]) == 0
        assert capsys.readouterr().out == "x: {aa,ab,ba,bb} (stabilized, depth 2, 4 objects)\n"
        assert main(["oracle", "--system", spec, "--depth", "2"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "x depth 2: iterated {aa,ab,ba,bb} vs enumerated {aa,bb} MISMATCH" in lines
        assert lines[-1] == "MISMATCH detected"


# A bad `oracle` configuration exits 3, apart from 1 ("mismatch").
INVALID_ORACLE_ARGV = {
    "negative depth": ["--depth", "-1"],
    "zero rule budget": ["--rule-budget", "0"],
    "zero count cap": ["--count-cap", "0"],
    "negative count cap": ["--count-cap", "-5"],
    "missing system file": ["--system", "file:/nonexistent/wars-system.json"],
    "bad system spec": ["--system", "nowhere"],
}


@pytest.mark.parametrize("extra", INVALID_ORACLE_ARGV.values(), ids=list(INVALID_ORACLE_ARGV))
def test_oracle_bad_configuration_exits_3(twostate, capsys, extra):
    code = main(["oracle", "--system", f"file:{twostate}", "--depth", "2", *extra])
    assert code == 3
    _single_error_line(capsys.readouterr())


@pytest.mark.parametrize("command, code", [("eval", 1)])
def test_branch_trunc_below_one_names_the_flag(twostate, capsys, command, code):
    argv = [command, "--system", f"file:{twostate}", "--start", "a", "--depth", "3",
            "--branch-trunc", "-5"]
    assert main(argv) == code
    assert _single_error_line(capsys.readouterr()) == "error: --branch-trunc must be at least 1, got -5"


def test_count_cap_below_one_names_the_flag(twostate, capsys):
    # Not exit 2, an enumeration blow-up: once "more than -5 trees at depth 1".
    argv = ["oracle", "--system", f"file:{twostate}", "--depth", "3", "--count-cap", "-5"]
    assert main(argv) == 3
    assert _single_error_line(capsys.readouterr()) == "error: --count-cap must be at least 1, got -5"


def _nested_products(levels: int) -> str:
    """A nat_inf system whose carrier is ``levels`` products deep, as text:
    ``json.dumps`` itself recurses on the nesting."""
    spec = '{"kind": "product", "components": [' * levels + '{"kind": "nat_inf"}' + "]}" * levels
    weight = "(" * levels + "0" + ")" * levels
    return (f'{{"semiring": {spec}, "rules": [{{"lhs": "a", "rhs": ["b"], "agg": "v1"}}], '
            f'"nf": {{"b": "{weight}"}}}}')


class TestDeeplyNestedJson:
    @pytest.mark.parametrize(
        "levels, message",
        [
            (600, "error: invalid JSON: nested too deeply"),
            (450, f"error: product semirings nest at most {MAX_PRODUCT_DEPTH} deep"),
            (MAX_PRODUCT_DEPTH + 1, f"error: product semirings nest at most {MAX_PRODUCT_DEPTH} deep"),
        ],
    )
    def test_deep_system_file_is_bad_configuration(self, tmp_path, capsys, levels, message):
        path = tmp_path / "nested.json"
        path.write_text(_nested_products(levels))
        code = main(["eval", "--system", f"file:{path}", "--start", "a", "--depth", "1"])
        assert code == 1
        assert _single_error_line(capsys.readouterr()) == message

    def test_products_up_to_the_bound_load(self, tmp_path, capsys):
        path = tmp_path / "nested.json"
        path.write_text(_nested_products(MAX_PRODUCT_DEPTH))
        assert main(["eval", "--system", f"file:{path}", "--start", "a", "--depth", "1"]) == 0
        assert capsys.readouterr().out.startswith("a: " + "(" * MAX_PRODUCT_DEPTH + "0")

    def test_deep_embedding_file_is_bad_configuration(self, tmp_path, capsys):
        table = tmp_path / "table.json"
        table.write_text("[" * 5000 + "]" * 5000)
        code = main(["bound", "--system", "builtin:walk_expected", "--mode", f"embed:{table}"])
        assert code == 1
        assert _single_error_line(capsys.readouterr()) == (
            f"error: embedding file {table} is not valid JSON: nested too deeply"
        )


def _deep_loop(tmp_path, levels: int) -> str:
    """A self-loop through a ``levels``-deep aggregator, with an exit."""
    system = {
        "semiring": {"kind": "nat_inf"},
        "rules": [
            {"lhs": "a", "rhs": ["a"], "agg": _nested_sum(levels), "tag": "loop"},
            {"lhs": "a", "rhs": ["b"], "agg": "v1", "tag": "exit"},
        ],
        "nf": {"b": "0"},
    }
    path = tmp_path / "deep-loop.json"
    path.write_text(json.dumps(system))
    return f"file:{path}"


class TestLoopThroughDeepAggregator:
    def test_polynomial_deeper_than_the_bound_is_an_error(self, tmp_path, capsys):
        # Two loop steps nest the 248-level aggregator about 495 levels deep,
        # past the bound.
        argv = ["loop", "--system", _deep_loop(tmp_path, 248), "--start", "a", "--depth", "2"]
        assert main(argv) == 1
        assert _single_error_line(capsys.readouterr()) == (
            f"error: the loop polynomial nests deeper than {MAX_AGGREGATOR_DEPTH} levels"
        )

    @pytest.mark.parametrize("levels, depth", [(248, 1), (150, 2)])
    def test_polynomial_within_the_bound_is_certified(self, tmp_path, capsys, levels, depth):
        argv = ["loop", "--system", _deep_loop(tmp_path, levels), "--start", "a",
                "--depth", str(depth), "--format", "json"]
        assert main(argv) == 0
        loops = json.loads(capsys.readouterr().out)["loops"]
        assert len(loops) == depth
        assert all(entry["verdict"] == "unbounded" for entry in loops)


class TestOutput:
    def test_json_reports_are_deterministic(self, twostate, capsys):
        argv = [
            "eval",
            "--system",
            f"file:{twostate}",
            "--start",
            "a",
            "--depth",
            "3",
            "--format",
            "json",
        ]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_seeded_samples_are_deterministic(self, capsys):
        argv = [
            "bound",
            "--system",
            "builtin:walk_expected",
            "--mode",
            "embed:walk3n",
            "--samples",
            "20",
            "--format",
            "json",
        ]
        outputs = []
        for _ in range(2):
            assert main(argv) == 3
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["sample_count"] == 20

    @pytest.mark.parametrize("command", ["eval", "loop", "oracle", "bound"])
    def test_only_bound_takes_a_seed(self, twostate, capsys, command):
        # No command takes one: nothing draws at random.
        argv = [command, "--system", f"file:{twostate}", "--seed", "7"]
        if command == "bound":
            argv += ["--mode", "extremal"]
        else:
            argv += ["--depth", "1"]
        if command in ("eval", "loop"):
            argv += ["--start", "a"]
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert "unrecognized arguments: --seed 7" in capsys.readouterr().err

    def test_json_values_reparse(self, twostate, capsys):
        main(
            [
                "eval",
                "--system",
                f"file:{twostate}",
                "--start",
                "a",
                "--depth",
                "2",
                "--format",
                "json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        from wars.semiring import NAT_INF

        value = NAT_INF.parse_literal(payload["results"][0]["value"])
        assert value == 3

    def test_list_builtins(self, capsys):
        assert main(["list"]) == 0
        assert "walk_termprob" in capsys.readouterr().out


def test_resolve_system_parses_params():
    sys_ = resolve_system("builtin:ski_rental(y=4)")
    assert sys_.name == "ski_rental(y=4)"
    with pytest.raises(CliError):
        resolve_system("walk_termprob")


@pytest.mark.parametrize("spec, message", [
    ("walk_termprob(foo=1)", "got an unexpected keyword argument 'foo'"),
    ("walk_expected(expected_steps=false)",
     "got an unexpected keyword argument 'expected_steps'"),
    ("os_runtime(depth=2)", "got an unexpected keyword argument 'depth'"),
    ("loop_language(x=1)", "got an unexpected keyword argument 'x'"),
    ("geometric_walk(prefix=x)", "prefix must be an integer, got 'x'"),
    ("geometric_walk(prefix=true)", "prefix must be an integer, got True"),
    ("ski_rental(y=x)", "y must be an integer, got 'x'"),
    ("ski_rental(y=true)", "y must be an integer, got True"),
    ("ski_rental", "missing a required argument: 'y'"),
    ("boolform(finite_costs=x)", "finite_costs must be a boolean, got 'x'"),
    ("boolform(finite_costs=1)", "finite_costs must be a boolean, got 1"),
    ("boolform(costs=1)", "got an unexpected keyword argument 'costs'"),
    ("addition_trs(max_size=x)", "max_size must be an integer, got 'x'"),
    ("addition_trs(max_size=15)", "max_size must be at most 14, got 15"),
])
def test_bad_builtin_parameters_are_refused(capsys, spec, message):
    name = spec.split("(")[0]
    argv = ["eval", "--system", f"builtin:{spec}", "--start", "1", "--depth", "1"]
    assert main(argv) == 1
    assert _single_error_line(capsys.readouterr()) == (
        f"error: bad parameters for {name!r}: {message}"
    )


def test_bad_builtin_parameter_is_refused_before_enumeration(capsys):
    argv = ["bound", "--system", "builtin:addition_trs(max_size=x)", "--mode", "extremal"]
    assert main(argv) == 1
    assert _single_error_line(capsys.readouterr()) == (
        "error: bad parameters for 'addition_trs': max_size must be an integer, got 'x'"
    )


def test_oversized_jump_prefix_is_refused_before_any_rule(capsys):
    # Every jump of geometric_walk has prefix successors: accepted, this
    # prefix would allocate them until the process is killed.
    argv = ["eval", "--system", "builtin:geometric_walk(prefix=1000000000)", "--start", "1",
            "--depth", "1"]
    started = time.process_time()
    assert main(argv) == 1
    assert time.process_time() - started < 1.0
    assert _single_error_line(capsys.readouterr()) == (
        "error: bad parameters for 'geometric_walk': prefix must be at most 1024, got 1000000000"
    )
    (jump,), _ = resolve_system("builtin:geometric_walk(prefix=1024)").successors(1, 64)
    assert len(jump.rhs) == 1024


@pytest.mark.parametrize("argv", [
    ["eval", "--start", "-3", "--depth", "3"],
    ["loop", "--start", "-3", "--depth", "3"],
], ids=["eval", "loop"])
def test_geometric_walk_refuses_a_negative_position(capsys, argv):
    # It answered -3 with 7516061697/8589934592, as if its jumps started there.
    command, *rest = argv
    assert main([command, "--system", "builtin:geometric_walk", *rest]) == 1
    assert _single_error_line(capsys.readouterr()) == "error: walk positions are naturals, got -3"
    with pytest.raises(SystemError_, match="^walk positions are naturals, got -3$"):
        resolve_system("builtin:geometric_walk").successors(-3)


@pytest.mark.parametrize("argv", [
    ["eval", "--start", "-5", "--depth", "3"],
    ["loop", "--start", "-5", "--depth", "3"],
], ids=["eval", "loop"])
def test_na_system_refuses_a_negative_number(capsys, argv):
    # It answered -5 with 3, and its loop search found no loop from -2.
    command, *rest = argv
    assert main([command, "--system", "builtin:na_system", *rest]) == 1
    message = "objects are 'a' and the naturals, got -5"
    assert _single_error_line(capsys.readouterr()) == f"error: {message}"
    with pytest.raises(SystemError_, match=f"^{message}$"):
        resolve_system("builtin:na_system").successors(-5)


def test_oversized_term_size_is_refused_before_any_term(capsys):
    # Every bound and oracle run lists each addition_trs term up to max_size,
    # about 2.7 times more per size: at 18 a run did not end within 60 s
    # under a 3 GB limit.
    argv = ["bound", "--system", "builtin:addition_trs(max_size=1000)", "--mode", "extremal"]
    started = time.process_time()
    assert main(argv) == 1
    assert time.process_time() - started < 1.0
    assert _single_error_line(capsys.readouterr()) == (
        "error: bad parameters for 'addition_trs': max_size must be at most 14, got 1000"
    )


EVAL_WALK = ["eval", "--system", "builtin:walk_termprob", "--start", "2", "--depth", "40",
             "--format", "json"]


def test_visit_cap_env_default(monkeypatch, capsys):
    # The visit cap is a flag alone: WARS_VISIT_CAP no longer sets its
    # default, so eval runs to the end under DEFAULT_VISIT_CAP.
    monkeypatch.setenv("WARS_VISIT_CAP", "5")
    for flags, code, cap in (([], 0, 100_000), (["--visit-cap", "5"], 2, 5)):
        assert main([*EVAL_WALK, *flags]) == code
        out, err = capsys.readouterr()
        assert (json.loads(out)["budgets"]["visit_cap"], err) == (cap, "")


def test_visit_cap_env_is_read_on_every_call(monkeypatch, capsys):
    # Set anew before every call, the variable is still unread: only the
    # flag moves the cap.
    for cap, code in (("5", 2), ("7", 2), ("100000", 0)):
        monkeypatch.setenv("WARS_VISIT_CAP", cap)
        assert main(EVAL_WALK) == 0
        assert json.loads(capsys.readouterr().out)["budgets"]["visit_cap"] == 100_000
        assert main([*EVAL_WALK, "--visit-cap", cap]) == code
        assert json.loads(capsys.readouterr().out)["budgets"]["visit_cap"] == int(cap)


@pytest.mark.parametrize("command, code", [("eval", 1)])
def test_unparsable_visit_cap_env_is_bad_configuration(monkeypatch, capsys, chain, command, code):
    # An unparsable WARS_VISIT_CAP is no configuration at all: a bad flag
    # meets its own error, and without one the command runs.
    monkeypatch.setenv("WARS_VISIT_CAP", "lots")
    argv = [command, "--system", f"file:{chain}", "--start", "a", "--depth", "1"]
    assert main([*argv, "--rule-budget", "0"]) == code
    assert _single_error_line(capsys.readouterr()) == (
        "error: --rule-budget must be at least 1, got 0"
    )
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert main([*argv, "--visit-cap", "10"]) == 0


def test_commands_without_a_visit_cap_ignore_its_env(monkeypatch, capsys, chain):
    monkeypatch.setenv("WARS_VISIT_CAP", "lots")
    assert main(["bound", "--system", f"file:{chain}", "--mode", "extremal"]) == 0
    assert main(["loop", "--system", f"file:{chain}", "--start", "a", "--depth", "2"]) == 4
    assert main(["oracle", "--system", f"file:{chain}", "--depth", "2"]) == 0
    assert "WARS_VISIT_CAP" not in capsys.readouterr().err


SYSTEM_FILE_SHAPES = {
    "rules an object": ({"semiring": {"kind": "nat_inf"}, "rules": {"x": 1}},
                        "'rules' must be a JSON array and 'nf' a JSON object"),
    "rule not an object": ({"semiring": {"kind": "nat_inf"}, "rules": [5]},
                           "rule 0: needs a string lhs and a non-empty rhs"),
    "nf a list": ({"semiring": {"kind": "nat_inf"}, "rules": [], "nf": [1]},
                  "'rules' must be a JSON array and 'nf' a JSON object"),
    "alphabet a number": ({"semiring": {"kind": "language", "alphabet": 5}},
                          "language semiring needs an 'alphabet' list of distinct symbols"),
}


@pytest.mark.parametrize(
    "system, message", SYSTEM_FILE_SHAPES.values(), ids=list(SYSTEM_FILE_SHAPES)
)
def test_system_file_of_the_wrong_shape_is_bad_configuration(tmp_path, capsys, system, message):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(system))
    assert main(["eval", "--system", f"file:{path}", "--start", "a", "--depth", "1"]) == 1
    assert _single_error_line(capsys.readouterr()) == f"error: {message}"


@pytest.mark.parametrize("fmt, out", [
    ("text", "s: {abc} (stabilized, depth 1, 2 objects)\n"),
    ("json", '"value": "{abc}"'),
])
def test_language_word_over_an_alphabet_that_is_not_prefix_free(tmp_path, capsys, fmt, out):
    # "abc" is a.bc; the longest first symbol, "ab", leaves "c".
    path = tmp_path / "overlap.json"
    path.write_text(json.dumps({
        "semiring": {"kind": "language", "alphabet": ["a", "ab", "bc"]},
        "rules": [{"lhs": "s", "rhs": ["t"], "agg": "{a} * v1"}],
        "nf": {"t": "{bc}"},
    }))
    argv = ["eval", "--system", f"file:{path}", "--start", "s", "--depth", "3", "--format", fmt]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert out in captured.out and captured.err == ""


ZERO_DENOMINATOR = "zero denominator: '1/0'"


@pytest.mark.parametrize("command", ["eval", "loop", "oracle"])
@pytest.mark.parametrize(
    "agg, nf, message",
    [
        ("1/2 * v1", "1/0", ZERO_DENOMINATOR),
        ("1/0 + v1", "1/2", f"rule ab: {ZERO_DENOMINATOR} (at position 3)"),
    ],
    ids=["normal-form weight", "aggregator constant"],
)
def test_zero_denominator_in_a_system_file_is_bad_configuration(tmp_path, capsys, command,
                                                                agg, nf, message):
    # Fraction("1/0") raised ZeroDivisionError, which ended in a traceback.
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({
        "semiring": {"kind": "real_inf"},
        "rules": [{"lhs": "a", "rhs": ["b"], "agg": agg, "tag": "ab"}],
        "nf": {"b": nf},
    }))
    start = [] if command == "oracle" else ["--start", "a"]
    code = main([command, "--system", f"file:{path}", *start, "--depth", "2"])
    assert code == (3 if command == "oracle" else 1)
    assert _single_error_line(capsys.readouterr()) == f"error: {message}"


@pytest.mark.parametrize("system", ["builtin:walk_expected", "chain"])
def test_zero_denominator_as_selective_bound_is_bad_configuration(chain, capsys, system):
    system = f"file:{chain}" if system == "chain" else system
    code = main(["bound", "--system", system, "--mode", "selective", "--bound", "1/0"])
    assert code == 1
    assert _single_error_line(capsys.readouterr()) == f"error: {ZERO_DENOMINATOR}"


def test_zero_denominator_in_an_embedding_file_is_bad_configuration(chain, tmp_path, capsys):
    table = tmp_path / "zero-embed.json"
    table.write_text('{"a": "1/0", "b": 0}')
    assert main(["bound", "--system", f"file:{chain}", "--mode", f"embed:{table}"]) == 1
    assert _single_error_line(capsys.readouterr()) == (
        f"error: embedding file {table}: bad entry 'a': {ZERO_DENOMINATOR}"
    )


@pytest.mark.parametrize("command", ["eval", "loop", "oracle"])
def test_rule_tag_that_is_no_string_is_bad_configuration(tmp_path, capsys, command):
    # The loop search joins rule tags into its trace, so it crashed on this.
    path = tmp_path / "tag.json"
    path.write_text(json.dumps({
        "semiring": {"kind": "nat_inf"},
        "rules": [{"lhs": "a", "rhs": ["a"], "agg": "1 + v1", "tag": 5}],
    }))
    start = [] if command == "oracle" else ["--start", "a"]
    code = main([command, "--system", f"file:{path}", *start, "--depth", "2"])
    assert code == (3 if command == "oracle" else 1)
    assert _single_error_line(capsys.readouterr()) == (
        "error: rule 0: 'tag' must be a string"
    )


# An integer literal past the interpreter's limit on digits read from text.
LONG_INTEGER = "7" * 5000
TOO_LONG = "Exceeds the limit (4300 digits)"


@pytest.mark.skipif(not LIMITED_DIGITS, reason="integers parse at any length here")
@pytest.mark.parametrize(
    "literal, message",
    [
        (LONG_INTEGER, f"invalid JSON: {TOO_LONG}"),
        (f'"{LONG_INTEGER}"', f"numeric literal too long: {TOO_LONG}"),
        (f'"{LONG_INTEGER}/3"', f"numeric literal too long: {TOO_LONG}"),
    ],
    ids=["JSON integer", "JSON string", "JSON string fraction"],
)
def test_overlong_integer_in_a_system_file_is_bad_configuration(tmp_path, capsys, literal,
                                                                message):
    path = tmp_path / "long.json"
    path.write_text('{"semiring": {"kind": "real_inf"}, "rules": [], "nf": {"a": %s}}' % literal)
    assert main(["eval", "--system", f"file:{path}", "--start", "a", "--depth", "1"]) == 1
    assert _single_error_line(capsys.readouterr()).startswith(f"error: {message}")


@pytest.mark.skipif(not LIMITED_DIGITS, reason="integers parse at any length here")
@pytest.mark.parametrize(
    "literal, message",
    [
        (LONG_INTEGER, f" is not valid JSON: {TOO_LONG}"),
        (f'"{LONG_INTEGER}"', f": bad entry 'a': numeric literal too long: {TOO_LONG}"),
    ],
    ids=["JSON integer", "JSON string"],
)
def test_overlong_integer_in_an_embedding_file_is_bad_configuration(chain, tmp_path, capsys,
                                                                    literal, message):
    table = tmp_path / "long-embed.json"
    table.write_text('{"a": %s, "b": 0}' % literal)
    assert main(["bound", "--system", f"file:{chain}", "--mode", f"embed:{table}"]) == 1
    line = _single_error_line(capsys.readouterr())
    assert line.startswith(f"error: embedding file {table}{message}")
