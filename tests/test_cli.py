"""Command-line behaviour: exit codes, report shapes, determinism."""

from __future__ import annotations

import json
import sys

import pytest

from wars.builtins import MAX_TERM_DEPTH
from wars.cli import main, resolve_system, CliError
from wars.semiring import MAX_PRODUCT_DEPTH
from wars.system import MAX_AGGREGATOR_DEPTH

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
    def test_bound_lies_between_parent_limit_and_hashing_limit(self):
        # 329 levels was the deepest aggregator `wars eval` evaluated before
        # the parser was iterative; hashing an expression failed near 490.
        # Expressions are no longer hashed, and the compiled closures, which
        # nest a frame per level, fail near 990.
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
    "eval unparsable start": ["eval", "--system", "builtin:walk_termprob", "--start", "x(",
                              "--depth", "2"],
    "bound zero rule budget": ["bound", "--system", "builtin:walk_expected", "--mode",
                               "extremal", "--rule-budget", "0"],
    "bound zero visit cap": ["bound", "--system", "builtin:walk_expected", "--mode",
                             "extremal", "--visit-cap", "0"],
    "bound negative samples": ["bound", "--system", "builtin:walk_expected", "--mode",
                               "embed:walk3n", "--samples", "-5"],
    "loop zero depth": ["loop", "--system", "builtin:os_runtime", "--start", "idle()",
                        "--depth", "0"],
    "loop zero rule budget": ["loop", "--system", "builtin:os_runtime", "--start", "idle()",
                              "--depth", "4", "--rule-budget", "0"],
    "loop zero visit cap": ["loop", "--system", "builtin:os_runtime", "--start", "idle()",
                            "--depth", "4", "--visit-cap", "0"],
    "loop negative max witnesses": ["loop", "--system", "builtin:os_runtime", "--start",
                                    "idle()", "--depth", "4", "--max-witnesses", "-1"],
    "loop unparsable start": ["loop", "--system", "builtin:walk_termprob", "--start", "x(",
                              "--depth", "2"],
}


@pytest.mark.parametrize("argv", INVALID_ARGV.values(), ids=list(INVALID_ARGV))
def test_invalid_flags_are_bad_configuration(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")
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

    def test_deep_chain_hits_the_count_cap(self, tmp_path, capsys):
        # Trees deeper than the recursion limit are enumerated without
        # recursion, until the count cap stops them.
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
        assert code == 2
        assert _single_error_line(capsys.readouterr()) == (
            "error: more than 200000 trees at depth 1200"
        )

    def test_visit_cap_hit_is_bad_configuration(self, capsys):
        code = main(
            [
                "loop",
                "--system",
                "builtin:os_runtime",
                "--start",
                "idle()",
                "--depth",
                "4",
                "--visit-cap",
                "10",
            ]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: visit cap hit after 10 objects")
        assert "Traceback" not in err


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

    def test_visit_cap_hit_is_blowup(self, twostate, capsys):
        code = main(
            ["oracle", "--system", f"file:{twostate}", "--depth", "2", "--visit-cap", "1"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: visit cap hit after 1 objects")
        assert "Traceback" not in err


# A bad `oracle` configuration exits 3, apart from 1 ("mismatch").
INVALID_ORACLE_ARGV = {
    "zero rule budget": ["--rule-budget", "0"],
    "zero visit cap": ["--visit-cap", "0"],
    "missing system file": ["--system", "file:/nonexistent/wars-system.json"],
    "bad system spec": ["--system", "nowhere"],
}


@pytest.mark.parametrize("extra", INVALID_ORACLE_ARGV.values(), ids=list(INVALID_ORACLE_ARGV))
def test_oracle_bad_configuration_exits_3(twostate, capsys, extra):
    code = main(["oracle", "--system", f"file:{twostate}", "--depth", "2", *extra])
    assert code == 3
    _single_error_line(capsys.readouterr())


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
            "--seed",
            "7",
            "--format",
            "json",
        ]
        outputs = []
        for _ in range(2):
            assert main(argv) == 3
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["sample_count"] == 20

    @pytest.mark.parametrize("command", ["eval", "loop", "oracle"])
    def test_only_bound_takes_a_seed(self, twostate, capsys, command):
        argv = [command, "--system", f"file:{twostate}", "--depth", "1", "--seed", "7"]
        if command != "oracle":
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


def test_visit_cap_env_default(monkeypatch, capsys):
    monkeypatch.setenv("WARS_VISIT_CAP", "5")
    code = main(
        [
            "eval",
            "--system",
            "builtin:walk_termprob",
            "--start",
            "2",
            "--depth",
            "40",
            "--format",
            "json",
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["budgets"]["visit_cap"] == 5


def test_visit_cap_env_is_read_on_every_call(monkeypatch, capsys):
    argv = ["eval", "--system", "builtin:walk_termprob", "--start", "2", "--depth", "40",
            "--format", "json"]
    for cap, code in (("5", 2), ("7", 2), ("100000", 0)):
        monkeypatch.setenv("WARS_VISIT_CAP", cap)
        assert main(argv) == code
        assert json.loads(capsys.readouterr().out)["budgets"]["visit_cap"] == int(cap)


@pytest.mark.parametrize("command, code", [("eval", 1), ("oracle", 3)])
def test_unparsable_visit_cap_env_is_bad_configuration(monkeypatch, capsys, chain, command, code):
    monkeypatch.setenv("WARS_VISIT_CAP", "lots")
    start = ["--start", "a"] if command == "eval" else []
    assert main([command, "--system", f"file:{chain}", *start, "--depth", "1"]) == code
    assert _single_error_line(capsys.readouterr()) == (
        "error: WARS_VISIT_CAP must be an integer, got 'lots'"
    )
    # An explicit flag needs no default.
    assert main([command, "--system", f"file:{chain}", *start, "--depth", "1",
                 "--visit-cap", "10"]) == 0


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
