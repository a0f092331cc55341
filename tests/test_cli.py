"""End-to-end command-line behaviour over the JSON fixtures."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from roughmatroids.cli import main
from roughmatroids.fileio import (
    InputFormatError,
    dumps,
    load_family,
    load_structure,
    parse_set_literal,
)
from roughmatroids import Universe

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fx(name: str) -> str:
    return str(FIXTURES / name)


class TestSetLiteral:
    def test_basic(self):
        u = Universe(("a", "b", "c", "d"))
        assert parse_set_literal("{a,d}", u).members() == ("a", "d")
        assert parse_set_literal("{ a , d }", u).members() == ("a", "d")
        assert parse_set_literal("{}", u) == u.empty()

    def test_unknown_label_named(self):
        u = Universe(("a", "b"))
        with pytest.raises(InputFormatError, match="'z'"):
            parse_set_literal("{a,z}", u)

    def test_duplicate_label_named(self):
        u = Universe(("a", "b"))
        with pytest.raises(InputFormatError, match="duplicate label 'a'"):
            parse_set_literal("{a,a}", u)

    def test_missing_braces(self):
        u = Universe(("a",))
        with pytest.raises(InputFormatError, match="brace"):
            parse_set_literal("a", u)


class TestLoaders:
    def test_structure_covering(self):
        universe, structure = load_structure(fx("cov_hex.json"))
        assert universe.labels == tuple("abcdef")
        assert len(structure.blocks) == 6

    def test_structure_relation(self):
        universe, structure = load_structure(fx("rel_4pt.json"))
        assert len(structure.pairs) == 5

    def test_unknown_label_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(dumps({"universe": ["a"], "covering": [["a", "q"]]}))
        with pytest.raises(InputFormatError, match="'q'"):
            load_structure(bad)

    def test_both_structure_kinds_rejected(self, tmp_path):
        bad = tmp_path / "both.json"
        bad.write_text(
            dumps({"universe": ["a"], "covering": [["a"]], "relation": [["a", "a"]]})
        )
        with pytest.raises(InputFormatError, match="exactly one"):
            load_structure(bad)

    def test_universe_mismatch_between_files(self):
        universe, _ = load_structure(fx("cov_hex.json"))
        with pytest.raises(InputFormatError, match="does not match"):
            load_family(fx("fam_mixed4_pass.json"), universe)


class TestCheckCommand:
    def test_rough_cov_pass_exit_zero(self, capsys):
        code, out, _ = run(
            capsys, "check", "rough-cov", fx("cov_mixed4.json"), fx("fam_mixed4_pass.json")
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["check"] == "rough-cov"
        assert payload["pass"] is True
        assert payload["failed_axiom"] is None

    def test_rough_cov_fail_exit_one(self, capsys):
        code, out, _ = run(
            capsys, "check", "rough-cov", fx("cov_mixed4.json"), fx("fam_mixed4_fail.json")
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["pass"] is False
        axioms = [f["axiom"] for f in payload["failures"]]
        assert axioms == ["CI2", "CI3"]
        ci3 = payload["failures"][1]
        assert ci3["witness"] == {"I1": ["a", "b"], "I2": ["a", "c", "d"]}

    def test_matroid_missing_empty(self, capsys):
        code, out, _ = run(
            capsys, "check", "matroid", fx("cov_mixed4.json"), fx("fam_missing_empty.json")
        )
        assert code == 1
        assert json.loads(out)["failed_axiom"] == "I1"

    def test_relation_checks(self, capsys):
        code, _, _ = run(
            capsys, "check", "upper-rel", fx("rel_4pt.json"), fx("fam_rel4.json")
        )
        assert code == 0
        code, _, _ = run(
            capsys, "check", "lower-rel", fx("rel_4pt_reflexive.json"), fx("fam_rel4.json")
        )
        assert code == 0

    def test_wrong_structure_kind_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "check", "lower-rel", fx("cov_mixed4.json"), fx("fam_mixed4_pass.json")
        )
        assert code == 2
        assert json.loads(err)["error"]["type"] == "InputFormatError"

    def test_universe_mismatch_exit_two(self, capsys):
        code, _, err = run(
            capsys, "check", "rough-cov", fx("cov_hex.json"), fx("fam_mixed4_pass.json")
        )
        assert code == 2
        assert "error" in json.loads(err)

    def test_text_format(self, capsys):
        code, out, _ = run(
            capsys,
            "check",
            "rough-cov",
            fx("cov_mixed4.json"),
            fx("fam_mixed4_fail.json"),
            "--format",
            "text",
        )
        assert code == 1
        assert out.startswith("rough-cov: FAIL")
        assert "CI3" in out


class TestOtherCommands:
    def test_neighborhoods(self, capsys):
        code, out, _ = run(capsys, "neighborhoods", fx("cov_hex.json"))
        assert code == 0
        payload = json.loads(out)
        assert payload["neighborhoods"]["a"] == ["a", "d"]
        assert payload["neighborhoods"]["e"] == ["e"]

    def test_approx(self, capsys):
        code, out, _ = run(capsys, "approx", fx("cov_hex.json"), "--set", "{b,d,f}")
        assert code == 0
        payload = json.loads(out)
        assert payload["lower"] == ["f"]
        assert payload["upper"] == ["a", "b", "c", "d", "f"]
        assert payload["duality_holds"] is True

    def test_definable_family_roundtrip(self, capsys, tmp_path):
        out_path = tmp_path / "family.json"
        code, _, _ = run(
            capsys, "definable", fx("cov_hex.json"), "--output", str(out_path)
        )
        assert code == 0
        family = load_family(out_path)
        assert len(family) == 16
        # the emitted family re-ingests losslessly as a check input
        code, out, _ = run(
            capsys, "check", "rough-cov", fx("cov_hex.json"), str(out_path)
        )
        assert code == 0

    def test_definable_single_set(self, capsys):
        code, out, _ = run(
            capsys, "definable", fx("cov_hex.json"), "--set", "{b,d,f}"
        )
        assert code == 0
        assert json.loads(out)["definable"] is False

    def test_definable_family_of_relation(self, capsys):
        code, out, _ = run(capsys, "definable", fx("rel_4pt.json"))
        assert code == 0
        assert json.loads(out)["family"] == [
            [],
            ["a1"],
            ["a1", "a2"],
            ["a1", "a3"],
            ["a1", "a2", "a3"],
        ]

    def test_approx_on_relation(self, capsys):
        code, out, _ = run(capsys, "approx", fx("rel_4pt.json"), "--set", "{a1}")
        assert code == 0
        assert json.loads(out)["upper"] == ["a1", "a2", "a3"]

    def test_lattice_dot(self, capsys):
        code, out, _ = run(capsys, "lattice", fx("cov_chain3.json"), "--format", "dot")
        assert code == 0
        assert out.count("[label=") == 5
        assert out.count("->") == 5

    def test_lattice_json(self, capsys):
        code, out, _ = run(capsys, "lattice", fx("cov_chain3.json"))
        assert code == 0
        payload = json.loads(out)
        assert payload["bottom"] == []
        assert payload["top"] == ["a", "b", "c"]
        assert len(payload["edges"]) == 5

    def test_uniform_family(self, capsys):
        code, out, _ = run(capsys, "uniform", fx("cov_mixed4.json"), "--r", "1")
        assert code == 0
        assert json.loads(out)["family"] == [[], ["a"], ["c"]]

    def test_uniform_proposition(self, capsys):
        code, out, _ = run(
            capsys, "uniform", fx("cov_mixed4.json"), "--r", "1", "--proposition"
        )
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_direct_sum(self, capsys):
        code, out, _ = run(
            capsys,
            "direct-sum",
            fx("cov_sum_left.json"),
            fx("fam_sum_left.json"),
            fx("cov_sum_right.json"),
            fx("fam_sum_right.json"),
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["family"]["family"]) == 18
        assert payload["report"]["pass"] is True

    def test_ci3prime(self, capsys):
        code, out, _ = run(
            capsys, "ci3prime", fx("cov_mixed4.json"), fx("fam_mixed4_fail.json")
        )
        assert code == 1
        axioms = [f["axiom"] for f in json.loads(out)["failures"]]
        assert "CI3'" in axioms

    def test_extension_check(self, capsys):
        code, out, _ = run(
            capsys,
            "extension-check",
            fx("cov_hex.json"),
            "--d1",
            "{e}",
            "--d2",
            "{a,d,f}",
            "--element",
            "a",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["blocked"] is True
        assert payload["neighborhood_criterion"] is True

    def test_enumerate_fixture_format(self, capsys):
        code, out, _ = run(capsys, "enumerate", fx("cov_chain3.json"))
        assert code == 0
        payload = json.loads(out)
        assert payload["command"].startswith("enumerate ")
        assert payload["seed"] is None
        assert payload["count"] == 6
        assert len(payload["families"]) == 6

    def test_enumerate_rejects_start_outside_the_index_range(self, capsys):
        code, out, err = run(capsys, "enumerate", fx("cov_chain3.json"), "--start", "-3")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["type"] == "ValueError"

    def test_enumerate_rejects_nonpositive_jobs(self, capsys):
        code, out, err = run(capsys, "enumerate", fx("cov_chain3.json"), "--jobs", "0")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["type"] == "ValueError"

    def test_cross_check_requires_seed(self, capsys):
        code, _, err = run(capsys, "cross-check", fx("cov_chain3.json"))
        assert code == 2
        assert json.loads(err)["error"]["type"] == "usage"

    def test_cross_check(self, capsys):
        code, out, _ = run(capsys, "cross-check", fx("cov_hex.json"), "--seed", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["details"]["seed"] == 5

    def test_dot_rejected_outside_lattice(self, capsys):
        code, _, err = run(
            capsys,
            "check",
            "rough-cov",
            fx("cov_mixed4.json"),
            fx("fam_mixed4_pass.json"),
            "--format",
            "dot",
        )
        assert code == 2
        assert "not valid here" in json.loads(err)["error"]["message"]

    def test_malformed_json_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "neighborhoods", str(bad))
        assert code == 2
        assert json.loads(err)["error"]["type"] == "InputFormatError"

    def test_deeply_nested_json_exit_two(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text('{"universe": ' + "[" * 100_000 + "]" * 100_000 + "}")
        for argv in (
            ["neighborhoods", str(deep)],
            ["check", "rough-cov", fx("cov_mixed4.json"), str(deep)],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert out == ""
            error = json.loads(err)["error"]
            assert error["type"] == "InputFormatError"
            assert "nested too deeply" in error["message"]

    def test_relation_label_of_another_type_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "rel.json"
        bad.write_text(json.dumps({"universe": ["a"], "relation": [["a", ["a"]]]}))
        code, _, err = run(capsys, "neighborhoods", str(bad))
        assert code == 2
        assert "unknown label ['a']" in json.loads(err)["error"]["message"]

    def test_extension_check_reports_the_validated_criterion(self, capsys, monkeypatch):
        # the criterion is computed once, inside the validating call
        from roughmatroids import cli, constructions

        calls = []
        sides = constructions.extension_sides

        def counted(*args):
            calls.append(args)
            return sides(*args)

        monkeypatch.setattr(constructions, "extension_sides", counted)
        monkeypatch.setattr(cli, "extension_sides", None)
        for d1, d2, element, blocked in (("{e}", "{a,d,f}", "a", True), ("{}", "{e,f}", "e", False)):
            calls.clear()
            code, out, _ = run(
                capsys, "extension-check", fx("cov_hex.json"),
                "--d1", d1, "--d2", d2, "--element", element, "--no-size-check",
            )
            assert code == 0
            payload = json.loads(out)
            assert payload["blocked"] is payload["neighborhood_criterion"] is blocked
            assert len(calls) == 1

    def test_large_universe_warning_is_json_on_stderr(self, capsys, tmp_path):
        labels = [f"x{i}" for i in range(22)]
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps({"universe": labels, "covering": [labels]}))
        warning = {
            "warning": {
                "type": "UserWarning",
                "message": "universe has 22 elements; exhaustive operations are bounded at 20",
            }
        }
        code, out, err = run(capsys, "neighborhoods", str(wide))
        assert code == 0
        assert json.loads(out)["universe"] == labels
        assert json.loads(err) == warning
        # a warning raised before an error comes first, both as JSON
        code, out, err = run(capsys, "cross-check", str(wide), "--seed", "0")
        assert code == 2
        assert out == ""
        decoder = json.JSONDecoder()
        first, end = decoder.raw_decode(err)
        second, end = decoder.raw_decode(err, end + 1)
        assert first == warning
        assert second["error"]["type"] == "SizeBoundError"
        assert end == len(err) - 1

    def test_definable_past_the_closure_bound_exit_two(self, capsys, tmp_path, monkeypatch):
        # the discrete 12-element covering closes to 2^12 sets; a bound
        # lowered to 2^11 stands in for a universe past 20 elements
        from roughmatroids import definable

        labels = [f"x{i}" for i in range(12)]
        discrete = tmp_path / "discrete.json"
        discrete.write_text(json.dumps({"universe": labels, "covering": [[x] for x in labels]}))
        monkeypatch.setattr(definable, "SCAN_LIMIT", 11)
        code, out, err = run(capsys, "definable", str(discrete))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["type"] == "SizeBoundError"

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run(capsys, "lattice", fx("cov_hex.json"), "--format", "dot")
        _, second, _ = run(capsys, "lattice", fx("cov_hex.json"), "--format", "dot")
        assert first == second
        _, a, _ = run(capsys, "cross-check", fx("cov_hex.json"), "--seed", "9")
        _, b, _ = run(capsys, "cross-check", fx("cov_hex.json"), "--seed", "9")
        assert a == b
