"""End-to-end command-line behaviour over the JSON fixtures."""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from roughmatroids import fileio
from roughmatroids.cli import main
from roughmatroids.fileio import (
    InputFormatError,
    dumps,
    load_family,
    load_structure,
    parse_set_literal,
)
from roughmatroids import Universe
from support import json_objects

FIXTURES = Path(__file__).parent / "fixtures"


def modules_loaded_by_cli_import(*names: str) -> list[str]:
    """Those of ``names`` in ``sys.modules`` after ``import roughmatroids.cli``
    in a fresh interpreter with ``src`` first on its path."""
    probe = f"import sys, roughmatroids.cli; print([m for m in {names!r} if m in sys.modules])"
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return ast.literal_eval(done.stdout)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# A structure file holding the one-block covering of a one-element universe.
ONE_BLOCK = {"universe": ["a"], "covering": [["a"]]}


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


def three_pass_reading(universe, labels):
    """A subset as the loader read it when it checked each label three
    times: its ``Subset``, or the text of the error it raised."""
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        return "subsets must be lists of labels"
    seen = set()
    for lab in labels:
        if lab in seen:
            return f"duplicate label {lab!r}"
        seen.add(lab)
        if lab not in universe:
            return f"unknown label {lab!r}"
    return universe.subset(labels)


class TestSubsetLabels:
    @pytest.mark.parametrize(
        "labels, message",
        [
            (["a", "a", 3], "subsets must be lists of labels"),
            (["zz", None], "subsets must be lists of labels"),
            (["a", "zz", "a"], "unknown label 'zz'"),
            (["a", "b", "a", "zz"], "duplicate label 'a'"),
        ],
    )
    def test_a_non_string_label_is_reported_first(self, tmp_path, labels, message):
        path = tmp_path / "cov.json"
        path.write_text(json.dumps({"universe": ["a", "b"], "covering": [["a", "b"], labels]}))
        with pytest.raises(InputFormatError) as exc:
            load_structure(path)
        assert str(exc.value) == f"{path}: {message}"

    def test_every_subset_reads_as_with_three_checks_per_label(self, tmp_path):
        u = Universe(("a", "b", "c"))
        rng = random.Random(5)
        pool = ["a", "b", "c", "zz", 3, None, ["a"]]
        path = tmp_path / "fam.json"
        for _ in range(400):
            labels = [rng.choice(pool) for _ in range(rng.randint(0, 5))]
            if rng.random() < 0.05:
                labels = "a"
            path.write_text(json.dumps({"universe": list(u.labels), "family": [labels]}))
            expected = three_pass_reading(u, labels)
            if isinstance(expected, str):
                with pytest.raises(InputFormatError) as exc:
                    load_family(path)
                assert str(exc.value) == f"{path}: {expected}"
            else:
                assert load_family(path).members == (expected,)


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

    def test_extension_check_unknown_element_message_is_plain(self, capsys):
        code, out, err = run(
            capsys, "extension-check", fx("cov_hex.json"),
            "--d1", "{e}", "--d2", "{a,d,f}", "--element", "z",
        )
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": {"type": "KeyError", "message": "unknown label 'z'"}}

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

    @pytest.mark.parametrize(
        "data, message",
        [
            (b'{"universe": ["a"], "universe": ["a", "b"], "covering": [["a", "b"]]}',
             "repeated key 'universe'"),
            (b'{"universe": ["a"], "covering": [["a"]], "n": ' + b"7" * 5000 + b"}",
             "integer literal too long"),
            (b'{"universe": ["a"], "covering": [["a"]], "x": [{"k": 1, "k": 2}]}',
             "repeated key 'k'"),
            (b'{"universe": ["a\xff"], "covering": [["a"]]}', "file is not valid UTF-8"),
        ],
        ids=["repeated-key", "long-int", "nested-repeated-key", "invalid-utf8"],
    )
    def test_input_past_the_json_reader_exit_two(self, capsys, tmp_path, data, message):
        bad = tmp_path / "bad.json"
        bad.write_bytes(data)
        fam = tmp_path / "fam.json"
        fam.write_bytes(data.replace(b'"covering"', b'"family"'))
        for argv, where in (
            (["neighborhoods", str(bad)], bad),
            (["check", "rough-cov", fx("cov_mixed4.json"), str(fam)], fam),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            (error,) = json_objects(err)
            assert error["error"] == {"type": "InputFormatError", "message": f"{where}: {message}"}

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

    def test_label_that_is_not_utf8_exit_two_and_output_kept(self, capsys, tmp_path):
        # "\ud800" is a valid JSON string, but no UTF-8 text can carry it
        sur = tmp_path / "sur.json"
        sur.write_text('{"universe": ["\\ud800", "b"], "covering": [["\\ud800", "b"]]}')
        fam = tmp_path / "fam.json"
        fam.write_text('{"universe": ["\\ud800", "b"], "family": [[]]}')
        existing = tmp_path / "existing.json"
        existing.write_text("kept\n")
        for argv in (
            ["neighborhoods", str(sur), "--output", str(existing)],
            ["check", "rough-cov", str(sur), str(fam), "--output", str(existing)],
            ["check", "rough-cov", fx("cov_mixed4.json"), str(fam)],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert out == ""
            error = json.loads(err)["error"]
            assert error["type"] == "InputFormatError"
            assert "label '\\ud800' is not valid UTF-8" in error["message"]
        assert existing.read_text() == "kept\n"
        with pytest.raises(InputFormatError, match="ud800"):
            load_structure(sur)

    def test_cross_check_rejects_trials_past_the_bound(self, capsys, monkeypatch):
        from roughmatroids import cli

        def refuse(*args):
            raise AssertionError("the law suite ran")

        monkeypatch.setattr(cli, "cross_check", refuse)
        code, out, err = run(
            capsys, "cross-check", fx("cov_chain3.json"), "--seed", "0", "--trials", "65537"
        )
        assert code == 2
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError"
        assert "trials must be at most 65536" in error["message"]

    def test_enumerate_rejects_a_family_base_past_the_scan_limit(self, capsys, tmp_path, monkeypatch):
        # |D| = 40 lies under a base of 64, which would admit 2^40 indices
        from roughmatroids import oracle, random_covering

        covering = random_covering(8, 0.3, 28)
        assert len(oracle.definable_family(covering.neighborhoods)) == 40
        path = tmp_path / "cov40.json"
        path.write_text(json.dumps({
            "universe": list(covering.universe.labels),
            "covering": [list(b.members()) for b in covering.blocks],
        }))

        def refuse(*args):
            raise AssertionError("the subfamily scan was reached")

        monkeypatch.setattr(oracle, "_passing_masks", refuse)
        for base in ("21", "64"):
            code, out, err = run(capsys, "enumerate", str(path), "--max-family-base", base)
            assert code == 2
            assert out == ""
            error = json.loads(err)["error"]
            assert error["type"] == "ValueError"
            assert f"max_family_base must be at most 20, got {base}" == error["message"]
        # at the bound the budget is accepted, and the family size gate refuses |D| = 40
        code, out, err = run(capsys, "enumerate", str(path), "--max-family-base", "20")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "SizeBoundError"

    def test_cli_import_leaves_the_process_pool_unloaded(self):
        assert modules_loaded_by_cli_import("multiprocessing", "concurrent.futures") == []

    def test_cli_import_loads_no_dataclasses_inspect_or_string(self):
        # each costs start-up time in every CLI process; see README, "Command line"
        assert modules_loaded_by_cli_import("dataclasses", "inspect", "string") == []

    def test_relation_label_of_another_type_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "rel.json"
        bad.write_text(json.dumps({"universe": ["a"], "relation": [["a", ["a"]]]}))
        code, _, err = run(capsys, "neighborhoods", str(bad))
        assert code == 2
        assert "unknown label ['a']" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize(
        "blocks, argv, message",
        [
            pytest.param([["d"], []], ["neighborhoods", "S"], "covering blocks must be nonempty",
                         id="empty-block"),
            pytest.param([["d"], ["e"], ["d"]], ["neighborhoods", "S"],
                         "duplicate block {d} rejected", id="repeated-block"),
            pytest.param([["d", "e"]], ["neighborhoods", "S"],
                         "blocks do not cover the universe; missing {f}", id="uncovered-element"),
            # the first summand is valid, so the path says which one is not
            pytest.param([["d", "e"]], ["direct-sum", fx("cov_sum_left.json"),
                                        fx("fam_sum_left.json"), "S", fx("fam_sum_right.json")],
                         "blocks do not cover the universe; missing {f}",
                         id="direct-sum-second-summand"),
        ],
    )
    def test_invalid_covering_names_its_file(self, capsys, tmp_path, blocks, argv, message):
        bad = tmp_path / "cov_bad.json"
        bad.write_text(json.dumps({"universe": ["d", "e", "f"], "covering": blocks}))
        code, out, err = run(capsys, *(str(bad) if a == "S" else a for a in argv))
        assert (code, out) == (2, "")
        (error,) = json_objects(err)
        assert error == {"error": {"type": "InvalidCoveringError", "message": f"{bad}: {message}"}}

    @pytest.mark.parametrize(
        "structure, family, argv, message",
        [
            pytest.param(
                [["a"]], None, ["neighborhoods", "S"], "expected a JSON object", id="top-level-array"
            ),
            pytest.param(
                {"universe": ["a"], "covering": ["a"]},
                None,
                ["neighborhoods", "S"],
                "subsets must be lists of labels",
                id="subset-not-a-list",
            ),
            pytest.param(
                {"universe": ["a"], "covering": {"a": 1}},
                None,
                ["neighborhoods", "S"],
                "'covering' must be a list",
                id="covering-not-a-list",
            ),
            pytest.param(
                {"universe": ["a"], "relation": "a"},
                None,
                ["neighborhoods", "S"],
                "'relation' must be a list",
                id="relation-not-a-list",
            ),
            pytest.param(
                ONE_BLOCK,
                {"universe": ["a"], "family": "a"},
                ["check", "rough-cov", "S", "F"],
                "'family' must be a list",
                id="family-not-a-list",
            ),
            pytest.param(
                {"universe": ["a"], "relation": [["a"]]},
                None,
                ["neighborhoods", "S"],
                "relation entries must be pairs",
                id="relation-entry-not-a-pair",
            ),
            pytest.param(
                {"universe": ["a"], "covering": []},
                None,
                ["neighborhoods", "S"],
                "at least one block",
                id="empty-covering",
            ),
            pytest.param(
                ONE_BLOCK,
                None,
                ["approx", "S", "--set", "{a,,}"],
                "empty label in set literal",
                id="empty-label-in-set-literal",
            ),
        ],
    )
    def test_malformed_input_exit_two_with_one_json_error(
        self, capsys, tmp_path, structure, family, argv, message
    ):
        # S and F in argv stand for the structure and family files
        files = {"S": structure, "F": family}
        for name, payload in files.items():
            (tmp_path / name).write_text(json.dumps(payload))
        code, out, err = run(capsys, *(str(tmp_path / a) if a in files else a for a in argv))
        assert code == 2
        assert out == ""
        (error,) = json_objects(err)
        assert message in error["error"]["message"]

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


class TestInputBounds:
    """Structure and family files are read up to a byte bound, and a
    universe holds a bounded number of labels.  The bounds are patched low
    here, so no test allocates anything near the real ones."""

    def test_a_file_past_the_byte_bound_exit_two(self, capsys, monkeypatch):
        structure, family = fx("cov_mixed4.json"), fx("fam_mixed4_pass.json")
        size = os.path.getsize(structure)
        monkeypatch.setattr(fileio, "MAX_INPUT_BYTES", size)
        assert run(capsys, "neighborhoods", structure)[0] == 0
        monkeypatch.setattr(fileio, "MAX_INPUT_BYTES", size - 1)
        for argv in (
            ["neighborhoods", structure],
            ["check", "rough-cov", structure, family],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert out == ""
            error = json.loads(err)["error"]
            assert error["type"] == "InputFormatError"
            assert f"exceeds the bound of {size - 1} bytes" in error["message"]

    def test_the_byte_bound_applies_to_family_files(self, capsys, monkeypatch):
        structure, family = fx("cov_mixed4.json"), fx("fam_mixed4_pass.json")
        monkeypatch.setattr(fileio, "MAX_INPUT_BYTES", os.path.getsize(structure))
        assert os.path.getsize(family) < os.path.getsize(structure)
        assert run(capsys, "check", "rough-cov", structure, family)[0] == 0
        monkeypatch.setattr(fileio, "MAX_INPUT_BYTES", os.path.getsize(family) - 1)
        code, _, err = run(capsys, "ci3prime", fx("cov_sum_left.json"), family)
        assert code == 2
        assert "exceeds the bound" in json.loads(err)["error"]["message"]

    def test_only_the_bound_is_read(self, capsys, tmp_path, monkeypatch):
        # valid JSON up to the bound, garbage after it: the bound decides
        head = b'{"universe": ["a"], "covering": [["a"]]}'
        long = tmp_path / "long.json"
        long.write_bytes(head + b" \xff{" * 20)
        monkeypatch.setattr(fileio, "MAX_INPUT_BYTES", len(head) + 10)
        code, _, err = run(capsys, "neighborhoods", str(long))
        assert code == 2
        assert "exceeds the bound" in json.loads(err)["error"]["message"]

    def test_a_universe_past_the_label_bound_exit_two(self, capsys, monkeypatch):
        monkeypatch.setattr(fileio, "MAX_LABELS", 4)
        assert run(capsys, "neighborhoods", fx("cov_mixed4.json"))[0] == 0
        monkeypatch.setattr(fileio, "MAX_LABELS", 3)
        for argv in (
            ["neighborhoods", fx("cov_mixed4.json")],
            ["check", "rough-cov", fx("cov_chain3.json"), fx("fam_mixed4_pass.json")],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert out == ""
            error = json.loads(err)["error"]
            assert error["type"] == "InputFormatError"
            assert "4 labels exceed the bound of 3" in error["message"]

    def test_every_fixture_fits_the_bounds(self):
        for path in sorted(FIXTURES.glob("*.json")):
            assert path.stat().st_size <= fileio.MAX_INPUT_BYTES
            payload = json.loads(path.read_text(encoding="utf-8"))
            assert len(payload.get("universe", ())) <= fileio.MAX_LABELS

    def test_the_largest_benchmark_inputs_fit_the_bounds(self):
        # the cli benchmark writes coverings with 14 to 16 elements
        from roughmatroids import random_covering

        for seed in range(20):
            covering = random_covering(16, 0.3, seed)
            text = dumps(fileio.covering_payload(covering))
            assert len(text.encode()) <= fileio.MAX_INPUT_BYTES
        assert 16 < fileio.MAX_LABELS


LABEL = st.sampled_from(["a", "b", "c", "d", "x y", "", "\u00e9", "{", ","])
LABELS = st.lists(LABEL, max_size=5)
JSON_LEAF = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), LABEL)
PAYLOAD_VALUE = st.one_of(
    JSON_LEAF,
    LABELS,
    st.lists(LABELS, max_size=5),
    st.lists(st.lists(JSON_LEAF, max_size=3), max_size=4),
)
STRUCTURE = st.fixed_dictionaries(
    {"universe": st.one_of(LABELS, JSON_LEAF)},
    optional={"covering": PAYLOAD_VALUE, "relation": PAYLOAD_VALUE, "family": PAYLOAD_VALUE},
)


@st.composite
def well_formed(draw):
    """A structure that is also a family file, mostly valid: blocks and
    members over the universe (now and then an unknown label), the whole
    universe as a block to cover it, and the empty set among the members."""
    labels = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True))
    subsets = st.lists(st.sampled_from(labels), max_size=4, unique=True) | st.just(["z"])
    payload = {"universe": labels, "family": [[]] + draw(st.lists(subsets, max_size=5))}
    if draw(st.booleans()):
        payload["covering"] = draw(st.lists(subsets, max_size=4)) + [labels]
    else:
        pair = st.lists(st.sampled_from(labels), min_size=2, max_size=2)
        payload["relation"] = draw(st.lists(pair, max_size=8))
    return json.dumps(payload)


# well-formed files half the time
FILE_TEXT = st.one_of(
    well_formed(),
    well_formed(),
    STRUCTURE.map(json.dumps),
    st.text(alphabet='{}[]",: abc\\u0\n', max_size=40),
)
SET_LITERAL = st.one_of(
    st.text(alphabet="{}, abcdx", max_size=12),
    st.one_of(LABELS, st.lists(st.sampled_from("abcd"), max_size=3, unique=True)).map(
        lambda labels: "{" + ",".join(labels) + "}"
    ),
)
COMMANDS = st.sampled_from(
    [
        ["neighborhoods", "S"],
        ["approx", "S", "--set", "L"],
        ["definable", "S"],
        ["definable", "S", "--set", "L"],
        ["lattice", "S"],
        ["check", "rough-cov", "S", "F"],
        ["check", "matroid", "S", "F"],
        ["check", "lower-rel", "S", "F"],
        ["ci3prime", "S", "F"],
        ["extension-check", "S", "--d1", "L", "--d2", "L", "--element", "a"],
        ["cross-check", "S", "--seed", "0"],
    ]
)


@settings(max_examples=150, deadline=None)
@given(
    command=COMMANDS,
    structure=FILE_TEXT,
    family=st.none() | FILE_TEXT,
    literal=SET_LITERAL,
)
def test_fuzzed_inputs_exit_cleanly_with_json_stderr(command, structure, family, literal):
    # with no family drawn the structure file is read as the family file too
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"S": Path(tmp) / "s.json", "F": Path(tmp) / "f.json"}
        paths["S"].write_text(structure, encoding="utf-8")
        paths["F"].write_text(structure if family is None else family, encoding="utf-8")
        argv = [str(paths[a]) if a in paths else literal if a == "L" else a for a in command]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    for value in json_objects(err.getvalue()):
        assert set(value) <= {"error", "warning"} and len(value) == 1
    if code == 2:
        assert json_objects(err.getvalue())
