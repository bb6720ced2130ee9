"""Tests for the command-line interface, run in process."""

import copy
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from upoblab import __version__, cli
from upoblab.catalog import construct_by_name
from upoblab.cli import main
from upoblab.matrix import matrix_to_json
from upoblab.product import OperatorSet
from upoblab.unextend import (
    DEFAULT_BUDGET,
    DEFAULT_ITERS,
    DEFAULT_RESTARTS,
    DEFAULT_SEED,
)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestConstruct:
    def test_envelope(self, capsys):
        rc, out, _ = run(capsys, "construct", "--name", "u2")
        assert rc == 0
        obj = json.loads(out)
        assert obj["command"] == "construct"
        assert obj["inputs"]["name"] == "u2"
        assert len(obj["result"]["members"]) == 12

    def test_writes_file(self, tmp_path, capsys):
        path = tmp_path / "set.json"
        rc, _, _ = run(capsys, "construct", "--name", "qutrit-uuo", "--out", str(path))
        assert rc == 0
        obj = json.loads(path.read_text())
        assert len(obj["result"]["members"]) == 6

    def test_unknown_name(self, capsys):
        rc, _, err = run(capsys, "construct", "--name", "bogus")
        assert rc == 2
        assert "error" in err

    @pytest.mark.parametrize("name", ["nqubit:x", "weyl:abc"])
    def test_non_integer_parameter_exit_two(self, name, capsys):
        rc, _, err = run(capsys, "construct", "--name", name)
        assert rc == 2
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("name", ["nqubit:40", "weyl:100000", "lift:100000"])
    def test_oversized_family_exit_two_without_allocating(self, name, capsys):
        tracemalloc.start()
        try:
            rc, _, err = run(capsys, "construct", "--name", name)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert err.startswith("error:") and "Traceback" not in err
        assert "cap" in err
        assert peak < 1 << 20

    @pytest.mark.parametrize("name", ["u2", "example2"])
    def test_report_is_one_line(self, name, tmp_path, capsys):
        path = tmp_path / "set.json"
        rc, _, _ = run(capsys, "construct", "--name", name, "--out", str(path))
        assert rc == 0
        text = path.read_text()
        assert text.endswith("}\n") and text.count("\n") == 1
        # The indented report of earlier versions holds the same JSON value.
        indented = json.dumps(
            {
                "command": "construct",
                "inputs": {"name": name, "base": None},
                "tolerance": {"eps": 1e-9},
                "result": construct_by_name(name).to_json(),
                "version": __version__,
            },
            indent=2,
        )
        assert json.loads(text) == json.loads(indented)
        assert text == json.dumps(json.loads(indented)) + "\n"


class TestExport:
    def test_bare_operator_set(self, capsys):
        rc, out, _ = run(capsys, "export", "--set", "example2")
        assert rc == 0
        obj = json.loads(out)
        s = OperatorSet.from_json(obj)
        assert len(s) == 30


class TestVerify:
    def test_u2_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "u2.json"
        run(capsys, "construct", "--name", "u2", "--out", str(path))
        rc, out, _ = run(capsys, "verify", "--set", str(path))
        assert rc == 0
        obj = json.loads(out)
        assert "strongly-UPUOB" in obj["result"]["verdict_labels"]

    def test_example2_exit_zero_with_witness(self, tmp_path, capsys):
        path = tmp_path / "ex2.json"
        run(capsys, "export", "--set", "example2", "--out", str(path))
        rc, out, _ = run(capsys, "verify", "--set", str(path), "--restarts", "4",
                         "--iters", "50")
        assert rc == 0
        obj = json.loads(out)
        assert obj["result"]["verdict_labels"] == ["UPUOB-evidence"]
        assert obj["result"]["upob"]["status"] == "extendible"
        assert "witness" in obj["result"]["upob"]

    def test_tiny_extendible_exit_one(self, tmp_path, capsys):
        x = [[0, 1], [1, 0]]
        obj = {
            "shape": [[2, 2], [2, 2]],
            "members": [
                {
                    "label": "A",
                    "factors": [matrix_to_json(np.eye(2)), matrix_to_json(np.eye(2))],
                },
                {
                    "label": "B",
                    "factors": [matrix_to_json(x), matrix_to_json(x)],
                },
            ],
        }
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(obj))
        rc, out, _ = run(capsys, "verify", "--set", str(path), "--restarts", "4",
                         "--iters", "50")
        assert rc == 1
        report = json.loads(out)
        assert report["result"]["upob"]["status"] == "extendible"
        assert "witness" in report["result"]["upob"]

    def test_budget_exhaustion_exit_three(self, tmp_path, capsys):
        path = tmp_path / "u2.json"
        run(capsys, "construct", "--name", "u2", "--out", str(path))
        rc, out, _ = run(capsys, "verify", "--set", str(path), "--budget", "5")
        assert rc == 3
        assert json.loads(out)["result"]["upob"]["status"] == "unknown"

    def test_missing_file_exit_two(self, capsys):
        rc, _, err = run(capsys, "verify", "--set", "/does/not/exist.json")
        assert rc == 2
        assert "error" in err

    def test_malformed_json_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        rc, _, _ = run(capsys, "verify", "--set", str(path))
        assert rc == 2

    def test_directory_exit_two(self, tmp_path, capsys):
        rc, _, err = run(capsys, "verify", "--set", str(tmp_path))
        assert rc == 2
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "entries",
        [None, [["1", "0"]], [[1.0, 0.0, 2.0]]],
        ids=["top-level-list", "string-entries", "triples"],
    )
    def test_malformed_set_exit_two(self, entries, tmp_path, capsys):
        if entries is None:
            obj = [1, 2]
        else:
            factor = {"rows": 1, "cols": 1, "entries": entries}
            obj = {"shape": [[1, 1]], "members": [{"label": "a", "factors": [factor]}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        rc, _, err = run(capsys, "verify", "--set", str(path))
        assert rc == 2
        assert err.startswith("error:") and "Traceback" not in err


class TestVerifyMagnitudes:
    # Extendibility is unchanged by scaling a factor, so a set whose entries
    # square to overflow or underflow gets the verdict of its rescaled form.

    @staticmethod
    def verify(obj, tmp_path, capsys, name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, out, err = run(capsys, "verify", "--set", str(path))
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert rc in (0, 1), err
        result = json.loads(out)["result"]
        return rc, result["upob"]["status"], result["upob"]["nodes_explored"], result[
            "verdict_labels"
        ]

    @staticmethod
    def scaled_factor(obj, scale):
        obj = copy.deepcopy(obj)
        factor = obj["members"][0]["factors"][0]
        factor["entries"] = [[re * scale, im * scale] for re, im in factor["entries"]]
        return obj

    def test_entry_near_1e300(self, tmp_path, capsys):
        big = construct_by_name("u2").to_json()
        big["members"][0]["factors"][0]["entries"][0] = [1e300, 0.0]
        got = self.verify(big, tmp_path, capsys, "big")
        want = self.verify(self.scaled_factor(big, 1e-300), tmp_path, capsys, "rescaled")
        assert got == want

    def test_entries_near_1e_170(self, tmp_path, capsys):
        u2 = construct_by_name("u2").to_json()
        got = self.verify(self.scaled_factor(u2, 1e-170), tmp_path, capsys, "tiny")
        want = self.verify(u2, tmp_path, capsys, "u2")
        assert got == want
        assert want[1] == "unextendible"


class TestHeuristicSettings:
    """Settings under which the unitary search would run nothing, or could
    not be seeded, are usage errors, like a non-positive budget."""

    @pytest.mark.parametrize(
        "flag, value",
        [("--seed", "-1"), ("--restarts", "0"), ("--restarts", "-3"),
         ("--iters", "0"), ("--iters", "-1")],
    )
    def test_refused_exit_two(self, flag, value, tmp_path, capsys):
        path = tmp_path / "ex2.json"
        run(capsys, "export", "--set", "example2", "--out", str(path))
        rc, out, err = run(capsys, "verify", "--set", str(path), flag, value)
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err


class TestRemovedOptions:
    """Options that no command reads are not accepted."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("construct", "--name", "u2", "--seed", "5"),
            ("export", "--set", "u2", "--tol", "1e-6"),
            ("construct", "--name", "u2", "--tol", "1e-6"),
            ("export", "--set", "u2", "--seed", "5"),
            ("simulate", "--protocol", "three-ebit", "--seed", "1"),
        ],
        ids=["construct-seed", "export-tol", "construct-tol", "export-seed", "simulate-seed"],
    )
    def test_exit_two(self, argv, capsys):
        rc, out, _ = run(capsys, *argv)
        assert rc == 2
        assert out == ""


class TestSimulate:
    def test_three_ebit(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        rc, _, _ = run(capsys, "simulate", "--protocol", "three-ebit",
                       "--json", str(path))
        assert rc == 0
        obj = json.loads(path.read_text())
        assert obj["result"]["ebits_consumed"] == 3

    def test_nonlocality_evidence(self, capsys):
        rc, out, _ = run(capsys, "simulate", "--protocol", "nonlocality-evidence")
        assert rc == 0
        assert json.loads(out)["result"]["all_passed"]

    def test_tolerance_below_rounding_exit_two(self, capsys):
        # At eps = 1e-20 no replayed state is a product state, nor embeds in
        # C^3 x C^3 exactly enough: a refusal, not a crash.
        rc, _, err = run(capsys, "simulate", "--protocol", "three-ebit", "--tol", "1e-20")
        assert rc == 2
        assert err.startswith("error:") and "Traceback" not in err

    def test_unknown_protocol_exit_two(self, capsys):
        rc, _, err = run(capsys, "simulate", "--protocol", "bogus")
        assert rc == 2
        assert "unknown protocol" in err


class TestParser:
    @pytest.fixture
    def calls(self, monkeypatch):
        """The keyword arguments of every classify call the CLI makes."""
        seen = []
        real = cli.classify

        def recording(op_set, tol, **kwargs):
            seen.append(kwargs)
            return real(op_set, tol, **kwargs)

        monkeypatch.setattr(cli, "classify", recording)
        return seen

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_reused_parser_keeps_defaults(self, tmp_path, capsys, calls):
        path = tmp_path / "u2.json"
        run(capsys, "construct", "--name", "u2", "--out", str(path))
        defaults = {
            "budget": DEFAULT_BUDGET,
            "restarts": DEFAULT_RESTARTS,
            "iters": DEFAULT_ITERS,
            "seed": DEFAULT_SEED,
        }
        rc, out, _ = run(capsys, "verify", "--set", str(path), "--budget", "10")
        assert rc == 3
        assert json.loads(out)["inputs"]["budget"] == 10
        rc, out, _ = run(capsys, "verify", "--set", str(path))
        assert rc == 0
        assert json.loads(out)["inputs"]["budget"] == DEFAULT_BUDGET
        assert calls[-1] == defaults
        for flag, value in (("--restarts", 3), ("--iters", 7), ("--seed", 11)):
            rc, _, _ = run(capsys, "verify", "--set", str(path), flag, str(value))
            assert rc == 0
            assert calls[-1] == {**defaults, flag[2:]: value}
            rc, _, _ = run(capsys, "verify", "--set", str(path))
            assert rc == 0
            assert calls[-1] == defaults

    def test_construct_after_verify_gets_its_defaults(self, tmp_path, capsys):
        path = tmp_path / "u2.json"
        report = tmp_path / "report.json"
        run(capsys, "construct", "--name", "u2", "--out", str(path))
        rc, _, _ = run(capsys, "verify", "--set", str(path), "--tol", "1e-6",
                       "--seed", "5", "--json", str(report))
        assert rc == 0
        rc, out, _ = run(capsys, "construct", "--name", "u2")
        assert rc == 0
        obj = json.loads(out)  # printed, so --out is back to None
        assert obj["inputs"] == {"name": "u2", "base": None}
        assert obj["tolerance"] == {"eps": 1e-9}

    def test_no_subcommand_exit_two(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_subcommand_exit_two(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_version_exit_zero(self, capsys):
        rc, out, _ = run(capsys, "--version")
        assert rc == 0

    def test_round_trip_determinism(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(capsys, "export", "--set", "lift:2", "--out", str(a))
        run(capsys, "export", "--set", "lift:2", "--out", str(b))
        assert a.read_text() == b.read_text()
