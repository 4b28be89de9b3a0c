"""Command-line interface: outputs, exit codes, and flag handling."""

import json
from pathlib import Path

import pytest

from snakeword.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_counts_agree(self, capsys):
        code, out, _ = run(capsys, "analyze", "10010111")
        assert code == 0
        assert "subwords: 32" in out
        assert "antichains: 32" in out
        assert "order filters: 32" in out
        assert "perfect matchings: 32" in out
        assert "counts agree: yes" in out
        assert "blocks: 1^1 0^2 1^1 0^1 1^3 (M=5)" in out

    def test_trivial_word(self, capsys):
        code, out, _ = run(capsys, "analyze", "1")
        assert code == 0
        assert "subwords: 2" in out


class TestCount:
    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "count", "101110")
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "word": "101110",
            "subwords": 16,
            "antichains": 16,
            "order_filters": 16,
            "perfect_matchings": 16,
            "agree": True,
        }


class TestMap:
    def test_inverse_direction(self, capsys):
        code, out, _ = run(capsys, "map", "1011101100", "finv", "11010")
        assert code == 0
        assert json.loads(out)["antichain"] == [1, 3, 7, 9]

    def test_forward_direction(self, capsys):
        code, out, _ = run(capsys, "map", "1011101100", "f", "4,10")
        assert code == 0
        assert json.loads(out)["subword"] == "101101100"

    def test_forward_empty_antichain(self, capsys):
        code, out, _ = run(capsys, "map", "1011101100", "f", "")
        assert code == 0
        assert json.loads(out)["subword"] == ""

    def test_matching_direction(self, capsys):
        code, out, _ = run(capsys, "map", "1011101100", "pm", "101101100")
        assert code == 0
        payload = json.loads(out)
        assert payload["fil_blocks"] == [[4, 5], [8, 9, 10]]
        assert payload["fil_tiles"] == [4, 5, 8, 9, 10]
        assert len(payload["matching"]) == 11

    def test_record_direction(self, capsys):
        code, out, _ = run(capsys, "map", "1011101100", "record", "11010")
        assert code == 0
        payload = json.loads(out)
        assert payload["antichain"] == [1, 3, 7, 9]
        assert payload["order_filter"] == [1, 3, 4, 5, 7, 8, 9]

    def test_rejects_bad_antichain(self, capsys):
        code, _, err = run(capsys, "map", "101110", "f", "2,4")
        assert code == 2
        assert "error" in err

    def test_rejects_malformed_operand(self, capsys):
        code, _, err = run(capsys, "map", "101110", "f", "2;4")
        assert code == 2


class TestRender:
    def test_output_file_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "hasse.dot"
        code, _, _ = run(capsys, "render", "101110", "--kind", "hasse", "-o", str(target))
        assert code == 0
        code, out, _ = run(capsys, "render", "101110", "--kind", "hasse")
        assert target.read_text(encoding="utf-8") == out

    def test_golden_via_cli(self, capsys):
        code, out, _ = run(
            capsys, "render", "10010111", "--kind", "antichain-trie", "--format", "dot"
        )
        assert code == 0
        assert out == (GOLDEN / "antichain_trie_10010111.dot").read_text(encoding="utf-8")

    def test_default_formats(self, capsys):
        code, out, _ = run(capsys, "render", "101", "--kind", "snake")
        assert code == 0
        assert out.startswith("graph snake")  # dot is the snake default
        code, out, _ = run(capsys, "render", "101", "--kind", "subword-trie")
        assert out.startswith("digraph subword_trie")

    def test_rejects_bad_combination(self, capsys):
        code, _, err = run(
            capsys, "render", "101", "--kind", "hasse", "--format", "svg"
        )
        assert code == 2
        code, _, err = run(
            capsys, "render", "101", "--kind", "hasse", "--matching", "1"
        )
        assert code == 2

    def test_snake_with_matching(self, capsys):
        code, out, _ = run(
            capsys,
            "render",
            "1011101100",
            "--kind",
            "snake",
            "--format",
            "json",
            "--matching",
            "11010",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["fil_tiles"] == [1, 3, 4, 5, 7, 8, 9]
        assert len(payload["matching"]) == 11


class TestErrors:
    def test_leading_zero_word(self, capsys):
        code, _, err = run(capsys, "analyze", "0101")
        assert code == 2
        assert "error" in err

    def test_cap_flag(self, capsys):
        code, _, err = run(capsys, "count", "101110", "--cap", "4")
        assert code == 2
        assert "cap" in err

    def test_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SNAKEWORD_CAP", "4")
        code, _, _ = run(capsys, "count", "101110")
        assert code == 2
        # the flag wins over the environment
        code, _, _ = run(capsys, "count", "101110", "--cap", "20")
        assert code == 0

    def test_cap_boundary(self, capsys, monkeypatch):
        """The default cap admits d=20 and refuses d=21 in one line."""
        monkeypatch.delenv("SNAKEWORD_CAP", raising=False)
        code, out, _ = run(capsys, "count", "10" * 10)
        assert code == 0
        counts = json.loads(out)
        assert counts.pop("agree") is True
        assert counts == {
            "word": "10" * 10,
            "subwords": 17711,
            "antichains": 17711,
            "order_filters": 17711,
            "perfect_matchings": 17711,
        }
        code, out, err = run(capsys, "count", "10" * 10 + "1")
        assert code == 2
        assert out == ""
        assert err == "error: word length 21 exceeds the oracle cap 20\n"

    def test_cap_env_not_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("SNAKEWORD_CAP", "abc")
        code, out, err = run(capsys, "count", "101")
        assert code == 2
        assert out == ""
        assert err.startswith("error: SNAKEWORD_CAP") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", ""],
            ["count", ""],
            ["render", "", "--kind", "hasse"],
            ["render", "", "--kind", "snake", "--matching", ""],
            ["map", "", "f", ""],
            ["map", "", "finv", ""],
            ["map", "", "pm", "1"],
            ["map", "", "record", ""],
            ["verify", "--word", ""],
        ],
    )
    def test_empty_host_word(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: the host word must be nonempty, got ''\n"


class TestVerify:
    def test_single_word(self, capsys):
        code, out, _ = run(capsys, "verify", "--word", "10010111")
        assert code == 0
        assert "bijection-roundtrip: pass" in out
        assert "1 word(s) checked" in out

    def test_sweep_with_report(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "verify",
            "--max-length",
            "4",
            "--json-report",
            str(report_path),
        )
        assert code == 0
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["passed"] is True
        assert report["words_checked"] == 15
        assert report["max_length"] == 4
        names = {check["name"] for check in report["checks"]}
        assert "pm-bijection" in names and "trie-equivalence" in names
        assert all(check["passed"] for check in report["checks"])
        for check in report["checks"]:
            assert isinstance(check["elapsed_seconds"], float), check
            assert check["elapsed_seconds"] >= 0, check

    def test_guard(self, capsys):
        code, _, err = run(capsys, "verify", "--max-length", "13")
        assert code == 2
        assert "--force" in err

    @pytest.mark.parametrize("bound", ["0", "-3"])
    def test_bound_below_one(self, capsys, bound):
        code, out, err = run(capsys, "verify", "--max-length", bound)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --max-length")
