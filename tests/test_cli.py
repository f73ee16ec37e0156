"""The ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import build_parser, main


class TestRewriteCommand:
    def test_rewrites_q3(self, capsys):
        sql = (
            "SELECT o_orderkey FROM orders WHERE NOT EXISTS "
            "(SELECT * FROM lineitem WHERE l_orderkey = o_orderkey "
            "AND l_suppkey <> $supp_key)"
        )
        assert main(["rewrite", sql]) == 0
        out = capsys.readouterr().out
        assert "l_suppkey IS NULL" in out

    def test_split_option(self, capsys):
        sql = (
            "SELECT c_custkey FROM customer WHERE NOT EXISTS "
            "(SELECT * FROM orders WHERE o_custkey = c_custkey)"
        )
        assert main(["rewrite", "--split", "never", sql]) == 0
        out = capsys.readouterr().out
        assert out.count("NOT EXISTS") == 1

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("SELECT o_orderkey FROM orders"))
        assert main(["rewrite"]) == 0
        assert "SELECT" in capsys.readouterr().out


class TestExplainCommand:
    def test_named_query(self, capsys):
        assert main(["explain", "Q3", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "cost" in out and "orders" in out

    def test_ad_hoc_sql(self, capsys):
        assert main(["explain", "SELECT o_orderkey FROM orders", "--scale", "0.05"]) == 0
        assert "scan orders" in capsys.readouterr().out

    def test_unknown_table_exits_2(self, capsys):
        # An EngineError is a usage error (exit 2), never a traceback
        # with exit 1, which ``lint`` reserves for "unsound".
        assert main(["explain", "SELECT x FROM nope", "--scale", "0.01"]) == 2
        captured = capsys.readouterr()
        assert "error: unknown table 'nope'" in captured.err
        assert captured.out == ""


class TestLintCommand:
    def test_unsound_named_query_exits_1(self, capsys):
        assert main(["lint", "Q1"]) == 1
        out = capsys.readouterr().out
        assert "verdict: UNSOUND" in out
        assert "SA101" in out

    def test_rewritten_query_exits_0(self, capsys):
        assert main(["lint", "Q3+"]) == 0
        out = capsys.readouterr().out
        assert "verdict: suspect" in out

    def test_exit_code_is_worst_across_queries(self, capsys):
        assert main(["lint", "Q3+", "Q1"]) == 1

    def test_json_format(self, capsys):
        import json

        assert main(["lint", "Q1", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "unsound"
        assert any(d["rule"] == "SA101" for d in payload["diagnostics"])

    def test_json_format_multiple_queries(self, capsys):
        import json

        assert main(["lint", "Q1", "Q3+", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and len(payload) == 2

    def test_literal_sql(self, capsys):
        sql = (
            "SELECT o_orderkey FROM orders WHERE NOT EXISTS "
            "(SELECT * FROM lineitem WHERE l_suppkey <> $k)"
        )
        assert main(["lint", sql]) == 1
        assert "SA101" in capsys.readouterr().out

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("SELECT o_orderkey FROM orders"))
        assert main(["lint"]) == 0
        assert "certified" in capsys.readouterr().out

    def test_syntax_error_exits_2(self, capsys):
        assert main(["lint", "SELEC oops"]) == 2
        assert capsys.readouterr().err


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("figure1", "figure4", "table1", "section5", "recall",
                        "rewrite", "explain", "lint"):
            assert command in text

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_option_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["lint", "Q1", "--no-such-flag"])
        assert exc.value.code == 2

    def test_bad_format_choice_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["lint", "Q1", "--format", "yaml"])
        assert exc.value.code == 2
