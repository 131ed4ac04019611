"""Config parsing and the command-line interface."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from divgraph import cli
from divgraph.config import parse_config
from divgraph.errors import ParseError, UnknownModelKind
from divgraph.graph import DivGraph, build_graph
from divgraph.models.base import WindowSpec
from divgraph.reports import crosscheck_graph

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "divgraph.cli", *args],
        capture_output=True,
        text=True,
    )


class TestParser:
    def test_round_trip(self):
        cfg = parse_config(
            """
            # a comment
            kind numerical-monoid
            generator 2 3
            bound max_value 12   # trailing comment
            bound search_bound 9
            flag include_fractional false
            """
        )
        assert cfg.kind == "numerical-monoid"
        assert cfg.generators == (2, 3)
        assert cfg.bounds["max_value"] == 12
        assert cfg.search_bound == 9
        model, spec = cfg.build()
        assert model.id == "numerical-monoid<2,3>"
        assert spec.bounds == {"max_value": 12}

    def test_zxq_elements_parse_rationals(self):
        cfg = parse_config("kind zxq\nelement 0 1/2\nelement 2\n")
        model, spec = cfg.build()
        w = model.enumerate_window(spec)
        assert sorted(e.label for e in w) == ["(1/2)x", "2"]

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("bound max_value 3\n", "missing a kind"),
            ("kind dvr\nkind dvr\n", "line 2"),
            ("kind dvr\nbound max_exponent ten\n", "not an integer"),
            ("kind zxq\nelement 1/0\n", "not an exact rational"),
            ("kind dvr\nwibble 3\n", "unknown directive"),
            ("kind dvr\nflag include_fractional maybe\n", "true|false"),
        ],
    )
    def test_errors_carry_line_numbers(self, text, fragment):
        with pytest.raises(ParseError) as exc:
            parse_config(text)
        assert fragment in str(exc.value)

    def test_unknown_kind(self):
        with pytest.raises(UnknownModelKind):
            parse_config("kind frobnicate\n").build()


class TestCLI:
    def test_deterministic_output(self):
        cfg = str(CONFIG_DIR / "numerical_2_3.cfg")
        a = run_cli("classify", "--config", cfg)
        b = run_cli("classify", "--config", cfg)
        assert a.returncode == 0
        assert a.stdout == b.stdout  # byte-identical
        json.loads(a.stdout)  # and valid JSON

    def test_timing_on_stderr_only(self):
        cfg = str(CONFIG_DIR / "dvr_chain.cfg")
        r = run_cli("graph", "--config", cfg)
        assert "s" in r.stderr and "[graph]" in r.stderr
        json.loads(r.stdout)

    def test_assert_mode_passes_on_holds(self):
        r = run_cli("classify", "--config", str(CONFIG_DIR / "dvr_chain.cfg"), "--assert")
        assert r.returncode == 0

    def test_assert_mode_fails_on_fails(self):
        r = run_cli(
            "classify", "--config", str(CONFIG_DIR / "antimatter.cfg"), "--assert"
        )
        assert r.returncode == 1

    def test_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("kind dvr\nbound max_exponent -3\n")
        r = run_cli("graph", "--config", str(bad))
        assert r.returncode == 2
        assert "error:" in r.stderr

    def test_out_directory_and_dot(self, tmp_path):
        cfg = str(CONFIG_DIR / "dvr_chain.cfg")
        r = run_cli("graph", "--config", cfg, "--out", str(tmp_path), "--dot")
        assert r.returncode == 0
        assert (tmp_path / "graph.json").exists()
        dot = (tmp_path / "graph.dot").read_text()
        assert dot.startswith("digraph")
        assert '"pi^2" -> "pi";' in dot

    def test_topology_pair(self):
        r = run_cli(
            "topology",
            "--config",
            str(CONFIG_DIR / "zxq_orders.cfg"),
            "--pair",
            "x",
            "x^2",
        )
        report = json.loads(r.stdout)
        assert report["chain_connected_pair"]["chain_connected"] is False

    def test_graph_built_only_when_read(self, monkeypatch, capsys):
        cfg = str(CONFIG_DIR / "zxq_orders.cfg")

        def refuse(model, window):
            raise AssertionError("build_graph called by a report that never reads it")

        monkeypatch.setattr(cli, "build_graph", refuse)
        for command in ("topology", "atomicity"):
            assert cli.main([command, "--config", cfg]) == 0
            json.loads(capsys.readouterr().out)

        builds = []

        def counting(model, window):
            builds.append(window)
            return build_graph(model, window)

        monkeypatch.setattr(cli, "build_graph", counting)
        assert cli.main(["topology", "--config", cfg, "--dot"]) == 0
        out = capsys.readouterr().out
        assert '"x" -> "(1/2)x";' in out
        assert len(builds) == 1

    def test_check_all_bundled_configs_clean(self):
        for cfg in sorted(CONFIG_DIR.glob("*.cfg")):
            r = run_cli("check", "--config", str(cfg), "--assert")
            assert r.returncode == 0, cfg.name


class TestTamperedGraph:
    def test_crosscheck_detects_missing_edge(self):
        from divgraph.models import NumericalMonoidModel

        m = NumericalMonoidModel((2, 3))
        w = m.enumerate_window(WindowSpec(m.id, {"max_value": 10}))
        g = build_graph(m, w)
        assert crosscheck_graph(g)["ok"]
        tampered = DivGraph(m, g.vertices, g.edges[:-2], g.boundary)
        report = crosscheck_graph(tampered)
        assert not report["ok"]
        kinds = {d["kind"] for d in report["disagreements"]}
        assert "factorization" in kinds
