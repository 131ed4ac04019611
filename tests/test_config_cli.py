"""Config parsing and the command-line interface."""

import argparse
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from divgraph import cli
from divgraph.config import parse_config
from divgraph.connectivity import weak_components
from divgraph.errors import ParseError, UnknownModelKind
from divgraph.graph import DivGraph, build_graph
from divgraph.models.base import WindowSpec
from divgraph.reports import crosscheck_graph
from divgraph.values import Vec

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def run_cli(*args, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "divgraph.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
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

    def test_topology_pair_outside_the_window(self):
        r = run_cli(
            "topology",
            "--config",
            str(CONFIG_DIR / "zxq_orders.cfg"),
            "--pair",
            "x",
            "x^9",
        )
        assert r.returncode == 2
        assert "error:" in r.stderr and "'x^9'" in r.stderr
        assert r.stdout == ""

    def test_bound_is_not_a_flag(self):
        cfg = str(CONFIG_DIR / "dvr_chain.cfg")
        for command in ("graph", "check"):
            r = run_cli(command, "--config", cfg, "--bound", "3")
            assert r.returncode == 2 and "--bound" in r.stderr

    def test_non_positive_bounds_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text((CONFIG_DIR / "dvr_chain.cfg").read_text() + "bound search_bound 0\n")
        r = run_cli("check", "--config", str(bad))
        assert r.returncode == 2
        assert "error:" in r.stderr and "search_bound" in r.stderr

    @pytest.mark.parametrize(
        "config,line,name",
        [
            ("numerical_2_3.cfg", "bound k_max 3", "k_max"),
            ("numerical_2_3.cfg", "flag include_fractionl true", "include_fractionl"),
            ("numerical_2_3.cfg", "element 1 1", "element"),
            ("numerical_2_3.cfg", "atom 1 1", "atom"),
            ("d2.cfg", "generator 5", "generator"),
            ("d2.cfg", "bound degree_cap 4", "degree_cap"),
        ],
    )
    def test_directive_the_kind_does_not_read_is_rejected(
        self, tmp_path, capsys, config, line, name
    ):
        text = (CONFIG_DIR / config).read_text()
        bad = tmp_path / "bad.cfg"
        bad.write_text(text + line + "\n")
        assert cli.main(["graph", "--config", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"error: line {len(text.splitlines()) + 1}: " in err
        assert name in err

    @pytest.mark.parametrize(
        "text,line,first,key",
        [
            (
                "kind dvr\nbound max_exponent 3\n# again\nbound max_exponent 5\n"
                "flag include_fractional true\nflag include_fractional false\n",
                4, 2, "bound max_exponent",
            ),
            (
                "kind dvr\nbound max_exponent 3\nflag include_fractional true\n"
                "flag include_fractional false\n",
                4, 3, "flag include_fractional",
            ),
            ("kind dvr\nbound max_exponent 3\nkind dvr\n", 3, 1, "kind"),
        ],
        ids=["bound", "flag", "kind"],
    )
    def test_repeated_directive_is_rejected(self, tmp_path, capsys, text, line, first, key):
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        assert cli.main(["graph", "--config", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"error: line {line}: '{key}' is repeated from line {first}" in err

    @pytest.mark.parametrize("row", ["0", "0 0"])
    @pytest.mark.parametrize("command", ["graph", "classify"])
    def test_zero_zxq_element_is_rejected(self, tmp_path, capsys, command, row):
        # the zero polynomial names no class; it once escaped as ZeroDivisionError
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"kind zxq\nelement 1 1\nelement {row}\n")
        assert cli.main([command, "--config", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"window element row '{row}' is zero" in err

    def test_accumulating_directives_repeat(self):
        cfg = parse_config("kind zxq\nelement 2\nelement 3\natom 1 1 1\natom 1 0 1\n")
        assert len(cfg.elements) == 2 and len(cfg.declared_atoms) == 2
        cfg = parse_config("kind numerical-monoid\ngenerator 2\ngenerator 3 5\n")
        assert cfg.generators == (2, 3, 5)

    def test_check_runs_the_oracle_with_the_bound_given(self, tmp_path, monkeypatch, capsys):
        bounds = []

        def recording(graph, oracle_bound):
            bounds.append(oracle_bound)
            return {"ok": True}

        monkeypatch.setattr(cli, "crosscheck_graph", recording)
        cfg = CONFIG_DIR / "dvr_chain.cfg"
        low = tmp_path / "low.cfg"
        low.write_text(cfg.read_text() + "bound search_bound 9\n")
        assert cli.main(["check", "--config", str(cfg)]) == 0
        assert cli.main(["check", "--config", str(low)]) == 0
        capsys.readouterr()
        # None leaves the bound to crosscheck_graph: the window size
        assert bounds == [None, 9]

    def test_check_bounds_the_oracle_by_the_window_by_default(self, tmp_path):
        # every factorization of a vertex that does not escape runs through
        # distinct window elements, so the window size bounds them all
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("kind numerical-monoid\ngenerator 2 3\nbound max_value 80\n")
        report = json.loads(run_cli("check", "--config", str(cfg)).stdout)
        assert report["vertex_count"] == 79
        assert "skipped_oracle_bound" not in report and report["ok"] is True

    def test_check_lists_vertices_past_the_oracle_bound(self, tmp_path):
        cfg = CONFIG_DIR / "numerical_2_3.cfg"
        low = tmp_path / "low.cfg"
        low.write_text(cfg.read_text() + "bound search_bound 2\n")
        r = run_cli("check", "--config", str(low))
        skipped = json.loads(r.stdout)["skipped_oracle_bound"]
        # 6 = 2+2+2 is the smallest value with a factorization of 3 atoms
        assert "6" in skipped and "40" in skipped
        assert "4" not in skipped and "5" not in skipped
        assert "skipped_oracle_bound" not in json.loads(
            run_cli("check", "--config", str(cfg)).stdout
        )

    def test_check_refuses_an_oversized_window_before_building(
        self, tmp_path, monkeypatch, capsys
    ):
        builds = []

        def counting(model, window):
            builds.append(window)
            return build_graph(model, window)

        monkeypatch.setattr(cli, "build_graph", counting)
        cfg = tmp_path / "big.cfg"
        # <2,3> holds every value from 2 on, so the window is 2..502
        cfg.write_text("kind numerical-monoid\ngenerator 2 3\nbound max_value 502\n")
        assert cli.main(["check", "--config", str(cfg)]) == 2
        assert "limited to 500 vertices" in capsys.readouterr().err
        assert builds == []

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

    def test_main_builds_the_parser_once(self, monkeypatch, capsys):
        built = []

        class Counting(argparse.ArgumentParser):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("prog"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "argparse", SimpleNamespace(ArgumentParser=Counting))
        cli._parser.cache_clear()
        cfg = str(CONFIG_DIR / "dvr_chain.cfg")
        try:
            assert cli.main(["graph", "--config", cfg]) == 0
            once = len(built)
            assert cli.main(["classify", "--config", cfg]) == 0
        finally:
            cli._parser.cache_clear()
        capsys.readouterr()
        # one parser and its subparsers, all from the first call
        assert built.count("divgraph") == 1 and len(built) == once

    def test_check_builds_atom_subgroup_once(self, monkeypatch, capsys):
        from divgraph import lattices

        original = lattices.column_echelon
        calls = []

        def counting(rows):
            calls.append(rows)
            return original(rows)

        monkeypatch.setattr(lattices, "column_echelon", counting)
        assert cli.main(["check", "--config", str(CONFIG_DIR / "d2.cfg")]) == 0
        assert json.loads(capsys.readouterr().out)["ok"]
        assert len(calls) == 1

    def test_declared_atom_closes_the_window(self, tmp_path, capsys):
        # the declared quartic atom is split out everywhere, so nothing in
        # the window escapes and its factorizations are complete
        cfg = tmp_path / "declared.cfg"
        cfg.write_text(
            "kind zxq\nbound degree_cap 5\natom 1 1 0 0 1\n"
            "element 1 1 0 0 1\nelement 2\nelement 2 2 0 0 2\n"
        )
        assert cli.main(["classify", "--config", str(cfg)]) == 0
        verdicts = json.loads(capsys.readouterr().out)["verdicts"]
        for name in ("ACCP", "BFD", "FFD", "HFD"):
            assert verdicts[name]["status"] == "Holds", name
        assert cli.main(["graph", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["boundary"] == []

    def test_graph_on_a_large_prime_constant_finishes(self, tmp_path):
        # 10^18 + 3 is prime: splitting it by trial division took minutes
        cfg = tmp_path / "large.cfg"
        cfg.write_text("kind zxq\nbound degree_cap 3\nelement 1000000000000000003\nelement 2\n")
        r = run_cli("graph", "--config", str(cfg), timeout=30)
        assert r.returncode == 0, r.stderr
        report = json.loads(r.stdout)
        assert report["sinks"] == ["1000000000000000003", "2"]
        assert report["boundary"] == []

    def test_graph_on_a_large_constant_term_finishes(self, tmp_path):
        # the rational root test listed the divisors of 10^18 + 3 by trial
        # division up to its square root, which took minutes
        cfg = tmp_path / "large_root.cfg"
        cfg.write_text("kind zxq\nbound degree_cap 3\nelement 1000000000000000003 1\nelement 2\n")
        r = run_cli("graph", "--config", str(cfg), timeout=10)
        assert r.returncode == 0, r.stderr
        report = json.loads(r.stdout)
        # (10^18 + 3)(1 + x/(10^18 + 3)): both atom quotients leave the window
        assert report["boundary"] == ["1000000000000000003+x"]
        assert report["sinks"] == ["2"]

    def test_graph_on_an_unsplit_composite_constant_finishes(self, tmp_path):
        # a product of two 21-digit primes: without a step budget, Pollard
        # rho needs about 10^10 steps to split it
        cfg = tmp_path / "semiprime.cfg"
        n = 100000000000000000039 * 200000000000000000089
        cfg.write_text(f"kind zxq\nbound degree_cap 3\nelement {n}\nelement 2\n")
        r = run_cli("graph", "--config", str(cfg), timeout=30)
        assert r.returncode == 2 and "Pollard rho" in r.stderr, r.stderr
        assert r.stdout == ""

    def test_graph_dot_on_an_unsplit_zxq_vertex_with_successors(self, tmp_path, capsys):
        # (1+x)^2 (1+x+x^2) has degree 4 > the cap, so is_atom cannot split
        # it; its edge to (1+x)(1+x+x^2), an integral non-unit, already says
        # it is no atom, so the .dot asks nothing more than the graph report
        cfg = tmp_path / "unsplit.cfg"
        cfg.write_text(
            "kind zxq\nbound degree_cap 3\n"
            "element 1 3 4 3 1\nelement 1 2 2 1\nelement 1 1\nelement 1 1 1\n"
        )
        assert cli.main(["graph", "--dot", "--config", str(cfg)]) == 0
        dot = capsys.readouterr().out
        assert '  "1+3x+4x^2+3x^3+x^4" [style=dashed];\n' in dot
        assert '  "1+x" [shape=doublecircle];\n' in dot

    def test_components_on_a_zxq_window_whose_only_sink_is_unsplit(self, tmp_path, capsys):
        # the components read the edges only, so they never ask is_atom;
        # graph must ask it of the sink, and cannot answer
        cfg = tmp_path / "unsplit_sink.cfg"
        cfg.write_text("kind zxq\nbound degree_cap 3\nelement 1 3 4 3 1\n")
        assert cli.main(["components", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["component_count"] == 1
        assert cli.main(["graph", "--config", str(cfg)]) == 2

    def test_check_all_bundled_configs_clean(self):
        for cfg in sorted(CONFIG_DIR.glob("*.cfg")):
            r = run_cli("check", "--config", str(cfg), "--assert")
            assert r.returncode == 0, cfg.name


class TestTamperedGraph:
    def test_crosscheck_detects_missing_edge(self):
        from divgraph.models import NumericalMonoidModel

        m = NumericalMonoidModel((2, 3))
        w = m.enumerate_window(WindowSpec({"max_value": 10}))
        g = build_graph(m, w)
        assert crosscheck_graph(g)["ok"]
        tampered = DivGraph(m, g.vertices, g.edges[:-2], g.atoms[:-2], g.boundary)
        report = crosscheck_graph(tampered)
        assert not report["ok"]
        kinds = {d["kind"] for d in report["disagreements"]}
        assert "factorization" in kinds

    def test_crosscheck_detects_a_factorization_the_oracle_lacks(self, monkeypatch):
        from divgraph.models import NumericalMonoidModel

        m = NumericalMonoidModel((2, 3))
        g = build_graph(m, m.enumerate_window(WindowSpec({"max_value": 10})))
        # an oracle that takes 4 for a non-member misses 6 = 2 + 2 + 2, which
        # the graph's paths still spell
        contains = m.contains_value
        monkeypatch.setattr(m, "contains_value", lambda v: v != Vec((4,)) and contains(v))
        report = crosscheck_graph(g)
        found = {d["vertex"]: d for d in report["disagreements"] if d["kind"] == "factorization"}
        assert found["6"]["path_based"] == [["2", "2", "2"], ["3", "3"]]
        assert found["6"]["oracle"] == [["3", "3"]]

    def test_crosscheck_compares_atomic_elements_with_the_oracle(self, monkeypatch):
        from divgraph.models import NumericalMonoidModel

        m = NumericalMonoidModel((2, 3))
        g = build_graph(m, m.enumerate_window(WindowSpec({"max_value": 10})))
        assert crosscheck_graph(g)["ok"]
        # the graph, the order and the oracle never ask this predicate
        is_atomic = m.is_atomic_element
        monkeypatch.setattr(m, "is_atomic_element", lambda e: is_atomic(e) != (e.label == "4"))
        report = crosscheck_graph(g)
        assert not report["ok"]
        assert report["disagreements"] == [
            {"kind": "atomic_element", "vertex": "4", "is_atomic_element": False}
        ]

    def test_crosscheck_detects_a_vertex_off_its_components_coset(self, monkeypatch):
        from divgraph.models import D1Model

        m = D1Model()
        bounds = {"k_max": 3, "den_max": 3, "alpha_max": 1}
        g = build_graph(m, m.enumerate_window(WindowSpec(bounds)))
        assert crosscheck_graph(g)["ok"]
        rep, moved = next(c for c in weak_components(g) if len(c) > 1)[:2]
        conn_value = m.conn_value

        def shifted(e):
            # off the atom subgroup, which has no rational part
            v = conn_value(e)
            return Vec(v.ints, v.rat + Fraction(1, 2)) if e.label == moved else v

        monkeypatch.setattr(m, "conn_value", shifted)
        report = crosscheck_graph(g)
        assert not report["ok"]
        spans = [d for d in report["disagreements"] if d["kind"] == "component_spans_cosets"]
        assert [d["pair"] for d in spans] == [[moved, rep]]
