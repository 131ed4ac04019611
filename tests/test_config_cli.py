"""Config parsing and the command-line interface."""

import argparse
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divgraph import cli
from divgraph.config import _fraction, parse_config
from divgraph.connectivity import weak_components
from divgraph.errors import ParseError, UnknownModelKind
from divgraph.graph import DivGraph, build_graph
from divgraph.models import KINDS
from divgraph.models.base import WindowSpec
from divgraph.reports import crosscheck_graph
from divgraph.values import Vec
from helpers import vec

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def run_cli(*args, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "divgraph.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def parses_as_fraction(tok: str):
    """`_fraction(tok)` is `Fraction(tok)` in value, or the same ParseError
    where `Fraction` refuses the token, on the running Python."""
    try:
        want = Fraction(tok)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ParseError) as exc:
            _fraction(tok, 3)
        assert str(exc.value) == f"line 3: not an exact rational: {tok!r}"
        return None
    got = _fraction(tok, 3)
    assert got == want
    return got


class TestParser:
    def test_round_trip(self):
        cfg = parse_config(
            """
            # a comment
            kind numerical-monoid
            generator 2 3
            bound max_value 12   # trailing comment
            flag include_fractional false
            """
        )
        assert cfg.kind == "numerical-monoid"
        assert cfg.options == {"generators": (2, 3)}
        assert cfg.window == {"max_value": 12}
        model, spec = cfg.build()
        assert model.id == "numerical-monoid<2,3>"
        assert spec.bounds == {"max_value": 12}

    def test_zxq_elements_parse_rationals(self):
        cfg = parse_config("kind zxq\nelement 0 1/2\nelement 2\n")
        model, spec = cfg.build()
        w = model.enumerate_window(spec)
        assert sorted(e.label for e in w) == ["(1/2)x", "2"]

    @pytest.mark.parametrize(
        "tok, kind",
        [
            ("12", int),
            ("-7", int),
            ("+0", int),
            ("3_000", None),
            ("\u0661\u0662", None),  # Arabic-Indic 12
            ("1e3", Fraction),
            ("1.5", Fraction),
            ("3/0", None),
            ("+-3", None),
        ],
    )
    def test_coefficient_tokens_parse_as_fraction_reads_them(self, tok, kind):
        got = parses_as_fraction(tok)
        if kind is not None:
            assert type(got) is kind

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="+-0123456789/._e\u0661", min_size=1, max_size=6))
    def test_any_coefficient_token_parses_as_fraction_reads_it(self, tok):
        parses_as_fraction(tok)

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

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_directive_the_kind_reads_parses_and_builds(self, kind):
        # each line lands in the argument it feeds: a constructor argument,
        # a window bound or the flag
        bounds = KINDS[kind].window_bounds
        options, lines = {
            "numerical-monoid": ({"generators": (2, 3)}, ["generator 2 3"]),
            "d1": ({"den_max": 2}, ["bound den_max 2"]),
            "antimatter": ({"max_den": 2}, ["bound max_den 2"]),
            "zxq": (
                {"degree_cap": 4, "declared_atoms": ((1, 0, 1),)},
                ["bound degree_cap 4", "atom 1 0 1", "element 1 1", "element 2"],
            ),
        }.get(kind, ({}, []))
        cfg = parse_config(
            "\n".join(
                [f"kind {kind}", "flag include_fractional false"]
                + [f"bound {b} 2" for b in bounds]
                + lines
            )
        )
        assert cfg.options == options
        assert set(cfg.window) == {*bounds, *(["elements"] if kind == "zxq" else [])}
        assert cfg.include_fractional is False
        model, spec = cfg.build()
        assert {name: getattr(model, name) for name in options} == options
        assert model.enumerate_window(spec)


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

    def test_assert_mode_finds_fails_inside_a_tuple(self, monkeypatch, capsys):
        # reports hold tuples (components, min_open), and the JSON prints
        # a verdict inside one like any other
        report = {"x": ({"status": "Fails"},)}
        monkeypatch.setattr(cli, "topology_report", lambda model, window, pair: report)
        cfg = str(CONFIG_DIR / "dvr_chain.cfg")
        assert cli.main(["topology", "--config", cfg, "--assert"]) == 1
        assert json.loads(capsys.readouterr().out) == {"x": [{"status": "Fails"}]}

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
        bad.write_text("kind dvr\nbound max_exponent 0\n")
        r = run_cli("check", "--config", str(bad))
        assert r.returncode == 2
        assert "error:" in r.stderr and "max_exponent" in r.stderr

    @pytest.mark.parametrize(
        "config,line,name",
        [
            ("numerical_2_3.cfg", "bound k_max 3", "k_max"),
            ("numerical_2_3.cfg", "flag include_fractionl true", "include_fractionl"),
            ("numerical_2_3.cfg", "element 1 1", "element"),
            ("numerical_2_3.cfg", "atom 1 1", "atom"),
            ("d2.cfg", "generator 5", "generator"),
            ("d2.cfg", "bound degree_cap 4", "degree_cap"),
            ("zxq_orders.cfg", "bound max_value 3", "max_value"),
            ("zxq_orders.cfg", "generator 2", "generator"),
            ("dvr_chain.cfg", "bound search_bound 9", "search_bound"),
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
        assert len(cfg.window["elements"]) == 2 and len(cfg.options["declared_atoms"]) == 2
        cfg = parse_config("kind numerical-monoid\ngenerator 2\ngenerator 3 5\n")
        assert cfg.options == {"generators": (2, 3, 5)}

    def test_check_bounds_the_oracle_by_the_window_by_default(self, tmp_path):
        # every factorization of a vertex that does not escape runs through
        # distinct window elements, so the window size bounds them all
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("kind numerical-monoid\ngenerator 2 3\nbound max_value 80\n")
        report = json.loads(run_cli("check", "--config", str(cfg)).stdout)
        assert report["vertex_count"] == 79
        assert "skipped_oracle_bound" not in report and report["ok"] is True

    def test_check_lists_vertices_past_the_oracle_bound(self):
        # only a graph whose boundary disagrees with its model gets here:
        # 12 and 6 are not marked boundary, though their atom quotients lie
        # outside the window, so the window size (2) cuts both searches;
        # 6 = 2+2+2 needs 3 atoms
        from divgraph.models import NumericalMonoidModel

        m = NumericalMonoidModel((2, 3))
        vertices = (m.element(Vec((12,))), m.element(Vec((6,))))
        report = crosscheck_graph(DivGraph(m, vertices, (), (), frozenset()))
        assert report["skipped_oracle_bound"] == ["12", "6"]

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


class TestCheckDecidesOnlyWhatTheWindowSees:
    def run_check(self, tmp_path, capsys, text: str) -> dict:
        cfg = tmp_path / "window.cfg"
        cfg.write_text(text)
        assert cli.main(["check", "--config", str(cfg)]) == 0
        return json.loads(capsys.readouterr().out)

    def test_check_skips_an_order_pair_that_leaves_the_window(self, tmp_path, capsys):
        # 30/2 = 15 is atomic, so 30 <= 2; but the atom quotients of 30 (15,
        # 10 and 6) all lie outside the window, so no edge links the two
        report = self.run_check(tmp_path, capsys, "kind zxq\nelement 30\nelement 2\n")
        assert report["ok"] is True and report["disagreements"] == []
        assert report["skipped_escaping"] == [["30", "2"]]

    def test_check_still_fails_a_reducible_declared_atom(self, tmp_path, capsys):
        # (1+x^2)(1+x+x^2) declared an atom: the product does not escape, as
        # its split is itself, yet no edge links it to its factors below it
        text = (
            "kind zxq\nbound degree_cap 4\natom 1 1 2 1 1\n"
            "element 1 1 2 1 1\nelement 1 0 1\nelement 1 1 1\n"
        )
        report = self.run_check(tmp_path, capsys, text)
        assert report["ok"] is False and "skipped_escaping" not in report
        assert [d["kind"] for d in report["disagreements"]] == ["order_row"]
        assert report["disagreements"][0]["vertex"] == "1+x+2x^2+x^3+x^4"

    def test_check_fails_an_edge_dropped_between_vertices_that_do_not_escape(self):
        from divgraph.models import ZxQModel

        m = ZxQModel()
        g = build_graph(m, m.enumerate_window(WindowSpec({"elements": [[6], [2], [3]]})))
        assert crosscheck_graph(g)["ok"] and not g.boundary
        # 6 -> 2 goes; 6 -> 3 stays, and 2 is left alone
        labels = [(g.vertices[a].label, g.vertices[b].label) for a, b in g.edges]
        kept = [n for n, pair in enumerate(labels) if pair != ("6", "2")]
        assert len(kept) == len(g.edges) - 1
        edges, atoms = (tuple(xs[n] for n in kept) for xs in (g.edges, g.atoms))
        report = crosscheck_graph(DivGraph(m, g.vertices, edges, atoms, g.boundary))
        assert not report["ok"] and "skipped_escaping" not in report
        assert "order_row" in {d["kind"] for d in report["disagreements"]}

    def test_check_fails_an_edge_added_across_topology_components(self):
        from divgraph.models import ZxQModel

        m = ZxQModel()
        g = build_graph(m, m.enumerate_window(WindowSpec({"elements": [[6], [2], [3], [5]]})))
        assert crosscheck_graph(g)["ok"]
        # 5 -> 2, though 5 and 2 are incomparable: one weak component over two
        # topological ones, with every order pair inside it
        position = {v.label: n for n, v in enumerate(g.vertices)}
        added = ((position["5"], position["2"]), m.from_coeffs([7]))
        edges, atoms = zip(*sorted([*zip(g.edges, g.atoms), added]))
        report = crosscheck_graph(DivGraph(m, g.vertices, edges, atoms, g.boundary))
        assert not report["ok"]
        assert "order_row" in {d["kind"] for d in report["disagreements"]}


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

        m = D1Model(den_max=3)
        bounds = {"k_max": 3, "alpha_max": 1}
        g = build_graph(m, m.enumerate_window(WindowSpec(bounds)))
        assert crosscheck_graph(g)["ok"]
        rep, moved = next(c for c in weak_components(g) if len(c) > 1)[:2]
        conn_value = m.conn_value

        def shifted(e):
            # off the atom subgroup, which has no rational part
            v = conn_value(e)
            return v + vec(0, rat=Fraction(1, 2), on=m) if e.label == moved else v

        monkeypatch.setattr(m, "conn_value", shifted)
        report = crosscheck_graph(g)
        assert not report["ok"]
        spans = [d for d in report["disagreements"] if d["kind"] == "component_spans_cosets"]
        assert [d["pair"] for d in spans] == [[moved, rep]]

    def test_crosscheck_detects_a_pair_dropped_from_an_order_row(self, monkeypatch):
        from divgraph.config import load_config
        from divgraph.models.valuebased import ValueModel

        m, spec = load_config(CONFIG_DIR / "numerical_2_3.cfg").build()
        g = build_graph(m, m.enumerate_window(spec))
        assert crosscheck_graph(g)["ok"] and not g.boundary
        order_rows = ValueModel.order_rows

        def dropped(self, window):
            # the lowest strict pair of the row of 10 goes: both partitions
            # stay one class each, but 10 still reaches what its row lacks
            rows = order_rows(self, window)
            n = [e.label for e in window].index("10")
            strict = rows[n] & ~(1 << n)
            rows[n] ^= strict & -strict
            return rows

        monkeypatch.setattr(ValueModel, "order_rows", dropped)
        report = crosscheck_graph(g)
        assert report["ok"] is False
        assert report["disagreements"] == [
            {"kind": "order_row", "vertex": "10", "reach_only": ("2",), "order_only": ()}
        ]
