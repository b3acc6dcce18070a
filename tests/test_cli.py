from __future__ import annotations

import json
from io import StringIO

import pytest

from twoblock import pipeline
from twoblock.cli import main
from twoblock.digraph import build_digraph
from twoblock.errors import AttachMismatch, ParseError, StructuralViolation
from twoblock.io import read_edge_list, write_dot

from oracles import random_digraph
import random


def write_edge_list(d):
    """The edge-list text of ``d``: the vertex count, then its sorted arcs."""
    return f"{d.n}\n" + "".join(f"{t} {h}\n" for t, h in sorted(d.arcs))


def write_graph(tmp_path, name, n, arcs):
    text = f"{n}\n" + "".join(f"{t} {h}\n" for t, h in arcs)
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def c5_chord_file(tmp_path):
    return write_graph(
        tmp_path, "c5c.edges", 5, [(i, (i + 1) % 5) for i in range(5)] + [(0, 2)]
    )


@pytest.fixture
def c6_file(tmp_path):
    return write_graph(tmp_path, "c6.edges", 6, [(i, (i + 1) % 6) for i in range(6)])


@pytest.fixture
def non_strong_file(tmp_path):
    return write_graph(tmp_path, "ns.edges", 3, [(0, 1), (1, 2)])


class TestEdgeListFormat:
    def test_round_trip(self):
        rng = random.Random(8)
        for _ in range(20):
            d = random_digraph(rng, rng.randint(1, 7), 0.4)
            assert read_edge_list(StringIO(write_edge_list(d))) == d

    def test_figure1_fixture_file(self, fixtures_dir, fig1):
        d = read_edge_list(str(fixtures_dir / "figure1.edges"))
        assert d == fig1

    def test_comments_and_blanks(self):
        text = "# header\n3\n\n0 1  # trailing\n1 2\n2 0\n"
        d = read_edge_list(StringIO(text))
        assert d.arc_count == 3

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError) as err:
            read_edge_list(StringIO("3\n0 1\n1 2 9\n"))
        assert err.value.line == 3

    @pytest.mark.parametrize("bad", ["1 1", "0 1", "0 7"])
    def test_bad_arc_reports_its_line(self, bad):
        # a loop, a duplicate and an out-of-range arc, each mid-file
        with pytest.raises(ParseError) as err:
            read_edge_list(StringIO(f"3\n0 1\n{bad}\n1 2\n2 0\n"))
        assert err.value.line == 3

    def test_missing_count(self):
        with pytest.raises(ParseError):
            read_edge_list(StringIO("# nothing\n"))


class TestDotExport:
    def test_plain(self):
        d = build_digraph(3, [(0, 1), (1, 2), (2, 0)])
        text = write_dot(d)
        assert "0 -> 1;" in text and text.startswith("digraph")

    def test_with_coloring(self, c6_file, tmp_path, capsys):
        out = tmp_path / "c6.dot"
        code = main(["color", "--k", "2", "--ell", "1", "--dot", str(out), c6_file])
        assert code == 0
        assert "fillcolor" in out.read_text()


class TestExitCodes:
    def test_detect_found(self, c5_chord_file, capsys):
        assert main(["detect", "--k", "2", "--ell", "1", c5_chord_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["path_a"] == [0, 1, 2] and payload["path_b"] == [0, 2]

    def test_detect_verified_negative(self, c6_file, capsys):
        assert main(["detect", "--k", "2", "--ell", "1", c6_file]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "exhaustive"

    def test_missing_file_is_io_error(self, capsys):
        assert main(["detect", "--k", "2", "--ell", "1", "/nope.edges"]) == 2

    def test_color_non_strong_is_precondition(self, non_strong_file, capsys):
        assert main(["color", "--k", "4", "--ell", "1", non_strong_file]) == 3

    def test_cap_exceeded_in_strict_mode(
        self, tmp_path, capsys, fixtures_dir, work_limit
    ):
        # A directed cycle has no pair to search, so above the cap its
        # negative is still a proof ...
        path = write_graph(
            tmp_path, "big.edges", 14, [(i, (i + 1) % 14) for i in range(14)]
        )
        assert main(["detect", "--k", "2", "--ell", "1", "--cap", "12", path]) == 1
        assert json.loads(capsys.readouterr().out)["mode"] == "exhaustive"
        # ... and one expansion per pair cuts Figure 1's proof short.
        work_limit(1)
        fig1 = str(fixtures_dir / "figure1.edges")
        assert main(["detect", "--k", "4", "--ell", "1", "--cap", "4", fig1]) == 4
        assert "ran out of its work limit" in capsys.readouterr().err

    def test_heuristic_mode_reports_capped(
        self, tmp_path, capsys, fixtures_dir, work_limit
    ):
        path = write_graph(
            tmp_path, "big.edges", 14, [(i, (i + 1) % 14) for i in range(14)]
        )
        code = main(
            ["detect", "--k", "2", "--ell", "1", "--cap", "12", "--heuristic", path]
        )
        assert code == 1
        assert json.loads(capsys.readouterr().out)["mode"] == "exhaustive"
        work_limit(1)
        fig1 = str(fixtures_dir / "figure1.edges")
        argv = ["detect", "--k", "4", "--ell", "1", "--cap", "4", "--heuristic", fig1]
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().out)["mode"] == "capped"

    @pytest.mark.parametrize("error", [StructuralViolation, AttachMismatch])
    def test_failed_invariant_is_internal_error(
        self, error, c6_file, capsys, monkeypatch
    ):
        def broken(*args, **kwargs):
            raise error("invariant failed")

        monkeypatch.setattr(pipeline, "run_pipeline", broken)
        assert main(["color", "--k", "2", "--ell", "1", c6_file]) == 5
        assert "invariant failed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["detect", "--k", "2", "--ell", "1", "--json"],
            ["detect", "--k", "2", "--ell", "1", "--dot", "out.dot"],
            ["longest-cycle", "--dot", "out.dot"],
            ["chromatic", "--strict"],
            ["chromatic", "--heuristic"],
        ],
    )
    def test_unread_flags_are_rejected(self, argv, c6_file, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(argv + [c6_file])
        assert exit_.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCommands:
    def test_verify_figure1(self, capsys):
        assert main(["verify-figure1"]) == 0
        out = capsys.readouterr().out
        assert "strong: ok" in out
        assert "chi = 5: ok" in out
        assert "no c(4,1), exhaustive: ok" in out

    def test_color_c6_json(self, c6_file, capsys):
        assert main(["color", "--k", "2", "--ell", "1", "--json", c6_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["coloring"]["palette_size"] == 2
        assert payload["bound"] == 6
        assert len(payload["trace"]["steps"]) == 1

    def test_color_reports_pipeline_summary(self, c6_file, capsys):
        assert main(["color", "--k", "2", "--ell", "1", c6_file]) == 0
        out = capsys.readouterr().out
        assert "contraction steps (m): 1" in out

    def test_ham_color(self, c6_file, capsys):
        assert main(["ham-color", "--k", "2", "--ell", "1", c6_file]) == 0

    def test_ham_color_routes_k_ell_one(self, c6_file, c5_chord_file, capsys):
        assert main(["ham-color", "--k", "1", "--ell", "1", c6_file]) == 0
        assert "induced directed cycle" in capsys.readouterr().out
        assert main(["ham-color", "--k", "1", "--ell", "1", c5_chord_file]) == 0
        assert "certificate" in capsys.readouterr().out

    @pytest.mark.parametrize("k, ell", [(0, 2), (-3, 5), (2, 0), (0, 3)])
    def test_ham_color_rejects_nonpositive_k_ell(self, k, ell, tmp_path, capsys):
        # checked before the k + ell == 2 route and before any colouring
        arcs = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
        path = write_graph(tmp_path, "c4c.edges", 4, arcs)
        assert main(["ham-color", "--k", str(k), "--ell", str(ell), path]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "k and ell must be positive" in captured.err

    def test_ham_color_non_hamiltonian(self, tmp_path, capsys):
        path = write_graph(tmp_path, "s.edges", 3, [(0, 1), (0, 2)])
        assert main(["ham-color", "--k", "2", "--ell", "1", path]) == 3

    def test_chromatic(self, c6_file, capsys):
        assert main(["chromatic", "--json", c6_file]) == 0
        assert json.loads(capsys.readouterr().out)["chi"] == 2

    def test_longest_cycle(self, c6_file, capsys):
        assert main(["longest-cycle", "--json", c6_file]) == 0
        assert json.loads(capsys.readouterr().out)["length"] == 6

    def test_longest_cycle_above_cap_search_that_finishes_is_exact(
        self, c6_file, capsys
    ):
        assert main(["longest-cycle", "--json", "--cap", "5", c6_file]) == 0
        assert json.loads(capsys.readouterr().out)["length"] == 6

    def test_longest_cycle_above_cap_cut_short_exits_4(
        self, tmp_path, capsys, work_limit
    ):
        # The digon 0 <-> 1 is the first cycle found, so the Hamiltonian
        # cycle needs a second search, which a limit of 1 cuts short.
        arcs = [(i, (i + 1) % 6) for i in range(6)] + [(1, 0)]
        path = write_graph(tmp_path, "c6d.edges", 6, arcs)
        argv = ["longest-cycle", "--json", "--cap", "5", "--strict", path]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["length"] == 6
        work_limit(1)
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and "ran out of its work limit" in captured.err

    @pytest.fixture
    def w5_file(self, tmp_path):
        # An odd wheel needs the backtracking core to rule out 3 colors.
        arcs = [(i, (i + 1) % 5) for i in range(5)] + [(5, i) for i in range(5)]
        return write_graph(tmp_path, "w5.edges", 6, arcs)

    def test_chromatic_above_cap_search_that_finishes_is_exact(self, w5_file, capsys):
        assert main(["chromatic", "--json", "--cap", "5", w5_file]) == 0
        assert json.loads(capsys.readouterr().out)["chi"] == 4

    def test_chromatic_above_cap_cut_short_exits_4(self, w5_file, capsys, work_limit):
        work_limit(1)
        assert main(["chromatic", "--json", "--cap", "5", w5_file]) == 4

    def test_longest_cycle_acyclic(self, non_strong_file, capsys):
        assert main(["longest-cycle", non_strong_file]) == 1

    def test_search_writes_jsonl(self, tmp_path, capsys):
        out = tmp_path / "res.jsonl"
        assert main(["search", "--n", "5", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 40
        assert all(json.loads(line)["vertex_count"] == 5 for line in lines)

    def test_search_n7_finds_nothing(self, tmp_path, capsys):
        out = tmp_path / "res7.jsonl"
        assert main(["search", "--n", "7", "--out", str(out)]) == 0
        assert "0 strong tournaments on 7 vertices miss some pair" in (
            capsys.readouterr().out
        )
        assert out.read_text() == ""

    def test_search_below_four_is_precondition(self, tmp_path, capsys):
        out = tmp_path / "res3.jsonl"
        assert main(["search", "--n", "3", "--out", str(out)]) == 3
        assert "search needs 4 <= n <= 8" in capsys.readouterr().err
        assert not out.exists()

    def test_search_above_class_cap(self, tmp_path, capsys):
        out = tmp_path / "res9.jsonl"
        assert main(["search", "--n", "9", "--out", str(out)]) == 4
        assert "search needs 4 <= n <= 8" in capsys.readouterr().err
        assert not out.exists()

    def test_bondy_check(self, capsys):
        assert main(["bondy-check", "--count", "12", "--max-n", "8", "--seed", "1"]) == 0
        assert "0 violations" in capsys.readouterr().out

    @pytest.mark.parametrize("max_n", ["2", "1", "0", "-4"])
    def test_bondy_check_max_n_below_three(self, max_n, capsys):
        assert main(["bondy-check", "--count", "3", "--max-n", max_n]) == 3
        assert "--max-n must be at least 3" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_bondy_check_count_below_one(self, count, capsys):
        # An audit that checks nothing must not report success.
        assert main(["bondy-check", "--count", count, "--max-n", "8"]) == 3
        captured = capsys.readouterr()
        assert "--count must be at least 1" in captured.err
        assert "[OK]" not in captured.out

    def test_bw_audit(self, tmp_path, capsys):
        out = tmp_path / "bw.csv"
        assert main(["bw-audit", "--n", "4", "--out", str(out)]) == 0
        assert out.read_text().startswith("tournament_bits,k,ell,contains")

    def test_env_cap_override(self, tmp_path, capsys, monkeypatch):
        path = write_graph(
            tmp_path, "big.edges", 14, [(i, (i + 1) % 14) for i in range(14)]
        )
        monkeypatch.setenv("TWOBLOCK_CAP", "15")
        assert main(["detect", "--k", "2", "--ell", "1", path]) == 1

    def test_malformed_env_cap_is_usage_error(self, c6_file, capsys, monkeypatch):
        monkeypatch.setenv("TWOBLOCK_CAP", "abc")
        assert main(["detect", "--k", "2", "--ell", "1", c6_file]) == 2
        assert "'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["detect", "color", "longest-cycle"])
    def test_negative_cap_is_precondition(self, command, c6_file, capsys):
        kell = ["--k", "2", "--ell", "1"] if command != "longest-cycle" else []
        assert main([command, *kell, "--cap", "-3", c6_file]) == 3
        assert "the cap must be at least 0, got -3" in capsys.readouterr().err

    def test_negative_env_cap_is_precondition(self, c6_file, capsys, monkeypatch):
        monkeypatch.setenv("TWOBLOCK_CAP", "-1")
        assert main(["detect", "--k", "2", "--ell", "1", c6_file]) == 3
        assert "the cap must be at least 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--n", "5", "--workers", "-2"],
            ["search", "--n", "5", "--workers", "0"],
            ["bondy-check", "--count", "3", "--workers", "0"],
            ["bondy-check", "--count", "3", "--workers", "-1"],
        ],
    )
    def test_workers_below_one_is_precondition(self, argv, tmp_path, capsys):
        out = tmp_path / "res.jsonl"
        extra = ["--out", str(out)] if argv[0] == "search" else []
        assert main(argv + extra) == 3
        captured = capsys.readouterr()
        assert "--workers must be at least 1" in captured.err
        assert "[OK]" not in captured.out
        assert not out.exists()
