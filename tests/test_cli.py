"""The command-line front end: exit codes, JSON stability, DOT output."""

import json
import math

import pytest

import conespec.cli as cli

from conftest import game_conjugate_text
from test_dsl import GAME_JSON, tensor_text

JORDAN = "format: 1\ndim: 2\ncoord 1: x1 + x2\ncoord 2: x2\n"
DIAG = "format: 1\ndim: 2\ncoord 1: x1\ncoord 2: 2*x2\n"
PERMUTATION = "format: 1\ndim: 2\ncoord 1: x2\ncoord 2: x1\n"
IDENTITY = "format: 1\ndim: 2\ncoord 1: x1\ncoord 2: x2\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestAnalyzeExitCodes:
    def test_game_conjugate_exists(self, tmp_path, capsys):
        path = write(tmp_path, "game.conemap",
                     game_conjugate_text(0.0, 0.5, 1.0, 0.3, 2.0, -1.0,
                                         0.5, 0.5))
        assert cli.main(["analyze", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "nonempty_bounded"

    def test_jordan_indeterminate(self, tmp_path, capsys):
        path = write(tmp_path, "jordan.conemap", JORDAN)
        assert cli.main(["analyze", path]) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "indeterminate"
        boundary = [s for s in doc["subsets"] if s["route"] == "boundary"]
        assert boundary and boundary[0]["subset"] == [1]
        r = boundary[0]["brackets"]["r"]
        assert r["lower"] <= 1.0 <= r["upper"]

    def test_diagonal_no_eigenvector(self, tmp_path, capsys):
        path = write(tmp_path, "diag.conemap", DIAG)
        assert cli.main(["analyze", path]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "no_interior_eigenvector"

    def test_parse_error_exit_one(self, tmp_path, capsys):
        path = write(tmp_path, "bad.conemap", "format: 1\ndim: 1\ncoord 1: +\n")
        assert cli.main(["analyze", path]) == 1
        assert "error" in capsys.readouterr().err

    def test_stdin_input(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(IDENTITY))
        assert cli.main(["analyze", "-"]) == 3


class TestSolve:
    def test_permutation(self, tmp_path, capsys):
        path = write(tmp_path, "perm.conemap", PERMUTATION)
        assert cli.main(["solve", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["eigenvalue"] == pytest.approx(1.0)
        assert doc["vector"] == pytest.approx([1.0, 1.0])
        assert doc["residual"] <= 1e-10

    def test_nonconverged_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "diag.conemap", DIAG)
        assert cli.main(["solve", path, "--budget", "300"]) == 4
        doc = json.loads(capsys.readouterr().out)
        assert doc["converged"] is False
        assert doc["bracket"]["lower"] <= 2.0

    def test_analyze_solve_consistency(self, tmp_path, capsys):
        path = write(tmp_path, "t.conemap",
                     tensor_text(1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1))
        assert cli.main(["analyze", path]) == 0
        capsys.readouterr()
        assert cli.main(["solve", path]) == 0


class TestGraph:
    def test_growth_digraph_matches_figure(self, tmp_path, capsys):
        path = write(tmp_path, "t.conemap",
                     tensor_text(1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1))
        assert cli.main(["graph", path, "--which", "G"]) == 0
        out = capsys.readouterr().out
        expected = {(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3),
                    (4, 1), (4, 3), (4, 4)}
        for i, j in expected:
            assert f"n{i} -> n{j};" in out
        assert out.count("->") == len(expected)

    def test_upper_hypergraph_arcs(self, tmp_path, capsys):
        path = write(tmp_path, "t.conemap",
                     tensor_text(1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1))
        assert cli.main(["graph", path, "--which", "Hplus"]) == 0
        out = capsys.readouterr().out
        for i, j in ((1, 2), (1, 3), (1, 4), (2, 1), (2, 3), (3, 4)):
            assert f"n{i} -> n{j};" in out

    def test_identity_upper_hypergraph_empty(self, tmp_path, capsys):
        path = write(tmp_path, "id.conemap", IDENTITY)
        assert cli.main(["graph", path, "--which", "Hplus"]) == 0
        out = capsys.readouterr().out
        assert "->" not in out.replace("// ", "")


class TestGame:
    def test_existing_game(self, tmp_path, capsys):
        path = write(tmp_path, "g.game.json", GAME_JSON)
        assert cli.main(["game", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["scale"] == "additive"
        assert doc["kind"] == "nonempty_bounded"
        payoffs = doc["mean_payoff"]
        assert set(payoffs) == {"64", "256", "1024"}
        spread = max(payoffs["1024"]) - min(payoffs["1024"])
        assert spread <= 0.05
        lam = doc["eigen"]["eigenvalue"]
        assert abs(payoffs["1024"][0] - lam) <= 0.05

    def test_game_without_eigenvector(self, tmp_path, capsys):
        doc = json.loads(GAME_JSON)
        doc["actions"][0][0]["payoff"] = 3.0  # r1 = 3 > min(r3, r5) = 1
        path = write(tmp_path, "g.game.json", json.dumps(doc))
        assert cli.main(["game", path]) == 2
        out = json.loads(capsys.readouterr().out)
        routes = {tuple(s["subset"]): s["route"] for s in out["subsets"]}
        assert routes[(1,)] == "numeric_reverse"

    def test_validation_error(self, tmp_path, capsys):
        doc = json.loads(GAME_JSON)
        doc["actions"][0][0]["transition"] = [0.5, 0.4, 0.0]
        path = write(tmp_path, "g.game.json", json.dumps(doc))
        assert cli.main(["game", path]) == 1
        assert "/actions/0/0/transition" in capsys.readouterr().err


class TestOutputStability:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        path = write(tmp_path, "jordan.conemap", JORDAN)
        cli.main(["analyze", path])
        first = capsys.readouterr().out
        cli.main(["analyze", path])
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first)["timing"] is None

    def test_timing_flag_populates_field(self, tmp_path, capsys):
        path = write(tmp_path, "jordan.conemap", JORDAN)
        cli.main(["analyze", path, "--timing"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["timing"] is not None and doc["timing"] >= 0.0

    def test_human_format(self, tmp_path, capsys):
        path = write(tmp_path, "diag.conemap", DIAG)
        cli.main(["analyze", path, "--format", "human"])
        out = capsys.readouterr().out
        assert "kind: no_interior_eigenvector" in out

    def test_bad_config_rejected(self, capsys):
        assert cli.main(["analyze", "whatever", "--tol", "-1"]) == 1


class TestDimensionCap:
    def test_nonconvex_beyond_cap_rejected(self, tmp_path, capsys):
        n = 30
        lines = ["format: 1", f"dim: {n}"]
        # min nodes keep the map off the convex fast path
        for i in range(1, n + 1):
            j = i % n + 1
            lines.append(f"coord {i}: min(x{i}, x{j}) + x{i}")
        path = write(tmp_path, "big.conemap", "\n".join(lines) + "\n")
        assert cli.main(["analyze", path]) == 1
        assert "cap" in capsys.readouterr().err

    def test_convex_beyond_sweep_cap_accepted(self, tmp_path, capsys):
        n = 30
        lines = ["format: 1", f"dim: {n}"]
        for i in range(1, n + 1):
            j = i % n + 1
            lines.append(f"coord {i}: x{j}")
        path = write(tmp_path, "cycle.conemap", "\n".join(lines) + "\n")
        assert cli.main(["analyze", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "nonempty_bounded"


class TestNumericRange:
    def test_overflowing_map_exit_one(self, tmp_path, capsys):
        path = write(tmp_path, "big.conemap",
                     "format: 1\ndim: 2\ncoord 1: 1e308*x1 + 1e308*x2\n"
                     "coord 2: x1 + x2\n")
        assert cli.main(["analyze", path]) == 1
        assert "float range" in capsys.readouterr().err

    def test_overflowing_payoff_exit_one(self, tmp_path, capsys):
        doc = json.loads(GAME_JSON)
        doc["actions"][0][0]["payoff"] = 800.0
        path = write(tmp_path, "g.game.json", json.dumps(doc))
        assert cli.main(["game", path]) == 1
        assert "/actions/0/0/payoff" in capsys.readouterr().err


class TestSingleStateGame:
    def test_eigenvalue_equals_payoff(self, tmp_path, capsys):
        doc = {"format": 1, "controllers": ["min"],
               "actions": [[{"payoff": -2.5, "transition": [1.0]}]]}
        path = write(tmp_path, "single.game.json", json.dumps(doc))
        assert cli.main(["game", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["eigen"]["eigenvalue"] == pytest.approx(-2.5)
        assert out["additive_eigenvalue_bracket"]["lower"] == \
            pytest.approx(-2.5)
        assert out["mean_payoff"]["64"] == [pytest.approx(-2.5)]
