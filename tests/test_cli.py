"""The command-line front end: exit codes, JSON stability, DOT output."""

import json
import math
import os
import re
import subprocess
import sys

import pytest

import conespec as cs
import conespec.cli as cli
from conespec import dsl, maps, spectral, topical
from conespec.core import ExtVec

from conftest import game_conjugate_text, reference_iterate
from test_dsl import GAME_JSON, tensor_text
from test_existence import REVERSE_SWEEP_MAP, SWEEP_MAP

JORDAN = "format: 1\ndim: 2\ncoord 1: x1 + x2\ncoord 2: x2\n"
DIAG = "format: 1\ndim: 2\ncoord 1: x1\ncoord 2: 2*x2\n"
PERMUTATION = "format: 1\ndim: 2\ncoord 1: x2\ncoord 2: x1\n"
IDENTITY = "format: 1\ndim: 2\ncoord 1: x1\ncoord 2: x2\n"

#: SWEEP_MAP with other digits in every coefficient a_i: the same shape
OTHER_SWEEP_MAP = re.sub(r"(\d\.\d{3})\d+", r"\g<1>1", SWEEP_MAP)


def _other_game_json():
    """GAME_JSON with other nonzero payoffs on the same supports."""
    doc = json.loads(GAME_JSON)
    for acts, payoffs in zip(doc["actions"], ((0.0, 0.7), (1.5, 0.2),
                                              (2.5, -0.5))):
        for act, payoff in zip(acts, payoffs):
            act["payoff"] = payoff
    return json.dumps(doc)


OTHER_GAME_JSON = _other_game_json()


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

    def test_human_format(self, tmp_path, capsys):
        path = write(tmp_path, "perm.conemap", PERMUTATION)
        assert cli.main(["solve", path, "--format", "human"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["eigenvalue: 1.0", "eigenvector: [1.0, 1.0]"]
        assert re.fullmatch(r"residual: \S+ after \d+ iterations", lines[2])
        path = write(tmp_path, "diag.conemap", DIAG)
        assert cli.main(["solve", path, "--budget", "300",
                         "--format", "human"]) == 4
        assert re.fullmatch(r"no convergence; bracket \[\S+, \S+\]\n",
                            capsys.readouterr().out)

    def test_infinite_ends_of_an_additive_bracket(self):
        bracket = spectral.CWBracket(0.0, math.inf, None, None, 0, False)
        assert cli._bracket_doc(topical._convert_bracket(bracket)) == {
            "lower": "-inf", "upper": "inf", "converged": False}

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

    def test_lower_hypergraph_says_what_was_scanned(self, tmp_path, capsys):
        path = write(tmp_path, "t.conemap",
                     tensor_text(1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1))
        assert cli.main(["graph", path, "--which", "Hminus"]) == 0
        out = capsys.readouterr().out
        comment = " ".join(line.strip()[3:] for line in out.splitlines()
                           if line.strip().startswith("// "))
        # the scan never depends on earlier queries of the probe
        assert comment == ("minimal hyperarcs of the tails scanned: every "
                           "proper tail up to n = 10, above that the "
                           "singletons and their complements")

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

    def test_bracket_reused_from_displacement(self, tmp_path, capsys,
                                              monkeypatch):
        doc = json.loads(GAME_JSON)
        doc["actions"][0][0]["payoff"] = 3.0
        path = write(tmp_path, "g.game.json", json.dumps(doc))
        f = cs.build_shapley(dsl.parse_game(json.dumps(doc))).conjugate
        used = cs.classify(f).displacement.r_bracket
        refined = cli.cw_upper(f)

        def refuse(*args, **kwargs):
            raise AssertionError("bracket computed a second time")

        monkeypatch.setattr(cli, "cw_upper", refuse)
        assert cli.main(["game", path]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["displacement"]["converged"] is True
        bracket = out["additive_eigenvalue_bracket"]
        assert bracket == {"lower": math.log(used.lower),
                           "upper": math.log(used.upper),
                           "converged": used.converged}
        # refined no further than the displacement needed, so it encloses
        # the fully refined bracket
        assert bracket["lower"] <= math.log(refined.lower)
        assert math.log(refined.upper) <= bracket["upper"]

    def test_bracket_from_the_eigenvector_trajectory(self, tmp_path, capsys,
                                                     monkeypatch):
        path = write(tmp_path, "g.game.json", GAME_JSON)
        f = cs.build_shapley(dsl.parse_game(GAME_JSON)).conjugate
        expected = cli.cw_upper(f)
        calls = []
        cw_upper = cli.cw_upper

        def counted(*args, **kwargs):
            calls.append(args)
            return cw_upper(*args, **kwargs)

        monkeypatch.setattr(cli, "cw_upper", counted)
        assert cli.main(["game", path]) == 0
        assert calls == []
        out = json.loads(capsys.readouterr().out)
        assert out["additive_eigenvalue_bracket"] == {
            "lower": math.log(expected.lower),
            "upper": math.log(expected.upper),
            "converged": expected.converged}

    @pytest.mark.parametrize("doc, additive", [
        # one state: the conjugate is x -> e^2.5 x
        ({"format": 1, "controllers": ["max"],
          "actions": [[{"payoff": 2.5, "transition": [1.0]}]]}, [2.5]),
        # two states, state 2 absorbing: two classes
        ({"format": 1, "controllers": ["max", "max"],
          "actions": [[{"payoff": 0.0, "transition": [0.5, 0.5]},
                       {"payoff": -1.0, "transition": [1.0, 0.0]}],
                      [{"payoff": 1.0, "transition": [0.0, 1.0]}]]},
         [1.0, -1.0]),
    ])
    def test_class_brackets_on_the_additive_scale(self, tmp_path, capsys,
                                                  doc, additive):
        # an all-max game's conjugate takes the convex route
        path = write(tmp_path, "g.game.json", json.dumps(doc))
        assert cli.main(["game", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["scale"] == "additive"
        f = cs.build_shapley(dsl.parse_game(json.dumps(doc))).conjugate
        classes = cs.classify(f).convex_report.classes
        assert [c["component"] for c in out["classes"]] == \
            [[j + 1 for j in c.component] for c in classes]
        for entry, cls, value in zip(out["classes"], classes, additive):
            assert entry["bracket"] == {
                "lower": math.log(cls.bracket.lower),
                "upper": math.log(cls.bracket.upper),
                "converged": cls.bracket.converged}
            assert entry["bracket"]["lower"] == pytest.approx(value)
        assert out["additive_eigenvalue_bracket"]["upper"] == \
            pytest.approx(additive[0])

    def test_one_trajectory_for_mean_payoffs(self, tmp_path, capsys,
                                             monkeypatch):
        # one generated loop per game, run for 1024 steps in all, and the
        # mean payoffs are those of the directly evaluated trajectory
        generated, steps = [], []
        generate = topical._shapley_steps

        def counted_generate(game):
            run = generate(game)
            generated.append(game)

            def counted_run(k, *x):
                steps.append(k)
                return run(k, *x)

            return counted_run

        monkeypatch.setattr(topical, "_shapley_steps", counted_generate)
        path = write(tmp_path, "g.game.json", GAME_JSON)
        assert cli.main(["game", path]) == 0
        assert len(generated) == 1
        assert sum(steps) == 1024
        payoffs = json.loads(capsys.readouterr().out)["mean_payoff"]
        game = dsl.parse_game(GAME_JSON)
        for k in (64, 256, 1024):
            x = reference_iterate(game, (0.0,) * 3, k)
            assert payoffs[str(k)] == [v / k for v in x]

    def test_validation_error(self, tmp_path, capsys):
        doc = json.loads(GAME_JSON)
        doc["actions"][0][0]["transition"] = [0.5, 0.4, 0.0]
        path = write(tmp_path, "g.game.json", json.dumps(doc))
        assert cli.main(["game", path]) == 1
        assert "/actions/0/0/transition" in capsys.readouterr().err


class TestCompileCount:
    """Only maps of two or more coordinates are compiled, each shape once
    per process, and faces are iterated on their map's bodies."""

    @staticmethod
    def _watch(monkeypatch):
        """The names of the bodies and Shapley operators compiled, which
        carry their kind and dimension, the (dimension, face) of the loops
        asked for, and the dimensions of the bodies emitted, which the
        shape cache hides, from here on, from a cold shape cache."""
        maps.shape_code.cache_clear()
        bodies, shapley, loops, emitted = [], [], [], []
        loop, compile_body = maps._loop, maps._compile_body

        def counted(source, filename, mode):
            # the parameters x0, ..., x{n-1} precede the colon or paren
            n = len(re.findall(r"\bx\d+\b", re.split("[:)]", source)[0]))
            if re.fullmatch(r"<body n=\d+>", filename):
                bodies.append(filename)
            elif filename.startswith("<shapley operator"):
                shapley.append(filename)
            if "(f + id)" not in filename:
                assert filename.endswith(f" n={n}>")
            return compile(source, filename, mode)

        def counted_loop(n, face=False):
            loops.append((n, face))
            return loop(n, face)

        def counted_body(exprs):
            emitted.append(len(exprs))
            return compile_body(exprs)

        monkeypatch.setattr(maps, "compile", counted, raising=False)
        monkeypatch.setattr(maps, "_loop", counted_loop)
        monkeypatch.setattr(maps, "_compile_body", counted_body)
        return bodies, shapley, loops, emitted

    def test_sweep_map(self, monkeypatch):
        f = cs.parse_map(SWEEP_MAP).cone_map
        bodies, _, loops, emitted = self._watch(monkeypatch)
        first = cs.classify(f)
        # the bodies of f and its conjugate, which their own loops run and
        # their faces are pinned through: no face has a body of its own
        assert bodies == ["<body n=5>"] * 2
        assert emitted == [5] * 2
        # one loop for f, one per number of kept coordinates for faces
        assert set(loops) == {(5, False)} | {(k, True) for k in range(1, 5)}
        assert repr(cs.classify(cs.parse_map(SWEEP_MAP).cone_map)) == \
            repr(first)
        assert OTHER_SWEEP_MAP != SWEEP_MAP
        cs.classify(cs.parse_map(OTHER_SWEEP_MAP).cone_map)
        assert len(bodies) == 2

    def test_game(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "g.game.json", GAME_JSON)
        bodies, shapley, loops, emitted = self._watch(monkeypatch)
        assert cli.main(["game", path]) == 0
        # the bodies of the map and its conjugate, and the Shapley operator
        assert bodies == ["<body n=3>"] * 2
        assert emitted == [3] * 2
        assert shapley == ["<shapley operator n=3>"]
        assert set(loops) == {(3, False), (1, True)}
        # other payoffs on the same supports: nothing to compile
        path = write(tmp_path, "h.game.json", OTHER_GAME_JSON)
        assert cli.main(["game", path]) == 0
        assert len(bodies) == 2 and len(shapley) == 1


class TestOutputStability:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        path = write(tmp_path, "jordan.conemap", JORDAN)
        cli.main(["analyze", path])
        first = capsys.readouterr().out
        cli.main(["analyze", path])
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first)["timing"] is None

    @pytest.mark.parametrize("command, name, text, other", [
        ("analyze", "m.conemap", SWEEP_MAP, OTHER_SWEEP_MAP),
        ("game", "g.game.json", GAME_JSON, OTHER_GAME_JSON)])
    def test_same_bytes_from_cold_and_warm_shape_cache(
            self, tmp_path, capsys, command, name, text, other):
        path = write(tmp_path, name, text)
        other_path = write(tmp_path, "other-" + name, other)

        def run(argv):
            code = cli.main(argv)
            return code, capsys.readouterr().out

        maps.shape_code.cache_clear()
        cold = run([command, path])
        warm = run([command, path])
        run([command, other_path])  # another map of the same shape
        shared = run([command, path])
        assert cold == warm == shared

    def test_same_bytes_under_every_hash_seed(self, tmp_path):
        # no output depends on the order of a hashed set or dict
        runs = [["analyze", write(tmp_path, "m.conemap", SWEEP_MAP)],
                ["analyze", write(tmp_path, "r.conemap", REVERSE_SWEEP_MAP)],
                ["game", write(tmp_path, "g.game.json", GAME_JSON)]]
        src = os.path.dirname(os.path.dirname(cli.__file__))
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(
                           [src, os.environ.get("PYTHONPATH", "")]))
            outputs.append([subprocess.run(
                [sys.executable, "-m", "conespec.cli", *argv],
                capture_output=True, text=True, env=env, timeout=120)
                for argv in runs])
        first, second = ([(p.returncode, p.stdout) for p in procs]
                         for procs in outputs)
        assert [code for code, _ in first] == [0, 2, 0]
        assert first == second

    @pytest.mark.parametrize("command, name, text", [
        ("analyze", "m.conemap", SWEEP_MAP),
        ("game", "g.game.json", GAME_JSON)])
    def test_printed_verdict_embeds_no_witness(self, tmp_path, capsys,
                                               monkeypatch, command, name,
                                               text):
        # the output prints no witness, so no certificate bracket embeds
        # one; the eigenvector is the iterate itself, not a witness
        brackets, embedded = [], []
        on_support, unchecked = spectral._on_support, ExtVec._unchecked

        def counted(*args):
            brackets.append(on_support(*args))
            return brackets[-1]

        monkeypatch.setattr(spectral, "_on_support", counted)
        monkeypatch.setattr(ExtVec, "_unchecked",
                            lambda v: embedded.append(v) or unchecked(v))
        assert cli.main([command, write(tmp_path, name, text)]) == 0
        assert json.loads(capsys.readouterr().out)["eigen"] is not None
        assert brackets and not embedded

    def test_nothing_compiled_at_import(self):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        probe = ("import conespec, conespec.cli\n"
                 "from conespec import graphs, maps\n"
                 "print(maps.shape_code.cache_info().currsize,"
                 " maps._loop.cache_info().currsize,"
                 " graphs._tail_pins.cache_info().currsize)\n")
        proc = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert (proc.returncode, proc.stdout) == (0, "0 0 0\n")

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

    @pytest.mark.parametrize("command", ["analyze", "game"])
    def test_human_format_prints_every_number(self, tmp_path, capsys,
                                              command):
        # a game whose state 1 pays more than states 2 and 3 can hold it
        # has no additive eigenvector, so both outputs carry a displacement
        doc = json.loads(GAME_JSON)
        doc["actions"][0][0]["payoff"] = 3.0
        text = DIAG if command == "analyze" else json.dumps(doc)
        path = write(tmp_path, "input", text)
        assert cli.main([command, path]) == 2
        parsed = json.loads(capsys.readouterr().out)
        assert cli.main([command, path, "--format", "human"]) == 2
        lines = capsys.readouterr().out.splitlines()
        keys = ["displacement"]
        if command == "game":
            keys.append("additive_eigenvalue_bracket")
            payoff = "; ".join(f"{k}: {v}"
                               for k, v in parsed["mean_payoff"].items())
            assert f"mean_payoff: {payoff}" in lines
        for key in keys:
            b = parsed[key]
            state = "converged" if b["converged"] else "not converged"
            assert f"{key}: [{b['lower']}, {b['upper']}] ({state})" in lines

    def test_bad_config_rejected(self, capsys):
        assert cli.main(["analyze", "whatever", "--tol", "-1"]) == 1

    @pytest.mark.parametrize("tol", ["nan", "inf", "0"])
    def test_non_finite_tolerance_rejected(self, tmp_path, capsys, tol):
        # NaN compares false with everything: it used to pass the check
        # and turn every numeric subset into a boundary one
        path = write(tmp_path, "diag.conemap", DIAG)
        assert cli.main(["analyze", path, "--tol", tol]) == 1
        assert "tolerance must be positive" in capsys.readouterr().err
        with pytest.raises(ValueError):
            cs.classify(dsl.parse_map(DIAG).cone_map, tol=float(tol))


class TestUsageErrors:
    """Usage errors exit 1; 2 is the exit code of no_interior_eigenvector."""

    @pytest.mark.parametrize("argv", [
        ["analyze", "{path}", "--bogus"],
        ["analyze"],
        # flags are registered only on the subcommands that read them
        ["solve", "{path}", "--tol", "1e-300"],
        ["solve", "{path}", "--no-prune"],
        ["solve", "{path}", "--max-n", "3"],
        ["solve", "{path}", "--timing"],
        ["game", "{path}", "--no-prune"],
        ["graph", "{path}", "--budget", "5"],
    ])
    def test_usage_error_exits_one(self, tmp_path, capsys, argv):
        path = write(tmp_path, "diag.conemap", DIAG)
        with pytest.raises(SystemExit) as info:
            cli.main([a.format(path=path) for a in argv])
        assert info.value.code == 1
        assert "error:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["analyze", "--help"])
        assert info.value.code == 0
        assert "--no-prune" in capsys.readouterr().out

    def test_solve_keeps_its_timing_key(self, tmp_path, capsys):
        path = write(tmp_path, "diag.conemap", IDENTITY)
        assert cli.main(["solve", path, "--budget", "50"]) == 0
        assert json.loads(capsys.readouterr().out)["timing"] is None
        # a run that does not converge prints the same key
        path = write(tmp_path, "tiny.conemap", "format: 1\ndim: 2\n"
                     "coord 1: 1e-320*x2\ncoord 2: x1\n")
        assert cli.main(["solve", path, "--budget", "50"]) == 4
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["converged", "bracket", "iterations", "timing"]
        assert doc["converged"] is False and doc["timing"] is None


class TestParserReuse:
    def test_one_parser_for_every_call(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "g.game.json", GAME_JSON)
        runs = [["game", path, "--tol", "1e-6"],
                ["game", path, "--format", "human"],
                ["game", path]]
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        fresh = [subprocess.run([sys.executable, "-m", "conespec.cli", *argv],
                                capture_output=True, text=True, env=env,
                                timeout=120)
                 for argv in runs]
        built = []
        build_parser = cli.build_parser

        def counted():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        try:
            for argv, proc in zip(runs, fresh):
                code = cli.main(argv)
                assert (code, capsys.readouterr().out) == (proc.returncode,
                                                           proc.stdout)
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1


class TestClosedStdout:
    def test_reader_that_stops_early(self, tmp_path):
        # as in `conespec analyze map.conemap | head -1`: the reader has
        # closed the pipe before the verdict is written
        path = write(tmp_path, "sweep.conemap", SWEEP_MAP)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "conespec.cli", "analyze", path],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        # no message, and the status of a process that SIGPIPE ended
        assert (proc.wait(timeout=120), err) == (141, b"")


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

    def test_underflowing_map_value(self, tmp_path, capsys):
        # f_1 underflows to 0 along the iteration: solve ends without a
        # solution instead of taking log(0); the conjugate's coefficient
        # 1 / 1e-323 overflows, so analyze reports a range error
        path = write(tmp_path, "tiny.conemap",
                     "format: 1\ndim: 2\ncoord 1: 1e-323*x1\n"
                     "coord 2: x1 + x2\n")
        assert cli.main(["solve", path]) == 4
        assert json.loads(capsys.readouterr().out)["converged"] is False
        assert cli.main(["analyze", path]) == 1
        assert "float range" in capsys.readouterr().err

    def test_overflowing_payoff_exit_one(self, tmp_path, capsys):
        doc = json.loads(GAME_JSON)
        doc["actions"][0][0]["payoff"] = 800.0
        path = write(tmp_path, "g.game.json", json.dumps(doc))
        assert cli.main(["game", path]) == 1
        assert "/actions/0/0/payoff" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, pointer", [
        # NaN used to pass both checks of a transition row and be dropped,
        # which gave the verdict of another game
        ("transition", [math.nan, 1.0, 0.0], "/actions/0/0/transition/0"),
        ("transition", [10 ** 400, 0, 0], "/actions/0/0/transition/0"),
        ("payoff", 10 ** 400, "/actions/0/0/payoff"),
        ("payoff", -10 ** 400, "/actions/0/0/payoff"),
    ], ids=["nan_probability", "huge_probability", "huge_payoff",
            "huge_negative_payoff"])
    def test_unrepresentable_game_number_exit_one(self, tmp_path, capsys,
                                                  field, value, pointer):
        doc = json.loads(GAME_JSON)
        doc["actions"][0][0][field] = value
        path = write(tmp_path, "g.game.json", json.dumps(doc))
        assert cli.main(["game", path]) == 1
        assert f"{pointer}:" in capsys.readouterr().err

    def test_integer_beyond_digit_limit_exit_one(self, tmp_path, capsys):
        text = GAME_JSON.replace('"payoff": 0.5', '"payoff": 1' + "0" * 5000)
        path = write(tmp_path, "g.game.json", text)
        assert cli.main(["game", path]) == 1
        assert "invalid JSON" in capsys.readouterr().err


class TestConstantArithmetic:
    """Constant arithmetic that leaves the finite reals is a SemanticError,
    never a traceback."""

    @pytest.mark.parametrize("body", [
        "coord 1: 2^1025 * x1",
        "coord 1: (10^400)*x1",
        "param a = 2^1025\ncoord 1: a*x1",
        "coord 1: (1/0)*x1",
        "coord 1: (0^-1)*x1",
        "coord 1: ((-8)^(1/3))*x1",
    ], ids=["overflow", "overflow_paren", "overflow_param", "div_zero",
            "zero_negative_power", "complex_power"])
    @pytest.mark.parametrize("command", ["analyze", "solve", "graph"])
    def test_exit_one_with_one_error_line(self, tmp_path, capsys, body,
                                          command):
        path = write(tmp_path, "c.conemap", f"format: 1\ndim: 1\n{body}\n")
        assert cli.main([command, path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: line 3: ")

    @pytest.mark.parametrize("r", ["1e-320", "-1e-320"])
    def test_tiny_power_mean_exponent(self, tmp_path, capsys, r):
        # a face that pins x2 is f with x2 = 0, never the face map whose
        # renormalization 0.5 ** (1 / r) is 0 or inf in floating point
        path = write(tmp_path, "m.conemap",
                     f"format: 1\ndim: 2\ncoord 1: mean({r}, (0.5, 0.5), "
                     "x1, x2)\ncoord 2: x2\n")
        assert cli.main(["analyze", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "nonempty_bounded"
        assert cli.main(["solve", path]) == 0
        solved = json.loads(capsys.readouterr().out)
        assert doc["eigen"]["eigenvalue"] == solved["eigenvalue"] == 1.0


class TestBooleanHeader:
    @pytest.mark.parametrize("field", ["format", "states"])
    def test_boolean_exit_one(self, tmp_path, capsys, field):
        doc = {"format": 1, "states": 1, "controllers": ["min"],
               "actions": [[{"payoff": 0.0, "transition": [1.0]}]]}
        doc[field] = True
        path = write(tmp_path, "g.game.json", json.dumps(doc))
        assert cli.main(["game", path]) == 1
        assert f"/{field}" in capsys.readouterr().err


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
