import argparse
import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import synspec
from synspec import (InvalidInputError, OperatorTuple, SymbolOperator,
                     random_almost_commuting)
from synspec.cli import build_parser, main
from synspec.io_json import dump_canonical
from synspec.verify import run_suite


@pytest.fixture()
def shift_json(tmp_path):
    path = tmp_path / "shift.json"
    dump_canonical(SymbolOperator.shift().to_json(), str(path))
    return str(path)


class TestGen:
    def test_spin_triple_then_bott(self, tmp_path, capsys):
        t = tmp_path / "t.json"
        assert main(["gen", "spin-triple", "--j", "20", "--out", str(t)]) == 0
        assert main(["bott", str(t)]) == 0
        out = capsys.readouterr().out
        assert "value=+1" in out

    def test_gen_random(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["gen", "random", "--n", "2", "--dim", "6",
                     "--delta", "1e-2", "--seed", "5", "--out", str(out)])
        assert code == 0
        T = OperatorTuple.from_json(json.loads(out.read_text()))
        assert T.n == 2 and T.dim == 6

    def test_gen_symbol_coeffs(self, tmp_path):
        out = tmp_path / "s.json"
        code = main(["gen", "symbol", "--coeff", "1=0.5",
                     "--coeff=-1=0.25,0.1", "--out", str(out)])
        assert code == 0
        op = SymbolOperator.from_json(json.loads(out.read_text()))
        assert op.coeffs[-1] == 0.25 + 0.1j

    def test_gen_symbol_negative_power(self, tmp_path):
        out = tmp_path / "s.json"
        assert main(["gen", "symbol", "--coeff=-1=0.5", "--coeff=1=0.5",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == {
            "coeffs": {"-1": [0.5, 0.0], "1": [0.5, 0.0]}}

    def test_gen_symbol_bad_coeff(self, tmp_path):
        code = main(["gen", "symbol", "--coeff", "nope", "--out",
                     str(tmp_path / "s.json")])
        assert code == 2


class TestSspec:
    def test_commuting_pair_contains_joint_spectrum(self, tmp_path, capsys):
        pair = tmp_path / "pair.json"
        S = random_almost_commuting(2, 6, 0.3, 2, exact=True)
        dump_canonical(S.to_json(), str(pair))
        out = tmp_path / "s.json"
        code = main(["sspec", "--input", str(pair), "--eta", "0.1",
                     "--out", str(out)])
        assert code == 0
        region = json.loads(out.read_text())
        assert region["eta"] == 0.1
        from synspec import BallUnion, containment_check, joint_eigensystem

        ball = BallUnion.from_json(region)
        _, vals = joint_eigensystem(S)
        assert containment_check(vals, ball, 0.0)

    def test_missing_file(self, capsys):
        assert main(["sspec", "--input", "/nope.json", "--eta", "0.1"]) == 2
        assert "invalid-input" in capsys.readouterr().err

    def test_grid_cap_exit_code(self, tmp_path):
        pair = tmp_path / "t.json"
        dump_canonical(random_almost_commuting(3, 4, 1e-2, 0).to_json(),
                       str(pair))
        code = main(["sspec", "--input", str(pair), "--eta", "0.05"])
        assert code == 3

    @pytest.mark.parametrize("argv", [
        ["sspec", "--input", "{T}", "--eta", "1e-30"],
        ["sspec", "--input", "{T}", "--eta", "1e-300"],
        ["sspec", "--input", "{T}", "--eta", "5e-324"],
        ["sspec", "--input", "{huge_M}", "--eta", "0.1"],
        ["index-check", "--symbol", "{shift}", "--eta", "1e-300"],
        ["index-check", "--symbol", "{shift}", "--eta", "1e-17"],
    ], ids=["sspec-1e-30", "sspec-1e-300", "sspec-5e-324", "sspec-M-1e300",
            "index-check-1e-300", "index-check-1e-17"])
    def test_uncountable_grid_exit_3(self, tmp_path, capsys, alarm, argv):
        T = random_almost_commuting(2, 4, 1e-2, 0).to_json()
        paths = {}
        for name, obj in (("T", T), ("huge_M", dict(T, M=1e300)),
                          ("shift", SymbolOperator.shift().to_json())):
            paths[name] = str(tmp_path / (name + ".json"))
            dump_canonical(obj, paths[name])
        assert main([a.format(**paths) for a in argv]) == 3
        assert "resource-limit" in capsys.readouterr().err


class TestGeometryCommands:
    def test_hausdorff(self, tmp_path, capsys):
        from synspec import BallUnion

        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        dump_canonical(BallUnion(2, 0.1, np.array([[0.0, 0.0]])).to_json(),
                       str(a))
        dump_canonical(BallUnion(2, 0.1, np.array([[0.3, 0.0]])).to_json(),
                       str(b))
        code = main(["hausdorff", "--a", str(a), "--b", str(b),
                     "--resolution", "0.005"])
        assert code == 0
        assert "hausdorff: 0.3" in capsys.readouterr().out

    def test_holes(self, tmp_path, capsys):
        from synspec import BallUnion

        ang = 2 * np.pi * np.arange(12) / 12
        ring = BallUnion(2, 0.15,
                         0.5 * np.stack([np.cos(ang), np.sin(ang)], axis=1))
        path = tmp_path / "ring.json"
        dump_canonical(ring.to_json(), str(path))
        code = main(["holes", "--input", str(path), "--resolution", "0.01"])
        assert code == 0
        assert "holes=1" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["hausdorff", "holes"])
    def test_tiny_resolution_exit_3(self, tmp_path, capsys, command):
        from synspec import BallUnion

        a = tmp_path / "a.json"
        dump_canonical(BallUnion(2, 0.1, np.array([[0.0, 0.0]])).to_json(),
                       str(a))
        inputs = {"hausdorff": ["--a", str(a), "--b", str(a)],
                  "holes": ["--input", str(a)]}[command]
        assert main([command, *inputs, "--resolution", "1e-7"]) == 3
        assert "resource-limit" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [
        {"n": 2, "eta": 0.1, "centers": [[0.0, float("nan")]]},
        {"n": 2, "eta": float("nan"), "centers": [[0.0, 0.0]]},
        {"n": 2, "eta": float("inf"), "centers": [[0.0, 0.0]]},
    ])
    @pytest.mark.parametrize("command", ["hausdorff", "holes"])
    def test_non_finite_region_exit_2(self, tmp_path, capsys, command, bad):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))  # json writes NaN and Infinity
        inputs = {"hausdorff": ["--a", str(path), "--b", str(path)],
                  "holes": ["--input", str(path)]}[command]
        assert main([command, *inputs, "--resolution", "0.01"]) == 2
        assert "invalid-input" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("corner", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_brick_corner_exit_2(self, tmp_path, capsys, corner):
        path = tmp_path / "bricks.json"
        path.write_text('{"n": 2, "k": 10, "corners": [[%s, 0.0]]}' % corner)
        assert main(["holes", "--input", str(path), "--resolution", "0.01"]) == 2
        assert "corners must be finite" in capsys.readouterr().err


    @pytest.mark.parametrize("command, obj", [
        ("holes", {"n": 2, "k": 2.5, "corners": [[0, 0], [0.5, 0]]}),
        ("holes", {"n": 2.7, "k": 2, "corners": [[0, 0], [0.5, 0]]}),
        ("holes", {"n": 2.7, "eta": 0.2, "centers": [[0.0, 0.0]]}),
        ("hausdorff", {"n": 2.7, "eta": 0.2, "centers": [[0.0, 0.0]]}),
        ("holes", {"n": True, "k": True, "corners": [[0]]}),
        ("holes", {"n": True, "eta": 0.2, "centers": [[0.0]]}),
        ("hausdorff", {"n": True, "eta": 0.2, "centers": [[0.0]]}),
    ], ids=["holes-bricks-k", "holes-bricks-n", "holes-balls-n", "hausdorff-n",
            "holes-bricks-true", "holes-balls-true", "hausdorff-true"])
    def test_non_integral_n_or_k_exit_2(self, tmp_path, capsys, command, obj):
        # int() loaded the k = 2.5 set as k = 2 with corners [0, 0], [1, 0]
        path = tmp_path / "region.json"
        path.write_text(json.dumps(obj))
        inputs = {"hausdorff": ["--a", str(path), "--b", str(path)],
                  "holes": ["--input", str(path)]}[command]
        assert main([command, *inputs, "--resolution", "0.01"]) == 2
        assert "must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sspec", "--input", "{nan_M}", "--eta", "0.2"],
    ["sspec", "--input", "{inf_M}", "--eta", "0.2"],
    ["approx", "--input", "{nan_M}"],
    ["approx", "--input", "{inf_M}"],
    ["gen", "spin-triple", "--j", "nan", "--out", "{out}"],
    ["gen", "spin-triple", "--j", "inf", "--out", "{out}"],
    ["gen", "symbol", "--coeff", "1=nan", "--out", "{out}"],
    ["gen", "symbol", "--coeff", "1=0,nan", "--out", "{out}"],
    ["gen", "symbol", "--coeff", "1_0=0.5", "--out", "{out}"],
    ["gen", "symbol", "--coeff", " +1 =0.5", "--out", "{out}"],
    ["gen", "symbol", "--coeff", "1=0.5,0,99", "--out", "{out}"],
    ["index-check", "--symbol", "{nan_symbol}", "--eta", "0.1"],
    ["index-check", "--symbol", "{power_1_0}", "--eta", "0.1"],
    ["index-check", "--symbol", "{bool_part}", "--eta", "0.1"],
    ["index-check", "--symbol", "{three_parts}", "--eta", "0.1"],
    ["gen", "random", "--n", "2", "--dim", "3", "--delta", "0.1",
     "--seed", "-1", "--out", "{out}"],
    ["verify", "--suite", "bricks", "--trials", "2", "--seed", "-1",
     "--out", "{out}"],
    ["index-check", "--symbol", "{long_int}", "--eta", "0.1"],
    ["sspec", "--input", "{dir}", "--eta", "0.2", "--out", "{out}"],
    ["approx", "--input", "{not_utf8}", "--out", "{out}"],
    ["bott", "{nested}", "--out", "{out}"],
    ["holes", "--input", "{number}", "--resolution", "0.01", "--out", "{out}"],
    ["holes", "--input", "{null}", "--resolution", "0.01", "--out", "{out}"],
], ids=["sspec-M-nan", "sspec-M-inf",
        "approx-M-nan", "approx-M-inf", "spin-j-nan", "spin-j-inf",
        "coeff-re-nan", "coeff-im-nan", "coeff-power-1_0", "coeff-power-spaced",
        "coeff-three-parts", "index-check-nan", "index-check-power-1_0",
        "index-check-bool-part", "index-check-three-parts", "gen-seed-negative",
        "verify-seed-negative", "file-long-int", "file-is-dir",
        "file-not-utf8", "file-deep-nesting", "file-number", "file-null"])
def test_bad_input_exit_2(tmp_path, capsys, argv):
    T = random_almost_commuting(2, 4, 1e-2, 0).to_json()
    paths = {"out": tmp_path / "out.json", "dir": tmp_path}
    # json.load raises ValueError past 4300 digits, UnicodeDecodeError on
    # bytes that are not UTF-8 and RecursionError on deep nesting
    for name, text in (("long_int", '{"coeffs": {"1": [%s, 0]}}' % ("7" * 5000)),
                       ("nested", "[" * 100_000 + "]" * 100_000),
                       ("number", "5"), ("null", "null")):
        paths[name] = tmp_path / (name + ".json")
        paths[name].write_text(text)
    paths["not_utf8"] = tmp_path / "not_utf8.json"
    paths["not_utf8"].write_bytes(b"\xff\xfe{}")
    for name, obj in (("T", T), ("nan_M", dict(T, M=float("nan"))),
                      ("inf_M", dict(T, M=float("inf"))),
                      ("nan_symbol", {"coeffs": {"1": [float("nan"), 0.0]}}),
                      # int() read "1_0" as power 10; [true, 0] loaded as 1
                      ("power_1_0", {"coeffs": {"1_0": [0.5, 0.0]}}),
                      ("bool_part", {"coeffs": {"1": [True, 0]}}),
                      ("three_parts", {"coeffs": {"1": [0.5, 0, 99]}})):
        paths[name] = tmp_path / (name + ".json")
        paths[name].write_text(json.dumps(obj))  # json writes NaN and Infinity
    assert main([a.format(**paths) for a in argv]) == 2
    captured = capsys.readouterr()
    assert "invalid-input" in captured.err and captured.out == ""
    assert not paths["out"].exists()


class TestIndexCheck:
    def test_fine_eta_finishes(self, shift_json, capsys, alarm):
        # 1.1M raster cells: a nearest-centre search without a distance
        # bound took about 17 s on a 2-vCPU Xeon
        assert main(["index-check", "--symbol", shift_json,
                     "--eta", "0.02"]) == 1
        assert "holes=1" in capsys.readouterr().out

    def test_shift_fails_exit_1(self, shift_json, capsys):
        code = main(["index-check", "--symbol", shift_json, "--eta", "0.1"])
        assert code == 1
        assert "verdict=fail" in capsys.readouterr().out

    def test_normal_symbol_passes(self, tmp_path, capsys):
        path = tmp_path / "n.json"
        dump_canonical(SymbolOperator({-1: 0.5, 1: 0.5}).to_json(), str(path))
        code = main(["index-check", "--symbol", str(path), "--eta", "0.1"])
        assert code == 0


class TestApprox:
    def test_reports_distances(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        dump_canonical(random_almost_commuting(2, 8, 1e-2, 3).to_json(),
                       str(path))
        out = tmp_path / "rep.json"
        code = main(["approx", "--input", str(path), "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["max_distance"] < 1e-2
        assert len(rep["distances"]) == 2
        assert rep["stop_reason"] == "converged"
        line = capsys.readouterr().out
        assert line.startswith("approx: sweeps=%d stop=converged max_distance="
                               % rep["sweeps"])

    def test_sweep_cap_in_summary(self, tmp_path, capsys):
        path = tmp_path / "spin.json"
        assert main(["gen", "spin-triple", "--j", "3", "--out", str(path)]) == 0
        capsys.readouterr()
        code = main(["approx", "--input", str(path), "--max-sweeps", "5"])
        assert code == 0
        assert "approx: sweeps=5 stop=max_sweeps " in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value", [
        ("--max-sweeps", "0"), ("--max-sweeps", "-3")])
    def test_bad_stopping_input_exit_2(self, tmp_path, capsys, flag, value):
        path = tmp_path / "t.json"
        dump_canonical(random_almost_commuting(2, 4, 1e-2, 0).to_json(),
                       str(path))
        assert main(["approx", "--input", str(path), flag, value]) == 2
        captured = capsys.readouterr()
        assert "invalid-input" in captured.err and captured.out == ""


class TestVerify:
    def test_unknown_suite_exit_2(self, capsys):
        assert main(["verify", "--suite", "nosuch"]) == 2
        assert "invalid-input" in capsys.readouterr().err

    def test_winding_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = main(["verify", "--suite", "winding", "--trials", "5",
                     "--seed", "1", "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["all_passed"]

    def test_deterministic_artifacts(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            code = main(["verify", "--suite", "obstruction", "--trials", "3",
                         "--seed", "7", "--out", str(out)])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("trials", [2.5, "2", 0])
    def test_bad_trials_rejected(self, trials):
        with pytest.raises(InvalidInputError, match="trials"):
            run_suite("bricks", trials=trials)

    @pytest.mark.parametrize("suite", ["containment", "uniqueness"])
    def test_suite_passes(self, suite):
        assert run_suite(suite, trials=2, seed=0)["all_passed"]


def test_import_loads_no_scipy():
    # importing scipy costs a CLI process about 0.6 s, and bott, gen, sspec
    # and approx never use it
    src = os.path.dirname(os.path.dirname(synspec.__file__))
    code = ("import sys; sys.path.insert(0, %r); import synspec.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
            % src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_unknown_command_exit_2():
    assert main(["frobnicate"]) == 2


# every command's options, positionals by name; --help is left out
CLI_SURFACE = {
    "gen spin-triple": ["--j", "--out"],
    "gen random": ["--n", "--dim", "--delta", "--seed", "--exact", "--out"],
    "gen symbol": ["--shift", "--coeff", "--out"],
    "sspec": ["--input", "--eta", "--grid-cap", "--out"],
    "hausdorff": ["--a", "--b", "--resolution", "--out"],
    "holes": ["--input", "--resolution", "--out"],
    "index-check": ["--symbol", "--eta", "--out"],
    "bott": ["input", "--out"],
    "approx": ["--input", "--max-sweeps", "--out"],
    "verify": ["--suite", "--trials", "--seed", "--out"],
}


def command_options(parser, prefix=()):
    """{command: its option strings} for each leaf parser under ``parser``."""
    table = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                table.update(command_options(sub, prefix + (name,)))
    if not table:
        table[" ".join(prefix)] = [
            s for a in parser._actions
            if not isinstance(a, argparse._HelpAction)
            for s in a.option_strings or [a.dest]]
    return table


def test_cli_surface():
    # an option is added or removed only together with this table
    assert command_options(build_parser()) == CLI_SURFACE


class TestSharedParser:
    """``main`` reuses one parser; no call may see state left by another."""

    def test_append_option_does_not_leak(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["gen", "symbol", "--coeff", "1=0.5", "--out", str(a)]) == 0
        assert main(["gen", "symbol", "--coeff", "2=0.5", "--out", str(b)]) == 0
        assert SymbolOperator.from_json(json.loads(a.read_text())).coeffs == {1: 0.5}
        assert SymbolOperator.from_json(json.loads(b.read_text())).coeffs == {2: 0.5}

    def test_parse_error_then_valid_call(self, tmp_path, capsys):
        assert main(["sspec", "--input", "x.json", "--eta", "x"]) == 2
        assert "invalid float value: 'x'" in capsys.readouterr().err
        out = tmp_path / "t.json"
        assert main(["gen", "spin-triple", "--j", "1", "--out", str(out)]) == 0
        assert capsys.readouterr().out == (
            "gen spin-triple: j=1 dim=3 -> %s\n" % out)

    def test_help_goes_to_current_stdout(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: synspec")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["--help"]) == 0
        assert buf.getvalue().startswith("usage: synspec")
        assert capsys.readouterr().out == ""

    def test_parser_built_at_most_once(self, tmp_path, monkeypatch):
        roots = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            if kwargs.get("prog") == "synspec":
                roots.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        out = tmp_path / "t.json"
        for _ in range(50):
            assert main(["gen", "spin-triple", "--j", "1", "--out", str(out)]) == 0
        assert len(roots) <= 1


class TestOutputOnlyUnderOut:
    @pytest.fixture()
    def inputs(self, tmp_path):
        from synspec import BallUnion, spin_triple

        paths = {name: str(tmp_path / (name + ".json"))
                 for name in ("pair", "spin", "ring", "out")}
        ang = 2 * np.pi * np.arange(12) / 12
        ring = BallUnion(2, 0.15, 0.5 * np.stack([np.cos(ang), np.sin(ang)], 1))
        for name, obj in (("pair", random_almost_commuting(2, 6, 1e-2, 3)),
                          ("spin", spin_triple(2)), ("ring", ring)):
            dump_canonical(obj.to_json(), paths[name])
        return paths

    ARGV = {"sspec": ["sspec", "--input", "{pair}", "--eta", "0.2"],
            "bott": ["bott", "{spin}"],
            "holes": ["holes", "--input", "{ring}", "--resolution", "0.015"]}

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_no_document_without_out(self, inputs, capsys, monkeypatch,
                                     command):
        from synspec import BallUnion
        from synspec.obstructions import BottReport
        from synspec.region_geometry import RegionTopology

        def refuse(self):
            raise AssertionError("to_json called without --out")

        for cls in (BallUnion, BottReport, RegionTopology):
            monkeypatch.setattr(cls, "to_json", refuse)
        argv = [a.format(**inputs) for a in self.ARGV[command]]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith(command + ":")
        with pytest.raises(AssertionError, match="without --out"):
            main(argv + ["--out", inputs["out"]])


@pytest.mark.parametrize("dim, side", [(True, 1), (2.5, 2)],
                         ids=["true", "2.5"])
def test_non_integral_dim_bott_exit_2(tmp_path, capsys, dim, side):
    # int() loaded "dim": true as 1 and 2.5 as 2
    zero = np.zeros((side, side)).tolist()
    op = {"dim": dim, "re": (0.5 * np.eye(side)).tolist(), "im": zero}
    path = tmp_path / "T.json"
    path.write_text(json.dumps({"M": 1.0, "ops": [op] * 3}))
    assert main(["bott", str(path)]) == 2
    assert "dim must be an integer" in capsys.readouterr().err
