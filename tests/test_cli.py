import math
import os
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracspec.integro
from fracspec.cli import _write_text, main
from fracspec.errors import AccuracyError, BracketError

HEADER = (
    "n,lambda_asym1,lambda_asym2,lambda_nystrom,lambda_integro,"
    "relerr_asym1,relerr_asym2,regime"
)
# each command's flags that a config file may set, too
OWN_FLAGS = {
    "spectrum": {"alpha", "variant", "n-min", "n-max", "methods", "m", "out", "reference"},
    "eigenfunction": {"alpha", "m", "grid-points", "out"},
    "validate": {"alpha", "variant", "m", "out"},
}


def _read(path):
    with open(path, newline="") as fh:
        return fh.read()


def _rows(path):
    text = _read(path)
    lines = text.strip().split("\n")
    return lines[0], [ln.split(",") for ln in lines[1:]]


class TestSpectrum:
    def test_header_and_regime(self, tmp_path):
        rc = main(
            [
                "spectrum",
                "--alpha", "0.75",
                "--n-min", "1",
                "--n-max", "5",
                "--m", "200",
                "--methods", "asym1,asym2,nystrom",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        header, rows = _rows(tmp_path / "spectrum.csv")
        assert header == HEADER
        assert len(rows) == 5
        for r in rows:
            assert r[7] == ("unverified" if int(r[0]) < 3 else "")
            assert r[4] == ""  # integro not requested

    def test_byte_determinism(self, tmp_path):
        args = [
            "spectrum",
            "--alpha", "0.75",
            "--n-min", "3",
            "--n-max", "5",
            "--m", "200",
            "--methods", "asym1,asym2,nystrom,integro",
        ]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(d1)]) == 0
        assert main(args + ["--out", str(d2)]) == 0
        for name in ("spectrum.csv", "integro.csv"):
            assert _read(d1 / name) == _read(d2 / name)
            assert "\r" not in _read(d1 / name)

    def test_alpha_one_relative_errors(self, tmp_path):
        rc = main(
            [
                "spectrum",
                "--alpha", "1.0",
                "--n-min", "1",
                "--n-max", "10",
                "--m", "400",
                "--methods", "asym1,asym2,nystrom",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        _, rows = _rows(tmp_path / "spectrum.csv")
        for r in rows:
            n = int(r[0])
            assert float(r[1]) == pytest.approx((np.pi * n) ** 2, rel=1e-12)
            assert abs(float(r[6])) < 1e-4

    def test_integro_reference(self, tmp_path):
        rc = main(
            [
                "spectrum",
                "--alpha", "0.75",
                "--n-min", "4",
                "--n-max", "5",
                "--methods", "asym2,integro",
                "--reference", "integro",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        header, rows = _rows(tmp_path / "spectrum.csv")
        irows = _rows(tmp_path / "integro.csv")[1]
        assert [r[0] for r in irows] == ["4", "5"]
        for r in rows:
            assert r[3] == ""  # no nystrom column
            assert abs(float(r[6])) < 1e-2  # relerr against integro reference

    def test_failures_below_three_tolerated(self, tmp_path, monkeypatch):
        def boom(n, table, **kw):
            raise BracketError("no sign change (forced)")

        monkeypatch.setattr("fracspec.integro.refine_rho", boom)
        base = [
            "spectrum",
            "--alpha", "0.75",
            "--methods", "asym2,integro",
            "--out",
        ]
        rc = main(base[:-1] + ["--n-min", "1", "--n-max", "2", "--out",
                               str(tmp_path / "low")])
        assert rc == 0
        rc = main(base[:-1] + ["--n-min", "1", "--n-max", "4", "--out",
                               str(tmp_path / "high")])
        assert rc == 3
        # the spectrum file is still written, with empty integro cells
        _, rows = _rows(tmp_path / "high" / "spectrum.csv")
        assert all(r[4] == "" for r in rows)

    def test_failed_sampling_is_reported_per_n(self, tmp_path, monkeypatch,
                                               capsys):
        # the roots share one g0 sample; when it fails, every n fails with
        # the same error, and the n < 3 rule still sets the exit code
        def boom(t, table):
            raise AccuracyError("pv error estimate above tolerance (forced)")

        monkeypatch.setattr(fracspec.integro, "g0", boom)
        for n_max, code in [(2, 0), (4, 3)]:
            rc = main(["spectrum", "--alpha", "0.75", "--n-min", "1",
                       "--n-max", str(n_max), "--methods", "asym2,integro",
                       "--out", str(tmp_path / str(n_max))])
            err = capsys.readouterr().err
            assert rc == code
            assert err.splitlines() == [
                f"integro refinement failed at n={n}: AccuracyError: pv error"
                " estimate above tolerance (forced)"
                for n in range(1, n_max + 1)
            ]
            assert "Traceback" not in err

    @pytest.mark.parametrize(
        "fault, message",
        [("nan", "the function value at x=.* is NaN"),
         ("maxiter", "Brent's method did not converge in 1 iterations")],
        ids=["nan", "maxiter"],
    )
    def test_failed_polish_is_reported(self, fault, message, tmp_path,
                                       monkeypatch, capsys):
        # a NaN condition inside Brent's loop, or too few iterations, is a
        # ConvergenceError: reported per n with exit 3, never a traceback
        port, real = fracspec.integro._brentq, fracspec.integro.secular
        polishing = []
        limit = {"maxiter": 1} if fault == "maxiter" else {}

        def enter(f, a, b, **kw):
            polishing.append((a, b))
            return port(f, a, b, **kw, **limit)

        def secular(rho, table, **kw):
            if polishing and fault == "nan":
                return SimpleNamespace(rho=rho, normalized=math.nan)
            return real(rho, table, **kw)

        monkeypatch.setattr(fracspec.integro, "_brentq", enter)
        monkeypatch.setattr(fracspec.integro, "secular", secular)
        rc = main(["spectrum", "--alpha", "0.75", "--n-min", "3", "--n-max", "3",
                   "--methods", "asym2,integro", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 3
        assert polishing
        assert re.search(
            rf"^integro refinement failed at n=3: ConvergenceError: {message}$",
            err, re.M,
        )
        assert "Traceback" not in err


class TestEigenfunction:
    def test_outputs(self, tmp_path):
        rc = main(
            [
                "eigenfunction",
                "--n", "10",
                "--alpha", "0.75",
                "--m", "800",
                "--grid-points", "301",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        header, rows = _rows(tmp_path / "eigenfunction_n10.csv")
        assert header == "x,f_nystrom,f_asym_nolayers,f_asym_layers"
        assert len(rows) == 301
        data = np.array([[float(v) for v in r] for r in rows])
        x, ny, nolay, lay = data.T
        assert x[0] == 0.0 and x[-1] == 1.0
        # layer corrections must improve the plain sine approximation
        assert np.max(np.abs(lay - ny)) < np.max(np.abs(nolay - ny))
        svg = _read(tmp_path / "eigenfunction_n10.svg")
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "f_asym_layers - f_nystrom" in svg

    def test_exact_column(self, tmp_path, monkeypatch):
        solve = fracspec.integro.solve_pqr
        rhos = []

        def counting(rho, table, **kw):
            rhos.append(float(rho))
            return solve(rho, table, **kw)

        monkeypatch.setattr(fracspec.integro, "solve_pqr", counting)
        rc = main(
            [
                "eigenfunction",
                "--n", "8",
                "--alpha", "0.75",
                "--m", "400",
                "--grid-points", "101",
                "--exact",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        header, rows = _rows(tmp_path / "eigenfunction_n8.csv")
        assert header == "x,f_nystrom,f_asym_nolayers,f_asym_layers,f_exact"
        data = np.array([[float(v) for v in r] for r in rows])
        assert np.max(np.abs(data[:, 4] - data[:, 1])) < 1e-2
        # the reconstruction reuses the refined root's solution
        assert len(rhos) == len(set(rhos))
        # one error curve per approximation, in column order, each with its
        # colour on the polyline and on the legend entry
        svg = _read(tmp_path / "eigenfunction_n8.svg")
        curves = [
            ("f_asym_nolayers - f_nystrom", "#d62728"),
            ("f_asym_layers - f_nystrom", "#1f77b4"),
            ("f_exact - f_nystrom", "#2ca02c"),
        ]
        assert re.findall(r'<polyline points="[^"]*" fill="none" stroke="([^"]*)"', svg) == [
            colour for _, colour in curves]
        legend = re.findall(r'stroke="([^"]*)" stroke-width="2"/>\n<text[^>]*>([^<]*)</text>', svg)
        assert legend == [(colour, label) for label, colour in curves]

    def test_caputo_rejected(self, tmp_path):
        rc = main(
            ["eigenfunction", "--n", "3", "--variant", "caputo",
             "--alpha", "0.75", "--out", str(tmp_path)]
        )
        assert rc == 2

    @pytest.mark.parametrize("message, shown", [
        ("Unable to allocate 22.4 GiB for an array", "Unable to allocate 22.4 GiB for an array"),
        ("", "MemoryError"),
    ], ids=["numpy", "bare"])
    def test_allocation_failure_exits_three(self, message, shown, tmp_path, monkeypatch,
                                            capsys):
        # an array the machine cannot hold, as a huge --grid-points asks for,
        # ends in one error line; the failure is simulated, nothing is allocated
        def refuse(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr("fracspec.cli.eigenfunction_at", refuse)
        rc = main(["eigenfunction", "--m", "100", "--out", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().err == f"error: {shown}\n"


class TestWriteText:
    @pytest.mark.parametrize("fail", ["write", "replace"])
    def test_failure_keeps_target(self, tmp_path, monkeypatch, fail):
        target = tmp_path / "spectrum.csv"
        target.write_bytes(b"old\n")
        text = "new\n"
        if fail == "write":
            text = "new\ud800\n"  # a lone surrogate cannot be encoded
        else:

            def refuse(src, dst):
                raise OSError("replace refused")

            monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises((UnicodeEncodeError, OSError)):
            _write_text(str(target), text)
        assert _read(target) == "old\n"
        assert os.listdir(tmp_path) == ["spectrum.csv"]


class TestValidate:
    def test_all_pass(self, capsys, monkeypatch):
        import fracspec.nystrom as nystrom

        solves = []
        solve = nystrom.discretize_and_solve

        def counted(spec, grid, **kw):
            solves.append((spec.alpha.alpha, spec.kind, grid.m))
            return solve(spec, grid, **kw)

        # every solve of the cli goes through its one call, in cli._nystrom
        monkeypatch.setattr("fracspec.cli.discretize_and_solve", counted)
        rc = main(["validate", "--alpha", "0.75", "--m", "600"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") == 7
        assert "FAIL" not in out
        # orthonormality and mercer_trace share the one m = 600 solve
        assert solves.count((0.75, nystrom.KernelKind.BRIDGE, 600)) == 1
        assert len(solves) == 6

    @pytest.mark.parametrize("m", [20, 300])
    @pytest.mark.parametrize(
        "alpha, variant", [("0.6", "rl-bridge"), ("0.75", "caputo"), ("0.9", "caputo")]
    )
    def test_mercer_check(self, alpha, variant, m, capsys):
        # the bound is 1e-3; over a in [0.501, 1] and both kernels the gap
        # measures at most 5.1e-4 at m = 20 (a = 0.75, caputo), 1.5e-6 at 300
        main(["validate", "--alpha", alpha, "--variant", variant, "--m", str(m)])
        line = re.search(r"^(PASS|FAIL) mercer_trace: trace gap (\S+)",
                         capsys.readouterr().out, re.M)
        assert line[1] == "PASS"
        assert float(line[2]) <= (1e-3 if m == 20 else 1e-5)

    def test_smallest_grid_runs_every_check(self, capsys):
        # at m = 20 the exit code is the suite's verdict, not a usage error
        assert main(["validate", "--alpha", "0.75", "--m", "20"]) in (0, 1)
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 8
        assert all(line.startswith(("PASS ", "FAIL ")) for line in lines[:7])



class TestEigenvectorSolves:
    """Each command solves for the modes it reads, vectors only where read."""

    @pytest.fixture
    def solves(self, monkeypatch):
        import fracspec.nystrom as nystrom

        calls = []

        def spy(path, real):
            def solve(B, *args):
                calls.append((path, B.shape[0], args[-1]))  # args end in vectors
                return real(B, *args)

            return solve

        monkeypatch.setattr(nystrom, "_lanczos", spy("lanczos", nystrom._lanczos))
        monkeypatch.setattr(nystrom, "_dense_modes", spy("dense", nystrom._dense_modes))
        return calls

    def test_spectrum_solves_values_only(self, solves, tmp_path):
        rc = main(["spectrum", "--n-max", "5", "--m", "200",
                   "--methods", "asym1,asym2,nystrom", "--out", str(tmp_path)])
        assert rc == 0
        assert solves == [("lanczos", 200, False)]

    def test_validate(self, solves, capsys):
        assert main(["validate", "--alpha", "0.75", "--m", "300"]) == 0
        # caputo_endpoint reads f_20: one dense eigh. Orthonormality's 10
        # vectors and Mercer's 15 values (its head) share one Lanczos
        # run; every other solve reads 20 or fewer values
        assert [s for s in solves if s[2]] == [("dense", 300, True), ("lanczos", 300, True)]
        assert ("dense", 300, False) not in solves
        assert solves.count(("lanczos", 800, False)) == 2

    def test_eigenfunction(self, solves, tmp_path):
        rc = main(["eigenfunction", "--n", "10", "--m", "200",
                   "--grid-points", "21", "--out", str(tmp_path)])
        assert rc == 0
        assert solves == [("lanczos", 200, True)]

    @pytest.mark.parametrize(
        "argv",
        [["eigenfunction", "--n", "50", "--m", "20"],
         ["spectrum", "--n-max", "30", "--m", "20", "--methods", "nystrom"]],
        ids=["eigenfunction", "spectrum"],
    )
    def test_more_modes_than_grid(self, argv, solves, tmp_path, capsys):
        # an m-point grid has m modes: a usage error, found before any solve
        # and before the output directory is made
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert "usage error: need" in capsys.readouterr().err
        assert solves == []
        assert not (tmp_path / "out").exists()


class TestConfig:
    def test_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\nalpha = 0.75\nn-max = 4\nmethods = asym1,asym2\n"
        )
        out1 = tmp_path / "fromfile"
        rc = main(["spectrum", "--config", str(cfg), "--out", str(out1)])
        assert rc == 0
        _, rows = _rows(out1 / "spectrum.csv")
        assert len(rows) == 4

        out2 = tmp_path / "override"
        rc = main(["spectrum", "--config", str(cfg), "--n-max", "2",
                   "--out", str(out2)])
        assert rc == 0
        _, rows = _rows(out2 / "spectrum.csv")
        assert len(rows) == 2

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpa = 0.75\n")
        assert main(["spectrum", "--config", str(cfg)]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["spectrum", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_undecodable_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"alpha = 0.75\xff\n")
        assert main(["spectrum", "--config", str(cfg)]) == 2
        assert "usage error:" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["m = abc", "alpha = 0.7x", "n-max = 2.5"])
    def test_non_numeric_value(self, line, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert main(["spectrum", "--config", str(cfg)]) == 2
        assert "usage error:" in capsys.readouterr().err

    @pytest.fixture
    def captured(self, monkeypatch):
        """The keyword arguments main hands each command, which then does nothing."""
        seen = []

        def capture(**kwargs):
            seen.append(kwargs)
            return 0

        for command in OWN_FLAGS:
            monkeypatch.setattr(f"fracspec.cli.cmd_{command}", capture)
        return seen

    @pytest.mark.parametrize(
        "key, value",
        [("alpha", "0.6"), ("variant", "caputo"), ("n-min", "3"), ("n-max", "7"),
         ("methods", "asym2, nystrom"), ("m", "300"), ("grid-points", "51"),
         ("out", "somewhere"), ("reference", "integro")],
    )
    def test_file_line_equals_flag(self, key, value, tmp_path, captured):
        # in the config file of every command that has the flag
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        commands = [c for c, flags in OWN_FLAGS.items() if key in flags]
        assert commands
        for command in commands:
            captured.clear()
            assert main([command, "--config", str(cfg)]) == 0
            assert main([command, f"--{key}", value]) == 0
            assert main([command]) == 0
            from_file, from_flag, default = captured
            assert from_file == from_flag != default

    @pytest.mark.parametrize(
        "lines", [("n-max = 7", "n_max = 7"), ("out = od", "output_dir = od"),
                  ("grid-points = 51", "grid_points = 51")],
    )
    def test_both_spellings(self, lines, tmp_path, captured):
        key = lines[0].split("=")[0].strip()
        commands = [c for c, flags in OWN_FLAGS.items() if key in flags]
        assert commands
        for command in commands:
            captured.clear()
            for i, line in enumerate(lines):
                cfg = tmp_path / f"{i}.cfg"
                cfg.write_text(line + "\n")
                assert main([command, "--config", str(cfg)]) == 0
            assert main([command]) == 0
            first, second, default = captured
            assert first == second != default

    @pytest.mark.parametrize(
        "line", ["help = 1", "config = x", "n = 3", "exact = 1", "= 5", "n max = 3"]
    )
    def test_rejected_key(self, line, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert main(["eigenfunction", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"usage error: {cfg}:1:" in err

    @pytest.mark.parametrize(
        "command, line", [("eigenfunction", "n-max = 3"), ("validate", "grid-points = 51")]
    )
    def test_key_of_another_command(self, command, line, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert main([command, "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"usage error: {cfg}:1:" in err

    def test_value_starting_with_dash(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text("out = -dir\n")
        argv = ["spectrum", "--config", "run.cfg", "--n-max", "2", "--methods", "asym1"]
        assert main(argv) == 0
        assert os.listdir(tmp_path / "-dir") == ["spectrum.csv"]

    def test_bad_file_value_fails_under_a_flag(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("variant = bogus\n")
        argv = ["spectrum", "--config", str(cfg), "--variant", "caputo",
                "--n-max", "2", "--methods", "asym1", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "argument --variant: invalid choice: 'bogus'" in capsys.readouterr().err


# Every input the CLI refuses before it makes --out: (command, flags, the
# refused value as stderr names it). A flag of value None takes no value.
_REFUSED = [
    ("spectrum", {"m": "1", "methods": "asym1"}, "m=1"),
    ("spectrum", {"m": "1"}, "m=1"),
    ("eigenfunction", {"m": "1"}, "m=1"),
    ("validate", {"m": "1"}, "m=1"),
    ("spectrum", {"variant": "caputo", "alpha": "0.4", "methods": "nystrom"}, "alpha=0.4"),
    ("validate", {"variant": "caputo", "alpha": "0.4"}, "alpha=0.4"),
    ("spectrum", {"variant": "caputo", "methods": "asym1,integro"}, "caputo"),
    ("spectrum", {"methods": "nystrom", "n-max": "40", "m": "30"}, "n_max=40"),
    ("eigenfunction", {"n": "25", "m": "20"}, "n=25"),
    ("eigenfunction", {"n": "0"}, "got 0"),
    ("validate", {"m": "19"}, "m=19"),
    ("spectrum", {"alpha": "1", "methods": "asym2,integro"}, "alpha=1"),
    ("eigenfunction", {"alpha": "1", "exact": None}, "alpha=1"),
]


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--methods", ""],
            ["spectrum", "--methods", "nystrom,bogus"],
            ["spectrum", "--variant", "caputo", "--alpha", "0.75",
             "--methods", "asym1,integro"],
            ["spectrum", "--alpha", "0.3"],
            ["eigenfunction", "--alpha", "0.75", "--grid-points", "2"],
            ["spectrum", "--alpha", "0.75", "--n-min", "5", "--n-max", "2"],
            ["spectrum", "--alpha", "0.75", "--m", "1"],
            ["eigenfunction", "--n", "0", "--alpha", "0.75"],
            ["spectrum", "--variant", "caputo", "--alpha", "0.4"],
            ["validate", "--variant", "caputo", "--alpha", "0.5"],
            ["spectrum", "--alpha", "1", "--methods", "asym2,integro"],
            ["eigenfunction", "--alpha", "1", "--exact"],
            ["cache", "stat"],
            ["validate", "--alpha", "0.75", "--typo-kernel"],
            ["spectrum", "--config", os.curdir],  # a directory
            ["validate", "--alpha", "0.75", "--m", "19"],  # caputo_endpoint reads f_20
            ["spectrum", "--methods", "nystrom", "--n-max", "40", "--m", "30"],
            ["eigenfunction", "--n", "25", "--m", "20"],
        ],
    )
    def test_exit_two(self, argv, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "usage error:" in err

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_unwritable_out_exits_two(self, out, tmp_path, capsys):
        # --out names an existing file, or a directory under one
        (tmp_path / "afile").write_text("")
        argv = ["spectrum", "--n-max", "2", "--methods", "asym1",
                "--out", str(tmp_path / out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "usage error:" in err

    @pytest.mark.parametrize("command", ["spectrum", "eigenfunction"])
    def test_unwritable_out_fails_before_solving(self, command, tmp_path,
                                                 monkeypatch, capsys):
        def solve(*args, **kwargs):
            raise AssertionError("solved before checking --out")

        monkeypatch.setattr("fracspec.cli.discretize_and_solve", solve)
        (tmp_path / "afile").write_text("")
        assert main([command, "--m", "50", "--out", str(tmp_path / "afile")]) == 2
        err = capsys.readouterr().err
        assert "usage error: cannot write output to" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("where", ["config line", "out flag", "config path"])
    def test_nul_byte_in_a_path_exits_two(self, where, tmp_path, capsys):
        argv = ["spectrum", "--n-max", "2", "--methods", "asym1"]
        if where == "config line":
            cfg = tmp_path / "bad.cfg"
            cfg.write_text("out = a\0b\n")
            argv += ["--config", str(cfg)]
        elif where == "out flag":
            argv += ["--out", str(tmp_path / "x\0y")]
        else:
            argv += ["--config", str(tmp_path / "a\0b.cfg")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "usage error:" in err
        assert "Traceback" not in err

    def test_caputo_low_alpha_asymptotics(self, tmp_path):
        # no Nystrom solve, so alpha <= 1/2 is fine for the asymptotics
        argv = ["spectrum", "--variant", "caputo", "--alpha", "0.4",
                "--n-max", "5", "--methods", "asym1,asym2", "--out", str(tmp_path)]
        assert main(argv) == 0
        _, rows = _rows(tmp_path / "spectrum.csv")
        assert len(rows) == 5

    def test_alpha_one_points_to_asym2(self, tmp_path, capsys):
        argv = ["spectrum", "--alpha", "1", "--methods", "asym2,integro",
                "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "asym2" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("via", ["flags", "config"])
    @pytest.mark.parametrize(
        "command, flags, named", _REFUSED,
        ids=[f"{c}-" + "-".join(f"{k}={v}" for k, v in f.items()) for c, f, _ in _REFUSED],
    )
    def test_refused_input_names_its_value(self, command, flags, named, via, tmp_path,
                                           capsys):
        # refused by the library type that owns the rule (FractionalOrder,
        # NystromGrid, KernelSpec, PhaseTable) or by one of the two rules the
        # CLI keeps, before --out is made; the same from a config file
        out = tmp_path / "out"
        argv, lines = [command, "--out", str(out)], []
        for key, value in flags.items():
            if via == "config" and key not in ("n", "exact"):  # not config keys
                lines.append(f"{key} = {value}")
            else:
                argv += [f"--{key}"] + ([] if value is None else [value])
        if lines:
            (tmp_path / "run.cfg").write_text("\n".join(lines) + "\n")
            argv += ["--config", str(tmp_path / "run.cfg")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        assert named in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag, value",
        [("spectrum", "--grid-points", "51"),
         ("eigenfunction", "--variant", "rl-bridge"),
         ("eigenfunction", "--n-min", "1"),
         ("eigenfunction", "--n-max", "10"),
         ("eigenfunction", "--methods", "asym1"),
         ("eigenfunction", "--reference", "nystrom"),
         ("validate", "--n-min", "1"),
         ("validate", "--n-max", "5"),
         ("validate", "--methods", "asym1,integro"),
         ("validate", "--grid-points", "5"),
         ("validate", "--reference", "integro")],
    )
    def test_flag_the_command_does_not_read(self, command, flag, value, tmp_path,
                                            capsys):
        assert main([command, flag, value, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"usage error: unrecognized arguments: {flag} {value}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", sorted(OWN_FLAGS))
    def test_help_lists_the_command_flags(self, command, capsys):
        assert main([command, "-h"]) == 0
        shown = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        own = {f"--{flag}" for flag in OWN_FLAGS[command]} | {"--config", "--help"}
        if command == "eigenfunction":
            own |= {"--n", "--exact"}
        assert shown == own

    def test_help_exits_zero(self):
        assert main(["-h"]) == 0

    def test_no_subcommand_errors(self):
        assert main([]) != 0


# Cheap argvs only: every draw passes --methods from a list without nystrom
# and integro, so no solver runs and n stays small. Valid values are drawn
# more often than bad ones, so that some draws also get through to a run.
def _mostly(good, bad):
    return st.sampled_from(good * 3 + bad)


_SMALL_INT = _mostly(["1", "2", "5"], ["0", "-3", "2.5", "x", ""])
_FLAGS = {
    "--alpha": _mostly(
        ["0.75", "0.6", "0.9", "1"],
        ["0.5", "0.3", "0", "-1", "1.5", "nan", "inf", "abc"],
    ),
    "--variant": _mostly(["rl-bridge", "caputo"], ["bogus"]),
    "--n-min": _SMALL_INT,
    "--n-max": _SMALL_INT,
    "--reference": _mostly(["nystrom", "integro"], ["bogus"]),
}
_CONFIG_VALUES = {
    "alpha": st.text(alphabet="0123456789.-+eainfx ", max_size=6),
    "variant": _mostly(["rl-bridge", "caputo"], ["bogus", ""]),
    "methods": st.text(alphabet="asym12nytroigbu, ", max_size=12),
    "reference": _mostly(["nystrom", "integro"], [""]),
    "n-min": _SMALL_INT,
    "n-max": _SMALL_INT,
    "m": _mostly(["2", "500"], ["1", "abc"]),
    "grid-points": _mostly(["11", "101"], ["2", "x"]),
    "grid_points": _mostly(["11", "101"], ["2", "x"]),
    "out": _mostly(["od"], ["", "-dir", "a\0b"]),
    "output_dir": _mostly(["od"], ["", "-dir"]),
    "bogus": st.just("1"),
    "help": st.just("1"),
    "config": st.just("x"),
}
_CONFIG_LINE = st.one_of(
    st.sampled_from(sorted(_CONFIG_VALUES)).flatmap(
        lambda key: _CONFIG_VALUES[key].map(lambda v: f"{key} = {v}")
    ),
    st.sampled_from(["", "# comment", "no equals sign", "= 5"]),
)


class TestFuzzMain:
    @settings(max_examples=150, deadline=None)
    @given(
        command=_mostly(["spectrum"], ["bogus"]),
        methods=_mostly(
            ["asym1", "asym2", "asym1,asym2"], ["", ",", "bogus", "nystrom,bogus"]
        ),
        flags=st.dictionaries(st.sampled_from(sorted(_FLAGS)), st.none()).flatmap(
            lambda d: st.fixed_dictionaries({k: _FLAGS[k] for k in d})
        ),
        config=st.none() | st.lists(_CONFIG_LINE, max_size=3),
        extra=_mostly([[]], [["--bogus-flag"], ["stray"]]),
    )
    def test_exit_code_documented(
        self, tmp_path_factory, command, methods, flags, config, extra
    ):
        out = tmp_path_factory.getbasetemp() / "fuzz"
        argv = [command, "--methods", methods, "--out", str(out), *extra]
        for flag, value in flags.items():
            argv += [flag, value]
        if config is not None:
            path = out.parent / "fuzz.cfg"
            path.write_text("\n".join(config) + "\n")
            argv += ["--config", str(path)]
        assert main(argv) in (0, 1, 2, 3)
