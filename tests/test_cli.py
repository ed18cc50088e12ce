import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracspec.integro
from fracspec.cli import _write_text, main
from fracspec.errors import BracketError

HEADER = (
    "n,lambda_asym1,lambda_asym2,lambda_nystrom,lambda_integro,"
    "relerr_asym1,relerr_asym2,regime"
)


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
        def boom(n, alpha, table=None, scan_points=33):
            raise BracketError("no sign change (forced)")

        monkeypatch.setattr("fracspec.cli.refine_rho", boom)
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

        def counting(rho, table):
            rhos.append(float(rho))
            return solve(rho, table)

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
        assert header.endswith(",f_exact")
        data = np.array([[float(v) for v in r] for r in rows])
        assert np.max(np.abs(data[:, 4] - data[:, 1])) < 1e-2
        # the reconstruction reuses the refined root's solution
        assert len(rhos) == len(set(rhos))

    def test_caputo_rejected(self, tmp_path):
        rc = main(
            ["eigenfunction", "--n", "3", "--variant", "caputo",
             "--alpha", "0.75", "--out", str(tmp_path)]
        )
        assert rc == 2


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

        # the cli calls it directly, caputo_endpoint_value through nystrom
        monkeypatch.setattr("fracspec.cli.discretize_and_solve", counted)
        monkeypatch.setattr(nystrom, "discretize_and_solve", counted)
        rc = main(["validate", "--alpha", "0.75", "--m", "600"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") == 7
        assert "FAIL" not in out
        # orthonormality and mercer_trace share the one m = 600 solve
        assert solves.count((0.75, nystrom.KernelKind.BRIDGE, 600)) == 1
        assert len(solves) == 6


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

    @pytest.mark.parametrize("line", ["m = abc", "alpha = 0.7x", "n-max = 2.5"])
    def test_non_numeric_value(self, line, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert main(["spectrum", "--config", str(cfg)]) == 2
        assert "usage error:" in capsys.readouterr().err


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--methods", ""],
            ["spectrum", "--methods", "nystrom,bogus"],
            ["spectrum", "--variant", "caputo", "--alpha", "0.75",
             "--methods", "asym1,integro"],
            ["spectrum", "--alpha", "0.3"],
            ["spectrum", "--alpha", "0.75", "--grid-points", "2"],
            ["spectrum", "--alpha", "0.75", "--n-min", "5", "--n-max", "2"],
            ["spectrum", "--alpha", "0.75", "--m", "1"],
            ["eigenfunction", "--n", "0", "--alpha", "0.75"],
            ["spectrum", "--variant", "caputo", "--alpha", "0.4"],
            ["validate", "--variant", "caputo", "--alpha", "0.5"],
            ["spectrum", "--alpha", "1", "--methods", "asym2,integro"],
            ["eigenfunction", "--alpha", "1", "--exact"],
            ["cache", "stat"],
            ["validate", "--alpha", "0.75", "--typo-kernel"],
        ],
    )
    def test_exit_two(self, argv, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "usage error:" in err

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
    "--grid-points": _mostly(["11", "101"], ["2", "x"]),
}
_CONFIG_VALUES = {
    "alpha": st.text(alphabet="0123456789.-+eainfx ", max_size=6),
    "variant": _mostly(["rl-bridge", "caputo"], ["bogus", ""]),
    "methods": st.text(alphabet="asym12nytroigbu, ", max_size=12),
    "reference": _mostly(["nystrom", "integro"], [""]),
    "n-min": _SMALL_INT,
    "n-max": _SMALL_INT,
    "m": _mostly(["2", "500"], ["1", "abc"]),
    "bogus": st.just("1"),
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
