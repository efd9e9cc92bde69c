"""Tests for the command-line interface."""

import json

import pytest

from repro import cli


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr().out
    return rc, out


class TestTables:
    def test_table2(self, capsys):
        rc, out = run_cli(capsys, "table", "2")
        assert rc == 0 and "Unique Coefficients" in out

    def test_table4(self, capsys):
        rc, out = run_cli(capsys, "table", "4")
        assert rc == 0 and "8.3750" in out

    def test_table3(self, capsys):
        rc, out = run_cli(capsys, "table", "3")
        assert rc == 0 and "fraction of Roofline" in out and "overall" in out

    def test_table5(self, capsys):
        rc, out = run_cli(capsys, "table", "5")
        assert rc == 0 and "theoretical AI" in out

    def test_bad_table(self):
        with pytest.raises(SystemExit):
            cli.main(["table", "6"])


class TestResilienceFlags:
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_task_timeout_rejected(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            cli.main(["study", "--task-timeout", value])
        assert exc.value.code == 2
        assert "argument --task-timeout" in capsys.readouterr().err


class TestFigures:
    def test_fig4(self, capsys):
        rc, out = run_cli(capsys, "figure", "4")
        assert rc == 0 and "L1 data movement" in out

    def test_fig5_ascii(self, capsys):
        rc, out = run_cli(capsys, "figure", "5", "--ascii")
        assert rc == 0
        assert "CUDA (y) vs SYCL (x)" in out
        assert "=bricks_codegen" in out  # legend

    def test_fig3_ascii(self, capsys):
        rc, out = run_cli(capsys, "figure", "3", "--ascii")
        assert rc == 0 and "Roofline: A100-CUDA" in out

    def test_fig7(self, capsys):
        rc, out = run_cli(capsys, "figure", "7")
        assert rc == 0 and "potential" in out


class TestSimulate:
    def test_simulate_defaults(self, capsys):
        rc, out = run_cli(
            capsys, "simulate", "--stencil", "13pt", "--arch", "A100",
            "--model", "CUDA",
        )
        assert rc == 0
        assert "13pt/bricks_codegen" in out
        assert "hbm-bound" in out

    def test_simulate_custom_domain(self, capsys):
        rc, out = run_cli(
            capsys, "simulate", "--stencil", "7pt", "--arch", "PVC",
            "--model", "SYCL", "--variant", "array", "--domain",
            "128", "128", "128",
        )
        assert rc == 0 and "7pt/array" in out

    def test_unsupported_platform_combination(self):
        with pytest.raises(Exception):
            cli.main(["simulate", "--stencil", "7pt", "--arch", "PVC",
                      "--model", "CUDA"])


class TestEmit:
    def test_emit_cuda(self, capsys):
        rc, out = run_cli(capsys, "emit", "--stencil", "13pt", "--model", "CUDA")
        assert rc == 0 and "__shfl_down_sync" in out

    def test_emit_avx512(self, capsys):
        rc, out = run_cli(
            capsys, "emit", "--stencil", "7pt", "--model", "AVX512",
            "--vector-length", "8",
        )
        assert rc == 0 and "_mm512_fmadd_pd" in out

    def test_emit_array_layout(self, capsys):
        rc, out = run_cli(
            capsys, "emit", "--stencil", "7pt", "--model", "HIP",
            "--layout", "array",
        )
        assert rc == 0 and "in_g[IDX(" in out


class TestStudyAndTune:
    def test_study_with_outputs(self, capsys, tmp_path):
        csv_path = tmp_path / "s.csv"
        json_path = tmp_path / "s.json"
        rc, out = run_cli(
            capsys, "study", "--csv", str(csv_path), "--json", str(json_path)
        )
        assert rc == 0
        assert "90 kernel runs" in out
        assert csv_path.read_text().count("\n") == 91
        doc = json.loads(json_path.read_text())
        assert len(doc["results"]) == 90

    def test_tune(self, capsys):
        rc, out = run_cli(
            capsys, "tune", "--stencil", "7pt", "--arch", "MI250X",
            "--model", "HIP",
        )
        assert rc == 0
        assert "best configuration" in out and "top 5" in out
