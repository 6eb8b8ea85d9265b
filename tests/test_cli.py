"""Tests for the command-line entry points."""

import pytest

from repro.cli import main_flow, main_table1


class TestTable1Command:
    def test_single_dataset_fast(self, capsys):
        exit_code = main_table1(["--datasets", "redwine", "--fast", "--samples", "220"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "redwine" in out
        assert "Energy" in out
        assert "energy_improvement_average" in out

    def test_invalid_dataset_rejected(self):
        with pytest.raises(SystemExit):
            main_table1(["--datasets", "imagenet"])

    @pytest.mark.parametrize("engine", ["fused", "interp", "codegen"])
    def test_retired_engine_rejected(self, capsys, engine):
        with pytest.raises(SystemExit) as excinfo:
            main_table1(["--datasets", "redwine", "--fast", "--engine", engine])
        assert excinfo.value.code == 2
        assert f"invalid choice: '{engine}'" in capsys.readouterr().err

    def test_jobs_and_cache_dir_flags(self, tmp_path, capsys):
        """A sharded cold run persists results; the warm rerun matches it."""
        from repro.core.design_flow import clear_flow_cache, training_run_count

        args = [
            "--datasets", "redwine",
            "--fast", "--samples", "220",
            "--jobs", "2",
            "--cache-dir", str(tmp_path),
        ]
        assert main_table1(args) == 0
        cold_out = capsys.readouterr().out
        assert list(tmp_path.glob("flow-*.pkl"))  # results were persisted

        clear_flow_cache()
        before = training_run_count()
        assert main_table1(args) == 0
        warm_out = capsys.readouterr().out
        assert training_run_count() == before  # warm run retrained nothing
        assert warm_out == cold_out

    def test_no_cache_flag_disables_persistence(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main_table1(
            ["--datasets", "redwine", "--fast", "--samples", "220", "--no-cache"]
        ) == 0
        assert not list(tmp_path.glob("flow-*.pkl"))


class TestFlowCommand:
    def test_sequential_flow_report(self, capsys):
        exit_code = main_flow(["redwine", "ours", "--fast", "--samples", "220"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Ours" in out
        assert "weight bits used" in out

    def test_verilog_export(self, tmp_path, capsys):
        target = tmp_path / "design.v"
        exit_code = main_flow(
            ["redwine", "ours", "--fast", "--samples", "220", "--verilog", str(target)]
        )
        assert exit_code == 0
        text = target.read_text()
        assert "module" in text and "endmodule" in text

    def test_verilog_export_unsupported_for_baselines(self, tmp_path):
        target = tmp_path / "baseline.v"
        exit_code = main_flow(
            ["redwine", "mlp_parallel", "--fast", "--samples", "220", "--verilog", str(target)]
        )
        assert exit_code == 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(SystemExit):
            main_flow(["redwine", "transformer"])
