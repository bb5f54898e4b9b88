"""Command-line interface: every subcommand must run and print sanely."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("command",
                             ["table1", "table2", "figure3", "figure4",
                              "solve", "mttf", "validate", "diagnose"])
    def test_table_commands_are_gone(self, command, capsys):
        # scripts/run_paper_grid.py is the one path to the tables; the
        # one-off commands were wrappers of library calls that stay
        # (analysis.runner.solve, mean_time_to_absorption,
        # cross_validate, compare_regenerative_states).
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--no-fuse", "--no-memoize"])
    def test_batch_run_policy_flags_are_gone(self, flag):
        # The planned path, fused and memoized, is the only batch path.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["batch", "run", "--queue", "q", flag])

    def test_batch_run_backend_flag_is_gone(self):
        # The pool shape is --workers alone: 1 runs inline.
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["batch", "run", "--queue", "q", "--backend", "serial"])


class TestBatchCommands:
    """submit → run (in two halves, fresh process state between) →
    status → collect, all through the CLI surface."""

    def test_queue_lifecycle(self, capsys, tmp_path):
        qdir = str(tmp_path / "q")
        rc = main(["batch", "submit", "--queue", qdir, "--groups", "2",
                   "--times", "1", "10"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "submitted 4 jobs" in out

        rc = main(["batch", "run", "--queue", qdir, "--limit", "2",
                   "--checkpoint", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "processed 2 jobs (0 failed); 2 still pending" in out

        rc = main(["batch", "status", "--queue", qdir])
        out = capsys.readouterr().out
        assert rc == 0
        assert "4 submitted, 2 completed (0 failed), 2 pending" in out

        # collect refuses a partial queue: runtime failure (1), not a
        # usage error (2), with the reason on stderr.
        rc = main(["batch", "collect", "--queue", qdir])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error:" in err and "pending" in err

        rc = main(["batch", "run", "--queue", qdir])
        assert rc == 0
        capsys.readouterr()

        json_path = str(tmp_path / "out.json")
        rc = main(["batch", "collect", "--queue", qdir,
                   "--json", json_path])
        out = capsys.readouterr().out
        assert rc == 0
        assert "4 outcomes" in out and "ok" in out
        import json as _json

        payload = _json.loads(open(json_path).read())
        assert len(payload["outcomes"]) == 4
        assert all(o["schema_version"] == 1 for o in payload["outcomes"])

    def test_submit_scenarios_sweep(self, capsys, tmp_path):
        qdir = str(tmp_path / "q")
        rc = main(["batch", "submit", "--queue", qdir,
                   "--scenarios", "birth_death", "--methods", "RRL"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "scenario sweep" in out

    def test_status_missing_queue_errors(self, capsys, tmp_path):
        rc = main(["batch", "status", "--queue",
                   str(tmp_path / "missing")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error:" in err and "nothing to resume" in err

    def test_bad_checkpoint_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc_info:
            main(["batch", "run", "--queue", str(tmp_path / "q"),
                  "--checkpoint", "0"])
        assert exc_info.value.code == 2  # argparse, not a traceback

    def test_submit_to_file_path_errors_cleanly(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        rc = main(["batch", "submit", "--queue", str(blocker),
                   "--quick"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error:" in err and "cannot create" in err
