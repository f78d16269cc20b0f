"""Unit tests for the phos command-line tool."""

import pytest

from repro.core.cli import build_parser, main


def test_no_command_prints_help(capsys):
    assert main([]) == 1
    assert "phos" in capsys.readouterr().out


def test_apps_lists_all_models(capsys):
    assert main(["apps"]) == 0
    out = capsys.readouterr().out
    for name in ("resnet152-train", "llama2-13b-infer", "llama3-70b-infer"):
        assert name in out


def test_checkpoint_command(capsys):
    assert main(["checkpoint", "--app", "ppo-train", "--mode", "cow",
                 "--steps", "2"]) == 0
    out = capsys.readouterr().out
    assert "application stall" in out
    assert "checkpoint report" in out
    assert "GPU state" in out


@pytest.mark.parametrize("flow, mode, shown", [
    # --rounds reaches --mode continuous (the protocol's own default is 2).
    (["--mode", "continuous", "--rounds", "3"], "continuous",
     "stream report: 3 round(s) committed"),
    (["--incremental"], "incremental", "delta parent       : chain-root"),
], ids=["continuous", "incremental"])
def test_checkpoint_obs_label_names_the_resolved_mode(capsys, flow, mode,
                                                      shown):
    assert main(["checkpoint", "--app", "resnet152-infer", "--steps", "1",
                 "--obs", *flow]) == 0
    out = capsys.readouterr().out
    assert f"app=resnet152-infer mode={mode}" in out
    assert f"observability report: resnet152-infer {mode} ----" in out
    assert shown in out


@pytest.mark.parametrize("steps", ["0", "-1"])
def test_checkpoint_rejects_non_positive_steps(capsys, steps):
    assert main(["checkpoint", "--steps", steps]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"phos checkpoint: steps must be at least 1, got {steps}\n"


def test_checkpoint_has_one_continuous_selector():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["checkpoint", "--continuous"])


def test_checkpoint_stop_world(capsys):
    assert main(["checkpoint", "--app", "resnet152-train",
                 "--mode", "stop-world", "--steps", "1"]) == 0
    assert "stall" in capsys.readouterr().out


def test_restore_command(capsys):
    assert main(["restore", "--app", "resnet152-infer"]) == 0
    out = capsys.readouterr().out
    assert "time until runnable" in out


def test_restore_stop_world(capsys):
    assert main(["restore", "--app", "resnet152-infer", "--stop-world"]) == 0
    assert "stop-the-world" in capsys.readouterr().out


def test_migrate_command(capsys):
    assert main(["migrate", "--app", "resnet152-train",
                 "--system", "phos"]) == 0
    assert "downtime" in capsys.readouterr().out


def test_migrate_unsupported_returns_error(capsys):
    assert main(["migrate", "--app", "llama2-13b-train",
                 "--system", "cuda-checkpoint"]) == 1


def test_bench_command(capsys):
    assert main(["bench", "--exp", "tab03"]) == 0
    assert "rodinia" in capsys.readouterr().out


def test_bench_jobs_zero_is_an_error_not_a_serial_run(capsys):
    assert main(["bench", "--exp", "tab03", "--jobs", "0"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "phos bench: --jobs=0 is not an integer >= 1\n"


@pytest.mark.parametrize("argv, message", [
    (["migrate", "--system", "singularity", "--clock-domains"],
     "clock_domains migration is only modelled for system='phos'; "
     "the baselines run inline on one engine"),
    # The fleet's checks run inside a parallel cell, which wraps them
    # in a CellError.
    (["fleet", "--machines", "0"], "a fleet needs at least one machine, got 0"),
    (["fleet", "--rate", "-1"],
     "trace rate must be a positive finite number, got -1.0"),
], ids=["migrate-clock-domains", "fleet-no-machines", "fleet-negative-rate"])
def test_bad_argument_is_one_line_on_stderr(capsys, argv, message):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"phos {argv[0]}: {message}\n"


def test_other_errors_still_raise(monkeypatch):
    """Only a bad argument becomes a one-line error; a fault does not."""
    from repro.core import cli
    from repro.errors import SimulationError
    from repro.parallel import Cell, CellError

    def boom(args):
        raise CellError(Cell("apps", ("c",)), SimulationError("stuck"))

    monkeypatch.setattr(cli, "cmd_apps", boom)
    with pytest.raises(CellError, match="stuck"):
        main(["apps"])


def test_invalid_app_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["checkpoint", "--app", "not-a-model"])
