"""Scenario file parsing, output files, and the command-line entry point."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cogmesh
from cogmesh.cli import (
    RunRequest,
    main,
    parse_scenario,
    run_compare,
    run_single,
    run_sweep,
)
from cogmesh.engine import ConfigError


def write(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


BASIC = """
# small deterministic scenario
su_count = 8
channel_count = 2
duration_ticks = 300
metrics_period = 25
seed = 7
"""


class TestParseScenario:
    def test_defaults_fill_missing_keys(self, tmp_path):
        cfg = parse_scenario(write(tmp_path, "su_count = 10\n"))
        assert cfg.su_count == 10
        assert cfg.channel_count == 8
        assert cfg.reward_b == pytest.approx(math.pi / 2)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        cfg = parse_scenario(write(
            tmp_path, "\n# comment\nsu_count = 4  # trailing\n\n"))
        assert cfg.su_count == 4

    def test_unknown_key_names_line(self, tmp_path):
        path = write(tmp_path, "su_count = 4\nbogus = 1\n")
        with pytest.raises(ConfigError, match="bogus"):
            parse_scenario(path)

    def test_out_of_range_names_key(self, tmp_path):
        with pytest.raises(ConfigError, match="su_count"):
            parse_scenario(write(tmp_path, "su_count = -1\n"))

    def test_malformed_line_reports_position(self, tmp_path):
        path = write(tmp_path, "su_count = 4\nnonsense\n")
        with pytest.raises(ConfigError, match=":2"):
            parse_scenario(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write(tmp_path, "su_count = 4\nsu_count = 5\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_scenario(path)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError, match="unreadable"):
            parse_scenario(str(tmp_path / "missing.cfg"))

    def test_zero_duration_rejected_at_parse(self, tmp_path):
        with pytest.raises(ConfigError, match="duration_ticks"):
            parse_scenario(write(tmp_path, "duration_ticks = 0\n"))


class TestRunSingle:
    def test_writes_expected_files(self, tmp_path):
        cfg_path = write(tmp_path, BASIC)
        out = tmp_path / "out"
        req = RunRequest(config_path=cfg_path, out_dir=str(out))
        result = run_single(req)
        for name in ("metrics.csv", "events.log", "summary.txt", "config.txt"):
            assert (out / name).exists()
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == ("tick,stddev,largest_cloud,cluster_count,"
                            "count_ch0,count_ch1")
        assert len(lines) - 1 == 300 // 25
        for line in lines[1:]:
            assert len(line.split(",")) == 4 + 2
        assert len(result.samples) == 12

    def test_rerun_is_bit_identical(self, tmp_path):
        cfg_path = write(tmp_path, BASIC)
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            run_single(RunRequest(config_path=cfg_path, out_dir=str(out)))
            outs.append({name: (out / name).read_bytes()
                         for name in ("metrics.csv", "events.log",
                                      "summary.txt", "config.txt")})
        assert outs[0] == outs[1]

    def test_overrides_apply_after_parsing(self, tmp_path):
        cfg_path = write(tmp_path, BASIC)
        out = tmp_path / "o"
        req = RunRequest(config_path=cfg_path, out_dir=str(out), seed=99,
                         ticks=100, swarm="off")
        result = run_single(req)
        assert result.config.seed == 99
        assert result.config.duration_ticks == 100
        assert result.config.swarm_enabled is False
        assert "seed = 99" in (out / "config.txt").read_text()


class TestSweepAndCompare:
    def test_sweep_writes_per_seed_and_summary(self, tmp_path):
        cfg_path = write(tmp_path, BASIC)
        out = tmp_path / "sweep"
        req = RunRequest(config_path=cfg_path, out_dir=str(out),
                         seeds=(1, 2))
        results = run_sweep(req)
        assert len(results) == 2
        assert (out / "sweep.csv").exists()
        assert (out / "seed_1" / "metrics.csv").exists()
        assert (out / "seed_2" / "metrics.csv").exists()

    def test_compare_needs_two_seeds(self, tmp_path):
        cfg_path = write(tmp_path, BASIC)
        req = RunRequest(config_path=cfg_path, out_dir=str(tmp_path / "c"),
                         seeds=(1,))
        with pytest.raises(ConfigError, match="seeds"):
            run_compare(req)

    def test_compare_table_shape(self, tmp_path):
        cfg_path = write(tmp_path, BASIC)
        out = tmp_path / "cmp"
        req = RunRequest(config_path=cfg_path, out_dir=str(out),
                         seeds=(1, 2))
        rows, means = run_compare(req)
        assert len(rows) == 2 and len(means) == 4
        lines = (out / "compare.csv").read_text().splitlines()
        assert lines[0] == ("seed,stddev_on,stddev_off,"
                            "largest_cloud_on,largest_cloud_off")
        assert len(lines) == 4
        assert lines[-1].startswith("mean,")


class TestMain:
    def test_run_command_succeeds(self, tmp_path, capsys):
        cfg_path = write(tmp_path, BASIC)
        code = main(["run", "--config", cfg_path, "--ticks", "150",
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert "run complete" in capsys.readouterr().out

    # a bad value, and a key that the superframe bound's removal made unknown
    @pytest.mark.parametrize("key, value", [
        ("su_count", "-3"), ("max_superframe_ticks", "32")])
    def test_error_exits_nonzero_with_diagnostic(self, tmp_path, capsys,
                                                 key, value):
        bad = write(tmp_path, f"{key} = {value}\n")
        code = main(["run", "--config", bad, "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err

    def test_invalid_override_exits_nonzero_before_writing(self, tmp_path,
                                                           capsys):
        cfg_path = write(tmp_path, BASIC)
        out = tmp_path / "out"
        code = main(["run", "--config", cfg_path, "--ticks", "0",
                     "--out", str(out)])
        assert code == 1
        assert "duration_ticks" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("alpha", "nan"), ("pu_power", "inf"), ("area_height", "1e400")])
    def test_non_finite_value_names_the_key_once(self, tmp_path, capsys,
                                                 key, value):
        bad = write(tmp_path, f"{key} = {value}\n")
        out = tmp_path / "out"
        code = main(["run", "--config", bad, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count(f"{key}:") == 1 and bad in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_missing_file_exits_nonzero(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "out")])
        assert code == 1

    def test_non_utf8_file_exits_nonzero_naming_it(self, tmp_path, capsys):
        bad = tmp_path / "latin.cfg"
        bad.write_bytes(b"su_count = 8\n# caf\xff\n")
        code = main(["run", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [
        ["run", "--ticks", "100"],
        ["sweep", "--seeds", "1,2", "--ticks", "100"],
        ["compare", "--seeds", "1,2", "--ticks", "100"],
    ])
    def test_no_file_access_depends_on_the_locale(self, tmp_path, command):
        # every read and write names its encoding, so none warns when the
        # locale's default would have been used
        cfg_path = write(tmp_path, BASIC)
        src = str(Path(cogmesh.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding",
             "-W", "error::EncodingWarning", "-m", "cogmesh.cli",
             command[0], "--config", cfg_path, *command[1:],
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, encoding="utf-8", env=env)
        assert proc.returncode == 0, proc.stderr
        assert "EncodingWarning" not in proc.stderr

    def test_compare_command_prints_table(self, tmp_path, capsys):
        cfg_path = write(tmp_path, BASIC)
        code = main(["compare", "--config", cfg_path, "--seeds", "1,2",
                     "--ticks", "200", "--out", str(tmp_path / "cmp")])
        assert code == 0
        out = capsys.readouterr().out
        assert "stddev_on" in out and "mean" in out

    def test_bad_seed_list(self, tmp_path, capsys):
        cfg_path = write(tmp_path, BASIC)
        code = main(["sweep", "--config", cfg_path, "--seeds", "1,x",
                     "--out", str(tmp_path / "s")])
        assert code == 1
