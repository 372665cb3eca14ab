import pytest
from click.testing import CliRunner

from discoverfriends import cli
from discoverfriends.scenarios import (
    ScenarioConfig,
    load_config,
    run_adversary,
    run_chat,
    run_checkin,
    run_discover,
    run_loadtest,
)


def _small_discover():
    return ScenarioConfig(
        kind="discover", seed=3, friend_sizes=(12, 24), connected=4, bystanders=2
    )


def _small_checkin():
    return ScenarioConfig(
        kind="checkin", seed=3, input_bits=6, output_len=32,
        servers=2, clients=3, message_sizes=(16, 32),
    )


def _small_loadtest():
    return ScenarioConfig(
        kind="loadtest", seed=3, hops=(1, 2, 3),
        loads_mbps=(4.0, 8.0, 10.0, 24.0), duration_s=0.25,
    )


def _small_adversary():
    return ScenarioConfig(kind="adversary", seed=3, epochs=8, trials=20)


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(kind="discover", connected=0).validate()
    with pytest.raises(ValueError):
        ScenarioConfig(kind="checkin", servers=4).validate()
    with pytest.raises(ValueError):
        ScenarioConfig(kind="loadtest", hops=(5,)).validate()
    with pytest.raises(ValueError):
        ScenarioConfig(kind="discover", fpp=1.5).validate()


def test_config_file_round_trip(tmp_path):
    cfg = _small_discover()
    path = tmp_path / "scenario.ini"
    path.write_text(cfg.ini_text())
    loaded = load_config(str(path), kind="discover")
    assert loaded == cfg


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[scenario]\nwarp_speed = 9\n")
    with pytest.raises(ValueError):
        load_config(str(path), kind="discover")


def test_seed_override(tmp_path):
    path = tmp_path / "s.ini"
    path.write_text(_small_discover().ini_text())
    cfg = load_config(str(path), kind="discover", seed=99)
    assert cfg.seed == 99


def test_discover_scenario_passes_and_reports():
    report = run_discover(_small_discover())
    assert report.failures == []
    text = report.render()
    assert "STATUS: PASS" in text
    assert "keystore" in text
    assert any(name.startswith("trace_discover") for name in report.traces)
    assert all(lines for lines in report.traces.values())


def test_discover_keystore_independence_small():
    report = run_discover(_small_discover())
    rows = dict(
        (metric, value)
        for title, rws in report.sections
        for metric, value, _ in rws
        if title == "keystore"
    )
    assert "ok" in rows["stored_bytes_constant"]
    assert "ok" in rows["abe_model_scaling"]


def test_chat_scenario_round_trips():
    cfg = ScenarioConfig(
        kind="chat", seed=5, friend_sizes=(8,), connected=3, bystanders=1, messages=2
    )
    report = run_chat(cfg)
    assert report.failures == []


def test_checkin_scenario_recovers_messages():
    report = run_checkin(_small_checkin())
    assert report.failures == []
    assert "timings.csv" in report.side_files
    assert len(report.side_files["timings.csv"]) >= 3


def test_loadtest_scenario_orders_and_onsets():
    report = run_loadtest(_small_loadtest())
    assert report.failures == []
    assert "sweep.csv" in report.traces
    assert len(report.traces["sweep.csv"]) == 1 + 3 * 4  # header + hops*loads


def test_adversary_scenario_all_defenses_hold():
    report = run_adversary(_small_adversary())
    assert report.failures == []
    text = report.render()
    assert "replay_acceptances" in text
    assert "data_messages_decrypted_by_eve" in text
    assert "messages_recovered_by_collusion" in text


def test_reports_are_reproducible():
    a = run_discover(_small_discover())
    b = run_discover(_small_discover())
    assert a.render() == b.render()
    assert a.traces == b.traces


def test_report_write_and_csv(tmp_path):
    report = run_checkin(_small_checkin())
    path = report.write(tmp_path / "out")
    assert path.read_text() == report.render()
    csv = (tmp_path / "out" / "results.csv").read_text()
    assert csv.splitlines()[0] == "section,metric,value,reference"
    assert (tmp_path / "out" / "timings.csv").exists()


def test_cli_runs_and_writes(tmp_path):
    runner = CliRunner()
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(_small_checkin().ini_text())
    result = runner.invoke(
        cli.main,
        ["checkin", "--config", str(cfg_path), "--out", str(tmp_path / "run")],
    )
    assert result.exit_code == 0, result.output
    assert "STATUS: PASS" in result.output
    assert (tmp_path / "run" / "report.txt").exists()

    shown = runner.invoke(cli.main, ["report", "--out", str(tmp_path / "run")])
    assert shown.exit_code == 0
    assert "STATUS: PASS" in shown.output


def test_cli_rejects_bad_config(tmp_path):
    runner = CliRunner()
    cfg_path = tmp_path / "bad.ini"
    cfg_path.write_text("[scenario]\nconnected = 0\n")
    result = runner.invoke(cli.main, ["discover", "--config", str(cfg_path)])
    assert result.exit_code != 0


def test_cli_rejects_unknown_log_level(tmp_path):
    runner = CliRunner()
    # Any case is accepted: the run reaches the command, which finds no reports.
    result = runner.invoke(cli.main, ["--log-level", "debug", "report", "--out", str(tmp_path)])
    assert result.exit_code == 1
    assert "no report.txt found" in result.output
    result = runner.invoke(cli.main, ["--log-level", "debgu", "report", "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert "debgu" in result.output
    result = runner.invoke(
        cli.main, ["report", "--out", str(tmp_path)], env={"DISCOVERFRIENDS_LOG": "debgu"}
    )
    assert result.exit_code == 2
    assert "debgu" in result.output


def test_cli_report_requires_existing_reports(tmp_path):
    runner = CliRunner()
    result = runner.invoke(cli.main, ["report", "--out", str(tmp_path)])
    assert result.exit_code != 0


def test_cli_exits_nonzero_on_failed_assertion(tmp_path):
    # An unreachable loss-onset target makes the loadtest check fail.
    cfg = _small_loadtest()
    cfg.onset_target_mbps = 2.0
    cfg_path = tmp_path / "failing.ini"
    cfg_path.write_text(cfg.ini_text())
    runner = CliRunner()
    result = runner.invoke(
        cli.main,
        ["loadtest", "--config", str(cfg_path), "--out", str(tmp_path / "run")],
    )
    assert result.exit_code == 1
    assert "STATUS: FAIL" in result.output

    shown = runner.invoke(cli.main, ["report", "--out", str(tmp_path / "run")])
    assert shown.exit_code == 1
