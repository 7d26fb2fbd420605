"""End-to-end checks of the vanetsim console entry point."""

import json
import os
from importlib import resources

import pytest

from vanetsim import cli, tracewriter
from vanetsim.cli import main

MINI_DOC = {
    "name": "mini",
    "duration": 6,
    "seed": 7,
    "field": [1000, 600],
    "placements": [[0, [100, 300]], [1, [300, 300]], [2, [500, 300]]],
    "flows": [{"flow": "f0", "src": 0, "sink": 2, "start_t": 0.5,
               "send_interval": 0.2, "max_packets": 5}],
    "protocol_params": {"dsdv": {"update_interval": 1.0}},
}


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(MINI_DOC))
    return path


def test_run_subcommand_writes_artifacts(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(scenario_file), "--out", str(out)])
    assert code == 0
    assert (out / "trace.txt").is_file()
    assert (out / "summary.csv").is_file()
    assert (out / "metrics" / "f0" / "throughput.dat").is_file()
    stdout = capsys.readouterr().out
    assert "scenario: mini" in stdout
    assert "flow f0:" in stdout


def test_run_accepts_overrides(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(scenario_file),
                 "--protocol", "dsdv", "--seed", "3", "--duration", "12",
                 "--range", "300", "--window", "2", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "protocol: DSDV" in stdout
    assert "seed: 3" in stdout
    assert "duration: 12" in stdout


def test_builtin_run_requires_protocol(tmp_path, capsys):
    code = main(["run", "--scenario", "long-distance",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "--protocol" in capsys.readouterr().err


def test_builtin_and_its_document_write_equal_bytes(tmp_path, capsys):
    document = resources.files("vanetsim").joinpath("long-distance.json")
    for scenario, out in (("long-distance", "builtin"),
                          (str(document), "document")):
        assert main(["run", "--scenario", scenario, "--protocol", "aodv",
                     "--duration", "5", "--out", str(tmp_path / out)]) == 0
    for rel in ("trace.txt", "summary.csv", "report.txt"):
        assert ((tmp_path / "builtin" / rel).read_bytes()
                == (tmp_path / "document" / rel).read_bytes()), rel


def test_unknown_scenario_is_a_validation_error(tmp_path, capsys):
    code = main(["run", "--scenario", "no-such-thing",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "no-such-thing" in err
    assert "long-distance" in err


def test_invalid_document_is_a_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"placements": [], "flows": []}))
    code = main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "placements" in capsys.readouterr().err


def test_deeply_nested_document_is_a_validation_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    code = main(["run", "--scenario", str(deep), "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "error: scenario document is not valid JSON: ")


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("args, flag", [
    (["--seed", "x"], "--seed"),
    (["--duration", "abc"], "--duration"),
    (["--window"], "--window"),
    (["--protocol", "ospf"], "--protocol"),
    (["--range", "far"], "--range"),
    (["--bogus"], "--bogus"),
])
def test_malformed_flag_is_a_validation_error(scenario_file, tmp_path, capsys,
                                              command, args, flag):
    """A flag argparse cannot read exits 1, as every validation error
    does, with one 'error: ' line naming it."""
    out = tmp_path / "out"
    code = main([command, "--scenario", str(scenario_file), "--out", str(out),
                 *args])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert flag in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [[], ["simulate"], ["trace-parse"]])
def test_usage_error_is_a_validation_error(argv, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["run", "--help"])
    assert exit_.value.code == 0
    assert "--scenario" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["../x", "../../escaped", "a/../../x", "a/b",
                                  "<absolute>", "", ".", "..", "a b", "f0\t",
                                  "a\0b"])
def test_flow_name_that_is_no_file_name_is_a_field_error(tmp_path, capsys, name):
    """A flow's name is a directory under metrics/, so one that is not a
    single file-name component (or would split a paths.log column) is
    rejected before the run, and no file is written inside --out or
    outside it."""
    root = tmp_path / "a" / "b"
    root.mkdir(parents=True)
    if name == "<absolute>":
        name = str(tmp_path / "abs")
    doc = root / "doc.json"
    doc.write_text(json.dumps(dict(
        MINI_DOC, flows=[dict(MINI_DOC["flows"][0], flow=name)])))
    code = main(["run", "--scenario", str(doc), "--out", str(root / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: flows[0].flow: expected a file name")
    assert "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == [tmp_path / "a", root, doc]


@pytest.mark.parametrize("params, field", [
    ({"aodv": {"bogus": 1}}, "protocol_params.aodv.bogus"),
    ({"aodv": [1, 2]}, "protocol_params.aodv"),
    ({"dsdv": {"update_interval": "x"}}, "protocol_params.dsdv.update_interval"),
])
def test_malformed_protocol_params_are_validation_errors(
        tmp_path, capsys, params, field):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(MINI_DOC, protocol_params=params)))
    out = tmp_path / "out"
    code = main(["compare", "--scenario", str(bad), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("overrides, field", [
    ({"duration": -5}, "duration"),
    ({"field": ["x", 5]}, "field[0]"),
    ({"placements": [[0, [100, 300]], [1, ["a", 300]], [2, [500, 300]]]},
     "placements[1][1][0]"),
    ({"motions": [[1, 2.0, [400, 300], 0]]}, "motions[0][3]"),
    ({"motions": [[1, 2.0, [4000, 300], 5.0]]}, "motions[0][2]"),
    ({"motions": [[1, 1.0, [900, 300], 10.0], [1, 2.0, [300, 300], 10.0]]},
     "motions[1]"),
    ({"flows": [{"flow": "f0", "src": [0], "sink": 2}]}, "flows[0].src"),
    ({"flows": [{"flow": ["f0"], "src": 0, "sink": 2}]}, "flows[0].flow"),
    ({"radio": {"bandwidth": 0}}, "radio.bandwidth"),
    ({"radio": {"range": -5}}, "radio.range"),
    ({"background_mobility": {"kind": "random-waypoint", "v_min": 0,
                              "v_max": 0}}, "background_mobility.v_min"),
    ({"background_mobility": {"kind": "random-waypoint", "v_min": 1,
                              "v_max": 2, "pause": -1}},
     "background_mobility.pause"),
    ({"placements": [[0, [100, 300]], [True, [300, 300]], [2, [500, 300]]]},
     "placements[1][0]"),
    ({"motions": [[-1, 2.0, [400, 300], 5.0]]}, "motions[0][0]"),
    ({"flows": [{"flow": "f0", "src": 0, "sink": 2,
                 "start_t": float("nan")}]}, "flows[0].start_t"),
    ({"flows": [{"flow": "f0", "src": 0, "sink": 2, "start_t": -1}]},
     "flows[0].start_t"),
    ({"flows": [{"flow": "f0", "src": 0, "sink": 2,
                 "send_interval": float("nan")}]}, "flows[0].send_interval"),
    ({"flows": [{"flow": "f0", "src": 0, "sink": 2,
                 "send_interval": float("inf")}]}, "flows[0].send_interval"),
    ({"flows": [{"flow": "f0", "src": 0, "sink": 2,
                 "data_packet_size": float("inf")}]},
     "flows[0].data_packet_size"),
    ({"flows": [{"flow": "f0", "src": 0, "sink": 2, "max_packets": 1.5}]},
     "flows[0].max_packets"),
    ({"name": ["x"]}, "name"),
    ({"duration": 10**400}, "duration"),
    ({"flows": [{"flow": "f0", "src": 0, "sink": 2, "start_t": 1.0,
                 "send_interval": 1e-20}]}, "flows[0].send_interval"),
    ({"background_mobility": {"kind": "random-waypoint", "v_min": 1e300,
                              "v_max": 1e300}}, "background_mobility.v_max"),
    ({"primary_flow": "x"}, "primary_flow"),
    ({"protocol_params": {"dsdv": {"update_interval": 1e-300}}},
     "protocol_params.dsdv.update_interval"),
])
def test_malformed_documents_fail_before_running(
        tmp_path, capsys, overrides, field):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(MINI_DOC, **overrides)))
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(bad), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("flag, value", [
    ("--window", "0"), ("--window", "-1"), ("--window", "nan"),
    # 6 s in 5.999e-6 s windows is just over 10**6 bins per series
    ("--window", "5.999e-6"),
    ("--range", "-5"), ("--range", "inf"),
    ("--duration", "0"), ("--duration", "-3"), ("--duration", "inf"),
    ("--seed", "-3"),
])
def test_out_of_range_numeric_flags_are_validation_errors(
        scenario_file, tmp_path, capsys, command, flag, value):
    out = tmp_path / "out"
    code = main([command, "--scenario", str(scenario_file),
                 flag, value, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "compare"])
def test_duration_override_rechecks_flow_ticks(
        scenario_file, tmp_path, capsys, command):
    # 0.5 + 10**6 * 0.2 s is within a 10**6 s run: too many ticks
    out = tmp_path / "out"
    code = main([command, "--scenario", str(scenario_file),
                 "--duration", "1e6", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: flows[0].send_interval: ")
    assert "Traceback" not in err
    assert not out.exists()


def test_zero_range_is_accepted(scenario_file, tmp_path, capsys):
    code = main(["run", "--scenario", str(scenario_file), "--range", "0",
                 "--out", str(tmp_path / "out")])
    assert code == 0


@pytest.mark.parametrize("command", ["run", "compare"])
def test_huge_range_with_a_mover_runs(tmp_path, capsys, command):
    # the range squared overflows a float; the link watch used to raise
    doc = tmp_path / "huge.json"
    doc.write_text(json.dumps(dict(MINI_DOC, radio={"range": 1e200},
                                   motions=[[1, 1.0, [400, 300], 5.0]])))
    out = tmp_path / "out"
    assert main([command, "--scenario", str(doc), "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_unwritable_out_dir_is_an_io_error(scenario_file, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    code = main(["run", "--scenario", str(scenario_file),
                 "--out", str(blocker / "out")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("cpus", [1, 2])
def test_full_disk_is_an_io_error_naming_the_trace(scenario_file, tmp_path,
                                                    capsys, monkeypatch, cpus):
    """On one CPU (the run writes its own files) as on two (a writer
    process does), a trace.txt or summary.csv that cannot be written is
    named in an 'error: cannot write' line, with exit code 2 and no
    traceback."""
    if not os.path.exists("/dev/full"):  # every write there fails: ENOSPC
        pytest.skip("no /dev/full")
    monkeypatch.setattr(tracewriter, "_usable_cpus", lambda: cpus)
    for name in ("trace.txt", "summary.csv"):
        out = tmp_path / name
        out.mkdir()
        (out / name).symlink_to("/dev/full")
        code = main(["run", "--scenario", str(scenario_file), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out / name}: "
                              "No space left on device\n"), err
        assert "Traceback" not in err
        assert os.listdir(out) == []


def test_compare_subcommand_runs_both_protocols(scenario_file, tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main(["compare", "--scenario", str(scenario_file),
                 "--duration", "12", "--out", str(out)])
    assert code == 0
    assert (out / "aodv" / "trace.txt").is_file()
    assert (out / "dsdv" / "trace.txt").is_file()
    text = (out / "comparison.txt").read_text()
    assert "reactive=AODV" in text
    assert "proactive=DSDV" in text
    assert capsys.readouterr().out == text


def test_unwritable_comparison_is_an_io_error_naming_it(tmp_path, capsys,
                                                        monkeypatch):
    """On one CPU as on two, a comparison.txt that cannot be written is
    named in an 'error: cannot write' line, with exit code 2, and the
    command leaves none of its files: not the two runs' files, nor the
    directories it made."""
    if not os.path.exists("/dev/full"):  # every write there fails: ENOSPC
        pytest.skip("no /dev/full")
    doc = tmp_path / "doc.json"  # one flow between two nodes
    doc.write_text(json.dumps(dict(MINI_DOC, placements=MINI_DOC["placements"][:2],
                                   flows=[dict(MINI_DOC["flows"][0], sink=1)])))
    for cpus in (1, 2):
        monkeypatch.setattr(tracewriter, "_usable_cpus", lambda: cpus)
        out = tmp_path / f"cq{cpus}"
        out.mkdir()
        (out / "comparison.txt").symlink_to("/dev/full")
        code = main(["compare", "--scenario", str(doc), "--duration", "5",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == (f"error: cannot write {out / 'comparison.txt'}: "
                       "No space left on device\n")
        assert os.listdir(out) == []


def test_failed_compare_into_a_missing_path_leaves_none_of_it(
        scenario_file, tmp_path, monkeypatch):
    """A compare whose second run fails removes the first run's files and
    every directory it made, the missing parents of --out included."""
    def failing(config, *args, **kwargs):
        if config.protocol == "DSDV":
            raise OSError("cannot write summary.csv: disk full")
        return run(config, *args, **kwargs)

    run = cli.run
    monkeypatch.setattr(cli, "run", failing)
    code = main(["compare", "--scenario", str(scenario_file),
                 "--out", str(tmp_path / "a" / "b")])
    assert code == 2
    assert sorted(os.listdir(tmp_path)) == ["mini.json"]


def test_compare_loads_its_document_once(scenario_file, tmp_path, monkeypatch):
    loads = []
    load_config = cli.load_config

    def counting(text):
        loads.append(text)
        return load_config(text)

    monkeypatch.setattr(cli, "load_config", counting)
    code = main(["compare", "--scenario", str(scenario_file),
                 "--out", str(tmp_path / "cmp")])
    assert code == 0
    assert len(loads) == 1


def test_trace_parse_subcommand(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario_file),
                 "--out", str(out)]) == 0
    capsys.readouterr()

    code = main(["trace-parse", str(out / "trace.txt")])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "motion records" in stdout

    mangled = tmp_path / "mangled.txt"
    mangled.write_text("M 0.00000 7 (bad line\n")
    assert main(["trace-parse", str(mangled)]) == 1

    assert main(["trace-parse", str(tmp_path / "missing.txt")]) == 2
