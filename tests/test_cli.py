import json
import math
from pathlib import Path

import pytest

from chebscale import cli

APPENDIX = str(Path(__file__).parent / "data" / "appendix.scale")
PAPER = ["--ratio", "1.22", "--probes", "10"]
KERNEL = "2*exp(x) - x + 3*log(x) + 5"


def test_expand_report_rerenders_with_boolean_verdicts(capsys):
    code = cli.run(["expand", "--scale", APPENDIX, "--ratio", "1.22", "--probes", "10",
                    "--f", "2*exp(x) - x + 3*log(x) + 5", "--json"])
    assert code == 0
    text = capsys.readouterr().out.strip()
    report = json.loads(text)
    assert cli.render_json(report) == text
    assert report["verdicts"] and all(isinstance(v, bool) for v in report["verdicts"].values())


@pytest.mark.parametrize("command", ["analyze", "factorize", "verify"])
def test_report_rerenders_with_json_verdicts(capsys, command):
    code = cli.run([command, "--scale", APPENDIX, "--f", KERNEL, "--json"] + PAPER)
    assert code in (0, 1)
    text = capsys.readouterr().out.strip()
    report = json.loads(text)
    assert cli.render_json(report) == text
    # canonicity verdicts are per-endpoint strings; every other verdict is a boolean
    verdicts = report["verdicts"]
    assert verdicts and all(
        isinstance(v, bool) or (isinstance(v, dict) and all(isinstance(s, str) for s in v.values()))
        for v in verdicts.values()
    )


def test_overflow_is_an_input_error(capsys):
    # the first target leaves double range on the first probes; the others
    # hold a constant with no real value
    for target in ("exp(exp(x))", "x^((0-2)^0.5)", "x^log(0-1)"):
        code = cli.run(["expand", "--scale", APPENDIX, "--f", target])
        assert code == 2, target
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, target


def _scale_file(tmp_path, name, x0, T, exprs):
    path = tmp_path / f"{name}.scale"
    path.write_text(f"x0 = {x0}\nT = {T}\n" + "\n".join(exprs) + "\n")
    return str(path)


@pytest.mark.parametrize("command,scale", [
    ("analyze", "appendix"),
    ("factorize", "appendix"),
    ("expand", "appendix"),
    ("verify", "appendix"),
    ("factorize", "cubic"),
    ("factorize", "taylor"),
])
def test_default_schedule_stays_finite(capsys, tmp_path, command, scale):
    files = {
        "appendix": APPENDIX,
        "cubic": _scale_file(tmp_path, "cubic", 0, -1, ["1", "x", "x^2", "x^3"]),
        "taylor": _scale_file(tmp_path, "taylor", 1, 0,
                              ["1", "1-x", "(1-x)^2", "(1-x)^3"]),
    }
    target = {"expand": KERNEL, "verify": "exp(x)"}.get(command)
    argv = [command, "--scale", files[scale], "--json"]
    code = cli.run(argv + (["--f", target] if target else []))
    captured = capsys.readouterr()
    assert code in (0, 1), captured.err
    report = json.loads(captured.out)
    schedules = [report["scale"]["schedule"]]
    if command == "analyze":
        schedules.append(report["results"]["verification_schedule"])
    for sched in schedules:
        assert len(sched["points"]) >= 6
        assert all(math.isfinite(float(p)) for p in sched["points"])


def test_verify_runs_each_checker_once(capsys, monkeypatch):
    calls = []
    for name in ("check_complete", "check_incomplete", "check_O", "check_absolute"):
        real = getattr(cli, name)

        def counted(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(cli, name, counted)
    cli.run(["verify", "--scale", APPENDIX, "--f", KERNEL, "--json"] + PAPER)
    everything = json.loads(capsys.readouterr().out)["results"]
    assert sorted(calls) == ["check_O", "check_absolute", "check_complete", "check_incomplete"]
    # a theorem's report is the one its selector alone gives
    cli.run(["verify", "--scale", APPENDIX, "--f", KERNEL, "--json", "--theorem", "6.1"]
            + PAPER)
    alone = json.loads(capsys.readouterr().out)["results"]
    assert cli.render_json(alone["6.1"]) == cli.render_json(everything["6.1"])
