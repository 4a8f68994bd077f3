import importlib.util
import json
import math
import os
import subprocess
import sys
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


def test_long_schedule_is_cut_where_it_overflows(capsys):
    # 1.6**j leaves double range from j = 1510 on
    code = cli.run(["analyze", "--scale", APPENDIX, "--probes", "2000", "--json"])
    captured = capsys.readouterr()
    assert code in (0, 1), captured.err
    points = [float(p) for p in json.loads(captured.out)["scale"]["schedule"]["points"]]
    assert len(points) >= 6 and all(math.isfinite(p) for p in points)


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


@pytest.mark.parametrize("command", ["analyze", "factorize", "expand", "verify"])
def test_appendix_from_T_3_runs(capsys, command):
    # the default schedule ends at x = 703.69, where exp(x) is finite but
    # W(exp(x), x) = exp(x)(1 - x) is not; toward T = 3 the type-II chain's
    # reciprocal weights cross the zero of W(phi_1, phi_2, phi_3) near 3.35
    code = cli.run([command, "--scale", APPENDIX, "--T", "3", "--f", KERNEL, "--json"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    report = json.loads(captured.out)
    points = report["scale"]["schedule"]["points"]
    if command == "analyze":
        assert report["results"]["tas"]["grid_points"] == len(points) - 1
    if command == "factorize":
        assert report["verdicts"]["canonicity_type_II"]["T"] == "unknown"


@pytest.mark.parametrize("command", ["analyze", "factorize", "expand", "verify"])
def test_text_output_has_one_section_per_key(capsys, command):
    argv = [command, "--scale", APPENDIX, "--f", KERNEL] + PAPER
    json_code = cli.run(argv + ["--json"])
    report = json.loads(capsys.readouterr().out)
    code = cli.run(argv)
    lines = capsys.readouterr().out.splitlines()
    assert code == json_code
    assert lines[0] == f"command: {command}"
    sections, key = {}, None
    for line in lines[1:]:
        if line.startswith("-- "):
            key = line[3:]
            sections[key] = []
        else:
            sections[key].append(line)
    assert sorted(sections) == sorted(k for k in report if k not in ("command", "timings"))
    for key, body in sections.items():
        assert json.loads("\n".join(body)) == report[key], key


def test_endpoint_overrides_reach_the_report(capsys):
    code = cli.run(["analyze", "--scale", APPENDIX, "--x0", "inf", "--T", "5", "--json"])
    scale = json.loads(capsys.readouterr().out)["scale"]
    assert code in (0, 1)
    assert (scale["x0"], scale["T"]) == ("inf", "5")
    assert scale["schedule"]["points"][0] == "6"  # max(T, 1) + 1


def test_consecutive_runs_parse_independently(capsys):
    # the parser is built once per process, and no option of one run
    # reaches the next
    assert cli.build_parser() is cli.build_parser()

    def scale_of(argv):
        assert cli.run(argv + ["--json"]) in (0, 1)
        return json.loads(capsys.readouterr().out)["scale"]

    plain = ["analyze", "--scale", APPENDIX]
    before = scale_of(plain)
    moved = scale_of(plain + ["--T", "5"] + PAPER)
    assert moved["T"] == "5" and len(moved["schedule"]["points"]) == 10
    assert moved != before
    assert scale_of(plain) == before


def test_module_entry_point_runs():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "chebscale", "analyze", "--scale", APPENDIX, "--json"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == "analyze"


def test_oracle_sweep_reads_ok_on_a_true_expansion(capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "oracle_sweep.py"
    spec = importlib.util.spec_from_file_location("oracle_sweep", path)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    assert sweep.main(["--targets", "x + log(x) + x^-2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split()[-2:] == ["ok", "ok"]
    assert lines[-1] == "runs not ok: 0 of 2"


# the runs of scripts/oracle_sweep.py that do not read ok yet (scale,
# target, schedule); the theory allows none
_SWEEP_NOT_OK = {
    ("appendix", "exp(-x) + log(x)", "default"),
    ("appendix", "exp(-x) + 1", "paper"),
    ("appendix", "exp(-x) + exp(x)", "default"),
    ("appendix", "exp(-x) + exp(x)", "paper"),
    ("appendix", "x^-3 + log(x)", "paper"),
    ("appendix", "x^-3 + 1", "paper"),
    ("appendix", "exp(-x)*cos(x) + x", "default"),
    ("poly", "2*x^2 - 1 + exp(-x)", "paper"),
}


def test_oracle_sweep_keeps_every_ok_run():
    path = Path(__file__).resolve().parents[1] / "scripts" / "oracle_sweep.py"
    spec = importlib.util.spec_from_file_location("oracle_sweep", path)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    runs = {}
    for name in sweep.SCALES:
        header, *rows = sweep.sweep(name)
        for row in rows:
            runs.update(((name, row[0], s), cell) for s, cell in zip(header[1:], row[1:]))
    assert len(runs) == 35
    assert {run for run, cell in runs.items() if cell != "ok"} <= _SWEEP_NOT_OK


def test_confidence_honesty_tallies_both_routes(capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "confidence_honesty.py"
    spec = importlib.util.spec_from_file_location("confidence_honesty", path)
    honesty = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(honesty)
    honesty.main(["--seeds", "21"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["seed", "route", "decisive", "err>conf", "err>10conf",
                                "worst", "err/conf"]
    rows = [line.split() for line in lines[1:]]
    assert [row[:2] for row in rows] == [["21", "operator"], ["21", "recursive"]]
    # the miss counts are not pinned: a sharper confidence moves them
    assert all(int(row[2]) > 0 for row in rows)


def test_bundle_cost_times_every_phase_of_a_build(capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "bundle_cost.py"
    spec = importlib.util.spec_from_file_location("bundle_cost", path)
    cost = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cost)
    assert cost.main(["--repeats", "1", "--scales", "appendix"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["scale", "verify", "scan", "type_II", "type_I", "probes",
                                "grid", "constants", "rest", "total"]
    name, *cells = lines[2].split()
    ms = [float(c) for c in cells]
    assert name == "appendix" and len(lines) == 3
    assert all(t > 0.0 for t in ms)
    # with one build every column is that build's, so the phases add up
    assert sum(ms[:-1]) == pytest.approx(ms[-1], abs=0.01)
