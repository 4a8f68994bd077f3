import json
from pathlib import Path

from chebscale import cli

APPENDIX = str(Path(__file__).parent / "data" / "appendix.scale")


def test_expand_report_rerenders_with_boolean_verdicts(capsys):
    code = cli.run(["expand", "--scale", APPENDIX, "--ratio", "1.22", "--probes", "10",
                    "--f", "2*exp(x) - x + 3*log(x) + 5", "--json"])
    assert code == 0
    text = capsys.readouterr().out.strip()
    report = json.loads(text)
    assert cli.render_json(report) == text
    assert report["verdicts"] and all(isinstance(v, bool) for v in report["verdicts"].values())


def test_overflow_is_an_input_error(capsys):
    # the default schedule takes exp(x) past double range
    code = cli.run(["analyze", "--scale", APPENDIX])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
