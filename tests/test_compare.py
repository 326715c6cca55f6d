"""The `--compare` modes of `tests/sweep.py` and `tests/dump_reports.py` fail
on a change for the worse and pass on any other."""

import json

import dump_reports
import sweep


def _entry(seed, ok=True, verdicts=(("a", True),)):
    return {"family": "exp", "params": {"c": "1"}, "seed": seed, "options": {}, "ok": ok,
            "verdicts": [list(v) for v in verdicts], "residuals": []}


def _sweep_compare(tmp_path, before, after):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, entries in zip(paths, (before, after)):
        path.write_text(json.dumps(entries))
    return sweep.compare(*map(str, paths))


def test_sweep_compare_fails_on_an_input_that_got_worse(tmp_path, capsys):
    before = [_entry(1), _entry(2), _entry(3)]
    errored = {"family": "exp", "params": {"c": "1"}, "seed": 3, "options": {}, "error": "Traceback"}
    still_ok = _entry(1, verdicts=[("a", True), ("b", True)])
    assert _sweep_compare(tmp_path, before, [still_ok, _entry(2, False, [("a", False)]), errored]) == 1
    listed = capsys.readouterr().out.splitlines()
    assert listed[0] == "3 inputs in both files; verdicts differ on 3:"
    # the inputs that got worse come first
    assert [line.split(":")[0] for line in listed[1:4]] == [f"  exp (c = 1) --seed {s}" for s in (2, 3, 1)]
    # a changed verdict list that stays ok, or an input that gets better, passes
    assert _sweep_compare(tmp_path, before, [still_ok, _entry(2), _entry(3)]) == 0
    assert _sweep_compare(tmp_path, [_entry(2, False, [("a", False)])], [_entry(2)]) == 0


def _dump(root, code=0, verdict=True, poly="z1_1 - x1", residual=0.0):
    root.mkdir()
    (root / "exit_codes.json").write_text(json.dumps({"p.report.json": code}))
    problem = {"relations": {"1_1": {"poly": poly}}, "verdicts": [{"id": "v", "pass": verdict}], "residual": residual}
    (root / "p.report.json").write_text(json.dumps({"problem": problem}))
    return str(root)


def test_dump_reports_compare_fails_on_a_changed_exit_relation_or_verdict(tmp_path, capsys):
    base = _dump(tmp_path / "base")
    assert dump_reports.main(["--compare", base, _dump(tmp_path / "exit", code=1)]) == 1
    assert dump_reports.main(["--compare", base, _dump(tmp_path / "relation", poly="z1_1")]) == 1
    assert dump_reports.main(["--compare", base, _dump(tmp_path / "verdict", verdict=False)]) == 1
    assert dump_reports.main(["--compare", base, _dump(tmp_path / "residual", residual=1e-16)]) == 0
    assert "      1  residual" in capsys.readouterr().out
