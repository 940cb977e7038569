"""CLI: report schema, exit codes, determinism, suite mode."""

import json
from pathlib import Path

import jsonschema
import pytest

from hsplab import sim, solvers
from hsplab.cli import RunConfig, main, run, run_suite
from hsplab.errors import BadSpec

REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "config", "wall_time_s"],
    "properties": {
        "schema_version": {"const": 1},
        "config": {
            "type": "object",
            "required": ["group", "hidden", "solver", "epsilon", "seed", "verify"],
        },
        "method": {"type": "string"},
        "generators": {"type": "array", "items": {"type": "string"}},
        "subgroup_order": {"type": "integer"},
        "stats": {
            "type": "object",
            "required": ["f_queries", "group_ops", "rng_draws"],
        },
        "verify": {"type": "object", "required": ["equal"]},
        "wall_time_s": {"type": "number"},
        "error": {"type": "string"},
    },
}


@pytest.fixture
def group_dir(tmp_path):
    (tmp_path / "z46.grp").write_text("kind = abelian\nmoduli = 4 6\n")
    (tmp_path / "es3.grp").write_text("kind = extraspecial\np = 3\n")
    (tmp_path / "wreath3.grp").write_text("kind = wreath\nk = 3\n")
    (tmp_path / "bad.grp").write_text("kind = martian\n")
    return tmp_path


def test_run_abelian_with_verify(group_dir):
    code, report = run(
        RunConfig(str(group_dir / "z46.grp"), hidden="01000", verify=True, seed=5)
    )
    assert code == 0
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["method"] == "abelian"
    assert report["subgroup_order"] == 4
    assert report["verify"]["equal"] is True


def test_run_extraspecial_center(group_dir):
    code, report = run(
        RunConfig(str(group_dir / "es3.grp"), hidden="000010", verify=True, seed=6)
    )
    assert code == 0
    assert report["verify"]["equal"] is True
    assert report["subgroup_order"] == 3


def test_run_wreath_elem2_small(group_dir):
    code, report = run(
        RunConfig(
            str(group_dir / "wreath3.grp"),
            hidden="0010000,0100000,1000000",
            solver="elem2-small",
            verify=True,
            seed=7,
        )
    )
    assert code == 0
    assert report["method"] == "elem2-small"
    assert report["verify"]["equal"] is True


def test_exit_codes(group_dir):
    code, report = run(RunConfig(str(group_dir / "bad.grp"), hidden="0"))
    assert code == 3 and "spec error" in report["error"]
    code, report = run(RunConfig(str(group_dir / "missing.grp"), hidden="0"))
    assert code == 3
    code, report = run(RunConfig(str(group_dir / "z46.grp"), hidden="zzzzz"))
    assert code == 3
    (group_dir / "binary.grp").write_bytes(b"\xff\xfe\x00")
    code, report = run(RunConfig(str(group_dir / "binary.grp"), hidden="0"))
    assert code == 3
    code, report = run(RunConfig(str(group_dir / "z46.grp"), hidden="@binary.grp"))
    assert code == 3
    with pytest.raises(BadSpec):
        RunConfig(str(group_dir / "z46.grp"), hidden="01000", epsilon=0.7)


def test_hidden_token_formats(group_dir):
    code_a, rep_a = run(RunConfig(str(group_dir / "z46.grp"), hidden="01000", seed=9))
    code_b, rep_b = run(RunConfig(str(group_dir / "z46.grp"), hidden="5:08", seed=9))
    assert code_a == code_b == 0
    assert rep_a["generators"] == rep_b["generators"]
    (group_dir / "hidden.txt").write_text("01000\n# comment\n")
    code_c, rep_c = run(RunConfig(str(group_dir / "z46.grp"), hidden="@hidden.txt", seed=9))
    assert code_c == 0
    assert rep_c["generators"] == rep_a["generators"]


def _strip_times(report):
    report = dict(report)
    report.pop("wall_time_s", None)
    return report


def test_report_determinism(group_dir):
    config = lambda: RunConfig(
        str(group_dir / "es3.grp"), hidden="000010", verify=True, seed=42
    )
    _, first = run(config())
    _, second = run(config())
    assert _strip_times(first) == _strip_times(second)


def test_suite_mode(group_dir):
    suite = [
        {"group": "z46.grp", "hidden": "01000"},
        {"group": "es3.grp", "hidden": "000010"},
    ]
    path = group_dir / "suite.json"
    path.write_text(json.dumps(suite))
    code, reports = run_suite(path, master_seed=11)
    assert code == 0
    assert len(reports) == 2
    assert all(r["verify"]["equal"] for r in reports)
    code2, reports2 = run_suite(path, master_seed=11)
    assert [_strip_times(r) for r in reports] == [_strip_times(r) for r in reports2]


@pytest.mark.parametrize(
    "text",
    [
        '[{"hidden": "01000"}]',
        "not json",
        '[{"group": "z46.grp", "hidden": "01000", "epsilon": 0.9}]',
        '[{"group": "z46.grp", "hidden": "01000", "epsilon": "x"}]',
        '{"group": "z46.grp", "hidden": "01000"}',
        '[{"group": "z46.grp", "hidden": 5}]',
        None,
    ],
    ids=["no-group", "not-json", "epsilon-range", "epsilon-text", "object", "hidden-int", "missing"],
)
def test_malformed_suite_exits_3(group_dir, capsys, text):
    path = group_dir / "suite.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(BadSpec):
        run_suite(path, master_seed=1)
    assert main(["--suite", str(path)]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_main_writes_report(group_dir, capsys):
    out = group_dir / "report.json"
    code = main(
        [
            "--group", str(group_dir / "z46.grp"),
            "--hidden", "01000",
            "--verify",
            "--seed", "3",
            "--report", str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    jsonschema.validate(report, REPORT_SCHEMA)


def test_main_requires_group_and_hidden():
    with pytest.raises(SystemExit):
        main([])


def test_malformed_numbers_exit_3(group_dir, capsys):
    (group_dir / "four.grp").write_text("kind = abelian\nmoduli = four\n")
    out = group_dir / "report.json"
    code = main(["--group", str(group_dir / "four.grp"), "--hidden", "0", "--report", str(out)])
    assert code == 3
    assert json.loads(out.read_text())["error"].startswith("spec error")
    code = main(["--group", str(group_dir / "z46.grp"), "--hidden", "5:zz", "--report", str(out)])
    assert code == 3
    assert json.loads(out.read_text())["error"].startswith("spec error")


def test_hidden_out_of_range_coordinate_exits_3(group_dir):
    # Z4 x Z6 encodes (a, b) in 2 + 3 bits; b = 7 is well formed but no element
    code, report = run(RunConfig(str(group_dir / "z46.grp"), hidden="00111"))
    assert code == 3
    assert report["error"].startswith("spec error")


@pytest.mark.parametrize("value", ["abc", "0", "-2"])
def test_bad_max_enum_exits_3(group_dir, monkeypatch, value):
    monkeypatch.setenv("HSPLAB_MAX_ENUM", value)
    out = group_dir / "report.json"
    code = main(["--group", str(group_dir / "z46.grp"), "--hidden", "00001", "--report", str(out)])
    assert code == 3
    assert "HSPLAB_MAX_ENUM" in json.loads(out.read_text())["error"]


def test_broken_guarantees_exit_1(group_dir, monkeypatch):
    """A budget overrun and a broken invariant are solver errors, exit 1."""
    with monkeypatch.context() as m:
        m.setattr(solvers, "commutator_query_budget", lambda *args: 0)
        code, report = run(
            RunConfig(str(group_dir / "es3.grp"), hidden="000010", solver="commutator", seed=6)
        )
    assert code == 1
    assert "BudgetExceeded" in report["error"]
    # a kernel that never shrinks trips abelian_hsp's invariant
    monkeypatch.setattr(sim, "subgroup_order", lambda structure, gens: structure.order)
    code, report = run(RunConfig(str(group_dir / "z46.grp"), hidden="01000", seed=5))
    assert code == 1
    assert "InvariantBroken" in report["error"]


GOLDEN = json.loads((Path(__file__).parent / "golden_reports.json").read_text())


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda c: c["report"]["config"]["solver"])
def test_golden_reports(tmp_path, case):
    """Fixed-seed reports, one per solver, equal the recorded ones field by
    field (all but the wall time and the spec's directory)."""
    (tmp_path / case["group"]).write_text(GOLDEN["specs"][case["group"]])
    config = case["report"]["config"]
    code, report = run(
        RunConfig(
            str(tmp_path / case["group"]),
            hidden=config["hidden"],
            solver=config["solver"],
            epsilon=config["epsilon"],
            seed=config["seed"],
            verify=config["verify"],
        )
    )
    report.pop("wall_time_s")
    assert report["config"].pop("group") == str(tmp_path / case["group"])
    assert code == case["code"]
    assert sorted(report) == sorted(case["report"])
    for field, value in case["report"].items():
        assert report[field] == value, field
