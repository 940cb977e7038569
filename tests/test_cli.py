"""CLI: report schema, exit codes, determinism, suite mode."""

import json
from pathlib import Path

import jsonschema
import pytest

from hsplab import cli, normalsub, sim, solvers
from hsplab.cli import RunConfig, main, run, run_suite
from hsplab.core import HidingOracle, make_group
from hsplab.errors import BadSpec
from hsplab.specfile import parse_group_spec

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


def test_auto_builds_the_commutator_subgroup_once(group_dir, monkeypatch):
    """--solver auto calls the commutator solver directly, so G' is built
    once per run, by the solver, and not again to choose it."""
    from hsplab import normalsub

    calls = []

    def counted(*args):
        calls.append(args)
        return normalsub.commutator_subgroup(*args)

    for module in (cli, solvers):
        monkeypatch.setattr(module, "commutator_subgroup", counted, raising=False)
    code, report = run(RunConfig(str(group_dir / "es3.grp"), hidden="000010", seed=6))
    assert code == 0 and report["method"] == "commutator"
    assert len(calls) == 1


def test_auto_falls_back_to_elem2_past_the_commutator_bound(tmp_path):
    """On the affine k=7 group with the companion block of x^7 + x + 1, |G'|
    = 128 exceeds the auto bound 64; the commutator solver refuses before
    any f-query or draw, so auto's report equals the direct elem2-cyclic
    one but for the solver named in the config."""
    rows = "0000001 1000001 0100000 0010000 0001000 0000100 0000010"
    trans = "".join(f"trans = {'0' * i}1{'0' * (6 - i)}\n" for i in range(7))
    (tmp_path / "a7.grp").write_text(f"kind = affinegf2\nk = 7\nblock = {rows}\n{trans}")
    reports = []
    for solver in ("auto", "elem2-cyclic"):
        code, report = run(RunConfig(str(tmp_path / "a7.grp"), hidden="", solver=solver, seed=3))
        assert code == 0
        report.pop("wall_time_s")
        report["config"].pop("solver")
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["method"] == "elem2-cyclic"


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
    (group_dir / "self.grp").write_text("kind = product\npart = self.grp\n")
    code, report = run(RunConfig(str(group_dir / "self.grp"), hidden="0"))
    assert code == 3 and "includes itself" in report["error"]
    assert main(["--group", str(group_dir / "self.grp"), "--hidden", "0"]) == 3
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
        '[{"group": "z46.grp", "hidden": "01000", "solver": "martian"}]',
        '[{"group": "z46.grp", "hidden": "01000", "verify": "false"}]',
    ],
    ids=[
        "no-group", "not-json", "epsilon-range", "epsilon-text", "object", "hidden-int", "missing",
        "unknown-solver", "verify-text",
    ],
)
def test_malformed_suite_exits_3(group_dir, capsys, text):
    path = group_dir / "suite.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(BadSpec):
        run_suite(path, master_seed=1)
    assert main(["--suite", str(path)]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_unknown_solver_is_a_spec_error(group_dir):
    with pytest.raises(BadSpec, match="martian"):
        RunConfig(str(group_dir / "z46.grp"), hidden="01000", solver="martian")


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


def test_unwritable_report_exits_3(group_dir, capsys):
    """A --report path that cannot be written is an error line and exit 3,
    not a traceback."""
    missing = group_dir / "missing" / "report.json"
    args = ["--group", str(group_dir / "z46.grp"), "--hidden", "00001", "--report", str(missing)]
    assert main(args) == 3
    assert capsys.readouterr().err.startswith("error: cannot write report: ")
    (group_dir / "suite.json").write_text('[{"group": "z46.grp", "hidden": "00001"}]')
    assert main(["--suite", str(group_dir / "suite.json"), "--report", str(missing)]) == 3


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


def test_hidden_subgroup_past_the_bound_exits_3(group_dir, monkeypatch):
    """The hiding oracle enumerates H; H = G of order 27 past a bound of 8 is
    a spec error, not a traceback."""
    monkeypatch.setenv("HSPLAB_MAX_ENUM", "8")
    code, report = run(RunConfig(str(group_dir / "es3.grp"), hidden="010000,000100"))
    assert code == 3
    assert report["error"].startswith("spec error") and "bound 8" in report["error"]
    out = group_dir / "report.json"
    code = main(["--group", str(group_dir / "es3.grp"), "--hidden", "010000,000100", "--report", str(out)])
    assert code == 3
    assert json.loads(out.read_text())["error"].startswith("spec error")


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


@pytest.mark.parametrize(
    "solver,module,budget",
    [("abelian", solvers, "abelian_query_budget"), ("normal", normalsub, "normal_query_budget")],
)
def test_abelian_and_normal_budget_overruns_exit_1(group_dir, monkeypatch, solver, module, budget):
    """Every solver checks its budget: an overrun is a solver error."""
    monkeypatch.setattr(module, budget, lambda *args: 0)
    group, hidden = ("z46.grp", "01000") if solver == "abelian" else ("es3.grp", "000010")
    code, report = run(RunConfig(str(group_dir / group), hidden=hidden, solver=solver, seed=7))
    assert code == 1
    assert "BudgetExceeded" in report["error"]


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


def test_elem2_budget_covers_certificates_with_h_equal_to_g(tmp_path, monkeypatch):
    """Two affine k=4 factors with H = G: N = Z2^8 and |G/N| = 225, so each of
    the 224 probes certifies all of Z2 x N with 10 tests, which B2 must
    cover.  f(1) and the 8 generators of N are asked once, 9 f-queries, and
    each probe asks f of its coset representative anew: 233 in all.
    Enumerating H = G (57,600 elements) and the
    harness's collision search would take minutes, so f and the hidden
    subgroups of the probes are given their H = G values directly."""
    part = GOLDEN["specs"]["affine4.grp"]
    (tmp_path / "affine4.grp").write_text(part)
    (tmp_path / "p.grp").write_text("kind = product\npart = affine4.grp\npart = affine4.grp\n")
    G = make_group(parse_group_spec(part))
    gens = [a.bits + G.identity().bits for a in G.generators]
    gens += [G.identity().bits + a.bits for a in G.generators]

    def whole_group_oracle(G, h_gens, seed=0):
        f = HidingOracle(G, [G.identity()], seed)
        f._label = lambda g: "G"  # one coset
        return f

    monkeypatch.setattr(cli, "make_hiding_oracle", whole_group_oracle)
    monkeypatch.setattr(
        sim.QuantumFunctionOracle,
        "hidden_subgroup_gens",
        lambda self: self.structure.units(),
    )
    code, report = run(RunConfig(str(tmp_path / "p.grp"), hidden=",".join(gens), seed=1))
    assert code == 0, report.get("error")
    assert report["method"] == "elem2-small"
    assert report["stats"]["f_queries"] == 9 + 224
