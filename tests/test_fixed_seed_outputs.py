"""The comparison of two fixed-seed output dumps, on hand-made dumps."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "fixed_seed_outputs.py"
spec = importlib.util.spec_from_file_location("fixed_seed_outputs", SCRIPT)
fixed_seed_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(fixed_seed_outputs)

OLD = {
    "a": [
        {"gens": ["3:1"], "answer": "x", "f_queries": 4},
        {"gens": ["3:2"], "answer": "y", "f_queries": 5},
        {"error": "E", "answer": None},
    ],
    "b": [{"gens": [], "answer": "z"}],
    "gone": [{"answer": "w"}],
}
NEW = {
    "a": [
        {"gens": ["3:2"], "answer": "x", "f_queries": 6},  # same subgroup
        {"gens": ["3:2"], "answer": "y", "f_queries": 5},  # identical
        {"gens": ["3:1"], "answer": "x"},  # an answer where there was none
    ],
    "b": [{"gens": [], "answer": "z"}, {"gens": [], "answer": "z"}],  # one extra
}


def test_differing_instances_counts_outputs_and_subgroups():
    assert fixed_seed_outputs.differing_instances(OLD, NEW) == (4, 3)
    assert fixed_seed_outputs.differing_instances(OLD, OLD) == (0, 0)


def test_compare_prints_both_counts(tmp_path, capsys):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(OLD))
    new.write_text(json.dumps(NEW))
    assert fixed_seed_outputs.main(["--compare", str(old), str(new)]) == 1
    assert capsys.readouterr().out == (
        "4 differing instances, 3 differing as subgroups\n"
        "a: mean f_queries 4.5 -> 5.5, group_ops - -> -, rng_draws - -> -\n"
        "a: answer 1, error 1, f_queries 1, gens 2\n"
        "b: mean f_queries - -> -, group_ops - -> -, rng_draws - -> -\n"
        "gone: mean f_queries - -> -, group_ops - -> -, rng_draws - -> -\n"
    )
    assert fixed_seed_outputs.main(["--compare", str(old), str(old)]) == 0
    assert capsys.readouterr().out == "identical\n"


def test_mean_f_queries_reads_solver_and_cli_records():
    solver = [{"f_queries": 2}, {"f_queries": 7}, {"error": "E", "answer": None}]
    cli = [{"report": {"stats": {"f_queries": 3}}}, {"report": {"error": "spec error"}}]
    assert fixed_seed_outputs.mean_stat(solver, "f_queries") == 4.5
    assert fixed_seed_outputs.mean_stat(cli, "f_queries") == 3.0
    assert fixed_seed_outputs.mean_stat([], "f_queries") is None


def test_compare_prints_mean_group_ops_and_draws(tmp_path, capsys):
    """Work moved from counted solver work to the harness shows as the mean
    group_ops and rng_draws beside the mean f_queries, on solver and
    cli-suite pools alike."""
    old = {
        "s": [{"f_queries": 129, "group_ops": 120, "rng_draws": 0}],
        "c": [{"report": {"stats": {"f_queries": 86, "group_ops": 40, "rng_draws": 3}}}],
    }
    new = {
        "s": [{"f_queries": 20, "group_ops": 60, "rng_draws": 13}],
        "c": [{"report": {"stats": {"f_queries": 14, "group_ops": 30, "rng_draws": 10}}}],
    }
    (tmp_path / "old.json").write_text(json.dumps(old))
    (tmp_path / "new.json").write_text(json.dumps(new))
    assert fixed_seed_outputs.main(["--compare", str(tmp_path / "old.json"), str(tmp_path / "new.json")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "c: mean f_queries 86.0 -> 14.0, group_ops 40.0 -> 30.0, rng_draws 3.0 -> 10.0" in lines
    assert "s: mean f_queries 129.0 -> 20.0, group_ops 120.0 -> 60.0, rng_draws 0.0 -> 13.0" in lines
    assert fixed_seed_outputs.mean_stat(new["c"], "rng_draws") == 10.0


def test_changed_fields_name_nested_paths():
    old = {"report": {"stats": {"f_queries": 3, "rng_draws": 2}, "generators": ["3:1"]}, "code": 0}
    new = {"report": {"stats": {"f_queries": 1, "rng_draws": 2}, "generators": ["3:2"]}, "code": 0}
    assert fixed_seed_outputs.changed_fields(old, new) == {
        "report.stats.f_queries",
        "report.generators",
    }
    assert fixed_seed_outputs.changed_fields(old, old) == set()
    # a field on one side only, even a null one, is a change
    assert fixed_seed_outputs.changed_fields({"x": None}, {}) == {"x"}
    assert fixed_seed_outputs.field_counts([old, old, new], [new, new, new]) == {
        "report.stats.f_queries": 2,
        "report.generators": 2,
    }


def test_compare_prints_the_largest_budget_use(tmp_path, capsys):
    """Each pool with a budget on either side gets its largest
    f_queries / f_query_budget, old -> new; a pool without one gets no line."""
    old = {
        "s": [
            {"f_queries": 20, "f_query_budget": 160},
            {"f_queries": 9, "f_query_budget": 50},
            {"error": "E", "answer": None},
        ],
        "c": [{"report": {"stats": {"f_queries": 14}}}],
    }
    new = {
        "s": [{"f_queries": 8, "f_query_budget": 160}, {"f_queries": 4, "f_query_budget": 50}],
        "c": [{"report": {"stats": {"f_queries": 6}}}],
    }
    assert fixed_seed_outputs.largest_budget_use(old["s"]) == 0.18
    assert fixed_seed_outputs.largest_budget_use(old["c"]) is None
    paths = [tmp_path / "old.json", tmp_path / "new.json"]
    for path, dump in zip(paths, (old, new)):
        path.write_text(json.dumps(dump))
    assert fixed_seed_outputs.main(["--compare", *map(str, paths)]) == 1  # "s" lost an instance
    lines = capsys.readouterr().out.splitlines()
    assert "s: largest budget use 0.180 -> 0.080" in lines
    assert not any(line.startswith("c: largest") for line in lines)


def test_compare_exits_1_only_when_an_answer_differs_as_a_subgroup(tmp_path, capsys):
    """Changed generators and counters keep the exit code 0; a changed
    answer, an answer lost to an error, or a lost instance makes it 1."""
    old = {"s": [{"gens": ["3:1"], "answer": "x", "f_queries": 4, "group_ops": 9}]}
    cases = [
        ({"s": [{"gens": ["3:2"], "answer": "x", "f_queries": 2, "group_ops": 7}]}, 0),
        ({"s": [{"gens": ["3:2"], "answer": "y", "f_queries": 4, "group_ops": 9}]}, 1),
        ({"s": [{"error": "E", "answer": None}]}, 1),
        ({"s": []}, 1),
    ]
    (tmp_path / "old.json").write_text(json.dumps(old))
    for new, code in cases:
        (tmp_path / "new.json").write_text(json.dumps(new))
        assert fixed_seed_outputs.main(["--compare", str(tmp_path / "old.json"), str(tmp_path / "new.json")]) == code, new
        capsys.readouterr()


def test_the_membership_and_normal_pools_answer_right(monkeypatch):
    """The two pools that run code no benchmark pool reaches: every member
    flag and order agrees with enumeration in G, and every normal subgroup
    is found or refused for a non-Abelian quotient, under both samplers."""
    from hsplab.core import enumerate_closure

    monkeypatch.syspath_prepend(str(SCRIPT.parent.parent / "perfbench"))
    inputs = fixed_seed_outputs._membership_inputs()
    records = fixed_seed_outputs.membership_outputs(1)
    assert {r["regime"] for r in records} == {"group", "hidden", "generated"}
    for (_, G, _, n_gens, h_list, g), record in zip(inputs, records, strict=True):
        n_keys = {G.key(x) for x in enumerate_closure(G, n_gens)}
        orders = [
            next(k for k in range(1, 841) if G.key(G.power(x, k)) in n_keys) for x in [*h_list, g]
        ]
        member = G.key(g) in {G.key(x) for x in enumerate_closure(G, [*h_list, *n_gens])}
        assert record["answer"] == [member, orders], record
    assert {record["answer"][0] for record in records} == {True, False}

    for backend in ("ideal", "statevector"):
        normal = fixed_seed_outputs.normal_outputs(1, backend)
        assert {r["group"] for r in normal} == set(fixed_seed_outputs.NORMAL_GROUPS)
        refused = [r for r in normal if r["answer"] is None]
        assert all(r["error"].startswith("QuotientNotAbelian") for r in refused)
        assert all(r["answer"] == r["hidden"] for r in normal if r not in refused)
        assert (len(normal), len(refused)) == (47, 14)
