"""Acceptance gate: nine criteria, each printing one pass/fail line.

The criteria accumulate their oracle-comparison outcomes in RECORDS so the
cross-consistency criterion can assert that no mismatch occurred anywhere.
Run order follows file order, which pytest preserves.
"""

import time

from hsplab.core import (
    GroupElement,
    GroupSpec,
    enumerate_closure,
    make_group,
    make_hiding_oracle,
)
from hsplab.cli import RunConfig, run
from hsplab.linalg import AbelianStructure, dual_subgroup, subgroup_elements
from hsplab.membership import constructive_membership
from hsplab.sim import RngStream, SolverConfig, sample_character, splitmix64
from hsplab.solvers import (
    solve_abelian,
    solve_elem2_cyclic,
    solve_elem2_small_quotient,
    solve_small_commutator,
)
from hsplab.normalsub import hidden_normal_subgroup
from hsplab.verify import brute_force_hsp, chi_square_uniform, subgroup_key, subgroups_of

from conftest import affine4_group, affine5_group, d16_group, label_oracle, q8_group, q8_minus_one

MASTER_SEED = 0xACCE97
RECORDS: dict[str, dict] = {}


def _record(name, runs, mismatches, elapsed, detail="", allowed=0):
    """Print the criterion's status line; `allowed` is the test's own bound
    on mismatches."""
    RECORDS[name] = {"runs": runs, "mismatches": mismatches, "elapsed": elapsed}
    status = "PASS" if mismatches <= allowed else "FAIL"
    extra = f" {detail}" if detail else ""
    print(
        f"\n[{name}] {status}: {runs - mismatches}/{runs} ok in {elapsed:.1f}s{extra}",
        flush=True,
    )


def test_criterion_1_abelian_hsp_exactness():
    classes = {
        "Z16": (16,),
        "Z2^4": (2, 2, 2, 2),
        "Z4xZ6": (4, 6),
        "Z3xZ9": (3, 9),
    }
    start = time.monotonic()
    total_runs = 0
    total_bad = 0
    per_class_ok = True
    for ci, (name, moduli) in enumerate(classes.items()):
        G = make_group(GroupSpec(kind="abelian", moduli=moduli))
        elements = enumerate_closure(G, G.generators)
        subs = subgroups_of(G, elements)
        good = 0
        runs = 1000
        for r in range(runs):
            sub = subs[r % len(subs)]
            seed = splitmix64(MASTER_SEED ^ (ci << 20) ^ r)
            f = make_hiding_oracle(G, list(sub), seed=seed)
            result = solve_abelian(G, f, SolverConfig(epsilon=2.0**-20, seed=seed + 1))
            found = enumerate_closure(G, result.gens)
            if subgroup_key(G, found) == subgroup_key(G, brute_force_hsp(G, elements, f)):
                good += 1
        total_runs += runs
        total_bad += runs - good
        if good < 999:
            per_class_ok = False
    elapsed = time.monotonic() - start
    _record("criterion-1", total_runs, total_bad, elapsed)
    assert per_class_ok
    assert elapsed <= 60.0


def test_criterion_2_sampler_fidelity():
    A = AbelianStructure((8, 2))
    h_gens = [(2, 1)]
    H = subgroup_elements(A, [list(h) for h in h_gens])
    perp = subgroup_elements(A, [list(c.coeffs) for c in dual_subgroup(A, h_gens)])
    support = [tuple(t) for t in perp]

    def label(t):
        return str(min(A.add(t, h) for h in H))

    start = time.monotonic()
    bad = 0
    p_values = {}
    for backend, seed in [("ideal", 101), ("statevector", 102)]:
        f = label_oracle(A, label)
        rng = RngStream(splitmix64(MASTER_SEED ^ seed))
        draws = []
        for _ in range(10_000):
            c = tuple(sample_character(f, backend, rng).coeffs)
            draws.append(c)
            for h in H:
                if A.pairing(c, h) != 0:
                    bad += 1
        _, p = chi_square_uniform(draws, support)
        p_values[backend] = p
    elapsed = time.monotonic() - start
    detail = " ".join(f"p[{k}]={v:.4f}" for k, v in p_values.items())
    mismatches = bad + sum(1 for p in p_values.values() if p <= 1e-3)
    _record("criterion-2", 20_000, mismatches, elapsed, detail)
    assert bad == 0
    assert all(p > 1e-3 for p in p_values.values())
    assert elapsed <= 10.0


def _random_perm(rng, n=8):
    images = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randrange(i + 1)
        images[i], images[j] = images[j], images[i]
    return images


def test_criterion_3_constructive_membership(s8):
    start = time.monotonic()
    failures = 0
    runs = 200
    for trial in range(runs):
        rng = RngStream(splitmix64(MASTER_SEED ^ 0x3000 ^ trial))
        pts = _random_perm(rng)
        five = list(range(8))
        for j in range(5):
            five[pts[j]] = pts[(j + 1) % 5]
        three = list(range(8))
        for j in range(3):
            three[pts[5 + j]] = pts[5 + (j + 1) % 3]
        sigma = GroupElement(s8.backend.encode(five))
        tau = GroupElement(s8.backend.encode(three))
        n_gens = 1 + rng.randrange(4)
        h_list = [s8.power(sigma, 1 + rng.randrange(4)) for _ in range(n_gens)]
        cfg = SolverConfig(epsilon=2.0**-10, seed=splitmix64(MASTER_SEED ^ 0x3500 ^ trial))
        if trial % 2 == 0:
            g = s8.power(sigma, rng.randrange(5))
            ans = constructive_membership(s8, h_list, g, cfg)
            ok = ans.member
            if ok:
                acc = s8.identity()
                for h, a in zip(h_list, ans.exponents.values):
                    acc = s8.multiply(acc, s8.power(h, a))
                ok = s8.equal(acc, g)
        else:
            # tau commutes with sigma (disjoint supports) but is not a power of it
            ans = constructive_membership(s8, h_list, tau, cfg)
            sub_keys = {s8.key(x) for x in enumerate_closure(s8, h_list)}
            assert s8.key(tau) not in sub_keys
            ok = not ans.member
        if not ok:
            failures += 1
    elapsed = time.monotonic() - start
    _record("criterion-3", runs, failures, elapsed, allowed=1)
    assert failures <= 1
    assert elapsed <= 60.0


def test_criterion_4_hidden_normal_subgroup():
    q8 = q8_group()
    d16 = d16_group()
    es3 = make_group(GroupSpec(kind="extraspecial", p=3))
    es3_elements = enumerate_closure(es3, es3.generators)
    es3_center = [
        x
        for x in es3_elements
        if all(es3.equal(es3.multiply(x, g), es3.multiply(g, x)) for g in es3.generators)
        and not es3.is_identity(x)
    ]
    r, s = d16.generators
    r2 = d16.power(r, 2)
    instances = [
        (q8, [q8_minus_one(q8)]),
        (es3, es3_center[:1]),
        (d16, [r]),
        (d16, [r2]),
        (d16, [r2, s]),
        (d16, [r2, d16.multiply(r, s)]),
    ]
    start = time.monotonic()
    bad = 0
    runs = 0
    for gi, (G, h_gens) in enumerate(instances):
        elements = enumerate_closure(G, G.generators)
        for seed_idx in range(100):
            runs += 1
            seed = splitmix64(MASTER_SEED ^ (gi << 16) ^ 0x4000 ^ seed_idx)
            f = make_hiding_oracle(G, h_gens, seed=seed)
            out = hidden_normal_subgroup(G, f, SolverConfig(epsilon=2.0**-20, seed=seed + 3))
            expected = brute_force_hsp(G, elements, f)
            if subgroup_key(G, enumerate_closure(G, out.gens)) != subgroup_key(G, expected):
                bad += 1
    elapsed = time.monotonic() - start
    _record("criterion-4", runs, bad, elapsed)
    assert bad == 0
    assert elapsed <= 60.0


def test_criterion_5_small_commutator_exhaustive():
    specs = [
        GroupSpec(kind="extraspecial", p=3, variant="exponent-p"),
        GroupSpec(kind="extraspecial", p=3, variant="exponent-p2"),
        GroupSpec(kind="extraspecial", p=5, variant="exponent-p"),
        GroupSpec(kind="extraspecial", p=5, variant="exponent-p2"),
    ]
    start = time.monotonic()
    bad = 0
    runs = 0
    for gi, spec in enumerate(specs):
        G = make_group(spec)
        elements = enumerate_closure(G, G.generators)
        assert len(elements) in (27, 125)
        for si, sub in enumerate(subgroups_of(G, elements)):
            runs += 1
            seed = splitmix64(MASTER_SEED ^ (gi << 12) ^ 0x5000 ^ si)
            f = make_hiding_oracle(G, list(sub), seed=seed)
            # the solver asserts its f-query budget internally on every run
            result = solve_small_commutator(G, f, SolverConfig(seed=seed + 7))
            assert result.stats.f_queries <= result.f_query_budget
            if subgroup_key(G, enumerate_closure(G, result.gens)) != subgroup_key(
                G, brute_force_hsp(G, elements, f)
            ):
                bad += 1
    elapsed = time.monotonic() - start
    _record("criterion-5", runs, bad, elapsed)
    assert bad == 0
    assert elapsed <= 300.0


def _iso_lemma_holds(G, n_elements, h_true, h_found):
    n_keys = {G.key(x) for x in n_elements}
    cap_true = {G.key(x) for x in h_true if G.key(x) in n_keys}
    cap_found = {G.key(x) for x in h_found if G.key(x) in n_keys}
    if cap_true != cap_found:
        return False
    hn_true = enumerate_closure(G, list(h_true) + list(n_elements))
    hn_found = enumerate_closure(G, list(h_found) + list(n_elements))
    return subgroup_key(G, hn_true) == subgroup_key(G, hn_found)


def test_criterion_6_elem2_small_quotient():
    start = time.monotonic()
    bad = 0
    runs = 0
    for gi, G in enumerate([make_group(GroupSpec(kind="wreath", k=3)), affine5_group()]):
        elements = enumerate_closure(G, G.generators)
        n_gens = [GroupElement(b) for b in G.meta["elem2_normal_gens"]]
        n_elements = enumerate_closure(G, n_gens)
        subs = subgroups_of(G, elements, max_count=100, rng=RngStream(MASTER_SEED ^ gi))
        for r in range(100):
            runs += 1
            sub = subs[r % len(subs)]
            seed = splitmix64(MASTER_SEED ^ (gi << 14) ^ 0x6000 ^ r)
            f = make_hiding_oracle(G, list(sub), seed=seed)
            result = solve_elem2_small_quotient(G, n_gens, f, SolverConfig(seed=seed + 9))
            h_true = brute_force_hsp(G, elements, f)
            h_found = enumerate_closure(G, result.gens)
            exact = subgroup_key(G, h_found) == subgroup_key(G, h_true)
            if not exact or not _iso_lemma_holds(G, n_elements, h_true, h_found):
                bad += 1
    elapsed = time.monotonic() - start
    _record("criterion-6", runs, bad, elapsed)
    assert bad == 0
    assert elapsed <= 300.0


def test_criterion_7_elem2_cyclic():
    G = affine4_group()
    elements = enumerate_closure(G, G.generators)
    assert len(elements) == 240
    n_gens = [GroupElement(b) for b in G.meta["elem2_normal_gens"]]
    subs = subgroups_of(G, elements, max_count=100, rng=RngStream(MASTER_SEED ^ 0x7))
    start = time.monotonic()
    bad = 0
    runs = 100
    for r in range(runs):
        sub = subs[r % len(subs)]
        seed = splitmix64(MASTER_SEED ^ 0x7000 ^ r)
        f = make_hiding_oracle(G, list(sub), seed=seed)
        result = solve_elem2_cyclic(G, n_gens, f, SolverConfig(seed=seed + 11))
        ok = subgroup_key(G, enumerate_closure(G, result.gens)) == subgroup_key(
            G, brute_force_hsp(G, elements, f)
        )
        # |V| <= 1 + h_3 + h_5 for |G/N| = 15
        if result.coset_reps is not None and len(result.coset_reps) > 3:
            ok = False
        if not ok:
            bad += 1
    elapsed = time.monotonic() - start
    _record("criterion-7", runs, bad, elapsed)
    assert bad == 0
    assert elapsed <= 180.0


def test_criterion_8_cross_oracle_consistency():
    expected = {f"criterion-{i}" for i in range(1, 8)}
    assert expected <= set(RECORDS), "criteria 1-7 must have run first"
    solver_criteria = expected - {"criterion-2", "criterion-3"}
    mismatches = sum(RECORDS[name]["mismatches"] for name in solver_criteria)
    print(f"\n[criterion-8] {'PASS' if mismatches == 0 else 'FAIL'}: "
          f"{mismatches} oracle mismatches across criteria 1-7", flush=True)
    assert mismatches == 0


def test_criterion_9_determinism(tmp_path):
    (tmp_path / "es3.grp").write_text("kind = extraspecial\np = 3\n")
    (tmp_path / "z46.grp").write_text("kind = abelian\nmoduli = 4 6\n")
    (tmp_path / "wreath3.grp").write_text("kind = wreath\nk = 3\n")
    configs = [
        RunConfig(str(tmp_path / "es3.grp"), hidden="000010", verify=True, seed=MASTER_SEED),
        RunConfig(str(tmp_path / "z46.grp"), hidden="01000", verify=True, seed=MASTER_SEED + 1),
        RunConfig(
            str(tmp_path / "wreath3.grp"),
            hidden="0010000,0100000",
            solver="elem2-small",
            verify=True,
            seed=MASTER_SEED + 2,
        ),
    ]
    start = time.monotonic()
    diffs = 0
    for config in configs:
        _, first = run(config)
        _, second = run(config)
        first.pop("wall_time_s")
        second.pop("wall_time_s")
        if first != second:
            diffs += 1
    elapsed = time.monotonic() - start
    print(f"\n[criterion-9] {'PASS' if diffs == 0 else 'FAIL'}: "
          f"{len(configs)} configs re-run identically in {elapsed:.1f}s", flush=True)
    assert diffs == 0
