"""Batch front end: load a group spec, build the hiding oracle, dispatch a
solver, optionally verify against the brute-force oracle, and emit a JSON
report.

Exit codes: 0 success, 1 solver error, 2 verification mismatch, 3 spec error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .core import (
    BlackBoxGroup,
    GroupElement,
    QueryStats,
    enumerate_closure,
    make_group,
    make_hiding_oracle,
)
from .errors import BadSpec, HspError, InvalidEncoding, UnsupportedInstance
from .normalsub import hidden_normal_subgroup, normal_closure
from .sim import SolverConfig, splitmix64
from .solvers import (
    SubgroupResult,
    solve_abelian,
    solve_elem2_cyclic,
    solve_elem2_small_quotient,
    solve_small_commutator,
)
from .specfile import load_group_spec
from .verify import brute_force_hsp, subgroup_key

REPORT_SCHEMA_VERSION = 1
AUTO_COMMUTATOR_BOUND = 64
AUTO_QUOTIENT_BOUND = 256


@dataclass
class RunConfig:
    group_path: str
    hidden: str
    solver: str = "auto"
    epsilon: float = 2.0**-10
    seed: int = 0
    verify: bool = False

    def __post_init__(self):
        if not 0 < self.epsilon < 0.5:
            raise BadSpec(f"epsilon must be in (0, 1/2), got {self.epsilon}")
        if not isinstance(self.hidden, str):
            raise BadSpec(f"hidden must be a string, got {self.hidden!r}")


def parse_hidden(G: BlackBoxGroup, text: str, base_dir: Path) -> list[GroupElement]:
    """Hidden-subgroup generators: bitstrings or length:hex tokens, separated
    by commas/semicolons, or @file with one token per line."""
    if text.startswith("@"):
        tokens = [
            line.split("#", 1)[0].strip()
            for line in (base_dir / text[1:]).read_text().splitlines()
        ]
    else:
        tokens = [tok.strip() for tok in text.replace(";", ",").split(",")]
    gens = []
    for tok in tokens:
        if not tok:
            continue
        element = GroupElement.from_hex(tok) if ":" in tok else GroupElement(tok)
        G.backend.validate(element.bits)
        gens.append(element)
    return gens


def _is_abelian(G: BlackBoxGroup) -> bool:
    return all(
        G.commute(a, b)
        for i, a in enumerate(G.generators)
        for b in G.generators[i + 1 :]
    )


def _pick_solver(G: BlackBoxGroup) -> str:
    if _is_abelian(G):
        return "abelian"
    comms = [
        G.commutator(a, b)
        for i, a in enumerate(G.generators)
        for b in G.generators[i + 1 :]
    ]
    try:
        normal_closure(G, comms, bound=AUTO_COMMUTATOR_BOUND)
        return "commutator"
    except HspError:
        pass
    if "elem2_normal_gens" in G.meta:
        return "elem2-cyclic" if G.meta.get("block_order") else "elem2-small"
    raise UnsupportedInstance("no solver applies; pass --solver explicitly")


def _dispatch(G: BlackBoxGroup, f, solver: str, cfg: SolverConfig) -> SubgroupResult:
    if solver == "abelian":
        return solve_abelian(G, f, cfg)
    if solver == "commutator":
        return solve_small_commutator(G, f, cfg)
    if solver == "normal":
        start = f.query_count
        ops = G.stats.group_ops
        n = hidden_normal_subgroup(G, f, cfg)
        stats = QueryStats(f.query_count - start, G.stats.group_ops - ops, cfg.rng.draws)
        return SubgroupResult(n.gens, stats, "normal")
    if solver in ("elem2-small", "elem2-cyclic"):
        n_bits = G.meta.get("elem2_normal_gens")
        if not n_bits:
            raise UnsupportedInstance(
                "group spec does not declare an elementary Abelian normal 2-subgroup"
            )
        n_gens = [GroupElement(b) for b in n_bits]
        if solver == "elem2-small":
            return solve_elem2_small_quotient(G, n_gens, f, cfg, AUTO_QUOTIENT_BOUND)
        return solve_elem2_cyclic(G, n_gens, f, cfg)
    raise BadSpec(f"unknown solver {solver!r}")


def run(config: RunConfig) -> tuple[int, dict]:
    started = time.monotonic()
    report: dict = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "config": {
            "group": config.group_path,
            "hidden": config.hidden,
            "solver": config.solver,
            "epsilon": config.epsilon,
            "seed": config.seed,
            "verify": config.verify,
        },
    }
    try:
        spec = load_group_spec(Path(config.group_path))
        G = make_group(spec)
        h_gens = parse_hidden(G, config.hidden, Path(config.group_path).parent)
        f = make_hiding_oracle(G, h_gens, seed=splitmix64(config.seed))
    except (BadSpec, InvalidEncoding, OSError, UnicodeDecodeError) as exc:
        report["error"] = f"spec error: {exc}"
        report["wall_time_s"] = time.monotonic() - started
        return 3, report
    try:
        solver = config.solver
        if solver == "auto":
            solver = _pick_solver(G)
        cfg = SolverConfig(epsilon=config.epsilon, seed=config.seed)
        result = _dispatch(G, f, solver, cfg)
    except HspError as exc:
        report["error"] = f"solver error ({type(exc).__name__}): {exc}"
        report["wall_time_s"] = time.monotonic() - started
        return 1, report
    report["method"] = result.method
    report["generators"] = [g.hex for g in result.gens]
    try:
        closure = enumerate_closure(G, result.gens)
        report["subgroup_order"] = len(closure)
    except HspError:
        closure = None
    report["stats"] = {
        "f_queries": result.stats.f_queries,
        "group_ops": result.stats.group_ops,
        "rng_draws": result.stats.rng_draws,
    }
    code = 0
    if config.verify:
        try:
            elements = enumerate_closure(G, G.generators)
            expected = brute_force_hsp(G, elements, f)
            equal = closure is not None and subgroup_key(G, expected) == subgroup_key(
                G, closure
            )
            report["verify"] = {
                "equal": equal,
                "expected_order": len(expected),
                "found_order": len(closure) if closure is not None else None,
            }
            if not equal:
                code = 2
        except HspError as exc:
            report["verify"] = {"equal": False, "error": str(exc)}
            code = 2
    report["wall_time_s"] = time.monotonic() - started
    return code, report


def run_suite(path: Path, master_seed: int, jobs: int = 4) -> tuple[int, list[dict]]:
    """Run a JSON array of run configs in order, one after another (`jobs` is
    accepted and ignored); per-instance seeds are derived by
    splitmix64(master_seed ^ index).  A malformed suite file raises BadSpec."""
    try:
        entries = json.loads(Path(path).read_text())
        if not isinstance(entries, list):
            raise TypeError("a suite file holds a JSON array of run configs")
        configs = [
            RunConfig(
                group_path=str(Path(path).parent / entry["group"]),
                hidden=entry["hidden"],
                solver=entry.get("solver", "auto"),
                epsilon=float(entry.get("epsilon", 2.0**-10)),
                seed=splitmix64(master_seed ^ i),
                verify=bool(entry.get("verify", True)),
            )
            for i, entry in enumerate(entries)
        ]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise BadSpec(f"malformed suite file {path}: {type(exc).__name__}: {exc}") from exc
    outcomes = [run(c) for c in configs]
    worst = max((code for code, _ in outcomes), default=0)
    return worst, [rep for _, rep in outcomes]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hsplab", description="hidden-subgroup solvers over black-box groups"
    )
    parser.add_argument("--group", metavar="PATH", help="group spec file")
    parser.add_argument("--hidden", metavar="SPEC", help="hidden subgroup generators")
    parser.add_argument(
        "--solver",
        default="auto",
        choices=["auto", "abelian", "commutator", "elem2-small", "elem2-cyclic", "normal"],
    )
    parser.add_argument("--epsilon", type=float, default=2.0**-10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--verify", action="store_true")
    parser.add_argument("--report", metavar="PATH")
    parser.add_argument("--suite", metavar="PATH")
    args = parser.parse_args(argv)

    if args.suite:
        try:
            code, reports = run_suite(Path(args.suite), args.seed)
        except BadSpec as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        payload = json.dumps(reports, indent=2)
    else:
        if not args.group or args.hidden is None:
            parser.error("--group and --hidden are required without --suite")
        try:
            config = RunConfig(
                group_path=args.group,
                hidden=args.hidden,
                solver=args.solver,
                epsilon=args.epsilon,
                seed=args.seed,
                verify=args.verify,
            )
        except BadSpec as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        code, report = run(config)
        payload = json.dumps(report, indent=2)
    if args.report:
        Path(args.report).write_text(payload + "\n")
    else:
        print(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
