"""Command-line surface: dr search, generators, transversal and embedding
solvers, orthogonality searches.

Every command prints one RunReport JSON object to stdout.  Reports are
deterministic for identical parameters and seeds (timing fields excluded),
and every witness they carry has passed its re-verification predicate at
emission time.

Exit codes: 0 success (including "none" answers), 2 argument errors,
3 I/O errors, 4 internal verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional

from . import __version__
from .codec import decode_digraph6, decode_graph6, encode_digraph6, encode_graph6
from .constructions import (
    PartitionedGraph,
    complete_bipartite,
    empty_bipartite,
    half_graph,
    henson_approx,
    layered_from_digraph,
    partition_extension_witness,
    rado_partition_witness,
    shift_graph,
    tensor,
)
from .embedding import BipartitePattern, balanced_induced_embed, half_graph_order
from .errors import MalformedInput, TransversalLabError, VerificationError
from .graphs import UGraph
from .ortho import (
    VectorFamily,
    alpha_check,
    alpha_lower_search,
    directions_of_height,
)
from .ramsey import RamseyTable, dr_bounds, search_dr
from .transversal import find_transversal

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_VERIFY = 4


def _report(command: str, params: dict, result: dict, started: float, nodes: Optional[int] = None) -> dict:
    report = {
        "command": command,
        "params": params,
        "result": result,
        "version": __version__,
        "timing": {"seconds": round(time.monotonic() - started, 6)},
    }
    if nodes is not None:
        report["nodes"] = nodes
    return report


def _emit(report: dict) -> None:
    print(json.dumps(report, sort_keys=True))


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise _IOFailure(f"cannot read {path}: {exc}") from exc


class _IOFailure(Exception):
    pass


def _load_graph(path: str) -> UGraph:
    return decode_graph6(_read_text(path).strip().splitlines()[0])


def _load_partitioned(graph_path: str, classes_path: str) -> PartitionedGraph:
    g = _load_graph(graph_path)
    return PartitionedGraph.from_classes_json(g, _read_text(classes_path))


def _write_or_print(lines: list[str], out: Optional[str], suffixes: list[str]) -> None:
    if out is None:
        for line in lines:
            print(line)
        return
    for line, suffix in zip(lines, suffixes):
        try:
            Path(out + suffix).write_text(line + "\n")
        except OSError as exc:
            raise _IOFailure(f"cannot write {out + suffix}: {exc}") from exc


# ---------------------------------------------------------------------------
# dr
# ---------------------------------------------------------------------------


def _cmd_dr_compute(args) -> int:
    started = time.monotonic()
    params = {
        "n": args.n,
        "m": args.m,
        "max_order": args.max_order,
        "budget_nodes": args.budget_nodes,
        "budget_secs": args.budget_secs,
        "probe": not args.no_probe,
    }
    result = search_dr(
        args.n,
        args.m,
        max_order=args.max_order,
        node_budget=args.budget_nodes,
        time_budget=args.budget_secs,
        probe=not args.no_probe,
    )
    cert_line = None
    if result.certificate is not None:
        if not result.certificate.reverify():
            raise VerificationError("certificate failed re-verification before emission")
        cert_line = encode_digraph6(result.certificate.digraph)
    payload = {
        "lower": result.lower,
        "upper": result.upper,
        "exact": result.exact,
        "value": result.lower if result.exact else None,
        "proof_method": result.proof_method,
        "certificate": cert_line,
        "certificate_order": result.certificate.order if result.certificate else None,
        "budget_hit": result.budget_hit,
        "budget_reason": result.budget_reason,
        "level_counts": list(result.level_counts),
    }
    _emit(_report("dr compute", params, payload, started, nodes=result.nodes))
    return EXIT_OK


def _cmd_dr_bounds(args) -> int:
    started = time.monotonic()
    params = {"n": args.n, "m": args.m}
    lo, hi = dr_bounds(args.n, args.m, table=RamseyTable.default())
    _emit(_report("dr bounds", params, {"lower": lo, "upper": hi, "exact": lo == hi}, started))
    return EXIT_OK


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    kind = args.generator
    if kind == "layered":
        digraph = decode_digraph6(_read_text(args.digraph).strip().splitlines()[0])
        pg = layered_from_digraph(digraph, args.depth)
    elif kind == "half":
        pg = half_graph(args.k)
    elif kind == "complete":
        pg = complete_bipartite(args.k)
    elif kind == "empty":
        pg = empty_bipartite(args.k)
    elif kind == "tensor":
        g = _load_graph(args.g)
        h = _load_graph(args.h)
        out_graph = tensor(g, h)
        _write_or_print([encode_graph6(out_graph)], args.out, [".g6"])
        return EXIT_OK
    elif kind == "shift":
        out_graph = shift_graph(args.n, args.N)
        _write_or_print([encode_graph6(out_graph)], args.out, [".g6"])
        return EXIT_OK
    elif kind == "henson":
        seed = _load_graph(args.seed_graph) if args.seed_graph else UGraph.empty(2)
        out_graph = henson_approx(
            args.n, args.rounds, seed, args.rng_seed, pair_cap=args.cap
        )
        _write_or_print([encode_graph6(out_graph)], args.out, [".g6"])
        return EXIT_OK
    elif kind == "partition-witness":
        g = _load_graph(args.graph)
        a = [int(x) for x in args.a.split(",") if x != ""]
        b = [int(x) for x in args.b.split(",") if x != ""]
        pg = partition_extension_witness(g, a, b, args.n, args.pair_budget)
    elif kind == "rado":
        pg = rado_partition_witness(args.depth)
    else:
        raise AssertionError(kind)
    _write_or_print(
        [encode_graph6(pg.graph), pg.classes_json()], args.out, [".g6", ".classes.json"]
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# transversal / embed / ortho
# ---------------------------------------------------------------------------


def _cmd_transversal_solve(args) -> int:
    started = time.monotonic()
    pg = _load_partitioned(args.graph, args.classes)
    params = {
        "graph": args.graph,
        "classes": args.classes,
        "m": args.m,
        "ell": args.ell,
        "budget_nodes": args.budget_nodes,
    }
    res = find_transversal(pg, args.m, args.ell, node_budget=args.budget_nodes)
    if not res.verify(pg, args.m, args.ell):
        raise VerificationError("transversal result failed re-verification")
    payload = {
        "status": res.status,
        "witness": sorted(res.witness) if res.witness is not None else None,
        "profile": list(res.profile),
        "nodes_explored": res.nodes,
        "exact": res.status != "budget",
        "budget_reason": res.budget_reason,
    }
    _emit(_report("transversal solve", params, payload, started, nodes=res.nodes))
    return EXIT_OK


def _cmd_embed_halforder(args) -> int:
    started = time.monotonic()
    pg = _load_partitioned(args.graph, args.classes)
    if pg.num_classes != 2:
        raise MalformedInput("halforder needs exactly 2 classes")
    params = {
        "graph": args.graph,
        "classes": args.classes,
        "exact_cap": args.exact_cap,
        "budget_nodes": args.budget_nodes,
    }
    res = half_graph_order(
        pg.graph,
        pg.classes[0],
        pg.classes[1],
        exact_cap=args.exact_cap,
        node_budget=args.budget_nodes,
    )
    if res.order > 0 and not res.verify(pg.graph):
        raise VerificationError("half-graph witness failed re-verification")
    payload = {
        "order": res.order,
        "exact": res.exact,
        "a_sequence": list(res.a_sequence),
        "b_sequence": list(res.b_sequence),
        "budget_reason": res.budget_reason,
    }
    _emit(_report("embed halforder", params, payload, started, nodes=res.nodes))
    return EXIT_OK


def _cmd_embed_balanced(args) -> int:
    started = time.monotonic()
    pg = _load_partitioned(args.graph, args.classes)
    pattern = BipartitePattern.from_json_dict(json.loads(_read_text(args.pattern)))
    params = {
        "graph": args.graph,
        "classes": args.classes,
        "pattern": args.pattern,
        "budget_nodes": args.budget_nodes,
    }
    out = balanced_induced_embed(pg, pattern, node_budget=args.budget_nodes)
    if out.report is not None and not out.report.verify(pg, pattern):
        raise VerificationError("embedding failed re-verification")
    payload = {
        "found": out.report is not None,
        "exact": out.exact,
        "left_images": list(out.report.left_images) if out.report else None,
        "right_images": list(out.report.right_images) if out.report else None,
        "side_assignment": list(out.report.side_assignment) if out.report else None,
        "budget_reason": out.budget_reason,
    }
    _emit(_report("embed balanced", params, payload, started, nodes=out.nodes))
    return EXIT_OK


def _load_family(path: str, dim: int) -> VectorFamily:
    data = json.loads(_read_text(path))
    return VectorFamily.from_raw(dim, data)


def _cmd_ortho_check(args) -> int:
    started = time.monotonic()
    family = _load_family(args.family, args.dim)
    params = {"family": args.family, "dim": args.dim, "m": args.m}
    ok = alpha_check(family, args.m)
    payload = {"ok": ok, "family_size": len(family)}
    _emit(_report("ortho check", params, payload, started))
    return EXIT_OK


def _cmd_ortho_search(args) -> int:
    started = time.monotonic()
    if args.pool:
        pool = _load_family(args.pool, args.dim)
    else:
        pool = directions_of_height(args.dim, args.pool_height)
    params = {
        "dim": args.dim,
        "m": args.m,
        "pool": args.pool,
        "pool_height": None if args.pool else args.pool_height,
        "budget_nodes": args.budget_nodes,
    }
    res = alpha_lower_search(args.dim, args.m, pool, node_budget=args.budget_nodes)
    if not alpha_check(res.family, args.m):
        raise VerificationError("search result failed its alpha re-check")
    payload = {
        "alpha_lower": len(res.family),
        "exact_over_pool": res.exact,
        "budget_reason": res.budget_reason,
        "pool_size": len(pool),
        "family": res.family.to_json_obj(),
    }
    _emit(_report("ortho search", params, payload, started, nodes=res.nodes))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tlab",
        description="Directed Ramsey numbers, witness constructions, and "
        "independent-transversal search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dr = sub.add_parser("dr", help="directed Ramsey numbers")
    dr_sub = p_dr.add_subparsers(dest="dr_command", required=True)
    p_compute = dr_sub.add_parser("compute", help="search dr(n, m)")
    p_compute.add_argument("--n", type=int, required=True)
    p_compute.add_argument("--m", type=int, required=True)
    p_compute.add_argument("--max-order", type=int, default=None)
    p_compute.add_argument("--budget-nodes", type=int, default=5_000_000)
    p_compute.add_argument("--budget-secs", type=float, default=None)
    p_compute.add_argument("--no-probe", action="store_true")
    p_compute.set_defaults(func=_cmd_dr_compute)
    p_bounds = dr_sub.add_parser("bounds", help="bound dr(n, m) without searching")
    p_bounds.add_argument("--n", type=int, required=True)
    p_bounds.add_argument("--m", type=int, required=True)
    p_bounds.set_defaults(func=_cmd_dr_bounds)

    p_gen = sub.add_parser("gen", help="graph generators")
    gen_sub = p_gen.add_subparsers(dest="generator", required=True)

    g_layered = gen_sub.add_parser("layered")
    g_layered.add_argument("--digraph", required=True, help="digraph6 file")
    g_layered.add_argument("--depth", type=int, required=True)
    for name in ("half", "complete", "empty"):
        gp = gen_sub.add_parser(name)
        gp.add_argument("--k", type=int, required=True)
    g_tensor = gen_sub.add_parser("tensor")
    g_tensor.add_argument("--g", required=True, help="graph6 file")
    g_tensor.add_argument("--h", required=True, help="graph6 file")
    g_shift = gen_sub.add_parser("shift")
    g_shift.add_argument("--n", type=int, required=True)
    g_shift.add_argument("--N", type=int, required=True)
    g_henson = gen_sub.add_parser("henson")
    g_henson.add_argument("--n", type=int, required=True)
    g_henson.add_argument("--rounds", type=int, required=True)
    g_henson.add_argument("--seed-graph", default=None, help="graph6 file (default E_2)")
    g_henson.add_argument("--rng-seed", type=int, default=None)
    g_henson.add_argument("--cap", type=int, default=3)
    g_pw = gen_sub.add_parser("partition-witness")
    g_pw.add_argument("--graph", required=True)
    g_pw.add_argument("--a", required=True, help="comma-separated vertex list")
    g_pw.add_argument("--b", required=True, help="comma-separated vertex list")
    g_pw.add_argument("--n", type=int, required=True)
    g_pw.add_argument("--pair-budget", type=int, default=64)
    g_rado = gen_sub.add_parser("rado")
    g_rado.add_argument("--depth", type=int, required=True)
    for gp in (g_layered, g_tensor, g_shift, g_henson, g_pw, g_rado):
        gp.add_argument("--out", default=None, help="output base path")
    for name in ("half", "complete", "empty"):
        gen_sub.choices[name].add_argument("--out", default=None)
    p_gen.set_defaults(func=_cmd_gen)

    p_tr = sub.add_parser("transversal", help="independent transversal solver")
    tr_sub = p_tr.add_subparsers(dest="tr_command", required=True)
    p_solve = tr_sub.add_parser("solve")
    p_solve.add_argument("--graph", required=True, help="graph6 file")
    p_solve.add_argument("--classes", required=True, help="classes JSON file")
    p_solve.add_argument("--m", type=int, required=True)
    p_solve.add_argument("--ell", type=int, required=True)
    p_solve.add_argument("--budget-nodes", type=int, default=None)
    p_solve.set_defaults(func=_cmd_transversal_solve)

    p_embed = sub.add_parser("embed", help="embedding analyzers")
    em_sub = p_embed.add_subparsers(dest="embed_command", required=True)
    p_half = em_sub.add_parser("halforder")
    p_half.add_argument("--graph", required=True)
    p_half.add_argument("--classes", required=True)
    p_half.add_argument("--exact-cap", type=int, default=6)
    p_half.add_argument("--budget-nodes", type=int, default=None)
    p_half.set_defaults(func=_cmd_embed_halforder)
    p_bal = em_sub.add_parser("balanced")
    p_bal.add_argument("--graph", required=True)
    p_bal.add_argument("--classes", required=True)
    p_bal.add_argument("--pattern", required=True, help='JSON {"left","right","edges"}')
    p_bal.add_argument("--budget-nodes", type=int, default=None)
    p_bal.set_defaults(func=_cmd_embed_balanced)

    p_ortho = sub.add_parser("ortho", help="orthogonality searches")
    or_sub = p_ortho.add_subparsers(dest="ortho_command", required=True)
    p_check = or_sub.add_parser("check")
    p_check.add_argument("--family", required=True, help="JSON list of vectors")
    p_check.add_argument("--dim", type=int, required=True)
    p_check.add_argument("--m", type=int, required=True)
    p_check.set_defaults(func=_cmd_ortho_check)
    p_search = or_sub.add_parser("search")
    p_search.add_argument("--dim", type=int, required=True)
    p_search.add_argument("--m", type=int, required=True)
    p_search.add_argument("--pool-height", type=int, default=2)
    p_search.add_argument("--pool", default=None, help="JSON vector pool file")
    p_search.add_argument("--budget-nodes", type=int, default=None)
    p_search.set_defaults(func=_cmd_ortho_search)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _IOFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except MalformedInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except TransversalLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
