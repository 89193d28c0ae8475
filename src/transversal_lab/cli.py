"""Command-line surface: dr search, generators, transversal and embedding
solvers, orthogonality searches.

This module is the one place that reads input files: graph6 and digraph6
through `codec`, and the three JSON formats (classes, pattern, vector
family) through the readers below, which refuse any number they read
that is not a JSON integer.

Every command except `gen` prints one RunReport JSON object to stdout:
each report command returns (result, nodes), and `main` builds, times and
prints the report.  Its command and params come off the parser: the
command is the subcommand names, and the params are the leaf command's
flags as parsed, under their argparse dests.  Reports are deterministic
for identical parameters and seeds (timing fields excluded).

Every answer a report carries passes one complete check, once, before it
is printed:
- `dr compute`: search_dr builds its certificate with
  ramsey.check_counterexample, probe candidates included;
- `embed balanced`: balanced_induced_embed runs EmbeddingReport.verify;
- `transversal solve`, `embed halforder` and `ortho search`: the command
  here runs TransversalResult.verify, HalfOrderResult.verify or
  alpha_check on what the search returned.

Exit codes: 0 success (including "none" answers); 2 bad flag values;
3 any unreadable, empty or malformed input file (graph6, digraph6,
classes, pattern or vector JSON) and any unwritable `--out` path;
4 internal verification failure: an answer that fails its check.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, Optional, TypeVar

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
from .ramsey import dr_bounds, search_dr
from .transversal import find_transversal

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_VERIFY = 4

T = TypeVar("T")
# (result, nodes); nodes is None for commands that search nothing
Report = tuple[dict, Optional[int]]
# the subparser dests, which name a report's command and are not its params
_ROUTE = ("command", "dr_command", "tr_command", "embed_command", "ortho_command", "generator")


def _load(path: str, parse: Callable[[str], T]) -> T:
    """Read one input file and parse its text.  Any failure, from a
    missing file to a wrong JSON shape, is MalformedInput naming the path."""
    try:
        return parse(Path(path).read_text())
    except Exception as exc:
        raise MalformedInput(f"cannot load {path}: {type(exc).__name__}: {exc}") from exc


def _first_line(text: str) -> str:
    # an empty file gives "", which the decoders refuse as empty input
    return (text.strip().splitlines() or [""])[0]


def _load_graph(path: str) -> UGraph:
    return _load(path, lambda text: decode_graph6(_first_line(text)))


def _ints(values, what: str) -> tuple[int, ...]:
    """The JSON numbers `values` as a tuple, each of which must be a JSON
    integer: true, 1.7 and "1" are refused, not read as 1."""
    values = tuple(values)
    if any(type(v) is not int for v in values):
        raise ValueError(f"{what} must be integers")
    return values


def _rows(value, name: str, what: str) -> list[tuple[int, ...]]:
    """The JSON array of arrays `name`, each row read by _ints."""
    if type(value) is not list or any(type(row) is not list for row in value):
        raise ValueError(f"{name} must be a list of lists")
    return [_ints(row, what) for row in value]


def _fields(text: str, name: str, keys: tuple[str, ...]) -> tuple:
    """The values of `keys` in the JSON object `text`, a `name` file."""
    data = json.loads(text)
    if type(data) is not dict:
        raise ValueError(f"{name} must be a JSON object")
    for key in keys:
        if key not in data:
            raise ValueError(f"{name} has no {key!r} key")
    return tuple(data[key] for key in keys)


def _read_classes(graph: UGraph, text: str) -> PartitionedGraph:
    """The partition {"classes": [[v, ...], ...]} of graph."""
    (rows,) = _fields(text, "classes file", ("classes",))
    classes = _rows(rows, "classes", "class vertices")
    return PartitionedGraph(graph, tuple(frozenset(c) for c in classes))


def _read_pattern(text: str) -> BipartitePattern:
    """The pattern {"left": L, "right": R, "edges": [[i, j], ...]}."""
    left, right, edges = _fields(text, "pattern", ("left", "right", "edges"))
    what = "pattern sizes and edge ends"
    left, right = _ints((left, right), what)
    return BipartitePattern(left, right, frozenset(_rows(edges, "edges", what)))


def _read_family(dim: int, text: str) -> VectorFamily:
    """The vector family [[x, ...], ...] in dimension dim."""
    return VectorFamily.from_raw(dim, _rows(json.loads(text), "vector family", "vector coordinates"))


def _load_partitioned(graph_path: str, classes_path: str) -> PartitionedGraph:
    g = _load_graph(graph_path)
    return _load(classes_path, lambda text: _read_classes(g, text))


def _load_two_classes(args) -> PartitionedGraph:
    """The --graph and --classes of an `embed` command, whose classes file
    must hold exactly two classes."""
    pg = _load_partitioned(args.graph, args.classes)
    if pg.num_classes != 2:
        raise MalformedInput(f"{args.classes}: {args.embed_command} needs exactly 2 classes")
    return pg


def _load_family(path: str, dim: int) -> VectorFamily:
    return _load(path, lambda text: _read_family(dim, text))


def _write_or_print(lines: list[str], out: Optional[str], suffixes: list[str]) -> None:
    if out is None:
        for line in lines:
            print(line)
        return
    for line, suffix in zip(lines, suffixes):
        Path(out + suffix).write_text(line + "\n")


# ---------------------------------------------------------------------------
# dr
# ---------------------------------------------------------------------------


def _cmd_dr_compute(args) -> Report:
    result = search_dr(
        args.n,
        args.m,
        max_order=args.max_order,
        node_budget=args.budget_nodes,
        time_budget=args.budget_secs,
        probe=args.probe,
    )
    cert = result.certificate
    return {
        "lower": result.lower,
        "upper": result.upper,
        "exact": result.exact,
        "value": result.value,
        "proof_method": result.proof_method,
        "certificate": encode_digraph6(cert.digraph) if cert else None,
        "certificate_order": cert.order if cert else None,
        "budget_hit": result.budget_hit,
        "budget_reason": result.budget_reason,
        "level_counts": result.level_counts,
    }, result.nodes


def _cmd_dr_bounds(args) -> Report:
    lo, hi = dr_bounds(args.n, args.m)
    return {"lower": lo, "upper": hi, "exact": lo == hi}, None


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _cmd_gen(args) -> None:
    kind = args.generator
    if kind in ("tensor", "shift", "henson"):
        if kind == "tensor":
            graph = tensor(_load_graph(args.g), _load_graph(args.h))
        elif kind == "shift":
            graph = shift_graph(args.n, args.N)
        else:
            seed = _load_graph(args.seed_graph) if args.seed_graph else UGraph.empty(2)
            graph = henson_approx(args.n, args.rounds, seed, args.rng_seed, pair_cap=args.cap)
        _write_or_print([encode_graph6(graph)], args.out, [".g6"])
        return
    if kind == "layered":
        digraph = _load(args.digraph, lambda text: decode_digraph6(_first_line(text)))
        pg = layered_from_digraph(digraph, args.depth)
    elif kind == "half":
        pg = half_graph(args.k)
    elif kind == "complete":
        pg = complete_bipartite(args.k)
    elif kind == "empty":
        pg = empty_bipartite(args.k)
    elif kind == "partition-witness":
        g = _load_graph(args.graph)
        a = [int(x) for x in args.a.split(",") if x != ""]
        b = [int(x) for x in args.b.split(",") if x != ""]
        pg = partition_extension_witness(g, a, b, args.n, args.pair_budget)
    elif kind == "rado":
        pg = rado_partition_witness(args.depth)
    else:
        raise AssertionError(kind)
    classes_line = json.dumps({"classes": [sorted(c) for c in pg.classes]})
    _write_or_print([encode_graph6(pg.graph), classes_line], args.out, [".g6", ".classes.json"])


# ---------------------------------------------------------------------------
# transversal / embed / ortho
# ---------------------------------------------------------------------------


def _cmd_transversal_solve(args) -> Report:
    pg = _load_partitioned(args.graph, args.classes)
    res = find_transversal(pg, args.m, args.ell, node_budget=args.budget_nodes)
    if not res.verify(pg, args.m, args.ell):
        raise VerificationError("transversal result failed re-verification")
    return {
        "status": res.status,
        "witness": sorted(res.witness) if res.witness is not None else None,
        "profile": res.profile,
        "nodes_explored": res.nodes,
        "exact": res.status != "budget",
        "budget_reason": res.budget_reason,
    }, res.nodes


def _cmd_embed_halforder(args) -> Report:
    pg = _load_two_classes(args)
    res = half_graph_order(
        pg.graph,
        pg.classes[0],
        pg.classes[1],
        exact_cap=args.exact_cap,
        node_budget=args.budget_nodes,
    )
    if not res.verify(pg.graph, pg.classes[0], pg.classes[1]):
        raise VerificationError("half-graph witness failed re-verification")
    return {
        "order": res.order,
        "exact": res.exact,
        "a_sequence": res.a_sequence,
        "b_sequence": res.b_sequence,
        "budget_reason": res.budget_reason,
    }, res.nodes


def _cmd_embed_balanced(args) -> Report:
    pg = _load_two_classes(args)
    pattern = _load(args.pattern, _read_pattern)
    out = balanced_induced_embed(pg, pattern, node_budget=args.budget_nodes)
    return {
        "found": out.report is not None,
        "exact": out.exact,
        "left_images": out.report.left_images if out.report else None,
        "right_images": out.report.right_images if out.report else None,
        "side_assignment": out.report.side_assignment if out.report else None,
        "budget_reason": out.budget_reason,
    }, out.nodes


def _cmd_ortho_check(args) -> Report:
    family = _load_family(args.family, args.dim)
    return {"ok": alpha_check(family, args.m), "family_size": len(family)}, None


def _cmd_ortho_search(args) -> Report:
    if args.pool:
        pool = _load_family(args.pool, args.dim)
        args.pool_height = None  # a pool file leaves the height unused, and the report says so
    else:
        pool = directions_of_height(args.dim, args.pool_height)
    res = alpha_lower_search(args.dim, args.m, pool, node_budget=args.budget_nodes)
    if not alpha_check(res.family, args.m):
        raise VerificationError("search result failed its alpha re-check")
    return {
        "alpha_lower": len(res.family),
        "exact_over_pool": res.exact,
        "budget_reason": res.budget_reason,
        "pool_size": len(pool),
        "family": res.family.vectors,
    }, res.nodes


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
    p_compute.add_argument("--no-probe", dest="probe", action="store_false")
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
    for gp in gen_sub.choices.values():
        gp.add_argument("--out", default=None, help="output base path")
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
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        out = args.func(args)
        line = None  # gen prints its own lines
        if out is not None:
            result, nodes = out
            given = vars(args)
            report = {
                "command": " ".join(given[key] for key in _ROUTE if key in given),
                "params": {k: v for k, v in given.items() if k not in _ROUTE and k != "func"},
                "result": result,
                "version": __version__,
                "timing": {"seconds": round(time.monotonic() - started, 6)},
            }
            if nodes is not None:
                report["nodes"] = nodes
            # an int past sys.get_int_max_str_digits() fails here, as a ValueError
            line = json.dumps(report, sort_keys=True)
    except (OSError, MalformedInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (TransversalLabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if line is not None:
        print(line)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
