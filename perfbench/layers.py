"""Layer probes and the per-layer metrics derived from them.

Each probe names the library function it times and the layer it belongs
to.  ``has_transitive_set`` is shared: its calls are split by the span
that calls it, so leaf checks in the extender and the circulant scan are
told apart.  Rates divide by a layer's total time (self time plus its
children), so ``canon.label.per_s`` is labels per second of
``canonical_label`` including its digraph6 encoding.
"""

from __future__ import annotations

from types import ModuleType
from typing import Callable

from .spans import LayerStats, Probe

_TRANS_BY_CALLER = {"ramsey.enum": "graphs.trans.leaf", "ramsey.circ": "graphs.trans.circ"}


def _trans_layer(caller: str) -> str:
    return _TRANS_BY_CALLER.get(caller, "graphs.trans.other")


def _trans_post(st: LayerStats, args, kwargs, found: bool, _) -> None:
    if not found:
        st.add("accept")


def _enum_post(st: LayerStats, args, kwargs, outcome, _) -> None:
    st.add("nodes", outcome.nodes)
    st.add("classes", sum(len(level) for level in outcome.levels[1:]))


def _budget_nodes(args, kwargs):
    budget = kwargs.get("budget")
    return None if budget is None else budget.nodes


def _anneal_post(st: LayerStats, args, kwargs, digraph, nodes_before) -> None:
    if nodes_before is not None:
        st.add("moves", kwargs["budget"].nodes - nodes_before)
    if digraph is not None:
        st.add("found")


def _solve_post(st: LayerStats, args, kwargs, res, _) -> None:
    st.add("nodes", res.nodes)
    st.add(res.status)


def _nodes_post(st: LayerStats, args, kwargs, res, _) -> None:
    st.add("nodes", res.nodes)


def probes(lib: ModuleType) -> list[Probe]:
    """Every probe, bound to the given import of the library."""
    ramsey, transversal, ortho = lib.ramsey, lib.transversal, lib.ortho
    return [
        Probe("ramsey.search_dr", ramsey, "search_dr"),
        Probe("ramsey.circ", ramsey, "probe_circulants"),
        Probe("ramsey.anneal", ramsey, "probe_local_search", _budget_nodes, _anneal_post),
        Probe("ramsey.enum", ramsey, "enumerate_good_classes", post=_enum_post),
        Probe("ramsey.verify", ramsey, "check_counterexample"),
        Probe(_trans_layer, ramsey, "has_transitive_set", post=_trans_post),
        Probe("canon.label", ramsey, "canonical_label"),
        Probe("codec.digraph6", lib.canon, "encode_digraph6"),
        Probe("transversal.solve", transversal, "find_transversal", post=_solve_post),
        Probe("graphs.capacity", transversal, "has_independent_set"),
        Probe("graphs.is_independent", transversal, "is_independent"),
        Probe("ortho.search", ortho, "alpha_lower_search", post=_nodes_post),
        Probe("ortho.check", ortho, "alpha_check"),
        Probe("constructions.layered", lib.constructions, "layered_from_digraph"),
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


Get = Callable[[str], LayerStats]

# name, unit, better, value from the per-pass layer stats
PER_LAYER: list[tuple[str, str, str, Callable[[Get], float]]] = [
    ("canon.label.calls", "count", "lower", lambda L: L("canon.label").calls),
    ("canon.label.self_s", "s", "lower", lambda L: L("canon.label").self_s),
    ("canon.label.per_s", "1/s", "higher", lambda L: _ratio(L("canon.label").calls, L("canon.label").total_s)),
    ("codec.digraph6.calls", "count", "lower", lambda L: L("codec.digraph6").calls),
    ("codec.digraph6.self_s", "s", "lower", lambda L: L("codec.digraph6").self_s),
    ("ramsey.enum.calls", "count", "lower", lambda L: L("ramsey.enum").calls),
    ("ramsey.enum.nodes", "count", "lower", lambda L: L("ramsey.enum").counts.get("nodes", 0)),
    ("ramsey.enum.classes", "count", "lower", lambda L: L("ramsey.enum").counts.get("classes", 0)),
    ("ramsey.enum.self_s", "s", "lower", lambda L: L("ramsey.enum").self_s),
    (
        "ramsey.enum.nodes_per_s", "1/s", "higher",
        lambda L: _ratio(L("ramsey.enum").counts.get("nodes", 0), L("ramsey.enum").total_s),
    ),
    (
        "ramsey.enum.class_yield", "ratio", "higher",
        lambda L: _ratio(L("ramsey.enum").counts.get("classes", 0), L("canon.label").calls),
    ),
    ("graphs.trans.leaf.calls", "count", "lower", lambda L: L("graphs.trans.leaf").calls),
    ("graphs.trans.leaf.self_s", "s", "lower", lambda L: L("graphs.trans.leaf").self_s),
    (
        "graphs.trans.leaf.accept", "ratio", "higher",
        lambda L: _ratio(L("graphs.trans.leaf").counts.get("accept", 0), L("graphs.trans.leaf").calls),
    ),
    ("graphs.trans.circ.calls", "count", "lower", lambda L: L("graphs.trans.circ").calls),
    ("graphs.trans.circ.self_s", "s", "lower", lambda L: L("graphs.trans.circ").self_s),
    ("graphs.trans.other.calls", "count", "lower", lambda L: L("graphs.trans.other").calls),
    ("graphs.trans.other.self_s", "s", "lower", lambda L: L("graphs.trans.other").self_s),
    ("ramsey.circ.calls", "count", "lower", lambda L: L("ramsey.circ").calls),
    ("ramsey.circ.self_s", "s", "lower", lambda L: L("ramsey.circ").self_s),
    ("ramsey.anneal.calls", "count", "lower", lambda L: L("ramsey.anneal").calls),
    ("ramsey.anneal.found", "count", "higher", lambda L: L("ramsey.anneal").counts.get("found", 0)),
    ("ramsey.anneal.moves", "count", "lower", lambda L: L("ramsey.anneal").counts.get("moves", 0)),
    ("ramsey.anneal.self_s", "s", "lower", lambda L: L("ramsey.anneal").self_s),
    (
        "ramsey.anneal.moves_per_s", "1/s", "higher",
        lambda L: _ratio(L("ramsey.anneal").counts.get("moves", 0), L("ramsey.anneal").total_s),
    ),
    ("ramsey.verify.calls", "count", "lower", lambda L: L("ramsey.verify").calls),
    ("ramsey.verify.self_s", "s", "lower", lambda L: L("ramsey.verify").self_s),
    ("ramsey.search_dr.calls", "count", "lower", lambda L: L("ramsey.search_dr").calls),
    ("ramsey.search_dr.self_s", "s", "lower", lambda L: L("ramsey.search_dr").self_s),
    ("transversal.solve.calls", "count", "lower", lambda L: L("transversal.solve").calls),
    ("transversal.solve.nodes", "count", "lower", lambda L: L("transversal.solve").counts.get("nodes", 0)),
    ("transversal.solve.self_s", "s", "lower", lambda L: L("transversal.solve").self_s),
    (
        "transversal.solve.nodes_per_s", "1/s", "higher",
        lambda L: _ratio(L("transversal.solve").counts.get("nodes", 0), L("transversal.solve").total_s),
    ),
    ("transversal.solve.none", "count", "higher", lambda L: L("transversal.solve").counts.get("none", 0)),
    ("transversal.solve.budget", "count", "lower", lambda L: L("transversal.solve").counts.get("budget", 0)),
    ("graphs.capacity.calls", "count", "lower", lambda L: L("graphs.capacity").calls),
    ("graphs.capacity.self_s", "s", "lower", lambda L: L("graphs.capacity").self_s),
    ("graphs.is_independent.calls", "count", "lower", lambda L: L("graphs.is_independent").calls),
    ("graphs.is_independent.self_s", "s", "lower", lambda L: L("graphs.is_independent").self_s),
    ("ortho.search.calls", "count", "lower", lambda L: L("ortho.search").calls),
    ("ortho.search.nodes", "count", "lower", lambda L: L("ortho.search").counts.get("nodes", 0)),
    ("ortho.search.self_s", "s", "lower", lambda L: L("ortho.search").self_s),
    (
        "ortho.search.nodes_per_s", "1/s", "higher",
        lambda L: _ratio(L("ortho.search").counts.get("nodes", 0), L("ortho.search").total_s),
    ),
    ("ortho.check.calls", "count", "lower", lambda L: L("ortho.check").calls),
    ("ortho.check.self_s", "s", "lower", lambda L: L("ortho.check").self_s),
    # instance generation runs in set-up, traced once
    ("constructions.layered.calls", "count", "lower", lambda L: L("constructions.layered").calls),
    ("constructions.layered.self_s", "s", "lower", lambda L: L("constructions.layered").self_s),
]
