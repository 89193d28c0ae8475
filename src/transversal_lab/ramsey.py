"""Directed Ramsey numbers dr(n, m): exact search, certificates, and bounds.

dr(n, m) is the least r such that every digraph on r vertices contains a
transitive set of size n or an independent set of size m.  It is computed
as 1 + (largest order admitting a counterexample); exactness requires an
exhausted search at the next order.

The search enumerates counterexample digraphs ("good" digraphs: no
transitive n-set, no independent m-set) order by order.  Each new vertex
chooses one of {none, forward, backward, both} against every prior vertex,
in that order; forward means the arc runs from the existing vertex to the
new one.  Digraphs are bit rows throughout (out[v], in[v] and
non-adjacency masks).  The extender, one loop over the prior vertices,
refuses a state as soon as it closes a transitive n-tuple through the new
vertex, which one search for an (n-2)-tuple drawn in order from three row
masks decides for every n (_good_extensions), and a state none as soon as
it completes an independent m-set.  Isomorph
rejection by canonical deletion keeps one representative per isomorphism
class at every order: a child is kept only when its new vertex lies in
its canonical orbit (greatest degrees, then neighbour key sums, then
least rooted label), which degree counts decide for most children
without a label, and once per class among the children of one parent,
so each unlabelled digraph is visited exactly once.  Goodness is
hereditary under vertex deletion, which is what makes the level-by-level
exhaustion sound: an empty level proves no larger counterexample exists.

Two construction probes run before the general search.  Translation is
an automorphism of a circulant digraph on Z_q, so it has a transitive
n-tuple or an independent m-set iff it has one starting at vertex 0.
Dropping one difference of a pair {d, q-d} holding both keeps a good
circulant good (Lemma (a) in probe_circulants), so the scan offers each
pair none, d or q-d, and only d or q-d when m = 2.  It yields deep
counterexamples (Ramsey-style cyclic lower bounds) that pure
vertex-by-vertex search cannot reach at desk scale.  On top of that, for
n = 3 a deterministic annealing walk over pair states hunts
counterexamples at orders beyond the best circulant; 2-cycles cannot
matter there, because a transitive triple needs all three of its pairs
arced.  A triple with all three pairs arced and no 2-cycle is transitive
unless it is a 3-cycle, so one move loop prices a move from bit counts
of the endpoints' out, in and non-adjacency rows: the common neighbours
less the pair's 3-cycles, plus one independent-set count when the pair
gains or loses adjacency.  The rows are local lists updated in place by
XOR.  Moves are drawn by rejection on getrandbits, the draws randrange
and choice make, and counted in a local int that reaches the budget once
per seed, or where a per-move count would stop or read the clock.  Probe
output is re-verified by the generic predicates before use, so probe
results carry the same trust as enumerated ones.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Optional, Sequence

from .canon import canonical_label
from .errors import NotACounterexample, VerificationError
from .graphs import (
    BitDigraph,
    Budget,
    bits,
    count_cliques_in,
    digraph_independent,
    find_clique_in,
    find_digraph_independent_set,
    find_transitive_in,
    find_transitive_set,
    has_transitive_set,
)

# ---------------------------------------------------------------------------
# certificates and results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DrCertificate:
    """A counterexample digraph for (n, m): no transitive n-set and no
    independent m-set, establishing dr(n, m) >= digraph.order + 1.

    Built by check_counterexample; reverify() checks it again.
    """

    n: int
    m: int
    digraph: BitDigraph

    @property
    def order(self) -> int:
        return self.digraph.order

    def reverify(self) -> bool:
        return not has_transitive_set(self.digraph, self.n) and not digraph_independent(
            self.digraph, self.m
        )


@dataclass
class DrResult:
    n: int
    m: int
    lower: int
    upper: int
    certificate: Optional[DrCertificate]
    proof_method: str  # exhaustive | bound-table | recurrence
    nodes: int = 0
    budget_reason: Optional[str] = None  # nodes | time, the limit hit first
    level_counts: tuple[int, ...] = ()

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    @property
    def value(self) -> Optional[int]:
        return self.lower if self.exact else None

    @property
    def budget_hit(self) -> bool:
        return self.budget_reason is not None


def check_counterexample(d: BitDigraph, n: int, m: int) -> DrCertificate:
    """Verify that d has no transitive n-set and no independent m-set.

    Raises NotACounterexample carrying the offending witness otherwise.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    w = find_transitive_set(d, n)
    if w is not None:
        raise NotACounterexample("transitive", w)
    w = find_digraph_independent_set(d, m)
    if w is not None:
        raise NotACounterexample("independent", w)
    return DrCertificate(n, m, d)


# ---------------------------------------------------------------------------
# classical Ramsey numbers
# ---------------------------------------------------------------------------

# R(3,3) = 6 and R(3,4) = R(4,3) = 9 (Greenwood and Gleason, 1955), the
# lower sandwich R(n,m) <= dr(n,m) that dr_bounds applies
_CLASSICAL_R = {(3, 3): 6, (3, 4): 9, (4, 3): 9}


def two_colour_ramsey_holds(s: int, t: int, r: int) -> bool:
    """Brute force: does every red/blue colouring of K_r contain a red K_s
    or a blue K_t?  Only feasible for tiny r (used to verify R(3,3)=6).

    Bit k of a colouring is the colour of the k-th pair i < j, 1 for
    blue.  The clique kernel looks for a red K_s in the colouring's red
    rows and, with flip=-1, for a blue K_t in their complement.
    """
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    full = (1 << r) - 1
    for colouring in range(1 << len(pairs)):
        red = [0] * r
        for k, (i, j) in enumerate(pairs):
            if not colouring >> k & 1:
                red[i] |= 1 << j
                red[j] |= 1 << i
        if find_clique_in(red, full, s) is None and find_clique_in(red, full, t, -1) is None:
            return False
    return True


def verify_ramsey_33() -> bool:
    """Locally confirm R(3,3) = 6: K_5 admits a colouring with no mono
    triangle while every colouring of K_6 has one."""
    return (not two_colour_ramsey_holds(3, 3, 5)) and two_colour_ramsey_holds(3, 3, 6)


# ---------------------------------------------------------------------------
# bound arithmetic
# ---------------------------------------------------------------------------


def dr_bounds(
    n: int,
    m: int,
    known: Optional[dict[tuple[int, int], int]] = None,
) -> tuple[int, int]:
    """Tightest interval for dr(n, m) derivable without searching.

    Combines the base cases dr(n,1) = dr(1,m) = 1, the recurrence
    dr(n,m) <= 2 dr(n-1,m) + dr(n,m-1) - 1, the lower sandwich
    R(n,m) <= dr(n,m) from _CLASSICAL_R, the m = 2 power bounds
    2^((n-1)/2) <= dr(n,2) <= 2^(n-1), monotonicity in both arguments,
    and any exact values supplied in `known`.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    known = known or {}
    # one pass over the grid 1 <= a <= n, 1 <= b <= m, where row a = 1 and
    # column b = 1 are (1, 1): row[b] holds (a - 1, b) until (a, b)
    # overwrites it, and row[b - 1] then holds (a, b - 1)
    row = [(1, 1)] * (m + 1)
    for a in range(2, n + 1):
        for b in range(2, m + 1):
            if (a, b) in known:
                row[b] = (known[a, b], known[a, b])
                continue
            (lo_left, hi_left), (lo_down, hi_down) = row[b], row[b - 1]
            hi = 2 * hi_left + hi_down - 1
            lo = max(a, b, lo_left, lo_down, _CLASSICAL_R.get((a, b), 0))
            if b == 2:
                # ceil(sqrt(2^(a-1))) in exact integer arithmetic
                lo = max(lo, math.isqrt((1 << (a - 1)) - 1) + 1)
                hi = min(hi, 1 << (a - 1))
            if lo > hi:
                raise AssertionError(f"inconsistent dr bounds for ({a},{b}): [{lo},{hi}]")
            row[b] = (lo, hi)
    return row[m]


# ---------------------------------------------------------------------------
# extension generation
# ---------------------------------------------------------------------------


def _extend(parent: BitDigraph, fwd: int, back: int) -> BitDigraph:
    """The parent plus a vertex v = parent.order with arcs i -> v for i in
    fwd and v -> i for i in back."""
    new_bit = 1 << parent.order
    rows = [row | new_bit if fwd >> j & 1 else row for j, row in enumerate(parent.out)]
    rows.append(back)
    return BitDigraph(parent.order + 1, rows)


def _good_extensions(parent: BitDigraph, trans_n: int, indep_m: int) -> list[tuple[int, int]]:
    """The good one-vertex extensions of a good parent, as (F, B) masks.

    One loop over the prior vertices i in ascending order offers every
    partial state none < forward < backward < both against i and keeps the
    survivors in that order, so the children come in lexicographic order
    of their state vectors.  F holds the prior vertices with an arc to v,
    B those v has an arc to.
    Lemma: the parent is good, so a transitive n-tuple of a child passes
    through v and reads (T1, v, T2), T1 in F and T2 in B; it is closed when
    its largest prior vertex i gets its state.  If i -> v, its other n - 2
    members form a transitive tuple drawn in order from inn[i] & F,
    out[i] & F and out[i] & B; if v -> i, from inn[i] & F, inn[i] & B and
    out[i] & B; and any such tuple closes one with i and v.  So forward is
    refused when the first search finds a tuple, backward when the second
    does, both when either does, and no child needs a leaf check: n = 2
    refuses every arc, n = 3 an arc with any mask non-empty.  A state none
    is refused when it completes an independent m-set through v, whose
    other members all have state none.
    """
    out = parent.out
    inn = parent.in_masks()
    na = parent.nonadjacency_masks()
    need = trans_n - 2  # tuple members besides i and v
    states = [(0, 0, 0)]  # (F, B, the prior vertices with state none)
    for i in range(parent.order):
        bit = 1 << i
        grown = []
        for fwd, back, zset in states:
            if find_clique_in(na, na[i] & zset, indep_m - 2) is None:
                grown.append((fwd, back, zset | bit))
            before, into, outof, after = inn[i] & fwd, out[i] & fwd, inn[i] & back, out[i] & back
            to_v = (before | into | after).bit_count() < need or (
                need > 1 and find_transitive_in(out, (before, into, after), need) is None
            )
            from_v = (before | outof | after).bit_count() < need or (
                need > 1 and find_transitive_in(out, (before, outof, after), need) is None
            )
            if to_v:
                grown.append((fwd | bit, back, zset))
            if from_v:
                grown.append((fwd, back | bit, zset))
            if to_v and from_v:
                grown.append((fwd | bit, back | bit, zset))
        states = grown
    return [(fwd, back) for fwd, back, _ in states]


# ---------------------------------------------------------------------------
# isomorph-free level enumeration
# ---------------------------------------------------------------------------


@dataclass
class EnumerationOutcome:
    """Result of the level-by-level isomorph-free enumeration.

    levels[k] holds one representative per isomorphism class of good
    digraphs on k+1 vertices, for every fully enumerated order.  When the
    first empty level is reached its order is recorded in
    exhausted_empty_order and the enumeration stops: heredity guarantees no
    good digraph exists at any larger order.
    """

    levels: list[list[BitDigraph]]
    exhausted_empty_order: Optional[int]
    nodes: int

    def deepest(self) -> Optional[BitDigraph]:
        for level in reversed(self.levels):
            if level:
                return level[0]
        return None


def enumerate_good_classes(
    trans_n: int,
    indep_m: int,
    max_order: int,
    *,
    budget: Optional[Budget] = None,
) -> EnumerationOutcome:
    """Isomorph-free enumeration of digraphs avoiding transitive trans_n-sets
    and independent indep_m-sets, by increasing order.

    Requires trans_n >= 2 and indep_m >= 2; a constraint above max_order
    never binds, so max_order + 1 for both enumerates every digraph.  The
    outcome counts only the nodes spent here from `budget`, which is
    unlimited when None; every child of every representative spends one
    node, whether or not it is labelled.

    Level k + 1 keeps the children of level k that canonical deletion
    accepts (McKay, "Isomorph-free exhaustive generation", J. Algorithms
    1998; see _canonical_children): a child C = P + v is accepted when v
    lies in the canonical orbit of C, and accepted children of one P are
    kept once per class.
    Lemma (exactly once): let C from P and C' from P' be accepted and
    isomorphic by f.  The canonical orbit is defined by isomorphism
    invariants, so f maps that of C onto that of C', and some automorphism
    of C' carries f(v) to v'.  So P = C - v is isomorphic to C' - v' = P',
    and as the representatives of a level are pairwise non-isomorphic,
    P = P'.  The per-parent rule keeps one of the two.
    Lemma (every class found): take a good digraph X on k + 1 vertices and
    a vertex w in its canonical orbit.  X - w is good, because goodness is
    hereditary under vertex deletion, so it is isomorphic to a
    representative P of level k.  _good_extensions(P) yields every good
    extension of P, among them a copy of X with w in the place of the new
    vertex, and the rule accepts that copy or an isomorphic one.
    """
    if max_order < 1:
        return EnumerationOutcome([], None, 0)
    if trans_n < 2 or indep_m < 2:
        raise ValueError("constraints must be >= 2")
    if budget is None:
        budget = Budget()
    start_nodes = budget.nodes
    levels: list[list[BitDigraph]] = [[BitDigraph.empty(1)]]
    budget.spend()
    empty_at: Optional[int] = None

    order = 1
    while order < max_order and not budget.hit:
        next_level: list[BitDigraph] = []
        for parent in levels[-1]:
            next_level.extend(_canonical_children(parent, trans_n, indep_m, budget))
            if budget.hit:
                break
        if budget.hit:
            break
        order += 1
        levels.append(next_level)
        if not next_level:
            empty_at = order
            break
    return EnumerationOutcome(levels, empty_at, budget.nodes - start_nodes)


def _neighbour_sums(keys: Sequence[int], out_row: int, in_row: int) -> tuple[int, int]:
    """The sums of `keys` over a vertex's out- and in-neighbours."""
    return sum(keys[x] for x in bits(out_row)), sum(keys[x] for x in bits(in_row))


def _rooted_label(d: BitDigraph, v: int) -> tuple[int, ...]:
    """d's label rooted at v: equal for roots v and w iff an automorphism
    of d maps v to w."""
    root = 1 << v
    return canonical_label(d, cells=[root, ((1 << d.order) - 1) ^ root])


def _rigid(d: BitDigraph, keys: Sequence[int], inn: Sequence[int]) -> bool:
    """True iff the identity is d's only automorphism, that is iff every
    orbit is one vertex: no two vertices with the same key and neighbour
    sums have equal rooted labels."""
    groups: dict[tuple[int, int, int], list[int]] = {}
    for u, key in enumerate(keys):
        groups.setdefault((key, *_neighbour_sums(keys, d.out[u], inn[u])), []).append(u)
    return all(
        len(group) == 1 or len({_rooted_label(d, u) for u in group}) == len(group)
        for group in groups.values()
    )


def _canonical_children(
    parent: BitDigraph, trans_n: int, indep_m: int, budget: Budget
) -> Iterator[BitDigraph]:
    """One child per class among the good children C = parent + v that
    have v in their canonical orbit; each child of the extender spends
    one node of `budget`, and the walk stops when it is hit.

    The key of a vertex is out-degree << 8 | in-degree.  The canonical
    orbit of a digraph is the set of its vertices that are greatest by key,
    then by neighbour sums (the sums of the keys of the out- and
    in-neighbours), and among those have the least rooted label.  Each step
    is an isomorphism invariant, and rooted labels at two vertices of one
    digraph are equal iff an automorphism maps one to the other, so this is
    one orbit of the automorphism group.  v is tested against the prior
    vertices in that order, stopping at the first that beats it: keys come
    from the parent's keys and v's arcs F and B before C is built, sums
    only for the vertices whose key ties v's, and rooted labels only for
    those whose sums tie too.
    Two accepted children of the parent are isomorphic iff some
    isomorphism fixes v (compose with an automorphism moving v within the
    canonical orbit), that is iff their rooted labels at v are equal, and
    then it restricts to an automorphism of the parent that carries one's
    F and B to the other's.  So when the parent is rigid every accepted
    child is new, and otherwise children are kept once per rooted label.
    """
    k = parent.order
    inn = parent.in_masks()
    keys = [row.bit_count() << 8 | col.bit_count() for row, col in zip(parent.out, inn)]
    floor = max(keys)  # a prior vertex's key only grows
    kept: Optional[set[tuple[int, ...]]] = None if _rigid(parent, keys, inn) else set()

    def accept(fwd: int, back: int) -> Optional[BitDigraph]:
        key = back.bit_count() << 8 | fwd.bit_count()
        if key < floor:
            return None
        child_keys = [keys[u] + ((fwd >> u & 1) << 8) + (back >> u & 1) for u in range(k)]
        if max(child_keys) > key:
            return None
        ties = [u for u in range(k) if child_keys[u] == key]
        if ties:
            child_keys.append(key)
            sums = _neighbour_sums(child_keys, back, fwd)
            tied = []
            for u in ties:
                other = _neighbour_sums(
                    child_keys, parent.out[u] | (fwd >> u & 1) << k, inn[u] | (back >> u & 1) << k
                )
                if other > sums:
                    return None
                if other == sums:
                    tied.append(u)
            ties = tied
        child = _extend(parent, fwd, back)
        if kept is None and not ties:
            return child
        label = _rooted_label(child, k)
        if any(_rooted_label(child, u) < label for u in ties):
            return None
        if kept is None:
            return child
        if label in kept:
            return None
        kept.add(label)
        return child

    for fwd, back in _good_extensions(parent, trans_n, indep_m):
        child = accept(fwd, back)
        if child is not None:
            yield child
        if not budget.spend():
            return


# ---------------------------------------------------------------------------
# circulant construction probe
# ---------------------------------------------------------------------------


def circulant_digraph(q: int, diffs: Iterable[int]) -> BitDigraph:
    """Digraph on Z_q with an arc i -> i + d (mod q) for every d in diffs;
    d = 0 adds none.  Row i is row 0 rotated by i."""
    out0 = 0
    for d in diffs:
        out0 |= 1 << (d % q)
    out0 &= ~1
    full = (1 << q) - 1
    return BitDigraph(q, [((out0 << i) | (out0 >> (q - i))) & full for i in range(q)])


def _circulant_is_good(d: BitDigraph, n: int, m: int) -> bool:
    """True iff the circulant d has no transitive n-tuple and no independent
    m-set.  Translation is an automorphism of d, as of every Cayley digraph,
    so such a tuple can be moved to start at vertex 0 and such a set to hold
    it: only out[0] and the non-neighbours of 0 are searched."""
    if find_transitive_in(d.out, (d.out[0],), n - 1) is not None:
        return False
    na = d.nonadjacency_masks()
    return find_clique_in(na, na[0], m - 1) is None


def probe_circulants(
    n: int, m: int, max_q: int, *, budget: Optional[Budget] = None
) -> Optional[BitDigraph]:
    """Deepest good circulant digraph of order at most max_q, if any.

    Lemma (a): if differences D holding d and q-d give a good circulant, so
    do D - {d} and D - {q-d}.  Dropping d deletes the arcs i -> i + d, but
    the arcs from q-d still join each such pair, so every independent set
    is unchanged; a transitive tuple of the smaller digraph uses only arcs
    of the larger.  So each pair {d, q-d}, d < q/2, need only offer none
    (written 0), d or q-d, and q/2 offers none or q/2: 3^8 * 2 = 13,122
    configurations at q = 18, not 2^17.  For m = 2 none is left out, since
    then {0, d} is an independent 2-set (256 configurations at q = 18).
    Scans orders from max_q down, the first pair varying slowest; returns
    the first good configuration at the largest order that has one, or
    None once `budget` runs out of time (checked per configuration).
    """
    for q in range(max_q, 1, -1):
        choices = [(0, d, q - d) if m > 2 else (d, q - d) for d in range(1, (q + 1) // 2)]
        if q % 2 == 0:
            choices.append((0, q // 2) if m > 2 else (q // 2,))
        for diffs in product(*choices):
            if budget is not None and budget.out_of_time():
                return None
            c = circulant_digraph(q, diffs)
            if _circulant_is_good(c, n, m):
                return c
    return None


def _annealing_energy(d: BitDigraph, m: int) -> int:
    """Violation count of a single-arc digraph: transitive triples plus
    independent m-sets."""
    inn = d.in_masks()
    energy = 0
    for y, row in enumerate(d.out):
        for z in bits(row):
            energy += (inn[y] & inn[z]).bit_count()
    return energy + count_cliques_in(d.nonadjacency_masks(), (1 << d.order) - 1, m)


# the states a pair may move to from state 0 (none), 1 (i -> j), 2 (j -> i)
_OTHER_STATES = ((1, 2), (0, 2), (0, 1))


def probe_local_search(
    m: int,
    order: int,
    *,
    seeds: int = 6,
    iters: int = 120_000,
    budget: Optional[Budget] = None,
) -> Optional[BitDigraph]:
    """Annealing probe for a good digraph on `order` vertices, n = 3 only.

    For n = 3, 2-cycles never help: a transitive triple needs all three
    pairs arced, so goodness depends only on the underlying pair states
    {none, forward, backward}, which is the annealing state space.  The
    energy is the violation count; a zero-energy state is a counterexample
    and is still re-verified by the caller.  Deterministic for a fixed
    seed schedule.  ValueError if order, seeds or iters is negative.

    A move sets one pair {i, j} to another state and changes only the
    triples through that pair and the independent m-sets holding both
    endpoints.  A triple {i, j, w} with all three pairs arced is
    transitive unless it is a 3-cycle, so with the arc a -> b the pair
    has common - cycles(a, b) transitive triples, where common counts the
    vertices adjacent to both endpoints and cycles(a, b) those w with
    b -> w -> a.  Rows carry no self-loop, so the pair's own arc is among
    neither count: both are the same before and after the move, and one
    count serves the old and the new state.  Reversing the arc keeps the
    pair adjacent, so common cancels and only the cycle counts differ.
    When the pair gains or loses adjacency, the independent m-sets
    through it are the independent (m-2)-sets of na[i] & na[j], which
    holds neither endpoint since na[i] lacks i and na[j] lacks j.  The
    incremental energy is checked against a full recount every 8,192
    moves.

    Draws.  A move takes the pair index k = getrandbits(w), w the bit
    length of the pair count, again until k is below the pair count, then
    the new state _OTHER_STATES[old][b] with b = getrandbits(2), again
    until b < 2.  That is the rejection loop Random.randrange(n) and
    Random.choice run in CPython (_randbelow_with_getrandbits), so the
    random stream, every accept decision and the digraph returned are
    those of randrange and choice, without their argument checks and
    Python frames.  Orders 0 and 1 have no pair and energy 0, so they
    return before a draw (getrandbits(0) would never fall below 0 pairs).

    Budget.  Moves are counted in a local int and handed to budget.spend()
    once per seed, or at the move where spend() would stop the walk or
    read the clock, whichever comes first (Budget.room).  So the walk
    stops at the move where spending one node per move would: the node
    stop leaves nodes == limit + 1; with a deadline the clock is read when
    the shared count reaches a multiple of 256; a budget already stopped
    on entry ends the walk after one move.
    """
    for name, value in (("order", order), ("seeds", seeds), ("iters", iters)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    if m < 2:
        return None
    pairs = [(i, j, 1 << i, 1 << j) for i in range(order) for j in range(i + 1, order)]
    n_pairs = len(pairs)
    width = n_pairs.bit_length()
    full = (1 << order) - 1
    exp = math.exp
    for seed in range(seeds):
        rng = random.Random(1_000_003 * m + 1009 * order + seed)
        getrandbits, uniform = rng.getrandbits, rng.random
        states = [rng.randint(0, 2) for _ in range(n_pairs)]
        out = [0] * order
        inn = [0] * order
        na = [full ^ (1 << v) for v in range(order)]  # mutual non-adjacency
        for (i, j, bi, bj), s in zip(pairs, states):
            if s == 1:
                out[i] |= bj
                inn[j] |= bi
            elif s == 2:
                out[j] |= bi
                inn[i] |= bj
            if s:
                na[i] ^= bj
                na[j] ^= bi
        energy = _annealing_energy(BitDigraph(order, out), m)
        # moves of this seed already spent, and the move that spends next
        spent = 0
        check = iters if budget is None else min(iters, budget.room() - 1)
        moves = iters
        for it in range(iters):
            if energy == 0:
                moves = it
                break
            if it == check:
                if not budget.spend(it + 1 - spent):
                    return None
                spent = it + 1
                check = min(iters, it + budget.room())
            k = getrandbits(width)
            while k >= n_pairs:
                k = getrandbits(width)
            old = states[k]
            b = getrandbits(2)
            while b >= 2:
                b = getrandbits(2)
            new = _OTHER_STATES[old][b]
            i, j, bi, bj = pairs[k]
            out_i, inn_i, out_j, inn_j = out[i], inn[i], out[j], inn[j]
            if old and new:
                # the arc reverses: only the 3-cycles through the pair change
                cycles_ij = (out_j & inn_i).bit_count()
                cycles_ji = (out_i & inn_j).bit_count()
                delta = cycles_ij - cycles_ji if new == 2 else cycles_ji - cycles_ij
            else:
                triples = ((out_i | inn_i) & (out_j | inn_j)).bit_count() - (
                    out_j & inn_i if old == 1 or new == 1 else out_i & inn_j
                ).bit_count()
                through = count_cliques_in(na, na[i] & na[j], m - 2)
                delta = triples - through if new else through - triples
            if delta <= 0 or uniform() < exp(-delta / (3.0 * (1 - it / iters) + 0.05)):
                if old == 1 or new == 1:
                    out[i] = out_i ^ bj
                    inn[j] = inn_j ^ bi
                if old == 2 or new == 2:
                    out[j] = out_j ^ bi
                    inn[i] = inn_i ^ bj
                if not (old and new):
                    na[i] ^= bj
                    na[j] ^= bi
                states[k] = new
                energy += delta
            if it % 8192 == 8191:
                # guard against delta drift; a mismatch here is a bug
                recount = _annealing_energy(BitDigraph(order, out), m)
                if energy != recount:
                    raise VerificationError(
                        f"annealer energy drifted at move {it}: "
                        f"incremental {energy}, recomputed {recount}"
                    )
        if budget is not None and moves > spent:
            budget.spend(moves - spent)
        if energy == 0:
            digraph = BitDigraph(order, out)
            if not has_transitive_set(digraph, 3) and not digraph_independent(digraph, m):
                return digraph
    return None


# ---------------------------------------------------------------------------
# the search proper
# ---------------------------------------------------------------------------


# largest circulant order scanned; order q has 3^((q-1)//2) configurations,
# times 2 when q is even (2^((q-1)//2) when m = 2): 13,122 at q = 18
PROBE_MAX_ORDER = 18


def search_dr(
    n: int,
    m: int,
    *,
    max_order: Optional[int] = None,
    node_budget: Optional[int] = None,
    time_budget: Optional[float] = None,
    probe: bool = True,
) -> DrResult:
    """Compute dr(n, m) exactly, or bound it as tightly as the budget allows.

    Phases: (1) construction probes (circulant scan, then for n = 3 an
    annealing walk upward from the best circulant order), giving fast deep
    certificates; (2) exhaustive isomorph-free enumeration by increasing
    order, which proves exactness when an empty level is reached; (3) bound
    arithmetic to close or report the remaining gap.  One budget bounds
    all phases; annealer moves and extender nodes count as nodes.  The
    upper bound is the first empty level's order if one is reached, else
    hi_bound, and the result is exact when it meets the lower bound.
    Lemma (an empty level is exact): let it be at order e.  Then
    e <= search_cap <= hi_bound and the deepest level has order e - 1.  No
    good digraph has order e or more, so best_cert.order = e - 1 and
    lower = e = upper.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    if max_order is not None and max_order < 1:
        raise ValueError("max_order must be >= 1")
    budget = Budget(node_budget, time_budget)
    if n == 1 or m == 1:
        return DrResult(n, m, 1, 1, None, "bound-table")

    _, hi_bound = dr_bounds(n, m)
    # searching past hi_bound is provably futile: the first empty level
    # arrives at dr(n, m) <= hi_bound, and heredity ends the run there
    search_cap = hi_bound if max_order is None else min(max_order, hi_bound)

    best_cert: Optional[DrCertificate] = None
    if probe:
        cand = probe_circulants(n, m, min(search_cap - 1, PROBE_MAX_ORDER), budget=budget)
        if cand is not None:
            best_cert = check_counterexample(cand, n, m)
        if n == 3:
            # walk upward from the best order so far; stop at the first
            # order the annealer cannot crack
            floor = best_cert.order if best_cert is not None else 1
            for order in range(floor + 1, search_cap):
                cand = probe_local_search(m, order, budget=budget)
                if cand is None:
                    break
                best_cert = check_counterexample(cand, n, m)

    outcome = enumerate_good_classes(n, m, search_cap, budget=budget)
    deepest = outcome.deepest()
    if deepest is not None and (best_cert is None or deepest.order > best_cert.order):
        best_cert = check_counterexample(deepest, n, m)
    if best_cert is None:
        raise AssertionError("a single vertex is always a counterexample for n, m >= 2")

    if outcome.exhausted_empty_order is not None:
        upper, proof = outcome.exhausted_empty_order, "exhaustive"
    else:
        upper, proof = hi_bound, "recurrence"

    return DrResult(
        n=n,
        m=m,
        lower=best_cert.order + 1,
        upper=upper,
        certificate=best_cert,
        proof_method=proof,
        nodes=budget.nodes,
        budget_reason=budget.reason,
        level_counts=tuple(len(level) for level in outcome.levels),
    )
