"""Exact-rational orthogonality graphs and searches for families in which
every (m+1)-subset contains an orthogonal pair.

Vectors are kept in canonical direction form: coordinates scaled to
coprime integers with the first nonzero coordinate positive, so scalar
multiples collapse to one representative and every dot product is an
exact integer.  Rational searches certify lower bounds only; they cannot
rule out real configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .errors import BudgetExceeded
from .graphs import Budget, UGraph, bits, clique_closure_in, has_independent_set

RatVec = tuple[int, ...]


def canonical_direction(coords: Sequence) -> RatVec:
    """Scale a nonzero vector of ints and Fractions to coprime integers,
    first nonzero coordinate positive."""
    fracs = [Fraction(c) for c in coords]
    if not any(fracs):
        raise ValueError("zero vector has no direction")
    scale = lcm(*(f.denominator for f in fracs))
    ints = [f.numerator * (scale // f.denominator) for f in fracs]
    g = gcd(*ints)
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(v // g for v in ints)


@dataclass(frozen=True)
class VectorFamily:
    """A duplicate-free set of canonical directions in fixed dimension."""

    dimension: int
    vectors: tuple[RatVec, ...]

    def __post_init__(self):
        for v in self.vectors:
            if len(v) != self.dimension:
                raise ValueError("vector dimension mismatch")
        if len(set(self.vectors)) != len(self.vectors):
            raise ValueError("duplicate directions in family")

    @classmethod
    def from_raw(cls, dimension: int, raw: Iterable[Sequence]) -> "VectorFamily":
        """The directions of vectors of ints and Fractions: canonicalize,
        deduplicate (collapsing parallel vectors), sort."""
        vecs = sorted({canonical_direction(v) for v in raw})
        return cls(dimension, tuple(vecs))

    def __len__(self) -> int:
        return len(self.vectors)


def dot(u: RatVec, v: RatVec) -> int:
    return sum(a * b for a, b in zip(u, v))


def ortho_graph(family: VectorFamily) -> UGraph:
    """Graph on the family with an edge exactly where the dot product is 0."""
    n = len(family)
    vecs = family.vectors
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if dot(vecs[i], vecs[j]) == 0:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return UGraph(n, adj)


def alpha_check(family: VectorFamily, m: int) -> bool:
    """True iff every (m+1)-subset of the family contains an orthogonal
    pair, i.e. the orthogonality graph has independence number <= m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    g = ortho_graph(family)
    return not has_independent_set(g, m + 1)


@dataclass
class AlphaSearchResult:
    family: VectorFamily
    exact: bool
    nodes: int
    budget_reason: Optional[str] = None  # "nodes" when the node budget ended the search


def alpha_lower_search(
    n: int,
    m: int,
    pool: VectorFamily,
    *,
    node_budget: Optional[int] = None,
) -> AlphaSearchResult:
    """Largest subfamily of the pool whose orthogonality graph has
    independence number <= m, by branch and bound over pool inclusion.

    Non-orthogonal is the complement relation, so the constraint is that
    the chosen set spans no (m+1)-clique of pairwise non-orthogonal
    vectors.  Vectors are considered in pool order, taking a vector before
    leaving it out; the bound prunes when the incumbent cannot be beaten.
    exact is True when the search space was exhausted within budget.

    `nodes` counts the nodes of the plain include-first recursion: a node
    is (idx, chosen), it updates the incumbent, stops when idx == size or
    count + (size - idx) <= best, and otherwise branches into taking idx
    (when allowed) and then leaving it out.  The walk here visits the same
    nodes in the same order with less work per node:

    - Blocked mask.  Later index w is blocked when chosen & nonortho[w]
      holds an m-clique, i.e. taking w would close an (m+1)-clique.
      Lemma: let w be unblocked before v is taken, and base = chosen &
      nonortho[v].  Any m-clique of (chosen | v) & nonortho[w] must
      contain v, so w becomes blocked exactly when w is in nonortho[v]
      and joined to every member of some (m-1)-clique of base.  For m = 1
      this blocks all of nonortho[v].  So a take makes one walk over the
      (m-1)-cliques of base, clique_closure_in on the unblocked later
      neighbours of v, and every other node only tests a bit.
    - Counted exclusion runs.  Leaving a vector out keeps count, so no
      node on the exclude chain can update the incumbent, and the chain
      only stops at the bound's cut size - best + count or branches at
      the next unblocked index.  The nodes up to the first of the two are
      counted in one step.  The walk counts in a local int and hands the
      total to one Budget.spend, which clamps a count that ran past the
      budget inside a run to node_budget + 1, where a one-by-one count
      stops.
    """
    if pool.dimension != n:
        raise ValueError("pool dimension mismatch")
    if m < 1:
        raise ValueError("m must be >= 1")
    budget = Budget(node_budget)
    size = len(pool)
    full = (1 << size) - 1
    # rows of the NON-orthogonality graph: each orthogonality row
    # complemented, without its own vertex
    nonortho = [full ^ row ^ (1 << v) for v, row in enumerate(ortho_graph(pool).adj)]
    later = [row >> (v + 1) << (v + 1) for v, row in enumerate(nonortho)]
    limit = budget.limit

    best_mask = 0
    best_size = 0
    nodes = 0

    def walk(idx: int, chosen: int, count: int, free: int) -> None:
        """Visit node (idx, chosen) and the exclude chain after it; `free`
        holds the unblocked indices."""
        nonlocal best_mask, best_size, nodes
        nodes += 1
        if nodes > limit:
            raise BudgetExceeded
        if count > best_size:
            best_size = count
            best_mask = chosen
        while idx < size - best_size + count:
            bit = 1 << idx
            if free & bit:
                blocked = clique_closure_in(
                    nonortho, chosen & nonortho[idx], later[idx] & free, m - 1
                )
                walk(idx + 1, chosen | bit, count + 1, free ^ blocked)
            # nodes idx + 1 .. stop of the exclude chain, in one step
            rest = free >> (idx + 1)
            stop = idx + (rest & -rest).bit_length() if rest else size
            cut = size - best_size + count
            if stop > cut:
                stop = max(cut, idx + 1)
            nodes += stop - idx
            if nodes > limit:
                raise BudgetExceeded
            idx = stop

    try:
        walk(0, 0, 0, full)
    except BudgetExceeded:
        pass
    budget.spend(nodes)
    vecs = pool.vectors
    family = VectorFamily(n, tuple(vecs[i] for i in bits(best_mask)))
    return AlphaSearchResult(family, not budget.hit, budget.nodes, budget.reason)


def directions_of_height(n: int, height: int) -> VectorFamily:
    """All canonical directions in dimension n with entries in
    [-height, height]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if height < 1:
        raise ValueError("height must be >= 1")
    seen = set()
    for coords in product(range(-height, height + 1), repeat=n):
        if any(coords):
            seen.add(canonical_direction(coords))
    return VectorFamily(n, tuple(sorted(seen)))


def standard_basis(n: int) -> VectorFamily:
    vecs = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    return VectorFamily(n, vecs)


def matching_family_q2(m: int) -> VectorFamily:
    """m-1 disjoint orthogonal pairs in the plane: (1, t) and (t, -1) for
    t = 0..m-2.  Its orthogonality graph is a perfect matching, so the
    independence number is exactly m-1."""
    if m < 2:
        raise ValueError("m must be >= 2")
    raw = []
    for t in range(m - 1):
        raw.append((1, t))
        raw.append((t, -1))
    return VectorFamily.from_raw(2, raw)


@dataclass(frozen=True)
class OrthoIdentities:
    """Consistent translations between the reported quantities.

    From alpha(n, m) = a: the threshold r*(G, m+1) equals a + 1 (equal to
    the hat-r formulation), and the balanced-partition number r(G, m+2)
    equals r*(G, m+1) + 1 = a + 2.
    """

    alpha: int
    m: int
    rstar_m_plus_1: int
    rhat_m_plus_1: int
    r_m_plus_2: int


def rstar_relation(alpha_value: int, m: int) -> OrthoIdentities:
    """Arithmetic companions of a computed alpha(n, m) value."""
    if alpha_value < 0 or m < 1:
        raise ValueError("alpha value and m must be nonnegative / positive")
    return OrthoIdentities(
        alpha=alpha_value,
        m=m,
        rstar_m_plus_1=alpha_value + 1,
        rhat_m_plus_1=alpha_value + 1,
        r_m_plus_2=alpha_value + 2,
    )
