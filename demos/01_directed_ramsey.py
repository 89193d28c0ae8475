"""Directed Ramsey numbers dr(n, m): exact values, certificates, bounds.

dr(n, m) is the least r such that every digraph on r vertices contains a
transitive set of size n (an ordered tuple with all forward arcs) or an
independent set of size m (no arcs at all between its members).  The
searcher enumerates counterexample digraphs order by order with isomorph
rejection, so an empty level is a proof.
"""

import time

from transversal_lab.codec import encode_digraph6
from transversal_lab.ramsey import (
    check_counterexample,
    circulant_digraph,
    dr_bounds,
    search_dr,
    verify_ramsey_33,
)

print("=== small exact values ===")
for n, m in ((2, 2), (2, 5), (3, 2)):
    res = search_dr(n, m)
    print(f"dr({n},{m}) = {res.lower}  [{res.proof_method}]")

print()
print("=== dr(3,3) = 9, the headline computation ===")
t0 = time.time()
res = search_dr(3, 3)
print(f"value: {res.lower}  exact: {res.exact}  proof: {res.proof_method}")
print(f"counterexample classes per order: {res.level_counts}")
print(f"elapsed: {time.time() - t0:.2f}s")

cert = res.certificate
print(f"extremal certificate: order {cert.order}, digraph6 {encode_digraph6(cert.digraph)}")
print("the unique extremal digraph is the circulant on Z_8 with differences {2, 3}:")
w8 = circulant_digraph(8, [2, 3])
print(f"  circulant digraph6: {encode_digraph6(w8)}")
print(f"  re-verified:        {check_counterexample(w8, 3, 3).reverify()}")

print()
print("=== bound arithmetic without searching ===")
print(f"dr(3,3) interval from recurrence + Ramsey sandwich: {dr_bounds(3, 3)}")
print(f"dr(3,4) interval: {dr_bounds(3, 4)}")
print(f"dr(5,2) interval (power bounds): {dr_bounds(5, 2)}")
print(f"R(3,3) = 6 confirmed by exhaustive enumeration: {verify_ramsey_33()}")

print()
print("=== dr(3,4): budgeted search reaches the cited value as a lower bound ===")
# probe stages: sum-free circulants give a 13-vertex certificate in
# milliseconds; the annealing stage then cracks order 14
t0 = time.time()
res = search_dr(3, 4, node_budget=1_500_000)
print(f"lower: {res.lower}  upper: {res.upper}  exact: {res.exact}")
print(f"certificate order: {res.certificate.order}")
print(f"certificate digraph6: {encode_digraph6(res.certificate.digraph)}")
print(f"re-verified: {res.certificate.reverify()}")
print(f"elapsed: {time.time() - t0:.1f}s  (budget hit: {res.budget_hit})")
print("exhaustive confirmation of dr(3,4) = 15 stays beyond desk scale;")
print("the result is the certified interval")
