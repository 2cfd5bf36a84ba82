"""Strongly connected components of small digraphs, with the preorder of
their condensation, from one iterative Tarjan sweep.

Tarjan's algorithm (SIAM J. Comput. 1, 1972) closes a component only after
every component its edges enter, so the reach of a component is known the
moment it closes: its own bit together with the reaches of the closed
components that edges from its vertices enter.
"""

from __future__ import annotations

from .coxeter import bit_indices


def edge_adjacency(n: int, edges) -> list[set[int]]:
    """adj[y] = {x : (s, x, y) in edges}: the edge y -> x of a W-graph on
    range(n) for each weight m^s_{x,y}, the digraph whose strongly connected
    components are its cells."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for _, x, y in edges:
        adj[y].add(x)
    return adj


def condensation_order(n: int, adj) -> tuple[list[list[int]], set[tuple[int, int]]]:
    """SCCs of the digraph on range(n) in canonical order, with their preorder.

    Returns (blocks, leq).  Each block is a sorted vertex list.  A block
    comes before every block it is reachable from, so the blocks that edges
    lead into come first; ties go by smallest vertex.  `leq` holds (i, j)
    when blocks[i] is reachable from blocks[j], reflexively.
    """
    index = [-1] * n
    low = [0] * n
    comp_of = [-1] * n  # -1 exactly while the vertex is on the stack
    # the union of the reaches of the closed components that edges enter
    # from v and from the vertices of v's subtree still open with it
    entered = [0] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    reach: list[int] = []  # bitsets over component numbers
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(adj[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(adj[w])))
                    break
                cw = comp_of[w]
                if cw == -1:
                    low[v] = min(low[v], index[w])
                else:
                    entered[v] |= reach[cw]
            else:
                work.pop()
                if low[v] == index[v]:
                    ci = len(comps)
                    comp = []
                    while True:
                        w = stack.pop()
                        comp_of[w] = ci
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(comp)
                    reach.append(entered[v] | (1 << ci))
                if work:
                    u = work[-1][0]
                    cv = comp_of[v]
                    if cv == -1:
                        low[u] = min(low[u], low[v])
                        entered[u] |= entered[v]
                    else:
                        entered[u] |= reach[cv]
    pairs = [(i, j) for j, bits in enumerate(reach) for i in bit_indices(bits)]
    # a block reachable from j is also reachable from everything reaching j,
    # so the number of blocks reaching a block orders it topologically
    reached_from = [0] * len(comps)
    for i, _ in pairs:
        reached_from[i] += 1
    keyed = sorted(
        range(len(comps)), key=lambda ci: (-reached_from[ci], min(comps[ci]))
    )
    pos = {ci: k for k, ci in enumerate(keyed)}
    blocks = [sorted(comps[ci]) for ci in keyed]
    return blocks, {(pos[i], pos[j]) for i, j in pairs}
