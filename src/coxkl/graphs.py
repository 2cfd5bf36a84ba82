"""Strongly connected components of small digraphs, with the preorder of
their condensation, from one iterative Tarjan sweep.

Tarjan's algorithm (SIAM J. Comput. 1, 1972) closes a component only after
every component its edges enter, so one pass over the components in closing
order gives each its reach: its own bit together with the reaches of the
components that edges from its vertices enter, all of them closed before it.
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
    stack: list[int] = []
    comps: list[list[int]] = []  # in closing order
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
                if comp_of[w] == -1:
                    low[v] = min(low[v], index[w])
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
                if work and comp_of[v] == -1:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
    reach = [0] * len(comps)  # bitsets over component numbers
    for ci, comp in enumerate(comps):
        # an edge inside the component reads its reach while it is still 0
        bits = 1 << ci
        for v in comp:
            for w in adj[v]:
                bits |= reach[comp_of[w]]
        reach[ci] = bits
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
