"""Strongly connected components and condensation order for small digraphs."""

from __future__ import annotations

from .coxeter import bit_indices


def tarjan_scc(n: int, adj) -> list[list[int]]:
    """SCCs of the digraph on range(n), adjacency `adj[i] = iterable of targets`.

    Iterative Tarjan; components are returned in reverse topological order of
    the condensation (every edge leaves from a later component to an earlier
    one or stays inside).
    """
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, iter(adj[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(adj[w])))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps


def condensation_reachability(comps: list[list[int]], adj) -> set[tuple[int, int]]:
    """Pairs (i, j) with component i reachable from component j.

    Reflexive; follows the direction of `adj` edges.  Component j's reach is
    one bitset, the union of the reaches of the components its edges enter.
    """
    comp_of = [0] * sum(map(len, comps))
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    # comps come out of tarjan_scc in reverse topological order: every edge
    # enters its own component or an earlier one, whose reach is complete
    reach: list[int] = []
    for ci, comp in enumerate(comps):
        bits = 1 << ci
        for v in comp:
            for w in adj[v]:
                cj = comp_of[w]
                if cj != ci:
                    bits |= reach[cj]
        reach.append(bits)
    return {(i, j) for j, bits in enumerate(reach) for i in bit_indices(bits)}


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
    adj = [sorted(a) for a in adj]
    comps = tarjan_scc(n, adj)
    reach = condensation_reachability(comps, adj)
    # a block reachable from j is also reachable from everything reaching j,
    # so the number of blocks reaching a block orders it topologically
    reached_from = [0] * len(comps)
    for i, _ in reach:
        reached_from[i] += 1
    keyed = sorted(
        range(len(comps)), key=lambda ci: (-reached_from[ci], min(comps[ci]))
    )
    pos = {ci: k for k, ci in enumerate(keyed)}
    blocks = [sorted(comps[ci]) for ci in keyed]
    return blocks, {(pos[i], pos[j]) for i, j in reach}
