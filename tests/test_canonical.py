"""Canonical forms against the searches they replaced.

The exhaustive oracle below tries every vertex bijection that respects the
signatures (and, for ribbon graphs, every product of cyclic starting points)
and keeps the least encoding.  `least_code` is the branch and bound that
both replaced searches ran on: `branch_and_bound_code`, the graph search
that the placed-neighbour search of `graphs.canonical_code` replaced, and
`branch_and_bound_rotation_code`, the ribbon search that the forced-placement
scan of `ribbon.rotation_code` replaced.  They pin those searches on graphs
too large for the exhaustive oracle.  Every search must return the
identical string, since the labels are printed and pinned.
"""

import itertools
import random

import pytest

from feyncomb.checks import random_multigraph
from feyncomb.graphs import Graph, canonical_code
from feyncomb.ribbon import RibbonGraph, is_leg_token, partner, rotation_code

# -- the exhaustive oracle ----------------------------------------------------------


def _signature_bijections(vertices, sig):
    """Every vertex -> position map compatible with the signatures."""
    classes = {}
    for v in vertices:
        classes.setdefault(sig[v], []).append(v)
    slots = []
    base = 0
    for _, members in sorted(classes.items()):
        slots.append((members, base))
        base += len(members)
    for perms in itertools.product(*(itertools.permutations(m) for m, _ in slots)):
        mapping = {}
        for (members, start), perm in zip(slots, perms):
            for offset, v in enumerate(perm):
                mapping[v] = start + offset
        yield mapping


def oracle_graph_key(g):
    sig = {}
    for v in g.vertices:
        loops = sum(1 for e in g.edges if e.is_loop and e.tail == v)
        sig[v] = (g.degree(v), loops, sum(1 for l in g.legs if l.vertex == v))
    best = None
    for mapping in _signature_bijections(list(g.vertices), sig):
        pairs = sorted(
            (min(mapping[e.tail], mapping[e.head]), max(mapping[e.tail], mapping[e.head])) for e in g.edges
        )
        enc = (tuple(pairs), tuple(sorted(mapping[l.vertex] for l in g.legs)))
        if best is None or enc < best:
            best = enc
    edges_txt = ",".join(f"{a}-{b}" for a, b in best[0])
    legs_txt = ",".join(str(i) for i in best[1])
    return f"G{len(g.vertices)}|{edges_txt}|{legs_txt}"


def oracle_ribbon_key(rg):
    g = rg.graph
    sig = {}
    for v in g.vertices:
        seq = rg.rotation[v]
        loops = sum(1 for e in g.edges if e.is_loop and e.tail == v)
        sig[v] = (len(seq), loops, sum(1 for t in seq if is_leg_token(t)))
    best = None
    for mapping in _signature_bijections(list(g.vertices), sig):
        order = sorted(g.vertices, key=mapping.__getitem__)
        for starts in itertools.product(*(range(max(1, len(rg.rotation[v]))) for v in order)):
            flat = []
            for v, s in zip(order, starts):
                seq = rg.rotation[v]
                flat += seq[s:] + seq[:s]
            pos = {tok: i for i, tok in enumerate(flat)}
            enc = (
                tuple(len(rg.rotation[v]) for v in order),
                tuple(-1 if is_leg_token(t) else pos[partner(t)] for t in flat),
            )
            if best is None or enc < best:
                best = enc
    blocks, codes = best
    return f"R{'/'.join(str(b) for b in blocks)}|{','.join(str(c) for c in codes)}"


def least_code(levels, choices, place, unplace, bound):
    """The least code list over every way to make one choice per level, by
    branch and bound on an explicit stack.

    Level k offers `choices(k)` (which may depend on the choices placed);
    `place` and `unplace` apply and undo a choice.  `bound()` is an
    entrywise lower bound on the code list of every completion of the
    choices placed, and the exact list once all levels are placed.  A
    partial choice is dropped once its bound reaches the best complete list:
    entrywise lower bounds are lexicographic ones too.  The choices of a
    level are tried in the order of their bounds, so a good list is found
    early; a level with one choice skips the bound.
    """
    best = None

    def scored(k):
        """Level k's (bound, choice) pairs, the first to try last."""
        todo = choices(k)
        if len(todo) == 1:
            return [(None, todo[0])]
        out = []
        for c in todo:
            place(c)
            low = bound()
            unplace(c)
            if best is None or low < best:
                out.append((low, c))
        out.sort(reverse=True)
        return out

    if not levels:
        return bound()
    stack = [scored(0)]  # per level, the (bound, choice) pairs left to try
    placed = []
    while stack:
        k = len(stack) - 1
        if len(placed) > k:
            unplace(placed.pop())
        todo = stack[-1]
        if not todo or (best is not None and todo[-1][0] is not None and todo[-1][0] >= best):
            stack.pop()
            continue
        c = todo.pop()[1]
        place(c)
        placed.append(c)
        if k + 1 < levels:
            stack.append(scored(k + 1))
        else:
            leaf = bound()
            if best is None or leaf < best:
                best = leaf
    return best


def branch_and_bound_code(n, pairs, legc):
    """The graph code by the branch and bound over every signature-respecting
    assignment that `graphs.canonical_code` ran before its placed-neighbour
    rule: the least sorted pair list, positions placed one level at a time,
    with an entrywise lower bound on every completion."""
    nbrs = [[] for _ in range(n)]
    loops = [0] * n
    for a, b in pairs:
        if a == b:
            loops[a] += 1
        else:
            nbrs[a].append(b)
            nbrs[b].append(a)
    sig = [(len(nbrs[v]) + 2 * loops[v] + legc[v], loops[v], legc[v]) for v in range(n)]
    by_sig = sorted(range(n), key=sig.__getitem__)

    at = [-1] * n
    groups = [[] for _ in range(n)]
    open_ends = [0] * n
    free = len(pairs)
    placed = []

    def place(v):
        nonlocal free
        k = len(placed)
        placed.append(v)
        at[v] = k
        groups[k].extend([k * n + k] * loops[v])
        free -= loops[v]
        for w in nbrs[v]:
            p = at[w]
            if p < 0:
                open_ends[k] += 1
                free -= 1
            else:
                groups[p].append(p * n + k)
                open_ends[p] -= 1

    def unplace(v):
        nonlocal free
        placed.pop()
        at[v] = -1
        k = len(placed)
        for w in nbrs[v]:
            p = at[w]
            if p < 0:
                free += 1
            else:
                groups[p].pop()
                open_ends[p] += 1
        open_ends[k] = 0
        groups[k].clear()
        free += loops[v]

    def bound():
        k = len(placed)
        out = []
        for p in range(k):
            out += groups[p]
            if open_ends[p]:
                out += [p * n + k] * open_ends[p]
        out += [k * n + k] * free
        return out

    same_sig = {}
    for v in by_sig:
        same_sig.setdefault(sig[v], []).append(v)

    def choices(k):
        return [v for v in same_sig[sig[by_sig[k]]] if at[v] < 0]

    best = least_code(n, choices, place, unplace, bound)
    edges_txt = ",".join(f"{c // n}-{c % n}" for c in best)
    legs_txt = ",".join(str(k) for k, v in enumerate(by_sig) for _ in range(legc[v]))
    return f"G{n}|{edges_txt}|{legs_txt}"


def branch_and_bound_rotation_code(blocks):
    """The ribbon code by the branch and bound that `ribbon.rotation_code`
    ran before its forced-placement scan: `least_code` with one level per
    block, each level choosing an unplaced vertex of the block's signature
    class and a cyclic start.  A half-edge whose partner sits in an unplaced
    block is at least the offset of the first unplaced block; a half-edge in
    an unplaced block is at least -1."""
    mate = [q for block in blocks for q in block]
    seqs = []
    lo = 0
    for block in blocks:
        seqs.append(list(range(lo, lo + len(block))))
        lo += len(block)
    sig = []
    for seq in seqs:
        loops = sum(1 for t in seq if seq[0] <= mate[t] < t)
        sig.append((len(seq), loops, sum(1 for t in seq if mate[t] < 0)))
    by_sig = sorted(range(len(blocks)), key=sig.__getitem__)

    at = [-1] * len(mate)  # flat position of each placed half-edge
    flat = []  # placed half-edges in flat order
    used = [False] * len(blocks)

    same_sig = {}
    for v in by_sig:
        same_sig.setdefault(sig[v], []).append(v)

    def choices(k):
        """(vertex, its rotation read from one start) for block k."""
        out = []
        for v in same_sig[sig[by_sig[k]]]:
            if not used[v]:
                seq = seqs[v]
                out += [(v, seq[s:] + seq[:s]) for s in range(max(1, len(seq)))]
        return out

    def place(choice):
        v, rolled = choice
        used[v] = True
        for t in rolled:
            at[t] = len(flat)
            flat.append(t)

    def unplace(choice):
        v, rolled = choice
        used[v] = False
        del flat[len(flat) - len(rolled) :]
        for t in rolled:
            at[t] = -1

    def bound():
        nxt = len(flat)
        low = [-1 if q < 0 else (at[q] if at[q] >= 0 else nxt) for q in (mate[t] for t in flat)]
        return low + [-1] * (len(mate) - nxt)

    best = least_code(len(blocks), choices, place, unplace, bound)
    sizes = "/".join(str(sig[v][0]) for v in by_sig)
    return f"R{sizes}|{','.join(str(c) for c in best)}"


# -- shapes, read off the public fields ------------------------------------------------


def plain_shape(g):
    """(vertex count, end-position pairs in edge order and orientation, legs per position)."""
    pos = {v: i for i, v in enumerate(g.vertices)}
    legc = [0] * len(g.vertices)
    for l in g.legs:
        legc[pos[l.vertex]] += 1
    return len(g.vertices), [(pos[e.tail], pos[e.head]) for e in g.edges], legc


def ribbon_shape(rg):
    """Per vertex, the flat position of each rotation half-edge's partner (-1 for a leg)."""
    flat = [t for v in rg.graph.vertices for t in rg.rotation[v]]
    at = {t: i for i, t in enumerate(flat)}
    return [[-1 if is_leg_token(t) else at[partner(t)] for t in rg.rotation[v]] for v in rg.graph.vertices]


def assert_codes_of_shapes(g, key):
    """The code functions fed the graph's shape give its key."""
    if isinstance(g, RibbonGraph):
        assert rotation_code(ribbon_shape(g)) == key
        assert g.shape() == tuple(map(tuple, ribbon_shape(g)))
    else:
        n, pairs, legc = plain_shape(g)
        assert canonical_code(n, pairs, legc) == key
        assert g.shape() == (n, tuple(sorted(tuple(sorted(p)) for p in pairs)), tuple(legc))


# -- corpora ---------------------------------------------------------------------------


def _with_legs(g, rng, max_legs):
    legs = [(f"f{i}", rng.choice(g.vertices), rng.choice(["in", "out"])) for i in range(rng.randint(0, max_legs))]
    return Graph(g.vertices, g.edges, legs)


def _ribbonize(g, rng=None):
    """A rotation system on g: insertion order, shuffled when `rng` is given."""
    rotation = {v: [] for v in g.vertices}
    for e in g.edges:
        rotation[e.tail].append((e.id, "t"))
        rotation[e.head].append((e.id, "h"))
    for l in g.legs:
        rotation[l.vertex].append((l.id, "x"))
    if rng is not None:
        for seq in rotation.values():
            rng.shuffle(seq)
    return RibbonGraph(g, rotation)


def _relabelled(g, rng):
    """An isomorphic copy: new ids, shuffled lists, flipped edges, rotated rotations."""
    base = g.graph if isinstance(g, RibbonGraph) else g
    vren = dict(zip(base.vertices, rng.sample([f"w{i}" for i in range(len(base.vertices))], len(base.vertices))))
    eren = {e.id: f"d{i}" for i, e in enumerate(base.edges)}
    flip = {e.id for e in base.edges if rng.random() < 0.5}
    edges = [
        (eren[e.id], vren[e.head], vren[e.tail]) if e.id in flip else (eren[e.id], vren[e.tail], vren[e.head])
        for e in rng.sample(base.edges, len(base.edges))
    ]
    lren = {l.id: f"k{i}" for i, l in enumerate(base.legs)}
    legs = [(lren[l.id], vren[l.vertex], l.dir) for l in rng.sample(base.legs, len(base.legs))]
    copy = Graph(rng.sample(list(vren.values()), len(vren)), edges, legs)
    if not isinstance(g, RibbonGraph):
        return copy

    def token(t):
        if is_leg_token(t):
            return (lren[t[0]], "x")
        end = {"t": "h", "h": "t"}[t[1]] if t[0] in flip else t[1]
        return (eren[t[0]], end)

    rotation = {}
    for v, seq in g.rotation.items():
        s = rng.randrange(max(1, len(seq)))
        rotation[vren[v]] = [token(t) for t in seq[s:] + seq[:s]]
    return RibbonGraph(copy, rotation)


def cut_circulant(n):
    """C_n(1,2) with the edge v1-v2 cut into two legs."""
    edges = [
        (f"e{step}_{i}", f"v{i}", f"v{(i + step - 1) % n + 1}")
        for step in (1, 2)
        for i in range(1, n + 1)
        if (step, i) != (1, 1)
    ]
    return Graph([f"v{i}" for i in range(1, n + 1)], edges, [("f1", "v1", "in"), ("f2", "v2", "out")])


def box_ladder(n):
    """n rungs, 2n vertices, 3n-2 edges and a leg at each corner."""
    edges = [(f"u{i}", f"t{i}", f"b{i}") for i in range(n)]
    edges += [(f"{side}{i}", f"{side}{i - 1}", f"{side}{i}") for side in "tb" for i in range(1, n)]
    legs = [("f1", "t0", "in"), ("f2", "b0", "in"), ("f3", f"t{n - 1}", "out"), ("f4", f"b{n - 1}", "out")]
    return Graph([f"{side}{i}" for side in "tb" for i in range(n)], edges, legs)


def wheel(n):
    """A hub joined by n spokes to an n-cycle rim."""
    edges = [(f"s{i}", "h", f"v{i}") for i in range(n)] + [(f"r{i}", f"v{i}", f"v{(i + 1) % n}") for i in range(n)]
    return Graph(["h"] + [f"v{i}" for i in range(n)], edges)


def planar_wheel(n):
    """`wheel(n)` with its plane embedding: spokes in rim order around the hub."""
    rotation = {"h": [(f"s{i}", "t") for i in range(n)]}
    for i in range(n):
        rotation[f"v{i}"] = [(f"s{i}", "h"), (f"r{(i - 1) % n}", "h"), (f"r{i}", "t")]
    return RibbonGraph(wheel(n), rotation)


def complete(n, legs=False):
    """K_n, with one incoming and one outgoing leg when `legs`."""
    edges = [(f"e{i}_{j}", f"v{i}", f"v{j}") for i, j in itertools.combinations(range(n), 2)]
    return Graph([f"v{i}" for i in range(n)], edges, [("f1", "v0", "in"), ("f2", f"v{n - 1}", "out")] if legs else [])


def complete_bipartite(a, b):
    edges = [(f"e{i}_{j}", f"a{i}", f"b{j}") for i in range(a) for j in range(b)]
    return Graph([f"a{i}" for i in range(a)] + [f"b{j}" for j in range(b)], edges)


def cube():
    """Q_3 on the 3-bit words, joined when they differ in one bit."""
    edges = [(f"e{v}_{v ^ bit}", f"v{v}", f"v{v ^ bit}") for v in range(8) for bit in (1, 2, 4) if v < v ^ bit]
    return Graph([f"v{v}" for v in range(8)], edges)


def _medium_multigraph(rng):
    """7-10 vertices with random ends and legs (loops, parallel edges and
    isolated vertices among them), or two disjoint copies of one smaller
    such graph, whose swap and ties the search must see through."""

    def ends(n, max_edges, max_legs):
        verts = [f"v{i}" for i in range(n)]
        edges = [(f"e{i}", rng.choice(verts), rng.choice(verts)) for i in range(rng.randint(0, max_edges))]
        legs = [(f"f{i}", rng.choice(verts), "in") for i in range(rng.randint(0, max_legs))]
        return verts, edges, legs

    if rng.random() < 0.5:
        return Graph(*ends(rng.randint(7, 10), 16, 4))
    verts, edges, legs = ends(rng.randint(4, 5), 8, 2)
    return Graph(
        [c + v for c in "xy" for v in verts],
        [(c + e, c + a, c + b) for c in "xy" for e, a, b in edges],
        [(c + l, c + v, d) for c in "xy" for l, v, d in legs],
    )


def _medium_ribbon_graph(rng):
    """Up to 7 vertices with shuffled rotations (loops, parallel edges, legs
    and isolated vertices among them), or two disjoint copies of one smaller
    ribbon graph with the same rotations, which the scan must branch over."""
    if rng.random() < 0.5:
        return _ribbonize(_with_legs(random_multigraph(rng, max_vertices=7, max_edges=11, min_edges=0), rng, 3), rng)
    rg = _ribbonize(_with_legs(random_multigraph(rng, max_vertices=4, max_edges=5, min_edges=0), rng, 2), rng)
    g = rg.graph
    copy = Graph(
        [c + v for c in "xy" for v in g.vertices],
        [(c + e.id, c + e.tail, c + e.head) for c in "xy" for e in g.edges],
        [(c + l.id, c + l.vertex, l.dir) for c in "xy" for l in g.legs],
    )
    return RibbonGraph(copy, {c + v: [(c + t[0], t[1]) for t in seq] for c in "xy" for v, seq in rg.rotation.items()})


def _features(g):
    base = g.graph if isinstance(g, RibbonGraph) else g
    touched = {v for e in base.edges for v in (e.tail, e.head)}
    pairs = [frozenset((e.tail, e.head)) for e in base.edges]
    return {
        "loop": any(e.is_loop for e in base.edges),
        "parallel": len(set(pairs)) < len(pairs),
        "legs": bool(base.legs),
        "isolated": any(v not in touched for v in base.vertices),
        "disconnected": base.components() > 1,
    }


# -- tests -------------------------------------------------------------------------------


def test_graph_canonical_form_matches_exhaustive_search():
    rng = random.Random(2711)
    seen = dict.fromkeys(("loop", "parallel", "legs", "isolated", "disconnected"), False)
    for _ in range(520):
        g = _with_legs(random_multigraph(rng, max_vertices=6, max_edges=8, min_edges=0), rng, 3)
        for kind, present in _features(g).items():
            seen[kind] |= present
        key = oracle_graph_key(g)
        assert g.canonical_form() == key
        assert _relabelled(g, rng).canonical_form() == key
        assert_codes_of_shapes(g, key)
    assert all(seen.values()), seen


def test_ribbon_canonical_form_matches_exhaustive_search():
    rng = random.Random(2712)
    seen = dict.fromkeys(("loop", "parallel", "legs", "isolated", "disconnected"), False)
    for _ in range(320):
        g = _with_legs(random_multigraph(rng, max_vertices=4, max_edges=5, min_edges=0), rng, 3)
        rg = _ribbonize(g, rng)
        for kind, present in _features(rg).items():
            seen[kind] |= present
        key = oracle_ribbon_key(rg)
        assert rg.canonical_form() == key
        assert _relabelled(rg, rng).canonical_form() == key
        assert_codes_of_shapes(rg, key)
    assert all(seen.values()), seen


def test_canonical_form_matches_exhaustive_search_on_cut_circulants():
    rng = random.Random(2713)
    for n in range(5, 9):
        g = cut_circulant(n)
        key = oracle_graph_key(g)
        assert g.canonical_form() == key
        assert _relabelled(g, rng).canonical_form() == key
        assert_codes_of_shapes(g, key)


def test_graph_code_matches_branch_and_bound_on_random_multigraphs():
    rng = random.Random(2714)
    seen = dict.fromkeys(("loop", "parallel", "legs", "isolated", "disconnected"), False)
    for _ in range(240):
        g = _medium_multigraph(rng)
        for kind, present in _features(g).items():
            seen[kind] |= present
        key = branch_and_bound_code(*plain_shape(g))
        assert_codes_of_shapes(g, key)
        assert _relabelled(g, rng).canonical_form() == key
    assert all(seen.values()), seen


SYMMETRIC_FAMILIES = (
    [(f"cut C{n}", cut_circulant(n)) for n in range(8, 13)]
    + [(f"box ladder {n}", box_ladder(n)) for n in range(3, 7)]
    + [(f"W{n}", wheel(n)) for n in range(4, 9)]
    + [(f"K{n}{' legs' * legs}", complete(n, legs)) for n in range(1, 8) for legs in (False, True)]
    + [("K3,3", complete_bipartite(3, 3)), ("K4,4", complete_bipartite(4, 4)), ("Q3", cube())]
)


@pytest.mark.parametrize("name, g", SYMMETRIC_FAMILIES, ids=[name for name, _ in SYMMETRIC_FAMILIES])
def test_graph_code_matches_branch_and_bound_on_symmetric_families(name, g):
    key = branch_and_bound_code(*plain_shape(g))
    assert_codes_of_shapes(g, key)
    assert _relabelled(g, random.Random(name)).canonical_form() == key


def test_ribbon_code_matches_branch_and_bound_on_random_ribbon_graphs():
    rng = random.Random(2716)
    seen = dict.fromkeys(("loop", "parallel", "legs", "isolated", "disconnected"), False)
    for _ in range(400):
        rg = _medium_ribbon_graph(rng)
        for kind, present in _features(rg).items():
            seen[kind] |= present
        key = branch_and_bound_rotation_code(rg.shape())
        assert_codes_of_shapes(rg, key)
        assert _relabelled(rg, rng).canonical_form() == key
    assert all(seen.values()), seen


RIBBON_FAMILIES = (
    [(f"planar W{n}", planar_wheel(n)) for n in range(3, 7)]
    + [(f"ribbonized cut C{n}", _ribbonize(cut_circulant(n))) for n in range(5, 9)]
    + [(f"ribbonized box ladder {n}", _ribbonize(box_ladder(n))) for n in range(2, 6)]
    + [(f"ribbonized K{n} legs", _ribbonize(complete(n, True))) for n in range(3, 8)]
)


@pytest.mark.parametrize("name, rg", RIBBON_FAMILIES, ids=[name for name, _ in RIBBON_FAMILIES])
def test_ribbon_code_matches_branch_and_bound_on_families(name, rg):
    key = branch_and_bound_rotation_code(rg.shape())
    assert_codes_of_shapes(rg, key)
    assert _relabelled(rg, random.Random(name)).canonical_form() == key


def test_shifted_and_renamed_planar_w40_share_one_label():
    rg = planar_wheel(40)
    vren = {v: f"w{i}" for i, v in enumerate(reversed(rg.graph.vertices))}
    eren = {e.id: f"d{i}" for i, e in enumerate(reversed(rg.graph.edges))}
    copy = RibbonGraph(
        Graph(list(vren.values()), [(eren[e.id], vren[e.tail], vren[e.head]) for e in rg.graph.edges]),
        {vren[v]: [(eren[t[0]], t[1]) for t in seq[1:] + seq[:1]] for v, seq in rg.rotation.items()},
    )
    assert copy.canonical_form() == rg.canonical_form()


def test_graph_code_of_k9():
    pairs = ",".join(f"{a}-{b}" for a, b in itertools.combinations(range(9), 2))
    assert complete(9).canonical_form() == f"G9|{pairs}|"


def test_relabelled_cut_c30_share_one_label():
    rng = random.Random(2715)
    g = cut_circulant(30)
    assert {_relabelled(g, rng).canonical_form() for _ in range(4)} == {g.canonical_form()}


def test_canonical_form_of_empty_graphs():
    assert Graph([], []).canonical_form() == oracle_graph_key(Graph([], [])) == "G0||"
    empty = RibbonGraph(Graph([], []), {})
    assert empty.canonical_form() == oracle_ribbon_key(empty) == "R|"
    assert_codes_of_shapes(Graph([], []), "G0||")
    assert_codes_of_shapes(empty, "R|")


def test_canonical_form_matches_exhaustive_search_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def graphs(draw, max_vertices=5, max_edges=7):
        n = draw(st.integers(0, max_vertices))
        verts = [f"v{i}" for i in range(n)]
        if not n:
            return Graph([], [])
        vertex = st.sampled_from(verts)
        ends = draw(st.lists(st.tuples(vertex, vertex), max_size=max_edges))
        legs = draw(st.lists(vertex, max_size=3))
        return Graph(
            verts,
            [(f"e{i}", a, b) for i, (a, b) in enumerate(ends)],
            [(f"f{i}", v, "in") for i, v in enumerate(legs)],
        )

    @st.composite
    def ribbon_graphs(draw):
        g = draw(graphs(max_vertices=4, max_edges=5))
        rotation = {v: [] for v in g.vertices}
        for e in g.edges:
            rotation[e.tail].append((e.id, "t"))
            rotation[e.head].append((e.id, "h"))
        for l in g.legs:
            rotation[l.vertex].append((l.id, "x"))
        return RibbonGraph(g, {v: draw(st.permutations(seq)) for v, seq in rotation.items()})

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(graphs(), st.integers(0, 2**16))
    def check_graph(g, seed):
        key = oracle_graph_key(g)
        assert g.canonical_form() == key
        assert _relabelled(g, random.Random(seed)).canonical_form() == key
        assert_codes_of_shapes(g, key)

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(ribbon_graphs(), st.integers(0, 2**16))
    def check_ribbon(rg, seed):
        key = oracle_ribbon_key(rg)
        assert rg.canonical_form() == key
        assert _relabelled(rg, random.Random(seed)).canonical_form() == key
        assert_codes_of_shapes(rg, key)

    check_graph()
    check_ribbon()


def test_graph_code_matches_branch_and_bound_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def shapes(draw):
        n = draw(st.integers(7, 10))
        vertex = st.integers(0, n - 1)
        pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=16))
        legc = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        return n, pairs, legc

    @hypothesis.settings(max_examples=50, deadline=None)
    @hypothesis.given(shapes())
    def check(shape):
        assert canonical_code(*shape) == branch_and_bound_code(*shape)

    check()


def test_ribbon_code_matches_branch_and_bound_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def shapes(draw):
        """Block lists of ribbon graphs on up to 7 vertices: mates paired at
        random positions, the rest legs, some blocks empty."""
        sizes = draw(st.lists(st.integers(0, 4), max_size=7))
        slots = draw(st.permutations(range(sum(sizes))))
        mate = [-1] * len(slots)
        pairs = draw(st.integers(0, len(slots) // 2))
        for a, b in zip(slots[: 2 * pairs : 2], slots[1 : 2 * pairs : 2]):
            mate[a], mate[b] = b, a
        blocks, lo = [], 0
        for n in sizes:
            blocks.append(mate[lo : lo + n])
            lo += n
        return blocks

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(shapes())
    def check(blocks):
        assert rotation_code(blocks) == branch_and_bound_rotation_code(blocks)

    check()
