"""Exhaustive enumeration of unicyclic graphs up to isomorphism.

Every unicyclic graph is a cycle of length k with a rooted branch tree
on each cycle vertex, so an isomorphism class corresponds to a circular
sequence of canonical rooted-tree codes up to the 2k dihedral
symmetries.  Rooted trees use the classical bottom-up encoding
code = "(" + sorted(children codes) + ")"; the class representative is
the lexicographically minimal branch-code sequence.

Every pass over the classes reads the dihedral orbits of the
compositions of n into the branch sizes from ``orbit_compositions``, in
ascending cycle length: each orbit's least composition and the
rotations and reflections that fix it.  A branch's state is its
matching number and the matching that leaves its root unmatched; a
tuple of states on the positions of a composition fixes the matching
number (``matching.cycle_matching``).  The classes of a state tuple are
the products of its states' code pools, each kept once among its images
under the composition's symmetries: ``_tuple_classes`` counts them,
listing them only when a symmetry fixes the composition, and
``_classes`` turns them into dihedral-minimal codes in sorted order.
``_walk`` gives an orbit's state tuples one by one; ``_transfer`` folds
them instead, a cycle position at a time, per matching number.

``_code_states`` generates the rooted trees already grouped by state,
each tree's state carried up from its children's, so no code is parsed
to group it.  Kf and W are a cycle term, fixed by the composition, plus
one branch term per branch, W_b + D_b (n - s_b): its own hop sum and
its depth sum once per vertex outside it.  ``_term_tables`` finds each
state's least term and the trees with it by a knapsack over child
states; the same knapsack gives each state's least depth sum and least
``branch_row`` entry.  Four folds read the orbits:

- ``enumerate_codes`` lists the classes of every state tuple, or of the
  tuples of one matching number;
- ``counts_by_matching`` sums the tuples' class counts per matching
  number, by the transfer where no symmetry fixes the composition;
- ``sweep_minima`` finds by the transfer each composition's least term
  sum per matching number, in integers, and expands into classes only
  the compositions and tuples that attain a cell's minimum;
- ``row_cells`` bounds each tuple's vertex sums from below by the least
  depth sums and ``branch_row`` entries, and checks the vertex-sum and
  pendant-deletion bounds class by class only where that bound does not
  decide them.

The last two cache their result per n, and read the state tables of
each n, which are cached too.  Graphs are built only for
consumers that need vertex-level data, one class at a time.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import groupby, product
from math import inf, prod
from operator import add, attrgetter, itemgetter, mul
from typing import Iterable, Iterator, NamedTuple, Sequence

from .graph import Graph, decompose_unicyclic
from .matching import cycle_matching
from .resistance import cycle_cores, cycle_row_numerators, cycle_terms


class _State(NamedTuple):
    """The rooted trees of one size in one branch state, all
    ``matching.cycle_matching`` reads of a branch: its matching number, and
    the same with its root left unmatched, equal when the root is free.  A
    pool holds every tree; a sweep table, the least-term ones, with the
    state's minima over all its trees; the row pass's, every tree with
    those minima."""

    matching: int
    root_free: int
    codes: tuple[str, ...]  # sorted
    term: int = 0  # in a sweep table, the least branch term
    depth: int = 0  # the least depth sum D
    vertex: int = 0  # the least ``branch_row`` entry


_pools: dict[int, tuple[_State, ...]] = {}


def _code_states(size: int) -> tuple[_State, ...]:
    """The rooted trees on `size` vertices by branch state, states in the
    order of their least codes; cached.  A tree is a multiset of smaller
    ones under a root, each listed once by taking children in
    non-increasing position, and its state follows from theirs by the
    leaf-up rule of ``matching.matching_number``: a root left unmatched
    keeps the sum of their matchings, and gains one, matched to a child,
    when some child's root is free."""
    if size < 1:
        raise ValueError("tree size must be positive")
    for s in range(len(_pools) + 1, size + 1):
        items = [
            (sz, code, state.matching, state.matching == state.root_free)
            for sz in range(1, s)
            for state in _pools[sz]
            for code in state.codes
        ]
        prefix_end = [0] * s
        for idx, item in enumerate(items):
            prefix_end[item[0]] = idx + 1
        by_state: dict[tuple[int, int], list[str]] = {}

        def emit(remaining: int, max_i: int, acc: list[str], matched: int, free: bool):
            if remaining == 0:
                code = "(" + "".join(sorted(acc)) + ")"
                by_state.setdefault((matched + free, matched), []).append(code)
                return
            for i in range(min(max_i, prefix_end[remaining] - 1), -1, -1):
                sz, code, m, root_free = items[i]
                acc.append(code)
                emit(remaining - sz, i, acc, matched + m, free or root_free)
                acc.pop()

        emit(s - 1, len(items) - 1, [], 0, False)
        states = (_State(*state, tuple(sorted(codes))) for state, codes in by_state.items())
        _pools[s] = tuple(sorted(states, key=lambda state: state.codes[0]))
    return _pools[size]


def rooted_tree_codes(size: int) -> tuple[str, ...]:
    """All canonical rooted-tree codes on the given vertex count, sorted."""
    return tuple(sorted(code for state in _code_states(size) for code in state.codes))


def _parents_code(parents: Sequence[int]) -> str:
    """Canonical code of a rooted tree given as parent positions, where
    every vertex comes after its parent and the root (position 0) has
    parent -1; encoded bottom-up, so that depth costs no recursion."""
    kids: list[list[str]] = [[] for _ in parents]
    for v in range(len(parents) - 1, 0, -1):
        kids[parents[v]].append("(" + "".join(sorted(kids[v])) + ")")
        kids[v].clear()  # a long path would otherwise keep every prefix
    return "(" + "".join(sorted(kids[0])) + ")"


def _tree_code(adj, root: int) -> str:
    """Canonical code of the tree on ``adj`` rooted at ``root``, from the
    parent positions of a BFS order."""
    order = [root]
    parents = [-1]  # BFS position of each vertex's parent
    seen = {root}
    for pos, u in enumerate(order):  # order grows while it is scanned
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                order.append(w)
                parents.append(pos)
    return _parents_code(parents)


def code_parents(code: str) -> list[int]:
    """Parent of every vertex of a rooted code, vertices numbered in
    depth-first order from the root 0, whose parent is -1."""
    parents = [-1]
    top = 0  # the vertex whose children are being read
    for ch in code[1:-1]:
        if ch == "(":
            parents.append(top)
            top = len(parents) - 1
        else:
            top = parents[top]
    return parents


def tree_from_code(code: str) -> Graph:
    """Rebuild a tree from a rooted code; the root gets label 0 and the
    remaining vertices are numbered in depth-first order."""
    parents = code_parents(code)
    return Graph(len(parents), frozenset((p, v) for v, p in enumerate(parents) if v))


class CanonicalCode(NamedTuple):
    """Dihedral-minimal branch-code sequence of a unicyclic graph.

    Equal codes characterize isomorphic unicyclic graphs.
    """

    cycle_length: int
    branch_codes: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.cycle_length}:" + "".join(self.branch_codes)

    def stable_hash(self) -> str:
        import hashlib  # only `enumerate --emit` hashes; the import costs every start

        return hashlib.sha256(str(self).encode()).hexdigest()[:16]


def dihedral_min(seq: tuple) -> tuple:
    """The least of the rotations and reflections of seq; only those that
    start with its least entry can be."""
    head = min(seq)
    best = seq
    for base in (seq, seq[::-1]):
        for r in range(len(base)):
            if base[r] == head:
                cand = base[r:] + base[:r]
                if cand < best:
                    best = cand
    return best


def canonical_code(g: Graph) -> CanonicalCode:
    """Canonical code of a connected unicyclic graph."""
    trees = decompose_unicyclic(g)
    if trees is None or len(trees) == 1:
        raise ValueError("expected a connected unicyclic graph")
    seq = tuple(_parents_code(parents) for _, parents in trees)
    return CanonicalCode(len(trees), dihedral_min(seq))


def graph_from_code(code: CanonicalCode) -> Graph:
    """Build the canonical representative: cycle vertices 0..k-1, branch
    vertices appended in depth-first order per cycle position."""
    k = code.cycle_length
    edges = [((i, i + 1) if i + 1 < k else (0, k - 1)) for i in range(k)]
    nxt = k
    for i, bc in enumerate(code.branch_codes):
        stack = [i]
        for ch in bc[1:-1]:
            if ch == "(":
                a, b = stack[-1], nxt
                edges.append((a, b) if a < b else (b, a))
                stack.append(nxt)
                nxt += 1
            else:
                stack.pop()
    return Graph(nxt, frozenset(edges))


def orbit_compositions(n: int, k: int) -> Iterator[tuple[tuple[int, ...], list[itemgetter]]]:
    """Each dihedral orbit of the compositions of n into k >= 3 positive
    parts, in ascending order: its least composition, which starts with
    its least part, and the rotations and reflections other than the
    identity that fix it, each as the getter of a sequence's image.

    The least rotations come from the FKM recursion (Ruskey, Savage and
    Wang, "Generating necklaces", J. Algorithms 13, 1992; ``_necklaces``),
    and a scan of their reflections keeps those least in their orbit
    (``_fixing``).  Most compositions have no symmetry."""
    for head in range(1, n // k + 1):
        yield from _necklaces([head] * k, 1, 1, n - head)


def _necklaces(
    sizes: list[int], t: int, period: int, rest: int
) -> Iterator[tuple[tuple[int, ...], list[itemgetter]]]:
    """In ascending order, each sequence least in its orbit that extends
    sizes[:t] by parts that sum to rest, none below the head sizes[0],
    with the symmetries that fix it (``_fixing``).  sizes[:t] is least
    among the rotations' prefixes, with the given period: it extends by
    its part one period back, keeping the period, or by a larger part,
    which makes the whole prefix its period.  A full sequence is least
    among its rotations exactly when its period divides its length."""
    k = len(sizes)
    low = sizes[t - period]
    if t == k - 1:
        if rest > low:
            period = k
        elif rest < low or k % period:
            return
        sizes[t] = rest
        seq = tuple(sizes)
        fixing = _fixing(seq, period)
        if fixing is not None:
            yield seq, fixing
        return
    for size in range(low, rest - sizes[0] * (k - 1 - t) + 1):
        sizes[t] = size
        yield from _necklaces(sizes, t + 1, period if size == low else t + 1, rest - size)


def _fixing(seq: tuple[int, ...], period: int) -> list[itemgetter] | None:
    """The rotations and reflections other than the identity that fix
    seq, a sequence least among its rotations with the given period, or
    None when a reflection of it is smaller.  The rotations that fix it
    are those by multiples of the period; of the reflections, only the
    images that start with the head can be smaller than or equal to seq,
    so one scan of them decides."""
    k = len(seq)
    head = seq[0]
    fixing = []
    for r, size in enumerate(seq):
        if size == head:
            if r and not r % period:
                fixing.append(itemgetter(*range(r, k), *range(r)))
            flip = seq[r::-1] + seq[:r:-1]
            if flip <= seq:
                if flip < seq:
                    return None
                fixing.append(itemgetter(*range(r, -1, -1), *range(k - 1, r, -1)))
    return fixing


def _walk(
    n: int, tables: Sequence[Sequence[_State]]
) -> Iterator[tuple[tuple[int, ...], list[itemgetter], Iterable[tuple[_State, ...]]]]:
    """The product walk over the classes on n vertices: each composition
    of n over a cycle, one per dihedral orbit in ascending cycle length,
    with the symmetries that fix it, and the tuples of its positions'
    states in tables (tables[s] holds the branch states of the rooted
    trees on s vertices)."""
    for k in range(3, n + 1):
        for sizes, fixing in orbit_compositions(n, k):
            yield sizes, fixing, product(*[tables[size] for size in sizes])


# The transfer reads a cycle's roots in order and keeps, per key, the least
# branch-term sum or the number of state tuples that reach it.  A key is
# carry + 8 * (the branch matchings so far, plus one for each run of free
# roots that has reached an even length).  The carry's bits: 1, the
# current run of free roots is odd; 2, the run before the first root that
# is not free was odd; 4, a root that is not free was seen.  Those two odd
# runs meet round the cycle, so a final carry of 7 gains one more.
def _steps(table: Sequence[_State], weight) -> list[list[tuple[int, int]]]:
    """Per carry, the key step and the weight of placing each state of
    table on the next root."""
    steps = []
    for carry in range(8):
        odd = carry & 1
        moves = []
        for state in table:
            if state.matching == state.root_free:
                step = 7 if odd else 1  # the run turns even and gains, or turns odd
            elif carry & 4:
                step = -odd
            else:
                step = 4 + odd  # the first run ends: 4 is set, its parity moves to 2
            moves.append((step + 8 * state.matching, weight(state)))
        steps.append(moves)
    return steps


def _transfer(sizes: Sequence[int], steps, unit, times, plus) -> dict[int, int]:
    """Per matching number of the cycle with branch sizes sizes, the
    plus-sum over its state tuples of the times-products of their weights:
    the least term sum with (min, +), the tuple count with (+, *).  steps[s]
    is ``_steps`` of the states on s vertices."""
    front = {0: unit}
    for size in sizes:
        moves = steps[size]
        after: dict[int, int] = {}
        for key, acc in front.items():
            for step, weight in moves[key & 7]:
                value = times(acc, weight)
                key2 = key + step
                after[key2] = plus(after[key2], value) if key2 in after else value
        front = after
    by_matching: dict[int, int] = {}
    for key, acc in front.items():
        m = (key >> 3) + (key & 7 == 7)
        by_matching[m] = plus(by_matching[m], acc) if m in by_matching else acc
    return by_matching


def _tuple_classes(
    group: Sequence[_State], fixing: list[itemgetter]
) -> tuple[int, Iterable[tuple[str, ...]]]:
    """How many classes a state tuple holds, and one branch-code sequence
    per class.  With no symmetry fixing the composition, every product of
    the states' codes is a class, counted without listing; else a class
    is an orbit of the symmetries on the products, and its least sequence
    lies in one product of state pools, so the products least among their
    images are listed."""
    pools = [state.codes for state in group]
    if not fixing:
        return prod(map(len, pools)), product(*pools)
    seqs = []
    for seq in product(*pools):
        for image in fixing:
            if image(seq) < seq:
                break
        else:
            seqs.append(seq)
    return len(seqs), seqs


def enumerate_codes(n: int, m: int | None = None) -> Iterator[CanonicalCode]:
    """Stream one code per isomorphism class, in ascending order;
    optionally filter by matching number, dropping whole state tuples."""
    if n < 3:
        raise ValueError("unicyclic graphs need at least 3 vertices")
    # the triangle has the largest branches, of n - 2 vertices
    pools = [()] + [_code_states(size) for size in range(1, n - 1)]
    yield from _classes(
        (sizes, fixing, group)
        for sizes, fixing, groups in _walk(n, pools)
        for group in groups
        if m is None or cycle_matching(group) == m
    )


def enumerate_with_codes(n: int, m: int | None = None) -> Iterator[tuple[CanonicalCode, Graph]]:
    """``enumerate_codes`` with each class's graph built alongside."""
    for code in enumerate_codes(n, m):
        yield code, graph_from_code(code)


class Minimum(NamedTuple):
    """An exact minimum and its argmin classes, in enumeration order."""

    value: Fraction
    codes: tuple[CanonicalCode, ...]


class SweepMinima(NamedTuple):
    """The minima over the classes on n vertices: of Kf and of W per
    matching number, of Kf per cycle length, each keyed in ascending
    order.  Cached results are shared: do not modify them."""

    n: int
    kf: dict[int, Minimum]
    wiener: dict[int, Minimum]
    kf_by_cycle: dict[int, Minimum]


@cache
def _term_tables(n: int) -> tuple[tuple[_State, ...], ...]:
    """Indexed by s <= n - 2, each branch state of the rooted trees on s
    vertices with its least branch term in an n-vertex graph and the
    codes that attain it, and its least depth sum D and least
    ``branch_row`` entry.  Cached per n, for the sweep and the row pass
    of one n alike.  The term sums a (n - a) over a tree's edges, a
    the vertices below, so a tree is least in its state exactly when its
    children form a least multiset of (size, state) items, each weighing
    its term plus s (n - s): an unbounded knapsack.  D sums D + s over the
    children, and an entry is the root's, D, or one child's entry plus
    n - s plus the other children's D + s, so the same items give both
    minima.  forests[t] keeps, per (the children's matchings summed,
    whether a child's root is free), the least weight of total size t and
    each sorted child-code tuple with it, and the least D and least entry
    of a tree with such children."""
    forests: list[dict] = [{(0, False): [0, {()}, 0, 0]}] + [{} for _ in range(n - 3)]
    tables: list[tuple[_State, ...]] = [()]
    for size in range(1, n - 1):
        table = tuple(
            _State(m + free, m, tuple(sorted("(" + "".join(f) + ")" for f in kids)), term, *least)
            for (m, free), (term, kids, *least) in forests[size - 1].items()
        )
        tables.append(table)
        for state in table:
            weight = state.term + size * (n - size)
            lift = state.depth + size
            hung = state.vertex + n - size
            root_free = state.matching == state.root_free
            for total in range(size, n - 2):
                for (m, free), (term, kids, depth, vertex) in forests[total - size].items():
                    key = (m + state.matching, free or root_free)
                    cur = forests[total].get(key)
                    if cur is None:
                        cur = forests[total][key] = [term + weight, set(), inf, inf]
                    elif term + weight < cur[0]:
                        cur[:2] = term + weight, set()
                    if term + weight == cur[0]:
                        cur[1].update(tuple(sorted((*f, c))) for f in kids for c in state.codes)
                    cur[2] = min(cur[2], depth + lift)
                    cur[3] = min(cur[3], vertex + lift, depth + hung)
    return tuple(tables)


def _offer(best: dict, key: int, num: int, den: int, item: tuple) -> None:
    """Keep in best[key] the least num / den offered and the items that
    attain it, comparing by cross-multiplication."""
    cur = best.get(key)
    if cur is None or num * cur[1] < cur[0] * den:
        best[key] = (num, den, [item])
    elif num * cur[1] == cur[0] * den:
        cur[2].append(item)


def _classes(groups: Iterable[tuple[tuple[int, ...], list, Sequence]]) -> Iterator[CanonicalCode]:
    """One code per class among the products of the groups' code pools:
    (composition, its symmetries, one state per position with its
    ``codes``) in ascending cycle length.  The codes come in enumeration
    order, by cycle length and then by sequence."""
    for k, of_k in groupby(groups, key=lambda group: len(group[0])):
        seqs: list[tuple[str, ...]] = []
        for _, fixing, states in of_k:
            seqs += map(dihedral_min, _tuple_classes(states, fixing)[1])
        seqs.sort()
        for seq in seqs:
            yield CanonicalCode(k, seq)


def _minima(best: dict) -> dict[int, Minimum]:
    """The offers as Minimum records: one Fraction per cell, and the
    classes whose every branch has the least term of its state, over the
    state tuples that attain it."""
    return {
        key: Minimum(Fraction(num, den), tuple(_classes(groups)))
        for key, (num, den, groups) in sorted(best.items())
    }


@cache
def sweep_minima(n: int) -> SweepMinima:
    """The Kf and W minima over the classes on n vertices, from tuples of
    branch states, without generating a class.  Cached per n.

    Kf = (k T + C) / k and W = T + H, with C and H the ``cycle_terms`` of
    the branch sizes and T the sum of their branch terms.  Fix the
    composition and each position's state: the matching number follows,
    and T is least, and exactly so, where every branch has the least term
    of its state (``_term_tables``).  So per composition, one per orbit,
    the (min, +) ``_transfer`` gives the least T per matching number, and
    the least of those is its least T for its cycle length's cell.  Only
    the compositions that attain a cell's minimum expand into state
    tuples, those of the cell's matching number and least T.  Keys stay
    integers until each cell's minimum is known."""
    if n < 3:
        raise ValueError("unicyclic graphs need at least 3 vertices")
    tables = _term_tables(n)
    steps = [_steps(table, attrgetter("term")) for table in tables]
    kf: dict = {}
    wiener: dict = {}
    girth: dict = {}
    for k in range(3, n + 1):
        for sizes, fixing in orbit_compositions(n, k):
            cycle, hops = cycle_terms(sizes)
            least = _transfer(sizes, steps, 0, add, min)
            for m, trees in least.items():
                item = (sizes, fixing, m, trees)
                _offer(kf, m, k * trees + cycle, k, item)
                _offer(wiener, m, trees + hops, 1, item)
            trees = min(least.values())
            _offer(girth, k, k * trees + cycle, k, (sizes, fixing, None, trees))
    cells = (kf, wiener, girth)
    for best in cells:
        for key, (num, den, offers) in best.items():
            best[key] = num, den, [
                (sizes, fixing, group)
                for sizes, fixing, m, trees in offers
                for group in product(*[tables[size] for size in sizes])
                if sum(state.term for state in group) == trees
                and (m is None or cycle_matching(group) == m)
            ]
    return SweepMinima(n, *map(_minima, cells))


def counts_by_matching(n: int) -> dict[int, int]:
    """Class counts per matching number at fixed vertex count, in
    ascending order.  A composition that no symmetry fixes holds the
    product of its states' code counts per state tuple, summed per
    matching number by the (+, *) ``_transfer``; the others count their
    state tuples' classes (``_tuple_classes``)."""
    if n < 3:
        raise ValueError("unicyclic graphs need at least 3 vertices")
    pools = [()] + [_code_states(size) for size in range(1, n - 1)]
    steps = [_steps(pool, lambda state: len(state.codes)) for pool in pools]
    counts: Counter = Counter()
    for sizes, fixing, groups in _walk(n, pools):
        if not fixing:
            counts.update(_transfer(sizes, steps, 1, mul, add))
            continue
        for group in groups:
            counts[cycle_matching(group)] += _tuple_classes(group, fixing)[0]
    return dict(sorted(counts.items()))


def _branch_shape(code: str) -> tuple[list[int], list[int]]:
    """(parents, degrees) of the vertices of a branch code, in the order of
    ``code_parents``, with degrees as in the graph: the root also has its
    two cycle edges."""
    parents = code_parents(code)
    degrees = [1] * len(parents)
    degrees[0] = 2
    for p in parents[1:]:
        degrees[p] += 1
    return parents, degrees


def _pendant_differences(
    shapes: list[tuple[list[int], list[int]]], rows: list[list[int]]
) -> Iterator[tuple[int, int, int, int, int | None]]:
    """(x, y, degree of y, k (Kf(G) - Kf(G-x)), k (Kf(G) - Kf(G-x-y)) or
    None unless y has degree 2) for every pendant vertex x of the class
    whose branches have the ``_branch_shape``s shapes and its neighbour
    y, labelled as in ``graph_from_code``, from the rows k Kf_G(u) of
    ``cycle_row_numerators``.

    Deleting a pendant vertex or path leaves the other resistances as they
    were (Klein and Randic 1993), so the differences come from G's row
    sums: Kf_G(x), and Kf_G(x) + Kf_G(y) - r(x, y) with r(x, y) = 1.
    """
    k = len(shapes)
    offset = k - 1  # the label of branch vertex v > 0 is offset + v
    for i, ((parents, degrees), row) in enumerate(zip(shapes, rows)):
        for v in range(1, len(parents)):
            if degrees[v] == 1:
                p = parents[v]
                pair = row[v] + row[p] - k if degrees[p] == 2 else None
                yield offset + v, offset + p if p else i, degrees[p], row[v], pair
        offset += len(parents) - 1


class RowCell:
    """The classes on n vertices with matching number m >= 3 against the
    vertex-sum bound and the pendant-deletion bounds: how many classes and
    pendant vertices there are, how many vertices and how many pendant
    deletions fall below a bound, and one entry per place where a bound
    holds with equality: a vertex, as its class and whether it is the
    unique vertex of largest degree; a pendant, as its class and whether
    its neighbour has the largest degree; a pendant path, as its class.
    ``_check_class`` keeps the entries sorted, so two walks that meet the
    classes in different orders give equal cells."""

    def __init__(self, n: int, m: int):
        self.n = n
        self.m = m
        self.graphs = 0
        self.pendants = 0
        self.violations = 0
        self.equalities: list[tuple[CanonicalCode, bool]] = []
        self.deletion_violations = 0
        self.eq_single: list[tuple[CanonicalCode, bool]] = []
        self.eq_pair: list[CanonicalCode] = []

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"RowCell({fields})"


def _check_class(seq: tuple[str, ...], cell: RowCell) -> None:
    """Add to the cell the violations and equalities of the class with
    branch codes seq: its resistance row read as the integers k Kf_G(u),
    compared with k times each bound.  Degrees come from the codes."""
    n, m, k = cell.n, cell.m, len(seq)
    shapes = [_branch_shape(c) for c in seq]
    rows = cycle_row_numerators([parents for parents, _ in shapes])
    degrees = [d for _, branch_degrees in shapes for d in branch_degrees]
    max_deg = max(degrees)
    unique_max = degrees.count(max_deg) == 1
    code = CanonicalCode(k, dihedral_min(seq))
    bound = k * (n + m - 4)
    for (_, branch_degrees), row in zip(shapes, rows):
        for deg, num in zip(branch_degrees, row):
            if num < bound:
                cell.violations += 1
            elif num == bound:
                insort(cell.equalities, (code, deg == max_deg and unique_max))
    bound1 = k * (2 * n + m - 6)
    bound2 = k * (5 * n + 2 * m - 19)
    for _, _, y_degree, diff1, diff2 in _pendant_differences(shapes, rows):
        if diff1 < bound1:
            cell.deletion_violations += 1
        elif diff1 == bound1:
            insort(cell.eq_single, (code, y_degree == max_deg))
        if diff2 is not None:
            if diff2 < bound2:
                cell.deletion_violations += 1
            elif diff2 == bound2:
                insort(cell.eq_pair, code)


@cache
def row_cells(n: int) -> list[RowCell]:
    """The ``RowCell`` of every matching number m >= 3 of the classes on
    n vertices, in ascending m, from tuples of branch states, without
    generating a class in general.  Cached per n for the life of the
    process; cached cells are shared: do not modify them.

    In branch i of C_k, k Kf_G(u) = k (B(u) + sum_{j != i} D_j) + c_i,
    with B the ``branch_row`` entry, D_j the depth sums and c_i the
    ``cycle_cores`` of the composition.  Fix the composition and the state
    of each position, and take per state the least D and the least B, which
    ``_term_tables`` finds from the children's states without reading a
    tree: the least row entry in branch i is then at least
    k (B_i + sum_{j != i} D_j) + c_i.  That one bound decides the deletion
    differences (``_pendant_differences``) too, by the series rule: a
    pendant x on y has Kf_G(x) = Kf_G(y) + n - 2, and a pendant path x-y
    on z has Kf_G(x) + Kf_G(y) - 1 = 2 Kf_G(z) + 3n - 11.  So in a group
    whose least row entry exceeds k (n + m - 4), every pendant difference
    exceeds k (2n + m - 6) and every pair difference k (5n + 2m - 19):
    the group has no violation and no equality, and only the other groups
    expand into classes, one ``_check_class`` each.  The class counts come
    from ``_tuple_classes``; the pendant count of a composition with no
    symmetry is a sum of products of its states' counts, and the others
    count over their listed classes.  A code's pendant vertices are the
    "()" inside its outer brackets, so no count parses a code."""
    tables: list = [()]
    pendants: dict[str, int] = {}  # of all a state's codes, keyed by its least code
    for size, table in enumerate(_term_tables(n)[1:], 1):
        minima = {(state.matching, state.root_free): state for state in table}
        states = _code_states(size)
        tables.append([minima[s.matching, s.root_free]._replace(codes=s.codes) for s in states])
        for state in states:
            pendants[state.codes[0]] = sum(code[1:-1].count("()") for code in state.codes)
    cells: dict[int, RowCell] = {}
    for sizes, fixing, groups in _walk(n, tables):
        k = len(sizes)
        cores = cycle_cores(sizes)
        for group in groups:
            m = cycle_matching(group)
            if m < 3:
                continue
            if m not in cells:
                cells[m] = RowCell(n, m)
            cell = cells[m]
            classes, seqs = _tuple_classes(group, fixing)
            cell.graphs += classes
            if fixing:
                cell.pendants += sum(code[1:-1].count("()") for seq in seqs for code in seq)
            else:
                cell.pendants += sum(
                    classes // len(state.codes) * pendants[state.codes[0]] for state in group
                )
            depth = sum(state.depth for state in group)
            least = min(k * (s.vertex + depth - s.depth) + c for s, c in zip(group, cores))
            if least > k * (n + m - 4):
                continue
            for seq in seqs:
                _check_class(seq, cell)
    return [cells[m] for m in sorted(cells)]


_INVARIANTS = ("kirchhoff", "wiener")


def extremal_search(
    n: int, m: int, invariant: str = "kirchhoff"
) -> tuple[tuple[CanonicalCode, ...], Fraction]:
    """Exact argmin set of the invariant over all unicyclic graphs with
    n vertices and matching number m."""
    if invariant not in _INVARIANTS:
        raise ValueError(f"unknown invariant {invariant!r}")
    sweep = sweep_minima(n)
    best = (sweep.kf if invariant == "kirchhoff" else sweep.wiener).get(m)
    if best is None:
        raise ValueError(f"no unicyclic graphs with n={n}, m={m}")
    return best.codes, best.value


def free_tree_codes(n: int) -> tuple[str, ...]:
    """Canonical codes of free trees: the minimum rooted code over all
    root choices."""
    if n < 1:
        raise ValueError("tree size must be positive")
    seen: set[str] = set()
    for code in rooted_tree_codes(n):
        adj = tree_from_code(code).adjacency
        seen.add(min(_tree_code(adj, r) for r in range(n)))
    return tuple(sorted(seen))


def free_trees(n: int) -> tuple[Graph, ...]:
    """One representative per isomorphism class of trees on n vertices."""
    return tuple(tree_from_code(c) for c in free_tree_codes(n))
