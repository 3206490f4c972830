"""Finite monoids: Froidure–Pin enumeration, Cayley graphs, Green's relations.

Every monoid here lives in a known universe of elements and is found by
one closure walk, ``_walk``, which multiplies each element reached by
each generator on the right and numbers every product by its position in
the universe; a product outside the universe stops it, so closure is
exact.  ``froidure_pin`` walks breadth first from the identity, as in
Froidure & Pin (1997), "Algorithms for computing finite semigroups", and
its universe, which the generators must reach whole, certifies both the
generating set and closure.  The right graph records x*g for every
element x and generator g, and a tree records how each element is
reached, x = x'*g with x' found first, so that it spells each element's
short-lex least word.  Only x*g calls the concrete operation: g*x follows
from the tree, and so does every later product.

A ``FiniteMonoid`` is that record: its elements indexed 0..m-1, a
certified generating set, the right graph and the tree, from which it
derives the left graph.  ``froidure_pin`` returns one, and so does
``submonoid`` for a closed index subset, such as a diagram family's
positions in P_n.  No Cayley table is kept: ``row(a)``, the list a*S,
composes the generators' left actions along the word of a, one map per
letter, ``column(a)``, the list S*a, composes the right actions, and x*y
is traced from x through the right graph along the word of y.  The
structural algorithms read the generator graphs, so most rows are never
made, and only the ``build`` dump and the semigroup algebra's Gram matrix
read a whole table, made by ``_build_table``.  Work of m^2 products, the
dump and the sweep of L2 and R2 over every theta, is done only up to
``TABLE_CAP`` elements.

``submonoid`` and ``escape``, which tests any index subset for closure,
run the same walk inside the subset greedily: generators are picked from
the parent's products, top-down in the parent's J-order, adding an
element only when the closure grown so far has not reached it, and the
walk goes on from each pick.  ``escape`` then names the first escaping
pair row by row.

Green's R- and L-classes are the strongly connected components of the right
and left generator graphs, for every monoid.  D is the join of R and L, and
the J-order is reachability between D-classes, as in East, Egri-Nagy,
Mitchell & Péresse, "Computing finite semigroups" (J. Symb. Comp. 2019).
``green`` keeps the whole structure in one ``GreenStructure``.  It holds
the J-order as each D-class's below-set, the D-classes at or below it.
The size of a below-set is the class's height: heights order the closure
walk and the egg-box, and the minimal ideal is the one class of height 1.
Regularity, inverseness and right zeros are read off this structure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import StateError, ValidationError

TABLE_CAP = 1000


def froidure_pin(generators, op, identity, universe):
    """The monoid generated under op by the given elements, numbered by
    their positions in ``universe``, a sequence of every element it should
    have.

    Elements are found breadth first from the identity, so the first word
    reaching an element is its short-lex least word, and the tree lists
    each element x = x'*g_k as (x, x', k) in that order.  A product outside
    the universe raises ValidationError as soon as it is found, and so does
    a closure smaller than the universe: reaching every element certifies
    both the generating set and closure.
    """
    place = {x: i for i, x in enumerate(universe)}
    if len(place) != len(universe):
        raise ValidationError("duplicate elements in universe")
    start = place.get(identity)
    if start is None:
        raise ValidationError("the identity is not in the given universe")
    members, right = [start], [[] for _ in universe]
    tree = [(start, None, None)]
    _walk(op, universe, place, generators, members, {start}, right, tree)
    if len(members) != len(universe):
        raise ValidationError(
            f"the generators give {len(members)} of the {len(universe)} "
            f"elements"
        )
    return FiniteMonoid(place, start, right[start], right, tree)


def _walk(op, elements, place, generators, members, reached, right, tree):
    """Close ``members`` under right multiplication by the generators.

    Each member x, ``members`` growing while it is walked, gains in
    ``right[x]`` the products x*g_j it lacks, numbered by ``place``, from
    ``op(elements[x], generators[j])``; a product not yet ``reached`` joins
    ``members`` and the ``tree`` as (p, x, j).  Raises ValidationError at
    the first product ``place`` does not number.
    """
    for x in members:
        row, a = right[x], elements[x]
        for j in range(len(row), len(generators)):
            p = place.get(op(a, generators[j]))
            if p is None:
                raise ValidationError(
                    f"not closed: the product of {a!r} and generator {j} "
                    f"escapes the set"
                )
            row.append(p)
            if p not in reached:
                reached.add(p)
                members.append(p)
                tree.append((p, x, j))


class FiniteMonoid:
    """A finite monoid (or semigroup) over an indexed element universe.

    ``index`` numbers the elements 0..m-1 in key order, the order of
    ``elements``.  ``generators`` lists the element index of each generator
    g_k, ``right[x][k]`` the index of x*g_k, and ``tree`` how each element
    is reached: (x, x', k) for x = x'*g_k with x' listed before x, or (x,
    None, k) for x = g_k itself, and (x, None, None) for the identity.
    ``identity`` is an index, or None for a semigroup.  The left graph,
    ``left[x][k]`` = g_k*x, follows along the tree: the identity's row is
    the generators, g_j*g_k is ``right[g_j][k]``, and g_j*x is
    (g_j*x')*g_k for x = x'*g_k.  Every product follows the tree's words.
    """

    # Keeps no table.  Its only reader is the ``mul`` counter of the
    # benchmark tracer (perfbench/tracer.py); the two are deleted together.
    table = None

    def __init__(self, index, identity, generators, right, tree):
        self.index, self.elements = index, list(index)
        self.size = len(self.elements)
        self.identity = identity
        self.generators, self.right, self.tree = generators, right, tree
        left = self.left = [None] * self.size
        for x, pre, k in tree:
            base = generators if pre is None else left[pre]
            left[x] = list(base) if k is None else [right[y][k] for y in base]
        self._green = None  # memo of green(self)
        self._generator_actions = None  # memo of _actions()
        self._word_list = None  # memo of _words()

    # -- construction -----------------------------------------------------

    def submonoid(self, indices):
        """The sub-(semi)group on a closed index subset, reindexed.

        Its identity comes from this monoid's products, its generators,
        right graph and tree from ``_closure_walk``.  Raises
        ValidationError when an index is not an element's or the subset is
        not closed.
        """
        indices = sorted(set(_check_indices(self, indices)))
        mul = self.mul
        identity = next((
            i for i, e in enumerate(indices)
            if all(mul(e, x) == x == mul(x, e) for x in indices)
        ), None)
        gens, right, tree = self._closure_walk(
            indices, [] if identity is None else [identity]
        )
        index = {self.elements[i]: k for k, i in enumerate(indices)}
        return FiniteMonoid(index, identity, gens, right, tree)

    def _closure_walk(self, indices, members):
        """The greedy closure walk over the sorted index subset ``indices``,
        numbered locally by position and seeded with ``members`` (the
        identity, or nothing): candidates top-down in the J-order, ties
        broken by index, each one not yet reached added as a generator and
        the walk continued with it.  Raises ValidationError on a product
        outside the subset.  Returns the generators, the right graph
        ``right[x][j]`` = x*g_j and the tree, in local numbers."""
        local = dict(zip(indices, range(len(indices))))
        gs = green(self)
        rank = [len(gs.below[gs.d_class[p]]) for p in indices]
        gens, picked, right = [], [], [[] for _ in indices]
        members = list(members)
        tree = [(x, None, None) for x in members]  # how each x is reached
        reached = set(members)
        for c in sorted(range(len(indices)), key=lambda x: (-rank[x], x)):
            if c in reached:
                continue
            tree.append((c, None, len(gens)))
            gens.append(c)
            picked.append(indices[c])
            reached.add(c)
            members.append(c)
            # earlier members gain the column x*c, and c and the elements
            # reached from here on get every column
            _walk(self.mul, indices, local, picked, members, reached, right,
                  tree)
        return gens, right, tree

    def _build_table(self):
        """The whole Cayley table, each row made in tree order from its
        parent's: as x*y = x'*(g_k*y) for x = x'*g_k, row x is row x' read
        through g_k's left action."""
        actions, table = self._actions()[0], [None] * self.size
        for x, pre, k in self.tree:
            base = range(self.size) if pre is None else table[pre]
            table[x] = list(
                base if k is None else map(base.__getitem__, actions[k])
            )
        return table

    def escape(self, indices):
        """The first pair (x, y) of the sequence ``indices``, row by row in
        its order, whose product is not in it, or None when it is closed.

        Closure is decided by ``_closure_walk``, after every index is
        checked; only a subset that is not closed is scanned row by row.
        """
        indices = _check_indices(self, indices)
        try:
            self._closure_walk(sorted(set(indices)), ())
        except ValidationError:
            inside = set(indices)
            for x in indices:
                row = self.row(x)
                for y in indices:
                    if row[y] not in inside:
                        return x, y
        return None

    # -- products ----------------------------------------------------------

    def row(self, a):
        """The products a*y for every y, composed along the word of a."""
        actions = self._actions()[0]
        row = range(self.size)
        for k in reversed(self._words()[a]):
            row = map(actions[k].__getitem__, row)
        return list(row)

    def column(self, a):
        """The products y*a for every y, as a list indexed by y."""
        actions = self._actions()[1]
        col = range(self.size)
        for k in self._words()[a]:
            col = map(actions[k].__getitem__, col)
        return list(col)

    def _actions(self):
        """The generators' left and right actions, g_k*y and y*g_k for
        every y under index k, computed once: rows are composed from the
        left ones and columns from the right ones."""
        if self._generator_actions is None:
            self._generator_actions = (
                list(zip(*self.left)), list(zip(*self.right))
            )
        return self._generator_actions

    def _words(self):
        """Each element's word over the generators, spelt by the tree and
        computed once: every product follows them."""
        if self._word_list is None:
            words = self._word_list = [()] * self.size
            for x, pre, k in self.tree:
                if k is not None:
                    words[x] = (() if pre is None else words[pre]) + (k,)
        return self._word_list

    def mul(self, i, j):
        """The index of x_i*x_j: the word of x_j traced through the right
        graph from x_i."""
        right = self.right
        for k in self._words()[j]:
            i = right[i][k]
        return i

    def decode(self, i):
        return self.elements[i]


def _check_indices(m, indices):
    """``indices`` as a list, each checked to be an element index of m: an
    int, not a bool, in range(m.size).  Raises ValidationError."""
    indices = list(indices)
    for i in indices:
        if type(i) is not int or not 0 <= i < m.size:
            raise ValidationError(f"{i!r} is not an element index")
    return indices


# -- Green's relations ------------------------------------------------------


@dataclass
class GreenStructure:
    """Green's structure of a monoid: for each element the id of its R-, L-,
    H- and D-class, each numbered in order of minimal element, and for each
    D-class id d the frozenset ``below[d]`` of the D-class ids at or below
    it in the J-order, so that ``len(below[d])`` is its height."""

    r_class: list
    l_class: list
    h_class: list
    d_class: list
    below: list
    d_equals_j: bool = True


def _classes_by_key(keys):
    """Relabel a sequence of keys in first-occurrence order: class ids in
    order of minimal member index (also the canonical form of a diagram's
    block labels)."""
    ids = {}
    out = []
    for k in keys:
        if k not in ids:
            ids[k] = len(ids)
        out.append(ids[k])
    return out


def same_classes(xs, ys) -> bool:
    """True iff two labellings of the same points give the same partition,
    i.e. x_i = x_j exactly when y_i = y_j; decided by comparing their
    first-occurrence relabellings."""
    return _classes_by_key(xs) == _classes_by_key(ys)


def _join_labellings(size, labellings):
    """Union-find over the nodes 0..size-1 joining any two nodes that carry
    the same label in one labelling.

    Each labelling is a pair (offset, labels): node offset+i carries
    labels[i].  Returns the find function of the resulting forest, mapping
    each node to the root of its component.
    """
    parent = list(range(size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for offset, labels in labellings:
        first = {}
        for v, label in enumerate(labels, offset):
            if label in first:
                ru, rv = find(first[label]), find(v)
                if ru != rv:
                    parent[rv] = ru
            else:
                first[label] = v
    return find


def _scc(adj):
    """Strongly connected components of a graph given by successor lists,
    as one component id per vertex (iterative Tarjan)."""
    size = len(adj)
    order = [-1] * size  # discovery number
    low = [0] * size
    comp = [-1] * size
    stack = []
    count = found = 0
    for root in range(size):
        if order[root] >= 0:
            continue
        order[root] = low[root] = count
        count += 1
        stack.append(root)
        work = [(root, iter(adj[root]))]
        while work:
            v, succ = work[-1]
            for w in succ:
                if order[w] < 0:
                    order[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    work.append((w, iter(adj[w])))
                    break
                if comp[w] < 0 and order[w] < low[v]:  # w is on the stack
                    low[v] = order[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == order[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = found
                        if w == v:
                            break
                    found += 1
    return comp


def green(m: FiniteMonoid) -> GreenStructure:
    """Green's relations from the strongly connected components of the
    right and left generator graphs, with D = R v L and the J-order as
    reachability between D-classes, kept as each class's below-set.
    Computed once per monoid."""
    if m._green is not None:
        return m._green
    rng = range(m.size)
    r_class = _classes_by_key(_scc(m.right))
    l_class = _classes_by_key(_scc(m.left))
    h_class = _classes_by_key(zip(r_class, l_class))

    find = _join_labellings(m.size, ((0, r_class), (0, l_class)))
    d_class = _classes_by_key(map(find, rng))

    # J-order: D-classes reachable along right and left generator edges
    succ = [set() for _ in range(len(set(d_class)))]
    for adj in (m.right, m.left):
        for x in rng:
            succ[d_class[x]].update(map(d_class.__getitem__, adj[x]))
    below = []
    for b in range(len(succ)):
        reached, stack = {b}, [b]
        while stack:
            for a in succ[stack.pop()]:
                if a not in reached:
                    reached.add(a)
                    stack.append(a)
        below.append(frozenset(reached))
    # D = J iff no two distinct D-classes lie below each other
    d_equals_j = all(
        a == b or b not in below[a] for b, bs in enumerate(below) for a in bs
    )
    m._green = GreenStructure(
        r_class=r_class,
        l_class=l_class,
        h_class=h_class,
        d_class=d_class,
        below=below,
        d_equals_j=d_equals_j,
    )
    return m._green


def idempotents(m: FiniteMonoid):
    return frozenset(x for x in range(m.size) if m.mul(x, x) == x)


def is_regular(m: FiniteMonoid) -> bool:
    """Every D-class holds an idempotent: in a finite semigroup an element
    is regular exactly when its D-class does."""
    d_class = green(m).d_class
    return {d_class[e] for e in idempotents(m)} == set(d_class)


def is_inverse(m: FiniteMonoid) -> bool:
    """Regular, with exactly one idempotent in each R-class and each
    L-class (equivalently, commuting idempotents)."""
    gs, ids = green(m), idempotents(m)
    return is_regular(m) and all(
        len({classes[e] for e in ids}) == len(ids)
        for classes in (gs.r_class, gs.l_class)
    )


def right_zeros(m: FiniteMonoid):
    """Elements z with g*z = z for every generator g, hence a*z = z for
    every element a."""
    return frozenset(
        z for z, row in enumerate(m.left) if all(p == z for p in row)
    )


def minimal_ideal(m: FiniteMonoid):
    """Elements of the minimal J-class (which is the minimal ideal)."""
    gs = green(m)
    bottoms = [d for d, ds in enumerate(gs.below) if len(ds) == 1]
    if len(bottoms) != 1:
        raise StateError("no unique minimal J-class")
    return frozenset(x for x in range(m.size) if gs.d_class[x] == bottoms[0])


def check_embedding(f, s: FiniteMonoid, t: FiniteMonoid) -> bool:
    """True iff the index map f is injective, identity-preserving and
    multiplicative from s into t.

    Multiplicativity is checked on the pairs (x, g) for the generators g
    of s: f(x*y) = f(x)*f(y) for every y then follows by induction on the
    word of y.
    """
    if len(set(f)) != s.size:
        return False
    if s.identity is not None and f[s.identity] != t.identity:
        return False
    images = [f[g] for g in s.generators]
    return all(
        f[xg] == t.mul(f[x], fg)
        for x, row in enumerate(s.right)
        for xg, fg in zip(row, images)
    )
