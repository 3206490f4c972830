"""Finite monoids: Froidure–Pin enumeration, Cayley graphs, Green's relations.

Every monoid here lives in a known universe of elements, numbered by
position.  ``froidure_pin`` walks breadth first from the identity over the
right actions of the generators, each given whole as one tuple of
positions, as in Froidure & Pin (1997), "Algorithms for computing finite
semigroups"; zoo makes every family's, so no element product is made
here.  A product outside the universe, given as None, stops the walk, so
closure is exact, and the universe, which the generators must reach whole,
certifies the generating set.  The walk's tree records how each element
is first reached, x = x'*g with x' found earlier, so that it spells each
element's short-lex least word.  Only x*g is given: g*x follows from the
tree, and so does every later product.

A ``FiniteMonoid`` is that record: its elements indexed 0..m-1, a
certified generating set, the right graph and the tree, from which it
derives the left graph.  Each graph is kept once, as one action per
generator: ``right[k]`` lists x*g_k and ``left[k]`` g_k*x for every x, a
tuple of m indices; the left one is made when the walk ends, by following
the tree.  The tree is kept as the walk left it: the
discovery order and each element's parent and last letter, so words are
read up it and none is stored.  ``froidure_pin`` returns one, and so does
``submonoid`` for a closed index subset, such as a diagram family's
positions in P_n.  No Cayley table is kept: x*y carries y up the tree
from x through the left actions, and rows a*S and columns S*a are
composed depth first over the prefix tree of the words asked for, one
gather per node.  The structural algorithms read the generator graphs,
so most rows are never made; the ``build`` dump and the semigroup
algebra's Gram matrix read a whole table, ``_build_table``, and the
Ehresmann layer a row a side per semilattice member and its full sweep
every line of a side, all kept as typed rows of 2 bytes an entry.  Work
of m^2 products, the dump and that sweep, is done only up to ``TABLE_CAP``.

``submonoid`` and ``closed``, which tests any index subset for closure,
run ``froidure_pin``'s walk, ``_walk``, inside the subset greedily:
generators are picked in the parent's discovery order, adding an element
only when the closure grown so far has not reached it, and the walk goes
on from each pick over its action y*c on the subset, carried along c's
word through the parent's right actions: no product is made one by one.
A submonoid keeps these actions, and the parent's identity if it holds
it; ``closed`` keeps only the walk's verdict.  Neither reads Green's
structure, so building a monoid never computes it.

Green's R- and L-classes are the strongly connected components of the right
and left generator graphs, for every monoid.  D is the join of R and L, and
the J-order is reachability between D-classes, as in East, Egri-Nagy,
Mitchell & Péresse, "Computing finite semigroups" (J. Symb. Comp. 2019).
``green`` keeps the whole structure in one ``GreenStructure``.  It holds
the J-order as each D-class's below-set, the D-classes at or below it.
The size of a below-set is the class's height: heights order the egg-box,
and the minimal ideal is the one class of height 1.  Regularity,
inverseness and right zeros are read off this structure.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from operator import itemgetter

from .errors import StateError, ValidationError

TABLE_CAP = 1000


def froidure_pin(actions, identity, universe):
    """The monoid of the generators whose right actions on ``universe``, a
    sequence of every element it should have, are ``actions``:
    ``actions[k][x]`` is the position of universe[x]*g_k, or None outside
    it.  Its elements are numbered by their positions.

    Elements are found breadth first from the identity, so the walk's
    discovery order is the short-lex order of the elements' least words,
    and each element x = x'*g_k is reached first from such an x'.  A
    product None, or a closure smaller than the universe, raises
    ValidationError: reaching every element certifies the generating set.
    """
    place = {x: i for i, x in enumerate(universe)}
    if len(place) != len(universe):
        raise ValidationError("duplicate elements in universe")
    start = place.get(identity)
    if start is None:
        raise ValidationError("the identity is not in the given universe")
    order, parent, letter = [start], [-1] * len(universe), [-2] * len(universe)
    letter[start] = -1
    _walk(actions, 0, order, 0, parent, letter, universe)
    if len(order) != len(universe):
        raise ValidationError(
            f"the generators give {len(order)} of the {len(universe)} "
            f"elements"
        )
    for x in order:  # one int object per position, the actions' own
        place[universe[x]] = x
    return FiniteMonoid(place, start, [act[start] for act in actions],
                        actions, order, parent, letter)


def _walk(actions, new, order, walked, parent, letter, elements):
    """Close ``order`` under the right ``actions``, ``actions[k][x]`` being
    x*g_k, or None when it falls outside the set walked.

    ``order`` grows while it is walked: its first ``walked`` elements,
    walked before over ``actions[:new]``, gain the edges of
    ``actions[new:]``, and every later element gains all of them.  A
    product p not reached yet, ``letter[p] == -2``, joins ``order`` with
    ``parent[p]`` = x and ``letter[p]`` = k.  Raises ValidationError at the
    first product None, naming ``elements[x]`` and k.
    """
    for i, x in enumerate(order):
        for k in range(new if i < walked else 0, len(actions)):
            p = actions[k][x]
            if p is None:
                raise ValidationError(f"not closed: the product of "
                                      f"{elements[x]!r} and generator {k} "
                                      f"escapes the set")
            if letter[p] == -2:
                parent[p], letter[p] = x, k
                order.append(p)


class FiniteMonoid:
    """A finite monoid (or semigroup) over an indexed element universe.

    ``index`` numbers the elements 0..m-1 in key order, the order of
    ``elements``.  ``generators`` lists the element index of each generator
    g_k.  The walk's tree says how each element is reached: x =
    ``parent[x]``*g_``letter[x]`` with the parent found first, ``parent``
    -1 at a generator root and both -1 at the identity, so that x's word is
    read up the tree, last letter first.  ``order`` lists the elements in
    the walk's discovery order, each after its parent.  ``identity`` is an
    index, or None for a semigroup.  Each generator's two actions are kept,
    one tuple of m indices each: ``right[k][x]`` = x*g_k, as the walk was
    given it, and ``left[k][x]`` = g_k*x, which follows
    along ``order``: g_k*1 is g_k, g_k*g_j is ``right[j][g_k]``, and g_k*x
    is (g_k*x')*g_j for x = x'*g_j.  Every product follows the tree's words.
    """

    # Keeps no table.  Its only reader is the ``mul`` counter of the
    # benchmark tracer (perfbench/tracer.py); the two are deleted together.
    table = None

    def __init__(self, index, identity, generators, right, order, parent,
                 letter):
        self.index, self.elements = index, list(index)
        self.size = len(self.elements)
        self.identity = identity
        self.generators = generators
        self.order, self.parent, self.letter = order, parent, letter
        self.right = right = list(right)
        left = self.left = []
        for g in generators:
            act = [g] * self.size
            for x in order:
                if (k := letter[x]) >= 0:
                    pre = parent[x]
                    act[x] = right[k][g if pre < 0 else act[pre]]
            left.append(tuple(act))
        self._green = None  # memo of green(self)

    # -- construction -----------------------------------------------------

    def submonoid(self, indices):
        """The sub-(semi)group on a closed index subset, reindexed.

        Its identity is this monoid's when the subset holds it, since an
        identity is unique, and is otherwise searched for among this
        monoid's products; its generators, right graph and tree come from
        ``_closure_walk``.  Raises
        ValidationError when an index is not an element's or the subset is
        not closed.
        """
        indices = sorted(set(_check_indices(self, indices)))
        if self.identity in indices:  # an identity is unique
            identity = indices.index(self.identity)
        else:
            mul = self.mul
            identity = next((
                i for i, e in enumerate(indices)
                if all(mul(e, x) == x == mul(x, e) for x in indices)
            ), None)
        gens, right, order, parent, letter = self._closure_walk(
            indices, [] if identity is None else [identity]
        )
        index = {self.elements[i]: k for k, i in enumerate(indices)}
        return FiniteMonoid(index, identity, gens, right, order, parent,
                            letter)

    def _closure_walk(self, indices, order):
        """The greedy closure walk over the sorted index subset ``indices``,
        numbered locally by position and seeded with ``order`` (the
        identity, or nothing): candidates in this monoid's ``order``, each
        one not yet reached added as a generator, with its column y*c on
        the subset in local numbers, None outside it, and the walk
        continued.  Raises ValidationError on a product outside the subset.
        Returns the generators, their actions, the discovery order and the
        tree as ``parent`` and ``letter``, in local numbers."""
        local = dict(zip(indices, range(len(indices))))
        gens, actions = [], []
        parent, letter = [-1] * len(indices), [-2] * len(indices)
        order = list(order)
        for x in order:
            letter[x] = -1
        for c in map(local.get, self.order):
            if c is None or letter[c] != -2:
                continue
            letter[c] = len(gens)
            gens.append(c)
            ((_, column),) = self._lines({indices[c]}, True, indices)
            actions.append(tuple(map(local.get, column)))
            # earlier elements gain the edges by c, and c and the elements
            # reached from here on get every edge
            order.append(c)
            _walk(actions, len(gens) - 1, order, len(order) - 1, parent,
                  letter, indices)
        return gens, actions, order, parent, letter

    def _build_table(self):
        """The whole Cayley table, as ``_typed_rows``."""
        return self._typed_rows(range(self.size))

    def _typed_rows(self, xs, column=False):
        """The row x*S, or with ``column`` the column S*x, of each of the
        indices ``xs`` in order, as one ``array('H')``, 2 bytes an entry,
        or ``array('I')`` above 65,536 elements."""
        code = "H" if self.size <= 1 << 16 else "I"
        rows = {x: array(code, line) for x, line in self._lines(xs, column)}
        return [rows[x] for x in xs]

    def _lines(self, xs, column=False, among=None):
        """(x, line) for each x of the indices ``xs``: its row x*S, or with
        ``column`` its column S*x, as a tuple, composed depth first over the
        prefix tree of the words of xs.  For x = x'*g_k a line is gathered
        from its parent's and g_k's action in one ``itemgetter`` call:
        x*y = x'*(g_k*y) and y*x = (y*x')*g_k.  Only the lines on the
        current path are held, and with an explicit stack a tree as deep as
        m, a cyclic monoid's, needs no recursion.  Only a column can start
        from a subset, ``among``: y*x for each y in it (a row's gathers read
        the whole line)."""
        parent, letter, wanted = self.parent, self.letter, set(xs)
        children, seen = {}, set()  # the roots are the children of -1
        for x in wanted:
            while x >= 0 and x not in seen:
                seen.add(x)
                children.setdefault(parent[x], []).append(x)
                x = parent[x]
        start = range(self.size) if among is None else among
        stack = [(x, start) for x in children.get(-1, ())]
        while stack:
            x, line = stack.pop()
            k = letter[x]
            if k >= 0:
                line = (_gather(self.right[k], line) if column
                        else _gather(line, self.left[k]))
            if x in wanted:
                yield x, line
            stack.extend((y, line) for y in children.get(x, ()))

    def closed(self, indices):
        """True when the index subset ``indices`` is closed under the
        product: ``_closure_walk`` reaches no product outside it.  Raises
        ValidationError when an index is not an element's."""
        indices = sorted(set(_check_indices(self, indices)))
        try:
            self._closure_walk(indices, ())
        except ValidationError:
            return False
        return True

    # -- products ----------------------------------------------------------

    def mul(self, i, j):
        """The index of x_i*x_j: x_j carried up the tree from x_i through
        the left graph, as x'*g_k*y = x'*(g_k*y)."""
        parent, letter, left = self.parent, self.letter, self.left
        while i >= 0 and (k := letter[i]) >= 0:  # up to a root
            j = left[k][j]
            i = parent[i]
        return j

    def decode(self, i):
        return self.elements[i]


def _gather(seq, indices):
    """The tuple of seq[i] for each i of ``indices``, in one C-level call."""
    if len(indices) > 1:  # itemgetter of one index returns the bare item
        return itemgetter(*indices)(seq)
    return tuple(seq[i] for i in indices)


def _check_indices(m, indices):
    """``indices`` as a list, each checked to be an element index of m: an
    int, not a bool, in range(m.size).  Raises ValidationError."""
    indices = list(indices)
    for i in indices:
        if type(i) is not int or not 0 <= i < m.size:
            raise ValidationError(f"{i!r} is not an element index")
    return indices


# -- Green's relations ------------------------------------------------------


GreenStructure = namedtuple(
    "GreenStructure", "r_class l_class h_class d_class below d_equals_j",
    defaults=(True,),
)
GreenStructure.__doc__ = """Green's structure of a monoid: for each element
the id of its R-, L-, H- and D-class, each numbered in order of minimal
element, and for each D-class id d the frozenset ``below[d]`` of the D-class
ids at or below it in the J-order, so that ``len(below[d])`` is its height."""


def _classes_by_key(keys):
    """Relabel a sequence of keys in first-occurrence order: class ids in
    order of minimal member index (also the canonical form of a diagram's
    block labels)."""
    ids = {}
    return [ids.setdefault(k, len(ids)) for k in keys]


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


def _scc(size, actions):
    """Strongly connected components of the graph on 0..size-1 with an
    edge x -> a[x] for each action a, as one component id per vertex
    (iterative Tarjan).  A vertex's successors are read off the actions
    when it is reached, so no successor list is made for the whole graph."""
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
        work = [(root, map(itemgetter(root), actions))]
        while work:
            v, succ = work[-1]
            for w in succ:
                if order[w] < 0:
                    order[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    work.append((w, map(itemgetter(w), actions)))
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
    r_class = _classes_by_key(_scc(m.size, m.right))
    l_class = _classes_by_key(_scc(m.size, m.left))
    h_class = _classes_by_key(zip(r_class, l_class))

    find = _join_labellings(m.size, ((0, r_class), (0, l_class)))
    d_class = _classes_by_key(map(find, range(m.size)))

    # J-order: D-classes reachable along right and left generator edges,
    # one edge per distinct pair of classes an action joins
    succ = [set() for _ in range(len(set(d_class)))]
    for action in (*m.right, *m.left):
        for a, b in set(zip(d_class, map(d_class.__getitem__, action))):
            succ[a].add(b)
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
    m._green = GreenStructure(r_class, l_class, h_class, d_class, below,
                              d_equals_j)
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
        z for z in range(m.size) if all(a[z] == z for a in m.left)
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
        f[a[x]] == t.mul(f[x], fg)
        for x in range(s.size)
        for a, fg in zip(s.right, images)
    )
