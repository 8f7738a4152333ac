"""Finite groups acting by vertex permutations on a simplicial complex.

Groups are stored by their full element list, and each group or subgroup
carries a small generating set.  Group work runs on generators (Seress,
Permutation Group Algorithms, 2003) and on element indices (Holt, Eick and
O'Brien, Handbook of Computational Group Theory, ch. 4).  The closure is a
breadth-first search over left multiplication by the generators, and it
keeps what it computes as a table (`CayleyTable`): the index of g∘w for
every generator g and element w, and each element's word in the
generators.  Products, inverses and conjugates are read off that table, so
no vertex tuple is composed after the closure: a subset is a subgroup when
the closure of a greedily picked generating set stays inside it,
commutativity and the center are tested by commuting with generators,
conjugacy classes are orbits under conjugation by generators, and an
element's order is the lcm of its cycle lengths.  Only
`best_abelian_normal_subgroup` searches exhaustively, over unions of
conjugacy classes, which are normal by construction, and `all_subgroups`
(a reference for tests) enumerates the whole lattice.  Element order is breadth-first over words in the
generators, so every least-index tie-break is reproducible.

Quotients and fixed sets are taken where the action is admissible: an
element that maps a simplex onto itself fixes it pointwise.  An action that
is not admissible is carried onto its starred complex Y′, X starred at the
simplices it turns and their cofaces (`admissible_subdivision`), and each
subgroup onto its own.  There its orbit chain complex and its fixed set
are built like those of any admissible action.  The simplicial quotient
loop (`make_admissible_and_quotient`) reads X/G and sd(X)/G off the orbits
on X, and for sd²(X)/G carries the group onto sd(X) as it carries it onto
Y′ (`_carried`).  A carried action has the same elements in the same order,
so it shares its source's table.  At every depth one count decides whether
the quotient is simplicial: one simplex of it per orbit, in each degree
(`_require_simplicial`).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass, field, replace

from .complexes import (
    OrientedChainComplex,
    SimplicialComplex,
    Subdivision,
    barycentric_subdivision,
    chain_complex,
    derived_subdivision,
    full_subcomplex,
    subdivided_f_vector,
    subdivided_size,
)
from .errors import (
    ActionInvalid,
    CorruptComplex,
    GroupTooLarge,
    InvalidParameter,
    NeedsSubdivision,
    ResourceCapExceeded,
)
from .homology import BettiTable, SparseIntMatrix, betti, is_prime, p_power_exponent, prime_factors

DEFAULT_ELEMENT_CAP = 20000


def apply_perm(perm, simplex) -> tuple:
    return tuple(sorted(perm[v] for v in simplex))


def _compose(a, b) -> tuple:
    """Permutation a after b: x -> a[b[x]]."""
    return tuple(a[x] for x in b)


def _is_odd(seq) -> bool:
    """Parity of the permutation that sorts `seq`, whose entries are distinct."""
    return sum(a > b for i, a in enumerate(seq) for b in seq[i + 1:]) % 2 == 1


def _inverse(p) -> tuple:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


@dataclass(frozen=True, eq=False)
class SimplexOrbits:
    """The orbits of a group on the simplices of a complex K.

    - `orbit_of` maps each simplex to its orbit id.  Ids are numbered in the
      order of `K.simplices()`, so the ids of the k-simplices form one run
      starting at `offsets[k]`, `offsets[-1]` is the orbit count, and the
      first simplex with an id, `representatives[id]`, is its orbit's least.
    - `carrier` maps each simplex to the index in `elements` of an element
      carrying its orbit's representative onto it.
    - `stabilisers` maps the id of each orbit whose representative is
      preserved by an element that moves one of its vertices to the
      distinct permutations of the representative's vertex positions that
      its stabiliser induces, the identity among them.  It is empty iff the
      action is admissible.
    """

    orbit_of: dict
    representatives: tuple
    offsets: tuple
    carrier: dict
    elements: tuple
    stabilisers: dict = field(default_factory=dict)

    @property
    def count(self) -> int:
        return self.offsets[-1]

    @property
    def admissible(self) -> bool:
        return not self.stabilisers

    def level_counts(self) -> list:
        """The number of orbits of k-simplices, for each k."""
        return [b - a for a, b in zip(self.offsets, self.offsets[1:])]

    def is_reversed(self, simplex) -> bool:
        """True iff a carrier lists the simplex's vertices in an odd order.

        The carrier lists them as its images of the representative's
        vertices.  Then the simplex's orientation is reversed against its
        representative's.  For an admissible action this does not depend on
        the carrier.
        """
        e = self.elements[self.carrier[simplex]]
        return _is_odd([e[v] for v in self.representatives[self.orbit_of[simplex]]])


@dataclass(frozen=True)
class SubgroupHandle:
    """Element indices of a subgroup inside an ambient VertexAction, with a generating set.

    `generators` are ambient indices that generate the subgroup, abelian iff
    they commute; they are a choice, so handles of one subgroup compare
    equal whatever they hold.
    """

    indices: tuple
    order: int
    is_abelian: bool
    via_fallback: bool = False
    generators: tuple = field(default=(), compare=False, repr=False)


class CayleyTable:
    """Left multiplication by a group's generators, on element indices.

    `left[k][w]` is the index of g_k∘w, for the k-th generator g_k of the
    action and each element w.  `words[i]` lists the generator positions
    a_1, …, a_m of element i's breadth-first word, i = g_{a_m}∘…∘g_{a_1}:
    the word of the element a search first reached i from, and the generator
    it took.  The inverses of all elements are taken once, when first asked
    for.  Actions with the same elements in the same order and the same
    generators share one table.
    """

    __slots__ = ("left", "words", "_inverses")

    def __init__(self, left) -> None:
        self.left = tuple(tuple(row) for row in left)
        words: list = [None] * (len(self.left[0]) if self.left else 1)
        words[0] = ()
        reached = [0]
        for w in reached:
            for k, row in enumerate(self.left):
                y = row[w]
                if words[y] is None:
                    words[y] = words[w] + (k,)
                    reached.append(y)
        self.words = tuple(words)
        self._inverses = None

    def inverses(self) -> tuple:
        """The index of each element's inverse: its word undone, last letter first."""
        if self._inverses is None:
            undo = [_inverse(row) for row in self.left]
            out = []
            for word in self.words:
                x = 0
                for k in reversed(word):
                    x = undo[k][x]
                out.append(x)
            self._inverses = tuple(out)
        return self._inverses


class VertexAction:
    """A finite group realized as simplicial vertex permutations.

    elements[0] is the identity, and `generator_indices` generate the
    group.  `table` is its `CayleyTable` on those generators: products and
    inverses are read off it, and the closure that found the elements built
    it.  `block_lengths` is set by `models.block_model` on the actions
    it builds, and kept by their restrictions: the lengths of the polygons
    (L >= 3) and vertex pairs (L = 2) whose join is the complex.  It is
    None for any other complex.  Instances are immutable and have no JSON
    form: a scenario's space is the one way in (`scenarios.build_model`).
    Derived data is cached on the instance and freed with it:

    - element orders, and the inverses on the table
    - the simplex orbits with their carriers and stabilisers, from one
      pass (`simplex_orbit_data`); the vertex orbits are its orbits of
      0-simplices
    - the restricted action of each subgroup, keyed by its sorted element
      indices and generated by the subgroup's generators (`restrict`)
    - the Sylow p-subgroup of each subgroup, keyed by (indices, p) (`sylow`)
    - the fixed subcomplex of each subgroup, keyed by its indices
      (`fixed_subcomplex`)
    - when the action is not admissible, the action on its starred complex
      (`admissible_subdivision`), its elements carried there in this
      action's order
    - for an admissible action, its orbit chain complex
      (`orbit_chain_complex`), whose matrices keep their ranks per field
      (see `homology.SparseIntMatrix`)

    The starred action refers to its own complex and elements, not to this
    action, so no cache refers back to its owner.
    """

    __slots__ = (
        "complex",
        "elements",
        "generator_indices",
        "table",
        "block_lengths",
        "_orders",
        "_simplex_orbits",
        "_restrictions",
        "_sylow",
        "_fixed",
        "_starred",
        "_orbit_complex",
    )

    def __init__(self, complex: SimplicialComplex, elements, generator_indices, table: CayleyTable) -> None:
        self.complex = complex
        self.elements = tuple(tuple(e) for e in elements)
        self.generator_indices = tuple(generator_indices)
        self.table = table
        self.block_lengths = None
        self._orders: dict = {}
        self._simplex_orbits = None
        self._restrictions: dict = {}
        self._sylow: dict = {}
        self._fixed: dict = {}
        self._starred = None
        self._orbit_complex = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def mult(self, i: int, j: int) -> int:
        """The index of element i after element j: i's word, applied to j through the table."""
        left = self.table.left
        for k in self.table.words[i]:
            j = left[k][j]
        return j

    def inv(self, i: int) -> int:
        return self.table.inverses()[i]

    def element_order(self, i: int) -> int:
        """The lcm of the cycle lengths of element i: the elements are distinct permutations."""
        got = self._orders.get(i)
        if got is None:
            e = self.elements[i]
            got, seen = 1, set()
            for v in e:
                if v not in seen:
                    n, x = 0, v
                    while x not in seen:
                        seen.add(x)
                        x = e[x]
                        n += 1
                    got = math.lcm(got, n)
            self._orders[i] = got
        return got

    def _span(self, seed, base=((0,), ()), within=None):
        """(members, generators) of the group generated by a subgroup `base` and `seed`.

        `base` is (members, generators) of a subgroup.  Seed elements are
        taken in order, and one joins the generators only when the group so
        far lacks it; the group then grows by a search over right
        multiplication.  Members so far are closed under the old generators,
        so they are multiplied by the new one only, and each new member by
        every generator.  Returns None as soon as a member falls outside
        `within`.
        """
        members, gens = list(base[0]), list(base[1])
        known = set(members)
        for g in seed:
            if g in known:
                continue
            gens.append(g)
            queue = [self.mult(x, g) for x in members]
            while queue:
                y = queue.pop()
                if y in known:
                    continue
                if within is not None and y not in within:
                    return None
                known.add(y)
                members.append(y)
                queue.extend(self.mult(y, h) for h in gens)
        return tuple(members), tuple(gens)

    def closure_indices(self, seed) -> tuple:
        """Sorted element indices of the subgroup generated by `seed`."""
        return tuple(sorted(self._span(sorted(set(seed)))[0]))

    def _handle(self, indices: tuple, generators) -> SubgroupHandle:
        """The handle of the subgroup with these sorted indices and generators."""
        abelian = all(self.mult(a, b) == self.mult(b, a) for a in generators for b in generators)
        return SubgroupHandle(indices, len(indices), abelian, generators=tuple(generators))

    def subgroup(self, indices) -> SubgroupHandle:
        """The subgroup on these element indices (the identity is added).

        A generating set is picked greedily in index order; the indices form
        a subgroup iff its closure does not leave them, and InvalidParameter
        is raised otherwise.
        """
        idx = tuple(sorted(set(indices) | {0}))
        span = self._span(idx, within=frozenset(idx))
        if span is None:
            raise InvalidParameter("element set not closed under multiplication")
        return self._handle(idx, span[1])

    def trivial_subgroup(self) -> SubgroupHandle:
        return self.subgroup([0])

    def full_subgroup(self) -> SubgroupHandle:
        """The whole group, closed by construction, on the action's generators."""
        return self._handle(tuple(range(self.order)), self.generator_indices)

    def restrict(self, handle: SubgroupHandle) -> "VertexAction":
        """The subgroup acting on the same complex, built once per subgroup.

        Its elements keep their order in this action, and its generators are
        the handle's; its table is read off this one.  The full group
        restricts to this action itself.
        """
        key = handle.indices
        if len(key) == self.order:
            return self
        got = self._restrictions.get(key)
        if got is None:
            position = {i: k for k, i in enumerate(key)}
            got = VertexAction(
                self.complex,
                [self.elements[i] for i in key],
                tuple(position[g] for g in handle.generators),
                CayleyTable([position[self.mult(g, i)] for i in key] for g in handle.generators),
            )
            got.block_lengths = self.block_lengths
            self._restrictions[key] = got
        return got

    def simplex_orbit_data(self) -> SimplexOrbits:
        """The orbits of the group on the simplices of its complex, in one pass.

        Every element maps each orbit's representative, the elements read
        by vertex column.  The first element to reach a simplex becomes its
        carrier.  An element that maps the representative onto itself while
        moving a vertex adds its permutation of the representative's
        vertices to the stabiliser's.
        So admissibility is decided on representatives only: if g preserves
        a simplex setwise but moves a vertex, so does every conjugate of g on
        the rest of the orbit.  Orientation signs are read off the carriers
        where they are needed (`SimplexOrbits.is_reversed`), so no second
        pass is made for them.
        """
        if self._simplex_orbits is None:
            columns = tuple(zip(*self.elements))  # columns[v][i]: element i's image of v
            orbit_of: dict = {}
            carrier: dict = {}
            reps: list = []
            offsets: list = []
            stabilisers: dict = {}
            for level in self.complex.simplices():
                offsets.append(len(reps))
                for s in level:
                    if s in orbit_of:
                        continue
                    oid = len(reps)
                    reps.append(s)
                    identity = tuple(range(len(s)))
                    moved = set()
                    for i, image in enumerate(zip(*[columns[v] for v in s])):
                        img = tuple(sorted(image))
                        if img not in orbit_of:
                            orbit_of[img] = oid
                            carrier[img] = i
                        elif img == s:
                            perm = tuple(map(s.index, image))
                            if perm != identity:
                                moved.add(perm)
                    if moved:
                        stabilisers[oid] = (identity, *sorted(moved))
            offsets.append(len(reps))
            self._simplex_orbits = SimplexOrbits(
                orbit_of, tuple(reps), tuple(offsets), carrier, self.elements, stabilisers
            )
        return self._simplex_orbits

    def __repr__(self):
        return f"VertexAction(order={self.order}, on {self.complex!r})"


def close_generators(complex: SimplicialComplex, generators) -> VertexAction:
    """Generate the full group breadth-first over words in the generators.

    Each generator must be a vertex bijection that maps every facet onto a
    facet.  That is the same as mapping every facet to a simplex: such a
    bijection maps the finite set of simplices injectively, hence onto,
    itself, preserving inclusion, so it maps maximal simplices to maximal
    ones.  The check therefore needs only the facet set, not the face
    lattice, and costs O(F) set lookups per generator for F facets.

    New words extend on the right (apply the old word first, then the
    generator), so the element order is the BFS word order.  Every product
    g∘w the search composes is kept as the action's `CayleyTable`.  A group
    of more than DEFAULT_ELEMENT_CAP elements raises GroupTooLarge.
    """
    n = complex.vertex_count
    facets = set(complex.facets)
    gens = []
    for g in generators:
        t = tuple(g)
        if len(t) != n or sorted(t) != list(range(n)):
            raise ActionInvalid(f"not a vertex bijection: {t}")
        for f in complex.facets:
            image = apply_perm(t, f)
            if image not in facets:
                raise ActionInvalid(f"generator maps facet {f} onto {image}, which is not a facet")
        gens.append(t)
    identity = tuple(range(n))
    elements = [identity]
    seen = {identity: 0}
    left: list = [[] for _ in gens]
    for w in elements:  # in the order found, which is breadth-first
        for row, g in zip(left, gens):
            img = _compose(g, w)
            i = seen.get(img)
            if i is None:
                i = seen[img] = len(elements)
                elements.append(img)
                if len(elements) > DEFAULT_ELEMENT_CAP:
                    raise GroupTooLarge(f"closure exceeds cap {DEFAULT_ELEMENT_CAP}")
            row.append(i)
    return VertexAction(complex, elements, tuple(seen[g] for g in gens), CayleyTable(left))


def is_admissible(action) -> bool:
    """True iff every element preserving a simplex setwise fixes it pointwise.

    Decided by the action's one orbit pass.
    """
    return action.simplex_orbit_data().admissible


def induced_action_on_subdivision(action: VertexAction, sd: Subdivision) -> VertexAction:
    """Transport the action through a barycentric subdivision of its complex.

    Every element is mapped onto every vertex of the subdivision.  The
    engine never does: it maps only the generators onto a subdivision, and
    reaches the other elements by composition (`_carried`), onto sd(X) for
    a depth-2 quotient and onto the starred complex of an action that is
    not admissible.  Tests keep the transport as their oracle.
    """
    if sd.source != action.complex:
        raise InvalidParameter("subdivision was not built from this action's complex")
    index = sd.vertex_of_simplex
    new_elements = []
    for e in action.elements:
        new_elements.append(tuple(index[apply_perm(e, s)] for s in sd.vertex_simplices))
    return VertexAction(sd.complex, new_elements, action.generator_indices, action.table)


def quotient_complex(action: VertexAction):
    """X/G and the vertex projection, when the quotient is simplicial; NeedsSubdivision otherwise.

    Each vertex projects to its orbit id in the one orbit pass, and X/G is
    spanned by the facets' images.  It is simplicial iff its f-vector is
    the orbit count of each degree (`_require_simplicial`): each orbit maps
    onto a simplex of X/G of its dimension or less, and every simplex is
    hit, so from the top degree down equal counts force a bijection that
    keeps dimension.  That is exactly: no simplex has two vertices in one
    orbit, which also rules out a turned simplex, and simplices with one
    orbit-set lie in one orbit.  A vertex in no simplex has no orbit, and
    raises InvalidParameter.  For the trivial group X/1 is X itself, under
    the identity projection, so its face lattice and chains are X's.
    """
    data = action.simplex_orbit_data()
    proj = tuple(data.orbit_of.get((v,), -1) for v in range(action.complex.vertex_count))
    if -1 in proj:
        raise InvalidParameter(f"vertex {proj.index(-1)} lies in no simplex of the complex, so it has no orbit")
    if action.order == 1:
        return action.complex, proj
    facets = {tuple(sorted({proj[v] for v in f})) for f in action.complex.facets}
    quotient = SimplicialComplex(len(set(proj)), facets)
    _require_simplicial(quotient, data.level_counts())
    return quotient, proj


def _require_simplicial(quotient: SimplicialComplex, orbit_counts) -> None:
    """NeedsSubdivision unless the quotient has one j-simplex per orbit of j-simplices, for each j: the rule at every depth."""
    want = tuple(orbit_counts)
    got = quotient.f_vector()
    got += (0,) * (len(want) - len(got))
    if got != want:
        j = next(j for j in range(len(want)) if got[j] != want[j])
        raise NeedsSubdivision(
            f"{j}-simplices with one orbit-set lie in different orbits "
            f"({got[j]} orbit-sets for {want[j]} orbits)"
        )


def _face(simplex, mask: int) -> tuple:
    """The face of `simplex` on the vertex positions set in the bit mask."""
    return tuple(v for b, v in enumerate(simplex) if mask >> b & 1)


@functools.cache
def _chains_below(mask: int) -> tuple:
    """Every chain m_0 < m_1 < ... of nonempty bit masks strictly inside `mask`, the empty chain first."""
    out = [()]
    sub = (mask - 1) & mask
    while sub:
        out.extend(chain + (sub,) for chain in _chains_below(sub))
        sub = (sub - 1) & mask
    return tuple(out)


def flag_orbit_counts(data: SimplexOrbits) -> tuple:
    """The number of orbits of j-simplices of sd(K), for each j, from the orbits on K.

    A j-simplex of sd(K) is a flag σ_0 < … < σ_j of simplices of K.  Its
    orbit is the orbit of its top σ_j together with the class of the flag,
    carried onto the top's representative τ, under the permutations that
    Stab(τ) induces on τ's vertices.  Where Stab(τ) fixes τ pointwise,
    every flag below τ is its own class, so those tops count as in
    `subdivided_f_vector`.  Below any other τ a flag is written as its chain
    of faces, each a bit mask of τ's vertex positions, and its class is
    counted at its least chain.
    """
    plain = data.level_counts()
    turned = [0] * len(plain)
    for oid, perms in data.stabilisers.items():
        size = len(data.representatives[oid])
        plain[size - 1] -= 1
        # each stabiliser permutation as the table of its images of bit masks
        tables = [[sum(1 << p[b] for b in range(size) if m >> b & 1) for m in range(1 << size)] for p in perms]
        for chain in _chains_below((1 << size) - 1):
            if min(tuple(map(t.__getitem__, chain)) for t in tables) == chain:
                turned[len(chain)] += 1
    return tuple(a + b for a, b in zip(subdivided_f_vector(plain), turned))


def subdivided_quotient(action, cap: int | None = None, depth: int = 1) -> SimplicialComplex:
    """sd(X)/G for an action on X, built from the simplex orbits of X alone.

    The vertices of sd(X) are the simplices of X in the order of
    `complex.simplices()`, so its vertex orbits are the simplex orbits of X
    under the same ids.  A facet of sd(X) is a complete flag of faces of a
    facet of X; its image is the set of the flag's orbit ids, and facets in
    one orbit give the same sets, so one facet per orbit is enough.  The
    orbits of j-simplices of sd(X) number `flag_orbit_counts(data)[j]`, and
    the quotient is simplicial iff its f-vector is that count, the rule of
    `quotient_complex` (`_require_simplicial`); otherwise NeedsSubdivision
    is raised, as `quotient_complex` on the action transported to sd(X)
    would.  The flags' vertices lie in distinct orbits, since their
    dimensions differ, so only orbits that share an id set can fail it.
    Past `cap` simplices by that count it raises ResourceCapExceeded unbuilt.
    """
    data = action.simplex_orbit_data()
    counts = flag_orbit_counts(data)
    if cap is not None and sum(counts) > cap:
        raise ResourceCapExceeded(f"the depth-{depth} quotient would have {sum(counts)} simplices (cap {cap})")
    orbit_of = data.orbit_of
    facets = []
    seen = set()
    for f in action.complex.facets:
        if orbit_of[f] in seen:
            continue
        seen.add(orbit_of[f])
        bits = [1 << i for i in range(len(f))]
        # ids[mask]: orbit id of the face of f on the vertices picked by mask
        ids = [-1] + [orbit_of[_face(f, mask)] for mask in range(1, 1 << len(f))]
        flags = [(0, ())]
        for _ in f:
            flags = [
                (mask | bit, flag + (ids[mask | bit],))
                for mask, flag in flags
                for bit in bits
                if not mask & bit
            ]
        facets.extend(flag for _, flag in flags)
    quotient = SimplicialComplex._from_canonical(data.count, facets)
    _require_simplicial(quotient, counts)
    return quotient


@dataclass(frozen=True)
class QuotientResult:
    """The simplicial quotient at depth `subdivisions`, and the exact size of the sphere at that depth, built or not."""

    complex: SimplicialComplex
    subdivisions: int
    simplices_after: int
    facets_after: int


def make_admissible_and_quotient(action: VertexAction, simplex_cap: int | None = None) -> QuotientResult:
    """The quotient sd^k(X)/G at the least depth k where it is simplicial, which is at most 2.

    Depth 0 is `quotient_complex` of the action, and depth 1 is
    `subdivided_quotient` of it, read off the orbits on X.  Depth 2 builds
    sd(X) once, carries the group there (`_carried`) and takes
    `subdivided_quotient` of that action.  The one count of
    `_require_simplicial` decides each depth.  A flag's vertices have
    distinct dimensions, so sd(X) has Bredon's property (A), which makes
    sd²(X)/G simplicial (Bredon, Introduction to Compact Transformation
    Groups, ch. III §1): a depth-2 quotient that is not raises CorruptComplex.

    `simplex_cap` (None: none) bounds what is built, and ResourceCapExceeded
    names what would pass it.  Past depth 0, |sd(X)| is checked first.  It
    bounds the depth-1 quotient, the sd(X) of depth 2, and each Y′ of the
    group or a subgroup: Y′ is built only where X/G is not simplicial, and
    τ∗b(σ_1…σ_r) ↦ (the prefixes of τ) < σ_1 < … < σ_r injects it into sd(X).
    `subdivided_quotient` checks each quotient by its orbit count before it
    is built.  A carried action, onto sd(X) or Y′, holds |G| × |X| vertex images.
    """
    k = action.complex
    try:
        return QuotientResult(quotient_complex(action)[0], 0, *_sphere_size(k, 0))
    except NeedsSubdivision:
        pass
    size = _sphere_size(k, 1)
    if simplex_cap is not None and size[0] > simplex_cap:
        raise ResourceCapExceeded(f"sd(X) would have {size[0]} simplices (cap {simplex_cap})")
    try:
        return QuotientResult(subdivided_quotient(action, simplex_cap), 1, *size)
    except NeedsSubdivision:
        pass
    try:
        sd_action = _carried(action, barycentric_subdivision(k))
        return QuotientResult(subdivided_quotient(sd_action, simplex_cap, 2), 2, *_sphere_size(k, 2))
    except NeedsSubdivision as e:
        raise CorruptComplex(
            "the depth-2 quotient is not simplicial, against Bredon (Introduction to Compact "
            f"Transformation Groups, ch. III §1): {e}"
        ) from None


def _sphere_size(k: SimplicialComplex, depth: int) -> tuple:
    """(simplices, facets) of sd^depth(k), counted from k's f-vector: nothing is built."""
    # a facet of k on v vertices becomes (v!)^depth facets of sd^depth(k)
    return subdivided_size(k.f_vector(), depth), sum(math.factorial(len(f)) ** depth for f in k.facets)


def admissible_subdivision(action: VertexAction) -> VertexAction:
    """The action itself when admissible, else the action on its starred complex Y′.

    B is the set of simplices that an element maps onto themselves without
    fixing them pointwise: the orbits that the action's own orbit pass lists
    with stabilisers.  Y′ stars the closure U of B under taking cofaces
    (`derived_subdivision`; Rourke and Sanderson, Introduction to
    Piecewise-Linear Topology, ch. 2-3).  A simplex of Y′ is an unstarred τ
    joined to the barycentres of a chain σ_1 < … < σ_r in U.  An element
    that preserves it fixes each barycentre, since their dimensions differ,
    and preserves τ, which is not in B, so it fixes τ pointwise: the action
    on Y′ is admissible (Bredon, Introduction to Compact Transformation
    Groups, ch. III).  The cofaces are needed: `derived_subdivision` keeps
    an unstarred simplex whole, so B alone would leave a simplex of B inside
    a facet and also cone it off.  U holds no vertex, so X keeps its vertex
    numbers in Y′.

    Y′ is natural in X: an element maps U onto U, so sending the vertex that
    stands for a simplex to the vertex that stands for its image is a
    simplicial automorphism of Y′.  The elements are carried there in this
    action's order (`_carried`), so a subgroup handle of this action indexes
    them too.  Built once per action; the result refers to Y′ and its own
    elements, not to this action.
    """
    if action.simplex_orbit_data().admissible:
        return action
    if action._starred is None:
        action._starred = _carried(action, derived_subdivision(action.complex, _starred_set(action)))
    return action._starred


def _starred_set(action: VertexAction) -> set:
    """U: the simplices the action maps onto themselves without fixing them pointwise, and their cofaces."""
    data = action.simplex_orbit_data()
    moved = {s for s, oid in data.orbit_of.items() if oid in data.stabilisers}
    return _with_cofaces(action.complex, moved)


def _carried(action: VertexAction, sd: Subdivision) -> VertexAction:
    """The action's elements carried onto a subdivision natural in its complex, in the action's order.

    Each generator sends the vertex that stands for a simplex to the vertex
    that stands for its image.  A search over the action's table reaches
    each other element from an earlier one by a generator, so it costs one
    composition on the subdivision.  The carried action has the same
    elements in the same order and the same generators, so it shares the
    table.
    """
    index = sd.vertex_of_simplex
    gens = [
        tuple(index[apply_perm(action.elements[g], s)] for s in sd.vertex_simplices)
        for g in action.generator_indices
    ]
    carried = [None] * action.order
    carried[0] = tuple(range(len(sd.vertex_simplices)))
    reached = [0]
    for w in reached:
        for row, y in zip(action.table.left, gens):
            i = row[w]
            if carried[i] is None:
                carried[i] = _compose(y, carried[w])
                reached.append(i)
    return VertexAction(sd.complex, carried, action.generator_indices, action.table)


def _with_cofaces(k: SimplicialComplex, simplices: set) -> set:
    """The simplices of k that contain one of `simplices`, none of which is a vertex.

    A simplex is in it iff it is one of them or a face one dimension down is
    in it, so each level is decided from the one below.  An edge's faces are
    vertices, so the scan starts at the triangles.
    """
    out = set(simplices)
    for level in k.simplices()[2:]:
        for s in level:
            if s not in out and any(s[:i] + s[i + 1:] in out for i in range(len(s))):
                out.add(s)
    return out


def subgroup_action(action: VertexAction, handle: SubgroupHandle) -> VertexAction:
    """The subgroup's action at its admissible subdivision.

    That is `admissible_subdivision` of the restricted action: the
    restriction itself when admissible, else the subgroup on its own
    starred complex, which stars only the simplices the subgroup turns and
    their cofaces.  When those are the ones the whole group turns, the
    subgroup restricts the whole group's starred action, so that Y′ is
    built once.  No subgroup touches sd(X).
    """
    sub = action.restrict(handle)
    if (
        sub is not action
        and sub._starred is None
        and not sub.simplex_orbit_data().admissible
        and _starred_set(sub) == _starred_set(action)
    ):
        sub._starred = admissible_subdivision(action).restrict(handle)
    return admissible_subdivision(sub)


def orbit_chain_complex(action: VertexAction) -> OrientedChainComplex:
    """Cellular chains of X/G for an admissible action: the coinvariants C_*(X)_G.

    For an admissible action X/G is a CW complex with one cell per simplex
    orbit, and its cellular chains are the coinvariants (Bredon,
    Introduction to Compact Transformation Groups; Brown, Cohomology of
    Groups).  The basis in each degree is the least simplex of each orbit,
    in lexicographic order.  Face i of a representative enters its boundary
    with (-1)^i times the sign of the vertex permutation carrying the face
    onto its own orbit's representative.  A subcomplex fixed pointwise by
    the group keeps its simplices as labels, since each is a singleton
    orbit.  An action that is not admissible raises NeedsSubdivision; its
    `admissible_subdivision` is the action to take.  Built, and so checked
    for dd = 0, once per action.  The trivial group's orbits are the
    simplices in the same order, with the same signs, so its orbit complex
    is `chain_complex` of X, with the ranks X's matrices keep.
    """
    if action.order == 1:
        return chain_complex(action.complex)
    if action._orbit_complex is None:
        action._orbit_complex = _simplex_orbit_complex(action)
    return action._orbit_complex


def _simplex_orbit_complex(action: VertexAction) -> OrientedChainComplex:
    data = action.simplex_orbit_data()
    if not data.admissible:
        raise NeedsSubdivision("action is not admissible")
    reps, offsets = data.representatives, data.offsets
    labels = tuple(reps[offsets[k]:offsets[k + 1]] for k in range(len(offsets) - 1))
    ranks = tuple(len(level) for level in labels)
    boundaries = [SparseIntMatrix(0, ranks[0])] if ranks else []
    for k in range(1, len(labels)):
        cols = {}
        for j, s in enumerate(labels[k]):
            col: dict = {}
            for i in range(len(s)):
                face = s[:i] + s[i + 1:]
                row = data.orbit_of[face] - offsets[k - 1]
                sign = -1 if data.is_reversed(face) else 1
                col[row] = col.get(row, 0) + (-sign if i % 2 else sign)
            cols[j] = col
        boundaries.append(SparseIntMatrix.from_columns(ranks[k - 1], ranks[k], cols))
    return OrientedChainComplex(ranks, tuple(boundaries), labels)


def sphere_row(n: int) -> tuple:
    """The Betti numbers of S^{n-1}, over any field."""
    return (2,) if n == 1 else (1,) + (0,) * (n - 2) + (1,)


def model_betti(action: VertexAction, fields) -> BettiTable:
    """H_*(X) of the acted-on complex over each field, with no torsion.

    A block model (`block_lengths` set) is a sphere by construction: the
    join of S^a and S^b is S^{a+b+1} (Rourke and Sanderson, Introduction to
    Piecewise-Linear Topology, ch. 2), so its row is `sphere_row` of
    dimension + 1 over every field.  Any other complex is computed,
    `betti(chain_complex(complex), fields)`.
    """
    if action.block_lengths is None:
        return betti(chain_complex(action.complex), fields)
    row = sphere_row(action.complex.dimension + 1)
    return BettiTable(tuple((f, row) for f in fields), None)


def fixed_subcomplex(action: VertexAction, handle: SubgroupHandle) -> SimplicialComplex:
    """The fixed set of the subgroup at its admissible subdivision (see `subgroup_action`).

    The subgroup acts admissibly there, so an element fixes a point of a
    simplex only if it fixes the simplex pointwise: the fixed set is the
    full subcomplex on the vertices that the subgroup fixes.  On its starred
    complex those are the vertices of X it fixes and the barycentres of the
    starred simplices it maps onto themselves.  Built once per (action,
    subgroup).
    """
    got = action._fixed.get(handle.indices)
    if got is None:
        on = subgroup_action(action, handle)
        got = full_subcomplex(on.complex, _fixed_vertices(on))
        action._fixed[handle.indices] = got
    return got


def _fixed_vertices(action: VertexAction) -> list:
    """The vertices that the action's generators fix, and with them the whole group."""
    gens = [action.elements[i] for i in action.generator_indices]
    return [v for v in range(action.complex.vertex_count) if all(e[v] == v for e in gens)]


def conjugacy_classes(action: VertexAction):
    """Conjugacy classes of the group, sorted by least member.

    Each class is an orbit under conjugation by the group's generators, on
    element indices: g∘x is a read of the table, and (g∘x)∘g⁻¹ is
    (g∘(g∘x)⁻¹)⁻¹, two more reads after the inverses.  A subgroup's classes
    are those of its restriction (`VertexAction.restrict`).
    """
    inv = action.table.inverses()
    conjugations = [[inv[row[inv[y]]] for y in row] for row in action.table.left]
    remaining = set(range(action.order))
    classes = []
    for i in range(action.order):
        if i not in remaining:
            continue
        cls = {i}
        queue = [i]
        while queue:
            x = queue.pop()
            for conjugate in conjugations:
                y = conjugate[x]
                if y not in cls:
                    cls.add(y)
                    queue.append(y)
        classes.append(tuple(sorted(cls)))
        remaining -= cls
    return classes


def lefschetz_numbers(action: VertexAction) -> tuple:
    """The Lefschetz number L(g) of every element, indexed like `action.elements`.

    L(g) is the alternating trace of g on H_*(X; Q).  On a block model
    (`block_lengths` set), X is S^{n-1} by construction and g acts on
    H_{n-1}(X; Q) by det g, so L(g) = 1 + (-1)^{n-1} det g; for n = 1 that
    counts the points of S^0 that g fixes.  det is a homomorphism, so it is
    read off the generators and the blocks (`block_determinant`) and
    multiplied along each element's word in the table.  On any other
    complex L(g) comes from the simplex scan, `_lefschetz_scan`, which is
    also the tests' oracle for the determinant.  Only the complex, its
    blocks and the group are read, no orbit data.
    """
    lengths = action.block_lengths
    if lengths is None:
        return _lefschetz_scan(action)
    sign = (-1) ** action.complex.dimension
    dets = [block_determinant(action.elements[g], lengths) for g in action.generator_indices]
    return tuple(1 + sign * math.prod(map(dets.__getitem__, word)) for word in action.table.words)


def block_determinant(element, lengths) -> int:
    """det g for an element g of a `models.block_model` group on these block lengths.

    g maps each block onto a block of the same length by x -> x + step.  On
    the polygons that is a rotation, and permuting 2-planes has determinant
    +1, so they give +1.  On the vertex pairs g is a signed permutation:
    the sign of the permutation it induces on the pairs, times -1 for each
    pair it maps with a swap (step 1).
    """
    starts = tuple(itertools.accumulate(lengths, initial=0))
    targets, swaps = [], 0
    for length, start in zip(lengths, starts):
        if length == 2:
            image = element[start]
            target = bisect.bisect_right(starts, image) - 1
            targets.append(target)
            swaps += image - starts[target]
    return -1 if (swaps + _is_odd(targets)) % 2 else 1


def _lefschetz_scan(action: VertexAction) -> tuple:
    """L(g) for every element, from the simplices of any complex.

    L(g) is the sum, over the simplices σ that g maps onto themselves, of
    (-1)^dim σ times the sign of the permutation g induces on σ's vertices:
    the alternating trace of g on the oriented chains of X, and so, by the
    Hopf trace formula, on H_*(X; Q).  L is a class function, so it is
    taken once per conjugacy class.
    """
    simplices = [s for level in action.complex.simplices() for s in level]
    out = [0] * action.order
    for cls in conjugacy_classes(action):
        e = action.elements[cls[0]]
        trace = 0
        for s in simplices:
            image = tuple(e[v] for v in s)
            if tuple(sorted(image)) == s:
                trace += -1 if (len(s) % 2 == 0) != _is_odd(image) else 1
        for i in cls:
            out[i] = trace
    return tuple(out)


def sylow(action: VertexAction, handle: SubgroupHandle, p: int) -> SubgroupHandle:
    """A Sylow p-subgroup of the subgroup, grown deterministically, once per (subgroup, p).

    Starting from the trivial group P, repeatedly adjoin the least-index
    element of the subgroup outside P that has p-power order and normalizes
    P (conjugates P's generators into P); each step multiplies the order by
    a power of p.
    """
    if not is_prime(p):
        raise InvalidParameter(f"{p} is not prime")
    key = (handle.indices, p)
    got = action._sylow.get(key)
    if got is None:
        got = _grow_sylow(action, handle, p)
        action._sylow[key] = got
    return got


def _grow_sylow(action: VertexAction, handle: SubgroupHandle, p: int) -> SubgroupHandle:
    target = p ** prime_factors(handle.order).get(p, 0)
    members, gens = (0,), ()
    while len(members) < target:
        inside = set(members)
        for g in handle.indices:
            if g in inside or p_power_exponent(action.element_order(g), p) is None:
                continue
            g_inv = action.inv(g)
            if any(action.mult(action.mult(g, h), g_inv) not in inside for h in gens):
                continue
            grown = action._span([g], base=(members, gens))
            if p_power_exponent(len(grown[0]), p) is not None:
                members, gens = grown
                break
        else:  # cannot happen for a genuine group; defensive
            raise InvalidParameter("Sylow growth stalled")
    return action._handle(tuple(sorted(members)), gens)


def center(action: VertexAction, handle: SubgroupHandle) -> SubgroupHandle:
    """The elements of the subgroup that commute with its generators."""
    idx = [
        i
        for i in handle.indices
        if all(action.mult(i, g) == action.mult(g, i) for g in handle.generators)
    ]
    return action.subgroup(idx)


_CLASS_ENUM_CAP = 14


def best_abelian_normal_subgroup(action: VertexAction) -> SubgroupHandle:
    """A normal abelian subgroup of maximal order, the least indices among those.

    Every normal abelian subgroup is the closure of a union of pairwise
    elementwise-commuting conjugacy classes, so enumerating those unions
    is a complete search.  Groups with too many classes fall back to the
    center, flagged via_fallback.
    """
    full = action.full_subgroup()
    if full.is_abelian:
        return full
    classes = [c for c in conjugacy_classes(action) if c != (0,)]
    if len(classes) > _CLASS_ENUM_CAP:
        return replace(center(action, full), via_fallback=True)
    m = len(classes)
    # classes commute elementwise iff one member of the first commutes with
    # the second: the first's other members are its conjugates.  Pairwise
    # commuting classes generate an abelian subgroup.
    commute = [
        [all(action.mult(ci[0], b) == action.mult(b, ci[0]) for b in cj) for cj in classes]
        for ci in classes
    ]
    best = action.subgroup([0])
    for mask in range(1, 1 << m):
        chosen = [i for i in range(m) if mask >> i & 1]
        if any(not commute[i][j] for i in chosen for j in chosen):
            continue
        idx = action.closure_indices([x for i in chosen for x in classes[i]])
        if (-len(idx), idx) < (-best.order, best.indices):
            best = action.subgroup(idx)
    return best


def all_subgroups(action: VertexAction):
    """Every subgroup of the group, by closure BFS.

    Exponential in general; intended for the tiny groups in the corpus.
    """
    trivial = action.subgroup([0]).indices
    seen = {trivial}
    frontier = [trivial]
    while frontier:
        next_frontier = []
        for idx in frontier:
            iset = set(idx)
            for g in range(action.order):
                if g in iset:
                    continue
                new_idx = action.closure_indices(iset | {g})
                if new_idx not in seen:
                    seen.add(new_idx)
                    next_frontier.append(new_idx)
        frontier = next_frontier
    return [action.subgroup(idx) for idx in sorted(seen, key=lambda t: (len(t), t))]
