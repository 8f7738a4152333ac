"""Finite groups acting by vertex permutations on a simplicial complex.

Groups are stored by their full element list, and each group or subgroup
carries a small generating set.  Group work runs on generators (Seress,
Permutation Group Algorithms, 2003): closures are breadth-first searches
over right multiplication by the generators, a subset is a subgroup when the
closure of a greedily picked generating set stays inside it, normality is
tested by conjugating those generators by the group's, commutativity and
the center by commuting with generators, and conjugacy classes are orbits
under conjugation by generators.  Only `best_abelian_normal_subgroup`
searches exhaustively, over unions of conjugacy classes, and `all_subgroups`
(a reference for tests) enumerates the whole lattice.  Element order is
breadth-first over words in the generators, so every least-index tie-break
is reproducible.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace

from .complexes import (
    OrientedChainComplex,
    SimplicialComplex,
    Subdivision,
    full_subcomplex,
    shared_subdivision,
    subdivided_f_vector,
)
from .errors import (
    ActionInvalid,
    GroupTooLarge,
    InvalidParameter,
    NeedsSubdivision,
    ResourceCapExceeded,
)
from .homology import FieldSpec, SparseIntMatrix, betti, is_prime, prime_factors

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
      carrying its orbit's representative onto it.  None means that
      carriers map vertices by position, as on every subdivision that
      `FlagAction` describes.
    - `stabilisers` maps the id of each orbit whose representative is
      preserved by an element that moves one of its vertices to the
      distinct permutations of the representative's vertex positions that
      its stabiliser induces, the identity among them.  It is empty iff the
      action is admissible.
    """

    orbit_of: dict
    representatives: tuple
    offsets: tuple
    carrier: dict | None = None
    elements: tuple = ()
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

    def frame(self, simplex) -> tuple:
        """The vertices of `simplex`, listed as a carrier's images of its representative's vertices."""
        if self.carrier is None:
            return simplex
        e = self.elements[self.carrier[simplex]]
        return tuple(e[v] for v in self.representatives[self.orbit_of[simplex]])

    def is_reversed(self, simplex) -> bool:
        """True iff a carrier lists the simplex's vertices in an odd order.

        Then the simplex's orientation is reversed against its
        representative's.  For an admissible action this does not depend on
        the carrier.
        """
        return self.carrier is not None and _is_odd(self.frame(simplex))


@dataclass(frozen=True)
class SubgroupHandle:
    """Element indices of a subgroup inside an ambient VertexAction, with a generating set.

    `generators` are ambient indices that generate the subgroup; they are a
    choice, so handles of one subgroup compare equal whatever they hold.
    """

    indices: tuple
    order: int
    is_normal: bool
    is_abelian: bool
    via_fallback: bool = False
    generators: tuple = field(default=(), compare=False, repr=False)


class VertexAction:
    """A finite group realized as simplicial vertex permutations.

    elements[0] is the identity, and `generator_indices` generate the
    group.  Instances are immutable; derived data is cached on the instance
    and freed with it:

    - multiplication, inverses and element orders
    - vertex orbits, and the simplex orbits with their carriers and
      stabilisers, from one pass (`simplex_orbit_data`)
    - the restricted action of each subgroup, keyed by its sorted element
      indices and generated by the subgroup's generators (`restrict`)
    - the Sylow p-subgroup of each subgroup, keyed by (indices, p) (`sylow`)
    - the fixed subcomplex of each subgroup, keyed by its indices
      (`fixed_subcomplex`)
    - the action on the first barycentric subdivision (`flag_action`), read
      off the simplex orbits, so no element is mapped onto the subdivision.
      It refers to the complex and the orbits, not to this action, so no
      cache refers back to its owner.  It serves the quotient loop past
      depth 0 and, when the action is not admissible, is its admissible
      subdivision (`admissible_subdivision`)
    - for an admissible action, its orbit chain complex
      (`orbit_chain_complex`) and that complex's Betti numbers per field
      (`orbit_betti`)
    """

    __slots__ = (
        "complex",
        "elements",
        "generator_indices",
        "_index",
        "_mult",
        "_inv",
        "_orders",
        "_vertex_orbits",
        "_simplex_orbits",
        "_restrictions",
        "_sylow",
        "_fixed",
        "_flag_action",
        "_orbit_complex",
        "_orbit_betti",
    )

    def __init__(self, complex: SimplicialComplex, elements, generator_indices) -> None:
        self.complex = complex
        self.elements = tuple(tuple(e) for e in elements)
        self.generator_indices = tuple(generator_indices)
        self._index = {e: i for i, e in enumerate(self.elements)}
        self._mult: dict = {}
        self._inv: dict = {}
        self._orders: dict = {}
        self._vertex_orbits = None
        self._simplex_orbits = None
        self._restrictions: dict = {}
        self._sylow: dict = {}
        self._fixed: dict = {}
        self._flag_action = None
        self._orbit_complex = None
        self._orbit_betti: dict = {}

    @property
    def order(self) -> int:
        return len(self.elements)

    def mult(self, i: int, j: int) -> int:
        key = (i, j)
        got = self._mult.get(key)
        if got is None:
            got = self._index[_compose(self.elements[i], self.elements[j])]
            self._mult[key] = got
        return got

    def inv(self, i: int) -> int:
        got = self._inv.get(i)
        if got is None:
            got = self._index[_inverse(self.elements[i])]
            self._inv[i] = got
        return got

    def element_order(self, i: int) -> int:
        got = self._orders.get(i)
        if got is None:
            n, j = 1, i
            while j != 0:
                j = self.mult(j, i)
                n += 1
            got = n
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
        """The handle of the subgroup with these sorted indices and generators.

        H is normal iff each generator of G conjugates each generator of H
        into H, and abelian iff its generators commute.
        """
        members = set(indices)
        normal = all(
            self.mult(self.mult(g, h), self.inv(g)) in members
            for g in self.generator_indices
            for h in generators
        )
        abelian = all(self.mult(a, b) == self.mult(b, a) for a in generators for b in generators)
        return SubgroupHandle(indices, len(indices), normal, abelian, generators=tuple(generators))

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
        """The whole group: closed and normal by construction, abelian iff its generators commute."""
        gens = self.generator_indices
        abelian = all(self.mult(a, b) == self.mult(b, a) for a in gens for b in gens)
        return SubgroupHandle(tuple(range(self.order)), self.order, True, abelian, generators=gens)

    def restrict(self, handle: SubgroupHandle) -> "VertexAction":
        """The subgroup acting on the same complex, built once per subgroup.

        Its elements keep their order in this action, and its generators are
        the handle's.  The full group restricts to this action itself.
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
            )
            self._restrictions[key] = got
        return got

    def vertex_orbits(self):
        """(projection, orbits): orbit indices ordered by minimal vertex."""
        if self._vertex_orbits is None:
            n = self.complex.vertex_count
            proj = [-1] * n
            orbits = []
            for v in range(n):
                if proj[v] >= 0:
                    continue
                members = sorted({e[v] for e in self.elements})
                oid = len(orbits)
                for w in members:
                    proj[w] = oid
                orbits.append(tuple(members))
            self._vertex_orbits = (tuple(proj), tuple(orbits))
        return self._vertex_orbits

    def simplex_orbit_data(self) -> SimplexOrbits:
        """The orbits of the group on the simplices of its complex, in one pass.

        Every element maps each orbit's representative.  The first element
        to reach a simplex becomes its carrier.  An element that maps the
        representative onto itself while moving a vertex adds its
        permutation of the representative's vertices to the stabiliser's.
        So admissibility is decided on representatives only: if g preserves
        a simplex setwise but moves a vertex, so does every conjugate of g on
        the rest of the orbit.  Orientation signs are read off the carriers
        where they are needed (`SimplexOrbits.is_reversed`), so no second
        pass is made for them.
        """
        if self._simplex_orbits is None:
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
                    moved = set()
                    for i, e in enumerate(self.elements):
                        img = tuple(sorted([e[v] for v in s]))
                        if img not in orbit_of:
                            orbit_of[img] = oid
                            carrier[img] = i
                        elif img == s:
                            perm = tuple(s.index(e[v]) for v in s)
                            if perm != tuple(range(len(s))):
                                moved.add(perm)
                    if moved:
                        stabilisers[oid] = (tuple(range(len(s))), *sorted(moved))
            offsets.append(len(reps))
            self._simplex_orbits = SimplexOrbits(
                orbit_of, tuple(reps), tuple(offsets), carrier, self.elements, stabilisers
            )
        return self._simplex_orbits

    def to_json_dict(self) -> dict:
        return {
            "complex": self.complex.to_json_dict(),
            "generators": [list(self.elements[i]) for i in self.generator_indices],
        }

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
    generator), so the element order is the BFS word order.  A group of
    more than DEFAULT_ELEMENT_CAP elements raises GroupTooLarge.
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
    frontier = [identity]
    gen_indices = []
    while frontier:
        next_frontier = []
        for w in frontier:
            for g in gens:
                img = _compose(g, w)
                if img not in seen:
                    seen[img] = len(elements)
                    elements.append(img)
                    next_frontier.append(img)
                    if len(elements) > DEFAULT_ELEMENT_CAP:
                        raise GroupTooLarge(f"closure exceeds cap {DEFAULT_ELEMENT_CAP}")
        frontier = next_frontier
    for g in gens:
        gen_indices.append(seen[g])
    return VertexAction(complex, elements, tuple(gen_indices))


def is_admissible(action) -> bool:
    """True iff every element preserving a simplex setwise fixes it pointwise.

    Decided by the action's one orbit pass; an action on a barycentric
    subdivision (`FlagAction`) is admissible by construction.
    """
    return isinstance(action, FlagAction) or action.simplex_orbit_data().admissible


def induced_action_on_subdivision(action: VertexAction, sd: Subdivision) -> VertexAction:
    """Transport the action through a barycentric subdivision of its complex.

    Every element is mapped onto every vertex of the subdivision.  The
    engine reads the orbits of the subdivision off those of the complex
    instead (`FlagAction`); tests keep the transport as their oracle.
    """
    if sd.source != action.complex:
        raise InvalidParameter("subdivision was not built from this action's complex")
    index = sd.vertex_of_simplex
    new_elements = []
    for e in action.elements:
        new_elements.append(tuple(index[apply_perm(e, s)] for s in sd.vertex_simplices))
    return VertexAction(sd.complex, new_elements, action.generator_indices)


def quotient_complex(action: VertexAction):
    """Orbit complex and vertex projection, when the quotient is simplicial.

    Requires admissibility plus the two regularity conditions: simplex
    vertices lie in pairwise-distinct orbits, and simplices with the same
    orbit-set of vertices lie in the same orbit.  Either failure raises
    NeedsSubdivision.
    """
    data = action.simplex_orbit_data()
    if not data.admissible:
        raise NeedsSubdivision("action is not admissible")
    orbit_of = data.orbit_of
    proj, orbits = action.vertex_orbits()
    first_orbit_with_key: dict = {}
    for level in action.complex.simplices():
        for s in level:
            key = tuple(sorted(proj[v] for v in s))
            if len(set(key)) != len(s):
                raise NeedsSubdivision(f"simplex {s} has two vertices in one orbit")
            oid = orbit_of[s]
            prev = first_orbit_with_key.setdefault(key, oid)
            if prev != oid:
                raise NeedsSubdivision(
                    f"simplices with orbit-set {key} lie in different orbits"
                )
    facets = {tuple(sorted(proj[v] for v in f)) for f in action.complex.facets}
    quotient = SimplicialComplex(len(orbits), facets)
    return quotient, proj


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


class FlagAction:
    """A group acting on the first barycentric subdivision sd(K) of a complex K, known from its orbits on K.

    The vertices of sd(K) are the simplices of K, numbered in the order of
    `K.simplices()` as in `barycentric_subdivision`, and its simplices are
    the flags σ_0 < … < σ_j of simplices of K; ascending vertex numbers are
    ascending dimensions.  A flag's orbit is the orbit of its top simplex
    σ_j together with the class, under the permutations that Stab(τ)
    induces on τ's vertices, of the flag carried onto the top's
    representative τ.  A flag is written there as its chain of faces below
    τ, each a bit mask of τ's vertex positions, and its orbit as (orbit id
    of τ, least chain of its class).  An element that preserves a flag fixes
    each of its simplices, so the action is admissible (Bredon, Introduction
    to Compact Transformation Groups, Ch. III), its orbit complex needs no
    orientation signs, and on sd(K) every carrier maps vertices by position,
    so the next subdivision needs no stabilisers.

    `below` holds the orbits on K, and nothing here refers to the action on
    K.  No element is mapped onto sd(K), and sd(K) itself is built only for
    `complex` and for the orbit of every flag (`simplex_orbit_data`), which
    the quotient one depth further down needs.  Derived data is cached on
    the instance: the flag orbits through each representative (`cells`),
    the orbit chain complex and its Betti numbers per field, and the action
    on the next subdivision.
    """

    __slots__ = (
        "source",
        "below",
        "order",
        "_tables",
        "_cells",
        "_simplex_orbits",
        "_flag_action",
        "_orbit_complex",
        "_orbit_betti",
    )

    def __init__(self, source: SimplicialComplex, below: SimplexOrbits, order: int) -> None:
        self.source = source
        self.below = below
        self.order = order
        # each stabiliser permutation as the table of its images of bit masks
        self._tables = {
            oid: [
                [sum(1 << p[b] for b in range(len(p)) if m >> b & 1) for m in range(1 << len(p))]
                for p in perms
            ]
            for oid, perms in below.stabilisers.items()
        }
        self._cells = None
        self._simplex_orbits = None
        self._flag_action = None
        self._orbit_complex = None
        self._orbit_betti: dict = {}

    @property
    def complex(self) -> SimplicialComplex:
        return shared_subdivision(self.source).complex

    def _canonical(self, oid: int, chain: tuple) -> tuple:
        """The least chain in the class of `chain` under the stabiliser of representative `oid`."""
        tables = self._tables.get(oid)
        if tables is None:
            return chain
        return min(tuple(map(t.__getitem__, chain)) for t in tables)

    def cells(self) -> tuple:
        """The flag orbits of each degree, as (orbit id of the top, least chain), in representative order."""
        if self._cells is None:
            levels: list = [[] for _ in range(self.source.dimension + 1)]
            for oid, rep in enumerate(self.below.representatives):
                for chain in _chains_below((1 << len(rep)) - 1):
                    if self._canonical(oid, chain) == chain:
                        levels[len(chain)].append((oid, chain))
            self._cells = tuple(tuple(level) for level in levels)
        return self._cells

    def cell_counts(self) -> tuple:
        """The number of orbits of j-simplices of sd(K), for each j.

        When the action on K is admissible, Stab(τ) fixes every flag below
        τ, so the counts follow from the orbit counts of K alone.
        """
        if self.below.admissible:
            return subdivided_f_vector(self.below.level_counts())
        return tuple(len(level) for level in self.cells())

    def simplex_orbit_data(self) -> SimplexOrbits:
        """The orbit of every flag, numbered in the order of `complex.simplices()`.

        Carriers map vertices by position, so none is stored.
        """
        if self._simplex_orbits is None:
            sd = shared_subdivision(self.source)
            simplex_of = sd.vertex_simplices
            ids: dict = {}
            orbit_of: dict = {}
            reps: list = []
            offsets: list = []
            tops: dict = {}  # vertex of sd(K) -> its simplex `_at_representative`
            for level in sd.complex.simplices():
                offsets.append(len(reps))
                for flag in level:
                    top = tops.get(flag[-1])
                    if top is None:
                        top = tops[flag[-1]] = self._at_representative(simplex_of[flag[-1]], sd.vertex_of_simplex)
                    oid, mask_of = top
                    key = (oid, self._canonical(oid, tuple(map(mask_of.__getitem__, flag[:-1]))))
                    got = ids.get(key)
                    if got is None:
                        got = ids[key] = len(reps)
                        reps.append(flag)
                    orbit_of[flag] = got
            offsets.append(len(reps))
            self._simplex_orbits = SimplexOrbits(orbit_of, tuple(reps), tuple(offsets))
        return self._simplex_orbits

    def _at_representative(self, simplex, vertex) -> tuple:
        """(orbit id of a simplex of K, vertex of sd(K) at each of its faces -> that face's bit mask at the representative).

        `vertex` numbers the simplices of K as the vertices of sd(K).
        """
        bit = {w: 1 << b for b, w in enumerate(self.below.frame(simplex))}
        faces = (_face(simplex, m) for m in range(1, 1 << len(simplex)))
        return self.below.orbit_of[simplex], {vertex[f]: sum(map(bit.__getitem__, f)) for f in faces}


def flag_action(action) -> FlagAction:
    """The action on the first barycentric subdivision of its complex, from its simplex orbits; built once per action."""
    if action._flag_action is None:
        action._flag_action = FlagAction(action.complex, action.simplex_orbit_data(), action.order)
    return action._flag_action


def subdivided_quotient(action) -> SimplicialComplex:
    """sd(X)/G for an action on X, built from the simplex orbits of X alone.

    The vertices of sd(X) are the simplices of X in the order of
    `complex.simplices()`, so its vertex orbits are the simplex orbits of X
    under the same ids.  A facet of sd(X) is a complete flag of faces of a
    facet of X; its image is the set of the flag's orbit ids, and facets in
    one orbit give the same sets, so one facet per orbit is enough.  The
    orbits of j-simplices of sd(X) number `flag_action(action).cell_counts()[j]`.
    The quotient is simplicial iff no two of those orbits share an id set,
    that is iff its f-vector reaches that count; otherwise NeedsSubdivision
    is raised, as `quotient_complex` on the action transported to sd(X)
    would.  The flags' vertices lie in distinct orbits, since their
    dimensions differ, and the action on sd(X) is admissible.
    """
    data = action.simplex_orbit_data()
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
    want, got = flag_action(action).cell_counts(), quotient.f_vector()
    if got != want:
        j = next(j for j in range(len(want)) if got[j] != want[j])
        raise NeedsSubdivision(
            f"{j}-simplices with one orbit-set lie in different orbits "
            f"({got[j]} orbit-sets for {want[j]} orbits)"
        )
    return quotient


@dataclass(frozen=True)
class QuotientResult:
    """The simplicial quotient of the sphere at depth `subdivisions`, and that sphere's size.

    `simplices_after` and `facets_after` count the depth-`subdivisions`
    sphere exactly, whether or not it was built.
    """

    complex: SimplicialComplex
    subdivisions: int
    simplices_after: int
    facets_after: int


_MAX_AUTO_SUBDIVISIONS = 3


def make_admissible_and_quotient(
    action: VertexAction,
    subdivisions: str | int = "auto",
    simplex_cap: int | None = None,
) -> QuotientResult:
    """The quotient sd^k(X)/G at the first depth k where it is simplicial.

    With `subdivisions` "auto" the quotient is tried at each depth up to
    three subdivisions; with an integer it is tried at that depth only.
    NeedsSubdivision is raised when it is not simplicial at the last depth
    tried.  At depth 0 `quotient_complex` runs on the action.  At every
    other depth k, `subdivided_quotient` builds the quotient from the
    orbits at depth k-1: those of the action itself at depth 1, and those
    of its flag actions (`flag_action`) below that.  So the depth-k sphere
    is never built, and no element is mapped onto a subdivision.  Before
    each depth its size is forecast from the f-vector one depth down
    (`subdivided_f_vector`), and ResourceCapExceeded is raised when it
    would pass `simplex_cap`, whether or not that sphere is to be built;
    None means no cap.
    """
    below = action  # the action at depth count - 1, once count >= 1
    f_vector = action.complex.f_vector()
    facet_sizes = [len(f) for f in action.complex.facets]
    simplices, facets = sum(f_vector), len(facet_sizes)
    count = 0
    while True:
        if subdivisions == "auto" or subdivisions == count:
            try:
                quotient = subdivided_quotient(below) if count else quotient_complex(action)[0]
                return QuotientResult(quotient, count, simplices, facets)
            except NeedsSubdivision:
                if subdivisions != "auto" or count >= _MAX_AUTO_SUBDIVISIONS:
                    raise
        if count:
            below = flag_action(below)
        f_vector = subdivided_f_vector(f_vector)
        simplices = sum(f_vector)
        if simplex_cap is not None and simplices > simplex_cap:
            raise ResourceCapExceeded(
                f"subdivision would reach {simplices} simplices (cap {simplex_cap})"
            )
        count += 1
        # a facet of X on v vertices becomes v! facets of sd(X), each on v vertices
        facets = sum(math.factorial(size) ** count for size in facet_sizes)


def admissible_subdivision(action):
    """The action itself when admissible, else its action on the first barycentric subdivision.

    One subdivision always suffices: a simplex of the subdivision is a flag
    of faces of distinct dimensions, so an element preserving the flag fixes
    each of its faces, which are its vertices.  The subdivided action is
    the `flag_action`, read off the action's own orbit pass and built once.
    """
    return action if is_admissible(action) else flag_action(action)


def subgroup_action(action: VertexAction, handle: SubgroupHandle):
    """The subgroup's action at its admissible subdivision.

    That is `admissible_subdivision` of the restricted action: the
    restriction itself when admissible, else its flag action, which comes
    from the subgroup's own orbit pass over X.  No subgroup touches sd(X).
    """
    return admissible_subdivision(action.restrict(handle))


def orbit_chain_complex(action) -> OrientedChainComplex:
    """Cellular chains of X/G for an admissible action: the coinvariants C_*(X)_G.

    For an admissible action X/G is a CW complex with one cell per simplex
    orbit, and its cellular chains are the coinvariants (Bredon,
    Introduction to Compact Transformation Groups; Brown, Cohomology of
    Groups).  For a `VertexAction` the basis in each degree is the least
    simplex of each orbit, in lexicographic order.  Face i of a
    representative enters its boundary with (-1)^i times the sign of the
    vertex permutation carrying the face onto its own orbit's
    representative.  For a `FlagAction` the cells are its flag orbits
    (`FlagAction.cells`), each labelled by the member that runs up through
    the top's representative, in lexicographic order of the labels, and
    face i enters with (-1)^i alone.  A
    subcomplex fixed pointwise by the group keeps its simplices as labels,
    since each is a singleton orbit.  Built and checked for dd = 0 once per
    action.
    """
    if action._orbit_complex is None:
        if isinstance(action, FlagAction):
            cc = _flag_orbit_complex(action)
        else:
            cc = _simplex_orbit_complex(action)
        cc.verify()
        action._orbit_complex = cc
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


def _flag_orbit_complex(action: FlagAction) -> OrientedChainComplex:
    below = action.below
    reps = below.representatives
    vertex = {s: i for i, s in enumerate(itertools.chain.from_iterable(action.source.simplices()))}
    # face_vertex[oid][mask]: vertex of sd(K) at the face of representative oid on mask
    face_vertex = [[None] + [vertex[_face(rep, m)] for m in range(1, 1 << len(rep))] for rep in reps]

    def label(cell):
        fv = face_vertex[cell[0]]
        return tuple(fv[m] for m in cell[1]) + (fv[-1],)

    # in label order, like the least simplices of `_simplex_orbit_complex`: the
    # unit reduction of the boundary matrices pivots faster on it than on
    # representative order (nonabelian workload: 1.21 s against 1.00 s)
    cells = [sorted(level, key=label) for level in action.cells()]
    labels = tuple(tuple(label(c) for c in level) for level in cells)
    index = [{cell: j for j, cell in enumerate(level)} for level in cells]
    tops: dict = {}  # (orbit id, mask) -> the face of that representative on mask `_at_representative`
    ranks = tuple(len(level) for level in cells)
    boundaries = [SparseIntMatrix(0, ranks[0])] if ranks else []
    for k in range(1, len(cells)):
        rows = index[k - 1]
        cols = {}
        for j, (oid, chain) in enumerate(cells[k]):
            col: dict = {}
            for i in range(k):
                row = rows[oid, action._canonical(oid, chain[:i] + chain[i + 1:])]
                col[row] = col.get(row, 0) + (-1 if i % 2 else 1)
            # without its top the flag runs up to the face on chain[-1], carried to that face's representative
            top = tops.get((oid, chain[-1]))
            if top is None:
                top = tops[oid, chain[-1]] = action._at_representative(_face(reps[oid], chain[-1]), vertex)
            top_oid, mask_of = top
            fv = face_vertex[oid]
            row = rows[top_oid, action._canonical(top_oid, tuple(mask_of[fv[m]] for m in chain[:-1]))]
            col[row] = col.get(row, 0) + (-1 if k % 2 else 1)
            cols[j] = col
        boundaries.append(SparseIntMatrix.from_columns(ranks[k - 1], ranks[k], cols))
    return OrientedChainComplex(ranks, tuple(boundaries), labels)


def orbit_betti(action, field: FieldSpec) -> tuple:
    """Betti numbers of orbit_chain_complex(action) over one field, computed once per field."""
    got = action._orbit_betti.get(field)
    if got is None:
        got = betti(orbit_chain_complex(action), [field]).betti(field)
        action._orbit_betti[field] = got
    return got


def fixed_subcomplex(action: VertexAction, handle: SubgroupHandle) -> SimplicialComplex:
    """The fixed set of the subgroup at its admissible subdivision (see `subgroup_action`).

    When the subgroup acts admissibly on X, that is the full subcomplex of
    X on the vertices it fixes.  Otherwise it lies in sd(X): an element
    fixes a flag iff it fixes each of its simplices setwise, so its cells
    are the flags made of simplices that the subgroup fixes setwise, and it
    is the full subcomplex of sd(X) on those vertices.  The subgroup fixes
    what its generators fix.  Built once per (action, subgroup).
    """
    got = action._fixed.get(handle.indices)
    if got is None:
        gens = [action.elements[i] for i in handle.generators]
        if is_admissible(action.restrict(handle)):
            k = action.complex
            fixed = [v for v in range(k.vertex_count) if all(e[v] == v for e in gens)]
        else:
            sd = shared_subdivision(action.complex)
            k = sd.complex
            fixed = [
                v for v, s in enumerate(sd.vertex_simplices) if all(apply_perm(e, s) == s for e in gens)
            ]
        got = full_subcomplex(k, fixed)
        action._fixed[handle.indices] = got
    return got


def conjugacy_classes(action: VertexAction, handle: SubgroupHandle | None = None):
    """Conjugacy classes of the subgroup (default: full group), sorted by least member.

    Each class is an orbit under conjugation by the subgroup's generators.
    """
    handle = handle if handle is not None else action.full_subgroup()
    conjugators = [(g, action.inv(g)) for g in handle.generators]
    remaining = set(handle.indices)
    classes = []
    for i in handle.indices:
        if i not in remaining:
            continue
        cls = {i}
        queue = [i]
        while queue:
            x = queue.pop()
            for g, g_inv in conjugators:
                y = action.mult(action.mult(g, x), g_inv)
                if y not in cls:
                    cls.add(y)
                    queue.append(y)
        classes.append(tuple(sorted(cls)))
        remaining -= cls
    return classes


def lefschetz_numbers(action: VertexAction) -> tuple:
    """The Lefschetz number L(g) of every element, indexed like `action.elements`.

    L(g) is the sum, over the simplices σ that g maps onto themselves, of
    (-1)^dim σ times the sign of the permutation g induces on σ's vertices:
    the alternating trace of g on the oriented chains of X, and so, by the
    Hopf trace formula, on H_*(X; Q).  On a homology sphere S^{n-1} with
    n >= 2, L(g) = 1 + (-1)^{n-1} deg g.  L is a class function, so it is
    taken once per conjugacy class.  Only the complex and the group are
    read, no orbit data.
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
            if g in inside or prime_factors(action.element_order(g)).keys() - {p}:
                continue
            g_inv = action.inv(g)
            if any(action.mult(action.mult(g, h), g_inv) not in inside for h in gens):
                continue
            grown = action._span([g], base=(members, gens))
            if not prime_factors(len(grown[0])).keys() - {p}:
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
    """A normal abelian subgroup of maximal order.

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
    # the second: the first's other members are its conjugates
    commute = [
        [all(action.mult(ci[0], b) == action.mult(b, ci[0]) for b in cj) for cj in classes]
        for ci in classes
    ]
    best = action.subgroup([0])
    for mask in range(1, 1 << m):
        chosen = [i for i in range(m) if mask >> i & 1]
        if any(not commute[i][j] for i in chosen for j in chosen):
            continue
        seed = set()
        for i in chosen:
            seed.update(classes[i])
        idx = action.closure_indices(seed)
        if len(idx) > best.order or (len(idx) == best.order and idx < best.indices):
            cand = action.subgroup(idx)
            if cand.is_abelian:
                if cand.order > best.order or (
                    cand.order == best.order and cand.indices < best.indices
                ):
                    best = cand
    return best


def all_subgroups(action: VertexAction, handle: SubgroupHandle | None = None):
    """Every subgroup of the given subgroup (default: full group), by closure BFS.

    Exponential in general; intended for the tiny groups in the corpus.
    """
    base = handle if handle is not None else action.full_subgroup()
    trivial = action.subgroup([0]).indices
    seen = {trivial}
    frontier = [trivial]
    while frontier:
        next_frontier = []
        for idx in frontier:
            iset = set(idx)
            for g in base.indices:
                if g in iset:
                    continue
                new_idx = action.closure_indices(iset | {g})
                if len(new_idx) > base.order:
                    continue
                if set(new_idx) <= set(base.indices) and new_idx not in seen:
                    seen.add(new_idx)
                    next_frontier.append(new_idx)
        frontier = next_frontier
    return [action.subgroup(idx) for idx in sorted(seen, key=lambda t: (len(t), t))]
