"""Finite groups acting by vertex permutations on a simplicial complex.

Groups are stored by their full element list; all subgroup algorithms are
exhaustive, which is the right trade for the tiny groups this engine
targets.  Element order is breadth-first over words in the generators, so
every least-index tie-break is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class SubgroupHandle:
    """Element indices of a subgroup inside an ambient VertexAction."""

    indices: tuple
    order: int
    is_normal: bool
    is_abelian: bool
    via_fallback: bool = False


class VertexAction:
    """A finite group realized as simplicial vertex permutations.

    elements[0] is the identity.  Instances are immutable; derived data is
    cached on the instance and freed with it:

    - multiplication, inverses and element orders
    - vertex and simplex orbits, the admissibility verdict and, once asked
      for, the orientation signs of the simplex orbits (`simplex_orbit_data`)
    - the restricted action of each subgroup, keyed by its sorted element
      indices (`restrict`)
    - the action on the first barycentric subdivision, when the action is
      not admissible (`admissible_subdivision`); an admissible action is its
      own and stores nothing, so no cache refers back to its owner.  The
      subdivision itself is cached on the complex (`shared_subdivision`), so
      every subgroup's action and the quotient loop share it
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
        "_admissible_subdivision",
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
        self._admissible_subdivision = None
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

    def closure_indices(self, seed) -> tuple:
        known = {0} | set(seed)
        frontier = sorted(known)
        while frontier:
            new = []
            for i in frontier:
                for j in sorted(known):
                    for k in (self.mult(i, j), self.mult(j, i)):
                        if k not in known:
                            known.add(k)
                            new.append(k)
            frontier = new
        return tuple(sorted(known))

    def subgroup(self, indices) -> SubgroupHandle:
        idx = tuple(sorted(set(indices) | {0}))
        iset = set(idx)
        for i in idx:
            if self.inv(i) not in iset:
                raise InvalidParameter("element set not closed under inverse")
            for j in idx:
                if self.mult(i, j) not in iset:
                    raise InvalidParameter("element set not closed under multiplication")
        normal = all(
            self.mult(self.mult(g, h), self.inv(g)) in iset for g in range(self.order) for h in idx
        )
        abelian = all(self.mult(i, j) == self.mult(j, i) for i in idx for j in idx)
        return SubgroupHandle(idx, len(idx), normal, abelian)

    def trivial_subgroup(self) -> SubgroupHandle:
        return self.subgroup([0])

    def full_subgroup(self) -> SubgroupHandle:
        """The whole group: closed and normal by construction, abelian iff its generators commute."""
        gens = self.generator_indices
        abelian = all(self.mult(a, b) == self.mult(b, a) for a in gens for b in gens)
        return SubgroupHandle(tuple(range(self.order)), self.order, True, abelian)

    def restrict(self, handle: SubgroupHandle) -> "VertexAction":
        """The subgroup acting on the same complex, built once per subgroup.

        The full group restricts to this action itself.
        """
        key = tuple(sorted(set(handle.indices)))
        if len(key) == self.order:
            return self
        got = self._restrictions.get(key)
        if got is None:
            elems = [self.elements[i] for i in key]
            got = VertexAction(self.complex, elems, tuple(range(1, len(elems))))
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

    def simplex_orbit_data(self, signs: bool = False):
        """(orbit id per simplex, orbit count, admissibility verdict, reversed simplices).

        Orbit ids are numbered in the order of `complex.simplices()`, so the
        first simplex of each id is its orbit's least simplex, the
        representative.  Admissibility is checked on representatives only:
        if g preserves a simplex setwise but moves a vertex, the same is true
        of every conjugate on the rest of the orbit.

        With `signs`, the same pass also collects the set of simplices t
        whose orientation is reversed against their representative s: the
        g with g(s) = t lists t's vertices in an odd order.  For an
        admissible action the sign does not depend on the choice of g.
        Signs make the pass about a quarter slower and the simplicial
        quotient does not use them, so they are computed on request; without
        them the last entry is None, unless an earlier call computed them.
        """
        if self._simplex_orbits is None or (signs and self._simplex_orbits[3] is None):
            orbit_of: dict = {}
            reversed_simplices = set() if signs else None
            n_orbits = 0
            admissible = True
            for level in self.complex.simplices():
                for s in level:
                    if s in orbit_of:
                        continue
                    oid = n_orbits
                    n_orbits += 1
                    for e in self.elements:
                        img = apply_perm(e, s)
                        if img not in orbit_of:
                            orbit_of[img] = oid
                            if signs and _is_odd([e[v] for v in s]):
                                reversed_simplices.add(img)
                        if admissible and img == s and any(e[v] != v for v in s):
                            admissible = False
            self._simplex_orbits = (orbit_of, n_orbits, admissible, reversed_simplices)
        return self._simplex_orbits

    def to_json_dict(self) -> dict:
        return {
            "complex": self.complex.to_json_dict(),
            "generators": [list(self.elements[i]) for i in self.generator_indices],
        }

    def __repr__(self):
        return f"VertexAction(order={self.order}, on {self.complex!r})"


def close_generators(
    complex: SimplicialComplex, generators, cap: int = DEFAULT_ELEMENT_CAP
) -> VertexAction:
    """Generate the full group breadth-first over words in the generators.

    New words extend on the right (apply the old word first, then the
    generator), so the element order is the BFS word order.
    """
    n = complex.vertex_count
    gens = []
    for g in generators:
        t = tuple(g)
        if len(t) != n or sorted(t) != list(range(n)):
            raise ActionInvalid(f"not a vertex bijection: {t}")
        for f in complex.facets:
            if not complex.has_simplex(apply_perm(t, f)):
                raise ActionInvalid(f"generator maps facet {f} outside the complex")
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
                    if len(elements) > cap:
                        raise GroupTooLarge(f"closure exceeds cap {cap}")
        frontier = next_frontier
    for g in gens:
        gen_indices.append(seen[g])
    return VertexAction(complex, elements, tuple(gen_indices))


def is_admissible(action: VertexAction) -> bool:
    """True iff every element preserving a simplex setwise fixes it pointwise.

    Decided by the signed orbit pass, so an admissible action's orbit chain
    complex needs no second pass over the group.
    """
    return action.simplex_orbit_data(signs=True)[2]


def induced_action_on_subdivision(action: VertexAction, sd: Subdivision) -> VertexAction:
    """Transport the action through a barycentric subdivision of its complex."""
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
    orbit_of, _, admissible, _ = action.simplex_orbit_data()
    if not admissible:
        raise NeedsSubdivision("action is not admissible")
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
    quotient = SimplicialComplex(len(orbits), sorted(facets))
    return quotient, proj


def subdivided_quotient(action: VertexAction) -> SimplicialComplex:
    """sd(X)/G for an admissible action on X, built from the simplex orbits of X alone.

    The vertices of sd(X) are the simplices of X in the order of
    `complex.simplices()`, so its vertex orbits are the simplex orbits of X
    under the same ids.  A facet of sd(X) is a complete flag of faces of a
    facet of X; its image is the set of the flag's orbit ids, and facets in
    one orbit give the same sets, so one facet per orbit is enough.
    Admissibility makes the stabiliser of a flag's top simplex fix the whole
    flag, so the orbits of j-simplices of sd(X) number
    `subdivided_f_vector(orbit counts of X)[j]`.  The quotient is simplicial
    iff no two of those orbits share an id set, that is iff its f-vector
    reaches that count; otherwise NeedsSubdivision is raised, as
    `quotient_complex` on the action transported to sd(X) would.
    """
    orbit_of, n_orbits, admissible, _ = action.simplex_orbit_data()
    if not admissible:
        raise NeedsSubdivision("action is not admissible")
    # ids were handed out level by level, so each level's ids form one run
    starts = [orbit_of[level[0]] for level in action.complex.simplices()] + [n_orbits]
    orbit_counts = [b - a for a, b in zip(starts, starts[1:])]
    facets = []
    seen = set()
    for f in action.complex.facets:
        if orbit_of[f] in seen:
            continue
        seen.add(orbit_of[f])
        bits = [1 << i for i in range(len(f))]
        # ids[mask]: orbit id of the face of f on the vertices picked by mask
        ids = [-1] + [
            orbit_of[tuple(v for v, bit in zip(f, bits) if mask & bit)]
            for mask in range(1, 1 << len(f))
        ]
        flags = [(0, ())]
        for _ in f:
            flags = [
                (mask | bit, flag + (ids[mask | bit],))
                for mask, flag in flags
                for bit in bits
                if not mask & bit
            ]
        facets.extend(flag for _, flag in flags)
    quotient = SimplicialComplex(n_orbits, facets)
    want, got = subdivided_f_vector(orbit_counts), quotient.f_vector()
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


def _subdivided(action: VertexAction) -> VertexAction:
    """The action transported to the first barycentric subdivision of its complex.

    The subdivision is shared by every action on the same complex object."""
    return induced_action_on_subdivision(action, shared_subdivision(action.complex))


def make_admissible_and_quotient(
    action: VertexAction,
    subdivisions: str | int = "auto",
    simplex_cap: int | None = None,
) -> QuotientResult:
    """The quotient sd^k(X)/G at the first depth k where it is simplicial.

    With `subdivisions` "auto" the quotient is tried at each depth up to
    three subdivisions; with an integer it is tried at that depth only.
    NeedsSubdivision is raised when it is not simplicial at the last depth
    tried.  At depth 0, and at depth 1 when the action on X is not
    admissible, `quotient_complex` runs on the action at that depth.  At
    every other depth k, `subdivided_quotient` builds the quotient from the
    action at depth k-1, so the depth-k sphere is never built.  Before each
    depth its simplex count is forecast from the f-vector one depth down
    (`subdivided_f_vector`), and ResourceCapExceeded is raised when it would
    pass `simplex_cap`, whether or not that sphere is to be built; None
    means no cap.
    """
    # the actions at depth count (None when it need not be built) and at depth count - 1
    current, below = action, None
    simplices, facets = sum(action.complex.f_vector()), len(action.complex.facets)
    count = 0
    while True:
        if subdivisions == "auto" or subdivisions == count:
            try:
                if current is not None:
                    quotient, _ = quotient_complex(current)
                else:
                    quotient = subdivided_quotient(below)
                return QuotientResult(quotient, count, simplices, facets)
            except NeedsSubdivision:
                if subdivisions != "auto" or count >= _MAX_AUTO_SUBDIVISIONS:
                    raise
        if current is None:
            current = _subdivided(below)
        simplices = sum(subdivided_f_vector(current.complex.f_vector()))
        if simplex_cap is not None and simplices > simplex_cap:
            raise ResourceCapExceeded(
                f"subdivision would reach {simplices} simplices (cap {simplex_cap})"
            )
        facets = sum(math.factorial(len(f)) for f in current.complex.facets)
        below = current
        current = None if below.simplex_orbit_data()[2] else _subdivided(below)
        count += 1


def admissible_subdivision(action: VertexAction) -> VertexAction:
    """The action itself when admissible, else the action on its first barycentric subdivision.

    One subdivision always suffices: a simplex of the subdivision is a flag
    of faces of distinct dimensions, so an element preserving the flag fixes
    each of its faces, which are its vertices.  Computed once per action.
    """
    if is_admissible(action):
        return action
    if action._admissible_subdivision is None:
        action._admissible_subdivision = _subdivided(action)
    return action._admissible_subdivision


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
    orbit.  Built and checked for dd = 0 once per action.
    """
    if action._orbit_complex is None:
        orbit_of, _, admissible, reversed_simplices = action.simplex_orbit_data(signs=True)
        if not admissible:
            raise NeedsSubdivision("action is not admissible")
        # ids were handed out in this order, so each id first appears at its representative
        reps: list = []
        offsets: list = []
        for level in action.complex.simplices():
            offsets.append(len(reps))
            for s in level:
                if orbit_of[s] == len(reps):
                    reps.append(s)
        offsets.append(len(reps))
        labels = tuple(tuple(reps[offsets[k]:offsets[k + 1]]) for k in range(len(offsets) - 1))
        ranks = tuple(len(level) for level in labels)
        boundaries = [SparseIntMatrix(0, ranks[0])] if ranks else []
        for k in range(1, len(labels)):
            cols = {}
            for j, s in enumerate(labels[k]):
                col: dict = {}
                for i in range(len(s)):
                    face = s[:i] + s[i + 1:]
                    row = orbit_of[face] - offsets[k - 1]
                    sign = -1 if face in reversed_simplices else 1
                    col[row] = col.get(row, 0) + (-sign if i % 2 else sign)
                cols[j] = col
            boundaries.append(SparseIntMatrix.from_columns(ranks[k - 1], ranks[k], cols))
        cc = OrientedChainComplex(ranks, tuple(boundaries), labels)
        cc.verify()
        action._orbit_complex = cc
    return action._orbit_complex


def orbit_betti(action: VertexAction, field: FieldSpec) -> tuple:
    """Betti numbers of orbit_chain_complex(action) over one field, computed once per field."""
    got = action._orbit_betti.get(field)
    if got is None:
        got = betti(orbit_chain_complex(action), [field], with_torsion=False).betti(field)
        action._orbit_betti[field] = got
    return got


def fixed_subcomplex(action: VertexAction, handle: SubgroupHandle) -> SimplicialComplex:
    """Full subcomplex on the vertices fixed by every element of the subgroup."""
    restricted = action.restrict(handle)
    if not is_admissible(restricted):
        raise NeedsSubdivision("restricted action is not admissible")
    fixed = [
        v
        for v in range(action.complex.vertex_count)
        if all(action.elements[i][v] == v for i in handle.indices)
    ]
    return full_subcomplex(action.complex, fixed)


def conjugacy_classes(action: VertexAction, handle: SubgroupHandle | None = None):
    """Conjugacy classes of the subgroup (default: full group), sorted by least member."""
    idx = handle.indices if handle is not None else tuple(range(action.order))
    remaining = set(idx)
    classes = []
    for i in sorted(idx):
        if i not in remaining:
            continue
        cls = {action.mult(action.mult(g, i), action.inv(g)) for g in idx}
        classes.append(tuple(sorted(cls)))
        remaining -= cls
    return classes


def normalizer(action: VertexAction, ambient: SubgroupHandle, sub: SubgroupHandle) -> tuple:
    sset = set(sub.indices)
    out = []
    for h in ambient.indices:
        hi = action.inv(h)
        if all(action.mult(action.mult(h, p), hi) in sset for p in sub.indices):
            out.append(h)
    return tuple(out)


def sylow(action: VertexAction, handle: SubgroupHandle, p: int) -> SubgroupHandle:
    """A Sylow p-subgroup of the subgroup, grown deterministically.

    Starting from the trivial group, repeatedly adjoin the least-index
    p-power-order element of the normalizer that is not yet in the
    subgroup; each step multiplies the order by p.
    """
    if not is_prime(p):
        raise InvalidParameter(f"{p} is not prime")
    target = p ** prime_factors(handle.order).get(p, 0)
    current = action.subgroup([0])
    while current.order < target:
        norm = normalizer(action, handle, current)
        cset = set(current.indices)
        progressed = False
        for g in norm:
            if g in cset:
                continue
            if prime_factors(action.element_order(g)).keys() - {p}:
                continue
            new_idx = action.closure_indices(set(current.indices) | {g})
            if not prime_factors(len(new_idx)).keys() - {p}:
                current = action.subgroup(new_idx)
                progressed = True
                break
        if not progressed:  # cannot happen for a genuine group; defensive
            raise InvalidParameter("Sylow growth stalled")
    return current


def center(action: VertexAction, handle: SubgroupHandle) -> SubgroupHandle:
    idx = [
        i
        for i in handle.indices
        if all(action.mult(i, j) == action.mult(j, i) for j in handle.indices)
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
        z = center(action, full)
        return SubgroupHandle(z.indices, z.order, z.is_normal, z.is_abelian, via_fallback=True)
    m = len(classes)
    commute = [[True] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            ok = all(
                action.mult(a, b) == action.mult(b, a) for a in classes[i] for b in classes[j]
            )
            commute[i][j] = commute[j][i] = ok
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
