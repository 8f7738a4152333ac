"""Finite abstract simplicial complexes and their integral chain complexes.

Simplices are stored as strictly increasing tuples of vertex indices.
Orientation follows the ascending-vertex convention: the boundary of a
simplex drops its i-th vertex with sign (-1)^i.  Complexes are immutable
after construction; derived data (the face lattice, the chain complex) is
cached on the instance.

Each complex has one face lattice, built on first use from the top down:
the k-simplices are the facets with k+1 vertices and the k-faces of the
(k+1)-simplices, kept as one set per dimension, so a face is made once
per coface one dimension up rather than once per facet above it.  The
f-vector and the simplex set are read off these sets; `simplices()` sorts
each set once and then drops it, so a complex holds one copy of its
lattice.  Complexes that the engine derives from facets that are already
canonical (the subdivisions and the subdivided quotient) skip the
constructor's range checks and maximality filter; outside input always
goes through the constructor.

There is one subdivision construction, `derived_subdivision`: K starred at
each simplex of an upward-closed set, in decreasing dimension.  Its
vertices stand for the vertices of K and the starred simplices, numbered in
(size, lex) order.  The barycentric subdivision is the case where every
simplex is starred (`barycentric_subdivision`, built by the simplicial
quotient loop for a depth-2 quotient); `actions.admissible_subdivision`
stars only the simplices an action turns, with their cofaces.  The size
of sd^k(K) is read off K's f-vector alone, by `subdivided_size`.

A chain complex is checked when it is built (`OrientedChainComplex`), so
every one that exists, orbit complexes and relative pairs included, has
dd = 0, and nothing downstream checks it again.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

from .errors import CorruptComplex, InvalidParameter
from .homology import SparseIntMatrix


class SimplicialComplex:
    """A finite abstract simplicial complex given by its maximal faces.

    Facets are deduplicated and maximality-filtered on construction, so
    the stored facet list is canonical: lexicographically sorted tuples,
    none contained in another.  Construction costs O(F log F) for F facets
    of one size (see `_maximal`).

    The face lattice is built once, on first use, as one set of faces per
    dimension (`_levels`).  `f_vector()` and `simplex_set()` read those
    sets without sorting them; `simplices()` sorts each level once, keeps
    the sorted tuples and drops the sets, so only one copy is ever held.
    """

    __slots__ = ("vertex_count", "facets", "dimension", "_levels", "_simplices", "_chain")

    def __init__(self, vertex_count: int, facets) -> None:
        if vertex_count < 0:
            raise InvalidParameter("vertex_count must be nonnegative")
        canon = set()
        for f in facets:
            t = tuple(sorted(set(f)))
            if not t:
                continue
            if t[0] < 0 or t[-1] >= vertex_count:
                raise InvalidParameter(f"facet {t} out of range [0, {vertex_count})")
            canon.add(t)
        self._set_facets(vertex_count, _maximal(canon))

    @classmethod
    def _from_canonical(cls, vertex_count: int, facets) -> "SimplicialComplex":
        """The complex on facets that are strictly increasing tuples in range, none inside another.

        Only duplicates are dropped and the list sorted: for complexes the
        engine derives itself, never for outside input.
        """
        k = cls.__new__(cls)
        k._set_facets(vertex_count, tuple(sorted(set(facets))))
        return k

    def _set_facets(self, vertex_count: int, facets: tuple) -> None:
        self.vertex_count = vertex_count
        self.facets = facets
        # max facet size minus one; -1 for the empty complex
        self.dimension = max(map(len, facets), default=0) - 1
        self._levels = None
        self._simplices = None
        self._chain = None

    def _lattice(self) -> list:
        """One set of faces per dimension, each level made from the one above."""
        if self._levels is None:
            levels = [set() for _ in range(self.dimension + 1)]
            for f in self.facets:
                levels[len(f) - 1].add(f)
            combinations = itertools.combinations
            for k in range(self.dimension, 0, -1):
                below = levels[k - 1]
                for s in levels[k]:
                    below.update(combinations(s, k))
            self._levels = levels
        return self._levels

    def simplices(self):
        """All simplices grouped by dimension: a list of lex-sorted tuples per degree."""
        if self._simplices is None:
            self._simplices = [tuple(sorted(level)) for level in self._lattice()]
            self._levels = None
        return self._simplices

    def _faces(self) -> list:
        """The lattice as it is held: the sorted levels once `simplices()` has run, else the sets."""
        return self._simplices if self._simplices is not None else self._lattice()

    def simplex_set(self) -> frozenset:
        """Every simplex, in a new frozenset."""
        return frozenset(itertools.chain.from_iterable(self._faces()))

    def f_vector(self) -> tuple:
        return tuple(map(len, self._faces()))

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.vertex_count == other.vertex_count and self.facets == other.facets

    def __hash__(self):
        return hash((self.vertex_count, self.facets))

    def __repr__(self):
        return f"SimplicialComplex(vertices={self.vertex_count}, facets={len(self.facets)}, dim={self.dimension})"

    def to_json_dict(self) -> dict:
        return {"vertex_count": self.vertex_count, "facets": [list(f) for f in self.facets]}


def _maximal(simplex_set) -> tuple:
    """Drop every set contained in a strictly larger one; return lex-sorted tuples.

    The sets of the largest size are distinct, so none contains another:
    all of them are kept without a search.  Only the smaller sets are
    looked up, largest first, in a vertex index of the sets kept so far.
    A pure list (every set of one size) is thus only sorted, in
    O(F log F) for F sets.
    """
    by_size = sorted(simplex_set, key=len, reverse=True)
    kept = [t for t in by_size if len(t) == len(by_size[0])]
    smaller = by_size[len(kept):]
    vertex_index: dict[int, set] = {}
    if smaller:
        for t in kept:
            for v in t:
                vertex_index.setdefault(v, set()).add(t)
    for t in smaller:
        candidates = None
        contained = False
        for v in t:
            hits = vertex_index.get(v)
            if hits is None:
                candidates = None
                break
            candidates = hits if candidates is None else candidates & hits
            if not candidates:
                break
        else:
            contained = bool(candidates)
        if contained:
            continue
        kept.append(t)
        for v in t:
            vertex_index.setdefault(v, set()).add(t)
    kept.sort()
    return tuple(kept)


@dataclass(frozen=True)
class OrientedChainComplex:
    """Simplicial chain complex with integer coefficients.

    boundaries[k] is the matrix of d_k : C_k -> C_{k-1}; boundaries[0] has
    zero rows.  basis_labels[k] lists the k-simplices indexing the columns
    of d_k, in lexicographic order.  Construction checks the shapes
    (InvalidParameter) and dd = 0 (CorruptComplex).
    """

    ranks: tuple
    boundaries: tuple
    basis_labels: tuple

    def __post_init__(self) -> None:
        for k in range(1, len(self.boundaries)):
            a, b = self.boundaries[k - 1], self.boundaries[k]
            if b.cols != self.ranks[k] or b.rows != self.ranks[k - 1]:
                raise InvalidParameter("boundary matrix shape mismatch")
            if not a.compose_is_zero(b):
                raise CorruptComplex(f"boundary composition d_{k-1} d_{k} is nonzero")


EMPTY_COMPLEX = SimplicialComplex(0, [])


def polygon(length: int) -> SimplicialComplex:
    """Cycle graph on `length` >= 3 vertices: the minimal simplicial circle."""
    if length < 3:
        raise InvalidParameter("a polygon needs at least 3 vertices")
    edges = [(i, (i + 1) % length) for i in range(length)]
    return SimplicialComplex(length, edges)


def zero_sphere() -> SimplicialComplex:
    """Two isolated points."""
    return SimplicialComplex(2, [(0,), (1,)])


def join(k1: SimplicialComplex, k2: SimplicialComplex) -> SimplicialComplex:
    """Simplicial join; k1's vertices come first, k2's are shifted past them."""
    n = k1.vertex_count + k2.vertex_count
    shift = k1.vertex_count
    if not k2.facets:
        return SimplicialComplex(n, k1.facets)
    if not k1.facets:
        return SimplicialComplex(n, [tuple(v + shift for v in f) for f in k2.facets])
    facets = [f1 + tuple(v + shift for v in f2) for f1 in k1.facets for f2 in k2.facets]
    return SimplicialComplex(n, facets)


@dataclass(frozen=True)
class Subdivision:
    """A derived subdivision of `source`, plus the bijection between its vertices and the simplices they stand for.

    A vertex stands for a vertex of `source` or for the barycentre of a
    starred simplex; in the barycentric subdivision every simplex is starred.
    """

    complex: SimplicialComplex
    source: SimplicialComplex
    vertex_simplices: tuple          # new vertex index -> source simplex
    vertex_of_simplex: dict          # source simplex -> new vertex index


def derived_subdivision(k: SimplicialComplex, starred) -> Subdivision:
    """The derived subdivision of k near `starred`, a set of its simplices closed under taking cofaces.

    Each simplex of `starred` is starred at its barycentre, in decreasing
    dimension (Rourke and Sanderson, Introduction to Piecewise-Linear
    Topology, ch. 2-3).  Two starred simplices of one dimension that span a
    simplex had their union starred first, so the order within a dimension
    does not matter.  A simplex of the result is an unstarred face τ joined to
    the barycentres of a chain σ_1 < ... < σ_r of starred simplices, with τ a
    proper face of σ_1 (any unstarred simplex when r = 0).  A facet is thus an
    unstarred facet of k, or a saturated chain of starred faces running down
    from a starred facet to σ_1 together with the unstarred τ one vertex below
    it; the chains below each starred simplex are made once.

    The vertices are the vertices of k and the starred simplices, each
    numbered by the (size, lex) order of the simplex it stands for, so a
    facet's vertex numbers ascend with its chain.  Starring every simplex
    gives `barycentric_subdivision`, and starring none gives k on its used
    vertices.
    """
    vertex_simplices = tuple(s for dim, level in enumerate(k.simplices()) for s in level if not dim or s in starred)
    index = {s: i for i, s in enumerate(vertex_simplices)}
    below: dict = {}  # starred simplex -> the facets' tails that end at its barycentre

    def chains(sigma) -> list:
        got = below.get(sigma)
        if got is None:
            top = index[sigma]
            got = below[sigma] = []
            for i in range(len(sigma)):
                face = sigma[:i] + sigma[i + 1:]
                if face in starred:
                    got.extend(c + (top,) for c in chains(face))
                else:
                    got.append(tuple(index[(v,)] for v in face) + (top,))
        return got

    facets = []
    for f in k.facets:
        if f in starred:
            facets.extend(chains(f))
        else:
            facets.append(tuple(index[(v,)] for v in f))
    sd = SimplicialComplex._from_canonical(len(vertex_simplices), facets)
    return Subdivision(sd, k, vertex_simplices, index)


def barycentric_subdivision(k: SimplicialComplex) -> Subdivision:
    """Flag complex of the face poset: every simplex of k starred (`derived_subdivision`).

    Its vertices are the simplices of k in (size, lex) order, and its facets
    the maximal flags.
    """
    return derived_subdivision(k, k.simplex_set())


def subdivided_f_vector(f_vector) -> tuple:
    """f-vector of the barycentric subdivision, from the f-vector alone.

    A j-simplex of the subdivision is a chain of j+1 nested simplices.  The
    chains of b simplices topped by a simplex on n vertices are the ordered
    partitions of its vertices into b blocks; there are
    a(n, b) = b (a(n-1, b-1) + a(n-1, b)) of them.
    """
    out = [0] * len(f_vector)
    blocks = [1]                    # blocks[b] = a(n, b), starting at n = 0
    for k, count in enumerate(f_vector):
        padded = [0, *blocks, 0]
        blocks = [b * (padded[b] + padded[b + 1]) for b in range(len(blocks) + 1)]
        for j in range(k + 1):
            out[j] += count * blocks[j + 1]
    return tuple(out)


def subdivided_size(f_vector, depth: int) -> int:
    """The simplex count of sd^depth(K), from K's f-vector alone.

    `subdivided_f_vector` is linear, so this is the dot product of the
    f-vector with the simplices sd^depth makes inside one k-simplex.
    """
    return sum(map(operator.mul, f_vector, _unit_totals(depth, len(f_vector))))


@functools.cache
def _unit_totals(depth: int, length: int) -> tuple:
    """Entry k: the total of sd^depth applied to the k-th unit f-vector, built once per (depth, length)."""
    totals = []
    for k in range(length):
        f = tuple(int(j == k) for j in range(length))
        for _ in range(depth):
            f = subdivided_f_vector(f)
        totals.append(sum(f))
    return tuple(totals)


def euler_characteristic(k: SimplicialComplex) -> int:
    return sum((-1) ** i * c for i, c in enumerate(k.f_vector()))


def full_subcomplex(k: SimplicialComplex, vertices) -> SimplicialComplex:
    """All simplices of k whose vertices lie in the given set; keeps k's labels."""
    vs = set(vertices)
    for v in vs:
        if not (0 <= v < k.vertex_count):
            raise InvalidParameter(f"vertex {v} out of range")
    facets = []
    for f in k.facets:
        t = tuple(v for v in f if v in vs)
        if t:
            facets.append(t)
    return SimplicialComplex(k.vertex_count, facets)


def chain_complex(k: SimplicialComplex) -> OrientedChainComplex:
    """Oriented simplicial chains of k, built (and so checked) once per complex.

    The complex keeps the result, so its matrices, their unit reductions and
    ranks (see `SparseIntMatrix`) are shared by every caller for as long as
    the complex lives.
    """
    if k._chain is not None:
        return k._chain
    levels = k.simplices()
    ranks = tuple(len(level) for level in levels)
    boundaries = []
    for dim, level in enumerate(levels):
        cols = {}
        if dim == 0:
            mat = SparseIntMatrix(0, len(level), {})
        else:
            prev_index = {s: i for i, s in enumerate(levels[dim - 1])}
            for j, s in enumerate(level):
                col = {}
                for i in range(len(s)):
                    face = s[:i] + s[i + 1:]
                    col[prev_index[face]] = -1 if i % 2 else 1
                cols[j] = col
            mat = SparseIntMatrix.from_columns(len(levels[dim - 1]), len(level), cols)
        boundaries.append(mat)
    k._chain = OrientedChainComplex(ranks, tuple(boundaries), tuple(levels))
    return k._chain
