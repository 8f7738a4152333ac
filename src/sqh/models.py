"""Group-invariant sphere models.

Two input paths realize finite subgroups of O(n) simplicially: signed
permutations act on the boundary of the cross-polytope, and finite
abelian groups given by exact character data act block-by-block on a join
of polygons (rotation blocks) and vertex pairs (sign blocks).  The same
character data drives the exact local torus model of the block cover and
its E1 page count.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd, lcm
from typing import Sequence

from .actions import VertexAction, close_generators
from .complexes import EMPTY_COMPLEX, SimplicialComplex, join, polygon, zero_sphere
from .errors import InvalidParameter

DEFAULT_MAX_FACTOR = 64
DEFAULT_MAX_BLOCKS = 8


def cross_polytope(n: int) -> SimplicialComplex:
    """Boundary of the n-dimensional cross-polytope: a simplicial S^{n-1}.

    Vertex i-1 is +e_i and vertex n+i-1 is -e_i; simplices are exactly
    the vertex sets with no antipodal pair.
    """
    if n < 1:
        raise InvalidParameter("cross_polytope needs n >= 1")
    facets = []
    for mask in range(1 << n):
        facets.append(tuple(sorted(i + n * (mask >> i & 1) for i in range(n))))
    return SimplicialComplex(2 * n, facets)


@dataclass(frozen=True)
class SignedPermutation:
    """Monomial orthogonal map e_i -> signs[perm[i]-1] * e_{perm[i]} (1-based)."""

    perm: tuple
    signs: tuple

    def __post_init__(self):
        n = len(self.perm)
        if sorted(self.perm) != list(range(1, n + 1)):
            raise InvalidParameter(f"{self.perm} is not a permutation of 1..{n}")
        if len(self.signs) != n or any(s not in (-1, 1) for s in self.signs):
            raise InvalidParameter("signs must be a +-1 vector of matching length")

    def vertex_permutation(self) -> tuple:
        n = len(self.perm)
        out = [0] * (2 * n)
        for i in range(1, n + 1):
            t = self.perm[i - 1]
            s = self.signs[t - 1]
            out[i - 1] = t - 1 if s > 0 else n + t - 1
            out[n + i - 1] = n + t - 1 if s > 0 else t - 1
        return tuple(out)

    def to_json_dict(self) -> dict:
        return {"perm": list(self.perm), "signs": list(self.signs)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SignedPermutation":
        return cls(tuple(data["perm"]), tuple(data["signs"]))


def signed_permutation_action(n: int, generators: Sequence[SignedPermutation]) -> VertexAction:
    """Close the given signed permutations into a group acting on cross_polytope(n)."""
    k = cross_polytope(n)
    return close_generators(k, [g.vertex_permutation() for g in generators])


@dataclass(frozen=True)
class AbelianCharacterData:
    """Exact block data for a finite abelian subgroup of O(n).

    The group is Z/m_1 x ... x Z/m_t.  Each rotation character is a tuple
    (a_1, ..., a_t) describing g -> exp(2*pi*i * sum a_i g_i / m_i) on a
    2-dimensional block; each sign character is a 0/1 tuple describing
    g -> (-1)^(sum e_i g_i) on a 1-dimensional block, which forces e_i = 0
    whenever m_i is odd.
    """

    invariant_factors: tuple
    rotation_characters: tuple
    sign_characters: tuple

    def __post_init__(self):
        ms = tuple(int(m) for m in self.invariant_factors)
        if any(m < 1 for m in ms):
            raise InvalidParameter("factors must be >= 1")
        for ch in tuple(self.rotation_characters) + tuple(self.sign_characters):
            if len(ch) != len(ms):
                raise InvalidParameter("character length must match the factor count")
        rot = tuple(tuple(a % m for a, m in zip(ch, ms)) for ch in self.rotation_characters)
        sgn = tuple(tuple(int(e) for e in ch) for ch in self.sign_characters)
        for ch in sgn:
            for e, m in zip(ch, ms):
                if e not in (0, 1):
                    raise InvalidParameter("sign characters take values in {0,1}")
                if e == 1 and m % 2 == 1:
                    raise InvalidParameter(
                        f"sign character is not a homomorphism on Z/{m} (odd order)"
                    )
        object.__setattr__(self, "invariant_factors", ms)
        object.__setattr__(self, "rotation_characters", rot)
        object.__setattr__(self, "sign_characters", sgn)

    @property
    def factor_count(self) -> int:
        return len(self.invariant_factors)

    @property
    def rotation_count(self) -> int:
        return len(self.rotation_characters)

    @property
    def sign_count(self) -> int:
        return len(self.sign_characters)

    @property
    def block_count(self) -> int:
        return self.rotation_count + self.sign_count

    @property
    def ambient_dimension(self) -> int:
        return 2 * self.rotation_count + self.sign_count

    @property
    def group_order(self) -> int:
        out = 1
        for m in self.invariant_factors:
            out *= m
        return out

    def rotation_order(self, j: int) -> int:
        """Order of the j-th rotation character in the dual group."""
        d = 1
        for a, m in zip(self.rotation_characters[j], self.invariant_factors):
            d = lcm(d, m // gcd(a, m))
        return d

    def polygon_length(self, j: int) -> int:
        """Least multiple of the character order that is >= 3."""
        d = self.rotation_order(j)
        if d >= 3:
            return d
        return 3 if d == 1 else 4

    def sign_bit(self, k: int, gen: int) -> int:
        return self.sign_characters[k][gen] & 1

    def rotation_steps(self, j: int, gen: int, length: int) -> int:
        """Rotation of generator `gen` on a polygon of the given length, in steps."""
        a = self.rotation_characters[j][gen]
        m = self.invariant_factors[gen]
        num = a * length
        if num % m:
            raise InvalidParameter("polygon length is not a multiple of the character order")
        return (num // m) % length

    def to_json_dict(self) -> dict:
        return {
            "invariant_factors": list(self.invariant_factors),
            "rotation_characters": [list(c) for c in self.rotation_characters],
            "sign_characters": [list(c) for c in self.sign_characters],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "AbelianCharacterData":
        return cls(
            tuple(data["invariant_factors"]),
            tuple(tuple(c) for c in data["rotation_characters"]),
            tuple(tuple(c) for c in data["sign_characters"]),
        )


@dataclass(frozen=True)
class BlockInfo:
    kind: str          # "rotation" | "sign"
    index: int         # position within its kind
    offset: int        # first vertex of the block in the join
    length: int        # number of vertices (polygon length, or 2)


@dataclass(frozen=True)
class CharacterJoinModel:
    """Join-of-blocks sphere model with the induced (effective) group action."""

    data: AbelianCharacterData
    action: VertexAction
    blocks: tuple
    effective_order: int
    kernel_order: int

    @property
    def complex(self) -> SimplicialComplex:
        return self.action.complex

    @property
    def ambient_dimension(self) -> int:
        return self.data.ambient_dimension


def character_join_model(data: AbelianCharacterData) -> CharacterJoinModel:
    """Realize S^{n-1} as the join of block spheres with the induced action.

    Rotation block j becomes a polygon rotated through the character's
    image; sign block k becomes a vertex pair swapped when the character
    is -1.  The acting group is the image of A: the kernel is discarded
    and its size recorded.
    """
    if data.block_count < 1:
        raise InvalidParameter("need at least one block")
    if data.block_count > DEFAULT_MAX_BLOCKS:
        raise InvalidParameter(f"block count {data.block_count} exceeds cap {DEFAULT_MAX_BLOCKS}")
    if any(m > DEFAULT_MAX_FACTOR for m in data.invariant_factors):
        raise InvalidParameter(f"invariant factor exceeds cap {DEFAULT_MAX_FACTOR}")

    blocks = []
    model = EMPTY_COMPLEX
    offset = 0
    for j in range(data.rotation_count):
        length = data.polygon_length(j)
        blocks.append(BlockInfo("rotation", j, offset, length))
        model = join(model, polygon(length))
        offset += length
    for k in range(data.sign_count):
        blocks.append(BlockInfo("sign", k, offset, 2))
        model = join(model, zero_sphere())
        offset += 2

    generators = []
    for gen in range(data.factor_count):
        perm = list(range(model.vertex_count))
        for b in blocks:
            if b.kind == "rotation":
                steps = data.rotation_steps(b.index, gen, b.length)
                for x in range(b.length):
                    perm[b.offset + x] = b.offset + (x + steps) % b.length
            else:
                if data.sign_bit(b.index, gen):
                    perm[b.offset] = b.offset + 1
                    perm[b.offset + 1] = b.offset
        generators.append(tuple(perm))

    action = close_generators(model, generators)
    return CharacterJoinModel(
        data=data,
        action=action,
        blocks=tuple(blocks),
        effective_order=action.order,
        kernel_order=data.group_order // action.order,
    )


@dataclass(frozen=True)
class BlockCoverIndex:
    """A nonempty subset J of the blocks, split into rotation/sign counts."""

    indices: tuple  # 1-based block indices, sorted
    a: int          # rotation blocks in J
    b: int          # sign blocks in J

    @classmethod
    def from_data(cls, data: AbelianCharacterData, indices) -> "BlockCoverIndex":
        idx = tuple(sorted(set(int(i) for i in indices)))
        if not idx:
            raise InvalidParameter("J must be nonempty")
        if idx[0] < 1 or idx[-1] > data.block_count:
            raise InvalidParameter(f"block indices must lie in 1..{data.block_count}")
        a = sum(1 for i in idx if i <= data.rotation_count)
        return cls(idx, a, len(idx) - a)


def _gf2_rank(vectors) -> int:
    basis = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


def _sign_image_order(data: AbelianCharacterData, sign_blocks) -> int:
    """Order of the image of the combined sign homomorphism A -> {+-1}^b."""
    vectors = []
    for gen in range(data.factor_count):
        v = 0
        for pos, k in enumerate(sign_blocks):
            if data.sign_bit(k, gen):
                v |= 1 << pos
        vectors.append(v)
    return 1 << _gf2_rank(vectors)


def local_model_betti(data: AbelianCharacterData, cover_index) -> tuple:
    """Exact per-degree Betti numbers of the cover piece U_J, over any field.

    U_J is a disjoint union of c_J tori of dimension a(J), where c_J is
    the number of orbits of the sign-pattern translation action: all
    orbits have the size of the sign-character image, so
    c_J = 2^b / |image|.
    """
    if not isinstance(cover_index, BlockCoverIndex):
        cover_index = BlockCoverIndex.from_data(data, cover_index)
    sign_blocks = [i - 1 - data.rotation_count for i in cover_index.indices if i > data.rotation_count]
    components = (1 << cover_index.b) // _sign_image_order(data, sign_blocks)
    return tuple(components * comb(cover_index.a, q) for q in range(cover_index.a + 1))


@dataclass(frozen=True)
class CoverE1Report:
    total: int
    per_j: tuple  # (indices, a, b, betti, subtotal) per nonempty J


def cover_e1_total(data: AbelianCharacterData) -> CoverE1Report:
    """Total E1 dimension of the block cover: sum over nonempty J of the
    total Betti of U_J.  Each subtotal is at most 2^|J|, so the total is
    at most 3^N - 1."""
    n_blocks = data.block_count
    rows = []
    total = 0
    for mask in range(1, 1 << n_blocks):
        indices = tuple(i + 1 for i in range(n_blocks) if mask >> i & 1)
        ci = BlockCoverIndex.from_data(data, indices)
        bs = local_model_betti(data, ci)
        sub = sum(bs)
        rows.append((indices, ci.a, ci.b, bs, sub))
        total += sub
    return CoverE1Report(total, tuple(rows))
