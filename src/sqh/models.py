"""Group-invariant sphere models.

One builder, `block_model`, realizes finite subgroups of O(n) on a join of
polygons and vertex pairs whose generators permute the blocks and rotate
each one; `join_f_vector` forecasts its size before it is built.  Signed
permutations permute n vertex pairs (the cross-polytope boundary), and
finite abelian groups given by exact character data rotate their polygons
and swap their pairs in place.  The same character data drives the exact
local torus model of the block cover and its E1 page count.  A model holds
only its action and its data, which `scenarios.build_model` reads from JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, gcd, lcm, prod
from typing import Iterable, Sequence

from .actions import VertexAction, close_generators
from .complexes import EMPTY_COMPLEX, SimplicialComplex, join, polygon, zero_sphere
from .errors import InvalidParameter, ResourceCapExceeded

DEFAULT_MAX_FACTOR = 64
DEFAULT_MAX_BLOCKS = 8


def join_f_vector(lengths: Iterable[int], cap: int | None = None) -> tuple:
    """The f-vector of the join that `block_model` builds on these lengths.

    Each block multiplies the generating polynomial 1 + f_0 t + f_1 t^2 + ...
    by its own: 1 + L t + L t^2 for an L-gon, 1 + 2t for S^0.  Past `cap`
    simplices it raises ResourceCapExceeded at once: later blocks only add
    simplices, so a long iterator of lengths is read no further.
    """
    poly = [1]
    for k, length in enumerate(lengths, 1):
        if length > 2:
            poly = [a + length * (b + c) for a, b, c in zip(poly + [0, 0], [0, *poly, 0], [0, 0, *poly])]
        else:
            poly = [a + 2 * b for a, b in zip(poly + [0], [0, *poly])]
        if cap is not None and sum(poly) - 1 > cap:
            raise ResourceCapExceeded(
                f"the join of the model's first {k} blocks already has {sum(poly) - 1} simplices (cap {cap})"
            )
    return tuple(poly[1:])


def block_model(lengths: Sequence[int], generators) -> VertexAction:
    """The join of one block per length, acted on by the closure of the generators.

    Block b is an L-gon for L = lengths[b] >= 3, or S^0 for L = 2, on the L
    vertices after the blocks before it.  A generator gives each block b a
    pair (target, step): vertex x of b goes to vertex (x + step) mod L of
    block `target`.  `close_generators` refuses a map that is not simplicial,
    so every element maps each block onto a block of its length, rotating a
    polygon and swapping a pair or not.

    The action records the lengths (`VertexAction.block_lengths`), and what
    the blocks fix is read off them, not the complex: the join is S^{n-1},
    whose homology is `actions.model_betti`'s sphere row, and each element's
    Lefschetz number follows from its determinant (`lefschetz_numbers`).
    """
    offsets = [0]
    model = EMPTY_COMPLEX
    for length in lengths:
        offsets.append(offsets[-1] + length)
        model = join(model, polygon(length) if length > 2 else zero_sphere())
    maps = [
        tuple(
            offsets[target] + (x + step) % length
            for length, (target, step) in zip(lengths, gen, strict=True)
            for x in range(length)
        )
        for gen in generators
    ]
    action = close_generators(model, maps)
    action.block_lengths = tuple(lengths)
    return action


def cross_polytope(n: int) -> SimplicialComplex:
    """Boundary of the n-dimensional cross-polytope, the join of n vertex pairs:
    +e_i is vertex 2i - 2 and -e_i is 2i - 1, so the antipode of v is v ^ 1."""
    return signed_permutation_action(n, ()).complex


@dataclass(frozen=True)
class SignedPermutation:
    """Monomial orthogonal map e_i -> signs[perm[i]-1] * e_{perm[i]} (1-based)."""

    perm: tuple
    signs: tuple

    def __post_init__(self):
        n = len(self.perm)
        if sorted(self.perm) != list(range(1, n + 1)):
            raise InvalidParameter(f"field 'perm' must be a permutation of 1..{n}, got {list(self.perm)}")
        if len(self.signs) != n or any(s not in (-1, 1) for s in self.signs):
            raise InvalidParameter(f"field 'signs' must hold {n} entries, each 1 or -1, got {list(self.signs)}")

    def to_json_dict(self) -> dict:
        return {"perm": list(self.perm), "signs": list(self.signs)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SignedPermutation":
        return cls(tuple(data["perm"]), tuple(data["signs"]))


def signed_permutation_action(n: int, generators: Sequence[SignedPermutation]) -> VertexAction:
    """Close the given signed permutations into a group acting on cross_polytope(n):
    axis i goes to axis perm[i], its pair swapped (step 1) where that sign is -1."""
    if n < 1:
        raise InvalidParameter(f"field 'n' must be at least 1, got {n}")
    return block_model((2,) * n, [[(t - 1, int(g.signs[t - 1] < 0)) for t in g.perm] for g in generators])


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
    # set once here: the order of each rotation character in the dual group,
    # and the blocks of the join model, the rotation polygons then the sign pairs
    rotation_orders: tuple = field(init=False, repr=False, compare=False)
    block_lengths: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ms = tuple(int(m) for m in self.invariant_factors)
        for i, m in enumerate(ms):
            if not 1 <= m <= DEFAULT_MAX_FACTOR:
                raise InvalidParameter(f"field 'invariant_factors[{i}]' must lie in 1..{DEFAULT_MAX_FACTOR}, got {m}")
        blocks = len(self.rotation_characters) + len(self.sign_characters)
        if not 1 <= blocks <= DEFAULT_MAX_BLOCKS:
            raise InvalidParameter(
                f"fields 'rotation_characters' and 'sign_characters' must hold 1..{DEFAULT_MAX_BLOCKS} "
                f"characters together, got {blocks}"
            )
        for key in ("rotation_characters", "sign_characters"):
            for j, ch in enumerate(getattr(self, key)):
                if len(ch) != len(ms):
                    raise InvalidParameter(
                        f"field '{key}[{j}]' must have one entry per invariant factor, length {len(ms)}, got {len(ch)}"
                    )
        rot = tuple(tuple(a % m for a, m in zip(ch, ms)) for ch in self.rotation_characters)
        sgn = tuple(tuple(int(e) for e in ch) for ch in self.sign_characters)
        for k, ch in enumerate(sgn):
            for i, (e, m) in enumerate(zip(ch, ms)):
                allowed = (0, 1) if m % 2 == 0 else (0,)  # no sign character is -1 on Z/m for odd m
                if e not in allowed:
                    raise InvalidParameter(
                        f"field 'sign_characters[{k}][{i}]' on Z/{m} must lie in {set(allowed)}, got {e}"
                    )
        object.__setattr__(self, "invariant_factors", ms)
        object.__setattr__(self, "rotation_characters", rot)
        object.__setattr__(self, "sign_characters", sgn)
        orders = tuple(lcm(*(m // gcd(a, m) for a, m in zip(ch, ms))) for ch in rot)
        object.__setattr__(self, "rotation_orders", orders)
        # a polygon's length is the least multiple of its order d that is >= 3: d, or d + 2 for d = 1, 2
        lengths = tuple(d if d >= 3 else d + 2 for d in orders) + (2,) * len(sgn)
        object.__setattr__(self, "block_lengths", lengths)

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
    def group_order(self) -> int:
        return prod(self.invariant_factors)

    def sign_bit(self, k: int, gen: int) -> int:
        return self.sign_characters[k][gen] & 1

    def rotation_steps(self, j: int, gen: int) -> int:
        """Rotation of generator `gen` on polygon j, in steps; the length is a
        multiple of the character's order, so the division is exact."""
        length = self.block_lengths[j]
        return self.rotation_characters[j][gen] * length // self.invariant_factors[gen] % length

    def to_json_dict(self) -> dict:
        return {
            "invariant_factors": list(self.invariant_factors),
            "rotation_characters": [list(c) for c in self.rotation_characters],
            "sign_characters": [list(c) for c in self.sign_characters],
        }


@dataclass(frozen=True)
class SphereModel:
    """A group acting on a sphere model S^{n-1}, n = dimension + 1, and its character data, if any."""

    action: VertexAction
    char_data: AbelianCharacterData | None = None

    @property
    def kernel_order(self) -> int:
        """Elements of the character data's group that act trivially (1 without data)."""
        return self.char_data.group_order // self.action.order if self.char_data else 1


def character_join_model(data: AbelianCharacterData) -> SphereModel:
    """Realize S^{n-1} as the join of block spheres with the induced action.

    Each generator of A rotates rotation block j through the character's
    image, and swaps the vertex pair of sign block k where the character
    is -1.  The acting group is the image of A: the kernel is discarded
    and its size recorded.
    """
    r = data.rotation_count
    generators = [
        [(j, data.rotation_steps(j, gen)) for j in range(r)]
        + [(r + k, data.sign_bit(k, gen)) for k in range(data.sign_count)]
        for gen in range(data.factor_count)
    ]
    return SphereModel(block_model(data.block_lengths, generators), data)


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


def local_model_betti(data: AbelianCharacterData, indices) -> tuple:
    """Exact per-degree Betti numbers of the cover piece U_J, over any field.

    J is a nonempty set of block indices in 1..`block_count` (InvalidParameter
    otherwise), a of them rotation blocks and b sign blocks.  U_J is a
    disjoint union of c_J tori of dimension a, where c_J is the number of
    orbits of the sign-pattern translation action: all orbits have the size
    of the sign-character image, so c_J = 2^b / |image|.
    """
    idx = sorted(set(indices))
    if not idx:
        raise InvalidParameter("J must be nonempty")
    if idx[0] < 1 or idx[-1] > data.block_count:
        raise InvalidParameter(f"block indices must lie in 1..{data.block_count}")
    sign_blocks = [i - 1 - data.rotation_count for i in idx if i > data.rotation_count]
    a = len(idx) - len(sign_blocks)
    components = (1 << len(sign_blocks)) // _sign_image_order(data, sign_blocks)
    return tuple(components * comb(a, q) for q in range(a + 1))


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
        bs = local_model_betti(data, indices)
        sub = sum(bs)
        b = sum(i > data.rotation_count for i in indices)
        rows.append((indices, len(indices) - b, b, bs, sub))
        total += sub
    return CoverE1Report(total, tuple(rows))
