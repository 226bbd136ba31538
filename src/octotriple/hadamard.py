"""Normalized symmetric Hadamard matrices of order 2, 4, 8 and their
row-permutation symmetries.

Rows and columns are indexed by bit vectors; entry[g][h] = (-1)^<g,h>
with the bit dot product, which is the Sylvester doubling pattern.  The
rows form an elementary abelian group under termwise multiplication, in
the doubling order e, a, b, ab, c, ac, bc, abc.

Row permutations induced by invertible linear maps on the 3-bit labels
preserve the set of columns; there are exactly |GL(3,2)| = 168 of them,
of which 28 also preserve the diagonal symmetry of the matrix.  Each map
is built from the images of labels 1, 2, 4; the independent exact search
never uses that structure and prunes row prefixes whose partial column
codes already differ from the matrix's.

As in `core` and `triple`, each check is done once, by an array form `_name`
on integer arrays: a matrix is its int64 entries and a set of maps is one
uint8 array with a row of source rows per map.  The public functions only
wrap the result in `SignMatrix` and `RowPermutation`, and the verify suite
calls the array forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _as_int, _is_integer, _real_matrix

VALID_ORDERS = (2, 4, 8)


def _check_order(n: int) -> int:
    return _as_int("order", n, VALID_ORDERS)


@dataclass(frozen=True, eq=False)
class SignMatrix:
    """An n x n matrix of +-1 entries, n in {2, 4, 8}."""

    n: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        if (n := _check_order(self.n)) is not self.n:
            object.__setattr__(self, "n", n)
        arr = _real_matrix(self.entries, self.n)
        if not np.all(np.abs(arr) == 1):   # before the cast, which reads 1.5 as 1
            raise ValueError("entries must all be +1 or -1")
        arr = arr.astype(np.int64)
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    def permuted_rows(self, perm: "RowPermutation") -> "SignMatrix":
        """New matrix whose row i is this matrix's row perm.map[i]."""
        if len(perm.map) != self.n:
            raise ValueError(f"permutation of length {len(perm.map)} on order {self.n}")
        return SignMatrix(self.n, self.entries[np.array(perm.map), :])

    def is_symmetric(self) -> bool:
        return bool(symmetric_mask(self.entries))

    def render(self) -> str:
        """Rows of '+'/'-' characters."""
        return "\n".join("".join("+" if x > 0 else "-" for x in row) for row in self.entries)


@dataclass(frozen=True)
class RowPermutation:
    """A permutation of row positions; map[i] is the source row of new row i."""

    map: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.map)
        # integers only: 1.0 and True would pass the sorted test, and numpy
        # reads a bool index array as a mask; the sorted test is the cheaper,
        # so it runs first, and values that do not order with ints fail it
        try:
            valid = sorted(self.map) == list(range(n)) and all(map(_is_integer, self.map))
        except TypeError:
            valid = False
        if not valid:
            raise ValueError(f"not a permutation of 0..{n - 1}: {self.map!r}")
        object.__setattr__(self, "map", tuple(map(int, self.map)))   # numpy integers too

    def compose(self, other: "RowPermutation") -> "RowPermutation":
        """self after other: (self.compose(other)).map[i] = other.map[self.map[i]]."""
        if len(self.map) != len(other.map):
            raise ValueError(f"permutation of length {len(self.map)} after one of length "
                             f"{len(other.map)}")
        return RowPermutation(tuple(other.map[i] for i in self.map))

    def inverse(self) -> "RowPermutation":
        inv = [0] * len(self.map)
        for i, j in enumerate(self.map):
            inv[j] = i
        return RowPermutation(tuple(inv))

    def cycle_notation(self) -> str:
        """One-line cycle notation, fixed points omitted; identity is '()'."""
        seen = [False] * len(self.map)
        parts = []
        for start in range(len(self.map)):
            if seen[start] or self.map[start] == start:
                seen[start] = True
                continue
            cycle = [start]
            seen[start] = True
            j = self.map[start]
            while j != start:
                cycle.append(j)
                seen[j] = True
                j = self.map[j]
            parts.append("(" + " ".join(str(k) for k in cycle) + ")")
        return "".join(parts) or "()"


def _build(n: int) -> np.ndarray:
    """The entries of build(n), for n in VALID_ORDERS, as a fresh int64 array."""
    labels = np.arange(n, dtype=np.int64)
    x = labels[:, None] & labels
    # labels are below 8: two shifted XORs fold the parity of three bits into bit 0
    x ^= x >> 2
    x ^= x >> 1
    return 1 - 2 * (x & 1)


def build(n: int) -> SignMatrix:
    """Sylvester-doubling Hadamard matrix: entry[g][h] = (-1)^popcount(g & h)."""
    n = _check_order(n)
    return SignMatrix(n, _build(n))


def transform(values: np.ndarray) -> np.ndarray:
    """Sylvester transform along axis 0: build(n).entries @ values, n in {2, 4, 8}.

    Fast Walsh-Hadamard butterfly: each of the log2(n) stages sums and
    differences the two halves of axis 0 and interleaves the results, so
    every index bit is transformed once.  Unlike a dense matmul, a row whose
    inputs cancel in pairs comes out exactly zero.
    """
    x = np.asarray(values)
    n = x.shape[0]
    _check_order(n)
    h = n // 2
    rows = x.reshape(n, -1)
    for _ in range(h.bit_length()):
        a, b = rows[:h], rows[h:]
        # side by side, then split: row 2i is a[i] + b[i], row 2i + 1 is a[i] - b[i]
        rows = np.concatenate((a + b, a - b), axis=1).reshape(n, -1)
    return rows.reshape(x.shape)


def _permutations(maps: np.ndarray) -> list[RowPermutation]:
    return [RowPermutation(tuple(row)) for row in maps.tolist()]


def _row_group_check(entries: np.ndarray) -> bool:
    """row_group_check on an (n, n) array of +-1 entries."""
    # a row is coded with bit j set where entry j is -1, so the all-ones row is code 0 and
    # the termwise product of two rows is the XOR of their codes; present[c] says whether
    # some row has code c
    n = entries.shape[1]
    codes = (entries < 0).astype(np.intp) @ (1 << np.arange(n))
    present = np.zeros(1 << n, dtype=bool)
    present[codes] = True
    return bool(present[0] and present[codes[:, None] ^ codes].all())


def row_group_check(m: SignMatrix) -> bool:
    """True iff the rows, under termwise multiplication, form a group with
    the all-ones row as identity."""
    return _row_group_check(m.entries)


def _column_set_preserving_maps(entries: np.ndarray) -> np.ndarray:
    """column_set_preserving_permutations on an (n, n) array of +-1 entries, n in
    VALID_ORDERS: one row of source rows per map, as uint8, in the same order."""
    n = len(entries)
    code = np.dtype(f"u{n}")   # n uint8 column codes, sorted, read as one integer
    bits = (entries > 0).astype(np.uint8)
    rows = np.arange(n)
    free = ((np.arange(1 << n)[:, None] >> rows) & 1) == 0   # free[used, r]: r not in used
    maps = np.zeros((1, 0), dtype=np.uint8)
    used = np.zeros(1, dtype=np.intp)            # bit r set where the prefix holds source row r
    codes = np.zeros((1, n), dtype=np.uint8)     # partial column codes, unsorted
    target = np.zeros(n, dtype=np.uint8)         # those of the first rows in place
    for k in range(n):
        parent, row = np.nonzero(free[used])     # row-major: in lexicographic order
        codes = codes[parent] | (bits[row] << k)
        target |= bits[k] << k
        keep = np.sort(codes, axis=1).view(code)[:, 0] == np.sort(target).view(code)[0]
        parent, row, codes = parent[keep], row[keep], codes[keep]
        maps = np.concatenate((maps[parent], row[:, None].astype(np.uint8)), axis=1)
        used = used[parent] | (1 << row)
    return maps


def column_set_preserving_permutations(m: SignMatrix) -> list[RowPermutation]:
    """All row permutations under which the multiset of columns is unchanged,
    in the lexicographic order of itertools.permutations.

    Exact prefix-pruned search.  A column is coded with bit i set where row i
    of the permuted matrix (source row perm[i]) is +1.  Level k holds, in
    lexicographic order, every k-row prefix of distinct source rows whose
    k-bit partial column codes, sorted, equal those of the first k rows;
    each level extends every prefix by every unused row, in increasing
    order, and keeps the matches.  No solution is pruned: a permutation that
    preserves the column multiset preserves its projection onto the first k
    rows.  Codes are below 2^8, so uint8 holds them exactly.
    """
    return _permutations(_column_set_preserving_maps(m.entries))


def _doubling_order_maps() -> np.ndarray:
    """doubling_order_permutations' maps as one (168, 8) uint8 array, in the same order."""
    # every (a, b, c) in 1..7, in lexicographic order; a map's entries 1, 2, 3, 4 are
    # a, b, a ^ b, c, so the maps come out in lexicographic order too
    a, b, c = np.indices((7, 7, 7), dtype=np.uint8).reshape(3, -1) + 1
    image = np.stack((np.zeros_like(a), a, b, a ^ b, c, a ^ c, b ^ c, a ^ b ^ c), axis=1)
    # invertible iff the eight images are distinct, that is iff they cover 0..7
    return image[np.bitwise_or.reduce(np.uint8(1) << image, axis=1) == 255]


def doubling_order_permutations(m: SignMatrix) -> list[RowPermutation]:
    """Row permutations induced by linear automorphisms of the 3-bit labels.

    These are exactly the permutations that respect the doubling order of
    the rows (the group structure under termwise multiplication); each one
    preserves the column set.  Only order 8 is supported.  A map sends
    labels 1, 2, 4 to a, b, c and each label to the XOR of the images of its
    set bits; it is invertible iff the eight images are distinct.  The maps
    are in lexicographic order.
    """
    if m.n != 8:
        raise ValueError(f"doubling-order permutations are defined for order 8, got {m.n}")
    return _permutations(_doubling_order_maps())


def symmetric_mask(stack: np.ndarray) -> np.ndarray:
    """Which matrices of a (..., n, n) stack equal their own transpose."""
    return np.all(stack == np.swapaxes(stack, -1, -2), axis=(-2, -1))


def permuted_stack(perms: list[RowPermutation], m: SignMatrix) -> np.ndarray:
    """m.permuted_rows(p).entries for every p in perms, as one (len(perms), n, n) array."""
    table = np.array([p.map for p in perms] or np.empty((0, m.n)), dtype=np.intp)
    if table.shape[1:] != (m.n,):
        raise ValueError(f"permutations of length {table.shape[1]} on order {m.n}")
    return m.entries[table]


def _classify_symmetry(stack: np.ndarray) -> tuple[int, int]:
    """classify_symmetry on a (k, n, n) stack of row-permuted matrices."""
    sym = int(np.count_nonzero(symmetric_mask(stack)))
    return sym, len(stack) - sym


def classify_symmetry(perms: list[RowPermutation], m: SignMatrix) -> tuple[int, int]:
    """Partition permutations by whether the row-permuted matrix stays symmetric.

    Returns (symmetric_count, asymmetric_count).
    """
    return _classify_symmetry(permuted_stack(perms, m))
