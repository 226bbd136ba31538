"""Normalized symmetric Hadamard matrices of order 2, 4, 8 and their
row-permutation symmetries.

Rows and columns are indexed by bit vectors; entry[g][h] = (-1)^<g,h>
with the bit dot product, which is the Sylvester doubling pattern.  The
rows form an elementary abelian group under termwise multiplication, in
the doubling order e, a, b, ab, c, ac, bc, abc.

Row permutations induced by invertible linear maps on the 3-bit labels
preserve the set of columns; there are exactly |GL(3,2)| = 168 of them,
of which 28 also preserve the diagonal symmetry of the matrix.  Each map
is built from the images of labels 1, 2, 4; the independent brute force
over all n! row permutations codes columns through inverse permutations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations as iter_permutations

import numpy as np

VALID_ORDERS = (2, 4, 8)


@dataclass(frozen=True, eq=False)
class SignMatrix:
    """An n x n matrix of +-1 entries, n in {2, 4, 8}."""

    n: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        if self.n not in VALID_ORDERS:
            raise ValueError(f"order must be one of {VALID_ORDERS}, got {self.n!r}")
        arr = np.array(self.entries, dtype=np.int64)
        if arr.shape != (self.n, self.n):
            raise ValueError(f"entries must be {self.n}x{self.n}, got shape {arr.shape}")
        if not np.all(np.abs(arr) == 1):
            raise ValueError("entries must all be +1 or -1")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    def permuted_rows(self, perm: "RowPermutation") -> "SignMatrix":
        """New matrix whose row i is this matrix's row perm.map[i]."""
        if len(perm.map) != self.n:
            raise ValueError(f"permutation of length {len(perm.map)} on order {self.n}")
        return SignMatrix(self.n, self.entries[np.array(perm.map), :])

    def is_symmetric(self) -> bool:
        return bool(np.array_equal(self.entries, self.entries.T))

    def render(self) -> str:
        """Rows of '+'/'-' characters."""
        return "\n".join("".join("+" if x > 0 else "-" for x in row) for row in self.entries)


@dataclass(frozen=True)
class RowPermutation:
    """A permutation of row positions; map[i] is the source row of new row i."""

    map: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.map)
        if sorted(self.map) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {self.map!r}")

    def compose(self, other: "RowPermutation") -> "RowPermutation":
        """self after other: (self.compose(other)).map[i] = other.map[self.map[i]]."""
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


def build(n: int) -> SignMatrix:
    """Sylvester-doubling Hadamard matrix: entry[g][h] = (-1)^popcount(g & h)."""
    if n not in VALID_ORDERS:
        raise ValueError(f"order must be one of {VALID_ORDERS}, got {n!r}")
    h = np.ones((1, 1), dtype=np.int64)
    while len(h) < n:
        h = np.block([[h, h], [h, -h]])
    return SignMatrix(n, h)


def transform(values: np.ndarray) -> np.ndarray:
    """Sylvester transform along axis 0: build(n).entries @ values, n in {2, 4, 8}.

    Fast Walsh-Hadamard butterfly: each of the log2(n) stages sums and
    differences the two halves of axis 0 and interleaves the results, so
    every index bit is transformed once.  Unlike a dense matmul, a row whose
    inputs cancel in pairs comes out exactly zero.
    """
    x = np.asarray(values)
    n = x.shape[0]
    if n not in VALID_ORDERS:
        raise ValueError(f"order must be one of {VALID_ORDERS}, got {n!r}")
    h = n // 2
    rows = x.reshape(n, -1)
    for _ in range(h.bit_length()):
        a, b = rows[:h], rows[h:]
        # side by side, then split: row 2i is a[i] + b[i], row 2i + 1 is a[i] - b[i]
        rows = np.concatenate((a + b, a - b), axis=1).reshape(n, -1)
    return rows.reshape(x.shape)


def row_group_check(m: SignMatrix) -> bool:
    """True iff the rows, under termwise multiplication, form a group with
    the all-ones row as identity."""
    rows = {tuple(r) for r in m.entries}
    if tuple([1] * m.n) not in rows:
        return False
    for a in rows:
        for b in rows:
            prod = tuple(x * y for x, y in zip(a, b))
            if prod not in rows:
                return False
    return True


def column_set_preserving_permutations(m: SignMatrix) -> list[RowPermutation]:
    """All row permutations under which the multiset of columns is unchanged.

    Brute force over all n! permutations; n <= 8 keeps this below 41k cases.
    A column is coded with bit i set where row i is +1; row i of a permuted
    matrix is source row perm[i], so source row r sets bit inverse[r].
    """
    bits = (m.entries > 0).astype(np.int64)
    perms = np.array(list(iter_permutations(range(m.n))), dtype=np.intp)
    codes = (1 << np.argsort(perms, axis=1)) @ bits
    codes.sort(axis=1)
    # permutations() yields the identity first, so row 0 holds the original columns
    hits = np.nonzero(np.all(codes == codes[0], axis=1))[0]
    return [RowPermutation(tuple(int(x) for x in perms[k])) for k in hits]


def doubling_order_permutations(m: SignMatrix) -> list[RowPermutation]:
    """Row permutations induced by linear automorphisms of the 3-bit labels.

    These are exactly the permutations that respect the doubling order of
    the rows (the group structure under termwise multiplication); each one
    preserves the column set.  Only order 8 is supported.  A map sends
    labels 1, 2, 4 to a, b, c and each label to the XOR of the images of its
    set bits; it is invertible iff the eight images are distinct.
    """
    if m.n != 8:
        raise ValueError(f"doubling-order permutations are defined for order 8, got {m.n}")
    found = []
    for a, b, c in iter_permutations(range(1, 8), 3):
        image = (0, a, b, a ^ b, c, a ^ c, b ^ c, a ^ b ^ c)
        if len(set(image)) == 8:
            found.append(RowPermutation(image))
    return sorted(found, key=lambda p: p.map)


def classify_symmetry(perms: list[RowPermutation], m: SignMatrix) -> tuple[int, int]:
    """Partition permutations by whether the row-permuted matrix stays symmetric.

    Returns (symmetric_count, asymmetric_count).
    """
    sym = sum(1 for p in perms if m.permuted_rows(p).is_symmetric())
    return sym, len(perms) - sym
