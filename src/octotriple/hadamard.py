"""Normalized symmetric Hadamard matrices of order 2, 4, 8 and their
row-permutation symmetries.

Rows and columns are indexed by bit vectors; entry[g][h] = (-1)^<g,h>
with the bit dot product, which is the Sylvester doubling pattern.  The
rows form an elementary abelian group under termwise multiplication, in
the doubling order e, a, b, ab, c, ac, bc, abc.

Row permutations induced by invertible linear maps on the 3-bit labels
preserve the set of columns; there are exactly |GL(3,2)| = 168 of them,
of which 28 also preserve the diagonal symmetry of the matrix.
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
    idx = np.arange(n)
    parity = np.zeros((n, n), dtype=np.int64)
    for g in idx:
        for h in idx:
            parity[g, h] = bin(g & h).count("1") & 1
    return SignMatrix(n, 1 - 2 * parity)


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


def _column_codes(entries: np.ndarray) -> np.ndarray:
    """Encode each column as an integer so column multisets compare fast."""
    bits = (entries > 0).astype(np.int64)
    weights = (1 << np.arange(entries.shape[0])).astype(np.int64)
    return weights @ bits


def column_set_preserving_permutations(m: SignMatrix) -> list[RowPermutation]:
    """All row permutations under which the multiset of columns is unchanged.

    Brute force over all n! permutations; n <= 8 keeps this below 41k cases.
    """
    n = m.n
    target = np.sort(_column_codes(m.entries))
    perms = np.array(list(iter_permutations(range(n))), dtype=np.intp)
    bits = (m.entries > 0).astype(np.int64)
    weights = (1 << np.arange(n)).astype(np.int64)
    codes = np.einsum("i,pih->ph", weights, bits[perms])
    codes.sort(axis=1)
    hits = np.nonzero(np.all(codes == target, axis=1))[0]
    return [RowPermutation(tuple(int(x) for x in perms[k])) for k in hits]


def _gf2_invertible(mat: np.ndarray) -> bool:
    a = mat.copy() % 2
    n = a.shape[0]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r, col]), None)
        if pivot is None:
            return False
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
        for r in range(n):
            if r != col and a[r, col]:
                a[r] ^= a[col]
    return True


def _apply_gf2(mat: np.ndarray, g: int, bits: int) -> int:
    out = 0
    for r in range(bits):
        acc = 0
        for c in range(bits):
            acc ^= mat[r, c] & (g >> c)
        out |= (acc & 1) << r
    return out


def doubling_order_permutations(m: SignMatrix) -> list[RowPermutation]:
    """Row permutations induced by linear automorphisms of the 3-bit labels.

    These are exactly the permutations that respect the doubling order of
    the rows (the group structure under termwise multiplication); each one
    preserves the column set.  Only order 8 is supported.
    """
    if m.n != 8:
        raise ValueError(f"doubling-order permutations are defined for order 8, got {m.n}")
    found = []
    for word in range(512):
        mat = np.array([[(word >> (3 * r + c)) & 1 for c in range(3)] for r in range(3)],
                       dtype=np.int64)
        if not _gf2_invertible(mat):
            continue
        found.append(RowPermutation(tuple(_apply_gf2(mat, g, 3) for g in range(8))))
    return sorted(found, key=lambda p: p.map)


def classify_symmetry(perms: list[RowPermutation], m: SignMatrix) -> tuple[int, int]:
    """Partition permutations by whether the row-permuted matrix stays symmetric.

    Returns (symmetric_count, asymmetric_count).
    """
    sym = sum(1 for p in perms if m.permuted_rows(p).is_symmetric())
    return sym, len(perms) - sym
