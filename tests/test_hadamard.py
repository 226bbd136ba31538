import tracemalloc
from itertools import permutations as iter_permutations

import numpy as np
import pytest

from octotriple import verify
from octotriple.hadamard import (
    RowPermutation,
    SignMatrix,
    _column_set_preserving_maps,
    _doubling_order_maps,
    build,
    classify_symmetry,
    column_set_preserving_permutations,
    doubling_order_permutations,
    permuted_stack,
    row_group_check,
    symmetric_mask,
    transform,
)

A4_PRINTED = np.array([
    [1, 1, 1, 1],
    [1, -1, 1, -1],
    [1, 1, -1, -1],
    [1, -1, -1, 1],
])


def test_build_4_matches_printed_matrix():
    np.testing.assert_array_equal(build(4).entries, A4_PRINTED)


def test_build_8_row_ab():
    np.testing.assert_array_equal(build(8).entries[3], [1, -1, -1, 1, 1, -1, -1, 1])


@pytest.mark.parametrize("n", (2, 4, 8))
def test_build_is_normalized_symmetric_hadamard(n):
    m = build(n)
    assert np.all(m.entries[0] == 1)
    assert np.all(m.entries[:, 0] == 1)
    assert m.is_symmetric()
    np.testing.assert_array_equal(m.entries @ m.entries.T, n * np.eye(n, dtype=np.int64))
    np.testing.assert_array_equal(m.entries @ m.entries, n * np.eye(n, dtype=np.int64))


@pytest.mark.parametrize("n", (2, 4, 8))
def test_build_is_the_sylvester_doubling_recurrence(n):
    h = np.ones((1, 1), dtype=np.int64)
    while len(h) < n:
        h = np.block([[h, h], [h, -h]])
    entries = build(n).entries
    assert entries.dtype == np.int64 and not entries.flags.writeable
    np.testing.assert_array_equal(entries, h)


def test_build_rejects_bad_orders():
    for n in (1, 3, 6, 16, 2.0, 4.0, np.float64(8.0), True, "4"):
        with pytest.raises(ValueError, match="order must be one of"):
            build(n)


@pytest.mark.parametrize("n", (2, 4, 8))
def test_transform_equals_matrix_product_exactly(n):
    rng = np.random.default_rng(n)
    for shape in ((n,), (n, 5)):
        v = rng.integers(-1000, 1000, size=shape).astype(np.float64)
        np.testing.assert_array_equal(transform(v), build(n).entries @ v)
        np.testing.assert_array_equal(transform(transform(v)), n * v)


def test_transform_cancels_paired_rows_exactly():
    # (a - b) + (b - a) must come out as an exact zero
    a, b = np.array([0.1, 1e16, -3.7]), np.array([0.7, 3.0, 1e-300])
    out = transform(np.array([a, b, b, a]))
    np.testing.assert_array_equal(out[1], np.zeros(3))
    np.testing.assert_array_equal(out[2], np.zeros(3))


def test_transform_rejects_bad_orders():
    for n in (1, 3, 16):
        with pytest.raises(ValueError):
            transform(np.ones((n, 2)))


def test_sign_matrix_validation():
    with pytest.raises(ValueError):
        SignMatrix(4, np.zeros((4, 4)))
    with pytest.raises(ValueError):
        SignMatrix(4, np.ones((4, 2)))
    # the values as given: a cast to int64 would read 1.5 as 1, -1.9 as -1, True as 1, "1" as 1
    for entries in ([[1, 1.5], [1, -1]], [[1, -1.9], [1, -1]]):
        with pytest.raises(ValueError, match=r"\+1 or -1"):
            SignMatrix(2, entries)
    for entries in ([[True, True], [True, -1]], [["1", "1"], ["1", "-1"]],
                    np.array([[True, True], [True, False]])):
        with pytest.raises(ValueError, match="not bools or text"):
            SignMatrix(2, entries)
    signs = SignMatrix(2, [[1.0, 1], [np.int8(1), -1.0]])
    assert signs.entries.dtype == np.int64 and signs.entries.tolist() == [[1, 1], [1, -1]]


def test_render():
    assert build(2).render() == "++\n+-"
    assert build(4).render().splitlines()[1] == "+-+-"


# -- row group ------------------------------------------------------------------


@pytest.mark.parametrize("n", (2, 4, 8))
def test_rows_form_group_under_termwise_multiplication(n):
    assert row_group_check(build(n))


def _row_group_over_sets(entries):
    # reference: the group definition over a set of row tuples
    rows = {tuple(r) for r in entries.tolist()}
    return (tuple([1] * len(entries)) in rows
            and all(tuple(x * y for x, y in zip(a, b)) in rows for a in rows for b in rows))


def _row_group_cases():
    for n in (2, 4, 8):
        yield build(n).entries
    a8 = build(8).entries
    for i in range(8):
        for j in range(8):
            flipped = a8.copy()
            flipped[i, j] = -flipped[i, j]
            yield flipped
    for n in (2, 4, 8):
        for negated in [[i] for i in range(n)] + [list(range(1, n))]:
            entries = build(n).entries.copy()
            entries[negated] *= -1
            yield entries


def test_row_group_check_is_the_group_definition():
    results = []
    for entries in _row_group_cases():
        got = row_group_check(SignMatrix(len(entries), entries))
        assert got == _row_group_over_sets(entries), entries
        results.append(got)
    # the three matrices pass and each of the 64 flips fails; among the negated rows,
    # A2 with its second row negated is still a group, and the rest are not
    assert results[:3] == [True] * 3 and not any(results[3:67])
    assert sum(results[67:]) == 2


def test_flipped_sign_breaks_row_group():
    entries = build(8).entries.copy()
    entries[4, 6] = -entries[4, 6]
    assert not row_group_check(SignMatrix(8, entries))


# -- permutations -----------------------------------------------------------------


def test_row_permutation_validation_and_algebra():
    # (True, False) would otherwise index a matrix as a boolean mask
    # (0, "a") does not sort, which the validation reads as no permutation
    for bad in ((0, 0, 1), (0.0, 1.0), (True, False), (np.float64(1), 0), ("0", "1"), (0, "a")):
        with pytest.raises(ValueError, match="not a permutation"):
            RowPermutation(bad)
    with pytest.raises(ValueError, match="permutation of length 2 on order 4"):
        build(4).permuted_rows(RowPermutation((1, 0)))
    p = RowPermutation((1, 2, 0))
    q = p.inverse()
    assert q.map == (2, 0, 1)
    assert p.compose(q).map == (0, 1, 2)
    for a, b in (((0, 1), (1, 0, 2)), ((0, 1, 2), (1, 0)), ((1, 0), (2, 0, 1))):
        with pytest.raises(ValueError, match=f"length {len(a)} after one of length {len(b)}"):
            RowPermutation(a).compose(RowPermutation(b))
    assert p.cycle_notation() == "(0 1 2)"
    assert RowPermutation((0, 1, 2)).cycle_notation() == "()"
    assert RowPermutation((1, 0, 3, 2)).cycle_notation() == "(0 1)(2 3)"



def test_orders_and_permutations_accept_numpy_integers():
    # and store the Python ints they accepted
    m = build(np.int64(4))
    np.testing.assert_array_equal(m.entries, A4_PRINTED)
    assert type(m.n) is int
    signs = SignMatrix(np.int32(4), A4_PRINTED)
    assert row_group_check(signs) and type(signs.n) is int
    p = RowPermutation((np.int64(1), np.int64(0)))
    assert p.map == (1, 0) and all(type(i) is int for i in p.map)
    np.testing.assert_array_equal(build(2).permuted_rows(p).entries, [[1, -1], [1, 1]])


def test_identity_permutation_always_preserves_columns():
    for n in (2, 4):
        perms = column_set_preserving_permutations(build(n))
        assert tuple(range(n)) in {p.map for p in perms}


def _brute_force_over_tuples(m):
    # reference: all n! row orders, columns coded through argsort inverses as int64
    bits = (m.entries > 0).astype(np.int64)
    perms = np.array(list(iter_permutations(range(m.n))), dtype=np.intp)
    codes = (1 << np.argsort(perms, axis=1)) @ bits
    codes.sort(axis=1)
    hits = np.nonzero(np.all(codes == codes[0], axis=1))[0]
    return [tuple(int(x) for x in perms[k]) for k in hits]


def _random_sign_matrices(n, seed):
    # plain, with a repeated row, with repeated columns, with both
    rng = np.random.default_rng(seed)
    for _ in range(4):
        for repeat_row in (False, True):
            for repeat_cols in (False, True):
                entries = rng.choice((-1, 1), size=(n, n))
                if repeat_row:
                    entries[-1] = entries[0]
                if repeat_cols:
                    entries[:, 1:] = entries[:, rng.integers(0, 2, size=n - 1)]
                yield SignMatrix(n, entries)


@pytest.mark.parametrize("n", (2, 4, 8))
def test_pruned_search_is_the_oracle_in_order(n):
    counts = []
    for m in _random_sign_matrices(n, seed=n):
        got = [p.map for p in column_set_preserving_permutations(m)]
        assert got == _brute_force_over_tuples(m)
        counts.append(len(got))
    # repeated rows and columns leave many orders: the search is not only finding the identity
    assert max(counts) > 1


def test_pruned_search_keeps_every_order_of_the_all_ones_matrix():
    got = column_set_preserving_permutations(SignMatrix(8, np.ones((8, 8))))
    assert [p.map for p in got] == list(iter_permutations(range(8)))


def test_pruned_search_peak_memory_at_order_8():
    m = build(8)
    tracemalloc.start()
    try:
        column_set_preserving_permutations(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the n! enumeration peaked at ~1.3 MB; the pruned levels hold at most 168 x 8 prefixes
    assert peak <= 512 * 1024


@pytest.mark.parametrize("n", (2, 4, 8))
def test_brute_force_matches_the_tuple_enumeration_in_order(n):
    m = build(n)
    assert [p.map for p in column_set_preserving_permutations(m)] == _brute_force_over_tuples(m)


def test_brute_force_tracks_a_matrix_with_repeated_columns():
    # columns (+,+,-,-) twice: swapping rows 0,1 or rows 2,3 keeps the multiset
    m = SignMatrix(4, [[1, 1, 1, 1], [1, 1, 1, 1], [-1, -1, 1, 1], [-1, -1, 1, 1]])
    got = [p.map for p in column_set_preserving_permutations(m)]
    assert got == _brute_force_over_tuples(m)
    assert got == [(0, 1, 2, 3), (0, 1, 3, 2), (1, 0, 2, 3), (1, 0, 3, 2)]


def _linear_label_maps():
    # reference: the images of labels 1, 2, 4 from itertools, kept where all eight differ
    found = []
    for a, b, c in iter_permutations(range(1, 8), 3):
        image = (0, a, b, a ^ b, c, a ^ c, b ^ c, a ^ b ^ c)
        if len(set(image)) == 8:
            found.append(image)
    return sorted(found)


def test_map_tables_match_itertools():
    a4 = build(4)
    csp4 = _column_set_preserving_maps(a4.entries)
    assert csp4.dtype == np.uint8
    assert list(map(tuple, csp4.tolist())) == _brute_force_over_tuples(a4)
    linear = _linear_label_maps()
    assert len(linear) == 168
    for maps in (_doubling_order_maps(), _column_set_preserving_maps(build(8).entries)):
        assert maps.dtype == np.uint8 and list(map(tuple, maps.tolist())) == linear
    # the public forms wrap the same rows
    assert [p.map for p in doubling_order_permutations(build(8))] == linear
    assert [p.map for p in column_set_preserving_permutations(a4)] == _brute_force_over_tuples(a4)


def test_a4_column_preserving_permutations_fix_the_top_row():
    perms = column_set_preserving_permutations(build(4))
    maps = {p.map for p in perms}
    # all six permutations of rows 1..3 qualify
    for rest in iter_permutations((1, 2, 3)):
        assert (0,) + rest in maps
    assert len(maps) == 6


def test_doubling_order_permutations_count_168():
    perms = doubling_order_permutations(build(8))
    assert len(perms) == 168
    assert len({p.map for p in perms}) == 168


@pytest.mark.parametrize("search, orders", (
    (column_set_preserving_permutations, (4, 8)),
    (doubling_order_permutations, (8,)),
))
def test_searched_maps_are_the_validated_permutations(search, orders):
    # both searches build their maps as distinct rows and skip re-validating them
    for n in orders:
        for p in search(build(n)):
            assert type(p.map) is tuple and all(type(i) is int for i in p.map)
            assert p == RowPermutation(p.map) and hash(p) == hash(RowPermutation(p.map))


def test_doubling_order_permutations_rejects_other_orders():
    with pytest.raises(ValueError):
        doubling_order_permutations(build(4))


def test_automorphism_permutations_form_a_group():
    perms = doubling_order_permutations(build(8))
    maps = {p.map for p in perms}
    assert tuple(range(8)) in maps
    for p in perms:
        assert p.inverse().map in maps
    # closure on a deterministic sample plus full closure of a subgroup copy
    for p in perms[:20]:
        for q in perms[:20]:
            assert p.compose(q).map in maps


def test_every_automorphism_preserves_the_column_set():
    m = build(8)
    original = sorted(map(tuple, m.entries.T.tolist()))
    for p in doubling_order_permutations(m):
        permuted = m.permuted_rows(p)
        assert sorted(map(tuple, permuted.entries.T.tolist())) == original


def test_automorphisms_are_exactly_the_column_preserving_permutations():
    # brute force agrees with the linear-automorphism construction
    m = build(8)
    brute = {p.map for p in column_set_preserving_permutations(m)}
    linear = {p.map for p in doubling_order_permutations(m)}
    assert linear == brute


def test_a4_brute_force_matches_permuting_every_row_order():
    # reference route: materialize each of the 24 row orders and compare sorted columns
    m = build(4)
    original = sorted(map(tuple, m.entries.T.tolist()))
    expected = set()
    for order in iter_permutations(range(4)):
        permuted = m.permuted_rows(RowPermutation(order))
        if sorted(map(tuple, permuted.entries.T.tolist())) == original:
            expected.add(order)
    assert {p.map for p in column_set_preserving_permutations(m)} == expected


def test_bit_swap_automorphism_exchanges_paired_rows():
    # swapping label bits 0 and 1 exchanges rows 1,2 and rows 5,6
    perms = doubling_order_permutations(build(8))
    target = (0, 2, 1, 3, 4, 6, 5, 7)
    assert target in {p.map for p in perms}
    m = build(8)
    original = sorted(map(tuple, m.entries.T.tolist()))
    permuted = m.permuted_rows(RowPermutation(target))
    assert sorted(map(tuple, permuted.entries.T.tolist())) == original


def test_classification_counts_28_symmetric_140_asymmetric():
    m = build(8)
    perms = doubling_order_permutations(m)
    sym, asym = classify_symmetry(perms, m)
    assert (sym, asym) == (28, 140)


def test_symmetric_mask_agrees_with_each_permuted_matrix():
    m = build(8)
    perms = doubling_order_permutations(m)
    mask = symmetric_mask(permuted_stack(perms, m))
    assert mask.tolist() == [m.permuted_rows(p).is_symmetric() for p in perms]
    assert classify_symmetry([], m) == (0, 0)
    with pytest.raises(ValueError):
        permuted_stack([RowPermutation((0, 1, 2, 3))], m)


def test_identity_is_in_the_symmetric_bucket():
    m = build(8)
    assert m.permuted_rows(RowPermutation(tuple(range(8)))).is_symmetric()


def test_an_asymmetric_automorphism_exists():
    m = build(8)
    perms = doubling_order_permutations(m)
    asym = [p for p in perms if not m.permuted_rows(p).is_symmetric()]
    assert asym
    for p in asym[:5]:
        permuted = m.permuted_rows(p)
        assert sorted(map(tuple, permuted.entries.T.tolist())) == \
            sorted(map(tuple, m.entries.T.tolist()))


def test_a4_swap_of_last_two_rows_reorders_columns_1342():
    # after swapping the last two rows, reading the columns left to right
    # gives the matrix's own rows in the order 1, 3, 4, 2
    swapped = build(4).permuted_rows(RowPermutation((0, 1, 3, 2)))
    order = (0, 2, 3, 1)
    for j in range(4):
        np.testing.assert_array_equal(swapped.entries[:, j], swapped.entries[order[j]])
    assert not swapped.is_symmetric()


@pytest.mark.parametrize("broken", ("dropped", "non_linear"))
def test_hadamard_suite_fails_on_a_broken_automorphism_set(monkeypatch, broken):
    linear = verify.hd._doubling_order_maps

    def tampered():
        maps = linear()[:-1]
        if broken == "non_linear":
            # keeps the count at 168; a linear map fixing 2 and 4 fixes 6, this one sends it to 7
            maps = np.vstack((maps, np.array([0, 1, 2, 3, 4, 5, 7, 6], dtype=np.uint8)))
        return maps

    monkeypatch.setattr(verify.hd, "_doubling_order_maps", tampered)
    [rep] = verify.run_all(verify.RunConfig(trials=1, dims=(8,)), suites=("hadamard",))
    assert not rep.passed
    assert rep.details["channels"]["group_closure"] > 0
    assert rep.details["channels"]["group_inverse"] > 0
