import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from steelrank import (
    ParameterError,
    RankedSamples,
    TiePattern,
    check_asymptotic_conditions,
    compute_midranks,
    extract_tie_pattern,
    rank_samples,
)

from _oracles import brute_midranks

samples_strategy = st.lists(
    st.integers(min_value=-5, max_value=5).map(float), min_size=1, max_size=40
)


def test_midranks_no_ties():
    assert compute_midranks([3, 1, 2]).tolist() == [3, 1, 2]


def test_midranks_two_way_tie():
    assert compute_midranks([2, 2, 5]).tolist() == [1.5, 1.5, 3]


def test_midranks_blocks():
    # rank blocks (1,2), (3), (4,5,6) by hand
    assert compute_midranks([1, 1, 2, 3, 3, 3]).tolist() == [1.5, 1.5, 3, 5, 5, 5]


@given(samples_strategy)
def test_midranks_match_definition(values):
    assert compute_midranks(values).tolist() == brute_midranks(values)


@given(samples_strategy)
def test_midrank_sum_identity(values):
    n = len(values)
    assert compute_midranks(values).sum() == n * (n + 1) / 2


@given(samples_strategy, st.randoms(use_true_random=False))
def test_midranks_permutation_equivariant(values, rnd):
    perm = list(range(len(values)))
    rnd.shuffle(perm)
    base = compute_midranks(values)
    permuted = compute_midranks([values[i] for i in perm])
    assert permuted.tolist() == [base[i] for i in perm]


@given(samples_strategy, st.randoms(use_true_random=False))
def test_tie_pattern_permutation_invariant(values, rnd):
    shuffled = list(values)
    rnd.shuffle(shuffled)
    assert extract_tie_pattern(values) == extract_tie_pattern(shuffled)


def test_block_midrank_identity():
    # midrank of the v-th distinct value is D_v - d_v + (d_v + 1)/2
    values = [5, 5, 7, 7, 7, 9, 11, 11]
    tie = extract_tie_pattern(values)
    mids = sorted(set(compute_midranks(values)))
    cum = 0
    for v, d in enumerate(tie.d):
        cum += d
        assert mids[v] == cum - d + (d + 1) / 2


def test_tie_pattern_examples():
    assert extract_tie_pattern([1, 1, 2, 3, 3, 3]) == TiePattern((2, 1, 3))
    assert extract_tie_pattern([7, 7, 7, 7]) == TiePattern((4,))
    assert extract_tie_pattern([5, 1, 4, 2]) == TiePattern((1, 1, 1, 1))


def test_tie_pattern_sums():
    tie = TiePattern((2, 1, 3))
    assert (tie.e, tie.N) == (3, 6)
    assert (tie.s2, tie.s3, tie.s3_plus) == (8, 6, 30)
    none = TiePattern.no_ties(5)
    assert none.s2 == none.s3 == none.s3_plus == 0


@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=40))
def test_tie_sums_equal_the_per_entry_sums(d):
    _check_tie_sums(TiePattern(tuple(d)))


def test_tie_sums_stay_exact_past_the_int64_range():
    big = 2**21 + 3  # big**3 passes 2**63
    for d in [(big,), (big, 1, big, 5, 1), (2**40, 2, 2**40 + 1)]:
        _check_tie_sums(TiePattern(d))


def _check_tie_sums(tie):
    assert tie.s2 == sum(m * (m - 1) for m in tie.d)
    assert tie.s3 == sum(m * (m - 1) * (m - 2) for m in tie.d)
    assert tie.s3_plus == sum(m * (m - 1) * (m + 1) for m in tie.d)
    assert all(type(x) is int for x in (tie.s2, tie.s3, tie.s3_plus))


def test_an_empty_tie_pattern_is_refused():
    for make in (lambda: TiePattern(()), lambda: TiePattern.no_ties(0)):
        with pytest.raises(ParameterError, match="empty sample"):
            make()


def test_empty_sample_errors():
    with pytest.raises(ParameterError, match="empty sample"):
        compute_midranks([])
    with pytest.raises(ParameterError, match="empty sample"):
        extract_tie_pattern([])


def test_nan_reports_index():
    with pytest.raises(ParameterError, match="non-orderable value at index 2"):
        compute_midranks([1.0, 2.0, float("nan"), 4.0])


@pytest.mark.parametrize("groups, message", [
    (["ab", [1.0, 2.0]], "non-orderable value at index 0"),
    ([[1.0, None], [2.0, 3.0]], "non-orderable value at index 1"),
    ([[1.0, [2.0, 3.0]], [2.0, 3.0]], "non-orderable value at index 1"),
    ([[[1.0, 2.0], [3.0, 4.0]], [1.0]], "expected a one-dimensional sample"),
    ([(v for v in [1.0, 2.0]), [3.0]], "sample is not a flat sequence of scores"),
])
def test_rank_samples_refuses_groups_that_are_not_flat_score_sequences(groups, message):
    with pytest.raises(ParameterError, match=message):
        rank_samples(groups)


def test_diagnostics_fully_tied_warns():
    s = rank_samples([[7, 7], [7, 7]])
    diag = check_asymptotic_conditions(s, epsilon=0.1)
    assert diag.max_tie_fraction == 1.0
    assert any(w.startswith("extreme ties") for w in diag.warnings)


def test_diagnostics_clean_case():
    rng = np.random.default_rng(7)
    s = rank_samples([rng.normal(size=100) for _ in range(3)])
    diag = check_asymptotic_conditions(s, epsilon=0.1)
    assert diag.warnings == ()


def test_diagnostics_two_valued_flag():
    # max d/N = 0.5 <= 1 - 0.4, so no extreme-ties warning, but the two-value flag
    groups = [[0] * 50 + [1] * 50, [0] * 50 + [1] * 50, [0] * 50 + [1] * 50]
    s = rank_samples(groups)
    diag = check_asymptotic_conditions(s, epsilon=0.4)
    assert not any(w.startswith("extreme ties") for w in diag.warnings)
    assert any("two-valued" in w for w in diag.warnings)


def test_diagnostics_small_group_floor():
    s = rank_samples([[1, 2, 3], [4, 5, 6, 7, 8]])
    diag = check_asymptotic_conditions(s)
    assert any(w.startswith("small group 0") for w in diag.warnings)


def test_epsilon_out_of_range():
    s = rank_samples([[1, 2], [3, 4]])
    for eps in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ParameterError):
            check_asymptotic_conditions(s, epsilon=eps)


def test_rank_samples_structure():
    s = rank_samples([[1, 1], [2, 3], [3, 3]])
    assert s.sizes == (2, 2, 2)
    assert s.tie_pattern == TiePattern((2, 1, 3))
    assert (s.N, s.n_groups) == (6, 3)
    assert s.counts.tolist() == [[2, 0, 0], [0, 1, 1], [0, 0, 2]]
    assert [a.tolist() for a in s.scores] == [[1, 1], [2, 3], [3, 3]]
    midranks = compute_midranks(np.concatenate(s.scores))
    assert midranks.sum() == 21
    assert midranks[:2].tolist() == [1.5, 1.5]


def _checked_one_by_one(d):
    """TiePattern's rule, entry by entry: an integral value >= 1 is kept as an int,
    anything else is refused with its repr."""
    clean = []
    for m in d:
        if int(m) != m or m < 1:
            raise ParameterError(f"multiplicities must be integers >= 1, got {m!r}")
        clean.append(int(m))
    return tuple(clean)


@pytest.mark.parametrize("d", [
    (1, 2, 3), [2, 1], (2.0, 1), (1, 2.5), (0.0,), (3, 0), (1, -2), (True, 2), (False,),
    (np.int64(2), 1), (np.int64(0),), (np.uint8(4),), (np.float64(3.0),), (np.float32(1.5),),
    (np.bool_(True),), (10**30, 1), (1,) * 500 + (0,),
])
def test_tie_pattern_accepts_and_refuses_multiplicities_as_one_by_one(d):
    try:
        want = _checked_one_by_one(d)
    except ParameterError as exc:
        with pytest.raises(ParameterError) as got:
            TiePattern(d)
        assert str(got.value) == str(exc)
        return
    tie = TiePattern(d)
    assert tie.d == want and type(tie.d) is tuple
    assert all(type(m) is int for m in tie.d)
    assert hash(tie) == hash(TiePattern(want)) and tie == TiePattern(want)


def test_ranked_samples_hold_four_required_fields_and_compare_by_identity():
    fields = dataclasses.fields(RankedSamples)
    assert [f.name for f in fields] == ["sizes", "tie_pattern", "counts", "scores"]
    assert all(f.default is f.default_factory is dataclasses.MISSING for f in fields)
    s = rank_samples([[1, 1], [2, 3]])
    assert s == s and s != rank_samples([[1, 1], [2, 3]])
    assert hash(s) == hash(s)


def test_ranked_samples_refuse_fields_that_disagree():
    s = rank_samples([[1, 1, 2], [2, 3]])  # tie pattern (2, 2, 1)
    fields = dict(sizes=s.sizes, tie_pattern=s.tie_pattern, counts=s.counts, scores=s.scores)
    refusals = [
        (dict(sizes=(3, 0)), "every group needs at least one observation"),
        (dict(sizes=(2, 3)), "count table does not match"),  # row sums
        (dict(counts=s.counts[:, :2]), "count table does not match"),  # shape
        (dict(counts=s.counts.ravel()), "count table does not match"),  # not a table
        (dict(counts=[[2, 0, 1], [1, 1, 0]]), "count table does not match"),  # column sums
        (dict(tie_pattern=TiePattern((2, 1, 2))), "count table does not match"),
        (dict(scores=s.scores[::-1]), "scores do not match sizes"),
    ]
    for change, message in refusals:
        with pytest.raises(ParameterError, match=message):
            RankedSamples(**{**fields, **change})
    rebuilt = RankedSamples(**{**fields, "sizes": [np.int64(3), 2.0]})
    assert rebuilt.sizes == (3, 2) and all(type(n) is int for n in rebuilt.sizes)
    assert not rebuilt.counts.flags.writeable


def test_a_callers_count_table_stays_writable_and_apart_from_the_record():
    s = rank_samples([[1, 1, 2], [2, 3, 3, 3], [1, 3]])
    assert not s.counts.flags.writeable
    mine = np.array(s.counts, dtype=np.int64)
    record = RankedSamples(s.sizes, s.tie_pattern, mine, s.scores)
    assert mine.flags.writeable and not record.counts.flags.writeable
    mine[0, 0] += 1  # the caller's array is its own: the record does not change
    np.testing.assert_array_equal(record.counts, s.counts)
