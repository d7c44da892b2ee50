import dataclasses
import gc
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steelrank import _cache, gauss, moments
from steelrank import (
    ParameterError,
    TiePattern,
    cov_w,
    extract_tie_pattern,
    kth_difference,
    mean_w,
    pair_moments,
    tail_prob,
    var_w,
)
from steelrank.moments import all_pairs, control_pairs, tie_sums

from _oracles import oracle_pair_moments, random_tie_pattern, split_moments

TIE_213 = TiePattern((2, 1, 3))  # pooled values like (1, 1, 2, 3, 3, 3)


def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def test_mean_examples():
    assert mean_w(6, 6) == 18
    assert mean_w(2, 2) == 2
    assert mean_w(3, 5) == 7.5
    with pytest.raises(ParameterError):
        mean_w(0, 3)


def test_var_against_split_enumeration():
    # oracle: all 90 labeled splits of the pooled multiset into (2, 2, 2)
    values = [1, 1, 2, 3, 3, 3]
    mean, cov, m = split_moments(values, (2, 2, 2), [(0, 1), (0, 2)])
    assert m == 90
    assert cov[0, 0] == pytest.approx(41 / 30, rel=1e-12)
    assert var_w(2, 2, TIE_213) == pytest.approx(41 / 30, rel=1e-15)
    assert var_w(2, 2, TIE_213) == pytest.approx(cov[0, 0], rel=1e-12)


def test_var_no_ties_closed_form():
    assert var_w(2, 2, TiePattern.no_ties(6)) == 2 * 2 * 5 / 12


def test_var_fully_tied_is_zero():
    assert var_w(3, 4, TiePattern((7,))) == 0.0


def test_cov_against_split_enumeration():
    values = [1, 1, 2, 3, 3, 3]
    _, cov, _ = split_moments(values, (2, 2, 2), [(0, 1), (0, 2)])
    assert cov[0, 1] == pytest.approx(19 / 30, rel=1e-12)
    assert cov_w(2, 2, 2, TIE_213) == pytest.approx(19 / 30, rel=1e-15)


def test_cov_no_ties_and_fully_tied():
    assert cov_w(2, 2, 2, TiePattern.no_ties(6)) == pytest.approx(2 / 3, rel=1e-15)
    assert cov_w(2, 3, 4, TiePattern((9,))) == 0.0


def test_size_validation():
    with pytest.raises(ParameterError):
        var_w(4, 3, TIE_213)  # 4 + 3 > 6
    with pytest.raises(ParameterError):
        cov_w(3, 2, 2, TIE_213)  # 3 + 2 + 2 > 6


def test_factor_decomposition_small_case():
    ms = pair_moments((2, 2, 2), TIE_213, control_pairs(3))
    assert ms.sigma0_2 == pytest.approx(19 / 120, rel=1e-15)
    assert ms.sigma2 == pytest.approx([11 / 15, 11 / 15], rel=1e-15)
    assert ms.tau2 == pytest.approx([41 / 30, 41 / 30], rel=1e-15)
    assert ms.cov[0, 1] == pytest.approx(19 / 30, rel=1e-15)
    assert ms.mu.tolist() == [2, 2]


def test_factor_decomposition_iq_pattern(iq_groups):
    tie = extract_tie_pattern(np.concatenate(iq_groups))
    ms = pair_moments((6, 6, 6, 6), tie, control_pairs(4))
    assert math.sqrt(ms.sigma0_2) == pytest.approx(0.7062328, abs=1e-6)
    assert np.sqrt(ms.sigma2) == pytest.approx([4.540007] * 3, abs=1e-6)
    assert np.sqrt(ms.tau2) == pytest.approx([6.210249] * 3, abs=1e-6)
    assert ms.mu.tolist() == [18, 18, 18]


def test_factor_decomposition_no_ties_large():
    ms = pair_moments((100, 100, 100), TiePattern.no_ties(300), control_pairs(3))
    assert ms.sigma0_2 == pytest.approx(100 / 12, rel=1e-15)
    assert ms.tau2 == pytest.approx([100 * 100 * 201 / 12] * 2, rel=1e-15)


def test_two_sample_reduction_matches_classical_formula():
    # with N = n0 + n1 the variance must equal the classical tie-corrected form
    for n0, n1 in [(2, 3), (4, 4), (5, 2), (6, 6)]:
        n = n0 + n1
        rng = np.random.default_rng(n0 * 10 + n1)
        for _ in range(20):
            d = random_tie_pattern(rng, n)
            tie = TiePattern(d)
            classical = Fraction(n0 * n1 * (n + 1), 12) - Fraction(
                n0 * n1 * tie.s3_plus, 12 * n * (n - 1)
            ) if n > 1 else Fraction(0)
            assert var_w(n0, n1, tie) == float(classical)


def test_tie_corrections_never_inflate_variance():
    rng = np.random.default_rng(11)
    for n_total in range(3, 11):
        for sizes in [(1, n_total - 1), (n_total // 2, n_total - n_total // 2)]:
            base = var_w(sizes[0], sizes[1], TiePattern.no_ties(n_total))
            for _ in range(20):
                tie = TiePattern(random_tie_pattern(rng, n_total))
                assert var_w(sizes[0], sizes[1], tie) <= base + 1e-12


def test_factor_consistency():
    rng = np.random.default_rng(23)
    for n_total in (6, 8, 10):
        for sizes in compositions(n_total, 3):
            for _ in range(5):
                tie = TiePattern(random_tie_pattern(rng, n_total))
                ms = pair_moments(sizes, tie, control_pairs(len(sizes)))
                n1, n2 = sizes[1], sizes[2]
                assert ms.cov[0, 1] == pytest.approx(n1 * n2 * ms.sigma0_2, rel=1e-12, abs=1e-15)
                recomposed = np.asarray(sizes[1:]) ** 2 * ms.sigma0_2 + ms.sigma2
                assert recomposed == pytest.approx(ms.tau2, rel=1e-12)
                assert cov_w(sizes[0], n1, n2, tie) == pytest.approx(
                    ms.cov[0, 1], rel=1e-12, abs=1e-15
                )


def test_enumeration_equivalence_small_grid():
    # the full N <= 10 sweep lives in the acceptance suite; spot-check here
    rng = np.random.default_rng(5)
    for sizes in [(2, 2), (3, 2), (2, 2, 2), (3, 2, 2), (2, 2, 2, 2)]:
        n_total = sum(sizes)
        for _ in range(3):
            d = random_tie_pattern(rng, n_total)
            values = [v for v, mult in enumerate(d) for _ in range(mult)]
            pairs = [(0, i) for i in range(1, len(sizes))]
            mean, cov, _ = split_moments(values, sizes, pairs)
            for i, ni in enumerate(sizes[1:]):
                assert mean[i] == pytest.approx(mean_w(sizes[0], ni), rel=1e-12)
                assert cov[i, i] == pytest.approx(
                    var_w(sizes[0], ni, TiePattern(d)), rel=1e-10, abs=1e-12
                )
            for i in range(len(sizes) - 1):
                for j in range(i + 1, len(sizes) - 1):
                    expected = cov_w(sizes[0], sizes[1 + i], sizes[1 + j], TiePattern(d))
                    assert cov[i, j] == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_degenerate_pattern_is_all_zero():
    ms = pair_moments((3, 4), TiePattern((7,)), control_pairs(2))
    assert ms.sigma0_2 == 0 and ms.tau2[0] == 0 and ms.sigma2[0] == 0
    assert ms.correction_ratio[0] == 1.0


def test_correction_ratio_zero_without_ties():
    ms = pair_moments((4, 4), TiePattern.no_ties(8), control_pairs(2))
    assert ms.correction_ratio[0] == 0.0


def test_size_mismatch():
    with pytest.raises(ParameterError):
        pair_moments((2, 2), TIE_213, control_pairs(2))  # sums to 4, N = 6


MOMENT_ARRAYS = ("mu", "tau2", "cov", "sigma2", "correction_ratio")


def _design_keys(kind):
    return [key for key in _cache.DESIGNS._items if key[0] == kind]


def test_moment_sets_are_read_only_and_kept_once_per_design():
    for count, pair_set in enumerate((control_pairs, all_pairs), start=1):
        ms = pair_moments((5, 5, 4), TiePattern.no_ties(14), pair_set(3))
        for sizes in ([5, 5, 4], np.array([5, 5, 4]), (np.int64(5), np.int32(5), np.uint8(4))):
            assert pair_moments(sizes, TiePattern.no_ties(14), pair_set(3)) is ms
        assert len(_design_keys("moments")) == count
        for name in MOMENT_ARRAYS:
            if getattr(ms, name) is not None:  # all pairs have no one-factor split
                with pytest.raises(ValueError):
                    getattr(ms, name)[0] = 1.0
    assert (ms.sigma0_2, ms.sigma2) == (None, None)


def test_pairs_other_than_control_or_all_pairs_are_refused():
    tie = TiePattern.no_ties(14)
    for pairs in (((0, 2), (0, 1), (1, 2)), ((0, 2), (0, 1)), ((0, 1), (1, 2)), ()):
        with pytest.raises(ParameterError, match="control pairs or all pairs"):
            pair_moments((5, 5, 4), tie, pairs)
    with pytest.raises(ParameterError, match="treatment-vs-control"):
        tail_prob(pair_moments((5, 5, 4), tie, all_pairs(3)), 1.0, "greater")


# A moment set with permuted pairs: the Monte Carlo kernel would tally its pairs
# in the wrong columns, so construction must refuse it even under -O, which
# strips asserts.
REORDERED_SCRIPT = """
import sys
from steelrank import MomentSet, ParameterError
from steelrank.moments import all_pairs

pairs = all_pairs(3)
try:
    MomentSet((5, 5, 4), (pairs[1], pairs[0], pairs[2]), s2=0, s3=0, s3_plus=0,
              fully_tied=False)
    print(sys.flags.optimize, "accepted")
except ParameterError:
    print(sys.flags.optimize, "refused")
"""


def test_a_reordered_pair_set_is_refused_under_python_O():
    env = dict(os.environ)
    src = str(Path(moments.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-O", "-c", REORDERED_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.split() == ["1", "refused"]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=2, max_size=6), st.data())
def test_control_block_of_all_pairs_is_the_control_pair_set(sizes, data):
    sizes = tuple(sizes)
    values = data.draw(st.lists(st.integers(0, 3), min_size=sum(sizes), max_size=sum(sizes)))
    tie = extract_tie_pattern(values)
    ctrl = pair_moments(sizes, tie, control_pairs(len(sizes)))
    full = pair_moments(sizes, tie, all_pairs(len(sizes)))
    block = [full.pairs.index(p) for p in ctrl.pairs]
    for name in ("mu", "tau2", "correction_ratio"):
        assert getattr(full, name)[block].tobytes() == getattr(ctrl, name).tobytes()
    assert full.cov[np.ix_(block, block)].tobytes() == ctrl.cov.tobytes()


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=2, max_size=5), st.data())
def test_idiosyncratic_variance_is_the_closed_form_and_positive(sizes, data):
    # sizes[0] = n0 may be 1; every pattern but the all-tied one must give sigma2 > 0
    sizes = tuple(sizes)
    n = sum(sizes)
    values = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    tie = extract_tie_pattern(values)
    ms = pair_moments(sizes, tie, control_pairs(len(sizes)))
    if tie.e == 1:
        assert not ms.sigma2.any()
        return
    n0 = sizes[0]
    num = (n0 - 2) * tie.s3 + 3 * (n - 2) * tie.s2
    frac = Fraction(num, n * (n - 1) * (n - 2)) if num else 0
    for ni, got in zip(sizes[1:], ms.sigma2):
        want = Fraction(n0 * ni, 12) * (n0 + 1 - frac)
        assert want > 0 and got > 0
        assert got == float(want)


def test_tie_patterns_with_equal_sums_share_one_moment_set():
    # (3, 4, 7) and (1, 1, 6, 6) have equal N, sums of squares and sums of cubes
    a, b = TiePattern((3, 4, 7)), TiePattern((1, 1, 6, 6))
    assert (a.N, a.s2, a.s3, a.s3_plus) == (b.N, b.s2, b.s3, b.s3_plus)
    ms = pair_moments((5, 5, 4), a, control_pairs(3))
    assert pair_moments((5, 5, 4), b, control_pairs(3)) is ms
    assert len(_design_keys("moments")) == 1
    scales = moments._scales(b.N, b.s2, b.s3, False)
    fresh = dict(zip(moments._MOMENTS, moments._pair_moments((5, 5, 4), control_pairs(3), scales)))
    for name in MOMENT_ARRAYS:
        np.testing.assert_array_equal(getattr(ms, name), fresh[name])
    assert ms.sigma0_2 == fresh["sigma0_2"]
    hand_built = moments.MomentSet((5, 5, 4), control_pairs(3), *tie_sums(b))
    assert hand_built is not ms
    for name in MOMENT_ARRAYS:
        np.testing.assert_array_equal(getattr(ms, name), getattr(hand_built, name))
    assert pair_moments((5, 5, 4), TiePattern.no_ties(14), control_pairs(3)) is not ms


def _design_nbytes():
    return sum(_cache.held_bytes(v) + _cache.ENTRY_BYTES for v in _cache.DESIGNS._items.values())


def test_the_design_cache_holds_its_byte_bound_at_500_treatments():
    # one moment set of 500 treatments holds a 500 x 500 covariance, about 1.9 MiB
    keys = []
    for n0 in (1, 2, 1):
        sizes = (n0,) + (1,) * 500
        ms = pair_moments(sizes, TiePattern.no_ties(sum(sizes)), control_pairs(len(sizes)))
        assert 2 * _cache.held_bytes(ms) > _cache.DESIGNS.limit
        assert _design_nbytes() == _cache.DESIGNS._nbytes <= _cache.DESIGNS.limit
        keys.append(list(_cache.DESIGNS._items))
    assert len(keys[0]) == len(keys[1]) == 1 and keys[0] != keys[1]
    assert keys[2] == keys[0]  # evicted by the second design, then computed again


def test_the_design_cache_bounds_the_memory_its_small_entries_hold(monkeypatch):
    # distinct small moment sets, each with the one-factor split derived after it is
    # stored: about 2 KiB each, where their arrays and fields count under 200 bytes
    limit = 256 * 2**10
    monkeypatch.setattr(_cache.DESIGNS, "limit", limit)
    tracemalloc.start()
    try:
        for sizes in itertools.product(range(1, 16), range(1, 11), range(1, 11)):
            ms = pair_moments(sizes, TiePattern.no_ties(sum(sizes)), control_pairs(3))
            gauss._split(ms)
        del ms
        gc.collect()
        full = tracemalloc.get_traced_memory()[0]
        kept = len(_cache.DESIGNS._items)
        _cache.DESIGNS.clear()
        gc.collect()
        held = full - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 50 < kept < 1500  # full, and evicting
    assert held <= 1.25 * limit


# ---------------------------------------------------------------------------
# the moments against the classical three-term formulas of ``_oracles``


def moment_bytes(out) -> dict:
    if isinstance(out, moments.MomentSet):
        out = {name: getattr(out, name) for name in
               ("tau2", "cov", "correction_ratio", "sigma2", "sigma0_2")}
    return {k: v.tobytes() if isinstance(v, np.ndarray) else v for k, v in out.items()}


designs = st.one_of(
    st.lists(st.integers(1, 3), min_size=2, max_size=12),  # unequal sizes
    st.tuples(st.integers(1, 3), st.integers(2, 12)).map(lambda nk: [nk[0]] * nk[1]),  # equal
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(designs, st.sampled_from(["ties", "untied", "fully_tied", "short"]),
       st.booleans(), st.data())
def test_pair_moments_equal_the_classical_formulas(sizes, kind, every_pair, data):
    sizes = tuple(sizes)
    n = sum(sizes)
    if kind == "ties":
        tie = extract_tie_pattern(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    elif kind == "untied":
        tie = TiePattern.no_ties(n)
    elif kind == "fully_tied":
        tie = TiePattern((n,))
    else:  # mostly a pattern over fewer values than the design holds
        tie = extract_tie_pattern(data.draw(st.lists(st.integers(0, 1), min_size=1, max_size=3)))
    pairs = (all_pairs if every_pair else control_pairs)(len(sizes))
    if tie.N != n:
        with pytest.raises(ParameterError, match="sizes sum to"):
            pair_moments(sizes, tie, pairs)
        return
    want = moment_bytes(oracle_pair_moments(sizes, tie.d, pairs))
    assert moment_bytes(pair_moments(sizes, tie, pairs)) == want


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=8))
def test_the_scales_are_nonnegative_and_r_is_zero_exactly_on_two_valued_data(d):
    tie = TiePattern(tuple(d))
    s, r, denominator = moments._scales(tie.N, tie.s2, tie.s3, tie.e == 1)
    assert denominator > 0 and s >= 0 and r >= 0
    assert (s == 0) == (tie.e == 1)
    # two values of which one repeats; untied (1, 1) has s = r = 1/12
    assert (r == 0) == (tie.e == 1 or (tie.e == 2 and tie.N > 2))


@pytest.mark.parametrize("call", [
    lambda: mean_w(math.nan, 3),
    lambda: mean_w(3, math.inf),
    lambda: TiePattern((1, math.nan)),
    lambda: TiePattern((1, -math.inf)),
    lambda: var_w(math.inf, 3, TIE_213),
    lambda: cov_w(2, 2, math.nan, TIE_213),
    lambda: pair_moments((2, math.inf), TiePattern.no_ties(4), control_pairs(2)),
    lambda: pair_moments((2, None), TiePattern.no_ties(4), control_pairs(2)),
    lambda: kth_difference([1.0, 2.0], [3.0, 4.0], math.nan),
    lambda: kth_difference([1.0, 2.0], [3.0, 4.0], math.inf),
], ids=["mean_nan", "mean_inf", "tie_nan", "tie_inf", "var_inf", "cov_nan", "pair_inf",
        "pair_none", "kth_nan", "kth_inf"])
def test_non_finite_sizes_multiplicities_and_indices_are_parameter_errors(call):
    with pytest.raises(ParameterError, match="must be (an )?integers? "):
        call()


# ---------------------------------------------------------------------------
# what a moment set carries besides its moments


def test_a_moment_set_names_the_tie_sums_of_its_design():
    tie = TiePattern((3, 4, 7))
    ms = pair_moments((5, 5, 4), tie, control_pairs(3))
    assert (ms.s2, ms.s3, ms.s3_plus, ms.fully_tied) == (tie.s2, tie.s3, tie.s3_plus, False)
    assert (ms.s2, ms.s3_plus) == (60, 420)
    assert pair_moments((5, 5, 4), TiePattern((1, 1, 6, 6)), control_pairs(3)) is ms
    untied = pair_moments((5, 5, 4), TiePattern.no_ties(14), control_pairs(3))
    assert (untied.s2, untied.s3, untied.s3_plus, untied.fully_tied) == (0, 0, 0, False)
    tied = pair_moments((5, 5, 4), TiePattern((14,)), control_pairs(3))
    assert tied.fully_tied and tied.s2 == 14 * 13


def test_the_one_factor_split_is_built_once_per_moment_set():
    ms = pair_moments((5, 5, 4), TiePattern((3, 4, 7)), control_pairs(3))
    split = gauss._split(ms)
    assert gauss._split(ms) is split
    assert gauss._split(pair_moments((5, 5, 4), TiePattern((3, 4, 7)),
                                     control_pairs(3))) is split
    n, sigma0, sigma, tau = split
    assert n.tolist() == [5.0, 4.0] and sigma0 == math.sqrt(ms.sigma0_2)
    for arr, square in ((sigma, ms.sigma2), (tau, ms.tau2)):
        assert not arr.flags.writeable
        assert arr.tobytes() == np.sqrt(square).tobytes()
    assert not n.flags.writeable
    # a copy made by hand is split on its own, to the same values
    copy = dataclasses.replace(ms)
    other = gauss._split(copy)
    assert other is not split and gauss._split(copy) is other
    assert all(np.array_equal(x, y) for x, y in zip(other, split))
    # one with other variances than its design's cannot be built
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(ms, sigma0_2=4 * ms.sigma0_2, sigma2=4 * ms.sigma2,
                            tau2=4 * ms.tau2)
    with pytest.raises(ParameterError, match="treatment-vs-control"):
        gauss._split(pair_moments((5, 5, 4), TiePattern((3, 4, 7)), all_pairs(3)))


def test_the_scales_of_a_set_are_read_off_its_design():
    tie = TiePattern((3, 4, 7))
    ms = pair_moments((5, 5, 4), tie, all_pairs(3))
    s, r, denominator = moments._scales(14, tie.s2, tie.s3, False)
    assert ms.scales() == (float(Fraction(s, denominator)), float(Fraction(r, denominator)))
    assert ms.cov[0, 1] == float(Fraction(5 * 5 * 4 * s, denominator))
    untied = pair_moments((5, 5, 4), TiePattern.no_ties(14), all_pairs(3))
    assert untied.scales() == (1 / 12, 1 / 12)
    assert pair_moments((5, 5, 4), TiePattern((14,)), all_pairs(3)).scales() == (0.0, 0.0)
    # the design fields themselves must be Python ints, as pair_moments gives them
    for fields in ({"s2": 1.5}, {"s3": -1}, {"sizes": (5, 5, math.nan)}):
        with pytest.raises(ParameterError, match="Python ints"):
            dataclasses.replace(ms, **fields)
    # tie sums of another pattern build that pattern's moments, and cannot carry these
    other = dataclasses.replace(ms, s2=0, s3=0, s3_plus=0)
    for name in MOMENT_ARRAYS[:3]:
        np.testing.assert_array_equal(getattr(other, name), getattr(untied, name))
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(ms, s2=0, s3=0, s3_plus=0, tau2=ms.tau2)


# tie sums that no pattern of the (4, 3, 5) design's 12 values has: each would
# build a set with a negative or NaN variance, or a zero scale without full ties
IMPOSSIBLE_SUMS = [
    {"s2": 10**4, "s3": 0, "s3_plus": 3 * 10**4, "fully_tied": False},  # r < 0
    {"s2": 0, "s3": 10**6, "s3_plus": 10**6, "fully_tied": False},  # s < 0
    {"s2": 0, "s3": 12 * 11 * 10, "s3_plus": 12 * 11 * 10, "fully_tied": False},  # s = 0
    {"s2": 2, "s3": 0, "s3_plus": 7, "fully_tied": False},  # s3_plus is not s3 + 3*s2
    {"s2": 12 * 11, "s3": 12 * 11 * 10, "s3_plus": 12 * 11 * 13, "fully_tied": False},
    {"s2": 0, "s3": 0, "s3_plus": 0, "fully_tied": True},
    {"s2": 0, "s3": 0, "s3_plus": 0, "fully_tied": 0},  # fully_tied must be a bool
    {"s2": True, "s3": 0, "s3_plus": 3, "fully_tied": False},
    {"s2": np.int64(2), "s3": 0, "s3_plus": 6, "fully_tied": False},
]


@pytest.mark.parametrize("sums", IMPOSSIBLE_SUMS)
@pytest.mark.parametrize("pair_set", [control_pairs, all_pairs])
def test_a_set_of_impossible_tie_sums_cannot_be_built(sums, pair_set):
    with pytest.raises(ParameterError):
        moments.MomentSet((4, 3, 5), pair_set(3), **sums)


@pytest.mark.parametrize("sizes", [[4, 3, 5], (4, 3, 0), (4, 3.0, 5), (4, True, 5), (12,), ()])
def test_a_set_of_other_than_two_or_more_python_int_sizes_cannot_be_built(sizes):
    with pytest.raises(ParameterError):
        moments.MomentSet(sizes, control_pairs(len(sizes)), s2=0, s3=0, s3_plus=0,
                          fully_tied=False)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=2, max_size=5), st.data())
def test_the_sums_of_every_tie_pattern_build_the_set_pair_moments_gives(sizes, data):
    sizes = tuple(sizes)
    n = sum(sizes)
    tie = extract_tie_pattern(data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    for pair_set in (control_pairs, all_pairs):
        built = pair_moments(sizes, tie, pair_set(len(sizes)))
        hand_built = moments.MomentSet(sizes, pair_set(len(sizes)), *tie_sums(tie))
        for f in dataclasses.fields(hand_built):
            a, b = getattr(hand_built, f.name), getattr(built, f.name)
            assert (a is b is None) or np.array_equal(a, b), f.name
        assert (hand_built.tau2 >= 0).all() and (hand_built.correction_ratio >= 0).all()


def test_a_byte_lru_sizes_each_value_once_when_it_is_stored(monkeypatch):
    sized = []
    held_bytes = _cache.held_bytes
    monkeypatch.setattr(_cache, "held_bytes", lambda v: sized.append(v) or held_bytes(v))
    entry = 80 + _cache.ENTRY_BYTES  # ten float64 and the per-entry charge
    lru = _cache.ByteLRU(3 * entry)
    values = []
    for i in range(6):
        value = np.full(10, float(i))
        value.setflags(write=False)
        values.append(value)
        assert lru.get(i, lambda: value) is value
    assert len(sized) == 6  # once per insert, never at an eviction
    assert list(lru._items) == [3, 4, 5] and lru._nbytes == 3 * entry
    assert lru._sizes == {3: entry, 4: entry, 5: entry}
    assert lru.get(4, lambda: None) is values[4] and len(sized) == 6
    lru.clear()
    assert not lru._items and not lru._sizes and lru._nbytes == 0
