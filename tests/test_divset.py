"""Divergence-set construction, overlap counting, and measure."""

import itertools
import logging
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weylmax import divset as dv
from weylmax.divset import (
    build_divergence_set,
    from_balls,
    measure,
    overlap_pair_count,
)
from weylmax.errors import InputError, ResourceError
from weylmax.numtheory import lattice_pair_count
from weylmax.poly import family_diagonal, family_power_laplacian

from sets import good_rows

P_SQ = family_diagonal(1, 2)
P_CUBE = family_diagonal(1, 3)


def _brute_overlap_edges(x):
    """O(J^2) oracle: the bitmap positions (a, b), a < b, of the pairs of
    distinct balls whose centers are within tau = 2 rho/N per coordinate
    on the torus. Touching balls overlap; 1e-12 absorbs the rounding of
    the float distances (4/5 - 3/5 is 0.20000000000000007)."""
    tau = 2.0 * x.rho / x.N
    balls = [(x.start[q] + int(np.ravel_multi_index(b, (q,) * x.d)), q, b) for q, b in x.ball_list()]
    edges = set()
    for (a, qi, bi), (b, qj, bj) in itertools.combinations(balls, 2):
        dist = [abs(ci / qi - cj / qj) for ci, cj in zip(bi, bj)]
        if all(min(u, 1.0 - u) <= tau + 1e-12 for u in dist):
            edges.add((a, b))
    return edges


def _brute_overlap_pairs(x):
    """O(J^2) oracle of overlap_pair_count: J self-pairs and the pairs of
    _brute_overlap_edges."""
    return x.ball_count + len(_brute_overlap_edges(x))


def test_build_n4096_band_and_count():
    x = build_divergence_set(P_SQ, 4096)
    assert x.Q == 64
    assert x.primes == [67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127]
    assert x.ball_count == sum(x.primes) == 1219
    for q in x.primes:
        assert good_rows(x, q).shape[0] == q


def test_build_ball_count_floor():
    x = build_divergence_set(P_CUBE, 2048)
    floor = (1 - 0.25) / 4 * sum(q for q in x.primes)
    assert x.ball_count >= floor


def test_centers_in_lowest_terms():
    x = build_divergence_set(P_SQ, 1024)
    centers = set()
    nonzero = 0
    for q, b in x.ball_list():
        if b[0] != 0:
            nonzero += 1
            centers.add(Fraction(b[0], q))
    assert len(centers) == nonzero


def test_build_too_small_rejected():
    with pytest.raises(InputError):
        build_divergence_set(P_SQ, 32)


def test_build_drops_band_primes_dividing_the_degree(caplog):
    # N = 56: the band [7, 14) holds 7, which divides the degree of X^7
    with caplog.at_level(logging.INFO, logger="weylmax.divset"):
        x = build_divergence_set(family_diagonal(1, 7), 56)
    assert (x.Q, x.primes) == (7, [11, 13])
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("weylmax.divset", logging.INFO, "dropping band primes dividing the degree 7: [7]")]


def test_build_bitmap_guard_before_any_table(monkeypatch):
    def boom(*args):
        raise AssertionError("a good set was built")

    monkeypatch.setattr(dv, "good_set_for", boom)
    # d=2 squares at N=46341: the band's masks need sum q^2 > 2^29 bytes
    with pytest.raises(ResourceError, match="sum q\\^d = 638990207 bytes"):
        build_divergence_set(family_diagonal(2, 2), 46341)


def test_overlap_matches_bruteforce_small():
    for n in (1024, 2048):
        x = build_divergence_set(P_SQ, n)
        assert overlap_pair_count(x) == _brute_overlap_pairs(x)


def test_overlap_matches_bruteforce_cubic():
    x = build_divergence_set(P_CUBE, 1024)
    assert overlap_pair_count(x) == _brute_overlap_pairs(x)


def test_overlap_two_disjoint_singletons():
    x = from_balls(N=1024, d=1, rho=1 / 32, c=0.5, Q=32, balls=[(37, (5,)), (41, (11,))])
    assert overlap_pair_count(x) == 2


def test_overlap_same_center_counts_pair():
    # centers 0/37 and 0/41 coincide on the torus
    x = from_balls(N=1024, d=1, rho=1 / 32, c=0.5, Q=32, balls=[(37, (0,)), (41, (0,))])
    assert overlap_pair_count(x) == 3


def test_overlap_permutation_invariant():
    x = build_divergence_set(P_SQ, 1024)
    balls = x.ball_list()
    shuffled = from_balls(N=x.N, d=1, rho=x.rho, c=x.c, Q=x.Q, balls=list(reversed(balls)))
    assert overlap_pair_count(x) == overlap_pair_count(shuffled)


def test_overlap_bounded_by_constant_multiple():
    for n in (2**10, 2**12, 2**14):
        x = build_divergence_set(P_SQ, n)
        assert overlap_pair_count(x) <= 4 * x.ball_count


def test_same_q_offsets_give_self_pairs_only():
    # 2*rho*q/N < 1 across the band forces b = b'
    x = build_divergence_set(P_SQ, 4096)
    for q in x.primes:
        assert 2 * x.rho * q / x.N < 1
    zero_ball_pairs = math.comb(len(x.primes), 2)
    assert overlap_pair_count(x) == x.ball_count + zero_ball_pairs


def test_lattice_lemma_consistency_on_band():
    x = build_divergence_set(P_SQ, 4096)
    for q, qp in itertools.combinations(x.primes, 2):
        a = 4 * x.rho * q * qp / x.N
        assert lattice_pair_count(q, qp, a) <= 2 * a


def test_measure_single_ball():
    x = from_balls(N=1024, d=1, rho=1 / 32, c=0.5, Q=32, balls=[(37, (5,))])
    res = measure(x, "exact")
    assert res.estimate == pytest.approx(2 * (1 / 32) / 1024, abs=1e-18)


def test_measure_wrapping_ball():
    x = from_balls(N=1024, d=1, rho=1 / 32, c=0.5, Q=32, balls=[(37, (0,))])
    res = measure(x, "exact")
    assert res.estimate == pytest.approx(2 * (1 / 32) / 1024, abs=1e-18)


def test_measure_two_disjoint_balls_add():
    x = from_balls(N=1024, d=1, rho=1 / 32, c=0.5, Q=32, balls=[(37, (5,)), (41, (11,))])
    res = measure(x, "exact")
    assert res.estimate == pytest.approx(4 * (1 / 32) / 1024, rel=1e-12)


def test_measure_bounds_bracket_exact():
    for n in (1024, 4096, 16384):
        x = build_divergence_set(P_SQ, n)
        res = measure(x, "exact")
        assert res.lower_bound <= res.estimate <= res.upper_bound * (1 + 1e-12)


def test_measure_exact_rejects_d2():
    x = from_balls(N=1024, d=2, rho=1 / 32, c=0.5, Q=101, balls=[(103, (5, 6))])
    with pytest.raises(InputError):
        measure(x, "exact")


def test_measure_sample_guard(monkeypatch):
    x = from_balls(N=1024, d=2, rho=1 / 32, c=0.5, Q=101, balls=[(103, (5, 6))])
    with pytest.raises(ResourceError):
        measure(x, samples=dv.MC_SAMPLE_GUARD + 1)
    monkeypatch.setattr(dv, "MC_SAMPLE_GUARD", 1000)
    assert measure(x, samples=1000).samples == 1000
    with pytest.raises(ResourceError):
        measure(x, samples=1001)
    d1 = from_balls(N=1024, d=1, rho=1 / 32, c=0.5, Q=32, balls=[(37, (5,))])
    assert measure(d1, samples=10**12).method == "exact"  # the exact measure draws no sample


@pytest.mark.parametrize("balls, want", [([], 0.0), ([(37, (5,))], 1.0)], ids=["empty", "one-ball"])
def test_exact_measure_of_balls_wider_than_the_torus(balls, want):
    x = from_balls(N=1024, d=1, rho=600.0, c=0.5, Q=32, balls=balls)  # 2 rho / N > 1
    m = measure(x, "exact")
    assert m.estimate == want == _interval_union_oracle(x)
    assert m.lower_bound <= m.estimate <= m.upper_bound == len(balls)


def _interval_union_oracle(x):
    """Sequential merge of the sorted arcs, one Python tuple per segment."""
    r = x.rho / x.N
    segments = []
    for q in x.primes:
        for b in np.flatnonzero(x.mask(q)):
            lo = (b / q - r) % 1.0
            hi = lo + 2 * r
            if hi <= 1.0:
                segments.append((lo, hi))
            else:
                segments.append((lo, 1.0))
                segments.append((0.0, hi - 1.0))
    if not segments:
        return 0.0
    if 2 * r >= 1.0:
        return 1.0
    segments.sort()
    total = 0.0
    cur_lo, cur_hi = segments[0]
    for lo, hi in segments[1:]:
        if lo <= cur_hi:
            cur_hi = max(cur_hi, hi)
        else:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
    total += cur_hi - cur_lo
    return total


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_exact_measure_equals_merge_oracle(data):
    primes = data.draw(st.lists(st.sampled_from([2, 3, 5, 7, 31, 37, 41]), min_size=1, max_size=3, unique=True))
    balls = data.draw(st.lists(st.sampled_from(primes).flatmap(
        lambda q: st.tuples(st.just(q), st.tuples(st.sampled_from([0, q - 1]) | st.integers(0, q - 1)))),
        max_size=30))
    n = data.draw(st.sampled_from([64, 1024]))
    below_cutoff = float(np.nextafter(n / 2, 0.0))  # the largest rho with 2 rho / N < 1
    rho = data.draw(st.sampled_from([1 / 32, 0.5, n / 8, below_cutoff, n / 2])
                    | st.floats(1e-3, below_cutoff))
    x = from_balls(N=n, d=1, rho=rho, c=0.5, Q=2, balls=balls)
    assert measure(x, "exact").estimate == _interval_union_oracle(x)


@pytest.mark.parametrize("balls, rho", [
    ([(37, (0,))], 1 / 32),  # wraps below 0
    ([(37, (36,)), (41, (0,)), (41, (40,))], 40.0),  # wraps at both ends, overlapping
    ([(37, (b,)) for b in range(0, 37, 2)], 20.0),  # overlapping neighbours
    ([(37, (5,)), (41, (11,))], 511.0),  # nearly the whole circle
])
def test_exact_measure_equals_merge_oracle_at_the_edges(balls, rho):
    x = from_balls(N=1024, d=1, rho=rho, c=0.5, Q=32, balls=balls)
    assert measure(x, "exact").estimate == _interval_union_oracle(x)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_exact_measure_equals_merge_oracle_on_built_sets(k):
    for n in (256, 2048):
        for rho in (1 / 32, 3.0, 40.0):
            x = build_divergence_set(family_diagonal(1, k), n, rho=rho)
            assert measure(x, "exact").estimate == _interval_union_oracle(x), (n, rho)


def _decoder_sets():
    rng = np.random.default_rng(3)
    yield build_divergence_set(P_SQ, 1024)
    yield build_divergence_set(family_diagonal(2, 2), 512)
    yield from_balls(N=64, d=3, rho=1 / 32, c=0.5, Q=5, balls=_random_balls(rng, (5, 7, 11), 200, 3))
    yield from_balls(N=1024, d=2, rho=1 / 32, c=0.5, Q=101, balls=np.zeros((0, 3), dtype=np.int64))


def _rows_oracle(x):
    """Every ball's row q, b_0 .. b_{d-1}, prime after prime, residues lex."""
    blocks = [np.column_stack((np.full(len(good_rows(x, q)), q), good_rows(x, q))) for q in x.primes]
    return np.concatenate(blocks) if blocks else np.zeros((0, 1 + x.d), dtype=np.int64)


@pytest.mark.parametrize("x", _decoder_sets(), ids=["d1", "d2", "d3", "empty"])
def test_balls_stack_the_rows_of_each_prime(x):
    got = x.balls()
    assert got.dtype == np.int64 and got.shape == (x.ball_count, 1 + x.d) and got.flags.f_contiguous
    assert np.array_equal(got, _rows_oracle(x))


@pytest.mark.parametrize("x", _decoder_sets(), ids=["d1", "d2", "d3", "empty"])
def test_balls_at_positions_match_ball_list(x, monkeypatch):
    want = _rows_oracle(x)
    J = len(want)
    assert x.ball_list() == [(q, tuple(b)) for q, *b in want.tolist()]
    rng = np.random.default_rng(8)
    draws = [np.sort(rng.choice(J, size=size, replace=False)) for size in sorted({0, 1, J // 3, J} & set(range(J + 1)))]
    flat = np.flatnonzero(x.bits)  # each ball's bitmap entry
    default = dv._WINDOW
    for window in (default, 1, 7):
        monkeypatch.setattr(dv, "_WINDOW", window)
        opens = np.flatnonzero(np.diff(flat // window)) + 1  # the balls that open a window
        edge = int(opens[len(opens) // 2]) if len(opens) else 0
        # the first ball, the last, a run across a window edge and a third of the balls
        run = np.arange(max(edge - 3, 0), min(edge + 3, J))
        mixed = [np.unique(np.concatenate(([0, J - 1], run, draws[-2])))] if J else []
        for at in (draws + mixed if window == default else mixed):
            got = x.balls(at)
            assert got.shape == (len(at), 1 + x.d) and got.flags.f_contiguous
            assert np.array_equal(got, want[at])
        with pytest.raises(IndexError):
            x.balls([J])
        if J > 1:
            with pytest.raises(IndexError):
                x.balls([1, 0])


@pytest.mark.parametrize("x", _decoder_sets(), ids=["d1", "d2", "d3", "empty"])
def test_ball_blocks_cut_balls_into_bounded_blocks(x):
    for rows in (1, 7, 1000, 1 << 15):
        blocks = list(x.ball_blocks(rows))
        assert all(0 < len(b) <= rows and b.flags.f_contiguous for b in blocks)
        got = np.concatenate(blocks) if blocks else np.zeros((0, 1 + x.d), dtype=np.int64)
        assert got.dtype == np.int64 and np.array_equal(got, _rows_oracle(x))


def _run_sets():
    """Sets and a window size ``rows`` with a window that holds at least
    three primes' runs, some window edges falling inside a prime's mask."""
    rng = np.random.default_rng(11)
    yield build_divergence_set(P_SQ, 2**14), 1000  # 23 primes of 131 to 251 entries
    yield from_balls(N=64, d=2, rho=1 / 32, c=0.5, Q=5, balls=_random_balls(rng, (5, 7, 11, 13, 17), 30, 2)), 100
    yield from_balls(N=64, d=3, rho=1 / 32, c=0.5, Q=5, balls=_random_balls(rng, (5, 7, 11, 13), 60, 3)), 500


@pytest.mark.parametrize("x,rows", _run_sets(), ids=["d1", "d2", "d3"])
def test_ball_blocks_decode_across_prime_runs(x, rows, monkeypatch):
    want = _rows_oracle(x)
    J = len(want)
    flat = np.flatnonzero(x.bits)  # each ball's bitmap entry
    window = flat // rows
    prime = np.searchsorted(list(x.start.values()), flat, side="right")  # 1 + each ball's prime index
    runs = [len(np.unique(prime[window == w])) for w in range(window[-1] + 1)]
    busy = len(runs) - 1 - int(np.argmax(runs[::-1]))  # the last window with the most runs
    inside = np.flatnonzero(window == busy)
    opens = np.flatnonzero(np.diff(window)) + 1  # the first ball of each window after the first
    assert runs[busy] >= 3 and (prime[opens] == prime[opens - 1]).any()  # and some prime is cut
    rng = np.random.default_rng(4)
    picks = [
        np.arange(J),
        inside,  # every ball of the busy window: its first, last and every cut between primes
        np.sort(rng.choice(inside, size=len(inside) // 3, replace=False)),
        np.unique(np.concatenate(([0, J - 1], opens, opens - 1))),  # both sides of every window edge
        np.unique(np.concatenate(([0, J - 1], rng.choice(J, size=J // 5, replace=False)))),
    ]
    monkeypatch.setattr(dv, "_WINDOW", rows)
    for at in picks:
        blocks = list(x.ball_blocks(rows, at))
        assert all(b.dtype == np.int64 and b.flags.f_contiguous for b in blocks)
        assert np.array_equal(np.concatenate(blocks), want[at])
        assert np.array_equal(x.balls(at), want[at])
    assert np.array_equal(np.concatenate(list(x.ball_blocks(rows))), want)


def _split(table, cuts):
    """The rows of table as blocks cut at the sorted positions cuts, so
    repeated and end cuts give empty blocks."""
    edges = [0, *sorted(cuts), len(table)]
    return [table[lo:hi] for lo, hi in zip(edges, edges[1:])]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), d=st.sampled_from([1, 2, 3]))
def test_from_balls_blocks_give_the_same_bitmap(data, d):
    primes = data.draw(st.lists(st.sampled_from([5, 7, 11, 13]), min_size=1, max_size=4, unique=True))
    balls = data.draw(st.lists(
        st.sampled_from(primes).flatmap(lambda q: st.tuples(st.just(q), *[st.integers(0, q - 1)] * d)),
        min_size=1, max_size=60))
    table = np.array(balls, dtype=np.int64)  # any order, with duplicates
    ordered = np.unique(table, axis=0)
    base = dict(N=64, d=d, rho=4.0, c=0.5, Q=5)
    want = from_balls(**base, balls=ordered)
    for rows in (table, ordered):
        cuts = data.draw(st.lists(st.integers(0, len(rows)), max_size=6))
        got = from_balls(**base, balls=iter(_split(rows, cuts)))
        assert got.start == want.start
        assert got.bits.tobytes() == want.bits.tobytes()


def _error(**kwargs):
    """The error from_balls raises, as (type, message)."""
    with pytest.raises((InputError, ResourceError)) as info:
        from_balls(**kwargs)
    return info.type, str(info.value)


def test_from_balls_blocks_keep_the_error_order():
    base = dict(N=1024, d=1, rho=1 / 32, c=0.5, Q=32)
    huge, composite = [[1_000_000_007, 5]], [[38, 5]]
    bad_low, bad_high = [[37, 5], [37, 2]], [[37, 999], [41, 3]]
    cases = [
        # primality first: a composite in the last block beats the guard of the first
        ([huge, [[37, 5]], composite], InputError, "ball modulus q=38 is not prime"),
        # then the guard: a huge prime in the first block beats a bad residue in the last
        ([huge, bad_low, bad_high], ResourceError, "exceed guard"),
        # then the residue range, over every row of the smallest bad prime in every block
        ([bad_low, [[41, 40]], bad_high], InputError, "residues for q=37 must lie in [0, 37), got range [2, 999]"),
    ]
    for blocks, kind, text in cases:
        whole = np.concatenate([np.array(b, dtype=np.int64) for b in blocks])
        assert _error(**base, balls=whole) == _error(**base, balls=iter(blocks))
        got_kind, got_text = _error(**base, balls=iter(blocks))
        assert got_kind is kind and text in got_text
    # the residue range before the good-set check
    x = build_divergence_set(P_CUBE, 1024)
    q = x.primes[0]
    outside = min(set(range(q)) - {int(b) for b in good_rows(x, q)[:, 0]})
    blocks = [[[q, outside]], [[q, q]]]
    params = dict(N=1024, d=1, rho=x.rho, c=x.c, Q=x.Q, polynomial=P_CUBE)
    kind, text = _error(**params, balls=iter(blocks))
    assert kind is InputError and f"got range [{outside}, {q}]" in text
    kind, text = _error(**params, balls=iter(blocks[:1]))
    assert kind is InputError and "is not in the good set" in text


def test_montecarlo_agrees_with_exact_within_4_sigma():
    x = build_divergence_set(P_SQ, 1024)
    truth = measure(x, "exact").estimate
    for seed in (0, 1, 2):
        mc = measure(x, "montecarlo", samples=100_000, seed=seed)
        assert abs(mc.estimate - truth) <= 4 * mc.error
    low = measure(x, "montecarlo", samples=5_000, seed=0)
    assert low.low_samples


def test_montecarlo_d2_against_disjoint_sum():
    # a handful of well separated d=2 cubes: estimate ~ J * (2 rho / N)^2
    balls = [(103, (5, 6)), (103, (50, 70)), (107, (20, 90))]
    x = from_balls(N=1024, d=2, rho=4.0, c=0.5, Q=101, balls=balls)
    res = measure(x, "montecarlo", samples=200_000, seed=5)
    expect = 3 * (8.0 / 1024) ** 2
    assert abs(res.estimate - expect) <= 4 * res.error + 1e-12
    assert res.upper_bound == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("p", [
    pytest.param(family_diagonal(2, 2), id="squares"),
    pytest.param(family_diagonal(2, 3), id="cubes"),
    pytest.param(family_power_laplacian(2, 2), id="laplacian2"),
])
def test_montecarlo_d2_within_4_sigma_of_bracket(p):
    # seeds fixed in advance; the Monte Carlo estimate must not stray from
    # the deterministic [Cauchy-Schwarz lower, disjoint-sum upper] bracket
    x = build_divergence_set(p, 512)
    for seed in range(5):
        res = measure(x, "montecarlo", samples=60_000, seed=seed)
        assert res.lower_bound <= res.upper_bound
        outside = max(res.lower_bound - res.estimate, res.estimate - res.upper_bound, 0.0)
        assert outside <= 4 * res.error, (seed, res)


def test_revalidate_catches_bad_ball():
    good = build_divergence_set(P_CUBE, 1024)
    outside = None
    for q in good.primes:
        members = {b for (b,) in map(tuple, good_rows(good, q))}
        rest = sorted(set(range(q)) - members)
        if rest:
            outside = (q, rest[0])
            break
    assert outside is not None, "every good set is full; cannot build a bad ball"
    params = dict(N=good.N, d=1, rho=good.rho, c=good.c, Q=good.Q)
    balls = np.vstack((good.balls(), [outside]))
    assert from_balls(**params, balls=balls).ball_count == good.ball_count + 1
    with pytest.raises(InputError, match=rf"ball \(q={outside[0]}, b=\({outside[1]},\)\)"):
        from_balls(**params, balls=balls, polynomial=P_CUBE)
    assert from_balls(**params, balls=good.balls(), polynomial=P_CUBE).bits.tobytes() == good.bits.tobytes()


def test_from_balls_rejects_invalid_balls():
    base = dict(N=1024, d=1, rho=1 / 32, c=0.5, Q=32)
    with pytest.raises(InputError):
        from_balls(**base, balls=[(38, (5,))])
    with pytest.raises(InputError):
        from_balls(**base, balls=[(37, (5,)), (37, (999,))])
    with pytest.raises(InputError):
        from_balls(**base, balls=[(37, (-1,))])
    with pytest.raises(InputError):
        from_balls(N=1024, d=2, rho=1 / 32, c=0.5, Q=101, balls=[(103, (5, 103))])


def _random_balls(rng, primes, per_prime, d):
    return [(q, tuple(int(v) for v in rng.integers(0, q, d))) for q in primes for _ in range(per_prime)]


def test_overlap_matches_bruteforce_d2_cross_prime():
    # tau = 2 rho / N = 0.1: same-prime offsets and cross-prime candidates both hit
    rng = np.random.default_rng(3)
    balls = _random_balls(rng, (11, 13, 17, 19), 80, 2)
    x = from_balls(N=1024, d=2, rho=51.2, c=0.5, Q=11, balls=balls)
    count = overlap_pair_count(x)
    assert count == _brute_overlap_pairs(x)
    per_prime = sum(
        overlap_pair_count(from_balls(N=1024, d=2, rho=51.2, c=0.5, Q=11,
                                      balls=[b for b in balls if b[0] == q]))
        for q in x.primes
    )
    assert count > per_prime  # the set has cross-prime overlaps


def test_overlap_matches_bruteforce_d2_built_window():
    # the balls of a built d=2 set whose centers lie in [0, 0.08)^2
    x = build_divergence_set(family_diagonal(2, 2), 512)
    window = [(q, b) for q, b in x.ball_list() if max(b) < 0.08 * q]
    y = from_balls(N=x.N, d=2, rho=x.rho, c=x.c, Q=x.Q, balls=window)
    assert y.ball_count == len(window) > 500
    assert overlap_pair_count(y) == _brute_overlap_pairs(y) > y.ball_count + math.comb(len(y.primes), 2)


def test_from_balls_array_matches_list():
    rng = np.random.default_rng(0)
    balls = _random_balls(rng, (103, 101, 107), 40, 2)
    balls += balls[:7]  # duplicates collapse
    from_list = from_balls(N=1024, d=2, rho=1 / 32, c=0.5, Q=101, balls=balls)
    table = np.array([(q, *b) for q, b in balls], dtype=np.int64)
    from_array = from_balls(N=1024, d=2, rho=1 / 32, c=0.5, Q=101, balls=table)
    want = {q: sorted(set(b for qq, b in balls if qq == q)) for q in (101, 103, 107)}
    for x in (from_list, from_array):
        assert x.primes == [101, 103, 107]
        for q in x.primes:
            assert list(map(tuple, good_rows(x, q).tolist())) == want[q]
    empty = from_balls(N=1024, d=2, rho=1 / 32, c=0.5, Q=101, balls=np.zeros((0, 3), dtype=np.int64))
    assert empty.ball_count == 0 and overlap_pair_count(empty) == 0


@settings(max_examples=25, deadline=None)
@given(data=st.data(), d=st.sampled_from([1, 2, 3]))
def test_from_balls_ignores_order_and_duplicates(data, d):
    primes = data.draw(st.lists(st.sampled_from([5, 7, 11, 13]), min_size=1, max_size=3, unique=True))
    balls = sorted(set(data.draw(st.lists(
        st.sampled_from(primes).flatmap(
            lambda q: st.tuples(st.just(q), st.tuples(*[st.integers(0, q - 1)] * d))),
        min_size=1, max_size=40))))
    extra = data.draw(st.lists(st.sampled_from(balls), max_size=20))
    messy = data.draw(st.permutations(balls + extra))
    base = dict(N=64, d=d, rho=4.0, c=0.5, Q=5)  # tau = 1/8: offsets at q = 11, 13 and cross-prime pairs
    want = from_balls(**base, balls=balls)
    got = from_balls(**base, balls=messy)
    assert got.primes == want.primes
    for q in want.primes:
        assert got.mask(q).shape == (q,) * d
        assert np.array_equal(got.mask(q), want.mask(q))
    assert got.ball_list() == want.ball_list() == balls
    assert overlap_pair_count(got) == overlap_pair_count(want) == _brute_overlap_pairs(want)


@pytest.mark.parametrize("params", [
    dict(N=0), dict(d=0), dict(rho=float("nan")), dict(rho=float("inf")), dict(rho=-1.0),
    dict(rho=0.0), dict(c=0.0), dict(c=1.0),
])
def test_from_balls_rejects_invalid_parameters(params):
    base = dict(N=1024, d=1, rho=1 / 32, c=0.5, Q=32)
    with pytest.raises(InputError):
        from_balls(**{**base, **params}, balls=[(37, (5,))])


def test_from_balls_rejects_misshapen_balls():
    base = dict(N=1024, d=2, rho=1 / 32, c=0.5, Q=101)
    with pytest.raises(InputError):
        from_balls(**base, balls=[(103, (5,))])
    with pytest.raises(InputError):
        from_balls(**base, balls=[(103, (5, 6)), (103, (5,))])
    with pytest.raises(InputError):
        from_balls(**base, balls=np.array([[103, 5, 6, 7]]))


def test_overlap_batched_lookup_flushes(monkeypatch):
    rng = np.random.default_rng(4)
    x = from_balls(N=1024, d=2, rho=51.2, c=0.5, Q=11, balls=_random_balls(rng, (11, 13, 17), 60, 2))
    want = overlap_pair_count(x)
    monkeypatch.setattr(dv, "_KEY_BATCH", 7)
    assert overlap_pair_count(x) == want


def test_overlap_matches_bruteforce_d2_built_window_large_radius():
    # rho = 2: many cross-prime candidates per prime pair, built in one batch
    x = build_divergence_set(family_diagonal(2, 2), 512, rho=2.0)
    window = [(q, b) for q, b in x.ball_list() if max(b) < 0.05 * q]
    y = from_balls(N=x.N, d=2, rho=x.rho, c=x.c, Q=x.Q, balls=window)
    assert y.ball_count > 100
    assert overlap_pair_count(y) == _brute_overlap_pairs(y) > 3 * y.ball_count


def _edges(x):
    """The pairs of overlap_edges as two flat position arrays."""
    blocks = list(dv.overlap_edges(x))
    if not blocks:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    return np.concatenate([a for a, _ in blocks]), np.concatenate([b for _, b in blocks])


@settings(max_examples=30, deadline=None)
@given(data=st.data(), d=st.sampled_from([1, 2, 3]))
def test_overlap_edges_are_the_overlapping_pairs(data, d):
    primes = data.draw(st.lists(st.sampled_from([5, 7, 11]), min_size=1, max_size=3, unique=True))
    balls = data.draw(st.lists(
        st.sampled_from(primes).flatmap(
            lambda q: st.tuples(st.just(q), st.tuples(*[st.integers(0, q - 1)] * d))),
        min_size=1, max_size=40))
    # N = 64: tau = 2 rho/N in [0.2, 0.625], so every prime's lines reach past k = 0,
    # and from rho = 16 on, every pair of a prime with itself is a candidate
    rho = data.draw(st.floats(6.4, 20.0))
    x = from_balls(N=64, d=d, rho=rho, c=0.5, Q=5, balls=balls)
    a, b = _edges(x)
    pairs = list(zip(a.tolist(), b.tolist()))
    assert len(set(pairs)) == len(pairs)
    assert (a < b).all() and x.bits[a].all() and x.bits[b].all()
    assert set(pairs) == _brute_overlap_edges(x)
    assert overlap_pair_count(x) == x.ball_count + len(pairs)


@pytest.mark.parametrize("d, primes, rho", [
    (1, (5, 7, 11), 6.4),  # tau = 0.2: tau*5 = 1, tau*5*7 = 7, tau*5*11 = 11
    (2, (5, 7), 6.4),
    (3, (5, 7), 6.4),
    (1, (5, 7, 11), 64 / 11),  # tau = 2/11: tau*11 = 2, tau*5*11 = 10, tau*7*11 = 14
    (2, (7, 11), 32 / 7),  # tau = 1/7, its float just below: tau*7 = 1, tau*7*11 = 11
])
def test_overlap_touching_balls(d, primes, rho):
    balls = [(q, b) for q in primes for b in itertools.product(range(q), repeat=d)]
    x = from_balls(N=64, d=d, rho=rho, c=0.5, Q=5, balls=balls)
    tau = 2.0 * rho / 64
    reach = [tau * q * qp / math.gcd(q, qp) for q, qp in itertools.combinations_with_replacement(primes, 2)]
    assert any(r > 0.5 and abs(r - round(r)) < 1e-9 for r in reach)  # some lines end on a touching pair
    assert overlap_pair_count(x) == _brute_overlap_pairs(x)
    a, b = _edges(x)
    assert set(zip(a.tolist(), b.tolist())) == _brute_overlap_edges(x)


def test_overlap_product_guard(monkeypatch):
    rng = np.random.default_rng(5)
    x = from_balls(N=1024, d=2, rho=51.2, c=0.5, Q=11, balls=_random_balls(rng, (11, 13), 30, 2))
    assert overlap_pair_count(x) == _brute_overlap_pairs(x)
    # tau*11 = 1.1: the first prime pair, (11, 11), has 3 lines of 11 candidates, 33^2 = 1089 products
    monkeypatch.setattr(dv, "PRODUCT_GUARD", 1088)
    with pytest.raises(ResourceError, match="1089 candidate products up to primes \\(11, 11\\) exceed guard 1088"):
        overlap_pair_count(x)


def test_overlap_product_guard_before_any_candidate_list():
    # X^2 at N = 2^20, rho = 1e6: 2 tau >= 1, so each of the 137 primes' pairs has q*q' candidates,
    # 2.2e10 in all; the guard trips at (1033, 1327), where listing them would hold 2.7e8 tuples
    x = build_divergence_set(P_SQ, 2**20, rho=1e6)
    assert (x.ball_count, len(x.primes)) == (208_987, 137)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="up to primes \\(1033, 1327\\) exceed guard"):
            measure(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak


def test_overlap_walk_memory_is_one_batch(monkeypatch):
    # X^2 at N = 2048, rho = 1000: 10 primes, 232 903 overlap pairs (self-pairs included); the walk holds its
    # prime pairs' lines and one batch, never a pair's candidates
    x = build_divergence_set(P_SQ, 2048, rho=1000.0)
    assert (x.ball_count, len(x.primes)) == (682, 10)
    monkeypatch.setattr(dv, "_KEY_BATCH", 1 << 12)
    tracemalloc.start()
    try:
        pairs = overlap_pair_count(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pairs == 232_903 and peak < 4 << 20, peak


def _full_sweep_measure(x, samples, seed):
    """Oracle: the per-prime Monte Carlo test applied to every point."""
    radius = x.rho / x.N
    codes = {q: np.sort(np.ravel_multi_index(tuple(good_rows(x, q).T), (q,) * x.d)) for q in x.primes}
    children = np.random.SeedSequence(seed).spawn((samples + dv._MC_BLOCK - 1) // dv._MC_BLOCK)
    hits = done = 0
    for child in children:
        size = min(dv._MC_BLOCK, samples - done)
        pts = np.random.default_rng(child).random((size, x.d))
        hit = np.zeros(size, dtype=bool)
        for q in x.primes:
            if good_rows(x, q).shape[0] == 0:
                continue
            jmax = int(math.floor(radius * q + 0.5 + 1e-12))
            nearest = np.rint(pts * q).astype(np.int64)
            for joff in itertools.product(range(-jmax, jmax + 1), repeat=x.d):
                bb = (nearest + np.array(joff, dtype=np.int64)) % q
                dist = np.abs(pts - bb / q)
                dist = np.minimum(dist, 1.0 - dist)
                rows = np.flatnonzero((dist <= radius).all(axis=1))
                hit[rows[np.isin(np.ravel_multi_index(tuple(bb[rows].T), (q,) * x.d), codes[q])]] = True
        hits += int(hit.sum())
        done += size
    p = hits / samples
    return p, math.sqrt(p * (1.0 - p) / samples)


_SWEEP_SETS = {
    "d1": lambda rho: build_divergence_set(P_SQ, 4096, rho=rho),
    # b = 0 is not good at q = 2 mod 3 (S(0) = 0): points near 0 have no ball
    "d1-cubes": lambda rho: build_divergence_set(P_CUBE, 4096, rho=rho),
    "d2-squares": lambda rho: build_divergence_set(family_diagonal(2, 2), 512, rho=rho),
    "d2-cubes": lambda rho: build_divergence_set(family_diagonal(2, 3), 512, rho=rho),
    "d3": lambda rho: from_balls(
        N=16, d=3, rho=rho, c=0.5, Q=11,
        balls=_random_balls(np.random.default_rng(7), (11, 13, 17), 300, 3)),
}


@pytest.mark.parametrize("rho", [1 / 32, 0.5, 2.0])
@pytest.mark.parametrize("name", sorted(_SWEEP_SETS))
def test_montecarlo_strips_match_full_sweep(name, rho):
    x = _SWEEP_SETS[name](rho)
    for seed, samples in ((0, 70_001), (3, 9_999), (11, dv._MC_BLOCK + 1)):
        got = dv._montecarlo_measure(x, samples, seed)
        assert got == _full_sweep_measure(x, samples, seed)
    assert got[0] > 0


def test_montecarlo_buffers_made_once():
    # the block buffers: d + 3 float64 columns (points, x0, scaled, frac) and two bool ones
    x = build_divergence_set(family_diagonal(2, 3), 1024)
    buffers = dv._MC_BLOCK * (8 * (x.d + 3) + 2)
    samples = 3 * dv._MC_BLOCK + 5
    want = dv._montecarlo_measure(x, samples, 7)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert dv._montecarlo_measure(x, samples, 7) == want
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * buffers, peak / buffers  # 1.43 when each block made its own


def test_montecarlo_strips_wrap_around():
    # first residues 0 and q - 1: points just below 1 round to the grid point 1 = 0/q
    edges = [(q, (b0, b1)) for q in (11, 13) for b0 in (0, q - 1) for b1 in range(q)]
    # one center 10/11 with rho/N > 1/11: every point is within rho/N of the grid
    last = [(11, (10, b1)) for b1 in range(11)]
    for balls, rho in ((edges, 2.0), (edges, 8.0), (last, 50.0)):
        x = from_balls(N=512, d=2, rho=rho, c=0.5, Q=11, balls=balls)
        for seed in (0, 1, 2):
            got = dv._montecarlo_measure(x, 50_000, seed)
            assert got == _full_sweep_measure(x, 50_000, seed)
            assert got[0] > 0
