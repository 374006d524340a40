import tracemalloc

import numpy as np
import pytest

from framesync import (
    IncompatibleLength,
    Lfsr,
    NoValidLength,
    SyncWord,
    UnsupportedDegree,
    ZeroSeed,
    build_sync_word,
    energy_scaling_rows,
    generate_mlsr,
    min_shift_hamming_distance,
    nearest_valid_length,
)
import framesync.sequences
from framesync.sequences import MAX_N, PRIMITIVE_POLYS, SequenceError, _cyclic_autocorrelation, smallest_valid_k


def brute_force_lfsr(m, taps_mask, seed, steps):
    """Reference bit-by-bit register simulation."""
    state = seed
    out = []
    for _ in range(steps):
        out.append(state & 1)
        fb = bin(state & taps_mask).count("1") % 2
        state = (state >> 1) | (fb << (m - 1))
    return out


def brute_force_shift_distance(sym):
    """Reference: (least Hamming distance to a cyclic shift 1..N-1, smallest shift attaining it)."""
    n = len(sym)
    best, arg = n + 1, 0
    for tau in range(1, n):
        d = int(np.count_nonzero(sym != np.roll(sym, tau)))
        if d < best:
            best, arg = d, tau
    return best, arg


class TestMlsr:
    def test_degree2_period_and_balance(self):
        seq = generate_mlsr(2)
        assert len(seq) == 3
        assert seq.sum() == 2  # two ones, one zero

    def test_degree3_canonical_sequence(self):
        # x^3 + x + 1, seed 001: brute-force register simulation
        seq = generate_mlsr(3, seed=1)
        assert len(seq) == 7
        assert seq.sum() == 4
        assert seq.tolist() == brute_force_lfsr(3, 0b011, 1, 7)

    @pytest.mark.parametrize("m", sorted(PRIMITIVE_POLYS))
    def test_full_period_every_degree(self, m):
        reg = Lfsr(m, seed=1)
        period = reg.period
        for _ in range(period):
            reg.step()
        assert reg.state == 1  # returned to the seed after exactly one period
        if m <= 10:
            # no earlier return
            reg = Lfsr(m, seed=1)
            seen = set()
            for _ in range(period):
                assert reg.state not in seen
                seen.add(reg.state)
                reg.step()

    @pytest.mark.parametrize("m", range(2, 11))
    def test_cyclic_shift_distance(self, m):
        seq = generate_mlsr(m)
        n = len(seq)
        for tau in range(1, n):
            assert np.count_nonzero(seq != np.roll(seq, tau)) == 2 ** (m - 1)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_seed_shift_equivalence(self, m):
        base = generate_mlsr(m, seed=1).tolist()
        doubled = base + base
        n = len(base)
        for seed in range(1, 2**m):
            seq = generate_mlsr(m, seed=seed).tolist()
            assert any(doubled[s : s + n] == seq for s in range(n))

    def test_bad_degree_and_seed(self):
        with pytest.raises(UnsupportedDegree):
            generate_mlsr(1)
        with pytest.raises(UnsupportedDegree):
            generate_mlsr(17)
        with pytest.raises(ZeroSeed):
            generate_mlsr(4, seed=0)
        with pytest.raises(ValueError):
            generate_mlsr(4, seed=16)


class TestBuildSyncWord:
    def test_degenerate_prefix_rejected(self):
        # floor(7/7) = 1 would need a single-bit register
        with pytest.raises(IncompatibleLength):
            build_sync_word(7, 7)

    def test_n21_k3_layout(self):
        word = build_sync_word(21, 3)
        assert word.prefix_len == 7
        assert len(word) == 21
        assert np.all(word.symbols[7:] == 1)
        # mapping rule re-derived: bit 1 -> x(0), bit 0 -> x(1)
        bits = generate_mlsr(3)
        assert all(
            int(sym) == (1 if bit == 0 else 0)
            for sym, bit in zip(word.symbols[:7], bits)
        )

    def test_incompatible_length(self):
        with pytest.raises(IncompatibleLength):
            build_sync_word(20, 3)  # floor(20/3) = 6, not 2^m - 1

    @pytest.mark.parametrize("k", [3, 4, 8])
    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_active_fraction_floor(self, k, m):
        n = k * (2**m - 1)
        word = build_sync_word(n, k)
        bound = 1.0 - (1.0 / k) * (2 ** (m - 1)) / (2**m - 1)
        assert word.symbols.mean() >= bound - 1e-12

    def test_line_round_trip(self):
        word = build_sync_word(45, 3)
        back = SyncWord.from_line(word.to_line(), word.prefix_len, word.k)
        assert np.array_equal(back.symbols, word.symbols)

    @pytest.mark.parametrize("symbols", [
        np.array([0.5, 1.0, 1.7]),  # was cast to int8 first and taken as [0 1 1]
        np.array([0, 1, 256]),  # wrapped to [0 1 0]
        [0, 1, 257],  # raised OverflowError in the cast
    ], ids=["fractions", "int-array-256", "list-257"])
    def test_symbols_are_checked_as_given(self, symbols):
        with pytest.raises(SequenceError, match="0 or 1"):
            SyncWord(symbols, 0, 0)

    @pytest.mark.parametrize("symbols", [[], np.zeros(0, dtype=np.int8), np.ones((2, 3), dtype=np.int8)],
                             ids=["empty-list", "empty-array", "2-D"])
    def test_empty_or_2d_symbols_rejected(self, symbols):
        with pytest.raises(SequenceError, match="non-empty 1-D"):
            SyncWord(symbols, 0, 0)

    @pytest.mark.parametrize("prefix_len", [-1, 4])
    def test_prefix_length_outside_the_word_rejected(self, prefix_len):
        with pytest.raises(SequenceError, match="prefix length out of range"):
            SyncWord([0, 1, 1], prefix_len, 0)

    def test_exact_symbols_of_any_type_accepted(self):
        for symbols in ([0, 1, 1], np.array([0.0, 1.0, 1.0]), np.array([False, True, True]), np.array([0, 1, 1])):
            assert SyncWord(symbols, 0, 0).symbols.tolist() == [0, 1, 1]

    def test_peak_memory_is_about_two_words(self):
        # the built symbols and the word's own copy; the 0/1 check makes no temporary of the word's size
        n = 1048575  # K = 16, degree 16
        tracemalloc.start()
        try:
            build_sync_word(n, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * n


class TestSyncWordValue:
    """A word is its symbols, prefix length and K: equality, hash and repr follow them."""

    def test_equal_words_are_equal(self):
        assert build_sync_word(15, 2) == build_sync_word(15, 2)
        assert build_sync_word(15, 2) == SyncWord.from_line("011010011111111", 7, 2)

    def test_unequal_words(self):
        word = build_sync_word(15, 2)
        assert word != build_sync_word(14, 2)  # one symbol shorter
        assert word != build_sync_word(15, 2, seed=2)
        assert word != SyncWord(word.symbols, prefix_len=7, k=3)
        assert word != SyncWord(word.symbols, prefix_len=0, k=2)
        assert word != word.to_line()

    def test_hash_follows_equality(self):
        assert hash(build_sync_word(15, 2)) == hash(build_sync_word(15, 2))
        assert len({build_sync_word(15, 2), build_sync_word(15, 2), build_sync_word(21, 3)}) == 2

    def test_repr_shows_the_word(self):
        word = build_sync_word(15, 2)
        assert repr(word) == "SyncWord.from_line('011010011111111', prefix_len=7, k=2)"
        assert eval(repr(word), {"SyncWord": SyncWord}) == word


class TestNearestValidLength:
    def test_target_100_k4(self):
        assert nearest_valid_length(100, 4) == 63

    def test_exact_target_kept(self):
        assert nearest_valid_length(21, 3) == 21

    def test_below_minimum(self):
        with pytest.raises(NoValidLength):
            nearest_valid_length(5, 3)

    def test_band_interior(self):
        # floor(62/4) = 15 = 2^4 - 1, and 62 < 63 = 4*15 + 3
        assert nearest_valid_length(62, 4) == 62


class TestMinShiftDistance:
    @pytest.mark.parametrize("n", [2, 3, 16, 1000])
    @pytest.mark.parametrize("symbol", [0, 1])
    def test_constant_word_is_shift_invariant(self, n, symbol):
        word = SyncWord(np.full(n, symbol, dtype=np.int8), prefix_len=0, k=0)
        assert min_shift_hamming_distance(word) == (0, 1)

    @pytest.mark.parametrize("symbol", [0, 1])
    def test_one_symbol_word_rejected(self, symbol):
        with pytest.raises(SequenceError, match="word length must be >= 2"):
            min_shift_hamming_distance(SyncWord([symbol], prefix_len=0, k=0))

    def test_constructed_word_strictly_positive(self):
        word = build_sync_word(21, 3)
        dist, shift = min_shift_hamming_distance(word)
        assert dist > 0
        assert 1 <= shift <= 20

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 8])
    def test_matches_brute_force_on_table_words(self, k):
        # both ends of each degree's band of N, degrees 2 to 11
        for m in range(2, 12):
            for n in (k * (2**m - 1), k * 2**m - 1):
                word = build_sync_word(n, k)
                assert min_shift_hamming_distance(word) == brute_force_shift_distance(word.symbols), (n, k)

    def test_matches_brute_force_at_n_32767(self):
        word = build_sync_word(32767, 1)
        assert min_shift_hamming_distance(word) == brute_force_shift_distance(word.symbols) == (16384, 1)

    def test_ties_take_the_smallest_shift(self):
        # every word of length 2 to 10: periodic words tie at several shifts, and the answer is the first
        for n in range(2, 11):
            for code in range(2**n):
                sym = np.array([code >> i & 1 for i in range(n)], dtype=np.int8)
                word = SyncWord(sym, prefix_len=0, k=0)
                assert min_shift_hamming_distance(word) == brute_force_shift_distance(sym), sym

    def test_rounding_margin_at_largest_table_word(self):
        # degree 16, the table's largest, at K = 4: N = 262143; each correlation must round unambiguously
        word = build_sync_word(262143, 4)
        corr = _cyclic_autocorrelation(word.symbols)
        assert np.abs(corr - np.rint(corr)).max() < 0.25

    def test_distance_grows_linearly_in_family(self):
        # N in {21, 45, 93} at K = 3: distance/N bounded below
        ratios = []
        for n in (21, 45, 93):
            word = build_sync_word(n, 3)
            dist, _ = min_shift_hamming_distance(word)
            ratios.append(dist / n)
        assert min(ratios) >= 1.0 / 12.0


def builds(n, k):
    """Brute-force oracle: floor(n/k) + 1 = 2^m for a degree 2 <= m <= 16."""
    q = n // k + 1
    return q > 0 and q & (q - 1) == 0 and 2 <= q.bit_length() - 1 <= 16


# N with a K in 2..4 whose prefix is 2^17 - 1, a degree the table lacks, and a larger K that builds
PAST_THE_TABLE = (262142, 262143, 393213, 393214, 524284)
# K = 1..6 by every N within K of a run boundary K(2^m - 1), m = 1..18
BOUNDARY_PAIRS = [
    (n, k)
    for k in range(1, 7)
    for m in range(1, 19)
    for n in range(k * ((1 << m) - 1) - k, k * ((1 << m) - 1) + k + 1)
]


class TestIntegerArguments:
    """Every integer argument is read by one rule: a numpy integer as the int it holds, and a bool,
    a float or a string as a ValueError naming the parameter. Each of these raised AttributeError
    or TypeError, or ran."""

    def test_numpy_integers_give_what_ints_give(self):
        assert build_sync_word(np.int64(63), np.int32(4), np.uint8(3)) == build_sync_word(63, 4, 3)
        assert nearest_valid_length(np.int64(100), np.int16(4)) == nearest_valid_length(100, 4) == 63
        assert smallest_valid_k(np.int64(128)) == smallest_valid_k(128)
        reg = Lfsr(np.int64(5), np.int32(7))
        assert (reg.degree, reg.state) == (5, 7) and type(reg.state) is int
        assert np.array_equal(generate_mlsr(np.int64(5), np.int64(7)), generate_mlsr(5, 7))

    @pytest.mark.parametrize("call, name", [
        (lambda: build_sync_word(np.int64(63), 4.0), "k"),
        (lambda: build_sync_word(63.0, 4), "n"),
        (lambda: build_sync_word(7.5, 2), "n"),
        (lambda: build_sync_word(True, 1), "n"),
        (lambda: build_sync_word("63", 4), "n"),
        (lambda: build_sync_word(63, np.True_), "k"),
        (lambda: build_sync_word(63, 4, seed=1.0), "seed"),
        (lambda: nearest_valid_length(100.0, 4), "n_target"),
        (lambda: nearest_valid_length(100, False), "k"),
        (lambda: smallest_valid_k(63.0), "n"),
        (lambda: smallest_valid_k("63"), "n"),
        (lambda: Lfsr(4.0), "degree"),
        (lambda: Lfsr(4, seed=True), "seed"),
        (lambda: generate_mlsr(5, 1.5), "seed"),
    ])
    def test_other_values_name_the_parameter(self, call, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            call()


class TestOneRule:
    """Which (N, K) give a word: the register table decides, through one test."""

    def test_build_succeeds_exactly_on_a_table_degree(self):
        for n, k in BOUNDARY_PAIRS + [(n, k) for n in PAST_THE_TABLE for k in range(1, 7)]:
            if n < 1:
                continue
            if builds(n, k):
                word = build_sync_word(n, k)
                assert len(word) == n and word.prefix_len == n // k, (n, k)
            else:
                with pytest.raises(IncompatibleLength):
                    build_sync_word(n, k)

    def test_smallest_valid_k_is_the_smallest_that_builds(self):
        for n in sorted({n for n, _ in BOUNDARY_PAIRS} | set(PAST_THE_TABLE) | set(range(-2, 200))):
            want = next((k for k in range(2, max(n, 1) + 1) if builds(n, k)), None)
            if want is None:
                with pytest.raises(NoValidLength):
                    smallest_valid_k(n)
                continue
            assert smallest_valid_k(n) == want, n
            if n in PAST_THE_TABLE:
                assert len(build_sync_word(n, want)) == n

    def test_nearest_valid_length_is_the_largest_below_the_target(self):
        for k in range(1, 7):
            best = None
            for target in range(-2, 3000):
                if target >= 1 and builds(target, k):
                    best = target
                if best is None:
                    with pytest.raises(NoValidLength):
                        nearest_valid_length(target, k)
                else:
                    assert nearest_valid_length(target, k) == best, (target, k)
        assert nearest_valid_length(10**9, 3) == 196607  # 3 * 2^16 - 1: degree 16 is the deepest

    def test_word_length_ceiling(self, monkeypatch):
        assert nearest_valid_length(MAX_N, 32768) == MAX_N  # floor(MAX_N / 32768) = 2^16 - 1
        # one past it is refused before the register runs or any array is made
        monkeypatch.setattr(framesync.sequences, "generate_mlsr", None)
        for n, k in ((MAX_N + 1, 32769), (2147516415, 32769), (MAX_N + 1, 4)):
            with pytest.raises(SequenceError, match=f"^n={n} is past MAX_N = {MAX_N}"):
                build_sync_word(n, k)

    def test_smallest_valid_k_past_the_ceiling(self):
        # the scan started at K = 2, so an energy sweep at N = 10^18 never reached the ceiling check
        for n in (MAX_N, MAX_N + 1, 2**40 + 12345, 10**18):
            k = smallest_valid_k(n)
            assert builds(n, k) and not any(builds(n, j) for j in range(max(2, k - 70000), k)), n

    def test_energy_sweep_builds_past_the_table_at_the_smallest_k(self):
        (row,) = energy_scaling_rows(32.0, 1.0, n_list=[262142])
        assert row.n == 262142 and row.config.word.k == 4  # 262142 // 4 = 2^16 - 1
