import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framesync import (
    ChannelError,
    DimensionMismatch,
    Dmc,
    NegativeEntry,
    NonStochasticRow,
    bsc,
    compose,
    dmc_new,
    load_channel,
    on_off_fading_matrix,
    save_channel,
)
from framesync.channels import _COUNT_MAX_OUTPUTS, InverseCdf


class TestDmcNew:
    def test_identity_table_is_valid(self):
        dmc = dmc_new(np.eye(2))
        assert np.array_equal(dmc.rows, np.eye(2))

    def test_nan_and_inf_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ChannelError):
                dmc_new([[bad, 0.5], [0.5, 0.5]])
            with pytest.raises(ChannelError):
                dmc_new([[0.5, 0.5], [bad, 0.5]], normalize=True)

    def test_short_row_rejected(self):
        with pytest.raises(NonStochasticRow):
            dmc_new([[0.6, 0.3], [0.5, 0.5]])

    def test_bsc_table_valid(self):
        dmc = bsc(0.1)
        assert np.allclose(dmc.rows, [[0.9, 0.1], [0.1, 0.9]])

    def test_negative_entry(self):
        with pytest.raises(NegativeEntry):
            dmc_new([[1.5, -0.5], [0.5, 0.5]])

    def test_dimension_mismatch(self):
        for rows in (np.full(2, 0.5), np.full((2, 2, 2), 0.5)):
            with pytest.raises(DimensionMismatch):
                Dmc(rows)
            with pytest.raises(DimensionMismatch):
                dmc_new(rows)

    def test_empty_table_rejected(self):
        for shape in ((0, 2), (2, 0)):
            for normalize in (False, True):
                with pytest.raises(ChannelError):
                    dmc_new(np.zeros(shape), normalize=normalize)
            with pytest.raises(ChannelError):
                Dmc(np.zeros(shape))

    def test_sizes_from_shape(self):
        dmc = dmc_new(np.full((3, 5), 0.2))
        assert (dmc.n_inputs, dmc.n_outputs) == (3, 5)

    def test_normalize_rescales_tiny_deviation(self):
        rows = np.array([[0.5, 0.5 + 3e-10], [0.25, 0.75]])
        dmc = dmc_new(rows, normalize=True)
        assert np.allclose(dmc.rows.sum(axis=1), 1.0, atol=1e-15)

    def test_normalize_rejects_large_deviation(self):
        with pytest.raises(NonStochasticRow):
            dmc_new([[0.5, 0.6], [0.5, 0.5]], normalize=True)

    def test_normalize_leaves_the_entry_checks_to_dmc(self):
        # a negative entry in a row that sums to 1 is rescaled by 1 and then rejected by Dmc
        with pytest.raises(NegativeEntry):
            dmc_new([[1.5, -0.5], [0.5, 0.5]], normalize=True)
        # a row summing to 0 or less is off by more than the tolerance, whatever its signs
        for row in ([0.0, 0.0], [-0.5, -0.5], [-1.0, 0.5]):
            with pytest.raises(NonStochasticRow):
                dmc_new([row, [0.5, 0.5]], normalize=True)

    def test_rows_are_immutable(self):
        dmc = bsc(0.2)
        with pytest.raises(ValueError):
            dmc.rows[0, 0] = 0.3


class TestDmcValue:
    """A channel is its table: equality, hash and repr follow the rows."""

    def test_equal_tables_are_equal(self):
        assert bsc(0.1) == bsc(0.1)
        assert bsc(0.1) == Dmc([[0.9, 0.1], [0.1, 0.9]])
        assert bsc(0.1) != bsc(0.2)
        assert bsc(0.0) != Dmc([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])  # 3x2 against 2x2
        assert bsc(0.1) != "bsc(0.1)"

    def test_hash_follows_equality(self):
        assert hash(bsc(0.1)) == hash(bsc(0.1))
        assert len({bsc(0.1), bsc(0.1), bsc(0.2)}) == 2
        signed_zero = Dmc(np.array([[1.0, -0.0], [0.0, 1.0]]))
        assert signed_zero == bsc(0.0) and hash(signed_zero) == hash(bsc(0.0))

    def test_repr_shows_the_table(self):
        assert repr(bsc(0.25)) == "Dmc([[0.75, 0.25], [0.25, 0.75]])"
        table = on_off_fading_matrix(0.3, n_inputs=3)
        assert eval(repr(table), {"Dmc": Dmc}) == table


class TestOnOffFading:
    def test_p_one_is_identity(self):
        dmc = on_off_fading_matrix(1.0)
        assert np.array_equal(dmc.rows, np.eye(2))

    def test_p_zero_concentrates_on_idle(self):
        dmc = on_off_fading_matrix(0.0, 3)
        expected = np.zeros((3, 3))
        expected[:, 0] = 1.0
        assert np.array_equal(dmc.rows, expected)

    def test_binary_p03(self):
        dmc = on_off_fading_matrix(0.3)
        assert np.allclose(dmc.rows, [[1.0, 0.0], [0.7, 0.3]], atol=1e-15)

    def test_p_out_of_range(self):
        for p in (1.5, -0.1, float("nan")):
            with pytest.raises(ChannelError):
                on_off_fading_matrix(p)


class TestCompose:
    def test_identity_fading_returns_noise(self):
        noise = bsc(0.17)
        out = compose(dmc_new(np.eye(2)), noise)
        assert np.allclose(out.rows, noise.rows, atol=1e-15)

    def test_always_on_fading_returns_noise(self):
        noise = bsc(0.3)
        out = compose(on_off_fading_matrix(1.0), noise)
        assert np.allclose(out.rows, noise.rows, atol=1e-15)

    def test_on_off_bsc_closed_table(self):
        p, eps = 0.4, 0.1
        out = compose(on_off_fading_matrix(p), bsc(eps))
        expected = [
            [1 - eps, eps],
            [p * eps + (1 - p) * (1 - eps), p * (1 - eps) + (1 - p) * eps],
        ]
        assert np.allclose(out.rows, expected, atol=1e-15)

    def test_alphabet_mismatch(self):
        # the fading table's output count must equal the noise table's input count
        with pytest.raises(DimensionMismatch):
            compose(dmc_new(np.eye(3)), bsc(0.1))
        with pytest.raises(DimensionMismatch):
            compose(bsc(0.1), dmc_new(np.full((3, 2), 0.5)))
        assert compose(dmc_new(np.full((3, 2), 0.5)), bsc(0.1)).rows.shape == (3, 2)

    def test_associativity_on_random_chains(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            sizes = rng.integers(2, 5, size=4)
            chain = []
            for a, b in zip(sizes[:-1], sizes[1:]):
                rows = rng.random((a, b)) + 0.05
                rows /= rows.sum(axis=1, keepdims=True)
                chain.append(Dmc(rows))
            left = compose(compose(chain[0], chain[1]), chain[2])
            right = compose(chain[0], compose(chain[1], chain[2]))
            assert np.allclose(left.rows, right.rows, atol=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32), sizes=st.tuples(*[st.integers(1, 9)] * 3), zeros=st.booleans())
    def test_product_rescaled_by_its_row_sums_bit_for_bit(self, seed, sizes, zeros):
        # compose's table is the product divided by its own row sums, to the last bit
        rng = np.random.default_rng(seed)
        tables = []
        for a, b in zip(sizes[:-1], sizes[1:]):
            rows = rng.dirichlet(np.full(b, 0.5), size=a)
            if zeros:
                rows[rng.random(rows.shape) < 0.3] = 0.0
                rows[rows.sum(axis=1) == 0.0, -1] = 1.0
                rows /= rows.sum(axis=1, keepdims=True)
            tables.append(Dmc(rows))
        product = tables[0].rows @ tables[1].rows
        expected = product / product.sum(axis=1, keepdims=True)
        assert compose(*tables).rows.tobytes() == expected.tobytes()

    def test_composite_rows_are_mixtures(self):
        # rows for x != x(0) must equal p Qn(.|x) + (1-p) Qn(.|x(0))
        rng = np.random.default_rng(1)
        for _ in range(10):
            n_out = int(rng.integers(2, 6))
            rows = rng.random((3, n_out)) + 0.02
            rows /= rows.sum(axis=1, keepdims=True)
            noise = Dmc(rows)
            p = float(rng.random())
            comp = compose(on_off_fading_matrix(p, noise.n_inputs), noise)
            for x in range(3):
                expected = p * rows[x] + (1 - p) * rows[0]
                assert np.allclose(comp.rows[x], expected, atol=1e-12)


@st.composite
def cdf_rows(draw):
    """A cumulative row over 1-5000 outputs, with zero-mass cells at the first, an inner or the
    last column and a total that may end a hair below or above 1. The sizes include 8 outputs and
    either side of the largest alphabet drawn by counting, where the search tree takes over."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    cutoff = st.integers(_COUNT_MAX_OUTPUTS - 1, _COUNT_MAX_OUTPUTS + 1)
    n = draw(st.one_of(st.integers(1, 9), st.just(8), cutoff, st.integers(250, 262), st.integers(1, 5000)))
    row = rng.dirichlet(np.full(n, draw(st.sampled_from([0.01, 1.0, 50.0]))))
    for at in draw(st.sets(st.sampled_from([0, n // 2, n - 1]))):
        row[at : at + draw(st.integers(1, 3))] = 0.0
    return np.cumsum(row * draw(st.sampled_from([1.0, 1.0 - 2**-40, 1.0 + 2**-40])))


class TestSampling:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(cdf=cdf_rows())
    def test_search_is_clamped_searchsorted_on_every_boundary(self, cdf):
        # every cumulative value, its two float neighbours, both ends of [0, 1) and some interior
        n = len(cdf)
        u = np.concatenate([
            cdf, np.nextafter(cdf, -np.inf), np.nextafter(cdf, np.inf),
            [0.0, 1.0 - 2**-53], np.random.default_rng(n).random(64),
        ])
        sampler = InverseCdf(cdf)
        draws = sampler(u)
        assert (sampler.counted is not None) == (n <= _COUNT_MAX_OUTPUTS)
        assert np.array_equal(draws, np.minimum(np.searchsorted(cdf, u, side="right"), n - 1))
        assert draws.dtype == (np.uint8 if n <= 256 else np.uint16)

    def test_identity_channel_is_deterministic(self):
        cdf = np.cumsum(dmc_new(np.eye(2)).rows, axis=1)
        u = np.random.default_rng(0).random(50)
        assert not InverseCdf(cdf[0])(u).any() and InverseCdf(cdf[1])(u).all()

    def test_bsc0_never_flips(self):
        cdf = np.cumsum(bsc(0.0).rows[0])
        assert not InverseCdf(cdf)(np.random.default_rng(0).random(50)).any()

    def test_index_out_of_range(self):
        # a cumulative row that ends short of 1 by rounding still maps every u < 1 to an output
        cdf = np.cumsum([0.1] * 10)
        assert cdf[-1] < 1.0
        u = np.array([0.0, cdf[-1], np.nextafter(1.0, 0.0)])
        assert InverseCdf(cdf)(u).tolist() == [0, 9, 9]
        assert InverseCdf(np.array([0.0, 1.0]))(u).tolist() == [1, 1, 1]

    def test_bsc_flip_fraction_converges(self):
        rng = np.random.default_rng(314159)
        draws = InverseCdf(np.cumsum(bsc(0.25).rows[0]))(rng.random(10**6))
        flip = draws.mean()
        assert abs(flip - 0.25) <= 0.002

    def test_empirical_frequencies_linf(self):
        # L-inf gap to the row distribution <= 3 sqrt(ln|Y| / n) at n = 1e6
        rng = np.random.default_rng(271828)
        row = np.array([0.5, 0.2, 0.2, 0.1])
        n = 10**6
        draws = InverseCdf(np.cumsum(row))(rng.random(n))
        freq = np.bincount(draws, minlength=4) / n
        assert np.max(np.abs(freq - row)) <= 3 * np.sqrt(np.log(4) / n)


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        dmc = compose(on_off_fading_matrix(0.3), bsc(0.1))
        path = tmp_path / "chan.mat"
        save_channel(path, dmc)
        back = load_channel(path)
        assert np.array_equal(back.rows, dmc.rows)

    def test_header_and_digits(self, tmp_path):
        path = tmp_path / "chan.mat"
        save_channel(path, bsc(1.0 / 3.0))
        lines = path.read_text().splitlines()
        assert lines[0] == "2 2"
        assert "0.33333333333333331" in lines[1]

    @pytest.mark.parametrize("text", ["", "2\n"])
    def test_file_shorter_than_its_header(self, tmp_path, text):
        path = tmp_path / "short.mat"
        path.write_text(text)
        with pytest.raises(ChannelError, match="matrix file too short"):
            load_channel(path)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("2 2\n0.5 0.5\n")
        with pytest.raises(DimensionMismatch):
            load_channel(path)
