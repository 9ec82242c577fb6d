"""Ratings ingestion, splitting, encoding, and scale conversion."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from exchtensor.data import (
    FIVE_STAR,
    RatingScale,
    RatingsTable,
    ScaleError,
    canonical_split,
    encode_onehot,
    parse_ratings,
    rebin_scale,
    rmse,
    synthetic_lowrank_table,
)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


def small_table():
    return RatingsTable(
        u_index=[0, 0, 1, 2],
        i_index=[0, 1, 1, 0],
        ratings=[5.0, 3.0, 1.0, 4.0],
        scale=FIVE_STAR,
        users=("a", "b", "c"),
        items=("x", "y"),
    )


class TestRatingScale:
    def test_levels_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            RatingScale((1.0, 1.0, 2.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            RatingScale((3.0, 2.0))

    @pytest.mark.parametrize("levels", [
        (1, 2, 3, 4, float("nan")), (1, 2, float("inf")),
        (float("-inf"), 1), (float("nan"),)])
    def test_levels_must_be_finite(self, levels):
        with pytest.raises(ValueError, match="finite"):
            RatingScale(levels)

    def test_integer_constructor(self):
        s = RatingScale.integer(1, 5)
        assert s.levels == (1.0, 2.0, 3.0, 4.0, 5.0)
        assert s.lo == 1.0 and s.hi == 5.0 and s.n_levels == 5

    def test_contains_checks_bounds_only(self):
        """A mid-gap value is in range even though it is not a level."""
        RatingsTable([0], [0], [2.5], FIVE_STAR, ("a",), ("x",))
        with pytest.raises(ScaleError, match="rating 5.5 outside scale"):
            RatingsTable([0], [0], [5.5], FIVE_STAR, ("a",), ("x",))


class TestRatingsTable:
    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            RatingsTable([0, 0], [1, 1], [3.0, 4.0], FIVE_STAR,
                         ("a",), ("x", "y"))

    def test_ratings_checked_against_scale(self):
        with pytest.raises(ValueError, match="outside scale"):
            RatingsTable([0], [0], [6.0], FIVE_STAR, ("a",), ("x",))

    def test_index_must_fit_remap_tables(self):
        with pytest.raises(ValueError, match="remap table"):
            RatingsTable([3], [0], [3.0], FIVE_STAR, ("a",), ("x",))

    @pytest.mark.parametrize("field, bad", [
        ("u_index", [0.7, 1.2]), ("u_index", [True, False]),
        ("i_index", [0.0, 1.0]), ("i_index", [False, True])])
    def test_non_integer_index_refused(self, field, bad):
        """A cast would truncate these: users 0.7 and 1.2 would become 0
        and 1."""
        arrays = {"u_index": [0, 1], "i_index": [0, 1], field: bad}
        with pytest.raises(TypeError, match=(
                rf"{field} must be an integer array, got dtype "
                rf"{np.asarray(bad).dtype}")):
            RatingsTable(ratings=[3.0, 4.0], scale=FIVE_STAR,
                         users=("a", "b"), items=("x", "y"), **arrays)

    def test_integer_and_empty_indices_taken(self):
        t = RatingsTable(np.array([1, 0], np.uint8), np.array([0, 1], np.int32),
                         [3.0, 4.0], FIVE_STAR, ("a", "b"), ("x", "y"))
        assert t.u_index.dtype == t.i_index.dtype == np.int64
        assert_array_equal(t.u_index, [1, 0])
        assert RatingsTable([], [], [], FIVE_STAR, ("a",), ("x",)).n_ratings == 0

    def test_subset_keeps_id_space(self):
        t = small_table()
        s = t.subset(np.array([1, 3]))
        assert s.n_users == 3 and s.n_items == 2
        assert_array_equal(s.ratings, [3.0, 4.0])


class TestTableIsImmutable:
    """A table owns read-only copies of its arrays, so the digest it
    computes once holds for its lifetime."""

    def arrays(self):
        return (np.array([0, 0, 1, 2]), np.array([0, 1, 1, 0]),
                np.array([5.0, 3.0, 1.0, 4.0]))

    def test_arrays_are_read_only_copies(self):
        u, i, r = self.arrays()
        t = RatingsTable(u, i, r, FIVE_STAR, ("a", "b", "c"), ("x", "y"))
        for got, given in ((t.u_index, u), (t.i_index, i), (t.ratings, r)):
            assert not got.flags.writeable
            assert not np.shares_memory(got, given)
            assert given.flags.writeable
        u[0], r[0] = 2, 1.0
        assert t.u_index[0] == 0 and t.ratings[0] == 5.0

    @pytest.mark.parametrize("field", ["u_index", "i_index", "ratings"])
    def test_a_write_into_an_array_raises(self, field):
        t = small_table()
        with pytest.raises(ValueError, match="read-only"):
            getattr(t, field)[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            getattr(t, field)[:] += 1

    def test_subset_and_split_parts_are_read_only(self):
        parts = canonical_split(synthetic_lowrank_table(10, 12, seed=1),
                                "random", fraction=0.3, seed=0)
        for t in (*parts, parts[0].subset(np.arange(3))):
            assert not (t.u_index.flags.writeable or t.i_index.flags.writeable
                        or t.ratings.flags.writeable)

    def test_digest_is_kept_and_follows_content(self):
        t = small_table()
        assert t.digest is t.digest and len(t.digest) == 32
        assert small_table().digest == t.digest
        assert t.subset(np.arange(4)).digest == t.digest
        # the id tables enter only through the dims
        relabeled = replace(t, users=("p", "q", "r"), items=("s", "t"))
        assert relabeled.digest == t.digest
        for changed in (
            replace(t, u_index=[0, 0, 1, 1]),
            replace(t, i_index=[1, 0, 1, 0]),
            replace(t, ratings=[5.0, 3.0, 2.0, 4.0]),
            replace(t, scale=RatingScale((1.0, 2.0, 3.0, 4.0, 5.0, 6.0))),
            replace(t, users=("a", "b", "c", "d")),
            replace(t, items=("x", "y", "z")),
        ):
            assert changed.digest != t.digest


class TestParseRatings:
    def test_movielens_tab_first_appearance_remap(self, tmp_path):
        """Dense ids follow first appearance, not numeric order."""
        f = write_lines(tmp_path / "u.data", [
            "7\t20\t5\t874965758",
            "7\t33\t3\t876893171",
            "2\t20\t4\t878542960",
        ])
        t = parse_ratings(f)
        assert t.users == ("7", "2")
        assert t.items == ("20", "33")
        assert_array_equal(t.u_index, [0, 0, 1])
        assert_array_equal(t.i_index, [0, 1, 0])
        assert_allclose(t.ratings, [5.0, 3.0, 4.0])

    def test_malformed_line_reports_line_number(self, tmp_path):
        f = write_lines(tmp_path / "u.data", [
            "1\t1\t5\t874965758",
            "1\t2\t4",
        ])
        with pytest.raises(ValueError, match=":2:"):
            parse_ratings(f)

    def test_bad_rating_field_reports_line_number(self, tmp_path):
        f = write_lines(tmp_path / "u.data", [
            "1\t1\tfive\t874965758",
        ])
        with pytest.raises(ValueError, match=":1:.*five"):
            parse_ratings(f)

    def test_out_of_scale_rating_rejected(self, tmp_path):
        f = write_lines(tmp_path / "u.data", ["1\t1\t9\t0"])
        with pytest.raises(ValueError, match="outside scale"):
            parse_ratings(f)

    def test_empty_file_rejected(self, tmp_path):
        f = write_lines(tmp_path / "u.data", [""])
        with pytest.raises(ValueError, match="no ratings"):
            parse_ratings(f)

    def test_csv_triples_with_header(self, tmp_path):
        f = write_lines(tmp_path / "r.csv", [
            "user,item,rating",
            "u1,i1,4",
            "u2,i1,2",
        ])
        t = parse_ratings(f, fmt="csv-triples")
        assert t.n_ratings == 2
        assert t.users == ("u1", "u2")

    def test_blank_lines_skipped(self, tmp_path):
        f = write_lines(tmp_path / "u.data", [
            "1\t1\t5\t0",
            "",
            "2\t1\t3\t0",
        ])
        assert parse_ratings(f).n_ratings == 2


class TestCanonicalSplit:
    def test_random_split_sizes(self):
        rng = np.random.default_rng(3)
        n = 200
        pairs = rng.permutation(20 * 30)[:n]
        t = RatingsTable(
            pairs // 30, pairs % 30, rng.integers(1, 6, n).astype(float),
            FIVE_STAR, tuple(range(20)), tuple(range(30)),
        )
        train, test = canonical_split(t, "random", fraction=0.1, seed=0)
        assert test.n_ratings == 20
        assert train.n_ratings == 180
        assert train.n_users == t.n_users and test.n_items == t.n_items

    def test_random_split_is_a_partition(self):
        rng = np.random.default_rng(5)
        pairs = rng.permutation(10 * 10)[:60]
        t = RatingsTable(
            pairs // 10, pairs % 10, rng.integers(1, 6, 60).astype(float),
            FIVE_STAR, tuple(range(10)), tuple(range(10)),
        )
        train, test, val = canonical_split(
            t, "random", fraction=0.2, seed=1, val_fraction=0.1
        )
        cells = lambda part: set(
            zip(part.u_index.tolist(), part.i_index.tolist())
        )
        assert len(cells(train) | cells(test) | cells(val)) == 60
        assert not cells(train) & cells(test)
        assert not cells(train) & cells(val)
        assert test.n_ratings == 12 and val.n_ratings == 6

    def test_random_split_deterministic_in_seed(self):
        t = small_table()
        a = canonical_split(t, "random", fraction=0.25, seed=9)
        b = canonical_split(t, "random", fraction=0.25, seed=9)
        assert_array_equal(a[1].u_index, b[1].u_index)
        assert_array_equal(a[1].i_index, b[1].i_index)

    def test_file_pair_shares_id_space(self, tmp_path):
        base = write_lines(tmp_path / "u1.base", [
            "1\t10\t5\t0",
            "1\t11\t3\t0",
            "2\t10\t4\t0",
        ])
        test_f = write_lines(tmp_path / "u1.test", [
            "2\t11\t1\t0",
            "3\t10\t2\t0",
        ])
        train, test = canonical_split(
            None, "file-pair", base_path=base, test_path=test_f
        )
        assert train.users == test.users == ("1", "2", "3")
        assert train.items == test.items == ("10", "11")
        assert train.n_ratings == 3 and test.n_ratings == 2

    def test_file_pair_overlap_rejected(self, tmp_path):
        base = write_lines(tmp_path / "a", ["1\t10\t5\t0"])
        test_f = write_lines(tmp_path / "b", ["1\t10\t3\t0"])
        with pytest.raises(ValueError, match="both files"):
            canonical_split(None, "file-pair", base_path=base,
                            test_path=test_f)

    def test_bad_fractions_rejected(self):
        t = small_table()
        with pytest.raises(ValueError, match="fraction"):
            canonical_split(t, "random", fraction=0.8, val_fraction=0.3)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            canonical_split(small_table(), "thirds")


class TestEncodeOnehot:
    def test_channels_match_levels(self):
        enc = encode_onehot(small_table())
        assert enc.dims == (3, 2)
        assert enc.channels == 5

    def test_exactly_one_hot_per_cell(self):
        enc = encode_onehot(small_table())
        assert_array_equal(enc.values.sum(axis=1), np.ones(4))
        assert set(np.unique(enc.values)) == {0.0, 1.0}

    def test_channel_is_the_level_index(self):
        t = RatingsTable([0], [0], [4.0], FIVE_STAR, ("a",), ("x",))
        enc = encode_onehot(t)
        assert_array_equal(enc.values[0], [0, 0, 0, 1, 0])

    def test_decode_inverts_encode(self):
        """encode then decode restores every rating at its cell."""
        t = small_table()
        enc = encode_onehot(t)
        back = np.asarray(t.scale.levels)[enc.values.argmax(axis=1)]
        want = {(u, i): r for u, i, r in
                zip(t.u_index.tolist(), t.i_index.tolist(), t.ratings)}
        for (u, i), r in zip(enc.indices.tolist(), back):
            assert want[(u, i)] == r

    def test_off_level_rating_rejected(self):
        t = RatingsTable([0], [0], [2.5], FIVE_STAR, ("a",), ("x",))
        with pytest.raises(ValueError, match="not a level"):
            encode_onehot(t)


class TestScaleConversion:
    def test_wide_scale_endpoints_map_to_extreme_levels(self):
        wide = RatingScale.integer(1, 100)
        assert rebin_scale(100.0, wide, FIVE_STAR) == 5.0
        assert rebin_scale(1.0, wide, FIVE_STAR) == 1.0

    def test_rebin_same_scale_is_identity_on_levels(self):
        for lvl in FIVE_STAR.levels:
            assert rebin_scale(lvl, FIVE_STAR, FIVE_STAR) == lvl

    def test_rebin_is_monotone(self):
        wide = RatingScale.integer(1, 100)
        xs = np.linspace(1, 100, 397)
        ys = rebin_scale(xs, wide, FIVE_STAR)
        assert (np.diff(ys) >= 0).all()

    def test_rebin_lands_on_levels(self):
        wide = RatingScale.integer(1, 100)
        ys = rebin_scale(np.linspace(1, 100, 1000), wide, FIVE_STAR)
        assert set(np.unique(ys)) <= set(FIVE_STAR.levels)

    def test_rebin_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside source"):
            rebin_scale(0.0, FIVE_STAR, FIVE_STAR)


class TestSyntheticLowrankTable:
    def test_requested_shape_and_density(self):
        t = synthetic_lowrank_table(50, 60, observed_fraction=0.3, seed=0)
        assert t.n_users == 50 and t.n_items == 60
        assert t.n_ratings == round(0.3 * 3000)

    def test_ratings_live_on_the_scale(self):
        t = synthetic_lowrank_table(20, 20, observed_fraction=0.5, seed=1)
        assert set(np.unique(t.ratings)) <= set(FIVE_STAR.levels)

    def test_every_level_appears_with_nontrivial_mass(self):
        """The gain keeps all levels populated, middle levels heaviest."""
        t = synthetic_lowrank_table(80, 80, observed_fraction=1.0, seed=2)
        shares = np.array([(t.ratings == lvl).mean() for lvl in FIVE_STAR.levels])
        assert shares.min() >= 0.02
        assert shares.argmax() == 2

    def test_mean_shift_creates_row_bias_structure(self):
        """Row means vary well beyond sampling noise of a flat table."""
        t = synthetic_lowrank_table(50, 60, observed_fraction=1.0, seed=7)
        row_means = np.array([t.ratings[t.u_index == n].mean() for n in range(50)])
        assert row_means.std() > 0.25

    def test_reproducible_from_the_seed(self):
        a = synthetic_lowrank_table(15, 15, observed_fraction=0.4, seed=3)
        b = synthetic_lowrank_table(15, 15, observed_fraction=0.4, seed=3)
        assert_array_equal(a.ratings, b.ratings)
        assert_array_equal(a.u_index, b.u_index)

    def test_fraction_validated(self):
        with pytest.raises(ValueError, match="fraction"):
            synthetic_lowrank_table(5, 5, observed_fraction=0.0)


class TestRmse:
    def test_hand_value(self):
        assert_allclose(rmse([1.0, 2.0], [2.0, 4.0]), np.sqrt(2.5))

    def test_zero_for_exact_predictions(self):
        assert rmse([3.0, 4.0], [3.0, 4.0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            rmse([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            rmse([1.0], [1.0, 2.0])
