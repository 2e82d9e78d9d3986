import numpy as np
import pytest

from dtebounds.data import (
    ConfigError,
    CsvParseError,
    DegenerateDesignError,
    Sample,
    adjuster_arrays,
    load_csv,
    make_folds,
    shift_for_delta,
    squash_outcomes,
)


def write_csv(path, rows, header="y,d,x1,x2"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return str(path)


def simple_sample(n=40, seed=0, p=3):
    rng = np.random.default_rng(seed)
    d = np.zeros(n, dtype=int)
    d[: n // 2] = 1
    rng.shuffle(d)
    return Sample(rng.normal(size=n), d, rng.normal(size=(n, p)))


class TestLoadCsv:
    def test_four_row_file(self, tmp_path):
        f = write_csv(tmp_path / "a.csv",
                      ["1.0,1,0.1,0.2", "2.0,1,0.3,0.4",
                       "3.0,0,0.5,0.6", "4.0,0,0.7,0.8"])
        s = load_csv(f, "y", "d", x_prefix="x")
        assert s.n1 == 2 and s.n0 == 2
        assert s.p == 2
        np.testing.assert_array_equal(s.y, [1.0, 2.0, 3.0, 4.0])

    def test_bad_treatment_value_names_row(self, tmp_path):
        f = write_csv(tmp_path / "a.csv",
                      ["1.0,1,0,0", "2.0,2,0,0", "3.0,0,0,0"])
        with pytest.raises(CsvParseError, match="row 2"):
            load_csv(f, "y", "d", x_prefix="x")

    def test_missing_value_names_row(self, tmp_path):
        f = write_csv(tmp_path / "a.csv", ["1.0,1,0,0", "2.0,0,,0"])
        with pytest.raises(CsvParseError, match="row 2"):
            load_csv(f, "y", "d", x_prefix="x")

    def test_all_treated_is_degenerate(self, tmp_path):
        f = write_csv(tmp_path / "a.csv", ["1.0,1,0,0", "2.0,1,0,0"])
        with pytest.raises(DegenerateDesignError):
            load_csv(f, "y", "d", x_prefix="x")

    def test_trial_shaped_counts(self, tmp_path):
        rng = np.random.default_rng(1)
        rows = [f"{rng.normal():.6f},{dv},{rng.normal():.6f},{rng.normal():.6f}"
                for dv in [1] * 551 + [0] * 444]
        f = write_csv(tmp_path / "b.csv", rows)
        s = load_csv(f, "y", "d", x_prefix="x")
        assert (s.n1, s.n0) == (551, 444)

    def test_round_trip_exact(self, tmp_path):
        rows = ["1.25,1,0.5,3.125", "-2.75,0,1.0,-0.0625"]
        f = write_csv(tmp_path / "a.csv", rows)
        s = load_csv(f, "y", "d", x_prefix="x")
        out = tmp_path / "o.csv"
        with open(out, "w") as fh:
            fh.write("y,d,x1,x2\n")
            for i in range(s.n):
                fh.write(f"{float(s.y[i])!r},{s.d[i]},{float(s.x[i,0])!r},{float(s.x[i,1])!r}\n")
        s2 = load_csv(str(out), "y", "d", x_prefix="x")
        np.testing.assert_array_equal(s.y, s2.y)
        np.testing.assert_array_equal(s.x, s2.x)

    def test_explicit_columns(self, tmp_path):
        f = write_csv(tmp_path / "a.csv", ["1,1,2,3", "0,0,4,5"],
                      header="y,d,age,income")
        s = load_csv(f, "y", "d", x_cols=["age", "income"])
        assert s.p == 2
        with pytest.raises(ConfigError):
            load_csv(f, "y", "d", x_cols=["age", "nope"])


class TestShiftForDelta:
    def test_zero_is_identity(self):
        s = simple_sample()
        np.testing.assert_array_equal(shift_for_delta(s, 0.0).y, s.y)

    def test_only_controls_shift(self):
        s = Sample(np.array([1.0, 1.0]), np.array([1, 0]),
                   np.zeros((2, 1)))
        out = shift_for_delta(s, 0.05)
        assert out.y[0] == 1.0
        assert out.y[1] == 1.05

    def test_shift_then_unshift_roundtrips(self):
        s = simple_sample(seed=3)
        back = shift_for_delta(shift_for_delta(s, 0.7), -0.7)
        np.testing.assert_allclose(back.y, s.y, atol=1e-15)

    def test_rejects_nonfinite_delta(self):
        with pytest.raises(ValueError):
            shift_for_delta(simple_sample(), np.inf)


class TestSquashOutcomes:
    def test_preserves_order(self):
        s = simple_sample(seed=5)
        out = squash_outcomes(s)
        assert np.all(np.argsort(out.y) == np.argsort(s.y))
        assert out.y.min() > 0 and out.y.max() < 1
        assert out.transformed_scale

    def test_constant_outcome_warns(self):
        s = Sample(np.ones(4), np.array([1, 1, 0, 0]), np.zeros((4, 1)))
        with pytest.warns(UserWarning):
            out = squash_outcomes(s)
        assert np.all((out.y >= 0) & (out.y <= 1))

    def test_zero_iqr_falls_back(self):
        y = np.array([0.0] * 8 + [5.0])
        s = Sample(y, np.array([1, 1, 1, 1, 0, 0, 0, 0, 0]), np.zeros((9, 1)))
        out = squash_outcomes(s)
        assert out.y[-1] > out.y[0]


class TestMakeFolds:
    def test_even_split(self):
        s = Sample(np.arange(20.0), np.repeat([1, 0], 10), np.zeros((20, 1)))
        plan = make_folds(s, 5, seed=0)
        for k in range(1, 6):
            members = plan.members(k)
            assert (s.d[members] == 1).sum() == 2
            assert (s.d[members] == 0).sum() == 2

    def test_remainder_spread(self):
        d = np.array([1] * 11 + [0] * 10)
        s = Sample(np.arange(21.0), d, np.zeros((21, 1)))
        plan = make_folds(s, 5, seed=2)
        sizes = sorted((s.d[plan.members(k)] == 1).sum() for k in range(1, 6))
        assert sizes == [2, 2, 2, 2, 3]

    def test_deterministic(self):
        s = simple_sample(n=50, seed=8)
        a = make_folds(s, 4, seed=99)
        b = make_folds(s, 4, seed=99)
        np.testing.assert_array_equal(a.fold_of, b.fold_of)

    def test_stratification_invariant(self):
        s = simple_sample(n=57, seed=10)
        plan = make_folds(s, 5, seed=1)
        for arm in (0, 1):
            counts = [np.sum((s.d == arm) & (plan.fold_of == k))
                      for k in range(1, 6)]
            target = (s.d == arm).sum() / 5
            assert all(abs(c - target) < 1 for c in counts)

    def test_k_too_large(self):
        s = Sample(np.arange(6.0), np.array([1, 1, 0, 0, 0, 0]),
                   np.zeros((6, 1)))
        with pytest.raises(ConfigError):
            make_folds(s, 3, seed=0)


def test_adjuster_rejects_nonfinite():
    with pytest.raises(ConfigError, match="finite"):
        adjuster_arrays((np.array([1.0, np.nan]), np.zeros(2)), 2)


def test_adjuster_zero():
    # plain array-likes of any numeric dtype are read as float64
    s_lo, s_hi = adjuster_arrays((np.zeros(5, dtype=int), [0.0] * 5), 5)
    for side in (s_lo, s_hi):
        assert side.dtype == np.float64
        np.testing.assert_array_equal(side, np.zeros(5))


def test_adjuster_rejects_non_numeric():
    with pytest.raises(ConfigError, match="adjusters"):
        adjuster_arrays((["a", "b"], np.zeros(2)), 2)


class TestGroupStratifiedFolds:
    def test_balance_within_group_arm_cells(self):
        rng = np.random.default_rng(20)
        n = 120
        d = np.array([1, 0] * (n // 2))
        g = np.repeat([0, 1, 2], n // 3)
        s = Sample(rng.normal(size=n), d, rng.normal(size=(n, 2)))
        plan = make_folds(s, 4, seed=1, group_of=g)
        for gv in (0, 1, 2):
            for arm in (0, 1):
                cell = (g == gv) & (s.d == arm)
                sizes = [np.sum(cell & (plan.fold_of == k))
                         for k in range(1, 5)]
                assert max(sizes) - min(sizes) <= 1

    def test_empty_cell_raises(self):
        d = np.array([1, 1, 1, 0, 0, 0])
        g = np.array([0, 0, 0, 1, 1, 1])  # group 0 has no controls
        s = Sample(np.arange(6.0), d, np.zeros((6, 1)))
        with pytest.raises(DegenerateDesignError):
            make_folds(s, 2, seed=0, group_of=g)


def test_lower_bound_monotone_in_delta():
    # the estimand P(Y(1)-Y(0) <= delta) is nondecreasing in delta; so is
    # the estimated lower bound, deterministically: shifting the control
    # outcomes up lowers their CDF pointwise
    from dtebounds.stepfun import makarov_bounds

    rng = np.random.default_rng(21)
    for _ in range(25):
        n = 60
        d = np.array([1, 0] * (n // 2))
        y = np.round(rng.normal(size=n), 1)
        s = Sample(y, d, np.zeros((n, 1)))
        lows = [makarov_bounds(shift_for_delta(s, dl)).theta_l
                for dl in (-0.05, 0.0, 0.05)]
        assert lows[0] <= lows[1] <= lows[2]
        # and against a brute-force population check on the discrete values
        ups = [makarov_bounds(shift_for_delta(s, dl)).theta_u
               for dl in (-0.05, 0.0, 0.05)]
        assert ups[0] <= ups[1] <= ups[2]
