"""Tests for the moving-block bootstrap forest."""

import collections
import datetime as dt

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from climdemand.errors import (
    ConfigError,
    DiagnosticsError,
    InvalidInputError,
    MetricUndefinedError,
    ShapeError,
)
from climdemand import cli
from climdemand._rng import substream
from climdemand.forest import (
    ForestConfig,
    SupervisedDataset,
    impurity_importance,
    lagged_design_matrix,
    lagged_feature_rows,
    moving_block_indices,
    moving_block_plan,
    oob_metrics,
    predict,
    train_forest,
)
from climdemand.panel import PanelDataset
from memory_budget import traced_peak


def _tree_predict(tree, features):
    """Route rows of ``features`` through one tree; returns leaf values."""
    node = np.zeros(features.shape[0], dtype=np.intp)
    active = tree.feature[node] >= 0
    while np.any(active):
        idx = np.nonzero(active)[0]
        at = node[idx]
        go_left = features[idx, tree.feature[at]] <= tree.threshold[at]
        node[idx] = np.where(go_left, tree.left[at], tree.right[at])
        active[idx] = tree.feature[node[idx]] >= 0
    return tree.value[node]


def make_panel(columns, start=dt.date(2016, 1, 4)):
    n = len(next(iter(columns.values())))
    weeks = tuple(start + dt.timedelta(days=7 * k) for k in range(n))
    return PanelDataset(weeks, {k: np.asarray(v, float) for k, v in columns.items()})


def make_dataset(rng, n=150, slope=2.0, noise=0.1, n_noise_features=1):
    """Signal on feature 0, pure-noise extras after it."""
    x0 = rng.normal(size=n)
    extras = [rng.normal(size=n) for _ in range(n_noise_features)]
    y = slope * x0 + noise * rng.normal(size=n)
    names = tuple(["signal"] + [f"noise{i}" for i in range(n_noise_features)])
    return SupervisedDataset(names, np.column_stack([x0, *extras]), y)


class TestMovingBlocks:
    def test_plan_counts(self):
        assert moving_block_plan(338, 52) == (287, 7, 364)

    def test_plan_single_block(self):
        assert moving_block_plan(100, 100) == (1, 1, 100)

    def test_block_longer_than_data(self):
        with pytest.raises(ConfigError):
            moving_block_plan(50, 51)

    def test_indices_length_and_membership(self):
        idx = moving_block_indices(100, 30, np.random.default_rng(0))
        assert idx.shape == (100,)
        assert idx.min() >= 0
        assert idx.max() < 100

    def test_blocks_are_consecutive_runs(self):
        # 90 rows, length 30: three full blocks, no truncation remainder.
        idx = moving_block_indices(90, 30, np.random.default_rng(1))
        for k in range(3):
            block = idx[30 * k : 30 * (k + 1)]
            assert_array_equal(block, block[0] + np.arange(30))

    def test_truncation_keeps_prefix(self):
        # 4 draws of length 30 give 120 raw rows, cut back to 100.
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        idx = moving_block_indices(100, 30, rng_a)
        starts = rng_b.integers(0, 71, size=4)
        raw = (starts[:, None] + np.arange(30)).reshape(-1)
        assert_array_equal(idx, raw[:100])

    def test_full_length_block_is_identity(self):
        idx = moving_block_indices(40, 40, np.random.default_rng(9))
        assert_array_equal(idx, np.arange(40))


class TestLaggedDesign:
    def test_row_and_feature_counts(self):
        rng = np.random.default_rng(0)
        panel = make_panel(
            {
                "demand": rng.normal(size=390),
                "temperature": rng.normal(size=390),
                "humidity": rng.normal(size=390),
            }
        )
        data = lagged_design_matrix(panel, "demand", lags=4)
        assert data.n_rows == 386
        assert data.n_features == 12

    def test_feature_order_and_values(self):
        n = 12
        panel = make_panel(
            {
                "demand": 100.0 + np.arange(n),
                "temperature": np.arange(n) * 2.0,
            }
        )
        data = lagged_design_matrix(panel, "demand", lags=3)
        assert data.feature_names == (
            "demand.l1",
            "demand.l2",
            "demand.l3",
            "temperature.l1",
            "temperature.l2",
            "temperature.l3",
        )
        # Row for week t holds the values observed at weeks t-1..t-3.
        t = 7
        row = data.features[t - 3]
        assert_allclose(row[:3], [100.0 + t - 1, 100.0 + t - 2, 100.0 + t - 3])
        assert_allclose(row[3:], [2.0 * (t - 1), 2.0 * (t - 2), 2.0 * (t - 3)])
        assert data.target[t - 3] == 100.0 + t

    def test_extra_columns_enter_unlagged(self):
        n = 20
        panel = make_panel(
            {
                "demand": np.arange(n, dtype=float),
                "temperature": np.arange(n) * 0.5,
                "week_sin": np.sin(np.arange(n)),
            }
        )
        data = lagged_design_matrix(
            panel, "demand", lags=4, extra_columns=("week_sin",)
        )
        assert data.feature_names[-1] == "week_sin"
        assert data.n_features == 9
        assert_allclose(data.features[:, -1], np.sin(np.arange(4, n)))

    def test_unknown_columns(self):
        panel = make_panel({"demand": np.arange(10, dtype=float)})
        with pytest.raises(KeyError):
            lagged_design_matrix(panel, "sales")
        with pytest.raises(KeyError):
            lagged_design_matrix(panel, "demand", extra_columns=("dummy",))

    def test_panel_too_short(self):
        panel = make_panel({"demand": np.arange(4, dtype=float)})
        with pytest.raises(InvalidInputError):
            lagged_design_matrix(panel, "demand", lags=4)


    def test_feature_rows_match_design_rows(self):
        rng = np.random.default_rng(2)
        panel = make_panel(
            {
                "demand": rng.normal(size=30),
                "temperature": rng.normal(size=30),
                "week_sin": np.sin(np.arange(30)),
            }
        )
        data = lagged_design_matrix(
            panel, "demand", lags=3, extra_columns=("week_sin",)
        )
        weeks = np.arange(3, 30)
        rows = lagged_feature_rows(panel, "demand", weeks, 3, ("week_sin",))
        assert_array_equal(rows, data.features)

    @pytest.mark.parametrize(
        "weeks, target",
        [
            ([0], None),  # would read week -1, the panel's last week
            ([2, 5], None),
            ([10], None),  # one past the panel
            ([3, 12], None),
            ([5], np.zeros(9)),
            ([5], np.zeros(11)),
        ],
    )
    def test_feature_rows_reject_weeks_outside_the_panel(self, weeks, target):
        panel = make_panel({"demand": np.arange(10.0), "temperature": np.ones(10)})
        with pytest.raises(InvalidInputError):
            lagged_feature_rows(panel, "demand", np.array(weeks), 3, target=target)

    def test_forecast_loop_rows_match_design_inside_training_window(self, monkeypatch):
        # Run the CLI's recursive forecast from a week inside the sample with
        # a stand-in model that returns the observed target, so the fed-back
        # history stays the observed one: every row it builds must then be
        # the design matrix's row for that week.
        rng = np.random.default_rng(3)
        n, lags, start = 40, 4, 20
        extras = ("week_sin", "week_cos")
        panel = make_panel(
            {
                "demand": rng.normal(size=n),
                "temperature_baseline": rng.normal(size=n),
                "week_sin": np.sin(np.arange(n)),
                "week_cos": np.cos(np.arange(n)),
            }
        )
        data = lagged_design_matrix(panel, "demand", lags=lags, extra_columns=extras)
        seen = []

        def observed(model, row):
            seen.append(np.array(row))
            return float(panel.column("demand")[start + len(seen) - 1])

        monkeypatch.setattr(cli, "predict", observed)
        out = cli._forest_recursive_forecast(
            None, panel, "demand", start, n - start, lags, extras
        )
        assert_array_equal(out, panel.column("demand")[start:])
        assert_array_equal(np.array(seen), data.features[start - lags :])


class TestTraining:
    def test_constant_target(self):
        rng = np.random.default_rng(5)
        data = SupervisedDataset(
            ("x",), rng.normal(size=(50, 1)), np.full(50, 4.25)
        )
        model = train_forest(data, ForestConfig(n_trees=5, block_length=10, seed=1))
        assert_allclose(predict(model, data.features), np.full(50, 4.25))

    def test_deep_trees_interpolate(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(size=200)
        data = SupervisedDataset(("x",), x[:, None], x.copy())
        config = ForestConfig(
            n_trees=100, mtry=1, min_node_size=1, block_length=20, seed=2
        )
        model = train_forest(data, config)
        mse = np.mean((predict(model, data.features) - data.target) ** 2)
        assert mse < 1e-3 * np.var(data.target)

    def test_prediction_within_target_range(self):
        rng = np.random.default_rng(8)
        data = make_dataset(rng, n=120)
        model = train_forest(data, ForestConfig(n_trees=40, block_length=15, seed=3))
        grid = rng.normal(scale=5.0, size=(200, 2))
        preds = predict(model, grid)
        assert preds.min() >= data.target.min()
        assert preds.max() <= data.target.max()

    def test_single_tree_forest_equals_its_tree(self):
        rng = np.random.default_rng(9)
        data = make_dataset(rng, n=80)
        model = train_forest(data, ForestConfig(n_trees=1, block_length=10, seed=4))
        assert_allclose(
            predict(model, data.features),
            _tree_predict(model.trees[0], data.features),
        )

    def test_single_vector_prediction(self):
        rng = np.random.default_rng(10)
        data = make_dataset(rng, n=80)
        model = train_forest(data, ForestConfig(n_trees=10, block_length=10, seed=5))
        value = predict(model, data.features[3])
        assert isinstance(value, float)
        assert value == predict(model, data.features[3:4])[0]

    def test_shape_mismatch(self):
        rng = np.random.default_rng(11)
        data = make_dataset(rng, n=60)
        model = train_forest(data, ForestConfig(n_trees=3, block_length=10, seed=6))
        with pytest.raises(ShapeError):
            predict(model, np.zeros((4, 5)))

    def test_mtry_exceeding_features(self):
        rng = np.random.default_rng(12)
        data = make_dataset(rng, n=60)
        with pytest.raises(ConfigError):
            train_forest(data, ForestConfig(n_trees=3, mtry=9, block_length=10))

    def test_leaf_values_are_training_means(self):
        rng = np.random.default_rng(13)
        data = make_dataset(rng, n=100, noise=1.0)
        config = ForestConfig(n_trees=5, min_node_size=8, block_length=10, seed=7)
        model = train_forest(data, config)
        for t, tree in enumerate(model.trees):
            # Rebuild the tree's resample from its own stream and check
            # every leaf holds the mean target of the rows routed to it.
            rng = substream(config.seed, "forest-tree", t)
            idx = moving_block_indices(100, 10, rng)
            leaves = _route_to_leaves(tree, data.features[idx])
            for leaf in np.unique(leaves):
                expected = data.target[idx[leaves == leaf]].mean()
                assert tree.value[leaf] == pytest.approx(expected, abs=1e-12)

    def test_determinism_across_threads_and_runs(self):
        rng = np.random.default_rng(14)
        data = make_dataset(rng, n=90)
        config = ForestConfig(n_trees=30, block_length=12, seed=8)
        runs = [train_forest(data, config, threads=t) for t in (1, 4, 1)]
        preds = [predict(m, data.features) for m in runs]
        assert_array_equal(preds[0], preds[1])
        assert_array_equal(preds[0], preds[2])
        scores = [impurity_importance(m).scores for m in runs]
        assert_array_equal(scores[0], scores[1])
        reports = [oob_metrics(m, data) for m in runs]
        assert reports[0].rmse == reports[1].rmse
        assert reports[0].rmse == reports[2].rmse

    def test_ensemble_mean_settles(self):
        rng = np.random.default_rng(15)
        data = make_dataset(rng, n=120, noise=0.5)
        half = train_forest(data, ForestConfig(n_trees=500, block_length=12, seed=9))
        full = train_forest(data, ForestConfig(n_trees=1000, block_length=12, seed=9))
        # RMS shift of the ensemble mean when doubling the tree count; a few
        # points sitting on leaf boundaries keep the max norm noisy.
        diff = predict(half, data.features) - predict(full, data.features)
        gap = np.sqrt(np.mean(diff**2))
        assert gap < 0.02 * np.std(data.target)


def _route_to_leaves(tree, features):
    node = np.zeros(features.shape[0], dtype=np.intp)
    active = tree.feature[node] >= 0
    while np.any(active):
        idx = np.nonzero(active)[0]
        at = node[idx]
        go_left = features[idx, tree.feature[at]] <= tree.threshold[at]
        node[idx] = np.where(go_left, tree.left[at], tree.right[at])
        active[idx] = tree.feature[node[idx]] >= 0
    return node


class TestImportance:
    def test_unused_feature_scores_zero(self):
        rng = np.random.default_rng(16)
        x0 = rng.normal(size=100)
        features = np.column_stack([x0, np.full(100, 7.0)])
        data = SupervisedDataset(("signal", "flat"), features, 3.0 * x0)
        model = train_forest(
            data, ForestConfig(n_trees=20, mtry=2, block_length=10, seed=10)
        )
        ranking = impurity_importance(model)
        assert ranking.scores[1] == 0.0
        assert ranking.scores[0] > 0.0
        assert ranking.ranked()[0][0] == "signal"

    def test_noise_feature_ranks_below_signal(self):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(500 + seed)
            data = make_dataset(rng, n=150, slope=2.0, noise=0.3)
            model = train_forest(
                data, ForestConfig(n_trees=30, block_length=15, seed=seed)
            )
            scores = impurity_importance(model).scores
            hits += scores[0] > scores[1]
        assert hits >= 19

    def test_lagged_drivers_rank_in_top_three(self):
        # Demand follows its own first lag and last week's temperature; both
        # lag-1 features should dominate the 8-feature lagged design.
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(900 + seed)
            n = 300
            temp = np.zeros(n)
            demand = np.zeros(n)
            for t in range(1, n):
                temp[t] = 0.7 * temp[t - 1] + rng.normal()
                demand[t] = (
                    0.6 * demand[t - 1] - 0.8 * temp[t - 1] + 0.5 * rng.normal()
                )
            panel = make_panel({"demand": demand, "temperature": temp})
            data = lagged_design_matrix(panel, "demand", lags=4)
            model = train_forest(
                data, ForestConfig(n_trees=60, block_length=30, seed=seed)
            )
            top3 = {name for name, _ in impurity_importance(model).ranked()[:3]}
            hits += {"demand.l1", "temperature.l1"} <= top3
        assert hits >= 18


class TestOob:
    def test_block_coverage_is_nearly_complete(self):
        # Pure combinatorics of block draws: with 1000 trees of 52-week
        # blocks over 338 rows, essentially every row is OOB somewhere.
        n, length = 338, 52
        ever_oob = np.zeros(n, dtype=bool)
        for b in range(1000):
            idx = moving_block_indices(n, length, np.random.default_rng(b))
            mask = np.ones(n, dtype=bool)
            mask[idx] = False
            ever_oob |= mask
        assert ever_oob.mean() > 0.99

    def test_report_accounting_and_identity(self):
        rng = np.random.default_rng(17)
        data = make_dataset(rng, n=160, noise=0.5)
        model = train_forest(data, ForestConfig(n_trees=80, block_length=20, seed=11))
        report = oob_metrics(model, data)
        assert report.n_covered + report.n_never_oob == report.n_rows
        assert report.n_covered > 0
        assert np.isfinite(report.rmse) and report.rmse > 0
        assert report.r2 == pytest.approx(1.0 - report.rsr**2, abs=1e-12)
        covered = report.oob_counts > 0
        assert np.all(np.isfinite(report.predictions[covered]))
        assert np.all(np.isnan(report.predictions[~covered]))

    def test_oob_counts_match_trees(self):
        rng = np.random.default_rng(18)
        data = make_dataset(rng, n=60, noise=0.5)
        model = train_forest(data, ForestConfig(n_trees=25, block_length=15, seed=12))
        report = oob_metrics(model, data)
        expected = np.sum([t.oob_mask for t in model.trees], axis=0)
        assert_array_equal(report.oob_counts, expected)

    def test_zero_oob_rows_raises(self):
        rng = np.random.default_rng(19)
        data = make_dataset(rng, n=40)
        # A block spanning the whole sample leaves nothing out-of-bag.
        model = train_forest(data, ForestConfig(n_trees=10, block_length=40, seed=13))
        with pytest.raises(DiagnosticsError):
            oob_metrics(model, data)

    def test_constant_target_has_undefined_rsr(self):
        rng = np.random.default_rng(20)
        data = SupervisedDataset(
            ("x",), rng.normal(size=(50, 1)), np.full(50, 2.0)
        )
        model = train_forest(data, ForestConfig(n_trees=10, block_length=10, seed=14))
        with pytest.raises(MetricUndefinedError):
            oob_metrics(model, data)

    def test_dataset_mismatch(self):
        rng = np.random.default_rng(21)
        data = make_dataset(rng, n=50)
        other = make_dataset(rng, n=40)
        model = train_forest(data, ForestConfig(n_trees=5, block_length=10, seed=15))
        with pytest.raises(ShapeError):
            oob_metrics(model, other)


class TestDatasetValidation:
    def test_name_count_mismatch(self):
        with pytest.raises(ShapeError):
            SupervisedDataset(("a",), np.zeros((4, 2)), np.zeros(4))

    def test_duplicate_names(self):
        with pytest.raises(InvalidInputError):
            SupervisedDataset(("a", "a"), np.zeros((4, 2)), np.zeros(4))

    def test_non_finite(self):
        features = np.zeros((4, 1))
        target = np.array([0.0, np.nan, 0.0, 0.0])
        with pytest.raises(InvalidInputError):
            SupervisedDataset(("a",), features, target)

    def test_config_collects_all_problems(self):
        with pytest.raises(ConfigError) as exc:
            ForestConfig(n_trees=0, min_node_size=0, block_length=0, seed=-1)
        assert set(exc.value.fields) == {
            "n_trees",
            "min_node_size",
            "block_length",
            "seed",
        }


# ---------------------------------------------------------------------------
# Reference implementation: the forest grown one tree and one node at a
# time.  The batched engine must reproduce its trees exactly.


def _oracle_grow_tree(
    features: np.ndarray,
    target: np.ndarray,
    rows: np.ndarray,
    weight: np.ndarray,
    mtry: int,
    min_node_size: int,
    rng: np.random.Generator,
) -> tuple[list, list, list, list, list, np.ndarray]:
    """Grow one CART regression tree on ``rows``, row ``rows[i]`` standing
    for ``weight[i]`` resampled rows.

    Nodes are visited in level order (first in, first out), so children are
    numbered in their parents' order and each searched node takes the next
    permutation from ``rng``.  A node splits only when it holds more than
    ``min_node_size`` resampled rows and its targets are not all equal.
    Splits minimise the summed child SSE over midpoints of consecutive
    distinct sorted values, from prefix sums of w, w*y and w*y*y in a stable
    sort of the node's rows.  Ties take the lowest feature index, then the
    lowest threshold, so growth is deterministic given the RNG stream.
    """
    n_features = features.shape[1]
    node_feature: list[int] = []
    node_threshold: list[float] = []
    node_left: list[int] = []
    node_right: list[int] = []
    node_value: list[float] = []
    gains = np.zeros(n_features)

    def new_node(node_rows: np.ndarray, w: np.ndarray) -> int:
        node_feature.append(-1)
        node_threshold.append(np.nan)
        node_left.append(-1)
        node_right.append(-1)
        node_value.append(float(np.sum(w * target[node_rows]) / np.sum(w)))
        queue.append((len(node_feature) - 1, node_rows, w))
        return len(node_feature) - 1

    queue: collections.deque = collections.deque()
    new_node(rows, weight)
    while queue:
        node, node_rows, w = queue.popleft()
        y = target[node_rows]
        if w.sum() <= min_node_size or np.all(y == y[0]):
            continue
        wy = w * y
        node_sse = float(np.dot(wy, y)) - float(np.sum(wy)) * node_value[node]
        candidates = np.sort(rng.permutation(n_features)[:mtry])
        values = features[np.ix_(node_rows, candidates)]
        order = np.argsort(values, axis=0, kind="stable")
        sorted_values = np.take_along_axis(values, order, axis=0)
        sorted_w, sorted_y = w[order], y[order]
        prefix_w = np.cumsum(sorted_w, axis=0)
        prefix_sum = np.cumsum(sorted_w * sorted_y, axis=0)
        prefix_sq = np.cumsum(sorted_w * sorted_y * sorted_y, axis=0)
        left_n = prefix_w[:-1]
        right_n = prefix_w[-1] - left_n
        left_sse = prefix_sq[:-1] - prefix_sum[:-1] ** 2 / left_n
        right_sse = (prefix_sq[-1] - prefix_sq[:-1]) - (
            prefix_sum[-1] - prefix_sum[:-1]
        ) ** 2 / right_n
        child_sse = left_sse + right_sse
        # A cut is valid only between distinct values of the split feature.
        child_sse[sorted_values[1:] <= sorted_values[:-1]] = np.inf
        # Feature-major argmin: first occurrence = lowest candidate index,
        # then lowest threshold within that feature.
        flat = child_sse.T.reshape(-1)
        best = int(np.argmin(flat))
        if not np.isfinite(flat[best]):
            continue  # all candidate features constant on this node
        j = best // (node_rows.size - 1)
        pos = best % (node_rows.size - 1) + 1
        feature = int(candidates[j])
        threshold = float((sorted_values[pos - 1, j] + sorted_values[pos, j]) / 2.0)
        gains[feature] += max(node_sse - float(flat[best]), 0.0)
        node_feature[node] = feature
        node_threshold[node] = threshold
        left, right = order[:pos, j], order[pos:, j]
        node_left[node] = new_node(node_rows[left], w[left])
        node_right[node] = new_node(node_rows[right], w[right])
    return node_feature, node_threshold, node_left, node_right, node_value, gains


def _oracle_forest(data, config, in_bag_counts=True):
    """Per-tree (feature, threshold, left, right, value, gains), grown one
    tree at a time from each tree's own stream.

    Each tree grows on its distinct rows in ascending order with their
    counts in the resample, or with ``in_bag_counts=False`` on the resampled
    rows themselves, in resample order and with unit weights.
    """
    n = data.n_rows
    mtry = config.resolved_mtry(data.n_features)
    n_blocks, n_draws, _ = moving_block_plan(n, config.block_length)
    trees = []
    for t in range(config.n_trees):
        rng = substream(config.seed, "forest-tree", t)
        starts = rng.integers(0, n_blocks, size=n_draws)
        rows = (starts[:, None] + np.arange(config.block_length)).reshape(-1)[:n]
        if in_bag_counts:
            rows, weight = np.unique(rows, return_counts=True)
        else:
            weight = np.ones(n, dtype=int)
        trees.append(
            _oracle_grow_tree(
                data.features, data.target, rows, weight, mtry,
                config.min_node_size, rng,
            )
        )
    return trees


def _oracle_dataset(case):
    rng = np.random.default_rng(40)
    n = 120
    x = rng.normal(size=(n, 4))
    y = 5.0 + 2.0 * x[:, 0] + 0.5 * rng.normal(size=n)
    if case == "constant_feature":
        x[:, 2] = 3.5
    if case == "constant_target":
        y = np.full(n, 0.1)
    if case == "coarse_values":
        # Rounded features tie across distinct rows, and rounded targets put
        # duplicated rows into constant-target nodes whose SSE is
        # dot - n * mean**2 at rounding level.
        x = np.round(x, 1)
        y = np.round(y, 1) / 10.0
    return SupervisedDataset(("a", "b", "c", "d"), x, y)


ORACLE_CASES = {
    # Overlapping moving blocks duplicate rows in every case.
    "default": ("default", dict(n_trees=25, block_length=12, seed=1)),
    "constant_feature": ("constant_feature", dict(n_trees=20, block_length=12, seed=2)),
    "constant_target": ("constant_target", dict(n_trees=10, block_length=12, seed=3)),
    "coarse_values": (
        "coarse_values",
        dict(n_trees=30, block_length=6, min_node_size=1, seed=4),
    ),
    "min_node_size_1": (
        "default",
        dict(n_trees=10, min_node_size=1, block_length=12, seed=5),
    ),
    "mtry_all": ("default", dict(n_trees=10, mtry=4, block_length=12, seed=6)),
    "one_tree": ("default", dict(n_trees=1, block_length=12, seed=7)),
    "one_block": ("default", dict(n_trees=3, block_length=120, seed=8)),
}


class TestOracle:
    @pytest.mark.parametrize("name", sorted(ORACLE_CASES))
    def test_growth_matches_per_node_loop(self, name):
        case, kwargs = ORACLE_CASES[name]
        data = _oracle_dataset(case)
        config = ForestConfig(**kwargs)
        model = train_forest(data, config)
        expected = _oracle_forest(data, config)
        assert model.n_trees == len(expected)
        for tree, (feature, threshold, left, right, value, gains) in zip(
            model.trees, expected
        ):
            assert_array_equal(tree.feature, feature)
            assert_array_equal(tree.threshold, threshold)
            assert_array_equal(tree.left, left)
            assert_array_equal(tree.right, right)
            leaf = tree.feature < 0  # the model keeps no internal-node means
            assert_allclose(tree.value[leaf], np.asarray(value)[leaf], rtol=1e-12, atol=0)
            assert_allclose(tree.importance, gains, rtol=1e-12, atol=0)

    @pytest.mark.parametrize(
        "name",
        ["coarse_values", "constant_feature", "default", "min_node_size_1", "mtry_all"],
    )
    def test_in_bag_counts_equal_repeated_rows(self, name):
        # With integer-valued targets every sum is exact, so weighting each
        # distinct row by its count must give bit for bit the trees grown on
        # the repeated rows themselves.
        case, kwargs = ORACLE_CASES[name]
        data = _oracle_dataset(case)
        data = SupervisedDataset(
            data.feature_names, data.features, np.rint(10.0 * data.target)
        )
        config = ForestConfig(**kwargs)
        model = train_forest(data, config)
        expected = _oracle_forest(data, config, in_bag_counts=False)
        for tree, (feature, threshold, left, right, value, gains) in zip(
            model.trees, expected, strict=True
        ):
            assert_array_equal(tree.feature, feature)
            assert_array_equal(tree.threshold, threshold)
            assert_array_equal(tree.left, left)
            assert_array_equal(tree.right, right)
            leaf = tree.feature < 0  # the model keeps no internal-node means
            assert_array_equal(tree.value[leaf], np.asarray(value)[leaf])
            assert_array_equal(tree.importance, gains)

    def test_grouping_does_not_change_trees(self, monkeypatch):
        from climdemand import forest

        data = _oracle_dataset("coarse_values")
        config = ForestConfig(n_trees=12, block_length=6, min_node_size=1, seed=9)
        whole = train_forest(data, config)
        for group_rows, step_elements in (
            (5 * data.n_rows, 64),  # groups of four trees, a few nodes a search
            (1, 1),  # one tree a group, one node and one permutation a step
        ):
            monkeypatch.setattr(forest, "_GROUP_ROWS", group_rows)
            monkeypatch.setattr(forest, "_STEP_ELEMENTS", step_elements)
            grouped = train_forest(data, config)
            for name in ("feature", "threshold", "left", "right", "value", "offsets"):
                assert_array_equal(getattr(grouped, name), getattr(whole, name))
            assert_array_equal(grouped.importance, whole.importance)

    @pytest.mark.parametrize("value", [0.1, 0.7])
    def test_constant_target_trees_are_single_leaves(self, value):
        # Every root holds 120 rows; for 0.7 their dot(y, y) - n * mean**2
        # is positive in floating point.
        x = _oracle_dataset("constant_target").features
        data = SupervisedDataset(("a", "b", "c", "d"), x, np.full(120, value))
        model = train_forest(data, ForestConfig(**ORACLE_CASES["constant_target"][1]))
        assert_array_equal(model.offsets, np.arange(model.n_trees + 1))
        assert_array_equal(model.feature, -1)
        assert_allclose(model.value, value, rtol=1e-15)
        assert_array_equal(model.importance, 0.0)

    def test_equal_targets_are_leaves_even_with_rounding_sse(self, monkeypatch):
        from climdemand import forest

        # Seven copies of 0.1 have dot(y, y) - n * mean**2 > 0 in floating
        # point, which made such a node search for a split.
        equal = np.full(7, 0.1)
        assert float(equal.dot(equal)) - 7 * np.mean(equal) ** 2 > 0.0
        y = np.concatenate([equal, [0.1, 0.2, 0.1, 0.1, 0.1, 0.1, 0.1]])
        mean, split, node_sse = forest._leaf_rule(
            y, np.ones(14, dtype=np.int32), np.array([0, 7]), min_node_size=5
        )
        assert_array_equal(split, [1])
        assert_allclose(mean, [0.1, 0.8 / 7], rtol=1e-15)
        assert_allclose(node_sse, 0.01 * 6 / 7, rtol=1e-12)

        # In a forest no node of equal targets is searched, so none takes a
        # permutation from its tree's stream; the oracle tests show that the
        # streams stay aligned.
        searched = []
        search = forest._search_splits

        def spy(flat_ranks, n_rows, rows, y, weight, begin, size, candidates):
            for b, k in zip(begin, size):
                searched.append(np.ptp(y[b : b + k]))
            return search(flat_ranks, n_rows, rows, y, weight, begin, size, candidates)

        monkeypatch.setattr(forest, "_search_splits", spy)
        rng = np.random.default_rng(43)
        x = rng.normal(size=(120, 2))
        target = np.where(x[:, 0] < 0.0, 0.1, np.round(x[:, 1], 1))
        data = SupervisedDataset(("a", "b"), x, target)
        train_forest(data, ForestConfig(n_trees=5, block_length=12, seed=11))
        assert searched and min(searched) > 0.0


def _reference_search(features, rows, y, weight, begin, size, candidates):
    """``_search_splits`` one node at a time, with ``_oracle_grow_tree``'s
    sort, prefix sums, invalid cuts and first-minimum rule."""
    best, cuts, sses, ordered = [], [], [], []
    for b, k, cand in zip(begin, size, candidates):
        node_rows, w, node_y = rows[b : b + k], weight[b : b + k], y[b : b + k]
        values = features[np.ix_(node_rows, cand)]
        order = np.argsort(values, axis=0, kind="stable")
        sorted_values = np.take_along_axis(values, order, axis=0)
        sorted_w, sorted_y = w[order], node_y[order]
        prefix_w = np.cumsum(sorted_w, axis=0)
        prefix_sum = np.cumsum(sorted_w * sorted_y, axis=0)
        prefix_sq = np.cumsum(sorted_w * sorted_y * sorted_y, axis=0)
        left_n = prefix_w[:-1]
        right_n = prefix_w[-1] - left_n
        left_sse = prefix_sq[:-1] - prefix_sum[:-1] ** 2 / left_n
        right_sse = (prefix_sq[-1] - prefix_sq[:-1]) - (
            prefix_sum[-1] - prefix_sum[:-1]
        ) ** 2 / right_n
        child_sse = left_sse + right_sse
        child_sse[sorted_values[1:] <= sorted_values[:-1]] = np.inf
        flat = child_sse.T.reshape(-1)
        at = int(np.argmin(flat))
        j = at // (k - 1)
        best.append(j)
        cuts.append(at % (k - 1) + 1)
        sses.append(flat[at])
        ordered.append(b + order[:, j])
    return np.array(best), np.array(cuts), np.array(sses), np.concatenate(ordered)


class TestSplitSearch:
    """``_search_splits`` on crafted chunks against a per-node search."""

    @staticmethod
    def _features(rng, n):
        x = rng.normal(size=(n, 4))
        x[:, 1] = np.round(x[:, 1], 1)  # ties between distinct rows
        x[:, 2] = np.where(np.arange(n) % 3 == 0, 1.0, np.round(x[:, 2]))
        x[:, 3] = 2.5  # constant
        return x

    @staticmethod
    def _check(features, target, rng, sizes, chunk, candidates, pick=None):
        from climdemand import forest

        n = features.shape[0]
        pick = pick or {}
        rows = np.concatenate(
            [pick.get(i, rng.choice(n, k, replace=False)) for i, k in enumerate(sizes)]
        ).astype(np.int32)
        weight = rng.integers(1, 5, rows.size).astype(np.int32)
        y = target[rows]
        size = np.asarray(sizes)[chunk]
        begin = (np.cumsum(sizes) - sizes)[chunk]
        candidates = np.asarray(candidates, dtype=np.intp)
        ranks = forest._dense_ranks(features)
        got = forest._search_splits(
            ranks.reshape(-1), n, rows, y, weight, begin, size, candidates
        )
        expected = _reference_search(
            features, rows, y, weight, begin, size, candidates
        )
        for a, b in zip(got, expected, strict=True):
            assert_array_equal(a, b)
        assert_array_equal(got[2].view(np.int64), expected[2].view(np.int64))
        return got

    @pytest.mark.parametrize("shift", [-1, 0, 1, 40])
    def test_matches_per_node_search_around_the_running_sum_switch(self, shift):
        from climdemand import forest

        rng = np.random.default_rng(50 + shift)
        features = self._features(rng, 300)
        target = rng.normal(size=300)
        widest = forest._ROW_SUMS + shift
        sizes = [9, widest, 2, 17, widest - 5, 3]
        # The widest node first, then the rest out of buffer order; the last
        # node of the buffer (3 rows) pads past the end of the buffer.
        chunk = [1, 4, 3, 0, 5, 2]
        candidates = np.sort([rng.permutation(4)[:3] for _ in chunk], axis=1)
        self._check(features, target, rng, sizes, chunk, candidates)

    def test_ties_and_constant_candidates(self):
        rng = np.random.default_rng(51)
        features = self._features(rng, 120)
        target = np.round(rng.normal(size=120), 1)
        ones = np.flatnonzero(features[:, 2] == 1.0)
        sizes = [6, 25, 8, 12]
        # Node 2 takes rows where features 2 and 3 are both constant.
        pick = {2: rng.choice(ones, 8, replace=False)}
        chunk = [1, 3, 0, 2]
        candidates = [[1, 2], [0, 1], [1, 3], [2, 3]]
        sse = self._check(features, target, rng, sizes, chunk, candidates, pick)[2]
        assert np.isinf(sse[3]) and np.isfinite(sse[:3]).all()

    def test_keys_wider_than_int32(self):
        rng = np.random.default_rng(52)
        n = 1 << 17
        features = rng.normal(size=(n, 2))
        features[:, 1] = np.round(features[:, 1], 2)
        target = rng.normal(size=n)
        sizes = [256, 200, 3, 120, 31, 2, 64, 90, 5, 7, 11, 13, 250, 17, 19, 23, 29]
        chunk = np.argsort(sizes, kind="stable")[::-1]
        candidates = np.tile([0, 1], (len(sizes), 1))
        # Segment, rank and position bits overflow an int32 key.
        segments, width = candidates.size, max(sizes)
        assert (segments - 1).bit_length() + n.bit_length() + width.bit_length() > 31
        self._check(features, target, rng, sizes, chunk, candidates)

    def test_sort_key_guard(self, monkeypatch):
        from climdemand import forest

        data = _oracle_dataset("default")  # 120 rows: 7 bits of rank and position
        config = ForestConfig(n_trees=3, block_length=12, seed=13)
        whole = train_forest(data, config)
        # Segment bits up to 49 fit a 63-bit key; one more does not.
        monkeypatch.setattr(forest, "_STEP_ELEMENTS", (1 << 49) - 1)
        widest = train_forest(data, config)
        assert_array_equal(widest.threshold, whole.threshold)
        monkeypatch.setattr(forest, "_STEP_ELEMENTS", 1 << 49)
        with pytest.raises(InvalidInputError, match="sort keys"):
            train_forest(data, config)


class TestGrowthMemory:
    # The peak above the forest's own nodes, measured with numpy 2.4: 3.5 MiB
    # at the shipped step sizes (3.0 with the search step at 2**13); twice
    # the group (4.6) or twice the search step (4.6) goes over, and so did
    # growth into arrays sized for the most nodes the trees can have (4.9).
    BUDGET = 4.5 * 2**20

    def test_peak_stays_within_node_arrays_plus_budget(self):
        from climdemand import forest

        rng = np.random.default_rng(44)
        data = make_dataset(rng, n=334, n_noise_features=7)  # mtry 3
        group = forest._GROUP_ROWS // (data.n_rows + 3)
        config = ForestConfig(n_trees=group + 1, block_length=52, seed=12)
        peak, model = traced_peak(lambda: train_forest(data, config))
        # Two groups, joined into node arrays that own their data and hold
        # the forest's nodes, no more.
        arrays = [getattr(model, name) for name in ("feature", "left", "split_value")]
        assert all(a.base is None for a in arrays)
        assert peak <= sum(a.nbytes for a in arrays) + self.BUDGET


class TestPackedPrediction:
    def setup_method(self):
        rng = np.random.default_rng(41)
        self.data = make_dataset(rng, n=140, noise=0.5, n_noise_features=3)
        self.model = train_forest(
            self.data, ForestConfig(n_trees=60, block_length=14, seed=10)
        )

    def test_matrix_and_row_predictions_equal_tree_loop(self):
        grid = np.random.default_rng(42).normal(size=(50, 4))
        total = np.zeros(len(grid))
        for tree in self.model.trees:
            total += _tree_predict(tree, grid)
        assert_array_equal(predict(self.model, grid), total / self.model.n_trees)
        for row, expected in zip(grid, total / self.model.n_trees):
            assert predict(self.model, row) == expected
        assert predict(self.model, grid[:0]).shape == (0,)

    def test_oob_equals_tree_loop(self):
        n = self.data.n_rows
        pred_sum = np.zeros(n)
        counts = np.zeros(n, dtype=int)
        for tree in self.model.trees:
            rows = np.nonzero(tree.oob_mask)[0]
            pred_sum[rows] += _tree_predict(tree, self.data.features[rows])
            counts[rows] += 1
        report = oob_metrics(self.model, self.data)
        assert_array_equal(report.oob_counts, counts)
        covered = counts > 0
        expected = pred_sum[covered] / counts[covered]
        assert_array_equal(report.predictions[covered], expected)
        actual = self.data.target[covered]
        rmse = np.sqrt(np.mean((actual - expected) ** 2))
        assert report.rsr == rmse / np.sqrt(np.mean((actual - actual.mean()) ** 2))

    def test_tree_views_share_the_packed_arrays(self):
        model = self.model
        sizes = [tree.feature.size for tree in model.trees]
        assert sum(sizes) == model.feature.size
        assert_array_equal(np.diff(model.offsets), sizes)
        split_value = np.split(model.split_value, model.offsets[1:-1])
        for tree, packed in zip(model.trees, split_value, strict=True):
            for name in ("feature", "left"):
                assert np.shares_memory(getattr(tree, name), getattr(model, name))
            assert np.shares_memory(tree.oob_mask, model.oob_mask)
            # The third stored array holds cuts at internal nodes and leaf
            # means at leaves.
            internal = tree.feature >= 0
            assert_array_equal(tree.threshold[internal], packed[internal])
            assert_array_equal(tree.value[~internal], packed[~internal])


class TestPackedLayout:
    @staticmethod
    def _train(n_rows, n_features, **kwargs):
        rng = np.random.default_rng(45)
        data = make_dataset(rng, n=n_rows, n_noise_features=n_features - 1)
        config = dict(n_trees=2, block_length=min(n_rows, 12), seed=14)
        return train_forest(data, ForestConfig(**{**config, **kwargs}))

    @pytest.mark.parametrize("n_features, kind", [(128, np.int8), (129, np.int16)])
    def test_feature_type_holds_every_column(self, n_features, kind):
        model = self._train(30, n_features, mtry=n_features)
        assert model.feature.dtype == kind
        assert model.feature.max() < n_features

    @pytest.mark.parametrize(
        "n_rows, kind",
        [(64, np.int8), (65, np.int16), (16384, np.int16), (16385, np.int32)],
    )
    def test_left_type_follows_the_row_count(self, n_rows, kind):
        # Children are numbered up to 2 n - 2.  Above 65 rows the trees are
        # single leaves, so only the type is at stake.
        min_node_size = 5 if n_rows <= 65 else n_rows
        model = self._train(n_rows, 2, min_node_size=min_node_size)
        assert model.left.dtype == kind
        assert np.iinfo(kind).max >= 2 * n_rows - 2

    def test_right_child_is_left_plus_one(self):
        model = self._train(150, 4, n_trees=20, min_node_size=1)
        for tree in model.trees:
            internal = tree.feature >= 0
            assert internal.any()
            assert_array_equal(tree.right[internal], tree.left[internal] + 1)
            assert_array_equal(tree.left[~internal], -1)
            assert_array_equal(tree.right[~internal], -1)
            assert np.isnan(tree.threshold[~internal]).all()
            assert np.isnan(tree.value[internal]).all()
            assert not np.isnan(tree.threshold[internal]).any()
            assert not np.isnan(tree.value[~internal]).any()

    @pytest.mark.parametrize("n_features", [8, 11])
    def test_node_bytes_at_the_pipeline_sizes(self, n_features):
        # The default pipeline's two forests train on 334 rows.
        model = self._train(334, n_features)
        stored = (model.feature, model.left, model.split_value)
        assert sum(a.itemsize for a in stored) <= 11
