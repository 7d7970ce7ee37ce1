"""Random forest regression on block-resampled time series.

Ordinary bagging draws rows independently, which destroys the serial
dependence that weekly demand series carry.  The forest here draws
overlapping blocks of consecutive rows instead (moving-block bootstrap), so
every tree trains on stretches that preserve short-range autocorrelation.
Out-of-bag evaluation follows the same logic: a row counts as out-of-bag for
a tree only when none of that tree's sampled blocks covers its index.

The engine grows many trees at once, level by level.  Each tree grows on
the distinct rows of its resample, each weighted by its count there (its
in-bag count), so every node statistic is the one of the resampled rows
while the split search visits each distinct row once.  A node splits only
when it holds more than ``min_node_size`` resampled rows and its targets
are not all equal.  Each tree draws from its own random stream in an order
fixed by the tree alone, so it comes out the same as if it had been grown
alone; but every step takes the next level of all trees' nodes and runs
their statistics and split searches as one set of array operations.  A
split search lays a chunk of nodes out as one grid, positions down axis 0
and (node, candidate feature) segments across axis 1: one sort of packed
keys orders every segment by dense rank, and the running sums of w, w·y and
w·y² add whole rows in the order of a per-segment ``np.cumsum``, so the
trees are those of a per-node search bit for bit.  The trees are stored
packed in one set of node arrays, and prediction routes every (tree, row)
pair at once.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from ._rng import seed_problems, substream
from .errors import (
    ConfigError,
    DiagnosticsError,
    InvalidInputError,
    MetricUndefinedError,
    ShapeError,
    UnknownColumnError,
    integer_problem,
)
from .panel import PanelDataset, finite_array

__all__ = [
    "SupervisedDataset",
    "ForestConfig",
    "ForestModel",
    "ImportanceRanking",
    "OobReport",
    "lagged_design_matrix",
    "lagged_feature_rows",
    "moving_block_plan",
    "moving_block_indices",
    "mbb_resample",
    "train_forest",
    "predict",
    "impurity_importance",
    "oob_metrics",
]


@dataclasses.dataclass(frozen=True)
class SupervisedDataset:
    """Time-ordered regression rows with named feature columns.

    Parameters
    ----------
    feature_names : tuple of str
        One name per feature column, unique.
    features : ndarray, shape (n_rows, n_features)
        Feature matrix; row order is temporal.
    target : ndarray, shape (n_rows,)
        Regression target aligned with ``features``.
    """

    feature_names: tuple[str, ...]
    features: np.ndarray
    target: np.ndarray

    def __post_init__(self) -> None:
        features = finite_array(self.features, "features", ndim=2)
        target = finite_array(self.target, "target")
        if target.shape[0] != features.shape[0]:
            raise ShapeError("target must have one value per feature row")
        if features.shape[0] == 0:
            raise InvalidInputError("dataset has no rows")
        names = tuple(self.feature_names)
        if len(names) != features.shape[1]:
            raise ShapeError("feature_names must match the number of feature columns")
        if len(set(names)) != len(names):
            raise InvalidInputError("feature names must be unique")
        features.setflags(write=False)
        target.setflags(write=False)
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "target", target)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclasses.dataclass(frozen=True)
class ForestConfig:
    """Hyperparameters for :func:`train_forest`.

    ``mtry=None`` resolves to ``ceil(n_features / 3)`` at training time, the
    usual regression heuristic.  ``min_node_size`` counts resampled rows: a
    row drawn twice into a tree's block resample counts twice.
    """

    n_trees: int = 1000
    mtry: int | None = None
    min_node_size: int = 5
    block_length: int = 52
    seed: int = 0

    def __post_init__(self) -> None:
        fields = ("n_trees", "min_node_size", "block_length") + ("mtry",) * (self.mtry is not None)
        problems = {f: p for f in fields if (p := integer_problem(getattr(self, f), 1))}
        problems.update(seed_problems(self.seed))
        if problems:
            raise ConfigError(problems)

    def resolved_mtry(self, n_features: int) -> int:
        if self.mtry is None:
            return min(n_features, math.ceil(n_features / 3))
        return self.mtry


@dataclasses.dataclass(frozen=True)
class _Tree:
    """One regression tree as parallel node arrays (views into the forest's).

    ``feature[i] == -1`` marks node ``i`` as a leaf; ``value`` holds the mean
    training target of every node (internal nodes included).  ``left`` and
    ``right`` index nodes of this tree.  ``feature``, ``left`` and ``right``
    are int32.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    block_starts: np.ndarray
    oob_mask: np.ndarray
    importance: np.ndarray


@dataclasses.dataclass(frozen=True)
class ForestModel:
    """Trained forest: every tree packed into one set of node arrays.

    Tree ``t`` owns nodes ``offsets[t]:offsets[t + 1]`` of ``feature``,
    ``threshold``, ``left``, ``right`` and ``value``, with child indices
    local to the tree.  Row ``t`` of ``block_starts``, ``oob_mask`` and
    ``importance`` holds tree ``t``'s resampling bookkeeping and per-feature
    impurity reduction.
    """

    feature_names: tuple[str, ...]
    config: ForestConfig
    n_rows: int
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    offsets: np.ndarray
    block_starts: np.ndarray
    oob_mask: np.ndarray
    importance: np.ndarray

    @property
    def n_trees(self) -> int:
        return self.offsets.size - 1

    @functools.cached_property
    def trees(self) -> tuple[_Tree, ...]:
        """Per-tree views into the packed arrays, in tree order."""
        bounds = self.offsets.tolist()
        return tuple(
            _Tree(
                feature=self.feature[a:b],
                threshold=self.threshold[a:b],
                left=self.left[a:b],
                right=self.right[a:b],
                value=self.value[a:b],
                block_starts=self.block_starts[t],
                oob_mask=self.oob_mask[t],
                importance=self.importance[t],
            )
            for t, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]))
        )


@dataclasses.dataclass(frozen=True)
class ImportanceRanking:
    """Per-feature impurity reduction, averaged over trees."""

    feature_names: tuple[str, ...]
    scores: np.ndarray

    def ranked(self) -> list[tuple[str, float]]:
        """Pairs sorted by descending score; ties keep feature order."""
        order = np.argsort(-self.scores, kind="stable")
        return [(self.feature_names[i], float(self.scores[i])) for i in order]


@dataclasses.dataclass(frozen=True)
class OobReport:
    """Out-of-bag evaluation summary.

    ``n_never_oob`` counts rows that every tree saw in-bag; those rows carry
    ``nan`` in ``predictions`` and are excluded from the error metrics.
    """

    rmse: float
    rsr: float
    r2: float
    n_rows: int
    n_covered: int
    n_never_oob: int
    predictions: np.ndarray
    oob_counts: np.ndarray


def lagged_design_matrix(
    panel: PanelDataset,
    target_name: str,
    lags: int = 4,
    extra_columns: tuple[str, ...] = (),
) -> SupervisedDataset:
    """Build a supervised dataset from a weekly panel.

    Features at week ``t`` are lags 1..``lags`` of the target, lags 1..``lags``
    of every other panel column (panel order), and the listed extra columns
    taken contemporaneously at ``t``.  The first ``lags`` weeks are dropped.

    Parameters
    ----------
    panel : PanelDataset
        Aligned weekly panel.
    target_name : str
        Column to predict.
    lags : int
        Number of lags per variable, at least 1.
    extra_columns : tuple of str
        Panel columns entered unlagged (deterministic calendar terms,
        baseline fitted values).  They are excluded from the lagged set.

    Returns
    -------
    SupervisedDataset

    Raises
    ------
    UnknownColumnError
        Unknown target or extra column (a ``KeyError``).
    InvalidInputError
        ``lags < 1`` or the panel is no longer than ``lags``.
    """
    if problem := integer_problem(lags, 1):
        raise InvalidInputError(f"lags {problem}")
    known = set(panel.column_names)
    missing = [n for n in (target_name, *extra_columns) if n not in known]
    if missing:
        raise UnknownColumnError(missing, panel.column_names)
    if panel.n_weeks <= lags:
        raise InvalidInputError(
            f"panel has {panel.n_weeks} weeks; need more than lags={lags}"
        )
    names = [
        f"{name}.l{lag}"
        for name in _lagged_columns(panel, target_name, extra_columns)
        for lag in range(1, lags + 1)
    ]
    weeks = np.arange(lags, panel.n_weeks)
    return SupervisedDataset(
        feature_names=(*names, *extra_columns),
        features=lagged_feature_rows(panel, target_name, weeks, lags, extra_columns),
        target=panel.column(target_name)[lags:],
    )


def _lagged_columns(
    panel: PanelDataset, target_name: str, extra_columns: tuple[str, ...]
) -> list[str]:
    """Columns entered with lags: the target, then the rest in panel order."""
    rest = [
        name
        for name in panel.column_names
        if name != target_name and name not in extra_columns
    ]
    return [target_name, *rest]


def lagged_feature_rows(
    panel: PanelDataset,
    target_name: str,
    weeks: np.ndarray,
    lags: int = 4,
    extra_columns: tuple[str, ...] = (),
    target: np.ndarray | None = None,
) -> np.ndarray:
    """Feature rows of :func:`lagged_design_matrix` for the given weeks.

    Row ``i`` describes week ``t = weeks[i]`` (``t >= lags``), with the
    columns of :func:`lagged_design_matrix` in its order.  ``target``, when
    given, replaces the panel's target series, so a recursive forecast can
    feed its own predictions back as lags.

    Raises
    ------
    InvalidInputError
        A week outside ``[lags, panel.n_weeks)``, or a ``target`` whose
        length is not the panel's week count.
    """
    weeks = np.asarray(weeks)
    if weeks.size and (weeks.min() < lags or weeks.max() >= panel.n_weeks):
        raise InvalidInputError(
            f"weeks must lie in [{lags}, {panel.n_weeks}) for lags={lags}"
        )
    if target is not None and len(target) != panel.n_weeks:
        raise InvalidInputError(
            f"target has {len(target)} values; the panel has {panel.n_weeks} weeks"
        )
    columns: list[np.ndarray] = []
    for name in _lagged_columns(panel, target_name, extra_columns):
        series = panel.column(name)
        if name == target_name and target is not None:
            series = np.asarray(target, dtype=float)
        columns.extend(series[weeks - lag] for lag in range(1, lags + 1))
    columns.extend(panel.column(name)[weeks] for name in extra_columns)
    return np.column_stack(columns)


def moving_block_plan(n_rows: int, block_length: int) -> tuple[int, int, int]:
    """Sizes of a moving-block resample before truncation.

    Returns
    -------
    (n_blocks, n_draws, n_raw_rows)
        Number of overlapping candidate blocks, blocks drawn with
        replacement, and concatenated rows before truncation to ``n_rows``.
    """
    if problem := integer_problem(n_rows, 1):
        raise InvalidInputError(f"n_rows {problem}")
    if integer_problem(block_length, 1) or block_length > n_rows:
        raise ConfigError(
            {"block_length": f"must be an integer in [1, {n_rows}] for {n_rows} rows, "
                             f"got {block_length!r}"}
        )
    n_blocks = n_rows - block_length + 1
    n_draws = math.ceil(n_rows / block_length)
    return n_blocks, n_draws, n_draws * block_length


def moving_block_indices(
    n_rows: int, block_length: int, rng: np.random.Generator
) -> np.ndarray:
    """Row indices of one moving-block resample, truncated to ``n_rows``."""
    starts = _draw_block_starts(n_rows, block_length, rng)
    return _indices_from_starts(starts, block_length, n_rows)


def _draw_block_starts(
    n_rows: int, block_length: int, rng: np.random.Generator
) -> np.ndarray:
    n_blocks, n_draws, _ = moving_block_plan(n_rows, block_length)
    return rng.integers(0, n_blocks, size=n_draws)


def _indices_from_starts(
    starts: np.ndarray, block_length: int, n_rows: int
) -> np.ndarray:
    raw = (starts[:, None] + np.arange(block_length)[None, :]).reshape(-1)
    return raw[:n_rows]


def mbb_resample(
    dataset: SupervisedDataset, block_length: int, rng: np.random.Generator
) -> SupervisedDataset:
    """Resample a dataset by concatenated moving blocks.

    With ``block_length == n_rows`` there is a single candidate block and the
    resample is the original dataset.
    """
    idx = moving_block_indices(dataset.n_rows, block_length, rng)
    return SupervisedDataset(
        feature_names=dataset.feature_names,
        features=dataset.features[idx],
        target=dataset.target[idx],
    )


# Slots one growth group holds: trees grow ``_GROUP_ROWS // (n_rows + mtry)``
# at a time, which bounds a group's row buffers, node records and drawn
# candidate features.
_GROUP_ROWS = 1 << 16
# Elements (node rows x candidate features, or tree-row pairs) that one split
# search or routing pass holds per working array.
_STEP_ELEMENTS = 1 << 14
# Widest split-search grid whose running sums add one row per np.add call.
# Wider grids make one np.cumsum call: dearer per element, but their row
# calls would cost more.
_ROW_SUMS = 64


def _dense_ranks(features: np.ndarray) -> np.ndarray:
    """Per-feature dense ranks, shape ``(n_features, n_rows + 1)``.

    Equal values share a rank, so ranks order and tie rows exactly as the
    values do.  Column ``n_rows`` holds the sentinel rank ``n_rows``, above
    every row's, for the split search's pad slots.
    """
    n, m = features.shape
    ranks = np.full((m, n + 1), n, dtype=np.min_scalar_type(n))
    for j in range(m):
        ranks[j, :n] = np.unique(features[:, j], return_inverse=True)[1]
    return ranks


def _search_splits(
    flat_ranks: np.ndarray,
    n_rows: int,
    rows: np.ndarray,
    y: np.ndarray,
    weight: np.ndarray,
    begin: np.ndarray,
    size: np.ndarray,
    candidates: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Best cut of each node over its candidate features, all nodes at once.

    Node ``k`` holds the distinct in-bag rows ``rows[begin[k]:begin[k] +
    size[k]]`` in buffer order, with targets ``y`` and weights ``weight``
    (each row's count in the tree's resample) at the same positions, and may
    split on the features in row ``k`` of ``candidates`` (sorted).  Cuts
    minimise the summed child SSE of the resampled rows over midpoints of
    consecutive distinct values; ties take the lowest candidate, then the
    lowest threshold.  The arithmetic is a per-node loop's: a stable sort,
    then prefix sums of w, w·y and w·y² from zero per (node, candidate)
    segment.

    The search runs on one grid, positions down axis 0 and segments across
    axis 1, as wide as the largest node.  One sort of packed (segment, rank,
    position) keys orders every segment; a node's pad slots take the
    sentinel rank ``n_rows`` (:func:`_dense_ranks`' last column), so they
    sort after its rows.  The prefix sums then add whole rows, and each
    segment's totals are read at its last row, so pad values enter no sum.

    Returns, per node, the winning candidate column, the number of distinct
    rows left of the cut and the summed child SSE (``inf`` when every
    candidate is constant on the node), plus the positions in ``rows`` of
    every node's rows sorted on its winner, concatenated.
    """
    n_nodes, mtry = candidates.shape
    n_seg = candidates.size
    width = int(size.max())
    pos = np.arange(width)
    pad = pos >= size[:, None]
    # Pad slots may run past the end of the level buffers: "clip" reads
    # their last entry there, and no pad value enters a sum.
    node_rows = np.where(pad, n_rows, rows.take(begin[:, None] + pos, mode="clip"))
    # Keys pack (segment, rank <= n_rows, position), in int32 when they fit:
    # it sorts twice as fast as int64.
    pos_bits, rank_bits = width.bit_length(), n_rows.bit_length()
    fits = (n_seg - 1).bit_length() + rank_bits + pos_bits <= 31
    kind = np.int32 if fits else np.int64
    key = flat_ranks[candidates[:, :, None] * (n_rows + 1) + node_rows[:, None, :]]
    key = key.reshape(n_seg, width).astype(kind) << pos_bits
    key |= (np.arange(n_seg, dtype=kind) << (rank_bits + pos_bits))[:, None]
    key |= pos.astype(kind)
    key = np.sort(key, axis=None).reshape(n_seg, width).T.copy()
    at = key & ((1 << pos_bits) - 1)
    key >>= pos_bits  # (segment, rank): equal neighbours are tied values
    seg_size = np.repeat(size, mtry)
    at += np.repeat(begin, mtry)

    # Weights are integers, so every sum of them is exact.  Each row adds to
    # the one above it, which is np.cumsum's order down a segment.
    sums = np.empty((3, width, n_seg))
    sums[0] = weight.take(at, mode="clip")
    y = y.take(at, mode="clip")
    np.multiply(sums[0], y, out=sums[1])
    np.multiply(sums[1], y, out=sums[2])
    if width <= _ROW_SUMS:
        for i in range(1, width):
            np.add(sums[:, i - 1], sums[:, i], out=sums[:, i])
    else:
        np.cumsum(sums, axis=1, out=sums)
    total_n, total_sum, total_sq = sums[:, seg_size - 1, np.arange(n_seg)]
    left_n, prefix_sum, prefix_sq = sums[:, :-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        child_sse = prefix_sum**2
        child_sse /= left_n
        np.subtract(prefix_sq, child_sse, out=child_sse)
        right = total_sum - prefix_sum
        right **= 2
        right /= total_n - left_n
        np.subtract(total_sq, prefix_sq, out=prefix_sq)
        prefix_sq -= right
        child_sse += prefix_sq
    # A cut is valid only between distinct values inside the segment.
    invalid = key[1:] == key[:-1]
    invalid |= pos[1:, None] >= seg_size
    np.copyto(child_sse, np.inf, where=invalid)
    # The first minimum is the lowest candidate, then the lowest threshold.
    seg_best = child_sse.min(axis=0)
    j = seg_best.reshape(n_nodes, mtry).argmin(axis=1)
    win = np.arange(n_nodes) * mtry + j
    best_sse = seg_best[win]
    cut = (child_sse[:, win] == best_sse).argmax(axis=0) + 1
    return j, cut, best_sse, at[:, win].T[~pad]


def _permutations(
    rng: np.random.Generator, n_features: int, count: int, keep: int
) -> np.ndarray:
    """The next ``count`` draws of ``rng.permutation(n_features)``, as rows
    cut to their first ``keep`` entries."""
    rows = np.broadcast_to(np.arange(n_features), (count, n_features))
    return rng.permuted(rows, axis=1)[:, :keep]


def _rank_in_tree(tree: np.ndarray, n_trees: int) -> tuple[np.ndarray, np.ndarray]:
    """For tree ids sorted ascending: each entry's rank among its tree's
    entries, and the entry count per tree."""
    per_tree = np.bincount(tree, minlength=n_trees)
    return np.arange(tree.size) - np.searchsorted(tree, tree), per_tree


def _leaf_rule(
    y: np.ndarray, weight: np.ndarray, begin: np.ndarray, min_node_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Means of the nodes ``y[begin[k]:begin[k + 1]]`` and which split.

    Row ``i`` stands for ``weight[i]`` resampled rows.  A node splits if and
    only if it holds more than ``min_node_size`` resampled rows and its
    targets are not all equal.  Each node's weighted sums run over its
    slice with ``np.add.reduceat``; its SSE, ``sum(w*y*y) - sum(w*y) *
    mean``, only weighs the node's split in the importance scores.  Returns
    the means, the indices of the nodes to search, and their SSE.
    """
    wy = weight * y
    total = np.add.reduceat(wy, begin)
    n_resampled = np.add.reduceat(weight, begin)
    mean = total / n_resampled
    split = np.flatnonzero(
        (n_resampled > min_node_size)
        & (np.minimum.reduceat(y, begin) != np.maximum.reduceat(y, begin))
    )
    wy *= y
    node_sse = np.add.reduceat(wy, begin)[split] - total[split] * mean[split]
    return mean, split, node_sse


def _grow_group(
    features: np.ndarray,
    target: np.ndarray,
    ranks: np.ndarray,
    rngs: list[np.random.Generator],
    rows: np.ndarray,
    mtry: int,
    min_node_size: int,
    nodes: tuple[np.ndarray, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Grow one CART regression tree per row of ``rows``, level by level.

    Each tree grows on the distinct rows of its resample (its row of
    ``rows``), each weighted by its count there, so every statistic is the
    one of the resampled rows and ``min_node_size`` counts resampled rows.
    A node owns a contiguous slice of its tree's part of one buffer of
    distinct rows and weights, which a split reorders in place into the
    order of the chosen feature.  Every step takes the next level of every
    tree's nodes, in node-id order, and searches all their splits at once
    (:func:`_search_splits`), largest nodes first, in chunks.

    A tree's searched nodes take one permutation each from its stream in
    level order, node-id order within a level; children are numbered in
    their parents' order; and every node's sums run over that node's rows
    alone.  So the trees do not depend on the group or the step sizes.  The
    trees' nodes go, tree after tree, to the front of ``nodes`` (feature,
    threshold, left, right and value arrays).  Returns per-tree node counts
    and the per-tree impurity reduction per feature.
    """
    n_trees, n = rows.shape
    m = features.shape[1]
    flat_ranks = ranks.reshape(-1)
    in_bag = np.bincount(
        (rows + np.arange(n_trees, dtype=np.int32)[:, None] * n).reshape(-1),
        minlength=n_trees * n,
    )
    at = np.flatnonzero(in_bag)
    weight = in_bag[at].astype(np.int32)
    del in_bag
    owner, buffer = np.divmod(at.astype(np.int32), n)
    gains = np.zeros((n_trees, m))
    count = np.ones(n_trees, dtype=np.int32)
    # The frontier: (tree, node, slice start, slice size) of every node of
    # the level, sorted by tree and node id.
    size = np.bincount(owner, minlength=n_trees)
    node = np.zeros(n_trees, dtype=np.int32)
    lo = np.cumsum(size) - size
    tree = np.arange(n_trees, dtype=np.int32)
    # Per-level records: (tree, node, mean) of every node and (tree, node,
    # feature, threshold, left child) of every split.  They set the group's
    # memory, so tree and node ids are int32.
    levels: tuple[list[np.ndarray], ...] = ([], [], [])
    splits: tuple[list[np.ndarray], ...] = ([], [], [], [], [])
    # Each tree's permutations queue up in its row of ``drawn``, from
    # ``head`` up to ``tail``.  Batches of Generator.permuted rows draw the
    # same sequence as one permutation at a time, and a refill keeps every
    # queued row, so the queue yields the stream's permutations in order.
    # Nothing else draws from the stream afterwards, so permutations left
    # over at the end do not matter.
    batch = max(1, min(n, _GROUP_ROWS // (n_trees * mtry)))
    pick = np.min_scalar_type(m)
    drawn = np.stack([_permutations(rng, m, batch, mtry) for rng in rngs]).astype(pick)
    head = np.zeros(n_trees, dtype=np.intp)
    tail = np.full(n_trees, batch, dtype=np.intp)

    while tree.size:
        begin = np.cumsum(size) - size
        at = np.repeat(lo - begin, size) + np.arange(begin[-1] + size[-1])
        node_rows, node_weight = buffer[at], weight[at]
        node_y = target[node_rows]
        mean, split_at, node_sse = _leaf_rule(node_y, node_weight, begin, min_node_size)
        for field, part in zip(levels, (tree, node, mean)):
            field.append(part)
        searched = tree[split_at]
        rank, need = _rank_in_tree(searched, n_trees)
        if need.max(initial=0) > drawn.shape[1]:
            extra = need.max() - drawn.shape[1]
            drawn = np.concatenate([drawn, np.empty((n_trees, extra, mtry), pick)], 1)
        for g in np.flatnonzero(head + need > tail).tolist():
            queued = drawn[g, head[g] : tail[g]].copy()
            fresh = _permutations(rngs[g], m, drawn.shape[1] - len(queued), mtry)
            drawn[g] = np.concatenate([queued, fresh.astype(pick)])
            head[g], tail[g] = 0, drawn.shape[1]
        candidates = np.sort(drawn[searched, head[searched] + rank], axis=1)
        candidates = candidates.astype(np.intp)
        head += need

        # Largest nodes first, in chunks of at most _STEP_ELEMENTS padded
        # elements (or one node).
        chosen = np.empty(split_at.size, dtype=np.intp)
        cut = np.empty(split_at.size, dtype=np.intp)
        best_sse = np.empty(split_at.size)
        by_size = np.argsort(-size[split_at], kind="stable")
        first = 0
        while first < by_size.size:
            widest = int(size[split_at[by_size[first]]])
            chunk = by_size[first : first + max(1, _STEP_ELEMENTS // (mtry * widest))]
            first += chunk.size
            k = split_at[chunk]
            j, cut[chunk], best_sse[chunk], ordered = _search_splits(
                flat_ranks, n, node_rows, node_y, node_weight, begin[k], size[k],
                candidates[chunk],
            )
            chosen[chunk] = candidates[chunk, j]
            # Reorder every searched slice (a leaf's order no longer matters).
            start = np.cumsum(size[k]) - size[k]
            at = np.repeat(lo[k] - start, size[k]) + np.arange(ordered.size)
            buffer[at] = node_rows[ordered]
            weight[at] = node_weight[ordered]

        ok = np.isfinite(best_sse)  # else every candidate is constant here
        k, chosen, cut = split_at[ok], chosen[ok], cut[ok]
        parent = tree[k]
        np.add.at(gains, (parent, chosen), np.maximum(node_sse[ok] - best_sse[ok], 0.0))
        cut_rows = buffer[lo[k] + cut - 1], buffer[lo[k] + cut]
        cut_value = (
            features[cut_rows[0], chosen] + features[cut_rows[1], chosen]
        ) / 2.0
        rank, born = _rank_in_tree(parent, n_trees)
        left_id = count[parent] + 2 * rank.astype(np.int32)
        count += 2 * born.astype(np.int32)
        for field, part in zip(splits, (parent, node[k], chosen, cut_value, left_id)):
            field.append(part)
        # The next level: each split's left, then right child, in parent order.
        tree = np.repeat(parent, 2)
        node = np.column_stack([left_id, left_id + 1]).reshape(-1)
        lo = np.column_stack([lo[k], lo[k] + cut]).reshape(-1)
        size = np.column_stack([cut, size[k] - cut]).reshape(-1)

    # Scatter the records into the node arrays, a field at a time.
    offsets = np.cumsum(count) - count
    total = int(count.sum())
    feature, threshold, left, right, value = (field[:total] for field in nodes)
    value[offsets[_join(levels[0])] + _join(levels[1])] = _join(levels[2])
    feature[:] = -1
    threshold[:] = np.nan
    left[:] = -1
    right[:] = -1
    if splits[0]:
        at = offsets[_join(splits[0])] + _join(splits[1])
        feature[at] = _join(splits[2])
        threshold[at] = _join(splits[3])
        left[at] = _join(splits[4])
        right[at] = left[at] + 1
    return count, gains


def train_forest(
    dataset: SupervisedDataset,
    config: ForestConfig = ForestConfig(),
    threads: int = 1,
) -> ForestModel:
    """Train a moving-block bootstrap forest.

    Each tree draws its own block resample from its own RNG stream and grows
    on its distinct rows weighted by their counts in it, so
    ``config.min_node_size`` counts resampled rows.  Trees grow a group at
    a time, level by level (:func:`_grow_group`); the result does not
    depend on the grouping.

    Parameters
    ----------
    dataset : SupervisedDataset
        Training rows in temporal order.
    config : ForestConfig
        Hyperparameters; ``block_length`` must not exceed the row count.
    threads : int
        Accepted for compatibility and ignored: growth runs in the calling
        thread, which measured faster than spreading trees over threads.

    Returns
    -------
    ForestModel
    """
    n = dataset.n_rows
    m = dataset.n_features
    _, n_draws, _ = moving_block_plan(n, config.block_length)  # validates it
    mtry = config.resolved_mtry(m)
    if mtry > m:
        raise ConfigError({"mtry": f"must not exceed the {m} available features"})
    # A split-search key packs a segment index below max(_STEP_ELEMENTS, m)
    # (a chunk of one node has mtry <= m segments, a wider one at most
    # _STEP_ELEMENTS / 2), a rank up to n (the pad sentinel) and a position
    # below n, in bits that must fit an int64.
    if 2 * n.bit_length() + max(_STEP_ELEMENTS, m).bit_length() > 63:
        raise InvalidInputError(f"{n} rows exceed the split search's sort keys")
    features = dataset.features
    target = dataset.target
    ranks = _dense_ranks(features)
    n_trees = config.n_trees
    group = max(1, _GROUP_ROWS // (n + mtry))

    # Node arrays sized for the most nodes the trees can have (every leaf
    # keeps a row); trees fill them from the front and the model keeps the
    # filled part, so the unused tail is never touched.
    capacity = n_trees * (2 * n - 1)
    nodes = (
        np.empty(capacity, dtype=np.int32),
        np.empty(capacity),
        np.empty(capacity, dtype=np.int32),
        np.empty(capacity, dtype=np.int32),
        np.empty(capacity),
    )
    offsets = np.zeros(n_trees + 1, dtype=np.intp)
    block_starts = np.empty((n_trees, n_draws), dtype=np.int64)
    oob_mask = np.ones((n_trees, n), dtype=bool)
    importance = np.empty((n_trees, m))
    for first in range(0, n_trees, group):
        last = min(first + group, n_trees)
        rngs = [substream(config.seed, "forest-tree", t) for t in range(first, last)]
        for t, rng in enumerate(rngs, start=first):
            block_starts[t] = _draw_block_starts(n, config.block_length, rng)
        rows = np.array(
            [
                _indices_from_starts(s, config.block_length, n)
                for s in block_starts[first:last]
            ],
            dtype=np.int32,
        )
        oob_mask[np.arange(first, last)[:, None], rows] = False
        filled = int(offsets[first])
        count, importance[first:last] = _grow_group(
            features, target, ranks, rngs, rows, mtry, config.min_node_size,
            tuple(field[filled:] for field in nodes),
        )
        offsets[first + 1 : last + 1] = filled + np.cumsum(count)
    feature, threshold, left, right, value = (field[: offsets[-1]] for field in nodes)
    return ForestModel(
        feature_names=dataset.feature_names,
        config=config,
        n_rows=n,
        feature=feature,
        threshold=threshold,
        left=left,
        right=right,
        value=value,
        offsets=offsets,
        block_starts=block_starts,
        oob_mask=oob_mask,
        importance=importance,
    )


def _join(parts: list[np.ndarray]) -> np.ndarray:
    """Concatenate ``parts`` and release them, so memory is held once."""
    joined = np.concatenate(parts)
    parts.clear()
    return joined


def _route(
    model: ForestModel, trees: np.ndarray, rows: np.ndarray, features: np.ndarray
) -> np.ndarray:
    """Leaf value of every (tree, row) pair, one vectorised step per depth."""
    base = model.offsets[trees]
    node = base.copy()
    live = np.flatnonzero(model.feature[node] >= 0)
    while live.size:
        at = node[live]
        go_left = features[rows[live], model.feature[at]] <= model.threshold[at]
        node[live] = base[live] + np.where(go_left, model.left[at], model.right[at])
        live = live[model.feature[node[live]] >= 0]
    return model.value[node]


def _tree_sums(model: ForestModel, features: np.ndarray, mask: np.ndarray | None):
    """Per-row sum of leaf values over trees, added in tree order.

    ``mask[t, r]`` limits the sum to the pairs it marks.  Trees are routed a
    chunk at a time; the sum runs down each chunk with ``np.cumsum`` from the
    previous chunk's total, which gives the bits of a per-tree ``+=`` loop
    (unmarked pairs add ``-0.0``, the exact additive identity).
    """
    n_rows = features.shape[0]
    total = np.zeros(n_rows)
    chunk = max(1, _STEP_ELEMENTS // max(n_rows, 1))
    for first in range(0, model.n_trees, chunk):
        last = min(first + chunk, model.n_trees)
        if mask is None:
            trees, rows = np.divmod(np.arange((last - first) * n_rows), n_rows)
        else:
            trees, rows = np.nonzero(mask[first:last])
        leaf = np.full((last - first, n_rows), -0.0)
        leaf[trees, rows] = _route(model, trees + first, rows, features)
        total = np.cumsum(np.vstack([total, leaf]), axis=0)[-1]
    return total


def predict(model: ForestModel, features: np.ndarray) -> np.ndarray | float:
    """Forest prediction: the mean of the per-tree leaf values.

    Accepts a single feature vector (returns a float) or a matrix with one
    row per observation (returns an array).
    """
    single = np.ndim(features) == 1
    x = finite_array(np.atleast_2d(features) if single else features, "features", ndim=2)
    if x.shape[1] != len(model.feature_names):
        raise ShapeError(
            f"expected {len(model.feature_names)} features, got shape {x.shape}"
        )
    out = _tree_sums(model, x, None) / model.n_trees
    return float(out[0]) if single else out


def impurity_importance(model: ForestModel) -> ImportanceRanking:
    """Summed split-wise SSE reduction per feature, averaged over trees."""
    scores = np.zeros(len(model.feature_names))
    for gains in model.importance:
        scores += gains
    return ImportanceRanking(
        feature_names=model.feature_names, scores=scores / model.n_trees
    )


def oob_metrics(model: ForestModel, dataset: SupervisedDataset) -> OobReport:
    """Score the forest on rows out-of-bag per tree.

    A row's OOB prediction averages the trees whose block resample never
    covered its index.  Rows in-bag for every tree are excluded and counted.

    Raises
    ------
    DiagnosticsError
        No row is out-of-bag for any tree (shrink ``block_length`` or grow
        more trees).
    MetricUndefinedError
        The covered targets are constant, so RSR has a zero denominator.
    """
    if dataset.n_rows != model.n_rows:
        raise ShapeError(
            f"dataset has {dataset.n_rows} rows; the forest was trained on "
            f"{model.n_rows}"
        )
    if dataset.feature_names != model.feature_names:
        raise InvalidInputError("dataset feature names differ from the model's")
    n = dataset.n_rows
    pred_sum = _tree_sums(model, dataset.features, model.oob_mask)
    counts = model.oob_mask.sum(axis=0)
    covered = counts > 0
    n_covered = int(covered.sum())
    if n_covered == 0:
        raise DiagnosticsError(
            "no rows were out-of-bag for any tree; use a smaller block_length "
            "or more trees"
        )
    predictions = np.full(n, np.nan)
    predictions[covered] = pred_sum[covered] / counts[covered]
    actual = dataset.target[covered]
    errors = actual - predictions[covered]
    rmse = float(np.sqrt(np.mean(errors**2)))
    spread = float(np.sqrt(np.mean((actual - actual.mean()) ** 2)))
    if spread == 0.0:
        raise MetricUndefinedError("covered targets are constant; RSR is undefined")
    rsr = rmse / spread
    return OobReport(
        rmse=rmse,
        rsr=rsr,
        r2=1.0 - rsr * rsr,
        n_rows=n,
        n_covered=n_covered,
        n_never_oob=n - n_covered,
        predictions=predictions,
        oob_counts=counts,
    )
