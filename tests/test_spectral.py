import datetime as dt

import numpy as np
import pytest
from numpy.testing import assert_allclose

from climdemand._rng import stationary_bootstrap_indices, substream
from climdemand.errors import (
    AlignmentError,
    ConfigError,
    DegenerateInputError,
    InsufficientDataError,
    InvalidInputError,
    NumericalError,
    RankDeficiencyError,
)
from climdemand.panel import PanelDataset
from climdemand.spectral import (
    GcBootstrapConfig,
    SpectralDecomposition,
    bootstrap_threshold_conditional,
    bootstrap_threshold_unconditional,
    conditional_decomposition,
    conditional_gc_spectrum,
    fourier_frequencies,
    spectral_decomposition,
    unconditional_gc_spectrum,
)
from climdemand.varbase import VarxModel, fit_var, simulate_var, spectral_radius


def oracle_measure(coef, sigma, frequencies):
    """Closed-form measure from first principles: explicit transfer matrix.

    Build H = (I - sum_l A_l z^l)^{-1}, rotate the innovations so the
    cause's innovation is orthogonal to the effect's, and take the log
    ratio of the effect's spectrum to its own-innovation part.
    """
    s12_over_s22 = sigma[0, 1] / sigma[1, 1]
    t_inv = np.array([[1.0, s12_over_s22], [0.0, 1.0]])
    var_cause = sigma[0, 0] - sigma[0, 1] ** 2 / sigma[1, 1]
    out = np.empty(len(frequencies))
    for i, f in enumerate(frequencies):
        z = np.exp(-2j * np.pi * f)
        lagpoly = np.eye(2, dtype=complex)
        for l, a in enumerate(coef, start=1):
            lagpoly -= a * z**l
        rotated = np.linalg.inv(lagpoly) @ t_inv
        own = sigma[1, 1] * abs(rotated[1, 1]) ** 2
        total = var_cause * abs(rotated[1, 0]) ** 2 + own
        out[i] = np.log(total / own)
    return out


def manual_model(coef, sigma, names=("x", "y")):
    """Wrap known coefficients in a VarxModel for the decomposition API."""
    coef = np.asarray(coef, dtype=float)
    p, K, _ = coef.shape
    return VarxModel(
        variable_names=names,
        exog_names=(),
        order=p,
        intercept=np.zeros(K),
        endo_coef=coef,
        exo_coef=np.zeros((K, 0)),
        resid_cov=np.asarray(sigma, dtype=float),
        residuals=np.zeros((10, K)),
        intercept_se=np.zeros(K),
        endo_se=np.zeros((p, K, K)),
        exo_se=np.zeros((K, 0)),
        gram_inv=np.zeros((1 + p * K, 1 + p * K)),
        companion_radius=spectral_radius(coef),
        nobs=10,
        endog=np.zeros((10 + p, K)),
        exog_values=np.zeros((10 + p, 0)),
        bic=0.0,
        bic_by_order={p: 0.0},
    )


def simulate_pair(coef, sigma, T, rng, burn=300):
    chol = np.linalg.cholesky(sigma)
    shocks = rng.normal(size=(T + burn, 2)) @ chol.T
    return simulate_var(np.zeros(2), np.asarray(coef, float), shocks)[len(coef) + burn :]


def oracle_decompose(coef, resid_cov, frequencies):
    """Cross and intrinsic terms of one fitted pair, raising on failure."""
    s11, s12, s22 = resid_cov[0, 0], resid_cov[0, 1], resid_cov[1, 1]
    if s22 <= 0.0 or s11 <= 0.0:
        raise DegenerateInputError("innovation covariance is singular")
    omega = 2.0 * np.pi * frequencies
    z = np.exp(-1j * np.outer(omega, np.arange(1, coef.shape[0] + 1)))
    lagpoly = np.eye(2)[None, :, :] - np.einsum("fl,lij->fij", z, coef)
    det = lagpoly[:, 0, 0] * lagpoly[:, 1, 1] - lagpoly[:, 0, 1] * lagpoly[:, 1, 0]
    if np.any(np.abs(det) < 1e-14):
        raise NumericalError("lag polynomial is non-invertible")
    transfer_cause = -lagpoly[:, 1, 0] / det
    rotated_own = lagpoly[:, 0, 0] / det + transfer_cause * (s12 / s22)
    cross = (s11 - s12 * s12 / s22) * np.abs(transfer_cause) ** 2
    intrinsic = s22 * np.abs(rotated_own) ** 2
    if not (np.isfinite(cross).all() and np.isfinite(intrinsic).all()):
        raise NumericalError("non-finite decomposition")
    if np.any(intrinsic <= 0.0):
        raise NumericalError("own term vanished")
    return cross, intrinsic


def oracle_null_medians(x, y, cfg):
    """The unconditional null one replicate at a time: fit_var, decompose."""
    n = x.size
    frequencies = fourier_frequencies(n)
    raw = np.full(cfg.n_replicates, np.nan)
    for b in range(cfg.n_replicates):
        rng = substream(cfg.seed, "gc-unconditional", b)
        x_star = x[stationary_bootstrap_indices(n, cfg.block_length(n), rng)]
        y_star = y[stationary_bootstrap_indices(n, cfg.block_length(n), rng)]
        try:
            model = fit_var(np.column_stack([x_star, y_star]), max_order=cfg.max_var_order)
            cross, intrinsic = oracle_decompose(model.endo_coef, model.resid_cov, frequencies)
        except (RankDeficiencyError, NumericalError, DegenerateInputError):
            continue
        raw[b] = np.median(np.log1p(cross / intrinsic))
    return raw


def oracle_conditional_null_medians(x, y, w, cfg):
    """The conditional null one replicate at a time: conditional_decomposition
    of each simulated (effect, conditioning) pair and resampled cause."""
    n = x.size
    pair_model = fit_var(np.column_stack([y, w]), max_order=cfg.max_var_order)
    order = pair_model.order
    resid = pair_model.residuals - pair_model.residuals.mean(axis=0)
    m = resid.shape[0]
    rows = np.empty((cfg.n_replicates, m), dtype=np.intp)
    causes = np.empty((cfg.n_replicates, n))
    for b in range(cfg.n_replicates):
        rng = substream(cfg.seed, "gc-conditional", b)
        rows[b] = rng.integers(0, m, size=m)
        causes[b] = x[stationary_bootstrap_indices(n, cfg.block_length(n), rng)]
    simulated = simulate_var(
        pair_model.intercept, pair_model.endo_coef, resid[rows],
        np.column_stack([y[:order], w[:order]]),
    )
    raw = np.full(cfg.n_replicates, np.nan)
    for b in range(cfg.n_replicates):
        try:
            decomp = conditional_decomposition(
                causes[b], simulated[b, :, 0], simulated[b, :, 1], cfg.max_var_order
            )
        except (RankDeficiencyError, NumericalError, DegenerateInputError):
            continue
        raw[b] = np.median(decomp.measure)
    return raw


def spiky_pair(n=100, spikes=3, seed=3):
    """A cause that is zero but for a few weeks: some resamples miss every
    spike, and a constant column fails their fit."""
    rng = np.random.default_rng(seed)
    x = np.zeros(n)
    x[rng.choice(n, spikes, replace=False)] = rng.normal(size=spikes) + 3.0
    return x, rng.normal(size=n), rng.normal(size=n)


class TestFrequencies:
    def test_grid(self):
        freqs = fourier_frequencies(400)
        assert freqs.shape == (200,)
        assert freqs[0] == 1.0 / 400.0
        assert freqs[-1] == 0.5

    def test_odd_length(self):
        freqs = fourier_frequencies(7)
        assert_allclose(freqs, [1 / 7, 2 / 7, 3 / 7])


class TestDecomposition:
    def test_matches_closed_form_oracle(self):
        # Feedback in both directions plus correlated innovations.
        coef = np.array(
            [
                [[0.5, 0.2], [0.3, 0.4]],
                [[-0.1, 0.0], [0.15, -0.2]],
            ]
        )
        sigma = np.array([[1.0, 0.6], [0.6, 2.0]])
        freqs = fourier_frequencies(128)
        decomp = spectral_decomposition(manual_model(coef, sigma), freqs)
        assert_allclose(decomp.measure, oracle_measure(coef, sigma, freqs), atol=1e-12)
        assert_allclose(decomp.total, decomp.cross + decomp.intrinsic)
        assert np.all(decomp.measure >= 0.0)

    def test_lag_one_shift_is_flat_log_164(self):
        # y_t = 0.8 x_{t-1} + e with unit white noise: the measure is
        # log(1 + 0.64) at every frequency.
        coef = np.array([[[0.0, 0.0], [0.8, 0.0]]])
        decomp = spectral_decomposition(
            manual_model(coef, np.eye(2)), fourier_frequencies(200)
        )
        assert_allclose(decomp.measure, np.log(1.64), rtol=1e-12)

    def test_zero_cross_coefficients_give_exact_zero(self):
        # No cause -> effect coefficients: identically zero even though the
        # innovations are correlated and the effect feeds back on the cause.
        coef = np.array([[[0.5, 0.25], [0.0, 0.4]]])
        sigma = np.array([[1.0, 0.7], [0.7, 1.5]])
        decomp = spectral_decomposition(manual_model(coef, sigma), fourier_frequencies(100))
        assert np.all(decomp.measure == 0.0)

    def test_estimated_spectrum_near_truth(self):
        rng = np.random.default_rng(812)
        coef = np.array([[[0.0, 0.0], [0.8, 0.0]]])
        data = simulate_pair(coef, np.eye(2), 2000, rng)
        result = unconditional_gc_spectrum(
            data[:, 0],
            data[:, 1],
            GcBootstrapConfig(n_replicates=100, seed=4),
        )
        assert np.all(result.estimate > 0.0)
        assert np.max(np.abs(result.estimate - np.log(1.64))) < 0.15


class TestScaleInvariance:
    def test_measure_invariant_to_scaling(self):
        rng = np.random.default_rng(99)
        coef = np.array([[[0.4, 0.1], [0.3, 0.5]]])
        data = simulate_pair(coef, np.array([[1.0, 0.3], [0.3, 1.0]]), 600, rng)
        freqs = fourier_frequencies(600)
        base = fit_var(data, max_order=4)
        scaled = fit_var(data * np.array([250.0, 0.004]), max_order=4)
        m_base = spectral_decomposition(base, freqs).measure
        m_scaled = spectral_decomposition(scaled, freqs).measure
        assert np.max(np.abs(m_base - m_scaled)) < 1e-8


def stationary_bootstrap(values, expected_block_length, rng):
    """One stationary-bootstrap resample of a series."""
    arr = np.asarray(values, dtype=float)
    return arr[stationary_bootstrap_indices(arr.size, expected_block_length, rng)]


class TestStationaryBootstrap:
    def test_values_come_from_original(self):
        rng = np.random.default_rng(0)
        series = rng.normal(size=97)
        resample = stationary_bootstrap(series, 5.0, rng)
        assert resample.shape == series.shape
        assert np.isin(resample, series).all()

    def test_infinite_block_is_rotation(self):
        rng = np.random.default_rng(3)
        idx = stationary_bootstrap_indices(50, 1e12, rng)
        start = idx[0]
        assert_allclose(idx, (start + np.arange(50)) % 50)

    def test_mean_block_length(self):
        # 10,000 draws; blocks counted as maximal consecutive index runs.
        n, expected = 2000, 10.0
        counts = np.empty(10_000)
        rng = np.random.default_rng(123)
        for k in range(counts.size):
            idx = stationary_bootstrap_indices(n, expected, rng)
            breaks = np.count_nonzero(idx[1:] != (idx[:-1] + 1) % n)
            counts[k] = n / (breaks + 1.0)
        assert abs(counts.mean() - expected) / expected < 0.05

    def test_block_length_one_is_iid_resampling(self):
        rng = np.random.default_rng(11)
        idx = stationary_bootstrap_indices(5000, 1.0, rng)
        # Every position restarts: indices should look uniform, not serial.
        serial = np.mean(idx[1:] == (idx[:-1] + 1) % 5000)
        assert serial < 0.01

    def test_bad_block_length(self):
        with pytest.raises(InvalidInputError):
            stationary_bootstrap_indices(10, 0.5, np.random.default_rng(0))


class TestThresholds:
    def test_alpha_half_is_median(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=200)
        y = rng.normal(size=200)
        cfg = GcBootstrapConfig(n_replicates=100, alpha=0.5, seed=21)
        thresholds = bootstrap_threshold_unconditional(x, y, cfg)
        assert thresholds.pointwise == float(np.median(thresholds.medians))

    def test_monotone_in_alpha_and_bonferroni_dominates(self):
        rng = np.random.default_rng(18)
        x = rng.normal(size=200)
        y = rng.normal(size=200)
        previous = -np.inf
        for alpha in (0.5, 0.25, 0.05):
            cfg = GcBootstrapConfig(n_replicates=150, alpha=alpha, seed=5)
            thresholds = bootstrap_threshold_unconditional(x, y, cfg)
            assert thresholds.pointwise >= previous
            assert thresholds.bonferroni >= thresholds.pointwise
            previous = thresholds.pointwise

    def test_deterministic_under_seed_and_threads(self):
        rng = np.random.default_rng(40)
        x = rng.normal(size=250)
        y = rng.normal(size=250)
        cfg = GcBootstrapConfig(n_replicates=120, seed=31)
        one = bootstrap_threshold_unconditional(x, y, cfg)
        again = bootstrap_threshold_unconditional(x, y, cfg)
        assert one.pointwise == again.pointwise
        assert one.bonferroni == again.bonferroni
        assert_allclose(one.medians, again.medians, rtol=0, atol=0)
        other = bootstrap_threshold_unconditional(
            x, y, GcBootstrapConfig(n_replicates=120, seed=32)
        )
        assert other.pointwise != one.pointwise

    @pytest.mark.parametrize("finite", [60, 59])
    def test_too_many_failed_replicates_is_an_error(self, monkeypatch, finite):
        # The thresholds need max(50, n_replicates // 2) finite null
        # medians: 60 of 120 here.  Replicates past the first ``finite``
        # are made to fail.
        from climdemand import spectral

        null_medians = spectral._null_medians
        done = []

        def failing(samples, *args):
            medians = null_medians(samples, *args)
            medians[max(0, finite - sum(done)):] = np.nan
            done.append(len(medians))
            return medians

        monkeypatch.setattr(spectral, "_null_medians", failing)
        rng = np.random.default_rng(41)
        x, y = rng.normal(size=(2, 200))
        cfg = GcBootstrapConfig(n_replicates=120, seed=2)
        if finite < 60:
            with pytest.raises(NumericalError,
                               match=r"too many bootstrap replicates failed \(61 of 120\)"):
                bootstrap_threshold_unconditional(x, y, cfg)
        else:
            assert bootstrap_threshold_unconditional(x, y, cfg).n_failed == 60


class TestBatchedNull:
    @pytest.mark.parametrize("case", ["spiky", "lagged"])
    def test_medians_match_per_replicate_oracle(self, case):
        if case == "spiky":
            x, y, _ = spiky_pair()
        else:
            rng = np.random.default_rng(9)
            x = rng.normal(size=260)
            y = np.r_[0.0, 0.6 * x[:-1]] + rng.normal(size=260)
        cfg = GcBootstrapConfig(n_replicates=150, seed=4)
        oracle = oracle_null_medians(x, y, cfg)
        batched = bootstrap_threshold_unconditional(x, y, cfg)
        kept = oracle[np.isfinite(oracle)]
        assert batched.n_failed == oracle.size - kept.size
        if case == "spiky":
            assert batched.n_failed > 0
        assert batched.medians.shape == kept.shape
        assert_allclose(batched.medians, kept, rtol=1e-12, atol=0)

    def test_blocks_do_not_change_the_null(self, monkeypatch):
        from climdemand import spectral

        x, y, _ = spiky_pair()
        cfg = GcBootstrapConfig(n_replicates=120, seed=2)
        whole = bootstrap_threshold_unconditional(x, y, cfg)
        monkeypatch.setattr(spectral, "_NULL_BLOCK", 7)
        blocked = bootstrap_threshold_unconditional(x, y, cfg)
        assert_allclose(blocked.medians, whole.medians, rtol=0, atol=0)
        assert blocked.n_failed == whole.n_failed

    @pytest.mark.parametrize("case", ["spiky", "lagged"])
    def test_conditional_medians_match_per_replicate_oracle(self, case):
        if case == "spiky":
            x, y, w = spiky_pair()
        else:
            rng = np.random.default_rng(10)
            x, w = rng.normal(size=(2, 260))
            y = np.r_[0.0, 0.6 * x[:-1] + 0.3 * w[:-1]] + rng.normal(size=260)
        cfg = GcBootstrapConfig(n_replicates=150, seed=4)
        oracle = oracle_conditional_null_medians(x, y, w, cfg)
        batched = bootstrap_threshold_conditional(x, y, w, cfg)
        kept = oracle[np.isfinite(oracle)]
        assert batched.n_failed == oracle.size - kept.size
        if case == "spiky":
            assert batched.n_failed > 0
        assert batched.medians.shape == kept.shape
        assert_allclose(batched.medians, kept, rtol=0, atol=0)

    def test_blocks_do_not_change_the_conditional_null(self, monkeypatch):
        from climdemand import spectral

        x, y, w = spiky_pair()
        cfg = GcBootstrapConfig(n_replicates=120, seed=2)
        whole = bootstrap_threshold_conditional(x, y, w, cfg)
        monkeypatch.setattr(spectral, "_NULL_BLOCK", 7)
        blocked = bootstrap_threshold_conditional(x, y, w, cfg)
        assert_allclose(blocked.medians, whole.medians, rtol=0, atol=0)
        assert blocked.n_failed == whole.n_failed

    @pytest.mark.parametrize("seed", [2, 6])
    def test_short_series_agrees_with_oracle(self, seed):
        # At n = 26 a projection order of 4 leaves 22 rows, too few for the
        # residual VAR at max order 4 (the rule needs more than 22): seed 6
        # has replicates at that order (the first is replicate 43, in the
        # second block), seed 2 has none.
        rng = np.random.default_rng(seed)
        x, y, w = rng.normal(size=(3, 26))
        cfg = GcBootstrapConfig(n_replicates=100, max_var_order=4, seed=seed)
        try:
            oracle = oracle_conditional_null_medians(x, y, w, cfg)
        except InsufficientDataError:
            with pytest.raises(InsufficientDataError):
                bootstrap_threshold_conditional(x, y, w, cfg)
            assert seed == 6
            return
        assert seed == 2
        batched = bootstrap_threshold_conditional(x, y, w, cfg)
        assert_allclose(batched.medians, oracle[np.isfinite(oracle)], rtol=0, atol=0)

    @pytest.mark.parametrize("column", [0, 1])
    def test_non_finite_replicate_is_an_error(self, monkeypatch, column):
        from climdemand import spectral

        def overflowing(*args):
            out = simulate_var(*args)
            out[40, len(args[1]) + 17, column] = np.inf
            return out

        monkeypatch.setattr(spectral, "simulate_var", overflowing)
        rng = np.random.default_rng(12)
        x, y, w = rng.normal(size=(3, 150))
        what = ("effect", "conditioning")[column]
        with pytest.raises(InvalidInputError, match=f"{what} must be finite"):
            bootstrap_threshold_conditional(x, y, w, GcBootstrapConfig(n_replicates=100))

    def test_failed_replicates_are_counted(self):
        x, y, w = spiky_pair()
        cfg = GcBootstrapConfig(n_replicates=100, seed=1)
        for result in (
            unconditional_gc_spectrum(x, y, cfg),
            conditional_gc_spectrum(x, y, w, cfg),
        ):
            assert result.n_failed > 0
            assert result.n_failed + result.n_replicates == cfg.n_replicates
        clean = unconditional_gc_spectrum(np.random.default_rng(1).normal(size=100), y, cfg)
        assert clean.n_failed == 0


class TestUnconditionalInference:
    def test_detects_lagged_cause(self):
        rng = np.random.default_rng(2024)
        x = rng.normal(size=400)
        y = np.empty(400)
        y[0] = rng.normal()
        y[1:] = 0.8 * x[:-1] + rng.normal(size=399)
        result = unconditional_gc_spectrum(
            x, y, GcBootstrapConfig(n_replicates=300, seed=7)
        )
        assert result.significant_bonferroni.any()
        # No feedback: the reverse direction stays below the familywise bar.
        reverse = unconditional_gc_spectrum(
            y, x, GcBootstrapConfig(n_replicates=300, seed=8)
        )
        assert not reverse.significant_bonferroni.any()

    def test_result_shapes(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=301)
        y = rng.normal(size=301)
        result = unconditional_gc_spectrum(
            x, y, GcBootstrapConfig(n_replicates=100, seed=0)
        )
        assert result.frequencies.shape == (150,)
        assert result.estimate.shape == (150,)
        assert result.conditioning_name is None
        assert result.significant_pointwise.dtype == bool

    def test_length_mismatch(self):
        with pytest.raises(AlignmentError):
            unconditional_gc_spectrum(
                np.zeros(100) + np.arange(100),
                np.arange(101),
                GcBootstrapConfig(n_replicates=100),
            )

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateInputError):
            unconditional_gc_spectrum(
                np.ones(200),
                np.arange(200.0),
                GcBootstrapConfig(n_replicates=100),
            )

    def test_spectrum_checks_the_pair_once(self, monkeypatch):
        # One check of the pair serves the observed fit and the null, and
        # the observed fit checks the sample size.
        from climdemand import spectral

        rng = np.random.default_rng(22)
        x, y = rng.normal(size=(2, 200))
        cfg = GcBootstrapConfig(n_replicates=100, seed=5)
        model = fit_var(np.column_stack([x, y]), max_order=cfg.max_var_order)
        observed = spectral_decomposition(model, fourier_frequencies(200))
        thresholds = bootstrap_threshold_unconditional(x, y, cfg)
        calls = {"_check_pair": 0, "check_sample_size": 0, "fit_var": 0}
        for name in calls:
            def spy(*args, _real=getattr(spectral, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(spectral, name, spy)
        result = unconditional_gc_spectrum(x, y, cfg)
        assert calls == {"_check_pair": 1, "check_sample_size": 0, "fit_var": 1}
        assert result.estimate.tobytes() == observed.measure.tobytes()
        assert result.var_order == model.order
        assert (result.threshold_pointwise, result.threshold_bonferroni) == (
            thresholds.pointwise, thresholds.bonferroni)
        assert result.n_failed == thresholds.n_failed


class TestWeeklySeriesInputs:
    """Both spectra take ``WeeklySeries`` too: names come from the series,
    and series on different week axes are rejected."""

    @staticmethod
    def panels():
        rng = np.random.default_rng(31)
        x = rng.normal(size=200)
        w = rng.normal(size=200)
        y = np.empty(200)
        y[0] = rng.normal()
        y[1:] = 0.6 * x[:-1] + rng.normal(size=199)
        columns = {"temperature": x, "drug_demand": y, "fwi": w}
        monday = dt.date(2016, 1, 4)
        weeks = [monday + dt.timedelta(days=7 * k) for k in range(201)]
        return PanelDataset(weeks[:200], columns), PanelDataset(weeks[1:], columns)

    def test_names_come_from_the_series(self):
        panel, _ = self.panels()
        cfg = GcBootstrapConfig(n_replicates=100, seed=3)
        result = unconditional_gc_spectrum(
            panel.series("temperature"), panel.series("drug_demand"), cfg
        )
        assert (result.cause_name, result.effect_name) == ("temperature", "drug_demand")
        assert result.conditioning_name is None
        conditional = conditional_gc_spectrum(
            panel.series("temperature"), panel.series("drug_demand"),
            panel.series("fwi"), cfg,
        )
        assert (conditional.cause_name, conditional.effect_name,
                conditional.conditioning_name) == ("temperature", "drug_demand", "fwi")

    def test_a_collinear_pair_is_named_by_the_caller(self):
        panel, _ = self.panels()
        heat = 2.0 * panel.column("temperature") + 1.0
        panel = PanelDataset(panel.week_starts, {**panel.columns, "heat": heat})
        cfg = GcBootstrapConfig(n_replicates=100, seed=3)
        temperature, fwi = panel.series("temperature"), panel.series("fwi")
        with pytest.raises(RankDeficiencyError, match="collinear columns: heat.l1, heat$"):
            unconditional_gc_spectrum(temperature, panel.series("heat"), cfg)
        with pytest.raises(RankDeficiencyError, match="collinear columns: effect.l1, effect$"):
            unconditional_gc_spectrum(temperature.values, heat, cfg)
        for spectrum in (conditional_decomposition, bootstrap_threshold_conditional,
                         conditional_gc_spectrum):
            with pytest.raises(RankDeficiencyError, match="columns: heat.l1, heat$"):
                spectrum(fwi, temperature, panel.series("heat"))
            with pytest.raises(RankDeficiencyError, match="columns: conditioning.l1, conditioning$"):
                spectrum(fwi.values, temperature.values, heat)

    def test_shifted_week_axes_are_rejected(self):
        panel, shifted = self.panels()
        cfg = GcBootstrapConfig(n_replicates=100, seed=3)
        with pytest.raises(AlignmentError, match="different week axes"):
            unconditional_gc_spectrum(
                shifted.series("temperature"), panel.series("drug_demand"), cfg
            )
        with pytest.raises(AlignmentError, match="temperature and fwi are on different week axes"):
            conditional_gc_spectrum(
                panel.series("temperature"), panel.series("drug_demand"),
                shifted.series("fwi"), cfg,
            )


class TestConditional:
    def test_irrelevant_conditioning_matches_unconditional(self):
        rng = np.random.default_rng(606)
        coef = np.array([[[0.3, 0.0], [0.5, 0.4]]])
        data = simulate_pair(coef, np.eye(2), 2000, rng)
        w = rng.normal(size=2000)
        uncond, _ = (
            spectral_decomposition(
                fit_var(data, max_order=4), fourier_frequencies(2000)
            ).measure,
            None,
        )
        cond = conditional_decomposition(data[:, 0], data[:, 1], w).measure
        assert np.max(np.abs(cond - uncond)) < 0.08

    def test_mediated_chain_is_not_conditionally_significant(self):
        # x -> w -> y: unconditional causality is there, conditional is not.
        rng = np.random.default_rng(77)
        T = 800
        x = rng.normal(size=T)
        w = np.zeros(T)
        y = np.zeros(T)
        for t in range(1, T):
            w[t] = 0.8 * x[t - 1] + 0.3 * w[t - 1] + rng.normal() * 0.5
            y[t] = 0.8 * w[t - 1] + rng.normal() * 0.5
        cfg = GcBootstrapConfig(n_replicates=200, seed=13)
        uncond = unconditional_gc_spectrum(x, y, cfg)
        assert uncond.significant_bonferroni.any()
        cond = conditional_gc_spectrum(x, y, w, cfg)
        assert not cond.significant_bonferroni.any()
        assert cond.conditioning_name == "conditioning"

    def test_direct_link_survives_conditioning(self):
        rng = np.random.default_rng(88)
        T = 800
        x = rng.normal(size=T)
        w = rng.normal(size=T)
        y = np.zeros(T)
        for t in range(1, T):
            y[t] = 0.7 * x[t - 1] + 0.3 * w[t - 1] + rng.normal() * 0.5
        cfg = GcBootstrapConfig(n_replicates=200, seed=14)
        cond = conditional_gc_spectrum(x, y, w, cfg)
        assert cond.significant_bonferroni.any()

    def test_cause_explained_by_conditioning_is_degenerate(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=400)
        y = rng.normal(size=400)
        with pytest.raises(DegenerateInputError):
            conditional_decomposition(w.copy(), y, w)

    def test_stacked_projection_matches_per_series_least_squares(self):
        from climdemand.spectral import _project_on_conditioning

        rng = np.random.default_rng(15)
        series = rng.normal(size=(9, 120, 2))
        conditioning = rng.normal(size=(9, 120))
        series[:, 1:, 1] += 0.5 * conditioning[:, :-1]
        for order in (1, 2, 4):
            members = np.arange(9)[order % 3 :: 3]
            resid, singular = _project_on_conditioning(
                series[members], conditioning[members], order
            )
            assert not singular.any()
            for i, b in enumerate(members):
                design = np.column_stack(
                    [np.ones(120 - order)]
                    + [conditioning[b, order - lag : 120 - lag] for lag in range(order + 1)]
                )
                coef, *_ = np.linalg.lstsq(design, series[b, order:], rcond=None)
                expected = series[b, order:] - design @ coef
                assert_allclose(resid[i], expected, rtol=0, atol=1e-12 * np.abs(expected).max())

    def test_collinear_conditioning_lags_are_degenerate(self):
        # A linear trend's lags differ by a constant: the projection design
        # is singular, which the stacked QR reports instead of solving.
        from climdemand.spectral import _project_on_conditioning

        rng = np.random.default_rng(16)
        trend = np.arange(80.0)
        _, singular = _project_on_conditioning(
            rng.normal(size=(2, 80, 2)), np.stack([trend, rng.normal(size=80)]), 1
        )
        assert singular.tolist() == [True, False]
        # An alternating series fits its VAR(1) exactly, which the BIC path
        # accepts; its projection design [1, w_{t-1}, w_t] is then singular.
        alternating = np.where(np.arange(200) % 2 == 0, 1.0, -1.0)
        with pytest.raises(DegenerateInputError, match="collinear"):
            conditional_decomposition(*rng.normal(size=(2, 200)), alternating, max_order=1)

    @pytest.mark.parametrize(
        "spectrum",
        [
            lambda x, y, w: conditional_gc_spectrum(x, y, w, GcBootstrapConfig(n_replicates=100)),
            conditional_decomposition,
        ],
        ids=["conditional_gc_spectrum", "conditional_decomposition"],
    )
    def test_conditioning_of_another_length_is_rejected(self, spectrum):
        rng = np.random.default_rng(7)
        with pytest.raises(
            AlignmentError, match="series lengths differ: cause has 300, conditioning has 299"
        ):
            spectrum(*rng.normal(size=(2, 300)), rng.normal(size=299))

    def test_spectrum_checks_and_fits_the_pair_once(self, monkeypatch):
        # One check of the three series and one (effect, conditioning) fit
        # serve the observed decomposition and the null; the second fit_var
        # call is the projection residuals' VAR.
        from climdemand import spectral

        rng = np.random.default_rng(21)
        x, y, w = rng.normal(size=(3, 200))
        cfg = GcBootstrapConfig(n_replicates=100, seed=4)
        observed = conditional_decomposition(x, y, w, cfg.max_var_order)
        thresholds = bootstrap_threshold_conditional(x, y, w, cfg)
        calls = {"_check_triple": 0, "fit_var": 0}
        for name in calls:
            def spy(*args, _real=getattr(spectral, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(spectral, name, spy)
        result = conditional_gc_spectrum(x, y, w, cfg)
        assert calls == {"_check_triple": 1, "fit_var": 2}
        assert result.estimate.tobytes() == observed.measure.tobytes()
        assert result.var_order == observed.projection_order
        assert (result.threshold_pointwise, result.threshold_bonferroni) == (
            thresholds.pointwise, thresholds.bonferroni)

    def test_zero_variance_cause_rejected(self):
        rng = np.random.default_rng(6)
        with pytest.raises(DegenerateInputError):
            conditional_gc_spectrum(
                np.full(300, 2.5),
                rng.normal(size=300),
                rng.normal(size=300),
                GcBootstrapConfig(n_replicates=100),
            )


class TestConfig:
    def test_collects_all_problems(self):
        with pytest.raises(ConfigError) as excinfo:
            GcBootstrapConfig(n_replicates=10, alpha=0.9, max_var_order=0, seed=-1)
        assert set(excinfo.value.fields) == {
            "n_replicates",
            "alpha",
            "max_var_order",
            "seed",
        }

    def test_default_block_length(self):
        cfg = GcBootstrapConfig()
        assert cfg.block_length(400) == 8.0  # ceil(400 ** (1/3))
        assert cfg.block_length(27) == 3.0
        assert GcBootstrapConfig(expected_block_length=12.5).block_length(400) == 12.5
