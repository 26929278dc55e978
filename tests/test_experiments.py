import math
import operator
import tracemalloc

import numpy as np
import pytest

from stableou import (
    AccuracyError,
    DegenerateDataError,
    NeighborPair,
    ParameterError,
    RngStream,
    RunRecord,
    ShapeError,
    SimConfig,
    StabilityGapEstimate,
    StableParams,
    SweepConfig,
    UnstableRegimeError,
    aggregate_median_iqr,
    cauchy_doubling_check,
    empirical_stability_gap,
    generalization_error,
    generate_population,
    read_run_records,
    replay_record,
    run_synthetic_sweep,
    sample_isotropic_stable,
    sas_abs_moment,
    surrogate_risk,
    write_aggregate,
    write_run_records,
    write_sweep_svg,
)
from stableou import experiments, sampling, simulate
from stableou.experiments import _RISK_COLS as COLS
from stableou.simulate import coupled_stationary_draws

TINY_SWEEP = dict(
    alpha_grid=(1.5, 2.0),
    a_grid=(2.0,),
    d_grid=(2,),
    n=40,
    population_size=400,
    replications=3,
    p=1.0,
    eta=0.1,
    steps=120,
    noise_scale=0.1,
    master_seed=7,
)


class TestSweepConfig:
    def test_grid_coercion(self):
        cfg = SweepConfig(**TINY_SWEEP)
        assert cfg.alpha_grid == (1.5, 2.0)
        assert isinstance(cfg.a_grid, tuple)

    @pytest.mark.parametrize(
        "override",
        [
            {"alpha_grid": ()},
            {"alpha_grid": (1.5, 1.5)},
            {"alpha_grid": (0.0, 1.5)},
            {"alpha_grid": (1.5, 2.2)},
            {"a_grid": (0.0,)},
            {"d_grid": (0,)},
            {"n": 0},
            {"population_size": 0},
            {"replications": 0},
            {"p": 0.5},
            {"eta": 0.0},
            {"steps": 0},
            {"noise_scale": -1.0},
            {"noise_scale": math.nan},  # passed, then failed at the first replication
        ],
    )
    def test_validation(self, override):
        bad = dict(TINY_SWEEP)
        bad.update(override)
        with pytest.raises(ParameterError):
            SweepConfig(**bad)

    @pytest.mark.parametrize("d_grid", [(2.7,), (True,), (2, 2.5), ("2",), (math.inf,),
                                        (math.nan,), (10**400,)])
    def test_d_grid_entry_that_is_not_an_integer_is_rejected(self, d_grid):
        # It was truncated: (2.7,) ran d = 2 and (True,) ran d = 1.
        with pytest.raises(ParameterError, match="d_grid entries must be integers"):
            SweepConfig(**{**TINY_SWEEP, "d_grid": d_grid})

    @pytest.mark.parametrize("name", ["alpha_grid", "a_grid"])
    @pytest.mark.parametrize("entry", [True, "1.5", math.inf, -math.inf, math.nan, 10**400],
                             ids=["true", "string", "inf", "-inf", "nan", "10**400"])
    def test_grid_entry_that_is_not_a_finite_number_is_rejected(self, name, entry):
        # True ran 1.0 and "1.5" ran 1.5; an inf a or a 10**400 raised OverflowError.
        with pytest.raises(ParameterError, match=f"{name} entries must be finite numbers"):
            SweepConfig(**{**TINY_SWEEP, name: (1.5, entry)})

    def test_integral_float_d_grid_entry_becomes_an_int(self):
        assert SweepConfig(**{**TINY_SWEEP, "d_grid": (3.0,)}).d_grid == (3,)


class TestPopulationAndRisk:
    def test_population_shape_and_support(self):
        pop = generate_population(3.0, 4, 5000, RngStream(80))
        assert pop.shape == (5000, 4)
        assert np.all(np.abs(pop) <= 1.5)
        assert abs(pop.mean()) < 0.05

    def test_population_validation(self):
        with pytest.raises(ParameterError):
            generate_population(0.0, 2, 10, RngStream(0))
        with pytest.raises(ParameterError):
            generate_population(1.0, 0, 10, RngStream(0))

    def test_risk_closed_form(self):
        data = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        theta = np.array([2.0, -1.0])
        # |<theta, x>| per row: 2, 2, 1.
        assert surrogate_risk(theta, data, 1.0) == pytest.approx(5.0 / 3.0)
        assert surrogate_risk(theta, data, 2.0) == pytest.approx(9.0 / 3.0)

    def test_risk_validation(self):
        with pytest.raises(ParameterError):
            surrogate_risk(np.ones(2), np.ones((3, 2)), 0.5)
        with pytest.raises(ShapeError):
            surrogate_risk(np.ones(3), np.ones((3, 2)), 1.0)
        with pytest.raises(ShapeError):
            surrogate_risk(np.ones(2), np.empty((0, 2)), 1.0)
        with pytest.raises(ShapeError):
            surrogate_risk(np.ones((2, 2, 2)), np.ones((3, 2)), 1.0)

    def test_generalization_error_is_absolute_difference(self):
        train = np.array([[1.0], [2.0]])
        pop = np.array([[1.0], [1.0], [4.0]])
        theta = np.array([1.0])
        expected = abs(1.5 - 2.0)
        assert generalization_error(theta, train, pop, 1.0) == pytest.approx(expected)

    def test_non_finite_iterates_propagate_to_nan(self):
        out = generalization_error(np.array([np.inf]), np.ones((2, 1)), np.ones((2, 1)), 1.0)
        assert math.isnan(out)


STREAM_SIZES = [1, COLS - 1, COLS, COLS + 1, 3 * COLS + 100]


class TestStreamedPopulation:
    """The sweep draws population rows and chunks from the population's stream
    without forming it; each must be generate_population's bytes."""

    @pytest.mark.parametrize("d", [1, 3, 100])
    @pytest.mark.parametrize("N", STREAM_SIZES)
    def test_population_and_its_chunks_are_the_uniform_draw(self, N, d):
        population = RngStream(42).generator.uniform(-1.25, 1.25, size=(N, d))
        assert generate_population(2.5, d, N, RngStream(42)).tobytes() == population.tobytes()
        chunks = [c.copy() for c in experiments._population_chunks(2.5, d, N, RngStream(42))]
        assert [len(c) for c in chunks[:-1]] == [COLS] * (len(chunks) - 1)
        assert np.concatenate(chunks).tobytes() == population.tobytes()

    @pytest.mark.parametrize("d", [1, 3, 100])
    @pytest.mark.parametrize("N", STREAM_SIZES)
    def test_rows_drawn_by_advancing_are_the_population_rows(self, N, d):
        population = generate_population(2.5, d, N, RngStream(43))
        picks = np.random.default_rng(N + d).integers(0, N, size=40)
        idx = np.concatenate([[0, N - 1, N - 1], picks, [0, picks[0]]])
        rows, inverse = np.unique(idx, return_inverse=True)
        drawn = experiments._population_rows(
            RngStream(43).generator, 2.5, np.empty((len(rows), d)), rows.tolist()
        )
        assert drawn[inverse].tobytes() == population[idx].tobytes()

    def test_records_equal_those_scored_on_the_whole_population(self):
        # The sweep's records as they were computed with the population
        # materialised: train = population[idx], and surrogate_risk on the
        # whole array. Three full risk chunks and a remainder.
        cfg = SweepConfig(**{**TINY_SWEEP, "a_grid": (1.0, 2.0), "d_grid": (3,),
                             "population_size": 3 * COLS + 100})
        records = run_synthetic_sweep(cfg)
        old = []
        for ai, a in enumerate(cfg.a_grid):
            seed = experiments._derive_seed(cfg.master_seed, (0, ai))
            population = generate_population(a, 3, cfg.population_size, RngStream(seed))
            thetas = np.zeros((cfg.replications, len(cfg.alpha_grid), 3))
            train_risks, seeds = [], []
            for r in range(cfg.replications):
                seeds.append(experiments._derive_seed(cfg.master_seed, (0, ai, r)))
                stream = RngStream(seeds[-1])
                idx = stream.fork(0).generator.integers(0, cfg.population_size, size=cfg.n)
                train = population[idx]
                problem = simulate.QuadraticProblem(train)
                for k, alpha in enumerate(cfg.alpha_grid):
                    sim = SimConfig(eta=cfg.eta, steps=cfg.steps, alpha=alpha,
                                    noise_scale=cfg.noise_scale)
                    thetas[r, k] = simulate.final_iterate(problem, sim, stream.fork(1))[0]
                train_risks.append(surrogate_risk(thetas[r], train, cfg.p))
            pop_risks = surrogate_risk(thetas.reshape(-1, 3), population, cfg.p)
            gens = np.abs(np.array(train_risks) - pop_risks.reshape(thetas.shape[:2]))
            old += [RunRecord(r, alpha, a, 3, cfg.n, cfg.p, seeds[r], gens[r, k], False)
                    for k, alpha in enumerate(cfg.alpha_grid) for r in range(cfg.replications)]
        assert records == old


@pytest.fixture(scope="module")
def population_and_thetas():
    # The sweep's population size and dimension, with 32 iterates at its scale.
    rng = np.random.default_rng(12)
    data = rng.uniform(-4.0, 4.0, size=(100_000, 100))
    return data, 0.05 * rng.standard_normal((32, 100))


class TestBlockRisk:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_each_row_is_bit_identical_to_the_theta_alone(self, population_and_thetas, p):
        data, thetas = population_and_thetas
        block = surrogate_risk(thetas, data, p)
        assert block.shape == (32,)
        assert all(block[i] == surrogate_risk(thetas[i], data, p) for i in range(32))

    def test_nonfinite_rows_leave_the_other_rows_bits_alone(self, population_and_thetas):
        data, thetas = population_and_thetas
        clean = surrogate_risk(thetas, data, 1.5)
        dirty = thetas.copy()
        dirty[5, 3] = np.inf
        dirty[17, 0] = np.nan
        out = surrogate_risk(dirty, data, 1.5)
        assert out[5] == np.inf and math.isnan(out[17])
        keep = np.ones(32, dtype=bool)
        keep[[5, 17]] = False
        assert np.array_equal(out[keep], clean[keep])

    def test_matches_an_fsum_oracle(self, population_and_thetas):
        data, thetas = population_and_thetas
        theta = thetas[31].tolist()
        dots = [abs(math.fsum(map(operator.mul, row.tolist(), theta))) for row in data]
        for p in (1.0, 1.5, 2.0):
            want = math.fsum(v**p for v in dots) / len(dots)
            assert surrogate_risk(thetas[31], data, p) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("m", [500, COLS - 1, COLS, COLS + 1, 2 * COLS + 17])
    def test_every_row_matches_alone_across_chunk_boundaries(self, m):
        # 70 iterates fill three blocks. The data ends inside the first chunk,
        # one row short of, at and one row past a chunk's end, and inside a third.
        rng = np.random.default_rng(3)
        data = rng.uniform(-1.0, 1.0, size=(m, 4))
        thetas = rng.standard_normal((70, 4))
        thetas[5, 3] = np.inf
        thetas[40, 0] = np.nan
        block = surrogate_risk(thetas, data, 1.5)
        assert block.shape == (70,)
        assert block[5] == np.inf and math.isnan(block[40])
        alone = [surrogate_risk(theta, data, 1.5) for theta in thetas]
        assert np.array_equal(block, alone, equal_nan=True)
        rows = data.tolist()
        for i in set(range(70)) - {5, 40}:
            theta = thetas[i].tolist()
            want = math.fsum(abs(math.fsum(map(operator.mul, row, theta))) ** 1.5 for row in rows)
            assert block[i] == pytest.approx(want / m, rel=1e-13)

    def test_scratch_stays_small_and_other_dtypes_are_converted_by_chunk(
        self, population_and_thetas
    ):
        data, _ = population_and_thetas
        thetas = 0.05 * np.random.default_rng(4).standard_normal((70, 100))
        single = data.astype(np.float32)

        def traced_peak(population):
            tracemalloc.start()
            try:
                surrogate_risk(thetas, population, 1.5)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # A 32 x population score block would be 25.6 MB, a float64 copy of
        # the float32 population 80 MB.
        for population in (data, single):
            peak = traced_peak(population)
            assert peak < 4e6, f"{population.dtype} population: traced peak {peak / 1e6:.2f} MB"
        assert np.array_equal(
            surrogate_risk(thetas, single, 1.5), surrogate_risk(thetas, single.astype(float), 1.5)
        )


class TestSyntheticSweep:
    def test_record_count_and_fields(self):
        cfg = SweepConfig(**TINY_SWEEP)
        records = run_synthetic_sweep(cfg)
        assert len(records) == 2 * 1 * 1 * 3
        for r in records:
            assert r.n == 40 and r.p == 1.0
            assert r.alpha in (1.5, 2.0) and r.a == 2.0 and r.d == 2
            assert r.diverged or math.isfinite(r.gen_error)

    def test_sweep_is_reproducible(self):
        cfg = SweepConfig(**TINY_SWEEP)
        first = run_synthetic_sweep(cfg)
        second = run_synthetic_sweep(cfg)
        assert first == second

    def test_replay_reproduces_each_record(self):
        cfg = SweepConfig(**TINY_SWEEP)
        records = run_synthetic_sweep(cfg)
        for r in records:
            assert replay_record(cfg, r) == r

    def test_replay_derives_the_seed_from_the_config(self):
        cfg = SweepConfig(**TINY_SWEEP)
        record = run_synthetic_sweep(cfg)[4]
        forged = RunRecord(**{**vars(record), "seed": record.seed + 1})
        assert replay_record(cfg, forged) == record != forged

    def test_replay_reproduces_each_record_across_risk_chunks(self):
        # Three full chunks of the population and a remainder.
        cfg = SweepConfig(**{**TINY_SWEEP, "d_grid": (3,), "population_size": 3 * COLS + 100})
        records = run_synthetic_sweep(cfg)
        assert len(records) == 6 and not any(r.diverged for r in records)
        for r in records:
            assert replay_record(cfg, r) == r

    def test_infinite_shocks_give_diverged_nan_records(self):
        records = run_synthetic_sweep(SweepConfig(**{**TINY_SWEEP, "alpha_grid": (0.01,)}))
        assert all(r.diverged and math.isnan(r.gen_error) for r in records)

    def test_check_06_shape_never_steps_the_loop(self, monkeypatch):
        # At d = 100, eta = 0.1 and 3,000 steps every run is certified free of
        # overflow, so its final iterate is drawn from its exact law alone: no
        # loop, no isotropic draws and no (steps, d) Gaussian block.
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep stepped the recursion loop or drew its shocks")

        class NoGaussianBlocks:
            def __init__(self, gen):
                self._gen = gen

            def __getattr__(self, name):
                return getattr(self._gen, name)

            def standard_normal(self, size=None, **kwargs):
                assert np.ndim(size) == 0, f"the sweep drew a {size} Gaussian block"
                return self._gen.standard_normal(size, **kwargs)

        monkeypatch.setattr(simulate, "euler_maruyama_run", refuse)
        monkeypatch.setattr(experiments, "euler_maruyama_run", refuse)
        monkeypatch.setattr(simulate, "_recursion", refuse)
        for module in (simulate, experiments, sampling):
            monkeypatch.setattr(module, "sample_isotropic_stable", refuse)
        monkeypatch.setattr(RngStream, "generator", property(lambda s: NoGaussianBlocks(s._gen)))
        cfg = SweepConfig(
            alpha_grid=(1.1, 1.5, 2.0), a_grid=(1.0, 8.0), d_grid=(100,), n=1000,
            population_size=2000, replications=1, eta=0.1, steps=3000, noise_scale=0.1,
        )
        records = run_synthetic_sweep(cfg)
        assert not any(r.diverged for r in records)
        for r in records:
            assert replay_record(cfg, r) == r

    def test_one_grid_point_at_the_sweep_scale_traces_under_10_mb(self):
        # The 100,000 x 100 population would be 80 MB; the sweep never forms it.
        cfg = SweepConfig(
            alpha_grid=(1.5, 2.0), a_grid=(8.0,), d_grid=(100,), n=1000,
            population_size=100_000, replications=2, eta=0.1, steps=3000, noise_scale=0.1,
        )
        tracemalloc.start()
        try:
            records = run_synthetic_sweep(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(records) == 4 and not any(r.diverged for r in records)
        assert peak < 10e6, f"traced peak {peak / 1e6:.1f} MB"

    def test_one_seed_per_grid_point_and_replication_shared_by_its_alphas(self):
        cfg = SweepConfig(**{**TINY_SWEEP, "a_grid": (1.0, 2.0), "d_grid": (2, 3)})
        records = run_synthetic_sweep(cfg)
        seeds = {}
        for r in records:
            seeds.setdefault((r.d, r.a, r.replication), set()).add(r.seed)
        assert len(seeds) == 2 * 2 * 3
        assert all(len(shared) == 1 for shared in seeds.values())
        assert len(set.union(*seeds.values())) == len(seeds)
        # records.csv keeps the canonical order: grid point, then alpha, then replication.
        assert [(r.alpha, r.replication) for r in records[:6]] == [
            (1.5, 0), (1.5, 1), (1.5, 2), (2.0, 0), (2.0, 1), (2.0, 2)
        ]

    def test_master_seed_changes_the_outcomes(self):
        cfg = SweepConfig(**TINY_SWEEP)
        other = SweepConfig(**{**TINY_SWEEP, "master_seed": 8})
        a = run_synthetic_sweep(cfg)
        b = run_synthetic_sweep(other)
        assert [r.gen_error for r in a] != [r.gen_error for r in b]


class TestCommonRandomNumbers:
    CRN_SWEEP = {**TINY_SWEEP, "alpha_grid": (1.1, 1.5, 2.0), "a_grid": (1.0, 2.0),
                 "d_grid": (2, 3)}

    def test_one_problem_per_grid_point_and_replication(self, monkeypatch):
        built = []

        class Counted(simulate.QuadraticProblem):
            def __init__(self, X):
                super().__init__(X)
                built.append(self)

        monkeypatch.setattr(experiments, "QuadraticProblem", Counted)
        records = run_synthetic_sweep(SweepConfig(**self.CRN_SWEEP))
        assert len(records) == 3 * 2 * 2 * 3
        assert len(built) == 2 * 2 * 3

    def test_every_alpha_of_a_replication_shares_its_gaussian(self, monkeypatch):
        # theta_alpha = Q (sqrt(v_alpha) * h): Q^T theta_alpha / sqrt(v_alpha) is
        # the same h for every alpha of a replication, the Gaussian alpha = 2 included.
        variances, draws = [], []
        variance, draw = simulate._variance, experiments.final_iterate

        def recorded_variance(m2, s2):
            variances.append(variance(m2, s2))
            return variances[-1]

        def recorded_draw(problem, sim, stream):
            theta, diverged = draw(problem, sim, stream)
            draws.append((problem, sim.alpha, theta))
            return theta, diverged

        monkeypatch.setattr(simulate, "_variance", recorded_variance)
        monkeypatch.setattr(experiments, "final_iterate", recorded_draw)
        records = run_synthetic_sweep(SweepConfig(**self.CRN_SWEEP))
        assert not any(r.diverged for r in records)
        assert len(draws) == len(variances) == len(records)
        shared = {}
        for (problem, alpha, theta), v in zip(draws, variances):
            shared.setdefault(id(problem), []).append(
                (alpha, problem.eigenvectors.T @ theta / np.sqrt(v))
            )
        assert len(shared) == 2 * 2 * 3
        firsts = []
        for per_alpha in shared.values():
            assert [alpha for alpha, _ in per_alpha] == [1.1, 1.5, 2.0]
            h = per_alpha[0][1]
            for _, other in per_alpha[1:]:
                np.testing.assert_allclose(other, h, rtol=1e-9, atol=1e-12)
            firsts.append(h[:2])
        # Replications and grid points draw their own h.
        assert len({tuple(h) for h in firsts}) == len(firsts)

    def test_only_the_uncertified_alpha_diverges_and_every_record_replays(self):
        # alpha = 0.01 overflows the certificate, so its runs step the Euler path,
        # where the infinite shocks diverge; alpha = 1.5 shares their seeds but is
        # drawn from its exact law exactly as in a grid without 0.01.
        cfg = SweepConfig(**{**TINY_SWEEP, "alpha_grid": (0.01, 1.5)})
        records = run_synthetic_sweep(cfg)
        assert [r.diverged for r in records] == [True] * 3 + [False] * 3
        assert all(math.isnan(r.gen_error) for r in records[:3])
        alone = run_synthetic_sweep(SweepConfig(**{**TINY_SWEEP, "alpha_grid": (1.5,)}))
        assert records[3:] == alone
        for r in records:
            # repr, since nan != nan; repr(float) round-trips every finite value exactly.
            assert repr(replay_record(cfg, r)) == repr(r)


class TestRecordIO:
    def test_round_trip_is_exact(self, tmp_path):
        cfg = SweepConfig(**TINY_SWEEP)
        records = run_synthetic_sweep(cfg)
        path = tmp_path / "records.csv"
        write_run_records(records, path)
        assert read_run_records(path) == records

    def test_write_is_byte_stable(self, tmp_path):
        cfg = SweepConfig(**TINY_SWEEP)
        records = run_synthetic_sweep(cfg)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_run_records(records, p1)
        write_run_records(records, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_is_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope,columns\n1,2\n")
        with pytest.raises(ShapeError):
            read_run_records(path)

    def test_nan_round_trip(self, tmp_path):
        rec = RunRecord(
            replication=0, alpha=1.2, a=1.0, d=1, n=10, p=1.0, seed=3,
            gen_error=float("nan"), diverged=True,
        )
        path = tmp_path / "nan.csv"
        write_run_records([rec], path)
        back = read_run_records(path)[0]
        assert back.diverged and math.isnan(back.gen_error)
        assert back.replication == 0 and back.seed == 3

    def test_written_bytes_follow_the_per_type_rule(self, tmp_path):
        # Integers and bools as integers, every other value as repr(float), whatever its type.
        rec = RunRecord(
            replication=np.int64(3), alpha=2, a=np.float64(0.1), d=np.int32(5), n=10,
            p=np.float32(1.5), seed=np.uint64(2**64 - 1), gen_error=float("nan"), diverged=True,
        )
        path = tmp_path / "records.csv"
        write_run_records([rec], path)
        assert path.read_bytes() == (
            b"replication,alpha,a,d,n,p,seed,gen_error,diverged\r\n"
            b"3,2.0,0.1,5,10,1.5,18446744073709551615,nan,1\r\n"
        )


class TestAggregation:
    def test_quartiles_match_numpy(self):
        records = [
            RunRecord(i, 1.5, 2.0, 1, 10, 1.0, i, float(v), False)
            for i, v in enumerate([5.0, 1.0, 3.0, 2.0, 4.0])
        ]
        table = aggregate_median_iqr(records)
        assert len(table) == 1
        row = table[0]
        assert row["median"] == np.percentile([1, 2, 3, 4, 5], 50)
        assert row["q25"] == np.percentile([1, 2, 3, 4, 5], 25)
        assert row["q75"] == np.percentile([1, 2, 3, 4, 5], 75)
        assert row["n_diverged"] == 0

    def test_diverged_records_are_excluded_but_counted(self):
        good = [RunRecord(i, 1.5, 2.0, 1, 10, 1.0, i, float(i + 1), False) for i in range(4)]
        bad = [RunRecord(9, 1.5, 2.0, 1, 10, 1.0, 9, float("nan"), True)]
        row = aggregate_median_iqr(good + bad)[0]
        assert row["median"] == 2.5
        assert row["n_diverged"] == 1

    def test_all_diverged_group_gives_nan_quantiles(self):
        bad = [RunRecord(i, 1.5, 2.0, 1, 10, 1.0, i, float("nan"), True) for i in range(3)]
        row = aggregate_median_iqr(bad)[0]
        assert math.isnan(row["median"]) and row["n_diverged"] == 3

    def test_grouping_splits_on_alpha_a_d(self):
        records = [
            RunRecord(0, 1.5, 1.0, 1, 10, 1.0, 0, 1.0, False),
            RunRecord(0, 1.5, 2.0, 1, 10, 1.0, 1, 2.0, False),
            RunRecord(0, 2.0, 1.0, 1, 10, 1.0, 2, 3.0, False),
        ]
        table = aggregate_median_iqr(records)
        assert len(table) == 3

    def test_aggregate_csv(self, tmp_path):
        cfg = SweepConfig(**TINY_SWEEP)
        table = aggregate_median_iqr(run_synthetic_sweep(cfg))
        path = tmp_path / "agg.csv"
        write_aggregate(table, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "alpha,a,d,median,q25,q75,n_diverged"
        assert len(lines) == 1 + len(table)

    def test_sweep_svg(self, tmp_path):
        cfg = SweepConfig(**TINY_SWEEP)
        table = aggregate_median_iqr(run_synthetic_sweep(cfg))
        path = tmp_path / "sweep.svg"
        write_sweep_svg(table, path, a=2.0, d=2)
        text = path.read_text()
        assert text.startswith("<svg")
        assert "polyline" in text
        with pytest.raises(ShapeError):
            write_sweep_svg(table, tmp_path / "x.svg", a=99.0, d=2)


def make_1d_pair():
    gen = RngStream(99).generator
    X = gen.uniform(0.8, 1.2, 40)
    X_hat = X.copy()
    X_hat[0] = 1.9
    return NeighborPair(X, X_hat)


# Unit probes both ways and make_1d_pair's new row: with p = 1 every probe's
# gap is |z| times one difference, so the largest |z| takes the max.
PROBES_1D = np.array([[1.0], [-1.0], [1.9]])


class TestEmpiricalStabilityGap:
    def test_unstable_orders_rejected(self):
        pair = make_1d_pair()
        sim = SimConfig(eta=0.01, steps=100, alpha=1.5, noise_scale=1.0)
        with pytest.raises(UnstableRegimeError):
            empirical_stability_gap(pair, PROBES_1D, 1.8, 1.5, sim, 200, RngStream(0))

    def test_small_sample_warns(self):
        pair = make_1d_pair()
        sim = SimConfig(eta=0.05, steps=200, alpha=1.5, noise_scale=1.0)
        with pytest.warns(RuntimeWarning):
            empirical_stability_gap(pair, PROBES_1D, 1.0, 1.5, sim, 50, RngStream(0))

    def test_estimate_is_deterministic(self):
        pair = make_1d_pair()
        sim = SimConfig(eta=0.05, steps=200, alpha=1.5, noise_scale=1.0)
        a = empirical_stability_gap(pair, PROBES_1D, 1.0, 1.5, sim, 500, RngStream(3))
        b = empirical_stability_gap(pair, PROBES_1D, 1.0, 1.5, sim, 500, RngStream(3))
        assert a.gap == b.gap and a.stderr == b.stderr
        np.testing.assert_array_equal(a.per_probe_gap, b.per_probe_gap)

    def test_sign_symmetric_probes_agree(self):
        pair = make_1d_pair()
        sim = SimConfig(eta=0.05, steps=200, alpha=1.5, noise_scale=1.0)
        est = empirical_stability_gap(pair, PROBES_1D, 1.0, 1.5, sim, 500, RngStream(4))
        assert est.per_probe_gap[0] == est.per_probe_gap[1]

    def test_matches_closed_form_oracle(self):
        # Coupled chains against the exact stationary moment difference.
        alpha, p = 1.6, 1.0
        pair = make_1d_pair()
        s1 = float(np.mean(pair.X**2))
        s2 = float(np.mean(pair.X_hat**2))
        m1 = sas_abs_moment(p, alpha, (alpha * s1) ** (-1.0 / alpha))
        m2 = sas_abs_moment(p, alpha, (alpha * s2) ** (-1.0 / alpha))
        oracle = np.abs(np.abs(PROBES_1D[:, 0]) ** p * (m1 - m2))
        sim = SimConfig(eta=0.005, steps=4000, alpha=alpha, noise_scale=1.0)
        est = empirical_stability_gap(pair, PROBES_1D, p, alpha, sim, 20000, RngStream(11))
        assert abs(abs(est.gap) - oracle[est.probe_index]) <= 3.0 * est.stderr

    def test_alpha_differing_from_the_chain_is_rejected(self):
        pair = make_1d_pair()
        sim = SimConfig(eta=0.05, steps=200, alpha=1.5, noise_scale=1.0)
        with pytest.raises(ParameterError, match="differs from the chain's sim.alpha"):
            empirical_stability_gap(pair, PROBES_1D, 1.0, 1.6, sim, 200, RngStream(0))

    def test_singular_gram_matrix_is_refused(self):
        # X's Gram eigenvalues are (0, 2): its chain is a random walk along e_2.
        X = np.array([[1.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        pair = NeighborPair(X, [[1.0, 0.0], [1.0, 0.0], [2.0, 1.0]])
        sim = SimConfig(eta=0.1, steps=1000, alpha=2.0, noise_scale=1.0)
        with pytest.raises(DegenerateDataError, match="eigenvalue is 0; the chain does not mix"):
            empirical_stability_gap(pair, [[1.0, 1.0]], 1.0, 2.0, sim, 200, RngStream(0))

    def test_too_coarse_step_rejected(self):
        pair = make_1d_pair()
        sim = SimConfig(eta=1.9, steps=100, alpha=1.5, noise_scale=1.0)
        with pytest.raises(ParameterError):
            empirical_stability_gap(pair, PROBES_1D, 1.0, 1.5, sim, 200, RngStream(0))

    def test_stacked_chains_match_separate_loops(self):
        # The two datasets' chains step as one stacked state; replaying the
        # same shocks through one plain loop per dataset must agree.
        gen = RngStream(98).generator
        X = gen.normal(size=(30, 3))
        X_hat = X.copy()
        X_hat[0] = gen.normal(size=3)
        pair = NeighborPair(X, X_hat)
        sim = SimConfig(eta=0.2, steps=200, alpha=1.5, noise_scale=0.7, burn_in=100)
        theta, theta_hat = coupled_stationary_draws(
            pair.problem, pair.problem_hat, sim, 40, RngStream(12)
        )
        noise_stream = RngStream(12).fork(0)
        shocks = [
            0.7 * 0.2 ** (1.0 / 1.5)
            * sample_isotropic_stable(3, StableParams(1.5, 1.0), noise_stream, size=40)
            for _ in range(100)
        ]
        for data, got in ((X, theta), (X_hat, theta_hat)):
            A = data.T @ data / 30
            ref = np.zeros((40, 3))
            for shock in shocks:
                ref = ref - 0.2 * ref @ A + shock
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-14)

    def test_overflowing_chains_raise(self):
        # Shocks scaled by 1e299 push the chains past 1e300 at the first step.
        pair = make_1d_pair()
        sim = SimConfig(eta=0.1, steps=3000, alpha=1.5, noise_scale=1e299, burn_in=2000)
        with pytest.raises(AccuracyError, match="at step 1 of a 2000-step burn-in"):
            empirical_stability_gap(pair, PROBES_1D, 1.0, 1.5, sim, 200, RngStream(0))


class TestCauchyDoublingCheck:
    def test_settled_sequence_passes(self):
        ok, change = cauchy_doubling_check(np.ones(4000), initial_window=500)
        assert ok and change == 0.0

    def test_drifting_sequence_fails(self):
        ok, change = cauchy_doubling_check(np.arange(1.0, 4001.0), initial_window=500)
        assert not ok and change > 0.5

    def test_requires_two_windows(self):
        with pytest.raises(ShapeError):
            cauchy_doubling_check(np.ones(100), initial_window=100)
        with pytest.raises(ParameterError):
            cauchy_doubling_check(np.ones(100), initial_window=0)

    @pytest.mark.parametrize("values, window, index", [
        (np.ones(2000), 1000, 1500),
        (np.r_[np.ones(1000), 100.0 * np.ones(1000)], 500, 1999),
    ], ids=["settled", "drifting"])
    def test_non_finite_value_is_refused(self, values, window, index):
        # max(0.0, nan) is 0.0, so without the check a nan window reads as converged.
        values = values.copy()
        values[index] = np.nan
        with pytest.raises(ParameterError, match=f"^values must be finite; entry {index} is nan"):
            cauchy_doubling_check(values, initial_window=window)


def test_gap_estimate_carries_per_probe_arrays():
    est = StabilityGapEstimate(
        gap=1.0, stderr=0.1, probe_index=0, per_probe_gap=np.ones(2)
    )
    assert est.per_probe_gap.shape == (2,)
    assert est.gap == est.per_probe_gap[est.probe_index]
