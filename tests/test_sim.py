import hashlib
import itertools
import json
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liqgame import cli, sim
from liqgame.sim import (
    BLOCK,
    HIGH_STRATEGY,
    LOW_STRATEGY,
    SimConfig,
    StrategySpec,
    analytic_hit_ratio,
    iter_trials,
    parcel_size,
    run_simulation,
)

from reference_sim import (
    convolution_hit_probability,
    reference_hit_probability,
    repeated_play_distribution,
)

FULL = StrategySpec("full_balance")
RANDOM = StrategySpec("uniform_random")
STRATEGIES = [
    RANDOM,
    FULL,
    StrategySpec("fixed_fraction", 0.7),
    StrategySpec("fixed_fraction", 0.3),
]
# every kind, and a fraction whose parcels are 1 below balance 1500
ORACLE_STRATEGIES = [*STRATEGIES, StrategySpec("fixed_fraction", 0.001)]


def fixed_pair_config(b_i, b_j, **overrides):
    defaults = dict(
        trials=1,
        balance_range_i=(b_i, b_i),
        balance_range_j=(b_j, b_j),
        strategy_i=FULL,
        strategy_j=FULL,
        seed=7,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


class TestStrategySpec:
    def test_high_low_are_config_values(self):
        assert HIGH_STRATEGY.fraction == 0.9
        assert LOW_STRATEGY.fraction == 0.3

    def test_fraction_required_iff_fixed(self):
        with pytest.raises(ValueError):
            StrategySpec("fixed_fraction")
        with pytest.raises(ValueError):
            StrategySpec("full_balance", fraction=0.5)
        with pytest.raises(ValueError):
            StrategySpec("fixed_fraction", fraction=0.0)
        with pytest.raises(ValueError):
            StrategySpec("fixed_fraction", fraction="0.5")
        with pytest.raises(ValueError):
            StrategySpec.from_jsonable(5)

    def test_boolean_fraction_rejected(self):
        # bool is a numbers.Real, so True would pass as 1 and fail only when
        # a parcel is computed
        with pytest.raises(ValueError, match=r"^fixed_fraction needs a fraction in \(0, 1\]$"):
            StrategySpec("fixed_fraction", True)
        with pytest.raises(ValueError, match="fixed_fraction needs"):
            StrategySpec.from_jsonable({"kind": "fixed_fraction", "fraction": True})

    def test_parcel_rounds_half_up_with_floor_one(self):
        assert parcel_size(StrategySpec("fixed_fraction", 0.5), 5) == 3
        assert parcel_size(StrategySpec("fixed_fraction", 0.3), 1) == 1
        assert parcel_size(StrategySpec("fixed_fraction", 0.1), 4) == 1
        assert parcel_size(FULL, 9) == 9

    def test_random_strategy_has_no_deterministic_parcel(self):
        with pytest.raises(sim.IntractableStrategy):
            parcel_size(RANDOM, 5)

    @pytest.mark.parametrize("text", ["0.7", "0.35"])
    def test_parcel_rounds_exactly(self, text):
        # 0.7 * 45 is 31.499999999999996 in binary floating point.
        strategy = StrategySpec("fixed_fraction", float(text))
        balances = range(1, 10_001)
        exact = [max(1, math.floor(Fraction(text) * b + Fraction(1, 2))) for b in balances]
        assert [parcel_size(strategy, b) for b in balances] == exact
        assert parcel_size(StrategySpec("fixed_fraction", 0.7), 45) == 32

    @pytest.mark.parametrize("strategy", [HIGH_STRATEGY, LOW_STRATEGY])
    def test_default_fractions_round_as_in_float(self, strategy):
        balances = range(1, 200_001)
        in_float = [max(1, math.floor(strategy.fraction * b + 0.5)) for b in balances]
        assert [parcel_size(strategy, b) for b in balances] == in_float

    def test_huge_balance_parcels_exactly(self):
        seven_tenths = StrategySpec("fixed_fraction", 0.7)
        assert parcel_size(seven_tenths, 10**30) == 7 * 10**29
        assert parcel_size(seven_tenths, 10**30 + 5) == 7 * 10**29 + 4  # 3.5 rounds up
        one_shot = fixed_pair_config(10**30 + 5, -(10**30 + 5), strategy_i=seven_tenths)
        assert run_simulation(one_shot).total_volume == 7 * 10**29 + 4
        # repeated: each round moves 0.7 of what is left, until it is gone
        held, rounds = 10**30, 0
        while held:
            held, rounds = held - parcel_size(seven_tenths, held), rounds + 1
        report = run_simulation(
            fixed_pair_config(10**30, -(10**30), strategy_i=seven_tenths, mode="repeated")
        )
        assert report.total_volume == 10**30
        assert report.rounds_to_clear_histogram == {rounds: 1}


class TestOneShot:
    def test_oversized_offer_never_trades(self):
        report = run_simulation(fixed_pair_config(5, -3))
        assert report.trades_executed == 0
        assert report.hit_ratio == 0.0
        assert report.total_volume == 0

    def test_fitting_offer_trades_full_balance(self):
        report = run_simulation(fixed_pair_config(3, -5))
        assert report.trades_executed == 1
        assert report.total_volume == 3
        assert report.hit_ratio == 1.0

    def test_report_echoes_seed_and_mode(self):
        report = run_simulation(fixed_pair_config(3, -5, seed=123))
        assert report.seed == 123
        assert report.mode == "one_shot"
        assert report.rounds_to_clear_histogram == {}
        assert report.uncleared_trials is None

    def test_determinism_bytes(self):
        config = SimConfig(trials=500, seed=42)
        first = cli._dumps(run_simulation(config).to_jsonable())
        assert cli._dumps(run_simulation(config).to_jsonable()) == first

    def test_different_seeds_differ(self):
        a = run_simulation(SimConfig(trials=2000, seed=1))
        b = run_simulation(SimConfig(trials=2000, seed=2))
        assert cli._dumps(a.to_jsonable()) != cli._dumps(b.to_jsonable())


class TestRepeated:
    def test_repeated_clears_fixed_pair(self):
        report = run_simulation(
            fixed_pair_config(6, -6, mode="repeated", strategy_i=FULL, strategy_j=FULL)
        )
        assert report.total_volume == 6
        assert report.rounds_to_clear_histogram == {1: 1}
        assert report.uncleared_trials == 0

    def test_repeated_stuck_pair_hits_round_budget(self):
        report = run_simulation(
            fixed_pair_config(5, -3, mode="repeated", max_rounds=11)
        )
        assert report.uncleared_trials == 1
        assert report.opportunities == 11
        assert report.trades_executed == 0

    @pytest.mark.parametrize("strategy_i", [FULL, HIGH_STRATEGY])
    @pytest.mark.parametrize("strategy_j", [FULL, LOW_STRATEGY])
    def test_deterministic_pairs_match_scalar_replay(self, strategy_i, strategy_j, monkeypatch):
        # Every round is replayed, idle ones included. Balances are at most
        # 25 and a moving round moves at least 1, so a trial still open after
        # 30 rounds has stopped moving for good.
        base = dict(
            trials=200,
            balance_range_i=(1, 25),
            balance_range_j=(-25, -1),
            strategy_i=strategy_i,
            strategy_j=strategy_j,
            seed=8,
            mode="repeated",
        )
        replayed = []
        for record in iter_trials(SimConfig(max_rounds=30, **base)):
            held, needed = record.balance_i, -record.balance_j
            volume = trades = rounds = 0
            while rounds < 30 and held > 0 and needed > 0:
                offer = parcel_size(strategy_i, held)
                moved = offer if offer <= parcel_size(strategy_j, needed) else 0
                held, needed = held - moved, needed - moved
                volume, trades, rounds = volume + moved, trades + (moved > 0), rounds + 1
            cleared = held == 0 or needed == 0
            replayed.append((record.balance_i, record.balance_j, volume, rounds, trades, cleared))
            assert tuple(record) == replayed[-1]
        assert {fields[-1] for fields in replayed} == {True, False}
        # A budget far beyond the replay: idle trials settle at once with
        # rounds_played equal to the budget, so the block plays at most 30
        # rounds (two parcel calls each) instead of the whole budget.
        budget = 10**4
        calls = []
        rule = sim._parcel_rule

        def counted_rule(strategy):
            parcels = rule(strategy)
            return lambda *args: calls.append(1) or parcels(*args)

        monkeypatch.setattr(sim, "_parcel_rule", counted_rule)
        huge = [tuple(r) for r in iter_trials(SimConfig(max_rounds=budget, **base))]
        assert huge == [f if f[-1] else f[:3] + (budget,) + f[4:] for f in replayed]
        assert len(calls) <= 2 * 30

    def test_first_round_matches_one_shot_per_trial(self):
        base = dict(trials=300, seed=99, strategy_i=RANDOM, strategy_j=RANDOM)
        one_shot = list(iter_trials(SimConfig(mode="one_shot", **base)))
        repeated = list(iter_trials(SimConfig(mode="repeated", **base)))
        for single, multi in zip(one_shot, repeated):
            assert (single.balance_i, single.balance_j) == (
                multi.balance_i,
                multi.balance_j,
            )
            assert multi.volume >= single.volume

    def test_sign_check_raises(self, monkeypatch):
        # parcels one larger than the balance make a fitting offer overdraw
        monkeypatch.setattr(
            sim, "_parcel_rule", lambda strategy: lambda balances, bits: [b + 1 for b in balances]
        )
        with pytest.raises(AssertionError):
            run_simulation(fixed_pair_config(3, -5, mode="repeated"))

    def test_replay_against_core_trade_rule(self):
        # move each trial's whole volume from I to J on plain integers: no
        # sign may flip, and a side clears exactly when the record says so
        config = SimConfig(
            trials=50,
            balance_range_i=(1, 40),
            balance_range_j=(-40, -1),
            strategy_i=RANDOM,
            strategy_j=RANDOM,
            seed=5,
            mode="repeated",
            max_rounds=30,
        )
        for record in iter_trials(config):
            held = record.balance_i - record.volume
            owed = record.balance_j + record.volume
            assert held >= 0 >= owed
            assert (held == 0 or owed == 0) == record.cleared

    def test_volume_bounded_by_smaller_side(self):
        config = SimConfig(
            trials=200,
            balance_range_i=(1, 30),
            balance_range_j=(-10, -1),
            strategy_i=RANDOM,
            strategy_j=RANDOM,
            seed=11,
            mode="repeated",
        )
        for record in iter_trials(config):
            assert record.volume <= min(record.balance_i, -record.balance_j)
        report = run_simulation(config)
        assert report.total_volume <= config.trials * 10


def pairs_at_most(a0: int, a1: int, c0: int, c1: int) -> int:
    """The integer pairs (x, y) with x <= y, x in a0..a1 and y in c0..c1."""
    below = max(0, min(a1, c0) - a0 + 1) * (c1 - c0 + 1)  # x <= c0 fits every y
    s, e = max(a0, c0 + 1), min(a1, c1)  # x above c0 fits y in x..c1
    return below + max(0, e - s + 1) * (2 * c1 + 2 - s - e) // 2


class TestAnalyticHitRatio:
    def test_equal_deterministic_sizes(self):
        assert analytic_hit_ratio((2, 2), (-2, -2), FULL, FULL) == 1.0

    def test_small_enumerated_case(self):
        # pairs (1,1) (1,2) (2,1) (2,2): the offer fits in all but (2,1)
        assert analytic_hit_ratio((1, 2), (-2, -1), FULL, FULL) == 0.75

    def test_thousand_range_full_balance(self):
        value = analytic_hit_ratio((1, 1000), (-1000, -1), FULL, FULL)
        assert value == pytest.approx(500500 / 1_000_000, abs=0)

    def test_fixed_fraction_matches_enumeration(self):
        # brute-force the 3x3 joint distribution of deterministic parcels
        strategy = StrategySpec("fixed_fraction", 0.5)
        hits = 0
        for b_i in (1, 2, 3):
            for b_j in (1, 2, 3):
                if parcel_size(strategy, b_i) <= parcel_size(strategy, b_j):
                    hits += 1
        expected = Fraction(hits, 9)
        got = analytic_hit_ratio((1, 3), (-3, -1), strategy, strategy)
        assert got == pytest.approx(float(expected), abs=1e-15)

    def test_uniform_random_small_case_against_double_sum(self):
        # direct joint enumeration over balances and parcels for 1..2 ranges
        total = Fraction(0)
        for b_i in (1, 2):
            for b_j in (1, 2):
                weight = Fraction(1, 4)
                for a_i in range(1, b_i + 1):
                    for a_j in range(1, b_j + 1):
                        if a_i <= a_j:
                            total += weight * Fraction(1, b_i) * Fraction(1, b_j)
        got = analytic_hit_ratio((1, 2), (-2, -1), RANDOM, RANDOM)
        assert got == pytest.approx(float(total), abs=1e-15)

    @pytest.mark.parametrize("strategy_i", STRATEGIES)
    @pytest.mark.parametrize("strategy_j", STRATEGIES)
    def test_equals_reference_double_sum(self, strategy_i, strategy_j):
        rng = random.Random(f"{strategy_i}{strategy_j}")
        for _ in range(3):
            lo_i, lo_j = rng.randint(1, 40), rng.randint(1, 40)
            range_i = (lo_i, lo_i + rng.randint(0, 59))
            range_j = (-(lo_j + rng.randint(0, 59)), -lo_j)
            expected = reference_hit_probability(range_i, range_j, strategy_i, strategy_j)
            got = analytic_hit_ratio(range_i, range_j, strategy_i, strategy_j)
            assert got == float(expected), (range_i, range_j)

    @settings(deadline=None)
    @given(
        st.sampled_from(ORACLE_STRATEGIES),
        st.sampled_from(ORACLE_STRATEGIES),
        st.integers(1, 30),
        st.integers(0, 12),
        st.integers(1, 30),
        st.integers(0, 12),
    )
    @example(RANDOM, RANDOM, 1, 0, 1, 0)  # width 1 on both sides
    @example(RANDOM, RANDOM, 20, 5, 1, 8)  # disjoint, i's balances above j's
    @example(RANDOM, FULL, 1, 8, 20, 5)  # disjoint, i's balances below j's
    @example(FULL, RANDOM, 7, 0, 3, 9)  # width 1 inside the other range
    def test_equals_reference_on_small_ranges(
        self, strategy_i, strategy_j, lo_i, extra_i, lo_j, extra_j
    ):
        range_i, range_j = (lo_i, lo_i + extra_i), (-(lo_j + extra_j), -lo_j)
        expected = reference_hit_probability(range_i, range_j, strategy_i, strategy_j)
        assert analytic_hit_ratio(range_i, range_j, strategy_i, strategy_j) == float(expected)

    @pytest.mark.parametrize("strategy_i", ORACLE_STRATEGIES)
    @pytest.mark.parametrize("strategy_j", ORACLE_STRATEGIES)
    @pytest.mark.parametrize(
        "range_i, range_j",
        [
            ((1, 2000), (-2000, -1)),
            ((301, 2300), (-1800, -11)),
            ((1201, 2000), (-700, -250)),
            ((3, 400), (-2400, -1001)),
            ((999, 999), (-1500, -1)),
        ],
        ids=["same", "overlapping", "i-above", "j-above", "i-width-1"],
    )
    def test_equals_convolution_on_wide_ranges(self, strategy_i, strategy_j, range_i, range_j):
        expected = convolution_hit_probability(range_i, range_j, strategy_i, strategy_j)
        assert analytic_hit_ratio(range_i, range_j, strategy_i, strategy_j) == float(expected)

    def test_pair_count_by_enumeration(self):
        for a0, a1, c0, c1 in itertools.product(range(1, 7), repeat=4):
            if a0 <= a1 and c0 <= c1:
                pairs = itertools.product(range(a0, a1 + 1), range(c0, c1 + 1))
                assert pairs_at_most(a0, a1, c0, c1) == sum(x <= y for x, y in pairs)

    @pytest.mark.parametrize("strategy_i", [RANDOM, FULL])
    @pytest.mark.parametrize("strategy_j", [RANDOM, FULL])
    def test_balances_far_from_zero(self, strategy_i, strategy_j):
        # ten balances a side near 10**12: the work follows the values drawn,
        # not their size, so this returns at once
        lo = 10**12
        total = Fraction(0)
        for b_i, b_j in itertools.product(range(lo, lo + 10), repeat=2):
            offers = (1 if strategy_i == RANDOM else b_i, b_i)
            capacities = (1 if strategy_j == RANDOM else b_j, b_j)
            total += Fraction(
                pairs_at_most(*offers, *capacities),
                (offers[1] - offers[0] + 1) * (capacities[1] - capacities[0] + 1),
            )
        got = analytic_hit_ratio((lo, lo + 9), (-lo - 9, -lo), strategy_i, strategy_j)
        assert got == float(total / 100)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 50_000])
    def test_uniform_closed_form(self, n):
        # uniform against uniform on 1..n both sides: 1/2 + 1/n - H_n/(2n^2)
        lcm = math.lcm(*range(1, n + 1))
        harmonic = Fraction(sum(lcm // k for k in range(1, n + 1)), lcm)
        expected = Fraction(1, 2) + Fraction(1, n) - harmonic / (2 * n * n)
        if n <= 10:
            assert expected == reference_hit_probability((1, n), (-n, -1), RANDOM, RANDOM)
        assert analytic_hit_ratio((1, n), (-n, -1), RANDOM, RANDOM) == float(expected)

    @pytest.mark.parametrize(
        "range_i, range_j, message",
        [
            ((5, 1), (-3, -1), "balance ranges must be nonempty"),
            ((1, 3), (-1, -3), "balance ranges must be nonempty"),
            ((1, 3), (1, 3), "balance_range_j must be strictly negative"),
            ((1, 3), (-3, 0), "balance_range_j must be strictly negative"),
            ((-3, 0), (-3, -1), "balance_range_i must be strictly positive"),
            ((0, 3), (-3, -1), "balance_range_i must be strictly positive"),
            ((1, 3.0), (-3, -1), "balance_range_i must be a pair of integers"),
            ((1, 3), (-3, -1, 0), "balance_range_j must be a pair of integers"),
        ],
    )
    def test_refuses_what_sim_config_refuses(self, range_i, range_j, message):
        for strategy in (RANDOM, FULL):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
                analytic_hit_ratio(range_i, range_j, strategy, strategy)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            SimConfig(trials=1, balance_range_i=range_i, balance_range_j=range_j)


class TestBlockStream:
    @pytest.mark.parametrize("mode", ["one_shot", "repeated"])
    def test_full_block_independent_of_trial_count(self, mode):
        base = dict(seed=31, mode=mode, balance_range_i=(1, 50), balance_range_j=(-50, -1))
        full = list(iter_trials(SimConfig(trials=BLOCK, **base)))
        longer = list(iter_trials(SimConfig(trials=BLOCK + 10, **base)))
        assert longer[:BLOCK] == full
        assert longer[BLOCK:] != full[:10]  # block 1 has its own substream

    def test_one_round_of_repeated_is_one_shot(self):
        base = dict(trials=BLOCK + 500, seed=8, strategy_i=HIGH_STRATEGY)
        one_shot = list(iter_trials(SimConfig(mode="one_shot", **base)))
        repeated = list(iter_trials(SimConfig(mode="repeated", max_rounds=1, **base)))
        assert repeated == one_shot

    @pytest.mark.parametrize("mode", ["one_shot", "repeated"])
    def test_bytes_identical_across_blocks(self, mode):
        config = SimConfig(trials=3 * BLOCK + 5, seed=2**64 - 1, mode=mode)
        first = cli._dumps(run_simulation(config).to_jsonable())
        assert cli._dumps(run_simulation(config).to_jsonable()) == first
        assert json.loads(first)["trials"] == 3 * BLOCK + 5


class TestKnownAnswer:
    """SHA-256 of the report bytes for two seeded configs, each over more
    than one block. A change to the stream, the sampler or the play order
    changes these; Python versions must not."""

    @pytest.mark.parametrize(
        "config, digest",
        [
            (
                SimConfig(
                    trials=2 * BLOCK + 100,
                    balance_range_i=(1, 500),
                    balance_range_j=(-700, -200),
                    strategy_i=HIGH_STRATEGY,
                    strategy_j=RANDOM,
                    seed=20241018,
                ),
                "adf1d0509d3404c044ded9dae4b49bd59d6c8b126eaa74b43bd5285647811576",
            ),
            (
                SimConfig(
                    trials=BLOCK + 50,
                    balance_range_i=(1, 300),
                    balance_range_j=(-300, -1),
                    seed=2**64 - 1,
                    mode="repeated",
                    max_rounds=40,
                ),
                "d80c7a0a4ae4c496db19082564682693e4cb86b6a606619868d805afa16c2866",
            ),
        ],
        ids=["one_shot", "repeated"],
    )
    def test_report_digest(self, config, digest):
        report = cli._dumps(run_simulation(config).to_jsonable()).encode()
        assert hashlib.sha256(report).hexdigest() == digest


class TestRepeatedOracle:
    @pytest.mark.parametrize(
        "strategy_i, strategy_j",
        [
            (RANDOM, RANDOM),
            (FULL, RANDOM),
            (RANDOM, StrategySpec("fixed_fraction", 0.7)),
            (StrategySpec("fixed_fraction", 0.35), RANDOM),
            (StrategySpec("fixed_fraction", 0.5), StrategySpec("fixed_fraction", 0.7)),
        ],
    )
    def test_histogram_matches_markov_chain(self, strategy_i, strategy_j):
        trials, max_rounds = 20_000, 10
        range_i, range_j = (1, 6), (-6, -1)
        report = run_simulation(
            SimConfig(
                trials=trials,
                balance_range_i=range_i,
                balance_range_j=range_j,
                strategy_i=strategy_i,
                strategy_j=strategy_j,
                seed=606,
                mode="repeated",
                max_rounds=max_rounds,
            )
        )
        clears, uncleared = repeated_play_distribution(
            range_i, range_j, strategy_i, strategy_j, max_rounds
        )
        assert set(report.rounds_to_clear_histogram) <= set(range(1, max_rounds + 1))
        observed = [report.rounds_to_clear_histogram.get(k, 0) for k in range(1, max_rounds + 1)]
        expected = [clears.get(k, Fraction(0)) for k in range(1, max_rounds + 1)]
        for count, p in zip(observed + [report.uncleared_trials], expected + [uncleared]):
            sigma = math.sqrt(trials * p * (1 - p))
            assert abs(count - trials * p) <= 5 * sigma, (observed, report.uncleared_trials)


class TestConvergence:
    def test_uniform_random_hit_ratio_within_three_sigma(self):
        trials = 20_000
        config = SimConfig(trials=trials, seed=2024)
        report = run_simulation(config)
        expected = analytic_hit_ratio((1, 1000), (-1000, -1), RANDOM, RANDOM)
        sigma = math.sqrt(expected * (1 - expected) / trials)
        assert abs(report.hit_ratio - expected) < 3 * sigma


class TestConfigAndReportSerialization:
    def test_config_document_is_read_field_by_field(self):
        doc = {
            "trials": 10,
            "balance_range_i": [1, 1000],
            "strategy_i": {"kind": "fixed_fraction", "fraction": 0.9},
            "strategy_j": {"kind": "fixed_fraction", "fraction": 0.3},
            "seed": 9,
            "mode": "repeated",
            "max_rounds": 12,
        }
        config = SimConfig.from_jsonable(json.loads(json.dumps(doc)))
        assert config == SimConfig(
            trials=10,
            strategy_i=HIGH_STRATEGY,
            strategy_j=LOW_STRATEGY,
            seed=9,
            mode="repeated",
            max_rounds=12,
        )
        assert config.balance_range_i == (1, 1000)  # JSON arrays come back as tuples

    @pytest.mark.parametrize(
        "spec", [HIGH_STRATEGY, StrategySpec("uniform_random"), StrategySpec("full_balance")]
    )
    def test_strategy_reads_its_own_fields(self, spec):
        # simulate hands the reader a parsed --strategy-i as _asdict()
        assert StrategySpec.from_jsonable(json.loads(json.dumps(spec._asdict()))) == spec

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"trials": 50, "seed": 1, "mod": "repeated"}, "unknown simulation config key 'mod'"),
            ({"trials": 50, "sede": 1}, "unknown simulation config key 'sede'"),
            (
                {"trials": 50, "strategy_j": {"kind": "fixed_fraction", "fracton": 0.5}},
                "unknown strategy key 'fracton'",
            ),
            ({"seed": 1}, "missing simulation config key 'trials'"),
            ({"trials": 50, "strategy_i": {}}, "missing strategy key 'kind'"),
            ([{"trials": 50}], "simulation config must be a JSON object, got list"),
            ({"trials": 50, "strategy_i": ["full_balance"]}, "strategy must be a JSON object, got list"),
        ],
        ids=["mode", "seed", "strategy", "missing-trials", "missing-kind", "config-list", "strategy-list"],
    )
    def test_unknown_key_refused(self, doc, message):
        # a key no field reads is a typo, not a request for the default
        with pytest.raises(ValueError) as caught:
            SimConfig.from_jsonable(doc)
        assert str(caught.value) == message

    def test_report_json_shape(self):
        report = run_simulation(fixed_pair_config(3, -5))
        payload = json.loads(cli._dumps(report.to_jsonable()))
        assert payload["trials"] == 1
        assert payload["hit_ratio"] == 1.0
        assert payload["seed"] == 7

    def test_histogram_csv(self):
        report = run_simulation(
            fixed_pair_config(6, -6, mode="repeated", strategy_i=FULL, strategy_j=FULL)
        )
        assert report.histogram_csv() == "rounds,count\n1,1\n"

    @pytest.mark.parametrize(
        "overrides",
        [
            {"trials": 0},
            {"balance_range_i": (0, 5)},
            {"balance_range_j": (-5, 0)},
            {"balance_range_i": (5, 1)},
            {"mode": "forever"},
            {"max_rounds": 0},
            {"seed": -1},
            {"trials": "many"},
            {"trials": True},
            {"seed": "x"},
            {"seed": 1.0},
            {"max_rounds": None},
            {"balance_range_i": 5},
            {"balance_range_i": (1, 2, 3)},
            {"balance_range_j": (-5.0, -1)},
        ],
    )
    def test_invalid_configs_rejected(self, overrides):
        base = dict(trials=1, seed=1)
        base.update(overrides)
        with pytest.raises(ValueError):
            SimConfig(**base)


@settings(max_examples=25, deadline=None)
@given(
    b_i=st.integers(1, 20),
    b_j=st.integers(1, 20),
    seed=st.integers(0, 2**32),
)
def test_one_shot_trade_iff_offer_fits(b_i, b_j, seed):
    config = fixed_pair_config(b_i, -b_j, seed=seed)
    report = run_simulation(config)
    if b_i <= b_j:
        assert report.trades_executed == 1 and report.total_volume == b_i
    else:
        assert report.trades_executed == 0 and report.total_volume == 0
