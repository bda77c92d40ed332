import hashlib
import itertools
import json
import math
import random
import re
import statistics
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liqgame import cli, sim
from liqgame.core import DimensionCapExceeded
from liqgame.sim import (
    BLOCK,
    HIGH_STRATEGY,
    LOW_STRATEGY,
    SimConfig,
    StrategySpec,
    _deterministic_parcel,
    analytic_hit_ratio,
    iter_trials,
    run_simulation,
)

from reference_sim import (
    convolution_hit_probability,
    fixed_offer_chain,
    random_pair_chain,
    reference_hit_probability,
    reference_parcel,
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
        # bool is an int, so True would pass as 1 had core.decimal_ratio read it
        # at its value; it writes no finite decimal
        with pytest.raises(ValueError, match=r"^fixed_fraction needs a fraction in \(0, 1\]$"):
            StrategySpec("fixed_fraction", True)
        with pytest.raises(ValueError, match="fixed_fraction needs"):
            StrategySpec.from_jsonable({"kind": "fixed_fraction", "fraction": True})

    def test_parcel_rounds_half_up_with_floor_one(self):
        assert _deterministic_parcel(StrategySpec("fixed_fraction", 0.5))(5) == 3
        assert _deterministic_parcel(StrategySpec("fixed_fraction", 0.3))(1) == 1
        assert _deterministic_parcel(StrategySpec("fixed_fraction", 0.1))(4) == 1
        assert _deterministic_parcel(FULL)(9) == 9

    @pytest.mark.parametrize("text", ["0.7", "0.35"])
    def test_parcel_rounds_exactly(self, text):
        # 0.7 * 45 is 31.499999999999996 in binary floating point.
        strategy = StrategySpec("fixed_fraction", float(text))
        balances = range(1, 10_001)
        exact = [max(1, math.floor(Fraction(text) * b + Fraction(1, 2))) for b in balances]
        assert list(map(_deterministic_parcel(strategy), balances)) == exact
        assert _deterministic_parcel(StrategySpec("fixed_fraction", 0.7))(45) == 32

    @pytest.mark.parametrize("strategy", [HIGH_STRATEGY, LOW_STRATEGY])
    def test_default_fractions_round_as_in_float(self, strategy):
        balances = range(1, 200_001)
        in_float = [max(1, math.floor(strategy.fraction * b + 0.5)) for b in balances]
        assert list(map(_deterministic_parcel(strategy), balances)) == in_float

    def test_huge_balance_parcels_exactly(self):
        seven_tenths = StrategySpec("fixed_fraction", 0.7)
        parcel = _deterministic_parcel(seven_tenths)
        assert parcel(10**30) == 7 * 10**29
        assert parcel(10**30 + 5) == 7 * 10**29 + 4  # 3.5 rounds up
        one_shot = fixed_pair_config(10**30 + 5, -(10**30 + 5), strategy_i=seven_tenths)
        assert run_simulation(one_shot).total_volume == 7 * 10**29 + 4
        # repeated: each round moves 0.7 of what is left, until it is gone
        held, rounds = 10**30, 0
        while held:
            held, rounds = held - parcel(held), rounds + 1
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


def records_and_rounds_played(monkeypatch, config):
    """The trial records of ``config``, and the rounds its blocks played
    together: each round calls each side's parcel rule once."""
    calls = []
    rule = sim._parcel_rule

    def counted_rule(strategy):
        parcels = rule(strategy)
        return lambda *args: calls.append(1) or parcels(*args)

    with monkeypatch.context() as patched:
        patched.setattr(sim, "_parcel_rule", counted_rule)
        records = [tuple(r) for r in iter_trials(config)]
    return records, len(calls) // 2


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
                offer = reference_parcel(strategy_i, held)
                moved = offer if offer <= reference_parcel(strategy_j, needed) else 0
                held, needed = held - moved, needed - moved
                volume, trades, rounds = volume + moved, trades + (moved > 0), rounds + 1
            cleared = held == 0 or needed == 0
            replayed.append((record.balance_i, record.balance_j, volume, rounds, trades, cleared))
            assert tuple(record) == replayed[-1]
        assert {fields[-1] for fields in replayed} == {True, False}
        # A budget far beyond the replay: idle trials settle at once with
        # rounds_played equal to the budget, so the block plays at most 30
        # rounds instead of the whole budget, which the work limit still
        # admits: 3 units x 200 trials x 5,000 rounds.
        budget = 5_000
        huge, played = records_and_rounds_played(monkeypatch, SimConfig(max_rounds=budget, **base))
        assert huge == [f if f[-1] else f[:3] + (budget,) + f[4:] for f in replayed]
        assert played <= 30

    @pytest.mark.parametrize("strategy_i", [FULL, HIGH_STRATEGY, LOW_STRATEGY])
    def test_fixed_offer_against_random_plays_until_each_trial_clears_or_settles(
        self, strategy_i, monkeypatch
    ):
        # J's capacity is drawn from 1..J's remaining need, which cannot change
        # while nothing moves, so a fixed offer above that need never trades
        # again: such a trial settles at once, uncleared, and the block plays
        # as many rounds at a budget of 5,000 as at one its trials never reach.
        base = dict(
            trials=200,
            balance_range_i=(1, 25),
            balance_range_j=(-25, -1),
            strategy_i=strategy_i,
            strategy_j=RANDOM,
            seed=8,
            mode="repeated",
        )
        budget, enough = 5_000, 400
        huge, played = records_and_rounds_played(monkeypatch, SimConfig(max_rounds=budget, **base))
        records, played_enough = records_and_rounds_played(
            monkeypatch, SimConfig(max_rounds=enough, **base)
        )
        assert played == played_enough < enough
        assert huge == [f if f[-1] else f[:3] + (budget,) + f[4:] for f in records]
        settled = 0
        for balance_i, balance_j, volume, rounds, trades, cleared in huge:
            held, needed = balance_i - volume, -balance_j - volume
            assert cleared == (held == 0 or needed == 0)
            if not cleared:  # settled, and stuck for good
                assert reference_parcel(strategy_i, held) > needed
                settled += 1
        assert settled

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


# the largest float as an integer: the largest balance a config admits
FLOAT_MAX = int(sys.float_info.max)


class TestWorkLimit:
    """Three units per trial and round, checked before the first block draws."""

    @pytest.fixture
    def no_draws(self, monkeypatch):
        def draw(*args):
            raise AssertionError("a block drew")

        monkeypatch.setattr(sim, "_draw_below", draw)

    @pytest.mark.parametrize(
        "trials,overrides",
        [
            (1_398_102, {}),
            (1, dict(mode="repeated", max_rounds=1_398_102)),
            (13_982, dict(mode="repeated")),  # at the default 100 rounds
        ],
        ids=["one-shot", "repeated-rounds", "repeated-trials"],
    )
    @pytest.mark.parametrize("play", [run_simulation, lambda config: next(iter_trials(config))])
    def test_refused_before_a_block_draws(self, no_draws, play, trials, overrides):
        config = SimConfig(trials=trials, seed=1, **overrides)
        rounds = config.max_rounds if config.mode == "repeated" else 1
        with pytest.raises(DimensionCapExceeded) as caught:
            play(config)
        assert str(caught.value) == (
            f"simulate of {trials} trials with a {rounds}-round budget exceeds the work limit of 4194304"
        )

    @pytest.mark.parametrize(
        "trials,overrides",
        [(1_398_101, {}), (1, dict(mode="repeated", max_rounds=1_398_101)), (13_981, dict(mode="repeated"))],
        ids=["one-shot", "repeated-rounds", "repeated-trials"],
    )
    def test_one_step_smaller_gets_past_the_work_limit(self, no_draws, trials, overrides):
        with pytest.raises(AssertionError, match="^a block drew$"):
            run_simulation(SimConfig(trials=trials, seed=1, **overrides))

    @pytest.mark.parametrize(
        "ranges",
        [((1, FLOAT_MAX + 1), (-5, -1)), ((1, 5), (-FLOAT_MAX - 1, -1)), ((1, 10**400), (-(10**400), -1))],
        ids=["i", "j", "both-1e400"],
    )
    def test_balances_past_the_largest_float_refused(self, ranges):
        # the mean volume per trial is a float: 10**400 on both sides used to
        # overflow it after every trial had run
        with pytest.raises(ValueError, match="^balances must be at most the largest float in absolute value$"):
            SimConfig(trials=10, balance_range_i=ranges[0], balance_range_j=ranges[1])

    def test_balances_at_the_largest_float_admitted(self):
        config = fixed_pair_config(FLOAT_MAX, -FLOAT_MAX, strategy_i=RANDOM, strategy_j=RANDOM, trials=10)
        report = run_simulation(config)
        assert report.mean_volume_per_trial == report.total_volume / 10 <= sys.float_info.max


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
                if reference_parcel(strategy, b_i) <= reference_parcel(strategy, b_j):
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

    @pytest.mark.parametrize("strategy_i", ORACLE_STRATEGIES)
    @pytest.mark.parametrize("strategy_j", ORACLE_STRATEGIES)
    def test_balances_far_from_zero(self, strategy_i, strategy_j):
        # ten balances a side, near 10**12 on one side or both: x walks only
        # the values the two sides take, so no list spans the gap between them
        def parcels(strategy, balance):  # the uniform law's bounds, or one parcel
            if strategy == RANDOM:
                return 1, balance
            return (reference_parcel(strategy, balance),) * 2

        for lo_i, lo_j in [(10**12, 10**12), (10**12, 1), (1, 10**12)]:
            total = Fraction(0)
            for b_i, b_j in itertools.product(range(lo_i, lo_i + 10), range(lo_j, lo_j + 10)):
                offers, capacities = parcels(strategy_i, b_i), parcels(strategy_j, b_j)
                total += Fraction(
                    pairs_at_most(*offers, *capacities),
                    (offers[1] - offers[0] + 1) * (capacities[1] - capacities[0] + 1),
                )
            range_i, range_j = (lo_i, lo_i + 9), (-lo_j - 9, -lo_j)
            got = analytic_hit_ratio(range_i, range_j, strategy_i, strategy_j)
            assert got == float(total / 100), (range_i, range_j)

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
        "lo, widths, bits",
        [(1, (123_362, 123_361), 17), (10**300, (2_103, 2_103), 997), (1, (1, 233_015), 18)],
        ids=["near-1", "near-1e300", "one-wide-side"],
    )
    def test_first_refused_size_raises_before_anything_is_built(self, monkeypatch, lo, widths, bits):
        # (width_i + width_j) x the bits of the largest balance, one unit each:
        # one more value on I's side is the first size refused
        def built(strategy):
            raise AssertionError("a table was built")

        monkeypatch.setattr(sim, "_deterministic_parcel", built)

        def call(width_i, width_j):
            analytic_hit_ratio((lo, lo + width_i - 1), (-(lo + width_j - 1), -lo), FULL, RANDOM)

        with pytest.raises(AssertionError, match="^a table was built$"):
            call(*widths)
        with pytest.raises(DimensionCapExceeded) as caught:
            call(widths[0] + 1, widths[1])
        assert str(caught.value) == (
            f"analytic_hit_ratio of widths {widths[0] + 1} and {widths[1]} on {bits}-bit balances"
            " exceeds the work limit of 4194304"
        )

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
    """SHA-256 of the report bytes for four seeded configs, each over more
    than one block. A change to the stream, the sampler or the play order
    changes these; Python versions must not. The both-fixed digest predates
    the settle rule for a fixed offer against a random capacity, and the
    fixed-against-random one was recorded with it: a trial stuck above J's
    remaining need no longer draws, so the later draws of its block shift."""

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
            (
                SimConfig(
                    trials=BLOCK + 70,
                    balance_range_i=(1, 400),
                    balance_range_j=(-500, -100),
                    strategy_i=HIGH_STRATEGY,
                    strategy_j=LOW_STRATEGY,
                    seed=77,
                    mode="repeated",
                    max_rounds=60,
                ),
                "4c972523ca889bd2c05e721401cf3816c7bd4a7a1edc20235a27d87477f4b6e1",
            ),
            (
                SimConfig(
                    trials=2 * BLOCK + 30,
                    balance_range_i=(1, 300),
                    balance_range_j=(-300, -1),
                    strategy_i=StrategySpec("fixed_fraction", 0.5),
                    strategy_j=RANDOM,
                    seed=4242,
                    mode="repeated",
                    max_rounds=50,
                ),
                "ddeffe42f9b86d29d3096402750dc1b32c888ad55f0265c1d4714e608afaa2de",
            ),
        ],
        ids=["one_shot", "repeated", "repeated-both-fixed", "repeated-fixed-against-random"],
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


def walked_trades_and_volume(range_i, range_j, max_rounds, strategy_i=RANDOM):
    """E[trades] and E[volume] of ``strategy_i`` against uniform_random, walking every balance
    pair, offer and capacity of every round in Fractions."""
    width = (range_i[1] - range_i[0] + 1) * (range_j[1] - range_j[0] + 1)
    states = Counter({(b_i, -b_j): Fraction(1, width) for b_i in range(range_i[0], range_i[1] + 1)
                      for b_j in range(range_j[0], range_j[1] + 1)})
    trades = volume = Fraction(0)
    for _ in range(max_rounds):
        following = Counter()
        for (b_i, b_j), mass in states.items():
            offers = range(1, b_i + 1) if strategy_i == RANDOM else [reference_parcel(strategy_i, b_i)]
            p = mass / (len(offers) * b_j)
            for offer, capacity in itertools.product(offers, range(1, b_j + 1)):
                moved = offer if offer <= capacity else 0
                trades, volume = trades + p * (moved > 0), volume + p * moved
                if moved < min(b_i, b_j):  # neither side cleared
                    following[b_i - moved, b_j - moved] += p
        states = following
    return trades, volume


# ranges up to 6 wide and round budgets on which each repeated law must equal the state walks
WALKED = [((1, 6), (-6, -1), 10), ((2, 5), (-4, -1), 7), ((3, 3), (-6, -2), 5), ((4, 6), (-2, -1), 6),
          ((1, 1), (-1, -1), 3), ((1, 6), (-3, -3), 1)]


class TestRandomPairChain:
    """``reference_sim.random_pair_chain``, the repeated law of two uniform_random players, against
    the state walks on small ranges, then the engine against it on the benchmark's repeated request."""

    @pytest.mark.parametrize("range_i, range_j, max_rounds", WALKED)
    def test_equals_the_state_walks_exactly(self, range_i, range_j, max_rounds):
        clears, uncleared, trades, volume = random_pair_chain(range_i, range_j, max_rounds, Fraction(1))
        walked, left = repeated_play_distribution(range_i, range_j, RANDOM, RANDOM, max_rounds)
        assert clears == [walked.get(k, 0) for k in range(1, max_rounds + 1)]
        assert all(type(p) is Fraction for p in (*clears, uncleared, trades, volume))
        assert uncleared == left
        assert (trades, volume) == walked_trades_and_volume(range_i, range_j, max_rounds)

    @pytest.mark.parametrize("trials, max_rounds, seed", [(4000, 100, 11), (10_000, 3, 12)])
    def test_engine_within_five_sigma(self, trials, max_rounds, seed):
        # simulate_mc's repeated request, 1..1000 on each side for 100 rounds, and a 3-round budget, which
        # a round more or less moves by many sigma; sigma of trades and volume from the trials' own spread
        clears, uncleared, trades, volume = random_pair_chain((1, 1000), (-1000, -1), max_rounds)
        if max_rounds == 100:  # the figures an earlier per-d loop found, to the digits it gave
            assert abs(trades - 6.6429) < 5e-5 and abs(volume - 327.79) < 5e-3 and abs(uncleared - 0.43301) < 5e-6
        config = SimConfig(trials, seed=seed, mode="repeated", max_rounds=max_rounds)
        report, records = run_simulation(config), list(iter_trials(config))
        spread = [statistics.pstdev(r.trades for r in records), statistics.pstdev(r.volume for r in records)]
        for got, law, sd in zip((report.trades_executed / trials, report.mean_volume_per_trial), (trades, volume),
                                spread):
            assert abs(got - law) <= 5 * sd / math.sqrt(trials), (got, law)
        sigma = math.sqrt(uncleared * (1 - uncleared) / trials)
        assert abs(report.uncleared_trials / trials - uncleared) <= 5 * sigma
        # the clearing round of the trials that clear, its law's mean and spread
        cleared = trials - report.uncleared_trials
        mean = sum(k * p for k, p in enumerate(clears, 1)) / (1 - uncleared)
        sd = math.sqrt(sum(k * k * p for k, p in enumerate(clears, 1)) / (1 - uncleared) - mean**2)
        got = sum(k * n for k, n in report.rounds_to_clear_histogram.items()) / cleared
        assert abs(got - mean) <= 5 * sd / math.sqrt(cleared), (got, mean)


class TestFixedOfferChain:
    """``reference_sim.fixed_offer_chain``, the repeated law of a fixed parcel rule against uniform_random,
    which covers the rule that settles a trial whose offer exceeds J's need: against the state walks on
    small ranges and ``analytic_hit_ratio`` in round 1, then the engine against it at 5 sigma."""

    @pytest.mark.parametrize("strategy", [HIGH_STRATEGY, LOW_STRATEGY, FULL, StrategySpec("fixed_fraction", 0.5)],
                             ids=["high", "low", "full", "half"])
    @pytest.mark.parametrize("range_i, range_j, max_rounds", WALKED)
    def test_equals_the_state_walks_exactly(self, range_i, range_j, max_rounds, strategy):
        clears, uncleared, trades, volume = fixed_offer_chain(range_i, range_j, strategy, max_rounds, Fraction(1))
        walked, left = repeated_play_distribution(range_i, range_j, strategy, RANDOM, max_rounds)
        assert clears == [walked.get(k, 0) for k in range(1, max_rounds + 1)]
        assert all(type(p) is Fraction for p in (*clears, uncleared, trades, volume))
        assert uncleared == left
        assert (trades, volume) == walked_trades_and_volume(range_i, range_j, max_rounds, strategy)

    @pytest.mark.parametrize("strategy", [HIGH_STRATEGY, LOW_STRATEGY, FULL], ids=["high", "low", "full"])
    def test_first_round_is_the_one_shot_hit_ratio(self, strategy):
        # one round trades at most once, so E[trades] is round 1's trade probability
        _, _, trades, _ = fixed_offer_chain((1, 40), (-40, -1), strategy, 1, Fraction(1))
        assert trades == convolution_hit_probability((1, 40), (-40, -1), strategy, RANDOM)
        assert float(trades) == analytic_hit_ratio((1, 40), (-40, -1), strategy, RANDOM)

    @pytest.mark.parametrize("strategy", [HIGH_STRATEGY, LOW_STRATEGY, FULL], ids=["high", "low", "full"])
    @pytest.mark.parametrize("top", [100, 10])
    def test_engine_within_five_sigma(self, strategy, top):
        # 1..top on each side for 100 rounds; at top = 10 an offer equal to J's whole need is common, and it
        # may still trade, so a settling rule one short shows; sigma of trades and volume from the trials
        trials, max_rounds = 10_000, 100
        clears, uncleared, trades, volume = fixed_offer_chain((1, top), (-top, -1), strategy, max_rounds)
        config = SimConfig(trials, (1, top), (-top, -1), strategy_i=strategy, seed=top, mode="repeated")
        report, records = run_simulation(config), list(iter_trials(config))
        spread = [statistics.pstdev(r.trades for r in records), statistics.pstdev(r.volume for r in records)]
        for got, law, sd in zip((report.trades_executed / trials, report.mean_volume_per_trial), (trades, volume),
                                spread):
            assert abs(got - law) <= 5 * sd / math.sqrt(trials), (got, law)
        sigma = math.sqrt(uncleared * (1 - uncleared) / trials)
        assert abs(report.uncleared_trials / trials - uncleared) <= 5 * sigma
        # a trial's opportunities are its clearing round, or the whole budget
        law = [*zip(range(1, max_rounds + 1), clears), (max_rounds, uncleared)]
        mean = sum(k * p for k, p in law)
        sd = math.sqrt(sum(k * k * p for k, p in law) - mean**2)
        assert abs(report.opportunities / trials - mean) <= 5 * sd / math.sqrt(trials), (report.opportunities, mean)


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
