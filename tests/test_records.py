"""The library's eleven record types: how they are built, printed,
compared and validated. Records are immutable named tuples."""

import copy
import math
import pickle
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from liqgame import bayes, core, equilibria, lp, market, sim, solver

HALF = Fraction(1, 2)
SPEC = sim.StrategySpec("fixed_fraction", 0.5)

# Each record with field values in field order, its repr, and whether every
# field is hashable.
RECORDS = [
    (
        core.GameInstance,
        dict(balance_i=3, balance_j=-3, issue_cap=1000000),
        "GameInstance(balance_i=3, balance_j=-3, issue_cap=1000000)",
        True,
    ),
    (
        core.PayoffMatrix,
        dict(actions_i=(2, 1), actions_j=(1,), u_i=((1,), (1,)), u_j=((1,), (0,))),
        "PayoffMatrix(actions_i=(2, 1), actions_j=(1,), u_i=((1,), (1,)), u_j=((1,), (0,)))",
        True,
    ),
    (
        equilibria.PureEquilibrium,
        dict(row_index=0, col_index=1, payoffs=(2, 3)),
        "PureEquilibrium(row_index=0, col_index=1, payoffs=(2, 3))",
        True,
    ),
    (
        solver.MixedProfile,
        dict(probs_i=(HALF, HALF), probs_j=(Fraction(1),)),
        "MixedProfile(probs_i=(Fraction(1, 2), Fraction(1, 2)), probs_j=(Fraction(1, 1),))",
        True,
    ),
    (
        sim.StrategySpec,
        dict(kind="fixed_fraction", fraction=0.5),
        "StrategySpec(kind='fixed_fraction', fraction=0.5)",
        True,
    ),
    (
        sim.SimConfig,
        dict(
            trials=10,
            balance_range_i=(1, 5),
            balance_range_j=(-5, -1),
            strategy_i=SPEC,
            strategy_j=sim.StrategySpec("full_balance"),
            seed=7,
            mode="repeated",
            max_rounds=3,
        ),
        "SimConfig(trials=10, balance_range_i=(1, 5), balance_range_j=(-5, -1), "
        "strategy_i=StrategySpec(kind='fixed_fraction', fraction=0.5), "
        "strategy_j=StrategySpec(kind='full_balance', fraction=None), "
        "seed=7, mode='repeated', max_rounds=3)",
        True,
    ),
    (
        sim.TrialRecord,
        dict(balance_i=5, balance_j=-3, volume=3, rounds_played=1, trades=1, cleared=True),
        "TrialRecord(balance_i=5, balance_j=-3, volume=3, rounds_played=1, trades=1, cleared=True)",
        True,
    ),
    (
        sim.SimReport,
        dict(
            trials=3,
            trades_executed=2,
            opportunities=4,
            hit_ratio=0.5,
            total_volume=9,
            mean_volume_per_trial=3.0,
            rounds_to_clear_histogram={2: 1},
            uncleared_trials=2,
            seed=1,
            mode="repeated",
        ),
        "SimReport(trials=3, trades_executed=2, opportunities=4, hit_ratio=0.5, "
        "total_volume=9, mean_volume_per_trial=3.0, rounds_to_clear_histogram={2: 1}, "
        "uncleared_trials=2, seed=1, mode='repeated')",
        False,
    ),
    (
        bayes.ConditionalGame,
        dict(
            types=("a",),
            strategies_i=("x",),
            strategies_j=("y", "z"),
            matrices={"a": (((1.0, 2.0), (3.0, 4.0)),)},
            prior=(1.0,),
        ),
        "ConditionalGame(types=('a',), strategies_i=('x',), strategies_j=('y', 'z'), "
        "matrices={'a': (((1.0, 2.0), (3.0, 4.0)),)}, prior=(1.0,))",
        False,
    ),
    (
        market.QuadrantReport,
        dict(quadrants={("a", "b"): 1.5}, system_total=1.5, hit_ratio=0.5),
        "QuadrantReport(quadrants={('a', 'b'): 1.5}, system_total=1.5, hit_ratio=0.5)",
        False,
    ),
    (
        lp.TransferProblem,
        dict(capacity_receiver=13, capacity_sender=10),
        "TransferProblem(capacity_receiver=13, capacity_sender=10)",
        True,
    ),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


def test_every_record_is_listed():
    assert len(set(IDS)) == 11


@pytest.mark.parametrize("cls,fields,text,hashable", RECORDS, ids=IDS)
def test_built_by_keyword_and_by_position(cls, fields, text, hashable):
    by_keyword = cls(**fields)
    by_position = cls(*fields.values())
    for record in (by_keyword, by_position):
        assert type(record) is cls
        assert [getattr(record, name) for name in fields] == list(fields.values())
    assert by_keyword == by_position


@pytest.mark.parametrize("cls,fields,text,hashable", RECORDS, ids=IDS)
def test_repr(cls, fields, text, hashable):
    assert repr(cls(**fields)) == text


@pytest.mark.parametrize("cls,fields,text,hashable", RECORDS, ids=IDS)
def test_immutable(cls, fields, text, hashable):
    record = cls(**fields)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    assert not hasattr(record, "extra")
    assert [getattr(record, name) for name in fields] == list(fields.values())


@pytest.mark.parametrize("cls,fields,text,hashable", RECORDS, ids=IDS)
def test_hash_and_equality_by_value(cls, fields, text, hashable):
    a, b = cls(**fields), cls(**fields)
    assert a == b and not a != b
    if hashable:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    else:  # a mapping field
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("cls,fields,text,hashable", RECORDS, ids=IDS)
def test_records_are_tuples(cls, fields, text, hashable):
    record = cls(**fields)
    assert tuple(record) == tuple(fields.values())
    assert record == tuple(fields.values())
    assert record._fields == tuple(fields)
    assert record._asdict() == fields
    first = next(iter(fields))
    assert record._replace(**{first: fields[first]}) == record
    assert type(record._replace()) is cls


def test_defaults():
    assert sim.StrategySpec("uniform_random").fraction is None
    assert sim.SimConfig(5) == sim.SimConfig(
        trials=5,
        balance_range_i=(1, 1000),
        balance_range_j=(-1000, -1),
        strategy_i=sim.StrategySpec("uniform_random"),
        strategy_j=sim.StrategySpec("uniform_random"),
        seed=0,
        mode="one_shot",
        max_rounds=100,
    )


def pickled(record):
    return pickle.loads(pickle.dumps(record))


ROUND_TRIPS = [pickled, copy.copy, copy.deepcopy]
TRIP_IDS = ["pickle", "copy", "deepcopy"]


@pytest.mark.parametrize("trip", ROUND_TRIPS, ids=TRIP_IDS)
@pytest.mark.parametrize("cls,fields,text,hashable", RECORDS, ids=IDS)
def test_pickle_and_copy_give_an_equal_record_of_the_class(cls, fields, text, hashable, trip):
    record = cls(**fields)
    again = trip(record)
    assert type(again) is cls
    assert again == record


@pytest.mark.parametrize(
    "cls,short,full",
    [
        (sim.StrategySpec, ["uniform_random"], sim.StrategySpec("uniform_random", None)),
        (sim.SimConfig, [5], sim.SimConfig(5)),
        (sim.SimConfig, (5, [2, 9]), sim.SimConfig(5, (2, 9), (-1000, -1))),
    ],
    ids=["StrategySpec", "SimConfig", "SimConfig-list-range"],
)
def test_make_of_a_short_iterable_fills_the_trailing_defaults(cls, short, full):
    record = cls._make(short)
    assert type(record) is cls
    assert record == full  # a list range is no tuple, so it would compare unequal


def test_sim_config_turns_list_ranges_into_tuples():
    config = sim.SimConfig(trials=1, balance_range_i=[1, 5], balance_range_j=[-3, -2])
    assert config.balance_range_i == (1, 5)
    assert type(config.balance_range_i) is tuple
    assert type(config.balance_range_j) is tuple
    assert type(config) is sim.SimConfig


def one_cell(**fields):
    base = dict(actions_i=(1,), actions_j=(1,), u_i=((1,),), u_j=((1,),))
    return core.PayoffMatrix(**{**base, **fields})


def game(**fields):
    base = dict(
        types=("a",),
        strategies_i=("x",),
        strategies_j=("y",),
        matrices={"a": (((1.0, 1.0),),)},
        prior=(1.0,),
    )
    return bayes.ConditionalGame(**{**base, **fields})


# Valid records, one per checked record type, that the cases below spoil.
INSTANCE = core.GameInstance(3, -3, 10)
MATRIX = one_cell()
RANDOM = sim.StrategySpec("uniform_random")
CONFIG = sim.SimConfig(1)
GAME = game()
TRANSFER = lp.TransferProblem(1, 10)

# A valid record, the fields that spoil it, and the refusal they meet.
INVALID = [
    (INSTANCE, dict(balance_i=3.0), "balance_i must be an integer"),
    (INSTANCE, dict(balance_j="-3"), "balance_j must be an integer"),
    (INSTANCE, dict(issue_cap=True), "issue_cap must be an integer"),
    (INSTANCE, dict(issue_cap=0), "issue_cap must be positive, got 0"),
    (INSTANCE, dict(balance_i=-3, balance_j=3), "balance_i must be the long (positive) balance, got -3"),
    (MATRIX, dict(u_i=((1,), (1,))), "matrix for u_i has wrong dimensions"),
    (MATRIX, dict(u_j=()), "matrix for u_j has wrong dimensions"),
    (MATRIX, dict(u_j=((1, 2),)), "matrix for u_j has wrong dimensions"),
    (MATRIX, dict(actions_i=(), u_i=(), u_j=()), "matrix must be non-empty"),
    (MATRIX, dict(actions_j=(), u_i=((),), u_j=((),)), "matrix must be non-empty"),
    (RANDOM, dict(kind="nope"), "unknown strategy kind 'nope'"),
    (RANDOM, dict(kind="fixed_fraction"), "fixed_fraction needs a fraction in (0, 1]"),
    (SPEC, dict(fraction=0), "fixed_fraction needs a fraction in (0, 1]"),
    (SPEC, dict(fraction=1.5), "fixed_fraction needs a fraction in (0, 1]"),
    (SPEC, dict(fraction="0.5"), "fixed_fraction needs a fraction in (0, 1]"),
    (SPEC, dict(fraction=True), "fixed_fraction needs a fraction in (0, 1]"),
    (SPEC, dict(fraction=None), "fixed_fraction needs a fraction in (0, 1]"),
    (SPEC, dict(fraction=float("nan")), "fixed_fraction needs a fraction in (0, 1]"),
    (SPEC, dict(fraction=Decimal("NaN")), "fixed_fraction needs a fraction in (0, 1]"),
    (SPEC, dict(kind="full_balance"), "fraction is only valid for fixed_fraction, not full_balance"),
    (CONFIG, dict(trials=0), "trials must be >= 1"),
    (CONFIG, dict(trials="1"), "trials must be an integer"),
    (CONFIG, dict(trials="x", balance_range_i=5), "trials must be an integer"),
    (CONFIG, dict(seed=1.0), "seed must be an integer"),
    (CONFIG, dict(max_rounds=True), "max_rounds must be an integer"),
    (CONFIG, dict(balance_range_i=5), "balance_range_i must be a pair of integers"),
    (CONFIG, dict(balance_range_i=(1, 2, 3)), "balance_range_i must be a pair of integers"),
    (CONFIG, dict(balance_range_j=[-1.0, -2]), "balance_range_j must be a pair of integers"),
    (CONFIG, dict(balance_range_i=(5, 1)), "balance ranges must be nonempty (lo <= hi)"),
    (CONFIG, dict(balance_range_j=(-1, -5)), "balance ranges must be nonempty (lo <= hi)"),
    (CONFIG, dict(balance_range_i=(0, 1)), "balance_range_i must be strictly positive"),
    (CONFIG, dict(balance_range_j=(-5, 0)), "balance_range_j must be strictly negative"),
    (CONFIG, dict(seed=-1), "seed must be an unsigned 64-bit integer"),
    (CONFIG, dict(seed=2**64), "seed must be an unsigned 64-bit integer"),
    (CONFIG, dict(mode="x"), "mode must be one of ('one_shot', 'repeated')"),
    (CONFIG, dict(max_rounds=0), "max_rounds must be >= 1"),
    (GAME, dict(types="a"), "types must be a list of labels, got 'a'"),
    (GAME, dict(strategies_i="x"), "strategies_i must be a list of labels, got 'x'"),
    (GAME, dict(strategies_j="y"), "strategies_j must be a list of labels, got 'y'"),
    (GAME, dict(matrices={}), "missing matrix for type 'a'"),
    (GAME, dict(strategies_j=("y", "z")), "matrix for type 'a' has wrong dimensions"),
    (GAME, dict(prior=(0.5, 0.5)), "prior length must match number of types"),
    (GAME, dict(prior=(float("inf"),)), "prior must be finite, got inf"),
    (GAME, dict(prior=(Decimal(1),)), "prior must be a number, got Decimal('1')"),
    (GAME, dict(prior=(Fraction(1),)), "prior must be a number, got Fraction(1, 1)"),
    (GAME, dict(prior=(-0.5,)), "prior entries must be non-negative"),
    (GAME, dict(prior=(1.1,)), "prior must sum to 1, got 1.1"),
    (TRANSFER, dict(capacity_receiver=-1), "capacity_receiver must be >= 0"),
    (TRANSFER, dict(capacity_sender=-10), "capacity_sender must be >= 0"),
]
INVALID_IDS = [message for *_, message in INVALID]


def by_call(record, fields):
    return type(record)(**{**record._asdict(), **fields})


def by_make(record, fields):
    return type(record)._make({**record._asdict(), **fields}.values())


def by_replace(record, fields):
    return record._replace(**fields)


def by_copy_replace(record, fields):
    return copy.replace(record, **fields)


def assert_refused(build, record, fields, message):
    with pytest.raises(ValueError) as caught:
        build(record, fields)
    assert type(caught.value) is ValueError
    assert str(caught.value) == message


def pickled_at(protocol):
    return lambda record: pickle.loads(pickle.dumps(record, protocol))


PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)


# protocols 0 and 1 rebuild a tuple subclass through copyreg._reconstructor unless the class has a __reduce__
@pytest.mark.parametrize(
    "trip", [*ROUND_TRIPS, *map(pickled_at, PROTOCOLS)], ids=[*TRIP_IDS, *(f"pickle-{p}" for p in PROTOCOLS)]
)
@pytest.mark.parametrize("record", [INSTANCE, MATRIX, RANDOM, CONFIG, GAME, TRANSFER], ids=lambda r: type(r).__name__)
def test_pickle_and_copy_build_through_the_checks(record, trip, monkeypatch):
    seen = []
    monkeypatch.setattr(type(record), "_check", lambda self: seen.append(self) or self)
    assert trip(record) == record
    assert seen == [record]


@pytest.mark.parametrize("record,fields,message", INVALID, ids=INVALID_IDS)
def test_validation_error_class_and_message(record, fields, message):
    assert_refused(by_call, record, fields, message)


@pytest.mark.parametrize(
    "build",
    [
        by_make,
        by_replace,
        pytest.param(
            by_copy_replace,
            marks=pytest.mark.skipif(sys.version_info < (3, 13), reason="copy.replace is new in 3.13"),
        ),
    ],
)
@pytest.mark.parametrize("record,fields,message", INVALID, ids=INVALID_IDS)
def test_make_and_replace_run_the_same_checks(build, record, fields, message):
    assert_refused(build, record, fields, message)


@pytest.mark.parametrize("build", [by_call, by_make, by_replace])
@pytest.mark.parametrize(
    "fields,error,message",
    [
        (dict(balance_i=0), core.ZeroBalance, "balance_i must be nonzero"),
        (dict(balance_j=0), core.ZeroBalance, "balance_j must be nonzero"),
        (dict(balance_i=0, balance_j=0), core.ZeroBalance, "balance_i must be nonzero"),
        (dict(balance_j=3), core.SameSignBalances, "balances must have opposite signs, got 3 and 3"),
        (
            dict(balance_i=30, balance_j=20),
            core.SameSignBalances,
            "balances must have opposite signs, got 30 and 20",
        ),
        (dict(balance_i=11), core.CapExceeded, "|balance| exceeds issue_cap=10: 11, -3"),
        (dict(issue_cap=2), core.CapExceeded, "|balance| exceeds issue_cap=2: 3, -3"),
        (dict(balance_i=-30, balance_j=3), core.CapExceeded, "|balance| exceeds issue_cap=10: -30, 3"),
    ],
    ids=["zero-i", "zero-j", "zero-first", "same-sign", "same-sign-first", "cap-i", "cap", "cap-first"],
)
def test_instance_rules_raise_domain_errors(build, fields, error, message):
    # in order: zero, then same sign, then the cap, then I long
    with pytest.raises(error) as caught:
        build(INSTANCE, fields)
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_game_keeps_the_callers_ints():
    # the checks read the payoffs and the prior as floats, as a document's reader does, and keep none of them
    record = game(matrices={"a": (((1, 2),),)}, prior=(1,))
    assert record.matrices == {"a": (((1, 2),),)}
    assert [type(x) for x in (*record.matrices["a"][0][0], *record.prior)] == [int, int, int]


@pytest.mark.parametrize(
    "fraction",
    [0.5, 1, 1.0, 5e-324, Fraction(1, 3), Decimal("0.3"), pytest.param(Fraction(1, 10**4300), id="1/10**4300")],
)
def test_strategy_spec_admits_a_fraction_in_the_unit_interval(fraction):
    # read as the parcel rule reads it, by core.decimal_ratio: a Fraction at its value, any other as its decimal
    spec = sim.StrategySpec("fixed_fraction", fraction)
    assert spec.fraction is fraction  # kept as given
    exact = fraction if isinstance(fraction, Fraction) else Fraction(str(fraction))
    assert sim._deterministic_parcel(spec)(10**4400) == max(1, math.floor(exact * 10**4400 + Fraction(1, 2)))


def test_decimal_fraction_simulates_as_its_float():
    configs = [sim.SimConfig(500, strategy_i=sim.StrategySpec("fixed_fraction", x), seed=3, mode="repeated")
               for x in (Decimal("0.3"), 0.3)]
    assert sim.run_simulation(configs[0]) == sim.run_simulation(configs[1])


def test_game_checks_its_tables_before_its_prior():
    assert_refused(by_replace, GAME, dict(matrices={}, prior=()), "missing matrix for type 'a'")


@pytest.mark.parametrize(
    "fields",
    [dict(trials=0), dict(balance_range_i=[3, 1])],
    ids=["no_trials", "empty_range"],
)
def test_replace_cannot_hand_the_engine_a_bad_config(fields):
    # either config used to build, then fail in run_simulation: a division
    # by zero trials, or a draw below an empty range that never returned
    with pytest.raises(ValueError):
        sim.SimConfig(5, seed=1)._replace(**fields)


def test_replace_turns_list_ranges_into_tuples():
    config = sim.SimConfig(5, seed=1)._replace(balance_range_i=[2, 4], balance_range_j=[-3, -2])
    assert config == sim.SimConfig(5, (2, 4), (-3, -2), seed=1)
    assert type(config.balance_range_i) is tuple
    assert type(config.balance_range_j) is tuple
    assert type(config) is sim.SimConfig
