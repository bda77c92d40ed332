"""The library's fourteen record types: how they are built, printed,
compared and validated. Records are immutable named tuples."""

from fractions import Fraction

import pytest

from liqgame import bayes, core, lp, market, sim, solver

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
        solver.PureEquilibrium,
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
        bayes.TypeSpace,
        dict(types=("large", "small"), prior=(0.25, 0.75)),
        "TypeSpace(types=('large', 'small'), prior=(0.25, 0.75))",
        True,
    ),
    (
        bayes.ConditionalGame,
        dict(
            types=("a",),
            strategies_i=("x",),
            strategies_j=("y", "z"),
            matrices={"a": (((1.0, 2.0), (3.0, 4.0)),)},
        ),
        "ConditionalGame(types=('a',), strategies_i=('x',), strategies_j=('y', 'z'), "
        "matrices={'a': (((1.0, 2.0), (3.0, 4.0)),)})",
        False,
    ),
    (
        bayes.BayesianSolution,
        dict(
            per_type_strategy_j={"a": "y"},
            threshold_p=0.5,
            strategy_i_above="x",
            strategy_i_below="w",
            interior=True,
        ),
        "BayesianSolution(per_type_strategy_j={'a': 'y'}, threshold_p=0.5, "
        "strategy_i_above='x', strategy_i_below='w', interior=True)",
        False,
    ),
    (
        market.CompositionMatrix,
        dict(row_labels=(("large", "x"),), col_labels=((None, "y"),), entries=(((1.0, 2.0),),)),
        "CompositionMatrix(row_labels=(('large', 'x'),), col_labels=((None, 'y'),), "
        "entries=(((1.0, 2.0),),))",
        True,
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
    assert len(set(IDS)) == 14


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
    base = dict(types=("a",), strategies_i=("x",), strategies_j=("y",), matrices={"a": (((1.0, 1.0),),)})
    return bayes.ConditionalGame(**{**base, **fields})


INVALID = [
    (lambda: one_cell(u_i=((1,), (1,))), "row count does not match actions_i"),
    (lambda: one_cell(u_j=()), "row count does not match actions_i"),
    (lambda: one_cell(u_j=((1, 2),)), "column count does not match actions_j"),
    (lambda: sim.StrategySpec("nope"), "unknown strategy kind 'nope'"),
    (lambda: sim.StrategySpec("fixed_fraction"), "fixed_fraction needs a fraction in (0, 1]"),
    (lambda: sim.StrategySpec("fixed_fraction", 0), "fixed_fraction needs a fraction in (0, 1]"),
    (lambda: sim.StrategySpec("fixed_fraction", 1.5), "fixed_fraction needs a fraction in (0, 1]"),
    (lambda: sim.StrategySpec("fixed_fraction", "0.5"), "fixed_fraction needs a fraction in (0, 1]"),
    (lambda: sim.StrategySpec("fixed_fraction", True), "fixed_fraction needs a fraction in (0, 1]"),
    (
        lambda: sim.StrategySpec("full_balance", 0.5),
        "fraction is only valid for fixed_fraction, not full_balance",
    ),
    (lambda: sim.SimConfig(0), "trials must be >= 1"),
    (lambda: sim.SimConfig("1"), "trials must be an integer"),
    (lambda: sim.SimConfig("x", balance_range_i=5), "trials must be an integer"),
    (lambda: sim.SimConfig(1, seed=1.0), "seed must be an integer"),
    (lambda: sim.SimConfig(1, max_rounds=True), "max_rounds must be an integer"),
    (lambda: sim.SimConfig(1, balance_range_i=5), "balance_range_i must be a pair of integers"),
    (lambda: sim.SimConfig(1, balance_range_i=(1, 2, 3)), "balance_range_i must be a pair of integers"),
    (lambda: sim.SimConfig(1, balance_range_j=[-1.0, -2]), "balance_range_j must be a pair of integers"),
    (lambda: sim.SimConfig(1, balance_range_i=(5, 1)), "balance ranges must be nonempty (lo <= hi)"),
    (lambda: sim.SimConfig(1, balance_range_j=(-1, -5)), "balance ranges must be nonempty (lo <= hi)"),
    (lambda: sim.SimConfig(1, balance_range_i=(0, 1)), "balance_range_i must be strictly positive"),
    (lambda: sim.SimConfig(1, balance_range_j=(-5, 0)), "balance_range_j must be strictly negative"),
    (lambda: sim.SimConfig(1, seed=-1), "seed must be an unsigned 64-bit integer"),
    (lambda: sim.SimConfig(1, seed=2**64), "seed must be an unsigned 64-bit integer"),
    (lambda: sim.SimConfig(1, mode="x"), "mode must be one of ('one_shot', 'repeated')"),
    (lambda: sim.SimConfig(1, max_rounds=0), "max_rounds must be >= 1"),
    (lambda: bayes.TypeSpace(("a",), (0.5, 0.5)), "prior length must match number of types"),
    (lambda: bayes.TypeSpace(("a", "b"), (float("inf"), 0.5)), "prior entries must be finite"),
    (lambda: bayes.TypeSpace(("a", "b"), (-0.5, 1.5)), "prior entries must be non-negative"),
    (lambda: bayes.TypeSpace(("a", "b"), (0.5, 0.6)), "prior must sum to 1, got 1.1"),
    (lambda: game(matrices={}), "missing matrix for type 'a'"),
    (lambda: game(strategies_j=("y", "z")), "matrix for type 'a' has wrong dimensions"),
    (
        lambda: market.CompositionMatrix((("a", "x"),), (), ()),
        "row count does not match row_labels",
    ),
    (
        lambda: market.CompositionMatrix((("a", "x"),), (), (((1.0, 1.0),),)),
        "column count does not match col_labels",
    ),
    (lambda: lp.TransferProblem(-1, 10), "capacity_receiver must be >= 0"),
    (lambda: lp.TransferProblem(1, -10), "capacity_sender must be >= 0"),
]


@pytest.mark.parametrize("build,message", INVALID, ids=[m for _, m in INVALID])
def test_validation_error_class_and_message(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert type(caught.value) is ValueError
    assert str(caught.value) == message
