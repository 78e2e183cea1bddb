"""The naive chase's trigger order, pinned.

``chase(..., naive=True)`` is the reference the indexed chase is
checked against (the ``engine_parity`` fuzz oracle), and the
depth-bounded chase behind Section 5's answers draws its prefix from
the same naive enumeration.  The cross-validation tests compare the
two engines only up to homomorphic equivalence, so a change that
reorders the naive enumeration would pass them while changing both.
This test pins, on small paper sets, every step of each naive run
(the constraint and its assignment, in the paper's arrow notation),
its status and its final ``encode_facts`` text, and the depth-bounded
chase's prefix at depth 3.
"""

from repro.chase import (chase, oblivious_chase, OrderedStrategy,
                         RandomStrategy, RoundRobinStrategy)
from repro.kb.answering import depth_bounded_chase
from repro.lang.parser import parse_constraints, parse_instance
from repro.lang.terms import NULLS, NullFactory
from repro.service.serialize import encode_facts
from repro.termination.stratification import (is_stratified,
                                              stratified_strategy)
from repro.workloads.paper import (example4, example4_instance, figure2,
                                   intro_alpha2, intro_beta_set,
                                   intro_instance)

SETS = {
    "example4": (example4(), example4_instance()),
    "intro_alpha2": (intro_alpha2(), intro_instance()),
    "intro_beta": (intro_beta_set(), intro_instance()),
    "figure2": (figure2(), intro_instance()),
    "egd": (parse_constraints("a: S(x) -> E(x, y); b: E(x, y) -> T(x, y); "
                              "e: T(x, y), T(x, z) -> y = z"),
            parse_instance("S(a). S(b). T(a, c)")),
}
MAX_STEPS = 8


def _run(result):
    return (result.status.value,
            [step.describe() for step in result.sequence],
            encode_facts(result.instance.facts()))


def _record(monkeypatch):
    runs = {}
    for name, (sigma, instance) in SETS.items():
        strategies = {"ordered": OrderedStrategy,
                      "round_robin": RoundRobinStrategy,
                      "random3": lambda: RandomStrategy(seed=3)}
        if is_stratified(sigma):
            strategies["strata"] = lambda: stratified_strategy(sigma)
        for key, factory in strategies.items():
            runs[(name, key)] = _run(chase(
                instance, sigma, strategy=factory(), max_steps=MAX_STEPS,
                naive=True, nulls=NullFactory()))
        runs[(name, "oblivious")] = _run(oblivious_chase(
            instance, sigma, max_steps=MAX_STEPS, naive=True,
            nulls=NullFactory()))
        # The depth-bounded chase draws nulls from the shared factory;
        # restart its labels (monkeypatch restores them afterwards).
        monkeypatch.setattr(NULLS, "_next", 1)
        bounded = depth_bounded_chase(instance, sigma, 3, max_steps=30)
        runs[(name, "depth3")] = (
            bounded.truncated, bounded.steps,
            encode_facts(bounded.instance.facts()),
            sorted((null.label, depth)
                   for null, depth in bounded.null_depths.items()))
    return runs


def test_naive_runs_keep_their_trigger_order(monkeypatch):
    assert _record(monkeypatch) == EXPECTED


# Each run: status, steps, final facts.  Each depth-3 prefix: truncated,
# steps, final facts, (null label, depth) pairs.  A change here changes
# the reference order, so it is made on purpose or not at all.
EXPECTED = {
    ('egd', 'depth3'): (
        False, 5,
        '[["E", [["c", "a"], ["c", "c"]]], ["E", [["c", "b"], ["n", '
        '2]]], ["S", [["c", "a"]]], ["S", [["c", "b"]]], ["T", '
        '[["c", "a"], ["c", "c"]]], ["T", [["c", "b"], ["n", 2]]]]',
        [(1, 1), (2, 1)]),
    ('egd', 'oblivious'): (
        'terminated',
        ['--(*,a, x=a)-->',
         '--(*,a, x=b)-->',
         '--(*,b, x=a, y=?n1)-->',
         '--(*,b, x=b, y=?n2)-->',
         '--(*,e, x=a, y=c, z=?n1)-->',
         '--(*,b, x=a, y=c)-->'],
        '[["E", [["c", "a"], ["c", "c"]]], ["E", [["c", "b"], ["n", '
        '2]]], ["S", [["c", "a"]]], ["S", [["c", "b"]]], ["T", '
        '[["c", "a"], ["c", "c"]]], ["T", [["c", "b"], ["n", 2]]]]'),
    ('egd', 'ordered'): (
        'terminated',
        ['--(a, x=a)-->',
         '--(a, x=b)-->',
         '--(b, x=a, y=?n1)-->',
         '--(b, x=b, y=?n2)-->',
         '--(e, x=a, y=c, z=?n1)-->'],
        '[["E", [["c", "a"], ["c", "c"]]], ["E", [["c", "b"], ["n", '
        '2]]], ["S", [["c", "a"]]], ["S", [["c", "b"]]], ["T", '
        '[["c", "a"], ["c", "c"]]], ["T", [["c", "b"], ["n", 2]]]]'),
    ('egd', 'random3'): (
        'terminated',
        ['--(a, x=a)-->',
         '--(a, x=b)-->',
         '--(b, x=b, y=?n2)-->',
         '--(b, x=a, y=?n1)-->',
         '--(e, x=a, y=c, z=?n1)-->'],
        '[["E", [["c", "a"], ["c", "c"]]], ["E", [["c", "b"], ["n", '
        '2]]], ["S", [["c", "a"]]], ["S", [["c", "b"]]], ["T", '
        '[["c", "a"], ["c", "c"]]], ["T", [["c", "b"], ["n", 2]]]]'),
    ('egd', 'round_robin'): (
        'terminated',
        ['--(a, x=a)-->',
         '--(b, x=a, y=?n1)-->',
         '--(e, x=a, y=c, z=?n1)-->',
         '--(a, x=b)-->',
         '--(b, x=b, y=?n2)-->'],
        '[["E", [["c", "a"], ["c", "c"]]], ["E", [["c", "b"], ["n", '
        '2]]], ["S", [["c", "a"]]], ["S", [["c", "b"]]], ["T", '
        '[["c", "a"], ["c", "c"]]], ["T", [["c", "b"], ["n", 2]]]]'),
    ('egd', 'strata'): (
        'terminated',
        ['--(a, x=a)-->',
         '--(a, x=b)-->',
         '--(b, x=a, y=?n1)-->',
         '--(b, x=b, y=?n2)-->',
         '--(e, x=a, y=c, z=?n1)-->'],
        '[["E", [["c", "a"], ["c", "c"]]], ["E", [["c", "b"], ["n", '
        '2]]], ["S", [["c", "a"]]], ["S", [["c", "b"]]], ["T", '
        '[["c", "a"], ["c", "c"]]], ["T", [["c", "b"], ["n", 2]]]]'),
    ('example4', 'depth3'): (
        True, 14,
        '[["R", [["c", "a"]]], ["R", [["n", 1]]], ["R", [["n", 2]]], '
        '["R", [["n", 3]]], ["S", [["c", "a"], ["c", "a"]]], ["S", '
        '[["n", 1], ["n", 1]]], ["S", [["n", 2], ["n", 2]]], ["S", '
        '[["n", 3], ["n", 3]]], ["T", [["c", "a"], ["c", "a"]]], '
        '["T", [["c", "a"], ["n", 1]]], ["T", [["n", 1], ["n", 1]]], '
        '["T", [["n", 1], ["n", 2]]], ["T", [["n", 2], ["n", 2]]], '
        '["T", [["n", 2], ["n", 3]]], ["T", [["n", 3], ["n", 3]]]]',
        [(1, 1), (2, 2), (3, 3)]),
    ('example4', 'oblivious'): (
        'exceeded_budget',
        ['--(*,a1, x1=a)-->',
         '--(*,a2, x1=a, x2=a)-->',
         '--(*,a3, x1=a, x2=a)-->',
         '--(*,a4, x1=a, x2=?n1, x3=a)-->',
         '--(*,a1, x1=?n1)-->',
         '--(*,a2, x1=?n1, x2=?n1)-->',
         '--(*,a3, x1=?n1, x2=?n1)-->',
         '--(*,a4, x1=a, x2=a, x3=a)-->'],
        '[["R", [["c", "a"]]], ["R", [["n", 1]]], ["S", [["c", "a"], '
        '["c", "a"]]], ["S", [["n", 1], ["n", 1]]], ["T", [["c", '
        '"a"], ["c", "a"]]], ["T", [["c", "a"], ["n", 1]]], ["T", '
        '[["n", 1], ["n", 1]]], ["T", [["n", 1], ["n", 2]]]]'),
    ('example4', 'ordered'): (
        'exceeded_budget',
        ['--(a1, x1=a)-->',
         '--(a2, x1=a, x2=a)-->',
         '--(a3, x1=a, x2=a)-->',
         '--(a4, x1=a, x2=?n1, x3=a)-->',
         '--(a1, x1=?n1)-->',
         '--(a2, x1=?n1, x2=?n1)-->',
         '--(a3, x1=?n1, x2=?n1)-->',
         '--(a4, x1=?n1, x2=?n2, x3=?n1)-->'],
        '[["R", [["c", "a"]]], ["R", [["n", 1]]], ["R", [["n", 2]]], '
        '["S", [["c", "a"], ["c", "a"]]], ["S", [["n", 1], ["n", '
        '1]]], ["T", [["c", "a"], ["c", "a"]]], ["T", [["c", "a"], '
        '["n", 1]]], ["T", [["n", 1], ["n", 1]]], ["T", [["n", 1], '
        '["n", 2]]]]'),
    ('example4', 'random3'): (
        'exceeded_budget',
        ['--(a1, x1=a)-->',
         '--(a2, x1=a, x2=a)-->',
         '--(a3, x1=a, x2=a)-->',
         '--(a4, x1=a, x2=?n1, x3=a)-->',
         '--(a1, x1=?n1)-->',
         '--(a2, x1=?n1, x2=?n1)-->',
         '--(a3, x1=?n1, x2=?n1)-->',
         '--(a4, x1=?n1, x2=?n2, x3=?n1)-->'],
        '[["R", [["c", "a"]]], ["R", [["n", 1]]], ["R", [["n", 2]]], '
        '["S", [["c", "a"], ["c", "a"]]], ["S", [["n", 1], ["n", '
        '1]]], ["T", [["c", "a"], ["c", "a"]]], ["T", [["c", "a"], '
        '["n", 1]]], ["T", [["n", 1], ["n", 1]]], ["T", [["n", 1], '
        '["n", 2]]]]'),
    ('example4', 'round_robin'): (
        'exceeded_budget',
        ['--(a1, x1=a)-->',
         '--(a2, x1=a, x2=a)-->',
         '--(a3, x1=a, x2=a)-->',
         '--(a4, x1=a, x2=?n1, x3=a)-->',
         '--(a1, x1=?n1)-->',
         '--(a2, x1=?n1, x2=?n1)-->',
         '--(a3, x1=?n1, x2=?n1)-->',
         '--(a4, x1=?n1, x2=?n2, x3=?n1)-->'],
        '[["R", [["c", "a"]]], ["R", [["n", 1]]], ["R", [["n", 2]]], '
        '["S", [["c", "a"], ["c", "a"]]], ["S", [["n", 1], ["n", '
        '1]]], ["T", [["c", "a"], ["c", "a"]]], ["T", [["c", "a"], '
        '["n", 1]]], ["T", [["n", 1], ["n", 1]]], ["T", [["n", 1], '
        '["n", 2]]]]'),
    ('example4', 'strata'): (
        'terminated',
        ['--(a1, x1=a)-->',
         '--(a3, x1=a, x2=a)-->'],
        '[["R", [["c", "a"]]], ["S", [["c", "a"], ["c", "a"]]], '
        '["T", [["c", "a"], ["c", "a"]]]]'),
    ('figure2', 'depth3'): (
        False, 2,
        '[["E", [["c", "n1"], ["c", "n2"]]], ["E", [["n", 1], ["c", '
        '"n1"]]], ["E", [["n", 2], ["n", 1]]], ["S", [["c", "n1"]]], '
        '["S", [["c", "n2"]]]]',
        [(1, 1), (2, 2)]),
    ('figure2', 'oblivious'): (
        'terminated',
        ['--(*,alpha, x1=n1, x2=n2)-->',
         '--(*,alpha, x1=?n1, x2=n1)-->'],
        '[["E", [["c", "n1"], ["c", "n2"]]], ["E", [["n", 1], ["c", '
        '"n1"]]], ["E", [["n", 2], ["n", 1]]], ["S", [["c", "n1"]]], '
        '["S", [["c", "n2"]]]]'),
    ('figure2', 'ordered'): (
        'terminated',
        ['--(alpha, x1=n1, x2=n2)-->',
         '--(alpha, x1=?n1, x2=n1)-->'],
        '[["E", [["c", "n1"], ["c", "n2"]]], ["E", [["n", 1], ["c", '
        '"n1"]]], ["E", [["n", 2], ["n", 1]]], ["S", [["c", "n1"]]], '
        '["S", [["c", "n2"]]]]'),
    ('figure2', 'random3'): (
        'terminated',
        ['--(alpha, x1=n1, x2=n2)-->',
         '--(alpha, x1=?n1, x2=n1)-->'],
        '[["E", [["c", "n1"], ["c", "n2"]]], ["E", [["n", 1], ["c", '
        '"n1"]]], ["E", [["n", 2], ["n", 1]]], ["S", [["c", "n1"]]], '
        '["S", [["c", "n2"]]]]'),
    ('figure2', 'round_robin'): (
        'terminated',
        ['--(alpha, x1=n1, x2=n2)-->',
         '--(alpha, x1=?n1, x2=n1)-->'],
        '[["E", [["c", "n1"], ["c", "n2"]]], ["E", [["n", 1], ["c", '
        '"n1"]]], ["E", [["n", 2], ["n", 1]]], ["S", [["c", "n1"]]], '
        '["S", [["c", "n2"]]]]'),
    ('intro_alpha2', 'depth3'): (
        True, 3,
        '[["E", [["c", "n1"], ["c", "n2"]]], ["E", [["c", "n2"], '
        '["n", 1]]], ["E", [["n", 1], ["n", 2]]], ["E", [["n", 2], '
        '["n", 3]]], ["S", [["c", "n1"]]], ["S", [["c", "n2"]]], '
        '["S", [["n", 1]]], ["S", [["n", 2]]], ["S", [["n", 3]]]]',
        [(1, 1), (2, 2), (3, 3)]),
    ('intro_alpha2', 'oblivious'): (
        'exceeded_budget',
        ['--(*,alpha2, x=n1)-->',
         '--(*,alpha2, x=n2)-->',
         '--(*,alpha2, x=?n1)-->',
         '--(*,alpha2, x=?n2)-->',
         '--(*,alpha2, x=?n3)-->',
         '--(*,alpha2, x=?n4)-->',
         '--(*,alpha2, x=?n5)-->',
         '--(*,alpha2, x=?n6)-->'],
        '[["E", [["c", "n1"], ["c", "n2"]]], ["E", [["c", "n1"], '
        '["n", 1]]], ["E", [["c", "n2"], ["n", 2]]], ["E", [["n", '
        '1], ["n", 3]]], ["E", [["n", 2], ["n", 4]]], ["E", [["n", '
        '3], ["n", 5]]], ["E", [["n", 4], ["n", 6]]], ["E", [["n", '
        '5], ["n", 7]]], ["E", [["n", 6], ["n", 8]]], ["S", [["c", '
        '"n1"]]], ["S", [["c", "n2"]]], ["S", [["n", 1]]], ["S", '
        '[["n", 2]]], ["S", [["n", 3]]], ["S", [["n", 4]]], ["S", '
        '[["n", 5]]], ["S", [["n", 6]]], ["S", [["n", 7]]], ["S", '
        '[["n", 8]]]]'),
    ('intro_alpha2', 'ordered'): (
        'exceeded_budget',
        ['--(alpha2, x=n2)-->',
         '--(alpha2, x=?n1)-->',
         '--(alpha2, x=?n2)-->',
         '--(alpha2, x=?n3)-->',
         '--(alpha2, x=?n4)-->',
         '--(alpha2, x=?n5)-->',
         '--(alpha2, x=?n6)-->',
         '--(alpha2, x=?n7)-->'],
        '[["E", [["c", "n1"], ["c", "n2"]]], ["E", [["c", "n2"], '
        '["n", 1]]], ["E", [["n", 1], ["n", 2]]], ["E", [["n", 2], '
        '["n", 3]]], ["E", [["n", 3], ["n", 4]]], ["E", [["n", 4], '
        '["n", 5]]], ["E", [["n", 5], ["n", 6]]], ["E", [["n", 6], '
        '["n", 7]]], ["E", [["n", 7], ["n", 8]]], ["S", [["c", '
        '"n1"]]], ["S", [["c", "n2"]]], ["S", [["n", 1]]], ["S", '
        '[["n", 2]]], ["S", [["n", 3]]], ["S", [["n", 4]]], ["S", '
        '[["n", 5]]], ["S", [["n", 6]]], ["S", [["n", 7]]], ["S", '
        '[["n", 8]]]]'),
    ('intro_alpha2', 'random3'): (
        'exceeded_budget',
        ['--(alpha2, x=n2)-->',
         '--(alpha2, x=?n1)-->',
         '--(alpha2, x=?n2)-->',
         '--(alpha2, x=?n3)-->',
         '--(alpha2, x=?n4)-->',
         '--(alpha2, x=?n5)-->',
         '--(alpha2, x=?n6)-->',
         '--(alpha2, x=?n7)-->'],
        '[["E", [["c", "n1"], ["c", "n2"]]], ["E", [["c", "n2"], '
        '["n", 1]]], ["E", [["n", 1], ["n", 2]]], ["E", [["n", 2], '
        '["n", 3]]], ["E", [["n", 3], ["n", 4]]], ["E", [["n", 4], '
        '["n", 5]]], ["E", [["n", 5], ["n", 6]]], ["E", [["n", 6], '
        '["n", 7]]], ["E", [["n", 7], ["n", 8]]], ["S", [["c", '
        '"n1"]]], ["S", [["c", "n2"]]], ["S", [["n", 1]]], ["S", '
        '[["n", 2]]], ["S", [["n", 3]]], ["S", [["n", 4]]], ["S", '
        '[["n", 5]]], ["S", [["n", 6]]], ["S", [["n", 7]]], ["S", '
        '[["n", 8]]]]'),
    ('intro_alpha2', 'round_robin'): (
        'exceeded_budget',
        ['--(alpha2, x=n2)-->',
         '--(alpha2, x=?n1)-->',
         '--(alpha2, x=?n2)-->',
         '--(alpha2, x=?n3)-->',
         '--(alpha2, x=?n4)-->',
         '--(alpha2, x=?n5)-->',
         '--(alpha2, x=?n6)-->',
         '--(alpha2, x=?n7)-->'],
        '[["E", [["c", "n1"], ["c", "n2"]]], ["E", [["c", "n2"], '
        '["n", 1]]], ["E", [["n", 1], ["n", 2]]], ["E", [["n", 2], '
        '["n", 3]]], ["E", [["n", 3], ["n", 4]]], ["E", [["n", 4], '
        '["n", 5]]], ["E", [["n", 5], ["n", 6]]], ["E", [["n", 6], '
        '["n", 7]]], ["E", [["n", 7], ["n", 8]]], ["S", [["c", '
        '"n1"]]], ["S", [["c", "n2"]]], ["S", [["n", 1]]], ["S", '
        '[["n", 2]]], ["S", [["n", 3]]], ["S", [["n", 4]]], ["S", '
        '[["n", 5]]], ["S", [["n", 6]]], ["S", [["n", 7]]], ["S", '
        '[["n", 8]]]]'),
    ('intro_beta', 'depth3'): (
        False, 5,
        '[["E", [["c", "n1"], ["c", "n2"]]], ["E", [["c", "n1"], '
        '["n", 2]]], ["E", [["c", "n2"], ["c", "n1"]]], ["E", [["c", '
        '"n2"], ["n", 1]]], ["E", [["n", 1], ["c", "n1"]]], ["E", '
        '[["n", 1], ["c", "n2"]]], ["E", [["n", 2], ["c", "n1"]]], '
        '["E", [["n", 2], ["c", "n2"]]], ["S", [["c", "n1"]]], ["S", '
        '[["c", "n2"]]]]',
        [(1, 1), (2, 1)]),
    ('intro_beta', 'oblivious'): (
        'terminated',
        ['--(*,beta1, x=n1, y=n2)-->',
         '--(*,beta1, x=n2, y=n1)-->',
         '--(*,beta2, x=n1, y=n2)-->',
         '--(*,beta1, x=n2, y=?n1)-->',
         '--(*,beta2, x=n2, y=n1)-->',
         '--(*,beta1, x=n1, y=?n2)-->',
         '--(*,beta2, x=n1, y=?n2)-->',
         '--(*,beta2, x=n2, y=?n1)-->'],
        '[["E", [["c", "n1"], ["c", "n2"]]], ["E", [["c", "n1"], '
        '["n", 2]]], ["E", [["c", "n2"], ["c", "n1"]]], ["E", [["c", '
        '"n2"], ["n", 1]]], ["E", [["n", 1], ["c", "n1"]]], ["E", '
        '[["n", 1], ["c", "n2"]]], ["E", [["n", 1], ["n", 4]]], '
        '["E", [["n", 2], ["c", "n1"]]], ["E", [["n", 2], ["c", '
        '"n2"]]], ["E", [["n", 2], ["n", 3]]], ["E", [["n", 3], '
        '["c", "n1"]]], ["E", [["n", 4], ["c", "n2"]]], ["S", [["c", '
        '"n1"]]], ["S", [["c", "n2"]]]]'),
    ('intro_beta', 'ordered'): (
        'terminated',
        ['--(beta1, x=n1, y=n2)-->',
         '--(beta2, x=n1, y=n2)-->',
         '--(beta1, x=n2, y=?n1)-->',
         '--(beta2, x=n2, y=n1)-->',
         '--(beta1, x=n1, y=?n2)-->'],
        '[["E", [["c", "n1"], ["c", "n2"]]], ["E", [["c", "n1"], '
        '["n", 2]]], ["E", [["c", "n2"], ["c", "n1"]]], ["E", [["c", '
        '"n2"], ["n", 1]]], ["E", [["n", 1], ["c", "n1"]]], ["E", '
        '[["n", 1], ["c", "n2"]]], ["E", [["n", 2], ["c", "n1"]]], '
        '["E", [["n", 2], ["c", "n2"]]], ["S", [["c", "n1"]]], ["S", '
        '[["c", "n2"]]]]'),
    ('intro_beta', 'random3'): (
        'terminated',
        ['--(beta1, x=n1, y=n2)-->',
         '--(beta2, x=n1, y=n2)-->',
         '--(beta2, x=n2, y=n1)-->',
         '--(beta1, x=n2, y=?n1)-->',
         '--(beta1, x=n1, y=?n2)-->'],
        '[["E", [["c", "n1"], ["c", "n2"]]], ["E", [["c", "n1"], '
        '["n", 2]]], ["E", [["c", "n2"], ["c", "n1"]]], ["E", [["c", '
        '"n2"], ["n", 1]]], ["E", [["n", 1], ["c", "n1"]]], ["E", '
        '[["n", 1], ["c", "n2"]]], ["E", [["n", 2], ["c", "n1"]]], '
        '["E", [["n", 2], ["c", "n2"]]], ["S", [["c", "n1"]]], ["S", '
        '[["c", "n2"]]]]'),
    ('intro_beta', 'round_robin'): (
        'terminated',
        ['--(beta1, x=n1, y=n2)-->',
         '--(beta2, x=n1, y=n2)-->',
         '--(beta1, x=n2, y=?n1)-->',
         '--(beta2, x=n2, y=n1)-->',
         '--(beta1, x=n1, y=?n2)-->'],
        '[["E", [["c", "n1"], ["c", "n2"]]], ["E", [["c", "n1"], '
        '["n", 2]]], ["E", [["c", "n2"], ["c", "n1"]]], ["E", [["c", '
        '"n2"], ["n", 1]]], ["E", [["n", 1], ["c", "n1"]]], ["E", '
        '[["n", 1], ["c", "n2"]]], ["E", [["n", 2], ["c", "n1"]]], '
        '["E", [["n", 2], ["c", "n2"]]], ["S", [["c", "n1"]]], ["S", '
        '[["c", "n2"]]]]'),
}
