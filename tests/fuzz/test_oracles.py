"""Individual metamorphic oracles on hand-built and paper cases."""

import pytest

from repro.chase.triggers import TriggerIndex
from repro.cq.query import ConjunctiveQuery
from repro.fuzz import oracles as oracles_module
from repro.fuzz.generate import FuzzCase, generate_case
from repro.fuzz.oracles import (ALL_SEQUENCE_CLASSES, DEEP_PROBES, ORACLES,
                                OracleContext, PROBES, Violation)
from repro.homomorphism.plan import JoinPlan
from repro.lang.parser import parse_constraints, parse_instance, parse_query
from repro.lang.schema import Schema


def make_case(constraints: str, instance: str,
              query: str = "q(x) <- S(x)", index: int = 0) -> FuzzCase:
    sigma = tuple(parse_constraints(constraints))
    inst = parse_instance(instance)
    schema = inst.schema()
    for constraint in sigma:
        schema = schema.merged(constraint.schema())
    return FuzzCase(seed=999, index=index, schema=schema, sigma=sigma,
                    instance=inst, query=parse_query(query))


WEAKLY_ACYCLIC = make_case("a1: S(x) -> E(x, y)", "S(a). S(b).")
DIVERGENT = make_case("a2: S(x) -> E(x, y), S(y)", "S(a).")


@pytest.fixture
def ctx():
    with OracleContext(max_steps=200, deep_hierarchy_every=1,
                       pool_every=0) as context:
        yield context


def run_oracle(name, case, context):
    context.start_case(case)
    return ORACLES[name](case, context)


# ----------------------------------------------------------------------
# clean cases pass every oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", list(ORACLES))
def test_weakly_acyclic_case_passes(name, ctx):
    assert run_oracle(name, WEAKLY_ACYCLIC, ctx) == []


@pytest.mark.parametrize("name", [n for n in ORACLES
                                  if n != "service_parity"])
def test_divergent_case_passes_without_guarantees(name, ctx):
    # Nothing guarantees termination, so the operational oracles skip
    # or vacuously pass -- never flag a violation.
    assert run_oracle(name, DIVERGENT, ctx) == []


def test_probe_tables_cover_figure_one():
    assert set(PROBES) == {"weakly_acyclic", "safe", "stratified",
                           "c_stratified"}
    assert set(DEEP_PROBES) == {"safely_restricted",
                                "inductively_restricted", "t2", "t3"}
    assert set(ALL_SEQUENCE_CLASSES) \
        <= set(PROBES) | set(DEEP_PROBES)


# ----------------------------------------------------------------------
# the mutation seam: lying probes are observable per oracle
# ----------------------------------------------------------------------
def test_hierarchy_oracle_catches_a_lying_probe(monkeypatch, ctx):
    monkeypatch.setitem(oracles_module.PROBES, "safe",
                        lambda sigma: True)
    violations = run_oracle("hierarchy", DIVERGENT, ctx)
    assert violations
    assert all(v.oracle == "hierarchy" for v in violations)
    assert any("safe" in v.detail for v in violations)


def test_termination_oracle_catches_a_lying_probe(monkeypatch, ctx):
    # Claim the divergent Introduction set is weakly acyclic: the
    # budgeted chase then exposes the lie operationally.
    monkeypatch.setitem(oracles_module.PROBES, "weakly_acyclic",
                        lambda sigma: True)
    violations = run_oracle("termination", DIVERGENT, ctx)
    assert len(violations) == 1
    assert "weakly_acyclic" in violations[0].detail
    assert "exceeded_budget" in violations[0].detail


def test_probes_are_reread_on_each_fresh_case(monkeypatch, ctx):
    # The seam is only useful if verdicts are not memoized across
    # cases: a probe swapped between cases must take effect.
    assert run_oracle("hierarchy", DIVERGENT, ctx) == []
    monkeypatch.setitem(oracles_module.PROBES, "safe",
                        lambda sigma: True)
    assert run_oracle("hierarchy", DIVERGENT, ctx)


def drop_one_unpinned_row(monkeypatch):
    """Every search without a pinned delta fact loses its first row."""
    execute = JoinPlan.execute

    def lossy(self, store, *args, **kwargs):
        rows = execute(self, store, *args, **kwargs)
        if kwargs.get("pin_index") is None:
            next(rows, None)
        return rows
    monkeypatch.setattr(JoinPlan, "execute", lossy)


def drop_one_delta(monkeypatch):
    """Every trigger index loses the first fact it is handed."""
    init = TriggerIndex.__init__

    def lossy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._events.popleft()
    monkeypatch.setattr(TriggerIndex, "__init__", lossy)


@pytest.mark.parametrize("mutation", [drop_one_unpinned_row, drop_one_delta])
def test_engine_parity_catches_a_lossy_search(monkeypatch, ctx, mutation):
    assert run_oracle("engine_parity", WEAKLY_ACYCLIC, ctx) == []
    mutation(monkeypatch)
    violations = run_oracle("engine_parity", WEAKLY_ACYCLIC, ctx)
    assert violations
    assert all(v.oracle == "engine_parity" for v in violations)


# ----------------------------------------------------------------------
# context mechanics the oracles rely on
# ----------------------------------------------------------------------
def test_run_chase_is_memoized_per_configuration(ctx):
    ctx.start_case(WEAKLY_ACYCLIC)
    first = ctx.run_chase(WEAKLY_ACYCLIC)
    assert ctx.run_chase(WEAKLY_ACYCLIC) is first
    assert ctx.run_chase(WEAKLY_ACYCLIC, naive=True) is not first
    ctx.start_case(DIVERGENT)
    assert ctx.run_chase(DIVERGENT) is not first


def test_deep_and_pool_sampling_follow_case_index():
    with OracleContext(deep_hierarchy_every=3, pool_every=2) as context:
        c0, c1, c3 = (generate_case(0, i) for i in (0, 1, 3))
        assert context.deep_case(c0) and not context.deep_case(c1)
        assert context.pool_case(c0) and not context.pool_case(c3)
    with OracleContext(deep_hierarchy_every=0, pool_every=0) as context:
        assert not context.deep_case(c0) and not context.pool_case(c0)


def test_skips_are_recorded_not_raised(ctx):
    tight = OracleContext(max_steps=3, deep_hierarchy_every=0,
                          pool_every=0)
    with tight:
        tight.start_case(WEAKLY_ACYCLIC)
        # max_steps=3 cannot finish S(a)+S(b): parity oracles skip.
        case = make_case("a1: S(x) -> E(x, y)",
                         "S(a). S(b). S(c). S(d). S(e).")
        tight.start_case(case)
        assert ORACLES["engine_parity"](case, tight) == []
        assert any("engine_parity" in line for line in tight.skips)


def test_violation_render_mentions_oracle_and_case():
    violation = Violation("engine_parity", "fuzz_s1_c2", "boom")
    assert "[engine_parity]" in violation.render()
    assert "fuzz_s1_c2" in violation.render()
