"""E19 (extension) -- cost-based planner vs naive executor.

Selective queries over a large synthetic relation are where the planner
earns its keep: a sorted-index range scan touches only the matching
band of rows, while the legacy executor scans and filters everything.
The speedup target is >= 2x on the selective range query (in practice
it is far higher once the index cache is warm); equivalence of the two
answers is asserted on every measured query.

Also covers planner overhead on the tiny ship database (planning cost
must not swamp sub-millisecond queries) and the semantic short-circuit,
which answers a contradictory query without touching any row.
"""

import time

import pytest

from repro.plan.stats import statistics
from repro.reporting import render_table
from repro.sql.executor import execute_select, execute_select_legacy
from repro.sql.parser import parse_select
from repro.testbed.generators import synthetic_classified_database

from conftest import record_report

#: ITEM(Id, Value, Label) with Value uniform in [0, 2000).
N_ROWS = 20_000
N_CLASSES = 20

#: Selective range: ~2.5% of the value domain.
RANGE_SQL = ("SELECT Id, Label FROM ITEM "
             "WHERE Value >= 1000 AND Value < 1050")
POINT_SQL = "SELECT Label FROM ITEM WHERE Value = 1024"

_RESULTS: dict[str, tuple[float, float]] = {}

#: Asserted floor of naive / planner time per case (the point lookup's
#: floor is its 5x planning-overhead bound; the contradiction case
#: asserts rows only).
MIN_SPEEDUP = {"range": 2.0, "point": 1 / 5}


@pytest.fixture(scope="module")
def synth_db():
    database = synthetic_classified_database(
        n_rows=N_ROWS, n_classes=N_CLASSES, seed=7)
    # Warm the caches the planner relies on, so the measurement compares
    # steady-state execution strategies rather than one-off builds.
    statistics(database).table_stats("ITEM")
    execute_select(database, parse_select(RANGE_SQL), use_planner=True)
    execute_select(database, parse_select(POINT_SQL), use_planner=True)
    return database


def _timed(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _compare(database, sql, label):
    statement = parse_select(sql)
    planned = execute_select(database, statement, use_planner=True)
    legacy = execute_select_legacy(database, statement)
    assert planned == legacy, f"{label}: planner result differs"
    planner_s = _timed(
        lambda: execute_select(database, statement, use_planner=True))
    legacy_s = _timed(
        lambda: execute_select_legacy(database, statement))
    _RESULTS[label] = (planner_s, legacy_s)
    return planner_s, legacy_s, len(planned)


def test_selective_range_speedup(benchmark, synth_db):
    statement = parse_select(RANGE_SQL)
    result = benchmark(
        lambda: execute_select(synth_db, statement, use_planner=True))
    assert len(result) > 0

    planner_s, legacy_s, n_rows = _compare(synth_db, RANGE_SQL, "range")
    assert 0 < n_rows < N_ROWS / 10, "query is meant to be selective"
    assert legacy_s / planner_s >= 2.0, (
        f"expected >=2x speedup, got {legacy_s / planner_s:.1f}x "
        f"({legacy_s * 1000:.2f}ms naive vs {planner_s * 1000:.2f}ms)")


def test_point_lookup_overhead_is_bounded(benchmark, synth_db):
    """Equality probes hit the hash index on BOTH paths (the legacy
    executor gained the same fast path), so the planner can't win big
    here -- instead, assert its planning overhead stays within 5x of
    the already-fast indexed lookup."""
    statement = parse_select(POINT_SQL)
    result = benchmark(
        lambda: execute_select(synth_db, statement, use_planner=True))
    assert len(result) >= 0

    planner_s, legacy_s, _n = _compare(synth_db, POINT_SQL, "point")
    assert planner_s <= legacy_s * 5, (
        f"planning overhead too high: {planner_s * 1000:.2f}ms planned "
        f"vs {legacy_s * 1000:.2f}ms legacy indexed lookup")


def test_contradiction_short_circuit(benchmark, synth_db):
    """With the induced Value->Label rules, a query asking for a label
    outside its band is answered empty without scanning: faster than
    the legacy full scan by construction."""
    from repro.induction.pairwise import induce_scheme
    from repro.rules.ruleset import RuleSet
    rules = RuleSet(induce_scheme(synth_db.relation("ITEM"),
                                  "Value", "Label"))
    sql = ("SELECT Id FROM ITEM "
           "WHERE Value >= 110 AND Value <= 190 AND Label = 'L000'")
    statement = parse_select(sql)

    planned = execute_select(synth_db, statement, use_planner=True,
                             rules=rules)
    legacy = execute_select_legacy(synth_db, statement)
    assert planned == legacy and len(planned) == 0

    result = benchmark(
        lambda: execute_select(synth_db, statement, use_planner=True,
                               rules=rules))
    assert len(result) == 0

    planner_s = _timed(lambda: execute_select(
        synth_db, statement, use_planner=True, rules=rules))
    legacy_s = _timed(
        lambda: execute_select_legacy(synth_db, statement))
    _RESULTS["contradiction"] = (planner_s, legacy_s)

    rows = [[label, f"{p * 1000:.3f}", f"{l * 1000:.3f}",
             f"{l / p:.1f}x"]
            for label, (p, l) in sorted(_RESULTS.items())]
    record_report(
        "E19", f"Planner vs naive executor (ITEM, {N_ROWS} rows)",
        render_table(["query", "planner ms", "naive ms", "speedup"],
                     rows),
        data={label: {"planner_s": p, "naive_s": l, "speedup": l / p,
                      **({"guard": f">= {MIN_SPEEDUP[label]:.2f}x",
                          "guard_passed": l / p >= MIN_SPEEDUP[label]}
                         if label in MIN_SPEEDUP else {})}
              for label, (p, l) in sorted(_RESULTS.items())})
