"""E22 (extension) -- streaming batch execution vs the materializing
interpreted pipeline.

The interpreted, materializing reference pipeline is recovered by two
switches: the ``compiled.ENABLED`` flag off (per-row Environment
interpretation everywhere, hash-join keys included) and an
:data:`UNBOUNDED` batch size (every node materializes its whole output
as one batch).  The workload is a
selective scan+join over a 20k-row star schema whose range predicate
covers far more than :data:`INDEX_FRACTION_THRESHOLD` of the value
domain, so the planner chooses TableScan+Filter -- the compiled
predicates, not an index, must provide the win (target >= 2x).  A
point lookup through the hash index bounds the refactor's overhead on
queries that were already index-fast (<= 10%).

Two more cases pin the shapes every hospital-scale statement takes, an
index range scan under the generated row functions: IndexScan ->
HashJoin -> Project (join keys and a four-item SELECT list), and a
grouped COUNT/MIN/MAX over an IndexScan (group keys and aggregate
operands).  Each must beat the interpreted pipeline by >= 2x.

Measurements interleave the two pipelines (best-of-N on alternating
runs) so background noise hits both equally.  The O(batch) bound on
intermediate materialization is asserted directly via the plan batch
observer: no node ever yields a batch larger than the morsel size.
"""

import time

import pytest

from repro.plan.planner import plan_select
from repro.plan.plans import UNBOUNDED, set_batch_observer
from repro.plan.stats import statistics
from repro.relational import columnar, compiled
from repro.reporting import render_table
from repro.sql.executor import execute_select_legacy
from repro.sql.parser import parse_select
from repro.testbed.generators import synthetic_star_database

from conftest import record_report

N_ENTITIES = 20_000
N_GROUPS = 20

#: Size > 150 covers ~92% of the [0, 2000) domain -- past the planner's
#: index-fraction threshold, forcing TableScan+Filter over ENTITY.
SCAN_JOIN_SQL = (
    "SELECT ENTITY.Id, GROUPS.Weight FROM ENTITY, GROUPS "
    "WHERE ENTITY.GroupId = GROUPS.GroupId "
    "AND ENTITY.Size > 150 AND GROUPS.Label = 'G01'")
POINT_SQL = "SELECT GroupId FROM ENTITY WHERE Id = 1234"

#: Size >= 1500 keeps ~25% of ENTITY -- under the index-fraction
#: threshold, so the planner probes the sorted index on Size.
INDEX_JOIN_SQL = (
    "SELECT ENTITY.Id, ENTITY.Size, GROUPS.Label, GROUPS.Weight "
    "FROM ENTITY, GROUPS WHERE ENTITY.GroupId = GROUPS.GroupId "
    "AND ENTITY.Size >= 1500")
GROUPED_SQL = (
    "SELECT ENTITY.GroupId, COUNT(*), MIN(ENTITY.Size), MAX(ENTITY.Size) "
    "FROM ENTITY WHERE ENTITY.Size >= 1000 GROUP BY ENTITY.GroupId")

#: Guarded floor of interpreted / streamed time per case (the point
#: lookup's floor is its 10% overhead bound).
MIN_SPEEDUP = {"scan+join": 2.0, "point": 1 / 1.10,
               "index+join": 2.0, "grouped": 2.0}

_RESULTS: dict[str, tuple[float, float]] = {}


@pytest.fixture(scope="module", autouse=True)
def _row_pipeline():
    """Pin the pre-columnar row pipeline for the whole module.

    E22 is the streamed *row* reference that E27 measures the columnar
    kernels against, and its O(batch) assertion needs TableScan to
    actually stream morsels rather than be fused into one columnar
    selection."""
    before = columnar.FORCED
    columnar.set_enabled(False)
    yield
    columnar.set_enabled(before)


@pytest.fixture(scope="module")
def star_db():
    database = synthetic_star_database(
        n_entities=N_ENTITIES, n_groups=N_GROUPS, seed=11)
    # Warm statistics and the indexes both pipelines share, so the
    # measurement compares steady-state execution strategies.
    statistics(database).table_stats("ENTITY")
    statistics(database).table_stats("GROUPS")
    for sql in (SCAN_JOIN_SQL, POINT_SQL, INDEX_JOIN_SQL, GROUPED_SQL):
        _run_streaming(database, parse_select(sql))
    return database


def _run_streaming(database, statement):
    """The post-refactor pipeline: compiled predicates, default morsels."""
    return plan_select(database, statement).execute()


def _run_materializing(database, statement):
    """The pre-refactor pipeline: interpreted predicates, one batch."""
    assert compiled.ENABLED
    try:
        compiled.ENABLED = False
        return plan_select(database, statement).execute(
            batch_size=UNBOUNDED)
    finally:
        compiled.ENABLED = True


def _interleaved(fn_pre, fn_post, repeats=7):
    """Best-of-N with alternating runs, so noise hits both pipelines."""
    best_pre = best_post = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn_pre()
        best_pre = min(best_pre, time.perf_counter() - start)
        start = time.perf_counter()
        fn_post()
        best_post = min(best_post, time.perf_counter() - start)
    return best_pre, best_post


def test_scan_join_speedup(benchmark, star_db):
    statement = parse_select(SCAN_JOIN_SQL)

    # Pin the access path this experiment is about: a filtered table
    # scan (compiled predicates), not an index range probe.
    rendered = plan_select(star_db, statement).render()
    assert "TableScan ENTITY" in rendered and "Filter" in rendered

    streamed = _run_streaming(star_db, statement)
    materialized = _run_materializing(star_db, statement)
    legacy = execute_select_legacy(star_db, statement)
    assert list(streamed.rows) == list(materialized.rows)
    assert streamed == legacy
    assert 0 < len(streamed) < N_ENTITIES / 2, "join is meant to be selective"

    result = benchmark(lambda: _run_streaming(star_db, statement))
    assert len(result) == len(streamed)

    pre_s, post_s = _interleaved(
        lambda: _run_materializing(star_db, statement),
        lambda: _run_streaming(star_db, statement))
    _RESULTS["scan+join"] = (pre_s, post_s)
    assert pre_s / post_s >= 2.0, (
        f"expected >=2x from compiled streaming, got "
        f"{pre_s / post_s:.2f}x ({pre_s * 1000:.2f}ms interpreted vs "
        f"{post_s * 1000:.2f}ms compiled)")


def test_point_lookup_overhead_bounded(benchmark, star_db):
    """Index point probes were already fast; streaming + compilation
    may add at most 10% on the full plan+execute round trip."""
    statement = parse_select(POINT_SQL)
    assert "IndexScan" in plan_select(star_db, statement).render()

    streamed = _run_streaming(star_db, statement)
    assert streamed == execute_select_legacy(star_db, statement)

    result = benchmark(lambda: _run_streaming(star_db, statement))
    assert len(result) == len(streamed)

    pre_s, post_s = _interleaved(
        lambda: _run_materializing(star_db, statement),
        lambda: _run_streaming(star_db, statement),
        repeats=15)
    _RESULTS["point"] = (pre_s, post_s)
    assert post_s <= pre_s * 1.10, (
        f"point-lookup overhead over 10%: {post_s * 1000:.3f}ms streamed "
        f"vs {pre_s * 1000:.3f}ms materializing")


@pytest.mark.parametrize("label, sql, nodes", [
    ("index+join", INDEX_JOIN_SQL,
     ["HashJoin", "TableScan GROUPS", "IndexScan ENTITY on Size"]),
    ("grouped", GROUPED_SQL, ["IndexScan ENTITY on Size"]),
])
def test_index_scan_row_functions_speedup(benchmark, star_db, label, sql,
                                          nodes):
    """Generated row functions on the IndexScan shapes: >= 2x over the
    interpreted pipeline, with identical rows."""
    statement = parse_select(sql)
    rendered = plan_select(star_db, statement).render()
    for node in nodes:
        assert node in rendered, rendered
    assert "Filter" not in rendered, rendered

    streamed = _run_streaming(star_db, statement)
    assert list(streamed.rows) == list(
        _run_materializing(star_db, statement).rows)
    assert streamed == execute_select_legacy(star_db, statement)
    assert len(streamed) > 0

    result = benchmark(lambda: _run_streaming(star_db, statement))
    assert len(result) == len(streamed)

    pre_s, post_s = _interleaved(
        lambda: _run_materializing(star_db, statement),
        lambda: _run_streaming(star_db, statement))
    _RESULTS[label] = (pre_s, post_s)
    assert pre_s / post_s >= MIN_SPEEDUP[label], (
        f"expected >=2x from generated row functions, got "
        f"{pre_s / post_s:.2f}x ({pre_s * 1000:.2f}ms interpreted vs "
        f"{post_s * 1000:.2f}ms generated)")


def test_intermediate_materialization_is_o_batch(star_db):
    """Direct assertion of the memory claim: with morsel size B, no
    plan node ever holds/yields a batch larger than B, and the scan
    actually streams (more than one batch)."""
    statement = parse_select(SCAN_JOIN_SQL)
    size = 256
    per_node: dict[str, list[int]] = {}
    set_batch_observer(
        lambda plan, batch: per_node.setdefault(
            type(plan).__name__, []).append(len(batch)))
    try:
        result = plan_select(star_db, statement).execute(batch_size=size)
    finally:
        set_batch_observer(None)

    assert len(result) > 0
    assert per_node, "no batches observed"
    for node, sizes in per_node.items():
        assert max(sizes) <= size, (node, max(sizes))
    assert len(per_node["TableScanPlan"]) > 1, (
        "20k rows at batch 256 must stream in many morsels")

    rows = [[label, f"{pre * 1000:.3f}", f"{post * 1000:.3f}",
             f"{pre / post:.1f}x"]
            for label, (pre, post) in sorted(_RESULTS.items())]
    record_report(
        "E22",
        f"Streaming compiled execution vs materializing interpreted "
        f"pipeline (ENTITY {N_ENTITIES} rows x GROUPS {N_GROUPS})",
        render_table(
            ["query", "interpreted ms", "streamed ms", "speedup"], rows),
        data={label: {"interpreted_s": pre, "streamed_s": post,
                      "speedup": pre / post,
                      "guard": f">= {MIN_SPEEDUP[label]:.2f}x",
                      "guard_passed": pre / post >= MIN_SPEEDUP[label]}
              for label, (pre, post) in sorted(_RESULTS.items())})
