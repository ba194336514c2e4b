"""Seeded statement generators and the naive reference evaluator.

Every operation the benchmark sends is a :class:`Query` built here from
the workload seed, rendered to SQL, and checked afterwards against
:func:`naive_rows` -- a plain Python filter, join and group over
``Relation.rows`` that shares no code with the engine's evaluators.

Literal ranges span each declared attribute domain widened by 5% on
both sides (~10% in total) and are never filtered, so some statements
land wholly outside a domain.  Draws are *stratified*: the i-th of n
draws of a shape falls in its own 1/n slice of the widened range, which
keeps the share of out-of-domain statements (and so the failure count)
nearly the same for every seed.
"""

from __future__ import annotations

import operator
import random
from collections import Counter
from dataclasses import dataclass

#: (low, high) of each declared domain the generators draw from.
SEVERITY = (0, 99)
AGE = (0, 99)
DISPLACEMENT = (2000, 30000)
#: Widening of each domain, as a share of its width, on each side.
WIDEN = 0.05

SONARS = ("BQQ-2", "BQQ-5", "BQQ-8", "BQS-04", "BQS-12", "BQS-13",
          "BQS-15", "TACTAS")


@dataclass(frozen=True)
class Query:
    """One generated operation.

    ``kind`` is ``ask`` (rows plus intensional answer), ``select``
    (rows only) or ``write`` (an INSERT and a DELETE of one row of
    ``table``, inside one transaction).
    """

    kind: str
    label: str
    tables: tuple[str, ...] = ()
    columns: tuple[tuple[str, str], ...] = ()
    #: (function, (table, column) or None for ``COUNT(*)``).
    aggregates: tuple[tuple[str, tuple[str, str] | None], ...] = ()
    group_by: tuple[tuple[str, str], ...] = ()
    #: equi-join predicates (table, column, table, column).
    joins: tuple[tuple[str, str, str, str], ...] = ()
    #: attribute-vs-constant comparisons (table, column, op, value).
    conditions: tuple[tuple[str, str, str, object], ...] = ()
    #: the row a write inserts and then deletes again.
    row: tuple = ()

    @property
    def sql(self) -> str:
        if self.kind == "write":
            raise ValueError("a write is two statements; see write_sql")
        items = [f"{t}.{c}" for t, c in self.columns + self.group_by]
        for function, ref in self.aggregates:
            items.append(f"{function}({'*' if ref is None else '.'.join(ref)})")
        predicates = [f"{a}.{b} = {c}.{d}" for a, b, c, d in self.joins]
        predicates += [f"{t}.{c} {op} {_literal(v)}"
                       for t, c, op, v in self.conditions]
        text = f"SELECT {', '.join(items)} FROM {', '.join(self.tables)}"
        if predicates:
            text += " WHERE " + " AND ".join(predicates)
        if self.group_by:
            text += " GROUP BY " + ", ".join(f"{t}.{c}"
                                            for t, c in self.group_by)
        return text

    def write_sql(self) -> tuple[str, str]:
        ship, sonar = self.row
        return (f"INSERT INTO INSTALL VALUES ('{ship}', '{sonar}')",
                f"DELETE FROM INSTALL WHERE Ship = '{ship}'")

    @property
    def condition_key(self) -> tuple:
        """What the inference memo sees: two queries with one key would
        share a memo entry, so a fresh query needs a fresh key."""
        return (self.tables, self.joins, self.conditions)


def _literal(value) -> str:
    return f"'{value}'" if isinstance(value, str) else str(value)


# -- naive reference ---------------------------------------------------------

_TESTS = {"=": operator.eq, "<": operator.lt, "<=": operator.le,
          ">": operator.gt, ">=": operator.ge}


def naive_rows(database, query: Query) -> list[tuple]:
    """The rows *query* must return, by filter, nested-loop join and
    grouping over ``Relation.rows`` (no engine evaluator involved)."""
    relations = {t: database.relation(t) for t in query.tables}

    def position(table: str, column: str) -> int:
        return relations[table].schema.position(column)

    # A combination is a tuple of rows, one per table joined so far.
    slot = {table: k for k, table in enumerate(query.tables)}
    combos: list[tuple] = [()]
    for table in query.tables:
        rows = relations[table].rows
        for t, c, op, value in query.conditions:
            if t == table:
                index, test = position(t, c), _TESTS[op]
                rows = [row for row in rows if test(row[index], value)]
        joins = [(slot[a], position(a, b), position(c, d)) for a, b, c, d
                 in query.joins if c == table and slot[a] < slot[table]]
        joins += [(slot[c], position(c, d), position(a, b)) for a, b, c, d
                  in query.joins if a == table and slot[c] < slot[table]]
        if not joins:
            combos = [combo + (row,) for combo in combos for row in rows]
        elif len(joins) == 1:
            (k, i, j), = joins
            combos = [combo + (row,) for combo in combos for row in rows
                      if combo[k][i] == row[j]]
        else:
            combos = [combo + (row,) for combo in combos for row in rows
                      if all(combo[k][i] == row[j] for k, i, j in joins)]

    def column(ref) -> list:
        k, i = slot[ref[0]], position(*ref)
        return [combo[k][i] for combo in combos]

    if not query.aggregates:
        return list(zip(*map(column, query.columns)))
    keys = list(zip(*map(column, query.group_by))) or [()] * len(combos)
    groups: dict[tuple, list[int]] = {}
    for number, key in enumerate(keys):
        groups.setdefault(key, []).append(number)
    if not query.group_by and not groups:
        groups[()] = []
    values = {ref: column(ref) for _, ref in query.aggregates if ref}
    out = []
    for key, members in groups.items():
        row = list(key)
        for function, ref in query.aggregates:
            if ref is None or function == "COUNT":
                row.append(len(members))
            elif not members:
                row.append(None)
            else:
                picked = [values[ref][number] for number in members]
                row.append(min(picked) if function == "MIN" else max(picked))
        out.append(tuple(row))
    return out


def same_rows(got, expected) -> bool:
    """Multiset equality of two row lists."""
    return Counter(map(tuple, got)) == Counter(expected)


# -- generation helpers ------------------------------------------------------


class _Strata:
    """Stratified uniform draws in [0, 1): the i-th of the first *n*
    draws lands in its own 1/n slice; later draws are plain uniform."""

    def __init__(self, rng: random.Random, n: int):
        self.rng = rng
        self.order = list(range(max(n, 1)))
        rng.shuffle(self.order)
        self.index = 0

    def draw(self) -> float:
        if self.index < len(self.order):
            slot = self.order[self.index]
            self.index += 1
            return (slot + self.rng.random()) / len(self.order)
        return self.rng.random()


def _widened(domain: tuple[int, int]) -> tuple[int, int]:
    low, high = domain
    pad = round((high - low + 1) * WIDEN)
    return low - pad, high + pad


def _scaled(u: float, span: tuple[int, int]) -> int:
    low, high = span
    return low + min(int(u * (high - low + 1)), high - low)


def _exact_mix(rng: random.Random, n: int,
               shares: list[tuple[object, float]]) -> list:
    """*n* labels in exact proportion to *shares* (largest remainder),
    each label spread evenly over the sequence with random jitter: the
    mix of every stretch of the run is the same for every seed, only
    the local order moves."""
    raw = [(label, share * n) for label, share in shares]
    counts = [int(amount) for _label, amount in raw]
    by_remainder = sorted(range(len(raw)),
                          key=lambda i: raw[i][1] - counts[i], reverse=True)
    for i in by_remainder[:n - sum(counts)]:
        counts[i] += 1
    placed = [((j + rng.random()) / count, label)
              for (label, _), count in zip(raw, counts)
              for j in range(count)]
    placed.sort(key=lambda item: item[0])
    return [label for _, label in placed]


class _Fresh:
    """Draws queries from per-shape builders until the condition key
    has not been seen in this run (so every cache level misses)."""

    def __init__(self, rng: random.Random, counts: dict[str, int]):
        self.rng = rng
        self.strata = {label: _Strata(rng, count)
                       for label, count in counts.items()}
        self.seen: set = set()

    def take(self, label: str, build) -> Query:
        draw = self.strata[label].draw
        for _attempt in range(200):
            query = build(draw)
            if query.condition_key not in self.seen:
                self.seen.add(query.condition_key)
                return query
            draw = self.rng.random
        raise RuntimeError(f"literal space of shape {label!r} exhausted")


def _range(table: str, column: str, low: int, high: int):
    return ((table, column, ">=", low), (table, column, "<=", high))


# -- paper scale (ship database, over the wire) ------------------------------

EXAMPLE_1 = Query(
    "ask", "example1", ("SUBMARINE", "CLASS"),
    columns=(("SUBMARINE", "ID"), ("SUBMARINE", "NAME"),
             ("SUBMARINE", "CLASS"), ("CLASS", "TYPE")),
    joins=(("SUBMARINE", "CLASS", "CLASS", "CLASS"),),
    conditions=(("CLASS", "DISPLACEMENT", ">", 8000),))
EXAMPLE_2 = Query(
    "ask", "example2", ("SUBMARINE", "CLASS"),
    columns=(("SUBMARINE", "NAME"), ("SUBMARINE", "CLASS")),
    joins=(("SUBMARINE", "CLASS", "CLASS", "CLASS"),),
    conditions=(("CLASS", "TYPE", "=", "SSBN"),))
EXAMPLE_3 = Query(
    "ask", "example3", ("SUBMARINE", "CLASS", "INSTALL"),
    columns=(("SUBMARINE", "NAME"), ("SUBMARINE", "CLASS"),
             ("CLASS", "TYPE")),
    joins=(("SUBMARINE", "CLASS", "CLASS", "CLASS"),
           ("SUBMARINE", "ID", "INSTALL", "SHIP")),
    conditions=(("INSTALL", "SONAR", "=", "BQS-04"),))

#: The hot set in Zipf rank order: the three worked examples of
#: Section 6 first, then paper-shaped variants of them.
HOT_SET = (
    EXAMPLE_1, EXAMPLE_3, EXAMPLE_2,
    Query("ask", "example2-ssn", EXAMPLE_2.tables, EXAMPLE_2.columns,
          joins=EXAMPLE_2.joins,
          conditions=(("CLASS", "TYPE", "=", "SSN"),)),
    Query("ask", "example3-bqq5", EXAMPLE_3.tables, EXAMPLE_3.columns,
          joins=EXAMPLE_3.joins,
          conditions=(("INSTALL", "SONAR", "=", "BQQ-5"),)),
    Query("ask", "example1-6000", EXAMPLE_1.tables, EXAMPLE_1.columns,
          joins=EXAMPLE_1.joins,
          conditions=(("CLASS", "DISPLACEMENT", ">", 6000),)),
    Query("ask", "class-ssbn", ("CLASS",),
          (("CLASS", "CLASS"), ("CLASS", "DISPLACEMENT")),
          conditions=(("CLASS", "TYPE", "=", "SSBN"),)),
    Query("ask", "sonar-bqs", ("SONAR",), (("SONAR", "SONAR"),),
          conditions=(("SONAR", "SONARTYPE", "=", "BQS"),)),
)

#: Operation mix of ``paper_wire_mixed``.
PAPER_MIX = [("hot", 0.5), ("cold", 0.2), ("select", 0.2), ("write", 0.1)]


def _cold_paper(kind: str, draw) -> Query:
    """A paper-shaped statement with fresh Displacement literals."""
    span = _widened(DISPLACEMENT)
    low = _scaled(draw(), span)
    band = _range("CLASS", "DISPLACEMENT", low, low + 300 + low % 1700)
    if kind == "cold-gt":
        return Query("ask", kind, EXAMPLE_1.tables, EXAMPLE_1.columns,
                     joins=EXAMPLE_1.joins,
                     conditions=(("CLASS", "DISPLACEMENT", ">", low),))
    if kind == "cold-class":
        return Query("ask", kind, ("CLASS",),
                     (("CLASS", "CLASS"), ("CLASS", "TYPE")),
                     conditions=band)
    if kind == "cold-sub":
        return Query("ask", kind, ("SUBMARINE", "CLASS"),
                     (("SUBMARINE", "NAME"), ("CLASS", "CLASSNAME")),
                     joins=EXAMPLE_1.joins, conditions=band)
    if kind == "agg-type":
        return Query("select", kind, ("CLASS",),
                     group_by=(("CLASS", "TYPE"),),
                     aggregates=(("COUNT", None),
                                 ("MAX", ("CLASS", "DISPLACEMENT"))),
                     conditions=(("CLASS", "DISPLACEMENT", ">=", low),))
    if kind == "agg-count":
        return Query("select", kind, ("SUBMARINE", "CLASS"),
                     aggregates=(("COUNT", None),),
                     joins=EXAMPLE_1.joins,
                     conditions=(("CLASS", "DISPLACEMENT", "<=", low),))
    if kind == "agg-sonar":
        return Query("select", kind, ("SUBMARINE", "CLASS", "INSTALL"),
                     group_by=(("INSTALL", "SONAR"),),
                     aggregates=(("COUNT", None),
                                 ("MIN", ("SUBMARINE", "NAME"))),
                     joins=EXAMPLE_3.joins, conditions=band)
    raise ValueError(kind)


def paper_ops(seed: int, n: int) -> list[Query]:
    """*n* operations of ``paper_wire_mixed`` for *seed*."""
    rng = random.Random(f"paper:{seed}")
    kinds = _exact_mix(rng, n, PAPER_MIX)
    weights = [1.0 / rank for rank in range(1, len(HOT_SET) + 1)]
    total = sum(weights)
    hot = _exact_mix(rng, kinds.count("hot"),
                     [(q, w / total) for q, w in zip(HOT_SET, weights)])
    cold = _exact_mix(rng, kinds.count("cold"),
                      [(k, 1 / 3) for k in ("cold-gt", "cold-class",
                                            "cold-sub")])
    select = _exact_mix(rng, kinds.count("select"),
                        [(k, 1 / 3) for k in ("agg-type", "agg-count",
                                              "agg-sonar")])
    fresh = _Fresh(rng, {k: max(cold.count(k), select.count(k))
                         for k in set(cold) | set(select)})
    ops, writes = [], 0
    for kind in kinds:
        if kind == "hot":
            ops.append(hot.pop())
        elif kind == "write":
            writes += 1
            ops.append(Query("write", "write", ("INSTALL",),
                             row=(f"W{writes:06d}", rng.choice(SONARS))))
        else:
            label = (cold if kind == "cold" else select).pop()
            ops.append(fresh.take(
                label, lambda draw, label=label: _cold_paper(label, draw)))
    return ops


def paper_write(tag: int) -> Query:
    """A write outside the generated sequence (warm-up)."""
    return Query("write", "write", ("INSTALL",),
                 row=(f"V{tag:06d}", SONARS[tag % len(SONARS)]))


# -- synthetic scale (hospital domain, in process) ---------------------------

HOSPITAL_ASK_MIX = [("sev", 0.25), ("sev-age", 0.2), ("sev-triage", 0.2),
                    ("join", 0.2), ("join-ward", 0.15)]
HOSPITAL_SELECT_MIX = [("scan", 0.3), ("join", 0.3), ("group-triage", 0.2),
                       ("group-ward", 0.2)]

_PATIENT = "PATIENT"
_WARD_JOIN = (("PATIENT", "WARD", "WARD", "WARD"),)


class _Hospital:
    """Per-severity data lookups used to pick equality literals from
    values the selected rows actually hold."""

    def __init__(self, database):
        relation = database.relation(_PATIENT)
        severity = relation.schema.position("Severity")
        triage = relation.schema.position("Triage")
        ward = relation.schema.position("Ward")
        self.values: dict[int, tuple[list, list]] = {}
        for row in relation.rows:
            triages, wards = self.values.setdefault(row[severity], ([], []))
            triages.append(row[triage])
            wards.append(row[ward])

    def present(self, low: int, high: int, which: int) -> list:
        found = set()
        for severity in range(low, high + 1):
            found.update(self.values.get(severity, ((), ()))[which])
        return sorted(found)


def _hospital_ask(label: str, draw, data: _Hospital, rng) -> Query:
    low = _scaled(draw(), _widened(SEVERITY))
    high = low + int(rng.random() * 5)
    severity = _range(_PATIENT, "Severity", low, high)
    if label == "sev":
        return Query("ask", label, (_PATIENT,),
                     (("PATIENT", "Id"), ("PATIENT", "Age")),
                     conditions=severity)
    if label == "sev-age":
        age = _scaled(rng.random(), _widened(AGE))
        return Query("ask", label, (_PATIENT,),
                     (("PATIENT", "Id"), ("PATIENT", "Severity")),
                     conditions=severity + _range(_PATIENT, "Age", age,
                                                  age + 20))
    if label == "sev-triage":
        triage = rng.choice(data.present(low, high, 0)
                            or ["GREEN", "AMBER", "RED"])
        return Query("ask", label, (_PATIENT,),
                     (("PATIENT", "Id"), ("PATIENT", "Ward")),
                     conditions=severity + ((_PATIENT, "Triage", "=",
                                             triage),))
    if label == "join":
        return Query("ask", label, (_PATIENT, "WARD"),
                     (("PATIENT", "Id"), ("WARD", "WardName")),
                     joins=_WARD_JOIN, conditions=severity)
    if label == "join-ward":
        ward = rng.choice(data.present(low, high, 1)
                          or [f"W0{i}" for i in range(1, 7)])
        return Query("ask", label, (_PATIENT, "WARD"),
                     (("PATIENT", "Id"), ("WARD", "Floor")),
                     joins=_WARD_JOIN,
                     conditions=severity + ((_PATIENT, "Ward", "=", ward),))
    raise ValueError(label)


def _hospital_select(label: str, draw, rng) -> Query:
    column, domain = (("Age", AGE) if label in ("join", "group-ward")
                      else ("Severity", SEVERITY))
    low = _scaled(draw(), _widened(domain))
    band = _range(_PATIENT, column, low, low + 30 + int(rng.random() * 20))
    if label == "scan":
        return Query("select", label, (_PATIENT,),
                     (("PATIENT", "Id"), ("PATIENT", "Age"),
                      ("PATIENT", "Severity")), conditions=band)
    if label == "join":
        return Query("select", label, (_PATIENT, "WARD"),
                     (("PATIENT", "Id"), ("PATIENT", "Severity"),
                      ("WARD", "WardName"), ("WARD", "Floor")),
                     joins=_WARD_JOIN, conditions=band)
    if label == "group-triage":
        return Query("select", label, (_PATIENT,),
                     group_by=(("PATIENT", "Triage"),),
                     aggregates=(("COUNT", None), ("MIN", ("PATIENT", "Age")),
                                 ("MAX", ("PATIENT", "Age"))),
                     conditions=band)
    if label == "group-ward":
        return Query("select", label, (_PATIENT, "WARD"),
                     group_by=(("WARD", "WardName"),),
                     aggregates=(("COUNT", None),
                                 ("MAX", ("PATIENT", "Severity"))),
                     joins=_WARD_JOIN, conditions=band)
    raise ValueError(label)


def hospital_ops(workload: str, seed: int, n: int, database) -> list[Query]:
    """*n* operations of ``hospital_ask`` or ``hospital_select``."""
    rng = random.Random(f"{workload}:{seed}")
    mix = HOSPITAL_ASK_MIX if workload == "hospital_ask" \
        else HOSPITAL_SELECT_MIX
    labels = _exact_mix(rng, n, mix)
    fresh = _Fresh(rng, {label: labels.count(label) for label, _ in mix})
    data = _Hospital(database) if workload == "hospital_ask" else None
    ops = []
    for label in labels:
        if data is not None:
            build = (lambda draw, label=label:
                     _hospital_ask(label, draw, data, rng))
        else:
            build = (lambda draw, label=label:
                     _hospital_select(label, draw, rng))
        ops.append(fresh.take(label, build))
    return ops
