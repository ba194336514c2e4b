"""Fact bookkeeping for type inference.

A *fact* is an interval established for an attribute: either a query
condition ("every answer has Displacement > 8000") or a forward-derived
consequence ("every answer has Type = SSBN").  Facts attach to
*canonical* attributes: the :class:`Canonicalizer` maintains a union-find
over attribute references, seeded with the schema's foreign-key pairs
and extended with the query's equi-join conditions, so that
``INSTALL.Sonar``, ``SONAR.Sonar`` and any aliased references all carry
one shared fact.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.errors import InferenceError
from repro.rules.clause import AttributeRef, Clause, Interval


class Canonicalizer:
    """Union-find over attribute references."""

    def __init__(self, pairs: Iterable[tuple[AttributeRef, AttributeRef]]
                 = ()):
        self._parent: dict[tuple[str, str], AttributeRef] = {}
        for left, right in pairs:
            self.unite(left, right)

    def _find(self, ref: AttributeRef) -> AttributeRef:
        key = ref.key
        parent = self._parent.get(key)
        if parent is None or parent.key == key:
            return ref if parent is None else parent
        root = self._find(parent)
        self._parent[key] = root
        return root

    def canon(self, ref: AttributeRef) -> AttributeRef:
        """The representative reference of *ref*'s equivalence class."""
        return self._find(ref)

    def unite(self, left: AttributeRef, right: AttributeRef) -> None:
        root_left = self._find(left)
        root_right = self._find(right)
        if root_left.key != root_right.key:
            # Keep the right root (FK pairs are (referencing, referenced),
            # so referenced key attributes become representatives).
            self._parent[root_left.key] = root_right
            self._parent.setdefault(root_right.key, root_right)

    def copy(self) -> "Canonicalizer":
        clone = Canonicalizer()
        clone._parent = dict(self._parent)
        return clone

    def equivalent(self, left: AttributeRef, right: AttributeRef) -> bool:
        return self.canon(left).key == self.canon(right).key


class FactEntry:
    """One attribute's established interval plus its provenance."""

    __slots__ = ("interval", "sources")

    def __init__(self, interval: Interval, sources: tuple):
        self.interval = interval
        self.sources = sources


class FactBase:
    """Canonicalized interval facts with provenance tracking."""

    def __init__(self, canonicalizer: Canonicalizer | None = None,
                 domains: dict[AttributeRef, Interval] | None = None):
        self.canonicalizer = canonicalizer or Canonicalizer()
        self._facts: dict[tuple[str, str], tuple[AttributeRef, FactEntry]] = {}
        self._domains: dict[tuple[str, str], Interval] = {}
        for ref, interval in (domains or {}).items():
            self._domains[self.canonicalizer.canon(ref).key] = interval

    # -- domains -----------------------------------------------------------

    def domain_for(self, ref: AttributeRef) -> Interval | None:
        return self._domains.get(self.canonicalizer.canon(ref).key)

    def misses_domain(self) -> bool:
        """Whether some fact lies wholly outside its declared domain
        (values the domain cannot order with are not counted)."""
        for key, (_ref, entry) in self._facts.items():
            domain = self._domains.get(key)
            try:
                if domain is not None and not entry.interval.overlaps(domain):
                    return True
            except TypeError:
                continue
        return False

    # -- facts ---------------------------------------------------------------

    def assert_interval(self, ref: AttributeRef, interval: Interval,
                        source: Any) -> bool:
        """Record that every answer's *ref* lies in *interval*.

        Multiple assertions on one attribute intersect (all of them hold
        simultaneously).  Returns True when the stored fact narrowed.
        A contradictory assertion (empty intersection, or one that
        cannot be ordered against the fact) raises -- it means the
        query is unsatisfiable against the knowledge base.
        """
        canon = self.canonicalizer.canon(ref)
        existing = self._facts.get(canon.key)
        if existing is None:
            self._facts[canon.key] = (canon, FactEntry(interval, (source,)))
            return True
        try:
            merged = existing[1].interval.intersect(interval)
        except TypeError:
            merged = None  # no value can be ordered against both
        if merged is None:
            raise InferenceError(
                f"contradictory facts on {canon.render()}: "
                f"{existing[1].interval!r} vs {interval!r}")
        if merged == existing[1].interval:
            return False
        self._facts[canon.key] = (
            canon, FactEntry(merged, existing[1].sources + (source,)))
        return True

    def interval_for(self, ref: AttributeRef) -> Interval | None:
        entry = self._facts.get(self.canonicalizer.canon(ref).key)
        return entry[1].interval if entry else None

    def sources_for(self, ref: AttributeRef) -> tuple:
        entry = self._facts.get(self.canonicalizer.canon(ref).key)
        return entry[1].sources if entry else ()

    def facts(self) -> list[tuple[AttributeRef, Interval, tuple]]:
        """(canonical ref, interval, sources) triples, insertion order."""
        return [(ref, entry.interval, entry.sources)
                for ref, entry in self._facts.values()]

    def add_condition(self, clause: Clause) -> None:
        """Record a query condition clause."""
        self.assert_interval(clause.attribute, clause.interval, "query")

    def __len__(self) -> int:
        return len(self._facts)
