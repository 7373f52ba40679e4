"""T2B — TaaV-to-BaaV schema design under a storage budget (§8.1, M4).

Given the database schema, a (sample of the) database for size estimation,
a set of QCS mined from historical plans and a storage budget, T2B emits a
BaaV schema such that:

1. every QCS ``Z[X]`` is *supported*: from known ``X`` values the ``Z``
   attributes are retrievable (scan-free when the budget permits);
2. redundant KV schemas are removed (support of every QCS is unchanged
   without them), picking victims with minimal estimated impact;
3. while the estimated mapping size exceeds the budget, KV schemas of one
   relation are merged (same key first, then subset keys), trading
   duplication for space while preserving scan-free support.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.baav.schema import BaaVSchema, KVSchema
from repro.core.qcs import QCS
from repro.errors import SchemaError
from repro.relational.database import Database
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.types import row_size


@dataclass
class T2BReport:
    """What T2B did and why."""

    supported: Dict[str, bool] = field(default_factory=dict)
    removed: List[str] = field(default_factory=list)
    merged: List[Tuple[str, str, str]] = field(default_factory=list)
    estimated_bytes: int = 0
    budget_bytes: Optional[int] = None
    within_budget: bool = True


def design_schema(
    schema: DatabaseSchema,
    qcs_list: Sequence[QCS],
    database: Optional[Database] = None,
    budget_bytes: Optional[int] = None,
) -> Tuple[BaaVSchema, T2BReport]:
    """Run T2B and return the BaaV schema plus a report."""
    designer = _Designer(schema, list(qcs_list), database, budget_bytes)
    return designer.run()


@dataclass
class Suggestion:
    """A suggested KV schema with its rationale and estimated cost.

    §8.1: "Zidian also exposes an interface for the users to modify R̃
    with suggested KV schemas, allowing human-in-the-loop schema design."
    """

    kv_schema: KVSchema
    rationale: str
    estimated_bytes: int
    supports: List[str] = field(default_factory=list)


def suggest_schemas(
    schema: DatabaseSchema,
    qcs_list: Sequence[QCS],
    existing: BaaVSchema,
    database: Optional[Database] = None,
) -> List[Suggestion]:
    """Suggest KV schemas covering QCS the existing BaaV schema misses.

    For each unsupported access pattern, proposes the T2B-initial schema
    that would support it, with a size estimate the user can weigh
    against the storage budget before adding it with ``BaaVSchema.add``.
    The schema may be the one a live ``Zidian`` plans over: ``add``
    resets its shared closures, so the next query is checked against
    the extended schema.
    """
    existing_candidates = [
        _Candidate(s.relation, s.key, s.value) for s in existing
    ]
    designer = _Designer(schema, list(qcs_list), database, None)
    missing = [
        qcs
        for qcs in qcs_list
        if not designer._supports(existing_candidates, qcs)
    ]
    if not missing:
        return []
    proposed = _Designer(schema, missing, database, None)._initial()
    suggestions: List[Suggestion] = []
    seen_names = {s.name for s in existing}
    for candidate in proposed:
        supports = [
            str(qcs)
            for qcs in missing
            if designer._supports(
                existing_candidates + [candidate], qcs
            )
        ]
        name = _name(candidate)
        suffix = 1
        while name in seen_names:
            suffix += 1
            name = f"{_name(candidate)}_{suffix}"
        seen_names.add(name)
        suggestions.append(
            Suggestion(
                kv_schema=KVSchema(
                    name, candidate.relation, candidate.key, candidate.value
                ),
                rationale=(
                    f"covers {len(supports)} unsupported access pattern(s) "
                    f"keyed on ({', '.join(candidate.key)})"
                ),
                estimated_bytes=designer._estimate_bytes(candidate),
                supports=supports,
            )
        )
    return suggestions


@dataclass
class _Candidate:
    relation: RelationSchema
    key: Tuple[str, ...]
    value: Tuple[str, ...]

    @property
    def attrs(self) -> FrozenSet[str]:
        return frozenset(self.key) | frozenset(self.value)


class _Designer:
    def __init__(
        self,
        schema: DatabaseSchema,
        qcs_list: List[QCS],
        database: Optional[Database],
        budget_bytes: Optional[int],
    ) -> None:
        self.schema = schema
        self.qcs_list = qcs_list
        self.database = database
        self.budget_bytes = budget_bytes
        self.report = T2BReport(budget_bytes=budget_bytes)

    # -- step 1: initial schema from QCS ------------------------------------

    def _initial(self) -> List[_Candidate]:
        candidates: Dict[Tuple[str, Tuple[str, ...]], Set[str]] = {}
        for qcs in self.qcs_list:
            relation = self.schema.relation(qcs.relation)
            if qcs.x:
                key = tuple(sorted(qcs.x))
                value = set(qcs.z) - set(key)
            else:
                # scan pattern: key on the primary key (TaaV-like layout)
                pk = relation.primary_key or relation.attribute_names[:1]
                key = tuple(pk)
                value = set(qcs.z) - set(key)
            if not value:
                # a key-only pattern: split the key so the value is non-empty
                if len(key) > 1:
                    value = {key[-1]}
                    key = key[:-1]
                else:
                    others = [
                        a
                        for a in relation.attribute_names
                        if a not in set(key)
                    ]
                    if not others:
                        continue
                    value = {others[0]}
            slot = candidates.setdefault((relation.name, key), set())
            slot |= value
        out = []
        for (rel_name, key), value in sorted(candidates.items()):
            relation = self.schema.relation(rel_name)
            out.append(
                _Candidate(relation, key, tuple(sorted(value - set(key))))
            )
        return out

    # -- support check -----------------------------------------------------------

    @staticmethod
    def _supports(candidates: Sequence[_Candidate], qcs: QCS) -> bool:
        """Scan-free support: GET-style chase within the relation."""
        rel_candidates = [
            c for c in candidates if c.relation.name == qcs.relation
        ]
        if qcs.x:
            known: Set[str] = set(qcs.x)
            changed = True
            while changed:
                changed = False
                for candidate in rel_candidates:
                    if set(candidate.key) <= known and not (
                        candidate.attrs <= known
                    ):
                        known |= candidate.attrs
                        changed = True
            return qcs.z <= known
        # scan pattern: some candidate (chain) must cover Z starting from
        # a whole-instance scan
        for start in rel_candidates:
            known = set(start.attrs)
            changed = True
            while changed:
                changed = False
                for candidate in rel_candidates:
                    if set(candidate.key) <= known and not (
                        candidate.attrs <= known
                    ):
                        known |= candidate.attrs
                        changed = True
            if qcs.z <= known:
                return True
        return False

    def _all_supported(self, candidates: Sequence[_Candidate]) -> bool:
        return all(self._supports(candidates, q) for q in self.qcs_list)

    # -- size estimation -------------------------------------------------------

    def _estimate_bytes(self, candidate: _Candidate) -> int:
        if self.database is None:
            # schema-only estimate: 16 bytes per attribute per "row unit"
            return 16 * len(candidate.attrs)
        relation = self.database.relation(candidate.relation.name)
        attrs = list(candidate.key) + list(candidate.value)
        positions = relation.schema.indexes_of(attrs)
        total = 0
        for row in relation.rows:
            total += row_size(tuple(row[p] for p in positions)) + 8
        return total

    def _total_bytes(self, candidates: Sequence[_Candidate]) -> int:
        return sum(self._estimate_bytes(c) for c in candidates)

    # -- step 2: redundancy removal ---------------------------------------------

    def _remove_redundant(
        self, candidates: List[_Candidate]
    ) -> List[_Candidate]:
        changed = True
        while changed:
            changed = False
            # rank victims: biggest estimated size first (cheapest storage,
            # least efficiency impact when support is preserved anyway)
            ranked = sorted(
                range(len(candidates)),
                key=lambda i: -self._estimate_bytes(candidates[i]),
            )
            for index in ranked:
                rest = candidates[:index] + candidates[index + 1:]
                if rest and self._all_supported(rest):
                    self.report.removed.append(
                        _name(candidates[index])
                    )
                    candidates = rest
                    changed = True
                    break
        return candidates

    # -- step 3: budget-driven merging ----------------------------------------------

    def _merge_for_budget(
        self, candidates: List[_Candidate]
    ) -> List[_Candidate]:
        if self.budget_bytes is None:
            return candidates
        while self._total_bytes(candidates) > self.budget_bytes:
            pair = self._pick_merge_pair(candidates)
            if pair is None:
                break
            i, j = pair
            a, b = candidates[i], candidates[j]
            merged = self._merge(a, b)
            self.report.merged.append((_name(a), _name(b), _name(merged)))
            candidates = [
                c for k, c in enumerate(candidates) if k not in (i, j)
            ]
            candidates.append(merged)
        return candidates

    def _pick_merge_pair(
        self, candidates: List[_Candidate]
    ) -> Optional[Tuple[int, int]]:
        same_key: Optional[Tuple[int, int]] = None
        subset_key: Optional[Tuple[int, int]] = None
        for i in range(len(candidates)):
            for j in range(i + 1, len(candidates)):
                a, b = candidates[i], candidates[j]
                if a.relation.name != b.relation.name:
                    continue
                if a.key == b.key:
                    if same_key is None:
                        same_key = (i, j)
                elif set(a.key) <= set(b.key) or set(b.key) <= set(a.key):
                    if subset_key is None:
                        subset_key = (i, j)
        return same_key or subset_key

    @staticmethod
    def _merge(a: _Candidate, b: _Candidate) -> _Candidate:
        if set(b.key) < set(a.key):
            a, b = b, a
        key = a.key
        value = tuple(sorted((a.attrs | b.attrs) - set(key)))
        return _Candidate(a.relation, key, value)

    # -- entry ------------------------------------------------------------------

    def run(self) -> Tuple[BaaVSchema, T2BReport]:
        candidates = self._initial()
        if not candidates:
            raise SchemaError("T2B: no QCS produced any KV schema")
        candidates = self._remove_redundant(candidates)
        candidates = self._merge_for_budget(candidates)

        baav = BaaVSchema()
        names: Set[str] = set()
        for candidate in candidates:
            name = _name(candidate)
            suffix = 1
            while name in names:
                suffix += 1
                name = f"{_name(candidate)}_{suffix}"
            names.add(name)
            baav.add(
                KVSchema(
                    name, candidate.relation, candidate.key, candidate.value
                )
            )
        for qcs in self.qcs_list:
            self.report.supported[str(qcs)] = self._supports(
                candidates, qcs
            )
        self.report.estimated_bytes = self._total_bytes(candidates)
        self.report.within_budget = (
            self.budget_bytes is None
            or self.report.estimated_bytes <= self.budget_bytes
        )
        return baav, self.report


def _name(candidate: _Candidate) -> str:
    key = "_".join(candidate.key)
    return f"{candidate.relation.name.lower()}__{key}".lower()
