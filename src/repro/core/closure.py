"""The attribute closure ``clo(R̃, R̃)`` of §5.2 (Condition (I)).

``clo`` is defined inductively:

1. ``att(R̃) ⊆ clo(R̃, R̃)``;
2. if ``pk(R̃′) ⊆ clo(R̃, R̃)`` for some ``R̃′ ∈ R̃`` then
   ``att(R̃′) ⊆ clo(R̃, R̃)``.

Attributes are qualified by relation name (``REL.attr``) since the paper
assumes each KV schema draws its attributes from one relation schema.
Chaining therefore happens among KV schemas of the same relation unless two
relations deliberately share qualified attribute names (they cannot here).

``clo(R̃, R̃)`` depends on the BaaV schema alone, so :func:`closures` computes
it once per schema and keeps it in ``BaaVSchema.clo`` until the next
``BaaVSchema.add``; each query then only tests its attributes against it
(Condition (II)).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import FrozenSet, Iterable, List, Mapping, Set

from repro.baav.schema import BaaVSchema, KVSchema


def _qualified(schema: KVSchema, attrs: Iterable[str]) -> Set[str]:
    relation = schema.relation.name
    return {f"{relation}.{a}" for a in attrs}


def attributes_of(schema: KVSchema) -> Set[str]:
    """``att(R̃)`` as relation-qualified names."""
    return _qualified(schema, schema.attributes)


def primary_key_of(schema: KVSchema) -> Set[str]:
    """``pk(R̃)`` as relation-qualified names."""
    return _qualified(schema, schema.primary_key)


def closure(start: KVSchema, schemas: Iterable[KVSchema]) -> FrozenSet[str]:
    """Compute ``clo(start, schemas)`` over relation-qualified attributes."""
    pool: List[KVSchema] = list(schemas)
    clo: Set[str] = set(attributes_of(start))
    changed = True
    while changed:
        changed = False
        for candidate in pool:
            candidate_attrs = attributes_of(candidate)
            if candidate_attrs <= clo:
                continue
            if primary_key_of(candidate) <= clo:
                clo |= candidate_attrs
                changed = True
    return frozenset(clo)


def closures(baav: BaaVSchema) -> Mapping[str, FrozenSet[str]]:
    """``clo(R̃, R̃)`` for every KV schema of a BaaV schema, read-only.

    Computed on first use and shared until ``baav.add``. Two threads that
    race on first use each build a full mapping and publish it with one
    assignment, so the race only duplicates work.
    """
    clo = baav.clo
    if clo is None:
        pool = list(baav)
        clo = MappingProxyType({s.name: closure(s, pool) for s in pool})
        baav.clo = clo
    return clo
