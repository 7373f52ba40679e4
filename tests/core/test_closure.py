"""Tests for clo(R̃, R̃) and Condition (I) — Theorem 1, Example 4."""

import pickle
import sys
import threading
from copy import deepcopy

import pytest

from repro.baav import BaaVSchema, KVSchema, kv_schema
from repro.core import closure, closures, is_data_preserving
from repro.relational import AttrType, DatabaseSchema, RelationSchema
from repro.workloads.airca import airca_baav_schema
from repro.workloads.mot import mot_baav_schema
from repro.workloads.tpch import tpch_baav_schema


def _relation_r():
    return RelationSchema.of(
        "R",
        {"a": AttrType.INT, "b": AttrType.INT, "c": AttrType.INT},
        ["a"],
    )


class TestClosure:
    def test_rule1_own_attributes(self, paper_schemas, paper_baav_schema):
        supplier, partsupp, nation = paper_schemas
        nation_schema = paper_baav_schema.get("nation_by_name")
        clo = closure(nation_schema, paper_baav_schema)
        assert {"NATION.name", "NATION.nationkey"} <= clo

    def test_rule2_pk_chaining(self):
        """R(a,b,c,d) pk=a with <b|a> and <a|c,d>: clo(<b|a>) = all."""
        rel = RelationSchema.of(
            "R",
            {"a": AttrType.INT, "b": AttrType.INT, "c": AttrType.INT,
             "d": AttrType.INT},
            ["a"],
        )
        by_b = KVSchema("by_b", rel, ["b"], ["a"])
        by_a = KVSchema("by_a", rel, ["a"], ["c", "d"])
        baav = BaaVSchema([by_b, by_a])
        clo = closure(by_b, baav)
        assert clo == frozenset({"R.a", "R.b", "R.c", "R.d"})

    def test_no_chaining_without_pk(self):
        """A non-pk key does not trigger rule 2."""
        rel = RelationSchema.of(
            "R",
            {"a": AttrType.INT, "b": AttrType.INT, "c": AttrType.INT},
            ["a"],
        )
        by_b = KVSchema("by_b", rel, ["b"], ["c"])   # no pk coverage
        by_c = KVSchema("by_c", rel, ["c"], ["a"])
        baav = BaaVSchema([by_b, by_c])
        clo = closure(by_b, baav)
        # pk(by_c) defaults to {a} (contained); {a} not in clo(by_b) start
        # {b, c}; so by_c's attrs never join... unless pk(by_c) <= clo.
        assert "R.a" not in clo or {"R.c", "R.a"} <= clo

    def test_transitive_chaining(self):
        rel = RelationSchema.of(
            "R",
            {"a": AttrType.INT, "b": AttrType.INT, "c": AttrType.INT,
             "d": AttrType.INT},
            ["a"],
        )
        s1 = KVSchema("s1", rel, ["d"], ["b"], primary_key=["b"])
        s2 = KVSchema("s2", rel, ["b"], ["a"], primary_key=["b"])
        s3 = KVSchema("s3", rel, ["a"], ["c"], primary_key=["a"])
        baav = BaaVSchema([s1, s2, s3])
        clo = closure(s1, baav)
        assert clo == frozenset({"R.a", "R.b", "R.c", "R.d"})

    def test_closures_computes_all(self, paper_baav_schema):
        clo = closures(paper_baav_schema)
        assert set(clo) == {"nation_by_name", "sup_by_nation", "ps_by_sup"}


class TestSharedClosures:
    """clo(R̃, R̃) is computed once per BaaV schema and reset by add."""

    @pytest.mark.parametrize(
        "make", [airca_baav_schema, mot_baav_schema, tpch_baav_schema]
    )
    def test_equals_fresh_closure_on_workload_schemas(self, make):
        baav = make()
        shared = closures(baav)
        assert dict(shared) == {s.name: closure(s, baav) for s in baav}
        assert closures(baav) is shared

    def test_equals_fresh_closure_on_paper_schema(self, paper_baav_schema):
        shared = closures(paper_baav_schema)
        assert dict(shared) == {
            s.name: closure(s, paper_baav_schema) for s in paper_baav_schema
        }

    def test_add_extends_closure_through_supplied_primary_key(self):
        rel = _relation_r()
        baav = BaaVSchema([KVSchema("by_b", rel, ["b"], ["a"])])
        assert closures(baav)["by_b"] == frozenset({"R.a", "R.b"})
        baav.add(KVSchema("by_a", rel, ["a"], ["c"]))
        after = closures(baav)
        assert after["by_b"] == frozenset({"R.a", "R.b", "R.c"})
        # pk(by_b) = {a} (inherited), so the chain also runs the other way
        assert after["by_a"] == frozenset({"R.a", "R.b", "R.c"})

    def test_mapping_is_read_only(self, paper_baav_schema):
        shared = closures(paper_baav_schema)
        with pytest.raises(TypeError):
            shared["nation_by_name"] = frozenset()
        with pytest.raises(TypeError):
            del shared["nation_by_name"]
        assert "NATION.name" in closures(paper_baav_schema)["nation_by_name"]

    def test_schema_still_copies_and_pickles_after_use(self, paper_baav_schema):
        shared = closures(paper_baav_schema)
        for copy in (
            pickle.loads(pickle.dumps(paper_baav_schema)),
            deepcopy(paper_baav_schema),
        ):
            assert copy.clo is None
            assert dict(closures(copy)) == dict(shared)

    def test_over_relation_keeps_insertion_order(self):
        rel = _relation_r()
        other = RelationSchema.of("S", {"x": AttrType.INT, "y": AttrType.INT}, ["x"])
        by_c = KVSchema("by_c", rel, ["c"], ["a"])
        s_by_x = KVSchema("s_by_x", other, ["x"], ["y"])
        by_a = KVSchema("by_a", rel, ["a"], ["b"])
        baav = BaaVSchema([by_c, s_by_x, by_a])
        by_b = KVSchema("by_b", rel, ["b"], ["c"])
        baav.add(by_b)
        assert baav.over_relation("R") == [by_c, by_a, by_b]
        assert baav.over_relation("S") == [s_by_x]
        assert baav.over_relation("T") == []
        # callers get their own list, not the index
        baav.over_relation("R").clear()
        assert baav.over_relation("R") == [by_c, by_a, by_b]


class TestConditionI:
    def test_example4_data_preserving(self, paper_db, paper_baav_schema):
        """Example 4: R̃1 is data preserving for R1."""
        report = is_data_preserving(paper_db.schema, paper_baav_schema)
        assert report.preserved
        assert set(report.witnesses) == {"SUPPLIER", "PARTSUPP", "NATION"}

    def test_missing_attribute_breaks_preservation(self, paper_schemas):
        """Example 5's R̃'1 (PARTSUPP without availqty) is not preserving."""
        supplier, partsupp, nation = paper_schemas
        baav = BaaVSchema(
            [
                kv_schema("nation_by_name", nation, ["name"]),
                kv_schema("sup_by_nation", supplier, ["nationkey"]),
                KVSchema(
                    "ps_partial", partsupp, ["suppkey"],
                    ["partkey", "supplycost"],
                ),
            ]
        )
        schema = DatabaseSchema([supplier, partsupp, nation])
        report = is_data_preserving(schema, baav)
        assert not report.preserved
        assert report.missing == ["PARTSUPP"]

    def test_relation_with_no_schema_not_preserved(self, paper_schemas):
        supplier, partsupp, nation = paper_schemas
        baav = BaaVSchema([kv_schema("n", nation, ["name"])])
        schema = DatabaseSchema([supplier, nation])
        report = is_data_preserving(schema, baav)
        assert not report.preserved
        assert "SUPPLIER" in report.missing

    def test_pk_chained_preservation(self):
        """Preservation via the clo chain, not a single full schema."""
        rel = RelationSchema.of(
            "R",
            {"a": AttrType.INT, "b": AttrType.INT, "c": AttrType.INT},
            ["a"],
        )
        baav = BaaVSchema(
            [
                KVSchema("by_b", rel, ["b"], ["a"]),
                KVSchema("by_a", rel, ["a"], ["c"]),
            ]
        )
        report = is_data_preserving(DatabaseSchema([rel]), baav)
        assert report.preserved
        assert report.witnesses["R"] == "by_b"


@pytest.mark.stress
def test_threads_racing_on_first_use_all_see_the_full_closures():
    """Threads racing on first use may duplicate work, never publish less."""
    expected = None
    for _ in range(20):
        baav = airca_baav_schema()
        if expected is None:
            expected = {s.name: closure(s, baav) for s in baav}
        barrier = threading.Barrier(6)
        seen = []

        def first_use() -> None:
            barrier.wait(timeout=10.0)
            seen.append(closures(baav))

        threads = [threading.Thread(target=first_use) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 6
        assert all(dict(clo) == expected for clo in seen)
        assert any(closures(baav) is clo for clo in seen)
