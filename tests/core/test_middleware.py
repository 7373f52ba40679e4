"""Tests for the Zidian middleware facade (M1 + M2 + diagnostics)."""

import random
from collections import Counter
from importlib import import_module

import pytest

from repro.baav import BaaVSchema, KVSchema, kv_schema
from repro.core import QCS, Zidian, suggest_schemas
from repro.errors import SQLAnalysisError, SQLSyntaxError
from repro.workloads.airca import TEMPLATES, airca_baav_schema, sample_params


@pytest.fixture()
def zidian(paper_db, paper_baav_schema, paper_store):
    return Zidian(paper_db.schema, paper_baav_schema, paper_store)


class TestDecide:
    def test_q1_full_verdict(self, zidian, q1_sql):
        decision = zidian.decide(q1_sql)
        assert decision.answerable
        assert decision.is_scan_free
        assert decision.is_bounded
        assert "answerable=True" in decision.summary()

    def test_accepts_sql_string_or_bound(self, zidian, paper_db, q1_sql):
        from repro.sql import bind, parse

        bound = bind(parse(q1_sql), paper_db.schema)
        assert zidian.decide(bound).is_scan_free
        assert zidian.decide(q1_sql).is_scan_free

    def test_without_store_no_bounded_verdict(
        self, paper_db, paper_baav_schema, q1_sql
    ):
        zidian = Zidian(paper_db.schema, paper_baav_schema)
        decision = zidian.decide(q1_sql)
        assert decision.bounded is None
        assert not decision.is_bounded

    def test_syntax_error_propagates(self, zidian):
        with pytest.raises(SQLSyntaxError):
            zidian.decide("select from where")

    def test_binding_error_propagates(self, zidian):
        with pytest.raises(SQLAnalysisError):
            zidian.decide("select nope from SUPPLIER S")

    def test_data_preserving(self, zidian):
        assert zidian.data_preserving().preserved

    def test_degree_bound_configurable(
        self, paper_db, paper_baav_schema, paper_store, q1_sql
    ):
        strict = Zidian(
            paper_db.schema, paper_baav_schema, paper_store, degree_bound=1
        )
        decision = strict.decide(q1_sql)
        assert decision.is_scan_free and not decision.is_bounded


class TestExplain:
    def test_explain_scan_free_query(self, zidian, q1_sql):
        text = zidian.explain(q1_sql)
        assert "verdict" in text
        assert "scan_free=True" in text
        assert "nation_by_name" in text          # chase step
        assert "Constant" in text                # plan leaf
        assert "X[PS]" in text

    def test_explain_non_scan_free_query(self, zidian):
        text = zidian.explain(
            "select S.suppkey, S.nationkey from SUPPLIER S"
        )
        assert "scan_free=False" in text
        assert "uncovered" in text

    def test_explain_shows_degrees(self, zidian, q1_sql):
        assert "degrees" in zidian.explain(q1_sql)

    def test_explain_shows_min_atoms(self, zidian, paper_db):
        sql = """
        select S1.suppkey from SUPPLIER S1, SUPPLIER S2
        where S1.nationkey = S2.nationkey and S2.nationkey = 10
        and S1.nationkey = 10
        """
        text = zidian.explain(sql)
        assert "min(Q)" in text
        assert "S2" not in text.split("min(Q)")[1].splitlines()[0]


class TestSharedClosures:
    """M1 tests each query against clo(R̃, R̃) computed once per schema."""

    def test_add_of_a_suggestion_reaches_a_live_middleware(
        self, paper_db, paper_schemas
    ):
        supplier, partsupp, nation = paper_schemas
        baav = BaaVSchema(
            [
                kv_schema("nation_by_name", nation, ["name"]),
                kv_schema("sup_by_nation", supplier, ["nationkey"]),
                KVSchema(
                    "ps_partial", partsupp, ["suppkey"], ["partkey", "supplycost"]
                ),
            ]
        )
        zidian = Zidian(paper_db.schema, baav)
        sql = "select PS.availqty from PARTSUPP PS where PS.partkey = 100"
        before = zidian.decide(sql)
        assert not before.answerable
        assert before.preservation.missing == ["PS"]
        assert not zidian.data_preserving().preserved

        missing = QCS(
            "PARTSUPP", frozenset({"partkey", "availqty"}), frozenset({"partkey"})
        )
        suggestions = suggest_schemas(paper_db.schema, [missing], baav, paper_db)
        assert suggestions
        for suggestion in suggestions:
            baav.add(suggestion.kv_schema)

        after = zidian.decide(sql)
        assert after.answerable and after.is_scan_free
        assert "answerable=True" in zidian.explain(sql)

    def test_planning_computes_each_closure_once(self, airca_small, monkeypatch):
        # the package re-exports the function under the module's name
        closure_module = import_module("repro.core.closure")
        fresh = closure_module.closure
        calls: Counter = Counter()

        def counting(start, schemas):
            calls[start.name] += 1
            return fresh(start, schemas)

        monkeypatch.setattr(closure_module, "closure", counting)
        baav = airca_baav_schema()
        zidian = Zidian(airca_small.schema, baav)
        rng = random.Random(5)
        names = sorted(TEMPLATES)
        for i in range(50):
            sql = TEMPLATES[names[i % len(names)]].format(
                **sample_params(airca_small, rng)
            )
            zidian.plan(sql)
        zidian.explain(sql)
        zidian.data_preserving()
        assert set(calls) == {s.name for s in baav}
        assert max(calls.values()) == 1
