"""__ray_entry__ contract: entry()/queries()/oracle_sql() shapes the driver
relies on (stable schema, matching keys, no ray.init calls)."""

from __future__ import annotations

import ast
import os

import pytest

ENTRY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "__ray_entry__.py")


def _entry_module():
    import __ray_entry__ as E
    return E


class TestEntryContract:
    def test_entry_rows_and_stable_schema(self, ray_session):
        E = _entry_module()
        ds = E.entry()
        schema = ds.schema()
        assert schema.names == ["doc_id", "status", "n_words", "n_spans_out"]
        assert ds.count() >= 40

    def test_oracle_keys_subset_of_queries(self):
        E = _entry_module()
        qs = E.queries()
        sqls = E.oracle_sql()
        assert set(sqls).issubset(set(qs))
        # coverage floor: every query carries a rows+schema+hash twin
        # (exact SQL twins + oracle-dump twins; 239 of each at this floor)
        assert len(sqls) >= 239
        assert len(sqls) == len(qs)
        assert len(qs) >= 239

    def test_extract_query_may_not_shadow_a_registered_one(self):
        E = _entry_module()
        with pytest.raises(ValueError, match=r"\['main_content'\]"):
            E._with_extract({"main_content": 1, "a": 2},
                            {"main_content": 3, "b": 4})

    def test_no_ray_init_in_entry_module(self):
        """The driver owns the Ray session; the module must never init it."""
        src = open(ENTRY).read()
        tree = ast.parse(src)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("init", "shutdown"):
                base = getattr(node.value, "id", None)
                assert base != "ray", "ray.init/shutdown found in __ray_entry__"

    def test_queries_are_callables_taking_sf_dir(self):
        E = _entry_module()
        import inspect
        for name, fn in E.queries().items():
            assert callable(fn), name
            params = inspect.signature(fn).parameters
            assert len(params) >= 1, name
