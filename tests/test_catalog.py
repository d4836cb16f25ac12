from topolab import catalog
from topolab.catalog import catalog_entries, catalog_groups


def test_max_order_filter_keeps_perm_specs(monkeypatch):
    # a perm spec has no closed-form order; the filter keeps it and the
    # build is still guarded by the order cap
    monkeypatch.setattr(catalog, "CATALOG_SPECS", ("perm[(0 1 2)]", "C2", "C64"))
    assert [text for text, _ in catalog_entries(8)] == ["perm[(0 1 2)]", "C2"]
    assert [g.order for _, g in catalog_groups(8)] == [3, 2]
    assert len(catalog_entries()) == 3
