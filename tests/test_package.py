"""The package's export list."""

import pcreduce


def test_every_export_resolves():
    missing = [name for name in pcreduce.__all__ if not hasattr(pcreduce, name)]
    assert missing == []


def test_exports_have_no_duplicates():
    assert len(set(pcreduce.__all__)) == len(pcreduce.__all__)
