import stableou


def test_every_exported_name_resolves():
    missing = [name for name in stableou.__all__ if not hasattr(stableou, name)]
    assert missing == []
    assert len(set(stableou.__all__)) == len(stableou.__all__)


def test_star_import_succeeds():
    namespace = {}
    exec("from stableou import *", namespace)
    assert set(stableou.__all__) <= set(namespace)
