import tiger


def test_every_exported_name_resolves():
    missing = [name for name in tiger.__all__ if not hasattr(tiger, name)]
    assert missing == []
